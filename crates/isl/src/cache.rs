//! The shared operation-memoization context.
//!
//! TENET metrics recompute the *same* relational operations constantly: a
//! DSE sweep evaluates thousands of dataflow candidates that all share the
//! same access maps, and a single report queries `card` on the same
//! intermediate relations many times (volumes, latency, bandwidth, energy
//! all start from the assignment relation). This module gives the crate a
//! process-wide, thread-safe memo table so those repeats cost a hash
//! lookup instead of a Presburger computation.
//!
//! # Design
//!
//! * **Interning.** Every [`Map`] that participates in a memoized
//!   operation is interned: the map value is the key of a hash table
//!   mapping to a small integer id. Interning makes the memo keys compact
//!   (`(op, id, id, extra)`) and — because the table compares keys with
//!   full structural equality, never by hash alone — collision-proof.
//! * **Memoization.** Results are stored under `(op kind, interned
//!   operand ids, extra operand)`. Cached values are returned as clones of
//!   the stored result.
//! * **Exactness.** The cache can only return a value that was computed
//!   by the very operation being memoized on structurally identical
//!   operands, so cached and uncached results are *bit-identical* — there
//!   is no approximation, rounding, or hash-collision risk anywhere.
//!   Property tests (`tests/fastpath.rs`) assert this end to end.
//! * **Bounding.** The table is cleared wholesale when it exceeds
//!   `MAX_ENTRIES` (2¹⁷) entries; correctness never depends on a hit, so
//!   eviction is free to be coarse.
//! * **Concurrency.** One global mutex guards the tables. The lock is
//!   held only for lookups and insertions, never while computing a missed
//!   operation, so parallel DSE threads serialize on microseconds, not on
//!   the Presburger math. Concurrent misses of the same key may compute
//!   the value twice; both compute the same value, and the second insert
//!   is a no-op.
//! * **Operations, not parsing.** Parsing is not memoized: the model
//!   builds its relations from their parts ([`Map::affine_on_box`],
//!   [`crate::Set::from_box`], [`Map::translations`]), and only
//!   user-written and snapshot texts are parsed.
//!
//! Disable globally with [`set_enabled`] or the `TENET_ISL_CACHE=off`
//! environment variable (checked once, at first use).

use crate::map::Map;
use crate::Result;
use std::cell::{Cell, RefCell};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Entry cap: the whole table is cleared when exceeded.
const MAX_ENTRIES: usize = 1 << 17;

/// Which memoized operation produced a cache entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum OpKind {
    /// [`Map::reverse`]
    Reverse,
    /// [`Map::apply_range`]
    ApplyRange,
    /// [`Map::intersect`]
    Intersect,
    /// [`Map::subtract`]
    Subtract,
    /// [`Map::project_out_in`] / [`Map::project_out_out`] (side in `extra`)
    Project,
    /// [`Map::union`]
    Union,
    /// [`Map::intersect_domain`]
    IntersectDomain,
    /// [`Map::intersect_range`]
    IntersectRange,
    /// [`Map::card`]
    Card,
    /// [`Map::is_empty`]
    Empty,
    /// [`Map::coalesce`]
    Coalesce,
    /// [`Map::fix_in`] / [`Map::fix_out`] (column and value in `extra`)
    Fix,
    /// [`crate::Set::max_suffix_slice_card`] (split position in `extra`)
    SliceMax,
}

#[derive(Clone)]
enum CachedVal {
    Map(Arc<Map>),
    Count(u128),
    Bool(bool),
}

#[derive(Default)]
struct Tables {
    /// Interned maps, bucketed by a *precomputed* structural hash (see
    /// [`map_hash`]): callers hash — and, for first-seen operands, clone —
    /// outside the global mutex, so the locked section only does bucket
    /// lookups and (rare) equality scans. Buckets hold every interned map
    /// with that hash; equality disambiguates, so collisions stay safe.
    ids: HashMap<u64, Vec<(Arc<Map>, u64)>>,
    /// Count of interned maps across all buckets.
    n_interned: usize,
    next_id: u64,
    /// Memo: (op, lhs id, rhs id or MAX, extra) -> result.
    memo: HashMap<(OpKind, u64, u64, i128), CachedVal>,
    /// Bumped whenever the tables are cleared. Stores capture the
    /// generation at lookup time and are dropped if eviction intervened,
    /// so a result can never be filed under a reused intern id.
    generation: u64,
}

struct Ctx {
    tables: Mutex<Tables>,
    /// The process-wide counters ([`stats`], [`fast_path_stats`]): a root
    /// handle that every lookup and dispatch bumps. It is never pushed on
    /// [`ATTACHED`], so the cold-time clock stays off while no scoped
    /// handle is attached.
    counters: HandleCounters,
    enabled: AtomicBool,
}

thread_local! {
    /// Counter handles attached to the current thread (a stack: nested
    /// scopes may each attach their own handle).
    static ATTACHED: RefCell<Vec<CounterHandle>> = const { RefCell::new(Vec::new()) };
}

/// Exact per-run hit/miss counters: a scoped slice of the process-wide
/// totals.
///
/// A handle only observes lookups made on threads it is [attached] to, so
/// concurrent cache users (other exploration runs, server requests on
/// other workers) never pollute its numbers — unlike deltas of
/// [`stats`], which are process-wide. Handles are cheap `Arc` clones;
/// attach the same handle on several threads (see
/// [`attached_handles`] for propagating into worker pools) to aggregate
/// one logical run that spans threads.
///
/// [attached]: CounterHandle::attach
#[derive(Clone, Default)]
pub struct CounterHandle {
    inner: Arc<HandleCounters>,
}

#[derive(Default)]
struct HandleCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    /// Wall nanoseconds spent inside *cold* (missed) memo computations on
    /// attached threads. Nested memoized ops only accrue at the outermost
    /// compute, so the total never exceeds wall time.
    cold_ns: AtomicU64,
    /// Closed-form fast-path dispatches taken on attached threads,
    /// indexed by [`crate::count::FastPathKind`] discriminant.
    fast_kinds: [AtomicU64; crate::count::FAST_PATH_KINDS],
}

impl HandleCounters {
    fn record(&self, hit: bool) {
        let ctr = if hit { &self.hits } else { &self.misses };
        ctr.fetch_add(1, Ordering::Relaxed);
    }
}

impl CounterHandle {
    /// A fresh handle with zeroed counters.
    pub fn new() -> CounterHandle {
        CounterHandle::default()
    }

    /// Attaches the handle to the current thread until the guard drops.
    ///
    /// Every memo lookup performed on this thread inside the guard's
    /// lifetime bumps the handle's counters (in addition to the
    /// process-wide ones and any other attached handles).
    pub fn attach(&self) -> AttachGuard {
        ATTACHED.with(|a| a.borrow_mut().push(self.clone()));
        AttachGuard {
            handle: self.clone(),
            _not_send: std::marker::PhantomData,
        }
    }

    /// Lookups answered from the memo on attached threads.
    pub fn hits(&self) -> u64 {
        self.inner.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to compute on attached threads.
    pub fn misses(&self) -> u64 {
        self.inner.misses.load(Ordering::Relaxed)
    }

    /// Hit fraction in `[0, 1]`; `0` when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let (h, m) = (self.hits(), self.misses());
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }

    /// Wall nanoseconds spent in cold (missed) memo computations on
    /// attached threads — the per-request "ISL cold time" the tracing
    /// layer splits out of a request's compute phase.
    pub fn cold_ns(&self) -> u64 {
        self.inner.cold_ns.load(Ordering::Relaxed)
    }

    /// Closed-form counting fast-path dispatches taken on attached
    /// threads (the per-request slice of [`fast_path_stats`]).
    pub fn fast_paths(&self) -> u64 {
        self.fast_path_stats().total()
    }

    /// Per-kind dispatch counts scoped to attached threads — the
    /// process-wide [`fast_path_stats`] sliced down to this handle,
    /// so dispatch assertions stay exact under test parallelism.
    pub fn fast_path_stats(&self) -> crate::count::CountStats {
        crate::count::CountStats::from_counters(&self.inner.fast_kinds)
    }
}

/// Detaches a [`CounterHandle`] from the current thread on drop.
///
/// Deliberately `!Send`: the guard must drop on the thread that attached.
pub struct AttachGuard {
    handle: CounterHandle,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for AttachGuard {
    fn drop(&mut self) {
        ATTACHED.with(|a| {
            let mut v = a.borrow_mut();
            // Pop the most recent attachment of *this* handle (stack
            // discipline holds for scoped guards; search defensively).
            if let Some(pos) = v
                .iter()
                .rposition(|h| Arc::ptr_eq(&h.inner, &self.handle.inner))
            {
                v.remove(pos);
            }
        });
    }
}

/// The handles currently attached to this thread.
///
/// Worker-pool fan-out (e.g. `explore_parallel`) captures this on the
/// spawning thread and re-attaches each handle on its workers, so a
/// logical run keeps exact attribution across its own threads.
pub fn attached_handles() -> Vec<CounterHandle> {
    ATTACHED.with(|a| a.borrow().clone())
}

thread_local! {
    /// Nesting depth of [`timed_compute`] on this thread: cold time is
    /// accrued only at depth 0, so a missed op whose compute recursively
    /// misses nested memoized ops is not double-counted.
    static COLD_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// Runs a missed operation's `compute`, charging its wall time to every
/// attached handle's cold-time counter. Free (one thread-local check)
/// when no handle is attached.
fn timed_compute<T>(compute: impl FnOnce() -> Result<T>) -> Result<T> {
    if ATTACHED.with(|a| a.borrow().is_empty()) {
        return compute();
    }
    struct Depth;
    impl Drop for Depth {
        fn drop(&mut self) {
            COLD_DEPTH.with(|d| d.set(d.get() - 1));
        }
    }
    let outermost = COLD_DEPTH.with(|d| {
        let v = d.get();
        d.set(v + 1);
        v == 0
    });
    let _depth = Depth;
    let t0 = outermost.then(Instant::now);
    let result = compute();
    if let Some(t0) = t0 {
        let ns = t0.elapsed().as_nanos() as u64;
        ATTACHED.with(|a| {
            for h in a.borrow().iter() {
                h.inner.cold_ns.fetch_add(ns, Ordering::Relaxed);
            }
        });
    }
    result
}

/// Bumps the process-wide per-kind fast-path counter plus every handle
/// attached to this thread.
pub(crate) fn note_fastpath(kind: crate::count::FastPathKind) {
    ctx().counters.fast_kinds[kind as usize].fetch_add(1, Ordering::Relaxed);
    ATTACHED.with(|a| {
        for h in a.borrow().iter() {
            h.inner.fast_kinds[kind as usize].fetch_add(1, Ordering::Relaxed);
        }
    });
}

/// Bumps the process-wide counters plus every handle attached to this
/// thread.
fn record(c: &Ctx, hit: bool) {
    c.counters.record(hit);
    ATTACHED.with(|a| {
        for h in a.borrow().iter() {
            h.inner.record(hit);
        }
    });
}

/// Current fast-path dispatch counters (process-wide, monotonic since
/// process start; the `perfbench` smoke mode uses them to assert the fast
/// paths are actually taken). Tests needing exact attribution under
/// `cargo test` parallelism use the scoped view
/// ([`CounterHandle::fast_path_stats`]) instead.
pub fn fast_path_stats() -> crate::count::CountStats {
    crate::count::CountStats::from_counters(&ctx().counters.fast_kinds)
}

fn ctx() -> &'static Ctx {
    static CTX: OnceLock<Ctx> = OnceLock::new();
    CTX.get_or_init(|| {
        let off = std::env::var("TENET_ISL_CACHE")
            .map(|v| v.eq_ignore_ascii_case("off") || v == "0")
            .unwrap_or(false);
        Ctx {
            tables: Mutex::new(Tables::default()),
            counters: HandleCounters::default(),
            enabled: AtomicBool::new(!off),
        }
    })
}

/// Point-in-time cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the memo table.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Entries currently stored.
    pub entries: u64,
    /// Distinct interned relations.
    pub interned: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; `0` when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Current process-wide cache counters.
pub fn stats() -> CacheStats {
    let c = ctx();
    let t = c.tables.lock().expect("isl cache poisoned");
    CacheStats {
        hits: c.counters.hits.load(Ordering::Relaxed),
        misses: c.counters.misses.load(Ordering::Relaxed),
        entries: t.memo.len() as u64,
        interned: t.n_interned as u64,
    }
}

/// Clears all cached results and interned relations (counters survive).
pub fn clear() {
    let c = ctx();
    let mut t = c.tables.lock().expect("isl cache poisoned");
    t.memo.clear();
    t.ids.clear();
    t.n_interned = 0;
    t.next_id = 0;
    t.generation += 1;
}

/// Globally enables or disables memoization (e.g. for A/B measurements).
pub fn set_enabled(on: bool) {
    ctx().enabled.store(on, Ordering::Relaxed);
}

/// Whether memoization is currently enabled.
pub fn enabled() -> bool {
    ctx().enabled.load(Ordering::Relaxed)
}

/// Structural hash of a map with a *deterministic* hasher, computed by
/// callers outside the global mutex. `DefaultHasher::new()` is seeded
/// with fixed keys, so every thread derives the same bucket for the same
/// relation.
fn map_hash(m: &Map) -> u64 {
    let mut h = DefaultHasher::new();
    m.hash(&mut h);
    h.finish()
}

/// Looks up the intern id of `m` in the bucket for its precomputed hash.
/// Caller holds the lock; only (rare) same-hash equality scans run here.
fn find_interned(t: &Tables, h: u64, m: &Map) -> Option<u64> {
    t.ids
        .get(&h)?
        .iter()
        .find(|(k, _)| **k == *m)
        .map(|(_, id)| *id)
}

/// Files an already-cloned map under its precomputed hash. Caller holds
/// the lock and has verified the map is not yet interned.
fn insert_interned(t: &mut Tables, h: u64, m: Arc<Map>) -> u64 {
    let id = t.next_id;
    t.next_id += 1;
    t.ids.entry(h).or_default().push((m, id));
    t.n_interned += 1;
    id
}

fn evict_if_full(t: &mut Tables) {
    if t.memo.len() > MAX_ENTRIES || t.n_interned > MAX_ENTRIES {
        t.memo.clear();
        t.ids.clear();
        t.n_interned = 0;
        t.next_id = 0;
        t.generation += 1;
    }
}

const NO_RHS: u64 = u64::MAX;

/// A pending store slot: the interned operand ids plus the table
/// generation they belong to.
struct Slot {
    ia: u64,
    ib: u64,
    generation: u64,
    hit: Option<CachedVal>,
}

/// Finishes a lookup once both operand ids are known. Caller holds the
/// lock.
fn finish_lookup(c: &Ctx, t: &Tables, op: OpKind, ia: u64, ib: u64, extra: i128) -> Slot {
    let hit = t.memo.get(&(op, ia, ib, extra)).cloned();
    record(c, hit.is_some());
    Slot {
        ia,
        ib,
        generation: t.generation,
        hit,
    }
}

fn lookup(op: OpKind, a: &Map, b: Option<&Map>, extra: i128) -> Option<Slot> {
    let c = ctx();
    if !c.enabled.load(Ordering::Relaxed) {
        return None;
    }
    // Structural hashes are computed before taking the lock.
    let ha = map_hash(a);
    let hb = b.map(map_hash);
    // Fast phase: after warm-up both operands are almost always interned
    // already, so one short locked section resolves the whole lookup.
    let (a_known, b_known) = {
        let mut t = c.tables.lock().expect("isl cache poisoned");
        evict_if_full(&mut t);
        let ia = find_interned(&t, ha, a);
        let ib = match (b, hb) {
            (Some(bm), Some(hb)) => find_interned(&t, hb, bm),
            _ => Some(NO_RHS),
        };
        if let (Some(ia), Some(ib)) = (ia, ib) {
            return Some(finish_lookup(c, &t, op, ia, ib, extra));
        }
        (ia.is_some(), ib.is_some())
    };
    // Slow phase: at least one operand is first-seen. Clone it into its
    // `Arc` *outside* the lock — for large unions the deep copy dwarfs the
    // bucket bookkeeping — then re-resolve under the lock (another thread
    // may have interned it meanwhile; its clone simply wins).
    let arc_a = (!a_known).then(|| Arc::new(a.clone()));
    let arc_b = match (b, b_known) {
        (Some(bm), false) => Some(Arc::new(bm.clone())),
        _ => None,
    };
    let mut t = c.tables.lock().expect("isl cache poisoned");
    let ia = match find_interned(&t, ha, a) {
        Some(id) => id,
        None => insert_interned(&mut t, ha, arc_a?),
    };
    let ib = match (b, hb) {
        (Some(bm), Some(hb)) => match find_interned(&t, hb, bm) {
            Some(id) => id,
            None => insert_interned(&mut t, hb, arc_b?),
        },
        _ => NO_RHS,
    };
    Some(finish_lookup(c, &t, op, ia, ib, extra))
}

fn store(op: OpKind, slot: &Slot, extra: i128, val: CachedVal) {
    let c = ctx();
    let mut t = c.tables.lock().expect("isl cache poisoned");
    // An eviction between lookup and store invalidates the captured ids
    // (they may have been reassigned to different relations — note that
    // `compute` itself can trigger eviction through nested memoized ops);
    // dropping the write is always safe: the memo is an accelerator,
    // never a source of truth.
    if t.generation == slot.generation {
        t.memo.insert((op, slot.ia, slot.ib, extra), val);
    }
}

/// Memoizes a map-valued operation. `compute` runs without the lock held.
pub(crate) fn memo_map(
    op: OpKind,
    a: &Map,
    b: Option<&Map>,
    extra: i128,
    compute: impl FnOnce() -> Result<Map>,
) -> Result<Map> {
    let slot = lookup(op, a, b, extra);
    if let Some(Slot {
        hit: Some(CachedVal::Map(m)),
        ..
    }) = &slot
    {
        return Ok((**m).clone());
    }
    let result = timed_compute(compute)?;
    if let Some(slot) = slot {
        store(op, &slot, extra, CachedVal::Map(Arc::new(result.clone())));
    }
    Ok(result)
}

/// Memoizes a count-valued operation.
pub(crate) fn memo_count(
    op: OpKind,
    a: &Map,
    extra: i128,
    compute: impl FnOnce() -> Result<u128>,
) -> Result<u128> {
    let slot = lookup(op, a, None, extra);
    if let Some(Slot {
        hit: Some(CachedVal::Count(n)),
        ..
    }) = &slot
    {
        return Ok(*n);
    }
    let result = timed_compute(compute)?;
    if let Some(slot) = slot {
        store(op, &slot, extra, CachedVal::Count(result));
    }
    Ok(result)
}

/// Memoizes a boolean-valued operation.
pub(crate) fn memo_bool(
    op: OpKind,
    a: &Map,
    compute: impl FnOnce() -> Result<bool>,
) -> Result<bool> {
    let slot = lookup(op, a, None, 0);
    if let Some(Slot {
        hit: Some(CachedVal::Bool(v)),
        ..
    }) = &slot
    {
        return Ok(*v);
    }
    let result = timed_compute(compute)?;
    if let Some(slot) = slot {
        store(op, &slot, 0, CachedVal::Bool(result));
    }
    Ok(result)
}

// ---------------------------------------------------------------------------
// Snapshot export / import
// ---------------------------------------------------------------------------

/// Stable wire name of an [`OpKind`]; the inverse of [`op_from_name`].
/// Snapshot files persist these strings, so renaming a variant must keep
/// its wire name (or bump the snapshot format version).
fn op_name(op: OpKind) -> &'static str {
    match op {
        OpKind::Reverse => "reverse",
        OpKind::ApplyRange => "apply_range",
        OpKind::Intersect => "intersect",
        OpKind::Subtract => "subtract",
        OpKind::Project => "project",
        OpKind::Union => "union",
        OpKind::IntersectDomain => "intersect_domain",
        OpKind::IntersectRange => "intersect_range",
        OpKind::Card => "card",
        OpKind::Empty => "empty",
        OpKind::Coalesce => "coalesce",
        OpKind::Fix => "fix",
        OpKind::SliceMax => "slice_max",
    }
}

fn op_from_name(name: &str) -> Option<OpKind> {
    Some(match name {
        "reverse" => OpKind::Reverse,
        "apply_range" => OpKind::ApplyRange,
        "intersect" => OpKind::Intersect,
        "subtract" => OpKind::Subtract,
        "project" => OpKind::Project,
        "union" => OpKind::Union,
        "intersect_domain" => OpKind::IntersectDomain,
        "intersect_range" => OpKind::IntersectRange,
        "card" => OpKind::Card,
        "empty" => OpKind::Empty,
        "coalesce" => OpKind::Coalesce,
        "fix" => OpKind::Fix,
        "slice_max" => OpKind::SliceMax,
        _ => return None,
    })
}

/// Whether `m` Display-prints in set notation (no `->` arrow), which
/// decides the parser entry point on restore (`Set::parse` accepts texts
/// `Map::parse` rejects and vice versa).
fn set_shaped(m: &Map) -> bool {
    m.n_in() == 0 && m.space().input.name.is_none()
}

/// A relation in portable text form: the canonical `fmt` notation plus
/// which parser entry point reconstructs it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelExport {
    /// Canonical text (`Display` output, accepted by the parser).
    pub text: String,
    /// `true` when the text is set notation (restore via `Set::parse`).
    pub set: bool,
}

/// A memoized result in portable form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValExport {
    /// A map-valued result, as canonical text.
    Map(RelExport),
    /// A count-valued result.
    Count(u128),
    /// A boolean-valued result.
    Bool(bool),
}

/// One memo entry in portable form: operand *texts*, never raw intern
/// ids — restore is re-parse + re-intern under fresh ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoExport {
    /// Stable operation name (the wire name of the memoized operation,
    /// e.g. `apply_range` or `card`).
    pub op: String,
    /// Left operand.
    pub lhs: RelExport,
    /// Right operand, absent for unary operations.
    pub rhs: Option<RelExport>,
    /// The packed extra operand (projection side, fix column/value, …).
    pub extra: i128,
    /// The memoized result.
    pub value: ValExport,
}

/// A portable, self-contained image of the memo context.
///
/// Produced by [`export`] under a single lock acquisition, so the image
/// is always a consistent point-in-time view — a concurrent wholesale
/// clear (cap overflow or [`clear`]) lands entirely before or entirely
/// after it, never in the middle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheExport {
    /// Memoized operation entries.
    pub memo: Vec<MemoExport>,
}

/// Outcome counts of [`import`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImportReport {
    /// Memo entries restored.
    pub memo: u64,
    /// Entries dropped (unknown op name, unparseable text, table full).
    pub skipped: u64,
}

/// Exports the memo context as re-parseable text.
///
/// The whole walk happens under one acquisition of the table mutex, so
/// the result is a consistent snapshot even while other threads insert
/// or clear concurrently. Entries involving an *empty* relation with a
/// non-set space are skipped: their printed form loses the input tuple,
/// so they cannot round-trip.
pub fn export() -> CacheExport {
    let c = ctx();
    let t = c.tables.lock().expect("isl cache poisoned");
    let mut by_id: HashMap<u64, &Arc<Map>> = HashMap::with_capacity(t.n_interned);
    for bucket in t.ids.values() {
        for (m, id) in bucket {
            by_id.insert(*id, m);
        }
    }
    let rel = |m: &Map| -> Option<RelExport> {
        let set = set_shaped(m);
        if m.basics.is_empty() && !set {
            return None; // printed form would drop the input tuple
        }
        Some(RelExport {
            text: m.to_string(),
            set,
        })
    };
    let mut memo = Vec::with_capacity(t.memo.len());
    for (&(op, ia, ib, extra), val) in &t.memo {
        // Operand ids always resolve: the memo and intern tables are read
        // under the same lock acquisition, and every store went through
        // interning. A panic here means export lost its consistency.
        let Some(lhs) = rel(by_id.get(&ia).expect("memo lhs interned")) else {
            continue;
        };
        let rhs = if ib == NO_RHS {
            None
        } else {
            match rel(by_id.get(&ib).expect("memo rhs interned")) {
                Some(r) => Some(r),
                None => continue,
            }
        };
        let value = match val {
            CachedVal::Map(m) => match rel(m) {
                Some(r) => ValExport::Map(r),
                None => continue,
            },
            CachedVal::Count(n) => ValExport::Count(*n),
            CachedVal::Bool(b) => ValExport::Bool(*b),
        };
        memo.push(MemoExport {
            op: op_name(op).to_string(),
            lhs,
            rhs,
            extra,
            value,
        });
    }
    CacheExport { memo }
}

/// Re-parses `r` with the parser entry point it was exported for.
fn reparse(r: &RelExport) -> Option<Map> {
    if r.set {
        crate::Set::parse(&r.text).ok().map(crate::Set::into_map)
    } else {
        Map::parse(&r.text).ok()
    }
}

/// Imports a previously [`export`]ed image: re-parse every text and
/// re-intern under fresh ids. Unknown ops and unparseable texts are
/// skipped (counted), never fatal — the memo is an accelerator, not a
/// source of truth. No-op when the cache is disabled.
pub fn import(snap: &CacheExport) -> ImportReport {
    let c = ctx();
    let mut report = ImportReport::default();
    if !c.enabled.load(Ordering::Relaxed) {
        return report;
    }
    // Parse all memo operands/values outside the lock, deduplicating
    // repeated texts, then intern + insert in one locked pass.
    let mut parsed: HashMap<(String, bool), Option<Map>> = HashMap::new();
    let mut resolve = |r: &RelExport| -> Option<Map> {
        parsed
            .entry((r.text.clone(), r.set))
            .or_insert_with(|| reparse(r))
            .clone()
    };
    let mut ready: Vec<(OpKind, Map, Option<Map>, i128, CachedVal)> = Vec::new();
    for e in snap.memo.iter() {
        let prepared = op_from_name(&e.op).and_then(|op| {
            let lhs = resolve(&e.lhs)?;
            let rhs = match &e.rhs {
                Some(r) => Some(resolve(r)?),
                None => None,
            };
            let val = match &e.value {
                ValExport::Map(r) => CachedVal::Map(Arc::new(resolve(r)?)),
                ValExport::Count(n) => CachedVal::Count(*n),
                ValExport::Bool(b) => CachedVal::Bool(*b),
            };
            Some((op, lhs, rhs, e.extra, val))
        });
        match prepared {
            Some(p) => ready.push(p),
            None => report.skipped += 1,
        }
    }
    let mut t = c.tables.lock().expect("isl cache poisoned");
    for (op, lhs, rhs, extra, val) in ready {
        if t.memo.len() >= MAX_ENTRIES || t.n_interned >= MAX_ENTRIES {
            report.skipped += 1;
            continue;
        }
        let ha = map_hash(&lhs);
        let ia = match find_interned(&t, ha, &lhs) {
            Some(id) => id,
            None => insert_interned(&mut t, ha, Arc::new(lhs)),
        };
        let ib = match rhs {
            Some(r) => {
                let hb = map_hash(&r);
                match find_interned(&t, hb, &r) {
                    Some(id) => id,
                    None => insert_interned(&mut t, hb, Arc::new(r)),
                }
            }
            None => NO_RHS,
        };
        t.memo.entry((op, ia, ib, extra)).or_insert(val);
        report.memo += 1;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that toggle the global enabled flag.
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(())).lock().unwrap()
    }

    #[test]
    fn card_is_memoized_and_identical() {
        let _guard = test_lock();
        let m = Map::parse("{ S[i, j] -> PE[i] : 0 <= i < 9 and 0 <= j < 7 }").unwrap();
        set_enabled(true);
        clear();
        let handle = CounterHandle::new();
        let _attached = handle.attach();
        let a = m.card().unwrap();
        let hits = handle.hits();
        let b = m.card().unwrap();
        assert_eq!(a, b);
        assert_eq!(a, 63);
        assert_eq!(handle.hits(), hits + 1, "second card call must hit");
    }

    #[test]
    fn disabled_cache_bypasses() {
        let _guard = test_lock();
        let m = Map::parse("{ S[i] -> T[i] : 0 <= i < 5 }").unwrap();
        set_enabled(false);
        clear();
        let handle = CounterHandle::new();
        {
            let _attached = handle.attach();
            let _ = m.card().unwrap();
            let _ = m.card().unwrap();
        }
        set_enabled(true);
        assert_eq!(
            handle.hits() + handle.misses(),
            0,
            "disabled cache must not count"
        );
    }

    #[test]
    fn counter_handle_ignores_other_threads() {
        let _guard = test_lock();
        set_enabled(true);
        clear();
        let handle = CounterHandle::new();
        // A polluter thread hammers the cache with its own relations the
        // whole time; none of its lookups may land on our handle.
        let stop = Arc::new(AtomicBool::new(false));
        let polluter = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let m = Map::parse("{ P[x] -> Q[x] : 0 <= x < 11 }").unwrap();
                while !stop.load(Ordering::Relaxed) {
                    let _ = m.card();
                }
            })
        };
        let m = Map::parse("{ S[i, j] -> PE[j] : 0 <= i < 4 and 0 <= j < 5 }").unwrap();
        {
            let _attached = handle.attach();
            for _ in 0..10 {
                assert_eq!(m.card().unwrap(), 20);
            }
        }
        stop.store(true, Ordering::Relaxed);
        polluter.join().unwrap();
        // Exactly 10 attributed card lookups: 1 miss then 9 hits.
        assert_eq!(handle.hits() + handle.misses(), 10, "exact attribution");
        assert_eq!(handle.misses(), 1);
        assert_eq!(handle.hits(), 9);
        // Detached now: further lookups must not move the handle.
        let _ = m.card().unwrap();
        assert_eq!(handle.hits() + handle.misses(), 10);
    }

    /// The process-wide view is the root of the same mechanism: it moves
    /// by at least what any attached handle sees (other threads may add
    /// more), lookups and dispatches alike.
    #[test]
    fn process_counters_cover_every_handle() {
        let _guard = test_lock();
        set_enabled(true);
        clear();
        let (before, fast_before) = (stats(), fast_path_stats());
        let handle = CounterHandle::new();
        {
            let _attached = handle.attach();
            let m = Map::parse("{ S[i, j] -> PE[i] : 0 <= i < 13 and 0 <= j <= i }").unwrap();
            assert_eq!(m.card().unwrap(), 91);
            assert_eq!(m.card().unwrap(), 91);
        }
        let (after, fast_after) = (stats(), fast_path_stats());
        assert!(handle.hits() >= 1 && handle.misses() >= 1);
        assert!(handle.fast_paths() >= 1, "a fast path must dispatch");
        assert!(after.hits - before.hits >= handle.hits());
        assert!(after.misses - before.misses >= handle.misses());
        assert!(fast_after.total() - fast_before.total() >= handle.fast_paths());
    }

    #[test]
    fn attached_handles_snapshot_propagates() {
        let _guard = test_lock();
        set_enabled(true);
        let h = CounterHandle::new();
        let _a = h.attach();
        let snapshot = attached_handles();
        assert_eq!(snapshot.len(), 1);
        // Re-attaching the snapshot on another thread funnels that
        // thread's lookups into the same handle.
        std::thread::scope(|s| {
            s.spawn(move || {
                let _guards: Vec<_> = snapshot.iter().map(|h| h.attach()).collect();
                let m = Map::parse("{ W[x] -> V[x] : 0 <= x < 7 }").unwrap();
                let _ = m.card().unwrap();
            });
        });
        assert!(h.hits() + h.misses() >= 1, "worker lookups must count");
    }

    #[test]
    fn export_import_round_trip_restores_hits() {
        let _guard = test_lock();
        set_enabled(true);
        clear();
        let m = Map::parse("{ S[i, j] -> PE[i] : 0 <= i < 9 and 0 <= j < 7 }").unwrap();
        let s = crate::Set::parse("{ P[x, y] : 0 <= x < 5 and 0 <= y < 3 }").unwrap();
        assert_eq!(m.card().unwrap(), 63);
        assert!(!s.as_map().is_empty().unwrap());
        let snap = export();
        assert!(snap.memo.len() >= 2, "card + empty memoized: {snap:?}");
        clear();
        let report = import(&snap);
        assert_eq!(report.skipped, 0, "round-trip must not drop entries");
        assert_eq!(report.memo as usize, snap.memo.len());
        // Replaying the same operations must hit: parse is deterministic,
        // so re-parsed operands are structurally identical to the
        // re-interned snapshot operands.
        let handle = CounterHandle::new();
        {
            let _attached = handle.attach();
            let m2 = Map::parse("{ S[i, j] -> PE[i] : 0 <= i < 9 and 0 <= j < 7 }").unwrap();
            assert_eq!(m2.card().unwrap(), 63);
            let s2 = crate::Set::parse("{ P[x, y] : 0 <= x < 5 and 0 <= y < 3 }").unwrap();
            assert!(!s2.as_map().is_empty().unwrap());
        }
        assert_eq!(handle.misses(), 0, "replay after restore must be all-warm");
        assert_eq!(handle.hits(), 2, "card + empty");
    }

    #[test]
    fn export_is_consistent_under_concurrent_clears() {
        let _guard = test_lock();
        set_enabled(true);
        clear();
        // Writers keep repopulating while a clearer wipes the tables
        // wholesale; every export must be a coherent point-in-time view
        // (operand ids resolve — export panics if not — and importing it
        // into a cleared context drops nothing).
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let m = Map::parse("{ W[i, j] -> PE[j] : 0 <= i < 6 and 0 <= j < 4 }").unwrap();
                while !stop.load(Ordering::Relaxed) {
                    let _ = m.card();
                    let _ = m.is_empty();
                }
            })
        };
        let clearer = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    clear();
                    std::thread::yield_now();
                }
            })
        };
        for _ in 0..200 {
            let snap = export();
            clear();
            let report = import(&snap);
            assert_eq!(
                report.skipped, 0,
                "a consistent export imports without drops: {snap:?}"
            );
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
        clearer.join().unwrap();
    }

    #[test]
    fn import_rejects_unknown_ops_without_failing() {
        let _guard = test_lock();
        set_enabled(true);
        clear();
        let entry = |op: &str, text: &str| MemoExport {
            op: op.into(),
            lhs: RelExport {
                text: text.into(),
                set: false,
            },
            rhs: None,
            extra: 0,
            value: ValExport::Count(3),
        };
        let snap = CacheExport {
            memo: vec![
                entry("warp_speed", "{ A[i] -> B[i] : 0 <= i < 3 }"),
                entry("card", "not a map"),
            ],
        };
        let report = import(&snap);
        assert_eq!(report.skipped, 2, "bad text + unknown op: {report:?}");
        assert_eq!(report.memo, 0);
    }

    /// Parsing an N-disjunct text collects the disjuncts in one pass: no
    /// partial union goes through the memo, and neither does the parse
    /// itself, so parsing interns nothing. Counted as memo lookups on a
    /// handle attached to this thread (every interned relation is an
    /// operand of such a lookup); the process-wide `stats().interned` also
    /// moves with tests running in parallel.
    #[test]
    fn parse_does_not_intern_partial_unions() {
        let _guard = test_lock();
        set_enabled(true);
        let text = |n: i64| {
            let disjuncts: Vec<String> = (0..n)
                .map(|d| format!("ST[p, q, t] -> ST[p + {}, q - {}, t + 1]", d % 8, d / 8))
                .collect();
            format!("{{ {} }}", disjuncts.join("; "))
        };
        for n in [1, 8, 64] {
            clear();
            let handle = CounterHandle::new();
            let m = {
                let _attached = handle.attach();
                Map::parse(&text(n)).unwrap()
            };
            assert_eq!(m.basics().len(), n as usize);
            assert_eq!(
                (handle.hits(), handle.misses()),
                (0, 0),
                "{n} disjuncts: parsing must not reach the memo"
            );
        }
    }

    #[test]
    fn distinct_maps_do_not_collide() {
        let _guard = test_lock();
        set_enabled(true);
        let a = Map::parse("{ S[i] -> T[i] : 0 <= i < 5 }").unwrap();
        let b = Map::parse("{ S[i] -> T[i] : 0 <= i < 6 }").unwrap();
        assert_eq!(a.card().unwrap(), 5);
        assert_eq!(b.card().unwrap(), 6);
        assert_eq!(a.card().unwrap(), 5);
    }
}
