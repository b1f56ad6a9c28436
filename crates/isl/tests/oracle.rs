//! Differential enumeration oracle for the counting engine.
//!
//! `count_by_points` re-counts a set by scanning its bounding box with
//! `contains_point` only — a code path independent of the closed-form
//! counters, the recursive enumerator, *and* the memo layer — so any fast
//! path that silently diverges from enumeration fails here. Every property
//! runs once with the cache disabled and once against a warm cache (the
//! same switch `TENET_ISL_CACHE=off` flips), so the memo layer is
//! differentially tested too.

use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use tenet_isl::{cache, CountStats, CounterHandle, Map, Set, Tuple};

/// Brute-force point count over the bounding box `[lo, hi]^d`, using only
/// `contains_point`.
fn count_by_points(s: &Set, lo: i64, hi: i64) -> u128 {
    let d = s.n_dim();
    let mut count = 0u128;
    let mut point = vec![lo; d];
    loop {
        if s.contains_point(&point).unwrap() {
            count += 1;
        }
        let mut i = 0;
        loop {
            if i == d {
                return count;
            }
            point[i] += 1;
            if point[i] <= hi {
                break;
            }
            point[i] = lo;
            i += 1;
        }
    }
}

/// Serializes tests that toggle the global cache-enabled flag.
fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    use std::sync::{Mutex, OnceLock};
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(())).lock().unwrap()
}

/// Runs `f` with the cache disabled, then twice against an enabled cache
/// (second run replays from the tables); returns (cold, warm-hit).
fn with_and_without_cache<T>(f: impl Fn() -> T) -> (T, T) {
    let _guard = test_lock();
    cache::set_enabled(false);
    let cold = f();
    cache::clear();
    cache::set_enabled(true);
    let _warm_miss = f();
    let warm_hit = f();
    cache::set_enabled(true);
    (cold, warm_hit)
}

/// Text of a random box over `x0..x{d-1}` with bounds in `[-5, 8]`.
fn box_strategy(d: usize) -> BoxedStrategy<String> {
    proptest::collection::vec((-5i64..=8, -5i64..=8), d).prop_map(move |bounds| {
        let dims: Vec<String> = (0..bounds.len()).map(|i| format!("x{i}")).collect();
        let cons: Vec<String> = bounds
            .iter()
            .enumerate()
            .map(|(i, (a, b))| {
                let (lo, hi) = (a.min(b), a.max(b));
                format!("{lo} <= x{i} and x{i} <= {hi}")
            })
            .collect();
        format!("{{ A[{}] : {} }}", dims.join(", "), cons.join(" and "))
    })
}

/// Appends `k` random slabs (window constraints on random directions) to a
/// box text: slab stacks in one or several directions.
fn slab_stack_strategy(d: usize, k: usize) -> BoxedStrategy<String> {
    (
        box_strategy(d),
        proptest::collection::vec(
            (
                proptest::collection::vec(-3i64..=3, d),
                -12i64..=6,
                0i64..=16,
            ),
            k,
        ),
    )
        .prop_map(|(text, slabs)| {
            let mut t = text.trim_end_matches(" }").to_string();
            for (coefs, lo, width) in &slabs {
                let terms: Vec<String> = coefs
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| **c != 0)
                    .map(|(i, c)| format!("{c}*x{i}"))
                    .collect();
                if terms.is_empty() {
                    continue;
                }
                let e = terms.join(" + ");
                t.push_str(&format!(" and {lo} <= {e} and {e} <= {}", lo + width));
            }
            t.push_str(" }");
            t
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random box ∩ slab-stack shapes: `card` equals the enumeration
    /// oracle, cached and uncached.
    #[test]
    fn slab_stack_card_matches_oracle(text in slab_stack_strategy(3, 3)) {
        let (cold, warm) = with_and_without_cache(|| {
            Set::parse(&text).unwrap().card().unwrap()
        });
        let s = Set::parse(&text).unwrap();
        let oracle = count_by_points(&s, -6, 9);
        prop_assert_eq!(cold, oracle, "cold card vs oracle for {}", text);
        prop_assert_eq!(warm, oracle, "warm card vs oracle for {}", text);
    }

    /// Two-dimensional stacks: every slab shares all variables.
    #[test]
    fn planar_slab_stack_card_matches_oracle(text in slab_stack_strategy(2, 2)) {
        let (cold, warm) = with_and_without_cache(|| {
            Set::parse(&text).unwrap().card().unwrap()
        });
        let s = Set::parse(&text).unwrap();
        let oracle = count_by_points(&s, -6, 9);
        prop_assert_eq!(cold, oracle, "cold card vs oracle for {}", text);
        prop_assert_eq!(warm, oracle, "warm card vs oracle for {}", text);
    }

    /// Random `fix` pinnings: pinning a dimension then counting agrees
    /// with the oracle of the pinned set (exercises the memoized fix).
    #[test]
    fn fixed_card_matches_oracle(
        text in slab_stack_strategy(3, 1),
        dim in 0usize..3,
        val in -6i64..=9,
    ) {
        let (cold, warm) = with_and_without_cache(|| {
            Set::parse(&text).unwrap().fix(dim, val).card().unwrap()
        });
        let fixed = Set::parse(&text).unwrap().fix(dim, val);
        let oracle = count_by_points(&fixed, -6, 9);
        prop_assert_eq!(cold, oracle, "cold fixed card for {} [x{}={}]", text, dim, val);
        prop_assert_eq!(warm, oracle, "warm fixed card for {} [x{}={}]", text, dim, val);
    }

    /// Random unions: the disjoint-decomposition count agrees with the
    /// oracle of the union.
    #[test]
    fn union_card_matches_oracle(
        a_text in slab_stack_strategy(2, 1),
        b_text in box_strategy(2),
    ) {
        let (cold, warm) = with_and_without_cache(|| {
            let a = Set::parse(&a_text).unwrap();
            let b = Set::parse(&b_text).unwrap();
            a.union(&b).unwrap().card().unwrap()
        });
        let u = Set::parse(&a_text)
            .unwrap()
            .union(&Set::parse(&b_text).unwrap())
            .unwrap();
        let oracle = count_by_points(&u, -6, 9);
        prop_assert_eq!(cold, oracle, "cold union card for {} ∪ {}", a_text, b_text);
        prop_assert_eq!(warm, oracle, "warm union card for {} ∪ {}", a_text, b_text);
    }

    /// `max_suffix_slice_card` (the bucketed utilization primitive)
    /// agrees with pinning every suffix value and counting separately.
    #[test]
    fn suffix_slice_max_matches_fix_loop(
        text in slab_stack_strategy(3, 1),
        split in 1usize..3,
    ) {
        let (cold, warm) = with_and_without_cache(|| {
            Set::parse(&text).unwrap().max_suffix_slice_card(split, 1 << 20).unwrap()
        });
        let s = Set::parse(&text).unwrap();
        let d = s.n_dim();
        // Reference: enumerate suffix assignments over the oracle window.
        let mut expect = 0u128;
        let mut suffix = vec![-6i64; d - split];
        'outer: loop {
            let mut fixed = s.clone();
            for (i, &v) in suffix.iter().enumerate() {
                fixed = fixed.fix(split + i, v);
            }
            expect = expect.max(count_by_points(&fixed, -6, 9));
            for s in suffix.iter_mut() {
                *s += 1;
                if *s <= 9 {
                    continue 'outer;
                }
                *s = -6;
            }
            break;
        }
        prop_assert_eq!(cold, expect, "cold slice max for {} split {}", text, split);
        prop_assert_eq!(warm, expect, "warm slice max for {} split {}", text, split);
    }
}

/// Counts `text` with the cache off while a scoped [`CounterHandle`] is
/// attached, returning the card together with the handle's per-kind
/// dispatch stats. Unlike the process-global [`tenet_isl::fast_path_stats`],
/// the handle only sees this thread's dispatches, so the assertions stay
/// exact when the test harness runs other counting tests in parallel.
fn card_with_dispatch(text: &str) -> (u128, CountStats) {
    let _guard = test_lock();
    cache::set_enabled(false);
    let handle = CounterHandle::new();
    let card = {
        let _attached = handle.attach();
        Set::parse(text).unwrap().card().unwrap()
    };
    cache::set_enabled(true);
    (card, handle.fast_path_stats())
}

/// Slabs in two or more directions have no closed form: recursion counts
/// them. Shared-support pairs, chains, three directions over three dims,
/// disjoint supports and a shared pivot variable must all match the
/// brute-force oracle, cold and warm. Each entry is `(text, lo, hi)`
/// with `[lo, hi]` the oracle's scan window per dimension.
#[test]
fn multi_direction_shapes_match_oracle() {
    let shapes = [
        (
            "{ A[x, y] : 0 <= x < 25 and 0 <= y < 25 \
             and 4 <= x + y and x + y <= 30 and -10 <= x - 2y and x - 2y <= 10 }",
            -1,
            27,
        ),
        (
            "{ A[x, y, z] : 0 <= x < 18 and 0 <= y < 18 and 0 <= z < 18 \
             and 5 <= x + y and x + y <= 24 and 3 <= y + z and y + z <= 27 }",
            -1,
            27,
        ),
        (
            "{ A[x, y, z] : 0 <= x < 12 and 0 <= y < 12 and 0 <= z < 12 \
             and 2 <= x + y and x + y <= 18 and 1 <= y + z and y + z <= 19 \
             and 0 <= x + z and x + z <= 16 }",
            -1,
            27,
        ),
        (
            "{ A[x, y, z, w] : 0 <= x < 8 and 0 <= y < 8 and 0 <= z < 8 and 0 <= w < 8 \
             and 3 <= x + y and x + y <= 10 and 2 <= z + w and z + w <= 12 }",
            -1,
            8,
        ),
        (
            "{ A[v, w, x, y, z] : 0 <= v < 8 and 0 <= w < 8 and 0 <= x < 8 \
             and 0 <= y < 8 and 0 <= z < 8 \
             and 3 <= v + w + x and v + w + x <= 14 \
             and 2 <= x + y + z and x + y + z <= 15 }",
            -1,
            8,
        ),
    ];
    for (text, lo, hi) in shapes {
        let oracle = count_by_points(&Set::parse(text).unwrap(), lo, hi);
        let (cold, warm) = with_and_without_cache(|| Set::parse(text).unwrap().card().unwrap());
        assert_eq!(cold, oracle, "cold {text}");
        assert_eq!(warm, oracle, "warm {text}");
    }
}

/// Wide multi-direction shapes, far beyond a brute-force scan, must still
/// count exactly by recursion — never `TooComplex`.
#[test]
fn wide_multi_direction_shapes_stay_exact() {
    let cases: [(&str, u128); 2] = [
        (
            "{ A[x, y, z] : 0 <= x <= 2999 and 0 <= y <= 2999 and 0 <= z <= 2999 \
             and 5 <= x + y + z <= 5000 and -100 <= x - z <= 700 }",
            3_832_052_965,
        ),
        (
            "{ A[x, y, z, w] : 0 <= x < 300 and 0 <= y < 300 and 0 <= z < 300 \
             and 0 <= w < 300 and 3 <= x + y + z <= 500 and 2 <= z + w <= 400 }",
            4_367_243_466,
        ),
    ];
    for (text, expect) in cases {
        let (cold, warm) = with_and_without_cache(|| Set::parse(text).unwrap().card());
        assert_eq!(cold, Ok(expect), "cold {text}");
        assert_eq!(warm, Ok(expect), "warm {text}");
    }
}

// ---------------------------------------------------------------------------
// Seeded generative corpus
//
// A hand-rolled splitmix64 stream (not proptest) drives these so a failing
// case reproduces exactly from the seed printed in the panic message:
//
//     TENET_ORACLE_SEED=0x1234 cargo test -p tenet-isl --test oracle
//
// Five shape classes — window, box, slab, coupled-slab, pair-chain — are
// generated over 1–5 dimensions with the bounding window shrunk as the
// dimension grows (the brute-force oracle scans the full window). Every
// case checks `card` against `count_by_points` cold (cache off) and warm
// (second run against populated tables). A sixth class,
// translation-compose, checks `apply_range` through unions of
// translations (see `corpus_translation_compose`). `TENET_ORACLE_DEEP=1`
// grows the corpus from 64 to 500 cases per class (the CI oracle-deep
// job).
// ---------------------------------------------------------------------------

/// splitmix64: tiny, seedable, and identical on every platform.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo <= hi);
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    /// A nonzero coefficient in `[-bound, bound]`.
    fn coef(&mut self, bound: i64) -> i64 {
        loop {
            let c = self.range(-bound, bound);
            if c != 0 {
                return c;
            }
        }
    }
}

fn corpus_seed() -> u64 {
    match std::env::var("TENET_ORACLE_SEED") {
        Ok(v) => {
            let v = v.trim();
            let parsed = match v.strip_prefix("0x") {
                Some(h) => u64::from_str_radix(h, 16).ok(),
                None => v.parse().ok(),
            };
            parsed.unwrap_or_else(|| panic!("unparseable TENET_ORACLE_SEED: {v:?}"))
        }
        Err(_) => 0xC0FF_EE5E_EDC0_FFEE,
    }
}

fn corpus_cases() -> usize {
    match std::env::var("TENET_ORACLE_DEEP") {
        Ok(v) if !v.is_empty() && v != "0" => 500,
        _ => 64,
    }
}

/// Brute-force window per dimension count: higher dimensions scan a
/// smaller box so the oracle stays cheap (7^5 points at d = 5).
fn window_for(d: usize) -> (i64, i64) {
    match d {
        0..=2 => (-6, 9),
        3 => (-4, 7),
        4 => (-3, 5),
        _ => (-2, 4),
    }
}

/// Random box text over `d` dims with bounds inside the oracle window.
/// One case in 16 deliberately inverts a dimension's bounds to cover the
/// empty-set corners of every fast path.
fn gen_box(rng: &mut Rng, d: usize, wlo: i64, whi: i64) -> String {
    let invert = if rng.below(16) == 0 {
        Some(rng.below(d as u64) as usize)
    } else {
        None
    };
    let dims: Vec<String> = (0..d).map(|i| format!("x{i}")).collect();
    let cons: Vec<String> = (0..d)
        .map(|i| {
            let a = rng.range(wlo, whi);
            let b = rng.range(wlo, whi);
            let (mut lo, mut hi) = (a.min(b), a.max(b));
            if invert == Some(i) && lo != hi {
                std::mem::swap(&mut lo, &mut hi);
            }
            format!("{lo} <= x{i} and x{i} <= {hi}")
        })
        .collect();
    format!("{{ A[{}] : {} }}", dims.join(", "), cons.join(" and "))
}

/// Appends extra `and …` constraints to a box text.
fn with_extra(base: String, extra: &[String]) -> String {
    let mut t = base.trim_end_matches(" }").to_string();
    for e in extra {
        t.push_str(" and ");
        t.push_str(e);
    }
    t.push_str(" }");
    t
}

/// A linear expression over a subset of the dims (at least one term).
fn gen_dir(rng: &mut Rng, dims: &[usize]) -> String {
    let k = 1 + rng.below(dims.len() as u64) as usize;
    let terms: Vec<String> = dims[..k]
        .iter()
        .map(|&v| format!("{}*x{v}", rng.coef(3)))
        .collect();
    terms.join(" + ")
}

/// Slab constraint `lo <= e <= lo + width` (or a single halfspace).
fn gen_slab_on(rng: &mut Rng, e: &str) -> String {
    let lo = rng.range(-12, 6);
    if rng.below(4) == 0 {
        format!("{e} <= {}", lo + rng.range(0, 16))
    } else {
        format!("{lo} <= {e} and {e} <= {}", lo + rng.range(0, 16))
    }
}

fn gen_window_case(rng: &mut Rng, d: usize, wlo: i64, whi: i64) -> String {
    let base = gen_box(rng, d, wlo, whi);
    let n = 1 + rng.below(2);
    let extra: Vec<String> = (0..n)
        .map(|_| {
            let terms: Vec<String> = (0..d)
                .filter_map(|v| {
                    let c = rng.range(0, 3);
                    (c != 0 || v == 0).then(|| format!("{}*x{v}", c.max(1)))
                })
                .collect();
            let m = rng.range(2, 5);
            let r = rng.range(0, m - 1);
            format!("({}) mod {m} <= {r}", terms.join(" + "))
        })
        .collect();
    with_extra(base, &extra)
}

fn gen_slab_case(rng: &mut Rng, d: usize, wlo: i64, whi: i64) -> String {
    let base = gen_box(rng, d, wlo, whi);
    let dims: Vec<usize> = (0..d).collect();
    let e = gen_dir(rng, &dims);
    let slab = gen_slab_on(rng, &e);
    with_extra(base, &[slab])
}

/// Two-plus slab directions, half the time on disjoint variable subsets.
fn gen_coupled_case(rng: &mut Rng, d: usize, wlo: i64, whi: i64) -> String {
    let base = gen_box(rng, d, wlo, whi);
    let all: Vec<usize> = (0..d).collect();
    let mut extra = Vec::new();
    if d >= 4 && rng.below(2) == 0 {
        let cut = d / 2;
        let (e1, e2) = (gen_dir(rng, &all[..cut]), gen_dir(rng, &all[cut..]));
        extra.push(gen_slab_on(rng, &e1));
        extra.push(gen_slab_on(rng, &e2));
    } else {
        let k = 2 + rng.below(2);
        for _ in 0..k {
            let e = gen_dir(rng, &all);
            extra.push(gen_slab_on(rng, &e));
        }
    }
    with_extra(base, &extra)
}

/// A random forest of two-variable rows: each dim optionally links back
/// to an earlier dim with a slab or halfspace on `a*xi + b*xj`.
fn gen_chain_case(rng: &mut Rng, d: usize, wlo: i64, whi: i64) -> String {
    let base = gen_box(rng, d, wlo, whi);
    let mut extra = Vec::new();
    for j in 1..d {
        if rng.below(4) < 3 {
            let i = rng.below(j as u64) as usize;
            let e = format!("{}*x{i} + {}*x{j}", rng.coef(3), rng.coef(3));
            extra.push(gen_slab_on(rng, &e));
        }
    }
    with_extra(base, &extra)
}

/// Differentially checks every generated case: `card` (cold and warm)
/// against the `contains_point` scan of the full window.
fn run_corpus(class: &str, min_d: usize, gen: impl Fn(&mut Rng, usize, i64, i64) -> String) {
    let seed = corpus_seed();
    let cases = corpus_cases();
    let mut h = DefaultHasher::new();
    class.hash(&mut h);
    let mut rng = Rng(seed ^ h.finish());
    for case in 0..cases {
        let d = rng.range(min_d as i64, 5) as usize;
        let (wlo, whi) = window_for(d);
        let text = gen(&mut rng, d, wlo, whi);
        let s = Set::parse(&text)
            .unwrap_or_else(|e| panic!("[{class} seed={seed:#x} case={case}] parse {text}: {e}"));
        let oracle = count_by_points(&s, wlo, whi);
        let (cold, warm) = with_and_without_cache(|| {
            Set::parse(&text)
                .unwrap()
                .card()
                .unwrap_or_else(|e| panic!("[{class} seed={seed:#x} case={case}] card {text}: {e}"))
        });
        assert_eq!(
            cold, oracle,
            "[{class} seed={seed:#x} case={case}] cold card vs oracle for {text}"
        );
        assert_eq!(
            warm, oracle,
            "[{class} seed={seed:#x} case={case}] warm card vs oracle for {text}"
        );
    }
}

#[test]
fn corpus_box() {
    run_corpus("box", 1, gen_box);
}

#[test]
fn corpus_window() {
    run_corpus("window", 1, gen_window_case);
}

#[test]
fn corpus_slab() {
    run_corpus("slab", 2, gen_slab_case);
}

#[test]
fn corpus_coupled_slab() {
    run_corpus("coupled-slab", 2, gen_coupled_case);
}

#[test]
fn corpus_pair_chain() {
    run_corpus("pair-chain", 2, gen_chain_case);
}

// ---------------------------------------------------------------------------
// Composition through translation unions. `apply_range` composes a union of
// pure translations `{ y -> y + δ }` by substitution instead of the
// elimination ladder; this class checks the substituted composition
// against an enumeration that evaluates the generating parameters directly
// (no relation operation is involved), and against the ladder, forced by
// one vacuous inequality on the same translations. One case in 16 carries
// an i64-edge shift: its count must be exact or `Error::Overflow`, never
// wrapped.
// ---------------------------------------------------------------------------

/// A `gen_window_case`-style relation `Y[y..] -> Z[..]`: a box on `y` cut
/// by mod windows, with outputs defined by floor and mod of affine forms.
/// The parameters are kept beside the text so the oracle can evaluate the
/// relation without the library.
struct DivRelation {
    bounds: Vec<(i64, i64)>,
    /// `(coefs, m, r)`: `(coefs · y) mod m <= r`.
    windows: Vec<(Vec<i64>, i64, i64)>,
    /// `(coefs, m, is_mod)`: the output `floor((coefs · y) / m)` or
    /// `(coefs · y) mod m`.
    outputs: Vec<(Vec<i64>, i64, bool)>,
}

fn affine(coefs: &[i64]) -> String {
    let terms: Vec<String> = coefs
        .iter()
        .enumerate()
        .filter(|(_, c)| **c != 0)
        .map(|(v, c)| format!("{c}*y{v}"))
        .collect();
    terms.join(" + ")
}

fn dot(coefs: &[i64], y: &[i64]) -> i64 {
    coefs.iter().zip(y).map(|(c, v)| c * v).sum()
}

impl DivRelation {
    fn gen(rng: &mut Rng, n: usize) -> DivRelation {
        // Box volume stays below ~10^3 at every arity.
        let max_width = match n {
            2 => 6,
            3 => 4,
            4 => 3,
            5 | 6 => 2,
            _ => 1,
        };
        let bounds = (0..n)
            .map(|_| {
                let lo = rng.range(-3, 3);
                (lo, lo + rng.range(0, max_width))
            })
            .collect();
        let form = |rng: &mut Rng| -> Vec<i64> {
            (0..n)
                .map(|v| {
                    let c = rng.range(0, 3);
                    if v == 0 {
                        c.max(1)
                    } else {
                        c
                    }
                })
                .collect()
        };
        let windows = (0..1 + rng.below(2))
            .map(|_| {
                let m = rng.range(2, 5);
                (form(rng), m, rng.range(0, m - 1))
            })
            .collect();
        let outputs = (0..1 + rng.below(2))
            .map(|_| (form(rng), rng.range(2, 4), rng.below(2) == 0))
            .collect();
        DivRelation {
            bounds,
            windows,
            outputs,
        }
    }

    fn text(&self) -> String {
        let ys: Vec<String> = (0..self.bounds.len()).map(|v| format!("y{v}")).collect();
        let zs: Vec<String> = self
            .outputs
            .iter()
            .map(|(c, m, is_mod)| {
                if *is_mod {
                    format!("({}) mod {m}", affine(c))
                } else {
                    format!("floor(({})/{m})", affine(c))
                }
            })
            .collect();
        let mut cons: Vec<String> = self
            .bounds
            .iter()
            .enumerate()
            .map(|(v, (lo, hi))| format!("{lo} <= y{v} <= {hi}"))
            .collect();
        for (c, m, r) in &self.windows {
            cons.push(format!("({}) mod {m} <= {r}", affine(c)));
        }
        format!(
            "{{ Y[{}] -> Z[{}] : {} }}",
            ys.join(", "),
            zs.join(", "),
            cons.join(" and ")
        )
    }

    /// Every `(y, z)` pair of the relation.
    fn pairs(&self) -> Vec<(Vec<i64>, Vec<i64>)> {
        let n = self.bounds.len();
        let mut out = Vec::new();
        let mut y: Vec<i64> = self.bounds.iter().map(|b| b.0).collect();
        loop {
            let inside = self
                .windows
                .iter()
                .all(|(c, m, r)| dot(c, &y).rem_euclid(*m) <= *r);
            if inside {
                let z = self
                    .outputs
                    .iter()
                    .map(|(c, m, is_mod)| {
                        if *is_mod {
                            dot(c, &y).rem_euclid(*m)
                        } else {
                            dot(c, &y).div_euclid(*m)
                        }
                    })
                    .collect();
                out.push((y.clone(), z));
            }
            let mut v = 0;
            loop {
                if v == n {
                    return out;
                }
                y[v] += 1;
                if y[v] <= self.bounds[v].1 {
                    break;
                }
                y[v] = self.bounds[v].0;
                v += 1;
            }
        }
    }
}

/// `{ (y' - δ, z) : (y', z) ∈ rel, δ ∈ deltas }`, in i128 so extreme
/// shifts cannot wrap.
fn composed_oracle(rel: &DivRelation, deltas: &[Vec<i64>]) -> BTreeSet<Vec<i128>> {
    let mut seen = BTreeSet::new();
    for (y, z) in rel.pairs() {
        for d in deltas {
            let mut p: Vec<i128> = y
                .iter()
                .zip(d)
                .map(|(a, b)| *a as i128 - *b as i128)
                .collect();
            p.extend(z.iter().map(|v| *v as i128));
            seen.insert(p);
        }
    }
    seen
}

/// The card of the composition `rel ∘ T`, and which oracle points it
/// misses (so `card == |oracle|` with no miss means equality). `T` is the
/// union of the translations. With `vacuous = Some(hi)` every translation
/// also gets the inequality `y'0 <= hi` on its output; `rel` bounds `y0`
/// by `hi`, so the composition is unchanged, but `T` is no longer a pure
/// translation and `apply_range` takes the elimination ladder.
fn compose(
    deltas: &[Vec<i64>],
    rel_text: &str,
    vacuous: Option<i64>,
    oracle: &BTreeSet<Vec<i128>>,
) -> tenet_isl::Result<(u128, Vec<Vec<i128>>)> {
    let n = deltas[0].len();
    let tuple = Tuple::new("Y", (0..n).map(|v| format!("y{v}")));
    let mut t = Map::translations(tuple, deltas)?;
    if let Some(hi) = vacuous {
        let ys: Vec<String> = (0..n).map(|v| format!("y{v}")).collect();
        let cap = Set::parse(&format!("{{ [{}] : y0 <= {hi} }}", ys.join(", ")))?;
        t = t.intersect_range(&cap)?;
        assert!(
            t.basics().iter().all(|b| b.constraint_count() > n),
            "the vacuous inequality must survive"
        );
    }
    let c = t.apply_range(&Map::parse(rel_text)?)?;
    let card = c.card()?;
    let mut missed = Vec::new();
    for p in oracle {
        let point: Result<Vec<i64>, _> = p.iter().map(|&v| i64::try_from(v)).collect();
        let inside = match point {
            Ok(point) => c.contains_point(&point)?,
            Err(_) => false,
        };
        if !inside {
            missed.push(p.clone());
        }
    }
    Ok((card, missed))
}

/// Extreme translation components: a composition through them must be
/// exact or report `Error::Overflow`, never a wrapped count.
const EDGE_SHIFTS: [i64; 4] = [i64::MAX, i64::MIN + 1, 1 << 62, -(1 << 62)];

#[test]
fn corpus_translation_compose() {
    let seed = corpus_seed();
    let cases = corpus_cases();
    let mut rng = Rng(seed ^ 0x7A45_C0DE);
    for case in 0..cases {
        let n = rng.range(2, 8) as usize;
        let rel = DivRelation::gen(&mut rng, n);
        let text = rel.text();
        // Counts skew small (the union's disjoint decomposition costs
        // ~k²), and the spread grows with the count, so each translated
        // copy overlaps only a few others.
        let k_max = 1 + rng.below(80);
        let k = 1 + rng.below(k_max) as i64;
        let spread = 3 + k / 4;
        let mut deltas: Vec<Vec<i64>> = (0..k)
            .map(|_| (0..n).map(|_| rng.range(-spread, spread)).collect())
            .collect();
        if rng.below(16) == 0 {
            let which = rng.below(deltas.len() as u64) as usize;
            let dim = rng.below(n as u64) as usize;
            deltas[which][dim] = EDGE_SHIFTS[rng.below(4) as usize];
        }
        let ctx =
            format!("[translation-compose seed={seed:#x} case={case}] {deltas:?} then {text}");
        let oracle = composed_oracle(&rel, &deltas);
        for vacuous in [None, Some(rel.bounds[0].1)] {
            let (cold, warm) = with_and_without_cache(|| compose(&deltas, &text, vacuous, &oracle));
            assert!(
                cold == warm,
                "{ctx}: cold and warm differ (vacuous={vacuous:?})"
            );
            match cold {
                Ok((card, missed)) => {
                    assert_eq!(
                        card,
                        oracle.len() as u128,
                        "{ctx}: card vs oracle (vacuous={vacuous:?})"
                    );
                    assert!(
                        missed.is_empty(),
                        "{ctx}: oracle points missing (vacuous={vacuous:?}): {missed:?}"
                    );
                }
                Err(tenet_isl::Error::Overflow) => {}
                // The ladder may decline (it can pick a div-defining
                // equality before the translation's and split); the
                // substitution path never may.
                Err(tenet_isl::Error::TooComplex(_)) if vacuous.is_some() => {}
                Err(e) => panic!("{ctx}: unexpected error {e} (vacuous={vacuous:?})"),
            }
        }
    }
}

#[test]
fn translation_compose_overflow_is_reported() {
    // y0 + i64::MAX substituted into `2*y0` leaves the i64 range.
    let text = "{ Y[y0, y1] -> Z[floor((2*y0 + y1)/3)] : 0 <= y0 <= 3 and 0 <= y1 <= 3 }";
    let deltas = [vec![0, 1], vec![i64::MAX, 0]];
    let (cold, warm) = with_and_without_cache(|| compose(&deltas, text, None, &BTreeSet::new()));
    assert!(
        matches!(cold, Err(tenet_isl::Error::Overflow)),
        "cold: {cold:?}"
    );
    assert!(
        matches!(warm, Err(tenet_isl::Error::Overflow)),
        "warm: {warm:?}"
    );
}

// ---------------------------------------------------------------------------
// i64-extreme constants: the counters must either produce the exact value
// or report a structured error (Overflow / TooComplex / Unbounded) — never
// panic, wrap, or disagree between cold and warm runs.
// ---------------------------------------------------------------------------

#[test]
fn extreme_constants_known_values() {
    const M: u128 = 2_000_000_000_000_000_000;
    let cases: [(&str, u128); 4] = [
        // Full symmetric i64-width interval: 2^64 - 1 points.
        (
            "{ A[x] : -9223372036854775807 <= x <= 9223372036854775807 }",
            u64::MAX as u128,
        ),
        // Near-max box times a small factor.
        (
            "{ A[x, y] : 0 <= x <= 9223372036854775806 and 0 <= y <= 1 }",
            ((1u128 << 63) - 1) * 2,
        ),
        // Huge-slope pair series: y ≤ M·x over x ∈ [0, 9] sums to 45M+10,
        // far beyond any enumerable range.
        (
            "{ A[x, y] : 0 <= x <= 9 and 0 <= y and 2000000000000000000*x - y >= 0 }",
            45 * M + 10,
        ),
        // Triangle with a 2^31-wide leg: closed form, no enumeration.
        (
            "{ A[x, y] : 0 <= x <= 2147483647 and 0 <= y and x - y >= 0 }",
            (1u128 << 31) * ((1u128 << 31) + 1) / 2,
        ),
    ];
    for (text, expect) in cases {
        let (cold, warm) = with_and_without_cache(|| Set::parse(text).unwrap().card().unwrap());
        assert_eq!(cold, expect, "cold {text}");
        assert_eq!(warm, expect, "warm {text}");
    }
}

#[test]
fn extreme_constants_never_panic_and_agree() {
    let seed = corpus_seed();
    let mut rng = Rng(seed ^ 0xE17E_4E5E);
    let cases = corpus_cases().min(200);
    let extremes: [i64; 8] = [
        i64::MAX,
        i64::MIN + 1,
        1 << 62,
        -(1 << 62),
        (1 << 62) + 12_345,
        i64::MAX - 1,
        1 << 45,
        -(1 << 45),
    ];
    for case in 0..cases {
        let d = rng.range(1, 3) as usize;
        let dims: Vec<String> = (0..d).map(|i| format!("x{i}")).collect();
        let mut cons = Vec::new();
        for i in 0..d {
            // Either a tiny window or an astronomically wide one: wide
            // ranges must be rejected structurally (TooComplex/Overflow),
            // not ground through enumeration.
            if rng.below(2) == 0 {
                let lo = rng.range(-4, 2);
                cons.push(format!("{lo} <= x{i} and x{i} <= {}", lo + rng.range(0, 5)));
            } else {
                let hi = extremes[rng.below(8) as usize].max(2);
                cons.push(format!("0 <= x{i} and x{i} <= {hi}"));
            }
        }
        if d >= 2 {
            let a = extremes[rng.below(8) as usize];
            cons.push(format!("{a}*x0 + {}*x1 <= {a}", rng.coef(3)));
        }
        let text = format!("{{ A[{}] : {} }}", dims.join(", "), cons.join(" and "));
        let (cold, warm) = with_and_without_cache(|| Set::parse(&text).unwrap().card());
        assert_eq!(
            cold, warm,
            "[extreme seed={seed:#x} case={case}] cold and warm must agree for {text}"
        );
    }
}

// ---------------------------------------------------------------------------
// Dispatch proofs: one deterministic shape per fast-path kind, asserted
// through a scoped CounterHandle so the counters cannot be perturbed by
// concurrent tests.
// ---------------------------------------------------------------------------

#[test]
fn box_dispatch_taken() {
    // Bounded boxes collapse through the functional-window drop, so the
    // residual-box branch is exercised by feasibility probes on one-sided
    // boxes instead (unbounded vars can't be window-dropped, and limited
    // counts saturate through `count_box`).
    let _guard = test_lock();
    cache::set_enabled(false);
    let handle = CounterHandle::new();
    {
        let _attached = handle.attach();
        let s = Set::parse("{ A[x, y] : x >= 0 and y >= 0 }").unwrap();
        assert!(!s.is_empty().unwrap());
    }
    cache::set_enabled(true);
    let stats = handle.fast_path_stats();
    assert!(stats.box_counts > 0, "box path not taken: {stats:?}");
}

#[test]
fn window_dispatch_taken() {
    // A plain bounded box is the canonical functional-window shape: each
    // variable's two rows sandwich a width-w window with m = 1, so the
    // whole box collapses through the drop as a multiplicative factor.
    let text = "{ A[x, y] : 0 <= x < 12 and 0 <= y < 12 }";
    let (card, stats) = card_with_dispatch(text);
    assert_eq!(card, 144);
    assert!(stats.window_counts > 0, "window path not taken: {stats:?}");
}

#[test]
fn slab_dispatch_taken() {
    let text = "{ A[x, y] : 0 <= x < 10 and 0 <= y < 10 and 3 <= x + y and x + y <= 11 }";
    let (card, stats) = card_with_dispatch(text);
    let s = Set::parse(text).unwrap();
    assert_eq!(card, count_by_points(&s, -1, 10));
    assert!(stats.slab_counts > 0, "slab path not taken: {stats:?}");
}

#[test]
fn pair_series_dispatch_taken() {
    // y's upper bound (M·9 ≈ 1.8e19) exceeds i64, so the slab path cannot
    // box it and the two-variable floor-sum series must close the count.
    const M: u128 = 2_000_000_000_000_000_000;
    let text = "{ A[x, y] : 0 <= x <= 9 and 0 <= y and 2000000000000000000*x - y >= 0 }";
    let (card, stats) = card_with_dispatch(text);
    assert_eq!(card, 45 * M + 10);
    assert!(
        stats.pair_chain_counts > 0,
        "pair-series path not taken: {stats:?}"
    );
}

#[test]
fn pair_chain_dispatch_taken() {
    // Monotone 5-chain over [0, 1999]: the value-table DP closes it in
    // linear time. Count is multichoose(2000, 5).
    let text = "{ A[a, b, c, d, e] : 0 <= a <= 1999 and 0 <= b <= 1999 and 0 <= c <= 1999 \
                and 0 <= d <= 1999 and 0 <= e <= 1999 \
                and 0 <= a - b and 0 <= b - c and 0 <= c - d and 0 <= d - e }";
    let (card, stats) = card_with_dispatch(text);
    let expect: u128 = 2004 * 2003 * 2002 * 2001 * 2000 / 120;
    assert_eq!(card, expect);
    assert!(
        stats.pair_chain_counts > 0,
        "pair-chain DP not taken: {stats:?}"
    );
}

fn hash_of<T: Hash>(v: &T) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// Locks the `Arc<Space>` refactor: structural hash and canonical `fmt`
/// output of parsed maps are unchanged across clone and memo round trips,
/// cached or not. These two values key the server's request dedup and its
/// bit-identical `/v1/analyze` responses.
#[test]
fn space_sharing_keeps_hash_and_fmt_stable() {
    let _guard = test_lock();
    let texts = [
        "{ S[i,j,k] -> ST[i mod 4, j mod 4, floor(i/4), floor(j/4), i mod 4 + j mod 4 + k] \
         : 0 <= i < 8 and 0 <= j < 8 and 0 <= k < 8 }",
        "{ S[i,j] -> PE[i + j] : 0 <= i < 5 and 0 <= j < 4 }",
        "{ S[i] -> T[i] : 0 <= i < 2 or 5 <= i < 9 }",
    ];
    for text in texts {
        cache::set_enabled(true);
        cache::clear();
        let m = Map::parse(text).unwrap();
        let h0 = hash_of(&m);
        let s0 = m.to_string();
        // Clones share the space; structure must be indistinguishable.
        let c = m.clone();
        assert_eq!(hash_of(&c), h0, "{text}");
        assert_eq!(c.to_string(), s0, "{text}");
        // Round trips (parse again, reverse twice, card) must hand back
        // structurally identical relations.
        let again = Map::parse(text).unwrap();
        assert_eq!(hash_of(&again), h0, "re-parse round trip: {text}");
        assert_eq!(again.to_string(), s0, "re-parse round trip: {text}");
        let rr = m.reverse().reverse();
        assert_eq!(rr, m, "reverse round trip: {text}");
        assert_eq!(hash_of(&rr), h0, "reverse round trip: {text}");
        let _ = m.card().unwrap();
        assert_eq!(hash_of(&m), h0, "card must not disturb the map: {text}");
        // Uncached parse of the same text: same hash, same rendering.
        cache::set_enabled(false);
        let cold = Map::parse(text).unwrap();
        assert_eq!(hash_of(&cold), h0, "uncached parse: {text}");
        assert_eq!(cold.to_string(), s0, "uncached parse: {text}");
        cache::set_enabled(true);
    }
}
