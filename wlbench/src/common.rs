//! Helpers shared by the workloads: the seeded generator, quantiles,
//! process memory, and the metric record each run prints.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use tenet_core::json::Json;

/// SplitMix64: a tiny, fully specified generator, so a seed names the same
/// input sequence on every platform and toolchain.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// FNV-1a over a sequence of byte strings: the fingerprint of a run's
/// operation sequence, compared across runs with the same seed.
#[derive(Clone, Copy)]
pub struct SeqHash(u64);

impl Default for SeqHash {
    fn default() -> Self {
        SeqHash(0xcbf2_9ce4_8422_2325)
    }
}

impl SeqHash {
    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain([0xffu8].iter()) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Nearest-rank quantile of an ascending slice (`0` when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

/// The median of an even-length sample as the mean of its two middle
/// values (the plain median otherwise).
pub fn mid_median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 0 => (s[n / 2 - 1] + s[n / 2]) / 2.0,
        n => s[n / 2],
    }
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The upper quartile of the throughputs of blocks of `per` consecutive
/// operations (`done_s`: ascending completion times in seconds from the
/// window start); the plain rate when there are fewer than two whole
/// blocks. The host slows the guest in bursts of a few seconds; the upper
/// quartile is the rate of a block without one.
pub fn block_rate(done_s: &[f64], per: usize, window: Duration) -> f64 {
    let blocks = done_s.len() / per.max(1);
    if blocks < 2 {
        return done_s.len() as f64 / window.as_secs_f64();
    }
    let rates: Vec<f64> = (0..blocks)
        .map(|b| {
            let begin = if b == 0 { 0.0 } else { done_s[b * per - 1] };
            per as f64 / (done_s[(b + 1) * per - 1] - begin)
        })
        .collect();
    quantile(&sorted(rates), 0.75)
}

/// The lower quartile over the window's whole seconds of each second's
/// `q` quantile of `ms` (samples paired with completion times `done_s`);
/// the plain quantile when fewer than two seconds hold 100 samples each.
/// The hypervisor takes CPU time from the guest in bursts of several
/// seconds, and on two shared cores each burst multiplies the tail; the
/// lower quartile is the tail of a second without one.
pub fn per_second_quantile(done_s: &[f64], ms: &[f64], q: f64) -> f64 {
    let mut seconds: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for (&t, &v) in done_s.iter().zip(ms) {
        seconds.entry(t as u64).or_default().push(v);
    }
    let per: Vec<f64> = seconds
        .values()
        .filter(|v| v.len() >= 100)
        .map(|v| quantile(&sorted(v.clone()), q))
        .collect();
    if per.len() < 2 {
        quantile(&sorted(ms.to_vec()), q)
    } else {
        quantile(&sorted(per), 0.25)
    }
}

/// Cumulative CPU time the hypervisor gave to other guests (the `steal`
/// column of `/proc/stat`), in clock ticks; 0 where unavailable.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What [`reference_work`] takes, in milliseconds, on the 2-vCPU virtual
/// machine the benchmark was tuned on, when its host is quiet.
const REFERENCE_MS: f64 = 1.9;

/// Words in the reference work's buffer (512 KiB).
const REFERENCE_WORDS: usize = 1 << 16;

/// A fixed piece of work of the benchmark's own: hashing into an
/// open-addressing table, sorting, and scattered lookups, the kinds of
/// work the model does. It runs in `buf`, allocated once, so the state of
/// the program's heap does not change its cost. No change to the program
/// can make it faster or slower; only the host can. Returns its wall time
/// in milliseconds.
fn reference_work(buf: &mut [u64]) -> f64 {
    let t0 = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let (table, keys) = buf.split_at_mut(REFERENCE_WORDS / 2);
    let mask = table.len() - 1;
    let slot = |k: u64| (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask;
    table.fill(0);
    for _ in 0..table.len() / 2 {
        let k = next() | 1;
        let mut i = slot(k);
        while table[i] != 0 {
            i = (i + 1) & mask;
        }
        table[i] = k;
    }
    for k in keys.iter_mut() {
        *k = next();
    }
    keys.sort_unstable();
    let mut acc = 0u64;
    for j in 0..keys.len() {
        let k = keys[next() as usize % keys.len()] | 1;
        let mut i = slot(k);
        while table[i] != 0 && table[i] != k {
            i = (i + 1) & mask;
        }
        acc = acc.wrapping_add(table[i] ^ j as u64);
    }
    std::hint::black_box(acc);
    ms(t0.elapsed())
}

/// How fast the host runs this process over a run, from timings of
/// [`reference_work`] taken between operations.
///
/// The host of a shared virtual machine changes the guest's speed by up to
/// half over tens of seconds, with no stolen time to show for it. The
/// timings of `table3_cold` and `dse_conv`, and every workload's set-up
/// time, are divided by the host's slowdown at the moment they were
/// taken, so such drift cancels out. A change to the program moves its
/// own timings and not the reference's, so it still shows in full.
pub struct HostSpeed {
    /// (seconds since the run's start, reference time in ms), in time
    /// order.
    samples: Vec<(f64, f64)>,
    buf: Vec<u64>,
}

impl Default for HostSpeed {
    fn default() -> Self {
        HostSpeed {
            samples: Vec::new(),
            buf: vec![0; REFERENCE_WORDS],
        }
    }
}

impl HostSpeed {
    /// Samples on each side of a moment whose median gives the slowdown
    /// there: the reference alone varies by a few percent from call to
    /// call.
    pub const SPAN: usize = 3;

    /// Times the reference work once, at `t` seconds since the start.
    pub fn sample(&mut self, t: f64) {
        let took = reference_work(&mut self.buf);
        self.samples.push((t, took));
    }

    /// The host's slowdown at `t` against the quiet host the benchmark
    /// was tuned on (1 when nothing has been sampled): the median
    /// reference time of the samples nearest in time, over
    /// [`REFERENCE_MS`].
    pub fn slowdown(&self, t: f64) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        let at = self.samples.partition_point(|s| s.0 < t);
        let lo = at.saturating_sub(Self::SPAN);
        let hi = (at + Self::SPAN).min(self.samples.len());
        let lo = lo.min(hi.saturating_sub(1));
        let refs: Vec<f64> = self.samples[lo..hi].iter().map(|s| s.1).collect();
        mid_median(&refs) / REFERENCE_MS
    }

    /// The slowdown over the whole run: the median of every sample.
    pub fn overall(&self) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        let refs: Vec<f64> = self.samples.iter().map(|s| s.1).collect();
        mid_median(&refs) / REFERENCE_MS
    }

    /// Timings `ms` taken at `done_s`, each divided by the slowdown then.
    pub fn normalize(&self, done_s: &[f64], ms: &[f64]) -> Vec<f64> {
        done_s
            .iter()
            .zip(ms)
            .map(|(&t, &v)| v / self.slowdown(t))
            .collect()
    }
}

/// Runs `setup` `n` times and returns the median wall time in seconds,
/// each divided by the host's slowdown measured right after it, together
/// with the last setup's result (the one the timed run uses).
pub fn repeated_setup<T>(n: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        let took = t0.elapsed().as_secs_f64();
        let mut host = HostSpeed::default();
        for _ in 0..2 * HostSpeed::SPAN {
            host.sample(0.0);
        }
        times.push(took / host.overall());
    }
    (median(&times), last.expect("at least one setup"))
}

/// What one workload run reports: its metrics in print order, operation
/// tallies, and the repeatable counts the determinism check compares.
#[derive(Default)]
pub struct RunReport {
    pub metrics: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    /// Operation-sequence fingerprint and exact counts of the run's
    /// deterministic unit (one pass / one window).
    pub counts: Vec<(String, String)>,
}

impl RunReport {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn count(&mut self, name: impl Into<String>, value: impl ToString) {
        self.counts.push((name.into(), value.to_string()));
    }

    /// Throughput and latency quantiles of a timed stream of `n`
    /// operations. `steal0` is [`steal_ticks`] at the window's start: the
    /// share of CPU time other guests took is printed, since it moves
    /// every timing.
    pub fn put_stream(
        &mut self,
        n: usize,
        (throughput, p50, p99): (f64, f64, f64),
        (window, steal0): (Duration, u64),
    ) {
        self.put("throughput_ops_per_s", throughput, "ops/s");
        self.put("latency_ms_p50", p50, "ms");
        self.put("latency_ms_p99", p99, "ms");
        let cpus = std::thread::available_parallelism().map_or(1, |c| c.get());
        // Clock ticks are 1/100 s on Linux.
        let stolen = (steal_ticks() - steal0) as f64 / 100.0;
        eprintln!(
            "wlbench: {n} operations timed; {} lie beyond p99; {:.1}% of {cpus} CPUs stolen by other guests",
            n - (n as f64 * 0.99).ceil() as usize,
            100.0 * stolen / (window.as_secs_f64() * cpus as f64)
        );
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::from(self.failed == 0)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(n, v, u)| {
                            (
                                n.clone(),
                                Json::obj([("value", Json::from(*v)), ("unit", Json::from(*u))]),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "counts",
                Json::Obj(
                    self.counts
                        .iter()
                        .map(|(n, v)| (n.clone(), Json::from(v.as_str())))
                        .collect(),
                ),
            ),
        ])
    }
}
