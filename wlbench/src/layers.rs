//! Per-layer timing from outside the program: the `Analysis` public
//! methods called one phase at a time, with a scoped ISL counter handle
//! attached around the whole operation.

use crate::common::{mean, ms};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use tenet_core::{
    Analysis, AnalysisOptions, ArchSpec, CountStats, CounterHandle, Dataflow, PerformanceReport,
    TensorOp,
};

/// The analysis phases, in call order. Each phase's time is what remains
/// after the earlier calls: `volumes` reuses the latched assignment and
/// spacetime maps, `report` the latched volumes and utilization.
pub const PHASES: [&str; 6] = [
    "new",
    "assignment",
    "spacetime_maps",
    "volumes",
    "utilization",
    "report",
];

/// Kernel names of `tenet_workloads::kernels`, in metric order.
pub const KERNELS: [&str; 5] = ["gemm", "conv2d", "mttkrp", "jacobi2d", "mmc"];

/// Runs one full report phase by phase; the durations are in
/// [`PHASES`] order and cover the calls that completed.
pub fn phased_report(
    op: &TensorOp,
    df: &Dataflow,
    arch: &ArchSpec,
    options: AnalysisOptions,
) -> (tenet_core::Result<PerformanceReport>, Vec<Duration>) {
    let mut times = Vec::with_capacity(PHASES.len());
    let mut tensors: Vec<&str> = Vec::new();
    for a in op.accesses() {
        if !tensors.contains(&a.tensor.as_str()) {
            tensors.push(&a.tensor);
        }
    }
    let mut t = Instant::now();
    let mut lap = |times: &mut Vec<Duration>| {
        let now = Instant::now();
        times.push(now - t);
        t = now;
    };
    let result = (|| {
        let a = Analysis::with_options(op, df, arch, options)?;
        lap(&mut times);
        for name in &tensors {
            a.assignment(name)?;
        }
        lap(&mut times);
        a.spatial_map()?;
        a.temporal_map()?;
        lap(&mut times);
        for name in &tensors {
            a.volumes(name)?;
        }
        lap(&mut times);
        a.utilization()?;
        lap(&mut times);
        let r = a.report()?;
        lap(&mut times);
        Ok(r)
    })();
    (result, times)
}

/// Accumulates traced per-operation observations into per-layer metrics.
#[derive(Default)]
pub struct CoreTrace {
    phase_ms: Vec<Vec<f64>>,
    kernel_ms: BTreeMap<String, Vec<f64>>,
    cold_ms: Vec<f64>,
    hits: u64,
    misses: u64,
}

impl CoreTrace {
    /// Runs one operation under a fresh counter handle and records it.
    /// Returns the report and the handle (for unit-level counts).
    pub fn run(
        &mut self,
        op: &TensorOp,
        df: &Dataflow,
        arch: &ArchSpec,
        options: AnalysisOptions,
    ) -> (
        tenet_core::Result<PerformanceReport>,
        CounterHandle,
        Duration,
    ) {
        let handle = CounterHandle::new();
        let attached = handle.attach();
        let t0 = Instant::now();
        let (result, times) = phased_report(op, df, arch, options);
        let total = t0.elapsed();
        drop(attached);
        if self.phase_ms.is_empty() {
            self.phase_ms = vec![Vec::new(); PHASES.len()];
        }
        // Failed operations still count toward the mean: a phase a
        // rejected candidate never reached took no time.
        for (i, slot) in self.phase_ms.iter_mut().enumerate() {
            slot.push(times.get(i).copied().map_or(0.0, ms));
        }
        self.kernel_ms
            .entry(op.name().to_string())
            .or_default()
            .push(ms(total));
        self.cold_ms.push(handle.cold_ns() as f64 / 1e6);
        self.hits += handle.hits();
        self.misses += handle.misses();
        (result, handle, total)
    }

    /// `core.*` metrics: means per operation, so the phases add up to the
    /// mean operation time.
    pub fn put(&self, out: &mut crate::common::RunReport) {
        for (i, phase) in PHASES.iter().enumerate() {
            let v = self.phase_ms.get(i).map_or(0.0, |v| mean(v));
            out.put(format!("core.analysis.{phase}_ms"), v, "ms");
        }
        for k in KERNELS {
            let v = self.kernel_ms.get(k).map_or(0.0, |v| mean(v));
            out.put(format!("core.analysis.kernel_ms.{k}"), v, "ms");
        }
    }

    /// Mean cold (missed) ISL time per operation, for `isl.cold_ms`.
    pub fn cold_ms(&self) -> f64 {
        mean(&self.cold_ms)
    }
}

/// Exact ISL counts of a deterministic unit of work.
#[derive(Default, Clone, Copy)]
pub struct IslCounts {
    pub hits: u64,
    pub misses: u64,
    pub fast: CountStats,
}

impl IslCounts {
    pub fn add(&mut self, h: &CounterHandle) {
        self.hits += h.hits();
        self.misses += h.misses();
        let f = h.fast_path_stats();
        self.fast.window_counts += f.window_counts;
        self.fast.box_counts += f.box_counts;
        self.fast.slab_counts += f.slab_counts;
        self.fast.multi_slab_counts += f.multi_slab_counts;
        self.fast.pair_chain_counts += f.pair_chain_counts;
        self.fast.coupled_slab_counts += f.coupled_slab_counts;
    }

    fn named(&self) -> [(&'static str, u64); 8] {
        [
            ("isl.memo.hits", self.hits),
            ("isl.memo.misses", self.misses),
            ("isl.fast_path.window", self.fast.window_counts),
            ("isl.fast_path.box", self.fast.box_counts),
            ("isl.fast_path.slab", self.fast.slab_counts),
            ("isl.fast_path.multi_slab", self.fast.multi_slab_counts),
            ("isl.fast_path.pair_chain", self.fast.pair_chain_counts),
            ("isl.fast_path.coupled_slab", self.fast.coupled_slab_counts),
        ]
    }

    /// `isl.memo.*` and `isl.fast_path.*` metrics, also recorded as
    /// counts for the cross-run determinism check when `repeatable`.
    pub fn put(&self, out: &mut crate::common::RunReport, repeatable: bool) {
        for (name, v) in self.named() {
            out.put(name, v as f64, "count");
        }
        if repeatable {
            self.record(out, "");
        }
        let total = self.hits + self.misses;
        let rate = if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        };
        out.put("isl.memo.hit_rate", rate, "ratio");
    }

    /// Records the counts, with `prefix` before each name, for the
    /// cross-run determinism check only.
    pub fn record(&self, out: &mut crate::common::RunReport, prefix: &str) {
        for (name, v) in self.named() {
            out.count(format!("{prefix}{name}"), v);
        }
    }
}

/// Every per-layer metric of layers a workload does not run, as zeros,
/// so each traced run prints the full per-layer set.
pub fn put_absent(out: &mut crate::common::RunReport, names: &[(&str, &'static str)]) {
    for (n, u) in names {
        out.put(*n, 0.0, u);
    }
}

pub const DSE_METRICS: [(&str, &str); 5] = [
    ("dse.enumerate_ms", "ms"),
    ("dse.evaluated", "count"),
    ("dse.skipped", "count"),
    ("dse.useful_ratio", "ratio"),
    ("dse.skipped_ms", "ms"),
];

pub const SERVING_METRICS: [(&str, &str); 25] = [
    ("frontend.parse_problem_ms", "ms"),
    ("server.canonical_us", "us"),
    ("server.worker.repeat_us_p50", "us"),
    ("server.worker.fresh_ms_p50", "ms"),
    ("server.dedup.hits", "count"),
    ("server.dedup.misses", "count"),
    ("server.dedup.inflight_waits", "count"),
    ("server.phase.queue_us", "us"),
    ("server.phase.parse_us", "us"),
    ("server.phase.canon_us", "us"),
    ("server.phase.dedup_us", "us"),
    ("server.phase.compute_us", "us"),
    ("server.phase.isl_us", "us"),
    ("server.phase.serialize_us", "us"),
    ("server.status.s4xx", "count"),
    ("server.status.s429", "count"),
    ("server.status.s503", "count"),
    ("server.status.s504", "count"),
    ("server.status.s5xx", "count"),
    ("router.overhead_us_p50", "us"),
    ("router.routed.shard0", "count"),
    ("router.routed.shard1", "count"),
    ("router.retries", "count"),
    ("router.hedges", "count"),
    ("router.breaker_trips", "count"),
];
