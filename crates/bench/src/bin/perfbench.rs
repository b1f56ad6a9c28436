//! Perf-trajectory runner: times the ISL substrate and the modeling
//! pipeline in both cache modes and writes `BENCH_isl.json` /
//! `BENCH_modeling.json` at the repo root (or `PERFBENCH_OUT_DIR`), so the
//! speedups are tracked as committed artifacts across PRs.
//!
//! Unlike `cargo bench` (interactive exploration), this runner is built
//! for CI-style comparisons: fixed workloads, median-of-batches timing,
//! explicit cold (cache disabled) and warm (cache enabled) phases, and the
//! cache hit rate observed during the warm phase.

use std::fmt::Write as _;
use std::time::Instant;
use tenet_core::{isl_cache, Interconnect};
use tenet_dse::{enumerate_2d, explore_with_stats};
use tenet_isl::{Map, Set};
use tenet_workloads::{dataflows, kernels};

/// Median ns/iter of `f`, with warm-up, batching, and a time budget.
fn time_ns<O>(mut f: impl FnMut() -> O) -> f64 {
    // Warm-up and batch sizing.
    let mut batch: u64 = 1;
    let warm_deadline = Instant::now() + std::time::Duration::from_millis(150);
    loop {
        let t0 = Instant::now();
        for _ in 0..batch {
            std::hint::black_box(f());
        }
        if t0.elapsed() < std::time::Duration::from_millis(2) && batch < 1 << 22 {
            batch *= 2;
        }
        if Instant::now() >= warm_deadline {
            break;
        }
    }
    let mut samples = Vec::new();
    let deadline = Instant::now() + std::time::Duration::from_millis(600);
    while samples.len() < 15 {
        let t0 = Instant::now();
        for _ in 0..batch {
            std::hint::black_box(f());
        }
        samples.push(t0.elapsed().as_nanos() as f64 / batch as f64);
        if Instant::now() >= deadline && samples.len() >= 5 {
            break;
        }
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

struct Entry {
    op: String,
    cold_ns: f64,
    warm_ns: f64,
    hit_rate: f64,
}

/// Measures `f` cold (cache off) then warm (cache cleared, then enabled),
/// capturing the warm-phase hit rate.
fn measure<O>(op: &str, mut f: impl FnMut() -> O) -> Entry {
    isl_cache::set_enabled(false);
    let cold_ns = time_ns(&mut f);
    isl_cache::clear();
    isl_cache::set_enabled(true);
    let before = isl_cache::stats();
    let warm_ns = time_ns(&mut f);
    let after = isl_cache::stats();
    let (h, m) = (after.hits - before.hits, after.misses - before.misses);
    Entry {
        op: op.to_string(),
        cold_ns,
        warm_ns,
        hit_rate: if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        },
    }
}

fn write_json(path: &std::path::Path, entries: &[Entry], extra: &str) {
    let mut out = String::from("{\n  \"benches\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"op\": \"{}\", \"cold_ns_per_iter\": {:.1}, \"warm_ns_per_iter\": {:.1}, \
             \"speedup\": {:.2}, \"warm_cache_hit_rate\": {:.4}}}",
            e.op,
            e.cold_ns,
            e.warm_ns,
            e.cold_ns / e.warm_ns.max(1e-9),
            e.hit_rate
        );
        out.push_str(if i + 1 == entries.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ]");
    if !extra.is_empty() {
        out.push_str(",\n  ");
        out.push_str(extra);
    }
    out.push_str("\n}\n");
    std::fs::write(path, out).expect("write bench artifact");
    println!("wrote {}", path.display());
}

fn bench_isl(dir: &std::path::Path) {
    let theta_text = "{ S[i,j,k] -> ST[i mod 8, j mod 8, floor(i/8), floor(j/8), \
                      i mod 8 + j mod 8 + k] : 0 <= i < 64 and 0 <= j < 64 and 0 <= k < 64 }";
    let access_text = "{ S[i,j,k] -> A[i,k] : 0 <= i < 64 and 0 <= j < 64 and 0 <= k < 64 }";
    let theta = Map::parse(theta_text).unwrap();
    let access = Map::parse(access_text).unwrap();
    let adf = theta.reverse().apply_range(&access).unwrap();
    let skewed = Set::parse(
        "{ A[x,y,z] : 0 <= x < 100 and 0 <= y < 100 and 0 <= z < 100 and x + y + z < 150 }",
    )
    .unwrap();
    let sub_a = Set::parse("{ A[x,y] : 0 <= x < 50 and 0 <= y < 50 }").unwrap();
    let sub_b = Set::parse("{ A[x,y] : 10 <= x < 40 and 5 <= y < 45 }").unwrap();
    // A long two-variable chain: the pair-chain value-table DP.
    let pair_chain = Set::parse(
        "{ A[a,b,c,d,e] : 0 <= a <= 1999 and 0 <= b <= 1999 and 0 <= c <= 1999 \
         and 0 <= d <= 1999 and 0 <= e <= 1999 \
         and 0 <= a - b and 0 <= b - c and 0 <= c - d and 0 <= d - e }",
    )
    .unwrap();
    assert_eq!(pair_chain.card().unwrap(), 268_002_335_000_400);
    // The availability composition `M⁻¹ ∘ A_{D,F}` of Table III's conv
    // (KC-P | OY,KCOX-T) on its Mesh array: a union of spacetime
    // translations composed by substitution.
    let conv = kernels::conv2d(32, 32, 8, 8, 3, 3).unwrap();
    let conv_df = dataflows::conv_dataflows(8, 64)
        .into_iter()
        .find(|df| df.name() == Some("(KC-P | OY,KCOX-T)"))
        .unwrap();
    let conv_arch = tenet_bench::arch_for(&conv_df, &conv, Interconnect::Mesh, 16.0).unwrap();
    let conv_analysis = tenet_core::Analysis::new(&conv, &conv_df, &conv_arch).unwrap();
    let conv_adf = conv_analysis.assignment("A").unwrap();
    let spatial_inv = conv_analysis.spatial_map().unwrap().reverse();

    let entries = vec![
        measure("isl_reverse", || theta.reverse()),
        measure("isl_apply_range", || {
            theta.reverse().apply_range(&access).unwrap()
        }),
        measure("isl_apply_range_translation", || {
            spatial_inv.apply_range(&conv_adf).unwrap()
        }),
        measure("isl_card_assignment", || adf.card().unwrap()),
        measure("isl_card_skewed_box", || skewed.card().unwrap()),
        measure("isl_subtract", || {
            sub_a.subtract(&sub_b).unwrap().card().unwrap()
        }),
        measure("isl_card_pair_chain", || pair_chain.card().unwrap()),
        measure("isl_parse", || Map::parse(theta_text).unwrap()),
    ];
    for e in &entries {
        println!(
            "{:<28} cold {:>12.0} ns  warm {:>10.0} ns  ({:>8.1}x, hit rate {:.1}%)",
            e.op,
            e.cold_ns,
            e.warm_ns,
            e.cold_ns / e.warm_ns.max(1e-9),
            e.hit_rate * 100.0
        );
    }
    write_json(&dir.join("BENCH_isl.json"), &entries, "");
}

fn bench_modeling(dir: &std::path::Path) {
    let mut entries = Vec::new();
    for pe in [4i64, 8] {
        for ic in [Interconnect::Systolic1D, Interconnect::Mesh] {
            let label = format!("modeling_gemm_{pe}x{pe}_{}", ic.label());
            let op = kernels::gemm(32, 32, 32).unwrap();
            let df = dataflows::gemm_dataflows(pe, pe * pe)[0].clone();
            let ic2 = ic.clone();
            entries.push(measure(&label, move || {
                tenet_bench::analyze_fitted(&op, &df, ic2.clone(), 8.0, 1).unwrap()
            }));
        }
    }
    for e in &entries {
        println!(
            "{:<28} cold {:>12.0} ns  warm {:>12.0} ns  ({:>6.1}x, hit rate {:.1}%)",
            e.op,
            e.cold_ns,
            e.warm_ns,
            e.cold_ns / e.warm_ns.max(1e-9),
            e.hit_rate * 100.0
        );
    }

    // End-to-end DSE amortization on a small GEMM sweep.
    let op = kernels::gemm(16, 16, 16).unwrap();
    let arch = tenet_core::ArchSpec::new("8x8", [8, 8], Interconnect::Systolic2D, 16.0);
    let candidates = enumerate_2d(&op, 8).unwrap();
    isl_cache::clear();
    isl_cache::set_enabled(true);
    let t0 = Instant::now();
    let (points, stats) = explore_with_stats(&op, &arch, &candidates).unwrap();
    let dse_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!(
        "dse_gemm_8x8: {} candidates -> {} points in {:.1} ms (cache hit rate {:.1}%)",
        candidates.len(),
        points.len(),
        dse_ms,
        stats.hit_rate() * 100.0
    );
    // Cold-vs-warm ratio per preset as its own block: the warm path must
    // stay flat while cold analysis keeps getting cheaper.
    let mut ratios = String::from("\"cold_warm_ratio\": {");
    for (i, e) in entries.iter().enumerate() {
        let _ = write!(
            ratios,
            "{}\"{}\": {:.2}",
            if i == 0 { "" } else { ", " },
            e.op,
            e.cold_ns / e.warm_ns.max(1e-9)
        );
    }
    ratios.push_str("},\n  ");
    let extra = format!(
        "{ratios}\"dse\": {{\"bench\": \"dse_gemm_8x8\", \"candidates\": {}, \"evaluated\": {}, \
         \"wall_ms\": {:.1}, \"cache_hit_rate\": {:.4}}}",
        candidates.len(),
        stats.evaluated,
        dse_ms,
        stats.hit_rate()
    );
    write_json(&dir.join("BENCH_modeling.json"), &entries, &extra);
}

/// Fast CI guard (`--smoke`): asserts the closed-form counting fast paths
/// are actually taken — each dispatch counter must advance while counting
/// a box, a single-slab prism, a two-variable chain and an open box — and
/// that the counts are the known-exact values. Panics (nonzero exit) on
/// failure.
fn smoke() {
    isl_cache::set_enabled(false); // force real computation, no memo replay
    let before = tenet_isl::fast_path_stats();
    let boxy = Set::parse("{ A[x, y] : 0 <= x < 7 and 0 <= y < 9 }").unwrap();
    assert_eq!(boxy.card().unwrap(), 63, "box count");
    let slab = Set::parse(
        "{ A[x, y, t] : 0 <= x < 8 and 0 <= y < 8 and 0 <= t < 20 and 3 <= x + y + t and x + y + t <= 18 }",
    )
    .unwrap();
    assert_eq!(slab.card().unwrap(), 758, "slab count");
    // Monotone 5-chain: the pair-chain value-table DP's shape
    // (multichoose(2000, 5)).
    let chain = Set::parse(
        "{ A[a, b, c, d, e] : 0 <= a <= 1999 and 0 <= b <= 1999 and 0 <= c <= 1999 \
         and 0 <= d <= 1999 and 0 <= e <= 1999 \
         and 0 <= a - b and 0 <= b - c and 0 <= c - d and 0 <= d - e }",
    )
    .unwrap();
    assert_eq!(
        chain.card().unwrap(),
        268_002_335_000_400,
        "pair-chain count"
    );
    // One-sided box: feasibility probes saturate through the residual-box
    // branch (bounded boxes collapse through the window drop instead).
    let open_box = Set::parse("{ A[x, y] : x >= 0 and y >= 0 }").unwrap();
    assert!(!open_box.is_empty().unwrap(), "open box must be non-empty");
    let after = tenet_isl::fast_path_stats();
    assert!(
        after.box_counts > before.box_counts,
        "residual-box fast path not taken: {before:?} -> {after:?}"
    );
    assert!(
        after.window_counts > before.window_counts,
        "functional-window fast path not taken: {before:?} -> {after:?}"
    );
    assert!(
        after.slab_counts > before.slab_counts,
        "slab fast path not taken: {before:?} -> {after:?}"
    );
    assert!(
        after.pair_chain_counts > before.pair_chain_counts,
        "pair-chain fast path not taken: {before:?} -> {after:?}"
    );
    // The memo layer must replay bit-identically on a warm hit.
    isl_cache::clear();
    isl_cache::set_enabled(true);
    let m = Map::parse("{ S[i, j] -> PE[i] : 0 <= i < 9 and 0 <= j < 7 }").unwrap();
    let cold = m.card().unwrap();
    let warm = m.card().unwrap();
    assert_eq!(cold, warm, "memo replay");
    assert!(
        isl_cache::stats().hits > 0,
        "warm card lookup must hit the memo"
    );
    println!("perfbench smoke ok: fast paths {before:?} -> {after:?}");
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    let dir = std::env::var("PERFBENCH_OUT_DIR").unwrap_or_else(|_| ".".to_string());
    let dir = std::path::PathBuf::from(dir);
    bench_isl(&dir);
    bench_modeling(&dir);
}
