//! `dse_conv`: the paper's dataflow design-space exploration on a 2D-CONV.
//! Candidates are evaluated one `explore_with_stats` call at a time over
//! contiguous windows of the enumeration; the ISL memo is cleared before
//! each window and shared inside it, exactly as in one sweep, so this
//! workload exercises the memo hit-heavy where `table3_cold` is
//! miss-heavy.

use crate::common::{
    median, ms, peak_rss_mb, quantile, repeated_setup, sorted, steal_ticks, HostSpeed, Rng,
    RunReport, SeqHash,
};
use crate::layers::{put_absent, CoreTrace, IslCounts, SERVING_METRICS};
use crate::oracle::{dataflow_key, Expected, Observed, Table};
use crate::Args;
use std::time::{Duration, Instant};
use tenet_core::{isl_cache, ArchSpec, Dataflow, Interconnect, PerformanceReport, TensorOp};
use tenet_dse::{enumerate_all, explore_with_stats};
use tenet_workloads::kernels;

/// Candidates per window. A contiguous window keeps the memo hit rate of
/// a real sweep; a strided sample of the same size roughly halves it.
const WINDOW: usize = 300;

/// Parts of the enumeration that hold one window each (a window covers
/// about 95% of its part).
const STRATA: usize = 5;

/// Rounds of warm repeats timed after the window; each round re-analyses
/// every candidate of the enumeration's first part twice.
const REPEAT_ROUNDS: usize = 5;

/// Window operations between two samples of the host's speed (about
/// 0.2 s). Repeats sample it once per round: the reference work evicts
/// the memo from the caches, and the repeat after it runs slower.
const PER_SAMPLE: usize = 20;

pub fn problem() -> tenet_core::Result<(TensorOp, ArchSpec)> {
    Ok((
        kernels::conv2d(16, 16, 8, 8, 3, 3)?,
        ArchSpec::new("8x8", [8, 8], Interconnect::Mesh, 8.0),
    ))
}

pub fn candidates(op: &TensorOp) -> tenet_core::Result<Vec<Dataflow>> {
    enumerate_all(op, 8, 64)
}

/// Simulates every candidate the simulator accepts (the committed
/// `dse_conv.tsv`); candidates it rejects are absent from the table and
/// must be skipped by the model too. Spreads over the machine's cores.
pub fn gen_oracle() -> tenet_core::Result<Table> {
    let (op, arch) = problem()?;
    let cands = candidates(&op)?;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk = cands.len().div_ceil(threads);
    let rows: Vec<(String, Expected)> = std::thread::scope(|s| {
        let handles: Vec<_> = cands
            .chunks(chunk)
            .map(|part| {
                let (op, arch) = (&op, &arch);
                s.spawn(move || {
                    part.iter()
                        .filter_map(|df| {
                            Expected::simulate(op, df, arch)
                                .ok()
                                .map(|e| (dataflow_key(df), e))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread"))
            .collect()
    });
    Ok(Table(rows.into_iter().collect()))
}

fn check(oracle: &Table, df: &Dataflow, r: Option<&PerformanceReport>, out: &mut RunReport) {
    out.attempted += 1;
    let key = dataflow_key(df);
    let verdict = match (oracle.0.get(&key), r) {
        (Some(e), Some(r)) => e.check(&Observed::from_report(r), 1),
        (None, None) => Ok(()),
        (Some(_), None) => Err("skipped a candidate the simulator runs".to_string()),
        (None, Some(_)) => Err("evaluated a candidate the simulator rejects".to_string()),
    };
    if let Err(e) = verdict {
        out.failed += 1;
        eprintln!("wlbench: dse_conv {key}: {e}");
    }
}

pub fn run(args: &Args) -> Result<RunReport, String> {
    let mut oracle = Table::load(&args.oracle_dir.join("dse_conv.tsv"))?;
    let mut enumerate_ms = Vec::new();
    // Set-up: build the problem, enumerate the space, and warm code and
    // allocator on a few candidates before dropping the memo.
    let (setup_s, (op, arch, cands)) = repeated_setup(5, || {
        isl_cache::clear();
        let (op, arch) = problem().expect("conv problem builds");
        let t0 = Instant::now();
        let cands = candidates(&op).expect("enumeration succeeds");
        enumerate_ms.push(ms(t0.elapsed()));
        let _ = std::hint::black_box(explore_with_stats(&op, &arch, &cands[..8]));
        isl_cache::clear();
        (op, arch, cands)
    });
    let n = cands.len();

    let mut out = RunReport::default();
    let mut rng = Rng::new(args.seed, 2);
    let mut seq = SeqHash::default();
    let mut trace = CoreTrace::default();
    let mut unit = IslCounts::default();
    let (mut evaluated, mut skipped, mut skipped_ms) = (0u64, 0u64, 0.0f64);
    let mut unit_outcomes = (0u64, 0u64);
    let mut lat = Vec::new();
    let mut done = Vec::new();
    let deadline = Duration::from_secs_f64(args.seconds);
    // The enumeration is cut into STRATA equal parts, visited in order; the
    // seed picks where inside each part its window starts. Every run thus
    // samples each region of the space alike, whatever the seed.
    let stratum = n.div_ceil(STRATA);
    let steal0 = steal_ticks();
    let mut host = HostSpeed::default();
    let start = Instant::now();
    host.sample(0.0);
    let mut windows = 0usize;
    // The first window always completes: it is the deterministic unit.
    'window: while windows == 0 || start.elapsed() < deadline {
        isl_cache::clear();
        let lo = (windows % STRATA) * stratum;
        let len = stratum.min(n - lo);
        let first = lo + rng.below((len.saturating_sub(WINDOW) + 1) as u64) as usize;
        if args.corrupt_oracle && windows == 0 {
            // Plant the defect on the first candidate this run checks.
            cands[first..]
                .iter()
                .any(|df| oracle.corrupt(&dataflow_key(df)));
        }
        let end = (first + WINDOW).min(lo + len);
        for df in &cands[first..end] {
            if windows > 0 && start.elapsed() >= deadline {
                break 'window;
            }
            if !lat.is_empty() && lat.len() % PER_SAMPLE == 0 {
                host.sample(start.elapsed().as_secs_f64());
            }
            if windows == 0 {
                seq.add(dataflow_key(df).as_bytes());
            }
            if args.traced {
                let (r, h, dt) = trace.run(&op, df, &arch, Default::default());
                lat.push(ms(dt));
                done.push(start.elapsed().as_secs_f64());
                if r.is_ok() {
                    evaluated += 1;
                } else {
                    skipped += 1;
                    skipped_ms += ms(dt);
                }
                if windows == 0 {
                    unit.add(&h);
                    unit_outcomes = (evaluated, skipped);
                }
                check(&oracle, df, r.as_ref().ok(), &mut out);
            } else {
                let t0 = Instant::now();
                let result = explore_with_stats(&op, &arch, std::slice::from_ref(df));
                lat.push(ms(t0.elapsed()));
                done.push(start.elapsed().as_secs_f64());
                let points = result.map_err(|e| format!("explore failed: {e}"))?.0;
                check(&oracle, df, points.first().map(|p| &p.report), &mut out);
            }
        }
        windows += 1;
    }
    let window = start.elapsed();
    host.sample(window.as_secs_f64());

    // Warm repeats over the enumeration's first part, which holds the
    // unit window. The set is the same for every seed: a window's most
    // expensive candidates set its p99, and they change with the window's
    // offset. One untimed pass puts the part back in an emptied memo, so
    // the memo never holds more than about one window.
    isl_cache::clear();
    let warm = &cands[..stratum];
    for df in warm {
        let _ = explore_with_stats(&op, &arch, std::slice::from_ref(df));
    }
    let mut per_cand: Vec<Vec<(f64, f64)>> = vec![Vec::new(); warm.len()];
    for _ in 0..REPEAT_ROUNDS {
        host.sample(start.elapsed().as_secs_f64());
        for (i, df) in warm.iter().enumerate().chain(warm.iter().enumerate()) {
            let t0 = Instant::now();
            let result = {
                let h = tenet_core::CounterHandle::new();
                let _a = args.traced.then(|| h.attach());
                explore_with_stats(&op, &arch, std::slice::from_ref(df))
            };
            per_cand[i].push((start.elapsed().as_secs_f64(), ms(t0.elapsed())));
            let points = result.map_err(|e| format!("explore failed: {e}"))?.0;
            check(&oracle, df, points.first().map(|p| &p.report), &mut out);
        }
    }
    // A handful of candidates make the tail, and their latencies form
    // clusters with gaps between them: the p99 of the raw stream flips
    // between clusters from run to run. It is taken over the candidates'
    // median latencies instead.
    let cand_medians: Vec<f64> = per_cand
        .iter()
        .map(|v| {
            median(
                &v.iter()
                    .map(|&(t, l)| l / host.slowdown(t))
                    .collect::<Vec<_>>(),
            )
        })
        .collect();

    out.count("op_sequence", seq.hex());
    let norm = host.normalize(&done, &lat);
    let throughput = 1e3 * norm.len() as f64 / norm.iter().sum::<f64>();
    let sorted_lat = sorted(norm);
    let p50 = quantile(&sorted_lat, 0.5);
    out.put_stream(
        lat.len(),
        (throughput, p50, quantile(&sorted_lat, 0.99)),
        (window, steal0),
    );
    eprintln!("wlbench: host slowdown {:.3}", host.overall());
    out.put(
        "success_rate",
        1.0 - out.failed as f64 / out.attempted as f64,
        "fraction",
    );
    out.put("setup_s", setup_s, "s");
    out.put("peak_rss_mb", peak_rss_mb(), "MiB");
    // Every timed candidate is evaluated once per window: the fresh
    // median is the stream median.
    out.put("fresh_latency_ms_p50", p50, "ms");
    out.put(
        "repeat_latency_ms_p99",
        quantile(&sorted(cand_medians), 0.99),
        "ms",
    );
    if args.traced {
        trace.put(&mut out);
        out.put("isl.cold_ms", trace.cold_ms(), "ms");
        unit.put(&mut out, true);
        out.put("dse.enumerate_ms", median(&enumerate_ms), "ms");
        out.put("dse.evaluated", evaluated as f64, "count");
        out.put("dse.skipped", skipped as f64, "count");
        out.put(
            "dse.useful_ratio",
            evaluated as f64 / (evaluated + skipped).max(1) as f64,
            "ratio",
        );
        out.put("dse.skipped_ms", skipped_ms, "ms");
        out.count("dse.evaluated", unit_outcomes.0);
        out.count("dse.skipped", unit_outcomes.1);
        put_absent(&mut out, &SERVING_METRICS);
        eprintln!("wlbench: {windows} windows, {} candidates", lat.len());
    }
    Ok(out)
}
