//! `table3_cold`: the paper's twenty Table III dataflows, each on its
//! fitted Mesh array, analysed with an empty ISL memo in every pass — the
//! way a fresh `tenet analyze` process sees them. No server code runs.

use crate::common::{
    mean, median, mid_median, ms, peak_rss_mb, quantile, repeated_setup, sorted, steal_ticks,
    HostSpeed, Rng, RunReport, SeqHash,
};
use crate::layers::{put_absent, CoreTrace, IslCounts, DSE_METRICS, SERVING_METRICS};
use crate::oracle::{Observed, Table};
use crate::Args;
use std::time::{Duration, Instant};
use tenet_core::{isl_cache, Analysis, ArchSpec, Dataflow, Interconnect, TensorOp};
use tenet_workloads::{dataflows, kernels};

/// Scratchpad bandwidth of every fitted array (elements/cycle).
const BANDWIDTH: f64 = 16.0;

/// Warm repeats timed after the window per round (enough for a p99 with
/// ten samples beyond it).
pub const REPEATS: usize = 1000;
/// Rounds of warm repeats; the reported p99 is the median of the rounds'
/// p99s. The host's speed is sampled once per round: the reference work
/// evicts the memo from the caches, and the repeat after it runs slower.
const REPEAT_ROUNDS: usize = 5;

pub struct Config {
    pub key: String,
    pub op: usize,
    pub df: Dataflow,
    pub arch: ArchSpec,
}

pub struct Suite {
    pub ops: Vec<TensorOp>,
    pub configs: Vec<Config>,
}

/// The Table III suite at the benchmark's sizes.
pub fn suite() -> tenet_core::Result<Suite> {
    let groups: Vec<(TensorOp, Vec<Dataflow>)> = vec![
        (kernels::gemm(32, 32, 32)?, dataflows::gemm_dataflows(8, 64)),
        (
            kernels::conv2d(32, 32, 8, 8, 3, 3)?,
            dataflows::conv_dataflows(8, 64),
        ),
        (
            kernels::mttkrp(16, 16, 16, 16)?,
            dataflows::mttkrp_dataflows(8),
        ),
        (kernels::jacobi2d(32)?, dataflows::jacobi_dataflows(8, 64)),
        (kernels::mmc(16, 16, 16, 16)?, dataflows::mmc_dataflows(8)),
    ];
    let mut ops = Vec::new();
    let mut configs = Vec::new();
    for (i, (op, dfs)) in groups.into_iter().enumerate() {
        for df in dfs {
            let arch = tenet_bench::arch_for(&df, &op, Interconnect::Mesh, BANDWIDTH)?;
            configs.push(Config {
                key: format!("{}|{}", op.name(), df.name().unwrap_or("?")),
                op: i,
                df,
                arch,
            });
        }
        ops.push(op);
    }
    Ok(Suite { ops, configs })
}

/// Simulates every configuration (the committed `table3_cold.tsv`).
pub fn gen_oracle() -> tenet_core::Result<Table> {
    let s = suite()?;
    let mut t = Table::default();
    for c in &s.configs {
        let e = crate::oracle::Expected::simulate(&s.ops[c.op], &c.df, &c.arch)?;
        t.0.insert(c.key.clone(), e);
    }
    Ok(t)
}

fn report(s: &Suite, c: &Config) -> tenet_core::Result<tenet_core::PerformanceReport> {
    Analysis::new(&s.ops[c.op], &c.df, &c.arch)?.report()
}

pub fn run(args: &Args) -> Result<RunReport, String> {
    let mut oracle = Table::load(&args.oracle_dir.join("table3_cold.tsv"))?;
    // Set-up: build the suite and warm code and allocator with one pass,
    // then drop the memo so the timed passes start cold.
    let (setup_s, suite) = repeated_setup(5, || {
        isl_cache::clear();
        let s = suite().expect("Table III suite builds");
        for c in &s.configs {
            let _ = std::hint::black_box(report(&s, c));
        }
        isl_cache::clear();
        s
    });
    if args.corrupt_oracle {
        oracle.corrupt(&suite.configs[0].key);
    }
    if suite.configs.len() != oracle.0.len() {
        return Err(format!(
            "suite has {} configurations, oracle {}",
            suite.configs.len(),
            oracle.0.len()
        ));
    }

    let mut out = RunReport::default();
    let mut rng = Rng::new(args.seed, 1);
    let mut trace = CoreTrace::default();
    let mut unit = IslCounts::default();
    let mut seq = SeqHash::default();
    let mut lat = Vec::new();
    let mut done = Vec::new();
    let mut per_config: Vec<Vec<(f64, f64)>> = vec![Vec::new(); suite.configs.len()];
    // The host's speed is sampled before the first pass and after every
    // pass.
    let mut host = HostSpeed::default();
    let check =
        |c: &Config, r: tenet_core::Result<tenet_core::PerformanceReport>, out: &mut RunReport| {
            out.attempted += 1;
            let verdict = r
                .map_err(|e| e.to_string())
                .and_then(|r| oracle.0[&c.key].check(&Observed::from_report(&r), 1));
            if let Err(e) = verdict {
                out.failed += 1;
                eprintln!("wlbench: table3_cold {}: {e}", c.key);
            }
        };

    let deadline = Duration::from_secs_f64(args.seconds);
    let steal0 = steal_ticks();
    let start = Instant::now();
    host.sample(0.0);
    let mut pass = 0usize;
    let mut order: Vec<usize> = Vec::new();
    // The first pass always completes: it is the deterministic unit
    // whose counts must repeat across runs with the same seed.
    'window: while pass == 0 || start.elapsed() < deadline {
        isl_cache::clear();
        order = (0..suite.configs.len()).collect();
        rng.shuffle(&mut order);
        for &i in &order {
            if pass > 0 && start.elapsed() >= deadline {
                break 'window;
            }
            let c = &suite.configs[i];
            let op = &suite.ops[c.op];
            let (r, dt) = if args.traced {
                let (r, h, dt) = trace.run(op, &c.df, &c.arch, Default::default());
                if pass == 0 {
                    unit.add(&h);
                }
                (r, dt)
            } else {
                let t0 = Instant::now();
                let r = report(&suite, c);
                (r, t0.elapsed())
            };
            let t = start.elapsed().as_secs_f64();
            lat.push(ms(dt));
            per_config[i].push((t, ms(dt)));
            done.push(t);
            if pass == 0 {
                seq.add(c.key.as_bytes());
            }
            check(c, r, &mut out);
        }
        pass += 1;
        host.sample(start.elapsed().as_secs_f64());
    }
    let window = start.elapsed();

    // Warm repeats: every configuration is in the memo after one more
    // pass; re-analysing then measures the memo-hit path.
    for &i in &order {
        let _ = report(&suite, &suite.configs[i]);
    }
    let mut round_p99 = Vec::with_capacity(REPEAT_ROUNDS);
    for _ in 0..REPEAT_ROUNDS {
        host.sample(start.elapsed().as_secs_f64());
        // The reference work evicted the memo from the caches; one untimed
        // pass brings it back.
        for &i in &order {
            let _ = report(&suite, &suite.configs[i]);
        }
        let (mut repeat, mut repeat_s) = (Vec::with_capacity(REPEATS), Vec::with_capacity(REPEATS));
        for k in 0..REPEATS {
            let c = &suite.configs[order[k % order.len()]];
            let t0 = Instant::now();
            let r = if args.traced {
                traced_report(&suite, c)
            } else {
                report(&suite, c)
            };
            repeat.push(ms(t0.elapsed()));
            repeat_s.push(start.elapsed().as_secs_f64());
            check(c, r, &mut out);
        }
        round_p99.push(quantile(&sorted(host.normalize(&repeat_s, &repeat)), 0.99));
    }

    out.count("op_sequence", seq.hex());
    // The suite is a mixture of twenty configurations, each timed equally
    // often, whose latencies form clusters. The stream's middle rank falls
    // in a gap between two clusters, so the median is taken over the
    // configurations. Each configuration's own latency is bimodal: the
    // first dataflow of a kernel in a pass pays for relations the others
    // then find in the memo, and the seeded order decides which one that
    // is. Its median flips between the modes from run to run; its mean
    // does not.
    let config_means: Vec<f64> = per_config
        .iter()
        .map(|v| {
            mean(
                &v.iter()
                    .map(|&(t, l)| l / host.slowdown(t))
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let p50 = mid_median(&config_means);
    let norm = host.normalize(&done, &lat);
    let p99 = quantile(&sorted(norm.clone()), 0.99);
    let throughput = 1e3 * norm.len() as f64 / norm.iter().sum::<f64>();
    out.put_stream(lat.len(), (throughput, p50, p99), (window, steal0));
    eprintln!("wlbench: host slowdown {:.3}", host.overall());
    out.put(
        "success_rate",
        1.0 - out.failed as f64 / out.attempted as f64,
        "fraction",
    );
    out.put("setup_s", setup_s, "s");
    out.put("peak_rss_mb", peak_rss_mb(), "MiB");
    // Every timed operation analyses a configuration the memo has not
    // seen in its pass: the fresh median is the operation median.
    out.put("fresh_latency_ms_p50", p50, "ms");
    out.put("repeat_latency_ms_p99", median(&round_p99), "ms");
    if args.traced {
        trace.put(&mut out);
        out.put("isl.cold_ms", trace.cold_ms(), "ms");
        unit.put(&mut out, true);
        put_absent(&mut out, &DSE_METRICS);
        put_absent(&mut out, &SERVING_METRICS);
        eprintln!("wlbench: {pass} passes, mean op {:.3} ms", mean(&lat));
    }
    Ok(out)
}

/// A warm repeat in the traced run: the same call under an attached
/// handle, so the traced repeat pays the same attribution cost as the
/// traced stream.
fn traced_report(s: &Suite, c: &Config) -> tenet_core::Result<tenet_core::PerformanceReport> {
    let h = tenet_core::CounterHandle::new();
    let _a = h.attach();
    report(s, c)
}
