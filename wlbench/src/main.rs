//! `wlbench` — one workload run of the TENET workload-level benchmark.
//!
//! ```text
//! wlbench run --workload <table3_cold|dse_conv|serve_mixed> --seed N --seconds S
//!             --oracle-dir DIR [--traced] [--corrupt-oracle]
//! wlbench gen-oracle --oracle-dir DIR
//! ```
//!
//! `run` prints one JSON object on its last stdout line: the metrics with
//! their units, the attempted/failed operation tallies, and the exact
//! counts of the run's deterministic unit. Each workload runs in its own
//! process, so it starts from an empty ISL memo and empty response caches.
//! `--traced` measures the per-layer metrics (it adds attribution work, so
//! end-to-end numbers come from an untraced run). `--corrupt-oracle`
//! perturbs one expected value, which must make the run fail.
//! `gen-oracle` regenerates the committed simulator tables.
//!
//! `run.py` next to this package builds it, runs the processes a
//! benchmark invocation needs, and prints the combined result.

mod common;
mod dse;
mod layers;
mod oracle;
mod serve;
mod table3;

use std::path::PathBuf;
use std::process::ExitCode;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub oracle_dir: PathBuf,
    pub traced: bool,
    pub corrupt_oracle: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        oracle_dir: PathBuf::from("oracle"),
        traced: false,
        corrupt_oracle: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                a.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds needs a non-negative number")?
            }
            "--oracle-dir" => a.oracle_dir = PathBuf::from(value()?),
            "--traced" => a.traced = true,
            "--corrupt-oracle" => a.corrupt_oracle = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

fn gen_oracle(args: &Args) -> Result<(), String> {
    let header = "Expected values from tenet_sim::simulate (never from tenet_core::Analysis).\n\
                  key<TAB>time stamps<TAB>avg utilization<TAB>max utilization<TAB>tensor=unique/reuse ...\n\
                  Regenerate with: wlbench gen-oracle --oracle-dir <dir>";
    let io = |e: std::io::Error| e.to_string();
    let t = table3::gen_oracle().map_err(|e| e.to_string())?;
    t.save(&args.oracle_dir.join("table3_cold.tsv"), header)
        .map_err(io)?;
    eprintln!("table3_cold: {} configurations", t.0.len());
    let t = dse::gen_oracle().map_err(|e| e.to_string())?;
    t.save(&args.oracle_dir.join("dse_conv.tsv"), header)
        .map_err(io)?;
    eprintln!("dse_conv: {} simulated candidates", t.0.len());
    Ok(())
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let mode = argv.next().unwrap_or_default();
    let args = match parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wlbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match mode.as_str() {
        "gen-oracle" => {
            return gen_oracle(&args).map_or_else(
                |e| {
                    eprintln!("wlbench: {e}");
                    ExitCode::FAILURE
                },
                |()| ExitCode::SUCCESS,
            )
        }
        "run" => match args.workload.as_str() {
            "table3_cold" => table3::run(&args),
            "dse_conv" => dse::run(&args),
            "serve_mixed" => serve::run(&args),
            w => Err(format!("unknown workload `{w}`")),
        },
        m => Err(format!("unknown mode `{m}` (run | gen-oracle)")),
    };
    match result {
        Ok(report) => {
            println!("{}", report.to_json());
            if report.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("wlbench: {e}");
            ExitCode::from(2)
        }
    }
}
