//! Equivalence of max utilization with its reference: the memoized
//! `Set::max_suffix_slice_card` over the activity relation must match a
//! per-stamp fix+card sweep on every workload preset and on the paper's
//! named architecture examples — and the reported utilization must be
//! identical with the memo layer on and off.

use tenet::core::{presets, Analysis, ArchSpec, Dataflow, Interconnect, TensorOp};
use tenet::isl::{cache, Set};
use tenet::sim::{simulate, SimOptions};
use tenet::workloads::{dataflows, kernels};

/// Builds an arch that fits the dataflow's space-stamp dimensionality.
fn arch_for(df: &Dataflow, pe: i64, pe1d: i64, bw: f64) -> ArchSpec {
    match df.n_space() {
        1 => ArchSpec::new("1d", [pe1d], Interconnect::Systolic1D, bw),
        2 => ArchSpec::new("2d", [pe, pe], Interconnect::Systolic2D, bw),
        n => {
            let dims: Vec<i64> = vec![pe; n];
            ArchSpec::new("nd", dims, Interconnect::Mesh, bw)
        }
    }
}

/// The reference sweep: fix each time-stamp of the activity relation
/// and count the active PEs separately.
fn max_active_swept(act: &Set, ns: usize) -> u128 {
    let stamps = act.project_out(0, ns).unwrap();
    let mut max_active = 0u128;
    for stamp in stamps.points(1 << 20).unwrap() {
        let mut slice = act.clone();
        for (i, &v) in stamp.iter().enumerate() {
            slice = slice.fix(ns + i, v);
        }
        max_active = max_active.max(slice.card().unwrap());
    }
    max_active
}

/// Asserts `max_suffix_slice_card` == the reference sweep for one triple,
/// and that an exact reported max agrees with both; returns false when
/// the dataflow does not apply to the kernel (dimension mismatch).
fn check(op: &TensorOp, df: &Dataflow, arch: &ArchSpec) -> bool {
    let a = match Analysis::new(op, df, arch) {
        Ok(a) => a,
        Err(_) => return false,
    };
    let ns = df.n_space();
    let act = a.theta().range().unwrap();
    // Limits well above any preset's size, so both run to completion.
    let sliced = act.max_suffix_slice_card(ns, 1 << 20).unwrap();
    let swept = max_active_swept(&act, ns);
    let name = df.name().unwrap_or("<unnamed>");
    assert_eq!(
        sliced, swept,
        "sliced vs swept max-active diverge for {name}"
    );
    let u = a.utilization().unwrap();
    if u.max_is_exact {
        assert_eq!(
            u.max,
            swept as f64 / arch.pe_count() as f64,
            "reported max utilization diverges for {name}"
        );
    }
    true
}

/// Every `workloads::` dataflow preset, on its matching kernel.
#[test]
fn bucketed_sweep_matches_reference_on_all_presets() {
    let (pe, pe1d) = (4, 16);
    let mut checked = 0;
    let gemm = kernels::gemm(8, 8, 8).unwrap();
    for df in dataflows::gemm_dataflows(pe, pe1d) {
        checked += check(&gemm, &df, &arch_for(&df, pe, pe1d, 16.0)) as usize;
    }
    let conv = kernels::conv2d(8, 8, 4, 4, 3, 3).unwrap();
    for df in dataflows::conv_dataflows(pe, pe1d) {
        checked += check(&conv, &df, &arch_for(&df, pe, pe1d, 16.0)) as usize;
    }
    let mttkrp = kernels::mttkrp(4, 4, 8, 8).unwrap();
    for df in dataflows::mttkrp_dataflows(pe) {
        checked += check(&mttkrp, &df, &arch_for(&df, pe, pe1d, 16.0)) as usize;
    }
    let jacobi = kernels::jacobi2d(16).unwrap();
    for df in dataflows::jacobi_dataflows(pe, pe1d) {
        checked += check(&jacobi, &df, &arch_for(&df, pe, pe1d, 16.0)) as usize;
    }
    let mmc = kernels::mmc(4, 4, 8, 8).unwrap();
    for df in dataflows::mmc_dataflows(pe) {
        checked += check(&mmc, &df, &arch_for(&df, pe, pe1d, 16.0)) as usize;
    }
    // The MAERI 1-D dataflow rides on a small conv layer.
    let conv_small = kernels::conv2d(8, 4, 4, 4, 3, 3).unwrap();
    checked += check(
        &conv_small,
        &dataflows::maeri_dataflow(16),
        &presets::maeri_like(16, 16.0),
    ) as usize;
    assert!(
        checked >= 15,
        "only {checked} preset dataflows were checked"
    );
}

/// The paper's two worked architecture examples: the Figure 3 GEMM on the
/// 2×2 systolic array and the Eyeriss row-stationary conv on the 12×14
/// mesh array.
#[test]
fn bucketed_sweep_matches_reference_on_paper_archs() {
    let gemm = kernels::gemm(2, 2, 4).unwrap();
    let figure3 = Dataflow::new(["i", "j"], ["i + j + k"]);
    let arch = ArchSpec::new("2x2", [2, 2], Interconnect::Systolic2D, 4.0);
    assert!(check(&gemm, &figure3, &arch));

    let conv = kernels::conv2d(16, 16, 4, 12, 3, 3).unwrap();
    let rs = dataflows::eyeriss_row_stationary();
    assert!(check(&conv, &rs, &presets::eyeriss_like(16.0)));
}

/// The reported utilization itself is bit-identical with the memo layer
/// enabled and disabled (the differential oracle for the analysis layer).
#[test]
fn utilization_identical_with_cache_on_and_off() {
    let op = kernels::gemm(8, 8, 8).unwrap();
    let df = dataflows::gemm_dataflows(4, 16)[0].clone();
    let arch = ArchSpec::new("2d", [4, 4], Interconnect::Systolic2D, 16.0);
    let run = || {
        let a = Analysis::new(&op, &df, &arch).unwrap();
        a.utilization().unwrap()
    };
    cache::set_enabled(false);
    let cold = run();
    cache::clear();
    cache::set_enabled(true);
    let _ = run();
    let warm = run();
    assert_eq!(cold, warm);
}

/// Above 1024 time-stamps max utilization is probed, not swept: it must
/// say so, and stay between the exact average and the simulator's
/// measured peak (a probe can only miss the busiest stamp, never exceed
/// it).
#[test]
fn probed_max_is_bounded_by_the_simulator() {
    let op = kernels::gemm(4, 4, 1100).unwrap();
    let df = Dataflow::new(["i", "j"], ["i + j + k"]);
    let arch = ArchSpec::new("4x4", [4, 4], Interconnect::Systolic2D, 16.0);
    let u = Analysis::new(&op, &df, &arch)
        .unwrap()
        .utilization()
        .unwrap();
    let sim = simulate(&op, &df, &arch, &SimOptions::default()).unwrap();
    assert_eq!(u.time_stamps, sim.compute_cycles as u128);
    assert!(u.time_stamps > 1024);
    assert!(!u.max_is_exact, "{u:?}");
    assert!(u.average <= u.max, "{u:?}");
    assert!(u.max <= sim.max_utilization(), "{u:?} vs {sim:?}");
}
