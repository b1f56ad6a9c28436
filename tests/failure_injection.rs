//! Failure injection and degenerate-input tests: every layer must reject
//! ill-formed inputs with an error (never a panic, never a silent wrong
//! answer), and must stay exact on boundary-sized inputs.

use tenet::core::{validate, Analysis, ArchSpec, Dataflow, Error, Interconnect, TensorOp};
use tenet::sim::{simulate, SimOptions};
use tenet::workloads::kernels;

fn gemm(i: i64, j: i64, k: i64) -> TensorOp {
    kernels::gemm(i, j, k).unwrap()
}

#[test]
fn out_of_bounds_space_stamp_is_rejected() {
    let op = gemm(4, 4, 4);
    // i ranges to 4 but the PE array is 2 wide.
    let df = Dataflow::new(["i", "j"], ["k"]);
    let arch = ArchSpec::new("2x2", [2, 2], Interconnect::Systolic2D, 4.0);
    assert!(Analysis::new(&op, &df, &arch).is_err());
    let report = validate(&op, &df, &arch).unwrap();
    assert!(!report.in_bounds);
    assert!(!report.is_valid());
}

#[test]
fn space_dimension_mismatch_is_rejected() {
    let op = gemm(2, 2, 2);
    let df = Dataflow::new(["i"], ["j", "k"]); // 1 space dim
    let arch = ArchSpec::new("2x2", [2, 2], Interconnect::Systolic2D, 4.0); // 2D array
    assert!(Analysis::new(&op, &df, &arch).is_err());
    assert!(simulate(&op, &df, &arch, &SimOptions::default()).is_err());
}

#[test]
fn non_injective_dataflow_flagged_by_validate() {
    let op = gemm(2, 2, 4);
    let df = Dataflow::new(["i", "j"], ["i + j"]); // drops k
    let arch = ArchSpec::new("2x2", [2, 2], Interconnect::Systolic2D, 4.0);
    let report = validate(&op, &df, &arch).unwrap();
    assert!(!report.injective);
    assert!(!report.is_valid());
}

#[test]
fn dataflow_without_time_dims_is_rejected() {
    let op = gemm(2, 2, 2);
    let df = Dataflow::new(["i", "j"], Vec::<String>::new());
    assert!(df.theta(&op).is_err());
}

#[test]
fn dataflow_over_unknown_iterator_is_rejected() {
    let op = gemm(2, 2, 2);
    let df = Dataflow::new(["q", "j"], ["k"]);
    let arch = ArchSpec::new("2x2", [2, 2], Interconnect::Systolic2D, 4.0);
    assert!(Analysis::new(&op, &df, &arch).is_err());
}

#[test]
fn simulator_instance_cap_is_enforced() {
    let op = gemm(64, 64, 64); // 262144 instances
    let df = Dataflow::new(["i % 8", "j % 8"], ["floor(i / 8)", "floor(j / 8)", "k"]);
    let arch = ArchSpec::new("8x8", [8, 8], Interconnect::Systolic2D, 16.0);
    let opts = SimOptions {
        max_instances: 1000,
        ..Default::default()
    };
    let err = simulate(&op, &df, &arch, &opts).unwrap_err();
    assert!(err.to_string().contains("cap"));
}

#[test]
fn empty_loop_range_is_rejected_by_builder() {
    assert!(TensorOp::builder("bad")
        .dim("i", 0)
        .read("A", ["i"])
        .write("Y", ["i"])
        .build()
        .is_err());
    assert!(TensorOp::builder("bad")
        .dim_range("i", 5, 5)
        .read("A", ["i"])
        .write("Y", ["i"])
        .build()
        .is_err());
}

#[test]
fn single_instance_kernel_is_exact() {
    let op = gemm(1, 1, 1);
    let df = Dataflow::new(["i"], ["k"]);
    let arch = ArchSpec::new("1", [1], Interconnect::Systolic1D, 1.0);
    let a = Analysis::new(&op, &df, &arch).unwrap();
    let r = a.report().unwrap();
    assert_eq!(r.macs, 1);
    for t in ["A", "B", "Y"] {
        let v = a.volumes(t).unwrap();
        assert_eq!(v.total, 1);
        assert_eq!(v.unique, 1);
        assert_eq!(v.reuse, 0);
    }
    let sim = simulate(&op, &df, &arch, &SimOptions::default()).unwrap();
    assert_eq!(sim.macs, 1);
}

#[test]
fn one_by_one_pe_array_serializes_everything() {
    let op = gemm(3, 3, 3);
    // Single PE: the full loop nest becomes the time-stamp.
    let df = Dataflow::new(["i - i"], ["i", "j", "k"]);
    let arch = ArchSpec::new("1", [1], Interconnect::Systolic1D, 4.0);
    let a = Analysis::new(&op, &df, &arch).unwrap();
    let r = a.report().unwrap();
    assert_eq!(r.macs, 27);
    assert!(r.latency.compute >= 27.0);
    assert_eq!(r.utilization.pes_used, 1);
    // No neighbors to reuse from: all reuse is temporal.
    for t in ["A", "B", "Y"] {
        let v = a.volumes(t).unwrap();
        assert_eq!(v.spatial_reuse, 0, "tensor {t}");
    }
}

#[test]
fn modulus_larger_than_extent_is_identity() {
    let op = gemm(4, 4, 4);
    // i % 64 == i when i < 4; both dataflows must agree on every metric.
    let arch = ArchSpec::new("4x4", [4, 4], Interconnect::Systolic2D, 8.0);
    let df1 = Dataflow::new(["i % 64", "j % 64"], ["k"]);
    let df2 = Dataflow::new(["i", "j"], ["k"]);
    let a1 = Analysis::new(&op, &df1, &arch).unwrap();
    let a2 = Analysis::new(&op, &df2, &arch).unwrap();
    for t in ["A", "B", "Y"] {
        let v1 = a1.volumes(t).unwrap();
        let v2 = a2.volumes(t).unwrap();
        assert_eq!(v1, v2, "tensor {t}");
    }
}

#[test]
fn zero_radius_multicast_rejected() {
    let ic = Interconnect::Multicast { radius: 0 };
    assert!(ic.offsets(1).is_err());
}

#[test]
fn custom_offsets_width_mismatch_rejected() {
    let ic = Interconnect::Custom {
        offsets: vec![vec![1, 0, 0]],
        same_cycle: false,
    };
    assert!(ic.offsets(2).is_err());
}

#[test]
fn negative_loop_bounds_are_handled_exactly() {
    // Jacobi-style interior domain shifted to negative coordinates.
    let op = TensorOp::builder("shifted")
        .dim_range("i", -4, 4)
        .dim_range("j", -4, 4)
        .read("A", ["i + 4", "j + 4"])
        .write("Y", ["i + 4", "j + 4"])
        .build()
        .unwrap();
    let df = Dataflow::new(["i + 4"], ["j"]);
    let arch = ArchSpec::new("8", [8], Interconnect::Systolic1D, 8.0);
    let a = Analysis::new(&op, &df, &arch).unwrap();
    assert_eq!(a.report().unwrap().macs, 64);
    let v = a.volumes("A").unwrap();
    assert_eq!(v.total, 64);
    assert_eq!(v.unique, 64); // every element touched once
}

#[test]
fn simulator_rejects_fractional_free_dataflow_but_model_accepts_floor() {
    // Quasi-affine stamps must work identically in both engines.
    let op = gemm(8, 8, 2);
    let df = Dataflow::new(["i % 4", "j % 4"], ["floor(i / 4)", "floor(j / 4)", "k"]);
    let arch = ArchSpec::new("4x4", [4, 4], Interconnect::Systolic2D, 8.0);
    let a = Analysis::new(&op, &df, &arch).unwrap();
    let sim = simulate(&op, &df, &arch, &SimOptions::default()).unwrap();
    assert_eq!(a.report().unwrap().macs as u64, sim.macs);
    for t in ["A", "B", "Y"] {
        assert_eq!(
            a.volumes(t).unwrap().unique,
            sim.tensors[t].scratchpad as u128,
            "tensor {t}"
        );
    }
}

#[test]
fn scratchpad_capacity_violation_reported_not_fatal() {
    let op = gemm(16, 16, 16);
    let df = Dataflow::new(["i % 4", "j % 4"], ["floor(i / 4)", "floor(j / 4)", "k"]);
    let mut arch = ArchSpec::new("4x4", [4, 4], Interconnect::Systolic2D, 8.0);
    arch.scratchpad_capacity = 10; // absurd: footprint is 3 * 256
    let report = validate(&op, &df, &arch).unwrap();
    assert!(!report.fits_scratchpad);
    // Capacity pressure is advisory (double-buffering is the paper's
    // assumption); validity only tracks injectivity and bounds.
    assert!(report.is_valid());
}

/// The Y[i] = A[i] copy over four iterations on a 4-PE Mesh array.
fn copy4() -> (TensorOp, ArchSpec) {
    let op = TensorOp::builder("copy")
        .dim("i", 4)
        .read("A", ["i"])
        .write("Y", ["i"])
        .build()
        .unwrap();
    (op, ArchSpec::new("4", [4], Interconnect::Mesh, 4.0))
}

/// Asserts that the analysis rejects `df` as invalid input, naming `expr`.
fn assert_rejects_stamp(df: Dataflow, expr: &str) {
    let (op, arch) = copy4();
    match Analysis::new(&op, &df, &arch) {
        Err(Error::Invalid(m)) => assert!(m.contains(&format!("`{expr}`")), "{m}"),
        Err(e) => panic!("`{expr}`: expected an invalid-input error, got {e}"),
        Ok(a) => panic!("`{expr}` accepted: {:?}", a.report()),
    }
}

/// A stamp is one expression, never a piece of relation text: text that
/// closes the tuple and appends a second disjunct must not change Θ (it
/// used to double every volume and the stamp count).
#[test]
fn stamp_smuggling_relation_text_is_rejected() {
    let expr = "i] : 0 <= i < 4; S[i] -> ST[i, i + 4";
    assert_rejects_stamp(Dataflow::new(["i"], [expr]), expr);
}

/// A stamp naming something other than a loop iterator is not a free
/// dimension of Θ.
#[test]
fn stamp_over_a_non_iterator_is_rejected() {
    assert_rejects_stamp(Dataflow::new(["i"], ["x"]), "x");
}

/// Two stamps written as one expression are rejected by name, not as a
/// bare space mismatch.
#[test]
fn two_stamps_in_one_expression_are_rejected() {
    assert_rejects_stamp(Dataflow::new(["i, i"], ["i"]), "i, i");
}

/// Loop and tensor names are identifiers of the notation.
#[test]
fn non_identifier_names_are_rejected_by_builder() {
    let with = |dim: &str, tensor: &str| {
        TensorOp::builder("bad")
            .dim(dim, 4)
            .read(tensor, [dim])
            .write("Y", [dim])
            .build()
    };
    assert!(with("i", "A").is_ok());
    for (dim, tensor) in [
        ("i j", "A"),
        ("mod", "A"),
        ("i", "A[0]"),
        ("i", "and"),
        ("i", ""),
    ] {
        match with(dim, tensor) {
            Err(Error::Invalid(m)) => assert!(m.contains("not an identifier"), "{m}"),
            other => panic!("loop `{dim}`, tensor `{tensor}`: {other:?}"),
        }
    }
}
