//! Θ, the iteration domain, the access maps and the PE box are built from
//! their parts, not from text. Each must be *structurally* equal (`==`,
//! not just the same points) to what the parser returns for the relation
//! written out in the notation, because every memo key, coalesce and count
//! downstream depends on that form. The reference texts below are the
//! exact texts the model used to format and parse.

use tenet::core::{presets, ArchSpec, Dataflow, Interconnect, Role, TensorOp};
use tenet::dse::enumerate_all;
use tenet::isl::{Map, Set};
use tenet::workloads::{dataflows, kernels, networks};

fn iters(op: &TensorOp) -> String {
    let names: Vec<&str> = op.dims().iter().map(|d| d.name.as_str()).collect();
    names.join(", ")
}

fn constraints(op: &TensorOp) -> String {
    let cons: Vec<String> = op
        .dims()
        .iter()
        .map(|d| format!("{} <= {} < {}", d.lo, d.name, d.hi))
        .collect();
    cons.join(" and ")
}

fn check_op(op: &TensorOp) {
    let domain = format!("{{ S[{}] : {} }}", iters(op), constraints(op));
    assert_eq!(
        op.domain().unwrap(),
        Set::parse(&domain).unwrap(),
        "{domain}"
    );
    let tensors = op
        .tensors(Role::Input)
        .into_iter()
        .chain(op.tensors(Role::Output));
    for tensor in tensors {
        let mut expect: Option<Map> = None;
        for a in op.accesses().iter().filter(|a| a.tensor == tensor) {
            let text = format!(
                "{{ S[{}] -> {}[{}] : {} }}",
                iters(op),
                a.tensor,
                a.exprs.join(", "),
                constraints(op)
            );
            let m = Map::parse(&text).unwrap();
            expect = Some(match expect {
                None => m,
                Some(prev) => prev.union(&m).unwrap(),
            });
        }
        assert_eq!(
            op.access_map(tensor).unwrap(),
            expect.unwrap(),
            "{} access to {tensor}",
            op.name()
        );
    }
}

fn check_theta(op: &TensorOp, df: &Dataflow) {
    let mut exprs = df.space_exprs().to_vec();
    exprs.extend(df.time_exprs().iter().cloned());
    let text = format!(
        "{{ S[{}] -> ST[{}] : {} }}",
        iters(op),
        exprs.join(", "),
        constraints(op)
    );
    assert_eq!(df.theta(op).unwrap(), Map::parse(&text).unwrap(), "{text}");
}

fn check_pe_box(arch: &ArchSpec) {
    let names: Vec<String> = (0..arch.pe_dims.len()).map(|i| format!("p{i}")).collect();
    let cons: Vec<String> = arch
        .pe_dims
        .iter()
        .zip(&names)
        .map(|(d, n)| format!("0 <= {n} < {d}"))
        .collect();
    let text = format!("{{ PE[{}] : {} }}", names.join(", "), cons.join(" and "));
    assert_eq!(arch.pe_set().unwrap(), Set::parse(&text).unwrap(), "{text}");
}

#[test]
fn kernel_and_dataflow_presets_match_their_text() {
    let groups: Vec<(TensorOp, Vec<Dataflow>)> = vec![
        (
            kernels::gemm(16, 16, 16).unwrap(),
            dataflows::gemm_dataflows(8, 64),
        ),
        (kernels::conv2d(16, 16, 8, 8, 3, 3).unwrap(), {
            let mut dfs = dataflows::conv_dataflows(8, 64);
            dfs.push(dataflows::eyeriss_row_stationary());
            dfs.push(dataflows::eyeriss_row_stationary_tiled(4));
            dfs.push(dataflows::maeri_dataflow(16));
            dfs
        }),
        (
            kernels::mttkrp(8, 8, 8, 8).unwrap(),
            dataflows::mttkrp_dataflows(8),
        ),
        (
            kernels::jacobi2d(16).unwrap(),
            dataflows::jacobi_dataflows(8, 64),
        ),
        (
            kernels::mmc(8, 8, 8, 8).unwrap(),
            dataflows::mmc_dataflows(8),
        ),
        (
            kernels::depthwise_conv2d(8, 8, 8, 3, 3).unwrap(),
            Vec::new(),
        ),
        (networks::als_mttkrp_small().unwrap(), Vec::new()),
    ];
    for (op, dfs) in &groups {
        check_op(op);
        for df in dfs {
            check_theta(op, df);
        }
    }
    for layer in networks::alexnet() {
        check_op(&layer.op().unwrap());
    }
}

#[test]
fn dse_candidates_match_their_text() {
    let op = kernels::conv2d(8, 8, 4, 4, 3, 3).unwrap();
    let candidates = enumerate_all(&op, 4, 16).unwrap();
    assert!(candidates.len() > 100, "{} candidates", candidates.len());
    for df in &candidates {
        check_theta(&op, df);
    }
}

#[test]
fn pe_boxes_match_their_text() {
    for name in presets::names() {
        check_pe_box(&presets::by_name(name).unwrap());
    }
    for dims in [vec![1], vec![64], vec![12, 14], vec![4, 0], vec![2, 3, 4]] {
        check_pe_box(&ArchSpec::new("box", dims, Interconnect::Mesh, 1.0));
    }
}
