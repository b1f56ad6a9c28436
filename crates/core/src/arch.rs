//! Spatial-architecture specification: PE array, interconnect topology,
//! scratchpad bandwidth, and energy cost table (Section II-A, Figure 4).

use crate::{Error, Result};
use tenet_isl::{Set, Tuple};

/// PE interconnection topology (Definition 3 and Figure 4).
///
/// Every topology is described by the set of coordinate *offsets* a datum
/// can travel in one step, plus whether the transfer consumes a cycle
/// (systolic/mesh) or happens within the same cycle over wires (multicast).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Interconnect {
    /// Links along the innermost PE dimension only: `(i' = i, j' = j+1)`.
    Systolic1D,
    /// 2D systolic transfer: `(i'=i, j'=j+1) or (i'=i+1, j'=j)` — the TPU
    /// interconnect.
    Systolic2D,
    /// Mesh NoC: `abs(i'-i) <= 1 and abs(j'-j) <= 1` (DySER, Plasticine).
    Mesh,
    /// 1D multicast over shared wires reaching PEs within `radius` along
    /// the innermost dimension in the *same* cycle (Eyeriss, DianNao).
    Multicast {
        /// Maximum coordinate distance reachable over the shared wire.
        radius: i64,
    },
    /// Arbitrary offset set.
    Custom {
        /// Coordinate deltas reachable in one transfer.
        offsets: Vec<Vec<i64>>,
        /// Whether the transfer happens within the same cycle (wires) or
        /// takes one cycle (registered links).
        same_cycle: bool,
    },
}

impl Interconnect {
    /// The neighbor offsets for an `n`-dimensional PE array.
    pub fn offsets(&self, n: usize) -> Result<Vec<Vec<i64>>> {
        if n == 0 {
            return Err(Error::Invalid(
                "PE array needs at least one dimension".into(),
            ));
        }
        let unit = |d: usize, v: i64| -> Vec<i64> {
            let mut o = vec![0i64; n];
            o[d] = v;
            o
        };
        match self {
            Interconnect::Systolic1D => Ok(vec![unit(n - 1, 1)]),
            Interconnect::Systolic2D => {
                if n == 1 {
                    Ok(vec![unit(0, 1)])
                } else {
                    Ok(vec![unit(n - 1, 1), unit(n - 2, 1)])
                }
            }
            Interconnect::Mesh => {
                // All nonzero offset vectors with each component in
                // {-1, 0, 1}.
                let mut out = Vec::new();
                let total = 3usize.pow(n as u32);
                for code in 0..total {
                    let mut o = Vec::with_capacity(n);
                    let mut c = code;
                    for _ in 0..n {
                        o.push((c % 3) as i64 - 1);
                        c /= 3;
                    }
                    if o.iter().any(|&v| v != 0) {
                        out.push(o);
                    }
                }
                Ok(out)
            }
            Interconnect::Multicast { radius } => {
                if *radius <= 0 {
                    return Err(Error::Invalid("multicast radius must be positive".into()));
                }
                // Multicast transfers are directional (from the wire's
                // entry PE towards higher coordinates). A symmetric offset
                // set with a zero-cycle delta would make availability
                // circular: every PE could claim the datum from a
                // neighbor, and no access would ever count as the fetch
                // from the scratchpad.
                let mut out = Vec::new();
                for d in 1..=*radius {
                    out.push(unit(n - 1, d));
                }
                Ok(out)
            }
            Interconnect::Custom { offsets, .. } => {
                for o in offsets {
                    if o.len() != n {
                        return Err(Error::Invalid(format!(
                            "custom offset has {} components, PE array has {n}",
                            o.len()
                        )));
                    }
                }
                Ok(offsets.clone())
            }
        }
    }

    /// Cycles a single inter-PE transfer takes (0 for same-cycle wires).
    pub fn time_delta(&self) -> i64 {
        match self {
            Interconnect::Multicast { .. } => 0,
            Interconnect::Custom { same_cycle, .. } => i64::from(!*same_cycle),
            _ => 1,
        }
    }

    /// Short display name used in figures.
    pub fn label(&self) -> &'static str {
        match self {
            Interconnect::Systolic1D => "1D-sys",
            Interconnect::Systolic2D => "2D-sys",
            Interconnect::Mesh => "mesh",
            Interconnect::Multicast { .. } => "multicast",
            Interconnect::Custom { .. } => "custom",
        }
    }
}

/// Relative energy per access, normalized to one MAC operation.
///
/// Defaults follow the Eyeriss energy hierarchy (register file ≈ MAC,
/// inter-PE hop ≈ 2×, scratchpad ≈ 6×, DRAM ≈ 200×).
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyModel {
    /// One multiply-accumulate.
    pub mac: f64,
    /// One PE register-file access.
    pub register: f64,
    /// One inter-PE NoC hop.
    pub noc_hop: f64,
    /// One scratchpad (global buffer) access.
    pub scratchpad: f64,
    /// One off-chip DRAM access.
    pub dram: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            mac: 1.0,
            register: 1.0,
            noc_hop: 2.0,
            scratchpad: 6.0,
            dram: 200.0,
        }
    }
}

/// A spatial architecture: PE array shape, interconnect, scratchpad
/// bandwidth (elements per cycle), buffer capacity, and energy table.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchSpec {
    /// Human-readable name.
    pub name: String,
    /// PE array extents, e.g. `[8, 8]` for an 8×8 array.
    pub pe_dims: Vec<i64>,
    /// Inter-PE interconnect topology.
    pub interconnect: Interconnect,
    /// Scratchpad bandwidth in tensor elements per cycle.
    pub bandwidth: f64,
    /// Scratchpad capacity in tensor elements.
    pub scratchpad_capacity: u64,
    /// Energy cost table.
    pub energy: EnergyModel,
}

impl ArchSpec {
    /// Creates an architecture with default buffer size and energy table.
    pub fn new<I: IntoIterator<Item = i64>>(
        name: &str,
        pe_dims: I,
        interconnect: Interconnect,
        bandwidth: f64,
    ) -> ArchSpec {
        ArchSpec {
            name: name.to_string(),
            pe_dims: pe_dims.into_iter().collect(),
            interconnect,
            bandwidth,
            scratchpad_capacity: 1 << 20,
            energy: EnergyModel::default(),
        }
    }

    /// Total number of PEs.
    pub fn pe_count(&self) -> u128 {
        self.pe_dims.iter().map(|&d| d.max(0) as u128).product()
    }

    /// The PE array as an integer set `{ PE[p0, ...] : 0 <= p_i < dim_i }`.
    pub fn pe_set(&self) -> Result<Set> {
        let names = (0..self.pe_dims.len()).map(|i| format!("p{i}"));
        let bounds: Vec<(i64, i64)> = self.pe_dims.iter().map(|&d| (0, d)).collect();
        Ok(Set::from_box(&Tuple::new("PE", names), &bounds)?)
    }
}

/// The common spatial-architecture repository mentioned in Figure 2.
pub mod presets {
    use super::*;

    /// A TPU-like systolic array.
    pub fn tpu_like(rows: i64, cols: i64, bandwidth: f64) -> ArchSpec {
        ArchSpec::new(
            "tpu-like",
            [rows, cols],
            Interconnect::Systolic2D,
            bandwidth,
        )
    }

    /// An Eyeriss-like array (12×14 in the paper's Fig. 11/12 experiments)
    /// with a mesh NoC.
    pub fn eyeriss_like(bandwidth: f64) -> ArchSpec {
        ArchSpec::new("eyeriss-like", [12, 14], Interconnect::Mesh, bandwidth)
    }

    /// An Eyeriss-like array with its actual NoC: same-cycle multicast
    /// buses along each row (filter / input delivery) and each column
    /// (partial-sum sharing). Offsets are directional so availability is
    /// well-founded within a cycle.
    pub fn eyeriss_noc(rows: i64, cols: i64, bandwidth: f64) -> ArchSpec {
        let mut offsets = Vec::new();
        for d in 1..cols {
            offsets.push(vec![0, d]);
        }
        for d in 1..rows {
            offsets.push(vec![d, 0]);
        }
        ArchSpec::new(
            "eyeriss-noc",
            [rows, cols],
            Interconnect::Custom {
                offsets,
                same_cycle: true,
            },
            bandwidth,
        )
    }

    /// A ShiDianNao-like 8×8 output-stationary array.
    pub fn shidiannao_like(bandwidth: f64) -> ArchSpec {
        ArchSpec::new("shidiannao-like", [8, 8], Interconnect::Mesh, bandwidth)
    }

    /// A MAERI-like 1D multiplier array fed by a distribution tree:
    /// multipliers are the PEs, connected via same-cycle multicast links.
    pub fn maeri_like(n_mult: i64, bandwidth: f64) -> ArchSpec {
        ArchSpec::new(
            "maeri-like",
            [n_mult],
            Interconnect::Multicast { radius: 3 },
            bandwidth,
        )
    }

    /// A generic mesh-connected square array (used for the MAESTRO
    /// comparison, Section VI-A).
    pub fn mesh(rows: i64, cols: i64, bandwidth: f64) -> ArchSpec {
        ArchSpec::new("mesh", [rows, cols], Interconnect::Mesh, bandwidth)
    }

    /// A generic 2D-systolic square array.
    pub fn systolic(rows: i64, cols: i64, bandwidth: f64) -> ArchSpec {
        ArchSpec::new(
            "systolic",
            [rows, cols],
            Interconnect::Systolic2D,
            bandwidth,
        )
    }

    /// A named preset constructor.
    type PresetEntry = (&'static str, fn() -> ArchSpec);

    /// Name → constructor table, the single source for [`names`] and
    /// [`by_name`] (so the advertised list can never drift from what
    /// resolves).
    const TABLE: &[PresetEntry] = &[
        ("tpu8x8", || tpu_like(8, 8, 64.0)),
        ("tpu16x16", || tpu_like(16, 16, 128.0)),
        ("eyeriss", || eyeriss_like(16.0)),
        ("shidiannao", || shidiannao_like(16.0)),
        ("maeri64", || maeri_like(64, 16.0)),
        ("mesh8x8", || mesh(8, 8, 16.0)),
    ];

    /// The preset names accepted by [`by_name`], in display order.
    pub fn names() -> Vec<&'static str> {
        TABLE.iter().map(|(n, _)| *n).collect()
    }

    /// Resolves a named preset — the shared vocabulary of the CLI's
    /// `--preset` option and the analysis service's `"preset"` request
    /// field. Returns `None` for unknown names (callers render their own
    /// error with [`names`]).
    pub fn by_name(name: &str) -> Option<ArchSpec> {
        TABLE.iter().find(|(n, _)| *n == name).map(|(_, f)| f())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_advertised_preset_resolves() {
        let names = presets::names();
        assert!(!names.is_empty());
        for name in names {
            let arch = presets::by_name(name).unwrap_or_else(|| panic!("{name} must resolve"));
            assert!(arch.bandwidth > 0.0, "{name}");
        }
        assert!(presets::by_name("not-a-preset").is_none());
    }

    #[test]
    fn systolic2d_offsets() {
        let o = Interconnect::Systolic2D.offsets(2).unwrap();
        assert_eq!(o.len(), 2);
        assert!(o.contains(&vec![0, 1]));
        assert!(o.contains(&vec![1, 0]));
    }

    #[test]
    fn mesh_offsets_2d() {
        let o = Interconnect::Mesh.offsets(2).unwrap();
        assert_eq!(o.len(), 8);
        assert!(o.contains(&vec![-1, -1]));
        assert!(!o.contains(&vec![0, 0]));
    }

    #[test]
    fn multicast_offsets_and_delta() {
        let ic = Interconnect::Multicast { radius: 3 };
        let o = ic.offsets(1).unwrap();
        // Directional: towards higher coordinates only.
        assert_eq!(o, vec![vec![1], vec![2], vec![3]]);
        assert_eq!(ic.time_delta(), 0);
        assert_eq!(Interconnect::Systolic2D.time_delta(), 1);
    }

    #[test]
    fn pe_set_cardinality() {
        let arch = presets::tpu_like(8, 8, 16.0);
        assert_eq!(arch.pe_count(), 64);
        assert_eq!(arch.pe_set().unwrap().card().unwrap(), 64);
    }

    #[test]
    fn custom_offsets_validated() {
        let ic = Interconnect::Custom {
            offsets: vec![vec![1]],
            same_cycle: false,
        };
        assert!(ic.offsets(2).is_err());
        assert_eq!(ic.time_delta(), 1);
    }
}
