//! Expected values from the cycle-level simulator (`tenet_sim`), which
//! shares no counting code with the relational model. Tables that take
//! long to simulate are generated once (`wlbench gen-oracle`) and
//! committed under `oracle/`; smaller subsamples are simulated at run
//! time. Nothing here ever calls `tenet_core::Analysis`.

use std::collections::BTreeMap;
use std::path::Path;
use tenet_core::json::Json;
use tenet_core::{ArchSpec, Dataflow, PerformanceReport, TensorOp};
use tenet_sim::{simulate, SimOptions};

/// The simulator's view of one (op, dataflow, arch) configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct Expected {
    /// Time-stamps (compute cycles).
    pub stamps: u64,
    pub avg_util: f64,
    pub max_util: f64,
    /// Per tensor: (unique volume, reuse volume).
    pub tensors: BTreeMap<String, (u64, u64)>,
}

/// The same quantities read back from a model report.
pub struct Observed {
    pub stamps: u64,
    pub avg_util: f64,
    pub max_util: f64,
    pub max_is_exact: bool,
    pub tensors: BTreeMap<String, (u64, u64)>,
}

impl Observed {
    pub fn from_report(r: &PerformanceReport) -> Observed {
        Observed {
            stamps: r.utilization.time_stamps as u64,
            avg_util: r.utilization.average,
            max_util: r.utilization.max,
            max_is_exact: r.utilization.max_is_exact,
            tensors: r
                .tensors
                .iter()
                .map(|(n, t)| (n.clone(), (t.volumes.unique as u64, t.volumes.reuse as u64)))
                .collect(),
        }
    }

    /// Reads a report as the service serializes it (`export::to_json`).
    pub fn from_json(r: &Json) -> Option<Observed> {
        let u = r.get("utilization")?;
        let mut tensors = BTreeMap::new();
        for (name, t) in r.get("tensors")?.as_obj()? {
            tensors.insert(
                name.clone(),
                (t.get("unique")?.as_u64()?, t.get("reuse")?.as_u64()?),
            );
        }
        Some(Observed {
            stamps: u.get("time_stamps")?.as_u64()?,
            avg_util: u.get("average")?.as_f64()?,
            max_util: u.get("max")?.as_f64()?,
            max_is_exact: u.get("max_is_exact")?.as_bool()?,
            tensors,
        })
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * b.abs().max(1.0)
}

impl Expected {
    /// Simulates one configuration.
    pub fn simulate(op: &TensorOp, df: &Dataflow, arch: &ArchSpec) -> tenet_core::Result<Expected> {
        let s = simulate(op, df, arch, &SimOptions::default())?;
        Ok(Expected {
            stamps: s.compute_cycles,
            avg_util: s.avg_utilization(),
            max_util: s.max_utilization(),
            tensors: s
                .tensors
                .iter()
                .map(|(n, t)| (n.clone(), (t.scratchpad, t.temporal_hits + t.spatial_hits)))
                .collect(),
        })
    }

    /// Compares a model result against the simulator. The simulator
    /// models the paper's one-cycle reuse window; for a wider `window`
    /// the volumes are only bounded (more reuse, never more accesses).
    /// A probed (non-exact) maximum utilization is a lower bound.
    /// Returns a description of the first disagreement.
    pub fn check(&self, got: &Observed, window: u32) -> Result<(), String> {
        if got.stamps != self.stamps {
            return Err(format!("time stamps {} != {}", got.stamps, self.stamps));
        }
        if !close(got.avg_util, self.avg_util) {
            return Err(format!(
                "avg utilization {} != {}",
                got.avg_util, self.avg_util
            ));
        }
        let max_ok = if got.max_is_exact {
            close(got.max_util, self.max_util)
        } else {
            got.max_util <= self.max_util + 1e-9
        };
        if !max_ok {
            return Err(format!(
                "max utilization {} vs {}",
                got.max_util, self.max_util
            ));
        }
        if got.tensors.len() != self.tensors.len() {
            return Err("tensor sets differ".into());
        }
        for (name, &(unique, reuse)) in &self.tensors {
            let Some(&(gu, gr)) = got.tensors.get(name) else {
                return Err(format!("tensor {name} missing"));
            };
            let ok = if window <= 1 {
                gu == unique && gr == reuse
            } else {
                gu <= unique && gu + gr == unique + reuse
            };
            if !ok {
                return Err(format!(
                    "tensor {name}: unique/reuse {gu}/{gr} vs simulated {unique}/{reuse} (window {window})"
                ));
            }
        }
        Ok(())
    }

    fn to_line(&self, key: &str) -> String {
        let tensors: Vec<String> = self
            .tensors
            .iter()
            .map(|(n, (u, r))| format!("{n}={u}/{r}"))
            .collect();
        format!(
            "{key}\t{}\t{}\t{}\t{}",
            self.stamps,
            self.avg_util,
            self.max_util,
            tensors.join(" ")
        )
    }

    fn from_line(line: &str) -> Option<(String, Expected)> {
        let mut f = line.split('\t');
        let key = f.next()?.to_string();
        let stamps = f.next()?.parse().ok()?;
        let avg_util = f.next()?.parse().ok()?;
        let max_util = f.next()?.parse().ok()?;
        let mut tensors = BTreeMap::new();
        for t in f.next()?.split(' ') {
            let (name, vals) = t.split_once('=')?;
            let (u, r) = vals.split_once('/')?;
            tensors.insert(name.to_string(), (u.parse().ok()?, r.parse().ok()?));
        }
        Some((
            key,
            Expected {
                stamps,
                avg_util,
                max_util,
                tensors,
            },
        ))
    }
}

/// A committed table of expected values, keyed by configuration.
#[derive(Default)]
pub struct Table(pub BTreeMap<String, Expected>);

impl Table {
    pub fn load(path: &Path) -> Result<Table, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read oracle {}: {e}", path.display()))?;
        let mut map = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (k, e) = Expected::from_line(line)
                .ok_or_else(|| format!("{}:{}: malformed oracle line", path.display(), i + 1))?;
            map.insert(k, e);
        }
        Ok(Table(map))
    }

    pub fn save(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let mut out = String::new();
        for line in header.lines() {
            out.push_str("# ");
            out.push_str(line);
            out.push('\n');
        }
        for (k, e) in &self.0 {
            out.push_str(&e.to_line(k));
            out.push('\n');
        }
        std::fs::write(path, out)
    }

    /// Perturbs one expected value of `key`: the self-test's planted
    /// defect, which must fail the run that checks it. Returns whether the
    /// table holds `key`.
    pub fn corrupt(&mut self, key: &str) -> bool {
        match self
            .0
            .get_mut(key)
            .and_then(|e| e.tensors.values_mut().next())
        {
            Some(t) => {
                t.0 += 1;
                true
            }
            None => false,
        }
    }
}

/// The key of a dataflow independent of its position in an enumeration.
pub fn dataflow_key(df: &Dataflow) -> String {
    format!(
        "PE[{}] | T[{}]",
        df.space_exprs().join(", "),
        df.time_exprs().join(", ")
    )
}
