//! The dataflow relation Θ (Definition 1): an affine (or quasi-affine)
//! assignment of every loop instance to a space-stamp (PE coordinates) and
//! a time-stamp (execution sequence).

use crate::op::TensorOp;
use crate::{Error, Result};
use tenet_isl::{Map, Set};

/// A dataflow `Θ_{S,D} = { S[n] -> (PE[p] | T[t]) }` expressed as one
/// quasi-affine expression per space and time dimension.
///
/// Expressions use the loop iterator names of the target [`TensorOp`] and
/// may contain `+`, `-`, integer multiplication, `x mod c` / `x % c`, and
/// `floor(x / c)` / `fl(x / c)` — exactly the notation of Table III.
///
/// ```
/// use tenet_core::Dataflow;
/// // The paper's Figure 3 systolic GEMM dataflow.
/// let df = Dataflow::new(["i", "j"], ["i + j + k"]);
/// assert_eq!(df.n_space(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dataflow {
    name: Option<String>,
    space: Vec<String>,
    time: Vec<String>,
}

impl Dataflow {
    /// Creates a dataflow from space-stamp and time-stamp expressions.
    pub fn new<S, T, IS, IT>(space: IS, time: IT) -> Dataflow
    where
        S: Into<String>,
        T: Into<String>,
        IS: IntoIterator<Item = S>,
        IT: IntoIterator<Item = T>,
    {
        Dataflow {
            name: None,
            space: space.into_iter().map(Into::into).collect(),
            time: time.into_iter().map(Into::into).collect(),
        }
    }

    /// Attaches a display name (e.g. `(IJ-P | J,IJK-T)` from Table III).
    pub fn named(mut self, name: &str) -> Dataflow {
        self.name = Some(name.to_string());
        self
    }

    /// The display name, if any.
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }

    /// Number of space (PE) dimensions.
    pub fn n_space(&self) -> usize {
        self.space.len()
    }

    /// Number of time dimensions.
    pub fn n_time(&self) -> usize {
        self.time.len()
    }

    /// The space-stamp expressions.
    pub fn space_exprs(&self) -> &[String] {
        &self.space
    }

    /// The time-stamp expressions.
    pub fn time_exprs(&self) -> &[String] {
        &self.time
    }

    /// Builds Θ as a single map `S -> ST` whose range concatenates the
    /// space dims followed by the time dims, restricted to the iteration
    /// domain of `op`.
    ///
    /// # Errors
    ///
    /// [`Error::Invalid`] naming the expression when a stamp is not
    /// exactly one quasi-affine expression over the loop iterators.
    pub fn theta(&self, op: &TensorOp) -> Result<Map> {
        if self.space.is_empty() || self.time.is_empty() {
            return Err(Error::Invalid(
                "a dataflow needs at least one space and one time dimension".into(),
            ));
        }
        let (domain, bounds) = op.domain_box();
        let exprs = [&self.space[..], &self.time[..]].concat();
        Ok(Map::affine_on_box(&domain, &bounds, "ST", &exprs)?)
    }

    /// The set of space-stamps actually used by `op` under this dataflow:
    /// the range of Θ with the time dims projected out.
    pub fn used_pes(&self, op: &TensorOp) -> Result<Set> {
        Ok(self
            .theta(op)?
            .range()?
            .project_out(self.n_space(), self.n_time())?)
    }

    /// The set of time-stamps actually used: the range of Θ with the
    /// space dims projected out.
    pub fn time_stamps(&self, op: &TensorOp) -> Result<Set> {
        Ok(self.theta(op)?.range()?.project_out(0, self.n_space())?)
    }

    /// Checks that Θ is injective on the iteration domain: no two loop
    /// instances may occupy the same (PE | T) spacetime-stamp, because a
    /// PE performs one MAC per cycle (Section II-A).
    pub fn is_injective(&self, op: &TensorOp) -> Result<bool> {
        let theta = self.theta(op)?;
        // conflicts = Θ . Θ⁻¹ relates instances sharing a spacetime-stamp;
        // injectivity <=> conflicts ⊆ identity.
        let conflicts = theta.apply_range(&theta.reverse())?;
        let id = Map::identity(
            conflicts.space().input.clone(),
            conflicts.space().output.clone(),
        )?;
        Ok(conflicts.is_subset(&id)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gemm224() -> TensorOp {
        TensorOp::builder("gemm")
            .dim("i", 2)
            .dim("j", 2)
            .dim("k", 4)
            .read("A", ["i", "k"])
            .read("B", ["k", "j"])
            .write("Y", ["i", "j"])
            .build()
            .unwrap()
    }

    #[test]
    fn figure3_theta() {
        // Θ = { S[i,j,k] -> (PE[i,j] | T[i+j+k]) }
        let df = Dataflow::new(["i", "j"], ["i + j + k"]);
        let theta = df.theta(&gemm224()).unwrap();
        assert_eq!(theta.card().unwrap(), 16);
        // S[0,0,1], S[1,0,0], S[0,1,0] all execute at time-stamp 1.
        assert!(theta.contains_point(&[0, 0, 1, 0, 0, 1]).unwrap());
        assert!(theta.contains_point(&[1, 0, 0, 1, 0, 1]).unwrap());
        assert!(theta.contains_point(&[0, 1, 0, 0, 1, 1]).unwrap());
    }

    #[test]
    fn figure3_time_stamps() {
        let df = Dataflow::new(["i", "j"], ["i + j + k"]);
        let t = df.time_stamps(&gemm224()).unwrap();
        // i+j+k ranges over [0, 5]: six stamps.
        assert_eq!(t.card().unwrap(), 6);
    }

    #[test]
    fn figure3_used_pes() {
        let df = Dataflow::new(["i", "j"], ["i + j + k"]);
        assert_eq!(df.used_pes(&gemm224()).unwrap().card().unwrap(), 4);
    }

    #[test]
    fn injectivity() {
        let ok = Dataflow::new(["i", "j"], ["i + j + k"]);
        assert!(ok.is_injective(&gemm224()).unwrap());
        // Dropping k from the time-stamp creates conflicts.
        let bad = Dataflow::new(["i", "j"], ["i + j"]);
        assert!(!bad.is_injective(&gemm224()).unwrap());
    }

    #[test]
    fn quasi_affine_dataflow() {
        // The Section IV-A example: PE[i mod 8, j mod 8],
        // T[i/8, j/8, i mod 8 + j mod 8 + k].
        let op = TensorOp::builder("gemm")
            .dim("i", 16)
            .dim("j", 16)
            .dim("k", 4)
            .read("A", ["i", "k"])
            .read("B", ["k", "j"])
            .write("Y", ["i", "j"])
            .build()
            .unwrap();
        let df = Dataflow::new(
            ["i mod 8", "j mod 8"],
            ["floor(i/8)", "floor(j/8)", "i mod 8 + j mod 8 + k"],
        );
        assert!(df.is_injective(&op).unwrap());
        assert_eq!(df.used_pes(&op).unwrap().card().unwrap(), 64);
    }
}
