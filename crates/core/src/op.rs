//! Tensor operations: perfectly nested loops with a single statement and
//! affine tensor accesses (Section II-B of the paper).

use crate::{Error, Result};
use tenet_isl::{Map, Set, Tuple};

/// Whether a tensor access reads an input or writes the output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// The tensor is read by the statement.
    Input,
    /// The tensor is produced (accumulated) by the statement.
    Output,
}

/// One loop dimension with inclusive-exclusive integer bounds `[lo, hi)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopDim {
    /// Iterator name as used in access expressions.
    pub name: String,
    /// Inclusive lower bound.
    pub lo: i64,
    /// Exclusive upper bound.
    pub hi: i64,
}

impl LoopDim {
    /// Number of iterations of this loop.
    pub fn extent(&self) -> i64 {
        (self.hi - self.lo).max(0)
    }
}

/// One tensor access: tensor name, role, and one affine index expression
/// per tensor dimension (e.g. `["c", "ox + rx", "oy + ry"]`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TensorAccess {
    /// Tensor name (`A`, `B`, `Y`, ...).
    pub tensor: String,
    /// Input or output.
    pub role: Role,
    /// Affine index expressions over the loop iterators.
    pub exprs: Vec<String>,
}

/// A tensor operation: a perfectly nested loop with one statement
/// (Section II-B). Example — the paper's Figure 3 GEMM:
///
/// ```
/// use tenet_core::TensorOp;
/// let gemm = TensorOp::builder("gemm")
///     .dim("i", 2)
///     .dim("j", 2)
///     .dim("k", 4)
///     .read("A", ["i", "k"])
///     .read("B", ["k", "j"])
///     .write("Y", ["i", "j"])
///     .build()?;
/// assert_eq!(gemm.instances()?, 16);
/// # Ok::<(), tenet_core::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TensorOp {
    name: String,
    dims: Vec<LoopDim>,
    accesses: Vec<TensorAccess>,
    /// The access function of every tensor, in first-access order: the
    /// union over that tensor's accesses (Equation 1), built once by
    /// [`TensorOpBuilder::build`].
    access_maps: Vec<(String, Map)>,
}

/// Builder for [`TensorOp`] (see [`TensorOp::builder`]).
#[derive(Debug, Clone)]
pub struct TensorOpBuilder {
    name: String,
    dims: Vec<LoopDim>,
    accesses: Vec<TensorAccess>,
}

impl TensorOpBuilder {
    /// Adds a loop `0 <= name < extent`.
    pub fn dim(mut self, name: &str, extent: i64) -> Self {
        self.dims.push(LoopDim {
            name: name.to_string(),
            lo: 0,
            hi: extent,
        });
        self
    }

    /// Adds a loop `lo <= name < hi`.
    pub fn dim_range(mut self, name: &str, lo: i64, hi: i64) -> Self {
        self.dims.push(LoopDim {
            name: name.to_string(),
            lo,
            hi,
        });
        self
    }

    /// Adds an input tensor access.
    pub fn read<S: Into<String>, I: IntoIterator<Item = S>>(
        mut self,
        tensor: &str,
        exprs: I,
    ) -> Self {
        self.accesses.push(TensorAccess {
            tensor: tensor.to_string(),
            role: Role::Input,
            exprs: exprs.into_iter().map(Into::into).collect(),
        });
        self
    }

    /// Adds an output tensor access.
    pub fn write<S: Into<String>, I: IntoIterator<Item = S>>(
        mut self,
        tensor: &str,
        exprs: I,
    ) -> Self {
        self.accesses.push(TensorAccess {
            tensor: tensor.to_string(),
            role: Role::Output,
            exprs: exprs.into_iter().map(Into::into).collect(),
        });
        self
    }

    /// Validates and builds the operation.
    ///
    /// # Errors
    ///
    /// Fails when the loop nest is empty, dimension names collide, a loop
    /// or tensor name is not an identifier, a loop has an empty range, or
    /// an access expression is not one affine expression in the
    /// iterators.
    pub fn build(self) -> Result<TensorOp> {
        let mut op = TensorOp {
            name: self.name,
            dims: self.dims,
            accesses: self.accesses,
            access_maps: Vec::new(),
        };
        if op.dims.is_empty() {
            return Err(Error::Invalid("a tensor op needs at least one loop".into()));
        }
        for (i, d) in op.dims.iter().enumerate() {
            if op.dims[..i].iter().any(|e| e.name == d.name) {
                return Err(Error::Invalid(format!("duplicate loop name `{}`", d.name)));
            }
            if d.hi <= d.lo {
                return Err(Error::Invalid(format!(
                    "loop `{}` has empty range [{}, {})",
                    d.name, d.lo, d.hi
                )));
            }
        }
        op.domain()?;
        let (domain, bounds) = op.domain_box();
        for a in &op.accesses {
            let m = Map::affine_on_box(&domain, &bounds, &a.tensor, &a.exprs)?;
            match op.access_maps.iter_mut().find(|(t, _)| *t == a.tensor) {
                Some((_, prev)) => *prev = prev.union(&m)?,
                None => op.access_maps.push((a.tensor.clone(), m)),
            }
        }
        Ok(op)
    }
}

impl TensorOp {
    /// Starts building a tensor operation.
    pub fn builder(name: &str) -> TensorOpBuilder {
        TensorOpBuilder {
            name: name.to_string(),
            dims: Vec::new(),
            accesses: Vec::new(),
        }
    }

    /// The operation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The loop dimensions, outermost first.
    pub fn dims(&self) -> &[LoopDim] {
        &self.dims
    }

    /// All tensor accesses of the statement.
    pub fn accesses(&self) -> &[TensorAccess] {
        &self.accesses
    }

    /// The distinct tensor names with the given role.
    pub fn tensors(&self, role: Role) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for a in &self.accesses {
            if a.role == role && !out.contains(&a.tensor.as_str()) {
                out.push(&a.tensor);
            }
        }
        out
    }

    /// The statement tuple `S[i, j, …]` and each loop's `[lo, hi)`.
    pub(crate) fn domain_box(&self) -> (Tuple, Vec<(i64, i64)>) {
        let names = self.dims.iter().map(|d| d.name.as_str());
        let bounds = self.dims.iter().map(|d| (d.lo, d.hi)).collect();
        (Tuple::new("S", names), bounds)
    }

    /// The iteration domain `D_S` as an integer set.
    pub fn domain(&self) -> Result<Set> {
        let (tuple, bounds) = self.domain_box();
        Ok(Set::from_box(&tuple, &bounds)?)
    }

    /// Number of loop instances `sum(D_S)` (equals the number of MACs).
    pub fn instances(&self) -> Result<u128> {
        Ok(self.dims.iter().map(|d| d.extent() as u128).product())
    }

    /// The combined access function of tensor `name`: the union over all
    /// of the statement's accesses to that tensor (Equation 1).
    pub fn access_map(&self, name: &str) -> Result<Map> {
        self.access_maps
            .iter()
            .find(|(t, _)| t == name)
            .map(|(_, m)| m.clone())
            .ok_or_else(|| Error::Invalid(format!("unknown tensor `{name}`")))
    }

    /// The role of tensor `name` (an output access wins if both exist).
    pub fn role_of(&self, name: &str) -> Option<Role> {
        let mut role = None;
        for a in &self.accesses {
            if a.tensor == name {
                if a.role == Role::Output {
                    return Some(Role::Output);
                }
                role = Some(a.role);
            }
        }
        role
    }

    /// The data footprint of tensor `name`: the set of distinct elements
    /// touched by the whole computation.
    pub fn footprint(&self, name: &str) -> Result<Set> {
        Ok(self.access_map(name)?.range()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv1d() -> TensorOp {
        // The Figure 1 kernel: Y[i] += A[i+j] * B[j], 0<=i<4, 0<=j<3.
        TensorOp::builder("conv1d")
            .dim("i", 4)
            .dim("j", 3)
            .read("A", ["i + j"])
            .read("B", ["j"])
            .write("Y", ["i"])
            .build()
            .unwrap()
    }

    #[test]
    fn domain_cardinality() {
        let op = conv1d();
        assert_eq!(op.instances().unwrap(), 12);
        assert_eq!(op.domain().unwrap().card().unwrap(), 12);
    }

    #[test]
    fn access_map_matches_paper() {
        // A_{S,Y} = { S[i,j] -> Y[i] } (Section II-B).
        let op = conv1d();
        let m = op.access_map("Y").unwrap();
        assert!(m.contains_point(&[2, 1, 2]).unwrap());
        assert!(!m.contains_point(&[2, 1, 3]).unwrap());
    }

    #[test]
    fn footprint_sizes() {
        let op = conv1d();
        assert_eq!(op.footprint("A").unwrap().card().unwrap(), 6); // i+j in [0,5]
        assert_eq!(op.footprint("B").unwrap().card().unwrap(), 3);
        assert_eq!(op.footprint("Y").unwrap().card().unwrap(), 4);
    }

    #[test]
    fn roles() {
        let op = conv1d();
        assert_eq!(op.role_of("A"), Some(Role::Input));
        assert_eq!(op.role_of("Y"), Some(Role::Output));
        assert_eq!(op.role_of("Z"), None);
        assert_eq!(op.tensors(Role::Input), vec!["A", "B"]);
    }

    #[test]
    fn duplicate_dim_rejected() {
        let r = TensorOp::builder("bad").dim("i", 4).dim("i", 2).build();
        assert!(r.is_err());
    }

    #[test]
    fn stencil_union_access() {
        let op = TensorOp::builder("jacobi")
            .dim_range("i", 1, 7)
            .dim_range("j", 1, 7)
            .read("A", ["i", "j"])
            .read("A", ["i - 1", "j"])
            .read("A", ["i + 1", "j"])
            .read("A", ["i", "j - 1"])
            .read("A", ["i", "j + 1"])
            .write("Y", ["i", "j"])
            .build()
            .unwrap();
        // Footprint of A is the 8x8 grid minus the four corners, which no
        // cross-shaped stencil access can reach.
        assert_eq!(op.footprint("A").unwrap().card().unwrap(), 60);
    }
}
