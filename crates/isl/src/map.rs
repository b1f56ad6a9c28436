//! [`Map`]: a finite union of [`BasicMap`]s over a common space, with the
//! full suite of relational operations used by TENET's performance model.

use crate::basic::{BasicMap, Row};
use crate::cache::{self, OpKind};
use crate::count;
use crate::project::eliminate_vars;
use crate::set::Set;
use crate::space::{Space, Tuple};
use crate::{Error, Result};
use std::sync::Arc;

/// A binary integer relation: a union of basic maps.
///
/// ```
/// use tenet_isl::Map;
/// let m = Map::parse("{ S[i, j] -> PE[i] : 0 <= i < 4 and 0 <= j < 3 }")?;
/// assert_eq!(m.card()?, 12);
/// # Ok::<(), tenet_isl::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Map {
    /// Shared with every disjunct's `space` where possible (see
    /// [`BasicMap`]): cloning a map then costs one `Arc` bump per
    /// disjunct instead of re-allocating every dim-name string.
    pub(crate) space: Arc<Space>,
    pub(crate) basics: Vec<BasicMap>,
}

impl Map {
    /// A map holding a single basic map.
    pub fn from_basic(bm: BasicMap) -> Map {
        Map {
            space: bm.space.clone(),
            basics: vec![bm],
        }
    }

    /// The unconstrained relation over `space`.
    pub fn universe(space: impl Into<Arc<Space>>) -> Map {
        let space = space.into();
        Map {
            space: space.clone(),
            basics: vec![BasicMap::universe(space)],
        }
    }

    /// The empty relation over `space`.
    pub fn empty(space: impl Into<Arc<Space>>) -> Map {
        Map {
            space: space.into(),
            basics: Vec::new(),
        }
    }

    /// The identity relation `{ in[x] -> out[x] }`.
    pub fn identity(input: Tuple, output: Tuple) -> Result<Map> {
        Ok(Map::from_basic(BasicMap::identity(input, output)?))
    }

    /// The union of translations `{ T[x] -> T[x + δ] }`, one disjunct per
    /// vector of `deltas` in order (repeats are dropped): the shape of
    /// TENET's spacetime-stamp maps (Definition 4). Output dims are named
    /// `_o0`, `_o1`, … as the parser names computed output entries, so the
    /// result equals what [`Map::parse`] builds from the same relation
    /// written as text. An empty `deltas` gives the empty relation.
    ///
    /// ```
    /// use tenet_isl::{Map, Tuple};
    /// let m = Map::translations(Tuple::new("ST", ["p", "t"]), &[vec![1, 1], vec![0, 1]])?;
    /// assert!(m.is_equal(&Map::parse("{ ST[p, t] -> ST[p + 1, t + 1]; ST[p, t] -> ST[p, t + 1] }")?)?);
    /// # Ok::<(), tenet_isl::Error>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`Error::SpaceMismatch`] when a vector's length differs from the
    /// tuple's arity.
    pub fn translations(tuple: Tuple, deltas: &[Vec<i64>]) -> Result<Map> {
        let n = tuple.len();
        let output = Tuple {
            name: tuple.name.clone(),
            dims: (0..n).map(|i| format!("_o{i}")).collect(),
        };
        let space = Arc::new(Space::map(tuple, output));
        let mut basics: Vec<BasicMap> = Vec::with_capacity(deltas.len());
        let mut seen = std::collections::HashSet::with_capacity(deltas.len());
        for delta in deltas {
            if delta.len() != n {
                return Err(Error::SpaceMismatch(format!(
                    "translation by {} components in a {n}-dimensional space",
                    delta.len()
                )));
            }
            if !seen.insert(delta) {
                continue;
            }
            let mut bm = BasicMap::universe(space.clone());
            for (i, &d) in delta.iter().enumerate() {
                // in_i - out_i + δ_i = 0, the parser's normal form.
                let mut row = bm.zero_row();
                row[i] = 1;
                row[n + i] = -1;
                row[2 * n] = d;
                bm.add_eq(row);
            }
            bm.simplify();
            basics.push(bm);
        }
        Ok(Map { space, basics })
    }

    /// The space of the relation.
    pub fn space(&self) -> &Space {
        &self.space
    }

    /// Number of input dimensions.
    pub fn n_in(&self) -> usize {
        self.space.n_in()
    }

    /// Number of output dimensions.
    pub fn n_out(&self) -> usize {
        self.space.n_out()
    }

    /// The disjuncts of this relation.
    pub fn basics(&self) -> &[BasicMap] {
        &self.basics
    }

    fn check_compatible(&self, other: &Map, op: &str) -> Result<()> {
        if !self.space.is_compatible(&other.space) {
            return Err(Error::SpaceMismatch(format!(
                "{op}: {} vs {}",
                self.space, other.space
            )));
        }
        Ok(())
    }

    /// Set-union of two relations over compatible spaces.
    pub fn union(&self, other: &Map) -> Result<Map> {
        self.check_compatible(other, "union")?;
        // Unioning small relations is a couple of vector pushes; only
        // unions with real bulk (quadratic duplicate scan) go through the
        // memo — same policy as `reverse`.
        if self.memo_weight() + other.memo_weight() < 32 {
            return self.union_uncached(other);
        }
        cache::memo_map(OpKind::Union, self, Some(other), 0, || {
            self.union_uncached(other)
        })
    }

    fn union_uncached(&self, other: &Map) -> Result<Map> {
        let mut basics = self.basics.clone();
        let var_map: Vec<usize> = (0..self.n_in() + self.n_out()).collect();
        for b in &other.basics {
            // Renormalize into self's space (names may differ).
            let mut nb = BasicMap::universe(self.space.clone());
            nb.import_constraints(b, &var_map)?;
            if !basics.contains(&nb) {
                basics.push(nb);
            }
        }
        Ok(Map {
            space: self.space.clone(),
            basics,
        })
    }

    /// Intersection of two relations over compatible spaces.
    pub fn intersect(&self, other: &Map) -> Result<Map> {
        self.check_compatible(other, "intersect")?;
        cache::memo_map(OpKind::Intersect, self, Some(other), 0, || {
            self.intersect_uncached(other)
        })
    }

    fn intersect_uncached(&self, other: &Map) -> Result<Map> {
        let var_map: Vec<usize> = (0..self.n_in() + self.n_out()).collect();
        let mut basics = Vec::new();
        for a in &self.basics {
            for b in &other.basics {
                let mut nb = a.clone();
                nb.import_constraints(b, &var_map)?;
                if nb.simplify() && !count::basic_is_empty(&nb)? {
                    nb.drop_unused_divs();
                    basics.push(nb);
                }
            }
        }
        Ok(Map {
            space: self.space.clone(),
            basics,
        }
        .coalesce())
    }

    /// Exact set difference `self \ other`.
    pub fn subtract(&self, other: &Map) -> Result<Map> {
        self.check_compatible(other, "subtract")?;
        cache::memo_map(OpKind::Subtract, self, Some(other), 0, || {
            self.subtract_uncached(other)
        })
    }

    fn subtract_uncached(&self, other: &Map) -> Result<Map> {
        Ok(Map {
            space: self.space.clone(),
            basics: subtract_pieces(self.basics.clone(), &other.basics)?,
        })
    }

    /// Total stored constraint rows — the cost proxy deciding whether an
    /// operation on this relation is worth a memo-table round trip.
    fn memo_weight(&self) -> usize {
        self.basics.iter().map(BasicMap::constraint_count).sum()
    }

    /// The reversed relation (`out -> in`).
    pub fn reverse(&self) -> Map {
        let compute = || {
            Ok(Map {
                space: Arc::new(self.space.reversed()),
                basics: self.basics.iter().map(BasicMap::reverse).collect(),
            })
        };
        // Reversing is a straight column swap: for small relations doing it
        // beats hashing it. Only unions with real bulk go through the memo.
        if self.memo_weight() < 32 {
            return compute().expect("reverse cannot fail");
        }
        cache::memo_map(OpKind::Reverse, self, None, 0, compute).expect("reverse cannot fail")
    }

    /// Relation composition `other ∘ self`: `{ x -> z : ∃y. self(x)=y ∧
    /// other(y)=z }` — ISL's `isl_union_map_apply_range`.
    pub fn apply_range(&self, other: &Map) -> Result<Map> {
        if self.n_out() != other.n_in() {
            return Err(Error::SpaceMismatch(format!(
                "apply_range: range {} vs domain {}",
                self.space.output, other.space.input
            )));
        }
        cache::memo_map(OpKind::ApplyRange, self, Some(other), 0, || {
            self.apply_range_uncached(other)
        })
    }

    fn apply_range_uncached(&self, other: &Map) -> Result<Map> {
        let shifts: Option<Vec<Vec<i128>>> =
            self.basics.iter().map(BasicMap::translation).collect();
        let mut basics = match shifts {
            Some(shifts) => compose_translations(&shifts, other)?,
            None => self.compose_by_elimination(other)?,
        };
        let result_space = Arc::new(Space::map(
            self.space.input.clone(),
            other.space.output.clone(),
        ));
        for b in basics.iter_mut() {
            b.space = result_space.clone();
        }
        basics.dedup();
        // Compositions through case splits and offset unions produce many
        // adjacent disjuncts; merge them so downstream set algebra stays
        // close to linear. The uncoalesced union is not interned: the
        // `ApplyRange` memo entry already serves repeats.
        Ok(crate::coalesce::coalesce_map(Map {
            space: result_space,
            basics,
        }))
    }

    /// The general composition: every pairwise product of disjuncts, with
    /// the middle tuple projected out by the [`eliminate_vars`] ladder.
    fn compose_by_elimination(&self, other: &Map) -> Result<Vec<BasicMap>> {
        let nx = self.n_in();
        let ny = self.n_out();
        let nz = other.n_out();
        let mut out_dims: Vec<String> = other.space.output.dims.clone();
        for i in 0..ny {
            out_dims.push(format!("_m{i}"));
        }
        let space = Arc::new(Space::map(
            self.space.input.clone(),
            Tuple {
                name: other.space.output.name.clone(),
                dims: out_dims,
            },
        ));
        // var maps into the combined layout [X | Z | Ymid].
        let var_map_a: Vec<usize> = (0..nx).chain(nx + nz..nx + nz + ny).collect();
        let var_map_b: Vec<usize> = (nx + nz..nx + nz + ny).chain(nx..nx + nz).collect();
        let mut basics = Vec::new();
        for a in &self.basics {
            for b in &other.basics {
                let mut comb = BasicMap::universe(space.clone());
                comb.import_constraints(a, &var_map_a)?;
                comb.import_constraints(b, &var_map_b)?;
                let targets: Vec<usize> = (nx + nz..nx + nz + ny).collect();
                basics.extend(eliminate_vars(comb, targets)?);
            }
        }
        Ok(basics)
    }

    /// Packs the project-op memo key: bit 0 distinguishes the in/out
    /// variants, `first` occupies bits 1..63 and `n` bits 63..125. Returns
    /// `None` when the arguments would not fit the layout — callers skip
    /// the cache then, instead of risking a key collision.
    fn pack_project_extra(out_dims: bool, first: usize, n: usize) -> Option<i128> {
        if first >= (1 << 62) || n >= (1 << 62) {
            return None;
        }
        Some((out_dims as i128) | ((first as i128) << 1) | ((n as i128) << 63))
    }

    /// Projects away output dimensions `[first, first + n)`.
    pub fn project_out_out(&self, first: usize, n: usize) -> Result<Map> {
        match Self::pack_project_extra(true, first, n) {
            Some(extra) => cache::memo_map(OpKind::Project, self, None, extra, || {
                self.project_out_out_uncached(first, n)
            }),
            None => self.project_out_out_uncached(first, n),
        }
    }

    fn project_out_out_uncached(&self, first: usize, n: usize) -> Result<Map> {
        let n_in = self.n_in();
        let mut space = (*self.space).clone();
        space.output.dims.drain(first..first + n);
        let space = Arc::new(space);
        let mut basics = Vec::new();
        for b in &self.basics {
            let targets: Vec<usize> = (n_in + first..n_in + first + n).collect();
            basics.extend(eliminate_vars(b.clone(), targets)?);
        }
        for b in basics.iter_mut() {
            b.space = space.clone();
        }
        basics.dedup();
        Ok(Map { space, basics })
    }

    /// Projects away input dimensions `[first, first + n)`.
    pub fn project_out_in(&self, first: usize, n: usize) -> Result<Map> {
        match Self::pack_project_extra(false, first, n) {
            Some(extra) => cache::memo_map(OpKind::Project, self, None, extra, || {
                self.project_out_in_uncached(first, n)
            }),
            None => self.project_out_in_uncached(first, n),
        }
    }

    fn project_out_in_uncached(&self, first: usize, n: usize) -> Result<Map> {
        let mut space = (*self.space).clone();
        space.input.dims.drain(first..first + n);
        let space = Arc::new(space);
        let mut basics = Vec::new();
        for b in &self.basics {
            let targets: Vec<usize> = (first..first + n).collect();
            basics.extend(eliminate_vars(b.clone(), targets)?);
        }
        for b in basics.iter_mut() {
            b.space = space.clone();
        }
        basics.dedup();
        Ok(Map { space, basics })
    }

    /// The range of the relation, as a set.
    pub fn range(&self) -> Result<Set> {
        let m = self.project_out_in(0, self.n_in())?;
        Ok(Set::from_map_unchecked(m))
    }

    /// The domain of the relation, as a set.
    pub fn domain(&self) -> Result<Set> {
        self.reverse().range()
    }

    /// Reinterprets the relation as a set over the concatenated
    /// `in ++ out` dimensions (ISL's `wrap`).
    pub fn wrap(&self) -> Set {
        let mut dims = self.space.input.dims.clone();
        dims.extend(self.space.output.dims.iter().cloned());
        let space = Arc::new(Space::set(Tuple { name: None, dims }));
        let basics = self
            .basics
            .iter()
            .map(|b| {
                let mut nb = b.clone();
                nb.space = space.clone();
                nb
            })
            .collect();
        Set::from_map_unchecked(Map { space, basics })
    }

    /// Restricts the domain to `set`.
    pub fn intersect_domain(&self, set: &Set) -> Result<Map> {
        if set.n_dim() != self.n_in() {
            return Err(Error::SpaceMismatch(format!(
                "intersect_domain: set has {} dims, domain has {}",
                set.n_dim(),
                self.n_in()
            )));
        }
        cache::memo_map(OpKind::IntersectDomain, self, Some(set.as_map()), 0, || {
            let var_map: Vec<usize> = (0..self.n_in()).collect();
            self.intersect_with_mapped(set, &var_map)
        })
    }

    /// Restricts the range to `set`.
    pub fn intersect_range(&self, set: &Set) -> Result<Map> {
        if set.n_dim() != self.n_out() {
            return Err(Error::SpaceMismatch(format!(
                "intersect_range: set has {} dims, range has {}",
                set.n_dim(),
                self.n_out()
            )));
        }
        cache::memo_map(OpKind::IntersectRange, self, Some(set.as_map()), 0, || {
            let var_map: Vec<usize> = (self.n_in()..self.n_in() + self.n_out()).collect();
            self.intersect_with_mapped(set, &var_map)
        })
    }

    fn intersect_with_mapped(&self, set: &Set, var_map: &[usize]) -> Result<Map> {
        let mut basics = Vec::new();
        for a in &self.basics {
            for b in set.as_map().basics() {
                let mut nb = a.clone();
                nb.import_constraints(b, var_map)?;
                if nb.simplify() {
                    nb.drop_unused_divs();
                    basics.push(nb);
                }
            }
        }
        Ok(Map {
            space: self.space.clone(),
            basics,
        })
    }

    /// Fixes input dimension `dim` to `val`.
    pub fn fix_in(&self, dim: usize, val: i64) -> Map {
        self.fix_col(dim, val)
    }

    /// Fixes output dimension `dim` to `val`.
    pub fn fix_out(&self, dim: usize, val: i64) -> Map {
        self.fix_col(self.n_in() + dim, val)
    }

    /// Packs the fix-op memo key: the column in bits 64..126 and the full
    /// i64 value (as its bit pattern) in bits 0..64. `None` when the
    /// column would not fit — callers skip the cache then.
    fn pack_fix_extra(col: usize, val: i64) -> Option<i128> {
        if col >= (1 << 62) {
            return None;
        }
        Some(((col as i128) << 64) | (val as u64 as i128))
    }

    fn fix_col(&self, col: usize, val: i64) -> Map {
        let compute = || Ok(self.fix_col_uncached(col, val));
        // Like `reverse`: pinning a dimension of a small relation is a
        // couple of row pushes — only bulky unions (whose disjunct clones
        // carry real weight) go through the memo. Sweeps that re-pin the
        // same stamps (max-utilization probing, DSE re-evaluation) then
        // replay the clone from the table.
        if self.memo_weight() < 32 {
            return self.fix_col_uncached(col, val);
        }
        match Self::pack_fix_extra(col, val) {
            Some(extra) => {
                cache::memo_map(OpKind::Fix, self, None, extra, compute).expect("fix cannot fail")
            }
            None => self.fix_col_uncached(col, val),
        }
    }

    fn fix_col_uncached(&self, col: usize, val: i64) -> Map {
        let basics = self
            .basics
            .iter()
            .map(|b| {
                let mut nb = b.clone();
                let mut eq = nb.zero_row();
                eq[col] = 1;
                let k = nb.konst();
                eq[k] = -val;
                nb.add_eq(eq);
                nb
            })
            .collect();
        Map {
            space: self.space.clone(),
            basics,
        }
    }

    /// Exact number of pairs in the relation.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::Unbounded`] if the relation is not bounded.
    pub fn card(&self) -> Result<u128> {
        cache::memo_count(OpKind::Card, self, 0, || self.card_uncached())
    }

    fn card_uncached(&self) -> Result<u128> {
        // Disjoint decomposition: b_i minus all earlier disjuncts.
        let mut total: u128 = 0;
        for (i, b) in self.basics.iter().enumerate() {
            for p in subtract_pieces(vec![b.clone()], &self.basics[..i])? {
                total = total
                    .checked_add(count::count_basic_owned(p)?)
                    .ok_or(Error::Overflow)?;
            }
        }
        Ok(total)
    }

    /// Whether the relation contains no pairs.
    pub fn is_empty(&self) -> Result<bool> {
        cache::memo_bool(OpKind::Empty, self, || self.is_empty_uncached())
    }

    fn is_empty_uncached(&self) -> Result<bool> {
        for b in &self.basics {
            if !count::basic_is_empty(b)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Whether `self ⊆ other`.
    pub fn is_subset(&self, other: &Map) -> Result<bool> {
        self.subtract(other)?.is_empty()
    }

    /// Whether the two relations contain exactly the same pairs.
    pub fn is_equal(&self, other: &Map) -> Result<bool> {
        Ok(self.is_subset(other)? && other.is_subset(self)?)
    }

    /// Whether the concatenated point `in ++ out` belongs to the relation.
    pub fn contains_point(&self, point: &[i64]) -> Result<bool> {
        for b in &self.basics {
            if b.contains_point(point)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Enumerates all pairs (as `in ++ out` coordinate vectors), sorted and
    /// deduplicated. Intended for small relations.
    ///
    /// # Errors
    ///
    /// Fails when more than `limit` points would be produced.
    pub fn points(&self, limit: usize) -> Result<Vec<Vec<i64>>> {
        let mut all = std::collections::BTreeSet::new();
        for b in &self.basics {
            for p in count::basic_points(b, limit)? {
                all.insert(p);
                if all.len() > limit {
                    return Err(Error::TooComplex(format!("more than {limit} points")));
                }
            }
        }
        Ok(all.into_iter().collect())
    }

    /// Merges disjuncts when their union is exactly representable as one
    /// basic map (see the patterns of the crate's `coalesce` module).
    /// Never changes the set of pairs.
    pub fn coalesce(&self) -> Map {
        if self.basics.len() <= 1 {
            // Nothing to merge; skip the memo round trip.
            return self.clone();
        }
        cache::memo_map(OpKind::Coalesce, self, None, 0, || {
            Ok(crate::coalesce::coalesce_map(self.clone()))
        })
        .expect("coalesce cannot fail")
    }

    /// The difference set `{ out - in : (in, out) ∈ self }` (ISL's
    /// `deltas`); input and output arities must match. Useful for
    /// dependence-distance and reuse-vector analysis.
    pub fn deltas(&self) -> Result<Set> {
        let n = self.n_in();
        if n != self.n_out() {
            return Err(Error::SpaceMismatch(
                "deltas requires equal input/output arities".into(),
            ));
        }
        let d_dims: Vec<String> = (0..n).map(|i| format!("d{i}")).collect();
        let mut x_dims: Vec<String> = (0..n).map(|i| format!("_x{i}")).collect();
        let mut y_dims: Vec<String> = (0..n).map(|i| format!("_y{i}")).collect();
        let mut out_dims = d_dims;
        out_dims.append(&mut x_dims);
        out_dims.append(&mut y_dims);
        let space = Arc::new(Space::set(Tuple {
            name: None,
            dims: out_dims,
        }));
        let mut basics = Vec::new();
        for b in &self.basics {
            let mut comb = BasicMap::universe(space.clone());
            // map's in dims -> x block (cols n..2n); out dims -> y block.
            let var_map: Vec<usize> = (n..2 * n).chain(2 * n..3 * n).collect();
            comb.import_constraints(b, &var_map)?;
            for i in 0..n {
                let mut eq = comb.zero_row();
                eq[i] = 1; // d_i
                eq[n + i] = 1; // + x_i
                eq[2 * n + i] = -1; // - y_i
                comb.add_eq(eq); // d = y - x
            }
            let targets: Vec<usize> = (n..3 * n).collect();
            basics.extend(crate::project::eliminate_vars(comb, targets)?);
        }
        let final_space = Arc::new(Space::set(Tuple {
            name: None,
            dims: (0..n).map(|i| format!("d{i}")).collect(),
        }));
        for b in basics.iter_mut() {
            b.space = final_space.clone();
        }
        basics.dedup();
        Ok(Set::from_map_unchecked(Map {
            space: final_space,
            basics,
        }))
    }

    /// Returns some point of the relation (as `in ++ out` coordinates), or
    /// `None` if it is empty.
    pub fn sample(&self) -> Result<Option<Vec<i64>>> {
        for b in &self.basics {
            if let Some(p) = count::basic_sample(b)? {
                return Ok(Some(p));
            }
        }
        Ok(None)
    }

    /// Whether the relation is single-valued (a partial function): no
    /// input relates to two different outputs. TENET dataflows must be
    /// single-valued — every loop instance executes on exactly one
    /// spacetime-stamp.
    ///
    /// ```
    /// use tenet_isl::Map;
    /// let f = Map::parse("{ S[i] -> T[i + 1] : 0 <= i < 4 }")?;
    /// assert!(f.is_single_valued()?);
    /// let r = Map::parse("{ S[i] -> T[j] : 0 <= i < 4 and 0 <= j < 2 }")?;
    /// assert!(!r.is_single_valued()?);
    /// # Ok::<(), tenet_isl::Error>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates failures of the underlying composition and subset
    /// tests.
    pub fn is_single_valued(&self) -> Result<bool> {
        // { o1 -> o2 : exists i, (i -> o1) in M and (i -> o2) in M } is
        // contained in the identity.
        let pairs = self.reverse().apply_range(self)?;
        let id = Map::identity(pairs.space().input.clone(), pairs.space().output.clone())?;
        pairs.is_subset(&id)
    }

    /// Whether the relation is injective: no two inputs share an output
    /// (one MAC per PE per cycle, Section II-A of the paper).
    ///
    /// # Errors
    ///
    /// Propagates failures of the underlying composition and subset
    /// tests.
    pub fn is_injective(&self) -> Result<bool> {
        // { i1 -> i2 : exists o, (i1 -> o) in M and (i2 -> o) in M } is
        // contained in the identity.
        let pairs = self.apply_range(&self.reverse())?;
        let id = Map::identity(pairs.space().input.clone(), pairs.space().output.clone())?;
        pairs.is_subset(&id)
    }

    /// Whether the relation is a bijection between its domain and range.
    ///
    /// # Errors
    ///
    /// Propagates failures of [`Map::is_single_valued`] and
    /// [`Map::is_injective`].
    pub fn is_bijective(&self) -> Result<bool> {
        Ok(self.is_single_valued()? && self.is_injective()?)
    }

    /// Renames the space (arities must match).
    pub fn with_space(&self, space: impl Into<Arc<Space>>) -> Result<Map> {
        let space = space.into();
        if !self.space.is_compatible(&space) {
            return Err(Error::SpaceMismatch(format!(
                "cannot rename {} to {}",
                self.space, space
            )));
        }
        let basics = self
            .basics
            .iter()
            .map(|b| {
                let mut nb = b.clone();
                nb.space = space.clone();
                nb
            })
            .collect();
        Ok(Map { space, basics })
    }
}

/// Composition through a union of translations `{ y -> y + δ }` by
/// substitution: each disjunct of `other` is copied with its input
/// columns unchanged and `Σ coef_i·δ_i` added to the constant of every
/// equality, inequality and div numerator — no pairwise product, no
/// elimination. Disjuncts left syntactically infeasible are dropped.
///
/// # Errors
///
/// [`Error::Overflow`] when a shifted constant leaves the `i64` range.
fn compose_translations(shifts: &[Vec<i128>], other: &Map) -> Result<Vec<BasicMap>> {
    let shift_row = |row: &mut Row, delta: &[i128]| -> Result<()> {
        let k = row.len() - 1;
        let mut c = row[k] as i128;
        for (&a, &d) in row[..delta.len()].iter().zip(delta) {
            c = (a as i128)
                .checked_mul(d)
                .and_then(|t| c.checked_add(t))
                .ok_or(Error::Overflow)?;
        }
        row[k] = i64::try_from(c).map_err(|_| Error::Overflow)?;
        Ok(())
    };
    let mut basics = Vec::with_capacity(shifts.len() * other.basics.len());
    for delta in shifts {
        for b in &other.basics {
            let mut nb = b.clone();
            for r in nb.eqs.iter_mut().chain(nb.ineqs.iter_mut()) {
                shift_row(r, delta)?;
            }
            for d in nb.divs.iter_mut() {
                shift_row(&mut d.num, delta)?;
            }
            if nb.simplify() {
                nb.drop_unused_divs();
                basics.push(nb);
            }
        }
    }
    Ok(basics)
}

/// Exact difference `pieces \ ⋃ minus` as a disjoint union of basic maps:
/// each disjunct of `minus` is cut out of every remaining piece in turn,
/// stopping early once nothing remains.
fn subtract_pieces(mut pieces: Vec<BasicMap>, minus: &[BasicMap]) -> Result<Vec<BasicMap>> {
    for c in minus {
        let mut next = Vec::new();
        for p in &pieces {
            next.extend(basic_subtract(p, c)?);
        }
        pieces = next;
        if pieces.is_empty() {
            break;
        }
    }
    Ok(pieces)
}

/// Exact difference of two basic maps as a disjoint union of basic maps.
pub(crate) fn basic_subtract(p: &BasicMap, c: &BasicMap) -> Result<Vec<BasicMap>> {
    debug_assert_eq!(p.div0(), c.div0());
    let var_map: Vec<usize> = (0..p.div0()).collect();
    let mut base = p.clone();
    let div_map = base.import_divs(c, &var_map)?;
    // Collect c's constraints as inequality rows in base's layout.
    let mut cons: Vec<Row> = Vec::new();
    for r in &c.ineqs {
        cons.push(base.translate_row(c, &var_map, &div_map, r));
    }
    for r in &c.eqs {
        let row = base.translate_row(c, &var_map, &div_map, r);
        let neg: Row = row.iter().map(|v| -v).collect();
        cons.push(row);
        cons.push(neg);
    }
    // Disjoint operands (the common case across a union of translated
    // copies): one emptiness test instead of one per cut.
    let mut meet = base.clone();
    for t in &cons {
        meet.add_ineq(t.clone());
    }
    if !meet.simplify() || count::basic_is_empty(&meet)? {
        return Ok(vec![p.clone()]);
    }
    // Progressive cut: piece_i = base ∧ c_0 ∧ ... ∧ c_{i-1} ∧ ¬c_i.
    let mut pieces = Vec::new();
    let mut cur = base;
    for t in cons {
        let mut piece = cur.clone();
        let mut neg: Row = t.iter().map(|v| -v).collect();
        let k = piece.konst();
        neg[k] -= 1;
        piece.add_ineq(neg);
        if piece.simplify() && !count::basic_is_empty(&piece)? {
            piece.drop_unused_divs();
            pieces.push(piece);
        }
        cur.add_ineq(t);
    }
    Ok(pieces)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_and_card() {
        let a = Map::parse("{ A[i] -> B[i] : 0 <= i < 4 }").unwrap();
        let b = Map::parse("{ A[i] -> B[i] : 2 <= i < 6 }").unwrap();
        let u = a.union(&b).unwrap();
        assert_eq!(u.card().unwrap(), 6);
    }

    #[test]
    fn subtract_removes_overlap() {
        let a = Map::parse("{ A[i] -> B[i] : 0 <= i < 10 }").unwrap();
        let b = Map::parse("{ A[i] -> B[i] : 3 <= i < 5 }").unwrap();
        let d = a.subtract(&b).unwrap();
        assert_eq!(d.card().unwrap(), 8);
        assert!(d.contains_point(&[2, 2]).unwrap());
        assert!(!d.contains_point(&[3, 3]).unwrap());
    }

    #[test]
    fn apply_range_composes() {
        let a = Map::parse("{ A[i] -> B[i + 1] : 0 <= i < 5 }").unwrap();
        let b = Map::parse("{ B[j] -> C[2 j] }").unwrap();
        let c = a.apply_range(&b).unwrap();
        // i -> 2(i+1) for i in [0,5)
        assert_eq!(c.card().unwrap(), 5);
        assert!(c.contains_point(&[0, 2]).unwrap());
        assert!(c.contains_point(&[4, 10]).unwrap());
        assert!(!c.contains_point(&[0, 3]).unwrap());
    }

    #[test]
    fn reverse_and_domain_range() {
        let a = Map::parse("{ A[i] -> B[i, i] : 0 <= i < 3 }").unwrap();
        let r = a.reverse();
        assert!(r.contains_point(&[1, 1, 1]).unwrap());
        let dom = a.domain().unwrap();
        assert_eq!(dom.card().unwrap(), 3);
        let rng = a.range().unwrap();
        assert_eq!(rng.card().unwrap(), 3);
    }

    #[test]
    fn wrap_counts_pairs() {
        let a = Map::parse("{ A[i] -> B[j] : 0 <= i < 2 and 0 <= j < 3 }").unwrap();
        assert_eq!(a.wrap().card().unwrap(), 6);
    }

    #[test]
    fn identity_subset() {
        let id = Map::identity(Tuple::new("A", ["x"]), Tuple::new("B", ["y"])).unwrap();
        let m = Map::parse("{ A[i] -> B[i] : 0 <= i < 7 }").unwrap();
        assert!(m.is_subset(&id).unwrap());
        let m2 = Map::parse("{ A[i] -> B[i + 1] : 0 <= i < 7 }").unwrap();
        assert!(!m2.is_subset(&id).unwrap());
    }

    #[test]
    fn card_with_mod_div() {
        let m = Map::parse("{ S[i, j] -> PE[i mod 4] : 0 <= i < 16 and 0 <= j < 2 }").unwrap();
        assert_eq!(m.card().unwrap(), 32);
        let rng = m.range().unwrap();
        assert_eq!(rng.card().unwrap(), 4);
    }

    #[test]
    fn translations_equal_the_parsed_text() {
        let t = Map::translations(
            Tuple::new("ST", ["p", "t"]),
            &[vec![1, 1], vec![0, -2], vec![1, 1]],
        )
        .unwrap();
        let parsed =
            Map::parse("{ ST[p, t] -> ST[p + 1, t + 1]; ST[p, t] -> ST[p, t - 2] }").unwrap();
        assert_eq!(t, parsed, "structurally identical, repeat dropped");
        assert!(Map::translations(Tuple::new("ST", ["p", "t"]), &[vec![1]]).is_err());
        let empty = Map::translations(Tuple::new("ST", ["p"]), &[]).unwrap();
        assert!(empty.basics().is_empty());
    }

    #[test]
    fn translation_composition_matches_the_ladder() {
        let shift = Map::parse("{ A[i, j] -> A[i + 1, j - 2]; A[i, j] -> A[i, j + 3] }").unwrap();
        assert!(shift.basics().iter().all(|b| b.translation().is_some()));
        let rel = Map::parse(
            "{ A[i, j] -> B[floor((i + 2 j)/3), j mod 2] : 0 <= i < 5 and 0 <= j < 4 \
             and (i + j) mod 3 <= 1 }",
        )
        .unwrap();
        let fast = shift.apply_range(&rel).unwrap();
        // An inequality that holds wherever `rel` does takes the ladder.
        let capped = shift
            .intersect_range(&Set::parse("{ [i, j] : i <= 4 }").unwrap())
            .unwrap();
        assert!(capped.basics().iter().all(|b| b.translation().is_none()));
        let general = capped.apply_range(&rel).unwrap();
        assert!(fast.is_equal(&general).unwrap());
        assert_eq!(fast.card().unwrap(), general.card().unwrap());
    }
}
