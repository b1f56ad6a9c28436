//! # tenet-isl
//!
//! A from-scratch integer set library (Presburger sets and relations)
//! providing the substrate that the original TENET implementation obtained
//! from ISL and the Barvinok counting library.
//!
//! The crate models **bounded, non-parametric** integer sets and binary
//! relations constrained by affine equalities/inequalities over integer
//! variables, extended with *div* columns (`floor(expr/d)`) so that
//! quasi-affine dataflows (`i mod 8`, `floor(i/8)`) are first-class.
//!
//! Supported operations mirror the ISL entry points cited in the paper
//! (Section V-C):
//!
//! | paper / ISL                      | here                       |
//! |----------------------------------|----------------------------|
//! | `isl_union_map` structures       | [`Map`], [`Set`]           |
//! | `isl_union_map_reverse`          | [`Map::reverse`]           |
//! | `isl_union_map_apply_range`      | [`Map::apply_range`]       |
//! | `isl_union_map_card` + Barvinok  | [`Map::card`], [`Set::card`] |
//! | intersection / subtraction      | [`Map::intersect`], [`Map::subtract`] |
//!
//! # Example
//!
//! The Figure 3 dataflow of the paper, directly in its notation:
//!
//! ```
//! use tenet_isl::Map;
//!
//! let theta = Map::parse(
//!     "{ S[i,j,k] -> PE[i, j] : 0 <= i < 2 and 0 <= j < 2 and 0 <= k < 4 }",
//! )?;
//! assert_eq!(theta.card()?, 16);
//! let pes = theta.range()?;
//! assert_eq!(pes.card()?, 4);
//! # Ok::<(), tenet_isl::Error>(())
//! ```
//!
//! # Exactness
//!
//! Every operation is exact: projection uses equality substitution,
//! modular reduction, unit-coefficient Fourier–Motzkin and (for bounded
//! variables) finite splitting; counting uses bijective equality
//! elimination, independent-component factoring, closed forms, and
//! enumeration with bound propagation. Unbounded sets are rejected with
//! [`Error::Unbounded`] rather than silently approximated.
//!
//! # Performance layer
//!
//! Five mechanisms make the substrate fast without giving up exactness:
//!
//! * **Inline constraint rows, shared spaces.** Rows are a small-vector
//!   type (`row::Row`) storing up to 16 coefficients inline: TENET
//!   relations rarely exceed that many columns, so row copies are
//!   `memcpy`s and the hot paths allocate almost nothing. Rows hash and
//!   compare element-wise, giving [`BasicMap`] and [`Map`] cheap
//!   structural equality and hashing. Spaces (the dim-name tuples) are
//!   shared behind `Arc`, so cloning a relation — which every memo round
//!   trip does — never re-allocates a string.
//!
//! * **A shared operation memo ([`cache`]).** `reverse`, `apply_range`,
//!   `intersect`, `subtract`, projection, `card`, `is_empty` and
//!   `coalesce` consult a process-wide, thread-safe memo table keyed by
//!   *interned* operand relations. Interning compares keys with full
//!   structural equality (never hash alone), so a hit replays exactly the
//!   value the uncached computation would produce — results are
//!   bit-identical by construction, which the `tests/fastpath.rs`
//!   property suite verifies end to end. DSE sweeps, whose candidates
//!   share access maps and intermediate relations, amortize nearly all
//!   relational work this way (observed hit rates are above 95%).
//!
//! * **Closed-form counting shortcuts.** Before recursing, the counter
//!   normalizes the system and dispatches the dominant shapes directly:
//!   functional mod/floor windows are projected away with an exact
//!   multiplicative factor, axis-aligned boxes multiply interval widths,
//!   box ∩ halfspace/slab prisms (skewed time-stamps) reduce to
//!   Euclidean floor-sums in `O(log)` per closed-form dimension, and
//!   two-variable projections and chains close by a pair series or a
//!   value-table DP. Shapes outside these families (slabs in two or more
//!   directions included) fall back to the exact recursive enumerator;
//!   nothing is approximated. Dispatches are counted by the same
//!   mechanism as memo lookups: [`fast_path_stats`] reads the
//!   process-wide root, a [`CounterHandle`] the slice of one run, so CI
//!   can assert the shortcuts are actually taken.
//!
//! * **Relations built, not printed.** [`Map::affine_on_box`] and
//!   [`Set::from_box`] assemble a relation from tuple names, box bounds
//!   and one expression per output dim through the parser's own
//!   normal form, so TENET's Θ, access maps and PE box are never
//!   formatted as text and re-parsed, and parsing needs no memo.
//!
//! * **Composition by substitution.** TENET's spacetime-stamp maps are
//!   unions of pure translations `ST[x] -> ST[x + δ]` (built directly by
//!   [`Map::translations`], never as text). [`Map::apply_range`] detects a
//!   left operand of that shape and composes by shifting the constants of
//!   the right operand's rows by `Σ coef_i·δ_i` — no pairwise product and
//!   no projection ladder — with checked arithmetic that reports
//!   [`Error::Overflow`] instead of wrapping. Every other composition
//!   takes the general elimination path.

#![warn(missing_docs)]

mod basic;
pub mod cache;
mod coalesce;
mod count;
mod error;
mod fmt;
mod gist;
mod lexopt;
mod map;
mod parse;
mod project;
mod row;
mod set;
mod space;
pub mod value;

pub use basic::{BasicMap, DivDef};
pub use cache::{fast_path_stats, AttachGuard, CacheStats, CounterHandle};
pub use count::CountStats;
pub use error::{Error, Result};
pub use map::Map;
pub use set::Set;
pub use space::{Space, Tuple};
