//! Error type for the modeling layer.

use std::fmt;

/// Errors produced while building relations or evaluating the model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The underlying integer-set machinery failed.
    Isl(tenet_isl::Error),
    /// The workload, dataflow, and architecture are inconsistent
    /// (e.g. dimension mismatches or out-of-bounds PE coordinates).
    Invalid(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Isl(e) => write!(f, "integer-set error: {e}"),
            Error::Invalid(m) => write!(f, "invalid model: {m}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Isl(e) => Some(e),
            Error::Invalid(_) => None,
        }
    }
}

impl From<tenet_isl::Error> for Error {
    /// The model builds its relations from parts, so a parse error can only
    /// come from a user-written name or expression: invalid input.
    fn from(e: tenet_isl::Error) -> Self {
        match e {
            tenet_isl::Error::Parse(m) => Error::Invalid(m),
            e => Error::Isl(e),
        }
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Floor division helper shared by the window expansion.
pub(crate) fn div_floor(a: i64, b: i64) -> i64 {
    let q = a / b;
    if (a % b != 0) && ((a < 0) != (b < 0)) {
        q - 1
    } else {
        q
    }
}

/// Ceiling division helper shared by the window expansion.
pub(crate) fn div_ceil(a: i64, b: i64) -> i64 {
    let q = a / b;
    if (a % b != 0) && ((a < 0) == (b < 0)) {
        q + 1
    } else {
        q
    }
}
