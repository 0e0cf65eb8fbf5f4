//! Typed errors for the mathematical-program solvers.

use std::error::Error;
use std::fmt;

use crate::CholeskyError;

/// A reachable failure of an SDP or ILP solve.
///
/// The panicking construction APIs (`add_constraint` etc.) still assert
/// on programmer errors; this type covers the failures a well-formed
/// caller can hit at solve time and the checked `try_*` entry points.
#[derive(Clone, PartialEq, Debug)]
#[non_exhaustive]
pub enum SolveError {
    /// A problem dimension does not match what the solver needs.
    Dimension {
        /// Which object was mis-sized.
        what: &'static str,
        /// The size that was provided.
        got: usize,
        /// The size that was required.
        expected: usize,
    },
    /// A matrix that must be positive definite was not.
    NotPositiveDefinite {
        /// Index of the failing pivot.
        pivot: usize,
    },
    /// Branch-and-bound exhausted its node budget with no incumbent.
    BudgetExhausted {
        /// The budget that ran out.
        budget: u64,
    },
    /// An SDP input the ADMM iteration cannot survive: a NaN or
    /// infinite cost entry, constraint coefficient, right-hand side or
    /// warm-start entry, or a penalty `rho` that is not positive and
    /// finite.
    InvalidInput {
        /// Which input was rejected.
        what: &'static str,
        /// The rejected value.
        value: f64,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Dimension {
                what,
                got,
                expected,
            } => {
                write!(f, "{what} has dimension {got}, expected {expected}")
            }
            SolveError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix is not positive definite (pivot {pivot})")
            }
            SolveError::BudgetExhausted { budget } => {
                write!(
                    f,
                    "branch-and-bound found no solution within {budget} nodes"
                )
            }
            SolveError::InvalidInput { what, value } => {
                write!(f, "invalid SDP input: {what} is {value}")
            }
        }
    }
}

impl Error for SolveError {}

impl From<CholeskyError> for SolveError {
    fn from(e: CholeskyError) -> SolveError {
        SolveError::NotPositiveDefinite { pivot: e.pivot }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_failure() {
        let e = SolveError::Dimension {
            what: "warm start z",
            got: 3,
            expected: 5,
        };
        assert!(e.to_string().contains("warm start z"));
        let e = SolveError::BudgetExhausted { budget: 10 };
        assert!(e.to_string().contains("10"));
        let e = SolveError::InvalidInput {
            what: "rho",
            value: f64::NAN,
        };
        assert_eq!(e.to_string(), "invalid SDP input: rho is NaN");
    }
}
