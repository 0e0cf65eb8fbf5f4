//! The typed error hierarchy of the flow seam.
//!
//! [`FlowError`] is what every [`LayerAssigner`](crate::LayerAssigner)
//! entry point returns: one enum wrapping the per-crate error types, so
//! front ends can match on the failure class (and map each class to a
//! distinct exit code) without knowing which backend ran. Everything is
//! hand-rolled `Display`/`Error` — the workspace builds offline with no
//! error-handling dependencies.

use std::error::Error;
use std::fmt;

use grid::GridError;
use ispd::ParseError;
use solver::SolveError;

/// An invalid engine configuration value, detected before any work runs.
#[derive(Clone, PartialEq, Debug)]
pub struct ConfigError {
    /// Name of the offending configuration field.
    pub field: &'static str,
    /// The rejected value, rendered for the message.
    pub value: String,
    /// Why the value is unusable.
    pub reason: &'static str,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "config field `{}` = {} is invalid: {}",
            self.field, self.value, self.reason
        )
    }
}

impl Error for ConfigError {}

/// The runtime inputs (netlist/assignment/released set) do not fit
/// together.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum InputError {
    /// A released net index does not name a net.
    ReleasedIndexOutOfRange {
        /// The offending index.
        index: usize,
        /// Number of nets in the netlist.
        nets: usize,
    },
    /// The assignment's shape does not match the netlist.
    ShapeMismatch {
        /// Human-readable description of the first mismatch.
        detail: String,
    },
}

impl fmt::Display for InputError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InputError::ReleasedIndexOutOfRange { index, nets } => {
                write!(f, "released net {index} out of range ({nets} nets)")
            }
            InputError::ShapeMismatch { detail } => {
                write!(f, "assignment/netlist mismatch: {detail}")
            }
        }
    }
}

impl Error for InputError {}

/// A violated solution invariant, caught by the runtime audit gate.
///
/// Each variant names one of the paper's feasibility constraints (Eqn.
/// 4b–4d) or the incremental-timing consistency contract, and carries
/// both the recorded (cached/tallied) and the recounted (from-scratch)
/// value so the drift is visible in the message. Produced by
/// `audit::check_solution` when `CplaConfig::audit_invariants` is on.
#[derive(Clone, PartialEq, Debug)]
#[non_exhaustive]
pub enum InvariantError {
    /// Eqn. (4b): a segment is off-grid or on a wrong-direction layer.
    Assignment {
        /// Human-readable description of the first violation.
        detail: String,
    },
    /// Eqn. (4c): the grid's wire-usage tally for one edge disagrees
    /// with a from-scratch recount over the netlist.
    WireUsage {
        /// Layer of the mismatching edge.
        layer: usize,
        /// The edge, rendered for the message.
        edge: String,
        /// Usage the grid has recorded.
        recorded: u32,
        /// Usage recounted from the assignment.
        recounted: u32,
    },
    /// Eqn. (4c): the total wire-overflow figure disagrees with a
    /// recount.
    WireOverflow {
        /// Overflow the grid reports.
        recorded: u64,
        /// Overflow recounted from the assignment.
        recounted: u64,
    },
    /// Eqn. (4d): the grid's via-usage tally for one cell/layer
    /// disagrees with a recount of every net's via stacks.
    ViaUsage {
        /// The cell, rendered for the message.
        cell: String,
        /// Layer the vias pass through.
        layer: usize,
        /// Usage the grid has recorded.
        recorded: u32,
        /// Usage recounted from the assignment.
        recounted: u32,
    },
    /// Eqn. (4d): the total via-overflow figure (the paper's `Vo`)
    /// disagrees with a recount.
    ViaOverflow {
        /// Overflow the grid reports.
        recorded: u64,
        /// Overflow recounted from the assignment.
        recounted: u64,
    },
    /// The grid's running via count (the paper's `via#`) disagrees with
    /// `Σ (hi − lo)` over every net's via stacks.
    ViaCount {
        /// Via count the grid reports.
        recorded: u64,
        /// Via count recounted from the assignment.
        recounted: u64,
    },
    /// The incremental timing cache drifted from a from-scratch Elmore
    /// recompute beyond tolerance.
    TimingDrift {
        /// Index of the net whose timing drifted.
        net: usize,
        /// Which cached quantity drifted.
        quantity: &'static str,
        /// The incrementally maintained value.
        cached: f64,
        /// The from-scratch value.
        recomputed: f64,
    },
}

impl fmt::Display for InvariantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantError::Assignment { detail } => {
                write!(f, "assignment invariant (4b) violated: {detail}")
            }
            InvariantError::WireUsage {
                layer,
                edge,
                recorded,
                recounted,
            } => write!(
                f,
                "wire-usage invariant (4c) violated: layer {layer} edge {edge} \
                 records {recorded} wires, recount finds {recounted}"
            ),
            InvariantError::WireOverflow {
                recorded,
                recounted,
            } => write!(
                f,
                "wire-overflow invariant (4c) violated: grid reports {recorded}, \
                 recount finds {recounted}"
            ),
            InvariantError::ViaUsage {
                cell,
                layer,
                recorded,
                recounted,
            } => write!(
                f,
                "via-usage invariant (4d) violated: cell {cell} layer {layer} \
                 records {recorded} vias, recount finds {recounted}"
            ),
            InvariantError::ViaOverflow {
                recorded,
                recounted,
            } => write!(
                f,
                "via-overflow invariant (4d) violated: grid reports Vo = {recorded}, \
                 recount finds {recounted}"
            ),
            InvariantError::ViaCount {
                recorded,
                recounted,
            } => write!(
                f,
                "via-count invariant violated: grid reports via# = {recorded}, \
                 recount finds {recounted}"
            ),
            InvariantError::TimingDrift {
                net,
                quantity,
                cached,
                recomputed,
            } => write!(
                f,
                "incremental timing drift on net {net}: cached {quantity} = {cached:e}, \
                 from-scratch recompute = {recomputed:e}"
            ),
        }
    }
}

impl Error for InvariantError {}

/// Any failure a layer-assignment flow can surface, by class.
///
/// Each variant wraps the typed error of the subsystem that failed;
/// `source()` exposes the inner error for chains, and the CLI maps each
/// variant to a distinct process exit code.
#[derive(Clone, PartialEq, Debug)]
#[non_exhaustive]
pub enum FlowError {
    /// Grid construction or capacity-model failure.
    Grid(GridError),
    /// Mathematical-program solver failure.
    Solve(SolveError),
    /// Benchmark-file parse failure.
    Parse(ParseError),
    /// Invalid engine configuration.
    Config(ConfigError),
    /// Inconsistent runtime inputs.
    Input(InputError),
    /// A solution invariant violated mid-flow (runtime audit gate).
    Invariant(InvariantError),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Grid(e) => write!(f, "grid error: {e}"),
            FlowError::Solve(e) => write!(f, "solver error: {e}"),
            FlowError::Parse(e) => write!(f, "parse error: {e}"),
            FlowError::Config(e) => write!(f, "config error: {e}"),
            FlowError::Input(e) => write!(f, "input error: {e}"),
            FlowError::Invariant(e) => write!(f, "invariant error: {e}"),
        }
    }
}

impl Error for FlowError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FlowError::Grid(e) => Some(e),
            FlowError::Solve(e) => Some(e),
            FlowError::Parse(e) => Some(e),
            FlowError::Config(e) => Some(e),
            FlowError::Input(e) => Some(e),
            FlowError::Invariant(e) => Some(e),
        }
    }
}

impl From<GridError> for FlowError {
    fn from(e: GridError) -> FlowError {
        FlowError::Grid(e)
    }
}

impl From<SolveError> for FlowError {
    fn from(e: SolveError) -> FlowError {
        FlowError::Solve(e)
    }
}

impl From<ParseError> for FlowError {
    fn from(e: ParseError) -> FlowError {
        FlowError::Parse(e)
    }
}

impl From<ConfigError> for FlowError {
    fn from(e: ConfigError) -> FlowError {
        FlowError::Config(e)
    }
}

impl From<InputError> for FlowError {
    fn from(e: InputError) -> FlowError {
        FlowError::Input(e)
    }
}

impl From<InvariantError> for FlowError {
    fn from(e: InvariantError) -> FlowError {
        FlowError::Invariant(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_carry_the_class_and_detail() {
        let e = FlowError::Config(ConfigError {
            field: "critical_ratio",
            value: "2.5".into(),
            reason: "must lie in 0..=1",
        });
        let msg = e.to_string();
        assert!(msg.starts_with("config error:"), "{msg}");
        assert!(msg.contains("critical_ratio"), "{msg}");
        assert!(e.source().is_some());
    }

    #[test]
    fn invariant_error_names_the_constraint() {
        let e: FlowError = InvariantError::ViaOverflow {
            recorded: 3,
            recounted: 5,
        }
        .into();
        let msg = e.to_string();
        assert!(msg.starts_with("invariant error:"), "{msg}");
        assert!(msg.contains("4d"), "{msg}");
        assert!(msg.contains("Vo = 3"), "{msg}");
        assert!(e.source().is_some());
        let drift = InvariantError::TimingDrift {
            net: 7,
            quantity: "critical delay",
            cached: 1.0,
            recomputed: 2.0,
        };
        assert!(drift.to_string().contains("net 7"));
    }

    #[test]
    fn input_error_wraps_via_from() {
        let e: FlowError = InputError::ReleasedIndexOutOfRange { index: 9, nets: 3 }.into();
        assert!(matches!(e, FlowError::Input(_)));
        assert!(e.to_string().contains("9"));
    }
}
