//! The workspace-level flow seam.
//!
//! Every layer-assignment engine in the workspace (the DAC'16 CPLA
//! engine, the ICCAD'15 TILA baseline, and whatever sharded/GPU backend
//! comes next) plugs into three shared abstractions defined here:
//!
//! * [`LayerAssigner`] — the backend trait: a named, configurable engine
//!   that rewrites an [`Assignment`] in place and reports what it did.
//!   The CLI, `cpla-bench` and the table/figure binaries all dispatch
//!   through it, so adding a backend never touches a front end.
//! * [`FlowError`] — the typed error hierarchy wrapping the per-crate
//!   errors ([`GridError`], [`SolveError`], [`ParseError`],
//!   [`ConfigError`], [`InputError`]); reachable failures return these
//!   instead of panicking.
//! * [`StageObserver`] — per-stage instrumentation hooks threaded
//!   through the stage drivers; wall-time stats and JSON-lines tracing
//!   are both observers rather than engine branches.
//!
//! The crate also hosts the engine-neutral pieces every backend shares:
//! the Table-2 quality [`Metrics`], [`select_critical_nets`], the
//! cooperative [`Cancel`] flag racing drivers hand to their backends,
//! the [`Greedy`] longest-path baseline — the trait's own reference
//! implementation and the portfolio's latency floor — and what TILA and
//! Lagrange share: the dual [`Multipliers`], the exact per-net tree DP
//! [`NetDp`] and the [`legalize`] wire-overflow sweep.

// Lint policy: DESIGN.md §8. An exception is `#[expect(clippy::…, reason = "…")]` at its site.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::exit
)]
#![cfg_attr(not(test), warn(clippy::iter_over_hash_type))]

mod cancel;
mod dp;
mod error;
mod greedy;
mod instance;
mod legalize;
mod metrics;
mod observer;
mod select;

pub use cancel::Cancel;
pub use dp::{Multipliers, NetDp};
pub use error::{ConfigError, FlowError, InputError, InvariantError};
pub use greedy::{Greedy, GreedyConfig, GreedyResult};
pub use grid::GridError;
pub use instance::Instance;
pub use ispd::ParseError;
pub use legalize::legalize;
pub use solver::SolveError;

pub use metrics::Metrics;
pub use observer::{FlowCounters, LeafSpan, RoundSnapshot, Stage, StageObserver};
pub use select::{select_critical_nets, validate_ratio};

use grid::Grid;
use net::{Assignment, Netlist};

/// Outcome of one [`LayerAssigner::assign`] call, engine-neutral.
#[derive(Clone, PartialEq, Debug)]
pub struct FlowReport {
    /// Name of the backend that produced this report.
    pub assigner: &'static str,
    /// Indices of the released (re-optimized) nets, most critical first.
    pub released: Vec<usize>,
    /// Quality metrics over the released set before optimization.
    pub initial_metrics: Metrics,
    /// Quality metrics over the released set after optimization.
    pub final_metrics: Metrics,
    /// Outer rounds executed.
    pub rounds: usize,
}

/// A pluggable layer-assignment backend.
///
/// Implementations rewrite `assignment` in place (and keep `grid` usage
/// consistent with it), releasing a critical subset of nets chosen from
/// their own configuration. Malformed configurations or inputs surface
/// as [`FlowError`] — `assign` must not panic on reachable failures.
pub trait LayerAssigner {
    /// Short stable identifier (e.g. `"cpla"`, `"tila"`), used by CLI
    /// dispatch and trace records.
    fn name(&self) -> &'static str;

    /// One-line human-readable description of the active configuration.
    fn config_description(&self) -> String;

    /// Runs the engine with observers attached; the required method.
    ///
    /// Observers receive [`StageObserver`] callbacks as the engine
    /// passes its stage boundaries. Engines without an internal stage
    /// pipeline emit at least [`StageObserver::on_round_end`].
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Config`] for invalid configurations,
    /// [`FlowError::Input`] when `assignment` does not match
    /// `netlist`/`grid`, and forwards solver/grid failures.
    fn assign_observed(
        &self,
        grid: &mut Grid,
        netlist: &Netlist,
        assignment: &mut Assignment,
        observers: &mut [&mut dyn StageObserver],
    ) -> Result<FlowReport, FlowError>;

    /// Runs the engine without instrumentation.
    ///
    /// # Errors
    ///
    /// See [`LayerAssigner::assign_observed`].
    fn assign(
        &self,
        grid: &mut Grid,
        netlist: &Netlist,
        assignment: &mut Assignment,
    ) -> Result<FlowReport, FlowError> {
        self.assign_observed(grid, netlist, assignment, &mut [])
    }
}

/// Cheap shape validation shared by backend entry points: every released
/// index must name a net and the assignment must cover the netlist.
///
/// # Errors
///
/// Returns [`InputError`] describing the first mismatch.
pub fn validate_input(
    netlist: &Netlist,
    assignment: &Assignment,
    released: &[usize],
) -> Result<(), InputError> {
    if assignment.num_nets() != netlist.len() {
        return Err(InputError::ShapeMismatch {
            detail: format!(
                "assignment covers {} nets, netlist has {}",
                assignment.num_nets(),
                netlist.len()
            ),
        });
    }
    for &i in released {
        if i >= netlist.len() {
            return Err(InputError::ReleasedIndexOutOfRange {
                index: i,
                nets: netlist.len(),
            });
        }
        let n = netlist.net(i).tree().num_segments();
        if assignment.net_layers(i).len() != n {
            return Err(InputError::ShapeMismatch {
                detail: format!(
                    "net {i} has {n} segments but {} assigned layers",
                    assignment.net_layers(i).len()
                ),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid::{Cell, Direction, GridBuilder};
    use net::{NetSpec, Pin};

    #[test]
    fn validate_input_flags_out_of_range_release() {
        let mut grid = GridBuilder::new(8, 8)
            .alternating_layers(4, Direction::Horizontal)
            .build()
            .unwrap();
        let specs = vec![NetSpec::new(
            "n0",
            vec![
                Pin::source(Cell::new(0, 0), 0.0),
                Pin::sink(Cell::new(4, 4), 1.0),
            ],
        )];
        let netlist = route_like(&grid, &specs);
        let assignment = net::Assignment::lowest_layers(&netlist, &grid);
        net::apply_to_grid(&mut grid, &netlist, &assignment);
        assert!(validate_input(&netlist, &assignment, &[0]).is_ok());
        let err = validate_input(&netlist, &assignment, &[7]).unwrap_err();
        assert!(matches!(
            err,
            InputError::ReleasedIndexOutOfRange { index: 7, nets: 1 }
        ));
    }

    // Minimal router stand-in: a single L-shaped tree per two-pin net,
    // enough for shape checks without depending on the `route` crate.
    fn route_like(_grid: &grid::Grid, specs: &[NetSpec]) -> Netlist {
        let mut nl = Netlist::new();
        for s in specs {
            let src = s.pins[0].cell;
            let snk = s.pins[1].cell;
            let mut b = net::RouteTreeBuilder::new(src);
            let bend = Cell::new(snk.x, src.y);
            let mid = if bend == src {
                b.root()
            } else {
                b.add_segment(b.root(), bend).unwrap()
            };
            let end = if snk == bend {
                mid
            } else {
                b.add_segment(mid, snk).unwrap()
            };
            b.attach_pin(b.root(), 0).unwrap();
            b.attach_pin(end, 1).unwrap();
            nl.push(net::Net::new(
                s.name.clone(),
                s.pins.clone(),
                b.build().unwrap(),
            ));
        }
        nl
    }
}
