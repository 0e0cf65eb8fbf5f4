//! CPLA: incremental layer assignment for critical path timing.
//!
//! The primary contribution of the DAC'16 paper, end to end:
//!
//! 1. **Critical net selection** ([`select_critical_nets`]) — release the
//!    top fraction of nets by worst-sink Elmore delay.
//! 2. **Self-adaptive partitioning** ([`partition`] module) — a uniform
//!    K×K division refined by quadtree subdivision until every leaf holds
//!    at most a bounded number of critical segments (paper §3.2).
//! 3. **Per-partition mathematical programs** ([`problem`] module) — the
//!    ILP of formulation (4), or its SDP relaxation (5)–(7) with
//!    edge-capacity slack rows and via-capacity penalties folded into the
//!    objective matrix `T` (paper §3.1, §3.3).
//! 4. **Post mapping** ([`mapping`] module) — Algorithm 1: walk layers
//!    top-down per edge and pick the highest relaxed `x_ij` entries
//!    within capacity, yielding an integral, capacity-aware assignment.
//! 5. **The iterative engine** ([`Cpla`]) — re-time, re-solve and accept
//!    improving rounds until convergence, in parallel over partitions.
//!
//! # Example
//!
//! ```
//! use grid::{Cell, Direction, GridBuilder};
//! use net::{NetSpec, Pin};
//! use route::{initial_assignment, route_netlist, RouterConfig};
//! use cpla::{Cpla, CplaConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut grid = GridBuilder::new(16, 16)
//!     .alternating_layers(4, Direction::Horizontal)
//!     .build()?;
//! let specs = vec![NetSpec::new(
//!     "n0",
//!     vec![Pin::source(Cell::new(0, 0), 0.0), Pin::sink(Cell::new(13, 9), 2.0)],
//! )];
//! let netlist = route_netlist(&grid, &specs, &RouterConfig::default());
//! let mut assignment = initial_assignment(&mut grid, &netlist);
//! let report = Cpla::new(CplaConfig::default())
//!     .run(&mut grid, &netlist, &mut assignment)?;
//! assert!(report.final_metrics.avg_tcp <= report.initial_metrics.avg_tcp);
//! # Ok(())
//! # }
//! ```

pub mod context;
mod engine;
mod flow;
mod frontend;
pub mod mapping;
pub mod partition;
pub mod problem;

pub use context::{timing_context, timing_context_into, SegCtx, SegCtxTable};
pub use engine::{Cpla, CplaConfig, CplaReport, PipelineStats, RoundStats, SolverKind};
// Engine-neutral pieces now live in the workspace-level `flow` crate;
// re-exported so existing `cpla::Metrics` paths keep working.
pub use ::flow::{select_critical_nets, FlowError, Metrics};
