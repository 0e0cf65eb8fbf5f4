//! Elmore delay engine for layer-assigned routing trees.
//!
//! Implements the timing model of Section 2.2 of the DAC'16 CPLA paper:
//!
//! * Segment delay (Eqn. 2): `t_s(i, l) = R_e(l) · (C_e(l)/2 + C_d(i))`
//!   where `R_e`, `C_e` are the total wire resistance/capacitance of
//!   segment `i` on layer `l` and `C_d(i)` its downstream capacitance.
//! * Via delay (Eqn. 3): `t_v = Σ R_v(l) · min{C_d(i), C_d(p)}` over the
//!   layer boundaries the via stack spans.
//!
//! Downstream capacitances are computed bottom-up (sinks to source), sink
//! delays top-down; [`NetTiming`] bundles the results for one net
//! ([`NetTiming::recompute`] reruns it into a reused scratch) and
//! [`analyze`] produces a [`TimingReport`] over a whole netlist.
//!
//! # Example
//!
//! ```
//! use grid::{Cell, Direction, GridBuilder};
//! use net::{Assignment, Net, Netlist, Pin, RouteTreeBuilder};
//! use timing::analyze;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let grid = GridBuilder::new(8, 8)
//!     .alternating_layers(4, Direction::Horizontal)
//!     .build()?;
//! let mut b = RouteTreeBuilder::new(Cell::new(0, 0));
//! let end = b.add_segment(b.root(), Cell::new(5, 0))?;
//! b.attach_pin(b.root(), 0)?;
//! b.attach_pin(end, 1)?;
//! let net = Net::new(
//!     "n",
//!     vec![Pin::source(Cell::new(0, 0), 1.0), Pin::sink(Cell::new(5, 0), 2.0)],
//!     b.build()?,
//! );
//! let mut nl = Netlist::new();
//! nl.push(net);
//! let assignment = Assignment::lowest_layers(&nl, &grid);
//! let report = analyze(&grid, &nl, &assignment);
//! assert!(report.net(0).critical_delay() > 0.0);
//! # Ok(())
//! # }
//! ```

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
#![cfg_attr(not(test), warn(clippy::float_cmp, clippy::iter_over_hash_type))]

mod elmore;
mod histogram;
mod incremental;
mod report;

pub use elmore::{segment_delay_on_layer, NetTiming};
pub use histogram::DelayHistogram;
pub use incremental::{IncrementalTiming, TimingModel};
pub use report::{analyze, analyze_nets, TimingReport};
