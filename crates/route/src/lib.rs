//! Global-routing substrate.
//!
//! The paper's incremental layer assignment starts from an *initial*
//! routing and layer assignment (produced by a router such as NCTU-GR on
//! the ISPD'08 benchmarks). This crate builds that starting point from
//! scratch:
//!
//! 1. [`Router`] / [`route_netlist`] — rectilinear Steiner topology
//!    construction per net (closest-point attachment with
//!    congestion-aware L/Z pattern choice and an optional maze
//!    fallback).
//! 2. [`maze`] — a congestion-weighted shortest-path router used when
//!    pattern routes would overflow, steered by a lower bound on the
//!    full edges still to cross and returning Dijkstra's exact path.
//! 3. [`initial_assignment`] — the net-by-net dynamic-programming layer
//!    assignment in the style of congestion-constrained via-minimization
//!    (Lee & Wang, TCAD'08 — reference \[5\] of the paper), which is the
//!    baseline every incremental method refines.
//!
//! # Example
//!
//! ```
//! use grid::{Cell, Direction, GridBuilder};
//! use net::{NetSpec, Pin};
//! use route::{initial_assignment, route_netlist, RouterConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut grid = GridBuilder::new(16, 16)
//!     .alternating_layers(4, Direction::Horizontal)
//!     .build()?;
//! let specs = vec![NetSpec::new(
//!     "n0",
//!     vec![Pin::source(Cell::new(1, 1), 0.0), Pin::sink(Cell::new(9, 7), 1.0)],
//! )];
//! let netlist = route_netlist(&grid, &specs, &RouterConfig::default());
//! let assignment = initial_assignment(&mut grid, &netlist);
//! assignment.validate(&netlist, &grid)?;
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
#![cfg_attr(not(test), warn(clippy::iter_over_hash_type))]

mod initial;
pub mod maze;
mod steiner;

pub use initial::{initial_assignment, initial_assignment_with, InitialConfig};
pub use steiner::{route_netlist, CongestionMap, Router, RouterConfig, RouterStats};
