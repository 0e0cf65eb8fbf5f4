//! 3-D global-routing grid graph.
//!
//! This crate models the routing fabric that layer assignment operates on:
//! a stack of unidirectional metal layers over a 2-D array of rectangular
//! tiles (the *grid*), with
//!
//! * per-layer, per-edge **wire capacities** (how many routed wires may
//!   cross a tile boundary on a given layer), and
//! * per-tile, per-layer **via capacities** derived from the wire
//!   capacities of the adjacent edges (Eqn. (1) of the DAC'16 CPLA paper).
//!
//! The grid also tracks current **usage** (wires per edge per layer, vias
//! per tile per layer) so that incremental layer assignment can compute
//! residual capacities and overflow counts.
//!
//! # Example
//!
//! ```
//! use grid::{Direction, GridBuilder};
//!
//! # fn main() -> Result<(), grid::BuildGridError> {
//! let grid = GridBuilder::new(8, 8)
//!     .alternating_layers(4, Direction::Horizontal)
//!     .uniform_capacity(10)
//!     .build()?;
//! assert_eq!(grid.num_layers(), 4);
//! assert_eq!(grid.layer(0).direction, Direction::Horizontal);
//! assert_eq!(grid.layer(1).direction, Direction::Vertical);
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

mod builder;
mod error;
mod geom;
mod grid;
mod layer;

pub use builder::GridBuilder;
pub use error::{BuildGridError, GridError};
pub use geom::{Cell, Direction, Edge2d};
pub use grid::{EdgeRun, Grid, UsageSnapshot};
pub use layer::Layer;
