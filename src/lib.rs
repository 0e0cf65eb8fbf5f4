//! Umbrella crate for the CPLA reproduction workspace.
//!
//! Re-exports every subsystem crate so integration tests and examples can
//! use a single dependency. See the workspace `README.md` for the overall
//! architecture and `DESIGN.md` for the paper-to-module map.

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

pub use cpla;
pub use flow;
pub use grid;
pub use ispd;
pub use lagrange;
pub use net;
pub use portfolio;
pub use route;
pub use solver;
pub use tila;
pub use timing;
