//! ISPD'08 global-routing benchmarks: parsing, writing and synthesis.
//!
//! The paper evaluates on the ISPD'08 global-routing benchmark suite
//! (adaptec/bigblue/newblue). Those files are not redistributable, so
//! this crate provides both halves of the substitution documented in
//! `DESIGN.md` §2:
//!
//! * [`parse`] / [`write`](fn@write) — the actual ISPD'08 text format, so real
//!   benchmark files can be dropped in when available;
//! * [`SyntheticConfig`] — a deterministic generator producing designs
//!   with the same statistical shape (net count, pin-count distribution,
//!   locality mix, congestion level), with named scaled-down
//!   configurations for all 15 benchmarks of the paper's Table 2.
//!
//! # Example
//!
//! ```
//! use ispd::SyntheticConfig;
//!
//! let config = SyntheticConfig::named("adaptec1").expect("known benchmark");
//! let (grid, specs) = config.generate().expect("valid config");
//! assert!(specs.len() > 100);
//! assert_eq!(grid.num_layers(), 6);
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

mod format;
mod synthetic;

pub use format::{
    parse, parse_with, write, IspdDesign, ParseError, ParseErrorKind, ParseIspdError,
};
pub use synthetic::SyntheticConfig;
