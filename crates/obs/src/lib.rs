//! Dependency-free observability for the layer-assignment flows.
//!
//! The crate turns the [`flow::StageObserver`] seam into a profiling
//! toolkit without adding a single external dependency or touching the
//! engines' numeric behavior (observers observe — a fully instrumented
//! run is bit-identical to an unobserved one, pinned by
//! `tests/observability.rs`):
//!
//! * [`Recorder`] ([`span`]) — a `StageObserver` that reconstructs the
//!   hierarchical span tree of a run: run → round → stage → leaf
//!   (partition extractions, solves and post-mappings and accept
//!   applications, with pool-worker thread attribution), all on one
//!   monotonic clock.
//! * [`CountingAlloc`] ([`alloc`]) — an opt-in `#[global_allocator]`
//!   wrapper counting bytes/events per thread and live/peak bytes
//!   process-wide; disabled it costs one relaxed load per call.
//! * [`EventLog`] ([`replay`]) — an order-preserving buffer of observer
//!   callbacks; racing drivers record per-backend on worker threads and
//!   replay the winner into the real observers on the driver thread.
//! * [`chrome`] — exports recorders as Chrome `trace_event` JSON for
//!   `chrome://tracing` / Perfetto.
//! * [`prom`] — exports a flat Prometheus text dump.
//! * [`stats`] — per-stage p50/p95/total rollups, the aggregation
//!   behind `cpla-bench`'s `BENCH_cpla.json`.
//!
//! See DESIGN.md §10 for the span model and allocator caveats, and the
//! README's "Profiling a run" for an end-to-end walkthrough.

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

pub mod alloc;
pub mod chrome;
pub mod prom;
pub mod replay;
pub mod span;
pub mod stats;

pub use alloc::{AllocStats, CountingAlloc, ScopedEnable};
pub use replay::{Event, EventLog};
pub use span::{Recorder, SpanKind, SpanRecord};
pub use stats::{summarize, StageSummary};
