//! A steady end-to-end and per-layer benchmark of the `cpla-cli
//! optimize` path.
//!
//! Each run writes its workload's designs as ISPD'08 files (untimed),
//! then repeats passes of `ispd::parse` → `IspdDesign::to_grid` →
//! `route::route_netlist` → `route::initial_assignment` →
//! `LayerAssigner::assign` over every design, checks every output
//! outside the timed intervals, and reports medians across passes.
//! See `README.md` next to this crate for the workloads and metrics.

pub mod host;
pub mod run;
pub mod summary;
pub mod trace;
pub mod workload;
