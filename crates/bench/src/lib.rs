//! Shared experiment plumbing for the table/figure regeneration binaries.
//!
//! Every experiment starts from the same prepared state — a synthetic
//! benchmark routed and initially layer-assigned — and then runs one or
//! more engines (TILA, CPLA-SDP, CPLA-ILP) from *clones* of that state so
//! comparisons are apples-to-apples, exactly as the paper releases the
//! same net set for both TILA and SDP.

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

pub mod harness;

use std::time::Instant;

use cpla::{Cpla, CplaConfig, CplaReport, Metrics};
use grid::Grid;
use ispd::SyntheticConfig;
use net::{Assignment, Netlist};
use route::{initial_assignment, route_netlist, RouterConfig};
use tila::{Tila, TilaConfig, TilaResult};

/// A benchmark after routing and initial layer assignment.
#[derive(Clone, PartialEq, Debug)]
pub struct Prepared {
    /// Benchmark name.
    pub name: String,
    /// Grid with usage reflecting `assignment`.
    pub grid: Grid,
    /// Routed nets.
    pub netlist: Netlist,
    /// Initial assignment.
    pub assignment: Assignment,
}

impl Prepared {
    /// Generates, routes and initially assigns one synthetic benchmark.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate.
    pub fn from_config(config: &SyntheticConfig) -> Prepared {
        #[expect(
            clippy::expect_used,
            reason = "the named paper benchmark configs all generate"
        )]
        let (mut grid, specs) = config.generate().expect("benchmark configs are valid");
        let netlist = route_netlist(&grid, &specs, &RouterConfig::default());
        let assignment = initial_assignment(&mut grid, &netlist);
        Prepared {
            name: config.name.clone(),
            grid,
            netlist,
            assignment,
        }
    }

    /// The released net set for a given critical ratio, from the
    /// prepared state's timing.
    pub fn released(&self, ratio: f64) -> Vec<usize> {
        cpla::select_critical_nets(&self.grid, &self.netlist, &self.assignment, ratio)
    }
}

/// One engine run's outcome.
#[derive(Clone, PartialEq, Debug)]
pub struct EngineRun {
    /// Quality metrics of the final state.
    pub metrics: Metrics,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Final per-net layer assignment (for distribution plots).
    pub assignment: Assignment,
    /// Grid usage of the final state.
    pub grid: Grid,
}

/// Runs TILA on a clone of `prepared` over `released`.
///
/// # Panics
///
/// Panics if the engine reports a flow error; experiment configs and
/// released sets come from [`Prepared`], which only produces valid ones.
pub fn run_tila(
    prepared: &Prepared,
    released: &[usize],
    config: TilaConfig,
) -> (EngineRun, TilaResult) {
    let mut grid = prepared.grid.clone();
    let mut assignment = prepared.assignment.clone();
    let start = Instant::now();
    #[expect(
        clippy::expect_used,
        reason = "`Prepared` workloads are well-formed and the paper configs validate; a flow \
                  error here is an experiment-setup bug"
    )]
    let result = Tila::new(config)
        .run(&mut grid, &prepared.netlist, &mut assignment, released)
        .expect("benchmark workloads are well-formed");
    let seconds = start.elapsed().as_secs_f64();
    let metrics = Metrics::measure(&grid, &prepared.netlist, &assignment, released);
    (
        EngineRun {
            metrics,
            seconds,
            assignment,
            grid,
        },
        result,
    )
}

/// Runs CPLA on a clone of `prepared` over `released`.
///
/// # Panics
///
/// Panics if the engine reports a flow error; experiment configs and
/// released sets come from [`Prepared`], which only produces valid ones.
pub fn run_cpla(
    prepared: &Prepared,
    released: &[usize],
    config: CplaConfig,
) -> (EngineRun, CplaReport) {
    let mut grid = prepared.grid.clone();
    let mut assignment = prepared.assignment.clone();
    let start = Instant::now();
    #[expect(
        clippy::expect_used,
        reason = "`Prepared` workloads are well-formed and the paper configs validate; a flow \
                  error here is an experiment-setup bug"
    )]
    let report = Cpla::new(config)
        .run_released(&mut grid, &prepared.netlist, &mut assignment, released)
        .expect("benchmark workloads are well-formed");
    let seconds = start.elapsed().as_secs_f64();
    let metrics = Metrics::measure(&grid, &prepared.netlist, &assignment, released);
    (
        EngineRun {
            metrics,
            seconds,
            assignment,
            grid,
        },
        report,
    )
}

/// Collects every sink delay of the released nets under a final state
/// (the Fig. 1 distribution).
pub fn released_sink_delays(run: &EngineRun, netlist: &Netlist, released: &[usize]) -> Vec<f64> {
    timing::analyze_nets(
        &run.grid,
        netlist,
        &run.assignment,
        released.iter().copied(),
    )
    .all_sink_delays()
}

/// Formats one row of a fixed-width report table.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Parses benchmark names from CLI args; defaults to `fallback` when no
/// args are given. Unknown names abort with a message listing the valid
/// set.
#[expect(
    clippy::print_stderr,
    reason = "CLI-arg helper for the bench binaries; usage errors go straight to the terminal"
)]
#[expect(
    clippy::exit,
    reason = "aborting a bench run on a bad benchmark name is the whole point of this helper"
)]
pub fn benchmarks_from_args(fallback: &[&str]) -> Vec<SyntheticConfig> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<String> = if args.is_empty() {
        fallback.iter().map(|s| s.to_string()).collect()
    } else {
        args
    };
    names
        .iter()
        .map(|n| {
            SyntheticConfig::named(n).unwrap_or_else(|| {
                eprintln!(
                    "unknown benchmark `{n}`; valid: {}",
                    SyntheticConfig::all_paper_benchmarks()
                        .iter()
                        .map(|c| c.name.as_str())
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                std::process::exit(2);
            })
        })
        .collect()
}
