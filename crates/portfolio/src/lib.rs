//! Racing portfolio over [`LayerAssigner`] backends.
//!
//! Complementary engines (the DAC'16 CPLA pipeline, the ICCAD'15 TILA
//! baseline, the Lagrangian dual-ascent engine, the greedy floor) have
//! very different latency/quality profiles per instance. [`Race`] runs
//! every backend on its own clone of the instance, on scoped threads,
//! and lands the single best result:
//!
//! * **Judging is finish-order independent.** Every backend runs to
//!   completion (no first-past-the-post), each final state is scored
//!   by one shared priced objective ([`priced_score`]: whole-design
//!   `Avg(T_cp)` plus a prohibitive charge on overflow added beyond
//!   the input), and ties break by backend position. A clean race is
//!   therefore bit-deterministic for a fixed instance regardless of
//!   thread scheduling.
//! * **Failure is cooperative.** A backend error trips the shared
//!   [`Cancel`] flag so cancellable peers cut their losses; after the
//!   join the first error in backend order is propagated (position,
//!   not wall clock, so the error surface is deterministic too).
//! * **Observability survives the threads.** Each backend records its
//!   [`StageObserver`] callbacks into a private [`EventLog`] on its
//!   own thread; the driver replays the winner's log into the caller's
//!   observers afterwards, preserving the no-synchronization observer
//!   contract. Per-backend logs stay available on [`RaceOutcome`].
//!
//! See DESIGN.md §14 for the race semantics and the cross-assigner
//! invariants the conformance suite pins over this crate.

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

use flow::{Cancel, FlowError, FlowReport, LayerAssigner, StageObserver};
use grid::Grid;
use net::{Assignment, Netlist};
use obs::EventLog;

/// Priced whole-design score every raced backend is judged by: average
/// critical delay over all nets, plus `50 · input-Avg(T_cp)` per unit
/// of wire/via overflow added beyond the input's. Lower is better.
///
/// The overflow charge mirrors the engines' own incumbent pricing: a
/// backend can never win by trading feasibility for delay.
pub fn priced_score(
    grid: &Grid,
    netlist: &Netlist,
    assignment: &Assignment,
    input: &Baseline,
) -> f64 {
    let avg = timing::analyze(grid, netlist, assignment).avg_critical_delay();
    let extra = grid
        .total_wire_overflow()
        .saturating_sub(input.wire_overflow)
        + grid.total_via_overflow().saturating_sub(input.via_overflow);
    avg + 50.0 * input.avg_tcp.max(1e-12) * extra as f64
}

/// The input state a race judges against.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Baseline {
    /// Whole-design average critical delay at entry.
    pub avg_tcp: f64,
    /// Total wire overflow at entry.
    pub wire_overflow: u64,
    /// Total via overflow at entry.
    pub via_overflow: u64,
}

impl Baseline {
    /// Measures the baseline of an instance (grid usage must reflect
    /// `assignment`).
    pub fn measure(grid: &Grid, netlist: &Netlist, assignment: &Assignment) -> Baseline {
        Baseline {
            avg_tcp: timing::analyze(grid, netlist, assignment).avg_critical_delay(),
            wire_overflow: grid.total_wire_overflow(),
            via_overflow: grid.total_via_overflow(),
        }
    }
}

/// What one backend produced in a race.
#[derive(Clone, Debug)]
pub struct Lane {
    /// The backend's stable name.
    pub name: &'static str,
    /// The backend's report (its released set, metrics and rounds).
    pub report: FlowReport,
    /// The backend's priced whole-design score.
    pub score: f64,
    /// The backend's buffered observer callbacks.
    pub log: EventLog,
}

/// Outcome of a clean race: every lane's result plus the winner index.
#[derive(Clone, Debug)]
pub struct RaceOutcome {
    /// Index of the winning backend (into the lanes / the backend vec).
    pub winner: usize,
    /// Per-backend results, in backend order.
    pub lanes: Vec<Lane>,
    /// The input baseline the scores were judged against.
    pub baseline: Baseline,
}

/// The racing driver. Assemble with the backends in *precedence
/// order* — ties in the priced score and simultaneous errors both
/// resolve to the earliest backend.
pub struct Race {
    backends: Vec<Box<dyn LayerAssigner + Send + Sync>>,
    cancel: Cancel,
}

impl Race {
    /// A race over `backends`, with a fresh cancellation flag.
    pub fn new(backends: Vec<Box<dyn LayerAssigner + Send + Sync>>) -> Race {
        Race::with_cancel(backends, Cancel::new())
    }

    /// A race sharing an externally created cancellation flag. Create
    /// the flag first, wire clones into the cancellable backends, then
    /// assemble: an error in any lane trips `cancel` for all of them.
    pub fn with_cancel(
        backends: Vec<Box<dyn LayerAssigner + Send + Sync>>,
        cancel: Cancel,
    ) -> Race {
        Race { backends, cancel }
    }

    /// The race's shared cancellation flag. Wire clones of this into
    /// cancellable backends (e.g. `Lagrange::cancellable`) before
    /// boxing them, so an error in one lane cuts the others short; the
    /// caller can also trip it to stop the whole race early.
    pub fn cancel_flag(&self) -> Cancel {
        self.cancel.clone()
    }

    /// Number of assembled backends.
    pub fn len(&self) -> usize {
        self.backends.len()
    }

    /// Whether no backend is assembled.
    pub fn is_empty(&self) -> bool {
        self.backends.is_empty()
    }

    /// Races every backend on its own clone of the instance and lands
    /// the winner's state in `grid`/`assignment`.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Input`] for an empty portfolio; any lane
    /// error is propagated after all lanes join — the *first in
    /// backend order*, so the error surface is deterministic.
    pub fn run(
        &self,
        grid: &mut Grid,
        netlist: &Netlist,
        assignment: &mut Assignment,
    ) -> Result<RaceOutcome, FlowError> {
        if self.backends.is_empty() {
            return Err(FlowError::Input(flow::InputError::ShapeMismatch {
                detail: "race portfolio has no backends".to_string(),
            }));
        }
        let baseline = Baseline::measure(grid, netlist, assignment);

        let input_grid: &Grid = grid;
        let input_assignment: &Assignment = assignment;
        let cancel = &self.cancel;
        // One lane per backend: clone the instance inside the spawn
        // body (thread-local working state), record observer callbacks
        // into a thread-local EventLog, and hand everything back
        // through the join.
        type LaneResult = (Result<FlowReport, FlowError>, Grid, Assignment, EventLog);
        let results: Vec<LaneResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .backends
                .iter()
                .map(|backend| {
                    scope.spawn(move || {
                        let mut lane_grid = input_grid.clone();
                        let mut lane_assignment = input_assignment.clone();
                        let mut log = EventLog::new();
                        let result = backend.assign_observed(
                            &mut lane_grid,
                            netlist,
                            &mut lane_assignment,
                            &mut [&mut log],
                        );
                        if result.is_err() {
                            // sync: tripping the shared flag is the one
                            // cross-lane effect; peers only ever read it
                            // at round boundaries (relaxed is enough).
                            cancel.cancel();
                        }
                        (result, lane_grid, lane_assignment, log)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    // invariant: lane panics are propagated (resume_unwind
                    // below), never swallowed into a bogus race result.
                    h.join().unwrap_or_else(|e| std::panic::resume_unwind(e))
                })
                .collect()
        });

        // First error in backend order wins the error race.
        let mut lanes = Vec::with_capacity(results.len());
        for (result, lane_grid, lane_assignment, log) in results {
            let report = result?;
            let score = priced_score(&lane_grid, netlist, &lane_assignment, &baseline);
            lanes.push((report, lane_grid, lane_assignment, log, score));
        }

        // Strictly-better-or-earlier wins: total_cmp is a total order,
        // and `<` keeps the earliest of equal scores.
        let mut winner = 0;
        for (i, lane) in lanes.iter().enumerate().skip(1) {
            if lane.4.total_cmp(&lanes[winner].4) == std::cmp::Ordering::Less {
                winner = i;
            }
        }

        let outcome_lanes: Vec<Lane> = lanes
            .iter()
            .map(|(report, _, _, log, score)| Lane {
                name: report.assigner,
                report: report.clone(),
                score: *score,
                log: log.clone(),
            })
            .collect();
        let (_, win_grid, win_assignment, _, _) = lanes.swap_remove(winner);
        *grid = win_grid;
        *assignment = win_assignment;

        Ok(RaceOutcome {
            winner,
            lanes: outcome_lanes,
            baseline,
        })
    }
}

impl LayerAssigner for Race {
    fn name(&self) -> &'static str {
        "race"
    }

    fn config_description(&self) -> String {
        let names: Vec<&str> = self.backends.iter().map(|b| b.name()).collect();
        format!("race: [{}] judged by priced Avg(T_cp)", names.join(", "))
    }

    fn assign_observed(
        &self,
        grid: &mut Grid,
        netlist: &Netlist,
        assignment: &mut Assignment,
        observers: &mut [&mut dyn StageObserver],
    ) -> Result<FlowReport, FlowError> {
        let outcome = self.run(grid, netlist, assignment)?;
        let winner = &outcome.lanes[outcome.winner];
        winner.log.replay_into(observers);
        Ok(winner.report.clone())
    }
}

#[cfg(test)]
mod tests;
