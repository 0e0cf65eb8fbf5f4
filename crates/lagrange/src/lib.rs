//! Critical-path-weighted Lagrangian-relaxation layer assignment.
//!
//! The portfolio's third engine, in the spirit of ParaLarH: the
//! capacity rows of the paper's formulation — Eqn. (4c) edge capacities
//! and Eqn. (4d) via capacities — are dualized into per-edge and
//! per-via-cell multipliers `λ`, and the engine alternates
//!
//! 1. an **exact primal step**: with `λ` fixed and downstream
//!    capacitances frozen, the Lagrangian decomposes per net and each
//!    net is minimized exactly by a bottom-up tree DP
//!    ([`Relaxation::minimize`], parallel over nets, bit-identical at
//!    every thread count);
//! 2. a **projected subgradient dual step**: `λ ← max(0, λ + step·g)`
//!    on the capacity violations, with a pluggable diminishing step
//!    schedule ([`StepDecay`]).
//!
//! Where TILA (the ICCAD'15 baseline) weighs every segment equally,
//! this engine scales each released net's delay terms by a
//! *criticality weight* `(T_net / T_max)^focus` frozen at entry — the
//! critical path dominates the objective, matching the paper's
//! Avg(T_cp) target rather than the sum-of-delays surrogate.
//!
//! The relaxation keeps honest books: [`LagrangeResult`] reports the
//! best dual bound seen, a final-context dual/primal pair for which
//! weak duality `dual ≤ primal` holds exactly whenever the output fits
//! the charged capacities, and the minimum multiplier (dual
//! feasibility). The property suite sweeps random lattices and seeds
//! over these invariants.

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

mod relax;

pub use flow::Multipliers;
pub use relax::Relaxation;

use flow::{
    Cancel, ConfigError, FlowCounters, FlowError, FlowReport, LayerAssigner, Metrics,
    RoundSnapshot, Stage, StageObserver,
};
use grid::Grid;
use net::{Assignment, Netlist};
use std::time::Instant;
use timing::{NetTiming, TimingModel};

/// Diminishing step-size schedule of the subgradient ascent.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum StepDecay {
    /// `step_k = step/k` — the classic divergent-series schedule.
    Harmonic,
    /// `step_k = step/√k` — slower decay, more exploration.
    SqrtHarmonic,
    /// `step_k = step·ratio^(k-1)` — geometric cooling.
    Geometric {
        /// Per-round multiplier, in `(0, 1]`.
        ratio: f64,
    },
}

impl StepDecay {
    /// The multiplier applied to the base step in round `k` (1-based).
    pub fn factor(self, k: usize) -> f64 {
        match self {
            StepDecay::Harmonic => 1.0 / k as f64,
            StepDecay::SqrtHarmonic => 1.0 / (k as f64).sqrt(),
            StepDecay::Geometric { ratio } => ratio.powi(k as i32 - 1),
        }
    }

    /// Stable lower-case name (used in config descriptions).
    pub fn name(self) -> &'static str {
        match self {
            StepDecay::Harmonic => "harmonic",
            StepDecay::SqrtHarmonic => "sqrt-harmonic",
            StepDecay::Geometric { .. } => "geometric",
        }
    }
}

/// Tunables of the Lagrangian engine.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct LagrangeConfig {
    /// Outer subgradient rounds.
    pub rounds: usize,
    /// Base subgradient step, in units of (average segment delay) per
    /// unit of violation; [`StepDecay`] shrinks it per round.
    pub step_scale: f64,
    /// The step schedule.
    pub decay: StepDecay,
    /// Extra multiplicative weight on via-capacity rows.
    pub via_weight: f64,
    /// Criticality exponent: net `k` weighs `(T_k / T_max)^focus`.
    /// `0` reduces to uniform weights (TILA's objective shape).
    pub focus: f64,
    /// Threads for the per-net DP fan-out (bit-identical results at
    /// every value).
    pub threads: usize,
    /// Fraction of nets released when running as a [`LayerAssigner`];
    /// [`Lagrange::run`] callers pass an explicit released set.
    pub critical_ratio: f64,
}

impl Default for LagrangeConfig {
    fn default() -> LagrangeConfig {
        LagrangeConfig {
            rounds: 10,
            step_scale: 0.5,
            decay: StepDecay::Harmonic,
            via_weight: 1.0,
            focus: 1.0,
            threads: 1,
            critical_ratio: 0.005,
        }
    }
}

impl LagrangeConfig {
    /// Checks every field the engine cannot tolerate, before any work.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] naming the first offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        flow::validate_ratio("critical_ratio", self.critical_ratio)?;
        if !self.step_scale.is_finite() || self.step_scale < 0.0 {
            return Err(ConfigError {
                field: "step_scale",
                value: format!("{}", self.step_scale),
                reason: "the subgradient step scale must be finite and non-negative",
            });
        }
        if let StepDecay::Geometric { ratio } = self.decay {
            if !ratio.is_finite() || ratio <= 0.0 || ratio > 1.0 {
                return Err(ConfigError {
                    field: "decay",
                    value: format!("geometric ratio {ratio}"),
                    reason: "the geometric cooling ratio must lie in (0, 1]",
                });
            }
        }
        if !self.via_weight.is_finite() || self.via_weight < 0.0 {
            return Err(ConfigError {
                field: "via_weight",
                value: format!("{}", self.via_weight),
                reason: "the via-violation weight must be finite and non-negative",
            });
        }
        if !self.focus.is_finite() || self.focus < 0.0 {
            return Err(ConfigError {
                field: "focus",
                value: format!("{}", self.focus),
                reason: "the criticality exponent must be finite and non-negative",
            });
        }
        if self.threads == 0 {
            return Err(ConfigError {
                field: "threads",
                value: "0".to_string(),
                reason: "the DP fan-out needs at least one thread",
            });
        }
        Ok(())
    }
}

/// Outcome of one Lagrangian run, with the duality accounting the
/// property suite audits.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct LagrangeResult {
    /// Criticality-weighted critical-delay sum at entry.
    pub initial_objective: f64,
    /// The incumbent's objective at exit (never worse than priced
    /// entry).
    pub final_objective: f64,
    /// Best dual value seen across rounds (each in its own frozen
    /// context; reported for ascent diagnostics).
    pub best_dual_bound: f64,
    /// Dual value `g(λ_final)` evaluated in the *final* frozen context.
    pub final_dual_bound: f64,
    /// Surrogate primal `f(x_final)` in the same final context; weak
    /// duality guarantees `final_dual_bound ≤ final_primal_surrogate`
    /// whenever [`LagrangeResult::final_relaxation_feasible`].
    pub final_primal_surrogate: f64,
    /// Whether the final assignment fits the charged capacities.
    pub final_relaxation_feasible: bool,
    /// Smallest multiplier at exit (projection keeps this ≥ 0 — dual
    /// feasibility).
    pub min_multiplier: f64,
    /// Rounds executed (may stop early on cancellation).
    pub rounds_run: usize,
}

/// The Lagrangian engine. Construct once, then [`Lagrange::run`].
#[derive(Clone, Debug, Default)]
pub struct Lagrange {
    config: LagrangeConfig,
    cancel: Cancel,
}

impl Lagrange {
    /// Creates an engine with the given configuration.
    pub fn new(config: LagrangeConfig) -> Lagrange {
        Lagrange {
            config,
            cancel: Cancel::new(),
        }
    }

    /// [`Lagrange::new`] with a shared cancellation flag, checked at
    /// round boundaries: a cancelled run keeps its best incumbent so
    /// far and returns normally.
    pub fn cancellable(config: LagrangeConfig, cancel: Cancel) -> Lagrange {
        Lagrange { config, cancel }
    }

    /// The active configuration.
    pub fn config(&self) -> &LagrangeConfig {
        &self.config
    }

    /// Optimizes the `released` nets in place. `grid` usage must
    /// reflect `assignment` on entry; on exit it reflects the updated
    /// assignment, with non-released nets untouched.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Config`] for an invalid configuration and
    /// [`FlowError::Input`] when the released set or assignment does
    /// not match the netlist.
    pub fn run(
        &self,
        grid: &mut Grid,
        netlist: &Netlist,
        assignment: &mut Assignment,
        released: &[usize],
    ) -> Result<LagrangeResult, FlowError> {
        self.run_observed(grid, netlist, assignment, released, &mut [])
    }

    /// [`Lagrange::run`] with [`StageObserver`]s attached. Each round
    /// emits Solve (per-net DPs + dual step), Accept (legalization) and
    /// Measure (incumbent bookkeeping) stage spans plus one
    /// [`RoundSnapshot`] whose objective is the criticality-weighted
    /// critical-delay sum.
    ///
    /// # Errors
    ///
    /// See [`Lagrange::run`].
    pub fn run_observed(
        &self,
        grid: &mut Grid,
        netlist: &Netlist,
        assignment: &mut Assignment,
        released: &[usize],
        observers: &mut [&mut dyn StageObserver],
    ) -> Result<LagrangeResult, FlowError> {
        self.config.validate()?;
        flow::validate_input(netlist, assignment, released)?;

        // One timing scratch serves every per-net pass of the run.
        let mut timing = NetTiming::default();
        // Criticality weights, frozen at entry: the slowest released
        // net weighs 1, the rest fall off as (T/T_max)^focus.
        let entry_delays: Vec<f64> = released
            .iter()
            .map(|&i| {
                timing.recompute(grid, netlist.net(i), assignment.net_layers(i));
                timing.critical_delay()
            })
            .collect();
        let t_max = entry_delays.iter().copied().fold(0.0f64, f64::max);
        let weights: Vec<f64> = entry_delays
            .iter()
            .map(|&d| {
                if t_max > 0.0 && d > 0.0 {
                    (d / t_max).powf(self.config.focus)
                } else {
                    1.0
                }
            })
            .collect();

        let objective = |g: &Grid, a: &Assignment, t: &mut NetTiming| -> f64 {
            released
                .iter()
                .zip(&weights)
                .map(|(&i, &w)| {
                    t.recompute(g, netlist.net(i), a.net_layers(i));
                    w * t.critical_delay()
                })
                .sum()
        };
        let initial_objective = objective(grid, assignment, &mut timing);

        let released_segments: usize = released
            .iter()
            .map(|&i| netlist.net(i).tree().num_segments())
            .sum();
        let mut result = LagrangeResult {
            initial_objective,
            final_objective: initial_objective,
            best_dual_bound: f64::NEG_INFINITY,
            final_dual_bound: f64::NEG_INFINITY,
            final_primal_surrogate: 0.0,
            final_relaxation_feasible: false,
            min_multiplier: 0.0,
            rounds_run: 0,
        };
        if released_segments == 0 {
            return Ok(result);
        }

        let delay_scale = (initial_objective / released_segments as f64).max(1e-12);
        // Incumbent pricing: wire or via overflow added beyond the
        // input is charged prohibitively, so the engine never trades
        // feasibility for delay.
        let initial_wire_overflow = grid.total_wire_overflow();
        let initial_via_overflow = grid.total_via_overflow();
        let overflow_penalty = 50.0 * delay_scale;
        let penalized = |g: &Grid, obj: f64| -> f64 {
            let extra = g
                .total_wire_overflow()
                .saturating_sub(initial_wire_overflow)
                + g.total_via_overflow().saturating_sub(initial_via_overflow);
            obj + overflow_penalty * extra as f64
        };
        let mut best_penalized = initial_objective;
        let mut best_layers: Vec<Vec<usize>> = released
            .iter()
            .map(|&i| assignment.net_layers(i).to_vec())
            .collect();

        let mut lambda = Multipliers::zeros(grid);
        let model = TimingModel::from_grid(grid);
        // The round's minimizer output: the released nets' layers back
        // to back, in released order.
        let mut layers = vec![0; released_segments];

        for round in 1..=self.config.rounds {
            if self.cancel.is_cancelled() {
                break;
            }
            result.rounds_run = round;

            // Solve: remove the released nets, freeze the context,
            // minimize the Lagrangian exactly, restore, ascend λ.
            for obs in observers.iter_mut() {
                obs.on_stage_start(round, Stage::Solve);
            }
            let solve_t = Instant::now();
            for &i in released {
                net::remove_net_from_grid(grid, netlist.net(i), assignment.net_layers(i));
            }
            {
                let frozen: Vec<&[usize]> =
                    released.iter().map(|&i| assignment.net_layers(i)).collect();
                let relax = Relaxation::new(grid, netlist, released, &frozen, &weights);
                let minimized = relax.minimize(&lambda, self.config.threads, &mut layers);
                let dual = relax.dual_value_from(&lambda, minimized);
                if dual > result.best_dual_bound {
                    result.best_dual_bound = dual;
                }
            }
            let mut rest = layers.as_slice();
            for &i in released {
                let net = netlist.net(i);
                let (new_layers, tail) = rest.split_at(net.tree().num_segments());
                net::restore_net_to_grid(grid, net, new_layers);
                assignment.net_layers_mut(i).copy_from_slice(new_layers);
                rest = tail;
            }
            let step = self.config.step_scale * delay_scale * self.config.decay.factor(round);
            lambda.subgradient_step(grid, step, self.config.via_weight);
            let solve_secs = solve_t.elapsed().as_secs_f64();
            for obs in observers.iter_mut() {
                obs.on_stage_end(round, Stage::Solve, solve_secs);
            }

            // Accept: greedy repair of any wire overflow the iterate
            // left behind.
            for obs in observers.iter_mut() {
                obs.on_stage_start(round, Stage::Accept);
            }
            let accept_t = Instant::now();
            flow::legalize(grid, netlist, assignment, released, &model);
            let accept_secs = accept_t.elapsed().as_secs_f64();
            for obs in observers.iter_mut() {
                obs.on_stage_end(round, Stage::Accept, accept_secs);
            }

            // Measure: judge the priced incumbent.
            for obs in observers.iter_mut() {
                obs.on_stage_start(round, Stage::Measure);
            }
            let measure_t = Instant::now();
            let obj = objective(grid, assignment, &mut timing);
            let pen = penalized(grid, obj);
            let improved = pen < best_penalized;
            if improved {
                best_penalized = pen;
                result.final_objective = obj;
                for (slot, &i) in best_layers.iter_mut().zip(released) {
                    slot.copy_from_slice(assignment.net_layers(i));
                }
            }
            let measure_secs = measure_t.elapsed().as_secs_f64();
            for obs in observers.iter_mut() {
                obs.on_stage_end(round, Stage::Measure, measure_secs);
            }
            let snapshot = RoundSnapshot {
                round,
                objective: obj,
                improved,
                counters: FlowCounters::default(),
            };
            for obs in observers.iter_mut() {
                obs.on_round_end(&snapshot);
            }
        }

        // Restore the best assignment seen (subgradient ascent is not
        // monotone in the primal).
        for (layers, &i) in best_layers.iter().zip(released) {
            if layers.as_slice() != assignment.net_layers(i) {
                let net = netlist.net(i);
                net::remove_net_from_grid(grid, net, assignment.net_layers(i));
                net::restore_net_to_grid(grid, net, layers);
                assignment.set_net_layers(i, layers.clone());
            }
        }

        // Final-context duality audit: freeze one last context at the
        // incumbent and evaluate both sides of the weak-duality
        // inequality under it.
        for (&i, layers) in released.iter().zip(&best_layers) {
            net::remove_net_from_grid(grid, netlist.net(i), layers);
        }
        {
            let relax = Relaxation::new(grid, netlist, released, &best_layers, &weights);
            result.final_primal_surrogate = relax.primal_value(&best_layers);
            result.final_dual_bound = relax.dual_value(&lambda, self.config.threads);
            result.final_relaxation_feasible = relax.charged_feasible(&best_layers);
        }
        for (&i, layers) in released.iter().zip(&best_layers) {
            net::restore_net_to_grid(grid, netlist.net(i), layers);
        }
        result.min_multiplier = lambda.min();

        Ok(result)
    }
}

impl LayerAssigner for Lagrange {
    fn name(&self) -> &'static str {
        "lagrange"
    }

    fn config_description(&self) -> String {
        let c = &self.config;
        format!(
            "lagrange: dual-ascent rounds<={} step_scale={} decay={} via_weight={} focus={} threads={} ratio={}",
            c.rounds,
            c.step_scale,
            c.decay.name(),
            c.via_weight,
            c.focus,
            c.threads,
            c.critical_ratio
        )
    }

    fn assign_observed(
        &self,
        grid: &mut Grid,
        netlist: &Netlist,
        assignment: &mut Assignment,
        observers: &mut [&mut dyn StageObserver],
    ) -> Result<FlowReport, FlowError> {
        self.config.validate()?;
        let released =
            flow::select_critical_nets(grid, netlist, assignment, self.config.critical_ratio);
        let initial_metrics = Metrics::measure(grid, netlist, assignment, &released);
        let result = self.run_observed(grid, netlist, assignment, &released, observers)?;
        let final_metrics = Metrics::measure(grid, netlist, assignment, &released);
        Ok(FlowReport {
            assigner: "lagrange",
            released,
            initial_metrics,
            final_metrics,
            rounds: result.rounds_run,
        })
    }
}

#[cfg(test)]
mod tests;
