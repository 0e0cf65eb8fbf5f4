//! TILA: timing-driven incremental layer assignment by Lagrangian
//! relaxation.
//!
//! A reimplementation of the paper's comparison baseline (Yu et al.,
//! ICCAD'15, reference \[4\]). TILA minimizes the **weighted sum of segment
//! delays** of a released net set, subject to edge and via capacities,
//! via Lagrangian relaxation:
//!
//! * capacity constraints are dualized into per-edge and per-via-cell
//!   multipliers `λ`;
//! * with fixed `λ`, each net decomposes and is solved exactly by a
//!   bottom-up dynamic program over its routing tree (layer per segment);
//! * multipliers are updated by a projected subgradient step on the
//!   capacity violations, with a diminishing step size.
//!
//! The contrast the paper draws (and that `cpla` exploits) is the
//! objective: TILA's *sum*-of-delays can leave the worst path of a net
//! long even as the total shrinks, and its multiplier updates depend on
//! initialization (shortcomings (1) and (2) in the paper's Section 1).
//!
//! # Example
//!
//! ```
//! use grid::{Cell, Direction, GridBuilder};
//! use net::{NetSpec, Pin};
//! use route::{initial_assignment, route_netlist, RouterConfig};
//! use tila::{Tila, TilaConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut grid = GridBuilder::new(16, 16)
//!     .alternating_layers(4, Direction::Horizontal)
//!     .build()?;
//! let specs = vec![NetSpec::new(
//!     "n0",
//!     vec![Pin::source(Cell::new(0, 0), 0.0), Pin::sink(Cell::new(12, 9), 2.0)],
//! )];
//! let netlist = route_netlist(&grid, &specs, &RouterConfig::default());
//! let mut assignment = initial_assignment(&mut grid, &netlist);
//! let result = Tila::new(TilaConfig::default())
//!     .run(&mut grid, &netlist, &mut assignment, &[0])?;
//! assert!(result.final_objective <= result.initial_objective);
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
// Index-based loops over segments mirror the objective's per-segment sums.
#![allow(clippy::needless_range_loop)]

use flow::{
    ConfigError, FlowCounters, FlowError, FlowReport, LayerAssigner, Metrics, Multipliers, NetDp,
    RoundSnapshot, Stage, StageObserver,
};
use grid::Grid;
use net::{Assignment, Net, Netlist};
use std::time::Instant;
use timing::{NetTiming, TimingModel};

/// Tunables of the Lagrangian-relaxation loop.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TilaConfig {
    /// Outer LR iterations.
    pub rounds: usize,
    /// Subgradient step scale, in units of (average segment delay) per
    /// wire of violation. The effective step decays as `1/k`.
    pub step_scale: f64,
    /// Extra multiplicative weight on via-capacity violations.
    pub via_weight: f64,
    /// Fraction of nets released as critical when TILA runs as a
    /// [`LayerAssigner`] backend (matching CPLA's default selection);
    /// [`Tila::run`] callers pass an explicit released set instead.
    pub critical_ratio: f64,
}

impl Default for TilaConfig {
    fn default() -> TilaConfig {
        TilaConfig {
            rounds: 12,
            step_scale: 0.5,
            via_weight: 1.0,
            critical_ratio: 0.005,
        }
    }
}

impl TilaConfig {
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
        if !self.via_weight.is_finite() || self.via_weight < 0.0 {
            return Err(ConfigError {
                field: "via_weight",
                value: format!("{}", self.via_weight),
                reason: "the via-violation weight must be finite and non-negative",
            });
        }
        Ok(())
    }
}

/// Outcome of a TILA run.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TilaResult {
    /// Weighted-sum delay of the released nets before optimization.
    pub initial_objective: f64,
    /// Weighted-sum delay after the best round.
    pub final_objective: f64,
    /// Rounds executed.
    pub rounds_run: usize,
}

/// The TILA engine. Construct once, then [`Tila::run`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Tila {
    config: TilaConfig,
}

/// TILA's objective for one net: the weighted (uniform weights) sum of
/// all segment Elmore delays plus via stack delays, with downstream
/// capacitances taken from `timing`.
///
/// This is deliberately *not* the critical-path delay — reproducing the
/// sum-objective is what makes the TILA-vs-CPLA comparison meaningful.
pub fn weighted_sum_delay(grid: &Grid, net: &Net, layers: &[usize], timing: &NetTiming) -> f64 {
    weighted_sum_delay_from_caps(grid, net, layers, timing.downstream_caps())
}

/// [`weighted_sum_delay`] over a raw downstream-capacitance slice, so
/// callers tracking caps incrementally (e.g. through
/// [`timing::IncrementalTiming`]) avoid a full [`NetTiming`] recompute.
///
/// # Panics
///
/// Panics if `caps` is shorter than the net's segment count.
pub fn weighted_sum_delay_from_caps(grid: &Grid, net: &Net, layers: &[usize], caps: &[f64]) -> f64 {
    let tree = net.tree();
    let mut total = 0.0;
    for s in 0..tree.num_segments() {
        total += timing::segment_delay_on_layer(grid, net, s, layers[s], caps[s]);
    }
    for (_, lo, hi) in net.via_stacks(layers) {
        // Charge the stack with the smaller downstream capacitance of
        // the metal it joins (Eqn. 3's min rule), approximated by the
        // child-side cap of the segments at this node; using the stack's
        // span keeps this consistent across pin drops and branches.
        total += grid.via_stack_resistance(lo, hi);
    }
    total
}

impl Tila {
    /// Creates an engine with the given configuration.
    pub fn new(config: TilaConfig) -> Tila {
        Tila { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &TilaConfig {
        &self.config
    }

    /// Optimizes the `released` nets in place.
    ///
    /// `grid` usage must reflect `assignment` on entry (as produced by
    /// `route::initial_assignment`); on exit it reflects the updated
    /// assignment. Non-released nets are never touched — their usage is
    /// the fixed background the released nets must fit around, exactly
    /// the paper's incremental setting.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Config`] for an invalid configuration and
    /// [`FlowError::Input`] when a released index is out of range or the
    /// assignment does not match the netlist.
    pub fn run(
        &self,
        grid: &mut Grid,
        netlist: &Netlist,
        assignment: &mut Assignment,
        released: &[usize],
    ) -> Result<TilaResult, FlowError> {
        self.run_observed(grid, netlist, assignment, released, &mut [])
    }

    /// [`Tila::run`] with [`StageObserver`]s attached: observers receive
    /// the stages TILA has — Solve (DP sweep + multiplier update),
    /// Accept (legalization) and Measure (objective/incumbent) — plus
    /// one [`RoundSnapshot`] per LR round (objective = weighted-sum
    /// delay).
    ///
    /// # Errors
    ///
    /// See [`Tila::run`].
    pub fn run_observed(
        &self,
        grid: &mut Grid,
        netlist: &Netlist,
        assignment: &mut Assignment,
        released: &[usize],
        observers: &mut [&mut dyn StageObserver],
    ) -> Result<TilaResult, FlowError> {
        self.config.validate()?;
        flow::validate_input(netlist, assignment, released)?;
        // One timing scratch serves every per-net pass of the run.
        let mut timing = NetTiming::default();
        let objective = |g: &Grid, a: &Assignment, t: &mut NetTiming| -> f64 {
            released
                .iter()
                .map(|&i| {
                    let net = netlist.net(i);
                    t.recompute(g, net, a.net_layers(i));
                    weighted_sum_delay(g, net, a.net_layers(i), t)
                })
                .sum()
        };
        let initial_objective = objective(grid, assignment, &mut timing);
        let initial_wire_overflow = grid.total_wire_overflow();
        let initial_via_overflow = grid.total_via_overflow();
        let mut best_objective = initial_objective;
        let mut best_layers: Vec<Vec<usize>> = released
            .iter()
            .map(|&i| assignment.net_layers(i).to_vec())
            .collect();

        // Delay scale for the subgradient step: average segment delay of
        // the released set.
        let released_segments: usize = released
            .iter()
            .map(|&i| netlist.net(i).tree().num_segments())
            .sum();
        if released_segments == 0 {
            return Ok(TilaResult {
                initial_objective,
                final_objective: initial_objective,
                rounds_run: 0,
            });
        }
        let delay_scale = (initial_objective / released_segments as f64).max(1e-12);
        // Incumbent selection must not reward infeasibility: LR iterates
        // may transiently overfill edges or via cells, and snapshotting
        // purely by delay would lock such states in. Charge any wire or
        // via overflow beyond what the input already had at a
        // prohibitive rate.
        let overflow_penalty = 50.0 * delay_scale;
        let penalized = |g: &Grid, obj: f64| -> f64 {
            let extra = g
                .total_wire_overflow()
                .saturating_sub(initial_wire_overflow)
                + g.total_via_overflow().saturating_sub(initial_via_overflow);
            obj + overflow_penalty * extra as f64
        };
        let mut best_penalized = initial_objective;

        let mut lambda = Multipliers::zeros(grid);
        let mut dp = NetDp::default();
        let mut layers: Vec<usize> = Vec::new();

        // Criticality order: longest (slowest) nets first. Keys are
        // computed once per net — a comparator that re-times both sides
        // costs two O(net) computes per comparison.
        let mut keyed: Vec<(f64, usize)> = released
            .iter()
            .map(|&i| {
                timing.recompute(grid, netlist.net(i), assignment.net_layers(i));
                (timing.critical_delay(), i)
            })
            .collect();
        keyed.sort_by(|a, b| b.0.total_cmp(&a.0));
        let order: Vec<usize> = keyed.into_iter().map(|(_, i)| i).collect();

        // Electrical parameters are usage-independent; one snapshot
        // serves every legalization sweep.
        let model = TimingModel::from_grid(grid);

        let mut rounds_run = 0;
        for round in 1..=self.config.rounds {
            rounds_run = round;
            // TILA's LR round maps onto three of the shared flow stages:
            // the per-net DP sweep + multiplier update is its Solve, the
            // legalization sweep its Accept, and the objective/incumbent
            // bookkeeping its Measure.
            for obs in observers.iter_mut() {
                obs.on_stage_start(round, Stage::Solve);
            }
            let solve_t = Instant::now();
            // Gauss-Seidel sweep: each net is minimized exactly under
            // the current multipliers and downstream capacitances frozen
            // at its incoming layers, with every delay weighted 1.
            for &ni in &order {
                let net = netlist.net(ni);
                net::remove_net_from_grid(grid, net, assignment.net_layers(ni));
                timing.recompute(grid, net, assignment.net_layers(ni));
                layers.clear();
                layers.resize(net.tree().num_segments(), 0);
                dp.minimize(
                    grid,
                    net,
                    timing.downstream_caps(),
                    1.0,
                    &lambda,
                    &mut layers,
                );
                net::restore_net_to_grid(grid, net, &layers);
                assignment.net_layers_mut(ni).copy_from_slice(&layers);
            }

            // Subgradient multiplier update with 1/k decay.
            let step = self.config.step_scale * delay_scale / round as f64;
            lambda.subgradient_step(grid, step, self.config.via_weight);

            let solve_secs = solve_t.elapsed().as_secs_f64();
            for obs in observers.iter_mut() {
                obs.on_stage_end(round, Stage::Solve, solve_secs);
            }

            // Legalization sweep: LR iterates may leave wire overflow;
            // relocate released segments off overfilled edges at the
            // least delay cost before judging the round.
            for obs in observers.iter_mut() {
                obs.on_stage_start(round, Stage::Accept);
            }
            let accept_t = Instant::now();
            flow::legalize(grid, netlist, assignment, released, &model);
            let accept_secs = accept_t.elapsed().as_secs_f64();
            for obs in observers.iter_mut() {
                obs.on_stage_end(round, Stage::Accept, accept_secs);
            }

            for obs in observers.iter_mut() {
                obs.on_stage_start(round, Stage::Measure);
            }
            let measure_t = Instant::now();
            let obj = objective(grid, assignment, &mut timing);
            let pen = penalized(grid, obj);
            let improved = pen < best_penalized;
            if improved {
                best_penalized = pen;
                best_objective = obj;
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

        // Restore the best assignment seen (LR is not monotone).
        for (layers, &i) in best_layers.into_iter().zip(released) {
            if layers != assignment.net_layers(i) {
                let net = netlist.net(i);
                net::remove_net_from_grid(grid, net, assignment.net_layers(i));
                net::restore_net_to_grid(grid, net, &layers);
                assignment.set_net_layers(i, layers);
            }
        }

        Ok(TilaResult {
            initial_objective,
            final_objective: best_objective,
            rounds_run,
        })
    }
}

impl LayerAssigner for Tila {
    fn name(&self) -> &'static str {
        "tila"
    }

    fn config_description(&self) -> String {
        let c = &self.config;
        format!(
            "tila: lagrangian-relaxation rounds<={} step_scale={} via_weight={} ratio={}",
            c.rounds, c.step_scale, c.via_weight, c.critical_ratio
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
            assigner: "tila",
            released,
            initial_metrics,
            final_metrics,
            rounds: result.rounds_run,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid::{Cell, Direction, GridBuilder};
    use net::{NetSpec, Pin};
    use route::{initial_assignment, route_netlist, RouterConfig};
    use timing::IncrementalTiming;

    fn fixture() -> (Grid, Netlist, Assignment) {
        let mut grid = GridBuilder::new(24, 24)
            .alternating_layers(6, Direction::Horizontal)
            .uniform_capacity(4)
            .build()
            .unwrap();
        let mut specs = Vec::new();
        // A handful of long nets sharing a corridor plus local nets.
        for i in 0..6u16 {
            specs.push(NetSpec::new(
                format!("long{i}"),
                vec![
                    Pin::source(Cell::new(0, 8 + i), 0.0),
                    Pin::sink(Cell::new(20, 8 + i), 3.0),
                    Pin::sink(Cell::new(12, (2 + 2 * i) % 24), 2.0),
                ],
            ));
        }
        for i in 0..8u16 {
            specs.push(NetSpec::new(
                format!("short{i}"),
                vec![
                    Pin::source(Cell::new(2 + 2 * i, 2), 0.0),
                    Pin::sink(Cell::new(2 + 2 * i + 1, 4), 1.0),
                ],
            ));
        }
        let netlist = route_netlist(&grid, &specs, &RouterConfig::default());
        let assignment = initial_assignment(&mut grid, &netlist);
        (grid, netlist, assignment)
    }

    #[test]
    fn improves_sum_delay_of_released_nets() {
        let (mut grid, nl, mut a) = fixture();
        let released: Vec<usize> = (0..6).collect();
        let r = Tila::new(TilaConfig::default())
            .run(&mut grid, &nl, &mut a, &released)
            .unwrap();
        assert!(
            r.final_objective <= r.initial_objective,
            "{} > {}",
            r.final_objective,
            r.initial_objective
        );
        assert!(
            r.final_objective < r.initial_objective * 0.999,
            "LR should find some improvement on a congested corridor"
        );
        a.validate(&nl, &grid).unwrap();
    }

    #[test]
    fn grid_usage_stays_consistent() {
        let (mut grid, nl, mut a) = fixture();
        let released: Vec<usize> = (0..6).collect();
        Tila::new(TilaConfig::default())
            .run(&mut grid, &nl, &mut a, &released)
            .unwrap();
        // Rebuild usage from scratch; must equal the incremental state.
        let mut fresh = grid.clone();
        // Zero out by removing every net, then re-adding.
        for i in 0..nl.len() {
            net::remove_net_from_grid(&mut fresh, nl.net(i), a.net_layers(i));
        }
        for i in 0..nl.len() {
            net::restore_net_to_grid(&mut fresh, nl.net(i), a.net_layers(i));
        }
        assert_eq!(fresh, grid);
    }

    #[test]
    fn untouched_nets_keep_their_layers() {
        let (mut grid, nl, mut a) = fixture();
        let before: Vec<Vec<usize>> = (6..nl.len()).map(|i| a.net_layers(i).to_vec()).collect();
        Tila::new(TilaConfig::default())
            .run(&mut grid, &nl, &mut a, &[0, 1])
            .unwrap();
        for (k, i) in (6..nl.len()).enumerate() {
            assert_eq!(a.net_layers(i), before[k].as_slice());
        }
    }

    #[test]
    fn empty_release_set_is_a_no_op() {
        let (mut grid, nl, mut a) = fixture();
        let before = a.clone();
        let r = Tila::new(TilaConfig::default())
            .run(&mut grid, &nl, &mut a, &[])
            .unwrap();
        assert_eq!(a, before);
        assert_eq!(r.rounds_run, 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let (mut g1, nl1, mut a1) = fixture();
        let (mut g2, nl2, mut a2) = fixture();
        let released: Vec<usize> = (0..6).collect();
        Tila::new(TilaConfig::default())
            .run(&mut g1, &nl1, &mut a1, &released)
            .unwrap();
        Tila::new(TilaConfig::default())
            .run(&mut g2, &nl2, &mut a2, &released)
            .unwrap();
        assert_eq!(a1, a2);
    }

    #[test]
    fn legalization_repairs_manufactured_overflow() {
        // Force released segments onto a full edge, then check a TILA
        // run clears the new overflow.
        let mut grid = GridBuilder::new(24, 8)
            .alternating_layers(6, Direction::Horizontal)
            .uniform_capacity(4)
            .build()
            .unwrap();
        let specs: Vec<NetSpec> = (0..6)
            .map(|i| {
                NetSpec::new(
                    format!("n{i}"),
                    vec![
                        Pin::source(Cell::new(0, 4), 0.0),
                        Pin::sink(Cell::new(20, 4), 2.0),
                    ],
                )
            })
            .collect();
        let nl = route_netlist(&grid, &specs, &RouterConfig::default());
        let mut a = initial_assignment(&mut grid, &nl);
        // Stack every net on the lowest layer of each direction.
        for i in 0..6 {
            let net = nl.net(i);
            net::remove_net_from_grid(&mut grid, net, a.net_layers(i));
            let mut layers = a.net_layers(i).to_vec();
            for l in layers.iter_mut() {
                let dir = grid.layer(*l).direction;
                *l = grid.layers_in_direction(dir).next().expect("lowest layer");
            }
            net::restore_net_to_grid(&mut grid, net, &layers);
            a.set_net_layers(i, layers);
        }
        let overflow_before = grid.total_wire_overflow();
        assert!(overflow_before > 0, "fixture must start overflowed");
        let released: Vec<usize> = (0..6).collect();
        Tila::new(TilaConfig::default())
            .run(&mut grid, &nl, &mut a, &released)
            .unwrap();
        assert!(
            grid.total_wire_overflow() < overflow_before,
            "legalization must reduce the manufactured overflow: {} -> {}",
            overflow_before,
            grid.total_wire_overflow()
        );
        a.validate(&nl, &grid).unwrap();
    }

    #[test]
    fn weighted_sum_delay_matches_manual_total() {
        let (grid, nl, a) = fixture();
        let net = nl.net(0);
        let layers = a.net_layers(0);
        let t = NetTiming::compute(&grid, net, layers);
        let total = weighted_sum_delay(&grid, net, layers, &t);
        let mut manual = 0.0;
        for s in 0..net.tree().num_segments() {
            manual += timing::segment_delay_on_layer(&grid, net, s, layers[s], t.downstream_cap(s));
        }
        for (_, lo, hi) in net.via_stacks(layers) {
            manual += grid.via_stack_resistance(lo, hi);
        }
        assert!((total - manual).abs() < 1e-9);
    }

    #[test]
    fn caps_variant_matches_timing_based_objective() {
        let (grid, nl, a) = fixture();
        let model = TimingModel::from_grid(&grid);
        for i in 0..nl.len() {
            let net = nl.net(i);
            let layers = a.net_layers(i);
            let t = NetTiming::compute(&grid, net, layers);
            let inc = IncrementalTiming::new(&model, net, layers);
            let from_timing = weighted_sum_delay(&grid, net, layers, &t);
            let from_caps = weighted_sum_delay_from_caps(&grid, net, layers, inc.downstream_caps());
            assert!(
                (from_timing - from_caps).abs() <= 1e-12 * from_timing.abs().max(1.0),
                "net {i}: {from_timing} vs {from_caps}"
            );
        }
    }

    #[test]
    fn promotes_long_critical_net_upward() {
        // Single long uncongested net: TILA should move it off the
        // resistive bottom layer.
        let mut grid = GridBuilder::new(32, 8)
            .alternating_layers(6, Direction::Horizontal)
            .uniform_capacity(10)
            .build()
            .unwrap();
        let specs = vec![NetSpec::new(
            "long",
            vec![
                Pin::source(Cell::new(0, 4), 0.0),
                Pin::sink(Cell::new(30, 4), 4.0),
            ],
        )];
        let nl = route_netlist(&grid, &specs, &RouterConfig::default());
        let mut a = initial_assignment(&mut grid, &nl);
        Tila::new(TilaConfig::default())
            .run(&mut grid, &nl, &mut a, &[0])
            .unwrap();
        // The single horizontal segment should end on a higher H layer
        // (2 or 4), since wire R dominates the via penalty at length 30.
        assert!(a.net_layers(0)[0] >= 2, "stayed on {:?}", a.net_layers(0));
    }
}
