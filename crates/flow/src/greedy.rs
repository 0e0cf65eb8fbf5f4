//! The greedy longest-path-layering baseline.
//!
//! The portfolio's latency floor: one pass over the released nets in
//! longest-critical-path-first order, each net re-layered segment by
//! segment onto the least-delay layer that still has wire capacity, and
//! the whole net reverted if the move would add any wire or via
//! overflow beyond what the input already carried. No rounds, no
//! multipliers, no mathematical programs — the point is to be orders of
//! magnitude faster than the relaxation engines while never making the
//! design less feasible.
//!
//! The algorithm is the classic longest-path layering heuristic (cf.
//! layered-drawing "LayerAssignmentServ" services): order vertices by
//! longest path, then assign each to the best feasible layer greedily.
//! Here the "longest path" is the net's Elmore critical delay and the
//! per-segment choice is delay-minimizing under frozen downstream
//! capacitances.

use crate::{
    Cancel, FlowError, FlowReport, LayerAssigner, Metrics, RoundSnapshot, Stage, StageObserver,
};
use grid::Grid;
use net::{Assignment, Netlist};
use std::time::Instant;
use timing::NetTiming;

/// Tunables of the greedy baseline.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct GreedyConfig {
    /// Fraction of nets released as critical when the baseline runs as
    /// a [`LayerAssigner`]; [`Greedy::run`] callers pass an explicit
    /// released set instead.
    pub critical_ratio: f64,
}

impl Default for GreedyConfig {
    fn default() -> GreedyConfig {
        GreedyConfig {
            critical_ratio: 0.005,
        }
    }
}

impl GreedyConfig {
    /// Checks every field the engine cannot tolerate, before any work.
    ///
    /// # Errors
    ///
    /// Returns [`crate::ConfigError`] naming the offending field.
    pub fn validate(&self) -> Result<(), crate::ConfigError> {
        crate::validate_ratio("critical_ratio", self.critical_ratio)?;
        Ok(())
    }
}

/// Outcome of one greedy sweep.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GreedyResult {
    /// Nets whose layer vector changed.
    pub nets_changed: usize,
    /// Nets whose tentative re-layering was rolled back because it
    /// would have added overflow beyond the input's.
    pub nets_reverted: usize,
    /// Nets skipped because the sweep was cancelled first.
    pub nets_skipped: usize,
}

/// The greedy engine. Construct once, then [`Greedy::run`].
#[derive(Clone, Debug, Default)]
pub struct Greedy {
    config: GreedyConfig,
    cancel: Cancel,
}

impl Greedy {
    /// Creates an engine with the given configuration.
    pub fn new(config: GreedyConfig) -> Greedy {
        Greedy {
            config,
            cancel: Cancel::new(),
        }
    }

    /// [`Greedy::new`] with a shared cancellation flag: the sweep stops
    /// at the next net boundary once the flag trips, leaving already
    /// processed nets in place and the rest untouched.
    pub fn cancellable(config: GreedyConfig, cancel: Cancel) -> Greedy {
        Greedy { config, cancel }
    }

    /// The active configuration.
    pub fn config(&self) -> &GreedyConfig {
        &self.config
    }

    /// Re-layers the `released` nets in place, one greedy pass in
    /// longest-critical-path-first order.
    ///
    /// `grid` usage must reflect `assignment` on entry; on exit it
    /// reflects the updated assignment, and the total wire and via
    /// overflow are each no worse than on entry (the feasibility
    /// contract `cpla-conform` gates).
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
    ) -> Result<GreedyResult, FlowError> {
        self.config.validate()?;
        crate::validate_input(netlist, assignment, released)?;

        let wire_budget = grid.total_wire_overflow();
        let via_budget = grid.total_via_overflow();

        // Longest path first: slowest nets get first pick of the fast
        // layers. Keys are frozen up front so later moves cannot
        // reorder the sweep.
        let mut timing = NetTiming::default();
        let mut keyed: Vec<(f64, usize)> = released
            .iter()
            .map(|&i| {
                timing.recompute(grid, netlist.net(i), assignment.net_layers(i));
                (timing.critical_delay(), i)
            })
            .collect();
        keyed.sort_by(|a, b| b.0.total_cmp(&a.0));

        let mut result = GreedyResult {
            nets_changed: 0,
            nets_reverted: 0,
            nets_skipped: 0,
        };
        // Scratch reused across nets: the incoming and proposed layers,
        // and one segment's via attachment layers.
        let (mut old_layers, mut new_layers, mut attach) = (Vec::new(), Vec::new(), Vec::new());
        for (pos, &(_, ni)) in keyed.iter().enumerate() {
            if self.cancel.is_cancelled() {
                result.nets_skipped = keyed.len() - pos;
                break;
            }
            let net = netlist.net(ni);
            old_layers.clear();
            old_layers.extend_from_slice(assignment.net_layers(ni));
            if old_layers.is_empty() {
                continue; // via-stack-only net: nothing to re-layer
            }
            net::remove_net_from_grid(grid, net, &old_layers);
            // Downstream capacitances frozen at the net's current
            // layers; the per-segment choice is then independent.
            timing.recompute(grid, net, &old_layers);
            let tree = net.tree();
            new_layers.clear();
            new_layers.extend_from_slice(&old_layers);
            for (s, slot) in new_layers.iter_mut().enumerate() {
                let dir = tree.segment(s).dir;
                let cd = timing.downstream_cap(s);
                // Attachment layers this segment must reach with vias,
                // frozen at the net's incoming assignment: the metal at
                // the parent node (or the source pin) and everything at
                // the child node. Pricing the stacks keeps short
                // via-dominated stubs from being hoisted for a
                // negligible wire win.
                let parent_node = tree.segment(s).from as usize;
                let child_node = tree.segment(s).to as usize;
                attach.clear();
                match tree.parent_segment(parent_node) {
                    Some(p) => attach.push(old_layers[p]),
                    None => attach.push(net.source().layer),
                }
                for &cs in tree.child_segments(child_node) {
                    attach.push(old_layers[cs as usize]);
                }
                if let Some(p) = tree.node(child_node).pin {
                    attach.push(net.pins()[p as usize].layer);
                }
                let cost = |l: usize| -> f64 {
                    let mut c = timing::segment_delay_on_layer(grid, net, s, l, cd);
                    for &m in &attach {
                        let (lo, hi) = if l <= m { (l, m) } else { (m, l) };
                        c += grid.via_stack_resistance(lo, hi) * cd;
                    }
                    c
                };
                let run = tree.segment_run(s, grid);
                let best = grid
                    .layers_in_direction(dir)
                    .filter(|&l| {
                        let (usage, cap) = (grid.edge_usage_row(l), grid.edge_capacity_row(l));
                        run.indices().all(|i| usage[i] < cap[i])
                    })
                    .map(|l| (cost(l), l))
                    .min_by(|a, b| a.0.total_cmp(&b.0));
                if let Some((_, l)) = best {
                    *slot = l;
                }
            }
            net::restore_net_to_grid(grid, net, &new_layers);
            // Feasibility contract: a greedy move may never add wire or
            // via overflow beyond the input. Via stacks are not priced
            // during the per-segment choice, so re-check and roll the
            // whole net back on any regression.
            if new_layers != old_layers {
                if grid.total_wire_overflow() > wire_budget
                    || grid.total_via_overflow() > via_budget
                {
                    net::remove_net_from_grid(grid, net, &new_layers);
                    net::restore_net_to_grid(grid, net, &old_layers);
                    result.nets_reverted += 1;
                } else {
                    assignment.net_layers_mut(ni).copy_from_slice(&new_layers);
                    result.nets_changed += 1;
                }
            }
        }
        Ok(result)
    }
}

impl LayerAssigner for Greedy {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn config_description(&self) -> String {
        format!(
            "greedy: longest-path layering, single pass, ratio={}",
            self.config.critical_ratio
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
            crate::select_critical_nets(grid, netlist, assignment, self.config.critical_ratio);
        let initial_metrics = Metrics::measure(grid, netlist, assignment, &released);

        for obs in observers.iter_mut() {
            obs.on_stage_start(1, Stage::Solve);
        }
        let solve_t = Instant::now();
        let sweep = self.run(grid, netlist, assignment, &released);
        let solve_secs = solve_t.elapsed().as_secs_f64();
        for obs in observers.iter_mut() {
            obs.on_stage_end(1, Stage::Solve, solve_secs);
        }
        sweep?;

        for obs in observers.iter_mut() {
            obs.on_stage_start(1, Stage::Measure);
        }
        let measure_t = Instant::now();
        let final_metrics = Metrics::measure(grid, netlist, assignment, &released);
        let measure_secs = measure_t.elapsed().as_secs_f64();
        for obs in observers.iter_mut() {
            obs.on_stage_end(1, Stage::Measure, measure_secs);
        }
        let snapshot = RoundSnapshot {
            round: 1,
            objective: final_metrics.avg_tcp,
            improved: final_metrics.avg_tcp < initial_metrics.avg_tcp,
            counters: crate::FlowCounters::default(),
        };
        for obs in observers.iter_mut() {
            obs.on_round_end(&snapshot);
        }

        Ok(FlowReport {
            assigner: "greedy",
            released,
            initial_metrics,
            final_metrics,
            rounds: 1,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid::{Cell, Direction, GridBuilder};
    use net::{Net, Pin, RouteTreeBuilder};

    /// One horizontal two-pin net from (0,y) to (len,y).
    fn straight_net(name: &str, y: u16, len: u16, sink_cap: f64) -> Net {
        let src = Cell::new(0, y);
        let snk = Cell::new(len, y);
        let mut b = RouteTreeBuilder::new(src);
        let end = b.add_segment(b.root(), snk).unwrap();
        b.attach_pin(b.root(), 0).unwrap();
        b.attach_pin(end, 1).unwrap();
        Net::new(
            name.to_string(),
            vec![Pin::source(src, 0.0), Pin::sink(snk, sink_cap)],
            b.build().unwrap(),
        )
    }

    fn fixture(capacity: u32) -> (Grid, Netlist, Assignment) {
        let mut grid = GridBuilder::new(24, 8)
            .alternating_layers(6, Direction::Horizontal)
            .uniform_capacity(capacity)
            .build()
            .unwrap();
        let mut nl = Netlist::new();
        for i in 0..4u16 {
            nl.push(straight_net(&format!("n{i}"), 2 + i, 20, 2.0));
        }
        let assignment = Assignment::lowest_layers(&nl, &grid);
        net::apply_to_grid(&mut grid, &nl, &assignment);
        (grid, nl, assignment)
    }

    #[test]
    fn single_segment_net_moves_to_a_faster_layer() {
        let (mut grid, nl, mut a) = fixture(8);
        let before = a.net_layers(0).to_vec();
        let r = Greedy::new(GreedyConfig::default())
            .run(&mut grid, &nl, &mut a, &[0])
            .unwrap();
        assert_eq!(r.nets_changed, 1);
        assert_ne!(a.net_layers(0), before.as_slice());
        // A 20-tile horizontal run belongs on a higher H layer.
        assert!(a.net_layers(0)[0] >= 2, "stayed on {:?}", a.net_layers(0));
        a.validate(&nl, &grid).unwrap();
    }

    #[test]
    fn zero_capacity_interior_layer_is_never_chosen() {
        let mut grid = GridBuilder::new(24, 8)
            .alternating_layers(6, Direction::Horizontal)
            .uniform_capacity(8)
            .build()
            .unwrap();
        // Kill the middle horizontal layer (2) everywhere.
        let edges: Vec<_> = grid.edges_in_direction(Direction::Horizontal).collect();
        for e in edges {
            grid.set_edge_capacity(2, e, 0);
        }
        let mut nl = Netlist::new();
        nl.push(straight_net("n0", 4, 20, 2.0));
        let mut a = Assignment::lowest_layers(&nl, &grid);
        net::apply_to_grid(&mut grid, &nl, &a);
        Greedy::new(GreedyConfig::default())
            .run(&mut grid, &nl, &mut a, &[0])
            .unwrap();
        assert_ne!(a.net_layers(0)[0], 2, "chose the zero-capacity layer");
        assert_eq!(grid.total_wire_overflow(), 0);
    }

    #[test]
    fn via_stack_only_net_keeps_feasibility_and_does_not_regress() {
        // A 1-tile segment bracketed by pin via stacks (the generator's
        // via-stack-only degenerate): whatever layer greedy picks, it
        // must not add via overflow and must not make the net slower.
        let mut grid = GridBuilder::new(8, 8)
            .alternating_layers(6, Direction::Horizontal)
            .uniform_capacity(4)
            .build()
            .unwrap();
        let mut nl = Netlist::new();
        nl.push(straight_net("stack", 3, 1, 0.5));
        let mut a = Assignment::lowest_layers(&nl, &grid);
        net::apply_to_grid(&mut grid, &nl, &a);
        let via0 = grid.total_via_overflow();
        let before = NetTiming::compute(&grid, nl.net(0), a.net_layers(0)).critical_delay();
        Greedy::new(GreedyConfig::default())
            .run(&mut grid, &nl, &mut a, &[0])
            .unwrap();
        let after = NetTiming::compute(&grid, nl.net(0), a.net_layers(0)).critical_delay();
        assert!(
            after <= before,
            "greedy made the stub slower: {before} -> {after}"
        );
        assert!(grid.total_via_overflow() <= via0);
        a.validate(&nl, &grid).unwrap();
    }

    #[test]
    fn all_critical_workload_never_adds_overflow() {
        // Tight capacity: every net released, layers nearly full.
        let (mut grid, nl, mut a) = fixture(2);
        let wire0 = grid.total_wire_overflow();
        let via0 = grid.total_via_overflow();
        let released: Vec<usize> = (0..nl.len()).collect();
        Greedy::new(GreedyConfig::default())
            .run(&mut grid, &nl, &mut a, &released)
            .unwrap();
        assert!(grid.total_wire_overflow() <= wire0);
        assert!(grid.total_via_overflow() <= via0);
        a.validate(&nl, &grid).unwrap();
    }

    #[test]
    fn deterministic_across_reruns() {
        let (mut g1, nl, mut a1) = fixture(3);
        let (mut g2, _, mut a2) = fixture(3);
        let released: Vec<usize> = (0..nl.len()).collect();
        Greedy::new(GreedyConfig::default())
            .run(&mut g1, &nl, &mut a1, &released)
            .unwrap();
        Greedy::new(GreedyConfig::default())
            .run(&mut g2, &nl, &mut a2, &released)
            .unwrap();
        assert_eq!(a1, a2);
        assert_eq!(g1, g2);
    }

    #[test]
    fn cancelled_sweep_skips_remaining_nets_and_stays_consistent() {
        let (mut grid, nl, mut a) = fixture(8);
        let cancel = Cancel::new();
        cancel.cancel();
        let released: Vec<usize> = (0..nl.len()).collect();
        let r = Greedy::cancellable(GreedyConfig::default(), cancel)
            .run(&mut grid, &nl, &mut a, &released)
            .unwrap();
        assert_eq!(r.nets_skipped, nl.len());
        assert_eq!(r.nets_changed, 0);
        a.validate(&nl, &grid).unwrap();
    }

    #[test]
    fn invalid_ratio_is_a_config_error() {
        let (mut grid, nl, mut a) = fixture(4);
        let bad = Greedy::new(GreedyConfig {
            critical_ratio: -0.5,
        });
        let err = bad
            .assign(&mut grid, &nl, &mut a)
            .expect_err("negative ratio must be rejected");
        assert!(matches!(err, FlowError::Config(_)));
    }
}
