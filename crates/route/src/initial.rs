//! Initial (baseline) layer assignment.
//!
//! A net-by-net dynamic program in the style of congestion-constrained
//! via minimization (reference \[5\] of the paper): nets are processed in
//! decreasing wirelength order; for each net a bottom-up DP over its tree
//! picks one layer per segment minimizing congestion cost plus via cost.
//! The result is the legal-ish, timing-oblivious assignment that the
//! incremental engines (TILA, CPLA) then improve.

use grid::{Direction, EdgeRun, Grid};
use net::{Assignment, Net, Netlist};

/// Tunables of the initial-assignment DP.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct InitialConfig {
    /// Cost per layer-boundary hop of a via.
    pub via_cost: f64,
    /// Cost multiplier on `usage / capacity` per edge.
    pub congestion_weight: f64,
    /// Additive cost per edge that would overflow.
    pub overflow_penalty: f64,
}

impl Default for InitialConfig {
    fn default() -> InitialConfig {
        InitialConfig {
            via_cost: 2.0,
            congestion_weight: 4.0,
            overflow_penalty: 1000.0,
        }
    }
}

/// Runs the DP for every net with default parameters, committing wires
/// and vias into `grid`'s usage tallies.
///
/// Returns the produced assignment; `grid` afterwards reflects it (so
/// `grid.total_via_overflow()` etc. are meaningful).
///
/// # Panics
///
/// Panics if a net's segments leave the grid.
pub fn initial_assignment(grid: &mut Grid, netlist: &Netlist) -> Assignment {
    initial_assignment_with(grid, netlist, &InitialConfig::default())
}

/// [`initial_assignment`] with explicit parameters.
///
/// # Panics
///
/// Panics if a net's segments leave the grid.
pub fn initial_assignment_with(
    grid: &mut Grid,
    netlist: &Netlist,
    config: &InitialConfig,
) -> Assignment {
    let mut assignment = Assignment::lowest_layers(netlist, grid);
    // Longest nets first: they are the least flexible and suffer most
    // from being squeezed onto whatever is left.
    let mut order: Vec<usize> = (0..netlist.len()).collect();
    order.sort_by_cached_key(|&i| std::cmp::Reverse(netlist.net(i).tree().wirelength()));
    let layers = DirLayers {
        horizontal: grid.layers_in_direction(Direction::Horizontal).collect(),
        vertical: grid.layers_in_direction(Direction::Vertical).collect(),
    };
    let mut tables = DpTables::default();
    for i in order {
        let chosen = assignment.net_layers_mut(i);
        assign_net(grid, netlist.net(i), config, &layers, &mut tables, chosen);
        // Commit usage so later nets see this net's wires.
        net::restore_net_to_grid(grid, netlist.net(i), assignment.net_layers(i));
    }
    assignment
}

/// The grid's layers of each direction, bottom up.
struct DirLayers {
    horizontal: Vec<usize>,
    vertical: Vec<usize>,
}

impl DirLayers {
    fn of(&self, dir: Direction) -> &[usize] {
        match dir {
            Direction::Horizontal => &self.horizontal,
            Direction::Vertical => &self.vertical,
        }
    }
}

/// The DP's buffers, reused from net to net. Rows of the flat tables
/// hold one entry per grid layer.
#[derive(Default)]
struct DpTables {
    /// `dp[s * L + l]`: best subtree cost with segment `s` on layer `l`.
    dp: Vec<f64>,
    /// `pick[cs * L + l]`: the best layer of child segment `cs` when its
    /// parent segment sits on layer `l`.
    pick: Vec<usize>,
    /// The top-down walk's pending `(segment, layer)` choices.
    stack: Vec<(usize, usize)>,
}

/// Bottom-up DP over one net's tree; writes the chosen layer of every
/// segment `s` to `chosen[s]`. Does not touch grid usage.
fn assign_net(
    grid: &Grid,
    net: &Net,
    config: &InitialConfig,
    layers: &DirLayers,
    tables: &mut DpTables,
    chosen: &mut [usize],
) {
    let tree = net.tree();
    let nl = grid.num_layers();
    let DpTables { dp, pick, stack } = tables;
    dp.clear();
    dp.resize(tree.num_segments() * nl, f64::INFINITY);
    pick.clear();
    pick.resize(tree.num_segments() * nl, usize::MAX);
    for s in tree.postorder_segments() {
        let seg = tree.segment(s);
        let child_node = seg.to as usize;
        let pin_layer = tree
            .node(child_node)
            .pin
            .map(|p| net.pins()[p as usize].layer);
        let run = tree.segment_run(s, grid);
        for &l in layers.of(seg.dir) {
            let mut cost = wire_cost(grid, run, l, config);
            // Via to the pin below, if any.
            if let Some(pl) = pin_layer {
                cost += config.via_cost * l.abs_diff(pl) as f64;
            }
            for &cs in tree.child_segments(child_node) {
                let cs = cs as usize;
                let candidates = layers.of(tree.segment(cs).dir);
                let (best_l, best_c) = best_layer(dp, nl, cs, candidates, l, config.via_cost);
                cost += best_c;
                pick[cs * nl + l] = best_l;
            }
            dp[s * nl + l] = cost;
        }
    }

    // Root choice includes the via from the source pin's layer.
    debug_assert_eq!(chosen.len(), tree.num_segments());
    chosen.fill(usize::MAX);
    let src_layer = net.source().layer;
    // Choose each root child independently (they only couple through the
    // shared source via stack, approximated pairwise here).
    stack.clear();
    for &cs in tree.child_segments(tree.root()) {
        let cs = cs as usize;
        let candidates = layers.of(tree.segment(cs).dir);
        let (best_l, _) = best_layer(dp, nl, cs, candidates, src_layer, config.via_cost);
        stack.push((cs, best_l));
    }
    while let Some((s, l)) = stack.pop() {
        chosen[s] = l;
        let child_node = tree.segment(s).to as usize;
        for &cs in tree.child_segments(child_node) {
            let cs = cs as usize;
            stack.push((cs, pick[cs * nl + l]));
        }
    }
    debug_assert!(chosen.iter().all(|&l| l != usize::MAX));
}

/// The best of `candidates` for segment `cs` below metal on layer `l`:
/// its subtree cost plus the via between the two, first minimum kept.
fn best_layer(
    dp: &[f64],
    nl: usize,
    cs: usize,
    candidates: &[usize],
    l: usize,
    via_cost: f64,
) -> (usize, f64) {
    #[expect(
        clippy::expect_used,
        reason = "GridBuilder rejects grids lacking a layer in either direction, so every \
                  candidate list is non-empty"
    )]
    candidates
        .iter()
        .map(|&cl| (cl, dp[cs * nl + cl] + via_cost * l.abs_diff(cl) as f64))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("every direction has at least one layer")
}

/// Wire cost of placing the segment covering `run` on layer `l`, from
/// current usage, summed edge by edge in run order.
fn wire_cost(grid: &Grid, run: EdgeRun, l: usize, config: &InitialConfig) -> f64 {
    let usage = grid.edge_usage_row(l);
    let capacity = grid.edge_capacity_row(l);
    let mut cost = 0.0;
    for i in run.indices() {
        let u = usage[i] as f64;
        let c = capacity[i] as f64;
        cost += config.congestion_weight * u / (c + 1.0);
        if u >= c {
            cost += config.overflow_penalty;
        }
    }
    // Slight bias toward lower layers mirrors the practice of saving
    // scarce top-layer capacity for the nets that need it.
    cost + 0.05 * l as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{route_netlist, RouterConfig};
    use grid::{Cell, GridBuilder};
    use net::{NetSpec, Pin};

    fn fixture(cap: u32, n_parallel: usize) -> (Grid, Netlist) {
        let grid = GridBuilder::new(16, 16)
            .alternating_layers(6, Direction::Horizontal)
            .uniform_capacity(cap)
            .build()
            .unwrap();
        let mut specs = Vec::new();
        for i in 0..n_parallel {
            let _ = i;
            specs.push(NetSpec::new(
                format!("p{i}"),
                vec![
                    Pin::source(Cell::new(0, 5), 0.0),
                    Pin::sink(Cell::new(12, 5), 1.0),
                ],
            ));
        }
        let netlist = route_netlist(&grid, &specs, &RouterConfig::default());
        (grid, netlist)
    }

    #[test]
    fn produces_valid_assignment() {
        let (mut g, nl) = fixture(4, 3);
        let a = initial_assignment(&mut g, &nl);
        a.validate(&nl, &g).unwrap();
    }

    #[test]
    fn grid_usage_reflects_assignment() {
        let (mut g, nl) = fixture(4, 2);
        let a = initial_assignment(&mut g, &nl);
        // Total wires on all layers of some covered edge equals net count
        // crossing it.
        let mut total = 0u32;
        for l in g.layers_in_direction(Direction::Horizontal) {
            total += g.edge_usage(l, grid::Edge2d::horizontal(3, 5));
        }
        assert!(total >= 1, "edge under the nets must be used");
        let _ = a;
    }

    #[test]
    fn respects_capacity_when_possible() {
        // 8 identical nets, capacity 3 per layer, 3 horizontal layers on
        // row 5 -> 9 slots >= 8 nets: no wire overflow needed.
        let (mut g, nl) = fixture(3, 8);
        let _ = initial_assignment(&mut g, &nl);
        assert_eq!(g.total_wire_overflow(), 0);
    }

    #[test]
    fn overflows_gracefully_when_impossible() {
        // 10 nets, capacity 1 per layer: some overflow is unavoidable on
        // shared edges, but the DP must still terminate with a valid
        // (direction-correct) assignment.
        let (mut g, nl) = fixture(1, 10);
        let a = initial_assignment(&mut g, &nl);
        a.validate(&nl, &g).unwrap();
    }

    #[test]
    fn single_long_net_prefers_few_vias() {
        let mut g = GridBuilder::new(16, 16)
            .alternating_layers(6, Direction::Horizontal)
            .uniform_capacity(8)
            .build()
            .unwrap();
        let specs = vec![NetSpec::new(
            "n",
            vec![
                Pin::source(Cell::new(0, 0), 0.0),
                Pin::sink(Cell::new(10, 0), 1.0),
            ],
        )];
        let nl = route_netlist(&g, &specs, &RouterConfig::default());
        let a = initial_assignment(&mut g, &nl);
        // Uncongested straight net: a single segment on the lowest
        // horizontal layer (cheapest via distance from the layer-0 pins).
        assert_eq!(a.net_layers(0), &[0]);
    }
}
