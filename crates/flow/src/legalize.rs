//! The wire-overflow repair sweep the relaxation engines (TILA and
//! Lagrange) run after each round.

use grid::Grid;
use net::{Assignment, Netlist};
use timing::{IncrementalTiming, TimingModel};

/// Passes over the released nets before the sweep gives up.
const PASSES: usize = 4;

/// Greedy repair: moves released segments off edges whose wire capacity
/// is exceeded.
///
/// Each offending segment goes to the least-delay alternative layer of
/// its direction that has residual capacity on *all* its edges; among
/// equal delays the lowest layer wins. A segment with no such layer
/// stays put and keeps counting as overflow. The sweep visits
/// `released` in order, at most four times, and stops after a pass that
/// moves nothing. `grid` usage and `assignment` stay consistent
/// throughout.
///
/// Edges are tested on the layer's usage and capacity rows along the
/// segment's [`grid::EdgeRun`], and a net's [`IncrementalTiming`] is
/// built only at its first overflowing segment, so a net that needs no
/// repair costs one scan of its runs and no allocation.
pub fn legalize(
    grid: &mut Grid,
    netlist: &Netlist,
    assignment: &mut Assignment,
    released: &[usize],
    model: &TimingModel,
) {
    let mut layers: Vec<usize> = Vec::new();
    for _pass in 0..PASSES {
        let mut moved_any = false;
        for &ni in released {
            let net = netlist.net(ni);
            let tree = net.tree();
            layers.clear();
            layers.extend_from_slice(assignment.net_layers(ni));
            // Tracks this net's downstream capacitances once a segment
            // needs repair: each accepted move is an O(path-to-root)
            // update, not an O(net) recompute per overflowing segment.
            let mut inc: Option<IncrementalTiming> = None;
            let mut net_moved = false;
            for s in 0..tree.num_segments() {
                let layer = layers[s];
                let run = tree.segment_run(s, grid);
                let (usage, cap) = (grid.edge_usage_row(layer), grid.edge_capacity_row(layer));
                if !run.indices().any(|i| usage[i] > cap[i]) {
                    continue;
                }
                let inc = inc.get_or_insert_with(|| IncrementalTiming::new(model, net, &layers));
                let cd = inc.downstream_cap(s);
                let best = grid
                    .layers_in_direction(tree.segment(s).dir)
                    .filter(|&l| l != layer)
                    .filter(|&l| {
                        let (usage, cap) = (grid.edge_usage_row(l), grid.edge_capacity_row(l));
                        run.indices().all(|i| usage[i] < cap[i])
                    })
                    .map(|l| (timing::segment_delay_on_layer(grid, net, s, l, cd), l))
                    .min_by(|a, b| a.0.total_cmp(&b.0));
                if let Some((_, new_layer)) = best {
                    net::remove_net_from_grid(grid, net, &layers);
                    layers[s] = new_layer;
                    net::restore_net_to_grid(grid, net, &layers);
                    inc.set_layer(s, new_layer);
                    net_moved = true;
                }
            }
            if net_moved {
                assignment.net_layers_mut(ni).copy_from_slice(&layers);
                moved_any = true;
            }
        }
        if !moved_any {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid::{Cell, Direction, GridBuilder};
    use net::{Net, Pin, RouteTreeBuilder};

    /// Layers 0, 2 and 4 run horizontally, 1, 3 and 5 vertically, with
    /// `capacity` tracks on every edge.
    fn grid(capacity: u32) -> Grid {
        GridBuilder::new(8, 4)
            .alternating_layers(6, Direction::Horizontal)
            .uniform_capacity(capacity)
            .build()
            .unwrap()
    }

    /// One straight horizontal two-pin net along row 1.
    fn straight(name: &str, from: u16, to: u16) -> Net {
        let mut b = RouteTreeBuilder::new(Cell::new(from, 1));
        let end = b.add_segment(b.root(), Cell::new(to, 1)).unwrap();
        b.attach_pin(b.root(), 0).unwrap();
        b.attach_pin(end, 1).unwrap();
        Net::new(
            name,
            vec![
                Pin::source(Cell::new(from, 1), 10.0),
                Pin::sink(Cell::new(to, 1), 1.0),
            ],
            b.build().unwrap(),
        )
    }

    /// Builds the nets, puts net `i` on layer `layers[i]` and commits
    /// the assignment to a fresh grid.
    fn setup(capacity: u32, nets: Vec<Net>, layers: &[usize]) -> (Grid, Netlist, Assignment) {
        let mut g = grid(capacity);
        let mut nl = Netlist::new();
        for n in nets {
            nl.push(n);
        }
        let mut a = Assignment::lowest_layers(&nl, &g);
        for (i, &l) in layers.iter().enumerate() {
            a.set_layer(i, 0, l);
        }
        net::apply_to_grid(&mut g, &nl, &a);
        (g, nl, a)
    }

    fn run(g: &mut Grid, nl: &Netlist, a: &mut Assignment, released: &[usize]) {
        let model = TimingModel::from_grid(g);
        legalize(g, nl, a, released, &model);
    }

    #[test]
    fn overfull_stack_loses_overflow() {
        // Two nets stacked on layer 0 with one track per edge: 5 edges
        // over by one each. Layers 2 and 4 both have room for one.
        let (mut g, nl, mut a) = setup(1, vec![straight("a", 0, 5), straight("b", 0, 5)], &[0, 0]);
        assert_eq!(g.total_wire_overflow(), 5);
        let cd = timing::NetTiming::compute(&g, nl.net(0), &[0]).downstream_cap(0);
        let delay = |l| timing::segment_delay_on_layer(&g, nl.net(0), 0, l, cd);
        assert!(delay(4) < delay(2), "layer 4 must be the faster room");
        run(&mut g, &nl, &mut a, &[0, 1]);
        assert_eq!(g.total_wire_overflow(), 0);
        assert_eq!(a.net_layers(0), &[4]);
        assert_eq!(a.net_layers(1), &[0]);
        // Usage still matches the assignment exactly.
        let mut fresh = grid(1);
        net::apply_to_grid(&mut fresh, &nl, &a);
        assert_eq!(g.snapshot_usage(), fresh.snapshot_usage());
    }

    #[test]
    fn segment_without_room_on_every_edge_stays_put() {
        // Non-released blockers fill one edge of layer 2 and one of
        // layer 4, so each has room on only four of the stacked
        // segments' five edges: nothing moves.
        let nets = vec![
            straight("a", 0, 5),
            straight("b", 0, 5),
            straight("blocker2", 2, 3),
            straight("blocker4", 4, 5),
        ];
        let (mut g, nl, mut a) = setup(1, nets, &[0, 0, 2, 4]);
        let before = (a.clone(), g.snapshot_usage(), g.total_wire_overflow());
        assert_eq!(before.2, 5);
        run(&mut g, &nl, &mut a, &[0, 1]);
        assert_eq!((a, g.snapshot_usage(), g.total_wire_overflow()), before);
    }

    #[test]
    fn overflow_free_grid_is_untouched() {
        let (mut g, nl, mut a) = setup(2, vec![straight("a", 0, 5), straight("b", 0, 5)], &[0, 0]);
        let before = (a.clone(), g.snapshot_usage());
        assert_eq!(g.total_wire_overflow(), 0);
        run(&mut g, &nl, &mut a, &[0, 1]);
        assert_eq!((a, g.snapshot_usage()), before);
    }
}
