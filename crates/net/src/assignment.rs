//! Layer assignments and their reflection into grid usage.

use grid::Grid;

use crate::{Net, Netlist, SegmentRef};

/// A complete layer assignment: one layer index per segment of every net.
///
/// The assignment is the central mutable state of incremental layer
/// assignment: TILA and CPLA both read and rewrite it, and
/// [`apply_to_grid`] projects it into wire/via usage tallies.
#[derive(Clone, PartialEq, Debug)]
pub struct Assignment {
    layers: Vec<Vec<usize>>,
}

impl Assignment {
    /// Creates an assignment placing every segment on the *lowest* layer
    /// of its direction — the canonical "all wires down" starting point.
    ///
    /// # Panics
    ///
    /// Panics if the grid lacks a layer for some segment direction
    /// (impossible for grids built by `GridBuilder`, which requires both).
    pub fn lowest_layers(netlist: &Netlist, grid: &Grid) -> Assignment {
        #[expect(clippy::expect_used, reason = "GridBuilder requires both directions")]
        let lowest = |dir| {
            grid.layers_in_direction(dir)
                .next()
                .expect("grid must have a layer per direction")
        };
        let layers = netlist
            .nets()
            .iter()
            .map(|n| n.tree().segments().iter().map(|s| lowest(s.dir)).collect())
            .collect();
        Assignment { layers }
    }

    /// Layer of segment `seg` of net `net`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn layer(&self, net: usize, seg: usize) -> usize {
        self.layers[net][seg]
    }

    /// Layer of the segment addressed by `r`.
    ///
    /// # Panics
    ///
    /// Panics if the reference is out of range.
    pub fn layer_of(&self, r: SegmentRef) -> usize {
        self.layers[r.net as usize][r.seg as usize]
    }

    /// Re-assigns segment `seg` of net `net` to `layer`.
    ///
    /// Callers are responsible for keeping grid usage in sync (remove the
    /// net, mutate, restore — see [`remove_net_from_grid`]).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn set_layer(&mut self, net: usize, seg: usize, layer: usize) {
        self.layers[net][seg] = layer;
    }

    /// The per-segment layers of one net.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    pub fn net_layers(&self, net: usize) -> &[usize] {
        &self.layers[net]
    }

    /// The per-segment layers of one net, to rewrite in place.
    ///
    /// Callers are responsible for keeping grid usage in sync, as with
    /// [`Assignment::set_layer`].
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    pub fn net_layers_mut(&mut self, net: usize) -> &mut [usize] {
        &mut self.layers[net]
    }

    /// Replaces the layer vector of one net.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range or the length differs from the
    /// net's segment count recorded at construction.
    pub fn set_net_layers(&mut self, net: usize, layers: Vec<usize>) {
        assert_eq!(self.layers[net].len(), layers.len());
        self.layers[net] = layers;
    }

    /// Number of nets covered.
    pub fn num_nets(&self) -> usize {
        self.layers.len()
    }

    /// Checks that every segment sits on a layer whose direction matches
    /// the segment's orientation.
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatch.
    pub fn validate(&self, netlist: &Netlist, grid: &Grid) -> Result<(), String> {
        if self.layers.len() != netlist.len() {
            return Err(format!(
                "assignment covers {} nets, netlist has {}",
                self.layers.len(),
                netlist.len()
            ));
        }
        for (ni, (n, ls)) in netlist.nets().iter().zip(&self.layers).enumerate() {
            if ls.len() != n.tree().num_segments() {
                return Err(format!(
                    "net {ni}: {} layers for {} segments",
                    ls.len(),
                    n.tree().num_segments()
                ));
            }
            for (si, (&l, seg)) in ls.iter().zip(n.tree().segments()).enumerate() {
                if l >= grid.num_layers() {
                    return Err(format!("net {ni} segment {si}: layer {l} out of range"));
                }
                if grid.layer(l).direction != seg.dir {
                    return Err(format!(
                        "net {ni} segment {si}: {} segment on {} layer {l}",
                        seg.dir,
                        grid.layer(l).direction
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Adds the wires and vias of every net to the grid's usage tallies.
///
/// # Panics
///
/// Panics if the assignment does not match the netlist/grid (validate
/// first), or if a segment leaves the grid.
pub fn apply_to_grid(grid: &mut Grid, netlist: &Netlist, assignment: &Assignment) {
    for (ni, n) in netlist.nets().iter().enumerate() {
        restore_net_to_grid(grid, n, assignment.net_layers(ni));
    }
}

/// Subtracts one net's wires and vias from the grid's usage tallies,
/// given the layer vector it is currently assigned to.
///
/// # Panics
///
/// Panics if the net's usage was not previously recorded (underflow), or
/// the layer vector is the wrong length.
pub fn remove_net_from_grid(grid: &mut Grid, net: &Net, layers: &[usize]) {
    let tree = net.tree();
    assert_eq!(layers.len(), tree.num_segments());
    for (s, &l) in layers.iter().enumerate() {
        grid.remove_wire_run(l, tree.segment_run(s, grid));
    }
    for (cell, lo, hi) in net.via_stacks(layers) {
        grid.remove_via_stack(cell, lo, hi);
    }
}

/// Adds one net's wires and vias to the grid's usage tallies, given its
/// layer vector. Inverse of [`remove_net_from_grid`].
///
/// # Panics
///
/// Panics if the layer vector is the wrong length or a segment leaves the
/// grid.
pub fn restore_net_to_grid(grid: &mut Grid, net: &Net, layers: &[usize]) {
    let tree = net.tree();
    assert_eq!(layers.len(), tree.num_segments());
    for (s, &l) in layers.iter().enumerate() {
        grid.add_wire_run(l, tree.segment_run(s, grid));
    }
    for (cell, lo, hi) in net.via_stacks(layers) {
        grid.add_via_stack(cell, lo, hi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Pin, RouteTreeBuilder};
    use grid::{Cell, Direction, Edge2d, GridBuilder};

    fn fixture() -> (Grid, Netlist) {
        let grid = GridBuilder::new(8, 8)
            .alternating_layers(4, Direction::Horizontal)
            .uniform_capacity(8)
            .build()
            .unwrap();
        let mut b = RouteTreeBuilder::new(Cell::new(1, 1));
        let c = b.add_segment(b.root(), Cell::new(4, 1)).unwrap();
        let e = b.add_segment(c, Cell::new(4, 5)).unwrap();
        b.attach_pin(b.root(), 0).unwrap();
        b.attach_pin(e, 1).unwrap();
        let net = Net::new(
            "n",
            vec![
                Pin::source(Cell::new(1, 1), 10.0),
                Pin::sink(Cell::new(4, 5), 1.0),
            ],
            b.build().unwrap(),
        );
        let mut nl = Netlist::new();
        nl.push(net);
        (grid, nl)
    }

    #[test]
    fn lowest_layers_match_direction() {
        let (grid, nl) = fixture();
        let a = Assignment::lowest_layers(&nl, &grid);
        a.validate(&nl, &grid).unwrap();
        assert_eq!(a.layer(0, 0), 0); // horizontal -> M1
        assert_eq!(a.layer(0, 1), 1); // vertical -> M2
    }

    #[test]
    fn apply_then_remove_is_identity() {
        let (mut grid, nl) = fixture();
        let a = Assignment::lowest_layers(&nl, &grid);
        let before = grid.snapshot_usage();
        apply_to_grid(&mut grid, &nl, &a);
        assert_eq!(grid.edge_usage(0, Edge2d::horizontal(1, 1)), 1);
        assert_eq!(grid.edge_usage(1, Edge2d::vertical(4, 3)), 1);
        remove_net_from_grid(&mut grid, nl.net(0), a.net_layers(0));
        let after = grid.snapshot_usage();
        assert_eq!(before, after);
    }

    #[test]
    fn validate_rejects_direction_mismatch() {
        let (grid, nl) = fixture();
        let mut a = Assignment::lowest_layers(&nl, &grid);
        a.set_layer(0, 0, 1); // horizontal segment on vertical layer
        assert!(a.validate(&nl, &grid).is_err());
    }

    #[test]
    fn grid_via_count_tracks_assignment() {
        let (mut grid, nl) = fixture();
        let mut a = Assignment::lowest_layers(&nl, &grid);
        apply_to_grid(&mut grid, &nl, &a);
        let low = grid.total_via_count();
        assert_eq!(low, nl.net(0).via_count(a.net_layers(0)));
        remove_net_from_grid(&mut grid, nl.net(0), a.net_layers(0));
        assert_eq!(grid.total_via_count(), 0);
        a.set_layer(0, 0, 2); // push horizontal segment to M3
        a.set_layer(0, 1, 3); // vertical to M4
        restore_net_to_grid(&mut grid, nl.net(0), a.net_layers(0));
        let high = grid.total_via_count();
        assert_eq!(high, nl.net(0).via_count(a.net_layers(0)));
        assert!(high > low, "{high} vs {low}");
        a.validate(&nl, &grid).unwrap();
    }
}
