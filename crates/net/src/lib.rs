//! Net model for layer assignment.
//!
//! A [`Net`] connects one source [`Pin`] to one or more sink pins through a
//! routed 2-D topology, the [`RouteTree`]: a tree of straight wire
//! [`Segment`]s over grid cells. Layer assignment maps every segment onto a
//! metal layer of matching direction; the mapping for a whole design lives
//! in an [`Assignment`].
//!
//! Vias are *implied*: wherever two tree-adjacent segments sit on different
//! layers (or a segment must reach a pin on the pin layer), a via stack
//! spans the gap. [`Net::via_stacks`] enumerates them for a given
//! assignment, and [`apply_to_grid`] / [`remove_net_from_grid`] keep a
//! [`grid::Grid`]'s usage tallies in sync.
//!
//! # Example
//!
//! ```
//! use grid::{Cell, Direction};
//! use net::{Net, Pin, RouteTreeBuilder};
//!
//! # fn main() -> Result<(), net::BuildTreeError> {
//! // A two-pin net: source at (0,0), sink at (2,1), routed as an L.
//! let mut b = RouteTreeBuilder::new(Cell::new(0, 0));
//! let corner = b.add_path(b.root(), &[Cell::new(2, 0)])?;
//! let end = b.add_path(corner, &[Cell::new(2, 1)])?;
//! b.attach_pin(end, 1)?;
//! b.attach_pin(b.root(), 0)?;
//! let tree = b.build()?;
//! let net = Net::new(
//!     "n1",
//!     vec![Pin::source(Cell::new(0, 0), 25.0), Pin::sink(Cell::new(2, 1), 2.0)],
//!     tree,
//! );
//! assert_eq!(net.tree().num_segments(), 2);
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

mod arena;
mod assignment;
mod ids;
mod netlist;
mod pin;
mod tree;

pub use arena::DesignArena;
pub use assignment::{apply_to_grid, remove_net_from_grid, restore_net_to_grid, Assignment};
pub use ids::{NetId, NodeId, SegId};
pub use netlist::{Netlist, SegmentRef};
pub use pin::Pin;
pub use tree::{
    BuildTreeError, NodeIter, PostorderSegments, PreorderSegments, RouteTree, RouteTreeBuilder,
    Segment, TreeNode,
};

use grid::Cell;

/// An unrouted net: the pin set a router must connect.
///
/// `pins[0]` is the source. Benchmark parsers and generators produce
/// `NetSpec`s; the `route` crate turns them into routed [`Net`]s.
#[derive(Clone, PartialEq, Debug)]
pub struct NetSpec {
    /// Net name.
    pub name: String,
    /// Pins; index 0 is the source.
    pub pins: Vec<Pin>,
    /// Driver output resistance (Ω).
    pub driver_resistance: f64,
}

impl NetSpec {
    /// Creates a spec. `pins[0]` is the source.
    ///
    /// # Panics
    ///
    /// Panics if `pins` is empty.
    pub fn new(name: impl Into<String>, pins: Vec<Pin>) -> NetSpec {
        assert!(!pins.is_empty(), "net spec must have at least one pin");
        NetSpec {
            name: name.into(),
            pins,
            driver_resistance: 0.0,
        }
    }
}

/// A net: named pin set plus its routed topology.
///
/// `pins[0]` is the source (driver); all other pins are sinks. Every pin
/// must be attached to a node of the tree (checked by
/// [`Net::validate`]).
#[derive(Clone, PartialEq, Debug)]
pub struct Net {
    name: String,
    pins: Vec<Pin>,
    tree: RouteTree,
    /// Output resistance of the driving cell (Ω). Added in front of the
    /// Elmore model; defaults to 0 (pure interconnect delay, as in the
    /// paper's formulation).
    pub driver_resistance: f64,
}

impl Net {
    /// Creates a net from pins and a routed tree. `pins[0]` is the source.
    ///
    /// # Panics
    ///
    /// Panics if `pins` is empty.
    pub fn new(name: impl Into<String>, pins: Vec<Pin>, tree: RouteTree) -> Net {
        assert!(!pins.is_empty(), "net must have at least one pin");
        Net {
            name: name.into(),
            pins,
            tree,
            driver_resistance: 0.0,
        }
    }

    /// The net's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All pins; index 0 is the source.
    pub fn pins(&self) -> &[Pin] {
        &self.pins
    }

    /// The source (driver) pin.
    pub fn source(&self) -> &Pin {
        &self.pins[0]
    }

    /// The sink pins (all pins except the source).
    pub fn sinks(&self) -> &[Pin] {
        &self.pins[1..]
    }

    /// The routed topology.
    pub fn tree(&self) -> &RouteTree {
        &self.tree
    }

    /// Mutable access to the routed topology (used by routers).
    pub fn tree_mut(&mut self) -> &mut RouteTree {
        &mut self.tree
    }

    /// Checks structural invariants: the tree is valid, every pin location
    /// has a tree node carrying that pin's index, and the root carries the
    /// source pin.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation found.
    pub fn validate(&self, width: u16, height: u16) -> Result<(), String> {
        self.tree.validate(width, height)?;
        let mut seen = vec![false; self.pins.len()];
        for node in self.tree.nodes() {
            if let Some(p) = node.pin {
                let p = p as usize;
                if p >= self.pins.len() {
                    return Err(format!(
                        "net {}: node references pin {} of {}",
                        self.name,
                        p,
                        self.pins.len()
                    ));
                }
                if seen[p] {
                    return Err(format!("net {}: pin {p} attached to two nodes", self.name));
                }
                if self.pins[p].cell != node.cell {
                    return Err(format!(
                        "net {}: pin {p} at {} attached to node at {}",
                        self.name, self.pins[p].cell, node.cell
                    ));
                }
                seen[p] = true;
            }
        }
        if let Some(missing) = seen.iter().position(|s| !s) {
            return Err(format!(
                "net {}: pin {missing} not attached to any node",
                self.name
            ));
        }
        if self.tree.node(self.tree.root()).pin != Some(0) {
            return Err(format!(
                "net {}: root node does not carry the source pin",
                self.name
            ));
        }
        Ok(())
    }

    /// Enumerates the via stacks implied by assigning this net's segments
    /// to `layers` (`layers[s]` = layer of segment `s`), node by node, as
    /// `(cell, lowest layer, highest layer)` triples. Nodes where all
    /// incident metal sits on one layer produce no stack. Nothing is
    /// collected.
    ///
    /// At a pin node the stack must extend down to `pin_layer`
    /// (conventionally 0, the pin/device layer).
    ///
    /// # Panics
    ///
    /// Panics if `layers.len() != self.tree().num_segments()`.
    pub fn via_stacks<'a>(
        &'a self,
        layers: &'a [usize],
    ) -> impl Iterator<Item = (Cell, usize, usize)> + 'a {
        assert_eq!(layers.len(), self.tree.num_segments());
        self.tree.nodes().enumerate().filter_map(move |(ni, node)| {
            self.stack_span(ni, node.pin, layers)
                .map(|(lo, hi)| (node.cell, lo, hi))
        })
    }

    /// Total via count of the net under `layers`: the number of
    /// layer-boundary hops summed over all via stacks.
    ///
    /// # Panics
    ///
    /// Panics if `layers.len() != self.tree().num_segments()`.
    pub fn via_count(&self, layers: &[usize]) -> u64 {
        self.via_stacks(layers)
            .map(|(_, lo, hi)| (hi - lo) as u64)
            .sum()
    }

    /// The `(lowest, highest)` layer of the metal meeting at node `ni`
    /// (its parent segment, child segments and pin), or `None` when it
    /// all sits on one layer.
    fn stack_span(&self, ni: usize, pin: Option<u32>, layers: &[usize]) -> Option<(usize, usize)> {
        let mut lo = usize::MAX;
        let mut hi = 0usize;
        let mut touch = |l: usize| {
            lo = lo.min(l);
            hi = hi.max(l);
        };
        if let Some(seg) = self.tree.parent_segment(ni) {
            touch(layers[seg]);
        }
        for &child_seg in self.tree.child_segments(ni) {
            touch(layers[child_seg as usize]);
        }
        if let Some(p) = pin {
            touch(self.pins[p as usize].layer);
        }
        (lo < hi).then_some((lo, hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid::Cell;

    fn l_net() -> Net {
        let mut b = RouteTreeBuilder::new(Cell::new(0, 0));
        let corner = b.add_path(b.root(), &[Cell::new(2, 0)]).unwrap();
        let end = b.add_path(corner, &[Cell::new(2, 2)]).unwrap();
        b.attach_pin(b.root(), 0).unwrap();
        b.attach_pin(end, 1).unwrap();
        Net::new(
            "l",
            vec![
                Pin::source(Cell::new(0, 0), 20.0),
                Pin::sink(Cell::new(2, 2), 1.5),
            ],
            b.build().unwrap(),
        )
    }

    #[test]
    fn l_net_validates() {
        l_net().validate(8, 8).unwrap();
    }

    #[test]
    fn validate_rejects_unattached_pin() {
        let mut net = l_net();
        net.pins.push(Pin::sink(Cell::new(5, 5), 1.0));
        let err = net.validate(8, 8).unwrap_err();
        assert!(err.contains("pin 2 not attached"), "{err}");
    }

    #[test]
    fn via_stacks_same_layer_only_pin_vias() {
        let net = l_net();
        // Both segments on layer 0: pin at root is layer 0 too -> only the
        // sink-side node has no gap either. No stacks except none at all,
        // because segment layers and pin layers all equal 0.
        let stacks: Vec<_> = net.via_stacks(&[0, 0]).collect();
        assert!(stacks.is_empty(), "{stacks:?}");
        assert_eq!(net.via_count(&[0, 0]), 0);
    }

    mod via_properties {
        use super::*;

        /// For every assignment of the L-net: (1) via_count equals
        /// the summed stack spans, (2) every stack covers all layers
        /// of metal incident at its node, (3) stacks are at tree
        /// node cells only. The candidate space is tiny, so this is
        /// exhaustive rather than sampled.
        #[test]
        fn stacks_are_consistent() {
            for h in 0usize..2 {
                for v in 0usize..2 {
                    check_stacks(h, v);
                }
            }
        }

        fn check_stacks(h: usize, v: usize) {
            let net = l_net();
            // Horizontal candidates 0/2, vertical 1/3.
            let layers = [h * 2, 1 + v * 2];
            let stacks: Vec<_> = net.via_stacks(&layers).collect();
            let span_sum: u64 = stacks.iter().map(|&(_, lo, hi)| (hi - lo) as u64).sum();
            assert_eq!(net.via_count(&layers), span_sum);
            let node_cells: Vec<_> = net.tree().nodes().map(|n| n.cell).collect();
            for &(cell, lo, hi) in &stacks {
                assert!(lo < hi);
                assert!(node_cells.contains(&cell));
            }
            // The corner node's stack must span both segment layers.
            let corner = Cell::new(2, 0);
            let corner_stack = stacks.iter().find(|&&(c, _, _)| c == corner);
            let (lo_exp, hi_exp) = (layers[0].min(layers[1]), layers[0].max(layers[1]));
            match corner_stack {
                Some(&(_, lo, hi)) => {
                    assert!(lo <= lo_exp && hi >= hi_exp);
                }
                None => assert_eq!(lo_exp, hi_exp),
            }
        }
    }

    #[test]
    fn via_stacks_span_layer_gaps() {
        let net = l_net();
        // Segment 0 (horizontal) on layer 2, segment 1 (vertical) on 1.
        let stacks: Vec<_> = net.via_stacks(&[2, 1]).collect();
        // Root: pin layer 0 + segment layer 2 -> (0..2).
        assert!(stacks.contains(&(Cell::new(0, 0), 0, 2)));
        // Corner: segment layers 2 and 1 -> (1..2).
        assert!(stacks.contains(&(Cell::new(2, 0), 1, 2)));
        // Sink node: pin layer 0 + segment layer 1 -> (0..1).
        assert!(stacks.contains(&(Cell::new(2, 2), 0, 1)));
        assert_eq!(net.via_count(&[2, 1]), 2 + 1 + 1);
    }

    /// A random tree of up to `max_segments` straight segments grown from
    /// random nodes, with the source at the root and sinks on random
    /// other nodes, every pin on a random layer below `layers`.
    fn random_net(rng: &mut prng::Rng, max_segments: usize, layers: usize) -> Net {
        let mut b = random_tree(rng, max_segments);
        let mut pins =
            vec![Pin::source(Cell::new(32, 32), 1.0).on_layer(rng.range_usize(0, layers - 1))];
        b.attach_pin(b.root(), 0).unwrap();
        for n in 1..b.num_nodes() {
            if rng.bool(0.4) {
                let cell = b.node_cell(n);
                b.attach_pin(n, pins.len() as u32).unwrap();
                pins.push(Pin::sink(cell, 1.0).on_layer(rng.range_usize(0, layers - 1)));
            }
        }
        Net::new("random", pins, b.build().unwrap())
    }

    /// The tree of [`random_net`]: up to `max_segments` straight
    /// segments grown from random nodes around (32, 32).
    fn random_tree(rng: &mut prng::Rng, max_segments: usize) -> RouteTreeBuilder {
        let mut b = RouteTreeBuilder::new(Cell::new(32, 32));
        for _ in 0..rng.range_usize(1, max_segments) {
            let from = rng.range_usize(0, b.num_nodes() - 1);
            let at = b.node_cell(from);
            let len = rng.range_u16(1, 4);
            // Steps toward the origin clamp at 0; a clamped zero-length
            // step is skipped below.
            let to = match rng.range_usize(0, 3) {
                0 => Cell::new(at.x + len, at.y),
                1 => Cell::new(at.x.saturating_sub(len), at.y),
                2 => Cell::new(at.x, at.y + len),
                _ => Cell::new(at.x, at.y.saturating_sub(len)),
            };
            if to != at && b.find_node_at(to).is_none() {
                b.add_segment(from, to).unwrap();
            }
        }
        b
    }

    /// Checks the walk contract on `tree`: each walk yields every
    /// segment exactly once, postorder after every segment below it and
    /// preorder before every segment below it.
    fn assert_walk_contract(tree: &RouteTree) {
        let n = tree.num_segments();
        let walks: [(&str, Vec<usize>, bool); 2] = [
            (
                "postorder",
                tree.postorder_segments().take(n + 1).collect(),
                false,
            ),
            (
                "preorder",
                tree.preorder_segments().take(n + 1).collect(),
                true,
            ),
        ];
        for (name, order, parents_first) in walks {
            assert_eq!(
                order.len(),
                n,
                "{name} yields {} of {n} segments",
                order.len()
            );
            let mut pos = vec![usize::MAX; n];
            for (i, &s) in order.iter().enumerate() {
                assert_eq!(pos[s], usize::MAX, "{name} yields segment {s} twice");
                pos[s] = i;
            }
            for s in 0..n {
                let mut above = tree.parent_segment(tree.segment(s).from as usize);
                while let Some(a) = above {
                    assert_eq!(
                        pos[a] < pos[s],
                        parents_first,
                        "{name}: segment {a} is above segment {s}"
                    );
                    above = tree.parent_segment(tree.segment(a).from as usize);
                }
            }
        }
    }

    /// The segment walks keep their contract on one-segment trees, deep
    /// chains, fan-out nodes, and random trees with split segments whose
    /// split nodes branch again.
    #[test]
    fn segment_walks_visit_children_first_or_parents_first() {
        let build = |b: RouteTreeBuilder| b.build().unwrap();

        let mut one = RouteTreeBuilder::new(Cell::new(0, 0));
        one.add_segment(0, Cell::new(3, 0)).unwrap();
        assert_walk_contract(&build(one));

        let mut chain = RouteTreeBuilder::new(Cell::new(0, 0));
        let mut at = 0;
        for k in 1..=300u16 {
            let cell = Cell::new(k.div_ceil(2), k / 2);
            at = chain.add_segment(at, cell).unwrap();
        }
        assert_walk_contract(&build(chain));

        let mut fan = RouteTreeBuilder::new(Cell::new(8, 8));
        for (dx, dy) in [(3, 0), (0, 3)] {
            let arm = fan.add_segment(0, Cell::new(8 + dx, 8 + dy)).unwrap();
            fan.add_segment(arm, Cell::new(8 + 2 * dx, 8 + 2 * dy))
                .unwrap();
        }
        fan.add_segment(0, Cell::new(2, 8)).unwrap();
        fan.add_segment(0, Cell::new(8, 2)).unwrap();
        assert_walk_contract(&build(fan));

        let mut rng = prng::Rng::seed_from_u64(0x3a1c);
        let mut splits = 0;
        for _ in 0..400 {
            let mut b = random_tree(&mut rng, 16);
            for _ in 0..rng.range_usize(0, 3) {
                // A horizontal leg of length 2..=6 from a random node,
                // split at a random interior cell that then branches.
                let from = rng.range_usize(0, b.num_nodes() - 1);
                let at = b.node_cell(from);
                let len = rng.range_u16(2, 6);
                let end = b.add_segment(from, Cell::new(at.x + len, at.y)).unwrap();
                // Nodes and segments are created in pairs, so the new
                // leg is segment `end - 1`.
                let cut = Cell::new(at.x + rng.range_u16(1, len - 1), at.y);
                let mid = b.split_segment_at(end - 1, cut).unwrap();
                b.add_segment(mid, Cell::new(cut.x, cut.y + rng.range_u16(1, 3)))
                    .unwrap();
                splits += 1;
            }
            assert_walk_contract(&build(b));
        }
        assert!(splits > 0, "the sweep split no segment");
    }

    /// `via_count` equals the summed spans of `via_stacks` on random
    /// trees, pin layers and segment layers.
    #[test]
    fn via_count_sums_the_stack_spans_on_random_trees() {
        let mut rng = prng::Rng::seed_from_u64(0x51ac);
        let mut stacked = 0;
        for _ in 0..300 {
            let layers = rng.range_usize(1, 8);
            let net = random_net(&mut rng, 12, layers);
            let x: Vec<usize> = (0..net.tree().num_segments())
                .map(|_| rng.range_usize(0, layers - 1))
                .collect();
            let stacks: Vec<_> = net.via_stacks(&x).collect();
            let spans: u64 = stacks.iter().map(|&(_, lo, hi)| (hi - lo) as u64).sum();
            assert_eq!(net.via_count(&x), spans, "layers {x:?}");
            stacked += usize::from(stacks.len() > 1);
        }
        assert!(stacked > 0, "no tree had two stacks");
    }

    /// Every segment's edge run walks the flat indices of
    /// `segment_edges`, in order, on random trees over grids fitted
    /// tightly (or with a little slack) around them, so segments reach
    /// the last row and column.
    #[test]
    fn segment_runs_walk_segment_edges_on_random_trees() {
        use grid::{Direction, GridBuilder};

        let mut rng = prng::Rng::seed_from_u64(0x4e75);
        let (mut descending, mut unit, mut last_col, mut last_row) = (0, 0, 0, 0);
        for _ in 0..300 {
            let net = random_net(&mut rng, 12, 2);
            let tree = net.tree();
            let max_x = tree.nodes().map(|n| n.cell.x).max().unwrap();
            let max_y = tree.nodes().map(|n| n.cell.y).max().unwrap();
            let (w, h) = (
                max_x + 1 + rng.range_u16(0, 1),
                max_y + 1 + rng.range_u16(0, 1),
            );
            let grid = GridBuilder::new(w, h)
                .alternating_layers(2, Direction::Horizontal)
                .build()
                .unwrap();
            for s in 0..tree.num_segments() {
                let edges = tree.segment_edges(s);
                let flat: Vec<usize> = edges.iter().map(|&e| grid.edge_flat_index(e)).collect();
                let run = tree.segment_run(s, &grid);
                assert_eq!(run.indices().collect::<Vec<_>>(), flat, "segment {s}");
                let seg = tree.segment(s);
                let (a, b) = (
                    tree.node(seg.from as usize).cell,
                    tree.node(seg.to as usize).cell,
                );
                descending += usize::from(b < a);
                unit += usize::from(edges.len() == 1);
                last_col += usize::from(a.x.max(b.x) + 1 == w);
                last_row += usize::from(a.y.max(b.y) + 1 == h);
            }
        }
        assert!(
            [descending, unit, last_col, last_row]
                .iter()
                .all(|&n| n > 0),
            "sweep missed a case: descending {descending}, length 1 {unit}, \
             last column {last_col}, last row {last_row}"
        );
    }
}
