//! Design-wide arena: every net's segments and nodes laid out back to
//! back in flat arrays, addressed by typed ids.
//!
//! The per-net [`RouteTree`](crate::RouteTree) is already
//! structure-of-arrays; the arena adds the *cross-net* layout a
//! million-segment design needs: one CSR range per net into design-global
//! segment/node index spaces, plus the per-segment derived data the hot
//! paths consume (partition anchors, lengths, owning net). Downstream
//! code indexes dense vectors by [`SegId`] instead of hashing
//! [`SegmentRef`](crate::SegmentRef)s.
//!
//! Arenas are built net by net ([`DesignArena::push_net`]) so a streaming
//! parser/router can feed them without a resident intermediate netlist,
//! or in one shot from a finished [`Netlist`] via
//! [`DesignArena::from_netlist`].
//!
//! In debug builds each arena carries a generation tag and stamps it into
//! every id it mints; accessors verify the tag, so ids cannot silently
//! cross arenas (see [`crate::ids`]).

use grid::Cell;

use crate::ids::{NetId, NodeId, SegId};
use crate::{Net, Netlist};

/// Flat design-wide index of all nets' segments and nodes.
#[derive(Clone, Debug, Default)]
pub struct DesignArena {
    /// Generation tag stamped into minted ids (debug builds).
    #[cfg(debug_assertions)]
    tag: u32,
    /// CSR: net `n` owns global segments `seg_start[n]..seg_start[n+1]`.
    seg_start: Vec<u32>,
    /// CSR: net `n` owns global nodes `node_start[n]..node_start[n+1]`.
    node_start: Vec<u32>,
    /// Partition anchor (segment midpoint) per global segment.
    anchor: Vec<Cell>,
    /// Length in grid edges per global segment.
    seg_len: Vec<u32>,
    /// Owning net per global segment.
    seg_net: Vec<u32>,
}

impl DesignArena {
    /// An empty arena ready for [`DesignArena::push_net`].
    pub fn new() -> DesignArena {
        DesignArena {
            #[cfg(debug_assertions)]
            tag: crate::ids::next_generation(),
            seg_start: vec![0],
            node_start: vec![0],
            anchor: Vec::new(),
            seg_len: Vec::new(),
            seg_net: Vec::new(),
        }
    }

    /// Builds the arena over a finished netlist, in net order.
    pub fn from_netlist(netlist: &Netlist) -> DesignArena {
        let mut arena = DesignArena::new();
        for net in netlist.nets() {
            arena.push_net(net);
        }
        arena
    }

    /// Appends one net's segments and nodes — the streaming seam: callers
    /// that parse and route net by net never need the whole design
    /// resident to grow the arena. Returns the net's id.
    pub fn push_net(&mut self, net: &Net) -> NetId {
        let ni = self.seg_start.len() - 1;
        let tree = net.tree();
        for s in 0..tree.num_segments() {
            let seg = tree.segment(s);
            let a = tree.node(seg.from as usize).cell;
            let b = tree.node(seg.to as usize).cell;
            // Midpoint anchor, identical to the partitioner's historical
            // per-call computation (u16 arithmetic; grid coordinates stay
            // far below the u16 midpoint-overflow bound).
            self.anchor
                .push(Cell::new((a.x + b.x) / 2, (a.y + b.y) / 2));
            self.seg_len.push(tree.segment_length(s));
            self.seg_net.push(ni as u32);
        }
        self.seg_start.push(self.anchor.len() as u32);
        #[expect(
            clippy::expect_used,
            reason = "node_start is seeded with a leading 0 at construction and only ever \
                      appended to, so `last()` exists"
        )]
        let nodes =
            *self.node_start.last().expect("CSR starts non-empty") as usize + tree.num_nodes();
        self.node_start.push(nodes as u32);
        NetId::new(ni as u32, self.generation())
    }

    fn generation(&self) -> u32 {
        #[cfg(debug_assertions)]
        {
            self.tag
        }
        #[cfg(not(debug_assertions))]
        {
            0
        }
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.seg_start.len() - 1
    }

    /// Total number of segments across all nets.
    pub fn num_segments(&self) -> usize {
        self.anchor.len()
    }

    /// Total number of tree nodes across all nets.
    #[expect(
        clippy::expect_used,
        reason = "node_start is seeded with a leading 0 at construction and only ever appended \
                  to, so `last()` exists"
    )]
    pub fn num_nodes(&self) -> usize {
        *self.node_start.last().expect("CSR starts non-empty") as usize
    }

    /// The id of net `net` (by netlist index).
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    pub fn net_id(&self, net: usize) -> NetId {
        assert!(net < self.num_nets(), "net {net} out of range");
        NetId::new(net as u32, self.generation())
    }

    /// The design-global id of segment `seg` of net `net` (both by
    /// plain index, mirroring [`SegmentRef`](crate::SegmentRef)).
    ///
    /// # Panics
    ///
    /// Panics if the segment does not exist.
    pub fn seg_id(&self, net: usize, seg: usize) -> SegId {
        let lo = self.seg_start[net] as usize;
        let hi = self.seg_start[net + 1] as usize;
        assert!(seg < hi - lo, "segment {seg} out of range for net {net}");
        SegId::new((lo + seg) as u32, self.generation())
    }

    /// First design-global segment index of net `net` — the base for
    /// turning per-net segment indices into dense table slots.
    pub fn seg_base(&self, net: usize) -> usize {
        self.seg_start[net] as usize
    }

    /// Design-global segment range of net `id`.
    pub fn seg_range(&self, id: NetId) -> std::ops::Range<usize> {
        id.check(self.generation());
        let n = id.index();
        self.seg_start[n] as usize..self.seg_start[n + 1] as usize
    }

    /// First design-global node index of net `net`.
    pub fn node_base(&self, net: usize) -> usize {
        self.node_start[net] as usize
    }

    /// Design-global node range of net `id`.
    pub fn node_range(&self, id: NetId) -> std::ops::Range<usize> {
        id.check(self.generation());
        let n = id.index();
        self.node_start[n] as usize..self.node_start[n + 1] as usize
    }

    /// The design-global id of node `node` of net `net`.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist.
    pub fn node_id(&self, net: usize, node: usize) -> NodeId {
        let lo = self.node_start[net] as usize;
        let hi = self.node_start[net + 1] as usize;
        assert!(node < hi - lo, "node {node} out of range for net {net}");
        NodeId::new((lo + node) as u32, self.generation())
    }

    /// The net owning node `id` (binary search over the node CSR).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node_net(&self, id: NodeId) -> NetId {
        id.check(self.generation());
        assert!(id.index() < self.num_nodes(), "node id out of range");
        // First net whose range ends beyond the node.
        let n = self
            .node_start
            .partition_point(|&start| start as usize <= id.index())
            - 1;
        NetId::new(n as u32, self.generation())
    }

    /// Partition anchor (midpoint cell) of segment `id`.
    pub fn anchor(&self, id: SegId) -> Cell {
        id.check(self.generation());
        self.anchor[id.index()]
    }

    /// All anchors, indexed by design-global segment index.
    pub fn anchors(&self) -> &[Cell] {
        &self.anchor
    }

    /// Length in grid edges of segment `id`.
    pub fn seg_len(&self, id: SegId) -> u32 {
        id.check(self.generation());
        self.seg_len[id.index()]
    }

    /// The net owning segment `id`.
    pub fn seg_net(&self, id: SegId) -> NetId {
        id.check(self.generation());
        NetId::new(self.seg_net[id.index()], self.generation())
    }

    /// The within-net segment index of `id` (its
    /// [`SegmentRef`](crate::SegmentRef) `seg` component).
    pub fn seg_offset(&self, id: SegId) -> usize {
        id.check(self.generation());
        let g = id.index();
        g - self.seg_start[self.seg_net[g] as usize] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Pin, RouteTreeBuilder};

    fn two_net_list() -> Netlist {
        let mut nl = Netlist::new();
        for (i, len) in [3u16, 5].iter().enumerate() {
            let y = i as u16;
            let mut b = RouteTreeBuilder::new(Cell::new(0, y));
            let mid = b.add_segment(b.root(), Cell::new(2, y)).unwrap();
            let end = b.add_segment(mid, Cell::new(*len, y)).unwrap();
            b.attach_pin(b.root(), 0).unwrap();
            b.attach_pin(end, 1).unwrap();
            nl.push(Net::new(
                format!("n{i}"),
                vec![
                    Pin::source(Cell::new(0, y), 0.0),
                    Pin::sink(Cell::new(*len, y), 1.0),
                ],
                b.build().unwrap(),
            ));
        }
        nl
    }

    #[test]
    fn layout_matches_netlist() {
        let nl = two_net_list();
        let arena = DesignArena::from_netlist(&nl);
        assert_eq!(arena.num_nets(), 2);
        assert_eq!(arena.num_segments(), nl.num_segments());
        let total_nodes: usize = nl.nets().iter().map(|n| n.tree().num_nodes()).sum();
        assert_eq!(arena.num_nodes(), total_nodes);
        // Global ids are contiguous per net, in net order.
        assert_eq!(arena.seg_id(0, 0).index(), 0);
        assert_eq!(arena.seg_id(1, 0).index(), nl.net(0).tree().num_segments());
        let id = arena.seg_id(1, 1);
        assert_eq!(arena.seg_offset(id), 1);
        assert_eq!(arena.seg_net(id).index(), 1);
        assert_eq!(arena.seg_range(arena.net_id(1)).len(), 2);
    }

    #[test]
    fn anchors_are_segment_midpoints() {
        let nl = two_net_list();
        let arena = DesignArena::from_netlist(&nl);
        for (ni, net) in nl.nets().iter().enumerate() {
            let tree = net.tree();
            for s in 0..tree.num_segments() {
                let seg = tree.segment(s);
                let a = tree.node(seg.from as usize).cell;
                let b = tree.node(seg.to as usize).cell;
                let mid = Cell::new((a.x + b.x) / 2, (a.y + b.y) / 2);
                assert_eq!(arena.anchor(arena.seg_id(ni, s)), mid);
                assert_eq!(arena.seg_len(arena.seg_id(ni, s)), tree.segment_length(s));
            }
        }
    }

    #[test]
    fn incremental_push_matches_bulk_build() {
        let nl = two_net_list();
        let bulk = DesignArena::from_netlist(&nl);
        let mut inc = DesignArena::new();
        for net in nl.nets() {
            inc.push_net(net);
        }
        assert_eq!(inc.num_segments(), bulk.num_segments());
        assert_eq!(inc.anchors(), bulk.anchors());
    }

    #[test]
    fn node_net_inverts_node_id() {
        let nl = two_net_list();
        let arena = DesignArena::from_netlist(&nl);
        for ni in 0..arena.num_nets() {
            for node in 0..nl.net(ni).tree().num_nodes() {
                let id = arena.node_id(ni, node);
                assert_eq!(arena.node_net(id).index(), ni);
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "different arena")]
    fn stale_node_id_panics_in_debug() {
        let nl = two_net_list();
        let a = DesignArena::from_netlist(&nl);
        let b = DesignArena::from_netlist(&nl);
        let id = a.node_id(0, 1);
        let _ = b.node_net(id);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "different arena")]
    fn stale_seg_id_panics_in_debug() {
        let nl = two_net_list();
        let old = DesignArena::from_netlist(&nl);
        let id = old.seg_id(0, 0);
        // Rebuild (e.g. after rerouting): ids minted before the rebuild
        // must not silently index the new arena.
        let rebuilt = DesignArena::from_netlist(&nl);
        let _ = rebuilt.anchor(id);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "different arena")]
    fn cross_design_net_id_panics_in_debug() {
        let nl = two_net_list();
        let a = DesignArena::from_netlist(&nl);
        let b = DesignArena::from_netlist(&nl);
        let id = a.net_id(1);
        let _ = b.seg_range(id);
    }
}
