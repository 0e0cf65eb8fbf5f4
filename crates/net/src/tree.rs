//! Routed net topologies: trees of straight wire segments.
//!
//! A [`RouteTree`] lives in three exact-size heap blocks: one record per
//! node (cell, parent, parent segment, pin and the offset of its child
//! segments) plus one closing record, the child-segment array those
//! offsets index (CSR layout: node `n` owns the range from its offset to
//! the next record's), and the segment array. A routed design keeps one
//! tree per net for the whole of layer assignment, so a tree costs three
//! allocations and a 48-byte header, not one per field. [`TreeNode`] is
//! a cheap by-value view of a node record. The builder keeps each node's
//! children as a linked list in insertion order and flattens it into the
//! CSR range, and the segment walks ([`RouteTree::postorder_segments`],
//! [`RouteTree::preorder_segments`]) follow the records and the child
//! array without a stack.

use std::error::Error;
use std::fmt;

use grid::{Cell, Direction, Edge2d, EdgeRun, Grid};

/// Sentinel for "no index" in the flat `u32` arrays (`Option<u32>` at
/// the API surface).
const NONE: u32 = u32::MAX;

fn opt(v: u32) -> Option<u32> {
    if v == NONE {
        None
    } else {
        Some(v)
    }
}

/// Error returned by [`RouteTreeBuilder`] methods.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum BuildTreeError {
    /// A path waypoint is not rectilinear with respect to its predecessor.
    NotRectilinear {
        /// Start of the offending leg.
        from: Cell,
        /// End of the offending leg.
        to: Cell,
    },
    /// A path leg has zero length.
    ZeroLength(Cell),
    /// A referenced node index does not exist.
    UnknownNode(usize),
    /// A pin index was attached twice to the same tree.
    PinAlreadyAttached(u32),
    /// The builder holds no segments (single-node trees are only valid for
    /// single-pin nets, which carry no layer-assignment freedom).
    Empty,
}

impl fmt::Display for BuildTreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildTreeError::NotRectilinear { from, to } => {
                write!(f, "path leg {from}->{to} is not axis-aligned")
            }
            BuildTreeError::ZeroLength(c) => {
                write!(f, "zero-length path leg at {c}")
            }
            BuildTreeError::UnknownNode(n) => write!(f, "unknown node {n}"),
            BuildTreeError::PinAlreadyAttached(p) => {
                write!(f, "pin {p} already attached")
            }
            BuildTreeError::Empty => f.write_str("tree has no segments"),
        }
    }
}

impl Error for BuildTreeError {}

/// A vertex of a [`RouteTree`]: a grid cell, its tree links, and an
/// optional pin. This is a by-value view assembled from the tree's flat
/// arrays; child segments are served separately by
/// [`RouteTree::child_segments`].
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct TreeNode {
    /// Location of the node.
    pub cell: Cell,
    /// Parent node index (`None` for the root).
    pub parent: Option<u32>,
    /// Segment connecting this node to its parent.
    pub parent_segment: Option<u32>,
    /// Pin index within the owning net, if a pin sits here.
    pub pin: Option<u32>,
}

/// A straight wire of a [`RouteTree`], directed parent → child.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Segment {
    /// Parent-side node index.
    pub from: u32,
    /// Child-side node index.
    pub to: u32,
    /// Orientation (horizontal segments vary in x).
    pub dir: Direction,
}

/// One node's record in a [`RouteTree`]'s node block.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
struct NodeRecord {
    cell: Cell,
    /// Parent node (`NONE` for the root).
    parent: u32,
    /// Segment to the parent (`NONE` for the root).
    parent_seg: u32,
    /// Pin index (`NONE` when no pin sits here).
    pin: u32,
    /// Offset of the node's first child segment in the child array; the
    /// next record's offset ends its range.
    child_start: u32,
}

/// A routed 2-D topology: a tree of straight [`Segment`]s rooted at the
/// source pin's node (index 0), stored in three exact-size blocks (see
/// the module docs).
#[derive(Clone, PartialEq, Debug)]
pub struct RouteTree {
    /// One record per node, in index order, then a closing record whose
    /// `child_start` ends the last node's child range.
    nodes: Box<[NodeRecord]>,
    /// Child segment indices, grouped per node in insertion order.
    children: Box<[u32]>,
    segments: Box<[Segment]>,
}

impl RouteTree {
    /// The root node index (always 0; the source pin's node).
    pub fn root(&self) -> usize {
        0
    }

    /// All nodes, as by-value views in index order.
    pub fn nodes(&self) -> NodeIter<'_> {
        NodeIter {
            tree: self,
            next: 0,
        }
    }

    /// The node with index `n`, as a by-value view.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range. In release builds `n ==
    /// num_nodes()` reads the closing record, a childless root-like
    /// view, instead: the engines call this in their inner loops, and
    /// the one bounds check is part of their speed.
    pub fn node(&self, n: usize) -> TreeNode {
        let r = self.record(n);
        TreeNode {
            cell: r.cell,
            parent: opt(r.parent),
            parent_segment: opt(r.parent_seg),
            pin: opt(r.pin),
        }
    }

    /// The record of node `n`. The closing record is not a node, but
    /// only debug builds check that `n` stops short of it (see
    /// [`RouteTree::node`]).
    fn record(&self, n: usize) -> &NodeRecord {
        debug_assert!(n < self.num_nodes(), "node {n} out of range");
        &self.nodes[n]
    }

    /// All segments.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// The segment with index `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn segment(&self, s: usize) -> Segment {
        self.segments[s]
    }

    /// Number of segments.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Length of segment `s` in grid edges.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn segment_length(&self, s: usize) -> u32 {
        let seg = self.segments[s];
        self.nodes[seg.from as usize]
            .cell
            .manhattan(self.nodes[seg.to as usize].cell)
    }

    /// Index of the segment connecting node `n` to its parent. Range
    /// checks as in [`RouteTree::node`].
    pub fn parent_segment(&self, n: usize) -> Option<usize> {
        opt(self.record(n).parent_seg).map(|s| s as usize)
    }

    /// Segments from node `n` down to its children, in insertion order.
    pub fn child_segments(&self, n: usize) -> &[u32] {
        let lo = self.nodes[n].child_start as usize;
        let hi = self.nodes[n + 1].child_start as usize;
        &self.children[lo..hi]
    }

    /// The 2-D grid edges covered by segment `s`, in order from the
    /// parent-side endpoint.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn segment_edges(&self, s: usize) -> Vec<Edge2d> {
        let mut out = Vec::new();
        self.segment_edges_into(s, &mut out);
        out
    }

    /// [`RouteTree::segment_edges`] into a caller-kept buffer, which is
    /// cleared first: a caller walking many segments reuses one.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn segment_edges_into(&self, s: usize, out: &mut Vec<Edge2d>) {
        let seg = self.segments[s];
        let a = self.nodes[seg.from as usize].cell;
        let b = self.nodes[seg.to as usize].cell;
        out.clear();
        out.reserve_exact(a.manhattan(b) as usize);
        match seg.dir {
            Direction::Horizontal => {
                let (x0, x1) = (a.x.min(b.x), a.x.max(b.x));
                if a.x <= b.x {
                    for x in x0..x1 {
                        out.push(Edge2d::horizontal(x, a.y));
                    }
                } else {
                    for x in (x0..x1).rev() {
                        out.push(Edge2d::horizontal(x, a.y));
                    }
                }
            }
            Direction::Vertical => {
                let (y0, y1) = (a.y.min(b.y), a.y.max(b.y));
                if a.y <= b.y {
                    for y in y0..y1 {
                        out.push(Edge2d::vertical(a.x, y));
                    }
                } else {
                    for y in (y0..y1).rev() {
                        out.push(Edge2d::vertical(a.x, y));
                    }
                }
            }
        }
    }

    /// The run of `grid`'s flat edge array that segment `s` covers: the
    /// edges of [`RouteTree::segment_edges`], in the same order, without
    /// building them.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range or the segment leaves the grid.
    pub fn segment_run(&self, s: usize, grid: &Grid) -> EdgeRun {
        let seg = self.segments[s];
        grid.edge_run(
            self.nodes[seg.from as usize].cell,
            self.nodes[seg.to as usize].cell,
        )
    }

    /// Every segment once, each after all segments in the subtree below
    /// it: the evaluation order for downstream capacitance.
    ///
    /// The contract is children first and nothing more: siblings come in
    /// no promised order. Every consumer combines a node's children over
    /// [`RouteTree::child_segments`] in insertion order, so any
    /// children-first order gives the same bits. The walk follows the
    /// parent and child arrays and allocates nothing.
    pub fn postorder_segments(&self) -> PostorderSegments<'_> {
        let next = match self.child_segments(self.root()).first() {
            Some(&first) => self.first_leaf_segment(first),
            None => NONE,
        };
        PostorderSegments { tree: self, next }
    }

    /// Every segment once, each before all segments in the subtree below
    /// it: the top-down accumulation order for Elmore delay.
    ///
    /// As with [`RouteTree::postorder_segments`], parents first is the
    /// whole contract; siblings come in no promised order. The walk
    /// allocates nothing.
    pub fn preorder_segments(&self) -> PreorderSegments<'_> {
        let next = self
            .child_segments(self.root())
            .first()
            .copied()
            .unwrap_or(NONE);
        PreorderSegments { tree: self, next }
    }

    /// The segment at the bottom of the first-child chain that starts at
    /// segment `s`.
    fn first_leaf_segment(&self, mut s: u32) -> u32 {
        while let Some(&first) = self
            .child_segments(self.segments[s as usize].to as usize)
            .first()
        {
            s = first;
        }
        s
    }

    /// The child segment after `s` at `s`'s parent-side node, if any.
    fn next_sibling(&self, s: u32) -> Option<u32> {
        let siblings = self.child_segments(self.segments[s as usize].from as usize);
        let at = siblings.iter().position(|&c| c == s)?;
        siblings.get(at + 1).copied()
    }

    /// The segments on the path from the root to node `n`, root side
    /// first.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn path_segments(&self, n: usize) -> Vec<usize> {
        let mut path = Vec::new();
        let mut cur = n;
        while let Some(seg) = self.parent_segment(cur) {
            path.push(seg);
            cur = self.segments[seg].from as usize;
        }
        path.reverse();
        path
    }

    /// Finds the node at `cell`, if any.
    pub fn find_node_at(&self, cell: Cell) -> Option<usize> {
        self.nodes[..self.num_nodes()]
            .iter()
            .position(|r| r.cell == cell)
    }

    /// Total wirelength in grid edges.
    pub fn wirelength(&self) -> u64 {
        (0..self.segments.len())
            .map(|s| self.segment_length(s) as u64)
            .sum()
    }

    /// Checks structural invariants: nodes in bounds, segments straight
    /// with positive length and consistent links, and no 2-D grid edge
    /// covered twice.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation.
    pub fn validate(&self, width: u16, height: u16) -> Result<(), String> {
        if self.segments.is_empty() {
            return Err("tree has no segments".into());
        }
        for (i, n) in self.nodes().enumerate() {
            if n.cell.x >= width || n.cell.y >= height {
                return Err(format!("node {i} at {} out of bounds", n.cell));
            }
            if i == 0 {
                if n.parent.is_some() || n.parent_segment.is_some() {
                    return Err("root has a parent".into());
                }
            } else if n.parent.is_none() || n.parent_segment.is_none() {
                return Err(format!("non-root node {i} has no parent"));
            }
        }
        let mut covered = std::collections::HashSet::new();
        for (s, seg) in self.segments.iter().enumerate() {
            let a = self.nodes[seg.from as usize].cell;
            let b = self.nodes[seg.to as usize].cell;
            if a.x != b.x && a.y != b.y {
                return Err(format!("segment {s} {a}->{b} is not straight"));
            }
            if a == b {
                return Err(format!("segment {s} at {a} has zero length"));
            }
            let expect_dir = if a.y == b.y {
                Direction::Horizontal
            } else {
                Direction::Vertical
            };
            if seg.dir != expect_dir {
                return Err(format!("segment {s} direction mismatch"));
            }
            if self.nodes[seg.to as usize].parent_seg != s as u32 {
                return Err(format!("segment {s} child link broken"));
            }
            for e in self.segment_edges(s) {
                if !covered.insert(e) {
                    return Err(format!("edge {e} covered twice"));
                }
            }
        }
        Ok(())
    }
}

/// Iterator over a tree's nodes as by-value [`TreeNode`] views.
#[derive(Clone, Debug)]
pub struct NodeIter<'a> {
    tree: &'a RouteTree,
    next: usize,
}

impl Iterator for NodeIter<'_> {
    type Item = TreeNode;

    fn next(&mut self) -> Option<TreeNode> {
        if self.next >= self.tree.num_nodes() {
            return None;
        }
        let n = self.tree.node(self.next);
        self.next += 1;
        Some(n)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.tree.num_nodes() - self.next;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for NodeIter<'_> {}

/// Children-first walk over a tree's segments; see
/// [`RouteTree::postorder_segments`].
#[derive(Clone, Debug)]
pub struct PostorderSegments<'a> {
    tree: &'a RouteTree,
    /// The segment to yield next (`NONE` once the walk is done).
    next: u32,
}

impl Iterator for PostorderSegments<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let s = self.next;
        if s == NONE {
            return None;
        }
        // The subtree below `s` is done. Descend into the next sibling's
        // subtree, or, with none left, finish the parent segment.
        self.next = match self.tree.next_sibling(s) {
            Some(sibling) => self.tree.first_leaf_segment(sibling),
            None => self.tree.nodes[self.tree.segments[s as usize].from as usize].parent_seg,
        };
        Some(s as usize)
    }
}

/// Parents-first walk over a tree's segments; see
/// [`RouteTree::preorder_segments`].
#[derive(Clone, Debug)]
pub struct PreorderSegments<'a> {
    tree: &'a RouteTree,
    /// The segment to yield next (`NONE` once the walk is done).
    next: u32,
}

impl Iterator for PreorderSegments<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let s = self.next;
        if s == NONE {
            return None;
        }
        let tree = self.tree;
        // Go down to the first child; at a leaf, climb until a segment
        // has a sibling left.
        self.next = match tree
            .child_segments(tree.segments[s as usize].to as usize)
            .first()
        {
            Some(&first) => first,
            None => {
                let mut up = s;
                loop {
                    if let Some(sibling) = tree.next_sibling(up) {
                        break sibling;
                    }
                    up = tree.nodes[tree.segments[up as usize].from as usize].parent_seg;
                    if up == NONE {
                        break NONE;
                    }
                }
            }
        };
        Some(s as usize)
    }
}

/// Builder-side node: its children are a linked list through
/// [`RouteTreeBuilder`]'s `next_sibling`, in insertion order.
#[derive(Copy, Clone, Debug)]
struct BuilderNode {
    cell: Cell,
    parent: u32,
    parent_seg: u32,
    pin: u32,
    /// First and last child segment (`NONE` when the node has none).
    first_child: u32,
    last_child: u32,
}

impl BuilderNode {
    fn leaf(cell: Cell, parent: u32, parent_seg: u32) -> BuilderNode {
        BuilderNode {
            cell,
            parent,
            parent_seg,
            pin: NONE,
            first_child: NONE,
            last_child: NONE,
        }
    }
}

/// Incremental builder for [`RouteTree`], used by routers.
///
/// One builder can serve many trees: [`RouteTreeBuilder::finish`] copies
/// the tree out and [`RouteTreeBuilder::reset`] starts the next one in
/// the same buffers.
#[derive(Clone, Debug)]
pub struct RouteTreeBuilder {
    nodes: Vec<BuilderNode>,
    segments: Vec<Segment>,
    /// The child segment after each segment at its parent-side node
    /// (`NONE` for the last).
    next_sibling: Vec<u32>,
}

impl RouteTreeBuilder {
    /// Starts a tree rooted at `root` (the source pin's cell).
    pub fn new(root: Cell) -> RouteTreeBuilder {
        RouteTreeBuilder {
            nodes: vec![BuilderNode::leaf(root, NONE, NONE)],
            segments: Vec::new(),
            next_sibling: Vec::new(),
        }
    }

    /// Discards the tree built so far and starts a new one rooted at
    /// `root`, keeping the buffers.
    pub fn reset(&mut self, root: Cell) {
        self.nodes.clear();
        self.nodes.push(BuilderNode::leaf(root, NONE, NONE));
        self.segments.clear();
        self.next_sibling.clear();
    }

    /// The root node index.
    pub fn root(&self) -> usize {
        0
    }

    /// Cell of node `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn node_cell(&self, n: usize) -> Cell {
        self.nodes[n].cell
    }

    /// Number of nodes created so far.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Appends segment `seg` to node `n`'s child list.
    fn push_child(&mut self, n: usize, seg: u32) {
        self.next_sibling.push(NONE);
        let node = &mut self.nodes[n];
        match node.last_child {
            NONE => node.first_child = seg,
            last => self.next_sibling[last as usize] = seg,
        }
        node.last_child = seg;
    }

    /// Appends one straight segment from node `from` to `to_cell`,
    /// creating and returning the new child node.
    ///
    /// # Errors
    ///
    /// Returns an error if `from` does not exist, the leg is not
    /// axis-aligned, or it has zero length.
    pub fn add_segment(&mut self, from: usize, to_cell: Cell) -> Result<usize, BuildTreeError> {
        let from_cell = self
            .nodes
            .get(from)
            .ok_or(BuildTreeError::UnknownNode(from))?
            .cell;
        if from_cell == to_cell {
            return Err(BuildTreeError::ZeroLength(to_cell));
        }
        let dir = if from_cell.y == to_cell.y {
            Direction::Horizontal
        } else if from_cell.x == to_cell.x {
            Direction::Vertical
        } else {
            return Err(BuildTreeError::NotRectilinear {
                from: from_cell,
                to: to_cell,
            });
        };
        // cast: node and segment counts of a tree fit the u32 indices.
        let node_idx = self.nodes.len() as u32;
        let seg_idx = self.segments.len() as u32;
        self.segments.push(Segment {
            from: from as u32,
            to: node_idx,
            dir,
        });
        self.nodes
            .push(BuilderNode::leaf(to_cell, from as u32, seg_idx));
        self.push_child(from, seg_idx);
        Ok(node_idx as usize)
    }

    /// Appends a rectilinear path through `waypoints` starting at node
    /// `from`; each leg becomes one segment. Returns the final node.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RouteTreeBuilder::add_segment`].
    pub fn add_path(&mut self, from: usize, waypoints: &[Cell]) -> Result<usize, BuildTreeError> {
        let mut cur = from;
        for &w in waypoints {
            cur = self.add_segment(cur, w)?;
        }
        Ok(cur)
    }

    /// Splits segment `seg` at `cell` (which must lie strictly inside it),
    /// creating and returning a new node there. Existing node and segment
    /// indices remain valid; `seg` keeps its parent-side half.
    ///
    /// # Errors
    ///
    /// Returns [`BuildTreeError::UnknownNode`] if `seg` is out of range
    /// (reported with the segment index), or
    /// [`BuildTreeError::NotRectilinear`] if `cell` is not strictly
    /// interior to the segment.
    pub fn split_segment_at(&mut self, seg: usize, cell: Cell) -> Result<usize, BuildTreeError> {
        let s = *self
            .segments
            .get(seg)
            .ok_or(BuildTreeError::UnknownNode(seg))?;
        let a = self.nodes[s.from as usize].cell;
        let b = self.nodes[s.to as usize].cell;
        let interior = match s.dir {
            Direction::Horizontal => {
                cell.y == a.y && cell.x > a.x.min(b.x) && cell.x < a.x.max(b.x)
            }
            Direction::Vertical => cell.x == a.x && cell.y > a.y.min(b.y) && cell.y < a.y.max(b.y),
        };
        if !interior {
            return Err(BuildTreeError::NotRectilinear { from: a, to: cell });
        }
        // cast: node and segment counts of a tree fit the u32 indices.
        let mid_idx = self.nodes.len() as u32;
        let new_seg_idx = self.segments.len() as u32;
        // New node takes over the child-side half.
        self.nodes.push(BuilderNode::leaf(cell, s.from, seg as u32));
        self.segments.push(Segment {
            from: mid_idx,
            to: s.to,
            dir: s.dir,
        });
        self.push_child(mid_idx as usize, new_seg_idx);
        // Original segment now ends at the new node.
        self.segments[seg].to = mid_idx;
        let old_child = &mut self.nodes[s.to as usize];
        old_child.parent = mid_idx;
        old_child.parent_seg = new_seg_idx;
        Ok(mid_idx as usize)
    }

    /// Attaches pin index `pin` (within the owning net) to node `node`.
    ///
    /// # Errors
    ///
    /// Returns an error if the node does not exist or already carries a
    /// pin.
    pub fn attach_pin(&mut self, node: usize, pin: u32) -> Result<(), BuildTreeError> {
        let n = self
            .nodes
            .get_mut(node)
            .ok_or(BuildTreeError::UnknownNode(node))?;
        if n.pin != NONE {
            return Err(BuildTreeError::PinAlreadyAttached(pin));
        }
        n.pin = pin;
        Ok(())
    }

    /// Finds an existing node at `cell`.
    pub fn find_node_at(&self, cell: Cell) -> Option<usize> {
        self.nodes.iter().position(|n| n.cell == cell)
    }

    /// Finds the segment whose interior passes through `cell`, if any.
    pub fn find_segment_through(&self, cell: Cell) -> Option<usize> {
        self.segments.iter().position(|s| {
            let a = self.nodes[s.from as usize].cell;
            let b = self.nodes[s.to as usize].cell;
            match s.dir {
                Direction::Horizontal => {
                    cell.y == a.y && cell.x > a.x.min(b.x) && cell.x < a.x.max(b.x)
                }
                Direction::Vertical => {
                    cell.x == a.x && cell.y > a.y.min(b.y) && cell.y < a.y.max(b.y)
                }
            }
        })
    }

    /// Copies the tree built so far into a [`RouteTree`], flattening the
    /// child lists into the CSR layout: children in node order, each
    /// node's in insertion order, so traversal orders — and therefore
    /// all delay arithmetic downstream — follow the insertion order. The
    /// builder keeps its state; [`RouteTreeBuilder::reset`] starts the
    /// next tree.
    ///
    /// # Errors
    ///
    /// Returns [`BuildTreeError::Empty`] if no segments were added.
    pub fn finish(&self) -> Result<RouteTree, BuildTreeError> {
        if self.segments.is_empty() {
            return Err(BuildTreeError::Empty);
        }
        let mut nodes = Vec::with_capacity(self.nodes.len() + 1);
        let mut children = Vec::with_capacity(self.segments.len());
        for node in &self.nodes {
            nodes.push(NodeRecord {
                cell: node.cell,
                parent: node.parent,
                parent_seg: node.parent_seg,
                pin: node.pin,
                // cast: a tree's segment count fits the u32 indices.
                child_start: children.len() as u32,
            });
            let mut c = node.first_child;
            while c != NONE {
                children.push(c);
                c = self.next_sibling[c as usize];
            }
        }
        nodes.push(NodeRecord {
            cell: Cell::new(0, 0),
            parent: NONE,
            parent_seg: NONE,
            pin: NONE,
            // cast: a tree's segment count fits the u32 indices.
            child_start: children.len() as u32,
        });
        Ok(RouteTree {
            nodes: nodes.into_boxed_slice(),
            children: children.into_boxed_slice(),
            segments: self.segments.as_slice().into(),
        })
    }

    /// Finishes the tree; see [`RouteTreeBuilder::finish`].
    ///
    /// # Errors
    ///
    /// Returns [`BuildTreeError::Empty`] if no segments were added.
    pub fn build(self) -> Result<RouteTree, BuildTreeError> {
        self.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Y-shaped tree: root (0,0) → (3,0); branch at (1,0) up to (1,2).
    fn y_tree() -> RouteTree {
        let mut b = RouteTreeBuilder::new(Cell::new(0, 0));
        let end = b.add_segment(b.root(), Cell::new(3, 0)).unwrap();
        let _ = end;
        let seg0 = 0; // (0,0)->(3,0)
        let mid = b.split_segment_at(seg0, Cell::new(1, 0)).unwrap();
        b.add_segment(mid, Cell::new(1, 2)).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn split_preserves_invariants() {
        let t = y_tree();
        t.validate(8, 8).unwrap();
        assert_eq!(t.num_segments(), 3);
        assert_eq!(t.wirelength(), 5);
    }

    #[test]
    fn postorder_visits_children_first() {
        let t = y_tree();
        let post: Vec<usize> = t.postorder_segments().collect();
        assert_eq!(post.len(), 3);
        // Segment 0 is the root-side half (0,0)->(1,0): must come last.
        assert_eq!(*post.last().unwrap(), 0);
    }

    #[test]
    fn preorder_visits_parents_first() {
        let t = y_tree();
        let pre: Vec<usize> = t.preorder_segments().collect();
        assert_eq!(pre[0], 0);
        let pos = |s: usize| pre.iter().position(|&x| x == s).unwrap();
        for s in 1..3 {
            let parent_node = t.segment(s).from as usize;
            if let Some(ps) = t.parent_segment(parent_node) {
                assert!(pos(ps) < pos(s));
            }
        }
    }

    #[test]
    fn path_segments_reaches_root() {
        let t = y_tree();
        // Find the node at (1,2).
        let n = t.find_node_at(Cell::new(1, 2)).unwrap();
        let path = t.path_segments(n);
        assert_eq!(path.len(), 2);
        assert_eq!(path[0], 0, "path must start at the root-side segment");
    }

    #[test]
    fn segment_edges_order_follows_direction() {
        let mut b = RouteTreeBuilder::new(Cell::new(3, 0));
        b.add_segment(0, Cell::new(0, 0)).unwrap(); // rightward -> leftward
        let t = b.build().unwrap();
        let edges = t.segment_edges(0);
        assert_eq!(edges.len(), 3);
        assert_eq!(edges[0], Edge2d::horizontal(2, 0));
        assert_eq!(edges[2], Edge2d::horizontal(0, 0));
    }

    #[test]
    fn builder_rejects_diagonal() {
        let mut b = RouteTreeBuilder::new(Cell::new(0, 0));
        let err = b.add_segment(0, Cell::new(1, 1)).unwrap_err();
        assert!(matches!(err, BuildTreeError::NotRectilinear { .. }));
    }

    #[test]
    fn builder_rejects_zero_length() {
        let mut b = RouteTreeBuilder::new(Cell::new(0, 0));
        let err = b.add_segment(0, Cell::new(0, 0)).unwrap_err();
        assert!(matches!(err, BuildTreeError::ZeroLength(_)));
    }

    #[test]
    fn validate_detects_duplicate_edge_coverage() {
        // Two segments covering the same horizontal edge.
        let mut b = RouteTreeBuilder::new(Cell::new(0, 0));
        let n = b.add_segment(0, Cell::new(2, 0)).unwrap();
        b.add_segment(n, Cell::new(0, 0)).unwrap(); // doubles back
        let t = b.build().unwrap();
        let err = t.validate(8, 8).unwrap_err();
        assert!(err.contains("covered twice"), "{err}");
    }

    #[test]
    fn split_rejects_endpoint() {
        let mut b = RouteTreeBuilder::new(Cell::new(0, 0));
        b.add_segment(0, Cell::new(3, 0)).unwrap();
        assert!(b.split_segment_at(0, Cell::new(0, 0)).is_err());
        assert!(b.split_segment_at(0, Cell::new(3, 0)).is_err());
        assert!(b.split_segment_at(0, Cell::new(1, 1)).is_err());
    }

    #[test]
    fn find_segment_through_interior_only() {
        let mut b = RouteTreeBuilder::new(Cell::new(0, 0));
        b.add_segment(0, Cell::new(3, 0)).unwrap();
        assert_eq!(b.find_segment_through(Cell::new(2, 0)), Some(0));
        assert_eq!(b.find_segment_through(Cell::new(0, 0)), None);
        assert_eq!(b.find_segment_through(Cell::new(3, 0)), None);
    }

    #[test]
    fn csr_children_match_insertion_order() {
        let t = y_tree();
        // Root (node 0) has one child segment: 0. The split node (index
        // 2 after split) carries segments 1 (child-side half) then 2
        // (branch), in that insertion order.
        assert_eq!(t.child_segments(0), &[0]);
        let mid = t.find_node_at(Cell::new(1, 0)).unwrap();
        assert_eq!(t.child_segments(mid), &[1, 2]);
        assert_eq!(t.nodes().len(), t.num_nodes());
        let cells: Vec<Cell> = t.nodes().map(|n| n.cell).collect();
        assert_eq!(cells.len(), 4);
    }

    /// A tree under construction as the plain per-node lists the
    /// builder's layout replaced: one child-segment `Vec` per node.
    /// Every operation mirrors the builder's, errors included.
    #[derive(Default)]
    struct Model {
        cells: Vec<Cell>,
        parent: Vec<Option<u32>>,
        parent_seg: Vec<Option<u32>>,
        pin: Vec<Option<u32>>,
        children: Vec<Vec<u32>>,
        segments: Vec<Segment>,
    }

    impl Model {
        fn new(root: Cell) -> Model {
            let mut m = Model::default();
            m.push_node(root, None, None);
            m
        }

        fn push_node(&mut self, cell: Cell, parent: Option<u32>, parent_seg: Option<u32>) {
            self.cells.push(cell);
            self.parent.push(parent);
            self.parent_seg.push(parent_seg);
            self.pin.push(None);
            self.children.push(Vec::new());
        }

        fn add_segment(&mut self, from: usize, to: Cell) -> Result<usize, BuildTreeError> {
            let a = *self
                .cells
                .get(from)
                .ok_or(BuildTreeError::UnknownNode(from))?;
            if a == to {
                return Err(BuildTreeError::ZeroLength(to));
            }
            let dir = if a.y == to.y {
                Direction::Horizontal
            } else if a.x == to.x {
                Direction::Vertical
            } else {
                return Err(BuildTreeError::NotRectilinear { from: a, to });
            };
            let (n, s) = (self.cells.len() as u32, self.segments.len() as u32);
            self.segments.push(Segment {
                from: from as u32,
                to: n,
                dir,
            });
            self.push_node(to, Some(from as u32), Some(s));
            self.children[from].push(s);
            Ok(n as usize)
        }

        fn interior(&self, s: Segment, c: Cell) -> bool {
            let (a, b) = (self.cells[s.from as usize], self.cells[s.to as usize]);
            match s.dir {
                Direction::Horizontal => c.y == a.y && c.x > a.x.min(b.x) && c.x < a.x.max(b.x),
                Direction::Vertical => c.x == a.x && c.y > a.y.min(b.y) && c.y < a.y.max(b.y),
            }
        }

        fn split(&mut self, seg: usize, cell: Cell) -> Result<usize, BuildTreeError> {
            let s = *self
                .segments
                .get(seg)
                .ok_or(BuildTreeError::UnknownNode(seg))?;
            if !self.interior(s, cell) {
                let from = self.cells[s.from as usize];
                return Err(BuildTreeError::NotRectilinear { from, to: cell });
            }
            let (mid, new_seg) = (self.cells.len() as u32, self.segments.len() as u32);
            self.push_node(cell, Some(s.from), Some(seg as u32));
            self.children[mid as usize].push(new_seg);
            self.segments.push(Segment {
                from: mid,
                to: s.to,
                dir: s.dir,
            });
            self.segments[seg].to = mid;
            self.parent[s.to as usize] = Some(mid);
            self.parent_seg[s.to as usize] = Some(new_seg);
            Ok(mid as usize)
        }

        fn attach_pin(&mut self, node: usize, pin: u32) -> Result<(), BuildTreeError> {
            let slot = self
                .pin
                .get_mut(node)
                .ok_or(BuildTreeError::UnknownNode(node))?;
            if slot.is_some() {
                return Err(BuildTreeError::PinAlreadyAttached(pin));
            }
            *slot = Some(pin);
            Ok(())
        }

        /// Segments depth first from the root, children in insertion
        /// order: parents first, or children first.
        fn walk(&self, parents_first: bool) -> Vec<usize> {
            fn visit(m: &Model, s: u32, parents_first: bool, out: &mut Vec<usize>) {
                if parents_first {
                    out.push(s as usize);
                }
                for &c in &m.children[m.segments[s as usize].to as usize] {
                    visit(m, c, parents_first, out);
                }
                if !parents_first {
                    out.push(s as usize);
                }
            }
            let mut out = Vec::new();
            for &c in &self.children[0] {
                visit(self, c, parents_first, &mut out);
            }
            out
        }

        fn edges(&self, s: usize) -> Vec<Edge2d> {
            let seg = self.segments[s];
            let mut cur = self.cells[seg.from as usize];
            let end = self.cells[seg.to as usize];
            let mut out = Vec::new();
            while cur != end {
                let next = match (cur.x.cmp(&end.x), cur.y.cmp(&end.y)) {
                    (std::cmp::Ordering::Less, _) => Cell::new(cur.x + 1, cur.y),
                    (std::cmp::Ordering::Greater, _) => Cell::new(cur.x - 1, cur.y),
                    (_, std::cmp::Ordering::Less) => Cell::new(cur.x, cur.y + 1),
                    _ => Cell::new(cur.x, cur.y - 1),
                };
                out.push(Edge2d::between(cur, next).unwrap());
                cur = next;
            }
            out
        }
    }

    /// Checks every accessor of `tree`, and both segment walks, against
    /// the model it was built beside.
    fn assert_matches_model(tree: &RouteTree, m: &Model) {
        use grid::GridBuilder;

        let n = m.cells.len();
        assert_eq!((tree.root(), tree.num_nodes()), (0, n));
        assert_eq!(tree.num_segments(), m.segments.len());
        assert_eq!(tree.segments(), m.segments.as_slice());
        let views: Vec<TreeNode> = (0..n)
            .map(|i| TreeNode {
                cell: m.cells[i],
                parent: m.parent[i],
                parent_segment: m.parent_seg[i],
                pin: m.pin[i],
            })
            .collect();
        assert_eq!(tree.nodes().len(), n);
        assert_eq!(tree.nodes().collect::<Vec<_>>(), views);
        for (i, view) in views.iter().enumerate() {
            assert_eq!(tree.node(i), *view, "node {i}");
            assert_eq!(tree.parent_segment(i), m.parent_seg[i].map(|s| s as usize));
            assert_eq!(tree.child_segments(i), m.children[i].as_slice(), "node {i}");
            assert_eq!(
                tree.find_node_at(m.cells[i]),
                m.cells.iter().position(|&c| c == m.cells[i])
            );
            let mut path = Vec::new();
            let mut at = i;
            while let Some(s) = m.parent_seg[at] {
                path.push(s as usize);
                at = m.segments[s as usize].from as usize;
            }
            path.reverse();
            assert_eq!(tree.path_segments(i), path, "node {i}");
        }
        let (w, h) = (
            m.cells.iter().map(|c| c.x).max().unwrap() + 2,
            m.cells.iter().map(|c| c.y).max().unwrap() + 2,
        );
        assert_eq!(tree.find_node_at(Cell::new(w, h)), None);
        let grid = GridBuilder::new(w, h)
            .alternating_layers(2, Direction::Horizontal)
            .build()
            .unwrap();
        let mut buf = Vec::new();
        let mut wirelength = 0;
        for s in 0..m.segments.len() {
            let edges = m.edges(s);
            wirelength += edges.len() as u64;
            assert_eq!(tree.segment(s), m.segments[s]);
            assert_eq!(tree.segment_length(s) as usize, edges.len());
            assert_eq!(tree.segment_edges(s), edges, "segment {s}");
            tree.segment_edges_into(s, &mut buf);
            assert_eq!(buf, edges);
            let flat: Vec<usize> = edges.iter().map(|&e| grid.edge_flat_index(e)).collect();
            assert_eq!(
                tree.segment_run(s, &grid).indices().collect::<Vec<_>>(),
                flat
            );
        }
        assert_eq!(tree.wirelength(), wirelength);
        assert_eq!(tree.preorder_segments().collect::<Vec<_>>(), m.walk(true));
        assert_eq!(tree.postorder_segments().collect::<Vec<_>>(), m.walk(false));
    }

    /// Random `add_path`, `split_segment_at` and `attach_pin` calls, bad
    /// arguments included, on one builder `reset` between trees: every
    /// call returns what the model's does, the builder's own lookups
    /// agree with it, and every finished tree matches it accessor by
    /// accessor, walks included.
    #[test]
    fn builder_matches_a_per_node_model_across_resets() {
        let trees = 600;
        let mut rng = prng::Rng::seed_from_u64(0x7b1d);
        let mut b = RouteTreeBuilder::new(Cell::new(0, 0));
        let (mut splits, mut errors, mut built) = (0, 0, 0);
        for t in 0..trees {
            let root = Cell::new(rng.range_u16(0, 12), rng.range_u16(0, 12));
            b.reset(root);
            let mut m = Model::new(root);
            let mut next_pin = 0;
            for _ in 0..rng.range_usize(0, 24) {
                let nodes = m.cells.len();
                match rng.range_usize(0, 9) {
                    0..=4 => {
                        // A path of 1-3 legs from a node, sometimes an
                        // unknown one; legs are mostly straight, some
                        // zero-length or diagonal.
                        let from = rng.range_usize(0, nodes);
                        let mut at = m.cells.get(from).copied().unwrap_or(root);
                        let waypoints: Vec<Cell> = (0..rng.range_usize(1, 3))
                            .map(|_| {
                                let (dx, dy) = (rng.range_u16(0, 5), rng.range_u16(0, 5));
                                at = match rng.range_usize(0, 9) {
                                    0 => Cell::new(at.x + dx, at.y + dy),
                                    1..=4 => Cell::new(
                                        at.x.saturating_sub(dx) + rng.range_u16(0, 2 * dx),
                                        at.y,
                                    ),
                                    _ => Cell::new(
                                        at.x,
                                        at.y.saturating_sub(dy) + rng.range_u16(0, 2 * dy),
                                    ),
                                };
                                at
                            })
                            .collect();
                        let mut want = Ok(from);
                        for &wp in &waypoints {
                            want = want.and_then(|cur| m.add_segment(cur, wp));
                        }
                        assert_eq!(b.add_path(from, &waypoints), want);
                        errors += usize::from(want.is_err());
                    }
                    5..=7 => {
                        let seg = rng.range_usize(0, m.segments.len());
                        let cell = match m.segments.get(seg) {
                            Some(s) => {
                                let (a, z) = (m.cells[s.from as usize], m.cells[s.to as usize]);
                                Cell::new(
                                    rng.range_u16(a.x.min(z.x), a.x.max(z.x)),
                                    rng.range_u16(a.y.min(z.y), a.y.max(z.y) + 1),
                                )
                            }
                            None => root,
                        };
                        let found = m.segments.iter().position(|&s| m.interior(s, cell));
                        assert_eq!(b.find_segment_through(cell), found);
                        let want = m.split(seg, cell);
                        assert_eq!(b.split_segment_at(seg, cell), want);
                        splits += usize::from(want.is_ok());
                        errors += usize::from(want.is_err());
                    }
                    _ => {
                        let node = rng.range_usize(0, nodes);
                        let want = m.attach_pin(node, next_pin);
                        assert_eq!(b.attach_pin(node, next_pin), want);
                        next_pin += 1;
                        errors += usize::from(want.is_err());
                    }
                }
                assert_eq!(b.num_nodes(), m.cells.len());
                for (i, &c) in m.cells.iter().enumerate() {
                    assert_eq!(b.node_cell(i), c);
                    assert_eq!(b.find_node_at(c), m.cells.iter().position(|&x| x == c));
                }
            }
            let tree = b.finish();
            if m.segments.is_empty() {
                assert_eq!(tree, Err(BuildTreeError::Empty));
                continue;
            }
            let tree = tree.unwrap();
            assert_matches_model(&tree, &m);
            if t % 16 == 0 {
                assert_eq!(b.clone().build().as_ref(), Ok(&tree));
            }
            built += 1;
        }
        assert!(
            splits > 0 && errors > 0 && built > trees / 2,
            "sweep missed a case: {splits} splits, {errors} errors, {built} of {trees} trees built"
        );
    }
}
