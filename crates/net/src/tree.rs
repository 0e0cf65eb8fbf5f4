//! Routed net topologies: trees of straight wire segments.
//!
//! Storage is structure-of-arrays: per-node fields live in parallel flat
//! vectors and the child lists are a CSR range (`child_start` offsets
//! into one shared `children` buffer), so a million-segment design is a
//! handful of contiguous allocations instead of one heap node per tree
//! vertex. [`TreeNode`] is a cheap by-value view assembled on demand.
//! The builder flattens each node's children in insertion order, and
//! the segment walks ([`RouteTree::postorder_segments`],
//! [`RouteTree::preorder_segments`]) follow the parent and child arrays
//! without a stack.

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

/// A routed 2-D topology: a tree of straight [`Segment`]s rooted at the
/// source pin's node (index 0), stored as flat parallel arrays.
#[derive(Clone, PartialEq, Debug)]
pub struct RouteTree {
    cells: Vec<Cell>,
    /// Parent node per node (`NONE` for the root).
    parent: Vec<u32>,
    /// Parent segment per node (`NONE` for the root).
    parent_seg: Vec<u32>,
    /// Pin index per node (`NONE` when no pin sits there).
    pin: Vec<u32>,
    /// CSR offsets into `children`; node `n` owns
    /// `children[child_start[n]..child_start[n + 1]]`.
    child_start: Vec<u32>,
    /// Child segment indices, grouped per node in insertion order.
    children: Vec<u32>,
    segments: Vec<Segment>,
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
    /// Panics if `n` is out of range.
    pub fn node(&self, n: usize) -> TreeNode {
        TreeNode {
            cell: self.cells[n],
            parent: opt(self.parent[n]),
            parent_segment: opt(self.parent_seg[n]),
            pin: opt(self.pin[n]),
        }
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
        self.cells.len()
    }

    /// Length of segment `s` in grid edges.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn segment_length(&self, s: usize) -> u32 {
        let seg = self.segments[s];
        self.cells[seg.from as usize].manhattan(self.cells[seg.to as usize])
    }

    /// Index of the segment connecting node `n` to its parent.
    pub fn parent_segment(&self, n: usize) -> Option<usize> {
        opt(self.parent_seg[n]).map(|s| s as usize)
    }

    /// Segments from node `n` down to its children, in insertion order.
    pub fn child_segments(&self, n: usize) -> &[u32] {
        let lo = self.child_start[n] as usize;
        let hi = self.child_start[n + 1] as usize;
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
        let a = self.cells[seg.from as usize];
        let b = self.cells[seg.to as usize];
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
        grid.edge_run(self.cells[seg.from as usize], self.cells[seg.to as usize])
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
        self.cells.iter().position(|&c| c == cell)
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
            let a = self.cells[seg.from as usize];
            let b = self.cells[seg.to as usize];
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
            if self.parent_seg[seg.to as usize] != s as u32 {
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
            None => self.tree.parent_seg[self.tree.segments[s as usize].from as usize],
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
                    up = tree.parent_seg[tree.segments[up as usize].from as usize];
                    if up == NONE {
                        break NONE;
                    }
                }
            }
        };
        Some(s as usize)
    }
}

/// Builder-side node: children kept as a per-node vector until
/// [`RouteTreeBuilder::build`] flattens them into the CSR layout.
#[derive(Clone, Debug)]
struct BuilderNode {
    cell: Cell,
    parent: Option<u32>,
    parent_segment: Option<u32>,
    child_segments: Vec<u32>,
    pin: Option<u32>,
}

/// Incremental builder for [`RouteTree`], used by routers.
#[derive(Clone, Debug)]
pub struct RouteTreeBuilder {
    nodes: Vec<BuilderNode>,
    segments: Vec<Segment>,
}

impl RouteTreeBuilder {
    /// Starts a tree rooted at `root` (the source pin's cell).
    pub fn new(root: Cell) -> RouteTreeBuilder {
        RouteTreeBuilder {
            nodes: vec![BuilderNode {
                cell: root,
                parent: None,
                parent_segment: None,
                child_segments: Vec::new(),
                pin: None,
            }],
            segments: Vec::new(),
        }
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
        let node_idx = self.nodes.len();
        let seg_idx = self.segments.len();
        self.segments.push(Segment {
            from: from as u32,
            to: node_idx as u32,
            dir,
        });
        self.nodes.push(BuilderNode {
            cell: to_cell,
            parent: Some(from as u32),
            parent_segment: Some(seg_idx as u32),
            child_segments: Vec::new(),
            pin: None,
        });
        self.nodes[from].child_segments.push(seg_idx as u32);
        Ok(node_idx)
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
        let mid_idx = self.nodes.len();
        let new_seg_idx = self.segments.len();
        // New node takes over the child-side half.
        self.nodes.push(BuilderNode {
            cell,
            parent: Some(s.from),
            parent_segment: Some(seg as u32),
            child_segments: vec![new_seg_idx as u32],
            pin: None,
        });
        self.segments.push(Segment {
            from: mid_idx as u32,
            to: s.to,
            dir: s.dir,
        });
        // Original segment now ends at the new node.
        self.segments[seg].to = mid_idx as u32;
        let old_child = s.to as usize;
        self.nodes[old_child].parent = Some(mid_idx as u32);
        self.nodes[old_child].parent_segment = Some(new_seg_idx as u32);
        Ok(mid_idx)
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
        if n.pin.is_some() {
            return Err(BuildTreeError::PinAlreadyAttached(pin));
        }
        n.pin = Some(pin);
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

    /// Finishes the tree, flattening per-node child lists into the CSR
    /// layout. Children are laid out in node order with each node's
    /// insertion order preserved, so traversal orders — and therefore all
    /// delay arithmetic downstream — are bit-identical to the per-node
    /// layout.
    ///
    /// # Errors
    ///
    /// Returns [`BuildTreeError::Empty`] if no segments were added.
    pub fn build(self) -> Result<RouteTree, BuildTreeError> {
        if self.segments.is_empty() {
            return Err(BuildTreeError::Empty);
        }
        let n = self.nodes.len();
        let mut cells = Vec::with_capacity(n);
        let mut parent = Vec::with_capacity(n);
        let mut parent_seg = Vec::with_capacity(n);
        let mut pin = Vec::with_capacity(n);
        let mut child_start = Vec::with_capacity(n + 1);
        let mut children = Vec::with_capacity(self.segments.len());
        for node in &self.nodes {
            cells.push(node.cell);
            parent.push(node.parent.unwrap_or(NONE));
            parent_seg.push(node.parent_segment.unwrap_or(NONE));
            pin.push(node.pin.unwrap_or(NONE));
            child_start.push(children.len() as u32);
            children.extend_from_slice(&node.child_segments);
        }
        child_start.push(children.len() as u32);
        Ok(RouteTree {
            cells,
            parent,
            parent_seg,
            pin,
            child_start,
            children,
            segments: self.segments,
        })
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
}
