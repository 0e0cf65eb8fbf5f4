//! Congestion-weighted maze (shortest-path) routing on the 2-D grid.
//!
//! Used as a fallback when the cheapest pattern route would cross a full
//! edge. The router is a goal-directed uniform-cost search over tile
//! cells with caller-supplied per-edge costs and a forbidden-edge mask
//! (the edges already covered by the net's own tree, which a routing
//! tree must not cover twice). Both are dense slices in the
//! [`edge_index`] layout.
//!
//! One [`Search`] serves every call on a grid: its distance,
//! predecessor and bound arrays are reset through lists of the cells
//! the last search reached, not reallocated.
//!
//! Routes are a pure function of the inputs, and each is the path a
//! plain Dijkstra search returns. Dijkstra keys its heap
//! `(Reverse(distance bits), x << 16 | y)`, a total order on distinct
//! entries: ties in distance pop the larger `x` first, then the larger
//! `y`, and with strict relaxation the first cell to reach a distance
//! keeps its predecessor. The search here orders its heap by distance
//! plus a lower bound on the walls still to cross (see
//! [`Search::find_path`]), which settles every cell at the distance
//! Dijkstra computes, and replays Dijkstra's predecessor choice with an
//! explicit tie rule.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use grid::{Cell, Direction, Edge2d};

/// Number of routing edges of a `width × height` grid.
pub fn num_edges(width: u16, height: u16) -> usize {
    let (w, h) = (width as usize, height as usize);
    (w - 1) * h + w * (h - 1)
}

/// Dense index of `e` on a `width × height` grid: the horizontal edges
/// row by row, then the vertical edges row by row. Every per-edge slice
/// of this crate uses this layout.
pub fn edge_index(width: u16, height: u16, e: Edge2d) -> usize {
    let (w, h) = (width as usize, height as usize);
    let (x, y) = (e.cell.x as usize, e.cell.y as usize);
    match e.dir {
        Direction::Horizontal => y * (w - 1) + x,
        Direction::Vertical => (w - 1) * h + y * w + x,
    }
}

/// Heap payload of a cell: compares like `(x, y)`.
fn key(c: Cell) -> u32 {
    u32::from(c.x) << 16 | u32::from(c.y)
}

/// The cell a [`key`] encodes.
fn cell_of(k: u32) -> Cell {
    // cast: both halves of a key hold a u16 coordinate.
    Cell::new((k >> 16) as u16, (k & 0xffff) as u16)
}

/// Row-major index, on a grid `w` cells wide, of the cell a [`key`]
/// encodes.
fn row_major(k: u32, w: usize) -> usize {
    (k & 0xffff) as usize * w + (k >> 16) as usize
}

/// `level` entry of a cell the bound has not labelled.
const UNLABELLED: u32 = u32::MAX;

/// Work a [`Search`] has done over all its calls.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct SearchStats {
    /// Calls of [`Search::find_path`].
    pub searches: u64,
    /// Cells settled: popped at their final distance, goals included.
    pub settled: u64,
    /// Cells the goal-side bound labelled with their wall count.
    pub labelled: u64,
}

/// Reusable search state for one `width × height` grid.
///
/// Between calls every `dist` entry is `+∞`, every `level` entry is
/// `UNLABELLED`, and the heap and the cell lists are empty; `prev` is
/// only read along a path the current call built.
#[derive(Debug)]
pub struct Search {
    width: u16,
    height: u16,
    /// Best known distance per cell (row-major).
    dist: Vec<f64>,
    /// Key of each reached cell's predecessor (row-major).
    prev: Vec<u32>,
    heap: BinaryHeap<(Reverse<u64>, u32)>,
    /// Row-major indices of the cells whose `dist` is finite.
    touched: Vec<u32>,
    /// Fewest walls between each labelled cell and the goal (row-major).
    level: Vec<u32>,
    /// Keys of the labelled cells in labelling order: the bound's
    /// breadth-first queue, and the list that resets `level`.
    labelled: Vec<u32>,
    /// Keys of cells reached across a wall, one level further out.
    across: Vec<u32>,
    stats: SearchStats,
}

impl Search {
    /// Empty search state for a `width × height` grid.
    pub fn new(width: u16, height: u16) -> Search {
        let n = width as usize * height as usize;
        Search {
            width,
            height,
            dist: vec![f64::INFINITY; n],
            prev: vec![0; n],
            heap: BinaryHeap::new(),
            touched: Vec::new(),
            level: vec![UNLABELLED; n],
            labelled: Vec::new(),
            across: Vec::new(),
            stats: SearchStats::default(),
        }
    }

    /// Cumulative work of every call so far.
    pub fn stats(&self) -> SearchStats {
        self.stats
    }

    /// Finds a minimum-cost rectilinear path from `start` to `goal`.
    ///
    /// `costs[edge_index(e)]` is the cost of edge `e`; edges with
    /// `forbidden[edge_index(e)]` set are never traversed. On success
    /// `path` holds the cell sequence from `start` to `goal` inclusive
    /// and the call returns `true`; if no path exists it returns `false`
    /// and leaves `path` empty. The path is the one Dijkstra's algorithm
    /// with the heap order of the module docs returns, cell for cell.
    ///
    /// Cost contract: every cost is finite and at least 1, and path
    /// costs stay below 2⁵⁰, where an `f64` sum rounds by at most 1/8.
    /// An edge costing at least `charge` is a *wall*. Before
    /// searching, a 0-1 breadth-first search from `goal`, which ignores
    /// `forbidden`, labels cells level by level with the fewest walls a
    /// path to `goal` must cross, and stops once `start`'s level `L` is
    /// fixed; cells left unlabelled count as level `L`. The heap is
    /// ordered by `distance + (charge − 1) · level`. Across any edge the
    /// level drops by at most one, and only across a wall, which costs
    /// at least `charge`, so every edge keeps a slack of at least 1 in
    /// that order: each cell is popped at exactly its Dijkstra
    /// distance, after every neighbour that reaches it at that distance.
    /// On equal distances the predecessor becomes the neighbour
    /// Dijkstra pops first (smaller distance, then larger
    /// `x << 16 | y`), so the path is Dijkstra's. A `charge` that is not
    /// a finite number above 1 gives a zero bound: plain Dijkstra.
    ///
    /// # Panics
    ///
    /// Panics if `start` or `goal` lies outside the grid, or if `costs`
    /// or `forbidden` does not hold one entry per edge.
    pub fn find_path(
        &mut self,
        start: Cell,
        goal: Cell,
        costs: &[f64],
        forbidden: &[bool],
        charge: f64,
        path: &mut Vec<Cell>,
    ) -> bool {
        let (width, height) = (self.width, self.height);
        assert!(start.x < width && start.y < height, "start out of bounds");
        assert!(goal.x < width && goal.y < height, "goal out of bounds");
        let edges = num_edges(width, height);
        assert_eq!(costs.len(), edges, "one cost per edge");
        assert_eq!(forbidden.len(), edges, "one mask entry per edge");
        let (w, h) = (width as usize, height as usize);
        let h_edges = (w - 1) * h;
        let index = |c: Cell| c.y as usize * w + c.x as usize;
        let (start_at, goal_at) = (index(start), index(goal));

        let top = if charge > 1.0 && charge.is_finite() {
            self.label_walls(start, goal, costs, charge)
        } else {
            0
        };
        let Search {
            dist,
            prev,
            heap,
            touched,
            level,
            labelled,
            across,
            stats,
            ..
        } = self;
        // Bound of the cell at row-major `at`; zero unless `start` lies
        // behind a wall.
        let weight = if top > 0 { charge - 1.0 } else { 0.0 };
        let bound = |at: usize| weight * f64::from(level[at].min(top));
        dist[start_at] = 0.0;
        // cast: a u16 × u16 grid has fewer than 2^32 cells.
        touched.push(start_at as u32);
        // f64 keys via ordered bits (keys are non-negative and finite).
        heap.push((Reverse(bound(start_at).to_bits()), key(start)));
        let mut settled = 0;
        while let Some((Reverse(fbits), k)) = heap.pop() {
            let (x, y) = ((k >> 16) as usize, (k & 0xffff) as usize);
            let at = row_major(k, w);
            let d = dist[at];
            if f64::from_bits(fbits) > d + bound(at) {
                continue;
            }
            settled += 1;
            if at == goal_at {
                break;
            }
            // Relaxes the neighbour at row-major `to` across edge `edge`.
            let mut relax = |to: usize, edge: usize, to_key: u32| {
                if forbidden[edge] {
                    return;
                }
                let cost = costs[edge];
                debug_assert!(cost.is_finite() && cost >= 1.0, "bad edge cost {cost}");
                let nd = d + cost;
                let old = dist[to];
                if nd < old {
                    if old == f64::INFINITY {
                        // cast: a u16 × u16 grid has fewer than 2^32 cells.
                        touched.push(to as u32);
                    }
                    dist[to] = nd;
                    prev[to] = k;
                    heap.push((Reverse((nd + bound(to)).to_bits()), to_key));
                } else if nd == old {
                    // Dijkstra keeps the predecessor it pops first.
                    let p = prev[to];
                    let pd = dist[row_major(p, w)];
                    if d < pd || (d == pd && k > p) {
                        prev[to] = k;
                    }
                }
            };
            if x > 0 {
                relax(at - 1, at - y - 1, k - (1 << 16));
            }
            if x + 1 < w {
                relax(at + 1, at - y, k + (1 << 16));
            }
            if y > 0 {
                relax(at - w, h_edges + at - w, k - 1);
            }
            if y + 1 < h {
                relax(at + w, h_edges + at, k + 1);
            }
        }

        path.clear();
        let found = dist[goal_at].is_finite();
        if found {
            path.push(goal);
            let mut at = goal_at;
            while at != start_at {
                let p = cell_of(prev[at]);
                path.push(p);
                at = index(p);
            }
            path.reverse();
        }
        stats.searches += 1;
        stats.settled += settled;
        stats.labelled += labelled.len() as u64;
        for &t in touched.iter() {
            dist[t as usize] = f64::INFINITY;
        }
        touched.clear();
        heap.clear();
        for &k in labelled.iter() {
            level[row_major(k, w)] = UNLABELLED;
        }
        labelled.clear();
        across.clear();
        found
    }

    /// Labels cells with the fewest walls (edges costing at least
    /// `charge`) that a path from them to `goal` must cross: a 0-1
    /// breadth-first search from `goal`, one level at a time, that
    /// stops once `start` is labelled. Returns `start`'s level.
    fn label_walls(&mut self, start: Cell, goal: Cell, costs: &[f64], charge: f64) -> u32 {
        let (w, h) = (self.width as usize, self.height as usize);
        let h_edges = (w - 1) * h;
        let start_at = start.y as usize * w + start.x as usize;
        let Search {
            level,
            labelled,
            across,
            ..
        } = self;
        level[goal.y as usize * w + goal.x as usize] = 0;
        labelled.push(key(goal));
        let (mut depth, mut head) = (0, 0);
        while level[start_at] == UNLABELLED {
            if head == labelled.len() {
                // The level is exhausted: open the next one. The grid is
                // connected, so cells wait across a wall until `start`
                // is labelled.
                depth += 1;
                for k in across.drain(..) {
                    let at = row_major(k, w);
                    if level[at] == UNLABELLED {
                        level[at] = depth;
                        labelled.push(k);
                    }
                }
                continue;
            }
            let k = labelled[head];
            head += 1;
            let (x, y) = ((k >> 16) as usize, (k & 0xffff) as usize);
            let at = row_major(k, w);
            let mut step = |to: usize, edge: usize, to_key: u32| {
                if level[to] != UNLABELLED {
                    return;
                }
                if costs[edge] >= charge {
                    across.push(to_key);
                } else {
                    level[to] = depth;
                    labelled.push(to_key);
                }
            };
            if x > 0 {
                step(at - 1, at - y - 1, k - (1 << 16));
            }
            if x + 1 < w {
                step(at + 1, at - y, k + (1 << 16));
            }
            if y > 0 {
                step(at - w, h_edges + at - w, k - 1);
            }
            if y + 1 < h {
                step(at + w, h_edges + at, k + 1);
            }
        }
        level[start_at]
    }
}

/// Compresses a cell path into its bend points (the waypoints a
/// [`net::RouteTreeBuilder::add_path`] call needs), written to `out`,
/// which is cleared first: every cell where the travel direction
/// changes, plus the final cell.
///
/// # Panics
///
/// Panics if consecutive cells are not rectilinearly adjacent.
pub fn path_waypoints(path: &[Cell], out: &mut Vec<Cell>) {
    out.clear();
    if path.len() < 2 {
        return;
    }
    let step = |a: Cell, b: Cell| (b.x as i32 - a.x as i32, b.y as i32 - a.y as i32);
    let mut dir = step(path[0], path[1]);
    assert!(dir.0.abs() + dir.1.abs() == 1, "path cells not adjacent");
    for w in path[1..].windows(2) {
        let d = step(w[0], w[1]);
        assert!(d.0.abs() + d.1.abs() == 1, "path cells not adjacent");
        if d != dir {
            out.push(w[0]);
            dir = d;
        }
    }
    #[expect(
        clippy::unwrap_used,
        reason = "the len() < 2 early return leaves path non-empty here"
    )]
    out.push(*path.last().unwrap());
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;

    /// The search as it stood before [`Search`]: fresh arrays per
    /// call, a hashed forbidden set, and a cost callback per edge. Kept
    /// as the reference the buffered search must reproduce exactly.
    fn reference_find_path(
        width: u16,
        height: u16,
        start: Cell,
        goal: Cell,
        mut edge_cost: impl FnMut(Edge2d) -> f64,
        forbidden: &HashSet<Edge2d>,
    ) -> Option<Vec<Cell>> {
        assert!(start.x < width && start.y < height, "start out of bounds");
        assert!(goal.x < width && goal.y < height, "goal out of bounds");
        let idx = |c: Cell| c.y as usize * width as usize + c.x as usize;
        let n = width as usize * height as usize;
        let mut dist = vec![f64::INFINITY; n];
        let mut prev: Vec<Option<Cell>> = vec![None; n];
        let mut heap: BinaryHeap<(Reverse<u64>, u16, u16)> = BinaryHeap::new();
        dist[idx(start)] = 0.0;
        heap.push((Reverse(0), start.x, start.y));
        while let Some((Reverse(dbits), x, y)) = heap.pop() {
            let cur = Cell::new(x, y);
            let d = f64::from_bits(dbits);
            if d > dist[idx(cur)] {
                continue;
            }
            if cur == goal {
                break;
            }
            let neighbors = [
                (x > 0).then(|| Cell::new(x - 1, y)),
                (x + 1 < width).then(|| Cell::new(x + 1, y)),
                (y > 0).then(|| Cell::new(x, y - 1)),
                (y + 1 < height).then(|| Cell::new(x, y + 1)),
            ];
            for next in neighbors.into_iter().flatten() {
                let edge = Edge2d::between(cur, next).unwrap();
                if forbidden.contains(&edge) {
                    continue;
                }
                let nd = d + edge_cost(edge);
                if nd < dist[idx(next)] {
                    dist[idx(next)] = nd;
                    prev[idx(next)] = Some(cur);
                    heap.push((Reverse(nd.to_bits()), next.x, next.y));
                }
            }
        }
        if dist[idx(goal)].is_infinite() {
            return None;
        }
        let mut path = vec![goal];
        while let Some(p) = prev[idx(*path.last().unwrap())] {
            path.push(p);
        }
        path.reverse();
        Some(path)
    }

    /// Every edge of a `width × height` grid, in [`edge_index`] order.
    fn all_edges(width: u16, height: u16) -> Vec<Edge2d> {
        let h = (0..height).flat_map(|y| (0..width - 1).map(move |x| Edge2d::horizontal(x, y)));
        let v = (0..height - 1).flat_map(|y| (0..width).map(move |x| Edge2d::vertical(x, y)));
        h.chain(v).collect()
    }

    /// The router's default overflow charge.
    const PENALTY: f64 = 1000.0;

    /// Runs both searches on one query and returns the shared answer.
    fn both(
        search: &mut Search,
        start: Cell,
        goal: Cell,
        costs: &[f64],
        charge: f64,
        forbidden: &HashSet<Edge2d>,
    ) -> Option<Vec<Cell>> {
        let (w, h) = (search.width, search.height);
        let mut mask = vec![false; num_edges(w, h)];
        for &e in forbidden {
            mask[edge_index(w, h, e)] = true;
        }
        let expect =
            reference_find_path(w, h, start, goal, |e| costs[edge_index(w, h, e)], forbidden);
        // Stale contents the call must clear.
        let mut path = vec![goal, start];
        let found = search.find_path(start, goal, costs, &mask, charge, &mut path);
        assert!(found || path.is_empty(), "a failed search leaves {path:?}");
        let got = found.then_some(path);
        assert_eq!(
            got,
            expect,
            "{w}x{h} grid, {start} -> {goal}, charge {charge}, {} forbidden",
            forbidden.len()
        );
        got
    }

    fn unit_costs(width: u16, height: u16) -> Vec<f64> {
        vec![1.0; num_edges(width, height)]
    }

    /// Fewest edges costing at least `charge` on any path from `start`
    /// to `goal`, by the reference search on 0/1 costs.
    fn walls_between(
        width: u16,
        height: u16,
        start: Cell,
        goal: Cell,
        costs: &[f64],
        charge: f64,
    ) -> usize {
        let is_wall = |e: Edge2d| costs[edge_index(width, height, e)] >= charge;
        let path = reference_find_path(
            width,
            height,
            start,
            goal,
            |e| if is_wall(e) { 1.0 } else { 0.0 },
            &HashSet::new(),
        )
        .expect("a grid is connected");
        path.windows(2)
            .filter(|p| is_wall(Edge2d::between(p[0], p[1]).unwrap()))
            .count()
    }

    #[test]
    fn edge_index_is_dense_in_layout_order() {
        for (w, h) in [(1, 1), (1, 5), (5, 1), (3, 4), (7, 2)] {
            let edges = all_edges(w, h);
            assert_eq!(edges.len(), num_edges(w, h));
            for (i, &e) in edges.iter().enumerate() {
                assert_eq!(edge_index(w, h, e), i, "{w}x{h} {e}");
            }
        }
    }

    #[test]
    fn straight_path_on_empty_grid() {
        let p = both(
            &mut Search::new(8, 8),
            Cell::new(1, 1),
            Cell::new(5, 1),
            &unit_costs(8, 8),
            PENALTY,
            &HashSet::new(),
        )
        .unwrap();
        assert_eq!(p.len(), 5);
        assert_eq!(p[0], Cell::new(1, 1));
        assert_eq!(*p.last().unwrap(), Cell::new(5, 1));
    }

    #[test]
    fn detours_around_forbidden_edges() {
        // Block the direct corridor between x=1 and x=2 on rows 0..8.
        let mut forbidden = HashSet::new();
        for y in 0..7 {
            forbidden.insert(Edge2d::horizontal(1, y));
        }
        let p = both(
            &mut Search::new(8, 8),
            Cell::new(0, 0),
            Cell::new(4, 0),
            &unit_costs(8, 8),
            PENALTY,
            &forbidden,
        )
        .unwrap();
        // Must detour via row 7: longer than the direct 4 steps.
        assert!(p.len() > 5, "{p:?}");
        // And never traverse a forbidden edge.
        for w in p.windows(2) {
            let e = Edge2d::between(w[0], w[1]).unwrap();
            assert!(!forbidden.contains(&e));
        }
    }

    #[test]
    fn fully_blocked_returns_none() {
        let forbidden: HashSet<_> = (0..8).map(|y| Edge2d::horizontal(3, y)).collect();
        let mut search = Search::new(8, 8);
        let costs = unit_costs(8, 8);
        assert!(both(
            &mut search,
            Cell::new(0, 0),
            Cell::new(7, 7),
            &costs,
            PENALTY,
            &forbidden
        )
        .is_none());
        // The failed search leaves the buffers clean for the next call.
        assert_eq!(
            both(
                &mut search,
                Cell::new(0, 0),
                Cell::new(2, 0),
                &costs,
                PENALTY,
                &HashSet::new()
            )
            .map(|p| p.len()),
            Some(3)
        );
    }

    #[test]
    fn congestion_cost_steers_the_path() {
        // Row 0 congested: cost 10 per horizontal edge at y = 0.
        let costs: Vec<f64> = all_edges(8, 8)
            .iter()
            .map(|e| {
                if e.dir == Direction::Horizontal && e.cell.y == 0 {
                    10.0
                } else {
                    1.0
                }
            })
            .collect();
        let p = both(
            &mut Search::new(8, 8),
            Cell::new(0, 0),
            Cell::new(7, 0),
            &costs,
            PENALTY,
            &HashSet::new(),
        )
        .unwrap();
        // Cheapest route leaves row 0, traverses on row 1, and returns.
        assert!(p.iter().any(|c| c.y == 1), "{p:?}");
    }

    /// [`path_waypoints`] into a buffer holding stale contents.
    fn waypoints(path: &[Cell]) -> Vec<Cell> {
        let mut out = vec![Cell::new(9, 9)];
        path_waypoints(path, &mut out);
        out
    }

    #[test]
    fn waypoints_compress_straight_runs() {
        let path = vec![
            Cell::new(0, 0),
            Cell::new(1, 0),
            Cell::new(2, 0),
            Cell::new(2, 1),
            Cell::new(2, 2),
            Cell::new(3, 2),
        ];
        let w = waypoints(&path);
        assert_eq!(w, vec![Cell::new(2, 0), Cell::new(2, 2), Cell::new(3, 2)]);
    }

    #[test]
    fn waypoints_of_straight_path_is_endpoint_only() {
        let path = vec![Cell::new(0, 0), Cell::new(0, 1), Cell::new(0, 2)];
        assert_eq!(waypoints(&path), vec![Cell::new(0, 2)]);
    }

    #[test]
    fn start_equals_goal_trivial_path() {
        let p = both(
            &mut Search::new(4, 4),
            Cell::new(2, 2),
            Cell::new(2, 2),
            &unit_costs(4, 4),
            PENALTY,
            &HashSet::new(),
        )
        .unwrap();
        assert_eq!(p, vec![Cell::new(2, 2)]);
        assert!(waypoints(&p).is_empty());
    }

    #[test]
    fn the_bound_skips_cells_outside_a_walled_goal() {
        // A closed ring of full edges around the goal (8, 8) on a 32×32
        // grid: every path from outside crosses one wall.
        let (w, h) = (32, 32);
        let mut costs = unit_costs(w, h);
        for k in 6..11 {
            for e in [
                Edge2d::horizontal(5, k),
                Edge2d::horizontal(10, k),
                Edge2d::vertical(k, 5),
                Edge2d::vertical(k, 10),
            ] {
                costs[edge_index(w, h, e)] = 1.0 + PENALTY;
            }
        }
        let (start, goal) = (Cell::new(4, 8), Cell::new(8, 8));
        assert_eq!(walls_between(w, h, start, goal, &costs, PENALTY), 1);
        let work = |charge: f64| {
            let mut search = Search::new(w, h);
            let path = both(&mut search, start, goal, &costs, charge, &HashSet::new());
            assert_eq!(path.map(|p| p.len()), Some(5));
            search.stats()
        };
        // Plain Dijkstra settles every outside cell before it pays the
        // wall. With the bound, an outside cell waits until its distance
        // plus the wall's 999 passes the goal's 1,004: only cells within
        // 4 steps of the start settle.
        let (dijkstra, bounded) = (work(1.0), work(PENALTY));
        assert_eq!((dijkstra.searches, dijkstra.labelled), (1, 0));
        assert!(dijkstra.settled > 32 * 32 - 5 * 5, "{dijkstra:?}");
        assert_eq!(bounded.searches, 1);
        assert!(bounded.labelled >= 5 * 5, "{bounded:?}");
        assert!(bounded.settled < 50, "{bounded:?}");
    }

    mod properties {
        use super::*;

        /// How the differential sweep draws edge costs.
        #[derive(Clone, Copy, Debug)]
        enum Regime {
            /// Every edge costs 1.0: equal-distance ties everywhere.
            Unit,
            /// The router's cost formula with usage mostly below
            /// capacity.
            UnderCapacity,
            /// The router's cost formula with usage often at or past
            /// capacity, so many edges carry the overflow penalty.
            Overflow,
            /// Unit costs plus 1–3 nested rings of walls around the
            /// goal, the start or both, so the bound reaches deep
            /// levels.
            Walled,
        }

        /// The router's edge cost at the default weights.
        fn congestion_cost(usage: u32, capacity: u32) -> f64 {
            let (u, c) = (f64::from(usage), f64::from(capacity));
            let mut cost = 1.0 + 2.0 * u / (c + 1.0);
            if u >= c {
                cost += PENALTY;
            }
            cost
        }

        fn costs(rng: &mut prng::Rng, w: u16, h: u16, regime: Regime) -> Vec<f64> {
            (0..num_edges(w, h))
                .map(|_| match regime {
                    Regime::Unit | Regime::Walled => 1.0,
                    Regime::UnderCapacity => {
                        let capacity = rng.range_u32(1, 12);
                        congestion_cost(rng.range_u32(0, capacity - 1), capacity)
                    }
                    Regime::Overflow => {
                        let capacity = rng.range_u32(0, 12);
                        congestion_cost(rng.range_u32(0, 2 * capacity + 2), capacity)
                    }
                })
                .collect()
        }

        /// Walls 1–3 nested square rings around `centre`: each ring is
        /// every edge leaving the cells within a Chebyshev radius of
        /// `centre`. A wall costs `charge`, half a unit more or two
        /// units more, so some keep no slack beyond the bound's 1. Half
        /// the rings keep one or two gaps at unit cost.
        fn wall_rings(
            rng: &mut prng::Rng,
            w: u16,
            h: u16,
            costs: &mut [f64],
            centre: Cell,
            charge: f64,
        ) {
            let mut radius = rng.range_u16(0, 2);
            for _ in 0..rng.range_u16(1, 3) {
                let (x0, x1) = (
                    centre.x.saturating_sub(radius),
                    (centre.x + radius).min(w - 1),
                );
                let (y0, y1) = (
                    centre.y.saturating_sub(radius),
                    (centre.y + radius).min(h - 1),
                );
                let mut ring = Vec::new();
                for y in y0..=y1 {
                    if x0 > 0 {
                        ring.push(Edge2d::horizontal(x0 - 1, y));
                    }
                    if x1 + 1 < w {
                        ring.push(Edge2d::horizontal(x1, y));
                    }
                }
                for x in x0..=x1 {
                    if y0 > 0 {
                        ring.push(Edge2d::vertical(x, y0 - 1));
                    }
                    if y1 + 1 < h {
                        ring.push(Edge2d::vertical(x, y1));
                    }
                }
                let gaps = if ring.is_empty() || rng.range_u32(0, 1) == 0 {
                    Vec::new()
                } else {
                    (0..rng.range_usize(1, 2))
                        .map(|_| ring[rng.range_usize(0, ring.len() - 1)])
                        .collect()
                };
                for &e in ring.iter().filter(|e| !gaps.contains(e)) {
                    costs[edge_index(w, h, e)] =
                        charge + [0.0, 0.0, 0.5, 2.0][rng.range_usize(0, 3)];
                }
                radius += rng.range_u16(1, 4);
            }
        }

        fn cell(rng: &mut prng::Rng, w: u16, h: u16) -> Cell {
            Cell::new(rng.range_u16(0, w - 1), rng.range_u16(0, h - 1))
        }

        /// The buffered search returns the reference's path, cell for
        /// cell and `None` for `None`, on random grids up to 32×32: unit
        /// costs, both congestion regimes and walled goals and starts;
        /// charges from the router's 1000 down to ones that make cheap
        /// edges walls and ones that turn the bound off; forbidden sets
        /// from empty to dense; and `start == goal`. The sweep must
        /// reach starts 0, 1 and at least 2 walls from the goal. One
        /// [`Search`] serves all of a grid's queries, so a reset that
        /// leaks state between calls shows up as a diverging path.
        /// Deterministic seed sweep; the off-by-default `proptest`
        /// feature widens it.
        #[test]
        fn buffered_search_matches_the_reference() {
            let grids = if cfg!(feature = "proptest") { 600 } else { 60 };
            let mut rng = prng::Rng::seed_from_u64(0x3a2e);
            let (mut found, mut unreachable, mut trivial) = (0, 0, 0);
            // Bounded queries whose start is 0, 1 and ≥ 2 walls out.
            let mut levels = [0; 3];
            for g in 0..grids {
                let w = rng.range_u16(1, 32);
                let h = rng.range_u16(1, 32);
                let regime = [
                    Regime::Unit,
                    Regime::UnderCapacity,
                    Regime::Overflow,
                    Regime::Walled,
                ][g % 4];
                let charge = [PENALTY, PENALTY, 2.0, 3.0, 1.0, 0.5][rng.range_usize(0, 5)];
                let base = costs(&mut rng, w, h, regime);
                let edges = all_edges(w, h);
                let mut search = Search::new(w, h);
                for q in 0..8 {
                    // Forbidden density 0, 10%, 30% or 50%.
                    let density = [0, 10, 30, 50][q % 4];
                    let forbidden: HashSet<Edge2d> = edges
                        .iter()
                        .copied()
                        .filter(|_| rng.range_u64(0, 99) < density)
                        .collect();
                    let start = cell(&mut rng, w, h);
                    let goal = if q == 7 { start } else { cell(&mut rng, w, h) };
                    let mut costs = base.clone();
                    if let Regime::Walled = regime {
                        // Rings around the goal, the start or both. A
                        // charge that turns the bound off still gets
                        // walls, priced as if the charge were 2.
                        let charge = charge.max(2.0);
                        for centre in [[goal].as_slice(), &[start], &[goal, start]][q % 3] {
                            wall_rings(&mut rng, w, h, &mut costs, *centre, charge);
                        }
                    }
                    if charge > 1.0 {
                        levels[walls_between(w, h, start, goal, &costs, charge).min(2)] += 1;
                    }
                    match both(&mut search, start, goal, &costs, charge, &forbidden) {
                        None => unreachable += 1,
                        Some(p) if p.len() == 1 => trivial += 1,
                        Some(_) => found += 1,
                    }
                }
            }
            assert!(
                found > 0 && unreachable > 0 && trivial > 0,
                "sweep missed a case: {found} paths, {unreachable} None, {trivial} trivial"
            );
            assert!(
                levels.iter().all(|&n| n > 0),
                "sweep missed a start level: {levels:?} at levels 0, 1, 2+"
            );
        }
    }
}
