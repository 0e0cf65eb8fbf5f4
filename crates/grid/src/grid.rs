//! The 3-D routing grid: capacities, usage tracking and overflow metrics.

use crate::{Cell, Direction, Edge2d, Layer};

/// The 3-D global-routing grid.
///
/// A grid is `width × height` tiles and a stack of unidirectional
/// [`Layer`]s. For every layer the grid stores the wire capacity and the
/// current wire usage of each routing edge of that layer's direction, plus
/// the via usage stacked through every tile.
///
/// The grid also keeps every tile's Eqn. (1) via capacity, the running
/// wire and via overflow totals and the running via count. The mutators
/// ([`Grid::add_wire`], [`Grid::remove_wire`], their run forms
/// [`Grid::add_wire_run`] and [`Grid::remove_wire_run`],
/// [`Grid::add_via_stack`], [`Grid::remove_via_stack`] and
/// [`Grid::set_edge_capacity`]) update them from the entries they touch,
/// and [`Grid::restore_usage`] recounts the overflow totals, so
/// [`Grid::via_capacity`], [`Grid::total_wire_overflow`],
/// [`Grid::total_via_overflow`] and [`Grid::total_via_count`] are O(1)
/// reads.
///
/// Construct with [`crate::GridBuilder`].
///
/// # Edge addressing
///
/// Routing edges are addressed by [`Edge2d`] (2-D projection) together with
/// a layer index; the layer's preferred direction must match the edge
/// orientation. Horizontal edges exist for `x ∈ 0..width-1`, vertical edges
/// for `y ∈ 0..height-1`.
#[derive(Clone, PartialEq, Debug)]
pub struct Grid {
    pub(crate) width: u16,
    pub(crate) height: u16,
    pub(crate) tile_width: f64,
    pub(crate) tile_height: f64,
    pub(crate) via_width: f64,
    pub(crate) via_spacing: f64,
    pub(crate) layers: Vec<Layer>,
    /// Resistance of a via between layer `l` and `l + 1` (Ω).
    pub(crate) via_resistance: Vec<f64>,
    /// Per layer: capacity of each edge of that layer's direction.
    pub(crate) cap: Vec<Vec<u32>>,
    /// Per layer: wires currently crossing each edge.
    pub(crate) usage: Vec<Vec<u32>>,
    /// Per layer: vias currently passing *through* that layer at each cell.
    pub(crate) via_usage: Vec<Vec<u32>>,
    /// Per layer: the Eqn. (1) via capacity of each cell, computed once by
    /// the builder and refreshed by [`Grid::set_edge_capacity`].
    pub(crate) via_cap: Vec<Vec<u32>>,
    /// Running `Σ max(0, usage − cap)` over all layer edges.
    pub(crate) wire_overflow: u64,
    /// Running `Σ max(0, via_usage − via_cap)` over all layer cells.
    pub(crate) via_overflow: u64,
    /// Running `Σ (hi − lo)` over the recorded via stacks.
    pub(crate) via_count: u64,
}

/// The edges a straight wire between two cells crosses, as a strided run
/// of its direction's flat edge array ([`Grid::edge_flat_index`] layout):
/// stride 1 for a horizontal run, stride `width` for a vertical one.
///
/// Built by [`Grid::edge_run`]; [`EdgeRun::indices`] walks the run from
/// the `from` end, the order [`Grid::edge_run`] documents.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct EdgeRun {
    dir: Direction,
    /// Flat index of the edge at the `from` end.
    first: usize,
    stride: usize,
    len: usize,
    /// Whether the walk runs toward lower indices.
    descending: bool,
}

impl EdgeRun {
    /// Flat indices of the run's edges, from the `from` end.
    pub fn indices(self) -> impl Iterator<Item = usize> {
        let EdgeRun {
            first,
            stride,
            descending,
            ..
        } = self;
        (0..self.len).map(move |k| {
            if descending {
                first - k * stride
            } else {
                first + k * stride
            }
        })
    }
}

/// Opaque copy of a grid's usage state, for what-if exploration.
///
/// Created by [`Grid::snapshot_usage`] and consumed by
/// [`Grid::restore_usage`].
#[derive(Clone, PartialEq, Debug)]
pub struct UsageSnapshot {
    usage: Vec<Vec<u32>>,
    via_usage: Vec<Vec<u32>>,
    /// The via count: unlike the overflow totals it does not depend on
    /// capacities, so it is stored rather than recounted.
    via_count: u64,
}

impl Grid {
    // ------------------------------------------------------------------
    // Dimensions and layers
    // ------------------------------------------------------------------

    /// Number of tile columns.
    pub fn width(&self) -> u16 {
        self.width
    }

    /// Number of tile rows.
    pub fn height(&self) -> u16 {
        self.height
    }

    /// Number of metal layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Physical tile width (x extent), in the same unit as wire geometry.
    pub fn tile_width(&self) -> f64 {
        self.tile_width
    }

    /// Physical tile height (y extent).
    pub fn tile_height(&self) -> f64 {
        self.tile_height
    }

    /// The layer with index `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l >= self.num_layers()`.
    pub fn layer(&self, l: usize) -> &Layer {
        &self.layers[l]
    }

    /// All layers, bottom (index 0) to top.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Indices of the layers whose preferred direction is `dir`, bottom up.
    ///
    /// ```
    /// use grid::{Direction, GridBuilder};
    /// # fn main() -> Result<(), grid::BuildGridError> {
    /// let g = GridBuilder::new(4, 4)
    ///     .alternating_layers(4, Direction::Horizontal)
    ///     .build()?;
    /// let h: Vec<_> = g.layers_in_direction(Direction::Horizontal).collect();
    /// assert_eq!(h, vec![0, 2]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn layers_in_direction(&self, dir: Direction) -> impl Iterator<Item = usize> + '_ {
        self.layers
            .iter()
            .enumerate()
            .filter(move |(_, l)| l.direction == dir)
            .map(|(i, _)| i)
    }

    /// Resistance of a via between layers `l` and `l + 1` (Ω).
    ///
    /// # Panics
    ///
    /// Panics if `l + 1 >= self.num_layers()`.
    pub fn via_resistance(&self, l: usize) -> f64 {
        self.via_resistance[l]
    }

    /// Total resistance of a via stack spanning layers `lo..=hi`.
    ///
    /// Returns 0 when `lo == hi`.
    ///
    /// # Panics
    ///
    /// Panics if `hi >= self.num_layers()` or `lo > hi`.
    pub fn via_stack_resistance(&self, lo: usize, hi: usize) -> f64 {
        assert!(lo <= hi && hi < self.num_layers());
        self.via_resistance[lo..hi].iter().sum()
    }

    /// Number of vias a single routing track can host inside one tile
    /// (`n_v` of constraint (4d) in the paper).
    pub fn vias_per_track(&self) -> u32 {
        let pitch = self.via_width + self.via_spacing;
        if pitch <= 0.0 {
            return 0;
        }
        (self.tile_width / pitch).floor() as u32
    }

    // ------------------------------------------------------------------
    // Edge iteration and validation
    // ------------------------------------------------------------------

    /// Whether `cell` lies inside the grid.
    pub fn contains(&self, cell: Cell) -> bool {
        cell.x < self.width && cell.y < self.height
    }

    /// Whether `edge` is a valid routing edge of this grid.
    pub fn contains_edge(&self, edge: Edge2d) -> bool {
        match edge.dir {
            Direction::Horizontal => edge.cell.x + 1 < self.width && edge.cell.y < self.height,
            Direction::Vertical => edge.cell.x < self.width && edge.cell.y + 1 < self.height,
        }
    }

    /// Iterates over every routing edge of orientation `dir`.
    pub fn edges_in_direction(&self, dir: Direction) -> impl Iterator<Item = Edge2d> + '_ {
        let (nx, ny) = match dir {
            Direction::Horizontal => (self.width - 1, self.height),
            Direction::Vertical => (self.width, self.height - 1),
        };
        (0..ny).flat_map(move |y| {
            (0..nx).map(move |x| Edge2d {
                cell: Cell::new(x, y),
                dir,
            })
        })
    }

    /// Iterates over every tile of the grid in row-major order.
    pub fn cells(&self) -> impl Iterator<Item = Cell> + '_ {
        let (w, h) = (self.width, self.height);
        (0..h).flat_map(move |y| (0..w).map(move |x| Cell::new(x, y)))
    }

    /// Number of routing edges of orientation `dir`.
    pub fn num_edges(&self, dir: Direction) -> usize {
        match dir {
            Direction::Horizontal => (self.width as usize - 1) * self.height as usize,
            Direction::Vertical => self.width as usize * (self.height as usize - 1),
        }
    }

    /// Flat index of `edge` within its direction's edge array — stable
    /// across calls, dense in `0..self.num_edges(edge.dir)`. Useful for
    /// callers maintaining per-edge side tables (e.g. Lagrange
    /// multipliers).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the edge is out of bounds.
    pub fn edge_flat_index(&self, edge: Edge2d) -> usize {
        self.edge_index(edge)
    }

    /// Flat row-major index of `cell`, dense in
    /// `0..width() * height()`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the cell is out of bounds.
    pub fn cell_flat_index(&self, cell: Cell) -> usize {
        self.cell_index(cell)
    }

    /// The run of edges a straight wire from `from` to `to` crosses,
    /// walked from `from`: the [`Edge2d`]s between consecutive cells of
    /// the wire, in that order.
    ///
    /// ```
    /// use grid::{Cell, Direction, Edge2d, GridBuilder};
    /// # fn main() -> Result<(), grid::BuildGridError> {
    /// let g = GridBuilder::new(4, 3)
    ///     .alternating_layers(2, Direction::Horizontal)
    ///     .build()?;
    /// let run = g.edge_run(Cell::new(1, 2), Cell::new(1, 0));
    /// let walked: Vec<usize> = run.indices().collect();
    /// let expected = [Edge2d::vertical(1, 1), Edge2d::vertical(1, 0)]
    ///     .map(|e| g.edge_flat_index(e));
    /// assert_eq!(walked, expected);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if either cell is off the grid, the cells coincide, or
    /// they share neither a row nor a column.
    pub fn edge_run(&self, from: Cell, to: Cell) -> EdgeRun {
        assert!(self.contains(from), "cell {from} out of bounds");
        assert!(self.contains(to), "cell {to} out of bounds");
        assert!(from != to, "zero-length wire at {from}");
        let w = self.width as usize;
        // The flat index of the line's edge at coordinate 0, the stride
        // between neighbours, and the two ends' coordinates along it.
        let (dir, line, stride, a, b) = if from.y == to.y {
            let row = from.y as usize * (w - 1);
            (Direction::Horizontal, row, 1, from.x, to.x)
        } else {
            assert!(from.x == to.x, "wire {from}->{to} is not straight");
            (Direction::Vertical, from.x as usize, w, from.y, to.y)
        };
        // Walking down, the first edge is the one below `from`.
        let descending = b < a;
        let first_step = if descending { a - 1 } else { a };
        EdgeRun {
            dir,
            first: line + first_step as usize * stride,
            stride,
            len: usize::from(a.abs_diff(b)),
            descending,
        }
    }

    /// The edge of orientation `dir` at flat index `idx`: the inverse of
    /// [`Grid::edge_flat_index`].
    fn edge_at(&self, dir: Direction, idx: usize) -> Edge2d {
        let cols = match dir {
            Direction::Horizontal => self.width as usize - 1,
            Direction::Vertical => self.width as usize,
        };
        Edge2d {
            // cast: `idx` indexes an edge of this grid, so its column and
            // row are below `width` and `height`, both `u16`.
            cell: Cell::new((idx % cols) as u16, (idx / cols) as u16),
            dir,
        }
    }

    /// Flat index of `edge` within its direction's edge array.
    pub(crate) fn edge_index(&self, edge: Edge2d) -> usize {
        debug_assert!(self.contains_edge(edge), "edge {edge} out of bounds");
        match edge.dir {
            Direction::Horizontal => {
                edge.cell.y as usize * (self.width as usize - 1) + edge.cell.x as usize
            }
            Direction::Vertical => {
                edge.cell.y as usize * self.width as usize + edge.cell.x as usize
            }
        }
    }

    fn cell_index(&self, cell: Cell) -> usize {
        debug_assert!(self.contains(cell), "cell {cell} out of bounds");
        cell.y as usize * self.width as usize + cell.x as usize
    }

    fn check_layer_edge(&self, layer: usize, edge: Edge2d) {
        assert!(layer < self.num_layers(), "layer {layer} out of range");
        assert!(
            self.layers[layer].direction == edge.dir,
            "edge {edge} does not match direction of layer {layer}"
        );
        assert!(self.contains_edge(edge), "edge {edge} out of bounds");
    }

    // ------------------------------------------------------------------
    // Wire capacity and usage
    // ------------------------------------------------------------------

    /// Wire capacity of `edge` on `layer`.
    ///
    /// # Panics
    ///
    /// Panics if the layer index is out of range, the layer direction does
    /// not match the edge orientation, or the edge is out of bounds.
    pub fn edge_capacity(&self, layer: usize, edge: Edge2d) -> u32 {
        self.check_layer_edge(layer, edge);
        self.cap[layer][self.edge_index(edge)]
    }

    /// Overrides the wire capacity of `edge` on `layer` (used for ISPD'08
    /// capacity adjustments and blockage modelling).
    ///
    /// # Panics
    ///
    /// Same conditions as [`Grid::edge_capacity`].
    pub fn set_edge_capacity(&mut self, layer: usize, edge: Edge2d, cap: u32) {
        self.check_layer_edge(layer, edge);
        let idx = self.edge_index(edge);
        let usage = self.usage[layer][idx];
        self.wire_overflow -= u64::from(usage.saturating_sub(self.cap[layer][idx]));
        self.wire_overflow += u64::from(usage.saturating_sub(cap));
        self.cap[layer][idx] = cap;
        // The edge is the "next" edge of its own cell and the "previous"
        // edge of the far cell; no other cell's Eqn. (1) reads it.
        let (near, far) = edge.endpoints();
        self.refresh_via_capacity(near, layer);
        self.refresh_via_capacity(far, layer);
    }

    /// Number of wires currently routed across `edge` on `layer`.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Grid::edge_capacity`].
    pub fn edge_usage(&self, layer: usize, edge: Edge2d) -> u32 {
        self.check_layer_edge(layer, edge);
        self.usage[layer][self.edge_index(edge)]
    }

    /// Remaining capacity of `edge` on `layer` (zero when overflowed).
    ///
    /// # Panics
    ///
    /// Same conditions as [`Grid::edge_capacity`].
    pub fn edge_residual(&self, layer: usize, edge: Edge2d) -> u32 {
        self.check_layer_edge(layer, edge);
        let idx = self.edge_index(edge);
        self.cap[layer][idx].saturating_sub(self.usage[layer][idx])
    }

    /// Records one more wire crossing `edge` on `layer`.
    ///
    /// Overflow is permitted (and counted by
    /// [`Grid::total_wire_overflow`]); callers that must stay legal check
    /// [`Grid::edge_residual`] first.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Grid::edge_capacity`].
    pub fn add_wire(&mut self, layer: usize, edge: Edge2d) {
        self.check_layer_edge(layer, edge);
        let idx = self.edge_index(edge);
        self.usage[layer][idx] += 1;
        if self.usage[layer][idx] > self.cap[layer][idx] {
            self.wire_overflow += 1;
        }
    }

    /// Removes one wire from `edge` on `layer`.
    ///
    /// # Panics
    ///
    /// Panics if no wire is recorded on the edge, plus the conditions of
    /// [`Grid::edge_capacity`].
    pub fn remove_wire(&mut self, layer: usize, edge: Edge2d) {
        self.check_layer_edge(layer, edge);
        let idx = self.edge_index(edge);
        assert!(
            self.usage[layer][idx] > 0,
            "removing wire from empty edge {edge} on layer {layer}"
        );
        if self.usage[layer][idx] > self.cap[layer][idx] {
            self.wire_overflow -= 1;
        }
        self.usage[layer][idx] -= 1;
    }

    /// Records one more wire on every edge of `run` on `layer`: the
    /// same books as [`Grid::add_wire`] edge by edge, with the layer
    /// checked once.
    ///
    /// # Panics
    ///
    /// Panics if the layer index is out of range or the layer direction
    /// does not match the run's. `run` must come from this grid's
    /// [`Grid::edge_run`].
    pub fn add_wire_run(&mut self, layer: usize, run: EdgeRun) {
        self.check_layer_run(layer, run);
        let usage = &mut self.usage[layer];
        let cap = &self.cap[layer];
        let mut over = 0;
        for i in run.indices() {
            usage[i] += 1;
            over += u64::from(usage[i] > cap[i]);
        }
        self.wire_overflow += over;
    }

    /// Removes one wire from every edge of `run` on `layer`, in run
    /// order: the inverse of [`Grid::add_wire_run`].
    ///
    /// # Panics
    ///
    /// Panics if some edge of the run holds no wire, plus the conditions
    /// of [`Grid::add_wire_run`].
    pub fn remove_wire_run(&mut self, layer: usize, run: EdgeRun) {
        self.check_layer_run(layer, run);
        for i in run.indices() {
            let usage = self.usage[layer][i];
            assert!(
                usage > 0,
                "removing wire from empty edge {} on layer {layer}",
                self.edge_at(run.dir, i)
            );
            if usage > self.cap[layer][i] {
                self.wire_overflow -= 1;
            }
            self.usage[layer][i] = usage - 1;
        }
    }

    fn check_layer_run(&self, layer: usize, run: EdgeRun) {
        assert!(layer < self.num_layers(), "layer {layer} out of range");
        assert!(
            self.layers[layer].direction == run.dir,
            "{} run does not match direction of layer {layer}",
            run.dir
        );
    }

    // ------------------------------------------------------------------
    // Via capacity and usage
    // ------------------------------------------------------------------

    /// Via capacity of `cell` on `layer`, per Eqn. (1) of the paper:
    ///
    /// ```text
    /// cap_g(l) = ⌊ (w_w + w_s) · Tile_w · (cap_e0(l) + cap_e1(l))
    ///             / (v_w + v_s)² ⌋
    /// ```
    ///
    /// where `e0`, `e1` are the two edges of layer `l` incident on the
    /// cell along the layer's routing direction (missing boundary edges
    /// contribute zero capacity). If both edges are fully occupied by
    /// wires, no vias can pass through the cell on this layer.
    ///
    /// O(1): the value is cached when the grid is built and refreshed
    /// whenever [`Grid::set_edge_capacity`] edits `e0` or `e1`.
    ///
    /// # Panics
    ///
    /// Panics if the layer index or cell is out of range.
    pub fn via_capacity(&self, cell: Cell, layer: usize) -> u32 {
        assert!(layer < self.num_layers(), "layer {layer} out of range");
        assert!(self.contains(cell), "cell {cell} out of bounds");
        self.via_cap[layer][self.cell_index(cell)]
    }

    /// Evaluates Eqn. (1) for `cell` on `layer` from the current edge
    /// capacities (what [`Grid::via_capacity`] caches).
    pub(crate) fn eqn1_via_capacity(&self, cell: Cell, layer: usize) -> u32 {
        let lay = &self.layers[layer];
        let dir = lay.direction;
        let mut edge_cap_sum = 0u64;
        // The "previous" edge (left of / below the cell)...
        let prev = match dir {
            Direction::Horizontal if cell.x > 0 => Some(Edge2d::horizontal(cell.x - 1, cell.y)),
            Direction::Vertical if cell.y > 0 => Some(Edge2d::vertical(cell.x, cell.y - 1)),
            _ => None,
        };
        // ...and the "next" edge (right of / above the cell).
        let next = match dir {
            Direction::Horizontal => Edge2d::horizontal(cell.x, cell.y),
            Direction::Vertical => Edge2d::vertical(cell.x, cell.y),
        };
        if let Some(e) = prev {
            edge_cap_sum += self.cap[layer][self.edge_index(e)] as u64;
        }
        if self.contains_edge(next) {
            edge_cap_sum += self.cap[layer][self.edge_index(next)] as u64;
        }
        let via_pitch = self.via_width + self.via_spacing;
        if via_pitch <= 0.0 {
            return 0;
        }
        let tile_extent = match dir {
            Direction::Horizontal => self.tile_width,
            Direction::Vertical => self.tile_height,
        };
        let cap = lay.pitch() * tile_extent * edge_cap_sum as f64 / (via_pitch * via_pitch);
        cap.floor().max(0.0) as u32
    }

    /// Re-evaluates the cached via capacity of `cell` on `layer` and moves
    /// the running via overflow by the change.
    fn refresh_via_capacity(&mut self, cell: Cell, layer: usize) {
        let idx = self.cell_index(cell);
        let fresh = self.eqn1_via_capacity(cell, layer);
        let usage = self.via_usage[layer][idx];
        self.via_overflow -= u64::from(usage.saturating_sub(self.via_cap[layer][idx]));
        self.via_overflow += u64::from(usage.saturating_sub(fresh));
        self.via_cap[layer][idx] = fresh;
    }

    /// Number of vias currently passing through `cell` on `layer`.
    ///
    /// # Panics
    ///
    /// Panics if the layer index or cell is out of range.
    pub fn via_usage(&self, cell: Cell, layer: usize) -> u32 {
        assert!(layer < self.num_layers(), "layer {layer} out of range");
        self.via_usage[layer][self.cell_index(cell)]
    }

    /// Records a via stack at `cell` spanning layers `lo..=hi`.
    ///
    /// Following constraint (4d) of the paper, the stack consumes via
    /// capacity on every layer *strictly between* its endpoints; a
    /// single-hop via (`hi == lo + 1`) consumes none. Every stack adds
    /// its `hi − lo` vias to [`Grid::total_via_count`].
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`, `hi >= self.num_layers()`, or the cell is out
    /// of range.
    pub fn add_via_stack(&mut self, cell: Cell, lo: usize, hi: usize) {
        assert!(lo <= hi && hi < self.num_layers());
        let idx = self.cell_index(cell);
        self.via_count += (hi - lo) as u64;
        for l in (lo + 1)..hi {
            self.via_usage[l][idx] += 1;
            if self.via_usage[l][idx] > self.via_cap[l][idx] {
                self.via_overflow += 1;
            }
        }
    }

    /// Removes a via stack previously recorded with
    /// [`Grid::add_via_stack`].
    ///
    /// # Panics
    ///
    /// Panics if the stack was not recorded (usage or via-count
    /// underflow) or the arguments are out of range.
    pub fn remove_via_stack(&mut self, cell: Cell, lo: usize, hi: usize) {
        assert!(lo <= hi && hi < self.num_layers());
        assert!(
            self.via_count >= (hi - lo) as u64,
            "removing vias {lo}..={hi} at {cell} from a grid that holds {}",
            self.via_count
        );
        let idx = self.cell_index(cell);
        for l in (lo + 1)..hi {
            assert!(
                self.via_usage[l][idx] > 0,
                "removing via from empty cell {cell} on layer {l}"
            );
            if self.via_usage[l][idx] > self.via_cap[l][idx] {
                self.via_overflow -= 1;
            }
            self.via_usage[l][idx] -= 1;
        }
        self.via_count -= (hi - lo) as u64;
    }

    // ------------------------------------------------------------------
    // Overflow metrics
    // ------------------------------------------------------------------

    /// Total wire overflow: `Σ max(0, usage − cap)` over all layer edges.
    ///
    /// O(1): a running total kept by the usage and capacity mutators.
    pub fn total_wire_overflow(&self) -> u64 {
        self.wire_overflow
    }

    /// Total via overflow (the paper's `OV#`): `Σ max(0, via_usage −
    /// via_cap)` over all cells and layers.
    ///
    /// O(1): a running total kept by the usage and capacity mutators.
    pub fn total_via_overflow(&self) -> u64 {
        self.via_overflow
    }

    /// Total via count (the paper's `via#`): `Σ (hi − lo)` over the via
    /// stacks recorded by [`Grid::add_via_stack`] and not yet removed.
    ///
    /// O(1): a running total kept by the via-stack mutators.
    pub fn total_via_count(&self) -> u64 {
        self.via_count
    }

    // ------------------------------------------------------------------
    // Row views
    // ------------------------------------------------------------------

    /// Wire usage of every edge of `layer`, in [`Grid::edge_flat_index`]
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `layer >= self.num_layers()`.
    pub fn edge_usage_row(&self, layer: usize) -> &[u32] {
        &self.usage[layer]
    }

    /// Wire capacity of every edge of `layer`, in
    /// [`Grid::edge_flat_index`] order.
    ///
    /// # Panics
    ///
    /// Panics if `layer >= self.num_layers()`.
    pub fn edge_capacity_row(&self, layer: usize) -> &[u32] {
        &self.cap[layer]
    }

    /// Via usage of every cell on `layer`, in [`Grid::cell_flat_index`]
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `layer >= self.num_layers()`.
    pub fn via_usage_row(&self, layer: usize) -> &[u32] {
        &self.via_usage[layer]
    }

    /// Via capacity of every cell on `layer`, in
    /// [`Grid::cell_flat_index`] order.
    ///
    /// # Panics
    ///
    /// Panics if `layer >= self.num_layers()`.
    pub fn via_capacity_row(&self, layer: usize) -> &[u32] {
        &self.via_cap[layer]
    }

    // ------------------------------------------------------------------
    // 2-D projection (used by the initial global router)
    // ------------------------------------------------------------------

    /// Combined wire capacity of `edge` over all layers of its direction.
    ///
    /// # Panics
    ///
    /// Panics if the edge is out of bounds.
    pub fn projected_capacity(&self, edge: Edge2d) -> u32 {
        assert!(self.contains_edge(edge), "edge {edge} out of bounds");
        let idx = self.edge_index(edge);
        self.layers_in_direction(edge.dir)
            .map(|l| self.cap[l][idx])
            .sum()
    }

    /// Combined wire usage of `edge` over all layers of its direction.
    ///
    /// # Panics
    ///
    /// Panics if the edge is out of bounds.
    pub fn projected_usage(&self, edge: Edge2d) -> u32 {
        assert!(self.contains_edge(edge), "edge {edge} out of bounds");
        let idx = self.edge_index(edge);
        self.layers_in_direction(edge.dir)
            .map(|l| self.usage[l][idx])
            .sum()
    }

    // ------------------------------------------------------------------
    // Snapshots
    // ------------------------------------------------------------------

    /// Captures the current wire and via usage and the via count.
    pub fn snapshot_usage(&self) -> UsageSnapshot {
        UsageSnapshot {
            usage: self.usage.clone(),
            via_usage: self.via_usage.clone(),
            via_count: self.via_count,
        }
    }

    /// Restores usage captured by [`Grid::snapshot_usage`].
    ///
    /// # Panics
    ///
    /// Panics if the snapshot was taken from a grid of different shape.
    pub fn restore_usage(&mut self, snapshot: UsageSnapshot) {
        assert_eq!(snapshot.usage.len(), self.usage.len());
        assert_eq!(snapshot.via_usage.len(), self.via_usage.len());
        for (a, b) in snapshot.usage.iter().zip(&self.usage) {
            assert_eq!(a.len(), b.len(), "snapshot shape mismatch");
        }
        for (a, b) in snapshot.via_usage.iter().zip(&self.via_usage) {
            assert_eq!(a.len(), b.len(), "snapshot shape mismatch");
        }
        self.usage = snapshot.usage;
        self.via_usage = snapshot.via_usage;
        self.via_count = snapshot.via_count;
        // A snapshot can outlive a capacity edit, so the totals are
        // recounted against today's capacities rather than stored.
        self.wire_overflow = excess(&self.usage, &self.cap);
        self.via_overflow = excess(&self.via_usage, &self.via_cap);
    }
}

/// `Σ max(0, usage − cap)` over matching per-layer tables.
fn excess(usage: &[Vec<u32>], cap: &[Vec<u32>]) -> u64 {
    usage
        .iter()
        .zip(cap)
        .flat_map(|(u, c)| u.iter().zip(c))
        .map(|(&u, &c)| u64::from(u.saturating_sub(c)))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GridBuilder;

    fn grid4() -> Grid {
        GridBuilder::new(4, 3)
            .alternating_layers(4, Direction::Horizontal)
            .uniform_capacity(5)
            .build()
            .unwrap()
    }

    #[test]
    fn edge_counts_match_dims() {
        let g = grid4();
        assert_eq!(
            g.edges_in_direction(Direction::Horizontal).count(),
            3 * 3 // (width-1) * height
        );
        assert_eq!(
            g.edges_in_direction(Direction::Vertical).count(),
            4 * 2 // width * (height-1)
        );
        assert_eq!(g.cells().count(), 12);
    }

    #[test]
    fn wire_usage_roundtrip() {
        let mut g = grid4();
        let e = Edge2d::horizontal(1, 1);
        assert_eq!(g.edge_usage(0, e), 0);
        g.add_wire(0, e);
        g.add_wire(0, e);
        assert_eq!(g.edge_usage(0, e), 2);
        assert_eq!(g.edge_residual(0, e), 3);
        g.remove_wire(0, e);
        assert_eq!(g.edge_usage(0, e), 1);
    }

    #[test]
    #[should_panic(expected = "does not match direction")]
    fn wrong_direction_layer_panics() {
        let g = grid4();
        // Layer 1 is vertical; horizontal edge should be rejected.
        g.edge_capacity(1, Edge2d::horizontal(0, 0));
    }

    #[test]
    #[should_panic(expected = "removing wire from empty edge")]
    fn remove_from_empty_edge_panics() {
        let mut g = grid4();
        g.remove_wire(0, Edge2d::horizontal(0, 0));
    }

    #[test]
    fn overflow_counts_excess_only() {
        let mut g = grid4();
        let e = Edge2d::horizontal(0, 0);
        for _ in 0..7 {
            g.add_wire(0, e);
        }
        // capacity 5, usage 7 -> overflow 2
        assert_eq!(g.total_wire_overflow(), 2);
    }

    #[test]
    fn via_capacity_boundary_cells_have_less() {
        let g = grid4();
        // Layer 0 horizontal: an interior cell has two adjacent H edges,
        // a corner cell only one, so interior capacity must be larger.
        let interior = g.via_capacity(Cell::new(1, 1), 0);
        let corner = g.via_capacity(Cell::new(0, 0), 0);
        assert!(interior > corner, "{interior} vs {corner}");
        assert_eq!(interior, 2 * corner);
    }

    #[test]
    fn via_stack_consumes_interior_layers_only() {
        let mut g = grid4();
        let c = Cell::new(2, 1);
        g.add_via_stack(c, 0, 3);
        assert_eq!(g.total_via_count(), 3);
        assert_eq!(g.via_usage(c, 0), 0);
        assert_eq!(g.via_usage(c, 1), 1);
        assert_eq!(g.via_usage(c, 2), 1);
        assert_eq!(g.via_usage(c, 3), 0);
        // Single-hop via consumes nothing, but it is a via.
        g.add_via_stack(c, 1, 2);
        assert_eq!(g.via_usage(c, 1), 1);
        assert_eq!(g.total_via_count(), 4);
        g.remove_via_stack(c, 0, 3);
        assert_eq!(g.via_usage(c, 1), 0);
        assert_eq!(g.via_usage(c, 2), 0);
        assert_eq!(g.total_via_count(), 1);
    }

    #[test]
    fn projected_capacity_sums_layers() {
        let g = grid4();
        // 2 horizontal layers (0 and 2) with capacity 5 each.
        assert_eq!(g.projected_capacity(Edge2d::horizontal(0, 0)), 10);
    }

    #[test]
    fn snapshot_restores_usage() {
        let mut g = grid4();
        let snap = g.snapshot_usage();
        g.add_wire(0, Edge2d::horizontal(0, 0));
        g.add_via_stack(Cell::new(1, 1), 0, 2);
        assert_eq!(g.edge_usage(0, Edge2d::horizontal(0, 0)), 1);
        g.restore_usage(snap);
        assert_eq!(g.edge_usage(0, Edge2d::horizontal(0, 0)), 0);
        assert_eq!(g.via_usage(Cell::new(1, 1), 1), 0);
        assert_eq!(g.total_via_count(), 0);
    }

    #[test]
    fn edge_flat_index_is_a_bijection() {
        let g = grid4();
        for dir in [Direction::Horizontal, Direction::Vertical] {
            let mut seen = vec![false; g.num_edges(dir)];
            for e in g.edges_in_direction(dir) {
                let idx = g.edge_flat_index(e);
                assert!(idx < seen.len(), "{e} -> {idx} out of range");
                assert!(!seen[idx], "{e} collides at {idx}");
                seen[idx] = true;
            }
            assert!(seen.iter().all(|&s| s), "indices not dense for {dir}");
        }
    }

    #[test]
    fn cell_flat_index_is_dense() {
        let g = grid4();
        let mut seen = [false; 4 * 3];
        for c in g.cells() {
            let idx = g.cell_flat_index(c);
            assert!(!seen[idx]);
            seen[idx] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "from a grid that holds 0")]
    fn removing_an_unrecorded_single_hop_via_panics() {
        // It takes no via capacity, so only the count can notice.
        grid4().remove_via_stack(Cell::new(2, 1), 1, 2);
    }

    #[test]
    fn via_stack_resistance_sums_boundaries() {
        let g = grid4();
        let r01 = g.via_resistance(0);
        let r12 = g.via_resistance(1);
        assert!((g.via_stack_resistance(0, 2) - (r01 + r12)).abs() < 1e-12);
        assert_eq!(g.via_stack_resistance(1, 1), 0.0);
    }

    mod properties {
        use super::*;

        /// `Σ max(0, usage − cap)` scanned edge by edge.
        fn scan_wire_overflow(g: &Grid) -> u64 {
            let mut total = 0u64;
            for l in 0..g.num_layers() {
                for e in g.edges_in_direction(g.layer(l).direction) {
                    total += u64::from(g.edge_usage(l, e).saturating_sub(g.edge_capacity(l, e)));
                }
            }
            total
        }

        /// `Σ max(0, via_usage − cap_g)` scanned cell by cell, with
        /// Eqn. (1) evaluated afresh rather than read from the cache.
        fn scan_via_overflow(g: &Grid) -> u64 {
            let mut total = 0u64;
            for l in 0..g.num_layers() {
                for cell in g.cells() {
                    let cap = g.eqn1_via_capacity(cell, l);
                    total += u64::from(g.via_usage(cell, l).saturating_sub(cap));
                }
            }
            total
        }

        /// The edges between consecutive cells of a straight wire from
        /// `a` to `b`, walked from `a`.
        fn walk_edges(a: Cell, b: Cell) -> Vec<Edge2d> {
            let mut edges = Vec::new();
            let mut at = a;
            while at != b {
                let next = match (at.x.cmp(&b.x), at.y.cmp(&b.y)) {
                    (std::cmp::Ordering::Less, _) => Cell::new(at.x + 1, at.y),
                    (std::cmp::Ordering::Greater, _) => Cell::new(at.x - 1, at.y),
                    (_, std::cmp::Ordering::Less) => Cell::new(at.x, at.y + 1),
                    _ => Cell::new(at.x, at.y - 1),
                };
                edges.push(Edge2d::between(at, next).unwrap());
                at = next;
            }
            edges
        }

        /// Every edge's usage equals the wires the ledger recorded on it.
        fn check_usage(g: &Grid, ledger: &Ledger, what: &str) {
            let mut expected: Vec<Vec<u32>> = (0..g.num_layers())
                .map(|l| vec![0; g.edge_usage_row(l).len()])
                .collect();
            let run_wires = ledger
                .runs
                .iter()
                .flat_map(|&(l, a, b)| walk_edges(a, b).into_iter().map(move |e| (l, e)));
            for (l, e) in ledger.wires.iter().copied().chain(run_wires) {
                expected[l][g.edge_flat_index(e)] += 1;
            }
            for (l, row) in expected.iter().enumerate() {
                assert_eq!(g.edge_usage_row(l), row, "after {what}: usage on layer {l}");
            }
        }

        fn check_books(g: &Grid, ledger: &Ledger, what: &str) {
            check_usage(g, ledger, what);
            let vias: u64 = ledger
                .stacks
                .iter()
                .map(|&(_, lo, hi)| (hi - lo) as u64)
                .sum();
            assert_eq!(g.total_via_count(), vias, "after {what}: via count");
            assert_eq!(
                g.total_wire_overflow(),
                scan_wire_overflow(g),
                "after {what}: wire total"
            );
            assert_eq!(
                g.total_via_overflow(),
                scan_via_overflow(g),
                "after {what}: via total"
            );
            for l in 0..g.num_layers() {
                for cell in g.cells() {
                    assert_eq!(
                        g.via_capacity(cell, l),
                        g.eqn1_via_capacity(cell, l),
                        "after {what}: via capacity of {cell} on layer {l}"
                    );
                }
            }
        }

        /// Usage recorded so far, so removals only undo what was added.
        #[derive(Clone, Default)]
        struct Ledger {
            wires: Vec<(usize, Edge2d)>,
            /// Straight wires `(layer, from, to)`, added and removed whole.
            runs: Vec<(usize, Cell, Cell)>,
            stacks: Vec<(Cell, usize, usize)>,
        }

        /// What the sweep reached; every count must end nonzero.
        #[derive(Default, Debug)]
        struct Reached {
            wire_overflow: usize,
            via_overflow: usize,
            /// Stacks of one hop: counted as vias, but no via usage.
            single_hop: usize,
            multi_hop: usize,
            cap_to_zero: usize,
            cap_below_usage: usize,
            boundary_edit: usize,
            restores: usize,
            /// Runs added or removed by the run calls, and edge by edge.
            run_calls: usize,
            run_edgewise: usize,
            descending_runs: usize,
        }

        fn random_edge(rng: &mut prng::Rng, g: &Grid, layer: usize) -> Option<Edge2d> {
            let edges: Vec<Edge2d> = g.edges_in_direction(g.layer(layer).direction).collect();
            (!edges.is_empty()).then(|| edges[rng.range_usize(0, edges.len() - 1)])
        }

        fn is_boundary(g: &Grid, e: Edge2d) -> bool {
            let (near, far) = e.endpoints();
            match e.dir {
                Direction::Horizontal => near.x == 0 || far.x + 1 == g.width(),
                Direction::Vertical => near.y == 0 || far.y + 1 == g.height(),
            }
        }

        /// One random mutation, recorded in `ledger` and `reached`.
        fn mutate(rng: &mut prng::Rng, g: &mut Grid, ledger: &mut Ledger, reached: &mut Reached) {
            let layers = g.num_layers();
            match rng.range_usize(0, 7) {
                0 | 1 => {
                    let l = rng.range_usize(0, layers - 1);
                    if let Some(e) = random_edge(rng, g, l) {
                        g.add_wire(l, e);
                        ledger.wires.push((l, e));
                    }
                }
                2 => {
                    if !ledger.wires.is_empty() {
                        let k = rng.range_usize(0, ledger.wires.len() - 1);
                        let (l, e) = ledger.wires.swap_remove(k);
                        g.remove_wire(l, e);
                    }
                }
                3 => {
                    let cell = Cell::new(
                        rng.range_u16(0, g.width() - 1),
                        rng.range_u16(0, g.height() - 1),
                    );
                    let lo = rng.range_usize(0, layers - 1);
                    let hi = rng.range_usize(lo, layers - 1);
                    reached.single_hop += usize::from(hi == lo + 1);
                    reached.multi_hop += usize::from(hi > lo + 1);
                    g.add_via_stack(cell, lo, hi);
                    ledger.stacks.push((cell, lo, hi));
                }
                4 => {
                    if !ledger.stacks.is_empty() {
                        let k = rng.range_usize(0, ledger.stacks.len() - 1);
                        let (cell, lo, hi) = ledger.stacks.swap_remove(k);
                        g.remove_via_stack(cell, lo, hi);
                    }
                }
                5 => add_run(rng, g, ledger, reached),
                6 => {
                    if !ledger.runs.is_empty() {
                        let k = rng.range_usize(0, ledger.runs.len() - 1);
                        let (l, a, b) = ledger.runs.swap_remove(k);
                        if rng.bool(0.5) {
                            g.remove_wire_run(l, g.edge_run(a, b));
                            reached.run_calls += 1;
                        } else {
                            for e in walk_edges(a, b) {
                                g.remove_wire(l, e);
                            }
                            reached.run_edgewise += 1;
                        }
                    }
                }
                _ => edit_capacity(rng, g, reached),
            }
        }

        /// A straight wire between two random cells of one row (or
        /// column) of a random layer, possibly walked toward the origin,
        /// added by `add_wire_run` or edge by edge.
        fn add_run(rng: &mut prng::Rng, g: &mut Grid, ledger: &mut Ledger, reached: &mut Reached) {
            let l = rng.range_usize(0, g.num_layers() - 1);
            let a = Cell::new(
                rng.range_u16(0, g.width() - 1),
                rng.range_u16(0, g.height() - 1),
            );
            let b = match g.layer(l).direction {
                Direction::Horizontal => Cell::new(rng.range_u16(0, g.width() - 1), a.y),
                Direction::Vertical => Cell::new(a.x, rng.range_u16(0, g.height() - 1)),
            };
            if a == b {
                return;
            }
            let run = g.edge_run(a, b);
            let edges = walk_edges(a, b);
            let walked: Vec<usize> = edges.iter().map(|&e| g.edge_flat_index(e)).collect();
            assert_eq!(run.indices().collect::<Vec<_>>(), walked, "run {a}->{b}");
            reached.descending_runs += usize::from(b < a);
            if rng.bool(0.5) {
                g.add_wire_run(l, run);
                reached.run_calls += 1;
            } else {
                for e in edges {
                    g.add_wire(l, e);
                }
                reached.run_edgewise += 1;
            }
            ledger.runs.push((l, a, b));
        }

        /// A capacity edit: to zero, to just below the edge's usage, or
        /// to a fresh value, half the time on a boundary edge.
        fn edit_capacity(rng: &mut prng::Rng, g: &mut Grid, reached: &mut Reached) {
            let l = rng.range_usize(0, g.num_layers() - 1);
            let mut pick = random_edge(rng, g, l);
            if rng.bool(0.5) {
                let boundary: Vec<Edge2d> = g
                    .edges_in_direction(g.layer(l).direction)
                    .filter(|&e| is_boundary(g, e))
                    .collect();
                if !boundary.is_empty() {
                    pick = Some(boundary[rng.range_usize(0, boundary.len() - 1)]);
                }
            }
            let Some(e) = pick else { return };
            let usage = g.edge_usage(l, e);
            let cap = match rng.range_usize(0, 2) {
                0 => 0,
                1 if usage > 0 => usage - 1,
                _ => rng.range_u32(0, 6),
            };
            reached.cap_to_zero += usize::from(cap == 0);
            reached.cap_below_usage += usize::from(cap < usage);
            reached.boundary_edit += usize::from(is_boundary(g, e));
            g.set_edge_capacity(l, e, cap);
        }

        /// Interleaved wire, via-stack and capacity edits plus snapshot
        /// / edit / restore rounds on random small grids: after every
        /// operation both running overflow totals equal a from-scratch
        /// recount, the running via count equals the ledger's `Σ (hi −
        /// lo)`, and every cached via capacity equals a fresh Eqn. (1)
        /// evaluation. Deterministic seed sweep; the off-by-default
        /// `proptest` feature widens it.
        #[test]
        fn running_books_match_a_recount() {
            let grids = if cfg!(feature = "proptest") { 400 } else { 40 };
            let mut rng = prng::Rng::seed_from_u64(0x0b00c5);
            let mut reached = Reached::default();
            for _ in 0..grids {
                let (w, h) = loop {
                    let (w, h) = (rng.range_u16(1, 6), rng.range_u16(1, 6));
                    if w * h >= 2 {
                        break (w, h);
                    }
                };
                let first = if rng.bool(0.5) {
                    Direction::Horizontal
                } else {
                    Direction::Vertical
                };
                let tile = [10.0, 20.0, 40.0][rng.range_usize(0, 2)];
                let via = [1.0, 3.0, 7.0][rng.range_usize(0, 2)];
                let mut g = GridBuilder::new(w, h)
                    .alternating_layers(rng.range_usize(2, 5), first)
                    .uniform_capacity(rng.range_u32(0, 4))
                    .tile_size(tile, tile)
                    .via_geometry(via, via)
                    .build()
                    .unwrap();
                let mut ledger = Ledger::default();
                check_books(&g, &ledger, "build");
                for _ in 0..60 {
                    if rng.bool(0.1) {
                        let snap = g.snapshot_usage();
                        let kept = ledger.clone();
                        for _ in 0..rng.range_usize(0, 6) {
                            mutate(&mut rng, &mut g, &mut ledger, &mut reached);
                            check_books(&g, &ledger, "mutation after a snapshot");
                        }
                        // At least one edit, so the restored usage meets
                        // capacities it was not counted against.
                        edit_capacity(&mut rng, &mut g, &mut reached);
                        check_books(&g, &ledger, "set_edge_capacity");
                        g.restore_usage(snap);
                        ledger = kept;
                        reached.restores += 1;
                        check_books(&g, &ledger, "restore_usage");
                    } else {
                        mutate(&mut rng, &mut g, &mut ledger, &mut reached);
                        check_books(&g, &ledger, "mutation");
                    }
                    reached.wire_overflow += usize::from(g.total_wire_overflow() > 0);
                    reached.via_overflow += usize::from(g.total_via_overflow() > 0);
                }
            }
            let r = &reached;
            assert!(
                [
                    r.wire_overflow,
                    r.via_overflow,
                    r.single_hop,
                    r.multi_hop,
                    r.cap_to_zero,
                    r.cap_below_usage,
                    r.boundary_edit,
                    r.restores,
                    r.run_calls,
                    r.run_edgewise,
                    r.descending_runs,
                ]
                .iter()
                .all(|&n| n > 0),
                "sweep missed a case: {r:?}"
            );
        }
    }
}
