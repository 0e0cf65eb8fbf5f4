//! The dual multipliers and the exact per-net tree DP that the two
//! Lagrangian engines (TILA and Lagrange) share.
//!
//! Both engines dualize the wire-edge (Eqn. 4c) and via-cell (Eqn. 4d)
//! capacity rows into [`Multipliers`], freeze each released net's
//! downstream capacitances, and then minimize every net's Lagrangian
//! exactly with one bottom-up DP over its routing tree ([`NetDp`]).
//! TILA weighs every net's delay terms by 1; Lagrange by the net's
//! criticality weight. `1.0 · x == x` in floating point, so one DP
//! serves both.

use grid::{Cell, Direction, Grid};
use net::Net;

/// Dense per-edge and per-via-cell dual multipliers.
#[derive(Clone, PartialEq, Debug)]
pub struct Multipliers {
    /// `edge[layer][edge_flat_index]` — Eqn. 4c rows.
    edge: Vec<Vec<f64>>,
    /// `via[layer][cell_flat_index]` — Eqn. 4d rows.
    via: Vec<Vec<f64>>,
}

impl Multipliers {
    /// All-zero multipliers shaped for `grid`.
    pub fn zeros(grid: &Grid) -> Multipliers {
        let n_cells = grid.width() as usize * grid.height() as usize;
        Multipliers {
            edge: (0..grid.num_layers())
                .map(|l| vec![0.0; grid.num_edges(grid.layer(l).direction)])
                .collect(),
            via: (0..grid.num_layers()).map(|_| vec![0.0; n_cells]).collect(),
        }
    }

    /// The multiplier on edge-capacity row `(layer, flat index)`.
    pub fn edge(&self, layer: usize, idx: usize) -> f64 {
        self.edge[layer][idx]
    }

    /// The multiplier on via-capacity row `(layer, flat cell index)`.
    pub fn via(&self, layer: usize, idx: usize) -> f64 {
        self.via[layer][idx]
    }

    /// Mutable access to an edge-row multiplier (warm starts, tests).
    pub fn edge_mut(&mut self, layer: usize, idx: usize) -> &mut f64 {
        &mut self.edge[layer][idx]
    }

    /// Mutable access to a via-row multiplier (warm starts, tests).
    pub fn via_mut(&mut self, layer: usize, idx: usize) -> &mut f64 {
        &mut self.via[layer][idx]
    }

    /// Every edge-row multiplier of `layer`, in
    /// [`Grid::edge_flat_index`] order.
    pub fn edge_row(&self, layer: usize) -> &[f64] {
        &self.edge[layer]
    }

    /// Every via-row multiplier of `layer`, in
    /// [`Grid::cell_flat_index`] order.
    pub fn via_row(&self, layer: usize) -> &[f64] {
        &self.via[layer]
    }

    /// Number of edge rows per layer (row length of `edge[layer]`).
    pub fn edge_row_len(&self, layer: usize) -> usize {
        self.edge[layer].len()
    }

    /// Number of via rows per layer (row length of `via[layer]`).
    pub fn via_row_len(&self, layer: usize) -> usize {
        self.via[layer].len()
    }

    /// Number of layers the tables are shaped for.
    pub fn num_layers(&self) -> usize {
        self.edge.len()
    }

    /// One projected subgradient ascent step: `λ ← max(0, λ + step·g)`
    /// where `g = usage − capacity` is read from `grid` (which must
    /// carry the *full* usage, background plus released nets). Via rows
    /// move at `via_weight · step`.
    ///
    /// # Panics
    ///
    /// Panics if the tables were not shaped for `grid`.
    pub fn subgradient_step(&mut self, grid: &Grid, step: f64, via_weight: f64) {
        self.check_shape(grid);
        for l in 0..grid.num_layers() {
            let edges = grid.edge_usage_row(l).iter().zip(grid.edge_capacity_row(l));
            for (m, (&u, &c)) in self.edge[l].iter_mut().zip(edges) {
                let violation = u as f64 - c as f64;
                *m = (*m + step * violation).max(0.0);
            }
            let cells = grid.via_usage_row(l).iter().zip(grid.via_capacity_row(l));
            for (m, (&u, &c)) in self.via[l].iter_mut().zip(cells) {
                let violation = u as f64 - c as f64;
                *m = (*m + via_weight * step * violation).max(0.0);
            }
        }
    }

    /// Asserts the tables have one row per layer of `grid` and one entry
    /// per edge or cell, so zipped row sweeps cover every entry.
    ///
    /// # Panics
    ///
    /// Panics on the first row whose length does not match `grid`.
    pub fn check_shape(&self, grid: &Grid) {
        assert_eq!(self.edge.len(), grid.num_layers(), "multiplier layer count");
        for l in 0..grid.num_layers() {
            assert_eq!(
                self.edge[l].len(),
                grid.edge_usage_row(l).len(),
                "edge row {l}"
            );
            assert_eq!(
                self.via[l].len(),
                grid.via_usage_row(l).len(),
                "via row {l}"
            );
        }
    }

    /// The smallest multiplier entry (projection keeps this ≥ 0).
    pub fn min(&self) -> f64 {
        self.entries().fold(f64::INFINITY, f64::min)
    }

    /// The largest multiplier entry.
    pub fn max(&self) -> f64 {
        self.entries().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Dual feasibility: every multiplier finite and non-negative.
    pub fn is_dual_feasible(&self) -> bool {
        self.entries().all(|v| v.is_finite() && v >= 0.0)
    }

    fn entries(&self) -> impl Iterator<Item = f64> + '_ {
        self.edge
            .iter()
            .chain(self.via.iter())
            .flat_map(|row| row.iter().copied())
    }
}

/// The exact per-net minimizer of the dualized objective, with tables
/// kept across nets.
///
/// With downstream capacitances frozen, one net's Lagrangian is additive
/// over segments and parent/child transitions, so a bottom-up DP with
/// one state per (segment, layer) minimizes it exactly. A segment `s`
/// on layer `l` costs
///
/// * `weight · t_s(l)` (Eqn. 2 under the frozen `caps[s]`), plus the
///   edge multipliers along its run, in run order;
/// * at its child-side node, the via to a pin there, then for each
///   child segment in insertion order the cheapest child layer
///   including the via between the two,
///
/// where a via between layers `a` and `b` costs `weight · R(lo, hi) ·
/// cap` (Eqn. 3 with the frozen child-side cap, or the pin's load) plus
/// the via multipliers of the layers strictly between. Each root child
/// takes its cheapest layer counting the via from the source pin's
/// layer, and the tables are read back top down.
///
/// The tables are flat (`dp[s · L + l]`, `pick[cs · L + l]`), start
/// empty (`NetDp::default()`) and are reused: once they have grown to
/// the largest net minimized, a call allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct NetDp {
    /// `dp[s * L + l]`: best subtree cost with segment `s` on layer `l`.
    dp: Vec<f64>,
    /// `pick[cs * L + l]`: the best layer of child segment `cs` when
    /// its parent segment sits on layer `l`.
    pick: Vec<usize>,
    /// The grid's layers of each direction, bottom up.
    horizontal: Vec<usize>,
    vertical: Vec<usize>,
}

impl NetDp {
    /// Minimizes `net`'s Lagrangian under `lambda`, with `caps[s]` the
    /// frozen downstream capacitance of segment `s` and every delay
    /// term scaled by `weight`. Writes the minimizing layer of each
    /// segment into `layers` and returns the minimized value: the root
    /// children's best costs, summed in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `caps` or `layers` is not one entry per segment, or
    /// `lambda` is not shaped for `grid`.
    pub fn minimize(
        &mut self,
        grid: &Grid,
        net: &Net,
        caps: &[f64],
        weight: f64,
        lambda: &Multipliers,
        layers: &mut [usize],
    ) -> f64 {
        let tree = net.tree();
        let n = tree.num_segments();
        assert_eq!(caps.len(), n, "one frozen cap per segment");
        assert_eq!(layers.len(), n, "one output layer per segment");
        let nl = grid.num_layers();
        let NetDp {
            dp,
            pick,
            horizontal,
            vertical,
        } = self;
        horizontal.clear();
        horizontal.extend(grid.layers_in_direction(Direction::Horizontal));
        vertical.clear();
        vertical.extend(grid.layers_in_direction(Direction::Vertical));
        let layers_of = |dir: Direction| -> &[usize] {
            match dir {
                Direction::Horizontal => horizontal,
                Direction::Vertical => vertical,
            }
        };
        let via_cost = |cell: Cell, la: usize, lb: usize, cap: f64| -> f64 {
            let (lo, hi) = if la <= lb { (la, lb) } else { (lb, la) };
            let mut cost = weight * grid.via_stack_resistance(lo, hi) * cap;
            let idx = grid.cell_flat_index(cell);
            for l in (lo + 1)..hi {
                cost += lambda.via(l, idx);
            }
            cost
        };
        // The cheapest layer of child segment `cs` below metal on `l` at
        // `cell`, first minimum kept.
        let best_below = |dp: &[f64], cell: Cell, cs: usize, l: usize| -> (usize, f64) {
            #[expect(
                clippy::expect_used,
                reason = "GridBuilder rejects grids lacking a layer in either direction, so every \
                          candidate list is non-empty"
            )]
            layers_of(tree.segment(cs).dir)
                .iter()
                .map(|&cl| (cl, dp[cs * nl + cl] + via_cost(cell, l, cl, caps[cs])))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("every direction has at least one layer")
        };

        dp.clear();
        dp.resize(n * nl, f64::INFINITY);
        pick.clear();
        pick.resize(n * nl, usize::MAX);
        for s in tree.postorder_segments() {
            let seg = tree.segment(s);
            let child_node = seg.to as usize;
            let node = tree.node(child_node);
            let pin = node.pin.map(|p| &net.pins()[p as usize]);
            let run = tree.segment_run(s, grid);
            for &l in layers_of(seg.dir) {
                let mut cost = weight * timing::segment_delay_on_layer(grid, net, s, l, caps[s]);
                for idx in run.indices() {
                    cost += lambda.edge(l, idx);
                }
                if let Some(p) = pin {
                    cost += via_cost(node.cell, l, p.layer, p.capacitance);
                }
                for &cs in tree.child_segments(child_node) {
                    let cs = cs as usize;
                    let (best_l, best_c) = best_below(dp, node.cell, cs, l);
                    cost += best_c;
                    pick[cs * nl + l] = best_l;
                }
                dp[s * nl + l] = cost;
            }
        }

        let root = tree.root();
        let root_cell = tree.node(root).cell;
        let src = net.source().layer;
        let mut total = 0.0;
        for &cs in tree.child_segments(root) {
            let cs = cs as usize;
            let (best_l, best_c) = best_below(dp, root_cell, cs, src);
            total += best_c;
            layers[cs] = best_l;
        }
        for s in tree.preorder_segments() {
            let l = layers[s];
            for &cs in tree.child_segments(tree.segment(s).to as usize) {
                layers[cs as usize] = pick[cs as usize * nl + l];
            }
        }
        total
    }
}
