//! The dualized relaxation: the frozen context the shared per-net
//! minimizer ([`flow::NetDp`]) runs in, and the weak-duality accounting.
//!
//! Everything in this module is a *pure function of a frozen context*:
//! a background grid (released nets removed), frozen downstream
//! capacitances and per-net criticality weights. That purity is what
//! makes the Lagrangian testable — for any multiplier vector `λ ≥ 0`
//! and any assignment `x` that fits the charged capacities,
//!
//! ```text
//! dual(λ)  =  min_x [ f(x) + λ·charge(x) ] + λ·(background − capacity)
//!          ≤  f(x)
//! ```
//!
//! holds exactly (weak duality), and the property suite exercises it on
//! random lattices, multipliers and assignments.
//!
//! The charged via usage is the per-transition surrogate the tree DP
//! can decompose over (each parent↔child layer change charges the
//! layers it crosses); the grid's own (4d) accounting merges a node's
//! transitions into one stack, so the surrogate can differ at
//! multi-branch nodes. Capacity safety of the *final* output is the
//! legalizer's and the priced incumbent's job — the relaxation only
//! steers.

use flow::{Multipliers, NetDp};
use grid::Grid;
use net::Netlist;
use timing::NetTiming;

/// A frozen relaxation context over one background grid.
///
/// `grid` must hold *only* the background usage: every net in
/// `released` removed. Downstream capacitances are frozen from the
/// layer vectors passed to [`Relaxation::new`], which makes the
/// objective additive over segments and the per-net tree DP an exact
/// minimizer of the Lagrangian.
pub struct Relaxation<'a> {
    grid: &'a Grid,
    netlist: &'a Netlist,
    released: &'a [usize],
    /// Released position `k` owns `caps[seg_start[k]..seg_start[k + 1]]`
    /// (and the same range of a flat layer buffer).
    seg_start: Vec<usize>,
    /// Frozen downstream capacitance per segment, released nets back to
    /// back.
    caps: Vec<f64>,
    /// Criticality weight per net, by released position.
    weights: Vec<f64>,
}

impl<'a> Relaxation<'a> {
    /// Freezes a context: downstream capacitances are computed from
    /// `frozen_layers[k]` (the released nets' current assignment) and
    /// `weights[k]` scales every delay term of released net `k`.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths disagree with `released` or a layer
    /// vector does not match its net.
    pub fn new<L: AsRef<[usize]>>(
        grid: &'a Grid,
        netlist: &'a Netlist,
        released: &'a [usize],
        frozen_layers: &[L],
        weights: &[f64],
    ) -> Relaxation<'a> {
        assert_eq!(frozen_layers.len(), released.len());
        assert_eq!(weights.len(), released.len());
        let mut seg_start = Vec::with_capacity(released.len() + 1);
        seg_start.push(0);
        let mut caps = Vec::new();
        let mut timing = NetTiming::default();
        for (&i, layers) in released.iter().zip(frozen_layers) {
            timing.recompute(grid, netlist.net(i), layers.as_ref());
            caps.extend_from_slice(timing.downstream_caps());
            seg_start.push(caps.len());
        }
        Relaxation {
            grid,
            netlist,
            released,
            seg_start,
            caps,
            weights: weights.to_vec(),
        }
    }

    /// Total segment count of the released nets: the length of the flat
    /// layer buffer [`Relaxation::minimize`] fills.
    pub fn num_segments(&self) -> usize {
        self.caps.len()
    }

    /// The frozen downstream capacitances of released position `k`.
    fn caps(&self, k: usize) -> &[f64] {
        &self.caps[self.seg_start[k]..self.seg_start[k + 1]]
    }

    /// The released set this context covers.
    pub fn released(&self) -> &[usize] {
        self.released
    }

    /// The frozen surrogate objective `f(x)`: criticality-weighted
    /// segment delays plus via-stack delays under the frozen
    /// capacitances, summed over the released nets. `layers[k]` is the
    /// candidate layer vector of released position `k`.
    pub fn primal_value(&self, layers: &[Vec<usize>]) -> f64 {
        (0..self.released.len())
            .map(|k| self.net_value(k, &layers[k], None))
            .sum()
    }

    /// `f(x) + λ·charge(x)` — the Lagrangian without its constant term.
    pub fn charged_value(&self, lambda: &Multipliers, layers: &[Vec<usize>]) -> f64 {
        (0..self.released.len())
            .map(|k| self.net_value(k, &layers[k], Some(lambda)))
            .sum()
    }

    /// Whether `x` fits the charged capacities: background usage plus
    /// the relaxation's own wire/via charge stays within every row's
    /// capacity. This is the feasibility notion under which weak
    /// duality is exact.
    pub fn charged_feasible(&self, layers: &[Vec<usize>]) -> bool {
        let grid = self.grid;
        let n_cells = grid.width() as usize * grid.height() as usize;
        let mut wire: Vec<Vec<u32>> = (0..grid.num_layers())
            .map(|l| vec![0; grid.num_edges(grid.layer(l).direction)])
            .collect();
        let mut via: Vec<Vec<u32>> = (0..grid.num_layers()).map(|_| vec![0; n_cells]).collect();
        for (k, &i) in self.released.iter().enumerate() {
            let net = self.netlist.net(i);
            let tree = net.tree();
            let x = &layers[k];
            for s in 0..tree.num_segments() {
                for idx in tree.segment_run(s, grid).indices() {
                    wire[x[s]][idx] += 1;
                }
            }
            self.for_each_transition(k, x, |cell, la, lb, _cap| {
                let (lo, hi) = if la <= lb { (la, lb) } else { (lb, la) };
                let idx = grid.cell_flat_index(cell);
                for row in via.iter_mut().take(hi).skip(lo + 1) {
                    row[idx] += 1;
                }
            });
        }
        let fits = |background: &[u32], charge: &[u32], cap: &[u32]| {
            background
                .iter()
                .zip(charge)
                .zip(cap)
                .all(|((&b, &q), &c)| b + q <= c)
        };
        (0..grid.num_layers()).all(|l| {
            fits(grid.edge_usage_row(l), &wire[l], grid.edge_capacity_row(l))
                && fits(grid.via_usage_row(l), &via[l], grid.via_capacity_row(l))
        })
    }

    /// Exact joint minimizer of the Lagrangian: per-net bottom-up tree
    /// DPs under fixed `λ` (the nets only couple through the dualized
    /// capacities, so the decomposition is exact, Jacobi-style). Writes
    /// the minimizing layers into `layers`, released position `k`'s in
    /// its segment range with the released nets back to back, and
    /// returns `Σ min_x [f + λ·charge]`.
    ///
    /// `threads > 1` shards the independent per-net DPs across scoped
    /// threads; the merge is by position, so the result is bit-identical
    /// at every thread count. Each shard keeps one [`NetDp`] for all its
    /// nets, so nothing is allocated per net.
    ///
    /// # Panics
    ///
    /// Panics unless `layers.len()` is [`Relaxation::num_segments`].
    pub fn minimize(&self, lambda: &Multipliers, threads: usize, layers: &mut [usize]) -> f64 {
        let n = self.released.len();
        assert_eq!(layers.len(), self.num_segments(), "one layer per segment");
        let mut values = vec![0.0f64; n];
        // Minimizes released positions `lo..lo + values.len()` into
        // their slices of `values` and `layers`.
        let solve = |lo: usize, values: &mut [f64], layers: &mut [usize]| {
            let mut dp = NetDp::default();
            let base = self.seg_start[lo];
            for (j, value) in values.iter_mut().enumerate() {
                let k = lo + j;
                let out = &mut layers[self.seg_start[k] - base..self.seg_start[k + 1] - base];
                let net = self.netlist.net(self.released[k]);
                *value = dp.minimize(self.grid, net, self.caps(k), self.weights[k], lambda, out);
            }
        };
        if threads <= 1 || n < 2 {
            solve(0, &mut values, layers);
        } else {
            let chunk = n.div_ceil(threads.min(n));
            let solve = &solve;
            std::thread::scope(|scope| {
                let (mut values, mut layers) = (&mut values[..], layers);
                let mut lo = 0;
                while lo < n {
                    let hi = (lo + chunk).min(n);
                    let (shard_values, rest_values) = values.split_at_mut(hi - lo);
                    let segments = self.seg_start[hi] - self.seg_start[lo];
                    let (shard_layers, rest_layers) = layers.split_at_mut(segments);
                    (values, layers) = (rest_values, rest_layers);
                    scope.spawn(move || solve(lo, shard_values, shard_layers));
                    lo = hi;
                }
            });
        }
        values.iter().sum()
    }

    /// The dual function `g(λ)`: the minimized Lagrangian plus its
    /// constant term `Σ λ·(background − capacity)`. For any `λ ≥ 0`,
    /// `g(λ)` lower-bounds `f(x)` over every charged-feasible `x`.
    pub fn dual_value(&self, lambda: &Multipliers, threads: usize) -> f64 {
        let mut layers = vec![0; self.num_segments()];
        let minimized = self.minimize(lambda, threads, &mut layers);
        self.dual_value_from(lambda, minimized)
    }

    /// [`Relaxation::dual_value`] when the minimized Lagrangian value is
    /// already in hand (avoids re-running the DPs).
    ///
    /// # Panics
    ///
    /// Panics if `lambda` was not shaped for this context's grid.
    pub fn dual_value_from(&self, lambda: &Multipliers, minimized: f64) -> f64 {
        let grid = self.grid;
        lambda.check_shape(grid);
        // The accumulation order (layer, then edges, then cells, each in
        // flat-index order) fixes the sum's bits; keep it.
        let mut constant = 0.0;
        for l in 0..grid.num_layers() {
            let edges = grid.edge_usage_row(l).iter().zip(grid.edge_capacity_row(l));
            for (&m, (&u, &c)) in lambda.edge_row(l).iter().zip(edges) {
                constant += m * (u as f64 - c as f64);
            }
            let cells = grid.via_usage_row(l).iter().zip(grid.via_capacity_row(l));
            for (&m, (&u, &c)) in lambda.via_row(l).iter().zip(cells) {
                constant += m * (u as f64 - c as f64);
            }
        }
        minimized + constant
    }

    /// Walks every via transition of released position `k` under layer
    /// vector `x`: parent-node attachment (or the source pin at the
    /// root), child segments and sink pins — exactly the set the DP
    /// charges, each with the frozen capacitance its stack drives (the
    /// child-side downstream cap, or the pin capacitance for drops).
    fn for_each_transition(
        &self,
        k: usize,
        x: &[usize],
        mut visit: impl FnMut(grid::Cell, usize, usize, f64),
    ) {
        let net = self.netlist.net(self.released[k]);
        let tree = net.tree();
        let root = tree.root();
        let root_cell = tree.node(root).cell;
        for &cs in tree.child_segments(root) {
            let cs = cs as usize;
            visit(root_cell, net.source().layer, x[cs], self.caps(k)[cs]);
        }
        for s in 0..tree.num_segments() {
            let child_node = tree.segment(s).to as usize;
            let cell = tree.node(child_node).cell;
            if let Some(p) = tree.node(child_node).pin {
                let pin = &net.pins()[p as usize];
                visit(cell, x[s], pin.layer, pin.capacitance);
            }
            for &cs in tree.child_segments(child_node) {
                let cs = cs as usize;
                visit(cell, x[s], x[cs], self.caps(k)[cs]);
            }
        }
    }

    /// The surrogate value of one net (delay weighted by the net's
    /// criticality weight, plus `λ` charges when given).
    fn net_value(&self, k: usize, x: &[usize], lambda: Option<&Multipliers>) -> f64 {
        let net = self.netlist.net(self.released[k]);
        let tree = net.tree();
        let w = self.weights[k];
        let mut total = 0.0;
        for (s, &xs) in x.iter().enumerate().take(tree.num_segments()) {
            total += w * timing::segment_delay_on_layer(self.grid, net, s, xs, self.caps(k)[s]);
            if let Some(lambda) = lambda {
                for idx in tree.segment_run(s, self.grid).indices() {
                    total += lambda.edge(xs, idx);
                }
            }
        }
        self.for_each_transition(k, x, |cell, la, lb, cap| {
            total += self.via_cost(k, lambda, cell, la, lb, cap);
        });
        total
    }

    /// Weighted via-stack delay plus `λ` charges for one transition.
    fn via_cost(
        &self,
        k: usize,
        lambda: Option<&Multipliers>,
        cell: grid::Cell,
        la: usize,
        lb: usize,
        cap: f64,
    ) -> f64 {
        let (lo, hi) = if la <= lb { (la, lb) } else { (lb, la) };
        let mut cost = self.weights[k] * self.grid.via_stack_resistance(lo, hi) * cap;
        if let Some(lambda) = lambda {
            let idx = self.grid.cell_flat_index(cell);
            for l in (lo + 1)..hi {
                cost += lambda.via(l, idx);
            }
        }
        cost
    }
}
