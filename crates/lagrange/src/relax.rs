//! The dualized relaxation: multipliers, the per-net exact minimizer,
//! and the weak-duality accounting.
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

use grid::{Direction, Grid};
use net::Netlist;
use timing::NetTiming;

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
    /// per edge or cell, so the zipped row sweeps cover every entry.
    fn check_shape(&self, grid: &Grid) {
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
    /// Frozen downstream capacitance per segment, by released position.
    caps: Vec<Vec<f64>>,
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
    pub fn new(
        grid: &'a Grid,
        netlist: &'a Netlist,
        released: &'a [usize],
        frozen_layers: &[Vec<usize>],
        weights: &[f64],
    ) -> Relaxation<'a> {
        assert_eq!(frozen_layers.len(), released.len());
        assert_eq!(weights.len(), released.len());
        let caps = released
            .iter()
            .zip(frozen_layers)
            .map(|(&i, layers)| {
                NetTiming::compute(grid, netlist.net(i), layers)
                    .downstream_caps()
                    .to_vec()
            })
            .collect();
        Relaxation {
            grid,
            netlist,
            released,
            caps,
            weights: weights.to_vec(),
        }
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
                for e in tree.segment_edges(s) {
                    wire[x[s]][grid.edge_flat_index(e)] += 1;
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
    /// capacities, so the decomposition is exact, Jacobi-style).
    /// Returns the minimizing layer vectors (by released position) and
    /// `Σ min_x [f + λ·charge]`.
    ///
    /// `threads > 1` shards the independent per-net DPs across scoped
    /// threads; the merge is by position, so the result is bit-identical
    /// at every thread count.
    pub fn minimize(&self, lambda: &Multipliers, threads: usize) -> (Vec<Vec<usize>>, f64) {
        let n = self.released.len();
        let solve_range = |lo: usize, hi: usize| -> Vec<(Vec<usize>, f64)> {
            (lo..hi).map(|k| self.minimize_net(k, lambda)).collect()
        };
        let solved: Vec<(Vec<usize>, f64)> = if threads <= 1 || n < 2 {
            solve_range(0, n)
        } else {
            let shards = threads.min(n);
            let chunk = n.div_ceil(shards);
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..shards)
                    .map(|s| {
                        let lo = s * chunk;
                        let hi = (lo + chunk).min(n);
                        scope.spawn(move || solve_range(lo, hi))
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| {
                        #[expect(
                            clippy::expect_used,
                            reason = "the DP bodies touch only immutable borrows and cannot panic \
                                      on validated input"
                        )]
                        h.join().expect("relaxation shard panicked")
                    })
                    .collect()
            })
        };
        let total = solved.iter().map(|(_, v)| v).sum();
        (solved.into_iter().map(|(l, _)| l).collect(), total)
    }

    /// The dual function `g(λ)`: the minimized Lagrangian plus its
    /// constant term `Σ λ·(background − capacity)`. For any `λ ≥ 0`,
    /// `g(λ)` lower-bounds `f(x)` over every charged-feasible `x`.
    pub fn dual_value(&self, lambda: &Multipliers, threads: usize) -> f64 {
        let (_, minimized) = self.minimize(lambda, threads);
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
            for (&m, (&u, &c)) in lambda.edge[l].iter().zip(edges) {
                constant += m * (u as f64 - c as f64);
            }
            let cells = grid.via_usage_row(l).iter().zip(grid.via_capacity_row(l));
            for (&m, (&u, &c)) in lambda.via[l].iter().zip(cells) {
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
            visit(root_cell, net.source().layer, x[cs], self.caps[k][cs]);
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
                visit(cell, x[s], x[cs], self.caps[k][cs]);
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
            total += w * timing::segment_delay_on_layer(self.grid, net, s, xs, self.caps[k][s]);
            if let Some(lambda) = lambda {
                for e in tree.segment_edges(s) {
                    total += lambda.edge(xs, self.grid.edge_flat_index(e));
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

    /// Exact minimizer for one net: bottom-up DP over the routing tree,
    /// one state per (segment, layer), vias priced between every
    /// parent/child pair — the same recurrence TILA uses, with the
    /// criticality weight folded into every delay term.
    fn minimize_net(&self, k: usize, lambda: &Multipliers) -> (Vec<usize>, f64) {
        let grid = self.grid;
        let net = self.netlist.net(self.released[k]);
        let tree = net.tree();
        let w = self.weights[k];
        let num_layers = grid.num_layers();
        let h_layers: Vec<usize> = grid.layers_in_direction(Direction::Horizontal).collect();
        let v_layers: Vec<usize> = grid.layers_in_direction(Direction::Vertical).collect();
        let layers_of = |dir: Direction| -> &[usize] {
            match dir {
                Direction::Horizontal => &h_layers,
                Direction::Vertical => &v_layers,
            }
        };
        if tree.num_segments() == 0 {
            return (Vec::new(), 0.0);
        }

        let mut dp = vec![vec![f64::INFINITY; num_layers]; tree.num_segments()];
        let mut pick: Vec<Vec<Vec<usize>>> =
            vec![vec![Vec::new(); num_layers]; tree.num_segments()];
        for s in tree.postorder_segments() {
            let child_node = tree.segment(s).to as usize;
            let node_cell = tree.node(child_node).cell;
            let pin = tree.node(child_node).pin.map(|p| &net.pins()[p as usize]);
            for &l in layers_of(tree.segment(s).dir) {
                let mut cost = w * timing::segment_delay_on_layer(grid, net, s, l, self.caps[k][s]);
                for e in tree.segment_edges(s) {
                    cost += lambda.edge(l, grid.edge_flat_index(e));
                }
                let mut choices = Vec::new();
                if let Some(p) = pin {
                    cost += self.via_cost(k, Some(lambda), node_cell, l, p.layer, p.capacitance);
                }
                for &cs in tree.child_segments(child_node) {
                    let cs = cs as usize;
                    #[expect(
                        clippy::expect_used,
                        reason = "validated grids route every direction on ≥ 1 layer"
                    )]
                    let (best_l, best_c) = layers_of(tree.segment(cs).dir)
                        .iter()
                        .map(|&cl| {
                            (
                                cl,
                                dp[cs][cl]
                                    + self.via_cost(
                                        k,
                                        Some(lambda),
                                        node_cell,
                                        l,
                                        cl,
                                        self.caps[k][cs],
                                    ),
                            )
                        })
                        .min_by(|a, b| a.1.total_cmp(&b.1))
                        .expect("layer exists per direction");
                    cost += best_c;
                    choices.push(best_l);
                }
                dp[s][l] = cost;
                pick[s][l] = choices;
            }
        }

        let mut layers = vec![usize::MAX; tree.num_segments()];
        let root = tree.root();
        let root_cell = tree.node(root).cell;
        let src = net.source();
        let mut total = 0.0;
        let mut stack: Vec<(usize, usize)> = Vec::new();
        for &cs in tree.child_segments(root) {
            let cs = cs as usize;
            #[expect(
                clippy::expect_used,
                reason = "validated grids route every direction on ≥ 1 layer"
            )]
            let (best_l, best_c) = layers_of(tree.segment(cs).dir)
                .iter()
                .map(|&l| {
                    (
                        l,
                        dp[cs][l]
                            + self.via_cost(
                                k,
                                Some(lambda),
                                root_cell,
                                src.layer,
                                l,
                                self.caps[k][cs],
                            ),
                    )
                })
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("layer exists");
            total += best_c;
            stack.push((cs, best_l));
        }
        while let Some((s, l)) = stack.pop() {
            layers[s] = l;
            let child_node = tree.segment(s).to as usize;
            for (j, &cs) in tree.child_segments(child_node).iter().enumerate() {
                stack.push((cs as usize, pick[s][l][j]));
            }
        }
        debug_assert!(layers.iter().all(|&l| l != usize::MAX));
        (layers, total)
    }
}
