//! Per-partition mathematical programs (paper §3.1 and §3.3).
//!
//! [`PartitionProblem::extract`] turns one partition's critical segments
//! into an assignment problem:
//!
//! * one variable `x_ij` per (segment, candidate layer) — the candidate
//!   set is every layer of the segment's direction;
//! * linear costs `t_s(i, j)` (Eqn. 2) with downstream capacitances
//!   frozen from the current assignment, plus via costs against *fixed*
//!   neighbors (tree-adjacent segments outside the partition, pins, and
//!   the source entry);
//! * pairwise via costs `t_v(i, j, p, q)` (Eqn. 3) between tree-adjacent
//!   segments that are both inside the partition, with the via-capacity
//!   penalty λ (existing via usage over capacity) folded in, exactly as
//!   the paper does for its SDP objective matrix;
//! * edge-capacity constraints (4c) with limits shrunk by the wires of
//!   non-released nets — the "more stringent" incremental capacities.
//!
//! The same neutral structure lowers to both solvers:
//! [`PartitionProblem::to_choice_problem`] (branch-and-bound ILP) and
//! [`PartitionProblem::to_sdp`] (the relaxation (5)–(7), slack variables
//! on extra diagonal entries).

use std::collections::HashMap;

use grid::{Direction, Edge2d, Grid};
use net::{Assignment, Netlist, SegmentRef};
use solver::{CapacityGroup, ChoiceProblem, PairCost, SdpProblem, SymMatrix};

use crate::context::SegCtx;

/// Via coupling between two in-partition segments.
#[derive(Clone, PartialEq, Debug)]
pub struct SegmentPair {
    /// Local index of the parent-side segment.
    pub a: usize,
    /// Local index of the child-side segment.
    pub b: usize,
    /// `costs[ca][cb]`: via delay + capacity penalty when `a` takes its
    /// candidate `ca` and `b` takes `cb`.
    pub costs: Vec<Vec<f64>>,
}

/// One edge-capacity constraint: the members are (segment, candidate)
/// pairs that would occupy `(layer, edge)`.
#[derive(Clone, PartialEq, Debug)]
pub struct EdgeConstraint {
    /// `(local segment index, candidate index)` members.
    pub members: Vec<(usize, usize)>,
    /// Residual capacity available to the partition's segments.
    pub limit: u32,
    /// The 2-D edge.
    pub edge: Edge2d,
    /// The layer.
    pub layer: usize,
}

/// Tunables of problem extraction.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ProblemConfig {
    /// Weight of the via-capacity penalty λ relative to the mean segment
    /// delay of the partition (the paper adds λ = usage/capacity onto
    /// `t_v` entries; this scales that ratio into delay units). Applies
    /// to interior layers that still have headroom.
    pub via_penalty_weight: f64,
    /// Weight charged per interior layer already *at or over* capacity,
    /// in units of the partition's mean segment delay. A via through
    /// such a layer is a guaranteed overflow unit, so it is priced like
    /// one: this is the via-side (4d) counterpart of the wire-overflow
    /// weight `CplaConfig::alpha` (4c) in the paper's `α·V_o`
    /// relaxation, and the defaults match. Keeping the two prices
    /// consistent is what stops the solver from proposing dead-layer
    /// crossings that the round acceptor then rejects wholesale.
    pub overflow_penalty_weight: f64,
}

impl Default for ProblemConfig {
    fn default() -> ProblemConfig {
        ProblemConfig {
            via_penalty_weight: 0.25,
            overflow_penalty_weight: 20.0,
        }
    }
}

/// A partition's extracted assignment problem.
#[derive(Debug, Default)]
pub struct PartitionProblem {
    /// The segments being re-assigned.
    pub segments: Vec<SegmentRef>,
    /// Candidate layers per segment (all layers of its direction,
    /// bottom-up).
    pub candidates: Vec<Vec<usize>>,
    /// `linear_cost[i][c]`: delay of segment `i` on its candidate `c`,
    /// including couplings to fixed neighbors.
    pub linear_cost: Vec<Vec<f64>>,
    /// Via couplings between in-partition segment pairs.
    pub pairs: Vec<SegmentPair>,
    /// Edge-capacity constraints.
    pub edge_constraints: Vec<EdgeConstraint>,
    /// Candidate index of each segment's current layer.
    pub current: Vec<usize>,
    /// Lazily built ILP lowering, shared by every
    /// [`PartitionProblem::choice_problem`] caller (the pre-memoization
    /// code rebuilt the full dense problem on *every* `evaluate` call).
    pub(crate) choice: std::sync::OnceLock<ChoiceProblem>,
}

// Clone and PartialEq deliberately exclude the memo cell: a freshly
// extracted problem and a cached one with a populated memo must compare
// equal (the engine's partition cache keys on problem equality), and a
// clone can rebuild the lowering on demand.
impl Clone for PartitionProblem {
    fn clone(&self) -> PartitionProblem {
        PartitionProblem {
            segments: self.segments.clone(),
            candidates: self.candidates.clone(),
            linear_cost: self.linear_cost.clone(),
            pairs: self.pairs.clone(),
            edge_constraints: self.edge_constraints.clone(),
            current: self.current.clone(),
            choice: std::sync::OnceLock::new(),
        }
    }
}

impl PartialEq for PartitionProblem {
    fn eq(&self, other: &PartitionProblem) -> bool {
        self.segments == other.segments
            && self.candidates == other.candidates
            && self.linear_cost == other.linear_cost
            && self.pairs == other.pairs
            && self.edge_constraints == other.edge_constraints
            && self.current == other.current
    }
}

impl PartitionProblem {
    /// Extracts the problem for `segments` from the current state.
    ///
    /// `ctx` must yield the frozen timing context
    /// ([`crate::context::SegCtx`]: downstream capacitance, criticality
    /// weight, weighted upstream resistance) of any segment of a
    /// released net, as built by [`crate::timing_context`] against the
    /// current assignment.
    ///
    /// # Panics
    ///
    /// Panics if a segment reference is out of range.
    pub fn extract(
        grid: &Grid,
        netlist: &Netlist,
        assignment: &Assignment,
        segments: &[SegmentRef],
        ctx: &dyn Fn(SegmentRef) -> SegCtx,
        config: &ProblemConfig,
    ) -> PartitionProblem {
        let index: HashMap<SegmentRef, usize> =
            segments.iter().enumerate().map(|(i, &s)| (s, i)).collect();
        let h_layers: Vec<usize> = grid.layers_in_direction(Direction::Horizontal).collect();
        let v_layers: Vec<usize> = grid.layers_in_direction(Direction::Vertical).collect();

        let mut candidates = Vec::with_capacity(segments.len());
        let mut linear_cost = Vec::with_capacity(segments.len());
        let mut current = Vec::with_capacity(segments.len());

        let via_delay = |la: usize, lb: usize, cap: f64| -> f64 {
            let (lo, hi) = if la <= lb { (la, lb) } else { (lb, la) };
            grid.via_stack_resistance(lo, hi) * cap
        };

        // ---- pass 1: candidates and weighted segment delays ----
        // cost(i, l) = W_i · t_s(i, l) + A_i · C_i(l): the own-resistance
        // term toward the sinks below, plus this wire's capacitive load
        // on the weighted path resistance above (see `context`).
        for &sref in segments {
            let net = netlist.net(sref.net as usize);
            let tree = net.tree();
            let seg = tree.segment(sref.seg as usize);
            // alloc: each segment owns its candidate list; it is
            // retained in `candidates` past the loop.
            let cands: Vec<usize> = match seg.dir {
                // alloc: each arm hands the segment its own copy.
                Direction::Horizontal => h_layers.clone(),
                Direction::Vertical => v_layers.clone(),
            };
            let c = ctx(sref);
            let len = tree.segment_length(sref.seg as usize) as f64;
            let costs: Vec<f64> = cands
                .iter()
                .map(|&l| {
                    c.weight * timing::segment_delay_on_layer(grid, net, sref.seg as usize, l, c.cd)
                        + c.upstream * grid.layer(l).unit_capacitance * len
                })
                // alloc: per-segment cost row, retained in the problem.
                .collect();
            let cur_layer = assignment.layer_of(sref);
            #[expect(
                clippy::expect_used,
                reason = "candidate sets are built around the current layer, so it is always a \
                          member"
            )]
            let cur_idx = cands
                .iter()
                .position(|&l| l == cur_layer)
                .expect("current layer must be a candidate");
            candidates.push(cands);
            linear_cost.push(costs);
            current.push(cur_idx);
        }

        // Delay scale for the via-capacity penalty.
        let mean_linear = {
            let total: f64 = linear_cost.iter().flat_map(|c| c.iter()).sum();
            let count: usize = linear_cost.iter().map(|c| c.len()).sum();
            if count == 0 {
                0.0
            } else {
                total / count as f64
            }
        };
        let penalty_scale = config.via_penalty_weight * mean_linear;
        let overflow_scale = config.overflow_penalty_weight * mean_linear;

        // Penalty for a via stack spanning (la, lb) at a cell, summed
        // over the strictly interior layers. A layer at or over capacity
        // charges the full overflow weight — the marginal via there *is*
        // an overflow unit, so it costs what any unit of the `α·V_o`
        // relaxation costs (a zero-capacity layer charges from the first
        // stack). Layers with headroom charge graduated congestion
        // pressure at the λ weight.
        let via_penalty = |cell: grid::Cell, la: usize, lb: usize| -> f64 {
            let (lo, hi) = if la <= lb { (la, lb) } else { (lb, la) };
            let mut cost = 0.0;
            for l in (lo + 1)..hi {
                let cap = grid.via_capacity(cell, l);
                let usage = grid.via_usage(cell, l);
                cost += if usage >= cap {
                    overflow_scale
                } else {
                    penalty_scale * usage as f64 / (cap as f64 + 1.0)
                };
            }
            cost
        };

        // ---- pass 2: via couplings ----
        // A via between parent p and child i serves the sinks below i,
        // so its delay term carries the child's criticality weight W_i
        // (Eqn. 3's min rule picks the child-side downstream cap).
        let mut pairs = Vec::new();
        for (i, &sref) in segments.iter().enumerate() {
            let net = netlist.net(sref.net as usize);
            let tree = net.tree();
            let s = sref.seg as usize;
            let from_node = tree.segment(s).from as usize;
            let to_node = tree.segment(s).to as usize;
            let from_cell = tree.node(from_node).cell;
            let to_cell = tree.node(to_node).cell;
            let ci = ctx(sref);

            // Coupling toward the parent side (entry at from_node).
            match tree.parent_segment(from_node) {
                Some(p) => {
                    // cast: segment ordinals come from the u32-indexed tree arena.
                    let pref = SegmentRef::new(sref.net, p as u32);
                    let cp = ctx(pref);
                    let drive = ci.weight * ci.cd.min(cp.cd);
                    match index.get(&pref) {
                        Some(&pi) => {
                            // In-partition pair; emit once (from the
                            // child side, so each tree edge appears one
                            // time).
                            let costs: Vec<Vec<f64>> = candidates[pi]
                                .iter()
                                .map(|&lp| {
                                    candidates[i]
                                        .iter()
                                        .map(|&lc| {
                                            via_delay(lp, lc, drive)
                                                + via_penalty(from_cell, lp, lc)
                                        })
                                        // alloc: pair cost matrix row.
                                        .collect()
                                })
                                // alloc: retained in `pairs`.
                                .collect();
                            pairs.push(SegmentPair { a: pi, b: i, costs });
                        }
                        None => {
                            // Fixed neighbor: fold into linear cost.
                            let lp = assignment.layer_of(pref);
                            for (c, &lc) in candidates[i].iter().enumerate() {
                                linear_cost[i][c] +=
                                    via_delay(lp, lc, drive) + via_penalty(from_cell, lp, lc);
                            }
                        }
                    }
                }
                None => {
                    // Root segment: entry via from the source pin layer.
                    let src = net.source();
                    for (c, &lc) in candidates[i].iter().enumerate() {
                        linear_cost[i][c] += via_delay(src.layer, lc, ci.weight * ci.cd)
                            + via_penalty(from_cell, src.layer, lc);
                    }
                }
            }

            // Couplings toward fixed children (in-partition children are
            // handled when the child itself is processed).
            for &cs in tree.child_segments(to_node) {
                let cref = SegmentRef::new(sref.net, cs);
                if index.contains_key(&cref) {
                    continue;
                }
                let lc = assignment.layer_of(cref);
                let cc = ctx(cref);
                let drive = cc.weight * ci.cd.min(cc.cd);
                for (c, &l) in candidates[i].iter().enumerate() {
                    linear_cost[i][c] += via_delay(l, lc, drive) + via_penalty(to_cell, l, lc);
                }
            }

            // Pin drop at the child-side node, weighted by that sink's
            // own criticality.
            if let Some(p) = tree.node(to_node).pin {
                let pin = &net.pins()[p as usize];
                for (c, &l) in candidates[i].iter().enumerate() {
                    linear_cost[i][c] += via_delay(pin.layer, l, ci.pin_weight * pin.capacitance)
                        + via_penalty(to_cell, pin.layer, l);
                }
            }
        }

        // ---- pass 3: edge-capacity constraints ----
        // Group (layer, edge) -> members.
        let mut groups: HashMap<(usize, Edge2d), Vec<(usize, usize)>> = HashMap::new();
        for (i, &sref) in segments.iter().enumerate() {
            let tree = netlist.net(sref.net as usize).tree();
            for e in tree.segment_edges(sref.seg as usize) {
                for (c, &l) in candidates[i].iter().enumerate() {
                    groups.entry((l, e)).or_default().push((i, c));
                }
            }
        }
        let mut edge_constraints: Vec<EdgeConstraint> = groups
            .into_iter()
            .map(|((layer, edge), members)| {
                // Wires on this (layer, edge) that belong to partition
                // segments currently assigned here — they will be
                // re-decided, so they don't count against the residual.
                let ours = members.iter().filter(|&&(i, c)| current[i] == c).count() as u32;
                let usage = grid.edge_usage(layer, edge);
                let cap = grid.edge_capacity(layer, edge);
                let residual = (cap + ours).saturating_sub(usage);
                // Keep the no-op solution feasible even under inherited
                // overflow.
                let limit = residual.max(ours);
                EdgeConstraint {
                    members,
                    limit,
                    edge,
                    layer,
                }
            })
            .collect();
        edge_constraints.sort_by_key(|c| (c.layer, c.edge));

        PartitionProblem {
            segments: segments.to_vec(),
            candidates,
            linear_cost,
            pairs,
            edge_constraints,
            current,
            choice: std::sync::OnceLock::new(),
        }
    }

    /// Number of assignment variables (`Σ |candidates|`).
    pub fn num_variables(&self) -> usize {
        self.candidates.iter().map(|c| c.len()).sum()
    }

    /// Lowers to the branch-and-bound ILP (the GUROBI substitution).
    pub fn to_choice_problem(&self) -> ChoiceProblem {
        let mut p = ChoiceProblem::new();
        for costs in &self.linear_cost {
            // alloc: the lowered problem owns its cost rows.
            p.add_item(costs.clone());
        }
        for pair in &self.pairs {
            p.add_pair(PairCost {
                a: pair.a,
                b: pair.b,
                // alloc: the lowered problem owns its pair matrices.
                costs: pair.costs.clone(),
            });
        }
        for ec in &self.edge_constraints {
            // Constraints wider than their member count never bind.
            if (ec.limit as usize) < ec.members.len() {
                p.add_capacity_group(CapacityGroup {
                    // alloc: the lowered problem owns its member lists.
                    members: ec.members.clone(),
                    limit: ec.limit,
                });
            }
        }
        p
    }

    /// The memoized ILP lowering: built on first use, reused by every
    /// later call (and by [`PartitionProblem::evaluate`]-heavy loops).
    pub fn choice_problem(&self) -> &ChoiceProblem {
        self.choice.get_or_init(|| self.to_choice_problem())
    }

    /// Lowers to the SDP relaxation (5)–(7): `x_ij` on the diagonal,
    /// via costs split across the symmetric off-diagonal entries,
    /// assignment rows, and edge-capacity rows closed with slack
    /// variables on extra diagonal entries.
    ///
    /// Returns the SDP plus the variable offset of each segment (the
    /// diagonal position of its first candidate).
    pub fn to_sdp(&self) -> (SdpProblem, Vec<usize>) {
        let mut offsets = Vec::with_capacity(self.segments.len());
        let mut n = 0usize;
        for c in &self.candidates {
            offsets.push(n);
            n += c.len();
        }
        let binding: Vec<&EdgeConstraint> = self
            .edge_constraints
            .iter()
            .filter(|ec| (ec.limit as usize) < ec.members.len())
            .collect();
        let dim = n + binding.len();

        let mut t = SymMatrix::zeros(dim);
        for (i, costs) in self.linear_cost.iter().enumerate() {
            for (c, &cost) in costs.iter().enumerate() {
                t.set(offsets[i] + c, offsets[i] + c, cost);
            }
        }
        for pair in &self.pairs {
            for (ca, row) in pair.costs.iter().enumerate() {
                for (cb, &cost) in row.iter().enumerate() {
                    // ⟨T, X⟩ visits both symmetric entries, so halve.
                    t.add_to(offsets[pair.a] + ca, offsets[pair.b] + cb, cost / 2.0);
                }
            }
        }

        let mut sdp = SdpProblem::new(t);
        for (i, c) in self.candidates.iter().enumerate() {
            let entries: Vec<(usize, usize, f64)> = (0..c.len())
                .map(|k| (offsets[i] + k, offsets[i] + k, 1.0))
                // alloc: constraint row handed off to the SDP.
                .collect();
            sdp.add_constraint(entries, 1.0);
        }
        for (k, ec) in binding.iter().enumerate() {
            let slack = n + k;
            let mut entries: Vec<(usize, usize, f64)> = ec
                .members
                .iter()
                .map(|&(i, c)| (offsets[i] + c, offsets[i] + c, 1.0))
                // alloc: constraint row handed off to the SDP.
                .collect();
            entries.push((slack, slack, 1.0));
            sdp.add_constraint(entries, ec.limit as f64);
        }
        (sdp, offsets)
    }

    /// Evaluates a candidate-index assignment: total cost, or `None` if
    /// an edge constraint is violated. Mirrors the ILP objective
    /// ([`solver::ChoiceProblem::evaluate`]) without materializing the
    /// dense lowering — the pre-memoization implementation rebuilt a
    /// full [`ChoiceProblem`] on every call.
    ///
    /// # Panics
    ///
    /// Panics if `choices` has the wrong length or an index is out of
    /// range.
    pub fn evaluate(&self, choices: &[usize]) -> Option<f64> {
        assert_eq!(choices.len(), self.candidates.len());
        let mut cost = 0.0;
        for (i, &c) in choices.iter().enumerate() {
            cost += self.linear_cost[i][c];
        }
        for pair in &self.pairs {
            cost += pair.costs[choices[pair.a]][choices[pair.b]];
        }
        for ec in &self.edge_constraints {
            let used = ec.members.iter().filter(|&&(i, c)| choices[i] == c).count();
            if used > ec.limit as usize {
                return None;
            }
        }
        Some(cost)
    }

    /// Translates candidate indices back to layer numbers.
    ///
    /// # Panics
    ///
    /// Panics if `choices` has the wrong length or an index is out of
    /// range.
    pub fn choices_to_layers(&self, choices: &[usize]) -> Vec<usize> {
        assert_eq!(choices.len(), self.candidates.len());
        choices
            .iter()
            .zip(&self.candidates)
            .map(|(&c, cands)| cands[c])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid::{Cell, GridBuilder};
    use net::{Net, Pin, RouteTreeBuilder};

    /// Grid + one L-net (2 segments) + one straight net sharing the
    /// horizontal row.
    fn fixture() -> (Grid, Netlist, Assignment) {
        let grid = GridBuilder::new(16, 16)
            .alternating_layers(4, Direction::Horizontal)
            .uniform_capacity(2)
            .build()
            .unwrap();
        let mut nl = Netlist::new();
        {
            let mut b = RouteTreeBuilder::new(Cell::new(0, 0));
            let m = b.add_segment(b.root(), Cell::new(6, 0)).unwrap();
            let e = b.add_segment(m, Cell::new(6, 5)).unwrap();
            b.attach_pin(b.root(), 0).unwrap();
            b.attach_pin(e, 1).unwrap();
            nl.push(Net::new(
                "l",
                vec![
                    Pin::source(Cell::new(0, 0), 0.0),
                    Pin::sink(Cell::new(6, 5), 2.0),
                ],
                b.build().unwrap(),
            ));
        }
        {
            let mut b = RouteTreeBuilder::new(Cell::new(0, 0));
            let e = b.add_segment(b.root(), Cell::new(8, 0)).unwrap();
            b.attach_pin(b.root(), 0).unwrap();
            b.attach_pin(e, 1).unwrap();
            nl.push(Net::new(
                "s",
                vec![
                    Pin::source(Cell::new(0, 0), 0.0),
                    Pin::sink(Cell::new(8, 0), 1.0),
                ],
                b.build().unwrap(),
            ));
        }
        let mut grid = grid;
        let a = Assignment::lowest_layers(&nl, &grid);
        net::apply_to_grid(&mut grid, &nl, &a);
        (grid, nl, a)
    }

    /// Frozen context with uniform criticality (focus 0) so unit tests
    /// can reason about raw delays.
    fn caps(grid: &Grid, nl: &Netlist, a: &Assignment) -> impl Fn(SegmentRef) -> SegCtx {
        let released: Vec<usize> = (0..nl.len()).collect();
        let map = crate::timing_context(grid, nl, a, &released, 0.0);
        move |r| map[&r]
    }

    #[test]
    fn extraction_shapes_are_consistent() {
        let (grid, nl, a) = fixture();
        let segs: Vec<SegmentRef> = nl.segment_refs().collect();
        let cd = caps(&grid, &nl, &a);
        let p = PartitionProblem::extract(&grid, &nl, &a, &segs, &cd, &ProblemConfig::default());
        assert_eq!(p.segments.len(), 3);
        assert_eq!(p.candidates.len(), 3);
        // Horizontal segments get the 2 H layers, vertical the 2 V.
        assert_eq!(p.candidates[0], vec![0, 2]);
        assert_eq!(p.candidates[1], vec![1, 3]);
        // One in-partition pair (the L-net's corner).
        assert_eq!(p.pairs.len(), 1);
        // Every linear cost is positive and finite.
        for row in &p.linear_cost {
            for &c in row {
                assert!(c.is_finite() && c > 0.0);
            }
        }
        // The no-op assignment is always feasible.
        assert!(p.evaluate(&p.current).is_some());
    }

    #[test]
    fn out_of_partition_neighbor_folds_into_linear() {
        let (grid, nl, a) = fixture();
        let cd = caps(&grid, &nl, &a);
        // Only the vertical segment of the L-net is released.
        let segs = vec![SegmentRef::new(0, 1)];
        let p = PartitionProblem::extract(&grid, &nl, &a, &segs, &cd, &ProblemConfig::default());
        assert!(p.pairs.is_empty());
        // Candidate on layer 3 must carry a larger via cost than layer 1
        // (parent fixed on layer 0): stack 0..3 vs 0..1.
        let base: Vec<f64> = p.candidates[0]
            .iter()
            .map(|&l| {
                timing::segment_delay_on_layer(&grid, nl.net(0), 1, l, cd(SegmentRef::new(0, 1)).cd)
            })
            .collect();
        let extra0 = p.linear_cost[0][0] - base[0];
        let extra1 = p.linear_cost[0][1] - base[1];
        assert!(extra1 > extra0, "{extra1} vs {extra0}");
    }

    #[test]
    fn edge_constraints_reflect_background_usage() {
        let (mut grid, nl, a) = fixture();
        let cd = caps(&grid, &nl, &a);
        // Only release the straight net; the L-net's horizontal segment
        // occupies row 0 on layer 0 as background.
        let segs = vec![SegmentRef::new(1, 0)];
        let p = PartitionProblem::extract(&grid, &nl, &a, &segs, &cd, &ProblemConfig::default());
        // Find the layer-0 constraint on an edge shared with the L-net
        // (x in 0..6, y=0). Capacity 2, background usage 1, our wire 1:
        // limit = 2 + 1 - 2 = 1.
        let ec = p
            .edge_constraints
            .iter()
            .find(|ec| ec.layer == 0 && ec.edge == Edge2d::horizontal(2, 0))
            .expect("constraint exists");
        assert_eq!(ec.limit, 1);
        // On an edge beyond the L-net (x in 6..8): only our wire: limit 2.
        let ec2 = p
            .edge_constraints
            .iter()
            .find(|ec| ec.layer == 0 && ec.edge == Edge2d::horizontal(7, 0))
            .expect("constraint exists");
        assert_eq!(ec2.limit, 2);
        let _ = &mut grid;
    }

    #[test]
    fn sdp_lowering_dimensions() {
        let (grid, nl, a) = fixture();
        let cd = caps(&grid, &nl, &a);
        let segs: Vec<SegmentRef> = nl.segment_refs().collect();
        let p = PartitionProblem::extract(&grid, &nl, &a, &segs, &cd, &ProblemConfig::default());
        let (sdp, offsets) = p.to_sdp();
        let binding = p
            .edge_constraints
            .iter()
            .filter(|ec| (ec.limit as usize) < ec.members.len())
            .count();
        assert_eq!(sdp.dim(), p.num_variables() + binding);
        assert_eq!(sdp.num_constraints(), p.segments.len() + binding);
        assert_eq!(offsets, vec![0, 2, 4]);
    }

    #[test]
    fn ilp_solution_beats_or_matches_current() {
        let (grid, nl, a) = fixture();
        let cd = caps(&grid, &nl, &a);
        let segs: Vec<SegmentRef> = nl.segment_refs().collect();
        let p = PartitionProblem::extract(&grid, &nl, &a, &segs, &cd, &ProblemConfig::default());
        let sol = p.to_choice_problem().solve(1_000_000).expect("feasible");
        let cur_cost = p.evaluate(&p.current).expect("no-op feasible");
        assert!(sol.objective <= cur_cost + 1e-9);
        assert!(sol.optimal);
    }

    #[test]
    fn direct_evaluate_matches_choice_problem() {
        let (grid, nl, a) = fixture();
        let cd = caps(&grid, &nl, &a);
        let segs: Vec<SegmentRef> = nl.segment_refs().collect();
        let p = PartitionProblem::extract(&grid, &nl, &a, &segs, &cd, &ProblemConfig::default());
        let lowered = p.choice_problem();
        // Exhaustive: 3 segments × 2 candidates.
        for mask in 0..8usize {
            let choices = vec![mask & 1, (mask >> 1) & 1, (mask >> 2) & 1];
            let direct = p.evaluate(&choices);
            let via_ilp = lowered.evaluate(&choices);
            match (direct, via_ilp) {
                (Some(x), Some(y)) => {
                    assert!((x - y).abs() < 1e-12, "{x} vs {y}")
                }
                (None, None) => {}
                other => panic!("feasibility mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn memo_is_excluded_from_equality_and_clone() {
        let (grid, nl, a) = fixture();
        let cd = caps(&grid, &nl, &a);
        let segs: Vec<SegmentRef> = nl.segment_refs().collect();
        let p = PartitionProblem::extract(&grid, &nl, &a, &segs, &cd, &ProblemConfig::default());
        let fresh = p.clone();
        let _ = p.choice_problem(); // populate the memo on one side only
        assert_eq!(p, fresh, "memo state must not affect equality");
        let again = p.clone();
        assert!(again.choice.get().is_none(), "clones start unmemoized");
    }

    #[test]
    fn sdp_relaxation_lower_bounds_ilp() {
        let (grid, nl, a) = fixture();
        let cd = caps(&grid, &nl, &a);
        let segs: Vec<SegmentRef> = nl.segment_refs().collect();
        let p = PartitionProblem::extract(&grid, &nl, &a, &segs, &cd, &ProblemConfig::default());
        let ilp = p.to_choice_problem().solve(1_000_000).expect("feasible");
        let (sdp, _) = p.to_sdp();
        let sol = solver::SdpSolver::default().solve(&sdp);
        assert!(
            sol.objective <= ilp.objective * 1.02 + 1e-6,
            "SDP {} should (approximately) lower-bound ILP {}",
            sol.objective,
            ilp.objective
        );
    }
}
