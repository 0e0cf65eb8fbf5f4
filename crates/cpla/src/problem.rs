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
use std::ops::Range;

use grid::{Direction, Edge2d, Grid};
use net::{Assignment, Netlist, SegmentRef};
use solver::{CapacityGroup, ChoiceProblem, PairCost, SdpProblem};

use crate::context::SegCtx;

/// Via coupling between two in-partition segments, read out of the
/// problem's pair-cost array.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SegmentPair<'a> {
    /// Local index of the parent-side segment.
    pub a: usize,
    /// Local index of the child-side segment.
    pub b: usize,
    /// Via delay + capacity penalty per candidate combination, row-major:
    /// one row per candidate of `a`, one column per candidate of `b`.
    pub costs: &'a [f64],
    /// Candidates of `b` (the row length of `costs`).
    pub cols: usize,
}

impl SegmentPair<'_> {
    /// Cost when `a` takes its candidate `ca` and `b` takes `cb`.
    ///
    /// # Panics
    ///
    /// Panics if `ca` or `cb` is out of range.
    pub fn cost(&self, ca: usize, cb: usize) -> f64 {
        assert!(
            cb < self.cols,
            "candidate {cb} out of range for segment {}",
            self.b
        );
        self.costs[ca * self.cols + cb]
    }
}

/// One edge-capacity group (4c): the variables that would occupy
/// `(layer, edge)`.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct EdgeGroup<'a> {
    /// The layer.
    pub layer: usize,
    /// The 2-D edge.
    pub edge: Edge2d,
    /// Residual capacity available to the partition's segments.
    pub limit: u32,
    /// Member variables in ascending order, as indices into the
    /// segment-major variable order ([`PartitionProblem::variables`]).
    pub members: &'a [u32],
}

impl EdgeGroup<'_> {
    /// Whether the group can bind: a limit of at least its member count
    /// holds whatever the segments choose.
    pub fn binds(&self) -> bool {
        (self.limit as usize) < self.members.len()
    }
}

/// Sort key of a capacity group: layer first, then edge.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct GroupKey {
    layer: u16,
    edge: Edge2d,
}

/// Where one in-partition pair sits in the pair-cost array.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct PairSpan {
    a: u32,
    b: u32,
    start: u32,
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

/// Buffers [`PartitionProblem::extract_with`] reuses from one call to
/// the next: the segment-index map, the layer lists of both
/// directions, one segment's edges, the in-partition pairs and their
/// cost tables as they are found, and the (group key, variable)
/// entries of the capacity groups. A caller extracting many problems
/// (CPLA's Extract stage, one per partition) keeps one per thread.
#[derive(Debug, Default)]
pub(crate) struct ExtractScratch {
    index: HashMap<SegmentRef, usize>,
    h_layers: Vec<usize>,
    v_layers: Vec<usize>,
    edges: Vec<Edge2d>,
    pairs: Vec<PairSpan>,
    pair_costs: Vec<f64>,
    entries: Vec<(GroupKey, u32, bool)>,
}

/// A partition's extracted assignment problem.
///
/// Stored flat, so a problem costs memory in proportion to its own
/// variables and groups: one variable per (segment, candidate layer) in
/// segment-major order, one linear-cost array, one pair-cost array, and
/// the (layer, edge) capacity groups in compressed sparse rows (sorted
/// keys, limits, member offsets, members).
#[derive(Debug, Default)]
pub struct PartitionProblem {
    /// The segments being re-assigned.
    pub segments: Vec<SegmentRef>,
    /// Candidate index of each segment's current layer.
    pub current: Vec<usize>,
    /// Segment `i` owns variables `var_start[i]..var_start[i + 1]`.
    var_start: Vec<u32>,
    /// Candidate layer of each variable (all layers of the segment's
    /// direction, bottom-up).
    var_layer: Vec<usize>,
    /// Delay of each variable's segment on its layer, including
    /// couplings to fixed neighbors.
    linear: Vec<f64>,
    /// In-partition pairs, in extraction order.
    pairs: Vec<PairSpan>,
    /// Every pair's cost table, back to back, row-major.
    pair_costs: Vec<f64>,
    /// Capacity-group keys, ascending.
    group_keys: Vec<GroupKey>,
    /// Capacity-group limits.
    group_limit: Vec<u32>,
    /// Group `g` owns `group_members[group_start[g]..group_start[g + 1]]`.
    group_start: Vec<u32>,
    /// Member variables of every group, back to back.
    group_members: Vec<u32>,
    /// Lazily built ILP lowering, shared by every
    /// [`PartitionProblem::choice_problem`] caller.
    pub(crate) choice: std::sync::OnceLock<ChoiceProblem>,
}

// Clone and PartialEq deliberately exclude the memo cell: a freshly
// extracted problem and a cached one with a populated memo must compare
// equal (the engine's partition cache keys on problem equality), and a
// clone can rebuild the lowering on demand. Equality covers every
// candidate list, cost, current choice and group (members and limit,
// binding or not): a group that cannot bind today still tells two
// states apart.
impl Clone for PartitionProblem {
    fn clone(&self) -> PartitionProblem {
        PartitionProblem {
            segments: self.segments.clone(),
            current: self.current.clone(),
            var_start: self.var_start.clone(),
            var_layer: self.var_layer.clone(),
            linear: self.linear.clone(),
            pairs: self.pairs.clone(),
            pair_costs: self.pair_costs.clone(),
            group_keys: self.group_keys.clone(),
            group_limit: self.group_limit.clone(),
            group_start: self.group_start.clone(),
            group_members: self.group_members.clone(),
            choice: std::sync::OnceLock::new(),
        }
    }
}

impl PartialEq for PartitionProblem {
    fn eq(&self, other: &PartitionProblem) -> bool {
        self.segments == other.segments
            && self.current == other.current
            && self.var_start == other.var_start
            && self.var_layer == other.var_layer
            && self.linear == other.linear
            && self.pairs == other.pairs
            && self.pair_costs == other.pair_costs
            && self.group_keys == other.group_keys
            && self.group_limit == other.group_limit
            && self.group_start == other.group_start
            && self.group_members == other.group_members
    }
}

/// `n` as a position in a problem's flat arrays, which are indexed by
/// `u32` to halve their offsets and members.
///
/// # Panics
///
/// Panics if `n` does not fit (a single partition with billions of
/// variables or group members).
fn flat_index(n: usize) -> u32 {
    assert!(
        u32::try_from(n).is_ok(),
        "partition problem exceeds u32 indexing"
    );
    n as u32
}

/// `layer` as a capacity-group key.
///
/// # Panics
///
/// Panics if the layer index does not fit in 16 bits.
fn layer_key(layer: usize) -> u16 {
    assert!(u16::try_from(layer).is_ok(), "layer {layer} exceeds u16");
    layer as u16
}

/// Arithmetic mean of `values`, 0 when empty.
fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
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
    /// Panics if a segment reference is out of range, a layer index
    /// exceeds 16 bits, or the problem would need more than 2^32
    /// variables or group members.
    pub fn extract(
        grid: &Grid,
        netlist: &Netlist,
        assignment: &Assignment,
        segments: &[SegmentRef],
        ctx: &dyn Fn(SegmentRef) -> SegCtx,
        config: &ProblemConfig,
    ) -> PartitionProblem {
        let mut scratch = ExtractScratch::default();
        PartitionProblem::extract_with(
            grid,
            netlist,
            assignment,
            segments,
            ctx,
            config,
            &mut scratch,
        )
    }

    /// [`PartitionProblem::extract`] with caller-kept buffers: the
    /// problem it returns is the same, and it allocates only the
    /// problem's own arrays, each once at its final size.
    ///
    /// # Panics
    ///
    /// Same as [`PartitionProblem::extract`].
    pub(crate) fn extract_with(
        grid: &Grid,
        netlist: &Netlist,
        assignment: &Assignment,
        segments: &[SegmentRef],
        ctx: &dyn Fn(SegmentRef) -> SegCtx,
        config: &ProblemConfig,
        scratch: &mut ExtractScratch,
    ) -> PartitionProblem {
        let ExtractScratch {
            index,
            h_layers,
            v_layers,
            edges,
            pairs,
            pair_costs,
            entries,
        } = scratch;
        index.clear();
        index.extend(segments.iter().enumerate().map(|(i, &s)| (s, i)));
        h_layers.clear();
        h_layers.extend(grid.layers_in_direction(Direction::Horizontal));
        v_layers.clear();
        v_layers.extend(grid.layers_in_direction(Direction::Vertical));
        let candidates_of = |sref: SegmentRef| -> &[usize] {
            let tree = netlist.net(sref.net as usize).tree();
            match tree.segment(sref.seg as usize).dir {
                Direction::Horizontal => h_layers,
                Direction::Vertical => v_layers,
            }
        };

        // Variable ranges first, so every per-variable array is
        // allocated once at its final size.
        let mut var_start = Vec::with_capacity(segments.len() + 1);
        var_start.push(0u32);
        let mut num_vars = 0usize;
        for &sref in segments {
            num_vars += candidates_of(sref).len();
            var_start.push(flat_index(num_vars));
        }
        let vars = |i: usize| var_start[i] as usize..var_start[i + 1] as usize;
        let mut var_layer = Vec::with_capacity(num_vars);
        let mut linear = Vec::with_capacity(num_vars);
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
            let cands = candidates_of(sref);
            let c = ctx(sref);
            let len = tree.segment_length(sref.seg as usize) as f64;
            for &l in cands {
                var_layer.push(l);
                linear.push(
                    c.weight
                        * timing::segment_delay_on_layer(grid, net, sref.seg as usize, l, c.cd)
                        + c.upstream * grid.layer(l).unit_capacitance * len,
                );
            }
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
            current.push(cur_idx);
        }

        // Delay scale for the via-capacity penalty.
        let mean_linear = mean(&linear);
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
        pairs.clear();
        pair_costs.clear();
        for (i, &sref) in segments.iter().enumerate() {
            let net = netlist.net(sref.net as usize);
            let tree = net.tree();
            let s = sref.seg as usize;
            let from_node = tree.segment(s).from as usize;
            let to_node = tree.segment(s).to as usize;
            let from_cell = tree.node(from_node).cell;
            let to_cell = tree.node(to_node).cell;
            let ci = ctx(sref);
            let own = vars(i);

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
                            // time), its table row-major.
                            pairs.push(PairSpan {
                                a: flat_index(pi),
                                b: flat_index(i),
                                start: flat_index(pair_costs.len()),
                            });
                            for &lp in &var_layer[vars(pi)] {
                                for &lc in &var_layer[own.clone()] {
                                    pair_costs.push(
                                        via_delay(lp, lc, drive) + via_penalty(from_cell, lp, lc),
                                    );
                                }
                            }
                        }
                        None => {
                            // Fixed neighbor: fold into linear cost.
                            let lp = assignment.layer_of(pref);
                            for v in own.clone() {
                                let lc = var_layer[v];
                                linear[v] +=
                                    via_delay(lp, lc, drive) + via_penalty(from_cell, lp, lc);
                            }
                        }
                    }
                }
                None => {
                    // Root segment: entry via from the source pin layer.
                    let src = net.source();
                    for v in own.clone() {
                        let lc = var_layer[v];
                        linear[v] += via_delay(src.layer, lc, ci.weight * ci.cd)
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
                for v in own.clone() {
                    let l = var_layer[v];
                    linear[v] += via_delay(l, lc, drive) + via_penalty(to_cell, l, lc);
                }
            }

            // Pin drop at the child-side node, weighted by that sink's
            // own criticality.
            if let Some(p) = tree.node(to_node).pin {
                let pin = &net.pins()[p as usize];
                for v in own.clone() {
                    let l = var_layer[v];
                    linear[v] += via_delay(pin.layer, l, ci.pin_weight * pin.capacitance)
                        + via_penalty(to_cell, pin.layer, l);
                }
            }
        }

        // ---- pass 3: edge-capacity constraints ----
        // One (key, variable, currently chosen) entry per variable and
        // covered edge. A segment covers an edge once and puts one
        // variable on each layer, so every (key, variable) is unique,
        // and sorting by it groups the entries by (layer, edge) with
        // each group's members in ascending variable order.
        entries.clear();
        for (i, &sref) in segments.iter().enumerate() {
            let tree = netlist.net(sref.net as usize).tree();
            tree.segment_edges_into(sref.seg as usize, edges);
            for &edge in edges.iter() {
                for v in vars(i) {
                    entries.push((
                        GroupKey {
                            layer: layer_key(var_layer[v]),
                            edge,
                        },
                        flat_index(v),
                        v - vars(i).start == current[i],
                    ));
                }
            }
        }
        entries.sort_unstable_by_key(|&(key, v, _)| (key, v));
        let num_groups = entries.chunk_by(|x, y| x.0 == y.0).count();
        let mut group_keys = Vec::with_capacity(num_groups);
        let mut group_limit = Vec::with_capacity(num_groups);
        let mut group_start = Vec::with_capacity(num_groups + 1);
        let mut group_members = Vec::with_capacity(entries.len());
        group_start.push(0u32);
        for run in entries.chunk_by(|x, y| x.0 == y.0) {
            let key = run[0].0;
            let layer = key.layer as usize;
            // Wires on this (layer, edge) that belong to partition
            // segments currently assigned here — they will be
            // re-decided, so they don't count against the residual.
            let ours = run.iter().filter(|e| e.2).count() as u32;
            let usage = grid.edge_usage(layer, key.edge);
            let cap = grid.edge_capacity(layer, key.edge);
            let residual = (cap + ours).saturating_sub(usage);
            // Keep the no-op solution feasible even under inherited
            // overflow.
            group_keys.push(key);
            group_limit.push(residual.max(ours));
            group_members.extend(run.iter().map(|e| e.1));
            group_start.push(flat_index(group_members.len()));
        }

        // A problem may stay cached for the rest of the run: the two
        // arrays whose length was not known are copied out at it.
        PartitionProblem {
            segments: segments.to_vec(),
            current,
            var_start,
            var_layer,
            linear,
            pairs: pairs.to_vec(),
            pair_costs: pair_costs.to_vec(),
            group_keys,
            group_limit,
            group_start,
            group_members,
            choice: std::sync::OnceLock::new(),
        }
    }

    /// Number of assignment variables (`Σ |candidates|`).
    pub fn num_variables(&self) -> usize {
        self.var_layer.len()
    }

    /// The variables of segment `i`: positions in the segment-major
    /// variable order, its candidates bottom-up.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn variables(&self, i: usize) -> Range<usize> {
        self.var_start[i] as usize..self.var_start[i + 1] as usize
    }

    /// The segment and candidate index of variable `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn variable(&self, v: usize) -> (usize, usize) {
        assert!(v < self.num_variables(), "variable {v} out of range");
        let i = self.var_start.partition_point(|&s| s as usize <= v) - 1;
        (i, v - self.var_start[i] as usize)
    }

    /// Candidate layers of segment `i` (all layers of its direction,
    /// bottom-up).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn candidates(&self, i: usize) -> &[usize] {
        &self.var_layer[self.variables(i)]
    }

    /// `linear_cost(i)[c]`: delay of segment `i` on its candidate `c`,
    /// including couplings to fixed neighbors.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn linear_cost(&self, i: usize) -> &[f64] {
        &self.linear[self.variables(i)]
    }

    /// Via couplings between in-partition segment pairs.
    pub fn pairs(&self) -> impl ExactSizeIterator<Item = SegmentPair<'_>> + '_ {
        self.pairs.iter().map(|p| {
            let (a, b) = (p.a as usize, p.b as usize);
            let cols = self.variables(b).len();
            let start = p.start as usize;
            SegmentPair {
                a,
                b,
                costs: &self.pair_costs[start..start + self.variables(a).len() * cols],
                cols,
            }
        })
    }

    /// Number of edge-capacity groups.
    pub(crate) fn num_groups(&self) -> usize {
        self.group_keys.len()
    }

    /// Edge-capacity group `g` in (layer, edge) order.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub(crate) fn group(&self, g: usize) -> EdgeGroup<'_> {
        let key = self.group_keys[g];
        EdgeGroup {
            layer: key.layer as usize,
            edge: key.edge,
            limit: self.group_limit[g],
            members: &self.group_members
                [self.group_start[g] as usize..self.group_start[g + 1] as usize],
        }
    }

    /// Edge-capacity groups, ordered by (layer, edge).
    pub fn groups(&self) -> impl ExactSizeIterator<Item = EdgeGroup<'_>> + '_ {
        self.group_keys
            .iter()
            .zip(&self.group_limit)
            .zip(self.group_start.windows(2))
            .map(|((key, &limit), span)| EdgeGroup {
                layer: key.layer as usize,
                edge: key.edge,
                limit,
                members: &self.group_members[span[0] as usize..span[1] as usize],
            })
    }

    /// Lowers to the branch-and-bound ILP (the GUROBI substitution).
    pub fn to_choice_problem(&self) -> ChoiceProblem {
        let mut p = ChoiceProblem::new();
        for i in 0..self.segments.len() {
            // alloc: the lowered problem owns its cost rows.
            p.add_item(self.linear_cost(i).to_vec());
        }
        for pair in self.pairs() {
            p.add_pair(PairCost {
                a: pair.a,
                b: pair.b,
                // alloc: the lowered problem owns its pair matrices.
                costs: pair.costs.chunks(pair.cols).map(<[f64]>::to_vec).collect(),
            });
        }
        // Constraints wider than their member count never bind.
        for g in self.groups().filter(EdgeGroup::binds) {
            p.add_capacity_group(CapacityGroup {
                // alloc: the lowered problem owns its member lists.
                members: g
                    .members
                    .iter()
                    .map(|&v| self.variable(v as usize))
                    .collect(),
                limit: g.limit,
            });
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
        let mut sdp = SdpProblem::empty(0);
        self.to_sdp_into(&mut sdp);
        let offsets = (0..self.segments.len())
            .map(|i| self.variables(i).start)
            .collect();
        (sdp, offsets)
    }

    /// [`PartitionProblem::to_sdp`] into a reused problem: the SDP is
    /// handed over as the sparse lists it is (one cost entry per
    /// variable and per pair-cost cell, one constraint row per segment
    /// and per binding group), so lowering a leaf costs time in
    /// proportion to its nonzeros and, once `sdp`'s buffers have grown,
    /// allocates nothing.
    pub(crate) fn to_sdp_into(&self, sdp: &mut SdpProblem) {
        let n = self.num_variables();
        sdp.reset(n + self.groups().filter(EdgeGroup::binds).count());
        for (v, &cost) in self.linear.iter().enumerate() {
            sdp.add_cost(v, v, cost);
        }
        for pair in self.pairs() {
            let (a, b) = (self.variables(pair.a).start, self.variables(pair.b).start);
            for (ca, row) in pair.costs.chunks(pair.cols).enumerate() {
                for (cb, &cost) in row.iter().enumerate() {
                    // ⟨T, X⟩ visits both symmetric entries, so halve.
                    sdp.add_cost(a + ca, b + cb, cost / 2.0);
                }
            }
        }
        for i in 0..self.segments.len() {
            sdp.add_constraint(self.variables(i).map(|v| (v, v, 1.0)), 1.0);
        }
        for (k, g) in self.groups().filter(EdgeGroup::binds).enumerate() {
            let slack = n + k;
            let members = g.members.iter().map(|&v| (v as usize, v as usize, 1.0));
            sdp.add_constraint(
                members.chain(std::iter::once((slack, slack, 1.0))),
                g.limit as f64,
            );
        }
    }

    /// Linear plus pairwise cost of a candidate-index assignment,
    /// ignoring capacities.
    ///
    /// # Panics
    ///
    /// Panics if `choices` has the wrong length or an index is out of
    /// range.
    pub fn cost(&self, choices: &[usize]) -> f64 {
        assert_eq!(choices.len(), self.segments.len());
        let mut cost = 0.0;
        for (i, &c) in choices.iter().enumerate() {
            cost += self.linear_cost(i)[c];
        }
        // Every choice is in range now, so each flat pair index is too.
        for pair in self.pairs() {
            cost += pair.cost(choices[pair.a], choices[pair.b]);
        }
        cost
    }

    /// Selected members and limit of every group under `choices`;
    /// `chosen` is the caller's buffer for the chosen-variable mask.
    fn group_loads<'a>(
        &'a self,
        choices: &[usize],
        chosen: &'a mut Vec<bool>,
    ) -> impl Iterator<Item = (u32, u32)> + 'a {
        assert_eq!(choices.len(), self.segments.len());
        chosen.clear();
        chosen.resize(self.num_variables(), false);
        for (i, &c) in choices.iter().enumerate() {
            let vars = self.variables(i);
            assert!(c < vars.len(), "candidate {c} out of range for segment {i}");
            chosen[vars.start + c] = true;
        }
        let chosen = &*chosen;
        self.groups().map(move |g| {
            let used = g.members.iter().filter(|&&v| chosen[v as usize]).count() as u32;
            (used, g.limit)
        })
    }

    /// Wires `choices` puts beyond the groups' limits, summed over the
    /// groups.
    ///
    /// # Panics
    ///
    /// Panics if `choices` has the wrong length or an index is out of
    /// range.
    pub fn overflow(&self, choices: &[usize]) -> u32 {
        self.overflow_with(choices, &mut Vec::new())
    }

    /// [`PartitionProblem::overflow`] with a caller-kept buffer for the
    /// chosen-variable mask.
    ///
    /// # Panics
    ///
    /// Same as [`PartitionProblem::overflow`].
    pub(crate) fn overflow_with(&self, choices: &[usize], chosen: &mut Vec<bool>) -> u32 {
        self.group_loads(choices, chosen)
            .map(|(used, limit)| used.saturating_sub(limit))
            .sum()
    }

    /// Mean linear cost over all variables: the delay scale of the
    /// acceptance rule's overflow charge.
    pub fn mean_linear_cost(&self) -> f64 {
        mean(&self.linear)
    }

    /// Evaluates a candidate-index assignment: total cost, or `None` if
    /// an edge constraint is violated. Mirrors the ILP objective
    /// ([`solver::ChoiceProblem::evaluate`]) without materializing the
    /// dense lowering.
    ///
    /// # Panics
    ///
    /// Panics if `choices` has the wrong length or an index is out of
    /// range.
    pub fn evaluate(&self, choices: &[usize]) -> Option<f64> {
        let cost = self.cost(choices);
        let mut chosen = Vec::new();
        let mut loads = self.group_loads(choices, &mut chosen);
        if loads.any(|(used, limit)| used > limit) {
            None
        } else {
            Some(cost)
        }
    }

    /// Translates candidate indices back to layer numbers.
    ///
    /// # Panics
    ///
    /// Panics if `choices` has the wrong length or an index is out of
    /// range.
    pub fn choices_to_layers(&self, choices: &[usize]) -> Vec<usize> {
        assert_eq!(choices.len(), self.segments.len());
        choices
            .iter()
            .enumerate()
            .map(|(i, &c)| self.candidates(i)[c])
            .collect()
    }
}

#[cfg(test)]
impl PartitionProblem {
    /// A hand-built problem whose segments all cover every group's edge:
    /// group `(layer, edge, limit)` holds each segment's variable on
    /// `layer`. No pairs; segment `i` is segment 0 of net `i`.
    pub(crate) fn from_parts(
        candidates: Vec<Vec<usize>>,
        linear: Vec<Vec<f64>>,
        mut groups: Vec<(usize, Edge2d, u32)>,
        current: Vec<usize>,
    ) -> PartitionProblem {
        let mut var_start = vec![0u32];
        for c in &candidates {
            var_start.push(var_start[var_start.len() - 1] + c.len() as u32);
        }
        let var_layer: Vec<usize> = candidates.concat();
        groups.sort_by_key(|&(layer, edge, _)| (layer, edge));
        let mut p = PartitionProblem {
            segments: (0..candidates.len())
                .map(|i| SegmentRef::new(i as u32, 0))
                .collect(),
            current,
            linear: linear.concat(),
            group_start: vec![0],
            ..PartitionProblem::default()
        };
        for (layer, edge, limit) in groups {
            p.group_keys.push(GroupKey {
                layer: layer as u16,
                edge,
            });
            p.group_limit.push(limit);
            p.group_members.extend(
                (0..var_layer.len())
                    .filter(|&v| var_layer[v] == layer)
                    .map(|v| v as u32),
            );
            p.group_start.push(p.group_members.len() as u32);
        }
        p.var_start = var_start;
        p.var_layer = var_layer;
        p
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
        assert_eq!(p.num_variables(), 6);
        // Horizontal segments get the 2 H layers, vertical the 2 V.
        assert_eq!(p.candidates(0), [0, 2]);
        assert_eq!(p.candidates(1), [1, 3]);
        assert_eq!(p.variables(2), 4..6);
        assert_eq!(p.variable(3), (1, 1));
        // One in-partition pair (the L-net's corner).
        assert_eq!(p.pairs().len(), 1);
        // Every linear cost is positive and finite.
        for i in 0..3 {
            for &c in p.linear_cost(i) {
                assert!(c.is_finite() && c > 0.0);
            }
        }
        // Groups come out ordered by (layer, edge), members ascending.
        let keys: Vec<(usize, Edge2d)> = p.groups().map(|g| (g.layer, g.edge)).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert!(p
            .groups()
            .all(|g| g.members.windows(2).all(|m| m[0] < m[1])));
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
        assert_eq!(p.pairs().len(), 0);
        // Candidate on layer 3 must carry a larger via cost than layer 1
        // (parent fixed on layer 0): stack 0..3 vs 0..1.
        let base: Vec<f64> = p
            .candidates(0)
            .iter()
            .map(|&l| {
                timing::segment_delay_on_layer(&grid, nl.net(0), 1, l, cd(SegmentRef::new(0, 1)).cd)
            })
            .collect();
        let extra0 = p.linear_cost(0)[0] - base[0];
        let extra1 = p.linear_cost(0)[1] - base[1];
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
            .groups()
            .find(|ec| ec.layer == 0 && ec.edge == Edge2d::horizontal(2, 0))
            .expect("constraint exists");
        assert_eq!(ec.limit, 1);
        // On an edge beyond the L-net (x in 6..8): only our wire: limit 2.
        let ec2 = p
            .groups()
            .find(|ec| ec.layer == 0 && ec.edge == Edge2d::horizontal(7, 0))
            .expect("constraint exists");
        assert_eq!(ec2.limit, 2);
        let _ = &mut grid;
    }

    /// The cache-hit rule compares every group, binding or not: two
    /// states that differ only in the limit of a group that cannot bind
    /// lower to the same programs, yet must miss. Treating them as equal
    /// would hand out results (and skip warm starts) the reference run
    /// recomputes.
    #[test]
    fn a_non_binding_limit_alone_breaks_equality() {
        let (mut grid, nl, a) = fixture();
        let cd = caps(&grid, &nl, &a);
        let segs = vec![SegmentRef::new(1, 0)];
        let config = ProblemConfig::default();
        let before = PartitionProblem::extract(&grid, &nl, &a, &segs, &cd, &config);
        // Beyond the L-net only the released wire sits on layer 0: one
        // member, limit 2. A background wire there lowers the limit to
        // 1, which still cannot bind.
        let edge = Edge2d::horizontal(7, 0);
        grid.add_wire(0, edge);
        let after = PartitionProblem::extract(&grid, &nl, &a, &segs, &cd, &config);
        let group = |p: &PartitionProblem| {
            p.groups()
                .find(|g| g.layer == 0 && g.edge == edge)
                .map(|g| (g.limit, g.members.len(), g.binds()))
        };
        assert_eq!(group(&before), Some((2, 1, false)));
        assert_eq!(group(&after), Some((1, 1, false)));
        assert_eq!(before.to_sdp(), after.to_sdp());
        assert_eq!(before.to_choice_problem(), after.to_choice_problem());
        assert_ne!(
            before, after,
            "a non-binding limit must still tell states apart"
        );
    }

    #[test]
    fn sdp_lowering_dimensions() {
        let (grid, nl, a) = fixture();
        let cd = caps(&grid, &nl, &a);
        let segs: Vec<SegmentRef> = nl.segment_refs().collect();
        let p = PartitionProblem::extract(&grid, &nl, &a, &segs, &cd, &ProblemConfig::default());
        let (sdp, offsets) = p.to_sdp();
        let binding = p.groups().filter(EdgeGroup::binds).count();
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
