//! Post-mapping (Algorithm 1 of the paper).
//!
//! The SDP relaxation yields fractional `x_ij`; this module converts them
//! to an integral assignment while honoring edge capacities: edges are
//! traversed, and on each edge the layers of its direction are visited
//! **top-down** (higher layers are less resistive, hence more
//! contended); on layer `j` the `cap_e(j)` highest-valued unassigned
//! `x_ij` entries win the layer — but only segments for which `j` is the
//! best-valued candidate that still fits claim a slot, so a segment the
//! relaxation parked on a lower layer (say, to duck a via-overflow
//! penalty) is not hoisted into a top layer merely because capacity is
//! free there. Segments left over after the sweep are placed on their
//! best-valued candidate that still has capacity on all covered edges,
//! or — when nothing fits — on their highest-valued candidate outright
//! (the overflow is what `OV#` counts).

#![allow(clippy::needless_range_loop)] // segment indices are the domain

use net::Net;
use timing::{IncrementalTiming, TimingModel};

use crate::problem::PartitionProblem;

/// Per-net timing gate applied after Algorithm-1 post-mapping.
///
/// Partition objectives approximate each segment's delay with frozen
/// downstream capacitances, so a mapped solution that improves the
/// partition objective can still regress the *exact* Elmore delay of a
/// net. The gate re-times each touched net incrementally — O(changes ×
/// path-to-root) instead of a full O(net) recompute — and accepts the
/// proposed `changes` only if the net's critical delay does not get
/// worse.
///
/// Returns the full new layer vector on acceptance, `None` on rejection
/// (the caller keeps `layers` as-is). Only *critical* (released) nets
/// should be gated: neighbor nets are deliberately demoted to free
/// capacity, which raises their own delay by design.
///
/// # Panics
///
/// Panics if `layers` does not cover the net's segments or a change
/// indexes out of range.
pub fn timing_gate(
    model: &TimingModel,
    net: &Net,
    layers: &[usize],
    changes: &[(usize, usize)],
) -> Option<Vec<usize>> {
    let mut inc = IncrementalTiming::new(model, net, layers);
    let before = inc.critical_delay();
    for &(s, l) in changes {
        inc.set_layer(s, l);
    }
    if inc.critical_delay() <= before + 1e-12 {
        inc.commit();
        Some(inc.layers().to_vec())
    } else {
        None
    }
}

/// Buffers [`post_map_with`] reuses from one call to the next: the
/// groups' residual capacities, the transpose of their member rows,
/// the sweep's group order and ranking buffers, the choices being
/// made, and the mapped result. A caller mapping many problems (CPLA's
/// PostMap stage, one per solved partition) keeps one per thread.
#[derive(Debug, Default)]
pub(crate) struct PostMapScratch {
    remaining: Vec<i64>,
    var_groups_start: Vec<usize>,
    fill: Vec<usize>,
    var_groups: Vec<usize>,
    choice: Vec<Option<usize>>,
    order: Vec<usize>,
    cands: Vec<(f64, usize)>,
    ranked: Vec<(f64, usize)>,
    mapped: Vec<usize>,
}

/// Maps relaxed diagonal values to an integral candidate choice per
/// segment.
///
/// `x` holds one value per assignment variable in the [`PartitionProblem`]
/// variable order (segment-major, candidates bottom-up — the same order
/// [`PartitionProblem::to_sdp`] returns offsets for).
///
/// # Panics
///
/// Panics if `x.len() < problem.num_variables()` (slack entries beyond
/// the variables are permitted and ignored).
pub fn post_map(problem: &PartitionProblem, x: &[f64]) -> Vec<usize> {
    post_map_with(problem, x, &mut PostMapScratch::default()).to_vec()
}

/// [`post_map`] with caller-kept buffers; the choices are returned as
/// a view into `scratch`, valid until its next use.
///
/// # Panics
///
/// Same as [`post_map`].
pub(crate) fn post_map_with<'s>(
    problem: &PartitionProblem,
    x: &[f64],
    scratch: &'s mut PostMapScratch,
) -> &'s [usize] {
    let n = problem.segments.len();
    let num_vars = problem.num_variables();
    assert!(x.len() >= num_vars, "solution vector too short");
    let PostMapScratch {
        remaining,
        var_groups_start,
        fill,
        var_groups,
        choice,
        order,
        cands,
        ranked,
        mapped,
    } = scratch;

    // Residual capacity per group, from the extracted limits, and the
    // groups each variable would occupy (the transpose of the groups'
    // member rows). Every segment on an edge shares one candidate set,
    // so variable (i, c) sits in group (layer of c, e) for each edge e
    // of segment i.
    remaining.clear();
    remaining.extend(problem.groups().map(|g| i64::from(g.limit)));
    var_groups_start.clear();
    var_groups_start.resize(num_vars + 1, 0);
    for g in problem.groups() {
        for &v in g.members {
            var_groups_start[v as usize + 1] += 1;
        }
    }
    for v in 0..num_vars {
        var_groups_start[v + 1] += var_groups_start[v];
    }
    fill.clear();
    fill.extend_from_slice(var_groups_start);
    var_groups.clear();
    var_groups.resize(var_groups_start[num_vars], 0);
    for (gi, g) in problem.groups().enumerate() {
        for &v in g.members {
            var_groups[fill[v as usize]] = gi;
            fill[v as usize] += 1;
        }
    }
    let (var_groups_start, var_groups) = (&*var_groups_start, &*var_groups);
    let groups_of = |v: usize| &var_groups[var_groups_start[v]..var_groups_start[v + 1]];

    let fits =
        |v: usize, remaining: &[i64]| -> bool { groups_of(v).iter().all(|&g| remaining[g] > 0) };
    let consume = |v: usize, remaining: &mut [i64]| {
        for &g in groups_of(v) {
            remaining[g] -= 1;
        }
    };
    // Best relaxed value among the segment's candidates that still fit:
    // the sweep only lets a segment claim a layer it actually prefers.
    let best_fitting = |i: usize, remaining: &[i64]| -> f64 {
        problem
            .variables(i)
            .filter(|&v| fits(v, remaining))
            .map(|v| x[v])
            .fold(f64::NEG_INFINITY, f64::max)
    };

    choice.clear();
    choice.resize(n, None);

    // Edges in order; on each edge its layers top-down (candidate
    // layers are stored bottom-up). Every (layer, edge) is one group,
    // so the order has no ties.
    order.clear();
    order.extend(0..problem.num_groups());
    order.sort_unstable_by(|&a, &b| {
        let (ga, gb) = (problem.group(a), problem.group(b));
        ga.edge.cmp(&gb.edge).then(gb.layer.cmp(&ga.layer))
    });
    for &g in order.iter() {
        // Unassigned segments on this edge that may take this layer,
        // best value first. A group holds one variable per segment, in
        // segment order, so ties break by segment index (the variables
        // are distinct, so the order has no ties).
        cands.clear();
        cands.extend(
            problem
                .group(g)
                .members
                .iter()
                .map(|&v| (x[v as usize], v as usize))
                .filter(|&(_, v)| choice[problem.variable(v).0].is_none()),
        );
        cands.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        for &(value, v) in cands.iter() {
            if remaining[g] <= 0 {
                break;
            }
            let (i, c) = problem.variable(v);
            if fits(v, remaining) && value + 1e-12 >= best_fitting(i, remaining) {
                choice[i] = Some(c);
                consume(v, remaining);
            }
        }
    }

    // Leftovers: best candidate that still fits everywhere, else the
    // highest-valued candidate (accepting overflow).
    for i in 0..n {
        if choice[i].is_some() {
            continue;
        }
        let vars = problem.variables(i);
        ranked.clear();
        ranked.extend(vars.clone().map(|v| (x[v], v)));
        ranked.sort_by(|a, b| b.0.total_cmp(&a.0));
        #[expect(
            clippy::expect_used,
            reason = "extraction gives every segment ≥ 1 candidate"
        )]
        let picked = ranked
            .iter()
            .find(|&&(_, v)| fits(v, remaining))
            .or_else(|| ranked.first())
            .map(|&(_, v)| v)
            .expect("segments always have candidates");
        choice[i] = Some(picked - vars.start);
        consume(picked, remaining);
    }

    mapped.clear();
    #[expect(
        clippy::expect_used,
        reason = "the loop above visits every segment once"
    )]
    mapped.extend(choice.iter().map(|c| c.expect("all assigned")));
    mapped
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid::Edge2d;

    /// Hand-built problem: `n` segments all covering one horizontal
    /// edge, two candidate layers (0 = low, 2 = high), per-layer limits.
    fn shared_edge_problem(n: usize, limit_high: u32, limit_low: u32) -> PartitionProblem {
        let edge = Edge2d::horizontal(0, 0);
        PartitionProblem::from_parts(
            vec![vec![0, 2]; n],
            vec![vec![2.0, 1.0]; n],
            vec![(0, edge, limit_low), (2, edge, limit_high)],
            vec![0; n],
        )
    }

    mod gate {
        use super::*;
        use grid::{Cell, Direction, GridBuilder};
        use net::{Pin, RouteTreeBuilder};

        fn one_segment_net() -> (grid::Grid, Net) {
            let grid = GridBuilder::new(16, 4)
                .alternating_layers(6, Direction::Horizontal)
                .build()
                .unwrap();
            let mut b = RouteTreeBuilder::new(Cell::new(0, 1));
            let end = b.add_segment(b.root(), Cell::new(12, 1)).unwrap();
            b.attach_pin(b.root(), 0).unwrap();
            b.attach_pin(end, 1).unwrap();
            let mut net = Net::new(
                "n",
                vec![
                    Pin::source(Cell::new(0, 1), 0.0),
                    Pin::sink(Cell::new(12, 1), 2.0),
                ],
                b.build().unwrap(),
            );
            net.driver_resistance = 1.0;
            (grid, net)
        }

        #[test]
        fn accepts_promotions_and_rejects_demotions() {
            let (grid, net) = one_segment_net();
            let model = TimingModel::from_grid(&grid);
            // Promotion to the faster top layer must pass.
            let promoted = timing_gate(&model, &net, &[0], &[(0, 4)]);
            assert_eq!(promoted, Some(vec![4]));
            // Demotion back down must be rejected.
            assert_eq!(timing_gate(&model, &net, &[4], &[(0, 0)]), None);
        }

        #[test]
        fn no_op_change_passes() {
            let (grid, net) = one_segment_net();
            let model = TimingModel::from_grid(&grid);
            assert_eq!(timing_gate(&model, &net, &[2], &[]), Some(vec![2]));
            assert_eq!(timing_gate(&model, &net, &[2], &[(0, 2)]), Some(vec![2]));
        }
    }

    #[test]
    fn highest_x_wins_the_top_layer() {
        let p = shared_edge_problem(3, 1, 5);
        // Segment 1 has the strongest preference for the high layer.
        let x = vec![
            0.8, 0.2, // seg 0
            0.1, 0.9, // seg 1
            0.5, 0.5, // seg 2
        ];
        let choices = post_map(&p, &x);
        assert_eq!(choices[1], 1, "seg 1 should win layer 2");
        // Only one slot on the high layer.
        let high = choices.iter().filter(|&&c| c == 1).count();
        assert_eq!(high, 1);
    }

    #[test]
    fn capacity_is_respected_on_every_layer() {
        let p = shared_edge_problem(4, 2, 2);
        let x = vec![0.5; 8];
        let choices = post_map(&p, &x);
        let high = choices.iter().filter(|&&c| c == 1).count();
        let low = choices.iter().filter(|&&c| c == 0).count();
        assert!(high <= 2);
        assert!(low <= 2);
        assert_eq!(high + low, 4);
    }

    #[test]
    fn overflow_only_when_unavoidable() {
        // 4 segments, 1 + 2 = 3 slots: exactly one overflow.
        let p = shared_edge_problem(4, 1, 2);
        let x = vec![0.5; 8];
        let choices = post_map(&p, &x);
        assert!(p.evaluate(&choices).is_none(), "must overflow somewhere");
        // But only by one: 3 segments must sit within limits.
        let high = choices.iter().filter(|&&c| c == 1).count();
        let low = choices.iter().filter(|&&c| c == 0).count();
        assert!(high + low == 4 && (high <= 2 || low <= 3));
    }

    #[test]
    fn deterministic_under_ties() {
        let p = shared_edge_problem(3, 1, 5);
        let x = vec![0.5; 6];
        let a = post_map(&p, &x);
        let b = post_map(&p, &x);
        assert_eq!(a, b);
        // Tie broken by segment index: segment 0 takes the high slot.
        assert_eq!(a[0], 1);
    }

    #[test]
    fn feasible_x_maps_to_feasible_choices() {
        let p = shared_edge_problem(3, 1, 2);
        // Clear preferences matching capacity: one high, two low.
        let x = vec![0.1, 0.9, 0.9, 0.1, 0.8, 0.2];
        let choices = post_map(&p, &x);
        assert!(p.evaluate(&choices).is_some(), "{choices:?}");
        assert_eq!(choices, vec![1, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "solution vector too short")]
    fn short_vector_panics() {
        let p = shared_edge_problem(2, 1, 1);
        post_map(&p, &[0.5; 3]);
    }

    mod properties {
        use super::*;

        /// Cases per sweep; the off-by-default `proptest` feature
        /// widens the deterministic sampling.
        fn sweep_cases() -> usize {
            if cfg!(feature = "proptest") {
                1024
            } else {
                256
            }
        }

        /// Whenever total capacity covers all segments, post-mapping
        /// never overflows a limit; and every segment is assigned.
        #[test]
        fn respects_limits_when_feasible() {
            let mut picker = prng::Rng::seed_from_u64(0xfea5);
            for _ in 0..sweep_cases() {
                let n = picker.range_usize(1, 11);
                let extra_high = picker.range_u32(0, 3);
                let seed = picker.range_u64(0, 999);
                check_respects_limits(n, extra_high, seed);
            }
        }

        fn check_respects_limits(n: usize, extra_high: u32, seed: u64) {
            let limit_high = (n as u32).div_ceil(2) + extra_high;
            let limit_low = n as u32; // low layer always fits the rest
            let p = shared_edge_problem(n, limit_high, limit_low);
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
            let x: Vec<f64> = (0..2 * n)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state % 1000) as f64 / 1000.0
                })
                .collect();
            let choices = post_map(&p, &x);
            assert_eq!(choices.len(), n);
            assert!(
                p.evaluate(&choices).is_some(),
                "feasible instance must map feasibly: {choices:?}"
            );
        }

        /// The winner on a contended layer prefers it (the low layer
        /// always has room here, so a segment whose low value is higher
        /// never claims the slot) and has the highest relaxed value
        /// among the segments that prefer it.
        #[test]
        fn contended_slot_goes_to_max_value() {
            let mut picker = prng::Rng::seed_from_u64(0xc0de);
            for _ in 0..sweep_cases() {
                check_contended_slot(picker.range_u64(0, 999));
            }
        }

        fn check_contended_slot(seed: u64) {
            let p = shared_edge_problem(4, 1, 4);
            let mut state = seed.wrapping_mul(0x2545F4914F6CDD1D) | 1;
            let x: Vec<f64> = (0..8)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state % 997) as f64 / 997.0
                })
                .collect();
            let choices = post_map(&p, &x);
            let winners: Vec<usize> = (0..4).filter(|&i| choices[i] == 1).collect();
            assert!(winners.len() <= 1);
            let prefers_high = |i: usize| x[2 * i + 1] + 1e-12 >= x[2 * i];
            if let Some(&w) = winners.first() {
                assert!(prefers_high(w), "winner {w} prefers the low layer");
                for i in (0..4).filter(|&i| prefers_high(i)) {
                    assert!(
                        x[2 * w + 1] >= x[2 * i + 1] - 1e-12,
                        "winner {w} not maximal among high-preferring segments"
                    );
                }
            }
        }
    }
}
