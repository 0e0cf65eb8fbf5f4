//! The exact brute-force layer-assignment oracle.
//!
//! For instances whose released nets carry few enough segments,
//! [`solve`] enumerates *every* direction-legal layer combination,
//! keeps the combinations that do not worsen the input's wire/via
//! overflow, and returns the true optimal `Avg(Tcp)` over the released
//! set. The engines' results are then bounded against this optimum
//! (their *optimality gap*), which is the strongest end-to-end check
//! the pipeline has: a heuristic can be wrong in many quiet ways, but
//! it cannot beat or badly trail an exhaustive search without one of
//! the two being buggy.
//!
//! Feasibility is *relative*: a combination is feasible when its total
//! wire overflow and via overflow do not exceed the input assignment's.
//! The input itself is always feasible under this definition, so the
//! oracle never comes back empty, and engines — which are allowed to
//! keep pre-existing congestion — are compared against a bound they
//! could in principle reach.

use flow::{Instance, Metrics};

/// Result of one exhaustive enumeration.
#[derive(Clone, PartialEq, Debug)]
pub struct OracleOutcome {
    /// The optimal `Avg(Tcp)` over the released nets.
    pub best_avg_tcp: f64,
    /// The optimal layer vectors, parallel to the released order.
    pub best_layers: Vec<Vec<usize>>,
    /// Combinations enumerated.
    pub combos: u64,
    /// Combinations that were feasible.
    pub feasible: u64,
}

/// Number of layer combinations an exhaustive enumeration would visit,
/// or `None` when the product exceeds `cap` (the instance is not
/// oracle-sized).
pub fn enumeration_size(inst: &Instance, released: &[usize], cap: u64) -> Option<u64> {
    let mut combos = 1u64;
    for &ni in released {
        let net = inst.netlist().net(ni);
        for seg in net.tree().segments() {
            let options = inst.grid().layers_in_direction(seg.dir).count() as u64;
            combos = combos.checked_mul(options.max(1))?;
            if combos > cap {
                return None;
            }
        }
    }
    Some(combos)
}

/// Exhaustively solves the layer assignment of the released nets.
///
/// Returns `None` when the enumeration would exceed `max_combos`
/// combinations. Ties on the optimal delay keep the first combination
/// in enumeration order, so the result is deterministic.
///
/// # Panics
///
/// Panics if an index in `released` is out of range.
pub fn solve(inst: &Instance, released: &[usize], max_combos: u64) -> Option<OracleOutcome> {
    let combos = enumeration_size(inst, released, max_combos)?;

    // Baseline overflow of the input assignment: the feasibility bound.
    let wire_bound = inst.grid().total_wire_overflow();
    let via_bound = inst.grid().total_via_overflow();

    let (mut grid, netlist, mut assignment) = inst.clone().into_parts();

    // Candidate layers per released segment, flattened in released-net
    // order; `slots[k] = (net, seg, candidates)`.
    let mut slots: Vec<(usize, usize, Vec<usize>)> = Vec::new();
    for &ni in released {
        let net = netlist.net(ni);
        for (si, seg) in net.tree().segments().iter().enumerate() {
            let candidates: Vec<usize> = grid.layers_in_direction(seg.dir).collect();
            if candidates.is_empty() {
                // A grid with both directions present always offers at
                // least one layer per segment; bail out rather than
                // enumerate an empty product.
                return None;
            }
            slots.push((ni, si, candidates));
        }
    }

    // Lift the released nets off the grid; each combination is applied
    // and removed around its evaluation so the tallies stay exact.
    for &ni in released {
        net::remove_net_from_grid(&mut grid, netlist.net(ni), assignment.net_layers(ni));
    }

    let mut odometer = vec![0usize; slots.len()];
    let mut best: Option<(f64, Vec<Vec<usize>>)> = None;
    let mut feasible = 0u64;
    let mut enumerated = 0u64;
    loop {
        enumerated += 1;
        // Apply the combination described by the odometer.
        for (k, &(ni, si, ref candidates)) in slots.iter().enumerate() {
            // invariant: odometer digits are always < candidates.len()
            // (they wrap in the increment step below).
            assignment.set_layer(ni, si, candidates[odometer[k]]);
        }
        for &ni in released {
            net::restore_net_to_grid(&mut grid, netlist.net(ni), assignment.net_layers(ni));
        }
        if grid.total_wire_overflow() <= wire_bound && grid.total_via_overflow() <= via_bound {
            feasible += 1;
            let avg = Metrics::measure(&grid, &netlist, &assignment, released).avg_tcp;
            let better = match &best {
                None => true,
                Some((b, _)) => avg.total_cmp(b).is_lt(),
            };
            if better {
                let layers = released
                    .iter()
                    .map(|&ni| assignment.net_layers(ni).to_vec())
                    .collect();
                best = Some((avg, layers));
            }
        }
        for &ni in released {
            net::remove_net_from_grid(&mut grid, netlist.net(ni), assignment.net_layers(ni));
        }

        // Increment the odometer (last slot fastest).
        let mut k = slots.len();
        loop {
            if k == 0 {
                // Every digit wrapped: enumeration complete.
                debug_assert_eq!(enumerated, combos);
                // The input assignment itself is one of the enumerated
                // combinations, and its overflow equals the bound.
                #[expect(clippy::expect_used, reason = "at least one combo is feasible")]
                let (best_avg_tcp, best_layers) =
                    best.expect("input assignment is always feasible");
                return Some(OracleOutcome {
                    best_avg_tcp,
                    best_layers,
                    combos,
                    feasible,
                });
            }
            k -= 1;
            odometer[k] += 1;
            if odometer[k] < slots[k].2.len() {
                break;
            }
            odometer[k] = 0;
        }
    }
}

/// Relative optimality gap of an engine result against the oracle
/// optimum (positive = engine is worse).
pub fn gap(engine_avg_tcp: f64, oracle_best: f64) -> f64 {
    (engine_avg_tcp - oracle_best) / oracle_best.max(1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{GridSpec, Workload};
    use grid::Cell;
    use net::{Net, Netlist, Pin, RouteTreeBuilder};
    use timing::NetTiming;

    /// A 4-layer grid (H layers 0/2, V layers 1/3) and one L-shaped
    /// 2-segment net — small enough to enumerate by hand.
    fn two_segment_workload() -> Workload {
        let grid_spec = GridSpec {
            width: 8,
            height: 8,
            tile: (10.0, 10.0),
            via_geometry: (1.0, 1.0),
            layers: GridSpec::standard_layers(4, 8),
            via_resistances: None,
            capacity_overrides: Vec::new(),
        };
        let src = Cell::new(1, 1);
        let bend = Cell::new(4, 1);
        let dst = Cell::new(4, 5);
        let mut b = RouteTreeBuilder::new(src);
        let mid = b.add_segment(b.root(), bend).unwrap();
        let end = b.add_segment(mid, dst).unwrap();
        b.attach_pin(b.root(), 0).unwrap();
        b.attach_pin(end, 1).unwrap();
        let net = Net::new(
            "n0",
            vec![Pin::source(src, 10.0), Pin::sink(dst, 2.0)],
            b.build().unwrap(),
        );
        let mut netlist = Netlist::new();
        netlist.push(net);
        let mut rng = prng::Rng::seed_from_u64(0);
        let params = crate::gen::GenParams::lattice(0, &mut rng);
        Workload {
            params,
            grid_spec,
            netlist,
            critical_ratio: 1.0,
        }
    }

    /// Hand-computed Elmore delay of the two-segment net for one layer
    /// pair, straight from Eqns. 2–3 of the paper: per-segment wire
    /// delay `R·(C/2 + C_d)`, via-stack delay `R_v · min(C_entry, C_d)`
    /// and the sink pin drop `R_v · C_pin`.
    fn hand_delay(grid: &grid::Grid, l0: usize, l1: usize) -> f64 {
        let (len0, len1, pin_cap) = (3.0, 4.0, 2.0);
        let (r0, c0) = (
            grid.layer(l0).unit_resistance * len0,
            grid.layer(l0).unit_capacitance * len0,
        );
        let (r1, c1) = (
            grid.layer(l1).unit_resistance * len1,
            grid.layer(l1).unit_capacitance * len1,
        );
        // Bottom-up downstream caps.
        let cd1 = pin_cap;
        let cd0 = c1 + cd1;
        let total = c0 + cd0;
        // Source via: pin layer 0 up to l0, driving min(total, cd0)=cd0.
        let d_src_via = grid.via_stack_resistance(0, l0) * total.min(cd0);
        let d_seg0 = r0 * (c0 / 2.0 + cd0);
        // Bend via between l0 and l1, driving min(cd0, cd1)=cd1.
        let (lo, hi) = (l0.min(l1), l0.max(l1));
        let d_bend_via = grid.via_stack_resistance(lo, hi) * cd0.min(cd1);
        let d_seg1 = r1 * (c1 / 2.0 + cd1);
        // Sink pin drop from l1 to layer 0.
        let d_drop = grid.via_stack_resistance(0, l1) * pin_cap;
        d_src_via + d_seg0 + d_bend_via + d_seg1 + d_drop
    }

    #[test]
    fn oracle_matches_hand_enumeration_on_two_by_two() {
        let w = two_segment_workload();
        let inst = w.instance().unwrap();
        let grid = w.grid_spec.build().unwrap();
        let outcome = solve(&inst, &[0], 1 << 20).unwrap();
        // Segment 0 is horizontal (layers 0/2), segment 1 vertical
        // (layers 1/3): exactly four combinations, all feasible (the
        // grid is uncongested).
        assert_eq!(outcome.combos, 4);
        assert_eq!(outcome.feasible, 4);
        let mut hand_best = f64::INFINITY;
        let mut hand_layers = Vec::new();
        for l0 in [0usize, 2] {
            for l1 in [1usize, 3] {
                let d = hand_delay(&grid, l0, l1);
                // Cross-check the hand formula against the model itself
                // before trusting it as the reference.
                let model =
                    NetTiming::compute(&grid, inst.netlist().net(0), &[l0, l1]).critical_delay();
                assert!(
                    (d - model).abs() < 1e-9,
                    "hand Elmore diverges at ({l0},{l1}): {d} vs {model}"
                );
                if d < hand_best {
                    hand_best = d;
                    hand_layers = vec![l0, l1];
                }
            }
        }
        assert!(
            (outcome.best_avg_tcp - hand_best).abs() < 1e-9,
            "oracle {} vs hand {}",
            outcome.best_avg_tcp,
            hand_best
        );
        assert_eq!(outcome.best_layers, vec![hand_layers]);
    }

    #[test]
    fn oracle_respects_the_combo_cap() {
        let w = two_segment_workload();
        let inst = w.instance().unwrap();
        assert_eq!(enumeration_size(&inst, &[0], 1000), Some(4));
        assert!(solve(&inst, &[0], 3).is_none());
        assert!(enumeration_size(&inst, &[0], 3).is_none());
    }

    #[test]
    fn oracle_never_beats_itself_on_rerun() {
        let w = two_segment_workload();
        let inst = w.instance().unwrap();
        let a = solve(&inst, &[0], 1 << 20).unwrap();
        let b = solve(&inst, &[0], 1 << 20).unwrap();
        assert_eq!(a, b, "oracle must be deterministic");
    }

    #[test]
    fn gap_is_relative_to_the_oracle() {
        assert!((gap(110.0, 100.0) - 0.1).abs() < 1e-12);
        assert!(gap(90.0, 100.0) < 0.0);
    }
}
