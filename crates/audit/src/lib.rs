//! The runtime invariant-audit gate.
//!
//! [`check_solution`] re-derives, from scratch, everything the flow
//! maintains incrementally and errors on the first disagreement:
//!
//! - **Eqn. (4b)** — one layer per segment, in range, direction-matched
//!   (delegates to `Assignment::validate`).
//! - **Eqn. (4c)** — the grid's per-edge wire-usage tallies equal a
//!   recount of every net's segment edges at its assigned layers, and
//!   the total wire-overflow figure matches.
//! - **Eqn. (4d)** — the grid's per-cell via-usage tallies equal a
//!   recount of every net's via stacks (a stack `lo..=hi` consumes
//!   capacity on the layers *strictly between* its endpoints), and the
//!   total via-overflow figure (the paper's `Vo`) matches.
//! - **`via#`** — the grid's running via count equals `Σ (hi − lo)`
//!   over the same stacks, single-hop ones included.
//! - **Timing** — an [`IncrementalTiming`] cache, deliberately churned
//!   through its `set_layer`/`revert`/`commit` paths, agrees with a
//!   from-scratch [`NetTiming`] recompute within [`ELMORE_TOLERANCE`].
//!
//! The recounts reuse exactly the accounting primitives the flow itself
//! uses (`RouteTree::segment_edges`, `Net::via_stacks`), so any drift
//! they expose is a genuine double-apply/missed-removal bug, not a
//! modelling difference. The checks are `O(netlist + grid)` per call —
//! cheap enough for a per-round gate on test workloads, which is why
//! `CplaConfig::audit_invariants` gates them rather than
//! `debug_assertions` alone.

// Lint policy: DESIGN.md §8. An exception is `#[expect(clippy::…, reason = "…")]` at its site.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::exit
)]
#![cfg_attr(not(test), warn(clippy::iter_over_hash_type))]

use flow::InvariantError;
use grid::Grid;
use net::{Assignment, Netlist};
use timing::{IncrementalTiming, NetTiming, TimingModel};

/// Maximum absolute disagreement tolerated between the incremental
/// timing cache and a from-scratch Elmore recompute.
pub const ELMORE_TOLERANCE: f64 = 1e-9;

/// Verifies the full solution state against the paper's feasibility
/// constraints and the incremental-timing contract.
///
/// # Errors
///
/// Returns the first [`InvariantError`] found; `Ok(())` means every
/// tally and cache agrees with its from-scratch recount.
pub fn check_solution(
    grid: &Grid,
    netlist: &Netlist,
    assignment: &Assignment,
) -> Result<(), InvariantError> {
    check_assignment(grid, netlist, assignment)?;
    check_wire_accounting(grid, netlist, assignment)?;
    check_via_accounting(grid, netlist, assignment)?;
    let model = TimingModel::from_grid(grid);
    for ni in 0..netlist.len() {
        check_net_timing(grid, netlist, assignment, &model, ni)?;
    }
    Ok(())
}

/// Eqn. (4b): shape, layer range and direction of every segment.
fn check_assignment(
    grid: &Grid,
    netlist: &Netlist,
    assignment: &Assignment,
) -> Result<(), InvariantError> {
    assignment
        .validate(netlist, grid)
        .map_err(|detail| InvariantError::Assignment { detail })
}

/// Eqn. (4c): per-edge wire usage and the total wire overflow.
fn check_wire_accounting(
    grid: &Grid,
    netlist: &Netlist,
    assignment: &Assignment,
) -> Result<(), InvariantError> {
    let mut recount: Vec<Vec<u32>> = (0..grid.num_layers())
        .map(|l| vec![0u32; grid.num_edges(grid.layer(l).direction)])
        .collect();
    for (ni, net) in netlist.nets().iter().enumerate() {
        let layers = assignment.net_layers(ni);
        for s in 0..net.tree().num_segments() {
            for e in net.tree().segment_edges(s) {
                recount[layers[s]][grid.edge_flat_index(e)] += 1;
            }
        }
    }
    let mut overflow = 0u64;
    for (l, counts) in recount.iter().enumerate() {
        let edges: Vec<_> = grid.edges_in_direction(grid.layer(l).direction).collect();
        for e in edges {
            let recorded = grid.edge_usage(l, e);
            let recounted = counts[grid.edge_flat_index(e)];
            if recorded != recounted {
                return Err(InvariantError::WireUsage {
                    layer: l,
                    edge: e.to_string(),
                    recorded,
                    recounted,
                });
            }
            overflow += recounted.saturating_sub(grid.edge_capacity(l, e)) as u64;
        }
    }
    let recorded = grid.total_wire_overflow();
    if recorded != overflow {
        return Err(InvariantError::WireOverflow {
            recorded,
            recounted: overflow,
        });
    }
    Ok(())
}

/// Eqn. (4d): per-cell via usage and the total via overflow (`Vo`),
/// then the running via count (`via#`).
fn check_via_accounting(
    grid: &Grid,
    netlist: &Netlist,
    assignment: &Assignment,
) -> Result<(), InvariantError> {
    let cells = grid.width() as usize * grid.height() as usize;
    let mut recount: Vec<Vec<u32>> = vec![vec![0u32; cells]; grid.num_layers()];
    let mut vias = 0u64;
    for (ni, net) in netlist.nets().iter().enumerate() {
        let layers = assignment.net_layers(ni);
        for (cell, lo, hi) in net.via_stacks(layers) {
            // A stack occupies the layers strictly between its
            // endpoints — the same accounting as `Grid::add_via_stack`.
            for counts in &mut recount[(lo + 1)..hi] {
                counts[grid.cell_flat_index(cell)] += 1;
            }
            vias += (hi - lo) as u64;
        }
    }
    let mut overflow = 0u64;
    for (l, counts) in recount.iter().enumerate() {
        let cs: Vec<_> = grid.cells().collect();
        for cell in cs {
            let recorded = grid.via_usage(cell, l);
            let recounted = counts[grid.cell_flat_index(cell)];
            if recorded != recounted {
                return Err(InvariantError::ViaUsage {
                    cell: cell.to_string(),
                    layer: l,
                    recorded,
                    recounted,
                });
            }
            overflow += recounted.saturating_sub(grid.via_capacity(cell, l)) as u64;
        }
    }
    let recorded = grid.total_via_overflow();
    if recorded != overflow {
        return Err(InvariantError::ViaOverflow {
            recorded,
            recounted: overflow,
        });
    }
    let recorded = grid.total_via_count();
    if recorded != vias {
        return Err(InvariantError::ViaCount {
            recorded,
            recounted: vias,
        });
    }
    Ok(())
}

/// Incremental-vs-full Elmore agreement for one net.
///
/// Builds an [`IncrementalTiming`] at the net's assigned layers, churns
/// every segment through `set_layer` → `revert` (exercising the dirty
/// propagation and rollback) and one `set_layer` → `commit` →
/// `set_layer`-back → `commit` round trip, then requires the cache to
/// agree with [`NetTiming::compute`] within [`ELMORE_TOLERANCE`].
fn check_net_timing(
    grid: &Grid,
    netlist: &Netlist,
    assignment: &Assignment,
    model: &TimingModel,
    ni: usize,
) -> Result<(), InvariantError> {
    let net = netlist.net(ni);
    let layers = assignment.net_layers(ni);
    let mut inc = IncrementalTiming::new(model, net, layers);
    // Churn: move every segment to another same-direction layer...
    for (s, seg) in net.tree().segments().iter().enumerate() {
        if let Some(alt) = grid.layers_in_direction(seg.dir).find(|&l| l != layers[s]) {
            inc.set_layer(s, alt);
        }
    }
    // ...and roll it all back: the cache must land exactly where it
    // started.
    inc.revert();
    // Commit round trip on the first movable segment.
    if let Some((s, alt)) = net
        .tree()
        .segments()
        .iter()
        .enumerate()
        .find_map(|(s, seg)| {
            grid.layers_in_direction(seg.dir)
                .find(|&l| l != layers[s])
                .map(|alt| (s, alt))
        })
    {
        inc.set_layer(s, alt);
        inc.commit();
        inc.set_layer(s, layers[s]);
        inc.commit();
    }
    let full = NetTiming::compute(grid, net, layers);
    let drift = |quantity: &'static str, cached: f64, recomputed: f64| {
        if (cached - recomputed).abs() <= ELMORE_TOLERANCE {
            Ok(())
        } else {
            Err(InvariantError::TimingDrift {
                net: ni,
                quantity,
                cached,
                recomputed,
            })
        }
    };
    drift(
        "critical delay",
        inc.critical_delay(),
        full.critical_delay(),
    )?;
    drift("total capacitance", inc.total_cap(), full.total_cap())?;
    for (s, &cap) in full.downstream_caps().iter().enumerate() {
        drift("downstream capacitance", inc.downstream_cap(s), cap)?;
    }
    let cached_sinks = inc.sink_delays();
    for (&(node, cached), &(node_full, recomputed)) in cached_sinks.iter().zip(full.sink_delays()) {
        // invariant: both enumerate the net's sinks in tree order.
        assert_eq!(node, node_full, "sink order diverged on net {ni}");
        drift("sink delay", cached, recomputed)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid::{Cell, Direction, GridBuilder};
    use net::{Net, Pin, RouteTreeBuilder};

    fn fixture() -> (Grid, Netlist) {
        let grid = GridBuilder::new(8, 8)
            .alternating_layers(4, Direction::Horizontal)
            .uniform_capacity(8)
            .build()
            .unwrap();
        let mut b = RouteTreeBuilder::new(Cell::new(1, 1));
        let c = b.add_segment(b.root(), Cell::new(4, 1)).unwrap();
        let e = b.add_segment(c, Cell::new(4, 5)).unwrap();
        b.attach_pin(b.root(), 0).unwrap();
        b.attach_pin(e, 1).unwrap();
        let net = Net::new(
            "n",
            vec![
                Pin::source(Cell::new(1, 1), 10.0),
                Pin::sink(Cell::new(4, 5), 1.0),
            ],
            b.build().unwrap(),
        );
        let mut nl = Netlist::new();
        nl.push(net);
        (grid, nl)
    }

    #[test]
    fn consistent_state_passes() {
        let (mut grid, nl) = fixture();
        let a = Assignment::lowest_layers(&nl, &grid);
        net::apply_to_grid(&mut grid, &nl, &a);
        check_solution(&grid, &nl, &a).unwrap();
    }

    #[test]
    fn missing_wire_tally_is_caught_as_4c() {
        let (mut grid, nl) = fixture();
        let a = Assignment::lowest_layers(&nl, &grid);
        net::apply_to_grid(&mut grid, &nl, &a);
        // Sabotage: drop one wire from the tallies without touching the
        // assignment — the classic missed-removal bug.
        let e = nl.net(0).tree().segment_edges(0)[0];
        grid.remove_wire(a.layer(0, 0), e);
        let err = check_solution(&grid, &nl, &a).unwrap_err();
        assert!(matches!(err, InvariantError::WireUsage { .. }), "{err}");
        assert!(err.to_string().contains("4c"), "{err}");
    }

    #[test]
    fn stale_via_tally_is_caught_as_4d() {
        let (mut grid, nl) = fixture();
        let a = Assignment::lowest_layers(&nl, &grid);
        net::apply_to_grid(&mut grid, &nl, &a);
        // Sabotage: a phantom tall via stack nobody owns.
        grid.add_via_stack(Cell::new(2, 2), 0, 3);
        let err = check_solution(&grid, &nl, &a).unwrap_err();
        assert!(matches!(err, InvariantError::ViaUsage { .. }), "{err}");
        assert!(err.to_string().contains("4d"), "{err}");
    }

    #[test]
    fn a_single_hop_via_nobody_owns_is_caught_by_the_via_count() {
        let (mut grid, nl) = fixture();
        let a = Assignment::lowest_layers(&nl, &grid);
        net::apply_to_grid(&mut grid, &nl, &a);
        let before = grid.snapshot_usage();
        // Sabotage: a one-hop via takes no via capacity, so the usage
        // tallies cannot see it; only the count does.
        grid.add_via_stack(Cell::new(2, 2), 1, 2);
        let err = check_solution(&grid, &nl, &a).unwrap_err();
        assert!(
            matches!(
                err,
                InvariantError::ViaCount {
                    recorded,
                    recounted
                } if recorded == recounted + 1
            ),
            "{err}"
        );
        assert!(err.to_string().contains("via#"), "{err}");
        grid.remove_via_stack(Cell::new(2, 2), 1, 2);
        assert_eq!(grid.snapshot_usage(), before);
        check_solution(&grid, &nl, &a).unwrap();
    }

    #[test]
    fn direction_mismatch_is_caught_as_4b() {
        let (mut grid, nl) = fixture();
        let mut a = Assignment::lowest_layers(&nl, &grid);
        net::apply_to_grid(&mut grid, &nl, &a);
        a.set_layer(0, 0, 1); // horizontal segment onto a vertical layer
        let err = check_solution(&grid, &nl, &a).unwrap_err();
        assert!(matches!(err, InvariantError::Assignment { .. }), "{err}");
    }

    #[test]
    fn timing_check_survives_layer_churn() {
        // Raise the net off the lowest layers so the churn has somewhere
        // to go in both directions.
        let (mut grid, nl) = fixture();
        let mut a = Assignment::lowest_layers(&nl, &grid);
        a.set_layer(0, 0, 2);
        a.set_layer(0, 1, 3);
        net::apply_to_grid(&mut grid, &nl, &a);
        check_solution(&grid, &nl, &a).unwrap();
    }
}
