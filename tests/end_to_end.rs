//! End-to-end pipeline integration tests: generator → router → initial
//! assignment → timing → CPLA, checking cross-crate invariants that no
//! single crate can verify alone.

use cpla::{Cpla, CplaConfig};
use ispd::SyntheticConfig;
use net::{Assignment, Netlist};
use route::{initial_assignment, route_netlist, RouterConfig};

fn pipeline(seed: u64) -> (grid::Grid, Netlist, Assignment) {
    let config = SyntheticConfig::small(seed);
    let (mut grid, specs) = config.generate().expect("valid config");
    let netlist = route_netlist(&grid, &specs, &RouterConfig::default());
    let assignment = initial_assignment(&mut grid, &netlist);
    (grid, netlist, assignment)
}

/// Rebuilds grid usage from scratch and compares with the incrementally
/// maintained state.
fn assert_usage_consistent(grid: &grid::Grid, netlist: &Netlist, assignment: &Assignment) {
    let mut fresh = grid.clone();
    for i in 0..netlist.len() {
        net::remove_net_from_grid(&mut fresh, netlist.net(i), assignment.net_layers(i));
    }
    for i in 0..netlist.len() {
        net::restore_net_to_grid(&mut fresh, netlist.net(i), assignment.net_layers(i));
    }
    assert_eq!(&fresh, grid, "incremental usage diverged from ground truth");
}

#[test]
fn routed_topologies_are_structurally_valid() {
    let (grid, netlist, assignment) = pipeline(11);
    netlist.validate(grid.width(), grid.height()).unwrap();
    assignment.validate(&netlist, &grid).unwrap();
    assert!(netlist.len() > 50, "generator must produce routable nets");
}

#[test]
fn initial_assignment_usage_matches_ground_truth() {
    let (grid, netlist, assignment) = pipeline(12);
    assert_usage_consistent(&grid, &netlist, &assignment);
}

#[test]
fn cpla_improves_and_stays_consistent() {
    let (mut grid, netlist, mut assignment) = pipeline(13);
    let report = Cpla::new(CplaConfig {
        critical_ratio: 0.05,
        ..CplaConfig::default()
    })
    .run(&mut grid, &netlist, &mut assignment)
    .expect("pipeline fixture is well-formed");
    assert!(
        report.final_metrics.avg_tcp <= report.initial_metrics.avg_tcp,
        "CPLA must never regress the released average"
    );
    assert!(!report.released.is_empty());
    assignment.validate(&netlist, &grid).unwrap();
    assert_usage_consistent(&grid, &netlist, &assignment);
}

#[test]
fn cpla_only_touches_released_nets() {
    let (mut grid, netlist, mut assignment) = pipeline(14);
    let released = cpla::select_critical_nets(&grid, &netlist, &assignment, 0.03);
    let untouched: Vec<usize> = (0..netlist.len())
        .filter(|i| !released.contains(i))
        .collect();
    let before: Vec<Vec<usize>> = untouched
        .iter()
        .map(|&i| assignment.net_layers(i).to_vec())
        .collect();
    Cpla::new(CplaConfig::default())
        .run_released(&mut grid, &netlist, &mut assignment, &released)
        .expect("pipeline fixture is well-formed");
    for (k, &i) in untouched.iter().enumerate() {
        assert_eq!(
            assignment.net_layers(i),
            before[k].as_slice(),
            "non-released net {i} was modified"
        );
    }
}

#[test]
fn full_pipeline_is_deterministic() {
    let run = |seed| {
        let (mut grid, netlist, mut assignment) = pipeline(seed);
        Cpla::new(CplaConfig {
            critical_ratio: 0.05,
            ..CplaConfig::default()
        })
        .run(&mut grid, &netlist, &mut assignment)
        .expect("pipeline fixture is well-formed");
        (grid, assignment)
    };
    let (g1, a1) = run(15);
    let (g2, a2) = run(15);
    assert_eq!(a1, a2);
    assert_eq!(g1, g2);
}

#[test]
fn timing_is_invariant_under_usage_rebuild() {
    // Timing depends only on netlist + assignment, never on usage
    // tallies; rebuilding usage must not change any delay.
    let (grid, netlist, assignment) = pipeline(16);
    let before = timing::analyze(&grid, &netlist, &assignment);
    let mut rebuilt = grid.clone();
    for i in 0..netlist.len() {
        net::remove_net_from_grid(&mut rebuilt, netlist.net(i), assignment.net_layers(i));
        net::restore_net_to_grid(&mut rebuilt, netlist.net(i), assignment.net_layers(i));
    }
    let after = timing::analyze(&rebuilt, &netlist, &assignment);
    assert_eq!(before, after);
}
