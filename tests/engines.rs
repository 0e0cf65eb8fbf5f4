//! Engine-level integration tests: TILA vs CPLA from identical starting
//! states, relaxation-vs-exact consistency, and solver interchange.

use cpla::problem::{PartitionProblem, ProblemConfig};
use cpla::{Cpla, CplaConfig, Metrics, SolverKind};
use ispd::SyntheticConfig;
use net::SegmentRef;
use route::{initial_assignment, route_netlist, RouterConfig};
use tila::{Tila, TilaConfig};

struct Fixture {
    grid: grid::Grid,
    netlist: net::Netlist,
    assignment: net::Assignment,
    released: Vec<usize>,
}

fn fixture(seed: u64) -> Fixture {
    let mut config = SyntheticConfig::small(seed);
    config.num_nets = 400;
    config.capacity = 4;
    let (mut grid, specs) = config.generate().expect("valid config");
    let netlist = route_netlist(&grid, &specs, &RouterConfig::default());
    let assignment = initial_assignment(&mut grid, &netlist);
    let released = cpla::select_critical_nets(&grid, &netlist, &assignment, 0.05);
    Fixture {
        grid,
        netlist,
        assignment,
        released,
    }
}

#[test]
fn both_engines_improve_over_initial() {
    let f = fixture(21);
    let initial = Metrics::measure(&f.grid, &f.netlist, &f.assignment, &f.released);

    let mut tila_grid = f.grid.clone();
    let mut tila_a = f.assignment.clone();
    Tila::new(TilaConfig::default())
        .run(&mut tila_grid, &f.netlist, &mut tila_a, &f.released)
        .expect("fixture is well-formed");
    let tila_m = Metrics::measure(&tila_grid, &f.netlist, &tila_a, &f.released);

    let mut cpla_grid = f.grid.clone();
    let mut cpla_a = f.assignment.clone();
    Cpla::new(CplaConfig::default())
        .run_released(&mut cpla_grid, &f.netlist, &mut cpla_a, &f.released)
        .expect("fixture is well-formed");
    let cpla_m = Metrics::measure(&cpla_grid, &f.netlist, &cpla_a, &f.released);

    assert!(tila_m.avg_tcp < initial.avg_tcp, "TILA must improve");
    assert!(cpla_m.avg_tcp < initial.avg_tcp, "CPLA must improve");
    // The critical-path-focused objective must not lose to the
    // sum-delay baseline by more than noise on the released average.
    assert!(
        cpla_m.avg_tcp <= tila_m.avg_tcp * 1.05,
        "CPLA {} vs TILA {}",
        cpla_m.avg_tcp,
        tila_m.avg_tcp
    );
}

#[test]
fn sdp_and_ilp_modes_land_close() {
    let f = fixture(22);
    let run = |solver: SolverKind| {
        let mut grid = f.grid.clone();
        let mut a = f.assignment.clone();
        Cpla::new(CplaConfig {
            solver,
            ..CplaConfig::default()
        })
        .run_released(&mut grid, &f.netlist, &mut a, &f.released)
        .expect("fixture is well-formed");
        Metrics::measure(&grid, &f.netlist, &a, &f.released)
    };
    let sdp = run(CplaConfig::default().solver);
    let ilp = run(SolverKind::Ilp {
        node_budget: 1_000_000,
    });
    // Fig. 7's claim: the relaxation matches the exact solver closely.
    let ratio = sdp.avg_tcp / ilp.avg_tcp;
    assert!(
        (0.85..=1.15).contains(&ratio),
        "SDP {} vs ILP {} (ratio {ratio})",
        sdp.avg_tcp,
        ilp.avg_tcp
    );
}

#[test]
fn sdp_relaxation_lower_bounds_partition_ilp_on_real_problems() {
    // Extract actual partition problems from a real benchmark state and
    // verify the relaxation bound on each.
    let f = fixture(23);
    let ctx = cpla::timing_context(&f.grid, &f.netlist, &f.assignment, &f.released, 4.0);
    let segments: Vec<SegmentRef> = f
        .released
        .iter()
        .flat_map(|&ni| {
            (0..f.netlist.net(ni).tree().num_segments())
                .map(move |s| SegmentRef::new(ni as u32, s as u32))
        })
        .collect();
    let (partitions, _) = cpla::partition::partition_segments(
        &f.netlist,
        &segments,
        f.grid.width(),
        f.grid.height(),
        4,
        8,
    );
    let mut checked = 0;
    for part in partitions.iter().take(6) {
        let problem = PartitionProblem::extract(
            &f.grid,
            &f.netlist,
            &f.assignment,
            &part.segments,
            &|r| ctx[&r],
            &ProblemConfig::default(),
        );
        let Some(ilp) = problem.to_choice_problem().solve(2_000_000) else {
            continue;
        };
        if !ilp.optimal {
            continue;
        }
        let (sdp, _) = problem.to_sdp();
        let sol = solver::SdpSolver::default().solve(&sdp);
        assert!(
            sol.objective <= ilp.objective * 1.05 + 1e-6,
            "partition relaxation {} above exact optimum {}",
            sol.objective,
            ilp.objective
        );
        checked += 1;
    }
    assert!(checked >= 3, "too few partitions verified ({checked})");
}

#[test]
fn engines_preserve_non_released_usage() {
    let f = fixture(24);
    let mut grid = f.grid.clone();
    let mut a = f.assignment.clone();
    Tila::new(TilaConfig::default())
        .run(&mut grid, &f.netlist, &mut a, &f.released)
        .expect("fixture is well-formed");
    // Removing every net must drain usage to exactly zero — catches
    // leaked or double-counted wires/vias.
    for i in 0..f.netlist.len() {
        net::remove_net_from_grid(&mut grid, f.netlist.net(i), a.net_layers(i));
    }
    assert_eq!(grid.total_wire_overflow(), 0);
    for l in 0..grid.num_layers() {
        let dir = grid.layer(l).direction;
        for e in grid.edges_in_direction(dir) {
            assert_eq!(grid.edge_usage(l, e), 0, "left-over wire on {e}");
        }
        for c in grid.cells() {
            assert_eq!(grid.via_usage(c, l), 0, "left-over via at {c}");
        }
    }
}

#[test]
fn higher_critical_ratio_releases_more_nets() {
    let f = fixture(25);
    let small = cpla::select_critical_nets(&f.grid, &f.netlist, &f.assignment, 0.01);
    let large = cpla::select_critical_nets(&f.grid, &f.netlist, &f.assignment, 0.05);
    assert!(large.len() > small.len());
    // The small set is a prefix of the large one (same criticality
    // order).
    assert_eq!(&large[..small.len()], small.as_slice());
}
