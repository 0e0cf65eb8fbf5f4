//! Cross-crate property tests: randomized pipelines must uphold
//! structural and algorithmic invariants for every seed. Deterministic
//! seed sweeps; enable the off-by-default `proptest` feature to widen
//! the sampled ranges.

use ispd::SyntheticConfig;
use route::{initial_assignment, route_netlist, RouterConfig};

/// Cases per sweep (the cross-crate pipelines are comparatively slow,
/// so the default budget stays small).
fn sweep_cases() -> usize {
    if cfg!(feature = "proptest") {
        48
    } else {
        12
    }
}

/// Every generated benchmark routes into valid topologies and a
/// direction-consistent assignment, whatever the seed.
#[test]
fn random_benchmarks_route_validly() {
    let mut picker = prng::Rng::seed_from_u64(0xa11d);
    for _ in 0..sweep_cases() {
        let seed = picker.range_u64(0, 9_999);
        let mut config = SyntheticConfig::small(seed);
        config.num_nets = 150;
        let (mut grid, specs) = config.generate().expect("valid config");
        let netlist = route_netlist(&grid, &specs, &RouterConfig::default());
        assert!(netlist.validate(grid.width(), grid.height()).is_ok());
        let assignment = initial_assignment(&mut grid, &netlist);
        assert!(assignment.validate(&netlist, &grid).is_ok());
    }
}

/// Elmore timing is monotone in sink capacitance: enlarging one
/// sink's load can only increase delays on its path.
#[test]
fn timing_monotone_in_sink_load() {
    let mut picker = prng::Rng::seed_from_u64(0x7131);
    for _ in 0..sweep_cases() {
        let seed = picker.range_u64(0, 999);
        let mut config = SyntheticConfig::small(seed);
        config.num_nets = 30;
        let (mut grid, specs) = config.generate().expect("valid config");
        let netlist = route_netlist(&grid, &specs, &RouterConfig::default());
        let assignment = initial_assignment(&mut grid, &netlist);
        let before = timing::analyze(&grid, &netlist, &assignment);

        // Double every sink load of net 0.
        let mut heavier = netlist.clone();
        let net0 = heavier.net_mut(0);
        // Clone, modify pins via reconstruction.
        let mut pins = net0.pins().to_vec();
        for p in pins.iter_mut().skip(1) {
            p.capacitance *= 2.0;
        }
        let tree = net0.tree().clone();
        let name = net0.name().to_string();
        *net0 = net::Net::new(name, pins, tree);

        let after = timing::analyze(&grid, &heavier, &assignment);
        assert!(after.net(0).critical_delay() >= before.net(0).critical_delay() - 1e-9);
    }
}

/// Via counting matches between the per-net enumeration and the
/// grid-usage bookkeeping: applying then removing any net leaves
/// usage untouched.
#[test]
fn usage_roundtrip_every_net() {
    let mut picker = prng::Rng::seed_from_u64(0x05a6);
    for _ in 0..sweep_cases() {
        let seed = picker.range_u64(0, 999);
        let mut config = SyntheticConfig::small(seed);
        config.num_nets = 60;
        let (mut grid, specs) = config.generate().expect("valid config");
        let netlist = route_netlist(&grid, &specs, &RouterConfig::default());
        let assignment = initial_assignment(&mut grid, &netlist);
        let snapshot = grid.snapshot_usage();
        for i in 0..netlist.len() {
            net::remove_net_from_grid(&mut grid, netlist.net(i), assignment.net_layers(i));
            net::restore_net_to_grid(&mut grid, netlist.net(i), assignment.net_layers(i));
        }
        assert_eq!(grid.snapshot_usage(), snapshot);
    }
}

/// The critical-net selector returns exactly the requested fraction
/// (rounded, min 1) in criticality order.
#[test]
fn selector_counts_and_orders() {
    let mut picker = prng::Rng::seed_from_u64(0x5e1e);
    for _ in 0..sweep_cases() {
        let seed = picker.range_u64(0, 999);
        let pct = picker.range_u32(1, 49);
        let mut config = SyntheticConfig::small(seed);
        config.num_nets = 80;
        let (mut grid, specs) = config.generate().expect("valid config");
        let netlist = route_netlist(&grid, &specs, &RouterConfig::default());
        let assignment = initial_assignment(&mut grid, &netlist);
        let report = timing::analyze(&grid, &netlist, &assignment);
        let ratio = pct as f64 / 100.0;
        let selected = cpla::select_critical_nets(&grid, &netlist, &assignment, ratio);
        let expect = ((report.len() as f64 * ratio).round() as usize).max(1);
        assert_eq!(selected.len(), expect.min(report.len()));
        // Decreasing criticality.
        for w in selected.windows(2) {
            let a = report.net(w[0]).critical_delay();
            let b = report.net(w[1]).critical_delay();
            assert!(a >= b);
        }
    }
}
