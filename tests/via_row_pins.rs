//! Golden pins of TILA and Lagrange on a via-congested input.
//!
//! Both engines sweep their via-capacity multiplier rows (Eqn. (4d))
//! every round, and Lagrange's dual bound sums `λ·(via usage − via
//! capacity)` over every cell. The perfbench designs end with no via
//! overflow, so nothing there shows whether those rows stay
//! bit-identical. This fixture does: `SyntheticConfig::small(3)` at
//! wire capacity 3 (tile 40, `via_geometry(7.0, 7.0)`, as
//! `SyntheticConfig::generate` builds it), with every non-released net
//! lifted to the top layer of its direction, so via stacks crowd the
//! interior layers and the input starts with via overflow. The expected
//! values were recorded before the multiplier sweeps were rewritten as
//! row loops; TILA's layer digest, final objective and via overflow
//! were re-recorded when its incumbent pricing began to charge via
//! overflow as Lagrange's does (its round objectives did not move).

use flow::{RoundSnapshot, StageObserver};
use grid::Grid;
use ispd::SyntheticConfig;
use lagrange::{Lagrange, LagrangeConfig};
use net::{Assignment, Netlist};
use route::{initial_assignment, route_netlist, RouterConfig};
use tila::{Tila, TilaConfig};

/// 64-bit FNV-1a over a stream of `u64` words (little-endian bytes).
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Digests every round's objective bits, in round order.
#[derive(Default)]
struct RoundDigest {
    fnv: Option<Fnv>,
}

impl RoundDigest {
    fn value(&self) -> u64 {
        self.fnv.as_ref().map_or(0, |f| f.0)
    }
}

impl StageObserver for RoundDigest {
    fn on_round_end(&mut self, snapshot: &RoundSnapshot) {
        self.fnv
            .get_or_insert_with(Fnv::new)
            .word(snapshot.objective.to_bits());
    }
}

/// The via-congested input: grid, netlist, assignment and the released
/// (critical) nets.
fn fixture() -> (Grid, Netlist, Assignment, Vec<usize>) {
    let config = SyntheticConfig {
        capacity: 3,
        ..SyntheticConfig::small(3)
    };
    let (mut grid, specs) = config.generate().expect("valid config");
    let netlist = route_netlist(&grid, &specs, &RouterConfig::default());
    let mut assignment = initial_assignment(&mut grid, &netlist);
    let released = flow::select_critical_nets(&grid, &netlist, &assignment, 0.1);
    for i in (0..netlist.len()).filter(|i| !released.contains(i)) {
        let net = netlist.net(i);
        let lifted: Vec<usize> = assignment
            .net_layers(i)
            .iter()
            .map(|&l| {
                let dir = grid.layer(l).direction;
                grid.layers_in_direction(dir)
                    .last()
                    .expect("a layer per direction")
            })
            .collect();
        net::remove_net_from_grid(&mut grid, net, assignment.net_layers(i));
        net::restore_net_to_grid(&mut grid, net, &lifted);
        assignment.set_net_layers(i, lifted);
    }
    (grid, netlist, assignment, released)
}

/// Digest of every net's layer vector, in net order.
fn layer_digest(assignment: &Assignment, netlist: &Netlist) -> u64 {
    let mut fnv = Fnv::new();
    for i in 0..netlist.len() {
        let layers = assignment.net_layers(i);
        fnv.word(layers.len() as u64);
        for &l in layers {
            fnv.word(l as u64);
        }
    }
    fnv.0
}

struct TilaOutcome {
    layers: u64,
    final_objective: u64,
    rounds: u64,
    via_overflow: u64,
}

fn run_tila(via_weight: f64) -> TilaOutcome {
    let (mut grid, netlist, mut assignment, released) = fixture();
    let mut digest = RoundDigest::default();
    let result = Tila::new(TilaConfig {
        via_weight,
        ..TilaConfig::default()
    })
    .run_observed(
        &mut grid,
        &netlist,
        &mut assignment,
        &released,
        &mut [&mut digest],
    )
    .expect("fixture is well-formed");
    TilaOutcome {
        layers: layer_digest(&assignment, &netlist),
        final_objective: result.final_objective.to_bits(),
        rounds: digest.value(),
        via_overflow: grid.total_via_overflow(),
    }
}

struct LagrangeOutcome {
    layers: u64,
    final_objective: u64,
    best_dual: u64,
    final_dual: u64,
    feasible: bool,
    rounds: u64,
    via_overflow: u64,
}

fn run_lagrange(via_weight: f64) -> LagrangeOutcome {
    let (mut grid, netlist, mut assignment, released) = fixture();
    let mut digest = RoundDigest::default();
    let result = Lagrange::new(LagrangeConfig {
        via_weight,
        ..LagrangeConfig::default()
    })
    .run_observed(
        &mut grid,
        &netlist,
        &mut assignment,
        &released,
        &mut [&mut digest],
    )
    .expect("fixture is well-formed");
    LagrangeOutcome {
        layers: layer_digest(&assignment, &netlist),
        final_objective: result.final_objective.to_bits(),
        best_dual: result.best_dual_bound.to_bits(),
        final_dual: result.final_dual_bound.to_bits(),
        feasible: result.final_relaxation_feasible,
        rounds: digest.value(),
        via_overflow: grid.total_via_overflow(),
    }
}

#[test]
fn the_fixture_starts_via_congested() {
    let (grid, _, _, released) = fixture();
    assert_eq!(released.len(), 12);
    assert_eq!(grid.total_wire_overflow(), 0);
    assert!(grid.total_via_overflow() > 0, "the pins need via overflow");
    assert_eq!(grid.total_via_overflow(), 12);
}

#[test]
fn tila_on_a_via_congested_input_is_pinned() {
    let t = run_tila(1.0);
    assert_eq!(t.layers, 1_312_607_494_285_320_259, "layer digest");
    assert_eq!(
        t.final_objective,
        0x40b4_9ec0_bab9_c310,
        "final objective {}",
        f64::from_bits(t.final_objective)
    );
    assert_eq!(t.rounds, 10_154_488_486_793_920_992, "round objectives");
    // The incumbent pricing charges added via overflow, so TILA ends no
    // worse than the input's 12 units.
    assert_eq!(t.via_overflow, 12);
    // The via rows move the pinned rounds: without them they differ.
    assert_ne!(run_tila(0.0).rounds, t.rounds);
}

#[test]
fn lagrange_on_a_via_congested_input_is_pinned() {
    let l = run_lagrange(1.0);
    assert_eq!(l.layers, 1_312_607_494_285_320_259, "layer digest");
    assert_eq!(
        l.final_objective,
        0x40aa_ecf6_02a7_a746,
        "final objective {}",
        f64::from_bits(l.final_objective)
    );
    assert_eq!(
        l.best_dual,
        0x40b9_980e_671a_c4a1,
        "best dual bound {}",
        f64::from_bits(l.best_dual)
    );
    assert_eq!(
        l.final_dual,
        0x40b9_ff2b_3220_2520,
        "final dual bound {}",
        f64::from_bits(l.final_dual)
    );
    assert!(!l.feasible, "charged feasibility");
    assert_eq!(l.rounds, 505_090_765_974_760_461, "round objectives");
    assert_eq!(l.via_overflow, 12);
    // The via rows move the pinned outputs: without them they differ.
    let unpriced = run_lagrange(0.0);
    assert_ne!(unpriced.layers, l.layers);
    assert_ne!(unpriced.rounds, l.rounds);
}
