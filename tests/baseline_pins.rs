//! Golden pins of the three baselines — TILA, Lagrange and Greedy — run
//! end to end through `LayerAssigner::assign`, the way the benchmark's
//! `baselines` workload runs them: each engine at its defaults with
//! critical ratio 0.005, on a design that went through the CLI path
//! (`ispd::write` → `ispd::parse` → `to_grid` → route → initial
//! assignment).
//!
//! One digest per engine covers the whole run: the released indices in
//! order, every net's final layer vector, the bits of the report's
//! initial and final metrics, and the round count. So the critical-net
//! selection each engine performs, its per-net DP, the legalizer and
//! the incumbent choice are all pinned, not only the rounds on a given
//! released set. The values were recorded before the selection moved
//! to one per-net pass and the engines' per-net work stopped
//! allocating.

use std::io::BufReader;

use flow::{FlowReport, Greedy, GreedyConfig, LayerAssigner, Metrics};
use grid::Grid;
use ispd::SyntheticConfig;
use lagrange::{Lagrange, LagrangeConfig};
use net::{Assignment, Netlist};
use route::{initial_assignment, route_netlist, RouterConfig};
use tila::{Tila, TilaConfig};

/// The benchmark's critical ratio (the CLI default).
const RATIO: f64 = 0.005;

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

    fn metrics(&mut self, m: &Metrics) {
        self.word(m.avg_tcp.to_bits());
        self.word(m.max_tcp.to_bits());
        self.word(m.via_overflow);
        self.word(m.via_count);
    }
}

/// The state every engine starts from, as `cpla-cli optimize` builds it.
fn prepared(name: &str) -> (Grid, Netlist, Assignment) {
    let config = SyntheticConfig::named(name).expect("a Table-2 design");
    let design = config.design().expect("valid config");
    let mut file = Vec::new();
    ispd::write(&design, &mut file).expect("in-memory write");
    let parsed = ispd::parse(BufReader::new(file.as_slice())).expect("round trip parses");
    let mut grid = parsed.to_grid().expect("round trip builds a grid");
    let netlist = route_netlist(&grid, &parsed.nets, &RouterConfig::default());
    let assignment = initial_assignment(&mut grid, &netlist);
    (grid, netlist, assignment)
}

/// The three engines, built as the benchmark builds them.
fn engines() -> [Box<dyn LayerAssigner>; 3] {
    [
        Box::new(Tila::new(TilaConfig {
            critical_ratio: RATIO,
            ..TilaConfig::default()
        })),
        Box::new(Lagrange::new(LagrangeConfig {
            critical_ratio: RATIO,
            ..LagrangeConfig::default()
        })),
        Box::new(Greedy::new(GreedyConfig {
            critical_ratio: RATIO,
        })),
    ]
}

/// Digest of one engine's run.
fn digest(report: &FlowReport, netlist: &Netlist, assignment: &Assignment) -> u64 {
    let mut fnv = Fnv::new();
    fnv.word(report.released.len() as u64);
    for &i in &report.released {
        fnv.word(i as u64);
    }
    for i in 0..netlist.len() {
        let layers = assignment.net_layers(i);
        fnv.word(layers.len() as u64);
        for &l in layers {
            fnv.word(l as u64);
        }
    }
    fnv.metrics(&report.initial_metrics);
    fnv.metrics(&report.final_metrics);
    fnv.word(report.rounds as u64);
    fnv.0
}

/// `(engine name, digest)` for each engine, each run on its own copy of
/// the prepared design.
fn pinned(name: &str) -> Vec<(&'static str, u64)> {
    let (grid, netlist, assignment) = prepared(name);
    engines()
        .iter()
        .map(|engine| {
            let (mut grid, mut assignment) = (grid.clone(), assignment.clone());
            let report = engine
                .assign(&mut grid, &netlist, &mut assignment)
                .expect("a prepared design assigns");
            (engine.name(), digest(&report, &netlist, &assignment))
        })
        .collect()
}

#[test]
fn adaptec1_baselines_are_pinned() {
    assert_eq!(
        pinned("adaptec1"),
        vec![
            ("tila", 6_892_602_007_804_671_541),
            ("lagrange", 10_870_078_017_778_158_744),
            ("greedy", 2_670_404_975_208_290_499),
        ]
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "routes and assigns a large Table-2 design, slow unoptimized: run with --release"
)]
fn newblue5_baselines_are_pinned() {
    assert_eq!(
        pinned("newblue5"),
        vec![
            ("tila", 14_830_923_818_954_811_893),
            ("lagrange", 10_366_293_005_019_633_075),
            ("greedy", 15_926_156_674_721_381_421),
        ]
    );
}
