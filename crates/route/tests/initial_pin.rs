//! Pins the initial layer assignment (the reference-\[5\] per-net DP of
//! `route::initial_assignment`) on `newblue5`, `adaptec5` and the
//! `scale-100k` preset. Each design goes through the ISPD'08 round trip
//! (write → parse → `to_grid`) exactly as `cpla-cli optimize` reads it,
//! then through one `Router` with the default config, then through
//! `initial_assignment`. The digest covers every net's layer vector, so
//! any change to a DP cost, a tie broken between two layers, or the
//! order in which nets commit their usage moves it. The values were
//! recorded before the DP priced segments over edge runs.

use std::io::BufReader;

use ispd::SyntheticConfig;
use route::{initial_assignment, Router, RouterConfig};

/// What the pin compares.
#[derive(PartialEq, Debug)]
struct InitialSummary {
    layers_digest: u64,
    wire_overflow: u64,
    via_overflow: u64,
}

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

/// Round trip, route and initial assignment of one design; digests every
/// net's layer vector, in net order, and reads the grid's overflow
/// totals, which then carry the assignment's usage.
fn pinned(config: SyntheticConfig) -> InitialSummary {
    let design = config.design().expect("valid config");
    let mut file = Vec::new();
    ispd::write(&design, &mut file).expect("in-memory write");
    let parsed = ispd::parse(BufReader::new(file.as_slice())).expect("round trip parses");
    let mut grid = parsed.to_grid().expect("round trip builds a grid");
    let netlist = Router::new(&grid, &RouterConfig::default()).route_all(parsed.net_specs());
    let assignment = initial_assignment(&mut grid, &netlist);
    let mut fnv = Fnv::new();
    fnv.word(netlist.len() as u64);
    for i in 0..netlist.len() {
        let layers = assignment.net_layers(i);
        fnv.word(layers.len() as u64);
        for &l in layers {
            fnv.word(l as u64);
        }
    }
    InitialSummary {
        layers_digest: fnv.0,
        wire_overflow: grid.total_wire_overflow(),
        via_overflow: grid.total_via_overflow(),
    }
}

#[test]
fn newblue5_initial_assignment_is_pinned() {
    assert_eq!(
        pinned(SyntheticConfig::named("newblue5").expect("Table-2 design")),
        InitialSummary {
            layers_digest: 17_703_556_942_241_546_694,
            wire_overflow: 1_523,
            via_overflow: 0,
        }
    );
}

#[test]
fn adaptec5_initial_assignment_is_pinned() {
    assert_eq!(
        pinned(SyntheticConfig::named("adaptec5").expect("Table-2 design")),
        InitialSummary {
            layers_digest: 1_986_661_455_928_715_328,
            wire_overflow: 597,
            via_overflow: 0,
        }
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "routes and assigns 33,000 nets, slow unoptimized: run with --release"
)]
fn scale_100k_initial_assignment_is_pinned() {
    assert_eq!(
        pinned(SyntheticConfig::scale("scale-100k").expect("scale preset")),
        InitialSummary {
            layers_digest: 10_724_295_912_521_788_087,
            wire_overflow: 51_305,
            via_overflow: 0,
        }
    );
}
