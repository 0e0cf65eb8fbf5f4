//! The first-round partition programs the pin tests digest, and the
//! digest itself.

use cpla::problem::{PartitionProblem, ProblemConfig};
use ispd::SyntheticConfig;
use net::SegmentRef;
use route::{initial_assignment, route_netlist, RouterConfig};

/// The design: the in-memory stand-in for ISPD'08 `adaptec1`.
const DESIGN: &str = "adaptec1";
/// Released fraction: ten times the engine's default, so the pins cover
/// ~300 partitions instead of ~40.
const RATIO: f64 = 0.05;
/// Criticality exponent, K×K division and leaf bound of the engine's
/// defaults (`CplaConfig::default()`); the first round uses no offset.
const FOCUS: f64 = 4.0;
const DIVISIONS: usize = 4;
const LEAF_BOUND: usize = 10;

/// 64-bit FNV-1a over little-endian words.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn size(&mut self, v: usize) {
        self.word(v as u64);
    }
}

/// Every first-round partition program of the design, extracted with
/// the public API in partition order.
pub fn first_round_problems() -> Vec<PartitionProblem> {
    let config = SyntheticConfig::named(DESIGN).expect("a Table-2 design");
    let (mut grid, specs) = config.generate().expect("valid config");
    let netlist = route_netlist(&grid, &specs, &RouterConfig::default());
    let assignment = initial_assignment(&mut grid, &netlist);
    let released = cpla::select_critical_nets(&grid, &netlist, &assignment, RATIO);
    let ctx = cpla::timing_context(&grid, &netlist, &assignment, &released, FOCUS);
    let segments: Vec<SegmentRef> = released
        .iter()
        .flat_map(|&ni| {
            (0..netlist.net(ni).tree().num_segments())
                .map(move |s| SegmentRef::new(ni as u32, s as u32))
        })
        .collect();
    let (partitions, _) = cpla::partition::partition_segments(
        &netlist,
        &segments,
        grid.width(),
        grid.height(),
        DIVISIONS,
        LEAF_BOUND,
    );
    partitions
        .iter()
        .map(|part| {
            PartitionProblem::extract(
                &grid,
                &netlist,
                &assignment,
                &part.segments,
                &|r| ctx[&r],
                &ProblemConfig::default(),
            )
        })
        .collect()
}
