//! Pins the routed netlist and the initial layer assignment on all 15
//! Table-2 designs. Each design goes through the ISPD'08 round trip
//! (write → parse → `to_grid`) exactly as `cpla-cli optimize` reads it,
//! then through one `Router` with the default config, then through
//! `route::initial_assignment`. The digest covers, net by net, every
//! node's cell, parent, parent segment and pin, every node's child
//! segments in order, every segment's ends and direction, and the
//! net's initial layers: any change to a route, to the tree layout the
//! downstream walks follow, or to a layer choice moves it. The values
//! were recorded with the seven-`Vec` route tree and the allocating
//! pattern scorer, before the three-block tree layout.

use std::io::BufReader;

use grid::Direction;
use ispd::SyntheticConfig;
use route::{initial_assignment, Router, RouterConfig};

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

/// `None` as a digest word.
const NONE: u64 = u64::MAX;

/// Round trip, route and initial assignment of one design, digested.
fn digest(config: SyntheticConfig) -> u64 {
    let design = config.design().expect("valid config");
    let mut file = Vec::new();
    ispd::write(&design, &mut file).expect("in-memory write");
    let parsed = ispd::parse(BufReader::new(file.as_slice())).expect("round trip parses");
    let mut grid = parsed.to_grid().expect("round trip builds a grid");
    let netlist = Router::new(&grid, &RouterConfig::default()).route_all(parsed.net_specs());
    let assignment = initial_assignment(&mut grid, &netlist);
    let mut fnv = Fnv::new();
    fnv.word(netlist.len() as u64);
    for (i, net) in netlist.nets().iter().enumerate() {
        let tree = net.tree();
        fnv.word(tree.num_nodes() as u64);
        for (n, node) in tree.nodes().enumerate() {
            fnv.word(u64::from(node.cell.x) << 16 | u64::from(node.cell.y));
            for link in [node.parent, node.parent_segment, node.pin] {
                fnv.word(link.map_or(NONE, u64::from));
            }
            let children = tree.child_segments(n);
            fnv.word(children.len() as u64);
            for &c in children {
                fnv.word(u64::from(c));
            }
        }
        fnv.word(tree.num_segments() as u64);
        for seg in tree.segments() {
            fnv.word(u64::from(seg.from));
            fnv.word(u64::from(seg.to));
            fnv.word(u64::from(seg.dir == Direction::Vertical));
        }
        for &l in assignment.net_layers(i) {
            fnv.word(l as u64);
        }
    }
    fnv.word(grid.total_wire_overflow());
    fnv.word(grid.total_via_overflow());
    fnv.0
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "routes and assigns 125,000 nets, slow unoptimized: run with --release"
)]
fn table2_suite_routes_and_initial_layers_are_pinned() {
    let expected: [(&str, u64); 15] = [
        ("adaptec1", 11_929_008_572_448_384_148),
        ("adaptec2", 16_946_525_771_227_519_583),
        ("adaptec3", 3_886_223_673_425_739_409),
        ("adaptec4", 12_808_660_692_623_228_467),
        ("adaptec5", 6_152_316_637_948_081_943),
        ("bigblue1", 16_149_088_999_435_961_022),
        ("bigblue2", 6_396_526_165_328_528_593),
        ("bigblue3", 2_320_856_328_683_797_352),
        ("bigblue4", 2_316_044_695_720_524_512),
        ("newblue1", 12_450_512_871_924_212_834),
        ("newblue2", 15_226_019_750_591_770_995),
        ("newblue4", 5_656_157_820_086_354_875),
        ("newblue5", 1_287_673_868_728_663_090),
        ("newblue6", 127_620_773_336_181_571),
        ("newblue7", 14_128_323_182_944_859_628),
    ];
    let configs = SyntheticConfig::all_paper_benchmarks();
    assert_eq!(configs.len(), expected.len());
    let got: Vec<(String, u64)> = configs
        .into_iter()
        .map(|c| (c.name.clone(), digest(c)))
        .collect();
    let want: Vec<(String, u64)> = expected
        .iter()
        .map(|&(name, d)| (name.to_string(), d))
        .collect();
    assert_eq!(got, want);
}
