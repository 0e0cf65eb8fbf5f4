//! Pins the router's output on `newblue5`, the Table-2 design that
//! leans on the maze fallback hardest (404 maze searches), on
//! `adaptec5` (176), and on the `scale-100k` preset (5,519). Each design
//! goes through the ISPD'08 round trip (write → parse → `to_grid`)
//! exactly as `cpla-cli optimize` reads it, then through one `Router`
//! with the default config. Any change to a route — a different tie
//! broken in the maze, a different pattern picked, a different cost —
//! moves the digest. The values were recorded with a plain Dijkstra
//! maze search, before the goal-side wall bound.

use std::collections::HashMap;
use std::io::BufReader;

use grid::{Edge2d, Grid};
use ispd::SyntheticConfig;
use net::Netlist;
use route::{Router, RouterConfig, RouterStats};

/// What the pin compares.
#[derive(PartialEq, Debug)]
struct RouteSummary {
    segments: usize,
    wirelength: u64,
    total_overflow: u64,
    digest: u64,
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

fn route_design(config: SyntheticConfig) -> (Grid, Netlist, RouterStats) {
    let design = config.design().expect("valid config");
    let mut file = Vec::new();
    ispd::write(&design, &mut file).expect("in-memory write");
    let parsed = ispd::parse(BufReader::new(file.as_slice())).expect("round trip parses");
    let grid = parsed.to_grid().expect("round trip builds a grid");
    let mut router = Router::new(&grid, &RouterConfig::default());
    let netlist = router.route_all(parsed.net_specs());
    let stats = router.stats();
    (grid, netlist, stats)
}

/// Counts, wirelength, 2-D overflow against the projected capacities,
/// and a digest of every net's node cells and segment end cells.
fn summarize(grid: &Grid, netlist: &Netlist) -> RouteSummary {
    let mut usage: HashMap<Edge2d, u32> = HashMap::new();
    let mut fnv = Fnv::new();
    let mut segments = 0;
    let mut wirelength = 0;
    fnv.word(netlist.len() as u64);
    for net in netlist.nets() {
        let tree = net.tree();
        segments += tree.num_segments();
        wirelength += tree.wirelength();
        fnv.word(tree.num_nodes() as u64);
        for node in tree.nodes() {
            fnv.word(u64::from(node.cell.x) << 16 | u64::from(node.cell.y));
        }
        fnv.word(tree.num_segments() as u64);
        for (s, seg) in tree.segments().iter().enumerate() {
            for end in [seg.from, seg.to] {
                let cell = tree.node(end as usize).cell;
                fnv.word(u64::from(cell.x) << 16 | u64::from(cell.y));
            }
            for e in tree.segment_edges(s) {
                *usage.entry(e).or_default() += 1;
            }
        }
    }
    let total_overflow = usage
        .iter()
        .map(|(&e, &u)| u64::from(u.saturating_sub(grid.projected_capacity(e))))
        .sum();
    RouteSummary {
        segments,
        wirelength,
        total_overflow,
        digest: fnv.0,
    }
}

#[test]
fn newblue5_routes_are_pinned() {
    let (grid, netlist, _) =
        route_design(SyntheticConfig::named("newblue5").expect("Table-2 design"));
    assert_eq!(
        summarize(&grid, &netlist),
        RouteSummary {
            segments: 38_176,
            wirelength: 165_257,
            total_overflow: 702,
            digest: 16_531_829_043_633_610_051,
        }
    );
}

#[test]
fn adaptec5_routes_are_pinned() {
    let (grid, netlist, _) =
        route_design(SyntheticConfig::named("adaptec5").expect("Table-2 design"));
    assert_eq!(
        summarize(&grid, &netlist),
        RouteSummary {
            segments: 29_146,
            wirelength: 110_392,
            total_overflow: 224,
            digest: 3_051_110_551_910_038_289,
        }
    );
}

/// The routes, and the maze work that found them: a bound that stops
/// pruning leaves the routes alone but moves `cells_settled`.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "routes 33,000 nets, ~13 s unoptimized: run with --release"
)]
fn scale_100k_routes_are_pinned() {
    let (grid, netlist, stats) =
        route_design(SyntheticConfig::scale("scale-100k").expect("scale preset"));
    assert_eq!(
        summarize(&grid, &netlist),
        RouteSummary {
            segments: 134_468,
            wirelength: 662_253,
            total_overflow: 49_736,
            digest: 8_306_801_367_854_778_856,
        }
    );
    assert_eq!(
        stats,
        RouterStats {
            maze_searches: 5_519,
            maze_paths_kept: 4_070,
            cells_settled: 5_344_343,
            cells_labelled: 26_104_301,
        }
    );
}
