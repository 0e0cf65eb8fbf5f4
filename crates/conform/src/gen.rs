//! Seeded workload generation across a parameter lattice.
//!
//! [`GenParams::lattice`] walks trial indices through every combination
//! of layer-stack depth (2–8), tight vs. loose capacities and the
//! degenerate corners the paper's pipeline must survive (single-segment
//! nets, a zero-capacity layer, all nets critical, via-stack-dominated
//! paths). [`generate`] turns the parameters plus a [`Rng`] stream into
//! a [`Workload`]: a reproducible grid recipe + routed netlist that can
//! be instantiated as a [`flow::Instance`] any number of times. Every
//! workload is valid by construction — the instance constructor
//! re-checks all structural contracts.

use flow::{FlowError, Instance};
use grid::{Cell, Direction, Edge2d, Grid, GridBuilder, Layer};
use net::{Assignment, Net, Netlist, Pin, RouteTreeBuilder};
use prng::Rng;

/// The degenerate corner (if any) a trial stresses.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Degenerate {
    /// Plain lattice point, no special structure.
    None,
    /// Every net is one straight segment.
    SingleSegment,
    /// One routing layer has zero capacity on every edge.
    ZeroCapacityLayer,
    /// `critical_ratio = 1`: the engines release every net.
    AllCritical,
    /// Unit-length segments: delay is dominated by pin/via stacks.
    ViaStackOnly,
}

impl Degenerate {
    /// Short lattice label for diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            Degenerate::None => "plain",
            Degenerate::SingleSegment => "single-segment",
            Degenerate::ZeroCapacityLayer => "zero-cap-layer",
            Degenerate::AllCritical => "all-critical",
            Degenerate::ViaStackOnly => "via-stack-only",
        }
    }
}

/// One point of the generator's parameter lattice.
#[derive(Clone, PartialEq, Debug)]
pub struct GenParams {
    /// Trial index the point was derived from.
    pub trial: u64,
    /// Metal layers in the stack (2–8).
    pub layers: usize,
    /// Grid width in tiles.
    pub width: u16,
    /// Grid height in tiles.
    pub height: u16,
    /// Number of nets to generate.
    pub num_nets: usize,
    /// Base edge capacity (tight: 1–2, loose: 6–10).
    pub capacity: u32,
    /// Degenerate corner this trial stresses.
    pub degenerate: Degenerate,
    /// Fraction of nets the engines will release.
    pub critical_ratio: f64,
    /// Whether the trial targets the brute-force oracle (small enough
    /// to enumerate every assignment).
    pub oracle_sized: bool,
}

impl GenParams {
    /// Derives the lattice point for `trial`, drawing sizes from `rng`.
    ///
    /// Even trials are oracle-sized (a handful of nets, every net
    /// released); odd trials are larger metamorphic-property targets.
    /// Layer count, capacity tightness and the degenerate corner cycle
    /// on coprime periods so a modest trial budget covers the whole
    /// lattice.
    pub fn lattice(trial: u64, rng: &mut Rng) -> GenParams {
        let layers = 2 + (trial % 7) as usize;
        let tight = trial.is_multiple_of(3);
        let degenerate = match trial % 5 {
            0 => Degenerate::None,
            1 => Degenerate::SingleSegment,
            2 => Degenerate::ZeroCapacityLayer,
            3 => Degenerate::AllCritical,
            _ => Degenerate::ViaStackOnly,
        };
        let oracle_sized = trial.is_multiple_of(2);
        let (width, height, num_nets) = if oracle_sized {
            (
                rng.range_u16(6, 10),
                rng.range_u16(6, 10),
                rng.range_usize(2, 4),
            )
        } else {
            (
                rng.range_u16(10, 16),
                rng.range_u16(10, 16),
                rng.range_usize(8, 18),
            )
        };
        let capacity = if tight {
            rng.range_u32(1, 2)
        } else {
            rng.range_u32(6, 10)
        };
        let critical_ratio = if oracle_sized || degenerate == Degenerate::AllCritical {
            1.0
        } else {
            [0.25, 0.5, 1.0][rng.range_usize(0, 2)]
        };
        GenParams {
            trial,
            layers,
            width,
            height,
            num_nets,
            capacity,
            degenerate,
            critical_ratio,
            oracle_sized,
        }
    }

    /// One-line lattice description for diagnostics.
    pub fn describe(&self) -> String {
        format!(
            "layers={} grid={}x{} nets={} cap={} ratio={} case={}{}",
            self.layers,
            self.width,
            self.height,
            self.num_nets,
            self.capacity,
            self.critical_ratio,
            self.degenerate.label(),
            if self.oracle_sized { " oracle" } else { "" },
        )
    }
}

/// Electrical and geometric recipe for one layer of a [`GridSpec`].
#[derive(Clone, PartialEq, Debug)]
pub struct LayerSpec {
    /// Layer name.
    pub name: String,
    /// Routing direction.
    pub dir: Direction,
    /// Wire resistance per tile.
    pub resistance: f64,
    /// Wire capacitance per tile.
    pub capacitance: f64,
    /// Drawn wire width.
    pub wire_width: f64,
    /// Minimum wire spacing.
    pub wire_spacing: f64,
    /// Default edge capacity.
    pub capacity: u32,
}

/// A single-edge capacity override applied after grid construction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CapOverride {
    /// Layer the override applies to.
    pub layer: usize,
    /// Lower-coordinate endpoint of the edge (direction follows the
    /// layer).
    pub x: u16,
    /// Lower-coordinate endpoint of the edge.
    pub y: u16,
    /// New capacity.
    pub capacity: u32,
}

/// A reproducible grid construction recipe.
///
/// Workloads carry the recipe rather than the built [`Grid`] so they
/// can be serialized, mutated by the metamorphic property suite
/// (loosen one capacity, add one layer) and rebuilt bit-identically.
#[derive(Clone, PartialEq, Debug)]
pub struct GridSpec {
    /// Grid width in tiles.
    pub width: u16,
    /// Grid height in tiles.
    pub height: u16,
    /// Physical tile dimensions.
    pub tile: (f64, f64),
    /// Via width and spacing.
    pub via_geometry: (f64, f64),
    /// The layer stack, bottom first.
    pub layers: Vec<LayerSpec>,
    /// Optional explicit via-resistance table (`layers.len() - 1`
    /// entries); `None` uses the builder default.
    pub via_resistances: Option<Vec<f64>>,
    /// Per-edge capacity overrides applied after construction.
    pub capacity_overrides: Vec<CapOverride>,
}

impl GridSpec {
    /// Builds the grid the recipe describes.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Grid`] when the recipe is degenerate or an
    /// override names a nonexistent edge.
    pub fn build(&self) -> Result<Grid, FlowError> {
        let mut b = GridBuilder::new(self.width, self.height)
            .tile_size(self.tile.0, self.tile.1)
            .via_geometry(self.via_geometry.0, self.via_geometry.1);
        for l in &self.layers {
            b = b.push_layer(
                Layer::new(l.name.clone(), l.dir)
                    .with_rc(l.resistance, l.capacitance)
                    .with_geometry(l.wire_width, l.wire_spacing)
                    .with_capacity(l.capacity),
            );
        }
        if let Some(table) = &self.via_resistances {
            b = b.via_resistances(table.clone());
        }
        let mut grid = b.build().map_err(FlowError::Grid)?;
        for o in &self.capacity_overrides {
            if o.layer >= grid.num_layers() {
                return Err(FlowError::Grid(grid::GridError::InvalidAdjustment {
                    detail: format!("override layer {} out of range", o.layer),
                }));
            }
            let edge = Edge2d {
                cell: Cell::new(o.x, o.y),
                dir: grid.layer(o.layer).direction,
            };
            if !grid.contains_edge(edge) {
                return Err(FlowError::Grid(grid::GridError::InvalidAdjustment {
                    detail: format!("override edge {edge} not on the grid"),
                }));
            }
            grid.set_edge_capacity(o.layer, edge, o.capacity);
        }
        Ok(grid)
    }

    /// The paper-profile layer stack used by the generator: alternating
    /// directions starting horizontal, higher layers wider and less
    /// resistive (mirrors `GridBuilder::alternating_layers`).
    pub fn standard_layers(count: usize, capacity: u32) -> Vec<LayerSpec> {
        let mut dir = Direction::Horizontal;
        let mut out = Vec::with_capacity(count);
        for l in 0..count {
            let width = 1.0 + 0.5 * (l / 2) as f64;
            out.push(LayerSpec {
                name: format!("M{}", l + 1),
                dir,
                resistance: 8.0 / f64::powi(2.0, (l / 2) as i32),
                capacitance: 1.0 + 0.15 * l as f64,
                wire_width: width,
                wire_spacing: width,
                capacity,
            });
            dir = dir.flipped();
        }
        out
    }
}

/// A generated problem: grid recipe + routed netlist + release ratio.
///
/// The initial assignment is not stored — it is always
/// [`Assignment::lowest_layers`], so a workload fully determines its
/// [`Instance`].
#[derive(Clone, PartialEq, Debug)]
pub struct Workload {
    /// Lattice point this workload came from (provenance only).
    pub params: GenParams,
    /// Grid construction recipe.
    pub grid_spec: GridSpec,
    /// The routed nets.
    pub netlist: Netlist,
    /// Fraction of nets the engines release.
    pub critical_ratio: f64,
}

impl Workload {
    /// Builds a fresh validated instance (grid + lowest-layer initial
    /// assignment with usage applied).
    ///
    /// # Errors
    ///
    /// Returns the first structural violation as a [`FlowError`];
    /// generator output never triggers one.
    pub fn instance(&self) -> Result<Instance, FlowError> {
        let grid = self.grid_spec.build()?;
        let assignment = Assignment::lowest_layers(&self.netlist, &grid);
        Instance::new(grid, self.netlist.clone(), assignment)
    }

    /// The released net set for this workload's ratio, most critical
    /// first.
    ///
    /// # Errors
    ///
    /// Propagates instance-construction failures.
    pub fn released(&self) -> Result<Vec<usize>, FlowError> {
        self.instance()?.critical_nets(self.critical_ratio)
    }
}

/// Generates the workload for one lattice point.
///
/// All randomness comes from `rng`, so `(params, rng state)` fully
/// determines the result.
pub fn generate(params: &GenParams, rng: &mut Rng) -> Workload {
    let mut layers = GridSpec::standard_layers(params.layers, params.capacity);
    let mut capacity_overrides = Vec::new();
    if params.degenerate == Degenerate::ZeroCapacityLayer && params.layers > 2 {
        // Zero out one non-bottom layer. The two bottom layers stay
        // routable so every direction keeps at least one usable layer.
        let dead = rng.range_usize(2, params.layers - 1);
        layers[dead].capacity = 0;
    }
    let grid_spec = GridSpec {
        width: params.width,
        height: params.height,
        tile: (10.0, 10.0),
        via_geometry: (1.0, 1.0),
        layers,
        via_resistances: None,
        capacity_overrides: Vec::new(),
    };
    // Occasionally tighten a handful of individual edges: the post-map
    // sweep must cope with locally scarce capacity even in loose grids.
    if params.degenerate == Degenerate::None && rng.bool(0.5) {
        for _ in 0..rng.range_usize(1, 4) {
            let layer = rng.range_usize(0, params.layers - 1);
            let dir = grid_spec.layers[layer].dir;
            let (mx, my) = match dir {
                Direction::Horizontal => (params.width - 2, params.height - 1),
                Direction::Vertical => (params.width - 1, params.height - 2),
            };
            capacity_overrides.push(CapOverride {
                layer,
                x: rng.range_u16(0, mx),
                y: rng.range_u16(0, my),
                capacity: 1,
            });
        }
    }
    let grid_spec = GridSpec {
        capacity_overrides,
        ..grid_spec
    };

    let mut netlist = Netlist::new();
    for i in 0..params.num_nets {
        netlist.push(generate_net(params, rng, i));
    }
    Workload {
        params: params.clone(),
        grid_spec,
        netlist,
        critical_ratio: params.critical_ratio,
    }
}

/// Maximum segment length, in tiles, for a given lattice point.
fn max_len(params: &GenParams) -> u16 {
    match params.degenerate {
        Degenerate::ViaStackOnly => 1,
        _ if params.oracle_sized => 4,
        _ => 6,
    }
}

fn generate_net(params: &GenParams, rng: &mut Rng, index: usize) -> Net {
    let shape = match params.degenerate {
        Degenerate::SingleSegment | Degenerate::ViaStackOnly => 0,
        _ => rng.range_usize(0, 4),
    };
    match shape {
        // Straight two-pin net (the majority and all degenerate cases).
        0 | 1 => straight_net(params, rng, index),
        // L-shaped two-pin net.
        2 | 3 => l_net(params, rng, index),
        // Three-pin tree: horizontal trunk plus two vertical branches.
        _ => t_net(params, rng, index),
    }
}

/// Picks a start coordinate and extent so `start + len` stays on a
/// `span`-tile axis.
fn pick_run(rng: &mut Rng, span: u16, len_hi: u16) -> (u16, u16) {
    let len = rng.range_u16(1, len_hi.min(span - 1));
    let start = rng.range_u16(0, span - 1 - len);
    (start, len)
}

fn sink(rng: &mut Rng, cell: Cell) -> Pin {
    Pin::sink(cell, rng.range_f64(0.5, 4.0))
}

fn finish(name: String, rng: &mut Rng, pins: Vec<Pin>, tree: net::RouteTree) -> Net {
    let mut n = Net::new(name, pins, tree);
    if rng.bool(0.3) {
        n.driver_resistance = rng.range_f64(1.0, 10.0);
    }
    n
}

fn straight_net(params: &GenParams, rng: &mut Rng, index: usize) -> Net {
    let horizontal = rng.bool(0.5);
    let (src, dst) = if horizontal {
        let (x, len) = pick_run(rng, params.width, max_len(params));
        let y = rng.range_u16(0, params.height - 1);
        (Cell::new(x, y), Cell::new(x + len, y))
    } else {
        let (y, len) = pick_run(rng, params.height, max_len(params));
        let x = rng.range_u16(0, params.width - 1);
        (Cell::new(x, y), Cell::new(x, y + len))
    };
    let mut b = RouteTreeBuilder::new(src);
    #[expect(
        clippy::expect_used,
        reason = "dst differs from src along exactly one axis, so the segment is straight with \
                  positive length"
    )]
    let end = b.add_segment(b.root(), dst).expect("straight segment");
    #[expect(clippy::expect_used, reason = "pinned once")]
    b.attach_pin(b.root(), 0).expect("fresh root node");
    #[expect(clippy::expect_used, reason = "end != root, pinned once")]
    b.attach_pin(end, 1).expect("fresh leaf node");
    let pins = vec![Pin::source(src, 10.0), sink(rng, dst)];
    #[expect(
        clippy::expect_used,
        reason = "one segment, two pinned nodes — always a valid tree"
    )]
    let tree = b.build().expect("non-empty tree");
    finish(format!("n{index}"), rng, pins, tree)
}

fn l_net(params: &GenParams, rng: &mut Rng, index: usize) -> Net {
    let (x, xlen) = pick_run(rng, params.width, max_len(params));
    let (y, ylen) = pick_run(rng, params.height, max_len(params));
    let src = Cell::new(x, y);
    let bend = Cell::new(x + xlen, y);
    let dst = Cell::new(x + xlen, y + ylen);
    let mut b = RouteTreeBuilder::new(src);
    #[expect(
        clippy::expect_used,
        reason = "xlen and ylen are both >= 1, so both legs are straight segments of positive \
                  length with disjoint edges"
    )]
    let mid = b.add_segment(b.root(), bend).expect("horizontal leg");
    #[expect(clippy::expect_used, reason = "ylen >= 1")]
    let end = b.add_segment(mid, dst).expect("vertical leg");
    #[expect(clippy::expect_used, reason = "pinned once")]
    b.attach_pin(b.root(), 0).expect("fresh root node");
    #[expect(clippy::expect_used, reason = "end != root, pinned once")]
    b.attach_pin(end, 1).expect("fresh leaf node");
    let pins = vec![Pin::source(src, 10.0), sink(rng, dst)];
    #[expect(
        clippy::expect_used,
        reason = "two segments, pinned root and leaf — a valid tree"
    )]
    let tree = b.build().expect("non-empty tree");
    finish(format!("n{index}"), rng, pins, tree)
}

fn t_net(params: &GenParams, rng: &mut Rng, index: usize) -> Net {
    let (x, xlen) = pick_run(rng, params.width, max_len(params));
    let (y, up) = pick_run(rng, params.height, max_len(params));
    let down = rng.range_u16(1, max_len(params).min(y.max(1)).max(1));
    let src = Cell::new(x, y);
    let trunk_end = Cell::new(x + xlen, y);
    let sink_a = Cell::new(x + xlen, y + up);
    // Branch down from the source column when there is room below,
    // otherwise up beyond sink_a's row to keep the branch on-grid.
    let sink_b = if y >= down {
        Cell::new(x, y - down)
    } else {
        Cell::new(x, y + up.min(params.height - 1 - y))
    };
    let mut b = RouteTreeBuilder::new(src);
    #[expect(
        clippy::expect_used,
        reason = "the trunk is horizontal and the branches vertical on different columns \
                  (xlen >= 1), so no 2-D edge repeats"
    )]
    let mid = b.add_segment(b.root(), trunk_end).expect("trunk");
    #[expect(
        clippy::expect_used,
        reason = "the trunk is horizontal and the branches vertical on different columns \
                  (xlen >= 1), so no 2-D edge repeats"
    )]
    let end_a = b.add_segment(mid, sink_a).expect("first branch");
    if sink_b == src {
        // No room for the second branch: fall back to a two-pin net.
        #[expect(clippy::expect_used, reason = "pinned once")]
        b.attach_pin(b.root(), 0).expect("fresh root node");
        #[expect(clippy::expect_used, reason = "end_a != root")]
        b.attach_pin(end_a, 1).expect("fresh leaf node");
        let pins = vec![Pin::source(src, 10.0), sink(rng, sink_a)];
        #[expect(
            clippy::expect_used,
            reason = "two segments, pinned root and leaf — valid tree"
        )]
        let tree = b.build().expect("non-empty tree");
        return finish(format!("n{index}"), rng, pins, tree);
    }
    #[expect(
        clippy::expect_used,
        reason = "sink_b != src and sits on the source column, a straight vertical run disjoint \
                  from the trunk and first branch"
    )]
    let end_b = b.add_segment(b.root(), sink_b).expect("second branch");
    #[expect(clippy::expect_used, reason = "pinned once")]
    b.attach_pin(b.root(), 0).expect("fresh root node");
    #[expect(clippy::expect_used, reason = "end_a != root")]
    b.attach_pin(end_a, 1).expect("fresh leaf node");
    #[expect(clippy::expect_used, reason = "end_b != end_a, root")]
    b.attach_pin(end_b, 2).expect("fresh leaf node");
    let pins = vec![Pin::source(src, 10.0), sink(rng, sink_a), sink(rng, sink_b)];
    #[expect(
        clippy::expect_used,
        reason = "three segments, three pinned nodes — a valid tree"
    )]
    let tree = b.build().expect("non-empty tree");
    finish(format!("n{index}"), rng, pins, tree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_covers_every_corner() {
        let mut seen_layers = [false; 9];
        let mut seen_cases = std::collections::HashSet::new();
        for trial in 0..70 {
            let mut rng = Rng::seed_from_u64(1).fork(trial);
            let p = GenParams::lattice(trial, &mut rng);
            assert!((2..=8).contains(&p.layers));
            seen_layers[p.layers] = true;
            seen_cases.insert(p.degenerate.label());
        }
        assert!(seen_layers[2..=8].iter().all(|&s| s));
        assert_eq!(seen_cases.len(), 5);
    }

    #[test]
    fn every_lattice_point_yields_a_valid_instance() {
        for trial in 0..40 {
            let mut rng = Rng::seed_from_u64(7).fork(trial);
            let p = GenParams::lattice(trial, &mut rng);
            let w = generate(&p, &mut rng);
            let inst = w.instance().unwrap_or_else(|e| {
                panic!("trial {trial} ({}): invalid workload: {e}", p.describe())
            });
            assert_eq!(inst.netlist().len(), p.num_nets);
            let released = w.released().unwrap();
            assert!(!released.is_empty());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let make = || {
            let mut rng = Rng::seed_from_u64(5).fork(3);
            let p = GenParams::lattice(3, &mut rng);
            generate(&p, &mut rng)
        };
        assert_eq!(make(), make());
    }

    #[test]
    fn zero_capacity_layer_is_dead() {
        // Trial 2 mod 5 == 2 → ZeroCapacityLayer; need layers > 2.
        let mut rng = Rng::seed_from_u64(11).fork(2);
        let mut p = GenParams::lattice(2, &mut rng);
        p.layers = 5;
        let w = generate(&p, &mut rng);
        let grid = w.grid_spec.build().unwrap();
        let dead = (0..grid.num_layers()).filter(|&l| {
            grid.edges_in_direction(grid.layer(l).direction)
                .all(|e| grid.edge_capacity(l, e) == 0)
        });
        assert_eq!(dead.count(), 1);
    }

    #[test]
    fn rebuilding_the_spec_is_bit_identical() {
        let mut rng = Rng::seed_from_u64(3).fork(9);
        let p = GenParams::lattice(9, &mut rng);
        let w = generate(&p, &mut rng);
        let a = w.grid_spec.build().unwrap();
        let b = w.grid_spec.build().unwrap();
        assert_eq!(a.num_layers(), b.num_layers());
        for l in 0..a.num_layers() {
            assert_eq!(a.layer(l), b.layer(l));
        }
    }
}
