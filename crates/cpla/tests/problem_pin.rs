//! Pins the partition programs at the lowering boundary.
//!
//! Every first-round partition of one Table-2 design is extracted with
//! the public API and lowered both ways. One FNV-1a digest covers what
//! the solvers and the acceptance rule read from a problem:
//!
//! * `to_sdp()`: the dimension, the bits of every cost entry, and every
//!   constraint row's entries and right-hand side;
//! * `to_choice_problem()`'s capacity groups;
//! * the bits of `evaluate(&current)`;
//! * `post_map` on a seeded relaxation vector, and the evaluation of its
//!   result.
//!
//! A change to the problem's storage must leave the digest alone; a
//! change to what a problem means must re-pin it on purpose.

use cpla::problem::{PartitionProblem, ProblemConfig};
use ispd::SyntheticConfig;
use net::SegmentRef;
use route::{initial_assignment, route_netlist, RouterConfig};

/// The design: the in-memory stand-in for ISPD'08 `adaptec1`.
const DESIGN: &str = "adaptec1";
/// Released fraction: ten times the engine's default, so the pin covers
/// ~300 partitions instead of ~40.
const RATIO: f64 = 0.05;
/// Criticality exponent, K×K division and leaf bound of the engine's
/// defaults (`CplaConfig::default()`); the first round uses no offset.
const FOCUS: f64 = 4.0;
const DIVISIONS: usize = 4;
const LEAF_BOUND: usize = 10;

/// Digest and partition count, recorded with the nested problem layout
/// (one `Vec` per candidate list, cost row and edge constraint) before
/// the flat layout replaced it.
const PINNED_DIGEST: u64 = 0xcd3c_ce72_45fe_80e3;
const PINNED_PARTITIONS: usize = 309;

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn size(&mut self, v: usize) {
        self.word(v as u64);
    }

    fn cost(&mut self, v: Option<f64>) {
        // `u64::MAX` is the bit pattern of no finite cost.
        self.word(v.map_or(u64::MAX, f64::to_bits));
    }
}

fn digest_problem(h: &mut Fnv, p: &PartitionProblem, rng: &mut prng::Rng) {
    h.size(p.segments.len());
    h.size(p.num_variables());

    let (sdp, offsets) = p.to_sdp();
    let dim = sdp.dim();
    h.size(dim);
    for &o in &offsets {
        h.size(o);
    }
    for i in 0..dim {
        for j in i..dim {
            h.word(sdp.cost().get(i, j).to_bits());
        }
    }
    h.size(sdp.num_constraints());
    for k in 0..sdp.num_constraints() {
        let (entries, rhs) = sdp.constraint(k);
        h.size(entries.len());
        for &(i, j, c) in entries {
            h.size(i);
            h.size(j);
            h.word(c.to_bits());
        }
        h.word(rhs.to_bits());
    }

    let choice = p.to_choice_problem();
    h.size(choice.capacity_groups().len());
    for g in choice.capacity_groups() {
        h.word(u64::from(g.limit));
        h.size(g.members.len());
        for &(i, c) in &g.members {
            h.size(i);
            h.size(c);
        }
    }

    h.cost(p.evaluate(&p.current));

    // Slack entries ride along: post-mapping must ignore them.
    let x: Vec<f64> = (0..dim)
        .map(|_| rng.range_u64(0, 1000) as f64 / 1000.0)
        .collect();
    let mapped = cpla::mapping::post_map(p, &x);
    for &c in &mapped {
        h.size(c);
    }
    h.cost(p.evaluate(&mapped));
    for l in p.choices_to_layers(&mapped) {
        h.size(l);
    }
}

fn first_round_digest() -> (u64, usize) {
    let config = SyntheticConfig::named(DESIGN).expect("a Table-2 design");
    let (mut grid, specs) = config.generate().expect("valid config");
    let netlist = route_netlist(&grid, &specs, &RouterConfig::default());
    let assignment = initial_assignment(&mut grid, &netlist);
    let report = timing::analyze(&grid, &netlist, &assignment);
    let released = cpla::select_critical_nets(&report, RATIO);
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
    let mut h = Fnv::new();
    let mut rng = prng::Rng::seed_from_u64(0x9e37);
    for part in &partitions {
        let problem = PartitionProblem::extract(
            &grid,
            &netlist,
            &assignment,
            &part.segments,
            &|r| ctx[&r],
            &ProblemConfig::default(),
        );
        digest_problem(&mut h, &problem, &mut rng);
    }
    (h.0, partitions.len())
}

#[test]
fn first_round_partition_programs_are_pinned() {
    let (digest, partitions) = first_round_digest();
    assert_eq!(
        (digest, partitions),
        (PINNED_DIGEST, PINNED_PARTITIONS),
        "digest {digest:#018x} over {partitions} partitions"
    );
}
