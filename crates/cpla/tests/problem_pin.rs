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

mod common;

use common::Fnv;
use cpla::problem::PartitionProblem;

/// Digest and partition count, recorded with the nested problem layout
/// (one `Vec` per candidate list, cost row and edge constraint) before
/// the flat layout replaced it.
const PINNED_DIGEST: u64 = 0xcd3c_ce72_45fe_80e3;
const PINNED_PARTITIONS: usize = 309;

/// Hashes a cost; `u64::MAX` is the bit pattern of no finite cost.
fn digest_cost(h: &mut Fnv, v: Option<f64>) {
    h.word(v.map_or(u64::MAX, f64::to_bits));
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
    let cost = sdp.to_dense_cost();
    for i in 0..dim {
        for j in i..dim {
            h.word(cost.get(i, j).to_bits());
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

    digest_cost(h, p.evaluate(&p.current));

    // Slack entries ride along: post-mapping must ignore them.
    let x: Vec<f64> = (0..dim)
        .map(|_| rng.range_u64(0, 1000) as f64 / 1000.0)
        .collect();
    let mapped = cpla::mapping::post_map(p, &x);
    for &c in &mapped {
        h.size(c);
    }
    digest_cost(h, p.evaluate(&mapped));
    for l in p.choices_to_layers(&mapped) {
        h.size(l);
    }
}

fn first_round_digest() -> (u64, usize) {
    let problems = common::first_round_problems();
    let mut h = Fnv::new();
    let mut rng = prng::Rng::seed_from_u64(0x9e37);
    for problem in &problems {
        digest_problem(&mut h, problem, &mut rng);
    }
    (h.0, problems.len())
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
