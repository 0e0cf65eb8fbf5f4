//! Golden tests pinning the stage-based driver to the pre-refactor
//! engine, bit for bit.
//!
//! The expected rows below were recorded from the monolithic
//! `Cpla::run` loop *before* it was decomposed into discrete flow
//! stages (see `examples/record_snapshot.rs`). Any behavioral drift in
//! the refactor — a reordered stage, a cache consulted differently, a
//! float summed in another order — shows up here as a changed bit
//! pattern, not as an invisible fraction of a picosecond. Every row is
//! checked on the serial Solve path and on the parallel one, which
//! must reproduce the same recorded bits.

use cpla::{Cpla, CplaConfig};
use ispd::SyntheticConfig;
use route::{initial_assignment, route_netlist, RouterConfig};

/// One recorded engine outcome on a fixed-seed workload.
struct Expected {
    seed: u64,
    /// `f64::to_bits` of the final released-average delay.
    avg_bits: u64,
    /// `f64::to_bits` of the final released-maximum delay.
    max_bits: u64,
    via_overflow: u64,
    via_count: u64,
    rounds: usize,
    partitions_solved: usize,
    partitions_reused: usize,
    evaluations: u64,
    gate_accepted: usize,
    gate_rejected: usize,
    released: &'static [usize],
}

/// Recorded by `examples/record_snapshot.rs` (config:
/// `SyntheticConfig::small(seed)`, ratio 0.05, 8 rounds, 1 thread).
/// Last re-pinned after the via-overflow pricing and preference-gated
/// post-mapping fixes: the partition extraction now charges the full
/// `α` weight for vias through at-capacity layers, and Algorithm-1
/// mapping no longer hoists segments onto top layers the relaxation
/// did not pick, so every row moved.
const SNAPSHOT: &[Expected] = &[
    Expected {
        seed: 3,
        avg_bits: 0x40815a6112938e9e,
        max_bits: 0x4087a09bd0b1666a,
        via_overflow: 0,
        via_count: 348,
        rounds: 4,
        partitions_solved: 38,
        partitions_reused: 0,
        evaluations: 76,
        gate_accepted: 14,
        gate_rejected: 2,
        released: &[63, 72, 118, 51, 62, 24],
    },
    Expected {
        seed: 42,
        avg_bits: 0x40881471ccf1109d,
        max_bits: 0x409e5631bc4e257a,
        via_overflow: 0,
        via_count: 370,
        rounds: 7,
        partitions_solved: 53,
        partitions_reused: 6,
        evaluations: 106,
        gate_accepted: 18,
        gate_rejected: 16,
        released: &[46, 48, 85, 19, 64, 0],
    },
];

fn run(seed: u64, threads: usize) -> cpla::CplaReport {
    let cfg = SyntheticConfig::small(seed);
    let (mut grid, specs) = cfg.generate().expect("valid config");
    let netlist = route_netlist(&grid, &specs, &RouterConfig::default());
    let mut assignment = initial_assignment(&mut grid, &netlist);
    Cpla::new(CplaConfig {
        critical_ratio: 0.05,
        max_rounds: 8,
        threads,
        ..CplaConfig::default()
    })
    .run(&mut grid, &netlist, &mut assignment)
    .expect("snapshot workload is well-formed")
}

#[test]
fn stage_driver_matches_the_pre_refactor_engine_bit_for_bit() {
    for e in SNAPSHOT {
        for threads in [1, 4] {
            let r = run(e.seed, threads);
            let label = format!("seed={} threads={threads}", e.seed);
            assert_eq!(
                r.final_metrics.avg_tcp.to_bits(),
                e.avg_bits,
                "{label}: avg_tcp drifted to {}",
                r.final_metrics.avg_tcp
            );
            assert_eq!(
                r.final_metrics.max_tcp.to_bits(),
                e.max_bits,
                "{label}: max_tcp drifted to {}",
                r.final_metrics.max_tcp
            );
            assert_eq!(r.final_metrics.via_overflow, e.via_overflow, "{label}: OV#");
            assert_eq!(r.final_metrics.via_count, e.via_count, "{label}: via#");
            assert_eq!(r.rounds.len(), e.rounds, "{label}: rounds");
            assert_eq!(
                r.stats.partitions_solved, e.partitions_solved,
                "{label}: partitions_solved"
            );
            assert_eq!(
                r.stats.partitions_reused, e.partitions_reused,
                "{label}: partitions_reused"
            );
            assert_eq!(r.stats.evaluations, e.evaluations, "{label}: evaluations");
            assert_eq!(
                r.stats.gate_accepted, e.gate_accepted,
                "{label}: gate_accepted"
            );
            assert_eq!(
                r.stats.gate_rejected, e.gate_rejected,
                "{label}: gate_rejected"
            );
            assert_eq!(r.released, e.released, "{label}: released set");
        }
    }
}
