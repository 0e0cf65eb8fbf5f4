//! Diagnostic dump of one benchmark's pipeline: routing statistics,
//! initial-assignment quality, headroom, and per-engine improvements.
//!
//! Usage: `inspect [benchmark]` (default adaptec1).

use cpla::{CplaConfig, Metrics};
use cpla_bench::{benchmarks_from_args, run_cpla, run_tila, Prepared};
use grid::Direction;
use tila::TilaConfig;

fn main() {
    let configs = benchmarks_from_args(&["adaptec1"]);
    for config in &configs {
        let prepared = Prepared::from_config(config);
        let g = &prepared.grid;
        let nl = &prepared.netlist;
        println!("== {} ==", config.name);
        println!(
            "grid {}x{}x{}  nets {}  segments {}",
            g.width(),
            g.height(),
            g.num_layers(),
            nl.len(),
            nl.num_segments()
        );
        println!(
            "wire overflow {}  via overflow {}",
            g.total_wire_overflow(),
            g.total_via_overflow()
        );
        // Layer occupancy histogram.
        for l in 0..g.num_layers() {
            let dir = g.layer(l).direction;
            let used: u64 = g
                .edges_in_direction(dir)
                .map(|e| g.edge_usage(l, e) as u64)
                .sum();
            let cap: u64 = g
                .edges_in_direction(dir)
                .map(|e| g.edge_capacity(l, e) as u64)
                .sum();
            println!(
                "  layer {l} ({}) usage {used} / {cap} ({:.1}%)",
                match dir {
                    Direction::Horizontal => "H",
                    Direction::Vertical => "V",
                },
                100.0 * used as f64 / cap.max(1) as f64
            );
        }

        let released = prepared.released(0.005);
        println!("released {} nets (0.5%)", released.len());
        let initial = Metrics::measure(&prepared.grid, nl, &prepared.assignment, &released);
        println!(
            "initial : avg {:.1} max {:.1} OV# {} via# {}",
            initial.avg_tcp, initial.max_tcp, initial.via_overflow, initial.via_count
        );

        let (tila_run, tila_res) = run_tila(&prepared, &released, TilaConfig::default());
        println!(
            "  TILA wire overflow: {}",
            tila_run.grid.total_wire_overflow()
        );
        println!(
            "TILA    : avg {:.1} max {:.1} OV# {} via# {}  ({:.2}s, obj {:.0} -> {:.0})",
            tila_run.metrics.avg_tcp,
            tila_run.metrics.max_tcp,
            tila_run.metrics.via_overflow,
            tila_run.metrics.via_count,
            tila_run.seconds,
            tila_res.initial_objective,
            tila_res.final_objective,
        );

        let (sdp_run, report) = run_cpla(&prepared, &released, CplaConfig::default());
        println!(
            "  CPLA wire overflow: {}",
            sdp_run.grid.total_wire_overflow()
        );
        println!(
            "CPLA-SDP: avg {:.1} max {:.1} OV# {} via# {}  ({:.2}s)",
            sdp_run.metrics.avg_tcp,
            sdp_run.metrics.max_tcp,
            sdp_run.metrics.via_overflow,
            sdp_run.metrics.via_count,
            sdp_run.seconds,
        );
        println!(
            "  partitions: {} leaves, max depth {}, max {} segs",
            report.partition_stats.leaves,
            report.partition_stats.max_depth,
            report.partition_stats.max_segments
        );
        for r in &report.rounds {
            println!(
                "  round {}: avg {:.1} max {:.1} over {} partitions, wire overflow {} via overflow {} ({})",
                r.round,
                r.avg_tcp,
                r.max_tcp,
                r.partitions,
                r.wire_overflow,
                r.via_overflow,
                if r.improved { "improved" } else { "stop" }
            );
        }

        let (ilp_run, ilp_report) = run_cpla(
            &prepared,
            &released,
            CplaConfig {
                solver: cpla::SolverKind::Ilp {
                    node_budget: 500_000,
                },
                ..CplaConfig::default()
            },
        );
        println!(
            "CPLA-ILP: avg {:.1} max {:.1} OV# {} via# {}  ({:.2}s, {} rounds)",
            ilp_run.metrics.avg_tcp,
            ilp_run.metrics.max_tcp,
            ilp_run.metrics.via_overflow,
            ilp_run.metrics.via_count,
            ilp_run.seconds,
            ilp_report.rounds.len(),
        );
    }
}
