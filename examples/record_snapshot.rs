//! One-off recorder: prints bit-exact final metrics of the engine on
//! fixed-seed workloads, used to pin the pre-refactor snapshot.

use cpla_suite::cpla::{Cpla, CplaConfig};
use cpla_suite::ispd::SyntheticConfig;
use cpla_suite::route::{initial_assignment, route_netlist, RouterConfig};

fn main() {
    for seed in [3u64, 42] {
        let cfg = SyntheticConfig::small(seed);
        let (mut grid, specs) = cfg.generate().unwrap();
        let netlist = route_netlist(&grid, &specs, &RouterConfig::default());
        let mut assignment = initial_assignment(&mut grid, &netlist);
        let config = CplaConfig {
            critical_ratio: 0.05,
            max_rounds: 8,
            threads: 1,
            ..CplaConfig::default()
        };
        let r = Cpla::new(config)
            .run(&mut grid, &netlist, &mut assignment)
            .expect("snapshot workload is well-formed");
        println!(
            "seed={seed} avg_bits={:#018x} max_bits={:#018x} \
                 avg={} max={} ov={} vias={} rounds={} solved={} reused={} \
                 evals={} gate_acc={} gate_rej={} released={:?}",
            r.final_metrics.avg_tcp.to_bits(),
            r.final_metrics.max_tcp.to_bits(),
            r.final_metrics.avg_tcp,
            r.final_metrics.max_tcp,
            r.final_metrics.via_overflow,
            r.final_metrics.via_count,
            r.rounds.len(),
            r.stats.partitions_solved,
            r.stats.partitions_reused,
            r.stats.evaluations,
            r.stats.gate_accepted,
            r.stats.gate_rejected,
            r.released,
        );
    }
}
