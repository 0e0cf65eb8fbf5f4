//! Scratch triage harness (not part of the suite by default).

use flow::Metrics;

#[test]
#[ignore = "manual triage tool"]
fn triage_reproducer() {
    let path = std::env::var("CONFORM_REPRO").expect("set CONFORM_REPRO=<file>");
    let text = std::fs::read_to_string(&path).unwrap();
    let w = conform::io::workload_from_str(&text).unwrap();
    let inst = w.instance().unwrap();
    let released = w.released().unwrap();
    println!("released nets: {released:?}");
    let opt = conform::oracle::solve(&inst, &released, 1 << 20).unwrap();
    println!(
        "oracle best avg_tcp {} over {} combos ({} feasible)",
        opt.best_avg_tcp, opt.combos, opt.feasible
    );
    for (k, &ni) in released.iter().enumerate() {
        println!(
            "  net {ni} ({}) oracle layers {:?} initial {:?}",
            inst.netlist().net(ni).name(),
            opt.best_layers[k],
            inst.assignment().net_layers(ni)
        );
    }
    let initial = Metrics::measure(inst.grid(), inst.netlist(), inst.assignment(), &released);
    println!("initial avg_tcp {}", initial.avg_tcp);

    for threads in [1usize] {
        let backend = conform::cpla_backend(w.critical_ratio, threads);
        let mut i2 = inst.clone();
        let report = i2.run(&backend).unwrap();
        println!(
            "cpla rounds={} final avg_tcp {} (initial {})",
            report.rounds, report.final_metrics.avg_tcp, report.initial_metrics.avg_tcp
        );
        {
            let mut grid = inst.grid().clone();
            let mut assignment = inst.assignment().clone();
            let engine = cpla::Cpla::new(cpla::CplaConfig {
                critical_ratio: w.critical_ratio,
                threads,
                release_neighbors: false,
                ..cpla::CplaConfig::default()
            });
            let full = engine
                .run(&mut grid, inst.netlist(), &mut assignment)
                .unwrap();
            println!(
                "  stats: evaluations={} gate_accepted={} gate_rejected={} rounds={:?}",
                full.stats.evaluations,
                full.stats.gate_accepted,
                full.stats.gate_rejected,
                full.rounds
            );
        }
        {
            // Extract the whole released set as one problem and dump it.
            let grid = inst.grid();
            let netlist = inst.netlist();
            let assignment = inst.assignment();
            let ctxmap = cpla::timing_context(grid, netlist, assignment, &released, 2.0);
            let segments: Vec<net::SegmentRef> = released
                .iter()
                .flat_map(|&ni| {
                    (0..netlist.net(ni).tree().num_segments())
                        .map(move |s| net::SegmentRef::new(ni as u32, s as u32))
                })
                .collect();
            let problem = cpla::problem::PartitionProblem::extract(
                grid,
                netlist,
                assignment,
                &segments,
                &|s| ctxmap[&s],
                &cpla::problem::ProblemConfig::default(),
            );
            for i in 0..problem.segments.len() {
                println!(
                    "  seg {i} current={} cands={:?}",
                    problem.current[i],
                    problem.candidates(i)
                );
                println!("    linear {:?}", problem.linear_cost(i));
            }
            for p in problem.pairs() {
                println!("  pair ({},{}) costs {:?}", p.a, p.b, p.costs);
            }
            for g in problem.groups().filter(|g| g.limit == 0) {
                let members: Vec<(usize, usize)> = g
                    .members
                    .iter()
                    .map(|&v| problem.variable(v as usize))
                    .collect();
                println!(
                    "  edge layer={} edge={:?} limit=0 members={members:?}",
                    g.layer, g.edge
                );
            }
        }
        for &ni in &released {
            println!(
                "  net {ni} cpla layers {:?}",
                i2.assignment().net_layers(ni)
            );
        }
        println!(
            "  overflow wire {}->{} via {}->{}",
            inst.grid().total_wire_overflow(),
            i2.grid().total_wire_overflow(),
            inst.grid().total_via_overflow(),
            i2.grid().total_via_overflow()
        );
    }

    let tila = conform::tila_backend(w.critical_ratio);
    let mut i3 = inst.clone();
    let rt = i3.run(&tila).unwrap();
    println!("tila final avg_tcp {}", rt.final_metrics.avg_tcp);
    for &ni in &released {
        println!(
            "  net {ni} tila layers {:?}",
            i3.assignment().net_layers(ni)
        );
    }
}
