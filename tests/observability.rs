//! Differential gate for the observability layer: attaching the full
//! instrumentation stack — span recorder, allocation accounting, and
//! both exporters — must not change a single bit of the engine's
//! answer, and must cost only a bounded slice of wall-clock.
//!
//! The workloads here are the same pinned snapshots as
//! `stage_pipeline_snapshot.rs` (seeds 3 and 42), so any
//! observer-induced drift would also be localizable against the
//! recorded golden rows.

use cpla::{Cpla, CplaConfig, CplaReport};
use flow::Stage;
use ispd::SyntheticConfig;
use net::Assignment;
use route::{initial_assignment, route_netlist, RouterConfig};

// Real allocation counting needs the wrapper installed as the global
// allocator; it stays pass-through until `obs::alloc::enable` flips it
// on for the instrumented runs below.
#[global_allocator]
static ALLOC: obs::CountingAlloc = obs::CountingAlloc::new();

fn config(threads: usize, alloc_stats: bool) -> CplaConfig {
    CplaConfig {
        critical_ratio: 0.05,
        max_rounds: 8,
        threads,
        alloc_stats,
        ..CplaConfig::default()
    }
}

/// Runs one pinned workload without any observer attached.
fn run_plain(seed: u64, threads: usize) -> (CplaReport, Assignment) {
    let cfg = SyntheticConfig::small(seed);
    let (mut grid, specs) = cfg.generate().expect("valid config");
    let netlist = route_netlist(&grid, &specs, &RouterConfig::default());
    let mut assignment = initial_assignment(&mut grid, &netlist);
    let report = Cpla::new(config(threads, false))
        .run(&mut grid, &netlist, &mut assignment)
        .expect("snapshot workload is well-formed");
    (report, assignment)
}

/// Runs the same workload with the full stack attached: span recorder,
/// scoped allocation accounting, and both exporters rendered.
fn run_instrumented(seed: u64, threads: usize) -> (CplaReport, Assignment, obs::Recorder) {
    let cfg = SyntheticConfig::small(seed);
    let (mut grid, specs) = cfg.generate().expect("valid config");
    let netlist = route_netlist(&grid, &specs, &RouterConfig::default());
    let mut assignment = initial_assignment(&mut grid, &netlist);
    let mut recorder = obs::Recorder::new(format!("seed-{seed}"));
    let report = Cpla::new(config(threads, true))
        .run_observed(&mut grid, &netlist, &mut assignment, &mut [&mut recorder])
        .expect("snapshot workload is well-formed");
    recorder.finish();
    // Rendering the exporters is part of "fully instrumented": doing it
    // here proves export itself cannot perturb a subsequent comparison.
    let chrome = obs::chrome::export(&[&recorder]);
    assert!(!chrome.is_empty());
    let prom = obs::prom::export(&[&recorder]);
    assert!(!prom.is_empty());
    (report, assignment, recorder)
}

fn assert_identical(label: &str, plain: &(CplaReport, Assignment), obs: &(CplaReport, Assignment)) {
    let (p, pa) = plain;
    let (o, oa) = obs;
    assert_eq!(
        p.final_metrics.avg_tcp.to_bits(),
        o.final_metrics.avg_tcp.to_bits(),
        "{label}: Avg(Tcp) drifted under instrumentation"
    );
    assert_eq!(
        p.final_metrics.max_tcp.to_bits(),
        o.final_metrics.max_tcp.to_bits(),
        "{label}: Max(Tcp) drifted under instrumentation"
    );
    assert_eq!(
        p.initial_metrics.avg_tcp.to_bits(),
        o.initial_metrics.avg_tcp.to_bits(),
        "{label}: initial Avg(Tcp)"
    );
    assert_eq!(p.final_metrics.via_overflow, o.final_metrics.via_overflow);
    assert_eq!(p.final_metrics.via_count, o.final_metrics.via_count);
    assert_eq!(p.released, o.released, "{label}: released set");
    assert_eq!(p.rounds.len(), o.rounds.len(), "{label}: round count");
    assert_eq!(
        p.stats.partitions_solved, o.stats.partitions_solved,
        "{label}: partitions_solved"
    );
    assert_eq!(
        p.stats.partitions_reused, o.stats.partitions_reused,
        "{label}: partitions_reused"
    );
    assert_eq!(
        p.stats.evaluations, o.stats.evaluations,
        "{label}: evaluations"
    );
    assert_eq!(
        p.stats.gate_accepted, o.stats.gate_accepted,
        "{label}: gate_accepted"
    );
    assert_eq!(
        p.stats.gate_rejected, o.stats.gate_rejected,
        "{label}: gate_rejected"
    );
    assert_eq!(pa, oa, "{label}: assignment diverged under instrumentation");
}

#[test]
fn instrumentation_is_bit_identical_on_the_pinned_workloads() {
    for seed in [3u64, 42] {
        let label = format!("seed={seed}");
        let plain = run_plain(seed, 1);
        let (report, assignment, recorder) = run_instrumented(seed, 1);
        assert_identical(&label, &plain, &(report, assignment));
        // The recorder saw a real run: a run span plus at least one span
        // per pipeline stage.
        let run_span = recorder.run_span().expect("run span closed");
        assert!(run_span.dur_us > 0.0, "{label}: empty run span");
        for stage in Stage::ALL {
            assert!(
                recorder
                    .spans()
                    .iter()
                    .any(|s| s.kind == obs::SpanKind::Stage && s.stage == Some(stage)),
                "{label}: no span recorded for stage {}",
                stage.name()
            );
        }
    }
}

#[test]
fn instrumentation_is_bit_identical_with_work_stealing_threads() {
    // The multi-threaded solve path records leaf spans on the worker
    // threads; that side channel must not alter the merge order of
    // results, and worker attribution must actually appear.
    let label = "seed=42 threads=4";
    let plain = run_plain(42, 4);
    let (report, assignment, recorder) = run_instrumented(42, 4);
    assert_identical(label, &plain, &(report, assignment));
    let leaf_threads: Vec<usize> = recorder
        .spans()
        .iter()
        .filter(|s| s.kind == obs::SpanKind::Leaf && s.stage == Some(Stage::Solve))
        .map(|s| s.thread)
        .collect();
    assert!(
        !leaf_threads.is_empty(),
        "{label}: no solve leaves recorded"
    );
    assert!(
        leaf_threads.iter().any(|&t| t >= 1),
        "{label}: no leaf attributed to a worker thread: {leaf_threads:?}"
    );
}

#[test]
fn exporters_agree_with_the_pipeline_stage_set() {
    let (_, _, recorder) = run_instrumented(3, 1);
    let chrome = obs::chrome::export(&[&recorder]);
    let parsed = conform::json::parse(&chrome).expect("chrome export is valid JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(conform::json::Value::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(conform::json::Value::as_str))
        .collect();
    let prom = obs::prom::export(&[&recorder]);
    for stage in Stage::ALL {
        assert!(
            names.contains(&stage.name()),
            "chrome trace is missing stage `{}`",
            stage.name()
        );
        assert!(
            prom.contains(&format!("stage=\"{}\"", stage.name())),
            "metrics dump is missing stage `{}`",
            stage.name()
        );
    }
    // Allocation accounting was live (the test binary installs the
    // counting allocator), so the per-stage byte counters must be real.
    assert!(
        recorder
            .spans()
            .iter()
            .filter(|s| s.kind == obs::SpanKind::Stage)
            .any(|s| s.alloc_bytes > 0),
        "alloc accounting recorded zero bytes across every stage"
    );
}

#[test]
fn observer_overhead_is_bounded() {
    // Best-of-3 on each side to shake scheduler noise out of a debug
    // binary; the absolute slack keeps a loaded CI box from flaking
    // while still catching a pathological per-leaf or per-alloc cost.
    let seed = 42u64;
    run_plain(seed, 1); // warm caches/allocator once
    let mut plain_best = f64::INFINITY;
    let mut instr_best = f64::INFINITY;
    for _ in 0..3 {
        let t = std::time::Instant::now();
        run_plain(seed, 1);
        plain_best = plain_best.min(t.elapsed().as_secs_f64());
        let t = std::time::Instant::now();
        run_instrumented(seed, 1);
        instr_best = instr_best.min(t.elapsed().as_secs_f64());
    }
    assert!(
        instr_best <= plain_best * 1.05 + 0.05,
        "instrumented best {instr_best:.4}s vs plain best {plain_best:.4}s"
    );
}
