//! The benchmark holds its quality metrics exact, so the engines must
//! reproduce them bit for bit: across same-seed reruns, and for
//! `scale-100k` across Solve thread counts.
//!
//! The workloads take minutes unoptimized; run these with
//! `cargo test --release --offline --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;

use perfbench::run::{run_pass, write_inputs, Pass, Quality};
use perfbench::trace::Tracer;
use perfbench::workload::{Backend, Workload};

/// What must not change between runs of one workload: every
/// operation's checked quality and CPLA's work counters.
#[derive(PartialEq, Debug)]
struct Fingerprint {
    quality: Vec<Quality>,
    counters: Vec<(usize, usize, usize, flow::FlowCounters)>,
}

fn fingerprint(pass: &Pass) -> Fingerprint {
    Fingerprint {
        quality: pass
            .operations
            .iter()
            .map(|op| op.outcome.clone().expect("operation passed its checks"))
            .collect(),
        counters: pass
            .operations
            .iter()
            .filter_map(|op| op.stats.as_ref())
            .map(|s| {
                (
                    s.rounds,
                    s.rounds_improved,
                    s.solve_leaf_s.len(),
                    s.counters,
                )
            })
            .collect(),
    }
}

fn inputs(workload: &Workload, tag: &str) -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag);
    write_inputs(workload, &dir).expect("inputs written")
}

fn traced_pass(workload: &Workload, inputs: &[PathBuf]) -> Fingerprint {
    let mut tracer = Tracer::new();
    fingerprint(&run_pass(workload, inputs, Some(&mut tracer)))
}

#[test]
#[cfg_attr(debug_assertions, ignore = "minutes unoptimized; run with --release")]
fn scale_100k_is_identical_across_threads_and_reruns() {
    let workload = Workload::named("scale-100k", Some(3))
        .expect("known workload")
        .first_copy();
    assert_eq!(workload.backends, [Backend::Cpla { threads: 2 }]);
    let files = inputs(&workload, "scale-100k-seed-3");
    let two = traced_pass(&workload, &files);
    assert_eq!(two, traced_pass(&workload, &files), "rerun at threads 2");
    let one = Workload {
        backends: vec![Backend::Cpla { threads: 1 }],
        ..workload
    };
    assert_eq!(two, traced_pass(&one, &files), "threads 1 vs 2");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "minutes unoptimized; run with --release")]
fn table2_is_identical_across_reruns() {
    let workload = Workload::named("table2", None).expect("known workload");
    let files = inputs(&workload, "table2-default");
    let first = traced_pass(&workload, &files);
    assert_eq!(
        first.quality.len(),
        30,
        "a plain and a traced assign per design"
    );
    for pair in first.quality.chunks(2) {
        assert_eq!(pair[0], pair[1], "the observer changed the result");
    }
    assert_eq!(first, traced_pass(&workload, &files), "rerun");
}
