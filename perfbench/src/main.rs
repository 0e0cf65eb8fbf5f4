//! `perfbench`: one benchmark run.
//!
//! ```text
//! perfbench --workload table2|scale-100k|baselines [--seed N]
//!           [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints progress on stderr, a `provenance` line, and as the last line
//! of stdout one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics of a traced pass with `--trace 1`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use perfbench::host::{self, Provenance};
use perfbench::run::{run_pass, write_inputs, Pass};
use perfbench::summary::{self, Metric};
use perfbench::trace::Tracer;
use perfbench::workload::{Workload, WORKLOAD_NAMES};

const USAGE: &str = "usage: perfbench --workload table2|scale-100k|baselines \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// A parsed command line.
struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: None,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => {
                let v = value()?;
                args.seed = Some(v.parse().map_err(|_| format!("bad seed `{v}`"))?);
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad seconds `{v}`"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(mut workload) = Workload::named(&args.workload, args.seed) else {
        eprintln!(
            "error: unknown workload `{}`; valid: {}",
            args.workload,
            WORKLOAD_NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    if args.trace {
        // The traced run pairs plain and traced assigns over one copy of
        // the suite; the copies only steady the end-to-end times.
        workload = workload.first_copy();
    }
    match run(&workload, &args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(workload: &Workload, args: &Args) -> Result<(), String> {
    let crate_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out_dir = crate_dir.join("out");
    let input_dir = out_dir.join(format!("inputs-{}", std::process::id()));
    let provenance = Provenance::collect(crate_dir.parent().unwrap_or(crate_dir));
    let seed = args.seed.map_or("default".to_owned(), |s| s.to_string());
    let ref_start_s = host::reference_loop_s();

    let inputs = write_inputs(workload, &input_dir);
    let passes = inputs
        .as_ref()
        .map(|inputs| measure(workload, inputs, args));
    // The inputs are scratch files of this run only.
    let _ = std::fs::remove_dir_all(&input_dir);
    let (passes, chosen) = passes?;
    let ref_end_s = host::reference_loop_s();

    let (attempted, failures) = summary::tally(&passes);
    for failure in &failures {
        eprintln!("FAILED {failure}");
    }
    let failed = failures.len();
    println!(
        "provenance {{\"workload\": \"{}\", \"seed\": \"{}\", \"threads\": {}, \"passes\": {}, \
         \"nproc\": {}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\", \
         \"host_ref_start_s\": {ref_start_s}, \"host_ref_end_s\": {ref_end_s}}}",
        workload.name,
        seed,
        workload.threads(),
        passes.len(),
        provenance.nproc,
        provenance.cpu_model,
        provenance.rustc,
        provenance.commit,
    );
    let metrics: Vec<Metric> = match chosen {
        Some((index, tracer)) => {
            let names: Vec<String> = (0..workload.designs.len())
                .map(|d| workload.design_label(d))
                .collect();
            let trace_path = out_dir.join(format!("trace-{}-seed-{seed}.json", workload.name));
            std::fs::write(&trace_path, tracer.chrome_json(&names))
                .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
            eprintln!("wrote {}", trace_path.display());
            summary::per_layer(&passes[index], (ref_start_s + ref_end_s) / 2.0)
        }
        None => {
            let passes: Vec<&Pass> = passes.iter().collect();
            let end_to_end = summary::end_to_end(&passes, workload);
            for m in &end_to_end {
                eprintln!("  {:<16} {:>14.6} {}", m.name, m.value, m.unit);
            }
            end_to_end
        }
    };
    println!(
        "{}",
        summary::result_json(failed == 0, attempted, failed, &metrics)
    );
    Ok(())
}

/// Repeats passes until `args.seconds` have elapsed (at least one),
/// traced ones with `--trace 1`. Returns every pass, and for a traced run
/// the index of the pass with the median total time, with its spans.
fn measure(
    workload: &Workload,
    inputs: &[PathBuf],
    args: &Args,
) -> (Vec<Pass>, Option<(usize, Tracer)>) {
    let start = Instant::now();
    let mut passes = Vec::new();
    let mut tracers: Vec<(usize, Tracer)> = Vec::new();
    while passes.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let pass = if args.trace {
            let mut tracer = Tracer::new();
            let pass = run_pass(workload, inputs, Some(&mut tracer));
            tracers.push((passes.len(), tracer));
            pass
        } else {
            run_pass(workload, inputs, None)
        };
        if passes.is_empty() {
            print_operations(workload, &pass);
        }
        eprintln!(
            "pass {}: setup {:.3} s, assign {:.3} s, peak {:.1} MB",
            passes.len(),
            pass.setup_s(),
            pass.assign_s(),
            pass.max_peak_rss_mb()
        );
        passes.push(pass);
    }
    tracers.sort_by(|(a, _), (b, _)| {
        let total = |i: usize| passes[i].setup_s() + passes[i].assign_s();
        total(*a).total_cmp(&total(*b))
    });
    let chosen = (!tracers.is_empty()).then(|| tracers.swap_remove((tracers.len() - 1) / 2));
    (passes, chosen)
}

/// One stderr line per operation of the first pass: what ran, how long
/// it took, and what it did to timing, vias and overflow.
fn print_operations(workload: &Workload, pass: &Pass) {
    for op in &pass.operations {
        let design = workload.design_label(op.design);
        match &op.outcome {
            Ok(q) => eprintln!(
                "  {design:<10} {:<8} {:>8.3} s  avg {:.1} -> {:.1}  max {:.1} -> {:.1}  \
                 via# {} -> {}  wire-OV {} -> {}  via-OV {} -> {}  rounds {}",
                op.backend.name(),
                op.assign_s,
                q.initial.avg_tcp,
                q.final_.avg_tcp,
                q.initial.max_tcp,
                q.final_.max_tcp,
                q.initial.via_count,
                q.final_.via_count,
                q.wire_overflow_initial,
                q.wire_overflow_final,
                q.initial.via_overflow,
                q.final_.via_overflow,
                q.rounds,
            ),
            Err(e) => eprintln!("  {design:<10} {:<8} FAILED {e}", op.backend.name()),
        }
    }
}
