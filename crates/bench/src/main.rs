//! `cpla-bench`: end-to-end benchmark of the incremental CPLA pipeline
//! on a synthetic ISPD-like workload, emitting machine-readable JSON
//! (stats are hand-serialized — the toolchain is hermetic, no serde).
//!
//! ```text
//! cargo run --release -p cpla-bench -- --threads 4 --nets 400
//! ```
//!
//! Flags (all optional): `--seed N`, `--nets N`, `--size WxH`,
//! `--layers N`, `--capacity N`, `--threads N`, `--ratio F`,
//! `--rounds N`, `--reps N`,
//! `--trace <file.jsonl>` (per-stage JSON-lines trace),
//! `--alloc-stats` (per-span allocation accounting),
//! `--trace-chrome <file.json>` (Chrome `trace_event` span dump for
//! `chrome://tracing`/Perfetto), `--metrics <file.txt>` (Prometheus
//! text dump), `--bench-json <file|none>` (per-stage p50/p95 baseline,
//! default `BENCH_cpla.json`), `--preset scale-100k|scale-1m` (fix the
//! design to a scale-generator config, overriding the design flags),
//! `--compare-threads N` (additionally run the workload at 1 and N
//! threads and record the wall ratio under `thread_scaling`),
//! `--assigners tila,lagrange,greedy,race` (extra stdout rows).
//! A flag error exits 2 with a message naming the flag.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::time::Instant;

use cpla::{Cpla, CplaConfig, CplaReport, PipelineStats};
use flow::{RoundSnapshot, Stage, StageObserver};
use grid::Grid;
use ispd::SyntheticConfig;
use net::{Assignment, Netlist};
use obs::Recorder;
use route::{initial_assignment, Router, RouterConfig};

/// Counting allocator so `--alloc-stats` can attribute bytes to spans;
/// counting stays disabled (one relaxed load per call) without the flag.
#[global_allocator]
static ALLOC: obs::CountingAlloc = obs::CountingAlloc::new();

/// Label of the CPLA run in every report: its key in the JSON outputs
/// and the name of its span recorder.
const CELL: &str = "incremental";

/// A [`StageObserver`] that appends one JSON object per stage boundary
/// and per round to a file — the machine-readable counterpart of
/// watching the pipeline run. Hand-serialized like the summary JSON
/// (the toolchain is hermetic, no serde).
struct JsonlTrace {
    out: BufWriter<File>,
    /// Repetition index stamped on every record.
    rep: usize,
}

impl JsonlTrace {
    fn create(path: &str) -> JsonlTrace {
        let file = File::create(path).unwrap_or_else(|e| {
            eprintln!("cannot create trace file {path}: {e}");
            std::process::exit(2);
        });
        JsonlTrace {
            out: BufWriter::new(file),
            rep: 0,
        }
    }

    fn write(&mut self, record: String) {
        writeln!(self.out, "{record}").unwrap_or_else(|e| {
            eprintln!("trace write failed: {e}");
            std::process::exit(2);
        });
    }
}

impl StageObserver for JsonlTrace {
    fn on_stage_start(&mut self, round: usize, stage: Stage) {
        let record = format!(
            "{{\"event\":\"stage_start\",\"mode\":\"{CELL}\",\"rep\":{},\
             \"round\":{},\"stage\":\"{}\"}}",
            self.rep,
            round,
            stage.name(),
        );
        self.write(record);
    }

    fn on_stage_end(&mut self, round: usize, stage: Stage, seconds: f64) {
        let record = format!(
            "{{\"event\":\"stage_end\",\"mode\":\"{CELL}\",\"rep\":{},\
             \"round\":{},\"stage\":\"{}\",\"seconds\":{:.6}}}",
            self.rep,
            round,
            stage.name(),
            seconds,
        );
        self.write(record);
    }

    fn on_round_end(&mut self, snapshot: &RoundSnapshot) {
        let c = snapshot.counters;
        let record = format!(
            "{{\"event\":\"round_end\",\"mode\":\"{CELL}\",\"rep\":{},\
             \"round\":{},\"objective\":{:.6},\"improved\":{},\
             \"partitions_solved\":{},\"partitions_reused\":{},\
             \"evaluations\":{},\"gate_accepted\":{},\"gate_rejected\":{}}}",
            self.rep,
            snapshot.round,
            snapshot.objective,
            snapshot.improved,
            c.partitions_solved,
            c.partitions_reused,
            c.evaluations,
            c.gate_accepted,
            c.gate_rejected,
        );
        self.write(record);
    }
}

#[derive(Clone)]
struct Args {
    seed: u64,
    nets: usize,
    width: u16,
    height: u16,
    layers: usize,
    capacity: u32,
    threads: usize,
    ratio: f64,
    rounds: usize,
    reps: usize,
    trace: Option<String>,
    alloc_stats: bool,
    trace_chrome: Option<String>,
    metrics: Option<String>,
    bench_json: Option<String>,
    /// Scale-generator config name; fixes the design fields.
    preset: Option<String>,
    /// Also run the workload at 1 and N threads and record the wall
    /// ratio.
    compare_threads: Option<usize>,
    /// Extra `LayerAssigner` backends to row up against the CPLA run
    /// (`tila`, `lagrange`, `greedy`, `race`). Only the stdout summary
    /// gains an `assigners` object; the baseline-checked
    /// `BENCH_cpla.json` is untouched, so CI diffs stay stable.
    assigners: Vec<String>,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            seed: 42,
            nets: 400,
            width: 48,
            height: 48,
            layers: 6,
            capacity: 6,
            threads: 4,
            ratio: 0.05,
            rounds: 8,
            reps: 3,
            trace: None,
            alloc_stats: false,
            trace_chrome: None,
            metrics: None,
            bench_json: Some("BENCH_cpla.json".to_string()),
            preset: None,
            compare_threads: None,
            assigners: Vec::new(),
        }
    }
}

/// Parses `name`'s value, or exits 2 with a message naming the flag.
fn parse_flag<T: std::str::FromStr>(name: &str, v: &str) -> T {
    v.parse().unwrap_or_else(|_| {
        eprintln!("{name}: not a valid value: {v}");
        std::process::exit(2);
    })
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--seed" => args.seed = parse_flag("--seed", &value("--seed")),
            "--nets" => args.nets = parse_flag("--nets", &value("--nets")),
            "--size" => {
                let v = value("--size");
                let (w, h) = v.split_once('x').unwrap_or_else(|| {
                    eprintln!("--size expects WxH, got {v}");
                    std::process::exit(2);
                });
                args.width = parse_flag("--size", w);
                args.height = parse_flag("--size", h);
            }
            "--layers" => args.layers = parse_flag("--layers", &value("--layers")),
            "--capacity" => args.capacity = parse_flag("--capacity", &value("--capacity")),
            "--threads" => args.threads = parse_flag("--threads", &value("--threads")),
            "--ratio" => {
                args.ratio = parse_flag("--ratio", &value("--ratio"));
                if let Err(e) = flow::validate_ratio("--ratio", args.ratio) {
                    eprintln!("{e}");
                    std::process::exit(2);
                }
            }
            "--rounds" => args.rounds = parse_flag("--rounds", &value("--rounds")),
            "--reps" => args.reps = parse_flag("--reps", &value("--reps")),
            "--trace" => args.trace = Some(value("--trace")),
            "--alloc-stats" => args.alloc_stats = true,
            "--trace-chrome" => args.trace_chrome = Some(value("--trace-chrome")),
            "--metrics" => args.metrics = Some(value("--metrics")),
            "--bench-json" => {
                let v = value("--bench-json");
                args.bench_json = (v != "none").then_some(v);
            }
            "--preset" => {
                let v = value("--preset");
                if SyntheticConfig::scale(&v).is_none() {
                    eprintln!("--preset expects scale-100k|scale-1m, got {v}");
                    std::process::exit(2);
                }
                args.preset = Some(v);
            }
            "--compare-threads" => {
                args.compare_threads =
                    Some(parse_flag("--compare-threads", &value("--compare-threads")))
            }
            "--assigners" => {
                let v = value("--assigners");
                for name in v.split(',').filter(|s| !s.is_empty()) {
                    if !matches!(name, "tila" | "lagrange" | "greedy" | "race") {
                        eprintln!("--assigners expects tila|lagrange|greedy|race (comma-separated), got {name}");
                        std::process::exit(2);
                    }
                    if !args.assigners.iter().any(|a| a == name) {
                        args.assigners.push(name.to_string());
                    }
                }
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: cpla-bench [--seed N] [--nets N] [--size WxH] \
                     [--layers N] [--capacity N] [--threads N] [--ratio F] \
                     [--rounds N] [--reps N] [--trace file.jsonl] \
                     [--alloc-stats] [--trace-chrome file.json] \
                     [--metrics file.txt] [--bench-json file|none] \
                     [--preset scale-100k|scale-1m] [--compare-threads N] \
                     [--assigners tila,lagrange,greedy,race]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

struct RunOutcome {
    wall_secs: f64,
    report: CplaReport,
    /// Span tree of the fastest repetition.
    recorder: Recorder,
    /// Peak live heap bytes (RSS proxy) over the fastest repetition;
    /// zero unless `--alloc-stats`.
    peak_alloc_bytes: u64,
    /// Final wire overflow of the optimized assignment.
    wire_overflow: u64,
}

fn run_cpla(
    args: &Args,
    grid: &Grid,
    netlist: &Netlist,
    assignment: &Assignment,
    mut trace: Option<&mut JsonlTrace>,
) -> RunOutcome {
    let config = CplaConfig {
        critical_ratio: args.ratio,
        max_rounds: args.rounds,
        threads: args.threads,
        alloc_stats: args.alloc_stats,
        ..CplaConfig::default()
    };
    // The engine is deterministic, so repetitions only differ in
    // scheduler noise: report the minimum wall time.
    let mut best: Option<RunOutcome> = None;
    for rep in 0..args.reps.max(1) {
        let mut grid = grid.clone();
        let mut assignment = assignment.clone();
        let mut recorder = Recorder::new(CELL);
        obs::alloc::reset_peak();
        let mut observers: Vec<&mut dyn flow::StageObserver> = Vec::new();
        if let Some(t) = trace.as_deref_mut() {
            t.rep = rep;
            observers.push(t);
        }
        observers.push(&mut recorder);
        let start = Instant::now();
        // invariant: the synthetic workload and CLI-derived config are
        // well-formed; a flow error here is a harness bug.
        let report = Cpla::new(config)
            .run_observed(&mut grid, netlist, &mut assignment, &mut observers)
            .expect("benchmark workload is well-formed");
        let wall_secs = start.elapsed().as_secs_f64();
        recorder.finish();
        let peak_alloc_bytes = obs::alloc::peak_bytes();
        let wire_overflow = grid.total_wire_overflow();
        if best.as_ref().is_none_or(|b| wall_secs < b.wall_secs) {
            best = Some(RunOutcome {
                wall_secs,
                report,
                recorder,
                peak_alloc_bytes,
                wire_overflow,
            });
        }
    }
    best.expect("at least one repetition")
}

/// One `--assigners` row: the named backend run through the
/// `LayerAssigner` seam on the same routed workload the CPLA run used;
/// minimum wall time over `--reps` repetitions, like `run_cpla`.
fn run_assigner(
    args: &Args,
    name: &str,
    grid: &Grid,
    netlist: &Netlist,
    assignment: &Assignment,
) -> String {
    let make = || -> Box<dyn flow::LayerAssigner> {
        match name {
            "tila" => Box::new(conform::tila_backend(args.ratio)),
            "lagrange" => Box::new(conform::lagrange_backend(args.ratio)),
            "greedy" => Box::new(conform::greedy_backend(args.ratio)),
            // invariant: parse_args rejected every other name.
            _ => Box::new(conform::race_backend(args.ratio, args.threads)),
        }
    };
    let mut best: Option<(f64, flow::FlowReport, u64, u64)> = None;
    for _ in 0..args.reps.max(1) {
        let mut grid = grid.clone();
        let mut assignment = assignment.clone();
        let start = Instant::now();
        // invariant: the synthetic workload and ratio are well-formed;
        // a flow error here is a harness bug.
        let report = make()
            .assign(&mut grid, netlist, &mut assignment)
            .expect("benchmark workload is well-formed");
        let wall_secs = start.elapsed().as_secs_f64();
        let wire = grid.total_wire_overflow();
        let via = grid.total_via_overflow();
        if best.as_ref().is_none_or(|b| wall_secs < b.0) {
            best = Some((wall_secs, report, wire, via));
        }
    }
    let (wall_secs, report, wire, via) = best.expect("at least one repetition");
    format!(
        "\"{name}\":{{\"wall_secs\":{:.6},\"winner\":\"{}\",\
         \"avg_tcp_initial\":{:.6},\"avg_tcp_final\":{:.6},\
         \"max_tcp_final\":{:.6},\"wire_overflow\":{wire},\
         \"via_overflow\":{via},\"rounds\":{},\"released\":{}}}",
        wall_secs,
        report.assigner,
        report.initial_metrics.avg_tcp,
        report.final_metrics.avg_tcp,
        report.final_metrics.max_tcp,
        report.rounds,
        report.released.len(),
    )
}

fn json_stats(s: &PipelineStats) -> String {
    format!(
        "{{\"rounds\":{},\"partitions_solved\":{},\
         \"partitions_reused\":{},\"cache_entries\":{},\"cache_hit_rate\":{:.4},\
         \"evaluations\":{},\"gate_accepted\":{},\"gate_rejected\":{},\
         \"warm_starts\":{}}}",
        s.rounds,
        s.partitions_solved,
        s.partitions_reused,
        s.cache_entries,
        s.cache_hit_rate(),
        s.evaluations,
        s.gate_accepted,
        s.gate_rejected,
        s.warm_starts,
    )
}

fn json_run(o: &RunOutcome) -> String {
    format!(
        "{{\"wall_secs\":{:.6},\"avg_tcp_initial\":{:.6},\
         \"avg_tcp_final\":{:.6},\"max_tcp_final\":{:.6},\"rounds\":{},\
         \"released\":{},\"stats\":{}}}",
        o.wall_secs,
        o.report.initial_metrics.avg_tcp,
        o.report.final_metrics.avg_tcp,
        o.report.final_metrics.max_tcp,
        o.report.rounds.len(),
        o.report.released.len(),
        json_stats(&o.report.stats),
    )
}

/// The run's entry under `modes` in `BENCH_cpla.json`: run-level
/// quality/cost numbers plus the per-stage p50/p95 wall and allocation
/// rollup.
/// `peak_alloc_bytes` is `null` unless `--alloc-stats` actually
/// measured it — a literal 0 would read as "measured, allocated
/// nothing", which is never true. `cpla-bench-check` rejects any mode
/// field outside its `MODE_FIELDS` list, so a field added or dropped
/// here goes there too.
fn json_bench_mode(o: &RunOutcome, alloc_stats: bool) -> String {
    let stages = obs::summarize(&o.recorder)
        .iter()
        .map(|s| {
            format!(
                "\"{}\":{{\"rounds\":{},\"wall_total_secs\":{:.6},\
                 \"wall_p50_secs\":{:.6},\"wall_p95_secs\":{:.6},\
                 \"alloc_bytes\":{},\"alloc_events\":{},\"leaves\":{}}}",
                s.stage.name(),
                s.samples,
                s.wall_total_secs,
                s.wall_p50_secs,
                s.wall_p95_secs,
                s.alloc_bytes,
                s.alloc_events,
                s.leaves,
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"wall_secs\":{:.6},\"avg_tcp_initial\":{:.6},\
         \"avg_tcp_final\":{:.6},\"max_tcp_final\":{:.6},\
         \"via_overflow\":{},\"via_count\":{},\"wire_overflow\":{},\
         \"rounds\":{},\"released\":{},\"peak_alloc_bytes\":{},\
         \"stages\":{{{}}}}}",
        o.wall_secs,
        o.report.initial_metrics.avg_tcp,
        o.report.final_metrics.avg_tcp,
        o.report.final_metrics.max_tcp,
        o.report.final_metrics.via_overflow,
        o.report.final_metrics.via_count,
        o.wire_overflow,
        o.report.rounds.len(),
        o.report.released.len(),
        if alloc_stats {
            o.peak_alloc_bytes.to_string()
        } else {
            "null".to_string()
        },
        stages,
    )
}

/// The process's peak resident set so far, in MB: `VmHWM` from
/// `/proc/self/status`, or `None` where that cannot be read.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The whole `BENCH_cpla.json` document. Stage *keys* are the stable
/// contract (CI diffs them against the committed baseline); the numeric
/// values are a trajectory, expected to drift run to run. The header
/// names the machine's core count, the process's peak resident set up
/// to the write (either is `null` where the platform cannot say) and
/// the wall time of routing the design.
fn json_bench(
    args: &Args,
    route_secs: f64,
    o: &RunOutcome,
    thread_scaling: Option<&str>,
) -> String {
    let cores = std::thread::available_parallelism().map_or("null".to_string(), |n| n.to_string());
    let peak_rss = peak_rss_mb().map_or("null".to_string(), |mb| format!("{mb:.1}"));
    format!(
        "{{\n\"schema\":2,\n\"design\":{{\"seed\":{},\"nets\":{},\"width\":{},\
         \"height\":{},\"layers\":{},\"capacity\":{},\"preset\":{}}},\n\
         \"threads\":{},\"cores\":{cores},\"peak_rss_mb\":{peak_rss},\
         \"route_secs\":{route_secs:.6},\"reps\":{},\
         \"ratio\":{},\"rounds\":{},\"alloc_stats\":{},\"thread_scaling\":{},\n\
         \"modes\":{{\"{CELL}\":{}}}\n}}\n",
        args.seed,
        args.nets,
        args.width,
        args.height,
        args.layers,
        args.capacity,
        args.preset
            .as_deref()
            .map_or("null".to_string(), |p| format!("\"{p}\"")),
        args.threads,
        args.reps,
        args.ratio,
        args.rounds,
        args.alloc_stats,
        thread_scaling.unwrap_or("null"),
        json_bench_mode(o, args.alloc_stats),
    )
}

fn write_artifact(path: &str, what: &str, contents: &str) {
    std::fs::write(path, contents).unwrap_or_else(|e| {
        eprintln!("cannot write {what} {path}: {e}");
        std::process::exit(2);
    });
}

fn main() {
    let mut args = parse_args();

    // A preset pins the whole design shape (including pin-count and
    // locality distributions the individual flags can't express); the
    // design flags are folded back into `args` so every emitted JSON
    // reflects the actual workload.
    let cfg = match &args.preset {
        Some(name) => {
            // invariant: parse_args rejected unknown preset names.
            let p = SyntheticConfig::scale(name).expect("preset validated at parse time");
            args.seed = p.seed;
            args.nets = p.num_nets;
            args.width = p.width;
            args.height = p.height;
            args.layers = p.layers;
            args.capacity = p.capacity;
            p
        }
        None => {
            let mut cfg = SyntheticConfig::small(args.seed);
            cfg.name = format!("bench-{}", args.seed);
            cfg.width = args.width;
            cfg.height = args.height;
            cfg.layers = args.layers;
            cfg.num_nets = args.nets;
            cfg.capacity = args.capacity;
            cfg
        }
    };
    let (mut grid, specs) = cfg.generate().expect("synthetic design");
    let route_start = Instant::now();
    let mut router = Router::new(&grid, &RouterConfig::default());
    let netlist = router.route_all(&specs);
    let route_secs = route_start.elapsed().as_secs_f64();
    let routed = router.stats();
    let assignment = initial_assignment(&mut grid, &netlist);
    eprintln!(
        "design {}: {} nets routed to {} segments in {route_secs:.3} s \
         ({} maze searches, {} maze paths kept, {} cells settled, {} cells labelled)",
        cfg.name,
        netlist.len(),
        netlist.num_segments(),
        routed.maze_searches,
        routed.maze_paths_kept,
        routed.cells_settled,
        routed.cells_labelled,
    );

    let mut trace = args.trace.as_deref().map(JsonlTrace::create);
    let outcome = run_cpla(&args, &grid, &netlist, &assignment, trace.as_mut());
    if let Some(t) = trace.as_mut() {
        t.out.flush().unwrap_or_else(|e| {
            eprintln!("trace flush failed: {e}");
            std::process::exit(2);
        });
    }

    // --compare-threads: rerun at 1 and N threads (fresh runs so the
    // run above stays comparable) and record the wall ratio. This is
    // the shard-scaling evidence the scale presets exist to collect.
    let thread_scaling = args.compare_threads.map(|n| {
        let run_at = |threads: usize| {
            let mut a = args.clone();
            a.threads = threads;
            run_cpla(&a, &grid, &netlist, &assignment, None)
        };
        let base = run_at(1);
        let scaled = run_at(n.max(1));
        format!(
            "{{\"cell\":\"{CELL}\",\"threads\":{},\
             \"wall_threads1_secs\":{:.6},\"wall_secs\":{:.6},\
             \"ratio\":{:.4}}}",
            n.max(1),
            base.wall_secs,
            scaled.wall_secs,
            scaled.wall_secs / base.wall_secs.max(1e-12),
        )
    });

    let recorders = [&outcome.recorder];
    if let Some(path) = &args.trace_chrome {
        write_artifact(path, "chrome trace", &obs::chrome::export(&recorders));
    }
    if let Some(path) = &args.metrics {
        write_artifact(path, "metrics dump", &obs::prom::export(&recorders));
    }
    if let Some(path) = &args.bench_json {
        write_artifact(
            path,
            "bench baseline",
            &json_bench(&args, route_secs, &outcome, thread_scaling.as_deref()),
        );
    }

    let mut fields = vec![
        format!(
            "\"design\":{{\"seed\":{},\"nets\":{},\"width\":{},\"height\":{},\
             \"layers\":{},\"capacity\":{}}},\"threads\":{}",
            args.seed, args.nets, args.width, args.height, args.layers, args.capacity, args.threads,
        ),
        format!("\"{CELL}\":{}", json_run(&outcome)),
    ];
    if let Some(ts) = &thread_scaling {
        fields.push(format!("\"thread_scaling\":{ts}"));
    }
    // `--assigners`: cross-backend rows on the identical routed input.
    // Stdout-only on purpose — BENCH_cpla.json is diffed against a
    // committed baseline whose key set must not depend on this flag.
    if !args.assigners.is_empty() {
        let rows: Vec<String> = args
            .assigners
            .iter()
            .map(|name| run_assigner(&args, name, &grid, &netlist, &assignment))
            .collect();
        fields.push(format!("\"assigners\":{{{}}}", rows.join(",")));
    }
    println!("{{{}}}", fields.join(","));
}
