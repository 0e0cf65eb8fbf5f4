//! `cpla-cli`: the command-line front end of the CPLA workspace.
//!
//! ```text
//! cpla-cli generate adaptec1 -o adaptec1.ispd
//! cpla-cli report adaptec1.ispd
//! cpla-cli optimize adaptec1.ispd --ratio 0.005 --engine sdp
//! ```

mod args;
mod svg;

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::process::ExitCode;
use std::time::Instant;

use args::{Assigner, Command, Engine, USAGE};
use cpla::{Cpla, CplaConfig, SolverKind};
use flow::{Cancel, FlowError, Greedy, GreedyConfig, LayerAssigner};
use ispd::SyntheticConfig;
use lagrange::{Lagrange, LagrangeConfig};
use portfolio::Race;
use route::{initial_assignment, route_netlist, RouterConfig};
use tila::{Tila, TilaConfig};

/// Anything `run` can fail with: a typed flow failure (mapped to a
/// distinct exit code per class), a front-end problem (exit 1), or a
/// failed result write to stdout (quiet success for `BrokenPipe` — the
/// Unix contract when the reader, e.g. `head`, hangs up — exit 1
/// otherwise).
#[derive(Debug)]
enum CliError {
    Flow { context: String, error: FlowError },
    Other(String),
    Stdout(std::io::Error),
}

impl CliError {
    fn message(&self) -> String {
        match self {
            CliError::Flow { context, error } if context.is_empty() => error.to_string(),
            CliError::Flow { context, error } => format!("{context}: {error}"),
            CliError::Other(msg) => msg.clone(),
            CliError::Stdout(e) => format!("cannot write to stdout: {e}"),
        }
    }

    fn exit_code(&self) -> u8 {
        match self {
            CliError::Flow { error, .. } => exit_code_for(error),
            CliError::Other(_) | CliError::Stdout(_) => 1,
        }
    }

    /// The downstream reader closed the pipe; by Unix convention this
    /// ends the program quietly with success, not a panic (the default
    /// `println!` behavior) or an error report.
    fn is_broken_pipe(&self) -> bool {
        matches!(self, CliError::Stdout(e) if e.kind() == std::io::ErrorKind::BrokenPipe)
    }
}

impl From<String> for CliError {
    fn from(msg: String) -> CliError {
        CliError::Other(msg)
    }
}

/// `writeln!` onto the locked stdout writer, lifting I/O failures into
/// [`CliError::Stdout`] so every print site stays one line.
macro_rules! outln {
    ($out:expr $(, $arg:expr)* $(,)?) => {
        writeln!($out $(, $arg)*).map_err(CliError::Stdout)
    };
}

/// One distinct non-zero exit code per [`FlowError`] class (2 is taken
/// by usage errors, 1 by untyped front-end failures).
fn exit_code_for(error: &FlowError) -> u8 {
    match error {
        FlowError::Parse(_) => 3,
        FlowError::Grid(_) => 4,
        FlowError::Config(_) => 5,
        FlowError::Solve(_) => 6,
        FlowError::Input(_) => 7,
        FlowError::Invariant(_) => 8,
        _ => 1,
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match args::parse(&argv) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let result = run(command, &mut out).and_then(|()| out.flush().map_err(CliError::Stdout));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.is_broken_pipe() => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message());
            ExitCode::from(e.exit_code())
        }
    }
}

fn run(command: Command, out: &mut dyn Write) -> Result<(), CliError> {
    match command {
        Command::Help => {
            outln!(out, "{USAGE}")?;
            Ok(())
        }
        Command::Generate { benchmark, output } => {
            let config = resolve_benchmark(&benchmark)?;
            let design = config.design()?;
            let file = File::create(&output).map_err(|e| format!("cannot create {output}: {e}"))?;
            ispd::write(&design, BufWriter::new(file)).map_err(|e| format!("write failed: {e}"))?;
            outln!(
                out,
                "wrote {output}: {}x{}x{} grid, {} nets",
                design.grid_x,
                design.grid_y,
                design.num_layers,
                design.nets.len()
            )?;
            Ok(())
        }
        Command::Report { input } => {
            let (mut grid, specs) = load(&input)?;
            let t0 = Instant::now();
            let netlist = route_netlist(&grid, &specs, &RouterConfig::default());
            let assignment = initial_assignment(&mut grid, &netlist);
            let report = timing::analyze(&grid, &netlist, &assignment);
            outln!(
                out,
                "{input}: {}x{}x{} grid, {} nets routed in {:.2}s",
                grid.width(),
                grid.height(),
                grid.num_layers(),
                netlist.len(),
                t0.elapsed().as_secs_f64()
            )?;
            outln!(
                out,
                "wirelength {}  vias {}  wire-OV {}  via-OV {}",
                netlist
                    .nets()
                    .iter()
                    .map(|n| n.tree().wirelength())
                    .sum::<u64>(),
                grid.total_via_count(),
                grid.total_wire_overflow(),
                grid.total_via_overflow()
            )?;
            outln!(
                out,
                "critical-path delay: avg {:.1}  max {:.1}",
                report.avg_critical_delay(),
                report.max_critical_delay()
            )?;
            let order = report.nets_by_criticality();
            outln!(out, "worst 5 nets:")?;
            for &i in order.iter().take(5) {
                outln!(
                    out,
                    "  {:<12} Tcp {:.1}",
                    netlist.net(i).name(),
                    report.net(i).critical_delay()
                )?;
            }
            Ok(())
        }
        Command::Replay { input } => {
            let text =
                std::fs::read_to_string(&input).map_err(|e| format!("cannot read {input}: {e}"))?;
            let doc = conform::json::parse(&text).map_err(|e| format!("{input}: {e}"))?;
            let w = conform::io::workload_from_json(&doc).map_err(|e| format!("{input}: {e}"))?;
            // The failure envelope (when present) records the driving
            // seed; bare workload files replay under the default.
            let seed = doc
                .get("failure")
                .and_then(|f| f.get("seed"))
                .and_then(|s| s.as_u64())
                .unwrap_or_else(|| conform::TrialConfig::default().seed);
            let cfg = conform::TrialConfig {
                seed,
                ..conform::TrialConfig::default()
            };
            // Rebuild the trial's exact rng stream position: seed, fork
            // on the trial index, then the lattice draw the generator
            // consumed before the workload was built.
            let mut rng = prng::Rng::seed_from_u64(cfg.seed).fork(w.params.trial);
            let _ = conform::gen::GenParams::lattice(w.params.trial, &mut rng);
            let outcome = conform::check_workload(&cfg, &w, &mut rng);
            outln!(
                out,
                "{input}: trial {} [{}], {} nets",
                w.params.trial,
                w.params.describe(),
                w.netlist.len()
            )?;
            if let Some(c) = outcome.oracle_combos {
                outln!(
                    out,
                    "oracle: {c} combos enumerated (cpla gap {:?}, tila gap {:?})",
                    outcome.cpla_gap,
                    outcome.tila_gap
                )?;
            }
            for note in &outcome.notes {
                outln!(out, "note: {note}")?;
            }
            for f in &outcome.failures {
                outln!(
                    out,
                    "FAIL assigner={} class={}: {}",
                    f.assigner,
                    f.class.label(),
                    f.detail
                )?;
            }
            if outcome.passed() {
                outln!(out, "replay: all conformance gates passed")?;
                Ok(())
            } else {
                Err(CliError::Other(format!(
                    "replay: {} conformance failure(s)",
                    outcome.failures.len()
                )))
            }
        }
        Command::Svg {
            input,
            output,
            ratio,
        } => {
            let (mut grid, specs) = load(&input)?;
            let netlist = route_netlist(&grid, &specs, &RouterConfig::default());
            let assignment = initial_assignment(&mut grid, &netlist);
            let highlight = cpla::select_critical_nets(&grid, &netlist, &assignment, ratio);
            let doc = svg::render(&grid, &netlist, &assignment, &highlight);
            std::fs::write(&output, doc).map_err(|e| format!("cannot write {output}: {e}"))?;
            outln!(
                out,
                "wrote {output} ({} layers, {} highlighted nets)",
                grid.num_layers(),
                highlight.len()
            )?;
            Ok(())
        }
        Command::Optimize {
            input,
            assigner,
            ratio,
            engine,
            neighbors,
            threads,
            alpha,
            node_budget,
            trace_chrome,
            metrics,
        } => {
            let (mut grid, specs) = load(&input)?;
            let netlist = route_netlist(&grid, &specs, &RouterConfig::default());
            let mut assignment = initial_assignment(&mut grid, &netlist);

            // Every backend runs through the same `LayerAssigner` seam;
            // `--assigner` only decides which box is built. The CPLA
            // flags (`--engine`, `--alpha`, `--neighbors`, ...) carry
            // into the CPLA lane of a race unchanged.
            let cpla_box = || -> Box<dyn LayerAssigner + Send + Sync> {
                let solver = match engine {
                    Engine::Ilp => SolverKind::Ilp {
                        node_budget: node_budget.unwrap_or(5_000_000),
                    },
                    _ => CplaConfig::default().solver,
                };
                let defaults = CplaConfig::default();
                Box::new(Cpla::new(CplaConfig {
                    critical_ratio: ratio,
                    solver,
                    release_neighbors: neighbors,
                    threads,
                    alpha: alpha.unwrap_or(defaults.alpha),
                    ..defaults
                }))
            };
            let tila_box = || -> Box<dyn LayerAssigner + Send + Sync> {
                Box::new(Tila::new(TilaConfig {
                    critical_ratio: ratio,
                    ..TilaConfig::default()
                }))
            };
            let backend: Box<dyn LayerAssigner> = match assigner {
                Assigner::Cpla => cpla_box(),
                Assigner::Tila => tila_box(),
                Assigner::Lagrange => Box::new(Lagrange::new(LagrangeConfig {
                    critical_ratio: ratio,
                    ..LagrangeConfig::default()
                })),
                Assigner::Greedy => Box::new(Greedy::new(GreedyConfig {
                    critical_ratio: ratio,
                })),
                Assigner::Race => {
                    // Lanes in error-precedence order; the shared flag
                    // lets a poisoned lane stop the cancellable ones.
                    let cancel = Cancel::new();
                    Box::new(Race::with_cancel(
                        vec![
                            cpla_box(),
                            tila_box(),
                            Box::new(Lagrange::cancellable(
                                LagrangeConfig {
                                    critical_ratio: ratio,
                                    ..LagrangeConfig::default()
                                },
                                cancel.clone(),
                            )),
                            Box::new(Greedy::cancellable(
                                GreedyConfig {
                                    critical_ratio: ratio,
                                },
                                cancel.clone(),
                            )),
                        ],
                        cancel,
                    ))
                }
            };
            outln!(
                out,
                "{input}: {} nets, {}",
                netlist.len(),
                backend.config_description()
            )?;

            // Only pay for span recording when an exporter was requested;
            // the plain path stays observer-free.
            let observe = trace_chrome.is_some() || metrics.is_some();
            let mut recorder = obs::Recorder::new(assigner.to_string());
            let t0 = Instant::now();
            let report = if observe {
                backend.assign_observed(&mut grid, &netlist, &mut assignment, &mut [&mut recorder])
            } else {
                backend.assign(&mut grid, &netlist, &mut assignment)
            }
            .map_err(|error| CliError::Flow {
                context: input.clone(),
                error,
            })?;
            let secs = t0.elapsed().as_secs_f64();
            recorder.finish();
            if let Some(path) = &trace_chrome {
                std::fs::write(path, obs::chrome::export(&[&recorder]))
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                outln!(out, "wrote chrome trace {path}")?;
            }
            if let Some(path) = &metrics {
                std::fs::write(path, obs::prom::export(&[&recorder]))
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                outln!(out, "wrote metrics {path}")?;
            }
            if assigner == Assigner::Race {
                // The race replays the winning lane's report verbatim,
                // so its `assigner` names the lane that won.
                outln!(out, "race winner: {}", report.assigner)?;
            }
            let initial = report.initial_metrics;
            let m = report.final_metrics;
            outln!(
                out,
                "released {} nets ({:.2}%), {} rounds",
                report.released.len(),
                ratio * 100.0,
                report.rounds
            )?;
            outln!(
                out,
                "Avg(Tcp) {:>10.1} -> {:>10.1}  ({:+.1}%)",
                initial.avg_tcp,
                m.avg_tcp,
                100.0 * (m.avg_tcp - initial.avg_tcp) / initial.avg_tcp.max(1e-12)
            )?;
            outln!(
                out,
                "Max(Tcp) {:>10.1} -> {:>10.1}  ({:+.1}%)",
                initial.max_tcp,
                m.max_tcp,
                100.0 * (m.max_tcp - initial.max_tcp) / initial.max_tcp.max(1e-12)
            )?;
            outln!(
                out,
                "OV# {} -> {}   via# {} -> {}   {:.2}s",
                initial.via_overflow,
                m.via_overflow,
                initial.via_count,
                m.via_count,
                secs
            )?;
            assignment
                .validate(&netlist, &grid)
                .map_err(|e| format!("internal: invalid result: {e}"))?;
            Ok(())
        }
    }
}

/// Resolves a benchmark name: a named paper config or `small:<seed>`.
fn resolve_benchmark(name: &str) -> Result<SyntheticConfig, String> {
    if let Some(seed) = name.strip_prefix("small:") {
        let seed: u64 = seed.parse().map_err(|_| format!("bad seed in `{name}`"))?;
        return Ok(SyntheticConfig::small(seed));
    }
    SyntheticConfig::named(name).ok_or_else(|| {
        format!(
            "unknown benchmark `{name}`; valid: {}, small:<seed>",
            SyntheticConfig::all_paper_benchmarks()
                .iter()
                .map(|c| c.name.clone())
                .collect::<Vec<_>>()
                .join(", ")
        )
    })
}

/// Loads an ISPD'08 file into a grid plus net specs. Parse and grid
/// failures stay typed so `main` can map them to their exit codes.
fn load(path: &str) -> Result<(grid::Grid, Vec<net::NetSpec>), CliError> {
    let file = File::open(path).map_err(|e| CliError::Other(format!("cannot open {path}: {e}")))?;
    let design = ispd::parse(BufReader::new(file)).map_err(|error| CliError::Flow {
        context: path.to_string(),
        error: FlowError::Parse(error),
    })?;
    let grid = design.to_grid().map_err(|error| CliError::Flow {
        context: path.to_string(),
        error: FlowError::Grid(error),
    })?;
    Ok((grid, design.nets))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flow::{ConfigError, GridError, InputError, SolveError};

    #[test]
    fn every_flow_error_class_gets_its_documented_exit_code() {
        let codes = [
            exit_code_for(&FlowError::Parse(ispd::ParseError {
                line: 1,
                token: String::new(),
                kind: ispd::ParseErrorKind::UnexpectedEof,
            })),
            exit_code_for(&FlowError::Grid(GridError::InvalidAdjustment {
                detail: "x".into(),
            })),
            exit_code_for(&FlowError::Config(ConfigError {
                field: "f",
                value: "v".into(),
                reason: "r",
            })),
            exit_code_for(&FlowError::Solve(SolveError::BudgetExhausted { budget: 1 })),
            exit_code_for(&FlowError::Input(InputError::ShapeMismatch {
                detail: "x".into(),
            })),
            exit_code_for(&FlowError::Invariant(flow::InvariantError::Assignment {
                detail: "x".into(),
            })),
        ];
        // Exact values, not just distinctness: scripts and CI match on
        // these numbers (0 success, 1 untyped, 2 usage are reserved).
        assert_eq!(codes, [3, 4, 5, 6, 7, 8], "exit codes drifted");
    }
}
