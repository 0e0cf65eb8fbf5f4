//! One measured pass over a workload: the `cpla-cli optimize` path on
//! every design, timed call by call, with every output checked after
//! its timed interval.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use flow::{FlowError, FlowReport, Metrics};
use grid::Grid;
use net::{Assignment, Netlist};
use route::{initial_assignment, route_netlist, RouterConfig};

use crate::host;
use crate::trace::{AssignStats, AssignTracer, Tracer};
use crate::workload::{Backend, Workload};

/// Writes every design of `workload` as an ISPD'08 file under `dir`
/// and returns the paths, in design order. Nothing here is timed.
///
/// # Errors
///
/// Returns a message if a design cannot be generated or written.
pub fn write_inputs(workload: &Workload, dir: &Path) -> Result<Vec<PathBuf>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    workload
        .designs
        .iter()
        .enumerate()
        .map(|(d, config)| {
            let design = config.design()?;
            let path = dir.join(format!("{d:03}-{}.ispd", config.name));
            let file = File::create(&path)
                .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
            let mut out = BufWriter::new(file);
            ispd::write(&design, &mut out)
                .and_then(|()| out.flush())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            Ok(path)
        })
        .collect()
}

/// Wall time of the four front-end calls of one design, in seconds.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct SetupTimes {
    /// `ispd::parse`.
    pub parse: f64,
    /// `IspdDesign::to_grid`.
    pub to_grid: f64,
    /// `route::route_netlist`.
    pub route: f64,
    /// `route::initial_assignment`.
    pub initial: f64,
}

impl SetupTimes {
    /// Total set-up time.
    pub fn total(&self) -> f64 {
        self.parse + self.to_grid + self.route + self.initial
    }
}

/// The initial state every backend of a design starts from.
#[derive(Clone, Debug)]
struct Prepared {
    grid: Grid,
    netlist: Netlist,
    assignment: Assignment,
}

/// Runs the front end exactly as `cpla-cli optimize` does and returns
/// the state with the boundaries of the four timed calls.
fn set_up(path: &Path) -> Result<(Prepared, [Instant; 5]), String> {
    let file = File::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    let reader = BufReader::new(file);
    let t0 = Instant::now();
    let design = ispd::parse(reader).map_err(|e| FlowError::Parse(e).to_string())?;
    let t1 = Instant::now();
    let mut grid = design
        .to_grid()
        .map_err(|e| FlowError::Grid(e).to_string())?;
    let t2 = Instant::now();
    let netlist = route_netlist(&grid, &design.nets, &RouterConfig::default());
    let t3 = Instant::now();
    let assignment = initial_assignment(&mut grid, &netlist);
    let t4 = Instant::now();
    let prepared = Prepared {
        grid,
        netlist,
        assignment,
    };
    Ok((prepared, [t0, t1, t2, t3, t4]))
}

/// Quality of one assign call: the report's own before/after metrics
/// plus the design-wide wire overflow around the call.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Quality {
    /// Metrics of the released nets before the call.
    pub initial: Metrics,
    /// Metrics of the released nets after the call.
    pub final_: Metrics,
    /// Design-wide wire overflow before the call.
    pub wire_overflow_initial: u64,
    /// Design-wide wire overflow after the call.
    pub wire_overflow_final: u64,
    /// Rounds the assigner ran.
    pub rounds: usize,
}

impl Quality {
    /// Final minus initial wire plus via overflow.
    pub fn overflow_delta(&self) -> i64 {
        let before = self.wire_overflow_initial + self.initial.via_overflow;
        let after = self.wire_overflow_final + self.final_.via_overflow;
        after as i64 - before as i64
    }
}

/// One assign call on one design: its time and checked outcome.
#[derive(Clone, PartialEq, Debug)]
pub struct Operation {
    /// Design index within the workload.
    pub design: usize,
    /// The backend that ran.
    pub backend: Backend,
    /// Wall time of `LayerAssigner::assign`, in seconds.
    pub assign_s: f64,
    /// The checked quality, or why the operation failed.
    pub outcome: Result<Quality, String>,
    /// Stage statistics, on traced operations only.
    pub stats: Option<AssignStats>,
}

/// What a traced pass learns about one design beyond its timings.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct DesignTrace {
    /// Size of the ISPD'08 input file, in MB.
    pub input_mb: f64,
    /// Routed segments.
    pub segments: usize,
    /// Wire overflow after the initial assignment.
    pub wire_overflow: u64,
    /// One full `timing::analyze` of the initial state, in seconds.
    pub analyze_s: f64,
    /// Resident set right after set-up.
    pub rss_after_setup_mb: f64,
    /// Largest resident set right after an assign call.
    pub rss_after_assign_mb: f64,
}

/// One pass over every design of a workload.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Pass {
    /// Whether each assign also ran with the benchmark's observer.
    pub traced: bool,
    /// Front-end timings per design (zero where set-up failed).
    pub setup: Vec<SetupTimes>,
    /// Every assign call, in run order: by design, then backend.
    pub operations: Vec<Operation>,
    /// Peak resident set of each design's set-up plus assign calls
    /// (zero where set-up failed).
    pub peak_rss_mb: Vec<f64>,
    /// Per-design extras, on traced passes only.
    pub designs: Vec<DesignTrace>,
}

impl Pass {
    /// Total set-up time.
    pub fn setup_s(&self) -> f64 {
        self.setup.iter().map(SetupTimes::total).sum()
    }

    /// Total assign time.
    pub fn assign_s(&self) -> f64 {
        self.operations.iter().map(|op| op.assign_s).sum()
    }

    /// Peak resident set of the pass's largest design.
    pub fn max_peak_rss_mb(&self) -> f64 {
        self.peak_rss_mb.iter().copied().fold(0.0, f64::max)
    }
}

/// Runs one pass over `inputs` (the files [`write_inputs`] wrote for
/// `workload`). With a `tracer`, every layer call is recorded as a span,
/// and every assign runs twice: plain, and with an [`AssignTracer`]
/// attached.
///
/// A failed set-up, a `FlowError`, a panic or a failed check fails the
/// operations concerned; the pass goes on with the next one.
pub fn run_pass(workload: &Workload, inputs: &[PathBuf], mut tracer: Option<&mut Tracer>) -> Pass {
    let mut pass = Pass {
        traced: tracer.is_some(),
        ..Pass::default()
    };
    for (d, path) in inputs.iter().enumerate() {
        host::reset_peak_rss();
        let setup = catch_unwind(AssertUnwindSafe(|| set_up(path)))
            .unwrap_or_else(|_| Err("panic during set-up".to_owned()));
        let (prepared, t) = match setup {
            Ok(ok) => ok,
            Err(e) => {
                pass.setup.push(SetupTimes::default());
                pass.peak_rss_mb.push(0.0);
                if pass.traced {
                    pass.designs.push(DesignTrace::default());
                }
                for &backend in &workload.backends {
                    pass.operations.push(Operation {
                        design: d,
                        backend,
                        assign_s: 0.0,
                        outcome: Err(e.clone()),
                        stats: None,
                    });
                }
                continue;
            }
        };
        let secs = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
        pass.setup.push(SetupTimes {
            parse: secs(t[0], t[1]),
            to_grid: secs(t[1], t[2]),
            route: secs(t[2], t[3]),
            initial: secs(t[3], t[4]),
        });
        let mut extra = DesignTrace::default();
        if let Some(tracer) = tracer.as_deref_mut() {
            for (i, name) in ["parse", "to_grid", "route", "initial"]
                .into_iter()
                .enumerate()
            {
                tracer.record(name, d, None, t[i], t[i + 1]);
            }
            extra = trace_design(tracer, d, path, &prepared);
        }
        // A traced pass runs every backend twice, plain and traced, in an
        // order that alternates by design: the pair sees the same host
        // phase, so their difference is the tracing overhead.
        let modes: &[bool] = match (pass.traced, d % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        let runs = workload.backends.len() * modes.len();
        let mut prepared = Some(prepared);
        let mut peak_rss_mb = 0.0f64;
        for (i, (&backend, &traced)) in workload
            .backends
            .iter()
            .flat_map(|b| modes.iter().map(move |m| (b, m)))
            .enumerate()
        {
            // The last run takes the prepared state itself; earlier ones
            // work on clones so every run starts from the same initial
            // assignment.
            let mut state = if i + 1 == runs {
                prepared.take()
            } else {
                prepared.clone()
            }
            .expect("prepared state is taken only by the last run");
            let tracer = if traced { tracer.as_deref_mut() } else { None };
            let op = run_operation(d, backend, &mut state, tracer);
            peak_rss_mb = peak_rss_mb.max(host::peak_rss_mb());
            extra.rss_after_assign_mb = extra.rss_after_assign_mb.max(host::rss_mb());
            pass.operations.push(check_operation(op, &state));
            drop(state);
            host::reset_peak_rss();
        }
        pass.peak_rss_mb.push(peak_rss_mb);
        if pass.traced {
            pass.designs.push(extra);
        }
    }
    pass
}

/// Records the traced pass's per-design extras: input size, segments,
/// overflow, resident set, and one timed full timing analysis (outside
/// both the set-up and the assign intervals).
fn trace_design(tracer: &mut Tracer, d: usize, path: &Path, p: &Prepared) -> DesignTrace {
    let rss_after_setup_mb = host::rss_mb();
    let start = Instant::now();
    let report = timing::analyze(&p.grid, &p.netlist, &p.assignment);
    let end = Instant::now();
    std::hint::black_box(&report);
    tracer.record("analyze", d, None, start, end);
    DesignTrace {
        input_mb: std::fs::metadata(path).map_or(0.0, |m| m.len() as f64 / 1e6),
        segments: p
            .netlist
            .nets()
            .iter()
            .map(|n| n.tree().num_segments())
            .sum(),
        wire_overflow: p.grid.total_wire_overflow(),
        analyze_s: end.duration_since(start).as_secs_f64(),
        rss_after_setup_mb,
        rss_after_assign_mb: 0.0,
    }
}

/// The raw result of one timed assign call, before checking.
struct RawOperation {
    design: usize,
    backend: Backend,
    assign_s: f64,
    wire_overflow_initial: u64,
    result: Result<FlowReport, String>,
    stats: Option<AssignStats>,
}

/// Times one `LayerAssigner::assign` call on `state`.
fn run_operation(
    design: usize,
    backend: Backend,
    state: &mut Prepared,
    tracer: Option<&mut Tracer>,
) -> RawOperation {
    let assigner = backend.build();
    let wire_overflow_initial = state.grid.total_wire_overflow();
    let Prepared {
        grid,
        netlist,
        assignment,
    } = state;
    let threads = match backend {
        Backend::Cpla { threads } => threads,
        _ => 1,
    };
    let (result, assign_s, stats) = match tracer {
        None => {
            let start = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| {
                assigner.assign(grid, netlist, assignment)
            }));
            (result, start.elapsed().as_secs_f64(), None)
        }
        Some(tracer) => {
            let start = Instant::now();
            let span = tracer.record("assign", design, None, start, start);
            let mut observer = AssignTracer::new(tracer, design, span, threads);
            let result = catch_unwind(AssertUnwindSafe(|| {
                assigner.assign_observed(grid, netlist, assignment, &mut [&mut observer])
            }));
            let stats = observer.finish();
            let end = Instant::now();
            tracer.set_end(span, end);
            (result, end.duration_since(start).as_secs_f64(), Some(stats))
        }
    };
    let result = match result {
        Ok(Ok(report)) => Ok(report),
        Ok(Err(e)) => Err(format!("{}: {e}", backend.name())),
        Err(_) => Err(format!("{}: panic during assign", backend.name())),
    };
    RawOperation {
        design,
        backend,
        assign_s,
        wire_overflow_initial,
        result,
        stats,
    }
}

/// Checks an assign call's output against from-scratch recounts:
/// `Assignment::validate`, `audit::check_solution` (Eqn. 4b/4c/4d and
/// Elmore) and a fresh `Metrics::measure` of the final state.
fn check_operation(raw: RawOperation, state: &Prepared) -> Operation {
    let outcome = raw.result.and_then(|report| {
        catch_unwind(AssertUnwindSafe(|| check_report(&report, state)))
            .unwrap_or_else(|_| Err("panic during output check".to_owned()))
            .map(|()| Quality {
                initial: report.initial_metrics,
                final_: report.final_metrics,
                wire_overflow_initial: raw.wire_overflow_initial,
                wire_overflow_final: state.grid.total_wire_overflow(),
                rounds: report.rounds,
            })
    });
    Operation {
        design: raw.design,
        backend: raw.backend,
        assign_s: raw.assign_s,
        outcome,
        stats: raw.stats,
    }
}

fn check_report(report: &FlowReport, state: &Prepared) -> Result<(), String> {
    let Prepared {
        grid,
        netlist,
        assignment,
    } = state;
    assignment
        .validate(netlist, grid)
        .map_err(|e| format!("invalid assignment: {e}"))?;
    audit::check_solution(grid, netlist, assignment).map_err(|e| format!("audit: {e}"))?;
    let measured = Metrics::measure(grid, netlist, assignment, &report.released);
    if measured != report.final_metrics {
        return Err(format!(
            "reported final metrics {:?} differ from a fresh measure {measured:?}",
            report.final_metrics
        ));
    }
    Ok(())
}
