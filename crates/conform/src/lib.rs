//! Conformance tooling for the whole assignment pipeline.
//!
//! The crate bundles four pieces and a driver that composes them:
//!
//! * [`gen`] — a seeded workload generator walking a parameter lattice
//!   (layer depth, capacity tightness, degenerate corners).
//! * [`oracle`] — an exact brute-force solver for oracle-sized
//!   instances, bounding the engines' optimality gap.
//! * [`props`] — metamorphic mutations (relabel, loosen a capacity,
//!   add a top layer) whose effect on the optimum is known a priori.
//! * [`shrink`] — a greedy minimizer turning a failing workload into a
//!   reproducer small enough to read.
//!
//! [`run_trial`] drives one seeded trial end to end through every
//! [`LayerAssigner`] backend (CPLA, TILA, the Lagrangian engine, the
//! greedy floor) plus the racing portfolio, and classifies everything
//! it sees; the `cpla-conform` binary loops it over a trial budget and
//! emits serialized reproducers (see [`io`]) for every failure.

pub mod gen;
pub mod io;
pub mod json;
pub mod oracle;
pub mod props;
pub mod shrink;

use cpla::{Cpla, CplaConfig};
use flow::{Cancel, FlowReport, Greedy, GreedyConfig, Instance, LayerAssigner, Metrics};
use lagrange::{Lagrange, LagrangeConfig};
use portfolio::{priced_score, Baseline, Race};
use prng::Rng;
use tila::{Tila, TilaConfig};

use gen::{GenParams, Workload};

/// Knobs of a conformance run, shared by every trial.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TrialConfig {
    /// Master seed; trial `t` uses the decoupled stream `fork(t)`.
    pub seed: u64,
    /// Enumeration ceiling for the brute-force oracle.
    pub max_combos: u64,
    /// Gated bound on CPLA's relative optimality gap.
    pub cpla_gap_bound: f64,
    /// Gated bound on the Lagrangian engine's relative optimality gap.
    /// The dual-ascent engine is a relaxation heuristic, so its bound is
    /// looser than CPLA's.
    pub lagrange_gap_bound: f64,
    /// Gated bound on the greedy baseline's relative optimality gap.
    /// Greedy is the latency floor, not a quality engine — its bound
    /// only catches pathological regressions.
    pub greedy_gap_bound: f64,
}

impl Default for TrialConfig {
    fn default() -> TrialConfig {
        TrialConfig {
            seed: 42,
            // ~4 candidate layers per segment: covers every instance
            // with up to 8 released segments, i.e. the ISSUE's "roughly
            // a dozen" once 2-layer grids (2 candidates) are counted.
            max_combos: 1 << 16,
            // Calibrated, not a placeholder: the worst gated gap across
            // the CI campaign (200 trials, seed 42) is 0.0398 (trial
            // 20), so 5% leaves ~25% headroom while still catching the
            // 10–30% regressions the dead-layer pricing bugs produced.
            // `cpla-conform` prints "worst gated cpla gap" each run —
            // re-derive this constant from that line when the engine
            // legitimately moves.
            cpla_gap_bound: 0.05,
            // Calibrated like `cpla_gap_bound`, from the same 200-trial
            // seed-42 campaign: worst gated lagrange gap 0.0398 (trial
            // 20), worst gated greedy gap 0.4000 (trial 82). The bounds
            // leave ~50%/25% headroom; `cpla-conform` prints the worst
            // gated gap per backend — re-derive these from those lines
            // when an engine legitimately moves.
            lagrange_gap_bound: 0.06,
            greedy_gap_bound: 0.50,
        }
    }
}

/// What went wrong, coarsely — the exit taxonomy of `cpla-conform`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FailureClass {
    /// An engine left behind an invalid or misreported solution.
    InfeasibleOutput,
    /// CPLA's optimality gap exceeded the configured bound.
    GapExceeded,
    /// A metamorphic or determinism property was violated.
    PropertyViolation,
    /// A backend returned a [`flow::FlowError`] on valid input.
    Flow,
}

impl FailureClass {
    /// Short stable label used in reproducer filenames and summaries.
    pub fn label(self) -> &'static str {
        match self {
            FailureClass::InfeasibleOutput => "infeasible-output",
            FailureClass::GapExceeded => "gap-exceeded",
            FailureClass::PropertyViolation => "property-violation",
            FailureClass::Flow => "flow-error",
        }
    }
}

/// One classified failure of one trial.
#[derive(Clone, PartialEq, Debug)]
pub struct Failure {
    /// Failure taxonomy bucket.
    pub class: FailureClass,
    /// The component at fault (`"cpla"`, `"tila"`, `"generator"`, ...).
    pub assigner: &'static str,
    /// Human-readable specifics (values, bounds, deltas).
    pub detail: String,
}

/// Everything one trial produced.
#[derive(Clone, PartialEq, Debug)]
pub struct TrialOutcome {
    /// Trial index within the run.
    pub trial: u64,
    /// The lattice point exercised.
    pub params: GenParams,
    /// The generated workload (serializable via [`io`]).
    pub workload: Workload,
    /// Gated failures; empty means the trial passed.
    pub failures: Vec<Failure>,
    /// Note-only observations (engine-level metamorphic deltas etc.).
    pub notes: Vec<String>,
    /// Combinations the oracle enumerated, when it ran.
    pub oracle_combos: Option<u64>,
    /// CPLA's relative optimality gap, when the oracle ran.
    pub cpla_gap: Option<f64>,
    /// TILA's relative optimality gap (reported, never gated).
    pub tila_gap: Option<f64>,
    /// The Lagrangian engine's relative optimality gap, when the
    /// oracle ran (gated on the same trials as CPLA's, against
    /// [`TrialConfig::lagrange_gap_bound`]).
    pub lagrange_gap: Option<f64>,
    /// The greedy baseline's relative optimality gap, when the oracle
    /// ran (gated against [`TrialConfig::greedy_gap_bound`]).
    pub greedy_gap: Option<f64>,
    /// Whether this trial's CPLA gap was subject to the gated bound
    /// (oracle-sized, overflow-free input). The bound itself is
    /// calibrated from the worst gap seen across gated trials only, so
    /// the two populations must stay distinguishable downstream.
    pub gap_gated: bool,
}

impl TrialOutcome {
    /// Whether the trial produced no gated failure.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The CPLA backend as conformance runs configure it: the workload's
/// release ratio, single-threaded, *without* neighbor release so the
/// engine optimizes exactly the net set the oracle enumerates.
pub fn cpla_backend(critical_ratio: f64, threads: usize) -> Cpla {
    Cpla::new(CplaConfig {
        critical_ratio,
        threads,
        release_neighbors: false,
        ..CplaConfig::default()
    })
}

/// The TILA baseline at the workload's release ratio.
pub fn tila_backend(critical_ratio: f64) -> Tila {
    Tila::new(TilaConfig {
        critical_ratio,
        ..TilaConfig::default()
    })
}

/// The Lagrangian dual-ascent engine at the workload's release ratio,
/// single-threaded (the DP fan-out is bit-identical at any count).
pub fn lagrange_backend(critical_ratio: f64) -> Lagrange {
    Lagrange::new(LagrangeConfig {
        critical_ratio,
        ..LagrangeConfig::default()
    })
}

/// The greedy longest-path baseline at the workload's release ratio.
pub fn greedy_backend(critical_ratio: f64) -> Greedy {
    Greedy::new(GreedyConfig { critical_ratio })
}

/// The full racing portfolio as conformance runs assemble it — the
/// same four backends the solo gates exercise, in precedence order
/// [cpla, tila, lagrange, greedy], sharing one cancellation flag.
pub fn race_backend(critical_ratio: f64, threads: usize) -> Race {
    let cancel = Cancel::new();
    Race::with_cancel(
        vec![
            Box::new(cpla_backend(critical_ratio, threads)),
            Box::new(tila_backend(critical_ratio)),
            Box::new(Lagrange::cancellable(
                LagrangeConfig {
                    critical_ratio,
                    ..LagrangeConfig::default()
                },
                cancel.clone(),
            )),
            Box::new(Greedy::cancellable(
                GreedyConfig { critical_ratio },
                cancel.clone(),
            )),
        ],
        cancel,
    )
}

/// Runs trial `trial` of a conformance run: generate, execute every
/// backend, verify outputs, bound against the oracle, check the
/// metamorphic and determinism properties.
pub fn run_trial(cfg: &TrialConfig, trial: u64) -> TrialOutcome {
    let mut rng = Rng::seed_from_u64(cfg.seed).fork(trial);
    let params = GenParams::lattice(trial, &mut rng);
    let workload = gen::generate(&params, &mut rng);
    let mut outcome = check_workload(cfg, &workload, &mut rng);
    outcome.trial = trial;
    outcome
}

/// Classifies one workload (the replayable core of [`run_trial`]).
///
/// `rng` only feeds the metamorphic mutation choices; the workload
/// itself is taken as given, so a deserialized reproducer exercises
/// exactly the failure it was minimized to.
pub fn check_workload(cfg: &TrialConfig, workload: &Workload, rng: &mut Rng) -> TrialOutcome {
    let mut out = TrialOutcome {
        trial: workload.params.trial,
        params: workload.params.clone(),
        workload: workload.clone(),
        failures: Vec::new(),
        notes: Vec::new(),
        oracle_combos: None,
        cpla_gap: None,
        tila_gap: None,
        lagrange_gap: None,
        greedy_gap: None,
        gap_gated: false,
    };

    let inst = match workload.instance() {
        Ok(inst) => inst,
        Err(e) => {
            out.failures.push(Failure {
                class: FailureClass::Flow,
                assigner: "generator",
                detail: format!("workload does not build an instance: {e}"),
            });
            return out;
        }
    };
    let released = match inst.critical_nets(workload.critical_ratio) {
        Ok(r) => r,
        Err(e) => {
            out.failures.push(Failure {
                class: FailureClass::Flow,
                assigner: "generator",
                detail: format!("critical selection failed: {e}"),
            });
            return out;
        }
    };

    let cpla1 = cpla_backend(workload.critical_ratio, 1);
    let tila = tila_backend(workload.critical_ratio);
    let lagrange = lagrange_backend(workload.critical_ratio);
    let greedy = greedy_backend(workload.critical_ratio);
    let runs: [(&'static str, &dyn LayerAssigner); 4] = [
        ("cpla", &cpla1),
        ("tila", &tila),
        ("lagrange", &lagrange),
        ("greedy", &greedy),
    ];

    let mut engine_results: Vec<Option<(Instance, FlowReport)>> = Vec::new();
    for (name, backend) in runs {
        match run_and_verify(&inst, backend, name, &mut out) {
            Some(pair) => engine_results.push(Some(pair)),
            None => engine_results.push(None),
        }
    }

    // Oracle bound, on instances small enough to enumerate. The gap is
    // *gated* only on oracle-sized lattice points (every net released)
    // whose input carries no overflow. On congested inputs the engines
    // also spend delay reducing overflow (the paper's V_o term), which
    // a delay-only optimum cannot credit; and on subset-release trials
    // the engines optimize a criticality-chosen slice of a larger
    // design under capacities the oracle's tiny search space does not
    // stress the same way — both gaps are reported as notes instead.
    let input_clean =
        inst.grid().total_wire_overflow() == 0 && inst.grid().total_via_overflow() == 0;
    let gap_gated = input_clean && workload.params.oracle_sized;
    out.gap_gated = gap_gated;
    if oracle::enumeration_size(&inst, &released, cfg.max_combos).is_some() {
        if let Some(opt) = oracle::solve(&inst, &released, cfg.max_combos) {
            out.oracle_combos = Some(opt.combos);
            // Per-backend gap bounds: `None` means reported-only (TILA
            // makes no quality promise); the others are gated on the
            // same oracle-sized, overflow-free trials.
            let slots: [(usize, &'static str, Option<f64>); 4] = [
                (0, "cpla", Some(cfg.cpla_gap_bound)),
                (1, "tila", None),
                (2, "lagrange", Some(cfg.lagrange_gap_bound)),
                (3, "greedy", Some(cfg.greedy_gap_bound)),
            ];
            for (slot, name, bound) in slots {
                let Some((after, report)) = &engine_results[slot] else {
                    continue;
                };
                if report.released != released {
                    out.failures.push(Failure {
                        class: FailureClass::PropertyViolation,
                        assigner: name,
                        detail: format!(
                            "released set diverged from flow selection: {:?} vs {:?}",
                            report.released, released
                        ),
                    });
                    continue;
                }
                let g = oracle::gap(report.final_metrics.avg_tcp, opt.best_avg_tcp);
                match name {
                    "cpla" => out.cpla_gap = Some(g),
                    "tila" => out.tila_gap = Some(g),
                    "lagrange" => out.lagrange_gap = Some(g),
                    _ => out.greedy_gap = Some(g),
                }
                if let Some(bound) = bound {
                    if g > bound {
                        if gap_gated {
                            out.failures.push(Failure {
                                class: FailureClass::GapExceeded,
                                assigner: name,
                                detail: format!(
                                    "avg_tcp {} vs oracle optimum {} over {} combos: gap {:.4} > bound {}",
                                    report.final_metrics.avg_tcp,
                                    opt.best_avg_tcp,
                                    opt.combos,
                                    g,
                                    bound
                                ),
                            });
                        } else if !input_clean {
                            out.notes.push(format!(
                                "{name}: gap {g:.4} on a congested input (overflow traded for delay; not gated)"
                            ));
                        } else {
                            out.notes.push(format!(
                                "{name}: gap {g:.4} on a subset-release trial (not gated)"
                            ));
                        }
                    }
                }
                // An engine beating the exhaustive optimum while staying
                // inside the oracle's feasible region refutes the oracle
                // (or the measurement) — flag it on any engine.
                let feasible = after.grid().total_wire_overflow()
                    <= inst.grid().total_wire_overflow()
                    && after.grid().total_via_overflow() <= inst.grid().total_via_overflow();
                if feasible && g < -1e-9 {
                    out.failures.push(Failure {
                        class: FailureClass::PropertyViolation,
                        assigner: name,
                        detail: format!(
                            "feasible result {} beats the exhaustive optimum {}",
                            report.final_metrics.avg_tcp, opt.best_avg_tcp
                        ),
                    });
                }
            }
            metamorphic_oracle_checks(cfg, workload, &inst, &opt, rng, &mut out);
        }
    }

    relabel_timing_check(workload, rng, &mut out);
    parallel_determinism_check(workload, &inst, &mut out);
    race_differential_check(workload, &inst, &mut out);

    out
}

/// The cross-assigner differential battery over the racing portfolio:
///
/// 1. every backend runs solo and is scored by the portfolio's shared
///    priced objective;
/// 2. the race must land *exactly* the best solo state (bitwise
///    assignment equality — judging is finish-order independent);
/// 3. rerunning the race with the CPLA lane at 4 threads must be
///    bit-identical to the single-threaded race (the lane itself is
///    thread-count deterministic, so the race must be too).
fn race_differential_check(workload: &Workload, inst: &Instance, out: &mut TrialOutcome) {
    let baseline = Baseline::measure(inst.grid(), inst.netlist(), inst.assignment());

    // Solo runs, in the portfolio's precedence order.
    let cpla1 = cpla_backend(workload.critical_ratio, 1);
    let tila = tila_backend(workload.critical_ratio);
    let lagrange = lagrange_backend(workload.critical_ratio);
    let greedy = greedy_backend(workload.critical_ratio);
    let solos: [(&'static str, &dyn LayerAssigner); 4] = [
        ("cpla", &cpla1),
        ("tila", &tila),
        ("lagrange", &lagrange),
        ("greedy", &greedy),
    ];
    let mut solo_states: Vec<(Instance, f64)> = Vec::new();
    let mut any_failed = false;
    for (_, backend) in solos {
        let mut solo = inst.clone();
        match solo.run(backend) {
            Ok(_) => {
                let score = priced_score(solo.grid(), solo.netlist(), solo.assignment(), &baseline);
                solo_states.push((solo, score));
            }
            Err(_) => {
                // The main gate battery already reported the solo
                // failure; here only the error-surface agreement with
                // the race is checked.
                any_failed = true;
                break;
            }
        }
    }

    let race1 = race_backend(workload.critical_ratio, 1);
    let mut raced = inst.clone();
    let race_result = raced.run(&race1);

    if any_failed {
        if race_result.is_ok() {
            out.failures.push(Failure {
                class: FailureClass::PropertyViolation,
                assigner: "race",
                detail: "race succeeded while a solo backend failed on the same input".to_string(),
            });
        }
        return;
    }
    let race_report = match race_result {
        Ok(r) => r,
        Err(e) => {
            out.failures.push(Failure {
                class: FailureClass::PropertyViolation,
                assigner: "race",
                detail: format!("race failed where every solo backend succeeded: {e}"),
            });
            return;
        }
    };

    // Same selection rule as the race: earliest of equal scores wins.
    let mut best = 0;
    for (i, (_, score)) in solo_states.iter().enumerate().skip(1) {
        if score.total_cmp(&solo_states[best].1) == std::cmp::Ordering::Less {
            best = i;
        }
    }
    let (best_inst, _) = &solo_states[best];
    if race_report.assigner != solos[best].0 {
        out.failures.push(Failure {
            class: FailureClass::PropertyViolation,
            assigner: "race",
            detail: format!(
                "race landed {} but the best solo backend is {}",
                race_report.assigner, solos[best].0
            ),
        });
        return;
    }
    if !assignments_identical(&raced, best_inst) || raced.grid() != best_inst.grid() {
        out.failures.push(Failure {
            class: FailureClass::PropertyViolation,
            assigner: "race",
            detail: format!(
                "race result is not bit-identical to the best solo result ({})",
                solos[best].0
            ),
        });
        return;
    }

    // Thread-count independence of the whole race: the CPLA lane at 4
    // threads is bit-identical solo, so the race must be too.
    let race4 = race_backend(workload.critical_ratio, 4);
    let mut raced4 = inst.clone();
    match raced4.run(&race4) {
        Ok(report4) => {
            if !assignments_identical(&raced, &raced4)
                || report4.final_metrics.avg_tcp.to_bits()
                    != race_report.final_metrics.avg_tcp.to_bits()
                || report4.assigner != race_report.assigner
            {
                out.failures.push(Failure {
                    class: FailureClass::PropertyViolation,
                    assigner: "race",
                    detail: format!(
                        "race with a 4-thread cpla lane diverged from the 1-thread race: {} vs {}",
                        report4.assigner, race_report.assigner
                    ),
                });
            }
        }
        Err(e) => {
            out.failures.push(Failure {
                class: FailureClass::PropertyViolation,
                assigner: "race",
                detail: format!("race with a 4-thread cpla lane failed: {e}"),
            });
        }
    }
}

/// Runs one backend and applies every per-output gate: a from-scratch
/// constraint re-derivation, metrics conformance between the report and
/// the state left behind, and bit-identical rerun determinism.
fn run_and_verify(
    inst: &Instance,
    backend: &dyn LayerAssigner,
    name: &'static str,
    out: &mut TrialOutcome,
) -> Option<(Instance, FlowReport)> {
    let mut first = inst.clone();
    let report = match first.run(backend) {
        Ok(r) => r,
        Err(e) => {
            out.failures.push(Failure {
                class: FailureClass::Flow,
                assigner: name,
                detail: format!("backend failed on valid input: {e}"),
            });
            return None;
        }
    };

    // Gate 1: the left-behind solution satisfies constraints 4b/4c/4d
    // and the incremental timing caches agree with full recomputation.
    if let Err(e) = audit::check_solution(first.grid(), first.netlist(), first.assignment()) {
        out.failures.push(Failure {
            class: FailureClass::InfeasibleOutput,
            assigner: name,
            detail: format!("invariant audit rejected the output: {e}"),
        });
    }

    // Gate 2: the report's final metrics describe the final state.
    let measured = Metrics::measure(
        first.grid(),
        first.netlist(),
        first.assignment(),
        &report.released,
    );
    if !metrics_agree(&measured, &report.final_metrics) {
        out.failures.push(Failure {
            class: FailureClass::InfeasibleOutput,
            assigner: name,
            detail: format!(
                "reported final metrics {:?} do not match the final state {:?}",
                report.final_metrics, measured
            ),
        });
    }

    // CPLA's incumbent prices overflow added beyond the input at
    // `overflow_price` input-average-delays per unit (the Measure-stage
    // mirror of the paper's `α·V_o` relaxation), and seeds itself with
    // the input state, so the engine guarantees the *priced* objective
    // never regresses: final_avg + price·excess ≤ input_avg. Gate
    // exactly that. TILA's subgradient relaxation makes no such
    // guarantee; overflow it adds is reported, not gated.
    let dw = first.grid().total_wire_overflow() as i128 - inst.grid().total_wire_overflow() as i128;
    let dv = first.grid().total_via_overflow() as i128 - inst.grid().total_via_overflow() as i128;
    if name == "cpla" {
        let excess = (dw.max(0) + dv.max(0)) as f64;
        let price = cpla::CplaConfig::default().overflow_price * report.initial_metrics.avg_tcp;
        let scored = report.final_metrics.avg_tcp + price * excess;
        if scored > report.initial_metrics.avg_tcp * (1.0 + 1e-9) {
            out.failures.push(Failure {
                class: FailureClass::InfeasibleOutput,
                assigner: name,
                detail: format!(
                    "priced objective regressed: avg {} + {price}·{excess} overflow \
                     > input avg {} (wire {dw:+}, via {dv:+})",
                    report.final_metrics.avg_tcp, report.initial_metrics.avg_tcp
                ),
            });
        } else if dw > 0 || dv > 0 {
            out.notes.push(format!(
                "{name}: overflow bought with a dominant delay win \
                 (wire {dw:+}, via {dv:+}, avg {} -> {})",
                report.initial_metrics.avg_tcp, report.final_metrics.avg_tcp
            ));
        }
    } else if name == "greedy" {
        // Greedy's contract is stronger than priced: it reverts any net
        // whose move would add overflow, so its output must NEVER carry
        // more overflow than the input. Gate it hard.
        if dw > 0 || dv > 0 {
            out.failures.push(Failure {
                class: FailureClass::InfeasibleOutput,
                assigner: name,
                detail: format!(
                    "greedy added overflow despite its revert guarantee (wire {dw:+}, via {dv:+})"
                ),
            });
        }
    } else if dw > 0 || dv > 0 {
        // TILA and the Lagrangian engine price overflow in their own
        // incumbents but make no per-metric promise conform can gate
        // without re-deriving their internal objectives; report it.
        out.notes.push(format!(
            "{name}: output overflow exceeds input (wire {dw:+}, via {dv:+})"
        ));
    }

    // Gate 3: rerunning on an identical instance is bit-identical.
    let mut second = inst.clone();
    match second.run(backend) {
        Ok(rerun) => {
            if !assignments_identical(&first, &second)
                || rerun.final_metrics.avg_tcp.to_bits() != report.final_metrics.avg_tcp.to_bits()
            {
                out.failures.push(Failure {
                    class: FailureClass::PropertyViolation,
                    assigner: name,
                    detail: "rerun on an identical instance diverged".to_string(),
                });
            }
        }
        Err(e) => {
            out.failures.push(Failure {
                class: FailureClass::PropertyViolation,
                assigner: name,
                detail: format!("rerun failed where the first run succeeded: {e}"),
            });
        }
    }

    Some((first, report))
}

/// CPLA's serial == parallel guarantee: thread count must not change a
/// single bit of the result.
fn parallel_determinism_check(workload: &Workload, inst: &Instance, out: &mut TrialOutcome) {
    let serial = cpla_backend(workload.critical_ratio, 1);
    let parallel = cpla_backend(workload.critical_ratio, 4);
    let mut a = inst.clone();
    let mut b = inst.clone();
    match (a.run(&serial), b.run(&parallel)) {
        (Ok(ra), Ok(rb)) => {
            if !assignments_identical(&a, &b)
                || ra.final_metrics.avg_tcp.to_bits() != rb.final_metrics.avg_tcp.to_bits()
            {
                out.failures.push(Failure {
                    class: FailureClass::PropertyViolation,
                    assigner: "cpla",
                    detail: format!(
                        "threads=1 and threads=4 diverged: avg_tcp {} vs {}",
                        ra.final_metrics.avg_tcp, rb.final_metrics.avg_tcp
                    ),
                });
            }
        }
        (Err(_), Err(_)) => {}
        (ra, rb) => {
            out.failures.push(Failure {
                class: FailureClass::PropertyViolation,
                assigner: "cpla",
                detail: format!(
                    "threads=1 and threads=4 disagreed on success: {:?} vs {:?}",
                    ra.map(|r| r.final_metrics),
                    rb.map(|r| r.final_metrics)
                ),
            });
        }
    }
}

/// Relabel invariance at the timing level, on every trial: per-net
/// critical delays must be bit-identical under a net permutation.
fn relabel_timing_check(workload: &Workload, rng: &mut Rng, out: &mut TrialOutcome) {
    let relabeled = props::relabel(workload, rng);
    let (Ok(a), Ok(b)) = (workload.instance(), relabeled.workload.instance()) else {
        return; // instance failures are reported by the main path
    };
    let ra = timing::analyze(a.grid(), a.netlist(), a.assignment());
    let rb = timing::analyze(b.grid(), b.netlist(), b.assignment());
    for (new_index, &old) in relabeled.perm.iter().enumerate() {
        let da = ra.net(old).critical_delay();
        let db = rb.net(new_index).critical_delay();
        if da.to_bits() != db.to_bits() {
            out.failures.push(Failure {
                class: FailureClass::PropertyViolation,
                assigner: "timing",
                detail: format!("relabeling changed net {old}'s critical delay: {da} vs {db}"),
            });
            return; // one witness is enough
        }
    }
}

/// The oracle-level metamorphic gates: relabel invariance of the
/// optimum, capacity monotonicity, layer-augmentation monotonicity.
fn metamorphic_oracle_checks(
    cfg: &TrialConfig,
    workload: &Workload,
    inst: &Instance,
    base: &oracle::OracleOutcome,
    rng: &mut Rng,
    out: &mut TrialOutcome,
) {
    let tol = |x: f64| x * (1.0 + 1e-12) + 1e-12;

    // Relabel: the optimum is label-independent (compared at 1e-12
    // relative — the average re-associates a float sum, so literal bit
    // equality is not achievable for the aggregate).
    let relabeled = props::relabel(workload, rng);
    if let (Ok(ri), Ok(rr)) = (relabeled.workload.instance(), relabeled.workload.released()) {
        if let Some(ropt) = oracle::solve(&ri, &rr, cfg.max_combos) {
            let delta = (ropt.best_avg_tcp - base.best_avg_tcp).abs();
            if delta > 1e-12 * base.best_avg_tcp.abs().max(1.0) {
                out.failures.push(Failure {
                    class: FailureClass::PropertyViolation,
                    assigner: "oracle",
                    detail: format!(
                        "relabeling moved the exhaustive optimum: {} vs {}",
                        base.best_avg_tcp, ropt.best_avg_tcp
                    ),
                });
            }
        }
    }

    // Loosen one non-overflowed capacity: the optimum cannot worsen.
    if let Some(loose) = props::loosen_capacity(workload, inst, rng, 2) {
        if let (Ok(li), Ok(lr)) = (loose.instance(), loose.released()) {
            if let Some(lopt) = oracle::solve(&li, &lr, cfg.max_combos) {
                if lopt.best_avg_tcp > tol(base.best_avg_tcp) {
                    out.failures.push(Failure {
                        class: FailureClass::PropertyViolation,
                        assigner: "oracle",
                        detail: format!(
                            "loosening a capacity worsened the optimum: {} -> {}",
                            base.best_avg_tcp, lopt.best_avg_tcp
                        ),
                    });
                }
            }
        }
    }

    // Add a faster top layer: the optimum cannot worsen. The larger
    // candidate space may blow the enumeration budget; give it headroom
    // and skip silently when even that is not enough.
    let augmented = props::augment_layer(workload);
    if let (Ok(ai), Ok(ar)) = (augmented.instance(), augmented.released()) {
        if let Some(aopt) = oracle::solve(&ai, &ar, cfg.max_combos.saturating_mul(64)) {
            if aopt.best_avg_tcp > tol(base.best_avg_tcp) {
                out.failures.push(Failure {
                    class: FailureClass::PropertyViolation,
                    assigner: "oracle",
                    detail: format!(
                        "adding a top layer worsened the optimum: {} -> {}",
                        base.best_avg_tcp, aopt.best_avg_tcp
                    ),
                });
            }
        }
    }
}

fn metrics_agree(a: &Metrics, b: &Metrics) -> bool {
    let close = |x: f64, y: f64| (x - y).abs() <= 1e-9 * (1.0 + x.abs().max(y.abs()));
    close(a.avg_tcp, b.avg_tcp)
        && close(a.max_tcp, b.max_tcp)
        && a.via_overflow == b.via_overflow
        && a.via_count == b.via_count
}

fn assignments_identical(a: &Instance, b: &Instance) -> bool {
    let (aa, ab) = (a.assignment(), b.assignment());
    if aa.num_nets() != ab.num_nets() {
        return false;
    }
    (0..aa.num_nets()).all(|i| aa.net_layers(i) == ab.net_layers(i))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_trials_pass_end_to_end() {
        let cfg = TrialConfig::default();
        for trial in 0..6 {
            let out = run_trial(&cfg, trial);
            assert!(
                out.passed(),
                "trial {trial} ({}) failed: {:?}",
                out.params.describe(),
                out.failures
            );
        }
    }

    #[test]
    fn oracle_sized_trials_produce_gap_numbers() {
        let cfg = TrialConfig::default();
        let out = run_trial(&cfg, 0); // trial 0 is oracle-sized
        assert!(out.oracle_combos.is_some(), "{:?}", out.params);
        assert!(out.cpla_gap.is_some());
        assert!(out.tila_gap.is_some());
    }

    #[test]
    fn trials_are_reproducible() {
        let cfg = TrialConfig::default();
        let a = run_trial(&cfg, 3);
        let b = run_trial(&cfg, 3);
        assert_eq!(a, b);
    }
}
