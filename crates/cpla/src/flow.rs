//! The stage-based flow driver.
//!
//! One CPLA round is an explicit pipeline of eight [`Stage`]s — Select,
//! Partition, Extract, Solve, PostMap, Gate, Accept, Measure — each a
//! small struct with a single `run(&mut FlowContext)` method, built once
//! per run by [`stages`].
//!
//! [`drive`] owns the round loop: it times every stage, forwards the
//! boundaries to the attached [`StageObserver`]s, emits a
//! [`RoundSnapshot`] per round, and restores the incumbent state when
//! the flow stops improving. Wall-time bookkeeping lives in
//! [`StatsCollector`] — itself just another observer.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use ::flow::{
    FlowCounters, FlowError, LeafSpan, Metrics, RoundSnapshot, SolveError, Stage, StageObserver,
};
use grid::{Grid, UsageSnapshot};
use net::{Assignment, Netlist, SegmentRef};
use solver::{BlockMatrix, SdpSolver, SolveScratch};
use timing::TimingModel;

use crate::context::{timing_context_into, SegCtx, SegCtxTable};
use crate::engine::{CplaConfig, CplaReport, PipelineStats, RoundStats, SolverKind};
use crate::mapping::{post_map, timing_gate};
use crate::partition::{partition_segments_sharded, Partition, PartitionStats};
use crate::problem::PartitionProblem;

/// ADMM iterates `(z, u)` kept for a warm start, in the solver's
/// interval-block layout.
type WarmPair = (BlockMatrix, BlockMatrix);

/// Cross-round cache entry for one partition, keyed by its segment set.
///
/// A hit requires the freshly extracted problem to compare equal to
/// `problem` — any drift in costs, candidates or capacities (because a
/// neighboring partition's acceptance moved segments or usage) misses
/// and re-solves, warm-started from `warm`.
struct CacheEntry {
    problem: PartitionProblem,
    result: Vec<(SegmentRef, usize)>,
    warm: Option<WarmPair>,
}

/// A cache miss awaiting a solve: partition index, extracted problem,
/// and the warm-start iterates of a stale cache entry (if any).
type Miss = (usize, PartitionProblem, Option<WarmPair>);

/// What the Solve stage produces per miss, before post-mapping.
enum RawSolve {
    /// A relaxation vector to round: the SDP diagonal, or the uniform
    /// 0.5 vector of the ablation control. `warm` carries the ADMM
    /// iterates for the cross-round warm start, and `warm_started`
    /// says whether the solve used the pair it was given (SDP only).
    Relaxed {
        x: Vec<f64>,
        warm: Option<WarmPair>,
        warm_started: bool,
    },
    /// An exact ILP solution (`None` when the node budget ran out, in
    /// which case PostMap keeps the current assignment).
    Exact(Option<Vec<usize>>),
}

impl RawSolve {
    /// Whether the solve started from the warm pair it was given.
    fn warm_started(&self) -> bool {
        matches!(
            self,
            RawSolve::Relaxed {
                warm_started: true,
                ..
            }
        )
    }
}

/// All state one flow run threads through its stages.
pub(crate) struct FlowContext<'a> {
    // Inputs.
    config: CplaConfig,
    grid: &'a mut Grid,
    netlist: &'a Netlist,
    assignment: &'a mut Assignment,
    released: &'a [usize],

    // Run-wide derived state.
    is_released: HashSet<usize>,
    segments: Vec<SegmentRef>,
    neighbor_nets: Vec<usize>,
    /// Flat id layout of the whole design: the dense context table and
    /// the sharded partitioner index through its CSR ranges.
    arena: net::DesignArena,
    model: TimingModel,
    cache: HashMap<Vec<SegmentRef>, CacheEntry>,
    counters: FlowCounters,

    // Per-round scratch, produced by one stage and consumed by the next.
    round: usize,
    cd: SegCtxTable,
    partitions: Vec<Partition>,
    first_round_pstats: PartitionStats,
    results: Vec<Vec<(SegmentRef, usize)>>,
    misses: Vec<Miss>,
    raw: Vec<RawSolve>,
    proposals: Vec<(SegmentRef, usize)>,
    pending: Vec<(usize, Vec<usize>, Vec<usize>)>,
    /// Leaf spans recorded by the running stage (partition solves,
    /// accept applications); [`drive`] drains them to the observers
    /// between the stage body and its `on_stage_end` callback.
    leaves: Vec<LeafSpan>,

    // Incumbent tracking. Rounds compete on a *priced* objective
    // mirroring the paper's `α·V_o` relaxation of (4c)/(4d):
    // `Avg(Tcp)` plus `overflow_price · input-average-delay` per unit
    // of wire/via overflow beyond the input state. A dominant delay
    // win can buy a unit of fresh congestion, but gratuitous overflow
    // (via stacks through a zero-capacity layer, say) never pays for
    // itself, and the input state — score `input_avg`, excess 0 — is
    // the seed incumbent, so the answer is never worse than the input
    // under that score.
    best_avg: f64,
    best_score: f64,
    best_assignment: Assignment,
    best_usage: UsageSnapshot,
    input_avg: f64,
    input_wire_overflow: u64,
    input_via_overflow: u64,
    stagnant: usize,
    rounds: Vec<RoundStats>,
    last_objective: f64,
    last_improved: bool,
    stop: bool,
}

impl<'a> FlowContext<'a> {
    fn new(
        config: CplaConfig,
        grid: &'a mut Grid,
        netlist: &'a Netlist,
        assignment: &'a mut Assignment,
        released: &'a [usize],
        initial_metrics: Metrics,
    ) -> FlowContext<'a> {
        let is_released: HashSet<usize> = released.iter().copied().collect();
        // Electrical parameters are usage-independent, so one snapshot
        // serves the timing gate for the whole run.
        let model = TimingModel::from_grid(grid);

        let mut segments: Vec<SegmentRef> = released
            .iter()
            .flat_map(|&ni| {
                let n = netlist.net(ni).tree().num_segments();
                // cast: net/segment ordinals come from the u32-indexed arena.
                (0..n).map(move |s| SegmentRef::new(ni as u32, s as u32))
            })
            .collect();

        // Optionally widen the pool with non-critical segments sharing
        // routing edges with the critical set; they become movable
        // obstacles whose delay matters only lightly.
        let neighbor_nets: Vec<usize> = if config.release_neighbors {
            let covered: HashSet<grid::Edge2d> = segments
                .iter()
                .flat_map(|&r| {
                    netlist
                        .net(r.net as usize)
                        .tree()
                        .segment_edges(r.seg as usize)
                })
                .collect();
            let mut nets = Vec::new();
            for ni in 0..netlist.len() {
                if is_released.contains(&ni) {
                    continue;
                }
                let tree = netlist.net(ni).tree();
                let mut touched = false;
                for s in 0..tree.num_segments() {
                    if tree.segment_edges(s).iter().any(|e| covered.contains(e)) {
                        // cast: net/segment ordinals come from the u32-indexed arena.
                        segments.push(SegmentRef::new(ni as u32, s as u32));
                        touched = true;
                    }
                }
                if touched {
                    nets.push(ni);
                }
            }
            nets
        } else {
            Vec::new()
        };

        // One arena + slot map for the whole run: the pool is fixed
        // across rounds, so Select only rewrites pooled slots.
        let arena = net::DesignArena::from_netlist(netlist);
        let cd = SegCtxTable::new(&arena, &segments);

        let best_avg = initial_metrics.avg_tcp;
        let best_assignment = assignment.clone();
        let best_usage = grid.snapshot_usage();
        let input_wire_overflow = grid.total_wire_overflow();
        let input_via_overflow = grid.total_via_overflow();
        FlowContext {
            config,
            grid,
            netlist,
            assignment,
            released,
            is_released,
            segments,
            neighbor_nets,
            arena,
            model,
            cache: HashMap::new(),
            counters: FlowCounters::default(),
            round: 0,
            cd,
            partitions: Vec::new(),
            first_round_pstats: PartitionStats::default(),
            results: Vec::new(),
            misses: Vec::new(),
            raw: Vec::new(),
            proposals: Vec::new(),
            pending: Vec::new(),
            leaves: Vec::new(),
            best_avg,
            best_score: best_avg,
            best_assignment,
            best_usage,
            input_avg: best_avg,
            input_wire_overflow,
            input_via_overflow,
            stagnant: 0,
            rounds: Vec::new(),
            last_objective: best_avg,
            last_improved: false,
            stop: false,
        }
    }
}

/// One pipeline stage: a pure step over the shared [`FlowContext`].
pub(crate) trait FlowStage {
    /// Which [`Stage`] this is, for observer callbacks and traces.
    fn stage(&self) -> Stage;

    /// Runs the stage, reading its inputs from `ctx` and leaving its
    /// products there for the next stage.
    fn run(&mut self, ctx: &mut FlowContext<'_>) -> Result<(), FlowError>;
}

/// The eight-stage pipeline, in round order.
pub(crate) fn stages() -> Vec<Box<dyn FlowStage>> {
    vec![
        Box::new(SelectStage),
        Box::new(PartitionStage),
        Box::new(ExtractStage),
        Box::new(SolveStage {
            scratch: SolveScratch::new(),
        }),
        Box::new(PostMapStage),
        Box::new(GateStage),
        Box::new(AcceptStage),
        Box::new(MeasureStage),
    ]
}

/// Freezes the weighted timing context of the released (and neighbor)
/// segments for this round.
struct SelectStage;

impl FlowStage for SelectStage {
    fn stage(&self) -> Stage {
        Stage::Select
    }

    fn run(&mut self, ctx: &mut FlowContext<'_>) -> Result<(), FlowError> {
        // Every pooled slot is rewritten below (released nets cover
        // their whole pooled range, neighbor fills cover every touched
        // segment), so the table needs no per-round clear.
        timing_context_into(
            ctx.grid,
            ctx.netlist,
            ctx.assignment,
            ctx.released,
            ctx.config.focus,
            None,
            &mut ctx.cd,
        );
        if !ctx.neighbor_nets.is_empty() {
            timing_context_into(
                ctx.grid,
                ctx.netlist,
                ctx.assignment,
                &ctx.neighbor_nets,
                ctx.config.focus,
                Some(ctx.config.neighbor_weight),
                &mut ctx.cd,
            );
        }
        Ok(())
    }
}

/// Partitions the released segments, alternating the division origin
/// between rounds so segments frozen at a partition boundary become
/// jointly optimizable in the next round.
struct PartitionStage;

impl FlowStage for PartitionStage {
    fn stage(&self) -> Stage {
        Stage::Partition
    }

    fn run(&mut self, ctx: &mut FlowContext<'_>) -> Result<(), FlowError> {
        let bw = (ctx.grid.width() as usize).div_ceil(ctx.config.uniform_divisions) as u16;
        let bh = (ctx.grid.height() as usize).div_ceil(ctx.config.uniform_divisions) as u16;
        let offset = if ctx.round.is_multiple_of(2) {
            (bw / 2, bh / 2)
        } else {
            (0, 0)
        };
        let shards = if ctx.config.partition_shards == 0 {
            ctx.config.threads.max(1)
        } else {
            ctx.config.partition_shards
        };
        let (partitions, pstats, ledgers) = partition_segments_sharded(
            &ctx.arena,
            &ctx.segments,
            ctx.grid.width(),
            ctx.grid.height(),
            ctx.config.uniform_divisions,
            ctx.config.max_segments_per_partition,
            offset,
            shards,
        );
        // Each shard ledger becomes one leaf span, so partition-shard
        // activity flows through the same observer seam as solve leaves.
        for l in &ledgers {
            ctx.leaves.push(LeafSpan {
                round: ctx.round,
                stage: Stage::Partition,
                index: l.shard,
                items: l.segments,
                thread: l.shard,
                start_secs: l.start_secs,
                dur_secs: l.dur_secs,
                alloc_bytes: 0,
                alloc_events: 0,
            });
        }
        if ctx.round == 1 {
            ctx.first_round_pstats = pstats;
        }
        ctx.partitions = partitions;
        Ok(())
    }
}

/// Extracts per-partition mathematical programs serially, splitting them
/// into cache hits (whose stored result is reused verbatim) and misses
/// (carrying the stale entry's warm-start iterates, if any).
struct ExtractStage;

impl FlowStage for ExtractStage {
    fn stage(&self) -> Stage {
        Stage::Extract
    }

    fn run(&mut self, ctx: &mut FlowContext<'_>) -> Result<(), FlowError> {
        let FlowContext {
            ref config,
            ref grid,
            netlist,
            ref assignment,
            ref cd,
            ref partitions,
            ref mut results,
            ref mut misses,
            ref mut counters,
            ref cache,
            ..
        } = *ctx;
        // invariant: partitioning only groups segments from the released
        // pool, and Select froze a context for every pooled segment.
        let lookup = |r: SegmentRef| -> SegCtx {
            *cd.get(r).expect("released segment has a frozen context")
        };
        *results = vec![Vec::new(); partitions.len()];
        misses.clear();
        for (pi, part) in partitions.iter().enumerate() {
            let problem = PartitionProblem::extract(
                grid,
                netlist,
                assignment,
                &part.segments,
                &lookup,
                &config.problem,
            );
            let mut warm = None;
            if let Some(entry) = cache.get(&part.segments) {
                if entry.problem == problem {
                    counters.partitions_reused += 1;
                    // alloc: cache hits hand out owned copies; the entry
                    // stays resident for later rounds.
                    results[pi] = entry.result.clone();
                    continue;
                }
                // alloc: warm starts are per-leaf owned seeds.
                warm = entry.warm.clone();
            }
            misses.push((pi, problem, warm));
        }
        Ok(())
    }
}

/// Solves the cache misses' mathematical programs — the parallel phase.
///
/// Misses sorted by descending segment count are claimed off an atomic
/// counter by the worker pool (work stealing: no thread idles while a
/// heavy partition pins another). Each solve is a pure function of its
/// extracted problem and frozen warm start, so the claim order cannot
/// change any result.
struct SolveStage {
    /// Per-leaf solve scratch for the serial path, kept across rounds;
    /// parallel workers carry their own.
    scratch: SolveScratch,
}

impl SolveStage {
    /// Runs the configured mathematical program on one extracted
    /// problem, without rounding or acceptance (that is PostMap's job).
    fn solve_raw(
        config: &CplaConfig,
        problem: &PartitionProblem,
        warm: Option<&WarmPair>,
        scratch: &mut SolveScratch,
    ) -> Result<RawSolve, SolveError> {
        match config.solver {
            SolverKind::Sdp(base) => {
                // The rank-stability early stop ranks only the
                // assignment-variable prefix: the slack rows behind it
                // never influence post-mapping.
                let sdp_config = SdpSolver {
                    rank_stop_vars: problem.num_variables(),
                    ..base
                };
                let (sdp, _) = problem.to_sdp();
                let sol =
                    sdp_config.try_solve_from_with(&sdp, warm.map(|w| (&w.0, &w.1)), scratch)?;
                Ok(RawSolve::Relaxed {
                    x: sol.x.diagonal(),
                    warm: Some((sol.z, sol.u)),
                    warm_started: sol.warm_started,
                })
            }
            SolverKind::Ilp { node_budget } => Ok(RawSolve::Exact(
                problem
                    .choice_problem()
                    .solve(node_budget)
                    .map(|s| s.choices),
            )),
            SolverKind::UniformRelaxation => Ok(RawSolve::Relaxed {
                x: vec![0.5; problem.num_variables()],
                warm: None,
                warm_started: false,
            }),
        }
    }
}

impl FlowStage for SolveStage {
    fn stage(&self) -> Stage {
        Stage::Solve
    }

    fn run(&mut self, ctx: &mut FlowContext<'_>) -> Result<(), FlowError> {
        let config = &ctx.config;
        let misses = &ctx.misses;
        let round = ctx.round;
        let threads = config.threads.max(1).min(misses.len());
        // One monotonic anchor for the whole stage: leaf offsets are
        // seconds since this instant, on whichever thread ran the leaf.
        let anchor = Instant::now();
        let raw: Vec<Result<RawSolve, SolveError>> = if threads <= 1 {
            let scratch = &mut self.scratch;
            let mut out = Vec::with_capacity(misses.len());
            for (pi, p, w) in misses.iter() {
                let alloc0 = obs::alloc::thread_stats();
                let start_secs = anchor.elapsed().as_secs_f64();
                out.push(Self::solve_raw(config, p, w.as_ref(), scratch));
                let dur_secs = anchor.elapsed().as_secs_f64() - start_secs;
                let alloc = obs::alloc::thread_stats().since(alloc0);
                ctx.leaves.push(LeafSpan {
                    round,
                    stage: Stage::Solve,
                    index: *pi,
                    items: p.segments.len(),
                    thread: 0,
                    start_secs,
                    dur_secs,
                    alloc_bytes: alloc.bytes,
                    alloc_events: alloc.events,
                });
            }
            out
        } else {
            let mut order: Vec<usize> = (0..misses.len()).collect();
            order.sort_unstable_by(|&a, &b| {
                misses[b]
                    .1
                    .segments
                    .len()
                    .cmp(&misses[a].1.segments.len())
                    .then(a.cmp(&b))
            });
            let next = AtomicUsize::new(0);
            let mut slots: Vec<Option<Result<RawSolve, SolveError>>> =
                (0..misses.len()).map(|_| None).collect();
            let mut leaf_slots: Vec<Option<LeafSpan>> = vec![None; misses.len()];
            std::thread::scope(|scope| {
                let mut handles = Vec::new();
                for worker in 0..threads {
                    let next = &next;
                    let order = &order;
                    handles.push(scope.spawn(move || {
                        let mut scratch = SolveScratch::new();
                        // alloc: one buffer per worker (the `for worker`
                        // loop), reused across every claimed leaf.
                        let mut local = Vec::new();
                        loop {
                            // sync: Relaxed — the counter is a pure claim
                            // ticket (atomicity alone prevents double
                            // claims); results publish via the scope join.
                            let k = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&mi) = order.get(k) else { break };
                            let (pi, p, w) = &misses[mi];
                            let alloc0 = obs::alloc::thread_stats();
                            let start_secs = anchor.elapsed().as_secs_f64();
                            let out = Self::solve_raw(config, p, w.as_ref(), &mut scratch);
                            let dur_secs = anchor.elapsed().as_secs_f64() - start_secs;
                            let alloc = obs::alloc::thread_stats().since(alloc0);
                            let leaf = LeafSpan {
                                round,
                                stage: Stage::Solve,
                                index: *pi,
                                items: p.segments.len(),
                                thread: worker + 1,
                                start_secs,
                                dur_secs,
                                alloc_bytes: alloc.bytes,
                                alloc_events: alloc.events,
                            };
                            local.push((mi, out, leaf));
                        }
                        local
                    }));
                }
                for h in handles {
                    // invariant: workers run no user code and cannot
                    // unwind past solve_raw's Result.
                    for (mi, out, leaf) in h.join().expect("partition worker panicked") {
                        slots[mi] = Some(out);
                        leaf_slots[mi] = Some(leaf);
                    }
                }
            });
            // Deliver leaves in miss order: deterministic regardless of
            // which worker claimed what.
            ctx.leaves.extend(leaf_slots.into_iter().flatten());
            slots.into_iter().flatten().collect()
        };
        ctx.raw = raw.into_iter().collect::<Result<Vec<_>, SolveError>>()?;
        ctx.counters.warm_starts += ctx.raw.iter().filter(|r| r.warm_started()).count();
        Ok(())
    }
}

/// Rounds the raw solutions to integral layers (Algorithm 1), judges
/// acceptance against the partition objective, refreshes the cache, and
/// merges the accepted per-segment proposals back in partition order.
struct PostMapStage;

impl FlowStage for PostMapStage {
    fn stage(&self) -> Stage {
        Stage::PostMap
    }

    fn run(&mut self, ctx: &mut FlowContext<'_>) -> Result<(), FlowError> {
        let alpha = ctx.config.alpha;
        for ((pi, problem, _), raw) in ctx.misses.drain(..).zip(ctx.raw.drain(..)) {
            let (proposed, warm_out): (Option<Vec<usize>>, _) = match raw {
                RawSolve::Relaxed { x, warm, .. } => (Some(post_map(&problem, &x)), warm),
                RawSolve::Exact(choices) => (choices, None),
            };
            // Accept only if the partition objective does not regress.
            let accepted: &[usize] = match &proposed {
                Some(choices) => {
                    ctx.counters.evaluations += 2;
                    if soft_cost(alpha, &problem, choices)
                        <= soft_cost(alpha, &problem, &problem.current)
                    {
                        choices
                    } else {
                        &problem.current
                    }
                }
                None => &problem.current,
            };
            let layers = problem.choices_to_layers(accepted);
            // alloc: one result row per solved leaf, retained past the
            // loop in `ctx.results`.
            let result: Vec<(SegmentRef, usize)> =
                problem.segments.iter().copied().zip(layers).collect();
            ctx.counters.partitions_solved += 1;
            // alloc: the cross-round cache owns its key and entry.
            ctx.cache.insert(
                problem.segments.clone(),
                CacheEntry {
                    // alloc: the entry keeps its own copy of the row.
                    result: result.clone(),
                    warm: warm_out,
                    problem,
                },
            );
            ctx.results[pi] = result;
        }
        ctx.proposals = ctx.results.drain(..).flatten().collect();
        Ok(())
    }
}

/// Groups the proposals per net (in index order, so application is
/// deterministic), drops no-op changes, and verifies each critical
/// net's proposal against its exact Elmore delay before letting it land.
struct GateStage;

impl FlowStage for GateStage {
    fn stage(&self) -> Stage {
        Stage::Gate
    }

    fn run(&mut self, ctx: &mut FlowContext<'_>) -> Result<(), FlowError> {
        // Group per net by a *stable* sort: nets come out in index
        // order, and each net's proposals keep their partition-order
        // sequence — the same grouping the old per-net buckets built,
        // without a hash map on the hot path.
        let mut proposals = std::mem::take(&mut ctx.proposals);
        proposals.sort_by_key(|&(sref, _)| sref.net);
        ctx.pending.clear();
        let mut at = 0;
        while at < proposals.len() {
            let ni = proposals[at].0.net as usize;
            let mut hi = at;
            while hi < proposals.len() && proposals[hi].0.net as usize == ni {
                hi += 1;
            }
            let changes = &proposals[at..hi];
            at = hi;
            let net = ctx.netlist.net(ni);
            // alloc: `current` seeds the commit/revert ledger entry and
            // is retained in `ctx.pending`; `real` is the per-net change
            // set the gate consumes.
            let current = ctx.assignment.net_layers(ni).to_vec();
            let real: Vec<(usize, usize)> = changes
                .iter()
                .map(|&(sref, l)| (sref.seg as usize, l))
                .filter(|&(s, l)| current[s] != l)
                // alloc: per-net change set consumed by the gate below.
                .collect();
            if real.is_empty() {
                continue;
            }
            // Gate *critical* nets on their exact Elmore delay: the
            // partition objective ranks with frozen downstream caps,
            // so a mapped win can still be an exact-timing loss.
            // Neighbor nets bypass the gate — demoting them off
            // premium layers raises their own delay by design.
            let layers = if ctx.is_released.contains(&ni) {
                match timing_gate(&ctx.model, net, &current, &real) {
                    Some(layers) => {
                        ctx.counters.gate_accepted += 1;
                        layers
                    }
                    None => {
                        ctx.counters.gate_rejected += 1;
                        continue;
                    }
                }
            } else {
                // alloc: the new per-net layer vector is the pending
                // commit payload, retained in `ctx.pending`.
                let mut layers = current.clone();
                for (s, l) in real {
                    layers[s] = l;
                }
                layers
            };
            ctx.pending.push((ni, current, layers));
        }
        // Optional paranoia gate: before any pending change lands,
        // re-verify the paper's constraints (4b/4c/4d) and the cached
        // Elmore timing against from-scratch recomputation.
        if ctx.config.audit_invariants {
            audit::check_solution(ctx.grid, ctx.netlist, ctx.assignment)?;
        }
        Ok(())
    }
}

/// Lands the surviving per-net layer vectors in the assignment and grid
/// usage, visiting nets in index order. Each application is recorded as
/// one leaf span (`items` = layers actually changed).
struct AcceptStage;

impl FlowStage for AcceptStage {
    fn stage(&self) -> Stage {
        Stage::Accept
    }

    fn run(&mut self, ctx: &mut FlowContext<'_>) -> Result<(), FlowError> {
        let anchor = Instant::now();
        let round = ctx.round;
        for (ni, current, layers) in std::mem::take(&mut ctx.pending) {
            let alloc0 = obs::alloc::thread_stats();
            let start_secs = anchor.elapsed().as_secs_f64();
            let changed = current.iter().zip(&layers).filter(|(a, b)| a != b).count();
            let net = ctx.netlist.net(ni);
            net::remove_net_from_grid(ctx.grid, net, &current);
            net::restore_net_to_grid(ctx.grid, net, &layers);
            ctx.assignment.set_net_layers(ni, layers);
            let dur_secs = anchor.elapsed().as_secs_f64() - start_secs;
            let alloc = obs::alloc::thread_stats().since(alloc0);
            ctx.leaves.push(LeafSpan {
                round,
                stage: Stage::Accept,
                index: ni,
                items: changed,
                thread: 0,
                start_secs,
                dur_secs,
                alloc_bytes: alloc.bytes,
                alloc_events: alloc.events,
            });
        }
        Ok(())
    }
}

/// Measures round metrics, records the round, and tracks the incumbent
/// state and stagnation stop.
struct MeasureStage;

impl FlowStage for MeasureStage {
    fn stage(&self) -> Stage {
        Stage::Measure
    }

    fn run(&mut self, ctx: &mut FlowContext<'_>) -> Result<(), FlowError> {
        let m = Metrics::measure(ctx.grid, ctx.netlist, ctx.assignment, ctx.released);
        // Price overflow added beyond the input state instead of
        // forbidding it outright — the Measure-stage mirror of the
        // paper's `α·V_o` relaxation (see `CplaConfig::overflow_price`).
        let excess = ctx
            .grid
            .total_wire_overflow()
            .saturating_sub(ctx.input_wire_overflow)
            + m.via_overflow.saturating_sub(ctx.input_via_overflow);
        let score = m.avg_tcp + ctx.config.overflow_price * ctx.input_avg * excess as f64;
        let improved = score < ctx.best_score - 1e-12;
        ctx.rounds.push(RoundStats {
            round: ctx.round,
            avg_tcp: m.avg_tcp,
            max_tcp: m.max_tcp,
            partitions: ctx.partitions.len(),
            improved,
        });
        if improved {
            ctx.best_avg = m.avg_tcp;
            ctx.best_score = score;
            ctx.best_assignment = ctx.assignment.clone();
            ctx.best_usage = ctx.grid.snapshot_usage();
            ctx.stagnant = 0;
        } else {
            // One stagnant round is tolerated: the partition origin
            // alternates between rounds, so a stalled round may be
            // followed by an improving one under the shifted cut.
            ctx.stagnant += 1;
            if ctx.stagnant >= 2 {
                ctx.stop = true; // no further optimization achievable
            }
        }
        ctx.last_objective = m.avg_tcp;
        ctx.last_improved = improved;
        Ok(())
    }
}

/// Partition objective with soft overflow: linear + pair costs plus
/// α·(mean linear cost)·overflow units.
fn soft_cost(alpha: f64, problem: &PartitionProblem, choices: &[usize]) -> f64 {
    let mut cost = 0.0;
    for (i, &c) in choices.iter().enumerate() {
        cost += problem.linear_cost[i][c];
    }
    for pair in &problem.pairs {
        cost += pair.costs[choices[pair.a]][choices[pair.b]];
    }
    let mean_linear = {
        let total: f64 = problem.linear_cost.iter().flat_map(|c| c.iter()).sum();
        let count: usize = problem.linear_cost.iter().map(|c| c.len()).sum();
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    };
    let mut overflow = 0u32;
    for ec in &problem.edge_constraints {
        let used = ec.members.iter().filter(|&&(i, c)| choices[i] == c).count() as u32;
        overflow += used.saturating_sub(ec.limit);
    }
    cost + alpha * mean_linear * overflow as f64
}

/// Reassembles [`PipelineStats`] from observer callbacks — the wall-time
/// and counter instrumentation is itself just a [`StageObserver`].
#[derive(Default)]
pub(crate) struct StatsCollector {
    stats: PipelineStats,
}

impl StatsCollector {
    pub(crate) fn into_stats(self) -> PipelineStats {
        self.stats
    }
}

impl StageObserver for StatsCollector {
    fn on_stage_end(&mut self, _round: usize, stage: Stage, seconds: f64) {
        match stage {
            Stage::Select => self.stats.context_secs += seconds,
            Stage::Partition => self.stats.partition_secs += seconds,
            Stage::Extract => self.stats.extract_secs += seconds,
            Stage::Solve | Stage::PostMap => self.stats.solve_secs += seconds,
            Stage::Gate | Stage::Accept => self.stats.apply_secs += seconds,
            Stage::Measure => self.stats.metrics_secs += seconds,
            _ => {}
        }
    }

    fn on_round_end(&mut self, snapshot: &RoundSnapshot) {
        self.stats.rounds += 1;
        let c = snapshot.counters;
        self.stats.partitions_solved = c.partitions_solved;
        self.stats.partitions_reused = c.partitions_reused;
        self.stats.evaluations = c.evaluations;
        self.stats.gate_accepted = c.gate_accepted;
        self.stats.gate_rejected = c.gate_rejected;
        self.stats.warm_starts = c.warm_starts;
    }
}

/// Runs the full stage pipeline: the outer round loop, observer
/// notification, stagnation stop, and incumbent restoration.
pub(crate) fn drive(
    config: CplaConfig,
    grid: &mut Grid,
    netlist: &Netlist,
    assignment: &mut Assignment,
    released: &[usize],
    initial_metrics: Metrics,
    observers: &mut [&mut dyn StageObserver],
) -> Result<CplaReport, FlowError> {
    let mut stats = StatsCollector::default();
    // Scoped allocation accounting: a no-op unless the hosting binary
    // installed `obs::CountingAlloc`; restored on every exit path.
    let _alloc_scope = config.alloc_stats.then(obs::alloc::ScopedEnable::new);
    let mut stages = stages();
    let mut ctx = FlowContext::new(config, grid, netlist, assignment, released, initial_metrics);

    for round in 1..=ctx.config.max_rounds {
        ctx.round = round;
        for stage in stages.iter_mut() {
            let s = stage.stage();
            stats.on_stage_start(round, s);
            for obs in observers.iter_mut() {
                obs.on_stage_start(round, s);
            }
            let t = Instant::now();
            stage.run(&mut ctx)?;
            let secs = t.elapsed().as_secs_f64();
            // Leaves recorded by the stage body (possibly on worker
            // threads) are delivered here, on the driver thread, before
            // the stage-end boundary — observers stay lock-free.
            for leaf in ctx.leaves.drain(..) {
                stats.on_leaf(&leaf);
                for obs in observers.iter_mut() {
                    obs.on_leaf(&leaf);
                }
            }
            stats.on_stage_end(round, s, secs);
            for obs in observers.iter_mut() {
                obs.on_stage_end(round, s, secs);
            }
        }
        let snapshot = RoundSnapshot {
            round,
            objective: ctx.last_objective,
            improved: ctx.last_improved,
            counters: ctx.counters,
        };
        stats.on_round_end(&snapshot);
        for obs in observers.iter_mut() {
            obs.on_round_end(&snapshot);
        }
        if ctx.stop {
            break;
        }
    }

    // Restore the best accepted state.
    *ctx.assignment = ctx.best_assignment;
    ctx.grid.restore_usage(ctx.best_usage);
    // The restored incumbent is what callers keep: audit it too.
    if ctx.config.audit_invariants {
        audit::check_solution(ctx.grid, ctx.netlist, ctx.assignment)?;
    }
    let final_metrics = Metrics::measure(ctx.grid, ctx.netlist, ctx.assignment, ctx.released);
    Ok(CplaReport {
        released: released.to_vec(),
        initial_metrics,
        final_metrics,
        rounds: ctx.rounds,
        partition_stats: ctx.first_round_pstats,
        stats: stats.into_stats(),
    })
}
