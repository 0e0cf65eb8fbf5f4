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
//! the flow stops improving. The run's counters are collected by
//! [`StatsCollector`] — itself just another observer.
//!
//! Extract, Solve and PostMap run their per-partition work on one
//! worker pool ([`pool_run`]): the calling thread and `threads − 1`
//! scoped helpers claim partitions off one counter, each with buffers
//! it keeps across leaves and rounds, and the stage merges what they
//! return serially, in partition or miss order.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

use ::flow::{
    FlowCounters, FlowError, LeafSpan, Metrics, RoundSnapshot, SolveError, Stage, StageObserver,
};
use grid::Grid;
use net::{Assignment, Netlist, SegmentRef};
use solver::{BlockMatrix, SdpProblem, SdpSolver, SolveScratch};
use timing::TimingModel;

use crate::context::{timing_context_into, SegCtx, SegCtxTable};
use crate::engine::{CplaConfig, CplaReport, PipelineStats, RoundStats, SolverKind};
use crate::mapping::{post_map_with, timing_gate, PostMapScratch};
use crate::partition::{partition_segments_sharded, Partition, PartitionStats};
use crate::problem::{ExtractScratch, PartitionProblem};

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

/// One pool worker's buffers, kept across leaves, stages and rounds.
#[derive(Default)]
struct Worker {
    extract: ExtractScratch,
    sdp: SdpProblem,
    solve: SolveScratch,
    post_map: PostMapScratch,
    /// The chosen-variable mask of the acceptance rule.
    chosen: Vec<bool>,
}

/// Runs `leaf` on every item `0..count` with the partition pool: the
/// calling thread is worker 0, `threads − 1` scoped helpers join it,
/// and each worker claims the next item off one counter, with its own
/// [`Worker`] buffers. `span(item)` names an item's leaf span (index
/// and size); items are claimed largest first, ties by item, so no
/// worker idles while a heavy partition pins another. Returns every
/// item's output in item order and appends one leaf span per item, in
/// item order, to `leaves`: which worker ran what cannot show in
/// either.
///
/// Each leaf is a pure function of its item and of state the stage
/// froze before the pool started, so the claim order changes nothing
/// but the spans' timings and thread ordinals.
#[expect(
    clippy::too_many_arguments,
    reason = "the pool's inputs are the stage's frozen state and its per-leaf closures"
)]
fn pool_run<T: Send + Sync>(
    workers: &mut [Worker],
    threads: usize,
    count: usize,
    round: usize,
    stage: Stage,
    span: impl Fn(usize) -> (usize, usize) + Sync,
    leaf: impl Fn(usize, &mut Worker) -> T + Sync,
    leaves: &mut Vec<LeafSpan>,
) -> Vec<T> {
    let threads = threads.clamp(1, count.max(1)).min(workers.len());
    let mut order: Vec<usize> = (0..count).collect();
    order.sort_by_cached_key(|&item| (std::cmp::Reverse(span(item).1), item));
    let order = &order;
    // One monotonic anchor for the whole pool: leaf offsets are seconds
    // since this instant, on whichever thread ran the leaf.
    let anchor = Instant::now();
    let next = AtomicUsize::new(0);
    // alloc: one slot per item, written once by whichever worker
    // claims the item.
    let slots: Vec<OnceLock<(T, LeafSpan)>> = (0..count).map(|_| OnceLock::new()).collect();
    let work = |thread: usize, worker: &mut Worker| loop {
        // sync: Relaxed — the counter is a pure claim ticket (atomicity
        // alone prevents double claims); results publish via the slots'
        // own synchronization and the scope join.
        let k = next.fetch_add(1, Ordering::Relaxed);
        let Some(&item) = order.get(k) else { break };
        let alloc0 = obs::alloc::thread_stats();
        let start_secs = anchor.elapsed().as_secs_f64();
        let out = leaf(item, worker);
        let dur_secs = anchor.elapsed().as_secs_f64() - start_secs;
        let alloc = obs::alloc::thread_stats().since(alloc0);
        let (index, items) = span(item);
        let span = LeafSpan {
            round,
            stage,
            index,
            items,
            thread,
            start_secs,
            dur_secs,
            alloc_bytes: alloc.bytes,
            alloc_events: alloc.events,
        };
        // Each item is claimed once, so its slot is empty.
        let _ = slots[item].set((out, span));
    };
    let (caller, helpers) = workers.split_at_mut(1);
    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = helpers[..threads - 1]
            .iter_mut()
            .enumerate()
            .map(|(h, worker)| scope.spawn(move || work(h + 1, worker)))
            .collect();
        work(0, &mut caller[0]);
        for h in handles {
            #[expect(
                clippy::expect_used,
                reason = "pool leaves return their failures as values and cannot unwind"
            )]
            h.join().expect("partition worker panicked");
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            #[expect(
                clippy::expect_used,
                reason = "the workers claim every item before the scope ends"
            )]
            let (out, span) = slot.into_inner().expect("every item was run");
            leaves.push(span);
            out
        })
        .collect()
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
    /// The partition pool's buffers, one per worker (`threads` of them;
    /// worker 0 is the calling thread).
    workers: Vec<Worker>,

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
    /// Leaf spans recorded by the running stage (partitions extracted,
    /// solved and post-mapped, accept applications); [`drive`] drains
    /// them to the observers
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
    //
    // Only released and neighbor nets ever change, so the incumbent is
    // held as their layers alone; `drive` restores it by re-committing
    // the nets that differ.
    best_avg: f64,
    best_score: f64,
    /// The nets a round may change: released, then neighbor nets.
    movable: Vec<usize>,
    /// The incumbent's layers of every movable net, back to back in
    /// `movable` order.
    best_layers: Vec<usize>,
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
        arena: net::DesignArena,
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
        let cd = SegCtxTable::new(&arena, &segments);

        let best_avg = initial_metrics.avg_tcp;
        let movable: Vec<usize> = released.iter().chain(&neighbor_nets).copied().collect();
        let best_layers = movable_layers(assignment, &movable);
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
            workers: (0..config.threads.max(1))
                .map(|_| Worker::default())
                .collect(),
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
            movable,
            best_layers,
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

/// The layers of `nets`, back to back.
fn movable_layers(assignment: &Assignment, nets: &[usize]) -> Vec<usize> {
    nets.iter()
        .flat_map(|&ni| assignment.net_layers(ni).iter().copied())
        .collect()
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
        Box::new(SolveStage),
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

/// Extracts per-partition mathematical programs on the partition pool,
/// splitting them into cache hits (whose stored result is reused
/// verbatim) and misses (carrying the warm-start iterates of the stale
/// entry they take out of the cache, if any).
///
/// Workers extract and compare against the cache as it stood when the
/// stage began; the reuse counter, the hit results and the cache
/// removals are then merged serially, in partition order.
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
            ref mut cache,
            ref mut workers,
            ref mut leaves,
            round,
            ..
        } = *ctx;
        #[expect(
            clippy::expect_used,
            reason = "partitioning only groups segments from the released pool, and Select froze \
                      a context for every pooled segment"
        )]
        let lookup = |r: SegmentRef| -> SegCtx {
            *cd.get(r).expect("released segment has a frozen context")
        };
        let frozen = &*cache;
        // A miss's problem goes straight to the miss list, so the pool's
        // per-partition slots stay small; the list is put back in
        // partition order below.
        misses.clear();
        let hits = {
            let sink = Mutex::new(&mut *misses);
            pool_run(
                workers,
                config.threads,
                partitions.len(),
                round,
                Stage::Extract,
                |pi| (pi, partitions[pi].segments.len()),
                |pi, worker| {
                    let segments = &partitions[pi].segments;
                    let problem = PartitionProblem::extract_with(
                        grid,
                        netlist,
                        assignment,
                        segments,
                        &lookup,
                        &config.problem,
                        &mut worker.extract,
                    );
                    let hit = frozen
                        .get(segments)
                        .is_some_and(|entry| entry.problem == problem);
                    if !hit {
                        sink.lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .push((pi, problem, None));
                    }
                    hit
                },
                leaves,
            )
        };
        misses.sort_unstable_by_key(|m| m.0);
        *results = vec![Vec::new(); partitions.len()];
        let mut pending = misses.iter_mut().peekable();
        for (pi, hit) in hits.into_iter().enumerate() {
            let segments = &partitions[pi].segments;
            if hit {
                counters.partitions_reused += 1;
                #[expect(
                    clippy::expect_used,
                    reason = "a hit was judged against this entry, and only misses remove keys"
                )]
                let entry = cache.get(segments).expect("a hit's entry is cached");
                // alloc: cache hits hand out owned copies; the entry
                // stays resident for later rounds.
                results[pi] = entry.result.clone();
            } else if let Some((_, _, warm)) = pending.next_if(|m| m.0 == pi) {
                // A miss takes its stale entry out of the cache, warm
                // pair and all: PostMap re-inserts the key with the
                // fresh problem, so at most one problem per partition
                // is ever alive. Partitions are disjoint, so no other
                // leaf of this round reads the key, and a failed Solve
                // aborts the run.
                *warm = cache.remove(segments).and_then(|entry| entry.warm);
            }
        }
        Ok(())
    }
}

/// Solves the cache misses' mathematical programs on the partition pool.
///
/// Each solve is a pure function of its extracted problem and frozen
/// warm start, so the claim order cannot change any result.
struct SolveStage;

impl SolveStage {
    /// Runs the configured mathematical program on one extracted
    /// problem, without rounding or acceptance (that is PostMap's job).
    fn solve_raw(
        config: &CplaConfig,
        problem: &PartitionProblem,
        warm: Option<&WarmPair>,
        worker: &mut Worker,
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
                problem.to_sdp_into(&mut worker.sdp);
                let sol = sdp_config.try_solve_from_with(
                    &worker.sdp,
                    warm.map(|w| (&w.0, &w.1)),
                    &mut worker.solve,
                )?;
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
        let FlowContext {
            ref config,
            ref misses,
            ref mut workers,
            ref mut leaves,
            ref mut raw,
            ref mut counters,
            round,
            ..
        } = *ctx;
        let solved = pool_run(
            workers,
            config.threads,
            misses.len(),
            round,
            Stage::Solve,
            |mi| (misses[mi].0, misses[mi].1.segments.len()),
            |mi, worker| {
                let (_, problem, warm) = &misses[mi];
                Self::solve_raw(config, problem, warm.as_ref(), worker)
            },
            leaves,
        );
        *raw = solved.into_iter().collect::<Result<Vec<_>, SolveError>>()?;
        counters.warm_starts += raw.iter().filter(|r| r.warm_started()).count();
        Ok(())
    }
}

/// Rounds the raw solutions to integral layers (Algorithm 1) and judges
/// acceptance against the partition objective on the partition pool,
/// then — serially, in miss order — refreshes the cache and merges the
/// accepted per-segment proposals back in partition order.
struct PostMapStage;

impl PostMapStage {
    /// One miss's accepted layers as a result row, and the objective
    /// evaluations its acceptance test made.
    fn map_leaf(
        alpha: f64,
        problem: &PartitionProblem,
        raw: &RawSolve,
        worker: &mut Worker,
    ) -> (Vec<(SegmentRef, usize)>, u64) {
        let Worker {
            post_map, chosen, ..
        } = worker;
        let proposed: Option<&[usize]> = match raw {
            RawSolve::Relaxed { x, .. } => Some(post_map_with(problem, x, post_map)),
            RawSolve::Exact(choices) => choices.as_deref(),
        };
        // Accept only if the partition objective does not regress.
        let (accepted, evaluations): (&[usize], u64) = match proposed {
            Some(choices) => {
                let keep = soft_cost(alpha, problem, choices, chosen)
                    <= soft_cost(alpha, problem, &problem.current, chosen);
                (if keep { choices } else { &problem.current }, 2)
            }
            None => (&problem.current, 0),
        };
        // alloc: one result row per solved leaf, retained past the
        // stage in `ctx.results`.
        let result = problem
            .segments
            .iter()
            .zip(accepted)
            .enumerate()
            .map(|(i, (&sref, &c))| (sref, problem.candidates(i)[c]))
            .collect();
        (result, evaluations)
    }
}

impl FlowStage for PostMapStage {
    fn stage(&self) -> Stage {
        Stage::PostMap
    }

    fn run(&mut self, ctx: &mut FlowContext<'_>) -> Result<(), FlowError> {
        let alpha = ctx.config.alpha;
        let (misses, raw) = (&ctx.misses, &ctx.raw);
        let mapped = pool_run(
            &mut ctx.workers,
            ctx.config.threads,
            misses.len(),
            ctx.round,
            Stage::PostMap,
            |mi| (misses[mi].0, misses[mi].1.segments.len()),
            |mi, worker| Self::map_leaf(alpha, &misses[mi].1, &raw[mi], worker),
            &mut ctx.leaves,
        );
        for (((pi, problem, _), raw), (result, evaluations)) in
            ctx.misses.drain(..).zip(ctx.raw.drain(..)).zip(mapped)
        {
            let warm = match raw {
                RawSolve::Relaxed { warm, .. } => warm,
                RawSolve::Exact(_) => None,
            };
            ctx.counters.evaluations += evaluations;
            ctx.counters.partitions_solved += 1;
            // alloc: the cross-round cache owns its key and entry.
            ctx.cache.insert(
                problem.segments.clone(),
                CacheEntry {
                    // alloc: the entry keeps its own copy of the row.
                    result: result.clone(),
                    warm,
                    problem,
                },
            );
            ctx.results[pi] = result;
        }
        ctx.counters.cache_entries = ctx.cache.len();
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
        let wire_overflow = ctx.grid.total_wire_overflow();
        // Price overflow added beyond the input state instead of
        // forbidding it outright — the Measure-stage mirror of the
        // paper's `α·V_o` relaxation (see `CplaConfig::overflow_price`).
        let excess = wire_overflow.saturating_sub(ctx.input_wire_overflow)
            + m.via_overflow.saturating_sub(ctx.input_via_overflow);
        let score = m.avg_tcp + ctx.config.overflow_price * ctx.input_avg * excess as f64;
        let improved = score < ctx.best_score - 1e-12;
        ctx.rounds.push(RoundStats {
            round: ctx.round,
            avg_tcp: m.avg_tcp,
            max_tcp: m.max_tcp,
            partitions: ctx.partitions.len(),
            improved,
            wire_overflow,
            via_overflow: m.via_overflow,
        });
        if improved {
            ctx.best_avg = m.avg_tcp;
            ctx.best_score = score;
            ctx.best_layers = movable_layers(ctx.assignment, &ctx.movable);
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
/// α·(mean linear cost)·overflow units. `chosen` is a reused buffer.
fn soft_cost(
    alpha: f64,
    problem: &PartitionProblem,
    choices: &[usize],
    chosen: &mut Vec<bool>,
) -> f64 {
    problem.cost(choices)
        + alpha * problem.mean_linear_cost() * problem.overflow_with(choices, chosen) as f64
}

/// Reassembles [`PipelineStats`] from observer callbacks — the counter
/// instrumentation is itself just a [`StageObserver`].
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
    fn on_round_end(&mut self, snapshot: &RoundSnapshot) {
        self.stats.rounds += 1;
        let c = snapshot.counters;
        self.stats.partitions_solved = c.partitions_solved;
        self.stats.partitions_reused = c.partitions_reused;
        self.stats.cache_entries = c.cache_entries;
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
    arena: net::DesignArena,
    observers: &mut [&mut dyn StageObserver],
) -> Result<CplaReport, FlowError> {
    let initial_metrics = Metrics::measure(grid, netlist, assignment, released);
    let mut stats = StatsCollector::default();
    // Scoped allocation accounting: a no-op unless the hosting binary
    // installed `obs::CountingAlloc`; restored on every exit path.
    let _alloc_scope = config.alloc_stats.then(obs::alloc::ScopedEnable::new);
    let mut stages = stages();
    let mut ctx = FlowContext::new(
        config,
        grid,
        netlist,
        assignment,
        released,
        arena,
        initial_metrics,
    );

    for round in 1..=ctx.config.max_rounds {
        ctx.round = round;
        for stage in stages.iter_mut() {
            let s = stage.stage();
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
                for obs in observers.iter_mut() {
                    obs.on_leaf(&leaf);
                }
            }
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

    // Restore the best accepted state: re-commit every movable net
    // whose layers moved since the incumbent was recorded.
    let mut at = 0;
    for &ni in &ctx.movable {
        let net = ctx.netlist.net(ni);
        let best = &ctx.best_layers[at..at + net.tree().num_segments()];
        at += best.len();
        let now = ctx.assignment.net_layers(ni);
        if now != best {
            net::remove_net_from_grid(ctx.grid, net, now);
            net::restore_net_to_grid(ctx.grid, net, best);
            // alloc: the assignment owns each net's layer vector.
            ctx.assignment.set_net_layers(ni, best.to_vec());
        }
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use route::{initial_assignment, route_netlist, RouterConfig};

    /// A miss takes its stale entry out of the cache at Extract, and
    /// PostMap leaves exactly one entry per partition solved so far.
    #[test]
    fn the_cache_holds_one_entry_per_solved_partition() {
        let (mut grid, specs) = ispd::SyntheticConfig::small(3).generate().unwrap();
        let netlist = route_netlist(&grid, &specs, &RouterConfig::default());
        let mut assignment = initial_assignment(&mut grid, &netlist);
        // The engine test's workload whose partitions recur across rounds.
        let config = CplaConfig {
            critical_ratio: 0.2,
            max_rounds: 10,
            ..CplaConfig::default()
        };
        let released =
            crate::select_critical_nets(&grid, &netlist, &assignment, config.critical_ratio);
        let initial = Metrics::measure(&grid, &netlist, &assignment, &released);
        let arena = net::DesignArena::from_netlist(&netlist);
        let mut ctx = FlowContext::new(
            config,
            &mut grid,
            &netlist,
            &mut assignment,
            &released,
            arena,
            initial,
        );
        let mut stages = stages();
        let mut solved: HashSet<Vec<SegmentRef>> = HashSet::new();
        let mut cached_before: HashSet<Vec<SegmentRef>> = HashSet::new();
        let (mut stale_misses, mut hits) = (0, 0);
        for round in 1..=config.max_rounds {
            ctx.round = round;
            for stage in stages.iter_mut() {
                if stage.stage() == Stage::Extract {
                    cached_before = ctx.cache.keys().cloned().collect();
                }
                stage.run(&mut ctx).unwrap();
                ctx.leaves.clear();
                match stage.stage() {
                    Stage::Extract => {
                        for (_, problem, _) in &ctx.misses {
                            assert!(
                                !ctx.cache.contains_key(&problem.segments),
                                "round {round}: a pending miss left its entry cached"
                            );
                            stale_misses += usize::from(cached_before.contains(&problem.segments));
                            solved.insert(problem.segments.clone());
                        }
                        hits += ctx.partitions.len() - ctx.misses.len();
                    }
                    Stage::PostMap => {
                        assert_eq!(ctx.cache.len(), solved.len(), "round {round}");
                        assert!(solved.iter().all(|key| ctx.cache.contains_key(key)));
                        assert_eq!(ctx.counters.cache_entries, ctx.cache.len());
                    }
                    _ => {}
                }
            }
            if ctx.stop {
                break;
            }
        }
        assert!(
            stale_misses > 0 && hits > 0,
            "the run must both re-solve stale partitions ({stale_misses}) and reuse cached \
             ones ({hits})"
        );
    }
}
