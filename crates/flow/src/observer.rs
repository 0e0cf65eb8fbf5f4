//! Per-stage instrumentation hooks.
//!
//! The stage drivers call into a slice of [`StageObserver`]s at every
//! stage boundary and at the end of every outer round. Wall-time stats
//! collection, JSON-lines tracing and progress printing are all
//! observers — the engines themselves carry no instrumentation branches.

/// The discrete stages of a layer-assignment flow round.
///
/// The CPLA stage pipeline runs all eight; simpler engines (TILA) emit
/// only the subset they have. Order within a round is the declaration
/// order.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[non_exhaustive]
pub enum Stage {
    /// Freeze the weighted timing context of the released nets.
    Select,
    /// Partition the released segments (uniform K×K + quadtree refine).
    Partition,
    /// Extract per-partition mathematical programs, consulting caches.
    Extract,
    /// Solve the extracted programs (the parallel phase).
    Solve,
    /// Round relaxed solutions to integral layers and judge acceptance.
    PostMap,
    /// Verify proposals with the exact incremental timing gate.
    Gate,
    /// Land accepted changes in the assignment and grid usage.
    Accept,
    /// Measure round metrics and track the incumbent state.
    Measure,
}

impl Stage {
    /// All stages in round order.
    pub const ALL: [Stage; 8] = [
        Stage::Select,
        Stage::Partition,
        Stage::Extract,
        Stage::Solve,
        Stage::PostMap,
        Stage::Gate,
        Stage::Accept,
        Stage::Measure,
    ];

    /// Stable lower-case name (used in trace records).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Select => "select",
            Stage::Partition => "partition",
            Stage::Extract => "extract",
            Stage::Solve => "solve",
            Stage::PostMap => "post_map",
            Stage::Gate => "gate",
            Stage::Accept => "accept",
            Stage::Measure => "measure",
        }
    }
}

/// Cumulative work counters of a flow run.
///
/// Engines without a given mechanism leave its counter at zero.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FlowCounters {
    /// Partitions solved from scratch (cache misses).
    pub partitions_solved: usize,
    /// Partitions whose cached result was reused (cache hits).
    pub partitions_reused: usize,
    /// Partition-objective evaluations performed.
    pub evaluations: u64,
    /// Net proposals that passed the exact timing gate.
    pub gate_accepted: usize,
    /// Net proposals the gate rejected.
    pub gate_rejected: usize,
    /// Solve leaves that started from the warm pair of a stale cache
    /// entry (one whose dimension matched the problem).
    pub warm_starts: usize,
    /// Entries resident in the cross-round partition cache after the
    /// latest PostMap: one per partition solved so far.
    pub cache_entries: usize,
    /// Always 0: no engine has a batched Solve stage. Kept because the
    /// `perfbench` trace collector reads the field.
    pub batch_sweeps: u64,
    /// Always 0, kept for the same reason as
    /// [`FlowCounters::batch_sweeps`].
    pub batch_retired_early: u64,
}

/// What an observer learns at the end of one outer round.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RoundSnapshot {
    /// 1-based round number.
    pub round: usize,
    /// The engine's objective after the round — `Avg(T_cp)` for CPLA,
    /// the weighted-sum delay for TILA.
    pub objective: f64,
    /// Whether the round improved the incumbent.
    pub improved: bool,
    /// Cumulative counters up to and including this round.
    pub counters: FlowCounters,
}

/// One unit of work inside a stage: a partition extracted, solved or
/// post-mapped, an accept-loop net application, or any other leaf the
/// engine cares to attribute.
///
/// Leaves are *recorded* wherever the work ran (a pool worker records
/// its own leaves, stamping [`LeafSpan::thread`]), but always
/// *delivered* on the driver thread between the stage body and its
/// [`StageObserver::on_stage_end`] callback, so observers still need no
/// synchronization. Timestamps are offsets from the owning stage's
/// start, taken from the same monotonic clock that times the stage.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct LeafSpan {
    /// 1-based round the leaf ran in.
    pub round: usize,
    /// The stage the leaf belongs to.
    pub stage: Stage,
    /// Engine-defined index: the partition index for extract, solve
    /// and post-map leaves, the net index for accept leaves.
    pub index: usize,
    /// Engine-defined size: segments in the partition for extract,
    /// solve and post-map leaves, layers changed for accept leaves.
    pub items: usize,
    /// Worker ordinal that ran the leaf: `0` is the calling (driver)
    /// thread, which works as a pool worker itself, and the pool's
    /// helpers are `1..threads`.
    pub thread: usize,
    /// Leaf start, in seconds after the owning stage started.
    pub start_secs: f64,
    /// Leaf duration in seconds.
    pub dur_secs: f64,
    /// Bytes allocated on the leaf's thread while it ran (zero unless a
    /// counting allocator is installed and enabled).
    pub alloc_bytes: u64,
    /// Allocation events on the leaf's thread while it ran.
    pub alloc_events: u64,
}

/// Stage-boundary hooks threaded through a flow driver.
///
/// All methods default to no-ops so observers implement only what they
/// need. Callbacks run on the driver thread, in stage order, outside the
/// parallel sections — implementations need no synchronization.
pub trait StageObserver {
    /// A stage is about to run.
    fn on_stage_start(&mut self, round: usize, stage: Stage) {
        let _ = (round, stage);
    }

    /// A leaf unit of work inside the current stage completed.
    ///
    /// Delivered after the stage body returns and before
    /// [`StageObserver::on_stage_end`], in deterministic (index) order
    /// regardless of which worker ran the leaf.
    fn on_leaf(&mut self, leaf: &LeafSpan) {
        let _ = leaf;
    }

    /// A stage finished after `seconds` of wall time.
    fn on_stage_end(&mut self, round: usize, stage: Stage, seconds: f64) {
        let _ = (round, stage, seconds);
    }

    /// An outer round completed.
    fn on_round_end(&mut self, snapshot: &RoundSnapshot) {
        let _ = snapshot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_are_unique_and_ordered() {
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        assert_eq!(names[0], "select");
        assert_eq!(names[7], "measure");
    }

    #[test]
    fn default_observer_methods_are_callable() {
        struct Nop;
        impl StageObserver for Nop {}
        let mut n = Nop;
        n.on_stage_start(1, Stage::Solve);
        n.on_leaf(&LeafSpan {
            round: 1,
            stage: Stage::Solve,
            index: 0,
            items: 0,
            thread: 0,
            start_secs: 0.0,
            dur_secs: 0.0,
            alloc_bytes: 0,
            alloc_events: 0,
        });
        n.on_stage_end(1, Stage::Solve, 0.0);
        n.on_round_end(&RoundSnapshot {
            round: 1,
            objective: 0.0,
            improved: false,
            counters: FlowCounters::default(),
        });
    }
}
