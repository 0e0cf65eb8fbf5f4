//! Hierarchical span recording over the [`StageObserver`] seam.
//!
//! A [`Recorder`] attaches to any `LayerAssigner::assign_observed` call
//! and reconstructs the run's span tree from the observer callbacks:
//!
//! ```text
//! run ─┬─ round 1 ─┬─ select
//!      │           ├─ …
//!      │           ├─ solve ─┬─ leaf (partition 0, thread 2)
//!      │           │         └─ leaf (partition 1, thread 1)
//!      │           └─ accept ─┬─ leaf (net 7)
//!      │                      └─ …
//!      └─ round 2 ─ …
//! ```
//!
//! All timestamps come from one monotonic [`Instant`] origin captured
//! when the recorder is created, expressed as microseconds since that
//! origin — exactly what the Chrome `trace_event` exporter needs. Leaf
//! spans arrive with stage-relative offsets (recorded on whichever
//! worker ran them) and are re-anchored on the recorder's clock.
//!
//! When a counting allocator is installed and enabled (see
//! [`crate::alloc`]), run/round/stage spans carry the *driver thread's*
//! allocation delta and leaf spans carry their own worker's; a stage's
//! true total is the driver delta plus its foreign-thread leaves (the
//! [`crate::stats::summarize`] rollup does this). The recorder's own
//! growth — its span list reallocating as spans close or leaves arrive
//! — happens on the driver thread inside whatever spans are open; it is
//! measured around each push and subtracted, so a span reports only
//! what the engine allocated.

use std::time::Instant;

use flow::{LeafSpan, RoundSnapshot, Stage, StageObserver};

use crate::alloc::{thread_stats, AllocStats};

/// Position of a span in the run/round/stage/leaf hierarchy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpanKind {
    /// The whole `assign_observed` call.
    Run,
    /// One outer round.
    Round,
    /// One stage of one round.
    Stage,
    /// One unit of work inside a stage (partition solve, net accept).
    Leaf,
}

/// One closed span on the recorder's monotonic clock.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SpanRecord {
    /// Hierarchy level.
    pub kind: SpanKind,
    /// Owning stage for `Stage`/`Leaf` spans, `None` for run/round.
    pub stage: Option<Stage>,
    /// 1-based round (0 for the run span).
    pub round: usize,
    /// Leaf index (partition or net), 0 otherwise.
    pub index: usize,
    /// Leaf size (segments or changed layers), 0 otherwise.
    pub items: usize,
    /// Thread ordinal: 0 is the driver, which works as a pool worker
    /// itself, and the pool's helpers are `1..threads`.
    pub thread: usize,
    /// Start, in microseconds since the recorder's origin.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Bytes allocated during the span on its own thread.
    pub alloc_bytes: u64,
    /// Allocation events during the span on its own thread.
    pub alloc_events: u64,
    /// Round objective, on `Round` spans only.
    pub objective: Option<f64>,
}

impl SpanRecord {
    /// Stable lower-case name: `run`, `round`, or the stage name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self.kind {
            SpanKind::Run => "run",
            SpanKind::Round => "round",
            #[expect(
                clippy::expect_used,
                reason = "the recorder only emits Stage/Leaf records with `stage` populated (see \
                          `on_stage_start`/`on_leaf`)"
            )]
            SpanKind::Stage | SpanKind::Leaf => {
                self.stage.expect("stage span carries its stage").name()
            }
        }
    }
}

/// An open (not yet ended) span: its start time, the driver thread's
/// allocation counters and the recorder's own allocations at that
/// instant.
#[derive(Clone, Copy, Debug)]
struct OpenSpan {
    start_us: f64,
    alloc: AllocStats,
    own: AllocStats,
}

/// A [`StageObserver`] that records the full span tree of one run.
///
/// Create one per engine run, attach it via `assign_observed`, then call
/// [`Recorder::finish`] and hand it to the exporters
/// ([`crate::chrome::export`], [`crate::prom::export`]) or the
/// [`crate::stats::summarize`] rollup.
#[derive(Debug)]
pub struct Recorder {
    label: String,
    origin: Instant,
    spans: Vec<SpanRecord>,
    /// Cumulative allocations of the recorder's own pushes, on the
    /// driver thread.
    own: AllocStats,
    open_run: Option<OpenSpan>,
    open_round: Option<(usize, OpenSpan)>,
    open_stage: Option<(usize, Stage, OpenSpan)>,
}

impl Recorder {
    /// Creates an empty recorder; `label` names the run in exports
    /// (e.g. `"cpla/incremental"`).
    #[must_use]
    pub fn new(label: impl Into<String>) -> Recorder {
        Recorder {
            label: label.into(),
            origin: Instant::now(),
            spans: Vec::new(),
            own: AllocStats::default(),
            open_run: None,
            open_round: None,
            open_stage: None,
        }
    }

    /// The run label given at construction.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// All closed spans, in close order.
    #[must_use]
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// The closed run span, if [`Recorder::finish`] has been called
    /// after at least one observed stage.
    #[must_use]
    pub fn run_span(&self) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.kind == SpanKind::Run)
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    fn open_here(&self) -> OpenSpan {
        OpenSpan {
            start_us: self.now_us(),
            alloc: thread_stats(),
            own: self.own,
        }
    }

    /// Appends a closed span, adding whatever the push allocates (the
    /// span list growing) to the recorder's own tally.
    fn push(&mut self, span: SpanRecord) {
        let before = thread_stats();
        self.spans.push(span);
        let grown = thread_stats().since(before);
        self.own.bytes += grown.bytes;
        self.own.events += grown.events;
    }

    fn close(&mut self, kind: SpanKind, stage: Option<Stage>, round: usize, open: OpenSpan) {
        let end_us = self.now_us();
        let alloc = thread_stats()
            .since(open.alloc)
            .since(self.own.since(open.own));
        self.push(SpanRecord {
            kind,
            stage,
            round,
            index: 0,
            items: 0,
            thread: 0,
            start_us: open.start_us,
            dur_us: (end_us - open.start_us).max(0.0),
            alloc_bytes: alloc.bytes,
            alloc_events: alloc.events,
            objective: None,
        });
    }

    /// Closes any spans still open (stage, round, run). Call once after
    /// the observed run returns; further callbacks start a new tree on
    /// the same clock.
    pub fn finish(&mut self) {
        if let Some((round, stage, open)) = self.open_stage.take() {
            self.close(SpanKind::Stage, Some(stage), round, open);
        }
        if let Some((round, open)) = self.open_round.take() {
            self.close(SpanKind::Round, None, round, open);
        }
        if let Some(open) = self.open_run.take() {
            self.close(SpanKind::Run, None, 0, open);
        }
    }
}

impl StageObserver for Recorder {
    fn on_stage_start(&mut self, round: usize, stage: Stage) {
        if self.open_run.is_none() {
            self.open_run = Some(self.open_here());
        }
        match self.open_round {
            Some((r, _)) if r == round => {}
            Some((r, open)) => {
                // Defensive: a driver that skips on_round_end still
                // yields closed, non-overlapping round spans.
                self.close(SpanKind::Round, None, r, open);
                self.open_round = Some((round, self.open_here()));
            }
            None => self.open_round = Some((round, self.open_here())),
        }
        self.open_stage = Some((round, stage, self.open_here()));
    }

    fn on_leaf(&mut self, leaf: &LeafSpan) {
        // Leaves carry stage-relative offsets; anchor them on the open
        // stage's start so they nest inside it on the recorder's clock.
        let anchor = match &self.open_stage {
            Some((_, _, open)) => open.start_us,
            None => self.now_us(),
        };
        self.push(SpanRecord {
            kind: SpanKind::Leaf,
            stage: Some(leaf.stage),
            round: leaf.round,
            index: leaf.index,
            items: leaf.items,
            thread: leaf.thread,
            start_us: anchor + leaf.start_secs * 1e6,
            dur_us: leaf.dur_secs * 1e6,
            alloc_bytes: leaf.alloc_bytes,
            alloc_events: leaf.alloc_events,
            objective: None,
        });
    }

    fn on_stage_end(&mut self, round: usize, stage: Stage, _seconds: f64) {
        if let Some((r, s, open)) = self.open_stage.take() {
            if r == round && s == stage {
                self.close(SpanKind::Stage, Some(stage), round, open);
            } else {
                self.open_stage = Some((r, s, open));
            }
        }
    }

    fn on_round_end(&mut self, snapshot: &RoundSnapshot) {
        if let Some((round, open)) = self.open_round.take() {
            self.close(SpanKind::Round, None, round, open);
            #[expect(
                clippy::expect_used,
                reason = "`close` pushed the round span it was given"
            )]
            let span = self.spans.last_mut().expect("close() just pushed");
            span.objective = Some(snapshot.objective);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flow::FlowCounters;

    fn snapshot(round: usize) -> RoundSnapshot {
        RoundSnapshot {
            round,
            objective: 1.5,
            improved: true,
            counters: FlowCounters::default(),
        }
    }

    #[test]
    fn records_a_nested_run_round_stage_leaf_tree() {
        let mut rec = Recorder::new("test");
        for round in 1..=2 {
            for stage in [Stage::Select, Stage::Solve] {
                rec.on_stage_start(round, stage);
                if stage == Stage::Solve {
                    rec.on_leaf(&LeafSpan {
                        round,
                        stage,
                        index: 3,
                        items: 5,
                        thread: 1,
                        start_secs: 0.0,
                        dur_secs: 1e-6,
                        alloc_bytes: 64,
                        alloc_events: 2,
                    });
                }
                rec.on_stage_end(round, stage, 0.0);
            }
            rec.on_round_end(&snapshot(round));
        }
        rec.finish();

        let spans = rec.spans();
        let count = |k: SpanKind| spans.iter().filter(|s| s.kind == k).count();
        assert_eq!(count(SpanKind::Run), 1);
        assert_eq!(count(SpanKind::Round), 2);
        assert_eq!(count(SpanKind::Stage), 4);
        assert_eq!(count(SpanKind::Leaf), 2);

        let run = rec.run_span().unwrap();
        let leaf = spans.iter().find(|s| s.kind == SpanKind::Leaf).unwrap();
        assert_eq!(leaf.name(), "solve");
        assert_eq!((leaf.index, leaf.items, leaf.thread), (3, 5, 1));
        assert_eq!((leaf.alloc_bytes, leaf.alloc_events), (64, 2));
        // Nesting: every span starts at or after the run start and every
        // round span carries its objective.
        for s in spans {
            assert!(s.start_us >= run.start_us - 1e-9, "span precedes run");
            assert!(s.dur_us >= 0.0);
        }
        for r in spans.iter().filter(|s| s.kind == SpanKind::Round) {
            assert_eq!(r.objective, Some(1.5));
        }
        assert_eq!(run.round, 0);
    }

    #[test]
    fn finish_closes_dangling_spans() {
        let mut rec = Recorder::new("dangling");
        rec.on_stage_start(1, Stage::Partition);
        rec.finish();
        let kinds: Vec<SpanKind> = rec.spans().iter().map(|s| s.kind).collect();
        assert_eq!(kinds, [SpanKind::Stage, SpanKind::Round, SpanKind::Run]);
    }

    #[test]
    fn finish_without_callbacks_records_nothing() {
        let mut rec = Recorder::new("empty");
        rec.finish();
        assert!(rec.spans().is_empty());
        assert!(rec.run_span().is_none());
    }
}
