//! The traced run's instrumentation: in-memory spans for every layer
//! call, and a [`StageObserver`] that turns an assigner's stage
//! callbacks into spans and per-stage statistics.
//!
//! Spans live in memory until the run ends and are then written once
//! as a Chrome `trace_event` document (`chrome://tracing`, Perfetto).

use std::fmt::Write as _;
use std::time::Instant;

use flow::{FlowCounters, LeafSpan, RoundSnapshot, Stage, StageObserver};

/// One closed layer call on the tracer's clock.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Span {
    /// Layer call: `parse`, `to_grid`, `route`, `initial`, `analyze`,
    /// `assign`, `round`, a stage name, or `leaf`.
    pub name: &'static str,
    /// Index of the design the call worked on.
    pub design: usize,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in seconds after the tracer was created.
    pub start_s: f64,
    /// End, in seconds after the tracer was created.
    pub end_s: f64,
    /// Worker ordinal: 0 is the thread that called `assign`.
    pub thread: usize,
}

/// An append-only list of spans sharing one monotonic origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// All spans, in the order they were opened or recorded.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn offset(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Records a call that ran from `start` to `end`; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        design: usize,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start_s, end_s) = (self.offset(start), self.offset(end));
        self.push(name, design, parent, start_s, end_s, 0)
    }

    fn push(
        &mut self,
        name: &'static str,
        design: usize,
        parent: Option<usize>,
        start_s: f64,
        end_s: f64,
        thread: usize,
    ) -> usize {
        self.spans.push(Span {
            name,
            design,
            parent,
            start_s,
            end_s,
            thread,
        });
        self.spans.len() - 1
    }

    /// Moves the end of span `index` to `end`.
    pub fn set_end(&mut self, index: usize, end: Instant) {
        self.spans[index].end_s = self.offset(end);
    }

    /// Opens a span now; [`Tracer::close`] sets its end.
    fn open(&mut self, name: &'static str, design: usize, parent: Option<usize>) -> usize {
        let now = self.offset(Instant::now());
        self.push(name, design, parent, now, now, 0)
    }

    fn close(&mut self, index: usize) -> f64 {
        let now = self.offset(Instant::now());
        let span = &mut self.spans[index];
        span.end_s = now;
        now - span.start_s
    }

    /// Renders every span as a Chrome `trace_event` JSON document;
    /// `designs` names the design indices.
    pub fn chrome_json(&self, designs: &[String]) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let design = designs.get(s.design).map_or("?", String::as_str);
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"layer\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{i},\"parent\":{parent},\"design\":\"{design}\"}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_s * 1e6,
                (s.end_s - s.start_s).max(0.0) * 1e6,
                s.thread,
            );
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// What one traced assign call did, stage by stage.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct AssignStats {
    /// Wall time per stage, indexed like [`Stage::ALL`].
    pub stage_s: [f64; 8],
    /// Duration of every Solve leaf, in seconds.
    pub solve_leaf_s: Vec<f64>,
    /// Sum over Solve stages of the busiest worker's leaf time.
    pub solve_busy_max_s: f64,
    /// Sum over Solve stages of the mean worker's leaf time.
    pub solve_busy_mean_s: f64,
    /// Rounds reported through `on_round_end`.
    pub rounds: usize,
    /// Rounds that improved the incumbent.
    pub rounds_improved: usize,
    /// Solve-stage time spent in rounds that improved the incumbent.
    pub solve_improving_s: f64,
    /// Counters of the last round.
    pub counters: FlowCounters,
}

impl AssignStats {
    /// Total time of all stages.
    pub fn stages_total_s(&self) -> f64 {
        self.stage_s.iter().sum()
    }

    /// Adds another call's statistics into this one.
    pub fn merge(&mut self, other: &AssignStats) {
        for (a, b) in self.stage_s.iter_mut().zip(other.stage_s) {
            *a += b;
        }
        self.solve_leaf_s.extend_from_slice(&other.solve_leaf_s);
        self.solve_busy_max_s += other.solve_busy_max_s;
        self.solve_busy_mean_s += other.solve_busy_mean_s;
        self.rounds += other.rounds;
        self.rounds_improved += other.rounds_improved;
        self.solve_improving_s += other.solve_improving_s;
        let (c, o) = (&mut self.counters, other.counters);
        c.partitions_solved += o.partitions_solved;
        c.partitions_reused += o.partitions_reused;
        c.evaluations += o.evaluations;
        c.gate_accepted += o.gate_accepted;
        c.gate_rejected += o.gate_rejected;
        c.batch_sweeps += o.batch_sweeps;
        c.batch_retired_early += o.batch_retired_early;
    }
}

/// The benchmark's own [`StageObserver`]: records round, stage and leaf
/// spans under one `assign` span and accumulates [`AssignStats`].
pub struct AssignTracer<'t> {
    tracer: &'t mut Tracer,
    design: usize,
    parent: usize,
    threads: usize,
    round: Option<(usize, usize)>,
    stage: Option<(Stage, usize)>,
    round_solve_s: f64,
    worker_busy_s: Vec<f64>,
    stats: AssignStats,
}

impl<'t> AssignTracer<'t> {
    /// An observer whose spans nest under span `parent` of `tracer`;
    /// `threads` is the assigner's Solve thread count.
    pub fn new(tracer: &'t mut Tracer, design: usize, parent: usize, threads: usize) -> Self {
        AssignTracer {
            tracer,
            design,
            parent,
            threads: threads.max(1),
            round: None,
            stage: None,
            round_solve_s: 0.0,
            worker_busy_s: Vec::new(),
            stats: AssignStats::default(),
        }
    }

    /// Closes any open round and returns the statistics.
    pub fn finish(mut self) -> AssignStats {
        if let Some((_, index)) = self.round.take() {
            self.tracer.close(index);
        }
        self.stats
    }
}

impl StageObserver for AssignTracer<'_> {
    fn on_stage_start(&mut self, round: usize, stage: Stage) {
        let round_span = match self.round {
            Some((r, index)) if r == round => index,
            open => {
                if let Some((_, index)) = open {
                    self.tracer.close(index);
                }
                let index = self.tracer.open("round", self.design, Some(self.parent));
                self.round = Some((round, index));
                self.round_solve_s = 0.0;
                index
            }
        };
        let index = self
            .tracer
            .open(stage.name(), self.design, Some(round_span));
        self.stage = Some((stage, index));
        self.worker_busy_s.clear();
    }

    fn on_leaf(&mut self, leaf: &LeafSpan) {
        let Some((stage, index)) = self.stage else {
            return;
        };
        let stage_start = self.tracer.spans[index].start_s;
        let start_s = stage_start + leaf.start_secs;
        self.tracer.push(
            "leaf",
            self.design,
            Some(index),
            start_s,
            start_s + leaf.dur_secs,
            leaf.thread,
        );
        if stage == Stage::Solve {
            self.stats.solve_leaf_s.push(leaf.dur_secs);
            if self.worker_busy_s.len() <= leaf.thread {
                self.worker_busy_s.resize(leaf.thread + 1, 0.0);
            }
            self.worker_busy_s[leaf.thread] += leaf.dur_secs;
        }
    }

    fn on_stage_end(&mut self, _round: usize, _stage: Stage, _seconds: f64) {
        let Some((stage, index)) = self.stage.take() else {
            return;
        };
        let seconds = self.tracer.close(index);
        if let Some(slot) = Stage::ALL.iter().position(|&s| s == stage) {
            self.stats.stage_s[slot] += seconds;
        }
        if stage == Stage::Solve {
            self.round_solve_s += seconds;
            let busy: f64 = self.worker_busy_s.iter().sum();
            let max = self.worker_busy_s.iter().copied().fold(0.0, f64::max);
            self.stats.solve_busy_max_s += max;
            self.stats.solve_busy_mean_s += busy / self.threads as f64;
        }
    }

    fn on_round_end(&mut self, snapshot: &RoundSnapshot) {
        if let Some((_, index)) = self.round.take() {
            self.tracer.close(index);
        }
        self.stats.rounds += 1;
        if snapshot.improved {
            self.stats.rounds_improved += 1;
            self.stats.solve_improving_s += self.round_solve_s;
        }
        self.round_solve_s = 0.0;
        self.stats.counters = snapshot.counters;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(thread: usize, dur_secs: f64) -> LeafSpan {
        LeafSpan {
            round: 1,
            stage: Stage::Solve,
            index: 0,
            items: 1,
            thread,
            start_secs: 0.0,
            dur_secs,
            alloc_bytes: 0,
            alloc_events: 0,
        }
    }

    #[test]
    fn observer_nests_spans_and_counts_useful_solve_time() {
        let mut tracer = Tracer::new();
        let now = Instant::now();
        let assign = tracer.record("assign", 3, None, now, now);
        let mut obs = AssignTracer::new(&mut tracer, 3, assign, 2);
        for round in 1..=2 {
            obs.on_stage_start(round, Stage::Select);
            obs.on_stage_end(round, Stage::Select, 0.0);
            obs.on_stage_start(round, Stage::Solve);
            obs.on_leaf(&leaf(1, 0.003));
            obs.on_leaf(&leaf(2, 0.001));
            obs.on_stage_end(round, Stage::Solve, 0.0);
            obs.on_round_end(&RoundSnapshot {
                round,
                objective: 1.0,
                improved: round == 1,
                counters: FlowCounters {
                    partitions_solved: round,
                    ..FlowCounters::default()
                },
            });
        }
        let stats = obs.finish();
        assert_eq!((stats.rounds, stats.rounds_improved), (2, 1));
        assert_eq!(stats.solve_leaf_s.len(), 4);
        assert_eq!(stats.counters.partitions_solved, 2, "last round's counters");
        assert!((stats.solve_busy_max_s - 0.006).abs() < 1e-12);
        assert!((stats.solve_busy_mean_s - 0.004).abs() < 1e-12);
        assert!(stats.solve_improving_s <= stats.stage_s[3]);

        let spans = tracer.spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names.iter().filter(|&&n| n == "round").count(), 2);
        assert_eq!(names.iter().filter(|&&n| n == "leaf").count(), 4);
        for s in &spans[1..] {
            let parent = &spans[s.parent.expect("nested")];
            assert!(
                parent.start_s <= s.start_s,
                "{} starts before its parent",
                s.name
            );
            assert_eq!(s.design, 3);
        }
        let json = tracer.chrome_json(&["a".into(), "b".into(), "c".into(), "d".into()]);
        assert!(json.contains("\"name\":\"solve\"") && json.contains("\"design\":\"d\""));
    }
}
