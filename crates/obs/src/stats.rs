//! Per-stage rollups of a recorded span tree.
//!
//! [`summarize`] turns a [`Recorder`]'s flat span list into one
//! [`StageSummary`] per flow stage — total/p50/p95 wall time over the
//! per-round stage spans, plus allocation totals that combine the
//! driver-thread stage deltas with foreign-thread leaf attributions
//! (serial leaves run on the driver, so their allocations are already
//! inside the stage delta; only worker leaves are added on top). This
//! is the aggregation behind `BENCH_cpla.json`.

use flow::Stage;

use crate::span::{Recorder, SpanKind};

/// Aggregated observations of one stage across all rounds of a run.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct StageSummary {
    /// The stage summarized.
    pub stage: Stage,
    /// Number of per-round stage spans observed (0 if the engine never
    /// emitted this stage).
    pub samples: usize,
    /// Sum of stage wall time over all rounds, seconds.
    pub wall_total_secs: f64,
    /// Median per-round stage wall time, seconds (nearest rank).
    pub wall_p50_secs: f64,
    /// 95th-percentile per-round stage wall time, seconds (nearest
    /// rank).
    pub wall_p95_secs: f64,
    /// Bytes allocated in the stage: driver-thread stage deltas plus
    /// worker-thread leaf deltas.
    pub alloc_bytes: u64,
    /// Allocation events in the stage, attributed like `alloc_bytes`.
    pub alloc_events: u64,
    /// Leaf spans (partition extractions, solves and post-mappings,
    /// accept applications) observed.
    pub leaves: usize,
}

/// Nearest-rank percentile of an ascending-sorted sample.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Rolls `rec` up into one [`StageSummary`] per [`Stage`], in round
/// order; stages the engine never emitted appear with zero samples.
#[must_use]
pub fn summarize(rec: &Recorder) -> Vec<StageSummary> {
    Stage::ALL
        .iter()
        .map(|&stage| {
            let mut walls: Vec<f64> = Vec::new();
            let mut alloc_bytes = 0u64;
            let mut alloc_events = 0u64;
            let mut leaves = 0usize;
            for span in rec.spans() {
                if span.stage != Some(stage) {
                    continue;
                }
                match span.kind {
                    SpanKind::Stage => {
                        walls.push(span.dur_us / 1e6);
                        alloc_bytes += span.alloc_bytes;
                        alloc_events += span.alloc_events;
                    }
                    SpanKind::Leaf => {
                        leaves += 1;
                        // Driver-thread leaves are already inside the
                        // stage span's own delta; add only worker work.
                        if span.thread != 0 {
                            alloc_bytes += span.alloc_bytes;
                            alloc_events += span.alloc_events;
                        }
                    }
                    SpanKind::Run | SpanKind::Round => {}
                }
            }
            walls.sort_by(f64::total_cmp);
            StageSummary {
                stage,
                samples: walls.len(),
                wall_total_secs: walls.iter().sum(),
                wall_p50_secs: percentile(&walls, 0.50),
                wall_p95_secs: percentile(&walls, 0.95),
                alloc_bytes,
                alloc_events,
                leaves,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flow::{LeafSpan, StageObserver};

    #[test]
    fn percentile_is_nearest_rank() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 0.50), 2.0);
        assert_eq!(percentile(&s, 0.95), 4.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn summarize_covers_all_stages_and_splits_leaf_attribution() {
        let mut rec = Recorder::new("sum");
        for round in 1..=3 {
            rec.on_stage_start(round, Stage::Solve);
            for (thread, bytes) in [(0u32, 100u64), (1, 40), (2, 60)] {
                rec.on_leaf(&LeafSpan {
                    round,
                    stage: Stage::Solve,
                    index: thread as usize,
                    items: 1,
                    thread: thread as usize,
                    start_secs: 0.0,
                    dur_secs: 1e-6,
                    alloc_bytes: bytes,
                    alloc_events: 1,
                });
            }
            rec.on_stage_end(round, Stage::Solve, 0.0);
        }
        rec.finish();

        let summary = summarize(&rec);
        assert_eq!(summary.len(), Stage::ALL.len());
        let solve = summary
            .iter()
            .find(|s| s.stage == Stage::Solve)
            .expect("solve present");
        assert_eq!(solve.samples, 3);
        assert_eq!(solve.leaves, 9);
        // Worker leaves (threads 1 and 2) contribute bytes; the driver
        // leaf (thread 0) does not — its allocations are inside the
        // stage span delta (zero here: no counting allocator installed).
        assert_eq!(solve.alloc_bytes, 3 * (40 + 60));
        assert_eq!(solve.alloc_events, 3 * 2);
        assert!(solve.wall_total_secs >= 0.0);
        let select = summary
            .iter()
            .find(|s| s.stage == Stage::Select)
            .expect("select present");
        assert_eq!(select.samples, 0);
        assert_eq!(select.wall_p95_secs, 0.0);
    }
}
