//! Flat Prometheus-style text exporter.
//!
//! [`export`] renders recorded runs in the Prometheus text exposition
//! format — `# HELP`/`# TYPE` headers followed by
//! `metric{label="value"} number` samples — suitable for `curl`-style
//! scraping, diffing between runs, or feeding a pushgateway. Metrics
//! are aggregates (totals and counts), not time series: one sample per
//! `{run, stage[, thread]}` combination.

use std::fmt::Write as _;

use crate::span::{Recorder, SpanKind};
use crate::stats::summarize;

/// Escapes a Prometheus label value (backslash, quote, newline).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn header(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Renders `recorders` as a Prometheus text-format metrics dump.
#[must_use]
pub fn export(recorders: &[&Recorder]) -> String {
    let mut out = String::new();

    header(
        &mut out,
        "cpla_run_wall_seconds",
        "Wall-clock seconds of one observed engine run.",
        "gauge",
    );
    for rec in recorders {
        if let Some(run) = rec.run_span() {
            let _ = writeln!(
                out,
                "cpla_run_wall_seconds{{run=\"{}\"}} {:.6}",
                escape(rec.label()),
                finite(run.dur_us / 1e6)
            );
        }
    }

    header(
        &mut out,
        "cpla_round_total",
        "Outer rounds observed in the run.",
        "gauge",
    );
    for rec in recorders {
        let rounds = rec
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::Round)
            .count();
        let _ = writeln!(
            out,
            "cpla_round_total{{run=\"{}\"}} {rounds}",
            escape(rec.label())
        );
    }

    header(
        &mut out,
        "cpla_stage_wall_seconds",
        "Total wall-clock seconds per flow stage across all rounds.",
        "gauge",
    );
    header(
        &mut out,
        "cpla_stage_rounds_total",
        "Per-round samples observed for the stage.",
        "gauge",
    );
    header(
        &mut out,
        "cpla_stage_alloc_bytes_total",
        "Bytes allocated in the stage (driver delta plus worker leaves); zero without a counting allocator.",
        "gauge",
    );
    header(
        &mut out,
        "cpla_stage_alloc_events_total",
        "Allocation events in the stage, attributed like bytes.",
        "gauge",
    );
    for rec in recorders {
        let run = escape(rec.label());
        for s in summarize(rec) {
            let stage = s.stage.name();
            let _ = writeln!(
                out,
                "cpla_stage_wall_seconds{{run=\"{run}\",stage=\"{stage}\"}} {:.6}",
                finite(s.wall_total_secs)
            );
            let _ = writeln!(
                out,
                "cpla_stage_rounds_total{{run=\"{run}\",stage=\"{stage}\"}} {}",
                s.samples
            );
            let _ = writeln!(
                out,
                "cpla_stage_alloc_bytes_total{{run=\"{run}\",stage=\"{stage}\"}} {}",
                s.alloc_bytes
            );
            let _ = writeln!(
                out,
                "cpla_stage_alloc_events_total{{run=\"{run}\",stage=\"{stage}\"}} {}",
                s.alloc_events
            );
        }
    }

    header(
        &mut out,
        "cpla_leaf_wall_seconds",
        "Total wall-clock seconds of leaf work (partition extractions, solves and post-mappings, accept applications) per stage and thread.",
        "gauge",
    );
    header(
        &mut out,
        "cpla_leaf_total",
        "Leaf spans observed per stage and thread.",
        "gauge",
    );
    // (stage name, thread) → (summed seconds, leaf count).
    type LeafAgg = ((&'static str, usize), (f64, usize));
    for rec in recorders {
        let run = escape(rec.label());
        let mut keyed: Vec<LeafAgg> = Vec::new();
        for span in rec.spans() {
            if span.kind != SpanKind::Leaf {
                continue;
            }
            let key = (span.name(), span.thread);
            match keyed.iter_mut().find(|(k, _)| *k == key) {
                Some((_, agg)) => {
                    agg.0 += span.dur_us / 1e6;
                    agg.1 += 1;
                }
                None => keyed.push((key, (span.dur_us / 1e6, 1))),
            }
        }
        keyed.sort_unstable_by_key(|&((name, thread), _)| (name, thread));
        for ((stage, thread), (secs, count)) in keyed {
            let _ = writeln!(
                out,
                "cpla_leaf_wall_seconds{{run=\"{run}\",stage=\"{stage}\",thread=\"{thread}\"}} {:.6}",
                finite(secs)
            );
            let _ = writeln!(
                out,
                "cpla_leaf_total{{run=\"{run}\",stage=\"{stage}\",thread=\"{thread}\"}} {count}"
            );
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use flow::{LeafSpan, Stage, StageObserver};

    #[test]
    fn export_emits_headers_and_labeled_samples() {
        let mut rec = Recorder::new("bench/incremental");
        rec.on_stage_start(1, Stage::Solve);
        rec.on_leaf(&LeafSpan {
            round: 1,
            stage: Stage::Solve,
            index: 0,
            items: 2,
            thread: 1,
            start_secs: 0.0,
            dur_secs: 2e-6,
            alloc_bytes: 128,
            alloc_events: 3,
        });
        rec.on_stage_end(1, Stage::Solve, 0.0);
        rec.finish();

        let text = export(&[&rec]);
        assert!(text.contains("# HELP cpla_stage_wall_seconds"));
        assert!(text.contains("# TYPE cpla_stage_wall_seconds gauge"));
        assert!(text.contains(
            "cpla_stage_alloc_bytes_total{run=\"bench/incremental\",stage=\"solve\"} 128"
        ));
        assert!(text
            .contains("cpla_leaf_total{run=\"bench/incremental\",stage=\"solve\",thread=\"1\"} 1"));
        assert!(text.contains("cpla_run_wall_seconds{run=\"bench/incremental\"}"));
        // Every non-comment line is `name{...} value` with a numeric value.
        for line in text
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
        {
            let (_, value) = line.rsplit_once(' ').expect("sample has a value");
            assert!(value.parse::<f64>().is_ok(), "unparseable sample: {line}");
        }
    }

    #[test]
    fn escape_covers_prometheus_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
