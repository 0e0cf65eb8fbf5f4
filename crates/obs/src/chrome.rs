//! Chrome `trace_event` JSON exporter.
//!
//! [`export`] renders one or more [`Recorder`]s as the JSON object
//! format understood by `chrome://tracing` and Perfetto
//! (<https://ui.perfetto.dev>): a `traceEvents` array of `"ph":"X"`
//! complete events (microsecond `ts`/`dur`) plus `"ph":"M"` metadata
//! naming processes and threads. Each recorder becomes one process
//! (`pid` = its position + 1) named by its label; within a process,
//! `tid` 0 is the driver thread (pool worker 0) and the pool's helper
//! threads appear as `worker-N` lanes, so parallel leaves render side
//! by side.
//!
//! The writer is hand-rolled (the workspace is dependency-free) and
//! emits only escaped strings and finite numbers, so the artifact is
//! always parseable JSON.

use std::fmt::Write as _;

use crate::span::{Recorder, SpanKind, SpanRecord};

/// Escapes a string for embedding in a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats a microsecond quantity as a finite JSON number.
fn us(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "0".to_owned()
    }
}

fn push_event(out: &mut String, first: &mut bool, body: &str) {
    if *first {
        *first = false;
    } else {
        out.push_str(",\n");
    }
    out.push_str("    ");
    out.push_str(body);
}

fn category(kind: SpanKind) -> &'static str {
    match kind {
        SpanKind::Run => "run",
        SpanKind::Round => "round",
        SpanKind::Stage => "stage",
        SpanKind::Leaf => "leaf",
    }
}

fn span_event(pid: usize, span: &SpanRecord) -> String {
    let mut args = format!(
        "\"round\":{},\"alloc_bytes\":{},\"alloc_events\":{}",
        span.round, span.alloc_bytes, span.alloc_events
    );
    if span.kind == SpanKind::Leaf {
        let _ = write!(args, ",\"index\":{},\"items\":{}", span.index, span.items);
    }
    if let Some(obj) = span.objective.filter(|o| o.is_finite()) {
        let _ = write!(args, ",\"objective\":{obj}");
    }
    format!(
        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\"args\":{{{}}}}}",
        escape(span.name()),
        category(span.kind),
        us(span.start_us),
        us(span.dur_us),
        pid,
        span.thread,
        args
    )
}

/// Renders `recorders` as a Chrome `trace_event` JSON document.
///
/// Load the resulting file in `chrome://tracing` or Perfetto; see the
/// README's "Profiling a run" walkthrough.
#[must_use]
pub fn export(recorders: &[&Recorder]) -> String {
    let mut out = String::from("{\n  \"traceEvents\": [\n");
    let mut first = true;
    for (i, rec) in recorders.iter().enumerate() {
        let pid = i + 1;
        push_event(
            &mut out,
            &mut first,
            &format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"args\":{{\"name\":\"{}\"}}}}",
                pid,
                escape(rec.label())
            ),
        );
        let mut tids: Vec<usize> = rec.spans().iter().map(|s| s.thread).collect();
        tids.sort_unstable();
        tids.dedup();
        for tid in tids {
            let name = if tid == 0 {
                "driver".to_owned()
            } else {
                format!("worker-{tid}")
            };
            push_event(
                &mut out,
                &mut first,
                &format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":\"{name}\"}}}}"
                ),
            );
        }
        for span in rec.spans() {
            push_event(&mut out, &mut first, &span_event(pid, span));
        }
    }
    out.push_str("\n  ],\n  \"displayTimeUnit\": \"ms\"\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use flow::{LeafSpan, Stage, StageObserver};

    #[test]
    fn export_produces_trace_events_with_metadata() {
        let mut rec = Recorder::new("unit \"quoted\"");
        rec.on_stage_start(1, Stage::Solve);
        rec.on_leaf(&LeafSpan {
            round: 1,
            stage: Stage::Solve,
            index: 0,
            items: 4,
            thread: 2,
            start_secs: 0.0,
            dur_secs: 1e-6,
            alloc_bytes: 0,
            alloc_events: 0,
        });
        rec.on_stage_end(1, Stage::Solve, 0.0);
        rec.finish();
        let json = export(&[&rec]);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"unit \\\"quoted\\\"\""));
        assert!(json.contains("\"worker-2\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"cat\":\"leaf\""));
        assert!(!json.contains("NaN"));
    }

    #[test]
    fn escape_handles_control_characters() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }
}
