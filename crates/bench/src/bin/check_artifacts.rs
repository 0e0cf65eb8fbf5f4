//! `cpla-bench-check`: validates the observability artifacts that
//! `cpla-bench` emits, so CI fails loudly when an exporter regresses
//! instead of committing a broken trace.
//!
//! ```text
//! cpla-bench-check --trace t.json --metrics m.txt \
//!                  --bench BENCH_cpla.json [--baseline BENCH_cpla.json]
//! ```
//!
//! Checks, in order:
//!
//! 1. the Chrome trace parses (via the hand-rolled `conform::json`
//!    reader), has a non-empty `traceEvents` array, well-formed events,
//!    and mentions every pipeline stage at least once;
//! 2. every metrics sample line parses as `name{labels} value` with a
//!    finite value, and the per-stage wall metric is present;
//! 3. `BENCH_cpla.json` parses, carries `schema` 2, its header names
//!    the machine's `cores`, the process's `peak_rss_mb` and the
//!    routing wall time `route_secs` as finite positive numbers, every
//!    mode's `stages` object has exactly the eight pipeline stage keys,
//!    every mode holds only fields `cpla-bench` still writes (so a
//!    record made before a field was dropped fails until re-recorded),
//!    and every mode's `peak_alloc_bytes` is a number when
//!    `alloc_stats` is `true` and `null`/absent when it is `false`;
//! 4. with `--baseline`, the bench report's mode labels and stage keys
//!    match the committed baseline (values are allowed to drift —
//!    wall-clock and allocator numbers are machine-dependent).

use std::process::ExitCode;

use conform::json::{self, Value};
use flow::Stage;

/// The fields `cpla-bench` writes into each `modes` entry (its
/// `json_bench_mode`); keep the two in step.
const MODE_FIELDS: [&str; 11] = [
    "wall_secs",
    "avg_tcp_initial",
    "avg_tcp_final",
    "max_tcp_final",
    "via_overflow",
    "via_count",
    "wire_overflow",
    "rounds",
    "released",
    "peak_alloc_bytes",
    "stages",
];

struct Args {
    trace: Option<String>,
    metrics: Option<String>,
    bench: Option<String>,
    baseline: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        trace: None,
        metrics: None,
        bench: None,
        baseline: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let slot = match arg.as_str() {
            "--trace" => &mut args.trace,
            "--metrics" => &mut args.metrics,
            "--bench" => &mut args.bench,
            "--baseline" => &mut args.baseline,
            "--help" | "-h" => {
                return Err(String::from(
                    "usage: cpla-bench-check [--trace FILE] [--metrics FILE] \
                     [--bench FILE] [--baseline FILE]",
                ))
            }
            other => return Err(format!("unknown flag `{other}`")),
        };
        *slot = Some(it.next().ok_or_else(|| format!("{arg} needs a value"))?);
    }
    if args.trace.is_none() && args.metrics.is_none() && args.bench.is_none() {
        return Err(String::from(
            "nothing to check: pass at least one of --trace/--metrics/--bench",
        ));
    }
    if args.baseline.is_some() && args.bench.is_none() {
        return Err(String::from("--baseline requires --bench"));
    }
    Ok(args)
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Chrome `trace_event` sanity: shape of the container and of each event.
fn check_trace(path: &str) -> Result<String, String> {
    let root = json::parse(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
    let events = root
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{path}: missing `traceEvents` array"))?;
    if events.is_empty() {
        return Err(format!("{path}: `traceEvents` is empty"));
    }
    let mut complete = 0usize;
    let mut seen: Vec<String> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let name = ev
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: event {i} has no string `name`"))?;
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: event {i} has no string `ph`"))?;
        ev.get("pid")
            .and_then(Value::as_num)
            .ok_or_else(|| format!("{path}: event {i} has no numeric `pid`"))?;
        if ph == "X" {
            for key in ["ts", "dur"] {
                let n = ev
                    .get(key)
                    .and_then(Value::as_num)
                    .ok_or_else(|| format!("{path}: event {i} has no numeric `{key}`"))?;
                if !n.is_finite() || n < 0.0 {
                    return Err(format!("{path}: event {i} `{key}` = {n} is not a duration"));
                }
            }
            complete += 1;
            if !seen.iter().any(|s| s == name) {
                seen.push(name.to_string());
            }
        }
    }
    for stage in Stage::ALL {
        if !seen.iter().any(|n| n == stage.name()) {
            return Err(format!(
                "{path}: no complete event for stage `{}`",
                stage.name()
            ));
        }
    }
    Ok(format!(
        "trace {path}: {} events ({complete} complete), all {} stages present",
        events.len(),
        Stage::ALL.len()
    ))
}

/// Flat-text metrics sanity: every sample line is `name{labels} value`.
fn check_metrics(path: &str) -> Result<String, String> {
    let body = read(path)?;
    let mut samples = 0usize;
    let mut has_stage_wall = false;
    for (lineno, line) in body.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = |what: &str| format!("{path}:{}: {what}: `{line}`", lineno + 1);
        let (head, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| bad("no value separator"))?;
        let v: f64 = value.parse().map_err(|_| bad("value is not a number"))?;
        if !v.is_finite() {
            return Err(bad("value is not finite"));
        }
        let name = head.split('{').next().unwrap_or(head);
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(bad("metric name is not prometheus-clean"));
        }
        if head.contains('{') && !head.ends_with('}') {
            return Err(bad("unterminated label set"));
        }
        if name == "cpla_stage_wall_seconds" {
            has_stage_wall = true;
        }
        samples += 1;
    }
    if samples == 0 {
        return Err(format!("{path}: no metric samples"));
    }
    if !has_stage_wall {
        return Err(format!("{path}: missing cpla_stage_wall_seconds samples"));
    }
    Ok(format!("metrics {path}: {samples} samples parse"))
}

/// Sorted stage-key list of one mode's `stages` object.
fn stage_keys(mode: &Value) -> Result<Vec<String>, String> {
    match mode.get("stages") {
        Some(Value::Obj(pairs)) => {
            let mut keys: Vec<String> = pairs.iter().map(|(k, _)| k.clone()).collect();
            keys.sort();
            Ok(keys)
        }
        _ => Err(String::from("mode has no `stages` object")),
    }
}

/// Mode-label → sorted stage keys for a whole bench report.
fn mode_map(root: &Value, path: &str) -> Result<Vec<(String, Vec<String>)>, String> {
    let modes = match root.get("modes") {
        Some(Value::Obj(pairs)) if !pairs.is_empty() => pairs,
        _ => return Err(format!("{path}: missing or empty `modes` object")),
    };
    modes
        .iter()
        .map(|(label, mode)| {
            let keys = stage_keys(mode).map_err(|e| format!("{path}: mode `{label}`: {e}"))?;
            Ok((label.clone(), keys))
        })
        .collect()
}

fn check_bench(path: &str, baseline: Option<&str>) -> Result<String, String> {
    let root = json::parse(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
    let schema = root
        .get("schema")
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("{path}: missing numeric `schema`"))?;
    if schema != 2 {
        return Err(format!("{path}: unsupported schema {schema} (expected 2)"));
    }
    for key in ["cores", "peak_rss_mb", "route_secs"] {
        match root.get(key).and_then(Value::as_num) {
            Some(v) if v.is_finite() && v > 0.0 => {}
            _ => {
                return Err(format!(
                    "{path}: `{key}` is {:?}, not a finite positive number",
                    root.get(key)
                ))
            }
        }
    }
    let modes = mode_map(&root, path)?;
    let mut expected: Vec<String> = Stage::ALL.iter().map(|s| s.name().to_string()).collect();
    expected.sort();
    for (label, keys) in &modes {
        if keys != &expected {
            return Err(format!(
                "{path}: mode `{label}` stage keys {keys:?} != pipeline stages {expected:?}"
            ));
        }
    }
    if let Some(Value::Obj(pairs)) = root.get("modes") {
        for (label, mode) in pairs {
            if let Value::Obj(fields) = mode {
                if let Some((stale, _)) = fields
                    .iter()
                    .find(|(k, _)| !MODE_FIELDS.contains(&k.as_str()))
                {
                    return Err(format!(
                        "{path}: mode `{label}` holds `{stale}`, a field cpla-bench no \
                         longer writes; re-record the file"
                    ));
                }
            }
        }
    }
    // `peak_alloc_bytes` must agree with the top-level `alloc_stats`
    // flag: a measured number only when the counting allocator was on,
    // `null` (or absent) when it was off. A literal 0 with the flag off
    // is the regression this check exists for — it reads as "measured,
    // allocated nothing".
    let alloc_stats = match root.get("alloc_stats") {
        Some(Value::Bool(b)) => *b,
        _ => return Err(format!("{path}: missing boolean `alloc_stats`")),
    };
    if let Some(Value::Obj(pairs)) = root.get("modes") {
        for (label, mode) in pairs {
            match (alloc_stats, mode.get("peak_alloc_bytes")) {
                (true, Some(v)) if v.as_u64().is_some() => {}
                (true, other) => {
                    return Err(format!(
                        "{path}: mode `{label}`: alloc_stats is on but \
                         `peak_alloc_bytes` is {other:?}, not a number"
                    ));
                }
                (false, None) | (false, Some(Value::Null)) => {}
                (false, Some(v)) => {
                    return Err(format!(
                        "{path}: mode `{label}`: alloc_stats is off but \
                         `peak_alloc_bytes` is {v:?} instead of null"
                    ));
                }
            }
        }
    }
    let mut summary = format!(
        "bench {path}: schema 2, {} mode(s), stage keys ok",
        modes.len()
    );
    if let Some(base_path) = baseline {
        let base_root = json::parse(&read(base_path)?).map_err(|e| format!("{base_path}: {e}"))?;
        let base_modes = mode_map(&base_root, base_path)?;
        let labels: Vec<&String> = modes.iter().map(|(l, _)| l).collect();
        let base_labels: Vec<&String> = base_modes.iter().map(|(l, _)| l).collect();
        if labels != base_labels {
            return Err(format!(
                "{path}: mode labels {labels:?} != baseline {base_labels:?}"
            ));
        }
        summary.push_str(&format!(", matches baseline {base_path}"));
    }
    Ok(summary)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    if let Some(path) = &args.trace {
        println!("{}", check_trace(path)?);
    }
    if let Some(path) = &args.metrics {
        println!("{}", check_metrics(path)?);
    }
    if let Some(path) = &args.bench {
        println!("{}", check_bench(path, args.baseline.as_deref())?);
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cpla-bench-check: {e}");
            ExitCode::FAILURE
        }
    }
}
