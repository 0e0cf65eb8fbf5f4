//! Turns passes into the reported metrics and the result line.
//!
//! End-to-end times are medians across passes, taken per design (set-up)
//! or per operation (assign) and then summed, so one slow design in one
//! pass does not move the total. Quality comes from the first pass; the
//! others must reproduce it bit for bit.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::run::{Operation, Pass, Quality};
use crate::trace::AssignStats;
use crate::workload::Workload;

/// One reported metric.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Median of `values` (the mean of the middle two for an even count);
/// 0 for none.
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `q`-quantile of `values` by nearest rank; 0 for none.
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Geometric mean of `final ÷ initial` over pairs with a positive base;
/// 0 when there is none.
fn geomean_ratio(pairs: impl IntoIterator<Item = (f64, f64)>) -> f64 {
    let (mut log_sum, mut n) = (0.0, 0usize);
    for (initial, final_) in pairs {
        if initial > 0.0 && final_ > 0.0 {
            log_sum += (final_ / initial).ln();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

fn qualities<'p>(ops: impl IntoIterator<Item = &'p Operation>) -> Vec<Quality> {
    ops.into_iter()
        .filter_map(|op| op.outcome.as_ref().ok().copied())
        .collect()
}

/// Operations attempted across `passes`, and a line per failed one. An
/// operation whose quality differs from the first run of the same
/// backend on the same design counts as failed: the engines
/// are deterministic, so a difference is a defect.
pub fn tally(passes: &[Pass]) -> (usize, Vec<String>) {
    let mut attempted = 0;
    let mut problems = Vec::new();
    let mut first: BTreeMap<(usize, &str), Quality> = BTreeMap::new();
    for (p, pass) in passes.iter().enumerate() {
        for op in &pass.operations {
            attempted += 1;
            let label = format!("pass {p} design {} {}", op.design, op.backend.name());
            match &op.outcome {
                Err(e) => problems.push(format!("{label}: {e}")),
                Ok(q) => {
                    let q0 = first.entry((op.design, op.backend.name())).or_insert(*q);
                    if q != q0 {
                        problems.push(format!("{label}: quality differs from its first run"));
                    }
                }
            }
        }
    }
    (attempted, problems)
}

/// The end-to-end metrics of untraced `passes` (at least one) of
/// `workload`.
///
/// Set-up and assign times are per copy of the suite: each pass's total
/// divided by its copies, then the median over passes. The mean over
/// copies, not a median, because each design either converges in a few
/// rounds or stalls, and a median of such two-valued samples averages
/// nothing out. Peak memory is the largest design slot's median over
/// copies and passes (design `d` fills slot `d % workload.slots`).
/// Quality is over every operation of the first pass.
pub fn end_to_end(passes: &[&Pass], workload: &Workload) -> Vec<Metric> {
    let slots = workload.slots.max(1);
    let copies = |p: &&Pass| (p.setup.len() / slots).max(1) as f64;
    let setup_s = median(passes.iter().map(|p| p.setup_s() / copies(p)));
    let assign_s = median(passes.iter().map(|p| p.assign_s() / copies(p)));
    let mut peak = vec![Vec::new(); slots];
    for pass in passes {
        for (d, &mb) in pass.peak_rss_mb.iter().enumerate() {
            peak[d % slots].push(mb);
        }
    }
    let peak = peak.into_iter().map(median).fold(0.0, f64::max);
    let q = qualities(passes.first().map_or(&[][..], |p| &p.operations[..]));
    vec![
        metric("setup_s", "s", setup_s),
        metric("assign_s", "s", assign_s),
        metric("peak_rss_mb", "MB", peak),
        metric(
            "avg_tcp_ratio",
            "ratio",
            geomean_ratio(q.iter().map(|q| (q.initial.avg_tcp, q.final_.avg_tcp))),
        ),
        metric(
            "max_tcp_ratio",
            "ratio",
            geomean_ratio(q.iter().map(|q| (q.initial.max_tcp, q.final_.max_tcp))),
        ),
        metric(
            "via_count_ratio",
            "ratio",
            geomean_ratio(
                q.iter()
                    .map(|q| (q.initial.via_count as f64, q.final_.via_count as f64)),
            ),
        ),
        metric("overflow_ratio", "ratio", overflow_ratio(&q)),
    ]
}

/// Total final over total initial wire plus via overflow, each plus
/// one so that overflow-free designs keep the ratio defined: added
/// overflow lifts it above 1, removed overflow lowers it.
fn overflow_ratio(q: &[Quality]) -> f64 {
    let total = |f: fn(&Quality) -> u64| q.iter().map(f).sum::<u64>() as f64 + 1.0;
    total(|q| q.wire_overflow_final + q.final_.via_overflow)
        / total(|q| q.wire_overflow_initial + q.initial.via_overflow)
}

/// The per-layer metrics of one traced pass; `host_ref_s` is the
/// reference loop. Every figure comes from the traced operations, except
/// that `trace.overhead_ratio` compares them with their plain twins.
pub fn per_layer(pass: &Pass, host_ref_s: f64) -> Vec<Metric> {
    let sum_setup = |f: fn(&crate::run::SetupTimes) -> f64| pass.setup.iter().map(f).sum::<f64>();
    let d = &pass.designs;
    let (traced, plain): (Vec<&Operation>, Vec<&Operation>) =
        pass.operations.iter().partition(|op| op.stats.is_some());
    let ops_of = |name: &'static str| {
        traced
            .iter()
            .copied()
            .filter(move |op| op.backend.name() == name)
    };
    let assign_of = |name: &'static str| ops_of(name).map(|op| op.assign_s).sum::<f64>();
    let tcp_ratio_of = |name: &'static str| {
        geomean_ratio(
            qualities(ops_of(name))
                .iter()
                .map(|q| (q.initial.avg_tcp, q.final_.avg_tcp)),
        )
    };
    let rounds_of = |name: &'static str| {
        qualities(ops_of(name))
            .iter()
            .map(|q| q.rounds)
            .sum::<usize>()
    };
    let mut cpla = AssignStats::default();
    for op in ops_of("cpla") {
        if let Some(stats) = &op.stats {
            cpla.merge(stats);
        }
    }
    let cpla_assign_s = assign_of("cpla");
    let c = cpla.counters;
    let touched = c.partitions_solved + c.partitions_reused;
    let share = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let traced_assign_s: f64 = traced.iter().map(|op| op.assign_s).sum();
    let plain_assign_s: f64 = plain.iter().map(|op| op.assign_s).sum();

    let mut out = vec![
        metric("ispd.parse_s", "s", sum_setup(|s| s.parse)),
        metric("ispd.input_mb", "MB", d.iter().map(|x| x.input_mb).sum()),
        metric("grid.build_s", "s", sum_setup(|s| s.to_grid)),
        metric("route.route_s", "s", sum_setup(|s| s.route)),
        metric("route.initial_s", "s", sum_setup(|s| s.initial)),
        metric(
            "route.segments",
            "count",
            d.iter().map(|x| x.segments as f64).sum(),
        ),
        metric(
            "route.wire_overflow",
            "count",
            d.iter().map(|x| x.wire_overflow as f64).sum(),
        ),
        metric("timing.analyze_s", "s", d.iter().map(|x| x.analyze_s).sum()),
        metric(
            "flow.overflow_delta",
            "count",
            qualities(traced.iter().copied())
                .iter()
                .map(Quality::overflow_delta)
                .sum::<i64>() as f64,
        ),
    ];
    for (name, seconds) in STAGE_METRICS.into_iter().zip(cpla.stage_s) {
        out.push(metric(name, "s", seconds));
    }
    out.extend([
        metric("cpla.other_s", "s", cpla_assign_s - cpla.stages_total_s()),
        metric("cpla.solve_leaves", "count", cpla.solve_leaf_s.len() as f64),
        metric(
            "cpla.solve_leaf_p50_ms",
            "ms",
            quantile(&cpla.solve_leaf_s, 0.5) * 1e3,
        ),
        metric(
            "cpla.solve_leaf_p99_ms",
            "ms",
            quantile(&cpla.solve_leaf_s, 0.99) * 1e3,
        ),
        metric(
            "cpla.solve_imbalance",
            "ratio",
            share(cpla.solve_busy_max_s, cpla.solve_busy_mean_s),
        ),
        metric("cpla.rounds", "count", cpla.rounds as f64),
        metric("cpla.rounds_improved", "count", cpla.rounds_improved as f64),
        metric(
            "cpla.solve_useful_ratio",
            "ratio",
            share(cpla.solve_improving_s, cpla.stage_s[3]),
        ),
        metric(
            "cpla.partitions_solved",
            "count",
            c.partitions_solved as f64,
        ),
        metric(
            "cpla.partitions_reused",
            "count",
            c.partitions_reused as f64,
        ),
        metric(
            "cpla.reuse_ratio",
            "ratio",
            share(c.partitions_reused as f64, touched as f64),
        ),
        metric("cpla.gate_accepted", "count", c.gate_accepted as f64),
        metric("cpla.gate_rejected", "count", c.gate_rejected as f64),
        metric("cpla.evaluations", "count", c.evaluations as f64),
        metric("tila.assign_s", "s", assign_of("tila")),
        metric("lagrange.assign_s", "s", assign_of("lagrange")),
        metric("greedy.assign_s", "s", assign_of("greedy")),
        metric("tila.rounds", "count", rounds_of("tila") as f64),
        metric("lagrange.rounds", "count", rounds_of("lagrange") as f64),
        metric("tila.avg_tcp_ratio", "ratio", tcp_ratio_of("tila")),
        metric("lagrange.avg_tcp_ratio", "ratio", tcp_ratio_of("lagrange")),
        metric("greedy.avg_tcp_ratio", "ratio", tcp_ratio_of("greedy")),
        metric(
            "mem.rss_after_setup_mb",
            "MB",
            d.iter().map(|x| x.rss_after_setup_mb).fold(0.0, f64::max),
        ),
        metric(
            "mem.rss_after_assign_mb",
            "MB",
            d.iter().map(|x| x.rss_after_assign_mb).fold(0.0, f64::max),
        ),
        metric("host.ref_s", "s", host_ref_s),
        metric(
            "trace.overhead_ratio",
            "ratio",
            share(traced_assign_s, plain_assign_s) - 1.0,
        ),
        metric("trace.setup_s", "s", pass.setup_s()),
        metric("trace.assign_s", "s", traced_assign_s),
    ]);
    out
}

/// Per-stage metric names, indexed like [`flow::Stage::ALL`].
const STAGE_METRICS: [&str; 8] = [
    "cpla.select_s",
    "cpla.partition_s",
    "cpla.extract_s",
    "cpla.solve_s",
    "cpla.post_map_s",
    "cpla.gate_s",
    "cpla.accept_s",
    "cpla.measure_s",
];

/// Formats a metric value as a JSON number with every digit Rust's
/// shortest round-trip formatting gives; non-finite values become 0.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use flow::Stage;

    #[test]
    fn medians_quantiles_and_ratios() {
        assert_eq!(median([3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median([4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median([]), 0.0);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert!((geomean_ratio([(2.0, 1.0), (1.0, 2.0)]) - 1.0).abs() < 1e-12);
        assert_eq!(geomean_ratio([(0.0, 1.0)]), 0.0);
    }

    #[test]
    fn stage_metrics_follow_the_stage_order() {
        for (name, stage) in STAGE_METRICS.iter().zip(Stage::ALL) {
            assert_eq!(*name, format!("cpla.{}_s", stage.name()));
        }
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_json(true, 3, 0, &[metric("setup_s", "s", 1.25)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        assert!(result_json(false, 1, 1, &[metric("x", "s", f64::NAN)]).contains("\"value\": 0"));
    }
}
