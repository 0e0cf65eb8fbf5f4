//! Netlist-level timing reports.

use grid::Grid;
use net::{Assignment, Netlist};

use crate::NetTiming;

/// Timing of a whole netlist under one assignment.
///
/// Produced by [`analyze`]; holds one [`NetTiming`] per analyzed net
/// (either all nets, or an arbitrary subset via [`analyze_nets`]).
#[derive(Clone, PartialEq, Debug)]
pub struct TimingReport {
    /// `(net index, timing)` pairs in ascending net order.
    timings: Vec<(usize, NetTiming)>,
}

impl TimingReport {
    /// Timing of net `net_index`.
    ///
    /// # Panics
    ///
    /// Panics if the net was not part of the analysis.
    pub fn net(&self, net_index: usize) -> &NetTiming {
        #[expect(
            clippy::panic,
            reason = "documented panic; `try_net` is the fallible form"
        )]
        self.try_net(net_index)
            .unwrap_or_else(|| panic!("net {net_index} not analyzed"))
    }

    /// Timing of net `net_index`, or `None` if it was not analyzed.
    pub fn try_net(&self, net_index: usize) -> Option<&NetTiming> {
        self.timings
            .binary_search_by_key(&net_index, |&(i, _)| i)
            .ok()
            .map(|pos| &self.timings[pos].1)
    }

    /// Iterates over `(net index, timing)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &NetTiming)> {
        self.timings.iter().map(|(i, t)| (*i, t))
    }

    /// Number of analyzed nets.
    pub fn len(&self) -> usize {
        self.timings.len()
    }

    /// Whether the report is empty.
    pub fn is_empty(&self) -> bool {
        self.timings.is_empty()
    }

    /// Mean critical-path delay over the analyzed nets (the paper's
    /// `Avg(T_cp)`), 0.0 when empty.
    pub fn avg_critical_delay(&self) -> f64 {
        if self.timings.is_empty() {
            return 0.0;
        }
        self.timings
            .iter()
            .map(|(_, t)| t.critical_delay())
            .sum::<f64>()
            / self.timings.len() as f64
    }

    /// Maximum critical-path delay over the analyzed nets (the paper's
    /// `Max(T_cp)`), 0.0 when empty.
    pub fn max_critical_delay(&self) -> f64 {
        self.timings
            .iter()
            .map(|(_, t)| t.critical_delay())
            .fold(0.0f64, f64::max)
    }

    /// Every sink-pin delay of every analyzed net (for Fig. 1-style
    /// distributions).
    pub fn all_sink_delays(&self) -> Vec<f64> {
        self.timings
            .iter()
            .flat_map(|(_, t)| t.sink_delays().iter().map(|&(_, d)| d))
            .collect()
    }

    /// Net indices sorted by decreasing critical delay.
    pub fn nets_by_criticality(&self) -> Vec<usize> {
        let mut order: Vec<(usize, f64)> = self
            .timings
            .iter()
            .map(|(i, t)| (*i, t.critical_delay()))
            .collect();
        order.sort_by(|a, b| b.1.total_cmp(&a.1));
        order.into_iter().map(|(i, _)| i).collect()
    }
}

/// Analyzes every net of the netlist.
///
/// # Panics
///
/// Panics if the assignment does not match the netlist (wrong shapes or
/// out-of-range layers).
pub fn analyze(grid: &Grid, netlist: &Netlist, assignment: &Assignment) -> TimingReport {
    analyze_nets(grid, netlist, assignment, 0..netlist.len())
}

/// Analyzes an arbitrary subset of nets (e.g. only the released critical
/// nets, which is what the incremental flow re-times each iteration).
///
/// # Panics
///
/// Panics if a net index is out of range or the assignment mismatches.
pub fn analyze_nets(
    grid: &Grid,
    netlist: &Netlist,
    assignment: &Assignment,
    nets: impl IntoIterator<Item = usize>,
) -> TimingReport {
    let mut indices: Vec<usize> = nets.into_iter().collect();
    indices.sort_unstable();
    indices.dedup();
    let timings = indices
        .into_iter()
        .map(|i| {
            (
                i,
                NetTiming::compute(grid, netlist.net(i), assignment.net_layers(i)),
            )
        })
        .collect();
    TimingReport { timings }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid::{Cell, Direction, GridBuilder};
    use net::{Net, Pin, RouteTreeBuilder};

    fn fixture() -> (Grid, Netlist, Assignment) {
        let grid = GridBuilder::new(16, 16)
            .alternating_layers(4, Direction::Horizontal)
            .build()
            .unwrap();
        let mut nl = Netlist::new();
        for (i, len) in [3u16, 8, 5].iter().enumerate() {
            let y = i as u16;
            let mut b = RouteTreeBuilder::new(Cell::new(0, y));
            let end = b.add_segment(b.root(), Cell::new(*len, y)).unwrap();
            b.attach_pin(b.root(), 0).unwrap();
            b.attach_pin(end, 1).unwrap();
            nl.push(Net::new(
                format!("n{i}"),
                vec![
                    Pin::source(Cell::new(0, y), 0.0),
                    Pin::sink(Cell::new(*len, y), 1.0),
                ],
                b.build().unwrap(),
            ));
        }
        let a = Assignment::lowest_layers(&nl, &grid);
        (grid, nl, a)
    }

    #[test]
    fn criticality_order_follows_length() {
        let (g, nl, a) = fixture();
        let r = analyze(&g, &nl, &a);
        // Net 1 (length 8) is most critical, then net 2 (5), then 0 (3).
        assert_eq!(r.nets_by_criticality(), vec![1, 2, 0]);
        assert!(r.max_critical_delay() >= r.avg_critical_delay());
    }

    #[test]
    fn subset_analysis_only_covers_requested() {
        let (g, nl, a) = fixture();
        let r = analyze_nets(&g, &nl, &a, [2, 0, 2]);
        assert_eq!(r.len(), 2);
        assert!(r.try_net(1).is_none());
        assert!(r.try_net(0).is_some());
        assert_eq!(r.all_sink_delays().len(), 2);
    }

    #[test]
    #[should_panic(expected = "not analyzed")]
    fn missing_net_panics() {
        let (g, nl, a) = fixture();
        let r = analyze_nets(&g, &nl, &a, [0]);
        let _ = r.net(1);
    }

    #[test]
    fn empty_report_yields_zero_stats() {
        let (g, nl, a) = fixture();
        let r = analyze_nets(&g, &nl, &a, []);
        assert!(r.is_empty());
        assert_eq!(r.avg_critical_delay(), 0.0);
        assert_eq!(r.max_critical_delay(), 0.0);
    }
}
