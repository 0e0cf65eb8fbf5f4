//! The metrics the paper's Table 2 reports, shared by every backend.

use grid::Grid;
use net::{Assignment, Netlist};

/// Quality metrics of an assignment over a released (critical) net set.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct Metrics {
    /// Mean critical-path delay over released nets — `Avg(T_cp)`.
    pub avg_tcp: f64,
    /// Worst critical-path delay over released nets — `Max(T_cp)`.
    pub max_tcp: f64,
    /// Total via-capacity overflow — `OV#`.
    pub via_overflow: u64,
    /// Total via count over the whole design — `via#`.
    pub via_count: u64,
}

impl Metrics {
    /// Measures the current state.
    ///
    /// `grid` usage must reflect `assignment`. The timing statistics
    /// time the `released` nets only. `OV#` and `via#` are design-wide,
    /// matching the paper's table, and are the grid's running totals
    /// ([`Grid::total_via_overflow`], [`Grid::total_via_count`]), so a
    /// measure costs the released nets' timing and nothing per net
    /// beyond them.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range or shapes mismatch (callers
    /// reach this only after [`crate::validate_input`] has passed).
    pub fn measure(
        grid: &Grid,
        netlist: &Netlist,
        assignment: &Assignment,
        released: &[usize],
    ) -> Metrics {
        let report = timing::analyze_nets(grid, netlist, assignment, released.iter().copied());
        Metrics {
            avg_tcp: report.avg_critical_delay(),
            max_tcp: report.max_critical_delay(),
            via_overflow: grid.total_via_overflow(),
            via_count: grid.total_via_count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid::{Cell, Direction, GridBuilder};
    use net::{Net, Pin, RouteTreeBuilder};

    #[test]
    fn metrics_track_assignment_changes() {
        let mut grid = GridBuilder::new(16, 16)
            .alternating_layers(4, Direction::Horizontal)
            .build()
            .unwrap();
        let mut nl = Netlist::new();
        let mut b = RouteTreeBuilder::new(Cell::new(0, 0));
        let e = b.add_segment(b.root(), Cell::new(10, 0)).unwrap();
        b.attach_pin(b.root(), 0).unwrap();
        b.attach_pin(e, 1).unwrap();
        nl.push(Net::new(
            "n",
            vec![
                Pin::source(Cell::new(0, 0), 0.0),
                Pin::sink(Cell::new(10, 0), 2.0),
            ],
            b.build().unwrap(),
        ));
        let mut a = Assignment::lowest_layers(&nl, &grid);
        net::apply_to_grid(&mut grid, &nl, &a);
        let low = Metrics::measure(&grid, &nl, &a, &[0]);
        assert!(low.avg_tcp > 0.0);
        assert_eq!(low.avg_tcp, low.max_tcp, "single net");
        assert_eq!(low.via_count, 0, "everything on the pin layer");

        // Promote to layer 2: delay drops, vias appear.
        net::remove_net_from_grid(&mut grid, nl.net(0), a.net_layers(0));
        a.set_layer(0, 0, 2);
        net::restore_net_to_grid(&mut grid, nl.net(0), a.net_layers(0));
        let high = Metrics::measure(&grid, &nl, &a, &[0]);
        assert!(high.avg_tcp < low.avg_tcp);
        assert_eq!(high.via_count, 4, "two stacks of two hops");
    }
}
