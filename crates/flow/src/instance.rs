//! In-memory problem instances — the programmatic counterpart of the
//! ISPD'08 file path.
//!
//! The CLI reaches a [`LayerAssigner`] by parsing a benchmark file,
//! routing it and building an initial assignment. Test harnesses and
//! fuzzers (the `conform` crate) build the same three pieces directly in
//! memory; [`Instance`] is the validated bundle both paths converge on:
//! a [`Grid`] whose usage tallies reflect a shape-checked [`Assignment`]
//! over a structurally valid [`Netlist`].

use grid::Grid;
use net::{Assignment, Netlist};

use crate::{FlowError, FlowReport, InputError, LayerAssigner, Metrics, StageObserver};

/// A validated in-memory layer-assignment problem.
///
/// Construction via [`Instance::new`] checks every structural contract
/// the engines rely on and records the assignment's wire/via usage on
/// the grid, so an `Instance` handed to [`Instance::run`] satisfies the
/// same preconditions as a freshly parsed-and-routed benchmark.
#[derive(Clone, Debug)]
pub struct Instance {
    grid: Grid,
    netlist: Netlist,
    assignment: Assignment,
}

impl Instance {
    /// Bundles a grid, netlist and assignment into a validated instance.
    ///
    /// `grid` must carry **no usage** for these nets yet: this
    /// constructor applies the assignment's wires and via stacks to the
    /// grid tallies itself (the in-memory analog of
    /// `route::initial_assignment`).
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Input`] when the netlist does not fit the
    /// grid, the assignment's shape does not cover the netlist, or any
    /// segment sits on an out-of-range or wrong-direction layer.
    pub fn new(
        mut grid: Grid,
        netlist: Netlist,
        assignment: Assignment,
    ) -> Result<Instance, FlowError> {
        netlist
            .validate(grid.width(), grid.height())
            .map_err(|detail| InputError::ShapeMismatch { detail })?;
        crate::validate_input(&netlist, &assignment, &[])?;
        assignment
            .validate(&netlist, &grid)
            .map_err(|detail| InputError::ShapeMismatch { detail })?;
        net::apply_to_grid(&mut grid, &netlist, &assignment);
        Ok(Instance {
            grid,
            netlist,
            assignment,
        })
    }

    /// The grid, with usage tallies tracking the current assignment.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The netlist under optimization.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The current assignment.
    pub fn assignment(&self) -> &Assignment {
        &self.assignment
    }

    /// Decomposes the instance back into its parts (grid usage still
    /// reflects the assignment).
    pub fn into_parts(self) -> (Grid, Netlist, Assignment) {
        (self.grid, self.netlist, self.assignment)
    }

    /// The nets a backend with the given critical ratio would release,
    /// most critical first (see [`crate::select_critical_nets`]).
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Config`] when `ratio` is not a finite
    /// fraction in `0..=1`.
    pub fn critical_nets(&self, ratio: f64) -> Result<Vec<usize>, FlowError> {
        crate::validate_ratio("critical_ratio", ratio)?;
        Ok(crate::select_critical_nets(
            &self.grid,
            &self.netlist,
            &self.assignment,
            ratio,
        ))
    }

    /// Measures the Table-2 quality metrics over `released`.
    ///
    /// # Panics
    ///
    /// Panics if an index in `released` is out of range (construction
    /// has already validated everything else).
    pub fn metrics(&self, released: &[usize]) -> Metrics {
        Metrics::measure(&self.grid, &self.netlist, &self.assignment, released)
    }

    /// Runs a backend on this instance, rewriting the assignment (and
    /// grid usage) in place.
    ///
    /// # Errors
    ///
    /// Propagates the backend's [`FlowError`].
    pub fn run(&mut self, assigner: &dyn LayerAssigner) -> Result<FlowReport, FlowError> {
        assigner.assign(&mut self.grid, &self.netlist, &mut self.assignment)
    }

    /// Runs a backend with stage observers attached.
    ///
    /// # Errors
    ///
    /// Propagates the backend's [`FlowError`].
    pub fn run_observed(
        &mut self,
        assigner: &dyn LayerAssigner,
        observers: &mut [&mut dyn StageObserver],
    ) -> Result<FlowReport, FlowError> {
        assigner.assign_observed(
            &mut self.grid,
            &self.netlist,
            &mut self.assignment,
            observers,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid::{Cell, Direction, GridBuilder};
    use net::{Net, Pin, RouteTreeBuilder};

    fn straight_net(name: &str, from: Cell, to: Cell) -> Net {
        let mut b = RouteTreeBuilder::new(from);
        let end = b.add_segment(b.root(), to).unwrap();
        b.attach_pin(b.root(), 0).unwrap();
        b.attach_pin(end, 1).unwrap();
        Net::new(
            name,
            vec![Pin::source(from, 10.0), Pin::sink(to, 1.0)],
            b.build().unwrap(),
        )
    }

    fn fixture() -> (Grid, Netlist) {
        let grid = GridBuilder::new(8, 8)
            .alternating_layers(4, Direction::Horizontal)
            .uniform_capacity(4)
            .build()
            .unwrap();
        let mut nl = Netlist::new();
        nl.push(straight_net("a", Cell::new(0, 0), Cell::new(5, 0)));
        nl.push(straight_net("b", Cell::new(2, 1), Cell::new(2, 6)));
        (grid, nl)
    }

    #[test]
    fn construction_applies_usage() {
        let (grid, nl) = fixture();
        let a = Assignment::lowest_layers(&nl, &grid);
        let inst = Instance::new(grid, nl, a).unwrap();
        // Net "a" occupies 5 edges on its lowest horizontal layer.
        let used: u32 = inst
            .grid()
            .edges_in_direction(Direction::Horizontal)
            .map(|e| inst.grid().edge_usage(0, e))
            .sum();
        assert_eq!(used, 5);
        let m = inst.metrics(&[0, 1]);
        assert!(m.avg_tcp > 0.0);
    }

    #[test]
    fn rejects_shape_mismatch() {
        let (grid, nl) = fixture();
        let mut short = Netlist::new();
        short.push(nl.net(0).clone());
        let a = Assignment::lowest_layers(&short, &grid);
        let err = Instance::new(grid, nl, a).unwrap_err();
        assert!(matches!(err, FlowError::Input(_)), "{err}");
    }

    #[test]
    fn rejects_out_of_range_layer() {
        let (grid, nl) = fixture();
        let mut a = Assignment::lowest_layers(&nl, &grid);
        a.set_layer(0, 0, 99);
        let err = Instance::new(grid, nl, a).unwrap_err();
        assert!(matches!(err, FlowError::Input(_)), "{err}");
    }

    #[test]
    fn rejects_off_grid_netlist() {
        let (grid, _) = fixture();
        let mut nl = Netlist::new();
        nl.push(straight_net("far", Cell::new(0, 0), Cell::new(200, 0)));
        let a = Assignment::lowest_layers(&nl, &grid);
        let err = Instance::new(grid, nl, a).unwrap_err();
        assert!(matches!(err, FlowError::Input(_)), "{err}");
    }

    #[test]
    fn critical_nets_orders_by_delay() {
        let (grid, nl) = fixture();
        let a = Assignment::lowest_layers(&nl, &grid);
        let inst = Instance::new(grid, nl, a).unwrap();
        let all = inst.critical_nets(1.0).unwrap();
        assert_eq!(all.len(), 2);
        assert!(inst.critical_nets(2.0).is_err());
    }
}
