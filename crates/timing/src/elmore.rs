//! Per-net Elmore delay computation.

use grid::Grid;
use net::Net;

/// Segment delay on a candidate layer (Eqn. 2 of the paper):
/// `R_e(l) · (C_e(l)/2 + C_d)`, where `R_e`/`C_e` scale with the segment
/// length and `C_d` is the downstream capacitance *beyond* the segment.
///
/// This is the cost CPLA places on the diagonal of its `T` matrix; the
/// downstream capacitance is taken from the current assignment and
/// refreshed each outer iteration.
pub fn segment_delay_on_layer(
    grid: &Grid,
    net: &Net,
    seg: usize,
    layer: usize,
    downstream_cap: f64,
) -> f64 {
    let len = net.tree().segment_length(seg) as f64;
    let r = grid.layer(layer).unit_resistance * len;
    let c = grid.layer(layer).unit_capacitance * len;
    r * (c / 2.0 + downstream_cap)
}

/// Elmore timing of one net under a given layer vector.
///
/// [`NetTiming::compute`] builds one; [`NetTiming::recompute`] reruns
/// the same recursion into an existing value, reusing its buffers, so a
/// caller timing many nets in turn (critical-net selection, the
/// baselines' per-net passes) keeps one scratch instead of allocating
/// per net.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct NetTiming {
    /// Downstream capacitance per segment: total capacitance hanging
    /// below the segment's child-side endpoint (wire + sink loads),
    /// excluding the segment's own wire capacitance.
    downstream_cap: Vec<f64>,
    /// Elmore delay at each tree node.
    node_delay: Vec<f64>,
    /// `(pin index, delay)` for every sink pin, in pin order.
    sink_delays: Vec<(usize, f64)>,
    /// Total capacitance seen by the driver.
    total_cap: f64,
}

impl NetTiming {
    /// Computes the full Elmore timing of `net` with segment `s` assigned
    /// to `layers[s]`.
    ///
    /// # Panics
    ///
    /// Panics if `layers.len() != net.tree().num_segments()` or a layer
    /// index is out of range for the grid.
    pub fn compute(grid: &Grid, net: &Net, layers: &[usize]) -> NetTiming {
        let mut timing = NetTiming::default();
        timing.recompute(grid, net, layers);
        timing
    }

    /// [`NetTiming::compute`] into `self`, overwriting every field and
    /// reusing the buffers: the result is bit-identical to a fresh
    /// compute, whatever `self` held before.
    ///
    /// # Panics
    ///
    /// Panics if `layers.len() != net.tree().num_segments()` or a layer
    /// index is out of range for the grid.
    pub fn recompute(&mut self, grid: &Grid, net: &Net, layers: &[usize]) {
        let tree = net.tree();
        assert_eq!(layers.len(), tree.num_segments());
        let NetTiming {
            downstream_cap,
            node_delay,
            sink_delays,
            total_cap: total_cap_out,
        } = self;

        // -------- bottom-up: downstream capacitance per segment --------
        downstream_cap.clear();
        downstream_cap.resize(tree.num_segments(), 0.0);
        let node_pin_cap = |node: usize| -> f64 {
            match tree.node(node).pin {
                // The source pin does not load the net.
                Some(0) | None => 0.0,
                Some(p) => net.pins()[p as usize].capacitance,
            }
        };
        for s in tree.postorder_segments() {
            let child_node = tree.segment(s).to as usize;
            let mut cd = node_pin_cap(child_node);
            for &cs in tree.child_segments(child_node) {
                let cs = cs as usize;
                let len = tree.segment_length(cs) as f64;
                let wire_cap = grid.layer(layers[cs]).unit_capacitance * len;
                cd += wire_cap + downstream_cap[cs];
            }
            downstream_cap[s] = cd;
        }

        // Total capacitance at the driver = caps of root's child segments
        // plus their downstream caps plus any load at the root itself.
        let root = tree.root();
        let mut total_cap = node_pin_cap(root);
        for &cs in tree.child_segments(root) {
            let cs = cs as usize;
            let len = tree.segment_length(cs) as f64;
            total_cap += grid.layer(layers[cs]).unit_capacitance * len + downstream_cap[cs];
        }

        // -------- top-down: node delays --------
        node_delay.clear();
        node_delay.resize(tree.num_nodes(), 0.0);
        node_delay[root] = net.driver_resistance * total_cap;
        for s in tree.preorder_segments() {
            let seg = tree.segment(s);
            let (u, v) = (seg.from as usize, seg.to as usize);
            let len = tree.segment_length(s) as f64;
            let lay = grid.layer(layers[s]);
            let r = lay.unit_resistance * len;
            let c = lay.unit_capacitance * len;

            // Via delay where the segment departs from its parent metal:
            // resistance of the stack between the entry layer at node u
            // and this segment's layer, times the capacitance it drives
            // (Eqn. 3: min of the two downstream caps; the child side is
            // always the smaller in a tree).
            let entry_layer = match tree.parent_segment(u) {
                Some(ps) => layers[ps],
                // At the root the net enters from the source pin's layer.
                None => net.source().layer,
            };
            let (lo, hi) = if entry_layer <= layers[s] {
                (entry_layer, layers[s])
            } else {
                (layers[s], entry_layer)
            };
            let via_r = grid.via_stack_resistance(lo, hi);
            let entry_cd = match tree.parent_segment(u) {
                Some(ps) => downstream_cap[ps],
                None => total_cap,
            };
            let via_delay = via_r * entry_cd.min(downstream_cap[s]);

            node_delay[v] = node_delay[u] + via_delay + r * (c / 2.0 + downstream_cap[s]);
        }

        // -------- sink delays (including the pin drop-via) --------
        sink_delays.clear();
        for (ni, node) in tree.nodes().enumerate() {
            let Some(p) = node.pin else { continue };
            if p == 0 {
                continue;
            }
            let pin = &net.pins()[p as usize];
            // Stack from the metal reaching this node down to the pin.
            let metal_layer = match tree.parent_segment(ni) {
                Some(ps) => layers[ps],
                None => pin.layer,
            };
            let (lo, hi) = if pin.layer <= metal_layer {
                (pin.layer, metal_layer)
            } else {
                (metal_layer, pin.layer)
            };
            let drop_delay = grid.via_stack_resistance(lo, hi) * pin.capacitance;
            sink_delays.push((p as usize, node_delay[ni] + drop_delay));
        }
        sink_delays.sort_by_key(|&(p, _)| p);
        *total_cap_out = total_cap;
    }

    /// Downstream capacitance of segment `s` (excluding its own wire).
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn downstream_cap(&self, s: usize) -> f64 {
        self.downstream_cap[s]
    }

    /// All downstream capacitances, indexed by segment.
    pub fn downstream_caps(&self) -> &[f64] {
        &self.downstream_cap
    }

    /// Elmore delay at tree node `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn node_delay(&self, n: usize) -> f64 {
        self.node_delay[n]
    }

    /// `(pin index, delay)` for every sink, ordered by pin index.
    pub fn sink_delays(&self) -> &[(usize, f64)] {
        &self.sink_delays
    }

    /// Total capacitance presented to the driver.
    pub fn total_cap(&self) -> f64 {
        self.total_cap
    }

    /// The worst sink delay (the net's critical-path delay `T_cp`), or
    /// 0.0 for a net with no sinks.
    pub fn critical_delay(&self) -> f64 {
        self.sink_delays
            .iter()
            .map(|&(_, d)| d)
            .fold(0.0f64, f64::max)
    }

    /// Pin index of the critical (worst-delay) sink, if any.
    pub fn critical_sink(&self) -> Option<usize> {
        self.sink_delays
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|&(p, _)| p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid::{Cell, Direction, GridBuilder};
    use net::{Net, Pin, RouteTreeBuilder};

    fn grid() -> Grid {
        GridBuilder::new(16, 16)
            .alternating_layers(4, Direction::Horizontal)
            .build()
            .unwrap()
    }

    /// Straight 2-pin net of length 4 on row 0.
    fn straight_net(sink_cap: f64) -> Net {
        let mut b = RouteTreeBuilder::new(Cell::new(0, 0));
        let end = b.add_segment(b.root(), Cell::new(4, 0)).unwrap();
        b.attach_pin(b.root(), 0).unwrap();
        b.attach_pin(end, 1).unwrap();
        Net::new(
            "s",
            vec![
                Pin::source(Cell::new(0, 0), 0.0),
                Pin::sink(Cell::new(4, 0), sink_cap),
            ],
            b.build().unwrap(),
        )
    }

    #[test]
    fn straight_net_matches_hand_elmore() {
        let g = grid();
        let n = straight_net(2.0);
        let t = NetTiming::compute(&g, &n, &[0]);
        let len = 4.0;
        let r = g.layer(0).unit_resistance * len;
        let c = g.layer(0).unit_capacitance * len;
        // Downstream of the single segment is just the sink pin.
        assert!((t.downstream_cap(0) - 2.0).abs() < 1e-12);
        let expect = r * (c / 2.0 + 2.0);
        let (pin, delay) = t.sink_delays()[0];
        assert_eq!(pin, 1);
        assert!((delay - expect).abs() < 1e-9, "{delay} vs {expect}");
        assert_eq!(t.critical_sink(), Some(1));
    }

    #[test]
    fn higher_layer_reduces_delay_of_long_net() {
        let g = grid();
        let n = straight_net(2.0);
        let low = NetTiming::compute(&g, &n, &[0]).critical_delay();
        // Layer 2 is horizontal with half the resistance; via penalty is
        // small relative to the wire delay for this length.
        let high = NetTiming::compute(&g, &n, &[2]).critical_delay();
        assert!(high < low, "high {high} >= low {low}");
    }

    #[test]
    fn branch_caps_accumulate() {
        // Y net: trunk (0,0)->(2,0), branches to (2,3) sink A and
        // (4,0) sink B.
        let g = grid();
        let mut b = RouteTreeBuilder::new(Cell::new(0, 0));
        let j = b.add_segment(b.root(), Cell::new(2, 0)).unwrap();
        let a = b.add_segment(j, Cell::new(2, 3)).unwrap();
        let bb = b.add_segment(j, Cell::new(4, 0)).unwrap();
        b.attach_pin(b.root(), 0).unwrap();
        b.attach_pin(a, 1).unwrap();
        b.attach_pin(bb, 2).unwrap();
        let n = Net::new(
            "y",
            vec![
                Pin::source(Cell::new(0, 0), 0.0),
                Pin::sink(Cell::new(2, 3), 1.0),
                Pin::sink(Cell::new(4, 0), 1.0),
            ],
            b.build().unwrap(),
        );
        let t = NetTiming::compute(&g, &n, &[0, 1, 0]);
        // Trunk downstream cap = both branch wires + both sink pins.
        let c_branch_a = g.layer(1).unit_capacitance * 3.0;
        let c_branch_b = g.layer(0).unit_capacitance * 2.0;
        let expect = c_branch_a + c_branch_b + 2.0;
        assert!((t.downstream_cap(0) - expect).abs() < 1e-9);
        // Two sinks reported, both positive.
        assert_eq!(t.sink_delays().len(), 2);
        assert!(t.sink_delays().iter().all(|&(_, d)| d > 0.0));
        // Total cap = trunk wire + downstream.
        let trunk_cap = g.layer(0).unit_capacitance * 2.0;
        assert!((t.total_cap() - (trunk_cap + expect)).abs() < 1e-9);
    }

    #[test]
    fn via_stack_adds_delay() {
        let g = grid();
        let n = straight_net(2.0);
        // Same wire layer resistance trick: compare two horizontal layers
        // is unfair; instead add driver at pin layer 0 and assign to layer
        // 0 vs a *hypothetical* identical layer reached through vias.
        // Simplest check: delay on layer 2 includes the 0->2 via stack.
        let t = NetTiming::compute(&g, &n, &[2]);
        let len = 4.0;
        let lay = g.layer(2);
        let r = lay.unit_resistance * len;
        let c = lay.unit_capacitance * len;
        let wire = r * (c / 2.0 + 2.0);
        let via_up = g.via_stack_resistance(0, 2) * t.downstream_cap(0);
        let via_down = g.via_stack_resistance(0, 2) * 2.0;
        let (_, delay) = t.sink_delays()[0];
        assert!(
            (delay - (wire + via_up + via_down)).abs() < 1e-9,
            "{delay} vs {}",
            wire + via_up + via_down
        );
    }

    #[test]
    fn deep_chain_accumulates_monotonically() {
        // A 5-hop chain of alternating H/V segments: node delay must be
        // strictly increasing from source to sink, and the sink delay
        // must equal the last node's delay plus the pin drop.
        let g = grid();
        let mut b = RouteTreeBuilder::new(Cell::new(0, 0));
        let mut cur = b.root();
        let waypoints = [
            Cell::new(3, 0),
            Cell::new(3, 3),
            Cell::new(6, 3),
            Cell::new(6, 6),
            Cell::new(9, 6),
        ];
        for w in waypoints {
            cur = b.add_segment(cur, w).unwrap();
        }
        b.attach_pin(0, 0).unwrap();
        b.attach_pin(cur, 1).unwrap();
        let n = Net::new(
            "chain",
            vec![
                Pin::source(Cell::new(0, 0), 0.0),
                Pin::sink(Cell::new(9, 6), 1.5),
            ],
            b.build().unwrap(),
        );
        let layers = [0usize, 1, 2, 3, 0];
        let t = NetTiming::compute(&g, &n, &layers);
        let mut prev = t.node_delay(0);
        for node in 1..n.tree().num_nodes() {
            let d = t.node_delay(node);
            assert!(d > prev, "node {node}: {d} <= {prev}");
            prev = d;
        }
        let (_, sink_delay) = t.sink_delays()[0];
        assert!(sink_delay >= prev, "pin drop cannot reduce delay");
        // Downstream caps shrink monotonically along the chain.
        for s in 1..5 {
            assert!(t.downstream_cap(s) < t.downstream_cap(s - 1));
        }
    }

    #[test]
    fn promoting_a_branch_raises_sibling_path_delay() {
        // The load-coupling the CPLA objective models: moving a branch
        // to a higher-capacitance layer increases the delay of sinks on
        // the *other* branch (through the shared trunk's downstream
        // cap).
        let g = grid();
        let mut b = RouteTreeBuilder::new(Cell::new(0, 0));
        let j = b.add_segment(b.root(), Cell::new(4, 0)).unwrap();
        let s1 = b.add_segment(j, Cell::new(4, 4)).unwrap();
        let s2 = b.add_segment(j, Cell::new(8, 0)).unwrap();
        b.attach_pin(0, 0).unwrap();
        b.attach_pin(s1, 1).unwrap();
        b.attach_pin(s2, 2).unwrap();
        let n = Net::new(
            "y",
            vec![
                Pin::source(Cell::new(0, 0), 0.0),
                Pin::sink(Cell::new(4, 4), 1.0),
                Pin::sink(Cell::new(8, 0), 1.0),
            ],
            b.build().unwrap(),
        );
        // Branch to sink 1 on layer 1 (cap 1.15/tile) vs layer 3
        // (cap 1.45/tile): sink 2's delay must increase.
        let low = NetTiming::compute(&g, &n, &[0, 1, 0]);
        let high = NetTiming::compute(&g, &n, &[0, 3, 0]);
        let sink2 = |t: &NetTiming| {
            t.sink_delays()
                .iter()
                .find(|&&(p, _)| p == 2)
                .map(|&(_, d)| d)
                .unwrap()
        };
        assert!(
            sink2(&high) > sink2(&low),
            "{} <= {}",
            sink2(&high),
            sink2(&low)
        );
    }

    #[test]
    fn recompute_into_a_used_scratch_matches_compute() {
        // One scratch carried across nets of different shapes and
        // layers must end bit-identical to a fresh compute each time.
        let g = grid();
        let nets = [straight_net(2.0), straight_net(0.5)];
        let mut scratch = NetTiming::compute(&g, &nets[1], &[2]);
        for (net, layers) in [(&nets[0], [0]), (&nets[1], [2]), (&nets[0], [2])] {
            scratch.recompute(&g, net, &layers);
            assert_eq!(scratch, NetTiming::compute(&g, net, &layers));
        }
    }

    #[test]
    fn driver_resistance_shifts_all_sinks() {
        let g = grid();
        let mut n = straight_net(2.0);
        let base = NetTiming::compute(&g, &n, &[0]).critical_delay();
        n.driver_resistance = 5.0;
        let t = NetTiming::compute(&g, &n, &[0]);
        let shifted = t.critical_delay();
        assert!((shifted - base - 5.0 * t.total_cap()).abs() < 1e-9);
    }
}
