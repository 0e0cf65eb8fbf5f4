//! Incremental Elmore timing with `commit`/`revert`.
//!
//! [`NetTiming::compute`](crate::NetTiming::compute) walks the whole
//! routing tree; re-running it after every trial layer change makes the
//! engine's accept/reject loops O(net) per probe. [`IncrementalTiming`]
//! instead caches the per-net downstream capacitances and the subtree
//! worst-sink aggregates, so changing one segment's layer only touches
//! the path from that segment to the root:
//!
//! * the segment's wire-capacitance delta propagates to the downstream
//!   capacitance of every **ancestor** (and to the driver's total load);
//! * the subtree aggregate `rel[s]` — the worst sink delay measured from
//!   segment `s`'s entry point — is re-derived for the changed segment,
//!   its immediate children (their entry via changed) and its ancestors.
//!
//! Sibling subtrees never need revisiting: a via stack between parent
//! `p` and child `c` drives `min(C_d(p), C_d(c))` (Eqn. 3), and in a
//! tree `C_d(p) ≥ C_d(c)` always holds — the parent's downstream load
//! includes the child's plus non-negative wire and pin terms — so the
//! `min` resolves to the child-side value, which a change elsewhere in
//! the tree leaves untouched. This makes the O(path-to-root) update
//! *exact*, not an approximation.
//!
//! Every mutation is journaled as `(slot, previous value)`; [`revert`]
//! replays the journal backwards and restores the prior state *bitwise*,
//! while [`commit`] simply drops it. This is the probe API the CPLA
//! engine's per-net acceptance gate and TILA's legalization sweep use.
//!
//! [`revert`]: IncrementalTiming::revert
//! [`commit`]: IncrementalTiming::commit
//!
//! # Example
//!
//! ```
//! use grid::{Cell, Direction, GridBuilder};
//! use net::{Net, Pin, RouteTreeBuilder};
//! use timing::{IncrementalTiming, NetTiming, TimingModel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let grid = GridBuilder::new(8, 8)
//!     .alternating_layers(4, Direction::Horizontal)
//!     .build()?;
//! let mut b = RouteTreeBuilder::new(Cell::new(0, 0));
//! let end = b.add_segment(b.root(), Cell::new(5, 0))?;
//! b.attach_pin(b.root(), 0)?;
//! b.attach_pin(end, 1)?;
//! let net = Net::new(
//!     "n",
//!     vec![Pin::source(Cell::new(0, 0), 0.0), Pin::sink(Cell::new(5, 0), 2.0)],
//!     b.build()?,
//! );
//! let model = TimingModel::from_grid(&grid);
//! let mut inc = IncrementalTiming::new(&model, &net, &[0]);
//! let before = inc.critical_delay();
//! inc.set_layer(0, 2); // probe: promote the segment
//! let after = inc.critical_delay();
//! inc.revert(); // decline the probe
//! assert_eq!(inc.critical_delay(), before);
//! assert!((after - NetTiming::compute(&grid, &net, &[2]).critical_delay()).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

use grid::Grid;
use net::Net;

/// NaN-safe exact-zero test: true for `±0.0`, false for everything else
/// including NaN — bit-identical to the bare `== 0.0` it replaces, but
/// expressed through the IEEE total order so the comparison cannot be
/// silently NaN-poisoned.
fn is_zero(x: f64) -> bool {
    x.abs().total_cmp(&0.0).is_eq()
}

/// Exact `-∞` sentinel test via the IEEE total order:
/// the aggregates below use `NEG_INFINITY` as the "no sink in this
/// subtree" marker, and only the exact sentinel may match.
fn is_neg_infinity(x: f64) -> bool {
    x.total_cmp(&f64::NEG_INFINITY).is_eq()
}

/// The electrical parameters timing needs, snapshotted from a [`Grid`].
///
/// [`IncrementalTiming`] holds a shared reference to one of these
/// instead of the grid itself, so callers may keep probing timing while
/// they mutate the grid's *usage* tables (capacity bookkeeping never
/// affects delay). Layer count, unit RC values and via resistances are
/// construction-time constants of a grid, so the snapshot cannot go
/// stale.
#[derive(Clone, PartialEq, Debug)]
pub struct TimingModel {
    /// Wire resistance per tile length, indexed by layer.
    unit_r: Vec<f64>,
    /// Wire capacitance per tile length, indexed by layer.
    unit_c: Vec<f64>,
    /// `step[l]`: via resistance of the single boundary `l -> l+1`.
    via_step: Vec<f64>,
}

impl TimingModel {
    /// Snapshots the timing-relevant parameters of `grid`.
    pub fn from_grid(grid: &Grid) -> TimingModel {
        let n = grid.num_layers();
        TimingModel {
            unit_r: (0..n).map(|l| grid.layer(l).unit_resistance).collect(),
            unit_c: (0..n).map(|l| grid.layer(l).unit_capacitance).collect(),
            via_step: (0..n.saturating_sub(1))
                .map(|l| grid.via_stack_resistance(l, l + 1))
                .collect(),
        }
    }

    /// Number of layers in the snapshot.
    pub fn num_layers(&self) -> usize {
        self.unit_r.len()
    }

    /// Wire resistance per tile on `layer`.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn unit_resistance(&self, layer: usize) -> f64 {
        self.unit_r[layer]
    }

    /// Wire capacitance per tile on `layer`.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn unit_capacitance(&self, layer: usize) -> f64 {
        self.unit_c[layer]
    }

    /// Resistance of a via stack between layers `a` and `b` (order
    /// free). Sums the per-boundary steps exactly like
    /// [`Grid::via_stack_resistance`], so results agree bitwise.
    ///
    /// # Panics
    ///
    /// Panics if a layer is out of range.
    pub fn stack_resistance(&self, a: usize, b: usize) -> f64 {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(hi < self.num_layers());
        self.via_step[lo..hi].iter().sum()
    }
}

/// One journaled scalar overwrite; replayed backwards on revert.
#[derive(Clone, Copy, Debug)]
enum Undo {
    Layer { seg: usize, prev: usize },
    Cap { seg: usize, prev: f64 },
    Rel { seg: usize, prev: f64 },
    Total { prev: f64 },
    Critical { prev: f64 },
}

/// Incrementally maintained Elmore timing of one net.
///
/// See the module-level docs above for the update scheme and the
/// exactness argument. State beyond the layer vector:
///
/// * `cap[s]` — downstream capacitance of segment `s` (excluding its
///   own wire), identical to [`NetTiming::downstream_cap`];
/// * `total_cap` — the driver's load;
/// * `rel[s]` — worst sink delay in `s`'s subtree measured from `s`'s
///   entry point (entry via + wire + the worst of the pin drop and the
///   children's `rel`), or `-inf` when the subtree holds no sink.
///
/// The net's critical delay is then
/// `R_drv·total_cap + max over root children of rel` (with a root-pin
/// sink contributing a zero-offset term), kept as a cached scalar.
///
/// [`NetTiming::downstream_cap`]: crate::NetTiming::downstream_cap
#[derive(Clone, Debug)]
pub struct IncrementalTiming<'a> {
    model: &'a TimingModel,
    net: &'a Net,
    layers: Vec<usize>,
    cap: Vec<f64>,
    rel: Vec<f64>,
    total_cap: f64,
    critical: f64,
    journal: Vec<Undo>,
}

impl<'a> IncrementalTiming<'a> {
    /// Builds the caches for `net` with segment `s` on `layers[s]`.
    ///
    /// # Panics
    ///
    /// Panics if `layers.len() != net.tree().num_segments()` or a layer
    /// index is out of range for the model.
    pub fn new(model: &'a TimingModel, net: &'a Net, layers: &[usize]) -> IncrementalTiming<'a> {
        let tree = net.tree();
        assert_eq!(layers.len(), tree.num_segments());
        let mut inc = IncrementalTiming {
            model,
            net,
            layers: layers.to_vec(),
            cap: vec![0.0; tree.num_segments()],
            rel: vec![f64::NEG_INFINITY; tree.num_segments()],
            total_cap: 0.0,
            critical: 0.0,
            journal: Vec::new(),
        };
        inc.rebuild();
        inc
    }

    /// Current layer vector.
    pub fn layers(&self) -> &[usize] {
        &self.layers
    }

    /// Downstream capacitance of segment `s` (excluding its own wire).
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn downstream_cap(&self, s: usize) -> f64 {
        self.cap[s]
    }

    /// All downstream capacitances, indexed by segment.
    pub fn downstream_caps(&self) -> &[f64] {
        &self.cap
    }

    /// Total capacitance presented to the driver.
    pub fn total_cap(&self) -> f64 {
        self.total_cap
    }

    /// The worst sink delay (`T_cp`), or 0.0 for a sink-free net.
    pub fn critical_delay(&self) -> f64 {
        self.critical
    }

    /// Whether there are uncommitted changes.
    pub fn is_dirty(&self) -> bool {
        !self.journal.is_empty()
    }

    /// Re-assigns segment `s` to `layer`, updating the caches in
    /// O(path-to-root · branching). The change is journaled: call
    /// [`IncrementalTiming::commit`] to keep it or
    /// [`IncrementalTiming::revert`] to roll back every change since the
    /// last commit.
    ///
    /// # Panics
    ///
    /// Panics if `s` or `layer` is out of range.
    pub fn set_layer(&mut self, s: usize, layer: usize) {
        assert!(layer < self.model.num_layers());
        let old = self.layers[s];
        if old == layer {
            return;
        }
        self.journal.push(Undo::Layer { seg: s, prev: old });
        self.layers[s] = layer;

        let tree = self.net.tree();
        let len = tree.segment_length(s) as f64;
        let delta_c = (self.model.unit_c[layer] - self.model.unit_c[old]) * len;
        if !is_zero(delta_c) {
            // The segment's own wire cap sits *above* its downstream
            // cap, so cap[s] is untouched; every ancestor and the
            // driver's total load shift by delta_c.
            let mut node = tree.segment(s).from as usize;
            while let Some(p) = tree.parent_segment(node) {
                self.journal.push(Undo::Cap {
                    seg: p,
                    prev: self.cap[p],
                });
                self.cap[p] += delta_c;
                node = tree.segment(p).from as usize;
            }
            self.journal.push(Undo::Total {
                prev: self.total_cap,
            });
            self.total_cap += delta_c;
        }

        // Subtree aggregates: the children's entry vias changed, then
        // the segment itself, then the chain up to the root. Sibling
        // subtrees are untouched (see the module docs).
        let to = tree.segment(s).to as usize;
        for &cs in tree.child_segments(to) {
            self.update_rel(cs as usize);
        }
        self.update_rel(s);
        let mut node = tree.segment(s).from as usize;
        while let Some(p) = tree.parent_segment(node) {
            self.update_rel(p);
            node = tree.segment(p).from as usize;
        }

        self.journal.push(Undo::Critical {
            prev: self.critical,
        });
        self.critical = self.critical_value();
    }

    /// Keeps all changes since the last commit (drops the journal).
    pub fn commit(&mut self) {
        self.journal.clear();
    }

    /// Rolls back every change since the last commit. Restoration is
    /// exact: each journal entry holds the overwritten bits.
    pub fn revert(&mut self) {
        while let Some(u) = self.journal.pop() {
            match u {
                Undo::Layer { seg, prev } => self.layers[seg] = prev,
                Undo::Cap { seg, prev } => self.cap[seg] = prev,
                Undo::Rel { seg, prev } => self.rel[seg] = prev,
                Undo::Total { prev } => self.total_cap = prev,
                Undo::Critical { prev } => self.critical = prev,
            }
        }
    }

    /// Replaces the whole layer vector and rebuilds the caches in
    /// O(net), discarding any uncommitted changes. For bulk
    /// re-assignments (e.g. after a per-net DP) this is cheaper than a
    /// chain of [`IncrementalTiming::set_layer`] calls.
    ///
    /// # Panics
    ///
    /// Panics if `layers` has the wrong length or a layer is out of
    /// range.
    pub fn reset(&mut self, layers: &[usize]) {
        assert_eq!(layers.len(), self.layers.len());
        self.layers.clear();
        self.layers.extend_from_slice(layers);
        self.journal.clear();
        self.rebuild();
    }

    /// `(pin index, delay)` for every sink, ordered by pin index —
    /// computed on demand in O(net) from the cached capacitances,
    /// mirroring [`NetTiming::sink_delays`].
    ///
    /// [`NetTiming::sink_delays`]: crate::NetTiming::sink_delays
    pub fn sink_delays(&self) -> Vec<(usize, f64)> {
        let tree = self.net.tree();
        let root = tree.root();
        let mut node_delay = vec![0.0f64; tree.num_nodes()];
        node_delay[root] = self.net.driver_resistance * self.total_cap;
        for s in tree.preorder_segments() {
            let seg = tree.segment(s);
            let (u, v) = (seg.from as usize, seg.to as usize);
            let (via, wire) = self.segment_terms(s);
            node_delay[v] = node_delay[u] + via + wire;
        }
        let mut out = Vec::with_capacity(self.net.pins().len() - 1);
        for (ni, node) in tree.nodes().enumerate() {
            let Some(p) = node.pin else { continue };
            if p == 0 {
                continue;
            }
            let pin = &self.net.pins()[p as usize];
            let metal = match tree.parent_segment(ni) {
                Some(ps) => self.layers[ps],
                None => pin.layer,
            };
            let drop = self.model.stack_resistance(pin.layer, metal) * pin.capacitance;
            out.push((p as usize, node_delay[ni] + drop));
        }
        out.sort_by_key(|&(p, _)| p);
        out
    }

    /// Full O(net) rebuild of caps, aggregates and the critical delay.
    fn rebuild(&mut self) {
        let tree = self.net.tree();
        let node_pin_cap = |node: usize| -> f64 {
            match tree.node(node).pin {
                Some(0) | None => 0.0,
                Some(p) => self.net.pins()[p as usize].capacitance,
            }
        };
        for s in tree.postorder_segments() {
            let child = tree.segment(s).to as usize;
            let mut cd = node_pin_cap(child);
            for &cs in tree.child_segments(child) {
                let cs = cs as usize;
                let len = tree.segment_length(cs) as f64;
                cd += self.model.unit_c[self.layers[cs]] * len + self.cap[cs];
            }
            self.cap[s] = cd;
        }
        let root = tree.root();
        let mut total = node_pin_cap(root);
        for &cs in tree.child_segments(root) {
            let cs = cs as usize;
            let len = tree.segment_length(cs) as f64;
            total += self.model.unit_c[self.layers[cs]] * len + self.cap[cs];
        }
        self.total_cap = total;
        for s in tree.postorder_segments() {
            self.rel[s] = self.rel_value(s);
        }
        self.critical = self.critical_value();
    }

    /// Entry-via and wire delay of segment `s` under the current state
    /// (the two per-segment terms of the Elmore recursion).
    fn segment_terms(&self, s: usize) -> (f64, f64) {
        let tree = self.net.tree();
        let from = tree.segment(s).from as usize;
        let lay = self.layers[s];
        let len = tree.segment_length(s) as f64;
        let (entry_layer, entry_cd) = match tree.parent_segment(from) {
            Some(ps) => (self.layers[ps], self.cap[ps]),
            None => (self.net.source().layer, self.total_cap),
        };
        let via = self.model.stack_resistance(entry_layer, lay) * entry_cd.min(self.cap[s]);
        let r = self.model.unit_r[lay] * len;
        let c = self.model.unit_c[lay] * len;
        (via, r * (c / 2.0 + self.cap[s]))
    }

    /// Journals and refreshes `rel[s]`.
    fn update_rel(&mut self, s: usize) {
        self.journal.push(Undo::Rel {
            seg: s,
            prev: self.rel[s],
        });
        self.rel[s] = self.rel_value(s);
    }

    /// Worst sink delay below `s`, measured from its entry point:
    /// `via + wire + max(pin drop at to(s), max children rel)`, or
    /// `-inf` when the subtree is sink-free.
    fn rel_value(&self, s: usize) -> f64 {
        let tree = self.net.tree();
        let to = tree.segment(s).to as usize;
        let mut below = f64::NEG_INFINITY;
        if let Some(p) = tree.node(to).pin {
            if p != 0 {
                let pin = &self.net.pins()[p as usize];
                below = self.model.stack_resistance(pin.layer, self.layers[s]) * pin.capacitance;
            }
        }
        for &cs in tree.child_segments(to) {
            below = below.max(self.rel[cs as usize]);
        }
        if is_neg_infinity(below) {
            return f64::NEG_INFINITY;
        }
        let (via, wire) = self.segment_terms(s);
        via + wire + below
    }

    /// Critical delay from the aggregates (matches
    /// [`NetTiming::critical_delay`], including the 0.0 floor).
    ///
    /// [`NetTiming::critical_delay`]: crate::NetTiming::critical_delay
    fn critical_value(&self) -> f64 {
        let tree = self.net.tree();
        let root = tree.root();
        let mut best = f64::NEG_INFINITY;
        // A sink pin at the root drops straight from its own layer:
        // its delay is exactly the driver term.
        if let Some(p) = tree.node(root).pin {
            if p != 0 {
                best = 0.0;
            }
        }
        for &cs in tree.child_segments(root) {
            best = best.max(self.rel[cs as usize]);
        }
        if is_neg_infinity(best) {
            return 0.0;
        }
        (self.net.driver_resistance * self.total_cap + best).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetTiming;
    use grid::{Cell, Direction, GridBuilder};
    use net::{Net, Pin, RouteTreeBuilder};

    fn grid() -> Grid {
        GridBuilder::new(16, 16)
            .alternating_layers(6, Direction::Horizontal)
            .build()
            .unwrap()
    }

    /// Y net: trunk (0,0)->(4,0), branch to (4,6), branch to (8,0).
    fn y_net() -> Net {
        let mut b = RouteTreeBuilder::new(Cell::new(0, 0));
        let j = b.add_segment(b.root(), Cell::new(4, 0)).unwrap();
        let far = b.add_segment(j, Cell::new(4, 6)).unwrap();
        let near = b.add_segment(j, Cell::new(8, 0)).unwrap();
        b.attach_pin(b.root(), 0).unwrap();
        b.attach_pin(far, 1).unwrap();
        b.attach_pin(near, 2).unwrap();
        Net::new(
            "y",
            vec![
                Pin::source(Cell::new(0, 0), 0.0),
                Pin::sink(Cell::new(4, 6), 2.0),
                Pin::sink(Cell::new(8, 0), 1.0),
            ],
            b.build().unwrap(),
        )
    }

    fn assert_matches(inc: &IncrementalTiming, g: &Grid, net: &Net) {
        let fresh = NetTiming::compute(g, net, inc.layers());
        let tol = |a: f64| 1e-9 * a.abs().max(1.0);
        for s in 0..net.tree().num_segments() {
            let (a, b) = (inc.downstream_cap(s), fresh.downstream_cap(s));
            assert!((a - b).abs() <= tol(b), "cap[{s}]: {a} vs {b}");
        }
        let (a, b) = (inc.total_cap(), fresh.total_cap());
        assert!((a - b).abs() <= tol(b), "total: {a} vs {b}");
        let (a, b) = (inc.critical_delay(), fresh.critical_delay());
        assert!((a - b).abs() <= tol(b), "critical: {a} vs {b}");
        let sinks = inc.sink_delays();
        assert_eq!(sinks.len(), fresh.sink_delays().len());
        for (&(p, d), &(fp, fd)) in sinks.iter().zip(fresh.sink_delays()) {
            assert_eq!(p, fp);
            assert!((d - fd).abs() <= tol(fd), "sink {p}: {d} vs {fd}");
        }
    }

    #[test]
    fn fresh_build_matches_net_timing() {
        let g = grid();
        let net = y_net();
        let model = TimingModel::from_grid(&g);
        let inc = IncrementalTiming::new(&model, &net, &[0, 1, 0]);
        assert_matches(&inc, &g, &net);
    }

    #[test]
    fn single_change_matches_recompute() {
        let g = grid();
        let net = y_net();
        let model = TimingModel::from_grid(&g);
        let mut inc = IncrementalTiming::new(&model, &net, &[0, 1, 0]);
        inc.set_layer(1, 5); // promote the far branch
        assert_matches(&inc, &g, &net);
        inc.commit();
        inc.set_layer(0, 4); // promote the trunk
        inc.set_layer(2, 2);
        assert_matches(&inc, &g, &net);
    }

    #[test]
    fn revert_restores_bitwise() {
        let g = grid();
        let net = y_net();
        let model = TimingModel::from_grid(&g);
        let mut inc = IncrementalTiming::new(&model, &net, &[0, 1, 0]);
        let caps: Vec<f64> = inc.downstream_caps().to_vec();
        let total = inc.total_cap();
        let critical = inc.critical_delay();
        inc.set_layer(0, 2);
        inc.set_layer(1, 3);
        inc.set_layer(1, 5);
        assert!(inc.is_dirty());
        inc.revert();
        assert!(!inc.is_dirty());
        // Bitwise equality, not approximate: the journal holds the
        // exact overwritten values.
        assert_eq!(inc.downstream_caps(), caps.as_slice());
        assert_eq!(inc.total_cap().to_bits(), total.to_bits());
        assert_eq!(inc.critical_delay().to_bits(), critical.to_bits());
        assert_eq!(inc.layers(), &[0, 1, 0]);
    }

    #[test]
    fn commit_then_revert_only_rolls_back_to_commit_point() {
        let g = grid();
        let net = y_net();
        let model = TimingModel::from_grid(&g);
        let mut inc = IncrementalTiming::new(&model, &net, &[0, 1, 0]);
        inc.set_layer(1, 3);
        inc.commit();
        let committed = inc.critical_delay();
        inc.set_layer(0, 2);
        inc.revert();
        assert_eq!(inc.critical_delay().to_bits(), committed.to_bits());
        assert_eq!(inc.layers(), &[0, 3, 0]);
        assert_matches(&inc, &g, &net);
    }

    #[test]
    fn noop_change_journals_nothing() {
        let g = grid();
        let net = y_net();
        let model = TimingModel::from_grid(&g);
        let mut inc = IncrementalTiming::new(&model, &net, &[0, 1, 0]);
        inc.set_layer(1, 1);
        assert!(!inc.is_dirty());
    }

    #[test]
    fn reset_matches_fresh_build() {
        let g = grid();
        let net = y_net();
        let model = TimingModel::from_grid(&g);
        let mut inc = IncrementalTiming::new(&model, &net, &[0, 1, 0]);
        inc.set_layer(0, 2); // pending change is discarded by reset
        inc.reset(&[4, 5, 2]);
        assert!(!inc.is_dirty());
        assert_matches(&inc, &g, &net);
    }

    #[test]
    fn model_matches_grid_parameters() {
        let g = grid();
        let m = TimingModel::from_grid(&g);
        assert_eq!(m.num_layers(), g.num_layers());
        for l in 0..g.num_layers() {
            assert_eq!(m.unit_resistance(l), g.layer(l).unit_resistance);
            assert_eq!(m.unit_capacitance(l), g.layer(l).unit_capacitance);
            for h in l..g.num_layers() {
                assert_eq!(
                    m.stack_resistance(l, h).to_bits(),
                    g.via_stack_resistance(l, h).to_bits(),
                    "stack {l}..{h}"
                );
            }
        }
    }

    #[test]
    fn sink_free_net_has_zero_critical_delay() {
        let g = grid();
        let mut b = RouteTreeBuilder::new(Cell::new(0, 0));
        b.add_segment(b.root(), Cell::new(3, 0)).unwrap();
        b.attach_pin(b.root(), 0).unwrap();
        let net = Net::new(
            "stub",
            vec![Pin::source(Cell::new(0, 0), 0.0)],
            b.build().unwrap(),
        );
        let model = TimingModel::from_grid(&g);
        let mut inc = IncrementalTiming::new(&model, &net, &[0]);
        assert_eq!(inc.critical_delay(), 0.0);
        inc.set_layer(0, 4);
        assert_eq!(inc.critical_delay(), 0.0);
        assert_matches(&inc, &g, &net);
    }
}
