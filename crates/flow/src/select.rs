//! Critical-net selection, shared by every backend.

use grid::Grid;
use net::{Assignment, Net, Netlist};
use timing::NetTiming;

use crate::ConfigError;

/// Relative margin [`elmore_bound`] adds so that rounding cannot put a
/// computed delay above its computed bound (see there).
const BOUND_MARGIN: f64 = 1e-9;

/// Selects the `ratio` most critical nets of the design: those with the
/// largest worst-sink Elmore delay under `assignment`.
///
/// `ratio` is a fraction of the net count (the paper's "critical
/// ratio": 0.005 releases 0.5% of nets). At least one net is selected
/// whenever the netlist is non-empty and `ratio > 0`. Returned indices
/// are sorted by decreasing critical delay, and equal delays release
/// the lower net index first.
///
/// Only the nets that can reach the release are timed. One pass over
/// every net's segments computes an upper bound on its critical delay
/// (`elmore_bound`). The `count` nets with the largest bounds are
/// timed with [`NetTiming`]'s recursion, and the smallest of their
/// delays is a floor the `count`-th largest delay cannot be under. A
/// net whose bound is below the floor cannot be released, so of the
/// other nets only those whose bound reaches the floor are timed. At
/// the engines' default ratio that is 4–8% of a Table-2 design's nets;
/// above a ratio of about 0.05 the bounds cost more than they save
/// (DESIGN §6g). When every net is released the bounds are skipped.
/// Every timing reuses one scratch, so the selection allocates two
/// design-sized vectors and nothing per net.
///
/// # Panics
///
/// Panics if `ratio` is negative or not finite (engine entry points
/// reject such ratios first via [`validate_ratio`]), or if `assignment`
/// does not cover `netlist`.
pub fn select_critical_nets(
    grid: &Grid,
    netlist: &Netlist,
    assignment: &Assignment,
    ratio: f64,
) -> Vec<usize> {
    assert!(ratio.is_finite() && ratio >= 0.0, "invalid ratio {ratio}");
    let n = netlist.len();
    if n == 0 || ratio == 0.0 {
        return Vec::new();
    }
    let count = ((n as f64 * ratio).round() as usize).clamp(1, n);
    let nets = netlist.nets();
    let mut scratch = NetTiming::default();
    let mut delay = |i: usize| {
        scratch.recompute(grid, &nets[i], assignment.net_layers(i));
        scratch.critical_delay()
    };
    // A net's bound until it is timed, then its critical delay.
    let mut key: Vec<f64> = if count == n {
        (0..n).map(&mut delay).collect()
    } else {
        let via_max = max_via_stack_resistance(grid);
        nets.iter()
            .enumerate()
            .map(|(i, net)| elmore_bound(grid, net, assignment.net_layers(i), via_max))
            .collect()
    };
    let mut order: Vec<usize> = (0..n).collect();
    if count < n {
        order.select_nth_unstable_by(count - 1, |a, b| key[*b].total_cmp(&key[*a]));
        let mut floor = f64::INFINITY;
        for &i in &order[..count] {
            key[i] = delay(i);
            floor = floor.min(key[i]);
        }
        // Keep, after the first `count`, the nets whose bound reaches
        // the floor: a net released by delay has a delay, hence a
        // bound, at or above it.
        let mut kept = count;
        for k in count..n {
            let i = order[k];
            if key[i] >= floor {
                key[i] = delay(i);
                order[kept] = i;
                kept += 1;
            }
        }
        order.truncate(kept);
    }
    // Decreasing delay, then increasing index: a total order, so taking
    // the first `count` by partial selection and sorting them yields
    // exactly the prefix of a stable descending sort of every net.
    let by_criticality = |a: &usize, b: &usize| key[*b].total_cmp(&key[*a]).then(a.cmp(b));
    if count < order.len() {
        order.select_nth_unstable_by(count - 1, by_criticality);
        order.truncate(count);
        // The release lives as long as the engine's run: hand back its
        // length, not the design-sized buffer it was chosen in.
        order.shrink_to_fit();
    }
    order.sort_unstable_by(by_criticality);
    order
}

/// The largest resistance of any via stack of `grid`, `max
/// Grid::via_stack_resistance(lo, hi)` over `lo ≤ hi`: never below 0
/// (the empty stack), and `+∞` when a via resistance is NaN. Every pair
/// is summed, not only the full stack, because a negative entry can
/// make a sub-stack the most resistive.
fn max_via_stack_resistance(grid: &Grid) -> f64 {
    let layers = grid.num_layers();
    let mut max = 0.0f64;
    for lo in 0..layers {
        for hi in lo..layers {
            let r = grid.via_stack_resistance(lo, hi);
            if r.is_nan() {
                return f64::INFINITY;
            }
            max = max.max(r);
        }
    }
    max
}

/// An upper bound on `NetTiming::compute(grid, net, layers)
/// .critical_delay()`, from one pass over the net's segments:
///
/// ```text
/// B = C · (R_drv + Σ r_s + (S + 1) · V) · (1 + BOUND_MARGIN)
/// ```
///
/// `C` is the wire capacitance of every segment on its layer plus the
/// load of every sink pin attached to the tree, `r_s` segment `s`'s wire
/// resistance, `S` the segment count and `V = via_max`, the largest
/// resistance of any via stack ([`max_via_stack_resistance`]).
///
/// Why it is a bound. With no negative load, `C` is the driver's total
/// capacitance, and every capacitance the recursion multiplies is part
/// of it: a segment's `c_s / 2` plus its downstream capacitance, the
/// smaller downstream capacitance at a via, a pin's load at its drop.
/// A sink's delay sums, along its path from the root, the driver term
/// `R_drv · C`, one wire term `r_s · (c_s / 2 + cd_s)` and one via term
/// `R(lo, hi) · min(cd)` per segment on the path, and the pin's drop
/// `R(lo, hi) · load`. So each term is a resistance times at most `C`:
/// the driver's and the path's wire resistances add up to at most
/// `R_drv + Σ r_s`, and the path has at most `S` via stacks plus one
/// drop, each at most `V`. A negative via resistance only makes its term
/// negative, and `0 ≤ V`. The critical delay is the largest sink delay,
/// or 0 with no sinks, and `B ≥ 0`.
///
/// Why the margin. The recursion and the bound round differently. Each
/// computes its real value within a relative `k · 2⁻⁵³` of the sum of
/// its terms' magnitudes, `k` about the net's segment and pin count,
/// and negative via terms only lower the delay. The real values can be
/// equal: one segment, zero via resistances and a load that swamps the
/// wire capacitance. A relative 1e-9 keeps the computed bound at or
/// above the computed delay for nets of up to about 10⁶ segments.
///
/// A negative or NaN driver resistance or load breaks the argument,
/// and a bound that is not finite compares with nothing: those nets get
/// `+∞` and are always timed.
///
/// # Panics
///
/// Panics if `layers.len() != net.tree().num_segments()` or a layer
/// index is out of range for the grid.
fn elmore_bound(grid: &Grid, net: &Net, layers: &[usize], via_max: f64) -> f64 {
    let tree = net.tree();
    assert_eq!(layers.len(), tree.num_segments());
    let mut res = net.driver_resistance;
    if res.is_nan() || res < 0.0 {
        return f64::INFINITY;
    }
    let mut cap = 0.0;
    // Every node but the root ends exactly one segment, its parent's.
    for node in tree.nodes() {
        if let Some(s) = node.parent_segment {
            let s = s as usize;
            let len = f64::from(tree.segment_length(s));
            let layer = grid.layer(layers[s]);
            cap += layer.unit_capacitance * len;
            res += layer.unit_resistance * len;
        }
        // The source pin does not load the net.
        if let Some(p) = node.pin.filter(|&p| p != 0) {
            let load = net.pins()[p as usize].capacitance;
            if load.is_nan() || load < 0.0 {
                return f64::INFINITY;
            }
            cap += load;
        }
    }
    let stacks = (tree.num_segments() + 1) as f64;
    let bound = cap * (res + stacks * via_max) * (1.0 + BOUND_MARGIN);
    if bound.is_finite() {
        bound
    } else {
        f64::INFINITY
    }
}

/// Validates a critical ratio as a configuration value.
///
/// # Errors
///
/// Returns [`ConfigError`] unless `ratio` is finite and within `0..=1`.
pub fn validate_ratio(field: &'static str, ratio: f64) -> Result<(), ConfigError> {
    if !ratio.is_finite() || !(0.0..=1.0).contains(&ratio) {
        return Err(ConfigError {
            field,
            value: format!("{ratio}"),
            reason: "must be a finite fraction in 0..=1",
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid::{Cell, Direction, GridBuilder, Layer};
    use net::{Pin, RouteTreeBuilder};

    /// Straight two-pin nets of the given lengths, one per row, on their
    /// lowest layers.
    fn fixture(lengths: &[u16]) -> (Grid, Netlist, Assignment) {
        let grid = GridBuilder::new(64, 64)
            .alternating_layers(4, Direction::Horizontal)
            .build()
            .unwrap();
        let mut nl = Netlist::new();
        for (i, &len) in lengths.iter().enumerate() {
            let y = i as u16;
            let mut b = RouteTreeBuilder::new(Cell::new(0, y));
            let e = b.add_segment(b.root(), Cell::new(len, y)).unwrap();
            b.attach_pin(b.root(), 0).unwrap();
            b.attach_pin(e, 1).unwrap();
            nl.push(Net::new(
                format!("n{i}"),
                vec![
                    Pin::source(Cell::new(0, y), 0.0),
                    Pin::sink(Cell::new(len, y), 1.0),
                ],
                b.build().unwrap(),
            ));
        }
        let a = Assignment::lowest_layers(&nl, &grid);
        (grid, nl, a)
    }

    fn select(lengths: &[u16], ratio: f64) -> Vec<usize> {
        let (g, nl, a) = fixture(lengths);
        select_critical_nets(&g, &nl, &a, ratio)
    }

    /// The selection the routine must reproduce, built from its
    /// definition: every net's `NetTiming::compute(..).critical_delay()`,
    /// a stable descending sort (equal delays keep the lower index
    /// first), then the rounded, clamped count.
    fn reference(grid: &Grid, nl: &Netlist, a: &Assignment, ratio: f64) -> Vec<usize> {
        let n = nl.len();
        if n == 0 || ratio == 0.0 {
            return Vec::new();
        }
        let mut keyed: Vec<(usize, f64)> = (0..n)
            .map(|i| {
                let t = NetTiming::compute(grid, nl.net(i), a.net_layers(i));
                (i, t.critical_delay())
            })
            .collect();
        keyed.sort_by(|x, y| y.1.total_cmp(&x.1));
        keyed.truncate(((n as f64 * ratio).round() as usize).clamp(1, n));
        keyed.into_iter().map(|(i, _)| i).collect()
    }

    #[test]
    fn selects_the_longest_nets() {
        assert_eq!(select(&[3, 30, 10, 25], 0.5), vec![1, 3]);
    }

    #[test]
    fn tiny_ratio_still_selects_one() {
        assert_eq!(select(&[3, 30, 10, 25], 0.001), vec![1]);
    }

    #[test]
    fn zero_ratio_selects_none() {
        assert!(select(&[3, 30], 0.0).is_empty());
    }

    #[test]
    fn full_ratio_selects_all() {
        assert_eq!(select(&[3, 30, 10], 1.0).len(), 3);
    }

    #[test]
    fn empty_netlist_selects_nothing_at_any_ratio() {
        assert!(select(&[], 0.0).is_empty());
        assert!(select(&[], 0.5).is_empty());
        assert!(select(&[], 1.0).is_empty());
    }

    #[test]
    fn single_net_is_selected_by_any_positive_ratio() {
        assert_eq!(select(&[7], 1e-9), vec![0]);
        assert_eq!(select(&[7], 0.5), vec![0]);
        assert_eq!(select(&[7], 1.0), vec![0]);
    }

    #[test]
    fn tied_nets_release_the_lower_index_first() {
        // Every net has the same worst-sink delay: the count honours the
        // ratio exactly and the ties resolve by index, so ratio prefixes
        // nest.
        let half = select(&[12, 12, 12, 12], 0.5);
        assert_eq!(half, vec![0, 1]);
        assert_eq!(select(&[12, 12, 12, 12], 1.0), vec![0, 1, 2, 3]);
        assert_eq!(select(&[5, 12, 5, 12, 5], 0.6), vec![1, 3, 0]);
    }

    /// A random element of `items`.
    fn pick<T: Copy>(rng: &mut prng::Rng, items: &[T]) -> T {
        items[rng.range_usize(0, items.len() - 1)]
    }

    /// A random layer of each segment's direction.
    fn random_layers(rng: &mut prng::Rng, grid: &Grid, net: &Net) -> Vec<usize> {
        net.tree()
            .segments()
            .iter()
            .map(|seg| {
                let choices: Vec<usize> = grid.layers_in_direction(seg.dir).collect();
                pick(rng, &choices)
            })
            .collect()
    }

    /// A random net on `grid`, 10 × 10: segments grown from random nodes,
    /// so nodes fan out, some split in two; sink pins on random nodes,
    /// sometimes the root in place of the source; pins on random layers,
    /// so some sit above the metal; loads from zero to ones that swamp
    /// the wire capacitance.
    fn random_net(rng: &mut prng::Rng, grid: &Grid) -> Net {
        let cell = |rng: &mut prng::Rng| Cell::new(rng.range_u16(0, 9), rng.range_u16(0, 9));
        let mut b = RouteTreeBuilder::new(cell(rng));
        let growths = rng.range_usize(1, 7);
        while b.num_nodes() < 2 || b.num_nodes() <= growths {
            let from = rng.range_usize(0, b.num_nodes() - 1);
            let at = b.node_cell(from);
            let to = cell(rng);
            let to = if rng.bool(0.5) {
                Cell::new(to.x, at.y)
            } else {
                Cell::new(at.x, to.y)
            };
            // A zero-length leg is refused; draw again.
            let _ = b.add_segment(from, to);
        }
        for _ in 0..rng.range_usize(0, 4) {
            let at = cell(rng);
            if let Some(seg) = b.find_segment_through(at) {
                b.split_segment_at(seg, at).unwrap();
            }
        }
        let root = b.root();
        let top = grid.num_layers() - 1;
        let source = Pin::source(b.node_cell(root), 1.0).on_layer(rng.range_usize(0, top));
        let mut pins = vec![source];
        if rng.bool(0.8) {
            b.attach_pin(root, 0).unwrap();
        }
        for p in 1..=rng.range_usize(1, 4) {
            let node = rng.range_usize(0, b.num_nodes() - 1);
            let load = pick(rng, &[0.0, 0.0, 0.4, 1.0, 3.0, 1e18]);
            let layer = rng.range_usize(0, top);
            pins.push(Pin::sink(b.node_cell(node), load).on_layer(layer));
            // A node holds one pin: a refused attach leaves the pin off
            // the tree, which the timing ignores.
            let _ = b.attach_pin(node, p as u32);
        }
        let mut net = Net::new("b", pins, b.build().unwrap());
        net.driver_resistance = pick(rng, &[0.0, 0.0, 0.6, 30.0]);
        net
    }

    /// A 10 × 10 grid of 2–6 alternating layers with random R and C,
    /// tiny to large, and a random via table with negative and zero
    /// entries.
    fn random_grid(rng: &mut prng::Rng) -> Grid {
        let mut builder = GridBuilder::new(10, 10);
        let layers = rng.range_usize(2, 6);
        let mut dir = Direction::Horizontal;
        for l in 0..layers {
            let r = pick(rng, &[1e-3, 0.5, 8.0]);
            let c = pick(rng, &[1e-6, 1.0, 2.5]);
            builder = builder.push_layer(Layer::new(format!("M{l}"), dir).with_rc(r, c));
            dir = dir.flipped();
        }
        let vias = (1..layers)
            .map(|_| pick(rng, &[-5.0, -0.5, 0.0, 0.0, 0.3, 2.0, 40.0]))
            .collect();
        builder.via_resistances(vias).build().unwrap()
    }

    /// [`elmore_bound`] is at least the critical delay on random nets,
    /// layers and grids, and the sweep reaches nets whose bound is
    /// within twice the margin of their delay.
    #[test]
    fn the_bound_is_at_least_the_critical_delay() {
        let mut rng = prng::Rng::seed_from_u64(0xb0_0d);
        let mut tight = 0;
        for _ in 0..300 {
            let grid = random_grid(&mut rng);
            let via_max = max_via_stack_resistance(&grid);
            assert!(via_max >= 0.0);
            for _ in 0..20 {
                let net = random_net(&mut rng, &grid);
                let layers = random_layers(&mut rng, &grid, &net);
                let delay = NetTiming::compute(&grid, &net, &layers).critical_delay();
                let bound = elmore_bound(&grid, &net, &layers, via_max);
                assert!(
                    bound >= delay,
                    "bound {bound:e} < delay {delay:e}: {net:?} on {layers:?}"
                );
                tight += usize::from(delay > 0.0 && bound - delay <= 2.0 * BOUND_MARGIN * delay);
            }
        }
        assert!(tight > 0, "no net came within the margin of its bound");
    }

    /// A negative or NaN driver resistance or load, an infinite load and
    /// a NaN via resistance all leave the net without a finite bound.
    #[test]
    fn nets_outside_the_argument_get_an_infinite_bound() {
        let (grid, nl, a) = fixture(&[6]);
        let via_max = max_via_stack_resistance(&grid);
        let bound = |net: &Net| elmore_bound(&grid, net, a.net_layers(0), via_max);
        assert!(bound(nl.net(0)).is_finite());
        for r in [-1.0, f64::NAN] {
            let mut net = nl.net(0).clone();
            net.driver_resistance = r;
            assert_eq!(bound(&net), f64::INFINITY, "driver resistance {r}");
        }
        for load in [-1.0, f64::NAN, f64::INFINITY] {
            let net = Net::new(
                "l",
                vec![nl.net(0).pins()[0], Pin::sink(Cell::new(6, 0), load)],
                nl.net(0).tree().clone(),
            );
            assert_eq!(bound(&net), f64::INFINITY, "load {load}");
        }
        let nan_via = GridBuilder::new(8, 8)
            .alternating_layers(4, Direction::Horizontal)
            .via_resistances(vec![1.0, f64::NAN, 1.0])
            .build()
            .unwrap();
        assert_eq!(max_via_stack_resistance(&nan_via), f64::INFINITY);
    }

    /// Nets whose bounds and delays are all `+∞` (an infinite load
    /// behind a driver resistance) meet an infinite floor: every net
    /// whose bound reaches it is timed, and the ties release the lower
    /// indices first, as the reference does.
    #[test]
    fn infinite_delays_tie_at_an_infinite_floor() {
        let (grid, mut nl, mut a) = fixture(&[4; 40]);
        let top = grid
            .layers_in_direction(Direction::Horizontal)
            .max()
            .unwrap();
        for i in 0..nl.len() {
            let net = nl.net(i);
            let sink = Pin::sink(net.pins()[1].cell, f64::INFINITY);
            let mut infinite = Net::new("inf", vec![net.pins()[0], sink], net.tree().clone());
            infinite.driver_resistance = 1.0;
            *nl.net_mut(i) = infinite;
            a.set_layer(i, 0, top);
        }
        let via_max = max_via_stack_resistance(&grid);
        for i in 0..nl.len() {
            assert_eq!(
                elmore_bound(&grid, nl.net(i), a.net_layers(i), via_max),
                f64::INFINITY
            );
            let t = NetTiming::compute(&grid, nl.net(i), a.net_layers(i));
            assert_eq!(t.critical_delay(), f64::INFINITY);
        }
        for ratio in [0.05, 0.25, 0.5, 0.75] {
            let got = select_critical_nets(&grid, &nl, &a, ratio);
            assert_eq!(got, reference(&grid, &nl, &a, ratio), "ratio {ratio}");
        }
    }

    /// The released list equals [`reference`] on random netlists: short
    /// straight, L-shaped and multi-sink nets with few distinct lengths
    /// and loads, zero, negative and infinite loads among them, and
    /// copies of earlier nets on their layers, on random layers and
    /// ratios. The copies make exact ties straddle the `count`-th delay.
    #[test]
    fn selection_matches_the_reference_on_random_netlists() {
        let mut rng = prng::Rng::seed_from_u64(0x5e1ec7);
        let mut tied_in_release = 0;
        let mut tied_across_the_cut = 0;
        for _ in 0..300 {
            let grid = GridBuilder::new(24, 24)
                .alternating_layers(rng.range_usize(2, 6), Direction::Horizontal)
                .build()
                .unwrap();
            let mut nl = Netlist::new();
            // Per net: the earlier net it copies, layers included.
            let mut copy_of = Vec::new();
            for i in 0..rng.range_usize(0, 60) {
                if i > 0 && rng.bool(0.3) {
                    let original = rng.range_usize(0, i - 1);
                    nl.push(nl.net(original).clone());
                    copy_of.push(Some(original));
                    continue;
                }
                let from = Cell::new(rng.range_u16(0, 11), rng.range_u16(0, 11));
                let bend = Cell::new(from.x + rng.range_u16(1, 3), from.y);
                let mut b = RouteTreeBuilder::new(from);
                let mut end = b.add_segment(b.root(), bend).unwrap();
                if rng.bool(0.5) {
                    end = b.add_segment(end, Cell::new(bend.x, bend.y + 2)).unwrap();
                }
                b.attach_pin(b.root(), 0).unwrap();
                b.attach_pin(end, 1).unwrap();
                let load = |rng: &mut prng::Rng| {
                    if rng.bool(0.9) {
                        pick(rng, &[1.0, 2.0])
                    } else {
                        pick(rng, &[0.0, -1.0, f64::INFINITY])
                    }
                };
                let mut pins = vec![
                    Pin::source(from, 0.0),
                    Pin::sink(b.node_cell(end), load(&mut rng)),
                ];
                if rng.bool(0.3) {
                    // A second sink, off the first leg's far end.
                    let branch = b.add_segment(1, Cell::new(bend.x, bend.y + 1)).unwrap();
                    b.attach_pin(branch, 2).unwrap();
                    pins.push(Pin::sink(b.node_cell(branch), load(&mut rng)));
                }
                nl.push(Net::new(format!("r{i}"), pins, b.build().unwrap()));
                copy_of.push(None);
            }
            let mut a = Assignment::lowest_layers(&nl, &grid);
            for (i, original) in copy_of.iter().enumerate() {
                let layers = match original {
                    Some(o) => a.net_layers(*o).to_vec(),
                    None => random_layers(&mut rng, &grid, nl.net(i)),
                };
                a.net_layers_mut(i).copy_from_slice(&layers);
            }
            let ratio = [0.0, 0.01, 0.1, 0.3, 0.5, 1.0][rng.range_usize(0, 5)];
            let got = select_critical_nets(&grid, &nl, &a, ratio);
            assert_eq!(got, reference(&grid, &nl, &a, ratio), "ratio {ratio}");
            let delay =
                |i: usize| NetTiming::compute(&grid, nl.net(i), a.net_layers(i)).critical_delay();
            tied_in_release += got
                .windows(2)
                .filter(|w| delay(w[0]) == delay(w[1]))
                .count();
            if let Some(&last) = got.last() {
                tied_across_the_cut += usize::from(
                    (0..nl.len()).any(|i| !got.contains(&i) && delay(i) == delay(last)),
                );
            }
        }
        assert!(tied_in_release > 0, "no release held two tied nets");
        assert!(tied_across_the_cut > 0, "no tie straddled the cut");
    }

    /// The released list equals [`reference`] on a routed Table-2 design
    /// at the engines' default ratio and at ten times it.
    #[test]
    fn selection_matches_the_reference_on_a_table2_design() {
        let config = ispd::SyntheticConfig::named("adaptec1").unwrap();
        let (mut grid, specs) = config.generate().unwrap();
        let netlist = route::route_netlist(&grid, &specs, &route::RouterConfig::default());
        let assignment = route::initial_assignment(&mut grid, &netlist);
        for ratio in [0.005, 0.05] {
            let got = select_critical_nets(&grid, &netlist, &assignment, ratio);
            assert!(!got.is_empty());
            assert_eq!(got, reference(&grid, &netlist, &assignment, ratio));
        }
    }

    /// The released list equals [`reference`] on all 15 Table-2 designs
    /// and `scale-100k`, each read through the ISPD'08 round trip as
    /// `cpla-cli optimize` reads it, routed and initially assigned, at
    /// the engines' default ratio, at 0.01 and at 0.05.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "routes the Table-2 suite and scale-100k, slow unoptimized: run with --release"
    )]
    fn selection_matches_the_reference_on_the_whole_suite() {
        let mut configs = ispd::SyntheticConfig::all_paper_benchmarks();
        configs.push(ispd::SyntheticConfig::scale("scale-100k").unwrap());
        assert_eq!(configs.len(), 16);
        for config in configs {
            let design = config.design().unwrap();
            let mut file = Vec::new();
            ispd::write(&design, &mut file).unwrap();
            let parsed = ispd::parse(std::io::BufReader::new(file.as_slice())).unwrap();
            let mut grid = parsed.to_grid().unwrap();
            let netlist =
                route::route_netlist(&grid, parsed.net_specs(), &route::RouterConfig::default());
            let assignment = route::initial_assignment(&mut grid, &netlist);
            for ratio in [0.005, 0.01, 0.05] {
                let got = select_critical_nets(&grid, &netlist, &assignment, ratio);
                let want = reference(&grid, &netlist, &assignment, ratio);
                assert_eq!(got, want, "{} at ratio {ratio}", config.name);
            }
        }
    }

    #[test]
    fn ratio_validation_rejects_out_of_range() {
        assert!(validate_ratio("critical_ratio", 0.5).is_ok());
        assert!(validate_ratio("critical_ratio", -0.1).is_err());
        assert!(validate_ratio("critical_ratio", 1.5).is_err());
        assert!(validate_ratio("critical_ratio", f64::NAN).is_err());
    }
}
