//! Critical-net selection, shared by every backend.

use grid::Grid;
use net::{Assignment, Netlist};
use timing::NetTiming;

use crate::ConfigError;

/// Selects the `ratio` most critical nets of the design: those with the
/// largest worst-sink Elmore delay under `assignment`.
///
/// `ratio` is a fraction of the net count (the paper's "critical
/// ratio": 0.005 releases 0.5% of nets). At least one net is selected
/// whenever the netlist is non-empty and `ratio > 0`. Returned indices
/// are sorted by decreasing critical delay, and equal delays release
/// the lower net index first.
///
/// One pass times every net with [`NetTiming`]'s recursion into a single
/// reused scratch and keeps only each net's critical delay, so the
/// selection allocates two design-sized vectors and nothing per net.
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
    let mut scratch = NetTiming::default();
    let critical: Vec<f64> = netlist
        .nets()
        .iter()
        .enumerate()
        .map(|(i, net)| {
            scratch.recompute(grid, net, assignment.net_layers(i));
            scratch.critical_delay()
        })
        .collect();
    // Decreasing delay, then increasing index: a total order, so taking
    // the first `count` by partial selection and sorting them yields
    // exactly the prefix of a stable descending sort of every net.
    let by_criticality =
        |a: &usize, b: &usize| critical[*b].total_cmp(&critical[*a]).then(a.cmp(b));
    let mut order: Vec<usize> = (0..n).collect();
    if count < n {
        order.select_nth_unstable_by(count - 1, by_criticality);
        order.truncate(count);
    }
    order.sort_unstable_by(by_criticality);
    order
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
    use grid::{Cell, Direction, GridBuilder};
    use net::{Net, Pin, RouteTreeBuilder};

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

    /// The released list equals [`reference`] on random netlists — short
    /// straight and L-shaped nets with few distinct lengths and pin
    /// loads, so many delays tie — on random layers and ratios.
    #[test]
    fn selection_matches_the_reference_on_random_netlists() {
        let mut rng = prng::Rng::seed_from_u64(0x5e1ec7);
        let mut tied_in_release = 0;
        for _ in 0..200 {
            let grid = GridBuilder::new(24, 24)
                .alternating_layers(rng.range_usize(2, 6), Direction::Horizontal)
                .build()
                .unwrap();
            let mut nl = Netlist::new();
            for i in 0..rng.range_usize(0, 60) {
                let from = Cell::new(rng.range_u16(0, 11), rng.range_u16(0, 11));
                let bend = Cell::new(from.x + rng.range_u16(1, 3), from.y);
                let mut b = RouteTreeBuilder::new(from);
                let mut end = b.add_segment(b.root(), bend).unwrap();
                if rng.bool(0.5) {
                    end = b.add_segment(end, Cell::new(bend.x, bend.y + 2)).unwrap();
                }
                let sink = b.node_cell(end);
                b.attach_pin(b.root(), 0).unwrap();
                b.attach_pin(end, 1).unwrap();
                let load = [1.0, 2.0][rng.range_usize(0, 1)];
                nl.push(Net::new(
                    format!("r{i}"),
                    vec![Pin::source(from, 0.0), Pin::sink(sink, load)],
                    b.build().unwrap(),
                ));
            }
            let mut a = Assignment::lowest_layers(&nl, &grid);
            for i in 0..nl.len() {
                for s in 0..nl.net(i).tree().num_segments() {
                    let dir = nl.net(i).tree().segment(s).dir;
                    let choices: Vec<usize> = grid.layers_in_direction(dir).collect();
                    a.set_layer(i, s, choices[rng.range_usize(0, choices.len() - 1)]);
                }
            }
            let ratio = [0.0, 0.01, 0.1, 0.3, 0.5, 1.0][rng.range_usize(0, 5)];
            let got = select_critical_nets(&grid, &nl, &a, ratio);
            assert_eq!(got, reference(&grid, &nl, &a, ratio), "ratio {ratio}");
            let delay = |i: usize| NetTiming::compute(&grid, nl.net(i), a.net_layers(i));
            tied_in_release += got
                .windows(2)
                .filter(|w| delay(w[0]).critical_delay() == delay(w[1]).critical_delay())
                .count();
        }
        assert!(tied_in_release > 0, "no release held two tied nets");
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

    #[test]
    fn ratio_validation_rejects_out_of_range() {
        assert!(validate_ratio("critical_ratio", 0.5).is_ok());
        assert!(validate_ratio("critical_ratio", -0.1).is_err());
        assert!(validate_ratio("critical_ratio", 1.5).is_err());
        assert!(validate_ratio("critical_ratio", f64::NAN).is_err());
    }
}
