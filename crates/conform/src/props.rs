//! Metamorphic workload mutations.
//!
//! Each function derives a second workload whose *relationship* to the
//! original is known even though neither optimum is: permuting net
//! labels changes nothing, loosening a non-binding capacity or adding a
//! better top layer can only help. The driver compares oracle optima
//! (and, note-only, engine results) across each pair; a violated
//! relationship is a pipeline bug by construction, with no reference
//! implementation needed.

use flow::Instance;
use net::Netlist;
use prng::Rng;

use crate::gen::{CapOverride, LayerSpec, Workload};

/// A relabeled workload plus the permutation that produced it:
/// `perm[new_index] = old_index`.
pub struct Relabeled {
    /// The permuted workload.
    pub workload: Workload,
    /// Maps each new net index back to the original index.
    pub perm: Vec<usize>,
}

/// Permutes net order and renames every net.
///
/// Timing is a per-net property and capacity usage a per-edge sum, so
/// any pipeline output that depends on the labels — rather than the
/// geometry and electrical parameters they carry — violates
/// relabel-invariance.
pub fn relabel(w: &Workload, rng: &mut Rng) -> Relabeled {
    let mut perm: Vec<usize> = (0..w.netlist.len()).collect();
    rng.shuffle(&mut perm);
    let mut netlist = Netlist::new();
    for (new_index, &old) in perm.iter().enumerate() {
        let mut net = w.netlist.net(old).clone();
        net = net::Net::new(
            format!("r{new_index}"),
            net.pins().to_vec(),
            net.tree().clone(),
        );
        net.driver_resistance = w.netlist.net(old).driver_resistance;
        netlist.push(net);
    }
    Relabeled {
        workload: Workload {
            params: w.params.clone(),
            grid_spec: w.grid_spec.clone(),
            netlist,
            critical_ratio: w.critical_ratio,
        },
        perm,
    }
}

/// Loosens one routing-edge capacity by `extra`, choosing an edge whose
/// current usage does not exceed its capacity.
///
/// The non-overflowed restriction keeps the mutation *monotone under
/// the oracle's relative feasibility rule*: the initial assignment's
/// total overflow is unchanged, so the loosened instance's feasible set
/// is a superset of the original's and its optimum can never be worse.
/// (Loosening an edge that was overflowed would lower the feasibility
/// baseline instead, which can exclude previously feasible solutions —
/// that is a property of the comparison rule, not a pipeline bug.)
///
/// Returns `None` when every edge of every layer is overflowed (not
/// observed in practice) or the grid has no layers.
pub fn loosen_capacity(
    w: &Workload,
    inst: &Instance,
    rng: &mut Rng,
    extra: u32,
) -> Option<Workload> {
    let grid = inst.grid();
    if grid.num_layers() == 0 {
        return None;
    }
    // Rejection-sample a non-overflowed edge; fall back to a scan so the
    // function is total.
    let mut candidates = Vec::new();
    for layer in 0..grid.num_layers() {
        for edge in grid.edges_in_direction(grid.layer(layer).direction) {
            if grid.edge_usage(layer, edge) <= grid.edge_capacity(layer, edge) {
                candidates.push((layer, edge));
            }
        }
    }
    if candidates.is_empty() {
        return None;
    }
    let (layer, edge) = candidates[rng.range_usize(0, candidates.len() - 1)];
    let capacity = grid.edge_capacity(layer, edge).saturating_add(extra);
    let mut grid_spec = w.grid_spec.clone();
    // Overrides apply in order, so appending wins over any earlier
    // override of the same edge.
    grid_spec.capacity_overrides.push(CapOverride {
        layer,
        x: edge.cell.x,
        y: edge.cell.y,
        capacity,
    });
    Some(Workload {
        params: w.params.clone(),
        grid_spec,
        netlist: w.netlist.clone(),
        critical_ratio: w.critical_ratio,
    })
}

/// Appends a top routing layer that continues the generator's profile:
/// alternating direction, lower resistance than every existing layer of
/// its direction, generous capacity.
///
/// Existing layers' wire capacities are untouched and a layer's via
/// capacity depends only on its *own* two incident edge capacities
/// (Eqn. 1), so every previously feasible assignment stays feasible with
/// bit-identical timing — the augmented optimum can never be worse.
pub fn augment_layer(w: &Workload) -> Workload {
    let mut grid_spec = w.grid_spec.clone();
    let l = grid_spec.layers.len();
    #[expect(
        clippy::expect_used,
        reason = "generated grids always carry >= 2 layers, so `last` and the direction flip \
                  below are well-defined"
    )]
    let last = grid_spec.layers.last().expect("grids have layers");
    let width = 1.0 + 0.5 * (l / 2) as f64;
    let capacity = w.params.capacity.max(4);
    grid_spec.layers.push(LayerSpec {
        name: format!("M{}", l + 1),
        dir: last.dir.flipped(),
        resistance: 8.0 / f64::powi(2.0, (l / 2) as i32),
        capacitance: 1.0 + 0.15 * l as f64,
        wire_width: width,
        wire_spacing: width,
        capacity,
    });
    if let Some(table) = &mut grid_spec.via_resistances {
        #[expect(
            clippy::expect_used,
            reason = "an explicit table always has layers-1 >= 1 entries"
        )]
        let r = *table.last().expect("non-empty via table");
        table.push(r);
    }
    Workload {
        params: w.params.clone(),
        grid_spec,
        netlist: w.netlist.clone(),
        critical_ratio: w.critical_ratio,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenParams};
    use crate::oracle;

    fn oracle_workload(trial: u64) -> Workload {
        // Even trials are oracle-sized.
        let mut rng = Rng::seed_from_u64(21).fork(trial);
        let p = GenParams::lattice(trial, &mut rng);
        generate(&p, &mut rng)
    }

    #[test]
    fn relabel_preserves_per_net_delays_bitwise() {
        let w = oracle_workload(0);
        let mut rng = Rng::seed_from_u64(99);
        let r = relabel(&w, &mut rng);
        let a = w.instance().unwrap();
        let b = r.workload.instance().unwrap();
        let ra = timing::analyze(a.grid(), a.netlist(), a.assignment());
        let rb = timing::analyze(b.grid(), b.netlist(), b.assignment());
        for (new_index, &old) in r.perm.iter().enumerate() {
            assert_eq!(
                rb.net(new_index).critical_delay().to_bits(),
                ra.net(old).critical_delay().to_bits(),
                "net {old} delay changed under relabeling"
            );
        }
    }

    #[test]
    fn loosening_never_worsens_the_oracle() {
        for trial in [0u64, 2, 4, 6] {
            let w = oracle_workload(trial);
            let inst = w.instance().unwrap();
            let released = w.released().unwrap();
            let Some(base) = oracle::solve(&inst, &released, 1 << 16) else {
                continue;
            };
            let mut rng = Rng::seed_from_u64(5).fork(trial);
            let Some(loose) = loosen_capacity(&w, &inst, &mut rng, 2) else {
                continue;
            };
            let li = loose.instance().unwrap();
            let lr = loose.released().unwrap();
            let Some(after) = oracle::solve(&li, &lr, 1 << 16) else {
                continue;
            };
            assert!(
                after.best_avg_tcp <= base.best_avg_tcp * (1.0 + 1e-12) + 1e-12,
                "trial {trial}: loosening worsened {} -> {}",
                base.best_avg_tcp,
                after.best_avg_tcp
            );
        }
    }

    #[test]
    fn layer_augmentation_never_worsens_the_oracle() {
        for trial in [0u64, 2, 4] {
            let w = oracle_workload(trial);
            let inst = w.instance().unwrap();
            let released = w.released().unwrap();
            let Some(base) = oracle::solve(&inst, &released, 1 << 16) else {
                continue;
            };
            let aug = augment_layer(&w);
            let ai = aug.instance().unwrap();
            let ar = aug.released().unwrap();
            let Some(after) = oracle::solve(&ai, &ar, 1 << 20) else {
                continue;
            };
            assert!(
                after.best_avg_tcp <= base.best_avg_tcp * (1.0 + 1e-12) + 1e-12,
                "trial {trial}: augmentation worsened {} -> {}",
                base.best_avg_tcp,
                after.best_avg_tcp
            );
        }
    }
}
