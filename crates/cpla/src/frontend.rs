//! [`LayerAssigner`] backend adapter for the CPLA engine.

use ::flow::{FlowError, FlowReport, LayerAssigner, StageObserver};
use grid::Grid;
use net::{Assignment, Netlist};

use crate::engine::{Cpla, SolverKind};

impl LayerAssigner for Cpla {
    fn name(&self) -> &'static str {
        "cpla"
    }

    fn config_description(&self) -> String {
        let c = self.config();
        let solver = match c.solver {
            SolverKind::Sdp(_) => "sdp",
            SolverKind::Ilp { .. } => "ilp",
            SolverKind::UniformRelaxation => "uniform",
        };
        format!(
            "cpla: solver={solver} ratio={} bound={} rounds<={} threads={}",
            c.critical_ratio, c.max_segments_per_partition, c.max_rounds, c.threads
        )
    }

    fn assign_observed(
        &self,
        grid: &mut Grid,
        netlist: &Netlist,
        assignment: &mut Assignment,
        observers: &mut [&mut dyn StageObserver],
    ) -> Result<FlowReport, FlowError> {
        let report = self.run_observed(grid, netlist, assignment, observers)?;
        Ok(FlowReport {
            assigner: "cpla",
            released: report.released,
            initial_metrics: report.initial_metrics,
            final_metrics: report.final_metrics,
            rounds: report.rounds.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CplaConfig;
    use route::{initial_assignment, route_netlist, RouterConfig};

    #[test]
    fn trait_dispatch_matches_direct_run() {
        let cfg = ispd::SyntheticConfig::small(11);
        let (mut g1, specs) = cfg.generate().unwrap();
        let nl = route_netlist(&g1, &specs, &RouterConfig::default());
        let mut a1 = initial_assignment(&mut g1, &nl);
        let mut g2 = g1.clone();
        let mut a2 = a1.clone();

        let engine = Cpla::new(CplaConfig {
            critical_ratio: 0.05,
            max_rounds: 2,
            ..CplaConfig::default()
        });
        let direct = engine.run(&mut g1, &nl, &mut a1).unwrap();
        let via_trait = (&engine as &dyn LayerAssigner)
            .assign(&mut g2, &nl, &mut a2)
            .unwrap();
        assert_eq!(a1, a2, "trait dispatch must not change the result");
        assert_eq!(via_trait.assigner, "cpla");
        assert_eq!(via_trait.released, direct.released);
        assert_eq!(via_trait.final_metrics, direct.final_metrics);
        assert_eq!(via_trait.rounds, direct.rounds.len());
        assert!(engine.config_description().contains("solver=sdp"));
    }
}
