//! The iterative CPLA engine.
//!
//! Each round: freeze downstream capacitances from the current
//! assignment, partition the released segments (§3.2), solve every
//! partition independently (SDP relaxation + post-mapping, or the exact
//! branch-and-bound ILP), accept per-partition solutions that lower the
//! partition objective, and re-time. Rounds repeat until the average
//! critical-path delay stops improving (the paper's "stops when no
//! further optimizations can be achieved").
//!
//! The per-round work is organized as an explicit stage pipeline (see
//! the [`flow`](crate::flow) module): [`Cpla::run`] validates its
//! inputs, selects the released nets, and hands the round loop to the
//! stage driver. Instrumentation attaches through
//! [`StageObserver`](::flow::StageObserver) hooks rather than engine
//! branches — [`PipelineStats`] is collected by one such observer.

use grid::Grid;
use net::{Assignment, Netlist};
use solver::SdpSolver;

use crate::partition::PartitionStats;
use crate::Metrics;
use ::flow::{ConfigError, FlowError, StageObserver};

/// Which mathematical program solves each partition.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum SolverKind {
    /// The SDP relaxation (5)–(7) plus post-mapping — the paper's
    /// production configuration.
    Sdp(SdpSolver),
    /// The exact ILP (4) by branch-and-bound with a node budget — the
    /// paper's quality reference (Fig. 7).
    Ilp {
        /// Branch-and-bound node budget per partition.
        node_budget: u64,
    },
    /// Ablation control: skip the SDP and feed *uniform* relaxation
    /// values into post-mapping, so the rounding is driven purely by
    /// capacity structure and tie-breaking. Comparing against
    /// [`SolverKind::Sdp`] isolates how much the relaxation's ranking
    /// actually contributes.
    UniformRelaxation,
}

/// Engine configuration.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CplaConfig {
    /// Fraction of nets released as critical (paper default 0.5%).
    pub critical_ratio: f64,
    /// Self-adaptive partition bound (paper default 10; Fig. 8 sweeps
    /// 5–80).
    pub max_segments_per_partition: usize,
    /// K of the initial uniform K×K division.
    pub uniform_divisions: usize,
    /// Maximum outer rounds.
    pub max_rounds: usize,
    /// Per-partition solver.
    pub solver: SolverKind,
    /// Problem-extraction tunables.
    pub problem: crate::problem::ProblemConfig,
    /// Overflow weight α (units of the partition's mean segment delay
    /// per overflow wire) used when comparing mapped solutions — the
    /// role the paper's α = 2000 plays in its `V_o` relaxation.
    pub alpha: f64,
    /// Incumbent overflow price: units of the *input state's* average
    /// critical-path delay charged per unit of wire/via overflow a
    /// round adds beyond the input. This is the Measure-stage
    /// realization of the paper's `α·V_o` relaxation of constraint
    /// (4d): overflow is not a hard wall (a dominant delay win may pay
    /// for a unit of congestion), but it is priced steeply enough that
    /// gratuitous overflow — e.g. via stacks punched through a
    /// zero-capacity layer — never pays for itself.
    pub overflow_price: f64,
    /// Criticality exponent: sink `k` weighs `(delay_k/delay_max)^focus`
    /// in the objective. 0 degenerates to TILA's uniform sum; larger
    /// values concentrate on the critical paths.
    pub focus: f64,
    /// Also release *non-critical* segments that share routing edges
    /// with the critical set (the CPLA problem statement re-assigns
    /// "critical and non-critical nets"). Their delays enter the
    /// objective scaled by [`CplaConfig::neighbor_weight`], so the
    /// solver may demote them off premium layers when that frees
    /// capacity a critical path needs.
    pub release_neighbors: bool,
    /// Objective weight of neighbor (non-critical) segments relative to
    /// critical ones.
    pub neighbor_weight: f64,
    /// Worker threads for partition solving.
    pub threads: usize,
    /// Shards for the Partition stage's top-level K×K block grid: each
    /// shard buckets and quadtree-refines its share of the blocks on its
    /// own thread, with per-shard ledgers merged through the serial leaf
    /// sort. `0` (the default) follows [`CplaConfig::threads`]. Results
    /// are identical for every shard count.
    pub partition_shards: usize,
    /// Re-verify the paper's constraints (4b/4c/4d) and the incremental
    /// Elmore caches against from-scratch recomputation at every gate,
    /// failing the run with [`FlowError::Invariant`](::flow::FlowError)
    /// on any drift. Costly; meant for CI and debugging, off by default.
    pub audit_invariants: bool,
    /// Enable per-span allocation accounting for the duration of the
    /// run (scoped via [`obs::alloc`]). Only meaningful when the hosting
    /// binary installs [`obs::CountingAlloc`] as its global allocator —
    /// otherwise the switch is a harmless no-op. Off by default.
    pub alloc_stats: bool,
}

impl Default for CplaConfig {
    fn default() -> CplaConfig {
        CplaConfig {
            critical_ratio: 0.005,
            max_segments_per_partition: 10,
            uniform_divisions: 4,
            max_rounds: 10,
            // Post-mapping only *ranks* the relaxed diagonal entries, so
            // the production engine runs the ADMM solver at a looser
            // tolerance than the library default.
            solver: SolverKind::Sdp(SdpSolver {
                max_iterations: 200,
                tolerance: 1e-4,
                // Stop once the diagonal ordering has been stable for
                // two consecutive samples.
                rank_stop_window: 2,
                ..SdpSolver::default()
            }),
            problem: crate::problem::ProblemConfig::default(),
            alpha: 20.0,
            overflow_price: 0.5,
            focus: 4.0,
            release_neighbors: false,
            neighbor_weight: 0.2,
            threads: 1,
            partition_shards: 0,
            audit_invariants: false,
            alloc_stats: false,
        }
    }
}

impl CplaConfig {
    /// Checks every field the engine cannot tolerate, before any work.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] naming the first offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        ::flow::validate_ratio("critical_ratio", self.critical_ratio)?;
        if self.uniform_divisions == 0 {
            return Err(ConfigError {
                field: "uniform_divisions",
                value: "0".into(),
                reason: "the initial division needs at least one cut per axis",
            });
        }
        if self.max_segments_per_partition == 0 {
            return Err(ConfigError {
                field: "max_segments_per_partition",
                value: "0".into(),
                reason: "partitions must be allowed to hold at least one segment",
            });
        }
        if !self.alpha.is_finite() || self.alpha < 0.0 {
            return Err(ConfigError {
                field: "alpha",
                value: format!("{}", self.alpha),
                reason: "the overflow weight must be finite and non-negative",
            });
        }
        if !self.overflow_price.is_finite() || self.overflow_price < 0.0 {
            return Err(ConfigError {
                field: "overflow_price",
                value: format!("{}", self.overflow_price),
                reason: "the incumbent overflow price must be finite and non-negative",
            });
        }
        if !self.focus.is_finite() || self.focus < 0.0 {
            return Err(ConfigError {
                field: "focus",
                value: format!("{}", self.focus),
                reason: "the criticality exponent must be finite and non-negative",
            });
        }
        if !self.neighbor_weight.is_finite() || self.neighbor_weight < 0.0 {
            return Err(ConfigError {
                field: "neighbor_weight",
                value: format!("{}", self.neighbor_weight),
                reason: "the neighbor objective weight must be finite and non-negative",
            });
        }
        Ok(())
    }
}

/// Per-round progress record.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RoundStats {
    /// 1-based round number.
    pub round: usize,
    /// `Avg(T_cp)` after the round.
    pub avg_tcp: f64,
    /// `Max(T_cp)` after the round.
    pub max_tcp: f64,
    /// Partitions solved.
    pub partitions: usize,
    /// Whether the round improved the average.
    pub improved: bool,
    /// Total wire overflow of the grid after the round.
    pub wire_overflow: u64,
    /// Total via overflow (`OV#`) of the grid after the round.
    pub via_overflow: u64,
}

/// Work counters for one engine run.
///
/// `cpla-bench` serializes this as JSON; the counters are what make the
/// incremental pipeline's savings auditable (cache hit rate, gate
/// outcomes, objective evaluations). Collected by an internal
/// [`StageObserver`](::flow::StageObserver) riding the stage driver.
/// Wall times are the stage spans' business: every observer sees each
/// stage's seconds in `on_stage_end`.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct PipelineStats {
    /// Rounds executed.
    pub rounds: usize,
    /// Partitions solved from scratch (cache misses).
    pub partitions_solved: usize,
    /// Partitions whose cached result was reused (cache hits).
    pub partitions_reused: usize,
    /// Entries resident in the cross-round partition cache at the end
    /// of the last round (one per partition solved in the run).
    pub cache_entries: usize,
    /// Partition-objective evaluations performed.
    pub evaluations: u64,
    /// Nets whose proposals passed the incremental timing gate.
    pub gate_accepted: usize,
    /// Nets whose proposals the gate rejected.
    pub gate_rejected: usize,
    /// Partition solves warm-started from a stale cache entry's ADMM
    /// iterates.
    pub warm_starts: usize,
}

impl PipelineStats {
    /// Fraction of partition solves avoided by the cross-round cache.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.partitions_solved + self.partitions_reused;
        if total == 0 {
            0.0
        } else {
            self.partitions_reused as f64 / total as f64
        }
    }
}

/// Result of a full CPLA run.
#[derive(Clone, PartialEq, Debug)]
pub struct CplaReport {
    /// Indices of the released nets (most critical first).
    pub released: Vec<usize>,
    /// Metrics before optimization.
    pub initial_metrics: Metrics,
    /// Metrics of the best accepted state.
    pub final_metrics: Metrics,
    /// Per-round history.
    pub rounds: Vec<RoundStats>,
    /// Partitioning statistics of the first round.
    pub partition_stats: PartitionStats,
    /// Pipeline instrumentation for the whole run.
    pub stats: PipelineStats,
}

/// The CPLA engine. Construct with a config, then [`Cpla::run`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Cpla {
    config: CplaConfig,
}

impl Cpla {
    /// Creates an engine.
    pub fn new(config: CplaConfig) -> Cpla {
        Cpla { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &CplaConfig {
        &self.config
    }

    /// Runs incremental layer assignment in place.
    ///
    /// `grid` usage must reflect `assignment` on entry and does so on
    /// exit. Critical nets are selected once from the entry timing; the
    /// same released set is optimized every round (and is the released
    /// set a TILA comparison should use).
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Config`] for an invalid configuration,
    /// [`FlowError::Input`] when the assignment does not match the
    /// netlist, and [`FlowError::Solve`] when a partition program fails.
    pub fn run(
        &self,
        grid: &mut Grid,
        netlist: &Netlist,
        assignment: &mut Assignment,
    ) -> Result<CplaReport, FlowError> {
        self.run_observed(grid, netlist, assignment, &mut [])
    }

    /// [`Cpla::run`] with [`StageObserver`]s attached to the stage
    /// driver.
    ///
    /// # Errors
    ///
    /// See [`Cpla::run`].
    pub fn run_observed(
        &self,
        grid: &mut Grid,
        netlist: &Netlist,
        assignment: &mut Assignment,
        observers: &mut [&mut dyn StageObserver],
    ) -> Result<CplaReport, FlowError> {
        self.config.validate()?;
        let released =
            ::flow::select_critical_nets(grid, netlist, assignment, self.config.critical_ratio);
        let arena = net::DesignArena::from_netlist(netlist);
        self.run_with_arena(grid, netlist, assignment, &released, Some(arena), observers)
    }

    /// [`Cpla::run`] with an explicit released set (used for
    /// apples-to-apples comparisons against TILA).
    ///
    /// # Errors
    ///
    /// Additionally returns [`FlowError::Input`] when a released index
    /// is out of range.
    pub fn run_released(
        &self,
        grid: &mut Grid,
        netlist: &Netlist,
        assignment: &mut Assignment,
        released: &[usize],
    ) -> Result<CplaReport, FlowError> {
        self.run_released_observed(grid, netlist, assignment, released, &mut [])
    }

    /// [`Cpla::run_released`] with [`StageObserver`]s attached.
    ///
    /// # Errors
    ///
    /// See [`Cpla::run_released`].
    pub fn run_released_observed(
        &self,
        grid: &mut Grid,
        netlist: &Netlist,
        assignment: &mut Assignment,
        released: &[usize],
        observers: &mut [&mut dyn StageObserver],
    ) -> Result<CplaReport, FlowError> {
        self.run_with_arena(grid, netlist, assignment, released, None, observers)
    }

    /// Validates, then drives the stage pipeline over `released`,
    /// reusing `arena` (the design's flat id layout) when the caller
    /// already built one.
    fn run_with_arena(
        &self,
        grid: &mut Grid,
        netlist: &Netlist,
        assignment: &mut Assignment,
        released: &[usize],
        arena: Option<net::DesignArena>,
        observers: &mut [&mut dyn StageObserver],
    ) -> Result<CplaReport, FlowError> {
        self.config.validate()?;
        ::flow::validate_input(netlist, assignment, released)?;
        if released.is_empty() {
            let initial_metrics = Metrics::measure(grid, netlist, assignment, released);
            return Ok(CplaReport {
                released: Vec::new(),
                initial_metrics,
                final_metrics: initial_metrics,
                rounds: Vec::new(),
                partition_stats: PartitionStats::default(),
                stats: PipelineStats::default(),
            });
        }
        let arena = arena.unwrap_or_else(|| net::DesignArena::from_netlist(netlist));
        crate::flow::drive(
            self.config,
            grid,
            netlist,
            assignment,
            released,
            arena,
            observers,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ::flow::{RoundSnapshot, Stage};
    use grid::{Cell, Direction, GridBuilder};
    use net::{NetSpec, Pin};
    use route::{initial_assignment, route_netlist, RouterConfig};

    fn fixture(seed: u64) -> (Grid, Netlist, Assignment) {
        let cfg = ispd::SyntheticConfig::small(seed);
        let (mut grid, specs) = cfg.generate().unwrap();
        let netlist = route_netlist(&grid, &specs, &RouterConfig::default());
        let assignment = initial_assignment(&mut grid, &netlist);
        (grid, netlist, assignment)
    }

    #[test]
    fn sdp_flow_improves_avg_tcp() {
        let (mut grid, nl, mut a) = fixture(3);
        let config = CplaConfig {
            critical_ratio: 0.05,
            max_rounds: 3,
            ..CplaConfig::default()
        };
        let report = Cpla::new(config).run(&mut grid, &nl, &mut a).unwrap();
        assert!(!report.released.is_empty());
        assert!(
            report.final_metrics.avg_tcp <= report.initial_metrics.avg_tcp,
            "{} > {}",
            report.final_metrics.avg_tcp,
            report.initial_metrics.avg_tcp
        );
        a.validate(&nl, &grid).unwrap();
    }

    #[test]
    fn ilp_flow_improves_avg_tcp() {
        let (mut grid, nl, mut a) = fixture(4);
        let config = CplaConfig {
            critical_ratio: 0.05,
            max_rounds: 2,
            solver: SolverKind::Ilp {
                node_budget: 200_000,
            },
            ..CplaConfig::default()
        };
        let report = Cpla::new(config).run(&mut grid, &nl, &mut a).unwrap();
        assert!(report.final_metrics.avg_tcp <= report.initial_metrics.avg_tcp);
        a.validate(&nl, &grid).unwrap();
    }

    /// `SyntheticConfig::small(seed)` at wire capacity `cap`, with every
    /// net moved to the top (`lift`) or bottom layer of each segment's
    /// direction so the input carries via or wire overflow.
    fn congested_fixture(seed: u64, cap: u32, lift: bool) -> (Grid, Netlist, Assignment) {
        let cfg = ispd::SyntheticConfig {
            capacity: cap,
            ..ispd::SyntheticConfig::small(seed)
        };
        let (mut grid, specs) = cfg.generate().unwrap();
        let netlist = route_netlist(&grid, &specs, &RouterConfig::default());
        let mut assignment = initial_assignment(&mut grid, &netlist);
        for i in 0..netlist.len() {
            let moved: Vec<usize> = assignment
                .net_layers(i)
                .iter()
                .map(|&l| {
                    let mut same_dir = grid.layers_in_direction(grid.layer(l).direction);
                    if lift {
                        same_dir.last().unwrap()
                    } else {
                        same_dir.next().unwrap()
                    }
                })
                .collect();
            net::remove_net_from_grid(&mut grid, netlist.net(i), assignment.net_layers(i));
            net::restore_net_to_grid(&mut grid, netlist.net(i), &moved);
            assignment.set_net_layers(i, moved);
        }
        (grid, netlist, assignment)
    }

    /// Every round records the grid's overflow totals after it. The run
    /// ends on the incumbent, so the final grid carries the totals of the
    /// last improving round, or the input's when no round improved.
    #[test]
    fn final_overflow_is_the_last_improving_rounds() {
        let (mut none_improved, mut moved) = (0, 0);
        for (seed, cap, lift) in [(3, 3, false), (42, 4, true), (42, 3, true), (6, 3, true)] {
            let (mut grid, nl, mut a) = congested_fixture(seed, cap, lift);
            let input = (grid.total_wire_overflow(), grid.total_via_overflow());
            let config = CplaConfig {
                critical_ratio: 0.05,
                max_rounds: 4,
                ..CplaConfig::default()
            };
            let report = Cpla::new(config).run(&mut grid, &nl, &mut a).unwrap();
            let expected = report
                .rounds
                .iter()
                .rev()
                .find(|r| r.improved)
                .map_or(input, |r| (r.wire_overflow, r.via_overflow));
            let last = (grid.total_wire_overflow(), grid.total_via_overflow());
            assert_eq!(last, expected, "seed {seed} cap {cap}: {:?}", report.rounds);
            assert_eq!(report.final_metrics.via_overflow, last.1);
            none_improved += usize::from(report.rounds.iter().all(|r| !r.improved));
            moved += usize::from(last != input);
        }
        assert!(
            none_improved > 0 && moved > 0,
            "fixtures must cover a run with no improving round ({none_improved}) \
             and one that moves the overflow ({moved})"
        );
    }

    #[test]
    fn grid_usage_stays_consistent_after_run() {
        let (mut grid, nl, mut a) = fixture(5);
        let config = CplaConfig {
            critical_ratio: 0.05,
            max_rounds: 2,
            ..CplaConfig::default()
        };
        Cpla::new(config).run(&mut grid, &nl, &mut a).unwrap();
        let mut fresh = grid.clone();
        for i in 0..nl.len() {
            net::remove_net_from_grid(&mut fresh, nl.net(i), a.net_layers(i));
        }
        for i in 0..nl.len() {
            net::restore_net_to_grid(&mut fresh, nl.net(i), a.net_layers(i));
        }
        assert_eq!(fresh, grid);
    }

    #[test]
    fn parallel_matches_serial() {
        let (mut g1, nl1, mut a1) = fixture(6);
        let (mut g2, nl2, mut a2) = fixture(6);
        let serial = CplaConfig {
            critical_ratio: 0.05,
            max_rounds: 2,
            threads: 1,
            ..CplaConfig::default()
        };
        let parallel = CplaConfig {
            threads: 4,
            ..serial
        };
        Cpla::new(serial).run(&mut g1, &nl1, &mut a1).unwrap();
        Cpla::new(parallel).run(&mut g2, &nl2, &mut a2).unwrap();
        assert_eq!(a1, a2, "thread count must not change the result");
    }

    #[test]
    fn incremental_pipeline_caches_and_instruments() {
        let (mut grid, nl, mut a) = fixture(3);
        // Release enough nets that some partitions sit outside any
        // accepted change between same-offset rounds — those recur
        // identically and must come out of the cache.
        let config = CplaConfig {
            critical_ratio: 0.2,
            max_rounds: 10,
            ..CplaConfig::default()
        };
        let report = Cpla::new(config).run(&mut grid, &nl, &mut a).unwrap();
        let s = &report.stats;
        assert_eq!(s.rounds, report.rounds.len());
        assert!(s.partitions_solved > 0);
        assert!(
            s.partitions_reused > 0,
            "alternating offsets must make partitions recur: {s:?}"
        );
        assert!(s.cache_hit_rate() > 0.0 && s.cache_hit_rate() < 1.0);
        assert!(s.evaluations > 0);
    }

    #[test]
    fn a_run_leaves_a_valid_assignment() {
        let (mut grid, nl, mut a) = fixture(9);
        let config = CplaConfig {
            critical_ratio: 0.05,
            max_rounds: 2,
            ..CplaConfig::default()
        };
        let report = Cpla::new(config).run(&mut grid, &nl, &mut a).unwrap();
        assert!(report.final_metrics.avg_tcp <= report.initial_metrics.avg_tcp);
        a.validate(&nl, &grid).unwrap();
    }

    #[test]
    fn empty_released_set_is_a_no_op() {
        let (mut grid, nl, mut a) = fixture(7);
        let before = a.clone();
        let report = Cpla::new(CplaConfig::default())
            .run_released(&mut grid, &nl, &mut a, &[])
            .unwrap();
        assert_eq!(a, before);
        assert!(report.rounds.is_empty());
    }

    #[test]
    fn invalid_config_is_a_typed_error() {
        let (mut grid, nl, mut a) = fixture(7);
        let config = CplaConfig {
            critical_ratio: 1.5,
            ..CplaConfig::default()
        };
        let err = Cpla::new(config).run(&mut grid, &nl, &mut a).unwrap_err();
        match err {
            FlowError::Config(c) => assert_eq!(c.field, "critical_ratio"),
            other => panic!("expected a config error, got {other}"),
        }
        assert!(CplaConfig {
            uniform_divisions: 0,
            ..CplaConfig::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn out_of_range_release_is_a_typed_error() {
        let (mut grid, nl, mut a) = fixture(7);
        let err = Cpla::new(CplaConfig::default())
            .run_released(&mut grid, &nl, &mut a, &[nl.len()])
            .unwrap_err();
        assert!(matches!(err, FlowError::Input(_)), "{err}");
    }

    /// Records every observer callback so tests can assert the driver's
    /// stage protocol.
    #[derive(Default)]
    struct Recorder {
        starts: Vec<(usize, Stage)>,
        ends: Vec<(usize, Stage)>,
        rounds: Vec<RoundSnapshot>,
    }

    impl ::flow::StageObserver for Recorder {
        fn on_stage_start(&mut self, round: usize, stage: Stage) {
            self.starts.push((round, stage));
        }
        fn on_stage_end(&mut self, round: usize, stage: Stage, seconds: f64) {
            assert!(seconds >= 0.0);
            self.ends.push((round, stage));
        }
        fn on_round_end(&mut self, snapshot: &RoundSnapshot) {
            self.rounds.push(*snapshot);
        }
    }

    #[test]
    fn observers_see_every_stage_in_order() {
        let (mut grid, nl, mut a) = fixture(3);
        let config = CplaConfig {
            critical_ratio: 0.05,
            max_rounds: 3,
            ..CplaConfig::default()
        };
        let mut rec = Recorder::default();
        let report = Cpla::new(config)
            .run_observed(&mut grid, &nl, &mut a, &mut [&mut rec])
            .unwrap();
        assert_eq!(rec.rounds.len(), report.rounds.len());
        assert_eq!(rec.starts.len(), rec.ends.len());
        assert_eq!(rec.starts.len(), 8 * report.rounds.len());
        // Each round walks the full eight-stage pipeline in order.
        for (r, chunk) in rec.starts.chunks(8).enumerate() {
            let stages: Vec<Stage> = chunk.iter().map(|&(_, s)| s).collect();
            assert_eq!(stages, Stage::ALL.to_vec());
            assert!(chunk.iter().all(|&(round, _)| round == r + 1));
        }
        // The snapshot counters agree with the report's stats.
        let last = rec.rounds.last().unwrap();
        assert_eq!(
            last.counters.partitions_solved,
            report.stats.partitions_solved
        );
        assert_eq!(last.counters.evaluations, report.stats.evaluations);
    }

    #[test]
    fn neighbor_release_demotes_blocking_net() {
        // Capacity 1 per layer: a short non-critical net parked on the
        // top horizontal layer blocks the long critical net's promotion
        // unless neighbor release may demote it.
        let mut grid = GridBuilder::new(32, 4)
            .alternating_layers(6, Direction::Horizontal)
            .uniform_capacity(1)
            .build()
            .unwrap();
        let specs = vec![
            NetSpec::new(
                "critical",
                vec![
                    Pin::source(Cell::new(0, 1), 0.0),
                    Pin::sink(Cell::new(30, 1), 4.0),
                ],
            ),
            NetSpec::new(
                "blocker",
                vec![
                    Pin::source(Cell::new(8, 1), 0.0),
                    Pin::sink(Cell::new(14, 1), 0.5),
                ],
            ),
        ];
        let nl = route_netlist(&grid, &specs, &RouterConfig::default());
        let mut a = initial_assignment(&mut grid, &nl);
        // Park the blocker on the top horizontal layer (4) explicitly.
        net::remove_net_from_grid(&mut grid, nl.net(1), a.net_layers(1));
        a.set_net_layers(1, vec![4]);
        net::restore_net_to_grid(&mut grid, nl.net(1), a.net_layers(1));
        // And the critical net on the bottom.
        net::remove_net_from_grid(&mut grid, nl.net(0), a.net_layers(0));
        a.set_net_layers(0, vec![0]);
        net::restore_net_to_grid(&mut grid, nl.net(0), a.net_layers(0));

        let run = |neighbors: bool, grid: &mut Grid, a: &mut Assignment| {
            Cpla::new(CplaConfig {
                release_neighbors: neighbors,
                ..CplaConfig::default()
            })
            .run_released(grid, &nl, a, &[0])
            .unwrap()
            .final_metrics
            .avg_tcp
        };
        let mut g1 = grid.clone();
        let mut a1 = a.clone();
        let without = run(false, &mut g1, &mut a1);
        let mut g2 = grid.clone();
        let mut a2 = a.clone();
        let with = run(true, &mut g2, &mut a2);
        assert!(
            with < without,
            "neighbor release must unlock the blocked promotion: \
             {with} vs {without}"
        );
        // The blocker was demoted off layer 4.
        assert_ne!(a2.net_layers(1), &[4]);
        a2.validate(&nl, &g2).unwrap();
    }

    #[test]
    fn single_long_net_gets_promoted() {
        let mut grid = GridBuilder::new(32, 8)
            .alternating_layers(6, Direction::Horizontal)
            .uniform_capacity(10)
            .build()
            .unwrap();
        let specs = vec![NetSpec::new(
            "long",
            vec![
                Pin::source(Cell::new(0, 4), 0.0),
                Pin::sink(Cell::new(30, 4), 4.0),
            ],
        )];
        let nl = route_netlist(&grid, &specs, &RouterConfig::default());
        let mut a = initial_assignment(&mut grid, &nl);
        let config = CplaConfig {
            critical_ratio: 1.0,
            ..CplaConfig::default()
        };
        let report = Cpla::new(config).run(&mut grid, &nl, &mut a).unwrap();
        assert!(a.net_layers(0)[0] >= 2, "stayed on {:?}", a.net_layers(0));
        assert!(report.final_metrics.avg_tcp < report.initial_metrics.avg_tcp);
    }
}
