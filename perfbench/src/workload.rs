//! The benchmark's workloads: which designs run, through which
//! assigners, at how many threads.
//!
//! Every assigner is built exactly as `cpla-cli optimize` builds it with
//! default flags: critical ratio 0.5%, the default CPLA engine (SDP,
//! incremental, per-leaf Solve), and only `--threads` changed.

use cpla::{Cpla, CplaConfig};
use flow::{Greedy, GreedyConfig, LayerAssigner};
use ispd::SyntheticConfig;
use lagrange::{Lagrange, LagrangeConfig};
use tila::{Tila, TilaConfig};

/// Critical ratio of every workload (the CLI default, `--ratio 0.005`).
pub const CRITICAL_RATIO: f64 = 0.005;

/// Names accepted by [`Workload::named`], in the order they are listed.
pub const WORKLOAD_NAMES: [&str; 3] = ["table2", "scale-100k", "baselines"];

/// One layer-assignment backend of a workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Backend {
    /// The CPLA engine at its defaults with the given thread count.
    Cpla { threads: usize },
    /// The TILA Lagrangian baseline.
    Tila,
    /// The subgradient Lagrangian dual-ascent engine.
    Lagrange,
    /// The one-pass greedy longest-path baseline.
    Greedy,
}

impl Backend {
    /// Stable name, matching `LayerAssigner::name`.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Cpla { .. } => "cpla",
            Backend::Tila => "tila",
            Backend::Lagrange => "lagrange",
            Backend::Greedy => "greedy",
        }
    }

    /// Builds the assigner the way `cpla-cli optimize --assigner <name>`
    /// does with default flags.
    pub fn build(self) -> Box<dyn LayerAssigner> {
        match self {
            Backend::Cpla { threads } => Box::new(Cpla::new(CplaConfig {
                critical_ratio: CRITICAL_RATIO,
                threads,
                ..CplaConfig::default()
            })),
            Backend::Tila => Box::new(Tila::new(TilaConfig {
                critical_ratio: CRITICAL_RATIO,
                ..TilaConfig::default()
            })),
            Backend::Lagrange => Box::new(Lagrange::new(LagrangeConfig {
                critical_ratio: CRITICAL_RATIO,
                ..LagrangeConfig::default()
            })),
            Backend::Greedy => Box::new(Greedy::new(GreedyConfig {
                critical_ratio: CRITICAL_RATIO,
            })),
        }
    }
}

/// A named set of designs and the backends each one is assigned with.
///
/// Every backend runs on its own clone of the same prepared design, so
/// one design is set up once per pass however many backends it feeds.
///
/// A seeded workload holds several re-seeded copies of its suite; the
/// design at index `d` is design `d % slots` of copy `d / slots`. Timing
/// on one random suite swings with which designs happen to converge
/// slowly, so the end-to-end times are averaged over the copies.
#[derive(Clone, PartialEq, Debug)]
pub struct Workload {
    /// Workload name (one of [`WORKLOAD_NAMES`]).
    pub name: &'static str,
    /// Designs, copy-major, each written to an ISPD'08 file before
    /// measuring.
    pub designs: Vec<SyntheticConfig>,
    /// Designs per copy of the suite.
    pub slots: usize,
    /// Backends run on every design, in this order.
    pub backends: Vec<Backend>,
}

impl Workload {
    /// The workload called `name`, or `None` for an unknown name.
    ///
    /// `None` as `seed` gives one copy of the suite at its committed
    /// seeds (the named designs' name-derived seeds, `scale-100k`'s
    /// `0x5ca1e`); a seed gives the workload's copies, every design
    /// re-seeded from `seed` at its fixed size.
    pub fn named(name: &str, seed: Option<u64>) -> Option<Workload> {
        // Seeded copies per workload: enough that a run measures 20-40 s,
        // so neither one slow design nor a slow host phase sets its
        // figures, and few enough that 70 runs fit in under an hour.
        let (name, suite, backends, copies) = match name {
            "table2" => (
                "table2",
                SyntheticConfig::all_paper_benchmarks(),
                vec![Backend::Cpla { threads: 1 }],
                3,
            ),
            "scale-100k" => (
                "scale-100k",
                vec![SyntheticConfig::scale("scale-100k")?],
                vec![Backend::Cpla { threads: 2 }],
                3,
            ),
            "baselines" => (
                "baselines",
                SyntheticConfig::all_paper_benchmarks(),
                vec![Backend::Tila, Backend::Lagrange, Backend::Greedy],
                4,
            ),
            _ => return None,
        };
        let designs = match seed {
            None => suite.clone(),
            Some(seed) => (0..copies)
                .flat_map(|copy| suite.iter().map(move |c| reseed(c.clone(), seed, copy)))
                .collect(),
        };
        Some(Workload {
            name,
            designs,
            slots: suite.len(),
            backends,
        })
    }

    /// The same workload cut to its first copy of the suite.
    pub fn first_copy(&self) -> Workload {
        Workload {
            designs: self.designs[..self.slots].to_vec(),
            ..self.clone()
        }
    }

    /// Design `d`'s name, with its copy number past the first copy.
    pub fn design_label(&self, d: usize) -> String {
        let name = &self.designs[d].name;
        match d / self.slots {
            0 => name.clone(),
            copy => format!("{name}#{copy}"),
        }
    }

    /// The largest thread count any backend of the workload uses.
    pub fn threads(&self) -> usize {
        self.backends
            .iter()
            .map(|b| match b {
                Backend::Cpla { threads } => *threads,
                _ => 1,
            })
            .max()
            .unwrap_or(1)
    }
}

/// Re-seeds a design at its fixed size: the new seed mixes the run seed
/// and the copy number into the design's committed seed, so designs
/// stay distinct from each other and every run seed gives different,
/// reproducible suites.
fn reseed(config: SyntheticConfig, seed: u64, copy: u64) -> SyntheticConfig {
    SyntheticConfig {
        seed: splitmix64(config.seed ^ splitmix64(splitmix64(seed) ^ copy)),
        ..config
    }
}

/// One step of the SplitMix64 finalizer: a bijective 64-bit mix.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_keeps_the_committed_configs() {
        let w = Workload::named("table2", None).unwrap();
        assert_eq!(w.designs, SyntheticConfig::all_paper_benchmarks());
        let s = Workload::named("scale-100k", None).unwrap();
        assert_eq!(s.designs[0].seed, 0x5ca1e);
    }

    #[test]
    fn a_seed_changes_every_seed_and_nothing_else() {
        let base = Workload::named("table2", None).unwrap();
        let seeded = Workload::named("table2", Some(7)).unwrap();
        assert_eq!(seeded.designs.len(), 3 * base.designs.len());
        for (i, b) in seeded.designs.iter().enumerate() {
            let a = &base.designs[i % base.slots];
            assert_ne!(a.seed, b.seed);
            assert_eq!(
                SyntheticConfig {
                    seed: a.seed,
                    ..b.clone()
                },
                *a
            );
        }
        let mut seeds: Vec<u64> = seeded.designs.iter().map(|c| c.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), seeded.designs.len(), "every copy is distinct");
        assert_eq!(seeded.first_copy().designs, seeded.designs[..15]);
        assert_eq!(seeded.design_label(16), "adaptec2#1");
        assert_eq!(
            seeded,
            Workload::named("table2", Some(7)).unwrap(),
            "same seed, same suite"
        );
        assert_ne!(seeded, Workload::named("table2", Some(8)).unwrap());
    }

    #[test]
    fn every_listed_name_resolves() {
        for name in WORKLOAD_NAMES {
            let w = Workload::named(name, Some(1)).unwrap();
            assert_eq!(w.name, name);
            assert!(!w.designs.is_empty() && !w.backends.is_empty());
        }
        assert!(Workload::named("race", None).is_none());
        assert_eq!(Workload::named("scale-100k", None).unwrap().threads(), 2);
        assert_eq!(Workload::named("baselines", None).unwrap().threads(), 1);
    }
}
