//! Bounds CPLA's working set: the peak live heap one default run adds on
//! top of its routed input.
//!
//! The counting allocator sees every allocation of the run, so the peak
//! covers Select's design-wide state, the incumbent, the extracted
//! partition programs, the cross-round cache and the solver's warm
//! pairs. This binary holds a single test: the live and peak counters
//! are process-wide.

use cpla::{Cpla, CplaConfig};
use flow::LayerAssigner;
use ispd::SyntheticConfig;
use route::{initial_assignment, route_netlist, RouterConfig};

#[global_allocator]
static ALLOC: obs::CountingAlloc = obs::CountingAlloc::new();

/// Peak live heap of the run, in bytes: 1,321,784 measured with the flat
/// partition programs, one cache entry per partition, one design arena
/// and the incumbent held as the movable nets' layers, plus 10%. The
/// nested layout with whole-design copies (a second arena, the selection
/// timing kept alive, cloned assignment and usage) peaked at 4,263,908
/// bytes on the same run.
const PEAK_BOUND_BYTES: u64 = 1_454_000;

#[test]
fn cpla_peak_heap_stays_bounded() {
    let config = SyntheticConfig::named("adaptec1").expect("a Table-2 design");
    let (mut grid, specs) = config.generate().expect("valid config");
    let netlist = route_netlist(&grid, &specs, &RouterConfig::default());
    let mut assignment = initial_assignment(&mut grid, &netlist);
    let engine = Cpla::new(CplaConfig {
        threads: 1,
        ..CplaConfig::default()
    });

    let counting = obs::alloc::ScopedEnable::new();
    obs::alloc::reset_peak();
    let base = obs::alloc::live_bytes();
    let report = engine
        .assign(&mut grid, &netlist, &mut assignment)
        .expect("a well-formed design");
    let peak = (obs::alloc::peak_bytes() as i64 - base).max(0) as u64;
    drop(counting);

    assert!(report.rounds > 0, "the run must reach the stage pipeline");
    assert!(
        peak <= PEAK_BOUND_BYTES,
        "CPLA's peak live heap grew to {peak} bytes (bound {PEAK_BOUND_BYTES})"
    );
}
