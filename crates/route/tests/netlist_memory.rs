//! Bounds what routing costs the heap on adaptec1: the allocation
//! events `route_netlist` makes per net, and the live bytes per net of
//! the routed netlist it returns, which every layer-assignment engine
//! keeps for its whole run.
//!
//! The counting allocator sees every allocation of the process, so this
//! binary holds a single test: the live counter is process-wide.

use ispd::SyntheticConfig;
use route::{route_netlist, RouterConfig};

#[global_allocator]
static ALLOC: obs::CountingAlloc = obs::CountingAlloc::new();

/// Allocation events per routed net: 5.008 measured (27,543 for 5,500
/// nets) with three blocks per route tree and a router that keeps every
/// per-net buffer, plus 10%. Seven `Vec`s per tree, a `HashSet` per net
/// and per-connection candidate vectors made 28.87 (158,793).
const EVENTS_PER_NET: f64 = 5.51;

/// Live bytes per routed net: 321.5 measured (1,768,094 for 5,500 nets),
/// plus 10%. Seven `Vec`s per tree and a 224-byte `Net` held 556.3
/// (3,059,718).
const BYTES_PER_NET: f64 = 353.7;

#[test]
fn routing_allocations_and_netlist_bytes_stay_bounded() {
    let config = SyntheticConfig::named("adaptec1").expect("a Table-2 design");
    let (grid, specs) = config.generate().expect("valid config");

    let counting = obs::alloc::ScopedEnable::new();
    let before = obs::alloc::thread_stats();
    let base = obs::alloc::live_bytes();
    let netlist = route_netlist(&grid, &specs, &RouterConfig::default());
    let events = obs::alloc::thread_stats().since(before).events;
    let live = (obs::alloc::live_bytes() - base).max(0) as u64;
    drop(counting);

    let nets = netlist.len() as f64;
    assert_eq!(netlist.len(), 5_500, "adaptec1 routes every net");
    let (events_per_net, bytes_per_net) = (events as f64 / nets, live as f64 / nets);
    assert!(
        events_per_net <= EVENTS_PER_NET,
        "routing made {events} allocations, {events_per_net:.3} per net (bound {EVENTS_PER_NET})"
    );
    assert!(
        bytes_per_net <= BYTES_PER_NET,
        "the routed netlist holds {live} bytes, {bytes_per_net:.1} per net (bound {BYTES_PER_NET})"
    );
}
