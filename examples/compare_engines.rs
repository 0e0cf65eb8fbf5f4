//! Side-by-side engine comparison on one synthetic benchmark: the
//! initial assignment, TILA (sum-delay Lagrangian baseline), CPLA with
//! the exact ILP, and CPLA with the SDP relaxation — all starting from
//! identical state with the same released nets.
//!
//! Run with: `cargo run --release --example compare_engines [seed]`

use cpla::{Cpla, CplaConfig, Metrics, SolverKind};
use ispd::SyntheticConfig;
use route::{initial_assignment, route_netlist, RouterConfig};
use std::time::Instant;
use tila::{Tila, TilaConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(7);
    let mut config = SyntheticConfig::small(seed);
    config.num_nets = 600;
    config.capacity = 4;
    let (grid0, specs) = config.generate()?;
    let netlist = route_netlist(&grid0, &specs, &RouterConfig::default());
    let mut grid0 = grid0;
    let assignment0 = initial_assignment(&mut grid0, &netlist);

    // Release the 5% most critical nets (small design, so a handful).
    let released = cpla::select_critical_nets(&grid0, &netlist, &assignment0, 0.05);
    println!(
        "{} nets, {} released as critical",
        netlist.len(),
        released.len()
    );

    let print = |label: &str, m: &Metrics, secs: f64| {
        println!(
            "{label:<10} Avg(Tcp) {:>9.1}  Max(Tcp) {:>9.1}  OV# {:>4}  via# {:>6}  {:>6.2}s",
            m.avg_tcp, m.max_tcp, m.via_overflow, m.via_count, secs
        );
    };

    let initial = Metrics::measure(&grid0, &netlist, &assignment0, &released);
    print("initial", &initial, 0.0);

    // TILA.
    {
        let mut grid = grid0.clone();
        let mut a = assignment0.clone();
        let t = Instant::now();
        Tila::new(TilaConfig::default()).run(&mut grid, &netlist, &mut a, &released)?;
        let m = Metrics::measure(&grid, &netlist, &a, &released);
        print("TILA", &m, t.elapsed().as_secs_f64());
    }

    // CPLA with the exact branch-and-bound ILP.
    {
        let mut grid = grid0.clone();
        let mut a = assignment0.clone();
        let t = Instant::now();
        Cpla::new(CplaConfig {
            solver: SolverKind::Ilp {
                node_budget: 1_000_000,
            },
            ..CplaConfig::default()
        })
        .run_released(&mut grid, &netlist, &mut a, &released)?;
        let m = Metrics::measure(&grid, &netlist, &a, &released);
        print("CPLA-ILP", &m, t.elapsed().as_secs_f64());
    }

    // CPLA with the SDP relaxation (the paper's production config).
    {
        let mut grid = grid0.clone();
        let mut a = assignment0.clone();
        let t = Instant::now();
        Cpla::new(CplaConfig::default()).run_released(&mut grid, &netlist, &mut a, &released)?;
        let m = Metrics::measure(&grid, &netlist, &a, &released);
        print("CPLA-SDP", &m, t.elapsed().as_secs_f64());
        a.validate(&netlist, &grid)?;
    }
    Ok(())
}
