//! Retiming for power: sweep the pipelining depth of the direction detector
//! and find the flipflop count that minimises total power (the section 5
//! experiment of the paper, Table 3 / Figure 10).
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p glitch-core --example retiming_power_sweep
//! ```

use glitch_core::arith::{AdderStyle, DirectionDetector};
use glitch_core::{AnalysisConfig, GlitchAnalyzer, PowerExplorer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The detector is built without its input registers: the explorer's
    // first register rank plays that role, so rank 1 reproduces the paper's
    // baseline circuit (input flipflops only).
    let detector = DirectionDetector::with_options(8, false, AdderStyle::CompoundCell);
    let mut random_buses = Vec::new();
    random_buses.extend(detector.a.iter().cloned());
    random_buses.extend(detector.b.iter().cloned());

    let analyzer = GlitchAnalyzer::new(AnalysisConfig {
        cycles: 500,
        frequency: 5e6,
        ..AnalysisConfig::default()
    });
    let explorer = PowerExplorer::new(analyzer);

    let ranks = [1usize, 2, 3, 4, 6, 8, 12];
    let held: Vec<_> = detector
        .threshold
        .bits()
        .iter()
        .map(|&b| (b, false))
        .collect();
    let result = explorer.explore(&detector.netlist, &ranks, &random_buses, &held, 1)?;

    println!("direction detector, 500 random vectors, 5 MHz, 0.8 um / 5 V technology\n");
    println!("{result}");
    let best = result.optimum_point();
    println!(
        "optimum retiming for power: {} register ranks ({} flipflops, {:.2} mW total)",
        best.ranks,
        best.flipflops,
        best.power.total() * 1e3
    );
    if result.has_interior_minimum() {
        println!("the minimum lies strictly between the least and most pipelined variants,");
        println!("matching Figure 10 of the paper.");
    }
    Ok(())
}
