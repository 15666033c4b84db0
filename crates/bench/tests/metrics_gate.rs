//! The metrics-overhead gate from the observability PR: a
//! [`glitch_core::sim::MetricsProbe`] over a *disabled* registry must cost
//! less than 5% over the bare engine path — the guarantee that leaving
//! telemetry compiled in (but switched off) is free in practice.
//!
//! Ignored by default so plain `cargo test` stays timing-free; run with
//!
//! ```text
//! cargo test --release -p glitch-bench --test metrics_gate -- --ignored
//! ```

use std::time::Duration;

use glitch_bench::timing::paired_median_times;
use glitch_core::arith::{AdderStyle, ArrayMultiplier};
use glitch_core::netlist::{Bus, Netlist};
use glitch_core::sim::{MetricsProbe, RandomStimulus, SimSession};
use glitch_obs::MetricsRegistry;

const CYCLES: u64 = 300;
const SEED: u64 = 0x0B5;
const RUNS: usize = 9;
const MAX_OVERHEAD: f64 = 1.05;

fn run(netlist: &Netlist, buses: &[Bus], probed: bool) -> u64 {
    let mut session =
        SimSession::new(netlist).stimulus(RandomStimulus::new(buses.to_vec(), CYCLES, SEED));
    if probed {
        session = session.probe(MetricsProbe::with_registry(MetricsRegistry::disabled()));
    }
    session.run().expect("settles").total_transitions()
}

/// Median wall times of `RUNS` interleaved bare/probed executions.
fn measure(netlist: &Netlist, buses: &[Bus]) -> (Duration, Duration) {
    paired_median_times(
        RUNS,
        || run(netlist, buses, false),
        || run(netlist, buses, true),
    )
}

#[test]
#[ignore = "timing gate; run explicitly in CI with --release"]
fn disabled_metrics_probe_costs_less_than_five_percent() {
    let mult = ArrayMultiplier::new(8, AdderStyle::CompoundCell);
    let buses = vec![mult.x.clone(), mult.y.clone()];

    // Warm caches and the allocator before timing anything.
    std::hint::black_box(run(&mult.netlist, &buses, true));

    // Timing gates are noisy; allow one re-measurement before failing.
    let mut verdict = (Duration::ZERO, Duration::ZERO, f64::MAX);
    for attempt in 0..2 {
        let (bare, probed) = measure(&mult.netlist, &buses);
        let ratio = probed.as_secs_f64() / bare.as_secs_f64().max(1e-9);
        println!(
            "metrics_overhead gate (attempt {attempt}): bare {bare:?}, \
             disabled-probe {probed:?}, ratio {ratio:.3} (maximum {MAX_OVERHEAD})"
        );
        verdict = (bare, probed, ratio);
        if ratio < MAX_OVERHEAD {
            break;
        }
    }
    let (bare, probed, ratio) = verdict;
    assert!(
        ratio < MAX_OVERHEAD,
        "disabled metrics probe overhead regressed: {ratio:.3} >= {MAX_OVERHEAD} \
         (bare {bare:?} vs disabled-probe {probed:?})"
    );
}
