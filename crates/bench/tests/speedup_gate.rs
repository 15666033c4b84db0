//! The criterion regression gate from the ROADMAP, in enforceable form:
//! CI runs this (release, `--ignored`) after the `parallel_multi_seed` and
//! `incremental_resim` bench groups and fails the build if incremental
//! re-simulation of a single-input-flip delta is less than 2x faster than
//! full re-simulation on the multiplier corpus.
//!
//! Ignored by default so plain `cargo test` stays timing-free; run with
//!
//! ```text
//! cargo test --release -p glitch-bench --test speedup_gate -- --ignored
//! ```

use glitch_bench::timing::median_time;
use glitch_core::arith::{AdderStyle, ArrayMultiplier};
use glitch_core::sim::{
    DeltaStimulus, IncrementalSession, InputAssignment, RandomStimulus, SimSession, StatsProbe,
    Value,
};

const CYCLES: u64 = 400;
const SEED: u64 = 0xF11;
const MIN_SPEEDUP: f64 = 2.0;

#[test]
#[ignore = "timing gate; run explicitly in CI with --release"]
fn incremental_resim_is_at_least_twice_as_fast_on_single_flips() {
    let mult = ArrayMultiplier::new(8, AdderStyle::CompoundCell);
    let buses = vec![mult.x.clone(), mult.y.clone()];
    let stimulus: Vec<InputAssignment> = RandomStimulus::new(buses, CYCLES, SEED).collect();
    let (_, baseline) = SimSession::new(&mult.netlist)
        .stimulus(stimulus.clone())
        .record_baseline()
        .expect("baseline settles");
    let index = mult.netlist.cone_index().expect("acyclic");
    let flip_net = mult.x.bit(5);
    let flipped_to = baseline.input_value(CYCLES / 2, flip_net) != Value::One;
    let delta = DeltaStimulus::new().set(CYCLES / 2, flip_net, flipped_to);
    let merged: Vec<InputAssignment> = stimulus
        .iter()
        .enumerate()
        .map(|(cycle, base)| delta.apply_to(cycle as u64, base))
        .collect();

    let full = median_time(5, || {
        SimSession::new(&mult.netlist)
            .stimulus(merged.clone())
            .probe(StatsProbe::new())
            .run()
            .expect("settles")
            .total_transitions()
    });
    let incremental = median_time(5, || {
        IncrementalSession::new(&mult.netlist, &baseline)
            .cone_index(&index)
            .probe(StatsProbe::new())
            .delta(delta.clone())
            .run()
            .expect("settles")
            .session()
            .total_transitions()
    });

    let speedup = full.as_secs_f64() / incremental.as_secs_f64().max(1e-9);
    println!(
        "incremental_resim gate: full {full:?}, incremental {incremental:?}, \
         speedup {speedup:.1}x (minimum {MIN_SPEEDUP}x)"
    );
    assert!(
        speedup >= MIN_SPEEDUP,
        "incremental re-simulation regressed: {speedup:.2}x < {MIN_SPEEDUP}x \
         (full {full:?} vs incremental {incremental:?})"
    );
}
