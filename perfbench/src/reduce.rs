//! `reduce-mult16`: one-shot `glitch-cli reduce --json` of the 16×16
//! array multiplier on the CLI default engine, with a fixed iteration
//! cap, seeds and cycles. Many short scoring passes and functional
//! screens on netlists that change each iteration, then one equivalence
//! check; it also carries the paper's quality objective (total power).

use crate::circuits::{self, Family};
use crate::cli::peak_rss_mb;
use crate::layers;
use crate::outcome::Outcome;
use crate::stats::share;
use crate::workload::{
    attribute, cli_telemetry, number, object, publish, repeat_cli, set_up_repeatedly,
    stimulus_seed, Params,
};
use glitch_serve::jsonin::JsonValue;

/// The workload's name.
pub const NAME: &str = "reduce-mult16";

struct Size {
    bits: usize,
    seeds: usize,
    cycles: u64,
    max_iters: usize,
    jobs: usize,
}

fn size(tiny: bool) -> Size {
    Size {
        bits: if tiny { 4 } else { 16 },
        seeds: 2,
        cycles: if tiny { 40 } else { 200 },
        max_iters: if tiny { 2 } else { 4 },
        jobs: 2,
    }
}

/// The oracle: the reduced netlist passed its equivalence check.
fn equivalent(line: &str) -> bool {
    object(line).is_ok_and(|map| match map.get("equivalence") {
        Some(JsonValue::Object(eq)) => eq.get("passed") == Some(&JsonValue::Bool(true)),
        _ => false,
    })
}

fn ratio(line: &str, final_key: &str, initial_key: &str) -> f64 {
    object(line).map_or(0.0, |map| {
        share(number(&map, final_key), number(&map, initial_key))
    })
}

/// Runs the workload.
///
/// # Errors
///
/// Returns a message when set-up fails; failing operations are counted.
pub fn run(params: &Params) -> Result<Outcome, String> {
    let size = size(params.tiny);
    let mut outcome = Outcome::default();
    let (circuit, setup) = set_up_repeatedly(
        || circuits::generate(Family::Array, size.bits, params.seed, &params.work),
        |_| Ok(()),
    )?;
    println!("{{\"circuit\":{}}}", circuit.identity_json());
    let file = circuit.file();
    let seed = stimulus_seed(params.seed, 3);
    let args = vec![
        "reduce".to_string(),
        file.clone(),
        "--json".into(),
        "--seeds".into(),
        size.seeds.to_string(),
        "--cycles".into(),
        size.cycles.to_string(),
        "--seed".into(),
        seed.to_string(),
        "--jobs".into(),
        size.jobs.to_string(),
        "--max-iters".into(),
        size.max_iters.to_string(),
    ];

    if params.trace {
        let report = cli_telemetry(params, NAME, &args)?;
        outcome.op(equivalent(&report));
        let config = layers::cli_config(size.cycles, seed)?;
        // One replay pass takes as long as an op; one pair is enough.
        let attribution = attribute(NAME, params.seconds / 2.0, |tracer| {
            let netlist = layers::parse(tracer, &file)?;
            let json = layers::reduce_json(
                tracer,
                &file,
                &netlist,
                &config,
                size.seeds,
                size.jobs,
                size.max_iters,
            )?;
            Ok(json == report)
        })?;
        publish(params, NAME, &attribution)?;
        outcome.set_layers(&attribution.table, attribution.untraced_median_us);
        outcome.set("trace.replay_match", attribution.replay_match);
        outcome.set(
            "reduce.glitch_power_ratio",
            ratio(&report, "final_glitch_power_w", "initial_glitch_power_w"),
        );
        return Ok(outcome);
    }

    // Reduction is deterministic: every repeat must print the same
    // report, and it must be verified equivalent.
    let mut first: Option<String> = None;
    let ops = repeat_cli(params, NAME, &args, &mut outcome, |line| {
        let first = first.get_or_insert_with(|| line.to_string());
        equivalent(line) && *first == line
    });
    outcome.set_timings(&setup, &ops, (size.seeds as u64 * size.cycles) as f64);
    outcome.set(
        "total_power_ratio",
        ratio(
            first.as_deref().unwrap_or_default(),
            "final_total_power_w",
            "initial_total_power_w",
        ),
    );
    outcome.set("peak_rss_mb", peak_rss_mb(true));
    Ok(outcome)
}
