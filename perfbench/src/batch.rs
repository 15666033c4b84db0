//! `batch-mult32`: one-shot `glitch-cli analyze --json` of the 32×32
//! array multiplier over several seeds and long cycles, repeated for the
//! run's duration. The settle layer does nearly all the work.

use crate::circuits::{self, Family};
use crate::cli::peak_rss_mb;
use crate::layers;
use crate::outcome::Outcome;
use crate::stats::share;
use crate::trace::Tracer;
use crate::workload::{
    attribute, cli_telemetry, nested, object, publish, repeat_cli, set_up_repeatedly,
    stimulus_seed, Params,
};

/// The workload's name.
pub const NAME: &str = "batch-mult32";

struct Size {
    bits: usize,
    seeds: usize,
    cycles: u64,
    jobs: usize,
}

fn size(tiny: bool) -> Size {
    Size {
        bits: if tiny { 4 } else { 32 },
        seeds: 2,
        cycles: if tiny { 40 } else { 1000 },
        jobs: 2,
    }
}

/// What the oracle compares: activity totals and the power breakdown.
fn oracle_view(line: &str) -> Result<String, String> {
    let map = object(line)?;
    let activity = map.get("activity").ok_or("report has no `activity`")?;
    let power = map.get("power").ok_or("report has no `power`")?;
    Ok(format!("{activity:?} {power:?}"))
}

/// Runs the workload.
///
/// # Errors
///
/// Returns a message when set-up fails (circuit generation, the
/// reference pass); failing operations are counted, not returned.
pub fn run(params: &Params) -> Result<Outcome, String> {
    let size = size(params.tiny);
    let mut outcome = Outcome::default();
    let (circuit, setup) = set_up_repeatedly(
        || circuits::generate(Family::Array, size.bits, params.seed, &params.work),
        |_| Ok(()),
    )?;
    println!("{{\"circuit\":{}}}", circuit.identity_json());
    let file = circuit.file();
    let seed = stimulus_seed(params.seed, 1);
    let args = vec![
        "analyze".to_string(),
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
    ];
    // The reference: the event-queue pass through the sim layer itself.
    let config = layers::cli_config(size.cycles, seed)?;
    let reference = layers::analyze_aggregate_json(
        &Tracer::new(false),
        &file,
        &circuit.netlist,
        &config,
        size.seeds,
        size.jobs,
    )?;
    let expected = oracle_view(&reference)?;
    let reference_power = nested(&object(&reference)?, "power", "total_w");
    // Warm-up: the first invocation pays cold page-cache and start-up costs.
    params.cli.run(&args)?;

    if params.trace {
        let report = cli_telemetry(params, NAME, &args)?;
        outcome.op(oracle_view(&report).is_ok_and(|view| view == expected));
        let attribution = attribute(NAME, params.seconds, |tracer| {
            let netlist = layers::parse(tracer, &file)?;
            let json = layers::analyze_aggregate_json(
                tracer, &file, &netlist, &config, size.seeds, size.jobs,
            )?;
            Ok(json == reference)
        })?;
        publish(params, NAME, &attribution)?;
        outcome.set_layers(&attribution.table, attribution.untraced_median_us);
        outcome.set("trace.replay_match", attribution.replay_match);
        return Ok(outcome);
    }

    let mut power_ratio = 0.0;
    let ops = repeat_cli(params, NAME, &args, &mut outcome, |line| {
        power_ratio = share(
            object(line).map_or(0.0, |m| nested(&m, "power", "total_w")),
            reference_power,
        );
        oracle_view(line).is_ok_and(|view| view == expected)
    });
    outcome.set_timings(&setup, &ops, (size.seeds as u64 * size.cycles) as f64);
    outcome.set("total_power_ratio", power_ratio);
    outcome.set("peak_rss_mb", peak_rss_mb(true));
    Ok(outcome)
}
