//! What every workload shares: run parameters, seed derivation, the
//! traced attribution loop and JSON field access.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use glitch_serve::jsonin::{parse_json, JsonValue};

use crate::cli::Cli;
use crate::outcome::Outcome;
use crate::stats::median;
use crate::trace::{LayerTable, Tracer};

/// Parameters of one run.
pub struct Params {
    /// Workload seed: every input of the run derives from it.
    pub seed: u64,
    /// How long the measurement loop runs.
    pub seconds: f64,
    /// `true` for the traced (per-layer) run.
    pub trace: bool,
    /// The one-shot CLI under test.
    pub cli: Cli,
    /// Scratch directory for circuits, logs and traces.
    pub work: PathBuf,
    /// Smoke-test size: tiny circuits and few cycles.
    pub tiny: bool,
}

/// How many times set-up is repeated; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// Runs `set_up` [`SETUP_REPEATS`] times, handing each result but the
/// last to `tear_down` (untimed). Returns the last result and the set-up
/// times in seconds.
///
/// # Errors
///
/// Forwards the first failing set-up or tear-down.
pub fn set_up_repeatedly<T>(
    mut set_up: impl FnMut() -> Result<T, String>,
    mut tear_down: impl FnMut(T) -> Result<(), String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = last.take() {
            tear_down(previous)?;
        }
        let start = Instant::now();
        last = Some(set_up()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), times))
}

/// Runs `glitch-cli <args>` once with the program's own telemetry on
/// (`--metrics-json`, `--trace-out` into the work directory), prints the
/// metrics dump and returns the `--json` report line.
///
/// # Errors
///
/// Returns a message when the invocation fails.
pub fn cli_telemetry(params: &Params, workload: &str, args: &[String]) -> Result<String, String> {
    let trace = params
        .work
        .join(format!("{workload}-s{}.cli-trace.json", params.seed));
    let mut args = args.to_vec();
    args.extend([
        "--metrics-json".to_string(),
        "--trace-out".into(),
        trace.display().to_string(),
    ]);
    let run = params.cli.run(&args)?;
    println!("cli metrics: {}", run.last_line());
    Ok(run
        .stdout
        .lines()
        .find(|l| l.starts_with("{\"file\""))
        .unwrap_or_default()
        .to_string())
}

/// Repeats `glitch-cli <args>` until the run's seconds have elapsed (at
/// least once), counting each invocation as an op that passes when
/// `check` accepts its report line. Returns the op times in seconds; a
/// failing invocation ends the loop.
pub fn repeat_cli(
    params: &Params,
    workload: &str,
    args: &[String],
    outcome: &mut Outcome,
    mut check: impl FnMut(&str) -> bool,
) -> Vec<f64> {
    let start = Instant::now();
    let mut ops = Vec::new();
    while ops.is_empty() || start.elapsed().as_secs_f64() < params.seconds {
        match params.cli.run(args) {
            Ok(run) => {
                let ok = check(run.last_line());
                if !ok {
                    eprintln!("{workload}: report failed its oracle: {}", run.last_line());
                }
                outcome.op(ok);
                ops.push(run.wall_s);
            }
            Err(e) => {
                eprintln!("{workload}: {e}");
                outcome.op(false);
                break;
            }
        }
    }
    ops
}

/// SplitMix64: derives independent, reproducible values from the
/// workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A stimulus seed for the program, derived from the workload seed (kept
/// short so command lines stay readable).
pub fn stimulus_seed(seed: u64, salt: u64) -> u64 {
    mix(seed, salt) % 1_000_000_007
}

/// A small deterministic generator for request mixes.
pub struct Rng(u64);

impl Rng {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Rng {
        Rng(mix(seed, 0x5EED))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        mix(self.0, 0)
    }

    /// A uniform value in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Parses one JSON object line.
///
/// # Errors
///
/// Returns a message when the line is not a JSON object.
pub fn object(line: &str) -> Result<BTreeMap<String, JsonValue>, String> {
    match parse_json(line) {
        Ok(JsonValue::Object(map)) => Ok(map),
        Ok(_) => Err(format!("not a JSON object: {line}")),
        Err(e) => Err(format!("malformed JSON ({e}): {line}")),
    }
}

/// A numeric field of a JSON object (0 when absent).
pub fn number(map: &BTreeMap<String, JsonValue>, key: &str) -> f64 {
    map.get(key).and_then(JsonValue::as_f64).unwrap_or_default()
}

/// A nested numeric field, e.g. `power.total_w`.
pub fn nested(map: &BTreeMap<String, JsonValue>, outer: &str, key: &str) -> f64 {
    match map.get(outer) {
        Some(JsonValue::Object(inner)) => number(inner, key),
        _ => 0.0,
    }
}

/// A traced run's result: the table of the median traced pass, its
/// Chrome trace, the median untraced wall, and whether every replayed
/// report matched the program's own.
pub struct Attribution {
    /// The median traced pass.
    pub table: LayerTable,
    /// That pass as a Chrome trace.
    pub chrome: String,
    /// Median wall time of the untraced passes, in microseconds.
    pub untraced_median_us: f64,
    /// Share of passes whose replay rendered byte-identical reports.
    pub replay_match: f64,
}

/// Runs `pass` untraced then traced, alternately, until `seconds` have
/// elapsed (at least one pair). `pass` returns whether its replay matched
/// the program's output.
///
/// # Errors
///
/// Forwards the first failing pass.
pub fn attribute(
    workload: &str,
    seconds: f64,
    mut pass: impl FnMut(&Tracer) -> Result<bool, String>,
) -> Result<Attribution, String> {
    let start = Instant::now();
    let mut untraced: Vec<f64> = Vec::new();
    let mut traced: Vec<(LayerTable, String)> = Vec::new();
    let mut matched = 0usize;
    loop {
        let t = Instant::now();
        matched += usize::from(pass(&Tracer::new(false))?);
        untraced.push(t.elapsed().as_secs_f64() * 1e6);
        let tracer = Tracer::new(true);
        matched += usize::from(tracer.span("perfbench", || pass(&tracer))?);
        let layers = tracer.layers();
        traced.push((
            LayerTable {
                workload: workload.to_string(),
                untraced_us: 0,
                traced_us: layers["perfbench"].total_us,
                layers: layers
                    .into_iter()
                    .map(|(name, time)| (name.to_string(), time))
                    .collect(),
                counters: tracer.counters(),
            },
            tracer.chrome_trace(),
        ));
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let passes = untraced.len() + traced.len();
    traced.sort_by_key(|(table, _)| table.traced_us);
    let untraced_median_us = median(&untraced);
    let (mut table, chrome) = traced.swap_remove(traced.len() / 2);
    table.untraced_us = untraced_median_us.round() as u64;
    Ok(Attribution {
        table,
        chrome,
        untraced_median_us,
        replay_match: matched as f64 / passes as f64,
    })
}

/// Writes the traced run's artefacts (Chrome trace and layer table) to
/// the work directory and prints the table.
///
/// # Errors
///
/// Returns a message when a file cannot be written.
pub fn publish(params: &Params, workload: &str, attribution: &Attribution) -> Result<(), String> {
    let stem = params.work.join(format!("{workload}-s{}", params.seed));
    let trace_path = stem.with_extension("trace.json");
    let table_path = stem.with_extension("layers.json");
    std::fs::write(&trace_path, &attribution.chrome)
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
    std::fs::write(&table_path, attribution.table.to_json())
        .map_err(|e| format!("cannot write {}: {e}", table_path.display()))?;
    print!("{}", attribution.table.render());
    println!(
        "chrome trace: {}\nlayer table: {}",
        trace_path.display(),
        table_path.display()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixing_is_deterministic_and_spread() {
        assert_eq!(mix(1, 2), mix(1, 2));
        assert_ne!(mix(1, 2), mix(2, 2));
        assert_ne!(mix(1, 2), mix(1, 3));
        let mut rng = Rng::new(7);
        let draws: Vec<f64> = (0..1000).map(|_| rng.unit()).collect();
        assert!(draws.iter().all(|&u| (0.0..1.0).contains(&u)));
        let mean = draws.iter().sum::<f64>() / 1000.0;
        assert!((mean - 0.5).abs() < 0.05, "{mean}");
    }

    #[test]
    fn attribution_runs_at_least_one_pair() {
        let mut calls = 0;
        let attribution = attribute("w", 0.0, |tracer| {
            calls += 1;
            tracer.span("layer", || ());
            Ok(true)
        })
        .unwrap();
        assert_eq!(calls, 2);
        assert_eq!(attribution.replay_match, 1.0);
        assert_eq!(attribution.table.self_sum_us(), attribution.table.traced_us);
        assert!(attribution.table.layers.contains_key("layer"));
    }
}
