//! `perfbench`: the workspace's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --cli <glitch-cli> [--work <dir>] [--tiny]
//! perfbench compare <base.layers.json> <new.layers.json>
//! ```
//!
//! A run prints circuit identities and (traced) the per-layer table, then
//! one JSON result line: `correct`, `attempted`, `failed` and `metrics`.
//! `run.py` builds the program and this binary and passes `--cli`.

mod batch;
mod circuits;
mod cli;
mod layers;
mod outcome;
mod reduce;
mod serve;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use crate::cli::Cli;
use crate::trace::LayerTable;
use crate::workload::Params;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: &[&str] = &[batch::NAME, serve::NAME, reduce::NAME];

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         --cli <glitch-cli> [--work <dir>] [--tiny]\n       \
         perfbench compare <base.layers.json> <new.layers.json>",
        WORKLOADS.join("|")
    )
}

fn compare(base: &str, new: &str) -> Result<(), String> {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| LayerTable::from_json(&text).map_err(|e| format!("{path}: {e}")))
    };
    print!("{}", trace::compare(&read(base)?, &read(new)?));
    Ok(())
}

fn run(raw: &[String]) -> Result<(), String> {
    if raw.first().map(String::as_str) == Some("compare") {
        return match raw {
            [_, base, new] => compare(base, new),
            _ => Err(usage()),
        };
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut cli = None;
    let mut work = PathBuf::from(".perfbench_work");
    let mut tiny = false;
    let mut args = raw.iter();
    while let Some(flag) = args.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = || format!("{flag}: cannot parse `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            "--cli" => cli = Some(PathBuf::from(value)),
            "--work" => work = PathBuf::from(value),
            _ => return Err(format!("unknown option {flag}\n{}", usage())),
        }
    }
    let missing = |name: &str| format!("missing --{name}\n{}", usage());
    let workload = workload.ok_or_else(|| missing("workload"))?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`\n{}", usage()));
    }
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let params = Params {
        seed: seed.ok_or_else(|| missing("seed"))?,
        seconds: seconds.ok_or_else(|| missing("seconds"))?,
        trace: trace.ok_or_else(|| missing("trace"))?,
        cli: Cli::new(&cli.ok_or_else(|| missing("cli"))?)?,
        work,
        tiny,
    };
    let outcome = match workload.as_str() {
        batch::NAME => batch::run(&params),
        serve::NAME => serve::run(&params),
        _ => reduce::run(&params),
    }?;
    println!("{}", outcome.render(params.trace));
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match run(&raw) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(2)
        }
    }
}
