//! CLI-side observability: the shared `--metrics[=FILE]`, `--metrics-json`
//! and `--trace-out FILE` wiring of `analyze`, `power`, `sweep`, `check`
//! and `reduce`.
//!
//! The split mirrors `glitch-obs`'s contract. Deterministic quantities
//! (cycle, event, evaluation and queue counts) go into the executor's
//! [`WorkRecorder`] — the same recorder the daemon's `metrics` op reads —
//! folded in job order, so `--metrics-json` output is byte-identical
//! across runs and at any `--jobs` count. Wall-clock time goes into timing
//! spans only — the Chrome trace (`--trace-out`) and the appendix of the
//! human-readable dump — and never into the registry. This module owns
//! only the output destinations and the span log.

use std::fs;
use std::path::Path;

use glitch_core::netlist::{ConeIndex, Netlist};
use glitch_obs::export::{chrome_trace, metrics_json, metrics_text};
use glitch_obs::{Span, SpanLog};
use glitch_serve::exec::WorkRecorder;

use crate::args::Args;
use crate::commands::CliError;

/// Where the metrics dump goes.
enum MetricsDest {
    /// `--metrics` (bare) or `--metrics-json` alone: stdout, as the final
    /// line(s) of the command, so scripts can parse the tail.
    Stdout,
    /// `--metrics=FILE`.
    File(String),
}

/// Per-command telemetry state, constructed from the parsed arguments.
///
/// When none of the telemetry options are given, the span log is absent
/// and the work recorder is disabled, so the instrumented commands run
/// their untouched bare paths (no extra probes, no cone index build) —
/// the property the `metrics_overhead` bench gate pins.
pub struct Telemetry {
    dest: Option<MetricsDest>,
    json: bool,
    trace_path: Option<String>,
    /// The wall-clock span log, present when any output was requested.
    pub spans: Option<SpanLog>,
    /// The deterministic work counts the executor records.
    pub work: WorkRecorder,
}

impl Telemetry {
    /// Reads `--metrics[=FILE]`, `--metrics-json` and `--trace-out FILE`.
    pub fn from_args(args: &Args) -> Telemetry {
        let json = args.flag("metrics-json");
        let dest = match args.option("metrics") {
            Some("") => Some(MetricsDest::Stdout),
            Some(path) => Some(MetricsDest::File(path.to_string())),
            // --metrics-json alone implies metrics-to-stdout.
            None if json => Some(MetricsDest::Stdout),
            None => None,
        };
        let trace_path = args.option("trace-out").map(str::to_string);
        let enabled = dest.is_some() || trace_path.is_some();
        Telemetry {
            dest,
            json,
            trace_path,
            spans: enabled.then(|| SpanLog::new(glitch_obs::Clock::new())),
            work: if enabled {
                WorkRecorder::default()
            } else {
                WorkRecorder::disabled()
            },
        }
    }

    /// `true` when any telemetry output was requested; gates every piece
    /// of instrumentation (extra probes, cone index, timing spans).
    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    /// Opens a RAII timing span named `name` (recorded on drop). Returns
    /// `None` when telemetry is off so disabled runs never touch the clock.
    pub fn span(&self, name: &str) -> Option<Span<'_>> {
        self.spans.as_ref().map(|log| log.span(name))
    }

    /// Builds the netlist's fanout/level cone index under a `cone-index`
    /// span and records its size. Telemetry-only work: the bare command
    /// paths never build an index, so this runs only when enabled.
    pub fn cone_index_phase(&mut self, netlist: &Netlist) {
        if !self.enabled() {
            return;
        }
        let built = {
            let _span = self.span("cone-index");
            ConeIndex::build(netlist)
        };
        self.work
            .gauge_max("netlist.cells", netlist.cell_count() as u64);
        self.work
            .gauge_max("netlist.nets", netlist.net_count() as u64);
        if built.is_ok() {
            self.work.add("cone.index_builds", 1);
        }
    }

    /// Writes the requested outputs: the Chrome trace file first, then the
    /// metrics dump — so a stdout metrics dump is the command's final
    /// output and scripts can parse the last line(s).
    ///
    /// The JSON dump contains only the deterministic registry. The human
    /// text dump appends a wall-clock appendix (span summary) that is
    /// explicitly non-deterministic.
    pub fn finish(&self) -> Result<(), CliError> {
        if let (Some(path), Some(spans)) = (&self.trace_path, &self.spans) {
            write(path, &chrome_trace(spans))?;
            println!("wrote {path}");
        }
        match &self.dest {
            None => {}
            Some(MetricsDest::File(path)) => {
                let dump = if self.json {
                    metrics_json(self.work.registry())
                } else {
                    self.text_dump()
                };
                write(path, &dump)?;
                println!("wrote {path}");
            }
            Some(MetricsDest::Stdout) => {
                if self.json {
                    println!("{}", metrics_json(self.work.registry()));
                } else {
                    print!("{}", self.text_dump());
                }
            }
        }
        Ok(())
    }

    /// The human-readable dump: registry summary plus the span appendix.
    fn text_dump(&self) -> String {
        let mut out = metrics_text(self.work.registry());
        let records = self
            .spans
            .as_ref()
            .map(SpanLog::records)
            .unwrap_or_default();
        if !records.is_empty() {
            out.push_str("spans (wall clock, non-deterministic):\n");
            for record in &records {
                out.push_str(&format!(
                    "  {:<28} {:>10} us (track {})\n",
                    record.name, record.dur_micros, record.tid
                ));
            }
        }
        out
    }
}

fn write(path: &str, contents: &str) -> Result<(), CliError> {
    fs::write(Path::new(path), contents).map_err(|e| CliError::Run(format!("{path}: {e}")))
}
