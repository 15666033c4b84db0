//! What one benchmark run reports, and the metric catalogue it reports
//! against (the same names, units and order as `BENCHMARK.json`).

use std::collections::BTreeMap;

use glitch_serve::json::JsonObject;

use crate::stats::{median, percentile, share, windowed};
use crate::trace::LayerTable;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cycles_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("wall_s", "s"),
    ("total_power_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run. A layer that the
/// workload's path does not reach reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("io.parse_ms", "ms"),
    ("netlist.cone_index_ms", "ms"),
    ("kernel.compile_ms", "ms"),
    ("kernel.eval_ms", "ms"),
    ("kernel.cell_evals", "count"),
    ("kernel.ns_per_cell_eval", "ns"),
    ("sim.settle_ms", "ms"),
    ("sim.events", "count"),
    ("sim.cell_evals", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.ns_per_cell_eval", "ns"),
    ("sim.queue_peak_depth", "count"),
    ("sim.quiet_cycle_share", "ratio"),
    ("sim.merge_ms", "ms"),
    ("incremental.ms", "ms"),
    ("incremental.cells_evaluated", "count"),
    ("incremental.replayed_share", "ratio"),
    ("core.self_ms", "ms"),
    ("report.render_ms", "ms"),
    ("verify.check_ms", "ms"),
    ("verify.equivalence_ms", "ms"),
    ("verify.equivalence_compared", "count"),
    ("reduce.candidates_ms", "ms"),
    ("reduce.screen_ms", "ms"),
    ("reduce.score_ms", "ms"),
    ("reduce.iter_ms", "ms"),
    ("reduce.proposed", "count"),
    ("reduce.screened", "count"),
    ("reduce.confirmed", "count"),
    ("reduce.screen_pass_share", "ratio"),
    ("reduce.accept_share", "ratio"),
    ("reduce.glitch_power_ratio", "ratio"),
    ("serve.rtt_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.handle_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.request_parse_us", "us"),
    ("cache.netlist_hit_ratio", "ratio"),
    ("cache.baseline_hit_ratio", "ratio"),
    ("cache.program_hit_ratio", "ratio"),
    ("cache.peak_bytes", "bytes"),
    ("client.lag_ms", "ms"),
    ("obs.trace_overhead_pct", "%"),
    ("trace.replay_match", "ratio"),
];

/// Fewest ops per window of the latency percentiles: ten samples lie
/// beyond p99 in every window.
pub const OPS_PER_WINDOW: usize = 1000;

/// The result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (CLI invocations or daemon requests).
    pub attempted: u64,
    /// Operations that errored or failed their oracle.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Sets a metric; `name` must be in the catalogue.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Counts one operation and whether it passed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Sets the timing metrics from set-up repeats and per-op latencies
    /// (seconds, in the order the ops ran), and the seed-cycles one op
    /// covers. The op latency percentiles are medians over windows of
    /// [`OPS_PER_WINDOW`] ops, so a slowdown of the shared host during
    /// part of the run does not set them; with fewer ops they are the
    /// plain percentiles. Prints the op count and the hardware threads
    /// the figures were measured with.
    pub fn set_timings(&mut self, setup: &[f64], ops: &[f64], cycles_per_op: f64) {
        let threads = std::thread::available_parallelism().map_or(1, usize::from);
        println!("{{\"ops\":{},\"threads\":{threads}}}", ops.len());
        let op = windowed(ops, OPS_PER_WINDOW, median);
        let p99 = windowed(ops, OPS_PER_WINDOW, |w| percentile(w, 0.99));
        self.set("setup_s", median(setup));
        self.set("cycles_per_s", share(cycles_per_op, op));
        self.set("p50_ms", op * 1e3);
        self.set("p99_ms", p99 * 1e3);
        self.set("wall_s", op);
    }

    /// Fills the per-layer metrics derivable from a traced pass's table.
    pub fn set_layers(&mut self, table: &LayerTable, untraced_median_us: f64) {
        let total_ms = |layer: &str| {
            table
                .layers
                .get(layer)
                .map_or(0.0, |l| l.total_us as f64 / 1e3)
        };
        let counter = |name: &str| table.counters.get(name).copied().unwrap_or(0) as f64;
        for (metric, layer) in [
            ("io.parse_ms", "io.parse"),
            ("netlist.cone_index_ms", "netlist.cone_index"),
            ("kernel.compile_ms", "kernel.compile"),
            ("kernel.eval_ms", "kernel.eval"),
            ("sim.settle_ms", "sim.settle"),
            ("sim.merge_ms", "sim.merge"),
            ("incremental.ms", "incremental"),
            ("report.render_ms", "report.render"),
            ("verify.check_ms", "verify.check"),
            ("verify.equivalence_ms", "verify.equivalence"),
            ("reduce.candidates_ms", "reduce.candidates"),
            ("reduce.screen_ms", "reduce.screen"),
            ("reduce.score_ms", "reduce.score"),
            ("reduce.iter_ms", "reduce.iter"),
        ] {
            self.set(metric, total_ms(layer));
        }
        self.set(
            "core.self_ms",
            table
                .layers
                .get("core")
                .map_or(0.0, |l| l.self_us as f64 / 1e3),
        );
        for (metric, name) in [
            ("kernel.cell_evals", "kernel.cell_evals"),
            ("sim.events", "sim.events"),
            ("sim.cell_evals", "sim.cell_evals"),
            ("sim.queue_peak_depth", "sim.queue_peak_depth"),
            ("incremental.cells_evaluated", "incremental.cells_evaluated"),
            ("verify.equivalence_compared", "verify.equivalence_compared"),
            ("reduce.proposed", "reduce.proposed"),
            ("reduce.screened", "reduce.screened"),
            ("reduce.confirmed", "reduce.confirmed"),
        ] {
            self.set(metric, counter(name));
        }
        // Work-normalised ratios: wall time per unit of counted work.
        self.set(
            "kernel.ns_per_cell_eval",
            share(total_ms("kernel.eval") * 1e6, counter("kernel.cell_evals")),
        );
        self.set(
            "sim.ns_per_event",
            share(total_ms("sim.settle") * 1e6, counter("sim.events")),
        );
        self.set(
            "sim.ns_per_cell_eval",
            share(total_ms("sim.settle") * 1e6, counter("sim.cell_evals")),
        );
        self.set(
            "sim.quiet_cycle_share",
            share(
                counter("kernel.cycles_quiet"),
                counter("kernel.cycles_total"),
            ),
        );
        let replayed = counter("incremental.replayed_cycles");
        self.set(
            "incremental.replayed_share",
            share(replayed, replayed + counter("incremental.simulated_cycles")),
        );
        self.set(
            "reduce.screen_pass_share",
            share(counter("reduce.screened"), counter("reduce.proposed")),
        );
        self.set(
            "reduce.accept_share",
            share(counter("reduce.accepted"), counter("reduce.confirmed")),
        );
        self.set(
            "obs.trace_overhead_pct",
            100.0
                * share(
                    table.traced_us as f64 - untraced_median_us,
                    untraced_median_us,
                ),
        );
    }

    /// The final stdout line: every catalogue metric of the mode, with
    /// its unit. Per-layer metrics a workload never reaches read 0.
    ///
    /// # Panics
    ///
    /// Panics if an end-to-end metric was not set (a benchmark bug).
    pub fn render(&self, traced: bool) -> String {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = JsonObject::new();
        for &(name, unit) in catalogue {
            let value = match self.metrics.get(name) {
                Some(v) => *v,
                None if traced => 0.0,
                None => panic!("end-to-end metric `{name}` was not measured"),
            };
            let value = if value.is_finite() { value } else { 0.0 };
            metrics = metrics.raw(
                name,
                &JsonObject::new()
                    .f64("value", value)
                    .str("unit", unit)
                    .render(),
            );
        }
        JsonObject::new()
            .bool("correct", self.failed == 0 && self.attempted > 0)
            .u64("attempted", self.attempted)
            .u64("failed", self.failed)
            .raw("metrics", &metrics.render())
            .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "metric names are used once");
        for name in names {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn render_prints_every_metric_with_its_unit() {
        let mut outcome = Outcome::default();
        for &(name, _) in END_TO_END {
            outcome.set(name, 1.5);
        }
        outcome.op(true);
        let line = outcome.render(false);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":1,\"failed\":0,"));
        assert!(line.contains("\"setup_s\":{\"value\":1.5,\"unit\":\"s\"}"));
        let traced = outcome.render(true);
        assert!(traced.contains("\"io.parse_ms\":{\"value\":0"));
        outcome.op(false);
        assert!(outcome.render(false).contains("\"correct\":false"));
    }
}
