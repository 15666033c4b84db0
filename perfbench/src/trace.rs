//! Layer attribution for the traced run: spans recorded by the benchmark
//! around its calls into each crate, kept in a `glitch_obs::SpanLog` and
//! exported as a Chrome trace, plus the per-layer self-time table.
//!
//! Spans nest on one track. A span's self time is its duration minus the
//! durations of its direct children, so the self times of one traced pass
//! add up exactly (in whole microseconds) to the pass's root span.

use std::cell::RefCell;
use std::collections::BTreeMap;

use glitch_obs::export::chrome_trace;
use glitch_obs::{Clock, SpanLog};
use glitch_serve::json::JsonObject;
use glitch_serve::jsonin::JsonValue;

/// Time spent in one layer during one pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Wall time inside the layer's spans, children included.
    pub total_us: u64,
    /// Wall time inside the layer's spans, children excluded.
    pub self_us: u64,
    /// Number of spans.
    pub calls: u64,
}

struct Open {
    name: &'static str,
    start: u64,
    child_us: u64,
}

/// Records nested spans when on; runs the closures bare when off, so an
/// untraced pass does the same work without touching the clock.
pub struct Tracer {
    on: bool,
    log: SpanLog,
    stack: RefCell<Vec<Open>>,
    layers: RefCell<BTreeMap<&'static str, LayerTime>>,
    counters: RefCell<BTreeMap<String, u64>>,
}

impl Tracer {
    /// A tracer that records spans (`on`) or only runs the closures.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            log: SpanLog::with_capacity(Clock::new(), 1 << 16),
            stack: RefCell::new(Vec::new()),
            layers: RefCell::new(BTreeMap::new()),
            counters: RefCell::new(BTreeMap::new()),
        }
    }

    /// Runs `f` inside a span named after its layer.
    pub fn span<T>(&self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = self.log.clock().now_micros();
        self.stack.borrow_mut().push(Open {
            name: layer,
            start,
            child_us: 0,
        });
        let out = f();
        let end = self.log.clock().now_micros();
        let open = self.stack.borrow_mut().pop().expect("span stack");
        let dur = end.saturating_sub(open.start);
        if let Some(parent) = self.stack.borrow_mut().last_mut() {
            parent.child_us += dur;
        }
        let mut layers = self.layers.borrow_mut();
        let entry = layers.entry(open.name).or_default();
        entry.total_us += dur;
        entry.self_us += dur.saturating_sub(open.child_us);
        entry.calls += 1;
        self.log.record(open.name, 0, open.start, dur);
        out
    }

    /// Adds `n` to a work counter (counted traced or not).
    pub fn count(&self, name: &str, n: u64) {
        *self
            .counters
            .borrow_mut()
            .entry(name.to_string())
            .or_default() += n;
    }

    /// Raises a gauge-style counter to at least `value`.
    pub fn count_max(&self, name: &str, value: u64) {
        let mut counters = self.counters.borrow_mut();
        let entry = counters.entry(name.to_string()).or_default();
        *entry = (*entry).max(value);
    }

    /// Per-layer times recorded so far.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        self.layers.borrow().clone()
    }

    /// Work counters recorded so far.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.counters.borrow().clone()
    }

    /// The recorded spans as a Chrome trace (`chrome://tracing`, Perfetto).
    pub fn chrome_trace(&self) -> String {
        chrome_trace(&self.log)
    }
}

/// The traced run's attribution summary, written next to the Chrome trace
/// and read back by the compare mode.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTable {
    /// Workload name.
    pub workload: String,
    /// Median wall time of the untraced passes.
    pub untraced_us: u64,
    /// Wall time of the traced pass the table describes (its root span).
    pub traced_us: u64,
    /// Per-layer times of that traced pass.
    pub layers: BTreeMap<String, LayerTime>,
    /// Work counters of that traced pass.
    pub counters: BTreeMap<String, u64>,
}

impl LayerTable {
    /// Tracing overhead: traced minus untraced wall (may be negative when
    /// it is below the run-to-run noise).
    pub fn overhead_us(&self) -> i64 {
        self.traced_us as i64 - self.untraced_us as i64
    }

    /// Sum of all self times; equals `traced_us` by construction.
    pub fn self_sum_us(&self) -> u64 {
        self.layers.values().map(|l| l.self_us).sum()
    }

    /// The table as printed by the traced run (self time descending).
    pub fn render(&self) -> String {
        let mut rows: Vec<(&String, &LayerTime)> = self.layers.iter().collect();
        rows.sort_by(|a, b| b.1.self_us.cmp(&a.1.self_us).then(a.0.cmp(b.0)));
        let mut out = format!(
            "per-layer self time, {} (traced pass {:.3} ms)\n{:<24} {:>12} {:>12} {:>7} {:>7}\n",
            self.workload,
            ms(self.traced_us),
            "layer",
            "self ms",
            "total ms",
            "share",
            "calls"
        );
        for (name, layer) in rows {
            out.push_str(&format!(
                "{:<24} {:>12.3} {:>12.3} {:>6.1}% {:>7}\n",
                name,
                ms(layer.self_us),
                ms(layer.total_us),
                100.0 * layer.self_us as f64 / self.traced_us.max(1) as f64,
                layer.calls
            ));
        }
        out.push_str(&format!(
            "sum of self times {:.3} ms = untraced wall {:.3} ms + tracing overhead {:.3} ms\n",
            ms(self.self_sum_us()),
            ms(self.untraced_us),
            self.overhead_us() as f64 / 1e3
        ));
        out
    }

    /// Serialises the table for the compare mode.
    pub fn to_json(&self) -> String {
        let mut layers = JsonObject::new();
        for (name, layer) in &self.layers {
            layers = layers.raw(
                name,
                &JsonObject::new()
                    .u64("self_us", layer.self_us)
                    .u64("total_us", layer.total_us)
                    .u64("calls", layer.calls)
                    .render(),
            );
        }
        let mut counters = JsonObject::new();
        for (name, value) in &self.counters {
            counters = counters.u64(name, *value);
        }
        JsonObject::new()
            .str("workload", &self.workload)
            .u64("untraced_us", self.untraced_us)
            .u64("traced_us", self.traced_us)
            .raw("layers", &layers.render())
            .raw("counters", &counters.render())
            .render()
    }

    /// Reads a table written by [`LayerTable::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message for malformed input.
    pub fn from_json(text: &str) -> Result<LayerTable, String> {
        let value = glitch_serve::jsonin::parse_json(text).map_err(|e| e.to_string())?;
        let JsonValue::Object(map) = value else {
            return Err("layer table must be a JSON object".into());
        };
        let uint = |map: &BTreeMap<String, JsonValue>, key: &str| {
            map.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("layer table: missing `{key}`"))
        };
        let object = |key: &str| match map.get(key) {
            Some(JsonValue::Object(inner)) => Ok(inner),
            _ => Err(format!("layer table: missing object `{key}`")),
        };
        let mut layers = BTreeMap::new();
        for (name, value) in object("layers")? {
            let JsonValue::Object(entry) = value else {
                return Err(format!("layer table: `{name}` is not an object"));
            };
            layers.insert(
                name.clone(),
                LayerTime {
                    self_us: uint(entry, "self_us")?,
                    total_us: uint(entry, "total_us")?,
                    calls: uint(entry, "calls")?,
                },
            );
        }
        let mut counters = BTreeMap::new();
        for (name, value) in object("counters")? {
            let value = value
                .as_u64()
                .ok_or_else(|| format!("layer table: counter `{name}` is not a count"))?;
            counters.insert(name.clone(), value);
        }
        Ok(LayerTable {
            workload: map
                .get("workload")
                .and_then(JsonValue::as_str)
                .unwrap_or_default()
                .to_string(),
            untraced_us: uint(&map, "untraced_us")?,
            traced_us: uint(&map, "traced_us")?,
            layers,
            counters,
        })
    }
}

fn ms(us: u64) -> f64 {
    us as f64 / 1e3
}

/// Diffs two traced runs layer by layer (self time) and counter by
/// counter, printing every ratio with its base.
pub fn compare(base: &LayerTable, new: &LayerTable) -> String {
    let ratio = |b: f64, n: f64| {
        if b == 0.0 {
            "   n/a".to_string()
        } else {
            format!("{:>6.3}", n / b)
        }
    };
    let mut out = format!(
        "compare {} -> {}\n{:<28} {:>14} {:>14} {:>7}\n",
        base.workload, new.workload, "self time (ms)", "base", "new", "new/base"
    );
    let mut names: Vec<&String> = base.layers.keys().chain(new.layers.keys()).collect();
    names.sort();
    names.dedup();
    let wall = [("wall (untraced)", base.untraced_us, new.untraced_us)];
    for (name, b, n) in wall {
        out.push_str(&format!(
            "{:<28} {:>14.3} {:>14.3} {}\n",
            name,
            ms(b),
            ms(n),
            ratio(b as f64, n as f64)
        ));
    }
    for name in names {
        let b = base.layers.get(name).map_or(0, |l| l.self_us);
        let n = new.layers.get(name).map_or(0, |l| l.self_us);
        out.push_str(&format!(
            "{:<28} {:>14.3} {:>14.3} {}\n",
            name,
            ms(b),
            ms(n),
            ratio(b as f64, n as f64)
        ));
    }
    out.push_str(&format!(
        "{:<28} {:>14} {:>14}\n",
        "work counter", "base", "new"
    ));
    let mut names: Vec<&String> = base.counters.keys().chain(new.counters.keys()).collect();
    names.sort();
    names.dedup();
    for name in names {
        let b = base.counters.get(name).copied().unwrap_or(0);
        let n = new.counters.get(name).copied().unwrap_or(0);
        out.push_str(&format!(
            "{:<28} {:>14} {:>14} {}\n",
            name,
            b,
            n,
            ratio(b as f64, n as f64)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(micros: u64) {
        let start = std::time::Instant::now();
        while start.elapsed().as_micros() < u128::from(micros) {}
    }

    #[test]
    fn self_times_add_up_to_the_root_span() {
        let tracer = Tracer::new(true);
        tracer.span("root", || {
            busy(200);
            tracer.span("a", || {
                busy(300);
                tracer.span("b", || busy(400));
            });
            tracer.span("b", || busy(100));
        });
        let layers = tracer.layers();
        let root = layers["root"];
        let sum: u64 = layers.values().map(|l| l.self_us).sum();
        assert_eq!(sum, root.total_us);
        assert_eq!(layers["b"].calls, 2);
        assert!(layers["a"].total_us >= layers["a"].self_us + 400);
        assert!(tracer.chrome_trace().contains("\"name\":\"b\""));
    }

    #[test]
    fn an_untraced_tracer_records_nothing_but_counts() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("root", || 7), 7);
        tracer.count("sim.events", 3);
        tracer.count("sim.events", 4);
        tracer.count_max("queue.peak", 9);
        tracer.count_max("queue.peak", 2);
        assert!(tracer.layers().is_empty());
        assert_eq!(tracer.counters()["sim.events"], 7);
        assert_eq!(tracer.counters()["queue.peak"], 9);
    }

    #[test]
    fn tables_round_trip_and_compare() {
        let mut table = LayerTable {
            workload: "w".into(),
            untraced_us: 1000,
            traced_us: 1010,
            ..LayerTable::default()
        };
        table.layers.insert(
            "sim.settle".into(),
            LayerTime {
                total_us: 900,
                self_us: 900,
                calls: 2,
            },
        );
        table.layers.insert(
            "root".into(),
            LayerTime {
                total_us: 1010,
                self_us: 110,
                calls: 1,
            },
        );
        table.counters.insert("sim.events".into(), 42);
        let back = LayerTable::from_json(&table.to_json()).unwrap();
        assert_eq!(back, table);
        assert_eq!(back.self_sum_us(), back.traced_us);
        assert_eq!(back.overhead_us(), 10);
        let mut faster = table.clone();
        faster.layers.get_mut("sim.settle").unwrap().self_us = 450;
        let diff = compare(&table, &faster);
        assert!(diff.contains("sim.settle"));
        assert!(diff.contains(" 0.500"), "{diff}");
        assert!(table.render().contains("tracing overhead"));
    }
}
