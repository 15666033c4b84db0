//! Exporters: human-readable summary, stable metrics JSON, and Chrome
//! trace-event JSON (open a `--trace-out` file in Perfetto or
//! `chrome://tracing`).
//!
//! The metrics exporters render every metric sorted by name, so two equal
//! registries (the registry's `==` is name-order-insensitive) render to
//! byte-identical text/JSON — the determinism guarantee "merged metrics
//! are bit-identical at any job count" is stated over these bytes.

use std::fmt::Write as _;

use crate::metrics::{Histogram, MetricsRegistry};
use crate::span::SpanLog;

/// Escapes a string for a JSON string literal (without the quotes).
pub fn escape_json(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn histogram_json(histogram: &Histogram) -> String {
    let buckets = histogram
        .nonzero_buckets()
        .iter()
        .map(|&(i, n)| format!("[{i},{n}]"))
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[{}]}}",
        histogram.count(),
        histogram.sum(),
        histogram.min(),
        histogram.max(),
        buckets
    )
}

/// Renders a registry as one stable JSON object:
/// `{"counters":{...},"gauges":{...},"histograms":{...}}`, each section
/// sorted by metric name. Histogram buckets are `[log2 bucket index,
/// sample count]` pairs (bucket `i > 0` covers `[2^(i-1), 2^i)`, bucket 0
/// is the zero samples).
#[must_use]
pub fn metrics_json(metrics: &MetricsRegistry) -> String {
    let mut out = String::from("{\"counters\":{");
    let counters = metrics
        .counters()
        .iter()
        .map(|&(n, v)| format!("\"{}\":{v}", escape_json(n)))
        .collect::<Vec<_>>()
        .join(",");
    out.push_str(&counters);
    out.push_str("},\"gauges\":{");
    let gauges = metrics
        .gauges()
        .iter()
        .map(|&(n, v)| format!("\"{}\":{v}", escape_json(n)))
        .collect::<Vec<_>>()
        .join(",");
    out.push_str(&gauges);
    out.push_str("},\"histograms\":{");
    let histograms = metrics
        .histograms()
        .iter()
        .map(|(n, h)| format!("\"{}\":{}", escape_json(n), histogram_json(h)))
        .collect::<Vec<_>>()
        .join(",");
    out.push_str(&histograms);
    out.push_str("}}");
    out
}

/// Renders a registry as an aligned human-readable summary.
#[must_use]
pub fn metrics_text(metrics: &MetricsRegistry) -> String {
    let mut out = String::new();
    if metrics.is_empty() {
        out.push_str("metrics: (none recorded)\n");
        return out;
    }
    out.push_str("metrics:\n");
    for (name, value) in metrics.counters() {
        let _ = writeln!(out, "  {name:<40} {value}");
    }
    for (name, value) in metrics.gauges() {
        let _ = writeln!(out, "  {name:<40} {value} (max)");
    }
    for (name, histogram) in metrics.histograms() {
        let _ = writeln!(
            out,
            "  {name:<40} n={} mean={:.1} min={} max={}",
            histogram.count(),
            histogram.mean(),
            histogram.min(),
            histogram.max()
        );
    }
    out
}

/// Renders a registry in the Prometheus text exposition format (one
/// `# TYPE` line per metric, names sanitised to `[a-zA-Z0-9_]`).
/// Histograms expose cumulative `_bucket{le="..."}` series at the log2
/// bucket upper bounds (only occupied buckets, plus the mandatory
/// `+Inf`), with the usual `_sum`/`_count` pair.
#[must_use]
pub fn metrics_prometheus(metrics: &MetricsRegistry) -> String {
    fn sanitize(name: &str) -> String {
        let mut out: String = name
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            out.insert(0, '_');
        }
        out
    }
    let mut out = String::new();
    for (name, value) in metrics.counters() {
        let name = sanitize(name);
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, value) in metrics.gauges() {
        let name = sanitize(name);
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, histogram) in metrics.histograms() {
        let name = sanitize(name);
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cumulative = 0u64;
        for (index, count) in histogram.nonzero_buckets() {
            cumulative += count;
            let _ = writeln!(
                out,
                "{name}_bucket{{le=\"{}\"}} {cumulative}",
                crate::metrics::bucket_upper_bound(index)
            );
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", histogram.count());
        let _ = writeln!(out, "{name}_sum {}", histogram.sum());
        let _ = writeln!(out, "{name}_count {}", histogram.count());
    }
    out
}

/// Renders a span log as a Chrome trace-event JSON array of complete
/// (`"ph":"X"`) events — load the file in Perfetto (<https://ui.perfetto.dev>)
/// or `chrome://tracing`. Timestamps and durations are microseconds on the
/// log's [`crate::Clock`] timeline.
#[must_use]
pub fn chrome_trace(log: &SpanLog) -> String {
    chrome_trace_with_tracks(log, &[])
}

/// [`chrome_trace`] with named tracks: each `(tid, name)` pair emits a
/// `thread_name` metadata event, so long-lived consumers (the serving
/// layer's worker pool) label their per-worker rows in Perfetto instead
/// of showing bare thread ids.
#[must_use]
pub fn chrome_trace_with_tracks(log: &SpanLog, tracks: &[(u64, &str)]) -> String {
    let events = tracks
        .iter()
        .map(|&(tid, name)| {
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                escape_json(name)
            )
        })
        .chain(log.records().iter().map(|r| {
            let args = if r.args.is_empty() {
                String::new()
            } else {
                let rendered = r
                    .args
                    .iter()
                    .map(|(k, v)| format!("\"{}\":{v}", escape_json(k)))
                    .collect::<Vec<_>>()
                    .join(",");
                format!(",\"args\":{{{rendered}}}")
            };
            format!(
                "{{\"name\":\"{}\",\"cat\":\"glitch\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":1,\"tid\":{}{args}}}",
                escape_json(&r.name),
                r.start_micros,
                r.dur_micros,
                r.tid
            )
        }))
        .collect::<Vec<_>>()
        .join(",\n");
    format!("[\n{events}\n]\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Clock;

    fn sample() -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        let c = m.counter("b.counter");
        let c2 = m.counter("a.counter");
        let g = m.gauge("g.peak");
        let h = m.histogram("h.values");
        m.add(c, 2);
        m.add(c2, 1);
        m.observe_max(g, 9);
        m.record(h, 5);
        m
    }

    #[test]
    fn metrics_json_is_sorted_and_stable() {
        let json = metrics_json(&sample());
        assert_eq!(
            json,
            "{\"counters\":{\"a.counter\":1,\"b.counter\":2},\
             \"gauges\":{\"g.peak\":9},\
             \"histograms\":{\"h.values\":{\"count\":1,\"sum\":5,\"min\":5,\"max\":5,\
             \"buckets\":[[3,1]]}}}"
        );
    }

    #[test]
    fn equal_registries_render_identically() {
        let a = sample();
        // Same metrics registered in a different order.
        let mut b = MetricsRegistry::new();
        let h = b.histogram("h.values");
        let g = b.gauge("g.peak");
        let c2 = b.counter("a.counter");
        let c = b.counter("b.counter");
        b.record(h, 5);
        b.observe_max(g, 9);
        b.add(c2, 1);
        b.add(c, 2);
        assert_eq!(a, b);
        assert_eq!(metrics_json(&a), metrics_json(&b));
        assert_eq!(metrics_text(&a), metrics_text(&b));
    }

    #[test]
    fn text_summary_mentions_every_metric() {
        let text = metrics_text(&sample());
        for name in ["a.counter", "b.counter", "g.peak", "h.values"] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
        assert!(metrics_text(&MetricsRegistry::new()).contains("none recorded"));
    }

    #[test]
    fn chrome_trace_is_an_event_array() {
        let log = SpanLog::new(Clock::new());
        log.record("parse", 0, 10, 5);
        log.record("shard \"q\"", 2, 20, 7);
        let trace = chrome_trace(&log);
        assert!(trace.starts_with("[\n"));
        assert!(trace.ends_with("\n]\n"));
        assert!(trace.contains("\"name\":\"parse\""));
        assert!(trace.contains("\"ph\":\"X\""));
        assert!(trace.contains("\"ts\":10"));
        assert!(trace.contains("\"dur\":5"));
        assert!(trace.contains("\"tid\":2"));
        assert!(trace.contains("shard \\\"q\\\""));
    }

    #[test]
    fn prometheus_exposition_covers_every_metric() {
        let text = metrics_prometheus(&sample());
        assert!(text.contains("# TYPE a_counter counter\na_counter 1\n"));
        assert!(text.contains("# TYPE b_counter counter\nb_counter 2\n"));
        assert!(text.contains("# TYPE g_peak gauge\ng_peak 9\n"));
        assert!(text.contains("# TYPE h_values histogram\n"));
        // Value 5 sits in bucket 3 ([4,8)), upper bound 7; cumulative 1.
        assert!(
            text.contains("h_values_bucket{le=\"7\"} 1\n"),
            "got:\n{text}"
        );
        assert!(text.contains("h_values_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("h_values_sum 5\n"));
        assert!(text.contains("h_values_count 1\n"));
    }

    #[test]
    fn span_args_render_into_the_trace() {
        let log = SpanLog::new(Clock::new());
        log.record_with_args("analyze m.blif", 1, 10, 5, vec![("request_id".into(), 7)]);
        let trace = chrome_trace(&log);
        assert!(
            trace.contains("\"args\":{\"request_id\":7}"),
            "got: {trace}"
        );
    }

    #[test]
    fn json_escaping_handles_control_chars() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}
