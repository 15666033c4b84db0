//! Dependency-free JSON emission shared by the CLI `--json` outputs and
//! the serving protocol (the sharing is what makes daemon responses
//! byte-identical to one-shot CLI runs).
//!
//! Small by design: an order-preserving object builder with typed `field`
//! methods, escaping strings with the metrics exporters'
//! [`escape_json`]. Non-finite floats serialise as
//! `null`, matching what strict JSON parsers accept.

use std::fmt::Write as _;

use glitch_obs::export::escape_json;

/// An order-preserving JSON object under construction.
#[derive(Debug, Default)]
pub struct JsonObject {
    fields: Vec<(String, String)>,
}

impl JsonObject {
    /// Starts an empty object.
    #[must_use]
    pub fn new() -> Self {
        JsonObject::default()
    }

    fn push(&mut self, key: &str, rendered: String) {
        self.fields.push((key.to_string(), rendered));
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.push(key, format!("\"{}\"", escape_json(value)));
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(mut self, key: &str, value: u64) -> Self {
        self.push(key, value.to_string());
        self
    }

    /// Adds an unsigned integer field from a `usize`.
    pub fn usize(self, key: &str, value: usize) -> Self {
        self.u64(key, value as u64)
    }

    /// Adds a float field; non-finite values become `null`.
    pub fn f64(mut self, key: &str, value: f64) -> Self {
        let rendered = if value.is_finite() {
            // `{:?}` round-trips f64 (shortest representation that parses
            // back exactly), unlike `{}` which drops the `.0` on integers —
            // both are valid JSON numbers, but round-tripping is safer.
            format!("{value:?}")
        } else {
            "null".to_string()
        };
        self.push(key, rendered);
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> Self {
        self.push(key, value.to_string());
        self
    }

    /// Adds an optional unsigned integer field; `None` becomes `null`.
    pub fn opt_usize(mut self, key: &str, value: Option<usize>) -> Self {
        let rendered = match value {
            Some(v) => v.to_string(),
            None => "null".to_string(),
        };
        self.push(key, rendered);
        self
    }

    /// Adds an already-rendered JSON value (e.g. a nested object).
    pub fn raw(mut self, key: &str, rendered: &str) -> Self {
        self.push(key, rendered.to_string());
        self
    }

    /// Renders the object as a single-line JSON string.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::from("{");
        for (i, (key, value)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", escape_json(key), value);
        }
        out.push('}');
        out
    }
}

/// Renders already-rendered JSON values as a JSON array.
#[must_use]
pub fn json_array<I>(items: I) -> String
where
    I: IntoIterator,
    I::Item: AsRef<str>,
{
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(item.as_ref());
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_typed_fields_in_order() {
        let json = JsonObject::new()
            .str("name", "c17")
            .u64("cycles", 200)
            .usize("cells", 6)
            .f64("ratio", 1.5)
            .f64("infinite", f64::INFINITY)
            .opt_usize("depth", Some(3))
            .opt_usize("missing", None)
            .raw("nested", "{\"a\":1}")
            .render();
        assert_eq!(
            json,
            "{\"name\":\"c17\",\"cycles\":200,\"cells\":6,\"ratio\":1.5,\
             \"infinite\":null,\"depth\":3,\"missing\":null,\"nested\":{\"a\":1}}"
        );
    }

    #[test]
    fn escapes_control_and_quote_characters() {
        let json = JsonObject::new().str("k", "a\"b\\c\nd\u{1}").render();
        assert_eq!(json, "{\"k\":\"a\\\"b\\\\c\\nd\\u0001\"}");
    }

    #[test]
    fn floats_round_trip() {
        let json = JsonObject::new().f64("v", 2.0).render();
        assert_eq!(json, "{\"v\":2.0}");
    }

    #[test]
    fn arrays_join_rendered_values() {
        assert_eq!(json_array(Vec::<String>::new()), "[]");
        assert_eq!(json_array(["1", "2"]), "[1,2]");
        assert_eq!(
            json_array([JsonObject::new().u64("a", 1).render()]),
            "[{\"a\":1}]"
        );
    }
}
