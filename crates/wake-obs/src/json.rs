//! The workspace's one JSON writer.
//!
//! The build environment has no registry access, hence no serde; what
//! the workspace writes is small (profile exports, wire-protocol lines,
//! bench records), so it hand-rolls exactly that: string escaping and an
//! object builder. `wake-serve::json` re-exports both next to the field
//! extractors its protocol needs.

use std::fmt::{Display, Write};

/// Escape `s` as the contents of a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Incremental builder for one JSON object; fields keep insertion order.
#[derive(Default)]
pub struct Obj {
    buf: String,
}

impl Obj {
    pub fn new() -> Obj {
        Obj::default()
    }

    /// Append `"key":value`, `value` being already-valid JSON.
    fn field(mut self, key: &str, value: impl Display) -> Self {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        // Writing into a `String` cannot fail.
        let _ = write!(self.buf, "\"{}\":{}", escape(key), value);
        self
    }

    pub fn str(self, key: &str, value: &str) -> Self {
        self.field(key, format_args!("\"{}\"", escape(value)))
    }

    pub fn u64(self, key: &str, value: u64) -> Self {
        self.field(key, value)
    }

    pub fn f64(self, key: &str, value: f64) -> Self {
        // JSON has no NaN/Inf; null them rather than emit invalid output.
        if value.is_finite() {
            self.field(key, value)
        } else {
            self.field(key, "null")
        }
    }

    pub fn bool(self, key: &str, value: bool) -> Self {
        self.field(key, value)
    }

    /// Insert pre-rendered JSON (an object, array, or literal) verbatim.
    pub fn raw(self, key: &str, json: &str) -> Self {
        self.field(key, json)
    }

    /// An array of items that each display as valid JSON: numbers, or
    /// pre-rendered objects and string literals.
    pub fn array<T: Display>(self, key: &str, items: impl IntoIterator<Item = T>) -> Self {
        let items: Vec<String> = items.into_iter().map(|i| i.to_string()).collect();
        self.field(key, format_args!("[{}]", items.join(",")))
    }

    pub fn build(self) -> String {
        format!("{{{}}}", self.buf)
    }
}
