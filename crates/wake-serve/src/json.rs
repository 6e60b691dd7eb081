//! JSON for the wire protocol: the workspace's one writer
//! ([`wake_obs::json`]: string escaping and the [`Obj`] builder),
//! re-exported next to the field extractors for the **flat** objects the
//! protocol exchanges. The extractors are not a general JSON parser —
//! nested objects on the *request* side are out of protocol and read as
//! whatever flat match they contain first.

pub use wake_obs::json::{escape, Obj};

/// The text just past `"key":` in `json`, leading whitespace trimmed.
/// A `"key"` that no colon follows is a value, not a key; skip it.
fn value_of<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{}\"", escape(key));
    let mut rest = json;
    while let Some(at) = rest.find(&needle) {
        rest = &rest[at + needle.len()..];
        if let Some(value) = rest.trim_start().strip_prefix(':') {
            return Some(value.trim_start());
        }
    }
    None
}

/// Extract a string field from a flat JSON object, unescaping the basic
/// escapes [`escape`] produces.
pub fn field_str(json: &str, key: &str) -> Option<String> {
    let mut chars = value_of(json, key)?.strip_prefix('"')?.chars();
    let mut out = String::new();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(code)?);
                }
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
    None
}

/// Extract an unsigned integer field from a flat JSON object.
pub fn field_u64(json: &str, key: &str) -> Option<u64> {
    let value = value_of(json, key)?;
    let end = value
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(value.len());
    value[..end].parse().ok()
}

/// Extract a number field (integer or float) from a flat JSON object.
pub fn field_f64(json: &str, key: &str) -> Option<f64> {
    let value = value_of(json, key)?;
    let end = value
        .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
        .unwrap_or(value.len());
    value[..end].parse().ok()
}

/// Extract a boolean field from a flat JSON object.
pub fn field_bool(json: &str, key: &str) -> Option<bool> {
    let value = value_of(json, key)?;
    if value.starts_with("true") {
        Some(true)
    } else if value.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_builder_and_extractors() {
        let line = Obj::new()
            .str("op", "query")
            .str("name", "q\"1\"")
            .u64("deadline_ms", 250)
            .f64("t", 0.5)
            .bool("is_final", false)
            .raw("extra", "[1,2]")
            .build();
        assert_eq!(field_str(&line, "op").as_deref(), Some("query"));
        assert_eq!(field_str(&line, "name").as_deref(), Some("q\"1\""));
        assert_eq!(field_u64(&line, "deadline_ms"), Some(250));
        assert_eq!(field_f64(&line, "t"), Some(0.5));
        assert_eq!(field_bool(&line, "is_final"), Some(false));
        assert_eq!(field_str(&line, "missing"), None);
        assert_eq!(field_u64(&line, "t"), Some(0), "u64 reads digits only");
    }

    #[test]
    fn non_finite_floats_become_null() {
        let line = Obj::new().f64("v", f64::NAN).build();
        assert_eq!(line, "{\"v\":null}");
        assert_eq!(field_f64(&line, "v"), None);
    }

    #[test]
    fn key_match_requires_colon() {
        // A *value* that happens to look like a key must not match.
        let line = "{\"a\":\"op\",\"op\":\"list\"}";
        assert_eq!(field_str(line, "op").as_deref(), Some("list"));
    }
}
