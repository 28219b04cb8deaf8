//! A minimal JSON document builder for report export.
//!
//! The workspace's `serde`/`serde_json` entries are offline vendor
//! stubs (see `DESIGN.md` §9), so the engine renders its snapshots and
//! reports through this small value tree instead. Only what the
//! reports need: objects keep insertion order, floats render with
//! enough precision to round-trip, and non-finite floats become `null`
//! (NaN/∞ are not JSON — better an explicit null than an unparseable
//! file).

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (counters, byte sizes).
    UInt(u64),
    /// A signed integer.
    Int(i64),
    /// A float; non-finite values render as `null`.
    Float(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in insertion order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, ready for [`Json::set`].
    pub fn object() -> Json {
        Json::Object(Vec::new())
    }

    /// Inserts (or replaces) a key in an object. Panics on non-objects —
    /// report-building code constructs the tree statically, so a
    /// mismatch is a programming error, not input data.
    pub fn set(&mut self, key: &str, value: Json) -> &mut Json {
        let Json::Object(entries) = self else {
            panic!("Json::set on a non-object");
        };
        if let Some(entry) = entries.iter_mut().find(|(k, _)| k == key) {
            entry.1 = value;
        } else {
            entries.push((key.to_string(), value));
        }
        self
    }

    /// Renders the document compactly (single line).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders the document with 2-space indentation.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(f) => {
                if f.is_finite() {
                    // `{f:?}` keeps a decimal point / exponent, so the
                    // value reads back as a float, not an integer.
                    let _ = write!(out, "{f:?}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                    items[i].write(out, indent, depth + 1)
                });
            }
            Json::Object(entries) => {
                write_seq(out, indent, depth, '{', '}', entries.len(), |out, i| {
                    let (k, v) = &entries[i];
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1)
                });
            }
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(step) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', step * (depth + 1)));
        }
        item(out, i);
    }
    if len > 0 {
        if let Some(step) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', step * depth));
        }
    }
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::UInt(42).render(), "42");
        assert_eq!(Json::Int(-7).render(), "-7");
        assert_eq!(Json::Float(1.5).render(), "1.5");
        assert_eq!(Json::Str("hi".into()), Json::Str("hi".to_string()));
    }

    #[test]
    fn floats_round_trip_and_non_finite_become_null() {
        assert_eq!(Json::Float(2.0).render(), "2.0", "stays a float");
        assert_eq!(Json::Float(f64::NAN).render(), "null");
        assert_eq!(Json::Float(f64::INFINITY).render(), "null");
        assert_eq!(Json::Float(0.1).render(), "0.1");
    }

    #[test]
    fn escapes_strings() {
        assert_eq!(Json::Str("a\"b\\c\nd".into()).render(), r#""a\"b\\c\nd""#);
        assert_eq!(Json::Str("\u{1}".into()).render(), "\"\\u0001\"");
    }

    #[test]
    fn object_keeps_insertion_order_and_set_replaces() {
        let mut obj = Json::object();
        obj.set("b", Json::UInt(1));
        obj.set("a", Json::UInt(2));
        obj.set("b", Json::UInt(3));
        assert_eq!(obj.render(), r#"{"b":3,"a":2}"#);
    }

    #[test]
    fn nested_pretty_output_is_valid() {
        let mut obj = Json::object();
        obj.set("xs", Json::Array(vec![Json::UInt(1), Json::UInt(2)]));
        obj.set("empty", Json::Array(vec![]));
        let pretty = obj.render_pretty();
        assert!(pretty.contains("\"xs\": [\n"));
        assert!(pretty.contains("\"empty\": []"));
        assert!(pretty.ends_with("}\n"));
    }
}
