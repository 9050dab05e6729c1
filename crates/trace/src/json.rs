//! A tiny deterministic JSON value tree.
//!
//! The workspace is dependency-free by design, so (like
//! `fearless-analyze`'s report encoder) JSON is rendered by hand. The
//! tree keeps object fields in insertion order and every producer feeds it
//! from sorted containers, so the emitted bytes are identical across runs
//! — the CI determinism gate and the golden-file tests compare them
//! verbatim.

/// Escapes a string for inclusion in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

/// Appends `s`, escaped, to `out`. Runs of bytes that need no escape are
/// copied as one slice; every escaped byte is ASCII, so each run ends on a
/// char boundary.
fn escape_into(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// Appends `s` as a quoted, escaped JSON string literal.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Appends a newline and `depth` levels of two-space indent.
fn newline_indent(out: &mut String, depth: usize) {
    out.push('\n');
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// A JSON value. Objects preserve insertion order; determinism is the
/// producer's responsibility (emit from sorted containers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true`/`false`.
    Bool(bool),
    /// An unsigned integer (the only numeric kind the metrics need).
    U64(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with fields in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience constructor for an object from `(key, value)` pairs.
    pub fn obj(fields: impl IntoIterator<Item = (impl Into<String>, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Moves the value of this object's first field named `key` out,
    /// leaving `null` in its place, so a reader can consume a parsed
    /// document without cloning its subtrees. `None` when `self` is not
    /// an object or has no such field.
    pub fn take(&mut self, key: &str) -> Option<Json> {
        let Json::Obj(fields) = self else {
            return None;
        };
        let (_, v) = fields.iter_mut().find(|(k, _)| k == key)?;
        Some(std::mem::replace(v, Json::Null))
    }

    /// Renders the value as pretty-printed JSON with a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Renders an object of borrowed fields exactly as
    /// `Json::obj(fields).render()` would, without moving or cloning the
    /// values into a tree first.
    pub fn render_fields(fields: &[(&str, &Json)]) -> String {
        let mut out = String::new();
        write_obj(&mut out, fields.iter().map(|(k, v)| (*k, *v)), 0);
        out.push('\n');
        out
    }

    /// Renders the value on a single line, no trailing newline — for
    /// line-oriented formats (e.g. the incremental cache's write-ahead
    /// journal) where one value must occupy exactly one line.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null | Json::Bool(_) | Json::U64(_) | Json::Str(_) => self.write(out, 0),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(out, k);
                    out.push_str(": ");
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => {
                use std::fmt::Write as _;
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                newline_indent(out, depth);
                out.push(']');
            }
            Json::Obj(fields) => write_obj(out, fields.iter().map(|(k, v)| (k.as_str(), v)), depth),
        }
    }
}

/// Writes a pretty-printed object at `depth` from borrowed fields.
fn write_obj<'a>(
    out: &mut String,
    fields: impl Iterator<Item = (&'a str, &'a Json)>,
    depth: usize,
) {
    let mut empty = true;
    for (k, v) in fields {
        out.push(if empty { '{' } else { ',' });
        empty = false;
        newline_indent(out, depth + 1);
        write_str(out, k);
        out.push_str(": ");
        v.write(out, depth + 1);
    }
    if empty {
        out.push_str("{}");
    } else {
        newline_indent(out, depth);
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("a\u{2}b"), "a\\u0002b");
        assert_eq!(escape("\u{1f}é\r\t"), "\\u001fé\\r\\t");
        for b in 0u8..0x20 {
            let expected = match b {
                b'\n' => "\\n".to_string(),
                b'\r' => "\\r".to_string(),
                b'\t' => "\\t".to_string(),
                _ => format!("\\u{b:04x}"),
            };
            assert_eq!(escape(&char::from(b).to_string()), expected);
        }
    }

    #[test]
    fn render_fields_matches_an_owned_object() {
        let a = Json::Arr(vec![Json::U64(u64::MAX), Json::str("x\"y")]);
        let b = Json::Obj(Vec::new());
        assert_eq!(
            Json::render_fields(&[("a", &a), ("b", &b)]),
            Json::obj([("a", a.clone()), ("b", b.clone())]).render()
        );
        assert_eq!(Json::render_fields(&[]), "{}\n");
    }

    #[test]
    fn take_moves_the_first_matching_field() {
        let mut v = Json::obj([("k", Json::U64(1)), ("k", Json::U64(2))]);
        assert_eq!(v.take("k"), Some(Json::U64(1)));
        assert_eq!(v.take("k"), Some(Json::Null));
        assert_eq!(v.take("missing"), None);
        assert_eq!(Json::U64(3).take("k"), None);
    }

    #[test]
    fn renders_nested_deterministically() {
        let v = Json::obj([
            ("b", Json::U64(1)),
            ("a", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("c", Json::obj([("x", Json::str("y"))])),
        ]);
        let first = v.render();
        let second = v.render();
        assert_eq!(first, second);
        assert!(first.starts_with("{\n  \"b\": 1,"), "{first}");
        assert!(first.ends_with("}\n"), "{first}");
    }

    #[test]
    fn empty_containers_are_compact() {
        assert_eq!(Json::Arr(vec![]).render(), "[]\n");
        assert_eq!(Json::Obj(vec![]).render(), "{}\n");
    }

    #[test]
    fn compact_render_is_one_line() {
        let v = Json::obj([
            ("b", Json::U64(1)),
            ("a", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("c", Json::obj([("x", Json::str("y\nz"))])),
        ]);
        let line = v.render_compact();
        assert!(!line.contains('\n'), "{line}");
        assert_eq!(
            line,
            "{\"b\": 1, \"a\": [true, null], \"c\": {\"x\": \"y\\nz\"}}"
        );
    }
}
