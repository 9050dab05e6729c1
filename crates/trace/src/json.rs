//! A tiny deterministic JSON value tree.
//!
//! The workspace is dependency-free by design, so (like
//! `fearless-analyze`'s report encoder) JSON is rendered by hand. The
//! tree keeps object fields in insertion order and every producer feeds it
//! from sorted containers, so the emitted bytes are identical across runs
//! — the CI determinism gate and the golden-file tests compare them
//! verbatim. [`parse_json`] reads the rendered subset back, for the
//! cache documents, the serve wire and the bench documents alike.

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

    /// The value of this object's first field named `key`. `None` when
    /// `self` is not an object or has no such field.
    pub fn get(&self, key: &str) -> Option<&Json> {
        let Json::Obj(fields) = self else {
            return None;
        };
        fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The number, when `self` is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, when `self` is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Renders the value as pretty-printed JSON with a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Renders the value on a single line, no trailing newline — for
    /// line-oriented formats (e.g. the incremental cache's record log)
    /// where one value must occupy exactly one line.
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
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, depth + 1);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                }
                newline_indent(out, depth);
                out.push('}');
            }
        }
    }
}

/// Deepest array/object nesting [`parse_json`] accepts. The reader
/// recurses once per level, so without a bound a frame of nested `[`
/// would overflow the stack — an abort, not a panic. Everything the
/// workspace renders nests fewer than ten levels deep.
pub const MAX_DEPTH: usize = 128;

/// Parses the JSON subset [`Json::render`] and [`Json::render_compact`]
/// emit: objects, arrays, strings with the renderer's escapes, unsigned
/// integers, booleans and null, with exactly one comma between members
/// and none after the last. Returns `None` on any
/// malformed input, including nesting deeper than [`MAX_DEPTH`]. Inside
/// a token it is lenient: raw control characters in strings and leading
/// zeros in integers parse, so a bit flip there surfaces as a cache
/// checksum mismatch rather than a parse failure.
///
/// One linear pass: each run of unescaped string bytes is copied as a
/// single slice.
pub fn parse_json(text: &str) -> Option<Json> {
    let mut reader = Reader { text, pos: 0 };
    let v = reader.value(0)?;
    reader.skip_ws();
    (reader.pos == text.len()).then_some(v)
}

/// Cursor over the already UTF-8-validated document.
struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl Reader<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace and consumes `byte` if it comes next.
    fn eat(&mut self, byte: u8) -> bool {
        self.skip_ws();
        let hit = self.peek() == Some(byte);
        if hit {
            self.pos += 1;
        }
        hit
    }

    fn literal(&mut self, word: &str, v: Json) -> Option<Json> {
        self.text[self.pos..].starts_with(word).then(|| {
            self.pos += word.len();
            v
        })
    }

    /// Parses `[ item (, item)* ]` or `{ member (, member)* }` after the
    /// opening bracket, calling `item` once per element.
    fn members(&mut self, close: u8, mut item: impl FnMut(&mut Self) -> Option<()>) -> Option<()> {
        if self.eat(close) {
            return Some(());
        }
        loop {
            item(self)?;
            if self.eat(close) {
                return Some(());
            }
            if !self.eat(b',') {
                return None;
            }
        }
    }

    fn value(&mut self, depth: usize) -> Option<Json> {
        self.skip_ws();
        match self.peek()? {
            b'{' | b'[' if depth >= MAX_DEPTH => None,
            b'{' => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.members(b'}', |r| {
                    r.skip_ws();
                    let key = r.string()?;
                    if !r.eat(b':') {
                        return None;
                    }
                    fields.push((key, r.value(depth + 1)?));
                    Some(())
                })?;
                Some(Json::Obj(fields))
            }
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                self.members(b']', |r| {
                    items.push(r.value(depth + 1)?);
                    Some(())
                })?;
                Some(Json::Arr(items))
            }
            b'"' => self.string().map(Json::Str),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            b'0'..=b'9' => {
                let start = self.pos;
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
                self.text[start..self.pos].parse().ok().map(Json::U64)
            }
            _ => None,
        }
    }

    fn string(&mut self) -> Option<String> {
        if self.peek()? != b'"' {
            return None;
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            // `"` and `\` are ASCII, so the run of plain bytes before the
            // next one ends on a char boundary of the validated text (the
            // renderer leaves non-ASCII unescaped).
            let rest = &self.text.as_bytes()[self.pos..];
            let run = rest.iter().position(|&c| c == b'"' || c == b'\\')?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run + 1;
            if rest[run] == b'"' {
                return Some(out);
            }
            let escaped = match self.peek()? {
                b'"' => '"',
                b'\\' => '\\',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'u' => {
                    let hex = self.text.get(self.pos + 1..self.pos + 5)?;
                    if !hex.bytes().all(|c| c.is_ascii_hexdigit()) {
                        return None;
                    }
                    self.pos += 4;
                    char::from_u32(u32::from_str_radix(hex, 16).ok()?)?
                }
                _ => return None,
            };
            out.push(escaped);
            self.pos += 1;
        }
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
    fn take_moves_the_first_matching_field() {
        let mut v = Json::obj([("k", Json::U64(1)), ("k", Json::U64(2))]);
        assert_eq!(v.take("k"), Some(Json::U64(1)));
        assert_eq!(v.take("k"), Some(Json::Null));
        assert_eq!(v.take("missing"), None);
        assert_eq!(Json::U64(3).take("k"), None);
    }

    #[test]
    fn accessors_read_only_their_own_kind() {
        let v = Json::obj([
            ("n", Json::U64(4)),
            ("s", Json::str("x")),
            ("n", Json::U64(5)),
        ]);
        assert_eq!(v.get("n"), Some(&Json::U64(4)));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::U64(3).get("n"), None);
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(4));
        assert_eq!(v.get("s").and_then(Json::as_u64), None);
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("n").and_then(Json::as_str), None);
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
