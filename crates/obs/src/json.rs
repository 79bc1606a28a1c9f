//! Minimal flat-JSON writer and parser.
//!
//! The workspace has no registry access and vendors every dependency, so
//! the observability layer hand-rolls the one JSON shape it needs: a flat
//! object of string / integer / bool / null fields — no nesting, no
//! arrays, no floats. Both directions are covered so `tracedump` can read
//! back what [`crate::JsonlSink`] wrote. (A writer that needs more splices
//! pre-rendered JSON in through [`ObjectWriter::raw_field`]; the parser
//! does not read such objects back.)

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Builds one flat JSON object with caller-controlled field order.
#[derive(Debug, Default)]
pub struct ObjectWriter {
    buf: String,
}

impl ObjectWriter {
    /// Starts an empty object.
    pub fn new() -> Self {
        ObjectWriter { buf: String::from("{") }
    }

    fn key(&mut self, name: &str) {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        self.buf.push('"');
        self.buf.push_str(name);
        self.buf.push_str("\":");
    }

    /// Appends a string field (value is escaped).
    pub fn str_field(&mut self, name: &str, value: &str) {
        self.key(name);
        self.buf.push('"');
        for c in value.chars() {
            match c {
                '"' => self.buf.push_str("\\\""),
                '\\' => self.buf.push_str("\\\\"),
                '\n' => self.buf.push_str("\\n"),
                '\t' => self.buf.push_str("\\t"),
                '\r' => self.buf.push_str("\\r"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.buf, "\\u{:04x}", c as u32);
                }
                c => self.buf.push(c),
            }
        }
        self.buf.push('"');
    }

    /// Appends an unsigned integer field.
    pub fn u64_field(&mut self, name: &str, value: u64) {
        self.key(name);
        let _ = write!(self.buf, "{value}");
    }

    /// Appends a signed integer field.
    pub fn i64_field(&mut self, name: &str, value: i64) {
        self.key(name);
        let _ = write!(self.buf, "{value}");
    }

    /// Appends a boolean field.
    pub fn bool_field(&mut self, name: &str, value: bool) {
        self.key(name);
        self.buf.push_str(if value { "true" } else { "false" });
    }

    /// Appends an explicit `null` field.
    pub fn null_field(&mut self, name: &str) {
        self.key(name);
        self.buf.push_str("null");
    }

    /// Appends a field whose value is already JSON text — the escape hatch
    /// for what the flat schema has no type for (a fixed-precision float, a
    /// nested array). The caller vouches for `json`.
    pub fn raw_field(&mut self, name: &str, json: &str) {
        self.key(name);
        self.buf.push_str(json);
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// One parsed field value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonValue {
    /// A string (already unescaped).
    Str(String),
    /// An integer; JSON numbers with a fraction or exponent are rejected.
    Int(i128),
    /// A boolean.
    Bool(bool),
    /// An explicit `null`.
    Null,
}

/// A parsed flat object: field name → value.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct JsonObject {
    fields: BTreeMap<String, JsonValue>,
}

impl JsonObject {
    /// Raw access to a field, if present.
    pub fn get(&self, name: &str) -> Option<&JsonValue> {
        self.fields.get(name)
    }

    /// The field as a string, or an error naming the field.
    pub fn str(&self, name: &str) -> Result<&str, String> {
        match self.get(name) {
            Some(JsonValue::Str(s)) => Ok(s),
            Some(v) => Err(format!("field {name:?}: expected string, got {v:?}")),
            None => Err(format!("missing field {name:?}")),
        }
    }

    /// The field as a `u64`, or an error naming the field.
    pub fn u64(&self, name: &str) -> Result<u64, String> {
        match self.get(name) {
            Some(JsonValue::Int(i)) => {
                u64::try_from(*i).map_err(|_| format!("field {name:?}: {i} out of u64 range"))
            }
            Some(v) => Err(format!("field {name:?}: expected integer, got {v:?}")),
            None => Err(format!("missing field {name:?}")),
        }
    }

    /// The field as an `i64`, or an error naming the field.
    pub fn i64(&self, name: &str) -> Result<i64, String> {
        match self.get(name) {
            Some(JsonValue::Int(i)) => {
                i64::try_from(*i).map_err(|_| format!("field {name:?}: {i} out of i64 range"))
            }
            Some(v) => Err(format!("field {name:?}: expected integer, got {v:?}")),
            None => Err(format!("missing field {name:?}")),
        }
    }

    /// The field as a bool, or an error naming the field.
    pub fn bool(&self, name: &str) -> Result<bool, String> {
        match self.get(name) {
            Some(JsonValue::Bool(b)) => Ok(*b),
            Some(v) => Err(format!("field {name:?}: expected bool, got {v:?}")),
            None => Err(format!("missing field {name:?}")),
        }
    }

    /// Errors when the object holds a field outside `allowed` — the event
    /// schema is closed, so an unexpected field means a malformed trace.
    pub fn expect_only(&self, allowed: &[&str]) -> Result<(), String> {
        for name in self.fields.keys() {
            if !allowed.contains(&name.as_str()) {
                return Err(format!("unexpected field {name:?}"));
            }
        }
        Ok(())
    }
}

/// Parses one flat JSON object (one JSONL line).
pub fn parse_object(input: &str) -> Result<JsonObject, String> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    p.expect(b'{')?;
    let mut fields = BTreeMap::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let value = p.value()?;
            if fields.insert(key.clone(), value).is_some() {
                return Err(format!("duplicate field {key:?}"));
            }
            p.skip_ws();
            match p.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(JsonObject { fields })
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            other => Err(format!("expected {:?}, got {other:?}", want as char)),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                None => return Err("unterminated string".into()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.next().ok_or("truncated \\u escape")?;
                            code = code * 16
                                + (d as char).to_digit(16).ok_or("bad \\u escape digit")?;
                        }
                        out.push(char::from_u32(code).ok_or("invalid \\u code point")?);
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // Re-decode the UTF-8 sequence starting at this byte.
                    let start = self.pos - 1;
                    let len = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let end = (start + len).min(self.bytes.len());
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| "invalid UTF-8 in string".to_string())?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected value start {other:?}")),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("expected literal {word:?}"))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err("non-integer numbers are not part of the event schema".into());
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ASCII");
        text.parse::<i128>().map(JsonValue::Int).map_err(|e| format!("bad number {text:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_and_parser_agree() {
        let mut w = ObjectWriter::new();
        w.str_field("name", "a \"quoted\"\\ value\n");
        w.u64_field("big", u64::MAX);
        w.i64_field("neg", -3);
        w.bool_field("yes", true);
        w.null_field("nothing");
        let text = w.finish();
        let obj = parse_object(&text).unwrap();
        assert_eq!(obj.str("name").unwrap(), "a \"quoted\"\\ value\n");
        assert_eq!(obj.u64("big").unwrap(), u64::MAX);
        assert_eq!(obj.i64("neg").unwrap(), -3);
        assert!(obj.bool("yes").unwrap());
        assert_eq!(obj.get("nothing"), Some(&JsonValue::Null));
    }

    #[test]
    fn empty_object_parses() {
        assert_eq!(parse_object("{}").unwrap(), JsonObject::default());
        assert_eq!(parse_object(" { } ").unwrap(), JsonObject::default());
    }

    #[test]
    fn malformed_inputs_error() {
        for bad in ["", "{", "{\"a\":}", "{\"a\":1,}", "{\"a\":1}x", "{\"a\":1.5}", "{\"a\":1,\"a\":2}"] {
            assert!(parse_object(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn unicode_survives() {
        let mut w = ObjectWriter::new();
        w.str_field("s", "héllo → wörld");
        let text = w.finish();
        assert_eq!(parse_object(&text).unwrap().str("s").unwrap(), "héllo → wörld");
        // Escaped code points parse too.
        let obj = parse_object("{\"s\":\"\\u00e9\"}").unwrap();
        assert_eq!(obj.str("s").unwrap(), "é");
    }
}
