//! A minimal strict-JSON reader and the workspace's two JSON writers.
//!
//! The workspace's serde is an inert offline stub, so the delta wire
//! format ([`CatalogDelta::from_json`](crate::CatalogDelta::from_json))
//! and the durable-store record formats (`f1-store`) share this
//! hand-rolled reader instead. It is deliberately strict: duplicate
//! object keys, trailing data and non-finite numbers are rejected, so a
//! document that parses here round-trips byte-for-byte through
//! [`quote`]/[`fmt_number`].
//!
//! Two string escapers live here, and their escapes differ on purpose:
//!
//! * [`push_string`]/[`push_number`] are the **wire writer**: every
//!   served document (`ResultSet::to_json`, the `f1-serve` protocol
//!   bodies) is appended through them into one buffer. Control
//!   characters are always spelled `\u00XX`, so a newline is `\u000a`.
//! * [`quote`] is the **store's** escaper: persisted delta, log,
//!   snapshot and spill records use the short `\n`, `\t` and `\r`
//!   forms, and their bytes on disk depend on that.
//!
//! Both escapers copy unescaped runs in bulk; the wire writer allocates
//! nothing per value.
#![warn(clippy::format_push_string)]

use std::fmt::Write as _;

/// A parsed JSON value.
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (the reader rejects non-finite parses).
    Number(f64),
    /// A string with escapes resolved.
    String(String),
    /// An array of values.
    Array(Vec<Value>),
    /// An object as ordered `(key, value)` pairs (duplicate keys are
    /// rejected at parse time).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The object fields, or a reason when not an object.
    ///
    /// # Errors
    ///
    /// A human-readable reason when the value is not an object.
    pub fn as_object(&self) -> Result<&[(String, Value)], String> {
        match self {
            Value::Object(fields) => Ok(fields),
            _ => Err("expected a JSON object".into()),
        }
    }

    /// The array items, or a reason when not an array.
    ///
    /// # Errors
    ///
    /// A human-readable reason when the value is not an array.
    pub fn as_array(&self) -> Result<&[Value], String> {
        match self {
            Value::Array(items) => Ok(items),
            _ => Err("expected a JSON array".into()),
        }
    }

    /// The string payload, or a reason when not a string.
    ///
    /// # Errors
    ///
    /// A human-readable reason when the value is not a string.
    pub fn as_str(&self) -> Result<String, String> {
        match self {
            Value::String(s) => Ok(s.clone()),
            _ => Err("expected a JSON string".into()),
        }
    }

    /// The numeric payload, or a reason when not a number.
    ///
    /// # Errors
    ///
    /// A human-readable reason when the value is not a number.
    pub fn as_number(&self) -> Result<f64, String> {
        match self {
            Value::Number(n) => Ok(*n),
            _ => Err("expected a JSON number".into()),
        }
    }

    /// The boolean payload, or a reason when not a boolean.
    ///
    /// # Errors
    ///
    /// A human-readable reason when the value is not a boolean.
    pub fn as_bool(&self) -> Result<bool, String> {
        match self {
            Value::Bool(b) => Ok(*b),
            _ => Err("expected a JSON boolean".into()),
        }
    }
}

/// Serializes a string as a quoted JSON string literal in the store's
/// escape style (short `\n`, `\t` and `\r` forms). The escapes it
/// emits are exactly the ones [`parse`] resolves, so
/// `parse(quote(s)) == s` for every `s` — the property the durable
/// store leans on to embed whole JSON documents as string payloads
/// without byte drift.
#[must_use]
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    push_escaped(&mut out, s, true);
    out.push('"');
    out
}

/// Appends `s` as a quoted JSON string literal in the wire escape
/// style: `\"`, `\\`, and `\u00XX` for every control character.
/// Unescaped runs are copied in bulk.
pub fn push_string(out: &mut String, s: &str) {
    out.push('"');
    push_escaped(out, s, false);
    out.push('"');
}

/// Appends `v` in its shortest round-trip form (`{v:?}`), or `null`
/// when `v` is not finite — JSON has no `Infinity` or `NaN`.
pub fn push_number(out: &mut String, v: f64) {
    if v.is_finite() {
        // Writing into a `String` cannot fail.
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

/// Appends the escaped body of a string literal. `short_forms` selects
/// the store's `\n`/`\t`/`\r` spellings over the wire's `\u00XX`.
fn push_escaped(out: &mut String, s: &str, short_forms: bool) {
    let mut rest = s;
    while let Some((at, byte)) = rest
        .bytes()
        .enumerate()
        .find(|&(_, b)| b == b'"' || b == b'\\' || b < 0x20)
    {
        // The byte found is ASCII, so both splits fall on char
        // boundaries.
        let (run, tail) = rest.split_at(at);
        out.push_str(run);
        match (byte, short_forms) {
            (b'"', _) => out.push_str("\\\""),
            (b'\\', _) => out.push_str("\\\\"),
            (b'\n', true) => out.push_str("\\n"),
            (b'\t', true) => out.push_str("\\t"),
            (b'\r', true) => out.push_str("\\r"),
            (control, _) => {
                let _ = write!(out, "\\u{control:04x}");
            }
        }
        rest = tail.split_at(1).1;
    }
    out.push_str(rest);
}

/// Formats a finite float in its shortest round-trip form (the `{v:?}`
/// canonical spelling every wire format in the workspace uses), or
/// `None` for non-finite values (which JSON cannot represent and the
/// strict reader rejects).
#[must_use]
pub fn fmt_number(v: f64) -> Option<String> {
    v.is_finite().then(|| format!("{v:?}"))
}

/// Parses one JSON document. Strict: rejects duplicate object keys,
/// trailing bytes after the document and non-finite numbers.
///
/// # Errors
///
/// A human-readable reason with a byte offset for malformed input.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}",
                char::from(byte),
                self.pos
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        // analyze::allow(indexing, reason = "pos <= len is a parser invariant; a full-range slice from pos cannot be out of bounds")
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate key {key:?}"));
            }
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(
                // analyze::allow(indexing, reason = "start <= pos <= len: pos only advances via peek-guarded steps")
                core::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid UTF-8 in string".to_owned())?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    out.push(match escape {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| core::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_owned())?;
                            self.pos += 4;
                            char::from_u32(code).ok_or("non-scalar \\u escape")?
                        }
                        other => return Err(format!("unknown escape \\{}", char::from(other))),
                    });
                }
                _ => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        // analyze::allow(indexing, reason = "start <= pos <= len: pos only advances via peek-guarded steps")
        core::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|n| n.is_finite())
            .map(Value::Number)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The wire string encoder [`push_string`] replaced, one `char` at a
    /// time: the oracle its output must equal.
    #[allow(clippy::format_push_string)] // the replaced body, kept verbatim
    fn oracle_string(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// The wire number encoder [`push_number`] replaced.
    fn oracle_number(v: f64) -> String {
        if v.is_finite() {
            format!("{v:?}")
        } else {
            "null".to_owned()
        }
    }

    /// The store escaper [`quote`] had before it copied runs in bulk.
    #[allow(clippy::format_push_string)] // the replaced body, kept verbatim
    fn oracle_quote(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    fn wire_string(s: &str) -> String {
        let mut out = String::new();
        push_string(&mut out, s);
        out
    }

    fn wire_number(v: f64) -> String {
        let mut out = String::new();
        push_number(&mut out, v);
        out
    }

    /// Quotes, backslashes, every control character, ASCII runs and one-
    /// to four-byte UTF-8.
    const AWKWARD: &str = "[\u{0}-\u{1f}\"\\a-zé✓😀 ]{0,48}";

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn push_string_matches_the_oracle_and_round_trips(s in AWKWARD) {
            let text = wire_string(&s);
            prop_assert_eq!(&text, &oracle_string(&s));
            prop_assert_eq!(parse(&text).unwrap().as_str().unwrap(), s);
        }

        #[test]
        fn quote_keeps_its_short_escapes(s in AWKWARD) {
            let text = quote(&s);
            prop_assert_eq!(&text, &oracle_quote(&s));
            prop_assert_eq!(parse(&text).unwrap().as_str().unwrap(), s);
        }

        #[test]
        fn push_number_matches_debug_and_round_trips(bits in 0u64..u64::MAX) {
            let v = f64::from_bits(bits);
            let text = wire_number(v);
            prop_assert_eq!(&text, &oracle_number(v));
            if v.is_finite() {
                prop_assert_eq!(parse(&text).unwrap().as_number().unwrap().to_bits(), bits);
            }
        }
    }

    #[test]
    fn push_number_covers_the_format_boundaries() {
        let step = |v: f64, by: i64| f64::from_bits(v.to_bits().wrapping_add_signed(by));
        let mut values = vec![
            0.0,
            -0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE / 2.0,
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
        ];
        // `{v:?}` switches to exponent form below 1e-4 and from 1e16.
        for edge in [1e-4, 1e16] {
            for v in [edge, -edge] {
                values.extend([step(v, -1), v, step(v, 1)]);
            }
        }
        for v in values {
            let text = wire_number(v);
            assert_eq!(text, format!("{v:?}"));
            let back = parse(&text).unwrap().as_number().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{text}");
        }
        for v in [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(wire_number(v), "null");
        }
        assert_eq!(wire_number(1.5), "1.5");
    }

    #[test]
    fn push_string_spells_control_characters_in_hex() {
        assert_eq!(wire_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        let mut out = String::from("[");
        push_string(&mut out, "x");
        push_number(&mut out, f64::INFINITY);
        assert_eq!(out, "[\"x\"null", "the writer appends");
    }

    #[test]
    fn quote_parse_round_trips_awkward_strings() {
        for s in [
            "",
            "plain",
            "with \"quotes\" and \\ backslashes",
            "newline\nand\ttab\rand\u{1}control",
            "unicode — ünïcødé ✓",
            "{\"nested\": [1, 2.5, null, true]}",
        ] {
            let quoted = quote(s);
            let back = parse(&quoted).unwrap().as_str().unwrap();
            assert_eq!(back, s, "round trip failed for {s:?}");
        }
    }

    #[test]
    fn fmt_number_is_shortest_round_trip() {
        for v in [0.0, 1.0, -2.5, 1e-307, 178.0, 0.1 + 0.2] {
            let text = fmt_number(v).unwrap();
            assert_eq!(text.parse::<f64>().unwrap(), v);
        }
        assert!(fmt_number(f64::NAN).is_none());
        assert!(fmt_number(f64::INFINITY).is_none());
    }

    #[test]
    fn as_bool_reads_booleans() {
        assert!(parse("true").unwrap().as_bool().unwrap());
        assert!(!parse("false").unwrap().as_bool().unwrap());
        assert!(parse("1").unwrap().as_bool().is_err());
    }
}
