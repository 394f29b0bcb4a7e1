//! A minimal strict-JSON reader and the workspace's two JSON writers.
//!
//! The workspace's serde is an inert offline stub, so the delta wire
//! format ([`CatalogDelta::from_json`](crate::CatalogDelta::from_json))
//! and the durable-store record formats (`f1-store`) share this
//! hand-rolled reader instead. It is deliberately strict: duplicate
//! object keys, trailing data, non-finite numbers, numbers outside the
//! RFC 8259 grammar (`01`, `1.`, `-.5`) and unescaped control
//! characters in strings are rejected, so a document that parses here
//! round-trips byte-for-byte through [`quote`]/[`fmt_number`].
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
//!
//! Floats have one speller, behind [`push_number`] and [`fmt_number`]
//! (and the canonical plan keys, which call [`push_number`]): the
//! shortest decimal that reads back as the same bits, laid out as
//! Rust's `{v:?}` lays it out. It generates digits with Ryū (Adams,
//! "Ryū: Fast Float-to-String Conversion", PLDI 2018) over committed
//! 128-bit power-of-five tables. On an exact decimal tie it rounds up,
//! as the standard library does, where the paper rounds to even; its
//! bytes therefore equal `{v:?}`'s, and
//! `crates/analyze/golden/float_spellings.txt` pins them.
#![warn(clippy::format_push_string)]

use std::fmt::Write as _;

mod ryu;

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

/// Appends `v` in its shortest round-trip form, or `null` when `v` is
/// not finite — JSON has no `Infinity` or `NaN`.
///
/// The digits are Ryū's shortest (Adams, PLDI 2018), except that an
/// exact decimal tie rounds up (`233115890514796.125` spells
/// `233115890514796.13`), and the layout is `{v:?}`'s: plain decimal
/// with at least one fractional digit (`1.0`) for 1e-4 ≤ |v| < 1e16,
/// `d.ddde-N` or `d.dddeN` outside it, and `0.0`/`-0.0` for zeros. The
/// spelling is byte for byte what `{v:?}` writes.
pub fn push_number(out: &mut String, v: f64) {
    if v.is_finite() {
        ryu::push_finite(out, v);
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

/// Formats a finite float in the [`push_number`] spelling every wire
/// format in the workspace uses, or `None` for non-finite values (which
/// JSON cannot represent and the strict reader rejects).
#[must_use]
pub fn fmt_number(v: f64) -> Option<String> {
    v.is_finite().then(|| {
        let mut out = String::new();
        ryu::push_finite(&mut out, v);
        out
    })
}

/// Parses one JSON document. Strict: rejects duplicate object keys,
/// trailing bytes after the document, non-finite numbers, numbers
/// outside the RFC 8259 grammar and unescaped control characters in
/// strings.
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
            let key_at = self.pos;
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate key {key:?} at byte {key_at}"));
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

    /// Reads the string whose opening quote is at `pos`. An error names
    /// the byte of the opening quote, or of the backslash of a bad
    /// escape.
    fn string(&mut self) -> Result<String, String> {
        let open = self.pos;
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(
                // analyze::allow(indexing, reason = "start <= pos <= len: pos only advances via peek-guarded steps")
                core::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| format!("invalid UTF-8 in string at byte {open}"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let at = self.pos;
                    self.pos += 1;
                    let escape = self
                        .peek()
                        .ok_or_else(|| format!("unterminated escape at byte {at}"))?;
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
                        b'u' => self.unicode_escape(at)?,
                        other => {
                            return Err(format!(
                                "unknown escape \\{} at byte {at}",
                                char::from(other)
                            ))
                        }
                    });
                }
                Some(control) if control < 0x20 => {
                    return Err(format!(
                        "unescaped control character {control:#04x} at byte {}",
                        self.pos
                    ));
                }
                _ => return Err(format!("unterminated string at byte {open}")),
            }
        }
    }

    /// Decodes the `\uXXXX` escape whose backslash is at byte `at`;
    /// `pos` is just past the `u`. A UTF-16 high surrogate must be
    /// followed by a `\u` low surrogate, and the pair spells one scalar
    /// outside the Basic Multilingual Plane (RFC 8259 §7). A lone or
    /// reversed surrogate is an error at its own offset.
    fn unicode_escape(&mut self, at: usize) -> Result<char, String> {
        let code = self.hex4()?;
        let scalar = match code {
            0xD800..=0xDBFF => {
                let low = if self.bytes.get(self.pos..self.pos + 2) == Some(b"\\u") {
                    self.pos += 2;
                    self.hex4()?
                } else {
                    0
                };
                if !(0xDC00..=0xDFFF).contains(&low) {
                    return Err(format!("unpaired surrogate \\u{code:04X} at byte {at}"));
                }
                0x1_0000 + ((code - 0xD800) << 10) + (low - 0xDC00)
            }
            0xDC00..=0xDFFF => {
                return Err(format!("unpaired surrogate \\u{code:04X} at byte {at}"));
            }
            _ => code,
        };
        char::from_u32(scalar).ok_or_else(|| format!("non-scalar \\u escape at byte {at}"))
    }

    /// Reads the four hex digits of a `\u` escape at `pos`.
    fn hex4(&mut self) -> Result<u32, String> {
        let code = self
            .bytes
            .get(self.pos..self.pos + 4)
            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
            .and_then(|h| core::str::from_utf8(h).ok())
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| format!("truncated or non-hex \\u escape at byte {}", self.pos))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        // analyze::allow(indexing, reason = "start <= pos <= len: pos only advances via peek-guarded steps")
        let text = &self.bytes[start..self.pos];
        Some(text)
            .filter(|t| is_json_number(t))
            .and_then(|t| core::str::from_utf8(t).ok())
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|n| n.is_finite())
            .map(Value::Number)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

/// Whether `text` is a number in the RFC 8259 §6 grammar:
/// `-? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?`.
fn is_json_number(text: &[u8]) -> bool {
    /// `s` without its leading digits, and how many there were.
    fn digits(s: &[u8]) -> (usize, &[u8]) {
        let n = s.iter().take_while(|b| b.is_ascii_digit()).count();
        (n, s.get(n..).unwrap_or_default())
    }
    let unsigned = text.strip_prefix(b"-").unwrap_or(text);
    let (int, mut rest) = digits(unsigned);
    if int == 0 || (int > 1 && unsigned.first() == Some(&b'0')) {
        return false;
    }
    if let Some(fraction) = rest.strip_prefix(b".") {
        let (n, tail) = digits(fraction);
        if n == 0 {
            return false;
        }
        rest = tail;
    }
    if let Some(exponent) = rest.strip_prefix(b"e").or_else(|| rest.strip_prefix(b"E")) {
        let unsigned = exponent
            .strip_prefix(b"+")
            .or_else(|| exponent.strip_prefix(b"-"))
            .unwrap_or(exponent);
        let (n, tail) = digits(unsigned);
        if n == 0 {
            return false;
        }
        rest = tail;
    }
    rest.is_empty()
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
    }

    /// SplitMix64: the sweep's seeded, reproducible value source.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform over `lo..hi` (modulo bias is irrelevant here).
        fn within(&mut self, lo: u64, hi: u64) -> u64 {
            lo + self.next() % (hi - lo)
        }
    }

    /// Every value the sweep visits: seeded random families of `per`
    /// values each, then fixed edge families. Debug builds check
    /// 2·10⁵ values and optimized builds 10⁷ (CI's release-acceptance
    /// job runs `cargo test --release -p f1-components --lib`).
    fn sweep_values() -> Vec<f64> {
        let budget = if cfg!(debug_assertions) {
            200_000
        } else {
            10_000_000
        };
        let per = budget / 8;
        let mut rng = SplitMix(0x5eed_f10a_7d15_ca1e);
        let mut values = Vec::with_capacity(budget + 20_000);
        let bits_of = f64::to_bits;
        let sign = |rng: &mut SplitMix| if rng.next() & 1 == 1 { -1.0 } else { 1.0 };
        for _ in 0..per {
            // Any bit pattern, NaNs and infinities included.
            values.push(f64::from_bits(rng.next()));
            // Every binade from 1e-6 to 1e17, both layouts.
            let v = f64::from_bits(rng.within(bits_of(1e-6), bits_of(1e17)));
            values.push(sign(&mut rng) * v);
            // 1e14 to 1e16, where a spacing of 2^-k leaves short exact
            // expansions: most exact decimal ties live here.
            let v = f64::from_bits(rng.within(bits_of(1e14), bits_of(1e16)));
            values.push(sign(&mut rng) * v);
            // Integers up to 1e17, exact below 2^53.
            values.push(rng.within(0, 100_000_000_000_000_000) as f64);
            values.push(rng.within(0, 1 << 20) as f64);
            // Short decimal fractions k / 10^d: the nearest double to a
            // short decimal must spell as that decimal.
            let k = rng.within(1, 1 << 40) >> rng.within(0, 40);
            let d = rng.within(1, 23) as i32;
            values.push(k as f64 / 10f64.powi(d));
            // Subnormals.
            values.push(sign(&mut rng) * f64::from_bits(rng.within(1, 1 << 52)));
            // The top of the range.
            values.push(f64::from_bits(
                rng.within(bits_of(f64::MAX) - (1 << 44), bits_of(f64::MAX) + 1),
            ));
        }
        // Every power of two and every power of ten within ±2 ulps.
        let powers_of_two = (0..63).map(|k| 1u64 << k).chain((1..2047).map(|e| e << 52));
        let powers_of_ten = (-323..=308).map(|e| bits_of(format!("1e{e}").parse().unwrap()));
        for bits in powers_of_two.chain(powers_of_ten) {
            for step in -2..=2 {
                let v = f64::from_bits(bits.wrapping_add_signed(step));
                values.extend([v, -v]);
            }
        }
        values
    }

    #[test]
    fn push_number_matches_debug_and_round_trips_on_a_seeded_sweep() {
        let values = sweep_values();
        let mut text = String::new();
        let mut mismatches = Vec::new();
        for &v in &values {
            text.clear();
            push_number(&mut text, v);
            let expected = oracle_number(v);
            let back = parse(&text).ok().and_then(|n| n.as_number().ok());
            let round_trips = !v.is_finite() || back.map(f64::to_bits) == Some(v.to_bits());
            if text != expected || !round_trips {
                mismatches.push(format!("{:016x}: {text} vs {expected}", v.to_bits()));
            }
        }
        assert!(
            mismatches.is_empty(),
            "{} of {} values misspelled, first: {:?}",
            mismatches.len(),
            values.len(),
            &mismatches[..mismatches.len().min(8)]
        );
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
    fn numbers_follow_the_rfc_8259_grammar() {
        for text in ["01", "00.5", "1.", "-.5", "1.e3", "-01", "1e+"] {
            let err = parse(text).err().unwrap_or_else(|| panic!("{text} parsed"));
            assert_eq!(err, "bad number at byte 0", "{text}");
        }
        assert_eq!(parse("[1, 02]").err().unwrap(), "bad number at byte 4");
        for (text, n) in [
            ("0", 0.0),
            ("-0", -0.0),
            ("10", 10.0),
            ("0.5", 0.5),
            ("-1.5e-3", -1.5e-3),
            ("1E+2", 100.0),
            ("2e0", 2.0),
        ] {
            let back = parse(text).unwrap().as_number().unwrap();
            assert_eq!(back.to_bits(), f64::to_bits(n), "{text}");
        }
    }

    #[test]
    fn strings_reject_raw_control_characters() {
        for c in ['\u{0}', '\n', '\t', '\u{1f}'] {
            let text = format!("[\"ok\", \"a{c}b\"]");
            let err = parse(&text)
                .err()
                .unwrap_or_else(|| panic!("{text:?} parsed"));
            assert!(err.ends_with("at byte 9"), "{err}");
        }
        assert!(
            parse("\"\\u+041\"").is_err(),
            "a \\u escape takes four hex digits"
        );
        assert_eq!(
            parse("\"\u{7f}\\u0041\"").unwrap().as_str().unwrap(),
            "\u{7f}A"
        );
    }

    #[test]
    fn surrogate_pairs_decode_to_one_scalar() {
        let read = |text: &str| parse(text).unwrap().as_str().unwrap();
        assert_eq!(read(r#""\uD83D\uDE00""#), "\u{1f600}");
        assert_eq!(read(r#""a\ud834\udd1eb""#), "a\u{1d11e}b");
        // The ends of the supplementary planes.
        assert_eq!(read(r#""\uD800\uDC00""#), "\u{10000}");
        assert_eq!(read(r#""\uDBFF\uDFFF""#), "\u{10ffff}");
        // Lone, reversed and mismatched halves fail at the unpaired
        // escape's backslash.
        for text in [
            r#""x\uD83D""#,
            r#""x\uD83Dy""#,
            r#""x\uD83D\u0041""#,
            r#""x\uD83D\uD83D""#,
            r#""x\uDE00""#,
            r#""x\uDE00\uD83D""#,
        ] {
            let err = parse(text)
                .err()
                .unwrap_or_else(|| panic!("{text:?} parsed"));
            assert!(
                err.starts_with("unpaired surrogate") && err.ends_with("at byte 2"),
                "{text}: {err}"
            );
        }
        let err = parse(r#""\uD83D\uDE""#)
            .err()
            .unwrap_or_else(|| panic!("a truncated low half parsed"));
        assert!(err.ends_with("at byte 9"), "{err}");
    }

    #[test]
    fn duplicate_keys_name_the_second_key_quote() {
        assert_eq!(
            parse(r#"{"a": 1, "a": 2}"#).err().unwrap(),
            r#"duplicate key "a" at byte 9"#
        );
        assert_eq!(
            parse(r#"[0, {"k": {"a": 1}, "k": []}]"#).err().unwrap(),
            r#"duplicate key "k" at byte 20"#
        );
    }

    #[test]
    fn invalid_utf8_names_the_string_quote() {
        // `parse` takes a `&str`, so only a byte-level caller can feed the
        // scanner a broken sequence.
        let mut p = Parser {
            bytes: b"[\"ok\", \"a\xffb\"]",
            pos: 7,
        };
        assert_eq!(
            p.string().err().unwrap(),
            "invalid UTF-8 in string at byte 7"
        );
    }

    #[test]
    fn unterminated_escapes_name_the_backslash() {
        assert_eq!(
            parse("[\"ab\\").err().unwrap(),
            "unterminated escape at byte 4"
        );
    }

    #[test]
    fn unknown_escapes_name_the_backslash() {
        assert_eq!(
            parse(r#"{"k": "a\qb"}"#).err().unwrap(),
            r"unknown escape \q at byte 8"
        );
    }

    #[test]
    fn unterminated_strings_name_the_opening_quote() {
        assert_eq!(
            parse(r#"["ok", "abc"#).err().unwrap(),
            "unterminated string at byte 7"
        );
        assert_eq!(
            parse(r#"{"ke"#).err().unwrap(),
            "unterminated string at byte 1"
        );
    }

    #[test]
    fn as_bool_reads_booleans() {
        assert!(parse("true").unwrap().as_bool().unwrap());
        assert!(!parse("false").unwrap().as_bool().unwrap());
        assert!(parse("1").unwrap().as_bool().is_err());
    }
}
