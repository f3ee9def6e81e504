//! The one JSON document type of `here-bench`: every experiment builds
//! its `BENCH_*.json` report as a [`Json`] value, [`Json::write`] is the
//! only serializer, and the regression gate (the experiments' tests)
//! reads the same type back through [`parse`] — the vendored `serde` is
//! a no-op, like everywhere else in this workspace.
//!
//! A number is kept as the literal it was written or read as
//! (`Json::Num("40.000")`), never as an `f64`: the gate compares numbers
//! as text, so two documents are equal exactly when every literal is.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use here_telemetry::json_escape;

/// Deepest array/object nesting [`parse`] accepts (the deepest committed
/// document nests 3). The parser recurses per level, so the bound is what
/// keeps a hostile `[[[[…` file a typed error instead of a stack overflow.
const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, as its literal (`4096`, `40.000`, `-0.234`).
    Num(String),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in the order they were stated.
    Obj(Vec<(String, Json)>),
}

macro_rules! integer_literals {
    ($($int:ty),*) => {$(
        impl From<$int> for Json {
            fn from(v: $int) -> Json {
                Json::Num(v.to_string())
            }
        }
    )*};
}
integer_literals!(u16, u32, u64, usize);

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

/// An array of the values, in iteration order.
impl FromIterator<Json> for Json {
    fn from_iter<I: IntoIterator<Item = Json>>(items: I) -> Json {
        Json::Arr(items.into_iter().collect())
    }
}

/// An object from `(key, value)` pairs, in the order given.
pub(crate) fn obj<const N: usize>(members: [(&str, Json); N]) -> Json {
    Json::Obj(members.map(|(k, v)| (k.to_string(), v)).into())
}

/// A float with exactly `decimals` fractional digits (`{v:.decimals$}`).
pub(crate) fn fixed(v: f64, decimals: usize) -> Json {
    assert!(v.is_finite(), "{v} has no JSON literal");
    Json::Num(format!("{v:.decimals$}"))
}

/// A 64-bit fingerprint as the string `0x` + 16 hex digits.
pub(crate) fn hex64(v: u64) -> Json {
    Json::Str(format!("0x{v:016x}"))
}

/// A 32-bit hash as the string `0x` + 8 hex digits.
pub(crate) fn hex32(v: u32) -> Json {
    Json::Str(format!("0x{v:08x}"))
}

impl Json {
    /// The member `key` of an object (`None` for a missing key or a
    /// non-object).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Serializes the value: two-space indent, one member or element per
    /// line, `{}` / `[]` when empty, trailing newline.
    pub fn write(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_into(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(literal) => out.push_str(literal),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => write_block(out, depth, ['[', ']'], items, |out, item| {
                item.write_into(out, depth + 1)
            }),
            Json::Obj(members) => write_block(out, depth, ['{', '}'], members, |out, (k, v)| {
                write_string(out, k);
                out.push_str(": ");
                v.write_into(out, depth + 1)
            }),
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    let _ = write!(out, "\"{}\"", json_escape(s));
}

fn write_block<T>(
    out: &mut String,
    depth: usize,
    [open, close]: [char; 2],
    items: &[T],
    mut write_item: impl FnMut(&mut String, &T),
) {
    out.push(open);
    for (i, item) in items.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&"  ".repeat(depth + 1));
        write_item(out, item);
    }
    if !items.is_empty() {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push(close);
}

/// Parses a JSON document. Returns a human-readable error with the byte
/// offset on malformed input, which includes a duplicated key, a number
/// outside the JSON grammar, a lone `\u` surrogate half and nesting
/// deeper than 64.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        input,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn nested(&mut self, container: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.input[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = &self.input[start..self.pos];
        if is_number_literal(text) {
            Ok(Json::Num(text.to_string()))
        } else {
            Err(format!("bad number '{text}' at byte {start}"))
        }
    }

    /// The four hex digits of the `\uXXXX` escape whose `u` is at
    /// `self.pos`; leaves `pos` on the last digit.
    fn hex4(&mut self) -> Result<u16, String> {
        let hex = self
            .input
            .get(self.pos + 1..self.pos + 5)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos += 4;
        Ok(u16::from_str_radix(hex, 16).expect("four hex digits"))
    }

    /// Decodes a run of adjacent `\u` escapes as UTF-16, so an escaped
    /// surrogate pair is one character and a lone half is an error.
    fn unicode_escapes(&mut self) -> Result<String, String> {
        let at = self.pos;
        let mut units = vec![self.hex4()?];
        while self.input[self.pos + 1..].starts_with("\\u") {
            self.pos += 2;
            units.push(self.hex4()?);
        }
        String::from_utf16(&units).map_err(|_| format!("lone surrogate at byte {at}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => out.push_str(&self.unicode_escapes()?),
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or escape
                    // (both ASCII, so the cut is a char boundary).
                    let rest = &self.input[self.pos..];
                    let run = rest.find(['"', '\\']).unwrap_or(rest.len());
                    out.push_str(&rest[..run]);
                    self.pos += run;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        let mut seen = BTreeSet::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key_at = self.pos;
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            // A key stated twice must not let one value hide the other
            // from the gate, whichever of the two is the good one.
            if !seen.insert(key.clone()) {
                return Err(format!("duplicate key '{key}' at byte {key_at}"));
            }
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

/// The JSON number grammar:
/// `-? (0 | [1-9][0-9]*) (\. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
fn is_number_literal(text: &str) -> bool {
    let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    let (mantissa, exponent) = match text.split_once(['e', 'E']) {
        Some((m, e)) => (m, Some(e.strip_prefix(['+', '-']).unwrap_or(e))),
        None => (text, None),
    };
    let unsigned = mantissa.strip_prefix('-').unwrap_or(mantissa);
    let (int, fraction) = match unsigned.split_once('.') {
        Some((i, f)) => (i, Some(f)),
        None => (unsigned, None),
    };
    digits(int)
        && (int == "0" || !int.starts_with('0'))
        && fraction.is_none_or(digits)
        && exponent.is_none_or(digits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_has_one_layout() {
        let doc = obj([
            ("experiment", "demo".into()),
            ("pages", 4096u64.into()),
            ("ratio", fixed(4.6549, 2)),
            ("whole", fixed(40.0, 3)),
            ("fingerprint", hex64(0xf95a_4248_ab7a_4570)),
            ("hash", hex32(0x9f4e)),
            (
                "rows",
                Json::Arr(vec![obj([("ok", true.into())]), Json::Null]),
            ),
            ("none", Json::Arr(vec![])),
            ("empty", obj([])),
        ]);
        assert_eq!(
            doc.write(),
            r#"{
  "experiment": "demo",
  "pages": 4096,
  "ratio": 4.65,
  "whole": 40.000,
  "fingerprint": "0xf95a4248ab7a4570",
  "hash": "0x00009f4e",
  "rows": [
    {
      "ok": true
    },
    null
  ],
  "none": [],
  "empty": {}
}
"#
        );
        assert_eq!(doc.get("pages"), Some(&Json::Num("4096".to_string())));
        assert_eq!(doc.get("absent"), None);
        assert_eq!(Json::Null.get("pages"), None);
    }

    #[test]
    fn strings_and_keys_are_escaped_by_the_writer_and_read_back() {
        // Every value an experiment interpolates is benign today; the
        // writer escapes regardless, so a rule name with a quote in it
        // cannot produce a file the gate rejects.
        let hostile = "a\"b\\c\nd\u{1}é😀";
        let doc = obj([(hostile, hostile.into())]);
        assert_eq!(parse(&doc.write()), Ok(doc));
    }

    #[test]
    #[should_panic(expected = "has no JSON literal")]
    fn non_finite_floats_have_no_literal() {
        let _ = fixed(f64::NAN, 3);
    }

    #[test]
    fn number_grammar_is_checked() {
        for good in [
            "0", "-0", "7", "4096", "40.000", "-0.234", "1e9", "1.5E-3", "2e+7",
        ] {
            assert!(is_number_literal(good), "{good}");
        }
        for bad in [
            "", "-", "01", "-01", "1.", ".5", "1e", "1e+", "1.5.2", "1-2", "+1", "1e5.0",
        ] {
            assert!(!is_number_literal(bad), "{bad}");
        }
    }
}
