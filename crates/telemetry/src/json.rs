//! The workspace's one JSON reader, and the helpers its hand-rolled
//! JSON writers share.
//!
//! The workspace takes no external crates, so the exporters write their
//! JSON by hand and every reader goes through [`parse`]: `cable report`
//! reading traces and report artifacts, the CLI's self-checks of what
//! it writes, and `cable-bench`'s figure loader. [`parse`] is a strict
//! RFC 8259 recursive-descent parser with a nesting cap, so hostile input
//! is an error, never a stack overflow. It builds a [`Value`] tree in one
//! linear pass; the export schema is integer/string-heavy, but any JSON
//! parses, so foreign tooling output does too.
//!
//! [`escape`] and [`decode_string`] are the string writer and reader.
//! There is one parser; the test module keeps a separate recognizer
//! only as its grammar oracle, and holds [`parse`] to it over shared
//! accept/reject lists and random JSON-like text.

use std::borrow::Cow;

/// A parsed JSON value. Strings and object keys borrow from the input
/// text unless they carry an escape.
#[derive(Clone, Debug, PartialEq)]
pub enum Value<'a> {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A plain non-negative integer literal that fits in a `u64`.
    Int(u64),
    /// Any other number: negative, fractional, with an exponent, or
    /// too large for a `u64`.
    Float(f64),
    /// A string.
    Str(Cow<'a, str>),
    /// An array.
    Arr(Vec<Value<'a>>),
    /// An object's members in input order, duplicate keys included.
    Obj(Vec<(Cow<'a, str>, Value<'a>)>),
}

impl Value<'_> {
    /// First value under `key` (exported event lines can legally repeat
    /// a key — e.g. marker events carry their own `"name"` argument —
    /// and the schema field always comes first).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Self> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string, if this is a [`Value::Str`].
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a count: an [`Value::Int`], or a non-negative
    /// [`Value::Float`] truncated toward zero.
    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::Float(f) if *f >= 0.0 => Some(*f as u64),
            _ => None,
        }
    }

    /// An array whose every item reads as [`Value::as_u64`].
    #[must_use]
    pub fn as_u64_array(&self) -> Option<Vec<u64>> {
        match self {
            Value::Arr(items) => items.iter().map(Value::as_u64).collect(),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. Report artifacts
/// and trace lines nest a handful of levels; the cap turns hostile input
/// into an error before the recursive parser can exhaust the stack.
const MAX_JSON_DEPTH: usize = 64;

/// Parses `text` as one JSON value, with optional surrounding
/// whitespace, in one linear pass.
///
/// # Errors
///
/// Returns a message naming the byte offset of the first syntax
/// violation, of trailing bytes after the value, or of nesting deeper
/// than 64 arrays/objects.
pub fn parse(text: &str) -> Result<Value<'_>, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(v)
}

/// Checks that every non-empty line of `s` is one JSON value (the
/// JSONL framing the exporter emits).
///
/// # Errors
///
/// Returns the first offending line number (1-based) and the underlying
/// syntax error.
pub fn validate_jsonl(s: &str) -> Result<(), String> {
    for (lineno, line) in s.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
    }
    Ok(())
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Containers currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at offset {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, text: &str, v: Value<'a>) -> Result<Value<'a>, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value<'a>, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at offset {}", self.pos)),
        }
    }

    /// Parses one container a level deeper, refusing to pass
    /// [`MAX_JSON_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Value<'a>, String>,
    ) -> Result<Value<'a>, String> {
        if self.depth == MAX_JSON_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_JSON_DEPTH} at offset {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Value<'a>, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(format!("expected `,` or `}}` at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value<'a>, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let (s, end) = decode_string(self.text, self.pos)?;
        self.pos = end;
        Ok(s)
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`. A plain
    /// non-negative integer that fits is [`Value::Int`], accumulated
    /// from the digits as they are scanned; anything else is a float.
    fn number(&mut self) -> Result<Value<'a>, String> {
        let start = self.pos;
        let bad = || format!("bad number at offset {start}");
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let mut int = Some(0u64);
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while let Some(d @ b'0'..=b'9') = self.peek() {
                    int = int
                        .and_then(|v| v.checked_mul(10))
                        .and_then(|v| v.checked_add(u64::from(d - b'0')));
                    self.pos += 1;
                }
            }
            _ => return Err(bad()),
        }
        let mut is_float = negative;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            self.digits().ok_or_else(bad)?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits().ok_or_else(bad)?;
        }
        match int {
            Some(v) if !is_float => Ok(Value::Int(v)),
            _ => self.text[start..self.pos]
                .parse::<f64>()
                .map(Value::Float)
                .map_err(|_| bad()),
        }
    }

    /// Consumes one or more ASCII digits; `None` when there is none.
    fn digits(&mut self) -> Option<()> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        (self.pos > start).then_some(())
    }
}

/// Decodes the JSON string literal whose opening `"` ends just before
/// byte `start` of `text`, in one left-to-right pass. Returns the string
/// and the offset just past its closing `"`. Each run between escapes
/// ends at a `"`, `\` or control byte, all ASCII, so it ends on a char
/// boundary and is taken as one slice; the result borrows from `text`
/// unless the literal holds an escape. A `\u` escape that names no
/// scalar value (a lone surrogate) decodes to U+FFFD.
///
/// # Errors
///
/// Returns a message naming the byte offset of a raw control byte or a
/// malformed escape, or that the literal is unterminated.
///
/// # Panics
///
/// Panics if `start` is past the end of `text` or not on a char
/// boundary; a position just past an opening `"` is always valid.
pub fn decode_string(text: &str, start: usize) -> Result<(Cow<'_, str>, usize), String> {
    let bytes = text.as_bytes();
    let mut pos = start;
    let mut owned: Option<String> = None;
    loop {
        let run_start = pos;
        pos += bytes[pos..]
            .iter()
            .position(|&b| matches!(b, b'"' | b'\\' | 0x00..=0x1f))
            .unwrap_or(bytes.len() - pos);
        let run = &text[run_start..pos];
        match bytes.get(pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                let s = match owned {
                    None => Cow::Borrowed(run),
                    Some(mut out) => {
                        out.push_str(run);
                        Cow::Owned(out)
                    }
                };
                return Ok((s, pos + 1));
            }
            Some(b'\\') => {
                let out = owned.get_or_insert_with(String::new);
                out.push_str(run);
                pos += 1;
                match bytes.get(pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let code = text
                            .get(pos + 1..pos + 5)
                            .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                            .ok_or_else(|| format!("invalid \\u escape at byte {pos}"))?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        pos += 4;
                    }
                    _ => return Err(format!("invalid escape at byte {pos}")),
                }
                pos += 1;
            }
            Some(_) => return Err(format!("unescaped control byte in string at {pos}")),
        }
    }
}

/// Escapes `s` for inclusion inside a JSON string literal.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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

/// The two-digit decimal strings `"00"` to `"99"`, back to back.
const DIGIT_PAIRS: &[u8; 200] = b"\
0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// Appends `v` in decimal: the one integer writer of the exporters. It
/// emits two digits per division, right to left, into a stack buffer.
pub(crate) fn write_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        i -= 1;
        buf[i] = b'0' + v as u8;
    }
    out.extend_from_slice(&buf[i..]);
}

/// Appends `values` as a JSON array of integers.
pub(crate) fn write_int_array(out: &mut Vec<u8>, values: &[u64]) {
    out.push(b'[');
    for (i, &v) in values.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        write_u64(out, v);
    }
    out.push(b']');
}

/// `values` as a JSON array of integers.
pub(crate) fn int_array(values: &[u64]) -> String {
    let mut out = Vec::new();
    write_int_array(&mut out, values);
    String::from_utf8(out).expect("digits and punctuation are ASCII")
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The grammar oracle: a recognizer that builds no value, written
    /// apart from [`parse`] so each checks the other. Accepts exactly one
    /// well-formed JSON value with optional surrounding whitespace.
    fn recognize(s: &str) -> Result<(), String> {
        let bytes = s.as_bytes();
        let mut pos = 0;
        skip_ws(bytes, &mut pos);
        value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(())
    }

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while let Some(&b) = bytes.get(*pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                *pos += 1;
            } else {
                break;
            }
        }
    }

    fn value(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
        match bytes.get(*pos) {
            Some(b'{') => object(bytes, pos),
            Some(b'[') => array(bytes, pos),
            Some(b'"') => string(bytes, pos),
            Some(b't') => literal(bytes, pos, b"true"),
            Some(b'f') => literal(bytes, pos, b"false"),
            Some(b'n') => literal(bytes, pos, b"null"),
            Some(b'-' | b'0'..=b'9') => number(bytes, pos),
            Some(&b) => Err(format!("unexpected byte {:?} at {}", b as char, *pos)),
            None => Err(format!("unexpected end of input at byte {}", *pos)),
        }
    }

    fn object(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
        *pos += 1; // consume '{'
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(());
        }
        loop {
            skip_ws(bytes, pos);
            if bytes.get(*pos) != Some(&b'"') {
                return Err(format!("expected object key at byte {}", *pos));
            }
            string(bytes, pos)?;
            skip_ws(bytes, pos);
            if bytes.get(*pos) != Some(&b':') {
                return Err(format!("expected ':' at byte {}", *pos));
            }
            *pos += 1;
            skip_ws(bytes, pos);
            value(bytes, pos)?;
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
            }
        }
    }

    fn array(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
        *pos += 1; // consume '['
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(());
        }
        loop {
            skip_ws(bytes, pos);
            value(bytes, pos)?;
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
            }
        }
    }

    fn string(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
        *pos += 1; // consume opening quote
        while let Some(&b) = bytes.get(*pos) {
            match b {
                b'"' => {
                    *pos += 1;
                    return Ok(());
                }
                b'\\' => {
                    *pos += 1;
                    match bytes.get(*pos) {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                        Some(b'u') => {
                            *pos += 1;
                            for _ in 0..4 {
                                match bytes.get(*pos) {
                                    Some(h) if h.is_ascii_hexdigit() => *pos += 1,
                                    _ => {
                                        return Err(format!("invalid \\u escape at byte {}", *pos))
                                    }
                                }
                            }
                        }
                        _ => return Err(format!("invalid escape at byte {}", *pos)),
                    }
                }
                0x00..=0x1f => return Err(format!("unescaped control byte in string at {}", *pos)),
                _ => *pos += 1,
            }
        }
        Err("unterminated string".to_string())
    }

    fn literal(bytes: &[u8], pos: &mut usize, word: &[u8]) -> Result<(), String> {
        if bytes[*pos..].starts_with(word) {
            *pos += word.len();
            Ok(())
        } else {
            Err(format!("invalid literal at byte {}", *pos))
        }
    }

    fn number(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
        let start = *pos;
        if bytes.get(*pos) == Some(&b'-') {
            *pos += 1;
        }
        match bytes.get(*pos) {
            Some(b'0') => *pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
                    *pos += 1;
                }
            }
            _ => return Err(format!("invalid number at byte {start}")),
        }
        if bytes.get(*pos) == Some(&b'.') {
            *pos += 1;
            if !matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
                return Err(format!("invalid fraction at byte {}", *pos));
            }
            while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
                *pos += 1;
            }
        }
        if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
            *pos += 1;
            if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
                *pos += 1;
            }
            if !matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
                return Err(format!("invalid exponent at byte {}", *pos));
            }
            while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
                *pos += 1;
            }
        }
        Ok(())
    }

    /// Well-formed JSON texts.
    const WELL_FORMED: &[&str] = &[
        "{}",
        "[]",
        "null",
        "true",
        "-0.5e+10",
        "\"a\\nb\\u00e9\"",
        "{\"a\":[1,2,{\"b\":null}],\"c\":\"x\"}",
        "  [1, 2]  ",
    ];

    /// Malformed JSON texts.
    const MALFORMED: &[&str] = &[
        "",
        "{",
        "[1,]",
        "{\"a\":}",
        "{'a':1}",
        "01",
        "1.",
        "1e",
        "\"unterminated",
        "truex",
        "[1] [2]",
        "{\"a\":1,}",
    ];

    /// Bytes a JSON text is made of: punctuation, digits, exponent and
    /// sign marks, the letters of the literals, and the escape lead.
    const JSON_ALPHABET: &[u8] = b"{}[]\",:-.0123456789eE tfnul\\";

    /// Random bytes, made text the way a lossy reader would.
    pub(crate) fn arbitrary_text() -> impl Strategy<Value = String> {
        proptest::collection::vec(any::<u8>(), 0..256)
            .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
    }

    /// Up to 63 bytes drawn from [`JSON_ALPHABET`]: short enough that no
    /// text nests past [`MAX_JSON_DEPTH`].
    pub(crate) fn json_like_text() -> impl Strategy<Value = String> {
        proptest::collection::vec(0..JSON_ALPHABET.len(), 0..64).prop_map(|picks| {
            picks
                .iter()
                .map(|&i| char::from(JSON_ALPHABET[i]))
                .collect()
        })
    }

    #[test]
    fn accepts_well_formed_values() {
        for ok in WELL_FORMED {
            parse(ok).unwrap_or_else(|e| panic!("{ok:?} rejected: {e}"));
        }
    }

    #[test]
    fn rejects_malformed_values() {
        for bad in MALFORMED {
            assert!(parse(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn jsonl_checks_each_line() {
        validate_jsonl("{\"a\":1}\n[2]\n\ntrue\n").expect("valid lines");
        let err = validate_jsonl("{\"a\":1}\n{bad}\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn escape_round_trips_through_the_parser() {
        let raw = "quote \" slash \\ newline \n bell \u{7}";
        let text = format!("\"{}\"", escape(raw));
        let parsed = parse(&text).expect("escaped string parses");
        assert_eq!(parsed.as_str(), Some(raw));
    }

    #[test]
    fn parser_handles_schema_lines() {
        let v = parse(
            "{\"type\":\"event\",\"name\":\"marker\",\"track\":\"marker\",\"now_ps\":5,\"seq\":0,\"name\":\"m\",\"value\":2}",
        )
        .unwrap();
        // First-wins lookup: the schema's event name, not the marker arg.
        assert_eq!(v.get("name").and_then(Value::as_str), Some("marker"));
        assert_eq!(v.get("now_ps").and_then(Value::as_u64), Some(5));
        let v = parse("{\"a\":[1,2,3],\"b\":-1.5e2,\"c\":null,\"d\":true}").unwrap();
        assert_eq!(
            v.get("a").and_then(Value::as_u64_array),
            Some(vec![1, 2, 3])
        );
        assert_eq!(v.get("b"), Some(&Value::Float(-150.0)));
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("{} trailing").is_err());
    }

    #[test]
    fn parser_and_validator_share_one_grammar() {
        // Leading zeros, a fraction without digits, a raw control byte in
        // a string and a signed `\u` escape: all outside RFC 8259.
        let strict = ["01", "-01", "1.", "1.e5", "\"a\u{1}b\"", "\"\\u+0041\""];
        for s in strict {
            assert!(recognize(s).is_err(), "{s:?} accepted");
        }
        let more = [
            "-",
            "-0",
            "0.5",
            "1E+2",
            "1e-0",
            "18446744073709551616",
            "\"\\u00E9\\uD83D\\uDE00\"",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\u{7f}\"",
            "[\"a\",]",
            "{\"a\" 1}",
        ];
        for s in WELL_FORMED
            .iter()
            .chain(MALFORMED)
            .chain(&strict)
            .chain(&more)
        {
            assert_eq!(parse(s).is_ok(), recognize(s).is_ok(), "{s:?}");
        }
    }

    #[test]
    fn parsed_strings_borrow_unless_escaped() {
        let v = parse("{\"plain\":\"caf\u{e9}\",\"esc\":\"a\\tb\\u0041\\\"\"}").unwrap();
        let Value::Obj(pairs) = &v else {
            panic!("not an object: {v:?}")
        };
        assert!(pairs.iter().all(|(k, _)| matches!(k, Cow::Borrowed(_))));
        assert!(matches!(
            v.get("plain"),
            Some(Value::Str(Cow::Borrowed("caf\u{e9}")))
        ));
        assert!(matches!(
            v.get("esc"),
            Some(Value::Str(Cow::Owned(s))) if s == "a\tbA\""
        ));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        for deep in ["[".repeat(200_000), "{\"a\":".repeat(200_000)] {
            let err = parse(&deep).unwrap_err();
            assert!(err.contains("nesting deeper than"), "{err}");
            let err = validate_jsonl(&deep).unwrap_err();
            assert!(err.starts_with("line 1:"), "{err}");
        }
        // The cap itself is inclusive: exactly MAX_JSON_DEPTH levels parse.
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nest(MAX_JSON_DEPTH)).is_ok());
        assert!(parse(&nest(MAX_JSON_DEPTH + 1)).is_err());
    }

    #[test]
    fn integer_writer_matches_display_at_every_digit_count() {
        let mut edges = vec![0, u64::MAX];
        for p in 1..20 {
            let ten = 10u64.pow(p);
            edges.extend([ten - 1, ten, ten + 1]);
        }
        for v in edges {
            let mut out = Vec::new();
            write_u64(&mut out, v);
            assert_eq!(out, v.to_string().into_bytes(), "{v}");
        }
        assert_eq!(int_array(&[]), "[]");
        assert_eq!(
            int_array(&[0, 10, u64::MAX]),
            format!("[0,10,{}]", u64::MAX)
        );
    }

    proptest! {
        #[test]
        fn integer_writer_matches_display(v in any::<u64>(), small in 0u64..1000) {
            for v in [v, small, v >> (v % 64)] {
                let mut out = vec![b'x'];
                write_u64(&mut out, v);
                prop_assert_eq!(&out[1..], v.to_string().as_bytes());
            }
        }

        #[test]
        fn parse_returns_on_arbitrary_bytes(text in arbitrary_text()) {
            let _ = parse(&text);
            let _ = validate_jsonl(&text);
        }

        #[test]
        fn parse_agrees_with_the_oracle_on_json_like_text(text in json_like_text()) {
            prop_assert_eq!(parse(&text).is_ok(), recognize(&text).is_ok(), "{:?}", text);
            let _ = validate_jsonl(&text);
        }
    }
}
