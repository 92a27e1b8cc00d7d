//! A dependency-free JSON syntax validator.
//!
//! The exporters hand-roll their JSON (the workspace takes no external
//! crates), so the test suite and CI need an independent check that the
//! output actually parses. This is a strict RFC 8259 recursive-descent
//! recognizer: it accepts exactly well-formed JSON text and reports the
//! byte offset of the first violation. It builds no value tree.
//!
//! [`escape`] and [`decode_string`] are the string writer and reader
//! shared by the exporters, the `cable report` parser and the figure
//! loader. The validator keeps its own string scan so that it stays an
//! independent check of both.

use std::borrow::Cow;

/// Validates that `s` is one well-formed JSON value (with optional
/// surrounding whitespace).
///
/// # Errors
///
/// Returns a message naming the byte offset and nature of the first
/// syntax violation.
pub fn validate_json(s: &str) -> Result<(), String> {
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

/// Validates that every non-empty line of `s` is a well-formed JSON
/// value (the JSONL framing the exporter emits).
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
        validate_json(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
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
                                _ => return Err(format!("invalid \\u escape at byte {}", *pos)),
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Well-formed JSON texts; the report parser is held to the same
    /// lists (`report::tests::parser_and_validator_share_one_grammar`).
    pub(crate) const WELL_FORMED: &[&str] = &[
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
    pub(crate) const MALFORMED: &[&str] = &[
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

    #[test]
    fn accepts_well_formed_values() {
        for ok in WELL_FORMED {
            validate_json(ok).unwrap_or_else(|e| panic!("{ok:?} rejected: {e}"));
        }
    }

    #[test]
    fn rejects_malformed_values() {
        for bad in MALFORMED {
            assert!(validate_json(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn jsonl_checks_each_line() {
        validate_jsonl("{\"a\":1}\n[2]\n\ntrue\n").expect("valid lines");
        let err = validate_jsonl("{\"a\":1}\n{bad}\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn escape_round_trips_through_validation() {
        let escaped = escape("quote \" slash \\ newline \n bell \u{7}");
        validate_json(&format!("\"{escaped}\"")).expect("escaped string parses");
    }
}
