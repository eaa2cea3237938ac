//! The workspace's one JSON codec: a streaming [`Writer`] and an RFC 8259
//! [`parse`]r.
//!
//! The writer owns the rules a hand formatter gets wrong — string escaping,
//! the finite-or-`null` number rule and comma placement — and emits no
//! whitespace except the line breaks it is asked for; documents with a
//! spaced layout compose [`quote`] and [`fixed`] themselves. The parser
//! keeps object key order and returns `Err`, never panics, on malformed
//! input, so artifact validators are typed walks over parsed values.

use std::fmt::{Display, Write as _};

/// `s` as a JSON string literal: `"` and `\` escaped, `\n`/`\r`/`\t` by
/// name, other control characters as `\u00XX`, everything else verbatim.
pub fn quote(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
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
    out
}

/// `v` with exactly `decimals` fractional digits, or `null` when `v` is not
/// finite (JSON has no NaN or infinity).
pub fn fixed(v: f64, decimals: usize) -> String {
    if v.is_finite() {
        format!("{v:.decimals$}")
    } else {
        "null".to_string()
    }
}

/// A streaming JSON writer appending to a `String`.
///
/// Calls follow the document: `begin_object`, a [`key`](Writer::key) and a
/// value per field, `end_object`; arrays likewise. The writer places every
/// comma. A document holds one top-level value, so a JSON-lines log uses
/// one writer per line.
pub struct Writer<'a> {
    out: &'a mut String,
    /// No comma is due before the next value: a container just opened or a
    /// key was written.
    fresh: bool,
    /// A line break is due before the next token.
    line_break: bool,
}

impl<'a> Writer<'a> {
    /// A writer appending to `out`.
    pub fn new(out: &'a mut String) -> Self {
        Writer {
            out,
            fresh: true,
            line_break: false,
        }
    }

    /// Breaks the line before the next token. A separating comma stays at
    /// the end of the broken line.
    pub fn line_break(&mut self) -> &mut Self {
        self.line_break = true;
        self
    }

    /// Writes `text` as the next token: a value (after a comma when one is
    /// due), or a closing bracket. `fresh` is the state the token leaves.
    fn token(&mut self, value: bool, text: impl Display, fresh: bool) -> &mut Self {
        if value && !self.fresh {
            self.out.push(',');
        }
        if std::mem::take(&mut self.line_break) {
            self.out.push('\n');
        }
        let _ = write!(self.out, "{text}");
        self.fresh = fresh;
        self
    }

    /// Opens an object.
    pub fn begin_object(&mut self) -> &mut Self {
        self.token(true, '{', true)
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        self.token(false, '}', false)
    }

    /// Opens an array.
    pub fn begin_array(&mut self) -> &mut Self {
        self.token(true, '[', true)
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> &mut Self {
        self.token(false, ']', false)
    }

    /// Writes an object key; the next call writes its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.token(true, quote(key) + ":", true)
    }

    /// Writes a string value (escaped as by [`quote`]).
    pub fn string(&mut self, s: &str) -> &mut Self {
        self.token(true, quote(s), false)
    }

    /// Writes an integer.
    pub fn int(&mut self, v: impl Into<i128>) -> &mut Self {
        self.token(true, v.into(), false)
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.token(true, v, false)
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut Self {
        self.token(true, "null", false)
    }

    /// Writes `v` with `decimals` fixed decimals, or `null` (see [`fixed`]).
    pub fn fixed(&mut self, v: f64, decimals: usize) -> &mut Self {
        self.token(true, fixed(v, decimals), false)
    }

    /// Writes `v` in its shortest round-trip form (`1`, `0.5`), or `null`
    /// when it is not finite.
    pub fn float(&mut self, v: f64) -> &mut Self {
        if v.is_finite() {
            self.token(true, v, false)
        } else {
            self.null()
        }
    }
}

/// A parsed JSON value. Objects keep their fields in document order.
#[derive(Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// Any number (integers up to 2^53 are exact).
    Number(f64),
    /// A string, escapes resolved.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object's fields in document order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The first field named `key`, if this is an object holding one.
    fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find_map(|(k, v)| (k == key).then_some(v)),
            _ => None,
        }
    }

    /// Field `key` cast by `cast`; the error names the key and `kind`.
    fn typed<'v, T>(
        &'v self,
        key: &str,
        kind: &str,
        cast: impl FnOnce(&'v Value) -> Option<T>,
    ) -> Result<T, String> {
        let v = self
            .get(key)
            .ok_or_else(|| format!("missing key \"{key}\""))?;
        cast(v).ok_or_else(|| format!("\"{key}\" is not {kind}"))
    }

    /// The string field `key`, or an error naming the key.
    pub fn str_at(&self, key: &str) -> Result<&str, String> {
        self.typed(key, "a string", |v| match v {
            Value::String(s) => Some(s.as_str()),
            _ => None,
        })
    }

    /// The number field `key`, or an error naming the key.
    pub fn num_at(&self, key: &str) -> Result<f64, String> {
        self.typed(key, "a number", |v| match *v {
            Value::Number(n) => Some(n),
            _ => None,
        })
    }

    /// The boolean field `key`, or an error naming the key.
    pub fn bool_at(&self, key: &str) -> Result<bool, String> {
        self.typed(key, "a boolean", |v| match *v {
            Value::Bool(b) => Some(b),
            _ => None,
        })
    }

    /// The array field `key`, or an error naming the key.
    pub fn array_at(&self, key: &str) -> Result<&[Value], String> {
        self.typed(key, "an array", |v| match v {
            Value::Array(items) => Some(items.as_slice()),
            _ => None,
        })
    }

    /// The object field `key`, or an error naming the key.
    pub fn object_at(&self, key: &str) -> Result<&Value, String> {
        self.typed(key, "an object", |v| {
            matches!(v, Value::Object(_)).then_some(v)
        })
    }
}

/// Nesting deeper than this is rejected rather than risking the stack.
const MAX_DEPTH: usize = 128;

/// Parses one RFC 8259 JSON text (surrounding whitespace allowed). Any
/// malformed input — a trailing comma, an unterminated string, a bad
/// escape, trailing characters — is an `Err` naming the byte offset.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        text,
        pos: 0,
        depth: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos < text.len() {
        return Err(p.error("trailing characters"));
    }
    Ok(value)
}

struct Parser<'t> {
    text: &'t str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, found: bool, what: &str) -> Result<(), String> {
        if found {
            Ok(())
        } else {
            Err(self.error(what))
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => {
                let mut fields = Vec::new();
                self.nested(b'}', |p| {
                    p.skip_ws();
                    p.expect(p.peek() == Some(b'"'), "expected a string key")?;
                    let key = p.string()?;
                    p.skip_ws();
                    let colon = p.eat(b':');
                    p.expect(colon, "expected ':'")?;
                    fields.push((key, p.value()?));
                    Ok(())
                })?;
                Ok(Value::Object(fields))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.nested(b']', |p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(Value::Array(items))
            }
            Some(b'"') => self.string().map(Value::String),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Parses a bracketed, comma-separated sequence of `item`s (the opening
    /// bracket is next) up to and including `close`.
    fn nested(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(self.depth < MAX_DEPTH, "nesting too deep")?;
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        let mut closed = self.eat(close);
        while !closed {
            item(self)?;
            self.skip_ws();
            closed = self.eat(close);
            let separated = closed || self.eat(b',');
            self.expect(separated, "expected ',' or a closing bracket")?;
        }
        self.depth -= 1;
        Ok(())
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        let found = self.text[self.pos..].starts_with(word);
        self.expect(found, "unknown literal")?;
        self.pos += word.len();
        Ok(value)
    }

    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        self.eat(b'-');
        let int = self.eat(b'0') || self.digits();
        self.expect(int, "expected a digit")?;
        if self.eat(b'.') {
            let frac = self.digits();
            self.expect(frac, "expected a digit after '.'")?;
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            let exp = self.digits();
            self.expect(exp, "expected an exponent digit")?;
        }
        self.text[start..self.pos]
            .parse()
            .map(Value::Number)
            .map_err(|_| self.error("bad number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1; // the opening quote
        let mut out = String::new();
        loop {
            // Runs stop only at ASCII bytes, so both ends are char boundaries.
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.error("control character in string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, String> {
        let byte = self.peek();
        self.pos += 1;
        Ok(match byte {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let mut code = self.hex4()?;
                if (0xD800..0xDC00).contains(&code) {
                    // A high surrogate must pair with a following low one.
                    let paired = self.eat(b'\\') && self.eat(b'u');
                    self.expect(paired, "unpaired surrogate")?;
                    let low = self.hex4()?;
                    self.expect((0xDC00..0xE000).contains(&low), "unpaired surrogate")?;
                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                }
                char::from_u32(code).ok_or_else(|| self.error("unpaired surrogate"))?
            }
            _ => return Err(self.error("bad escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.error("bad \\u escape"))?;
        self.pos += 4;
        u32::from_str_radix(digits, 16).map_err(|_| self.error("bad \\u escape"))
    }
}
