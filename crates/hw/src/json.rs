//! The workspace's one JSON reader and its one string escape.
//!
//! Every committed artifact — `COST_TABLE.json` ([`crate::table`]),
//! `BENCH_kernels.json`, `BENCH_serve.json`, `BENCH_fleet.json` — and the
//! `enode-lint --json` lines are written with one `format!` per record,
//! because each layout and float format (`{:.1}`, `{:.3}`, `{:.6e}`) is
//! part of that artifact's byte-stability contract; every string they
//! embed goes through [`escape`]. Everything that reads an artifact back
//! or checks one is well-formed goes through [`parse`]: standard JSON in
//! any layout, into a [`Value`] tree.
//!
//! A number keeps its source text, so an integer column (`latency_us`,
//! `energy_uj`) reads back exactly through [`Value::as_u64`], never
//! through an `f64`.

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, as its source text (checked against the JSON grammar).
    Number(String),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object's members, in document order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The member `key` of an object (the first, if repeated); `None` when
    /// the key is absent or `self` is not an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The member `key` of an object, read by `read` (one of the `as_*`
    /// accessors), or an error naming the key when it is absent or of the
    /// wrong kind.
    pub fn field<'a, T>(
        &'a self,
        key: &str,
        read: impl FnOnce(&'a Value) -> Option<T>,
    ) -> Result<T, String> {
        self.get(key)
            .and_then(read)
            .ok_or_else(|| format!("no `{key}` of the expected kind"))
    }

    /// The text of a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The items of an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// A number written as a non-negative integer that fits a `u64` (no
    /// sign, fraction or exponent).
    pub fn as_u64(&self) -> Option<u64> {
        self.number()
    }

    /// [`Self::as_u64`] for a `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.number()
    }

    /// Any number, rounded to the nearest `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        self.number()
    }

    fn number<T: std::str::FromStr>(&self) -> Option<T> {
        match self {
            Value::Number(text) => text.parse().ok(),
            _ => None,
        }
    }
}

/// Nesting depth past which [`parse`] refuses a document, so a hostile
/// input cannot overflow the stack (the committed artifacts nest 5 deep).
const MAX_DEPTH: usize = 64;

/// Parses one JSON document: exactly one value with only whitespace
/// around it. The error names what was expected and the line and
/// (byte) column where it was not found.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        text,
        pos: 0,
        depth: 0,
    };
    let value = p.value()?;
    p.ws();
    if p.pos < text.len() {
        return Err(p.error("trailing characters after the document"));
    }
    Ok(value)
}

/// Escapes `s` for a JSON string literal: quotes, backslashes and control
/// characters; everything else passes through.
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

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn rest(&self) -> &[u8] {
        &self.text.as_bytes()[self.pos..]
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn error(&self, what: &str) -> String {
        let before = &self.text.as_bytes()[..self.pos];
        let line = before.iter().filter(|&&b| b == b'\n').count() + 1;
        let line_start = before
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |i| i + 1);
        format!(
            "{what} at line {line}, column {}",
            self.pos - line_start + 1
        )
    }

    fn value(&mut self) -> Result<Value, String> {
        self.ws();
        match self.peek() {
            Some(b'[') => {
                let mut items = Vec::new();
                self.sequence(b']', |p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                let mut members = Vec::new();
                self.sequence(b'}', |p| {
                    p.ws();
                    if p.peek() != Some(b'"') {
                        return Err(p.error("expected a member name"));
                    }
                    let key = p.string()?;
                    p.ws();
                    if p.peek() != Some(b':') {
                        return Err(p.error("expected `:`"));
                    }
                    p.pos += 1;
                    members.push((key, p.value()?));
                    Ok(())
                })?;
                Ok(Value::Object(members))
            }
            Some(b'"') => self.string().map(Value::String),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => {
                for (word, value) in [
                    ("true", Value::Bool(true)),
                    ("false", Value::Bool(false)),
                    ("null", Value::Null),
                ] {
                    if self.rest().starts_with(word.as_bytes()) {
                        self.pos += word.len();
                        return Ok(value);
                    }
                }
                Err(self.error("expected a value"))
            }
        }
    }

    /// The comma-separated items of an array or object, from its opening
    /// bracket through `close`.
    fn sequence(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.pos += 1;
        self.ws();
        if self.peek() == Some(close) {
            self.pos += 1;
        } else {
            loop {
                item(self)?;
                self.ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(c) if c == close => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(self.error(&format!("expected `,` or `{}`", close as char))),
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            // The run stops at an ASCII byte or the end: a char boundary.
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let Some(&escaped) = self.text.as_bytes().get(self.pos + 1) else {
                        return Err(self.error("unterminated string"));
                    };
                    self.pos += 2;
                    out.push(match escaped {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => self.unicode_escape()?,
                        _ => {
                            self.pos -= 1;
                            return Err(self.error("invalid escape"));
                        }
                    });
                }
                Some(_) => return Err(self.error("unescaped control character in a string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    /// The code point of a `\uXXXX` escape (the `\u` consumed), joining a
    /// surrogate pair written as two escapes.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let high = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&high) && self.rest().starts_with(b"\\u") {
            self.pos += 2;
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(self.error("unpaired surrogate in a \\u escape"));
            }
            0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
        } else {
            high
        };
        char::from_u32(code).ok_or_else(|| self.error("unpaired surrogate in a \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        match self.rest().get(..4) {
            Some(digits) if digits.iter().all(u8::is_ascii_hexdigit) => {
                let digits = std::str::from_utf8(digits).expect("hex digits are ASCII");
                let code = u32::from_str_radix(digits, 16).expect("four hex digits");
                self.pos += 4;
                Ok(code)
            }
            _ => Err(self.error("expected four hex digits")),
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        let digits = |p: &mut Self| {
            let from = p.pos;
            while matches!(p.peek(), Some(b'0'..=b'9')) {
                p.pos += 1;
            }
            p.pos > from
        };
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.peek() == Some(b'0') {
            self.pos += 1;
        } else if !digits(self) {
            return Err(self.error("expected a digit"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !digits(self) {
                return Err(self.error("expected a digit after `.`"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !digits(self) {
                return Err(self.error("expected an exponent digit"));
            }
        }
        Ok(Value::Number(self.text[start..self.pos].to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_json_and_refuses_the_rest() {
        let doc = parse("{\"a\": [1, 2.5e-3, \"x\\\"y\"], \"b\": null}").expect("valid");
        let a = doc.get("a").and_then(Value::as_array).expect("array");
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].as_f64(), Some(2.5e-3));
        assert_eq!(a[2].as_str(), Some("x\"y"));
        assert_eq!(doc.get("b"), Some(&Value::Null));
        assert_eq!(parse("  true  "), Ok(Value::Bool(true)));
        for bad in [
            "{\"a\": }",
            "{\"a\": 1} extra",
            "[1, 2,]",
            "{\"a\": 1,}",
            "\"unterminated",
            "1.2.3",
            "01",
            "-",
            "1.",
            "1e",
            "{1: 2}",
            "{\"a\" 1}",
            "[\"tab\tinside\"]",
            "\"\\x\"",
            "\"\\",
            "",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be refused");
        }
    }

    #[test]
    fn errors_name_the_line_and_column() {
        assert_eq!(
            parse("{\n  \"a\": 1\n  \"b\": 2\n}"),
            Err("expected `,` or `}` at line 3, column 3".to_string())
        );
    }

    #[test]
    fn numbers_keep_their_text_so_integers_read_exactly() {
        // 2^64 - 1 has no exact f64; the column still reads back exactly.
        let v = parse("18446744073709551615").expect("valid");
        assert_eq!(v.as_u64(), Some(u64::MAX));
        assert_eq!(v, Value::Number("18446744073709551615".to_string()));
        for not_unsigned in ["-1", "1.0", "1e3", "18446744073709551616"] {
            assert_eq!(parse(not_unsigned).expect("valid").as_u64(), None);
        }
    }

    #[test]
    fn escape_round_trips_through_the_reader() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\n\t"), "x\\n\\t");
        assert_eq!(escape("\u{1}"), "\\u0001");
        for s in ["plain", "a\"b\\c", "x\n\r\t\u{1}\u{1f}", "µs — ✓"] {
            let doc = parse(&format!("\"{}\"", escape(s))).expect("escaped text parses");
            assert_eq!(doc.as_str(), Some(s));
        }
        assert_eq!(
            parse("\"\\u00e9\\ud83d\\ude00\\/\"")
                .expect("valid")
                .as_str(),
            Some("é😀/")
        );
        assert!(parse("\"\\ud83d\"").is_err(), "a lone surrogate is refused");
        assert!(parse("\"\\ude00\"").is_err());
    }

    #[test]
    fn nesting_is_capped() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        assert!(parse(&deep(MAX_DEPTH + 1)).is_err());
    }
}
