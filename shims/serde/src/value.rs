//! The JSON value tree shared by the `serde` and `serde_json` shims, the
//! scalar writers every [`Serialize`](crate::Serialize) impl appends with,
//! tree rendering (compact and pretty) and the parser.

use std::fmt::{self, Write as _};

/// Deepest array/object nesting [`parse`] accepts. Every document this
/// workspace writes nests under 12 levels; the cap turns a hostile line of
/// two million `[` into an [`Error`] instead of a stack overflow.
pub(crate) const MAX_DEPTH: usize = 128;

/// A parsed or to-be-rendered JSON document.
///
/// Integers keep their signedness (`Int` / `UInt`) so that `u64`/`i64`
/// round-trip losslessly; `Float` covers everything parsed with a decimal
/// point or exponent.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Signed integer without fractional part.
    Int(i64),
    /// Unsigned integer without fractional part.
    UInt(u64),
    /// Any other finite number.
    Float(f64),
    /// String.
    Str(String),
    /// Ordered array.
    Array(Vec<Value>),
    /// Object; insertion order is preserved.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Coerce to `i64` if the value is an in-range integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            Value::UInt(n) => i64::try_from(*n).ok(),
            Value::Float(f) if f.fract() == 0.0 && f.abs() < 9.0e18 => Some(*f as i64),
            _ => None,
        }
    }

    /// Coerce to `u64` if the value is a non-negative in-range integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(n) => Some(*n),
            Value::Int(n) => u64::try_from(*n).ok(),
            // `u64::MAX as f64` rounds up to exactly 2^64, so `< 2^64`
            // is the precise bound for a lossless-in-range cast.
            Value::Float(f) if f.fract() == 0.0 && *f >= 0.0 && *f < u64::MAX as f64 => {
                Some(*f as u64)
            }
            _ => None,
        }
    }

    /// Coerce any numeric value to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::UInt(n) => Some(*n as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Short human-readable name of the value's JSON type.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) | Value::UInt(_) | Value::Float(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }

    /// Render as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Render as pretty JSON with two-space indentation.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    pub(crate) fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => write_bool(out, *b),
            Value::Int(n) => write_i64(out, *n),
            Value::UInt(n) => write_u64(out, *n),
            Value::Float(f) => write_f64(out, *f),
            Value::Str(s) => write_escaped(out, s),
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Value::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

pub(crate) fn write_bool(out: &mut String, b: bool) {
    out.push_str(if b { "true" } else { "false" });
}

pub(crate) fn write_u64(out: &mut String, mut n: u64) {
    // u64::MAX has 20 digits.
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
}

pub(crate) fn write_i64(out: &mut String, n: i64) {
    if n < 0 {
        out.push('-');
    }
    write_u64(out, n.unsigned_abs());
}

pub(crate) fn write_f64(out: &mut String, f: f64) {
    // `write!` into a `String` cannot fail, hence the ignored results.
    if !f.is_finite() {
        // serde_json renders non-finite floats as null.
        out.push_str("null");
    } else if f.fract() == 0.0 && f.abs() < 1.0e16 {
        // Keep whole floats recognizable as numbers ("1.0").
        let _ = write!(out, "{f:.1}");
    } else {
        let _ = write!(out, "{f}");
    }
}

pub(crate) fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    // Every byte that needs an escape is ASCII, so the runs between them
    // are whole UTF-8 sequences and go out in one `push_str` each.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Serialization / deserialization error for the serde + serde_json shims.
#[derive(Clone, Debug)]
pub struct Error {
    message: String,
}

impl Error {
    /// Error from a plain message.
    pub fn msg(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }

    /// "expected X, got Y" type mismatch.
    pub fn expected(what: &str, got: &Value) -> Self {
        Self::msg(format!("expected {what}, got {}", got.kind()))
    }

    /// Unknown enum variant tag.
    pub fn unknown_variant(tag: &str, ty: &str) -> Self {
        Self::msg(format!("unknown variant `{tag}` for {ty}"))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Parse a JSON document into a [`Value`] tree, in time linear in its
/// length and with nesting capped at [`MAX_DEPTH`].
pub(crate) fn parse(input: &str) -> Result<Value, Error> {
    let mut p = Parser {
        text: input,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(Error::msg(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes().get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::msg(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes()[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(Error::msg(format!(
                "unexpected character at byte {}",
                self.pos
            ))),
        }
    }

    fn nested(&mut self, body: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::msg(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let v = body(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, Error> {
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
                _ => {
                    return Err(Error::msg(format!(
                        "expected `,` or `]` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
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
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => {
                    return Err(Error::msg(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // The run of plain bytes up to the next delimiter is copied in
            // one piece: the input is a `&str` and both delimiters are
            // ASCII, so the run is made of whole UTF-8 sequences.
            let start = self.pos;
            let Some(run) = self.bytes()[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
            else {
                return Err(Error::msg("unterminated string"));
            };
            let end = start + run;
            out.push_str(&self.text[start..end]);
            self.pos = end + 1;
            if self.bytes()[end] == b'"' {
                return Ok(out);
            }
            let Some(esc) = self.peek() else {
                return Err(Error::msg("unterminated escape"));
            };
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let c = match self.hex4()? {
                        // Surrogate pairs for astral-plane characters.
                        hi @ 0xD800..=0xDBFF => {
                            if !self.eat_keyword("\\u") {
                                return Err(Error::msg("unpaired surrogate"));
                            }
                            let lo = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(Error::msg("unpaired surrogate"));
                            }
                            char::from_u32(0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00))
                        }
                        0xDC00..=0xDFFF => return Err(Error::msg("unpaired surrogate")),
                        cp => char::from_u32(cp),
                    };
                    out.push(c.ok_or_else(|| Error::msg("invalid \\u escape"))?);
                }
                other => return Err(Error::msg(format!("invalid escape `\\{}`", other as char))),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        if self.pos + 4 > self.bytes().len() {
            return Err(Error::msg("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes()[self.pos..self.pos + 4])
            .map_err(|_| Error::msg("invalid \\u escape"))?;
        self.pos += 4;
        u32::from_str_radix(hex, 16).map_err(|_| Error::msg("invalid \\u escape"))
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        if !is_float {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::Int(n));
            }
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::UInt(n));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::msg(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_render_roundtrip() {
        let src = r#"{"a": [1, -2, 3.5, true, null], "b": {"nested": "x\ny"}, "c": 18446744073709551615}"#;
        let v = parse(src).unwrap();
        let back = parse(&v.render()).unwrap();
        assert_eq!(v, back);
        let pretty = parse(&v.render_pretty()).unwrap();
        assert_eq!(v, pretty);
    }

    #[test]
    fn numbers_keep_integerness() {
        assert_eq!(parse("7").unwrap(), Value::Int(7));
        assert_eq!(parse("-7").unwrap(), Value::Int(-7));
        assert_eq!(parse("7.0").unwrap(), Value::Float(7.0));
        assert_eq!(parse("1e3").unwrap(), Value::Float(1000.0));
    }

    #[test]
    fn float_coercions_respect_integer_ranges() {
        // 1.85e19 exceeds u64::MAX (~1.845e19): must not saturate.
        assert_eq!(Value::Float(1.85e19).as_u64(), None);
        assert_eq!(Value::Float(-1.0).as_u64(), None);
        assert_eq!(Value::Float(12.0).as_u64(), Some(12));
        assert_eq!(Value::Float(1.0e19).as_i64(), None);
        assert_eq!(Value::Float(-12.0).as_i64(), Some(-12));
        assert_eq!(Value::Float(0.5).as_i64(), None);
    }

    #[test]
    fn nesting_is_capped() {
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        assert!(parse(&nest(MAX_DEPTH + 1)).is_err());
        // Depth counts what is open, not what has been seen.
        assert!(parse(&format!("[{}]", vec!["[]"; 1000].join(","))).is_ok());
        // Two million unclosed brackets: an error, not a stack overflow.
        assert!(parse(&"[".repeat(2_000_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(2_000_000)).is_err());
    }

    #[test]
    fn surrogate_escapes() {
        assert_eq!(
            parse(r#""\ud83d\ude00""#).unwrap(),
            Value::Str("😀".to_string())
        );
        // High surrogate followed by an escape that is not a low one.
        assert!(parse(r#""\ud800\u0041""#).is_err());
        assert!(parse(r#""\ud800\ud800""#).is_err());
        // Lone low, lone high before a plain character, lone high at EOF.
        assert!(parse(r#""\udc00""#).is_err());
        assert!(parse(r#""\ud800A""#).is_err());
        assert!(parse(r#""\ud800"#).is_err());
        assert!(parse(r#""\ud800\u"#).is_err());
    }

    #[test]
    fn strings_copy_runs_between_escapes() {
        assert_eq!(
            parse(r#""é–😀 plain\n\"q\" é tail""#).unwrap(),
            Value::Str("é–😀 plain\n\"q\" é tail".to_string())
        );
        assert_eq!(parse(r#""""#).unwrap(), Value::Str(String::new()));
        assert!(parse(r#""open"#).is_err());
        assert!(parse(r#""open\"#).is_err());
        assert!(parse(r#""\x""#).is_err());
        assert!(parse(r#""\u00é9""#).is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("1 2").is_err());
    }
}
