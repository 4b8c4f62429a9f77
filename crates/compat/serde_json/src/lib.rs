//! Offline shim for `serde_json`: text rendering/parsing for the
//! [`serde::Value`] tree, plus the `json!` construction macro.
//!
//! Numbers are stored as `f64` (integers ≤ 2^53 round-trip exactly and
//! render without a decimal point). Strings are escaped per RFC 8259;
//! `NaN`/infinite floats render as `null`, as upstream does for
//! non-finite values in lossy mode. Arrays and objects nest at most
//! [`MAX_DEPTH`] levels deep: deeper text is an error, not a stack
//! overflow (upstream's default recursion limit).

pub use serde::{Error, Map, Value};

/// Render any serializable value into a [`Value`] tree.
pub fn to_value<T: serde::Serialize + ?Sized>(t: &T) -> Value {
    t.to_value()
}

/// Rebuild a typed value from a [`Value`] tree.
pub fn from_value<T: serde::Deserialize>(v: &Value) -> Result<T, Error> {
    T::from_value(v)
}

/// Serialize to compact JSON text.
pub fn to_string<T: serde::Serialize + ?Sized>(t: &T) -> Result<String, Error> {
    let mut s = String::new();
    write_value(&mut s, &t.to_value(), None, 0);
    Ok(s)
}

/// Serialize to human-indented JSON text.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(t: &T) -> Result<String, Error> {
    let mut s = String::new();
    write_value(&mut s, &t.to_value(), Some(2), 0);
    Ok(s)
}

/// Parse JSON text into a typed value.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T, Error> {
    let v = parse_value(s)?;
    T::from_value(&v)
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n == 0.0 && n.is_sign_negative() {
        out.push_str("-0.0"); // `as i64` would drop the sign bit
    } else if n == n.trunc() && n.abs() < 9.007_199_254_740_992e15 {
        out.push_str(&format!("{}", n as i64));
    } else {
        // Shortest representation that round-trips an f64.
        out.push_str(&format!("{n:?}"));
    }
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => write_number(out, *n),
        Value::String(s) => write_escaped(out, s),
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
                pad(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            pad(out, indent, depth);
            out.push(']');
        }
        Value::Object(map) => {
            if map.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                pad(out, indent, depth + 1);
                write_escaped(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, depth + 1);
            }
            pad(out, indent, depth);
            out.push('}');
        }
    }
}

fn pad(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', w * depth));
    }
}

// ----------------------------------------------------------------- parser

/// The deepest nesting of arrays and objects [`from_str`] accepts. The
/// parser recurses once per level, so without a bound one line of
/// `[[[[…` from a peer would overflow the reading thread's stack.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

fn parse_value(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::custom(format!(
            "trailing characters at byte {}",
            p.pos
        )));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Result<u8, Error> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| Error::custom("unexpected end of JSON"))
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::custom(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(Error::custom(format!(
                "invalid literal at byte {}",
                self.pos
            )))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek()? {
            b'n' => self.literal("null", Value::Null),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'"' => Ok(Value::String(self.string()?)),
            open @ (b'[' | b'{') => {
                if self.depth == MAX_DEPTH {
                    return Err(Error::custom(format!(
                        "JSON nests deeper than {MAX_DEPTH} levels at byte {}",
                        self.pos
                    )));
                }
                self.depth += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            _ => self.number(),
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(Error::custom("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err(Error::custom("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| Error::custom("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::custom("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| Error::custom("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::custom("invalid \\u codepoint"))?,
                            );
                        }
                        other => {
                            return Err(Error::custom(format!("bad escape \\{}", other as char)))
                        }
                    }
                }
                _ => {
                    // Re-sync to char boundaries for multi-byte UTF-8.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let end = start + len;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .ok_or_else(|| Error::custom("truncated UTF-8"))?;
                    out.push_str(
                        std::str::from_utf8(chunk).map_err(|_| Error::custom("invalid UTF-8"))?,
                    );
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if start == self.pos {
            return Err(Error::custom(format!("expected value at byte {start}")));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::custom("invalid number"))?;
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| Error::custom(format!("invalid number `{text}`")))
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => {
                    return Err(Error::custom(format!(
                        "expected `,` or `]`, found `{}`",
                        other as char
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut map = Map::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                other => {
                    return Err(Error::custom(format!(
                        "expected `,` or `}}`, found `{}`",
                        other as char
                    )))
                }
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

// ------------------------------------------------------------------ json!

/// Build a [`Value`] from JSON-shaped syntax with embedded expressions.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    (true) => { $crate::Value::Bool(true) };
    (false) => { $crate::Value::Bool(false) };
    ([ $($tt:tt)* ]) => {{
        #[allow(unused_mut, clippy::vec_init_then_push)]
        let mut __arr: Vec<$crate::Value> = Vec::new();
        $crate::json_items!(__arr; [] $($tt)*);
        $crate::Value::Array(__arr)
    }};
    ({ $($tt:tt)* }) => {{
        #[allow(unused_mut)]
        let mut __obj = $crate::Map::new();
        $crate::json_fields!(__obj; $($tt)*);
        $crate::Value::Object(__obj)
    }};
    ($other:expr) => { $crate::to_value(&$other) };
}

/// Internal array-element muncher for [`json!`].
#[doc(hidden)]
#[macro_export]
macro_rules! json_items {
    ($arr:ident; []) => {};
    ($arr:ident; [$($cur:tt)+]) => {
        $arr.extend(std::iter::once($crate::json!($($cur)+)));
    };
    ($arr:ident; [$($cur:tt)+] , $($rest:tt)*) => {
        $arr.extend(std::iter::once($crate::json!($($cur)+)));
        $crate::json_items!($arr; [] $($rest)*);
    };
    ($arr:ident; [$($cur:tt)*] $next:tt $($rest:tt)*) => {
        $crate::json_items!($arr; [$($cur)* $next] $($rest)*);
    };
}

/// Internal object-field muncher for [`json!`].
#[doc(hidden)]
#[macro_export]
macro_rules! json_fields {
    ($obj:ident; ) => {};
    ($obj:ident; $key:literal : $($rest:tt)+) => {
        $crate::json_field_value!($obj; $key [] $($rest)+);
    };
}

/// Internal field-value muncher for [`json!`].
#[doc(hidden)]
#[macro_export]
macro_rules! json_field_value {
    ($obj:ident; $key:literal [$($cur:tt)+]) => {
        $obj.insert($key.to_string(), $crate::json!($($cur)+));
    };
    ($obj:ident; $key:literal [$($cur:tt)+] , $($rest:tt)*) => {
        $obj.insert($key.to_string(), $crate::json!($($cur)+));
        $crate::json_fields!($obj; $($rest)*);
    };
    ($obj:ident; $key:literal [$($cur:tt)*] $next:tt $($rest:tt)*) => {
        $crate::json_field_value!($obj; $key [$($cur)* $next] $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_typical_document() {
        let v = json!({
            "name": "trace", "count": 42, "ratio": 0.125,
            "tags": ["a", "b"], "nested": {"ok": true, "none": null}
        });
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, v);
        let pretty = to_string_pretty(&v).unwrap();
        let back2: Value = from_str(&pretty).unwrap();
        assert_eq!(back2, v);
    }

    #[test]
    fn integers_render_without_decimal_point() {
        assert_eq!(to_string(&42u32).unwrap(), "42");
        assert_eq!(to_string(&(-7i64)).unwrap(), "-7");
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "line\nbreak \"quoted\" back\\slash \u{1}".to_string();
        let text = to_string(&s).unwrap();
        let back: String = from_str(&text).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn unicode_survives() {
        let s = "héllo wörld ☃".to_string();
        let back: String = from_str(&to_string(&s).unwrap()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn json_macro_accepts_expressions() {
        let x = 3.5f64;
        let xs = vec![1u32, 2];
        let v = json!({"x": x, "twice": x * 2.0, "xs": xs, "pair": [x, 1]});
        assert_eq!(v.get("twice").unwrap().as_f64().unwrap(), 7.0);
        assert_eq!(v.get("xs").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(v.get("pair").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(from_str::<Value>("{\"a\": }").is_err());
        assert!(from_str::<Value>("[1, 2").is_err());
        assert!(from_str::<Value>("tru").is_err());
        assert!(from_str::<Value>("1 2").is_err());
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(from_str::<Value>(&nested(MAX_DEPTH)).is_ok());
        assert!(from_str::<Value>(&nested(MAX_DEPTH + 1)).is_err());
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(from_str::<Value>(&objects).is_err());
        // Far past the cap, on a thread with the default spawned-thread
        // stack: an error, not an overflow that aborts the process.
        let deep = std::thread::spawn(|| from_str::<Value>(&"[".repeat(1_000_000)).is_err());
        assert!(deep.join().expect("the parser must not overflow the stack"));
    }

    #[test]
    fn nonfinite_floats_render_null() {
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        assert_eq!(to_string(&f64::INFINITY).unwrap(), "null");
    }
}
