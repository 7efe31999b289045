//! The workspace's JSON reader, plus the FNV-1a integrity hash.
//!
//! Every document the workspace reads back — measurement reports, the
//! exact-state forms of [`Moments`], [`QuantileSketch`],
//! `WorkerTelemetry` and the campaign aggregates, `reorder.shard/1`,
//! `reorder.checkpoint/1` and the campaign spec — is written by hand in
//! one compact form with a stable key order. [`parse`] is the matching
//! reader: it borrows from the text, reads the whole document into a
//! [`Value`] tree and rejects trailing bytes. Lookups are scoped:
//! [`Value::get`] sees only the members of the object it is called on,
//! so a key inside a nested object can never shadow an outer one, and
//! a nested document is decoded from its parsed `Value` rather than
//! re-scanned.
//!
//! The accepted grammar is JSON restricted to what the writers emit.
//! Anything else is an error, never a guess, so a corrupt or truncated
//! document is surfaced instead of absorbed:
//! - no whitespace between tokens;
//! - strings without escapes or control characters;
//! - numbers are integers (`-?(0|[1-9][0-9]*)`, never `-0`), kept as
//!   their numeral and converted exactly by [`Value::as_int`];
//! - no key twice in one object;
//! - containers nested at most `MAX_DEPTH` (32) deep.
//!
//! Together these make every accepted document canonical: a decoder
//! built on this reader either rejects its input or restores a value
//! that re-encodes to the same bytes.
//!
//! [`Moments`]: crate::stats::Moments
//! [`QuantileSketch`]: crate::stats::QuantileSketch

use std::str::FromStr;

/// 64-bit FNV-1a over a byte string — the integrity hash sealed into
/// checkpoint documents and pinned by the determinism test suite.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Deepest container nesting [`parse`] accepts. The deepest value any
/// writer emits, a bucket pair of a telemetry span's sketch inside a
/// checkpoint, sits 7 containers deep; the bound keeps a hostile input
/// from exhausting the stack.
pub(crate) const MAX_DEPTH: usize = 32;

/// One parsed JSON value, borrowing its strings and numerals from the
/// source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value<'a> {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// An integer, as its numeral; see [`Value::as_int`].
    Num(&'a str),
    /// A string's contents (escapes are rejected, so this is verbatim).
    Str(&'a str),
    /// An array's items.
    Arr(Vec<Value<'a>>),
    /// An object's members in document order (keys are unique).
    Obj(Vec<(&'a str, Value<'a>)>),
}

impl<'a> Value<'a> {
    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "a bool",
            Value::Num(_) => "an integer",
            Value::Str(_) => "a string",
            Value::Arr(_) => "an array",
            Value::Obj(_) => "an object",
        }
    }

    fn expected(&self, what: &str) -> String {
        format!("expected {what}, found {}", self.kind())
    }

    /// The member `key` of this object.
    pub fn get(&self, key: &str) -> Result<&Value<'a>, String> {
        match self {
            Value::Obj(members) => members
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing `{key}`")),
            other => Err(other.expected("an object")),
        }
    }

    /// This integer, parsed exactly as `T` (`u64`, `usize`, `u32`,
    /// `i128`, …). A numeral outside `T`'s range is an error, never
    /// rounded or wrapped.
    pub fn as_int<T: FromStr>(&self) -> Result<T, String> {
        match self {
            Value::Num(raw) => raw
                .parse()
                .map_err(|_| format!("integer {raw} out of range")),
            other => Err(other.expected("an integer")),
        }
    }

    /// The integer member `key` of this object: [`Value::get`] then
    /// [`Value::as_int`], with the key named in any error.
    pub fn int<T: FromStr>(&self, key: &str) -> Result<T, String> {
        self.get(key)?.as_int().map_err(|e| format!("`{key}`: {e}"))
    }

    /// This string's contents.
    pub fn as_str(&self) -> Result<&'a str, String> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(other.expected("a string")),
        }
    }

    /// This bool.
    pub fn as_bool(&self) -> Result<bool, String> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(other.expected("a bool")),
        }
    }

    /// This array's items.
    pub fn items(&self) -> Result<&[Value<'a>], String> {
        match self {
            Value::Arr(items) => Ok(items),
            other => Err(other.expected("an array")),
        }
    }

    /// The members of a label-keyed map object. Writers emit these maps
    /// from a `BTreeMap`, so keys must be strictly ascending; any other
    /// order is rejected, which keeps a restored map byte-identical to
    /// the document it came from.
    pub fn members(&self) -> Result<&[(&'a str, Value<'a>)], String> {
        match self {
            Value::Obj(members) => match members.windows(2).find(|w| w[0].0 >= w[1].0) {
                Some(w) => Err(format!("map key `{}` out of order", w[1].0)),
                None => Ok(members),
            },
            other => Err(other.expected("an object")),
        }
    }
}

/// Parse one complete document. See the module docs for the accepted
/// grammar; every deviation is an `Err` naming the byte offset.
pub fn parse(text: &str) -> Result<Value<'_>, String> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value(0)?;
    if p.pos != text.len() {
        return Err(p.error("trailing bytes"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", b as char)))
        }
    }

    /// `depth` counts the containers enclosing this value.
    fn value(&mut self, depth: usize) -> Result<Value<'a>, String> {
        match self.peek() {
            Some(b'{' | b'[') if depth >= MAX_DEPTH => {
                Err(self.error(&format!("nesting deeper than {MAX_DEPTH}")))
            }
            Some(b'{') => {
                let members = self.list(b'{', b'}', |p| {
                    let key = p.string()?;
                    p.eat(b':')?;
                    Ok((key, p.value(depth + 1)?))
                })?;
                for (i, (key, _)) in members.iter().enumerate() {
                    if members[..i].iter().any(|(k, _)| k == key) {
                        return Err(format!("duplicate key `{key}`"));
                    }
                }
                Ok(Value::Obj(members))
            }
            Some(b'[') => Ok(Value::Arr(self.list(b'[', b']', |p| p.value(depth + 1))?)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => {
                let rest = &self.text.as_bytes()[self.pos..];
                for (word, value) in [
                    ("null", Value::Null),
                    ("true", Value::Bool(true)),
                    ("false", Value::Bool(false)),
                ] {
                    if rest.starts_with(word.as_bytes()) {
                        self.pos += word.len();
                        return Ok(value);
                    }
                }
                Err(self.error("expected a value"))
            }
        }
    }

    /// A comma-separated `open … close` sequence of `item`s.
    fn list<T>(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.eat(open)?;
        let mut out = Vec::new();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            out.push(item(self)?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => return Err(self.error(&format!("expected `,` or `{}`", close as char))),
            }
        }
    }

    fn string(&mut self) -> Result<&'a str, String> {
        self.eat(b'"')?;
        let start = self.pos;
        let len = self.text.as_bytes()[start..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
            .ok_or_else(|| self.error("unterminated string"))?;
        self.pos += len;
        if self.peek() != Some(b'"') {
            return Err(self.error("escape or control character in string"));
        }
        self.pos += 1;
        Ok(&self.text[start..start + len])
    }

    fn number(&mut self) -> Result<Value<'a>, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = &self.text.as_bytes()[self.pos..];
        let len = digits.iter().take_while(|b| b.is_ascii_digit()).count();
        self.pos += len;
        let raw = &self.text[start..self.pos];
        if len == 0 || (len > 1 && digits[0] == b'0') || raw == "-0" {
            return Err(format!("malformed integer `{raw}` at byte {start}"));
        }
        Ok(Value::Num(raw))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Canonical FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn lookups_are_scoped_to_their_object() {
        let doc = parse(r#"{"a":{"b":7,"x":[1,-2]},"b":0,"c":"txt","d":null,"e":true}"#).unwrap();
        assert_eq!(
            doc.int::<u64>("b").unwrap(),
            0,
            "nested `b` must not shadow"
        );
        assert_eq!(doc.get("a").unwrap().int::<u64>("b").unwrap(), 7);
        let x = doc.get("a").unwrap().get("x").unwrap().items().unwrap();
        assert_eq!(x[1].as_int::<i128>().unwrap(), -2);
        assert_eq!(doc.get("c").unwrap().as_str().unwrap(), "txt");
        assert_eq!(doc.get("d").unwrap(), &Value::Null);
        assert!(doc.get("e").unwrap().as_bool().unwrap());
        assert!(doc
            .get("missing")
            .unwrap_err()
            .contains("missing `missing`"));
        assert!(doc.int::<u64>("c").unwrap_err().contains("`c`"));
    }

    #[test]
    fn integers_are_exact() {
        let big = format!("[{},{}]", u64::MAX, i128::MIN);
        let doc = parse(&big).unwrap();
        let items = doc.items().unwrap();
        assert_eq!(items[0].as_int::<u64>().unwrap(), u64::MAX);
        assert_eq!(items[1].as_int::<i128>().unwrap(), i128::MIN);
        // 2^53 + 1 has no f64; it must survive as an integer.
        let seed = parse("9007199254740993").unwrap();
        assert_eq!(seed.as_int::<u64>().unwrap(), 9_007_199_254_740_993);
        let over = parse("18446744073709551616").unwrap();
        assert!(over.as_int::<u64>().is_err());
        assert!(parse("-1").unwrap().as_int::<u32>().is_err());
    }

    #[test]
    fn only_the_compact_canonical_form_is_accepted() {
        for bad in [
            "",
            "{",
            "[1,2",
            "{\"a\":1}x",
            "{\"a\" :1}",
            " 1",
            "[1, 2]",
            "01",
            "-0",
            "+1",
            "1.5",
            "1e3",
            "-",
            "\"a\\\"b\"",
            "\"tab\tin\"",
            "\"open",
            "{\"a\":1,}",
            "[,]",
            "{\"a\":1,\"a\":2}",
            "nul",
            "True",
            "{1:2}",
        ] {
            assert!(parse(bad).is_err(), "`{bad}` must be rejected");
        }
        assert_eq!(parse("{}").unwrap(), Value::Obj(Vec::new()));
        assert_eq!(parse("[]").unwrap(), Value::Arr(Vec::new()));
        assert_eq!(parse("\"é\"").unwrap(), Value::Str("é"));
    }

    #[test]
    fn nesting_is_bounded_not_recursed_into_a_stack_overflow() {
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
        let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert!(parse(&deep).unwrap_err().contains("nesting"));
        assert!(parse(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn members_require_ascending_keys() {
        let map = parse(r#"{"a":1,"b":2}"#).unwrap();
        assert_eq!(map.members().unwrap().len(), 2);
        assert!(parse(r#"{"b":1,"a":2}"#).unwrap().members().is_err());
        assert!(parse("[]").unwrap().members().is_err());
    }
}
