//! The workspace's JSON codec: one value type, one parser, one writer.
//!
//! The vendored `serde` is an API-surface stub (no codegen), so every
//! JSON artifact the workspace reads back — chaos repro files, `accl-obs`
//! trace documents — goes through this module. The dialect is
//! *integer-only*: every number a reader needs (picosecond instants,
//! frame indices, seeds, gauges) is an integer, so floats and exponents
//! are rejected rather than approximated, and a document round-trips
//! bit-exactly: `parse(&write(&v)) == Ok(v)`.
//!
//! The layout is fixed, so equal values write equal bytes: a container
//! whose members are all scalars is written on one line; any other
//! container puts one member per line, indented by two spaces.

/// A JSON value.
///
/// Each integer has exactly one form: [`Json::U64`] for `0..=u64::MAX`,
/// [`Json::I64`] only for negative values ([`Json::int`] picks the form).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: insertion-ordered pairs, not a map, so output order is
    /// the builder's and duplicate keys round-trip visibly.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The canonical form of a signed integer.
    pub fn int(v: i64) -> Json {
        u64::try_from(v).map_or(Json::I64(v), Json::U64)
    }

    /// Looks up `key` in an object (the first pair with that key).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find_map(|(k, v)| (k == key).then_some(v))
    }

    /// Required-field lookup; the error names the missing key.
    pub fn field(&self, key: &str) -> Result<&Json, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field `{key}`"))
    }

    /// Required typed field: [`Json::field`] then one of the `as_*`
    /// accessors; the error names the key either way.
    pub fn field_as<'a, T>(
        &'a self,
        key: &str,
        as_t: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<T, String> {
        as_t(self.field(key)?).ok_or_else(|| format!("field `{key}` has the wrong type"))
    }

    /// The value as an unsigned integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a signed integer, if it is one that fits.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::U64(v) => i64::try_from(*v).ok(),
            Json::I64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object pairs, if it is one.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Json::Arr(_) | Json::Obj(_))
    }

    fn write_to(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => out.push_str(&v.to_string()),
            Json::I64(v) => out.push_str(&v.to_string()),
            Json::Str(s) => out.push_str(&quote(s)),
            Json::Arr(items) => write_container(out, indent, "[]", items.iter().map(|v| (None, v))),
            Json::Obj(pairs) => write_container(
                out,
                indent,
                "{}",
                pairs.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }
}

fn write_container<'a, I>(out: &mut String, indent: usize, brackets: &str, members: I)
where
    I: Iterator<Item = (Option<&'a str>, &'a Json)> + Clone,
{
    let flat = members.clone().all(|(_, v)| v.is_scalar());
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        out.extend(std::iter::repeat_n("  ", depth));
    };
    out.push_str(&brackets[..1]);
    for (i, (key, value)) in members.enumerate() {
        if i > 0 {
            out.push_str(if flat { ", " } else { "," });
        }
        if !flat {
            newline(out, indent + 1);
        }
        if let Some(key) = key {
            out.push_str(&quote(key));
            out.push_str(": ");
        }
        value.write_to(out, indent + 1);
    }
    if !flat {
        newline(out, indent);
    }
    out.push_str(&brackets[1..]);
}

/// Writes a document in the fixed layout, followed by a newline.
pub fn write(value: &Json) -> String {
    let mut out = String::new();
    value.write_to(&mut out, 0);
    out.push('\n');
    out
}

/// `s` as a quoted JSON string: `"` and `\` are escaped, `\n`, `\t` and
/// `\r` use their short forms, and every other C0 control character is
/// written as `\u00XX`. This is the one string escaper for every JSON
/// writer in the workspace, including the ones that format their own
/// numbers (the Chrome trace exporter, the kernel micro-benchmark).
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Parses a complete document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing input at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        let got = self.peek()?;
        if got != b {
            return Err(format!(
                "expected `{}` at byte {}, found `{}`",
                b as char, self.pos, got as char
            ));
        }
        self.pos += 1;
        Ok(())
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'{' => self
                .seq(b'{', b'}', |p| {
                    let key = p.string()?;
                    p.expect(b':')?;
                    Ok((key, p.value()?))
                })
                .map(Json::Obj),
            b'[' => self.seq(b'[', b']', Self::value).map(Json::Arr),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(format!(
                "unexpected `{}` at byte {}",
                other as char, self.pos
            )),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("expected `{word}` at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let neg = self.bytes[start] == b'-';
        self.pos += usize::from(neg);
        let digits = self.pos;
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        if self.pos == digits {
            return Err(format!("expected digits at byte {digits}"));
        }
        if matches!(
            self.bytes.get(self.pos),
            Some(b'.' | b'e' | b'E' | b'-' | b'+')
        ) {
            return Err(format!(
                "non-integer number at byte {start}: the dialect is integer-only"
            ));
        }
        let text = &self.text[start..self.pos];
        let overflow = |_| format!("integer overflow at byte {start}");
        if neg {
            text.parse::<i64>().map(Json::int).map_err(overflow)
        } else {
            text.parse::<u64>().map(Json::U64).map_err(overflow)
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let c = match self.bytes.get(self.pos + 1) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 2..self.pos + 6)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            // Surrogates (the writer never emits them)
                            // decode to the replacement character.
                            char::from_u32(hex).unwrap_or('\u{fffd}')
                        }
                        other => {
                            return Err(format!(
                                "unknown escape {:?} at byte {}",
                                other.map(|&b| b as char),
                                self.pos
                            ))
                        }
                    };
                    out.push(c);
                    self.pos += 2;
                }
                Some(_) => {
                    // Copy the run up to the next `"` or `\` in one step.
                    // Both are ASCII, so the run ends on a char boundary
                    // of the (already valid UTF-8) input.
                    let rest = &self.bytes[self.pos..];
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    out.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    /// Parses `open member (, member)* close`, calling `member` for each
    /// member; an empty sequence is `open close`.
    fn seq<T>(
        &mut self,
        open: u8,
        close: u8,
        mut member: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.expect(open)?;
        let mut out = Vec::new();
        if self.peek()? == close {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            out.push(member(self)?);
            match self.peek()? {
                b',' => self.pos += 1,
                b if b == close => {
                    self.pos += 1;
                    return Ok(out);
                }
                other => {
                    return Err(format!(
                        "expected `,` or `{}` at byte {}, found `{}`",
                        close as char, self.pos, other as char
                    ))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_documents() {
        let doc = Json::Obj(vec![
            ("seed".into(), Json::U64(42)),
            ("ok".into(), Json::Bool(true)),
            (
                "events".into(),
                Json::Arr(vec![
                    Json::Obj(vec![("kind".into(), Json::Str("drop".into()))]),
                    Json::U64(7),
                ]),
            ),
            ("note".into(), Json::Str("a \"quoted\" μ-string\n".into())),
            ("delta".into(), Json::I64(-3)),
            ("none".into(), Json::Null),
        ]);
        let text = write(&doc);
        assert_eq!(parse(&text).unwrap(), doc);
        assert_eq!(write(&parse(&text).unwrap()), text);
    }

    #[test]
    fn rejects_floats_and_garbage() {
        for bad in [
            "1.5",
            "-1.5",
            "2e3",
            "2E3",
            "1+2",
            "[1, 2,]",
            "{\"a\": 1,}",
            "{\"a\": 1} x",
            "\"open",
            "\"bad \\x escape\"",
            "\"\\/\"",
            "\"\\b\"",
            "\"\\u12\"",
            "-",
            "+1",
            "tru",
            "[1 2]",
            "18446744073709551616",
            "-9223372036854775809",
            "",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        assert!(parse("1.5").unwrap_err().contains("integer-only"));
    }

    #[test]
    fn parses_negative_numbers_and_escapes() {
        let v = parse("{\"a\": -3, \"b\": \"x\\n\\\"y\\\"\"}").unwrap();
        assert_eq!(v.field("a").unwrap().as_i64(), Some(-3));
        assert_eq!(v.field("b").unwrap().as_str(), Some("x\n\"y\""));
        assert_eq!(
            parse("\"\\u00e9\\u0001\\r\\t\"").unwrap(),
            Json::Str("é\u{1}\r\t".into())
        );
        assert_eq!(
            parse(" \t\r\n\x0c[ 1 ,\r\n2 ]\n").unwrap(),
            Json::Arr(vec![Json::U64(1), Json::U64(2)])
        );
        assert_eq!(parse("18446744073709551615").unwrap(), Json::U64(u64::MAX));
        assert_eq!(parse("-9223372036854775808").unwrap(), Json::I64(i64::MIN));
        // Each integer has one form: `-0` is zero, not a negative.
        assert_eq!(parse("-0").unwrap(), Json::U64(0));
        assert_eq!(Json::int(5), Json::U64(5));
        assert_eq!(Json::int(-5), Json::I64(-5));
    }

    #[test]
    fn accessors_navigate_objects() {
        let doc = parse("{\"a\": {\"b\": [1, 2]}}").unwrap();
        let arr = doc
            .field("a")
            .unwrap()
            .field("b")
            .unwrap()
            .as_arr()
            .unwrap();
        assert_eq!(arr[1].as_u64(), Some(2));
        assert!(doc.field("missing").unwrap_err().contains("`missing`"));
        assert!(doc.field_as("a", Json::as_u64).unwrap_err().contains("`a`"));
        assert_eq!(doc.field_as("a", Json::as_obj).unwrap().len(), 1);
    }

    #[test]
    fn quote_escapes_every_control_character() {
        assert_eq!(quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(quote("\n\t\r"), "\"\\n\\t\\r\"");
        assert_eq!(quote("\u{0}\u{1f}μ"), "\"\\u0000\\u001fμ\"");
        for c in (0u8..0x20).map(char::from) {
            let q = quote(&c.to_string());
            assert!(q.bytes().all(|b| b >= 0x20), "raw control in {q:?}");
            assert_eq!(parse(&q).unwrap(), Json::Str(c.to_string()));
        }
    }

    #[test]
    fn scalar_containers_are_flat_and_others_one_member_per_line() {
        let doc = Json::Obj(vec![
            ("name".into(), Json::Str("x".into())),
            ("ids".into(), Json::Arr(vec![Json::U64(1), Json::I64(-2)])),
            ("empty".into(), Json::Arr(vec![])),
            (
                "events".into(),
                Json::Arr(vec![
                    Json::Obj(vec![("t".into(), Json::U64(0)), ("k".into(), Json::Null)]),
                    Json::Obj(vec![]),
                ]),
            ),
        ]);
        assert_eq!(
            write(&doc),
            "{\n  \"name\": \"x\",\n  \"ids\": [1, -2],\n  \"empty\": [],\n  \"events\": [\n    \
             {\"t\": 0, \"k\": null},\n    {}\n  ]\n}\n"
        );
    }
}
