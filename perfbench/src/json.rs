//! Minimal JSON writer for the benchmark's one-line reports.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A number; non-finite values are written as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// An array.
    Arr(Vec<Value>),
    /// An object with sorted keys.
    Obj(BTreeMap<String, Value>),
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for ch in s.chars() {
        match ch {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // `{:?}` keeps every digit and always marks the value as a
            // float, which JSON reads back bit for bit.
            Value::Num(x) if x.is_finite() => write!(f, "{x:?}"),
            Value::Num(_) => f.write_str("null"),
            Value::Str(s) => write_str(f, s),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Value::Obj(map) => {
                f.write_str("{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_str(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Value;
    use std::collections::BTreeMap;

    #[test]
    fn writes_compact_json() {
        let v = Value::Obj(BTreeMap::from([
            (
                "b".to_string(),
                Value::Arr(vec![Value::Num(1.5), Value::Num(2.0)]),
            ),
            ("a".to_string(), Value::Str("x\"y".into())),
            ("c".to_string(), Value::Bool(true)),
            ("d".to_string(), Value::Num(f64::NAN)),
        ]));
        assert_eq!(
            v.to_string(),
            r#"{"a":"x\"y","b":[1.5,2.0],"c":true,"d":null}"#
        );
        assert_eq!(Value::Num(1e-7).to_string(), "1e-7");
    }
}
