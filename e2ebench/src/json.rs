//! A minimal JSON value and writer: the workspace builds offline, so
//! the benchmark carries its own instead of a serialisation crate.

use std::fmt::Write;

/// A JSON value.
#[derive(Debug, Clone)]
pub enum J {
    /// A number, printed with every digit Rust's shortest round-trip
    /// formatting gives; non-finite values print as `null`.
    Num(f64),
    /// An integer.
    Int(u64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// An array.
    Arr(Vec<J>),
    /// An object, keys in insertion order.
    Obj(Vec<(String, J)>),
}

impl J {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, J)>) -> J {
        J::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> J {
        J::Str(s.into())
    }

    /// Serialises the value on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            J::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            J::Num(_) => out.push_str("null"),
            J::Int(i) => {
                let _ = write!(out, "{i}");
            }
            J::Str(s) => write_str(out, s),
            J::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            J::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            J::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_values() {
        let v = J::obj([
            ("a", J::Num(0.125)),
            (
                "b",
                J::Arr(vec![J::Int(3), J::Bool(true), J::Num(f64::NAN)]),
            ),
            ("c", J::str("q\"\n")),
        ]);
        assert_eq!(
            v.render(),
            r#"{"a": 0.125, "b": [3, true, null], "c": "q\"\n"}"#
        );
    }
}
