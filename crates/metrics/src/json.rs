//! Dependency-free JSON emission.
//!
//! The workspace has no JSON crate (external deps resolve to vendored
//! offline stand-ins). This module is the one shared writer — journal,
//! telemetry exporter, `repro doctor` and the benchmark's string escaping
//! all go through it: proper escaping, stable field order, and a small
//! pretty-printer so written JSON stays line-diffable.

/// Append `s` to `out` as a JSON string literal (quotes included).
pub fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A value that knows how to render itself into a JSON document.
pub trait ToJson {
    fn write_json(&self, out: &mut String);
}

impl ToJson for &str {
    fn write_json(&self, out: &mut String) {
        push_escaped(out, self);
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        push_escaped(out, self);
    }
}

impl ToJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

macro_rules! int_to_json {
    ($($t:ty),+) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                out.push_str(&self.to_string());
            }
        }
    )+};
}
int_to_json!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            out.push_str(&self.to_string());
        } else {
            // JSON has no NaN/Infinity.
            out.push_str("null");
        }
    }
}

/// Pre-rendered JSON spliced in verbatim (nested objects/arrays).
#[derive(Clone, Debug)]
pub struct Raw(pub String);

impl ToJson for Raw {
    fn write_json(&self, out: &mut String) {
        out.push_str(&self.0);
    }
}

/// Builder for a JSON object with insertion-ordered fields.
#[derive(Clone, Debug)]
pub struct JsonObj {
    buf: String,
    first: bool,
}

impl Default for JsonObj {
    fn default() -> Self {
        Self::new()
    }
}

impl JsonObj {
    #[must_use]
    pub fn new() -> Self {
        JsonObj {
            buf: String::from("{"),
            first: true,
        }
    }

    #[must_use]
    pub fn field(mut self, key: &str, value: impl ToJson) -> Self {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        push_escaped(&mut self.buf, key);
        self.buf.push(':');
        value.write_json(&mut self.buf);
        self
    }

    /// Compact rendering (no whitespace). Use [`pretty`] for committed
    /// artifacts.
    #[must_use]
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }

    /// Finish as a [`Raw`] for nesting into a parent object/array.
    #[must_use]
    pub fn raw(self) -> Raw {
        Raw(self.finish())
    }
}

/// Builder for a JSON array.
#[derive(Clone, Debug)]
pub struct JsonArr {
    buf: String,
    first: bool,
}

impl Default for JsonArr {
    fn default() -> Self {
        Self::new()
    }
}

impl JsonArr {
    #[must_use]
    pub fn new() -> Self {
        JsonArr {
            buf: String::from("["),
            first: true,
        }
    }

    #[must_use]
    pub fn item(mut self, value: impl ToJson) -> Self {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        value.write_json(&mut self.buf);
        self
    }

    #[must_use]
    pub fn finish(mut self) -> String {
        self.buf.push(']');
        self.buf
    }

    #[must_use]
    pub fn raw(self) -> Raw {
        Raw(self.finish())
    }
}

/// Re-indent compact JSON produced by this module: newline + indent after
/// `{` `[` `,`, newline before `}` `]`, space after `:`. String-literal
/// aware, so escaped quotes and braces inside strings survive.
#[must_use]
pub fn pretty(json: &str) -> String {
    let mut out = String::with_capacity(json.len() * 2);
    let mut depth = 0usize;
    let mut in_str = false;
    let mut escaped = false;
    let indent = |out: &mut String, depth: usize| {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    };
    for c in json.chars() {
        if in_str {
            out.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => {
                in_str = true;
                out.push(c);
            }
            '{' | '[' => {
                out.push(c);
                depth += 1;
                indent(&mut out, depth);
            }
            '}' | ']' => {
                depth = depth.saturating_sub(1);
                indent(&mut out, depth);
                out.push(c);
            }
            ',' => {
                out.push(c);
                indent(&mut out, depth);
            }
            ':' => {
                out.push_str(": ");
            }
            c => out.push(c),
        }
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn escapes_special_characters() {
        let s = JsonObj::new().field("k", "a\"b\\c\nd\te\u{1}").finish();
        assert_eq!(s, r#"{"k":"a\"b\\c\nd\te\u0001"}"#);
    }

    #[test]
    fn nested_objects_arrays_and_numbers() {
        let inner = JsonObj::new().field("name", "w").field("ns", 12.35).raw();
        let s = JsonObj::new()
            .field("n", 3u64)
            .field("ok", true)
            .field("rows", JsonArr::new().item(inner).raw())
            .finish();
        assert_eq!(s, r#"{"n":3,"ok":true,"rows":[{"name":"w","ns":12.35}]}"#);
    }

    #[test]
    fn non_finite_floats_become_null() {
        let s = JsonObj::new()
            .field("a", f64::NAN)
            .field("b", f64::INFINITY)
            .finish();
        assert_eq!(s, r#"{"a":null,"b":null}"#);
    }

    #[test]
    fn pretty_keeps_strings_intact() {
        let s = JsonObj::new().field("k", "a{b}[c],:\"d\"").finish();
        let p = pretty(&s);
        assert!(p.contains(r#""a{b}[c],:\"d\"""#), "pretty mangled: {p}");
        assert!(p.ends_with("}\n"));
    }

    /// Fragments chosen to put multi-byte characters beside JSON
    /// punctuation, leave strings unterminated and brackets unbalanced.
    const FRAGMENTS: [&str; 20] = [
        "\"", "\\", "{", "}", "[", "]", ":", ",", " ", "\n", "é", "日", "🦀", "k", "\"k\"", "-",
        "1", "e", ".", "+",
    ];

    fn text_strategy() -> impl Strategy<Value = String> {
        prop::collection::vec(0usize..FRAGMENTS.len(), 0..40)
            .prop_map(|ix| ix.into_iter().map(|i| FRAGMENTS[i]).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        // `pretty` formats exported JSON read back from disk: whatever
        // the bytes, it returns, never panics.
        fn pretty_never_panics_on_arbitrary_text(doc in text_strategy()) {
            let _ = pretty(&doc);
        }
    }
}
