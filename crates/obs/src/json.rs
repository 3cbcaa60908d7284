//! The one JSON writer of the workspace: a [`Json`] tree and its two-space
//! pretty printer. The metrics snapshot, the flight-recorder export and the
//! bench harness's table dump each build a tree with an inherent `to_json()`
//! and render it with [`Json::to_pretty`]. Nothing parses JSON.

/// An in-memory JSON value, holding only the shapes the exports write.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// A signed integer.
    Int(i64),
    /// An unsigned integer.
    UInt(u64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in insertion order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Render as pretty-printed JSON text (two-space indent, `[]`/`{}` for
    /// empty containers, no trailing newline).
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(0, &mut out);
        out
    }

    fn write(&self, indent: usize, out: &mut String) {
        match self {
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::UInt(u) => out.push_str(&u.to_string()),
            Json::Str(s) => write_escaped(s, out),
            Json::Array(items) => {
                write_block(("[", "]"), items.iter().map(|v| (None, v)), indent, out)
            }
            Json::Object(entries) => write_block(
                ("{", "}"),
                entries.iter().map(|(k, v)| (Some(k.as_str()), v)),
                indent,
                out,
            ),
        }
    }
}

/// One array or object: `[]`/`{}` when empty, otherwise one entry per
/// line at `indent + 1`, entries separated by commas.
fn write_block<'a>(
    (open, close): (&str, &str),
    entries: impl ExactSizeIterator<Item = (Option<&'a str>, &'a Json)>,
    indent: usize,
    out: &mut String,
) {
    out.push_str(open);
    if entries.len() == 0 {
        out.push_str(close);
        return;
    }
    for (i, (key, value)) in entries.enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&"  ".repeat(indent + 1));
        if let Some(key) = key {
            write_escaped(key, out);
            out.push_str(": ");
        }
        value.write(indent + 1, out);
    }
    out.push('\n');
    out.push_str(&"  ".repeat(indent));
    out.push_str(close);
}

fn write_escaped(s: &str, out: &mut String) {
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
