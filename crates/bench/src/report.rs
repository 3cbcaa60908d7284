//! Tabular experiment output: markdown for humans, JSON for tooling.

use nrc_obs::json::Json;

/// One experiment's result table.
#[derive(Clone, Debug)]
pub struct Table {
    /// Experiment id, e.g. `"E1"`.
    pub id: String,
    /// Title (the paper claim).
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows of cells (already formatted).
    pub rows: Vec<Vec<String>>,
    /// Free-text observations (the "shape" verdict).
    pub notes: Vec<String>,
}

impl Table {
    /// Start a table.
    pub fn new(id: impl Into<String>, title: impl Into<String>, columns: &[&str]) -> Table {
        Table {
            id: id.into(),
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: vec![],
            notes: vec![],
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Append a note.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Render as GitHub-flavored markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {} — {}\n\n", self.id, self.title));
        out.push_str(&format!("| {} |\n", self.columns.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.columns.iter().map(|_| "---|").collect::<String>()
        ));
        for r in &self.rows {
            out.push_str(&format!("| {} |\n", r.join(" | ")));
        }
        for n in &self.notes {
            out.push_str(&format!("\n> {n}\n"));
        }
        out.push('\n');
        out
    }

    /// The JSON object `{id, title, columns, rows, notes}`.
    pub fn to_json(&self) -> Json {
        let strings =
            |cells: &[String]| Json::Array(cells.iter().cloned().map(Json::Str).collect());
        Json::Object(vec![
            ("id".to_owned(), Json::Str(self.id.clone())),
            ("title".to_owned(), Json::Str(self.title.clone())),
            ("columns".to_owned(), strings(&self.columns)),
            (
                "rows".to_owned(),
                Json::Array(self.rows.iter().map(|r| strings(r)).collect()),
            ),
            ("notes".to_owned(), strings(&self.notes)),
        ])
    }
}

/// Format a microsecond figure compactly.
pub fn fmt_us(us: f64) -> String {
    if us >= 1e6 {
        format!("{:.2} s", us / 1e6)
    } else if us >= 1e3 {
        format!("{:.1} ms", us / 1e3)
    } else {
        format!("{us:.1} µs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_shape() {
        let mut t = Table::new("E0", "demo", &["n", "time"]);
        t.row(vec!["1".into(), "2 µs".into()]);
        t.note("looks right");
        let md = t.to_markdown();
        assert!(md.contains("### E0 — demo"));
        assert!(md.contains("| n | time |"));
        assert!(md.contains("| 1 | 2 µs |"));
        assert!(md.contains("> looks right"));
    }

    /// What the harness writes to `results/experiments.json`, byte for byte.
    #[test]
    fn json_is_golden() {
        let mut t = Table::new("E0", "demo \"quoted\"", &["n", "time"]);
        t.row(vec!["1".into(), "2 µs".into()]);
        t.note("looks right");
        let empty = Table::new("E1", "empty", &[]);
        assert_eq!(
            Json::Array(vec![t.to_json(), empty.to_json()]).to_pretty(),
            r#"[
  {
    "id": "E0",
    "title": "demo \"quoted\"",
    "columns": [
      "n",
      "time"
    ],
    "rows": [
      [
        "1",
        "2 µs"
      ]
    ],
    "notes": [
      "looks right"
    ]
  },
  {
    "id": "E1",
    "title": "empty",
    "columns": [],
    "rows": [],
    "notes": []
  }
]"#
        );
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        let mut t = Table::new("E0", "demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn time_formatting() {
        assert_eq!(fmt_us(12.34), "12.3 µs");
        assert_eq!(fmt_us(12345.0), "12.3 ms");
        assert_eq!(fmt_us(2_500_000.0), "2.50 s");
    }
}
