//! What a child process hands back to the orchestrator: named scalars and
//! named per-batch series, as plain lines on standard output.

use std::collections::BTreeMap;

/// One job's measurements.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    pub scalars: BTreeMap<String, f64>,
    pub series: BTreeMap<String, Vec<u64>>,
}

impl Report {
    pub fn set(&mut self, key: &str, value: f64) {
        self.scalars.insert(key.to_string(), value);
    }

    pub fn set_series(&mut self, key: &str, values: Vec<u64>) {
        self.series.insert(key.to_string(), values);
    }

    /// A scalar; 0 when the job did not report it.
    pub fn get(&self, key: &str) -> f64 {
        self.scalars.get(key).copied().unwrap_or(0.0)
    }

    /// A series; empty when the job did not report it.
    pub fn series(&self, key: &str) -> &[u64] {
        self.series.get(key).map_or(&[], Vec::as_slice)
    }

    /// Sum of a series, in its own unit.
    pub fn sum(&self, key: &str) -> f64 {
        self.series(key).iter().sum::<u64>() as f64
    }

    /// `s <key> <value>` and `v <key> <a,b,c>` lines.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.scalars {
            out.push_str(&format!("s {k} {v}\n"));
        }
        for (k, vs) in &self.series {
            let joined: Vec<String> = vs.iter().map(u64::to_string).collect();
            out.push_str(&format!("v {k} {}\n", joined.join(",")));
        }
        out
    }

    /// Parse [`Report::to_text`] output; any other line is an error, so a
    /// child that printed something unexpected fails the run.
    pub fn parse(text: &str) -> Result<Report, String> {
        let mut report = Report::default();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let mut parts = line.splitn(3, ' ');
            let (kind, key) = (parts.next(), parts.next());
            let rest = parts.next().unwrap_or("");
            match (kind, key) {
                (Some("s"), Some(key)) => {
                    let v: f64 = rest
                        .parse()
                        .map_err(|e| format!("bad scalar line {line:?}: {e}"))?;
                    report.scalars.insert(key.to_string(), v);
                }
                (Some("v"), Some(key)) => {
                    let vs: Result<Vec<u64>, _> = rest
                        .split(',')
                        .filter(|s| !s.is_empty())
                        .map(str::parse)
                        .collect();
                    let vs = vs.map_err(|e| format!("bad series line for {key}: {e}"))?;
                    report.series.insert(key.to_string(), vs);
                }
                _ => return Err(format!("unexpected child output line {line:?}")),
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_round_trips() {
        let mut r = Report::default();
        r.set("setup_s", 0.123456789012345);
        r.set("count", 3.0);
        r.set_series("apply_ns", vec![1, 22, 333]);
        r.set_series("empty", Vec::new());
        let back = Report::parse(&r.to_text()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.sum("apply_ns"), 356.0);
        assert_eq!(back.get("missing"), 0.0);
        assert!(back.series("missing").is_empty());
        assert!(Report::parse("panicked at …").is_err());
    }
}
