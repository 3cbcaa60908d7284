//! The repeatability tool: `--repeat SETSxRUNS` runs interleaved sets of
//! untraced runs, one seed per run, and holds each end-to-end metric's
//! run-to-run spread and set-to-set difference against its bound.

use crate::orchestrate::{cores, provenance, run_once, RunSpec};
use crate::spec::{json_num, Better, MetricSpec, END_TO_END, WORKLOADS};
use crate::stats;
use crate::workload;
use std::collections::BTreeMap;
use std::path::Path;

/// One metric of one workload over all sets.
struct Series {
    /// `per_set[s]` holds set `s`'s value from each run, in run order.
    per_set: Vec<Vec<f64>>,
}

impl Series {
    fn all(&self) -> Vec<f64> {
        self.per_set.iter().flatten().copied().collect()
    }

    /// The widest distance between a set's quartiles as a share of its
    /// median — what the acceptance rule holds below the bound.
    fn spread(&self) -> f64 {
        self.per_set
            .iter()
            .map(|s| stats::spread(s))
            .fold(0.0, f64::max)
    }

    /// By how large a share of the first set's median the last set's
    /// median is *worse*; negative when it is better.
    fn set_to_set(&self, better: Better) -> f64 {
        let first = stats::median(&self.per_set[0]);
        let last = stats::median(&self.per_set[self.per_set.len() - 1]);
        if first == 0.0 {
            return 0.0;
        }
        match better {
            Better::Lower => (last - first) / first,
            Better::Higher => (first - last) / first,
        }
    }
}

/// Is the metric within its bound? `setup_s` is held to the set-to-set
/// rule only; its run-to-run spread is reported and not gated.
fn within_bound(m: &MetricSpec, s: &Series) -> bool {
    let bound = m.bound.expect("end-to-end metric");
    let spread_ok = m.name == "setup_s" || s.spread() <= bound;
    spread_ok && s.set_to_set(m.better) <= bound
}

/// Run the sets, print the table, write `out`. `Ok(false)` when a run was
/// incorrect or a metric left its bound.
pub fn repeat(
    only: &Option<String>,
    base_seed: u64,
    seconds: u64,
    sets: usize,
    runs: usize,
    scratch: &Path,
    out: &Path,
) -> Result<bool, String> {
    let names: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|n| only.as_deref().is_none_or(|o| o == *n))
        .collect();
    if names.is_empty() {
        return Err(format!("unknown workload {only:?}"));
    }
    let mut data: BTreeMap<(&str, &str), Series> = BTreeMap::new();
    let mut all_correct = true;
    // Sets are interleaved run by run, so that slow drift of the machine
    // reaches every set alike.
    for run in 0..runs {
        for set in 0..sets {
            for name in &names {
                let p = workload::params(name, seconds).expect("listed workload");
                let spec = RunSpec {
                    workload: name.to_string(),
                    seed: base_seed + run as u64,
                    seconds,
                    traced: false,
                    scratch: scratch.to_path_buf(),
                };
                let result = run_once(&spec, &p)?;
                eprintln!(
                    "[repeat] run {}/{runs} set {}/{sets} {name} seed {} correct={}",
                    run + 1,
                    set + 1,
                    spec.seed,
                    result.correct
                );
                all_correct &= result.correct;
                for m in &result.metrics {
                    let series = data.entry((name, m.name)).or_insert_with(|| Series {
                        per_set: vec![Vec::new(); sets],
                    });
                    series.per_set[set].push(m.value);
                }
            }
        }
    }

    let mut all_within = true;
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"commit\": \"{}\",\n",
        provenance("NRC_BENCH_COMMIT")
    ));
    json.push_str(&format!(
        "  \"rustc\": \"{}\",\n",
        provenance("NRC_BENCH_RUSTC")
    ));
    json.push_str(&format!("  \"nproc\": {},\n", cores()));
    json.push_str(&format!(
        "  \"filesystem\": \"{}\",\n",
        crate::orchestrate::filesystem_type(scratch)
    ));
    json.push_str(&format!(
        "  \"seconds\": {seconds},\n  \"base_seed\": {base_seed},\n  \"sets\": {sets},\n  \"runs\": {runs},\n"
    ));
    json.push_str("  \"workloads\": {\n");
    for (wi, name) in names.iter().enumerate() {
        let p = workload::params(name, seconds).expect("listed workload");
        println!();
        println!(
            "## {name}: {sets} sets x {runs} runs, seeds {base_seed}..{}",
            base_seed + runs as u64 - 1
        );
        println!(
            "{:<24} {:>14} {:>14} {:>14} {:>8} {:>10} {:>6}  verdict",
            "metric", "median", "q1", "q3", "spread", "set-to-set", "bound"
        );
        json.push_str(&format!(
            "    \"{name}\": {{\n      \"sizes\": {{\"movies\": {}, \"batches\": {}, \"batch_size\": {}}},\n      \"metrics\": {{\n",
            p.movies, p.batches, p.batch_size
        ));
        for (mi, m) in END_TO_END.iter().enumerate() {
            let series = &data[&(*name, m.name)];
            let all = series.all();
            let (q1, q3) = stats::quartiles(&all);
            let median = stats::median(&all);
            let bound = m.bound.expect("end-to-end metric");
            let ok = within_bound(m, series);
            all_within &= ok;
            let verdict = match (ok, series.spread() <= bound / 3.0) {
                (false, _) => "OUT OF BOUND",
                (true, true) => "ok",
                (true, false) => "ok (spread above a third of the bound)",
            };
            println!(
                "{:<24} {:>14.5} {:>14.5} {:>14.5} {:>7.1}% {:>+9.1}% {:>5.0}%  {verdict}",
                m.name,
                median,
                q1,
                q3,
                100.0 * series.spread(),
                100.0 * series.set_to_set(m.better),
                100.0 * bound,
            );
            let sets_json: Vec<String> = series
                .per_set
                .iter()
                .map(|s| {
                    let vs: Vec<String> = s.iter().map(|v| json_num(*v)).collect();
                    format!("[{}]", vs.join(", "))
                })
                .collect();
            json.push_str(&format!(
                "        \"{}\": {{\"unit\": \"{}\", \"median\": {}, \"q1\": {}, \"q3\": {}, \"spread\": {}, \"set_to_set\": {}, \"sets\": [{}]}}{}\n",
                m.name,
                m.unit,
                json_num(median),
                json_num(q1),
                json_num(q3),
                json_num(series.spread()),
                json_num(series.set_to_set(m.better)),
                sets_json.join(", "),
                if mi + 1 < END_TO_END.len() { "," } else { "" },
            ));
        }
        json.push_str(&format!(
            "      }}\n    }}{}\n",
            if wi + 1 < names.len() { "," } else { "" }
        ));
    }
    json.push_str("  }\n}\n");
    if let Some(parent) = out.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(out, json).map_err(|e| format!("{}: {e}", out.display()))?;
    println!();
    println!(
        "wrote {}; all runs correct: {all_correct}; every metric within its bound: {all_within}",
        out.display()
    );
    Ok(all_correct && all_within)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_gate_spread_and_set_to_set_worsening() {
        let latency = &END_TO_END[2];
        assert_eq!(
            (latency.name, latency.better),
            ("batch_p50_ms", Better::Lower)
        );
        let bound = latency.bound.unwrap();
        let steady = Series {
            per_set: vec![vec![1.0, 1.01, 0.99, 1.0], vec![1.0, 1.0, 1.02, 0.98]],
        };
        assert!(within_bound(latency, &steady));
        // The second set is slower by more than the bound.
        let drifted = Series {
            per_set: vec![vec![1.0, 1.0, 1.0], vec![1.0 + 2.0 * bound; 3]],
        };
        assert!(drifted.set_to_set(Better::Lower) > bound);
        assert!(!within_bound(latency, &drifted));
        // Getting better never fails the set-to-set rule.
        let improved = Series {
            per_set: vec![vec![1.0, 1.0, 1.0], vec![0.5, 0.5, 0.5]],
        };
        assert!(within_bound(latency, &improved));
        // A wide spread fails every metric but setup_s.
        let noisy = Series {
            per_set: vec![vec![1.0, 2.0, 3.0, 4.0], vec![1.0, 2.0, 3.0, 4.0]],
        };
        assert!(!within_bound(latency, &noisy));
        assert!(within_bound(&END_TO_END[0], &noisy));
        // For a throughput, lower is worse.
        let throughput = Series {
            per_set: vec![vec![100.0, 100.0], vec![80.0, 80.0]],
        };
        assert!((throughput.set_to_set(Better::Higher) - 0.2).abs() < 1e-12);
    }
}
