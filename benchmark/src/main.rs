//! The ledger: one end-to-end benchmark of the NRC⁺ IVM stack with
//! per-layer attribution. See `benchmark/README.md`.
//!
//! ```text
//! benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run
//! benchmark/run.sh [--seed N] [--workload W] [--traced]            all or one workload
//! benchmark/run.sh --repeat SETSxRUNS [--out FILE]                 repeatability tool
//! benchmark/run.sh --print-spec                                    BENCHMARK.json
//! ```

mod orchestrate;
mod repeat;
mod report;
mod run;
mod spec;
mod stats;
mod workload;

use orchestrate::{RunResult, RunSpec};
use std::path::PathBuf;
use std::process::ExitCode;

/// Command line of the parent and of its children.
#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
    repeat: Option<(usize, usize)>,
    out: PathBuf,
    print_spec: bool,
    job: Option<run::Job>,
    scratch: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS,
        traced: false,
        repeat: None,
        out: PathBuf::from("benchmark/results/baseline.json"),
        print_spec: false,
        job: None,
        scratch: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: u64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&s) {
                    return Err("--seconds must be 1 to 60".to_string());
                }
                args.seconds = s;
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => args.traced = true,
            "--repeat" => {
                let v = value()?;
                let parsed = v
                    .split_once('x')
                    .and_then(|(s, r)| Some((s.parse().ok()?, r.parse().ok()?)));
                match parsed {
                    Some((sets, runs)) if sets >= 1 && runs >= 2 => {
                        args.repeat = Some((sets, runs))
                    }
                    _ => return Err(format!("--repeat takes SETSxRUNS (runs ≥ 2), not {v}")),
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--print-spec" => args.print_spec = true,
            "--job" => {
                let v = value()?;
                args.job = Some(run::Job::parse(&v).ok_or_else(|| format!("unknown job {v}"))?);
            }
            "--scratch" => args.scratch = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Scratch space next to the executable: inside the build directory, so
/// inside the checkout and never committed.
fn default_scratch() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe.parent().and_then(|p| p.parent()).unwrap_or(&exe);
    Ok(dir.join("nrc-benchmark-scratch"))
}

/// Where and on what the numbers were taken.
fn print_header(args: &Args, scratch: &std::path::Path) {
    std::fs::create_dir_all(scratch).ok();
    println!("# nrc-benchmark");
    println!(
        "commit            {}",
        orchestrate::provenance("NRC_BENCH_COMMIT")
    );
    println!(
        "rustc             {}",
        orchestrate::provenance("NRC_BENCH_RUSTC")
    );
    println!("nproc             {}", orchestrate::cores());
    println!(
        "scratch           {} ({})",
        scratch.display(),
        orchestrate::filesystem_type(scratch)
    );
    println!("seed              {}", args.seed);
    println!("seconds           {}", args.seconds);
}

fn print_result(p: &workload::Params, traced: bool, result: &RunResult) {
    println!();
    println!(
        "## {} ({})",
        p.name,
        if traced {
            "traced: per-layer"
        } else {
            "untraced: end-to-end"
        }
    );
    println!(
        "sizes: {} movies, {} batches x {} updates, {} views, fsync {:?}, checkpoints after {:?}, \
         {}, {} restart rounds with recover_at({})",
        p.movies,
        p.batches,
        p.batch_size,
        p.views.len(),
        p.fsync,
        p.checkpoints,
        match p.period {
            Some(period) => format!("open loop every {period:?}"),
            None => "closed loop".to_string(),
        },
        p.restart_rounds,
        p.recover_at,
    );
    for m in &result.metrics {
        let unit = spec::metric(m.name).map_or("", |s| s.unit);
        println!("{:<42} {:>18.6} {unit}", m.name, m.value);
    }
    for note in &result.notes {
        println!("note: {note}");
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&argv) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("nrc-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn real_main(argv: &[String]) -> Result<ExitCode, String> {
    let args = parse_args(argv)?;
    if args.print_spec {
        print!("{}", spec::benchmark_json());
        return Ok(ExitCode::SUCCESS);
    }

    // A child: one job, one report on standard output.
    if let Some(job) = args.job {
        let name = args.workload.as_deref().ok_or("--job needs --workload")?;
        let p = workload::params(name, args.seconds).ok_or(format!("unknown workload {name}"))?;
        let dir = args.scratch.clone().ok_or("--job needs --scratch")?;
        let report = run::run(job, &p, args.seed, &dir)?;
        print!("{}", report.to_text());
        return Ok(ExitCode::SUCCESS);
    }

    let scratch = match &args.scratch {
        Some(dir) => dir.clone(),
        None => default_scratch()?,
    };
    print_header(&args, &scratch);
    if let Some((sets, runs)) = args.repeat {
        let ok = repeat::repeat(
            &args.workload,
            args.seed,
            args.seconds,
            sets,
            runs,
            &scratch,
            &args.out,
        )?;
        return Ok(if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        });
    }

    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => spec::WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let mut all_correct = true;
    let mut lines = Vec::new();
    for name in names {
        let p = workload::params(name, args.seconds).ok_or(format!("unknown workload {name}"))?;
        let spec = RunSpec {
            workload: name.to_string(),
            seed: args.seed,
            seconds: args.seconds,
            traced: args.traced,
            scratch: scratch.clone(),
        };
        let result = orchestrate::run_once(&spec, &p)?;
        print_result(&p, args.traced, &result);
        all_correct &= result.correct;
        lines.push(spec::result_line(
            result.correct,
            result.attempted,
            result.failed,
            &result.metrics,
        ));
    }
    let _ = std::fs::remove_dir(&scratch);
    println!();
    for line in lines {
        println!("{line}");
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse_args(&argv("--workload restart --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload.as_deref(), Some("restart"));
        assert_eq!((a.seed, a.seconds, a.traced), (7, 10, true));
        let a = parse_args(&argv("--repeat 2x5 --traced")).unwrap();
        assert_eq!(a.repeat, Some((2, 5)));
        assert!(a.traced);
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--repeat 2x1")).is_err());
        assert!(parse_args(&argv("--bogus")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
    }
}
