//! End-to-end and per-layer benchmark of the squ workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper|fuzz|synth|serve> --seed <n> --seconds <s> --trace <0|1> [--jobs <n>]
//! ```
//!
//! With `--trace 0` the run measures the workload end to end, untraced,
//! and prints the end-to-end metrics. With `--trace 1` it runs the same
//! work once more inside benchmark-side spans, replays the workload's
//! inputs layer by layer, and prints the per-layer metrics. Either way
//! the last stdout line is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Human-readable detail (sample counts, hit share, the result stamp)
//! goes to stderr and to `perfbench/out/`.

mod calib;
mod fixed;
mod pins;
mod replay;
mod serve;
mod stats;
mod trace;

use stats::Tally;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

/// The four workloads, in `BENCHMARK.json` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Paper,
    Fuzz,
    Synth,
    Serve,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Paper,
        Workload::Fuzz,
        Workload::Synth,
        Workload::Serve,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::Fuzz => "fuzz",
            Workload::Synth => "synth",
            Workload::Serve => "serve",
        }
    }

    fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Checked command-line options.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Worker threads or connections; defaults to the machine's
    /// available parallelism.
    pub jobs: usize,
}

/// Metrics of one run: name → (value, unit), printed in name order.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, (value, unit))| {
                // JSON has no infinity: a metric every sample of which
                // failed is reported as a very large number
                let v = if value.is_finite() { *value } else { 1e12 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// What a workload run hands back to `main`.
pub struct Outcome {
    pub tally: Tally,
    /// Checks that are not per operation (pins missing for a required
    /// seed, too few latency samples, ...). Any entry makes the run
    /// incorrect.
    pub problems: Vec<String>,
    pub metrics: Metrics,
    /// Extra lines for the recorded result (sample counts, hit share).
    pub notes: Vec<String>,
}

fn usage() -> String {
    "usage: perfbench --workload <paper|fuzz|synth|serve> --seed <n> --seconds <s> --trace <0|1> [--jobs <n>]"
        .to_string()
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut jobs = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => match num()? {
                s @ 1..=600 => seconds = Some(Duration::from_secs(s)),
                s => return Err(format!("--seconds must be 1..=600, got {s}")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
            },
            "--jobs" => match num()? {
                j @ 1..=64 => jobs = Some(j as usize),
                j => return Err(format!("--jobs must be 1..=64, got {j}")),
            },
            _ => return Err(format!("unknown flag {flag:?}\n{}", usage())),
        }
    }
    Ok(Opts {
        workload: workload.ok_or_else(usage)?,
        seed: seed.ok_or_else(usage)?,
        seconds: seconds.ok_or_else(usage)?,
        trace: trace.ok_or_else(usage)?,
        jobs: jobs.unwrap_or_else(nproc),
    })
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Directory for run outputs (traces, recorded results, fresh store
/// roots), inside the checkout the benchmark runs from.
pub fn out_dir() -> PathBuf {
    PathBuf::from("perfbench/out")
}

/// Stamp recorded with every result: commit, core count, toolchain and
/// build profile.
fn stamp(opts: &Opts) -> String {
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    format!(
        "{{\"commit\": \"{commit}\", \"nproc\": {}, \"jobs\": {}, \"rustc\": \"{}\", \"profile\": \"{}\"}}",
        nproc(),
        opts.jobs,
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--child") {
        fixed::child_main(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("--child-calib") {
        calib::child_main(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("--child-serve-setup") {
        let jobs = args
            .get(1)
            .and_then(|j| j.parse().ok())
            .unwrap_or_else(nproc);
        serve::child_setup(jobs);
        return;
    }
    if args.first().map(String::as_str) == Some("--child-serve-prebuild") {
        let jobs = args
            .get(2)
            .and_then(|j| j.parse().ok())
            .unwrap_or_else(nproc);
        serve::child_prebuild(args.get(1).map_or("", String::as_str), jobs);
        return;
    }
    if args.first().map(String::as_str) == Some("--pin") {
        pins::pin_main(&args[1..]);
        return;
    }
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    // the benchmark builds and runs from the repository root; refuse to
    // run anywhere else rather than measure nothing
    if !PathBuf::from("perfbench/Cargo.toml").is_file() {
        eprintln!("error: run from the repository root (perfbench/Cargo.toml not found)");
        std::process::exit(2);
    }
    if let Err(e) = std::fs::create_dir_all(out_dir()) {
        eprintln!("error: cannot create {}: {e}", out_dir().display());
        std::process::exit(2);
    }

    let outcome = match opts.workload {
        Workload::Serve => serve::run(&opts),
        w => fixed::run(w, &opts),
    };
    let correct = outcome.tally.failed == 0 && outcome.problems.is_empty();
    for p in &outcome.problems {
        eprintln!("check failed: {p}");
    }
    let stamp = stamp(&opts);
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.tally.attempted,
        outcome.tally.failed,
        outcome.metrics.to_json()
    );
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"error_rate\": {}, \"stamp\": {stamp}, \"notes\": [{}], \"result\": {result}}}\n",
        opts.workload.name(),
        opts.seed,
        opts.trace,
        outcome.tally.error_rate(),
        outcome
            .notes
            .iter()
            .map(|n| format!("\"{}\"", n.replace('"', "'")))
            .collect::<Vec<_>>()
            .join(", "),
    );
    let path = out_dir().join(format!(
        "result-{}-{}-{}.json",
        opts.workload.name(),
        opts.seed,
        if opts.trace { "trace" } else { "e2e" }
    ));
    if let Err(e) = std::fs::write(&path, &record) {
        eprintln!("warning: could not record {}: {e}", path.display());
    }
    eprintln!("stamp: {stamp}");
    for n in &outcome.notes {
        eprintln!("note: {n}");
    }
    eprintln!(
        "error_rate: {} ({} of {} failed)",
        outcome.tally.error_rate(),
        outcome.tally.failed,
        outcome.tally.attempted
    );
    println!("{result}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn flags_are_checked() {
        let o = parse_args(&argv("--workload fuzz --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(o.workload, Workload::Fuzz);
        assert_eq!((o.seed, o.seconds.as_secs(), o.trace), (3, 10, true));
        assert!(parse_args(&argv("--workload nope --seed 3 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload fuzz --seed 3 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload fuzz --seed 3 --seconds 10 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload fuzz --seed 3 --seconds 10")).is_err());
        assert!(parse_args(&argv("--workload fuzz --seed x --seconds 10 --trace 0")).is_err());
        let j = parse_args(&argv(
            "--workload serve --seed 1 --seconds 5 --trace 0 --jobs 1",
        ))
        .unwrap();
        assert_eq!(j.jobs, 1);
    }

    #[test]
    fn non_finite_metrics_stay_valid_json() {
        let mut m = Metrics::default();
        m.set("p90_ms", f64::INFINITY, "ms");
        m.set("a", 1.5, "s");
        assert_eq!(
            m.to_json(),
            "{\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"p90_ms\": {\"value\": 1000000000000, \"unit\": \"ms\"}}"
        );
    }
}
