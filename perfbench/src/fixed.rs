//! The fixed-work workloads: `paper`, `fuzz` and `synth`.
//!
//! Each repetition is one fresh worker process (this binary with
//! `--child`), so every repetition pays what a user's `repro` run pays,
//! the process-wide witness cache included. A run cycles through `K`
//! sub-seeds (`--seed` itself and a fixed panel, see [`sub_seed`]), each
//! at least once, while another repetition fits in `--seconds`; every
//! statistic weighs each sub-seed the same, and `wall_s` is the mean over
//! sub-seeds of their mean wall.
//! Every time is first scaled by the machine's speed around its
//! repetition (see [`crate::calib`]).
//!
//! `p50_ms` and `p90_ms` are percentiles of the sub-seeds' mean
//! repetition times, estimated with [`stats::harrell_davis`]: the
//! sub-seeds are different inputs, and a nearest-rank median jumps from
//! one to the next. A run has too few sub-seeds to support any
//! percentile above the median
//! (see [`stats::highest_supported_percentile`]), so on these workloads
//! `p90_ms` reports the median, and `setup_s` is worker start-up: the
//! work has no set-up phase of its own.

use crate::calib::Calibration;
use crate::pins::Pins;
use crate::replay::{self, Layers};
use crate::stats::{self, Digest, Tally};
use crate::trace::{self, SpanId, Tracer};
use crate::{Metrics, Opts, Outcome, Workload};
use squ::tasks::TaskId;
use squ::timing::Span as LibSpan;
use squ::workload::Workload as Source;
use squ::{par, run_experiment, ExperimentId, Suite};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Sub-seeds per run and work size per repetition.
pub fn plan(w: Workload) -> (usize, u64) {
    match w {
        // size: the whole suite plus the 20 artifacts
        Workload::Paper => (16, 20),
        // size: fuzz cases per campaign
        Workload::Fuzz => (8, 1000),
        // size: queries synthesized (4 shards)
        Workload::Synth => (8, 60_000),
        Workload::Serve => unreachable!("serve is not a fixed-work workload"),
    }
}

const SYNTH_SHARDS: usize = 4;

/// Fuzz cases replayed layer by layer in the traced `paper` run.
const PAPER_FUZZ_REPLAY_CASES: u64 = 500;

/// Sub-seed `i` of a run: the run's own seed first, then a fixed panel
/// derived from the paper's seed. The work of one repetition depends
/// strongly on its seed (suite build time and peak memory vary several
/// fold between seeds), so a run averages the seed it was given with a
/// panel every run shares; that keeps runs with different seeds
/// comparable while each still measures an input of its own.
pub fn sub_seed(seed: u64, i: usize) -> u64 {
    if i == 0 {
        seed
    } else {
        squ::workload::mix(squ::PAPER_SEED, 0x5EED_0000 + i as u64)
    }
}

/// What one repetition produced.
#[derive(Default)]
pub struct Rep {
    pub wall: Duration,
    pub digest: String,
    /// The program's own checks (oracles clean, sketch bound held, all
    /// artifacts present) passed.
    pub ok: bool,
    /// Work items completed (artifacts, cases, queries).
    pub items: u64,
    /// Exact counters from the program's own report, for the traced run.
    pub extras: Vec<(&'static str, f64)>,
    /// The suite's own `suite.*` timing spans (`paper` only).
    pub suite_spans: Vec<LibSpan>,
    /// The suite the artifacts ran on (`paper` only), kept for the replay.
    pub suite: Option<Suite>,
}

/// One repetition, optionally inside benchmark-side spans.
pub fn rep(w: Workload, seed: u64, jobs: usize, tracer: Option<&Tracer>) -> Rep {
    let (_, size) = plan(w);
    let start = Instant::now();
    let r = trace::maybe(tracer, None, w.name(), 0, |root| match w {
        Workload::Paper => paper(seed, jobs, tracer, root),
        Workload::Fuzz => fuzz(size, seed, jobs, tracer, root),
        Workload::Synth => synth(size, seed, jobs, tracer, root),
        Workload::Serve => unreachable!("serve is not a fixed-work workload"),
    });
    Rep {
        wall: start.elapsed(),
        ..r
    }
}

/// The suite plus all 20 paper artifacts, as `repro --jobs <jobs>` runs
/// them.
fn paper(seed: u64, jobs: usize, tracer: Option<&Tracer>, root: Option<SpanId>) -> Rep {
    drain_library_timings();
    let suite = trace::maybe(tracer, root, "suite.build", 0, |_| {
        Suite::new_with_jobs(seed, jobs)
    });
    let suite_spans = suite_spans();
    let artifacts = par::map(jobs, ExperimentId::ALL.to_vec(), |id| {
        trace::maybe(tracer, root, "core.artifact", 0, |_| {
            run_experiment(&suite, id)
        })
    });
    let mut d = Digest::default();
    let mut ok = artifacts.len() == ExperimentId::ALL.len();
    for a in &artifacts {
        ok &= !a.body.trim().is_empty();
        d.part(a.id.as_bytes())
            .part(a.title.as_bytes())
            .part(a.body.as_bytes())
            .part(a.csv.as_deref().unwrap_or("").as_bytes());
    }
    drain_library_timings();
    Rep {
        digest: d.hex(),
        ok,
        items: artifacts.len() as u64,
        suite_spans,
        suite: Some(suite),
        ..Rep::default()
    }
}

/// The `run_fuzz` oracle campaign at `jobs` workers (the work behind
/// `fuzz.json`). Traced, cases go through the same `par::map` over the
/// public `run_case`, one span each.
fn fuzz(cases: u64, seed: u64, jobs: usize, tracer: Option<&Tracer>, root: Option<SpanId>) -> Rep {
    let report = match tracer {
        None => squ::run_fuzz(cases, seed, jobs, None),
        Some(t) => {
            let cfg = squ_fuzz::FuzzConfig::new(seed);
            let reports = par::map(jobs, (0..cases).collect(), |i| {
                t.span(root, "fuzz.case", i, |_| squ_fuzz::run_case(&cfg, i))
            });
            squ_fuzz::FuzzReport::from_cases_in(seed, "squ", &reports)
        }
    };
    Rep {
        digest: stats::digest(report.to_json().as_bytes()),
        ok: report.is_clean(),
        items: cases,
        ..Rep::default()
    }
}

fn synth_config(n: u64, seed: u64, jobs: usize) -> squ::SynthConfig {
    squ::SynthConfig {
        base: Source::Sdss,
        seed,
        n,
        shards: SYNTH_SHARDS,
        jobs,
        target_json: None,
    }
}

/// Untargeted `run_synth` over the SDSS base.
fn synth(n: u64, seed: u64, jobs: usize, tracer: Option<&Tracer>, root: Option<SpanId>) -> Rep {
    let report = trace::maybe(tracer, root, "workload.synth", 0, |_| {
        squ::run_synth(&synth_config(n, seed, jobs), None)
    });
    drain_library_timings();
    match report {
        Ok(r) => {
            let ok = !r.exhausted && r.sketch_check.as_ref().is_none_or(|c| c.pass);
            Rep {
                digest: stats::digest(r.to_json().as_bytes()),
                ok,
                items: r.requested,
                extras: vec![
                    ("workload.accept_ratio", r.acceptance_rate),
                    ("workload.gen_items", r.candidates as f64),
                ],
                ..Rep::default()
            }
        }
        Err(e) => Rep {
            digest: format!("error: {e}"),
            ..Rep::default()
        },
    }
}

/// The library keeps its own flat timing spans in a process-wide list;
/// drop them so repeated work does not grow memory.
pub fn drain_library_timings() {
    let _ = squ::timing::drain();
    let _ = squ::timing::drain_counters();
}

/// Drain the library's timings and keep the suite's own build spans
/// (`suite.workload.<w>`, `suite.task.<task>[.<w>]`, `suite.total`).
pub fn suite_spans() -> Vec<LibSpan> {
    let spans = squ::timing::drain();
    let _ = squ::timing::drain_counters();
    spans
        .into_iter()
        .filter(|s| s.name.starts_with("suite."))
        .collect()
}

/// Peak resident set size of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    squ::synth::peak_rss_kb() as f64 / 1024.0
}

/// Worker process entry: `--child <workload> <seed> <jobs> [traced]`.
/// Prints `ready` once it has started, then runs one repetition (inside
/// spans that are then dropped, with `traced`) and prints one `result`
/// line (wall ns, digest, own checks, peak RSS KiB, items).
pub fn child_main(args: &[String]) {
    let parsed = (|| {
        let w = crate::Workload::ALL
            .into_iter()
            .find(|w| Some(w.name()) == args.first().map(String::as_str))?;
        let seed = args.get(1)?.parse::<u64>().ok()?;
        let jobs = args.get(2)?.parse::<usize>().ok()?;
        Some((w, seed, jobs))
    })();
    let Some((w, seed, jobs)) = parsed else {
        eprintln!("error: --child <workload> <seed> <jobs> [traced]");
        std::process::exit(2);
    };
    println!("ready");
    let _ = std::io::stdout().flush();
    let tracer = (args.get(3).map(String::as_str) == Some("traced")).then(Tracer::default);
    let r = rep(w, seed, jobs, tracer.as_ref());
    println!(
        "result {} {} {} {} {}",
        r.wall.as_nanos(),
        r.digest,
        u8::from(r.ok),
        squ::synth::peak_rss_kb(),
        r.items
    );
}

/// A repetition as seen by the parent.
struct ChildRep {
    sub: usize,
    setup: Duration,
    rep: Rep,
    rss_kb: u64,
}

/// Spawn one worker, time it to `ready`, and collect its result.
fn spawn_rep(
    w: Workload,
    sub: usize,
    seed: u64,
    jobs: usize,
    traced: bool,
) -> Result<ChildRep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let started = Instant::now();
    let mut child = Command::new(exe)
        .args(["--child", w.name(), &seed.to_string(), &jobs.to_string()])
        .args(traced.then_some("traced"))
        .stdout(Stdio::piped())
        .stdin(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn worker: {e}"))?;
    let stdout = child.stdout.take().expect("worker stdout is piped");
    let mut lines = BufReader::new(stdout).lines();
    let ready = lines.next();
    let setup = started.elapsed();
    let result = lines.next();
    let status = child.wait().map_err(|e| format!("wait for worker: {e}"))?;
    match (ready, result) {
        (Some(Ok(r)), Some(Ok(line))) if r == "ready" && status.success() => {
            let f: Vec<&str> = line.split_whitespace().collect();
            let num = |i: usize| f.get(i).and_then(|s| s.parse::<u64>().ok());
            match (f.first(), num(1), f.get(2), num(3), num(4), num(5)) {
                (Some(&"result"), Some(ns), Some(digest), Some(ok), Some(rss), Some(items)) => {
                    Ok(ChildRep {
                        sub,
                        setup,
                        rep: Rep {
                            wall: Duration::from_nanos(ns),
                            digest: digest.to_string(),
                            ok: ok == 1,
                            items,
                            ..Rep::default()
                        },
                        rss_kb: rss,
                    })
                }
                _ => Err(format!("malformed worker result {line:?}")),
            }
        }
        _ => Err(format!("worker for sub-seed {seed} failed ({status})")),
    }
}

/// Check one repetition's digest against the pin for its sub-seed, or,
/// for an unpinned sub-seed, against the first repetition of it.
fn check_digest(
    pins: &Pins,
    w: Workload,
    sub_seed: u64,
    digest: &str,
    first: &mut BTreeMap<u64, String>,
) -> bool {
    match pins.get(w.name(), sub_seed) {
        Some(pinned) => pinned == digest,
        None => first.entry(sub_seed).or_insert_with(|| digest.to_string()) == digest,
    }
}

/// Per-key means: every sub-seed weighs the same however many
/// repetitions it got.
fn means(by_sub: &BTreeMap<usize, Vec<f64>>) -> Vec<f64> {
    by_sub
        .values()
        .map(|v| v.iter().sum::<f64>() / v.len().max(1) as f64)
        .collect()
}

fn mean_of_means(by_sub: &BTreeMap<usize, Vec<f64>>) -> f64 {
    let means = means(by_sub);
    means.iter().sum::<f64>() / means.len().max(1) as f64
}

pub fn run(w: Workload, opts: &Opts) -> Outcome {
    if opts.trace {
        return run_traced(w, opts);
    }
    let (k, size) = plan(w);
    let pins = Pins::load();
    let mut tally = Tally::default();
    let mut problems = Vec::new();
    let mut first = BTreeMap::new();
    let mut reps: Vec<ChildRep> = Vec::new();
    let mut cal = Calibration::default();
    let mut slots: Vec<usize> = Vec::new();
    let start = Instant::now();
    // round-robin over the sub-seeds, every one at least once, while
    // another repetition is expected to end in time; every statistic
    // weighs each sub-seed the same however many repetitions it got
    for i in 0.. {
        let sub = i % k;
        if i >= k && start.elapsed().mul_f64((i + 1) as f64 / i as f64) > opts.seconds {
            break;
        }
        let seed = sub_seed(opts.seed, sub);
        let slot = cal.sample(opts.jobs);
        match spawn_rep(w, sub, seed, opts.jobs, false) {
            Ok(r) => {
                let ok = r.rep.ok && check_digest(&pins, w, seed, &r.rep.digest, &mut first);
                if !ok {
                    eprintln!(
                        "failed: {} sub-seed {seed} digest {} own checks {}",
                        w.name(),
                        r.rep.digest,
                        if r.rep.ok { "passed" } else { "FAILED" }
                    );
                }
                tally.record(ok);
                reps.push(r);
                slots.push(slot);
            }
            Err(e) => {
                eprintln!("failed: {e}");
                tally.record(false);
            }
        }
    }
    if reps.is_empty() {
        problems.push("no repetition succeeded".to_string());
    }
    cal.sample(opts.jobs);
    problems.append(&mut cal.errors);
    if pins.required(opts.seed) && !pins.has(w.name(), opts.seed) {
        problems.push(format!("no pinned digest for required seed {}", opts.seed));
    }
    // each repetition is scaled by the machine's speed around it (see
    // calib); the unscaled figures go to the notes
    let factors: Vec<f64> = slots.iter().map(|s| cal.factor_after(*s)).collect();

    let mut raw_walls: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    let mut walls: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    let mut rates: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    let mut rss: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (r, fr) in reps.iter().zip(&factors) {
        let wall = r.rep.wall.as_secs_f64() / fr;
        raw_walls
            .entry(r.sub)
            .or_default()
            .push(r.rep.wall.as_secs_f64());
        walls.entry(r.sub).or_default().push(wall);
        rates
            .entry(r.sub)
            .or_default()
            .push(r.rep.items as f64 / wall);
        rss.entry(r.sub).or_default().push(r.rss_kb as f64 / 1024.0);
    }
    // percentiles over the sub-seeds' mean times; a run has too few
    // sub-seeds to support more than the median, and p90_ms then reports
    // the highest percentile that it does support
    let mut sub_ms: Vec<f64> = means(&walls).iter().map(|s| s * 1e3).collect();
    stats::sort(&mut sub_ms);
    let tail = stats::highest_supported_percentile(sub_ms.len(), &stats::TAIL_LADDER)
        .unwrap_or(50.0)
        .min(90.0);
    let setups: Vec<f64> = reps
        .iter()
        .zip(&factors)
        .map(|(r, fr)| r.setup.as_secs_f64() / fr)
        .collect();

    let mut m = Metrics::default();
    m.set("setup_s", stats::median(&setups), "s");
    m.set("wall_s", mean_of_means(&walls), "s");
    m.set("req_per_s", mean_of_means(&rates), "1/s");
    m.set("p50_ms", stats::harrell_davis(&sub_ms, 50.0), "ms");
    m.set("p90_ms", stats::harrell_davis(&sub_ms, tail), "ms");
    // peak memory differs up to five fold between seeds, so it is taken
    // over the fixed panel that every run shares, without the run's own
    // seed, whose one value would swing the figure by 10%
    rss.remove(&0);
    m.set("peak_rss_mb", mean_of_means(&rss), "MB");
    let unit = match w {
        Workload::Paper => "artifacts",
        Workload::Fuzz => "cases",
        _ => "queries",
    };
    Outcome {
        tally,
        problems,
        metrics: m,
        notes: vec![
            format!(
                "times are scaled by machine speed: speed factor median {:.4} (range {:.4}..{:.4}); \
                 unscaled wall_s {:.6} s, setup_s {:.6} s",
                stats::median(&factors),
                factors.iter().copied().fold(f64::INFINITY, f64::min),
                factors.iter().copied().fold(0.0, f64::max),
                mean_of_means(&raw_walls),
                stats::median(&reps.iter().map(|r| r.setup.as_secs_f64()).collect::<Vec<_>>()),
            ),
            format!(
                "{} repetitions over {} sub-seeds of {size} {unit} each, jobs {}; \
                 setup_s is the median worker start-up of {} repetitions",
                reps.len(),
                walls.len(),
                opts.jobs,
                setups.len()
            ),
            format!(
                "p50_ms and p90_ms are Harrell-Davis percentiles of the {} sub-seeds' mean \
                 repetition times; the tail rule supports p{tail}, which p90_ms reports",
                sub_ms.len()
            ),
            format!("req_per_s counts {unit} per second"),
        ],
    }
}

/// Untraced and traced repetitions run per traced run, alternating, for
/// the tracing overhead.
const OVERHEAD_PAIRS: usize = 4;

/// `--trace 1` for the fixed-work workloads: the tracing overhead from
/// alternating untraced and traced repetitions in fresh processes, one
/// traced repetition in this process for its spans, then the layer
/// replay over the same inputs.
fn run_traced(w: Workload, opts: &Opts) -> Outcome {
    let seed = opts.seed;
    let pins = Pins::load();
    let mut tally = Tally::default();
    let mut problems = Vec::new();
    let mut first = BTreeMap::new();

    // both sides start cold in a fresh process and differ only in spans
    let mut walls = [Vec::new(), Vec::new()];
    for _ in 0..OVERHEAD_PAIRS {
        for traced in [false, true] {
            match spawn_rep(w, 0, seed, opts.jobs, traced) {
                Ok(r) => {
                    tally.record(
                        r.rep.ok && check_digest(&pins, w, seed, &r.rep.digest, &mut first),
                    );
                    walls[usize::from(traced)].push(r.rep.wall.as_secs_f64());
                }
                Err(e) => {
                    eprintln!("failed: {e}");
                    tally.record(false);
                }
            }
        }
    }
    let (untraced, traced_wall) = (stats::median(&walls[0]), stats::median(&walls[1]));
    let overhead = if untraced > 0.0 {
        traced_wall / untraced - 1.0
    } else {
        0.0
    };

    let tracer = Tracer::default();
    let traced = rep(w, seed, opts.jobs, Some(&tracer));
    let traced_ok = traced.ok && check_digest(&pins, w, seed, &traced.digest, &mut first);
    if !traced_ok {
        eprintln!("failed: traced repetition digest {}", traced.digest);
    }
    tally.record(traced_ok);

    let mut layers = Layers::new(&tracer);
    for (name, v) in &traced.extras {
        layers.counters.insert(name.to_string(), *v);
    }
    replay::suite_counters(&mut layers, &traced.suite_spans, opts.jobs);
    match w {
        Workload::Paper => {
            let suite = traced
                .suite
                .as_ref()
                .expect("a paper repetition keeps its suite");
            replay::paper(&mut layers, suite);
            // the fuzz workload is left out of BENCHMARK.json (its oracle
            // campaign reports a known transform defect on some seeds), so
            // the fuzz-only layers are replayed here as well
            replay::fuzz(&mut layers, seed, PAPER_FUZZ_REPLAY_CASES);
        }
        Workload::Fuzz => replay::fuzz(&mut layers, seed, plan(w).1),
        Workload::Synth => replay::synth(&mut layers, seed, plan(w).1),
        Workload::Serve => unreachable!("serve is not a fixed-work workload"),
    }
    tally.merge(layers.tally);
    problems.append(&mut layers.problems);

    let mut notes = Vec::new();
    if let (Some(lo), Some(hi)) = (
        layers.counters.get("engine.compiled_speedup_min"),
        layers.counters.get("engine.compiled_speedup_max"),
    ) {
        notes.push(format!(
            "engine.compiled_speedup {:.3} (median of {} replays of the first {} fuzz cases, range {lo:.3}..{hi:.3})",
            layers.counters["engine.compiled_speedup"],
            replay::ENGINE_BENCH_REPEATS,
            replay::ENGINE_BENCH_CASES
        ));
    }
    let all = tracer.spans();
    let mut m = replay::layer_metrics(&all, &layers.counters);
    m.set("trace.overhead_ratio", overhead, "ratio");
    let path = crate::out_dir().join(format!("trace-{}-{seed}.jsonl", w.name()));
    if let Err(e) = std::fs::write(&path, trace::to_json_lines(&all)) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    Outcome {
        tally,
        problems,
        metrics: m,
        notes: [
            vec![
                format!(
                    "traced vs untraced repetitions, median of {OVERHEAD_PAIRS} each: \
                     {traced_wall:.3}s vs {untraced:.3}s, overhead {:.2}%",
                    overhead * 100.0
                ),
                format!("{} spans written to {}", all.len(), path.display()),
            ],
            notes,
        ]
        .concat(),
    }
}

/// Task short names, in registry order (the `tasks.build_ms.<task>` keys).
pub fn task_shorts() -> Vec<&'static str> {
    TaskId::ALL.iter().map(|t| t.short()).collect()
}
