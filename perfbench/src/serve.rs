//! The `serve` workload: an in-process evaluation server under a closed
//! loop of keep-alive connections.
//!
//! Set-up builds the datasets into a fresh store root (in a worker
//! process, so this process's peak memory is the server's), boots the
//! server over it and warms its dataset cache, so the timed phase
//! exercises the model pipeline, scoring, store and HTTP layers and
//! leaves the engine idle. The request script is drawn from `--seed`:
//! task × admissible workload × model × fault profile × fault seed ×
//! dialect, with three of every five requests repeating an earlier
//! coordinate (store hits) and the rest new (store misses). Requests
//! spread over many client ids so the per-client token buckets never
//! bind.
//!
//! The script is split into `LANES` lanes and a repeat only names a
//! coordinate of its own lane; each connection owns whole lanes and
//! sends them in script order, so every miss is answered before its
//! hits and every pass replays the same hit/miss sequence whatever the
//! connection count. Before each pass the store's `serve` stage is
//! emptied.
//!
//! The load generator has its own small HTTP client ([`Client`]): like
//! curl, it sends a request in one write on a socket with `TCP_NODELAY`,
//! so request latency carries no client-side Nagle stall, only the
//! server's own behaviour.
//!
//! Set-up times are scaled by the machine's speed ([`crate::calib`]);
//! request times are not, since most of a request is a fixed TCP timer
//! that machine speed does not move.

use crate::calib::Calibration;
use crate::fixed::{self, peak_rss_mb};
use crate::pins::Pins;
use crate::replay::{self, Layers};
use crate::stats::{self, Digest, Tally};
use crate::trace::{SpanId, Tracer};
use crate::{Metrics, Opts, Outcome};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use squ::llm::{FaultProfile, ModelId, SimulatedModel, Transport};
use squ::tasks::TaskId;
use squ::workload::Workload as Source;
use squ::{Store, Suite, PAPER_SEED};
use squ_serve::{EvalService, EvalSpec, Server, ServerConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Requests per pass of the script.
const SCRIPT_LEN: usize = 200;
/// Independent request lanes (repeats stay inside their lane).
const LANES: usize = 8;
/// Out of every `BLOCK` requests of a lane, `REPEATS` repeat a coordinate.
const BLOCK: usize = 5;
const REPEATS: usize = 3;
/// Client ids the load is spread over.
const CLIENT_IDS: usize = 512;
/// Seed of the served datasets (the paper's; the script varies with `--seed`).
const DATA_SEED: u64 = PAPER_SEED;
/// Fault seed reserved for the set-up's warm-up requests.
const WARM_FAULT_SEED: u64 = u64::MAX;
/// Set-ups measured per run (the first ones in worker processes).
const SETUPS: usize = 3;
/// Distinct coordinates replayed through the model pipeline when traced.
const LLM_REPLAY_COORDS: usize = 48;

/// One scripted request.
#[derive(Debug, Clone)]
pub struct Req {
    pub lane: usize,
    pub spec: EvalSpec,
    pub body: String,
    /// Index of the script entry this request repeats, if any.
    pub repeats: Option<usize>,
}

fn pairs() -> Vec<(TaskId, Source)> {
    TaskId::ALL
        .iter()
        .flat_map(|t| t.workloads().iter().map(move |w| (*t, *w)))
        .collect()
}

fn spec_json(spec: &EvalSpec) -> String {
    format!(
        "{{\"task\":\"{}\",\"workload\":\"{}\",\"model\":\"{}\",\"profile\":\"{}\",\"fault_seed\":{},\"seed\":{},\"dialect\":\"{}\"}}",
        spec.task,
        spec.workload,
        spec.model,
        spec.profile.as_deref().unwrap_or("none"),
        spec.fault_seed.unwrap_or(0),
        spec.seed.unwrap_or(DATA_SEED),
        spec.dialect.as_deref().unwrap_or("squ"),
    )
}

/// The request script for `seed`. New coordinates cycle through the
/// (task, workload) pairs and the three fault profiles in shuffled
/// blocks, so every script has the same mix of request kinds.
pub fn script(seed: u64) -> Vec<Req> {
    let mut rng = StdRng::seed_from_u64(squ::workload::mix(seed, 0x5E7E_0001));
    let pairs = pairs();
    let profiles = ["none", "light", "heavy"];
    let dialects = squ_parser::Dialect::NAMES;
    let mut pair_deck: Vec<usize> = Vec::new();
    let mut profile_deck: Vec<usize> = Vec::new();
    let mut lane_new: Vec<Vec<usize>> = vec![Vec::new(); LANES];
    let mut lane_pattern: Vec<Vec<bool>> = vec![Vec::new(); LANES];
    let mut out: Vec<Req> = Vec::with_capacity(SCRIPT_LEN);
    for i in 0..SCRIPT_LEN {
        let lane = i % LANES;
        if lane_pattern[lane].is_empty() {
            let mut block: Vec<bool> = (0..BLOCK).map(|k| k < REPEATS).collect();
            block.shuffle(&mut rng);
            lane_pattern[lane] = block;
        }
        let want_repeat = lane_pattern[lane].pop().expect("pattern refilled above");
        if want_repeat && !lane_new[lane].is_empty() {
            let of = *lane_new[lane]
                .choose(&mut rng)
                .expect("lane has coordinates");
            let r = out[of].clone();
            out.push(Req {
                repeats: Some(of),
                ..r
            });
            continue;
        }
        if pair_deck.is_empty() {
            pair_deck = (0..pairs.len()).collect();
            pair_deck.shuffle(&mut rng);
        }
        if profile_deck.is_empty() {
            profile_deck = (0..profiles.len()).collect();
            profile_deck.shuffle(&mut rng);
        }
        let (task, w) = pairs[pair_deck.pop().expect("deck refilled above")];
        let model = ModelId::ALL[rng.gen_range(0..ModelId::ALL.len())];
        let spec = EvalSpec {
            task: task.name().to_string(),
            workload: w.name().to_string(),
            model: model.name().to_string(),
            profile: Some(profiles[profile_deck.pop().expect("deck refilled above")].to_string()),
            // unique within the script, so a new coordinate is never a hit
            fault_seed: Some((seed.wrapping_mul(SCRIPT_LEN as u64) + i as u64) % (1 << 48)),
            seed: Some(DATA_SEED),
            dialect: Some(dialects[rng.gen_range(0..dialects.len())].to_string()),
        };
        lane_new[lane].push(i);
        out.push(Req {
            lane,
            body: spec_json(&spec),
            spec,
            repeats: None,
        });
    }
    out
}

/// Connect, read and write timeout of the load generator.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);

/// What the server answered to one request.
pub struct Reply {
    pub status: u16,
    /// `x-squ-cache` read as hit (true) or miss (false).
    pub hit: Option<bool>,
    pub body: String,
}

/// One keep-alive connection of the load generator.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect_timeout(&addr, CLIENT_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
        stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// `POST /eval` as `client`, head and body in one write. Reads a
    /// `Content-Length` response, the only kind `/eval` sends.
    pub fn eval(&mut self, client: &str, body: &str) -> std::io::Result<Reply> {
        let request = format!(
            "POST /eval HTTP/1.1\r\nHost: squ-serve\r\nx-squ-client: {client}\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.writer.write_all(request.as_bytes())?;
        let bad = |what: String| std::io::Error::new(std::io::ErrorKind::InvalidData, what);
        let mut line = String::new();
        let mut next_line = |reader: &mut BufReader<TcpStream>| -> std::io::Result<String> {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            Ok(line.trim_end_matches(['\r', '\n']).to_string())
        };
        let status_line = next_line(&mut self.reader)?;
        let status = status_line
            .split(' ')
            .nth(1)
            .and_then(|c| c.parse::<u16>().ok())
            .ok_or_else(|| bad(format!("malformed status line {status_line:?}")))?;
        let (mut len, mut hit) = (None, None);
        loop {
            let header = next_line(&mut self.reader)?;
            if header.is_empty() {
                break;
            }
            let (name, value) = header
                .split_once(':')
                .ok_or_else(|| bad(format!("malformed header {header:?}")))?;
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                len = value.parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("x-squ-cache") {
                hit = Some(value == "hit");
            }
        }
        let len = len.ok_or_else(|| bad("response without Content-Length".to_string()))?;
        let mut body = vec![0u8; len];
        self.reader.read_exact(&mut body)?;
        Ok(Reply {
            status,
            hit,
            body: String::from_utf8_lossy(&body).into_owned(),
        })
    }
}

/// A running server over a fresh store root.
pub struct Booted {
    pub addr: SocketAddr,
    pub root: PathBuf,
    pub setup: Duration,
    /// The suite, when set-up built it in this process (traced runs).
    pub suite: Option<Suite>,
}

/// A fresh, unique directory under the run's output directory.
fn fresh_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = crate::out_dir().join(format!(
        "{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Set-up: pre-build the datasets into a fresh store root, boot the
/// server over it, and warm its dataset cache with one request per
/// (task, workload) pair. Untraced, a worker process does the pre-build;
/// traced, it runs here inside a span and the suite is kept.
pub fn boot(jobs: usize, tracer: Option<(&Tracer, SpanId)>) -> Result<Booted, String> {
    let start = Instant::now();
    let root = fresh_dir("serve-store");
    let suite = match tracer {
        None => {
            prebuild_in_worker(&root.join("store"), jobs)?;
            None
        }
        Some((t, setup)) => Some(t.span(Some(setup), "suite.build", 0, |_| {
            Suite::load_or_build(DATA_SEED, jobs, &mut Store::open(root.join("store")))
        })),
    };
    let config = ServerConfig {
        store_root: root.join("store"),
        max_in_flight: ServerConfig::default().max_in_flight.max(2 * jobs),
        ..ServerConfig::default()
    };
    let addr = Server::spawn("127.0.0.1:0", config).map_err(|e| format!("boot server: {e}"))?;
    let warm: Vec<String> = pairs()
        .into_iter()
        .map(|(t, w)| {
            spec_json(&EvalSpec {
                task: t.name().into(),
                workload: w.name().into(),
                model: ModelId::Gpt4.name().into(),
                profile: Some("none".into()),
                fault_seed: Some(WARM_FAULT_SEED),
                seed: Some(DATA_SEED),
                dialect: Some("squ".into()),
            })
        })
        .collect();
    let failures = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|s| {
        for c in 0..jobs {
            let warm = &warm;
            let failures = &failures;
            s.spawn(move || {
                let ok = Client::connect(addr).is_ok_and(|mut conn| {
                    warm.iter()
                        .skip(c)
                        .step_by(jobs)
                        .all(|body| conn.eval("warmup", body).is_ok_and(|r| r.status == 200))
                });
                if !ok {
                    failures.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            });
        }
    });
    if failures.into_inner() > 0 {
        return Err("warm-up requests failed".to_string());
    }
    Ok(Booted {
        addr,
        root,
        setup: start.elapsed(),
        suite,
    })
}

/// What one request of a pass produced.
#[derive(Debug, Clone)]
pub struct Answer {
    pub status: u16,
    pub hit: Option<bool>,
    pub body: String,
    pub start: Instant,
    pub end: Instant,
}

impl Answer {
    pub fn rtt_ms(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64() * 1e3
    }
}

/// One pass of the script over `conns` keep-alive connections, after
/// emptying the store's `serve` stage.
pub fn pass(b: &Booted, script: &[Req], conns: usize) -> (Vec<Option<Answer>>, Duration) {
    let _ = std::fs::remove_dir_all(b.root.join("store").join("serve"));
    let start = Instant::now();
    let mut answers: Vec<Option<Answer>> = vec![None; script.len()];
    let per_conn: Vec<Vec<(usize, Option<Answer>)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || {
                    let mut conn: Option<Client> = None;
                    let mut got = Vec::new();
                    for (i, req) in script
                        .iter()
                        .enumerate()
                        .filter(|(_, r)| r.lane % conns == c)
                    {
                        if conn.is_none() {
                            conn = Client::connect(b.addr).ok();
                        }
                        let client = format!("bench-{}", i % CLIENT_IDS);
                        let t0 = Instant::now();
                        let resp = conn.as_mut().map(|k| k.eval(&client, &req.body));
                        let t1 = Instant::now();
                        match resp {
                            Some(Ok(r)) => got.push((
                                i,
                                Some(Answer {
                                    status: r.status,
                                    hit: r.hit,
                                    body: r.body,
                                    start: t0,
                                    end: t1,
                                }),
                            )),
                            _ => {
                                conn = None;
                                got.push((i, None));
                            }
                        }
                    }
                    got
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed();
    for (i, a) in per_conn.into_iter().flatten() {
        answers[i] = a;
    }
    (answers, wall)
}

/// Per-request verdicts of one pass: 2xx, the right cache status, and
/// every hit byte-identical to its miss. Returns per-request success and
/// the pass digest over all bodies in script order.
pub fn judge(script: &[Req], answers: &[Option<Answer>]) -> (Vec<bool>, String) {
    let mut ok = Vec::with_capacity(script.len());
    let mut d = Digest::default();
    for (req, a) in script.iter().zip(answers) {
        let good = a.as_ref().is_some_and(|a| {
            let same_as_miss = match req.repeats {
                Some(of) => answers[of].as_ref().is_some_and(|m| m.body == a.body),
                None => true,
            };
            a.status == 200 && a.hit == Some(req.repeats.is_some()) && same_as_miss
        });
        ok.push(good);
        d.part(a.as_ref().map_or(&b""[..], |a| a.body.as_bytes()));
    }
    (ok, d.hex())
}

/// Digest of one pass of `seed`'s script (for `--pin`).
pub fn pin_digest(seed: u64, jobs: usize) -> Result<String, String> {
    let b = boot(jobs, None)?;
    let s = script(seed);
    let (answers, _) = pass(&b, &s, jobs);
    let (ok, digest) = judge(&s, &answers);
    let _ = std::fs::remove_dir_all(&b.root);
    if ok.iter().all(|x| *x) {
        Ok(digest)
    } else {
        Err(format!(
            "{} requests failed",
            ok.iter().filter(|x| !**x).count()
        ))
    }
}

/// Worker entry for the dataset pre-build: build every dataset of the
/// paper seed into the store at `dir`, then exit.
pub fn child_prebuild(dir: &str, jobs: usize) {
    drop(Suite::load_or_build(DATA_SEED, jobs, &mut Store::open(dir)));
}

fn prebuild_in_worker(store: &Path, jobs: usize) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let status = std::process::Command::new(exe)
        .arg("--child-serve-prebuild")
        .arg(store)
        .arg(jobs.to_string())
        .stdin(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("spawn pre-build worker: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("pre-build worker failed ({status})"))
    }
}

/// Worker entry for an extra set-up measurement: boot, report, exit.
pub fn child_setup(jobs: usize) {
    match boot(jobs, None) {
        Ok(b) => {
            println!("result {}", b.setup.as_nanos());
            let _ = std::fs::remove_dir_all(&b.root);
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn child_setup_time(jobs: usize) -> Result<Duration, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--child-serve-setup", &jobs.to_string()])
        .stdin(std::process::Stdio::null())
        .output()
        .map_err(|e| format!("spawn set-up worker: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines()
        .find_map(|l| l.strip_prefix("result ")?.trim().parse::<u64>().ok())
        .filter(|_| out.status.success())
        .map(Duration::from_nanos)
        .ok_or_else(|| format!("set-up worker failed ({})", out.status))
}

/// Check a pass: per-request verdicts, then its digest against the pin
/// (pinned seeds) or against the first pass (other seeds).
fn check_pass(
    pins: &Pins,
    seed: u64,
    s: &[Req],
    answers: &[Option<Answer>],
    first: &mut Option<Vec<Option<String>>>,
    tally: &mut Tally,
) {
    let (ok, digest) = judge(s, answers);
    let mut failed = ok.iter().filter(|x| !**x).count() as u64;
    tally.attempt(s.len() as u64);
    match pins.get("serve", seed) {
        Some(pinned) if pinned != digest => {
            eprintln!("failed: serve pass digest {digest} != pinned {pinned}");
            failed = s.len() as u64;
        }
        Some(_) => {}
        None => {
            let bodies: Vec<Option<String>> = answers
                .iter()
                .map(|a| a.as_ref().map(|a| a.body.clone()))
                .collect();
            let reference = first.get_or_insert_with(|| bodies.clone());
            let differ = reference
                .iter()
                .zip(&bodies)
                .zip(&ok)
                .filter(|((a, b), good)| **good && a != b)
                .count();
            failed += differ as u64;
        }
    }
    if failed > 0 {
        eprintln!("failed: {failed} of {} requests in a pass", s.len());
    }
    tally.fail_attempted(failed);
}

pub fn run(opts: &Opts) -> Outcome {
    if opts.trace {
        return run_traced(opts);
    }
    let conns = opts.jobs;
    let pins = Pins::load();
    let mut tally = Tally::default();
    let mut problems = Vec::new();
    // set-up builds and decodes datasets on the CPU: each one is scaled
    // by the machine's speed around it (see calib)
    let mut cal = Calibration::default();
    let mut raw_setups = Vec::new();
    for _ in 1..SETUPS {
        let slot = cal.sample(opts.jobs);
        match child_setup_time(opts.jobs) {
            Ok(d) => raw_setups.push((slot, d.as_secs_f64())),
            Err(e) => problems.push(e),
        }
    }
    let slot = cal.sample(opts.jobs);
    let booted = boot(opts.jobs, None);
    cal.sample(opts.jobs);
    let booted = match booted {
        Ok(b) => b,
        Err(e) => {
            tally.record(false);
            problems.push(e);
            return Outcome {
                tally,
                problems,
                metrics: Metrics::default(),
                notes: Vec::new(),
            };
        }
    };
    raw_setups.push((slot, booted.setup.as_secs_f64()));
    let setups: Vec<f64> = raw_setups
        .iter()
        .map(|(slot, t)| t / cal.factor_after(*slot))
        .collect();
    let s = script(opts.seed);
    let mut first = None;
    let mut walls = Vec::new();
    let mut rtts = Vec::new();
    let (mut ok_count, mut hits, mut throttled, mut answered) = (0u64, 0u64, 0u64, 0u64);
    let start = Instant::now();
    // whole passes only: start another while it is expected to end in time
    while walls.is_empty()
        || start.elapsed().mul_f64(1.0 + 1.0 / walls.len() as f64) <= opts.seconds
    {
        let (answers, wall) = pass(&booted, &s, conns);
        walls.push(wall.as_secs_f64());
        check_pass(&pins, opts.seed, &s, &answers, &mut first, &mut tally);
        for a in &answers {
            match a {
                Some(a) if (200..300).contains(&a.status) => {
                    ok_count += 1;
                    answered += 1;
                    hits += u64::from(a.hit == Some(true));
                    rtts.push(a.rtt_ms());
                }
                other => {
                    throttled += u64::from(other.as_ref().is_some_and(|a| a.status == 429));
                    answered += u64::from(other.is_some());
                    // a refused or failed request misses every latency bound
                    rtts.push(f64::INFINITY);
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&booted.root);
    problems.append(&mut cal.errors);
    if pins.required(opts.seed) && !pins.has("serve", opts.seed) {
        problems.push(format!(
            "no pinned serve digest for required seed {}",
            opts.seed
        ));
    }
    stats::sort(&mut rtts);
    let tail = stats::highest_supported_percentile(rtts.len(), &stats::TAIL_LADDER);
    if tail.is_none_or(|p| p < 90.0) {
        problems.push(format!("{} latency samples cannot support p90", rtts.len()));
    }
    let busy: f64 = walls.iter().sum();
    let mut m = Metrics::default();
    m.set("setup_s", stats::median(&setups), "s");
    m.set("wall_s", stats::median(&walls), "s");
    m.set("req_per_s", ok_count as f64 / busy, "1/s");
    m.set("p50_ms", stats::percentile(&rtts, 50.0), "ms");
    m.set("p90_ms", stats::percentile(&rtts, 90.0), "ms");
    m.set("peak_rss_mb", peak_rss_mb(), "MB");
    let hit_share = hits as f64 / ok_count.max(1) as f64;
    Outcome {
        tally,
        problems,
        metrics: m,
        notes: vec![
            format!(
                "{} passes of {SCRIPT_LEN} requests over {conns} closed-loop keep-alive connections; \
                 {} latency samples, enough for p{}",
                walls.len(),
                rtts.len(),
                tail.unwrap_or(0.0)
            ),
            format!("measured hit share {hit_share:.4} ({hits} hits of {ok_count} 2xx, {answered} answered, {throttled} throttled)"),
            format!(
                "set-up times {:?} s, scaled by machine speed to {setups:?} s",
                raw_setups.iter().map(|(_, t)| *t).collect::<Vec<_>>()
            ),
        ],
    }
}

/// `--trace 1` for `serve`: traced set-up, an untraced and a traced pass
/// (the overhead), the same script sent straight to `EvalService`, the
/// store I/O pattern replayed on a bare `Store`, and the model pipeline
/// over the script's first coordinates.
fn run_traced(opts: &Opts) -> Outcome {
    let conns = opts.jobs;
    let pins = Pins::load();
    let tracer = Tracer::default();
    let mut tally = Tally::default();
    let mut problems = Vec::new();
    fixed::drain_library_timings();
    let booted = match tracer.span(None, "serve.setup", 0, |id| {
        boot(opts.jobs, Some((&tracer, id)))
    }) {
        Ok(b) => b,
        Err(e) => {
            tally.record(false);
            problems.push(e);
            return Outcome {
                tally,
                problems,
                metrics: Metrics::default(),
                notes: Vec::new(),
            };
        }
    };
    let s = script(opts.seed);
    let mut first = None;
    let (plain, plain_wall) = pass(&booted, &s, conns);
    check_pass(&pins, opts.seed, &s, &plain, &mut first, &mut tally);
    let (answers, traced_wall) = tracer.span(None, "serve.pass", 0, |id| {
        let (answers, wall) = pass(&booted, &s, conns);
        for (i, a) in answers.iter().enumerate() {
            if let Some(a) = a {
                tracer.record(Some(id), "serve.request", i as u64, a.start, a.end);
            }
        }
        (answers, wall)
    });
    check_pass(&pins, opts.seed, &s, &answers, &mut first, &mut tally);
    let overhead = traced_wall.as_secs_f64() / plain_wall.as_secs_f64() - 1.0;

    let mut layers = Layers::new(&tracer);
    replay::suite_counters(&mut layers, &fixed::suite_spans(), opts.jobs);
    let ok_answers = answers.iter().flatten().filter(|a| a.status == 200).count() as f64;
    layers.counters.insert(
        "serve.hit_ratio".into(),
        answers
            .iter()
            .flatten()
            .filter(|a| a.hit == Some(true))
            .count() as f64
            / ok_answers.max(1.0),
    );
    layers.counters.insert(
        "serve.throttled".into(),
        answers.iter().flatten().filter(|a| a.status == 429).count() as f64,
    );
    layers.counters.insert(
        "serve.status_5xx".into(),
        answers.iter().flatten().filter(|a| a.status >= 500).count() as f64,
    );

    // the same script straight into the service, over the same datasets
    let _ = std::fs::remove_dir_all(booted.root.join("store").join("serve"));
    let svc = EvalService::new(booted.root.join("store"));
    for (t, w) in pairs() {
        let spec = EvalSpec {
            task: t.name().into(),
            workload: w.name().into(),
            model: ModelId::Gpt4.name().into(),
            profile: None,
            fault_seed: Some(WARM_FAULT_SEED),
            seed: Some(DATA_SEED),
            dialect: None,
        };
        if let Ok(key) = svc.resolve(&spec) {
            let _ = svc.eval(&key);
        }
    }
    let _ = std::fs::remove_dir_all(booted.root.join("store").join("serve"));
    tracer.span(None, "serve.direct", 0, |id| {
        for (i, (req, a)) in s.iter().zip(&answers).enumerate() {
            let body = tracer.span(Some(id), "serve.service", i as u64, |_| {
                svc.resolve(&req.spec).map(|key| svc.eval(&key).0)
            });
            let same = matches!((&body, a), (Ok(b), Some(a)) if *b == a.body);
            tally.record(same);
            if !same {
                problems.push(format!(
                    "direct EvalService answer differs from HTTP on request {i}"
                ));
            }
        }
    });

    // the store's I/O pattern on a bare store: load, and save on a miss
    let replay_root = fresh_dir("serve-replay");
    let mut store = Store::open(&replay_root);
    layers.replay(|l| {
        for (req, a) in s.iter().zip(&answers) {
            let Some(a) = a else { continue };
            let fp = u64::from_str_radix(&stats::digest(req.body.as_bytes()), 16).unwrap_or(0);
            let name = format!("eval_{}", req.spec.task);
            if l.time("core.store_load", || store.load("serve", &name, fp))
                .is_none()
            {
                l.time("core.store_save", || {
                    store.save("serve", &name, fp, &a.body)
                });
            }
        }
    });
    let st = store.stats().get("serve").copied().unwrap_or_default();
    layers.counters.insert(
        "core.store_hit_ratio".into(),
        st.hits as f64 / (st.hits + st.misses).max(1) as f64,
    );
    layers
        .counters
        .insert("core.store_bytes_written".into(), st.bytes_written as f64);
    let _ = std::fs::remove_dir_all(&replay_root);

    // the model pipeline over the first new coordinates of the script
    let suite = booted
        .suite
        .as_ref()
        .expect("a traced set-up keeps its suite");
    let coords: Vec<&Req> = s
        .iter()
        .filter(|r| r.repeats.is_none())
        .take(LLM_REPLAY_COORDS)
        .collect();
    layers.replay(|l| {
        for req in coords {
            let task = TaskId::ALL.iter().find(|t| t.name() == req.spec.task);
            let w = [
                Source::Sdss,
                Source::SqlShare,
                Source::JoinOrder,
                Source::Spider,
            ]
            .into_iter()
            .find(|w| w.name() == req.spec.workload);
            let model = ModelId::ALL.iter().find(|m| m.name() == req.spec.model);
            let profile = FaultProfile::by_name(req.spec.profile.as_deref().unwrap_or("none"));
            let (Some(task), Some(w), Some(model), Some(profile)) = (task, w, model, profile)
            else {
                l.problems
                    .push(format!("unresolvable script coordinate {}", req.body));
                continue;
            };
            let Some(set) = suite.set(*task, w) else {
                continue;
            };
            let client = Transport::new(
                SimulatedModel::new(*model),
                profile,
                req.spec.fault_seed.unwrap_or(0),
            );
            replay::llm_task_set(l, set, &client);
            if *task == TaskId::Translate {
                for e in suite.translate_for(w) {
                    replay::gold_check(l, &e.gold_sql, &e.target_dialect);
                }
            }
        }
    });
    tally.merge(layers.tally);
    problems.append(&mut layers.problems);
    let _ = std::fs::remove_dir_all(&booted.root);

    let all = tracer.spans();
    let mut m = replay::layer_metrics(&all, &layers.counters);
    m.set("trace.overhead_ratio", overhead, "ratio");
    let path = crate::out_dir().join(format!("trace-serve-{}.jsonl", opts.seed));
    if let Err(e) = std::fs::write(&path, crate::trace::to_json_lines(&all)) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    Outcome {
        tally,
        problems,
        metrics: m,
        notes: vec![
            format!(
                "traced pass {:.3}s vs untraced pass {:.3}s: overhead {:.2}%",
                traced_wall.as_secs_f64(),
                plain_wall.as_secs_f64(),
                overhead * 100.0
            ),
            format!("{} spans written to {}", all.len(), path.display()),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn client_sends_one_write_and_reads_the_reply() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            let mut got = Vec::new();
            let mut buf = [0u8; 4096];
            // the whole request arrives in the first read
            let n = sock.read(&mut buf).unwrap();
            got.extend_from_slice(&buf[..n]);
            sock.write_all(
                b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                  Content-Length: 7\r\nX-Squ-Cache: hit\r\n\r\n{\"a\":1}",
            )
            .unwrap();
            String::from_utf8(got).unwrap()
        });
        let mut c = Client::connect(addr).unwrap();
        let r = c.eval("bench-7", "{\"task\":\"syntax\"}").unwrap();
        assert_eq!(
            (r.status, r.hit, r.body.as_str()),
            (200, Some(true), "{\"a\":1}")
        );
        let sent = server.join().unwrap();
        assert!(sent.starts_with("POST /eval HTTP/1.1\r\n"), "{sent}");
        assert!(sent.contains("\r\nx-squ-client: bench-7\r\n"));
        assert!(
            sent.ends_with("Content-Length: 17\r\n\r\n{\"task\":\"syntax\"}"),
            "{sent}"
        );
    }

    #[test]
    fn script_is_seeded_and_repeats_stay_in_their_lane() {
        let a = script(11);
        let b = script(11);
        let c = script(12);
        assert_eq!(a.len(), SCRIPT_LEN);
        assert!(a.iter().zip(&b).all(|(x, y)| x.body == y.body));
        assert!(a.iter().zip(&c).any(|(x, y)| x.body != y.body));
        for (i, r) in a.iter().enumerate() {
            if let Some(of) = r.repeats {
                assert!(of < i);
                assert_eq!(a[of].lane, r.lane);
                assert_eq!(a[of].body, r.body);
                assert!(a[of].repeats.is_none());
            }
        }
        let repeats = a.iter().filter(|r| r.repeats.is_some()).count();
        // three of every five per lane, less the first requests of each lane
        assert!((100..=120).contains(&repeats), "{repeats}");
        let mut fresh: Vec<&String> = a
            .iter()
            .filter(|r| r.repeats.is_none())
            .map(|r| &r.body)
            .collect();
        let n = fresh.len();
        fresh.sort();
        fresh.dedup();
        assert_eq!(fresh.len(), n, "new coordinates are distinct");
    }
}
