//! The replay phase of the traced run: a workload's own inputs pushed
//! through each layer's public entry point, one span per call, so every
//! layer's cost is measured on its own.
//!
//! * workload queries and gold SQL: tokenize → parse → print → bind →
//!   sema → compile → execute on the cached witness batch (plus the
//!   reference executor on `fuzz`, whose oracles use it);
//! * task examples: render → simulated model call → extract → score.
//!
//! The replay is sequential, so its counters are exact and independent
//! of `--jobs`.

use crate::stats::Tally;
use crate::trace::{self, Span, SpanId, Tracer};
use crate::Metrics;
use rand::rngs::StdRng;
use rand::SeedableRng;
use squ::llm::{
    DatasetId, FaultProfile, ModelClient, ModelId, Request, RunTask, SimulatedModel, Transport,
};
use squ::tasks::{EquivTask, ExplainTask, PerfTask, SyntaxTask, TokenTask, TranslateTask};
use squ::workload::{schema_for, Workload as Source};
use squ::{Suite, TaskSet};
use squ_engine::{
    compile_query, execute_query_interpreted, reference_query, witness_batch_cached, Database,
    ExecError,
};
use squ_parser::ast::{Query, Statement};
use squ_parser::Dialect;
use squ_schema::Schema;
use std::collections::BTreeMap;

/// Replay state: the tracer, exact counters, and failed checks.
pub struct Layers<'t> {
    tracer: &'t Tracer,
    root: Option<SpanId>,
    pub counters: BTreeMap<String, f64>,
    pub tally: Tally,
    pub problems: Vec<String>,
}

impl<'t> Layers<'t> {
    pub fn new(tracer: &'t Tracer) -> Layers<'t> {
        Layers {
            tracer,
            root: None,
            counters: BTreeMap::new(),
            tally: Tally::default(),
            problems: Vec::new(),
        }
    }

    /// Time one public call as a leaf span under the replay root.
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        self.tracer.span(self.root, name, 0, |_| f())
    }

    pub fn add(&mut self, counter: &str, v: f64) {
        *self.counters.entry(counter.to_string()).or_insert(0.0) += v;
    }

    /// Run a replay body under one `replay` root span.
    pub fn replay(&mut self, body: impl FnOnce(&mut Layers<'t>)) {
        let tracer = self.tracer;
        tracer.span(None, "replay", 0, |root| {
            self.root = Some(root);
            body(self);
            self.root = None;
        });
    }
}

/// Witness seed for workload queries replayed outside a task build.
fn witness_seed(seed: u64) -> u64 {
    squ::workload::mix(seed, 0x0517_7E55)
}

/// One query through lexer → parser → printer → binder → sema →
/// compile → execute on every witness. With `reference`, the reference
/// executor runs too and any disagreement is an engine divergence.
pub fn chain(
    l: &mut Layers,
    sql: &str,
    schema: &Schema,
    witnesses: &[Database],
    reference: bool,
) -> Option<Query> {
    match l.time("lexer.tokenize", || squ_lexer::tokenize(sql)) {
        Ok(tokens) => l.add("lexer.tokens", tokens.len() as f64),
        Err(_) => l.add("lexer.errors", 1.0),
    }
    let q = match l.time("parser.parse", || squ_parser::parse_query(sql)) {
        Ok(q) => q,
        Err(_) => {
            l.add("parser.errors", 1.0);
            return None;
        }
    };
    let _printed = l.time("parser.print", || squ_parser::print_query(&q));
    let stmt = Statement::Query(q.clone());
    let diagnostics = l.time("schema.bind", || squ_schema::analyze(&stmt, schema));
    l.add("schema.diagnostics", diagnostics.len() as f64);
    let _analysis = l.time("sema.analyze", || squ_sema::analyze_query(&q, schema));
    for db in witnesses {
        let compiled = l.time("engine.compile", || compile_query(&q, db));
        let fast = match &compiled {
            Some(cq) => l.time("engine.exec", || cq.execute(db)),
            None => {
                l.add("engine.fallbacks", 1.0);
                l.time("engine.exec", || execute_query_interpreted(&q, db))
            }
        };
        l.add("engine.exec_calls", 1.0);
        if let Ok((_, s)) = &fast {
            l.add("engine.rows_scanned", s.rows_scanned as f64);
            l.add("engine.join_pairs", s.join_pairs as f64);
            l.add("engine.index_probes", s.index_probes as f64);
            l.add("engine.index_hits", s.index_hits as f64);
            l.add("engine.compiled", s.compiled as f64);
            l.add("engine.fallback_ops", s.fallbacks as f64);
        }
        if reference {
            let slow = l.time("engine.reference", || reference_query(&q, db));
            let agree = match (&fast, &slow) {
                (Ok((a, _)), Ok(b)) => a.result_equal(b),
                (Err(_), Err(_)) => true,
                (Err(ExecError::ResourceLimit), Ok(_)) | (Ok(_), Err(ExecError::ResourceLimit)) => {
                    true
                }
                _ => false,
            };
            l.tally.record(agree);
            if !agree {
                l.problems.push(format!("engine divergence on {sql:?}"));
            }
        }
    }
    Some(q)
}

/// Examples of one task set through render → simulated call → extract →
/// score.
pub fn llm_set<T: RunTask>(
    l: &mut Layers,
    task: &T,
    ds: DatasetId,
    examples: &[T::Example],
    client: &dyn ModelClient,
) {
    for e in examples {
        let prompt = l.time("llm.render", || task.render_prompt(e));
        let req = Request {
            task: task.id(),
            dataset: ds,
            example_id: task.example_id(e).to_string(),
            prompt,
            truth: task.ground_truth(e),
            props: task.props(e).clone(),
        };
        let (response, call) = l.time("llm.model", || client.call(&req));
        let _score = l.time("eval.score", || task.score(e, &response));
        let outcome = l.time("llm.extract", || task.extract(e, response, call));
        let (review, call) = T::call_fact(&outcome);
        l.add("llm.attempts", f64::from(call.attempts));
        l.add("llm.retries", f64::from(call.attempts.saturating_sub(1)));
        l.add("llm.exhausted", f64::from(u8::from(call.exhausted)));
        l.add("llm.needs_review", f64::from(u8::from(review)));
    }
}

/// One task set of a suite through the model pipeline.
pub fn llm_task_set(l: &mut Layers, set: &TaskSet, client: &dyn ModelClient) {
    use squ::tasks::TaskId;
    let ds = DatasetId::from(set.workload());
    let any = set.examples();
    match set.task().id() {
        TaskId::Syntax => run_typed(l, &SyntaxTask, ds, any, client),
        TaskId::MissToken => run_typed(l, &TokenTask, ds, any, client),
        TaskId::Equiv => run_typed(l, &EquivTask, ds, any, client),
        TaskId::Perf => run_typed(l, &PerfTask, ds, any, client),
        TaskId::Explain => run_typed(l, &ExplainTask, ds, any, client),
        TaskId::Translate => run_typed(l, &TranslateTask, ds, any, client),
    }
}

fn run_typed<T: RunTask>(
    l: &mut Layers,
    task: &T,
    ds: DatasetId,
    any: &squ::registry::ExampleSet,
    client: &dyn ModelClient,
) {
    match any.downcast_ref::<Vec<T::Example>>() {
        Some(examples) => llm_set(l, task, ds, examples, client),
        None => l.problems.push(format!(
            "task set {:?} has an unexpected example type",
            task.id()
        )),
    }
}

/// Schemas by (source, name), built once per replay.
#[derive(Default)]
struct Schemas(BTreeMap<(u8, String), Schema>);

impl Schemas {
    fn get(&mut self, w: Source, name: &str) -> &Schema {
        self.0
            .entry((w as u8, name.to_string()))
            .or_insert_with(|| schema_for(w, name))
    }
}

/// `paper`: every workload query and gold SQL through the query layers,
/// every task example through the model pipeline with each model.
pub fn paper(l: &mut Layers, suite: &Suite) {
    let seed = suite.seed;
    for set in suite.sets() {
        l.add("tasks.examples", set.len() as f64);
        l.add("tasks.sources", suite.dataset(set.workload()).len() as f64);
    }
    let ws = witness_seed(seed);
    let mut schemas = Schemas::default();
    l.replay(|l| {
        for ds in [&suite.sdss, &suite.sqlshare, &suite.joborder, &suite.spider] {
            for q in &ds.queries {
                let schema = schemas.get(ds.workload, &q.schema_name).clone();
                let witnesses = l.time("engine.witness", || witness_batch_cached(&schema, ws));
                chain(l, &q.sql, &schema, &witnesses, false);
            }
        }
        for w in [Source::Sdss, Source::SqlShare, Source::JoinOrder] {
            for e in suite.equiv_for(w) {
                let schema = schemas.get(w, &e.schema_name).clone();
                let witnesses = l.time("engine.witness", || witness_batch_cached(&schema, ws));
                let a = chain(l, &e.sql1, &schema, &witnesses, false);
                let b = chain(l, &e.sql2, &schema, &witnesses, false);
                if let (Some(a), Some(b)) = (a, b) {
                    certify(l, &a, &b, &schema);
                }
            }
            for e in suite.translate_for(w) {
                gold_check(l, &e.gold_sql, &e.target_dialect);
            }
        }
        for model in ModelId::ALL {
            let client = Transport::new(SimulatedModel::new(model), FaultProfile::none(), 0);
            for set in suite.sets() {
                llm_task_set(l, set, &client);
            }
        }
    });
}

/// Gold SQL of a translation example through the target dialect's lexer
/// and parser (the check extraction makes against a candidate).
pub fn gold_check(l: &mut Layers, gold: &str, dialect: &str) {
    let d = Dialect::by_name(dialect).unwrap_or(Dialect::Squ);
    match l.time("lexer.tokenize", || squ_lexer::tokenize_dialect(gold, d)) {
        Ok(tokens) => l.add("lexer.tokens", tokens.len() as f64),
        Err(_) => l.add("lexer.errors", 1.0),
    }
    if l.time("parser.parse", || squ_parser::parse_query_dialect(gold, d))
        .is_err()
    {
        l.add("parser.errors", 1.0);
    }
}

fn certify(l: &mut Layers, a: &Query, b: &Query, schema: &Schema) {
    let cert = l.time("sema.certify", || squ_sema::certify_pair(a, b, schema));
    l.add("sema.certified", 1.0);
    if !matches!(cert, squ_sema::Certificate::Unknown) {
        l.add("sema.decided", 1.0);
    }
}

/// Cases replayed through the shrinker (it is the slowest per call).
const SHRINK_CASES: u64 = 40;
/// Cases of the compiled-vs-interpreter replay, and its repeats.
pub const ENGINE_BENCH_CASES: u64 = 300;
pub const ENGINE_BENCH_REPEATS: usize = 3;

/// `fuzz`: each case's generation, mutants, query layers (with the
/// reference executor), sema certification against the transform
/// catalog, the shrinker on a sample, then the compiled-vs-interpreter
/// engine replay.
pub fn fuzz(l: &mut Layers, seed: u64, cases: u64) {
    use squ_fuzz::{generate_query, generate_schema, mix, mutants_of, SCHEMA_POOL};
    let catalog = squ::tasks::transform_catalog();
    l.replay(|l| {
        for index in 0..cases {
            let slot = index % SCHEMA_POOL;
            let gs = l.time("fuzz.gen", || generate_schema(seed, slot));
            let mut rng = StdRng::seed_from_u64(mix(seed, 0xCA5E_0000 ^ index));
            let subject = l.time("fuzz.gen", || {
                (0..50).find_map(|_| {
                    let q = generate_query(&mut rng, &gs);
                    let sql = squ_parser::print_query(&q);
                    let parsed = squ_parser::parse_query(&sql).ok()?;
                    squ_schema::analyze(&Statement::Query(parsed), &gs.schema)
                        .is_empty()
                        .then_some(sql)
                })
            });
            let sql =
                subject.unwrap_or_else(|| squ_parser::print_query(&squ_fuzz::fallback_query(&gs)));
            let mutants = l.time("fuzz.mutants", || mutants_of(&sql, &mut rng, 3));
            l.add("fuzz.mutants", mutants.len() as f64);
            let witnesses = l.time("engine.witness", || {
                witness_batch_cached(&gs.schema, mix(seed, 0xB17C_0000 ^ slot))
            });
            let Some(q) = chain(l, &sql, &gs.schema, &witnesses, true) else {
                continue;
            };
            for t in &catalog {
                if let Some((a, b)) = t.apply(&q, &mut rng) {
                    certify(l, &a, &b, &gs.schema);
                }
            }
            if index < SHRINK_CASES {
                // shrink toward the smallest query the binder still accepts
                let (_, tokens) = l.time("fuzz.shrink", || {
                    squ_fuzz::shrink_sql(&sql, |s| {
                        squ_parser::parse_query(s).is_ok_and(|p| {
                            squ_schema::analyze(&Statement::Query(p), &gs.schema).is_empty()
                        })
                    })
                });
                l.add("fuzz.shrunk_tokens", tokens as f64);
            }
        }
    });
    let mut compiled = Vec::new();
    let mut interp = Vec::new();
    let mut speedup = Vec::new();
    for _ in 0..ENGINE_BENCH_REPEATS {
        let b = l.time("engine.bench", || {
            squ::run_engine_bench(ENGINE_BENCH_CASES, seed)
        });
        crate::fixed::drain_library_timings();
        let c = (b.differential_compiled + b.equiv_compiled).as_secs_f64() * 1e3;
        let i = (b.differential_interpreted + b.equiv_interpreted).as_secs_f64() * 1e3;
        compiled.push(c);
        interp.push(i);
        speedup.push(b.overall_speedup());
        l.tally.record(b.divergences == 0);
        if b.divergences > 0 {
            l.problems.push(format!(
                "{} compiled-vs-interpreter divergences",
                b.divergences
            ));
        }
    }
    l.counters
        .insert("engine.compiled_ms".into(), crate::stats::median(&compiled));
    l.counters
        .insert("engine.interp_ms".into(), crate::stats::median(&interp));
    l.counters.insert(
        "engine.compiled_speedup".into(),
        crate::stats::median(&speedup),
    );
    // the spread of the speedup across its replays, for the recorded result
    crate::stats::sort(&mut speedup);
    l.counters
        .insert("engine.compiled_speedup_min".into(), speedup[0]);
    l.counters.insert(
        "engine.compiled_speedup_max".into(),
        speedup[speedup.len() - 1],
    );
}

/// Stream items replayed on `synth`.
const SYNTH_REPLAY_ITEMS: u64 = 20_000;

/// `synth`: base workload build, then stream items through generation,
/// the lexer, the parser and printer, and the quantile sketch.
pub fn synth(l: &mut Layers, seed: u64, n: u64) {
    let stream = squ::workload::QueryStream::new(Source::Sdss, seed);
    l.replay(|l| {
        l.time("workload.build", || {
            squ::workload::build(Source::Sdss, seed)
        });
        let mut sketches = [
            squ::workload::QuantileSketch::new(),
            squ::workload::QuantileSketch::new(),
        ];
        let mut it = stream.iter();
        for _ in 0..n.min(SYNTH_REPLAY_ITEMS) {
            let Some(item) = l.time("workload.gen", || it.next()) else {
                break;
            };
            match l.time("lexer.tokenize", || squ_lexer::tokenize(&item.sql)) {
                Ok(tokens) => l.add("lexer.tokens", tokens.len() as f64),
                Err(_) => l.add("lexer.errors", 1.0),
            }
            match l.time("parser.parse", || squ_parser::parse_query(&item.sql)) {
                Ok(q) => {
                    let _ = l.time("parser.print", || squ_parser::print_query(&q));
                }
                Err(_) => l.add("parser.errors", 1.0),
            }
            l.time("workload.sketch", || {
                sketches[0].insert(item.props.char_count as f64);
                sketches[1].insert(item.props.word_count as f64);
            });
        }
    });
}

/// Every per-layer metric, from the spans and exact counters of a traced
/// run. Layers that did not run on the workload read 0.
pub fn layer_metrics(spans: &[Span], counters: &BTreeMap<String, f64>) -> Metrics {
    let totals = trace::totals_by_name(spans);
    let self_ms = |name: &str| totals.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e6);
    let total_ms = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e6);
    let calls = |name: &str| totals.get(name).map_or(0.0, |t| t.calls as f64);
    let c = |name: &str| counters.get(name).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut m = Metrics::default();

    m.set("engine.exec_ms", self_ms("engine.exec"), "ms");
    m.set("engine.exec_calls", c("engine.exec_calls"), "count");
    m.set("engine.compile_ms", self_ms("engine.compile"), "ms");
    m.set("engine.rows_scanned", c("engine.rows_scanned"), "count");
    m.set("engine.join_pairs", c("engine.join_pairs"), "count");
    m.set("engine.index_probes", c("engine.index_probes"), "count");
    m.set("engine.index_hits", c("engine.index_hits"), "count");
    m.set("engine.fallbacks", c("engine.fallbacks"), "count");
    m.set(
        "engine.compiled_ratio",
        ratio(
            c("engine.exec_calls") - c("engine.fallbacks"),
            c("engine.exec_calls"),
        ),
        "ratio",
    );
    m.set("engine.witness_ms", self_ms("engine.witness"), "ms");
    m.set("engine.reference_ms", self_ms("engine.reference"), "ms");
    m.set("engine.compiled_ms", c("engine.compiled_ms"), "ms");
    m.set("engine.interp_ms", c("engine.interp_ms"), "ms");
    m.set(
        "engine.compiled_speedup",
        c("engine.compiled_speedup"),
        "ratio",
    );

    m.set("sema.analyze_ms", self_ms("sema.analyze"), "ms");
    m.set("sema.certify_ms", self_ms("sema.certify"), "ms");
    m.set(
        "sema.decided_ratio",
        ratio(c("sema.decided"), c("sema.certified")),
        "ratio",
    );

    m.set("fuzz.gen_ms", self_ms("fuzz.gen"), "ms");
    m.set("fuzz.case_ms", total_ms("fuzz.case"), "ms");
    m.set("fuzz.mutants", c("fuzz.mutants"), "count");
    m.set("fuzz.shrink_ms", self_ms("fuzz.shrink"), "ms");

    m.set("lexer.calls", calls("lexer.tokenize"), "count");
    m.set("lexer.busy_ms", self_ms("lexer.tokenize"), "ms");
    m.set("lexer.tokens", c("lexer.tokens"), "count");
    m.set("parser.calls", calls("parser.parse"), "count");
    m.set("parser.busy_ms", self_ms("parser.parse"), "ms");
    m.set("parser.print_ms", self_ms("parser.print"), "ms");
    m.set("parser.errors", c("parser.errors"), "count");

    m.set("schema.bind_calls", calls("schema.bind"), "count");
    m.set("schema.bind_ms", self_ms("schema.bind"), "ms");
    m.set("schema.diagnostics", c("schema.diagnostics"), "count");

    m.set(
        "workload.build_ms",
        self_ms("workload.build") + c("workload.suite_build_ms"),
        "ms",
    );
    m.set("workload.gen_items", c("workload.gen_items"), "count");
    m.set("workload.gen_ms", self_ms("workload.gen"), "ms");
    m.set("workload.sketch_ms", self_ms("workload.sketch"), "ms");
    m.set("workload.accept_ratio", c("workload.accept_ratio"), "ratio");

    for short in crate::fixed::task_shorts() {
        let name = format!("tasks.build_ms.{short}");
        m.set(&name, c(&name), "ms");
    }
    m.set("tasks.build_max_ms", c("tasks.build_max_ms"), "ms");
    m.set(
        "tasks.yield_ratio",
        ratio(c("tasks.examples"), c("tasks.sources")),
        "ratio",
    );
    m.set("core.par_efficiency", c("core.par_efficiency"), "ratio");

    m.set("llm.render_ms", self_ms("llm.render"), "ms");
    m.set("llm.model_calls", calls("llm.model"), "count");
    m.set("llm.model_ms", self_ms("llm.model"), "ms");
    m.set("llm.attempts", c("llm.attempts"), "count");
    m.set("llm.retries", c("llm.retries"), "count");
    m.set("llm.exhausted", c("llm.exhausted"), "count");
    m.set("llm.extract_ms", self_ms("llm.extract"), "ms");
    m.set(
        "llm.needs_review_ratio",
        ratio(c("llm.needs_review"), calls("llm.model")),
        "ratio",
    );
    m.set("eval.score_ms", self_ms("eval.score"), "ms");
    m.set("core.artifact_ms", total_ms("core.artifact"), "ms");

    m.set("core.store_load_ms", self_ms("core.store_load"), "ms");
    m.set("core.store_save_ms", self_ms("core.store_save"), "ms");
    m.set("core.store_hit_ratio", c("core.store_hit_ratio"), "ratio");
    m.set(
        "core.store_bytes_written",
        c("core.store_bytes_written"),
        "count",
    );

    let requests = calls("serve.request");
    m.set(
        "serve.rtt_ms",
        ratio(total_ms("serve.request"), requests),
        "ms",
    );
    m.set(
        "serve.service_ms",
        ratio(total_ms("serve.service"), calls("serve.service")),
        "ms",
    );
    m.set(
        "serve.http_self_ms",
        ratio(total_ms("serve.request"), requests)
            - ratio(total_ms("serve.service"), calls("serve.service")),
        "ms",
    );
    m.set("serve.hit_ratio", c("serve.hit_ratio"), "ratio");
    m.set("serve.throttled", c("serve.throttled"), "count");
    m.set("serve.status_5xx", c("serve.status_5xx"), "count");
    m
}

/// Suite-build counters from the suite's own timing spans
/// (`suite.workload.<w>`, `suite.task.<task>[.<w>]`, `suite.total`):
/// build time per task family, the slowest single build, the workload
/// builds, and the parallel efficiency of the whole build (summed build
/// time over suite wall × jobs). No spans, no counters.
pub fn suite_counters(l: &mut Layers, spans: &[squ::timing::Span], jobs: usize) {
    let Some(total) = spans.iter().find(|s| s.name == "suite.total") else {
        return;
    };
    let builds = || spans.iter().filter(|s| s.name.starts_with("suite.task."));
    for short in crate::fixed::task_shorts() {
        let family = format!("suite.task.{short}");
        let ms: f64 = builds()
            .filter(|s| s.name == family || s.name.starts_with(&format!("{family}.")))
            .map(|s| s.ms)
            .sum();
        l.add(&format!("tasks.build_ms.{short}"), ms);
    }
    let build_max = builds().map(|s| s.ms).fold(0.0, f64::max);
    l.add("tasks.build_max_ms", build_max);
    let workloads: f64 = spans
        .iter()
        .filter(|s| s.name.starts_with("suite.workload."))
        .map(|s| s.ms)
        .sum();
    l.add("workload.suite_build_ms", workloads);
    let busy = workloads + builds().map(|s| s.ms).sum::<f64>();
    if total.ms > 0.0 {
        l.add("core.par_efficiency", busy / (total.ms * jobs as f64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, ms: f64) -> squ::timing::Span {
        squ::timing::Span {
            name: name.to_string(),
            ms,
        }
    }

    #[test]
    fn suite_counters_come_from_the_suites_own_spans() {
        let tracer = Tracer::default();
        let mut l = Layers::new(&tracer);
        let spans = [
            span("suite.workload.SDSS", 10.0),
            span("suite.workload.Spider", 6.0),
            span("suite.task.equiv.SDSS", 300.0),
            span("suite.task.equiv.Join-Order", 500.0),
            span("suite.task.explain", 4.0),
            span("suite.total", 430.0),
        ];
        suite_counters(&mut l, &spans, 2);
        let c = |name: &str| l.counters.get(name).copied().unwrap_or(0.0);
        assert_eq!(c("tasks.build_ms.equiv"), 800.0);
        assert_eq!(c("tasks.build_ms.explain"), 4.0);
        assert_eq!(c("tasks.build_ms.syntax"), 0.0);
        assert_eq!(c("tasks.build_max_ms"), 500.0);
        assert_eq!(c("workload.suite_build_ms"), 16.0);
        // (16 + 804) ms of builds over 430 ms of suite wall on 2 workers
        assert!((c("core.par_efficiency") - 820.0 / 860.0).abs() < 1e-12);

        let mut none = Layers::new(&tracer);
        suite_counters(&mut none, &[], 2);
        assert!(none.counters.is_empty());
    }
}
