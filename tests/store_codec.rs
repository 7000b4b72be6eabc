//! The JSON codec every store payload and every served request body goes
//! through (the vendored `serde_json`):
//!
//! * strings round-trip exactly — multi-byte UTF-8, escapes at the edges
//!   of unescaped runs, `\u` escapes, raw control bytes, empty strings —
//!   and malformed strings stay errors;
//! * nesting is capped at 128 levels with an error, not a stack overflow;
//! * every dataset set decodes through [`DynTask::decode_set`] and
//!   re-encodes to the same bytes, and every stage payload the pipeline
//!   writes nests far under the cap.

use serde_json::Value;
use squ::tasks::CertStats;
use squ::{run_fuzz, run_synth, AuditReport, Store, Suite, SynthConfig, Violation, PAPER_SEED};
use squ_workload::Workload;
use std::collections::BTreeMap;
use std::fs;
use std::sync::OnceLock;

fn round_trip(s: &str) {
    let encoded = Value::Str(s.to_string()).to_compact_string();
    let decoded: Value = serde_json::from_str(&encoded)
        .unwrap_or_else(|e| panic!("{s:?} encoded as {encoded:?} fails to parse: {e}"));
    assert_eq!(decoded, Value::Str(s.to_string()), "via {encoded:?}");
}

#[test]
fn strings_round_trip_exactly() {
    for s in [
        "",
        "plain ascii",
        "héllo wörld ✓ 日本語 🦀",
        "\"",
        "\\",
        "\"leading quote",
        "trailing quote\"",
        "back\\slash",
        "ü\"ü",
        "🦀\\🦀",
        "日\n本\t語\r",
        "\u{8}\u{c}\u{1}\u{1f}\u{7f}",
        "a\"\"b\\\\c",
        "SELECT \"name\" FROM t WHERE x = 'a\\b'",
    ] {
        round_trip(s);
    }
    // a long document with an escape every few dozen bytes: many runs,
    // each decoded once
    let long: String = (0..5_000)
        .map(|i| format!("row {i}: ünïcödé \"quoted\" 🦀 \\ path\n"))
        .collect();
    round_trip(&long);
}

#[test]
fn escapes_and_raw_bytes_decode_to_the_documented_values() {
    for (json, want) in [
        (r#""""#, ""),
        (r#""\u00e9\u4e2d""#, "é中"),
        (r#""x\u0041y""#, "xAy"),
        (r#""\/\b\f\n\r\t""#, "/\u{8}\u{c}\n\r\t"),
        (r#""é\"ü""#, "é\"ü"),
        // raw control bytes inside a string are kept as they are
        ("\"a\u{1}b\tc\"", "a\u{1}b\tc"),
    ] {
        let v: Value = serde_json::from_str(json).unwrap_or_else(|e| panic!("{json:?}: {e}"));
        assert_eq!(v, Value::Str(want.to_string()), "{json:?}");
    }
    let v: Value = serde_json::from_str(r#"{"k\"ey":"v\\al","ü":["","日"]}"#).expect("parses");
    assert_eq!(v["k\"ey"], "v\\al");
    assert_eq!(v["ü"][1], "日");
}

#[test]
fn malformed_strings_stay_errors() {
    for json in [
        "\"",
        "\"abc",
        "\"abc\\\"",
        "\"ünterminated",
        "\"trailing backslash\\",
        "\"\\x\"",
        "\"\\u12\"",
        "\"\\uzzzz\"",
        "\"\\ud800\"",
        "[\"a\",\"b]",
        "{\"key:1}",
    ] {
        assert!(
            serde_json::from_str::<Value>(json).is_err(),
            "{json:?} must not parse"
        );
    }
}

#[test]
fn nesting_is_capped_with_an_error_not_a_stack_overflow() {
    let arrays = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
    let objects = |n: usize| format!("{}1{}", "{\"a\":".repeat(n), "}".repeat(n));
    assert!(serde_json::from_str::<Value>(&arrays(128)).is_ok());
    assert!(serde_json::from_str::<Value>(&objects(128)).is_ok());
    for deep in [
        arrays(129),
        objects(129),
        "[".repeat(10_000),
        "{\"a\":".repeat(10_000),
    ] {
        let err = serde_json::from_str::<Value>(&deep).expect_err("over the cap");
        assert!(err.to_string().contains("nesting"), "{err}");
    }
}

/// The paper suite, built once into a scratch store shared by the tests
/// below (the `workload` and `dataset` stages).
fn suite() -> &'static Suite {
    static SUITE: OnceLock<Suite> = OnceLock::new();
    SUITE.get_or_init(|| {
        fs::remove_dir_all(STORE_ROOT).ok();
        Suite::load_or_build(PAPER_SEED, 2, &mut Store::open(STORE_ROOT))
    })
}

const STORE_ROOT: &str = "target/test-store-codec";

#[test]
fn every_dataset_set_re_encodes_byte_identically() {
    let mut sets = 0;
    for set in suite().sets() {
        let task = set.task();
        let json = task.encode_set(set.examples());
        let back = task
            .decode_set(&json)
            .unwrap_or_else(|e| panic!("{:?}/{:?}: {e}", task.id(), set.workload()));
        assert_eq!(task.set_len(&back), set.len());
        assert!(
            task.encode_set(&back) == json,
            "{:?}/{:?} re-encodes differently",
            task.id(),
            set.workload()
        );
        sets += 1;
    }
    assert_eq!(sets, 14, "every (task, workload) set of the paper suite");
}

/// Depth of a JSON tree: a scalar is 0, each array or object adds 1.
fn depth(v: &Value) -> usize {
    match v {
        Value::Array(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
        Value::Object(fields) => 1 + fields.iter().map(|(_, v)| depth(v)).max().unwrap_or(0),
        _ => 0,
    }
}

#[test]
fn every_stage_payload_nests_far_under_the_cap() {
    suite(); // the workload and dataset stages
    let mut store = Store::open(STORE_ROOT);
    run_fuzz(24, 7, 2, Some(&mut store));
    let synth = SynthConfig {
        base: Workload::Sdss,
        seed: PAPER_SEED,
        n: 400,
        shards: 2,
        jobs: 2,
        target_json: None,
    };
    run_synth(&synth, Some(&mut store)).expect("synthesis");
    // the audit report with every collection populated: its nesting is
    // fixed by its type, and a full audit of the suite costs far more
    let audit = AuditReport {
        seed: PAPER_SEED,
        checked: 1,
        rule_hits: BTreeMap::from([("SQU001".to_string(), 1)]),
        certs: CertStats::default(),
        violations: vec![Violation {
            dataset: "syntax/sdss".to_string(),
            query_id: "q1".to_string(),
            invariant: "positive-expected-diagnostic".to_string(),
            detail: "no diagnostic".to_string(),
        }],
    };
    store.save_value("audit", "audit", 1, &audit);

    let mut deepest = BTreeMap::new();
    for stage in fs::read_dir(STORE_ROOT).expect("store root") {
        let stage = stage.expect("stage dir").path();
        let name = stage
            .file_name()
            .expect("stage name")
            .to_string_lossy()
            .into_owned();
        for entry in fs::read_dir(&stage).expect("stage entries") {
            let text = fs::read_to_string(entry.expect("entry").path()).expect("read entry");
            let (_, payload) = text.split_once('\n').expect("header line");
            let v: Value = serde_json::from_str(payload).expect("payload parses");
            let d = deepest.entry(name.clone()).or_insert(0);
            *d = (*d).max(depth(&v));
        }
    }
    let stages: Vec<&str> = deepest.keys().map(String::as_str).collect();
    assert_eq!(stages, ["audit", "dataset", "fuzz", "synth", "workload"]);
    for (stage, d) in &deepest {
        // a wide margin under the parser's 128-level cap
        assert!(*d <= 16, "{stage} payloads nest {d} deep");
    }
}
