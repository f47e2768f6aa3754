//! Smoke-size runs of every workload, untraced and traced: every metric of
//! BENCHMARK.json is emitted with its unit, the correctness gates pass, and
//! the traced runs cover every layer.

use silc_perfbench::metrics::{Def, Record, END_TO_END, PER_LAYER};
use silc_perfbench::{run, Config, Constants, Workload};
use std::path::PathBuf;
use std::sync::Mutex;

/// The trace recorder is process-wide: one run at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn smoke(workload: Workload, trace: bool) -> Record {
    let _one = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = Config {
        workload,
        seed: 11,
        seconds: 1.0,
        trace,
        constants: Constants::smoke(),
        root: root(),
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke"),
    };
    let rec = run(&cfg).unwrap_or_else(|e| panic!("{} failed: {e}", workload.name()));
    assert!(rec.correct(), "{}: gate mismatches {:?}", workload.name(), rec.mismatches);
    assert_eq!(rec.failed, 0, "{}: failed queries", workload.name());
    assert!(rec.attempted > 0);
    rec
}

/// The `{"name": …, "unit": …}` pairs of one BENCHMARK.json list.
fn declared(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).unwrap();
    let start = text.find(&format!("\"{list}\"")).expect("list present");
    let body = &text[start..start + text[start..].find(']').unwrap()];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| {
            let name = s[..s.find('"').unwrap()].to_string();
            let u = &s[s.find("\"unit\": \"").unwrap() + 9..];
            (name, u[..u.find('"').unwrap()].to_string())
        })
        .collect()
}

fn assert_emits(rec: &Record, defs: &[Def], list: &str, what: &str) {
    let line = rec.result_line(defs).unwrap_or_else(|e| panic!("{what}: {e}"));
    let want: Vec<(String, String)> =
        defs.iter().map(|d| (d.name.to_string(), d.unit.to_string())).collect();
    assert_eq!(declared(list), want, "BENCHMARK.json {list} and the dictionary disagree");
    for (name, unit) in want {
        let entry = format!("\"{name}\": {{\"value\": ");
        let at = line.find(&entry).unwrap_or_else(|| panic!("{what}: {name} missing"));
        let rest = &line[at..];
        assert!(
            rest[..rest.find('}').unwrap()].ends_with(&format!("\"unit\": \"{unit}\"")),
            "{what}: {name} lacks unit {unit}"
        );
    }
}

fn untraced(workload: Workload) -> Record {
    let rec = smoke(workload, false);
    assert_emits(&rec, END_TO_END, "end_to_end", workload.name());
    for m in END_TO_END {
        assert!(rec.get(m.name).unwrap() > 0.0, "{}: {} reads 0", workload.name(), m.name);
    }
    assert_eq!(rec.get("ok_frac"), Some(1.0));
    rec
}

fn traced(workload: Workload) -> (Record, String) {
    let rec = smoke(workload, true);
    assert_emits(&rec, PER_LAYER, "per_layer", workload.name());
    // Only the workload's idle metrics may be the zero-sample fill.
    for m in PER_LAYER {
        let filled = rec.values[m.name].1 == Some(0);
        assert_eq!(
            filled,
            workload.idles(m.name),
            "{}: {} filled: {filled}",
            workload.name(),
            m.name
        );
    }
    assert_eq!(rec.get("storage.faults_seen"), Some(0.0));
    assert_eq!(rec.get("storage.retries"), Some(0.0));
    let names = rec.stamps.iter().find(|(k, _)| *k == "span_names").unwrap().1.clone();
    (rec, names)
}

#[test]
fn knn_local_smoke() {
    let rec = untraced(Workload::KnnLocal);
    assert_eq!(rec.get("complete_frac"), Some(1.0));
    let (rec, spans) = traced(Workload::KnnLocal);
    assert!(rec.get("query.refinements_per_query").unwrap() > 0.0);
    assert!(rec.get("storage.pool_misses_per_query").unwrap() > 0.0);
    for s in
        ["network.generate", "core.build", "core.write", "core.open", "query.knn", "storage.read"]
    {
        assert!(spans.contains(s), "knn_local trace lacks {s}: {spans}");
    }
}

#[test]
fn knn_served_smoke() {
    let rec = untraced(Workload::KnnServed);
    assert_eq!(rec.get("complete_frac"), Some(1.0));
    assert!(rec.get("served_max_qps").unwrap() >= Constants::smoke().base_rate);
    let (rec, spans) = traced(Workload::KnnServed);
    assert!(rec.get("server.bodies_per_drain").unwrap() >= 1.0);
    assert!(rec.get("server.send_us").unwrap() > 0.0);
    for s in ["server.start", "server.send", "server.batch", "server.first_reply"] {
        assert!(spans.contains(s), "knn_served trace lacks {s}: {spans}");
    }
}

#[test]
fn routed_large_smoke() {
    let rec = untraced(Workload::RoutedLarge);
    assert_eq!(rec.get("complete_frac"), Some(1.0));
    let (rec, spans) = traced(Workload::RoutedLarge);
    assert_eq!(rec.get("router.degraded_total"), Some(0.0));
    assert!(rec.get("router.candidates_per_query").unwrap() > 0.0);
    assert!(rec.get("core.shard_build_s").unwrap() > 0.0);
    for s in ["router.knn", "router.engine", "core.build", "core.open", "storage.read"] {
        assert!(spans.contains(s), "routed_large trace lacks {s}: {spans}");
    }
}

#[test]
fn approx_oracle_smoke() {
    let rec = untraced(Workload::ApproxOracle);
    assert!(rec.get("error_factor").unwrap() >= 1.0);
    let (rec, spans) = traced(Workload::ApproxOracle);
    assert!(rec.get("pcp.pairs").unwrap() > 0.0);
    assert!(rec.get("query.approx_candidates_per_query").unwrap() >= 1.0);
    for s in ["pcp.build", "pcp.write", "pcp.open", "pcp.probe", "query.approx"] {
        assert!(spans.contains(s), "approx_oracle trace lacks {s}: {spans}");
    }
}
