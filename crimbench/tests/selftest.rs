//! Self-test of the benchmark: every workload at a tiny size prints every
//! metric `BENCHMARK.json` names, with its unit, and a deliberately
//! corrupted answer is counted as a failure.

use std::process::Command;

use serde_json::Value;

fn read_json(path: &str) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn benchmark() -> Value {
    read_json(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
}

fn names(list: &Value) -> Vec<(String, String)> {
    list.as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m[k].as_str().expect("string field").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn workloads() -> Vec<String> {
    benchmark()["workloads"]
        .as_array()
        .expect("workloads")
        .iter()
        .map(|w| w["name"].as_str().expect("workload name").to_string())
        .collect()
}

/// Run one tiny workload; returns the result line.
fn run(workload: &str, trace: bool, corrupt: usize) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_crimbench"))
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--size", "tiny"])
        .args(["--corrupt", &corrupt.to_string()])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} exited with {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).unwrap_or_else(|e| panic!("{workload}: {e}: {last}"))
}

fn assert_metrics(workload: &str, result: &Value, expected: &[(String, String)], positive: bool) {
    let Value::Object(metrics) = &result["metrics"] else {
        panic!("{workload}: metrics is not an object");
    };
    let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let wanted: Vec<&str> = expected.iter().map(|(n, _)| n.as_str()).collect();
    let mut a = printed.clone();
    let mut b = wanted.clone();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(
        a, b,
        "{workload}: printed metrics differ from BENCHMARK.json"
    );
    for (name, unit) in expected {
        let m = &result["metrics"][name.as_str()];
        assert_eq!(
            m["unit"].as_str(),
            Some(unit.as_str()),
            "{workload}: unit of {name}"
        );
        let value = m["value"].as_f64().expect("numeric value");
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        if positive {
            assert!(value > 0.0, "{workload}: end-to-end {name} = {value}");
        }
    }
}

#[test]
fn every_metric_is_printed_with_its_unit_and_outputs_check() {
    let bench = benchmark();
    let e2e = names(&bench["end_to_end"]);
    let per_layer = names(&bench["per_layer"]);
    for workload in workloads() {
        for trace in [false, true] {
            let result = run(&workload, trace, 0);
            assert_eq!(
                result["correct"], true,
                "{workload} trace={trace}: {result:?}"
            );
            assert_eq!(result["failed"].as_i64(), Some(0), "{workload}");
            assert!(result["attempted"].as_i64().unwrap_or(0) >= 1, "{workload}");
            let expected = if trace { &per_layer } else { &e2e };
            assert_metrics(&workload, &result, expected, !trace);
        }
    }
}

#[test]
fn a_corrupted_answer_is_counted_as_failed() {
    for workload in workloads() {
        let result = run(&workload, false, 1);
        assert_eq!(result["failed"].as_i64(), Some(1), "{workload}: {result:?}");
        assert_eq!(result["correct"], false, "{workload}");
    }
}

#[test]
fn layer_table_covers_every_per_layer_metric() {
    let bench = benchmark();
    let layers = read_json(concat!(env!("CARGO_MANIFEST_DIR"), "/layers.json"));
    let e2e: Vec<String> = names(&bench["end_to_end"])
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let workloads = workloads();
    let table = layers["layers"].as_array().expect("layers");
    for (name, _) in names(&bench["per_layer"]) {
        let rows: Vec<&Value> = table
            .iter()
            .filter(|r| r["metric"] == name.as_str())
            .collect();
        assert_eq!(rows.len(), 1, "{name} must appear once in layers.json");
        let list = |k: &str| -> Vec<String> {
            rows[0][k]
                .as_array()
                .expect("list")
                .iter()
                .map(|v| v.as_str().expect("string").to_string())
                .collect()
        };
        assert!(
            list("moves").iter().all(|m| e2e.contains(m)),
            "{name}: moves"
        );
        for key in ["on", "measured_on"] {
            assert!(
                list(key).iter().all(|w| workloads.contains(w)),
                "{name}: {key}"
            );
        }
    }
    assert_eq!(table.len(), names(&bench["per_layer"]).len());
    for w in &workloads {
        assert!(
            layers["workloads"].get(w).is_some(),
            "layers.json lacks workload {w}"
        );
    }
    assert!(layers["confirm_seed"].as_i64().is_some());
}
