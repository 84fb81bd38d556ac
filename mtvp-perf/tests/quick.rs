//! Quick mode, end to end through the benchmark's own command line: every
//! workload emits exactly the metrics `BENCHMARK.json` names, with their
//! units; nothing fails (so the quick golden digests match); and the
//! traced runs' span files nest.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

fn catalogue() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json is JSON")
}

/// Run one quick workload and return its result line.
fn run(workload: &str, traced: bool, spans: Option<&Path>) -> Value {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_mtvp-perf"));
    cmd.args(["--workload", workload, "--quick", "--seed", "3"]);
    cmd.args(["--trace", if traced { "1" } else { "0" }]);
    if let Some(s) = spans {
        cmd.arg("--spans").arg(s);
    }
    let out = cmd.output().expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the last line is JSON")
}

/// The result line carries exactly `names` (with `units`), and no failure.
fn assert_complete(workload: &str, result: &Value, list: &Value, nonzero: bool) {
    let Value::Map(top) = result else {
        panic!("{workload}: result is not an object")
    };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result["correct"].as_bool(), Some(true), "{workload}");
    assert_eq!(result["failed"].as_u64(), Some(0), "{workload}");
    assert!(result["attempted"].as_u64().unwrap_or(0) >= 1, "{workload}");
    let Value::Map(metrics) = &result["metrics"] else {
        panic!("{workload}: no metrics object")
    };
    let want: Vec<(&str, &str)> = list
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| (m["name"].as_str().unwrap(), m["unit"].as_str().unwrap()))
        .collect();
    let got: Vec<(&str, &str)> = metrics
        .iter()
        .map(|(k, v)| (k.as_str(), v["unit"].as_str().unwrap_or("")))
        .collect();
    assert_eq!(got, want, "{workload}: metric names and units");
    for (name, v) in metrics {
        let x = v["value"].as_f64().expect("numeric value");
        assert!(x.is_finite(), "{workload} {name} = {x}");
        if nonzero {
            assert!(x > 0.0, "{workload} {name} must never be 0, got {x}");
        }
    }
}

/// Every parent exists, every child lies inside its parent, and every
/// span's self time (its duration less the union of its children) is
/// not negative.
fn assert_nested(workload: &str, doc: &Value) {
    let spans = doc["spans"].as_array().expect("span list");
    assert!(!spans.is_empty(), "{workload}: no spans recorded");
    let find = |n: u64| spans.iter().find(|s| s["span"].as_u64() == Some(n));
    for s in spans {
        let (start, end) = (
            s["start_ns"].as_u64().unwrap(),
            s["end_ns"].as_u64().unwrap(),
        );
        assert!(start <= end, "{workload}: span ends before it starts");
        if let Some(p) = s["parent"].as_u64() {
            let parent = find(p).unwrap_or_else(|| panic!("{workload}: missing parent {p}"));
            assert!(
                parent["start_ns"].as_u64().unwrap() <= start
                    && end <= parent["end_ns"].as_u64().unwrap(),
                "{workload}: {} escapes its parent {}",
                s["name"],
                parent["name"]
            );
        }
        let mut kids: Vec<(u64, u64)> = spans
            .iter()
            .filter(|c| c["parent"].as_u64() == s["span"].as_u64())
            .map(|c| {
                (
                    c["start_ns"].as_u64().unwrap(),
                    c["end_ns"].as_u64().unwrap(),
                )
            })
            .collect();
        kids.sort_unstable();
        let (mut covered, mut reach) = (0, start);
        for (a, b) in kids {
            let (a, b) = (a.max(reach), b.min(end));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        assert!(covered <= end - start, "{workload}: negative self time");
    }
}

#[test]
fn quick_runs_are_complete_correct_and_nested() {
    let cat = catalogue();
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("quick");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    for w in cat["workloads"].as_array().expect("workload list") {
        let name = w["name"].as_str().expect("workload name");
        let result = run(name, false, None);
        assert_complete(name, &result, &cat["end_to_end"], true);

        let spans = dir.join(format!("{name}.spans.json"));
        let result = run(name, true, Some(&spans));
        assert_complete(name, &result, &cat["per_layer"], false);
        let text = std::fs::read_to_string(&spans).expect("span file written");
        assert_nested(
            name,
            &serde_json::from_str(&text).expect("span file is JSON"),
        );
    }
}
