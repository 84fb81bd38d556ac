//! `mtvp-perf`: the simulator's performance benchmark.
//!
//! ```text
//! mtvp-perf --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]
//!           [--out FILE] [--spans FILE] [--bless]
//! mtvp-perf run [--seed N] [--seconds S] [--out FILE] [--trace SPANS.json] [--quick] [--bless]
//! mtvp-perf compare A.json [B.json]
//! ```
//!
//! `--workload` runs one workload in this process and prints its metrics,
//! then one JSON result line. `run` runs every workload, each in its own
//! child process so peak memory is per workload, and with `--trace`
//! runs them again traced and writes every span to `SPANS.json`.
//! `compare` prints a before/after row per workload and metric. See
//! README.md for the workloads, the metrics and why each was chosen.

mod compare;
mod counters;
mod detail;
mod golden;
mod harness;
mod replay;
mod report;
mod sampled;
mod serve;
mod spans;
mod stamp;
mod stats;
mod sweep;

use harness::Ctx;
use report::{run_seconds, workload_names};
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

const USAGE: &str = "usage:
  mtvp-perf --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE] [--spans FILE] [--bless]
  mtvp-perf run [--seed N] [--seconds S] [--out FILE] [--trace SPANS.json] [--quick] [--bless]
  mtvp-perf compare A.json [B.json]";

/// Parsed flags.
#[derive(Default)]
struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<String>,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
    quick: bool,
    bless: bool,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        seed: 1,
        ..Opts::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?),
            "--seed" => o.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                o.seconds = Some(s);
            }
            "--trace" => o.trace = Some(value()?),
            "--out" => o.out = Some(value()?.into()),
            "--spans" => o.spans = Some(value()?.into()),
            "--quick" => o.quick = true,
            "--bless" => o.bless = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(o)
}

/// Scratch space next to the binary, inside the build directory.
fn work_root() -> PathBuf {
    let exe = std::env::current_exe().expect("the running executable has a path");
    exe.parent()
        .expect("the executable lives in a directory")
        .join("mtvp-perf-work")
}

fn write_json(path: &Path, v: &Value) {
    let text = serde_json::to_string_pretty(v).expect("serializes") + "\n";
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("mtvp-perf: cannot write {}: {e}", path.display());
    }
}

fn read_json(path: &Path) -> Option<Value> {
    let text = std::fs::read_to_string(path).ok()?;
    serde_json::from_str(&text).ok()
}

fn main() {
    // Before any thread starts, so that every thread is counted.
    let counters = counters::Counters::open();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "compare")) => (c, &args[1..]),
        _ => ("workload", &args[..]),
    };
    let code = if cmd == "compare" {
        compare_cmd(rest)
    } else {
        match parse(rest) {
            Ok(o) if cmd == "run" => run_all(&o, &counters),
            Ok(o) => run_one(&o, counters),
            Err(e) => {
                eprintln!("mtvp-perf: {e}\n{USAGE}");
                2
            }
        }
    };
    std::process::exit(code);
}

/// One workload in this process.
fn run_one(o: &Opts, counters: counters::Counters) -> i32 {
    let names = workload_names();
    let Some(workload) = o.workload.clone().filter(|w| names.contains(w)) else {
        eprintln!(
            "mtvp-perf: --workload must be one of {}\n{USAGE}",
            names.join(", ")
        );
        return 2;
    };
    let traced = match o.trace.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => {
            eprintln!("mtvp-perf: --trace takes 0 or 1 here, not `{other}`");
            return 2;
        }
    };
    let work = work_root().join(format!("{workload}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("mtvp-perf: cannot create {}: {e}", work.display());
        return 2;
    }
    let start = stamp::start(&counters);
    let seconds = o.seconds.unwrap_or(run_seconds() as f64);
    let ctx = Ctx {
        workload: workload.clone(),
        seed: o.seed,
        budget: Duration::from_secs_f64(seconds),
        quick: o.quick,
        traced,
        tracer: spans::Tracer::new(),
        checker: golden::Checker::new(o.quick),
        counters,
        work: work.clone(),
    };
    let mut report = match workload.as_str() {
        "detail-mem" => detail::run(&ctx, false),
        "detail-core" => detail::run(&ctx, true),
        "sampled" => sampled::run(&ctx),
        "sweep" => sweep::run(&ctx),
        _ => serve::run(&ctx),
    };
    let scale = match (o.quick, workload.as_str()) {
        (true, _) => "tiny",
        (false, "sweep" | "serve") => "small",
        _ => "full",
    };
    report.stamp = stamp::stamp(&start, &ctx.counters, o.seed, scale, &report.passes);
    report.print();
    if let Some(path) = &o.out {
        write_json(path, &report.to_value());
    }
    if let Some(path) = &o.spans {
        write_json(path, &spans::spans_json(&workload, &ctx.tracer.spans()));
    }
    if o.bless {
        match ctx.checker.bless() {
            Ok(path) => eprintln!("mtvp-perf: recorded digests in {}", path.display()),
            Err(e) => eprintln!("mtvp-perf: cannot record digests: {e}"),
        }
    }
    let _ = std::fs::remove_dir_all(&work);
    println!("{}", report.result_line());
    if report.correct() {
        0
    } else {
        1
    }
}

/// Every workload, each in a child process; then, with `--trace`, every
/// workload again traced.
fn run_all(o: &Opts, counters: &counters::Counters) -> i32 {
    let start = stamp::start(counters);
    let exe = std::env::current_exe().expect("the running executable has a path");
    let tmp = work_root().join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("mtvp-perf: cannot create {}: {e}", tmp.display());
        return 2;
    }
    let mut ok = true;
    let mut child = |w: &str, traced: bool| -> Option<(Value, Option<Value>)> {
        let out = tmp.join(format!("{w}-{traced}.json"));
        let spans = tmp.join(format!("{w}-spans.json"));
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w, "--seed", &o.seed.to_string()]);
        cmd.args(["--trace", if traced { "1" } else { "0" }]);
        cmd.arg("--out").arg(&out);
        if let Some(s) = o.seconds {
            cmd.args(["--seconds", &s.to_string()]);
        }
        if traced {
            cmd.arg("--spans").arg(&spans);
        }
        if o.quick {
            cmd.arg("--quick");
        }
        if o.bless && !traced {
            cmd.arg("--bless");
        }
        let status = cmd.status();
        ok &= status.is_ok_and(|s| s.success());
        let record = read_json(&out);
        ok &= record.is_some();
        Some((record?, traced.then(|| read_json(&spans)).flatten()))
    };
    let names = workload_names();
    let mut records = Vec::new();
    for w in &names {
        if let Some((r, _)) = child(w, false) {
            records.push((w.clone(), r));
        }
    }
    let mut traced = Vec::new();
    let mut span_docs = Vec::new();
    if o.trace.is_some() {
        for w in &names {
            if let Some((r, s)) = child(w, true) {
                traced.push((w.clone(), r));
                span_docs.extend(s);
            }
        }
    }
    let _ = std::fs::remove_dir_all(&tmp);

    println!("== mtvp-perf summary (seed {}) ==", o.seed);
    for (w, r) in &records {
        let Value::Map(metrics) = &r["metrics"] else {
            continue;
        };
        for (name, m) in metrics {
            if m["scope"].as_str() == Some("per_layer") {
                continue;
            }
            let note = m["note"].as_str().unwrap_or("");
            println!(
                "{w} {name} {} {}  (q1 {} q3 {} n {}){}{note}",
                m["median"],
                m["unit"].as_str().unwrap_or(""),
                m["q1"],
                m["q3"],
                m["n"],
                if note.is_empty() { "" } else { "  " },
            );
        }
    }
    for (w, r) in &traced {
        let p = &r["profile"];
        // Quick runs trace their only pass: there is no untraced one.
        let overhead = r["metrics"]["trace.overhead_pct"]["median"]
            .as_f64()
            .map_or("n/a (no untraced pass)".to_string(), |o| format!("{o:.2}%"));
        println!(
            "{w} traced: spans cover {:.2}% of {:.1} ms traced wall; tracing overhead {overhead}",
            100.0 * p["coverage"].as_f64().unwrap_or(0.0),
            p["wall_ms"].as_f64().unwrap_or(0.0),
        );
    }
    let doc = serde_json::json!({
        "format": "mtvp-perf-run-v1",
        "stamp": stamp::stamp(&start, counters, o.seed, if o.quick { "tiny" } else { "per workload" }, &[]),
        "workloads": Value::Map(records),
        "traced": Value::Map(traced),
    });
    if let Some(path) = &o.out {
        write_json(path, &doc);
    }
    if let Some(path) = &o.trace {
        let spans = serde_json::json!({
            "format": "mtvp-perf-spans-v1",
            "workloads": Value::Seq(span_docs),
        });
        write_json(Path::new(path), &spans);
    }
    if ok {
        0
    } else {
        eprintln!("mtvp-perf: at least one workload failed");
        1
    }
}

fn compare_cmd(args: &[String]) -> i32 {
    let docs: Vec<Value> = match args
        .iter()
        .map(|p| read_json(Path::new(p)).ok_or(p))
        .collect()
    {
        Ok(d) => d,
        Err(p) => {
            eprintln!("mtvp-perf: cannot read {p} as JSON");
            return 2;
        }
    };
    let (a, b) = match docs.as_slice() {
        [a] if a["sets"].as_array().is_some_and(|s| s.len() >= 2) => compare::sets(a, None),
        [a, b] => compare::sets(a, Some(b)),
        _ => {
            eprintln!("{USAGE}");
            return 2;
        }
    };
    let (table, ok) = compare::compare(a, b);
    print!("{table}");
    if ok {
        0
    } else {
        1
    }
}
