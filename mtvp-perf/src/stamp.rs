//! The host-and-build stamp on every output file: without it no ledger
//! row can tell host drift from a regression.

use crate::counters::Counters;
use serde::Value;
use std::hint::black_box;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// What is recorded when a run starts.
pub struct Start {
    loadavg: String,
    clock_ghz: f64,
    unix_time: u64,
}

fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".to_string())
}

/// The clock this thread runs at now, in GHz: cycles over wall time of
/// 20 ms of busy work. It moves with other tenants' load, so a ledger row
/// can tell a slower host from a slower program.
fn clock_ghz(counters: &Counters) -> f64 {
    let (c0, t0) = (counters.read().cycles, Instant::now());
    let mut x = 1u64;
    while t0.elapsed() < Duration::from_millis(20) {
        for _ in 0..10_000 {
            x = black_box(x.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 1);
        }
    }
    (counters.read().cycles - c0) as f64 / t0.elapsed().as_nanos() as f64
}

pub fn start(counters: &Counters) -> Start {
    Start {
        loadavg: loadavg(),
        clock_ghz: clock_ghz(counters),
        unix_time: SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_secs()),
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit being measured, suffixed `-dirty` when the working tree has
/// uncommitted changes, or "unknown" when the repository the benchmark
/// was built in is not a git checkout. Git is kept from searching the
/// directories above it.
fn git_rev() -> String {
    let Ok(root) = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .canonicalize()
    else {
        return "unknown".to_string();
    };
    Command::new("git")
        .arg("-C")
        .arg(&root)
        .args([
            "describe",
            "--always",
            "--dirty",
            "--abbrev=40",
            "--exclude=*",
        ])
        .env("GIT_CEILING_DIRECTORIES", root.parent().unwrap_or(&root))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The stamp of a run that began at `start`.
pub fn stamp(
    start: &Start,
    counters: &Counters,
    seed: u64,
    scale: &str,
    passes: &[(String, usize)],
) -> Value {
    let passes = passes
        .iter()
        .map(|(k, n)| (k.clone(), Value::U64(*n as u64)))
        .collect();
    serde_json::json!({
        "nproc": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "cpu_model": cpu_model(),
        "loadavg_start": start.loadavg.as_str(),
        "loadavg_end": loadavg(),
        "clock_ghz_start": start.clock_ghz,
        "clock_ghz_end": clock_ghz(counters),
        "counters": counters.source(),
        "rustc": env!("MTVP_PERF_RUSTC"),
        "git_rev": git_rev(),
        "scale": scale,
        "seed": seed,
        "passes": Value::Map(passes),
        "unix_time": start.unix_time,
    })
}
