//! The correctness gate: every simulated cell is checked against a
//! committed digest of its `PipeStats`, and every operation that panics,
//! mismatches or is refused counts as failed.

use mtvp_engine::PipeStats;
use serde::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

const FULL: &str = include_str!("../golden/full.json");
const QUICK: &str = include_str!("../golden/quick.json");
const FORMAT: &str = "mtvp-perf-golden-v1";

/// FNV-1a 64 over the stats' canonical JSON: equal digests mean every
/// counter is bit-identical.
pub fn digest(stats: &PipeStats) -> String {
    let text = serde_json::to_string(stats).expect("PipeStats serializes");
    let h = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{h:016x}")
}

fn parse(text: &str) -> BTreeMap<String, String> {
    let doc: Value = serde_json::from_str(text).expect("golden file is JSON");
    assert_eq!(doc["format"].as_str(), Some(FORMAT), "golden file format");
    match &doc["digests"] {
        Value::Map(entries) => entries
            .iter()
            .map(|(k, v)| (k.clone(), v.as_str().expect("digest is a string").into()))
            .collect(),
        _ => panic!("golden file has no `digests` object"),
    }
}

/// Counts attempts and failures, and checks cell digests.
pub struct Checker {
    quick: bool,
    golden: BTreeMap<String, String>,
    seen: Mutex<BTreeMap<String, String>>,
    attempted: AtomicU64,
    failed: AtomicU64,
}

impl Checker {
    pub fn new(quick: bool) -> Checker {
        Checker {
            quick,
            golden: parse(if quick { QUICK } else { FULL }),
            seen: Mutex::new(BTreeMap::new()),
            attempted: AtomicU64::new(0),
            failed: AtomicU64::new(0),
        }
    }

    /// Count one attempted operation (a cell, a sampled run, a request).
    pub fn attempt(&self) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a failed operation and say why on stderr.
    pub fn fail(&self, what: &str) {
        self.failed.fetch_add(1, Ordering::Relaxed);
        eprintln!("mtvp-perf: FAILED {what}");
    }

    /// Check the stats of cell `key` (`workload/bench/config`): against
    /// the committed digest when there is one, and always against every
    /// earlier pass over the same cell. Returns whether it passed.
    pub fn check(&self, key: &str, stats: &PipeStats) -> bool {
        let d = digest(stats);
        let mut seen = self.seen.lock().expect("digest table lock");
        let expected = self.golden.get(key).or_else(|| seen.get(key)).cloned();
        seen.entry(key.to_string()).or_insert_with(|| d.clone());
        drop(seen);
        match expected {
            Some(e) if e != d => {
                self.fail(&format!("{key}: stats digest {d}, expected {e}"));
                false
            }
            _ => true,
        }
    }

    /// (attempted, failed) so far.
    pub fn counts(&self) -> (u64, u64) {
        (
            self.attempted.load(Ordering::Relaxed),
            self.failed.load(Ordering::Relaxed),
        )
    }

    /// Merge every digest seen into the committed golden file (used once
    /// to record the digests; the binary must be rebuilt to use them).
    pub fn bless(&self) -> std::io::Result<PathBuf> {
        let name = if self.quick { "quick" } else { "full" };
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("golden/{name}.json"));
        let mut all = parse(&std::fs::read_to_string(&path)?);
        all.extend(self.seen.lock().expect("digest table lock").clone());
        let digests = all.into_iter().map(|(k, v)| (k, Value::Str(v))).collect();
        let doc = serde_json::json!({ "format": FORMAT, "digests": Value::Map(digests) });
        let text = serde_json::to_string_pretty(&doc).expect("serializes") + "\n";
        std::fs::write(&path, text)?;
        Ok(path)
    }
}
