//! Metrics of one workload run, the metric catalogue in `BENCHMARK.json`,
//! and the three ways a run is written out: human lines, the record file
//! (`--out`), and the one-line JSON result.

use crate::stats::Stat;
use serde::Value;
use std::sync::OnceLock;

/// The benchmark's contract: workloads and metrics with unit, direction
/// and regression bound. The code supplies values; a unit that disagrees
/// with the catalogue is a bug and panics.
const CATALOGUE: &str = include_str!("../../BENCHMARK.json");

/// Host-time metrics outside the catalogue share the catalogue's bound:
/// the host's drift between runs is the same for all of them.
pub const DEFAULT_BOUND: f64 = 0.25;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
    /// Simulated results and counts: any change is a difference.
    Exact,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
            Better::Exact => "exact",
        }
    }

    fn parse(s: &str) -> Better {
        match s {
            "lower" => Better::Lower,
            "higher" => Better::Higher,
            "exact" => Better::Exact,
            other => panic!("unknown metric direction `{other}`"),
        }
    }
}

/// Where a metric is listed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// `end_to_end` in `BENCHMARK.json`: every workload reports it.
    EndToEnd,
    /// A user-visible figure of this workload only (simulated kcycles/s,
    /// serve p50, ...): printed and recorded, compared by `compare`.
    Workload,
    /// A layer metric; those in `per_layer` of `BENCHMARK.json` make up
    /// the traced result line.
    Layer,
}

impl Scope {
    fn as_str(self) -> &'static str {
        match self {
            Scope::EndToEnd => "end_to_end",
            Scope::Workload => "workload",
            Scope::Layer => "per_layer",
        }
    }
}

/// One catalogued metric.
#[derive(Clone, Debug)]
pub struct Catalogued {
    pub name: String,
    pub unit: String,
    pub better: Better,
    pub bound: Option<f64>,
    pub scope: Scope,
}

fn contract() -> &'static Value {
    static DOC: OnceLock<Value> = OnceLock::new();
    DOC.get_or_init(|| serde_json::from_str(CATALOGUE).expect("BENCHMARK.json is JSON"))
}

/// The metric catalogue, in `BENCHMARK.json` order.
pub fn catalogue() -> &'static [Catalogued] {
    static PARSED: OnceLock<Vec<Catalogued>> = OnceLock::new();
    PARSED.get_or_init(|| {
        let mut out = Vec::new();
        for (key, scope) in [("end_to_end", Scope::EndToEnd), ("per_layer", Scope::Layer)] {
            for m in contract()[key].as_array().expect("metric list") {
                out.push(Catalogued {
                    name: m["name"].as_str().expect("metric name").to_string(),
                    unit: m["unit"].as_str().expect("metric unit").to_string(),
                    better: Better::parse(m["better"].as_str().expect("metric direction")),
                    bound: m["bound"].as_f64(),
                    scope,
                });
            }
        }
        out
    })
}

/// How long one run measures, by default.
pub fn run_seconds() -> u64 {
    contract()["run_seconds"].as_u64().expect("run_seconds")
}

/// Workload names, in `BENCHMARK.json` order.
pub fn workload_names() -> Vec<String> {
    contract()["workloads"]
        .as_array()
        .expect("workload list")
        .iter()
        .map(|w| w["name"].as_str().expect("workload name").to_string())
        .collect()
}

/// One measured metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    pub scope: Scope,
    /// Summary of the raw samples; the median is the reported value.
    pub stat: Stat,
    /// Free text printed beside the value (which percentile, ...).
    pub note: String,
}

/// Everything one workload run measured.
#[derive(Debug)]
pub struct Report {
    pub workload: String,
    pub traced: bool,
    pub metrics: Vec<Metric>,
    /// Passes (or windows) per phase, for the stamp.
    pub passes: Vec<(String, usize)>,
    pub attempted: u64,
    pub failed: u64,
    /// Per-layer self-time profile of a traced run.
    pub profile: Option<Value>,
    pub stamp: Value,
}

impl Report {
    pub fn new(workload: &str, traced: bool) -> Report {
        Report {
            workload: workload.to_string(),
            traced,
            metrics: Vec::new(),
            passes: Vec::new(),
            attempted: 0,
            failed: 0,
            profile: None,
            stamp: Value::Null,
        }
    }

    /// Record a metric. A catalogued name must carry the catalogue's unit
    /// and direction (or be exact), and takes its scope from it.
    pub fn put(&mut self, name: &str, unit: &'static str, better: Better, stat: Stat) {
        self.put_note(name, unit, better, stat, String::new());
    }

    pub fn put_note(
        &mut self,
        name: &str,
        unit: &'static str,
        better: Better,
        stat: Stat,
        note: String,
    ) {
        assert!(
            stat.median.is_finite() && stat.q1.is_finite() && stat.q3.is_finite(),
            "metric {name} is not finite: {stat:?}"
        );
        let scope = match catalogue().iter().find(|c| c.name == name) {
            Some(c) => {
                assert_eq!(
                    c.unit, unit,
                    "metric {name}: unit disagrees with BENCHMARK.json"
                );
                // Simulated counts are exact whatever direction the
                // catalogue gives the modelled machine.
                assert!(
                    better == Better::Exact || better == c.better,
                    "metric {name}: direction disagrees with BENCHMARK.json"
                );
                c.scope
            }
            // Layer metrics are named `layer.metric`; a layer only some
            // workloads exercise is recorded but not catalogued, since
            // every catalogued metric must be measured on every workload.
            None if name.contains('.') => Scope::Layer,
            None => Scope::Workload,
        };
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            better,
            scope,
            stat,
            note,
        });
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// `workload metric median unit` lines with the quartiles and n.
    pub fn print(&self) {
        for m in &self.metrics {
            let s = m.stat;
            println!(
                "{} {} {} {}  (q1 {} q3 {} n {}){}{}",
                self.workload,
                m.name,
                s.median,
                m.unit,
                s.q1,
                s.q3,
                s.n,
                if m.note.is_empty() { "" } else { "  " },
                m.note
            );
        }
    }

    /// The result line: every `end_to_end` metric, or with tracing every
    /// `per_layer` one. A count of events this workload never has (the
    /// sampling counters outside `sampled`, say) reads 0.
    pub fn result_line(&self) -> String {
        let want = if self.traced {
            Scope::Layer
        } else {
            Scope::EndToEnd
        };
        let metrics = catalogue()
            .iter()
            .filter(|c| c.scope == want)
            .map(|c| {
                let value = match self.get(&c.name) {
                    Some(m) => m.stat.median,
                    None if want == Scope::Layer => 0.0,
                    None => panic!(
                        "{}: end-to-end metric {} not measured",
                        self.workload, c.name
                    ),
                };
                let entry = serde_json::json!({ "value": value, "unit": c.unit.as_str() });
                (c.name.clone(), entry)
            })
            .collect();
        serde_json::json!({
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Value::Map(metrics),
        })
        .to_string()
    }

    /// The record file body (`--out`): metrics with their samples'
    /// summaries, bounds, counts and the host stamp.
    pub fn to_value(&self) -> Value {
        let cat = catalogue();
        let metrics: Vec<(String, Value)> = self
            .metrics
            .iter()
            .map(|m| {
                let bound = match m.better {
                    Better::Exact => Some(0.0),
                    _ => cat
                        .iter()
                        .find(|c| c.name == m.name)
                        .map_or(Some(DEFAULT_BOUND), |c| c.bound),
                };
                let v = serde_json::json!({
                    "scope": m.scope.as_str(),
                    "unit": m.unit,
                    "better": m.better.as_str(),
                    "bound": bound,
                    "median": m.stat.median,
                    "q1": m.stat.q1,
                    "q3": m.stat.q3,
                    "n": m.stat.n,
                    "note": m.note.as_str(),
                });
                (m.name.clone(), v)
            })
            .collect();
        serde_json::json!({
            "format": "mtvp-perf-record-v1",
            "workload": self.workload.as_str(),
            "traced": self.traced,
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "stamp": self.stamp.clone(),
            "metrics": Value::Map(metrics),
            "profile": self.profile.clone(),
        })
    }
}
