//! `mtvp-perf compare A.json B.json`: one row per workload and metric
//! with both medians, both interquartile ranges, the ratio and a verdict.
//! Later performance changes cite these rows as their before/after.

use serde::Value;

/// The run a file holds: a `run --out` file is one; a baseline holds
/// several and the last is used.
fn last_set(doc: &Value) -> &Value {
    match doc["sets"].as_array() {
        Some(sets) => sets.last().expect("baseline holds at least one set"),
        None => doc,
    }
}

/// The two runs to compare: `A` and `B`, or a baseline's first and last.
pub fn sets<'a>(a: &'a Value, b: Option<&'a Value>) -> (&'a Value, &'a Value) {
    match b {
        Some(b) => (last_set(a), last_set(b)),
        None => {
            let sets = a["sets"]
                .as_array()
                .expect("one file compares a baseline's sets");
            (&sets[0], &sets[sets.len() - 1])
        }
    }
}

/// A metric's median and the spread of its samples.
struct Side {
    median: f64,
    iqr: f64,
}

fn side(m: &Value) -> Option<Side> {
    Some(Side {
        median: m["median"].as_f64()?,
        iqr: m["q3"].as_f64()? - m["q1"].as_f64()?,
    })
}

/// How B compares with A for one metric.
fn verdict(better: &str, bound: f64, a: &Side, b: &Side) -> &'static str {
    if better == "exact" {
        return if a.median == b.median {
            "identical"
        } else {
            "DIFFERENT"
        };
    }
    let rel = |s: &Side| {
        if s.median == 0.0 {
            0.0
        } else {
            (s.iqr / s.median).abs()
        }
    };
    if rel(a).max(rel(b)) > bound {
        return "unresolved";
    }
    // Positive `worse` means B is worse than A.
    let worse = match better {
        "lower" => b.median / a.median - 1.0,
        _ => a.median / b.median - 1.0,
    };
    if !worse.is_finite() {
        "unresolved"
    } else if worse > bound {
        "WORSE"
    } else if worse < -bound {
        "better"
    } else {
        "within bound"
    }
}

/// The comparison table, and whether no end-to-end metric is worse and
/// no exact one differs. Host-time figures outside `end_to_end` move
/// with the host's clock, so their verdicts inform but do not gate.
pub fn compare(a: &Value, b: &Value) -> (String, bool) {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut ok = true;
    let stamp = |s: &Value| {
        format!(
            "{} cpus, {}, rustc {}, rev {}, seed {}, load {}, clock {} GHz, counters: {}",
            s["nproc"],
            s["cpu_model"],
            s["rustc"],
            s["git_rev"],
            s["seed"],
            s["loadavg_start"],
            s["clock_ghz_start"],
            s["counters"]
        )
    };
    let _ = writeln!(out, "A: {}", stamp(&a["stamp"]));
    let _ = writeln!(out, "B: {}", stamp(&b["stamp"]));
    let _ = writeln!(
        out,
        "{:<12} {:<30} {:>14} {:>12} {:>14} {:>12} {:>8}  verdict",
        "workload", "metric", "A median", "A IQR", "B median", "B IQR", "B/A"
    );
    let Value::Map(workloads) = &a["workloads"] else {
        return ("A holds no workloads\n".to_string(), false);
    };
    for (w, rec_a) in workloads {
        let Value::Map(metrics) = &rec_a["metrics"] else {
            continue;
        };
        for (name, ma) in metrics {
            let scope = ma["scope"].as_str().unwrap_or("");
            let better = ma["better"].as_str().unwrap_or("");
            if scope == "per_layer" && better != "exact" {
                continue; // layer host times carry no bound
            }
            let mb = &b["workloads"][w.as_str()]["metrics"][name.as_str()];
            let (Some(sa), Some(sb)) = (side(ma), side(mb)) else {
                let _ = writeln!(out, "{w:<12} {name:<30} missing in B");
                ok = false;
                continue;
            };
            let bound = ma["bound"].as_f64().unwrap_or(0.0);
            let v = verdict(better, bound, &sa, &sb);
            if scope == "end_to_end" || better == "exact" {
                ok &= v != "WORSE" && v != "DIFFERENT";
            }
            let ratio = if sa.median == 0.0 {
                1.0
            } else {
                sb.median / sa.median
            };
            let _ = writeln!(
                out,
                "{w:<12} {name:<30} {:>14.6} {:>12.6} {:>14.6} {:>12.6} {ratio:>8.4}  {v}{}",
                sa.median,
                sa.iqr,
                sb.median,
                sb.iqr,
                match (better, scope) {
                    ("exact", _) => String::new(),
                    (_, "end_to_end") => format!(" ({better} is better, bound {bound})"),
                    _ => format!(" ({better} is better, bound {bound}; host time, informs only)"),
                }
            );
        }
    }
    (out, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, iqr: f64) -> Side {
        Side { median, iqr }
    }

    #[test]
    fn verdicts() {
        assert_eq!(
            verdict("lower", 0.1, &s(10.0, 0.1), &s(10.5, 0.1)),
            "within bound"
        );
        assert_eq!(verdict("lower", 0.1, &s(10.0, 0.1), &s(12.0, 0.1)), "WORSE");
        assert_eq!(
            verdict("higher", 0.1, &s(10.0, 0.1), &s(12.0, 0.1)),
            "better"
        );
        assert_eq!(verdict("higher", 0.1, &s(10.0, 0.1), &s(8.0, 0.1)), "WORSE");
        assert_eq!(
            verdict("lower", 0.1, &s(10.0, 2.0), &s(10.0, 0.1)),
            "unresolved"
        );
        assert_eq!(
            verdict("exact", 0.0, &s(3.0, 0.0), &s(3.0, 0.0)),
            "identical"
        );
        assert_eq!(
            verdict("exact", 0.0, &s(3.0, 0.0), &s(3.5, 0.0)),
            "DIFFERENT"
        );
    }
}
