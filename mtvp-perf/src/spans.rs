//! Spans recorded in memory around the benchmark's calls into each layer
//! of the simulator, plus the self-time profile built from them.
//!
//! A span is timed from outside: the benchmark wraps a public call
//! (`run_with_trace_at`, `Cache::store_cell`, an HTTP `/run`, ...) and
//! records its name, start, end and the span it was called under. Spans
//! of one cell or request share an `id`. Nothing inside the simulator is
//! instrumented, so a span's self time is the layer's cost as its
//! callers see it.

use serde::Value;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Shared by every span of one cell or request.
    pub id: u64,
    /// This span's own number.
    pub span: u64,
    /// The span it ran under (`None` for a root).
    pub parent: Option<u64>,
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Times calls, and records them as spans while recording is on.
pub struct Tracer {
    recording: AtomicBool,
    t0: Instant,
    next_span: AtomicU64,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            recording: AtomicBool::new(false),
            t0: Instant::now(),
            next_span: AtomicU64::new(1),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Turn span recording on or off (timing is always on).
    pub fn set_recording(&self, on: bool) {
        // Relaxed: the flag publishes no other data, and a call that
        // straddles the switch is recorded or not as its start saw it.
        self.recording.store(on, Ordering::Relaxed);
    }

    /// A fresh id for the spans of one cell or request.
    pub fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Run and time `f`; while recording, keep it as span `name` under
    /// `parent`. `f` gets the new span's number to parent its own calls
    /// on (`None` while not recording).
    pub fn timed<R>(
        &self,
        name: &'static str,
        id: u64,
        parent: Option<u64>,
        f: impl FnOnce(Option<u64>) -> R,
    ) -> (R, Duration) {
        let span = self
            .recording
            .load(Ordering::Relaxed)
            .then(|| self.next_span.fetch_add(1, Ordering::Relaxed));
        let start = Instant::now();
        let out = f(span);
        let end = Instant::now();
        if let Some(span) = span {
            let ns = |t: Instant| t.duration_since(self.t0).as_nanos() as u64;
            self.spans.lock().expect("span list lock").push(Span {
                id,
                span,
                parent,
                name,
                start_ns: ns(start),
                end_ns: ns(end),
            });
        }
        (out, end - start)
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock").clone()
    }
}

/// Self time of one layer, summed over its calls.
#[derive(Clone, Debug)]
pub struct LayerRow {
    pub name: &'static str,
    pub calls: usize,
    pub self_ns: u64,
}

/// Where a traced run's wall time went.
#[derive(Clone, Debug)]
pub struct Profile {
    /// Layers by descending self time.
    pub rows: Vec<LayerRow>,
    /// Summed duration of the root spans (one per traced pass or client).
    pub wall_ns: u64,
    /// Root time no child span covers: the benchmark's own glue.
    pub unattributed_ns: u64,
}

impl Profile {
    /// Share of the roots' wall time that child spans cover.
    pub fn coverage(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            1.0 - self.unattributed_ns as f64 / self.wall_ns as f64
        }
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`. Children on
/// two threads overlap each other, so their durations cannot simply be
/// summed.
pub fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, lo);
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time per layer: each span's duration minus the part of it its
/// children cover. Root spans are the benchmark's passes; their self time
/// is the unattributed remainder.
pub fn profile(spans: &[Span]) -> Profile {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let self_ns = |s: &Span| {
        let kids = children.get(&s.span).cloned().unwrap_or_default();
        (s.end_ns - s.start_ns) - covered(kids, s.start_ns, s.end_ns)
    };
    let mut rows: Vec<LayerRow> = Vec::new();
    let (mut wall_ns, mut unattributed_ns) = (0, 0);
    for s in spans {
        if s.parent.is_none() {
            wall_ns += s.end_ns - s.start_ns;
            unattributed_ns += self_ns(s);
            continue;
        }
        match rows.iter_mut().find(|r| r.name == s.name) {
            Some(r) => {
                r.calls += 1;
                r.self_ns += self_ns(s);
            }
            None => rows.push(LayerRow {
                name: s.name,
                calls: 1,
                self_ns: self_ns(s),
            }),
        }
    }
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
    Profile {
        rows,
        wall_ns,
        unattributed_ns,
    }
}

/// The span file body for one workload.
pub fn spans_json(workload: &str, spans: &[Span]) -> Value {
    let list = spans
        .iter()
        .map(|s| {
            serde_json::json!({
                "id": s.id,
                "span": s.span,
                "parent": s.parent,
                "name": s.name,
                "start_ns": s.start_ns,
                "end_ns": s.end_ns,
            })
        })
        .collect();
    serde_json::json!({ "workload": workload, "spans": Value::Seq(list) })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_overlapping_children() {
        assert_eq!(covered(vec![(0, 10), (5, 15), (20, 30)], 0, 25), 20);
        assert_eq!(covered(vec![(2, 4), (1, 3)], 0, 100), 3);
        assert_eq!(covered(Vec::new(), 0, 100), 0);
    }

    #[test]
    fn self_time_excludes_children_and_roots_are_unattributed() {
        let tracer = Tracer::new();
        tracer.set_recording(true);
        let id = tracer.new_id();
        tracer.timed("perf.pass", id, None, |root| {
            tracer.timed("a", id, root, |a| {
                tracer.timed("b", id, a, |_| std::thread::sleep(Duration::from_millis(2)));
            });
        });
        tracer.set_recording(false);
        tracer.timed("ignored", id, None, |_| ());
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        let p = profile(&spans);
        let b = p.rows.iter().find(|r| r.name == "b").unwrap();
        assert!(b.self_ns >= 2_000_000);
        let total: u64 = p.rows.iter().map(|r| r.self_ns).sum::<u64>() + p.unattributed_ns;
        assert_eq!(total, p.wall_ns);
    }
}
