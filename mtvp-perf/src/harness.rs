//! What every workload shares: the run context, repeated set-up, the
//! timed pass loop, program preparation and the `PipeStats` counters.

use crate::counters::Counters;
use crate::golden::Checker;
use crate::report::{Better, Report};
use crate::spans::{profile, Tracer};
use crate::stats::Stat;
use mtvp_engine::{reference_trace, suite, PipeStats, Scale, Workload};
use mtvp_isa::trace::Trace;
use mtvp_isa::Program;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One workload run.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    /// Measured-phase budget.
    pub budget: Duration,
    /// Tiny scale, one benchmark, one pass.
    pub quick: bool,
    /// Record spans and report per-layer metrics.
    pub traced: bool,
    pub tracer: Tracer,
    pub checker: Checker,
    pub counters: Counters,
    /// This process's scratch directory (caches, checkpoints).
    pub work: PathBuf,
}

/// Host cost of one operation.
#[derive(Clone, Copy, Debug)]
pub struct Cost {
    /// Wall time, in ms.
    pub ms: f64,
    /// Instructions retired by every thread, in millions.
    pub minstr: f64,
    /// CPU cycles of every thread, in millions.
    pub mcycles: f64,
}

/// One measured pass.
#[derive(Clone, Copy, Debug)]
pub struct Pass {
    pub wall: Duration,
    /// Whether spans were recorded during it.
    pub traced: bool,
}

impl Ctx {
    /// A generator for one purpose (`stream`) of this run's seed.
    pub fn rng(&self, stream: u64) -> SmallRng {
        SmallRng::seed_from_u64(self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
    }

    /// Run `f` and measure what it cost the host.
    pub fn cost<R>(&self, f: impl FnOnce() -> R) -> (R, Cost) {
        let (c0, t0) = (self.counters.read(), Instant::now());
        let r = f();
        let (c1, wall) = (self.counters.read(), t0.elapsed());
        let cost = Cost {
            ms: ms(wall),
            minstr: (c1.instructions - c0.instructions) as f64 / 1e6,
            mcycles: (c1.cycles - c0.cycles) as f64 / 1e6,
        };
        (r, cost)
    }

    /// `normal`, or tiny scale in quick mode.
    pub fn scale(&self, normal: Scale) -> Scale {
        if self.quick {
            Scale::Tiny
        } else {
            normal
        }
    }

    /// The workload's benchmarks (only the first in quick mode).
    pub fn benches(&self, benches: &'static [&'static str]) -> &'static [&'static str] {
        if self.quick {
            &benches[..1]
        } else {
            benches
        }
    }

    /// Key of a cell in the golden digest table.
    pub fn key(&self, bench: &str, label: &str) -> String {
        format!("{}/{bench}/{label}", self.workload)
    }

    /// Run the (pure) set-up at least five times and for at least two
    /// seconds (once in quick mode) and keep the last result, so the
    /// median `setup_s` reports rests on many draws, not one: a set-up of
    /// 0.1 s is short enough for one stall of the host to move it by a
    /// third. Each earlier result is dropped before the next repeat starts
    /// its clock, so set-up never holds two copies at once.
    pub fn setup<T>(&self, mut f: impl FnMut() -> T) -> (T, Stat) {
        let start = Instant::now();
        let mut last = None;
        let mut walls = Vec::new();
        while walls.is_empty()
            || !self.quick && (walls.len() < 5 || start.elapsed() < Duration::from_secs(2))
        {
            drop(last.take());
            let t0 = Instant::now();
            let v = f();
            walls.push(t0.elapsed().as_secs_f64());
            last = Some(v);
        }
        (last.expect("at least one set-up"), Stat::of(&walls))
    }

    /// Run passes of `body` until `budget` has elapsed and at least `min`
    /// passes have run (one pass in quick mode). In a traced run odd
    /// passes record spans and even ones stay untraced, so the tracing
    /// overhead is measured inside one process. `body` gets the pass index
    /// and the pass's root span to parent its calls on.
    pub fn passes(
        &self,
        budget: Duration,
        min: usize,
        mut body: impl FnMut(usize, Option<u64>),
    ) -> Vec<Pass> {
        let start = Instant::now();
        let mut out = Vec::new();
        for i in 0.. {
            let traced = self.traced && (self.quick || i % 2 == 1);
            self.tracer.set_recording(traced);
            let id = self.tracer.new_id();
            let ((), wall) = self
                .tracer
                .timed("perf.pass", id, None, |root| body(i, root));
            self.tracer.set_recording(false);
            out.push(Pass { wall, traced });
            if self.quick || (start.elapsed() >= budget && out.len() >= min) {
                break;
            }
        }
        out
    }
}

/// Shuffle in place (Fisher-Yates).
pub fn shuffle<T>(xs: &mut [T], rng: &mut SmallRng) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.gen_range(0..=i));
    }
}

/// Tracing overhead of a traced run: median traced pass over median
/// untraced pass, in percent (`None` without both kinds).
pub fn overhead_pct(passes: &[Pass]) -> Option<f64> {
    let walls = |traced: bool| -> Vec<f64> {
        passes
            .iter()
            .filter(|p| p.traced == traced)
            .map(|p| p.wall.as_secs_f64())
            .collect()
    };
    let (on, off) = (walls(true), walls(false));
    (!on.is_empty() && !off.is_empty())
        .then(|| (Stat::of(&on).median / Stat::of(&off).median - 1.0) * 100.0)
}

/// A built program with its reference run, and what each cost.
pub struct Prepared {
    pub bench: &'static str,
    pub program: Program,
    pub dyn_instrs: u64,
    pub trace: Arc<Trace>,
    pub build: Duration,
    pub trace_time: Duration,
}

/// Build each benchmark at `scale` and pre-execute it functionally.
pub fn prepare(ctx: &Ctx, benches: &[&'static str], scale: Scale) -> Vec<Prepared> {
    benches
        .iter()
        .map(|&bench| {
            let wl = suite()
                .into_iter()
                .find(|w| w.name == bench)
                .unwrap_or_else(|| panic!("benchmark {bench} is not in the suite"));
            prepare_one(ctx, &wl, scale, ctx.tracer.new_id(), None)
        })
        .collect()
}

/// Build one benchmark and pre-execute it, as spans of `id` under
/// `parent`.
pub fn prepare_one(
    ctx: &Ctx,
    wl: &Workload,
    scale: Scale,
    id: u64,
    parent: Option<u64>,
) -> Prepared {
    let (program, build) = ctx
        .tracer
        .timed("workloads.build", id, parent, |_| wl.build(scale));
    let ((dyn_instrs, trace), trace_time) =
        ctx.tracer.timed("isa.reference_trace", id, parent, |_| {
            reference_trace(&program)
        });
    Prepared {
        bench: wl.name,
        program,
        dyn_instrs,
        trace,
        build,
        trace_time,
    }
}

/// Set-up layer metrics: program build, reference trace, interpreter speed.
pub fn put_prepare_metrics(report: &mut Report, progs: &[Prepared]) {
    let build: Vec<f64> = progs.iter().map(|p| ms(p.build)).collect();
    let trace: Vec<f64> = progs.iter().map(|p| ms(p.trace_time)).collect();
    let mips: Vec<f64> = progs
        .iter()
        .map(|p| p.dyn_instrs as f64 / p.trace_time.as_secs_f64().max(1e-9) / 1e6)
        .collect();
    report.put("workloads.build_ms", "ms", Better::Lower, Stat::of(&build));
    report.put("isa.trace_ms", "ms", Better::Lower, Stat::of(&trace));
    report.put("isa.interp_mips", "MIPS", Better::Higher, Stat::of(&mips));
}

/// Exact simulated counters, summed over the distinct cells a workload
/// ran (each cell once, not once per pass).
pub fn put_counts<'a>(report: &mut Report, cells: impl IntoIterator<Item = &'a PipeStats>) {
    let mut sum = PipeStats::default();
    for s in cells {
        sum.cycles += s.cycles;
        sum.idle_cycles += s.idle_cycles;
        sum.committed += s.committed;
        sum.discarded_spec_commits += s.discarded_spec_commits;
        sum.fetched += s.fetched;
        sum.issued += s.issued;
        sum.squashed += s.squashed;
        sum.peak_contexts = sum.peak_contexts.max(s.peak_contexts);
        sum.vp.mtvp_spawns += s.vp.mtvp_spawns;
        sum.vp.mtvp_correct += s.vp.mtvp_correct;
        sum.vp.reissued_uops += s.vp.reissued_uops;
        sum.vp.spawn_no_context += s.vp.spawn_no_context;
        sum.branches.cond_committed += s.branches.cond_committed;
        sum.branches.mispredicts += s.branches.mispredicts;
        for (acc, c) in [
            (&mut sum.caches.1, &s.caches.1),
            (&mut sum.caches.2, &s.caches.2),
            (&mut sum.caches.3, &s.caches.3),
        ] {
            acc.hits += c.hits;
            acc.misses += c.misses;
        }
        sum.cmp.shared_l3_misses += s.cmp.shared_l3_misses;
    }
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let l1d = sum.caches.1.hits + sum.caches.1.misses;
    for (name, unit, v) in [
        ("pipeline.cycles", "count", sum.cycles as f64),
        (
            "pipeline.idle_frac",
            "fraction",
            ratio(sum.idle_cycles, sum.cycles),
        ),
        ("pipeline.fetched", "count", sum.fetched as f64),
        ("pipeline.issued", "count", sum.issued as f64),
        ("pipeline.squashed", "count", sum.squashed as f64),
        (
            "pipeline.useful_frac",
            "fraction",
            ratio(sum.committed, sum.fetched),
        ),
        ("pipeline.peak_contexts", "count", sum.peak_contexts as f64),
        ("vp.spawns", "count", sum.vp.mtvp_spawns as f64),
        (
            "vp.spawn_useful_frac",
            "fraction",
            ratio(sum.vp.mtvp_correct, sum.vp.mtvp_spawns),
        ),
        ("vp.reissued_uops", "count", sum.vp.reissued_uops as f64),
        (
            "vp.spawn_no_context",
            "count",
            sum.vp.spawn_no_context as f64,
        ),
        (
            "vp.discarded_spec_commits",
            "count",
            sum.discarded_spec_commits as f64,
        ),
        (
            "branch.cond_committed",
            "count",
            sum.branches.cond_committed as f64,
        ),
        (
            "branch.mispredict_rate",
            "fraction",
            ratio(sum.branches.mispredicts, sum.branches.cond_committed),
        ),
        ("mem.l1d_accesses", "count", l1d as f64),
        ("mem.l1d_miss_rate", "fraction", sum.caches.1.miss_rate()),
        ("mem.l2_miss_rate", "fraction", sum.caches.2.miss_rate()),
        ("mem.l3_miss_rate", "fraction", sum.caches.3.miss_rate()),
        (
            "mem.shared_l3_misses",
            "count",
            sum.cmp.shared_l3_misses as f64,
        ),
    ] {
        report.put(name, unit, Better::Exact, Stat::exact(v));
    }
}

/// Peak resident set of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What every workload reports last: peak memory, the failure tally,
/// and in a traced run the span profile and the tracing overhead
/// (averaged over `phases`, each a list of alternating passes).
pub fn finish(ctx: &Ctx, report: &mut Report, phases: &[&[Pass]]) {
    // Single-threaded workloads repeat this to 0.1%; under two threads the
    // allocator's per-thread arenas move it by a third run to run, so it
    // is recorded and compared but is not a catalogued metric.
    report.put(
        "peak_rss_mb",
        "MB",
        Better::Lower,
        Stat::exact(peak_rss_mb()),
    );
    let (attempted, failed) = ctx.checker.counts();
    report.attempted = attempted;
    report.failed = failed;
    report.put(
        "failed_frac",
        "failed/attempted",
        Better::Exact,
        Stat::exact(failed as f64 / attempted.max(1) as f64),
    );
    if !ctx.traced {
        return;
    }
    let prof = profile(&ctx.tracer.spans());
    report.put(
        "trace.unattributed_frac",
        "fraction",
        Better::Lower,
        Stat::exact(1.0 - prof.coverage()),
    );
    let overheads: Vec<f64> = phases.iter().filter_map(|p| overhead_pct(p)).collect();
    if !overheads.is_empty() {
        let mean = overheads.iter().sum::<f64>() / overheads.len() as f64;
        report.put("trace.overhead_pct", "%", Better::Lower, Stat::exact(mean));
    }
    let total = (prof.rows.iter().map(|r| r.self_ns).sum::<u64>() + prof.unattributed_ns).max(1);
    let share = |ns: u64| 100.0 * ns as f64 / total as f64;
    let mut rows = Vec::new();
    for r in &prof.rows {
        println!(
            "{} layer {} calls {} self_ms {:.3} share {:.2}%",
            ctx.workload,
            r.name,
            r.calls,
            r.self_ns as f64 / 1e6,
            share(r.self_ns)
        );
        rows.push(serde_json::json!({
            "name": r.name,
            "calls": r.calls,
            "self_ms": r.self_ns as f64 / 1e6,
        }));
    }
    println!(
        "{} layer unattributed self_ms {:.3} share {:.2}% (spans cover {:.2}% of traced wall)",
        ctx.workload,
        prof.unattributed_ns as f64 / 1e6,
        share(prof.unattributed_ns),
        100.0 * prof.coverage()
    );
    report.profile = Some(serde_json::json!({
        "wall_ms": prof.wall_ns as f64 / 1e6,
        "unattributed_ms": prof.unattributed_ns as f64 / 1e6,
        "coverage": prof.coverage(),
        "layers": serde::Value::Seq(rows),
    }));
}
