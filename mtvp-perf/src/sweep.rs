//! `sweep`: the `exp run` path the figures use — `fig3` at small scale
//! through `Engine::run_scenario` with two jobs, first into fresh cache
//! directories (cold), then into a cache warmed in set-up.

use crate::harness::{self, dir_bytes, ms, prepare_one, put_counts, put_prepare_metrics};
use crate::harness::{Cost, Ctx, Prepared};
use crate::report::{Better, Report};
use crate::stats::Stat;
use mtvp_engine::{builtin, cell_descriptor, key_of, run_with_trace_at, suite};
use mtvp_engine::{trace_descriptor, Cache, CacheMode, Engine, EngineOptions, Scale, Scenario};
use mtvp_engine::{PipeStats, Scheduler, Sweep};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Engine worker threads: the load holds to at most two.
const JOBS: usize = 2;
/// Engine worker threads of the `exp run` that fills a cache in set-up.
/// On a 2-CPU host a two-thread `exp run` slows by a third whenever
/// anything else wants a CPU, and a one-thread run by a few percent, so
/// `setup_s` is measured on one thread.
pub const SETUP_JOBS: usize = 1;

/// A scratch directory removed when dropped.
pub struct TempDir(pub PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `fig3` (one benchmark in quick mode).
pub fn scenario(ctx: &Ctx) -> Scenario {
    let mut s = builtin("fig3").expect("fig3 is a built-in scenario");
    if ctx.quick {
        s.benches = vec!["gzip g".to_string()];
    }
    s
}

/// A fresh, empty scratch directory under the run's work directory.
pub fn fresh_dir(ctx: &Ctx, name: &str) -> TempDir {
    let dir = ctx.work.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    TempDir(dir)
}

/// The cells of `scenario`: `(bench, label, config)`.
pub fn cells(scenario: &Scenario) -> Vec<(&'static str, String, mtvp_engine::SimConfig)> {
    let configs = scenario.configs().expect("built-in scenario expands");
    suite()
        .into_iter()
        .filter(|w| scenario.keeps(w))
        .flat_map(|w| {
            configs
                .iter()
                .map(move |(l, c)| (w.name, l.clone(), c.clone()))
        })
        .collect()
}

/// One `exp run` on `jobs` threads: the scenario into the cache at `dir`,
/// then the sweep serialized. Every cell is checked. Returns the run's
/// cells, its cache hits, the cost of the two calls together and the time
/// of the second.
pub fn exp_run(
    ctx: &Ctx,
    scenario: &Scenario,
    scale: Scale,
    dir: &Path,
    jobs: usize,
    root: Option<u64>,
) -> Option<(Sweep, usize, Cost, Duration)> {
    let engine = Engine::new(EngineOptions {
        cache: CacheMode::Disk(dir.to_path_buf()),
        jobs: Some(jobs),
        shard: None,
        progress: false,
    });
    let id = ctx.tracer.new_id();
    ctx.checker.attempt();
    let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<_, String> {
        let (res, cost) = ctx.cost(|| -> Result<_, String> {
            let (report, _) = ctx.tracer.timed("engine.run_scenario", id, root, |_| {
                engine.run_scenario(scenario, Some(scale))
            });
            let report = report.map_err(|e| e.0)?;
            let (json, json_t) = ctx
                .tracer
                .timed("engine.sweep_to_json", id, root, |_| report.sweep.to_json());
            json.map_err(|e| e.0)?;
            Ok((report, json_t))
        });
        let (report, json_t) = res?;
        Ok((report, cost, json_t))
    }));
    let (report, cost, json_t) = match outcome {
        Ok(Ok(x)) => x,
        Ok(Err(e)) => {
            ctx.checker
                .fail(&format!("{}: exp run: {e}", scenario.name));
            return None;
        }
        Err(_) => {
            ctx.checker
                .fail(&format!("{}: exp run panicked", scenario.name));
            return None;
        }
    };
    let expected = cells(scenario).len();
    if report.sweep.cells.len() != expected {
        ctx.checker.fail(&format!(
            "{}: {} of {expected} cells",
            scenario.name,
            report.sweep.cells.len()
        ));
        return None;
    }
    ctx.tracer.timed("perf.check", id, root, |_| {
        for c in &report.sweep.cells {
            ctx.checker.check(&ctx.key(&c.bench, &c.config), &c.stats);
        }
    });
    Some((report.sweep, report.cache_hits, cost, json_t))
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::new(&ctx.workload, ctx.traced);
    let scale = ctx.scale(Scale::Small);
    let scenario = scenario(ctx);
    let n_cells = cells(&scenario).len() as f64;
    // Set-up fills the cache the warm passes read.
    let mut repeat = 0;
    let (warm_dir, setup) = ctx.setup(|| {
        repeat += 1;
        let dir = fresh_dir(ctx, &format!("setup-{repeat}"));
        exp_run(ctx, &scenario, scale, &dir.0, SETUP_JOBS, None);
        dir
    });

    let start = Instant::now();
    let (mut cold, mut bytes, mut json) = (Vec::new(), Vec::new(), Vec::new());
    let mut last: Option<Sweep> = None;
    let cold_passes = ctx.passes(ctx.budget.mul_f64(0.6), 6, |i, root| {
        let dir = fresh_dir(ctx, &format!("cold-{i}"));
        if let Some((sweep, _, cost, json_t)) = exp_run(ctx, &scenario, scale, &dir.0, JOBS, root) {
            cold.push(cost);
            json.push(ms(json_t));
            bytes.push(dir_bytes(&dir.0) as f64);
            last = Some(sweep);
        }
    });
    let mut warm = Vec::new();
    let warm_budget = ctx.budget.saturating_sub(start.elapsed());
    let warm_passes = ctx.passes(warm_budget, 100, |_, root| {
        if let Some((_, hits, cost, json_t)) =
            exp_run(ctx, &scenario, scale, &warm_dir.0, JOBS, root)
        {
            if hits as f64 != n_cells {
                ctx.checker
                    .fail(&format!("warm pass hit {hits} of {n_cells} cells"));
            }
            warm.push(cost);
            json.push(ms(json_t));
        }
    });

    report.put("setup_s", "s", Better::Lower, setup);
    // Per delivered cell: the geomean of a cold and a warm `exp run`.
    let of =
        |passes: &[Cost], f: fn(&Cost) -> f64| Stat::of(&passes.iter().map(f).collect::<Vec<_>>());
    let per_cell =
        |f: fn(&Cost) -> f64| Stat::geomean(&[of(&cold, f), of(&warm, f)]).scale(1.0 / n_cells);
    report.put("op_minstr", "Minstr", Better::Lower, per_cell(|c| c.minstr));
    report.put(
        "op_mcycles",
        "Mcycles",
        Better::Lower,
        per_cell(|c| c.mcycles),
    );
    report.put("op_ms", "ms", Better::Lower, per_cell(|c| c.ms));
    let rate = |passes: &[Cost]| of(passes, |c| 1e3 / c.ms).scale(n_cells);
    report.put(
        "sweep_cold_cells_per_s",
        "cells/s",
        Better::Higher,
        rate(&cold),
    );
    report.put(
        "sweep_warm_cells_per_s",
        "cells/s",
        Better::Higher,
        rate(&warm),
    );
    report.put("engine.json_ms", "ms", Better::Lower, Stat::of(&json));
    report.put(
        "engine.cache.bytes_written",
        "bytes",
        Better::Lower,
        Stat::of(&bytes),
    );
    if let Some(sweep) = &last {
        put_counts(&mut report, sweep.cells.iter().map(|c| &c.stats));
    }
    if ctx.traced {
        let d = decompose(ctx, &scenario, scale, &warm_dir.0);
        d.put(ctx, &mut report);
        let cold_wall = of(&cold, |c| c.ms).median * 1e6;
        report.put(
            "engine.sweep_unattributed_frac",
            "fraction",
            Better::Lower,
            Stat::exact(1.0 - d.cold_path_ns / (JOBS as f64 * cold_wall)),
        );
    }
    report
        .passes
        .push(("cold_passes".to_string(), cold_passes.len()));
    report
        .passes
        .push(("warm_passes".to_string(), warm_passes.len()));
    harness::finish(ctx, &mut report, &[&cold_passes, &warm_passes]);
    report
}

/// A cold `exp run` taken apart: the programs it builds and traces, and
/// the time of each cache and simulation call it makes.
pub struct Decomposed {
    progs: Vec<Prepared>,
    store_trace: Vec<f64>,
    load_trace: Vec<f64>,
    simulate: Vec<f64>,
    store_cell: Vec<f64>,
    load_cell: Vec<f64>,
    /// Simulated cycles and commits of the cells simulated.
    cycles: u64,
    committed: u64,
    /// Summed time of the calls a cold pass makes (everything but the
    /// loads), in ns.
    pub cold_path_ns: f64,
}

impl Decomposed {
    /// Report every layer measured, plus the layer probes on the programs.
    pub fn put(&self, ctx: &Ctx, report: &mut Report) {
        put_prepare_metrics(report, &self.progs);
        for (name, xs) in [
            ("engine.cache.store_trace_ms", &self.store_trace),
            ("engine.cache.load_trace_ms", &self.load_trace),
            ("engine.cache.store_cell_ms", &self.store_cell),
            ("engine.cache.load_cell_ms", &self.load_cell),
        ] {
            if !xs.is_empty() {
                report.put(name, "ms", Better::Lower, Stat::of(xs));
            }
        }
        if !self.simulate.is_empty() {
            let total: f64 = self.simulate.iter().sum();
            report.put(
                "engine.simulate_ms",
                "ms",
                Better::Lower,
                Stat::exact(total),
            );
            let per = |n: u64| Stat::exact(total * 1e6 / n.max(1) as f64);
            report.put("engine.ns_per_cycle", "ns", Better::Lower, per(self.cycles));
            report.put(
                "engine.ns_per_commit",
                "ns",
                Better::Lower,
                per(self.committed),
            );
        }
        crate::replay::put_layer_probes(ctx, report, &self.progs);
    }
}

/// Take a cold `exp run` apart: program build, reference trace and trace
/// store per benchmark, then simulation and cell store per cell, each
/// timed on the engine's own scheduler with two threads; plus a trace load
/// per benchmark and a cell load per cell from the warm cache at `warm`.
pub fn decompose(ctx: &Ctx, scenario: &Scenario, scale: Scale, warm: &Path) -> Decomposed {
    ctx.tracer.set_recording(true);
    let out = fresh_dir(ctx, "decomposed");
    let (to, from) = (Cache::new(&out.0), Cache::new(warm));
    let benches: Vec<_> = suite().into_iter().filter(|w| scenario.keeps(w)).collect();
    let cells = cells(scenario);
    let pool = Scheduler::with_jobs_cap(Some(JOBS));
    let root_id = ctx.tracer.new_id();
    let (d, _) = ctx.tracer.timed("perf.decomposed", root_id, None, |root| {
        let prepared = pool.run(
            &benches,
            |_| 1,
            |wl| {
                let id = ctx.tracer.new_id();
                let p = prepare_one(ctx, wl, scale, id, root);
                let desc = trace_descriptor(wl.name, scale);
                let (res, store) = ctx.tracer.timed("engine.cache.store_trace", id, root, |_| {
                    to.store_trace(&key_of(&desc), &desc, p.dyn_instrs, &p.trace)
                });
                if let Err(e) = res {
                    ctx.checker.fail(&format!("{}: trace store: {e}", wl.name));
                }
                let (loaded, load) = ctx.tracer.timed("engine.cache.load_trace", id, root, |_| {
                    from.load_trace(&key_of(&desc), &desc)
                });
                if loaded.map(|(n, _)| n) != Some(p.dyn_instrs) {
                    ctx.checker
                        .fail(&format!("{}: trace missing from the warm cache", wl.name));
                }
                (p, store, load)
            },
            |_, _| {},
        );
        let timed = pool.run(
            &cells,
            |_| 1,
            |(bench, label, cfg)| {
                let (p, _, _) = prepared.iter().find(|(p, _, _)| p.bench == *bench)?;
                let key = ctx.key(bench, label);
                let id = ctx.tracer.new_id();
                ctx.checker.attempt();
                let (stats, sim): (PipeStats, _) =
                    ctx.tracer.timed("engine.simulate", id, root, |_| {
                        run_with_trace_at(cfg, &p.program, p.dyn_instrs, p.trace.clone(), scale)
                            .stats
                    });
                ctx.tracer
                    .timed("perf.check", id, root, |_| ctx.checker.check(&key, &stats));
                let desc = cell_descriptor(bench, cfg, scale);
                let job = key_of(&desc);
                let (entry, load) = ctx.tracer.timed("engine.cache.load_cell", id, root, |_| {
                    from.load_cell(&job, &desc)
                });
                let Some(entry) = entry else {
                    ctx.checker.fail(&format!("{key}: not in the warm cache"));
                    return None;
                };
                let (res, store) = ctx.tracer.timed("engine.cache.store_cell", id, root, |_| {
                    to.store_cell(&job, &entry)
                });
                if let Err(e) = res {
                    ctx.checker.fail(&format!("{key}: cell store: {e}"));
                }
                Some((stats.cycles, stats.committed, [sim, load, store]))
            },
            |_, _| {},
        );
        let mut d = Decomposed {
            progs: Vec::new(),
            store_trace: Vec::new(),
            load_trace: Vec::new(),
            simulate: Vec::new(),
            store_cell: Vec::new(),
            load_cell: Vec::new(),
            cycles: 0,
            committed: 0,
            cold_path_ns: 0.0,
        };
        for (p, store, load) in prepared {
            d.store_trace.push(ms(store));
            d.load_trace.push(ms(load));
            d.cold_path_ns += (p.build + p.trace_time + store).as_nanos() as f64;
            d.progs.push(p);
        }
        for (cycles, committed, [sim, load, store]) in timed.into_iter().flatten() {
            d.simulate.push(ms(sim));
            d.load_cell.push(ms(load));
            d.store_cell.push(ms(store));
            d.cycles += cycles;
            d.committed += committed;
            d.cold_path_ns += (sim + store).as_nanos() as f64;
        }
        d
    });
    ctx.tracer.set_recording(false);
    d
}
