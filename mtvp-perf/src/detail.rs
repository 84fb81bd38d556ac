//! `detail-mem` and `detail-core`: full-scale detailed cells, each run
//! through `run_with_trace_at` on reference traces built in set-up.

use crate::harness::{self, put_counts, put_prepare_metrics, shuffle, Cost, Ctx, Prepared};
use crate::report::{Better, Report};
use crate::stats::{geomean, Stat};
use mtvp_engine::{run_with_trace_at, CoreKind, Mode, PipeStats, Scale};
use mtvp_engine::{SimConfig, SpawnPolicyKind};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Memory-bound codes: mostly idle cycles, thousands of spawns per run.
const MEM_BENCHES: &[&str] = &["mcf", "vpr r", "twolf", "art 1"];
/// Compute-bound codes: few idle cycles, a handful of spawns.
const CORE_BENCHES: &[&str] = &["gzip g", "crafty", "mesa", "eon r", "lucas"];

fn mtvp(contexts: usize) -> SimConfig {
    let mut c = SimConfig::new(Mode::Mtvp);
    c.contexts = contexts;
    c
}

/// The configurations of `detail-mem` (`core == false`) or `detail-core`.
fn configs(core: bool) -> Vec<(String, SimConfig)> {
    let base = ("base".to_string(), SimConfig::new(Mode::Baseline));
    let mut cmp = mtvp(4);
    cmp.cores = 2;
    let mut v = if core {
        let mut inorder = SimConfig::new(Mode::Baseline);
        inorder.core = CoreKind::InOrderScalar;
        inorder.contexts = 1;
        // A fixed co-runner: synthetic programs of different seeds differ
        // in host cost by up to 10%, which would add to the run-to-run
        // spread if the run seed chose it.
        cmp.co_workloads = vec!["synth:1".to_string()];
        vec![
            base,
            ("mtvp4".to_string(), mtvp(4)),
            ("inorder".to_string(), inorder),
            ("cmp2-co".to_string(), cmp),
        ]
    } else {
        let mut hinted = mtvp(4);
        hinted.spawn_policy = SpawnPolicyKind::Static;
        cmp.cross_core_spawn = true;
        vec![
            base,
            ("mtvp4".to_string(), mtvp(4)),
            ("mtvp8".to_string(), mtvp(8)),
            ("mtvp4-static".to_string(), hinted),
            ("cmp2-xspawn".to_string(), cmp),
        ]
    };
    for (label, cfg) in &mut v {
        cfg.validate()
            .unwrap_or_else(|e| panic!("{label}: invalid configuration: {}", e.0));
    }
    v
}

pub fn run(ctx: &Ctx, core: bool) -> Report {
    let mut report = Report::new(&ctx.workload, ctx.traced);
    let scale = ctx.scale(Scale::Full);
    let benches = ctx.benches(if core { CORE_BENCHES } else { MEM_BENCHES });
    let configs = configs(core);
    // Set-up builds the programs and their reference traces, then warms
    // the simulator with one baseline cell. Without it, set-up is a 10 ms
    // burst of page faults whose cost flips between two allocator states
    // from run to run.
    let (progs, setup) = ctx.setup(|| {
        let progs = harness::prepare(ctx, benches, scale);
        let (label, cfg) = &configs[0];
        simulate(ctx, &progs[0], label, cfg, scale, None);
        progs
    });
    // (program, config) pairs, bench-major.
    let cells: Vec<(usize, usize)> = (0..progs.len())
        .flat_map(|p| (0..configs.len()).map(move |c| (p, c)))
        .collect();

    let mut rng = ctx.rng(0);
    let mut order: Vec<usize> = (0..cells.len()).collect();
    let mut last: Vec<Option<PipeStats>> = vec![None; cells.len()];
    // Per cell: its cost on every pass it completed.
    let mut costs: Vec<Vec<Cost>> = vec![Vec::new(); cells.len()];
    let passes = ctx.passes(ctx.budget, 5, |_, root| {
        shuffle(&mut order, &mut rng);
        for &ci in &order {
            let (p, c) = cells[ci];
            let (label, cfg) = &configs[c];
            if let Some((stats, cost)) = simulate(ctx, &progs[p], label, cfg, scale, root) {
                costs[ci].push(cost);
                last[ci] = Some(stats);
            }
        }
    });

    // The cells that completed, with what they simulate.
    let done: Vec<(usize, &PipeStats)> = last
        .iter()
        .enumerate()
        .filter_map(|(ci, s)| Some((ci, s.as_ref()?)))
        .collect();
    // Each cell's median across passes, and so on; then the geomean.
    let per_cell = |f: &dyn Fn(&PipeStats, &Cost) -> f64| -> Vec<Stat> {
        done.iter()
            .map(|&(ci, s)| Stat::of(&costs[ci].iter().map(|c| f(s, c)).collect::<Vec<_>>()))
            .collect()
    };
    let cell_ms = per_cell(&|_, c| c.ms);
    report.put("setup_s", "s", Better::Lower, setup);
    report.put(
        "op_minstr",
        "Minstr",
        Better::Lower,
        Stat::geomean(&per_cell(&|_, c| c.minstr)),
    );
    report.put(
        "op_mcycles",
        "Mcycles",
        Better::Lower,
        Stat::geomean(&per_cell(&|_, c| c.mcycles)),
    );
    report.put("op_ms", "ms", Better::Lower, Stat::geomean(&cell_ms));
    report.put(
        "sim_kcycles_per_s",
        "kcycles/s",
        Better::Higher,
        Stat::geomean(&per_cell(&|s, c| s.cycles as f64 / c.ms)),
    );
    report.put(
        "sim_mips",
        "MIPS",
        Better::Higher,
        Stat::geomean(&per_cell(&|s, c| s.committed as f64 / c.ms / 1e3)),
    );
    // The detailed model has no hardware reference: this speed-up is the
    // model's own, reported without an error figure.
    let ipc = |p: usize, label: &str| {
        let c = configs.iter().position(|(l, _)| l == label)?;
        let ci = cells.iter().position(|&x| x == (p, c))?;
        last[ci].as_ref().map(PipeStats::ipc)
    };
    let ratios: Vec<f64> = (0..progs.len())
        .filter_map(|p| Some(ipc(p, "mtvp4")? / ipc(p, "base")?))
        .collect();
    if !ratios.is_empty() {
        report.put_note(
            "mtvp_speedup_pct",
            "%",
            Better::Exact,
            Stat::exact((geomean(&ratios) - 1.0) * 100.0),
            "simulated, unvalidated (no hardware reference)".to_string(),
        );
    }
    put_counts(&mut report, done.iter().map(|&(_, s)| s));
    put_prepare_metrics(&mut report, &progs);
    // Host time of one pass's simulations, and per simulated event.
    let pass_ms = Stat::sum(&cell_ms);
    let total = |f: fn(&PipeStats) -> u64| done.iter().map(|&(_, s)| f(s)).sum::<u64>().max(1);
    report.put("engine.simulate_ms", "ms", Better::Lower, pass_ms);
    let per_cycle = pass_ms.scale(1e6 / total(|s| s.cycles) as f64);
    report.put("engine.ns_per_cycle", "ns", Better::Lower, per_cycle);
    let per_commit = pass_ms.scale(1e6 / total(|s| s.committed) as f64);
    report.put("engine.ns_per_commit", "ns", Better::Lower, per_commit);
    if ctx.traced {
        crate::replay::put_layer_probes(ctx, &mut report, &progs);
    }
    report.passes.push(("passes".to_string(), passes.len()));
    harness::finish(ctx, &mut report, &[&passes]);
    report
}

/// Simulate one cell and check its stats; `None` if it panicked.
fn simulate(
    ctx: &Ctx,
    prog: &Prepared,
    label: &str,
    cfg: &SimConfig,
    scale: Scale,
    root: Option<u64>,
) -> Option<(PipeStats, Cost)> {
    let key = ctx.key(prog.bench, label);
    ctx.checker.attempt();
    let id = ctx.tracer.new_id();
    let (run, cost) = ctx.cost(|| {
        catch_unwind(AssertUnwindSafe(|| {
            ctx.tracer.timed("engine.simulate", id, root, |_| {
                run_with_trace_at(
                    cfg,
                    &prog.program,
                    prog.dyn_instrs,
                    prog.trace.clone(),
                    scale,
                )
            })
        }))
    });
    let Ok((r, _)) = run else {
        ctx.checker.fail(&format!("{key}: simulation panicked"));
        return None;
    };
    ctx.tracer.timed("perf.check", id, root, |_| {
        ctx.checker.check(&key, &r.stats)
    });
    Some((r.stats, cost))
}
