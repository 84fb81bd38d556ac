//! `sampled`: two-tier sampled runs of full-scale programs. Each pass is
//! a pair: a cold sweep over a fresh checkpoint directory, which builds
//! and stores every checkpoint, then a warm sweep that restores them all.

use crate::harness::{self, ms, put_counts, put_prepare_metrics, shuffle, Cost, Ctx, Prepared};
use crate::report::{Better, Report};
use crate::stats::Stat;
use mtvp_engine::{ipc_error, key_of, run_sampled, run_with_trace_at, Cache, CkptStore};
use mtvp_engine::{Mode, SamplingParams, Scale, SimConfig};
use std::io::BufRead;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

/// Two pointer chasers (bound by the interpreter's fast-forward), two
/// compute-bound codes and the benchmark whose estimate is least accurate.
const BENCHES: &[&str] = &["mcf", "vpr r", "gzip g", "mesa", "equake"];

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::new(&ctx.workload, ctx.traced);
    let scale = ctx.scale(Scale::Full);
    let (progs, setup) = ctx.setup(|| harness::prepare(ctx, ctx.benches(BENCHES), scale));
    let mut cfg = SimConfig::new(Mode::Mtvp);
    cfg.contexts = 4;
    let full_cfg = cfg.clone();
    cfg.sampling = Some(if ctx.quick {
        SamplingParams {
            window: 200,
            interval: 1_000,
            warmup: 200,
        }
    } else {
        SamplingParams {
            window: 1_000,
            interval: 16_000,
            warmup: 2_000,
        }
    });
    cfg.validate().expect("sampling schedule is valid");

    let mut rng = ctx.rng(0);
    let mut order: Vec<usize> = (0..progs.len()).collect();
    // Per bench, its runs' costs across pairs: [cold, warm].
    let mut costs: [Vec<Vec<Cost>>; 2] =
        [vec![Vec::new(); progs.len()], vec![Vec::new(); progs.len()]];
    let mut estimates = vec![None; progs.len()];
    let (mut hits, mut misses) = (Vec::new(), Vec::new());
    let (mut windows, mut measured) = (0u64, 0u64);
    let mut last_dir = None;
    let passes = ctx.passes(ctx.budget, 5, |i, root| {
        let dir = ctx.work.join(format!("ckpt-{i}"));
        let cache = Cache::new(&dir);
        let (mut pair_hits, mut pair_misses) = (0, 0);
        for warm in [false, true] {
            shuffle(&mut order, &mut rng);
            for &pi in &order {
                let p = &progs[pi];
                let key = ctx.key(p.bench, "mtvp4");
                ctx.checker.attempt();
                let id = ctx.tracer.new_id();
                let store = CkptStore {
                    cache: &cache,
                    bench: p.bench,
                    scale,
                };
                let (run, cost) = ctx.cost(|| {
                    catch_unwind(AssertUnwindSafe(|| {
                        ctx.tracer.timed("engine.run_sampled", id, root, |_| {
                            run_sampled(&cfg, &p.program, p.dyn_instrs, &p.trace, Some(store))
                        })
                    }))
                });
                let Ok((run, _)) = run else {
                    ctx.checker.fail(&format!("{key}: sampled run panicked"));
                    continue;
                };
                let mode = if warm { "warm" } else { "cold" };
                let (ok, _) = ctx.tracer.timed("perf.check", id, root, |_| {
                    let digest_ok = ctx.checker.check(&key, &run.stats);
                    let ckpt_ok = if warm {
                        run.ckpt_misses == 0
                    } else {
                        run.ckpt_hits == 0
                    };
                    // Checkpoints replace interpretation, never change it.
                    let same = !warm || estimates[pi].as_ref() == Some(&run.stats);
                    if !ckpt_ok || !same {
                        ctx.checker.fail(&format!(
                            "{key}: {mode} run has {} checkpoint hits, {} misses, \
                             stats equal to the cold run: {same}",
                            run.ckpt_hits, run.ckpt_misses
                        ));
                    }
                    digest_ok && ckpt_ok && same
                });
                if !ok {
                    continue;
                }
                costs[usize::from(warm)][pi].push(cost);
                if warm {
                    pair_hits += run.ckpt_hits;
                    if i == 0 {
                        windows += run.meta.windows;
                        measured += run.meta.measured_instrs;
                    }
                } else {
                    pair_misses += run.ckpt_misses;
                    estimates[pi] = Some(run.stats);
                }
            }
        }
        hits.push(pair_hits as f64);
        misses.push(pair_misses as f64);
        if let Some(old) = last_dir.replace(dir) {
            let _ = std::fs::remove_dir_all(old);
        }
    });

    report.put("setup_s", "s", Better::Lower, setup);
    // Each run's median across pairs, and so on: every bench's cold runs,
    // then its warm runs.
    let per_run = |warm: bool, f: &dyn Fn(usize, &Cost) -> f64| -> Vec<Stat> {
        costs[usize::from(warm)]
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.is_empty())
            .map(|(pi, c)| Stat::of(&c.iter().map(|c| f(pi, c)).collect::<Vec<_>>()))
            .collect()
    };
    let both = |f: &dyn Fn(usize, &Cost) -> f64| [per_run(false, f), per_run(true, f)].concat();
    report.put(
        "op_minstr",
        "Minstr",
        Better::Lower,
        Stat::geomean(&both(&|_, c| c.minstr)),
    );
    report.put(
        "op_mcycles",
        "Mcycles",
        Better::Lower,
        Stat::geomean(&both(&|_, c| c.mcycles)),
    );
    let op_ms = both(&|_, c| c.ms);
    report.put("op_ms", "ms", Better::Lower, Stat::geomean(&op_ms));
    // Represented MIPS: the whole program's instructions over the wall
    // time of the sampled run that estimated it.
    let mips = |pi: usize, c: &Cost| progs[pi].dyn_instrs as f64 / c.ms / 1e3;
    report.put(
        "sampled_cold_mips",
        "MIPS",
        Better::Higher,
        Stat::geomean(&per_run(false, &mips)),
    );
    report.put(
        "sampled_warm_mips",
        "MIPS",
        Better::Higher,
        Stat::geomean(&per_run(true, &mips)),
    );
    report.put("engine.simulate_ms", "ms", Better::Lower, Stat::sum(&op_ms));
    put_error(ctx, &mut report, &progs, &full_cfg, &estimates, scale);
    put_counts(&mut report, estimates.iter().flatten());
    put_prepare_metrics(&mut report, &progs);
    let total: u64 = progs.iter().map(|p| p.dyn_instrs).sum();
    report.put(
        "engine.sampling.windows",
        "count",
        Better::Exact,
        Stat::exact(windows as f64),
    );
    report.put(
        "engine.sampling.detailed_frac",
        "fraction",
        Better::Exact,
        Stat::exact(measured as f64 / total.max(1) as f64),
    );
    report.put(
        "engine.sampling.ckpt_hits",
        "count",
        Better::Exact,
        Stat::of(&hits),
    );
    report.put(
        "engine.sampling.ckpt_misses",
        "count",
        Better::Exact,
        Stat::of(&misses),
    );
    if ctx.traced {
        if let Some(dir) = &last_dir {
            ckpt_io(ctx, &mut report, dir);
        }
        crate::replay::put_layer_probes(ctx, &mut report, &progs);
    }
    report.passes.push(("pairs".to_string(), passes.len()));
    harness::finish(ctx, &mut report, &[&passes]);
    report
}

/// The sampled estimate's worst IPC error against full detailed runs of
/// the same programs, and the detailed simulator's host cost per cycle
/// and per commit on them.
fn put_error(
    ctx: &Ctx,
    report: &mut Report,
    progs: &[Prepared],
    full_cfg: &SimConfig,
    estimates: &[Option<mtvp_engine::PipeStats>],
    scale: Scale,
) {
    let mut worst = 0.0f64;
    let (mut wall, mut cycles, mut commits) = (Duration::ZERO, 0u64, 0u64);
    for (p, est) in progs.iter().zip(estimates) {
        let Some(est) = est else { continue };
        let t0 = Instant::now();
        let full = catch_unwind(AssertUnwindSafe(|| {
            run_with_trace_at(full_cfg, &p.program, p.dyn_instrs, p.trace.clone(), scale)
        }));
        wall += t0.elapsed();
        match full {
            Ok(full) => {
                worst = worst.max(ipc_error(&full.stats, est));
                cycles += full.stats.cycles;
                commits += full.stats.committed;
            }
            Err(_) => ctx
                .checker
                .fail(&format!("{}: detailed reference run panicked", p.bench)),
        }
    }
    report.put_note(
        "sampled_ipc_err_pct",
        "%",
        Better::Exact,
        Stat::exact(worst * 100.0),
        "max over benches, vs the detailed model (itself unvalidated)".to_string(),
    );
    let per = |n: u64| Stat::exact(wall.as_nanos() as f64 / n.max(1) as f64);
    report.put("engine.ns_per_cycle", "ns", Better::Lower, per(cycles));
    report.put("engine.ns_per_commit", "ns", Better::Lower, per(commits));
}

/// Checkpoint I/O timed call by call: every checkpoint the last cold run
/// stored is loaded back, then stored into a fresh directory.
fn ckpt_io(ctx: &Ctx, report: &mut Report, dir: &Path) {
    ctx.tracer.set_recording(true);
    let from = Cache::new(dir);
    let to = Cache::new(ctx.work.join("ckpt-restore"));
    let (mut loads, mut stores) = (Vec::new(), Vec::new());
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map(|d| d.flatten().map(|e| e.path()).collect())
        .unwrap_or_default();
    files.retain(|p| p.extension().is_some_and(|e| e == "ckpt"));
    files.sort();
    let id = ctx.tracer.new_id();
    ctx.tracer.timed("perf.ckpt_io", id, None, |root| {
        for path in &files {
            // The descriptor is the file's second line; the key is its hash.
            let descriptor = std::fs::File::open(path)
                .ok()
                .and_then(|f| std::io::BufReader::new(f).lines().nth(1)?.ok());
            let Some(descriptor) = descriptor else {
                ctx.checker
                    .fail(&format!("{}: unreadable checkpoint", path.display()));
                continue;
            };
            let key = key_of(&descriptor);
            let (ckpt, d) = ctx.tracer.timed("engine.cache.load_ckpt", id, root, |_| {
                from.load_ckpt(&key, &descriptor)
            });
            let Some(ckpt) = ckpt else {
                ctx.checker
                    .fail(&format!("{descriptor}: checkpoint does not load"));
                continue;
            };
            loads.push(ms(d));
            let (res, d) = ctx.tracer.timed("engine.cache.store_ckpt", id, root, |_| {
                to.store_ckpt(&key, &descriptor, &ckpt)
            });
            match res {
                Ok(()) => stores.push(ms(d)),
                Err(e) => ctx
                    .checker
                    .fail(&format!("{descriptor}: checkpoint store: {e}")),
            }
        }
    });
    ctx.tracer.set_recording(false);
    if !loads.is_empty() {
        report.put(
            "engine.cache.load_ckpt_ms",
            "ms",
            Better::Lower,
            Stat::of(&loads),
        );
    }
    if !stores.is_empty() {
        report.put(
            "engine.cache.store_ckpt_ms",
            "ms",
            Better::Lower,
            Stat::of(&stores),
        );
    }
}
