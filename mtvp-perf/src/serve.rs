//! `serve`: an in-process `mtvp-serve` server with two workers whose cache
//! set-up warms with `fig3`'s cells, under a closed loop of two clients
//! posting those cells to `/run` with no think time.

use crate::counters::Reading;
use crate::harness::{self, dir_bytes, ms, put_counts, shuffle, Ctx};
use crate::report::{Better, Report};
use crate::stats::{percentile, tail_percentile, Stat};
use crate::sweep::{cells, decompose, exp_run, fresh_dir, scenario, TempDir, SETUP_JOBS};
use mtvp_engine::key::scale_tag;
use mtvp_engine::{cell_descriptor, key_of, Cache, CacheMode, Engine, EngineOptions, PipeStats};
use mtvp_engine::{Registry, Scale};
use mtvp_serve::loadgen::http_request;
use mtvp_serve::{DrainReport, ServeOptions, Server, ServerHandle};
use serde::{Deserialize, Serialize, Value};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Closed-loop clients (one connection each at a time).
const CLIENTS: usize = 2;
/// Requests per client in quick mode.
const QUICK_REQUESTS: usize = 25;

/// A server running on its own thread; dropping it drains and joins it.
struct Running {
    addr: String,
    handle: ServerHandle,
    thread: Option<JoinHandle<std::io::Result<DrainReport>>>,
    dir: TempDir,
}

impl Drop for Running {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// One completed request: when it ended (since the load began) and how
/// long it took.
#[derive(Clone, Copy)]
struct Sample {
    end_s: f64,
    latency_ms: f64,
}

/// Host counts and completed requests at one moment of the load.
#[derive(Clone, Copy)]
struct Mark {
    /// Since the load began.
    t_s: f64,
    counts: Reading,
    done: u64,
}

/// The requests and marks of one load phase.
struct Phase {
    samples: Vec<Sample>,
    marks: Vec<Mark>,
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::new(&ctx.workload, ctx.traced);
    let scale = ctx.scale(Scale::Small);
    let scenario = scenario(ctx);
    let cells = cells(&scenario);
    let mut repeat = 0;
    let (server, setup) = ctx.setup(|| {
        repeat += 1;
        let dir = fresh_dir(ctx, &format!("serve-{repeat}"));
        let server = Server::bind(ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            cache: CacheMode::Disk(dir.0.clone()),
            ..ServeOptions::default()
        })
        .expect("bind a loopback port");
        let addr = server.local_addr().expect("bound address").to_string();
        let handle = server.handle();
        let thread = Some(std::thread::spawn(move || server.run()));
        exp_run(ctx, &scenario, scale, &dir.0, SETUP_JOBS, None);
        Running {
            addr,
            handle,
            thread,
            dir,
        }
    });

    let written = dir_bytes(&server.dir.0) as f64;
    // What each cell's response must carry, from the engine directly.
    let engine = Engine::new(EngineOptions {
        cache: CacheMode::Disk(server.dir.0.clone()),
        jobs: Some(1),
        shard: None,
        progress: false,
    });
    let cache = Cache::new(&server.dir.0);
    let (mut direct, mut loads) = (Vec::new(), Vec::new());
    let mut expected: Vec<Option<PipeStats>> = Vec::with_capacity(cells.len());
    for (bench, _, cfg) in &cells {
        let t0 = Instant::now();
        let entry = engine.run_cell(bench, cfg, scale).ok().map(|(e, _)| e);
        direct.push(ms(t0.elapsed()));
        let desc = cell_descriptor(bench, cfg, scale);
        let t0 = Instant::now();
        let loaded = cache.load_cell(&key_of(&desc), &desc);
        loads.push(ms(t0.elapsed()));
        if loaded.is_none() {
            ctx.checker
                .fail(&format!("{bench}: cell missing from the warmed cache"));
        }
        expected.push(entry.map(|e| e.stats));
    }
    let bodies: Vec<String> = cells
        .iter()
        .map(|(bench, _, cfg)| {
            serde_json::json!({ "bench": *bench, "scale": scale_tag(scale), "config": cfg.to_value() })
                .to_string()
        })
        .collect();

    // Closed loop. A traced run measures its first half untraced and its
    // second half traced, so the tracing overhead is the difference.
    let load = Load {
        ctx,
        addr: &server.addr,
        cells: &cells,
        bodies: &bodies,
        expected: &expected,
        checked: cells.iter().map(|_| AtomicBool::new(false)).collect(),
        done: AtomicU64::new(0),
        t0: Instant::now(),
    };
    let phases = if ctx.quick {
        vec![load.phase(Duration::ZERO, ctx.traced, 0)]
    } else if ctx.traced {
        let half = ctx.budget / 2;
        vec![load.phase(half, false, 0), load.phase(half, true, 1)]
    } else {
        vec![load.phase(ctx.budget, false, 0)]
    };
    let wall = load.t0.elapsed().as_secs_f64();
    let samples: Vec<Sample> = phases.iter().flat_map(|p| p.samples.clone()).collect();

    let metrics = http_request(&server.addr, "GET", "/metrics", None, 10_000)
        .ok()
        .and_then(|(_, body)| serde_json::from_str::<Value>(&body).ok());
    drop(server);

    report.put("setup_s", "s", Better::Lower, setup);
    if samples.is_empty() {
        ctx.checker.fail("no request completed");
    } else {
        put_windows(&mut report, &phases);
        put_latency(&mut report, &samples, wall);
        let lat: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
        let direct_p50 = Stat::of(&direct).median;
        report.put("serve.run_cell_ms", "ms", Better::Lower, Stat::of(&direct));
        report.put(
            "serve.overhead_ms",
            "ms",
            Better::Lower,
            Stat::exact(percentile(&lat, 50.0) - direct_p50),
        );
    }
    report.put(
        "engine.cache.load_cell_ms",
        "ms",
        Better::Lower,
        Stat::of(&loads),
    );
    report.put(
        "engine.cache.bytes_written",
        "bytes",
        Better::Lower,
        Stat::exact(written),
    );
    if let Some(m) = &metrics {
        let highwater = m["queue"]["highwater"].as_f64().unwrap_or(0.0);
        let registry = Registry::from_value(&m["registry"]).unwrap_or_default();
        let coalesced = registry.counter("serve.coalesce.hits") as f64;
        report.put(
            "serve.queue_highwater",
            "count",
            Better::Lower,
            Stat::exact(highwater),
        );
        report.put(
            "serve.coalesce_hits",
            "count",
            Better::Higher,
            Stat::exact(coalesced),
        );
    } else {
        ctx.checker.fail("GET /metrics failed");
    }
    put_counts(&mut report, expected.iter().flatten());
    if ctx.traced {
        // Set-up time by layer: the warming `exp run` taken apart.
        let warm = fresh_dir(ctx, "serve-layers");
        exp_run(ctx, &scenario, scale, &warm.0, SETUP_JOBS, None);
        decompose(ctx, &scenario, scale, &warm.0).put(ctx, &mut report);
    }
    report.passes.push(("requests".to_string(), samples.len()));
    let halves: Vec<harness::Pass> = phases
        .iter()
        .enumerate()
        .filter_map(|(i, p)| pass_of(&p.samples, ctx.traced && (ctx.quick || i == 1)))
        .collect();
    harness::finish(ctx, &mut report, &[&halves]);
    report
}

/// A load phase summarized as one pass whose "wall" is its median
/// request latency, for the tracing-overhead comparison.
fn pass_of(samples: &[Sample], traced: bool) -> Option<harness::Pass> {
    (!samples.is_empty()).then(|| {
        let lat: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
        harness::Pass {
            wall: Duration::from_secs_f64(percentile(&lat, 50.0) / 1e3),
            traced,
        }
    })
}

/// Per window of about a second: the median request latency, and the
/// host instructions and cycles per completed request.
fn put_windows(report: &mut Report, phases: &[Phase]) {
    let (mut p50s, mut minstr, mut mcycles) = (Vec::new(), Vec::new(), Vec::new());
    for p in phases {
        for w in p.marks.windows(2) {
            let (a, b) = (w[0], w[1]);
            let lat: Vec<f64> = p
                .samples
                .iter()
                .filter(|s| s.end_s > a.t_s && s.end_s <= b.t_s)
                .map(|s| s.latency_ms)
                .collect();
            if lat.is_empty() || b.done == a.done {
                continue;
            }
            let per_request = |f: fn(&Reading) -> u64| {
                (f(&b.counts) - f(&a.counts)) as f64 / 1e6 / (b.done - a.done) as f64
            };
            p50s.push(percentile(&lat, 50.0));
            minstr.push(per_request(|r| r.instructions));
            mcycles.push(per_request(|r| r.cycles));
        }
    }
    if p50s.is_empty() {
        return;
    }
    report.put("op_minstr", "Minstr", Better::Lower, Stat::of(&minstr));
    report.put("op_mcycles", "Mcycles", Better::Lower, Stat::of(&mcycles));
    report.put("op_ms", "ms", Better::Lower, Stat::of(&p50s));
}

/// Exact percentiles over all requests, and the request rate.
fn put_latency(report: &mut Report, samples: &[Sample], wall: f64) {
    let lat: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    let n = lat.len();
    let p = tail_percentile(n);
    // The samples above the nearest rank `percentile` picks.
    let beyond = n - ((p / 100.0) * n as f64).ceil() as usize;
    report.put_note(
        "serve_p50_ms",
        "ms",
        Better::Lower,
        Stat::exact(percentile(&lat, 50.0)),
        format!("exact p50 of n={n}"),
    );
    report.put_note(
        "serve_tail_ms",
        "ms",
        Better::Lower,
        Stat::exact(percentile(&lat, p)),
        format!("exact p{p} of n={n}, {beyond} samples beyond"),
    );
    report.put(
        "serve_rps",
        "req/s",
        Better::Higher,
        Stat::exact(n as f64 / wall),
    );
}

/// The closed-loop load generator.
struct Load<'a> {
    ctx: &'a Ctx,
    addr: &'a str,
    cells: &'a [(&'static str, String, mtvp_engine::SimConfig)],
    bodies: &'a [String],
    expected: &'a [Option<PipeStats>],
    /// Whether each cell's response body has been checked once.
    checked: Vec<AtomicBool>,
    /// Requests completed so far.
    done: AtomicU64,
    t0: Instant,
}

impl Load<'_> {
    fn mark(&self) -> Mark {
        Mark {
            t_s: self.t0.elapsed().as_secs_f64(),
            counts: self.ctx.counters.read(),
            done: self.done.load(Ordering::SeqCst),
        }
    }

    /// `CLIENTS` clients, each posting cells from its own seeded sequence
    /// until `duration` has passed (or `QUICK_REQUESTS` each in quick
    /// mode), while this thread marks the host counts and the requests
    /// completed about once a second.
    fn phase(&self, duration: Duration, traced: bool, phase: u64) -> Phase {
        let ctx = self.ctx;
        ctx.tracer.set_recording(traced);
        let until = Instant::now() + duration;
        let samples = Mutex::new(Vec::new());
        let running = AtomicUsize::new(CLIENTS);
        let mut marks = vec![self.mark()];
        std::thread::scope(|s| {
            for client in 0..CLIENTS as u64 {
                let (samples, running) = (&samples, &running);
                s.spawn(move || {
                    let mut rng = ctx.rng(1 + phase * CLIENTS as u64 + client);
                    let mut order: Vec<usize> = (0..self.cells.len()).collect();
                    let mut mine = Vec::new();
                    let id = ctx.tracer.new_id();
                    ctx.tracer.timed("perf.client", id, None, |root| {
                        for k in 0.. {
                            if ctx.quick && k == QUICK_REQUESTS
                                || !ctx.quick && Instant::now() >= until
                            {
                                break;
                            }
                            if k % order.len() == 0 {
                                shuffle(&mut order, &mut rng);
                            }
                            let ci = order[k % order.len()];
                            if let Some(sample) = self.request(ci, root) {
                                mine.push(sample);
                            }
                        }
                    });
                    samples.lock().expect("sample list lock").extend(mine);
                    running.fetch_sub(1, Ordering::SeqCst);
                });
            }
            while running.load(Ordering::SeqCst) > 0 {
                std::thread::sleep(Duration::from_millis(20));
                if self.t0.elapsed().as_secs_f64() - marks[marks.len() - 1].t_s >= 1.0 {
                    marks.push(self.mark());
                }
            }
        });
        // The clients have exited, so their counts are all in.
        marks.push(self.mark());
        ctx.tracer.set_recording(false);
        Phase {
            samples: samples.into_inner().expect("sample list lock"),
            marks,
        }
    }

    /// One `POST /run`; `None` if it failed.
    fn request(&self, ci: usize, root: Option<u64>) -> Option<Sample> {
        let ctx = self.ctx;
        let (bench, label, _) = &self.cells[ci];
        let key = ctx.key(bench, label);
        ctx.checker.attempt();
        let id = ctx.tracer.new_id();
        let (res, d) = ctx.tracer.timed("serve.http_run", id, root, |_| {
            http_request(self.addr, "POST", "/run", Some(&self.bodies[ci]), 30_000)
        });
        let sample = Sample {
            end_s: self.t0.elapsed().as_secs_f64(),
            latency_ms: ms(d),
        };
        match res {
            Ok((200, body)) => {
                self.done.fetch_add(1, Ordering::SeqCst);
                if !self.checked[ci].swap(true, Ordering::Relaxed) {
                    ctx.tracer
                        .timed("perf.check", id, root, |_| self.check(ci, &key, &body));
                }
                Some(sample)
            }
            Ok((status, _)) => {
                ctx.checker.fail(&format!("{key}: /run answered {status}"));
                None
            }
            Err(e) => {
                ctx.checker
                    .fail(&format!("{key}: /run transport error: {e}"));
                None
            }
        }
    }

    /// A cell's response body must carry exactly the stats the engine
    /// serializes for it, and those must match the golden digest.
    fn check(&self, ci: usize, key: &str, body: &str) {
        let ctx = self.ctx;
        let v: Value = match serde_json::from_str(body) {
            Ok(v) => v,
            Err(e) => {
                return ctx
                    .checker
                    .fail(&format!("{key}: response is not JSON: {e}"))
            }
        };
        match (&self.expected[ci], PipeStats::from_value(&v["stats"])) {
            (Some(want), Ok(got)) if v["stats"] == want.to_value() => {
                ctx.checker.check(key, &got);
            }
            _ => ctx
                .checker
                .fail(&format!("{key}: response stats differ from the engine's")),
        }
    }
}
