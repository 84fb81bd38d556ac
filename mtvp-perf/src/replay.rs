//! Layer probes every traced run makes on its own programs: the static
//! spawn-hint analysis, and substrate replays — a program's committed
//! streams fed straight into the memory system, the value predictor and
//! the branch predictor, so each substrate's cost per operation is
//! measured without the pipeline around it.

use crate::harness::{ms, Ctx, Prepared};
use crate::report::{Better, Report};
use crate::stats::Stat;
use mtvp_branch::{DirectionPredictor, GskewConfig};
use mtvp_engine::hinted_loads_for;
use mtvp_isa::interp::{Bus, Interp, SimpleBus, Step};
use mtvp_mem::{AccessKind, MemConfig, MemSystem};
use mtvp_vp::{ValuePredictor, WangFranklinConfig, WangFranklinPredictor};
use std::hint::black_box;
use std::time::Duration;

/// A `Bus` that records every data address on its way to `SimpleBus`.
struct RecordingBus {
    inner: SimpleBus,
    log: Vec<(u64, AccessKind)>,
}

impl Bus for RecordingBus {
    fn read_u64(&mut self, addr: u64) -> u64 {
        self.log.push((addr, AccessKind::Read));
        self.inner.read_u64(addr)
    }

    fn write_u64(&mut self, addr: u64, val: u64) {
        self.log.push((addr, AccessKind::Write));
        self.inner.write_u64(addr, val)
    }
}

/// The committed streams of one program.
struct Streams {
    /// `(pc, address, kind)` of every load and store.
    data: Vec<(u64, u64, AccessKind)>,
    /// `(pc, value)` of every load.
    loads: Vec<(u64, u64)>,
    /// `(pc, taken)` of every conditional branch.
    branches: Vec<(u64, bool)>,
}

fn streams(p: &Prepared) -> Streams {
    let mut bus = RecordingBus {
        inner: SimpleBus::new(),
        log: Vec::new(),
    };
    // Initialize through the inner bus: the data image is not traffic.
    p.program.init_memory(&mut bus.inner);
    let mut interp = Interp::new(&p.program);
    let mut data = Vec::new();
    loop {
        let pc = interp.pc;
        let step = interp.step(&mut bus, None);
        data.extend(bus.log.drain(..).map(|(addr, kind)| (pc, addr, kind)));
        if step != Step::Continue {
            break;
        }
    }
    let loads = p
        .trace
        .iter()
        .filter(|e| e.is_load)
        .map(|e| (u64::from(e.pc), e.load_value))
        .collect();
    // A conditional branch was taken when the next committed PC is not
    // its fall-through.
    let entries: Vec<_> = p.trace.iter().collect();
    let branches = entries
        .windows(2)
        .filter(|w| {
            p.program
                .fetch(u64::from(w[0].pc))
                .is_some_and(|i| i.is_cond_branch())
        })
        .map(|w| (u64::from(w[0].pc), w[1].pc != w[0].pc + 1))
        .collect();
    Streams {
        data,
        loads,
        branches,
    }
}

/// Time the spawn-hint analysis and replay every substrate over `progs`,
/// recording spans.
pub fn put_layer_probes(ctx: &Ctx, report: &mut Report, progs: &[Prepared]) {
    ctx.tracer.set_recording(true);
    let id = ctx.tracer.new_id();
    let mut hints = Vec::new();
    let mut totals = [(Duration::ZERO, 0u64); 3];
    ctx.tracer.timed("perf.probes", id, None, |root| {
        for p in progs {
            let (_, d) = ctx.tracer.timed("analysis.hinted_loads", id, root, |_| {
                hinted_loads_for(&p.program)
            });
            hints.push(ms(d));
            let (s, _) = ctx
                .tracer
                .timed("isa.record_streams", id, root, |_| streams(p));
            let ((), d) = ctx.tracer.timed("mem.access_data", id, root, |_| {
                let mut sys = MemSystem::new(MemConfig::hpca2005());
                for (now, &(pc, addr, kind)) in s.data.iter().enumerate() {
                    black_box(sys.access_data(now as u64, pc, addr, kind));
                }
            });
            totals[0] = (totals[0].0 + d, totals[0].1 + s.data.len() as u64);
            let ((), d) = ctx.tracer.timed("vp.predict_train", id, root, |_| {
                let mut wf = WangFranklinPredictor::new(WangFranklinConfig::hpca2005());
                for &(pc, value) in &s.loads {
                    black_box(wf.predict(pc));
                    wf.train(pc, value);
                }
            });
            totals[1] = (totals[1].0 + d, totals[1].1 + s.loads.len() as u64);
            let ((), d) = ctx.tracer.timed("branch.predict_update", id, root, |_| {
                let mut gskew = DirectionPredictor::new(GskewConfig::hpca2005());
                let mut ghist = 0u64;
                for &(pc, taken) in &s.branches {
                    black_box(gskew.predict(pc, ghist));
                    gskew.update(pc, ghist, taken);
                    ghist = (ghist << 1) | u64::from(taken);
                }
            });
            totals[2] = (totals[2].0 + d, totals[2].1 + s.branches.len() as u64);
        }
    });
    ctx.tracer.set_recording(false);
    let per = |(d, n): (Duration, u64)| Stat::exact(d.as_nanos() as f64 / n.max(1) as f64);
    report.put("analysis.hints_ms", "ms", Better::Lower, Stat::of(&hints));
    report.put(
        "mem.replay_ns_per_access",
        "ns",
        Better::Lower,
        per(totals[0]),
    );
    report.put("vp.replay_ns_per_op", "ns", Better::Lower, per(totals[1]));
    report.put(
        "branch.replay_ns_per_op",
        "ns",
        Better::Lower,
        per(totals[2]),
    );
}
