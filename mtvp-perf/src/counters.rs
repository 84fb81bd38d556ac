//! Host instructions and cycles spent by this process, from the CPU's own
//! counters.
//!
//! Wall time on a shared host moves with other tenants' load, two ways.
//! The clock moves: on the 2-CPU host this benchmark was written on it ran
//! anywhere from 4.16 to 4.88 GHz for minutes at a time, so the same pass
//! took 16% longer or shorter while it took the same number of cycles to
//! within 2%. And the core is shared: in busier minutes the same pass took
//! a quarter more cycles as well. The instructions a pass retires move
//! with neither, only with the work the program does, so they are what
//! two versions of the program are compared on; cycles and wall time are
//! kept beside them for the stalls (cycles) and the waiting (wall time)
//! that instructions do not count.

use std::fs::File;
use std::io::Read;
use std::time::Instant;

/// Counts of the thread that opened the counters and of every thread it
/// spawns afterwards.
#[derive(Clone, Copy, Debug)]
pub struct Reading {
    pub instructions: u64,
    pub cycles: u64,
}

/// User-mode instruction and cycle counters, or failing hardware
/// counters, wall-clock nanoseconds for both.
pub struct Counters {
    hw: Option<[File; 2]>,
    t0: Instant,
}

impl Counters {
    /// Open the counters. Call it before the process starts any thread:
    /// only threads created afterwards are counted.
    pub fn open() -> Counters {
        let hw = sys::open(sys::INSTRUCTIONS).and_then(|i| Ok([i, sys::open(sys::CYCLES)?]));
        if let Err(e) = &hw {
            eprintln!("mtvp-perf: no hardware counters ({e}); counting wall-clock ns instead");
        }
        Counters {
            hw: hw.ok(),
            t0: Instant::now(),
        }
    }

    /// Counts so far.
    pub fn read(&self) -> Reading {
        match &self.hw {
            Some([instructions, cycles]) => Reading {
                instructions: read_counter(instructions),
                cycles: read_counter(cycles),
            },
            None => {
                let ns = self.t0.elapsed().as_nanos() as u64;
                Reading {
                    instructions: ns,
                    cycles: ns,
                }
            }
        }
    }

    /// Where the counts come from, for the host stamp.
    pub fn source(&self) -> &'static str {
        if self.hw.is_some() {
            "perf_event instructions and cpu-cycles (user mode, all threads)"
        } else {
            "wall-clock ns (no hardware counters)"
        }
    }
}

fn read_counter(mut f: &File) -> u64 {
    let mut buf = [0u8; 8];
    f.read_exact(&mut buf)
        .expect("an open perf counter is readable");
    u64::from_ne_bytes(buf)
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    use std::fs::File;
    use std::os::fd::FromRawFd;

    /// `struct perf_event_attr` up to `config1` (`PERF_ATTR_SIZE_VER0`).
    #[repr(C)]
    #[derive(Default)]
    struct PerfEventAttr {
        kind: u32,
        size: u32,
        config: u64,
        sample_period: u64,
        sample_type: u64,
        read_format: u64,
        flags: u64,
        wakeup_events: u32,
        bp_type: u32,
        config1: u64,
    }

    pub const CYCLES: u64 = 0;
    pub const INSTRUCTIONS: u64 = 1;
    const SYS_PERF_EVENT_OPEN: usize = 298;
    const PERF_TYPE_HARDWARE: u32 = 0;
    const FLAG_INHERIT: u64 = 1 << 1;
    const FLAG_EXCLUDE_KERNEL: u64 = 1 << 5;
    const FLAG_EXCLUDE_HV: u64 = 1 << 6;
    const PERF_FLAG_FD_CLOEXEC: usize = 1 << 3;

    /// A counter of hardware event `config` for this thread and the
    /// threads it spawns later, in user mode only (what an unprivileged
    /// process may count).
    pub fn open(config: u64) -> Result<File, String> {
        let mut attr = PerfEventAttr {
            kind: PERF_TYPE_HARDWARE,
            size: std::mem::size_of::<PerfEventAttr>() as u32,
            config,
            flags: FLAG_INHERIT | FLAG_EXCLUDE_KERNEL | FLAG_EXCLUDE_HV,
            ..PerfEventAttr::default()
        };
        let ret: isize;
        // SAFETY: perf_event_open(attr, pid = 0 (this thread), cpu = -1
        // (any), group_fd = -1, flags) reads `size` bytes from `attr`, a
        // live, exclusively borrowed value of exactly that size, and may
        // write `size` back into it; it touches no other memory of ours.
        // The syscall instruction clobbers rcx and r11, declared below.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") SYS_PERF_EVENT_OPEN as isize => ret,
                in("rdi") &mut attr as *mut PerfEventAttr,
                in("rsi") 0usize,
                in("rdx") -1isize,
                in("r10") -1isize,
                in("r8") PERF_FLAG_FD_CLOEXEC,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        if ret < 0 {
            return Err(format!("perf_event_open failed with errno {}", -ret));
        }
        let fd = i32::try_from(ret).map_err(|_| format!("perf_event_open returned {ret}"))?;
        // SAFETY: `fd` was just returned by the kernel, is open, and is
        // owned by nothing else; the `File` takes sole ownership.
        Ok(unsafe { File::from_raw_fd(fd) })
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod sys {
    pub const CYCLES: u64 = 0;
    pub const INSTRUCTIONS: u64 = 1;

    pub fn open(_config: u64) -> Result<std::fs::File, String> {
        Err("hardware counters are read on x86-64 Linux only".to_string())
    }
}
