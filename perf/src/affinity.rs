//! Where a round's threads run.
//!
//! Left to the scheduler, the engine's background threads land beside the
//! measuring client in some processes and on the other core in others, and
//! `fib_oltp` (one wake-up of the applier per 20 us transaction) reads a
//! median latency of 13 us or 22 us depending on which.  A round therefore
//! fixes the placement: measured client `i` on the `i`-th CPU the process may
//! use, everything else (the engine's applier, compactor and sampler, and the
//! open-loop writer) on the last one.  With fewer than two CPUs nothing is
//! pinned.

/// A `cpu_set_t` as glibc lays it out: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs the calling thread may run on, ascending; empty when the kernel
/// will not say.
fn allowed() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Confine the calling thread, and every thread it spawns from now on, to
/// `cpu`.  False when the kernel refuses.
fn pin(cpu: usize) -> bool {
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `set` is a live buffer of exactly the size passed, only read
    // by the call, and pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0 }
}

/// The placement of one round's threads.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Empty when nothing is pinned.
    cpus: Vec<usize>,
}

impl Placement {
    /// Read the CPUs this process may use.
    pub fn of_this_process() -> Placement {
        let cpus = allowed();
        Placement {
            cpus: if cpus.len() < 2 { Vec::new() } else { cpus },
        }
    }

    pub fn pinned(&self) -> bool {
        !self.cpus.is_empty()
    }

    /// Call on the thread that runs measured client `index`.
    pub fn client(&self, index: usize) {
        if self.pinned() && !pin(self.cpus[index % self.cpus.len()]) {
            eprintln!("olxp-perf: could not pin client {index}");
        }
    }

    /// Call on a thread that is not a measured client, or on the thread
    /// about to spawn such threads (they inherit the placement).
    pub fn background(&self) {
        if self.pinned() && !pin(*self.cpus.last().expect("two or more CPUs")) {
            eprintln!("olxp-perf: could not pin a background thread");
        }
    }
}
