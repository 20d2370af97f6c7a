//! Placing the server and the load generator on CPUs so that the two
//! together stay within `nproc`: on separate CPUs, or on one shared CPU.

/// A CPU set, laid out as glibc's 1024-bit `cpu_set_t`.
#[derive(Clone, Copy)]
pub struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

impl CpuSet {
    fn of(cpus: &[usize]) -> CpuSet {
        let mut bits = [0u64; 16];
        for &c in cpus.iter().filter(|&&c| c < 1024) {
            bits[c / 64] |= 1 << (c % 64);
        }
        CpuSet(bits)
    }

    /// The calling thread's CPUs.
    fn current() -> Option<CpuSet> {
        let mut bits = [0u64; 16];
        // SAFETY: `bits` is a writable 128-byte `cpu_set_t`, the size passed.
        let rc = unsafe { sched_getaffinity(0, 128, bits.as_mut_ptr()) };
        (rc == 0).then_some(CpuSet(bits))
    }

    fn cpus(&self) -> Vec<usize> {
        (0..1024)
            .filter(|&c| self.0[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    /// Restrict the calling thread (and the threads and processes it
    /// creates from now on) to this set. Only a system call, so it is
    /// also safe to call between `fork` and `exec`.
    pub fn apply(&self) -> bool {
        // SAFETY: `self.0` is a readable 128-byte `cpu_set_t`.
        unsafe { sched_setaffinity(0, 128, self.0.as_ptr()) == 0 }
    }
}

/// The server's and the generator's CPUs, worker and thread counts.
pub struct Split {
    pub server: CpuSet,
    pub client: CpuSet,
    pub server_threads: usize,
    pub client_threads: usize,
    /// The calling thread's CPUs before [`Split::pin_client`].
    saved: Option<CpuSet>,
}

impl Split {
    /// The server on the upper half of the CPUs this process may use, one
    /// worker per CPU; the generator on the rest, with `nproc` threads (one
    /// connection each) so that one connection always has a request
    /// queued while another is answered. With a single CPU both share it.
    /// The generator reads a streamed reply's first chunk as soon as the
    /// server writes it, so time to first byte shows early emission.
    pub fn separate() -> Split {
        let saved = CpuSet::current();
        let all = saved.map(|s| s.cpus()).unwrap_or_default();
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        if all.len() < 2 {
            return Split::one_cpu(saved, &all);
        }
        let (client, server) = all.split_at(all.len() - all.len() / 2);
        Split {
            server: CpuSet::of(server),
            client: CpuSet::of(client),
            server_threads: server.len(),
            client_threads: nproc,
            saved,
        }
    }

    /// Server and generator on one CPU, the last this process may use: one
    /// worker, two generator threads. On a VM, a request that crosses
    /// CPUs waits for the other CPU to wake, and how long that takes
    /// changes with the host's load from one run to the next (median time
    /// to first byte 0.35 or 0.75 ms on a 2-vCPU box); on one CPU the
    /// spread of latency over ten runs fell from 0.3–0.4 of its median to
    /// under 0.1. The generator then reads a streamed reply when the
    /// server's worker yields the CPU, mostly when the reply is complete.
    pub fn shared() -> Split {
        let saved = CpuSet::current();
        let all = saved.map(|s| s.cpus()).unwrap_or_default();
        Split::one_cpu(saved, &all[all.len().saturating_sub(1)..])
    }

    fn one_cpu(saved: Option<CpuSet>, cpu: &[usize]) -> Split {
        let one = CpuSet::of(cpu);
        Split {
            server: one,
            client: one,
            server_threads: 1,
            client_threads: 2,
            saved,
        }
    }

    /// Move the calling thread, and the generator threads it will start,
    /// onto the generator's CPUs.
    pub fn pin_client(&self) {
        self.client.apply();
    }

    /// Run `f` on the server's CPUs (while the server is idle), then move
    /// back to the generator's.
    pub fn on_server_cpus<T>(&self, f: impl FnOnce() -> T) -> T {
        self.server.apply();
        let out = f();
        self.client.apply();
        out
    }
}

impl Drop for Split {
    fn drop(&mut self) {
        if let Some(saved) = self.saved {
            saved.apply();
        }
    }
}
