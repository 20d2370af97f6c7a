//! Running `foxq` as a child process: wall time, time to the first stdout
//! byte, captured output, and its peak resident set.

use std::io::Read;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// What one child process did.
pub struct ChildRun {
    pub success: bool,
    pub stdout: Vec<u8>,
    pub stderr: String,
    /// Spawn to exit.
    pub wall: Duration,
    /// Spawn to the first stdout byte (`None` if it wrote nothing).
    pub first_byte: Option<Duration>,
    /// The child's peak resident set, in bytes.
    pub peak_rss: u64,
}

/// Spawn `cmd`, drain its stdout as it arrives, and wait for it.
pub fn run(cmd: &mut Command, expect_bytes: usize) -> std::io::Result<ChildRun> {
    let start = Instant::now();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let pid = child.id();
    let done = std::sync::Arc::new(AtomicBool::new(false));
    let sampler = {
        let done = done.clone();
        std::thread::spawn(move || sample_peak_rss(pid, &done))
    };
    let mut out = child.stdout.take().expect("stdout is piped");
    let mut stdout = Vec::with_capacity(expect_bytes + 1);
    let mut first_byte = None;
    let mut stderr = String::new();
    let read = (|| {
        let mut buf = vec![0u8; 1 << 16];
        loop {
            let n = out.read(&mut buf)?;
            if n == 0 {
                break;
            }
            if first_byte.is_none() {
                first_byte = Some(start.elapsed());
            }
            stdout.extend_from_slice(&buf[..n]);
        }
        let mut err = child.stderr.take().expect("stderr is piped");
        err.read_to_string(&mut stderr).map(drop)
    })();
    if read.is_err() {
        let _ = child.kill();
    }
    let status = child.wait();
    let wall = start.elapsed();
    done.store(true, Ordering::SeqCst);
    sampler.thread().unpark();
    let peak_rss = sampler.join().expect("rss sampler panicked");
    read?;
    let success = status?.success();
    Ok(ChildRun {
        success,
        peak_rss,
        stdout,
        stderr,
        wall,
        first_byte,
    })
}

extern "C" {
    fn sysconf(name: i32) -> i64;
}

/// CPU time, user plus system, that process `pid` and its threads have
/// used so far, in seconds (`/proc/<pid>/stat`, clock-tick resolution).
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the whole line.
    let mut fields = stat.rsplit_once(") ")?.1.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    // SAFETY: sysconf(_SC_CLK_TCK = 2) reads a constant; no memory is passed.
    let ticks = unsafe { sysconf(2) };
    (ticks > 0).then(|| (utime + stime) as f64 / ticks as f64)
}

/// The `VmHWM` (peak resident set) line of `/proc/<pid>/status`, in
/// bytes; `None` once the process has exited.
pub fn vm_hwm_bytes(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib * 1024)
}

/// Sample a child's peak resident set every 2 ms until `done` is set or
/// the process is gone (an exited child's status has no `VmHWM` line).
/// Reading it from procfs, not from `wait4`, matters: a child's
/// `ru_maxrss` also counts the parent's memory it was forked from.
fn sample_peak_rss(pid: u32, done: &AtomicBool) -> u64 {
    let mut peak = 0;
    while !done.load(Ordering::SeqCst) {
        match vm_hwm_bytes(pid) {
            Some(b) => peak = peak.max(b),
            None => break,
        }
        std::thread::park_timeout(Duration::from_millis(2));
    }
    peak
}
