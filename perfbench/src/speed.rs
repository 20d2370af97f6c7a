//! Machine-speed calibration.
//!
//! On a shared 2-vCPU box the CPU's speed moves by ±25% from one tenth of
//! a second to the next and drifts by ±15% over minutes (the same
//! `foxq run` reads 25 or 34 MiB/s ten minutes apart, and its CPU time
//! moves with its wall time), so ten runs of one workload spread as far as
//! the bounds a regression gate can afford. A short fixed loop of
//! standard-library work, timed right before each of the workload's
//! operations, sees the same speed as the operation: one sample and the
//! next `foxq run` correlate at r ≈ 0.6, and medians of ten at r ≈ 0.97.
//! The benchmark reports its times scaled to the speed at which this loop
//! takes [`REFERENCE_MS`]. The loop shares no code with foxq, so no change
//! to the program can move it.

use crate::stats::median;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// The calibration loop's time at reference speed, in ms (about its time
/// on the 2-vCPU box the benchmark was sized on).
pub const REFERENCE_MS: f64 = 5.0;

/// Fixed input of the calibration loop, built once so that the timed
/// part does no page-faulting allocation.
struct Work {
    bytes: Vec<u8>,
    words: Vec<u32>,
    counts: HashMap<u64, u64>,
}

impl Work {
    fn new() -> Work {
        let mut x: u64 = 0x243F_6A88_85A3_08D3;
        let bytes = (0..512 << 10)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (x >> 56) as u8
            })
            .collect::<Vec<u8>>();
        Work {
            words: Vec::with_capacity(bytes.len() / 16),
            counts: HashMap::with_capacity(1 << 14),
            bytes,
        }
    }

    /// The timed work — hash the bytes, count keys in a map, sort words,
    /// format small strings: roughly the mix of byte scanning, hashing and
    /// small allocations a query run does. Returns its time in ms.
    fn run(&mut self) -> f64 {
        let start = Instant::now();
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in black_box(&self.bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        self.counts.clear();
        for chunk in self.bytes.chunks_exact(32) {
            let key = u64::from_le_bytes(chunk[..8].try_into().expect("8 bytes")) & 0x3FFF;
            *self.counts.entry(key).or_insert(0) += 1;
        }
        self.words.clear();
        self.words.extend(
            self.bytes
                .chunks_exact(16)
                .map(|c| u32::from_le_bytes(c[..4].try_into().expect("4 bytes"))),
        );
        self.words.sort_unstable();
        let tags: usize = (0..10_000)
            .map(|i| format!("<e{}>{}</e{}>", i % 50, i, i % 50).len())
            .sum();
        black_box((
            hash,
            self.counts.len(),
            self.words[self.words.len() / 2],
            tags,
        ));
        start.elapsed().as_secs_f64() * 1e3
    }
}

/// Calibration samples taken through one run.
pub struct Speed {
    work: Work,
    samples: Vec<f64>,
}

impl Speed {
    /// Start with one sample.
    pub fn new() -> Speed {
        let mut speed = Speed {
            work: Work::new(),
            samples: Vec::new(),
        };
        speed.sample();
        speed
    }

    /// Time the loop once (about 3% of a `foxq run` of a 4 MiB document).
    pub fn sample(&mut self) {
        let ms = self.work.run();
        self.samples.push(ms);
    }

    /// The median calibration time of the run, in ms.
    pub fn calibration_ms(&self) -> f64 {
        median(&self.samples).expect("at least one sample")
    }

    /// Multiply a measured time by this to get it at reference speed;
    /// divide a measured rate by it.
    pub fn time_factor(&self) -> f64 {
        REFERENCE_MS / self.calibration_ms()
    }
}
