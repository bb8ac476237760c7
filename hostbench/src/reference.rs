//! The reference clock: host time rescaled by a fixed CPU kernel that
//! the benchmark times between the workload's operations.
//!
//! The shared 2-vCPU VM this benchmark was tuned on ran the same code up
//! to twice as fast at one time as at another, in phases from seconds to
//! tens of minutes. The kernel below (a branchy xorshift loop that stays
//! in registers, owned by the benchmark and not by the program) slows
//! down with the program: in 5 s windows of `spec-run`, program wall and
//! kernel wall correlated at 0.70-0.99. So every end-to-end time is
//! reported in reference units: an operation's host time times
//! `NOMINAL_NS` over the median wall of the kernel runs within
//! `HALF_WINDOW` of it. On a host where the kernel takes `NOMINAL_NS`
//! the reference units are plain host units; the traced run reports
//! host times and the median kernel wall (`bench.ref_kernel_us`).

use std::time::{Duration, Instant};

use crate::stats::median;

/// Iterations of one kernel run: 0.5-0.9 ms on a 2.1 GHz Xeon VM.
const ITERATIONS: u64 = 100_000;

/// What one kernel run counts as in reference time.
const NOMINAL_NS: f64 = 500_000.0;

/// How often `pace` runs the kernel: about 1 % of the run's wall.
const PACE: Duration = Duration::from_millis(50);

/// Kernel runs this close to a moment set the scale there.
const HALF_WINDOW: Duration = Duration::from_secs(2);

/// The kernel's runs over one benchmark run: when each ended and how
/// long it took.
#[derive(Default)]
pub struct Reference {
    at: Vec<Instant>,
    walls_ns: Vec<f64>,
}

impl Reference {
    /// Run and time the kernel once.
    pub fn sample(&mut self) {
        let t0 = Instant::now();
        std::hint::black_box(kernel(std::hint::black_box(ITERATIONS)));
        let end = Instant::now();
        self.walls_ns.push((end - t0).as_nanos() as f64);
        self.at.push(end);
    }

    /// Run the kernel if `PACE` has passed since it last ran.
    pub fn pace(&mut self) {
        if self.at.last().is_none_or(|t| t.elapsed() >= PACE) {
            self.sample();
        }
    }

    /// Converts host times taken at non-decreasing moments to reference
    /// units, reusing the window's median while its samples stay the
    /// same.
    pub fn scaler(&self) -> Scaler<'_> {
        Scaler {
            reference: self,
            window: (0, 0),
            scale: 0.0,
        }
    }

    /// Median kernel wall in host microseconds.
    pub fn kernel_us(&self) -> f64 {
        median(&self.walls_ns) / 1e3
    }
}

pub struct Scaler<'a> {
    reference: &'a Reference,
    window: (usize, usize),
    scale: f64,
}

impl Scaler<'_> {
    /// `host` (any unit of time) taken at `at`, in reference units.
    pub fn to_reference(&mut self, host: f64, at: Instant) -> f64 {
        let r = self.reference;
        let lo = r.at.partition_point(|t| *t + HALF_WINDOW < at);
        let hi = r.at.partition_point(|t| *t <= at + HALF_WINDOW);
        // With no kernel run nearby, the whole run's median stands in.
        let window = if lo < hi { (lo, hi) } else { (0, r.at.len()) };
        if window != self.window || self.scale == 0.0 {
            self.window = window;
            self.scale = NOMINAL_NS / median(&r.walls_ns[window.0..window.1]);
        }
        host * self.scale
    }
}

/// xorshift64 with a data-dependent three-way branch per step.
fn kernel(iterations: u64) -> u64 {
    let (mut x, mut acc) = (0x1234_5678_9abc_def0u64, 0u64);
    for i in 0..iterations {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = match x & 3 {
            0 => acc.wrapping_add(x.rotate_left((i & 31) as u32)),
            1 => acc ^ x,
            _ => acc.wrapping_mul(x | 1),
        };
    }
    acc
}
