//! Times on the host-speed scale.
//!
//! On a host whose CPUs are shared with other tenants, the same
//! instructions can take up to a third longer from one minute to the next
//! (measured on a 2-CPU virtual machine). So every timed operation is
//! bracketed by probes of a fixed reference kernel (a seeded random walk
//! over a 1 MiB buffer, mixing arithmetic with memory traffic) on the same
//! thread, outside the timed region. An operation's scaled time is its raw time divided by the mean
//! host slowness the probes before and after it saw, where slowness is the
//! kernel's time over its nominal [`REFERENCE_MS`]. Drift that slows the
//! kernel and the program alike cancels; a change that makes the program
//! faster lowers raw and scaled times alike. Raw times are reported beside
//! scaled ones.

use std::hint::black_box;
use std::time::Instant;

/// Nominal time of one reference-kernel run on a quiet host, ms.
pub const REFERENCE_MS: f64 = 1.0;

/// Words in the kernel's buffer (1 MiB).
const WORDS: usize = 1 << 17;

/// Random-walk steps per kernel run.
const STEPS: usize = 300_000;

/// Kernel runs per probe; the fastest counts, so an interrupt during one
/// run does not read as a slow host.
const RUNS_PER_PROBE: usize = 3;

/// One timed operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Wall-clock time, ms.
    pub raw: f64,
    /// Wall-clock time over the host slowness around it, ms.
    pub scaled: f64,
}

/// The scaled times of `samples`.
pub fn scaled(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.scaled).collect()
}

/// The raw times of `samples`.
pub fn raw(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.raw).collect()
}

/// Probes host slowness around timed operations.
pub struct Speed {
    buf: Vec<u64>,
    last: Option<f64>,
    probes: Vec<f64>,
}

impl Default for Speed {
    fn default() -> Self {
        Self {
            buf: (0..WORDS as u64).collect(),
            last: None,
            probes: Vec::new(),
        }
    }
}

impl Speed {
    /// Host slowness now: the fastest of [`RUNS_PER_PROBE`] kernel runs over
    /// [`REFERENCE_MS`].
    fn probe(&mut self) -> f64 {
        let fastest = (0..RUNS_PER_PROBE)
            .map(|_| {
                let t = Instant::now();
                black_box(kernel(black_box(&mut self.buf)));
                t.elapsed().as_secs_f64() * 1e3
            })
            .fold(f64::INFINITY, f64::min);
        let slowness = fastest / REFERENCE_MS;
        self.probes.push(slowness);
        self.last = Some(slowness);
        slowness
    }

    /// Runs `op` between two probes (the previous operation's closing probe
    /// opens this one) and returns its value and time.
    pub fn time<T>(&mut self, op: impl FnOnce() -> T) -> (T, Sample) {
        let before = match self.last {
            Some(slowness) => slowness,
            None => self.probe(),
        };
        let t = Instant::now();
        let value = op();
        let raw = t.elapsed().as_secs_f64() * 1e3;
        let after = self.probe();
        let scaled = raw / (0.5 * (before + after));
        (value, Sample { raw, scaled })
    }

    /// Median slowness over every probe so far (1 before the first).
    pub fn slowness(&self) -> f64 {
        if self.probes.is_empty() {
            1.0
        } else {
            crate::stats::median(&self.probes)
        }
    }

    /// Probes taken so far.
    pub fn probes(&self) -> usize {
        self.probes.len()
    }
}

fn kernel(buf: &mut [u64]) -> u64 {
    let mask = buf.len() - 1;
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc: u64 = 0;
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = x as usize & mask;
        buf[i] = buf[i].wrapping_add(x);
        acc = acc.wrapping_mul(31).wrapping_add(buf[(i ^ 0x5555) & mask]);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_timed_operation_is_bracketed_by_probes() {
        let mut speed = Speed::default();
        assert_eq!(speed.slowness(), 1.0);
        let (value, sample) = speed.time(|| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            7
        });
        assert_eq!(value, 7);
        assert_eq!(speed.probes(), 2);
        assert!(sample.raw >= 5.0);
        assert!(sample.scaled > 0.0 && sample.scaled.is_finite());
        // The closing probe opens the next operation.
        let _ = speed.time(|| ());
        assert_eq!(speed.probes(), 3);
        assert!(speed.slowness() > 0.0);
    }

    #[test]
    fn scaled_time_is_raw_time_over_slowness() {
        let mut speed = Speed {
            last: Some(2.0),
            ..Speed::default()
        };
        let (_, sample) = speed.time(|| ());
        let after = *speed.probes.last().expect("a closing probe");
        let expected = sample.raw / (0.5 * (2.0 + after));
        assert!((sample.scaled - expected).abs() <= 1e-12 * expected.max(1.0));
    }
}
