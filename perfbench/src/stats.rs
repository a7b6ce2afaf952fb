//! Small statistics helpers: medians, tail percentiles, the FNV-1a
//! digest of simulated statistics, `/proc` memory sizes, and the step
//! sampler.

/// Median of `values` (mean of the middle two for even counts); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A latency tail: the highest percentile with at least ten samples
/// beyond it, with the percentile and the sample count it came from.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// Percentile (0–100) of the reported value.
    pub percentile: f64,
    /// The value at that percentile.
    pub value: f64,
    /// Number of samples.
    pub samples: usize,
}

/// The highest percentile of `values` that has at least ten samples
/// strictly above it. With fewer than eleven samples there is no such
/// percentile and the maximum is reported as the 100th.
pub fn tail(values: &[f64]) -> Tail {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 11 {
        return Tail {
            percentile: 100.0,
            value: v.last().copied().unwrap_or(0.0),
            samples: n,
        };
    }
    let k = n - 11;
    Tail {
        percentile: 100.0 * (k + 1) as f64 / n as f64,
        value: v[k],
        samples: n,
    }
}

/// Incremental FNV-1a (64-bit) over simulated statistics: a host-speed
/// change must leave it unchanged.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Feeds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feeds a counter map: every key and value, in order.
    pub fn stats(&mut self, map: &[(&str, u64)]) {
        for (key, value) in map {
            self.bytes(key.as_bytes());
            self.bytes(&value.to_le_bytes());
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// A numeric field of `/proc/self/status` (`VmHWM:  5212 kB`,
/// `Threads:  1`), unit dropped; `None` where `/proc` is unavailable.
fn proc_status(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
}

/// A size line of `/proc/self/status` (`VmHWM`, `VmRSS`, …) in MB, or
/// 0 where `/proc` is unavailable.
pub fn proc_status_mb(key: &str) -> f64 {
    proc_status(key).map_or(0.0, |kb| kb / 1024.0)
}

/// The process's thread count, if `/proc` tells it.
pub fn threads() -> Option<f64> {
    proc_status("Threads")
}

/// Waits until the process is back to `base` threads, for at most a
/// second.
///
/// A scoped worker counts as joined once its closure returns, before
/// the thread has run its exit path, in which glibc flushes the thread's
/// malloc cache and frees its arena for the next thread. A worker
/// started before that gets a fresh arena, and every arena keeps its
/// freed memory resident: when fig7-ref started its next cell's worker
/// at once, its peak resident set ranged from about 5.0 to 6.5 MB
/// between runs of the same code, as the scheduler decided the race.
pub fn await_threads(base: Option<f64>) {
    let Some(base) = base else { return };
    let start = std::time::Instant::now();
    while threads().is_some_and(|n| n > base) && start.elapsed().as_secs_f64() < 1.0 {
        std::thread::yield_now();
    }
}

/// SplitMix64 step: derives the input perturbation from `--seed`.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Picks which emulator steps the traced run times. Reading the clock
/// around every call more than doubles a cell, so each step is timed
/// with probability `1 / MEAN_GAP`, drawn as geometric gaps: unlike a
/// fixed stride, random gaps cannot alias with a guest loop's period,
/// so the sampled durations are in the same proportions as the totals.
#[derive(Debug)]
pub struct Sampler {
    state: u64,
    countdown: u64,
}

impl Sampler {
    /// Mean number of steps between timed steps.
    pub const MEAN_GAP: f64 = 32.0;

    /// A sampler with a fixed stream (the sampled steps do not change
    /// any simulated result, only which host times are read).
    pub fn new(seed: u64) -> Sampler {
        let mut s = Sampler {
            state: splitmix64(seed) | 1,
            countdown: 0,
        };
        s.countdown = s.gap();
        s
    }

    fn gap(&mut self) -> u64 {
        // xorshift64*, then a geometric draw with p = 1 / MEAN_GAP.
        self.state ^= self.state >> 12;
        self.state ^= self.state << 25;
        self.state ^= self.state >> 27;
        let r = self.state.wrapping_mul(0x2545_f491_4f6c_dd1d);
        let u = ((r >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
        let p = 1.0 / Self::MEAN_GAP;
        1 + (u.ln() / (1.0 - p).ln()) as u64
    }

    /// Whether the next step is timed.
    #[inline]
    pub fn tick(&mut self) -> bool {
        self.countdown -= 1;
        if self.countdown == 0 {
            self.countdown = self.gap();
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        // Ten samples (91..=100) lie above the 90th value.
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
    }

    #[test]
    fn sampler_rate_matches_its_mean_gap() {
        let mut s = Sampler::new(7);
        let n = 1_000_000;
        let hits = (0..n).filter(|_| s.tick()).count() as f64;
        let rate = hits / n as f64;
        assert!((rate * Sampler::MEAN_GAP - 1.0).abs() < 0.03, "rate {rate}");
    }
}
