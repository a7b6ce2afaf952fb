//! Host-speed calibration for the end-to-end times.
//!
//! On a shared host, other tenants slow every run by an amount that
//! drifts over minutes: the same pass of the same code measured 40 %
//! apart a few minutes later on a 2-CPU virtual machine. To compare commits
//! measured at different times, the untraced runs interleave a fixed
//! calibration kernel with the timed work, about every half second, and
//! scale each item's time by `REFERENCE_S / kernel time`, the kernel
//! time being the median of the sample just before the item and its two
//! neighbours (each set-up burst likewise). The kernel is this
//! benchmark's own code, so a change to the simulator moves the work
//! but not the kernel, and shows in full; contention that slows both
//! cancels. The unscaled times are printed beside the scaled ones.
//!
//! The set-up is timed here too ([`Setup`]), in bursts spread over the
//! run, and the kernel's own tables are kept out of `peak_rss_mb`
//! ([`Calibration::tables_mb`]).

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::median;

/// Nominal kernel time: scaled times read as seconds on a host where
/// the kernel takes this long (a quiet 2.0 GHz Xeon virtual machine,
/// roughly).
pub const REFERENCE_S: f64 = 0.025;

/// Minimum spacing of kernel samples during timed work.
const INTERVAL: Duration = Duration::from_millis(500);

/// Sets and ways of the kernel's cache model: 6 MB of state (4-byte
/// tags and 2-byte LRU stamps), past a core's private 2 MB L2 and into
/// the shared L3, where other tenants' load slows the simulator too.
const SETS: usize = 1 << 17;
const WAYS: usize = 8;

/// Cache-model iterations per sample.
const ITERS: u32 = 600_000;

/// Interpreter steps per sample.
const STEPS: u32 = 2_000_000;

/// The calibration state: the kernel's tables and the samples taken.
pub struct Calibration {
    tags: Vec<u32>,
    lru: Vec<u16>,
    last: Option<Instant>,
    /// Kernel seconds of every sample.
    samples: Vec<f64>,
}

impl Default for Calibration {
    fn default() -> Calibration {
        // Filled with non-zero values so that every page is resident
        // from the start, and stays so: the tables then add their size
        // to the resident set.
        Calibration {
            tags: vec![u32::MAX; SETS * WAYS],
            lru: vec![u16::MAX; SETS * WAYS],
            last: None,
            samples: Vec::new(),
        }
    }
}

impl Calibration {
    /// MB the kernel's tables hold resident, from before the workload's
    /// first allocation to the end of the run. Their size, not the
    /// resident set's growth when they were filled: the kernel counts
    /// resident pages per CPU and `/proc` reads the sum approximately,
    /// so that growth read up to 64 KB apart between runs.
    pub fn tables_mb(&self) -> f64 {
        (std::mem::size_of_val(&self.tags[..]) + std::mem::size_of_val(&self.lru[..])) as f64
            / (1024.0 * 1024.0)
    }

    /// Runs the kernel once and records its time. It has the simulator's
    /// two kinds of work in about equal parts: a set-associative LRU
    /// cache model over an address stream that is three quarters
    /// sequential and one quarter random (cache-missing loads), and a
    /// small bytecode interpreter (dispatch on an opcode, a register
    /// file, data-dependent branches).
    pub fn sample(&mut self) -> f64 {
        let t = Instant::now();
        let mut x: u64 = 0x1234_5678_9abc_def1;
        let (mut hits, mut addr) = (0u64, 0u64);
        for i in 0..ITERS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            addr = if x & 3 == 0 {
                x >> 8
            } else {
                addr.wrapping_add(64)
            };
            let line = (addr >> 6) as u32;
            let base = (line as usize & (SETS - 1)) * WAYS;
            match self.tags[base..base + WAYS].iter().position(|&t| t == line) {
                Some(w) => {
                    self.lru[base + w] = i as u16;
                    hits += 1;
                }
                None => {
                    let victim = (0..WAYS).min_by_key(|&w| self.lru[base + w]).unwrap_or(0);
                    self.tags[base + victim] = line;
                    self.lru[base + victim] = i as u16;
                }
            }
        }
        black_box(hits);
        black_box(interpret(black_box(&PROGRAM), STEPS));
        let secs = t.elapsed().as_secs_f64();
        self.last = Some(Instant::now());
        self.samples.push(secs);
        secs
    }

    /// Samples if the last sample is at least half a second old;
    /// returns the kernel seconds spent.
    pub fn maybe_sample(&mut self) -> f64 {
        match self.last {
            Some(last) if last.elapsed() < INTERVAL => 0.0,
            _ => self.sample(),
        }
    }

    /// Index of the latest sample (0 before any).
    pub fn latest(&self) -> usize {
        self.samples.len().saturating_sub(1)
    }

    /// Scale factor for work timed after sample `idx`: `REFERENCE_S`
    /// over the median kernel time of that sample and its neighbours.
    pub fn factor_near(&self, idx: usize) -> f64 {
        let last = self.samples.len().saturating_sub(1);
        REFERENCE_S / median(&self.samples[idx.saturating_sub(1).min(last)..=(idx + 1).min(last)])
    }
}

/// The interpreter's program: `(opcode, destination, source)` triples
/// over eight registers; opcode 4 branches back by the source operand
/// while the destination register is odd.
const PROGRAM: [(u8, u8, u8); 12] = [
    (0, 1, 2),
    (1, 2, 3),
    (2, 3, 1),
    (3, 4, 3),
    (0, 5, 4),
    (4, 5, 4),
    (1, 6, 5),
    (2, 7, 6),
    (3, 0, 7),
    (0, 1, 0),
    (4, 1, 9),
    (1, 3, 2),
];

/// Runs `program` for `steps` steps, wrapping at its end.
fn interpret(program: &[(u8, u8, u8)], steps: u32) -> u64 {
    let mut regs = [1u64, 3, 5, 7, 11, 13, 17, 19];
    let mut pc = 0usize;
    for _ in 0..steps {
        let (op, d, s) = program[pc];
        let (d, s) = (usize::from(d), usize::from(s));
        pc += 1;
        match op {
            0 => regs[d] = regs[d].wrapping_add(regs[s & 7]),
            1 => regs[d] ^= regs[s & 7].rotate_left(7),
            2 => regs[d] = regs[d].wrapping_mul(regs[s & 7] | 1),
            3 => regs[d] = regs[d].wrapping_sub(regs[s & 7] >> 3),
            _ => {
                if regs[d] & 1 == 1 {
                    pc = pc.saturating_sub(s);
                }
            }
        }
        if pc >= program.len() {
            pc = 0;
        }
    }
    regs.iter().fold(0, |a, &r| a ^ r)
}

/// Minimum length of one set-up burst.
const BURST: Duration = Duration::from_millis(50);

/// A workload's set-up time. A set-up of a fraction of a millisecond,
/// timed once at the start of a process, read up to 1.9x apart between
/// processes; so the set-up runs in bursts (at least three repetitions
/// and 50 ms each) spread over the run, between the timed items, and
/// `setup_s` is the median of the burst medians, each burst scaled by
/// the kernel samples around it, as an item's passes are.
#[derive(Debug, Default)]
pub struct Setup {
    /// Each burst's median repetition time and the index of the kernel
    /// sample just before it.
    bursts: Vec<(f64, usize)>,
    reps: usize,
}

impl Setup {
    /// Runs one burst of the set-up; returns the last repetition's
    /// result.
    pub fn burst<T>(&mut self, cal: &Calibration, mut f: impl FnMut() -> T) -> T {
        let start = Instant::now();
        let mut times = Vec::new();
        loop {
            let t = Instant::now();
            let out = black_box(f());
            times.push(t.elapsed().as_secs_f64());
            if times.len() >= 3 && start.elapsed() >= BURST {
                self.reps += times.len();
                self.bursts.push((median(&times), cal.latest()));
                return out;
            }
        }
    }

    /// `setup_s`: the median burst, scaled when `scaled`.
    pub fn seconds(&self, cal: &Calibration, scaled: bool) -> f64 {
        let bursts: Vec<f64> = self
            .bursts
            .iter()
            .map(|&(secs, idx)| secs * if scaled { cal.factor_near(idx) } else { 1.0 })
            .collect();
        median(&bursts)
    }

    /// How the figure was taken, for the report's notes.
    pub fn describe(&self) -> String {
        format!(
            "setup_s is the median of {} set-up bursts ({} set-ups)",
            self.bursts.len(),
            self.reps
        )
    }
}
