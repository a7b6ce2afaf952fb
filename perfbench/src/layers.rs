//! The traced run's bookkeeping: per-(cell, layer) host times kept in
//! memory, per-layer counts, the exact-sum check, and the Perfetto
//! export.
//!
//! Every span is taken by the benchmark around a call into one of the
//! crates' public functions; nothing inside the simulator is
//! instrumented. A cell's layer times are *self* times: the calls
//! timed for different layers never nest, so each one's duration is
//! its self time, and whatever a cell's wall holds beyond them is
//! engine overhead (`engine.other_s`).

use std::time::Instant;

use rest_mem::MemStats;
use rest_obs::{Json, PerfettoTrace};

/// Sampled time below which a cell's loop is split by the proportions
/// pooled over all cells rather than its own (about a hundred samples).
const MIN_OWN_SAMPLES_S: f64 = 20e-6;

/// A layer of the simulator, named after its module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Workload::build`.
    Build,
    /// `Emulator::new` + `Hierarchy::new` + `Pipeline::new`.
    SystemNew,
    /// `ExecEngine::step` on the fast tier, runtime steps excluded.
    Step,
    /// `step` calls whose batch carries runtime (allocator / API
    /// intercept) micro-ops.
    Ecall,
    /// `Pipeline::note_inst` + `process` + `finish`, hierarchy included.
    Process,
    /// `Emulator::run_functional` per tier.
    FnReference,
    FnFast,
    FnTrace,
    /// `verify_program`.
    Verify,
    /// `CaseStream::next_case`.
    Gen,
    /// `rest_fuzz::lower`.
    Lower,
    /// Extra work, outside the exact sum: the shadow hierarchy.
    Shadow,
    /// Extra work, outside the exact sum: the reference run the loop
    /// copy is checked against (`System::run`, `run_case`).
    Check,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 13] = [
        Layer::Build,
        Layer::SystemNew,
        Layer::Step,
        Layer::Ecall,
        Layer::Process,
        Layer::FnReference,
        Layer::FnFast,
        Layer::FnTrace,
        Layer::Verify,
        Layer::Gen,
        Layer::Lower,
        Layer::Shadow,
        Layer::Check,
    ];

    /// Metric name of the layer's time, in seconds.
    pub fn metric(self) -> &'static str {
        match self {
            Layer::Build => "workloads.build_s",
            Layer::SystemNew => "system.new_s",
            Layer::Step => "emulator.step_s",
            Layer::Ecall => "runtime.ecall_s",
            Layer::Process => "pipeline.process_s",
            Layer::FnReference => "functional.reference_s",
            Layer::FnFast => "functional.fast_s",
            Layer::FnTrace => "functional.trace_s",
            Layer::Verify => "verify.s",
            Layer::Gen => "fuzz.gen_s",
            Layer::Lower => "fuzz.lower_s",
            Layer::Shadow => "hierarchy.shadow_s",
            Layer::Check => "check.reference_s",
        }
    }

    /// Metric name of the layer's share of the traced wall.
    pub fn share_metric(self) -> String {
        let name = self.metric();
        let stem = name
            .strip_suffix("_s")
            .unwrap_or(name.strip_suffix(".s").unwrap_or(name));
        format!("share.{stem}")
    }

    /// Whether the layer's time is part of the exact sum (extra work
    /// the traced run adds is reported beside it).
    pub fn in_sum(self) -> bool {
        !matches!(self, Layer::Shadow | Layer::Check)
    }

    fn index(self) -> usize {
        Layer::ALL
            .iter()
            .position(|&l| l == self)
            .expect("listed layer")
    }
}

/// Host times of one cell (a fig7 or functional cell, or a fuzz case).
#[derive(Debug, Clone)]
pub struct CellSpans {
    /// Display name (`"lbm asan"`, `"case 17"`).
    pub name: String,
    /// Start, in seconds since the traced pass began.
    pub start: f64,
    /// Wall time of the whole cell.
    pub wall: f64,
    times: [f64; Layer::ALL.len()],
    /// Loop-copy time not yet charged to a layer, and the sampled
    /// durations (step, process, shadow, rest of the loop) it is split
    /// by; see [`Trace::apportion`].
    loop_pool: f64,
    loop_samples: [f64; 4],
}

impl CellSpans {
    /// Records a loop copy's unapportioned wall and its sampled phase
    /// durations.
    pub fn add_loop(&mut self, pool: f64, samples: [f64; 4]) {
        self.loop_pool += pool;
        for (a, b) in self.loop_samples.iter_mut().zip(samples) {
            *a += b;
        }
    }

    /// Adds `secs` to `layer`.
    pub fn add(&mut self, layer: Layer, secs: f64) {
        self.times[layer.index()] += secs;
    }

    /// Runs `f`, charging its wall time to `layer`.
    pub fn timed<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(layer, t.elapsed().as_secs_f64());
        out
    }

    /// Time charged to `layer`.
    pub fn time(&self, layer: Layer) -> f64 {
        self.times[layer.index()]
    }

    /// The cell's wall minus every timed layer call: loop and engine
    /// bookkeeping, including the clock reads of the tracing itself.
    pub fn other(&self) -> f64 {
        self.wall - self.times.iter().sum::<f64>()
    }
}

/// Per-layer counts, summed over cells.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub jobs: u64,
    pub cache_hits: u64,
    pub machines: u64,
    pub insts: u64,
    pub ecall_steps: u64,
    pub runtime_uops: u64,
    pub uops: u64,
    pub sim_cycles: u64,
    pub backend_checks: u64,
    pub check_uops: u64,
    pub decode_invalidations: u64,
    pub redecoded: u64,
    pub mem: MemStats,
    pub shadow_calls: u64,
    pub shadow_l1d_misses: u64,
    pub fn_insts: [u64; 3],
    pub traced_insts: u64,
    pub compiled: u64,
    pub invalidated: u64,
    pub programs_verified: u64,
    pub findings: u64,
    pub signatures: u64,
}

impl Counts {
    /// Adds another cell's counts.
    pub fn merge(&mut self, o: &Counts) {
        self.jobs += o.jobs;
        self.cache_hits += o.cache_hits;
        self.machines += o.machines;
        self.insts += o.insts;
        self.ecall_steps += o.ecall_steps;
        self.runtime_uops += o.runtime_uops;
        self.uops += o.uops;
        self.sim_cycles += o.sim_cycles;
        self.backend_checks += o.backend_checks;
        self.check_uops += o.check_uops;
        self.decode_invalidations += o.decode_invalidations;
        self.redecoded += o.redecoded;
        self.mem.merge(&o.mem);
        self.shadow_calls += o.shadow_calls;
        self.shadow_l1d_misses += o.shadow_l1d_misses;
        for (a, b) in self.fn_insts.iter_mut().zip(o.fn_insts) {
            *a += b;
        }
        self.traced_insts += o.traced_insts;
        self.compiled += o.compiled;
        self.invalidated += o.invalidated;
        self.programs_verified += o.programs_verified;
        self.findings += o.findings;
        self.signatures += o.signatures;
    }
}

/// The traced pass of one workload.
pub struct Trace {
    epoch: Instant,
    /// Per-cell spans, in execution order.
    pub cells: Vec<CellSpans>,
    /// Per-layer counts.
    pub counts: Counts,
    /// Wall of the traced pass, set by [`Trace::finish`].
    pub wall: f64,
    /// Time outside any cell but inside the traced pass, charged to
    /// extra work (e.g. a whole reference pass run before the cells).
    pub extra_outside_cells: f64,
}

impl Trace {
    /// Starts the traced pass's clock.
    pub fn start() -> Trace {
        Trace {
            epoch: Instant::now(),
            cells: Vec::new(),
            counts: Counts::default(),
            wall: 0.0,
            extra_outside_cells: 0.0,
        }
    }

    /// Opens a cell at the current time.
    pub fn open(&self, name: String) -> CellSpans {
        CellSpans {
            name,
            start: self.epoch.elapsed().as_secs_f64(),
            wall: 0.0,
            times: [0.0; Layer::ALL.len()],
            loop_pool: 0.0,
            loop_samples: [0.0; 4],
        }
    }

    /// Sets `cell`'s wall from its start to the current time.
    pub fn seal(&self, cell: &mut CellSpans) {
        cell.wall = self.epoch.elapsed().as_secs_f64() - cell.start;
    }

    /// Keeps a sealed cell and its counts.
    pub fn add(&mut self, cell: CellSpans, counts: Counts) {
        self.cells.push(cell);
        self.counts.merge(&counts);
    }

    /// Ends the traced pass and splits every loop copy's wall between
    /// the emulator step, the pipeline and the shadow hierarchy, in
    /// the proportions of the sampled durations; the rest of the loop
    /// (dropping pre-images, loop control) stays in `engine.other_s`.
    /// A clock read is a speculation barrier, so a timed step runs
    /// slower than an untimed one: the samples give the shares and the
    /// loop's own wall, read once, gives the total. A cell with few
    /// samples (under [`MIN_OWN_SAMPLES_S`]; a fuzz case is about thirty
    /// steps) is split by the proportions pooled over all cells.
    pub fn finish(&mut self) {
        self.wall = self.epoch.elapsed().as_secs_f64();
        let mut pooled = [0.0; 4];
        for cell in &self.cells {
            for (a, b) in pooled.iter_mut().zip(cell.loop_samples) {
                *a += b;
            }
        }
        for cell in &mut self.cells {
            let own: f64 = cell.loop_samples.iter().sum();
            let shares = if own > MIN_OWN_SAMPLES_S {
                cell.loop_samples
            } else {
                pooled
            };
            let total: f64 = shares.iter().sum();
            if total <= 0.0 {
                continue;
            }
            for (layer, share) in [Layer::Step, Layer::Process, Layer::Shadow]
                .into_iter()
                .zip(shares)
            {
                cell.add(layer, cell.loop_pool * share / total);
            }
        }
    }

    /// Total time of `layer` over every cell.
    pub fn total(&self, layer: Layer) -> f64 {
        let inside: f64 = self.cells.iter().map(|c| c.time(layer)).sum();
        if layer == Layer::Check {
            inside + self.extra_outside_cells
        } else {
            inside
        }
    }

    /// Time of the extra work the tracing adds (reported beside the sum).
    pub fn extra(&self) -> f64 {
        Layer::ALL
            .iter()
            .filter(|l| !l.in_sum())
            .map(|&l| self.total(l))
            .sum()
    }

    /// `engine.other_s`: the traced wall minus extra work and minus the
    /// time inside every timed layer call.
    pub fn other(&self) -> f64 {
        let layers: f64 = Layer::ALL
            .iter()
            .filter(|l| l.in_sum())
            .map(|&l| self.total(l))
            .sum();
        self.wall - self.extra() - layers
    }

    /// The exact-sum check. `engine.other_s` is the residual of the
    /// traced wall, so layer self times plus it add up to the traced
    /// wall less the extra work by construction; what can fail is the
    /// residual itself. The split is a true partition only if no layer
    /// time is negative, the timed calls of each cell fit inside the
    /// cell (its residual is not negative), and the cells and the extra
    /// work outside them fit inside the pass. Returns a description of
    /// the first violation.
    pub fn check_exact_sum(&self) -> Result<(), String> {
        if let Some(l) = Layer::ALL.iter().find(|&&l| self.total(l) < 0.0) {
            return Err(format!("{} is negative", l.metric()));
        }
        if let Some(c) = self
            .cells
            .iter()
            .find(|c| c.other() < -1e-9 * c.wall.max(1.0))
        {
            return Err(format!(
                "timed calls exceed cell {} by {} s",
                c.name,
                -c.other()
            ));
        }
        let cell_walls: f64 = self.cells.iter().map(|c| c.wall).sum();
        if cell_walls + self.extra_outside_cells > self.wall * (1.0 + 1e-9) {
            return Err(format!(
                "cells cover {cell_walls} s of a {} s pass",
                self.wall
            ));
        }
        Ok(())
    }

    /// The spans as a Perfetto (Chrome trace-event) document: one slice
    /// per cell, and under it the cell's layer self times laid end to
    /// end, so the split tiles the cell. Timestamps are host
    /// microseconds since the traced pass began.
    pub fn perfetto(&self, workload: &str) -> PerfettoTrace {
        let mut trace = PerfettoTrace::new(&format!("perfbench {workload}"));
        let cells = trace.track("cells");
        let layers = trace.track("layer self time");
        let extra = trace.track("extra work (outside the sum)");
        let us = |secs: f64| (secs * 1e6).round().max(0.0) as u64;
        for cell in &self.cells {
            trace.slice(
                cells,
                &cell.name,
                "cell",
                us(cell.start),
                us(cell.wall),
                vec![("wall_s", Json::Num(cell.wall))],
            );
            let mut at = cell.start;
            let mut extra_at = cell.start;
            for &layer in Layer::ALL.iter() {
                let secs = cell.time(layer);
                if secs <= 0.0 {
                    continue;
                }
                let (track, cursor) = if layer.in_sum() {
                    (layers, &mut at)
                } else {
                    (extra, &mut extra_at)
                };
                trace.slice(
                    track,
                    layer.metric(),
                    "layer",
                    us(*cursor),
                    us(secs),
                    vec![
                        ("cell", Json::from(cell.name.as_str())),
                        ("secs", Json::Num(secs)),
                    ],
                );
                *cursor += secs;
            }
            let other = cell.other();
            if other > 0.0 {
                trace.slice(
                    layers,
                    "engine.other_s",
                    "layer",
                    us(at),
                    us(other),
                    vec![
                        ("cell", Json::from(cell.name.as_str())),
                        ("secs", Json::Num(other)),
                    ],
                );
            }
        }
        trace
    }
}
