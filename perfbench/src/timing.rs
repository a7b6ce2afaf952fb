//! A copy of the `System::run` loop built from public calls, with the
//! calls into each layer timed from outside, and an optional shadow
//! hierarchy that receives the same micro-ops.
//!
//! The loop mirrors `System::run` for the configurations this
//! benchmark runs (no profiling, sampling, pipeline trace, fault or
//! cycle budget): step the emulator, replay the batch through
//! `Pipeline::process`, drop the line pre-images, and finish. The
//! traced run checks that it reproduces `System::run`'s `stats_map`
//! exactly.

use std::time::Instant;

use rest_cpu::{stats_map_parts, Emulator, ExecEngine, Pipeline, SimConfig, StopReason};
use rest_isa::{Component, Inst, Program, PC_STEP};
use rest_mem::Hierarchy;

use crate::layers::{CellSpans, Counts, Layer};
use crate::stats::Sampler;

/// What the loop copy produced.
#[derive(Debug)]
pub struct LoopRun {
    /// Why the guest stopped.
    pub stop: StopReason,
    /// Guest output bytes.
    pub output: Vec<u8>,
    /// The run's full counter map, as `SimResult::stats_map` builds it.
    pub stats: Vec<(&'static str, u64)>,
}

impl LoopRun {
    /// One counter of the map (0 when absent).
    pub fn stat(&self, key: &str) -> u64 {
        self.stats
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0, |&(_, v)| v)
    }
}

/// Marks the PCs holding an `ecall`: those steps are always timed, the
/// rest are sampled.
fn ecall_table(program: &Program) -> Vec<bool> {
    program
        .instructions()
        .iter()
        .map(|inst| matches!(inst, Inst::Ecall))
        .collect()
}

/// Runs `program` under `cfg` through the loop copy, charging host time
/// to `cell` and counts to `counts`. With `shadow`, every micro-op is
/// also replayed into a second `Hierarchy`, stamped with the pipeline's
/// commit frontier as that micro-op entered `process` and reading the
/// same line pre-images. (Stamping a whole batch with the frontier
/// after it doubled lbm's shadow L1-D misses; per micro-op they match
/// the real run's within 1 %.)
pub fn run_loop(
    program: Program,
    cfg: &SimConfig,
    shadow: bool,
    sampler: &mut Sampler,
    cell: &mut CellSpans,
    counts: &mut Counts,
) -> LoopRun {
    let ecalls = ecall_table(&program);
    let base = Program::CODE_BASE;
    let (mut emu, mut pipe) = cell.timed(Layer::SystemNew, || {
        let emu = Emulator::new(program, cfg);
        let hier = Hierarchy::new(cfg.mem.clone());
        let mut pipe = Pipeline::new(cfg.core.clone(), hier, cfg.rt.mode);
        pipe.enable_trace(cfg.trace_uops);
        (emu, pipe)
    });
    counts.machines += 1;
    let mut shadow_hier =
        shadow.then(|| cell.timed(Layer::Shadow, || Hierarchy::new(cfg.mem.clone())));
    let mode = cfg.rt.mode;
    let mut fetch_line = u64::MAX;

    // Sampled phase durations (step, process, shadow, the rest of the
    // loop) and exactly timed ecall-step nanoseconds.
    let mut sampled = [0u128; 4];
    let (mut step_exact, mut ecall_exact) = (0u128, 0u128);
    let (mut ecall_steps, mut shadow_calls) = (0u64, 0u64);

    let loop_start = Instant::now();
    let mut batch = Vec::with_capacity(64);
    let mut stamps = Vec::with_capacity(64);
    loop {
        batch.clear();
        let pc = emu.pc();
        let at_ecall = pc
            .checked_sub(base)
            .and_then(|off| ecalls.get((off / PC_STEP) as usize))
            .copied()
            .unwrap_or(false);
        let timed = sampler.tick();
        let t0 = (timed || at_ecall).then(Instant::now);
        if !emu.step(&mut batch) {
            break;
        }
        let t1 = t0.map(|t0| {
            let t1 = Instant::now();
            let ns = (t1 - t0).as_nanos();
            if at_ecall {
                let runtime = batch
                    .iter()
                    .any(|d| matches!(d.component, Component::Allocator | Component::ApiIntercept));
                if runtime {
                    ecall_steps += 1;
                    ecall_exact += ns;
                } else {
                    step_exact += ns;
                }
            } else {
                sampled[0] += ns;
            }
            t1
        });
        pipe.note_inst(emu.insts());
        stamps.clear();
        for d in &batch {
            if shadow_hier.is_some() {
                stamps.push(pipe.current_cycles());
            }
            pipe.process(d, &emu.mem, emu.token());
        }
        let t2 = timed.then(Instant::now);
        if let (Some(t1), Some(t2)) = (t1, t2) {
            sampled[1] += (t2 - t1).as_nanos();
        }
        if let Some(h) = shadow_hier.as_mut() {
            for (d, &now) in batch.iter().zip(&stamps) {
                if d.pc / 64 != fetch_line {
                    h.fetch_inst(now, d.pc, &emu.mem, emu.token());
                    fetch_line = d.pc / 64;
                    shadow_calls += 1;
                }
                if let Some(m) = d.mem {
                    h.access_data(now, m.kind, m.addr, m.size, &emu.mem, emu.token(), mode);
                    shadow_calls += 1;
                }
            }
        }
        let t3 = timed.then(Instant::now);
        if let (Some(t2), Some(t3)) = (t2, t3) {
            sampled[2] += (t3 - t2).as_nanos();
        }
        emu.mem.clear_pre_images();
        if let Some(t3) = t3 {
            sampled[3] += t3.elapsed().as_nanos();
        }
    }
    let loop_ns = loop_start.elapsed().as_nanos();
    let mut core = cell.timed(Layer::Process, || pipe.finish());
    core.insts = emu.insts();
    core.elided_checks = emu.elided_checks();

    // Non-ecall steps are timed only when sampled: the samples split
    // the loop's wall between layers (see `Trace::finish`).
    cell.add(Layer::Step, step_exact as f64 * 1e-9);
    cell.add(Layer::Ecall, ecall_exact as f64 * 1e-9);
    if shadow_hier.is_none() {
        // Without a shadow the third phase is an empty clock interval.
        sampled[3] += sampled[2];
        sampled[2] = 0;
    }
    let pool = loop_ns.saturating_sub(step_exact + ecall_exact) as f64 * 1e-9;
    cell.add_loop(pool, sampled.map(|ns| ns as f64 * 1e-9));

    let run = LoopRun {
        stop: emu.take_stop().unwrap_or(StopReason::Halted),
        output: emu.runtime().output().to_vec(),
        stats: stats_map_parts(&core, pipe.mem_stats(), emu.runtime().allocator().stats()),
    };
    let (invalidations, redecoded) = emu.decode_cache_stats();
    counts.insts += core.insts;
    counts.ecall_steps += ecall_steps;
    counts.uops += core.uops;
    counts.runtime_uops += run.stat("core.uops_allocator") + run.stat("core.uops_api_intercept");
    counts.check_uops += run.stat("core.uops_access_check");
    counts.sim_cycles += core.cycles;
    counts.backend_checks += emu.backend().check_count();
    counts.decode_invalidations += invalidations;
    counts.redecoded += redecoded;
    counts.mem.merge(pipe.mem_stats());
    if let Some(h) = &shadow_hier {
        counts.shadow_calls += shadow_calls;
        counts.shadow_l1d_misses += h.stats().l1d_misses;
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use rest_bench::{fig7_configs, figure_rows, stack_for};
    use rest_cpu::System;
    use rest_runtime::RtConfig;
    use rest_workloads::{Scale, WorkloadParams};

    use crate::layers::Trace;

    /// The loop copy (with its shadow hierarchy) reproduces
    /// `System::run` exactly on one fig7 cell per scheme.
    #[test]
    fn loop_copy_matches_system_run_on_one_cell_per_scheme() {
        let row = figure_rows()
            .into_iter()
            .find(|r| r.name == "hmmer")
            .expect("hmmer row");
        let trace = Trace::start();
        for rt in std::iter::once(RtConfig::plain()).chain(fig7_configs()) {
            let params = WorkloadParams {
                scale: Scale::Test,
                stack_scheme: stack_for(&rt),
                token_width: rt.token_width,
                seed: row.seed,
            };
            let program = row.workload.build(&params);
            let cfg = SimConfig::isca2018(rt.clone());
            let reference = System::new(program.clone(), cfg.clone()).run();
            let mut cell = trace.open(rt.label());
            let mut counts = Counts::default();
            let run = run_loop(
                program,
                &cfg,
                true,
                &mut Sampler::new(1),
                &mut cell,
                &mut counts,
            );
            assert_eq!(run.stats, reference.stats_map(), "{}", rt.label());
            assert_eq!(run.stop, reference.stop, "{}", rt.label());
            assert_eq!(run.output, reference.output, "{}", rt.label());
            assert!(counts.shadow_calls > 0);
        }
    }
}
