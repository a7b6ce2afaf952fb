//! `functional-ref`: `Emulator::run_functional` at each execution tier
//! over the 16 figure rows × {plain, asan, rest-secure-full}. It never
//! touches `Pipeline` or `Hierarchy`, so a timing-path change must read
//! "no change" here.

use std::sync::Mutex;
use std::time::Instant;

use rest_bench::engine::Engine;
use rest_bench::stack_for;
use rest_cpu::{Emulator, ExecEngine, ExecTier, SimConfig, StopReason};
use rest_isa::Program;
use rest_runtime::RtConfig;
use rest_workloads::WorkloadParams;

use crate::calib::{Calibration, Setup};
use crate::fig7::rows;
use crate::layers::{CellSpans, Counts, Layer, Trace};
use crate::report::{end_to_end, per_layer, Metric, Passes, Report, TracedExtras};
use crate::stats::Digest;
use crate::Args;

const TIERS: [ExecTier; 3] = [ExecTier::Reference, ExecTier::Fast, ExecTier::Trace];

/// One cell: a row under one scheme, with its guest program.
struct Cell {
    name: String,
    rt: RtConfig,
    program: Program,
}

/// What one tier's run of a cell produced.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TierRun {
    stop: StopReason,
    insts: u64,
    uops: u64,
    output: Vec<u8>,
}

fn schemes() -> Vec<RtConfig> {
    vec![
        RtConfig::plain(),
        RtConfig::asan(),
        RtConfig::from_label("rest-secure-full").expect("rest-secure-full label"),
    ]
}

/// Builds every cell's guest program.
fn build(args: &Args) -> Vec<Cell> {
    let mut cells = Vec::new();
    for row in rows(args.perturb()) {
        for rt in schemes() {
            let params = WorkloadParams {
                scale: args.scale,
                stack_scheme: stack_for(&rt),
                token_width: rt.token_width,
                seed: row.seed,
            };
            cells.push(Cell {
                name: format!("{} {}", row.name, rt.label()),
                program: row.workload.build(&params),
                rt,
            });
        }
    }
    cells
}

/// Runs `cell` at `tier`. The program copy is made before `span`'s
/// clock starts; construction is charged to `system.new`, the run to
/// the tier.
fn run_tier(cell: &Cell, tier: ExecTier, span: &mut CellSpans, counts: &mut Counts) -> TierRun {
    let mut cfg = SimConfig::isca2018(cell.rt.clone());
    cfg.tier = tier;
    let program = cell.program.clone();
    let mut emu = span.timed(Layer::SystemNew, || Emulator::new(program, &cfg));
    let layer = match tier {
        ExecTier::Reference => Layer::FnReference,
        ExecTier::Fast => Layer::FnFast,
        ExecTier::Trace => Layer::FnTrace,
    };
    span.timed(layer, || {
        emu.run_functional();
    });
    let ti = TIERS.iter().position(|&t| t == tier).expect("listed tier");
    counts.machines += 1;
    counts.fn_insts[ti] += emu.insts();
    counts.backend_checks += emu.backend().check_count();
    if tier == ExecTier::Fast {
        let (inval, redecoded) = emu.decode_cache_stats();
        counts.decode_invalidations += inval;
        counts.redecoded += redecoded;
    }
    if tier == ExecTier::Trace {
        let (compiled, invalidated) = emu.trace_stats();
        counts.compiled += compiled;
        counts.invalidated += invalidated;
        counts.traced_insts += emu.traced_insts();
    }
    TierRun {
        stop: emu.take_stop().unwrap_or(StopReason::Halted),
        insts: emu.insts(),
        uops: emu.uops(),
        output: emu.runtime().output().to_vec(),
    }
}

/// Judges every cell (all three tiers agree on stop, instructions,
/// micro-ops and output, and the stop is `Exit(0)`) and digests the
/// reference tier's results. `runs[cell][tier]`.
fn judge(cells: &[Cell], runs: &[Vec<TierRun>], report: &mut Report) -> Digest {
    let mut digest = Digest::default();
    report.attempted = cells.len() as u64;
    report.failed = 0;
    for (cell, tiers) in cells.iter().zip(runs) {
        let r = &tiers[0];
        digest.bytes(cell.name.as_bytes());
        digest.bytes(format!("{:?}", r.stop).as_bytes());
        digest.bytes(&r.insts.to_le_bytes());
        digest.bytes(&r.uops.to_le_bytes());
        digest.bytes(&r.output);
        if tiers.iter().any(|t| t != r) {
            report.fail(format!("{}: tiers disagree", cell.name));
        } else if r.stop != StopReason::Exit(0) {
            report.fail(format!("{}: stopped with {:?}", cell.name, r.stop));
        }
    }
    digest
}

/// One timed tier run: its span, counts, result, and the calibration
/// sample nearest before it.
struct Timed {
    span: CellSpans,
    counts: Counts,
    run: TierRun,
    nearest: usize,
}

/// One pass: every cell at every tier, through the engine's task
/// runner. With `cal`, the calibration kernel may run before each run
/// (outside its span); returns the kernel seconds spent.
fn pass(cells: &[Cell], trace: &Trace, cal: Option<&Mutex<Calibration>>) -> (Vec<Timed>, f64) {
    let n = cells.len() * TIERS.len();
    let kernel = Mutex::new(0.0);
    let out = Engine::new(1).run_tasks(n, |i| {
        let nearest = cal.map_or(0, |cal| {
            let mut cal = cal.lock().expect("calibration lock");
            *kernel.lock().expect("kernel lock") += cal.maybe_sample();
            cal.latest()
        });
        let (cell, tier) = (&cells[i / TIERS.len()], TIERS[i % TIERS.len()]);
        let mut span = trace.open(format!("{} {}", cell.name, tier.label()));
        let mut counts = Counts::default();
        let run = run_tier(cell, tier, &mut span, &mut counts);
        trace.seal(&mut span);
        Timed {
            span,
            counts,
            run,
            nearest,
        }
    });
    (out, kernel.into_inner().expect("kernel lock"))
}

fn by_cell(runs: Vec<TierRun>) -> Vec<Vec<TierRun>> {
    let mut out = Vec::new();
    let mut it = runs.into_iter();
    loop {
        let tiers: Vec<TierRun> = it.by_ref().take(TIERS.len()).collect();
        if tiers.is_empty() {
            return out;
        }
        out.push(tiers);
    }
}

/// Per-tier MIPS from per-item times (`times[cell * 3 + tier]`).
fn tier_mips(runs: &[Vec<TierRun>], times: &[f64]) -> [f64; 3] {
    let mut mips = [0.0; 3];
    for (t, m) in mips.iter_mut().enumerate() {
        let insts: u64 = runs.iter().map(|tiers| tiers[t].insts).sum();
        let secs: f64 = times.iter().skip(t).step_by(TIERS.len()).sum();
        *m = insts as f64 / secs / 1e6;
    }
    mips
}

/// The untraced run: passes over every cell and tier until
/// `--seconds` is used.
pub fn untraced(args: &Args) -> Report {
    let mut report = Report::default();
    let mut cal = Calibration::default();
    let mut setup = Setup::default();
    cal.sample();
    let cells = setup.burst(&cal, || build(args));
    let cal = Mutex::new(cal);
    let mut passes = Passes::default();
    let mut first: Option<(u64, Vec<Vec<TierRun>>)> = None;
    let mut deterministic = true;
    let start = Instant::now();
    loop {
        let mut kernel = cal.lock().expect("calibration lock").sample();
        let trace = Trace::start();
        let t = Instant::now();
        let (out, k) = pass(&cells, &trace, Some(&cal));
        kernel += k + cal.lock().expect("calibration lock").sample();
        let wall = t.elapsed().as_secs_f64();
        let factors = {
            let c = cal.lock().expect("calibration lock");
            out.iter().map(|o| c.factor_near(o.nearest)).collect()
        };
        passes.push(
            wall,
            out.iter().map(|o| o.span.wall).collect(),
            factors,
            kernel,
        );
        let runs = by_cell(out.into_iter().map(|o| o.run).collect());
        let digest = judge(&cells, &runs, &mut report).value();
        match &first {
            None => first = Some((digest, runs)),
            Some((d, _)) => deterministic &= *d == digest,
        }
        if !args.another_pass(start, passes.len()) {
            break;
        }
        setup.burst(&cal.lock().expect("calibration lock"), || build(args));
    }
    let cal = cal.into_inner().expect("calibration lock");
    let (digest, runs) = first.expect("at least one pass");
    report
        .checks
        .push(("same results on every pass".to_string(), deterministic));
    report.notes.push(format!(
        "results digest {digest:#018x} over {} cells",
        cells.len()
    ));
    let insts: u64 = runs.iter().flatten().map(|r| r.insts).sum();
    end_to_end(&mut report, &cal, &setup, &passes, insts);
    for (scaled, prefix) in [(true, ""), (false, "raw.")] {
        let mips = tier_mips(&runs, &passes.item_times(scaled));
        for (tier, m) in TIERS.iter().zip(mips) {
            report.info.push(Metric::new(
                format!("{prefix}functional_mips_{}", tier.label()),
                m,
                "Minst/s",
            ));
        }
    }
    report
}

/// The traced run: one pass with every call timed. Only whole calls
/// are timed here (one span per tier run), so the tracing adds two
/// clock reads per run; the untraced wall it is compared with is a
/// second, untimed pass over the same cells.
pub fn traced(args: &Args) -> (Report, Trace) {
    let mut report = Report::default();
    let mut trace = Trace::start();
    let cells = {
        let mut span = trace.open("build".to_string());
        let built = span.timed(Layer::Build, || build(args));
        trace.seal(&mut span);
        trace.add(span, Counts::default());
        built
    };
    let t = Instant::now();
    let (out, _) = pass(&cells, &trace, None);
    let traced_wall = t.elapsed().as_secs_f64();
    let times: Vec<f64> = out.iter().map(|o| o.span.wall).collect();
    let mut runs = Vec::new();
    for o in out {
        trace.add(o.span, o.counts);
        runs.push(o.run);
    }
    let runs = by_cell(runs);
    let digest = judge(&cells, &runs, &mut report).value();
    report.notes.push(format!(
        "results digest {digest:#018x} over {} cells",
        cells.len()
    ));

    // The same pass again with no spans: the untraced wall.
    let t = Instant::now();
    let untimed = Engine::new(1).run_tasks(cells.len() * TIERS.len(), |i| {
        let (cell, tier) = (&cells[i / TIERS.len()], TIERS[i % TIERS.len()]);
        let mut cfg = SimConfig::isca2018(cell.rt.clone());
        cfg.tier = tier;
        let mut emu = Emulator::new(cell.program.clone(), &cfg);
        emu.run_functional();
        emu.insts()
    });
    let untraced_wall = t.elapsed().as_secs_f64();
    trace.extra_outside_cells += untraced_wall;
    trace.finish();
    trace.counts.jobs = untimed.len() as u64;
    let x = TracedExtras {
        functional_mips: tier_mips(&runs, &times),
        traced_wall,
        untraced_wall,
        ..TracedExtras::default()
    };
    per_layer(&mut report, &trace, &x);
    (report, trace)
}
