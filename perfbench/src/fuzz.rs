//! `fuzz-campaign`: a fixed-seed `CaseStream` of generated cases, each
//! judged by `rest_fuzz::run_case` under `campaign_rt()` through
//! `Engine::run_tasks`, and the `truth/class` signature table the `fuzz`
//! binary builds from them. A case is about thirty guest instructions,
//! so its time goes to building machines and linting, not to
//! simulating.
//!
//! The `fuzz` binary also minimises the first case of each signature.
//! That step is left out: in release builds a minimisation candidate
//! can loop forever on the guest address wraparound defect (with
//! `--seed 3`, the oob-write exemplar, case 2, never finishes), so a
//! run could not end in bounded time.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use rest_bench::engine::Engine;
use rest_cpu::{Emulator, ExecEngine, ExecTier, SimConfig, StopReason};
use rest_fuzz::{campaign_rt, lower, run_case, Case, CaseRecord, CaseStream};
use rest_runtime::RtConfig;
use rest_verify::{verify_program, Severity};

use crate::calib::{Calibration, Setup};
use crate::layers::{CellSpans, Counts, Layer, Trace};
use crate::report::{end_to_end, per_layer, Passes, Report, TracedExtras};
use crate::stats::{Digest, Sampler};
use crate::timing::run_loop;
use crate::Args;

/// The committed campaign seed (`results/fuzz.json`).
const FUZZ_SEED: u64 = 0xf0cc_5eed;

/// Cases per pass at ref scale (the committed campaign's size) and at
/// test scale.
fn case_count(args: &Args) -> usize {
    match args.scale {
        rest_workloads::Scale::Ref => 10_000,
        rest_workloads::Scale::Test => 400,
    }
}

fn generate(seed: u64, n: usize) -> Vec<Case> {
    let mut stream = CaseStream::new(seed);
    (0..n).map(|_| stream.next_case()).collect()
}

/// The `truth/class` signature of a judged case.
fn signature(case: &Case, rec: &CaseRecord) -> String {
    format!("{}/{}", case.truth.name(), rec.class.name())
}

/// Digests every case record and the signature table, counts the
/// signatures and fails every case whose class is not explained.
fn judge(cases: &[Case], recs: &[CaseRecord], report: &mut Report) -> (Digest, usize) {
    let mut digest = Digest::default();
    let mut sigs: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    report.attempted = cases.len() as u64;
    report.failed = 0;
    for (case, rec) in cases.iter().zip(recs) {
        digest.bytes(rec.class.name().as_bytes());
        digest.bytes(rec.stop.as_bytes());
        digest.bytes(rec.detail.as_bytes());
        digest.bytes(&[u8::from(rec.detected), u8::from(rec.musttrap)]);
        for v in [
            rec.static_errors,
            rec.static_findings,
            rec.insts,
            rec.cycles,
        ] {
            digest.bytes(&v.to_le_bytes());
        }
        digest.bytes(&rec.output);
        sigs.entry(signature(case, rec))
            .or_insert((0, case.index))
            .0 += 1;
        if !rec.class.is_explained() {
            report.fail(format!(
                "case {}: unexplained class {}",
                case.index,
                rec.class.name()
            ));
        }
    }
    for (sig, (count, first)) in &sigs {
        digest.bytes(sig.as_bytes());
        digest.bytes(&count.to_le_bytes());
        digest.bytes(&first.to_le_bytes());
    }
    (digest, sigs.len())
}

/// The untraced run: campaign passes over the same cases until
/// `--seconds` is used.
pub fn untraced(args: &Args) -> Report {
    let n = case_count(args);
    let seed = FUZZ_SEED ^ args.perturb();
    let rt = campaign_rt();
    let mut report = Report::default();
    let mut cal = Calibration::default();
    let mut setup = Setup::default();
    cal.sample();
    let cases = setup.burst(&cal, || generate(seed, n));
    let cal = Mutex::new(cal);
    let lock = || cal.lock().expect("calibration lock");
    let mut passes = Passes::default();
    let mut first: Option<(u64, u64, usize)> = None;
    let mut deterministic = true;
    let start = Instant::now();
    loop {
        let kernel = Mutex::new(lock().sample());
        let engine = Engine::new(1);
        let t = Instant::now();
        let judged = engine.run_tasks(n, |i| {
            let nearest = {
                let mut cal = lock();
                *kernel.lock().expect("kernel lock") += cal.maybe_sample();
                cal.latest()
            };
            let t = Instant::now();
            let rec = run_case(&cases[i], &rt);
            (rec, t.elapsed().as_secs_f64(), nearest)
        });
        let mut recs = Vec::with_capacity(n);
        let (mut times, mut factors) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for (rec, secs, nearest) in judged {
            recs.push(rec);
            times.push(secs);
            factors.push(lock().factor_near(nearest));
        }
        let (digest, sigs) = judge(&cases, &recs, &mut report);
        let kernel = kernel.into_inner().expect("kernel lock") + lock().sample();
        let wall = t.elapsed().as_secs_f64();
        passes.push(wall, times, factors, kernel);
        match first {
            None => {
                let insts: u64 = recs.iter().map(|r| r.insts).sum();
                first = Some((digest.value(), insts, sigs));
            }
            Some((d, _, _)) => deterministic &= d == digest.value(),
        }
        if !args.another_pass(start, passes.len()) {
            break;
        }
        setup.burst(&lock(), || generate(seed, n));
    }
    let (digest, insts, sigs) = first.expect("at least one pass");
    let cal = cal.into_inner().expect("calibration lock");
    report
        .checks
        .push(("same records on every pass".to_string(), deterministic));
    report.notes.push(format!(
        "records + signature digest {digest:#018x} over {n} cases, {sigs} signatures (seed {seed:#x})"
    ));
    // Each case runs its program at three functional tiers and once on
    // the timing path.
    end_to_end(&mut report, &cal, &setup, &passes, 4 * insts);
    report
}

/// `run_case`'s stop label.
fn stop_label(stop: &StopReason) -> String {
    match stop {
        StopReason::Exit(0) => "exit-0".to_string(),
        StopReason::Exit(code) => format!("exit-{code}"),
        StopReason::Halted => "halted".to_string(),
        StopReason::Violation(_) => "violation".to_string(),
        StopReason::UopLimit => "uop-limit".to_string(),
        StopReason::CycleLimit => "cycle-limit".to_string(),
        StopReason::Fault(_) => "guest-fault".to_string(),
    }
}

/// What the timed copy of the three oracles observed, in the fields
/// `run_case` records.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    stop: String,
    detected: bool,
    musttrap: bool,
    static_errors: u64,
    static_findings: u64,
    output: Vec<u8>,
    insts: u64,
    cycles: u64,
}

impl Observed {
    fn of(rec: &CaseRecord) -> Observed {
        Observed {
            stop: rec.stop.clone(),
            detected: rec.detected,
            musttrap: rec.musttrap,
            static_errors: rec.static_errors,
            static_findings: rec.static_findings,
            output: rec.output.clone(),
            insts: rec.insts,
            cycles: rec.cycles,
        }
    }
}

/// The three oracles of `run_case`, called one layer at a time: lint,
/// the functional emulator at each tier, and the timing path through
/// the loop copy. `None` when the tiers or the timing path disagree
/// (`run_case` then classes the case as a divergence).
fn oracles(
    case: &Case,
    rt: &RtConfig,
    sampler: &mut Sampler,
    span: &mut CellSpans,
    counts: &mut Counts,
) -> Option<Observed> {
    let program = span.timed(Layer::Lower, || lower(case));
    let lint = span.timed(Layer::Verify, || verify_program(&program));
    counts.programs_verified += 1;
    counts.findings += lint.findings.len() as u64;
    let mut runs = Vec::new();
    for (ti, (tier, layer)) in [
        (ExecTier::Reference, Layer::FnReference),
        (ExecTier::Fast, Layer::FnFast),
        (ExecTier::Trace, Layer::FnTrace),
    ]
    .into_iter()
    .enumerate()
    {
        let mut cfg = SimConfig::isca2018(rt.clone());
        cfg.tier = tier;
        let program = span.timed(Layer::Lower, || lower(case));
        let mut emu = span.timed(Layer::SystemNew, || Emulator::new(program, &cfg));
        span.timed(layer, || {
            emu.run_functional();
        });
        counts.machines += 1;
        counts.fn_insts[ti] += emu.insts();
        if tier == ExecTier::Trace {
            let (compiled, invalidated) = emu.trace_stats();
            counts.compiled += compiled;
            counts.invalidated += invalidated;
            counts.traced_insts += emu.traced_insts();
        }
        let stop = emu.take_stop().expect("run_functional stops");
        let deferred = emu.take_deferred().is_some();
        runs.push((
            stop_label(&stop),
            matches!(stop, StopReason::Violation(_)) || deferred,
            emu.runtime().output().to_vec(),
            emu.insts(),
        ));
    }
    let cfg = SimConfig::isca2018(rt.clone());
    let program = span.timed(Layer::Lower, || lower(case));
    let timing = run_loop(program, &cfg, false, sampler, span, counts);
    let (stop, detected, output, insts) = runs[0].clone();
    let agree = runs.iter().all(|r| *r == runs[0])
        && stop_label(&timing.stop) == stop
        && timing.output == output
        && timing.stat("core.insts") == insts;
    agree.then(|| Observed {
        stop,
        detected,
        musttrap: lint.has_must_trap(),
        static_errors: lint.at_least(Severity::Error).count() as u64,
        static_findings: lint.findings.len() as u64,
        output,
        insts,
        cycles: timing.stat("core.cycles"),
    })
}

/// The traced run: generate, then per case the oracles called one
/// layer at a time and `run_case` itself as the check (a case fails
/// unless both observe the same and its class is explained).
pub fn traced(args: &Args) -> (Report, Trace) {
    let n = case_count(args);
    let seed = FUZZ_SEED ^ args.perturb();
    let rt = campaign_rt();
    let mut report = Report::default();
    let mut trace = Trace::start();

    let mut span = trace.open("generate".to_string());
    let cases = span.timed(Layer::Gen, || generate(seed, n));
    trace.seal(&mut span);
    trace.add(span, Counts::default());

    let engine = Engine::new(1);
    let judged = engine.run_tasks(n, |i| {
        let mut span = trace.open(format!("case {}", cases[i].index));
        let mut counts = Counts::default();
        let mut sampler = Sampler::new(i as u64);
        let observed = oracles(&cases[i], &rt, &mut sampler, &mut span, &mut counts);
        let rec = span.timed(Layer::Check, || run_case(&cases[i], &rt));
        trace.seal(&mut span);
        (span, counts, observed, rec)
    });
    let (mut traced_wall, mut untraced_wall) = (0.0, 0.0);
    let mut recs = Vec::new();
    let mut mismatched = Vec::new();
    for (span, counts, observed, rec) in judged {
        if observed.as_ref() != Some(&Observed::of(&rec)) && rec.class.is_explained() {
            mismatched.push(span.name.clone());
        }
        untraced_wall += span.time(Layer::Check);
        traced_wall += span.wall - span.time(Layer::Check);
        trace.add(span, counts);
        recs.push(rec);
    }
    let (digest, sigs) = judge(&cases, &recs, &mut report);
    for name in mismatched {
        report.fail(format!(
            "{name}: the layer-by-layer oracles differ from run_case"
        ));
    }
    trace.finish();
    trace.counts.jobs = n as u64;
    trace.counts.signatures = sigs as u64;
    report.notes.push(format!(
        "records + signature digest {:#018x} over {n} cases, {sigs} signatures (seed {seed:#x})",
        digest.value()
    ));
    let x = TracedExtras {
        traced_wall,
        untraced_wall,
        ..TracedExtras::default()
    };
    per_layer(&mut report, &trace, &x);
    (report, trace)
}
