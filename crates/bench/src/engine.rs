//! Shared experiment engine: declarative simulation jobs, a
//! deterministic thread-pool runner, and job matrices.
//!
//! Every harness binary describes its experiment as a [`MatrixSpec`]
//! (benchmark rows × hardened configurations) or a list of [`SimJob`]s
//! and hands it to an [`Engine`]. The engine:
//!
//! * fans independent `System::run()` calls across `--jobs N` worker
//!   threads (each simulation is single-threaded and independent),
//! * caches results by job identity, so the plain baseline for a
//!   benchmark is simulated once even when several matrices or columns
//!   share it,
//! * converts panicking or failing simulations into structured
//!   [`JobError`]s instead of aborting the whole sweep,
//! * reports per-job progress and wall time on **stderr** only —
//!   results (stdout tables, JSON) contain no timing, so the same job
//!   matrix produces byte-identical output at any `--jobs` level.
//!
//! Results are assembled strictly in job-submission order; worker
//! scheduling affects only wall-clock time.

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rest_cpu::{ExecTier, SimConfig, SimResult, StopReason, System};
use rest_obs::JobTiming;
use rest_runtime::RtConfig;
use rest_workloads::{Scale, Workload, WorkloadParams};

use crate::{fnv1a, stack_for, FigureRow};

/// Which pipeline model a job runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreKind {
    /// The paper's Table II 8-wide out-of-order core.
    OutOfOrder,
    /// The narrow in-order core (Figure 3's measurement platform).
    InOrder,
}

/// One simulation to run: a benchmark row under one configuration.
///
/// The job is pure data; [`SimJob::execute`] performs the simulation.
/// Two jobs with identical simulation-relevant fields (everything
/// except the display `label`) are the same experiment and share one
/// cached result in the [`Engine`].
#[derive(Debug, Clone)]
pub struct SimJob {
    /// Row display name (`"gobmk-capture"`, `"lbm"`, …).
    pub name: String,
    /// Column display label (`"asan"`, `"rest-secure-full"`, …).
    pub label: String,
    /// Workload kernel.
    pub workload: Workload,
    /// Input seed (gobmk sub-inputs vary the board position).
    pub seed: u64,
    /// Runtime / protection-scheme configuration.
    pub rt: RtConfig,
    /// Pipeline model.
    pub core: CoreKind,
    /// Input-set scale.
    pub scale: Scale,
    /// Ablation: serialise arm/disarm execution (§III-B's rejected
    /// alternative).
    pub serialize_rest_ops: bool,
    /// Dedicated token-cache entries (0 = paper's evaluated design).
    pub token_cache_entries: usize,
    /// Micro-op budget override; `None` keeps the generous default.
    /// (Small values force [`StopReason::UopLimit`] — used by tests to
    /// inject failing jobs.)
    pub max_uops: Option<u64>,
    /// Interval sampler period in committed instructions (0 = off);
    /// the result then carries a [`rest_obs::TimeSeries`].
    pub sample_interval: u64,
    /// Pipeline-trace length in micro-ops (0 = off); the result then
    /// carries a [`rest_cpu::PipelineTrace`].
    pub trace_uops: usize,
    /// Run the static ARM/DISARM verifier over the built program before
    /// simulating, failing fast (kind `"verify"`) on any error-or-worse
    /// finding instead of burning cycles on a bad program.
    pub verify: bool,
    /// Functional execution tier: reference re-decode (`--reference`),
    /// the decoded-uop cache (default), or superblock traces
    /// (`--trace`). Results are identical by construction; CI diffs the
    /// tiers byte-for-byte.
    pub tier: ExecTier,
    /// Attack scenario to run instead of `workload` (fault-injection
    /// campaigns mix clean workload rows with attack rows). When set,
    /// `workload` is an ignored placeholder and the verify gate is
    /// skipped — attacks violate the ARM/DISARM discipline on purpose.
    pub attack: Option<rest_attacks::Attack>,
    /// Hardware fault to inject during the run (`rest-faults`).
    pub fault: Option<rest_faults::FaultSpec>,
    /// Treat **any** guest stop as a successful simulation instead of
    /// mapping non-`exit(0)` stops to [`JobError`]s. Fault campaigns
    /// need the full result (stop reason, output, fault report) for
    /// every cell — a detected violation is data, not a failure.
    pub accept_any_stop: bool,
    /// Guest cycle budget (0 = off): the simulation stops with
    /// [`StopReason::CycleLimit`] once the pipeline clock (or, for
    /// functional runs, the committed-uop count) reaches it. This is
    /// the deterministic half of the watchdog.
    pub max_cycles: u64,
    /// Host wall-clock deadline in milliseconds (0 = off): the attempt
    /// runs on a helper thread and is abandoned with a `"timeout"`
    /// [`JobError`] when it overruns. Host-speed dependent, so
    /// experiments that must stay byte-deterministic leave it 0 and
    /// rely on `max_cycles` instead.
    pub wall_deadline_ms: u64,
    /// Bounded retry budget for transient host errors (kind
    /// `"transient-io"`): up to this many extra attempts with
    /// exponential backoff before the error is reported.
    pub retry_transient: u32,
    /// Test knob: the first N attempts fail with a `"transient-io"`
    /// error before any simulation runs — exercises the retry path.
    pub inject_transient_failures: u32,
    /// Test knob: the attempt panics before simulating — exercises the
    /// panic-isolation path.
    pub inject_panic: bool,
    /// Collect the guest hotspot profile (dense per-PC cycle/uop/check
    /// counters plus the per-allocation-site table); the result then
    /// carries a [`rest_cpu::GuestProfile`].
    pub profile_guest: bool,
    /// Run the static check-elision pass (`rest-verify`) over the built
    /// program and hand its map to the simulator: proven-safe accesses
    /// skip check injection and validation, counted in
    /// `CoreStats::elided_checks`. Applied to attack rows too: attacks
    /// with Error+ lint findings get empty maps by construction, and
    /// any residual elisions on clean-linting attacks are pinned by the
    /// differential attack-coverage gate (identical stop and audit).
    pub elide: bool,
    /// Minimized regression program to run instead of `workload`
    /// (assembly text from `tests/regress/`, see `rest_attacks::regress`).
    /// Like `attack`, the workload is an ignored placeholder and the
    /// verify gate is skipped — reproducers trip REST on purpose.
    pub regress: Option<RegressProg>,
}

/// A regression-corpus program: minimized reproducer assembly replayed
/// by defense/elide campaigns alongside the hand-written attacks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegressProg {
    /// Corpus file stem (`"oob-write-agree-detected"`, …).
    pub name: String,
    /// Assembly text (shared: one corpus load serves every scheme).
    pub asm: Arc<String>,
}

impl SimJob {
    /// A job running `row` under `rt` on the out-of-order core.
    pub fn new(row: &FigureRow, label: impl Into<String>, rt: RtConfig, scale: Scale) -> SimJob {
        SimJob {
            name: row.name.to_string(),
            label: label.into(),
            workload: row.workload,
            seed: row.seed,
            rt,
            core: CoreKind::OutOfOrder,
            scale,
            serialize_rest_ops: false,
            token_cache_entries: 0,
            max_uops: None,
            sample_interval: 0,
            trace_uops: 0,
            verify: false,
            tier: ExecTier::Fast,
            attack: None,
            fault: None,
            accept_any_stop: false,
            max_cycles: 0,
            wall_deadline_ms: 0,
            retry_transient: 0,
            inject_transient_failures: 0,
            inject_panic: false,
            profile_guest: false,
            elide: false,
            regress: None,
        }
    }

    /// A job replaying regression-corpus program `prog` under `rt`: any
    /// stop is accepted (the stop reason *is* the measurement).
    pub fn for_regress(
        prog: RegressProg,
        label: impl Into<String>,
        rt: RtConfig,
        scale: Scale,
    ) -> SimJob {
        let row = FigureRow {
            name: "regress",
            // Placeholder only: `regress` overrides the workload.
            workload: Workload::Lbm,
            seed: 0,
        };
        let mut job = SimJob {
            accept_any_stop: true,
            ..SimJob::new(&row, label, rt, scale)
        };
        job.name = prog.name.clone();
        job.regress = Some(prog);
        job
    }

    /// A job running attack scenario `attack` under `rt`: any stop is
    /// accepted (the stop reason *is* the measurement).
    pub fn for_attack(
        attack: rest_attacks::Attack,
        label: impl Into<String>,
        rt: RtConfig,
        scale: Scale,
    ) -> SimJob {
        let row = FigureRow {
            name: attack.name(),
            // Placeholder only: `attack` overrides the workload.
            workload: Workload::Lbm,
            seed: 0,
        };
        SimJob {
            attack: Some(attack),
            accept_any_stop: true,
            ..SimJob::new(&row, label, rt, scale)
        }
    }

    /// The unprotected baseline job for `row`.
    pub fn plain(row: &FigureRow, core: CoreKind, scale: Scale) -> SimJob {
        SimJob {
            core,
            ..SimJob::new(row, "plain", RtConfig::plain(), scale)
        }
    }

    /// The job for `row` under matrix column `col`.
    pub fn for_column(row: &FigureRow, col: &ColumnSpec, core: CoreKind, scale: Scale) -> SimJob {
        SimJob {
            core,
            serialize_rest_ops: col.serialize_rest_ops,
            token_cache_entries: col.token_cache_entries,
            ..SimJob::new(row, col.label.clone(), col.rt.clone(), scale)
        }
    }

    /// Identity of the simulation this job performs. Everything that
    /// influences the simulated outcome participates; display strings
    /// do not.
    pub fn cache_key(&self) -> String {
        // Regression programs are identified by name + assembly hash:
        // two corpus files never alias, and editing a reproducer's
        // assembly invalidates its cached result.
        let regress = match &self.regress {
            Some(p) => format!("{}#{:#x}", p.name, fnv1a(p.asm.as_bytes())),
            None => String::new(),
        };
        format!(
            "{:?}|{:#x}|{:?}|{:?}|{:?}|{}|{}|{:?}|{}|{}|{}|{}|{:?}|{:?}|{}|{}|{}|{}|{}|{}|{}|{}|{}",
            self.workload,
            self.seed,
            self.rt,
            self.core,
            self.scale,
            self.serialize_rest_ops,
            self.token_cache_entries,
            self.max_uops,
            // Observability settings don't change the simulated cycles,
            // but they change what the result carries (series / trace),
            // so results must not be shared across different settings.
            self.sample_interval,
            self.trace_uops,
            // The verify gate can turn a would-be simulation into a
            // verify error, so gated and ungated runs are distinct.
            self.verify,
            // The execution tiers must be measured independently —
            // sharing a cached result would defeat the differential
            // gate.
            self.tier.label(),
            // Attack scenario and injected fault define what simulates;
            // the budget/stop-policy fields change how a run can end;
            // the failure-injection knobs change the attempt outcome.
            self.attack,
            self.fault,
            self.accept_any_stop,
            self.max_cycles,
            self.wall_deadline_ms,
            self.retry_transient,
            self.inject_transient_failures,
            self.inject_panic,
            // Profiled results carry the per-PC tables; unprofiled ones
            // must not alias them.
            self.profile_guest,
            // Elided runs skip checks at proven-safe PCs; sharing a
            // cached result with a full run would hide the difference
            // the differential gate exists to measure.
            self.elide,
            regress,
        )
    }

    /// Builds the workload and simulates it, mapping panics and
    /// abnormal stops to [`JobError`].
    ///
    /// Resilience wrapper around [`SimJob::execute_attempt`]: transient
    /// errors (kind `"transient-io"`) are retried up to
    /// `retry_transient` times with exponential backoff, and when
    /// `wall_deadline_ms` is set each attempt runs under a host
    /// wall-clock watchdog that abandons overrunning simulations with a
    /// `"timeout"` error.
    pub fn execute(&self) -> Result<SimResult, JobError> {
        self.execute_tracked().0
    }

    /// As [`SimJob::execute`], additionally reporting how many attempts
    /// the job took (1 for a first-try success; each transient retry
    /// adds one). The engine records this in the job's telemetry span.
    pub fn execute_tracked(&self) -> (Result<SimResult, JobError>, u32) {
        let mut attempt = 0u32;
        loop {
            let outcome = self.execute_watchdogged(attempt);
            match &outcome {
                Err(e) if e.is_transient() && attempt < self.retry_transient => {
                    let backoff = Duration::from_millis(10u64 << attempt.min(6));
                    eprintln!(
                        "# {} {}: transient failure (attempt {}), retrying in {:?}: {}",
                        self.name, self.label, attempt + 1, backoff, e.detail
                    );
                    std::thread::sleep(backoff);
                    attempt += 1;
                }
                _ => return (outcome, attempt + 1),
            }
        }
    }

    /// Runs one attempt, under the host wall-clock watchdog when
    /// `wall_deadline_ms` is set. The attempt executes on a helper
    /// thread; on deadline overrun the thread is abandoned (it can't be
    /// killed safely mid-simulation) and the job reports a `"timeout"`
    /// error. The deadline-free path stays on the calling thread.
    fn execute_watchdogged(&self, attempt: u32) -> Result<SimResult, JobError> {
        if self.wall_deadline_ms == 0 {
            return self.execute_attempt(attempt);
        }
        let (tx, rx) = std::sync::mpsc::channel();
        let job = self.clone();
        std::thread::spawn(move || {
            // The receiver may have given up; a dead channel is fine.
            let _ = tx.send(job.execute_attempt(attempt));
        });
        match rx.recv_timeout(Duration::from_millis(self.wall_deadline_ms)) {
            Ok(outcome) => outcome,
            Err(_) => Err(JobError {
                kind: "timeout".to_string(),
                detail: format!(
                    "{} (seed {:#x}) exceeded the host wall deadline of {} ms under {}",
                    self.workload, self.seed, self.wall_deadline_ms, self.label
                ),
            }),
        }
    }

    /// One simulation attempt: builds the program (workload or attack),
    /// runs it, and maps panics and abnormal stops to [`JobError`]s.
    /// `attempt` feeds the failure-injection test knobs.
    pub fn execute_attempt(&self, attempt: u32) -> Result<SimResult, JobError> {
        if attempt < self.inject_transient_failures {
            return Err(JobError {
                kind: "transient-io".to_string(),
                detail: format!(
                    "injected transient failure on attempt {attempt} (test knob)"
                ),
            });
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if self.inject_panic {
                panic!("injected panic (test knob)");
            }
            let program = if let Some(attack) = self.attack {
                attack.build(stack_for(&self.rt))
            } else if let Some(prog) = &self.regress {
                match rest_isa::parse_asm(&prog.asm) {
                    Ok(p) => p,
                    Err(e) => {
                        return Err(JobError {
                            kind: "regress-parse".to_string(),
                            detail: format!("regression case {}: {e}", prog.name),
                        })
                    }
                }
            } else {
                let params = WorkloadParams {
                    scale: self.scale,
                    stack_scheme: stack_for(&self.rt),
                    token_width: self.rt.token_width,
                    seed: self.seed,
                };
                self.workload.build(&params)
            };
            if self.verify && self.attack.is_none() && self.regress.is_none() {
                let lint = rest_verify::verify_program(&program);
                let worst: Vec<_> = lint.at_least(rest_verify::Severity::Error).collect();
                if !worst.is_empty() {
                    let f = worst[0];
                    return Err(JobError {
                        kind: "verify".to_string(),
                        detail: format!(
                            "{} (seed {:#x}): {} finding(s) at error or above; first: \
                             [{}] pc {:#x} {}: {}",
                            self.workload,
                            self.seed,
                            worst.len(),
                            f.severity.name(),
                            f.pc,
                            f.pass,
                            f.message
                        ),
                    });
                }
            }
            // The elision map is computed from the same program object
            // the simulator runs, so the PCs line up by construction.
            // Attack programs with Error+ findings get empty maps;
            // clean-linting attacks may elide provably in-bounds
            // accesses. The attack-coverage gate verifies end to end
            // that detection and audit provenance are unchanged.
            let elision = if self.elide {
                let scheme = if self.rt.scheme == rest_runtime::Scheme::Asan {
                    rest_verify::ElideScheme::Asan
                } else {
                    rest_verify::ElideScheme::Rest
                };
                let report = rest_verify::elide_program(&program, scheme);
                Some(Arc::new(report.map))
            } else {
                None
            };
            let mut cfg = match self.core {
                CoreKind::OutOfOrder => SimConfig::isca2018(self.rt.clone()),
                CoreKind::InOrder => SimConfig::inorder(self.rt.clone()),
            };
            cfg.elision = elision;
            cfg.core.serialize_rest_ops = self.serialize_rest_ops;
            cfg.mem.token_cache_entries = self.token_cache_entries;
            cfg.sample_interval = self.sample_interval;
            cfg.trace_uops = self.trace_uops;
            cfg.tier = self.tier;
            cfg.max_cycles = self.max_cycles;
            cfg.fault = self.fault;
            cfg.profile_guest = self.profile_guest;
            if let Some(budget) = self.max_uops {
                cfg.max_uops = budget;
            }
            Ok(System::new(program, cfg).run())
        }));
        let result = match outcome {
            Err(payload) => {
                let detail = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                return Err(JobError {
                    kind: "panic".to_string(),
                    detail,
                });
            }
            Ok(Err(e)) => return Err(e),
            Ok(Ok(r)) => r,
        };
        if matches!(result.stop, StopReason::Exit(0)) || self.accept_any_stop {
            return Ok(result);
        }
        let stop = &result.stop;
        Err(JobError {
            kind: match stop {
                StopReason::Halted => "halted",
                StopReason::Exit(_) => "nonzero-exit",
                StopReason::Violation(_) => "violation",
                StopReason::UopLimit => "uop-limit",
                StopReason::CycleLimit => "cycle-limit",
                StopReason::Fault(_) => "fault",
            }
            .to_string(),
            detail: format!(
                "{} (seed {:#x}) stopped with {:?} under {}",
                self.workload, self.seed, stop, result.label
            ),
        })
    }
}

/// A simulation that did not complete normally: the guest stopped with
/// anything other than `exit(0)`, or the attempt itself failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError {
    /// Machine-readable class. Guest stops map to `"violation"`,
    /// `"uop-limit"`, `"cycle-limit"`, `"fault"`, `"halted"`, or
    /// `"nonzero-exit"`; attempt failures to `"panic"` (simulator
    /// panicked), `"timeout"` (host wall-clock watchdog),
    /// `"transient-io"` (retryable host error), or `"verify"` (static
    /// lint gate).
    pub kind: String,
    /// Human-readable detail.
    pub detail: String,
}

impl JobError {
    /// Whether the error class is worth retrying (host-side transient
    /// conditions, not deterministic guest outcomes).
    pub fn is_transient(&self) -> bool {
        self.kind == "transient-io"
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind, self.detail)
    }
}

/// Shared outcome of one job (cached, so cheap to clone).
pub type JobOutcome = Arc<Result<SimResult, JobError>>;

/// Telemetry span for one submitted job: which worker ran it, when it
/// started relative to the engine's first submission, how long it
/// queued and ran, how many attempts it took, and how it ended. Cache
/// hits record zero durations and zero attempts. Serialised into the
/// `rest-telemetry/v1` document (host wall times, so `BENCH_*` only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpan {
    /// The job's display label (`"<row> <column>"`).
    pub label: String,
    /// Worker-pool slot that executed the job (0 for cache hits).
    pub worker: usize,
    /// Start offset from the engine's first `run_all` submission —
    /// campaign-relative, so spans from successive matrices share one
    /// timeline.
    pub start: Duration,
    /// Time spent queued before a worker picked the job up.
    pub queue: Duration,
    /// Wall time of the execution (all attempts plus backoff).
    pub run: Duration,
    /// Attempts taken: 1 for a first-try outcome, +1 per transient
    /// retry, 0 for cache hits.
    pub attempts: u32,
    /// Whether the outcome came from the engine's job cache.
    pub cached: bool,
    /// `"ok"`, or the [`JobError`] kind the job ended with.
    pub outcome: String,
}

/// What a worker recorded about one freshly executed job.
struct FreshRun {
    wall: Duration,
    queue: Duration,
    attempts: u32,
    worker: usize,
}

/// Locks a mutex, recovering the data from a poisoned lock. A panic on
/// one worker thread (already surfaced as a `"panic"` [`JobError`] by
/// `catch_unwind`) poisons any mutex it held; unwrapping the poison
/// would cascade that one failure into panics on every later lock of
/// the shared cache/timing state, taking the whole sweep down. The
/// guarded data is only ever mutated by single `insert`/`push` calls,
/// so the recovered state is consistent.
fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// The job runner: a fixed-size worker pool plus a result cache keyed
/// by [`SimJob::cache_key`].
///
/// One engine can serve several matrices in sequence; jobs they share
/// (typically plain baselines) are simulated once.
pub struct Engine {
    workers: usize,
    cache: Mutex<HashMap<String, JobOutcome>>,
    timings: Mutex<Vec<JobTiming>>,
    spans: Mutex<Vec<JobSpan>>,
    /// Wall time already consumed by earlier `run_all` calls: spans
    /// from successive submissions continue one campaign timeline.
    epoch: Mutex<Duration>,
}

impl Engine {
    /// An engine running at most `workers` simulations concurrently.
    pub fn new(workers: usize) -> Engine {
        Engine {
            workers: workers.max(1),
            cache: Mutex::new(HashMap::new()),
            timings: Mutex::new(Vec::new()),
            spans: Mutex::new(Vec::new()),
            epoch: Mutex::new(Duration::ZERO),
        }
    }

    /// The configured worker-pool size (after the `max(1)` clamp).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Per-job wall-time records accumulated so far (submission order;
    /// cache hits appear with `cached: true` and zero wall time).
    /// Draining resets the log, so successive experiments on one
    /// engine can profile separately.
    pub fn take_timings(&self) -> Vec<JobTiming> {
        std::mem::take(&mut lock_recover(&self.timings))
    }

    /// Per-job telemetry spans accumulated so far (submission order,
    /// one per submitted job — cache hits included). Draining resets
    /// the log.
    pub fn take_spans(&self) -> Vec<JobSpan> {
        std::mem::take(&mut lock_recover(&self.spans))
    }

    /// Runs every job not already cached, in parallel, and returns one
    /// outcome per input job **in input order** (duplicates and cache
    /// hits resolve to the same shared result).
    pub fn run_all(&self, jobs: &[SimJob]) -> Vec<JobOutcome> {
        let fresh: Vec<&SimJob> = {
            let cache = lock_recover(&self.cache);
            let mut seen = HashSet::new();
            jobs.iter()
                .filter(|j| {
                    let key = j.cache_key();
                    !cache.contains_key(&key) && seen.insert(key)
                })
                .collect()
        };
        let total = fresh.len();
        let base = *lock_recover(&self.epoch);
        let run_started = Instant::now();
        let fresh_runs: Mutex<HashMap<String, FreshRun>> = Mutex::new(HashMap::new());
        if total > 0 {
            let next = AtomicUsize::new(0);
            let done = AtomicUsize::new(0);
            let workers = self.workers.min(total);
            std::thread::scope(|scope| {
                for w in 0..workers {
                    let (next, done, fresh) = (&next, &done, &fresh);
                    let (fresh_runs, cache) = (&fresh_runs, &self.cache);
                    scope.spawn(move || loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= total {
                            break;
                        }
                        let job = fresh[i];
                        let job_started = Instant::now();
                        let queue = job_started.duration_since(run_started);
                        let (result, attempts) = job.execute_tracked();
                        let wall = job_started.elapsed();
                        let secs = wall.as_secs_f64();
                        let n = done.fetch_add(1, Ordering::Relaxed) + 1;
                        match &result {
                            Ok(r) => eprintln!(
                                "[{n}/{total}] {} {}: {} cycles, {secs:.2}s",
                                job.name,
                                job.label,
                                r.cycles()
                            ),
                            Err(e) => eprintln!(
                                "[{n}/{total}] {} {}: FAILED ({e}), {secs:.2}s",
                                job.name, job.label
                            ),
                        }
                        lock_recover(fresh_runs).insert(
                            job.cache_key(),
                            FreshRun {
                                wall,
                                queue,
                                attempts,
                                worker: w,
                            },
                        );
                        lock_recover(cache).insert(job.cache_key(), Arc::new(result));
                    });
                }
            });
            eprintln!(
                "# {total} jobs on {workers} workers in {:.2}s",
                run_started.elapsed().as_secs_f64()
            );
        }
        // Log per-job wall times and telemetry spans in submission
        // order: the first request for a key that was simulated this
        // call gets the measured record; duplicates and pre-cached keys
        // log as cache hits.
        {
            let mut runs = fresh_runs.into_inner().unwrap_or_else(|poison| poison.into_inner());
            let mut timings = lock_recover(&self.timings);
            let mut spans = lock_recover(&self.spans);
            let cache = lock_recover(&self.cache);
            for job in jobs {
                let label = format!("{} {}", job.name, job.label);
                let outcome = match cache[&job.cache_key()].as_ref() {
                    Ok(_) => "ok".to_string(),
                    Err(e) => e.kind.clone(),
                };
                match runs.remove(&job.cache_key()) {
                    Some(run) => {
                        timings.push(JobTiming {
                            label: label.clone(),
                            wall: run.wall,
                            cached: false,
                        });
                        spans.push(JobSpan {
                            label,
                            worker: run.worker,
                            start: base + run.queue,
                            queue: run.queue,
                            run: run.wall,
                            attempts: run.attempts,
                            cached: false,
                            outcome,
                        });
                    }
                    None => {
                        timings.push(JobTiming {
                            label: label.clone(),
                            wall: Duration::ZERO,
                            cached: true,
                        });
                        spans.push(JobSpan {
                            label,
                            worker: 0,
                            start: base,
                            queue: Duration::ZERO,
                            run: Duration::ZERO,
                            attempts: 0,
                            cached: true,
                            outcome,
                        });
                    }
                }
            }
        }
        *lock_recover(&self.epoch) = base + run_started.elapsed();
        let cache = lock_recover(&self.cache);
        jobs.iter().map(|j| cache[&j.cache_key()].clone()).collect()
    }

    /// Runs `count` independent tasks on the worker pool and returns
    /// their results **in index order** — worker scheduling affects
    /// wall-clock only, so output built from the results is
    /// byte-identical at any `--jobs` level. Used by campaigns whose
    /// unit of work is not a [`SimJob`] (the fuzz campaign's tri-oracle
    /// cells); tasks are expected to catch their own panics.
    pub fn run_tasks<T: Send, F: Fn(usize) -> T + Sync>(&self, count: usize, task: F) -> Vec<T> {
        if count == 0 {
            return Vec::new();
        }
        let workers = self.workers.min(count);
        if workers <= 1 {
            return (0..count).map(task).collect();
        }
        let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let (next, slots, task) = (&next, &slots, &task);
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= count {
                        break;
                    }
                    let result = task(i);
                    *lock_recover(&slots[i]) = Some(result);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(|poison| poison.into_inner())
                    .expect("every task slot filled")
            })
            .collect()
    }

    /// Runs a full experiment matrix. Plain baselines (when
    /// `spec.include_plain`) and hardened cells all go through the same
    /// worker pool and cache.
    pub fn run_matrix(&self, spec: &MatrixSpec) -> MatrixResults {
        let mut jobs = Vec::new();
        for row in &spec.rows {
            if spec.include_plain {
                jobs.push(SimJob::plain(row, spec.core, spec.scale));
            }
            for col in &spec.columns {
                jobs.push(SimJob::for_column(row, col, spec.core, spec.scale));
            }
        }
        for job in &mut jobs {
            job.sample_interval = spec.sample_interval;
            job.verify = spec.verify;
            job.tier = spec.tier;
            job.profile_guest = spec.profile_guest;
        }
        // Tracing is bounded to the matrix's first job: one Perfetto
        // document per experiment is plenty, and tracing every job
        // would multiply memory use for no added insight.
        if let Some(first) = jobs.first_mut() {
            first.trace_uops = spec.trace_uops;
        }
        let outcomes = self.run_all(&jobs);
        let stride = spec.columns.len() + usize::from(spec.include_plain);
        let rows = spec
            .rows
            .iter()
            .zip(outcomes.chunks(stride.max(1)))
            .map(|(row, chunk)| {
                let (plain, cells) = if spec.include_plain {
                    (Some(chunk[0].clone()), chunk[1..].to_vec())
                } else {
                    (None, chunk.to_vec())
                };
                RowResults {
                    row: *row,
                    plain,
                    cells,
                }
            })
            .collect();
        MatrixResults {
            columns: spec.columns.clone(),
            rows,
        }
    }
}

/// One hardened column of an experiment matrix.
#[derive(Debug, Clone)]
pub struct ColumnSpec {
    /// Display label (also the JSON cell label).
    pub label: String,
    /// Runtime configuration.
    pub rt: RtConfig,
    /// Ablation: serialised arm/disarm execution.
    pub serialize_rest_ops: bool,
    /// Dedicated token-cache entries (0 = disabled).
    pub token_cache_entries: usize,
}

impl ColumnSpec {
    /// A plain column: `rt` on the stock machine.
    pub fn new(label: impl Into<String>, rt: RtConfig) -> ColumnSpec {
        ColumnSpec {
            label: label.into(),
            rt,
            serialize_rest_ops: false,
            token_cache_entries: 0,
        }
    }
}

/// A declarative experiment: rows × columns at one core/scale.
#[derive(Debug, Clone)]
pub struct MatrixSpec {
    /// Benchmark rows.
    pub rows: Vec<FigureRow>,
    /// Hardened configurations.
    pub columns: Vec<ColumnSpec>,
    /// Pipeline model for every job in the matrix.
    pub core: CoreKind,
    /// Input-set scale.
    pub scale: Scale,
    /// Also simulate the plain baseline per row (needed for overhead
    /// columns and mean summaries).
    pub include_plain: bool,
    /// Interval sampler period applied to **every** job of the matrix
    /// (0 = off).
    pub sample_interval: u64,
    /// Pipeline-trace length applied to the matrix's **first** job
    /// only (0 = off).
    pub trace_uops: usize,
    /// Run the static verifier over every program before simulating
    /// (`--verify`): jobs with error-or-worse lint findings fail fast.
    pub verify: bool,
    /// Execution tier applied to every job (`--reference` / `--trace`);
    /// output must stay byte-identical across tiers.
    pub tier: ExecTier,
    /// Collect the guest hotspot profile on **every** job of the
    /// matrix: results then carry per-PC counters and the
    /// per-allocation-site table (used by the defense campaign's
    /// check-attribution section).
    pub profile_guest: bool,
}

impl MatrixSpec {
    /// A standard overhead matrix: out-of-order core, plain baselines
    /// included.
    pub fn new(rows: Vec<FigureRow>, columns: Vec<ColumnSpec>, scale: Scale) -> MatrixSpec {
        MatrixSpec {
            rows,
            columns,
            core: CoreKind::OutOfOrder,
            scale,
            include_plain: true,
            sample_interval: 0,
            trace_uops: 0,
            verify: false,
            tier: ExecTier::Fast,
            profile_guest: false,
        }
    }

    /// Applies the CLI's observability flags: the sampler interval to
    /// every job, tracing (when `--trace-out` was given) to the first,
    /// the `--verify` pre-run lint gate to every job, and `--reference`
    /// decode-path selection to every job.
    pub fn with_observability(mut self, cli: &crate::cli::BenchCli) -> MatrixSpec {
        self.sample_interval = cli.sample_interval;
        self.trace_uops = if cli.trace_out.is_some() {
            cli.trace_uops
        } else {
            0
        };
        self.verify = cli.verify;
        self.tier = cli.exec_tier();
        self
    }
}

/// Outcomes for one matrix row.
#[derive(Clone)]
pub struct RowResults {
    /// The benchmark row.
    pub row: FigureRow,
    /// Plain-baseline outcome (present iff the spec included it).
    pub plain: Option<JobOutcome>,
    /// One outcome per matrix column.
    pub cells: Vec<JobOutcome>,
}

impl RowResults {
    /// The plain baseline, if it ran and succeeded.
    pub fn plain_result(&self) -> Option<&SimResult> {
        self.plain.as_deref().and_then(|r| r.as_ref().ok())
    }

    /// Column `col`'s result, if it succeeded.
    pub fn cell(&self, col: usize) -> Option<&SimResult> {
        self.cells.get(col).and_then(|r| r.as_ref().as_ref().ok())
    }

    /// Column `col`'s overhead over this row's plain baseline, in
    /// percent; NaN when either run failed.
    pub fn overhead_pct(&self, col: usize) -> f64 {
        match (self.plain_result(), self.cell(col)) {
            (Some(plain), Some(cell)) => cell.overhead_pct_vs(plain),
            _ => f64::NAN,
        }
    }
}

/// All outcomes of one matrix, in row-major submission order.
pub struct MatrixResults {
    /// The matrix's columns (labels + configurations).
    pub columns: Vec<ColumnSpec>,
    /// Per-row outcomes, in spec order.
    pub rows: Vec<RowResults>,
}

impl MatrixResults {
    /// The first successful result carrying a pipeline trace (the
    /// matrix's first job, when the spec enabled tracing).
    pub fn first_trace(&self) -> Option<&rest_cpu::PipelineTrace> {
        self.rows
            .iter()
            .flat_map(|r| r.plain.iter().chain(r.cells.iter()))
            .filter_map(|o| o.as_ref().as_ref().ok())
            .find_map(|r| r.trace.as_ref())
    }

    /// Per-column `(WtdAriMean, GeoMean)` overhead summaries over the
    /// rows whose plain and hardened runs both succeeded.
    pub fn summary(&self) -> Vec<(f64, f64)> {
        (0..self.columns.len())
            .map(|col| {
                let (mut plain, mut hardened) = (Vec::new(), Vec::new());
                for row in &self.rows {
                    if let (Some(p), Some(h)) = (row.plain_result(), row.cell(col)) {
                        plain.push(p.cycles());
                        hardened.push(h.cycles());
                    }
                }
                (
                    crate::wtd_ari_mean_overhead(&plain, &hardened),
                    crate::geo_mean_overhead(&plain, &hardened),
                )
            })
            .collect()
    }

    /// Prints the standard overhead table (benchmark rows, one column
    /// per configuration, WtdAriMean/GeoMean summary rows) to stdout.
    pub fn print_text_table(&self) {
        print!("{:<12}", "benchmark");
        for col in &self.columns {
            print!("{:>18}", col.label);
        }
        println!();
        for row in &self.rows {
            let cells: Vec<f64> = (0..self.columns.len())
                .map(|c| row.overhead_pct(c))
                .collect();
            println!("{}", crate::fmt_row(row.row.name, &cells));
        }
        let summary = self.summary();
        let wtd: Vec<f64> = summary.iter().map(|&(w, _)| w).collect();
        let geo: Vec<f64> = summary.iter().map(|&(_, g)| g).collect();
        println!("{}", crate::fmt_row("WtdAriMean", &wtd));
        println!("{}", crate::fmt_row("GeoMean", &geo));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lbm_row() -> FigureRow {
        FigureRow {
            name: "lbm",
            workload: Workload::Lbm,
            seed: 0xC0FFEE,
        }
    }

    #[test]
    fn cache_key_ignores_display_label_only() {
        let row = lbm_row();
        let a = SimJob::new(&row, "a", RtConfig::plain(), Scale::Test);
        let b = SimJob::new(&row, "b", RtConfig::plain(), Scale::Test);
        assert_eq!(a.cache_key(), b.cache_key());
        let asan = SimJob::new(&row, "a", RtConfig::asan(), Scale::Test);
        assert_ne!(a.cache_key(), asan.cache_key());
        let inorder = SimJob {
            core: CoreKind::InOrder,
            ..a.clone()
        };
        assert_ne!(a.cache_key(), inorder.cache_key());
        let budget = SimJob {
            max_uops: Some(100),
            ..a.clone()
        };
        assert_ne!(a.cache_key(), budget.cache_key());
        let gated = SimJob {
            verify: true,
            ..a.clone()
        };
        assert_ne!(a.cache_key(), gated.cache_key());
        let reference = SimJob {
            tier: ExecTier::Reference,
            ..a.clone()
        };
        assert_ne!(a.cache_key(), reference.cache_key());
        let trace = SimJob {
            tier: ExecTier::Trace,
            ..a.clone()
        };
        assert_ne!(a.cache_key(), trace.cache_key());
        assert_ne!(reference.cache_key(), trace.cache_key());
    }

    #[test]
    fn reference_and_fast_paths_simulate_identically() {
        let row = lbm_row();
        let fast = SimJob::plain(&row, CoreKind::OutOfOrder, Scale::Test)
            .execute()
            .unwrap();
        let reference = SimJob {
            tier: ExecTier::Reference,
            ..SimJob::plain(&row, CoreKind::OutOfOrder, Scale::Test)
        }
        .execute()
        .unwrap();
        assert_eq!(fast.stats_map(), reference.stats_map());
        assert_eq!(fast.stop, reference.stop);
        assert_eq!(fast.output, reference.output);
        let trace = SimJob {
            tier: ExecTier::Trace,
            ..SimJob::plain(&row, CoreKind::OutOfOrder, Scale::Test)
        }
        .execute()
        .unwrap();
        assert_eq!(fast.stats_map(), trace.stats_map());
        assert_eq!(fast.stop, trace.stop);
        assert_eq!(fast.output, trace.output);
    }

    #[test]
    fn verify_gate_passes_clean_programs() {
        let row = lbm_row();
        let job = SimJob {
            verify: true,
            ..SimJob::plain(&row, CoreKind::OutOfOrder, Scale::Test)
        };
        // lbm lints clean, so the gated run simulates normally and
        // matches the ungated result.
        let gated = job.execute().expect("clean program must pass the gate");
        let plain = SimJob::plain(&row, CoreKind::OutOfOrder, Scale::Test)
            .execute()
            .unwrap();
        assert_eq!(gated.core.insts, plain.core.insts);
        assert_eq!(gated.core.cycles, plain.core.cycles);
    }

    #[test]
    fn engine_caches_identical_jobs() {
        let row = lbm_row();
        let engine = Engine::new(2);
        let job = SimJob::plain(&row, CoreKind::OutOfOrder, Scale::Test);
        let first = engine.run_all(std::slice::from_ref(&job));
        let again = engine.run_all(&[job.clone(), job]);
        assert!(first[0].is_ok());
        // Same allocation: the cached Arc is reused, not re-simulated.
        assert!(Arc::ptr_eq(&first[0], &again[0]));
        assert!(Arc::ptr_eq(&again[0], &again[1]));
    }

    #[test]
    fn uop_budget_becomes_job_error() {
        let row = lbm_row();
        let job = SimJob {
            max_uops: Some(50),
            ..SimJob::plain(&row, CoreKind::OutOfOrder, Scale::Test)
        };
        let err = job.execute().unwrap_err();
        assert_eq!(err.kind, "uop-limit");
        assert!(err.detail.contains("lbm"));
    }

    #[test]
    fn injected_panic_becomes_structured_job_error() {
        let row = lbm_row();
        let job = SimJob {
            inject_panic: true,
            ..SimJob::plain(&row, CoreKind::OutOfOrder, Scale::Test)
        };
        let err = job.execute().unwrap_err();
        assert_eq!(err.kind, "panic");
        assert!(err.detail.contains("injected panic"));
    }

    #[test]
    fn panicking_job_does_not_poison_the_engine() {
        // A panicking cell must neither kill its siblings nor poison
        // the engine's shared state for later submissions.
        let row = lbm_row();
        let engine = Engine::new(2);
        let panicking = SimJob {
            inject_panic: true,
            ..SimJob::plain(&row, CoreKind::OutOfOrder, Scale::Test)
        };
        let healthy = SimJob::plain(&row, CoreKind::OutOfOrder, Scale::Test);
        let outcomes = engine.run_all(&[panicking, healthy.clone()]);
        assert_eq!(outcomes[0].as_ref().as_ref().unwrap_err().kind, "panic");
        assert!(outcomes[1].is_ok());
        // The engine stays usable afterwards.
        let again = engine.run_all(std::slice::from_ref(&healthy));
        assert!(again[0].is_ok());
        assert_eq!(engine.take_timings().len(), 3);
    }

    #[test]
    fn spans_record_workers_attempts_and_cache_hits() {
        let row = lbm_row();
        let engine = Engine::new(2);
        let retried = SimJob {
            inject_transient_failures: 1,
            retry_transient: 1,
            ..SimJob::plain(&row, CoreKind::OutOfOrder, Scale::Test)
        };
        let outcomes = engine.run_all(&[retried.clone(), retried]);
        assert!(outcomes[0].is_ok());
        let spans = engine.take_spans();
        assert_eq!(spans.len(), 2);
        // Fresh execution: one transient failure plus the success.
        assert!(!spans[0].cached);
        assert_eq!(spans[0].attempts, 2);
        assert_eq!(spans[0].outcome, "ok");
        assert!(spans[0].run > Duration::ZERO);
        // The duplicate resolves from the cache.
        assert!(spans[1].cached);
        assert_eq!(spans[1].attempts, 0);
        assert_eq!(spans[1].run, Duration::ZERO);
        // A later submission records its error kind and continues the
        // campaign timeline.
        let panicking = SimJob {
            inject_panic: true,
            ..SimJob::plain(&row, CoreKind::OutOfOrder, Scale::Test)
        };
        engine.run_all(std::slice::from_ref(&panicking));
        let later = engine.take_spans();
        assert_eq!(later.len(), 1);
        assert_eq!(later[0].outcome, "panic");
        assert!(later[0].start >= spans[0].run, "epoch must accumulate");
        // Draining resets the log.
        assert!(engine.take_spans().is_empty());
    }

    #[test]
    fn profile_guest_participates_in_cache_keys_and_results() {
        let row = lbm_row();
        let plain = SimJob::plain(&row, CoreKind::OutOfOrder, Scale::Test);
        let profiled = SimJob {
            profile_guest: true,
            ..plain.clone()
        };
        assert_ne!(plain.cache_key(), profiled.cache_key());
        let result = profiled.execute().unwrap();
        let profile = result.profile.expect("profiled job carries the tables");
        assert_eq!(profile.cycles.total(), result.core.cycles);
        assert!(plain.execute().unwrap().profile.is_none());
    }

    #[test]
    fn wall_deadline_watchdog_times_out_slow_jobs() {
        // A 1 ms host deadline is far below any cycle-level simulation;
        // the watchdog must abandon the attempt with a "timeout" error.
        let row = lbm_row();
        let job = SimJob {
            wall_deadline_ms: 1,
            ..SimJob::plain(&row, CoreKind::OutOfOrder, Scale::Test)
        };
        let err = job.execute().unwrap_err();
        assert_eq!(err.kind, "timeout");
        assert!(err.detail.contains("1 ms"));
    }

    #[test]
    fn transient_failures_are_retried_within_budget() {
        let row = lbm_row();
        // Fails twice, succeeds on the third attempt: a budget of two
        // retries rides out both failures.
        let job = SimJob {
            inject_transient_failures: 2,
            retry_transient: 2,
            ..SimJob::plain(&row, CoreKind::OutOfOrder, Scale::Test)
        };
        assert!(job.execute().is_ok());
        // An insufficient budget surfaces the transient error.
        let starved = SimJob {
            inject_transient_failures: 2,
            retry_transient: 1,
            ..SimJob::plain(&row, CoreKind::OutOfOrder, Scale::Test)
        };
        let err = starved.execute().unwrap_err();
        assert_eq!(err.kind, "transient-io");
        assert!(err.is_transient());
    }

    #[test]
    fn resilience_fields_participate_in_cache_keys() {
        let row = lbm_row();
        let a = SimJob::new(&row, "a", RtConfig::plain(), Scale::Test);
        for job in [
            SimJob {
                attack: Some(rest_attacks::Attack::Heartbleed),
                ..a.clone()
            },
            SimJob {
                fault: Some(rest_faults::FaultKind::MetaBitClear.default_spec(7)),
                ..a.clone()
            },
            SimJob {
                accept_any_stop: true,
                ..a.clone()
            },
            SimJob {
                max_cycles: 1000,
                ..a.clone()
            },
            SimJob {
                inject_panic: true,
                ..a.clone()
            },
            SimJob {
                regress: Some(RegressProg {
                    name: "case".to_string(),
                    asm: Arc::new("main:\n    li a0, 0\n    ecall 5\n".to_string()),
                }),
                ..a.clone()
            },
        ] {
            assert_ne!(a.cache_key(), job.cache_key());
        }
        // Two corpus files with different assembly must not alias.
        let mk = |asm: &str| SimJob {
            regress: Some(RegressProg {
                name: "case".to_string(),
                asm: Arc::new(asm.to_string()),
            }),
            ..a.clone()
        };
        assert_ne!(
            mk("main:\n    li a0, 0\n    ecall 5\n").cache_key(),
            mk("main:\n    li a0, 1\n    ecall 5\n").cache_key()
        );
    }

    #[test]
    fn regress_jobs_run_parsed_assembly() {
        let prog = RegressProg {
            name: "exit-only".to_string(),
            asm: Arc::new("main:\n    li a0, 0\n    ecall 5\n".to_string()),
        };
        let job = SimJob::for_regress(prog, "plain", RtConfig::plain(), Scale::Test);
        let result = job.execute().expect("minimal program runs");
        assert!(matches!(result.stop, StopReason::Exit(0)));
        let broken = SimJob::for_regress(
            RegressProg {
                name: "broken".to_string(),
                asm: Arc::new("main:\n    not-an-instruction\n".to_string()),
            },
            "plain",
            RtConfig::plain(),
            Scale::Test,
        );
        assert_eq!(broken.execute().unwrap_err().kind, "regress-parse");
    }

    #[test]
    fn run_tasks_returns_results_in_index_order() {
        for workers in [1, 2, 8] {
            let engine = Engine::new(workers);
            let results = engine.run_tasks(37, |i| i * i);
            assert_eq!(results, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(Engine::new(4).run_tasks(0, |i| i).is_empty());
    }

    #[test]
    fn attack_jobs_accept_violation_stops_as_results() {
        use rest_core::Mode;
        let job = SimJob::for_attack(
            rest_attacks::Attack::HeapOverflowWrite,
            "rest-secure-full",
            RtConfig::rest(Mode::Secure, true),
            Scale::Test,
        );
        let result = job.execute().expect("any stop is accepted");
        assert!(
            matches!(result.stop, StopReason::Violation(_)),
            "{:?}",
            result.stop
        );
    }
}
