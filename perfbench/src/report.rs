//! The benchmark's output: a readable table on stdout, a detail file
//! under `out/`, and the one-line JSON result the last line carries.

use std::fmt::Write as _;

use rest_bench::{fig7_configs, figure_rows};
use rest_obs::Json;

use crate::calib::{Calibration, Setup};
use crate::layers::{Layer, Trace};
use crate::stats::{median, proc_status_mb, tail, Tail};
use crate::MIN_PASSES;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        }
    }
}

/// Everything one run of one workload reports.
#[derive(Debug, Default)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    /// Cells or cases judged.
    pub attempted: u64,
    /// Cells or cases that failed their correctness gate.
    pub failed: u64,
    /// Named whole-run checks (determinism across passes, exact sum, …).
    pub checks: Vec<(String, bool)>,
    /// The metrics of the result line (`BENCHMARK.json`'s list for this
    /// mode, in its order).
    pub metrics: Vec<Metric>,
    /// Further metrics printed and written to the detail file only.
    pub info: Vec<Metric>,
    /// Free-form lines (digests, percentiles, sample counts).
    pub notes: Vec<String>,
    /// First failures, for the reader.
    pub failures: Vec<String>,
}

impl Report {
    /// Whether every cell and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Records one failed cell.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        s.push_str("}}");
        s
    }

    /// The readable table.
    pub fn table(&self) -> String {
        let mut s = format!(
            "# perfbench {} (seed {}, {})\n",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" }
        );
        for note in &self.notes {
            let _ = writeln!(s, "# {note}");
        }
        for (name, ok) in &self.checks {
            let _ = writeln!(s, "# check {name}: {}", if *ok { "ok" } else { "FAILED" });
        }
        for f in &self.failures {
            let _ = writeln!(s, "# failed: {f}");
        }
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(s, "{:<36}{failed_frac:>20}  frac", "failed_frac");
        for m in self.metrics.iter().chain(&self.info) {
            let _ = writeln!(s, "{:<36}{:>20.6}  {}", m.name, m.value, m.unit);
        }
        s
    }

    /// The detail document written under `out/`.
    pub fn detail(&self) -> Json {
        let metrics = |list: &[Metric]| {
            Json::Obj(
                list.iter()
                    .map(|m| {
                        (
                            m.name.clone(),
                            Json::obj(vec![
                                ("value", Json::Num(m.value)),
                                ("unit", Json::from(m.unit)),
                            ]),
                        )
                    })
                    .collect(),
            )
        };
        Json::obj(vec![
            ("workload", Json::from(self.workload.as_str())),
            ("seed", Json::UInt(self.seed)),
            ("traced", Json::Bool(self.traced)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            (
                "failed_frac",
                Json::Num(self.failed as f64 / self.attempted.max(1) as f64),
            ),
            (
                "checks",
                Json::Obj(
                    self.checks
                        .iter()
                        .map(|(n, ok)| (n.clone(), Json::Bool(*ok)))
                        .collect(),
                ),
            ),
            (
                "notes",
                Json::Arr(self.notes.iter().map(|n| Json::from(n.as_str())).collect()),
            ),
            (
                "failures",
                Json::Arr(
                    self.failures
                        .iter()
                        .map(|n| Json::from(n.as_str()))
                        .collect(),
                ),
            ),
            ("metrics", metrics(&self.metrics)),
            ("info", metrics(&self.info)),
        ])
    }
}

/// Per-item host times of the timed passes and their calibration
/// factors, with each pass's wall and the seconds of the benchmark's own
/// work inside it (calibration kernel samples, set-up bursts), and the
/// process's peak resident set when the last pass every run makes ended.
#[derive(Debug, Default)]
pub struct Passes {
    walls: Vec<f64>,
    times: Vec<Vec<f64>>,
    factors: Vec<Vec<f64>>,
    own: Vec<f64>,
    /// `VmHWM` in MB after [`MIN_PASSES`] passes. Read at the end of the
    /// run, it grew with the number of passes, which the host's speed
    /// decides: each pass leaves its item times behind and can fragment
    /// the heap further.
    hwm_mb: f64,
}

impl Passes {
    /// Records one pass: its wall, each item's time and scale factor,
    /// and the seconds of the benchmark's own work inside it.
    pub fn push(&mut self, wall: f64, times: Vec<f64>, factors: Vec<f64>, own: f64) {
        self.walls.push(wall);
        self.times.push(times);
        self.factors.push(factors);
        self.own.push(own);
        if self.len() == MIN_PASSES {
            self.hwm_mb = proc_status_mb("VmHWM");
        }
    }

    /// Number of passes.
    pub fn len(&self) -> usize {
        self.walls.len()
    }

    /// Each item's median time over the passes, scaled by its factor
    /// when `scaled`. The scaling takes out how much the host slowed
    /// each pass where the item ran, and the median drops the passes
    /// that a factor misjudged. (The least time over the passes would
    /// pick out exactly those: it spread twice as wide between runs.)
    pub fn item_times(&self, scaled: bool) -> Vec<f64> {
        let n = self.times.first().map_or(0, Vec::len);
        let factor = |p: usize, i: usize| if scaled { self.factors[p][i] } else { 1.0 };
        (0..n)
            .map(|i| {
                let times: Vec<f64> = (0..self.len())
                    .map(|p| self.times[p][i] * factor(p, i))
                    .collect();
                median(&times)
            })
            .collect()
    }

    /// Median per-pass time outside the items and the benchmark's own
    /// work (engine bookkeeping), scaled by the pass's median factor.
    pub fn overhead(&self, scaled: bool) -> f64 {
        let per_pass: Vec<f64> = (0..self.len())
            .map(|p| {
                let rest = self.walls[p] - self.own[p] - self.times[p].iter().sum::<f64>();
                rest.max(0.0)
                    * if scaled {
                        median(&self.factors[p])
                    } else {
                        1.0
                    }
            })
            .collect();
        median(&per_pass)
    }

    /// Each pass's median scale factor.
    fn pass_factors(&self) -> Vec<f64> {
        self.factors.iter().map(|f| median(f)).collect()
    }
}

/// The end-to-end metrics every workload reports, in `BENCHMARK.json`
/// order, from calibrated times; the unscaled ones are printed beside
/// them. `insts` is the guest instructions one pass simulates.
pub fn end_to_end(
    report: &mut Report,
    cal: &Calibration,
    setup: &Setup,
    passes: &Passes,
    insts: u64,
) {
    for scaled in [true, false] {
        let items = passes.item_times(scaled);
        let busy: f64 = items.iter().sum();
        let wall = busy + passes.overhead(scaled);
        let Tail {
            percentile,
            value,
            samples,
        } = tail(&items);
        let metrics = vec![
            Metric::new("setup_s", setup.seconds(cal, scaled), "s"),
            Metric::new("wall_s", wall, "s"),
            Metric::new("guest_mips", insts as f64 / busy / 1e6, "Minst/s"),
            Metric::new("cases_per_s", items.len() as f64 / wall, "1/s"),
            Metric::new("case_p50_us", median(&items) * 1e6, "us"),
            Metric::new("case_tail_us", value * 1e6, "us"),
            Metric::new("peak_rss_mb", passes.hwm_mb - cal.tables_mb(), "MB"),
        ];
        if scaled {
            report.notes.push(format!(
                "{} timed passes, each item's median pass kept; case_tail_us is p{percentile:.2} of {samples} items",
                passes.len()
            ));
            report.notes.push(format!(
                "{}; times are calibrated (pass median scale factors: {})",
                setup.describe(),
                passes
                    .pass_factors()
                    .iter()
                    .map(|f| format!("{f:.3}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            ));
            report.metrics = metrics;
        } else {
            report.info.extend(
                metrics
                    .into_iter()
                    .filter(|m| m.unit != "MB")
                    .map(|m| Metric {
                        name: format!("raw.{}", m.name),
                        ..m
                    }),
            );
        }
    }
}

/// Workload-specific numbers the traced run adds to the shared layer
/// metrics.
#[derive(Debug, Default)]
pub struct TracedExtras {
    /// `timing_mips` from the untraced reference pass (fig7-ref).
    pub timing_mips: f64,
    /// `functional_mips_{reference,fast,trace}` (functional-ref).
    pub functional_mips: [f64; 3],
    /// `row.<row>.timing_mips` (fig7-ref), by row name.
    pub rows: Vec<(String, f64)>,
    /// `config.<label>.timing_mips` (fig7-ref), by label.
    pub configs: Vec<(String, f64)>,
    /// Wall of the traced work, less the extra work, and of the same
    /// work run untraced: `trace.overhead_frac` is their ratio less one.
    pub traced_wall: f64,
    pub untraced_wall: f64,
}

/// Row names of the fig7 breakdown (fixed: they do not depend on the seed).
pub fn row_names() -> Vec<String> {
    figure_rows().iter().map(|r| r.name.to_string()).collect()
}

/// Column labels of the fig7 breakdown.
pub fn config_labels() -> Vec<String> {
    std::iter::once("plain".to_string())
        .chain(fig7_configs().iter().map(|rt| rt.label()))
        .collect()
}

/// The per-layer metrics of a traced run. The result line carries the
/// ones every workload measures (counts, ratios, rates, and each
/// layer's share of the traced wall); the layer times themselves, zero
/// on a workload whose path skips the layer, are printed beside them.
pub fn per_layer(report: &mut Report, trace: &Trace, x: &TracedExtras) {
    let c = &trace.counts;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let t = |l: Layer| trace.total(l);
    let in_sum = trace.wall - trace.extra();
    let hier_accesses = c.mem.l1i_hits + c.mem.l1i_misses + c.mem.l1d_hits + c.mem.l1d_misses;
    let loop_insts = c.insts as f64;
    let mut m = vec![
        Metric::new("timing_mips", x.timing_mips, "Minst/s"),
        Metric::new("functional_mips_reference", x.functional_mips[0], "Minst/s"),
        Metric::new("functional_mips_fast", x.functional_mips[1], "Minst/s"),
        Metric::new("functional_mips_trace", x.functional_mips[2], "Minst/s"),
        Metric::new("engine.jobs", c.jobs as f64, "count"),
        Metric::new("engine.cache_hits", c.cache_hits as f64, "count"),
        Metric::new("engine.other_s", trace.other(), "s"),
        Metric::new("system.new_s", t(Layer::SystemNew), "s"),
        Metric::new(
            "system.new_us",
            ratio(t(Layer::SystemNew), c.machines as f64) * 1e6,
            "us",
        ),
        Metric::new("emulator.insts", loop_insts, "count"),
        Metric::new(
            "emulator.decode_invalidations",
            c.decode_invalidations as f64,
            "count",
        ),
        Metric::new("emulator.redecoded", c.redecoded as f64, "count"),
        Metric::new("runtime.ecall_steps", c.ecall_steps as f64, "count"),
        Metric::new("runtime.uops", c.runtime_uops as f64, "count"),
        Metric::new("backend.checks", c.backend_checks as f64, "count"),
        Metric::new("backend.check_uops", c.check_uops as f64, "count"),
        Metric::new("pipeline.uops", c.uops as f64, "count"),
        Metric::new("pipeline.sim_cycles", c.sim_cycles as f64, "count"),
        Metric::new("hierarchy.accesses", hier_accesses as f64, "count"),
        Metric::new("hierarchy.l1d_hit_rate", c.mem.l1d_hit_rate(), "frac"),
        Metric::new("hierarchy.l2_misses", c.mem.l2_misses as f64, "count"),
        Metric::new(
            "hierarchy.dram_accesses",
            c.mem.dram_accesses as f64,
            "count",
        ),
        Metric::new(
            "hierarchy.token_fills",
            c.mem.token_detections_on_fill as f64,
            "count",
        ),
        Metric::new(
            "hierarchy.shadow_miss_ratio",
            ratio(
                c.shadow_l1d_misses as f64,
                if c.shadow_calls > 0 {
                    c.mem.l1d_misses as f64
                } else {
                    0.0
                },
            ),
            "ratio",
        ),
        Metric::new(
            "superblock.traced_frac",
            ratio(c.traced_insts as f64, c.fn_insts[2] as f64),
            "frac",
        ),
        Metric::new("superblock.compiled", c.compiled as f64, "count"),
        Metric::new("superblock.invalidated", c.invalidated as f64, "count"),
        Metric::new("verify.findings", c.findings as f64, "count"),
        Metric::new("fuzz.signatures", c.signatures as f64, "count"),
        Metric::new(
            "trace.overhead_frac",
            ratio(x.traced_wall, x.untraced_wall) - 1.0,
            "frac",
        ),
    ];
    for layer in Layer::ALL {
        m.push(Metric::new(
            layer.share_metric(),
            ratio(t(layer), trace.wall),
            "frac",
        ));
    }
    m.push(Metric::new(
        "share.engine.other",
        ratio(trace.other(), trace.wall),
        "frac",
    ));
    let lookup = |list: &[(String, f64)], name: &str| {
        list.iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |&(_, v)| v)
    };
    for row in row_names() {
        m.push(Metric::new(
            format!("row.{row}.timing_mips"),
            lookup(&x.rows, &row),
            "Minst/s",
        ));
    }
    for label in config_labels() {
        m.push(Metric::new(
            format!("config.{label}.timing_mips"),
            lookup(&x.configs, &label),
            "Minst/s",
        ));
    }
    report.metrics = m;

    let mut info: Vec<Metric> = Layer::ALL
        .iter()
        .filter(|&&l| !matches!(l, Layer::SystemNew))
        .map(|&l| Metric::new(l.metric(), t(l), "s"))
        .collect();
    let steps_s = t(Layer::Step) + t(Layer::Ecall);
    info.extend([
        Metric::new("trace.wall_s", trace.wall, "s"),
        Metric::new("trace.in_sum_wall_s", in_sum, "s"),
        Metric::new("trace.traced_work_s", x.traced_wall, "s"),
        Metric::new("trace.untraced_work_s", x.untraced_wall, "s"),
        Metric::new(
            "emulator.ns_per_inst",
            ratio(steps_s, loop_insts) * 1e9,
            "ns",
        ),
        Metric::new(
            "pipeline.ns_per_uop",
            ratio(t(Layer::Process), c.uops as f64) * 1e9,
            "ns",
        ),
        Metric::new(
            "pipeline.ns_per_sim_cycle",
            ratio(t(Layer::Process), c.sim_cycles as f64) * 1e9,
            "ns",
        ),
        Metric::new(
            "hierarchy.ns_per_access",
            ratio(t(Layer::Shadow), c.shadow_calls as f64) * 1e9,
            "ns",
        ),
        Metric::new(
            "verify.us_per_program",
            ratio(t(Layer::Verify), c.programs_verified as f64) * 1e6,
            "us",
        ),
    ]);
    report.info = info;
}
