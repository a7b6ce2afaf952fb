//! Experiment harness for the REST reproduction.
//!
//! One binary per table/figure of the paper regenerates that result:
//!
//! | Binary | Paper artefact |
//! |---|---|
//! | `fig3` | Figure 3 — ASan overhead breakdown by component |
//! | `fig7` | Figure 7 — runtime overheads of every configuration |
//! | `fig8` | Figure 8 — token-width sweep (16/32/64 B) |
//! | `table1` | Table I — cache/LSQ action matrix |
//! | `table3` | Table III — comparison with prior hardware schemes |
//! | `prose_stats` | §VI-B prose statistics (ROB/IQ/token traffic) |
//! | `ablations` | design-choice ablations called out in DESIGN.md |
//! | `perf` | guest-IPS throughput, fast vs reference decode path |
//! | `faults` | fault-injection detection-coverage campaign ([`faults`]) |
//! | `hotspots` | guest hotspot profile — per-block/function cycles and per-site checks ([`hotspots`]) |
//! | `elide` | static check-elision figure — proven-safe checks skipped, differential + attack-coverage gated ([`elide`]) |
//! | `fuzz` | adversarial-corpus tri-oracle campaign — generate-until-dry, auto-minimized regressions ([`fuzz`]) |
//! | `bench-diff` | throughput regression gate over two `BENCH_throughput.json` files ([`benchdiff`]) |
//!
//! All binaries are thin wrappers over a shared experiment engine:
//!
//! * [`cli`] — the common command line (`--test`, `--jobs N`,
//!   `--json PATH`, `--filter SUBSTRING`),
//! * [`engine`] — declarative [`engine::SimJob`] matrices run on a
//!   deterministic worker pool with a shared baseline cache; failing
//!   jobs surface as structured [`engine::JobError`]s instead of
//!   aborting the sweep,
//! * [`sink`] — every experiment writes its paper-formatted table to
//!   stdout **and** a machine-readable JSON document (schema documented
//!   in [`sink`]) to `results/<experiment>.json`.
//!
//! Progress and wall-clock timing go to stderr only, so both the text
//! table and the JSON are byte-identical at any `--jobs` level.
//!
//! Run the binaries in `--release` builds: the cycle-level simulator is
//! ~20× slower unoptimised. Example:
//!
//! ```text
//! cargo run --release -p rest-bench --bin fig7 -- --test --jobs 8
//! ```

#![forbid(unsafe_code)]

pub mod benchdiff;
pub mod checkpoint;
pub mod cli;
pub mod defense;
pub mod elide;
pub mod engine;
pub mod faults;
pub mod fuzz;
pub mod hotspots;
pub mod sink;
pub mod telemetry;
pub mod throughput;

use rest_core::{Mode, TokenWidth};
use rest_cpu::{SimConfig, SimResult, StopReason, System};
use rest_runtime::{RtConfig, Scheme, StackScheme};
use rest_workloads::{Scale, Workload, WorkloadParams};

/// One-line description of the simulated Table II machine, printed in
/// table headers and recorded in every JSON document.
pub const MACHINE: &str = "8-wide OoO, 192 ROB / 64 IQ / 32 LQ / 32 SQ, \
                           64kB L1I/L1D (2cy), 2MB L2 (20cy), DDR3-800 — Table II";

/// Stack-protection scheme matching a runtime configuration.
pub fn stack_for(rt: &RtConfig) -> StackScheme {
    if !rt.stack_protection {
        return StackScheme::None;
    }
    match rt.scheme {
        Scheme::Plain => StackScheme::None,
        Scheme::Asan => StackScheme::Asan,
        Scheme::Rest => StackScheme::Rest,
        // Heap-granule schemes carry no stack instrumentation.
        Scheme::Mte | Scheme::Pa => StackScheme::None,
    }
}

/// Builds and simulates `workload` under `rt` on the Table II machine.
///
/// Panics if the run does not exit cleanly — suitable for unit tests
/// and one-off probes; the harness binaries go through
/// [`engine::Engine`] instead, which reports failures as
/// [`engine::JobError`]s.
pub fn run(workload: Workload, scale: Scale, rt: RtConfig) -> SimResult {
    run_with(workload, scale, rt, false)
}

/// One row of a figure: a workload plus its display name and input seed
/// (gobmk appears once per sub-input, as in the paper's Figures 7/8).
#[derive(Debug, Clone, Copy)]
pub struct FigureRow {
    /// Display name for the row.
    pub name: &'static str,
    /// Workload kernel.
    pub workload: Workload,
    /// Input seed (gobmk sub-inputs vary the board position).
    pub seed: u64,
}

impl FigureRow {
    /// The standard row for `workload` (figure name, default seed).
    pub fn of(workload: Workload) -> FigureRow {
        FigureRow {
            name: workload.name(),
            workload,
            seed: 0xC0FFEE,
        }
    }
}

/// The benchmark rows of Figures 7/8: the 12 workloads with gobmk
/// expanded into its sub-inputs.
pub fn figure_rows() -> Vec<FigureRow> {
    let mut rows = Vec::new();
    for w in Workload::ALL {
        if w == Workload::Gobmk {
            for &(name, seed) in rest_workloads::GOBMK_INPUTS.iter() {
                rows.push(FigureRow {
                    name,
                    workload: w,
                    seed,
                });
            }
        } else {
            rows.push(FigureRow::of(w));
        }
    }
    rows
}

/// As [`run`], with an explicit input seed.
pub fn run_seeded(workload: Workload, scale: Scale, rt: RtConfig, seed: u64) -> SimResult {
    let params = WorkloadParams {
        scale,
        stack_scheme: stack_for(&rt),
        token_width: rt.token_width,
        seed,
    };
    let program = workload.build(&params);
    let result = System::new(program, SimConfig::isca2018(rt)).run();
    assert_eq!(
        result.stop,
        StopReason::Exit(0),
        "{workload} (seed {seed:#x}) failed under {}",
        result.label
    );
    result
}

/// As [`run`], optionally on the narrow in-order core (Figure 3 uses an
/// in-order core in the paper).
pub fn run_with(workload: Workload, scale: Scale, rt: RtConfig, inorder: bool) -> SimResult {
    let params = WorkloadParams {
        scale,
        stack_scheme: stack_for(&rt),
        token_width: rt.token_width,
        seed: 0xC0FFEE,
    };
    let program = workload.build(&params);
    let cfg = if inorder {
        SimConfig::inorder(rt)
    } else {
        SimConfig::isca2018(rt)
    };
    let result = System::new(program, cfg).run();
    assert_eq!(
        result.stop,
        StopReason::Exit(0),
        "{workload} failed under {}: {:?}",
        result.label,
        result.stop
    );
    result
}

/// The seven hardened configurations of Figure 7, in figure order.
pub fn fig7_configs() -> Vec<RtConfig> {
    vec![
        RtConfig::asan(),
        RtConfig::rest(Mode::Debug, true),
        RtConfig::rest(Mode::Secure, true),
        RtConfig::rest_perfect(true),
        RtConfig::rest(Mode::Debug, false),
        RtConfig::rest(Mode::Secure, false),
        RtConfig::rest_perfect(false),
    ]
}

/// The token widths of Figure 8.
pub fn fig8_widths() -> [TokenWidth; 3] {
    [TokenWidth::B16, TokenWidth::B32, TokenWidth::B64]
}

/// A campaign's scheme set, resolved through the same
/// [`RtConfig::from_label`] table the CLI uses.
pub fn scheme_configs(labels: &[&'static str]) -> Vec<(&'static str, RtConfig)> {
    labels
        .iter()
        .map(|&label| {
            let rt = RtConfig::from_label(label).expect("campaign scheme labels are canonical");
            (label, rt)
        })
        .collect()
}

/// FNV-1a over a byte string: regression assembly identity in engine
/// cache keys, and guest output in fuzz checkpoints (recorded instead
/// of the bytes themselves, so checkpoints stay small but divergence
/// stays visible).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}

/// Weighted arithmetic mean overhead (the paper's *WtdAriMean*,
/// footnote 5): total hardened runtime over total plain runtime, minus
/// one — i.e. each benchmark weighted by its plain runtime.
///
/// Degenerate inputs (empty slices, all-zero plain cycles) yield 0.0
/// rather than NaN, so partially failed sweeps still summarise.
pub fn wtd_ari_mean_overhead(plain_cycles: &[u64], hardened_cycles: &[u64]) -> f64 {
    assert_eq!(plain_cycles.len(), hardened_cycles.len());
    let p: f64 = plain_cycles.iter().map(|&c| c as f64).sum();
    let h: f64 = hardened_cycles.iter().map(|&c| c as f64).sum();
    if p == 0.0 {
        return 0.0;
    }
    (h / p - 1.0) * 100.0
}

/// Geometric mean overhead (the paper's *GeoMean*, footnote 6).
///
/// Pairs with a zero cycle count on either side carry no usable ratio
/// and are skipped; if nothing remains (including empty inputs) the
/// mean is 0.0 rather than NaN/∞.
pub fn geo_mean_overhead(plain_cycles: &[u64], hardened_cycles: &[u64]) -> f64 {
    assert_eq!(plain_cycles.len(), hardened_cycles.len());
    let ratios: Vec<f64> = plain_cycles
        .iter()
        .zip(hardened_cycles)
        .filter(|&(&p, &h)| p > 0 && h > 0)
        .map(|(&p, &h)| (h as f64 / p as f64).ln())
        .collect();
    if ratios.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = ratios.iter().sum();
    ((log_sum / ratios.len() as f64).exp() - 1.0) * 100.0
}

/// Writes the observability artefacts of one experiment run:
///
/// * the Perfetto/Chrome trace-event JSON of the first traced job, when
///   `--trace-out PATH` was given (load the file at
///   <https://ui.perfetto.dev>),
/// * the host wall-time profile (`profile`, plus the engine's per-job
///   timing log) to `--profile-out` (default
///   `results/BENCH_baseline.json`),
/// * the campaign telemetry document (`rest-telemetry/v1`: per-job
///   spans, worker utilization, cache + resilience counters) to
///   `--telemetry-out` (default `results/BENCH_telemetry.json`), and
///   the campaign-timeline Perfetto trace (one track per worker) when
///   `--campaign-trace-out PATH` was given.
///
/// All of it is reported on stderr only; nothing here touches stdout or
/// the experiment's deterministic JSON document.
pub fn finish_observability(
    cli: &cli::BenchCli,
    eng: &engine::Engine,
    matrix: &engine::MatrixResults,
    profile: rest_obs::HostProfile,
) {
    let pipeline_trace = matrix.first_trace().map(|t| t.to_perfetto().render());
    finish_observability_with(cli, eng, pipeline_trace, profile);
}

/// As [`finish_observability`], with the pipeline trace (if any)
/// already rendered — the entry point for binaries that run plain job
/// lists instead of a [`engine::MatrixResults`].
pub fn finish_observability_with(
    cli: &cli::BenchCli,
    eng: &engine::Engine,
    pipeline_trace: Option<String>,
    mut profile: rest_obs::HostProfile,
) {
    if let Some(path) = &cli.trace_out {
        match pipeline_trace {
            Some(text) => write_text_file(path, &text),
            None => eprintln!(
                "# --trace-out: the traced job failed or recorded nothing; no trace written"
            ),
        }
    }
    for timing in eng.take_timings() {
        profile.add_job(timing);
    }
    write_text_file(&cli.profile_path(), &profile.render());
    let report =
        telemetry::TelemetryReport::new(&cli.experiment, eng.workers(), eng.take_spans());
    write_text_file(&cli.telemetry_path(), &report.render());
    if let Some(path) = &cli.campaign_trace_out {
        write_text_file(path, &report.to_perfetto().render());
    }
}

/// Writes `text` to `path` (creating parent directories) and reports
/// the path on stderr; exits nonzero on I/O failure, like the result
/// sink.
pub fn write_text_file(path: &std::path::Path, text: &str) {
    let write = || -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, text)
    };
    match write() {
        Ok(()) => eprintln!("# wrote {}", path.display()),
        Err(e) => {
            eprintln!("# FAILED writing {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// Prints a header identifying the simulated machine (the paper prints
/// Table II with every result; we do the lightweight equivalent).
pub fn print_machine_header(what: &str) {
    println!("# {what}");
    println!("# machine: {MACHINE}");
    println!();
}

/// Formats one row of an overhead table.
pub fn fmt_row(name: &str, cells: &[f64]) -> String {
    use std::fmt::Write as _;
    let mut s = format!("{name:<12}");
    for c in cells {
        let _ = write!(s, "{c:>18.2}");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn means_match_definitions() {
        let plain = [100, 300];
        let hardened = [150, 300];
        // Weighted: (450/400 - 1) = 12.5%.
        assert!((wtd_ari_mean_overhead(&plain, &hardened) - 12.5).abs() < 1e-9);
        // Geo: sqrt(1.5 * 1.0) - 1 ≈ 22.47%.
        assert!((geo_mean_overhead(&plain, &hardened) - 22.474487).abs() < 1e-3);
    }

    #[test]
    fn means_guard_degenerate_inputs() {
        // Empty sweeps summarise to zero, not NaN.
        assert_eq!(wtd_ari_mean_overhead(&[], &[]), 0.0);
        assert_eq!(geo_mean_overhead(&[], &[]), 0.0);
        // All plain cycles zero: no usable ratio anywhere.
        assert_eq!(wtd_ari_mean_overhead(&[0, 0], &[5, 7]), 0.0);
        assert_eq!(geo_mean_overhead(&[0, 0], &[5, 7]), 0.0);
        // A zero entry on either side is skipped, not propagated as ∞.
        assert!((geo_mean_overhead(&[0, 100], &[50, 150]) - 50.0).abs() < 1e-9);
        assert!((geo_mean_overhead(&[100, 100], &[0, 150]) - 50.0).abs() < 1e-9);
        assert!(geo_mean_overhead(&[0, 100], &[50, 150]).is_finite());
    }

    #[test]
    fn fig7_has_seven_configs_in_order() {
        let c = fig7_configs();
        assert_eq!(c.len(), 7);
        assert_eq!(c[0].label(), "asan");
        assert_eq!(c[2].label(), "rest-secure-full");
        assert_eq!(c[6].label(), "rest-perfecthw-heap");
    }

    #[test]
    fn harness_runs_one_workload() {
        let r = run(Workload::Lbm, Scale::Test, RtConfig::plain());
        assert!(r.cycles() > 0);
    }
}
