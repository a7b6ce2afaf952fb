//! `fig7-ref`: the Figure 7 matrix (16 rows × plain + the 7 hardened
//! configurations = 128 `System::run` cells) through
//! `Engine::run_matrix`, on one worker.

use std::hint::black_box;
use std::time::Instant;

use rest_bench::engine::{ColumnSpec, Engine, MatrixResults, MatrixSpec};
use rest_bench::{fig7_configs, figure_rows, stack_for, FigureRow};
use rest_cpu::{SimConfig, SimResult, StopReason};
use rest_runtime::RtConfig;
use rest_workloads::{Scale, WorkloadParams};

use crate::calib::{Calibration, Setup};
use crate::layers::{Layer, Trace};
use crate::report::{end_to_end, per_layer, Metric, Passes, Report, TracedExtras};
use crate::stats::{await_threads, threads, Digest, Sampler};
use crate::timing::run_loop;
use crate::Args;

/// The figure rows with their input seeds perturbed by `--seed`.
pub fn rows(perturb: u64) -> Vec<FigureRow> {
    figure_rows()
        .into_iter()
        .map(|r| FigureRow {
            seed: r.seed ^ perturb,
            ..r
        })
        .collect()
}

fn spec(args: &Args) -> MatrixSpec {
    let columns = fig7_configs()
        .into_iter()
        .map(|rt| ColumnSpec::new(rt.label(), rt))
        .collect();
    MatrixSpec::new(rows(args.perturb()), columns, args.scale)
}

/// The matrix's cells in `run_matrix` submission order: per row, the
/// plain baseline, then each column.
fn cells(spec: &MatrixSpec) -> Vec<(FigureRow, RtConfig)> {
    spec.rows
        .iter()
        .flat_map(|row| {
            std::iter::once(RtConfig::plain())
                .chain(spec.columns.iter().map(|c| c.rt.clone()))
                .map(move |rt| (*row, rt))
        })
        .collect()
}

fn params(row: &FigureRow, rt: &RtConfig, scale: Scale) -> WorkloadParams {
    WorkloadParams {
        scale,
        stack_scheme: stack_for(rt),
        token_width: rt.token_width,
        seed: row.seed,
    }
}

/// Builds every cell's guest program once, as the cells do.
fn build_all(spec: &MatrixSpec) {
    for (row, rt) in cells(spec) {
        black_box(row.workload.build(&params(&row, &rt, spec.scale)));
    }
}

/// Results of matrix passes in submission order.
fn results(res: &[MatrixResults]) -> Vec<Result<&SimResult, String>> {
    res.iter()
        .flat_map(|m| &m.rows)
        .flat_map(|r| r.plain.iter().chain(&r.cells))
        .map(|o| o.as_ref().as_ref().map_err(|e| e.to_string()))
        .collect()
}

/// Judges a pass (a cell fails unless it stopped with `Exit(0)`) and
/// digests every cell's `stats_map`.
fn judge(spec: &MatrixSpec, res: &[MatrixResults], report: &mut Report) -> (Digest, u64) {
    let mut digest = Digest::default();
    let mut insts = 0;
    report.attempted = 0;
    report.failed = 0;
    for ((row, rt), out) in cells(spec).iter().zip(results(res)) {
        report.attempted += 1;
        let name = format!("{} {}", row.name, rt.label());
        digest.bytes(name.as_bytes());
        match out {
            Ok(r) if r.stop == StopReason::Exit(0) => {
                digest.stats(&r.stats_map());
                insts += r.core.insts;
            }
            Ok(r) => report.fail(format!("{name}: stopped with {:?}", r.stop)),
            Err(e) => report.fail(format!("{name}: {e}")),
        }
    }
    (digest, insts)
}

/// The matrix's cells as one-cell matrices, in `run_matrix` submission
/// order: per row, the plain baseline, then each column.
fn cell_specs(spec: &MatrixSpec) -> Vec<Vec<MatrixSpec>> {
    spec.rows
        .iter()
        .map(|row| {
            let plain = MatrixSpec::new(vec![*row], Vec::new(), spec.scale);
            let columns = spec.columns.iter().map(|c| MatrixSpec {
                include_plain: false,
                ..MatrixSpec::new(vec![*row], vec![c.clone()], spec.scale)
            });
            std::iter::once(plain).chain(columns).collect()
        })
        .collect()
}

/// The untraced run: whole matrix passes until `--seconds` is used.
/// Each pass runs the matrix one cell at a time through `run_matrix`, so
/// that the calibration kernel can run between cells (a row takes about
/// a second, longer than the host's speed holds still) and a set-up
/// burst between rows.
pub fn untraced(args: &Args) -> Report {
    let spec = spec(args);
    let by_row = cell_specs(&spec);
    let mut report = Report::default();
    let mut cal = Calibration::default();
    let mut setup = Setup::default();
    cal.sample();
    setup.burst(&cal, || build_all(&spec));
    let mut passes = Passes::default();
    let mut first: Option<(u64, u64)> = None;
    let mut deterministic = true;
    let base_threads = threads();
    let start = Instant::now();
    loop {
        let mut own = cal.sample();
        let t = Instant::now();
        let (mut res, mut times, mut nearest) = (Vec::new(), Vec::new(), Vec::new());
        for row in &by_row {
            let b = Instant::now();
            setup.burst(&cal, || build_all(&spec));
            own += b.elapsed().as_secs_f64();
            for cell in row {
                own += cal.maybe_sample();
                nearest.push(cal.latest());
                let engine = Engine::new(1);
                res.push(engine.run_matrix(cell));
                times.extend(engine.take_timings().iter().map(|j| j.wall.as_secs_f64()));
                await_threads(base_threads);
            }
        }
        own += cal.sample();
        let wall = t.elapsed().as_secs_f64();
        let factors = nearest.iter().map(|&k| cal.factor_near(k)).collect();
        passes.push(wall, times, factors, own);
        let (digest, insts) = judge(&spec, &res, &mut report);
        match first {
            None => first = Some((digest.value(), insts)),
            Some((d, _)) => deterministic &= d == digest.value(),
        }
        if !args.another_pass(start, passes.len()) {
            break;
        }
    }
    let (digest, insts) = first.expect("at least one pass");
    report
        .checks
        .push(("same stats on every pass".to_string(), deterministic));
    report.notes.push(format!(
        "stats digest {digest:#018x} over {} cells",
        report.attempted
    ));
    end_to_end(&mut report, &cal, &setup, &passes, insts);
    for (scaled, name) in [(true, "timing_mips"), (false, "raw.timing_mips")] {
        let busy: f64 = passes.item_times(scaled).iter().sum();
        report
            .info
            .push(Metric::new(name, insts as f64 / busy / 1e6, "Minst/s"));
    }
    report
}

/// The traced run: row by row, the row's cells through `run_matrix`
/// untraced (the reference), then through the loop copy with every
/// layer timed and a shadow hierarchy, checked cell by cell against
/// the reference. Alternating rows keeps the two under the same host
/// conditions, for `trace.overhead_frac`.
pub fn traced(args: &Args) -> (Report, Trace) {
    let spec = spec(args);
    let mut report = Report::default();
    let mut trace = Trace::start();
    let cells = cells(&spec);
    let stride = spec.columns.len() + 1;
    let (mut reference, mut walls, mut spans, mut runs) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (r, row) in spec.rows.iter().enumerate() {
        let engine = Engine::new(1);
        let t = Instant::now();
        reference.push(engine.run_matrix(&MatrixSpec::new(
            vec![*row],
            spec.columns.clone(),
            spec.scale,
        )));
        trace.extra_outside_cells += t.elapsed().as_secs_f64();
        spans.extend(engine.take_spans());
        walls.extend(engine.take_timings().iter().map(|j| j.wall.as_secs_f64()));
        let row_cells = &cells[r * stride..(r + 1) * stride];
        runs.extend(Engine::new(1).run_tasks(row_cells.len(), |i| {
            let (row, rt) = &row_cells[i];
            let mut cell = trace.open(format!("{} {}", row.name, rt.label()));
            let mut counts = Default::default();
            let program = cell.timed(Layer::Build, || {
                row.workload.build(&params(row, rt, spec.scale))
            });
            let cfg = SimConfig::isca2018(rt.clone());
            let mut sampler = Sampler::new((r * stride + i) as u64);
            let run = run_loop(program, &cfg, true, &mut sampler, &mut cell, &mut counts);
            trace.seal(&mut cell);
            (cell, counts, run)
        }));
    }
    let digest = judge(&spec, &reference, &mut report).0.value();
    report.notes.push(format!(
        "stats digest {digest:#018x} over {} cells",
        report.attempted
    ));

    let mut x = TracedExtras {
        untraced_wall: walls.iter().sum(),
        ..TracedExtras::default()
    };
    let mut matched = 0;
    let mut by_row: Vec<(String, u64, f64)> = Vec::new();
    let mut by_config: Vec<(String, u64, f64)> = Vec::new();
    let (mut insts_total, mut loop_walls) = (0u64, 0.0);
    for (i, ((cell, counts, run), out)) in runs.into_iter().zip(results(&reference)).enumerate() {
        let (row, rt) = &cells[i];
        match out {
            Ok(r) if r.stats_map() == run.stats && r.stop == run.stop && r.output == run.output => {
                matched += 1;
                let insts = r.core.insts;
                insts_total += insts;
                for (list, key) in [
                    (&mut by_row, row.name.to_string()),
                    (&mut by_config, rt.label()),
                ] {
                    match list.iter_mut().find(|e| e.0 == key) {
                        Some(e) => {
                            e.1 += insts;
                            e.2 += walls[i];
                        }
                        None => list.push((key, insts, walls[i])),
                    }
                }
            }
            Ok(_) => report.fail(format!("{}: loop copy differs from System::run", cell.name)),
            // Already counted by `judge`.
            Err(_) => {}
        }
        loop_walls += cell.wall;
        trace.add(cell, counts);
    }
    trace.finish();
    x.traced_wall = loop_walls - trace.total(Layer::Shadow);
    trace.counts.jobs = spans.len() as u64;
    trace.counts.cache_hits = spans.iter().filter(|s| s.cached).count() as u64;
    report.notes.push(format!(
        "loop copy matched System::run on {matched} of {} cells",
        cells.len()
    ));
    let mips = |(name, insts, wall): (String, u64, f64)| (name, insts as f64 / wall / 1e6);
    x.timing_mips = insts_total as f64 / x.untraced_wall / 1e6;
    x.rows = by_row.into_iter().map(mips).collect();
    x.configs = by_config.into_iter().map(mips).collect();
    per_layer(&mut report, &trace, &x);
    (report, trace)
}
