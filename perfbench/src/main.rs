//! `perfbench`: host-speed benchmark of the REST simulator.
//!
//! ```text
//! perfbench --workload <fig7-ref|functional-ref|fuzz-campaign> \
//!           --seed <n> --seconds <s> --trace <0|1> [--scale ref|test]
//! ```
//!
//! Untraced (`--trace 0`), it times at least three whole passes of the
//! workload, then more for about `--seconds`, and prints the end-to-end
//! metrics. Traced
//! (`--trace 1`), it runs one pass with the calls into each layer timed
//! from outside and prints the per-layer metrics; the spans go to
//! `out/<workload>-seed<n>.perfetto.json`. Either way the last line of
//! stdout is the JSON result, a readable table precedes it, and the
//! full report is written to `out/<workload>-seed<n>-trace<t>.json`.
//! See README.md for the workloads and metrics.

mod calib;
mod fig7;
mod functional;
mod fuzz;
mod layers;
mod report;
mod stats;
mod timing;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use rest_workloads::Scale;

const USAGE: &str = "usage: perfbench --workload <fig7-ref|functional-ref|fuzz-campaign> \
                     --seed <n> --seconds <s> --trace <0|1> [--scale ref|test]";

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["fig7-ref", "functional-ref", "fuzz-campaign"];

/// Timed passes every untraced run makes, however long they take.
pub const MIN_PASSES: usize = 3;

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 0,
            seconds: 10.0,
            trace: false,
            scale: Scale::Ref,
        };
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" if WORKLOADS.contains(&value.as_str()) => args.workload = value,
                "--workload" => return Err(bad("unknown workload")),
                "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
                "--seconds" => {
                    args.seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| bad("expected a positive number"))?
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("expected 0 or 1")),
                    }
                }
                "--scale" => {
                    args.scale = match value.as_str() {
                        "ref" => Scale::Ref,
                        "test" => Scale::Test,
                        _ => return Err(bad("expected ref or test")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if args.workload.is_empty() {
            return Err("--workload is required".to_string());
        }
        Ok(args)
    }

    /// The input perturbation: 0 (the committed seeds) for `--seed 0`,
    /// otherwise a mix of the seed, XORed into every input seed.
    pub fn perturb(&self) -> u64 {
        if self.seed == 0 {
            0
        } else {
            stats::splitmix64(self.seed)
        }
    }

    /// Whether to start another timed pass after `done` passes: at
    /// least [`MIN_PASSES`] (each item keeps its median pass), then while
    /// `--seconds` since `start` have not passed.
    pub fn another_pass(&self, start: Instant, done: usize) -> bool {
        done < MIN_PASSES || start.elapsed().as_secs_f64() < self.seconds
    }
}

/// Where the detail files go: `out/` beside this package's manifest.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write(path: &PathBuf, text: &str) {
    let result = std::fs::create_dir_all(out_dir()).and_then(|_| std::fs::write(path, text));
    if let Err(e) = result {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (mut report, trace) = match (args.workload.as_str(), args.trace) {
        ("fig7-ref", false) => (fig7::untraced(&args), None),
        ("fig7-ref", true) => {
            let (r, t) = fig7::traced(&args);
            (r, Some(t))
        }
        ("functional-ref", false) => (functional::untraced(&args), None),
        ("functional-ref", true) => {
            let (r, t) = functional::traced(&args);
            (r, Some(t))
        }
        (_, false) => (fuzz::untraced(&args), None),
        (_, true) => {
            let (r, t) = fuzz::traced(&args);
            (r, Some(t))
        }
    };
    report.workload = args.workload.clone();
    report.seed = args.seed;
    report.traced = args.trace;
    let stem = format!("{}-seed{}", args.workload, args.seed);
    if let Some(trace) = &trace {
        let sum = trace.check_exact_sum();
        if let Err(e) = &sum {
            report.notes.push(format!("exact sum: {e}"));
        }
        report.checks.push((
            "exact sum: layer self times and engine.other_s partition the traced wall".to_string(),
            sum.is_ok(),
        ));
        let path = out_dir().join(format!("{stem}.perfetto.json"));
        write(&path, &trace.perfetto(&args.workload).render());
        report.notes.push(format!("spans: {}", path.display()));
    }
    let detail = out_dir().join(format!("{stem}-trace{}.json", u8::from(args.trace)));
    write(&detail, &report.detail().to_string_pretty());
    print!("{}", report.table());
    println!("{}", report.result_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
