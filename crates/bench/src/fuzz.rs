//! Adversarial-corpus fuzz campaign (`fuzz` binary).
//!
//! Generates a seeded stream of randomized-but-well-formed allocator
//! traces with injected bugs of known ground truth ([`rest_fuzz`]) and
//! runs every case through the tri-oracle differential harness: the
//! static verifier's must-trap verdict, the functional emulator at all
//! three execution tiers, and the cycle-level timing path. Each case
//! classifies into a [`Class`]; the campaign runs **rounds** of
//! `--round-size` programs until two consecutive rounds surface no new
//! `truth/class` signature (and at least `--min-programs` ran), then
//! minimizes one exemplar per signature to a 1-minimal reproducer.
//!
//! The campaign writes a signature table to stdout and a `rest-fuzz/v1`
//! JSON document to `results/fuzz.json`, byte-identical at any `--jobs`
//! level and across interrupt (`--max-cells N`) + `--resume`, using the
//! same checkpoint machinery as the fault campaign
//! ([`crate::checkpoint`]). Any case whose class is not *explained*
//! (cross-oracle agreement or a documented §V-C known miss) fails the
//! run with exit status 1 — the hard zero-unexplained gate CI enforces.
//!
//! With `--emit-regress DIR`, every bug signature's minimized exemplar
//! is written as an assembly reproducer (`<slug>.s`) plus an alloc-trace
//! sidecar (`<slug>.trace`) carrying per-scheme `expect` lines computed
//! empirically on the pipeline — the regression-corpus format the
//! defense and elision campaigns replay.

use std::collections::{BTreeMap, BTreeSet};

use rest_fuzz::{
    lower, minimize, run_case, Case, CaseRecord, CaseStream, Class, GroundTruth, BUG_SLOT,
};
use rest_obs::Json;

use crate::checkpoint::Checkpoint;
use crate::cli::Harness;
use crate::engine::{RegressProg, SimJob};
use crate::fnv1a;

/// Campaign document schema identifier.
pub const SCHEMA: &str = "rest-fuzz/v1";

/// Cases simulated between checkpoint saves.
const CKPT_CHUNK: usize = 64;

/// Consecutive signature-free rounds required to stop.
const DRY_ROUNDS: usize = 2;

/// Hard round cap: a backstop against a pathological stream that keeps
/// minting signatures, far above what the finite `truth/class` space
/// can reach.
const MAX_ROUNDS: usize = 64;

/// Checkpoint key for one case index.
fn case_key(index: u64) -> String {
    format!("case-{index:06}")
}

/// The `truth/class` disagreement signature of a recorded case.
fn signature(record: &Json) -> String {
    let field = |key| record.get(key).and_then(Json::as_str).unwrap_or("?");
    format!("{}/{}", field("truth"), field("class"))
}

/// One case's checkpointed record: scalars only (strings, ints, bools),
/// so the serialise→parse round trip through the checkpoint is
/// lossless and resumed campaigns render byte-identical documents.
fn record_json(case: &Case, rec: &CaseRecord) -> Json {
    Json::obj(vec![
        ("case", Json::UInt(case.index)),
        ("truth", Json::from(case.truth.name())),
        ("class", Json::from(rec.class.name())),
        ("ops", Json::UInt(case.ops.len() as u64)),
        ("stop", Json::from(rec.stop.as_str())),
        ("detail", Json::from(rec.detail.as_str())),
        ("detected", Json::Bool(rec.detected)),
        ("musttrap", Json::Bool(rec.musttrap)),
        ("static_errors", Json::UInt(rec.static_errors)),
        ("static_findings", Json::UInt(rec.static_findings)),
        ("output_len", Json::UInt(rec.output.len() as u64)),
        (
            "output_fnv",
            Json::from(format!("{:#018x}", fnv1a(&rec.output))),
        ),
        ("insts", Json::UInt(rec.insts)),
        ("cycles", Json::UInt(rec.cycles)),
    ])
}

/// File-name slug for a signature (`oob-write/agree-detected` →
/// `oob-write--agree-detected`).
fn sig_slug(sig: &str) -> String {
    sig.replace('/', "--")
}

/// Empirical per-scheme expectation of a minimized reproducer: the
/// pipeline runs the program under each defense scheme and the verdict
/// maps onto the [`rest_attacks::Expectation`] vocabulary the regression
/// replay judges with. Generated programs plant no secret, so
/// `detected`/`undetected` are exact; a REST miss on a ground-truth
/// known-miss case is the documented §V-C `false-negative`.
fn scheme_expectations(h: &Harness, case: &Case, asm: &str, slug: &str) -> Vec<(String, String)> {
    let known_miss = matches!(case.truth, GroundTruth::Miss(_));
    crate::scheme_configs(&crate::defense::SCHEMES)
        .into_iter()
        .map(|(label, rt)| {
            let prog = RegressProg {
                name: slug.to_string(),
                asm: std::sync::Arc::new(asm.to_string()),
            };
            let job = SimJob::for_regress(prog, label, rt, h.cli.scale);
            let expect = match job.execute() {
                Err(e) => {
                    eprintln!("# fuzz: {slug} failed under {label}: {}", e.detail);
                    std::process::exit(1);
                }
                Ok(result) => {
                    let out = crate::defense::outcome_of(&result);
                    if out.detected {
                        "detected"
                    } else if known_miss && label == "rest-secure-full" {
                        "false-negative"
                    } else {
                        "undetected"
                    }
                }
            };
            (label.to_string(), expect.to_string())
        })
        .collect()
}

/// Writes one minimized reproducer as `<slug>.s` + `<slug>.trace` into
/// `dir`, with provenance headers and empirical `expect` lines.
fn emit_regress(h: &Harness, dir: &std::path::Path, sig: &str, case: &Case) {
    let slug = sig_slug(sig);
    let header = format!(
        "# rest-fuzz minimized reproducer\n\
         # seed: {:#x}  case: {}\n\
         # signature: {sig}\n",
        h.cli.fuzz_seed, case.index
    );
    let asm = format!("{header}{}", lower(case).to_asm());
    let mut trace = format!("{header}");
    for op in &case.ops {
        trace.push_str(&format!("op {}\n", op.line()));
    }
    for (scheme, expect) in scheme_expectations(h, case, &asm, &slug) {
        trace.push_str(&format!("expect {scheme} {expect}\n"));
    }
    crate::write_text_file(&dir.join(format!("{slug}.s")), &asm);
    crate::write_text_file(&dir.join(format!("{slug}.trace")), &trace);
}

/// Runs the full campaign: generate + tri-oracle rounds until dry
/// (checkpointing every [`CKPT_CHUNK`] cases), then — unless
/// interrupted by `--max-cells` — minimize one exemplar per signature,
/// print the table, write `results/fuzz.json`, delete the checkpoint,
/// and exit 1 if any case classified as unexplained.
pub fn run_campaign(h: &mut Harness) {
    let cli = h.cli.clone();
    let rt = rest_fuzz::campaign_rt();
    let fingerprint = format!(
        "{SCHEMA}|{}|seed={:#x}|round={}|min={}|dry={DRY_ROUNDS}|mode=rest-secure-full",
        cli.scale_name(),
        cli.fuzz_seed,
        cli.round_size,
        cli.min_programs,
    );
    let mut ckpt = Checkpoint::open(&cli.ckpt_path(), &fingerprint, cli.resume);

    let mut stream = CaseStream::new(cli.fuzz_seed);
    let mut cases: Vec<Case> = Vec::new();
    let mut seen_sigs: BTreeSet<String> = BTreeSet::new();
    let mut round_docs: Vec<Json> = Vec::new();
    let cell_limit = cli.max_cells.unwrap_or(usize::MAX);
    let mut fresh = 0usize;
    let mut dry = 0usize;
    let mut ran_dry = false;
    let mut interrupted = false;

    'rounds: for round in 1..=MAX_ROUNDS {
        // Generation is pure and cheap: the stream always replays from
        // the seed, so resumed campaigns see the exact same cases and
        // only the oracle runs are skipped.
        let start = cases.len();
        for _ in 0..cli.round_size {
            cases.push(stream.next_case());
        }
        let round_cases = &cases[start..];

        let pending: Vec<&Case> = round_cases
            .iter()
            .filter(|c| ckpt.get(&case_key(c.index)).is_none())
            .collect();
        for chunk in pending.chunks(CKPT_CHUNK) {
            if fresh >= cell_limit {
                interrupted = true;
                break 'rounds;
            }
            let take = (cell_limit - fresh).min(chunk.len());
            let part = &chunk[..take];
            let records = h.engine.run_tasks(part.len(), |i| run_case(part[i], &rt));
            for (case, rec) in part.iter().zip(&records) {
                ckpt.insert(case_key(case.index), record_json(case, rec));
            }
            fresh += take;
            if let Err(e) = ckpt.save() {
                eprintln!("# FAILED writing checkpoint: {e}");
                std::process::exit(1);
            }
            if take < chunk.len() {
                interrupted = true;
                break 'rounds;
            }
        }

        // Round bookkeeping runs off the recorded cells only, so a
        // resumed campaign recomputes the identical dry sequence.
        let mut new_sigs: Vec<Json> = Vec::new();
        for case in round_cases {
            let record = ckpt.get(&case_key(case.index)).expect("round completed");
            let sig = signature(record);
            if seen_sigs.insert(sig.clone()) {
                new_sigs.push(Json::Str(sig));
            }
        }
        dry = if new_sigs.is_empty() { dry + 1 } else { 0 };
        eprintln!(
            "# fuzz: round {round}: {} program(s), {} new signature(s), dry {dry}/{DRY_ROUNDS}",
            round_cases.len(),
            new_sigs.len()
        );
        round_docs.push(Json::obj(vec![
            ("round", Json::UInt(round as u64)),
            ("programs", Json::UInt(round_cases.len() as u64)),
            ("new_signatures", Json::Arr(new_sigs)),
        ]));
        if dry >= DRY_ROUNDS && cases.len() >= cli.min_programs {
            ran_dry = true;
            break;
        }
    }
    if interrupted {
        eprintln!(
            "# fuzz: stopped after {fresh} fresh case(s) (--max-cells); \
             {} recorded — rerun with --resume to finish",
            ckpt.len()
        );
        return;
    }

    // Aggregate the recorded cells: per-class counts, per-signature
    // stats, and the unexplained set the gate fires on.
    struct SigStat {
        count: u64,
        first_case: u64,
        truth: String,
        class: String,
        explained: bool,
    }
    let mut classes: BTreeMap<String, u64> = BTreeMap::new();
    let mut sigs: BTreeMap<String, SigStat> = BTreeMap::new();
    let mut unexplained_cases: Vec<Json> = Vec::new();
    for case in &cases {
        let record = ckpt.get(&case_key(case.index)).expect("campaign completed");
        let class_name = record.get("class").and_then(Json::as_str).unwrap_or("?");
        let explained = Class::from_name(class_name).is_some_and(Class::is_explained);
        *classes.entry(class_name.to_string()).or_insert(0) += 1;
        let sig = signature(record);
        sigs.entry(sig)
            .and_modify(|s| s.count += 1)
            .or_insert_with(|| SigStat {
                count: 1,
                first_case: case.index,
                truth: case.truth.name().to_string(),
                class: class_name.to_string(),
                explained,
            });
        if !explained && unexplained_cases.len() < 50 {
            unexplained_cases.push(Json::UInt(case.index));
        }
    }
    let unexplained_total: u64 = classes
        .iter()
        .filter(|(name, _)| !Class::from_name(name).is_some_and(Class::is_explained))
        .map(|(_, n)| n)
        .sum();

    // Minimize one exemplar per signature: the earliest case, shrunk to
    // a 1-minimal reproducer of the same class.
    crate::print_machine_header("fuzz — adversarial tri-oracle campaign (rest-secure-full)");
    println!(
        "{:<42}{:>9}{:>12}{:>12}{:>9}",
        "signature", "count", "first case", "explained", "min ops"
    );
    let mut sig_docs: Vec<(String, Json)> = Vec::new();
    for (sig, stat) in &sigs {
        let minimized = minimize(&cases[stat.first_case as usize], &rt);
        println!(
            "{:<42}{:>9}{:>12}{:>12}{:>9}",
            sig,
            stat.count,
            stat.first_case,
            if stat.explained { "yes" } else { "NO" },
            minimized.ops.len()
        );
        if let Some(dir) = &cli.emit_regress {
            // Known-miss classes are runtime-vacuous (nothing traps or
            // must-traps), so the class-preserving minimizer deletes
            // every op; the committed reproducer falls back to the
            // injected bug ops. Clean signatures have no bug ops and
            // emit nothing.
            let exemplar = if minimized.ops.is_empty() {
                let first = &cases[stat.first_case as usize];
                Case {
                    index: first.index,
                    ops: first
                        .ops
                        .iter()
                        .filter(|op| op.slot() == BUG_SLOT)
                        .copied()
                        .collect(),
                    truth: first.truth,
                }
            } else {
                minimized.clone()
            };
            if !exemplar.ops.is_empty() {
                emit_regress(h, dir, sig, &exemplar);
            }
        }
        sig_docs.push((
            sig.clone(),
            Json::obj(vec![
                ("count", Json::UInt(stat.count)),
                ("first_case", Json::UInt(stat.first_case)),
                ("truth", Json::from(stat.truth.as_str())),
                ("class", Json::from(stat.class.as_str())),
                ("explained", Json::Bool(stat.explained)),
                (
                    "minimized_ops",
                    Json::Arr(
                        minimized
                            .ops
                            .iter()
                            .map(|op| Json::Str(op.line()))
                            .collect(),
                    ),
                ),
            ]),
        ));
    }
    println!();
    println!(
        "programs: {}   signatures: {}   unexplained: {unexplained_total}",
        cases.len(),
        sigs.len()
    );

    let mut sink = h.sink();
    sink.push("schema", Json::from(SCHEMA));
    sink.push("fuzz_seed", Json::UInt(cli.fuzz_seed));
    sink.push("round_size", Json::UInt(cli.round_size as u64));
    sink.push("min_programs", Json::UInt(cli.min_programs as u64));
    sink.push("dry_rounds", Json::UInt(DRY_ROUNDS as u64));
    sink.push("mode", Json::from("rest-secure-full"));
    sink.push("programs", Json::UInt(cases.len() as u64));
    sink.push("ran_dry", Json::Bool(ran_dry));
    sink.push("rounds", Json::Arr(round_docs));
    sink.push(
        "classes",
        Json::Obj(
            classes
                .iter()
                .map(|(name, &n)| (name.clone(), Json::UInt(n)))
                .collect(),
        ),
    );
    sink.push("signatures", Json::Obj(sig_docs));
    sink.push(
        "unexplained",
        Json::obj(vec![
            ("count", Json::UInt(unexplained_total)),
            ("cases", Json::Arr(unexplained_cases)),
        ]),
    );
    sink.finish();
    ckpt.remove();

    if unexplained_total > 0 {
        eprintln!(
            "fuzz: {unexplained_total} unexplained disagreement(s) — every case must \
             cross-check across the oracles or land in the documented known-miss table"
        );
        std::process::exit(1);
    }
}

/// Entry point of the `fuzz` binary.
pub fn main() {
    let mut h = Harness::new("fuzz");
    run_campaign(&mut h);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::BenchCli;

    #[test]
    fn case_keys_sort_in_case_order() {
        assert_eq!(case_key(0), "case-000000");
        assert_eq!(case_key(123_456), "case-123456");
        let keys: Vec<String> = (0..200).map(case_key).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn records_round_trip_through_checkpoint_canonicalisation() {
        let rt = rest_fuzz::campaign_rt();
        let mut stream = CaseStream::new(BenchCli::DEFAULT_FUZZ_SEED);
        let case = stream.next_case();
        let record = record_json(&case, &run_case(&case, &rt));
        let reparsed = Json::parse(&record.to_string_pretty()).unwrap();
        assert_eq!(record.to_string_pretty(), reparsed.to_string_pretty());
        // The signature reads back out of the canonicalised record.
        assert!(signature(&reparsed).contains('/'));
        assert!(!signature(&reparsed).contains('?'));
    }

    #[test]
    fn signatures_and_slugs_are_stable() {
        let record = Json::obj(vec![
            ("truth", Json::from("oob-write")),
            ("class", Json::from("agree-detected")),
        ]);
        let sig = signature(&record);
        assert_eq!(sig, "oob-write/agree-detected");
        assert_eq!(sig_slug(&sig), "oob-write--agree-detected");
    }

    #[test]
    fn fnv_distinguishes_outputs() {
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_ne!(fnv1a(b""), fnv1a(b"\0"));
        assert_eq!(fnv1a(b"same"), fnv1a(b"same"));
    }
}
