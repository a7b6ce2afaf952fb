//! Pins the timing path (`System::run`: emulator → `Pipeline` →
//! `Hierarchy`) to the committed Figure 7 document.
//!
//! A few rows of the test-scale Figure 7 matrix are re-simulated in all
//! eight columns (plain plus the seven `fig7_configs()`), and every
//! cell's flat counter snapshot must equal the `stats` member of the
//! matching cell of `results/fig7.json`. A host-speed change to the
//! core or the caches that moves any simulated statistic fails here.
//!
//! The rows cover the timing code's distinct paths: lbm streams through
//! the caches (L1-D and L2 misses, DRAM, MSHR merging), xalancbmk chases
//! pointers, and gobmk-capture forwards stores to loads and stalls loads
//! on partially overlapping stores (non-zero `core.store_forwards` and
//! `core.load_partial_stalls`).

use rest_bench::engine::{ColumnSpec, Engine, MatrixSpec};
use rest_bench::{fig7_configs, figure_rows};
use rest_cpu::SimResult;
use rest_obs::Json;
use rest_workloads::Scale;

const ROWS: [&str; 3] = ["lbm", "xalancbmk", "gobmk-capture"];

fn committed_fig7() -> Json {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/fig7.json");
    let text = std::fs::read_to_string(&path).expect("results/fig7.json is committed");
    Json::parse(&text).expect("results/fig7.json parses")
}

/// Compares one simulated cell with its committed `stats` object,
/// member by member and in order.
fn assert_stats_match(result: &SimResult, cell: &Json, what: &str) {
    let Some(Json::Obj(committed)) = cell.get("stats") else {
        panic!("{what}: committed cell has no stats object");
    };
    let simulated = result.stats_map();
    assert_eq!(
        simulated.len(),
        committed.len(),
        "{what}: counter count differs"
    );
    for ((key, value), (ckey, cvalue)) in simulated.iter().zip(committed) {
        assert_eq!(*key, ckey, "{what}: counter order differs");
        assert_eq!(Some(*value), cvalue.as_u64(), "{what}: {key} differs");
    }
}

#[test]
fn timing_path_reproduces_committed_fig7_cells() {
    let doc = committed_fig7();
    assert_eq!(doc.get("scale").and_then(Json::as_str), Some("test"));
    let matrix = doc.get("matrix").expect("matrix member");
    let committed_rows = matrix.get("rows").and_then(Json::as_arr).expect("rows");

    let rows = figure_rows()
        .into_iter()
        .filter(|r| ROWS.contains(&r.name))
        .collect::<Vec<_>>();
    assert_eq!(rows.len(), ROWS.len(), "every pinned row is a Figure 7 row");
    let columns = fig7_configs()
        .into_iter()
        .map(|rt| ColumnSpec::new(rt.label(), rt))
        .collect::<Vec<_>>();
    let results = Engine::new(2).run_matrix(&MatrixSpec::new(rows, columns, Scale::Test));

    let mut forwards = 0;
    for row in &results.rows {
        let name = row.row.name;
        let committed = committed_rows
            .iter()
            .find(|r| r.get("benchmark").and_then(Json::as_str) == Some(name))
            .unwrap_or_else(|| panic!("{name} is in results/fig7.json"));
        let plain = row.plain_result().expect("plain baseline runs");
        assert_stats_match(
            plain,
            committed.get("plain").expect("plain cell"),
            &format!("{name} plain"),
        );
        forwards += plain.core.store_forwards;
        let cells = committed
            .get("cells")
            .and_then(Json::as_arr)
            .expect("cells");
        assert_eq!(cells.len(), results.columns.len());
        for (col, spec) in results.columns.iter().enumerate() {
            let cell = &cells[col];
            assert_eq!(
                cell.get("label").and_then(Json::as_str),
                Some(spec.label.as_str())
            );
            let result = row
                .cell(col)
                .unwrap_or_else(|| panic!("{name} {} runs", spec.label));
            assert_stats_match(result, cell, &format!("{name} {}", spec.label));
            forwards += result.core.store_forwards;
        }
    }
    assert!(
        forwards > 0,
        "the pinned rows exercise store-to-load forwarding"
    );
}
