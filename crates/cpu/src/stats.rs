use rest_faults::FaultReport;
use rest_isa::Component;
use rest_mem::MemStats;
use rest_obs::{AuditLog, CpiStack, TimeSeries};
use rest_runtime::AllocStats;

use crate::emulator::StopReason;
use crate::profile::GuestProfile;
use crate::trace::PipelineTrace;

/// Pipeline-side statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreStats {
    /// Total cycles (commit time of the last micro-op).
    pub cycles: u64,
    /// Macro instructions retired.
    pub insts: u64,
    /// Micro-ops processed (including injected instrumentation and
    /// runtime traffic).
    pub uops: u64,
    /// Micro-ops per software component (Figure 3 attribution), indexed
    /// by [`Component::ALL`] order.
    pub uops_by_component: [u64; 5],
    /// Conditional/indirect branch predictions made.
    pub branch_lookups: u64,
    /// Mispredictions (direction or target).
    pub branch_mispredicts: u64,
    /// Loads served by store-to-load forwarding.
    pub store_forwards: u64,
    /// Loads delayed by a partial overlap with an in-flight store.
    pub load_partial_stalls: u64,
    /// Cycles the ROB head was blocked waiting for a store's write to
    /// complete (debug mode's dominant cost; §VI-B reports this an order
    /// of magnitude higher in debug than secure).
    pub rob_blocked_store_cycles: u64,
    /// Aggregate dispatch-stall cycles charged to a full IQ.
    pub iq_stall_cycles: u64,
    /// Aggregate dispatch-stall cycles charged to a full ROB.
    pub rob_stall_cycles: u64,
    /// Aggregate dispatch-stall cycles charged to full LQ/SQ.
    pub lsq_stall_cycles: u64,
    /// REST exceptions detected by the LSQ forwarding rules (loads that
    /// would have forwarded from an in-flight arm, stores hitting an
    /// in-flight arm, double in-flight disarms).
    pub lsq_rest_exceptions: u64,
    /// I-cache fetch stalls (cycles).
    pub fetch_stall_cycles: u64,
    /// Checks skipped because the static elision map proved them unable
    /// to fire (see [`crate::SimConfig::elision`]). Kept out of
    /// [`stats_map_parts`] so the flat counter snapshot — and every
    /// artifact serialized from it — is byte-identical for runs without
    /// an elision map.
    pub elided_checks: u64,
    /// Commit-time cycle attribution. The components always sum to
    /// `cycles` (valid after [`crate::Pipeline::finish`]); built by the
    /// pipeline as each micro-op advances the commit frontier.
    pub cpi: CpiStack,
}

impl CoreStats {
    /// Micro-ops per cycle.
    pub fn uipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.uops as f64 / self.cycles as f64
        }
    }

    /// Records a micro-op's component attribution.
    pub fn note_component(&mut self, c: Component) {
        // `Component::ALL` lists the variants in declaration order (a
        // test below pins it), so the discriminant is the index.
        self.uops_by_component[c as usize] += 1;
    }
}

/// Complete result of one simulated run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Pipeline-stage trace of the first N micro-ops, when enabled via
    /// [`crate::SimConfig::trace_uops`].
    pub trace: Option<PipelineTrace>,
    /// Pipeline statistics.
    pub core: CoreStats,
    /// Memory-hierarchy statistics.
    pub mem: MemStats,
    /// Allocator statistics.
    pub alloc: AllocStats,
    /// Why the program stopped.
    pub stop: StopReason,
    /// Program output (PutChar bytes).
    pub output: Vec<u8>,
    /// Configuration label (e.g. `"rest-secure-full"`).
    pub label: String,
    /// Interval time-series, when sampling was enabled via
    /// [`crate::SimConfig::sample_interval`].
    pub series: Option<TimeSeries>,
    /// Every REST/ASan violation the run detected, with provenance.
    pub audit: AuditLog,
    /// Fault-injection summary, when the run was configured with a
    /// [`crate::SimConfig::fault`] spec (None on fault-free runs).
    pub fault: Option<FaultReport>,
    /// Guest hotspot profile, when collection was enabled via
    /// [`crate::SimConfig::profile_guest`].
    pub profile: Option<GuestProfile>,
}

impl SimResult {
    /// Total cycles.
    pub fn cycles(&self) -> u64 {
        self.core.cycles
    }

    /// Slowdown of this run relative to `baseline`, as a ratio (1.0 =
    /// equal).
    pub fn slowdown_vs(&self, baseline: &SimResult) -> f64 {
        if baseline.core.cycles == 0 {
            return 0.0;
        }
        self.core.cycles as f64 / baseline.core.cycles as f64
    }

    /// Overhead percentage relative to `baseline` (paper's figures).
    pub fn overhead_pct_vs(&self, baseline: &SimResult) -> f64 {
        (self.slowdown_vs(baseline) - 1.0) * 100.0
    }

    /// Tokens crossing the L2/memory interface per kilo-instruction
    /// (§VI-B prose statistic).
    pub fn tokens_per_kiloinst_l2_mem(&self) -> f64 {
        if self.core.insts == 0 {
            0.0
        } else {
            self.mem.token_lines_l2_mem as f64 * 1000.0 / self.core.insts as f64
        }
    }

    /// Flat, deterministically ordered `name → value` snapshot of every
    /// counter in the result (core, memory hierarchy, allocator), for
    /// machine-readable result sinks. Keys are stable
    /// `<subsystem>.<counter>` identifiers; per-component micro-op
    /// counters expand to one key per [`Component`].
    pub fn stats_map(&self) -> Vec<(&'static str, u64)> {
        stats_map_parts(&self.core, &self.mem, &self.alloc)
    }
}

/// Number of `core.*` keys [`stats_map_parts`] emits (scalar counters
/// plus one per [`Component`]). Guarded by the exhaustiveness test
/// below alongside [`MemStats::FIELD_COUNT`].
pub const CORE_KEY_COUNT: usize = 13 + Component::ALL.len();

/// Number of `alloc.*` keys [`stats_map_parts`] emits.
pub const ALLOC_KEY_COUNT: usize = 9;

/// Builds the flat counter map from the three stats blocks. Free
/// function so the interval sampler can snapshot a *running* system —
/// [`SimResult::stats_map`] delegates here at end of run.
pub fn stats_map_parts(
    c: &CoreStats,
    m: &MemStats,
    a: &AllocStats,
) -> Vec<(&'static str, u64)> {
    let mut map = vec![
        ("core.cycles", c.cycles),
        ("core.insts", c.insts),
        ("core.uops", c.uops),
        ("core.branch_lookups", c.branch_lookups),
        ("core.branch_mispredicts", c.branch_mispredicts),
        ("core.store_forwards", c.store_forwards),
        ("core.load_partial_stalls", c.load_partial_stalls),
        ("core.rob_blocked_store_cycles", c.rob_blocked_store_cycles),
        ("core.iq_stall_cycles", c.iq_stall_cycles),
        ("core.rob_stall_cycles", c.rob_stall_cycles),
        ("core.lsq_stall_cycles", c.lsq_stall_cycles),
        ("core.lsq_rest_exceptions", c.lsq_rest_exceptions),
        ("core.fetch_stall_cycles", c.fetch_stall_cycles),
    ];
    const COMPONENT_KEYS: [&str; 5] = [
        "core.uops_app",
        "core.uops_allocator",
        "core.uops_stack_protect",
        "core.uops_access_check",
        "core.uops_api_intercept",
    ];
    for (key, count) in COMPONENT_KEYS.iter().zip(c.uops_by_component) {
        map.push((key, count));
    }
    map.extend([
        ("mem.l1i_hits", m.l1i_hits),
        ("mem.l1i_misses", m.l1i_misses),
        ("mem.l1d_hits", m.l1d_hits),
        ("mem.l1d_misses", m.l1d_misses),
        ("mem.l2_hits", m.l2_hits),
        ("mem.l2_misses", m.l2_misses),
        ("mem.dram_accesses", m.dram_accesses),
        ("mem.l1d_writebacks", m.l1d_writebacks),
        ("mem.l2_writebacks", m.l2_writebacks),
        ("mem.token_detections_on_fill", m.token_detections_on_fill),
        ("mem.token_lines_evicted_l1d", m.token_lines_evicted_l1d),
        ("mem.token_lines_l2_mem", m.token_lines_l2_mem),
        ("mem.rest_exceptions", m.rest_exceptions),
        ("mem.debug_load_holds", m.debug_load_holds),
        ("mem.token_cache_hits", m.token_cache_hits),
        ("alloc.allocs", a.allocs),
        ("alloc.frees", a.frees),
        ("alloc.bytes_requested", a.bytes_requested),
        ("alloc.live_bytes", a.live_bytes),
        ("alloc.peak_live_bytes", a.peak_live_bytes),
        ("alloc.quarantine_bytes", a.quarantine_bytes),
        ("alloc.quarantine_evictions", a.quarantine_evictions),
        ("alloc.bad_frees", a.bad_frees),
        ("alloc.reuses", a.reuses),
    ]);
    map
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn component_attribution_indexes_align() {
        let mut s = CoreStats::default();
        s.note_component(Component::App);
        s.note_component(Component::Allocator);
        s.note_component(Component::Allocator);
        assert_eq!(s.uops_by_component[0], 1);
        assert_eq!(s.uops_by_component[1], 2);
    }

    #[test]
    fn component_discriminants_are_their_display_order() {
        for (i, &c) in Component::ALL.iter().enumerate() {
            assert_eq!(c as usize, i, "{c:?}");
        }
        let mut s = CoreStats::default();
        for &c in &Component::ALL {
            s.note_component(c);
        }
        assert!(s.uops_by_component.iter().all(|&n| n == 1));
    }

    #[test]
    fn derived_metrics() {
        let mut a = SimResult {
            trace: None,
            core: CoreStats {
                cycles: 1000,
                insts: 2000,
                uops: 2500,
                ..CoreStats::default()
            },
            mem: MemStats::default(),
            alloc: AllocStats::default(),
            stop: StopReason::Halted,
            output: Vec::new(),
            label: "plain".into(),
            series: None,
            audit: AuditLog::default(),
            fault: None,
            profile: None,
        };
        let b = SimResult {
            core: CoreStats {
                cycles: 1400,
                ..a.core
            },
            label: "asan".into(),
            ..a.clone()
        };
        assert!((b.slowdown_vs(&a) - 1.4).abs() < 1e-12);
        assert!((b.overhead_pct_vs(&a) - 40.0).abs() < 1e-9);
        assert!((a.core.uipc() - 2.5).abs() < 1e-12);
        a.mem.token_lines_l2_mem = 4;
        assert!((a.tokens_per_kiloinst_l2_mem() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn stats_map_is_complete_ordered_and_keyed_uniquely() {
        let mut r = SimResult {
            trace: None,
            core: CoreStats {
                cycles: 123,
                insts: 456,
                ..CoreStats::default()
            },
            mem: MemStats::default(),
            alloc: AllocStats::default(),
            stop: StopReason::Halted,
            output: Vec::new(),
            label: "plain".into(),
            series: None,
            audit: AuditLog::default(),
            fault: None,
            profile: None,
        };
        r.core.note_component(Component::Allocator);
        r.mem.token_lines_l2_mem = 9;
        r.alloc.allocs = 3;

        let map = r.stats_map();
        let get = |k: &str| {
            map.iter()
                .find(|(n, _)| *n == k)
                .unwrap_or_else(|| panic!("missing key {k}"))
                .1
        };
        assert_eq!(get("core.cycles"), 123);
        assert_eq!(get("core.insts"), 456);
        assert_eq!(get("core.uops_allocator"), 1);
        assert_eq!(get("mem.token_lines_l2_mem"), 9);
        assert_eq!(get("alloc.allocs"), 3);

        // Unique keys, deterministic order (core → mem → alloc).
        let mut names: Vec<&str> = map.iter().map(|(n, _)| *n).collect();
        assert_eq!(names[0], "core.cycles");
        let last_core = names.iter().rposition(|n| n.starts_with("core.")).unwrap();
        let first_mem = names.iter().position(|n| n.starts_with("mem.")).unwrap();
        let first_alloc = names.iter().position(|n| n.starts_with("alloc.")).unwrap();
        assert!(last_core < first_mem && first_mem < first_alloc);
        let len = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), len, "duplicate stat keys");
        // A second call yields the identical snapshot.
        assert_eq!(map, r.stats_map());
    }

    /// Exhaustiveness guard (paired with `MemStats::merge_covers_every_
    /// field` in `rest-mem`): adding a counter to `CoreStats` or
    /// `MemStats` must fail compilation or these assertions until it is
    /// wired into `stats_map_parts`.
    #[test]
    fn stats_map_covers_every_counter_field() {
        // Compile-time: naming every CoreStats field here means a new
        // field breaks this destructuring until it is acknowledged.
        let CoreStats {
            cycles: _,
            insts: _,
            uops: _,
            uops_by_component: _,
            branch_lookups: _,
            branch_mispredicts: _,
            store_forwards: _,
            load_partial_stalls: _,
            rob_blocked_store_cycles: _,
            iq_stall_cycles: _,
            rob_stall_cycles: _,
            lsq_stall_cycles: _,
            lsq_rest_exceptions: _,
            fetch_stall_cycles: _,
            elided_checks: _, // deliberately not a map key: elision-off artifacts stay byte-identical
            cpi: _,           // emitted as its own `cpi` JSON object, not a map key
        } = CoreStats::default();

        let r = SimResult {
            trace: None,
            core: CoreStats::default(),
            mem: MemStats::default(),
            alloc: AllocStats::default(),
            stop: StopReason::Halted,
            output: Vec::new(),
            label: "plain".into(),
            series: None,
            audit: AuditLog::default(),
            fault: None,
            profile: None,
        };
        let map = r.stats_map();
        let count = |prefix: &str| map.iter().filter(|(k, _)| k.starts_with(prefix)).count();
        assert_eq!(count("core."), CORE_KEY_COUNT, "core keys drifted");
        assert_eq!(count("mem."), MemStats::FIELD_COUNT, "mem keys drifted");
        assert_eq!(count("alloc."), ALLOC_KEY_COUNT, "alloc keys drifted");
        assert_eq!(
            map.len(),
            CORE_KEY_COUNT + MemStats::FIELD_COUNT + ALLOC_KEY_COUNT
        );
    }
}
