use std::cmp::Ordering;
use std::collections::VecDeque;

use rest_core::{Mode, RestExceptionKind, Token};
use rest_isa::{DynInst, MemAccessKind, OpKind};
use rest_mem::{Hierarchy, LineReader, MemStats};
use rest_obs::{AuditEntry, AuditLog, CpiComponent, Gauges};

use crate::bpred::BranchPredictor;
use crate::config::CoreConfig;
use crate::ring::Ring;
use crate::stats::CoreStats;
use crate::trace::{PipelineTrace, TraceEntry};

/// An in-flight (not yet drained) store tracked for memory
/// disambiguation and the REST LSQ rules.
#[derive(Debug, Clone, Copy)]
struct StoreRec {
    addr: u64,
    size: u64,
    kind: MemAccessKind,
    /// Cycle its address/data were ready (forwardable from here).
    exec_done: u64,
    /// Cycle its write completed at the L1-D (leaves the SQ here).
    drain_done: u64,
}

impl StoreRec {
    /// Whether `[addr, addr+size)` shares a byte with this store's
    /// `[self.addr, self.addr+self.size)`. Both are half-open ranges in
    /// unbounded arithmetic: a range ending at or past the top of the
    /// address space neither overflows nor wraps to address 0.
    fn overlaps(&self, addr: u64, size: u64) -> bool {
        match self.addr.cmp(&addr) {
            Ordering::Less => addr - self.addr < self.size,
            Ordering::Greater => self.addr - addr < size,
            Ordering::Equal => size > 0 && self.size > 0,
        }
    }

    /// Whether `[addr, addr+size)` lies within this store's range, in
    /// the same overflow-free arithmetic as [`StoreRec::overlaps`].
    fn contains(&self, addr: u64, size: u64) -> bool {
        self.addr <= addr && size <= self.size && addr - self.addr <= self.size - size
    }
}

/// 64-byte granule of the [`StoreWindow`] line filter.
const FILTER_LINE_SHIFT: u32 = 6;
/// Buckets of the line filter's occupancy counts (a power of two).
const FILTER_BUCKETS: usize = 256;

/// The lines `[addr, addr+size)` touches (a zero size counts as one
/// byte) when they are at most two and the range does not run past the
/// top of the address space; `None` otherwise.
fn filter_lines(addr: u64, size: u64) -> Option<(u64, u64)> {
    let last = addr.checked_add(size.max(1) - 1)?;
    let (first, last) = (addr >> FILTER_LINE_SHIFT, last >> FILTER_LINE_SHIFT);
    (last - first <= 1).then_some((first, last))
}

fn bucket(line: u64) -> usize {
    line as usize & (FILTER_BUCKETS - 1)
}

/// The youngest `sq_entries` stores, searched by loads (forwarding) and
/// by store-like micro-ops (the Table I LSQ rules).
///
/// Beside the records it keeps per-line occupancy counts (lines hashed
/// into [`FILTER_BUCKETS`] buckets by their low bits). Two ranges that
/// overlap share a line, so an access whose lines' buckets are all empty
/// overlaps no record and skips the scan; the answer is the scan's
/// either way. Records and accesses spanning more than two lines or
/// running past `u64::MAX` are not counted and force the scan.
#[derive(Debug)]
struct StoreWindow {
    recs: VecDeque<StoreRec>,
    capacity: usize,
    counts: [u32; FILTER_BUCKETS],
    /// Records whose lines are not in `counts`.
    uncounted: usize,
}

impl StoreWindow {
    fn new(capacity: usize) -> StoreWindow {
        StoreWindow {
            recs: VecDeque::with_capacity(capacity + 1),
            capacity,
            counts: [0; FILTER_BUCKETS],
            uncounted: 0,
        }
    }

    /// Adds or removes `rec`'s lines from the occupancy counts.
    fn count(&mut self, rec: &StoreRec, add: bool) {
        let update = |c: &mut u32| if add { *c += 1 } else { *c -= 1 };
        match filter_lines(rec.addr, rec.size) {
            Some((first, last)) => {
                update(&mut self.counts[bucket(first)]);
                if last != first {
                    update(&mut self.counts[bucket(last)]);
                }
            }
            None if add => self.uncounted += 1,
            None => self.uncounted -= 1,
        }
    }

    /// Appends `rec`, dropping the oldest record beyond capacity.
    fn push(&mut self, rec: StoreRec) {
        self.count(&rec, true);
        self.recs.push_back(rec);
        while self.recs.len() > self.capacity {
            let old = self.recs.pop_front().expect("window is non-empty");
            self.count(&old, false);
        }
    }

    /// The youngest record still in flight at `at` (not drained by
    /// then) that overlaps `[addr, addr+size)`.
    fn youngest_overlapping(&self, addr: u64, size: u64, at: u64) -> Option<StoreRec> {
        if self.uncounted == 0 {
            if let Some((first, last)) = filter_lines(addr, size) {
                if self.counts[bucket(first)] == 0 && self.counts[bucket(last)] == 0 {
                    return None;
                }
            }
        }
        self.scan(addr, size, at)
    }

    /// [`StoreWindow::youngest_overlapping`] without the line filter.
    fn scan(&self, addr: u64, size: u64, at: u64) -> Option<StoreRec> {
        self.recs
            .iter()
            .rev()
            .find(|s| s.drain_done > at && s.overlaps(addr, size))
            .copied()
    }
}

/// The out-of-order timing model.
///
/// Replays the oracle micro-op stream using timestamp algebra: each
/// micro-op's fetch, dispatch, issue, completion, and commit cycles are
/// computed against scoreboards for every structural resource of the
/// Table II core (ROB/IQ/LQ/SQ occupancy, dispatch and commit width,
/// functional units, L1-D ports, branch redirects, I-cache stalls).
/// Younger independent micro-ops may issue before stalled older ones —
/// out-of-order issue — while dispatch and commit remain in order, as in
/// hardware.
///
/// Memory micro-ops walk the [`Hierarchy`]; the REST interactions
/// (token-bit checks, arm/disarm handling, debug-mode store-commit
/// delay, forwarding exceptions) happen on exactly the paths Table I
/// modifies.
#[derive(Debug)]
pub struct Pipeline {
    cfg: CoreConfig,
    hier: Hierarchy,
    bpred: BranchPredictor,
    mode: Mode,

    // Fetch state.
    next_fetch_cycle: u64,
    fetch_slots_used: usize,
    redirect_at: u64,
    cur_fetch_line: u64,

    // Scoreboards: each ring holds the stamp its resource frees at,
    // one slot per entry (or unit), in allocation order.
    reg_ready: [u64; 32],
    /// Dispatch cycles (dispatch width).
    disp_ring: Ring,
    /// Commit cycles (commit width).
    commit_ring: Ring,
    /// ROB entries free at commit.
    rob_ring: Ring,
    /// IQ entries free at issue.
    iq_ring: Ring,
    /// LQ entries free at the load's commit.
    lq_ring: Ring,
    /// SQ entries free when the store has drained.
    sq_ring: Ring,
    alu_ring: Ring,
    mul_ring: Ring,
    /// L1-D ports (loads and draining stores).
    port_ring: Ring,
    div_free: u64,
    sq_drain_free: u64,

    last_commit: u64,
    /// Dispatch barrier used by the serialise-rest-ops ablation.
    barrier_at: u64,

    store_window: StoreWindow,
    stats: CoreStats,
    tracer: Option<PipelineTrace>,
    /// Dispatch frontier — "now" for occupancy gauges.
    last_disp: u64,
    /// Committed macro instructions, maintained by the driver via
    /// [`Pipeline::note_inst`] (stamps audit entries).
    cur_inst: u64,
    audit: AuditLog,
}

impl Pipeline {
    /// Creates a pipeline over a fresh hierarchy.
    pub fn new(cfg: CoreConfig, hier: Hierarchy, mode: Mode) -> Pipeline {
        let bpred = BranchPredictor::new(cfg.bpred_history_bits, cfg.btb_entries, cfg.ras_depth);
        Pipeline {
            disp_ring: Ring::new(cfg.issue_width),
            commit_ring: Ring::new(cfg.commit_width),
            rob_ring: Ring::new(cfg.rob_entries),
            iq_ring: Ring::new(cfg.iq_entries),
            lq_ring: Ring::new(cfg.lq_entries),
            sq_ring: Ring::new(cfg.sq_entries),
            alu_ring: Ring::new(cfg.alu_units),
            mul_ring: Ring::new(cfg.mul_units),
            port_ring: Ring::new(cfg.mem_ports),
            div_free: 0,
            sq_drain_free: 0,
            next_fetch_cycle: 0,
            fetch_slots_used: 0,
            redirect_at: 0,
            cur_fetch_line: u64::MAX,
            reg_ready: [0; 32],
            last_commit: 0,
            barrier_at: 0,
            store_window: StoreWindow::new(cfg.sq_entries),
            stats: CoreStats::default(),
            tracer: None,
            last_disp: 0,
            cur_inst: 0,
            audit: AuditLog::default(),
            hier,
            bpred,
            mode,
            cfg,
        }
    }

    /// Enables stage-timestamp tracing for the first `uops` micro-ops.
    pub fn enable_trace(&mut self, uops: usize) {
        if uops > 0 {
            self.tracer = Some(PipelineTrace::new(uops));
        }
    }

    /// The recorded pipeline trace, if tracing was enabled.
    pub fn take_trace(&mut self) -> Option<PipelineTrace> {
        self.tracer.take()
    }

    /// Current pipeline statistics (cycles valid after [`Pipeline::finish`]).
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Memory-hierarchy statistics.
    pub fn mem_stats(&self) -> &MemStats {
        self.hier.stats()
    }

    /// Commit frontier so far — total cycles if the stream ended here.
    /// Valid mid-run, unlike `stats().cycles` (set by `finish`).
    pub fn current_cycles(&self) -> u64 {
        self.last_commit
    }

    /// Updates the committed macro-instruction count used to stamp
    /// audit entries (one store per macro step; call before replaying
    /// its micro-ops).
    pub fn note_inst(&mut self, insts: u64) {
        self.cur_inst = insts;
    }

    /// Hardware-detected violations recorded so far (cache token-bit
    /// checks and LSQ forwarding rules, with PC/component provenance).
    pub fn take_audit(&mut self) -> AuditLog {
        std::mem::take(&mut self.audit)
    }

    /// Occupancy gauges at the current dispatch frontier. Computed
    /// lazily by scanning the ring scoreboards — zero cost unless
    /// sampling is enabled.
    pub fn gauges(&mut self) -> Gauges {
        let now = self.last_disp;
        let mut g = Gauges {
            rob: self.rob_ring.count_after(now),
            iq: self.iq_ring.count_after(now),
            lq: self.lq_ring.count_after(now),
            sq: self.sq_ring.count_after(now),
            ..Gauges::default()
        };
        self.hier.fill_gauges(now, &mut g);
        g
    }

    fn record_rest_audit(&mut self, kind: RestExceptionKind, d: &DynInst, addr: u64) {
        self.audit.record(AuditEntry {
            detector: "rest",
            kind: kind.name(),
            pc: d.pc,
            addr,
            size: 0,
            mode: self.mode.name(),
            component: d.component.name(),
            precise: kind.always_precise() || self.mode.precise_exceptions(),
            insts: self.cur_inst,
        });
    }

    /// Processes one micro-op of the oracle stream.
    pub fn process(&mut self, d: &DynInst, mem: &dyn LineReader, token: &Token) {
        let seq = self.stats.uops;
        self.stats.uops += 1;
        self.stats.note_component(d.component);
        // Commit frontier before this micro-op: its commit advances the
        // frontier by a non-negative delta, attributed to the stall
        // causes measured below (CPI-stack construction).
        let prev_commit = self.last_commit;
        let mut fetch_stall = 0u64;
        let mut mem_stall = [0u64; 4]; // l1d-miss, l2-miss, dram, rest-check
        let mut store_drain_stall = 0u64;

        // ---- Fetch ----
        if self.fetch_slots_used >= self.cfg.fetch_width {
            self.next_fetch_cycle += 1;
            self.fetch_slots_used = 0;
        }
        let mut f = self.next_fetch_cycle.max(self.redirect_at);
        let branch_stall = f - self.next_fetch_cycle;
        if f > self.next_fetch_cycle {
            self.fetch_slots_used = 0;
        }
        let line = d.pc / 64;
        if line != self.cur_fetch_line {
            let ready = self.hier.fetch_inst(f, d.pc, mem, token);
            let hit_time = f + 2;
            if ready > hit_time {
                self.stats.fetch_stall_cycles += ready - hit_time;
                fetch_stall = ready - hit_time;
                f = ready;
                self.fetch_slots_used = 0;
            }
            self.cur_fetch_line = line;
        }
        self.next_fetch_cycle = f;
        self.fetch_slots_used += 1;

        // ---- Dispatch ----
        let mut disp = (f + self.cfg.frontend_depth).max(self.barrier_at);
        let mut rob_stall = 0u64;
        let mut iq_stall = 0u64;
        let mut lsq_stall = 0u64;
        let rob_limit = self.rob_ring.oldest();
        if rob_limit > disp {
            self.stats.rob_stall_cycles += rob_limit - disp;
            rob_stall = rob_limit - disp;
            disp = rob_limit;
        }
        let iq_limit = self.iq_ring.oldest();
        if iq_limit > disp {
            self.stats.iq_stall_cycles += iq_limit - disp;
            iq_stall = iq_limit - disp;
            disp = iq_limit;
        }
        if d.kind == OpKind::Load {
            let lim = self.lq_ring.oldest();
            if lim > disp {
                self.stats.lsq_stall_cycles += lim - disp;
                lsq_stall = lim - disp;
                disp = lim;
            }
        } else if d.kind.is_store_like() {
            let lim = self.sq_ring.oldest();
            if lim > disp {
                self.stats.lsq_stall_cycles += lim - disp;
                lsq_stall = lim - disp;
                disp = lim;
            }
        }
        let width_limit = self.disp_ring.oldest() + 1;
        disp = disp.max(width_limit);
        self.disp_ring.push(disp);
        self.last_disp = self.last_disp.max(disp);

        // ---- Issue readiness ----
        let mut ready = disp + 1;
        for src in d.srcs.iter().flatten() {
            ready = ready.max(self.reg_ready[src.index()]);
        }
        let serialized = self.cfg.serialize_rest_ops
            && matches!(d.kind, OpKind::Arm | OpKind::Disarm);
        if serialized {
            // The arm/disarm must be the only in-flight instruction:
            // wait for everything older to commit.
            ready = ready.max(self.last_commit);
        }

        // ---- Execute ----
        let (issue, complete, drained): (u64, u64, Option<StoreRec>) = match d.kind {
            OpKind::IntAlu | OpKind::Branch => {
                let issue = ready.max(self.alu_ring.oldest());
                self.alu_ring.push(issue + 1);
                (issue, issue + 1, None)
            }
            OpKind::IntMul => {
                let issue = ready.max(self.mul_ring.oldest());
                self.mul_ring.push(issue + 1);
                (issue, issue + self.cfg.mul_latency, None)
            }
            OpKind::IntDiv => {
                let issue = ready.max(self.div_free);
                let complete = issue + self.cfg.div_latency;
                self.div_free = complete;
                (issue, complete, None)
            }
            OpKind::Load => {
                let (issue, complete, stall) = self.issue_load(d, ready, mem, token);
                mem_stall = stall;
                (issue, complete, None)
            }
            OpKind::Store | OpKind::Arm | OpKind::Disarm => {
                let mem_ref = d.mem.expect("store-like has a memory reference");
                // Table I LSQ rules against in-flight entries.
                self.check_store_lsq_rules(d, ready);
                let exec_done = ready + 1;
                let rec = StoreRec {
                    addr: mem_ref.addr,
                    size: mem_ref.size,
                    kind: mem_ref.kind,
                    exec_done,
                    drain_done: u64::MAX, // filled at drain below
                };
                (ready, exec_done, Some(rec))
            }
        };

        // IQ entry frees at issue.
        self.iq_ring.push(issue);

        // ---- Branch resolution ----
        if let Some(info) = d.branch {
            self.stats.branch_lookups += 1;
            let correct = self.bpred.predict_and_train(d.pc, &info);
            if !correct {
                self.stats.branch_mispredicts += 1;
                self.redirect_at = complete + self.cfg.mispredict_penalty;
            }
        }

        // ---- Commit (in order, width-limited) ----
        let commit_floor = self.last_commit.max(self.commit_ring.oldest() + 1);
        let mut commit = commit_floor.max(complete + 1);
        // Cycles this store holds the ROB head beyond the in-order floor
        // (its own execution latency; debug mode adds the drain wait
        // below). This is the §VI-B "ROB blocked by store" statistic.
        if d.kind.is_store_like() && commit > commit_floor {
            self.stats.rob_blocked_store_cycles += commit - commit_floor;
            store_drain_stall += commit - commit_floor;
        }

        // ---- Store drain & commit policy ----
        if let Some(mut rec) = drained {
            let mem_ref = d.mem.expect("store-like has a memory reference");
            if self.mode.eager_store_commit() {
                // Secure: commit first, write drains afterwards.
                let drain_start = commit.max(self.sq_drain_free).max(self.port_ring.oldest());
                self.port_ring.push(drain_start + 1);
                let out =
                    self.hier
                        .access_data(drain_start, mem_ref.kind, mem_ref.addr, mem_ref.size, mem, token, self.mode);
                rec.drain_done = out.complete_at;
                self.sq_drain_free = drain_start + 1;
                if let Some(kind) = out.exception {
                    self.record_rest_audit(kind, d, mem_ref.addr);
                }
            } else {
                // Debug: the write is issued when the store reaches the
                // ROB head, and commit waits for its completion.
                let oldest_at = (complete + 1).max(self.last_commit);
                let drain_start = oldest_at
                    .max(self.sq_drain_free)
                    .max(self.port_ring.oldest());
                self.port_ring.push(drain_start + 1);
                let out =
                    self.hier
                        .access_data(drain_start, mem_ref.kind, mem_ref.addr, mem_ref.size, mem, token, self.mode);
                rec.drain_done = out.complete_at;
                self.sq_drain_free = drain_start + 1;
                if let Some(kind) = out.exception {
                    self.record_rest_audit(kind, d, mem_ref.addr);
                }
                if rec.drain_done > commit {
                    self.stats.rob_blocked_store_cycles += rec.drain_done - commit;
                    store_drain_stall += rec.drain_done - commit;
                    commit = rec.drain_done;
                }
            }
            // SQ entry frees when the write has drained.
            self.sq_ring.push(rec.drain_done);
            self.store_window.push(rec);
        }

        if serialized {
            // ...and nothing younger may dispatch until it commits.
            self.barrier_at = self.barrier_at.max(commit);
        }
        self.commit_ring.push(commit);
        self.rob_ring.push(commit);
        if d.kind == OpKind::Load {
            self.lq_ring.push(commit);
        }
        self.last_commit = commit;

        if let Some(dst) = d.dst {
            if !dst.is_zero() {
                self.reg_ready[dst.index()] = complete;
            }
        }
        if let Some(tracer) = &mut self.tracer {
            tracer.record(TraceEntry {
                seq,
                pc: d.pc,
                kind: d.kind,
                component: d.component,
                fetch: f,
                dispatch: disp,
                issue,
                complete,
                commit,
            });
        }

        // ---- CPI-stack attribution ----
        // This micro-op advanced the commit frontier by `delta` cycles
        // (commit is monotone in program order, so delta ≥ 0 and the
        // per-uop deltas sum exactly to the final cycle count). Fill
        // the stall buckets most-specific-first, each clamped to what
        // remains unexplained; the residue is useful work (base). The
        // clamped fill keeps the exact-sum property even when stall
        // windows overlap. A micro-op that commits in the frontier's
        // cycle (delta 0) adds nothing.
        let delta = commit - prev_commit;
        if delta == 0 {
            return;
        }
        let mut remaining = delta;
        let [l1d_miss, l2_miss, dram, rest_check] = mem_stall;
        for (component, amount) in [
            (CpiComponent::StoreDrain, store_drain_stall),
            (CpiComponent::Dram, dram),
            (CpiComponent::L2Miss, l2_miss),
            (CpiComponent::L1dMiss, l1d_miss),
            (CpiComponent::RestCheck, rest_check),
            (CpiComponent::Lsq, lsq_stall),
            (CpiComponent::Rob, rob_stall),
            (CpiComponent::Iq, iq_stall),
            (CpiComponent::Branch, branch_stall),
            (CpiComponent::FetchStall, fetch_stall),
        ] {
            let take = amount.min(remaining);
            self.stats.cpi.add(component, take);
            remaining -= take;
        }
        self.stats.cpi.add(CpiComponent::Base, remaining);
    }

    /// Load issue: memory disambiguation against the in-flight store
    /// window, store-to-load forwarding (with the REST arm/disarm
    /// exception rule), then the cache access. The third return value
    /// is the CPI-stack latency split `[l1d-miss, l2-miss, dram,
    /// rest-check]` of the cache access (zero when forwarded).
    fn issue_load(
        &mut self,
        d: &DynInst,
        ready: u64,
        mem: &dyn LineReader,
        token: &Token,
    ) -> (u64, u64, [u64; 4]) {
        let mem_ref = d.mem.expect("load has a memory reference");
        let (addr, size) = (mem_ref.addr, mem_ref.size);
        let mut ready = ready;
        let mut forwarded: Option<u64> = None;
        let mut forward_from_arm = false;
        // The youngest matching in-flight store decides.
        if let Some(s) = self.store_window.youngest_overlapping(addr, size, ready) {
            match s.kind {
                MemAccessKind::Arm | MemAccessKind::Disarm => {
                    // The load's match is an arm/disarm entry: raising
                    // instead of forwarding keeps the token secret
                    // (§III-B). Timing-wise the load completes (into the
                    // exception path) one cycle after issue.
                    self.stats.lsq_rest_exceptions += 1;
                    forward_from_arm = true;
                    forwarded = Some(ready.max(s.exec_done) + 1);
                }
                MemAccessKind::Store | MemAccessKind::Load => {
                    if s.contains(addr, size) {
                        self.stats.store_forwards += 1;
                        forwarded = Some(ready.max(s.exec_done) + 1);
                    } else {
                        // Partial overlap: wait until the store drains,
                        // then read the cache.
                        self.stats.load_partial_stalls += 1;
                        ready = ready.max(s.drain_done);
                    }
                }
            }
        }
        if forward_from_arm {
            self.record_rest_audit(RestExceptionKind::ForwardFromArm, d, addr);
        }
        if let Some(complete) = forwarded {
            return (ready, complete, [0; 4]);
        }
        let issue = ready.max(self.port_ring.oldest());
        self.port_ring.push(issue + 1);
        let out = self
            .hier
            .access_data(issue, MemAccessKind::Load, addr, size, mem, token, self.mode);
        if let Some(kind) = out.exception {
            self.record_rest_audit(kind, d, addr);
        }
        (
            issue,
            out.complete_at,
            [
                out.l1d_miss_cycles,
                out.l2_miss_cycles,
                out.dram_cycles,
                out.rest_check_cycles,
            ],
        )
    }

    /// Table I LSQ-column checks for store-like micro-ops entering the
    /// store queue.
    fn check_store_lsq_rules(&mut self, d: &DynInst, at: u64) {
        let mem_ref = d.mem.expect("store-like has a memory reference");
        let (addr, size) = (mem_ref.addr, mem_ref.size);
        let mut detected: Option<RestExceptionKind> = None;
        if let Some(s) = self.store_window.youngest_overlapping(addr, size, at) {
            match (d.kind, s.kind) {
                // Store hits an in-flight arm to the same location.
                (OpKind::Store, MemAccessKind::Arm) => {
                    self.stats.lsq_rest_exceptions += 1;
                    detected = Some(RestExceptionKind::StoreHitInflightArm);
                }
                // Double in-flight disarm.
                (OpKind::Disarm, MemAccessKind::Disarm) => {
                    self.stats.lsq_rest_exceptions += 1;
                    detected = Some(RestExceptionKind::DoubleInflightDisarm);
                }
                _ => {}
            }
        }
        if let Some(kind) = detected {
            self.record_rest_audit(kind, d, addr);
        }
    }

    /// Finalises the statistics (total cycle count, predictor counters).
    pub fn finish(&mut self) -> CoreStats {
        self.stats.cycles = self.last_commit;
        self.stats.branch_lookups = self.bpred.lookups();
        self.stats.branch_mispredicts = self.bpred.mispredicts();
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rest_core::TokenWidth;
    use rest_isa::{BranchInfo, GuestMemory, Reg};
    use rest_mem::MemConfig;

    fn pipe(mode: Mode) -> (Pipeline, GuestMemory, Token) {
        let hier = Hierarchy::new(MemConfig::isca2018());
        let p = Pipeline::new(CoreConfig::isca2018(), hier, mode);
        let mem = GuestMemory::new();
        let mut rng = StdRng::seed_from_u64(1);
        let token = Token::generate(TokenWidth::B64, &mut rng);
        (p, mem, token)
    }

    fn rec(addr: u64, size: u64, drain_done: u64) -> StoreRec {
        StoreRec {
            addr,
            size,
            kind: MemAccessKind::Store,
            exec_done: 0,
            drain_done,
        }
    }

    #[test]
    fn store_ranges_at_the_top_of_the_address_space() {
        let top = u64::MAX - 7;
        let s = rec(top, 8, 1);
        assert!(s.overlaps(top, 8));
        assert!(s.overlaps(u64::MAX, 1));
        assert!(s.overlaps(top - 4, 8));
        assert!(!s.overlaps(top - 8, 8));
        assert!(s.contains(top, 8));
        assert!(s.contains(u64::MAX, 1));
        assert!(!s.contains(top - 1, 8));
        // A load running past u64::MAX neither overflows nor wraps to 0.
        assert!(s.overlaps(u64::MAX, 8));
        assert!(!s.contains(u64::MAX, 8));
        assert!(!rec(0, 8, 1).overlaps(u64::MAX, 8));
        let mut w = StoreWindow::new(4);
        w.push(s);
        assert_eq!(
            w.youngest_overlapping(u64::MAX, 8, 0).map(|r| r.addr),
            Some(top)
        );
        assert_eq!(w.youngest_overlapping(0, 8, 0).map(|r| r.addr), None);
    }

    /// `overlaps`/`contains` against the textbook formulas evaluated in
    /// `u128`, where no range wraps: the same answers as the old `u64`
    /// formulas wherever those did not overflow.
    #[test]
    fn store_ranges_match_unbounded_arithmetic() {
        let mut rng = StdRng::seed_from_u64(5);
        let pick = |rng: &mut StdRng| {
            let near = [0, 1 << 20, u64::MAX - 127][rng.gen_range(0..3usize)];
            near + rng.gen_range(0..128)
        };
        for _ in 0..50_000 {
            let (a, n) = (pick(&mut rng), rng.gen_range(0..=16));
            let (b, m) = (pick(&mut rng), rng.gen_range(0..=16));
            let (a128, n128, b128, m128) = (a as u128, n as u128, b as u128, m as u128);
            let s = rec(a, n, 1);
            assert_eq!(
                s.overlaps(b, m),
                a128 < b128 + m128 && b128 < a128 + n128,
                "{a:#x}+{n} vs {b:#x}+{m}"
            );
            assert_eq!(
                s.contains(b, m),
                a128 <= b128 && b128 + m128 <= a128 + n128,
                "{a:#x}+{n} vs {b:#x}+{m}"
            );
        }
    }

    /// The line-filtered window search against the plain scan, on seeded
    /// random stores and queries crowding a few lines, straddling line
    /// boundaries, spanning many lines and running past `u64::MAX`.
    #[test]
    fn filtered_store_window_matches_the_scan() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut w = StoreWindow::new(32);
        let pick = |rng: &mut StdRng| {
            if rng.gen_bool(0.01) {
                // Unfiltered: many lines, or past the top.
                let wide = [(0x1000 + rng.gen_range(0..1024), 200), (u64::MAX - 3, 8)];
                return wide[rng.gen_range(0..2usize)];
            }
            let base = [0x1000, 0x8000, u64::MAX - 2047][rng.gen_range(0..3usize)];
            let size = [0, 1, 8, 8, 16, 64][rng.gen_range(0..6usize)];
            (base + rng.gen_range(0..1024), size)
        };
        let (mut skipped, mut found) = (0, 0);
        for step in 0..50_000u64 {
            if rng.gen_bool(0.4) {
                let (addr, size) = pick(&mut rng);
                w.push(rec(addr, size, step + rng.gen_range(0..64)));
            }
            let (addr, size) = pick(&mut rng);
            let got = w.youngest_overlapping(addr, size, step);
            let want = w.scan(addr, size, step);
            assert_eq!(
                got.map(|r| (r.addr, r.size)),
                want.map(|r| (r.addr, r.size)),
                "step {step}"
            );
            found += usize::from(want.is_some());
            skipped += usize::from(
                w.uncounted == 0
                    && filter_lines(addr, size)
                        .is_some_and(|(f, l)| w.counts[bucket(f)] == 0 && w.counts[bucket(l)] == 0),
            );
        }
        // Both outcomes occur, and the filter does skip scans.
        assert!(
            found > 1_000 && skipped > 1_000,
            "found {found}, skipped {skipped}"
        );
        // Evicting every record empties the counts.
        for _ in 0..32 {
            w.push(rec(0x40, 8, 0));
        }
        assert_eq!(w.uncounted, 0);
        assert_eq!(w.counts.iter().sum::<u32>(), 32);
    }

    #[test]
    fn independent_alu_ops_reach_high_ipc() {
        let (mut p, mem, tok) = pipe(Mode::Secure);
        for i in 0..10_000u64 {
            let d = DynInst::alu(0x1_0000 + (i % 16) * 4, Some(Reg::A0), [None, None]);
            p.process(&d, &mem, &tok);
        }
        let s = p.finish();
        assert!(s.uipc() > 4.0, "8-wide core must exceed 4 uipc on independent ALU ops, got {}", s.uipc());
    }

    #[test]
    fn dependent_chain_limits_to_one_per_cycle() {
        let (mut p, mem, tok) = pipe(Mode::Secure);
        for i in 0..10_000u64 {
            let d = DynInst::alu(0x1_0000 + (i % 16) * 4, Some(Reg::A0), [Some(Reg::A0), None]);
            p.process(&d, &mem, &tok);
        }
        let s = p.finish();
        assert!(s.uipc() < 1.2, "dependent chain cannot exceed 1 uipc, got {}", s.uipc());
        assert!(s.uipc() > 0.8);
    }

    #[test]
    fn store_to_load_forwarding_beats_cache_latency() {
        let (mut p, mem, tok) = pipe(Mode::Secure);
        // Alternating store/load to the same address: loads forward.
        for i in 0..1000u64 {
            let st = DynInst::store(0x1_0000 + (i % 8) * 8, None, None, 0x5000, 8);
            p.process(&st, &mem, &tok);
            let ld = DynInst::load(0x1_0020, Some(Reg::A1), None, 0x5000, 8);
            p.process(&ld, &mem, &tok);
        }
        let s = p.finish();
        assert!(s.store_forwards > 900, "forwards: {}", s.store_forwards);
    }

    #[test]
    fn forwarding_from_inflight_arm_raises_lsq_exception() {
        let (mut p, mem, tok) = pipe(Mode::Secure);
        let arm = DynInst::arm(0x1_0000, None, 0x6000, 64);
        p.process(&arm, &mem, &tok);
        let ld = DynInst::load(0x1_0004, Some(Reg::A0), None, 0x6010, 8);
        p.process(&ld, &mem, &tok);
        let s = p.finish();
        assert_eq!(s.lsq_rest_exceptions, 1);
    }

    #[test]
    fn debug_mode_store_misses_block_the_rob() {
        // Stores to distinct lines (all misses). In debug mode, commit
        // waits for each write; in secure mode it does not.
        let run = |mode: Mode| {
            let (mut p, mem, tok) = pipe(mode);
            for i in 0..2000u64 {
                let st = DynInst::store(0x1_0000 + (i % 8) * 4, None, None, 0x10_0000 + i * 64, 8);
                p.process(&st, &mem, &tok);
            }
            p.finish()
        };
        let secure = run(Mode::Secure);
        let debug = run(Mode::Debug);
        assert!(
            debug.cycles > secure.cycles * 2,
            "debug {} vs secure {}",
            debug.cycles,
            secure.cycles
        );
        assert!(
            debug.rob_blocked_store_cycles > 3 * secure.rob_blocked_store_cycles.max(1),
            "debug blocked {} vs secure blocked {}",
            debug.rob_blocked_store_cycles,
            secure.rob_blocked_store_cycles
        );
    }

    #[test]
    fn mispredicted_branches_cost_cycles() {
        let mk = |taken: bool, i: u64| {
            DynInst::branch(
                0x1_0000 + (i % 4) * 4,
                [None, None],
                None,
                BranchInfo {
                    taken,
                    target: 0x1_0000,
                    conditional: true,
                    is_call: false,
                    is_return: false,
                    indirect: false,
                },
            )
        };
        // Pseudo-random outcomes: unpredictable.
        let (mut p, mem, tok) = pipe(Mode::Secure);
        let mut x = 12345u64;
        for i in 0..5000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            p.process(&mk(x >> 63 == 1, i), &mem, &tok);
        }
        let random = p.finish();

        let (mut p2, mem2, tok2) = pipe(Mode::Secure);
        for i in 0..5000 {
            p2.process(&mk(true, i), &mem2, &tok2);
        }
        let steady = p2.finish();
        assert!(random.branch_mispredicts > steady.branch_mispredicts * 5);
        assert!(random.cycles > steady.cycles);
    }

    #[test]
    fn cache_misses_slow_the_stream_down() {
        let run = |stride: u64| {
            let (mut p, mem, tok) = pipe(Mode::Secure);
            for i in 0..5000u64 {
                let ld = DynInst::load(0x1_0000 + (i % 8) * 4, Some(Reg::A0), [None, None][0], 0x20_0000 + i * stride, 8)
                    ;
                // Dependent chain so latency is exposed.
                let ld = DynInst {
                    srcs: [Some(Reg::A0), None],
                    ..ld
                };
                p.process(&ld, &mem, &tok);
            }
            p.finish().cycles
        };
        let hits = run(0); // same address: always hits after first
        let misses = run(4096); // new page every time: L2+DRAM misses
        assert!(misses > hits * 3, "misses {misses} vs hits {hits}");
    }

    #[test]
    fn iq_and_rob_stalls_are_counted_under_pressure() {
        let (mut p, mem, tok) = pipe(Mode::Secure);
        // A long dependent divide chain backs everything up.
        for i in 0..5000u64 {
            let d = DynInst::alu(0x1_0000 + (i % 8) * 4, Some(Reg::A0), [Some(Reg::A0), None])
                .with_kind(OpKind::IntDiv);
            p.process(&d, &mem, &tok);
        }
        let s = p.finish();
        assert!(s.iq_stall_cycles + s.rob_stall_cycles > 0);
        assert!(s.uipc() < 0.1);
    }
}
