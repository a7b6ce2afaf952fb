use rest_core::table1::{cache_decision, Action};
use rest_core::{Mode, RestExceptionKind, Token};
use rest_faults::FaultHandle;
use rest_isa::{GuestMemory, MemAccessKind};

use crate::cache::Cache;
use crate::config::MemConfig;
use crate::dram::Dram;
use crate::mshr::MshrFile;
use crate::stats::MemStats;
use crate::wbuf::WriteBuffer;

/// Source of functional (architectural) line bytes for the token
/// detector in the L1-D fill path.
pub trait LineReader {
    /// Returns the 64 bytes of the line at `line_addr` (line-aligned).
    fn read_line(&self, line_addr: u64) -> [u8; 64];
}

impl LineReader for GuestMemory {
    fn read_line(&self, line_addr: u64) -> [u8; 64] {
        if let Some(img) = self.pre_line_image(line_addr) {
            // The functional emulator has already applied an arm/disarm
            // to this line; the timing model must observe the pre-update
            // content a real fill would fetch.
            return *img;
        }
        let mut buf = [0u8; 64];
        self.read_bytes(line_addr, &mut buf);
        buf
    }
}

/// Which level ultimately supplied the data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedBy {
    L1,
    L2,
    Dram,
}

/// Result of one data access walked through the hierarchy.
#[derive(Debug, Clone, Copy)]
pub struct DataOutcome {
    /// Cycle at which the requested word is available to the pipeline
    /// (critical-word-first on misses).
    pub complete_at: u64,
    /// Cycle at which the *full line* has arrived and been checked by
    /// the token detector (== `complete_at` on hits).
    pub line_checked_at: u64,
    /// Hardware-detected REST violation, if any (Table I).
    pub exception: Option<RestExceptionKind>,
    /// Level that served the access.
    pub served_by: ServedBy,
    /// Debug mode only: the load was held in the MSHR because the
    /// delivered critical word partially matched the token value.
    pub held_for_check: bool,
    /// CPI-stack attribution of `complete_at - (now + L1D hit latency)`
    /// — the latency *beyond* an L1-D hit, split by where it was spent.
    /// Cycles waiting on the L2 (access served by the L2).
    pub l1d_miss_cycles: u64,
    /// Cycles spent in the L2 lookup on the way to DRAM.
    pub l2_miss_cycles: u64,
    /// Cycles waiting on DRAM beyond the L2 lookup.
    pub dram_cycles: u64,
    /// Extra cycles caused by REST itself: disarm's zeroing cycle,
    /// debug-mode full-line-check holds, token-cache re-install.
    pub rest_check_cycles: u64,
}

/// The simulated memory hierarchy: split L1s, unified L2, DRAM — with
/// the REST token detector and per-line token bits at the L1-D.
///
/// See the crate docs for the modelling approach. All latencies are in
/// core cycles at the paper's 2 GHz clock.
#[derive(Debug)]
pub struct Hierarchy {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    l1i_mshrs: MshrFile,
    l1d_mshrs: MshrFile,
    l2_mshrs: MshrFile,
    l1d_wbuf: WriteBuffer,
    l2_wbuf: WriteBuffer,
    dram: Dram,
    stats: MemStats,
    /// Extra cycles after the critical word until the full 64 B line has
    /// streamed in and the detector has finished (4 × 16 B fill beats).
    line_fill_tail: u64,
    /// §VIII token cache: line addresses (with their token masks) of
    /// armed lines evicted from the L1-D, FIFO-replaced. Empty capacity
    /// disables the feature.
    token_cache: std::collections::VecDeque<(u64, u8)>,
    token_cache_entries: usize,
    /// Seeded fault injection (shared with the emulator). The hierarchy
    /// hosts the micro-architectural trigger sites: fill-time detection
    /// masks, arm-driven token-bit writes, and metadata-carrying
    /// evictions. None on fault-free runs — the hooks cost nothing.
    fault: Option<FaultHandle>,
}

impl Hierarchy {
    /// Builds an empty hierarchy from `cfg`.
    pub fn new(cfg: MemConfig) -> Hierarchy {
        Hierarchy {
            l1i_mshrs: MshrFile::new(cfg.l1i.mshr_entries, cfg.l1i.mshr_targets),
            l1d_mshrs: MshrFile::new(cfg.l1d.mshr_entries, cfg.l1d.mshr_targets),
            l2_mshrs: MshrFile::new(cfg.l2.mshr_entries, cfg.l2.mshr_targets),
            l1d_wbuf: WriteBuffer::new(cfg.l1d.write_buffer_entries),
            l2_wbuf: WriteBuffer::new(cfg.l2.write_buffer_entries),
            dram: Dram::new(cfg.dram.clone()),
            l1i: Cache::new(cfg.l1i, "L1I"),
            l1d: Cache::new(cfg.l1d, "L1D"),
            l2: Cache::new(cfg.l2, "L2"),
            stats: MemStats::default(),
            line_fill_tail: 4,
            token_cache: std::collections::VecDeque::new(),
            token_cache_entries: cfg.token_cache_entries,
            fault: None,
        }
    }

    /// Attaches shared fault-injection state (cloned from the emulator's
    /// handle so both sides observe the same trigger counters).
    pub fn set_fault(&mut self, fault: FaultHandle) {
        self.fault = Some(fault);
    }

    /// Collected statistics.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// The L1 data cache (exposed for directed tests).
    pub fn l1d(&self) -> &Cache {
        &self.l1d
    }

    /// Invalidates `addr`'s L1-D line (incoming coherence invalidation
    /// or DMA to the line). Per Table I, coherence messages are handled
    /// "as usual" — in particular the token detector does NOT examine
    /// DMA traffic, which is why §V-B notes REST cannot catch token
    /// accesses that sidestep the cache entirely.
    pub fn coherence_invalidate(&mut self, addr: u64) {
        if let Some(ev) = self.l1d.invalidate(addr) {
            if ev.token_mask != 0 {
                self.stats.token_lines_evicted_l1d += 1;
            }
        }
        self.l2.invalidate(addr);
    }

    /// Instruction fetch of the line containing `pc`; returns the cycle
    /// at which fetch data is available.
    pub fn fetch_inst(&mut self, now: u64, pc: u64, mem: &dyn LineReader, token: &Token) -> u64 {
        let line = self.l1i.line_addr(pc);
        // A line whose fill is still in flight is not yet present, even
        // though its tag has been pre-installed: check the MSHRs first.
        if let Some(done) = self.l1i_mshrs.merge(line, now) {
            self.stats.l1i_misses += 1;
            return done;
        }
        if self.l1i.lookup(line, false) {
            self.stats.l1i_hits += 1;
            return now + self.l1i.config().hit_latency;
        }
        self.stats.l1i_misses += 1;
        let start = now + self.l1i.config().hit_latency;
        let (data_at, _) = self.fetch_from_l2(start, line, mem, token);
        let done = data_at;
        let alloc_start = self.l1i_mshrs.allocate(line, now, done);
        let done = done + (alloc_start - now);
        // Fill L1I (instruction lines never carry tokens or dirt).
        self.l1i.fill(line, false, 0);
        done
    }

    /// Fetches `line` from the L2 (and below), filling the L2 on a miss.
    /// Returns `(critical word available, served_by_dram)`.
    fn fetch_from_l2(
        &mut self,
        now: u64,
        line: u64,
        mem: &dyn LineReader,
        token: &Token,
    ) -> (u64, bool) {
        if let Some(done) = self.l2_mshrs.merge(line, now) {
            self.stats.l2_misses += 1;
            return (done, true);
        }
        if self.l2.lookup(line, false) {
            self.stats.l2_hits += 1;
            return (now + self.l2.config().hit_latency, false);
        }
        self.stats.l2_misses += 1;
        let start = now + self.l2.config().hit_latency;
        let dram_done = self.dram.access(start, line);
        self.stats.dram_accesses += 1;
        // Content-based accounting of token lines crossing the L2/memory
        // interface (paper §VI-B prose statistic).
        if token.line_contains_token(&mem.read_line(line)) {
            self.stats.token_lines_l2_mem += 1;
        }
        let alloc_start = self.l2_mshrs.allocate(line, now, dram_done);
        let dram_done = dram_done + (alloc_start - now);
        if let Some(ev) = self.l2.fill(line, false, 0) {
            if ev.dirty {
                self.stats.l2_writebacks += 1;
                if token.line_contains_token(&mem.read_line(ev.addr)) {
                    self.stats.token_lines_l2_mem += 1;
                }
                // Drain to DRAM through the L2 write buffer.
                let drain = self.dram_writeback_latency();
                self.l2_wbuf.push(dram_done, drain);
            }
        }
        (dram_done, true)
    }

    fn dram_writeback_latency(&self) -> u64 {
        // Writebacks are fire-and-forget; charge a row-hit-ish occupancy.
        48
    }

    /// Applies an `EvictionMetaDrop` fault to an outgoing line's token
    /// mask: on the trigger eviction the metadata is lost (the decay of
    /// the guarded tokens is queued for the emulator) and the caller
    /// sees a token-free eviction.
    fn faulted_eviction_mask(&self, line: u64, mask: u8, token: &Token) -> u8 {
        if mask != 0 {
            if let Some(f) = &self.fault {
                if f.drop_eviction(line, mask, token.width().bytes()) {
                    return 0;
                }
            }
        }
        mask
    }

    /// Ensures `line` is resident in the L1-D at `now`, running the token
    /// detector on fills. `hit_way` is the line's L1-D way at entry.
    /// Returns `(critical_word_at, line_checked_at, served_by, way)`,
    /// where `way` is the line's L1-D way on return (`None` only when a
    /// secondary miss finds its pre-installed line already evicted).
    fn ensure_l1d_resident(
        &mut self,
        now: u64,
        line: u64,
        hit_way: Option<usize>,
        is_write: bool,
        mem: &dyn LineReader,
        token: &Token,
    ) -> (u64, u64, ServedBy, Option<usize>) {
        // §VIII token cache: an armed line parked in the dedicated
        // buffer is re-installed at near-L1 latency, token bits intact.
        if self.token_cache_entries > 0 {
            if let Some(pos) = self.token_cache.iter().position(|&(a, _)| a == line) {
                let (_, mask) = self.token_cache.remove(pos).expect("position valid");
                self.stats.token_cache_hits += 1;
                let t = now + self.l1d.config().hit_latency + 1;
                if let Some(ev) = self.l1d.fill(line, true, mask) {
                    let ev_mask = self.faulted_eviction_mask(ev.addr, ev.token_mask, token);
                    if ev_mask != 0 {
                        self.stats.token_lines_evicted_l1d += 1;
                        self.token_cache.push_back((ev.addr, ev_mask));
                        while self.token_cache.len() > self.token_cache_entries {
                            self.token_cache.pop_front();
                        }
                    }
                }
                self.l1d.lookup(line, is_write);
                return (t, t, ServedBy::L1, self.l1d.find(line));
            }
        }
        if let Some(done) = self.l1d_mshrs.merge(line, now) {
            // Secondary miss: data at primary fill completion. The tag
            // was pre-installed by the primary; record the touch so LRU
            // and dirty state stay correct.
            self.stats.l1d_misses += 1;
            if let Some(w) = hit_way {
                self.l1d.touch(w, is_write);
            }
            return (done, done + self.line_fill_tail, ServedBy::L2, hit_way);
        }
        if let Some(w) = hit_way {
            self.l1d.touch(w, is_write);
            self.stats.l1d_hits += 1;
            let t = now + self.l1d.config().hit_latency;
            return (t, t, ServedBy::L1, hit_way);
        }
        self.stats.l1d_misses += 1;
        let start = now + self.l1d.config().hit_latency;
        let (data_at, from_dram) = self.fetch_from_l2(start, line, mem, token);
        let alloc_start = self.l1d_mshrs.allocate(line, now, data_at);
        let data_at = data_at + (alloc_start - now);
        // Token detector runs as the line streams in. An injected
        // metadata-bit fault perturbs the detector's mask: a cleared bit
        // loses a real detection (fail-open), a set bit plants a
        // spurious one (fail-closed).
        let mut mask = token.line_token_mask(&mem.read_line(line));
        if let Some(f) = &self.fault {
            mask = f.filter_fill_mask(line, mask, token.width().bytes());
        }
        if mask != 0 {
            self.stats.token_detections_on_fill += 1;
        }
        if let Some(ev) = self.l1d.fill(line, is_write, mask) {
            // Eviction-time metadata loss: the outgoing packet's token
            // mask is dropped and the decay is queued for the emulator.
            let ev_mask = self.faulted_eviction_mask(ev.addr, ev.token_mask, token);
            if ev_mask != 0 {
                // Lazy materialisation: the token value travels in the
                // outgoing packet (Table I, Eviction row).
                self.stats.token_lines_evicted_l1d += 1;
                if self.token_cache_entries > 0 {
                    self.token_cache.push_back((ev.addr, ev_mask));
                    while self.token_cache.len() > self.token_cache_entries {
                        self.token_cache.pop_front();
                    }
                }
            }
            if ev.dirty || ev_mask != 0 {
                self.stats.l1d_writebacks += 1;
                let drain = self.l2.config().hit_latency;
                self.l1d_wbuf.push(data_at, drain);
                // Install the writeback in the L2.
                if let Some(l2ev) = self.l2.fill(ev.addr, true, 0) {
                    if l2ev.dirty {
                        self.stats.l2_writebacks += 1;
                        if token.line_contains_token(&mem.read_line(l2ev.addr)) {
                            self.stats.token_lines_l2_mem += 1;
                        }
                        let drain = self.dram_writeback_latency();
                        self.l2_wbuf.push(data_at, drain);
                    }
                }
            }
        }
        let served = if from_dram { ServedBy::Dram } else { ServedBy::L2 };
        let way = self.l1d.find(line);
        (data_at, data_at + self.line_fill_tail, served, way)
    }

    /// Walks one data access through the hierarchy, applying the REST
    /// rules of Table I.
    ///
    /// * `mem` supplies functional line bytes for the token detector —
    ///   pass the architectural memory image *before* this access's own
    ///   write is applied.
    /// * `mode` selects secure/debug behaviour (store-commit policy is
    ///   the pipeline's job, but the critical-word-first load hold is
    ///   modelled here).
    #[allow(clippy::too_many_arguments)]
    pub fn access_data(
        &mut self,
        now: u64,
        kind: MemAccessKind,
        addr: u64,
        size: u64,
        mem: &dyn LineReader,
        token: &Token,
        mode: Mode,
    ) -> DataOutcome {
        let w = token.width().bytes();
        let line = self.l1d.line_addr(addr);
        let is_write = matches!(
            kind,
            MemAccessKind::Store | MemAccessKind::Arm | MemAccessKind::Disarm
        );
        // The line's way is resolved once here and reused by the hit
        // path and the token-bit checks below.
        let hit_way = self.l1d.find(line);
        let was_hit = hit_way.is_some();
        let (data_at, checked_at, served, way) =
            self.ensure_l1d_resident(now, line, hit_way, is_write, mem, token);
        let mut complete_at = data_at;
        let mut held = false;

        // CPI-stack attribution: split the latency beyond an L1-D hit
        // by the level that caused it. For DRAM-served accesses the L2
        // lookup happened on the miss path, so up to one L2 hit latency
        // belongs to the L2-miss bucket and the rest to DRAM.
        let hit_time = now + self.l1d.config().hit_latency;
        let miss_extra = data_at.saturating_sub(hit_time);
        let (mut l1d_miss_cycles, mut l2_miss_cycles, mut dram_cycles) = (0, 0, 0);
        let mut rest_check_cycles = 0;
        match served {
            // Token-cache re-installs complete at hit latency + 1; that
            // extra cycle is REST's, not the memory system's.
            ServedBy::L1 => rest_check_cycles += miss_extra,
            ServedBy::L2 => l1d_miss_cycles = miss_extra,
            ServedBy::Dram => {
                l2_miss_cycles = miss_extra.min(self.l2.config().hit_latency);
                dram_cycles = miss_extra - l2_miss_cycles;
            }
        }

        // Post-fill token-bit state covering the access.
        let token_bit = match kind {
            MemAccessKind::Arm | MemAccessKind::Disarm => self.l1d.token_bit_at(way, addr, w),
            _ => {
                // A scalar access may straddle two slots within the line.
                self.l1d.touches_token_at(way, addr, size, w)
            }
        };

        let action = match (kind, mode) {
            (MemAccessKind::Arm, _) => Action::Arm,
            (MemAccessKind::Disarm, _) => Action::Disarm,
            (MemAccessKind::Load, _) => Action::Load,
            (MemAccessKind::Store, Mode::Secure) => Action::StoreSecure,
            (MemAccessKind::Store, Mode::Debug) => Action::StoreDebug,
        };
        let decision = cache_decision(action, was_hit, token_bit);

        if let Some(kind) = decision.exception {
            self.stats.rest_exceptions += 1;
            return DataOutcome {
                complete_at,
                line_checked_at: checked_at,
                exception: Some(kind),
                served_by: served,
                held_for_check: false,
                l1d_miss_cycles,
                l2_miss_cycles,
                dram_cycles,
                rest_check_cycles,
            };
        }
        if decision.set_token_bit {
            // Arm: set the bit; the wide value write is deferred to
            // eviction, so an L1 hit completes in a single cycle. A
            // `MetaBitClear` fault can lose exactly this write — the
            // slot is then armed architecturally but invisible to the
            // hardware detector until a refill re-detects it.
            let slot_addr = addr / w * w;
            let dropped = self
                .fault
                .as_ref()
                .is_some_and(|f| f.suppress_arm_bit(slot_addr));
            if !dropped {
                let slot = (addr % 64) / w;
                self.l1d.set_token_bits(addr, 1u8 << slot);
                self.l1d.mark_dirty(addr);
            }
        }
        if decision.clear_slot_unset_bit {
            // Disarm: zero the slot across all data banks; one extra
            // cycle of latency (§III-B).
            self.l1d.clear_token_bit(addr, w);
            complete_at += 1;
            rest_check_cycles += 1;
        }
        // Critical-word-first vs. debug mode: a missing load whose
        // delivered word partially matches the token is not released
        // from the MSHR until the full line has been checked.
        if kind == MemAccessKind::Load && !was_hit && mode == Mode::Debug {
            let line_bytes = mem.read_line(line);
            let off = (addr - line) as usize;
            let end = (off + size as usize).min(64);
            let tok_slot_off = off % w as usize;
            let tok = token.bytes();
            let partial_match = (off..end).all(|i| {
                let ti = (tok_slot_off + (i - off)) % w as usize;
                line_bytes[i] == tok[ti]
            });
            if partial_match {
                let released_at = complete_at.max(checked_at);
                rest_check_cycles += released_at - complete_at;
                complete_at = released_at;
                held = true;
                self.stats.debug_load_holds += 1;
            }
        }
        DataOutcome {
            complete_at,
            line_checked_at: checked_at,
            exception: None,
            served_by: served,
            held_for_check: held,
            l1d_miss_cycles,
            l2_miss_cycles,
            dram_cycles,
            rest_check_cycles,
        }
    }

    /// Fills the memory-side occupancy gauges (MSHRs in flight, write
    /// buffer entries draining) at `now`. The core fills the
    /// pipeline-side gauges.
    pub fn fill_gauges(&mut self, now: u64, gauges: &mut rest_obs::Gauges) {
        gauges.l1d_mshrs = self.l1d_mshrs.occupancy(now) as u64;
        gauges.l2_mshrs = self.l2_mshrs.occupancy(now) as u64;
        gauges.write_buffer =
            (self.l1d_wbuf.occupancy(now) + self.l2_wbuf.occupancy(now)) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rest_core::TokenWidth;

    fn setup(width: TokenWidth) -> (Hierarchy, GuestMemory, Token) {
        let h = Hierarchy::new(MemConfig::isca2018());
        let mem = GuestMemory::new();
        let mut rng = StdRng::seed_from_u64(42);
        let token = Token::generate(width, &mut rng);
        (h, mem, token)
    }

    #[test]
    fn load_hit_takes_hit_latency() {
        let (mut h, mem, tok) = setup(TokenWidth::B64);
        let first = h.access_data(0, MemAccessKind::Load, 0x1000, 8, &mem, &tok, Mode::Secure);
        assert!(first.complete_at > 2); // miss
        let hit = h.access_data(
            first.complete_at,
            MemAccessKind::Load,
            0x1008,
            8,
            &mem,
            &tok,
            Mode::Secure,
        );
        assert_eq!(hit.complete_at, first.complete_at + 2);
        assert_eq!(hit.served_by, ServedBy::L1);
        assert_eq!(h.stats().l1d_hits, 1);
        assert_eq!(h.stats().l1d_misses, 1);
    }

    #[test]
    fn fill_detects_token_and_access_faults() {
        let (mut h, mut mem, tok) = setup(TokenWidth::B64);
        // Architecturally armed line at 0x2000 (token bytes in memory).
        mem.write_bytes(0x2000, tok.bytes());
        let out = h.access_data(0, MemAccessKind::Load, 0x2010, 8, &mem, &tok, Mode::Secure);
        assert_eq!(out.exception, Some(RestExceptionKind::TokenLoad));
        assert_eq!(h.stats().token_detections_on_fill, 1);
        assert_eq!(h.stats().rest_exceptions, 1);

        let out = h.access_data(100, MemAccessKind::Store, 0x2000, 8, &mem, &tok, Mode::Secure);
        assert_eq!(out.exception, Some(RestExceptionKind::TokenStore));
    }

    #[test]
    fn arm_sets_bit_and_disarm_clears_it() {
        let (mut h, mut mem, tok) = setup(TokenWidth::B64);
        let out = h.access_data(0, MemAccessKind::Arm, 0x3000, 64, &mem, &tok, Mode::Secure);
        assert!(out.exception.is_none());
        assert!(h.l1d().token_bit_covering(0x3000, 64));
        // The architectural arm effect (emulator's job in the full system).
        mem.write_bytes(0x3000, tok.bytes());

        // Load to the armed line faults without any refill. (Cycle 1000
        // is safely past the arm's fill.)
        let out = h.access_data(1000, MemAccessKind::Load, 0x3008, 8, &mem, &tok, Mode::Secure);
        assert_eq!(out.exception, Some(RestExceptionKind::TokenLoad));

        // Disarm clears and zeroes; costs one extra cycle over a hit.
        let out = h.access_data(1100, MemAccessKind::Disarm, 0x3000, 64, &mem, &tok, Mode::Secure);
        assert!(out.exception.is_none());
        assert_eq!(out.complete_at, 1100 + 2 + 1);
        assert!(!h.l1d().token_bit_covering(0x3000, 64));
        mem.fill(0x3000, 64, 0);

        let out = h.access_data(1200, MemAccessKind::Load, 0x3000, 8, &mem, &tok, Mode::Secure);
        assert!(out.exception.is_none());
    }

    #[test]
    fn disarm_of_unarmed_location_faults() {
        let (mut h, mem, tok) = setup(TokenWidth::B64);
        let out = h.access_data(0, MemAccessKind::Disarm, 0x4000, 64, &mem, &tok, Mode::Secure);
        assert_eq!(out.exception, Some(RestExceptionKind::DisarmUnarmed));
    }

    #[test]
    fn transient_token_value_in_resident_line_not_flagged_until_refill() {
        // §V-B condition 3: data acquiring the token value while already
        // in the L1-D raises nothing; after eviction + refill the
        // detector fires.
        let (mut h, mut mem, tok) = setup(TokenWidth::B64);
        // Make the line resident (zeroes).
        let out = h.access_data(0, MemAccessKind::Load, 0x5000, 8, &mem, &tok, Mode::Secure);
        assert!(out.exception.is_none());
        // A store functionally writes token-looking bytes.
        mem.write_bytes(0x5000, tok.bytes());
        let out = h.access_data(100, MemAccessKind::Store, 0x5000, 8, &mem, &tok, Mode::Secure);
        assert!(out.exception.is_none(), "resident line: no detection");
        // Evict and refill: detection fires now.
        h.l1d_invalidate_for_test(0x5000);
        let out = h.access_data(200, MemAccessKind::Load, 0x5000, 8, &mem, &tok, Mode::Secure);
        assert_eq!(out.exception, Some(RestExceptionKind::TokenLoad));
    }

    #[test]
    fn debug_mode_holds_load_on_partial_token_match() {
        let (mut h, mut mem, tok) = setup(TokenWidth::B64);
        // Line whose first 8 bytes equal the token's first 8 bytes but
        // the rest differs: partial critical-word match, full-line
        // mismatch.
        mem.write_bytes(0x6000, &tok.bytes()[..8]);
        let out = h.access_data(0, MemAccessKind::Load, 0x6000, 8, &mem, &tok, Mode::Debug);
        assert!(out.exception.is_none());
        assert!(out.held_for_check);
        assert_eq!(out.complete_at, out.line_checked_at);
        assert_eq!(h.stats().debug_load_holds, 1);

        // A non-matching load in debug mode is released immediately.
        let out = h.access_data(500, MemAccessKind::Load, 0x7000, 8, &mem, &tok, Mode::Debug);
        assert!(!out.held_for_check);
        assert!(out.complete_at < out.line_checked_at);
    }

    #[test]
    fn secure_mode_never_holds_loads() {
        let (mut h, mut mem, tok) = setup(TokenWidth::B64);
        mem.write_bytes(0x6000, &tok.bytes()[..8]);
        let out = h.access_data(0, MemAccessKind::Load, 0x6000, 8, &mem, &tok, Mode::Secure);
        assert!(!out.held_for_check);
        assert!(out.complete_at < out.line_checked_at);
    }

    #[test]
    fn narrow_tokens_arm_individual_slots() {
        let (mut h, mut mem, tok) = setup(TokenWidth::B16);
        h.access_data(0, MemAccessKind::Arm, 0x8010, 16, &mem, &tok, Mode::Secure);
        mem.write_bytes(0x8010, tok.bytes());
        // Slot 0 (0x8000..0x8010) is unarmed: loads fine.
        let out = h.access_data(50, MemAccessKind::Load, 0x8000, 8, &mem, &tok, Mode::Secure);
        assert!(out.exception.is_none());
        // Slot 1 armed: faults.
        let out = h.access_data(60, MemAccessKind::Load, 0x8010, 4, &mem, &tok, Mode::Secure);
        assert_eq!(out.exception, Some(RestExceptionKind::TokenLoad));
        // Straddling access from slot 0 into slot 1 faults too.
        let out = h.access_data(70, MemAccessKind::Load, 0x800c, 8, &mem, &tok, Mode::Secure);
        assert_eq!(out.exception, Some(RestExceptionKind::TokenStore).map(|_| RestExceptionKind::TokenLoad));
    }

    #[test]
    fn armed_line_eviction_counts_token_traffic() {
        let (mut h, mut mem, tok) = setup(TokenWidth::B64);
        h.access_data(0, MemAccessKind::Arm, 0x9000, 64, &mem, &tok, Mode::Secure);
        mem.write_bytes(0x9000, tok.bytes());
        // Thrash the set: L1D is 64kB 8-way => set stride 8 kB; touch 9
        // more lines mapping to the same set.
        let mut t = 100;
        for i in 1..=9u64 {
            let addr = 0x9000 + i * 8 * 1024;
            let out = h.access_data(t, MemAccessKind::Load, addr, 8, &mem, &tok, Mode::Secure);
            t = out.complete_at + 1;
        }
        assert!(h.stats().token_lines_evicted_l1d >= 1);
        // Refetch the armed line: detector re-arms it from content.
        let out = h.access_data(t + 10, MemAccessKind::Load, 0x9000, 8, &mem, &tok, Mode::Secure);
        assert_eq!(out.exception, Some(RestExceptionKind::TokenLoad));
    }

    #[test]
    fn instruction_fetches_hit_after_first_miss() {
        let (mut h, mem, tok) = setup(TokenWidth::B64);
        let t1 = h.fetch_inst(0, 0x1_0000, &mem, &tok);
        assert!(t1 > 2);
        let t2 = h.fetch_inst(t1, 0x1_0004, &mem, &tok);
        assert_eq!(t2, t1 + 2);
        assert_eq!(h.stats().l1i_misses, 1);
        assert_eq!(h.stats().l1i_hits, 1);
    }

    #[test]
    fn mshr_merge_serves_secondary_miss_with_primary_fill() {
        let (mut h, mem, tok) = setup(TokenWidth::B64);
        let a = h.access_data(0, MemAccessKind::Load, 0xa000, 8, &mem, &tok, Mode::Secure);
        // Same line, issued while the fill is in flight.
        let b = h.access_data(1, MemAccessKind::Load, 0xa020, 8, &mem, &tok, Mode::Secure);
        assert_eq!(b.complete_at, a.complete_at);
        assert_eq!(h.stats().l1d_misses, 2);
        assert_eq!(h.stats().l2_misses, 1, "merged miss must not re-access L2");
    }

    impl Hierarchy {
        /// Test hook: forcibly invalidate an L1-D line.
        fn l1d_invalidate_for_test(&mut self, addr: u64) {
            self.l1d.invalidate(addr);
        }
    }
}
