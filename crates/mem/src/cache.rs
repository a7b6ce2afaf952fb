use crate::config::CacheConfig;

/// Bit 0 of a [`Cache`] way's line word: set while the way holds a line.
/// Line addresses are line-aligned and lines are at least 2 bytes
/// ([`CacheConfig::sets`] checks), so the bit is free.
const VALID: u64 = 1;

/// A line evicted by a fill or invalidation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// Base address of the evicted line.
    pub addr: u64,
    /// Whether the line was dirty (requires a writeback).
    pub dirty: bool,
    /// Token bits the line carried. Non-zero means the outgoing packet
    /// must have the token value materialised into the armed slots
    /// (Table I, "Eviction" row) — arm never wrote the value into the
    /// data array.
    pub token_mask: u8,
}

/// A set-associative, write-back, write-allocate cache with true-LRU
/// replacement and per-line REST token bits.
///
/// Only tags and metadata are stored; data lives in the functional guest
/// memory. This is the standard timing/functional split and is what lets
/// the token detector compare genuine line contents at fill time.
///
/// The ways live in flat arrays, one per field: line words (`line
/// address | VALID`, 0 when empty), LRU stamps, dirty flags and token
/// masks. The set is `(addr >> line_shift) & set_mask`, so a lookup
/// costs a shift, a mask and a scan of one set, with no division.
///
/// Storage is first-touch. The arrays are reserved for every set up
/// front, which writes nothing, and a set gets its `assoc`-sized block
/// of them, all empty ways, the first time it is filled; appending
/// never reallocates. A per-set block index finds the block. Sets never
/// filled all point at block 0, one shared block of empty ways that
/// nothing writes, so every lookup is the same scan with no branch on
/// whether the set has storage. This is for construction cost, not
/// access cost: a new cache writes its block index and one block
/// instead of every way (576 KiB for the Table II L2), which dominated
/// machines that run a few dozen instructions.
///
/// # Example
///
/// ```
/// use rest_mem::{Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig::isca2018_l1d(), "L1D");
/// assert!(!c.lookup(0x1000, false));      // cold miss
/// c.fill(0x1000, false, 0);
/// assert!(c.lookup(0x1000, false));       // now hits
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// Per set: the first way of its block. 0 for a set never filled:
    /// block 0 is one shared block of empty ways that nothing writes.
    blocks: Vec<u32>,
    /// Per way: `line address | VALID`, or 0 when the way is empty.
    lines: Vec<u64>,
    /// Per way: LRU stamp (monotonic use counter).
    stamps: Vec<u64>,
    /// Per way: the line differs from the next level.
    dirty: Vec<bool>,
    /// Per way: REST token bits for the slots of the line (bit *i* =
    /// slot *i*). Only meaningful in the L1-D; other levels keep it zero.
    token_masks: Vec<u8>,
    assoc: usize,
    line_shift: u32,
    set_mask: u64,
    next_stamp: u64,
    name: &'static str,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics on a geometry [`CacheConfig::sets`] rejects.
    pub fn new(cfg: CacheConfig, name: &'static str) -> Cache {
        let sets = cfg.sets();
        // A block per set, plus the shared empty one.
        let ways = (sets + 1) * cfg.assoc;
        assert!(u32::try_from(ways).is_ok(), "{name}: {ways} ways overflow the block index");
        let mut cache = Cache {
            blocks: vec![0; sets],
            lines: Vec::with_capacity(ways),
            stamps: Vec::with_capacity(ways),
            dirty: Vec::with_capacity(ways),
            token_masks: Vec::with_capacity(ways),
            assoc: cfg.assoc,
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_mask: sets as u64 - 1,
            next_stamp: 0,
            name,
            cfg,
        };
        cache.append_block();
        cache
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Human-readable name (e.g. `"L1D"`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Base address of the line containing `addr`.
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr & !(self.cfg.line_bytes - 1)
    }

    /// `addr`'s set.
    fn set_of(&self, addr: u64) -> usize {
        ((addr >> self.line_shift) & self.set_mask) as usize
    }

    /// Index of the first way of `addr`'s set: the shared empty block
    /// if the set has never been filled.
    fn set_base(&self, addr: u64) -> usize {
        self.blocks[self.set_of(addr)] as usize
    }

    /// Appends a block of empty ways, returning its first way.
    fn append_block(&mut self) -> usize {
        let base = self.lines.len();
        let ways = base + self.assoc;
        self.lines.resize(ways, 0);
        self.stamps.resize(ways, 0);
        self.dirty.resize(ways, false);
        self.token_masks.resize(ways, 0);
        base
    }

    fn bump(&mut self) -> u64 {
        self.next_stamp += 1;
        self.next_stamp
    }

    /// The way holding `addr`'s line, if resident.
    pub(crate) fn find(&self, addr: u64) -> Option<usize> {
        let word = self.line_addr(addr) | VALID;
        let base = self.set_base(addr);
        self.lines[base..base + self.assoc]
            .iter()
            .position(|&l| l == word)
            .map(|w| base + w)
    }

    fn resident(&self, addr: u64, op: &str) -> usize {
        self.find(addr)
            .unwrap_or_else(|| panic!("{}: {op} on absent line {addr:#x}", self.name))
    }

    /// Records a use of `way` for LRU, dirtying it when `is_write`.
    pub(crate) fn touch(&mut self, way: usize, is_write: bool) {
        self.stamps[way] = self.bump();
        self.dirty[way] |= is_write;
    }

    /// Looks up `addr`, updating LRU state. Marks the line dirty when
    /// `is_write`. Returns whether the access hit.
    pub fn lookup(&mut self, addr: u64, is_write: bool) -> bool {
        match self.find(addr) {
            Some(way) => {
                self.touch(way, is_write);
                true
            }
            None => false,
        }
    }

    /// Whether `addr`'s line is resident, without touching LRU state.
    pub fn probe(&self, addr: u64) -> bool {
        self.find(addr).is_some()
    }

    /// Token bits of `addr`'s line, or `None` if not resident.
    pub fn token_mask(&self, addr: u64) -> Option<u8> {
        self.find(addr).map(|w| self.token_masks[w])
    }

    /// Index within its line of the `slot_bytes`-wide slot holding the
    /// line offset `offset`. Slots are token widths, which divide the
    /// line and so are powers of two: the division is a shift.
    fn slot_of(offset: u64, slot_bytes: u64) -> u64 {
        debug_assert!(slot_bytes.is_power_of_two(), "slot size {slot_bytes}");
        offset >> slot_bytes.trailing_zeros()
    }

    /// The token-mask bit of the `slot_bytes`-wide slot holding `addr`.
    fn slot_bit(&self, addr: u64, slot_bytes: u64) -> u8 {
        1u8 << Self::slot_of(addr & (self.cfg.line_bytes - 1), slot_bytes)
    }

    /// Whether the token bit covering `addr` (given `slot_bytes`-wide
    /// slots) is set. `false` when the line is absent.
    pub fn token_bit_covering(&self, addr: u64, slot_bytes: u64) -> bool {
        self.token_bit_at(self.find(addr), addr, slot_bytes)
    }

    /// [`Cache::token_bit_covering`] with `addr`'s way already resolved.
    pub(crate) fn token_bit_at(&self, way: Option<usize>, addr: u64, slot_bytes: u64) -> bool {
        way.is_some_and(|w| self.token_masks[w] & self.slot_bit(addr, slot_bytes) != 0)
    }

    /// Whether any byte of `[addr, addr+size)` lies in an armed slot of a
    /// resident line. Checks every slot the access overlaps, so wide
    /// accesses that straddle a slot — or a cache-line — boundary check
    /// each covered slot in whichever line holds it. A range running
    /// past the top of the address space is checked up to `u64::MAX`.
    ///
    /// `slot_bytes` must divide the line size, as token widths do.
    pub fn access_touches_token(&self, addr: u64, size: u64, slot_bytes: u64) -> bool {
        self.touches_token_at(self.find(addr), addr, size, slot_bytes)
    }

    /// [`Cache::access_touches_token`] with the way of `addr`'s line
    /// already resolved; only further lines of a straddling access are
    /// looked up.
    pub(crate) fn touches_token_at(
        &self,
        mut way: Option<usize>,
        addr: u64,
        size: u64,
        slot_bytes: u64,
    ) -> bool {
        let last = addr.saturating_add(size.max(1) - 1);
        let line_last = self.cfg.line_bytes - 1;
        let mut line = self.line_addr(addr);
        loop {
            // The access's bytes in this line: [lo, hi], line-relative.
            let lo = addr.max(line) - line;
            let hi = last.min(line + line_last) - line;
            if let Some(w) = way {
                let covered = (2u16 << Self::slot_of(hi, slot_bytes))
                    - (1u16 << Self::slot_of(lo, slot_bytes));
                if self.token_masks[w] & covered as u8 != 0 {
                    return true;
                }
            }
            if line + hi == last {
                return false;
            }
            line += self.cfg.line_bytes;
            way = self.find(line);
        }
    }

    /// ORs `mask` into the token bits of `addr`'s line.
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident (callers fill first).
    pub fn set_token_bits(&mut self, addr: u64, mask: u8) {
        let w = self.resident(addr, "set_token_bits");
        self.token_masks[w] |= mask;
    }

    /// Clears the token bit for the slot containing `addr` and marks the
    /// line dirty (the disarm zeroes the slot in the data array).
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident.
    pub fn clear_token_bit(&mut self, addr: u64, slot_bytes: u64) {
        let w = self.resident(addr, "clear_token_bit");
        self.token_masks[w] &= !self.slot_bit(addr, slot_bytes);
        self.dirty[w] = true;
    }

    /// Marks `addr`'s resident line dirty (e.g. the arm's lazy value
    /// write obligation).
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident.
    pub fn mark_dirty(&mut self, addr: u64) {
        let w = self.resident(addr, "mark_dirty");
        self.dirty[w] = true;
    }

    /// Installs `addr`'s line (write-allocate fill), evicting the LRU way
    /// if the set is full. `token_mask` carries the detector's result for
    /// the incoming data. Returns the evicted line, if any.
    pub fn fill(&mut self, addr: u64, dirty: bool, token_mask: u8) -> Option<EvictedLine> {
        if let Some(w) = self.find(addr) {
            // Refill of a resident line (e.g. upgrade); merge state.
            self.touch(w, dirty);
            self.token_masks[w] |= token_mask;
            return None;
        }
        let set = self.set_of(addr);
        if self.blocks[set] == 0 {
            self.blocks[set] = self.append_block() as u32;
        }
        let base = self.blocks[set] as usize;
        let set = base..base + self.assoc;
        // Choose an invalid way, else the LRU way.
        let victim = match self.lines[set.clone()].iter().position(|&l| l & VALID == 0) {
            Some(w) => base + w,
            None => {
                let (w, _) = self.stamps[set]
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &stamp)| stamp)
                    .expect("associativity is at least 1");
                base + w
            }
        };
        let evicted = (self.lines[victim] & VALID != 0).then(|| EvictedLine {
            addr: self.lines[victim] & !VALID,
            dirty: self.dirty[victim],
            token_mask: self.token_masks[victim],
        });
        self.lines[victim] = self.line_addr(addr) | VALID;
        self.stamps[victim] = self.bump();
        self.dirty[victim] = dirty;
        self.token_masks[victim] = token_mask;
        evicted
    }

    /// Invalidates `addr`'s line, returning its state if it was resident.
    pub fn invalidate(&mut self, addr: u64) -> Option<EvictedLine> {
        let w = self.find(addr)?;
        let evicted = EvictedLine {
            addr: self.line_addr(addr),
            dirty: self.dirty[w],
            token_mask: self.token_masks[w],
        };
        self.lines[w] = 0;
        self.stamps[w] = 0;
        self.dirty[w] = false;
        self.token_masks[w] = 0;
        Some(evicted)
    }

    /// Number of valid lines (for occupancy assertions in tests).
    pub fn resident_lines(&self) -> usize {
        self.lines.iter().filter(|&&l| l & VALID != 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemConfig;

    fn tiny() -> Cache {
        Cache::new(MemConfig::tiny().l1d, "L1D")
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.lookup(0x1000, false));
        assert!(c.fill(0x1000, false, 0).is_none());
        assert!(c.lookup(0x1000, false));
        assert!(c.lookup(0x103f, false)); // same line
        assert!(!c.lookup(0x1040, false)); // next line
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny(); // 2-way, 8 sets, 64B lines => set stride 512
        let a = 0x0000u64;
        let b = a + 512; // same set
        let d = a + 1024; // same set
        c.fill(a, false, 0);
        c.fill(b, false, 0);
        c.lookup(a, false); // a is now MRU
        let ev = c.fill(d, false, 0).expect("must evict");
        assert_eq!(ev.addr, b);
        assert!(c.probe(a) && c.probe(d) && !c.probe(b));
    }

    #[test]
    fn dirty_state_tracks_writes_and_travels_on_eviction() {
        let mut c = tiny();
        c.fill(0x0, false, 0);
        c.lookup(0x8, true); // write dirties the line
        c.fill(512, false, 0);
        let ev = c.fill(1024, false, 0).unwrap();
        assert_eq!(ev.addr, 0x0);
        assert!(ev.dirty);
    }

    #[test]
    fn token_bits_per_slot() {
        let mut c = tiny();
        c.fill(0x1000, false, 0);
        // 16-byte slots: 4 per line.
        c.set_token_bits(0x1000, 0b0001);
        c.set_token_bits(0x1000, 0b0100);
        assert_eq!(c.token_mask(0x1000), Some(0b0101));
        assert!(c.token_bit_covering(0x1000, 16));
        assert!(!c.token_bit_covering(0x1010, 16));
        assert!(c.token_bit_covering(0x1020, 16));
        c.clear_token_bit(0x1020, 16);
        assert_eq!(c.token_mask(0x1000), Some(0b0001));
    }

    #[test]
    fn access_touching_armed_slot_detected_across_slot_boundary() {
        let mut c = tiny();
        c.fill(0x1000, false, 0b0010); // slot 1 (0x1010..0x1020) armed, 16B slots
        // 8-byte access straddling slot 0 into slot 1.
        assert!(c.access_touches_token(0x100c, 8, 16));
        assert!(!c.access_touches_token(0x1000, 8, 16));
        assert!(c.access_touches_token(0x101f, 1, 16));
        assert!(!c.access_touches_token(0x1020, 1, 16));
    }

    #[test]
    fn access_touching_armed_slot_detected_across_line_boundary() {
        let mut c = tiny();
        // Line 0x1000: slot 3 (0x1030..0x1040) armed; line 0x1040 clean.
        c.fill(0x1000, false, 0b1000);
        c.fill(0x1040, false, 0);
        // A 32-byte access spanning both lines whose first and last bytes
        // land in clean slots but whose interior covers the armed slot.
        assert!(c.access_touches_token(0x1028, 32, 16));
        // The same span one line later touches nothing.
        assert!(!c.access_touches_token(0x1068, 32, 16));
        // A line-straddling access whose *last* slot is the armed one.
        c.fill(0x1080, false, 0);
        c.fill(0x10c0, false, 0b0001);
        assert!(c.access_touches_token(0x10b8, 16, 16));
        assert!(!c.access_touches_token(0x10a8, 16, 16));
        // Wide access fully inside one line with only an interior armed
        // slot (first/last slots clean).
        assert!(c.access_touches_token(0x1000, 64, 16));
    }

    #[test]
    fn eviction_reports_token_mask_for_lazy_value_write() {
        let mut c = tiny();
        c.fill(0x0, false, 0);
        c.set_token_bits(0x0, 0b1);
        c.mark_dirty(0x0);
        c.fill(512, false, 0);
        let ev = c.fill(1024, false, 0).unwrap();
        assert_eq!(ev.token_mask, 0b1);
        assert!(ev.dirty);
    }

    #[test]
    fn refill_of_resident_line_merges_state() {
        let mut c = tiny();
        c.fill(0x40, false, 0);
        assert!(c.fill(0x40, true, 0b10).is_none());
        assert_eq!(c.token_mask(0x40), Some(0b10));
        assert_eq!(c.resident_lines(), 1);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.fill(0x80, true, 0b1);
        let ev = c.invalidate(0x80).unwrap();
        assert_eq!(ev.addr, 0x80);
        assert!(ev.dirty);
        assert_eq!(ev.token_mask, 0b1);
        assert!(!c.probe(0x80));
        assert!(c.invalidate(0x80).is_none());
    }

    #[test]
    fn token_checks_reach_the_top_of_the_address_space() {
        let mut c = tiny();
        let top = u64::MAX - 7;
        let top_line = c.line_addr(top);
        c.fill(top_line, false, 0b1000); // slot 3: the last 16 bytes
        assert!(c.access_touches_token(top, 8, 16));
        assert!(c.token_bit_covering(top, 16));
        // An access running past u64::MAX is checked up to the top.
        assert!(c.access_touches_token(top, 64, 16));
        assert!(!c.access_touches_token(top_line, 16, 16));
        c.clear_token_bit(top, 16);
        assert!(!c.access_touches_token(top, 8, 16));
        let ev = c.invalidate(top).expect("resident");
        assert_eq!(ev.addr, top_line);
        assert!(ev.dirty);
    }

    /// A naive true-LRU cache: one `Vec` per set holding its resident
    /// lines, least recently used first, indexed by division.
    struct ModelLine {
        line: u64,
        dirty: bool,
        mask: u8,
    }

    struct Model {
        line_bytes: u64,
        assoc: usize,
        sets: Vec<Vec<ModelLine>>,
    }

    impl Model {
        fn new(cfg: &CacheConfig) -> Model {
            Model {
                line_bytes: cfg.line_bytes,
                assoc: cfg.assoc,
                sets: (0..cfg.sets()).map(|_| Vec::new()).collect(),
            }
        }

        fn locate(&self, addr: u64) -> (usize, u64, Option<usize>) {
            let line = addr / self.line_bytes * self.line_bytes;
            let set = (addr / self.line_bytes % self.sets.len() as u64) as usize;
            let pos = self.sets[set].iter().position(|l| l.line == line);
            (set, line, pos)
        }

        /// Moves a resident line to the most-recently-used end.
        fn touch(&mut self, set: usize, pos: usize) -> &mut ModelLine {
            let l = self.sets[set].remove(pos);
            self.sets[set].push(l);
            self.sets[set].last_mut().unwrap()
        }

        fn lookup(&mut self, addr: u64, is_write: bool) -> bool {
            match self.locate(addr) {
                (set, _, Some(pos)) => {
                    self.touch(set, pos).dirty |= is_write;
                    true
                }
                _ => false,
            }
        }

        fn resident(&mut self, addr: u64) -> Option<&mut ModelLine> {
            let (set, _, pos) = self.locate(addr);
            pos.map(|p| &mut self.sets[set][p])
        }

        fn token_bit(&self, addr: u64, slot: u64) -> bool {
            let (set, _, pos) = self.locate(addr);
            pos.is_some_and(|p| {
                self.sets[set][p].mask & (1 << (addr % self.line_bytes / slot)) != 0
            })
        }

        /// Byte by byte, up to the top of the address space.
        fn touches(&self, addr: u64, size: u64, slot: u64) -> bool {
            let last = (addr as u128 + size.max(1) as u128 - 1).min(u64::MAX as u128) as u64;
            (addr..=last).any(|b| self.token_bit(b, slot))
        }

        fn fill(&mut self, addr: u64, dirty: bool, mask: u8) -> Option<EvictedLine> {
            let (set, line, pos) = self.locate(addr);
            if let Some(pos) = pos {
                let l = self.touch(set, pos);
                l.dirty |= dirty;
                l.mask |= mask;
                return None;
            }
            let evicted = (self.sets[set].len() == self.assoc).then(|| {
                let old = self.sets[set].remove(0);
                EvictedLine {
                    addr: old.line,
                    dirty: old.dirty,
                    token_mask: old.mask,
                }
            });
            self.sets[set].push(ModelLine { line, dirty, mask });
            evicted
        }

        fn invalidate(&mut self, addr: u64) -> Option<EvictedLine> {
            let (set, _, pos) = self.locate(addr);
            let old = self.sets[set].remove(pos?);
            Some(EvictedLine {
                addr: old.line,
                dirty: old.dirty,
                token_mask: old.mask,
            })
        }

        fn resident_lines(&self) -> usize {
            self.sets.iter().map(Vec::len).sum()
        }
    }

    /// Seeded random operations on `cfg`, every return value compared
    /// with the model. Addresses crowd a few sets (so sets overflow and
    /// evict) and some sit at the top of the address space. A tenth are
    /// cold: anywhere in a set the crowded addresses never reach, and
    /// never filled, so lookups, token checks and invalidations also
    /// meet sets that have no storage.
    fn check_against_model(cfg: CacheConfig, seed: u64) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut c = Cache::new(cfg.clone(), "T");
        let mut m = Model::new(&cfg);
        let (lb, sets) = (cfg.line_bytes, cfg.sets() as u64);
        for step in 0..20_000 {
            let index = rng.gen_range(0..cfg.assoc as u64 * 3) * sets + rng.gen_range(0..3);
            let offset = rng.gen_range(0..lb);
            let cold = rng.gen_bool(0.1);
            let addr = if cold {
                let tag = rng.gen_range(0..u64::MAX / lb / sets);
                (tag * sets + rng.gen_range(3..sets - 3)) * lb + offset
            } else if rng.gen_bool(0.2) {
                (u64::MAX - lb + 1 - index * lb) + offset
            } else {
                index * lb + offset
            };
            let slot = [16, 32, 64][rng.gen_range(0..3usize)];
            let ctx = format!("step {step}, addr {addr:#x}");
            match rng.gen_range(0..10) {
                0 | 1 => {
                    let w = rng.gen_bool(0.3);
                    assert_eq!(c.lookup(addr, w), m.lookup(addr, w), "{ctx}");
                }
                2 | 3 if !cold => {
                    let (d, mask) = (rng.gen_bool(0.3), rng.gen_range(0..16u8) & rng.gen::<u8>());
                    assert_eq!(c.fill(addr, d, mask), m.fill(addr, d, mask), "{ctx}");
                }
                4 => assert_eq!(c.invalidate(addr), m.invalidate(addr), "{ctx}"),
                5 => {
                    let size = rng.gen_range(0..=80);
                    assert_eq!(
                        c.access_touches_token(addr, size, slot),
                        m.touches(addr, size, slot),
                        "{ctx}, size {size}, slot {slot}"
                    );
                }
                6 => {
                    assert_eq!(
                        c.token_bit_covering(addr, slot),
                        m.token_bit(addr, slot),
                        "{ctx}"
                    );
                    assert_eq!(
                        c.token_mask(addr),
                        m.resident(addr).map(|l| l.mask),
                        "{ctx}"
                    );
                    assert_eq!(c.probe(addr), m.resident(addr).is_some(), "{ctx}");
                }
                _ => {
                    // Arm/disarm/dirty updates apply to resident lines only.
                    if let Some(l) = m.resident(addr) {
                        match rng.gen_range(0..3) {
                            0 => {
                                let mask = rng.gen_range(1..16u8);
                                l.mask |= mask;
                                c.set_token_bits(addr, mask);
                            }
                            1 => {
                                l.mask &= !(1 << (addr % lb / slot));
                                l.dirty = true;
                                c.clear_token_bit(addr, slot);
                            }
                            _ => {
                                l.dirty = true;
                                c.mark_dirty(addr);
                            }
                        }
                    }
                }
            }
            assert_eq!(c.resident_lines(), m.resident_lines(), "{ctx}");
        }
    }

    #[test]
    fn matches_naive_lru_model_on_tiny_geometry() {
        for seed in 0..4 {
            check_against_model(MemConfig::tiny().l1d, seed);
            check_against_model(MemConfig::tiny().l2, seed);
        }
    }

    #[test]
    fn matches_naive_lru_model_on_table2_geometry() {
        check_against_model(CacheConfig::isca2018_l1d(), 7);
        check_against_model(CacheConfig::isca2018_l2(), 8);
    }

    #[test]
    fn sets_get_storage_on_first_fill_only() {
        let mut c = Cache::new(CacheConfig::isca2018_l2(), "L2");
        // Blocks handed out, beyond the shared empty one.
        let handed_out = |c: &Cache| c.lines.len() / c.assoc - 1;
        let reserved = c.lines.capacity();
        assert!(!c.lookup(0x1000, true));
        assert!(!c.probe(0x1000));
        assert!(!c.access_touches_token(0x1000, 8, 16));
        assert!(c.invalidate(0x1000).is_none());
        assert_eq!(handed_out(&c), 0, "no block before the first fill");
        c.fill(0x1000, false, 0);
        c.lookup(0x1000, true);
        c.fill(0x1000 + 64 * 2048, false, 0); // same set
        assert_eq!(handed_out(&c), 1, "one block after it");
        c.fill(0x1040, false, 0); // next set
        assert_eq!(handed_out(&c), 2);
        assert!(c.lines[..c.assoc].iter().all(|&l| l == 0), "the shared block stays empty");
        assert_eq!(c.lines.capacity(), reserved, "blocks never reallocate");
    }

    #[test]
    fn isca_l1d_holds_1024_lines() {
        let mut c = Cache::new(CacheConfig::isca2018_l1d(), "L1D");
        for i in 0..1024u64 {
            c.fill(i * 64, false, 0);
        }
        assert_eq!(c.resident_lines(), 1024);
        // 1025th line must evict.
        assert!(c.fill(1024 * 64, false, 0).is_some());
    }
}
