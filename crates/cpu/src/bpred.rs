use rest_isa::BranchInfo;

/// Entries per storage block of a [`FirstTouch`] table (fewer when the
/// whole table is smaller).
const BLOCK: usize = 64;

/// A power-of-two table whose entries all start at `init`, with storage
/// handed out on first write in blocks of `min(len, BLOCK)` entries.
///
/// Every never-written block reads block 0 of the data, one shared
/// block of `init` that nothing writes; the first write to a block
/// appends its own copy to an array reserved for the whole table, so
/// appending never reallocates. Building a table therefore writes its
/// block index and one block.
#[derive(Debug, Clone)]
struct FirstTouch<T> {
    /// Per block: the index in `data` of its first entry; 0 (the shared
    /// block) while never written.
    blocks: Vec<u32>,
    data: Vec<T>,
    init: T,
    /// log2 of the block size.
    shift: u32,
}

impl<T: Copy> FirstTouch<T> {
    fn new(len: usize, init: T) -> FirstTouch<T> {
        assert!(len.is_power_of_two(), "table size {len}");
        let block = len.min(BLOCK);
        // Every block, plus the shared one.
        let cap = len + block;
        assert!(u32::try_from(cap).is_ok(), "table size {len}");
        let mut data = Vec::with_capacity(cap);
        data.resize(block, init);
        FirstTouch {
            blocks: vec![0; len / block],
            data,
            init,
            shift: block.trailing_zeros(),
        }
    }

    /// Index in `data` of entry `i`.
    fn slot(&self, i: usize) -> usize {
        self.blocks[i >> self.shift] as usize | (i & ((1 << self.shift) - 1))
    }

    fn get(&self, i: usize) -> T {
        self.data[self.slot(i)]
    }

    fn get_mut(&mut self, i: usize) -> &mut T {
        let block = i >> self.shift;
        if self.blocks[block] == 0 {
            self.blocks[block] = self.data.len() as u32;
            self.data.resize(self.data.len() + (1 << self.shift), self.init);
        }
        let slot = self.slot(i);
        &mut self.data[slot]
    }
}

/// Branch predictor: gshare direction predictor + branch target buffer +
/// return-address stack.
///
/// A storage-comparable stand-in for the paper's L-TAGE (31 k entries):
/// what the evaluation needs is a realistic, high-accuracy predictor so
/// that front-end behaviour — and the cost of the extra branches ASan
/// instrumentation introduces — is modelled, not a bit-exact L-TAGE.
///
/// The counter table and the BTB get their storage on first write, in
/// blocks of up to 64 entries; unwritten entries read as a dense
/// table's would (counter 1, empty BTB slot). This is for construction
/// cost, not access cost: a new predictor writes a block index and one
/// shared block per table instead of 2^`history_bits` counters and
/// every BTB entry, which dominated machines that run a few dozen
/// instructions.
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    /// 2-bit saturating counters indexed by `pc ^ history`, initially 1.
    counters: FirstTouch<u8>,
    history: u64,
    history_mask: u64,
    /// BTB: tagged target cache for taken/indirect branches.
    btb: FirstTouch<Option<(u64, u64)>>, // (pc, target)
    btb_mask: usize,
    ras: Vec<u64>,
    ras_depth: usize,
    lookups: u64,
    mispredicts: u64,
}

impl BranchPredictor {
    /// Creates a predictor with `history_bits` of global history,
    /// `btb_entries` targets, and a `ras_depth`-deep return stack.
    pub fn new(history_bits: usize, btb_entries: usize, ras_depth: usize) -> BranchPredictor {
        assert!(history_bits > 0 && history_bits < 30);
        assert!(btb_entries.is_power_of_two(), "BTB size must be a power of two");
        BranchPredictor {
            counters: FirstTouch::new(1 << history_bits, 1),
            history: 0,
            history_mask: (1u64 << history_bits) - 1,
            btb: FirstTouch::new(btb_entries, None),
            btb_mask: btb_entries - 1,
            ras: Vec::new(),
            ras_depth,
            lookups: 0,
            mispredicts: 0,
        }
    }

    fn counter_index(&self, pc: u64) -> usize {
        (((pc >> 2) ^ self.history) & self.history_mask) as usize
    }

    fn btb_index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & self.btb_mask
    }

    /// Predicts the branch at `pc`, then trains on the oracle `outcome`,
    /// returning whether the prediction was **correct** (direction and,
    /// where needed, target).
    pub fn predict_and_train(&mut self, pc: u64, outcome: &BranchInfo) -> bool {
        self.lookups += 1;
        // --- predict ---
        let dir = if outcome.conditional {
            self.counters.get(self.counter_index(pc)) >= 2
        } else {
            true
        };
        let target = if outcome.is_return {
            self.ras.last().copied()
        } else {
            self.btb
                .get(self.btb_index(pc))
                .filter(|&(tag, _)| tag == pc)
                .map(|(_, t)| t)
        };
        let correct_dir = dir == outcome.taken;
        // A taken branch also needs the right target from the BTB/RAS;
        // direct branches resolve the target at decode, so only indirect
        // ones pay for a BTB miss here.
        let needs_target = outcome.taken && (outcome.indirect || outcome.is_return);
        let correct_target = !needs_target || target == Some(outcome.target);
        let correct = correct_dir && correct_target;
        if !correct {
            self.mispredicts += 1;
        }
        // --- train ---
        if outcome.conditional {
            let idx = self.counter_index(pc);
            let c = self.counters.get_mut(idx);
            if outcome.taken {
                *c = (*c + 1).min(3);
            } else {
                *c = c.saturating_sub(1);
            }
        }
        self.history = ((self.history << 1) | outcome.taken as u64) & self.history_mask;
        if outcome.taken {
            let idx = self.btb_index(pc);
            *self.btb.get_mut(idx) = Some((pc, outcome.target));
        }
        if outcome.is_call {
            if self.ras.len() == self.ras_depth {
                self.ras.remove(0);
            }
            self.ras.push(pc + rest_isa::PC_STEP);
        }
        if outcome.is_return {
            self.ras.pop();
        }
        correct
    }

    /// Total predictions made.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Total mispredictions.
    pub fn mispredicts(&self) -> u64 {
        self.mispredicts
    }

    /// Misprediction rate in [0, 1].
    pub fn mispredict_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.lookups as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn taken_branch(target: u64) -> BranchInfo {
        BranchInfo {
            taken: true,
            target,
            conditional: true,
            is_call: false,
            is_return: false,
            indirect: false,
        }
    }

    fn pred() -> BranchPredictor {
        BranchPredictor::new(12, 512, 8)
    }

    #[test]
    fn learns_a_biased_branch() {
        let mut p = pred();
        let b = taken_branch(0x100);
        // After warm-up (global history must saturate before the gshare
        // index stabilises), an always-taken branch predicts correctly.
        for _ in 0..20 {
            p.predict_and_train(0x40, &b);
        }
        assert!(p.predict_and_train(0x40, &b));
        assert!(p.predict_and_train(0x40, &b));
    }

    #[test]
    fn learns_a_loop_pattern() {
        let mut p = pred();
        let mut wrong = 0;
        // 100 iterations of a 10-iteration loop: backward branch taken 9
        // times then not taken.
        for _ in 0..100 {
            for i in 0..10 {
                let b = BranchInfo {
                    taken: i != 9,
                    target: 0x80,
                    conditional: true,
                    is_call: false,
                    is_return: false,
                    indirect: false,
                };
                if !p.predict_and_train(0x44, &b) {
                    wrong += 1;
                }
            }
        }
        // Global history disambiguates the exit iteration; accuracy must
        // be well above a static predictor's 90%.
        assert!(wrong < 60, "too many mispredicts: {wrong}");
    }

    #[test]
    fn ras_predicts_returns() {
        let mut p = pred();
        let call = BranchInfo {
            taken: true,
            target: 0x1000,
            conditional: false,
            is_call: true,
            is_return: false,
            indirect: false,
        };
        // Train the call once (BTB learns its target).
        p.predict_and_train(0x40, &call);
        let ret = BranchInfo {
            taken: true,
            target: 0x44, // return to call site + 4
            conditional: false,
            is_call: false,
            is_return: true,
            indirect: true,
        };
        p.predict_and_train(0x40, &call);
        assert!(
            p.predict_and_train(0x1000, &ret),
            "RAS must predict the return target"
        );
    }

    #[test]
    fn indirect_branch_needs_btb_hit() {
        let mut p = pred();
        let ind = BranchInfo {
            taken: true,
            target: 0x2000,
            conditional: false,
            is_call: false,
            is_return: false,
            indirect: true,
        };
        // Cold BTB: mispredict.
        assert!(!p.predict_and_train(0x80, &ind));
        // Warm: correct.
        assert!(p.predict_and_train(0x80, &ind));
        // Target change: mispredict again.
        let ind2 = BranchInfo { target: 0x3000, ..ind };
        assert!(!p.predict_and_train(0x80, &ind2));
    }

    /// The predictor with dense tables, written out in full at
    /// construction: the reference for the first-touch storage.
    struct Dense {
        counters: Vec<u8>,
        history: u64,
        history_mask: u64,
        btb: Vec<Option<(u64, u64)>>,
        ras: Vec<u64>,
        ras_depth: usize,
    }

    impl Dense {
        fn new(history_bits: usize, btb_entries: usize, ras_depth: usize) -> Dense {
            Dense {
                counters: vec![1u8; 1 << history_bits],
                history: 0,
                history_mask: (1u64 << history_bits) - 1,
                btb: vec![None; btb_entries],
                ras: Vec::new(),
                ras_depth,
            }
        }

        fn predict_and_train(&mut self, pc: u64, o: &BranchInfo) -> bool {
            let ci = (((pc >> 2) ^ self.history) & self.history_mask) as usize;
            let bi = (pc >> 2) as usize % self.btb.len();
            let dir = !o.conditional || self.counters[ci] >= 2;
            let target = if o.is_return {
                self.ras.last().copied()
            } else {
                self.btb[bi].filter(|&(tag, _)| tag == pc).map(|(_, t)| t)
            };
            let needs_target = o.taken && (o.indirect || o.is_return);
            let correct = dir == o.taken && (!needs_target || target == Some(o.target));
            if o.conditional {
                let c = &mut self.counters[ci];
                *c = if o.taken { (*c + 1).min(3) } else { c.saturating_sub(1) };
            }
            self.history = ((self.history << 1) | o.taken as u64) & self.history_mask;
            if o.taken {
                self.btb[bi] = Some((pc, o.target));
            }
            if o.is_call {
                if self.ras.len() == self.ras_depth {
                    self.ras.remove(0);
                }
                self.ras.push(pc + rest_isa::PC_STEP);
            }
            if o.is_return {
                self.ras.pop();
            }
            correct
        }
    }

    /// Seeded random conditional, indirect, call and return streams
    /// over a pool of PCs spread across the whole table; every answer
    /// and counter must match the dense model.
    fn check_against_dense(history_bits: usize, btb_entries: usize, seed: u64) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut p = BranchPredictor::new(history_bits, btb_entries, 8);
        let mut d = Dense::new(history_bits, btb_entries, 8);
        let pcs: Vec<u64> = (0..64).map(|_| rng.gen_range(0..1u64 << 24) * 4).collect();
        let targets = [0x1000, 0x2000, 0x3000, 0x4000];
        let mut mispredicts = 0;
        for step in 0..20_000 {
            let pc = pcs[rng.gen_range(0..pcs.len())];
            let target = targets[rng.gen_range(0..targets.len())];
            let base = BranchInfo {
                taken: true,
                target,
                conditional: false,
                is_call: false,
                is_return: false,
                indirect: false,
            };
            let o = match rng.gen_range(0..4) {
                0 => BranchInfo {
                    // Biased by PC, so counters saturate both ways.
                    taken: rng.gen_bool(if pc & 4 == 0 { 0.9 } else { 0.2 }),
                    conditional: true,
                    ..base
                },
                1 => BranchInfo { indirect: true, ..base },
                2 => BranchInfo { is_call: true, indirect: rng.gen_bool(0.5), ..base },
                _ => BranchInfo {
                    target: d.ras.last().copied().filter(|_| rng.gen_bool(0.8)).unwrap_or(target),
                    is_return: true,
                    indirect: true,
                    ..base
                },
            };
            let got = p.predict_and_train(pc, &o);
            let want = d.predict_and_train(pc, &o);
            assert_eq!(got, want, "h={history_bits} btb={btb_entries} step {step}: {o:?} at {pc:#x}");
            mispredicts += u64::from(!want);
        }
        assert_eq!(p.lookups(), 20_000);
        assert_eq!(p.mispredicts(), mispredicts);
        assert!(mispredicts > 0 && mispredicts < 20_000);
    }

    #[test]
    fn first_touch_tables_match_dense_model() {
        for (seed, &(h, btb)) in [(15, 4096), (12, 512), (4, 16)].iter().enumerate() {
            check_against_dense(h, btb, seed as u64);
        }
    }

    #[test]
    fn stats_accumulate() {
        let mut p = pred();
        let b = taken_branch(0x100);
        for _ in 0..100 {
            p.predict_and_train(0x40, &b);
        }
        assert_eq!(p.lookups(), 100);
        assert!(p.mispredict_rate() < 0.5);
    }
}
