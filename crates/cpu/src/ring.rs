/// A fixed-size ring of cycle stamps that carries its own cursor.
///
/// The pipeline's structural scoreboards are sliding windows: the ROB
/// slot a micro-op takes is the one the micro-op `rob_entries` older
/// freed, the ALU it issues to is the one used `alu_units` ALU ops ago,
/// and so on. [`Ring::oldest`] reads the stamp pushed `len` pushes ago
/// (0 before that many pushes) and [`Ring::push`] overwrites it and
/// advances the cursor, wrapping by comparison instead of `%`.
#[derive(Debug, Clone)]
pub(crate) struct Ring {
    slots: Vec<u64>,
    cursor: usize,
}

impl Ring {
    /// A ring of `len` zeroed slots.
    ///
    /// # Panics
    ///
    /// Panics if `len` is 0.
    pub(crate) fn new(len: usize) -> Ring {
        assert!(len > 0, "a ring needs at least one slot");
        Ring {
            slots: vec![0; len],
            cursor: 0,
        }
    }

    /// The stamp at the cursor: the one pushed `len` pushes ago.
    pub(crate) fn oldest(&self) -> u64 {
        self.slots[self.cursor]
    }

    /// Overwrites the stamp at the cursor and advances it.
    pub(crate) fn push(&mut self, stamp: u64) {
        self.slots[self.cursor] = stamp;
        self.cursor += 1;
        if self.cursor == self.slots.len() {
            self.cursor = 0;
        }
    }

    /// Number of slots whose stamp is after `now` (occupancy gauges).
    pub(crate) fn count_after(&self, now: u64) -> u64 {
        self.slots.iter().filter(|&&c| c > now).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The ring against a `Vec` indexed by a push counter modulo its
    /// length, on seeded random stamps, for non-power-of-two sizes.
    #[test]
    fn matches_modulo_indexing() {
        for len in [1usize, 6, 192, 32, 2] {
            let mut rng = StdRng::seed_from_u64(len as u64);
            let mut ring = Ring::new(len);
            let mut model = vec![0u64; len];
            for n in 0..5_000 {
                assert_eq!(ring.oldest(), model[n % len], "len {len}, push {n}");
                let now = rng.gen_range(0..1_000);
                assert_eq!(
                    ring.count_after(now),
                    model.iter().filter(|&&c| c > now).count() as u64
                );
                let stamp = rng.gen_range(0..1_000);
                ring.push(stamp);
                model[n % len] = stamp;
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn empty_ring_panics() {
        let _ = Ring::new(0);
    }
}
