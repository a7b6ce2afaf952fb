/// One in-flight line fill.
#[derive(Debug, Clone, Copy)]
struct Entry {
    line: u64,
    /// Fill completion cycle.
    done: u64,
    /// Targets merged so far, the primary miss included.
    targets: usize,
}

/// A miss-status holding register file.
///
/// Tracks outstanding line fills for one cache level. A secondary miss to
/// a line already in flight *merges*: it costs no new entry and completes
/// when the primary fill returns (subject to the per-entry target limit).
/// When all entries are busy, a new miss must wait for the earliest
/// completion — the stall the paper's Table II provisions against with
/// "4 20-entry MSHRs".
///
/// The entries are a small array (at most `entries` long: 4 or 20 in
/// Table II) searched linearly; it is allocated once, at construction.
///
/// # Example
///
/// ```
/// use rest_mem::MshrFile;
///
/// let mut mshrs = MshrFile::new(2, 4);
/// let start = mshrs.allocate(0x1000, 10, 100); // line, now, fill-done
/// assert_eq!(start, 10);                        // no structural stall
/// assert_eq!(mshrs.merge(0x1000, 50), Some(100)); // secondary miss merges
/// ```
#[derive(Debug, Clone)]
pub struct MshrFile {
    entries: usize,
    targets_per_entry: usize,
    /// In-flight fills, one per line, in no particular order.
    inflight: Vec<Entry>,
    stalls: u64,
    merges: u64,
}

impl MshrFile {
    /// Creates a file with `entries` primary-miss slots, each accepting
    /// `targets_per_entry` merged secondary misses.
    pub fn new(entries: usize, targets_per_entry: usize) -> MshrFile {
        MshrFile {
            entries,
            targets_per_entry,
            inflight: Vec::with_capacity(entries),
            stalls: 0,
            merges: 0,
        }
    }

    /// Drops entries whose fills completed at or before `now`.
    pub fn expire(&mut self, now: u64) {
        self.inflight.retain(|e| e.done > now);
    }

    /// If `line` is already being fetched at `now`, merges onto the entry
    /// and returns the fill completion cycle. Returns `None` when the
    /// line is not in flight *or* the entry's target slots are exhausted
    /// (the access must then be retried; we model that as a fresh
    /// allocation after the entry retires).
    pub fn merge(&mut self, line: u64, now: u64) -> Option<u64> {
        self.expire(now);
        let e = self.inflight.iter_mut().find(|e| e.line == line)?;
        if e.targets < self.targets_per_entry {
            e.targets += 1;
            self.merges += 1;
            Some(e.done)
        } else {
            None
        }
    }

    /// Allocates an entry for a primary miss to `line` discovered at
    /// `now` whose fill would complete at `fill_done` if it started
    /// immediately. Returns the cycle at which the miss can actually
    /// *start* (== `now` unless the file is full, in which case the
    /// request waits for the earliest in-flight completion). An entry
    /// already tracking `line` is replaced.
    pub fn allocate(&mut self, line: u64, now: u64, fill_done: u64) -> u64 {
        self.expire(now);
        let mut wait = 0;
        if self.inflight.len() >= self.entries {
            let earliest = self
                .inflight
                .iter()
                .map(|e| e.done)
                .min()
                .expect("file is non-empty when full");
            self.stalls += 1;
            // The stalled request begins once a slot frees.
            wait = earliest.saturating_sub(now);
            self.expire(earliest);
        }
        let entry = Entry {
            line,
            done: fill_done + wait,
            targets: 1,
        };
        match self.inflight.iter_mut().find(|e| e.line == line) {
            Some(e) => *e = entry,
            None => self.inflight.push(entry),
        }
        now + wait
    }

    /// Number of in-flight fills (after expiring completed ones).
    pub fn occupancy(&mut self, now: u64) -> usize {
        self.expire(now);
        self.inflight.len()
    }

    /// Number of times a request stalled on a full file.
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// Number of merged secondary misses.
    pub fn merges(&self) -> u64 {
        self.merges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primary_miss_starts_immediately_when_free() {
        let mut m = MshrFile::new(2, 2);
        assert_eq!(m.allocate(0x0, 5, 50), 5);
        assert_eq!(m.occupancy(5), 1);
    }

    #[test]
    fn secondary_miss_merges_until_target_limit() {
        let mut m = MshrFile::new(1, 2);
        m.allocate(0x40, 0, 100);
        assert_eq!(m.merge(0x40, 10), Some(100)); // target 2
        assert_eq!(m.merge(0x40, 20), None); // limit hit
        assert_eq!(m.merges(), 1);
    }

    #[test]
    fn full_file_delays_new_miss_until_earliest_completion() {
        let mut m = MshrFile::new(2, 4);
        m.allocate(0x0, 0, 60);
        m.allocate(0x40, 0, 90);
        let start = m.allocate(0x80, 10, 110);
        assert_eq!(start, 60); // waited for the 0x0 fill
        assert_eq!(m.stalls(), 1);
    }

    /// The `HashMap`-backed register file, kept as the reference model.
    struct Model {
        entries: usize,
        targets_per_entry: usize,
        inflight: std::collections::HashMap<u64, (u64, usize)>,
        stalls: u64,
        merges: u64,
    }

    impl Model {
        fn expire(&mut self, now: u64) {
            self.inflight.retain(|_, (done, _)| *done > now);
        }

        fn merge(&mut self, line: u64, now: u64) -> Option<u64> {
            self.expire(now);
            match self.inflight.get_mut(&line) {
                Some((done, targets)) if *targets < self.targets_per_entry => {
                    *targets += 1;
                    self.merges += 1;
                    Some(*done)
                }
                _ => None,
            }
        }

        fn allocate(&mut self, line: u64, now: u64, fill_done: u64) -> u64 {
            self.expire(now);
            if self.inflight.len() >= self.entries {
                let earliest = self.inflight.values().map(|&(d, _)| d).min().unwrap();
                self.stalls += 1;
                let wait = earliest.saturating_sub(now);
                self.expire(earliest);
                self.inflight.insert(line, (fill_done + wait, 1));
                return now + wait;
            }
            self.inflight.insert(line, (fill_done, 1));
            now
        }
    }

    #[test]
    fn matches_hashmap_model_on_random_operations() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for (seed, entries, targets) in [(1u64, 4, 20), (2, 20, 12), (3, 2, 2), (4, 1, 1)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut m = MshrFile::new(entries, targets);
            let mut model = Model {
                entries,
                targets_per_entry: targets,
                inflight: Default::default(),
                stalls: 0,
                merges: 0,
            };
            let mut now = 0u64;
            for step in 0..20_000 {
                // Time mostly advances but may step back, as requests
                // from different pipeline stages arrive out of order.
                now = (now + rng.gen_range(0..8)).saturating_sub(rng.gen_range(0..4));
                let line = rng.gen_range(0..(entries as u64 * 2)) * 64;
                let ctx = format!("seed {seed}, step {step}");
                match rng.gen_range(0..3) {
                    0 => assert_eq!(m.merge(line, now), model.merge(line, now), "{ctx}"),
                    1 => {
                        let done = now + rng.gen_range(1..200);
                        assert_eq!(
                            m.allocate(line, now, done),
                            model.allocate(line, now, done),
                            "{ctx}"
                        );
                    }
                    _ => {
                        model.expire(now);
                        assert_eq!(m.occupancy(now), model.inflight.len(), "{ctx}");
                    }
                }
                assert_eq!(
                    (m.stalls(), m.merges()),
                    (model.stalls, model.merges),
                    "{ctx}"
                );
            }
        }
    }

    #[test]
    fn entries_expire() {
        let mut m = MshrFile::new(1, 4);
        m.allocate(0x0, 0, 30);
        assert_eq!(m.occupancy(29), 1);
        assert_eq!(m.occupancy(30), 0);
        assert_eq!(m.merge(0x0, 31), None); // completed, no merge target
    }
}
