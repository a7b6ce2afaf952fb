/// Geometry and timing of one cache level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Line size in bytes (64 throughout the paper).
    pub line_bytes: u64,
    /// Access latency in core cycles on a hit.
    pub hit_latency: u64,
    /// Number of outstanding line misses (miss-status holding registers).
    pub mshr_entries: usize,
    /// Secondary misses that can merge onto one MSHR entry.
    pub mshr_targets: usize,
    /// Write-buffer entries for outgoing writebacks (0 = none).
    pub write_buffer_entries: usize,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (capacity not divisible by
    /// `assoc * line_bytes`), or if the line size or the set count is
    /// not a power of two: caches index by shift and mask, and keep a
    /// valid bit in bit 0 of each line address, so lines are at least
    /// 2 bytes.
    pub fn sets(&self) -> usize {
        let denom = self.assoc as u64 * self.line_bytes;
        assert!(
            denom > 0 && self.size_bytes.is_multiple_of(denom),
            "inconsistent cache geometry"
        );
        assert!(
            self.line_bytes.is_power_of_two() && self.line_bytes >= 2,
            "cache line size {} is not a power of two of at least 2 bytes",
            self.line_bytes
        );
        let sets = self.size_bytes / denom;
        assert!(
            sets.is_power_of_two(),
            "cache set count {sets} is not a power of two"
        );
        sets as usize
    }

    /// The paper's L1 instruction cache: 64 kB, 8-way, 2 cycles,
    /// 4 MSHRs × 20 targets, no prefetch.
    pub fn isca2018_l1i() -> CacheConfig {
        CacheConfig {
            size_bytes: 64 * 1024,
            assoc: 8,
            line_bytes: 64,
            hit_latency: 2,
            mshr_entries: 4,
            mshr_targets: 20,
            write_buffer_entries: 0,
        }
    }

    /// The paper's L1 data cache: 64 kB, 8-way, 2 cycles, 8-entry write
    /// buffer, 4 MSHRs × 20 targets, no prefetch.
    pub fn isca2018_l1d() -> CacheConfig {
        CacheConfig {
            size_bytes: 64 * 1024,
            assoc: 8,
            line_bytes: 64,
            hit_latency: 2,
            mshr_entries: 4,
            mshr_targets: 20,
            write_buffer_entries: 8,
        }
    }

    /// The paper's unified L2: 2 MB, 16-way, 20 cycles, 8-entry write
    /// buffer, 20 MSHRs × 12 targets, no prefetch.
    pub fn isca2018_l2() -> CacheConfig {
        CacheConfig {
            size_bytes: 2 * 1024 * 1024,
            assoc: 16,
            line_bytes: 64,
            hit_latency: 20,
            mshr_entries: 20,
            mshr_targets: 12,
            write_buffer_entries: 8,
        }
    }
}

/// Timing of the DRAM channel (Table II: DDR3-800, 13.75 ns CAS and row
/// precharge, 35 ns RAS).
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    /// Core clock in MHz (2000 in the paper) — DRAM nanosecond timings
    /// are converted to core cycles with this.
    pub core_mhz: u64,
    /// Column access strobe latency, ns.
    pub cas_ns: f64,
    /// Row precharge, ns.
    pub rp_ns: f64,
    /// Row access strobe (activate-to-precharge), ns; used as the
    /// activate component for a closed row.
    pub ras_ns: f64,
    /// Time to stream one 64-byte line over the DDR3-800 bus, ns
    /// (8 beats × 8 B at 800 MT/s = 10 ns).
    pub burst_ns: f64,
    /// Number of banks.
    pub banks: usize,
    /// Row size in bytes per bank (for open-row hit detection).
    pub row_bytes: u64,
}

impl DramConfig {
    /// The paper's DDR3-800 configuration at a 2 GHz core clock.
    pub fn isca2018() -> DramConfig {
        DramConfig {
            core_mhz: 2000,
            cas_ns: 13.75,
            rp_ns: 13.75,
            ras_ns: 35.0,
            burst_ns: 10.0,
            banks: 8,
            row_bytes: 8 * 1024,
        }
    }

    fn ns_to_cycles(&self, ns: f64) -> u64 {
        (ns * self.core_mhz as f64 / 1000.0).ceil() as u64
    }

    /// Core cycles for a row-buffer hit (CAS + burst).
    pub fn row_hit_cycles(&self) -> u64 {
        self.ns_to_cycles(self.cas_ns + self.burst_ns)
    }

    /// Core cycles when the bank's row buffer is empty (activate + CAS +
    /// burst). We charge the activate component as `ras_ns - rp_ns`
    /// (RAS covers activate-to-precharge).
    pub fn row_empty_cycles(&self) -> u64 {
        self.ns_to_cycles((self.ras_ns - self.rp_ns).max(0.0) + self.cas_ns + self.burst_ns)
    }

    /// Core cycles for a row conflict (precharge + activate + CAS +
    /// burst).
    pub fn row_conflict_cycles(&self) -> u64 {
        self.ns_to_cycles(self.ras_ns + self.cas_ns + self.burst_ns)
    }
}

/// Complete memory-side configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MemConfig {
    pub l1i: CacheConfig,
    pub l1d: CacheConfig,
    pub l2: CacheConfig,
    pub dram: DramConfig,
    /// §VIII future work: a small dedicated buffer for armed (token)
    /// lines evicted from the L1-D, so token refetches are served at
    /// near-L1 latency instead of from L2/DRAM. 0 = disabled (the
    /// paper's evaluated design).
    pub token_cache_entries: usize,
}

impl MemConfig {
    /// The full Table II memory-side configuration.
    pub fn isca2018() -> MemConfig {
        MemConfig {
            l1i: CacheConfig::isca2018_l1i(),
            l1d: CacheConfig::isca2018_l1d(),
            l2: CacheConfig::isca2018_l2(),
            dram: DramConfig::isca2018(),
            token_cache_entries: 0,
        }
    }

    /// A tiny configuration for unit tests that want to force evictions
    /// and misses with little traffic.
    pub fn tiny() -> MemConfig {
        MemConfig {
            l1i: CacheConfig {
                size_bytes: 1024,
                assoc: 2,
                line_bytes: 64,
                hit_latency: 1,
                mshr_entries: 2,
                mshr_targets: 4,
                write_buffer_entries: 0,
            },
            l1d: CacheConfig {
                size_bytes: 1024,
                assoc: 2,
                line_bytes: 64,
                hit_latency: 1,
                mshr_entries: 2,
                mshr_targets: 4,
                write_buffer_entries: 2,
            },
            l2: CacheConfig {
                size_bytes: 4096,
                assoc: 4,
                line_bytes: 64,
                hit_latency: 8,
                mshr_entries: 4,
                mshr_targets: 4,
                write_buffer_entries: 2,
            },
            dram: DramConfig::isca2018(),
            token_cache_entries: 0,
        }
    }
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig::isca2018()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isca_geometry_matches_table2() {
        let l1d = CacheConfig::isca2018_l1d();
        assert_eq!(l1d.sets(), 128); // 64kB / (8 * 64B)
        let l2 = CacheConfig::isca2018_l2();
        assert_eq!(l2.sets(), 2048); // 2MB / (16 * 64B)
        assert_eq!(l2.hit_latency, 20);
    }

    #[test]
    fn dram_latencies_are_ordered() {
        let d = DramConfig::isca2018();
        assert!(d.row_hit_cycles() < d.row_empty_cycles());
        assert!(d.row_empty_cycles() < d.row_conflict_cycles());
        // 13.75ns + 10ns at 2GHz = 47.5 cycles -> 48
        assert_eq!(d.row_hit_cycles(), 48);
        // (35-13.75) + 13.75 + 10 = 45ns -> 90
        assert_eq!(d.row_empty_cycles(), 90);
        // 35 + 13.75 + 10 = 58.75ns -> 118
        assert_eq!(d.row_conflict_cycles(), 118);
    }

    #[test]
    #[should_panic(expected = "inconsistent cache geometry")]
    fn bad_geometry_panics() {
        let c = CacheConfig {
            size_bytes: 1000,
            assoc: 3,
            line_bytes: 64,
            hit_latency: 1,
            mshr_entries: 1,
            mshr_targets: 1,
            write_buffer_entries: 0,
        };
        let _ = c.sets();
    }

    #[test]
    #[should_panic(expected = "cache set count 3 is not a power of two")]
    fn non_power_of_two_set_count_panics() {
        let c = CacheConfig {
            size_bytes: 3 * 2 * 64,
            assoc: 2,
            ..CacheConfig::isca2018_l1d()
        };
        let _ = c.sets();
    }

    #[test]
    #[should_panic(expected = "cache line size 48 is not a power of two")]
    fn non_power_of_two_line_size_panics() {
        let c = CacheConfig {
            size_bytes: 4 * 2 * 48,
            assoc: 2,
            line_bytes: 48,
            ..CacheConfig::isca2018_l1d()
        };
        let _ = c.sets();
    }
}
