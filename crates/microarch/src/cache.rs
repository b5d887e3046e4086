//! Minimal L1 data-cache model over the fuzzer's pre-allocated data page.
//!
//! The Aegis fuzzer points every memory operand of the gadget under test at
//! a single pre-allocated writable page (Section VI-D), so the cache
//! behaviour relevant to reset/trigger gadget semantics is the state of the
//! cache lines of that one page: `CLFLUSH` evicts a line (reset to `S0`),
//! a subsequent load misses and refills from the system (trigger to `S1`).
//! This model tracks exactly those lines, plus a probabilistic background
//! hit model for accesses outside the page.
//!
//! The 64 lines of the page are packed into three `u64` bitmasks (one per
//! residency bit) instead of an array of per-line structs: a whole cache is
//! three words, so cloning a core, resetting a batch lane, or snapshotting
//! a session costs three register moves, and `resident_lines` is a single
//! popcount. The struct-of-arrays batch engine stores one such triple per
//! lane.

use serde::{Deserialize, Serialize};

/// Cache lines per 4 KiB data page with 64-byte lines.
pub const PAGE_LINES: usize = 64;

/// Result of a single cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CacheOutcome {
    /// Serviced from L1D.
    L1Hit,
    /// Missed L1D, serviced from L2.
    L2Hit,
    /// Missed the whole hierarchy; refilled from system memory.
    SystemRefill,
}

impl CacheOutcome {
    /// Latency penalty in cycles added on top of the instruction's nominal
    /// latency.
    pub fn penalty_cycles(self) -> u32 {
        match self {
            CacheOutcome::L1Hit => 0,
            CacheOutcome::L2Hit => 10,
            CacheOutcome::SystemRefill => 120,
        }
    }
}

/// L1D/L2 cache state restricted to the scratch data page: bit `i` of each
/// mask is the state of page line `i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DataPageCache {
    /// Present in L1D.
    l1: u64,
    /// Present in L2 (inclusive of L1 in this model).
    l2: u64,
    /// Written since last refill.
    dirty: u64,
}

impl DataPageCache {
    /// Feeds the residency and dirty masks into `h` (see
    /// [`crate::Core::hash_state`]).
    pub fn hash_state(&self, h: &mut aegis_par::StateHasher) {
        let DataPageCache { l1, l2, dirty } = self;
        for mask in [l1, l2, dirty] {
            h.u64(*mask);
        }
    }

    /// A cold cache: no scratch-page line resident anywhere.
    pub fn cold() -> Self {
        DataPageCache {
            l1: 0,
            l2: 0,
            dirty: 0,
        }
    }

    /// Reads the given line; returns where the access was serviced and
    /// updates residency.
    ///
    /// # Panics
    ///
    /// Panics if `line >= PAGE_LINES`.
    pub fn read(&mut self, line: usize) -> CacheOutcome {
        assert!(line < PAGE_LINES, "line {line} out of range");
        let mask = 1u64 << line;
        let outcome = if self.l1 & mask != 0 {
            CacheOutcome::L1Hit
        } else if self.l2 & mask != 0 {
            CacheOutcome::L2Hit
        } else {
            CacheOutcome::SystemRefill
        };
        self.l1 |= mask;
        self.l2 |= mask;
        outcome
    }

    /// Writes the given line; same residency rules as [`read`], marking the
    /// line dirty.
    ///
    /// # Panics
    ///
    /// Panics if `line >= PAGE_LINES`.
    ///
    /// [`read`]: DataPageCache::read
    pub fn write(&mut self, line: usize) -> CacheOutcome {
        let outcome = self.read(line);
        self.dirty |= 1u64 << line;
        outcome
    }

    /// Flushes the line from the whole hierarchy (CLFLUSH semantics),
    /// returning whether a dirty writeback occurred.
    ///
    /// # Panics
    ///
    /// Panics if `line >= PAGE_LINES`.
    pub fn flush(&mut self, line: usize) -> bool {
        assert!(line < PAGE_LINES, "line {line} out of range");
        let mask = 1u64 << line;
        let was_dirty = self.dirty & mask != 0;
        self.l1 &= !mask;
        self.l2 &= !mask;
        self.dirty &= !mask;
        was_dirty
    }

    /// Number of scratch-page lines resident in L1D.
    pub fn resident_lines(&self) -> usize {
        self.l1.count_ones() as usize
    }

    /// The state of the low four page lines packed into 12 bits — the
    /// only cache context an instruction step can read or write (the
    /// scratch operand line 0 and the rep-string lines 1–3), which makes
    /// it the cache component of a memoized-window key.
    pub(crate) fn low_lines_key(&self) -> u16 {
        const LOW: u64 = 0xF;
        ((self.l1 & LOW) | (self.l2 & LOW) << 4 | (self.dirty & LOW) << 8) as u16
    }

    /// Overwrites the low four page lines from `other`, leaving lines 4+
    /// untouched — the replay side of a memoized window's cache
    /// transition (window execution never touches higher lines).
    pub(crate) fn adopt_low_lines(&mut self, other: &DataPageCache) {
        const LOW: u64 = 0xF;
        self.l1 = (self.l1 & !LOW) | (other.l1 & LOW);
        self.l2 = (self.l2 & !LOW) | (other.l2 & LOW);
        self.dirty = (self.dirty & !LOW) | (other.dirty & LOW);
    }
}

impl Default for DataPageCache {
    fn default() -> Self {
        Self::cold()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn cold_read_refills_from_system() {
        let mut c = DataPageCache::cold();
        assert_eq!(c.read(0), CacheOutcome::SystemRefill);
        assert_eq!(c.read(0), CacheOutcome::L1Hit);
    }

    #[test]
    fn flush_then_read_misses_again() {
        let mut c = DataPageCache::cold();
        c.read(5);
        c.flush(5);
        assert_eq!(c.read(5), CacheOutcome::SystemRefill);
    }

    #[test]
    fn flush_reports_dirty_writeback() {
        let mut c = DataPageCache::cold();
        c.write(3);
        assert!(c.flush(3));
        c.read(3);
        assert!(!c.flush(3));
    }

    #[test]
    fn resident_count_tracks_reads() {
        let mut c = DataPageCache::cold();
        for i in 0..10 {
            c.read(i);
        }
        assert_eq!(c.resident_lines(), 10);
        c.flush(0);
        assert_eq!(c.resident_lines(), 9);
    }

    #[test]
    fn penalties_increase_down_hierarchy() {
        assert!(
            CacheOutcome::L1Hit.penalty_cycles() < CacheOutcome::L2Hit.penalty_cycles()
                && CacheOutcome::L2Hit.penalty_cycles()
                    < CacheOutcome::SystemRefill.penalty_cycles()
        );
    }

    #[test]
    #[should_panic]
    fn out_of_range_line_panics() {
        DataPageCache::cold().read(PAGE_LINES);
    }

    /// The per-line struct-array model the bitmask version replaced. Kept
    /// as the executable specification the packed representation is
    /// equivalence-tested against.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    struct RefLine {
        l1: bool,
        l2: bool,
        dirty: bool,
    }

    #[derive(Debug, Clone)]
    struct RefCache {
        lines: [RefLine; PAGE_LINES],
    }

    impl RefCache {
        fn cold() -> Self {
            RefCache {
                lines: [RefLine::default(); PAGE_LINES],
            }
        }

        fn read(&mut self, line: usize) -> CacheOutcome {
            let state = &mut self.lines[line];
            let outcome = if state.l1 {
                CacheOutcome::L1Hit
            } else if state.l2 {
                CacheOutcome::L2Hit
            } else {
                CacheOutcome::SystemRefill
            };
            state.l1 = true;
            state.l2 = true;
            outcome
        }

        fn write(&mut self, line: usize) -> CacheOutcome {
            let outcome = self.read(line);
            self.lines[line].dirty = true;
            outcome
        }

        fn flush(&mut self, line: usize) -> bool {
            let was_dirty = self.lines[line].dirty;
            self.lines[line] = RefLine::default();
            was_dirty
        }

        fn resident_lines(&self) -> usize {
            self.lines.iter().filter(|l| l.l1).count()
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Read(usize),
        Write(usize),
        Flush(usize),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        (0usize..PAGE_LINES, 0u8..3).prop_map(|(line, kind)| match kind {
            0 => Op::Read(line),
            1 => Op::Write(line),
            _ => Op::Flush(line),
        })
    }

    proptest! {
        /// Any operation sequence drives the packed cache and the
        /// struct-array reference through identical outcomes and identical
        /// observable state.
        #[test]
        fn packed_matches_struct_array_reference(ops in proptest::collection::vec(op_strategy(), 0..256)) {
            let mut packed = DataPageCache::cold();
            let mut reference = RefCache::cold();
            for op in &ops {
                match *op {
                    Op::Read(l) => prop_assert_eq!(packed.read(l), reference.read(l)),
                    Op::Write(l) => prop_assert_eq!(packed.write(l), reference.write(l)),
                    Op::Flush(l) => prop_assert_eq!(packed.flush(l), reference.flush(l)),
                }
                prop_assert_eq!(packed.resident_lines(), reference.resident_lines());
                for line in 0..PAGE_LINES {
                    let r = reference.lines[line];
                    let mask = 1u64 << line;
                    prop_assert_eq!(packed.l1 & mask != 0, r.l1);
                    prop_assert_eq!(packed.l2 & mask != 0, r.l2);
                    prop_assert_eq!(packed.dirty & mask != 0, r.dirty);
                }
            }
        }
    }
}
