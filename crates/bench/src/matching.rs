//! Portals-style list matching — the baseline RVMA's LUT is argued against.
//!
//! Paper Secs. II and IV-A: Portals networks steer incoming operations with
//! *match lists* — per-entry source addresses, 64-bit match bits and
//! **ignore (mask) bits** supporting wildcards, resolved by walking the
//! posted list in order and taking the first hit. That machinery implements
//! MPI matching semantics in hardware, but every lookup is a potentially
//! long ordered scan with masked compares.
//!
//! RVMA deliberately rejects it: a mailbox lookup "always has a
//! single-lookup response (item found or no item found)". This module
//! implements the Portals-style engine faithfully enough to quantify that
//! contrast (see `--bin ablation_lookup`, its only user): [`MatchList`] here
//! vs. [`Lut`](rvma_core::lut::Lut) there.

use rvma_core::NodeAddr;
use std::collections::VecDeque;

/// Wildcard source: match any initiator.
pub const ANY_SOURCE: Option<NodeAddr> = None;

/// One posted match entry (a Portals ME / MPI posted receive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchEntry {
    /// Required source, or `None` for any-source.
    pub source: Option<NodeAddr>,
    /// Match bits compared against the message tag.
    pub match_bits: u64,
    /// Ignore mask: bit positions set here are *not* compared
    /// (`1` = wildcard bit).
    pub ignore_bits: u64,
    /// Opaque handle to the buffer this entry steers into.
    pub buffer_id: u64,
}

impl MatchEntry {
    /// Does an incoming `(source, tag)` satisfy this entry?
    pub fn matches(&self, source: NodeAddr, tag: u64) -> bool {
        if let Some(required) = self.source {
            if required != source {
                return false;
            }
        }
        (tag ^ self.match_bits) & !self.ignore_bits == 0
    }
}

/// Statistics of a match-list's lookups, quantifying the scan cost the
/// paper's single-lookup design avoids.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MatchStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that walked the whole list without a hit.
    pub misses: u64,
    /// Total entries examined across all lookups.
    pub entries_scanned: u64,
}

impl MatchStats {
    /// Mean entries examined per lookup.
    pub fn mean_scan(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.entries_scanned as f64 / lookups as f64
        }
    }
}

/// An ordered match list with wildcard support (the Portals/MPI model):
/// first-posted, first-matched; a hit consumes the entry (use-once, like a
/// posted receive).
#[derive(Debug, Default)]
pub struct MatchList {
    entries: VecDeque<MatchEntry>,
    stats: MatchStats,
}

impl MatchList {
    /// An empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an entry (posted receives match in FIFO order).
    pub fn post(&mut self, entry: MatchEntry) {
        self.entries.push_back(entry);
    }

    /// Resolve `(source, tag)`: scan in posting order, remove and return
    /// the first matching entry. This is the ordered, multi-candidate
    /// resolution RVMA's single-lookup table does not need.
    pub fn resolve(&mut self, source: NodeAddr, tag: u64) -> Option<MatchEntry> {
        for (i, e) in self.entries.iter().enumerate() {
            if e.matches(source, tag) {
                self.stats.hits += 1;
                self.stats.entries_scanned += i as u64 + 1;
                return self.entries.remove(i);
            }
        }
        self.stats.misses += 1;
        self.stats.entries_scanned += self.entries.len() as u64;
        None
    }

    /// Entries currently posted.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are posted.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookup statistics so far.
    pub fn stats(&self) -> MatchStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(src: Option<NodeAddr>, bits: u64, ignore: u64, id: u64) -> MatchEntry {
        MatchEntry {
            source: src,
            match_bits: bits,
            ignore_bits: ignore,
            buffer_id: id,
        }
    }

    #[test]
    fn exact_match_and_consume() {
        let mut l = MatchList::new();
        l.post(entry(Some(NodeAddr::node(1)), 42, 0, 7));
        assert_eq!(
            l.resolve(NodeAddr::node(1), 42).map(|e| e.buffer_id),
            Some(7)
        );
        // Use-once: the entry is gone.
        assert_eq!(l.resolve(NodeAddr::node(1), 42), None);
        assert!(l.is_empty());
    }

    #[test]
    fn source_mismatch_rejects() {
        let mut l = MatchList::new();
        l.post(entry(Some(NodeAddr::node(1)), 42, 0, 7));
        assert_eq!(l.resolve(NodeAddr::node(2), 42), None);
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn any_source_wildcard() {
        let mut l = MatchList::new();
        l.post(entry(ANY_SOURCE, 42, 0, 7));
        assert!(l.resolve(NodeAddr::node(99), 42).is_some());
    }

    #[test]
    fn ignore_bits_wildcard_tags() {
        let mut l = MatchList::new();
        // Match any tag whose high 32 bits equal 0xAB: ignore the low 32.
        l.post(entry(ANY_SOURCE, 0xAB << 32, 0xFFFF_FFFF, 1));
        assert!(l.resolve(NodeAddr::node(0), (0xAB << 32) | 1234).is_some());
        l.post(entry(ANY_SOURCE, 0xAB << 32, 0xFFFF_FFFF, 2));
        assert!(l.resolve(NodeAddr::node(0), 0xCD << 32).is_none());
    }

    #[test]
    fn fifo_resolution_order() {
        // Two overlapping entries: the earlier-posted one wins — the
        // ordered semantics that force sequential hardware scans.
        let mut l = MatchList::new();
        l.post(entry(ANY_SOURCE, 0, u64::MAX, 1)); // matches everything
        l.post(entry(Some(NodeAddr::node(1)), 5, 0, 2)); // more specific
        let hit = l.resolve(NodeAddr::node(1), 5).unwrap();
        assert_eq!(hit.buffer_id, 1, "first-posted wins despite specificity");
    }

    #[test]
    fn scan_cost_grows_with_list_depth() {
        let mut l = MatchList::new();
        for i in 0..100 {
            l.post(entry(Some(NodeAddr::node(7)), i, 0, i));
        }
        // Resolve the last entry: 100 entries scanned.
        assert!(l.resolve(NodeAddr::node(7), 99).is_some());
        assert_eq!(l.stats().entries_scanned, 100);
        assert_eq!(l.stats().hits, 1);
        // A miss scans everything remaining.
        assert!(l.resolve(NodeAddr::node(7), 500).is_none());
        assert_eq!(l.stats().misses, 1);
        assert_eq!(l.stats().entries_scanned, 100 + 99);
        assert!(l.stats().mean_scan() > 99.0);
    }

    #[test]
    fn empty_stats() {
        let l = MatchList::new();
        assert_eq!(l.stats().mean_scan(), 0.0);
    }
}
