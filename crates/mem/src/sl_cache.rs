//! The Speculative-Load cache (SL cache) of the paper's secure runahead
//! scheme (§6).
//!
//! Data fetched from memory *during* runahead mode is parked here — an "L0"
//! staging buffer invisible to the normal hierarchy — instead of polluting
//! L1/L2/L3. Each entry carries the taint tags assigned by the tracker:
//!
//! * `Btag = B(n, m)` — the load executed in the scope of branch `n` as its
//!   `m`-th unsafe speculative load (`m = 0` marks an untainted load inside
//!   the scope; entries outside any branch scope carry no `Btag`).
//! * `IS` — a mask of branch scopes whose taint reaches the load's
//!   *address* (Fig. 12 shows loads tainted by several branches at once,
//!   e.g. `IS = B1, B2`); zero means safe.
//!
//! After runahead exits, Algorithm 1 (implemented by the CPU's secure-mode
//! load path) drains the cache: safe entries promote to L1, `Btag`-scoped
//! entries wait for their branch verdict, and on a misprediction the `IS`
//! masks select the entries to delete. The entry counter `C` lets the
//! processor stop consulting the SL cache once it is empty.
//!
//! Storage is the shared fixed-size [`OpenTable`] (the hardware analogue:
//! a fully-associative CAM of `capacity` lines), consulted on every
//! post-exit load while `C != 0` — so lookups must not chase `HashMap`
//! buckets.

use crate::table::OpenTable;

/// Identifier of a (dynamic) branch scope, the `n` in `B(n, m)`.
pub type BranchId = u32;

/// `Btag` of an SL-cache entry: which branch scope the load executed under
/// and its USL ordinal within that scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Btag {
    /// Enclosing branch (`B_n`).
    pub branch: BranchId,
    /// USL ordinal within the scope; `0` means untainted-but-in-scope.
    pub ordinal: u32,
}

/// Tags attached to one SL-cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SlTags {
    /// `Btag`, `None` for loads outside any branch scope (paper: `Btag = 0`).
    pub btag: Option<Btag>,
    /// `IS` mask: bit `n` set when branch scope `n` taints the load's
    /// address (paper: `IS = 0` for safe loads).
    pub is_mask: u64,
}

impl SlTags {
    /// Tags of a load outside any branch scope with an untainted address.
    pub fn safe() -> SlTags {
        SlTags::default()
    }

    /// Whether Algorithm 1 may promote this entry without a branch verdict.
    pub fn is_safe(&self) -> bool {
        self.btag.is_none() && self.is_mask == 0
    }
}

/// The SL cache: line-granular staging buffer with taint tags and the
/// residency counter `C`.
///
/// ```
/// use specrun_mem::{SlCache, SlTags};
/// let mut sl = SlCache::new(64);
/// sl.insert(0x40, SlTags::safe());
/// assert_eq!(sl.counter(), 1);
/// assert!(sl.lookup(0x40).is_some());
/// sl.remove(0x40);
/// assert_eq!(sl.counter(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct SlCache {
    table: OpenTable<SlTags>,
    capacity: usize,
}

impl Default for SlCache {
    fn default() -> SlCache {
        SlCache::new(64)
    }
}

impl SlCache {
    /// Creates an SL cache holding at most `capacity` lines.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> SlCache {
        assert!(capacity > 0, "SL cache needs nonzero capacity");
        SlCache { table: OpenTable::with_capacity(capacity), capacity }
    }

    /// Inserts (or re-tags) a line. When full, the insert is dropped — a
    /// full SL cache simply loses prefetch benefit, never security.
    ///
    /// Returns whether the line is resident afterwards.
    pub fn insert(&mut self, line: u64, tags: SlTags) -> bool {
        if let Some(idx) = self.table.find(line) {
            *self.table.value_mut(idx) = tags;
            return true;
        }
        if self.table.len() >= self.capacity {
            return false;
        }
        let idx = self.table.insert(line);
        *self.table.value_mut(idx) = tags;
        true
    }

    /// Tags of a resident line.
    pub fn lookup(&self, line: u64) -> Option<&SlTags> {
        self.table.find(line).map(|idx| self.table.value(idx))
    }

    /// Removes one line (Algorithm 1's per-entry promote-or-drop); returns
    /// its tags if it was resident.
    pub fn remove(&mut self, line: u64) -> Option<SlTags> {
        let idx = self.table.find(line)?;
        Some(*self.table.remove_at(idx))
    }

    /// Deletes every entry whose `IS` mask intersects `mask` — the bulk
    /// removal Algorithm 1 performs when a branch turns out mispredicted
    /// ("use IS to delete entries related to B_n"). Returns `d`, the number
    /// deleted.
    pub fn remove_tainted_by(&mut self, mask: u64) -> usize {
        self.table.retain(|_, tags| tags.is_mask & mask == 0)
    }

    /// Deletes every entry whose `Btag` scope is `branch` (the entries
    /// guarded by the branch itself, USL or not).
    pub fn remove_in_scope(&mut self, branch: BranchId) -> usize {
        self.table.retain(|_, tags| tags.btag.map(|b| b.branch) != Some(branch))
    }

    /// The counter `C`: number of resident entries.
    pub fn counter(&self) -> usize {
        self.table.len()
    }

    /// Whether the SL cache is empty (processor switches back to the
    /// regular load path).
    pub fn is_empty(&self) -> bool {
        self.table.len() == 0
    }

    /// Iterates over resident `(line, tags)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &SlTags)> {
        self.table.iter()
    }

    /// Empties the cache.
    pub fn clear(&mut self) {
        self.table.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tainted(branch: BranchId, ordinal: u32) -> SlTags {
        SlTags { btag: Some(Btag { branch, ordinal }), is_mask: 1 << branch }
    }

    #[test]
    fn counter_tracks_inserts_and_removes() {
        let mut sl = SlCache::new(8);
        sl.insert(1, SlTags::safe());
        sl.insert(2, tainted(1, 1));
        assert_eq!(sl.counter(), 2);
        sl.remove(1);
        assert_eq!(sl.counter(), 1);
    }

    #[test]
    fn capacity_drops_new_inserts() {
        let mut sl = SlCache::new(2);
        assert!(sl.insert(1, SlTags::safe()));
        assert!(sl.insert(2, SlTags::safe()));
        assert!(!sl.insert(3, SlTags::safe()));
        assert_eq!(sl.counter(), 2);
        assert!(sl.lookup(3).is_none());
    }

    #[test]
    fn reinsert_updates_tags_in_place() {
        let mut sl = SlCache::new(1);
        sl.insert(9, SlTags::safe());
        assert!(sl.insert(9, tainted(2, 1)), "re-tag must succeed at capacity");
        assert_eq!(sl.lookup(9).unwrap().is_mask, 1 << 2);
    }

    #[test]
    fn bulk_removal_by_is_mask() {
        let mut sl = SlCache::new(8);
        sl.insert(1, tainted(1, 1));
        sl.insert(2, tainted(1, 2));
        sl.insert(3, tainted(2, 1));
        sl.insert(4, SlTags::safe());
        // A multi-branch IS entry (Fig. 12's `IS = B1, B2`).
        sl.insert(5, SlTags { btag: None, is_mask: (1 << 1) | (1 << 2) });
        let d = sl.remove_tainted_by(1 << 1);
        assert_eq!(d, 3, "both B1-only and B1|B2 entries die");
        assert_eq!(sl.counter(), 2);
        assert!(sl.lookup(3).is_some());
        assert!(sl.lookup(4).is_some());
    }

    #[test]
    fn scope_removal_by_btag() {
        let mut sl = SlCache::new(8);
        sl.insert(1, SlTags { btag: Some(Btag { branch: 3, ordinal: 0 }), is_mask: 0 });
        sl.insert(2, tainted(3, 1));
        sl.insert(3, SlTags::safe());
        assert_eq!(sl.remove_in_scope(3), 2);
        assert_eq!(sl.counter(), 1);
    }

    #[test]
    fn remove_reinsert_churn_at_capacity() {
        let mut sl = SlCache::new(2);
        for round in 0..100u64 {
            assert!(sl.insert(round, SlTags::safe()));
            assert!(sl.insert(round + 1000, SlTags::safe()));
            assert_eq!(sl.counter(), 2);
            assert!(sl.remove(round).is_some());
            assert!(sl.remove(round + 1000).is_some());
            assert!(sl.is_empty());
        }
    }

    #[test]
    fn safe_classification() {
        assert!(SlTags::safe().is_safe());
        assert!(!tainted(1, 1).is_safe());
        assert!(!SlTags { btag: Some(Btag { branch: 1, ordinal: 0 }), is_mask: 0 }.is_safe());
        assert!(!SlTags { btag: None, is_mask: 4 }.is_safe());
    }
}
