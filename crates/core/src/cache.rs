//! LRU approximate-answer cache.
//!
//! Dashboard-style workloads re-issue the same aggregate queries over and
//! over; an approximate answer together with its confidence interval stays
//! valid until the underlying data changes, so VerdictDB-rs can serve
//! repeats straight from memory (cf. the answer-reuse framing of
//! *Conditioning Probabilistic Databases*, Koch & Olteanu).
//!
//! Entries are keyed by the **canonical SQL form**
//! ([`verdict_sql::canonical_sql`]) so that texts differing only in
//! whitespace, keyword/identifier case, or literal spelling share one entry.
//! Each entry records the [`data version`](verdict_engine::Backend::data_version)
//! of every table the answer was computed from — base tables *and* the
//! sample tables the plan touched.  A lookup revalidates those versions:
//! any write, append, or sample rebuild bumps a version in the engine
//! catalog and the stale entry is dropped on its next access, so the cache
//! never serves an answer whose inputs have changed.
//!
//! Eviction is least-recently-used with a fixed entry capacity; a capacity
//! of 0 disables the cache entirely (the default for plain
//! [`crate::VerdictContext`]s — the server layer turns it on).

use crate::context::VerdictAnswer;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Monotonic counter snapshot of cache activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that found no valid entry.
    pub misses: u64,
    /// Answers stored.
    pub insertions: u64,
    /// Entries dropped because a referenced table's data version changed.
    pub invalidations: u64,
    /// Entries dropped to respect the capacity bound.
    pub evictions: u64,
}

#[derive(Debug, Clone)]
struct Entry {
    /// Shared so a hit can release the lock before the (potentially large)
    /// answer is deep-cloned for the caller.
    answer: Arc<VerdictAnswer>,
    /// `(lower-cased table name, data version at insert time)` for every
    /// table the answer depends on.
    versions: Vec<(String, u64)>,
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    entries: HashMap<String, Entry>,
    tick: u64,
}

/// A thread-safe LRU cache mapping canonical SQL to stored answers.
pub struct AnswerCache {
    capacity: usize,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    invalidations: AtomicU64,
    evictions: AtomicU64,
}

impl AnswerCache {
    /// Creates a cache holding at most `capacity` answers (0 disables it).
    pub fn new(capacity: usize) -> AnswerCache {
        AnswerCache {
            capacity,
            inner: Mutex::new(Inner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// True when the cache can hold entries.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of stored entries.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up `key`, revalidating the stored data versions through
    /// `current_version` (which should consult the live connection).  Returns
    /// a clone of the stored answer when every referenced table still has the
    /// version recorded at insert time; drops the entry and reports a miss
    /// otherwise.
    pub fn lookup(
        &self,
        key: &str,
        current_version: impl FnMut(&str) -> Option<u64>,
    ) -> Option<VerdictAnswer> {
        let hit = self.find(key, current_version);
        if hit.is_none() && self.enabled() {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// [`Self::lookup`] without counting a miss: a caller that declines on
    /// a miss and leaves the statement to a path that looks it up again
    /// uses this, so the statement counts one miss, not two.  A hit and a
    /// stale entry's invalidation are counted as by `lookup`.
    ///
    /// The lock is released while `current_version` runs and while the
    /// answer is deep-cloned, so cache-hot sessions do not serialize on the
    /// connection's version reads.  The validation verdict is only applied
    /// when the entry still carries the snapshotted versions; an entry
    /// replaced mid-lookup is reported as a miss — never a stale serve, and
    /// never a removal of an entry the verdict was not computed for.
    pub(crate) fn find(
        &self,
        key: &str,
        mut current_version: impl FnMut(&str) -> Option<u64>,
    ) -> Option<VerdictAnswer> {
        if !self.enabled() {
            return None;
        }
        // Phase 1: snapshot the entry's versions under the lock.
        let versions = self.inner.lock().entries.get(key)?.versions.clone();
        // Phase 2: validate against the live connection, lock released.
        let valid = versions
            .iter()
            .all(|(table, v)| current_version(table) == Some(*v));
        // Phase 3: act on the re-fetched entry.  The validation verdict only
        // applies to the exact versions snapshotted in phase 1 — if another
        // session replaced the entry in between (e.g. a slow in-flight
        // execution inserting an answer computed before a write), serving or
        // removing the *new* entry based on the *old* verdict would be
        // wrong, so a changed entry is treated as a plain miss.
        let answer = {
            let mut inner = self.inner.lock();
            match inner.entries.get(key) {
                Some(e) if e.versions == versions => {}
                _ => return None,
            }
            if !valid {
                inner.entries.remove(key);
                self.invalidations.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            let entry = inner.entries.get(key).expect("checked above");
            let answer = Arc::clone(&entry.answer);
            inner.tick += 1;
            let tick = inner.tick;
            inner.entries.get_mut(key).expect("present above").last_used = tick;
            self.hits.fetch_add(1, Ordering::Relaxed);
            answer
        };
        Some((*answer).clone())
    }

    /// Stores an answer under `key` with the data versions of every table it
    /// was computed from, evicting least-recently-used entries as needed.
    pub fn insert(&self, key: String, versions: Vec<(String, u64)>, answer: VerdictAnswer) {
        if !self.enabled() {
            return;
        }
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        inner.entries.insert(
            key,
            Entry {
                answer: Arc::new(answer),
                versions,
                last_used: tick,
            },
        );
        self.insertions.fetch_add(1, Ordering::Relaxed);
        while inner.entries.len() > self.capacity {
            // O(n) LRU scan: capacities are small (hundreds), and insert is
            // already off the hot hit path.
            if let Some(oldest) = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                inner.entries.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            } else {
                break;
            }
        }
    }

    /// Drops every stored entry (counters are preserved).
    pub fn clear(&self) {
        self.inner.lock().entries.clear();
    }

    /// A snapshot of the activity counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use verdict_engine::Table;

    fn answer(tag: u64) -> VerdictAnswer {
        VerdictAnswer {
            table: Table::default(),
            exact: false,
            cached: false,
            errors: Vec::new(),
            rewritten_sql: vec![format!("q{tag}")],
            elapsed: Duration::from_micros(tag),
            rows_scanned: tag,
            used_samples: Vec::new(),
        }
    }

    #[test]
    fn hit_returns_stored_answer_and_miss_counts() {
        let cache = AnswerCache::new(4);
        cache.insert("k".into(), vec![("t".into(), 3)], answer(7));
        let hit = cache.lookup("k", |_| Some(3)).unwrap();
        assert_eq!(hit.rows_scanned, 7);
        assert!(cache.lookup("other", |_| Some(3)).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn find_leaves_the_miss_to_the_lookup_that_follows() {
        let cache = AnswerCache::new(4);
        cache.insert("k".into(), vec![("t".into(), 3)], answer(1));
        assert!(cache.find("absent", |_| Some(3)).is_none());
        // A stale entry is dropped by the find; the lookup that follows
        // counts the statement's one miss.
        assert!(cache.find("k", |_| Some(4)).is_none());
        assert!(cache.lookup("k", |_| Some(4)).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.invalidations), (0, 1, 1));
        cache.insert("k".into(), vec![("t".into(), 4)], answer(2));
        assert_eq!(cache.find("k", |_| Some(4)).unwrap().rows_scanned, 2);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn version_change_invalidates() {
        let cache = AnswerCache::new(4);
        cache.insert("k".into(), vec![("t".into(), 3)], answer(1));
        assert!(cache.lookup("k", |_| Some(4)).is_none());
        assert_eq!(cache.stats().invalidations, 1);
        assert!(cache.is_empty(), "stale entry must be dropped");
    }

    #[test]
    fn unknown_version_invalidates() {
        let cache = AnswerCache::new(4);
        cache.insert("k".into(), vec![("t".into(), 3)], answer(1));
        assert!(cache.lookup("k", |_| None).is_none());
    }

    #[test]
    fn lru_eviction_keeps_recently_used() {
        let cache = AnswerCache::new(2);
        cache.insert("a".into(), vec![], answer(1));
        cache.insert("b".into(), vec![], answer(2));
        // touch "a" so "b" is the LRU entry
        assert!(cache.lookup("a", |_| Some(0)).is_some());
        cache.insert("c".into(), vec![], answer(3));
        assert!(cache.lookup("a", |_| Some(0)).is_some());
        assert!(cache.lookup("b", |_| Some(0)).is_none());
        assert!(cache.lookup("c", |_| Some(0)).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn entry_replaced_mid_lookup_is_a_miss_not_a_stale_serve() {
        // The `current_version` callback runs with the cache lock released,
        // so it can model a concurrent session replacing the entry between
        // validation and serving: the verdict computed for the old entry
        // must not be applied to the new one.
        let cache = AnswerCache::new(4);
        cache.insert("k".into(), vec![("t".into(), 5)], answer(1));
        let result = cache.lookup("k", |_| {
            // A slow in-flight execution publishes an answer computed before
            // the write that took t to version 5.
            cache.insert("k".into(), vec![("t".into(), 4)], answer(99));
            Some(5)
        });
        assert!(
            result.is_none(),
            "replaced entry must be a miss, not served under the old verdict"
        );
        // The (possibly stale) new entry was not removed either; its own
        // validation decides its fate on the next lookup.
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup("k", |_| Some(5)).is_none());
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn zero_capacity_disables() {
        let cache = AnswerCache::new(0);
        cache.insert("k".into(), vec![], answer(1));
        assert!(cache.lookup("k", |_| Some(0)).is_none());
        assert!(!cache.enabled());
        assert_eq!(cache.stats().insertions, 0);
    }
}
