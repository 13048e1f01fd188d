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
//! A repeat is recognised by its raw text too: every source text (a
//! *spelling*) that was answered from, or inserted into, an entry is
//! recorded against it, so [`AnswerCache::find_spelling`] finds that text
//! again without parsing or canonical printing.  The caller keys a
//! spelling exactly as it keys an entry (backend identity and
//! configuration fingerprint included), and the entry it resolves to is
//! revalidated like any other.  An entry keeps at most
//! [`SPELLINGS_PER_ENTRY`] spellings (the oldest goes first), and its
//! spellings leave with it, so the spelling index never holds more than
//! `capacity × SPELLINGS_PER_ENTRY` texts.
//!
//! Each entry also keeps one encoded rendering of its answer for a serving
//! layer ([`CacheHit::encoded`]), written by the first hit that asks for
//! it, so a repeat is copied rather than encoded again.
//!
//! Eviction is least-recently-used with a fixed entry capacity; a capacity
//! of 0 disables the cache entirely (the default for plain
//! [`crate::VerdictContext`]s — the server layer turns it on).

use crate::context::VerdictAnswer;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Most spellings recorded against one entry; a further spelling replaces
/// the entry's oldest.
pub const SPELLINGS_PER_ENTRY: usize = 16;

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

/// A current answer found in the cache.  It shares the stored answer with
/// its entry: a lookup copies nothing, and [`Self::into_answer`] makes the
/// one copy a caller that owns its answer needs.
#[derive(Debug, Clone)]
pub struct CacheHit {
    /// Stored with `cached` set; `elapsed` is the computing run's.
    answer: Arc<VerdictAnswer>,
    encoded: Arc<OnceLock<Box<str>>>,
    elapsed: Duration,
}

impl CacheHit {
    /// The stored answer: `cached` is set, and `elapsed` is that of the run
    /// that computed it — this hit's own is [`Self::elapsed`].
    pub fn answer(&self) -> &VerdictAnswer {
        &self.answer
    }

    /// This hit's wall time, stamped when its trace closed.
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }

    pub(crate) fn set_elapsed(&mut self, elapsed: Duration) {
        self.elapsed = elapsed;
    }

    /// The answer as its caller owns it: a copy of the stored answer with
    /// this hit's `elapsed`.
    pub fn into_answer(self) -> VerdictAnswer {
        let mut answer = Arc::unwrap_or_clone(self.answer);
        answer.elapsed = self.elapsed;
        answer
    }

    /// The entry's encoded rendering of the answer: `encode` runs on the
    /// first call for the entry, and every later hit on it reads the same
    /// text.  One serving layer owns the encoding, so `encode` must be a
    /// function of the stored answer alone.
    pub fn encoded(&self, encode: impl FnOnce(&VerdictAnswer) -> String) -> &str {
        self.encoded
            .get_or_init(|| encode(&self.answer).into_boxed_str())
    }
}

#[derive(Debug)]
struct Entry {
    /// Shared with every hit, so a lookup releases the lock without
    /// copying the (potentially large) answer.
    answer: Arc<VerdictAnswer>,
    encoded: Arc<OnceLock<Box<str>>>,
    /// `(lower-cased table name, data version at insert time)` for every
    /// table the answer depends on.
    versions: Arc<[(String, u64)]>,
    /// Spelling keys recorded against the entry, oldest first.
    spellings: Vec<Box<str>>,
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    entries: HashMap<Arc<str>, Entry>,
    /// Spelling key → key of the entry it was recorded against.
    spellings: HashMap<Box<str>, Arc<str>>,
    tick: u64,
}

impl Inner {
    /// Removes an entry and the spellings recorded against it.
    fn remove(&mut self, key: &str) {
        if let Some(entry) = self.entries.remove(key) {
            for spelling in &entry.spellings {
                self.spellings.remove(spelling);
            }
        }
    }

    /// Records `spelling` against the entry stored under `key`, if there
    /// is one, evicting the entry's oldest spelling past the bound.
    fn record(&mut self, key: &str, spelling: String) {
        if self.spellings.contains_key(spelling.as_str()) {
            return;
        }
        let Some((key, _)) = self.entries.get_key_value(key) else {
            return;
        };
        let key = Arc::clone(key);
        let spelling = spelling.into_boxed_str();
        let entry = self.entries.get_mut(&key).expect("found above");
        entry.spellings.push(spelling.clone());
        if entry.spellings.len() > SPELLINGS_PER_ENTRY {
            let oldest = entry.spellings.remove(0);
            self.spellings.remove(&oldest);
        }
        self.spellings.insert(spelling, key);
    }
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

    /// Current number of recorded spellings: at most
    /// `capacity × SPELLINGS_PER_ENTRY`.
    pub fn spellings(&self) -> usize {
        self.inner.lock().spellings.len()
    }

    /// Looks up `key`, revalidating the stored data versions through
    /// `current_version` (which should consult the live connection).  Returns
    /// the stored answer when every referenced table still has the version
    /// recorded at insert time; drops the entry and reports a miss
    /// otherwise.
    pub fn lookup(
        &self,
        key: &str,
        current_version: impl FnMut(&str) -> Option<u64>,
    ) -> Option<CacheHit> {
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
    /// The lock is released while `current_version` runs, so cache-hot
    /// sessions do not serialize on the connection's version reads.  The
    /// validation verdict is only applied when the entry still carries the
    /// snapshotted versions; an entry replaced mid-lookup is reported as a
    /// miss — never a stale serve, and never a removal of an entry the
    /// verdict was not computed for.
    pub(crate) fn find(
        &self,
        key: &str,
        current_version: impl FnMut(&str) -> Option<u64>,
    ) -> Option<CacheHit> {
        if !self.enabled() {
            return None;
        }
        let (key, versions) = {
            let inner = self.inner.lock();
            let (key, entry) = inner.entries.get_key_value(key)?;
            (Arc::clone(key), Arc::clone(&entry.versions))
        };
        self.validate(&key, &versions, current_version)
    }

    /// [`Self::lookup`] by a recorded spelling key: the entry the spelling
    /// was recorded against, revalidated the same way, its hit and
    /// invalidation counted the same way.  A miss counts nothing: a
    /// spelling never recorded is a plain `None`, and the caller goes on
    /// to a lookup by the canonical key, which counts it.
    pub fn find_spelling(
        &self,
        spelling: &str,
        current_version: impl FnMut(&str) -> Option<u64>,
    ) -> Option<CacheHit> {
        if !self.enabled() {
            return None;
        }
        let (key, versions) = {
            let inner = self.inner.lock();
            let key = inner.spellings.get(spelling)?;
            let entry = inner
                .entries
                .get(key)
                .expect("a spelling leaves with its entry");
            (Arc::clone(key), Arc::clone(&entry.versions))
        };
        self.validate(&key, &versions, current_version)
    }

    /// Phases 2 and 3 of a lookup: validate the versions snapshotted under
    /// the lock against the live connection with the lock released, then
    /// act on the re-fetched entry.  The verdict only applies to the exact
    /// versions snapshotted — if another session replaced the entry in
    /// between (e.g. a slow in-flight execution inserting an answer
    /// computed before a write), serving or removing the *new* entry based
    /// on the *old* verdict would be wrong, so a changed entry is treated
    /// as a plain miss.
    fn validate(
        &self,
        key: &str,
        versions: &[(String, u64)],
        mut current_version: impl FnMut(&str) -> Option<u64>,
    ) -> Option<CacheHit> {
        let valid = versions
            .iter()
            .all(|(table, v)| current_version(table) == Some(*v));
        let mut inner = self.inner.lock();
        let tick = inner.tick + 1;
        let entry = inner.entries.get_mut(key)?;
        if *entry.versions != *versions {
            return None;
        }
        if !valid {
            inner.remove(key);
            self.invalidations.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        entry.last_used = tick;
        let hit = CacheHit {
            answer: Arc::clone(&entry.answer),
            encoded: Arc::clone(&entry.encoded),
            elapsed: Duration::ZERO,
        };
        inner.tick = tick;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(hit)
    }

    /// Records `spelling` against the entry stored under `key`: the next
    /// [`Self::find_spelling`] of it resolves to that entry.  Nothing
    /// happens when no entry is stored under `key`.
    pub fn record_spelling(&self, key: &str, spelling: String) {
        if self.enabled() {
            self.inner.lock().record(key, spelling);
        }
    }

    /// Stores an answer under `key` with the data versions of every table it
    /// was computed from, evicting least-recently-used entries as needed.
    /// The answer is stored as a hit returns it (`cached` set).  Spellings
    /// recorded against a replaced entry stay recorded (they still spell
    /// `key`), and `spelling`, when given, is recorded too.
    pub fn insert(
        &self,
        key: String,
        versions: Vec<(String, u64)>,
        mut answer: VerdictAnswer,
        spelling: Option<String>,
    ) {
        if !self.enabled() {
            return;
        }
        answer.cached = true;
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let key: Arc<str> = key.into();
        let spellings = inner
            .entries
            .remove(&key)
            .map_or_else(Vec::new, |old| old.spellings);
        inner.entries.insert(
            Arc::clone(&key),
            Entry {
                answer: Arc::new(answer),
                encoded: Arc::default(),
                versions: versions.into(),
                spellings,
                last_used: tick,
            },
        );
        if let Some(spelling) = spelling {
            inner.record(&key, spelling);
        }
        self.insertions.fetch_add(1, Ordering::Relaxed);
        while inner.entries.len() > self.capacity {
            // O(n) LRU scan: capacities are small (hundreds), and insert is
            // already off the hot hit path.
            let Some(oldest) = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| Arc::clone(k))
            else {
                break;
            };
            inner.remove(&oldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drops every stored entry and recorded spelling (counters are
    /// preserved).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.entries.clear();
        inner.spellings.clear();
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
        cache.insert("k".into(), vec![("t".into(), 3)], answer(7), None);
        let hit = cache.lookup("k", |_| Some(3)).unwrap();
        assert_eq!(hit.answer().rows_scanned, 7);
        assert!(cache.lookup("other", |_| Some(3)).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn find_leaves_the_miss_to_the_lookup_that_follows() {
        let cache = AnswerCache::new(4);
        cache.insert("k".into(), vec![("t".into(), 3)], answer(1), None);
        assert!(cache.find("absent", |_| Some(3)).is_none());
        // A stale entry is dropped by the find; the lookup that follows
        // counts the statement's one miss.
        assert!(cache.find("k", |_| Some(4)).is_none());
        assert!(cache.lookup("k", |_| Some(4)).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.invalidations), (0, 1, 1));
        cache.insert("k".into(), vec![("t".into(), 4)], answer(2), None);
        assert_eq!(
            cache.find("k", |_| Some(4)).unwrap().answer().rows_scanned,
            2
        );
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn version_change_invalidates() {
        let cache = AnswerCache::new(4);
        cache.insert("k".into(), vec![("t".into(), 3)], answer(1), None);
        assert!(cache.lookup("k", |_| Some(4)).is_none());
        assert_eq!(cache.stats().invalidations, 1);
        assert!(cache.is_empty(), "stale entry must be dropped");
    }

    #[test]
    fn unknown_version_invalidates() {
        let cache = AnswerCache::new(4);
        cache.insert("k".into(), vec![("t".into(), 3)], answer(1), None);
        assert!(cache.lookup("k", |_| None).is_none());
    }

    #[test]
    fn lru_eviction_keeps_recently_used() {
        let cache = AnswerCache::new(2);
        cache.insert("a".into(), vec![], answer(1), None);
        cache.insert("b".into(), vec![], answer(2), None);
        // touch "a" so "b" is the LRU entry
        assert!(cache.lookup("a", |_| Some(0)).is_some());
        cache.insert("c".into(), vec![], answer(3), None);
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
        cache.insert("k".into(), vec![("t".into(), 5)], answer(1), None);
        let result = cache.lookup("k", |_| {
            // A slow in-flight execution publishes an answer computed before
            // the write that took t to version 5.
            cache.insert("k".into(), vec![("t".into(), 4)], answer(99), None);
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
        cache.insert("k".into(), vec![], answer(1), None);
        assert!(cache.lookup("k", |_| Some(0)).is_none());
        assert!(!cache.enabled());
        assert_eq!(cache.stats().insertions, 0);
    }

    #[test]
    fn a_spelling_finds_its_entry_and_leaves_with_it() {
        let cache = AnswerCache::new(2);
        cache.insert(
            "k".into(),
            vec![("t".into(), 1)],
            answer(1),
            Some("a".into()),
        );
        cache.record_spelling("k", "b".into());
        // A spelling recorded against no entry is dropped.
        cache.record_spelling("absent", "c".into());
        assert_eq!(cache.spellings(), 2);
        let hit = cache.find_spelling("b", |_| Some(1)).unwrap();
        assert!(hit.answer().cached && hit.answer().rows_scanned == 1);
        assert!(cache.find_spelling("c", |_| Some(1)).is_none());
        // An unknown spelling counts nothing; a hit counts a hit.
        assert_eq!((cache.stats().hits, cache.stats().misses), (1, 0));
        // Replacing the entry keeps its spellings: they still spell `k`.
        cache.insert("k".into(), vec![("t".into(), 2)], answer(2), None);
        let hit = cache.find_spelling("a", |_| Some(2)).unwrap();
        assert_eq!(hit.answer().rows_scanned, 2);
        // A stale entry is dropped with every spelling recorded against it.
        assert!(cache.find_spelling("a", |_| Some(3)).is_none());
        assert_eq!((cache.len(), cache.spellings()), (0, 0));
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn the_spelling_index_stays_within_its_bound() {
        let capacity = 4;
        let cache = AnswerCache::new(capacity);
        let bound = capacity * SPELLINGS_PER_ENTRY;
        // Ten times the capacity of distinct spellings of one entry: the
        // newest are kept.
        cache.insert("k".into(), vec![], answer(1), None);
        for i in 0..10 * bound {
            cache.record_spelling("k", format!("k{i}"));
        }
        assert_eq!(cache.spellings(), SPELLINGS_PER_ENTRY);
        assert!(cache.find_spelling("k0", |_| Some(0)).is_none());
        let newest = format!("k{}", 10 * bound - 1);
        assert!(cache.find_spelling(&newest, |_| Some(0)).is_some());
        // Ten times the capacity of distinct entries, each with its full
        // share of spellings: evicted entries take theirs along.
        for e in 0..10 * capacity {
            let key = format!("e{e}");
            cache.insert(
                key.clone(),
                vec![],
                answer(e as u64),
                Some(format!("{key}/0")),
            );
            for s in 1..2 * SPELLINGS_PER_ENTRY {
                cache.record_spelling(&key, format!("{key}/{s}"));
            }
            assert!(
                cache.spellings() <= bound,
                "{} > {bound}",
                cache.spellings()
            );
        }
        assert_eq!((cache.len(), cache.spellings()), (capacity, bound));
        cache.clear();
        assert_eq!(cache.spellings(), 0);
    }

    #[test]
    fn an_entry_is_encoded_once_for_every_hit() {
        let cache = AnswerCache::new(2);
        cache.insert("k".into(), vec![], answer(5), None);
        let mut encodings = 0;
        for _ in 0..3 {
            let hit = cache.lookup("k", |_| Some(0)).unwrap();
            let body = hit.encoded(|a| {
                encodings += 1;
                format!("rows_scanned {}", a.rows_scanned)
            });
            assert_eq!(body, "rows_scanned 5");
        }
        assert_eq!(encodings, 1);
        // A new answer under the same key is encoded afresh.
        cache.insert("k".into(), vec![], answer(6), None);
        let hit = cache.lookup("k", |_| Some(0)).unwrap();
        assert_eq!(hit.encoded(|a| a.rows_scanned.to_string()), "6");
        // The owned copy carries this hit's wall time.
        let mut hit = hit;
        hit.set_elapsed(Duration::from_micros(3));
        let owned = hit.into_answer();
        assert_eq!(
            (owned.elapsed, owned.cached),
            (Duration::from_micros(3), true)
        );
    }
}
