//! LRU approximate-answer cache.
//!
//! Dashboard-style workloads re-issue the same aggregate queries over and
//! over; an approximate answer together with its confidence interval stays
//! valid until the underlying data changes, so VerdictDB-rs can serve
//! repeats straight from memory (cf. the answer-reuse framing of
//! *Conditioning Probabilistic Databases*, Koch & Olteanu).
//!
//! An entry is keyed by a [`CacheKey`]: the backend's identity, the
//! **canonical SQL form** ([`verdict_sql::canonical_sql`]) — so texts
//! differing only in whitespace, keyword/identifier case, or literal
//! spelling share one entry — and the [`AnswerSettings`] the answer was
//! computed under.  Each entry records the version of every [`Input`] the
//! answer was computed from: the [data version](verdict_engine::Backend::data_version)
//! of every table it read — base tables *and* the sample tables the plan
//! touched — and the [registry version](crate::meta::MetaStore::version)
//! of every base table's scrambles.  A lookup revalidates those versions:
//! any write, append, or sample rebuild bumps a data version, any
//! `CREATE`, `DROP` or `REFRESH SCRAMBLE` a registry version, and the
//! stale entry is dropped on its next access, so the cache never serves an
//! answer whose inputs have changed, nor one computed before the planner
//! had the scrambles it has now.
//!
//! A repeat is recognised by its raw text too: every source text (a
//! *spelling*) that was answered from, or inserted into, an entry is
//! recorded against it, so [`AnswerCache::find_spelling`] finds that text
//! again without parsing or canonical printing.  A spelling is keyed
//! exactly as an entry is (the raw text in place of the canonical one),
//! and the entry it resolves to is revalidated like any other.  An entry
//! keeps at most [`SPELLINGS_PER_ENTRY`] spellings (the oldest goes
//! first), and its spellings leave with it, so the spelling index never
//! holds more than `capacity × SPELLINGS_PER_ENTRY` texts.
//!
//! Each entry also keeps one encoded rendering of its answer for a serving
//! layer ([`CacheHit::encoded`]), written by the first hit that asks for
//! it, so a repeat is copied rather than encoded again.
//!
//! Eviction is least-recently-used with a fixed entry capacity; a capacity
//! of 0 disables the cache entirely (the default for plain
//! [`crate::VerdictContext`]s — the server layer turns it on).

use crate::config::AnswerSettings;
use crate::context::VerdictAnswer;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Most spellings recorded against one entry; a further spelling replaces
/// the entry's oldest.
pub const SPELLINGS_PER_ENTRY: usize = 16;

/// What an entry, or a spelling of one, is keyed by.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// The backend the answer was computed against
    /// ([`Backend::identity`](verdict_engine::Backend::identity)).
    pub identity: Arc<str>,
    /// The statement text: canonical for an entry, as received for a
    /// spelling.
    pub text: Box<str>,
    /// The settings the answer was computed under.
    pub settings: AnswerSettings,
}

/// One versioned input of a cached answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Input {
    /// A base or sample table's rows (lower-cased name), versioned by
    /// [`Backend::data_version`](verdict_engine::Backend::data_version).
    Rows(String),
    /// The scrambles registered for a base table (lower-cased name),
    /// versioned by [`MetaStore::version`](crate::meta::MetaStore::version).
    Scrambles(String),
}

/// Monotonic counter snapshot of cache activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that found no valid entry.
    pub misses: u64,
    /// Answers stored.
    pub insertions: u64,
    /// Entries dropped because the version of an input changed.
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
    /// Every input the answer depends on, with its version at insert time.
    versions: Arc<[(Input, u64)]>,
    /// Spelling keys recorded against the entry, oldest first.
    spellings: Vec<Arc<CacheKey>>,
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    entries: HashMap<Arc<CacheKey>, Entry>,
    /// Spelling key → key of the entry it was recorded against.
    spellings: HashMap<Arc<CacheKey>, Arc<CacheKey>>,
    tick: u64,
}

impl Inner {
    /// Removes an entry and the spellings recorded against it.
    fn remove(&mut self, key: &CacheKey) {
        if let Some(entry) = self.entries.remove(key) {
            for spelling in &entry.spellings {
                self.spellings.remove(spelling);
            }
        }
    }

    /// Records `spelling` against the entry stored under `key`, if there
    /// is one, evicting the entry's oldest spelling past the bound.
    fn record(&mut self, key: &CacheKey, spelling: CacheKey) {
        if self.spellings.contains_key(&spelling) {
            return;
        }
        let Some((key, _)) = self.entries.get_key_value(key) else {
            return;
        };
        let key = Arc::clone(key);
        let spelling = Arc::new(spelling);
        let entry = self.entries.get_mut(&key).expect("found above");
        entry.spellings.push(spelling.clone());
        if entry.spellings.len() > SPELLINGS_PER_ENTRY {
            let oldest = entry.spellings.remove(0);
            self.spellings.remove(&oldest);
        }
        self.spellings.insert(spelling, key);
    }
}

/// A thread-safe LRU cache mapping [`CacheKey`]s to stored answers.
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

    /// Looks up `key`, revalidating the stored versions through
    /// `current_version` (which should consult the live connection and
    /// registry).  Returns the stored answer when every input still has the
    /// version recorded at insert time; drops the entry and reports a miss
    /// otherwise.
    pub fn lookup(
        &self,
        key: &CacheKey,
        current_version: impl FnMut(&Input) -> Option<u64>,
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
        key: &CacheKey,
        current_version: impl FnMut(&Input) -> Option<u64>,
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
        spelling: &CacheKey,
        current_version: impl FnMut(&Input) -> Option<u64>,
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
        key: &CacheKey,
        versions: &[(Input, u64)],
        mut current_version: impl FnMut(&Input) -> Option<u64>,
    ) -> Option<CacheHit> {
        let valid = versions
            .iter()
            .all(|(input, v)| current_version(input) == Some(*v));
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
    pub fn record_spelling(&self, key: &CacheKey, spelling: CacheKey) {
        if self.enabled() {
            self.inner.lock().record(key, spelling);
        }
    }

    /// Stores an answer under `key` with the versions of every input it
    /// was computed from, evicting least-recently-used entries as needed.
    /// The answer is stored as a hit returns it (`cached` set).  Spellings
    /// recorded against a replaced entry stay recorded (they still spell
    /// `key`), and `spelling`, when given, is recorded too.
    pub fn insert(
        &self,
        key: CacheKey,
        versions: Vec<(Input, u64)>,
        mut answer: VerdictAnswer,
        spelling: Option<CacheKey>,
    ) {
        if !self.enabled() {
            return;
        }
        answer.cached = true;
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let key = Arc::new(key);
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

    fn key(text: &str) -> CacheKey {
        CacheKey {
            identity: "engine".into(),
            text: text.into(),
            settings: crate::VerdictConfig::default().answer_settings(),
        }
    }

    fn rows(table: &str, version: u64) -> (Input, u64) {
        (Input::Rows(table.into()), version)
    }

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
        cache.insert(key("k"), vec![rows("t", 3)], answer(7), None);
        let hit = cache.lookup(&key("k"), |_| Some(3)).unwrap();
        assert_eq!(hit.answer().rows_scanned, 7);
        assert!(cache.lookup(&key("other"), |_| Some(3)).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn find_leaves_the_miss_to_the_lookup_that_follows() {
        let cache = AnswerCache::new(4);
        cache.insert(key("k"), vec![rows("t", 3)], answer(1), None);
        assert!(cache.find(&key("absent"), |_| Some(3)).is_none());
        // A stale entry is dropped by the find; the lookup that follows
        // counts the statement's one miss.
        assert!(cache.find(&key("k"), |_| Some(4)).is_none());
        assert!(cache.lookup(&key("k"), |_| Some(4)).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.invalidations), (0, 1, 1));
        cache.insert(key("k"), vec![rows("t", 4)], answer(2), None);
        assert_eq!(
            cache
                .find(&key("k"), |_| Some(4))
                .unwrap()
                .answer()
                .rows_scanned,
            2
        );
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn version_change_invalidates() {
        let cache = AnswerCache::new(4);
        cache.insert(key("k"), vec![rows("t", 3)], answer(1), None);
        assert!(cache.lookup(&key("k"), |_| Some(4)).is_none());
        assert_eq!(cache.stats().invalidations, 1);
        assert!(cache.is_empty(), "stale entry must be dropped");
    }

    #[test]
    fn unknown_version_invalidates() {
        let cache = AnswerCache::new(4);
        cache.insert(key("k"), vec![rows("t", 3)], answer(1), None);
        assert!(cache.lookup(&key("k"), |_| None).is_none());
    }

    #[test]
    fn lru_eviction_keeps_recently_used() {
        let cache = AnswerCache::new(2);
        cache.insert(key("a"), vec![], answer(1), None);
        cache.insert(key("b"), vec![], answer(2), None);
        // touch "a" so "b" is the LRU entry
        assert!(cache.lookup(&key("a"), |_| Some(0)).is_some());
        cache.insert(key("c"), vec![], answer(3), None);
        assert!(cache.lookup(&key("a"), |_| Some(0)).is_some());
        assert!(cache.lookup(&key("b"), |_| Some(0)).is_none());
        assert!(cache.lookup(&key("c"), |_| Some(0)).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn entry_replaced_mid_lookup_is_a_miss_not_a_stale_serve() {
        // The `current_version` callback runs with the cache lock released,
        // so it can model a concurrent session replacing the entry between
        // validation and serving: the verdict computed for the old entry
        // must not be applied to the new one.
        let cache = AnswerCache::new(4);
        cache.insert(key("k"), vec![rows("t", 5)], answer(1), None);
        let result = cache.lookup(&key("k"), |_| {
            // A slow in-flight execution publishes an answer computed before
            // the write that took t to version 5.
            cache.insert(key("k"), vec![rows("t", 4)], answer(99), None);
            Some(5)
        });
        assert!(
            result.is_none(),
            "replaced entry must be a miss, not served under the old verdict"
        );
        // The (possibly stale) new entry was not removed either; its own
        // validation decides its fate on the next lookup.
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup(&key("k"), |_| Some(5)).is_none());
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn zero_capacity_disables() {
        let cache = AnswerCache::new(0);
        cache.insert(key("k"), vec![], answer(1), None);
        assert!(cache.lookup(&key("k"), |_| Some(0)).is_none());
        assert!(!cache.enabled());
        assert_eq!(cache.stats().insertions, 0);
    }

    #[test]
    fn a_spelling_finds_its_entry_and_leaves_with_it() {
        let cache = AnswerCache::new(2);
        cache.insert(key("k"), vec![rows("t", 1)], answer(1), Some(key("a")));
        cache.record_spelling(&key("k"), key("b"));
        // A spelling recorded against no entry is dropped.
        cache.record_spelling(&key("absent"), key("c"));
        assert_eq!(cache.spellings(), 2);
        let hit = cache.find_spelling(&key("b"), |_| Some(1)).unwrap();
        assert!(hit.answer().cached && hit.answer().rows_scanned == 1);
        assert!(cache.find_spelling(&key("c"), |_| Some(1)).is_none());
        // An unknown spelling counts nothing; a hit counts a hit.
        assert_eq!((cache.stats().hits, cache.stats().misses), (1, 0));
        // Replacing the entry keeps its spellings: they still spell `k`.
        cache.insert(key("k"), vec![rows("t", 2)], answer(2), None);
        let hit = cache.find_spelling(&key("a"), |_| Some(2)).unwrap();
        assert_eq!(hit.answer().rows_scanned, 2);
        // A stale entry is dropped with every spelling recorded against it.
        assert!(cache.find_spelling(&key("a"), |_| Some(3)).is_none());
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
        cache.insert(key("k"), vec![], answer(1), None);
        for i in 0..10 * bound {
            cache.record_spelling(&key("k"), key(&format!("k{i}")));
        }
        assert_eq!(cache.spellings(), SPELLINGS_PER_ENTRY);
        assert!(cache.find_spelling(&key("k0"), |_| Some(0)).is_none());
        let newest = key(&format!("k{}", 10 * bound - 1));
        assert!(cache.find_spelling(&newest, |_| Some(0)).is_some());
        // Ten times the capacity of distinct entries, each with its full
        // share of spellings: evicted entries take theirs along.
        for e in 0..10 * capacity {
            let entry = format!("e{e}");
            cache.insert(
                key(&entry),
                vec![],
                answer(e as u64),
                Some(key(&format!("{entry}/0"))),
            );
            for s in 1..2 * SPELLINGS_PER_ENTRY {
                cache.record_spelling(&key(&entry), key(&format!("{entry}/{s}")));
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
        cache.insert(key("k"), vec![], answer(5), None);
        let mut encodings = 0;
        for _ in 0..3 {
            let hit = cache.lookup(&key("k"), |_| Some(0)).unwrap();
            let body = hit.encoded(|a| {
                encodings += 1;
                format!("rows_scanned {}", a.rows_scanned)
            });
            assert_eq!(body, "rows_scanned 5");
        }
        assert_eq!(encodings, 1);
        // A new answer under the same key is encoded afresh.
        cache.insert(key("k"), vec![], answer(6), None);
        let hit = cache.lookup(&key("k"), |_| Some(0)).unwrap();
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
