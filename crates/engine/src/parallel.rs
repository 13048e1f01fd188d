//! Morsel-driven parallel execution.
//!
//! The engine partitions columnar work into fixed-size **morsels** of
//! [`MORSEL_ROWS`] rows and fans the morsels out over a small pool of
//! `std::thread` workers.  Two properties are load-bearing:
//!
//! * **Determinism** — partial states are merged **in morsel order**, never
//!   in thread-completion order, and the morsel boundaries depend only on the
//!   row count.  A kernel therefore produces bit-identical results whether it
//!   runs on one thread or sixteen; the thread count only changes wall-clock
//!   time.
//! * **Zero-cost fallback** — a pool with `parallelism() == 1` (or a single
//!   morsel of input) runs the closures inline on the calling thread with no
//!   spawning, no channels, and no allocation beyond the result vector, so
//!   the serial path stays as fast as before the parallel layer existed.
//!
//! The pool itself is a lightweight handle (an atomic thread-count), so it
//! can be shared through `Arc` from [`crate::engine::Engine`] down into the
//! executor and kernels, and resized at runtime via
//! [`crate::engine::Backend::set_parallelism`].

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Rows per morsel.  64K rows of an 8-byte column is 512 KiB — big enough to
/// amortise scheduling, small enough that a handful of morsels exist at the
/// benchmark scale of one million rows.
pub const MORSEL_ROWS: usize = 64 * 1024;

/// The most workers a pool runs.  Worker counts feed products such as
/// `workers × MORSEL_ROWS`, which a count near `usize::MAX` would wrap to a
/// zero chunk size; a thousand threads is already far past any core count.
pub const MAX_PARALLELISM: usize = 1024;

/// The worker count a pool starts from: `VERDICT_PARALLELISM` when set to a
/// positive integer (CI pins the suite's thread count with it), otherwise
/// `std::thread::available_parallelism()`, clamped to [`MAX_PARALLELISM`].
pub fn default_parallelism() -> usize {
    std::env::var("VERDICT_PARALLELISM")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&t| t > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .min(MAX_PARALLELISM)
}

/// A fork-join worker pool for morsel-parallel kernels.
///
/// `run`/`run_morsels` use `std::thread::scope`, so closures may borrow the
/// caller's columns without `'static` bounds; workers pull task indices from
/// a shared atomic counter (dynamic load balancing) while results are slotted
/// back by task index (deterministic merge order).
pub struct ThreadPool {
    threads: AtomicUsize,
}

impl ThreadPool {
    /// A pool that runs kernels across `threads` workers (clamped to
    /// `1..=MAX_PARALLELISM`).
    pub fn new(threads: usize) -> ThreadPool {
        ThreadPool {
            threads: AtomicUsize::new(threads.clamp(1, MAX_PARALLELISM)),
        }
    }

    /// A pool that always runs inline on the calling thread.
    pub fn serial() -> ThreadPool {
        ThreadPool::new(1)
    }

    /// A pool of [`default_parallelism`] workers.
    pub fn with_default_parallelism() -> ThreadPool {
        ThreadPool::new(default_parallelism())
    }

    /// The configured worker count.
    pub fn parallelism(&self) -> usize {
        self.threads.load(Ordering::Relaxed).max(1)
    }

    /// Reconfigures the worker count (clamped to `1..=MAX_PARALLELISM`);
    /// takes effect on the next `run` call.
    pub fn set_parallelism(&self, threads: usize) {
        self.threads
            .store(threads.clamp(1, MAX_PARALLELISM), Ordering::Relaxed);
    }

    /// The morsel decomposition of `rows` rows: contiguous ranges of
    /// [`MORSEL_ROWS`] rows (the last one shorter).  Depends only on `rows`,
    /// never on the thread count — this is what makes merge order, and hence
    /// results, independent of parallelism.
    pub fn morsels(rows: usize) -> Vec<Range<usize>> {
        (0..rows.div_ceil(MORSEL_ROWS))
            .map(|i| (i * MORSEL_ROWS)..((i + 1) * MORSEL_ROWS).min(rows))
            .collect()
    }

    /// Runs `tasks` independent closures and returns their results **in task
    /// order**.  Inline when the pool is serial or there is at most one task.
    pub fn run<T: Send>(&self, tasks: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        let workers = self.parallelism().min(tasks);
        if workers <= 1 {
            return (0..tasks).map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<T>> = Vec::with_capacity(tasks);
        slots.resize_with(tasks, || None);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut done: Vec<(usize, T)> = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= tasks {
                                break;
                            }
                            done.push((i, f(i)));
                        }
                        done
                    })
                })
                .collect();
            for handle in handles {
                for (i, v) in handle.join().expect("worker thread panicked") {
                    slots[i] = Some(v);
                }
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("every task index was claimed"))
            .collect()
    }

    /// Runs one closure per morsel of `rows` rows, returning the per-morsel
    /// results in morsel (= row) order.
    pub fn run_morsels<T: Send>(
        &self,
        rows: usize,
        f: impl Fn(Range<usize>) -> T + Sync,
    ) -> Vec<T> {
        let morsels = Self::morsels(rows);
        self.run(morsels.len(), |i| f(morsels[i].clone()))
    }
}

impl Default for ThreadPool {
    fn default() -> ThreadPool {
        ThreadPool::with_default_parallelism()
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("parallelism", &self.parallelism())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn morsels_cover_rows_exactly_once() {
        for rows in [
            0usize,
            1,
            MORSEL_ROWS - 1,
            MORSEL_ROWS,
            MORSEL_ROWS + 1,
            300_000,
        ] {
            let morsels = ThreadPool::morsels(rows);
            let mut expected = 0usize;
            for m in &morsels {
                assert_eq!(m.start, expected, "morsels must be contiguous");
                assert!(m.end > m.start && m.end - m.start <= MORSEL_ROWS);
                expected = m.end;
            }
            assert_eq!(expected, rows);
        }
    }

    #[test]
    fn run_returns_results_in_task_order_regardless_of_threads() {
        for threads in [1, 2, 7] {
            let pool = ThreadPool::new(threads);
            let out = pool.run(23, |i| i * i);
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn run_morsels_is_identical_across_thread_counts() {
        let rows = 3 * MORSEL_ROWS + 17;
        let data: Vec<f64> = (0..rows).map(|i| (i as f64).sin()).collect();
        let partials = |threads: usize| {
            ThreadPool::new(threads).run_morsels(rows, |r| data[r].iter().sum::<f64>())
        };
        let serial = partials(1);
        for threads in [2, 4, 8] {
            let parallel = partials(threads);
            assert_eq!(serial.len(), parallel.len());
            for (a, b) in serial.iter().zip(parallel.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "partials must be bit-identical");
            }
        }
    }

    #[test]
    fn parallelism_is_resizable_and_clamped() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.parallelism(), 1);
        pool.set_parallelism(4);
        assert_eq!(pool.parallelism(), 4);
        pool.set_parallelism(0);
        assert_eq!(pool.parallelism(), 1);
        pool.set_parallelism(1 << 62);
        assert_eq!(pool.parallelism(), MAX_PARALLELISM);
        assert_eq!(ThreadPool::new(usize::MAX).parallelism(), MAX_PARALLELISM);
    }
}
