//! Deterministic fork-join execution for setup-time work.
//!
//! [`Exec`] is an order-preserving chunked `map` (and an in-place row
//! fill, [`Exec::fill_rows`]) over [`std::thread::scope`], with a strictly
//! sequential fast path when one thread is configured (or the input is
//! too small to be worth forking). Its callers parallelize **pure
//! computation** at oracle-build time (the dense table's rows,
//! contraction-hierarchy core distances and access sets) and commit
//! results sequentially, so a build is bit-identical for any thread
//! count. Dispatch itself is single-threaded: at the pool depths this
//! repo reaches (~1 000 pending, 0.07–0.5 ms per order) a spawn + join
//! per call cost more than the work it split (`BENCHMARK.json`,
//! `dense_deep_online_t2`).
//!
//! Chunks are contiguous index ranges and results are concatenated in
//! chunk order, so `exec.map(items, f)` returns exactly
//! `items.iter().map(f).collect()` — the thread count can never reorder,
//! drop or duplicate results.

use serde::{Deserialize, Serialize};

/// Thread setting of one scenario, carried and ignored: dispatch is
/// sequential and every oracle build runs on every core.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DispatchParallelism {
    /// Carried and ignored: oracle builds no longer take a thread count.
    /// Kept because `benchmark/` constructs this struct field by field.
    pub threads: usize,
    /// Carried and ignored: the pool is no longer sharded. Kept for the
    /// same reason.
    pub shards: usize,
}

impl Default for DispatchParallelism {
    fn default() -> Self {
        Self {
            threads: 1,
            shards: 1,
        }
    }
}

impl DispatchParallelism {
    /// One thread (the default).
    pub const SEQUENTIAL: Self = Self {
        threads: 1,
        shards: 1,
    };

    /// [`DispatchParallelism::SEQUENTIAL`] as a function (serde default).
    pub fn sequential() -> Self {
        Self::SEQUENTIAL
    }
}

/// Below this many items a parallel map falls back to the sequential path:
/// forking threads costs more than the work itself.
const MIN_PARALLEL_ITEMS: usize = 2;

/// Order-preserving fork-join executor (see module docs).
#[derive(Clone, Debug)]
pub struct Exec {
    threads: usize,
}

impl Default for Exec {
    fn default() -> Self {
        Self::sequential()
    }
}

impl Exec {
    /// Executor over `threads` scoped threads (`0` = available cores).
    pub fn new(threads: usize) -> Self {
        let threads = match threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        Self { threads }
    }

    /// The strictly sequential executor.
    pub fn sequential() -> Self {
        Self { threads: 1 }
    }

    /// Configured worker-thread count (≥ 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Map `f` over `items`, returning results in input order.
    ///
    /// Sequential when one thread is configured or the input is tiny;
    /// otherwise the index range is split into at most `threads` contiguous
    /// chunks, one scoped thread each, and per-chunk results are
    /// concatenated in chunk order. Identical to the sequential map for
    /// every thread count.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.map_indexed(items.len(), |i| f(&items[i]))
    }

    /// Map `f` over the index range `0..n`, returning results in index
    /// order. The primitive [`Exec::map`] is built on.
    pub fn map_indexed<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if self.threads == 1 || n < MIN_PARALLEL_ITEMS {
            return (0..n).map(f).collect();
        }
        let chunk = n.div_ceil(self.threads);
        let mut out: Vec<Vec<R>> = Vec::new();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            let mut start = 0;
            while start < n {
                let end = (start + chunk).min(n);
                let f = &f;
                handles.push(scope.spawn(move || (start..end).map(f).collect::<Vec<R>>()));
                start = end;
            }
            out = handles.into_iter().map(|h| h.join().unwrap()).collect();
        });
        out.into_iter().flatten().collect()
    }

    /// Fill a preallocated row-major `table` of `row_len`-wide rows in
    /// place: `f(first_row, rows)` receives one contiguous, whole-row block
    /// and the index of its first row. The same contiguous split as
    /// [`Exec::map_indexed`] (one block when sequential), so a table is
    /// bit-identical for every thread count — without ever holding the
    /// rows a second time in per-row vectors.
    pub fn fill_rows<T, F>(&self, table: &mut [T], row_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        if table.is_empty() {
            return;
        }
        let n = table.len() / row_len;
        debug_assert_eq!(table.len(), n * row_len, "table is not whole rows");
        if self.threads == 1 || n < MIN_PARALLEL_ITEMS {
            return f(0, table);
        }
        let chunk = n.div_ceil(self.threads);
        std::thread::scope(|scope| {
            for (rows, first_row) in table.chunks_mut(chunk * row_len).zip((0..n).step_by(chunk)) {
                let f = &f;
                scope.spawn(move || f(first_row, rows));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sequential() {
        assert_eq!(
            DispatchParallelism::default(),
            DispatchParallelism::SEQUENTIAL
        );
        assert_eq!(Exec::default().threads(), 1);
    }

    #[test]
    fn zero_threads_resolves_to_host_cores() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(Exec::new(0).threads(), cores);
    }

    #[test]
    fn map_preserves_order_for_any_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [1, 2, 3, 4, 8, 16] {
            let exec = Exec::new(threads);
            assert_eq!(exec.map(&items, |x| x * x + 1), expect, "threads={threads}");
        }
    }

    #[test]
    fn map_handles_empty_and_tiny_inputs() {
        let exec = Exec::new(4);
        assert_eq!(exec.map(&[] as &[u32], |x| *x), Vec::<u32>::new());
        assert_eq!(exec.map(&[7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn fill_rows_writes_every_row_once_for_any_thread_count() {
        // 10 rows of 3: uneven split at 4 threads, more threads than rows
        // at 16, nothing at all for the empty table.
        let expect: Vec<usize> = (0..30).map(|i| (i / 3) * 100 + i % 3).collect();
        for threads in [1, 2, 3, 4, 16] {
            let mut table = vec![usize::MAX; 30];
            Exec::new(threads).fill_rows(&mut table, 3, |first_row, rows| {
                for (r, row) in rows.chunks_mut(3).enumerate() {
                    for (c, cell) in row.iter_mut().enumerate() {
                        assert_eq!(*cell, usize::MAX, "cell written twice");
                        *cell = (first_row + r) * 100 + c;
                    }
                }
            });
            assert_eq!(table, expect, "threads={threads}");
            Exec::new(threads).fill_rows(&mut [] as &mut [u8], 0, |_, _| unreachable!());
        }
    }

    #[test]
    fn map_indexed_covers_uneven_chunks() {
        // n not divisible by threads: last chunk is short, nothing dropped.
        let exec = Exec::new(4);
        let got = exec.map_indexed(10, |i| i * 2);
        assert_eq!(got, (0..10).map(|i| i * 2).collect::<Vec<_>>());
    }
}
