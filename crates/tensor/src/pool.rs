//! Deterministic scoped-thread parallelism for the numeric kernels.
//!
//! Every helper here follows one **determinism contract**: work is split
//! into *units* (matrix rows, conv out-channel blocks, experts), each
//! worker owns a disjoint, contiguous block of units, and the per-element
//! instruction sequence inside a unit is byte-for-byte the one the
//! sequential kernel executes. Partitioning therefore never changes
//! *what* is computed — only *who* computes it — and outputs are
//! bit-identical at every thread count. Cross-unit reductions (e.g. conv
//! weight gradients) are merged on the calling thread in unit order for
//! the same reason.
//!
//! Thread count comes from a [`ParallelConfig`]: the `TEAMNET_THREADS`
//! environment variable when set, otherwise
//! [`std::thread::available_parallelism`]. A count of 1 short-circuits to
//! a plain sequential call with zero thread machinery — the exact
//! pre-parallel code path.
//!
//! Workers are `std::thread::scope` threads: no unsafe, no work stealing,
//! no shared mutable state beyond the disjoint `chunks_mut` blocks. A
//! panicking worker propagates out of the scope after all siblings have
//! been joined.

use crate::memtrack;
use std::cell::Cell;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::OnceLock;

/// Environment variable overriding the default worker-thread count.
pub const THREADS_ENV: &str = "TEAMNET_THREADS";

/// Below this many inner multiply–adds the default kernel entry points
/// stay sequential: spawning scoped threads costs more than the
/// arithmetic saves. Set from `kernel_bench`'s `default_entry` rows (a
/// two-thread scope ≈ 65 µs to open and join): 64×784×128 (6.4 M) is
/// where two threads stop losing to one, so the threshold is the next
/// power of two. The 8-lane tile of an x86-64-v3 build runs 15–23 G
/// multiply–adds/s a thread (the 4-lane one ran 12–15), and its rows
/// show no moved break-even: whenever the host gave the process two
/// cores, every row over the threshold still gained (256³ 0.61–0.79 ×,
/// the 8-image convs 0.57–0.86 ×), so the constant stands. Explicit
/// `*_with` calls bypass it so tests can exercise the parallel path on
/// tiny shapes.
pub(crate) const PAR_MIN_WORK: usize = 1 << 23;

/// Process-wide default, resolved once on first use so hot kernels never
/// re-read the environment.
static DEFAULT_THREADS: OnceLock<usize> = OnceLock::new();

thread_local! {
    /// When true, [`ParallelConfig::default`] and
    /// [`ParallelConfig::from_env`] resolve to the sequential
    /// configuration on this thread — see [`force_sequential_scope`].
    static FORCE_SEQUENTIAL: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with every default-configured kernel on this thread pinned to
/// the canonical sequential path, restoring the previous behavior
/// afterwards (also on panic).
///
/// The parallel backend is bit-identical at any thread count, so this is
/// never needed for numerics. It exists for *allocation honesty*: the
/// static cost model (`teamnet_nn::cost`) prices the sequential kernel's
/// scratch buffers, and a [`crate::MemScope`] measurement taken under
/// this scope observes exactly that allocation schedule instead of one
/// scratch buffer per worker thread (DESIGN.md §13).
pub fn force_sequential_scope<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCE_SEQUENTIAL.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(FORCE_SEQUENTIAL.with(|c| c.replace(true)));
    f()
}

/// True when the current thread is inside a [`force_sequential_scope`].
fn forced_sequential() -> bool {
    FORCE_SEQUENTIAL.with(Cell::get)
}

/// How many worker threads the parallel kernels may use.
///
/// The configuration is a plain copyable value so call sites can pin an
/// explicit count (`with_threads`), force the sequential path
/// (`sequential`), or take the process default (`default`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    threads: usize,
}

impl ParallelConfig {
    /// Reads the configuration from the environment: `TEAMNET_THREADS`
    /// when set to a positive integer, otherwise the machine's available
    /// parallelism (1 if that cannot be determined). Unlike
    /// [`ParallelConfig::default`], this re-reads the environment on
    /// every call.
    pub fn from_env() -> Self {
        if forced_sequential() {
            return ParallelConfig::sequential();
        }
        let threads = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(NonZeroUsize::get)
                    .unwrap_or(1)
            });
        ParallelConfig { threads }
    }

    /// The single-threaded configuration: kernels run the exact
    /// sequential code path with no thread machinery.
    pub fn sequential() -> Self {
        ParallelConfig { threads: 1 }
    }

    /// A configuration with an explicit thread count (clamped to ≥ 1).
    pub fn with_threads(threads: usize) -> Self {
        ParallelConfig {
            threads: threads.max(1),
        }
    }

    /// The configured worker-thread count (≥ 1).
    pub fn threads(self) -> usize {
        self.threads
    }

    /// True when this configuration runs kernels sequentially.
    pub fn is_sequential(self) -> bool {
        self.threads == 1
    }
}

impl Default for ParallelConfig {
    /// The process-wide default: [`ParallelConfig::from_env`] resolved
    /// once and cached for the lifetime of the process.
    fn default() -> Self {
        if forced_sequential() {
            return ParallelConfig::sequential();
        }
        let threads = *DEFAULT_THREADS.get_or_init(|| ParallelConfig::from_env().threads);
        ParallelConfig { threads }
    }
}

/// Splits `out` into `units` equal contiguous blocks and runs
/// `f(unit_range, block)` over disjoint ranges, in parallel when
/// `threads > 1`.
///
/// `out.len()` must be a multiple of `units`; each unit is
/// `out.len() / units` consecutive elements (a matrix row). With
/// `threads <= 1`, zero-length units, or fewer than two units, this is
/// exactly `f(0..units, out)` on the calling thread — the sequential
/// code path. Workers receive contiguous unit ranges in order, so the
/// element at unit `u` is always written by the same per-unit code
/// regardless of thread count.
pub fn partitioned(
    out: &mut [f32],
    units: usize,
    threads: usize,
    f: impl Fn(Range<usize>, &mut [f32]) + Sync,
) {
    debug_assert!(
        units == 0 || out.len() % units == 0,
        "out length must divide into units"
    );
    let unit_len = out.len().checked_div(units).unwrap_or(0);
    partitioned_by(out, units, |_| unit_len, threads, f);
}

/// [`partitioned`] for units of unequal length: unit `u` owns the next
/// `unit_len(u)` elements of `out`, and the lengths must sum to
/// `out.len()` (the conv forward's out-channel blocks, whose last block
/// per sample is short when the channel count is not a multiple of the
/// block height). Same contract otherwise: each worker gets a contiguous
/// range of whole units and the slice that holds exactly those units.
pub fn partitioned_by(
    out: &mut [f32],
    units: usize,
    unit_len: impl Fn(usize) -> usize,
    threads: usize,
    f: impl Fn(Range<usize>, &mut [f32]) + Sync,
) {
    let threads = threads.min(units).max(1);
    if threads <= 1 || out.is_empty() {
        f(0..units, out);
        return;
    }
    let per = units.div_ceil(threads);
    // Workers inherit the spawning thread's MemScope stack so per-worker
    // scratch tensors stay visible to allocation accounting.
    let collectors = memtrack::collector_stack();
    std::thread::scope(|s| {
        let mut rest = out;
        for start in (0..units).step_by(per) {
            let range = start..(start + per).min(units);
            let len: usize = range.clone().map(&unit_len).sum();
            let (block, tail) = rest.split_at_mut(len);
            rest = tail;
            let f = &f;
            let collectors = collectors.clone();
            s.spawn(move || memtrack::with_collector_stack(collectors, || f(range, block)));
        }
        debug_assert!(rest.is_empty(), "unit lengths must sum to out.len()");
    });
}

/// Computes `f(0), …, f(count - 1)` and returns the results in index
/// order, in parallel when `threads > 1`.
///
/// Each index is evaluated exactly once by exactly one worker, so the
/// value at position `i` is independent of the thread count; only the
/// wall-clock interleaving changes. Use this for per-sample work whose
/// results the caller then reduces **sequentially in index order** to
/// keep floating-point reductions bit-stable.
pub fn map_indexed<R: Send>(count: usize, threads: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let threads = threads.min(count).max(1);
    if threads <= 1 {
        return (0..count).map(f).collect();
    }
    let per = count.div_ceil(threads);
    let mut slots: Vec<Option<R>> = (0..count).map(|_| None).collect();
    let collectors = memtrack::collector_stack();
    std::thread::scope(|s| {
        for (ci, block) in slots.chunks_mut(per).enumerate() {
            let f = &f;
            let start = ci * per;
            let collectors = collectors.clone();
            s.spawn(move || {
                memtrack::with_collector_stack(collectors, || {
                    for (j, slot) in block.iter_mut().enumerate() {
                        *slot = Some(f(start + j));
                    }
                })
            });
        }
    });
    let out: Vec<R> = slots.into_iter().flatten().collect();
    debug_assert_eq!(out.len(), count, "every slot must be filled");
    out
}

/// Runs `f(i, &mut items[i])` for every item and returns the results in
/// item order, in parallel when `threads > 1`.
///
/// Items are handed out as disjoint contiguous blocks (`chunks_mut`), so
/// each worker has exclusive mutable access to its items — this is how
/// the per-expert forward passes fan out without locking. As with
/// [`map_indexed`], the result at position `i` depends only on item `i`,
/// never on the thread count.
pub fn map_mut<T: Send, R: Send>(
    items: &mut [T],
    threads: usize,
    f: impl Fn(usize, &mut T) -> R + Sync,
) -> Vec<R> {
    let count = items.len();
    let threads = threads.min(count).max(1);
    if threads <= 1 {
        return items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let per = count.div_ceil(threads);
    let mut slots: Vec<Option<R>> = (0..count).map(|_| None).collect();
    let collectors = memtrack::collector_stack();
    std::thread::scope(|s| {
        for ((ci, block), results) in items.chunks_mut(per).enumerate().zip(slots.chunks_mut(per)) {
            let f = &f;
            let start = ci * per;
            let collectors = collectors.clone();
            s.spawn(move || {
                memtrack::with_collector_stack(collectors, || {
                    for ((j, item), slot) in block.iter_mut().enumerate().zip(results.iter_mut()) {
                        *slot = Some(f(start + j, item));
                    }
                })
            });
        }
    });
    let out: Vec<R> = slots.into_iter().flatten().collect();
    debug_assert_eq!(out.len(), count, "every slot must be filled");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn config_constructors_clamp_and_report() {
        assert_eq!(ParallelConfig::sequential().threads(), 1);
        assert!(ParallelConfig::sequential().is_sequential());
        assert_eq!(ParallelConfig::with_threads(0).threads(), 1);
        assert_eq!(ParallelConfig::with_threads(4).threads(), 4);
        assert!(!ParallelConfig::with_threads(4).is_sequential());
        assert!(ParallelConfig::from_env().threads() >= 1);
        assert!(ParallelConfig::default().threads() >= 1);
    }

    #[test]
    fn partitioned_covers_every_unit_exactly_once() {
        for threads in [1, 2, 3, 4, 7] {
            let units = 10;
            let unit_len = 3;
            let mut out = vec![0.0f32; units * unit_len];
            partitioned(&mut out, units, threads, |range, block| {
                for (bi, u) in range.enumerate() {
                    for x in &mut block[bi * unit_len..(bi + 1) * unit_len] {
                        *x += 1.0 + u as f32;
                    }
                }
            });
            let expect: Vec<f32> = (0..units)
                .flat_map(|u| std::iter::repeat_n(1.0 + u as f32, unit_len))
                .collect();
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn partitioned_by_hands_each_worker_exactly_its_ragged_units() {
        // Unit u owns u % 3 elements (so every third unit is empty).
        let unit_len = |u: usize| u % 3;
        let units = 11;
        let total: usize = (0..units).map(unit_len).sum();
        for threads in [1, 2, 3, 4, 7, 16] {
            let mut out = vec![0.0f32; total];
            partitioned_by(&mut out, units, unit_len, threads, |range, block| {
                let want: usize = range.clone().map(unit_len).sum();
                assert_eq!(block.len(), want, "block holds exactly its units");
                let mut at = 0;
                for u in range {
                    for x in &mut block[at..at + unit_len(u)] {
                        *x += 1.0 + u as f32;
                    }
                    at += unit_len(u);
                }
            });
            let expect: Vec<f32> = (0..units)
                .flat_map(|u| std::iter::repeat_n(1.0 + u as f32, unit_len(u)))
                .collect();
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn partitioned_handles_empty_and_degenerate_shapes() {
        // No units at all.
        let mut empty: Vec<f32> = Vec::new();
        partitioned(&mut empty, 0, 4, |range, block| {
            assert_eq!(range, 0..0);
            assert!(block.is_empty());
        });
        // Units of zero length (an [m, 0] matrix) fall back to one call.
        let calls = AtomicUsize::new(0);
        partitioned(&mut empty, 5, 4, |range, _| {
            assert_eq!(range, 0..5);
            calls.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        // More threads than units: clamped, still every unit once.
        let mut out = vec![0.0f32; 2];
        partitioned(&mut out, 2, 16, |range, block| {
            for (bi, u) in range.enumerate() {
                block[bi] = u as f32;
            }
        });
        assert_eq!(out, vec![0.0, 1.0]);
    }

    #[test]
    fn map_indexed_returns_results_in_order() {
        for threads in [1, 2, 4, 5] {
            let got = map_indexed(11, threads, |i| i * i);
            let expect: Vec<usize> = (0..11).map(|i| i * i).collect();
            assert_eq!(got, expect, "threads={threads}");
        }
        assert!(map_indexed(0, 4, |i| i).is_empty());
    }

    #[test]
    fn map_mut_gives_each_worker_exclusive_items() {
        for threads in [1, 2, 4] {
            let mut items: Vec<usize> = (0..9).collect();
            let got = map_mut(&mut items, threads, |i, item| {
                *item += 100;
                i + *item
            });
            let expect: Vec<usize> = (0..9).map(|i| i + i + 100).collect();
            assert_eq!(got, expect, "threads={threads}");
            assert!(items.iter().all(|&x| x >= 100));
        }
    }

    #[test]
    fn force_sequential_scope_pins_defaults_and_restores() {
        let before = ParallelConfig::default();
        force_sequential_scope(|| {
            assert!(ParallelConfig::default().is_sequential());
            assert!(ParallelConfig::from_env().is_sequential());
            // Explicit configurations are untouched: only defaults pin.
            assert_eq!(ParallelConfig::with_threads(4).threads(), 4);
        });
        assert_eq!(ParallelConfig::default(), before);
    }

    #[test]
    fn force_sequential_scope_restores_after_panic() {
        let caught = std::panic::catch_unwind(|| {
            force_sequential_scope(|| panic!("deliberate"));
        });
        assert!(caught.is_err());
        assert!(!super::forced_sequential());
    }

    #[test]
    fn worker_panic_propagates_after_join() {
        let caught = std::panic::catch_unwind(|| {
            let mut out = vec![0.0f32; 8];
            partitioned(&mut out, 8, 4, |range, _| {
                assert!(!range.contains(&5), "deliberate worker failure");
            });
        });
        assert!(caught.is_err());
    }
}
