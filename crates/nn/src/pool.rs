//! The worker pool behind a training epoch's two parallel call sites: the
//! rollout fan-out (`rlsched_rl::collect_rollouts_par`) and the fused
//! update sweep ([`crate::fused`]). There is no persistent pool: each call
//! spawns scoped `std::thread`s and joins them before it returns.
//!
//! Three guarantees, pinned by the bit-determinism suites:
//!
//! 1. **Worker-count invariance.** Work splits into fixed tasks sized by
//!    the input length alone (at most 32 ranges for [`fan_out`], one task
//!    per chunk for [`for_each_chunk_mut`]), each worker runs a contiguous
//!    group of tasks, and results come back in task order. A fold over them
//!    in that order has the same bits at every worker count.
//! 2. **Panic transparency.** A task's panic is re-raised on the calling
//!    thread with its original payload, after every worker has been
//!    joined, so `catch_unwind` supervisors see the real message.
//! 3. **No nested oversubscription.** A call made inside a worker runs
//!    inline on that worker ([`current_num_threads`] is 1 there).
//!
//! The worker budget is 1 inside a worker, else the innermost
//! [`with_threads`] override on the calling thread, else
//! `std::thread::available_parallelism`.

use std::any::Any;
use std::cell::Cell;
use std::num::NonZeroUsize;
use std::ops::Range;

/// Upper bound on the number of fixed ranges [`fan_out`] splits into.
const MAX_TASKS: usize = 32;

thread_local! {
    /// Budget installed by [`with_threads`].
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// Set on worker threads; makes nested calls run inline.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The worker budget for calls made from this thread (module docs). Always
/// at least 1.
pub fn current_num_threads() -> usize {
    if IN_WORKER.with(Cell::get) {
        return 1;
    }
    OVERRIDE.with(Cell::get).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Run `f` with this thread's worker budget set to `n.max(1)`, and restore
/// the previous budget afterwards, on unwind too. Partitioning ignores the
/// budget, so results are the same bits for every `n`.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|o| o.replace(Some(n.max(1)))));
    f()
}

/// Split `0..n` into `parts` contiguous ranges, the first `n % parts` one
/// longer than the rest.
fn split(n: usize, parts: usize) -> impl ExactSizeIterator<Item = Range<usize>> {
    let (base, extra) = (n / parts, n % parts);
    (0..parts).map(move |p| {
        let start = p * base + p.min(extra);
        start..start + base + usize::from(p < extra)
    })
}

/// Run `per_range` on each of the fixed ranges of `0..n` —
/// `min(n, 32)` of them, or one empty range when `n` is 0 — and return the
/// outputs in range order.
pub fn fan_out<R: Send>(n: usize, per_range: impl Fn(Range<usize>) -> R + Sync) -> Vec<R> {
    run_ordered(split(n, n.clamp(1, MAX_TASKS)), per_range)
}

/// Call `f(index, chunk)` on every `chunk`-long piece of `items` (the last
/// one possibly shorter), each piece one task. Allocation-free on a budget
/// of 1.
pub fn for_each_chunk_mut<T: Send>(
    items: &mut [T],
    chunk: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    run_ordered(items.chunks_mut(chunk).enumerate(), |(i, c)| f(i, c));
}

/// Run `run` on every task, contiguous groups of tasks on
/// `min(current_num_threads(), tasks)` scoped workers (inline when that is
/// 1), and return the outputs in task order. A panic is re-raised with its
/// payload once every worker has been joined.
fn run_ordered<T: Send, R: Send>(
    mut tasks: impl ExactSizeIterator<Item = T>,
    run: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let n = tasks.len();
    let workers = if n < 2 {
        1
    } else {
        current_num_threads().min(n)
    };
    if workers == 1 {
        return tasks.map(run).collect();
    }
    let run = &run;
    let parts: Vec<std::thread::Result<Vec<R>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = split(n, workers)
            .map(|group| {
                let group: Vec<T> = tasks.by_ref().take(group.len()).collect();
                scope.spawn(move || {
                    IN_WORKER.with(|w| w.set(true));
                    group.into_iter().map(run).collect::<Vec<R>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut out = Vec::with_capacity(n);
    let mut panic: Option<Box<dyn Any + Send>> = None;
    for part in parts {
        match part {
            Ok(rs) => out.extend(rs),
            Err(payload) => panic = panic.or(Some(payload)),
        }
    }
    if let Some(payload) = panic {
        std::panic::resume_unwind(payload);
    }
    out
}
