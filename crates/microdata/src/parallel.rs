//! Deterministic intra-node parallelism primitives.
//!
//! Every helper here preserves the crate's bit-identity guarantee by
//! construction: work is *computed* on any number of threads, but the
//! results are *merged* on the caller's thread in chunk-index order, so
//! the observable merge sequence is exactly the sequential one whatever
//! the thread count. The chunked partition / coarsen / extraction
//! kernels and the streaming builder all run on these primitives; the
//! proptests in `tests/chunked_equivalence.rs` and
//! `tests/chunked_extract.rs` sweep thread counts {1, 2, 8} against the
//! sequential path to pin the equivalence.
//!
//! Three shapes cover everything the chunked pipeline needs:
//!
//! - [`process_chunks_ordered`] — random-access fan-out: workers claim
//!   chunk indices from a shared counter, compute a per-chunk partial
//!   with worker-local scratch (their own file handles and reused read
//!   buffers), and a bounded reorder window hands the partials to the
//!   caller strictly in chunk order. Memory stays O(window · partial).
//! - [`process_stream_ordered`] — the same contract over a *sequential*
//!   producer (a row stream that cannot be random-accessed): the caller
//!   thread produces work items and merges results, workers transform
//!   items in between; the reorder window bounds how far production may
//!   run ahead of the in-order merge.
//! - [`fill_spans`] — embarrassingly parallel per-row maps: disjoint
//!   contiguous spans of one output slice are filled concurrently; each
//!   row's value must depend only on that row, so no ordering is needed
//!   at all.
//!
//! Beside them sit the workspace's one blocking hand-off, [`Queue`] (the
//! disk prefetcher and the serve daemon's connection pool), and its one
//! poison policy, [`lock`].

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use crate::error::{Error, Result};

/// How many chunks the disk prefetcher reads ahead of the consumer
/// (double buffering: one block in flight while one is being consumed).
pub const PREFETCH_DEPTH: usize = 2;

/// Resolves a requested thread count: `0` means one per available CPU.
pub fn resolve_threads(requested: usize) -> usize {
    match requested {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
}

/// The reorder window for `threads` workers: enough slots that no worker
/// idles waiting on the merge frontier, small enough that partial
/// results never pile up unboundedly.
pub fn reorder_window(threads: usize) -> usize {
    threads.saturating_mul(2).max(2)
}

enum Slot<T> {
    Value(T),
    Error(Error),
    Panicked(Box<dyn std::any::Any + Send>),
}

struct Reorder<T> {
    next: AtomicUsize,
    abort: AtomicBool,
    state: Mutex<ReorderState<T>>,
    ready: Condvar,
    space: Condvar,
}

struct ReorderState<T> {
    merged: usize,
    slots: BTreeMap<usize, Slot<T>>,
}

impl<T> Reorder<T> {
    fn new() -> Self {
        Reorder {
            next: AtomicUsize::new(0),
            abort: AtomicBool::new(false),
            state: Mutex::new(ReorderState {
                merged: 0,
                slots: BTreeMap::new(),
            }),
            ready: Condvar::new(),
            space: Condvar::new(),
        }
    }

    fn wake_all(&self) {
        self.ready.notify_all();
        self.space.notify_all();
    }
}

/// Maps every chunk index in `0..chunk_count` through `map` on up to
/// `threads` workers and folds the results through `reduce` on the
/// caller's thread, **strictly in chunk-index order** — the merge
/// sequence (and therefore any first-appearance numbering or f64
/// accumulation order the reducer implements) is identical to the
/// sequential loop at every thread count.
///
/// `make_scratch` runs once per worker; the scratch value is threaded
/// through every `map` call that worker performs, which is how chunk
/// readers keep one open file handle and one reused byte buffer per
/// worker instead of reopening/reallocating per chunk.
///
/// At most [`reorder_window`]`(threads)` un-merged partials exist at any
/// moment: workers stall rather than run arbitrarily far ahead of the
/// merge frontier, bounding memory at O(window · partial size).
///
/// With `threads <= 1` (or a single chunk) everything runs inline on the
/// caller's thread with no synchronization at all.
///
/// # Errors
/// The first error in chunk order — from `map` or `reduce` — aborts the
/// remaining work and is returned. Worker panics are re-raised on the
/// caller's thread.
pub fn process_chunks_ordered<S, T, MS, M, R>(
    chunk_count: usize,
    threads: usize,
    make_scratch: MS,
    map: M,
    mut reduce: R,
) -> Result<()>
where
    T: Send,
    MS: Fn() -> S + Sync,
    M: Fn(&mut S, usize) -> Result<T> + Sync,
    R: FnMut(usize, T) -> Result<()>,
{
    let workers = threads.min(chunk_count);
    if workers <= 1 {
        let mut scratch = make_scratch();
        for chunk in 0..chunk_count {
            let partial = map(&mut scratch, chunk)?;
            reduce(chunk, partial)?;
        }
        return Ok(());
    }

    let window = reorder_window(workers);
    let shared: Reorder<T> = Reorder::new();
    let mut outcome: Result<()> = Ok(());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut scratch = make_scratch();
                loop {
                    if shared.abort.load(Ordering::Acquire) {
                        break;
                    }
                    let chunk = shared.next.fetch_add(1, Ordering::Relaxed);
                    if chunk >= chunk_count {
                        break;
                    }
                    // Backpressure: stay within `window` of the merge
                    // frontier so partials never pile up unboundedly.
                    {
                        let mut st = lock(&shared.state);
                        while chunk >= st.merged + window && !shared.abort.load(Ordering::Acquire) {
                            st = wait(&shared.space, st);
                        }
                    }
                    if shared.abort.load(Ordering::Acquire) {
                        break;
                    }
                    let out = catch_unwind(AssertUnwindSafe(|| map(&mut scratch, chunk)));
                    let slot = match out {
                        Ok(Ok(v)) => Slot::Value(v),
                        Ok(Err(e)) => Slot::Error(e),
                        Err(p) => Slot::Panicked(p),
                    };
                    let stop = !matches!(slot, Slot::Value(_));
                    lock(&shared.state).slots.insert(chunk, slot);
                    shared.ready.notify_all();
                    if stop {
                        break;
                    }
                }
                shared.wake_all();
            });
        }

        // Merge on the caller's thread, strictly in chunk order. Every
        // claimed index below the first failure is guaranteed to get a
        // slot, so this wait always terminates.
        for chunk in 0..chunk_count {
            let slot = {
                let mut st = lock(&shared.state);
                loop {
                    if let Some(slot) = st.slots.remove(&chunk) {
                        st.merged = chunk + 1;
                        break slot;
                    }
                    st = wait(&shared.ready, st);
                }
            };
            shared.space.notify_all();
            match slot {
                Slot::Value(v) => {
                    if let Err(e) = reduce(chunk, v) {
                        outcome = Err(e);
                    }
                }
                Slot::Error(e) => outcome = Err(e),
                Slot::Panicked(p) => {
                    shared.abort.store(true, Ordering::Release);
                    shared.wake_all();
                    resume_unwind(p);
                }
            }
            if outcome.is_err() {
                break;
            }
        }
        shared.abort.store(true, Ordering::Release);
        shared.wake_all();
    });
    outcome
}

/// [`process_chunks_ordered`] over a producer that can only be consumed
/// sequentially (a row stream): the caller's thread alternates between
/// producing work items and merging finished results in order; `map`
/// runs on the workers in between. Production never runs more than
/// [`reorder_window`]`(threads)` items ahead of the in-order merge, so
/// at most that many items + partials are in flight.
///
/// With `threads <= 1` the pipeline degenerates to the plain
/// produce → map → reduce loop, inline.
///
/// # Errors
/// The first error in item order (from `produce`, `map`, or `reduce`)
/// aborts the rest; worker panics are re-raised on the caller's thread.
pub fn process_stream_ordered<Item, S, T, P, MS, M, R>(
    threads: usize,
    mut produce: P,
    make_scratch: MS,
    map: M,
    mut reduce: R,
) -> Result<()>
where
    Item: Send,
    T: Send,
    P: FnMut() -> Result<Option<Item>>,
    MS: Fn() -> S + Sync,
    M: Fn(&mut S, usize, Item) -> Result<T> + Sync,
    R: FnMut(usize, T) -> Result<()>,
{
    if threads <= 1 {
        let mut scratch = make_scratch();
        let mut index = 0usize;
        while let Some(item) = produce()? {
            let partial = map(&mut scratch, index, item)?;
            reduce(index, partial)?;
            index += 1;
        }
        return Ok(());
    }

    let window = reorder_window(threads);
    let work: Queue<(usize, Item)> = Queue::bounded(window);
    let results: Reorder<T> = Reorder::new();
    let mut outcome: Result<()> = Ok(());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut scratch = make_scratch();
                while let Some((index, item)) = work.pop() {
                    let out = catch_unwind(AssertUnwindSafe(|| map(&mut scratch, index, item)));
                    let slot = match out {
                        Ok(Ok(v)) => Slot::Value(v),
                        Ok(Err(e)) => Slot::Error(e),
                        Err(p) => Slot::Panicked(p),
                    };
                    // Keep draining even after an error: the producer
                    // aborts (and closes the queue) once it merges the
                    // error slot, and a worker that quit early could
                    // strand queued items the in-order merge is waiting
                    // on. Only a panic retires the worker.
                    let stop = matches!(slot, Slot::Panicked(_));
                    lock(&results.state).slots.insert(index, slot);
                    results.ready.notify_all();
                    if stop {
                        break;
                    }
                }
                results.ready.notify_all();
            });
        }

        // The caller's thread is both producer and in-order merger.
        let mut produced = 0usize;
        let mut merged = 0usize;
        let mut merge_in_order = |upto: usize, merged: &mut usize, blocking: bool| -> Result<()> {
            while *merged < upto {
                let slot = {
                    let mut st = lock(&results.state);
                    loop {
                        if let Some(slot) = st.slots.remove(&*merged) {
                            break Some(slot);
                        }
                        if !blocking {
                            break None;
                        }
                        st = wait(&results.ready, st);
                    }
                };
                let Some(slot) = slot else { return Ok(()) };
                match slot {
                    Slot::Value(v) => reduce(*merged, v)?,
                    Slot::Error(e) => return Err(e),
                    Slot::Panicked(p) => {
                        work.close();
                        resume_unwind(p);
                    }
                }
                *merged += 1;
            }
            Ok(())
        };
        loop {
            // Enforce the window: block-merge until there is room.
            if produced >= merged + window {
                if let Err(e) = merge_in_order(produced - window + 1, &mut merged, true) {
                    outcome = Err(e);
                    break;
                }
            }
            match produce() {
                Ok(Some(item)) => {
                    work.push((produced, item));
                    produced += 1;
                    // Opportunistically drain whatever is already done.
                    if let Err(e) = merge_in_order(produced, &mut merged, false) {
                        outcome = Err(e);
                        break;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    outcome = Err(e);
                    break;
                }
            }
        }
        work.close();
        if outcome.is_ok() {
            if let Err(e) = merge_in_order(produced, &mut merged, true) {
                outcome = Err(e);
            }
        }
        work.close();
    });
    outcome
}

/// Fills disjoint contiguous spans of `out` concurrently: `f(base, span)`
/// writes rows `base..base + span.len()`. Each row's value must depend
/// only on that row (a pure gather/map), so the result is identical at
/// every thread count with no ordering machinery at all.
pub fn fill_spans<T, F>(out: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let threads = threads.max(1).min(out.len().max(1));
    if threads <= 1 {
        f(0, out);
        return;
    }
    let span = out.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let mut base = 0usize;
        for piece in out.chunks_mut(span) {
            let start = base;
            base += piece.len();
            let f = &f;
            scope.spawn(move || f(start, piece));
        }
    });
}

/// Locks `mutex` under the workspace's one poison policy: a lock whose
/// holder panicked is recovered, not propagated. The engine contains job
/// panics and must keep serving after one, and no job runs while holding
/// a lock taken here, so a panic does not leave guarded data half-updated.
pub fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait`] under the same poison policy as [`lock`].
fn wait<'a, T>(condvar: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    condvar.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// A minimal blocking MPMC queue (work distribution, the disk-prefetch
/// hand-off and the serve daemon's connection pool). Bounded `push`
/// blocks while the queue is full; `pop` blocks while it is empty;
/// `close` wakes everyone and makes further `push`es no-ops and drained
/// `pop`s return `None`. Each pushed item is popped exactly once.
pub struct Queue<T> {
    state: Mutex<QueueState<T>>,
    added: Condvar,
    removed: Condvar,
    capacity: usize,
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> Queue<T> {
    /// An open queue holding at most `capacity` items (at least one).
    pub fn bounded(capacity: usize) -> Self {
        Queue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            added: Condvar::new(),
            removed: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Blocks while full; returns `false` (dropping `item`) if closed.
    pub fn push(&self, item: T) -> bool {
        let mut st = lock(&self.state);
        while st.items.len() >= self.capacity && !st.closed {
            st = wait(&self.removed, st);
        }
        if st.closed {
            return false;
        }
        st.items.push_back(item);
        drop(st);
        self.added.notify_one();
        true
    }

    /// Blocks while empty; `None` once closed and drained.
    pub fn pop(&self) -> Option<T> {
        let mut st = lock(&self.state);
        loop {
            if let Some(item) = st.items.pop_front() {
                drop(st);
                self.removed.notify_one();
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = wait(&self.added, st);
        }
    }

    /// Non-blocking pop (used to recycle prefetch buffers).
    pub(crate) fn try_pop(&self) -> Option<T> {
        let mut st = lock(&self.state);
        let item = st.items.pop_front();
        if item.is_some() {
            drop(st);
            self.removed.notify_one();
        }
        item
    }

    /// Closes the queue: blocked `push`es return `false`, and `pop`s
    /// return `None` once the queued items are drained.
    pub fn close(&self) {
        lock(&self.state).closed = true;
        self.added.notify_all();
        self.removed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn ordered_chunks_merge_in_order_at_every_thread_count() {
        for threads in [1, 2, 3, 8] {
            let mut seen: Vec<usize> = Vec::new();
            process_chunks_ordered(
                37,
                threads,
                || (),
                |_, chunk| Ok(chunk * chunk),
                |chunk, sq| {
                    assert_eq!(sq, chunk * chunk);
                    seen.push(chunk);
                    Ok(())
                },
            )
            .unwrap();
            assert_eq!(seen, (0..37).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn ordered_chunks_propagate_the_first_error_in_chunk_order() {
        for threads in [1, 4] {
            let err = process_chunks_ordered(
                64,
                threads,
                || (),
                |_, chunk| {
                    if chunk >= 10 {
                        Err(Error::InvalidDataset(format!("chunk {chunk}")))
                    } else {
                        Ok(chunk)
                    }
                },
                |_, _| Ok(()),
            )
            .unwrap_err();
            // Workers may fail on any chunk >= 10, but the merge is
            // ordered, so the *reported* failure is always chunk 10.
            assert!(
                matches!(&err, Error::InvalidDataset(m) if m == "chunk 10"),
                "{err}"
            );
        }
    }

    #[test]
    fn ordered_chunks_reraise_worker_panics() {
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            process_chunks_ordered(
                16,
                4,
                || (),
                |_, chunk| {
                    if chunk == 7 {
                        panic!("boom at {chunk}");
                    }
                    Ok(chunk)
                },
                |_, _| Ok(()),
            )
        }));
        assert!(result.is_err());
    }

    #[test]
    fn ordered_chunks_scratch_is_per_worker() {
        let scratches = AtomicUsize::new(0);
        process_chunks_ordered(
            100,
            4,
            || {
                scratches.fetch_add(1, Ordering::Relaxed);
                0usize
            },
            |scratch, chunk| {
                *scratch += 1;
                Ok(chunk)
            },
            |_, _| Ok(()),
        )
        .unwrap();
        assert!(scratches.load(Ordering::Relaxed) <= 4);
    }

    #[test]
    fn ordered_stream_matches_sequential_at_every_thread_count() {
        let expect: Vec<usize> = (0..53).map(|i| i * 3).collect();
        for threads in [1, 2, 8] {
            let mut next = 0usize;
            let mut seen: Vec<usize> = Vec::new();
            process_stream_ordered(
                threads,
                || {
                    if next < 53 {
                        next += 1;
                        Ok(Some(next - 1))
                    } else {
                        Ok(None)
                    }
                },
                || (),
                |_, _, item: usize| Ok(item * 3),
                |index, v| {
                    assert_eq!(seen.len(), index);
                    seen.push(v);
                    Ok(())
                },
            )
            .unwrap();
            assert_eq!(seen, expect, "threads={threads}");
        }
    }

    #[test]
    fn ordered_stream_propagates_map_errors() {
        let mut next = 0usize;
        let err = process_stream_ordered(
            4,
            || {
                next += 1;
                Ok(if next <= 40 { Some(next - 1) } else { None })
            },
            || (),
            |_, _, item: usize| {
                if item >= 5 {
                    Err(Error::InvalidDataset(format!("item {item}")))
                } else {
                    Ok(item)
                }
            },
            |_, _| Ok(()),
        )
        .unwrap_err();
        assert!(
            matches!(&err, Error::InvalidDataset(m) if m == "item 5"),
            "{err}"
        );
    }

    #[test]
    fn fill_spans_is_identical_at_every_thread_count() {
        let mut reference = vec![0u64; 1000];
        fill_spans(&mut reference, 1, |base, span| {
            for (i, v) in span.iter_mut().enumerate() {
                *v = ((base + i) as u64).wrapping_mul(0x9E37_79B9);
            }
        });
        for threads in [2, 3, 8] {
            let mut out = vec![0u64; 1000];
            fill_spans(&mut out, threads, |base, span| {
                for (i, v) in span.iter_mut().enumerate() {
                    *v = ((base + i) as u64).wrapping_mul(0x9E37_79B9);
                }
            });
            assert_eq!(out, reference, "threads={threads}");
        }
    }

    #[test]
    fn queue_round_trips_and_closes() {
        let q: Queue<usize> = Queue::bounded(2);
        assert!(q.push(1));
        assert!(q.push(2));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_pop(), Some(2));
        assert_eq!(q.try_pop(), None);
        q.close();
        assert!(!q.push(3));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn queue_consumers_partition_the_stream_and_see_the_close() {
        // Closed before any consumer starts, so every item is still queued
        // at close time and must be delivered anyway.
        let q: Queue<usize> = Queue::bounded(100);
        for i in 0..100 {
            assert!(q.push(i));
        }
        q.close();
        let mut seen: Vec<usize> = std::thread::scope(|scope| {
            let consumers: Vec<_> = (0..3)
                .map(|_| {
                    scope.spawn(|| {
                        let mut got = Vec::new();
                        while let Some(item) = q.pop() {
                            got.push(item);
                        }
                        // Closed and drained: every later pop is `None` too.
                        assert_eq!(q.pop(), None);
                        got
                    })
                })
                .collect();
            consumers
                .into_iter()
                .flat_map(|c| c.join().expect("consumer"))
                .collect()
        });
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn lock_recovers_a_mutex_poisoned_by_a_panicking_holder() {
        let m = Mutex::new(0u32);
        let poisoned = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = lock(&m);
                    panic!("poison attempt");
                })
                .join()
                .is_err()
        });
        assert!(poisoned && m.is_poisoned());
        *lock(&m) += 1;
        assert_eq!(*lock(&m), 1);
    }
}
