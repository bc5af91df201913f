//! The workspace's one blocking hand-off, [`Queue`] (the serve daemon's
//! connection pool), and its one poison policy, [`lock`].

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

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

/// A minimal blocking MPMC queue (the serve daemon's connection pool).
/// Bounded `push` blocks while the queue is full; `pop` blocks while it
/// is empty; `close` wakes everyone and makes further `push`es no-ops and
/// drained `pop`s return `None`. Each pushed item is popped exactly once.
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

    #[test]
    fn queue_round_trips_and_closes() {
        let q: Queue<usize> = Queue::bounded(2);
        assert!(q.push(1));
        assert!(q.push(2));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
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
