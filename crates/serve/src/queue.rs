//! A bounded multi-producer multi-consumer job queue (`Mutex` +
//! `Condvar`, std only), built for micro-batching consumers: a worker
//! takes *everything pending* (up to a cap) in one lock acquisition, so
//! queue depth converts directly into batch size.
//!
//! Producers never block: [`BoundedQueue::try_push`] **rejects** when the
//! queue is at capacity (load shedding) and the caller decides whether to
//! back off and retry or propagate the rejection to its client with a
//! retry-after hint. The queue keeps what only it can know — current
//! depth and high-water mark — for `ServeStats`; rejections are counted
//! by the caller that sheds, beside every other serve event.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

use ds_fault::{lock_unpoisoned, wait_unpoisoned};

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Consumers treat the queue as empty while paused (test hook for
    /// deterministically filling the queue; see `pause`).
    paused: bool,
    high_water: usize,
}

/// Why a [`BoundedQueue::try_push`] was refused.
pub(crate) enum PushError<T> {
    /// The queue is at capacity; the item comes back to the caller
    /// (load shedding — back off and retry, or reject upstream).
    Full(T),
    /// The queue has been closed; no further work is accepted.
    Closed(T),
}

/// Bounded FIFO queue. `try_push` sheds load while full; `pop_batch`
/// blocks while empty; closing wakes everyone.
pub(crate) struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity.min(1024)),
                closed: false,
                paused: false,
                high_water: 0,
            }),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueue without ever blocking: at capacity the item is returned as
    /// [`PushError::Full`], after close as [`PushError::Closed`].
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut inner = lock_unpoisoned(&self.inner);
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        inner.items.push_back(item);
        inner.high_water = inner.high_water.max(inner.items.len());
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Non-blocking dequeue of up to `max` items: `None` when nothing is
    /// pending right now (the consumer can release resources before
    /// falling back to the blocking [`BoundedQueue::pop_batch`]).
    pub fn try_pop_batch(&self, max: usize) -> Option<Vec<T>> {
        let mut inner = lock_unpoisoned(&self.inner);
        if inner.paused || inner.items.is_empty() {
            return None;
        }
        let take = inner.items.len().min(max.max(1));
        let batch: Vec<T> = inner.items.drain(..take).collect();
        drop(inner);
        self.not_empty.notify_one();
        Some(batch)
    }

    /// Dequeue up to `max` items in one lock acquisition, blocking while
    /// the queue is empty. An empty vec means: closed and fully drained —
    /// the consumer should exit.
    pub fn pop_batch(&self, max: usize) -> Vec<T> {
        let mut inner = lock_unpoisoned(&self.inner);
        loop {
            if !inner.paused && !inner.items.is_empty() {
                let take = inner.items.len().min(max.max(1));
                let batch: Vec<T> = inner.items.drain(..take).collect();
                drop(inner);
                // Wake another consumer, in case items remain.
                self.not_empty.notify_one();
                return batch;
            }
            if inner.closed && !inner.paused {
                return Vec::new();
            }
            inner = wait_unpoisoned(&self.not_empty, inner);
        }
    }

    /// Jobs currently waiting (not yet drained by a consumer).
    pub fn depth(&self) -> usize {
        lock_unpoisoned(&self.inner).items.len()
    }

    /// The deepest the queue has ever been.
    pub fn high_water(&self) -> usize {
        lock_unpoisoned(&self.inner).high_water
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Test hook: make consumers treat the queue as empty, so producers
    /// can fill it to capacity deterministically.
    #[cfg(test)]
    pub fn pause(&self) {
        lock_unpoisoned(&self.inner).paused = true;
    }

    /// Test hook: release paused consumers.
    #[cfg(test)]
    pub fn unpause(&self) {
        lock_unpoisoned(&self.inner).paused = false;
        self.not_empty.notify_all();
    }

    /// Close the queue: producers get their item back, consumers drain
    /// what is left and then see the empty-vec exit signal. Clears any
    /// test-hook pause so shutdown can never strand a consumer waiting
    /// behind a pause that will not be lifted.
    pub fn close(&self) {
        let mut inner = lock_unpoisoned(&self.inner);
        inner.closed = true;
        inner.paused = false;
        drop(inner);
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_within_a_batch() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.try_push(i).ok().unwrap();
        }
        assert_eq!(q.pop_batch(3), vec![0, 1, 2]);
        assert_eq!(q.pop_batch(10), vec![3, 4]);
    }

    #[test]
    fn try_pop_never_blocks() {
        let q = BoundedQueue::new(8);
        assert_eq!(q.try_pop_batch(4), None, "empty: no batch, no block");
        q.try_push(9).ok().unwrap();
        assert_eq!(q.try_pop_batch(4), Some(vec![9]));
        q.close();
        assert_eq!(q.try_pop_batch(4), None, "closed and drained");
    }

    #[test]
    fn close_drains_then_signals_exit() {
        let q = BoundedQueue::new(8);
        q.try_push(1).ok().unwrap();
        q.close();
        assert!(
            matches!(q.try_push(2), Err(PushError::Closed(2))),
            "closed queue rejects producers"
        );
        assert_eq!(q.pop_batch(4), vec![1], "pending items still drain");
        assert!(q.pop_batch(4).is_empty(), "then the exit signal");
    }

    /// A full queue sheds instead of blocking: the producer gets the item
    /// back immediately and the depth stats reflect the pressure.
    #[test]
    fn full_queue_sheds_and_counts() {
        let q = BoundedQueue::new(2);
        q.try_push(0).ok().unwrap();
        q.try_push(1).ok().unwrap();
        match q.try_push(2) {
            Err(PushError::Full(item)) => assert_eq!(item, 2, "item handed back"),
            _ => panic!("full queue must shed"),
        }
        assert_eq!(q.depth(), 2);
        assert_eq!(q.high_water(), 2);
        assert_eq!(q.capacity(), 2);
        // Space freed: the next push is admitted again.
        assert_eq!(q.pop_batch(1), vec![0]);
        q.try_push(2).ok().unwrap();
        let mut rest = q.pop_batch(4);
        rest.sort();
        assert_eq!(rest, vec![1, 2]);
    }

    #[test]
    fn consumers_block_until_work_arrives() {
        let q = Arc::new(BoundedQueue::<u32>::new(4));
        let qc = Arc::clone(&q);
        let consumer = std::thread::spawn(move || qc.pop_batch(4));
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.try_push(7).ok().unwrap();
        assert_eq!(consumer.join().unwrap(), vec![7]);
    }

    /// The pause hook makes consumers ignore pending work, so a test can
    /// fill the queue to capacity deterministically.
    #[test]
    fn paused_consumers_see_an_empty_queue() {
        let q = Arc::new(BoundedQueue::<u32>::new(2));
        q.pause();
        q.try_push(1).ok().unwrap();
        assert_eq!(q.try_pop_batch(4), None, "paused: nothing to pop");
        let qc = Arc::clone(&q);
        let consumer = std::thread::spawn(move || qc.pop_batch(4));
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.unpause();
        assert_eq!(consumer.join().unwrap(), vec![1]);
    }

    /// Closing overrides a pause: a consumer blocked behind the test
    /// hook still drains and exits, so a panicking test (whose Drop
    /// closes the queue without unpausing) cannot hang the join.
    #[test]
    fn close_releases_paused_consumers() {
        let q = Arc::new(BoundedQueue::<u32>::new(2));
        q.pause();
        q.try_push(5).ok().unwrap();
        let qc = Arc::clone(&q);
        let consumer = std::thread::spawn(move || (qc.pop_batch(4), qc.pop_batch(4)));
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        let (drained, exit) = consumer.join().unwrap();
        assert_eq!(drained, vec![5], "pending items drain despite the pause");
        assert!(exit.is_empty(), "then the exit signal");
    }
}
