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
//!
//! Nobody is woken who is not asleep: the queue counts the consumers
//! parked in [`BoundedQueue::pop_batch`] under its mutex, and a push or a
//! pop reaches for the condition variable only when that count is
//! non-zero (`Condvar::notify_one` is a `futex` system call on Linux
//! whether or not anyone waits). With the pool busy a request crosses
//! the queue on the mutex alone.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

use ds_fault::{lock_unpoisoned, wait_unpoisoned};

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Consumers treat the queue as empty while paused (test hook for
    /// deterministically filling the queue; see `pause`).
    paused: bool,
    high_water: usize,
    /// Consumers parked on `not_empty` right now.
    waiting: usize,
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
                waiting: 0,
            }),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueue without ever blocking: at capacity the item is returned as
    /// [`PushError::Full`], after close as [`PushError::Closed`]. `Ok`
    /// says whether the push had to wake a parked consumer (`false`: the
    /// pool was busy, or paused, and finds the item on its next pop).
    pub fn try_push(&self, item: T) -> Result<bool, PushError<T>> {
        let mut inner = lock_unpoisoned(&self.inner);
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        inner.items.push_back(item);
        inner.high_water = inner.high_water.max(inner.items.len());
        let wake = inner.waiting > 0 && !inner.paused;
        drop(inner);
        if wake {
            self.not_empty.notify_one();
        }
        Ok(wake)
    }

    /// Take up to `max` items off the front and, if some remain while
    /// another consumer is parked, pass the wake-up on to it.
    fn drain(&self, mut inner: MutexGuard<'_, Inner<T>>, max: usize) -> Vec<T> {
        let take = inner.items.len().min(max.max(1));
        let batch: Vec<T> = inner.items.drain(..take).collect();
        let wake = inner.waiting > 0 && !inner.items.is_empty();
        drop(inner);
        if wake {
            self.not_empty.notify_one();
        }
        batch
    }

    /// Non-blocking dequeue of up to `max` items: `None` when nothing is
    /// pending right now (the consumer can release resources before
    /// falling back to the blocking [`BoundedQueue::pop_batch`]).
    pub fn try_pop_batch(&self, max: usize) -> Option<Vec<T>> {
        let inner = lock_unpoisoned(&self.inner);
        if inner.paused || inner.items.is_empty() {
            return None;
        }
        Some(self.drain(inner, max))
    }

    /// Dequeue up to `max` items in one lock acquisition, blocking while
    /// the queue is empty. An empty vec means: closed and fully drained —
    /// the consumer should exit.
    pub fn pop_batch(&self, max: usize) -> Vec<T> {
        let mut inner = lock_unpoisoned(&self.inner);
        loop {
            if !inner.paused && !inner.items.is_empty() {
                return self.drain(inner, max);
            }
            if inner.closed && !inner.paused {
                return Vec::new();
            }
            inner.waiting += 1;
            inner = wait_unpoisoned(&self.not_empty, inner);
            inner.waiting -= 1;
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

    /// Test hook: consumers parked in `pop_batch` right now, so a test
    /// can wait for the interleaving it is about instead of sleeping.
    #[cfg(test)]
    pub fn waiting(&self) -> usize {
        lock_unpoisoned(&self.inner).waiting
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

    fn until_parked<T>(q: &BoundedQueue<T>, consumers: usize) {
        while q.waiting() < consumers {
            std::thread::yield_now();
        }
    }

    /// A push wakes a consumer only if one is asleep, and says so.
    #[test]
    fn a_push_wakes_only_a_parked_consumer() {
        let q = Arc::new(BoundedQueue::<u32>::new(4));
        assert!(!q.try_push(1).ok().unwrap(), "nobody parked: no wake");
        assert_eq!(q.pop_batch(4), vec![1]);
        let qc = Arc::clone(&q);
        let consumer = std::thread::spawn(move || qc.pop_batch(4));
        until_parked(&q, 1);
        assert!(q.try_push(7).ok().unwrap(), "the first push wakes it");
        assert_eq!(consumer.join().unwrap(), vec![7]);
        assert_eq!(q.waiting(), 0);
    }

    /// Paused consumers cannot take an item, so pushes leave them asleep;
    /// lifting the pause is what wakes them.
    #[test]
    fn pushes_past_paused_consumers_wake_nobody() {
        let q = Arc::new(BoundedQueue::<u32>::new(16));
        q.pause();
        let qc = Arc::clone(&q);
        let consumer = std::thread::spawn(move || qc.pop_batch(16));
        until_parked(&q, 1);
        let wakes = (0..10u32).filter(|&i| q.try_push(i).ok().unwrap()).count();
        assert_eq!(wakes, 0);
        assert_eq!(q.waiting(), 1, "still parked behind the pause");
        q.unpause();
        assert_eq!(consumer.join().unwrap(), (0..10).collect::<Vec<_>>());
    }

    /// `close` reaches every parked consumer, not just one.
    #[test]
    fn close_releases_every_parked_consumer() {
        let q = Arc::new(BoundedQueue::<u32>::new(4));
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let qc = Arc::clone(&q);
                std::thread::spawn(move || qc.pop_batch(4))
            })
            .collect();
        until_parked(&q, 2);
        q.close();
        for c in consumers {
            assert!(c.join().unwrap().is_empty(), "the exit signal");
        }
        assert_eq!(q.waiting(), 0);
    }

    /// 4 producers x 2 consumers x 50k items: no wake-up is lost (the
    /// watchdog would catch the hang) and every item is consumed exactly
    /// once.
    #[test]
    fn many_producers_and_consumers_lose_and_repeat_nothing() {
        const PRODUCERS: u32 = 4;
        const PER_PRODUCER: u32 = 50_000;
        crate::tests::with_watchdog("queue hammer", 120, || {
            let q = Arc::new(BoundedQueue::<u32>::new(64));
            let consumers: Vec<_> = (0..2)
                .map(|_| {
                    let q = Arc::clone(&q);
                    std::thread::spawn(move || {
                        let mut seen = Vec::new();
                        loop {
                            let batch = q.pop_batch(8);
                            if batch.is_empty() {
                                return seen;
                            }
                            seen.extend(batch);
                        }
                    })
                })
                .collect();
            let producers: Vec<_> = (0..PRODUCERS)
                .map(|p| {
                    let q = Arc::clone(&q);
                    std::thread::spawn(move || {
                        for i in 0..PER_PRODUCER {
                            let mut item = p * PER_PRODUCER + i;
                            while let Err(PushError::Full(back)) = q.try_push(item) {
                                item = back;
                                std::thread::yield_now();
                            }
                        }
                    })
                })
                .collect();
            for p in producers {
                p.join().unwrap();
            }
            q.close();
            let mut seen: Vec<u32> = consumers
                .into_iter()
                .flat_map(|c| c.join().unwrap())
                .collect();
            seen.sort_unstable();
            assert!(
                seen.iter().copied().eq(0..PRODUCERS * PER_PRODUCER),
                "{} items consumed, first out of place at {:?}",
                seen.len(),
                seen.iter().zip(0u32..).find(|(a, b)| *a != b)
            );
        });
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
