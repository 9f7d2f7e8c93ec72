//! The reply half of a request's hand-off: a one-shot slot the worker
//! (or the writer) fills and the client waits on.
//!
//! One allocation carries one value: a `Mutex`-guarded `Option` plus a
//! `Condvar`, shared by a [`ReplySender`] and a [`ReplyReceiver`]. A reply
//! that is already there when the client looks costs the mutex alone; the
//! condition variable is touched only when the client had to park before
//! the reply arrived (`Condvar::notify_one` is a `futex` system call on
//! Linux whether or not anyone waits). A sender dropped without replying
//! releases the waiter with `None`, which is how a dead worker or writer
//! resolves its in-flight requests to a typed error instead of a hang.
//! Reads ([`PendingBatch`]) and writes (`Server::update`) wait on the
//! same type.

use std::sync::{Arc, Condvar, Mutex};

use ds_closure::ClosureError;
use ds_fault::{lock_unpoisoned, wait_unpoisoned};
use ds_obs::Counter;

use crate::server::ServedBatch;
#[allow(unused_imports)] // doc links
use crate::server::Server;

struct SlotState<T> {
    value: Option<T>,
    /// The sender replied or went away: nothing more will arrive.
    closed: bool,
    /// The receiver is parked on `ready`.
    parked: bool,
}

struct Slot<T> {
    state: Mutex<SlotState<T>>,
    ready: Condvar,
}

/// The filling side of a reply slot.
pub(crate) struct ReplySender<T>(Arc<Slot<T>>);

/// The waiting side of a reply slot.
pub(crate) struct ReplyReceiver<T>(Arc<Slot<T>>);

/// A fresh one-shot slot: one allocation, no system call.
pub(crate) fn reply_slot<T>() -> (ReplySender<T>, ReplyReceiver<T>) {
    let slot = Arc::new(Slot {
        state: Mutex::new(SlotState {
            value: None,
            closed: false,
            parked: false,
        }),
        ready: Condvar::new(),
    });
    (ReplySender(Arc::clone(&slot)), ReplyReceiver(slot))
}

impl<T> ReplySender<T> {
    /// Fill the slot. Wakes the receiver only if it is parked, counting
    /// that on `parks` while the slot's mutex is held — the receiver
    /// cannot return before it takes that mutex, so it sees its own park
    /// counted. A receiver that already went away makes this a silent
    /// no-op (the value is dropped with the slot); a second `send` is
    /// refused with `false`.
    pub fn send(&self, value: T, parks: &Counter) -> bool {
        let mut state = lock_unpoisoned(&self.0.state);
        if state.closed {
            return false;
        }
        state.value = Some(value);
        state.closed = true;
        let wake = state.parked;
        if wake {
            parks.inc();
        }
        drop(state);
        if wake {
            self.0.ready.notify_one();
        }
        true
    }
}

#[cfg(test)]
impl<T> ReplySender<T> {
    /// Test hook: has the receiver parked yet?
    fn receiver_parked(&self) -> bool {
        lock_unpoisoned(&self.0.state).parked
    }
}

impl<T> Drop for ReplySender<T> {
    /// A sender that goes away unsent releases the waiter empty-handed.
    fn drop(&mut self) {
        let mut state = lock_unpoisoned(&self.0.state);
        if state.closed {
            return;
        }
        state.closed = true;
        let wake = state.parked;
        drop(state);
        if wake {
            self.0.ready.notify_one();
        }
    }
}

impl<T> ReplyReceiver<T> {
    /// Block until the sender replies (`Some`) or goes away without
    /// replying (`None`).
    pub fn wait(self) -> Option<T> {
        let mut state = lock_unpoisoned(&self.0.state);
        while !state.closed {
            state.parked = true;
            state = wait_unpoisoned(&self.0.ready, state);
        }
        state.value.take()
    }
}

/// An admitted (but not yet answered) job: the handle
/// [`Server::submit`] returns. [`PendingBatch::wait`] blocks until the
/// worker pool replies.
pub struct PendingBatch(Pending);

enum Pending {
    /// Resolved at admission: nothing was queued.
    Ready(Result<ServedBatch, ClosureError>),
    Queued(ReplyReceiver<Result<ServedBatch, ClosureError>>),
}

impl PendingBatch {
    pub(crate) fn ready(outcome: Result<ServedBatch, ClosureError>) -> Self {
        PendingBatch(Pending::Ready(outcome))
    }

    pub(crate) fn queued(rx: ReplyReceiver<Result<ServedBatch, ClosureError>>) -> Self {
        PendingBatch(Pending::Queued(rx))
    }

    /// Block until the pool resolves this job — with the answers, or
    /// with the typed error the supervisor attached (worker panic,
    /// deadline shed). Never hangs: if the worker holding the job died
    /// without replying, the dropped sender reports
    /// [`ClosureError::WorkerFailed`].
    pub fn wait(self) -> Result<ServedBatch, ClosureError> {
        match self.0 {
            Pending::Ready(outcome) => outcome,
            Pending::Queued(rx) => rx.wait().unwrap_or(Err(ClosureError::WorkerFailed)),
        }
    }
}

impl std::fmt::Debug for PendingBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self.0 {
            Pending::Ready(_) => "PendingBatch(ready)",
            Pending::Queued(_) => "PendingBatch(queued)",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn until_parked<T>(tx: &ReplySender<T>) {
        while !tx.receiver_parked() {
            std::thread::yield_now();
        }
    }

    /// A reply that is there before the client looks wakes nobody.
    #[test]
    fn send_then_wait_parks_nobody() {
        let parks = Counter::new();
        let (tx, rx) = reply_slot();
        assert!(tx.send(5u32, &parks));
        assert_eq!(rx.wait(), Some(5));
        assert_eq!(parks.get(), 0);
    }

    /// A client that got there first parks, and the reply wakes it: one
    /// park counted, by the time the client has its value.
    #[test]
    fn wait_then_send_counts_one_park() {
        let parks = Counter::new();
        let (tx, rx) = reply_slot();
        let waiter = {
            let parks = parks.clone();
            std::thread::spawn(move || (rx.wait(), parks.get()))
        };
        until_parked(&tx);
        assert!(tx.send(9u32, &parks));
        assert_eq!(waiter.join().unwrap(), (Some(9), 1));
    }

    /// The slot holds one reply: a second `send` is refused and changes
    /// nothing.
    #[test]
    fn a_second_send_is_refused() {
        let parks = Counter::new();
        let (tx, rx) = reply_slot();
        assert!(tx.send(1u32, &parks));
        assert!(!tx.send(2, &parks));
        assert_eq!(rx.wait(), Some(1));
    }

    /// A sender that goes away unsent releases its waiter — parked or
    /// not — empty-handed, which a read reports as `WorkerFailed`.
    #[test]
    fn a_dropped_sender_releases_the_waiter() {
        let (tx, rx) = reply_slot::<u32>();
        drop(tx);
        assert_eq!(rx.wait(), None, "gone before the client looked");

        let (tx, rx) = reply_slot::<u32>();
        let waiter = std::thread::spawn(move || rx.wait());
        until_parked(&tx);
        drop(tx);
        assert_eq!(waiter.join().unwrap(), None, "gone while it was parked");

        let (tx, rx) = reply_slot();
        drop(tx);
        assert!(matches!(
            PendingBatch::queued(rx).wait(),
            Err(ClosureError::WorkerFailed)
        ));
    }

    /// A client that stopped caring does not trouble the sender.
    #[test]
    fn a_dropped_receiver_makes_send_a_silent_no_op() {
        let parks = Counter::new();
        let (tx, rx) = reply_slot();
        drop(rx);
        assert!(tx.send(3u32, &parks));
        assert_eq!(parks.get(), 0);
    }
}
