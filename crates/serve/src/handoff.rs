//! The reply half of a request's hand-off: what a client holds while the
//! pool works on its job.

use std::sync::mpsc;

use ds_closure::ClosureError;

use crate::server::ServedBatch;
#[allow(unused_imports)] // doc links
use crate::server::Server;

/// An admitted (but not yet answered) job: the handle
/// [`Server::submit`] returns. [`PendingBatch::wait`] blocks until the
/// worker pool replies.
#[derive(Debug)]
pub struct PendingBatch {
    pub(crate) rx: mpsc::Receiver<Result<ServedBatch, ClosureError>>,
}

impl PendingBatch {
    /// Block until the pool resolves this job — with the answers, or
    /// with the typed error the supervisor attached (worker panic,
    /// deadline shed). Never hangs: if the worker holding the job died
    /// without replying, the dropped channel reports
    /// [`ClosureError::WorkerFailed`].
    pub fn wait(self) -> Result<ServedBatch, ClosureError> {
        match self.rx.recv() {
            Ok(outcome) => outcome,
            Err(mpsc::RecvError) => Err(ClosureError::WorkerFailed),
        }
    }
}
