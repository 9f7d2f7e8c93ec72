//! Errors of the disconnection set engine.

use std::fmt;
use std::time::Duration;

use ds_graph::{Cost, NodeId};

/// Errors raised when querying or updating the engine.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ClosureError {
    /// A query endpoint belongs to no fragment (should not happen for
    /// fragmentations produced by this workspace's algorithms, which seed
    /// every node somewhere).
    NodeNotInAnyFragment(NodeId),
    /// The serve worker evaluating this request's micro-batch panicked.
    /// The request was not answered; the worker has been respawned and a
    /// retry will be served normally.
    WorkerFailed,
    /// The request sat in the serve queue past its deadline and was shed
    /// without evaluation; `waited` is how long it had been queued.
    DeadlineExceeded { waited: Duration },
    /// The serve writer died: the server is in read-only degraded mode.
    /// Reads keep serving the last published epoch; updates are refused.
    WriterDown,
    /// The serve writer died mid-update and was respawned from the last
    /// published snapshot. This update was *not* applied; a retry will
    /// be served normally by the fresh writer. (With durability enabled
    /// the update may have reached the write-ahead log before the death
    /// — in that case the respawned writer redoes it from the log, so a
    /// retry could apply it twice; check the published state first.)
    WriterRestarted,
    /// The durable write-ahead log refused this update's group commit
    /// (I/O error or injected disk fault). The update was **not**
    /// applied — durability is append-before-apply — and the server
    /// keeps serving reads; a retry goes through the repaired log.
    DurabilityFailed,
    /// An insert's edge costs more than the network admits: `(n − 1) ·
    /// cost ≥ u32::MAX / 4` for its `n` nodes, so some distance could
    /// overflow the 32-bit words the hub and the border rows hold
    /// ([`crate::bulk::max_edge_cost`] is `limit`). Nothing was applied.
    EdgeCostOverLimit { cost: Cost, limit: Cost },
}

impl fmt::Display for ClosureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClosureError::NodeNotInAnyFragment(v) => {
                write!(f, "node {v} belongs to no fragment")
            }
            ClosureError::WorkerFailed => {
                write!(f, "serve worker panicked while evaluating this batch")
            }
            ClosureError::DeadlineExceeded { waited } => {
                write!(f, "request shed after waiting {waited:?} past its deadline")
            }
            ClosureError::WriterDown => {
                write!(f, "writer thread is down; server is read-only (degraded)")
            }
            ClosureError::WriterRestarted => {
                write!(
                    f,
                    "writer died mid-update and was respawned; this update was not applied — retry"
                )
            }
            ClosureError::DurabilityFailed => {
                write!(
                    f,
                    "write-ahead log refused the append; update not applied — retry"
                )
            }
            ClosureError::EdgeCostOverLimit { cost, limit } => {
                write!(
                    f,
                    "edge cost {cost} is over {limit}, the most this network admits"
                )
            }
        }
    }
}

impl std::error::Error for ClosureError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert!(ClosureError::NodeNotInAnyFragment(NodeId(3))
            .to_string()
            .contains('3'));
        assert!(ClosureError::WorkerFailed.to_string().contains("worker"));
        assert!(ClosureError::DeadlineExceeded {
            waited: Duration::from_millis(5)
        }
        .to_string()
        .contains("shed"));
        assert!(ClosureError::WriterDown.to_string().contains("read-only"));
        assert!(ClosureError::WriterRestarted.to_string().contains("retry"));
        assert!(ClosureError::DurabilityFailed
            .to_string()
            .contains("not applied"));
        let over = ClosureError::EdgeCostOverLimit { cost: 9, limit: 8 };
        assert!(over.to_string().contains("over 8"));
    }
}
