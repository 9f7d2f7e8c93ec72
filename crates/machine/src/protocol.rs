//! Coordinator ↔ site message protocol.
//!
//! The message kinds a PRISMA-style evaluation needs: a subquery request
//! (carrying the entry and exit disconnection sets — the "keyhole"
//! selections), its small result relation, and — since updates became
//! incremental — a *delta*: the owner fragment's edge change and/or a
//! refreshed shortcut table, shipped only to the sites the shared
//! maintenance path (`ds_closure::updates::maintain`) reports as touched.
//! Everything else (the fragment, the complementary information) was
//! shipped once at deployment.

use std::time::Duration;

use ds_closure::local::SegmentMatrix;
use ds_graph::{Edge, NodeId};
use ds_obs::TraceId;

/// Coordinator → site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SiteRequest {
    /// Evaluate border-to-border shortest paths on the site's augmented
    /// fragment.
    SubQuery {
        /// Correlation tag echoed in the response.
        tag: u64,
        /// Request trace id ([`TraceId::NONE`] when observability is
        /// disarmed), echoed in the response so per-site spans can be
        /// attributed to the originating request.
        trace: TraceId,
        sources: Vec<NodeId>,
        targets: Vec<NodeId>,
    },
    /// Apply an incremental update and rebuild the local augmented graph.
    Delta(SiteDelta),
    /// Terminate the site thread.
    Shutdown,
}

/// One site's share of a network update. At least one of the two payload
/// fields is present: the owner site gets the edge change; every site
/// whose shortcut table changed gets the refreshed tuples.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SiteDelta {
    /// Correlation tag echoed in the acknowledgement.
    pub tag: u64,
    /// The fragment edge change, if this site owns the updated fragment.
    pub edge_change: Option<EdgeChange>,
    /// Replacement shortcut table, if this site's complementary
    /// information changed.
    pub shortcuts: Option<Vec<Edge>>,
}

/// The structural half of a delta, as the owner site applies it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeChange {
    /// Add this connection to the fragment.
    Insert(Edge),
    /// Drop every fragment connection `src -> dst` (and the reverse on
    /// symmetric sites).
    Remove { src: NodeId, dst: NodeId },
}

/// Site → coordinator.
#[derive(Clone, Debug)]
pub enum SiteResponse {
    /// The "very small relation" of phase one plus accounting.
    SubQuery(SubQueryResult),
    /// A delta was applied and the augmented graph rebuilt.
    DeltaApplied {
        site: usize,
        tag: u64,
        /// Time spent applying the delta and rebuilding.
        busy: Duration,
    },
}

/// Payload of [`SiteResponse::SubQuery`].
#[derive(Clone, Debug)]
pub struct SubQueryResult {
    pub site: usize,
    pub tag: u64,
    /// The request trace id from the triggering [`SiteRequest::SubQuery`].
    pub trace: TraceId,
    /// Costs from each requested source to each requested target, in
    /// request order.
    pub matrix: SegmentMatrix,
    /// Processing time at the site (the workload-balance measure of
    /// §2.2).
    pub busy: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_compare() {
        let a = SiteRequest::SubQuery {
            tag: 1,
            trace: TraceId::NONE,
            sources: vec![NodeId(0)],
            targets: vec![],
        };
        let b = a.clone();
        assert_eq!(a, b);
        assert_ne!(a, SiteRequest::Shutdown);
    }

    #[test]
    fn deltas_compare() {
        let d = SiteDelta {
            tag: 3,
            edge_change: Some(EdgeChange::Remove {
                src: NodeId(1),
                dst: NodeId(2),
            }),
            shortcuts: None,
        };
        assert_eq!(SiteRequest::Delta(d.clone()), SiteRequest::Delta(d));
    }
}
