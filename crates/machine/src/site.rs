//! A site: one processor of the simulated database machine.
//!
//! A site owns its fragment edges and the shortcut table stored at it,
//! and derives its augmented local graph from them — so a [`SiteDelta`]
//! (an edge change and/or a refreshed shortcut table) can be applied
//! locally, without the coordinator reshipping the world. It never reads
//! shared state — the shared-nothing property is enforced by ownership:
//! `run_site` moves the [`SiteInit`] into the thread.

use std::sync::{mpsc, Arc};
use std::time::Instant;

use ds_closure::local::{border_matrix_with, SiteGraph};
use ds_fault::{FaultPlan, FaultPoint};
use ds_graph::{Edge, ScratchDijkstra};

use crate::protocol::{EdgeChange, SiteDelta, SiteRequest, SiteResponse, SubQueryResult};

/// Everything a site owns: shipped once at deployment, mutated only by
/// deltas.
#[derive(Clone, Debug)]
pub struct SiteInit {
    pub site: usize,
    pub node_count: usize,
    /// Whether each fragment tuple stands for both travel directions.
    pub symmetric: bool,
    /// The site's fragment tuples.
    pub frag_edges: Vec<Edge>,
    /// The complementary shortcut tuples stored at this site.
    pub shortcuts: Vec<Edge>,
}

impl SiteInit {
    fn augmented(&self) -> SiteGraph {
        SiteGraph::build(
            self.node_count,
            &self.frag_edges,
            self.symmetric,
            &self.shortcuts,
        )
    }

    fn apply(&mut self, delta: &SiteDelta) {
        match delta.edge_change {
            Some(EdgeChange::Insert(edge)) => self.frag_edges.push(edge),
            Some(EdgeChange::Remove { src, dst }) => {
                let symmetric = self.symmetric;
                self.frag_edges.retain(|e| !e.connects(src, dst, symmetric));
            }
            None => {}
        }
        if let Some(shortcuts) = &delta.shortcuts {
            self.shortcuts = shortcuts.clone();
        }
    }
}

/// Site main loop. Returns when a `Shutdown` arrives or the request
/// channel closes.
///
/// The site owns one [`ScratchDijkstra`] for its whole lifetime: every
/// subquery message reuses its stamped arrays, so steady-state message
/// processing performs no per-query O(V) allocations.
pub fn run_site(
    mut state: SiteInit,
    requests: mpsc::Receiver<SiteRequest>,
    responses: mpsc::Sender<SiteResponse>,
    fault: Option<Arc<FaultPlan>>,
) {
    let mut augmented = state.augmented();
    let mut scratch = ScratchDijkstra::new();
    while let Ok(req) = requests.recv() {
        // Deterministic fault hook, counted per received message: `Panic`
        // unwinds the thread, `Fail` dies silently mid-protocol — either
        // way the coordinator sees a site that stopped answering.
        if ds_fault::fire(&fault, FaultPoint::MachineSite { site: state.site }) {
            return;
        }
        match req {
            SiteRequest::SubQuery {
                tag,
                trace,
                sources,
                targets,
            } => {
                let start = Instant::now();
                let matrix = border_matrix_with(&augmented, &sources, &targets, &mut scratch);
                let resp = SiteResponse::SubQuery(SubQueryResult {
                    site: state.site,
                    tag,
                    trace,
                    matrix,
                    busy: start.elapsed(),
                });
                if responses.send(resp).is_err() {
                    return; // coordinator gone
                }
            }
            SiteRequest::Delta(delta) => {
                let start = Instant::now();
                state.apply(&delta);
                augmented = state.augmented();
                let resp = SiteResponse::DeltaApplied {
                    site: state.site,
                    tag: delta.tag,
                    busy: start.elapsed(),
                };
                if responses.send(resp).is_err() {
                    return;
                }
            }
            SiteRequest::Shutdown => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_graph::NodeId;
    use ds_obs::TraceId;

    fn init() -> SiteInit {
        SiteInit {
            site: 7,
            node_count: 3,
            symmetric: false,
            frag_edges: vec![
                Edge::unit(NodeId(0), NodeId(1)),
                Edge::unit(NodeId(1), NodeId(2)),
            ],
            shortcuts: vec![],
        }
    }

    fn expect_rows(resp: SiteResponse) -> SubQueryResult {
        match resp {
            SiteResponse::SubQuery(r) => r,
            other => panic!("expected subquery result, got {other:?}"),
        }
    }

    #[test]
    fn site_answers_and_shuts_down() {
        let (req_tx, req_rx) = mpsc::channel();
        let (resp_tx, resp_rx) = mpsc::channel();
        let h = std::thread::spawn(move || run_site(init(), req_rx, resp_tx, None));
        req_tx
            .send(SiteRequest::SubQuery {
                tag: 42,
                trace: TraceId::NONE,
                sources: vec![NodeId(0)],
                targets: vec![NodeId(2)],
            })
            .unwrap();
        let resp = expect_rows(resp_rx.recv().unwrap());
        assert_eq!(resp.site, 7);
        assert_eq!(resp.tag, 42);
        assert_eq!(resp.matrix.costs(), &[2]);
        req_tx.send(SiteRequest::Shutdown).unwrap();
        h.join().unwrap();
    }

    #[test]
    fn delta_rebuilds_the_augmented_graph() {
        let (req_tx, req_rx) = mpsc::channel();
        let (resp_tx, resp_rx) = mpsc::channel();
        let h = std::thread::spawn(move || run_site(init(), req_rx, resp_tx, None));
        // Remove 1 -> 2: node 2 becomes unreachable from 0.
        req_tx
            .send(SiteRequest::Delta(SiteDelta {
                tag: 1,
                edge_change: Some(EdgeChange::Remove {
                    src: NodeId(1),
                    dst: NodeId(2),
                }),
                shortcuts: None,
            }))
            .unwrap();
        match resp_rx.recv().unwrap() {
            SiteResponse::DeltaApplied { site, tag, .. } => {
                assert_eq!((site, tag), (7, 1));
            }
            other => panic!("expected delta ack, got {other:?}"),
        }
        req_tx
            .send(SiteRequest::SubQuery {
                tag: 2,
                trace: TraceId::NONE,
                sources: vec![NodeId(0)],
                targets: vec![NodeId(2)],
            })
            .unwrap();
        let resp = expect_rows(resp_rx.recv().unwrap());
        assert_eq!(resp.matrix.tuples(), 0, "edge removed, no path");
        // Ship a shortcut table instead: reachability returns.
        req_tx
            .send(SiteRequest::Delta(SiteDelta {
                tag: 3,
                edge_change: None,
                shortcuts: Some(vec![Edge::new(NodeId(0), NodeId(2), 9)]),
            }))
            .unwrap();
        resp_rx.recv().unwrap();
        req_tx
            .send(SiteRequest::SubQuery {
                tag: 4,
                trace: TraceId::NONE,
                sources: vec![NodeId(0)],
                targets: vec![NodeId(2)],
            })
            .unwrap();
        let resp = expect_rows(resp_rx.recv().unwrap());
        assert_eq!(resp.matrix.costs(), &[9]);
        req_tx.send(SiteRequest::Shutdown).unwrap();
        h.join().unwrap();
    }

    #[test]
    fn site_exits_when_channel_closes() {
        let (req_tx, req_rx) = mpsc::channel::<SiteRequest>();
        let (resp_tx, _resp_rx) = mpsc::channel();
        let mut st = init();
        st.frag_edges.clear();
        let h = std::thread::spawn(move || run_site(st, req_rx, resp_tx, None));
        drop(req_tx);
        h.join().unwrap();
    }
}
