//! Bulk materialization of the transitive closure over a *fragmented*
//! relation — the disconnection set approach of the source paper, run to
//! completion instead of per query.
//!
//! The paper's §2.1 observation is that fragmenting `R` by a
//! disconnection-set partition turns one big recursive query into many
//! small ones that "execute independently on the fragments, without need
//! for communication": a path that leaves a fragment crosses one of its
//! border nodes, so the closure from an interior source is its fragment's
//! local closure joined with the rows of those few borders. This module
//! family is that pipeline:
//!
//! - [`partition`] — split the edge relation by a
//!   [`ds_fragment::Fragmentation`] and precompute the border structure
//!   ([`FragmentPartition`]).
//! - [`engine`] — sweep the union graph once per border, then every
//!   fragment once per interior source, and fold each source's small
//!   access relation `(source, border, cost)` with the border rows
//!   ([`MaterializeEngine`]). Two flat task lists on scoped threads; no
//!   rounds, no fixpoint, nothing kept between runs.
//!
//! The result is **tuple-identical** to running
//! [`crate::tc::seminaive_closure`] on the union of all fragments — the
//! property tests enforce this across every generator × fragmenter
//! combination, symmetric and directed, full and keyhole — at the cost of
//! `borders` sweeps of the whole graph and one sweep of a *fragment* per
//! remaining source. The thinner the disconnection sets, the closer that
//! is to fragment-sized work throughout.
//!
//! ```
//! use ds_fragment::Fragmentation;
//! use ds_graph::{Edge, NodeId};
//! use ds_relation::bulk::{MaterializeConfig, MaterializeEngine};
//!
//! // Path 0-1-2-3 split at node 2 (DS = {2}).
//! let frag = Fragmentation::new(
//!     4,
//!     vec![
//!         vec![Edge::unit(NodeId(0), NodeId(1)), Edge::unit(NodeId(1), NodeId(2))],
//!         vec![Edge::unit(NodeId(2), NodeId(3))],
//!     ],
//!     vec![vec![], vec![]],
//! );
//! let engine = MaterializeEngine::from_fragmentation(&frag, true, MaterializeConfig::default());
//! let (closure, stats) = engine.materialize().unwrap();
//! assert_eq!(closure.cost_of(NodeId(0), NodeId(3)), Some(3));
//! // One sweep of the whole graph (from border 2), one fragment sweep
//! // for each of 0, 1 and 3, each folded with the border's row.
//! assert_eq!((stats.network_sweeps, stats.fragment_sweeps), (1, 3));
//! assert!(stats.exchanged_tuples > 0);
//! ```

pub mod engine;
pub mod partition;

pub use engine::{MaterializeConfig, MaterializeEngine, MaterializeError, MaterializeStats};
pub use partition::FragmentPartition;
