//! # ds-closure — the disconnection set approach
//!
//! Parallel evaluation of transitive closure queries over a fragmented
//! relation, per Houtsma, Apers & Ceri (VLDB'90) as summarized in §2.1 of
//! the ICDE'93 paper this workspace reproduces:
//!
//! 1. **Precompute** complementary information: shortest distances between
//!    the border nodes of every disconnection set (stored at both adjacent
//!    sites) — [`complementary`].
//! 2. **Plan**: locate the fragments holding the query endpoints and find
//!    the chain(s) of fragments connecting them — [`planner`].
//! 3. **Evaluate locally**, one independent subquery per fragment on the
//!    chain, with *no communication*: each site computes a very small
//!    border-to-border distance relation on its fragment augmented with
//!    its complementary shortcuts — algebraically, from a dense border
//!    matrix and per-node access sets rather than by sweeping the
//!    augmented graph ([`local`]; [`executor`] places the subqueries and
//!    keeps the sweeping reference). The subqueries of the chains'
//!    interior sites mention no query endpoint and are evaluated once
//!    per epoch — [`memo`].
//! 4. **Assemble**: fold the small relations with min-plus joins and read
//!    off the answer — [`assemble`].
//!
//! [`EngineSnapshot`] is the pipeline, built from the fragmented relation
//! alone — the closure graph, the tables, the sites and the planner are
//! all derived from it — and queried through `&self` plus a scratch
//! kernel the caller owns; [`baseline`] holds the centralized algorithms
//! it is validated against, and [`phe`] implements the Parallel
//! Hierarchical Evaluation extension (ref \[12\]) for fragmentation
//! graphs too complex to enumerate.
//!
//! [`api`] holds the structural edit rule ([`api::apply_edit`]: the one
//! place an update changes the relation), the batch driver, and
//! [`TcEngine`], the query surface (single queries, routes, updates, and
//! the amortized [`TcEngine::query_batch`]) the umbrella crate's `System`
//! facade implements over a snapshot and a scratch of its own. Running
//! each site subquery on a thread of its own is a placement of the one
//! evaluator ([`executor::ExecutionMode`]), which the facade spells
//! `Backend::SiteThreads`.
//!
//! ```
//! use ds_closure::{EngineConfig, EngineSnapshot};
//! use ds_fragment::linear::{linear_sweep, LinearConfig};
//! use ds_gen::deterministic::grid;
//! use ds_graph::{NodeId, ScratchDijkstra};
//!
//! let g = grid(10, 3);
//! let frag = linear_sweep(&g.edge_list(), &LinearConfig { fragments: 3, ..Default::default() })
//!     .unwrap()
//!     .fragmentation;
//! let engine = EngineSnapshot::build(frag, true, EngineConfig::default());
//! let answer = engine.shortest_path(NodeId(0), NodeId(29), &mut ScratchDijkstra::new());
//! assert_eq!(answer.cost, Some(11)); // corner to corner of the grid
//! ```

pub mod api;
pub mod assemble;
pub mod baseline;
pub mod bulk;
pub mod complementary;
pub mod engine;
pub mod error;
pub mod executor;
pub mod local;
pub mod memo;
pub mod phe;
pub mod planner;
pub mod snapshot;
pub mod updates;

pub use api::{BatchAnswer, BatchStats, BoundedBatchAnswer, NetworkUpdate, QueryRequest, TcEngine};
pub use complementary::{
    BorderTable, ComplementaryInfo, ComplementaryScope, PrecomputeStats, PrecomputeStrategy,
};
pub use engine::{EngineConfig, QueryAnswer, QueryStats, Route};
pub use error::ClosureError;
pub use snapshot::{CowMaintenance, EngineSnapshot, SnapshotBytes};
pub use updates::{ConnectivityEffect, FallbackReason, UpdateBatchReport, UpdateReport};
