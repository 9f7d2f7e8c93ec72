//! The fragmented relation as the sequential oracle sees it, and the
//! vocabulary of a bulk materialization run.
//!
//! §2.1: "R is partitioned into n fragments R_i, each stored at a
//! different computer or processor". [`partition`] lifts a
//! [`ds_fragment::Fragmentation`] into per-fragment relations
//! ([`FragmentPartition`]) whose union is exactly the relation the
//! closure engine answers for — the input [`crate::tc::seminaive_closure`]
//! runs on whenever a materialized relation is checked.
//!
//! The materialization itself reads the epoch's complementary
//! information and lives beside the engine
//! (`ds_closure::EngineSnapshot::materialize`); [`run`] holds what one
//! run takes and reports ([`MaterializeConfig`], [`MaterializeStats`],
//! [`MaterializeError`]).
//!
//! ```
//! use ds_fragment::Fragmentation;
//! use ds_graph::{Edge, NodeId};
//! use ds_relation::bulk::FragmentPartition;
//! use ds_relation::tc::seminaive_closure;
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
//! let partition = FragmentPartition::new(&frag, true);
//! assert_eq!(partition.borders(0), &[NodeId(2)]);
//! let (closure, _) = seminaive_closure(&partition.union_relation(), None);
//! assert_eq!(closure.cost_of(NodeId(0), NodeId(3)), Some(3));
//! ```

pub mod partition;
pub mod run;

pub use partition::FragmentPartition;
pub use run::{MaterializeConfig, MaterializeError, MaterializeStats};
