//! # ds-relation — a minimal relational algebra substrate
//!
//! The paper frames everything relationally: the graph is a relation
//! `R(src, dst, cost)`, transitive closure is an iterated join, the
//! disconnection sets "introduce additional selections in the processing
//! of the recursive query", and the final assembly "is effectively a
//! sequence of binary joins between a number of very small relations"
//! (§2.1). This crate provides exactly those operators:
//!
//! * [`Relation`] — a typed, in-memory relation with selection,
//!   projection, union and deduplication;
//! * [`join`] — hash joins, including the min-plus path composition the
//!   closure engine's final assembly uses;
//! * [`tc`] — naive and semi-naive transitive closure as join programs,
//!   with iteration and tuple statistics (the measures behind the paper's
//!   speed-up arguments);
//! * [`bulk`] — materialization by the disconnection set approach: one
//!   sweep of the whole graph per border node, one sweep of its own
//!   fragment per interior source, joined through the border rows.
//!
//! ```
//! use ds_relation::tuple::PathTuple;
//! use ds_relation::{Relation, tc};
//! use ds_graph::NodeId;
//!
//! let edges = Relation::from_rows("edge", vec![
//!     PathTuple::new(NodeId(0), NodeId(1), 3),
//!     PathTuple::new(NodeId(1), NodeId(2), 4),
//! ]);
//! let (closure, stats) = tc::seminaive_closure(&edges, None);
//! assert_eq!(closure.rows().len(), 3); // (0,1), (1,2), (0,2)
//! assert!(stats.iterations <= 2);
//! ```

pub mod bulk;
pub mod join;
pub mod relation;
pub mod stats;
pub mod tc;
pub mod tuple;

pub use bulk::{MaterializeConfig, MaterializeEngine, MaterializeError, MaterializeStats};
pub use relation::Relation;
pub use stats::TcStats;
pub use tuple::PathTuple;
