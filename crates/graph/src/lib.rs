//! # ds-graph — graph substrate for the disconnection set approach
//!
//! This crate provides the graph machinery every other crate in the
//! workspace builds on: compact node/edge types, a CSR (compressed sparse
//! row) directed graph, plain edge lists (the "relation" view used by the
//! fragmentation algorithms), traversals, shortest paths, a bit-matrix
//! representation with Warshall-style closure, union–find, and the
//! structural measures the paper relies on (diameter, eccentricity,
//! weak components).
//!
//! The paper models a connection network as a relation `R(src, dst, cost)`
//! whose tuples are directed edges, possibly weighted (§2.1 of Houtsma,
//! Apers & Schipper, ICDE 1993). [`Edge`] is exactly that tuple;
//! [`EdgeList`] is the relation; [`CsrGraph`] is the indexed form used by
//! the algorithms.
//!
//! ## Quick example
//!
//! ```
//! use ds_graph::{CsrGraph, Edge, NodeId};
//!
//! let edges = vec![
//!     Edge::new(NodeId(0), NodeId(1), 2),
//!     Edge::new(NodeId(1), NodeId(2), 3),
//! ];
//! let g = CsrGraph::from_edges(3, &edges);
//! let dist = ds_graph::dijkstra::single_source(&g, NodeId(0));
//! assert_eq!(dist.cost(NodeId(2)), Some(5));
//! ```

pub mod bitset;
pub mod csr;
pub mod dijkstra;
pub mod edgelist;
pub mod error;
pub mod matrix;
pub mod reach;
pub mod scc;
pub mod subgraph;
pub mod traverse;
pub mod types;
pub mod unionfind;

pub use bitset::BitSet;
pub use csr::CsrGraph;
pub use dijkstra::{ScratchDijkstra, ScratchStats};
pub use edgelist::EdgeList;
pub use error::GraphError;
pub use matrix::AdjacencyMatrix;
pub use reach::ReachIndex;
pub use scc::Condensation;
pub use subgraph::SubgraphView;
pub use types::{Coord, Cost, Edge, NodeId, INFINITE_COST};
pub use unionfind::UnionFind;
