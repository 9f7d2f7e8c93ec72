//! # ds-fragment — data fragmentation strategies for parallel transitive closure
//!
//! This crate is the paper's contribution (Houtsma, Apers & Schipper,
//! ICDE 1993): algorithms that split a connection relation into fragments
//! suitable for the *disconnection set approach*, plus the machinery to
//! describe and judge a fragmentation.
//!
//! Three quality axes drive the design (§2.2):
//! * **small disconnection sets** — border nodes act as the selective
//!   "keyhole" of per-fragment subqueries;
//! * **equally sized fragments** — balanced workload across processors;
//! * **acyclic fragmentation graph** — a unique chain of fragments per
//!   query ("loosely connected").
//!
//! Three fragmenters each optimise one axis:
//! * [`center::center_based`] (§3.1, Fig. 4) — balanced fragments grown
//!   from high-status "center" nodes, with the *distributed centers*
//!   refinement of §4.2.1;
//! * [`bond_energy::bond_energy`] (§3.2, Fig. 5) — small disconnection
//!   sets via adjacency-matrix clustering and threshold splitting;
//! * [`linear::linear_sweep`] (§3.3, Figs. 6–8) — a coordinate sweep that
//!   guarantees an acyclic fragmentation graph.
//!
//! [`semantic::by_labels`] implements the "initial data fragmentation
//! based on application's semantics" (countries in a railway network)
//! that §2.1 assumes.
//!
//! ```
//! use ds_fragment::linear::{linear_sweep, LinearConfig};
//! use ds_gen::deterministic::grid;
//!
//! let g = grid(8, 3); // 8 columns of 3 nodes, swept left to right
//! let out = linear_sweep(&g.edge_list(), &LinearConfig {
//!     fragments: 4, ..Default::default()
//! }).unwrap();
//! assert!(out.fragmentation.fragmentation_graph().is_acyclic()); // §3.3 guarantee
//! ```

pub mod bond_energy;
pub mod center;
pub mod error;
pub mod frag_graph;
pub mod fragmentation;
pub mod linear;
pub mod metrics;
pub mod policy;
pub mod semantic;

pub use error::FragError;
pub use frag_graph::FragmentationGraph;
pub use fragmentation::{Fragment, FragmentId, Fragmentation, Membership};
pub use metrics::FragmentationMetrics;
pub use policy::CrossingPolicy;
