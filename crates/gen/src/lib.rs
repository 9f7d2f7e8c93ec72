//! # ds-gen — seeded graph generators from §4.1 of the paper
//!
//! The paper evaluates its fragmentation algorithms on randomly generated
//! graphs: nodes get coordinates "evenly spread over a given interval",
//! then edges are drawn with probability
//!
//! ```text
//! P(p, q) = (c1 / n²) · e^(−c2 · d(p, q))
//! ```
//!
//! so close nodes connect more often than remote ones. *Transportation
//! graphs* (Fig. 3) are built cluster by cluster with user-specified
//! inter-cluster connections; *general graphs* use the probability
//! function over all pairs. This crate reproduces both, plus the
//! ellipse-shaped graphs of Fig. 8 and deterministic graphs for tests.
//!
//! All generators are deterministic given a seed.
//!
//! ```
//! use ds_gen::{GeneralConfig, generate_general};
//!
//! let cfg = GeneralConfig { nodes: 50, target_edges: 140, ..Default::default() };
//! let a = generate_general(&cfg, 7);
//! let b = generate_general(&cfg, 7);
//! assert_eq!(a.connections, b.connections); // same seed, same graph
//! ```
//!
//! ## Cost
//!
//! A graph costs two passes over its node pairs, and no memory
//! proportional to them:
//!
//! * **Calibration** ([`probability::calibrate_c1`]) evaluates one
//!   `sqrt` and one `exp` per pair, summed in `(i, j)` order.
//! * **Drawing** ([`general::draw_edges`]) takes one `rng.gen::<f64>()`
//!   per pair in the same order, but evaluates `exp` only for pairs an
//!   exp-free upper bound on `P` does not already reject:
//!   `e^(−x) ≤ 1/(1 + x + x²/2)` for `x = c2·d ≥ 0`, with a relative
//!   margin of 2⁻⁴⁰ that covers the rounding on both sides. A pair the
//!   bound passes is decided by [`probability::edge_probability`] itself,
//!   and the bound is skipped when `c2 < 0`, so the edges are those of
//!   one `exp` per pair ([`general::draw_edges_reference`]), bit for bit.
//! * **Links** of a transportation graph
//!   ([`transportation::closest_cross_pairs`]) scan for the `k` closest
//!   cross pairs instead of sorting all `m²`: one cluster sorted by x,
//!   a walk outward from each node of the other, stopped once
//!   `|Δx|·(1 − 2⁻⁵⁰)` exceeds the `k`-th best distance. A pair tied
//!   with that distance is never skipped, so the `(d, i, j)` order picks
//!   exactly the pairs of the full sort
//!   ([`transportation::closest_cross_pairs_reference`]).
//!
//! `tests/golden.rs` pins a hash of the benchmark's graphs and the
//! Table 1 / Table 2 presets; a seed sweep holds the kernels to the
//! references as whole graphs.

pub mod config;
pub mod deterministic;
pub mod ellipse;
pub mod general;
pub mod output;
pub mod probability;
pub mod scale;
pub mod spatial;
pub mod transportation;

#[cfg(test)]
mod reference_sweep;

pub use config::{ClusterTopology, EllipseConfig, GeneralConfig, TransportationConfig};
pub use ellipse::generate_ellipse;
pub use general::generate_general;
pub use output::GeneratedGraph;
pub use scale::{generate_scale, ScaleConfig};
pub use transportation::generate_transportation;
