//! # ds-bench — experiment drivers reproducing the paper's evaluation
//!
//! One driver per table/figure/claim of Houtsma, Apers & Schipper (ICDE
//! 1993), per the experiment index in `DESIGN.md`:
//!
//! | id | paper artifact | driver |
//! |----|----------------|--------|
//! | `table1` | Table 1 (transportation, 4×25 nodes)     | [`experiments::tables::table1`] |
//! | `table2` | Table 2 (distributed centers, 4×150)     | [`experiments::tables::table2`] |
//! | `table3` | Table 3 (general graphs, 100 nodes)      | [`experiments::tables::table3`] |
//! | `fig5`   | Fig. 5 worked matrix-split example       | [`experiments::figures::fig5`] |
//! | `fig8`   | Fig. 8 sweep-direction effect            | [`experiments::figures::fig8`] |
//! | `fig2`   | Figs. 1–3 loose-connectivity structure   | [`experiments::figures::fig2`] |
//! | `speedup`| §2.1 "linear speed-up" claim             | [`experiments::speedup`] |
//! | `iters`  | §2.1 iterations ≈ diameter claim         | [`experiments::iters`] |
//! | `ablation` | design-choice ablations (DESIGN.md)    | [`experiments::ablation`] |
//! | `phe`    | §5 Parallel Hierarchical Evaluation      | [`experiments::phe_exp`] |
//!
//! Run them with `cargo run --release -p ds-bench --bin repro -- <id>|all`.
//! The drivers return structured rows (so integration tests can assert the
//! paper's *shape* claims) and the binary renders them as tables.
//!
//! Performance is measured by `BENCHMARK.json` + `examples/benchmark`;
//! what it cannot bound — exact counts and same-run ratios — is held by
//! the one bench here, `cargo bench -p ds-bench --bench gates`, whose
//! checks are the pure functions of [`gates`].

pub mod experiments;
pub mod gates;
pub mod harness;
pub mod table;

/// Number of random graphs each table row is averaged over when run from
/// the `repro` binary (the paper averaged over generated graph sets too).
pub const DEFAULT_SEEDS: u64 = 10;
