//! Umbrella crate re-exporting the full public API. See README.md.
//!
//! The highest-level entry point is [`System`]: a builder that picks
//! graph × fragmenter × execution backend and yields one [`TcEngine`] —
//! the query surface (`shortest_path`, `connected`, `route`, `update`,
//! `query_batch`), the same on either backend.

pub use ds_closure as closure;
pub use ds_durability as durability;
pub use ds_fragment as fragment;
pub use ds_gen as gen;
pub use ds_graph as graph;
pub use ds_obs as obs;
pub use ds_relation as relation;
pub use ds_serve as serve;

pub mod system;

pub use ds_closure::api::{BatchAnswer, BatchStats, NetworkUpdate, QueryRequest, TcEngine};
pub use ds_closure::{
    EngineSnapshot, FallbackReason, PrecomputeStats, PrecomputeStrategy, QueryAnswer, QueryStats,
    Route, UpdateBatchReport, UpdateReport,
};
pub use ds_durability::{recover, DurabilityConfig, DurabilityError, DurableStore, Recovered};
pub use ds_obs::{MetricsSnapshot, Observability, RequestTrace, TraceId};
pub use ds_relation::bulk::{MaterializeConfig, MaterializeEngine, MaterializeStats};
pub use ds_serve::{ServeConfig, ServeStats, ServedAnswer, ServedBatch, ServedUpdate, Server};
pub use system::{Backend, Fragmenter, System, SystemBuilder, SystemError};
