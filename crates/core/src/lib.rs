//! # fela-core — the Fela runtime
//!
//! The paper's primary contribution: token-based, elastically tuned hybrid-parallel
//! training (§III). The crate decomposes as:
//!
//! * [`FelaConfig`] — parallelism weights, ADS/HF/CTD policy toggles, control-plane
//!   overhead constants;
//! * [`TokenPlan`] — how one BSP iteration decomposes into tokens per level
//!   (§III-B, §IV-B);
//! * [`ControlPlane`] — the Token Server: Token Generator + Token Distributor +
//!   Token Bucket/STBs + Info Mapping, with the ADS (§III-D), HF (§III-E) and
//!   CTD (§III-F) policies as pure, unit-tested scheduling logic served from
//!   ordered indices, plus op-log and write-ahead-log recording of every
//!   mutating call. It is the one control plane every run holds; `fela-check`
//!   keeps the scan-based original as its conformance oracle;
//! * [`FelaRuntime`] — the discrete-event world tying the server to workers, the
//!   GPU compute model, the flow-level network and straggler injection; implements
//!   [`fela_cluster::TrainingRuntime`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod error;
mod lease;
mod levels;
pub mod oplog;
mod plan;
mod runtime;
mod server;
mod snapshot;
mod token;
pub mod wal;

pub use config::{CtdConfig, FelaConfig, RecoveryConfig};
pub use error::ScheduleError;
pub use lease::{ExpiredLease, LeaseInfo};
pub use oplog::{apply_op, CoordOp, OpDivergence, OpKind, OpOutcome};
pub use plan::{LevelPlan, PlanError, TokenPlan};
pub use runtime::{ComputeBackend, ComputeRequest, FelaRuntime, LocalCompute};
pub use server::{ControlPlane, Grant, LevelMeta, ServerStats, SyncSpec};
pub use snapshot::ServerSnapshot;
pub use token::{Token, TokenId};
pub use wal::{
    recover, recover_elastic, wal_path, DurabilityOptions, EpochShape, FileWal, MemWal, Recovered,
    WalError, WalRecord, WalSink, WalWriter,
};
