//! # fela-live — a real concurrent token-pull runtime
//!
//! Everything else in this workspace models Fela's control plane inside a
//! single-threaded discrete-event simulator. This crate runs it **for real**:
//! the Token Server and the workers are separate OS threads exchanging
//! length-prefixed binary frames ([`wire`]) over a pluggable [`Transport`] —
//! in-process channels or `std::net` TCP loopback (std only, no external
//! dependencies).
//!
//! Two clock modes:
//!
//! * **Virtual** ([`run_virtual`]) — the server side is the *unmodified*
//!   [`fela_core::FelaRuntime`] event loop; only the compute-span oracle is
//!   swapped for a fleet of live worker threads that price each span over the
//!   wire ([`fela_core::ComputeBackend`]). Traces and reports are
//!   **byte-identical** to the simulator, so `fela-check`'s race detector and
//!   recovery verifier run unchanged on live output. Deterministic.
//! * **Real** ([`run_real`]) — the server drives the production
//!   [`fela_core::ControlPlane`] against the wall clock: workers pull tokens, sleep the modeled span
//!   scaled by `time_scale`, and report; leases, crash/restart injection and
//!   hang faults run off real timers. Nondeterministic interleavings — but
//!   final model parameters are still bit-exact (see below).
//!
//! In both modes every worker trains a real [`fela_engine`] model replica:
//! the server relabels the run's accepted completions into per-iteration
//! token schedules ([`replay`]) and broadcasts them; the executor's canonical
//! per-level gradient reduction makes the result schedule-invariant, so all
//! replicas — and a local reference replay — agree bit-for-bit.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod real;
pub mod replay;
pub mod sched;
pub mod transport;
pub mod virt;
pub mod wire;
mod worker;

pub use real::{run_real, run_real_durable, run_real_with, RealOptions, RealOutcome};
pub use replay::{
    engine_setup, flatten_params, replay_schedules, replay_trace, schedules_from_trace,
};
pub use sched::{
    pass, Endpoint, GateSched, PassSched, RecordingSched, Sched, SharedSched, SyncEvent,
};
pub use transport::{
    transport_by_name, ChanTransport, Link, LinkRx, LinkTx, TcpTransport, Transport,
};
pub use virt::{plan_for, run_virtual, run_virtual_with, LiveOutcome};
pub use wire::{Frame, WireError, WireGrant};
pub use worker::{spawn_worker, WorkerSpec};
