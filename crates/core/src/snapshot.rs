//! Canonical snapshots of control-plane scheduling state.
//!
//! A [`ServerSnapshot`] is the byte-exact conformance currency of the control
//! plane: the [`ControlPlane`](crate::ControlPlane) is proved against
//! `fela-check`'s oracle Token Server by comparing snapshots (alongside grants
//! and traces) under random churn, and both can be
//! [restored](crate::ControlPlane::restore) from a snapshot plus the live
//! token table, round-tripping bit-identically.

/// A canonical, totally ordered view of the server's scheduling state.
///
/// Two servers with equal snapshots will emit identical schedules for
/// identical future inputs (timing-only state — lock-conflict instants and
/// counters — is deliberately excluded). `fela-check`'s interleaving explorer
/// uses snapshots to prune its state space; tests use them to assert replay
/// equivalence, and the conformance suite compares the production plane's and
/// the oracle's snapshots bit for bit.
///
/// A snapshot covers only the live window. Once an iteration has synced at
/// every level it retires: its tokens, holders, revocation counts and
/// per-level counters leave the plane, so a snapshot's size follows the
/// iterations in flight, not the run length.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ServerSnapshot {
    /// Iterations whose root tokens have been released.
    pub released_roots: u64,
    /// Next token id to be generated.
    pub next_token_id: u64,
    /// STB contents: `stbs[bucket][level]` → token ids in queue order.
    pub stbs: Vec<Vec<Vec<u64>>>,
    /// Sync-gated generated tokens per level: `(token id, preferred bucket)`
    /// in ascending id order, which is their release order.
    pub pending: Vec<Vec<(u64, usize)>>,
    /// Contiguously synced iteration count per level.
    pub synced_upto: Vec<u64>,
    /// Out-of-order finished syncs per level.
    pub synced_out_of_order: Vec<Vec<u64>>,
    /// Per-level in-flight completion counts: `(iteration, count)`.
    pub completed: Vec<Vec<(u64, u64)>>,
    /// Per-level generation buffers: `(iteration, completed token ids)`.
    pub gen_buffers: Vec<Vec<(u64, Vec<u64>)>>,
    /// Info Mapping of the live window: `(token id, holding worker)`.
    pub holder: Vec<(u64, usize)>,
    /// Workers queued for a token.
    pub waiting: Vec<usize>,
    /// Helper counts per bucket.
    pub helpers: Vec<u64>,
    /// Liveness per worker (all-true without faults).
    pub alive: Vec<bool>,
    /// Quarantine flags per worker (all-false without faults).
    pub quarantined: Vec<bool>,
    /// Active leases: `(token id, worker, attempt)` (empty without recovery).
    pub leases: Vec<(u64, usize, u64)>,
    /// Per-token lease revocation counts of the live window: `(token id,
    /// revocations)` (sparse; absent = 0). Behavioural — the next grant of a token carries this as
    /// its [`Grant::attempt`](crate::Grant::attempt).
    pub attempts: Vec<(u64, u64)>,
    /// Lease expiries per worker (the quarantine countdown).
    pub expiry_counts: Vec<u64>,
    /// Where each worker's durable data currently lives (identity until a
    /// crash re-homes it) — feeds fetch targets and root placement.
    pub data_home: Vec<usize>,
    /// Tokens parked with no eligible bucket (fully dark cluster), in
    /// revocation order: `(level, token id)`.
    pub parked: Vec<(usize, u64)>,
}
