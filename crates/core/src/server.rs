//! The Token Server (§III): Token Generator, Token Distributor, Token Bucket /
//! sub-Token Buckets (STBs) and Info Mapping, plus the three scheduling policies —
//! ADS (§III-D), HF (§III-E) and CTD (§III-F) — as one control plane,
//! [`ControlPlane`], which every simulated, live, elastic and recovered run
//! holds.
//!
//! The plane is *pure scheduling state*: it knows nothing about virtual time
//! except the instants the runtime passes in for lock-conflict detection. That
//! keeps every policy decision unit-testable without a simulation.
//!
//! ## How the pieces map to the paper
//!
//! * **Token Generator** — root (T-1) tokens are seeded per iteration;
//!   [`ControlPlane::report`] groups completed level-`i` tokens in completion
//!   order (as in Figure 3) and generates one level-`i+1` token per `ratio`
//!   completions, with the group as its dependency set.
//! * **Info Mapping** — the `holder` map (which worker holds a completed token's
//!   output); locality scores (Equation 1) are computed from it.
//! * **Token Distributor** — [`ControlPlane::request`] / the waiting queue. With
//!   HF on, each worker owns an STB and steals only when its own STB is empty
//!   (becoming a *helper*, §III-E); with HF off there is one global bucket and
//!   every grant contends for the lock.
//! * **ADS** — level order is highest-first (Principle 1) and, within a level, the
//!   token with the highest locality score towards the requester wins, ties to the
//!   smallest token id (Principle 2). With ADS off (ablation), levels go
//!   lowest-first and tokens in id order, ignoring locality.
//! * **CTD** — communication-intensive levels are only granted to the subset `S`
//!   (workers `0..subset_size`), with priority cond > rest-descending for members
//!   and cond levels skipped for non-members.
//!
//! ## Work conservation across iterations
//!
//! BSP correctness is a *per-sub-model dataflow* property: level `l` tokens of
//! iteration `k+1` need (a) level `l`'s parameters synced from iteration `k` and
//! (b) their input dependencies from iteration `k+1` itself. They do **not** wait
//! for deeper sub-models of iteration `k`. The plane therefore releases each
//! level's next iteration as soon as that level's sync drains, letting SM-1 of
//! iteration `k+1` fill the bubbles while SM-3 of iteration `k` still trains —
//! the "Work Conservation ✓" column Fela earns in Table II, with no staleness:
//! every gradient still enters the very next update of its own sub-model.
//!
//! ## Indices instead of scans
//!
//! Every pick is an ordered-set lookup, which keeps the plane's per-grant cost
//! flat up to thousands of workers:
//!
//! * within a `(bucket, level)`, the [`LevelTable`] keeps an id-ordered mirror
//!   of the queue and a Principle-2 score index, so a pick is a `first()`;
//! * the level preference orders for CTD members and non-members are fixed at
//!   construction (they depend only on static config);
//! * the steal order is `(fewest helpers, most remaining tokens, smallest
//!   bucket id)`, where "remaining" is the bucket's *total* queued tokens
//!   across all levels regardless of the requester's CTD class — only
//!   *eligibility* differs by class (a non-member needs a non-conditional
//!   token to exist). The plane keeps two counters per bucket — `queued_all`
//!   and `queued_noncond` — and two mirror `BTreeSet`s keyed `(helpers,
//!   !queued_all, bucket)`: `steal_any` holds buckets with any queued token,
//!   `steal_noncond` those with a non-conditional one. A steal is `first()` on
//!   the class's set; both sets are maintained on every push, remove and
//!   helper-count change.
//!
//! `fela-check` keeps the original scan-based Token Server as the conformance
//! oracle: the lockstep proptests, fela-mc and the WAL checker replay this
//! plane's operations against it and demand bit-identical outcomes.
//!
//! ## Recording
//!
//! With [`ControlPlane::enable_op_log`] every mutating call additionally
//! records a [`CoordOp`] — inputs plus outcome digest — which `fela-check`
//! replays against the oracle to prove a history linearizable (see
//! [`crate::oplog`]). With [`ControlPlane::attach_wal`] the same records are
//! appended to a write-ahead log before the call returns (see [`crate::wal`]).
//!
//! ## Errors and determinism
//!
//! Every internal invariant breach surfaces as a typed
//! [`ScheduleError`](crate::ScheduleError) instead of a panic, so callers (the
//! simulation runtime, the `fela-check` verifier, tests) decide how to react.
//! Scheduling state lives in ordered containers (`BTreeMap`/`VecDeque`) only:
//! no code path's observable behaviour can depend on hash-iteration order,
//! which keeps emitted reports and artifacts byte-identical across runs.
//!
//! [`LevelTable`]: crate::levels::LevelTable

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use fela_sim::SimTime;
use serde::Serialize;

use crate::config::FelaConfig;
use crate::error::ScheduleError;
use crate::lease::{ExpiredLease, LeaseInfo, LeaseTable};
use crate::levels::{score_key, LevelState, LevelTable};
use crate::oplog::{self, CoordOp, OpKind, OpOutcome};
use crate::plan::TokenPlan;
use crate::snapshot::ServerSnapshot;
use crate::token::{Token, TokenId};
use crate::wal::{WalSink, WalWriter};

/// Static per-level facts the scheduler needs (derived from the partition).
#[derive(Clone, Copy, Debug, Serialize)]
pub struct LevelMeta {
    /// Trainable parameter bytes of the sub-model (sync volume).
    pub param_bytes: u64,
    /// Per-sample output activation bytes (dependency transfer volume).
    pub output_bytes_per_sample: u64,
    /// Per-sample input bytes (for level 0: raw sample bytes).
    pub input_bytes_per_sample: u64,
    /// Whether the level is communication-intensive (CTD target).
    pub comm_intensive: bool,
}

/// A token grant handed to a worker.
#[derive(Clone, Debug)]
pub struct Grant {
    /// The granted token.
    pub token: Token,
    /// Remote inputs to fetch before compute starts: `(holder, bytes)`.
    pub fetches: Vec<(usize, u64)>,
    /// The grant hit a fetching conflict (§III-E) — the runtime adds the penalty.
    pub conflict: bool,
    /// How many times this token's lease has been revoked before this grant
    /// (0 = first attempt). With recovery on, the runtime widens the lease
    /// deadline by `2^attempt` (exponential backoff on repeated expiry).
    pub attempt: u64,
}

/// A parameter-synchronisation request emitted when a level's last token of an
/// iteration completes.
///
/// Every completed `(level, iteration)` emits exactly one spec — including
/// *degenerate* ones (a single participant or zero parameter bytes), which cost
/// nothing on the wire but still mark the update commit. The caller must call
/// [`ControlPlane::sync_finished`] for each spec, immediately for degenerate
/// ones; this keeps every parameter-update commit observable to checkers.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct SyncSpec {
    /// Level whose parameters to all-reduce.
    pub level: usize,
    /// Iteration the sync belongs to.
    pub iteration: u64,
    /// Participating workers.
    pub participants: Vec<usize>,
    /// Bytes to all-reduce.
    pub bytes: u64,
}

impl SyncSpec {
    /// True if the sync needs no wire traffic (single participant or no bytes)
    /// and can be finished immediately.
    pub fn is_degenerate(&self) -> bool {
        self.participants.len() <= 1 || self.bytes == 0
    }
}

/// Counters the server accumulates for the run report.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct ServerStats {
    /// Tokens granted in total.
    pub grants: u64,
    /// Grants served from the requester's own STB.
    pub local_grants: u64,
    /// Grants that stole from another worker's STB (helper grants).
    pub steals: u64,
    /// Grants that hit a lock conflict.
    pub conflicts: u64,
    /// Bytes fetched from remote workers for dependencies.
    pub remote_fetch_bytes: u64,
    /// Token requests that found the bucket empty (the §III-D "locking problem").
    pub starved_requests: u64,
}

/// The Token Server: the one control plane every run holds (see the module
/// docs).
#[derive(Clone)]
pub struct ControlPlane {
    plan: TokenPlan,
    cfg: FelaConfig,
    meta: Vec<LevelMeta>,
    n_workers: usize,
    max_iterations: u64,
    /// Iterations whose root tokens have been released (0..count).
    released_roots: u64,
    next_token_id: u64,
    /// The live window's tokens: every iteration not yet synced at every
    /// level (see [`Self::retire_completed`]). Ordered map: scheduling
    /// decisions and artifacts must never depend on hash-iteration order.
    tokens: BTreeMap<TokenId, Token>,
    /// The retirement index: live token ids per iteration, so retiring an
    /// iteration names its tokens without scanning the table.
    by_iteration: BTreeMap<u64, Vec<TokenId>>,
    /// Completed-token outputs of the live window: token → holding worker
    /// (Info Mapping).
    holder: BTreeMap<TokenId, usize>,
    /// Every level's bookkeeping, STB queues and pick indices.
    levels: LevelTable,
    /// Static per-level CTD flag (`ctd` on and the level is comm-intensive).
    cond_level: Vec<bool>,
    /// Static level preference order for CTD-subset members (and everyone
    /// when CTD is off): conditional levels ascending, then the rest by ADS.
    member_order: Vec<usize>,
    /// Static level preference order for non-members: non-conditional levels
    /// by ADS only.
    nonmember_order: Vec<usize>,
    /// Per-bucket queued tokens across all levels (the steal "remaining" key).
    queued_all: Vec<usize>,
    /// Per-bucket queued tokens at non-conditional levels (non-member
    /// eligibility).
    queued_noncond: Vec<usize>,
    /// Steal index for CTD members: `(helpers, !queued_all, bucket)` for every
    /// bucket with `queued_all > 0`. `first()` is the steal pick.
    steal_any: BTreeSet<(u64, u64, usize)>,
    /// Steal index for non-members: same key, membership gated on
    /// `queued_noncond > 0`.
    steal_noncond: BTreeSet<(u64, u64, usize)>,
    /// Last grant instant per bucket, for lock-conflict detection.
    last_grant_at: Vec<Option<SimTime>>,
    /// Helpers currently assisting each STB (decayed on root release).
    helpers: Vec<u64>,
    waiting: VecDeque<usize>,
    stats: ServerStats,
    /// Tokens trained per worker (for load-balance reporting).
    trained_per_worker: Vec<u64>,
    /// Liveness per worker. All-true until a crash notification arrives.
    alive: Vec<bool>,
    /// Quarantined workers: alive but untrusted (repeated lease expiries) —
    /// they get no further grants and leave the sync membership.
    quarantined: Vec<bool>,
    /// Active leases, revocation counts and expiry history.
    leases: LeaseTable,
    /// Where each worker's durable data (sample shard, checkpointed token
    /// outputs) currently lives. Identity until a crash re-homes a dead
    /// worker's data to a survivor — modelling the replica/checkpoint store a
    /// production deployment restores from, so dataflow survives the death of
    /// a holder without cascading recomputation.
    data_home: Vec<usize>,
    /// Tokens with no eligible bucket: when a crash kills the *last* eligible
    /// worker (the cluster is fully dark) revoked and displaced tokens park
    /// here, in revocation order, until a restart brings a survivor back.
    parked: Vec<(usize, TokenId)>,
    /// Recorded operations, when op logging is on.
    log: Option<Vec<CoordOp>>,
    wal: AttachedWal,
}

/// The attached write-ahead log, if any. A clone of the plane is a *logical
/// copy* of the scheduling state, not a second log writer: exploratory clones
/// (what-if probes, checkers) must not double-append to the durable log, so
/// cloning detaches it.
struct AttachedWal(Option<WalWriter>);

impl Clone for AttachedWal {
    fn clone(&self) -> Self {
        AttachedWal(None)
    }
}

impl ControlPlane {
    /// Creates a plane and releases iteration 0's root tokens.
    ///
    /// # Panics
    /// Panics if `meta` length differs from the plan's level count or the
    /// config is invalid for the cluster size.
    pub fn new(
        plan: TokenPlan,
        cfg: FelaConfig,
        meta: Vec<LevelMeta>,
        n_workers: usize,
        max_iterations: u64,
    ) -> Self {
        let mut c = Self::empty(plan, cfg, meta, n_workers, max_iterations);
        c.release_due_roots();
        c
    }

    /// An initialised plane with no tokens released (shared by `new` and
    /// `restore`).
    fn empty(
        plan: TokenPlan,
        cfg: FelaConfig,
        meta: Vec<LevelMeta>,
        n_workers: usize,
        max_iterations: u64,
    ) -> Self {
        assert_eq!(
            meta.len(),
            plan.num_levels(),
            "level metadata must match plan levels"
        );
        assert!(max_iterations > 0, "need at least one iteration");
        cfg.validate(n_workers);
        let m = plan.num_levels();
        let buckets = if cfg.hf { n_workers } else { 1 };
        let levels = LevelTable::new(m, buckets, n_workers, cfg.ads && cfg.hf);
        let cond_level: Vec<bool> = (0..m)
            .map(|l| cfg.ctd.is_some() && meta[l].comm_intensive)
            .collect();
        // Level preference orders, fixed at construction: members see
        // conditional levels first (ascending), then the rest by ADS;
        // non-members skip conditional levels entirely.
        let mut member_order: Vec<usize> = Vec::with_capacity(m);
        if cfg.ctd.is_some() {
            member_order.extend((0..m).filter(|&l| cond_level[l]));
        }
        let mut rest: Vec<usize> = (0..m).filter(|l| !member_order.contains(l)).collect();
        if cfg.ads {
            rest.sort_unstable_by(|a, b| b.cmp(a)); // highest level first
        } else {
            rest.sort_unstable(); // ablation: lowest level first
        }
        member_order.extend(rest);
        let mut nonmember_order: Vec<usize> = (0..m).filter(|&l| !cond_level[l]).collect();
        if cfg.ads {
            nonmember_order.sort_unstable_by(|a, b| b.cmp(a));
        } else {
            nonmember_order.sort_unstable();
        }
        ControlPlane {
            plan,
            cfg,
            meta,
            n_workers,
            max_iterations,
            released_roots: 0,
            next_token_id: 0,
            tokens: BTreeMap::new(),
            by_iteration: BTreeMap::new(),
            holder: BTreeMap::new(),
            levels,
            cond_level,
            member_order,
            nonmember_order,
            queued_all: vec![0; buckets],
            queued_noncond: vec![0; buckets],
            steal_any: BTreeSet::new(),
            steal_noncond: BTreeSet::new(),
            last_grant_at: vec![None; buckets],
            helpers: vec![0; buckets],
            waiting: VecDeque::new(),
            stats: ServerStats::default(),
            trained_per_worker: vec![0; n_workers],
            alive: vec![true; n_workers],
            quarantined: vec![false; n_workers],
            leases: LeaseTable::new(n_workers),
            data_home: (0..n_workers).collect(),
            parked: Vec::new(),
            log: None,
            wal: AttachedWal(None),
        }
    }

    /// Restores a plane from a snapshot plus the live token table it refers
    /// to (the WAL recovery path). The result snapshots back bit-identically and
    /// continues exactly as a plane that reached the snapshot live
    /// (timing-only state — conflict instants and counters — restarts empty,
    /// as documented on [`ServerSnapshot`]). Op logging and the WAL start
    /// detached.
    pub fn restore(
        plan: TokenPlan,
        cfg: FelaConfig,
        meta: Vec<LevelMeta>,
        n_workers: usize,
        max_iterations: u64,
        tokens: BTreeMap<TokenId, Token>,
        snap: &ServerSnapshot,
    ) -> Result<Self, ScheduleError> {
        let mut c = Self::empty(plan, cfg, meta, n_workers, max_iterations);
        c.released_roots = snap.released_roots;
        c.next_token_id = snap.next_token_id;
        for t in tokens.values() {
            c.by_iteration.entry(t.iteration).or_default().push(t.id);
        }
        c.tokens = tokens;
        c.holder = snap.holder.iter().map(|&(t, w)| (TokenId(t), w)).collect();
        for level in 0..c.plan.num_levels() {
            let st = c.levels.state_mut(level);
            st.synced_upto = snap.synced_upto[level];
            st.synced_out_of_order = snap.synced_out_of_order[level].iter().copied().collect();
            st.completed = snap.completed[level].iter().copied().collect();
            st.gen_buffer = snap.gen_buffers[level]
                .iter()
                .map(|(k, v)| (*k, v.iter().map(|&i| TokenId(i)).collect()))
                .collect();
            for &(id, bucket) in &snap.pending[level] {
                let id = TokenId(id);
                let iteration = c
                    .tokens
                    .get(&id)
                    .ok_or(ScheduleError::UnknownToken { token: id })?
                    .iteration;
                c.levels.state_mut(level).park(iteration, id, bucket);
            }
        }
        // `generated` is derivable: level ≥ 1 tokens are created only by the
        // generator and leave the token table only when their whole
        // iteration retires, together with its counter.
        for t in c.tokens.values().filter(|t| t.level >= 1) {
            *c.levels
                .state_mut(t.level)
                .generated
                .entry(t.iteration)
                .or_insert(0) += 1;
        }
        // Queues repopulate in snapshot order; scores recompute against the
        // restored Info Mapping, which equals the insertion-time index (dep
        // holders never change except re-homing, which rebuilds the index).
        for (bucket, rows) in snap.stbs.iter().enumerate() {
            for (level, row) in rows.iter().enumerate() {
                for &id in row {
                    c.stb_push(bucket, level, TokenId(id))?;
                }
            }
        }
        c.waiting = snap.waiting.iter().copied().collect();
        c.alive = snap.alive.clone();
        c.quarantined = snap.quarantined.clone();
        c.leases = LeaseTable::restore(&snap.leases, &snap.attempts, &snap.expiry_counts);
        c.data_home = snap.data_home.clone();
        c.parked = snap
            .parked
            .iter()
            .map(|&(level, id)| (level, TokenId(id)))
            .collect();
        // Helper counts arrive last: rebuild the steal indices with the final
        // (helpers, occupancy) keys.
        c.helpers = snap.helpers.clone();
        c.steal_any.clear();
        c.steal_noncond.clear();
        for b in 0..c.queued_all.len() {
            c.index_bucket(b);
        }
        Ok(c)
    }

    // ---- recording ---------------------------------------------------------

    /// Turns on operation recording: every subsequent mutating call appends
    /// one [`CoordOp`] to the log. Off by default (zero overhead).
    pub fn enable_op_log(&mut self) {
        if self.log.is_none() {
            self.log = Some(Vec::new());
        }
    }

    /// Whether operation recording is on.
    pub fn op_log_enabled(&self) -> bool {
        self.log.is_some()
    }

    /// Drains and returns the recorded operations (empty if recording is
    /// off). Recording stays enabled.
    pub fn take_op_log(&mut self) -> Vec<CoordOp> {
        match &mut self.log {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
    }

    /// Attaches a write-ahead log: writes the opening `Begin` record and
    /// makes every subsequent mutating call append (and sync) one op record
    /// before its result is returned to the caller.
    pub fn attach_wal(&mut self, sink: Box<dyn WalSink>) -> std::io::Result<()> {
        let mut writer = WalWriter::new(sink);
        writer.append_begin(self.n_workers as u32, self.max_iterations);
        writer.commit()?;
        self.wal = AttachedWal(Some(writer));
        Ok(())
    }

    /// Re-attaches a log after recovery, continuing the op sequence at
    /// `next_seq` ([`crate::wal::Recovered::next_seq`]). Writes nothing.
    pub fn resume_wal(&mut self, sink: Box<dyn WalSink>, next_seq: u64) {
        self.wal = AttachedWal(Some(WalWriter::resume(sink, next_seq)));
    }

    /// Whether a write-ahead log is attached.
    pub fn wal_attached(&self) -> bool {
        self.wal.0.is_some()
    }

    /// Appends a checkpoint of the live window — the snapshot, the live token
    /// table and the opaque runtime `payload` — to the attached log and
    /// syncs it. Retired iterations are in neither, so its size follows the
    /// window, not the run length. No-op when no log is attached.
    pub fn checkpoint_wal(&mut self, payload: &[u8]) -> std::io::Result<()> {
        if self.wal.0.is_none() {
            return Ok(());
        }
        let snapshot = self.snapshot();
        match &mut self.wal.0 {
            Some(wal) => {
                wal.append_checkpoint(payload, &self.tokens, &snapshot);
                wal.commit()
            }
            None => Ok(()),
        }
    }

    /// Records one mutating call's inputs and outcome digest in the op log
    /// and the WAL (whichever are on); the digest is computed only then.
    fn record<T>(
        &mut self,
        kind: impl FnOnce() -> OpKind,
        result: &Result<T, ScheduleError>,
        digest: impl FnOnce(&Result<T, ScheduleError>) -> OpOutcome,
    ) {
        if self.log.is_none() && self.wal.0.is_none() {
            return;
        }
        let op = CoordOp {
            kind: kind(),
            outcome: digest(result),
        };
        if let Some(wal) = &mut self.wal.0 {
            wal.append_op(&op);
            if let Err(e) = wal.commit() {
                // A durable plane that cannot persist its decisions must not
                // keep handing them out: failing loudly here is the contract.
                panic!("WAL append failed — cannot guarantee durability: {e}");
            }
        }
        if let Some(log) = &mut self.log {
            log.push(op);
        }
    }

    // ---- read access -------------------------------------------------------

    /// Run configuration (read access).
    pub fn config(&self) -> &FelaConfig {
        &self.cfg
    }

    /// The token plan (read access).
    pub fn plan(&self) -> &TokenPlan {
        &self.plan
    }

    /// Cluster size the plane schedules for.
    pub fn n_workers(&self) -> usize {
        self.n_workers
    }

    /// Total iterations this run trains.
    pub fn max_iterations(&self) -> u64 {
        self.max_iterations
    }

    /// A live token by id (introspection for checkers); `None` once its
    /// iteration has retired.
    pub fn token(&self, id: TokenId) -> Option<&Token> {
        self.tokens.get(&id)
    }

    /// The live token table (pair with [`Self::snapshot`] for restore).
    pub fn tokens(&self) -> &BTreeMap<TokenId, Token> {
        &self.tokens
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Tokens trained per worker so far.
    pub fn trained_per_worker(&self) -> &[u64] {
        &self.trained_per_worker
    }

    /// Iterations whose root tokens have been released.
    pub fn released_root_iterations(&self) -> u64 {
        self.released_roots
    }

    /// Iterations fully finished: every level's sync for that iteration
    /// drained.
    pub fn completed_iterations(&self) -> u64 {
        (0..self.plan.num_levels())
            .map(|l| self.levels.state(l).synced_upto)
            .min()
            .unwrap_or(0)
    }

    /// True once all `max_iterations` iterations are fully synced.
    pub fn run_complete(&self) -> bool {
        self.completed_iterations() == self.max_iterations
    }

    /// Whether `worker` belongs to the CTD subset `S`. When every member of
    /// `S` is dead or quarantined the restriction lapses (every eligible
    /// worker counts as a member), so conditional levels never strand.
    pub fn in_ctd_subset(&self, worker: usize) -> bool {
        match self.cfg.ctd {
            Some(ctd) => worker < ctd.subset_size || !self.ctd_subset_alive(),
            None => true,
        }
    }

    fn ctd_subset_alive(&self) -> bool {
        match self.cfg.ctd {
            Some(ctd) => (0..ctd.subset_size).any(|w| self.eligible(w)),
            None => true,
        }
    }

    /// The sync membership of a conditional level: the eligible part of `S`,
    /// or every eligible worker once `S` has lapsed.
    fn ctd_participants(&self, level: usize) -> Result<Vec<usize>, ScheduleError> {
        let ctd = self
            .cfg
            .ctd
            .ok_or(ScheduleError::CtdConfigMissing { level })?;
        let members: Vec<usize> = (0..ctd.subset_size).filter(|&w| self.eligible(w)).collect();
        if !members.is_empty() {
            return Ok(members);
        }
        let alive: Vec<usize> = (0..self.n_workers).filter(|&w| self.eligible(w)).collect();
        if alive.is_empty() {
            return Err(ScheduleError::NoAliveWorkers);
        }
        Ok(alive)
    }

    /// Whether lease-based recovery is enabled.
    pub fn recovery_on(&self) -> bool {
        self.cfg.recovery.is_some()
    }

    /// Whether the plane considers `worker` alive.
    pub fn is_alive(&self, worker: usize) -> bool {
        self.alive[worker]
    }

    /// Whether `worker` is quarantined (alive but barred from grants).
    pub fn is_quarantined(&self, worker: usize) -> bool {
        self.quarantined[worker]
    }

    fn eligible(&self, worker: usize) -> bool {
        self.alive[worker] && !self.quarantined[worker]
    }

    /// The active lease on `token`, if any (recovery mode only).
    pub fn lease_of(&self, token: TokenId) -> Option<LeaseInfo> {
        self.leases.lease_of(token)
    }

    /// How many times `token`'s lease has been revoked so far.
    pub fn attempt_of(&self, token: TokenId) -> u64 {
        self.leases.attempt_of(token)
    }

    /// Where `worker`'s durable data currently lives.
    pub fn data_home_of(&self, worker: usize) -> usize {
        self.data_home[worker]
    }

    /// The smallest-id eligible worker — the deterministic re-home target.
    fn fallback_worker(&self) -> Result<usize, ScheduleError> {
        (0..self.n_workers)
            .find(|&w| self.eligible(w))
            .ok_or(ScheduleError::NoAliveWorkers)
    }

    fn check_worker(&self, worker: usize) -> Result<(), ScheduleError> {
        if worker >= self.n_workers {
            return Err(ScheduleError::InvalidWorker {
                worker,
                n_workers: self.n_workers,
            });
        }
        Ok(())
    }

    fn level_state(&self, level: usize) -> &LevelState {
        self.levels.state(level)
    }

    /// Equation 1: fraction of a token's dependencies whose outputs `worker`
    /// already holds.
    pub fn locality_score(&self, worker: usize, token: TokenId) -> Result<f64, ScheduleError> {
        let t = self
            .tokens
            .get(&token)
            .ok_or(ScheduleError::UnknownToken { token })?;
        if t.deps.is_empty() {
            return Ok(0.0);
        }
        let held = t
            .deps
            .iter()
            .filter(|d| self.holder.get(d) == Some(&worker))
            .count();
        Ok(held as f64 / t.deps.len() as f64)
    }

    // ---- occupancy / steal-index maintenance -------------------------------

    fn steal_key(&self, bucket: usize) -> (u64, u64, usize) {
        (
            self.helpers[bucket],
            u64::MAX - self.queued_all[bucket] as u64,
            bucket,
        )
    }

    /// Drops `bucket`'s current steal-index entries (call *before* mutating
    /// its helpers or queued counters).
    fn unindex_bucket(&mut self, bucket: usize) {
        let key = self.steal_key(bucket);
        if self.queued_all[bucket] > 0 {
            self.steal_any.remove(&key);
        }
        if self.queued_noncond[bucket] > 0 {
            self.steal_noncond.remove(&key);
        }
    }

    /// Re-inserts `bucket`'s steal-index entries from its current counters.
    fn index_bucket(&mut self, bucket: usize) {
        let key = self.steal_key(bucket);
        if self.queued_all[bucket] > 0 {
            self.steal_any.insert(key);
        }
        if self.queued_noncond[bucket] > 0 {
            self.steal_noncond.insert(key);
        }
    }

    fn set_helpers(&mut self, bucket: usize, value: u64) {
        self.unindex_bucket(bucket);
        self.helpers[bucket] = value;
        self.index_bucket(bucket);
    }

    /// Moves `bucket`'s occupancy counters by one token at `level` (`+1` on
    /// push, `-1` on remove), keeping the steal indices in step.
    fn count_queued(&mut self, bucket: usize, level: usize, added: bool) {
        self.unindex_bucket(bucket);
        let noncond = !self.cond_level[level];
        if added {
            self.queued_all[bucket] += 1;
            self.queued_noncond[bucket] += usize::from(noncond);
        } else {
            self.queued_all[bucket] -= 1;
            self.queued_noncond[bucket] -= usize::from(noncond);
        }
        self.index_bucket(bucket);
    }

    /// Inserts a token into its level's STB segment and bumps the occupancy
    /// indices.
    fn stb_push(&mut self, bucket: usize, level: usize, id: TokenId) -> Result<(), ScheduleError> {
        let token = self
            .tokens
            .get(&id)
            .ok_or(ScheduleError::UnknownToken { token: id })?;
        self.levels.push(bucket, level, token, &self.holder);
        self.count_queued(bucket, level, true);
        Ok(())
    }

    /// [`Self::stb_push`] for root tokens (no score entries; infallible).
    fn stb_push_root(&mut self, bucket: usize, id: TokenId) {
        self.levels.push_root(bucket, id);
        self.count_queued(bucket, 0, true);
    }

    /// Removes a token from its level's STB segment and decays the occupancy
    /// indices.
    fn stb_remove(
        &mut self,
        bucket: usize,
        level: usize,
        id: TokenId,
    ) -> Result<(), ScheduleError> {
        self.levels.remove(bucket, level, id)?;
        self.count_queued(bucket, level, false);
        Ok(())
    }

    // ---- distribution ------------------------------------------------------

    /// A worker asks for a token at `now`. Returns the grant, or `Ok(None)` —
    /// in which case the worker is queued and will be returned later by
    /// [`Self::pop_ready_grant`].
    pub fn request(&mut self, worker: usize, now: SimTime) -> Result<Option<Grant>, ScheduleError> {
        let result = self.request_unlogged(worker, now);
        self.record(
            || OpKind::Request { worker, now },
            &result,
            |r| oplog::outcome_of_request(worker, r),
        );
        result
    }

    fn request_unlogged(
        &mut self,
        worker: usize,
        now: SimTime,
    ) -> Result<Option<Grant>, ScheduleError> {
        self.check_worker(worker)?;
        if !self.eligible(worker) {
            // A request can legitimately race the worker's own crash or
            // quarantine (it was in flight when the membership changed).
            return Err(ScheduleError::WorkerUnavailable { worker });
        }
        match self.try_grant(worker, now)? {
            Some(grant) => Ok(Some(grant)),
            None => {
                self.stats.starved_requests += 1;
                if !self.waiting.contains(&worker) {
                    self.waiting.push_back(worker);
                }
                Ok(None)
            }
        }
    }

    /// After bucket contents changed (report / sync / release), serves the
    /// longest-waiting worker that can now be granted. Call in a loop until
    /// `Ok(None)`.
    pub fn pop_ready_grant(
        &mut self,
        now: SimTime,
    ) -> Result<Option<(usize, Grant)>, ScheduleError> {
        let result = self.pop_unlogged(now);
        self.record(
            || OpKind::PopReadyGrant { now },
            &result,
            oplog::outcome_of_pop,
        );
        result
    }

    fn pop_unlogged(&mut self, now: SimTime) -> Result<Option<(usize, Grant)>, ScheduleError> {
        for idx in 0..self.waiting.len() {
            let worker = self.waiting[idx];
            if let Some(grant) = self.try_grant(worker, now)? {
                self.waiting.remove(idx);
                return Ok(Some((worker, grant)));
            }
        }
        Ok(None)
    }

    /// Drains *every* currently servable waiting worker into `out` — the
    /// batched grant path. It is exactly the repeated-
    /// [`Self::pop_ready_grant`]-until-`None` loop, so callers that batch
    /// grants observe the same grant order and stats as callers that pop one
    /// at a time, and the op log records the same
    /// [`OpKind::PopReadyGrant`] sequence.
    pub fn drain_ready_grants(
        &mut self,
        now: SimTime,
        out: &mut Vec<(usize, Grant)>,
    ) -> Result<(), ScheduleError> {
        while let Some(pair) = self.pop_ready_grant(now)? {
            out.push(pair);
        }
        Ok(())
    }

    /// Core distribution: pick a token for `worker` per HF/ADS/CTD.
    fn try_grant(&mut self, worker: usize, now: SimTime) -> Result<Option<Grant>, ScheduleError> {
        let Some((bucket, stolen)) = self.pick_bucket(worker) else {
            return Ok(None);
        };
        let Some((level, id)) = self.pick_token(bucket, worker) else {
            return Ok(None);
        };
        self.stb_remove(bucket, level, id)?;
        // Lock contention: only multi-party buckets contend — the global bucket
        // (HF off) and a stolen-from STB (§III-E: conflicts happen only when
        // helpers fetch from the same STB).
        let contends = stolen || !self.cfg.hf;
        let mut conflict = false;
        if contends {
            if let Some(last) = self.last_grant_at[bucket] {
                if now.saturating_since(last) < self.cfg.lock_window {
                    conflict = true;
                    self.stats.conflicts += 1;
                }
            }
            self.last_grant_at[bucket] = Some(now);
        }
        if stolen {
            self.stats.steals += 1;
            self.set_helpers(bucket, self.helpers[bucket] + 1);
        } else {
            self.stats.local_grants += 1;
        }
        self.stats.grants += 1;
        let token = self
            .tokens
            .get(&id)
            .ok_or(ScheduleError::UnknownToken { token: id })?
            .clone();
        let fetches = self.fetches_for(&token, worker)?;
        for &(_, bytes) in &fetches {
            self.stats.remote_fetch_bytes += bytes;
        }
        let attempt = self.leases.attempt_of(id);
        if self.recovery_on() {
            self.leases.grant(id, worker, attempt);
        }
        Ok(Some(Grant {
            token,
            fetches,
            conflict,
            attempt,
        }))
    }

    /// Chooses which bucket to draw from: own STB if it has anything grantable
    /// for the requester's CTD class, else the least-helped, fullest foreign
    /// STB (§III-E helper priority) — the steal index's `first()`.
    fn pick_bucket(&self, worker: usize) -> Option<(usize, bool)> {
        let member = self.in_ctd_subset(worker);
        if !self.cfg.hf {
            let has = if member {
                self.queued_all[0] > 0
            } else {
                self.queued_noncond[0] > 0
            };
            return has.then_some((0, false));
        }
        let own = if member {
            self.queued_all[worker]
        } else {
            self.queued_noncond[worker]
        };
        if own > 0 {
            return Some((worker, false));
        }
        // The requester's own bucket cannot be in its class's index here (its
        // class count is 0), so `first()` modulo that invariant — the `find`
        // keeps the skip explicit and costs one extra probe at most.
        let index = if member {
            &self.steal_any
        } else {
            &self.steal_noncond
        };
        index
            .iter()
            .map(|&(_, _, b)| b)
            .find(|&b| b != worker)
            .map(|b| (b, true))
    }

    /// Whether `worker`'s next grant would come from its own STB rather than
    /// be a §III-E steal — a read-only probe of [`Self::pick_bucket`]'s
    /// own-bucket and CTD-class check that records nothing. Always true with
    /// HF off (one global bucket, nothing to steal from); false for an
    /// unknown, dead or quarantined worker. A pipelined puller stops at the
    /// first `false`: a worker helps another only when it would otherwise
    /// idle.
    pub fn next_grant_is_own(&self, worker: usize) -> bool {
        worker < self.n_workers
            && self.eligible(worker)
            && (!self.cfg.hf || matches!(self.pick_bucket(worker), Some((_, false))))
    }

    /// Picks `(level, token)` inside a bucket per ADS/CTD, walking the static
    /// preference order for the requester's CTD class.
    fn pick_token(&self, bucket: usize, worker: usize) -> Option<(usize, TokenId)> {
        let order = if self.in_ctd_subset(worker) {
            &self.member_order
        } else {
            &self.nonmember_order
        };
        order
            .iter()
            .find_map(|&level| Some((level, self.levels.pick(bucket, level, worker)?)))
    }

    fn fetches_for(
        &self,
        token: &Token,
        worker: usize,
    ) -> Result<Vec<(usize, u64)>, ScheduleError> {
        if token.level == 0 {
            // Sample affinity: roots read their samples from the owner's
            // durable home (which a crash may have re-homed).
            let owner = token
                .sample_owner
                .ok_or(ScheduleError::MissingSampleOwner { token: token.id })?;
            let home = self.data_home[owner];
            if home != worker {
                let bytes = token.batch * self.meta[0].input_bytes_per_sample;
                return Ok(vec![(home, bytes)]);
            }
            return Ok(vec![]);
        }
        let per_sample = self.meta[token.level].input_bytes_per_sample;
        let mut fetches = Vec::new();
        for dep in &token.deps {
            let holder = *self
                .holder
                .get(dep)
                .ok_or(ScheduleError::MissingDependencyHolder {
                    token: token.id,
                    dep: *dep,
                })?;
            if holder != worker {
                let dep_batch = self
                    .tokens
                    .get(dep)
                    .ok_or(ScheduleError::UnknownToken { token: *dep })?
                    .batch;
                fetches.push((holder, dep_batch * per_sample));
            }
        }
        Ok(fetches)
    }

    // ---- generation / sync -------------------------------------------------

    /// A worker reports a completed token. Records the holder, possibly
    /// generates the next-level token, and returns any sync requests that
    /// became due.
    ///
    /// Degenerate syncs (see [`SyncSpec::is_degenerate`]) are returned too;
    /// the caller finishes them immediately via [`Self::sync_finished`].
    pub fn report(
        &mut self,
        worker: usize,
        token: TokenId,
    ) -> Result<Vec<SyncSpec>, ScheduleError> {
        let result = self.report_unlogged(worker, token);
        self.record(
            || OpKind::Report {
                worker,
                token: token.0,
            },
            &result,
            oplog::outcome_of_report,
        );
        result
    }

    fn report_unlogged(
        &mut self,
        worker: usize,
        token: TokenId,
    ) -> Result<Vec<SyncSpec>, ScheduleError> {
        self.check_worker(worker)?;
        let (level, iteration) = match self.tokens.get(&token) {
            Some(t) => (t.level, t.iteration),
            // Ids are minted densely, so a minted id the table no longer
            // holds belongs to a retired iteration: a late report of work
            // that was already committed.
            None if token.0 < self.next_token_id => {
                return Err(ScheduleError::StaleReport { worker, token })
            }
            None => return Err(ScheduleError::UnknownToken { token }),
        };
        if self.recovery_on() {
            // Only the current lease holder may report: a report from a
            // revoked holder is stale (its token was re-granted elsewhere).
            match self.leases.lease_of(token) {
                Some(l) if l.worker == worker => {
                    self.leases.release(token);
                }
                _ => return Err(ScheduleError::StaleReport { worker, token }),
            }
        }
        if self.holder.contains_key(&token) {
            return Err(ScheduleError::DuplicateReport { token });
        }
        self.holder.insert(token, worker);
        self.trained_per_worker[worker] += 1;
        if level + 1 < self.plan.num_levels() {
            let ratio = self.plan.levels[level + 1].gen_ratio as usize;
            let st = self.levels.state_mut(level);
            let buffer = st.gen_buffer.entry(iteration).or_default();
            buffer.push(token);
            if buffer.len() >= ratio {
                if let Some(deps) = st.gen_buffer.remove(&iteration) {
                    self.generate_token(level + 1, iteration, deps, worker)?;
                }
            }
        }
        let mut syncs = Vec::new();
        let lp = self.plan.levels[level];
        let st = self.levels.state_mut(level);
        let count = st.completed.entry(iteration).or_insert(0);
        *count += 1;
        if *count == lp.tokens_per_iteration {
            st.completed.remove(&iteration);
            let participants: Vec<usize> = if self.cond_level[level] {
                self.ctd_participants(level)?
            } else {
                let alive: Vec<usize> = (0..self.n_workers).filter(|&w| self.eligible(w)).collect();
                if alive.is_empty() {
                    return Err(ScheduleError::NoAliveWorkers);
                }
                alive
            };
            syncs.push(SyncSpec {
                level,
                iteration,
                participants,
                bytes: self.meta[level].param_bytes,
            });
        }
        Ok(syncs)
    }

    /// Marks a level's parameter sync for `iteration` finished, releasing the
    /// level's next iteration (root generation for level 0, pending generated
    /// tokens for deeper levels).
    pub fn sync_finished(&mut self, level: usize, iteration: u64) -> Result<(), ScheduleError> {
        let result = self.sync_unlogged(level, iteration);
        self.record(
            || OpKind::SyncFinished { level, iteration },
            &result,
            oplog::outcome_of_unit,
        );
        result
    }

    fn sync_unlogged(&mut self, level: usize, iteration: u64) -> Result<(), ScheduleError> {
        let m = self.plan.num_levels();
        if level >= m {
            return Err(ScheduleError::LevelOutOfRange { level, levels: m });
        }
        let ls = self.levels.state_mut(level);
        if iteration < ls.synced_upto || ls.synced_out_of_order.contains(&iteration) {
            return Err(ScheduleError::DuplicateSync { level, iteration });
        }
        ls.synced_out_of_order.insert(iteration);
        while ls.synced_out_of_order.remove(&ls.synced_upto) {
            ls.synced_upto += 1;
        }
        let bound = ls.release_bound(self.cfg.staleness);
        for (id, bucket) in ls.release_through(bound) {
            self.stb_push(bucket, level, id)?;
        }
        self.release_due_roots();
        self.retire_completed();
        Ok(())
    }

    /// Retires every iteration that has synced at every level: its tokens
    /// leave the token table, the Info Mapping and the lease attempts, and
    /// its per-level counters go. Nothing refers to them any more — every
    /// token of the iteration was reported, so none is queued, parked,
    /// pending or leased, and later iterations depend only on their own
    /// tokens. The `by_iteration` index names the tokens, so this costs
    /// O(tokens retired · log n).
    fn retire_completed(&mut self) {
        let done = self.completed_iterations();
        while let Some(entry) = self.by_iteration.first_entry() {
            if *entry.key() >= done {
                return;
            }
            let (iteration, ids) = entry.remove_entry();
            for id in ids {
                self.tokens.remove(&id);
                self.holder.remove(&id);
                self.leases.forget(id);
                debug_assert!(!self.levels.is_indexed(id), "retired {id:?} is queued");
            }
            self.levels.retire(iteration);
        }
    }

    /// Adds a freshly minted token to the live window.
    fn mint(&mut self, token: Token) {
        self.by_iteration
            .entry(token.iteration)
            .or_default()
            .push(token.id);
        self.tokens.insert(token.id, token);
    }

    fn generate_token(
        &mut self,
        level: usize,
        iteration: u64,
        deps: Vec<TokenId>,
        reporter: usize,
    ) -> Result<(), ScheduleError> {
        let lp = self.plan.levels[level];
        let generated = self
            .levels
            .state_mut(level)
            .generated
            .entry(iteration)
            .or_insert(0);
        let seq = *generated;
        if seq >= lp.tokens_per_iteration {
            return Err(ScheduleError::OverGeneration { level, iteration });
        }
        *generated += 1;
        let id = TokenId(self.next_token_id);
        self.next_token_id += 1;
        let token = Token {
            id,
            level,
            iteration,
            seq,
            batch: lp.batch_per_token,
            deps,
            sample_owner: None,
        };
        self.mint(token);
        // Generated tokens land in the reporter's STB (it holds at least one
        // dep) — unless CTD forbids the reporter from training this level, in
        // which case they go to the least-loaded eligible subset member.
        let bucket = if !self.cfg.hf {
            0
        } else if self.cond_level[level] && !self.in_ctd_subset(reporter) {
            self.ctd_participants(level)?
                .into_iter()
                .min_by_key(|&w| (self.levels.queue_len(w, level), w))
                .ok_or(ScheduleError::EmptyCtdSubset { level })?
        } else {
            reporter
        };
        if iteration <= self.level_state(level).release_bound(self.cfg.staleness) {
            self.stb_push(bucket, level, id)?;
        } else {
            self.levels.state_mut(level).park(iteration, id, bucket);
        }
        Ok(())
    }

    /// Releases root iterations up to the pipelining (or barrier) bound.
    fn release_due_roots(&mut self) {
        loop {
            let bound = if self.cfg.pipelining {
                self.level_state(0).release_bound(self.cfg.staleness)
            } else {
                self.completed_iterations() + self.cfg.staleness
            };
            if self.released_roots >= self.max_iterations || self.released_roots > bound {
                return;
            }
            self.release_one_root_iteration();
        }
    }

    fn release_one_root_iteration(&mut self) {
        let iter = self.released_roots;
        self.released_roots += 1;
        // A fresh wave of local work arrived for everyone: helper counts from
        // the previous wave no longer describe the new contention picture.
        for b in 0..self.helpers.len() {
            if self.helpers[b] != 0 {
                self.set_helpers(b, 0);
            }
        }
        let n0 = self.plan.levels[0].tokens_per_iteration;
        let batch = self.plan.levels[0].batch_per_token;
        for seq in 0..n0 {
            let owner = (seq % self.n_workers as u64) as usize;
            let id = TokenId(self.next_token_id);
            self.next_token_id += 1;
            let token = Token {
                id,
                level: 0,
                iteration: iter,
                seq,
                batch,
                deps: vec![],
                sample_owner: Some(owner),
            };
            self.mint(token);
            // Sample affinity: the root goes to the STB of the worker its
            // samples live on — or the first eligible worker if that one is
            // out.
            let home = self.data_home[owner];
            let bucket = if !self.cfg.hf {
                0
            } else if self.eligible(home) {
                home
            } else {
                (0..self.n_workers)
                    .find(|&w| self.eligible(w))
                    .unwrap_or(home)
            };
            self.stb_push_root(bucket, id);
        }
    }

    // ---- liveness / recovery -----------------------------------------------

    /// Handles a crash notification for `worker`: revokes all its leases,
    /// re-homes its durable data onto a survivor, redistributes its STB
    /// contents across surviving buckets and drops it from the waiting queue
    /// and barrier membership. Returns the tokens revoked (for tracing).
    pub fn worker_crashed(&mut self, worker: usize) -> Result<Vec<TokenId>, ScheduleError> {
        let result = self.crash_unlogged(worker);
        self.record(
            || OpKind::WorkerCrashed { worker },
            &result,
            oplog::outcome_of_crash,
        );
        result
    }

    fn crash_unlogged(&mut self, worker: usize) -> Result<Vec<TokenId>, ScheduleError> {
        self.check_worker(worker)?;
        if !self.alive[worker] {
            return Err(ScheduleError::BadLivenessTransition {
                worker,
                alive: false,
            });
        }
        self.alive[worker] = false;
        self.waiting.retain(|&w| w != worker);
        // When the crash kills the last eligible worker the cluster is fully
        // dark: nobody can serve data or accept tokens, so re-homing is
        // deferred and revoked tokens park until a restart.
        let fallback = self.fallback_worker().ok();
        if let Some(fb) = fallback {
            for home in &mut self.data_home {
                if *home == worker {
                    *home = fb;
                }
            }
            for holder in self.holder.values_mut() {
                if *holder == worker {
                    *holder = fb;
                }
            }
        }
        let held = self.leases.held_by(worker);
        for &t in &held {
            self.revoke_lease(t)?;
        }
        // Redistribute the dead worker's STB so no token is stranded in a
        // bucket nobody requests from.
        if self.cfg.hf {
            for level in 0..self.plan.num_levels() {
                for id in self.levels.queue_ids(worker, level) {
                    self.stb_remove(worker, level, id)?;
                    self.place_token(level, id)?;
                }
            }
            if let Some(fb) = fallback {
                for level in 0..self.plan.num_levels() {
                    for bucket in self.levels.state_mut(level).pending_buckets_mut() {
                        if *bucket == worker {
                            *bucket = fb;
                        }
                    }
                }
            }
        }
        // Holder re-homing invalidated locality scores computed earlier.
        self.levels.rebuild_scores(&self.tokens, &self.holder)?;
        Ok(held)
    }

    /// Handles a restart notification: `worker` rejoins with a fresh process
    /// (empty STB, clean slate — quarantine and expiry history are cleared).
    /// Its durable data stays where the crash re-homed it. If the cluster went
    /// fully dark in the meantime, the rejoining worker adopts the orphaned
    /// state: homes and holders still pointing at dead workers move to it and
    /// parked tokens are finally placed.
    pub fn worker_restarted(&mut self, worker: usize) -> Result<(), ScheduleError> {
        let result = self.restart_unlogged(worker);
        self.record(
            || OpKind::WorkerRestarted { worker },
            &result,
            oplog::outcome_of_unit,
        );
        result
    }

    fn restart_unlogged(&mut self, worker: usize) -> Result<(), ScheduleError> {
        self.check_worker(worker)?;
        if self.alive[worker] {
            return Err(ScheduleError::BadLivenessTransition {
                worker,
                alive: true,
            });
        }
        self.alive[worker] = true;
        self.quarantined[worker] = false;
        self.leases.clear_expiries(worker);
        let orphaned = !self.parked.is_empty()
            || self.data_home.iter().any(|&h| !self.alive[h])
            || self.holder.values().any(|&h| !self.alive[h]);
        if orphaned {
            let fb = self.fallback_worker()?; // the rejoining worker at worst
            let alive = &self.alive;
            for home in &mut self.data_home {
                if !alive[*home] {
                    *home = fb;
                }
            }
            for holder in self.holder.values_mut() {
                if !alive[*holder] {
                    *holder = fb;
                }
            }
            if self.cfg.hf {
                for level in 0..self.plan.num_levels() {
                    for bucket in self.levels.state_mut(level).pending_buckets_mut() {
                        if !alive[*bucket] {
                            *bucket = fb;
                        }
                    }
                }
            }
            let parked = std::mem::take(&mut self.parked);
            for (level, id) in parked {
                self.place_token(level, id)?;
            }
            self.levels.rebuild_scores(&self.tokens, &self.holder)?;
        }
        Ok(())
    }

    /// Handles a lease-deadline expiry for `(token, attempt)`. Stale timers —
    /// the lease was already released by a report, or already revoked and
    /// re-granted under a newer attempt — return `Ok(None)` and change
    /// nothing. A live expiry revokes the lease, counts against the holder
    /// and, at the configured threshold, quarantines it (revoking all its
    /// remaining leases too).
    pub fn lease_expired(
        &mut self,
        token: TokenId,
        attempt: u64,
    ) -> Result<Option<ExpiredLease>, ScheduleError> {
        let result = self.expiry_unlogged(token, attempt);
        self.record(
            || OpKind::LeaseExpired {
                token: token.0,
                attempt,
            },
            &result,
            oplog::outcome_of_expiry,
        );
        result
    }

    fn expiry_unlogged(
        &mut self,
        token: TokenId,
        attempt: u64,
    ) -> Result<Option<ExpiredLease>, ScheduleError> {
        let Some(lease) = self.leases.lease_of(token) else {
            return Ok(None);
        };
        if lease.attempt != attempt {
            return Ok(None);
        }
        let worker = lease.worker;
        self.revoke_lease(token)?;
        let mut revoked = vec![token];
        let expiries = self.leases.count_expiry(worker);
        let threshold = self
            .cfg
            .recovery
            .map(|r| r.quarantine_after)
            .unwrap_or(u64::MAX);
        let mut newly_quarantined = false;
        if expiries >= threshold && !self.quarantined[worker] {
            // Check a survivor remains before shrinking the membership.
            if (0..self.n_workers).any(|w| w != worker && self.eligible(w)) {
                self.quarantined[worker] = true;
                newly_quarantined = true;
                self.waiting.retain(|&w| w != worker);
                let held = self.leases.held_by(worker);
                for &t in &held {
                    self.revoke_lease(t)?;
                }
                revoked.extend(held);
            }
        }
        Ok(Some(ExpiredLease {
            worker,
            revoked,
            quarantined: newly_quarantined,
        }))
    }

    /// Revokes the active lease on `token`: bumps its attempt count and
    /// returns it to the grantable set, re-scored against surviving workers.
    fn revoke_lease(&mut self, token: TokenId) -> Result<(), ScheduleError> {
        if !self.leases.revoke(token) {
            return Err(ScheduleError::UnknownToken { token });
        }
        let level = self
            .tokens
            .get(&token)
            .ok_or(ScheduleError::UnknownToken { token })?
            .level;
        self.place_token(level, token)
    }

    /// Places a token (revoked, or displaced from a dead bucket) into the best
    /// surviving bucket: the eligible worker with the highest locality score
    /// (Equation 1 against the current holder map), ties to the lightest
    /// queue, then the smallest id. Conditional levels stay inside the alive
    /// part of the CTD subset. With no eligible worker anywhere (fully dark
    /// cluster) the token parks until a restart re-places it.
    fn place_token(&mut self, level: usize, id: TokenId) -> Result<(), ScheduleError> {
        if !self.cfg.hf {
            return self.stb_push(0, level, id);
        }
        let candidates: Vec<usize> = if self.cond_level[level] {
            match self.ctd_participants(level) {
                Ok(c) => c,
                Err(ScheduleError::NoAliveWorkers) => {
                    self.parked.push((level, id));
                    return Ok(());
                }
                Err(e) => return Err(e),
            }
        } else {
            let alive: Vec<usize> = (0..self.n_workers).filter(|&w| self.eligible(w)).collect();
            if alive.is_empty() {
                self.parked.push((level, id));
                return Ok(());
            }
            alive
        };
        let mut best: Option<(u64, usize, usize)> = None; // (score key, queue, id)
        let mut bucket = candidates[0];
        for &w in &candidates {
            let score = self.locality_score(w, id)?;
            // `queued_all` is the bucket's queue length summed over levels.
            let key = (score_key(score), self.queued_all[w], w);
            if best.map_or(true, |b| key < b) {
                best = Some(key);
                bucket = w;
            }
        }
        self.stb_push(bucket, level, id)
    }

    // ---- snapshot ----------------------------------------------------------

    /// A canonical snapshot of the scheduling state (see [`ServerSnapshot`]).
    pub fn snapshot(&self) -> ServerSnapshot {
        let m = self.plan.num_levels();
        let buckets = self.queued_all.len();
        ServerSnapshot {
            released_roots: self.released_roots,
            next_token_id: self.next_token_id,
            stbs: (0..buckets)
                .map(|b| (0..m).map(|l| self.levels.queue_row(b, l)).collect())
                .collect(),
            pending: (0..m)
                .map(|l| {
                    self.level_state(l)
                        .pending_in_id_order()
                        .into_iter()
                        .map(|(id, b)| (id.0, b))
                        .collect()
                })
                .collect(),
            synced_upto: (0..m).map(|l| self.level_state(l).synced_upto).collect(),
            synced_out_of_order: (0..m)
                .map(|l| {
                    self.level_state(l)
                        .synced_out_of_order
                        .iter()
                        .copied()
                        .collect()
                })
                .collect(),
            completed: (0..m)
                .map(|l| {
                    self.level_state(l)
                        .completed
                        .iter()
                        .map(|(&k, &v)| (k, v))
                        .collect()
                })
                .collect(),
            gen_buffers: (0..m)
                .map(|l| {
                    self.level_state(l)
                        .gen_buffer
                        .iter()
                        .map(|(&k, v)| (k, v.iter().map(|id| id.0).collect()))
                        .collect()
                })
                .collect(),
            holder: self.holder.iter().map(|(&t, &w)| (t.0, w)).collect(),
            waiting: self.waiting.iter().copied().collect(),
            helpers: self.helpers.clone(),
            alive: self.alive.clone(),
            quarantined: self.quarantined.clone(),
            leases: self.leases.lease_triples(),
            attempts: self.leases.attempt_pairs(),
            expiry_counts: self.leases.expiry_counts().to_vec(),
            data_home: self.data_home.clone(),
            parked: self.parked.iter().map(|&(l, id)| (l, id.0)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RecoveryConfig;
    use crate::plan::TokenPlan;
    use fela_model::{bin_partition, zoo, PartitionOptions, ThresholdProfile};

    const N: usize = 8;

    fn meta_from_vgg() -> (TokenPlan, Vec<LevelMeta>) {
        let p = bin_partition(
            &zoo::vgg19(),
            &ThresholdProfile::k40c(),
            PartitionOptions::default(),
        );
        let cfg = FelaConfig::new(3).with_weights(vec![1, 2, 4]);
        let plan = TokenPlan::build(&p, &cfg, 128, N).unwrap();
        let meta = p
            .sub_models()
            .iter()
            .map(|s| LevelMeta {
                param_bytes: s.param_bytes,
                output_bytes_per_sample: s.output_bytes_per_sample,
                input_bytes_per_sample: s.input_bytes_per_sample,
                comm_intensive: s.comm_intensive,
            })
            .collect();
        (plan, meta)
    }

    fn server(cfg_mod: impl FnOnce(FelaConfig) -> FelaConfig) -> ControlPlane {
        let (plan, meta) = meta_from_vgg();
        let cfg = cfg_mod(FelaConfig::new(3).with_weights(vec![1, 2, 4]));
        ControlPlane::new(plan, cfg, meta, N, 100)
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1000)
    }

    /// Runs synchronously until `target` iterations have fully completed: every
    /// granted token completes immediately; emitted syncs finish immediately.
    /// Granted-but-unreported tokens are always drained before returning, so the
    /// helper can be called repeatedly. Returns emitted sync specs.
    fn drain_until(ts: &mut ControlPlane, clock: &mut u64, target: u64) -> Vec<SyncSpec> {
        let mut all_syncs = Vec::new();
        let mut active: VecDeque<(usize, Grant)> = VecDeque::new();
        loop {
            let done = ts.completed_iterations() >= target;
            if done && active.is_empty() {
                return all_syncs;
            }
            if active.is_empty() {
                // Kick every worker once; at least one grant must emerge.
                for w in 0..N {
                    *clock += 500;
                    if let Some(g) = ts.request(w, t(*clock)).unwrap() {
                        active.push_back((w, g));
                    }
                }
                assert!(!active.is_empty(), "drain stalled with no grantable work");
                continue;
            }
            let (w, g) = active.pop_front().expect("non-empty");
            *clock += 500;
            let syncs = ts.report(w, g.token.id).unwrap();
            for s in &syncs {
                ts.sync_finished(s.level, s.iteration).unwrap();
            }
            all_syncs.extend(syncs);
            if ts.completed_iterations() < target {
                if let Some(g2) = ts.request(w, t(*clock)).unwrap() {
                    active.push_back((w, g2));
                }
                while let Some((w2, g2)) = ts.pop_ready_grant(t(*clock)).unwrap() {
                    active.push_back((w2, g2));
                }
            }
        }
    }

    #[test]
    fn roots_are_spread_across_stbs() {
        let ts = server(|c| c);
        let stbs = ts.snapshot().stbs;
        for (w, stb) in stbs.iter().enumerate() {
            assert_eq!(stb[0].len(), 1, "worker {w} STB");
        }
        assert_eq!(ts.released_root_iterations(), 1);
    }

    #[test]
    fn own_stb_grant_is_local_and_conflict_free() {
        let mut ts = server(|c| c);
        let g = ts.request(3, t(0)).unwrap().expect("token available");
        assert_eq!(g.token.level, 0);
        assert_eq!(g.token.sample_owner, Some(3));
        assert!(g.fetches.is_empty(), "own shard → no sample fetch");
        assert!(!g.conflict);
        assert_eq!(ts.stats().local_grants, 1);
    }

    #[test]
    fn generation_follows_figure3_ratios() {
        let mut ts = server(|c| c);
        let g0 = ts.request(0, t(0)).unwrap().unwrap();
        let g1 = ts.request(1, t(1)).unwrap().unwrap();
        assert!(ts.report(0, g0.token.id).unwrap().is_empty());
        let lvl1_before: usize = ts.snapshot().stbs.iter().map(|s| s[1].len()).sum();
        assert_eq!(lvl1_before, 0);
        ts.report(1, g1.token.id).unwrap();
        let stbs = ts.snapshot().stbs;
        let lvl1_after: usize = stbs.iter().map(|s| s[1].len()).sum();
        assert_eq!(lvl1_after, 1, "2 T-1 completions generate 1 T-2 token");
        let id = stbs
            .iter()
            .flat_map(|s| s[1].iter())
            .next()
            .copied()
            .unwrap();
        assert_eq!(
            ts.token(TokenId(id)).unwrap().deps,
            vec![g0.token.id, g1.token.id]
        );
        assert_eq!(stbs[1][1].len(), 1, "token placed in the reporter's STB");
    }

    #[test]
    fn ads_prefers_highest_level() {
        let mut ts = server(|c| c);
        let g0 = ts.request(0, t(0)).unwrap().unwrap();
        ts.report(0, g0.token.id).unwrap();
        let g1 = ts.request(0, t(10_000)).unwrap().unwrap(); // steals from worker 1's STB
        assert_eq!(g1.token.sample_owner, Some(1));
        ts.report(0, g1.token.id).unwrap();
        let g2 = ts.request(0, t(20_000)).unwrap().unwrap();
        assert_eq!(g2.token.level, 1, "ADS grants the deeper token first");
        assert!(g2.fetches.is_empty(), "reporter holds both deps");
    }

    #[test]
    fn ads_off_prefers_lowest_level() {
        let mut ts = server(|c| c.with_ads(false).with_hf(false));
        let g0 = ts.request(0, t(0)).unwrap().unwrap();
        ts.report(0, g0.token.id).unwrap();
        let g1 = ts.request(0, t(10_000)).unwrap().unwrap();
        ts.report(0, g1.token.id).unwrap();
        let g2 = ts.request(0, t(20_000)).unwrap().unwrap();
        assert_eq!(g2.token.level, 0, "ADS-off picks remaining T-1 first");
    }

    #[test]
    fn helper_steals_when_own_stb_empty() {
        let mut ts = server(|c| c);
        let g = ts.request(0, t(0)).unwrap().unwrap();
        ts.report(0, g.token.id).unwrap();
        let g2 = ts.request(0, t(1_000_000)).unwrap().unwrap();
        assert_eq!(g2.token.sample_owner, Some(1));
        assert_eq!(ts.stats().steals, 1);
        assert_eq!(g2.fetches.len(), 1);
        assert_eq!(g2.fetches[0].0, 1);
        assert!(g2.fetches[0].1 > 0, "stolen roots fetch their samples");
    }

    #[test]
    fn next_grant_is_own_marks_the_steal_boundary() {
        let mut ts = server(|c| c);
        ts.enable_op_log();
        assert!(ts.next_grant_is_own(0), "own STB holds a root");
        ts.request(0, t(0)).unwrap().unwrap();
        let snap = ts.snapshot();
        assert!(
            !ts.next_grant_is_own(0),
            "own STB empty, foreign STBs not: the next grant is a steal"
        );
        assert!(ts.next_grant_is_own(1), "worker 1's root is untouched");
        assert!(!ts.next_grant_is_own(N), "unknown worker");
        assert_eq!(ts.snapshot(), snap, "the query mutates nothing");
        assert_eq!(ts.take_op_log().len(), 1, "and records no op");
        ts.request(0, t(1_000_000)).unwrap().unwrap();
        assert_eq!(ts.stats().steals, 1, "the next grant was indeed a steal");

        // HF off: one global bucket, so no grant is ever a steal.
        let mut global = server(|c| c.with_hf(false));
        for w in 0..N {
            assert!(global.next_grant_is_own(w));
            global.request(w, t(w as u64)).unwrap().unwrap();
        }
        assert!(global.next_grant_is_own(0), "even once drained");

        // The global bucket keeps work, so only eligibility can say no.
        let recovery = RecoveryConfig {
            quarantine_after: 1,
            ..RecoveryConfig::default()
        };
        let mut ts = server(|c| c.with_hf(false).with_recovery(recovery));
        ts.worker_crashed(2).unwrap();
        assert!(!ts.next_grant_is_own(2), "a crashed worker");
        let g = ts.request(3, t(0)).unwrap().unwrap();
        let expired = ts.lease_expired(g.token.id, g.attempt).unwrap().unwrap();
        assert!(expired.quarantined);
        assert!(!ts.next_grant_is_own(3), "a quarantined worker");
        assert!(ts.next_grant_is_own(4), "while the bucket still has work");
    }

    #[test]
    fn conflicts_detected_within_lock_window() {
        let mut ts = server(|c| c.with_hf(false));
        let g1 = ts.request(0, t(0)).unwrap().unwrap();
        assert!(!g1.conflict, "first grant cannot conflict");
        let g2 = ts.request(1, t(10)).unwrap().unwrap();
        assert!(g2.conflict);
        let g3 = ts.request(2, t(10_000)).unwrap().unwrap();
        assert!(!g3.conflict);
        assert_eq!(ts.stats().conflicts, 1);
    }

    #[test]
    fn hf_owners_never_conflict() {
        let mut ts = server(|c| c);
        let g1 = ts.request(0, t(0)).unwrap().unwrap();
        let g2 = ts.request(1, t(1)).unwrap().unwrap();
        assert!(!g1.conflict && !g2.conflict);
        assert_eq!(ts.stats().conflicts, 0);
    }

    #[test]
    fn global_bucket_ignores_sample_affinity() {
        let mut ts = server(|c| c.with_hf(false));
        let g = ts.request(5, t(0)).unwrap().unwrap();
        assert_eq!(g.token.sample_owner, Some(0));
        assert_eq!(g.fetches.len(), 1);
        assert_eq!(g.fetches[0].0, 0);
    }

    #[test]
    fn starved_request_queues_and_pops_later() {
        let mut ts = server(|c| c);
        let mut granted = Vec::new();
        for w in 0..N {
            granted.push(ts.request(w, t(w as u64 * 1000)).unwrap().unwrap());
        }
        assert!(ts.request(0, t(9_000)).unwrap().is_none());
        assert_eq!(ts.stats().starved_requests, 1);
        assert!(ts.pop_ready_grant(t(10_000)).unwrap().is_none());
        ts.report(0, granted[0].token.id).unwrap();
        ts.report(1, granted[1].token.id).unwrap();
        let (w, g) = ts
            .pop_ready_grant(t(11_000))
            .unwrap()
            .expect("worker served");
        assert_eq!(w, 0);
        assert_eq!(g.token.level, 1);
    }

    #[test]
    fn sync_emitted_when_level_completes() {
        let mut ts = server(|c| c);
        let mut syncs = Vec::new();
        for w in 0..N {
            let g = ts.request(w, t(w as u64)).unwrap().unwrap();
            syncs.extend(ts.report(w, g.token.id).unwrap());
        }
        assert_eq!(syncs.len(), 1);
        assert_eq!(syncs[0].level, 0);
        assert_eq!(syncs[0].iteration, 0);
        assert_eq!(syncs[0].participants.len(), N);
        assert!(syncs[0].bytes > 0);
        assert!(!syncs[0].is_degenerate());
        assert_eq!(ts.completed_iterations(), 0);
    }

    #[test]
    fn level0_sync_releases_next_iterations_roots() {
        let mut ts = server(|c| c);
        let mut grants = Vec::new();
        for w in 0..N {
            grants.push(ts.request(w, t(w as u64)).unwrap().unwrap());
        }
        let mut syncs = Vec::new();
        for (w, g) in grants.iter().enumerate() {
            syncs.extend(ts.report(w, g.token.id).unwrap());
        }
        assert_eq!(ts.released_root_iterations(), 1, "gated until sync");
        ts.sync_finished(0, 0).unwrap();
        assert_eq!(
            ts.released_root_iterations(),
            2,
            "iteration 1 roots flow while deeper levels of iteration 0 still train"
        );
        // The new roots are distributable right away (worker 2's STB holds only
        // its fresh root; odd-numbered workers also hold generated T-2 tokens,
        // which ADS would prefer).
        let g = ts.request(2, t(1_000_000)).unwrap().unwrap();
        assert_eq!((g.token.level, g.token.iteration), (0, 1));
    }

    #[test]
    fn deeper_levels_gate_on_their_own_sync() {
        let mut ts = server(|c| c);
        let mut clock = 0u64;
        // Drain iteration 0 fully (all syncs finish instantly in the helper).
        drain_until(&mut ts, &mut clock, 1);
        assert_eq!(ts.completed_iterations(), 1);
        // Iteration 1 roots already released by the level-0 sync.
        assert!(ts.released_root_iterations() >= 2);
    }

    #[test]
    fn run_completes_after_max_iterations() {
        let (plan, meta) = meta_from_vgg();
        let cfg = FelaConfig::new(3).with_weights(vec![1, 2, 4]);
        let mut ts = ControlPlane::new(plan, cfg, meta, N, 3);
        let mut clock = 0u64;
        for k in 1..=3u64 {
            drain_until(&mut ts, &mut clock, k);
            assert_eq!(ts.completed_iterations(), k);
        }
        assert!(ts.run_complete());
        // No further tokens exist.
        assert!(ts
            .request(0, t(clock * 1000 + 1_000_000))
            .unwrap()
            .is_none());
        // Token conservation across the run.
        let total: u64 = ts.trained_per_worker().iter().sum();
        assert_eq!(total, ts.plan().tokens_per_iteration() * 3);
    }

    #[test]
    fn ctd_restricts_cond_level_to_subset() {
        let mut ts = server(|c| c.with_ctd(2));
        let mut inflight: VecDeque<Grant> = VecDeque::new();
        for w in 0..N {
            inflight.push_back(ts.request(w, t(w as u64)).unwrap().unwrap());
        }
        let mut clock = 1000u64;
        while let Some(g) = inflight.pop_front() {
            for s in ts.report(7, g.token.id).unwrap() {
                ts.sync_finished(s.level, s.iteration).unwrap();
            }
            clock += 1000;
            if let Some(g2) = ts.request(7, t(clock)).unwrap() {
                assert_ne!(g2.token.level, 2, "non-member granted conditional token");
                // Stop chasing into iteration 1 — we only care about iteration 0.
                if g2.token.iteration == 0 {
                    inflight.push_back(g2);
                }
            }
        }
        let stbs = ts.snapshot().stbs;
        let cond_tokens: usize = (0..2).map(|w| stbs[w][2].len()).sum();
        let cond_elsewhere: usize = (2..N).map(|w| stbs[w][2].len()).sum();
        assert_eq!(cond_elsewhere, 0);
        assert!(cond_tokens > 0);
        let g = ts.request(0, t(clock + 1000)).unwrap().unwrap();
        assert_eq!(
            g.token.level, 2,
            "subset member takes conditional tokens first"
        );
    }

    #[test]
    fn ctd_sync_participants_are_subset() {
        let mut ts = server(|c| c.with_ctd(2));
        let mut clock = 0u64;
        let syncs = drain_until(&mut ts, &mut clock, 1);
        let fc_sync = syncs.iter().find(|s| s.level == 2).expect("FC sync");
        assert_eq!(
            fc_sync.participants,
            vec![0, 1],
            "CTD shrinks the sync group"
        );
        let conv_sync = syncs.iter().find(|s| s.level == 0).unwrap();
        assert_eq!(conv_sync.participants.len(), N);
        assert_eq!(ts.completed_iterations(), 1);
    }

    #[test]
    fn barrier_mode_holds_next_iteration_until_full_completion() {
        let (plan, meta) = meta_from_vgg();
        let cfg = FelaConfig::new(3)
            .with_weights(vec![1, 2, 4])
            .with_pipelining(false);
        let mut ts = ControlPlane::new(plan, cfg, meta, N, 10);
        // Complete all 8 root tokens and finish the level-0 sync.
        let mut grants = Vec::new();
        for w in 0..N {
            grants.push(ts.request(w, t(w as u64)).unwrap().unwrap());
        }
        let mut syncs = Vec::new();
        for (w, g) in grants.iter().enumerate() {
            syncs.extend(ts.report(w, g.token.id).unwrap());
        }
        for sp in &syncs {
            ts.sync_finished(sp.level, sp.iteration).unwrap();
        }
        // Pipelining would release iteration 1 here; the barrier must not.
        assert_eq!(
            ts.released_root_iterations(),
            1,
            "barrier mode gates iteration 1 on the whole of iteration 0"
        );
        let mut clock = 1_000_000u64;
        drain_until(&mut ts, &mut clock, 1);
        assert!(
            ts.released_root_iterations() >= 2,
            "released after the barrier"
        );
    }

    #[test]
    fn staleness_releases_iterations_ahead() {
        let (plan, meta) = meta_from_vgg();
        let cfg = FelaConfig::new(3)
            .with_weights(vec![1, 2, 4])
            .with_staleness(2);
        let ts = ControlPlane::new(plan, cfg, meta, N, 10);
        // With staleness 2, iterations 0..=2 are released before any sync.
        assert_eq!(ts.released_root_iterations(), 3);
        // Every worker's STB holds 3 root tokens (one per released iteration).
        for (w, stb) in ts.snapshot().stbs.iter().enumerate() {
            assert_eq!(stb[0].len(), 3, "worker {w}");
        }
    }

    #[test]
    fn staleness_zero_is_bsp() {
        let (plan, meta) = meta_from_vgg();
        let cfg = FelaConfig::new(3)
            .with_weights(vec![1, 2, 4])
            .with_staleness(0);
        let ts = ControlPlane::new(plan, cfg, meta, N, 10);
        assert_eq!(ts.released_root_iterations(), 1);
    }

    #[test]
    fn out_of_order_syncs_reconcile() {
        let (plan, meta) = meta_from_vgg();
        let cfg = FelaConfig::new(3)
            .with_weights(vec![1, 2, 4])
            .with_staleness(1);
        let mut ts = ControlPlane::new(plan, cfg, meta, N, 10);
        // Check the contiguity accounting by feeding level 0's syncs out of
        // order.
        ts.sync_finished(0, 1).unwrap(); // iteration 1 first
        assert_eq!(
            ts.snapshot().synced_upto[0],
            0,
            "gap at 0 blocks advancement"
        );
        ts.sync_finished(0, 0).unwrap();
        assert_eq!(
            ts.snapshot().synced_upto[0],
            2,
            "both reconcile once 0 lands"
        );
    }

    /// Worker 0 pulls every grantable token and reports each pulled batch
    /// newest first, so one level-0 iteration's completions can overtake the
    /// previous one's and deeper-level ids interleave across iterations.
    /// Level-0 syncs finish at once; deeper syncs are held and returned, so
    /// level 0 runs ahead and the deeper levels park their generated tokens.
    fn run_level0_ahead(ts: &mut ControlPlane, clock: &mut u64) -> Vec<(usize, u64)> {
        let mut held = Vec::new();
        loop {
            *clock += 500;
            let mut batch = Vec::new();
            while let Some(g) = ts.request(0, t(*clock)).unwrap() {
                batch.push(g.token.id);
            }
            while let Some((_, g)) = ts.pop_ready_grant(t(*clock)).unwrap() {
                batch.push(g.token.id);
            }
            if batch.is_empty() {
                return held;
            }
            for id in batch.into_iter().rev() {
                for s in ts.report(0, id).unwrap() {
                    if s.level == 0 {
                        ts.sync_finished(0, s.iteration).unwrap();
                    } else {
                        held.push((s.level, s.iteration));
                    }
                }
            }
        }
    }

    #[test]
    fn one_sync_releases_several_pending_iterations_in_id_order() {
        let (plan, meta) = meta_from_vgg();
        let cfg = FelaConfig::new(3)
            .with_weights(vec![1, 2, 4])
            .with_staleness(1);
        let mut ts = ControlPlane::new(plan.clone(), cfg.clone(), meta.clone(), N, 12);
        let mut clock = 0u64;
        let held = run_level0_ahead(&mut ts, &mut clock);
        assert_eq!(ts.released_root_iterations(), 12, "level 0 ran to the end");
        assert!(held.contains(&(1, 0)) && held.contains(&(1, 1)));

        let before = ts.snapshot();
        let tokens = ts.tokens().clone();
        let iteration = |id: u64| tokens[&TokenId(id)].iteration;
        let parked: BTreeSet<u64> = before.pending[1]
            .iter()
            .map(|&(id, _)| iteration(id))
            .collect();
        assert!(parked.len() >= 8, "level 1 parks iterations {parked:?}");
        assert!(
            before.pending[1].windows(2).all(|w| w[0].0 < w[1].0),
            "the snapshot lists pending in ascending id order"
        );
        // A snapshot with `pending` spanning several iterations restores to
        // a byte-equal snapshot.
        let restored =
            ControlPlane::restore(plan, cfg, meta, N, 12, tokens.clone(), &before).unwrap();
        assert_eq!(restored.snapshot(), before);

        // Out of order: syncing iteration 1 first releases nothing; syncing
        // 0 then advances the bound by two and releases iterations 2 and 3
        // in one call.
        ts.sync_finished(1, 1).unwrap();
        assert_eq!(ts.snapshot().stbs, before.stbs, "a gap at 0 holds level 1");
        ts.sync_finished(1, 0).unwrap();
        let after = ts.snapshot();
        let released: Vec<(u64, usize)> = before.pending[1]
            .iter()
            .copied()
            .filter(|&(id, _)| iteration(id) <= 3)
            .collect();
        assert_eq!(
            released
                .iter()
                .map(|&(id, _)| iteration(id))
                .collect::<BTreeSet<_>>(),
            BTreeSet::from([2, 3])
        );
        // The two iterations' ids interleave, so releasing them iteration by
        // iteration would differ from the FIFO (ascending-id) order.
        let mut by_iteration = released.clone();
        by_iteration.sort_by_key(|&(id, _)| (iteration(id), id));
        assert_ne!(by_iteration, released, "the drive must interleave ids");
        for (bucket, rows) in after.stbs.iter().enumerate() {
            let old = &before.stbs[bucket][1];
            assert_eq!(&rows[1][..old.len()], &old[..]);
            let expect: Vec<u64> = released
                .iter()
                .filter(|&&(_, b)| b == bucket)
                .map(|&(id, _)| id)
                .collect();
            assert_eq!(rows[1][old.len()..], expect[..], "bucket {bucket}");
        }
        let kept: Vec<(u64, usize)> = before.pending[1]
            .iter()
            .copied()
            .filter(|&(id, _)| iteration(id) > 3)
            .collect();
        assert_eq!(after.pending[1], kept);
    }

    #[test]
    fn restore_rejects_a_pending_id_missing_from_the_token_table() {
        let (plan, meta) = meta_from_vgg();
        let cfg = FelaConfig::new(3)
            .with_weights(vec![1, 2, 4])
            .with_staleness(1);
        let mut ts = ControlPlane::new(plan.clone(), cfg.clone(), meta.clone(), N, 6);
        run_level0_ahead(&mut ts, &mut 0);
        let snap = ts.snapshot();
        let (missing, _) = *snap.pending[1].last().expect("level 1 parks tokens");
        let mut tokens = ts.tokens().clone();
        tokens.remove(&TokenId(missing));
        let err = ControlPlane::restore(plan, cfg, meta, N, 6, tokens, &snap)
            .err()
            .expect("a dangling pending id is rejected at restore");
        assert_eq!(
            err,
            ScheduleError::UnknownToken {
                token: TokenId(missing)
            }
        );
        assert!(err.to_string().contains(&missing.to_string()), "{err}");
    }

    #[test]
    fn ctd_subset_one_sync_is_degenerate() {
        let mut ts = server(|c| c.with_ctd(1));
        let mut clock = 0u64;
        let syncs = drain_until(&mut ts, &mut clock, 1);
        let fc_syncs: Vec<_> = syncs.iter().filter(|s| s.level == 2).collect();
        assert!(
            !fc_syncs.is_empty(),
            "the update commit is still observable"
        );
        assert!(
            fc_syncs.iter().all(|s| s.is_degenerate()),
            "single-member subset syncs degenerately (for free)"
        );
    }

    #[test]
    fn duplicate_report_is_typed_error() {
        let mut ts = server(|c| c);
        let g = ts.request(0, t(0)).unwrap().unwrap();
        ts.report(0, g.token.id).unwrap();
        let err = ts.report(0, g.token.id).unwrap_err();
        assert_eq!(err, ScheduleError::DuplicateReport { token: g.token.id });
    }

    #[test]
    fn unknown_token_report_is_typed_error() {
        let mut ts = server(|c| c);
        let err = ts.report(0, TokenId(999)).unwrap_err();
        assert_eq!(
            err,
            ScheduleError::UnknownToken {
                token: TokenId(999)
            }
        );
    }

    #[test]
    fn a_synced_iteration_retires_and_its_late_reports_are_stale() {
        let mut ts = server(|c| c);
        let mut clock = 0u64;
        drain_until(&mut ts, &mut clock, 1);
        let snap = ts.snapshot();
        assert!(
            ts.tokens().values().all(|t| t.iteration >= 1),
            "iteration 0 left the token table"
        );
        assert!(ts.token(TokenId(0)).is_none());
        assert!(snap
            .holder
            .iter()
            .all(|&(id, _)| ts.token(TokenId(id)).is_some()));
        for level in 0..ts.plan().num_levels() {
            assert!(snap.completed[level].iter().all(|&(it, _)| it >= 1));
            assert!(snap.gen_buffers[level].iter().all(|&(it, _)| it >= 1));
            assert!(ts.level_state(level).generated.keys().all(|&it| it >= 1));
        }
        // A late report of retired work is stale, not unknown, and changes
        // nothing.
        let err = ts.report(0, TokenId(0)).unwrap_err();
        assert_eq!(
            err,
            ScheduleError::StaleReport {
                worker: 0,
                token: TokenId(0)
            }
        );
        assert_eq!(ts.snapshot(), snap);
        // An id never minted is still unknown.
        let unminted = TokenId(snap.next_token_id);
        assert_eq!(
            ts.report(0, unminted).unwrap_err(),
            ScheduleError::UnknownToken { token: unminted }
        );
        // The retired window restores: a checkpoint needs nothing behind it.
        let (plan, meta) = meta_from_vgg();
        let cfg = FelaConfig::new(3).with_weights(vec![1, 2, 4]);
        let restored =
            ControlPlane::restore(plan, cfg, meta, N, 100, ts.tokens().clone(), &snap).unwrap();
        assert_eq!(restored.snapshot(), snap);
    }

    #[test]
    fn invalid_worker_is_typed_error() {
        let mut ts = server(|c| c);
        let err = ts.request(N + 3, t(0)).unwrap_err();
        assert!(matches!(err, ScheduleError::InvalidWorker { .. }), "{err}");
    }

    #[test]
    fn duplicate_sync_is_typed_error() {
        let mut ts = server(|c| c);
        let mut grants = Vec::new();
        for w in 0..N {
            grants.push(ts.request(w, t(w as u64)).unwrap().unwrap());
        }
        for (w, g) in grants.iter().enumerate() {
            ts.report(w, g.token.id).unwrap();
        }
        ts.sync_finished(0, 0).unwrap();
        let err = ts.sync_finished(0, 0).unwrap_err();
        assert_eq!(
            err,
            ScheduleError::DuplicateSync {
                level: 0,
                iteration: 0
            }
        );
        let err = ts.sync_finished(9, 0).unwrap_err();
        assert!(
            matches!(err, ScheduleError::LevelOutOfRange { .. }),
            "{err}"
        );
    }

    #[test]
    fn cloned_server_replays_identically() {
        let mut a = server(|c| c);
        let g = a.request(0, t(0)).unwrap().unwrap();
        a.report(0, g.token.id).unwrap();
        let mut b = a.clone();
        assert_eq!(a.snapshot(), b.snapshot());
        let ga = a.request(1, t(1000)).unwrap().unwrap();
        let gb = b.request(1, t(1000)).unwrap().unwrap();
        assert_eq!(ga.token.id, gb.token.id);
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn snapshot_reflects_progress() {
        let mut ts = server(|c| c);
        let before = ts.snapshot();
        let g = ts.request(0, t(0)).unwrap().unwrap();
        let after_grant = ts.snapshot();
        assert_ne!(before, after_grant, "grant drains an STB");
        ts.report(0, g.token.id).unwrap();
        let after_report = ts.snapshot();
        assert_eq!(after_report.holder, vec![(g.token.id.0, 0)]);
    }

    #[test]
    fn a_cloned_plane_detaches_its_wal() {
        let mut ts = server(|c| c);
        let mem = crate::wal::MemWal::new();
        ts.attach_wal(Box::new(mem.clone())).unwrap();
        let mut probe = ts.clone();
        assert!(ts.wal_attached() && !probe.wal_attached());
        let logged = mem.len();
        probe.request(0, t(0)).unwrap();
        assert_eq!(mem.len(), logged, "a probe must not append to the log");
        ts.request(0, t(0)).unwrap();
        assert!(mem.len() > logged);
    }
}
