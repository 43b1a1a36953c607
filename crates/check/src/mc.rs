//! `fela-mc` — the deterministic concurrency model checker for the live
//! runtime and the control plane.
//!
//! The real-clock runtime (`fela-live`) is a single-threaded server over a
//! merged inbox, pump threads forwarding per-worker TCP/channel links, and a
//! timer heap for lease deadlines. Its nondeterminism is therefore exactly:
//! *in which order do worker messages reach the server loop, and when do
//! lease timers fire relative to them*. This module drives the **real**
//! production [`ControlPlane`] and the **real** wire [`Frame`]s through every
//! non-equivalent such interleaving of a small cluster, with the server logic
//! mirroring `fela-live`'s `handle_frame` statement for statement.
//!
//! **Partial-order reduction.** Worker reactions run *eagerly*: the instant
//! the server sends a `Grant`, the model computes the worker's `Report` and
//! parks it in that worker's link queue. This is sound because a worker's
//! local step is invisible to the server until its message is *delivered* —
//! delaying the reaction commutes with every other transition (Mazurkiewicz
//! equivalence), so only two action kinds branch: `Deliver(worker)` (the
//! server dequeues that worker's oldest in-flight frame) and
//! `Fire(token, attempt)` (an armed lease deadline expires now, adversarially
//! early). States are memoized on [`ServerSnapshot`] + link queues + armed
//! timers — interleavings that converge share their futures, collapsing the
//! factorially many schedules to a small state graph that is still *complete*
//! for every property checked here.
//!
//! **Checked on every explored path:**
//!
//! * **deadlock-freedom** — a state with no enabled action has
//!   `run_complete()`;
//! * **lost-wakeup-freedom** — at quiescence the plane never holds a ready
//!   grant (every mutation is followed by a pump, so a waiting worker whose
//!   token became available is always woken), and every grant the plane
//!   issued was actually delivered;
//! * **exactly-once token application** — each terminal state's Info Mapping
//!   holds every generated token exactly once (stale reports after a lease
//!   revocation are rejected, never double-applied);
//! * **linearizability vs the oracle** — the explored plane records its op
//!   log ([`fela_core::CoordOp`]); each transition replays the new suffix
//!   into `fela-check`'s independent oracle [`TokenServer`] in lockstep and
//!   compares both the per-op outcome digests and the full
//!   [`ServerSnapshot`]s. Every explored history of the production plane is
//!   thereby shown equivalent to an oracle execution — linearizability with
//!   the oracle as the witness order;
//! * **session discipline** — the per-link frame dialogue of every explored
//!   execution is fed through [`crate::protocol::SessionVerifier`].
//!
//! [`model_check_oracle`] explores the same model with the oracle alone in
//! the server's seat: its reachable state graph must match the production
//! plane's state for state.
//!
//! **Seeded mutations** ([`McMutation`] here, [`WireMutation`] in
//! [`crate::protocol`]) follow the crate's mutation-testing convention: each
//! of the three — dropped grant wakeup, reordered Grant/Report, misrouted
//! Grant — must be caught with a *distinct* diagnostic
//! ([`run_mutation_matrix`]).

use std::collections::{BTreeSet, VecDeque};

use fela_core::{
    ControlPlane, CoordOp, ExpiredLease, FelaConfig, Grant, LeaseInfo, LevelMeta, LevelPlan,
    OpDivergence, RecoveryConfig, ScheduleError, ServerSnapshot, SyncSpec, TokenId, TokenPlan,
};
use fela_live::{Endpoint, Frame, SyncEvent};
use fela_sim::SimTime;

use crate::oplog::apply_op;
use crate::protocol::{verify_session, SessionVerifier, SessionViolation, WireMutation};
use crate::server::TokenServer;

/// The small configuration under exploration, plus bounds.
#[derive(Clone, Debug)]
pub struct McConfig {
    /// Cluster size (2–4 keeps the space exhaustive in well under a second).
    pub workers: usize,
    /// BSP iterations to run (1–2).
    pub iterations: u64,
    /// SSP staleness bound (0 = BSP).
    pub staleness: u64,
    /// Model lease-based recovery: every grant arms a timer the adversary may
    /// fire at *any* enabled instant.
    pub recovery: bool,
    /// Lease fires modeled per token before the adversary gives up — the
    /// state-space bound (each fire bumps the plane's per-token attempt and
    /// per-worker expiry counters, so an unbounded adversary would make the
    /// space infinite). 1 already covers revocation, re-grant and stale
    /// reports.
    pub max_attempts: u64,
    /// Distinct-state safety net.
    pub max_states: usize,
    /// Seeded model-level mutation, if any.
    pub mutation: Option<McMutation>,
}

impl McConfig {
    /// The canonical acceptance configuration: 2 workers × 2 iterations,
    /// recovery off.
    pub fn small() -> McConfig {
        McConfig {
            workers: 2,
            iterations: 2,
            staleness: 0,
            recovery: false,
            max_attempts: 1,
            max_states: 200_000,
            mutation: None,
        }
    }

    /// Builder: enables the lease-expiry adversary.
    pub fn with_recovery(mut self) -> McConfig {
        self.recovery = true;
        self
    }

    /// Builder: seeds a model-level mutation.
    pub fn with_mutation(mut self, mutation: McMutation) -> McConfig {
        self.mutation = Some(mutation);
        self
    }
}

/// A seeded model-level mutation (the wire-level half is
/// [`WireMutation`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum McMutation {
    /// The first fresh (attempt-0) `Grant` frame for `worker` is lost in
    /// flight: the plane issued it (and, with recovery on, armed its lease),
    /// but the worker never reacts. Without recovery this is the classic lost
    /// wakeup — the run can never complete; with recovery the lease adversary
    /// revokes and re-grants, and the checker proves the runtime
    /// *self-heals*. (Attempt-0 keeps the site inside the modeled fire budget
    /// [`McConfig::max_attempts`]; a real lease timer is always armed.)
    DropGrant {
        /// Target worker.
        worker: usize,
    },
}

/// A property violated on some explored path.
#[derive(Clone, PartialEq, Debug)]
pub enum McViolation {
    /// A reachable state has no enabled action but the run is not complete.
    Deadlock {
        /// DFS depth (transitions from the initial state) of the stuck state.
        depth: usize,
        /// Human-readable description of what the model was waiting for.
        detail: String,
    },
    /// A grant was issued by the plane but its wakeup never reached the
    /// worker (or a ready grant was never popped at quiescence).
    LostWakeup {
        /// Worker that missed its wakeup.
        worker: usize,
        /// Token whose grant was lost.
        token: u64,
    },
    /// A terminal state did not apply every minted token exactly once.
    IncompleteRun {
        /// Reports the plane accepted.
        applied: u64,
        /// Token ids the plane minted.
        minted: u64,
    },
    /// The explored plane's op history diverged from the oracle.
    NotLinearizable {
        /// First diverging operation.
        divergence: Box<OpDivergence>,
    },
    /// Op digests matched but the full scheduling states drifted apart —
    /// a deeper-than-digest divergence.
    OracleDrift {
        /// Transitions explored when the drift was detected.
        depth: usize,
    },
    /// The plane returned a typed error on a legal action sequence.
    SchedulerError {
        /// The error's display form.
        message: String,
    },
    /// The frame dialogue of an explored execution broke session discipline.
    Session(SessionViolation),
}

impl std::fmt::Display for McViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            McViolation::Deadlock { depth, detail } => {
                write!(f, "deadlock at depth {depth}: {detail}")
            }
            McViolation::LostWakeup { worker, token } => {
                write!(
                    f,
                    "lost wakeup: grant of token {token} never woke worker {worker}"
                )
            }
            McViolation::IncompleteRun { applied, minted } => write!(
                f,
                "terminal state applied {applied} of {minted} minted tokens"
            ),
            McViolation::NotLinearizable { divergence } => {
                write!(f, "history not linearizable vs oracle: {divergence}")
            }
            McViolation::OracleDrift { depth } => {
                write!(f, "oracle snapshot drift at depth {depth}")
            }
            McViolation::SchedulerError { message } => {
                write!(f, "scheduler error on a legal path: {message}")
            }
            McViolation::Session(v) => write!(f, "session violation: {v}"),
        }
    }
}

/// Result of one exploration.
#[derive(Clone, Debug)]
pub struct McOutcome {
    /// Distinct states visited.
    pub states: usize,
    /// Transitions executed.
    pub transitions: u64,
    /// Distinct terminal (run-complete, quiescent) states reached.
    pub terminals: u64,
    /// Deepest path explored (transitions from the initial state).
    pub deepest: usize,
    /// Lease fires executed across all explored transitions.
    pub lease_fires: u64,
    /// Stale reports (post-revocation) observed across all transitions.
    pub stale_reports: u64,
    /// Distinct violations found on any path.
    pub violations: Vec<McViolation>,
    /// True if exploration hit `max_states` before exhausting the space.
    pub truncated: bool,
}

impl McOutcome {
    /// True when the full space was explored violation-free.
    pub fn ok(&self) -> bool {
        self.violations.is_empty() && !self.truncated
    }
}

/// One row of the seeded-mutation matrix.
#[derive(Clone, Debug)]
pub struct MutationRun {
    /// Mutation name.
    pub name: &'static str,
    /// Whether the checker caught it.
    pub caught: bool,
    /// The (first) diagnostic it produced.
    pub diagnostic: String,
    /// Discriminant of the diagnostic kind, for distinctness assertions.
    pub kind: &'static str,
}

/// The canonical 2-level token plan (same shape as [`crate::Explorer::small`]
/// and the shard-conformance suite): 2 + 1 training tokens and 2 generation
/// tokens per iteration over 8 samples.
fn small_plan() -> TokenPlan {
    TokenPlan {
        levels: vec![
            LevelPlan {
                level: 0,
                tokens_per_iteration: 2,
                batch_per_token: 4,
                gen_ratio: 1,
            },
            LevelPlan {
                level: 1,
                tokens_per_iteration: 1,
                batch_per_token: 8,
                gen_ratio: 2,
            },
        ],
        total_batch: 8,
    }
}

fn meta() -> Vec<LevelMeta> {
    vec![
        LevelMeta {
            param_bytes: 4096,
            output_bytes_per_sample: 64,
            input_bytes_per_sample: 64,
            comm_intensive: false,
        },
        LevelMeta {
            param_bytes: 8192,
            output_bytes_per_sample: 32,
            input_bytes_per_sample: 64,
            comm_intensive: false,
        },
    ]
}

fn fela_config(cfg: &McConfig) -> FelaConfig {
    let mut fc = FelaConfig::new(2).with_weights(vec![1, 2]);
    fc.staleness = cfg.staleness;
    if cfg.recovery {
        fc.recovery = Some(RecoveryConfig::default());
    }
    fc.validate(cfg.workers);
    fc
}

fn build_plane(cfg: &McConfig) -> ControlPlane {
    ControlPlane::new(
        small_plan(),
        fela_config(cfg),
        meta(),
        cfg.workers,
        cfg.iterations,
    )
}

fn build_oracle(cfg: &McConfig) -> TokenServer {
    TokenServer::new(
        small_plan(),
        fela_config(cfg),
        meta(),
        cfg.workers,
        cfg.iterations,
    )
}

/// The scheduler surface the model drives. The production plane and the
/// oracle expose it with identical signatures; the model is generic over it
/// so the oracle can also be explored on its own ([`model_check_oracle`]).
trait Scheduler: Clone {
    fn request(&mut self, worker: usize, now: SimTime) -> Result<Option<Grant>, ScheduleError>;
    fn pop_ready_grant(&mut self, now: SimTime) -> Result<Option<(usize, Grant)>, ScheduleError>;
    fn report(&mut self, worker: usize, token: TokenId) -> Result<Vec<SyncSpec>, ScheduleError>;
    fn sync_finished(&mut self, level: usize, iteration: u64) -> Result<(), ScheduleError>;
    fn lease_expired(
        &mut self,
        token: TokenId,
        attempt: u64,
    ) -> Result<Option<ExpiredLease>, ScheduleError>;
    fn lease_of(&self, token: TokenId) -> Option<LeaseInfo>;
    fn snapshot(&self) -> ServerSnapshot;
    fn trained_per_worker(&self) -> &[u64];
    fn recovery_on(&self) -> bool;
    fn run_complete(&self) -> bool;
    fn completed_iterations(&self) -> u64;
    fn max_iterations(&self) -> u64;
}

/// Implements [`Scheduler`] by forwarding to the type's inherent methods.
macro_rules! scheduler_via_inherent {
    ($t:ty) => {
        impl Scheduler for $t {
            fn request(
                &mut self,
                worker: usize,
                now: SimTime,
            ) -> Result<Option<Grant>, ScheduleError> {
                <$t>::request(self, worker, now)
            }
            fn pop_ready_grant(
                &mut self,
                now: SimTime,
            ) -> Result<Option<(usize, Grant)>, ScheduleError> {
                <$t>::pop_ready_grant(self, now)
            }
            fn report(
                &mut self,
                worker: usize,
                token: TokenId,
            ) -> Result<Vec<SyncSpec>, ScheduleError> {
                <$t>::report(self, worker, token)
            }
            fn sync_finished(&mut self, level: usize, iteration: u64) -> Result<(), ScheduleError> {
                <$t>::sync_finished(self, level, iteration)
            }
            fn lease_expired(
                &mut self,
                token: TokenId,
                attempt: u64,
            ) -> Result<Option<ExpiredLease>, ScheduleError> {
                <$t>::lease_expired(self, token, attempt)
            }
            fn lease_of(&self, token: TokenId) -> Option<LeaseInfo> {
                <$t>::lease_of(self, token)
            }
            fn snapshot(&self) -> ServerSnapshot {
                <$t>::snapshot(self)
            }
            fn trained_per_worker(&self) -> &[u64] {
                <$t>::trained_per_worker(self)
            }
            fn recovery_on(&self) -> bool {
                <$t>::recovery_on(self)
            }
            fn run_complete(&self) -> bool {
                <$t>::run_complete(self)
            }
            fn completed_iterations(&self) -> u64 {
                <$t>::completed_iterations(self)
            }
            fn max_iterations(&self) -> u64 {
                <$t>::max_iterations(self)
            }
        }
    };
}

scheduler_via_inherent!(ControlPlane);
scheduler_via_inherent!(TokenServer);

/// One in-flight model state.
#[derive(Clone)]
struct McState<P> {
    /// The scheduler in the server's seat.
    plane: P,
    /// The lockstep oracle, fed the plane's op log after every transition
    /// (`None` when the oracle itself is in the server's seat).
    oracle: Option<TokenServer>,
    /// Per-worker link queue: frames sent by the worker, not yet delivered.
    queues: Vec<VecDeque<Frame>>,
    /// Armed lease timers `(token, attempt)` the adversary may fire.
    armed: BTreeSet<(u64, u64)>,
    /// Grants issued by the plane but lost in flight `(worker, token)` —
    /// nonempty only under [`McMutation::DropGrant`].
    undelivered: Vec<(usize, u64)>,
    /// Whether the seeded mutation is still waiting to strike.
    mutation_armed: bool,
    /// Per-link session machine over this path's frame dialogue. Not part of
    /// the memoization key: its state is a function of the plane snapshot
    /// plus the link queues (every queued `Report` is an outstanding grant),
    /// so equal keys imply equal session futures.
    verifier: SessionVerifier,
    /// Transitions from the initial state (diagnostics only, not in the key).
    depth: usize,
    /// Ops compared against the oracle so far (diagnostics only).
    ops_applied: usize,
}

/// Memoization key. The lockstep oracle is *excluded*: its snapshot is proved
/// equal to the plane's at every transition, so it carries no independent
/// state.
type McKey = (
    ServerSnapshot,
    Vec<Vec<(u8, u64, u64)>>,
    Vec<(u64, u64)>,
    Vec<(usize, u64)>,
    bool,
);

/// Compact key form of an in-flight frame (queues only ever hold worker-type
/// frames: `Request` and `Report`).
fn frame_key(frame: &Frame) -> (u8, u64, u64) {
    match frame {
        Frame::Request { worker } => (1, u64::from(*worker), 0),
        Frame::Report { worker, token } => (2, u64::from(*worker), *token),
        // Unreachable for model-generated queues; still total for safety.
        _ => (0, 0, 0),
    }
}

#[derive(Clone, Copy, Debug)]
enum Action {
    Deliver(usize),
    Fire(u64, u64),
}

/// Shared per-exploration context.
struct Mc<'a> {
    cfg: &'a McConfig,
    outcome: McOutcome,
    violations_seen: BTreeSet<String>,
}

impl Mc<'_> {
    fn push_violation(&mut self, v: McViolation) {
        // Dedup on display form: the same logical violation is typically
        // reachable through many interleavings.
        if self.violations_seen.insert(v.to_string()) {
            self.outcome.violations.push(v);
        }
    }

    /// Applies every plane mutation of one transition to the oracle in
    /// lockstep and compares digests + snapshots.
    fn lockstep(&mut self, state: &mut McState<ControlPlane>) {
        let Some(oracle) = &mut state.oracle else {
            return;
        };
        for op in state.plane.take_op_log() {
            let got = apply_op(oracle, &op.kind);
            if got != op.outcome {
                self.push_violation(McViolation::NotLinearizable {
                    divergence: Box::new(OpDivergence {
                        index: state.ops_applied,
                        kind: op.kind.clone(),
                        recorded: op.outcome.clone(),
                        oracle: got,
                    }),
                });
            }
            state.ops_applied += 1;
        }
        if oracle.snapshot() != state.plane.snapshot() {
            self.push_violation(McViolation::OracleDrift { depth: state.depth });
        }
    }

    /// Models the server issuing `grant` to `worker`: the worker reacts
    /// eagerly, parking its `Report` on the link; with recovery on, the lease
    /// timer arms (bounded by `max_attempts`).
    fn issue_grant<P: Scheduler>(&mut self, state: &mut McState<P>, worker: usize, grant: &Grant) {
        let token = grant.token.id.0;
        let dropped = match self.cfg.mutation {
            Some(McMutation::DropGrant { worker: target })
                if state.mutation_armed && worker == target && grant.attempt == 0 =>
            {
                state.mutation_armed = false;
                state.undelivered.push((worker, token));
                true
            }
            _ => false,
        };
        // Mirror fela-live: the lease arms after the send — a frame lost in
        // flight still has its deadline ticking, which is exactly what makes
        // the dropped wakeup recoverable when recovery is on.
        if state.plane.recovery_on() && grant.attempt < self.cfg.max_attempts {
            state.armed.insert((token, grant.attempt));
        }
        if !dropped {
            state.verifier.add_grant_intent(token, worker);
            state.verifier.observe(&SyncEvent::FrameSent {
                side: Endpoint::Server,
                worker,
                frame: Frame::Grant {
                    token,
                    level: grant.token.level as u32,
                    iteration: grant.token.iteration,
                    batch: grant.token.batch,
                    unit_start: grant.token.level as u32,
                    unit_end: grant.token.level as u32 + 1,
                },
            });
            state.queues[worker].push_back(Frame::Report {
                worker: worker as u32,
                token,
            });
        }
    }

    /// Mirrors `fela-live`'s `pump_grants`.
    fn pump_grants<P: Scheduler>(&mut self, state: &mut McState<P>) {
        loop {
            match state.plane.pop_ready_grant(SimTime::ZERO) {
                Ok(Some((worker, grant))) => self.issue_grant(state, worker, &grant),
                Ok(None) => break,
                Err(e) => {
                    self.push_violation(McViolation::SchedulerError {
                        message: e.to_string(),
                    });
                    break;
                }
            }
        }
    }

    /// Mirrors `fela-live`'s `handle_frame`.
    fn deliver<P: Scheduler>(&mut self, state: &mut McState<P>, worker: usize) {
        let Some(frame) = state.queues[worker].pop_front() else {
            return;
        };
        state.verifier.observe(&SyncEvent::FrameReceived {
            side: Endpoint::Server,
            worker,
            frame: frame.clone(),
        });
        match frame {
            Frame::Request { .. } => match state.plane.request(worker, SimTime::ZERO) {
                Ok(Some(grant)) => self.issue_grant(state, worker, &grant),
                Ok(None) => {}
                Err(ScheduleError::WorkerUnavailable { .. }) => {}
                Err(e) => self.push_violation(McViolation::SchedulerError {
                    message: e.to_string(),
                }),
            },
            Frame::Report { token, .. } => {
                match state.plane.report(worker, TokenId(token)) {
                    Ok(syncs) => {
                        // Control-plane runtime: every sync commits degenerately.
                        for spec in syncs {
                            if let Err(e) = state.plane.sync_finished(spec.level, spec.iteration) {
                                self.push_violation(McViolation::SchedulerError {
                                    message: e.to_string(),
                                });
                            }
                        }
                    }
                    Err(ScheduleError::StaleReport { .. }) => self.outcome.stale_reports += 1,
                    Err(e) => self.push_violation(McViolation::SchedulerError {
                        message: e.to_string(),
                    }),
                }
                // Piggybacked pull, exactly like the live server.
                match state.plane.request(worker, SimTime::ZERO) {
                    Ok(Some(grant)) => self.issue_grant(state, worker, &grant),
                    Ok(None) => {}
                    Err(ScheduleError::WorkerUnavailable { .. }) => {}
                    Err(e) => self.push_violation(McViolation::SchedulerError {
                        message: e.to_string(),
                    }),
                }
                self.pump_grants(state);
            }
            other => self.push_violation(McViolation::SchedulerError {
                message: format!("model queue held a non-worker frame: {other:?}"),
            }),
        }
    }

    /// Mirrors `fela-live`'s lease-timer fire.
    fn fire<P: Scheduler>(&mut self, state: &mut McState<P>, token: u64, attempt: u64) {
        state.armed.remove(&(token, attempt));
        self.outcome.lease_fires += 1;
        match state.plane.lease_expired(TokenId(token), attempt) {
            Ok(Some(expired)) => {
                // The plane walked away from these grants; in-flight drops of
                // them are healed (their reports would be stale anyway).
                state
                    .undelivered
                    .retain(|(_, t)| !expired.revoked.iter().any(|r| r.0 == *t));
            }
            Ok(None) => {}
            Err(e) => self.push_violation(McViolation::SchedulerError {
                message: e.to_string(),
            }),
        }
        self.pump_grants(state);
    }

    /// Drops armed timers whose lease the plane has already superseded —
    /// firing them is a plane no-op followed by an empty pump, so pruning
    /// them is sound and keeps the space small.
    fn gc_armed<P: Scheduler>(state: &mut McState<P>) {
        let plane = &state.plane;
        state
            .armed
            .retain(|(t, a)| plane.lease_of(TokenId(*t)).is_some_and(|l| l.attempt == *a));
    }

    fn key_of<P: Scheduler>(state: &McState<P>) -> McKey {
        (
            state.plane.snapshot(),
            state
                .queues
                .iter()
                .map(|q| q.iter().map(frame_key).collect())
                .collect(),
            state.armed.iter().copied().collect(),
            state.undelivered.clone(),
            state.mutation_armed,
        )
    }

    fn enabled<P>(state: &McState<P>) -> Vec<Action> {
        let mut actions: Vec<Action> = (0..state.queues.len())
            .filter(|w| !state.queues[*w].is_empty())
            .map(Action::Deliver)
            .collect();
        actions.extend(state.armed.iter().map(|(t, a)| Action::Fire(*t, *a)));
        actions
    }

    /// Checks a quiescent state (no enabled action).
    fn check_quiescent<P: Scheduler>(&mut self, state: &McState<P>) {
        // A ready grant at quiescence means a pump was skipped somewhere.
        let mut probe = state.plane.clone();
        if let Ok(Some((worker, grant))) = probe.pop_ready_grant(SimTime::ZERO) {
            self.push_violation(McViolation::LostWakeup {
                worker,
                token: grant.token.id.0,
            });
            return;
        }
        if let Some((worker, token)) = state.undelivered.first().copied() {
            self.push_violation(McViolation::LostWakeup { worker, token });
            return;
        }
        if state.plane.run_complete() {
            self.outcome.terminals += 1;
            // Exactly-once: every minted token applied exactly once. A
            // duplicate report is refused, so "at most once" is structural;
            // the finished run has retired every iteration, so coverage is
            // the count of accepted reports against the ids minted.
            let applied: u64 = state.plane.trained_per_worker().iter().sum();
            let minted = state.plane.snapshot().next_token_id;
            if applied != minted {
                self.push_violation(McViolation::IncompleteRun { applied, minted });
            }
        } else {
            let queued: usize = state.queues.iter().map(VecDeque::len).sum();
            self.push_violation(McViolation::Deadlock {
                depth: state.depth,
                detail: format!(
                    "{queued} frames in flight, {} timers armed, {}/{} iterations complete",
                    state.armed.len(),
                    state.plane.completed_iterations(),
                    state.plane.max_iterations(),
                ),
            });
        }
    }
}

/// Exhaustively explores every non-equivalent interleaving of `cfg` with the
/// production plane in the server's seat, checking every transition against
/// the oracle in lockstep.
pub fn model_check(cfg: &McConfig) -> McOutcome {
    let mut plane = build_plane(cfg);
    plane.enable_op_log();
    explore(cfg, plane, Some(build_oracle(cfg)), |mc, state| {
        mc.lockstep(state)
    })
}

/// Explores the same model with the oracle [`TokenServer`] alone in the
/// server's seat (no lockstep). Its state graph is the reference the
/// production plane's exploration must match state for state.
pub fn model_check_oracle(cfg: &McConfig) -> McOutcome {
    explore(cfg, build_oracle(cfg), None, |_, _| {})
}

fn explore<P: Scheduler>(
    cfg: &McConfig,
    plane: P,
    oracle: Option<TokenServer>,
    mut lockstep: impl FnMut(&mut Mc<'_>, &mut McState<P>),
) -> McOutcome {
    let mut mc = Mc {
        cfg,
        outcome: McOutcome {
            states: 0,
            transitions: 0,
            terminals: 0,
            deepest: 0,
            lease_fires: 0,
            stale_reports: 0,
            violations: Vec::new(),
            truncated: false,
        },
        violations_seen: BTreeSet::new(),
    };
    // Pull protocol: every worker opens with a Request.
    let queues = (0..cfg.workers)
        .map(|w| {
            let mut q = VecDeque::new();
            q.push_back(Frame::Request { worker: w as u32 });
            q
        })
        .collect();
    let initial = McState {
        plane,
        oracle,
        queues,
        armed: BTreeSet::new(),
        undelivered: Vec::new(),
        mutation_armed: cfg.mutation.is_some(),
        verifier: SessionVerifier::new(),
        depth: 0,
        ops_applied: 0,
    };
    let mut visited: BTreeSet<McKey> = BTreeSet::new();
    let mut stack = vec![initial];
    while let Some(state) = stack.pop() {
        if !visited.insert(Mc::key_of(&state)) {
            continue;
        }
        mc.outcome.states += 1;
        mc.outcome.deepest = mc.outcome.deepest.max(state.depth);
        if mc.outcome.states >= cfg.max_states {
            mc.outcome.truncated = true;
            break;
        }
        let actions = Mc::enabled(&state);
        if actions.is_empty() {
            mc.check_quiescent(&state);
            continue;
        }
        for action in actions {
            let mut next = state.clone();
            next.depth += 1;
            mc.outcome.transitions += 1;
            match action {
                Action::Deliver(w) => mc.deliver(&mut next, w),
                Action::Fire(t, a) => mc.fire(&mut next, t, a),
            }
            lockstep(&mut mc, &mut next);
            for v in next.verifier.take_violations() {
                mc.push_violation(McViolation::Session(v));
            }
            Mc::gc_armed(&mut next);
            stack.push(next);
        }
    }
    mc.outcome
}

/// Runs one deterministic round-robin execution of `cfg`'s model (lowest
/// nonempty link first, no adversarial lease fires) and returns the
/// synthesized server-side [`SyncEvent`] stream plus the op log — the input
/// to the protocol session verifier and its wire-mutation matrix.
pub fn record_execution(cfg: &McConfig) -> (Vec<SyncEvent>, Vec<CoordOp>) {
    let mut plane = build_plane(cfg);
    plane.enable_op_log();
    let mut queues: Vec<VecDeque<Frame>> = (0..cfg.workers)
        .map(|w| {
            let mut q = VecDeque::new();
            q.push_back(Frame::Request { worker: w as u32 });
            q
        })
        .collect();
    let mut events = Vec::new();
    let mut ops = Vec::new();
    let mut guard = 0usize;
    while !plane.run_complete() && guard < 100_000 {
        guard += 1;
        let Some(w) = (0..cfg.workers).find(|w| !queues[*w].is_empty()) else {
            break;
        };
        let Some(frame) = queues[w].pop_front() else {
            break;
        };
        events.push(SyncEvent::FrameReceived {
            side: Endpoint::Server,
            worker: w,
            frame: frame.clone(),
        });
        let mut issued: Vec<(usize, Grant)> = Vec::new();
        match frame {
            Frame::Request { .. } => {
                if let Ok(Some(grant)) = plane.request(w, SimTime::ZERO) {
                    issued.push((w, grant));
                }
            }
            Frame::Report { token, .. } => {
                if let Ok(syncs) = plane.report(w, TokenId(token)) {
                    for spec in syncs {
                        let _ = plane.sync_finished(spec.level, spec.iteration);
                    }
                }
                if let Ok(Some(grant)) = plane.request(w, SimTime::ZERO) {
                    issued.push((w, grant));
                }
                while let Ok(Some((v, grant))) = plane.pop_ready_grant(SimTime::ZERO) {
                    issued.push((v, grant));
                }
            }
            _ => {}
        }
        for (v, grant) in issued {
            let token = grant.token.id.0;
            events.push(SyncEvent::FrameSent {
                side: Endpoint::Server,
                worker: v,
                frame: Frame::Grant {
                    token,
                    level: grant.token.level as u32,
                    iteration: grant.token.iteration,
                    batch: grant.token.batch,
                    unit_start: grant.token.level as u32,
                    unit_end: grant.token.level as u32 + 1,
                },
            });
            queues[v].push_back(Frame::Report {
                worker: v as u32,
                token,
            });
        }
        ops.append(&mut plane.take_op_log());
    }
    // Epilogue: End down every link, Params back up — the session close.
    for w in 0..cfg.workers {
        events.push(SyncEvent::FrameSent {
            side: Endpoint::Server,
            worker: w,
            frame: Frame::End,
        });
    }
    for w in 0..cfg.workers {
        events.push(SyncEvent::FrameReceived {
            side: Endpoint::Server,
            worker: w,
            frame: Frame::Params { bytes: Vec::new() },
        });
    }
    (events, ops)
}

/// Runs the full seeded-mutation matrix: every mutation must be caught, each
/// with a distinct diagnostic kind.
pub fn run_mutation_matrix() -> Vec<MutationRun> {
    let mut rows = Vec::new();

    // 1. Dropped grant wakeup, recovery off → the model-level lost-wakeup
    //    diagnostic.
    let cfg = McConfig::small().with_mutation(McMutation::DropGrant { worker: 1 });
    let outcome = model_check(&cfg);
    let hit = outcome
        .violations
        .iter()
        .find(|v| matches!(v, McViolation::LostWakeup { .. }));
    rows.push(MutationRun {
        name: "drop-grant",
        caught: hit.is_some(),
        diagnostic: hit.map(|v| v.to_string()).unwrap_or_default(),
        kind: "LostWakeup",
    });

    // 2 & 3. Wire-level mutations over a recorded execution.
    let (events, ops) = record_execution(&McConfig::small());
    let reordered = verify_session(
        &crate::protocol::mutate_events(&events, &WireMutation::ReorderGrantReport { nth: 0 }),
        Some(&ops),
    );
    let hit = reordered
        .violations
        .iter()
        .find(|v| matches!(v, SessionViolation::ReportWithoutGrant { .. }));
    rows.push(MutationRun {
        name: "reorder-grant-report",
        caught: hit.is_some(),
        diagnostic: hit.map(|v| v.to_string()).unwrap_or_default(),
        kind: "ReportWithoutGrant",
    });

    let misrouted = verify_session(
        &crate::protocol::mutate_events(&events, &WireMutation::MisrouteGrant { nth: 0 }),
        Some(&ops),
    );
    let hit = misrouted
        .violations
        .iter()
        .find(|v| matches!(v, SessionViolation::MisroutedGrant { .. }));
    rows.push(MutationRun {
        name: "misroute-grant",
        caught: hit.is_some(),
        diagnostic: hit.map(|v| v.to_string()).unwrap_or_default(),
        kind: "MisroutedGrant",
    });

    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_monolithic_small_config_is_clean() {
        let outcome = model_check_oracle(&McConfig::small());
        assert!(outcome.ok(), "{:?}", outcome.violations);
        assert!(outcome.terminals >= 1);
        assert!(outcome.states > 10, "space too small to mean anything");
    }

    #[test]
    fn the_small_config_is_clean_and_linearizable() {
        let outcome = model_check(&McConfig::small());
        assert!(outcome.ok(), "{:?}", outcome.violations);
        assert!(outcome.terminals >= 1);
        assert!(!outcome
            .violations
            .iter()
            .any(|v| matches!(v, McViolation::NotLinearizable { .. })),);
    }

    #[test]
    fn the_lease_adversary_explores_revocation_and_stays_clean() {
        let outcome = model_check(&McConfig::small().with_recovery());
        assert!(outcome.ok(), "{:?}", outcome.violations);
        assert!(outcome.lease_fires > 0, "adversary never fired a lease");
        assert!(
            outcome.stale_reports > 0,
            "no explored path raced a stale report against a revocation"
        );
    }

    #[test]
    fn three_workers_explore_clean() {
        let mut cfg = McConfig::small();
        cfg.workers = 3;
        cfg.iterations = 1;
        let outcome = model_check(&cfg);
        assert!(outcome.ok(), "{:?}", outcome.violations);
    }

    #[test]
    fn a_dropped_grant_without_recovery_is_a_lost_wakeup() {
        let cfg = McConfig::small().with_mutation(McMutation::DropGrant { worker: 1 });
        let outcome = model_check(&cfg);
        assert!(
            outcome
                .violations
                .iter()
                .any(|v| matches!(v, McViolation::LostWakeup { worker: 1, .. })),
            "{:?}",
            outcome.violations
        );
    }

    #[test]
    fn a_dropped_grant_with_recovery_self_heals() {
        let cfg = McConfig::small()
            .with_recovery()
            .with_mutation(McMutation::DropGrant { worker: 1 });
        let outcome = model_check(&cfg);
        assert!(
            !outcome
                .violations
                .iter()
                .any(|v| matches!(v, McViolation::LostWakeup { .. })),
            "recovery should heal the dropped wakeup: {:?}",
            outcome.violations
        );
        assert!(outcome.terminals >= 1, "no path completed the run");
    }

    #[test]
    fn recorded_executions_are_session_clean_and_replay_against_the_oracle() {
        let cfg = McConfig::small();
        let (events, ops) = record_execution(&cfg);
        let report = verify_session(&events, Some(&ops));
        assert!(report.ok(), "{:?}", report.violations);
        let mut oracle = build_oracle(&cfg);
        crate::oplog::replay_oplog(&ops, &mut oracle).expect("history must replay");
    }

    #[test]
    fn the_mutation_matrix_is_fully_caught_with_distinct_diagnostics() {
        let rows = run_mutation_matrix();
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(row.caught, "mutation {} escaped", row.name);
            assert!(!row.diagnostic.is_empty());
        }
        let kinds: BTreeSet<&str> = rows.iter().map(|r| r.kind).collect();
        assert_eq!(kinds.len(), 3, "diagnostics must be distinct: {rows:?}");
    }
}
