//! Conformance suite: the production [`ControlPlane`] is proved against
//! `fela-check`'s oracle [`TokenServer`] — the original scan-based Token
//! Server, kept only as the reference.
//!
//! Three layers of evidence, mirroring how `IncrementalMaxMin` was proved
//! against `max_min_rates`:
//!
//! 1. **Lockstep churn** — both consume an identical random operation stream
//!    (requests, reports, syncs, crashes, restarts, lease expiries) across the
//!    policy matrix; every grant, sync spec, error and final
//!    [`ServerSnapshot`](fela_core::ServerSnapshot) must compare bit-for-bit.
//! 2. **Full runs** — complete simulated runs on zoo scenarios (including a
//!    faulted one) write a WAL; every logged operation and checkpoint must
//!    replay identically on the oracle, and the runs' traces must pass the
//!    race and recovery checkers.
//! 3. **Snapshot round-trips** — snapshot → restore → snapshot is
//!    bit-identical on both, and a restored pair *continues* identically to
//!    the original under the same suffix of operations.
//! 4. **Skewed levels** — level 0 runs far ahead of the deeper levels, which
//!    park a long SSP-gated backlog; both must agree op by op and snapshot by
//!    snapshot through out-of-order releases, a crash and a restart, and the
//!    plane's cost per token must not grow with the run's length.
//! 5. **Retirement** — both drop an iteration once it has synced at every
//!    level: the token table stays within the live window over a long run,
//!    and a hung worker's report after its iteration retired is stale on
//!    both.

use std::collections::BTreeMap;

use fela_check::TokenServer;
use fela_cluster::{FaultModel, Scenario};
use fela_core::{
    wal_path, ControlPlane, DurabilityOptions, FelaConfig, FelaRuntime, Grant, LevelMeta,
    RecoveryConfig, ScheduleError, SyncSpec, TokenId, TokenPlan,
};
use fela_model::{bin_partition, zoo, PartitionOptions, ThresholdProfile};
use fela_sim::{SimDuration, SimTime};
use proptest::prelude::*;

const N_WORKERS: usize = 8;
const BATCH: u64 = 128;
const ITERATIONS: u64 = 4;

/// vgg19/k40c partition: 3 sub-models, the testbed of the policy tests.
fn vgg_inputs(cfg: &FelaConfig) -> (TokenPlan, Vec<LevelMeta>) {
    let p = bin_partition(
        &zoo::vgg19(),
        &ThresholdProfile::k40c(),
        PartitionOptions::default(),
    );
    let plan = TokenPlan::build(&p, cfg, BATCH, N_WORKERS).expect("plan must be feasible");
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

fn build_cfg(hf: bool, ads: bool, ctd: bool, recovery: bool) -> FelaConfig {
    let mut cfg = FelaConfig::new(3)
        .with_weights(vec![1, 2, 4])
        .with_ads(ads)
        .with_hf(hf);
    if ctd {
        cfg = cfg.with_ctd(4);
    }
    if recovery {
        cfg = cfg.with_recovery(RecoveryConfig::default());
    }
    cfg
}

/// Driver bookkeeping shared by both sides of a lockstep pair. Updated from
/// the first plane's results (the second must match bit-for-bit anyway).
struct Churn {
    /// Granted-but-unreported tokens: `(worker, token, attempt at grant)`.
    /// Entries can go stale after a revocation — both planes must then reject
    /// the report identically.
    outstanding: Vec<(usize, TokenId, u64)>,
    /// Emitted-but-unfinished syncs: `(level, iteration)`.
    syncs: Vec<(usize, u64)>,
    clock: u64,
    /// Per-op result log (grant essence excludes the timing-only conflict
    /// flag) — lets a restored pair's continuation be compared to the
    /// original's.
    log: Vec<String>,
}

impl Churn {
    fn new() -> Self {
        Churn {
            outstanding: Vec::new(),
            syncs: Vec::new(),
            clock: 0,
            log: Vec::new(),
        }
    }
}

/// One lockstep operation applied to two planes (any mix of `TokenServer` /
/// `ControlPlane` — the APIs are identical, so a macro covers all pairings).
/// Asserts bit-equality of results and updates the shared driver state.
macro_rules! lockstep_op {
    ($a:expr, $b:expr, $st:expr, $action:expr, $pick:expr, $dt:expr) => {{
        $st.clock += $dt;
        let now = SimTime::from_nanos($st.clock);
        match $action % 6 {
            0 => {
                // Token request from a (possibly ineligible) worker.
                let w = $pick % N_WORKERS;
                let ra = $a.request(w, now);
                let rb = $b.request(w, now);
                assert_eq!(format!("{ra:?}"), format!("{rb:?}"), "request({w})");
                if let Ok(Some(g)) = &ra {
                    $st.outstanding.push((w, g.token.id, g.attempt));
                    $st.log.push(format!(
                        "req {w} {:?} {:?} {}",
                        g.token.id, g.fetches, g.attempt
                    ));
                } else {
                    $st.log.push(format!("req {w} none"));
                }
            }
            1 => {
                // Report an outstanding (possibly revoked → stale) grant.
                if !$st.outstanding.is_empty() {
                    let (w, t, _) = $st.outstanding.remove($pick % $st.outstanding.len());
                    let ra = $a.report(w, t);
                    let rb = $b.report(w, t);
                    assert_eq!(ra, rb, "report({w}, {t:?})");
                    if let Ok(specs) = &ra {
                        for s in specs {
                            $st.syncs.push((s.level, s.iteration));
                        }
                    }
                    $st.log.push(format!("rep {w} {t:?} {ra:?}"));
                }
            }
            2 => {
                // Finish an emitted sync barrier.
                if !$st.syncs.is_empty() {
                    let (level, iteration) = $st.syncs.remove($pick % $st.syncs.len());
                    let ra = $a.sync_finished(level, iteration);
                    let rb = $b.sync_finished(level, iteration);
                    assert_eq!(ra, rb, "sync_finished({level}, {iteration})");
                    $st.log.push(format!("sync {level} {iteration} {ra:?}"));
                }
            }
            3 => {
                // Toggle liveness: crash if alive, restart if dead.
                let w = $pick % N_WORKERS;
                if $a.is_alive(w) {
                    let ra = $a.worker_crashed(w);
                    let rb = $b.worker_crashed(w);
                    assert_eq!(ra, rb, "worker_crashed({w})");
                    $st.log.push(format!("crash {w} {ra:?}"));
                } else {
                    let ra = $a.worker_restarted(w);
                    let rb = $b.worker_restarted(w);
                    assert_eq!(ra, rb, "worker_restarted({w})");
                    $st.log.push(format!("restart {w} {ra:?}"));
                }
            }
            4 => {
                // Expire an outstanding lease (no-op stale timer without
                // recovery, or after the lease already moved on).
                if !$st.outstanding.is_empty() {
                    let (_, t, attempt) = $st.outstanding[$pick % $st.outstanding.len()];
                    let ra = $a.lease_expired(t, attempt);
                    let rb = $b.lease_expired(t, attempt);
                    assert_eq!(ra, rb, "lease_expired({t:?}, {attempt})");
                    $st.log.push(format!("expire {t:?} {ra:?}"));
                }
            }
            _ => {
                // Serve the waiting queue.
                let ra = $a.pop_ready_grant(now);
                let rb = $b.pop_ready_grant(now);
                assert_eq!(format!("{ra:?}"), format!("{rb:?}"), "pop_ready_grant");
                if let Ok(Some((w, g))) = &ra {
                    $st.outstanding.push((*w, g.token.id, g.attempt));
                    $st.log.push(format!(
                        "pop {w} {:?} {:?} {}",
                        g.token.id, g.fetches, g.attempt
                    ));
                } else {
                    $st.log.push("pop none".to_string());
                }
            }
        }
    }};
}

proptest! {
    /// Oracle vs production plane under random churn across the policy
    /// matrix: every grant, sync, error, liveness transition and the final
    /// snapshot must be bit-identical.
    #[test]
    fn plane_matches_oracle_under_churn(
        hf in 0u8..2,
        ads in 0u8..2,
        ctd in 0u8..2,
        recovery in 0u8..2,
        ops in prop::collection::vec(
            (0u8..6, 0usize..64, 1u64..20_000_000),
            1..120,
        ),
    ) {
        let cfg = build_cfg(hf == 1, ads == 1, ctd == 1, recovery == 1);
        let (plan, meta) = vgg_inputs(&cfg);
        let mut oracle =
            TokenServer::new(plan.clone(), cfg.clone(), meta.clone(), N_WORKERS, ITERATIONS);
        let mut plane = ControlPlane::new(plan, cfg, meta, N_WORKERS, ITERATIONS);
        let mut st = Churn::new();
        for &(action, pick, dt) in &ops {
            lockstep_op!(oracle, plane, st, action, pick, dt);
        }
        prop_assert_eq!(oracle.snapshot(), plane.snapshot());
        prop_assert_eq!(
            format!("{:?}", oracle.stats()),
            format!("{:?}", plane.stats())
        );
        prop_assert_eq!(oracle.trained_per_worker(), plane.trained_per_worker());
        prop_assert_eq!(
            oracle.completed_iterations(),
            plane.completed_iterations()
        );
    }

    /// Snapshot → restore → snapshot round-trips bit-identically on the
    /// oracle and the plane, and the restored pair continues exactly like the
    /// original under the same operation suffix (timing-only conflict state
    /// excluded: suffix steps outlast the lock window).
    #[test]
    fn snapshot_round_trips_and_continues_identically(
        hf in 0u8..2,
        recovery in 0u8..2,
        prefix in prop::collection::vec((0u8..6, 0usize..64), 1..60),
        suffix in prop::collection::vec((0u8..6, 0usize..64), 1..40),
    ) {
        let cfg = build_cfg(hf == 1, true, false, recovery == 1);
        let (plan, meta) = vgg_inputs(&cfg);
        let mut oracle =
            TokenServer::new(plan.clone(), cfg.clone(), meta.clone(), N_WORKERS, ITERATIONS);
        let mut plane =
            ControlPlane::new(plan.clone(), cfg.clone(), meta.clone(), N_WORKERS, ITERATIONS);
        // Steps outlast the 5 ms lock window so no grant ever conflicts:
        // `last_grant_at` is deliberately absent from snapshots.
        const DT: u64 = 10_000_000;
        let mut st = Churn::new();
        for &(action, pick) in &prefix {
            lockstep_op!(oracle, plane, st, action, pick, DT);
        }
        let snap = oracle.snapshot();
        prop_assert_eq!(&snap, &plane.snapshot());

        let mut restored_oracle = TokenServer::restore(
            plan.clone(),
            cfg.clone(),
            meta.clone(),
            N_WORKERS,
            ITERATIONS,
            oracle.tokens().clone(),
            &snap,
        )
        .expect("oracle restore");
        prop_assert_eq!(&restored_oracle.snapshot(), &snap, "oracle round-trip");
        let mut restored_plane = ControlPlane::restore(
            plan,
            cfg,
            meta,
            N_WORKERS,
            ITERATIONS,
            plane.tokens().clone(),
            &snap,
        )
        .expect("plane restore");
        prop_assert_eq!(&restored_plane.snapshot(), &snap, "plane round-trip");

        // Continuation: the restored pair must replay the original pair's
        // future behaviour op for op.
        let mut orig = Churn::new();
        orig.clock = st.clock;
        let mut rest = Churn::new();
        rest.clock = st.clock;
        for &(action, pick) in &suffix {
            lockstep_op!(oracle, plane, orig, action, pick, DT);
            lockstep_op!(restored_oracle, restored_plane, rest, action, pick, DT);
        }
        prop_assert_eq!(&orig.log, &rest.log, "restored continuation diverged");
        prop_assert_eq!(oracle.snapshot(), restored_oracle.snapshot());
        prop_assert_eq!(plane.snapshot(), restored_plane.snapshot());
    }
}

/// The zoo configurations the full-run conformance test drives, one of them
/// faulted (crash + restart mid-run).
fn conformance_scenarios() -> Vec<(&'static str, FelaConfig, Scenario)> {
    let fault = FaultModel::Scripted {
        worker: 2,
        iteration: 1,
        kind: fela_cluster::FaultKind::CrashRestart {
            down: SimDuration::from_secs(2),
        },
    };
    vec![
        (
            "vgg19",
            FelaConfig::new(3).with_weights(vec![1, 2, 4]),
            Scenario::paper(zoo::vgg19(), 128).with_iterations(3),
        ),
        (
            "googlenet-ctd",
            FelaConfig::new(3).with_weights(vec![1, 2, 4]).with_ctd(4),
            Scenario::paper(zoo::googlenet(), 256).with_iterations(3),
        ),
        (
            "vgg19-faulted",
            FelaConfig::new(3).with_weights(vec![1, 2, 4]),
            Scenario::paper(zoo::vgg19(), 256)
                .with_iterations(4)
                .with_fault(fault),
        ),
    ]
}

/// Complete simulated runs replay on the oracle: every control-plane
/// operation of a run — logged to its WAL with a checkpoint per iteration —
/// yields the same outcome on the oracle, every checkpoint equals the
/// oracle's state at that point byte for byte, and each token is applied
/// exactly once. (The `sharded_` prefix names the level-range-sharded plane
/// this suite first proved; that plane is now the one production plane.)
#[test]
fn sharded_full_runs_are_byte_identical_to_oracle() {
    for (name, cfg, sc) in conformance_scenarios() {
        let dir =
            std::env::temp_dir().join(format!("fela-conformance-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let runtime = FelaRuntime::new(cfg.clone()).with_durability(DurabilityOptions {
            wal_dir: Some(dir.clone()),
            checkpoint_every: 1,
        });
        let _ = runtime.run_traced(&sc);
        let bytes = std::fs::read(wal_path(&dir)).expect("the run wrote its WAL");
        let _ = std::fs::remove_dir_all(&dir);

        // The plane the runtime built: faults imply lease-based recovery.
        let effective = effective_cfg(&cfg, &sc);
        let partition = runtime.partition_for(&sc);
        let plan = TokenPlan::build(&partition, &effective, sc.total_batch, sc.cluster.nodes)
            .expect("plan");
        let meta: Vec<LevelMeta> = partition
            .sub_models()
            .iter()
            .map(|s| LevelMeta {
                param_bytes: s.param_bytes,
                output_bytes_per_sample: s.output_bytes_per_sample,
                input_bytes_per_sample: s.input_bytes_per_sample,
                comm_intensive: s.comm_intensive,
            })
            .collect();
        let wal = fela_check::check_wal(
            &bytes,
            &plan,
            &effective,
            &meta,
            sc.cluster.nodes,
            sc.iterations,
            None,
        )
        .unwrap_or_else(|v| panic!("{name}: the oracle rejected the run's log: {v:?}"));
        assert_eq!(
            wal.applied as u64,
            plan.tokens_per_iteration() * sc.iterations,
            "{name}: every token applied exactly once"
        );
        assert_eq!(wal.checkpoints as u64, sc.iterations, "{name}");
    }
}

/// `fela-check` applies to the production plane's traces unchanged: the race
/// detector and the recovery verifier were written against the oracle's
/// single-server traces, and conformance means they accept the plane's
/// full-run traces as-is.
#[test]
fn fela_check_accepts_sharded_traces_unchanged() {
    for (name, cfg, sc) in conformance_scenarios() {
        let staleness = effective_cfg(&cfg, &sc).staleness;
        let (_, trace) = FelaRuntime::new(cfg).run_traced(&sc);
        let summary = fela_check::check_trace(&trace, staleness)
            .unwrap_or_else(|v| panic!("{name}: race check rejected the trace: {v:?}"));
        assert!(summary.grants > 0, "{name}: the trace carries grants");
        let recovery = fela_check::check_recovery(&trace)
            .unwrap_or_else(|v| panic!("{name}: recovery check rejected the trace: {v:?}"));
        assert_eq!(
            recovery.applied, summary.completions,
            "{name}: every completion applied exactly once"
        );
    }
}

/// The configuration the runtime's plane runs under: faults imply
/// lease-based recovery.
fn effective_cfg(cfg: &FelaConfig, sc: &Scenario) -> FelaConfig {
    let mut effective = cfg.clone();
    if !sc.fault.is_none() && effective.recovery.is_none() {
        effective.recovery = Some(RecoveryConfig::default());
    }
    effective
}

/// The restore path rejects nothing it produced: a snapshot taken mid-run on
/// a faulted scenario still restores on both the oracle and the plane. (Deterministic spot
/// check complementing the proptest above: exercises parked tokens and
/// quarantine state reached through the full simulator.)
#[test]
fn faulted_mid_run_snapshot_restores_on_both_planes() {
    let cfg = build_cfg(true, true, false, true);
    let (plan, meta) = vgg_inputs(&cfg);
    let mut oracle = TokenServer::new(
        plan.clone(),
        cfg.clone(),
        meta.clone(),
        N_WORKERS,
        ITERATIONS,
    );
    let mut plane = ControlPlane::new(plan.clone(), cfg.clone(), meta.clone(), N_WORKERS, 4);
    let mut st = Churn::new();
    // Grant a round, crash two workers (one holding leases), expire a lease.
    for w in 0..N_WORKERS {
        lockstep_op!(oracle, plane, st, 0, w, 10_000_000);
    }
    lockstep_op!(oracle, plane, st, 3, 2, 10_000_000);
    lockstep_op!(oracle, plane, st, 3, 5, 10_000_000);
    lockstep_op!(oracle, plane, st, 4, 0, 10_000_000);
    lockstep_op!(oracle, plane, st, 1, 1, 10_000_000);
    let snap = oracle.snapshot();
    assert_eq!(&snap, &plane.snapshot());
    let tokens: BTreeMap<TokenId, _> = oracle.tokens().clone();
    let r1 = TokenServer::restore(
        plan.clone(),
        cfg.clone(),
        meta.clone(),
        N_WORKERS,
        ITERATIONS,
        tokens.clone(),
        &snap,
    )
    .expect("oracle restore");
    let r2 = ControlPlane::restore(plan, cfg, meta, N_WORKERS, ITERATIONS, tokens, &snap)
        .expect("plane restore");
    assert_eq!(r1.snapshot(), snap);
    assert_eq!(r2.snapshot(), snap);
}

/// Drives a fresh plane into a state with a non-empty waiting queue and
/// servable tokens: one grant per worker, a starved second request that
/// queues every worker, then reports that release the next level's tokens.
macro_rules! starve_then_release {
    ($p:expr) => {{
        let mut clock = 0u64;
        let mut granted = Vec::new();
        for w in 0..N_WORKERS {
            clock += 1_000;
            let g = $p
                .request(w, SimTime::from_nanos(clock))
                .expect("request")
                .expect("the first round must grant");
            granted.push((w, g.token.id));
        }
        for w in 0..N_WORKERS {
            clock += 1_000;
            let g = $p.request(w, SimTime::from_nanos(clock)).expect("request");
            assert!(g.is_none(), "second request must starve into the queue");
        }
        for (w, t) in granted {
            clock += 1_000;
            for s in $p.report(w, t).expect("report") {
                $p.sync_finished(s.level, s.iteration).expect("sync");
            }
        }
        clock + 1_000
    }};
}

/// The batched grant path (`drain_ready_grants`) must be observably identical
/// to the one-at-a-time `pop_ready_grant`-until-`None` loop — same grants in
/// the same order, same stats — on both the oracle and the plane.
#[test]
fn drain_ready_grants_matches_repeated_pop_on_both_planes() {
    let cfg = build_cfg(true, true, false, false);
    let (plan, meta) = vgg_inputs(&cfg);
    let mut drained = ControlPlane::new(
        plan.clone(),
        cfg.clone(),
        meta.clone(),
        N_WORKERS,
        ITERATIONS,
    );
    let mut popped = ControlPlane::new(
        plan.clone(),
        cfg.clone(),
        meta.clone(),
        N_WORKERS,
        ITERATIONS,
    );
    let mut oracle = TokenServer::new(plan, cfg, meta, N_WORKERS, ITERATIONS);

    let clock = starve_then_release!(drained);
    assert_eq!(clock, starve_then_release!(popped));
    assert_eq!(clock, starve_then_release!(oracle));
    let now = SimTime::from_nanos(clock);

    let mut batch = Vec::new();
    drained.drain_ready_grants(now, &mut batch).expect("drain");
    let mut singles = Vec::new();
    while let Some(pair) = popped.pop_ready_grant(now).expect("pop") {
        singles.push(pair);
    }
    let mut oracle_batch = Vec::new();
    oracle
        .drain_ready_grants(now, &mut oracle_batch)
        .expect("oracle drain");

    assert!(
        !batch.is_empty(),
        "the scenario must exercise a non-empty drain"
    );
    assert_eq!(format!("{batch:?}"), format!("{singles:?}"));
    assert_eq!(format!("{batch:?}"), format!("{oracle_batch:?}"));
    assert_eq!(
        format!("{:?}", drained.stats()),
        format!("{:?}", popped.stats()),
        "stats must not diverge between the batched and single-pop paths"
    );
    assert_eq!(drained.snapshot(), popped.snapshot());
}

/// The operations the skewed drive issues, on the plane alone or on the
/// oracle–plane [`Lockstep`] pair.
trait SkewTarget {
    fn request(&mut self, worker: usize, now: SimTime) -> Result<Option<Grant>, ScheduleError>;
    fn pop_ready_grant(&mut self, now: SimTime) -> Result<Option<(usize, Grant)>, ScheduleError>;
    fn report(&mut self, worker: usize, token: TokenId) -> Result<Vec<SyncSpec>, ScheduleError>;
    fn sync_finished(&mut self, level: usize, iteration: u64) -> Result<(), ScheduleError>;
}

impl SkewTarget for ControlPlane {
    fn request(&mut self, worker: usize, now: SimTime) -> Result<Option<Grant>, ScheduleError> {
        ControlPlane::request(self, worker, now)
    }
    fn pop_ready_grant(&mut self, now: SimTime) -> Result<Option<(usize, Grant)>, ScheduleError> {
        ControlPlane::pop_ready_grant(self, now)
    }
    fn report(&mut self, worker: usize, token: TokenId) -> Result<Vec<SyncSpec>, ScheduleError> {
        ControlPlane::report(self, worker, token)
    }
    fn sync_finished(&mut self, level: usize, iteration: u64) -> Result<(), ScheduleError> {
        ControlPlane::sync_finished(self, level, iteration)
    }
}

/// The oracle and the plane driven together: every operation's result and
/// the snapshot after it must be identical on both.
struct Lockstep {
    oracle: TokenServer,
    plane: ControlPlane,
    /// Most distinct iterations any deeper level's `pending` held at once.
    max_pending_span: usize,
}

impl Lockstep {
    fn new(cfg: FelaConfig, iterations: u64) -> Self {
        let (plan, meta) = vgg_inputs(&cfg);
        Lockstep {
            oracle: TokenServer::new(
                plan.clone(),
                cfg.clone(),
                meta.clone(),
                N_WORKERS,
                iterations,
            ),
            plane: ControlPlane::new(plan, cfg, meta, N_WORKERS, iterations),
            max_pending_span: 0,
        }
    }

    /// Asserts the two results and the two snapshots agree; returns the
    /// oracle's result.
    fn agree<R: std::fmt::Debug>(&mut self, op: std::fmt::Arguments, a: R, b: R) -> R {
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{op}");
        let snap = self.plane.snapshot();
        assert_eq!(self.oracle.snapshot(), snap, "snapshot after {op}");
        for level in &snap.pending[1..] {
            let iterations: std::collections::BTreeSet<u64> = level
                .iter()
                .map(|&(id, _)| self.plane.token(TokenId(id)).expect("parked").iteration)
                .collect();
            self.max_pending_span = self.max_pending_span.max(iterations.len());
        }
        a
    }

    fn crash(&mut self, worker: usize) {
        let (a, b) = (
            self.oracle.worker_crashed(worker),
            self.plane.worker_crashed(worker),
        );
        self.agree(format_args!("worker_crashed({worker})"), a, b)
            .expect("crash");
    }

    fn lease_expired(&mut self, token: TokenId, attempt: u64) {
        let (a, b) = (
            self.oracle.lease_expired(token, attempt),
            self.plane.lease_expired(token, attempt),
        );
        self.agree(format_args!("lease_expired({token:?}, {attempt})"), a, b)
            .expect("expiry");
    }

    fn restart(&mut self, worker: usize) {
        let (a, b) = (
            self.oracle.worker_restarted(worker),
            self.plane.worker_restarted(worker),
        );
        self.agree(format_args!("worker_restarted({worker})"), a, b)
            .expect("restart");
    }
}

impl SkewTarget for Lockstep {
    fn request(&mut self, worker: usize, now: SimTime) -> Result<Option<Grant>, ScheduleError> {
        let (a, b) = (
            self.oracle.request(worker, now),
            self.plane.request(worker, now),
        );
        self.agree(format_args!("request({worker})"), a, b)
    }
    fn pop_ready_grant(&mut self, now: SimTime) -> Result<Option<(usize, Grant)>, ScheduleError> {
        let (a, b) = (
            self.oracle.pop_ready_grant(now),
            self.plane.pop_ready_grant(now),
        );
        self.agree(format_args!("pop_ready_grant"), a, b)
    }
    fn report(&mut self, worker: usize, token: TokenId) -> Result<Vec<SyncSpec>, ScheduleError> {
        let (a, b) = (
            self.oracle.report(worker, token),
            self.plane.report(worker, token),
        );
        self.agree(format_args!("report({worker}, {token:?})"), a, b)
    }
    fn sync_finished(&mut self, level: usize, iteration: u64) -> Result<(), ScheduleError> {
        let (a, b) = (
            self.oracle.sync_finished(level, iteration),
            self.plane.sync_finished(level, iteration),
        );
        self.agree(format_args!("sync_finished({level}, {iteration})"), a, b)
    }
}

/// Deeper levels finish their two oldest held syncs once per this many
/// level-0 syncs, so they fall further behind level 0 as the run goes on.
const SKEW_PACE: u64 = 4;

/// The skewed-level drive. Each round, `on_round` (given the level-0 syncs
/// so far) picks the one worker that pulls every grantable token; the batch
/// is reported newest first. Level-0 syncs finish at once; deeper syncs are
/// held, and every `SKEW_PACE`-th level-0 sync finishes the two oldest held
/// ones newest first, so one call can release two iterations. The deeper
/// levels lag further and further and park a growing backlog. When nothing
/// is grantable, every held sync finishes newest first. Returns the number
/// of tokens reported.
fn skewed_drive<T: SkewTarget>(t: &mut T, mut on_round: impl FnMut(&mut T, u64) -> usize) -> u64 {
    let mut clock = 0u64;
    let mut held: Vec<(usize, u64)> = Vec::new();
    let mut level0_syncs = 0u64;
    let mut reported = 0u64;
    loop {
        let puller = on_round(t, level0_syncs);
        clock += 1_000;
        let now = SimTime::from_nanos(clock);
        let mut batch = Vec::new();
        while let Some(g) = t.request(puller, now).expect("request") {
            batch.push((puller, g.token.id));
        }
        while let Some((w, g)) = t.pop_ready_grant(now).expect("pop") {
            batch.push((w, g.token.id));
        }
        if batch.is_empty() {
            if held.is_empty() {
                return reported;
            }
            while let Some((level, iteration)) = held.pop() {
                t.sync_finished(level, iteration).expect("sync");
            }
            continue;
        }
        for (w, id) in batch.into_iter().rev() {
            reported += 1;
            for s in t.report(w, id).expect("report") {
                if s.level > 0 {
                    held.push((s.level, s.iteration));
                    continue;
                }
                t.sync_finished(0, s.iteration).expect("sync");
                level0_syncs += 1;
                if level0_syncs % SKEW_PACE == 0 {
                    let k = held.len().min(2);
                    for (level, iteration) in held.drain(..k).rev() {
                        t.sync_finished(level, iteration).expect("sync");
                    }
                }
            }
        }
    }
}

/// Skewed levels in lockstep: level 0 runs ahead until a deeper level's
/// `pending` spans at least ten times the staleness bound. Mid-run the
/// puller crashes (its parked tokens re-home to a survivor), then every
/// worker crashes — the last with no survivor to re-home to — and a restart
/// adopts the orphaned backlog. Oracle and plane agree op by op and snapshot
/// by snapshot, and the run completes.
#[test]
fn skewed_levels_match_oracle_through_crash_and_restart() {
    const STALENESS: u64 = 1;
    const ITERATIONS: u64 = 48;
    let cfg = build_cfg(true, true, false, false).with_staleness(STALENESS);
    let mut pair = Lockstep::new(cfg, ITERATIONS);
    let mut phase = 0;
    let mut puller = 0;
    let mut orphaned = false;
    let reported = skewed_drive(&mut pair, |pair, level0_syncs| {
        if phase == 0 && level0_syncs >= ITERATIONS / 3 {
            phase = 1;
            pair.crash(0);
            puller = 1;
        } else if phase == 1 && level0_syncs >= ITERATIONS / 2 {
            phase = 2;
            for w in 1..N_WORKERS {
                pair.crash(w);
            }
            let snap = pair.plane.snapshot();
            orphaned = snap.pending[1..]
                .iter()
                .flatten()
                .any(|&(_, bucket)| !snap.alive[bucket]);
            for w in 0..N_WORKERS {
                pair.restart(w);
            }
            puller = 0;
        }
        puller
    });
    assert_eq!(phase, 2, "the faults fired");
    assert!(
        orphaned,
        "the restart re-homed parked tokens of a dead bucket"
    );
    assert!(
        pair.max_pending_span as u64 >= 10 * STALENESS,
        "pending spanned only {} iterations",
        pair.max_pending_span
    );
    assert!(pair.oracle.run_complete() && pair.plane.run_complete());
    assert_eq!(
        reported,
        pair.plane.plan().tokens_per_iteration() * ITERATIONS
    );
}

/// Nanoseconds per token of a fault-free skewed drive of `iterations`
/// (fastest of three runs).
fn skewed_ns_per_token(iterations: u64) -> f64 {
    let cfg = build_cfg(true, true, false, false).with_staleness(1);
    let (plan, meta) = vgg_inputs(&cfg);
    (0..3)
        .map(|_| {
            let mut plane = ControlPlane::new(
                plan.clone(),
                cfg.clone(),
                meta.clone(),
                N_WORKERS,
                iterations,
            );
            let start = std::time::Instant::now();
            let tokens = skewed_drive(&mut plane, |_, _| 0);
            assert!(plane.run_complete());
            start.elapsed().as_nanos() as f64 / tokens as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Run-length guard: the skewed drive's cost per token stays flat when the
/// run is eight times longer. Releasing parked tokens costs what is
/// released; rescanning every parked token at each sync would grow the
/// per-token cost with the backlog, about eightfold here.
#[test]
fn skewed_drive_cost_per_token_does_not_grow_with_run_length() {
    const SHORT: u64 = 400;
    let short = skewed_ns_per_token(SHORT);
    let long = skewed_ns_per_token(8 * SHORT);
    eprintln!(
        "skewed drive: {short:.0} ns/token at {SHORT} iterations, {long:.0} at {}",
        8 * SHORT
    );
    assert!(
        long < 3.0 * short,
        "ns per token grew {:.2}x from {SHORT} to {} iterations",
        long / short,
        8 * SHORT
    );
}

/// Round-robin drive: every worker but `idle` requests; grants are reported
/// in grant order and each sync finishes at once. Calls `after_sync` after
/// every finished sync and returns once `until(t)` holds or nothing is
/// grantable.
fn round_robin_drive<T: SkewTarget>(
    t: &mut T,
    idle: Option<usize>,
    mut until: impl FnMut(&T) -> bool,
    mut after_sync: impl FnMut(&T),
) {
    let mut clock = 0u64;
    while !until(t) {
        clock += 1_000;
        let now = SimTime::from_nanos(clock);
        let mut batch = Vec::new();
        for w in (0..N_WORKERS).filter(|&w| Some(w) != idle) {
            if let Some(g) = t.request(w, now).expect("request") {
                batch.push((w, g.token.id));
            }
        }
        while let Some((w, g)) = t.pop_ready_grant(now).expect("pop") {
            batch.push((w, g.token.id));
        }
        if batch.is_empty() {
            return;
        }
        for (w, id) in batch {
            for s in t.report(w, id).expect("report") {
                t.sync_finished(s.level, s.iteration).expect("sync");
                after_sync(t);
            }
        }
    }
}

/// Boundedness: over a 2,000-iteration drive the plane's token table never
/// holds more than (levels + staleness + 1) iterations' worth of tokens,
/// and the plane stays snapshot-equal to the oracle after every operation.
/// Before retirement the table held every token ever minted.
#[test]
fn token_table_stays_within_the_live_window() {
    const ITERATIONS: u64 = 2_000;
    for staleness in [0, 2] {
        let cfg = build_cfg(true, true, false, false).with_staleness(staleness);
        let mut pair = Lockstep::new(cfg, ITERATIONS);
        let plan = pair.plane.plan().clone();
        let bound = (plan.num_levels() as u64 + staleness + 1) * plan.tokens_per_iteration();
        let mut largest = 0usize;
        round_robin_drive(
            &mut pair,
            None,
            |_| false,
            |pair| {
                let live = pair.plane.tokens().len();
                assert!(
                    live as u64 <= bound,
                    "staleness {staleness}: {live} live tokens after {} iterations, bound {bound}",
                    pair.plane.completed_iterations()
                );
                assert_eq!(pair.oracle.tokens(), pair.plane.tokens());
                largest = largest.max(live);
            },
        );
        assert!(pair.oracle.run_complete() && pair.plane.run_complete());
        assert!(pair.plane.tokens().is_empty(), "every iteration retired");
        assert!(largest > 0);
    }
}

/// A hung worker reports after its iteration has retired: its lease
/// expired, another worker finished the token, and the iteration synced at
/// every level. The plane and the oracle agree op by op — both answer
/// `StaleReport` — and the late report changes neither.
#[test]
fn a_hung_workers_report_after_retirement_is_stale_on_both() {
    const HUNG: usize = 3;
    let cfg = build_cfg(true, true, false, true);
    let mut pair = Lockstep::new(cfg, ITERATIONS);
    let grant = pair
        .request(HUNG, SimTime::from_nanos(1))
        .expect("request")
        .expect("the hung worker's own root");
    let token = grant.token.id;
    assert_eq!(grant.token.iteration, 0);
    pair.lease_expired(token, grant.attempt);
    round_robin_drive(
        &mut pair,
        Some(HUNG),
        |pair| pair.plane.completed_iterations() >= 1,
        |_| {},
    );
    assert!(pair.plane.completed_iterations() >= 1);
    assert!(
        pair.plane.token(token).is_none() && pair.oracle.token(token).is_none(),
        "iteration 0 retired on both"
    );
    let before = pair.plane.snapshot();
    let late = pair.report(HUNG, token);
    assert_eq!(
        late,
        Err(ScheduleError::StaleReport {
            worker: HUNG,
            token
        })
    );
    assert_eq!(
        pair.plane.snapshot(),
        before,
        "a stale report changes nothing"
    );
}
