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

use std::collections::BTreeMap;

use fela_check::TokenServer;
use fela_cluster::{FaultModel, Scenario};
use fela_core::{
    wal_path, ControlPlane, DurabilityOptions, FelaConfig, FelaRuntime, LevelMeta, RecoveryConfig,
    TokenId, TokenPlan,
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
