//! Model-checker and protocol-verifier integration: `fela-check`'s `mc` and
//! `protocol` layers against the *real* live runtime, cross-crate.
//!
//! The unit suites in `fela-check` prove the explorer and session machine on
//! the small model configurations; this suite closes the loop with threads:
//! a real `fela-live` virtual-clock run, recorded through the scheduler seam,
//! must satisfy the same frame-session protocol the model checker verifies —
//! and seeded wire mutations on that *live* trace must still be caught.

use fela_check::{
    model_check, model_check_oracle, mutate_events, record_execution, run_mutation_matrix,
    verify_session, McConfig, WireMutation,
};
use fela_cluster::{ClusterSpec, Scenario};
use fela_core::{FelaConfig, FelaRuntime};
use fela_live::{
    run_real_with, run_virtual_with, ChanTransport, RealOptions, RecordingSched, SharedSched,
    SyncEvent,
};
use fela_model::zoo;

#[test]
fn the_acceptance_configuration_is_exhaustively_clean() {
    // 2 workers × 2 iterations, every non-equivalent interleaving, zero
    // deadlocks, zero lost wakeups, all histories linearizable against the
    // oracle Token Server.
    let outcome = model_check(&McConfig::small());
    assert!(outcome.ok(), "violations: {:?}", outcome.violations);
    assert!(outcome.states > 0 && outcome.terminals > 0);
    assert!(!outcome.truncated, "space must be exhausted, not truncated");
}

#[test]
fn the_production_plane_explores_the_oracles_schedule_space() {
    // The production plane must be observationally equivalent to the oracle
    // Token Server explored on its own: same reachable states, same
    // transitions, same terminal count — not merely "also clean".
    for cfg in [McConfig::small(), McConfig::small().with_recovery()] {
        let oracle = model_check_oracle(&cfg);
        let plane = model_check(&cfg);
        assert!(oracle.ok() && plane.ok());
        assert_eq!(oracle.states, plane.states);
        assert_eq!(oracle.transitions, plane.transitions);
        assert_eq!(oracle.terminals, plane.terminals);
        assert_eq!(oracle.lease_fires, plane.lease_fires);
    }
}

#[test]
fn the_lease_adversary_is_clean_and_actually_adversarial() {
    let outcome = model_check(&McConfig::small().with_recovery());
    assert!(outcome.ok(), "violations: {:?}", outcome.violations);
    assert!(
        outcome.lease_fires > 0,
        "the adversary never fired a lease — the recovery space was not explored"
    );
    assert!(
        outcome.stale_reports > 0,
        "no revoked-then-reported token was explored"
    );
}

#[test]
fn the_mutation_matrix_is_caught_with_distinct_diagnostics() {
    let matrix = run_mutation_matrix();
    assert!(matrix.len() >= 3, "need at least three seeded mutations");
    let mut kinds = std::collections::BTreeSet::new();
    for row in &matrix {
        assert!(row.caught, "mutation '{}' slipped through", row.name);
        assert!(
            kinds.insert(row.kind),
            "mutation '{}' produced a duplicate diagnostic kind '{}'",
            row.name,
            row.kind
        );
    }
}

#[test]
fn recorded_model_executions_are_session_clean() {
    let (events, ops) = record_execution(&McConfig::small());
    assert!(!events.is_empty() && !ops.is_empty());
    let report = verify_session(&events, Some(&ops));
    assert!(report.ok(), "{:?}", report.violations);
    assert_eq!(report.links, 2);
}

/// A real threaded virtual-clock run over the in-process channel transport,
/// recorded through the `Sched` seam.
fn recorded_live_trace() -> Vec<SyncEvent> {
    let mut scenario = Scenario::paper(zoo::alexnet(), 128);
    scenario.iterations = 2;
    scenario.cluster = ClusterSpec::k40c_cluster(2);
    let m = FelaRuntime::new(FelaConfig::new(1))
        .partition_for(&scenario)
        .len();
    let config = FelaConfig::new(m);
    let rec = RecordingSched::new();
    let sched: SharedSched = rec.clone();
    run_virtual_with(&config, &scenario, &mut ChanTransport, sched).expect("live run succeeds");
    rec.take()
}

#[test]
fn a_real_threaded_run_satisfies_the_frame_session_protocol() {
    let events = recorded_live_trace();
    assert!(!events.is_empty(), "the scheduler seam recorded nothing");
    let report = verify_session(&events, None);
    assert!(
        report.ok(),
        "live trace violations: {:?}",
        report.violations
    );
    assert_eq!(report.links, 2, "one session per worker link");
    assert!(report.frames > 0);
}

/// A real-clock pull-mode run (the `Request`/`Grant`/`Report` dialogue the
/// wire mutations target — virtual mode prices spans with `CostQuery`
/// instead), recorded through the same seam.
fn recorded_real_trace() -> Vec<SyncEvent> {
    let mut scenario = Scenario::paper(zoo::alexnet(), 128);
    scenario.iterations = 2;
    scenario.cluster = ClusterSpec::k40c_cluster(2);
    let m = FelaRuntime::new(FelaConfig::new(1))
        .partition_for(&scenario)
        .len();
    let config = FelaConfig::new(m);
    let rec = RecordingSched::new();
    let sched: SharedSched = rec.clone();
    let opts = RealOptions {
        time_scale: 1e-4,
        ..RealOptions::default()
    };
    run_real_with(&config, &scenario, &mut ChanTransport, opts, sched)
        .expect("real-clock run succeeds");
    rec.take()
}

#[test]
fn wire_mutations_on_a_live_trace_are_still_caught() {
    // The session verifier is not specific to model-generated streams: the
    // same seeded wire mutations must be caught on a trace recorded from real
    // threads (misroute needs grant intents from an op log, so it is covered
    // by the model-side matrix instead).
    let events = recorded_real_trace();
    let clean = verify_session(&events, None);
    assert!(clean.ok(), "real trace violations: {:?}", clean.violations);
    for mutation in [
        WireMutation::DropGrant { nth: 0 },
        WireMutation::ReorderGrantReport { nth: 0 },
    ] {
        let mutated = mutate_events(&events, &mutation);
        let report = verify_session(&mutated, None);
        assert!(
            !report.ok(),
            "{mutation:?} went unnoticed on the live trace"
        );
    }
}
