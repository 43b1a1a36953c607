//! Live-runtime conformance: a `fela-live` virtual-clock run — real worker
//! threads, real wire protocol, on both transports — must be **byte-identical**
//! to the discrete-event simulator, so the whole `fela-check` verification
//! stack (race detector, recovery verifier) applies to live traces unchanged.
//!
//! The real-clock smoke at the bottom checks the complementary guarantee:
//! wall-clock runs are nondeterministic in *timing*, but the executor's
//! canonical per-level reduction makes the final model parameters bit-equal
//! to the deterministic virtual run anyway.

use fela_cluster::{ClusterSpec, FaultKind, FaultModel, Scenario};
use fela_core::{FelaConfig, FelaRuntime};
use fela_live::{run_real, run_virtual, ChanTransport, RealOptions, TcpTransport, Transport};
use fela_model::zoo;
use fela_sim::SimDuration;

/// The conformance matrix: three zoo configs under BSP (staleness 0), all on
/// a 4-node cluster so ≥ 4 live worker threads run concurrently.
fn zoo_configs() -> Vec<(&'static str, FelaConfig, Scenario)> {
    let mut out = Vec::new();
    for (name, model, batch, weights) in [
        ("vgg19/b128", zoo::vgg19(), 128u64, Some(vec![1u64, 2, 4])),
        ("googlenet/b256", zoo::googlenet(), 256, None),
        ("alexnet/b128", zoo::alexnet(), 128, None),
    ] {
        let mut scenario = Scenario::paper(model, batch);
        scenario.iterations = 3;
        scenario.cluster = ClusterSpec::k40c_cluster(4);
        let m = FelaRuntime::new(FelaConfig::new(1))
            .partition_for(&scenario)
            .len();
        let config = match weights {
            Some(w) => FelaConfig::new(m).with_weights(w),
            None => FelaConfig::new(m),
        };
        out.push((name, config, scenario));
    }
    out
}

fn transports() -> Vec<(&'static str, Box<dyn Transport>)> {
    vec![
        ("chan", Box::new(ChanTransport) as Box<dyn Transport>),
        ("tcp", Box::<TcpTransport>::default()),
    ]
}

#[test]
fn virtual_runs_are_byte_identical_to_the_simulator_across_the_zoo() {
    for (name, config, scenario) in zoo_configs() {
        let (sim_report, sim_trace) = FelaRuntime::new(config.clone()).run_traced(&scenario);
        for (tname, mut transport) in transports() {
            let live =
                run_virtual(&config, &scenario, transport.as_mut()).expect("live run succeeds");
            assert_eq!(
                sim_trace.events(),
                live.trace.events(),
                "{name}/{tname}: live trace must be event-for-event equal to the simulator"
            );
            assert_eq!(
                sim_report.total_time_secs.to_bits(),
                live.report.total_time_secs.to_bits(),
                "{name}/{tname}: makespan must be bit-identical"
            );
            assert_eq!(
                sim_report.per_iteration_secs, live.report.per_iteration_secs,
                "{name}/{tname}"
            );
            assert_eq!(sim_report.counters, live.report.counters, "{name}/{tname}");
            assert!(!live.params.is_empty(), "{name}/{tname}: params collected");
        }
    }
}

#[test]
fn fela_check_accepts_live_traces_unchanged() {
    // The race detector and its happens-before analysis were written against
    // simulator traces; byte-conformance means they run on live traces as-is.
    for (name, config, scenario) in zoo_configs() {
        let live = run_virtual(&config, &scenario, &mut ChanTransport).expect("live run");
        let summary = fela_check::check_trace(&live.trace, 0)
            .unwrap_or_else(|v| panic!("{name}: race check rejected a live trace: {v:?}"));
        assert!(summary.grants > 0, "{name}: trace carries grants");
        assert!(summary.completions > 0, "{name}: trace carries completions");
    }
}

#[test]
fn params_are_bit_identical_across_transports() {
    // Same config, two different wire substrates: the replicas must land on
    // exactly the same bytes (and `run_virtual` already asserted every worker
    // matched its local reference replay).
    for (name, config, scenario) in zoo_configs() {
        let chan = run_virtual(&config, &scenario, &mut ChanTransport).expect("chan run");
        let tcp = run_virtual(&config, &scenario, &mut TcpTransport::default()).expect("tcp run");
        assert_eq!(
            chan.params, tcp.params,
            "{name}: params diverge across transports"
        );
    }
}

#[test]
fn recovery_verifier_accepts_a_faulted_live_trace() {
    // Crash-restart a worker mid-run: the live virtual run must still be
    // byte-identical to the simulator, and fela-check's lease-protocol
    // verifier must prove exactly-once gradient application on the live trace.
    let (_, config, mut scenario) = zoo_configs().remove(0);
    scenario.iterations = 4;
    scenario.fault = FaultModel::Scripted {
        worker: 1,
        iteration: 1,
        kind: FaultKind::CrashRestart {
            down: SimDuration::from_secs(20),
        },
    };
    let (_, sim_trace) = FelaRuntime::new(config.clone()).run_traced(&scenario);
    for (tname, mut transport) in transports() {
        let live = run_virtual(&config, &scenario, transport.as_mut()).expect("faulted live run");
        assert_eq!(
            sim_trace.events(),
            live.trace.events(),
            "{tname}: faulted live trace must match the simulator"
        );
        let summary = fela_check::check_recovery(&live.trace)
            .unwrap_or_else(|v| panic!("{tname}: recovery verifier rejected live trace: {v:?}"));
        assert!(summary.crashes >= 1, "{tname}: the crash is in the trace");
        assert_eq!(
            fela_check::check_trace(&live.trace, 0).map(|s| s.revocations >= 1),
            Ok(true),
            "{tname}: race check passes and sees the revocation"
        );
    }
}

#[test]
fn virtual_conformance_holds_at_64_workers() {
    // The poll-loop/batching rewrite is gated by this invariant: even at 64
    // live worker threads, a virtual-clock run on either transport stays
    // event-for-event identical to the discrete-event simulator.
    let mut scenario = Scenario::paper(zoo::alexnet(), 256);
    scenario.iterations = 2;
    scenario.cluster = ClusterSpec::k40c_cluster(64);
    let m = FelaRuntime::new(FelaConfig::new(1))
        .partition_for(&scenario)
        .len();
    let config = FelaConfig::new(m);
    let (sim_report, sim_trace) = FelaRuntime::new(config.clone()).run_traced(&scenario);
    for (tname, mut transport) in transports() {
        let live = run_virtual(&config, &scenario, transport.as_mut()).expect("64-worker live run");
        assert_eq!(
            sim_trace.events(),
            live.trace.events(),
            "{tname}: 64-worker live trace must be event-for-event equal to the simulator"
        );
        assert_eq!(
            sim_report.counters, live.report.counters,
            "{tname}: counters must match at 64 workers"
        );
        assert!(!live.params.is_empty(), "{tname}: params collected");
    }
}

#[test]
fn real_clock_timer_edge_regression() {
    // Timer-underflow regression at the workspace level: zero lease/downtime
    // floors plus a tiny time scale put every lease and restart deadline in
    // the past by the time it is armed. The old server loop panicked on the
    // unchecked `at - now`; the poll loop must fire these immediately and
    // still finish the faulted run on both transports.
    let (_, config, mut scenario) = zoo_configs().remove(2); // alexnet: fastest
    scenario.iterations = 4;
    scenario.fault = FaultModel::Scripted {
        worker: 1,
        iteration: 1,
        kind: FaultKind::CrashRestart {
            down: SimDuration::from_millis(100),
        },
    };
    for (tname, mut transport) in transports() {
        let real = run_real(
            &config,
            &scenario,
            transport.as_mut(),
            RealOptions {
                time_scale: 1e-7,
                min_lease: std::time::Duration::ZERO,
                min_down: std::time::Duration::ZERO,
                ..RealOptions::default()
            },
        )
        .expect("timer-edge run completes");
        assert_eq!(real.iterations, 4, "{tname}");
        assert!(real.crashes >= 1, "{tname}: the scripted crash happened");
        assert!(real.restarts >= 1, "{tname}: the worker rejoined");
    }
}

#[test]
fn real_clock_smoke_matches_virtual_params() {
    // 4 workers, both transports, wall clock: nondeterministic interleavings,
    // deterministic outcome. Every replica (and the server's reference
    // replay, asserted inside run_real) must agree with the virtual run.
    let (_, config, scenario) = zoo_configs().remove(2); // alexnet: fastest
    let virt = run_virtual(&config, &scenario, &mut ChanTransport).expect("virtual run");
    for (tname, mut transport) in transports() {
        let real = run_real(
            &config,
            &scenario,
            transport.as_mut(),
            RealOptions {
                time_scale: 1e-4,
                ..RealOptions::default()
            },
        )
        .expect("real run completes");
        assert_eq!(real.iterations, scenario.iterations, "{tname}");
        assert_eq!(
            real.params, virt.params,
            "{tname}: real-clock params must be bit-equal to the virtual run"
        );
        assert!(real.tokens_per_sec > 0.0, "{tname}");
    }
}

#[test]
fn pipelined_real_pulls_keep_workers_balanced() {
    // Work conservation under grant pipelining (the paper's HF rule): a
    // worker may steal only when its own STB is empty, i.e. only as the
    // first grant of a pull. If every grant of a 16-deep pull may steal, one
    // worker drains the other's bucket; on this two-worker, equal-speed
    // cluster the trained-token split then ranges from 1.1× to 2.4× run to
    // run, so three runs must all stay balanced to catch it reliably.
    let mut scenario = Scenario::paper(zoo::alexnet(), 256).with_iterations(200);
    scenario.cluster = ClusterSpec::k40c_cluster(2);
    let m = FelaRuntime::new(FelaConfig::new(1))
        .partition_for(&scenario)
        .len();
    let config = FelaConfig::new(m).with_staleness(8);
    let virt = run_virtual(&config, &scenario, &mut ChanTransport).expect("virtual run");
    for run in 0..3 {
        let real = run_real(
            &config,
            &scenario,
            &mut ChanTransport,
            RealOptions {
                time_scale: 2e-3,
                pipeline: 16,
                ..RealOptions::default()
            },
        )
        .expect("real run completes");
        assert_eq!(real.iterations, scenario.iterations, "run {run}");
        assert_eq!(
            real.params, virt.params,
            "run {run}: real-clock params must be bit-equal to the virtual run"
        );
        let trained = &real.trained_per_worker;
        let (Some(&lo), Some(&hi)) = (trained.iter().min(), trained.iter().max()) else {
            panic!("no per-worker counts");
        };
        assert!(
            (hi as f64) < 1.5 * lo as f64,
            "run {run}: per-worker trained tokens {trained:?}; the larger must be under 1.5× the smaller"
        );
    }
}
