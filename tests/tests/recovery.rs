//! End-to-end fault-tolerance guarantees: chaos sweeps stay byte-identical
//! across job counts, a crash-free fault model changes nothing, recovered
//! runs apply every micro-batch gradient exactly once (proved by fela-check),
//! and a durable run's log grows linearly in its length.

use fela_baselines::{DpRuntime, HpRuntime, MpRuntime};
use fela_cluster::{FaultKind, FaultModel, Scenario, TrainingRuntime};
use fela_core::{ControlPlane, FelaConfig, FelaRuntime, LevelMeta, MemWal, TokenPlan};
use fela_harness::{to_jsonl, SweepSpec};
use fela_model::zoo;
use fela_sim::{SimDuration, SimTime};

fn fela() -> FelaRuntime {
    FelaRuntime::new(FelaConfig::new(3).with_weights(vec![1, 2, 4]))
}

fn scenario(batch: u64) -> Scenario {
    Scenario::paper(zoo::googlenet(), batch).with_iterations(4)
}

fn chaos(p: f64) -> FaultModel {
    FaultModel::Chaos {
        p,
        down: SimDuration::from_secs(4),
        seed: 11,
    }
}

/// 4 runtimes × 3 batches under crash-restart churn.
fn chaos_sweep(seed: Option<u64>) -> SweepSpec {
    let mut spec = SweepSpec::new("recovery_demo")
        .runtime("fela", |_| Box::new(fela()))
        .runtime("dp", |_| Box::new(DpRuntime::default()))
        .runtime("mp", |_| Box::new(MpRuntime::default()))
        .runtime("hp", |_| Box::new(HpRuntime))
        .with_seed(seed);
    for batch in [64u64, 128, 256] {
        spec = spec.scenario(format!("b{batch}"), scenario(batch).with_fault(chaos(0.1)));
    }
    spec
}

#[test]
fn chaos_sweeps_are_byte_identical_across_job_counts() {
    let sequential = to_jsonl(&chaos_sweep(Some(5)).run(1).records);
    let parallel = to_jsonl(&chaos_sweep(Some(5)).run(4).records);
    assert!(!sequential.is_empty());
    assert_eq!(sequential.as_bytes(), parallel.as_bytes());
    // The record stream must carry the fault model it ran under.
    assert!(sequential.contains("\"fault\""));
    // A different seed re-roots the chaos realisation and changes the stream.
    let reseeded = to_jsonl(&chaos_sweep(Some(6)).run(1).records);
    assert_ne!(sequential.as_bytes(), reseeded.as_bytes());
}

#[test]
fn crash_free_fault_model_is_bit_identical_to_no_fault() {
    // Chaos with p = 0 arms the fault machinery but never fires it; every
    // runtime must produce the very same report bytes as a fault-free run.
    for runtime in [
        Box::new(fela()) as Box<dyn TrainingRuntime>,
        Box::new(DpRuntime::default()),
        Box::new(MpRuntime::default()),
        Box::new(HpRuntime),
    ] {
        let plain = runtime.run(&scenario(128));
        let armed = runtime.run(&scenario(128).with_fault(chaos(0.0)));
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&armed).unwrap(),
            "runtime {} diverged under a crash-free fault model",
            runtime.name()
        );
    }
}

#[test]
fn crash_restart_run_completes_and_applies_each_gradient_exactly_once() {
    let sc = scenario(128).with_fault(FaultModel::Scripted {
        worker: 2,
        iteration: 1,
        kind: FaultKind::CrashRestart {
            down: SimDuration::from_secs(5),
        },
    });
    let (report, trace) = fela().run_traced(&sc);
    assert_eq!(report.iterations, sc.iterations);
    assert_eq!(report.counter("crashes"), 1);
    assert_eq!(report.counter("restarts"), 1);

    // fela-check proves the lease protocol: every granted token applied
    // exactly once, no ghost gradients, no grants to dead workers.
    let summary = fela_check::check_recovery(&trace).expect("lease protocol holds");
    assert_eq!(summary.crashes, 1);
    assert_eq!(summary.restarts, 1);
    assert_eq!(summary.applied as u64, summary.tokens as u64);

    // The recovered run trains the same applied-gradient set (same per-worker
    // token totals overall) as the fault-free run.
    let fault_free = fela().run(&scenario(128));
    let total = |r: &fela_metrics::RunReport| {
        (0..8)
            .map(|w| r.counter(&format!("tokens_worker{w}")))
            .sum::<u64>()
    };
    assert_eq!(total(&report), total(&fault_free));
}

#[test]
fn chaos_churn_is_race_free_and_exactly_once() {
    let sc = scenario(128).with_fault(chaos(0.1));
    let (report, trace) = fela().run_traced(&sc);
    assert_eq!(report.iterations, sc.iterations);
    fela_check::check_recovery(&trace).expect("lease protocol holds under churn");
    fela_check::check_trace(&trace, 0).expect("no data races under churn");
}

/// WAL bytes per iteration of a durable VGG19 drive: batch 256 on the
/// 8-node paper testbed, weights 1,2,4, an in-memory log and a checkpoint
/// after every completed iteration. Workers pull round-robin; each grant is
/// reported at once and each sync finishes at once.
fn wal_bytes_per_iteration(iterations: u64) -> f64 {
    let sc = Scenario::paper(zoo::vgg19(), 256).with_iterations(iterations);
    let cfg = FelaConfig::new(3).with_weights(vec![1, 2, 4]);
    let partition = FelaRuntime::new(cfg.clone()).partition_for(&sc);
    let n = sc.cluster.nodes;
    let plan = TokenPlan::build(&partition, &cfg, sc.total_batch, n).expect("plan");
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
    let mut plane = ControlPlane::new(plan, cfg, meta, n, iterations);
    let wal = MemWal::new();
    plane.attach_wal(Box::new(wal.clone())).expect("attach");
    let mut clock = 0u64;
    let mut checkpointed = 0u64;
    while !plane.run_complete() {
        clock += 1_000;
        let now = SimTime::from_nanos(clock);
        let mut batch = Vec::new();
        for w in 0..n {
            if let Some(g) = plane.request(w, now).expect("request") {
                batch.push((w, g.token.id));
            }
        }
        while let Some((w, g)) = plane.pop_ready_grant(now).expect("pop") {
            batch.push((w, g.token.id));
        }
        assert!(!batch.is_empty(), "the drive stalled");
        for (w, id) in batch {
            for s in plane.report(w, id).expect("report") {
                plane.sync_finished(s.level, s.iteration).expect("sync");
            }
            if plane.completed_iterations() > checkpointed {
                checkpointed = plane.completed_iterations();
                plane.checkpoint_wal(&[]).expect("checkpoint");
            }
        }
    }
    wal.len() as f64 / iterations as f64
}

/// WAL growth guard: with a checkpoint every iteration, the log's bytes per
/// iteration stay flat as the run gets four times longer. Checkpoints carry
/// only the live window; when each one carried every token ever minted, the
/// per-iteration cost grew about 3.5x from 50 to 200 iterations.
#[test]
fn wal_bytes_per_iteration_stay_flat_with_run_length() {
    let short = wal_bytes_per_iteration(50);
    let long = wal_bytes_per_iteration(200);
    eprintln!("WAL: {short:.0} bytes/iteration at 50 iterations, {long:.0} at 200");
    assert!(
        long <= 1.2 * short,
        "WAL bytes per iteration grew {:.2}x from 50 to 200 iterations",
        long / short
    );
}
