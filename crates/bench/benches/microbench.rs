//! Criterion micro-benchmarks for the components whose cost the paper argues is
//! "trivial": the simulator kernel, the network fair-share recomputation, the
//! Token Server's grant/report hot path, the analytic compute model and the
//! end-to-end tuner probe.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use fela_cluster::{Scenario, TrainingRuntime};
use fela_core::{ControlPlane, FelaConfig, FelaRuntime, LevelMeta, TokenPlan};
use fela_gpu::ComputeModel;
use fela_model::{bin_partition, zoo, PartitionOptions, ThresholdProfile};
use fela_net::fairshare::{max_min_rates, FlowLinks};
use fela_sim::{Engine, EventQueue, Scheduler, SimDuration, SimTime, World};

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("sim/event_queue_push_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..10_000u64 {
                // Scatter times to exercise heap reordering.
                q.schedule_at(
                    SimTime::from_nanos(i.wrapping_mul(2654435761) % 1_000_000),
                    i,
                );
            }
            let mut sum = 0u64;
            while let Some((_, _, v)) = q.pop_next() {
                sum = sum.wrapping_add(v);
            }
            black_box(sum)
        })
    });
}

struct Chain(u32);
impl World for Chain {
    type Event = ();
    fn handle(&mut self, _now: SimTime, _ev: (), sched: &mut Scheduler<'_, ()>) {
        if self.0 > 0 {
            self.0 -= 1;
            sched.schedule_in(SimDuration::from_nanos(10), ());
        }
    }
}

fn bench_engine_steps(c: &mut Criterion) {
    c.bench_function("sim/engine_100k_events", |b| {
        b.iter(|| {
            let mut engine = Engine::new(Chain(100_000));
            engine.prime(());
            engine.run_to_completion();
            black_box(engine.steps())
        })
    });
}

fn bench_fairshare(c: &mut Criterion) {
    // The paper's 8-node incast-heavy pattern plus background flows.
    let caps = vec![1.25e9f64; 8];
    let flows: Vec<FlowLinks> = (0..64)
        .map(|i| FlowLinks {
            egress: i % 8,
            ingress: (i * 3 + 1) % 8,
        })
        .collect();
    c.bench_function("net/max_min_64_flows_8_nodes", |b| {
        b.iter(|| black_box(max_min_rates(&caps, &caps, &flows)))
    });
}

fn make_plane() -> ControlPlane {
    let partition = bin_partition(
        &zoo::vgg19(),
        &ThresholdProfile::k40c(),
        PartitionOptions::default(),
    );
    let cfg = FelaConfig::new(3).with_weights(vec![1, 2, 4]);
    let plan = TokenPlan::build(&partition, &cfg, 1024, 8).unwrap();
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
    ControlPlane::new(plan, cfg, meta, 8, 1_000_000)
}

fn bench_token_server(c: &mut Criterion) {
    // Grant + report for one full iteration's tokens (the ADS locality-scan hot
    // path the TS runs on every request).
    c.bench_function("core/token_server_one_iteration", |b| {
        b.iter_batched(
            make_plane,
            |mut ts| {
                let mut clock = 0u64;
                let mut done = 0u64;
                let total = ts.plan().tokens_per_iteration();
                let mut active: Vec<(usize, fela_core::Grant)> = Vec::new();
                for w in 0..8 {
                    clock += 100_000;
                    if let Some(g) = ts.request(w, SimTime::from_nanos(clock)).unwrap() {
                        active.push((w, g));
                    }
                }
                while done < total {
                    let (w, g) = active.pop().expect("tokens available");
                    for s in ts.report(w, g.token.id).unwrap() {
                        ts.sync_finished(s.level, s.iteration).unwrap();
                    }
                    done += 1;
                    clock += 100_000;
                    if let Some(g2) = ts.request(w, SimTime::from_nanos(clock)).unwrap() {
                        active.push((w, g2));
                    }
                    while let Some(pair) = ts.pop_ready_grant(SimTime::from_nanos(clock)).unwrap() {
                        active.push(pair);
                    }
                }
                black_box(ts.stats().grants)
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_compute_model(c: &mut Criterion) {
    let cm = ComputeModel::k40c();
    let vgg = zoo::vgg19();
    c.bench_function("gpu/vgg19_model_time", |b| {
        b.iter(|| black_box(cm.model_time(&vgg, black_box(256))))
    });
}

fn bench_partition(c: &mut Criterion) {
    let profile = ThresholdProfile::k40c();
    let resnet = zoo::resnet152();
    c.bench_function("model/bin_partition_resnet152", |b| {
        b.iter(|| {
            black_box(bin_partition(
                &resnet,
                &profile,
                PartitionOptions::default(),
            ))
        })
    });
}

fn bench_full_simulation(c: &mut Criterion) {
    // One 2-iteration Fela run of GoogLeNet — the unit of work the tuner repeats
    // 13 times, so its wall cost bounds the tuner's.
    let scenario = Scenario::paper(zoo::googlenet(), 256).with_iterations(2);
    let runtime = FelaRuntime::new(FelaConfig::new(3).with_weights(vec![1, 1, 2]));
    c.bench_function("e2e/fela_googlenet_2_iterations", |b| {
        b.iter(|| black_box(runtime.run(&scenario).total_time_secs))
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_engine_steps,
    bench_fairshare,
    bench_token_server,
    bench_compute_model,
    bench_partition,
    bench_full_simulation
);
criterion_main!(benches);
