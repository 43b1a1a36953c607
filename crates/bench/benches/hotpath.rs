//! Hot-path benchmarks for the incremental engines introduced alongside the
//! full-recompute oracles: per-event fair-share updates (full `max_min_rates`
//! vs `IncrementalMaxMin`) at 8–64 nodes, the flow-level network carrying the
//! traffic the paper figures actually generate, and the Token Server's
//! indexed distribution path.
//!
//! The fair-share churn uses rack-local traffic (groups of 8 nodes, 4 flows
//! per node), so the link-sharing graph splits into one connected component
//! of 32 flows per rack. It is a stress regime for the solve itself: a flow
//! start/finish re-runs water-filling over its whole rack, while the full
//! oracle re-walks every link and flow. It is not what the paper figures
//! generate. Over a full figure regeneration the recomputed components
//! average about 1.2 flows, where a recompute costs its bookkeeping, not its
//! solve — so the engine needs no size threshold below which the full oracle
//! wins. `net/ring_allreduce_8nodes` measures that real traffic: one
//! 8-participant ring all-reduce on the paper testbed (14 rounds of 8
//! link-disjoint flows, each round started at one instant and settled once),
//! reported per collective.
//!
//! Run with `FELA_BENCH_DIR=<dir>` to emit `BENCH_fairshare_scaling.json` and
//! `BENCH_distribution.json`; `FELA_BENCH_QUICK=1` shortens the measurement
//! for CI smoke runs.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use fela_core::{ControlPlane, FelaConfig, LevelMeta, TokenPlan};
use fela_model::{bin_partition, zoo, PartitionOptions, ThresholdProfile};
use fela_net::fairshare::{max_min_rates, FlowLinks, IncrementalMaxMin};
use fela_net::{run_allreduce_alone, Network, NetworkConfig, NodeId};
use fela_sim::SimTime;

/// Rack-local flow pattern: `nodes` must be a multiple of 8; each rack of 8
/// nodes carries 32 flows (4 per node) that never leave the rack.
fn rack_local_flows(nodes: usize) -> Vec<FlowLinks> {
    assert!(nodes % 8 == 0);
    let racks = nodes / 8;
    let mut flows = Vec::with_capacity(racks * 32);
    for rack in 0..racks {
        let base = rack * 8;
        for j in 0..32 {
            flows.push(FlowLinks {
                egress: base + j % 8,
                ingress: base + (j * 3 + 1) % 8,
            });
        }
    }
    flows
}

/// One churn schedule shared by both engines: event `e` finishes the flow at
/// slot `e * 7 % flows` and starts a replacement with the same endpoints.
const CHURN_EVENTS: usize = 64;

fn bench_fairshare_scaling(c: &mut Criterion) {
    for nodes in [8usize, 16, 32, 64] {
        let caps = vec![1.25e9f64; nodes];
        let flows = rack_local_flows(nodes);
        let n_flows = flows.len();

        // Baseline: the pre-existing behaviour — every flow start/finish
        // re-runs the full progressive-filling oracle over all links/flows.
        c.bench_function(&format!("net/fairshare_event_full_{nodes}nodes"), |b| {
            b.iter(|| {
                let mut acc = 0.0f64;
                for e in 0..CHURN_EVENTS {
                    // One churn event: a flow finishes and a replacement with
                    // the same endpoints starts, so the flow set is unchanged —
                    // but the full oracle recompute still runs from scratch.
                    let slot = e * 7 % n_flows;
                    let rates = max_min_rates(&caps, &caps, black_box(&flows));
                    acc += rates[slot];
                }
                black_box(acc)
            })
        });

        // Incremental engine: the same churn only recomputes the affected
        // rack's connected component.
        c.bench_function(
            &format!("net/fairshare_event_incremental_{nodes}nodes"),
            |b| {
                b.iter_batched(
                    || {
                        let mut eng = IncrementalMaxMin::new(caps.clone(), caps.clone());
                        for (i, &links) in flows.iter().enumerate() {
                            eng.insert(i as u64, links);
                        }
                        eng
                    },
                    |mut eng| {
                        let mut acc = 0.0f64;
                        let mut slot_keys: Vec<u64> = (0..n_flows as u64).collect();
                        for e in 0..CHURN_EVENTS {
                            let slot = e * 7 % n_flows;
                            let links = flows[slot];
                            let fresh = (n_flows + e) as u64;
                            eng.remove(slot_keys[slot]);
                            eng.insert(fresh, links);
                            slot_keys[slot] = fresh;
                            acc += eng.rate(fresh);
                        }
                        black_box(acc)
                    },
                    BatchSize::SmallInput,
                )
            },
        );
    }
}

fn bench_ring_allreduce(c: &mut Criterion) {
    // 64 MiB of gradients: the payload sets the simulated times, not the work.
    const BYTES: u64 = 64 << 20;
    c.bench_function("net/ring_allreduce_8nodes", |b| {
        b.iter_batched(
            || Network::new(NetworkConfig::paper_testbed(8)),
            |mut net| {
                let ring: Vec<NodeId> = (0..8).map(NodeId).collect();
                black_box(run_allreduce_alone(&mut net, SimTime::ZERO, ring, BYTES))
            },
            BatchSize::SmallInput,
        )
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

fn bench_distribution(c: &mut Criterion) {
    // Grant + report for one full iteration's tokens: every `request` walks the
    // distribution pick path (per-worker score index under ADS+HF), every
    // `report` maintains it.
    c.bench_function("core/distribution_one_iteration", |b| {
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

criterion_group!(
    fairshare_scaling,
    bench_fairshare_scaling,
    bench_ring_allreduce
);
criterion_group!(distribution, bench_distribution);
criterion_main!(fairshare_scaling, distribution);
