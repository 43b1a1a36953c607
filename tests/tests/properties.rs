//! Property-based tests on the workspace's core invariants (proptest).

use fela_cluster::{FaultModel, StragglerModel};
use fela_core::{FelaConfig, TokenPlan};
use fela_engine::{seeded_schedule, EngineNet, SplitPlan, Tensor, TokenExecutor};
use fela_metrics::stats;
use fela_model::{bin_partition, zoo, PartitionOptions, ThresholdProfile};
use fela_net::fairshare::{max_min_rates, FlowLinks, IncrementalMaxMin};
use fela_net::{FlowId, FlowSpec, Network, NetworkConfig, NodeId};
use fela_sim::{EventQueue, SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// A completion or abort list in comparable form: id and every spec field.
fn flow_list(flows: &[(FlowId, FlowSpec)]) -> Vec<(FlowId, NodeId, NodeId, u64, u64)> {
    flows
        .iter()
        .map(|&(id, s)| (id, s.src, s.dst, s.bytes, s.tag))
        .collect()
}

fn pow2_weight() -> impl Strategy<Value = u64> {
    prop_oneof![Just(1u64), Just(2), Just(4), Just(8)]
}

proptest! {
    /// Token plans conserve the batch at every level and their generation ratios
    /// compose exactly.
    #[test]
    fn token_plan_conserves_batch(
        batch_exp in 6u32..12, // 64..=2048
        w2 in pow2_weight(),
        w3 in pow2_weight(),
    ) {
        let total = 1u64 << batch_exp;
        let (w2, w3) = (w2.min(w3), w2.max(w3));
        let p = bin_partition(
            &zoo::vgg19(),
            &ThresholdProfile::k40c(),
            PartitionOptions::default(),
        );
        let cfg = FelaConfig::new(3).with_weights(vec![1, w2, w3]);
        if let Ok(plan) = TokenPlan::build(&p, &cfg, total, 8) {
            for l in &plan.levels {
                prop_assert_eq!(l.batch_per_token * l.tokens_per_iteration, total);
                prop_assert!(l.batch_per_token >= 1);
            }
            let ratio_product: u64 = plan.levels.iter().map(|l| l.gen_ratio).product();
            prop_assert_eq!(
                plan.levels[0].tokens_per_iteration,
                plan.levels.last().unwrap().tokens_per_iteration * ratio_product
            );
            // Tokens per level never increase with depth (w nondecreasing).
            let counts: Vec<u64> =
                plan.levels.iter().map(|l| l.tokens_per_iteration).collect();
            prop_assert!(counts.windows(2).all(|w| w[0] >= w[1]));
        }
    }

    /// Max–min fairness never oversubscribes a link and never starves a flow.
    #[test]
    fn fairshare_feasible_and_positive(
        flows in prop::collection::vec((0usize..6, 0usize..6), 1..24),
    ) {
        let caps = vec![1e9f64; 6];
        let links: Vec<FlowLinks> = flows
            .iter()
            .map(|&(src, dst)| FlowLinks { egress: src, ingress: dst })
            .collect();
        let rates = max_min_rates(&caps, &caps, &links);
        prop_assert_eq!(rates.len(), links.len());
        let mut eg = [0.0f64; 6];
        let mut ing = [0.0f64; 6];
        for (f, r) in links.iter().zip(&rates) {
            prop_assert!(*r > 0.0, "no flow may starve");
            eg[f.egress] += r;
            ing[f.ingress] += r;
        }
        for l in 0..6 {
            prop_assert!(eg[l] <= 1e9 * 1.0001, "egress {} oversubscribed", l);
            prop_assert!(ing[l] <= 1e9 * 1.0001, "ingress {} oversubscribed", l);
        }
    }

    /// Max–min rates are scale-invariant: doubling every capacity doubles every
    /// rate.
    #[test]
    fn fairshare_scales_linearly(
        flows in prop::collection::vec((0usize..4, 0usize..4), 1..12),
    ) {
        let links: Vec<FlowLinks> = flows
            .iter()
            .map(|&(s, d)| FlowLinks { egress: s, ingress: d })
            .collect();
        let r1 = max_min_rates(&[1e9; 4], &[1e9; 4], &links);
        let r2 = max_min_rates(&[2e9; 4], &[2e9; 4], &links);
        for (a, b) in r1.iter().zip(&r2) {
            prop_assert!((b / a - 2.0).abs() < 1e-9);
        }
    }

    /// Bin partitioning covers every unit exactly once for any target count and
    /// preserves total parameters, for every buildable zoo model.
    #[test]
    fn partition_always_tiles(target in 1usize..8, model_idx in 0usize..5) {
        let model = match model_idx {
            0 => zoo::vgg19(),
            1 => zoo::vgg16(),
            2 => zoo::googlenet(),
            3 => zoo::alexnet(),
            _ => zoo::resnet152(),
        };
        let p = bin_partition(
            &model,
            &ThresholdProfile::k40c(),
            PartitionOptions { bin_width: 16, target_max: Some(target) },
        );
        prop_assert!(p.len() <= target.max(1));
        let mut next = 0usize;
        for s in p.sub_models() {
            prop_assert_eq!(s.unit_start, next);
            prop_assert!(s.unit_end > s.unit_start);
            next = s.unit_end;
        }
        prop_assert_eq!(next, model.len());
        prop_assert_eq!(p.total_param_bytes(), model.param_bytes());
    }

    /// The engine's reproducibility theorem, property-tested: any two valid
    /// schedules of any seeded MLP/token split train to bit-identical models.
    #[test]
    fn token_schedules_always_bit_identical(
        net_seed in 0u64..1000,
        sched_a in 0u64..1000,
        sched_b in 0u64..1000,
        tokens0_exp in 0u32..3, // 1, 2, or 4 root tokens
    ) {
        let tokens0 = 1usize << tokens0_exp;
        let net0 = EngineNet::mlp(&[6, 10, 4], net_seed);
        let plan = SplitPlan {
            levels: vec![(0, 2), (2, 3)],
            tokens: vec![tokens0, 1],
        };
        let batch = tokens0 * 2;
        let x = Tensor::seeded(&[batch, 6], net_seed ^ 0xAB, 1.0);
        let t = Tensor::seeded(&[batch, 4], net_seed ^ 0xCD, 1.0);
        let exec = TokenExecutor { plan: plan.clone(), lr: 0.05 };
        let mut a = net0.clone();
        let mut b = net0;
        exec.step(&mut a, &x, &t, &seeded_schedule(&plan, sched_a));
        exec.step(&mut b, &x, &t, &seeded_schedule(&plan, sched_b));
        prop_assert_eq!(a, b);
    }

    /// Normalisation maps any series into [0, 1] with the extremes attained.
    #[test]
    fn normalize_unit_bounds(xs in prop::collection::vec(0.0f64..1e6, 2..40)) {
        let n = stats::normalize_unit(&xs);
        prop_assert_eq!(n.len(), xs.len());
        for v in &n {
            prop_assert!((0.0..=1.0).contains(v));
        }
        let spread = stats::max(&xs).unwrap() - stats::min(&xs).unwrap();
        if spread > 0.0 {
            prop_assert!(n.contains(&0.0));
            prop_assert!(n.contains(&1.0));
        }
    }

    /// Saturation curves are monotone and bounded for arbitrary thresholds.
    #[test]
    fn saturation_curve_monotone(threshold in 1u64..10_000, b1 in 1u64..100_000, b2 in 1u64..100_000) {
        let (lo, hi) = (b1.min(b2), b1.max(b2));
        let f_lo = fela_model::saturation_fraction(lo, threshold);
        let f_hi = fela_model::saturation_fraction(hi, threshold);
        prop_assert!(f_lo <= f_hi + 1e-12);
        prop_assert!((0.0..=1.0).contains(&f_lo));
        prop_assert!((0.0..=1.0).contains(&f_hi));
    }

    /// The incremental fair-share engine stays *bit-identical* to the stateless
    /// oracle over arbitrary star-topology flow churn: random interleavings of
    /// single inserts, single removals, batched removals and mixed
    /// insert/remove batches, checked after every operation against
    /// `max_min_rates` over the surviving flow set in ascending-key order (the
    /// engine's canonical order).
    #[test]
    fn incremental_fairshare_is_bit_identical_to_oracle(
        ops in prop::collection::vec((0usize..5, 0usize..6, 0usize..6, 0usize..64), 1..60),
    ) {
        let caps = vec![1e9f64; 6];
        let mut engine = IncrementalMaxMin::new(caps.clone(), caps.clone());
        let mut mirror: BTreeMap<u64, FlowLinks> = BTreeMap::new();
        let mut next_key = 0u64;
        for (kind, src, dst, sel) in ops {
            let alive: Vec<u64> = mirror.keys().copied().collect();
            match kind {
                // Removal of one flow (when any exist).
                1 if !alive.is_empty() => {
                    let key = alive[sel % alive.len()];
                    engine.remove(key);
                    mirror.remove(&key);
                }
                // Batched removal of up to three flows — a completion wave.
                2 if !alive.is_empty() => {
                    let start = sel % alive.len();
                    let batch: Vec<u64> =
                        alive.iter().copied().cycle().skip(start).take(3.min(alive.len())).collect();
                    let mut batch = batch;
                    batch.sort_unstable();
                    batch.dedup();
                    engine.remove_batch(&batch);
                    for k in &batch {
                        mirror.remove(k);
                    }
                }
                // A mixed batch through the batch entry point: two fresh
                // flows (the second removed again in the same batch when `sel`
                // is odd) and the removal of one live flow — an instant at
                // which flows start, complete and abort together.
                3 => {
                    let fresh = [
                        (next_key, FlowLinks { egress: src, ingress: dst }),
                        (next_key + 1, FlowLinks { egress: dst, ingress: src }),
                    ];
                    next_key += 2;
                    let mut removals = Vec::new();
                    if !alive.is_empty() {
                        removals.push(alive[sel % alive.len()]);
                    }
                    if sel % 2 == 1 {
                        removals.push(fresh[1].0);
                    }
                    engine.apply_batch(&fresh, &removals);
                    for (key, links) in fresh {
                        mirror.insert(key, links);
                    }
                    for key in &removals {
                        mirror.remove(key);
                    }
                }
                // Insert (also the fallback for removal ops on an empty set).
                _ => {
                    let links = FlowLinks { egress: src, ingress: dst };
                    engine.insert(next_key, links);
                    mirror.insert(next_key, links);
                    next_key += 1;
                }
            }
            prop_assert_eq!(engine.len(), mirror.len());
            let flows: Vec<FlowLinks> = mirror.values().copied().collect();
            let expect = max_min_rates(&caps, &caps, &flows);
            let got: Vec<(u64, f64)> = engine.rates().collect();
            prop_assert_eq!(got.len(), expect.len());
            for ((key, rate), (mirror_key, oracle)) in got.iter().zip(mirror.keys().zip(&expect)) {
                prop_assert_eq!(key, mirror_key);
                prop_assert_eq!(
                    rate.to_bits(),
                    oracle.to_bits(),
                    "flow {} diverged: incremental {} vs oracle {}",
                    key,
                    rate,
                    oracle
                );
            }
        }
    }

    /// Settling the network once per instant is invisible: two networks run
    /// one random script of same-instant bursts (starts, including same-node
    /// and zero-byte flows, completion reads, aborts and node failures). The
    /// eager one asks `next_completion` after every mutation; the batched one
    /// asks at most once per instant, and at some instants not at all, so its
    /// staged changes must settle when the clock moves. Every completion
    /// estimate and every completion and abort list must match bit for bit,
    /// and the reported `bytes_delivered` exactly.
    #[test]
    fn same_instant_batching_matches_the_eager_schedule(
        bursts in prop::collection::vec(
            (
                0u64..4,
                prop::collection::vec((0usize..9, 0usize..4, 0usize..4, 0usize..5), 1..7),
                any::<bool>(),
            ),
            1..30,
        ),
    ) {
        let config = NetworkConfig {
            nodes: 4,
            link_bandwidth: 1e9,
            latency: SimDuration::from_micros(50),
        };
        let mut eager = Network::new(config);
        let mut batched = Network::new(config);
        let mut now = SimTime::ZERO;
        for (step, ops, ask) in bursts {
            now = match step {
                // Jump to the next completion, so completion reads find work.
                0 => eager.next_completion().map_or(now, |t| t.max(now)),
                // Another burst at the same instant.
                1 => now,
                _ => now + SimDuration::from_micros(step * 137),
            };
            for (kind, a, b, c) in ops {
                let (got_eager, got_batched) = match kind {
                    0..=4 => {
                        let spec = FlowSpec {
                            src: NodeId(a),
                            dst: NodeId(b),
                            bytes: [0, 1_000, 300_000, 1_000_000, 7_777_777][c],
                            tag: (c % 3) as u64,
                        };
                        prop_assert_eq!(eager.start_flow(now, spec), batched.start_flow(now, spec));
                        (Vec::new(), Vec::new())
                    }
                    5 | 6 => (eager.take_completions(now), batched.take_completions(now)),
                    7 => {
                        let tag = (c % 3) as u64;
                        (
                            eager.abort_matching(now, |s| s.tag == tag),
                            batched.abort_matching(now, |s| s.tag == tag),
                        )
                    }
                    _ => (eager.fail_node(now, NodeId(a)), batched.fail_node(now, NodeId(a))),
                };
                prop_assert_eq!(flow_list(&got_eager), flow_list(&got_batched));
                eager.next_completion();
                prop_assert_eq!(eager.bytes_delivered(), batched.bytes_delivered());
                prop_assert_eq!(eager.active_flows(), batched.active_flows());
            }
            if ask {
                prop_assert_eq!(eager.next_completion(), batched.next_completion());
            }
        }
        // Drain both to the end: every remaining completion must coincide. An
        // estimate the script already stepped past completes at `now`.
        while let Some(t) = eager.next_completion() {
            prop_assert_eq!(Some(t), batched.next_completion());
            now = t.max(now);
            prop_assert_eq!(
                flow_list(&eager.take_completions(now)),
                flow_list(&batched.take_completions(now))
            );
            prop_assert_eq!(eager.bytes_delivered(), batched.bytes_delivered());
        }
        prop_assert_eq!(batched.next_completion(), None);
    }

    /// `StragglerModel::delay_for` is a pure function of `(iteration, worker)`:
    /// re-evaluating any cell yields the same delay, `p` at the extremes is
    /// all-or-nothing, and an empty or overflowed worker range injects nothing.
    #[test]
    fn straggler_delay_is_deterministic_and_edge_exact(
        seed in 0u64..1_000_000_000,
        iteration in 0u64..10_000,
        worker in 0usize..64,
        n_workers in 0usize..64,
        delay_ms in 1u64..60_000,
    ) {
        let delay = fela_sim::SimDuration::from_nanos(delay_ms * 1_000_000);
        for p in [0.0f64, 0.3, 1.0] {
            let m = StragglerModel::Probabilistic { p, delay, seed };
            let first = m.delay_for(iteration, worker, n_workers);
            prop_assert_eq!(first, m.delay_for(iteration, worker, n_workers));
            if worker >= n_workers || n_workers == 0 {
                // Out-of-range workers (and the degenerate empty cluster)
                // never straggle, for any probability.
                prop_assert!(first.is_zero());
            } else if p == 0.0 {
                prop_assert!(first.is_zero());
            } else if p == 1.0 {
                prop_assert_eq!(first, delay);
            }
        }
        // Round-robin slows exactly one in-range worker per iteration, and an
        // empty cluster (n_workers == 0) must not divide by zero.
        let rr = StragglerModel::RoundRobin { delay };
        prop_assert!(rr.delay_for(iteration, worker, 0).is_zero());
        if n_workers > 0 {
            let victims = (0..n_workers)
                .filter(|&w| !rr.delay_for(iteration, w, n_workers).is_zero())
                .count();
            prop_assert_eq!(victims, 1);
        }
    }

    /// `FaultModel` realisations share the purity contract: deterministic per
    /// cell, seed-sensitive, and inert outside the worker range.
    #[test]
    fn fault_model_is_deterministic_and_range_safe(
        seed in 0u64..1_000_000_000,
        iteration in 0u64..10_000,
        worker in 0usize..64,
        n_workers in 0usize..64,
    ) {
        let down = fela_sim::SimDuration::from_secs(5);
        for p in [0.0f64, 0.5, 1.0] {
            let m = FaultModel::Chaos { p, down, seed };
            let first = m.fault_for(iteration, worker, n_workers);
            prop_assert_eq!(first, m.fault_for(iteration, worker, n_workers));
            if worker >= n_workers || p == 0.0 {
                prop_assert_eq!(first, None);
            } else if p == 1.0 {
                prop_assert!(first.is_some());
            }
        }
    }

    /// `EventQueue` stays consistent with a reference model under random
    /// schedule / cancel / pop / peek interleavings — including cancels of ids
    /// that already fired or were already cancelled (the tombstone-leak
    /// regression), and regardless of when compaction strikes.
    #[test]
    fn event_queue_consistent_under_random_cancels(
        ops in prop::collection::vec((0usize..4, 0u64..100, 0usize..128), 1..200),
    ) {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut model: BTreeSet<(SimTime, fela_sim::EventId)> = BTreeSet::new();
        let mut issued: Vec<fela_sim::EventId> = Vec::new();
        for (kind, time, sel) in ops {
            match kind {
                0 => {
                    let t = SimTime::from_nanos(time);
                    let id = q.schedule_at(t, time);
                    model.insert((t, id));
                    issued.push(id);
                }
                1 if !issued.is_empty() => {
                    // May hit a live, fired, or already-cancelled id.
                    let id = issued[sel % issued.len()];
                    let was_live = model.iter().any(|&(_, i)| i == id);
                    let cancelled = q.cancel(id);
                    prop_assert_eq!(cancelled, was_live);
                    model.retain(|&(_, i)| i != id);
                }
                2 => {
                    let expect = model.iter().next().copied();
                    match (q.pop_next(), expect) {
                        (Some((t, id, payload)), Some((et, eid))) => {
                            prop_assert_eq!(t, et);
                            prop_assert_eq!(id, eid);
                            prop_assert_eq!(SimTime::from_nanos(payload), t);
                            model.remove(&(et, eid));
                        }
                        (None, None) => {}
                        (got, want) => {
                            prop_assert!(
                                false,
                                "pop mismatch: got {:?}, want {:?}",
                                got.map(|(t, i, _)| (t, i)),
                                want
                            );
                        }
                    }
                }
                _ => {
                    prop_assert_eq!(q.peek_time(), model.iter().next().map(|&(t, _)| t));
                }
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.is_empty(), model.is_empty());
        }
    }
}
