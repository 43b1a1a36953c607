//! Control-plane scaling: `fela-check`'s oracle Token Server — the original
//! single scan-based event loop — versus the production [`ControlPlane`],
//! which serves every pick from ordered indices, at 64 to 8192 simulated
//! workers.
//!
//! Each measurement drives one full BSP iteration of grant/report/sync traffic
//! through the plane — every `request` walks the distribution pick path, every
//! `report` maintains the steal indices — so the number is the pure
//! control-plane cost per iteration with no compute or network model attached.
//! The batch grows with the worker count (`max(1024, W)`) so every worker has
//! level-0 tokens to pull; the schedules produced by both are byte-identical
//! (proved in `tests/tests/shard.rs`), making this a like-for-like cost
//! comparison.
//!
//! `control/plane_skewed_levels_{1000,4000}iters` measures what the BSP
//! drive cannot see: a whole run in which level 0 runs ahead of the deeper
//! levels, whose SSP-gated `pending` backlog then grows with the run. It is
//! reported in ns per token, so a flat pair means a sync's cost follows the
//! tokens it releases rather than the backlog.
//!
//! Run with `FELA_BENCH_DIR=<dir>` to emit `BENCH_control_plane_scaling.json`;
//! `FELA_BENCH_QUICK=1` shortens the measurement for CI smoke runs.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;
use std::time::{Duration, Instant};

use fela_check::TokenServer;
use fela_core::{ControlPlane, FelaConfig, LevelMeta, TokenPlan};
use fela_model::{bin_partition, zoo, PartitionOptions, ThresholdProfile};
use fela_sim::SimTime;

/// Worker counts where both are measured; the batch is scaled along so level
/// 0 always carries at least one token per worker. The oracle stops at 1024:
/// its per-grant steal scan is O(workers), so one iteration already costs
/// seconds there and minutes at 4096 — which is why production runs the
/// indexed plane, but not something a bench run should sit through.
const PAIRED_WORKER_COUNTS: [usize; 3] = [64, 256, 1024];
/// Worker counts measured for the production plane only, past where the
/// oracle is practical.
const PLANE_ONLY_WORKER_COUNTS: [usize; 2] = [4096, 8192];

/// Run lengths of the skewed-level drive.
const SKEWED_ITERATIONS: [u64; 2] = [1000, 4000];
/// Cluster size and SSP staleness of the skewed-level drive (the staleness
/// of the live overhead-only configuration).
const SKEWED_WORKERS: usize = 8;
const SKEWED_STALENESS: u64 = 8;
/// Deeper levels finish their two oldest held syncs once per this many
/// level-0 syncs.
const SKEW_PACE: u64 = 4;

/// The shared inputs: VGG19 on the k40c profile, weights `[1, 2, 4]`.
fn inputs(workers: usize) -> (TokenPlan, FelaConfig, Vec<LevelMeta>) {
    let partition = bin_partition(
        &zoo::vgg19(),
        &ThresholdProfile::k40c(),
        PartitionOptions::default(),
    );
    let cfg = FelaConfig::new(3).with_weights(vec![1, 2, 4]);
    let batch = workers.max(1024) as u64;
    let plan = TokenPlan::build(&partition, &cfg, batch, workers).unwrap();
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
    (plan, cfg, meta)
}

fn make_plane(workers: usize) -> ControlPlane {
    let (plan, cfg, meta) = inputs(workers);
    ControlPlane::new(plan, cfg, meta, workers, 1_000_000)
}

fn make_oracle(workers: usize) -> TokenServer {
    let (plan, cfg, meta) = inputs(workers);
    TokenServer::new(plan, cfg, meta, workers, 1_000_000)
}

/// Grant + report every token of one iteration, exactly like the simulator's
/// control-plane turn: request on idle, report on completion, drain any
/// barrier-released grants. A macro because the oracle and the plane share
/// the API but no trait.
macro_rules! drive_one_iteration {
    ($plane:expr, $workers:expr) => {{
        let mut plane = $plane;
        let mut clock = 0u64;
        let mut done = 0u64;
        let total = plane.plan().tokens_per_iteration();
        let mut active = Vec::new();
        for w in 0..$workers {
            clock += 100_000;
            if let Some(g) = plane.request(w, SimTime::from_nanos(clock)).unwrap() {
                active.push((w, g));
            }
        }
        while done < total {
            let (w, g) = active.pop().expect("tokens available");
            for s in plane.report(w, g.token.id).unwrap() {
                plane.sync_finished(s.level, s.iteration).unwrap();
            }
            done += 1;
            clock += 100_000;
            if let Some(g2) = plane.request(w, SimTime::from_nanos(clock)).unwrap() {
                active.push((w, g2));
            }
            while let Some(pair) = plane.pop_ready_grant(SimTime::from_nanos(clock)).unwrap() {
                active.push(pair);
            }
        }
        plane.stats().grants
    }};
}

/// One whole run with level 0 ahead: worker 0 pulls every grantable token
/// and reports the batch; level-0 syncs finish at once, deeper syncs are
/// held and the two oldest finish once per `SKEW_PACE` level-0 syncs (all of
/// them once nothing is grantable), so the deeper levels lag further as the
/// run goes on. Returns the tokens reported.
fn drive_skewed_run(plane: &mut ControlPlane) -> u64 {
    let mut clock = 0u64;
    let mut held: Vec<(usize, u64)> = Vec::new();
    let mut level0_syncs = 0u64;
    let mut reported = 0u64;
    loop {
        clock += 1_000;
        let now = SimTime::from_nanos(clock);
        let mut batch = Vec::new();
        while let Some(g) = plane.request(0, now).unwrap() {
            batch.push((0, g.token.id));
        }
        while let Some((w, g)) = plane.pop_ready_grant(now).unwrap() {
            batch.push((w, g.token.id));
        }
        if batch.is_empty() {
            if held.is_empty() {
                return reported;
            }
            while let Some((level, iteration)) = held.pop() {
                plane.sync_finished(level, iteration).unwrap();
            }
            continue;
        }
        for (w, id) in batch.into_iter().rev() {
            reported += 1;
            for s in plane.report(w, id).unwrap() {
                if s.level > 0 {
                    held.push((s.level, s.iteration));
                    continue;
                }
                plane.sync_finished(0, s.iteration).unwrap();
                level0_syncs += 1;
                if level0_syncs % SKEW_PACE == 0 {
                    let k = held.len().min(2);
                    for (level, iteration) in held.drain(..k).rev() {
                        plane.sync_finished(level, iteration).unwrap();
                    }
                }
            }
        }
    }
}

/// Total of the per-run ns-per-token figures over `runs` skewed runs, so
/// the shim's per-iteration mean is ns per token.
fn time_skewed_runs(iterations: u64, runs: u64) -> Duration {
    let (plan, _, meta) = inputs(SKEWED_WORKERS);
    let cfg = FelaConfig::new(3)
        .with_weights(vec![1, 2, 4])
        .with_staleness(SKEWED_STALENESS);
    let mut total = Duration::ZERO;
    for _ in 0..runs {
        let mut plane = ControlPlane::new(
            plan.clone(),
            cfg.clone(),
            meta.clone(),
            SKEWED_WORKERS,
            iterations,
        );
        let start = Instant::now();
        let tokens = black_box(drive_skewed_run(&mut plane));
        total += start.elapsed() / tokens as u32;
    }
    total
}

fn bench_control_plane_scaling(c: &mut Criterion) {
    for workers in PAIRED_WORKER_COUNTS {
        c.bench_function(
            &format!("control/oracle_single_loop_{workers}workers"),
            |b| {
                b.iter_batched(
                    || make_oracle(workers),
                    |oracle| black_box(drive_one_iteration!(oracle, workers)),
                    BatchSize::SmallInput,
                )
            },
        );
        c.bench_function(&format!("control/plane_{workers}workers"), |b| {
            b.iter_batched(
                || make_plane(workers),
                |plane| black_box(drive_one_iteration!(plane, workers)),
                BatchSize::SmallInput,
            )
        });
    }
    for workers in PLANE_ONLY_WORKER_COUNTS {
        c.bench_function(&format!("control/plane_{workers}workers"), |b| {
            b.iter_batched(
                || make_plane(workers),
                |plane| black_box(drive_one_iteration!(plane, workers)),
                BatchSize::SmallInput,
            )
        });
    }
    for iterations in SKEWED_ITERATIONS {
        c.bench_function(
            &format!("control/plane_skewed_levels_{iterations}iters"),
            |b| b.iter_custom(|runs| time_skewed_runs(iterations, runs)),
        );
    }
}

criterion_group!(control_plane_scaling, bench_control_plane_scaling);
criterion_main!(control_plane_scaling);
