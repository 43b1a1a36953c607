//! `live_throughput` — token-grant throughput of the **real-clock** live
//! runtime (`fela-live`) as the worker count scales 1 → 64, on both
//! transports.
//!
//! Each cell runs the Token Server and `w` worker threads for a fixed AlexNet
//! workload with the modeled compute spans scaled down to real sleeps
//! (`time_scale`), and reports accepted token reports per wall-clock second.
//! More workers sleep their spans concurrently, so throughput scales until
//! the server's poll loop (one thread sweeping every link, batching grants
//! into `GrantBatch` frames) becomes the bottleneck.
//!
//! Each cell is run `k` times (5; 2 in quick mode) and reported as the median
//! with its p10–p90 spread and every sample: one run is a few tens of
//! milliseconds of wall clock, so a single run says little on a shared box.
//!
//! Knobs: `FELA_BENCH_DIR=<dir>` chooses where `BENCH_live_throughput.json`
//! lands (default: the current directory); `FELA_BENCH_QUICK=1` shortens the
//! run for CI smoke.

use fela_cluster::{ClusterSpec, Scenario};
use fela_core::{FelaConfig, FelaRuntime};
use fela_live::{run_real, transport_by_name, RealOptions};
use fela_model::zoo;

/// One measured cell: `k` runs of one configuration.
struct Cell {
    id: String,
    /// Tokens per second of each run, in run order.
    samples: Vec<f64>,
    grants: u64,
}

impl Cell {
    /// The `p`-th percentile (0–100) of the samples, interpolated linearly
    /// between order statistics.
    fn percentile(&self, p: f64) -> f64 {
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = p / 100.0 * (sorted.len() - 1) as f64;
        let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
        sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
    }
}

fn measure(
    transport_name: &str,
    workers: usize,
    iterations: u64,
    time_scale: f64,
    repeats: usize,
) -> Cell {
    let mut scenario = Scenario::paper(zoo::alexnet(), 256).with_iterations(iterations);
    scenario.cluster = ClusterSpec::k40c_cluster(workers);
    let m = FelaRuntime::new(FelaConfig::new(1))
        .partition_for(&scenario)
        .len();
    // SSP staleness keeps several iterations in flight, so each worker has
    // multiple tokens concurrently available — the regime the pipelined
    // `GrantBatch`/`ReportBatch` hot path amortizes. Under BSP (staleness 0)
    // every level is a hard barrier and batches are structurally size 1.
    let config = FelaConfig::new(m).with_staleness(8);
    let mut samples = Vec::with_capacity(repeats);
    let mut grants = 0;
    for _ in 0..repeats {
        let mut transport = transport_by_name(transport_name).expect("known transport");
        let outcome = run_real(
            &config,
            &scenario,
            transport.as_mut(),
            RealOptions {
                time_scale,
                pipeline: 16,
                ..RealOptions::default()
            },
        )
        .expect("live run completes");
        assert_eq!(
            outcome.iterations, iterations,
            "run must finish every iteration"
        );
        samples.push(outcome.tokens_per_sec);
        grants = outcome.grants;
    }
    Cell {
        id: format!("live/{transport_name}_{workers}workers"),
        samples,
        grants,
    }
}

fn main() {
    let quick = std::env::var("FELA_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty());
    let iterations: u64 = if quick { 3 } else { 20 };
    let repeats = if quick { 2 } else { 5 };
    let time_scale = 2e-3;
    let worker_axis: &[usize] = if quick {
        &[1, 8, 64]
    } else {
        &[1, 2, 4, 8, 16, 32, 48, 64]
    };

    let mut cells = Vec::new();
    for transport in ["chan", "tcp"] {
        for &workers in worker_axis {
            let cell = measure(transport, workers, iterations, time_scale, repeats);
            println!(
                "{:<22} {:>10.0} tokens/s  [{:.0}–{:.0}]  ({} grants, {repeats} runs)",
                cell.id,
                cell.percentile(50.0),
                cell.percentile(10.0),
                cell.percentile(90.0),
                cell.grants
            );
            cells.push(cell);
        }
    }

    let mut body = String::new();
    body.push_str("{\n  \"group\": \"live_throughput\",\n");
    body.push_str(&format!("  \"quick\": {quick},\n"));
    body.push_str(&format!(
        "  \"iterations\": {iterations},\n  \"time_scale\": {time_scale},\n"
    ));
    body.push_str("  \"staleness\": 8,\n  \"pipeline\": 16,\n");
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    body.push_str(&format!(
        "  \"repeats\": {repeats},\n  \"nproc\": {nproc},\n"
    ));
    body.push_str("  \"benches\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let comma = if i + 1 < cells.len() { "," } else { "" };
        let samples: Vec<String> = c.samples.iter().map(|x| format!("{x:.1}")).collect();
        body.push_str(&format!(
            "    {{ \"id\": \"{}\", \"median\": {:.1}, \"p10\": {:.1}, \"p90\": {:.1}, \"samples\": [{}], \"grants\": {} }}{comma}\n",
            c.id,
            c.percentile(50.0),
            c.percentile(10.0),
            c.percentile(90.0),
            samples.join(", "),
            c.grants
        ));
    }
    body.push_str("  ]\n}\n");

    let dir = std::env::var("FELA_BENCH_DIR").unwrap_or_else(|_| ".".into());
    let path = std::path::Path::new(&dir).join("BENCH_live_throughput.json");
    std::fs::create_dir_all(&dir).expect("bench dir");
    std::fs::write(&path, body).expect("write bench artifact");
    println!("wrote {}", path.display());
}
