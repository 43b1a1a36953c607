//! `fela` — command-line front end to the Fela reproduction.
//!
//! ```text
//! fela run --model vgg19 --batch 256 --iters 100 --weights 1,2,4 --ctd 2
//! fela tune --model googlenet --batch 512
//! fela compare --model vgg19 --batch 256 --straggler round-robin:6
//! fela models
//! ```

mod args;

use args::{CheckArgs, Command, CommonArgs, LiveArgs, RunArgs, HELP};
use fela_baselines::{DpRuntime, HpRuntime, MpRuntime};
use fela_cluster::{ClusterSpec, Scenario, TrainingRuntime};
use fela_core::{FelaConfig, FelaRuntime};
use fela_harness::SweepSpec;
use fela_metrics::{f2, format_speedup, RunReport, Table};
use fela_model::zoo;
use fela_tuning::Tuner;
use std::process::ExitCode;

/// The worker-thread count for a command: `--jobs`, else `FELA_JOBS`/auto.
/// A malformed `FELA_JOBS` (e.g. `0`) is a user-facing error, not a clamp.
fn jobs_from(common: &CommonArgs) -> Result<usize, String> {
    args::resolve_jobs(common.jobs).map_err(|e| e.to_string())
}

fn model_by_cli_name(name: &str) -> Option<fela_model::Model> {
    let canonical = match name.to_ascii_lowercase().as_str() {
        "vgg19" => "VGG19",
        "vgg16" => "VGG16",
        "googlenet" => "GoogleNet",
        "alexnet" => "AlexNet",
        "lenet-5" | "lenet5" | "lenet" => "LeNet-5",
        "zf-net" | "zfnet" => "ZF Net",
        "resnet-152" | "resnet152" => "ResNet-152",
        _ => return None,
    };
    zoo::build_by_name(canonical)
}

/// Control-plane durability options from the shared `--wal-dir` /
/// `--checkpoint-every` flags; `None` when neither was given (the runtimes
/// then attach an in-memory WAL only if a server fault demands one).
fn durability_from(common: &CommonArgs) -> Option<fela_core::DurabilityOptions> {
    if common.wal_dir.is_none() && common.checkpoint_every.is_none() {
        return None;
    }
    Some(fela_core::DurabilityOptions {
        wal_dir: common.wal_dir.as_ref().map(std::path::PathBuf::from),
        checkpoint_every: common.checkpoint_every.unwrap_or(1),
    })
}

fn scenario_from(common: &CommonArgs) -> Result<Scenario, String> {
    let model = model_by_cli_name(&common.model)
        .ok_or_else(|| format!("unknown model '{}' (try 'fela models')", common.model))?;
    let mut sc = Scenario::paper(model, common.batch).with_iterations(common.iters);
    if common.nodes != 8 {
        sc.cluster = ClusterSpec::k40c_cluster(common.nodes);
    }
    sc.straggler = common.straggler;
    sc.fault = common.fault;
    sc.resize = args::resolve_resize(&common.resize).map_err(|e| e.to_string())?;
    if let Some(seed) = common.seed {
        sc.straggler = sc.straggler.with_seed(seed);
        sc.fault = sc.fault.with_seed(seed);
        sc.resize = sc.resize.with_seed(seed);
    }
    Ok(sc)
}

fn cmd_models() {
    let mut table = Table::new(
        "Model zoo (Table I)",
        &["name", "year", "layers", "params", "fwd GFLOP/sample"],
    );
    for info in zoo::TABLE_I {
        let built = zoo::build_by_name(info.name);
        table.row(vec![
            info.name.to_owned(),
            info.year.to_string(),
            info.layer_number.to_string(),
            built
                .as_ref()
                .map(|m| m.param_count().to_string())
                .unwrap_or_else(|| "(metadata only)".into()),
            built
                .as_ref()
                .map(|m| format!("{:.2}", m.forward_flops() as f64 / 1e9))
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    print!("{}", table.render());
}

/// `fela run --resize …`: the elastic path. The controller re-bins and
/// re-tunes at every boundary, so per-epoch weights are chosen online —
/// explicit `--weights`/`--ctd` would contradict that and are rejected.
fn cmd_run_elastic(run: &RunArgs, sc: &Scenario) -> Result<(), String> {
    if run.weights.is_some() || run.ctd.is_some() {
        return Err(
            "--weights/--ctd cannot combine with --resize: the elastic controller \
             re-tunes the configuration at every resize boundary"
                .into(),
        );
    }
    let runtime = fela_elastic::ElasticRuntime::new(fela_elastic::ElasticOptions::default());
    let outcome = runtime.run_elastic(sc).map_err(|e| e.to_string())?;
    if run.json {
        #[derive(serde::Serialize)]
        struct ElasticRunPayload {
            report: RunReport,
            epochs: Vec<fela_elastic::EpochSummary>,
        }
        let payload = ElasticRunPayload {
            report: outcome.report.clone(),
            epochs: outcome
                .plan
                .epochs
                .iter()
                .map(fela_elastic::EpochPlan::summary)
                .collect(),
        };
        println!(
            "{}",
            serde_json::to_string_pretty(&payload).map_err(|e| e.to_string())?
        );
        return Ok(());
    }
    let mut epochs = Table::new(
        format!(
            "Fela elastic — {} @ batch {}, {} iterations, {} resize(s)",
            sc.model.name,
            sc.total_batch,
            sc.iterations,
            outcome.plan.resizes()
        ),
        &[
            "epoch",
            "from iter",
            "iters",
            "workers",
            "batch",
            "weights",
            "profiled",
            "reused",
            "transition (s)",
        ],
    );
    for e in &outcome.plan.epochs {
        let s = e.summary();
        epochs.row(vec![
            s.index.to_string(),
            s.start_iteration.to_string(),
            s.iterations.to_string(),
            s.n_workers.to_string(),
            s.total_batch.to_string(),
            format!("{:?}", s.weights),
            s.retune_profiled.to_string(),
            s.retune_reused.to_string(),
            f2(s.transition_secs),
        ]);
    }
    print!("{}", epochs.render());
    let report = &outcome.report;
    let mut table = Table::new("Stitched run", &["metric", "value"]);
    table.row(vec![
        "total time (s, incl. transitions)".into(),
        f2(report.total_time_secs),
    ]);
    table.row(vec![
        "transition overhead (s)".into(),
        f2(outcome.plan.total_transition_secs),
    ]);
    table.row(vec![
        "throughput (samples/s)".into(),
        f2(report.average_throughput()),
    ]);
    table.row(vec![
        "samples trained".into(),
        report.counter("elastic_samples").to_string(),
    ]);
    table.row(vec![
        "join / leave events".into(),
        format!(
            "{} / {}",
            report.counter("elastic_joins"),
            report.counter("elastic_leaves")
        ),
    ]);
    table.row(vec![
        "retune cases profiled / reused".into(),
        format!(
            "{} / {}",
            report.counter("elastic_retune_profiled"),
            report.counter("elastic_retune_reused")
        ),
    ]);
    print!("{}", table.render());
    Ok(())
}

fn cmd_run(run: &RunArgs) -> Result<(), String> {
    let sc = scenario_from(&run.common)?;
    if !sc.resize.is_none() {
        return cmd_run_elastic(run, &sc);
    }
    let m = {
        let probe = FelaRuntime::new(FelaConfig::new(1));
        probe.partition_for(&sc).len()
    };
    let mut config = match &run.weights {
        Some(w) => {
            if w.len() != m {
                return Err(format!(
                    "--weights needs {m} entries for this model's partition, got {}",
                    w.len()
                ));
            }
            FelaConfig::new(m).with_weights(w.clone())
        }
        None => {
            eprintln!("no --weights given: running the two-phase tuner first…");
            Tuner::default()
                .tune_with_jobs(&sc, jobs_from(&run.common)?)
                .best_config
        }
    };
    if let Some(ctd) = run.ctd {
        config = config.with_ctd(ctd);
    }
    config = config
        .with_staleness(run.staleness)
        .with_pipelining(!run.no_pipelining);
    config.validate(sc.cluster.nodes);

    let mut runtime = FelaRuntime::new(config.clone());
    if let Some(d) = durability_from(&run.common) {
        runtime = runtime.with_durability(d);
    }
    let report = runtime.run(&sc);
    if run.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
        );
        return Ok(());
    }
    let mut table = Table::new(
        format!(
            "Fela — {} @ batch {}, {} iterations, {} nodes",
            sc.model.name, sc.total_batch, sc.iterations, sc.cluster.nodes
        ),
        &["metric", "value"],
    );
    table.row(vec!["weights".into(), format!("{:?}", config.weights)]);
    table.row(vec![
        "CTD subset".into(),
        config
            .ctd
            .map(|c| c.subset_size.to_string())
            .unwrap_or_else(|| "off".into()),
    ]);
    table.row(vec![
        "throughput (samples/s)".into(),
        f2(report.average_throughput()),
    ]);
    table.row(vec!["total time (s)".into(), f2(report.total_time_secs)]);
    table.row(vec![
        "mean iteration (s)".into(),
        f2(report.mean_iteration_secs()),
    ]);
    table.row(vec![
        "GPU utilisation".into(),
        f2(report.mean_utilization()),
    ]);
    table.row(vec![
        "network traffic (GB)".into(),
        f2(report.network_bytes as f64 / 1e9),
    ]);
    table.row(vec![
        "tokens granted".into(),
        report.counter("grants").to_string(),
    ]);
    table.row(vec![
        "helper steals".into(),
        report.counter("steals").to_string(),
    ]);
    table.row(vec![
        "lock conflicts".into(),
        report.counter("conflicts").to_string(),
    ]);
    if !sc.fault.is_none() {
        for (label, key) in [
            ("crashes", "crashes"),
            ("restarts", "restarts"),
            ("leases revoked", "revocations"),
            ("stale reports", "stale_reports"),
            ("workers quarantined", "quarantined"),
            ("server crashes", "server_crashes"),
            ("server restarts", "server_restarts"),
        ] {
            table.row(vec![label.into(), report.counter(key).to_string()]);
        }
    }
    print!("{}", table.render());
    Ok(())
}

fn cmd_tune(common: &CommonArgs) -> Result<(), String> {
    let sc = scenario_from(common)?;
    if !sc.resize.is_none() {
        return Err("tune works on a fixed membership; for resized runs use \
             'fela run --resize …' (the elastic controller re-tunes per epoch)"
            .into());
    }
    let outcome = Tuner::default().tune_with_jobs(&sc, jobs_from(common)?);
    let mut table = Table::new(
        format!("Tuning {} @ batch {}", sc.model.name, sc.total_batch),
        &[
            "case",
            "phase",
            "weights",
            "CTD subset",
            "per-iteration (s)",
        ],
    );
    for c in &outcome.cases {
        table.row(vec![
            c.case.id.to_string(),
            c.case.phase.to_string(),
            format!("{:?}", c.case.weights),
            c.case
                .subset
                .map(|s| s.to_string())
                .unwrap_or_else(|| "off".into()),
            c.per_iteration_secs
                .map(|t| format!("{t:.3}"))
                .unwrap_or_else(|| "infeasible".into()),
        ]);
    }
    print!("{}", table.render());
    let best = &outcome.cases[outcome.best].case;
    println!(
        "winner: weights {:?}, CTD subset {} — rerun with:\n  fela run --model {} --batch {} --weights {}{}",
        best.weights,
        best.subset.map(|s| s.to_string()).unwrap_or_else(|| "off".into()),
        common.model,
        common.batch,
        best.weights
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(","),
        best.subset
            .map(|s| format!(" --ctd {s}"))
            .unwrap_or_default()
    );
    Ok(())
}

fn cmd_compare(common: &CommonArgs) -> Result<(), String> {
    let sc = scenario_from(common)?;
    let jobs = jobs_from(common)?;
    let scenario_label = format!("{}/b{}", sc.model.name, sc.total_batch);
    let result = if sc.resize.is_none() {
        eprintln!("tuning Fela first…");
        let fela_config = Tuner::default().tune_with_jobs(&sc, jobs).best_config;

        // One harness sweep: four runtimes × this scenario. Labels come from
        // each runtime's own name() so reports and artifacts agree with the
        // runtimes.
        let fela = FelaRuntime::new(fela_config);
        SweepSpec::new("compare")
            .runtime_factory(fela.name(), fela_harness::sweep::share_runtime(fela))
            .runtime(DpRuntime::default().name(), |_| {
                Box::new(DpRuntime::default())
            })
            .runtime(MpRuntime::default().name(), |_| {
                Box::new(MpRuntime::default())
            })
            .runtime(HpRuntime.name(), |_| Box::new(HpRuntime))
            .scenario(scenario_label.clone(), sc.clone())
            .with_seed(common.seed)
            .run(jobs)
    } else {
        // Elastic comparison: Fela re-tunes and keeps training across each
        // boundary; the baselines stop the job and relaunch it at the new
        // membership. Each runtime tunes per epoch internally, so no
        // up-front tuning pass.
        use fela_elastic::{ElasticOptions, ElasticRuntime, StopRestartRuntime};
        ElasticRuntime::new(ElasticOptions::default())
            .plan(&sc)
            .map_err(|e| e.to_string())?;
        SweepSpec::new("compare-elastic")
            .runtime("fela-elastic", |_| {
                Box::new(ElasticRuntime::new(ElasticOptions::default()))
            })
            .runtime("dp-restart", |_| {
                Box::new(StopRestartRuntime::new(DpRuntime::default(), "dp-restart"))
            })
            .runtime("hp-restart", |_| {
                Box::new(StopRestartRuntime::new(HpRuntime, "hp-restart"))
            })
            .scenario(scenario_label.clone(), sc.clone())
            .with_seed(common.seed)
            .run(jobs)
    };
    let fela_label = if sc.resize.is_none() {
        FelaRuntime::new(FelaConfig::new(1)).name()
    } else {
        "fela-elastic"
    };
    let dir = args::resolve_results_dir(common.results_dir.as_deref());
    if let Err(e) = result.write_artifacts_to(&dir) {
        eprintln!("warning: cannot write compare artifacts: {e}");
    }

    let mut table = Table::new(
        format!(
            "{} @ batch {}, {} iterations{}",
            sc.model.name,
            sc.total_batch,
            sc.iterations,
            match (sc.straggler.is_none(), sc.fault.is_none()) {
                (true, true) => "",
                (false, true) => " (stragglers injected)",
                (true, false) => " (faults injected)",
                (false, false) => " (stragglers + faults injected)",
            }
        ),
        &[
            "runtime",
            "samples/s",
            "GPU util",
            "wire GB",
            "Fela speedup",
        ],
    );
    let fela_at = result
        .report(fela_label, &scenario_label)
        .average_throughput();
    for record in &result.records {
        let report = &record.report;
        table.row(vec![
            record.runtime.clone(),
            f2(report.average_throughput()),
            f2(report.mean_utilization()),
            f2(report.network_bytes as f64 / 1e9),
            if record.runtime == fela_label {
                "-".into()
            } else {
                format_speedup(fela_at / report.average_throughput())
            },
        ]);
    }
    print!("{}", table.render());
    Ok(())
}

/// `fela live`: run the Token Server and workers as real OS threads over the
/// wire protocol, then record the outcome as a [`fela_harness::RunRecord`].
fn cmd_live(live: &LiveArgs) -> Result<(), String> {
    let mut common = live.common.clone();
    if let Some(workers) = live.workers {
        common.nodes = workers;
    }
    let sc = scenario_from(&common)?;
    if !sc.resize.is_none() {
        return cmd_live_elastic(live, &common, &sc);
    }
    let m = {
        let probe = FelaRuntime::new(FelaConfig::new(1));
        probe.partition_for(&sc).len()
    };
    let config = match &live.weights {
        Some(w) => {
            if w.len() != m {
                return Err(format!(
                    "--weights needs {m} entries for this model's partition, got {}",
                    w.len()
                ));
            }
            FelaConfig::new(m).with_weights(w.clone())
        }
        None => FelaConfig::new(m),
    };
    config.validate(sc.cluster.nodes);
    let mut transport = fela_live::transport_by_name(&live.transport)
        .ok_or_else(|| format!("unknown transport '{}'", live.transport))?;

    let scenario_label = format!("{}/b{}", sc.model.name, sc.total_batch);
    let durability = durability_from(&common);
    let mut extra_rows: Vec<(String, String)> = Vec::new();
    let (runtime_label, report) = if live.mode == "virtual" {
        if durability.is_some() {
            eprintln!("warning: --wal-dir/--checkpoint-every only apply to --mode real; ignored");
        }
        let outcome = fela_live::run_virtual(&config, &sc, transport.as_mut())
            .map_err(|e| format!("live run failed: {e}"))?;
        let label = format!("fela-live:virtual:{}", outcome.transport);
        extra_rows.push((
            "conformance".into(),
            "trace + report byte-identical to the simulator".into(),
        ));
        extra_rows.push((
            "replica params".into(),
            format!("{} bytes, all workers agree", outcome.params.len()),
        ));
        (label, outcome.report)
    } else {
        let opts = fela_live::RealOptions {
            time_scale: live.time_scale,
            ..fela_live::RealOptions::default()
        };
        let outcome = match &durability {
            Some(d) => fela_live::run_real_durable(&config, &sc, transport.as_mut(), opts, d),
            None => fela_live::run_real(&config, &sc, transport.as_mut(), opts),
        }
        .map_err(|e| format!("live run failed: {e}"))?;
        let label = format!("fela-live:real:{}", outcome.transport);
        // Real-clock runs measure the wall clock, so the report carries real
        // seconds — unlike simulator records, which are virtual-time only.
        let mut report = RunReport::new(label.clone(), sc.model.name.clone(), sc.total_batch);
        report.iterations = outcome.iterations;
        report.total_time_secs = outcome.elapsed_secs;
        report.bump("grants", outcome.grants);
        report.bump("stale_reports", outcome.stale_reports);
        report.bump("crashes", outcome.crashes);
        report.bump("restarts", outcome.restarts);
        report.bump("revocations", outcome.revocations);
        report.bump("server_crashes", outcome.server_crashes);
        report.bump("server_restarts", outcome.server_restarts);
        for (w, trained) in outcome.trained_per_worker.iter().enumerate() {
            report.bump(&format!("trained_worker_{w}"), *trained);
        }
        extra_rows.push((
            "token throughput".into(),
            format!("{:.0} tokens/s (wall clock)", outcome.tokens_per_sec),
        ));
        extra_rows.push((
            "replica params".into(),
            format!("{} bytes, all workers agree", outcome.params.len()),
        ));
        (label, report)
    };

    let record = fela_harness::RunRecord::new(
        "live",
        &runtime_label,
        &scenario_label,
        &sc,
        common.seed,
        report.clone(),
    );
    let dir = args::resolve_results_dir(common.results_dir.as_deref());
    match fela_harness::write_jsonl_to(&dir, "live", std::slice::from_ref(&record)) {
        Ok(path) => eprintln!("[live] 1 run -> {}", path.display()),
        Err(e) => eprintln!("warning: cannot write live artifacts: {e}"),
    }

    if live.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&record).map_err(|e| e.to_string())?
        );
        return Ok(());
    }
    let mut table = Table::new(
        format!(
            "fela live — {} @ batch {}, {} iterations, {} workers",
            sc.model.name, sc.total_batch, sc.iterations, sc.cluster.nodes
        ),
        &["metric", "value"],
    );
    table.row(vec!["runtime".into(), runtime_label]);
    table.row(vec!["transport".into(), live.transport.clone()]);
    table.row(vec!["mode".into(), live.mode.clone()]);
    table.row(vec!["weights".into(), format!("{:?}", config.weights)]);
    table.row(vec![
        if live.mode == "virtual" {
            "simulated time (s)".into()
        } else {
            "wall time (s)".into()
        },
        f2(report.total_time_secs),
    ]);
    table.row(vec![
        "tokens granted".into(),
        report.counter("grants").to_string(),
    ]);
    if !sc.fault.is_none() {
        for key in [
            "crashes",
            "restarts",
            "revocations",
            "stale_reports",
            "server_crashes",
            "server_restarts",
        ] {
            table.row(vec![key.into(), report.counter(key).to_string()]);
        }
    }
    for (k, v) in extra_rows {
        table.row(vec![k, v]);
    }
    print!("{}", table.render());
    Ok(())
}

/// `fela live --resize …`: each epoch runs as its own live session over a
/// fresh transport — joiners genuinely perform the `Hello` handshake when
/// their epoch begins, leavers drain through the epoch's `End` epilogue. The
/// stitched report is byte-identical to the simulated elastic run, so only
/// virtual-clock mode is supported.
fn cmd_live_elastic(live: &LiveArgs, common: &CommonArgs, sc: &Scenario) -> Result<(), String> {
    if live.mode != "virtual" {
        return Err(
            "--resize with 'fela live' supports --mode virtual only (per-epoch \
             sessions conform to the simulator bytewise)"
                .into(),
        );
    }
    if live.weights.is_some() {
        return Err(
            "--weights cannot combine with --resize: the elastic controller \
             re-tunes the configuration at every resize boundary"
                .into(),
        );
    }
    let outcome = fela_elastic::run_live_elastic(
        fela_elastic::ElasticOptions::default(),
        sc,
        &live.transport,
    )
    .map_err(|e| format!("live elastic run failed: {e}"))?;
    let runtime_label = format!("fela-live-elastic:virtual:{}", live.transport);
    let scenario_label = format!("{}/b{}", sc.model.name, sc.total_batch);
    let record = fela_harness::RunRecord::new(
        "live",
        &runtime_label,
        &scenario_label,
        sc,
        common.seed,
        outcome.report.clone(),
    );
    let dir = args::resolve_results_dir(common.results_dir.as_deref());
    match fela_harness::write_jsonl_to(&dir, "live", std::slice::from_ref(&record)) {
        Ok(path) => eprintln!("[live] 1 run -> {}", path.display()),
        Err(e) => eprintln!("warning: cannot write live artifacts: {e}"),
    }
    if live.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&record).map_err(|e| e.to_string())?
        );
        return Ok(());
    }
    let mut table = Table::new(
        format!(
            "fela live elastic — {} @ batch {}, {} iterations, {} epoch(s)",
            sc.model.name,
            sc.total_batch,
            sc.iterations,
            outcome.plan.epochs.len()
        ),
        &["metric", "value"],
    );
    table.row(vec!["runtime".into(), runtime_label]);
    table.row(vec!["transport".into(), live.transport.clone()]);
    table.row(vec![
        "simulated time (s, incl. transitions)".into(),
        f2(outcome.report.total_time_secs),
    ]);
    table.row(vec!["resizes".into(), outcome.plan.resizes().to_string()]);
    table.row(vec![
        "join / leave events".into(),
        format!(
            "{} / {}",
            outcome.report.counter("elastic_joins"),
            outcome.report.counter("elastic_leaves")
        ),
    ]);
    table.row(vec![
        "conformance".into(),
        "stitched report byte-identical to the simulated elastic run".into(),
    ]);
    print!("{}", table.render());
    Ok(())
}

/// Maps a `--policy` preset onto a configuration (weights applied separately).
fn policy_config(policy: &str, m: usize, nodes: usize, ctd: Option<usize>) -> FelaConfig {
    let base = FelaConfig::new(m);
    match policy {
        "none" => base.with_ads(false).with_hf(false),
        "ads" => base.with_hf(false),
        "hf" => base.with_ads(false),
        "ctd" => {
            // Default subset: the largest power of two ≤ half the cluster.
            let subset = ctd.unwrap_or_else(|| {
                let half = (nodes / 2).max(1);
                1 << (usize::BITS - 1 - half.leading_zeros())
            });
            base.with_ctd(subset)
        }
        _ => base,
    }
}

fn cmd_check(check: &CheckArgs) -> Result<(), String> {
    if check.elastic {
        return cmd_check_elastic();
    }
    if check.wal {
        return cmd_check_wal();
    }
    if check.mc || check.protocol {
        return cmd_check_mc(check);
    }
    if check.all {
        return cmd_check_all(check);
    }
    let sc = scenario_from(&check.common)?;
    let partition = FelaRuntime::new(FelaConfig::new(1)).partition_for(&sc);
    let m = partition.len();
    let nodes = sc.cluster.nodes;
    let weight_sets: Vec<Vec<u64>> = match &check.weights {
        Some(w) => {
            if w.len() != m {
                return Err(format!(
                    "--weights needs {m} entries for this model's partition, got {}",
                    w.len()
                ));
            }
            vec![w.clone()]
        }
        None => fela_tuning::phase1_candidates(m, nodes),
    };

    let mut table = Table::new(
        format!(
            "Schedule verification — {} @ batch {}, {} iterations, {} nodes, policy {}",
            sc.model.name, sc.total_batch, sc.iterations, nodes, check.policy
        ),
        &["weights", "tokens", "edges", "verdict"],
    );
    let mut failures = 0usize;
    let mut traced_cfg: Option<FelaConfig> = None;
    for w in &weight_sets {
        let cfg = policy_config(&check.policy, m, nodes, check.ctd)
            .with_weights(w.clone())
            .with_staleness(check.staleness);
        cfg.validate(nodes);
        match fela_check::verify_config(&partition, &cfg, sc.total_batch, nodes, sc.iterations) {
            Ok(summary) => {
                table.row(vec![
                    format!("{w:?}"),
                    summary.train_tokens.to_string(),
                    summary.edges.to_string(),
                    "ok".into(),
                ]);
                if traced_cfg.is_none() {
                    traced_cfg = Some(cfg);
                }
            }
            Err(fela_check::CheckError::Plan(e)) => {
                table.row(vec![
                    format!("{w:?}"),
                    "-".into(),
                    "-".into(),
                    format!("infeasible: {e}"),
                ]);
            }
            Err(fela_check::CheckError::Dag(violations)) => {
                failures += violations.len();
                table.row(vec![
                    format!("{w:?}"),
                    "-".into(),
                    "-".into(),
                    format!("{} violation(s)", violations.len()),
                ]);
                for v in &violations {
                    eprintln!("  {w:?}: {v}");
                }
            }
        }
    }
    print!("{}", table.render());

    // Dynamic half: trace a real run under the first feasible config, then
    // race-check its happens-before order and replay its lease protocol.
    if let Some(cfg) = traced_cfg {
        let (_, trace) = FelaRuntime::new(cfg).run_traced(&sc);
        match fela_check::check_trace(&trace, check.staleness) {
            Ok(s) => println!(
                "race check: {} events ({} grants, {} completions, {} commits, {} revocations) across {} processes — clean",
                s.events, s.grants, s.completions, s.commits, s.revocations, s.processes
            ),
            Err(violations) => {
                for v in &violations {
                    eprintln!("race: {v}");
                }
                return Err(format!(
                    "{} happens-before violation(s) in the traced run",
                    violations.len()
                ));
            }
        }
        match fela_check::check_recovery(&trace) {
            Ok(s) => println!(
                "recovery check: {} tokens, {} applied, {} discarded, {} revocations, {} crashes — exactly-once",
                s.tokens, s.applied, s.discarded, s.revocations, s.crashes
            ),
            Err(violations) => {
                for v in &violations {
                    eprintln!("recovery: {v}");
                }
                return Err(format!(
                    "{} lease-protocol violation(s) in the traced run",
                    violations.len()
                ));
            }
        }
    } else {
        println!("race and recovery checks skipped: no feasible configuration to trace");
    }
    if failures > 0 {
        return Err(format!("{failures} schedule invariant violation(s)"));
    }
    Ok(())
}

/// `fela check --mc [--protocol]`: the live-runtime model checker and frame
/// protocol verifier. `--mc` exhaustively explores every non-equivalent
/// message-delivery / lease-fire interleaving of small clusters (with and
/// without the lease-expiry adversary), checks deadlock-freedom,
/// lost-wakeup-freedom and exactly-once token application, proves per-op
/// linearizability against the oracle `TokenServer` and that the production
/// plane's state graph equals the oracle's explored alone, and runs the seeded-mutation matrix expecting every mutation caught with a
/// distinct diagnostic. `--protocol` replays recorded executions — both the
/// model checker's deterministic schedule and a real threaded virtual-clock
/// run under `RecordingSched` — through the per-link frame-session verifier.
fn cmd_check_mc(check: &CheckArgs) -> Result<(), String> {
    let mut failures = 0usize;

    if check.mc {
        type Explore = fn(&fela_check::McConfig) -> fela_check::McOutcome;
        let sweep: Vec<(&str, fela_check::McConfig, Explore)> = vec![
            (
                "oracle alone 2w×2i",
                fela_check::McConfig::small(),
                fela_check::model_check_oracle,
            ),
            (
                "2w×2i vs oracle",
                fela_check::McConfig::small(),
                fela_check::model_check,
            ),
            (
                "+ lease adversary",
                fela_check::McConfig::small().with_recovery(),
                fela_check::model_check,
            ),
            (
                "3 workers × 1i",
                {
                    let mut cfg = fela_check::McConfig::small();
                    cfg.workers = 3;
                    cfg.iterations = 1;
                    cfg
                },
                fela_check::model_check,
            ),
        ];
        let mut table = Table::new(
            "Model checking — exhaustive interleaving exploration of the live runtime",
            &[
                "config",
                "states",
                "transitions",
                "terminals",
                "deepest",
                "fires",
                "stale",
                "verdict",
            ],
        );
        let mut graphs = Vec::new();
        for (name, cfg, explore) in &sweep {
            let outcome = explore(cfg);
            graphs.push((outcome.states, outcome.transitions, outcome.terminals));
            table.row(vec![
                (*name).into(),
                outcome.states.to_string(),
                outcome.transitions.to_string(),
                outcome.terminals.to_string(),
                outcome.deepest.to_string(),
                outcome.lease_fires.to_string(),
                outcome.stale_reports.to_string(),
                if outcome.ok() {
                    "ok".into()
                } else if outcome.truncated {
                    "truncated".into()
                } else {
                    format!("{} violation(s)", outcome.violations.len())
                },
            ]);
            if !outcome.ok() {
                failures += outcome.violations.len().max(1);
                for v in &outcome.violations {
                    eprintln!("mc: {name}: {v}");
                }
                if outcome.truncated {
                    eprintln!(
                        "mc: {name}: state space truncated at {} states",
                        cfg.max_states
                    );
                }
            }
        }
        print!("{}", table.render());
        // The production plane must reach exactly the oracle's state graph.
        if graphs[0] != graphs[1] {
            failures += 1;
            eprintln!(
                "mc: state graph (states, transitions, terminals) {:?} differs from the \
                 oracle's {:?}",
                graphs[1], graphs[0]
            );
        }

        let matrix = fela_check::run_mutation_matrix();
        let mut mutation_table = Table::new(
            "Seeded-mutation matrix — every mutation must be caught, distinctly",
            &["mutation", "caught", "diagnostic"],
        );
        let mut kinds = std::collections::BTreeSet::new();
        for row in &matrix {
            mutation_table.row(vec![
                row.name.into(),
                if row.caught {
                    "yes".into()
                } else {
                    "MISSED".into()
                },
                row.diagnostic.clone(),
            ]);
            if !row.caught {
                failures += 1;
                eprintln!("mc: mutation '{}' was not caught", row.name);
            }
            if !kinds.insert(row.kind) {
                failures += 1;
                eprintln!(
                    "mc: mutation '{}' shares diagnostic kind '{}' with an earlier row",
                    row.name, row.kind
                );
            }
        }
        print!("{}", mutation_table.render());
    }

    if check.protocol {
        let (events, ops) = fela_check::record_execution(&fela_check::McConfig::small());
        let report = fela_check::verify_session(&events, Some(&ops));
        println!(
            "protocol (model): {} links, {} frames — {}",
            report.links,
            report.frames,
            if report.ok() { "clean" } else { "VIOLATIONS" }
        );
        if !report.ok() {
            failures += report.violations.len();
            for v in &report.violations {
                eprintln!("protocol: model: {v}");
            }
        }

        // A real threaded virtual-clock run, recorded via the scheduler seam
        // and replayed through the same session machine.
        let common = CommonArgs {
            model: "lenet-5".into(),
            batch: 32,
            iters: 2,
            nodes: 2,
            ..CommonArgs::default()
        };
        let sc = scenario_from(&common)?;
        let m = FelaRuntime::new(FelaConfig::new(1))
            .partition_for(&sc)
            .len();
        let config = FelaConfig::new(m);
        config.validate(sc.cluster.nodes);
        let rec = fela_live::RecordingSched::new();
        let sched: fela_live::SharedSched = rec.clone();
        fela_live::run_virtual_with(&config, &sc, &mut fela_live::ChanTransport, sched)
            .map_err(|e| format!("live run for protocol check failed: {e}"))?;
        let events = rec.take();
        let report = fela_check::verify_session(&events, None);
        println!(
            "protocol (live {} @ batch {}, {} workers): {} links, {} frames — {}",
            sc.model.name,
            sc.total_batch,
            sc.cluster.nodes,
            report.links,
            report.frames,
            if report.ok() { "clean" } else { "VIOLATIONS" }
        );
        if !report.ok() {
            failures += report.violations.len();
            for v in &report.violations {
                eprintln!("protocol: live: {v}");
            }
        }
    }

    if failures > 0 {
        return Err(format!(
            "check --mc/--protocol failed: {failures} problem(s)"
        ));
    }
    Ok(())
}

/// `fela check --wal`: the write-ahead-log replay verifier. Drives a
/// reference logged run to completion on both plane shapes, replays each log
/// through the oracle `ControlPlane` (snapshot-equal recovery, every token
/// applied exactly once, every checkpoint verified), then applies the seeded
/// log-mutation matrix — a dropped, duplicated and reordered record and a
/// flipped byte must each be caught with a distinct diagnostic.
fn cmd_check_wal() -> Result<(), String> {
    let mut failures = 0usize;
    let mut table = Table::new(
        "WAL replay — checkpoint + log suffix must rebuild the exact server state",
        &[
            "plane",
            "records",
            "ops",
            "checkpoints",
            "applied",
            "verdict",
        ],
    );
    for (name, checkpoint_every) in [("log-only", 0u64), ("checkpointed", 1)] {
        match fela_check::reference_wal_check(checkpoint_every) {
            Ok(s) => {
                table.row(vec![
                    name.into(),
                    s.records.to_string(),
                    s.ops.to_string(),
                    s.checkpoints.to_string(),
                    s.applied.to_string(),
                    "ok".into(),
                ]);
            }
            Err(violations) => {
                failures += violations.len();
                table.row(vec![
                    name.into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    format!("{} violation(s)", violations.len()),
                ]);
                for v in &violations {
                    eprintln!("wal: {name}: {v}");
                }
            }
        }
    }
    print!("{}", table.render());

    let matrix = fela_check::run_wal_mutation_matrix();
    let mut mutation_table = Table::new(
        "Seeded log-mutation matrix — every corruption caught, distinctly",
        &["mutation", "caught", "diagnostic"],
    );
    let mut kinds = std::collections::BTreeSet::new();
    for row in &matrix {
        mutation_table.row(vec![
            row.name.into(),
            if row.caught {
                "yes".into()
            } else {
                "MISSED".into()
            },
            row.diagnostic.clone(),
        ]);
        if !row.caught {
            failures += 1;
            eprintln!("wal: mutation '{}' was not caught", row.name);
        }
        if !kinds.insert(row.kind) {
            failures += 1;
            eprintln!(
                "wal: mutation '{}' shares diagnostic kind '{}' with an earlier row",
                row.name, row.kind
            );
        }
    }
    print!("{}", mutation_table.render());
    if failures > 0 {
        return Err(format!("check --wal failed: {failures} problem(s)"));
    }
    Ok(())
}

/// `fela check --elastic`: the elastic-run verifier. Traces real resized runs
/// (a scripted join+leave and a churn walk), replays every epoch against its
/// membership (no grant may reach a departed worker), re-runs the full
/// two-phase search as an oracle against the incremental boundary re-tune (no
/// re-bin divergence), and composes the race + lease-protocol checkers per
/// epoch. Then the seeded elastic mutation matrix must be caught, each kind
/// with its own diagnostic.
fn cmd_check_elastic() -> Result<(), String> {
    use fela_cluster::{ResizeAction, ResizeEvent, ResizeModel};
    use fela_elastic::{ElasticOptions, ElasticRuntime};

    let mut failures = 0usize;
    let options = ElasticOptions {
        profile_iterations: 1,
        ..ElasticOptions::default()
    };
    let base = |resize: ResizeModel| -> Result<Scenario, String> {
        let model = model_by_cli_name("googlenet").ok_or("zoo model missing")?;
        Ok(Scenario::paper(model, 256)
            .with_iterations(6)
            .with_resize(resize))
    };
    let scripted = base(ResizeModel::Scripted(vec![
        ResizeEvent {
            iteration: 2,
            action: ResizeAction::Join(2),
        },
        ResizeEvent {
            iteration: 4,
            action: ResizeAction::Leave(vec![9, 3]),
        },
    ]))?;
    let churn = base(ResizeModel::Churn {
        rate: 0.5,
        seed: 11,
    })?;

    let mut table = Table::new(
        "Elastic replay — every epoch against its membership and the full-search oracle",
        &[
            "scenario", "epochs", "resizes", "grants", "applied", "reused", "verdict",
        ],
    );
    for (name, sc) in [("scripted join+leave", &scripted), ("churn 0.5", &churn)] {
        let (outcome, traces) = ElasticRuntime::new(options)
            .run_elastic_traced(sc)
            .map_err(|e| format!("{name}: {e}"))?;
        match fela_check::check_elastic(&outcome.plan, &traces, options.profile_iterations) {
            Ok(s) => {
                table.row(vec![
                    name.into(),
                    s.epochs.to_string(),
                    s.resizes.to_string(),
                    s.grants.to_string(),
                    s.applied.to_string(),
                    s.retune_reused.to_string(),
                    "ok".into(),
                ]);
            }
            Err(violations) => {
                failures += violations.len();
                table.row(vec![
                    name.into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    format!("{} violation(s)", violations.len()),
                ]);
                for v in &violations {
                    eprintln!("elastic: {name}: {v}");
                }
            }
        }
    }
    print!("{}", table.render());

    let matrix = fela_check::run_elastic_mutation_matrix(&scripted, options, &[0, 1, 2])
        .map_err(|e| e.to_string())?;
    let mut mutation_table = Table::new(
        "Seeded elastic-mutation matrix — every corruption caught, distinctly",
        &["mutation", "caught", "diagnostic"],
    );
    for run in &matrix {
        let (name, want_kind) = match run.mutation {
            fela_check::ElasticMutation::GrantToDeparted { seed } => (
                format!("grant-to-departed (seed {seed})"),
                "GrantToDepartedWorker",
            ),
            fela_check::ElasticMutation::RebinDiverge { seed } => {
                (format!("re-bin-diverge (seed {seed})"), "RebinDivergence")
            }
        };
        let caught = match run.mutation {
            fela_check::ElasticMutation::GrantToDeparted { .. } => run.violations.iter().any(|v| {
                matches!(
                    v,
                    fela_check::ElasticViolation::GrantToDepartedWorker { .. }
                )
            }),
            fela_check::ElasticMutation::RebinDiverge { .. } => run
                .violations
                .iter()
                .any(|v| matches!(v, fela_check::ElasticViolation::RebinDivergence { .. })),
        };
        mutation_table.row(vec![
            name.clone(),
            if caught {
                "yes".into()
            } else {
                "MISSED".into()
            },
            run.violations
                .first()
                .map(|v| v.to_string())
                .unwrap_or_else(|| "(none)".into()),
        ]);
        if !caught {
            failures += 1;
            eprintln!("elastic: mutation '{name}' did not provoke its {want_kind} diagnostic");
        }
    }
    print!("{}", mutation_table.render());
    if failures > 0 {
        return Err(format!("check --elastic failed: {failures} problem(s)"));
    }
    Ok(())
}

/// `fela check --all`: the CI gate. Verifies every zoo model × policy preset ×
/// Phase-1 candidate weight vector statically, then exhausts the small-config
/// schedule space dynamically.
fn cmd_check_all(check: &CheckArgs) -> Result<(), String> {
    let nodes = check.common.nodes;
    let batch = check.common.batch;
    let policies = ["none", "ads", "hf", "full", "ctd"];
    let mut verified = 0usize;
    let mut infeasible = 0usize;
    let mut failures = 0usize;
    for info in zoo::TABLE_I {
        let Some(model) = zoo::build_by_name(info.name) else {
            continue;
        };
        let name = model.name.clone();
        let mut sc = Scenario::paper(model, batch).with_iterations(check.common.iters);
        if nodes != 8 {
            sc.cluster = ClusterSpec::k40c_cluster(nodes);
        }
        let partition = FelaRuntime::new(FelaConfig::new(1)).partition_for(&sc);
        let m = partition.len();
        for policy in policies {
            for w in fela_tuning::phase1_candidates(m, nodes) {
                let cfg = policy_config(policy, m, nodes, check.ctd)
                    .with_weights(w.clone())
                    .with_staleness(check.staleness);
                cfg.validate(nodes);
                match fela_check::verify_config(&partition, &cfg, batch, nodes, sc.iterations) {
                    Ok(_) => verified += 1,
                    Err(fela_check::CheckError::Plan(_)) => infeasible += 1,
                    Err(fela_check::CheckError::Dag(violations)) => {
                        failures += violations.len();
                        for v in &violations {
                            eprintln!("{name} / {policy} / {w:?}: {v}");
                        }
                    }
                }
            }
        }
    }
    println!(
        "static: {verified} configuration(s) verified, {infeasible} infeasible skipped, {failures} violation(s)"
    );

    let outcome = fela_check::exhaustive_schedule_check(check.staleness);
    println!(
        "dynamic: {} schedule(s) over {} state(s) explored{}, {} violation(s)",
        outcome.schedules.len(),
        outcome.states_visited,
        if outcome.truncated {
            " (truncated)"
        } else {
            ""
        },
        outcome.violations.len()
    );
    for v in &outcome.violations {
        eprintln!("explore: {v}");
    }
    if failures > 0 || !outcome.violations.is_empty() {
        return Err(format!(
            "check --all failed: {} violation(s)",
            failures + outcome.violations.len()
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let argv_refs: Vec<&str> = argv.iter().map(String::as_str).collect();
    let command = match args::parse(&argv_refs) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n\n{HELP}");
            return ExitCode::FAILURE;
        }
    };
    let result = match &command {
        Command::Help => {
            print!("{HELP}");
            Ok(())
        }
        Command::Models => {
            cmd_models();
            Ok(())
        }
        Command::Run(run) => cmd_run(run),
        Command::Check(check) => cmd_check(check),
        Command::Live(live) => cmd_live(live),
        Command::Tune(common) => cmd_tune(common),
        Command::Compare(common) => cmd_compare(common),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
