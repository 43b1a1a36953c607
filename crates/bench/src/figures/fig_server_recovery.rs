//! Server-recovery figure — durable WAL recovery versus restart-from-scratch.
//!
//! The Token Server is Fela's single point of failure: without a durable
//! control plane, losing it means losing every completed iteration and paying
//! a full retrain. With the write-ahead log, the restarted server replays the
//! latest checkpoint plus the log suffix and resumes mid-iteration — the run
//! pays only the downtime plus a small recovery cost. This sweep crashes the
//! server at 25/50/75% of the run under two downtimes and compares the
//! durable makespan against the modeled restart-from-scratch makespan
//! `T_scratch = T_crash + downtime + T_full` (the work done before the crash
//! is thrown away, the server sits out the downtime, then retrains from
//! iteration 0).
//!
//! Each model is tuned and run uninterrupted once; the twelve crashed runs
//! then fan out across the harness executor. Their in-memory logs stay small
//! because every checkpoint carries only the plane's live window.

use fela_cluster::{FaultModel, Scenario, TrainingRuntime as _};
use fela_core::{FelaConfig, FelaRuntime};
use fela_metrics::{f2, Table};
use fela_model::{zoo, Model};
use fela_sim::SimDuration;
use serde::Serialize;

use crate::{model_slug, save_json, scenario, tuned_fela};

const BATCH: u64 = 256;
/// Crash points as fractions of the run: numerator/denominator pairs.
const CRASH_POINTS: [(u64, u64); 3] = [(1, 4), (1, 2), (3, 4)];
/// Server downtimes swept (seconds between the crash and the restart).
const DOWNTIMES_SECS: [u64; 2] = [10, 60];

/// One crash setting: durable recovery vs the restart-from-scratch model.
#[derive(Clone, Debug, Serialize)]
pub struct ServerRecoveryRow {
    /// Benchmark model.
    pub model: String,
    /// Total batch size.
    pub batch: u64,
    /// Setting label, e.g. `"crash@50%, down=10s"`.
    pub setting: String,
    /// Iteration at which the Token Server is killed.
    pub crash_iteration: u64,
    /// Downtime before the server restarts.
    pub down_secs: u64,
    /// Uninterrupted makespan (seconds).
    pub t_full: f64,
    /// Makespan of the crashed run recovering from the WAL (seconds).
    pub t_durable: f64,
    /// Modeled restart-from-scratch makespan: `T_crash + down + T_full`.
    pub t_scratch: f64,
    /// `t_scratch / t_durable` — how much the WAL recovery saves.
    pub advantage: f64,
    /// Server crashes the run observed (always 1 here).
    pub server_crashes: u64,
    /// Server restarts after WAL recovery (always 1 here).
    pub server_restarts: u64,
}

fn crash_settings(iterations: u64) -> Vec<(u64, u64)> {
    let mut settings = Vec::new();
    for (num, den) in CRASH_POINTS {
        let crash_iteration = (iterations * num / den).max(1);
        for down_secs in DOWNTIMES_SECS {
            settings.push((crash_iteration, down_secs));
        }
    }
    settings
}

/// One model's uninterrupted reference: its scenario, tuned configuration
/// and makespan.
struct Reference {
    model: Model,
    base: Scenario,
    config: FelaConfig,
    t_full: f64,
}

fn reference(model: Model) -> Reference {
    let base = scenario(model.clone(), BATCH);
    let config = tuned_fela(&base);
    let t_full = FelaRuntime::new(config.clone()).run(&base).total_time_secs;
    Reference {
        model,
        base,
        config,
        t_full,
    }
}

/// Crashes the server at `crash_iteration` for `down_secs` and compares the
/// durable makespan with the restart-from-scratch model.
fn crashed_run(r: &Reference, crash_iteration: u64, down_secs: u64) -> ServerRecoveryRow {
    let sc = r.base.clone().with_fault(FaultModel::ServerCrashRestart {
        iteration: crash_iteration,
        down: SimDuration::from_secs(down_secs),
    });
    let report = FelaRuntime::new(r.config.clone()).run(&sc);
    let t_durable = report.total_time_secs;
    let iterations = r.base.iterations;
    // Restart-from-scratch loses the pre-crash work: it pays the time up to
    // the crash, the downtime, then the full run again.
    let t_crash = r.t_full * crash_iteration as f64 / iterations as f64;
    let t_scratch = t_crash + down_secs as f64 + r.t_full;
    ServerRecoveryRow {
        model: r.model.name.clone(),
        batch: BATCH,
        setting: format!(
            "crash@{}%, down={down_secs}s",
            100 * crash_iteration / iterations
        ),
        crash_iteration,
        down_secs,
        t_full: r.t_full,
        t_durable,
        t_scratch,
        advantage: t_scratch / t_durable,
        server_crashes: report.counter("server_crashes"),
        server_restarts: report.counter("server_restarts"),
    }
}

fn print_server_recovery_table(title: &str, rows: &[ServerRecoveryRow]) {
    let mut table = Table::new(
        format!("{title} — makespan (s)"),
        &[
            "setting",
            "uninterrupted",
            "durable recovery",
            "restart from scratch",
            "advantage",
        ],
    );
    for r in rows {
        table.row(vec![
            r.setting.clone(),
            f2(r.t_full),
            f2(r.t_durable),
            f2(r.t_scratch),
            format!("{:.2}×", r.advantage),
        ]);
    }
    print!("{}", table.render());
}

/// Runs the server-recovery sweeps: the references in order, then every
/// crashed run on `jobs` worker threads. Rows land in model-then-setting
/// order whatever the job count.
pub fn run(jobs: usize) {
    let references: Vec<Reference> = [zoo::vgg19(), zoo::googlenet()]
        .into_iter()
        .map(reference)
        .collect();
    let runs: Vec<(&Reference, u64, u64)> = references
        .iter()
        .flat_map(|r| {
            crash_settings(r.base.iterations)
                .into_iter()
                .map(move |(crash_iteration, down_secs)| (r, crash_iteration, down_secs))
        })
        .collect();
    let all = fela_harness::run_indexed(runs.len(), jobs, |i| {
        let (r, crash_iteration, down_secs) = runs[i];
        crashed_run(r, crash_iteration, down_secs)
    });
    for r in &references {
        let rows: Vec<ServerRecoveryRow> = all
            .iter()
            .filter(|row| row.model == r.model.name)
            .cloned()
            .collect();
        print_server_recovery_table(
            &format!(
                "Server recovery — {} (fig_server_recovery_{})",
                r.model.name,
                model_slug(&r.model.name)
            ),
            &rows,
        );
    }
    for r in &all {
        assert_eq!(
            r.server_crashes, 1,
            "{}: exactly one injected crash",
            r.setting
        );
        assert_eq!(
            r.server_restarts, 1,
            "{}: the server must recover",
            r.setting
        );
        assert!(
            r.advantage > 1.0,
            "{}: durable recovery must beat restart-from-scratch ({:.2} vs {:.2})",
            r.setting,
            r.t_durable,
            r.t_scratch
        );
    }
    println!(
        "Paper shape checks: every crashed run recovers from the WAL and finishes\n\
         faster than the modeled restart-from-scratch; the advantage grows with\n\
         the crash point (later crashes throw away more completed work)."
    );
    save_json("fig_server_recovery", &all);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settings_cover_the_crash_grid() {
        let s = crash_settings(100);
        assert_eq!(s.len(), 6);
        assert_eq!(s[0], (25, 10));
        assert_eq!(s[5], (75, 60));
        for (it, down) in s {
            let fault = FaultModel::ServerCrashRestart {
                iteration: it,
                down: SimDuration::from_secs(down),
            };
            assert!(fault.validate().is_ok());
        }
    }

    #[test]
    fn a_tiny_run_never_crashes_at_iteration_zero() {
        for (it, _) in crash_settings(2) {
            assert!(it >= 1);
        }
    }
}
