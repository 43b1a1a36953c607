//! The oracle half of the op log: recorded production-plane operations
//! ([`CoordOp`]) replayed on the oracle [`TokenServer`].
//!
//! `fela-core` records every mutating [`ControlPlane`](fela_core::ControlPlane)
//! call as inputs plus an outcome digest. [`apply_op`] feeds one operation's
//! inputs to the oracle and digests what the oracle did; [`replay_oplog`]
//! does so for a whole history and pinpoints the first operation whose
//! digests disagree — the point where the history stops being linearizable
//! against the oracle. fela-mc's lockstep and the WAL checker are built on
//! [`apply_op`].

use fela_core::oplog::{
    outcome_of_crash, outcome_of_expiry, outcome_of_pop, outcome_of_report, outcome_of_request,
    outcome_of_unit,
};
use fela_core::{CoordOp, OpDivergence, OpKind, OpOutcome, TokenId};

use crate::server::TokenServer;

/// Applies one recorded operation's inputs to the oracle and returns the
/// digest of what the oracle did — the oracle half of a lockstep comparison
/// (the production plane's half is [`fela_core::apply_op`]).
pub fn apply_op(oracle: &mut TokenServer, kind: &OpKind) -> OpOutcome {
    match kind {
        OpKind::Request { worker, now } => {
            outcome_of_request(*worker, &oracle.request(*worker, *now))
        }
        OpKind::PopReadyGrant { now } => outcome_of_pop(&oracle.pop_ready_grant(*now)),
        OpKind::Report { worker, token } => {
            outcome_of_report(&oracle.report(*worker, TokenId(*token)))
        }
        OpKind::SyncFinished { level, iteration } => {
            outcome_of_unit(&oracle.sync_finished(*level, *iteration))
        }
        OpKind::WorkerCrashed { worker } => outcome_of_crash(&oracle.worker_crashed(*worker)),
        OpKind::WorkerRestarted { worker } => outcome_of_unit(&oracle.worker_restarted(*worker)),
        OpKind::LeaseExpired { token, attempt } => {
            outcome_of_expiry(&oracle.lease_expired(TokenId(*token), *attempt))
        }
    }
}

/// Replays a recorded history against `oracle` (typically a freshly built
/// oracle with the same plan/config as the recording plane), comparing every
/// op's digest. Returns the first divergence, if any.
pub fn replay_oplog(ops: &[CoordOp], oracle: &mut TokenServer) -> Result<(), Box<OpDivergence>> {
    for (index, op) in ops.iter().enumerate() {
        let got = apply_op(oracle, &op.kind);
        if got != op.outcome {
            return Err(Box::new(OpDivergence {
                index,
                kind: op.kind.clone(),
                recorded: op.outcome.clone(),
                oracle: got,
            }));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fela_core::{ControlPlane, FelaConfig, LevelMeta, LevelPlan, TokenPlan};
    use fela_sim::SimTime;

    fn small_plan() -> TokenPlan {
        TokenPlan {
            levels: vec![
                LevelPlan {
                    level: 0,
                    tokens_per_iteration: 2,
                    batch_per_token: 4,
                    gen_ratio: 1,
                },
                LevelPlan {
                    level: 1,
                    tokens_per_iteration: 1,
                    batch_per_token: 8,
                    gen_ratio: 2,
                },
            ],
            total_batch: 8,
        }
    }

    fn small_meta() -> Vec<LevelMeta> {
        vec![
            LevelMeta {
                param_bytes: 4096,
                output_bytes_per_sample: 64,
                input_bytes_per_sample: 64,
                comm_intensive: false,
            },
            LevelMeta {
                param_bytes: 8192,
                output_bytes_per_sample: 32,
                input_bytes_per_sample: 64,
                comm_intensive: false,
            },
        ]
    }

    fn small_cfg() -> FelaConfig {
        FelaConfig::new(2).with_weights(vec![1, 2])
    }

    /// Drives one full 2-iteration run on the production plane, recording
    /// everything.
    fn recorded_history() -> Vec<CoordOp> {
        let mut plane = ControlPlane::new(small_plan(), small_cfg(), small_meta(), 2, 2);
        plane.enable_op_log();
        let now = SimTime::ZERO;
        while !plane.run_complete() {
            let mut progressed = false;
            for w in 0..2 {
                if let Ok(Some(grant)) = plane.request(w, now) {
                    let syncs = plane.report(w, grant.token.id).expect("report accepted");
                    for s in syncs {
                        plane.sync_finished(s.level, s.iteration).expect("sync");
                    }
                    progressed = true;
                }
            }
            while let Ok(Some((w, grant))) = plane.pop_ready_grant(now) {
                let syncs = plane.report(w, grant.token.id).expect("report accepted");
                for s in syncs {
                    plane.sync_finished(s.level, s.iteration).expect("sync");
                }
                progressed = true;
            }
            assert!(progressed, "run must make progress");
        }
        plane.take_op_log()
    }

    fn small_oracle() -> TokenServer {
        TokenServer::new(small_plan(), small_cfg(), small_meta(), 2, 2)
    }

    #[test]
    fn production_history_replays_cleanly_against_the_oracle() {
        let ops = recorded_history();
        assert!(
            ops.iter()
                .any(|op| matches!(op.outcome, OpOutcome::Granted { .. })),
            "the run must contain grants"
        );
        let mut oracle = small_oracle();
        replay_oplog(&ops, &mut oracle).expect("the history is linearizable vs the oracle");
        assert!(oracle.run_complete(), "oracle finishes the same run");
    }

    #[test]
    fn a_tampered_outcome_is_pinpointed_by_index() {
        let mut ops = recorded_history();
        let idx = ops
            .iter()
            .position(|op| matches!(op.outcome, OpOutcome::Granted { .. }))
            .expect("some grant");
        // Pretend the recorded plane granted a different token.
        if let OpOutcome::Granted { token, .. } = &mut ops[idx].outcome {
            *token += 1000;
        }
        let div = replay_oplog(&ops, &mut small_oracle()).expect_err("tamper must be caught");
        assert_eq!(div.index, idx);
        assert!(matches!(div.oracle, OpOutcome::Granted { .. }));
        assert_ne!(div.recorded, div.oracle);
    }
}
