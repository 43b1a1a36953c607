//! Bounded exhaustive interleaving exploration of the production control
//! plane ([`ControlPlane`]).
//!
//! The race detector checks *one* trace. This module checks *all of them* for a
//! small configuration (2 workers × 2 sub-models × 2 micro-batches × 2
//! iterations): a DFS over the Token Server's reachable scheduling states,
//! branching on every nondeterministic input the real runtime feeds it — which
//! worker requests or reports first, and which in-flight parameter sync drains
//! first. The server itself is deterministic given those inputs, so the explored
//! tree covers every schedule the runtime could produce under any timing,
//! straggler pattern or network behaviour.
//!
//! States are memoized by [`ServerSnapshot`] (plus worker holdings and in-flight
//! syncs) — a DPOR-style pruning: two interleavings that converge to the same
//! scheduling state share their futures.
//!
//! Along every path the explorer checks the per-transition safety properties
//! (no grant before its dependencies complete; no grant past the level's
//! staleness bound; no deadlock). Every *terminal* schedule is then handed to
//! `fela-engine`'s [`TokenExecutor`], which executes real token-split SGD in
//! that order: all schedules must produce **bit-identical** parameters, equal
//! within floating-point regrouping tolerance to the serial BSP reference —
//! the paper's Table II reproducibility claim, proved over the whole schedule
//! space instead of sampled seeds.

use std::collections::BTreeSet;

use fela_core::{
    ControlPlane, FelaConfig, LevelMeta, LevelPlan, ScheduleError, ServerSnapshot, SyncSpec,
    TokenId, TokenPlan,
};
use fela_engine::{serial_step, EngineLayer, EngineNet, SplitPlan, Tensor, TokenExecutor};
use fela_sim::SimTime;

/// A safety property violated on some explored path.
#[derive(Clone, PartialEq, Debug)]
pub enum ExploreViolation {
    /// A token was granted although a dependency had not been reported.
    UnmetDependency {
        /// The granted token.
        token: u64,
        /// The unreported dependency.
        dep: u64,
    },
    /// A token was granted beyond its level's staleness bound.
    PrematureGrant {
        /// The granted token.
        token: u64,
        /// Its level.
        level: usize,
        /// Its iteration.
        iteration: u64,
        /// Iterations of this level synced when the grant happened.
        synced_upto: u64,
    },
    /// A reachable state has no enabled action but the run is not complete.
    Deadlock {
        /// Tokens reported when the explorer got stuck.
        reports_done: usize,
    },
    /// The server returned a typed error on a legal action sequence.
    SchedulerError {
        /// The error's display form.
        message: String,
    },
    /// Two terminal schedules trained to different parameters, or a schedule
    /// diverged from the serial reference.
    Divergence {
        /// Index of the offending schedule.
        schedule: usize,
        /// What differed.
        detail: String,
    },
}

impl std::fmt::Display for ExploreViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExploreViolation::UnmetDependency { token, dep } => {
                write!(f, "token {token} granted before dependency {dep} reported")
            }
            ExploreViolation::PrematureGrant {
                token,
                level,
                iteration,
                synced_upto,
            } => write!(
                f,
                "token {token} (level {level}, iter {iteration}) granted with only {synced_upto} iterations synced"
            ),
            ExploreViolation::Deadlock { reports_done } => {
                write!(f, "deadlock after {reports_done} reports")
            }
            ExploreViolation::SchedulerError { message } => {
                write!(f, "scheduler error on a legal path: {message}")
            }
            ExploreViolation::Divergence { schedule, detail } => {
                write!(f, "schedule {schedule} diverged: {detail}")
            }
        }
    }
}

/// Result of an exploration.
#[derive(Clone, Debug)]
pub struct ExploreOutcome {
    /// Distinct terminal schedules, as `(level, iteration, seq)` report orders.
    pub schedules: Vec<Vec<(usize, u64, u64)>>,
    /// Distinct states visited.
    pub states_visited: usize,
    /// Safety violations found on any path.
    pub violations: Vec<ExploreViolation>,
    /// True if exploration hit a bound before exhausting the space.
    pub truncated: bool,
}

/// The small configuration under exploration, plus bounds.
pub struct Explorer {
    plane: ControlPlane,
    staleness: u64,
    /// Stop after this many distinct states (safety net; the 2×2×2 space is
    /// far smaller).
    pub max_states: usize,
    /// Stop after this many distinct terminal schedules.
    pub max_schedules: usize,
}

#[derive(Clone)]
struct State {
    plane: ControlPlane,
    /// Token currently granted to each worker (None = idle or queued).
    holdings: Vec<Option<TokenId>>,
    /// Non-degenerate syncs in flight.
    pending: Vec<SyncSpec>,
    /// Tokens reported so far (safety-check bookkeeping, independent of the
    /// server's own holder map).
    reported: BTreeSet<u64>,
    /// Report order accumulated along this path.
    order: Vec<(usize, u64, u64)>,
}

type StateKey = (ServerSnapshot, Vec<Option<u64>>, Vec<(usize, u64)>);

#[derive(Clone, Copy, Debug)]
enum Action {
    Request(usize),
    Report(usize),
    FinishSync(usize),
}

impl Explorer {
    /// The canonical small configuration: 2 workers, 2 sub-models with weights
    /// `[1, 2]`, 2 root micro-batches per iteration, 2 iterations, all policies
    /// (ADS + HF) on.
    pub fn small(staleness: u64) -> Explorer {
        let plan = TokenPlan {
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
        };
        let cfg = FelaConfig::new(2)
            .with_weights(vec![1, 2])
            .with_staleness(staleness);
        cfg.validate(2);
        let meta = vec![
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
        ];
        Explorer {
            plane: ControlPlane::new(plan, cfg, meta, 2, 2),
            staleness,
            max_states: 100_000,
            max_schedules: 256,
        }
    }

    /// The plan driving the exploration.
    pub fn plan(&self) -> &TokenPlan {
        self.plane.plan()
    }

    /// The configuration driving the exploration.
    pub fn config(&self) -> &FelaConfig {
        self.plane.config()
    }

    /// Explores every interleaving, returning schedules and violations.
    pub fn explore(&self) -> ExploreOutcome {
        let n = self.plane.n_workers();
        let mut outcome = ExploreOutcome {
            schedules: Vec::new(),
            states_visited: 0,
            violations: Vec::new(),
            truncated: false,
        };
        let mut schedules: BTreeSet<Vec<(usize, u64, u64)>> = BTreeSet::new();
        let mut visited: BTreeSet<StateKey> = BTreeSet::new();
        let mut stack = vec![State {
            plane: self.plane.clone(),
            holdings: vec![None; n],
            pending: Vec::new(),
            reported: BTreeSet::new(),
            order: Vec::new(),
        }];
        while let Some(state) = stack.pop() {
            let key = Self::key_of(&state);
            if !visited.insert(key) {
                continue;
            }
            outcome.states_visited += 1;
            if outcome.states_visited >= self.max_states || schedules.len() >= self.max_schedules {
                outcome.truncated = true;
                break;
            }
            if state.plane.run_complete()
                && state.pending.is_empty()
                && state.holdings.iter().all(Option::is_none)
            {
                schedules.insert(state.order.clone());
                continue;
            }
            let actions = self.enabled_actions(&state);
            if actions.is_empty() {
                outcome.violations.push(ExploreViolation::Deadlock {
                    reports_done: state.reported.len(),
                });
                continue;
            }
            for action in actions {
                match self.apply(&state, action, &mut outcome.violations) {
                    Ok(next) => stack.push(next),
                    Err(e) => outcome.violations.push(ExploreViolation::SchedulerError {
                        message: e.to_string(),
                    }),
                }
            }
        }
        outcome.schedules = schedules.into_iter().collect();
        outcome
    }

    fn key_of(state: &State) -> StateKey {
        (
            state.plane.snapshot(),
            state.holdings.iter().map(|h| h.map(|t| t.0)).collect(),
            state
                .pending
                .iter()
                .map(|s| (s.level, s.iteration))
                .collect(),
        )
    }

    fn enabled_actions(&self, state: &State) -> Vec<Action> {
        let snapshot = state.plane.snapshot();
        let mut actions = Vec::new();
        for w in 0..state.holdings.len() {
            match state.holdings[w] {
                Some(_) => actions.push(Action::Report(w)),
                // A queued worker is served by the post-mutation drain; a fresh
                // request from it would be a no-op.
                None if !snapshot.waiting.contains(&w) => actions.push(Action::Request(w)),
                None => {}
            }
        }
        for i in 0..state.pending.len() {
            actions.push(Action::FinishSync(i));
        }
        actions
    }

    fn apply(
        &self,
        state: &State,
        action: Action,
        violations: &mut Vec<ExploreViolation>,
    ) -> Result<State, ScheduleError> {
        let mut next = state.clone();
        match action {
            Action::Request(w) => {
                if let Some(grant) = next.plane.request(w, SimTime::ZERO)? {
                    self.check_grant(&next, &grant.token, violations);
                    next.holdings[w] = Some(grant.token.id);
                }
            }
            Action::Report(w) => {
                let token = next.holdings[w].take().expect("report needs a holding");
                let (level, iteration, seq) = {
                    let t = next.plane.token(token).expect("held token exists");
                    (t.level, t.iteration, t.seq)
                };
                let syncs = next.plane.report(w, token)?;
                next.reported.insert(token.0);
                next.order.push((level, iteration, seq));
                for spec in syncs {
                    if spec.is_degenerate() {
                        // Mirror the runtime: degenerate commits are immediate.
                        next.plane.sync_finished(spec.level, spec.iteration)?;
                    } else {
                        next.pending.push(spec);
                    }
                }
                self.drain(&mut next, violations)?;
            }
            Action::FinishSync(i) => {
                let spec = next.pending.remove(i);
                next.plane.sync_finished(spec.level, spec.iteration)?;
                self.drain(&mut next, violations)?;
            }
        }
        Ok(next)
    }

    /// Serves queued workers after bucket contents changed, validating each
    /// grant — exactly what the runtime's serve-waiting loop does.
    fn drain(
        &self,
        state: &mut State,
        violations: &mut Vec<ExploreViolation>,
    ) -> Result<(), ScheduleError> {
        while let Some((w, grant)) = state.plane.pop_ready_grant(SimTime::ZERO)? {
            self.check_grant(state, &grant.token, violations);
            assert!(state.holdings[w].is_none(), "queued worker held a token");
            state.holdings[w] = Some(grant.token.id);
        }
        Ok(())
    }

    fn check_grant(
        &self,
        state: &State,
        token: &fela_core::Token,
        violations: &mut Vec<ExploreViolation>,
    ) {
        for dep in &token.deps {
            if !state.reported.contains(&dep.0) {
                violations.push(ExploreViolation::UnmetDependency {
                    token: token.id.0,
                    dep: dep.0,
                });
            }
        }
        let synced = state.plane.snapshot().synced_upto[token.level];
        if token.iteration > synced + self.staleness {
            violations.push(ExploreViolation::PrematureGrant {
                token: token.id.0,
                level: token.level,
                iteration: token.iteration,
                synced_upto: synced,
            });
        }
    }
}

/// Executes every explored schedule with real token-split SGD and checks that
/// all of them converge to the same parameters — bit-identical to each other
/// and within floating-point regrouping tolerance of serial BSP.
///
/// The engine model mirrors the explored plan: a 3-layer MLP split into the
/// same 2 sub-models with 2 and 1 tokens; schedules are replayed iteration by
/// iteration in report order.
pub fn verify_convergence(
    schedules: &[Vec<(usize, u64, u64)>],
    iterations: u64,
) -> Vec<ExploreViolation> {
    let mut violations = Vec::new();
    if schedules.is_empty() {
        return violations;
    }
    let split = SplitPlan {
        levels: vec![(0, 2), (2, 3)],
        tokens: vec![2, 1],
    };
    let exec = TokenExecutor {
        plan: split.clone(),
        lr: 0.05,
    };
    let net0 = EngineNet::mlp(&[6, 8, 4], 17);
    let x = Tensor::seeded(&[8, 6], 100, 1.0);
    let t = Tensor::seeded(&[8, 4], 200, 1.0);

    // Serial BSP reference.
    let mut serial = net0.clone();
    for _ in 0..iterations {
        serial_step(&mut serial, &x, &t, 0.05);
    }

    let mut reference: Option<EngineNet> = None;
    for (i, schedule) in schedules.iter().enumerate() {
        let mut net = net0.clone();
        for k in 0..iterations {
            let per_iter: Vec<(usize, usize)> = schedule
                .iter()
                .filter(|&&(_, iter, _)| iter == k)
                .map(|&(level, _, seq)| (level, seq as usize))
                .collect();
            exec.step(&mut net, &x, &t, &per_iter);
        }
        match &reference {
            None => reference = Some(net.clone()),
            Some(r) => {
                if &net != r {
                    violations.push(ExploreViolation::Divergence {
                        schedule: i,
                        detail: "parameters differ bit-wise from schedule 0".into(),
                    });
                    continue;
                }
            }
        }
        // Against serial BSP: equal up to gradient-sum re-association.
        for (a, b) in serial.layers().iter().zip(net.layers().iter()) {
            if let (EngineLayer::Dense { weight: wa, .. }, EngineLayer::Dense { weight: wb, .. }) =
                (a, b)
            {
                for (va, vb) in wa.data().iter().zip(wb.data()) {
                    if (va - vb).abs() > 1e-4 * (1.0 + va.abs()) {
                        violations.push(ExploreViolation::Divergence {
                            schedule: i,
                            detail: format!("weight {va} vs serial {vb}"),
                        });
                        break;
                    }
                }
            }
        }
    }
    violations
}

/// Full exhaustive check on the small configuration: explore, safety-check,
/// cross-validate every schedule against the static DAG, and prove
/// convergence. Returns the outcome (with any violations accumulated).
pub fn exhaustive_schedule_check(staleness: u64) -> ExploreOutcome {
    let explorer = Explorer::small(staleness);
    let mut outcome = explorer.explore();
    // Every dynamic schedule must be a linearization of the static DAG.
    let dag = crate::dag::ScheduleDag::build(explorer.plan(), explorer.config(), 2, 2);
    for (i, schedule) in outcome.schedules.iter().enumerate() {
        if dag.accepts_linearization(schedule).is_err() {
            outcome.violations.push(ExploreViolation::Divergence {
                schedule: i,
                detail: "schedule is not a linearization of the static DAG".into(),
            });
        }
    }
    outcome
        .violations
        .extend(verify_convergence(&outcome.schedules, 2));
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bsp_space_is_exhausted_and_safe() {
        let outcome = Explorer::small(0).explore();
        assert!(!outcome.truncated, "2×2×2 space must fit the bounds");
        assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
        assert!(
            outcome.schedules.len() > 1,
            "the Token Server must admit more than one schedule"
        );
        // Every schedule covers all 6 tokens (3 per iteration × 2 iterations).
        for s in &outcome.schedules {
            assert_eq!(s.len(), 6, "{s:?}");
        }
        assert!(outcome.states_visited > outcome.schedules.len());
    }

    #[test]
    fn all_schedules_converge_to_serial_bsp() {
        let outcome = exhaustive_schedule_check(0);
        assert!(!outcome.truncated);
        assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
    }

    #[test]
    fn ssp_admits_more_schedules_than_bsp() {
        let bsp = Explorer::small(0).explore();
        let ssp = Explorer::small(1).explore();
        assert!(bsp.violations.is_empty(), "{:?}", bsp.violations);
        assert!(ssp.violations.is_empty(), "{:?}", ssp.violations);
        assert!(
            ssp.schedules.len() >= bsp.schedules.len(),
            "staleness can only widen the schedule space ({} vs {})",
            ssp.schedules.len(),
            bsp.schedules.len()
        );
    }

    #[test]
    fn schedules_respect_dependency_order() {
        let outcome = Explorer::small(0).explore();
        for s in &outcome.schedules {
            // Within an iteration, the level-1 token must come after both
            // level-0 tokens (its generation group).
            for k in 0..2u64 {
                let l1 = s
                    .iter()
                    .position(|&(l, i, _)| l == 1 && i == k)
                    .expect("level-1 token present");
                for seq in 0..2u64 {
                    let l0 = s
                        .iter()
                        .position(|&(l, i, q)| l == 0 && i == k && q == seq)
                        .expect("level-0 token present");
                    assert!(l0 < l1, "dependency out of order in {s:?}");
                }
            }
        }
    }
}
