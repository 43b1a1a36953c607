//! Fela runtime configuration: parallelism weights, policy toggles and overhead
//! constants.

use fela_sim::SimDuration;
use serde::Serialize;

/// Conditional Token Distribution settings (§III-F).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub struct CtdConfig {
    /// Size of the conditional subset `S`. Workers `0..subset_size` form `S`
    /// (which workers is immaterial on a homogeneous cluster; a power-of-two size
    /// is required by the tuner for even workload sharing, §IV-B footnote 15).
    pub subset_size: usize,
}

/// Lease-based token recovery settings.
///
/// With recovery on, every grant is a *lease*: the runtime arms a deadline of
/// `compute estimate × slack × 2^attempt + grace` when the token starts
/// computing, and the Token Server revokes the token — returning it to the
/// grantable set, re-scored against surviving workers — when the deadline
/// passes or a crash notification arrives. A worker whose leases expire
/// `quarantine_after` times is quarantined: it gets no further grants and
/// leaves the barrier membership, so an iteration can still close without it.
#[derive(Clone, Copy, PartialEq, Debug, Serialize)]
pub struct RecoveryConfig {
    /// Deadline multiplier over the estimated token cost (must be > 1; the
    /// exponential backoff doubles it on each repeated expiry of a token).
    pub lease_slack: f64,
    /// Flat deadline headroom covering control-plane latency (report RPCs,
    /// queueing at the TS).
    pub lease_grace: SimDuration,
    /// Lease expiries after which a worker is quarantined.
    pub quarantine_after: u64,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            lease_slack: 4.0,
            lease_grace: SimDuration::from_millis(500),
            quarantine_after: 3,
        }
    }
}

/// Full Fela configuration for one run.
#[derive(Clone, Debug, Serialize)]
pub struct FelaConfig {
    /// Per-sub-model parallelism weights `w_i` (§IV-B Phase 1). `w_i` multiplies
    /// SM-1's per-token batch: level `i` has `n_i = n_1 / w_i` tokens of batch
    /// `batch_1 · w_i` (see DESIGN.md §3 for why this is the consistent reading of
    /// the paper's formula). Must be nondecreasing powers of two, one per
    /// sub-model.
    pub weights: Vec<u64>,
    /// Conditional token distribution for communication-intensive sub-models;
    /// `None` disables CTD (every worker may train every level).
    pub ctd: Option<CtdConfig>,
    /// Aggressive Depth-First Scheduling (§III-D). Off = the ablation baseline:
    /// lowest level first, token-id order, locality ignored.
    pub ads: bool,
    /// Hierarchical Fetching (§III-E). Off = the ablation baseline: one global
    /// token bucket, every grant contends for the lock, no sample affinity.
    pub hf: bool,
    /// One-way latency of a worker↔TS control message ("at most hundreds of
    /// bytes", §III-A — pure latency, no bandwidth term).
    pub rpc_latency: SimDuration,
    /// Two grants from the same bucket within this window conflict (models the
    /// serialisation of concurrent RPCs at the TS, §III-E).
    pub lock_window: SimDuration,
    /// Extra delay a worker pays when its grant hit a fetching conflict: the
    /// §III-E *fetching failure* costs a rolled-back distribution plus a fresh
    /// request/redistribution exchange on the TCP control plane — tens of
    /// milliseconds once retry backoff is included, not a bare RPC.
    pub conflict_penalty: SimDuration,
    /// Cross-iteration pipelining (on by default): each sub-model's next
    /// iteration is released the moment its own sync drains. Off = a strict
    /// global barrier per iteration (the ablation of DESIGN.md §3 — what a naive
    /// implementation of the paper would do, at a heavy work-conservation cost).
    pub pipelining: bool,
    /// SSP staleness bound in iterations (§VI: "Fela can be easily extended to
    /// SSP by adding the age attribute to each token"). 0 = BSP (the paper's
    /// evaluation mode). With staleness `s`, a sub-model may run up to `s`
    /// iterations ahead of its own parameter sync.
    pub staleness: u64,
    /// Lease-based token recovery; `None` disables it (grants are not leases,
    /// exactly the pre-recovery behaviour). The runtime enables the default
    /// recovery settings automatically when a scenario injects faults.
    pub recovery: Option<RecoveryConfig>,
}

impl FelaConfig {
    /// Default configuration for `m` sub-models: all weights 1, CTD off, both
    /// scheduling policies on, control-plane constants matching a TCP/Gloo
    /// deployment (~100 µs RPCs).
    pub fn new(m: usize) -> Self {
        FelaConfig {
            weights: vec![1; m],
            ctd: None,
            ads: true,
            hf: true,
            rpc_latency: SimDuration::from_micros(100),
            lock_window: SimDuration::from_millis(5),
            conflict_penalty: SimDuration::from_millis(50),
            pipelining: true,
            staleness: 0,
            recovery: None,
        }
    }

    /// Builder: sets weights.
    pub fn with_weights(mut self, weights: Vec<u64>) -> Self {
        self.weights = weights;
        self
    }

    /// Builder: sets the CTD subset size.
    pub fn with_ctd(mut self, subset_size: usize) -> Self {
        self.ctd = Some(CtdConfig { subset_size });
        self
    }

    /// Builder: toggles ADS.
    pub fn with_ads(mut self, ads: bool) -> Self {
        self.ads = ads;
        self
    }

    /// Builder: toggles HF.
    pub fn with_hf(mut self, hf: bool) -> Self {
        self.hf = hf;
        self
    }

    /// Builder: toggles cross-iteration pipelining (ablation knob).
    pub fn with_pipelining(mut self, pipelining: bool) -> Self {
        self.pipelining = pipelining;
        self
    }

    /// Builder: sets the SSP staleness bound (0 = BSP).
    pub fn with_staleness(mut self, staleness: u64) -> Self {
        self.staleness = staleness;
        self
    }

    /// Builder: enables lease-based token recovery with the given settings.
    pub fn with_recovery(mut self, recovery: RecoveryConfig) -> Self {
        self.recovery = Some(recovery);
        self
    }

    /// Validates the configuration against a cluster size.
    ///
    /// # Panics
    /// Panics on: empty weights, non-power-of-two or decreasing weights, weights
    /// exceeding `2^⌊log₂ N⌋`, or a CTD subset that is zero, larger than the
    /// cluster, or not a power of two.
    pub fn validate(&self, n_workers: usize) {
        assert!(!self.weights.is_empty(), "weights must be non-empty");
        assert_eq!(
            self.weights[0], 1,
            "w_1 = 1 is the base weight (§IV-B); deeper weights are relative to it"
        );
        let cap = 1u64 << (usize::BITS - 1 - n_workers.leading_zeros()); // 2^⌊log₂N⌋
        let mut prev = 0u64;
        for &w in &self.weights {
            assert!(w.is_power_of_two(), "weight {w} must be a power of two");
            assert!(w >= prev, "weights must be nondecreasing (w_{{i+1}} ≥ w_i)");
            assert!(w <= cap, "weight {w} exceeds 2^⌊log₂ N⌋ = {cap}");
            prev = w;
        }
        if let Some(ctd) = self.ctd {
            assert!(ctd.subset_size > 0, "CTD subset must be non-empty");
            assert!(
                ctd.subset_size <= n_workers,
                "CTD subset larger than cluster"
            );
            assert!(
                ctd.subset_size.is_power_of_two(),
                "CTD subset must be a power of two for even sharing (§IV-B)"
            );
        }
        if let Some(rec) = self.recovery {
            assert!(
                rec.lease_slack.is_finite() && rec.lease_slack > 1.0,
                "lease slack must be finite and > 1 (a deadline tighter than the \
                 estimated cost revokes every healthy token)"
            );
            assert!(
                rec.quarantine_after > 0,
                "quarantine threshold must be at least one expiry"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        FelaConfig::new(3).validate(8);
    }

    #[test]
    fn builders_chain() {
        let c = FelaConfig::new(3)
            .with_weights(vec![1, 2, 4])
            .with_ctd(2)
            .with_ads(false)
            .with_hf(false);
        c.validate(8);
        assert_eq!(c.weights, vec![1, 2, 4]);
        assert_eq!(c.ctd, Some(CtdConfig { subset_size: 2 }));
        assert!(!c.ads && !c.hf);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2_weight() {
        FelaConfig::new(2).with_weights(vec![1, 3]).validate(8);
    }

    #[test]
    #[should_panic(expected = "nondecreasing")]
    fn rejects_decreasing_weights() {
        FelaConfig::new(3).with_weights(vec![1, 4, 2]).validate(8);
    }

    #[test]
    #[should_panic(expected = "base weight")]
    fn rejects_non_unit_base_weight() {
        FelaConfig::new(2).with_weights(vec![2, 4]).validate(8);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn rejects_weight_above_cluster_cap() {
        FelaConfig::new(2).with_weights(vec![1, 16]).validate(8);
    }

    #[test]
    #[should_panic(expected = "subset larger")]
    fn rejects_oversized_subset() {
        FelaConfig::new(1).with_ctd(16).validate(8);
    }

    #[test]
    fn weight_cap_is_floor_log2() {
        // N = 12 → cap 8.
        FelaConfig::new(2).with_weights(vec![1, 8]).validate(12);
    }
}
