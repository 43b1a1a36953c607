//! Lease bookkeeping for the control plane: who holds which granted token,
//! how often each token's lease has been revoked, and each worker's expiry
//! history (the quarantine trigger).
//!
//! The [`ControlPlane`](crate::ControlPlane) tracks every grant made under
//! recovery in a [`LeaseTable`] — the ledger crash and expiry recovery walk.

use std::collections::BTreeMap;

use crate::token::TokenId;

/// An active lease: who holds a granted token, and which attempt this is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LeaseInfo {
    /// The worker the token is granted to.
    pub worker: usize,
    /// Revocation count at grant time (matches [`Grant::attempt`](crate::Grant::attempt)).
    pub attempt: u64,
}

/// What `lease_expired` did: the lease was live and has been revoked; the
/// token is back in the grantable set.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ExpiredLease {
    /// The worker that lost the lease.
    pub worker: usize,
    /// Every token revoked by this expiry — the expired token itself, plus
    /// (if the expiry tipped the worker into quarantine) all its other leases.
    pub revoked: Vec<TokenId>,
    /// True if this expiry quarantined the worker.
    pub quarantined: bool,
}

/// The control plane's lease ledger: active leases, per-token revocation counts
/// and per-worker expiry counts. Ordered maps only — recovery sweeps must
/// revoke in token-id order so traces stay byte-identical across runs.
#[derive(Clone, Default)]
pub(crate) struct LeaseTable {
    /// Active leases (maintained only with recovery on): granted,
    /// not-yet-reported tokens.
    leases: BTreeMap<TokenId, LeaseInfo>,
    /// Revocation counts per token (sparse; absent = 0).
    attempts: BTreeMap<TokenId, u64>,
    /// Lease expiries per worker (drives quarantine).
    expiry_counts: Vec<u64>,
}

impl LeaseTable {
    pub(crate) fn new(n_workers: usize) -> Self {
        LeaseTable {
            leases: BTreeMap::new(),
            attempts: BTreeMap::new(),
            expiry_counts: vec![0; n_workers],
        }
    }

    /// The active lease on `token`, if any.
    pub(crate) fn lease_of(&self, token: TokenId) -> Option<LeaseInfo> {
        self.leases.get(&token).copied()
    }

    /// The attempt number `token`'s next grant will carry.
    pub(crate) fn attempt_of(&self, token: TokenId) -> u64 {
        self.attempts.get(&token).copied().unwrap_or(0)
    }

    /// Records a grant as an active lease.
    pub(crate) fn grant(&mut self, token: TokenId, worker: usize, attempt: u64) {
        self.leases.insert(token, LeaseInfo { worker, attempt });
    }

    /// Releases the lease on a reported token; returns the lease if it was the
    /// caller's to release.
    pub(crate) fn release(&mut self, token: TokenId) -> Option<LeaseInfo> {
        self.leases.remove(&token)
    }

    /// Drops the lease and bumps the token's revocation count. Returns `false`
    /// if there was no active lease (the caller surfaces the typed error).
    pub(crate) fn revoke(&mut self, token: TokenId) -> bool {
        if self.leases.remove(&token).is_none() {
            return false;
        }
        *self.attempts.entry(token).or_insert(0) += 1;
        true
    }

    /// Drops a retired token's revocation count (its iteration committed,
    /// so it is never granted again).
    pub(crate) fn forget(&mut self, token: TokenId) {
        self.attempts.remove(&token);
    }

    /// Every token `worker` currently leases, in token-id order.
    pub(crate) fn held_by(&self, worker: usize) -> Vec<TokenId> {
        self.leases
            .iter()
            .filter(|(_, l)| l.worker == worker)
            .map(|(&t, _)| t)
            .collect()
    }

    /// Counts one lease expiry against `worker`; returns the new count.
    pub(crate) fn count_expiry(&mut self, worker: usize) -> u64 {
        self.expiry_counts[worker] += 1;
        self.expiry_counts[worker]
    }

    /// Clears `worker`'s expiry history (restart with a fresh process).
    pub(crate) fn clear_expiries(&mut self, worker: usize) {
        self.expiry_counts[worker] = 0;
    }

    /// Snapshot export: `(token, worker, attempt)` triples in token-id order.
    pub(crate) fn lease_triples(&self) -> Vec<(u64, usize, u64)> {
        self.leases
            .iter()
            .map(|(&t, l)| (t.0, l.worker, l.attempt))
            .collect()
    }

    /// Snapshot export: `(token, revocations)` pairs in token-id order.
    pub(crate) fn attempt_pairs(&self) -> Vec<(u64, u64)> {
        self.attempts.iter().map(|(&t, &n)| (t.0, n)).collect()
    }

    /// Snapshot export: per-worker expiry counts.
    pub(crate) fn expiry_counts(&self) -> &[u64] {
        &self.expiry_counts
    }

    /// Restore from snapshot fields (inverse of the exports above).
    pub(crate) fn restore(
        leases: &[(u64, usize, u64)],
        attempts: &[(u64, u64)],
        expiry_counts: &[u64],
    ) -> Self {
        LeaseTable {
            leases: leases
                .iter()
                .map(|&(t, worker, attempt)| (TokenId(t), LeaseInfo { worker, attempt }))
                .collect(),
            attempts: attempts.iter().map(|&(t, n)| (TokenId(t), n)).collect(),
            expiry_counts: expiry_counts.to_vec(),
        }
    }
}
