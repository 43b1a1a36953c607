//! The level table: every level's sync/generation bookkeeping
//! ([`LevelState`]) plus its slice of every bucket's STB queue and the
//! distribution indices that make a pick an O(log) lookup.
//!
//! The table is deliberately dumb: it answers pick/push/remove queries per
//! `(bucket, level)` and never sees the cluster-wide picture (liveness,
//! leases, helper counts, the token table). Every cross-level decision —
//! which bucket to steal from, where a revoked token re-homes, when a sync
//! barrier closes — lives in the [`ControlPlane`](crate::ControlPlane).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::error::ScheduleError;
use crate::token::{Token, TokenId};

/// One `(encoded score, token id)` index: ascending set order is descending
/// locality score, ties to the smallest id (Principle 2).
type ScoreSet = BTreeSet<(u64, TokenId)>;

/// Per-level sync, completion and generation bookkeeping.
#[derive(Clone)]
pub(crate) struct LevelState {
    /// Contiguous iterations synced from 0 (`synced_upto = k` ⇒ iterations
    /// `0..k` are fully synced at this level).
    pub(crate) synced_upto: u64,
    /// Syncs finished out of contiguous order (possible under SSP staleness,
    /// where two iterations of one level may be in flight at once).
    pub(crate) synced_out_of_order: BTreeSet<u64>,
    /// Completions counted per in-flight iteration.
    pub(crate) completed: BTreeMap<u64, u64>,
    /// Generation groups accumulating per iteration (completion order within an
    /// iteration, as in Figure 3).
    pub(crate) gen_buffer: BTreeMap<u64, Vec<TokenId>>,
    /// Generated tokens gated on this level's sync/staleness bound, keyed by
    /// iteration: `iteration → [(token id, preferred bucket)]`. A sync
    /// releases every iteration at or below the new bound with one
    /// `split_off`, so its cost follows the tokens released, not the tokens
    /// parked. Release order is ascending token id — the order a FIFO queue
    /// of all parked tokens yields, since ids are minted in generation order
    /// and entries are appended at generation.
    pending: BTreeMap<u64, Vec<(TokenId, usize)>>,
    /// Tokens generated so far per iteration at this level (levels ≥ 1 only).
    /// Replaces an O(all tokens) scan for `seq` assignment: level ≥ 1 tokens
    /// are created nowhere else, so the counter equals the scan.
    pub(crate) generated: BTreeMap<u64, u64>,
}

impl LevelState {
    fn new() -> Self {
        LevelState {
            synced_upto: 0,
            synced_out_of_order: BTreeSet::new(),
            completed: BTreeMap::new(),
            gen_buffer: BTreeMap::new(),
            pending: BTreeMap::new(),
            generated: BTreeMap::new(),
        }
    }

    /// Highest iteration whose tokens may currently run at this level.
    pub(crate) fn release_bound(&self, staleness: u64) -> u64 {
        self.synced_upto + staleness
    }

    /// Parks a generated token until its iteration falls within the bound.
    pub(crate) fn park(&mut self, iteration: u64, id: TokenId, bucket: usize) {
        self.pending
            .entry(iteration)
            .or_default()
            .push((id, bucket));
    }

    /// Takes every parked token of an iteration at or below `bound`, in
    /// ascending id order.
    pub(crate) fn release_through(&mut self, bound: u64) -> Vec<(TokenId, usize)> {
        let rest = match bound.checked_add(1) {
            Some(next) => self.pending.split_off(&next),
            None => BTreeMap::new(),
        };
        let released = std::mem::replace(&mut self.pending, rest);
        let mut out: Vec<(TokenId, usize)> = released.into_values().flatten().collect();
        out.sort_unstable_by_key(|&(id, _)| id);
        out
    }

    /// Every parked token in ascending id order (the snapshot's list).
    pub(crate) fn pending_in_id_order(&self) -> Vec<(TokenId, usize)> {
        let mut out: Vec<(TokenId, usize)> = self.pending.values().flatten().copied().collect();
        out.sort_unstable_by_key(|&(id, _)| id);
        out
    }

    /// The preferred bucket of every parked token (crash re-homing).
    pub(crate) fn pending_buckets_mut(&mut self) -> impl Iterator<Item = &mut usize> {
        self.pending.values_mut().flatten().map(|(_, b)| b)
    }
}

/// Encodes a locality score so ascending `u64` order equals descending score
/// order. Sound because scores are finite and non-negative (Equation 1 yields
/// values in `[0, 1]`), where IEEE-754 bit patterns are monotone in value.
pub(crate) fn score_key(score: f64) -> u64 {
    !score.to_bits()
}

/// The distributable-token state of one level: its slice of every bucket's
/// STB queue plus the id-order and Principle-2 pick indices.
#[derive(Clone)]
struct LevelSlot {
    state: LevelState,
    /// `stbs[bucket]` — this level's queue segment of each bucket's STB.
    stbs: Vec<VecDeque<TokenId>>,
    /// Id-ordered mirror of each queue: the smallest-id pick of the ablation
    /// paths is an O(log) `first()` instead of a linear queue scan.
    grantable: Vec<BTreeSet<TokenId>>,
    /// Principle-2 index: `by_score[bucket][worker]` holds this level's
    /// tokens with *strictly positive* locality score towards `worker`, keyed
    /// `(descending score, ascending id)`. Zero-score tokens are deliberately
    /// absent: any positive score beats all zeros, and among zero-score
    /// tokens the pick is the smallest id — exactly `grantable`'s `first()`.
    /// A token's score towards every worker is fixed the moment it enters an
    /// STB (its deps are already-reported tokens), except when crash
    /// re-homing moves holder entries, which rebuilds the index.
    by_score: Vec<Vec<ScoreSet>>,
}

/// Every level's token state across all buckets.
///
/// Pushes take the token and the Info Mapping by reference so the table can
/// maintain its score index without owning either.
#[derive(Clone)]
pub(crate) struct LevelTable {
    /// Whether the Principle-2 score index is maintained (ADS and HF both on
    /// — the one configuration whose pick consults locality).
    use_score_index: bool,
    n_workers: usize,
    levels: Vec<LevelSlot>,
    /// Sparse `(worker, score key)` index entries of every STB-resident token,
    /// kept so `remove` can drop them without recomputing scores. A token's
    /// entry leaves with the token, so the map stays as small as the queues.
    score_keys: BTreeMap<TokenId, Vec<(usize, u64)>>,
}

impl LevelTable {
    /// An empty table of `n_levels` levels across `buckets` STBs.
    pub(crate) fn new(
        n_levels: usize,
        buckets: usize,
        n_workers: usize,
        use_score_index: bool,
    ) -> Self {
        LevelTable {
            use_score_index,
            n_workers,
            levels: (0..n_levels)
                .map(|_| LevelSlot {
                    state: LevelState::new(),
                    stbs: vec![VecDeque::new(); buckets],
                    grantable: vec![BTreeSet::new(); buckets],
                    by_score: vec![vec![BTreeSet::new(); n_workers]; buckets],
                })
                .collect(),
            score_keys: BTreeMap::new(),
        }
    }

    pub(crate) fn state(&self, level: usize) -> &LevelState {
        &self.levels[level].state
    }

    pub(crate) fn state_mut(&mut self, level: usize) -> &mut LevelState {
        &mut self.levels[level].state
    }

    /// Whether `id` has score-index entries (it is STB-resident).
    pub(crate) fn is_indexed(&self, id: TokenId) -> bool {
        self.score_keys.contains_key(&id)
    }

    /// Drops a retired iteration's per-level counters and any leftover
    /// generation group.
    pub(crate) fn retire(&mut self, iteration: u64) {
        for slot in &mut self.levels {
            slot.state.completed.remove(&iteration);
            slot.state.gen_buffer.remove(&iteration);
            slot.state.generated.remove(&iteration);
        }
    }

    /// Queue length of `bucket`'s STB segment at `level`.
    pub(crate) fn queue_len(&self, bucket: usize, level: usize) -> usize {
        self.levels[level].stbs[bucket].len()
    }

    /// Token ids queued in `bucket` at `level`, in queue order.
    pub(crate) fn queue_ids(&self, bucket: usize, level: usize) -> Vec<TokenId> {
        self.levels[level].stbs[bucket].iter().copied().collect()
    }

    /// Snapshot export: the queue as raw ids.
    pub(crate) fn queue_row(&self, bucket: usize, level: usize) -> Vec<u64> {
        self.levels[level].stbs[bucket]
            .iter()
            .map(|id| id.0)
            .collect()
    }

    /// The level's pick for `worker` in `bucket`: highest locality score, ties
    /// to the smallest id (Principle 2) when the score index is on; smallest
    /// id otherwise (the ablation and global-bucket paths).
    pub(crate) fn pick(&self, bucket: usize, level: usize, worker: usize) -> Option<TokenId> {
        let slot = &self.levels[level];
        if self.use_score_index {
            slot.by_score[bucket][worker]
                .first()
                .map(|&(_, id)| id)
                .or_else(|| slot.grantable[bucket].first().copied())
        } else {
            slot.grantable[bucket].first().copied()
        }
    }

    /// Inserts a token into `bucket`'s queue at `level` and all distribution
    /// indices.
    pub(crate) fn push(
        &mut self,
        bucket: usize,
        level: usize,
        token: &Token,
        holder: &BTreeMap<TokenId, usize>,
    ) {
        let slot = &mut self.levels[level];
        slot.stbs[bucket].push_back(token.id);
        slot.grantable[bucket].insert(token.id);
        if self.use_score_index {
            index_scores(
                slot,
                &mut self.score_keys,
                self.n_workers,
                bucket,
                token,
                holder,
            );
        }
    }

    /// [`Self::push`] for root tokens, whose dependency set is empty and whose
    /// score is therefore 0 towards everyone (no index entries).
    pub(crate) fn push_root(&mut self, bucket: usize, id: TokenId) {
        let slot = &mut self.levels[0];
        slot.stbs[bucket].push_back(id);
        slot.grantable[bucket].insert(id);
    }

    /// Removes a granted token from its queue and all distribution indices.
    pub(crate) fn remove(
        &mut self,
        bucket: usize,
        level: usize,
        id: TokenId,
    ) -> Result<(), ScheduleError> {
        let keys = self.score_keys.remove(&id);
        let slot = &mut self.levels[level];
        let q = &mut slot.stbs[bucket];
        let Some(pos) = q.iter().position(|&x| x == id) else {
            // The index pointed at a token the queue does not hold.
            return Err(ScheduleError::CorruptBucket {
                bucket,
                level,
                position: 0,
            });
        };
        q.remove(pos);
        slot.grantable[bucket].remove(&id);
        if let Some(keys) = keys {
            for (w, k) in keys {
                slot.by_score[bucket][w].remove(&(k, id));
            }
        }
        Ok(())
    }

    /// Recomputes the Principle-2 score index for every STB-resident token
    /// (crash re-homing moved holder entries, invalidating scores fixed at
    /// insertion time). Crash-path only.
    pub(crate) fn rebuild_scores(
        &mut self,
        tokens: &BTreeMap<TokenId, Token>,
        holder: &BTreeMap<TokenId, usize>,
    ) -> Result<(), ScheduleError> {
        if !self.use_score_index {
            return Ok(());
        }
        for slot in &mut self.levels {
            for bucket in 0..slot.stbs.len() {
                let ids: Vec<TokenId> = slot.stbs[bucket].iter().copied().collect();
                for id in ids {
                    if let Some(keys) = self.score_keys.remove(&id) {
                        for (w, k) in keys {
                            slot.by_score[bucket][w].remove(&(k, id));
                        }
                    }
                    let t = tokens
                        .get(&id)
                        .ok_or(ScheduleError::UnknownToken { token: id })?;
                    index_scores(
                        slot,
                        &mut self.score_keys,
                        self.n_workers,
                        bucket,
                        t,
                        holder,
                    );
                }
            }
        }
        Ok(())
    }
}

/// Adds `token`'s Principle-2 entries to `slot`'s score index. A single walk
/// over the token's dependency holders yields every worker's held count; only
/// workers with a positive count get an entry (Equation 1's `held / len`).
fn index_scores(
    slot: &mut LevelSlot,
    score_keys: &mut BTreeMap<TokenId, Vec<(usize, u64)>>,
    n_workers: usize,
    bucket: usize,
    token: &Token,
    holder: &BTreeMap<TokenId, usize>,
) {
    let mut counts = vec![0usize; n_workers];
    for d in &token.deps {
        if let Some(&w) = holder.get(d) {
            counts[w] += 1;
        }
    }
    let len = token.deps.len();
    let mut keys: Vec<(usize, u64)> = Vec::new();
    for (w, &c) in counts.iter().enumerate() {
        if c > 0 {
            let k = score_key(c as f64 / len as f64);
            slot.by_score[bucket][w].insert((k, token.id));
            keys.push((w, k));
        }
    }
    if !keys.is_empty() {
        score_keys.insert(token.id, keys);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pick_remove_round_trip() {
        let mut table = LevelTable::new(3, 4, 4, true);
        let holder: BTreeMap<TokenId, usize> =
            [(TokenId(10), 2), (TokenId(11), 0)].into_iter().collect();
        let t = Token {
            id: TokenId(42),
            level: 2,
            iteration: 0,
            seq: 0,
            batch: 8,
            deps: vec![TokenId(10), TokenId(11)],
            sample_owner: None,
        };
        table.push(3, 2, &t, &holder);
        assert_eq!(table.queue_len(3, 2), 1);
        // Worker 2 holds half the deps → positive score; worker 1 holds none.
        assert_eq!(table.pick(3, 2, 2), Some(TokenId(42)));
        assert_eq!(
            table.pick(3, 2, 1),
            Some(TokenId(42)),
            "zero-score fallback"
        );
        table.remove(3, 2, TokenId(42)).expect("queued");
        assert_eq!(table.queue_len(3, 2), 0);
        assert_eq!(table.pick(3, 2, 2), None);
        assert!(table.remove(3, 2, TokenId(42)).is_err(), "double remove");
    }
}
