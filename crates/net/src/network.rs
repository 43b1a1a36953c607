//! The flow-level network state machine.
//!
//! [`Network`] tracks active transfers ([`Flow`]s) between cluster nodes. Rates are
//! recomputed by max–min fair sharing whenever the flow set changes; between
//! changes, each flow drains linearly, so completion instants are exact. The owner
//! (a simulation [`fela_sim::World`]) drives it with three calls:
//!
//! 1. [`Network::start_flow`] whenever a transfer begins;
//! 2. [`Network::next_completion`] after a burst of changes, to (re)schedule a
//!    single "network completion" event at the right virtual time;
//! 3. [`Network::take_completions`] when that event fires, to learn which transfers
//!    finished.
//!
//! ## One settle per simulated instant
//!
//! Starts, completions and aborts change the flow table at once but only stage
//! their fair-share work. The network *settles* the staged changes of an
//! instant in one go: one [`IncrementalMaxMin::apply_batch`] over every
//! touched component, then one pass that re-derives every flow's completion
//! estimate at that instant. It settles when the clock moves past the instant,
//! when completions are read ([`Network::take_completions`]) and when the owner
//! asks [`Network::next_completion`]. A ring all-reduce round that starts eight
//! flows at one instant thus pays one recompute and one estimate pass, not
//! eight.
//!
//! Results are bit-identical to settling after every change. Rates are a pure
//! function of the final flow set (see [`crate::fairshare`]). Estimates are
//! still computed at the instant of the change, from the same `remaining`:
//! draining to an unchanged instant drains nothing, so no same-instant change
//! can observe stale rates, and the clock never moves before the instant is
//! settled.
//!
//! Latency is modelled as a fixed startup delay before a flow's bytes begin to
//! drain (it still occupies its fair share from the start, which slightly
//! overweights tiny control messages — conservative for Fela, whose token RPCs are
//! "at most hundreds of bytes").

use fela_sim::{SimDuration, SimTime};
use serde::Serialize;

use crate::fairshare::{FlowLinks, IncrementalMaxMin};

/// A cluster node index.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize)]
pub struct NodeId(pub usize);

/// Identifier of an active or completed flow.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize)]
pub struct FlowId(u64);

/// A transfer request.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct FlowSpec {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Caller-defined tag returned on completion (e.g. "params for token 12").
    pub tag: u64,
}

#[derive(Clone, Debug)]
struct Flow {
    id: FlowId,
    spec: FlowSpec,
    remaining: f64,
    rate: f64,
    /// Bytes start draining here (start + latency).
    ready_at: SimTime,
    /// Exact completion estimate under the current rates.
    est_done: SimTime,
}

impl Flow {
    /// Whether the flow crosses the switch (a same-node flow never touches a NIC).
    fn netted(&self) -> bool {
        self.spec.src != self.spec.dst
    }
}

/// Configuration of the star network.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct NetworkConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Per-NIC bandwidth in bytes/second (both directions).
    pub link_bandwidth: f64,
    /// One-way latency added before a flow's bytes drain.
    pub latency: SimDuration,
}

impl NetworkConfig {
    /// The paper's testbed: 10 Gbps NICs on a non-blocking 40GE switch, ~50 µs
    /// one-way software+fabric latency. Goodput is derated to 70% of line rate —
    /// what Gloo's TCP transport sustains after framing, kernel copies and
    /// congestion-control ramp-up.
    pub fn paper_testbed(nodes: usize) -> Self {
        NetworkConfig {
            nodes,
            link_bandwidth: 0.70 * 10.0e9 / 8.0,
            latency: SimDuration::from_micros(50),
        }
    }
}

/// The flow-level network simulator.
#[derive(Clone, Debug)]
pub struct Network {
    config: NetworkConfig,
    /// Active flows in ascending id order; ids are minted ascending, so a start
    /// appends.
    flows: Vec<Flow>,
    /// Incremental fair-share engine holding every netted (src ≠ dst) flow,
    /// keyed by the raw `FlowId` so its canonical order matches `self.flows`.
    /// A settle recomputes only the connected components the instant's changes
    /// touched, with rates bit-identical to a full `max_min_rates` pass (see
    /// `fairshare` module docs).
    shares: IncrementalMaxMin,
    /// Netted flows started since the last settle, for the engine's next batch.
    staged_starts: Vec<(u64, FlowLinks)>,
    /// Netted flows completed or aborted since the last settle.
    staged_ends: Vec<u64>,
    /// Whether the flow set changed since the last settle.
    dirty: bool,
    /// Earliest completion estimate as of the last settle.
    next_done: Option<SimTime>,
    next_id: u64,
    last_update: SimTime,
    /// Total bytes delivered, for experiment reporting.
    bytes_delivered: f64,
}

impl Network {
    /// Creates an idle network.
    ///
    /// # Panics
    /// Panics if the configuration has no nodes or non-positive bandwidth.
    pub fn new(config: NetworkConfig) -> Self {
        assert!(config.nodes > 0, "network needs at least one node");
        assert!(config.link_bandwidth > 0.0, "bandwidth must be positive");
        let caps = vec![config.link_bandwidth; config.nodes];
        Network {
            config,
            flows: Vec::new(),
            shares: IncrementalMaxMin::new(caps.clone(), caps),
            staged_starts: Vec::new(),
            staged_ends: Vec::new(),
            dirty: false,
            next_done: None,
            next_id: 0,
            last_update: SimTime::ZERO,
            bytes_delivered: 0.0,
        }
    }

    /// The network configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// Number of currently active flows.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Total bytes delivered so far (for reporting).
    pub fn bytes_delivered(&self) -> u64 {
        self.bytes_delivered as u64
    }

    /// Starts a transfer at `now`; returns its id. The new rates take effect at
    /// the instant's settle.
    ///
    /// Same-node transfers (`src == dst`) never touch a NIC: they complete after
    /// the latency alone.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range or `now` precedes the last update.
    pub fn start_flow(&mut self, now: SimTime, spec: FlowSpec) -> FlowId {
        assert!(spec.src.0 < self.config.nodes, "src out of range");
        assert!(spec.dst.0 < self.config.nodes, "dst out of range");
        self.advance(now);
        let id = FlowId(self.next_id);
        self.next_id += 1;
        let flow = Flow {
            id,
            spec,
            remaining: spec.bytes as f64,
            rate: 0.0,
            ready_at: now + self.config.latency,
            est_done: SimTime::MAX,
        };
        if flow.netted() {
            self.staged_starts.push((
                id.0,
                FlowLinks {
                    egress: spec.src.0,
                    ingress: spec.dst.0,
                },
            ));
        }
        self.flows.push(flow);
        self.dirty = true;
        id
    }

    /// Advances all flows' remaining bytes to `now`, settling the previous
    /// instant's changes first when the clock moves. Idempotent.
    fn advance(&mut self, now: SimTime) {
        assert!(
            now >= self.last_update,
            "network driven backwards: {now} < {}",
            self.last_update
        );
        if now == self.last_update {
            // Nothing drains within an instant, so same-instant changes can
            // stay staged.
            return;
        }
        self.settle();
        for flow in &mut self.flows {
            let from = if flow.ready_at > self.last_update {
                flow.ready_at
            } else {
                self.last_update
            };
            if now > from && flow.rate > 0.0 {
                let dt = now.since(from).as_secs_f64();
                let drained = (flow.rate * dt).min(flow.remaining);
                flow.remaining -= drained;
                self.bytes_delivered += drained;
            }
        }
        self.last_update = now;
    }

    /// Settles the changes staged at `last_update`: one engine batch over every
    /// start, completion and abort of the instant, then one pass that merges the
    /// engine's rates into the flow table (both lists ascend by id, and the
    /// engine holds exactly the netted flows) and re-derives every completion
    /// estimate at `last_update`. A no-op when nothing changed.
    ///
    /// The estimate pass deliberately still covers *all* flows: `est_done` is a
    /// quantised `SimTime` derived from `remaining / rate` at the instant of the
    /// change, so re-deriving it lazily at a different instant could drift by a
    /// nanosecond of rounding and break byte-identity of the trace artifacts.
    fn settle(&mut self) {
        if !self.dirty {
            return;
        }
        self.dirty = false;
        self.shares
            .apply_batch(&self.staged_starts, &self.staged_ends);
        self.staged_starts.clear();
        self.staged_ends.clear();
        let now = self.last_update;
        let mut rates = self.shares.rates();
        let mut next_done: Option<SimTime> = None;
        for flow in &mut self.flows {
            if flow.netted() {
                let Some((key, rate)) = rates.next() else {
                    panic!("fair-share engine is missing flow {}", flow.id.0);
                };
                debug_assert_eq!(key, flow.id.0, "engine and flow table disagree");
                flow.rate = rate;
                let drain_start = if flow.ready_at > now {
                    flow.ready_at
                } else {
                    now
                };
                flow.est_done = if flow.remaining <= 0.0 {
                    drain_start
                } else if flow.rate > 0.0 {
                    drain_start + SimDuration::from_secs_f64(flow.remaining / flow.rate)
                } else {
                    SimTime::MAX
                };
            } else {
                // Latency-only local delivery.
                flow.est_done = flow.ready_at;
                flow.remaining = 0.0;
            }
            next_done = Some(next_done.map_or(flow.est_done, |t| t.min(flow.est_done)));
        }
        self.next_done = next_done;
    }

    /// Earliest completion instant among active flows, if any. Settles the
    /// current instant's changes first, so the value is the one every change
    /// applied eagerly would give. The owner should keep exactly one pending
    /// completion event at this time, cancelling and rescheduling whenever the
    /// value changes; asking once after a burst of same-instant changes is
    /// enough.
    pub fn next_completion(&mut self) -> Option<SimTime> {
        self.settle();
        self.next_done
    }

    /// Aborts every active flow matching `pred`, returning them in `FlowId`
    /// order (fault injection: a crashed node or dark link kills its
    /// transfers). Undelivered bytes are *not* counted as delivered; the
    /// surviving flows' rates are recomputed at the instant's settle, exactly
    /// like a completion wave.
    pub fn abort_matching(
        &mut self,
        now: SimTime,
        pred: impl Fn(&FlowSpec) -> bool,
    ) -> Vec<(FlowId, FlowSpec)> {
        self.advance(now);
        let mut aborted = Vec::new();
        let staged_ends = &mut self.staged_ends;
        self.flows.retain(|flow| {
            if !pred(&flow.spec) {
                return true;
            }
            if flow.netted() {
                staged_ends.push(flow.id.0);
            }
            aborted.push((flow.id, flow.spec));
            false
        });
        if !aborted.is_empty() {
            self.dirty = true;
        }
        aborted
    }

    /// Aborts every flow touching `node` — its NIC went dark (crash or link
    /// failure). Returns the aborted flows so the owner can decide which
    /// transfers to retry elsewhere.
    pub fn fail_node(&mut self, now: SimTime, node: NodeId) -> Vec<(FlowId, FlowSpec)> {
        self.abort_matching(now, |s| s.src == node || s.dst == node)
    }

    /// Removes and returns all flows completing at or before `now`, in FlowId
    /// order. The remaining flows' rates are recomputed at the instant's settle.
    pub fn take_completions(&mut self, now: SimTime) -> Vec<(FlowId, FlowSpec)> {
        self.advance(now);
        self.settle();
        if self.next_done.map_or(true, |t| t > now) {
            return Vec::new();
        }
        let mut done = Vec::new();
        let staged_ends = &mut self.staged_ends;
        let bytes_delivered = &mut self.bytes_delivered;
        self.flows.retain(|flow| {
            if flow.est_done > now {
                return true;
            }
            // Account any residual rounding error as delivered.
            *bytes_delivered += flow.remaining.max(0.0);
            if flow.netted() {
                staged_ends.push(flow.id.0);
            }
            done.push((flow.id, flow.spec));
            false
        });
        self.dirty = true;
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(nodes: usize) -> Network {
        // 1 GB/s, 1 ms latency for round numbers.
        Network::new(NetworkConfig {
            nodes,
            link_bandwidth: 1e9,
            latency: SimDuration::from_millis(1),
        })
    }

    fn spec(src: usize, dst: usize, bytes: u64) -> FlowSpec {
        FlowSpec {
            src: NodeId(src),
            dst: NodeId(dst),
            bytes,
            tag: 0,
        }
    }

    #[test]
    fn single_flow_timing() {
        let mut n = net(2);
        n.start_flow(SimTime::ZERO, spec(0, 1, 1_000_000_000));
        // 1 GB at 1 GB/s + 1 ms latency.
        let done = n.next_completion().unwrap();
        assert_eq!(done, SimTime::from_secs(1) + SimDuration::from_millis(1));
        let finished = n.take_completions(done);
        assert_eq!(finished.len(), 1);
        assert_eq!(n.active_flows(), 0);
        assert_eq!(n.bytes_delivered(), 1_000_000_000);
    }

    #[test]
    fn local_flow_is_latency_only() {
        let mut n = net(2);
        n.start_flow(SimTime::ZERO, spec(1, 1, u64::MAX / 4));
        assert_eq!(n.next_completion(), Some(SimTime::from_nanos(1_000_000)));
        assert_eq!(n.take_completions(SimTime::from_nanos(1_000_000)).len(), 1);
    }

    #[test]
    fn two_flows_share_then_speed_up() {
        let mut n = net(3);
        // Both use node 0's egress: share 0.5 GB/s each.
        n.start_flow(SimTime::ZERO, spec(0, 1, 500_000_000));
        n.start_flow(SimTime::ZERO, spec(0, 2, 1_000_000_000));
        // Flow 1 finishes at 1ms + 0.5GB/0.5GBps = ~1.001 s.
        let t1 = n.next_completion().unwrap();
        assert!((t1.as_secs_f64() - 1.001).abs() < 1e-6);
        n.take_completions(t1);
        // Flow 2 drained 0.5 GB so far, then gets the full 1 GB/s: +0.5 s.
        let t2 = n.next_completion().unwrap();
        assert!((t2.as_secs_f64() - 1.501).abs() < 1e-6, "{t2}");
        assert_eq!(n.take_completions(t2).len(), 1);
    }

    #[test]
    fn incast_seven_to_one() {
        // The HP hot-spot: 7 equal flows into node 0 take 7× longer than one.
        let mut n = net(8);
        for s in 1..8 {
            n.start_flow(SimTime::ZERO, spec(s, 0, 100_000_000));
        }
        let done = n.next_completion().unwrap();
        assert!((done.as_secs_f64() - (0.7 + 0.001)).abs() < 1e-6);
        assert_eq!(n.take_completions(done).len(), 7);
    }

    #[test]
    fn later_arrival_slows_existing_flow() {
        let mut n = net(3);
        n.start_flow(SimTime::ZERO, spec(0, 1, 1_000_000_000));
        // At t=0.501s the first flow has ~0.5 GB left; a competitor arrives.
        let t_mid = SimTime::from_nanos(501_000_000);
        n.start_flow(t_mid, spec(0, 2, 250_000_000));
        // First flow now drains at 0.5 GB/s: needs 1 more second.
        let next = n.next_completion().unwrap();
        // Competitor: ready at 0.502, 0.25GB at 0.5GB/s → done ≈ 1.002.
        assert!((next.as_secs_f64() - 1.002).abs() < 1e-6, "{next}");
        let first = n.take_completions(next);
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].1.dst, NodeId(2));
    }

    #[test]
    fn completion_batches_simultaneous_flows() {
        let mut n = net(4);
        n.start_flow(SimTime::ZERO, spec(0, 1, 1_000_000));
        n.start_flow(SimTime::ZERO, spec(2, 3, 1_000_000));
        let t = n.next_completion().unwrap();
        assert_eq!(n.take_completions(t).len(), 2);
        assert!(n.next_completion().is_none());
    }

    #[test]
    fn zero_byte_flow_completes_after_latency() {
        let mut n = net(2);
        n.start_flow(SimTime::ZERO, spec(0, 1, 0));
        assert_eq!(n.next_completion(), Some(SimTime::from_nanos(1_000_000)));
    }

    #[test]
    #[should_panic(expected = "driven backwards")]
    fn time_travel_rejected() {
        let mut n = net(2);
        n.start_flow(SimTime::from_secs(5), spec(0, 1, 10));
        n.take_completions(SimTime::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_endpoint_rejected() {
        let mut n = net(2);
        n.start_flow(SimTime::ZERO, spec(0, 7, 10));
    }

    #[test]
    fn paper_testbed_profile() {
        let c = NetworkConfig::paper_testbed(8);
        assert_eq!(c.nodes, 8);
        assert!((c.link_bandwidth - 0.875e9).abs() < 1.0);
    }

    #[test]
    fn fail_node_aborts_both_directions_and_frees_bandwidth() {
        let mut n = net(4);
        // Node 1 sends, receives, and an unrelated pair shares node 0's egress.
        n.start_flow(SimTime::ZERO, spec(1, 2, 1_000_000_000));
        n.start_flow(SimTime::ZERO, spec(3, 1, 1_000_000_000));
        n.start_flow(SimTime::ZERO, spec(0, 2, 1_000_000_000));
        let aborted = n.fail_node(SimTime::from_nanos(1_000_000), NodeId(1));
        assert_eq!(aborted.len(), 2);
        assert!(aborted
            .iter()
            .all(|(_, s)| s.src == NodeId(1) || s.dst == NodeId(1)));
        assert_eq!(n.active_flows(), 1);
        // The survivor now owns node 2's full ingress: 1 GB at 1 GB/s from the
        // abort instant (it had drained ~0.5 GB/s × ~0 s of payload so far).
        let done = n.next_completion().unwrap();
        assert!(
            done < SimTime::from_secs(2),
            "survivor sped up, done {done}"
        );
        assert_eq!(n.take_completions(done).len(), 1);
    }

    #[test]
    fn aborted_bytes_are_not_delivered() {
        let mut n = net(2);
        n.start_flow(SimTime::ZERO, spec(0, 1, 1_000_000_000));
        // Half way through, kill the receiver.
        let aborted = n.fail_node(SimTime::from_nanos(501_000_000), NodeId(1));
        assert_eq!(aborted.len(), 1);
        // Only the ~0.5 GB drained before the abort counts as delivered.
        let delivered = n.bytes_delivered();
        assert!(
            delivered < 510_000_000 && delivered > 490_000_000,
            "delivered {delivered}"
        );
        assert!(n.next_completion().is_none());
    }

    #[test]
    fn abort_matching_selects_by_tag() {
        let mut n = net(3);
        n.start_flow(
            SimTime::ZERO,
            FlowSpec {
                src: NodeId(0),
                dst: NodeId(1),
                bytes: 1_000,
                tag: 7,
            },
        );
        n.start_flow(
            SimTime::ZERO,
            FlowSpec {
                src: NodeId(0),
                dst: NodeId(2),
                bytes: 1_000,
                tag: 8,
            },
        );
        let aborted = n.abort_matching(SimTime::ZERO, |s| s.tag == 7);
        assert_eq!(aborted.len(), 1);
        assert_eq!(aborted[0].1.tag, 7);
        assert_eq!(n.active_flows(), 1);
    }

    #[test]
    fn abort_matching_nothing_is_noop() {
        let mut n = net(2);
        n.start_flow(SimTime::ZERO, spec(0, 1, 1_000));
        let before = n.next_completion();
        assert!(n.abort_matching(SimTime::ZERO, |s| s.tag == 999).is_empty());
        assert_eq!(n.next_completion(), before);
    }

    #[test]
    fn flow_started_and_aborted_in_one_instant_leaves_no_trace() {
        let mut n = net(3);
        n.start_flow(SimTime::ZERO, spec(0, 1, 1_000_000));
        let before = n.next_completion();
        let t = SimTime::from_nanos(10_000);
        n.start_flow(
            t,
            FlowSpec {
                src: NodeId(0),
                dst: NodeId(2),
                bytes: 1_000_000,
                tag: 9,
            },
        );
        assert_eq!(n.abort_matching(t, |s| s.tag == 9).len(), 1);
        assert_eq!(n.next_completion(), before);
        assert_eq!(n.shares.len(), 1);
        assert_eq!(n.shares.rate(0), 1e9);
        assert!(n.staged_starts.is_empty() && n.staged_ends.is_empty());
    }

    #[test]
    fn tags_round_trip() {
        let mut n = net(2);
        n.start_flow(
            SimTime::ZERO,
            FlowSpec {
                src: NodeId(0),
                dst: NodeId(1),
                bytes: 8,
                tag: 0xDEAD,
            },
        );
        let t = n.next_completion().unwrap();
        assert_eq!(n.take_completions(t)[0].1.tag, 0xDEAD);
    }
}
