//! The replica role: a resident log that answers what each message asks
//! for, plus hash-tree anti-entropy with its peers on a timer.

use std::sync::Arc;

use relax_sim::NodeId;

use crate::backend::{LayerCounts, Transport};
use crate::log::{DiffScratch, Log};
use crate::merkle::NodeRange;
use crate::protocol::wire::{reuse, Msg};
use crate::types::ReplicatedType;

/// A replica site's state: the resident log plus gossip bookkeeping.
pub struct ReplicaState<T: ReplicatedType> {
    /// The resident log (stable storage; survives crashes).
    log: Log<T::Op>,
    /// Gossip interval in ticks (`None` disables anti-entropy).
    gossip: Option<u64>,
    /// All replicas (gossip peers; shared, not cloned per node).
    peers: Arc<[NodeId]>,
    /// Timer generation: stale timer tokens are ignored, and received
    /// protocol messages re-arm the timer (so replicas that lost their
    /// timer while crashed resume gossiping on first contact). Merkle
    /// sync messages do *not* re-arm: a probed replica must keep its own
    /// probe cadence, or a chatty peer would starve the reverse
    /// direction of the sync.
    epoch: u64,
    /// The `merkle_*` tallies.
    pub(crate) counts: LayerCounts,
    /// Batched leaf payloads, valid for `leaf_cache_version` only: each
    /// divergent range is materialized once and shared across every peer
    /// that requests it.
    leaf_cache: Vec<(NodeRange, Arc<Log<T::Op>>)>,
    /// The `(len, prefix_hash)` log version `leaf_cache` was built
    /// against; any local change invalidates the whole cache.
    leaf_cache_version: (usize, u64),
    /// Reusable diff buffers for the read hot path.
    scratch: DiffScratch,
    /// By requesting node: the read response sent to it last, refilled
    /// for its next request once it has let go of it.
    read_resps: Vec<Option<Arc<Log<T::Op>>>>,
}

// Manual impl: the derive would demand `T: Debug`, which the trait does
// not require.
impl<T: ReplicatedType> std::fmt::Debug for ReplicaState<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaState")
            .field("log_len", &self.log.len())
            .field("gossip", &self.gossip)
            .field("epoch", &self.epoch)
            .finish_non_exhaustive()
    }
}

impl<T: ReplicatedType> ReplicaState<T> {
    /// A fresh replica over the given peer set. Both backends construct
    /// their replicas through this: the sim wraps them in
    /// [`crate::sim_exec::RoleNode`]s, the threaded backend hands each to
    /// a broker worker thread.
    pub(crate) fn new(peers: Arc<[NodeId]>) -> Self {
        ReplicaState {
            log: Log::new(),
            gossip: None,
            peers,
            epoch: 0,
            counts: LayerCounts::default(),
            leaf_cache: Vec::new(),
            leaf_cache_version: (0, 0),
            scratch: DiffScratch::default(),
            read_resps: Vec::new(),
        }
    }

    /// The resident log.
    pub(crate) fn log(&self) -> &Log<T::Op> {
        &self.log
    }

    /// Sets the anti-entropy interval; the executor's
    /// [`Msg::GossipKick`] then arms the first timer.
    pub(crate) fn set_gossip(&mut self, interval: u64) {
        self.gossip = Some(interval);
    }

    /// The divergent-leaf payload for `r`, materialized once per log
    /// version and Arc-shared across every peer that requests it.
    fn leaf_payload(&mut self, r: NodeRange) -> Arc<Log<T::Op>> {
        let version = (self.log.len(), self.log.prefix_hash(self.log.len()));
        if self.leaf_cache_version != version {
            self.leaf_cache.clear();
            self.leaf_cache_version = version;
        }
        if let Some((_, payload)) = self.leaf_cache.iter().find(|(k, _)| *k == r) {
            self.counts.merkle_leaf_reuses += 1;
            return Arc::clone(payload);
        }
        let (lo, hi) = r.range();
        let payload = Arc::new(self.log.entries_in_range(r.site, lo, hi));
        self.leaf_cache.push((r, Arc::clone(&payload)));
        payload
    }

    pub(crate) fn on_message(&mut self, ctx: &mut impl Transport<T>, from: NodeId, msg: Msg<T>) {
        // Merkle sync messages don't re-arm the gossip timer: the walk
        // is driven by each side's own probe cadence, and resetting the
        // countdown on every probe would let one talkative peer starve
        // the reverse sync direction forever.
        let rearm = !matches!(
            msg,
            Msg::MerkleSummary { .. } | Msg::MerkleRequest { .. } | Msg::MerkleEntries { .. }
        );
        match msg {
            Msg::ReadReq { inv_id, known } => {
                if self.read_resps.len() <= from.0 {
                    self.read_resps.resize(from.0 + 1, None);
                }
                let slot = self.read_resps[from.0].get_or_insert_with(Arc::default);
                match known {
                    // Only the entries above the client's advertised
                    // frontier.
                    Some(f) => self
                        .log
                        .delta_above_into(&f, &mut self.scratch, reuse(slot)),
                    None => reuse(slot).clone_from(&self.log),
                }
                let log = Arc::clone(slot);
                ctx.send(from, Msg::ReadResp { inv_id, log });
            }
            Msg::WriteReq { inv_id, log: view } => {
                self.log.merge(&view);
                ctx.send(from, Msg::WriteAck { inv_id });
            }
            Msg::MerkleSummary { nodes } => {
                // Compare each advertised node against our own tree:
                // matching ranges are settled, mismatched internal nodes
                // get expanded next round, mismatched leaves get shipped.
                let idx = self.log.merkle_index();
                let mut expand: Vec<NodeRange> = Vec::new();
                let mut leaves: Vec<NodeRange> = Vec::new();
                for n in nodes.iter() {
                    if idx.node(n.site, n.level, n.index) == (n.count, n.hash) {
                        continue;
                    }
                    let r = NodeRange {
                        site: n.site,
                        level: n.level,
                        index: n.index,
                    };
                    if n.level == 0 {
                        leaves.push(r);
                    } else {
                        expand.push(r);
                    }
                }
                if !expand.is_empty() || !leaves.is_empty() {
                    ctx.send(from, Msg::MerkleRequest { expand, leaves });
                }
            }
            Msg::MerkleRequest { expand, leaves } => {
                self.counts.merkle_sync_rounds += 1;
                if !expand.is_empty() {
                    let mut children = Vec::new();
                    let idx = self.log.merkle_index();
                    for r in &expand {
                        idx.children_into(r.site, r.level, r.index, &mut children);
                    }
                    self.counts.merkle_nodes_exchanged += children.len() as u64;
                    ctx.send(
                        from,
                        Msg::MerkleSummary {
                            nodes: Arc::new(children),
                        },
                    );
                }
                for r in leaves {
                    let payload = self.leaf_payload(r);
                    ctx.send(from, Msg::MerkleEntries { log: payload });
                }
            }
            Msg::MerkleEntries { log } => {
                self.log.merge(&log);
            }
            _ => {}
        }
        // Any other contact (including the kick) re-arms the gossip
        // timer under a fresh epoch.
        if rearm {
            self.rearm_gossip(ctx);
        }
    }

    /// Re-arms the anti-entropy timer under a fresh epoch — the one
    /// place the re-arm/suppress rule lives, shared by the
    /// contact-triggered and timer-triggered paths. No-op when gossip is
    /// disabled.
    fn rearm_gossip(&mut self, ctx: &mut impl Transport<T>) {
        if let Some(interval) = self.gossip {
            self.epoch += 1;
            ctx.set_timer(interval, self.epoch);
        }
    }

    /// A timer fired: run a gossip turn unless the token is stale.
    pub(crate) fn on_timer(&mut self, ctx: &mut impl Transport<T>, token: u64) {
        if token != self.epoch {
            return; // stale timer from a previous epoch
        }
        self.on_gossip_timer(ctx);
    }

    fn on_gossip_timer(&mut self, ctx: &mut impl Transport<T>) {
        if self.gossip.is_none() {
            return;
        }
        let me = ctx.me();
        // Broadcast one Arc-shared root summary to every peer (carbon's
        // batched-root idiom): each receiver replies only if its own
        // tree disagrees, and the localization walk proceeds within the
        // interval. No randomness is drawn, so gossip cannot perturb the
        // client protocol's rng stream.
        let roots = self.log.merkle_index().roots();
        if !roots.is_empty() {
            let nodes = Arc::new(roots);
            self.counts.merkle_sync_rounds += 1;
            let peers = Arc::clone(&self.peers);
            for &p in peers.iter().filter(|&&p| p != me) {
                self.counts.merkle_nodes_exchanged += nodes.len() as u64;
                ctx.send(
                    p,
                    Msg::MerkleSummary {
                        nodes: Arc::clone(&nodes),
                    },
                );
            }
        }
        self.rearm_gossip(ctx);
    }
}
