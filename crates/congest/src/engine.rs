//! The superstep engine, built around a flat CSR mailbox arena.
//!
//! A superstep stages every emitted message into one contiguous buffer
//! (ordered by source), charges it against precomputed per-directed-edge
//! slots, then counting-sorts it into a second contiguous delivery buffer
//! indexed by destination. All index/accounting scratch (slot loads, the
//! touched-slot list, inbox offsets) lives in a reusable [`MailboxArena`],
//! so after warm-up a superstep performs no per-node allocations — the only
//! per-call allocations are the two flat message buffers, and quiescence
//! loops ([`Network::run_until_quiet`]) reuse even those across supersteps.
//! Accounting is *sparse*: only slots that actually carried words are
//! visited, so an almost-quiet superstep costs O(active) rather than O(m).
//!
//! ## Scoped supersteps
//!
//! A full superstep still evaluates `send` for all `n` nodes and lays out
//! `n` inbox windows, so a protocol that only involves a small vertex set
//! (one recursion subproblem, one part collection) pays O(n) per superstep
//! regardless of how quiet the network is. The *scoped* entry points
//! ([`superstep_on`](Network::superstep_on),
//! [`run_until_quiet_on`](Network::run_until_quiet_on)) take a sorted
//! active-node list and positional states (`states[i]` belongs to
//! `active[i]`): `send`/`recv` run only over the active set and every piece
//! of delivery bookkeeping is reset sparsely, so a scoped superstep costs
//! O(active + messages). The charged metrics are **identical** to running
//! the full superstep with `send` returning nothing outside the active set
//! — the staged message multiset, and hence every counter, is the same.
//! Messages must stay inside the active set
//! ([`CongestError::InactiveRecipient`] otherwise).

use crate::error::CongestError;
use crate::metrics::{Metrics, PhaseSnapshot};
use crate::projection::{EdgeProjection, NO_SLOT};
use crate::wire::WireMsg;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use twgraph::UGraph;

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct NetworkConfig {
    /// Words each edge carries per direction per round (`W`; default 1 —
    /// the classical CONGEST normalization of one O(log n)-bit message).
    pub bandwidth_words: u64,
    /// Seed for the unique O(log n)-bit node identifiers.
    pub seed: u64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            bandwidth_words: 1,
            seed: 0xC0FFEE,
        }
    }
}

/// The messages delivered to one node in a superstep: a window into the
/// flat delivery arena. Iterating by value (`for (src, msg) in inbox`)
/// moves each message out of the arena; [`iter`](Inbox::iter) borrows.
/// Messages arrive ordered by source id.
pub struct Inbox<'a, M> {
    slots: &'a mut [Option<(u32, M)>],
}

impl<'a, M> Inbox<'a, M> {
    /// Number of delivered messages.
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether nothing was delivered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The first message (lowest source id), by reference.
    #[inline]
    pub fn first(&self) -> Option<&(u32, M)> {
        self.slots
            .first()
            .map(|s| s.as_ref().expect("message already taken"))
    }

    /// Borrowing iterator over `(source, payload)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = &(u32, M)> + '_ {
        self.slots
            .iter()
            .map(|s| s.as_ref().expect("message already taken"))
    }
}

impl<'a, M> IntoIterator for Inbox<'a, M> {
    type Item = (u32, M);
    type IntoIter = InboxIter<'a, M>;

    fn into_iter(self) -> InboxIter<'a, M> {
        InboxIter {
            inner: self.slots.iter_mut(),
        }
    }
}

/// By-value iterator over an [`Inbox`] (see [`Inbox`]).
pub struct InboxIter<'a, M> {
    inner: std::slice::IterMut<'a, Option<(u32, M)>>,
}

impl<'a, M> Iterator for InboxIter<'a, M> {
    type Item = (u32, M);

    #[inline]
    fn next(&mut self) -> Option<(u32, M)> {
        self.inner
            .next()
            .map(|s| s.take().expect("message already taken"))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<'a, M> ExactSizeIterator for InboxIter<'a, M> {}

/// Reusable accounting scratch: zeroed between supersteps, never shrunk.
#[derive(Default)]
struct MailboxArena {
    /// Words accumulated per physical directed-edge slot this superstep.
    /// Invariant between supersteps: all zeros (reset via `touched`).
    slot_words: Vec<u64>,
    /// The slots dirtied this superstep (sparse reset + sparse max/sum).
    touched: Vec<u32>,
    /// Per-node inbox cursor (counts, then scatter positions). The dense
    /// path refills it whole; the scoped path touches active entries only,
    /// resetting them on entry (stale entries outside an active set are
    /// never read).
    cursor: Vec<usize>,
    /// Per-node inbox offsets into the delivery buffer (`n + 1` entries for
    /// the dense path; scatter positions per active node for the scoped
    /// path).
    inbox_off: Vec<usize>,
    /// Membership stamp of the current scoped superstep's active set:
    /// `active_stamp[v] == active_epoch` iff `v` is active. Bumping the
    /// epoch clears the whole set in O(1).
    active_stamp: Vec<u64>,
    /// Generation counter for `active_stamp`.
    active_epoch: u64,
}

/// A simulated CONGEST network over a fixed communication graph.
///
/// The network owns the topology, the cost accounting and the node
/// identifiers; *algorithm state* lives outside in a `Vec<S>` supplied to
/// [`superstep`](Network::superstep), so one network can run many protocols
/// back to back while accumulating a single round count.
pub struct Network {
    g: Arc<UGraph>,
    /// CSR offsets mirroring `g` (`adj_off[v]..adj_off[v+1]` indexes the
    /// sorted neighbour array below).
    adj_off: Vec<u32>,
    /// Undirected edge id per adjacency slot (edge id = rank in the sorted
    /// `(lo, hi)` edge list, as in [`UGraph::edges`]).
    adj_eids: Vec<u32>,
    /// Per virtual edge id: physical directed slot of the lo→hi direction
    /// ([`NO_SLOT`] = free node-local edge).
    slot_fwd: Vec<u32>,
    /// Per virtual edge id: physical directed slot of the hi→lo direction.
    slot_rev: Vec<u32>,
    cfg: NetworkConfig,
    metrics: Metrics,
    /// Unique random O(log n)-bit node ids (the model's identifiers).
    uids: Vec<u64>,
    arena: MailboxArena,
    phase_log: Vec<PhaseSnapshot>,
}

impl Network {
    /// A physical network on the communication graph `g`.
    pub fn new(g: UGraph, cfg: NetworkConfig) -> Self {
        let projection = EdgeProjection::identity(&g);
        Self::with_projection(g, projection, cfg)
    }

    /// A (possibly virtual) network whose word traffic is charged through
    /// `projection` onto physical edges.
    pub fn with_projection(g: UGraph, projection: EdgeProjection, cfg: NetworkConfig) -> Self {
        let n = g.n();
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut uids: Vec<u64> = (0..n as u64)
            .map(|v| (v << 32) | rng.gen::<u32>() as u64)
            .collect();
        // The high half guarantees uniqueness; shuffle the order relation by
        // rotating so uid order is unrelated to index order.
        for u in uids.iter_mut() {
            *u = u.rotate_left(32);
        }

        // Flatten the adjacency into a CSR mirror annotated with edge ids,
        // so `{u, v} → edge id` is one binary search in u's neighbour list.
        let mut adj_off = Vec::with_capacity(n + 1);
        adj_off.push(0u32);
        for v in 0..n as u32 {
            adj_off.push(adj_off[v as usize] + g.degree(v) as u32);
        }
        let mut adj_eids = vec![0u32; adj_off[n] as usize];
        for (eid, (u, v)) in g.edges().enumerate() {
            for (a, b) in [(u, v), (v, u)] {
                let lo = adj_off[a as usize] as usize;
                let pos = g
                    .neighbors(a)
                    .binary_search(&b)
                    .expect("edge ids out of sync");
                adj_eids[lo + pos] = eid as u32;
            }
        }
        let (slot_fwd, slot_rev) = projection.slot_tables();
        debug_assert_eq!(slot_fwd.len(), g.m());

        let arena = MailboxArena {
            slot_words: vec![0u64; projection.n_physical_edges() * 2],
            touched: Vec::new(),
            cursor: vec![0usize; n],
            inbox_off: vec![0usize; n + 1],
            active_stamp: vec![0u64; n],
            active_epoch: 0,
        };
        Network {
            g: Arc::new(g),
            adj_off,
            adj_eids,
            slot_fwd,
            slot_rev,
            cfg,
            metrics: Metrics::default(),
            uids,
            arena,
            phase_log: Vec::new(),
        }
    }

    /// The communication graph.
    #[inline]
    pub fn graph(&self) -> &UGraph {
        &self.g
    }

    /// A shared handle to the communication graph — a refcount bump, not a
    /// topology copy. Algorithms that need the adjacency inside `send`/
    /// `recv` closures (while the network itself is mutably borrowed) take
    /// this instead of cloning O(n + m) state per invocation.
    #[inline]
    pub fn graph_handle(&self) -> Arc<UGraph> {
        Arc::clone(&self.g)
    }

    /// Node count.
    #[inline]
    pub fn n(&self) -> usize {
        self.g.n()
    }

    /// The unique identifier of node `v`.
    #[inline]
    pub fn uid(&self, v: u32) -> u64 {
        self.uids[v as usize]
    }

    /// Accumulated metrics.
    #[inline]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Engine configuration.
    #[inline]
    pub fn config(&self) -> &NetworkConfig {
        &self.cfg
    }

    /// Charge rounds outside message traffic (global O(D)-round control
    /// pulses by the orchestrator; see DESIGN.md §4.4).
    pub fn charge_rounds(&mut self, rounds: u64) {
        self.metrics.note_charged(rounds);
    }

    /// Close the current accounting phase under `phase` (see
    /// [`Metrics::snapshot`]) and append it to the network's phase log.
    pub fn snapshot(&mut self, phase: &str) -> PhaseSnapshot {
        let snap = self.metrics.snapshot(phase);
        self.phase_log.push(snap.clone());
        snap
    }

    /// Every phase recorded via [`snapshot`](Network::snapshot), in order.
    #[inline]
    pub fn phase_log(&self) -> &[PhaseSnapshot] {
        &self.phase_log
    }

    /// Phase 1: evaluate `send` for every node and append the emitted
    /// messages to the flat staging buffer as `(src, dst, payload)`,
    /// ordered by source.
    fn stage_sends<S, M>(
        &self,
        states: &[S],
        send: &impl Fn(u32, &S) -> Vec<(u32, M)>,
        stage: &mut Vec<(u32, u32, M)>,
    ) where
        M: WireMsg,
    {
        stage.clear();
        for (u, s) in states.iter().enumerate() {
            for (v, m) in send(u as u32, s) {
                stage.push((u as u32, v, m));
            }
        }
    }

    /// Scoped phase 1: evaluate `send` over the active nodes only
    /// (`states[i]` belongs to `active[i]`). The active list is sorted, so
    /// the stage comes out source-ascending exactly like the dense path.
    fn stage_sends_on<S, M>(
        &self,
        active: &[u32],
        states: &[S],
        send: &impl Fn(u32, &S) -> Vec<(u32, M)>,
        stage: &mut Vec<(u32, u32, M)>,
    ) where
        M: WireMsg,
    {
        stage.clear();
        for (i, &u) in active.iter().enumerate() {
            for (v, m) in send(u, &states[i]) {
                stage.push((u, v, m));
            }
        }
    }

    /// Phase 2 (shared): validate and charge the staged messages, count
    /// them per destination into `arena.cursor` (which the caller must have
    /// reset for every possible destination), and record the superstep in
    /// the metrics. When `scoped` is set, destinations must carry the
    /// current active stamp. On error the slot accounting is rolled back
    /// and nothing is charged.
    fn charge_stage<M: WireMsg>(
        &mut self,
        stage: &[(u32, u32, M)],
        scoped: bool,
    ) -> Result<u64, CongestError> {
        let Network {
            g,
            arena,
            adj_off,
            adj_eids,
            slot_fwd,
            slot_rev,
            ..
        } = self;
        // Defensive reset: an aborted earlier superstep may have left slots
        // dirty mid-accounting; normal supersteps drain `touched` on exit,
        // so this is free.
        for s in arena.touched.drain(..) {
            arena.slot_words[s as usize] = 0;
        }
        let mut failure = None;
        for &(u, v, ref m) in stage.iter() {
            let lo = adj_off[u as usize] as usize;
            let eid = match g.neighbors(u).binary_search(&v) {
                Ok(pos) => adj_eids[lo + pos],
                Err(_) => {
                    failure = Some(CongestError::NonNeighborSend { from: u, to: v });
                    break;
                }
            };
            if scoped && arena.active_stamp[v as usize] != arena.active_epoch {
                failure = Some(CongestError::InactiveRecipient { from: u, to: v });
                break;
            }
            let w = m.words();
            debug_assert!(w >= 1, "zero-word message");
            let slot = if u < v {
                slot_fwd[eid as usize]
            } else {
                slot_rev[eid as usize]
            };
            if slot != NO_SLOT {
                if arena.slot_words[slot as usize] == 0 {
                    arena.touched.push(slot);
                }
                arena.slot_words[slot as usize] += w;
            }
            arena.cursor[v as usize] += 1;
        }
        if let Some(e) = failure {
            // Roll back so the arena invariant (all slot loads zero) holds
            // and a failed superstep charges nothing. The per-destination
            // counts are re-zeroed by the next superstep's reset.
            for s in arena.touched.drain(..) {
                arena.slot_words[s as usize] = 0;
            }
            return Err(e);
        }
        let max_slot = arena
            .touched
            .iter()
            .map(|&s| arena.slot_words[s as usize])
            .max()
            .unwrap_or(0);
        let words: u64 = arena
            .touched
            .iter()
            .map(|&s| arena.slot_words[s as usize])
            .sum();
        let bw = self.cfg.bandwidth_words;
        let rounds = self
            .arena
            .touched
            .iter()
            .map(|&s| self.arena.slot_words[s as usize].div_ceil(bw))
            .max()
            .unwrap_or(0)
            .max(1);
        for s in self.arena.touched.drain(..) {
            self.arena.slot_words[s as usize] = 0;
        }
        self.metrics
            .note_superstep(rounds, stage.len() as u64, words, max_slot);
        Ok(rounds)
    }

    /// Phases 2–4: validate and charge the staged messages, counting-sort
    /// them into the delivery buffer, and run `recv` over every node's
    /// inbox window. Drains `stage`; returns the rounds charged.
    fn deliver_staged<S, M>(
        &mut self,
        states: &mut [S],
        stage: &mut Vec<(u32, u32, M)>,
        deliv: &mut Vec<Option<(u32, M)>>,
        recv: &impl Fn(u32, &mut S, Inbox<'_, M>),
    ) -> Result<u64, CongestError>
    where
        M: WireMsg,
    {
        let n = states.len();

        // Phase 2: validate, account (sparsely — only touched slots).
        self.arena.cursor[..n].fill(0);
        let rounds = self.charge_stage(stage, false)?;
        let arena = &mut self.arena;

        // Phase 3: counting-sort delivery into the flat mailbox. The stage
        // is source-ascending and the sort is stable, so every inbox window
        // ends up ordered by source.
        arena.inbox_off[0] = 0;
        for v in 0..n {
            arena.inbox_off[v + 1] = arena.inbox_off[v] + arena.cursor[v];
        }
        arena.cursor[..n].copy_from_slice(&arena.inbox_off[..n]);
        deliv.clear();
        deliv.resize_with(stage.len(), || None);
        for (u, v, m) in stage.drain(..) {
            let p = arena.cursor[v as usize];
            arena.cursor[v as usize] += 1;
            deliv[p] = Some((u, m));
        }

        // Phase 4: deliver each node its window of the delivery buffer.
        let inbox_off = &arena.inbox_off;
        let mut rest = &mut deliv[..];
        for (v, s) in states.iter_mut().enumerate() {
            let (window, r) = rest.split_at_mut(inbox_off[v + 1] - inbox_off[v]);
            rest = r;
            recv(v as u32, s, Inbox { slots: window });
        }
        Ok(rounds)
    }

    /// Scoped phases 2–4: all bookkeeping is reset and laid out over the
    /// active list only, so the cost is O(active + messages) instead of
    /// O(n). Inbox windows appear in active order (source-ascending within
    /// each window, as in the dense path).
    fn deliver_staged_on<S, M>(
        &mut self,
        active: &[u32],
        states: &mut [S],
        stage: &mut Vec<(u32, u32, M)>,
        deliv: &mut Vec<Option<(u32, M)>>,
        recv: &impl Fn(u32, &mut S, Inbox<'_, M>),
    ) -> Result<u64, CongestError>
    where
        M: WireMsg,
    {
        // Stamp the active set (O(1) clear via the epoch bump) and reset
        // this set's per-destination counts. A whole-graph active set (a
        // scoped protocol that happens to span everything, e.g. a top-level
        // flow) skips the stamping: every recipient is trivially active and
        // the dense vectorized reset beats n scattered writes.
        let full = active.len() == self.g.n();
        if full {
            self.arena.cursor[..active.len()].fill(0);
        } else {
            self.arena.active_epoch += 1;
            for &v in active {
                self.arena.active_stamp[v as usize] = self.arena.active_epoch;
                self.arena.cursor[v as usize] = 0;
            }
        }
        let rounds = self.charge_stage(stage, !full)?;
        let arena = &mut self.arena;

        // Scatter positions per active node, in active order.
        let mut off = 0usize;
        for &v in active {
            arena.inbox_off[v as usize] = off;
            off += arena.cursor[v as usize];
        }
        deliv.clear();
        deliv.resize_with(stage.len(), || None);
        for (u, v, m) in stage.drain(..) {
            let p = arena.inbox_off[v as usize];
            arena.inbox_off[v as usize] += 1;
            deliv[p] = Some((u, m));
        }

        // Deliver sequentially over the active windows (they are laid out
        // contiguously in active order).
        let mut rest = &mut deliv[..];
        for (i, &v) in active.iter().enumerate() {
            let (window, r) = rest.split_at_mut(arena.cursor[v as usize]);
            rest = r;
            recv(v, &mut states[i], Inbox { slots: window });
        }
        Ok(rounds)
    }

    /// Execute one superstep.
    ///
    /// * `send(v, &state)` returns the messages node `v` emits as
    ///   `(neighbor, payload)` pairs — sending to a non-neighbor is a model
    ///   violation and returns [`CongestError::NonNeighborSend`] (nothing
    ///   is charged or delivered in that case).
    /// * `recv(v, &mut state, inbox)` consumes the delivered messages as
    ///   `(source, payload)` pairs, ordered by source id.
    ///
    /// Returns the number of rounds charged:
    /// `max(1, max_slot ⌈words(slot)/W⌉)` over physical directed edges.
    pub fn superstep<S, M>(
        &mut self,
        states: &mut [S],
        send: impl Fn(u32, &S) -> Vec<(u32, M)>,
        recv: impl Fn(u32, &mut S, Inbox<'_, M>),
    ) -> Result<u64, CongestError>
    where
        M: WireMsg,
    {
        assert_eq!(
            states.len(),
            self.g.n(),
            "state vector must match node count"
        );
        let mut stage = Vec::new();
        let mut deliv = Vec::new();
        self.stage_sends(states, &send, &mut stage);
        self.deliver_staged(states, &mut stage, &mut deliv, &recv)
    }

    /// Execute one superstep scoped to `active` (sorted, unique node ids).
    ///
    /// States are *positional*: `states[i]` is the state of `active[i]`, so
    /// a protocol over k nodes allocates k states, not n. `send`/`recv` are
    /// evaluated for active nodes only and every message must target an
    /// active node. Charged exactly like [`superstep`](Network::superstep)
    /// with `send` empty outside the active set.
    pub fn superstep_on<S, M>(
        &mut self,
        active: &[u32],
        states: &mut [S],
        send: impl Fn(u32, &S) -> Vec<(u32, M)>,
        recv: impl Fn(u32, &mut S, Inbox<'_, M>),
    ) -> Result<u64, CongestError>
    where
        M: WireMsg,
    {
        assert_eq!(
            states.len(),
            active.len(),
            "positional states must match the active list"
        );
        debug_assert!(
            active.windows(2).all(|w| w[0] < w[1]),
            "active list must be sorted+unique"
        );
        debug_assert!(active.iter().all(|&v| (v as usize) < self.g.n()));
        let mut stage = Vec::new();
        let mut deliv = Vec::new();
        self.stage_sends_on(active, states, &send, &mut stage);
        self.deliver_staged_on(active, states, &mut stage, &mut deliv, &recv)
    }

    /// Run supersteps until `send` produces no messages anywhere (a
    /// quiescence-driven loop, e.g. flooding). The final silent superstep is
    /// *not* charged. Returns the number of productive supersteps.
    ///
    /// `send` must be a pure function of the state. The staged messages of
    /// the quiescence probe are delivered directly (send is evaluated once
    /// per superstep), and the flat message buffers are reused across the
    /// whole loop.
    pub fn run_until_quiet<S, M>(
        &mut self,
        states: &mut [S],
        send: impl Fn(u32, &S) -> Vec<(u32, M)>,
        recv: impl Fn(u32, &mut S, Inbox<'_, M>),
        max_supersteps: u64,
    ) -> Result<u64, CongestError>
    where
        M: WireMsg,
    {
        assert_eq!(
            states.len(),
            self.g.n(),
            "state vector must match node count"
        );
        let mut steps = 0;
        let mut stage = Vec::new();
        let mut deliv = Vec::new();
        loop {
            assert!(
                steps < max_supersteps,
                "run_until_quiet exceeded {max_supersteps} supersteps"
            );
            self.stage_sends(states, &send, &mut stage);
            if stage.is_empty() {
                return Ok(steps);
            }
            self.deliver_staged(states, &mut stage, &mut deliv, &recv)?;
            steps += 1;
        }
    }

    /// [`run_until_quiet`](Network::run_until_quiet) scoped to `active`
    /// (sorted, unique) with positional states — the quiescence loop for
    /// subproblem-local floods. Cost per superstep is O(active + messages).
    pub fn run_until_quiet_on<S, M>(
        &mut self,
        active: &[u32],
        states: &mut [S],
        send: impl Fn(u32, &S) -> Vec<(u32, M)>,
        recv: impl Fn(u32, &mut S, Inbox<'_, M>),
        max_supersteps: u64,
    ) -> Result<u64, CongestError>
    where
        M: WireMsg,
    {
        assert_eq!(
            states.len(),
            active.len(),
            "positional states must match the active list"
        );
        debug_assert!(
            active.windows(2).all(|w| w[0] < w[1]),
            "active list must be sorted+unique"
        );
        let mut steps = 0;
        let mut stage = Vec::new();
        let mut deliv = Vec::new();
        loop {
            assert!(
                steps < max_supersteps,
                "run_until_quiet_on exceeded {max_supersteps} supersteps"
            );
            self.stage_sends_on(active, states, &send, &mut stage);
            if stage.is_empty() {
                return Ok(steps);
            }
            self.deliver_staged_on(active, states, &mut stage, &mut deliv, &recv)?;
            steps += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twgraph::gen::{gnp, path};

    #[derive(Clone, Default)]
    struct FloodState {
        dist: Option<u32>,
        fresh: bool,
    }

    /// Distributed BFS flood; returns (dists, supersteps).
    fn flood(net: &mut Network, src: u32) -> Vec<Option<u32>> {
        let n = net.n();
        let mut states = vec![FloodState::default(); n];
        states[src as usize] = FloodState {
            dist: Some(0),
            fresh: true,
        };
        let g = net.graph().clone();
        net.run_until_quiet(
            &mut states,
            |u, s: &FloodState| {
                if s.fresh {
                    let d = s.dist.unwrap();
                    g.neighbors(u).iter().map(|&v| (v, d + 1)).collect()
                } else {
                    Vec::new()
                }
            },
            |_v, s, inbox| {
                s.fresh = false;
                for (_src, d) in inbox {
                    if s.dist.map_or(true, |cur| d < cur) {
                        s.dist = Some(d);
                        s.fresh = true;
                    }
                }
            },
            10_000,
        )
        .unwrap();
        states.into_iter().map(|s| s.dist).collect()
    }

    #[test]
    fn flood_on_path_costs_diameter_rounds() {
        let g = path(10);
        let mut net = Network::new(g, NetworkConfig::default());
        let dists = flood(&mut net, 0);
        for (v, d) in dists.iter().enumerate() {
            assert_eq!(*d, Some(v as u32));
        }
        // Nine propagation supersteps plus the last node's final echo.
        assert_eq!(net.metrics().rounds, 10);
        assert_eq!(net.metrics().max_edge_words_in_superstep, 1);
    }

    #[test]
    fn big_messages_charge_extra_rounds() {
        let g = path(2);
        let mut net = Network::new(g, NetworkConfig::default());
        let mut states = vec![0u64; 2];
        let rounds = net
            .superstep(
                &mut states,
                |u, _s| {
                    if u == 0 {
                        vec![(1u32, vec![7u32; 5])] // one 5-word message
                    } else {
                        Vec::new()
                    }
                },
                |_v, s, inbox| {
                    if let Some((_, payload)) = inbox.first() {
                        *s = payload.len() as u64;
                    }
                },
            )
            .unwrap();
        assert_eq!(rounds, 5);
        assert_eq!(states[1], 5);
        assert_eq!(net.metrics().words, 5);
    }

    #[test]
    fn wider_bandwidth_reduces_rounds() {
        let g = path(2);
        let cfg = NetworkConfig {
            bandwidth_words: 4,
            ..Default::default()
        };
        let mut net = Network::new(g, cfg);
        let mut states = vec![(); 2];
        let rounds = net
            .superstep(
                &mut states,
                |u, _s| {
                    if u == 0 {
                        vec![(1u32, vec![0u32; 8])]
                    } else {
                        Vec::new()
                    }
                },
                |_v, _s, _inbox| {},
            )
            .unwrap();
        assert_eq!(rounds, 2); // ⌈8/4⌉
    }

    #[test]
    fn both_directions_accounted_separately() {
        let g = path(2);
        let mut net = Network::new(g, NetworkConfig::default());
        let mut states = vec![(); 2];
        // One word each way in the same superstep: full-duplex, 1 round.
        let rounds = net
            .superstep(
                &mut states,
                |u, _s| vec![(1 - u, 1u32)],
                |_v, _s, _inbox| {},
            )
            .unwrap();
        assert_eq!(rounds, 1);
    }

    #[test]
    fn sending_to_non_neighbor_errors() {
        let g = path(3); // 0-1-2: 0 and 2 not adjacent
        let mut net = Network::new(g, NetworkConfig::default());
        let mut states = vec![(); 3];
        let err = net
            .superstep(
                &mut states,
                |u, _s| {
                    if u == 0 {
                        vec![(2u32, 1u32)]
                    } else {
                        Vec::new()
                    }
                },
                |_v, _s, _inbox| {},
            )
            .unwrap_err();
        assert_eq!(err, CongestError::NonNeighborSend { from: 0, to: 2 });
        // A failed superstep charges nothing.
        assert_eq!(net.metrics().rounds, 0);
        assert_eq!(net.metrics().supersteps, 0);
    }

    #[test]
    fn inbox_sorted_by_source() {
        let g = twgraph::UGraph::from_edges(4, [(3, 0), (3, 1), (3, 2)]);
        let mut net = Network::new(g, NetworkConfig::default());
        let mut states: Vec<Vec<u32>> = vec![Vec::new(); 4];
        net.superstep(
            &mut states,
            |u, _s| if u != 3 { vec![(3u32, u)] } else { Vec::new() },
            |v, s, inbox| {
                if v == 3 {
                    *s = inbox.iter().map(|&(src, _)| src).collect();
                }
            },
        )
        .unwrap();
        assert_eq!(states[3], vec![0, 1, 2]);
    }

    #[test]
    fn uids_unique() {
        let g = path(100);
        let net = Network::new(g, NetworkConfig::default());
        let mut ids: Vec<u64> = (0..100).map(|v| net.uid(v)).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 100);
    }

    #[test]
    fn charged_rounds_tracked() {
        let g = path(2);
        let mut net = Network::new(g, NetworkConfig::default());
        net.charge_rounds(7);
        assert_eq!(net.metrics().rounds, 7);
        assert_eq!(net.metrics().charged_rounds, 7);
    }

    #[test]
    fn virtual_local_edges_are_free() {
        // Physical: 0-1. Virtual: 4 nodes, host v/2; local virtual edges
        // (0,1) and (2,3) must not be charged.
        let phys = path(2);
        let virt = twgraph::UGraph::from_edges(4, [(0, 1), (2, 3), (0, 2)]);
        let proj = crate::EdgeProjection::from_hosts(&virt, &phys, |v| v / 2).unwrap();
        let mut net = Network::with_projection(virt, proj, NetworkConfig::default());
        let mut states = vec![(); 4];
        // Heavy local chatter + one physical word: still 1 round.
        let rounds = net
            .superstep(
                &mut states,
                |u, _s| match u {
                    0 => vec![(1u32, vec![9u32; 100]), (2u32, vec![1u32; 1])],
                    3 => vec![(2u32, vec![9u32; 50])],
                    _ => Vec::new(),
                },
                |_v, _s, _inbox| {},
            )
            .unwrap();
        assert_eq!(rounds, 1);
        assert_eq!(net.metrics().words, 1); // only the physical word counted
    }

    #[test]
    fn arena_state_clean_between_supersteps() {
        // Two different traffic patterns back to back must account
        // independently (the touched-slot reset works).
        let g = path(3);
        let mut net = Network::new(g, NetworkConfig::default());
        let mut states = vec![(); 3];
        let r1 = net
            .superstep(
                &mut states,
                |u, _s| {
                    if u == 0 {
                        vec![(1u32, vec![1u32; 4])]
                    } else {
                        Vec::new()
                    }
                },
                |_v, _s, _inbox| {},
            )
            .unwrap();
        assert_eq!(r1, 4);
        let r2 = net
            .superstep(
                &mut states,
                |u, _s| {
                    if u == 2 {
                        vec![(1u32, 1u32)]
                    } else {
                        Vec::new()
                    }
                },
                |_v, _s, _inbox| {},
            )
            .unwrap();
        assert_eq!(r2, 1);
        assert_eq!(net.metrics().words, 5);
        assert_eq!(net.metrics().max_edge_words_in_superstep, 4);
    }

    #[test]
    fn superstep_handles_zero_edges() {
        // Regression: a graph with no edges (gnp with p = 0) must not
        // panic in the send/recv path.
        let g = gnp(64, 0.0, 9);
        assert_eq!(g.m(), 0);
        let mut net = Network::new(g, NetworkConfig::default());
        let mut states = vec![0u32; 64];
        let rounds = net
            .superstep(
                &mut states,
                |_u, _s| Vec::<(u32, u32)>::new(),
                |_v, s, inbox| *s = inbox.len() as u32,
            )
            .unwrap();
        assert_eq!(rounds, 1);
        assert_eq!(net.metrics().messages, 0);
        assert!(states.iter().all(|&c| c == 0));
    }

    #[test]
    fn superstep_handles_isolated_vertices() {
        // Isolated vertices next to an active component: delivery windows
        // must line up.
        let mut g = twgraph::UGraphBuilder::new(40);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        let g = g.build();
        let mut net = Network::new(g, NetworkConfig::default());
        let dists = flood(&mut net, 0);
        assert_eq!(dists[1], Some(1));
        assert_eq!(dists[2], Some(2));
        assert!(dists[3..].iter().all(Option::is_none));
    }

    #[test]
    fn phase_snapshots_partition_the_totals() {
        let g = path(12);
        let mut net = Network::new(g, NetworkConfig::default());
        flood(&mut net, 0);
        let p1 = net.snapshot("flood-a");
        flood(&mut net, 11);
        net.charge_rounds(3);
        let p2 = net.snapshot("flood-b");
        assert_eq!(net.phase_log().len(), 2);
        assert_eq!(p1.rounds + p2.rounds, net.metrics().rounds);
        assert_eq!(p1.words + p2.words, net.metrics().words);
        assert_eq!(p2.charged_rounds, 3);
        assert!(p1.max_edge_words_in_superstep >= 1);
    }

    #[test]
    fn accounting_recovers_from_violation_error() {
        // A rejected superstep must not leave dirty slot loads behind (the
        // arena is reused, unlike the seed's fresh buffers).
        let g = path(3);
        let mut net = Network::new(g, NetworkConfig::default());
        let mut states = vec![(); 3];
        let err = net.superstep(
            &mut states,
            // Node 0 charges a legal 7-word message first, then node 2
            // violates the model — the error lands mid-accounting.
            |u, _s| match u {
                0 => vec![(1u32, vec![1u32; 7])],
                1 => vec![(0u32, vec![2u32; 3]), (2, vec![2u32; 3])],
                _ => vec![(0u32, vec![3u32; 5])], // 2 → 0: non-neighbor
            },
            |_v, _s, _inbox| {},
        );
        assert!(err.is_err());
        // A clean one-word superstep afterwards must charge exactly 1 round
        // and 1 word on top of nothing.
        let mut states = vec![(); 3];
        let rounds = net
            .superstep(
                &mut states,
                |u, _s| {
                    if u == 0 {
                        vec![(1u32, 1u32)]
                    } else {
                        Vec::new()
                    }
                },
                |_v, _s, _inbox| {},
            )
            .unwrap();
        assert_eq!(rounds, 1);
        assert_eq!(net.metrics().words, 1);
        assert_eq!(net.metrics().max_edge_words_in_superstep, 1);
    }

    /// Scoped flood over a sub-path, positional states.
    fn scoped_flood(net: &mut Network, active: &[u32], src: u32) -> Vec<Option<u32>> {
        let g = net.graph().clone();
        let pos_of = |v: u32| active.binary_search(&v).unwrap();
        let mut states = vec![FloodState::default(); active.len()];
        states[pos_of(src)] = FloodState {
            dist: Some(0),
            fresh: true,
        };
        let active_ref = active;
        net.run_until_quiet_on(
            active,
            &mut states,
            |u, s: &FloodState| {
                if s.fresh {
                    let d = s.dist.unwrap();
                    g.neighbors(u)
                        .iter()
                        .copied()
                        .filter(|v| active_ref.binary_search(v).is_ok())
                        .map(|v| (v, d + 1))
                        .collect()
                } else {
                    Vec::new()
                }
            },
            |_v, s, inbox| {
                s.fresh = false;
                for (_src, d) in inbox {
                    if s.dist.map_or(true, |cur| d < cur) {
                        s.dist = Some(d);
                        s.fresh = true;
                    }
                }
            },
            10_000,
        )
        .unwrap();
        states.into_iter().map(|s| s.dist).collect()
    }

    #[test]
    fn scoped_superstep_charges_like_dense() {
        // The same restricted flood, dense (send empty outside the set)
        // versus scoped: identical metrics, identical results.
        let g = path(64);
        let active: Vec<u32> = (8..24).collect();

        let mut dense = Network::new(g.clone(), NetworkConfig::default());
        let mut states = vec![FloodState::default(); 64];
        states[8] = FloodState {
            dist: Some(0),
            fresh: true,
        };
        let ga = g.clone();
        let active_ref = &active;
        dense
            .run_until_quiet(
                &mut states,
                |u, s: &FloodState| {
                    if s.fresh && active_ref.binary_search(&u).is_ok() {
                        let d = s.dist.unwrap();
                        ga.neighbors(u)
                            .iter()
                            .copied()
                            .filter(|v| active_ref.binary_search(v).is_ok())
                            .map(|v| (v, d + 1))
                            .collect()
                    } else {
                        Vec::new()
                    }
                },
                |_v, s, inbox| {
                    s.fresh = false;
                    for (_src, d) in inbox {
                        if s.dist.map_or(true, |cur| d < cur) {
                            s.dist = Some(d);
                            s.fresh = true;
                        }
                    }
                },
                10_000,
            )
            .unwrap();

        let mut scoped = Network::new(g, NetworkConfig::default());
        let got = scoped_flood(&mut scoped, &active, 8);

        assert_eq!(*dense.metrics(), *scoped.metrics());
        for (i, &v) in active.iter().enumerate() {
            assert_eq!(got[i], states[v as usize].dist, "node {v}");
        }
    }

    #[test]
    fn scoped_superstep_rejects_outside_recipient() {
        let g = path(4);
        let mut net = Network::new(g, NetworkConfig::default());
        let active = [1u32, 2];
        let mut states = vec![(); 2];
        let err = net
            .superstep_on(
                &active,
                &mut states,
                |u, _s| {
                    if u == 1 {
                        vec![(0u32, 1u32)]
                    } else {
                        Vec::new()
                    }
                },
                |_v, _s, _inbox| {},
            )
            .unwrap_err();
        assert_eq!(err, CongestError::InactiveRecipient { from: 1, to: 0 });
        // Nothing charged; a later clean scoped superstep works.
        assert_eq!(net.metrics().supersteps, 0);
        let rounds = net
            .superstep_on(
                &active,
                &mut states,
                |u, _s| {
                    if u == 1 {
                        vec![(2u32, 1u32)]
                    } else {
                        Vec::new()
                    }
                },
                |_v, _s, _inbox| {},
            )
            .unwrap();
        assert_eq!(rounds, 1);
        assert_eq!(net.metrics().words, 1);
    }

    #[test]
    fn scoped_inbox_windows_line_up() {
        // Star into node 5, scoped to {1, 3, 5}: node 5's window sees both
        // messages sorted by source; the others see empty windows.
        let g = twgraph::UGraph::from_edges(6, [(1, 5), (3, 5), (0, 5)]);
        let mut net = Network::new(g, NetworkConfig::default());
        let active = [1u32, 3, 5];
        let mut states: Vec<Vec<u32>> = vec![Vec::new(); 3];
        net.superstep_on(
            &active,
            &mut states,
            |u, _s| if u != 5 { vec![(5u32, u)] } else { Vec::new() },
            |v, s, inbox| {
                if v == 5 {
                    *s = inbox.iter().map(|&(src, _)| src).collect();
                } else {
                    assert!(inbox.is_empty());
                }
            },
        )
        .unwrap();
        assert_eq!(states[2], vec![1, 3]);
    }

    #[test]
    fn scoped_then_dense_then_scoped_bookkeeping_clean() {
        // Interleave scoped and dense supersteps with different active
        // sets: stale cursor entries must never leak into a later layout.
        let g = path(8);
        let mut net = Network::new(g.clone(), NetworkConfig::default());
        let d1 = scoped_flood(&mut net, &[0, 1, 2], 0);
        assert_eq!(d1, vec![Some(0), Some(1), Some(2)]);
        let full = flood(&mut net, 0);
        assert_eq!(full[7], Some(7));
        let d2 = scoped_flood(&mut net, &[4, 5, 6, 7], 6);
        assert_eq!(d2, vec![Some(2), Some(1), Some(0), Some(1)]);
    }
}
