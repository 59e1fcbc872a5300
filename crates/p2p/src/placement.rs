//! The deterministic round driver: tenants placed on physical peers,
//! pull or push propagation, delta or full pushes, and an optional
//! seeded commit order.
//!
//! The paper's confluence theorem (Thm 2.1) makes peer placement
//! *semantically transparent*: any assignment of documents to peers —
//! and any fair schedule over them — reaches the same fixpoint. That
//! is exactly the license to choose placement for throughput. This
//! module exploits it to colocate thousands of small independent AXML
//! systems ("tenants") on a fixed pool of physical peers:
//!
//! * [`Ring`] — consistent hashing of placement keys onto peers, with
//!   configurable virtual nodes and a deterministic seed, so a peer
//!   join/leave remaps only the keys adjacent to its ring points;
//! * [`ShardedNetwork`] — tenants (logical peers: documents plus
//!   hosted services) placed whole onto physical peers, one fair
//!   round at a time, with the evaluation phase parallel across
//!   peers and commits applied in one global canonical order;
//! * **the flat configuration** — [`ShardedNetwork::flat`] pins every
//!   tenant to a physical peer of its own name (no ring, no
//!   join/leave) and chooses §2.2's propagation [`Mode`]: *pull*
//!   re-activates every live call site every round, *push* subscribes
//!   a call site once and re-fires it only when its provider changed.
//!   An optional seed shuffles each round's commit order — the
//!   confluence experiments' randomized delivery;
//! * **push-mode delta propagation** — when a provider tenant's
//!   documents change, its owner peer pushes a [`MsgKind::DeltaPush`]
//!   message carrying per-document delta stamps
//!   (`id`/`version`/`mutation_count`) plus *only the response trees
//!   the subscriber has not seen yet*, instead of re-shipping the full
//!   re-evaluated call response. The subscriber's subsumption check
//!   (the `graft_response` primitive every delivery goes through)
//!   guarantees the suppressed trees would not have grafted anyway, so
//!   the fixpoint is bit-for-bit the full-response one while the wire
//!   carries strictly fewer bytes on re-pushes;
//! * **rebalancing** — [`ShardedNetwork::join_peer`] /
//!   [`ShardedNetwork::leave_peer`] recompute the ring between rounds
//!   and migrate documents as O(1) COW snapshot handles (persistent
//!   trees), counting moves and their rendered-text bytes.
//!
//! Byte counters ([`ShardStats::wire_call_bytes`],
//! [`ShardStats::wire_push_bytes`], [`ShardStats::full_push_bytes`],
//! [`ShardStats::rebalance_bytes`]) are lengths of the trees' rendered
//! compact-syntax text (`to_string().len()`), not sizes of encoded
//! messages: nothing is serialized in-process.
//!
//! ## Why placement cannot change observable behaviour
//!
//! Every placement-sensitive choice is pinned to *tenant-level* state:
//! the round's work list is gathered in canonical tenant order, the
//! push dirty-check compares per-tenant digests, subscriptions and
//! seen-tree sets are keyed by `(tenant, doc, node)`, evaluation reads
//! the provider tenant's own documents (round-start state), and
//! commits land in work-list order (or its seeded shuffle, which is
//! a schedule too). Physical peers only decide *which
//! thread* evaluates a call and *what crosses the simulated wire* —
//! so fixpoints, journals (modulo peer-lane ids), and provenance DAGs
//! are identical for any peer count, and across a mid-run rebalance.
//! `tests/sharded_placement.rs` pins all three properties.

use crate::peer::{graft_response, Peer};
use axml_core::error::{AxmlError, Result};
use axml_core::forest::Forest;
use axml_core::provenance::{InvocationRecord, Origin, Provenance, ProvenanceStore};
use axml_core::reduce::{canonical_key, CanonKey};
use axml_core::sym::{FxHashMap, Sym};
use axml_core::trace::{EventKind, Journal, MsgKind, TraceEvent, Tracer};
use axml_core::tree::{NodeId, Tree};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashSet;
use std::time::Instant;

/// A placed document's identity: which tenant it belongs to and its
/// name inside that tenant. Placement keys are derived from these —
/// by default the tenant component alone, so a tenant's documents
/// colocate (per-tenant isolation by placement).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct DocId {
    /// The owning tenant (logical peer).
    pub tenant: Sym,
    /// The document's name within the tenant.
    pub doc: Sym,
}

impl DocId {
    /// The consistent-hash key for this document under tenant-granular
    /// placement: the tenant id, so all of a tenant's documents map to
    /// one peer.
    pub fn placement_key(&self) -> &str {
        self.tenant.as_str()
    }

    /// The fully-qualified key (`tenant/doc`) for document-granular
    /// placement experiments over the same [`Ring`].
    pub fn qualified_key(&self) -> String {
        format!("{}/{}", self.tenant, self.doc)
    }
}

/// Seeded FNV-1a 64-bit hash — deterministic across runs and
/// platforms, no dependencies. The seed perturbs the offset basis so
/// two rings with different seeds produce independent layouts.
fn fnv1a64(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // Finalizer (murmur3-style): FNV alone avalanches poorly on the
    // short, similar keys tenant ids tend to be, which would clump
    // ring points and skew placement shares.
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// A consistent-hash ring of peers.
///
/// Each peer contributes `vnodes` points at
/// `hash(seed, "peer#<i>")`; a key is owned by the peer of the first
/// ring point at or after `hash(seed, key)` (wrapping). Virtual nodes
/// smooth the per-peer share toward `1/n`; determinism comes from the
/// seeded hash, so a ring rebuilt with the same peers and seed places
/// every key identically.
#[derive(Clone, Debug)]
pub struct Ring {
    vnodes: u32,
    seed: u64,
    /// Sorted `(point, peer)` pairs.
    points: Vec<(u64, Sym)>,
    peers: Vec<Sym>,
}

impl Ring {
    /// An empty ring with `vnodes` virtual nodes per peer and a
    /// deterministic hash `seed`.
    pub fn new(vnodes: u32, seed: u64) -> Ring {
        Ring {
            vnodes: vnodes.max(1),
            seed,
            points: Vec::new(),
            peers: Vec::new(),
        }
    }

    /// Add a peer's virtual nodes. Duplicate adds are ignored.
    pub fn add_peer(&mut self, peer: Sym) {
        if self.peers.contains(&peer) {
            return;
        }
        self.peers.push(peer);
        for i in 0..self.vnodes {
            let key = format!("{peer}#{i}");
            self.points.push((fnv1a64(self.seed, key.as_bytes()), peer));
        }
        // Ties broken by peer name so the layout is total and
        // insertion-order independent.
        self.points.sort_unstable();
    }

    /// Remove a peer's virtual nodes. Unknown peers are ignored.
    pub fn remove_peer(&mut self, peer: Sym) {
        self.peers.retain(|&p| p != peer);
        self.points.retain(|&(_, p)| p != peer);
    }

    /// The peers currently on the ring, in join order.
    pub fn peers(&self) -> &[Sym] {
        &self.peers
    }

    /// The owner of `key`: the peer of the first ring point at or
    /// after `hash(key)`, wrapping past the top. `None` on an empty
    /// ring.
    pub fn owner(&self, key: &str) -> Option<Sym> {
        if self.points.is_empty() {
            return None;
        }
        let h = fnv1a64(self.seed, key.as_bytes());
        let idx = self.points.partition_point(|&(p, _)| p < h);
        let (_, peer) = self.points[idx % self.points.len()];
        Some(peer)
    }
}

/// Per-peer placement gauges, reported by
/// [`ShardedNetwork::peer_gauges`] in stable, name-sorted order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PeerGauges {
    /// Documents currently placed on (owned by) this peer.
    pub docs_placed: u64,
    /// Push messages this peer sent to remote subscribers.
    pub deltas_pushed: u64,
    /// Rendered-text bytes of those pushes (delta-filtered when the
    /// network runs in delta-push mode).
    pub bytes_pushed: u64,
    /// Documents that migrated *onto* this peer during rebalances.
    pub rebalance_moves: u64,
}

/// Network-wide work and wire accounting for a sharded run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardStats {
    /// Rounds executed.
    pub rounds: usize,
    /// Call activations (work items served).
    pub calls_sent: usize,
    /// Responses/pushes delivered to call sites.
    pub responses: usize,
    /// Deliveries that actually added data somewhere.
    pub productive_responses: usize,
    /// Service evaluations at provider tenants.
    pub evaluations: usize,
    /// Deliveries where caller and provider shared a peer (no wire).
    pub local_deliveries: usize,
    /// Deliveries that crossed between peers.
    pub remote_deliveries: usize,
    /// Rendered-text bytes (`to_string().len()`) of remote call
    /// requests' input + context trees; not an encoded message size.
    pub wire_call_bytes: usize,
    /// Rendered-text bytes of remote response/push payloads under the
    /// configured propagation mode: delta-filtered trees plus the
    /// 24-byte stamp in delta-push mode, full forests otherwise. Not
    /// an encoded message size.
    pub wire_push_bytes: usize,
    /// Rendered-text bytes the same remote deliveries would have cost
    /// under full-response propagation (always accumulated, so a
    /// delta-push run reports its own savings).
    pub full_push_bytes: usize,
    /// Documents migrated by rebalances.
    pub rebalance_moves: usize,
    /// Rendered-text bytes of the migrated documents (the in-process
    /// move itself is an O(1) COW handle transfer).
    pub rebalance_bytes: usize,
}

/// Size charged for the per-document stamp a [`MsgKind::DeltaPush`]
/// message carries: `(id, version, mutation_count)` as three `u64`s.
const DELTA_STAMP_BYTES: usize = 24;

/// How a [`ShardedNetwork`] propagates and evaluates.
#[derive(Clone, Copy, Debug)]
pub struct ShardedConfig {
    /// Virtual nodes per peer on the [`Ring`].
    pub vnodes: u32,
    /// Deterministic ring hash seed.
    pub seed: u64,
    /// Push per-subscription *delta* payloads (stamps + unseen trees)
    /// instead of full re-evaluated responses. Fixpoints are
    /// identical either way; only wire bytes differ.
    pub push_deltas: bool,
    /// Evaluate each round's work in parallel across peers (one
    /// thread per peer with work). Commits stay in canonical order,
    /// so this never changes observable behaviour.
    pub parallel: bool,
}

impl Default for ShardedConfig {
    fn default() -> ShardedConfig {
        ShardedConfig {
            vnodes: 16,
            seed: 0xA731,
            push_deltas: true,
            parallel: true,
        }
    }
}

/// §2.2's two propagation views of the same data streams, which reach
/// the same fixpoint.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Every live call site re-requests every round; no subscriptions.
    Pull,
    /// A call site subscribes on its first activation; afterwards its
    /// provider re-pushes only when the provider's documents changed.
    Push,
}

/// A tenant-level subscription: re-deliver to this call site whenever
/// the provider tenant's documents change. Placement-free — the same
/// subscriptions arise for any peer count.
#[derive(Clone, PartialEq, Eq, Debug)]
struct ShardSub {
    tenant: Sym,
    doc: Sym,
    node: NodeId,
    provider: Sym,
    service: Sym,
}

/// One unit of round work, fully resolved and argument-frozen at
/// round start.
struct ReadyItem {
    caller: Sym,
    doc: Sym,
    node: NodeId,
    provider: Sym,
    provider_idx: usize,
    service: Sym,
    /// First activation (subscribe) vs. subscription re-push.
    fresh: bool,
    input: Tree,
    context: Tree,
}

/// A network of physical peers hosting tenants.
///
/// Tenants are logical peers ([`Peer`]): named documents plus hosted
/// services, addressed in call nodes as `@tenant.service`. Built with
/// [`ShardedNetwork::new`], a consistent-hash ring places each tenant
/// whole onto one physical peer and rounds run in push mode in
/// canonical commit order, with evaluation parallel across peers and
/// delta-push propagation on the simulated wire. Built with
/// [`ShardedNetwork::flat`], every tenant is its own physical peer and
/// the caller picks pull or push and the commit order.
pub struct ShardedNetwork {
    cfg: ShardedConfig,
    /// `None` in the flat configuration: each tenant is pinned to a
    /// physical peer of its own name.
    ring: Option<Ring>,
    mode: Mode,
    /// Shuffles each round's commit order when set.
    rng: Option<StdRng>,
    tenants: Vec<Peer>,
    tindex: FxHashMap<Sym, usize>,
    /// Physical peer names in join order.
    peers: Vec<Sym>,
    /// tenant → owning peer, derived from the ring.
    placement: FxHashMap<Sym, Sym>,
    gauges: FxHashMap<Sym, PeerGauges>,
    subs: Vec<ShardSub>,
    /// Per-tenant digests at the last round (push dirty check).
    last_digests: FxHashMap<Sym, Vec<(Sym, CanonKey)>>,
    /// Per call site: canonical keys of response trees already
    /// delivered (the delta-push filter).
    seen: FxHashMap<(Sym, Sym, NodeId), HashSet<CanonKey>>,
    journal: Option<Journal>,
    /// One provenance store per *tenant* — lineage is logical, so the
    /// recorded DAGs are placement-independent.
    provenance: Option<FxHashMap<Sym, ProvenanceStore>>,
    /// Bumped by every placement change (join/leave); the termination
    /// detector voids its quiet streak when it moves.
    epoch: u64,
    /// Global stats.
    pub stats: ShardStats,
}

impl ShardedNetwork {
    /// An empty sharded network: ring placement, push mode, canonical
    /// commit order.
    pub fn new(cfg: ShardedConfig) -> ShardedNetwork {
        ShardedNetwork {
            ring: Some(Ring::new(cfg.vnodes, cfg.seed)),
            mode: Mode::Push,
            rng: None,
            cfg,
            tenants: Vec::new(),
            tindex: FxHashMap::default(),
            peers: Vec::new(),
            placement: FxHashMap::default(),
            gauges: FxHashMap::default(),
            subs: Vec::new(),
            last_digests: FxHashMap::default(),
            seen: FxHashMap::default(),
            journal: None,
            provenance: None,
            epoch: 0,
            stats: ShardStats::default(),
        }
    }

    /// An empty flat network: each tenant added is its own physical
    /// peer, so journal lanes, gauges and wire counters are per tenant.
    /// `mode` picks pull or push propagation; `seed` shuffles every
    /// round's commit order (`None` keeps canonical order). Responses
    /// ship in full and evaluation is sequential.
    pub fn flat(mode: Mode, seed: Option<u64>) -> ShardedNetwork {
        ShardedNetwork {
            ring: None,
            mode,
            rng: seed.map(StdRng::seed_from_u64),
            ..ShardedNetwork::new(ShardedConfig {
                push_deltas: false,
                parallel: false,
                ..ShardedConfig::default()
            })
        }
    }

    /// The ring of a ring-placed network; join/leave are meaningless
    /// when placement is pinned.
    fn ring_mut(&mut self) -> &mut Ring {
        self.ring
            .as_mut()
            .expect("a flat network pins each tenant to its own peer; join/leave need a ring")
    }

    /// Add a physical peer and rebalance tenants onto it (panics on a
    /// flat network, whose placement is pinned). Adding peers
    /// before any tenants is free; afterwards, every tenant whose ring
    /// owner changes migrates (O(1) COW handle moves, counted in
    /// [`ShardStats::rebalance_moves`] / [`PeerGauges::rebalance_moves`]).
    pub fn join_peer(&mut self, name: &str) {
        let sym = Sym::intern(name);
        if self.ring_mut().peers().contains(&sym) {
            return;
        }
        self.ring_mut().add_peer(sym);
        self.peers.push(sym);
        self.gauges.entry(sym).or_default();
        self.rebalance();
    }

    /// Remove a physical peer; its tenants migrate to their new ring
    /// owners. Removing the last peer is rejected while tenants exist.
    /// Panics on a flat network, whose placement is pinned.
    pub fn leave_peer(&mut self, name: &str) -> Result<()> {
        let sym = Sym::intern(name);
        if !self.ring_mut().peers().contains(&sym) {
            return Ok(());
        }
        if self.peers.len() == 1 && !self.tenants.is_empty() {
            return Err(AxmlError::PlacementUnderflow);
        }
        self.peers.retain(|&p| p != sym);
        self.ring_mut().remove_peer(sym);
        self.rebalance();
        Ok(())
    }

    /// Recompute tenant → peer placement from the ring, counting moves
    /// and migrated rendered-text bytes. Bumps the placement epoch when
    /// anything actually moved (or on first placement).
    fn rebalance(&mut self) {
        let Some(ring) = &self.ring else { return };
        let mut changed = false;
        for t in &self.tenants {
            let Some(new_owner) = ring.owner(t.name.as_str()) else {
                continue;
            };
            let old = self.placement.insert(t.name, new_owner);
            if old != Some(new_owner) {
                changed = true;
                if old.is_some() {
                    // A real migration: the documents move as O(1)
                    // persistent-tree handles; the counters charge
                    // their rendered-text size.
                    let docs = t.doc_names().len();
                    self.stats.rebalance_moves += docs;
                    let g = self.gauges.entry(new_owner).or_default();
                    g.rebalance_moves += docs as u64;
                    for &d in t.doc_names() {
                        if let Some(tree) = t.doc_tree(d) {
                            self.stats.rebalance_bytes += tree.to_string().len();
                        }
                    }
                }
            }
        }
        if changed {
            self.epoch += 1;
        }
    }

    /// Register a tenant (a logical peer) and get a handle to populate
    /// it. On a ring the tenant is placed immediately, and at least one
    /// physical peer must have joined first; a flat network creates
    /// the tenant's own physical peer.
    pub fn add_tenant(&mut self, name: &str) -> &mut Peer {
        let sym = Sym::intern(name);
        let owner = match &self.ring {
            Some(ring) => ring
                .owner(sym.as_str())
                .expect("join at least one peer before adding tenants"),
            None => {
                self.peers.push(sym);
                self.gauges.entry(sym).or_default();
                sym
            }
        };
        let idx = self.tenants.len();
        self.tenants.push(Peer::new(sym));
        self.tindex.insert(sym, idx);
        self.placement.insert(sym, owner);
        &mut self.tenants[idx]
    }

    /// Access a tenant.
    pub fn tenant(&self, name: &str) -> Option<&Peer> {
        self.tindex
            .get(&Sym::intern(name))
            .map(|&i| &self.tenants[i])
    }

    /// The physical peer currently owning `tenant`.
    pub fn owner_of(&self, tenant: &str) -> Option<Sym> {
        self.placement.get(&Sym::intern(tenant)).copied()
    }

    /// Physical peer names in join order.
    pub fn peer_names(&self) -> &[Sym] {
        &self.peers
    }

    /// Tenant names in registration (canonical) order.
    pub fn tenant_names(&self) -> Vec<Sym> {
        self.tenants.iter().map(|t| t.name).collect()
    }

    /// The placement epoch: bumped by every join/leave that moved a
    /// tenant. The termination detector restarts its quiet streak when
    /// this changes between waves.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Per-peer placement gauges in stable (name-sorted) order.
    /// `docs_placed` is computed from the live placement, so it stays
    /// correct as tenants gain documents and rebalances move them.
    pub fn peer_gauges(&self) -> Vec<(Sym, PeerGauges)> {
        let mut placed: FxHashMap<Sym, u64> = FxHashMap::default();
        for t in &self.tenants {
            if let Some(&owner) = self.placement.get(&t.name) {
                *placed.entry(owner).or_default() += t.doc_names().len() as u64;
            }
        }
        let mut out: Vec<(Sym, PeerGauges)> = self
            .peers
            .iter()
            .map(|&p| {
                let mut g = self.gauges.get(&p).copied().unwrap_or_default();
                g.docs_placed = placed.get(&p).copied().unwrap_or(0);
                (p, g)
            })
            .collect();
        out.sort_unstable_by(|a, b| a.0.as_str().cmp(b.0.as_str()));
        out
    }

    /// Start recording a structured event journal (see
    /// [`axml_core::trace`]). Message events use physical peer names
    /// as lanes; everything else is placement-independent.
    pub fn enable_tracing(&mut self) {
        self.journal = Some(Journal::new());
    }

    /// Detach and return the recorded events (empty if tracing was
    /// never enabled). Tracing stops.
    pub fn take_journal(&mut self) -> Vec<TraceEvent> {
        self.journal
            .take()
            .map(Journal::into_events)
            .unwrap_or_default()
    }

    /// Start recording per-node lineage: one [`ProvenanceStore`] per
    /// *tenant*, seeded with current document contents. Because
    /// invocations are logged in canonical commit order with
    /// tenant-level origins, the recorded DAGs are identical for any
    /// placement. Call **after** adding tenants.
    pub fn enable_provenance(&mut self) {
        let stores: FxHashMap<Sym, ProvenanceStore> = self
            .tenants
            .iter()
            .map(|t| {
                let store = ProvenanceStore::new();
                t.seed_provenance(&store);
                (t.name, store)
            })
            .collect();
        self.provenance = Some(stores);
    }

    /// Access one tenant's provenance store (None before
    /// [`ShardedNetwork::enable_provenance`]).
    pub fn provenance_store(&self, tenant: &str) -> Option<&ProvenanceStore> {
        self.provenance.as_ref()?.get(&Sym::intern(tenant))
    }

    /// Detach and return the per-tenant provenance stores (empty if
    /// provenance was never enabled). Recording stops.
    pub fn take_provenance(&mut self) -> FxHashMap<Sym, ProvenanceStore> {
        self.provenance.take().unwrap_or_default()
    }

    /// Split `tenant.service` into resolved halves.
    fn resolve(&self, qualified: Sym) -> Result<(usize, Sym)> {
        let s = qualified.as_str();
        let Some((tenant, svc)) = s.split_once('.') else {
            return Err(AxmlError::UnknownFunction(qualified));
        };
        let tidx = *self
            .tindex
            .get(&Sym::intern(tenant))
            .ok_or(AxmlError::UnknownFunction(qualified))?;
        Ok((tidx, Sym::intern(svc)))
    }

    /// One fair round. Returns true if any document changed.
    fn round(&mut self) -> Result<bool> {
        let journal = self.journal.take();
        let tracer = match journal.as_ref() {
            Some(j) => Tracer::new(j),
            None => Tracer::disabled(),
        };
        let stores = self.provenance.take();
        let out = self.round_inner(tracer, stores.as_ref());
        self.journal = journal;
        self.provenance = stores;
        out
    }

    fn round_inner(
        &mut self,
        tracer: Tracer<'_>,
        stores: Option<&FxHashMap<Sym, ProvenanceStore>>,
    ) -> Result<bool> {
        let round = self.stats.rounds as u64;
        tracer.emit(|| EventKind::RoundStart { round });
        self.stats.rounds += 1;

        // ── Gather ─────────────────────────────────────────────────
        // Unsubscribed call nodes always fire; pull mode never
        // subscribes, so there that is every live call site. In push
        // mode they subscribe, and subscribed sites re-fire iff their
        // provider tenant's digest moved. Tenant registration order
        // makes the list canonical — the same for every placement.
        let mut raw: Vec<(Sym, Sym, NodeId, Sym, Sym, bool)> = Vec::new();
        for t in &self.tenants {
            for (d, n, f) in t.function_nodes() {
                let sub_exists = self
                    .subs
                    .iter()
                    .any(|s| s.tenant == t.name && s.doc == d && s.node == n);
                if !sub_exists {
                    // Resolution deferred below (needs &self).
                    raw.push((t.name, d, n, f, Sym::intern(""), true));
                }
            }
        }
        let dirty: Vec<Sym> = self
            .tenants
            .iter()
            .filter(|t| self.last_digests.get(&t.name) != Some(&t.digest()))
            .map(|t| t.name)
            .collect();
        for s in &self.subs {
            if dirty.contains(&s.provider) {
                raw.push((s.tenant, s.doc, s.node, s.provider, s.service, false));
            }
        }
        self.last_digests = self
            .tenants
            .iter()
            .map(|t| (t.name, t.digest()))
            .collect();
        if let Some(rng) = self.rng.as_mut() {
            raw.shuffle(rng);
        }

        // ── Resolve + freeze arguments (round-start state) ─────────
        let mut items: Vec<ReadyItem> = Vec::new();
        for (caller, doc, node, a, b, fresh) in raw {
            let (provider_idx, service) = if fresh {
                self.resolve(a)? // `a` is the qualified name
            } else {
                (self.tindex[&a], b) // `a`/`b` are provider/service
            };
            let cidx = self.tindex[&caller];
            let Some((input, context)) = self.tenants[cidx].call_arguments(doc, node)
            else {
                continue; // merged away by an earlier reduction
            };
            items.push(ReadyItem {
                caller,
                doc,
                node,
                provider: self.tenants[provider_idx].name,
                provider_idx,
                service,
                fresh,
                input,
                context,
            });
        }

        // ── Evaluate ───────────────────────────────────────────────
        // Each provider tenant evaluates against its *round-start*
        // documents (no commits have happened yet this round), so the
        // phase is embarrassingly parallel across physical peers. The
        // per-peer grouping is exactly what a real deployment would
        // do; on one peer it degenerates to the sequential loop.
        let results = self.evaluate_items(&items)?;
        self.stats.evaluations += items.len();

        // ── Commit (canonical order) ───────────────────────────────
        let mut changed = false;
        for (item, (forest, eval_ns)) in items.iter().zip(results) {
            let caller_peer = self.placement[&item.caller];
            let provider_peer = self.placement[&item.provider];
            let remote = caller_peer != provider_peer;
            self.stats.calls_sent += 1;
            tracer.emit(|| EventKind::MsgSend {
                from: caller_peer,
                to: provider_peer,
                kind: MsgKind::Call,
            });
            tracer.emit(|| EventKind::MsgRecv {
                peer: provider_peer,
                kind: MsgKind::Call,
            });
            tracer.emit(|| EventKind::PeerEval {
                peer: provider_peer,
                service: item.service,
                dur_ns: eval_ns,
            });
            if remote {
                self.stats.wire_call_bytes +=
                    item.input.to_string().len() + item.context.to_string().len();
            }

            // Provider-side lineage, logged in the provider *tenant's*
            // store: seqs are assigned in canonical commit order, so
            // they are placement-independent.
            let cidx = self.tindex[&item.caller];
            let remote_seq = stores.and_then(|m| m.get(&item.provider)).map(|store| {
                store.begin_invocation(InvocationRecord {
                    seq: 0,
                    service: item.service,
                    doc: item.doc,
                    node: item.node,
                    round,
                    doc_version: self.tenants[cidx]
                        .doc_tree(item.doc)
                        .map(|t| t.mutation_count())
                        .unwrap_or(0),
                    peer: Some(item.provider),
                    inputs: self.tenants[item.provider_idx].witnesses(item.service),
                })
            });

            // Delta filter: suppress trees this call site has already
            // been sent. Subsumption at the caller makes re-sending
            // them a no-op, so suppressing them cannot change the
            // fixpoint — it only shrinks the wire payload.
            let site = (item.caller, item.doc, item.node);
            let seen = self.seen.entry(site).or_default();
            let full_bytes: usize = forest
                .trees()
                .iter()
                .map(|t| t.to_string().len())
                .sum();
            let deliver: Vec<Tree> = if self.cfg.push_deltas {
                forest
                    .trees()
                    .iter()
                    .filter(|t| !seen.contains(&canonical_key(t)))
                    .cloned()
                    .collect()
            } else {
                forest.trees().to_vec()
            };
            for t in forest.trees() {
                seen.insert(canonical_key(t));
            }
            let payload_bytes: usize = if self.cfg.push_deltas {
                deliver.iter().map(|t| t.to_string().len()).sum::<usize>()
                    + DELTA_STAMP_BYTES
            } else {
                full_bytes
            };

            let push_kind = if item.fresh || !self.cfg.push_deltas {
                MsgKind::Response
            } else {
                MsgKind::DeltaPush
            };
            self.stats.responses += 1;
            tracer.emit(|| EventKind::MsgSend {
                from: provider_peer,
                to: caller_peer,
                kind: push_kind,
            });
            tracer.emit(|| EventKind::MsgRecv {
                peer: caller_peer,
                kind: push_kind,
            });
            if remote {
                self.stats.remote_deliveries += 1;
                self.stats.wire_push_bytes += payload_bytes;
                self.stats.full_push_bytes += full_bytes;
                if !item.fresh {
                    let g = self.gauges.entry(provider_peer).or_default();
                    g.deltas_pushed += 1;
                    g.bytes_pushed += payload_bytes as u64;
                }
            } else {
                self.stats.local_deliveries += 1;
            }

            if item.fresh && self.mode == Mode::Push {
                let sub = ShardSub {
                    tenant: item.caller,
                    doc: item.doc,
                    node: item.node,
                    provider: item.provider,
                    service: item.service,
                };
                if !self.subs.contains(&sub) {
                    self.subs.push(sub);
                }
            }

            // Caller-side delivery: the graft/subsume/reduce primitive
            // the threaded runtime also uses, stamping lineage into the
            // caller *tenant's* store.
            let caller_prov = stores
                .and_then(|m| m.get(&item.caller))
                .map(Provenance::new)
                .unwrap_or_else(Provenance::disabled);
            let origin = Origin::Remote {
                provider: item.provider,
                service: item.service,
                seq: remote_seq.unwrap_or(0),
                round,
            };
            let Some(tree) = self.tenants[cidx].doc_tree_mut(item.doc) else {
                continue;
            };
            if graft_response(tree, item.doc, item.node, &deliver, caller_prov, origin)
            {
                self.stats.productive_responses += 1;
                changed = true;
            }
        }
        tracer.emit(|| EventKind::RoundEnd { round, changed });
        Ok(changed)
    }

    /// Evaluate every work item against round-start tenant state,
    /// parallel across physical peers when configured. Returns, per
    /// item, the result forest and the evaluation latency.
    fn evaluate_items(&self, items: &[ReadyItem]) -> Result<Vec<(Forest, u64)>> {
        // One evaluation's outcome plus its wall-clock nanoseconds.
        type EvalSlot = (Result<Forest>, u64);
        let tenants = &self.tenants;
        let eval_one = |it: &ReadyItem| -> EvalSlot {
            let started = Instant::now();
            let out = tenants[it.provider_idx].evaluate(it.service, &it.input, &it.context);
            (out, started.elapsed().as_nanos() as u64)
        };

        // Group item indices by the provider's physical peer.
        let mut lanes: FxHashMap<Sym, Vec<usize>> = FxHashMap::default();
        for (i, it) in items.iter().enumerate() {
            lanes.entry(self.placement[&it.provider]).or_default().push(i);
        }
        let mut slots: Vec<Option<EvalSlot>> =
            (0..items.len()).map(|_| None).collect();
        if self.cfg.parallel && lanes.len() > 1 {
            let merged: Vec<Vec<(usize, EvalSlot)>> =
                std::thread::scope(|scope| {
                    let handles: Vec<_> = lanes
                        .values()
                        .map(|idxs| {
                            scope.spawn(|| {
                                idxs.iter()
                                    .map(|&i| (i, eval_one(&items[i])))
                                    .collect::<Vec<_>>()
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().expect("eval lane")).collect()
                });
            for lane in merged {
                for (i, r) in lane {
                    slots[i] = Some(r);
                }
            }
        } else {
            for (i, it) in items.iter().enumerate() {
                slots[i] = Some(eval_one(it));
            }
        }
        // Surface the first error in canonical item order, so error
        // behaviour is placement-independent too.
        let mut out = Vec::with_capacity(items.len());
        for slot in slots {
            let (forest, ns) = slot.expect("every item evaluated");
            out.push((forest?, ns));
        }
        Ok(out)
    }

    /// Run rounds until global quiescence or the round budget.
    /// Returns true if quiescence was reached.
    pub fn run(&mut self, max_rounds: usize) -> Result<bool> {
        for _ in 0..max_rounds {
            let changed = self.round()?;
            if !changed && self.no_pending_work() {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Run exactly one round (building block for termination
    /// detection and rebalance experiments).
    pub fn step_round(&mut self) -> Result<bool> {
        self.round()
    }

    /// Oracle quiescence check: in push mode, unsubscribed call sites
    /// are pending work even if the last round was quiet. A pull round
    /// fires every call site, so a quiet one leaves nothing pending.
    pub fn no_pending_work(&self) -> bool {
        self.mode == Mode::Pull
            || self.tenants.iter().all(|t| {
                t.function_nodes().iter().all(|(d, n, _)| {
                    self.subs
                        .iter()
                        .any(|s| s.tenant == t.name && s.doc == *d && s.node == *n)
                })
            })
    }

    /// Canonical key of the whole network state, `(tenant, doc, key)`
    /// sorted — comparable across placements, modes and commit orders,
    /// and with [`crate::ThreadedOutcome::canonical_key`] when threaded
    /// peers mirror the tenants.
    pub fn canonical_key(&self) -> Vec<(Sym, Sym, CanonKey)> {
        let mut out = Vec::new();
        for t in &self.tenants {
            for &d in t.doc_names() {
                if let Some(tree) = t.doc_tree(d) {
                    out.push((t.name, d, canonical_key(tree)));
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Per-tenant change indicator for the termination detector: the
    /// canonical keys of one tenant's documents.
    pub fn tenant_state_key(&self, tenant: Sym) -> Vec<(Sym, CanonKey)> {
        self.tenants[self.tindex[&tenant]].digest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_core::subsume::equivalent;

    fn ring_of(names: &[&str], vnodes: u32, seed: u64) -> Ring {
        let mut r = Ring::new(vnodes, seed);
        for n in names {
            r.add_peer(Sym::intern(n));
        }
        r
    }

    #[test]
    fn ring_is_deterministic_and_insertion_order_independent() {
        let a = ring_of(&["p0", "p1", "p2"], 32, 7);
        let b = ring_of(&["p2", "p0", "p1"], 32, 7);
        for i in 0..500 {
            let key = format!("tenant-{i}");
            assert_eq!(a.owner(&key), b.owner(&key));
        }
    }

    #[test]
    fn ring_spreads_keys_and_vnodes_smooth_the_shares() {
        let r = ring_of(&["p0", "p1", "p2", "p3"], 64, 11);
        let mut counts: FxHashMap<Sym, usize> = FxHashMap::default();
        for i in 0..2000 {
            let owner = r.owner(&format!("tenant-{i}")).unwrap();
            *counts.entry(owner).or_default() += 1;
        }
        assert_eq!(counts.len(), 4, "every peer owns something");
        for (&p, &c) in &counts {
            assert!(c > 2000 / 16, "peer {p} owns only {c} of 2000 keys");
        }
    }

    #[test]
    fn removing_a_peer_only_remaps_its_own_keys() {
        let full = ring_of(&["p0", "p1", "p2", "p3"], 32, 3);
        let mut reduced = full.clone();
        reduced.remove_peer(Sym::intern("p3"));
        for i in 0..1000 {
            let key = format!("tenant-{i}");
            let before = full.owner(&key).unwrap();
            if before != Sym::intern("p3") {
                assert_eq!(reduced.owner(&key), Some(before), "key {key} moved");
            } else {
                assert_ne!(reduced.owner(&key), Some(before));
            }
        }
    }

    /// A two-tenant producer/consumer pair: the producer grows a
    /// transitive closure locally; the consumer subscribes to its
    /// `feed`.
    fn pair(net: &mut ShardedNetwork, p: &str, c: &str) {
        let producer = net.add_tenant(p);
        producer
            .add_document_text(
                "acc",
                &format!(
                    r#"r{{t{{from{{"1"}},to{{"2"}}}}, t{{from{{"2"}},to{{"3"}}}}, t{{from{{"3"}},to{{"4"}}}}, @{p}.join}}"#
                ),
            )
            .unwrap();
        producer
            .add_service_text(
                "join",
                "t{from{$x},to{$y}} :- acc/r{t{from{$x},to{$z}}, t{from{$z},to{$y}}}",
            )
            .unwrap();
        producer
            .add_service_text("feed", "t{from{$x},to{$y}} :- acc/r{t{from{$x},to{$y}}}")
            .unwrap();
        let consumer = net.add_tenant(c);
        consumer
            .add_document_text("inbox", &format!("box{{@{p}.feed}}"))
            .unwrap();
    }

    fn sharded(peers: usize, push_deltas: bool) -> ShardedNetwork {
        let mut net = ShardedNetwork::new(ShardedConfig {
            push_deltas,
            ..ShardedConfig::default()
        });
        for i in 0..peers {
            net.join_peer(&format!("peer-{i}"));
        }
        for k in 0..3 {
            pair(&mut net, &format!("prod-{k}"), &format!("cons-{k}"));
        }
        net
    }

    #[test]
    fn fixpoint_is_placement_independent() {
        let mut reference = sharded(1, true);
        assert!(reference.run(100).unwrap());
        for peers in [2usize, 3, 4, 7] {
            let mut net = sharded(peers, true);
            assert!(net.run(100).unwrap());
            assert_eq!(net.canonical_key(), reference.canonical_key(), "{peers} peers");
        }
    }

    #[test]
    fn delta_push_and_full_response_agree_and_deltas_are_smaller() {
        let mut delta = sharded(4, true);
        assert!(delta.run(100).unwrap());
        let mut full = sharded(4, false);
        assert!(full.run(100).unwrap());
        assert_eq!(delta.canonical_key(), full.canonical_key());
        // Same counterfactual volume, strictly smaller actual volume:
        // the producer re-pushes a growing closure whose prefix the
        // consumer has already seen.
        assert_eq!(delta.stats.full_push_bytes, full.stats.full_push_bytes);
        if delta.stats.remote_deliveries > 0 {
            assert!(
                delta.stats.wire_push_bytes < delta.stats.full_push_bytes,
                "delta {} vs full {}",
                delta.stats.wire_push_bytes,
                delta.stats.full_push_bytes
            );
        }
    }

    #[test]
    fn mid_run_join_rebalances_without_changing_the_fixpoint() {
        let mut reference = sharded(2, true);
        assert!(reference.run(100).unwrap());

        let mut net = sharded(2, true);
        net.step_round().unwrap();
        net.step_round().unwrap();
        let epoch_before = net.epoch();
        net.join_peer("late");
        assert!(net.epoch() >= epoch_before, "epoch never regresses");
        assert!(net.run(100).unwrap());
        assert_eq!(net.canonical_key(), reference.canonical_key());
        // The join landed somewhere: placement covers every tenant.
        for t in net.tenant_names() {
            assert!(net.owner_of(t.as_str()).is_some());
        }
    }

    #[test]
    fn colocated_tenants_stay_isolated() {
        // Two tenants with *identical* doc and service names but
        // different data, forced onto one peer: neither leaks into the
        // other's evaluation env.
        let mut net = ShardedNetwork::new(ShardedConfig::default());
        net.join_peer("only");
        for (t, v) in [("alpha", "1"), ("beta", "2")] {
            let tenant = net.add_tenant(t);
            tenant
                .add_document_text("base", &format!(r#"r{{v{{"{v}"}}}}"#))
                .unwrap();
            tenant
                .add_service_text("get", "w{$x} :- base/r{v{$x}}")
                .unwrap();
            tenant
                .add_document_text("out", &format!("o{{@{t}.get}}"))
                .unwrap();
        }
        assert!(net.run(50).unwrap());
        let a = net.tenant("alpha").unwrap().doc("out").unwrap();
        let b = net.tenant("beta").unwrap().doc("out").unwrap();
        let ea = axml_core::parse::parse_tree(r#"o{@alpha.get, w{"1"}}"#).unwrap();
        let eb = axml_core::parse::parse_tree(r#"o{@beta.get, w{"2"}}"#).unwrap();
        assert!(axml_core::subsume::equivalent(a, &ea), "got {a}");
        assert!(axml_core::subsume::equivalent(b, &eb), "got {b}");
    }

    #[test]
    fn gauges_are_stable_and_cover_all_peers() {
        let mut net = sharded(4, true);
        net.run(100).unwrap();
        let gauges = net.peer_gauges();
        assert_eq!(gauges.len(), 4);
        let names: Vec<&str> = gauges.iter().map(|(p, _)| p.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "name-sorted ordering");
        let placed: u64 = gauges.iter().map(|(_, g)| g.docs_placed).sum();
        assert_eq!(placed, 6, "3 pairs × 2 docs, all placed");
    }

    /// Two flat peers: a portal pulling titles from a store.
    fn portal_network(mode: Mode) -> ShardedNetwork {
        let mut net = ShardedNetwork::flat(mode, None);
        let store = net.add_tenant("store");
        store
            .add_document_text("cds", r#"catalog{cd{title{"Body and Soul"}}, cd{title{"So What"}}}"#)
            .unwrap();
        store
            .add_service_text("titles", "t{$x} :- cds/catalog{cd{title{$x}}}")
            .unwrap();
        let portal = net.add_tenant("portal");
        portal
            .add_document_text("dir", "directory{@store.titles}")
            .unwrap();
        net
    }

    #[test]
    fn pull_mode_collects_remote_data() {
        let mut net = portal_network(Mode::Pull);
        assert!(net.run(100).unwrap());
        let dir = net.tenant("portal").unwrap().doc("dir").unwrap();
        let expected = axml_core::parse::parse_tree(
            r#"directory{@store.titles, t{"Body and Soul"}, t{"So What"}}"#,
        )
        .unwrap();
        assert!(equivalent(dir, &expected), "got {dir}");
        // Each flat tenant is its own physical peer.
        assert_eq!(net.owner_of("portal"), Some(Sym::intern("portal")));
        assert_eq!(net.peer_names().len(), 2);
    }

    #[test]
    fn push_mode_sends_fewer_messages_on_stable_data() {
        let mut pull = portal_network(Mode::Pull);
        let mut push = portal_network(Mode::Push);
        // Several extra rounds model continued polling.
        for _ in 0..5 {
            pull.step_round().unwrap();
            push.step_round().unwrap();
        }
        assert_eq!(pull.canonical_key(), push.canonical_key());
        assert!(
            push.stats.calls_sent < pull.stats.calls_sent,
            "push {} vs pull {}",
            push.stats.calls_sent,
            pull.stats.calls_sent
        );
    }

    #[test]
    fn journal_lanes_are_flat_peers() {
        let mut net = portal_network(Mode::Pull);
        net.enable_tracing();
        assert!(net.run(100).unwrap());
        let events = net.take_journal();
        let store = Sym::intern("store");
        let portal = Sym::intern("portal");
        // The portal called the store and got a response back.
        assert!(events.iter().any(|e| matches!(
            e.kind,
            EventKind::MsgSend { from, to, kind: MsgKind::Call }
                if from == portal && to == store
        )));
        assert!(events.iter().any(|e| matches!(
            e.kind,
            EventKind::MsgSend { from, to, kind: MsgKind::Response }
                if from == store && to == portal
        )));
        assert!(events.iter().any(|e| matches!(
            e.kind,
            EventKind::PeerEval { peer, .. } if peer == store
        )));
        // Rounds bracket the traffic, and the final round is quiet.
        assert!(matches!(events[0].kind, EventKind::RoundStart { round: 0 }));
        let last_end = events.iter().rev().find_map(|e| match e.kind {
            EventKind::RoundEnd { changed, .. } => Some(changed),
            _ => None,
        });
        assert_eq!(last_end, Some(false));
        // Tracing detaches with the journal; untraced runs record nothing.
        assert!(net.take_journal().is_empty());
        let mut plain = portal_network(Mode::Pull);
        plain.run(100).unwrap();
        assert!(plain.take_journal().is_empty());
    }

    #[test]
    fn unknown_peer_errors() {
        let mut net = ShardedNetwork::flat(Mode::Pull, None);
        net.add_tenant("solo")
            .add_document_text("d", "a{@ghost.svc}")
            .unwrap();
        assert!(net.run(10).is_err());
    }

    #[test]
    #[should_panic(expected = "join/leave need a ring")]
    fn flat_placement_is_pinned() {
        portal_network(Mode::Push).join_peer("extra");
    }
}
