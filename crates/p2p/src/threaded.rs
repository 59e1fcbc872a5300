//! Truly concurrent peers: each peer runs on its own OS thread and
//! exchanges AXML messages over channels.
//!
//! The round driver ([`crate::placement::ShardedNetwork`]) is
//! deterministic; this module removes that crutch. Peers pull
//! concurrently, interleave arbitrarily, and a coordinator detects
//! global quiescence with a double-wave protocol (digests stable *and*
//! the network's global sent/received counters balanced across two
//! consecutive polls — the classical guard against in-flight
//! laggards). Theorem 2.1 predicts that, despite the nondeterminism,
//! the final state equals the round driver's fixpoint — which is
//! exactly what the tests (and `tests/p2p_oracle.rs`, against the
//! paper-verbatim engine) assert, across many runs.

use crate::peer::{Peer, PeerSnapshot};
use axml_core::engine::Parallelism;
use axml_core::error::{AxmlError, Result};
use axml_core::forest::Forest;
use axml_core::provenance::{InvocationRecord, Origin, Provenance, ProvenanceStore};
use axml_core::reduce::CanonKey;
use axml_core::sym::{FxHashMap, Sym};
use axml_core::trace::{EventKind, Journal, MsgKind, TraceEvent, Tracer};
use axml_core::tree::{NodeId, Tree};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// A message between peer threads.
enum Msg {
    /// Invoke `service` at the receiver on behalf of `(caller, doc, node)`.
    Call {
        caller: Sym,
        doc: Sym,
        node: NodeId,
        service: Sym,
        input: Tree,
        context: Tree,
        /// Request-scoped trace id, assigned by the caller when the
        /// pull is issued; the provider stamps its receive/eval/send
        /// events with it and echoes it on the `Response`, so one
        /// pull's derivation is reconstructable across both peers'
        /// journals.
        trace: u64,
    },
    /// The provider's answer for a call site, stamped with the
    /// provider's state digest so the caller knows whether the provider
    /// is still evolving (and must be re-pulled).
    Response {
        doc: Sym,
        node: NodeId,
        forest: Forest,
        provider: Sym,
        service: Sym,
        provider_digest: Vec<(Sym, CanonKey)>,
        /// Cross-peer lineage rides the response: the sequence number of
        /// the provider-side [`InvocationRecord`] that produced the
        /// forest (None when provenance is off).
        prov_seq: Option<u64>,
        /// The originating `Call`'s trace id, echoed back.
        trace: u64,
    },
    /// A provider's documents changed: past callers should re-pull.
    /// (The §2.2 push view assisting the pull loop — without it, a
    /// provider that changes after a caller's last pull would never be
    /// re-queried.)
    Changed,
    /// Coordinator poll: report a digest and the message counters.
    Poll(Sender<PollReply>),
    /// Stop and ship the final peer state (plus the peer's trace
    /// journal and provenance store, when enabled) back.
    Shutdown(Sender<(Peer, Option<Journal>, Option<ProvenanceStore>)>),
}

struct PollReply {
    digest: Vec<(Sym, CanonKey)>,
    sent: u64,
    received: u64,
    /// No pending pull scheduled (the peer will stay silent unless a
    /// message arrives).
    idle: bool,
    /// Cumulative `PeerSnapshot` freezes this peer performed to serve
    /// call batches.
    snapshot_freezes: u64,
    /// Cumulative call batches answered from an already-frozen
    /// snapshot (no commit intervened since the last freeze).
    snapshot_reuses: u64,
}

/// Configuration for the threaded runtime ([`run_threaded`]).
#[derive(Clone, Copy, Debug)]
pub struct ThreadedConfig {
    /// Polling waves before the coordinator gives up on quiescence.
    pub max_waves: usize,
    /// Keep a per-peer event [`Journal`] of message traffic and service
    /// evaluations, shipped back in [`ThreadedOutcome::journals`] at
    /// shutdown (journals are per-peer — no cross-thread sink, no
    /// contention on the hot path).
    pub trace: bool,
    /// Keep a per-peer [`ProvenanceStore`]: documents stamped as seed
    /// data up front, every served `Call` logged as an
    /// [`InvocationRecord`] whose seq rides the `Response`, and every
    /// delivered response's grafted nodes stamped [`Origin::Remote`] —
    /// shipped back in [`ThreadedOutcome::provenance`] at shutdown.
    pub provenance: bool,
    /// How each peer evaluates a batch of simultaneously-pending
    /// incoming calls: the peer freezes one O(1)
    /// [`PeerSnapshot`] per batch, and with
    /// [`Parallelism::Workers`]`(n)` drains every queued `Call` and
    /// evaluates them on `n` worker threads against that snapshot,
    /// then sends the responses sequentially in arrival order — the
    /// same snapshot-read / sequential-commit split as the engine's
    /// parallel rounds, and sound for the same Theorem 2.1 reason.
    pub parallelism: Parallelism,
}

impl Default for ThreadedConfig {
    fn default() -> ThreadedConfig {
        ThreadedConfig {
            max_waves: 2_000,
            trace: false,
            provenance: false,
            parallelism: Parallelism::default(),
        }
    }
}

/// Statistics of a threaded run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ThreadedStats {
    /// Polling waves until quiescence.
    pub waves: usize,
    /// Total messages sent by peers (calls + responses).
    pub messages: u64,
    /// `PeerSnapshot` freezes performed across all peers: one per
    /// *invalidation*, not one per batch — a peer re-freezes only
    /// after a commit actually changed its documents.
    pub snapshot_freezes: u64,
    /// Call batches answered from a still-valid frozen snapshot.
    pub snapshot_reuses: u64,
}

/// Outcome of a threaded run: the final peers plus statistics.
pub struct ThreadedOutcome {
    /// Final peer states, by name.
    pub peers: FxHashMap<Sym, Peer>,
    /// Run statistics.
    pub stats: ThreadedStats,
    /// Per-peer event journals ([`ThreadedConfig::trace`] on; empty
    /// otherwise). Each peer stamps its own events, so
    /// ordering is meaningful per peer, not across peers.
    pub journals: FxHashMap<Sym, Vec<TraceEvent>>,
    /// Per-peer provenance stores ([`ThreadedConfig::provenance`] on;
    /// empty otherwise). A node stamped
    /// [`Origin::Remote`] on one peer resolves through the *provider
    /// peer's* store via the origin's `seq`.
    pub provenance: FxHashMap<Sym, ProvenanceStore>,
}

impl ThreadedOutcome {
    /// Canonical key of the final network state (for comparisons with
    /// the round driver's [`crate::ShardedNetwork::canonical_key`]).
    pub fn canonical_key(&self) -> Vec<(Sym, Sym, CanonKey)> {
        let mut out = Vec::new();
        for (name, peer) in &self.peers {
            for (d, k) in peer.digest() {
                out.push((*name, d, k));
            }
        }
        out.sort_unstable();
        out
    }
}

/// Run the given peers concurrently (pull mode) until the coordinator
/// detects global quiescence or `cfg.max_waves` polls pass.
pub fn run_threaded(peers: Vec<Peer>, cfg: &ThreadedConfig) -> Result<ThreadedOutcome> {
    let ThreadedConfig {
        max_waves,
        trace,
        provenance,
        parallelism,
    } = *cfg;
    let names: Vec<Sym> = peers.iter().map(|p| p.name).collect();
    let mut senders: FxHashMap<Sym, Sender<Msg>> = FxHashMap::default();
    let mut receivers: Vec<(Peer, Receiver<Msg>)> = Vec::new();
    for peer in peers {
        let (tx, rx) = unbounded::<Msg>();
        senders.insert(peer.name, tx);
        receivers.push((peer, rx));
    }

    // One network-wide trace-id well: every pull any peer issues gets
    // a fresh nonzero id, so ids are unique across the whole run.
    let trace_ids = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for (peer, rx) in receivers {
        let peers_tx = senders.clone();
        let journal = trace.then(Journal::new);
        let store = provenance.then(|| {
            let store = ProvenanceStore::new();
            peer.seed_provenance(&store);
            store
        });
        let trace_ids = Arc::clone(&trace_ids);
        handles.push(thread::spawn(move || {
            peer_loop(peer, rx, peers_tx, journal, store, parallelism, &trace_ids)
        }));
    }

    // Coordinator: two consecutive waves where every peer is idle, the
    // digests are unchanged, the global counters balance (nothing in
    // flight: every sent message was processed), and the counters did
    // not move between the waves (nothing was sent in between). Any
    // message or pending pull after a peer's poll bumps a counter and
    // voids the fire condition — race-free by monotonicity.
    let mut stats = ThreadedStats::default();
    // Per-wave snapshot: per-peer doc digests + (sent, received) counters.
    type WaveSnapshot = (Vec<Vec<(Sym, CanonKey)>>, u64, u64);
    let mut prev: Option<WaveSnapshot> = None;
    let mut quiesced = false;
    for _ in 0..max_waves {
        stats.waves += 1;
        thread::sleep(Duration::from_millis(3));
        let mut digests = Vec::new();
        let mut sent = 0u64;
        let mut received = 0u64;
        let mut freezes = 0u64;
        let mut reuses = 0u64;
        let mut all_idle = true;
        let mut ok = true;
        for name in &names {
            let (rtx, rrx) = unbounded();
            if senders[name].send(Msg::Poll(rtx)).is_err() {
                ok = false;
                break;
            }
            match rrx.recv_timeout(Duration::from_secs(5)) {
                Ok(reply) => {
                    digests.push(reply.digest);
                    sent += reply.sent;
                    received += reply.received;
                    all_idle &= reply.idle;
                    freezes += reply.snapshot_freezes;
                    reuses += reply.snapshot_reuses;
                }
                Err(_) => {
                    ok = false;
                    break;
                }
            }
        }
        if !ok {
            break;
        }
        // Counters are cumulative per peer; the latest complete wave
        // holds the run's totals so far.
        stats.snapshot_freezes = freezes;
        stats.snapshot_reuses = reuses;
        let balanced = sent == received;
        if all_idle && balanced {
            if let Some((pd, ps, pr)) = &prev {
                if *pd == digests && *ps == sent && *pr == received {
                    stats.messages = sent;
                    quiesced = true;
                    break;
                }
            }
            prev = Some((digests, sent, received));
        } else {
            prev = None;
        }
    }

    // Shut everything down and collect final states (journals, stores).
    let mut final_peers: FxHashMap<Sym, Peer> = FxHashMap::default();
    let mut journals: FxHashMap<Sym, Vec<TraceEvent>> = FxHashMap::default();
    let mut stores: FxHashMap<Sym, ProvenanceStore> = FxHashMap::default();
    for name in &names {
        let (rtx, rrx) = unbounded();
        let _ = senders[name].send(Msg::Shutdown(rtx));
        if let Ok((peer, journal, store)) = rrx.recv_timeout(Duration::from_secs(5)) {
            final_peers.insert(*name, peer);
            if let Some(j) = journal {
                journals.insert(*name, j.into_events());
            }
            if let Some(s) = store {
                stores.insert(*name, s);
            }
        }
    }
    for h in handles {
        let _ = h.join();
    }
    if !quiesced {
        return Err(AxmlError::BudgetExhausted);
    }
    Ok(ThreadedOutcome {
        peers: final_peers,
        stats,
        journals,
        provenance: stores,
    })
}

/// One incoming `Call`, unpacked for batch service.
struct PendingCall {
    caller: Sym,
    doc: Sym,
    node: NodeId,
    service: Sym,
    input: Tree,
    context: Tree,
    trace: u64,
}

/// The peer's event loop: serve calls, absorb responses, keep pulling.
fn peer_loop(
    mut peer: Peer,
    rx: Receiver<Msg>,
    peers_tx: FxHashMap<Sym, Sender<Msg>>,
    mut journal: Option<Journal>,
    mut store: Option<ProvenanceStore>,
    parallelism: Parallelism,
    trace_ids: &AtomicU64,
) {
    let myname = peer.name;
    let workers = match parallelism {
        Parallelism::Sequential => 0,
        Parallelism::Workers(n) => n.max(1),
    };
    let mut sent = 0u64;
    let mut received = 0u64;
    // Re-pull when: never pulled, new data arrived, our own documents
    // changed, or a provider's stamped digest shows it is still moving.
    let mut need_pull = true;
    let mut provider_digests: FxHashMap<Sym, Vec<(Sym, CanonKey)>> = FxHashMap::default();
    let mut callers_seen: Vec<Sym> = Vec::new();
    // Non-Call messages set aside while draining a call batch.
    let mut backlog: VecDeque<Msg> = VecDeque::new();
    // The current frozen state, reused across call batches until a
    // commit invalidates it. The *only* mutation site in this loop is
    // `deliver_with` in the `Response` arm, so invalidating there —
    // and only when it reports a change — keeps the cached snapshot
    // exactly equal to the live state whenever it exists. A whole
    // push-propagation wave of batches between commits then freezes
    // once instead of once per batch.
    let mut frozen: Option<PeerSnapshot> = None;
    let mut snapshot_freezes = 0u64;
    let mut snapshot_reuses = 0u64;
    loop {
        let tracer = match journal.as_ref() {
            Some(j) => Tracer::new(j),
            None => Tracer::disabled(),
        };
        let msg = match backlog.pop_front() {
            Some(m) => Ok(m),
            None => rx.recv_timeout(Duration::from_millis(2)),
        };
        match msg {
            Ok(Msg::Call {
                caller,
                doc,
                node,
                service,
                input,
                context,
                trace,
            }) => {
                let mut batch = vec![PendingCall {
                    caller,
                    doc,
                    node,
                    service,
                    input,
                    context,
                    trace,
                }];
                if workers > 0 {
                    // Drain every already-queued call into one batch so
                    // the worker pool has something to chew on; other
                    // message kinds keep their relative order via the
                    // backlog.
                    while let Ok(m) = rx.try_recv() {
                        match m {
                            Msg::Call {
                                caller,
                                doc,
                                node,
                                service,
                                input,
                                context,
                                trace,
                            } => batch.push(PendingCall {
                                caller,
                                doc,
                                node,
                                service,
                                input,
                                context,
                                trace,
                            }),
                            other => backlog.push_back(other),
                        }
                    }
                }
                received += batch.len() as u64;
                for call in &batch {
                    tracer.with_trace(call.trace).emit(|| EventKind::MsgRecv {
                        peer: myname,
                        kind: MsgKind::Call,
                    });
                    if !callers_seen.contains(&call.caller) {
                        callers_seen.push(call.caller);
                    }
                }

                // Answer the whole batch from one MVCC snapshot — an
                // O(1) freeze of the peer's documents (COW trees, so a
                // few Arc bumps) — and keep that snapshot for the
                // *next* batch too, unless a commit intervenes: only
                // the `Response` arm mutates the peer, and it drops
                // `frozen` when the delivery changed anything. With
                // `Workers(n)` the calls are striped across a scoped
                // pool sharing the snapshot — the peer-local version
                // of the engine's snapshot-read phase. Responses are
                // sent afterwards, sequentially, in arrival order, and
                // stamped with the digest of the exact state that
                // answered them, so callers observe the same behavior
                // whatever the worker count.
                let snap = match &frozen {
                    Some(s) => {
                        snapshot_reuses += 1;
                        s.clone()
                    }
                    None => {
                        snapshot_freezes += 1;
                        let s = peer.snapshot();
                        frozen = Some(s.clone());
                        s
                    }
                };
                let evals: Vec<(Result<Forest>, u64)> = if workers > 1 && batch.len() > 1 {
                    let k = workers.min(batch.len());
                    let snap_ref = &snap;
                    let batch_ref = &batch[..];
                    crossbeam::thread::scope(|scope| {
                        let handles: Vec<_> = (0..k)
                            .map(|w| {
                                scope.spawn(move || {
                                    let mut out = Vec::new();
                                    let mut i = w;
                                    while i < batch_ref.len() {
                                        let call = &batch_ref[i];
                                        let t0 = Instant::now();
                                        let r = snap_ref.evaluate(
                                            call.service,
                                            &call.input,
                                            &call.context,
                                        );
                                        out.push((i, r, t0.elapsed().as_nanos() as u64));
                                        i += k;
                                    }
                                    out
                                })
                            })
                            .collect();
                        let mut slots: Vec<Option<(Result<Forest>, u64)>> =
                            (0..batch_ref.len()).map(|_| None).collect();
                        for h in handles {
                            for (i, r, d) in h.join().expect("peer eval worker panicked") {
                                slots[i] = Some((r, d));
                            }
                        }
                        slots
                            .into_iter()
                            .map(|s| s.expect("every call evaluated"))
                            .collect()
                    })
                } else {
                    batch
                        .iter()
                        .map(|call| {
                            let t0 = Instant::now();
                            let r = snap.evaluate(call.service, &call.input, &call.context);
                            (r, t0.elapsed().as_nanos() as u64)
                        })
                        .collect()
                };

                for (call, (res, dur_ns)) in batch.iter().zip(evals) {
                    let Ok(forest) = res else { continue };
                    tracer.with_trace(call.trace).emit(|| EventKind::PeerEval {
                        peer: myname,
                        service: call.service,
                        dur_ns,
                    });
                    // Provider-side lineage: record what this evaluation
                    // read locally; the seq rides the response so the
                    // caller can stamp the grafts with it.
                    let prov_seq = store.as_ref().map(|st| {
                        st.begin_invocation(InvocationRecord {
                            seq: 0,
                            service: call.service,
                            doc: call.doc,
                            node: call.node,
                            round: 0, // the threaded backend has no rounds
                            doc_version: 0,
                            peer: Some(myname),
                            inputs: snap.witnesses(call.service),
                        })
                    });
                    if let Some(tx) = peers_tx.get(&call.caller) {
                        sent += 1;
                        tracer.with_trace(call.trace).emit(|| EventKind::MsgSend {
                            from: myname,
                            to: call.caller,
                            kind: MsgKind::Response,
                        });
                        let _ = tx.send(Msg::Response {
                            doc: call.doc,
                            node: call.node,
                            forest,
                            provider: myname,
                            service: call.service,
                            provider_digest: snap.digest(),
                            prov_seq,
                            trace: call.trace,
                        });
                    }
                }
            }
            Ok(Msg::Response {
                doc,
                node,
                forest,
                provider,
                service,
                provider_digest,
                prov_seq,
                trace,
            }) => {
                received += 1;
                tracer.with_trace(trace).emit(|| EventKind::MsgRecv {
                    peer: myname,
                    kind: MsgKind::Response,
                });
                // Caller-side lineage: grafted nodes name the remote
                // invocation that produced them.
                let prov = match store.as_ref() {
                    Some(st) => Provenance::new(st),
                    None => Provenance::disabled(),
                };
                let origin = Origin::Remote {
                    provider,
                    service,
                    seq: prov_seq.unwrap_or(0),
                    round: 0,
                };
                let changed = peer.deliver_with(doc, node, &forest, prov, origin);
                if changed {
                    // The commit moved our documents: the cached batch
                    // snapshot no longer equals the live state.
                    frozen = None;
                }
                let known = provider_digests.insert(provider, provider_digest.clone());
                if changed || known.as_ref() != Some(&provider_digest) {
                    need_pull = true;
                }
                if changed {
                    // Our own data moved: past callers must re-pull us.
                    for c in &callers_seen {
                        if let Some(tx) = peers_tx.get(c) {
                            sent += 1;
                            tracer.emit(|| EventKind::MsgSend {
                                from: myname,
                                to: *c,
                                kind: MsgKind::Changed,
                            });
                            let _ = tx.send(Msg::Changed);
                        }
                    }
                }
            }
            Ok(Msg::Changed) => {
                received += 1;
                tracer.emit(|| EventKind::MsgRecv {
                    peer: myname,
                    kind: MsgKind::Changed,
                });
                need_pull = true;
            }
            Ok(Msg::Poll(reply)) => {
                tracer.emit(|| EventKind::MsgRecv {
                    peer: myname,
                    kind: MsgKind::Poll,
                });
                let _ = reply.send(PollReply {
                    digest: peer.digest(),
                    sent,
                    received,
                    idle: !need_pull,
                    snapshot_freezes,
                    snapshot_reuses,
                });
            }
            Ok(Msg::Shutdown(reply)) => {
                let _ = reply.send((peer, journal.take(), store.take()));
                return;
            }
            Err(RecvTimeoutError::Timeout) => {
                if need_pull {
                    for (doc, node, qualified) in peer.function_nodes() {
                        let Some((provider, service)) = split_qualified(qualified) else {
                            continue;
                        };
                        let Some((input, context)) = peer.call_arguments(doc, node) else {
                            continue;
                        };
                        if let Some(tx) = peers_tx.get(&provider) {
                            sent += 1;
                            // Every pull is one request: a fresh
                            // network-unique trace id stamps the send
                            // and rides the Call to the provider.
                            let trace = trace_ids.fetch_add(1, Ordering::Relaxed) + 1;
                            tracer.with_trace(trace).emit(|| EventKind::MsgSend {
                                from: myname,
                                to: provider,
                                kind: MsgKind::Call,
                            });
                            let _ = tx.send(Msg::Call {
                                caller: myname,
                                doc,
                                node,
                                service,
                                input,
                                context,
                                trace,
                            });
                        }
                    }
                    need_pull = false;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

fn split_qualified(qualified: Sym) -> Option<(Sym, Sym)> {
    let s = qualified.as_str();
    let (peer, svc) = s.split_once('.')?;
    Some((Sym::intern(peer), Sym::intern(svc)))
}

/// Create a standalone peer (for [`run_threaded`]).
pub fn standalone_peer(name: &str) -> Peer {
    Peer::new(Sym::intern(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::{Mode, ShardedNetwork};

    /// Fill a peer by name: `store` serves titles, `hub` relays them,
    /// `portal` reads the hub, any other name reads the store.
    fn populate(p: &mut Peer) {
        match p.name.as_str() {
            "store" => {
                p.add_document_text(
                    "cds",
                    r#"catalog{cd{title{"Body and Soul"}}, cd{title{"So What"}}}"#,
                )
                .unwrap();
                p.add_service_text("titles", "t{$x} :- cds/catalog{cd{title{$x}}}")
                    .unwrap();
            }
            "hub" => {
                p.add_document_text("feed", "feed{@store.titles}").unwrap();
                p.add_service_text("relay", "got{$x} :- feed/feed{t{$x}}").unwrap();
            }
            "portal" => p.add_document_text("page", "page{@hub.relay}").unwrap(),
            _ => p.add_document_text("page", "page{@store.titles}").unwrap(),
        }
    }

    const CHAIN: &[&str] = &["store", "hub", "portal"];

    fn peers(names: &[&str]) -> Vec<Peer> {
        names
            .iter()
            .map(|n| {
                let mut p = standalone_peer(n);
                populate(&mut p);
                p
            })
            .collect()
    }

    /// The round driver's fixpoint over the same peers.
    fn reference_key(names: &[&str]) -> Vec<(Sym, Sym, CanonKey)> {
        let mut net = ShardedNetwork::flat(Mode::Pull, None);
        for n in names {
            populate(net.add_tenant(n));
        }
        assert!(net.run(100).unwrap());
        net.canonical_key()
    }

    fn traced() -> ThreadedConfig {
        ThreadedConfig {
            trace: true,
            ..ThreadedConfig::default()
        }
    }

    #[test]
    fn batch_snapshots_are_reused_until_a_commit_intervenes() {
        let out = run_threaded(peers(CHAIN), &ThreadedConfig::default()).unwrap();
        assert_eq!(out.canonical_key(), reference_key(CHAIN));
        assert!(out.stats.messages >= 2);
        // Freezes happen (batches were served)…
        assert!(
            out.stats.snapshot_freezes >= 1,
            "no snapshot was ever frozen: {:?}",
            out.stats
        );
        // …but the store peer never commits (nothing calls into its
        // documents), so its repeat pulls from the hub are answered
        // from the cached snapshot: at least one reuse is guaranteed
        // by the protocol, whatever the interleaving.
        assert!(
            out.stats.snapshot_reuses >= 1,
            "every batch re-froze: {:?}",
            out.stats
        );
    }

    #[test]
    fn traced_run_ships_per_peer_journals() {
        let out = run_threaded(peers(CHAIN), &traced()).unwrap();
        assert_eq!(out.canonical_key(), reference_key(CHAIN));
        // Every peer shipped a journal; the provider logged evaluations
        // and the callers logged their pulls.
        assert_eq!(out.journals.len(), 3);
        let store = &out.journals[&Sym::intern("store")];
        assert!(store.iter().any(|e| matches!(
            e.kind,
            EventKind::PeerEval { service, .. }
                if service == Sym::intern("titles")
        )));
        let portal = &out.journals[&Sym::intern("portal")];
        assert!(portal.iter().any(|e| matches!(
            e.kind,
            EventKind::MsgSend { to, kind: MsgKind::Call, .. }
                if to == Sym::intern("hub")
        )));
        // Per-peer ordering is strict.
        for events in out.journals.values() {
            assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        }
        // Untraced runs ship no journals.
        let plain = run_threaded(peers(CHAIN), &ThreadedConfig::default()).unwrap();
        assert!(plain.journals.is_empty());
    }

    #[test]
    fn trace_ids_reconstruct_a_pull_across_peer_journals() {
        let out = run_threaded(peers(CHAIN), &traced()).unwrap();
        let hub = &out.journals[&Sym::intern("hub")];
        let store = &out.journals[&Sym::intern("store")];
        // Pick one of hub's pulls of the store: its Call send carries a
        // fresh nonzero trace id...
        let pull = hub
            .iter()
            .find(|e| {
                matches!(
                    e.kind,
                    EventKind::MsgSend { to, kind: MsgKind::Call, .. }
                        if to == Sym::intern("store")
                ) && e.trace != 0
            })
            .expect("hub pulled the store with a trace id");
        let id = pull.trace;
        // ...the provider's receive, evaluation, and response send all
        // carry the same id...
        assert!(store.iter().any(|e| e.trace == id
            && matches!(e.kind, EventKind::MsgRecv { kind: MsgKind::Call, .. })));
        assert!(store.iter().any(|e| e.trace == id
            && matches!(
                e.kind,
                EventKind::PeerEval { service, .. } if service == Sym::intern("titles")
            )));
        assert!(store.iter().any(|e| e.trace == id
            && matches!(e.kind, EventKind::MsgSend { kind: MsgKind::Response, .. })));
        // ...and the caller's response receive closes the loop.
        assert!(hub.iter().any(|e| e.trace == id
            && matches!(e.kind, EventKind::MsgRecv { kind: MsgKind::Response, .. })));
        // Ids are network-unique: portal's pulls of the hub never share
        // an id with hub's pulls of the store.
        let portal = &out.journals[&Sym::intern("portal")];
        for e in portal {
            if matches!(e.kind, EventKind::MsgSend { kind: MsgKind::Call, .. }) {
                assert_ne!(e.trace, 0, "pulls are always trace-stamped");
                assert_ne!(e.trace, id, "trace ids are unique per pull");
            }
        }
    }

    #[test]
    fn parallel_peer_evaluation_matches_sequential_fixpoint() {
        // A star: many callers pull the same provider, so the provider
        // thread actually accumulates call batches for its worker pool.
        let star = ["store", "caller0", "caller1", "caller2", "caller3"];
        let reference = reference_key(&star);
        for n in [1, 2, 4] {
            let out = run_threaded(
                peers(&star),
                &ThreadedConfig {
                    parallelism: Parallelism::Workers(n),
                    ..ThreadedConfig::default()
                },
            )
            .unwrap_or_else(|e| panic!("Workers({n}): {e}"));
            assert_eq!(
                out.canonical_key(),
                reference,
                "Workers({n}): parallel peer fixpoint differs"
            );
        }
    }

    #[test]
    fn quiescence_detected_promptly_on_static_network() {
        let mut solo = standalone_peer("solo");
        solo.add_document_text("d", r#"a{"static"}"#).unwrap();
        let out = run_threaded(vec![solo], &ThreadedConfig::default()).unwrap();
        assert_eq!(out.stats.messages, 0);
        assert!(out.stats.waves >= 2);
    }
}
