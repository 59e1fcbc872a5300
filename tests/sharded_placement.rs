//! Differential coverage for consistent-hash placement: a
//! [`ShardedNetwork`] must reach the same per-tenant fixpoint for
//! every peer count, every ring seed, and across mid-run peer joins
//! and leaves — with the placement-independent journal projection and
//! the tenant-level provenance DAGs bit-for-bit identical too.
//!
//! Soundness background (see `docs/sharding.md`): tenant state
//! (subscriptions, seen-sets, digests) lives at the tenant, commits
//! happen in a canonical per-round order, and Theorem 2.1 (confluence
//! of fair rewritings) pins every placement's schedule to the same
//! limit. Only message events and wall-clock timings may differ
//! between placements.

use axml_bench::sharded_tenant_network;
use positive_axml::core::provenance::Origin;
use positive_axml::core::trace::{EventKind, TraceEvent};
use positive_axml::p2p::{
    detect_termination, ShardedConfig, ShardedNetwork, Verdict,
};
use proptest::prelude::*;

const PEER_COUNTS: [usize; 3] = [1, 2, 4];
const MAX_ROUNDS: usize = 200;

fn net_with(peers: usize, pairs: usize, chain: usize, ring_seed: u64) -> ShardedNetwork {
    let cfg = ShardedConfig {
        seed: ring_seed,
        ..ShardedConfig::default()
    };
    sharded_tenant_network(peers, pairs, chain, cfg)
}

/// The placement-independent projection of a journal: drop the
/// message-plane events (`MsgSend`/`MsgRecv` name physical peers;
/// `PeerEval` carries wall-clock latency) and zero the one timing
/// field the logical plane records (`Invoke::dur_ns`). Everything
/// left — round boundaries, call selection, invocations, grafts,
/// reductions, cache and index activity — is emitted in canonical
/// commit order and must be identical for every placement.
fn logical_projection(events: &[TraceEvent]) -> Vec<String> {
    events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::MsgSend { .. }
            | EventKind::MsgRecv { .. }
            | EventKind::PeerEval { .. } => None,
            EventKind::Invoke {
                doc,
                node,
                service,
                changed,
                grafted,
                result_trees,
                doc_version,
                ..
            } => Some(format!(
                "Invoke {doc} {node:?} {service} {changed} {grafted} {result_trees} {doc_version}"
            )),
            ref kind => Some(format!("{kind:?}")),
        })
        .collect()
}

/// Every tenant's provenance, rendered placement-independently: for
/// each document (tenant-name order), the origin stamp of every live
/// node in traversal order. Origins are tenant-level (`Remote`
/// records the provider *tenant*, not the physical peer) with seqs
/// assigned in canonical commit order.
fn origin_projection(net: &ShardedNetwork) -> Vec<String> {
    let mut tenants: Vec<_> = net.tenant_names();
    tenants.sort_unstable_by(|a, b| a.as_str().cmp(b.as_str()));
    let mut out = Vec::new();
    for name in tenants {
        let peer = net.tenant(name.as_str()).expect("tenant exists");
        let store = net
            .provenance_store(name.as_str())
            .expect("provenance enabled");
        for &doc in peer.doc_names() {
            let tree = peer.doc(doc.as_str()).expect("doc exists");
            for node in tree.iter_live(tree.root()) {
                out.push(format!(
                    "{name}/{doc}: {:?}",
                    store.origin(doc, node)
                ));
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Placement transparency over the workload and the ring: for any
    /// tenant-pair workload size and any ring seed (i.e. any
    /// tenant→peer assignment), every peer count reaches the same
    /// canonical fixpoint through the same number of rounds and
    /// evaluations, and remote traffic appears exactly when there is
    /// more than one peer to cross.
    #[test]
    fn fixpoint_identical_across_peer_counts(
        pairs in 1usize..4,
        chain in 2usize..8,
        ring_seed in 0u64..1_000_000,
    ) {
        let mut outcomes = Vec::new();
        for &peers in &PEER_COUNTS {
            let mut net = net_with(peers, pairs, chain, ring_seed);
            let quiet = net.run(MAX_ROUNDS).unwrap();
            prop_assert!(quiet, "peers {}: did not quiesce", peers);
            if peers == 1 {
                prop_assert_eq!(net.stats.remote_deliveries, 0);
            }
            outcomes.push((
                net.canonical_key(),
                net.stats.rounds,
                net.stats.evaluations,
            ));
        }
        for o in &outcomes[1..] {
            prop_assert!(o.0 == outcomes[0].0, "fixpoint diverged (seed {})", ring_seed);
            prop_assert!(o.1 == outcomes[0].1, "round count diverged");
            prop_assert!(o.2 == outcomes[0].2, "evaluation count diverged");
        }
    }

    /// Elasticity: a peer joining (and, separately, leaving) in the
    /// middle of the run migrates documents but cannot change the
    /// fixpoint, and the termination detector still reaches a
    /// `Terminated` verdict across the epoch bump.
    #[test]
    fn mid_run_join_and_leave_preserve_fixpoint(
        pairs in 1usize..4,
        chain in 2usize..8,
        event_round in 0usize..4,
    ) {
        let mut stable = net_with(2, pairs, chain, ShardedConfig::default().seed);
        prop_assert!(stable.run(MAX_ROUNDS).unwrap());
        let want = stable.canonical_key();

        let mut joined = net_with(2, pairs, chain, ShardedConfig::default().seed);
        let verdict = detect_termination(&mut joined, MAX_ROUNDS, |n, round| {
            if round == event_round {
                n.join_peer("late");
            }
        })
        .unwrap();
        let terminated = matches!(verdict, Verdict::Terminated { .. });
        prop_assert!(terminated, "join run did not terminate");
        // The epoch moves exactly when the ring actually reassigned a
        // tenant (small workloads may hash nothing onto the joiner).
        let moved = joined.stats.rebalance_moves > 0;
        prop_assert!(moved == (joined.epoch() > 0), "epoch must track migrations");
        prop_assert!(joined.canonical_key() == want, "join changed the fixpoint");

        let mut shrunk = net_with(3, pairs, chain, ShardedConfig::default().seed);
        let verdict = detect_termination(&mut shrunk, MAX_ROUNDS, |n, round| {
            if round == event_round {
                n.leave_peer("peer-2").unwrap();
            }
        })
        .unwrap();
        let terminated = matches!(verdict, Verdict::Terminated { .. });
        prop_assert!(terminated, "leave run did not terminate");
        prop_assert!(shrunk.canonical_key() == want, "leave changed the fixpoint");
    }
}

/// The structured journal, projected onto its logical plane, is
/// bit-for-bit identical for every peer count — placement only adds
/// message events and changes timings, never the derivation itself.
#[test]
fn journal_projection_identical_across_peer_counts() {
    let mut projections = Vec::new();
    for &peers in &PEER_COUNTS {
        let mut net = net_with(peers, 3, 8, ShardedConfig::default().seed);
        net.enable_tracing();
        assert!(net.run(MAX_ROUNDS).unwrap());
        let events = net.take_journal();
        let sends = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::MsgSend { .. }))
            .count();
        assert!(sends > 0, "peers {peers}: calls are journalled");
        projections.push(logical_projection(&events));
    }
    assert!(!projections[0].is_empty());
    assert_eq!(projections[0], projections[1], "1-peer vs 2-peer journals");
    assert_eq!(projections[0], projections[2], "1-peer vs 4-peer journals");
}

/// Tenant-level provenance is placement-independent: every live
/// node's origin stamp — including `Remote` stamps naming the
/// provider tenant and canonical invocation seqs — is identical for
/// every peer count and across a mid-run join.
#[test]
fn provenance_origins_identical_across_peer_counts_and_join() {
    let mut baseline: Option<Vec<String>> = None;
    for &peers in &PEER_COUNTS {
        let mut net = net_with(peers, 3, 8, ShardedConfig::default().seed);
        net.enable_provenance();
        assert!(net.run(MAX_ROUNDS).unwrap());
        let origins = origin_projection(&net);
        assert!(
            origins.iter().any(|o| o.contains("Remote")),
            "peers {peers}: delivered nodes are stamped Origin::Remote"
        );
        match &baseline {
            None => baseline = Some(origins),
            Some(b) => assert_eq!(b, &origins, "origins diverged at {peers} peers"),
        }
    }

    let mut joined = net_with(2, 3, 8, ShardedConfig::default().seed);
    joined.enable_provenance();
    let verdict = detect_termination(&mut joined, MAX_ROUNDS, |n, round| {
        if round == 1 {
            n.join_peer("late");
        }
    })
    .unwrap();
    assert!(matches!(verdict, Verdict::Terminated { .. }));
    assert_eq!(
        baseline.as_deref(),
        Some(origin_projection(&joined).as_slice()),
        "a mid-run join must not perturb lineage"
    );
}

/// Migrated state is whole state: after a join forces a rebalance,
/// every tenant's individual state key matches the undisturbed run's
/// (not just the network-wide aggregate), and the seed stamps of
/// pre-run documents survive the move.
#[test]
fn rebalance_moves_whole_tenant_state() {
    let mut stable = net_with(2, 3, 8, ShardedConfig::default().seed);
    assert!(stable.run(MAX_ROUNDS).unwrap());

    let mut joined = net_with(2, 3, 8, ShardedConfig::default().seed);
    joined.enable_provenance();
    let verdict = detect_termination(&mut joined, MAX_ROUNDS, |n, round| {
        if round == 2 {
            n.join_peer("late");
        }
    })
    .unwrap();
    assert!(matches!(verdict, Verdict::Terminated { .. }));
    assert!(joined.stats.rebalance_moves > 0, "the join must migrate documents");

    let mut tenants = stable.tenant_names();
    tenants.sort_unstable_by(|a, b| a.as_str().cmp(b.as_str()));
    for t in tenants {
        assert_eq!(
            stable.tenant_state_key(t),
            joined.tenant_state_key(t),
            "tenant {t}: state diverged across the rebalance"
        );
    }
    // Seed stamps survive migration: producer accumulator roots were
    // present before the run and must still read `Origin::Seed`.
    let store = joined.provenance_store("prod-0").unwrap();
    let peer = joined.tenant("prod-0").unwrap();
    let acc = peer.doc("acc").unwrap();
    let doc = positive_axml::core::Sym::intern("acc");
    assert!(matches!(store.origin(doc, acc.root()), Some(Origin::Seed)));
}
