//! Distributed termination detection (§6): "each peer may know that it
//! reached a fixpoint, but a distributed mechanism is needed to detect
//! termination for the global, distributed system."
//!
//! The detector is a two-phase polling protocol in the style of
//! Dijkstra's ring algorithm: a coordinator polls every peer for a
//! digest of its local state (the canonical keys of its documents);
//! global termination is announced only after **two consecutive polling
//! waves observe identical digests on every peer with no round activity
//! in between** — one quiet wave is not enough, because a message in
//! flight between waves can reactivate an already-polled peer (the
//! classical laggard problem the two-phase scheme exists for).
//!
//! The same detector is sound under mid-run rebalancing: a placement
//! epoch change between waves voids the quiet streak (see
//! [`detect_termination`]).

use crate::placement::ShardedNetwork;
use axml_core::error::Result;

/// The detector's verdict for one run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Two consecutive quiet waves: globally terminated.
    Terminated {
        /// Rounds executed before the detector fired.
        rounds: usize,
        /// Polling waves used.
        waves: usize,
    },
    /// Budget exhausted first.
    Undecided,
}

/// Drive the network one round at a time, interleaving polling waves,
/// until the detector announces termination or `max_rounds` pass.
///
/// Each wave digests every tenant's state. Digests are tenant-level, so
/// a wave taken before and after a rebalance of *unchanged* documents
/// reads the same. `hook` runs before every round (harnesses use it to
/// join or remove peers; pass `|_, _| {}` for none), and any
/// placement-epoch movement **voids the quiet streak**. The void is
/// what keeps the two-phase argument intact — a migration re-homes
/// in-flight deliveries, so a wave observed across one is not evidence
/// that the system was quiet *at a single placement*; the detector
/// must re-establish two quiet waves inside the new epoch before it
/// may announce.
pub fn detect_termination(
    net: &mut ShardedNetwork,
    max_rounds: usize,
    mut hook: impl FnMut(&mut ShardedNetwork, usize),
) -> Result<Verdict> {
    let mut prev_digest = None;
    let mut prev_epoch = net.epoch();
    for round in 0..max_rounds {
        hook(net, round);
        let changed = net.step_round()?;
        let digest: Vec<_> = net
            .tenant_names()
            .into_iter()
            .map(|t| (t, net.tenant_state_key(t)))
            .collect();
        let epoch = net.epoch();
        let quiet = !changed
            && epoch == prev_epoch
            && prev_digest.as_ref() == Some(&digest)
            && net.no_pending_work();
        if quiet {
            // One polling wave runs per round, so the counts coincide.
            return Ok(Verdict::Terminated {
                rounds: round + 1,
                waves: round + 1,
            });
        }
        prev_digest = if changed || epoch != prev_epoch {
            None
        } else {
            Some(digest)
        };
        prev_epoch = epoch;
    }
    Ok(Verdict::Undecided)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::Mode;

    fn no_hook(_: &mut ShardedNetwork, _: usize) {}

    fn tc_network() -> ShardedNetwork {
        let mut net = ShardedNetwork::flat(Mode::Pull, None);
        let store = net.add_tenant("store");
        store
            .add_document_text(
                "edges",
                r#"r{t{from{"1"},to{"2"}}, t{from{"2"},to{"3"}}}"#,
            )
            .unwrap();
        store
            .add_service_text("base", "t{from{$x},to{$y}} :- edges/r{t{from{$x},to{$y}}}")
            .unwrap();
        let portal = net.add_tenant("portal");
        portal
            .add_document_text("acc", "r{@store.base, @portal.join}")
            .unwrap();
        portal
            .add_service_text(
                "join",
                "t{from{$x},to{$y}} :- acc/r{t{from{$x},to{$z}}, t{from{$z},to{$y}}}",
            )
            .unwrap();
        net
    }

    #[test]
    fn detector_agrees_with_oracle() {
        let mut net = tc_network();
        let verdict = detect_termination(&mut net, 200, no_hook).unwrap();
        match verdict {
            Verdict::Terminated { rounds, waves } => {
                assert!(rounds >= 2);
                assert!(waves >= rounds);
                // Oracle check: one more round really brings nothing.
                assert!(!net.step_round().unwrap());
            }
            Verdict::Undecided => panic!("detector failed on a terminating network"),
        }
    }

    #[test]
    fn detector_stays_undecided_on_divergent_networks() {
        // Example 2.1 hosted on a peer calling itself.
        let mut net = ShardedNetwork::flat(Mode::Pull, None);
        let p = net.add_tenant("p");
        p.add_document_text("d", "a{@p.f}").unwrap();
        p.add_service_text("f", "a{@p.f} :-").unwrap();
        let verdict = detect_termination(&mut net, 15, no_hook).unwrap();
        assert_eq!(verdict, Verdict::Undecided);
    }

    fn sharded_pair_net(peers: usize) -> ShardedNetwork {
        let mut net = ShardedNetwork::new(crate::placement::ShardedConfig::default());
        for i in 0..peers {
            net.join_peer(&format!("peer-{i}"));
        }
        for k in 0..2 {
            let p = format!("prod-{k}");
            let producer = net.add_tenant(&p);
            producer
                .add_document_text(
                    "acc",
                    &format!(
                        r#"r{{t{{from{{"1"}},to{{"2"}}}}, t{{from{{"2"}},to{{"3"}}}}, @{p}.join}}"#
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
                .add_service_text(
                    "feed",
                    "t{from{$x},to{$y}} :- acc/r{t{from{$x},to{$y}}}",
                )
                .unwrap();
            let consumer = net.add_tenant(&format!("cons-{k}"));
            consumer
                .add_document_text("inbox", &format!("box{{@{p}.feed}}"))
                .unwrap();
        }
        net
    }

    #[test]
    fn sharded_detector_agrees_with_oracle() {
        let mut net = sharded_pair_net(2);
        let verdict = detect_termination(&mut net, 200, no_hook).unwrap();
        match verdict {
            Verdict::Terminated { rounds, .. } => {
                assert!(rounds >= 2);
                assert!(!net.step_round().unwrap(), "oracle: truly quiet");
            }
            Verdict::Undecided => panic!("detector failed on a terminating network"),
        }
    }

    #[test]
    fn rebalance_voids_the_quiet_streak() {
        // Baseline: how many rounds without any rebalance.
        let mut base = sharded_pair_net(2);
        let Verdict::Terminated { rounds: base_rounds, .. } =
            detect_termination(&mut base, 200, no_hook).unwrap()
        else {
            panic!("baseline undecided");
        };

        // Join a peer exactly when the detector is one quiet wave from
        // announcing: the epoch bump must void the streak, costing at
        // least one extra quiet wave inside the new placement.
        let join_at = base_rounds - 1;
        let mut net = sharded_pair_net(2);
        let verdict = detect_termination(&mut net, 200, |n, round| {
            if round == join_at {
                n.join_peer("late");
            }
        })
        .unwrap();
        match verdict {
            Verdict::Terminated { rounds, .. } => {
                assert!(
                    rounds > base_rounds,
                    "join at {join_at} must delay announcement ({rounds} vs {base_rounds})"
                );
                assert!(!net.step_round().unwrap(), "oracle: truly quiet");
                // And the fixpoint is the placement-independent one.
                assert_eq!(net.canonical_key(), base.canonical_key());
            }
            Verdict::Undecided => panic!("detector failed across a rebalance"),
        }
    }

    #[test]
    fn one_quiet_wave_is_not_enough() {
        // A chain a→b→c: after c's data lands at b there is a quiet-ish
        // wave at a before b's enriched answer reaches it. The detector
        // must not fire on the first quiet observation.
        let mut net = ShardedNetwork::flat(Mode::Pull, None);
        let c = net.add_tenant("c");
        c.add_document_text("base", r#"r{v{"1"}}"#).unwrap();
        c.add_service_text("get", "w{$x} :- base/r{v{$x}}").unwrap();
        let b = net.add_tenant("b");
        b.add_document_text("mid", "m{@c.get}").unwrap();
        b.add_service_text("relay", "got{$x} :- mid/m{w{$x}}").unwrap();
        let a = net.add_tenant("a");
        a.add_document_text("out", "o{@b.relay}").unwrap();
        let verdict = detect_termination(&mut net, 100, no_hook).unwrap();
        assert!(matches!(verdict, Verdict::Terminated { .. }));
        let out = net.tenant("a").unwrap().doc("out").unwrap();
        let expected =
            axml_core::parse::parse_tree(r#"o{@b.relay, got{"1"}}"#).unwrap();
        assert!(axml_core::subsume::equivalent(out, &expected), "got {out}");
    }
}
