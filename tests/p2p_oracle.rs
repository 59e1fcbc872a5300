//! Engine-oracle differential suite for the p2p layer.
//!
//! Distributed AXML is one positive tree-rewriting system (Genest,
//! Muscholl & Wu, *Verifying Recursive Active Documents with Positive
//! Data Tree Rewriting*): renaming every peer's documents and services
//! apart and running the union on one engine gives the distributed
//! fixpoint. Each network below is built from document/service text
//! and also flattened into a single [`System`]: document `d` of peer
//! `p` becomes `p~d`, service `s` becomes `p.s` (exactly the name call
//! nodes already use), and every body atom over a peer document reads
//! `p~doc` instead — `input` and `context` stay, because a p2p call
//! ships the same parameters and parent subtree the engine hands a
//! local call. The flattened system runs to `Terminated` under the
//! paper-verbatim engine (Naive + Scan + interpreter, sequential), and
//! every p2p driver must reach the same per-(peer, doc) canonical keys
//! on every shape below:
//!
//! * the flat round driver in pull and push mode, with canonical and
//!   seeded commit orders;
//! * the ring-placed sharded driver on 1, 2 and 4 physical peers;
//! * the threaded runtime, over several runs.

use positive_axml::core::engine::{run, EngineConfig, EngineMode, Parallelism, RunStatus};
use positive_axml::core::matcher::MatchStrategy;
use positive_axml::core::query::parse_query;
use positive_axml::core::reduce::{canonical_key, CanonKey};
use positive_axml::core::system::{context_sym, input_sym};
use positive_axml::core::{Sym, System};
use positive_axml::p2p::{
    run_threaded, standalone_peer, Mode, Peer, ShardedConfig, ShardedNetwork, ThreadedConfig,
};

/// One peer as text: its name, `(doc, source)` pairs and
/// `(service, query)` pairs.
struct PeerSpec {
    name: String,
    docs: Vec<(String, String)>,
    services: Vec<(String, String)>,
}

fn peer(name: &str, docs: &[(&str, &str)], services: &[(&str, &str)]) -> PeerSpec {
    let own = |v: &[(&str, &str)]| v.iter().map(|(a, b)| (a.to_string(), b.to_string())).collect();
    PeerSpec {
        name: name.to_string(),
        docs: own(docs),
        services: own(services),
    }
}

type Keys = Vec<(Sym, Sym, CanonKey)>;

/// Producer/consumer tenant pairs: each producer grows a transitive
/// closure locally, each consumer reads the producer's `feed`.
fn tenant_pairs() -> Vec<PeerSpec> {
    let mut out = Vec::new();
    for k in 0..3 {
        let p = format!("prod-{k}");
        let mut acc = String::from("r{");
        for e in 0..4 + k {
            acc.push_str(&format!(r#"t{{from{{"{e}"}},to{{"{}"}}}},"#, e + 1));
        }
        acc.push_str(&format!("@{p}.join}}"));
        out.push(peer(
            &p,
            &[("acc", &acc)],
            &[
                ("join", "t{from{$x},to{$y}} :- acc/r{t{from{$x},to{$z}}, t{from{$z},to{$y}}}"),
                ("feed", "t{from{$x},to{$y}} :- acc/r{t{from{$x},to{$y}}}"),
            ],
        ));
        out.push(peer(&format!("cons-{k}"), &[("inbox", &format!("box{{@{p}.feed}}"))], &[]));
    }
    out
}

/// The X11 star: store peers feeding one portal.
fn star() -> Vec<PeerSpec> {
    let mut out = Vec::new();
    let mut page = String::from("page{");
    for i in 0..3 {
        let cds = format!(r#"catalog{{cd{{title{{"a{i}"}}}}, cd{{title{{"b{i}"}}}}}}"#);
        out.push(peer(
            &format!("store{i}"),
            &[("cds", &cds)],
            &[("titles", "t{$x} :- cds/catalog{cd{title{$x}}}")],
        ));
        page.push_str(&format!("@store{i}.titles,"));
    }
    page.pop();
    page.push('}');
    out.push(peer("portal", &[("page", &page)], &[]));
    out
}

/// Intensional answers: `c`'s call to `b.ref` returns a call to
/// `a.get`, which `c` then expands with `a`'s data.
fn intensional_chain() -> Vec<PeerSpec> {
    vec![
        peer(
            "a",
            &[("base", r#"r{v{"42"}, v{"7"}}"#)],
            &[("get", "w{$x} :- base/r{v{$x}}")],
        ),
        peer(
            "b",
            &[("mid", "m{hint}")],
            &[("ref", "hold{@a.get} :- mid/m{hint}")],
        ),
        peer("c", &[("out", "top{@b.ref}")], &[]),
    ]
}

/// A transitive closure split across peers: the portal joins its own
/// accumulated answers over edges it pulls from the store.
fn distributed_closure() -> Vec<PeerSpec> {
    vec![
        peer(
            "store",
            &[("edges", r#"r{t{from{"1"},to{"2"}}, t{from{"2"},to{"3"}}, t{from{"3"},to{"4"}}}"#)],
            &[("base", "t{from{$x},to{$y}} :- edges/r{t{from{$x},to{$y}}}")],
        ),
        peer(
            "portal",
            &[("acc", "r{@store.base, @portal.join}")],
            &[("join", "t{from{$x},to{$y}} :- acc/r{t{from{$x},to{$z}}, t{from{$z},to{$y}}}")],
        ),
    ]
}

fn shapes() -> Vec<(&'static str, Vec<PeerSpec>)> {
    vec![
        ("tenant pairs", tenant_pairs()),
        ("star", star()),
        ("intensional chain", intensional_chain()),
        ("distributed closure", distributed_closure()),
    ]
}

fn fill(p: &mut Peer, spec: &PeerSpec) {
    for (d, src) in &spec.docs {
        p.add_document_text(d, src).unwrap();
    }
    for (s, q) in &spec.services {
        p.add_service_text(s, q).unwrap();
    }
}

/// The oracle: the flattened system's fixpoint under the paper's rules
/// verbatim, keyed per (peer, doc).
fn oracle(spec: &[PeerSpec]) -> Keys {
    let mut sys = System::new();
    for p in spec {
        for (d, src) in &p.docs {
            sys.add_document_text(&format!("{}~{d}", p.name), src).unwrap();
        }
        for (s, src) in &p.services {
            let mut q = parse_query(src).unwrap();
            for atom in &mut q.body {
                if atom.doc != input_sym() && atom.doc != context_sym() {
                    atom.doc = Sym::intern(&format!("{}~{}", p.name, atom.doc));
                }
            }
            sys.add_service(&format!("{}.{s}", p.name), q).unwrap();
        }
    }
    let cfg = EngineConfig {
        mode: EngineMode::Naive,
        match_strategy: MatchStrategy::Scan,
        compile: false,
        parallelism: Parallelism::Sequential,
        ..EngineConfig::default()
    };
    let (status, _) = run(&mut sys, &cfg).unwrap();
    assert_eq!(status, RunStatus::Terminated);
    let mut keys: Keys = spec
        .iter()
        .flat_map(|p| {
            let sys = &sys;
            p.docs.iter().map(move |(d, _)| {
                let tree = sys.doc(Sym::intern(&format!("{}~{d}", p.name))).unwrap();
                (Sym::intern(&p.name), Sym::intern(d), canonical_key(tree))
            })
        })
        .collect();
    keys.sort_unstable();
    keys
}

fn run_to_quiescence(mut net: ShardedNetwork, spec: &[PeerSpec]) -> Keys {
    for p in spec {
        fill(net.add_tenant(&p.name), p);
    }
    assert!(net.run(200).unwrap(), "the network quiesces");
    net.canonical_key()
}

#[test]
fn flat_pull_and_push_match_the_engine_oracle_in_every_commit_order() {
    for (shape, spec) in shapes() {
        let want = oracle(&spec);
        for mode in [Mode::Pull, Mode::Push] {
            for seed in [None, Some(1), Some(7)] {
                let got = run_to_quiescence(ShardedNetwork::flat(mode, seed), &spec);
                assert_eq!(got, want, "{shape}: {mode:?}, seed {seed:?}");
            }
        }
    }
}

#[test]
fn ring_placement_matches_the_engine_oracle_at_every_peer_count() {
    for (shape, spec) in shapes() {
        let want = oracle(&spec);
        for peers in [1usize, 2, 4] {
            let mut net = ShardedNetwork::new(ShardedConfig::default());
            for i in 0..peers {
                net.join_peer(&format!("peer-{i}"));
            }
            assert_eq!(run_to_quiescence(net, &spec), want, "{shape}: {peers} peers");
        }
    }
}

#[test]
fn threaded_runtime_matches_the_engine_oracle_on_every_run() {
    for (shape, spec) in shapes() {
        let want = oracle(&spec);
        for attempt in 0..3 {
            let peers = spec
                .iter()
                .map(|p| {
                    let mut peer = standalone_peer(&p.name);
                    fill(&mut peer, p);
                    peer
                })
                .collect();
            let out = run_threaded(peers, &ThreadedConfig::default())
                .unwrap_or_else(|e| panic!("{shape}, attempt {attempt}: {e}"));
            assert_eq!(out.canonical_key(), want, "{shape}: attempt {attempt}");
        }
    }
}
