//! Shared workload generators for the criterion benches and the
//! `experiments` harness (one experiment per formal claim of the paper —
//! see DESIGN.md's per-experiment index X1–X16).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use axml_core::query::parse_query;
use axml_core::system::System;
use axml_core::tree::{Marking, NodeId, Tree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic random tree with `n` nodes over `labels` distinct
/// labels and `values` distinct values; `redundancy` ∈ \[0,1\] is the
/// probability that a new node duplicates an existing sibling subtree
/// shape (what reduction prunes).
pub fn random_tree(n: usize, labels: usize, values: usize, redundancy: f64, seed: u64) -> Tree {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Tree::with_label("root");
    let mut interior: Vec<NodeId> = vec![t.root()];
    // Nothing is ever removed, so a local tally tracks `node_count()`
    // without its O(n) live-node walk (which made construction O(n²)
    // and dominated the X20 harness at 64k nodes).
    let mut count = 1usize;
    while count < n {
        let parent = interior[rng.gen_range(0..interior.len())];
        let duplicate = rng.gen_bool(redundancy);
        let marking = if duplicate || rng.gen_bool(0.75) {
            Marking::label(&format!("l{}", rng.gen_range(0..labels)))
        } else {
            Marking::value(&format!("{}", rng.gen_range(0..values)))
        };
        if let Ok(id) = t.add_child(parent, marking) {
            count += 1;
            if !t.marking(id).is_value() {
                interior.push(id);
            }
        }
    }
    t
}

/// The lazy-evaluation portal of experiment X9: one relevant rating call
/// plus `junk_branches` branches each hosting a diverging service.
pub fn poisoned_portal(junk_branches: usize) -> System {
    let mut sys = System::new();
    let mut dir = String::from(
        r#"directory{cd{title{"Body and Soul"}, @GetRating{"Body and Soul"}}"#,
    );
    for i in 0..junk_branches {
        dir.push_str(&format!(r#", junk{i}{{@Spam{i}}}"#));
    }
    dir.push('}');
    sys.add_document_text("dir", &dir).unwrap();
    sys.add_document_text(
        "ratings",
        r#"db{entry{name{"Body and Soul"}, stars{"****"}}}"#,
    )
    .unwrap();
    sys.add_service_text(
        "GetRating",
        r#"rating{$s} :- input/input{$n}, ratings/db{entry{name{$n}, stars{$s}}}"#,
    )
    .unwrap();
    for i in 0..junk_branches {
        sys.add_service_text(&format!("Spam{i}"), &format!("junk{i}{{@Spam{i}}} :-"))
            .unwrap();
    }
    sys
}

/// The rating query over [`poisoned_portal`].
pub fn rating_query() -> axml_core::query::Query {
    parse_query(r#"rating{$s} :- dir/directory{cd{title{"Body and Soul"}, rating{$s}}}"#)
        .unwrap()
}

/// A terminating simple positive system whose graph representation grows
/// with `k`: a k-stage copy pipeline over `w` base values (X7's
/// termination-decision scaling family).
pub fn pipeline_system(k: usize, w: usize) -> System {
    let mut sys = System::new();
    let mut base = String::from("r{");
    for v in 0..w {
        base.push_str(&format!(r#"v0{{"{v}"}},"#));
    }
    base.pop();
    base.push('}');
    sys.add_document_text("base", &base).unwrap();
    let mut doc = String::from("out{");
    for s in 0..k {
        doc.push_str(&format!("@copy{s},"));
    }
    doc.pop();
    doc.push('}');
    sys.add_document_text("out", &doc).unwrap();
    for s in 0..k {
        let (src_doc, src_pat) = if s == 0 {
            ("base", "r{v0{$x}}".to_string())
        } else {
            ("out", format!("out{{v{s}{{$x}}}}"))
        };
        sys.add_service_text(
            &format!("copy{s}"),
            &format!("v{}{{$x}} :- {src_doc}/{src_pat}", s + 1),
        )
        .unwrap();
    }
    sys
}

/// Example 3.2's transitive-closure system over a chain of length `n`.
pub fn tc_system(n: usize) -> System {
    let mut sys = System::new();
    let mut d0 = String::from("r{");
    for i in 0..n {
        d0.push_str(&format!(r#"t{{from{{"{i}"}},to{{"{}"}}}},"#, i + 1));
    }
    d0.pop();
    d0.push('}');
    sys.add_document_text("d0", &d0).unwrap();
    sys.add_document_text("d1", "r{@g,@f}").unwrap();
    sys.add_service_text("g", "t{from{$x},to{$y}} :- d0/r{t{from{$x},to{$y}}}")
        .unwrap();
    sys.add_service_text(
        "f",
        "t{from{$x},to{$y}} :- d1/r{t{from{$x},to{$z}}, t{from{$z},to{$y}}}",
    )
    .unwrap();
    sys
}

/// X12's workload: transitive closure of a random `n`-node digraph whose
/// edge set is sharded across `shards` static edge documents.
///
/// The digraph is a spine `0 → 1 → … → n/4` (the diameter driver — it
/// forces the linear closure rule through ≥ n/4 rewriting rounds) plus
/// `n/4` random extra edges over all `n` nodes. Each shard document
/// `e{i}` holds its slice of the edges; `d1` hosts, per shard, one
/// loader call emitting `t` tuples and one emitting `e` tuples (both
/// read *only* their static shard), plus the closure call
/// `f : t(x,y) :- d1/r{t(x,z), e(z,y)}`.
///
/// Under the naive engine every loader is re-invoked every round; under
/// the delta engine each loader runs exactly once because its read set
/// (its shard) never changes. That asymmetry is what experiment X12
/// measures.
pub fn tc_random_digraph(n: usize, shards: usize, seed: u64) -> System {
    assert!(n >= 4 && shards >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let spine = n / 4;
    let mut edges: Vec<(usize, usize)> = (0..spine).map(|i| (i, i + 1)).collect();
    for _ in 0..n / 4 {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b && !edges.contains(&(a, b)) {
            edges.push((a, b));
        }
    }

    let mut sys = System::new();
    for s in 0..shards {
        let mut doc = String::from("r{");
        let mut any = false;
        for (j, (a, b)) in edges.iter().enumerate() {
            if j % shards == s {
                doc.push_str(&format!(r#"edge{{from{{"{a}"}},to{{"{b}"}}}},"#));
                any = true;
            }
        }
        if any {
            doc.pop();
        }
        doc.push('}');
        sys.add_document_text(&format!("e{s}"), &doc).unwrap();
    }
    let mut d1 = String::from("r{");
    for s in 0..shards {
        d1.push_str(&format!("@loadt{s},@loade{s},"));
    }
    d1.push_str("@f}");
    sys.add_document_text("d1", &d1).unwrap();
    for s in 0..shards {
        sys.add_service_text(
            &format!("loadt{s}"),
            &format!("t{{from{{$x}},to{{$y}}}} :- e{s}/r{{edge{{from{{$x}},to{{$y}}}}}}"),
        )
        .unwrap();
        sys.add_service_text(
            &format!("loade{s}"),
            &format!("e{{from{{$x}},to{{$y}}}} :- e{s}/r{{edge{{from{{$x}},to{{$y}}}}}}"),
        )
        .unwrap();
    }
    sys.add_service_text(
        "f",
        "t{from{$x},to{$y}} :- d1/r{t{from{$x},to{$z}}, e{from{$z},to{$y}}}",
    )
    .unwrap();
    sys
}

/// X17's eval-bound variant of the random-digraph closure: the same
/// digraph as [`tc_random_digraph`], but the closure step is split into
/// one service per edge shard — `f<s>` joins the accumulated t-set in
/// `d1` against shard `s`'s edge document — so every round carries
/// `shards` independent, comparably-heavy join evaluations instead of
/// one monolithic `f`. The union over shards is exactly the single-`f`
/// closure step, so the fixpoint is the same transitive closure; what
/// changes is that a worker pool has `shards` big evaluations to stripe
/// across threads (a single dominant call would be Amdahl-limited).
pub fn tc_sharded_closure(n: usize, shards: usize, seed: u64) -> System {
    assert!(n >= 4 && shards >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let spine = n / 4;
    let mut edges: Vec<(usize, usize)> = (0..spine).map(|i| (i, i + 1)).collect();
    for _ in 0..n / 4 {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b && !edges.contains(&(a, b)) {
            edges.push((a, b));
        }
    }

    let mut sys = System::new();
    for s in 0..shards {
        let mut doc = String::from("r{");
        let mut any = false;
        for (j, (a, b)) in edges.iter().enumerate() {
            if j % shards == s {
                doc.push_str(&format!(r#"edge{{from{{"{a}"}},to{{"{b}"}}}},"#));
                any = true;
            }
        }
        if any {
            doc.pop();
        }
        doc.push('}');
        sys.add_document_text(&format!("e{s}"), &doc).unwrap();
    }
    let mut d1 = String::from("r{");
    for s in 0..shards {
        d1.push_str(&format!("@loadt{s},"));
    }
    for s in 0..shards {
        d1.push_str(&format!("@f{s},"));
    }
    d1.pop();
    d1.push('}');
    sys.add_document_text("d1", &d1).unwrap();
    for s in 0..shards {
        sys.add_service_text(
            &format!("loadt{s}"),
            &format!("t{{from{{$x}},to{{$y}}}} :- e{s}/r{{edge{{from{{$x}},to{{$y}}}}}}"),
        )
        .unwrap();
        sys.add_service_text(
            &format!("f{s}"),
            &format!(
                "t{{from{{$x}},to{{$y}}}} :- d1/r{{t{{from{{$x}},to{{$z}}}}}}, \
                 e{s}/r{{edge{{from{{$z}},to{{$y}}}}}}"
            ),
        )
        .unwrap();
    }
    sys
}

/// X17's wide-fanout evaluation workload: one wide extensional document
/// ([`wide_fanout_doc`] with `fanout / 8` label buckets, so each label
/// holds ~8 children) plus `services` independent probe services, each
/// anchored at its own label, all called from one output document.
/// Under [`axml_core::matcher::MatchStrategy::Scan`] every evaluation
/// walks all `fanout` children but binds only its own small bucket, so
/// a round is `services` equally-sized read-dominated scans with cheap
/// grafts — embarrassingly parallel, terminating after one productive
/// round.
pub fn scan_fanout_system(services: usize, fanout: usize) -> System {
    assert!(services >= 1);
    let labels = (fanout / 8).max(services);
    let mut sys = System::new();
    sys.add_document("src", wide_fanout_doc(fanout, labels))
        .unwrap();
    let mut out = String::from("out{");
    for i in 0..services {
        out.push_str(&format!("@probe{i},"));
    }
    out.pop();
    out.push('}');
    sys.add_document_text("out", &out).unwrap();
    for i in 0..services {
        sys.add_service_text(
            &format!("probe{i}"),
            &format!("hit{i}{{$x}} :- src/root{{l{i}{{$x}}}}"),
        )
        .unwrap();
    }
    sys
}

/// X16's wide-fanout document: a root with `fanout` children spread
/// round-robin over `labels` distinct labels, each child holding one
/// value leaf. An anchored probe for a single label must consider all
/// `fanout` children under a scan but only `fanout / labels` bucket
/// entries under the child-label index.
pub fn wide_fanout_doc(fanout: usize, labels: usize) -> Tree {
    assert!(labels >= 1);
    let mut t = Tree::with_label("root");
    for i in 0..fanout {
        let c = t
            .add_child(t.root(), Marking::label(&format!("l{}", i % labels)))
            .unwrap();
        t.add_child(c, Marking::value(&format!("{i}"))).unwrap();
    }
    t
}

/// The anchored pattern probing one label bucket of [`wide_fanout_doc`].
pub fn wide_fanout_pattern(labels: usize) -> axml_core::pattern::Pattern {
    axml_core::parse::parse_pattern(&format!("root{{l{}{{$x}}}}", labels - 1)).unwrap()
}

/// X16's deep-chain document: a `depth`-long spine of `s`-labeled nodes,
/// each spine node also carrying `junk` distinct-labeled junk children.
/// Matching the spine pattern takes one child probe per level: O(1) per
/// level with the index, O(junk) per level scanning.
pub fn deep_chain_doc(depth: usize, junk: usize) -> Tree {
    let mut t = Tree::with_label("root");
    let mut cur = t.root();
    for d in 0..depth {
        for j in 0..junk {
            t.add_child(cur, Marking::label(&format!("j{d}x{j}")))
                .unwrap();
        }
        cur = t.add_child(cur, Marking::label("s")).unwrap();
    }
    t.add_child(cur, Marking::value("end")).unwrap();
    t
}

/// The anchored spine pattern for [`deep_chain_doc`], binding the value
/// leaf at the chain's tip.
pub fn deep_chain_pattern(depth: usize) -> axml_core::pattern::Pattern {
    let mut s = String::from("root{");
    for _ in 0..depth {
        s.push_str("s{");
    }
    s.push_str("$x");
    for _ in 0..depth {
        s.push('}');
    }
    s.push('}');
    axml_core::parse::parse_pattern(&s).unwrap()
}

/// A `depth`-deep catalog for the path-expression experiments (X10).
pub fn catalog(width: usize, depth: usize) -> String {
    fn level(width: usize, depth: usize, idx: usize) -> String {
        if depth == 0 {
            return format!(r#"cd{{title{{"t{idx}"}}}}"#);
        }
        let mut s = "shelf{".to_string();
        for i in 0..width {
            s.push_str(&level(width, depth - 1, idx * width + i));
            s.push(',');
        }
        s.pop();
        s.push('}');
        s
    }
    let mut s = String::from("lib{");
    for i in 0..width {
        s.push_str(&level(width, depth, i));
        s.push(',');
    }
    s.pop();
    s.push('}');
    s
}

/// The X11 peer network: `k` store peers feeding one portal, each its
/// own flat peer.
pub fn star_network(k: usize, mode: axml_p2p::Mode, seed: Option<u64>) -> axml_p2p::ShardedNetwork {
    let mut net = axml_p2p::ShardedNetwork::flat(mode, seed);
    let mut dir = String::from("page{");
    for i in 0..k {
        let store = net.add_tenant(&format!("store{i}"));
        store
            .add_document_text(
                "cds",
                &format!(r#"catalog{{cd{{title{{"a{i}"}}}}, cd{{title{{"b{i}"}}}}}}"#),
            )
            .unwrap();
        store
            .add_service_text("titles", "t{$x} :- cds/catalog{cd{title{$x}}}")
            .unwrap();
        dir.push_str(&format!("@store{i}.titles,"));
    }
    dir.pop();
    dir.push('}');
    let portal = net.add_tenant("portal");
    portal.add_document_text("page", &dir).unwrap();
    net
}

/// The X21 multi-tenant sharded workload: `pairs` independent
/// producer/consumer tenant pairs colocated on `peers` physical peers.
/// Each producer holds a `chain`-edge transitive-closure document plus
/// its local `join` recursion (the per-tenant CPU load) and a `feed`
/// service; each consumer subscribes to its producer's feed from
/// another tenant — the cross-tenant wire traffic the delta-push
/// propagation filters. Placement transparency (Thm 2.1) means the
/// fixpoint is identical for every `peers` value.
pub fn sharded_tenant_network(
    peers: usize,
    pairs: usize,
    chain: usize,
    cfg: axml_p2p::ShardedConfig,
) -> axml_p2p::ShardedNetwork {
    let mut net = axml_p2p::ShardedNetwork::new(cfg);
    for i in 0..peers {
        net.join_peer(&format!("peer-{i}"));
    }
    for k in 0..pairs {
        let p = format!("prod-{k}");
        let mut acc = String::from("r{");
        for e in 0..chain {
            acc.push_str(&format!(r#"t{{from{{"{e}"}},to{{"{}"}}}},"#, e + 1));
        }
        acc.push_str(&format!("@{p}.join}}"));
        let producer = net.add_tenant(&p);
        producer.add_document_text("acc", &acc).unwrap();
        producer
            .add_service_text(
                "join",
                "t{from{$x},to{$y}} :- acc/r{t{from{$x},to{$z}}, t{from{$z},to{$y}}}",
            )
            .unwrap();
        producer
            .add_service_text("feed", "t{from{$x},to{$y}} :- acc/r{t{from{$x},to{$y}}}")
            .unwrap();
        let consumer = net.add_tenant(&format!("cons-{k}"));
        consumer
            .add_document_text("inbox", &format!("box{{@{p}.feed}}"))
            .unwrap();
    }
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_core::engine::{run, EngineConfig, RunStatus};
    use axml_core::graphrepr::{decide_termination, Termination};

    #[test]
    fn random_tree_is_deterministic_and_sized() {
        let a = random_tree(200, 5, 5, 0.3, 9);
        let b = random_tree(200, 5, 5, 0.3, 9);
        assert_eq!(a.to_string(), b.to_string());
        assert!(a.node_count() >= 200);
    }

    #[test]
    fn pipeline_terminates_and_scales() {
        for k in [1usize, 3] {
            let sys = pipeline_system(k, 2);
            assert!(sys.is_simple());
            assert_eq!(
                decide_termination(&sys).unwrap(),
                Termination::Terminates
            );
            let mut runner = sys;
            let (status, _) = run(&mut runner, &EngineConfig::default()).unwrap();
            assert_eq!(status, RunStatus::Terminated);
        }
    }

    #[test]
    fn tc_system_computes_full_closure() {
        let mut sys = tc_system(5);
        run(&mut sys, &EngineConfig::default()).unwrap();
        let d1 = sys.doc("d1".into()).unwrap();
        let tuples = d1
            .children(d1.root())
            .iter()
            .filter(|&&n| d1.marking(n) == Marking::label("t"))
            .count();
        assert_eq!(tuples, 6 * 5 / 2);
    }

    #[test]
    fn tc_random_digraph_delta_is_5x_cheaper_and_equivalent() {
        // X12's acceptance criterion: on the n=64 random-digraph TC
        // workload the delta engine performs ≥5× fewer snapshot
        // evaluations than the naive engine while reaching an
        // equivalent final system.
        use axml_core::engine::EngineMode;

        let mut naive = tc_random_digraph(64, 6, 12);
        let mut delta = tc_random_digraph(64, 6, 12);
        let (ns, nstats) = run(&mut naive, &EngineConfig::default()).unwrap();
        let (ds, dstats) =
            run(&mut delta, &EngineConfig::with_mode(EngineMode::Delta)).unwrap();
        assert_eq!(ns, RunStatus::Terminated);
        assert_eq!(ds, RunStatus::Terminated);
        assert_eq!(naive.canonical_key(), delta.canonical_key());
        assert!(dstats.skipped > 0, "delta mode never skipped a call");
        assert!(
            nstats.invocations >= 5 * dstats.invocations,
            "naive={} delta={}: below the 5x bar",
            nstats.invocations,
            dstats.invocations
        );
    }

    #[test]
    fn sharded_closure_matches_single_f_closure() {
        // X17's workload invariant: splitting the closure step by edge
        // shard computes the same transitive closure as the monolithic
        // `f` — the t-tuple sets agree tuple-for-tuple.
        fn t_tuples(sys: &axml_core::system::System) -> Vec<(String, String)> {
            let d1 = sys.doc("d1".into()).unwrap();
            let mut out = Vec::new();
            for &n in d1.children(d1.root()) {
                if d1.marking(n) != Marking::label("t") {
                    continue;
                }
                let (mut from, mut to) = (None, None);
                for &c in d1.children(n) {
                    let v = d1
                        .children(c)
                        .first()
                        .map(|&v| d1.marking(v).sym().as_str().to_string());
                    match d1.marking(c).sym().as_str() {
                        "from" => from = v,
                        "to" => to = v,
                        _ => {}
                    }
                }
                out.push((from.unwrap(), to.unwrap()));
            }
            out.sort_unstable();
            out.dedup();
            out
        }
        let mut mono = tc_random_digraph(32, 4, 7);
        let mut sharded = tc_sharded_closure(32, 4, 7);
        let (ms, _) = run(&mut mono, &EngineConfig::default()).unwrap();
        let (ss, _) = run(&mut sharded, &EngineConfig::default()).unwrap();
        assert_eq!(ms, RunStatus::Terminated);
        assert_eq!(ss, RunStatus::Terminated);
        assert_eq!(t_tuples(&mono), t_tuples(&sharded));
    }

    #[test]
    fn scan_fanout_system_terminates_quickly() {
        let mut sys = scan_fanout_system(8, 256);
        let (status, stats) = run(&mut sys, &EngineConfig::default()).unwrap();
        assert_eq!(status, RunStatus::Terminated);
        assert!(stats.rounds <= 2);
        assert_eq!(stats.invocations, 8 * stats.rounds);
    }

    #[test]
    fn catalog_depth_and_width() {
        let c = catalog(2, 2);
        let t = axml_core::parse::parse_tree(&c).unwrap();
        assert_eq!(t.depth(t.root()), 5); // lib/shelf/shelf/cd/title/"…"
    }

    #[test]
    fn star_network_quiesces() {
        let mut net = star_network(3, axml_p2p::Mode::Pull, None);
        assert!(net.run(50).unwrap());
        assert!(net.stats.calls_sent >= 3);
    }
}
