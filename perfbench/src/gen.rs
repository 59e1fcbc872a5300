//! Seeded inputs and the engine-independent oracles that check the
//! answers to them. Nothing here calls the engine: the expected answer
//! sets come from the edges and keys this module generated itself.

use std::collections::{BTreeSet, VecDeque};

/// SplitMix64: a small seeded generator, so the inputs depend only on
/// the seed and on this file.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

/// The key/value document `db{pair{k{"k0"},v{"v0"}}, …}`.
pub fn kv_doc(entries: usize) -> String {
    let pairs: Vec<String> = (0..entries)
        .map(|i| format!(r#"pair{{k{{"k{i}"}},v{{"v{i}"}}}}"#))
        .collect();
    format!("db{{{}}}", pairs.join(","))
}

/// The point lookup for key `k`.
pub fn kv_query(k: usize) -> String {
    format!(r#"hit{{$v}} :- db/db{{pair{{k{{"k{k}"}},v{{$v}}}}}}"#)
}

/// The only answer [`kv_query`] may return.
pub fn kv_answer(k: usize) -> String {
    format!(r#"hit{{"v{k}"}}"#)
}

/// The answer trees `hit{"y"}` for a set of node labels.
pub fn hits<I: IntoIterator<Item = String>>(labels: I) -> BTreeSet<String> {
    labels
        .into_iter()
        .map(|y| format!(r#"hit{{"{y}"}}"#))
        .collect()
}

/// A random digraph in the shape of `tc_random_digraph`: the spine
/// `0 → 1 → … → n/4` plus `n/4` random extra edges over all `n` nodes.
/// `labels[s]` is the name structural node `s` carries in the input.
pub struct Digraph {
    pub n: usize,
    pub edges: Vec<(usize, usize)>,
    labels: Vec<usize>,
}

/// `(name, text)` pairs: the documents or services of an `open` frame.
pub type Named = Vec<(String, String)>;

/// Edge shards per closure session.
pub const TC_SHARDS: usize = 4;

impl Digraph {
    pub fn random(n: usize, rng: &mut Rng) -> Digraph {
        let spine = n / 4;
        let mut edges: Vec<(usize, usize)> = (0..spine).map(|i| (i, i + 1)).collect();
        for _ in 0..n / 4 {
            let (a, b) = (rng.below(n), rng.below(n));
            if a != b && !edges.contains(&(a, b)) {
                edges.push((a, b));
            }
        }
        Digraph {
            n,
            edges,
            labels: (0..n).collect(),
        }
    }

    /// The closure graph of a run: the fixed random structure
    /// `structure`, its nodes `1..n` renamed by a permutation drawn
    /// from `rng` (node 0 stays the spine's start). Closure cost differs
    /// by more than 1.5× between random structures of one size, so
    /// drawing the structure itself from the seed would make the
    /// run-to-run spread a property of the seeds rather than of the
    /// program; renaming changes the input text, not the work.
    pub fn renamed(n: usize, structure: u64, rng: &mut Rng) -> Digraph {
        let g = Digraph::random(n, &mut Rng::new(0xC105_0000 + structure));
        let mut labels: Vec<usize> = (0..n).collect();
        for i in (2..n).rev() {
            let j = 1 + rng.below(i);
            labels.swap(i, j);
        }
        Digraph {
            n,
            edges: g
                .edges
                .iter()
                .map(|&(a, b)| (labels[a], labels[b]))
                .collect(),
            labels,
        }
    }

    /// The input name of structural node `s mod n`.
    pub fn label(&self, s: usize) -> usize {
        self.labels[s % self.n]
    }

    /// Nodes reachable from `src` by a path of one or more edges (BFS).
    pub fn reach(&self, src: usize) -> BTreeSet<usize> {
        let mut adj = vec![Vec::new(); self.n];
        for &(a, b) in &self.edges {
            adj[a].push(b);
        }
        let mut seen = BTreeSet::new();
        let mut queue: VecDeque<usize> = adj[src].iter().copied().collect();
        while let Some(v) = queue.pop_front() {
            if seen.insert(v) {
                queue.extend(adj[v].iter().copied());
            }
        }
        seen
    }

    /// The expected answers of [`tc_query`] from `src`.
    pub fn expected(&self, src: usize) -> BTreeSet<String> {
        hits(self.reach(src).into_iter().map(|v| v.to_string()))
    }

    /// The closure session as sent in an `open` frame: edge shards
    /// `e0…e3`, the host document `d1` with one `t` loader and one `e`
    /// loader per shard plus the closure call `f`, and their services.
    pub fn session(&self) -> (Named, Named) {
        let mut docs = Vec::new();
        let mut services = Vec::new();
        let mut d1 = Vec::new();
        for s in 0..TC_SHARDS {
            let shard: Vec<String> = self
                .edges
                .iter()
                .enumerate()
                .filter(|(j, _)| j % TC_SHARDS == s)
                .map(|(_, (a, b))| format!(r#"edge{{from{{"{a}"}},to{{"{b}"}}}}"#))
                .collect();
            docs.push((format!("e{s}"), format!("r{{{}}}", shard.join(","))));
            d1.push(format!("@loadt{s},@loade{s}"));
            for (svc, tag) in [("loadt", "t"), ("loade", "e")] {
                services.push((
                    format!("{svc}{s}"),
                    format!(
                        "{tag}{{from{{$x}},to{{$y}}}} :- e{s}/r{{edge{{from{{$x}},to{{$y}}}}}}"
                    ),
                ));
            }
        }
        d1.push("@f".to_string());
        docs.push(("d1".to_string(), format!("r{{{}}}", d1.join(","))));
        services.push(("f".to_string(), TC_CLOSURE.to_string()));
        (docs, services)
    }
}

/// The closure service `f` of [`Digraph::session`].
pub const TC_CLOSURE: &str = "t{from{$x},to{$y}} :- d1/r{t{from{$x},to{$z}}, e{from{$z},to{$y}}}";

/// The closure read (and subscription) query from `src`.
pub fn tc_query(src: usize) -> String {
    format!(r#"hit{{$y}} :- d1/r{{t{{from{{"{src}"}},to{{$y}}}}}}"#)
}

/// `p2p_sharded` sizes: `sharded_tenant_network(2 peers, 6 pairs, chain 16)`.
pub const P2P_PEERS: usize = 2;
pub const P2P_PAIRS: usize = 6;
pub const P2P_CHAIN: usize = 16;

/// The tenants of the `sharded_tenant_network` shape, with seeded node
/// labels: pair `k` chains `labels[k][0] → … → labels[k][chain]`. The
/// labels change the values, not the work, so every seed runs the same
/// number of rounds and evaluations.
pub struct Tenants {
    pub labels: Vec<Vec<String>>,
}

impl Tenants {
    pub fn random(rng: &mut Rng) -> Tenants {
        let labels = (0..P2P_PAIRS)
            .map(|_| {
                let mut seen = BTreeSet::new();
                let mut out = Vec::new();
                while out.len() < P2P_CHAIN + 1 {
                    let l = format!("n{}", rng.below(1_000_000));
                    if seen.insert(l.clone()) {
                        out.push(l);
                    }
                }
                out
            })
            .collect();
        Tenants { labels }
    }

    /// Build the network on `peers` physical peers with the placement
    /// defaults spelled out.
    pub fn network(&self, peers: usize) -> axml_p2p::ShardedNetwork {
        let cfg = axml_p2p::ShardedConfig {
            vnodes: 16,
            seed: 0xA731,
            push_deltas: true,
            parallel: true,
        };
        let mut net = axml_p2p::ShardedNetwork::new(cfg);
        for i in 0..peers {
            net.join_peer(&format!("peer-{i}"));
        }
        for (k, l) in self.labels.iter().enumerate() {
            let p = format!("prod-{k}");
            let edges: Vec<String> = l
                .windows(2)
                .map(|w| format!(r#"t{{from{{"{}"}},to{{"{}"}}}}"#, w[0], w[1]))
                .collect();
            let producer = net.add_tenant(&p);
            producer
                .add_document_text("acc", &format!("r{{{},@{p}.join}}", edges.join(",")))
                .expect("generated producer document parses");
            producer
                .add_service_text("join", P2P_JOIN)
                .expect("join service parses");
            producer
                .add_service_text("feed", "t{from{$x},to{$y}} :- acc/r{t{from{$x},to{$y}}}")
                .expect("feed service parses");
            net.add_tenant(&format!("cons-{k}"))
                .add_document_text("inbox", &format!("box{{@{p}.feed}}"))
                .expect("generated consumer document parses");
        }
        net
    }

    /// A read of consumer `k`'s inbox from chain position `a`, and the
    /// labels after `a` it must return.
    pub fn read(&self, k: usize, a: usize) -> (String, BTreeSet<String>) {
        let l = &self.labels[k];
        let q = format!(
            r#"hit{{$y}} :- inbox/box{{t{{from{{"{}"}},to{{$y}}}}}}"#,
            l[a]
        );
        (q, hits(l[a + 1..].iter().cloned()))
    }
}

/// The producers' local closure service.
pub const P2P_JOIN: &str = "t{from{$x},to{$y}} :- acc/r{t{from{$x},to{$z}}, t{from{$z},to{$y}}}";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reach_follows_paths_of_one_or_more_edges() {
        let g = Digraph {
            n: 5,
            edges: vec![(0, 1), (1, 2), (2, 0), (3, 4)],
            labels: (0..5).collect(),
        };
        assert_eq!(g.reach(0), BTreeSet::from([0, 1, 2]));
        assert_eq!(g.reach(3), BTreeSet::from([4]));
        assert!(g.reach(4).is_empty());
    }

    #[test]
    fn inputs_depend_only_on_the_seed() {
        let a = Digraph::random(64, &mut Rng::new(7));
        let b = Digraph::random(64, &mut Rng::new(7));
        assert_eq!(a.edges, b.edges);
        assert!(a.edges.starts_with(&[(0, 1), (1, 2)]));
        // Renaming keeps node 0 and the size of every reach set.
        let (r, s) = (
            Digraph::renamed(64, 0, &mut Rng::new(1)),
            Digraph::renamed(64, 0, &mut Rng::new(2)),
        );
        assert_ne!(r.edges, s.edges);
        assert_eq!(r.edges[0].0, 0);
        for v in 0..64 {
            assert_eq!(r.reach(r.label(v)).len(), s.reach(s.label(v)).len());
        }
        let (ta, tb) = (
            Tenants::random(&mut Rng::new(3)),
            Tenants::random(&mut Rng::new(3)),
        );
        assert_eq!(ta.labels, tb.labels);
        assert!(ta.labels.iter().all(|l| l.len() == P2P_CHAIN + 1));
    }
}
