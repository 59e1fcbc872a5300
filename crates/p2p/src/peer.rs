//! AXML peers: named documents plus locally-hosted positive services.
//!
//! Function nodes carry **peer-qualified** names `provider.service`.
//! Invoking one ships the call's `input` parameters and `context` to the
//! provider, which evaluates its local positive query against its *own*
//! documents (plus the shipped input/context) and answers with a
//! forest; the caller grafts it beside the call node and reduces —
//! exactly the single-system semantics of §2.2, distributed. The round
//! driver ([`crate::placement::ShardedNetwork`]) and the threaded
//! runtime ([`crate::threaded`]) both move data between peers through
//! the evaluation and `graft_response` primitives defined here.

use axml_core::error::{AxmlError, Result};
use axml_core::eval::{snapshot, Env};
use axml_core::forest::Forest;
use axml_core::provenance::{query_witnesses, Origin, Provenance, ProvenanceStore};
use axml_core::query::{parse_query, Query};
use axml_core::reduce::{canonical_key, reduce_in_place, CanonKey};
use axml_core::subsume::SubMemo;
use axml_core::sym::{FxHashMap, Sym};
use axml_core::system::{context_sym, input_sym};
use axml_core::tree::{Marking, NodeId, Tree};
use std::sync::Arc;

/// One peer: named documents plus locally-hosted positive services.
#[derive(Clone)]
pub struct Peer {
    /// The peer's name.
    pub name: Sym,
    docs: FxHashMap<Sym, Tree>,
    doc_order: Vec<Sym>,
    services: FxHashMap<Sym, Query>,
}

impl Peer {
    pub(crate) fn new(name: Sym) -> Peer {
        Peer {
            name,
            docs: FxHashMap::default(),
            doc_order: Vec::new(),
            services: FxHashMap::default(),
        }
    }

    /// Add a document (compact syntax).
    pub fn add_document_text(&mut self, name: &str, src: &str) -> Result<()> {
        let mut t = axml_core::parse::parse_document(src)?;
        reduce_in_place(&mut t);
        let name = Sym::intern(name);
        if self.docs.insert(name, t).is_some() {
            return Err(AxmlError::DuplicateDocument(name));
        }
        self.doc_order.push(name);
        Ok(())
    }

    /// Host a service defined by a positive query over this peer's
    /// documents (plus `input`/`context` shipped by callers).
    pub fn add_service_text(&mut self, name: &str, query: &str) -> Result<()> {
        let name = Sym::intern(name);
        if self
            .services
            .insert(name, parse_query(query)?)
            .is_some()
        {
            return Err(AxmlError::DuplicateService(name));
        }
        Ok(())
    }

    /// Read a document.
    pub fn doc(&self, name: &str) -> Option<&Tree> {
        self.docs.get(&Sym::intern(name))
    }

    /// Document names in registration order.
    pub fn doc_names(&self) -> &[Sym] {
        &self.doc_order
    }

    /// Read a document by interned name (the placement layer resolves
    /// documents through `DocId`s, which carry `Sym`s).
    pub(crate) fn doc_tree(&self, name: Sym) -> Option<&Tree> {
        self.docs.get(&name)
    }

    /// Mutable access to a document tree (the placement layer's commit
    /// phase grafts responses directly into the owning tenant's doc).
    pub(crate) fn doc_tree_mut(&mut self, name: Sym) -> Option<&mut Tree> {
        self.docs.get_mut(&name)
    }

    /// An immutable snapshot of this peer's current state.
    ///
    /// O(1) in document size: [`Tree`] is a copy-on-write persistent
    /// structure, so cloning the peer bumps a few `Arc`s per document
    /// and shares every node (and any built indexes) with the live
    /// peer until it next mutates. The threaded runtime answers whole
    /// call batches from one snapshot, so every response in a batch is
    /// stamped with exactly the state that produced it.
    pub fn snapshot(&self) -> PeerSnapshot {
        PeerSnapshot(Arc::new(self.clone()))
    }

    /// Evaluate a locally-hosted service for the given input/context.
    pub(crate) fn evaluate(&self, service: Sym, input: &Tree, context: &Tree) -> Result<Forest> {
        let q = self
            .services
            .get(&service)
            .ok_or(AxmlError::UnknownFunction(service))?;
        let mut env = Env::new();
        for d in &self.doc_order {
            env.insert(*d, &self.docs[d]);
        }
        env.insert(input_sym(), input);
        env.insert(context_sym(), context);
        snapshot(q, &env)
    }

    /// Graft a response forest beside the call node, and stamp every grafted node
    /// with `origin` into `prov` — the caller-side half of cross-peer
    /// lineage (the origin names the remote invocation that produced
    /// the response).
    pub(crate) fn deliver_with(
        &mut self,
        doc: Sym,
        node: NodeId,
        forest: &Forest,
        prov: Provenance<'_>,
        origin: Origin,
    ) -> bool {
        let Some(tree) = self.docs.get_mut(&doc) else {
            return false;
        };
        graft_response(tree, doc, node, forest.trees(), prov, origin)
    }

    /// Provider-side witnesses of a hosted service: the nodes of this
    /// peer's documents its body atoms embed into (see
    /// [`axml_core::provenance::query_witnesses`]).
    pub(crate) fn witnesses(&self, service: Sym) -> Vec<(Sym, NodeId)> {
        match self.services.get(&service) {
            Some(q) => query_witnesses(q, |d| self.docs.get(&d)),
            None => Vec::new(),
        }
    }

    /// Stamp all current nodes of this peer's documents as seed data.
    pub(crate) fn seed_provenance(&self, store: &ProvenanceStore) {
        for d in &self.doc_order {
            store.seed_document(*d, &self.docs[d]);
        }
    }

    /// Deterministic digest of this peer's documents.
    pub(crate) fn digest(&self) -> Vec<(Sym, CanonKey)> {
        self.doc_order
            .iter()
            .map(|d| (*d, canonical_key(&self.docs[d])))
            .collect()
    }

    /// Build `input`/`context` for a call node, if it is still live.
    pub(crate) fn call_arguments(&self, doc: Sym, node: NodeId) -> Option<(Tree, Tree)> {
        let tree = self.docs.get(&doc)?;
        if !tree.is_alive(node) {
            return None;
        }
        let parent = tree.parent(node)?;
        let mut input = Tree::with_label("input");
        let iroot = input.root();
        tree.copy_children_into(node, &mut input, iroot);
        Some((input, tree.subtree(parent)))
    }

    /// Live function nodes across this peer's documents.
    pub(crate) fn function_nodes(&self) -> Vec<(Sym, NodeId, Sym)> {
        let mut out = Vec::new();
        for d in &self.doc_order {
            let t = &self.docs[d];
            for n in t.iter_live(t.root()) {
                if let Marking::Func(f) = t.marking(n) {
                    out.push((*d, n, f));
                }
            }
        }
        out
    }
}

/// Graft response trees beside a live call node: each tree that is not
/// already subsumed by an existing sibling becomes a new child of the
/// call node's parent, every grafted node is stamped with `origin` in
/// `prov`, and the document is reduced once if anything landed.
/// Returns whether the document changed.
///
/// This is the single delivery primitive shared by [`Peer::deliver_with`]
/// (the threaded runtime's caller side) and the round driver's commit
/// phase (`crate::placement`), so both propagate responses with
/// bit-identical semantics — which is what lets the differential suites
/// compare their fixpoints node-for-node.
pub(crate) fn graft_response(
    tree: &mut Tree,
    doc: Sym,
    node: NodeId,
    trees: &[Tree],
    prov: Provenance<'_>,
    origin: Origin,
) -> bool {
    if !tree.is_alive(node) {
        return false;
    }
    let Some(parent) = tree.parent(node) else {
        return false;
    };
    let mut grafted = false;
    for r in trees {
        let mut memo = SubMemo::new();
        let already = tree
            .children(parent)
            .iter()
            .any(|&c| memo.subsumed_at(r, r.root(), tree, c));
        if !already {
            let new_root = tree.graft(parent, r).expect("parent is alive");
            grafted = true;
            if prov.enabled() {
                let fresh: Vec<NodeId> = tree.iter_live(new_root).collect();
                prov.with(|st| {
                    for nid in fresh {
                        st.stamp(doc, nid, origin);
                    }
                });
            }
        }
    }
    if grafted {
        reduce_in_place(tree);
    }
    grafted
}

/// An O(1) immutable snapshot of a [`Peer`] (see [`Peer::snapshot`]).
///
/// Dereferences to [`Peer`], so everything read-only — `evaluate`,
/// `digest`, `witnesses` — works unchanged against the frozen state.
/// Cheap to clone and `Send + Sync`: worker threads evaluating a call
/// batch share one snapshot while the live peer stays free to mutate.
#[derive(Clone)]
pub struct PeerSnapshot(Arc<Peer>);

impl std::ops::Deref for PeerSnapshot {
    type Target = Peer;
    fn deref(&self) -> &Peer {
        &self.0
    }
}
