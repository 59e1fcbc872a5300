//! # axml-p2p — simulated peer-to-peer AXML data management
//!
//! The paper frames AXML as "a powerful framework for distributed data
//! management" over P2P networks (§1, §6): peers host documents and
//! offer AXML services to one another; calls are activated repeatedly in
//! a *pull* mode, or providers *push* new results to their callers — two
//! essentially equivalent views of the same streams of data (§2.2
//! remark). §6 also notes that detecting termination of the distributed
//! system needs a dedicated mechanism, since each peer only sees its own
//! fixpoint.
//!
//! This crate simulates that setting with one deterministic round
//! driver plus a threaded runtime:
//!
//! * [`peer`] — peers (documents plus hosted services), peer-qualified
//!   service names (`peer.svc`), provider-side evaluation and the
//!   caller-side graft/subsume/reduce delivery primitive;
//! * [`placement`] — the round driver, [`ShardedNetwork`]: tenants
//!   (logical peers) placed on physical peers either by a
//!   consistent-hash [`Ring`] (with mid-run join/leave and O(1) COW
//!   migration) or pinned one per peer ([`ShardedNetwork::flat`]);
//!   pull or push propagation ([`Mode`]); delta or full pushes
//!   ([`ShardedConfig::push_deltas`]); and an optional seeded commit
//!   order for the confluence experiments;
//! * [`termination`] — the polling-based distributed quiescence
//!   detector, sound across rebalances;
//! * [`threaded`] — truly concurrent peers on OS threads, with a
//!   double-wave quiescence coordinator.
//!
//! Both the round driver and the threaded runtime can record structured
//! trace journals of their message traffic and provider evaluations —
//! see [`axml_core::trace`], [`ShardedNetwork::enable_tracing`] and
//! [`ThreadedConfig::trace`] — and per-tenant provenance stores that
//! stamp cross-peer lineage onto delivered nodes — see
//! [`axml_core::provenance`], [`ShardedNetwork::enable_provenance`] and
//! [`ThreadedConfig::provenance`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod peer;
pub mod placement;
pub mod termination;
pub mod threaded;

pub use peer::{Peer, PeerSnapshot};
pub use placement::{
    DocId, Mode, PeerGauges, Ring, ShardStats, ShardedConfig, ShardedNetwork,
};
pub use termination::{detect_termination, Verdict};
pub use threaded::{
    run_threaded, standalone_peer, ThreadedConfig, ThreadedOutcome,
};
