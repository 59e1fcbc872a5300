//! Integration tests for the observability layer (`axml_core::trace`
//! and `axml_core::provenance`): the X2 confluence experiment journaled
//! under two fair schedules, the X14 delta-engine workload exported as
//! a validated Chrome trace, and cross-peer lineage on both p2p
//! backends.

use positive_axml::core::engine::{
    run_traced, EngineConfig, EngineMode, RunStatus, Strategy,
};
use positive_axml::core::trace::{
    chrome_trace, validate_chrome_trace, EventKind, Fanout, Journal,
    MetricsRegistry, Tracer,
};
use positive_axml::core::Sym;

/// X2 (Thm 2.1): two fair schedules reach the same fixpoint, but their
/// journals witness genuinely different invocation sequences — the
/// traces diff in order while the final systems agree.
#[test]
fn confluent_schedules_journal_different_orders_same_fixpoint() {
    let mut runs = Vec::new();
    for strategy in [Strategy::RoundRobin, Strategy::Reverse] {
        let mut sys = axml_bench::tc_system(6);
        let journal = Journal::new();
        let (status, stats) = run_traced(
            &mut sys,
            &EngineConfig::with_strategy(strategy),
            Tracer::new(&journal),
        )
        .unwrap();
        assert_eq!(status, RunStatus::Terminated);
        assert!(stats.productive > 0);
        runs.push((sys.canonical_key(), journal.into_events()));
    }
    let (key_a, events_a) = &runs[0];
    let (key_b, events_b) = &runs[1];

    // Confluence: identical final systems.
    assert_eq!(key_a, key_b);

    // Trace diff: project each journal onto its invocation sequence.
    let invocations = |events: &[positive_axml::core::trace::TraceEvent]| {
        events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Invoke { doc, node, service, .. } => {
                    Some((doc, node, service))
                }
                _ => None,
            })
            .collect::<Vec<_>>()
    };
    let seq_a = invocations(events_a);
    let seq_b = invocations(events_b);
    // Same work happened, in a different order: the first invocations
    // already differ (RoundRobin visits in preorder, Reverse backwards).
    assert!(!seq_a.is_empty() && !seq_b.is_empty());
    assert_ne!(seq_a, seq_b, "schedules must journal different orders");
    let sorted = |mut v: Vec<(Sym, _, Sym)>| {
        v.sort_unstable_by_key(|(d, n, s)| (d.as_str(), *n, s.as_str()));
        v
    };
    // (Not necessarily the same multiset of invocations — a different
    // order can merge nodes earlier — but both exports must validate.)
    let _ = (sorted(seq_a), sorted(seq_b));
    for events in [events_a, events_b] {
        let json = chrome_trace(events);
        assert_eq!(validate_chrome_trace(&json).unwrap(), events.len());
    }
}

/// X14: a Chrome-trace JSON of the delta-engine experiment is produced
/// on disk and validates, and the metrics registry agrees with the
/// engine's own `RunStats`.
#[test]
fn x14_chrome_trace_is_produced_and_validates() {
    let journal = Journal::new();
    let metrics = MetricsRegistry::new();
    let fan = Fanout::new(vec![&journal, &metrics]);
    let mut sys = axml_bench::tc_random_digraph(32, 6, 12);
    let (status, stats) = run_traced(
        &mut sys,
        &EngineConfig::with_mode(EngineMode::Delta),
        Tracer::new(&fan),
    )
    .unwrap();
    assert_eq!(status, RunStatus::Terminated);

    // Journal and RunStats agree on the work done.
    let events = journal.snapshot();
    let count = |pred: fn(&EventKind) -> bool| {
        events.iter().filter(|e| pred(&e.kind)).count()
    };
    assert_eq!(
        count(|k| matches!(k, EventKind::Invoke { .. })),
        stats.invocations
    );
    assert_eq!(
        count(|k| matches!(k, EventKind::CallSkipped { .. })),
        stats.skipped
    );
    assert_eq!(
        count(|k| matches!(k, EventKind::CacheHit { .. })),
        stats.cache_hits
    );
    assert_eq!(
        count(|k| matches!(k, EventKind::CacheMiss { .. })),
        stats.cache_misses
    );
    let globals = metrics.globals();
    assert_eq!(globals.rounds as usize, stats.rounds);
    assert_eq!(globals.calls_selected as usize, stats.invocations);
    assert_eq!(globals.calls_skipped as usize, stats.skipped);
    let report = metrics.render_report("x14");
    assert!(report.contains("run report: x14"));

    // The export validates, round-trips through a file, and stays valid.
    let json = chrome_trace(&events);
    assert_eq!(validate_chrome_trace(&json).unwrap(), events.len());
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let path = dir.join("x14_trace.json");
    std::fs::write(&path, &json).unwrap();
    let reread = std::fs::read_to_string(&path).unwrap();
    assert_eq!(validate_chrome_trace(&reread).unwrap(), events.len());
}

/// The p2p network journal also exports to a valid Chrome trace.
#[test]
fn p2p_journal_exports_to_chrome_trace() {
    use positive_axml::p2p::{Mode, ShardedNetwork};
    let mut net = ShardedNetwork::flat(Mode::Pull, None);
    let store = net.add_tenant("store");
    store
        .add_document_text("cds", r#"catalog{cd{title{"Kind of Blue"}}}"#)
        .unwrap();
    store
        .add_service_text("titles", "t{$x} :- cds/catalog{cd{title{$x}}}")
        .unwrap();
    let portal = net.add_tenant("portal");
    portal
        .add_document_text("dir", "directory{@store.titles}")
        .unwrap();
    net.enable_tracing();
    assert!(net.run(100).unwrap());
    let events = net.take_journal();
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, EventKind::MsgSend { .. })));
    let json = chrome_trace(&events);
    assert_eq!(validate_chrome_trace(&json).unwrap(), events.len());
}

/// Cross-peer lineage, simulator backend: a node grafted from another
/// peer's response is stamped [`Origin::Remote`], and the origin's seq
/// resolves in the *provider's* store to an invocation record whose
/// witnesses live in the provider's own documents.
#[test]
fn simulator_stamps_cross_peer_lineage() {
    use positive_axml::core::provenance::Origin;
    use positive_axml::p2p::{Mode, ShardedNetwork};
    let mut net = ShardedNetwork::flat(Mode::Pull, None);
    let store = net.add_tenant("store");
    store
        .add_document_text("cds", r#"catalog{cd{title{"Kind of Blue"}}}"#)
        .unwrap();
    store
        .add_service_text("titles", "t{$x} :- cds/catalog{cd{title{$x}}}")
        .unwrap();
    let portal = net.add_tenant("portal");
    portal
        .add_document_text("dir", "directory{@store.titles}")
        .unwrap();
    net.enable_provenance();
    assert!(net.run(100).unwrap());

    let dir = Sym::intern("dir");
    let tree = net.tenant("portal").unwrap().doc("dir").unwrap();
    let portal_store = net.provenance_store("portal").unwrap();
    let (_, origin) = tree
        .iter_live(tree.root())
        .filter_map(|n| match portal_store.origin(dir, n) {
            Some(o @ Origin::Remote { .. }) => Some((n, o)),
            _ => None,
        })
        .next()
        .expect("a delivered node is stamped Origin::Remote");
    let Origin::Remote { provider, service, seq, .. } = origin else {
        unreachable!()
    };
    assert_eq!(provider.as_str(), "store");
    assert_eq!(service.as_str(), "titles");

    let provider_store = net.provenance_store("store").unwrap();
    let rec = provider_store
        .invocation(seq)
        .expect("the provider logged the remote invocation");
    assert_eq!(rec.service, service);
    assert_eq!(rec.peer, Some(provider));
    assert!(
        rec.inputs.iter().any(|(d, _)| d.as_str() == "cds"),
        "the record witnesses the provider's source document"
    );
}

/// Cross-peer lineage, threaded backend: same contract as the
/// simulator, with the stores shipped back in
/// [`ThreadedOutcome::provenance`] at shutdown. The threaded run has no
/// global rounds, so remote origins carry `round: 0`.
#[test]
fn threaded_run_ships_cross_peer_lineage() {
    use positive_axml::core::provenance::Origin;
    use positive_axml::p2p::{run_threaded, standalone_peer, ThreadedConfig};
    let mut store = standalone_peer("store");
    store
        .add_document_text("cds", r#"catalog{cd{title{"Kind of Blue"}}}"#)
        .unwrap();
    store
        .add_service_text("titles", "t{$x} :- cds/catalog{cd{title{$x}}}")
        .unwrap();
    let mut portal = standalone_peer("portal");
    portal
        .add_document_text("dir", "directory{@store.titles}")
        .unwrap();
    let cfg = ThreadedConfig {
        max_waves: 64,
        provenance: true,
        ..ThreadedConfig::default()
    };
    let outcome = run_threaded(vec![store, portal], &cfg).unwrap();
    assert!(outcome.stats.messages > 0);

    let dir = Sym::intern("dir");
    let portal_name = Sym::intern("portal");
    let tree = outcome.peers[&portal_name].doc("dir").unwrap();
    let portal_store = &outcome.provenance[&portal_name];
    let (_, origin) = tree
        .iter_live(tree.root())
        .filter_map(|n| match portal_store.origin(dir, n) {
            Some(o @ Origin::Remote { .. }) => Some((n, o)),
            _ => None,
        })
        .next()
        .expect("a delivered node is stamped Origin::Remote");
    let Origin::Remote { provider, service, seq, round } = origin else {
        unreachable!()
    };
    assert_eq!(provider.as_str(), "store");
    assert_eq!(service.as_str(), "titles");
    assert_eq!(round, 0, "the threaded backend has no global rounds");

    let rec = outcome.provenance[&provider]
        .invocation(seq)
        .expect("the provider logged the remote invocation");
    assert_eq!(rec.service, service);
    assert_eq!(rec.peer, Some(provider));
    assert!(rec.inputs.iter().any(|(d, _)| d.as_str() == "cds"));
}

/// X16: a traced indexed run journals `IndexLookup` probes and
/// `IndexMaintain` deltas, the metrics surface them as a hit rate plus
/// maintenance counters in the report, and both event kinds survive the
/// Chrome-trace export.
#[test]
fn indexed_runs_journal_probe_and_maintenance_events() {
    let journal = Journal::new();
    let metrics = MetricsRegistry::new();
    let fan = Fanout::new(vec![&journal, &metrics]);
    let mut sys = axml_bench::tc_random_digraph(64, 6, 12);
    let (status, _) = run_traced(
        &mut sys,
        &EngineConfig::with_mode(EngineMode::Delta),
        Tracer::new(&fan),
    )
    .unwrap();
    assert_eq!(status, RunStatus::Terminated);

    let events = journal.snapshot();
    let lookups = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::IndexLookup { .. }))
        .count();
    let maintains = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::IndexMaintain { .. }))
        .count();
    assert!(lookups > 0, "no IndexLookup events were journaled");
    assert!(maintains > 0, "no IndexMaintain events were journaled");

    let globals = metrics.globals();
    assert!(globals.index_probes > 0);
    assert_eq!(globals.index_maintains as usize, maintains);
    assert!(globals.index_bytes_peak > 0, "peak footprint must be estimated");
    let report = metrics.render_report("x16");
    assert!(report.contains("index: probes"), "report must show the index section");
    assert!(report.contains("hit rate"), "report must show the probe hit rate");

    let json = chrome_trace(&events);
    assert_eq!(validate_chrome_trace(&json).unwrap(), events.len());
}
