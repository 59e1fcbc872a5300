//! End-to-end: an in-process `axml-server`, driven over real TCP by
//! the [`axml_server::load::Client`] protocol client.
//!
//! Pins the PR's acceptance criteria: concurrent sessions; batched
//! query answers bit-for-bit identical to a direct
//! [`axml_core::engine::run_traced`] + [`axml_core::snapshot`] against
//! the same system; subscription pushes that reconstruct the fixpoint
//! answer set delta-by-delta; and a Chrome trace with the server lane
//! that the in-repo validator accepts.

use axml_core::engine::{run_traced, EngineConfig, EngineMode, RunStatus};
use axml_core::trace::{EventKind, ReqKind, Tracer};
use axml_core::{snapshot, validate_chrome_trace, Env, System};
use axml_server::load::Client;
use axml_server::protocol::{codes, Request, Response, PROTOCOL_VERSION};
use axml_server::server::{Server, ServerConfig, ServerHandle};

const EDGES: &str = r#"r{t{from{"1"},to{"2"}}, t{from{"2"},to{"3"}}, t{from{"3"},to{"4"}}, @tc}"#;
const TC: &str = "t{from{$x},to{$y}} :- edges/r{t{from{$x},to{$z}}, t{from{$z},to{$y}}}";
const REACH_FROM_1: &str = "hit{$y} :- edges/r{t{from{\"1\"},to{$y}}}";
const REACH_FROM_2: &str = "hit{$y} :- edges/r{t{from{\"2\"},to{$y}}}";

/// The reference: the same system run directly through the library,
/// with the engine configuration the server defaults to.
fn reference_answers(queries: &[&str]) -> (Vec<Vec<String>>, u64) {
    let mut sys = System::new();
    sys.add_document_text("edges", EDGES).unwrap();
    sys.add_service_text("tc", TC).unwrap();
    let cfg = EngineConfig {
        mode: EngineMode::Delta,
        ..EngineConfig::default()
    };
    let (status, _) = run_traced(&mut sys, &cfg, Tracer::disabled()).unwrap();
    assert_eq!(status, RunStatus::Terminated);
    let answers = queries
        .iter()
        .map(|q| {
            let q = axml_core::parse_query(q).unwrap();
            let env = Env::for_system(&sys);
            snapshot(&q, &env)
                .unwrap()
                .trees()
                .iter()
                .map(|t| t.to_string())
                .collect()
        })
        .collect();
    (answers, sys.version())
}

fn spawn() -> ServerHandle {
    Server::spawn("127.0.0.1:0", ServerConfig::default()).expect("bind ephemeral port")
}

fn open_and_run(c: &mut Client, session: &str) {
    let resp = c
        .call(&Request::Open {
            id: 1,
            session: session.to_string(),
            docs: vec![("edges".to_string(), EDGES.to_string())],
            services: vec![("tc".to_string(), TC.to_string())],
        })
        .unwrap();
    assert!(matches!(resp, Response::OpenOk { docs: 1, services: 1, .. }), "{resp:?}");
    let resp = c
        .call(&Request::Run {
            id: 2,
            session: session.to_string(),
            mode: None,
            max_invocations: None,
        })
        .unwrap();
    let Response::RunOk { status, version, .. } = resp else {
        panic!("expected run_ok, got {resp:?}")
    };
    assert_eq!(status, "terminated");
    assert!(version > 0);
}

#[test]
fn batched_queries_match_direct_evaluation_bit_for_bit() {
    let (want, want_version) = reference_answers(&[REACH_FROM_1, REACH_FROM_2]);
    let mut handle = spawn();
    let mut c = Client::connect(&handle.addr().to_string()).unwrap();
    open_and_run(&mut c, "s1");

    // Single `query` frames.
    for (q, want) in [REACH_FROM_1, REACH_FROM_2].iter().zip(&want) {
        let resp = c
            .call(&Request::Query {
                id: 10,
                session: "s1".to_string(),
                query: q.to_string(),
            })
            .unwrap();
        let Response::Answers { trees, .. } = resp else {
            panic!("expected answers")
        };
        assert_eq!(&trees, want, "query {q} answers differ from direct snapshot");
    }

    // An explicit `batch` frame: same answers, same order.
    let resp = c
        .call(&Request::Batch {
            id: 11,
            session: "s1".to_string(),
            queries: vec![REACH_FROM_1.to_string(), REACH_FROM_2.to_string()],
        })
        .unwrap();
    let Response::BatchOk { answers, .. } = resp else {
        panic!("expected batch_ok")
    };
    assert_eq!(answers, want, "batched answers differ from direct snapshot");

    // The server's session reached the same version stamp.
    let resp = c
        .call(&Request::Run {
            id: 12,
            session: "s1".to_string(),
            mode: None,
            max_invocations: None,
        })
        .unwrap();
    let Response::RunOk { version, rounds, .. } = resp else {
        panic!("expected run_ok")
    };
    assert_eq!(version, want_version, "server fixpoint version differs");
    assert_eq!(rounds, 1, "re-running a fixpoint is one empty-ish round");

    handle.shutdown();
    drop(c);
    handle.join();
}

#[test]
fn pipelined_queries_coalesce_and_answer_in_order() {
    let (want, _) = reference_answers(&[REACH_FROM_1]);
    let mut handle = spawn();
    let mut c = Client::connect(&handle.addr().to_string()).unwrap();
    open_and_run(&mut c, "s1");

    // Pipeline 8 query frames without waiting — the dataloader may
    // coalesce any suffix of them; answers must still come back one
    // per request, in order, each bit-for-bit correct.
    for id in 100..108u64 {
        c.send(&Request::Query {
            id,
            session: "s1".to_string(),
            query: REACH_FROM_1.to_string(),
        })
        .unwrap();
    }
    for id in 100..108u64 {
        let resp = c.recv().unwrap();
        let Response::Answers { id: got, trees, .. } = resp else {
            panic!("expected answers")
        };
        assert_eq!(got, id, "answers out of order");
        assert_eq!(trees, want[0]);
    }

    handle.shutdown();
    drop(c);
    handle.join();

    // Every query was answered and batches were formed (sizes sum to
    // the request count even when coalescing happened to be 1-wide).
    let g = handle.sink().globals();
    assert_eq!(g.requests_served, 8 + 2 + 1); // 8 queries + open/run + hello
    assert_eq!(g.request_errors, 0);
    assert!(g.batches_formed >= 1);
    assert!(g.batched_requests == 8, "batched {}", g.batched_requests);
}

#[test]
fn coalesced_groups_answer_against_one_system_state() {
    let mut handle = spawn();
    let addr = handle.addr().to_string();
    let mut c = Client::connect(&addr).unwrap();
    // Open without running — the concurrent `run` below mutates the
    // session while the pipelined queries race it.
    let resp = c
        .call(&Request::Open {
            id: 1,
            session: "race".to_string(),
            docs: vec![("edges".to_string(), EDGES.to_string())],
            services: vec![("tc".to_string(), TC.to_string())],
        })
        .unwrap();
    assert!(matches!(resp, Response::OpenOk { .. }));
    let runner = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr).unwrap();
            let resp = c
                .call(&Request::Run {
                    id: 2,
                    session: "race".to_string(),
                    mode: None,
                    max_invocations: None,
                })
                .unwrap();
            assert!(matches!(resp, Response::RunOk { .. }), "{resp:?}");
        })
    };

    let mut answers = std::collections::HashMap::new();
    for id in 100..140u64 {
        c.send(&Request::Query {
            id,
            session: "race".to_string(),
            query: REACH_FROM_1.to_string(),
        })
        .unwrap();
    }
    for _ in 100..140u64 {
        let Response::Answers { id, trees, .. } = c.recv().unwrap() else {
            panic!("expected answers")
        };
        answers.insert(id, trees);
    }
    runner.join().unwrap();
    handle.shutdown();
    drop(c);
    handle.join();

    // Reconstruct the dataloader groups from the journal: each
    // `BatchFormed` closes the `size` most recent served queries.
    // The protocol promises one session-lock acquisition per group
    // (docs/protocol.md, Batching semantics), so members of a group
    // must have answered against one system state — a group whose
    // answers straddle the concurrent run's mutation breaks it.
    let mut served: Vec<u64> = Vec::new();
    for ev in handle.sink().events() {
        match ev.kind {
            EventKind::RequestServed {
                kind: ReqKind::Query,
                id,
                ..
            } => served.push(id),
            EventKind::BatchFormed { size, .. } => {
                let members = served.split_off(served.len() - size as usize);
                for m in &members {
                    assert_eq!(
                        answers[m], answers[&members[0]],
                        "one group answered against two system states"
                    );
                }
            }
            _ => {}
        }
    }
    assert!(served.is_empty(), "every served query belongs to a group");
    assert_eq!(answers.len(), 40);
}

#[test]
fn subscription_reconstructs_fixpoint_delta_by_delta() {
    // Reference: the final answer set and version of a direct run.
    let (want, want_version) = reference_answers(&[REACH_FROM_1]);
    let want_set: std::collections::BTreeSet<&String> = want[0].iter().collect();

    let mut handle = spawn();
    let mut c = Client::connect(&handle.addr().to_string()).unwrap();
    // Open but do NOT run — the subscription itself drives the
    // rewriting and streams the growth.
    let resp = c
        .call(&Request::Open {
            id: 1,
            session: "sub".to_string(),
            docs: vec![("edges".to_string(), EDGES.to_string())],
            services: vec![("tc".to_string(), TC.to_string())],
        })
        .unwrap();
    assert!(matches!(resp, Response::OpenOk { .. }));

    c.send(&Request::Subscribe {
        id: 7,
        session: "sub".to_string(),
        query: REACH_FROM_1.to_string(),
    })
    .unwrap();
    assert!(matches!(c.recv().unwrap(), Response::SubOk { id: 7, .. }));

    let mut pushed: Vec<String> = Vec::new();
    let mut deltas = 0u64;
    let (mut last_round, mut last_version) = (0u64, 0u64);
    let done = loop {
        match c.recv().unwrap() {
            Response::Delta {
                id,
                round,
                version,
                trees,
                ..
            } => {
                assert_eq!(id, 7);
                assert!(!trees.is_empty(), "empty deltas are never pushed");
                assert!(round >= last_round, "rounds must be nondecreasing");
                assert!(version >= last_version, "version stamps must grow");
                (last_round, last_version) = (round, version);
                deltas += 1;
                for t in trees {
                    assert!(!pushed.contains(&t), "tree {t} pushed twice");
                    pushed.push(t);
                }
            }
            done @ Response::SubDone { .. } => break done,
            other => panic!("unexpected frame {other:?}"),
        }
    };
    let Response::SubDone { status, pushes, .. } = done else {
        unreachable!()
    };
    assert_eq!(status, "terminated");
    assert_eq!(pushes, deltas);
    // With reachability growing one hop per round, the closure from
    // node 1 over a 3-hop chain needs more than one push.
    assert!(deltas >= 2, "expected an actual stream, got {deltas} delta(s)");

    // Delta-by-delta reconstruction: the union of pushes is exactly
    // the direct fixpoint answer set, and the final stamp matches.
    let got_set: std::collections::BTreeSet<&String> = pushed.iter().collect();
    assert_eq!(got_set, want_set, "pushed union differs from direct snapshot");
    assert_eq!(last_version, want_version, "final version stamp differs");

    handle.shutdown();
    drop(c);
    handle.join();
}

#[test]
fn concurrent_sessions_are_isolated_and_shared_by_name() {
    let mut handle = spawn();
    let addr = handle.addr().to_string();

    // Two clients, two sessions, concurrently.
    let t1 = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr).unwrap();
            open_and_run(&mut c, "alice");
            let resp = c
                .call(&Request::Query {
                    id: 3,
                    session: "alice".to_string(),
                    query: REACH_FROM_1.to_string(),
                })
                .unwrap();
            let Response::Answers { trees, .. } = resp else {
                panic!("expected answers")
            };
            trees
        })
    };
    let t2 = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr).unwrap();
            open_and_run(&mut c, "bob");
            let resp = c
                .call(&Request::Query {
                    id: 3,
                    session: "bob".to_string(),
                    query: REACH_FROM_2.to_string(),
                })
                .unwrap();
            let Response::Answers { trees, .. } = resp else {
                panic!("expected answers")
            };
            trees
        })
    };
    let (a, b) = (t1.join().unwrap(), t2.join().unwrap());
    let (want, _) = reference_answers(&[REACH_FROM_1, REACH_FROM_2]);
    assert_eq!(a, want[0]);
    assert_eq!(b, want[1]);

    // Sessions are server-wide: a third connection reads "alice".
    let mut c = Client::connect(&addr).unwrap();
    let resp = c
        .call(&Request::Query {
            id: 4,
            session: "alice".to_string(),
            query: REACH_FROM_1.to_string(),
        })
        .unwrap();
    let Response::Answers { trees, .. } = resp else {
        panic!("expected answers")
    };
    assert_eq!(trees, want[0]);

    // Stats sees both sessions; per-session metrics rows exist.
    let resp = c.call(&Request::Stats { id: 5 }).unwrap();
    let Response::StatsOk { sessions, errors, .. } = resp else {
        panic!("expected stats_ok")
    };
    assert_eq!(sessions, 2);
    assert_eq!(errors, 0);

    handle.shutdown();
    drop(c);
    handle.join();

    let report = handle.report("e2e");
    assert!(report.contains("server: requests"), "report:\n{report}");
    assert!(report.contains("session alice"), "report:\n{report}");
    assert!(report.contains("session bob"), "report:\n{report}");
}

#[test]
fn error_frames_and_version_negotiation() {
    let mut handle = spawn();
    let addr = handle.addr().to_string();
    let mut c = Client::connect(&addr).unwrap();

    // Unknown session.
    let resp = c
        .call(&Request::Query {
            id: 1,
            session: "nope".to_string(),
            query: REACH_FROM_1.to_string(),
        })
        .unwrap();
    let Response::Error { code, .. } = resp else {
        panic!("expected error")
    };
    assert_eq!(code, codes::UNKNOWN_SESSION);

    // Bad query on a real session.
    open_and_run(&mut c, "s");
    let resp = c
        .call(&Request::Query {
            id: 2,
            session: "s".to_string(),
            query: "this is not a query".to_string(),
        })
        .unwrap();
    let Response::Error { code, .. } = resp else {
        panic!("expected error")
    };
    assert_eq!(code, codes::BAD_QUERY);

    // Re-opening an existing session.
    let resp = c
        .call(&Request::Open {
            id: 3,
            session: "s".to_string(),
            docs: vec![],
            services: vec![],
        })
        .unwrap();
    let Response::Error { code, .. } = resp else {
        panic!("expected error")
    };
    assert_eq!(code, codes::SESSION_EXISTS);

    // Unsupported protocol version (raw frames, bypassing Client).
    let resp = c
        .call(&Request::Hello {
            id: 4,
            version: PROTOCOL_VERSION + 1,
            client: String::new(),
        })
        .unwrap();
    let Response::Error { code, .. } = resp else {
        panic!("expected error")
    };
    assert_eq!(code, codes::UNSUPPORTED_VERSION);

    // Malformed JSON still gets a well-formed error frame.
    use std::io::{BufRead, BufReader, Write as _};
    let mut raw = std::net::TcpStream::connect(&addr).unwrap();
    writeln!(raw, "{{not json").unwrap();
    let mut line = String::new();
    BufReader::new(raw.try_clone().unwrap()).read_line(&mut line).unwrap();
    let Response::Error { code, .. } = Response::parse(&line).unwrap() else {
        panic!("expected error frame, got {line}")
    };
    assert_eq!(code, codes::BAD_JSON);

    handle.shutdown();
    drop(c);
    drop(raw);
    handle.join();
}

#[test]
fn chrome_trace_has_validated_server_lane() {
    let mut handle = spawn();
    let mut c = Client::connect(&handle.addr().to_string()).unwrap();
    open_and_run(&mut c, "s1");
    let _ = c
        .call(&Request::Query {
            id: 9,
            session: "s1".to_string(),
            query: REACH_FROM_1.to_string(),
        })
        .unwrap();
    handle.shutdown();
    drop(c);
    handle.join();

    let json = handle.sink().chrome_trace();
    let n = validate_chrome_trace(&json).expect("server trace must validate");
    assert!(n > 0);
    assert!(json.contains(r#""name":"server""#), "server lane metadata missing");
    assert!(json.contains("serve query"), "request slices missing");
    assert!(json.contains(r#""cat":"server""#), "server category missing");
}

#[test]
fn health_frame_reports_liveness() {
    let mut handle = spawn();
    let mut c = Client::connect(&handle.addr().to_string()).unwrap();
    open_and_run(&mut c, "s1");

    let resp = c.call(&Request::Health { id: 40 }).unwrap();
    let Response::HealthOk {
        id,
        server,
        sessions,
        conns,
        journal_len,
        journal_dropped,
        ..
    } = resp
    else {
        panic!("expected health_ok, got {resp:?}")
    };
    assert_eq!(id, 40);
    assert!(
        server.starts_with("axml-server/"),
        "health carries the versioned server ident, got {server:?}"
    );
    assert_eq!(sessions, 1);
    assert!(conns >= 1);
    assert!(journal_len > 0, "the always-on journal holds events");
    assert_eq!(journal_dropped, 0, "a fresh default ring drops nothing");

    handle.shutdown();
    drop(c);
    handle.join();
}

#[test]
fn stats_frame_exposes_counters_and_latency_summaries() {
    let cfg = ServerConfig {
        trace_engine: true,
        ..ServerConfig::default()
    };
    let mut handle = Server::spawn("127.0.0.1:0", cfg).expect("bind ephemeral port");
    let mut c = Client::connect(&handle.addr().to_string()).unwrap();
    open_and_run(&mut c, "s1");
    for id in 20..24 {
        let _ = c
            .call(&Request::Query {
                id,
                session: "s1".to_string(),
                query: REACH_FROM_1.to_string(),
            })
            .unwrap();
    }

    let resp = c.call(&Request::Stats { id: 30 }).unwrap();
    let Response::StatsOk {
        counters,
        latency,
        services,
        session_stats,
        served,
        ..
    } = resp
    else {
        panic!("expected stats_ok")
    };
    assert!(served >= 6);
    let counter = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("counter {name} missing"))
            .1
    };
    assert!(counter("requests_served") >= 6);
    assert!(counter("rounds") >= 1, "trace_engine feeds engine counters");
    assert_eq!(counter("request_errors"), 0);
    assert!(latency.count >= 6, "request latency aggregates every request");
    assert!(latency.max_ns >= latency.p50_ns);
    assert!(
        services.iter().any(|(n, s)| n == "tc" && s.count >= 1),
        "per-service latency rows: {services:?}"
    );
    assert!(
        session_stats.iter().any(|(n, s)| n == "s1" && s.count >= 6),
        "per-session latency rows: {session_stats:?}"
    );

    handle.shutdown();
    drop(c);
    handle.join();
}

#[test]
fn trace_tail_streams_live_filtered_events() {
    let mut handle = spawn();
    let addr = handle.addr().to_string();

    // Observer first: register the tail before the traffic it watches.
    let mut observer = Client::connect(&addr).unwrap();
    observer
        .send(&Request::TraceTail {
            id: 70,
            cat: Some("server".to_string()),
            session: Some("watched".to_string()),
            limit: Some(4),
        })
        .unwrap();
    assert!(matches!(observer.recv().unwrap(), Response::TailOk { id: 70 }));

    // Traffic on the watched session — and on another one, which the
    // session filter must suppress.
    let mut c = Client::connect(&addr).unwrap();
    open_and_run(&mut c, "watched");
    open_and_run(&mut c, "other");

    let mut seen = 0u64;
    let done = loop {
        match observer.recv().unwrap() {
            Response::Trace {
                id,
                cat,
                session,
                seq,
                trace,
                name,
                ..
            } => {
                assert_eq!(id, 70);
                assert_eq!(cat, "server");
                assert_eq!(session, "watched", "session filter leaked {name:?} (seq {seq})");
                assert!(trace > 0, "server events are request-attributed");
                seen += 1;
            }
            done @ Response::TailDone { .. } => break done,
            other => panic!("unexpected frame {other:?}"),
        }
    };
    let Response::TailDone { id, sent, dropped } = done else {
        unreachable!()
    };
    assert_eq!(id, 70);
    assert_eq!(sent, 4, "limit bounds the stream");
    assert_eq!(seen, sent);
    assert_eq!(dropped, 0);

    handle.shutdown();
    drop(c);
    drop(observer);
    handle.join();
}

#[test]
fn trace_ids_tie_a_request_to_its_rounds_and_invocations() {
    // The acceptance path: with the engine traced, one `run` request's
    // trace id must reappear on the engine's round events and the
    // service invocations it triggered, and on the final serve event.
    let cfg = ServerConfig {
        trace_engine: true,
        ..ServerConfig::default()
    };
    let mut handle = Server::spawn("127.0.0.1:0", cfg).expect("bind ephemeral port");
    let mut c = Client::connect(&handle.addr().to_string()).unwrap();
    open_and_run(&mut c, "s1");
    handle.shutdown();
    drop(c);
    handle.join();

    let events = handle.sink().events();
    let run_recv = events
        .iter()
        .find(|e| {
            matches!(
                e.kind,
                EventKind::RequestRecv { kind: ReqKind::Run, .. }
            )
        })
        .expect("the run request was journaled");
    let id = run_recv.trace;
    assert!(id > 0, "requests get nonzero trace ids");
    let with_id = |pred: &dyn Fn(&EventKind) -> bool| {
        events.iter().any(|e| e.trace == id && pred(&e.kind))
    };
    assert!(
        with_id(&|k| matches!(k, EventKind::RoundStart { .. })),
        "rounds driven by the run carry its trace id"
    );
    assert!(
        with_id(&|k| matches!(k, EventKind::Invoke { .. })),
        "invocations triggered by the run carry its trace id"
    );
    assert!(
        with_id(&|k| matches!(
            k,
            EventKind::RequestServed { kind: ReqKind::Run, ok: true, .. }
        )),
        "the serve event closes the same trace"
    );
    // Other requests (hello, open) have their own, different ids.
    let open_recv = events
        .iter()
        .find(|e| matches!(e.kind, EventKind::RequestRecv { kind: ReqKind::Open, .. }))
        .expect("the open request was journaled");
    assert_ne!(open_recv.trace, id);
    assert_ne!(open_recv.trace, 0);
}

#[test]
fn metrics_listener_serves_valid_prometheus_text() {
    let cfg = ServerConfig {
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    };
    let mut handle = Server::spawn("127.0.0.1:0", cfg).expect("bind ephemeral port");
    let scrape_addr = handle
        .metrics_addr()
        .expect("metrics listener bound")
        .to_string();
    let mut c = Client::connect(&handle.addr().to_string()).unwrap();
    open_and_run(&mut c, "s1");

    // A hand-rolled HTTP GET, like any scraper.
    use std::io::{Read, Write as _};
    let mut s = std::net::TcpStream::connect(&scrape_addr).unwrap();
    s.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut response = String::new();
    s.read_to_string(&mut response).unwrap();
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("HTTP response has a header/body split");
    assert!(head.starts_with("HTTP/1.0 200 OK"), "head: {head}");
    assert!(
        head.contains("Content-Type: text/plain"),
        "exposition content type missing: {head}"
    );
    let samples =
        axml_server::metrics::validate_prometheus_text(body).expect("valid exposition format");
    assert!(samples > 30, "expected a full metrics page, got {samples} samples");
    assert!(body.contains("axml_requests_served_total"));
    assert!(body.contains("axml_sessions 1"));
    assert!(body.contains("axml_journal_events"));

    handle.shutdown();
    drop(c);
    handle.join();
}

/// `axml-load --tenants N` drives N concurrent single-session tenants
/// and reports aggregate + worst-tenant latency; tenants close their
/// sessions, so the session count returns to zero afterwards.
#[test]
fn load_tenants_phase_reports_per_tenant_latency() {
    use axml_server::load::{run, LoadConfig};
    let mut handle =
        Server::spawn("127.0.0.1:0", ServerConfig::default()).expect("bind ephemeral port");
    let load = LoadConfig {
        addr: handle.addr().to_string(),
        conns: 1,
        requests: 8,
        entries: 16,
        tenants: 3,
        ..LoadConfig::default()
    };
    let report = run(&load).expect("load run succeeds");
    assert_eq!(report.errors, 0, "no error frames");
    assert_eq!(report.tenant_runs, 3, "one fixpoint per tenant");
    assert_eq!(report.tenant_requests, 3 * 8);
    assert_eq!(report.tenant_latency.count(), 3 * 8);
    assert!(report.tenant_worst_p99 >= report.tenant_latency.quantile(0.5));
    let json = report.to_json(&load);
    assert!(json.contains("\"tenants\":3"), "{json}");
    assert!(json.contains("\"tenant_requests\":24"), "{json}");
    let line = report.render(&load);
    assert!(line.contains("tenants 3"), "{line}");
    assert!(line.contains("tn-worst-p99"), "{line}");

    // Every tenant closed its session.
    let mut c = Client::connect(&handle.addr().to_string()).unwrap();
    let resp = c.call(&Request::Stats { id: 1 }).unwrap();
    let Response::StatsOk { sessions, .. } = resp else {
        panic!("expected stats_ok")
    };
    assert_eq!(sessions, 0);

    handle.shutdown();
    drop(c);
    handle.join();
}

/// The MVCC acceptance path: while a `subscribe` drives a long fixpoint
/// (holding the session's writer lock for the whole run), `query` and
/// `stats` frames from another connection are answered from the latest
/// committed snapshot — without waiting for the fixpoint to finish.
/// The server journal proves the interleaving: the reader's serve
/// events land strictly between the subscription's first `RoundStart`
/// and last `RoundEnd`.
#[test]
fn queries_answered_while_subscription_fixpoint_is_mid_round() {
    use axml_server::load::tc_doc;

    let cfg = ServerConfig {
        trace_engine: true,
        ..ServerConfig::default()
    };
    let mut handle = Server::spawn("127.0.0.1:0", cfg).expect("bind ephemeral port");
    let addr = handle.addr().to_string();

    // A long chain: the closure needs ~32 rounds, so the fixpoint is
    // still running for a long time after its first delta arrives.
    let (edges, rule) = tc_doc(32);
    let mut sub = Client::connect(&addr).unwrap();
    let resp = sub
        .call(&Request::Open {
            id: 1,
            session: "rw".to_string(),
            docs: vec![("edges".to_string(), edges)],
            services: vec![("tc".to_string(), rule)],
        })
        .unwrap();
    assert!(matches!(resp, Response::OpenOk { .. }));

    // Reader pre-connects (hello done) so its query goes out instantly.
    let mut reader = Client::connect(&addr).unwrap();

    sub.send(&Request::Subscribe {
        id: 7,
        session: "rw".to_string(),
        query: "hit{$y} :- edges/r{t{from{\"0\"},to{$y}}}".to_string(),
    })
    .unwrap();
    assert!(matches!(sub.recv().unwrap(), Response::SubOk { id: 7, .. }));

    // Wait for the second delta: the first is the round-0 poll pushed
    // before any round runs, the second is only sent after round 1
    // committed — so the fixpoint drive is now provably mid-flight.
    for _ in 0..2 {
        let frame = sub.recv().unwrap();
        assert!(matches!(frame, Response::Delta { .. }), "{frame:?}");
    }

    // Read while the writer commits: both frames must be answered now,
    // not after sub_done.
    let resp = reader
        .call(&Request::Query {
            id: 40,
            session: "rw".to_string(),
            query: "hit{$y} :- edges/r{t{from{\"0\"},to{$y}}}".to_string(),
        })
        .unwrap();
    assert!(matches!(resp, Response::Answers { .. }), "{resp:?}");
    let resp = reader.call(&Request::Stats { id: 41 }).unwrap();
    assert!(matches!(resp, Response::StatsOk { .. }), "{resp:?}");

    // Drain the subscription to its terminal frame.
    let mut deltas = 2u64;
    loop {
        match sub.recv().unwrap() {
            Response::Delta { .. } => deltas += 1,
            Response::SubDone { status, .. } => {
                assert_eq!(status, "terminated");
                break;
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert!(deltas >= 2, "expected a real stream, got {deltas} delta(s)");

    handle.shutdown();
    drop(sub);
    drop(reader);
    handle.join();

    // Server-side proof of interleaving, from the journal's total
    // order: the reader's serves land inside the fixpoint drive.
    let events = handle.sink().events();
    let seq_of = |pred: &dyn Fn(&EventKind) -> bool| -> Vec<u64> {
        events
            .iter()
            .filter(|e| pred(&e.kind))
            .map(|e| e.seq)
            .collect()
    };
    let rounds_start = seq_of(&|k| matches!(k, EventKind::RoundStart { .. }));
    let rounds_end = seq_of(&|k| matches!(k, EventKind::RoundEnd { .. }));
    let first_round = *rounds_start.iter().min().expect("fixpoint journaled rounds");
    let last_round = *rounds_end.iter().max().unwrap();
    for kind in [ReqKind::Query, ReqKind::Stats] {
        let served = seq_of(&|k| {
            matches!(k, EventKind::RequestServed { kind: k2, ok: true, .. } if *k2 == kind)
        });
        let seq = *served.iter().max().unwrap_or_else(|| {
            panic!("{kind:?} serve event missing from the journal")
        });
        assert!(
            first_round < seq && seq < last_round,
            "{kind:?} served at seq {seq}, outside the fixpoint window \
             [{first_round}, {last_round}] — reads waited for the writer"
        );
    }
}
