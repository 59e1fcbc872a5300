//! The traced replay: each workload's operations repeated in this
//! process, with a span around every call into a layer's public
//! function. Spans live only in the benchmark; nothing inside the
//! program is instrumented.
//!
//! Server operations are replayed the way `axml-server` serves them:
//! `Request::parse` of the request line, the same core calls in the
//! same order, `Response::to_json` of each reply.

use crate::gen::{self, Digraph, Rng, Tenants};
use crate::workloads::{self, P2pRun, KV_ENTRIES, RWC_ENTRIES, RWC_TC_N, TC_N};
use axml_core::engine::{EngineConfig, EngineMode, Parallelism, RunStats, RunStatus, Strategy};
use axml_core::{
    parse_document, parse_query, reduce, snapshot, Env, MatchStrategy, QueryCursor, RoundRunner,
    Sym, System, Tracer, Tree,
};
use axml_p2p::ShardedNetwork;
use axml_server::{Request, Response};
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::time::Instant;

/// The server's engine configuration, spelled out: delta mode, indexed
/// and compiled matching, sequential rounds, default budgets.
pub fn server_engine() -> EngineConfig {
    EngineConfig {
        max_invocations: 100_000,
        max_nodes: 1_000_000,
        strategy: Strategy::RoundRobin,
        mode: EngineMode::Delta,
        match_strategy: MatchStrategy::Indexed,
        parallelism: Parallelism::Sequential,
        compile: true,
    }
}

/// The status string of `run_ok` and `sub_done`, as the server writes it.
fn status_str(status: RunStatus) -> &'static str {
    match status {
        RunStatus::Terminated => "terminated",
        RunStatus::InvocationBudget => "invocation-budget",
        RunStatus::NodeBudget => "node-budget",
    }
}

/// One recorded span: a layer call, or the operation that caused it.
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans kept in memory; `on` is switched off to time the same calls
/// without recording, which gives the tracing overhead.
pub struct Spans {
    pub on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    next_op: u64,
}

const NO_SPAN: usize = usize::MAX;

impl Spans {
    fn new() -> Spans {
        Spans {
            on: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            next_op: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open the root span of one operation.
    fn op(&mut self, name: &'static str) -> usize {
        if !self.on {
            return NO_SPAN;
        }
        self.next_op += 1;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            op: self.next_op,
            parent: None,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, op: usize) {
        if op != NO_SPAN {
            self.spans[op].end_ns = self.now();
        }
    }

    /// Run `f` inside a span named after the layer it calls.
    fn time<T>(&mut self, parent: usize, name: &'static str, f: impl FnOnce() -> T) -> T {
        if parent == NO_SPAN {
            return f();
        }
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            op: self.spans[parent].op,
            parent: Some(parent),
            start_ns,
            end_ns,
        });
        out
    }

    /// Self time (duration minus the children's) of every span, in ns,
    /// grouped by span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            out.entry(s.name)
                .or_default()
                .push((s.end_ns - s.start_ns).saturating_sub(c) as f64);
        }
        out
    }

    /// Mean time per `root` operation spent in its child layer spans.
    pub fn layer_ns_per_op(&self, root: &str) -> f64 {
        let ops = self.spans.iter().filter(|s| s.name == root).count();
        let layers: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].name == root))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        if ops == 0 {
            0.0
        } else {
            layers as f64 / ops as f64
        }
    }

    /// One JSON object per span.
    pub fn write_jsonl(&self, w: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                w,
                r#"{{"name":"{}","op":{},"parent":{parent},"start_ns":{},"end_ns":{}}}"#,
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// What one workload's replay recorded.
pub struct Replay {
    pub spans: Spans,
    /// Exact counts and ratios, by per-layer metric name.
    pub counts: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    read_bytes: u64,
    reads: u64,
    next_id: u64,
    /// Read-loop time with spans recorded and without.
    on_ns: u64,
    on_reads: u64,
    off_ns: u64,
    off_reads: u64,
}

impl Replay {
    fn new() -> Replay {
        Replay {
            spans: Spans::new(),
            counts: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            read_bytes: 0,
            reads: 0,
            next_id: 0,
            on_ns: 0,
            on_reads: 0,
            off_ns: 0,
            off_reads: 0,
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures.push(what());
            }
        }
    }

    fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Relative cost of recording spans on the read path.
    pub fn overhead_frac(&self) -> f64 {
        if self.on_reads == 0 || self.off_reads == 0 || self.off_ns == 0 {
            return 0.0;
        }
        let on = self.on_ns as f64 / self.on_reads as f64;
        let off = self.off_ns as f64 / self.off_reads as f64;
        on / off - 1.0
    }

    /// Mean in-process read time with spans off, in ns.
    pub fn untraced_read_ns(&self) -> f64 {
        if self.off_reads == 0 {
            0.0
        } else {
            self.off_ns as f64 / self.off_reads as f64
        }
    }

    fn record_engine(&mut self, s: &RunStats) {
        let frac = |a: usize, b: usize| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let c = &mut self.counts;
        c.insert("engine.rounds", s.rounds as f64);
        c.insert("engine.invocations", s.invocations as f64);
        c.insert("engine.skipped", s.skipped as f64);
        c.insert("engine.programs_compiled", s.programs_compiled as f64);
        c.insert("engine.final_nodes", s.final_nodes as f64);
        c.insert("engine.productive_frac", frac(s.productive, s.invocations));
        c.insert(
            "engine.match_cache_hit_frac",
            frac(s.cache_hits, s.cache_hits + s.cache_misses),
        );
        c.insert(
            "engine.program_cache_hit_frac",
            frac(
                s.program_cache_hits,
                s.program_cache_hits + s.program_cache_misses,
            ),
        );
    }

    /// Run reads `0..n` with spans recorded (`one` gets `true` for the
    /// first read after `open`), then time reads `0..n` twice more,
    /// each index once recorded and once not, in alternating blocks of
    /// 8: the difference is the cost of recording.
    fn read_loop(&mut self, n: usize, mut one: impl FnMut(&mut Replay, usize, bool)) {
        for i in 0..n {
            one(self, i, i == 0);
        }
        for flip in [false, true] {
            for i in 0..n {
                self.spans.on = ((i / 8) % 2 == 0) != flip;
                let t = Instant::now();
                one(self, i, false);
                let el = t.elapsed().as_nanos() as u64;
                if self.spans.on {
                    self.on_ns += el;
                    self.on_reads += 1;
                } else {
                    self.off_ns += el;
                    self.off_reads += 1;
                }
            }
        }
        self.spans.on = true;
    }

    /// `open`: decode, parse and add every document, install services.
    fn open(&mut self, session: &str, docs: gen::Named, services: gen::Named) -> System {
        let id = self.id();
        let line = Request::Open {
            id,
            session: session.to_string(),
            docs,
            services,
        }
        .to_json();
        let op = self.spans.op("op.open");
        let req = self
            .spans
            .time(op, "protocol.decode", || Request::parse(&line));
        let Ok(Request::Open { docs, services, .. }) = req else {
            panic!("the open frame decodes")
        };
        let mut sys = System::new();
        for (name, text) in &docs {
            let tree = self
                .spans
                .time(op, "parse.document", || parse_document(text))
                .expect("generated documents parse");
            let before = crate::client::vmhwm_mb("self").unwrap_or(0.0);
            self.spans
                .time(op, "reduce.add_document", || sys.add_document(name, tree))
                .expect("generated documents are valid");
            let grew = crate::client::vmhwm_mb("self").unwrap_or(0.0) - before;
            let peak = self
                .counts
                .entry("reduce.add_document_peak_mb")
                .or_insert(0.0);
            *peak = peak.max(grew);
        }
        for (name, rule) in &services {
            sys.add_service_text(name, rule)
                .expect("generated services parse");
        }
        let reply = Response::OpenOk {
            id,
            session: session.to_string(),
            docs: docs.len() as u64,
            services: services.len() as u64,
        };
        self.encode(op, &reply);
        self.spans.close(op);
        sys
    }

    fn encode(&mut self, op: usize, reply: &Response) -> usize {
        self.spans
            .time(op, "protocol.encode", || reply.to_json())
            .len()
            + 1
    }

    /// `subscribe`, served as the server serves it: poll before the
    /// first round and after every round that moved a document.
    fn subscribe(
        &mut self,
        sys: &mut System,
        session: &str,
        query: String,
    ) -> (RunStatus, BTreeSet<String>) {
        let id = self.id();
        let line = Request::Subscribe {
            id,
            session: session.to_string(),
            query,
        }
        .to_json();
        let op = self.spans.op("op.subscribe");
        let Ok(Request::Subscribe { query, .. }) = self
            .spans
            .time(op, "protocol.decode", || Request::parse(&line))
        else {
            panic!("the subscribe frame decodes")
        };
        let q = self
            .spans
            .time(op, "query.parse", || parse_query(&query))
            .expect("generated queries parse");
        let session = session.to_string();
        self.encode(
            op,
            &Response::SubOk {
                id,
                session: session.clone(),
            },
        );
        let mut cursor = QueryCursor::new(q);
        let mut runner = RoundRunner::new(&server_engine());
        let mut cur = self.spans.time(op, "system.snapshot", || sys.snapshot());
        let mut answers = BTreeSet::new();
        let (mut must_poll, mut done, mut pushes) = (true, None, 0);
        let status = loop {
            let fresh = if must_poll {
                self.spans
                    .time(op, "eval.poll", || cursor.poll(cur.system()))
                    .expect("positive queries evaluate")
            } else {
                Vec::new()
            };
            if !fresh.is_empty() {
                let trees: Vec<String> = self.spans.time(op, "display.answer", || {
                    fresh.iter().map(Tree::to_string).collect()
                });
                answers.extend(trees.iter().cloned());
                let delta = Response::Delta {
                    id,
                    session: session.clone(),
                    round: runner.rounds() as u64,
                    version: cur.version(),
                    trees,
                };
                self.encode(op, &delta);
                pushes += 1;
            }
            if let Some(status) = done {
                break status;
            }
            let step = self
                .spans
                .time(op, "engine.step", || runner.step(sys, Tracer::disabled()))
                .expect("the closure systems run");
            if let Some(snap) = runner.snapshot() {
                cur = snap;
            }
            done = step;
            must_poll = done.is_some() || !runner.round_deltas().is_empty();
        };
        self.record_engine(&runner.stats(sys));
        let reply = Response::SubDone {
            id,
            session,
            status: status_str(status).to_string(),
            rounds: runner.rounds() as u64,
            pushes,
        };
        self.encode(op, &reply);
        self.spans.close(op);
        (status, answers)
    }

    /// `run`, served as the server serves it.
    fn run(&mut self, sys: &mut System, session: &str) -> RunStatus {
        let id = self.id();
        let line = Request::Run {
            id,
            session: session.to_string(),
            mode: None,
            max_invocations: None,
        }
        .to_json();
        let op = self.spans.op("op.run");
        let _ = self
            .spans
            .time(op, "protocol.decode", || Request::parse(&line));
        let mut runner = RoundRunner::new(&server_engine());
        let status = loop {
            let step = self
                .spans
                .time(op, "engine.step", || runner.step(sys, Tracer::disabled()))
                .expect("the closure systems run");
            let _published = runner.snapshot();
            if let Some(status) = step {
                break status;
            }
        };
        let stats = runner.stats(sys);
        self.record_engine(&stats);
        let reply = Response::RunOk {
            id,
            session: session.to_string(),
            status: status_str(status).to_string(),
            rounds: stats.rounds as u64,
            invocations: stats.invocations as u64,
            version: sys.version(),
        };
        self.encode(op, &reply);
        self.spans.close(op);
        status
    }

    /// `close` (decode and encode; dropping the system frees it).
    fn close(&mut self, sys: System, session: &str) {
        let id = self.id();
        let line = Request::Close {
            id,
            session: session.to_string(),
        }
        .to_json();
        let op = self.spans.op("op.close");
        let _ = self
            .spans
            .time(op, "protocol.decode", || Request::parse(&line));
        drop(sys);
        self.encode(
            op,
            &Response::Closed {
                id,
                session: session.to_string(),
            },
        );
        self.spans.close(op);
    }

    /// One `query` frame, served as the server serves it, checked
    /// against `want`. `first` marks the first read after `open`, which
    /// builds the lazy index.
    fn read(
        &mut self,
        sys: &System,
        session: &str,
        query: String,
        want: &BTreeSet<String>,
        first: bool,
    ) {
        let id = self.id();
        let line = Request::Query {
            id,
            session: session.to_string(),
            query,
        }
        .to_json();
        let op = self.spans.op("op.read");
        let Ok(Request::Query { query, .. }) = self
            .spans
            .time(op, "protocol.decode", || Request::parse(&line))
        else {
            panic!("the query frame decodes")
        };
        let snap = self.spans.time(op, "system.snapshot", || sys.snapshot());
        let q = self
            .spans
            .time(op, "query.parse", || parse_query(&query))
            .expect("generated queries parse");
        let eval = if first {
            "eval.first_lookup"
        } else {
            "eval.lookup"
        };
        let env = Env::for_system(snap.system());
        let forest = self
            .spans
            .time(op, eval, || snapshot(&q, &env))
            .expect("positive queries evaluate");
        let trees: Vec<String> = self.spans.time(op, "display.answer", || {
            forest.trees().iter().map(Tree::to_string).collect()
        });
        let ok = trees.len() == want.len() && trees.iter().all(|t| want.contains(t));
        let reply = Response::Answers {
            id,
            session: session.to_string(),
            trees,
        };
        let out = self.encode(op, &reply);
        self.spans.close(op);
        self.reads += 1;
        self.read_bytes += (line.len() + 1 + out) as u64;
        self.check(ok, || format!("{session}: wrong answers to {query}"));
    }

    /// Probes at a fixpoint: one evaluation of the heaviest service (or
    /// query) and one reduce of the largest document.
    fn probe(&mut self, sys: &System, query: &axml_core::Query) {
        let op = self.spans.op("op.probe");
        let env = Env::for_system(sys);
        let _ = self
            .spans
            .time(op, "eval.fixpoint_match", || snapshot(query, &env));
        let largest = sys
            .doc_names()
            .iter()
            .filter_map(|&d| sys.doc(d))
            .max_by_key(|t| t.node_count())
            .expect("every system here has a document");
        let _ = self
            .spans
            .time(op, "reduce.fixpoint_doc", || reduce(largest));
        self.spans.close(op);
    }

    fn finish_reads(&mut self) {
        if self.reads > 0 {
            self.counts.insert(
                "protocol.bytes_per_op",
                self.read_bytes as f64 / self.reads as f64,
            );
        }
    }
}

/// Lookups replayed per kv session.
const KV_READS: usize = 800;
const RWC_READS_PER_JOB: usize = 200;
const REPLAY_JOBS: usize = 3;
const P2P_RUNS: usize = 2;

/// Open a kv session by subscribing to one key, as the workload does.
fn kv_session(r: &mut Replay, entries: usize, rng: &mut Rng) -> System {
    let docs = vec![("db".to_string(), gen::kv_doc(entries))];
    let mut sys = r.open("kv", docs, vec![]);
    let k = rng.below(entries);
    let (status, answers) = r.subscribe(&mut sys, "kv", gen::kv_query(k));
    r.check(
        status == RunStatus::Terminated && answers == BTreeSet::from([gen::kv_answer(k)]),
        || format!("kv subscription to k{k}: {answers:?}"),
    );
    r.probe(
        &sys,
        &parse_query(&gen::kv_query(k)).expect("lookup parses"),
    );
    sys
}

/// `n` lookups of seeded keys; `fresh` when they are the session's
/// first reads.
fn kv_reads(r: &mut Replay, sys: &System, entries: usize, n: usize, rng: &mut Rng, fresh: bool) {
    r.read_loop(n, |r, _, first| {
        let k = rng.below(entries);
        let want = BTreeSet::from([gen::kv_answer(k)]);
        r.read(sys, "kv", gen::kv_query(k), &want, first && fresh);
    });
}

pub fn kv_lookup(seed: u64) -> Replay {
    let mut r = Replay::new();
    let mut rng = Rng::new(seed);
    let sys = kv_session(&mut r, KV_ENTRIES, &mut rng);
    kv_reads(&mut r, &sys, KV_ENTRIES, KV_READS, &mut rng, true);
    r.finish_reads();
    r
}

fn closure_service(sys: &System) -> axml_core::Query {
    sys.service_query(Sym::intern("f"))
        .expect("closure sessions host f")
        .clone()
}

pub fn tc_subscribe(seed: u64) -> Replay {
    let mut r = Replay::new();
    let g = Digraph::renamed(TC_N, workloads::TC_STRUCTURE, &mut Rng::new(seed));
    for j in 0..REPLAY_JOBS {
        let (docs, services) = g.session();
        let session = format!("tc-{j}");
        let mut sys = r.open(&session, docs, services);
        let (status, answers) = r.subscribe(&mut sys, &session, gen::tc_query(0));
        r.check(
            status == RunStatus::Terminated && answers == g.expected(0),
            || format!("{session}: subscription gave {} answers", answers.len()),
        );
        r.probe(&sys, &closure_service(&sys));
        r.read_loop(g.n, |r, i, first| {
            let src = g.label(i);
            r.read(&sys, &session, gen::tc_query(src), &g.expected(src), first);
        });
        r.close(sys, &session);
    }
    r.finish_reads();
    r
}

pub fn read_while_commit(seed: u64) -> Replay {
    let mut r = Replay::new();
    let mut rng = Rng::new(seed);
    let kv = kv_session(&mut r, RWC_ENTRIES, &mut rng);
    let g = Digraph::renamed(RWC_TC_N, workloads::RWC_STRUCTURE, &mut rng);
    for j in 0..REPLAY_JOBS {
        let (docs, services) = g.session();
        let session = format!("w-{j}");
        let mut sys = r.open(&session, docs, services);
        let status = r.run(&mut sys, &session);
        r.check(status == RunStatus::Terminated, || {
            format!("{session}: {status:?}")
        });
        r.probe(&sys, &closure_service(&sys));
        r.close(sys, &session);
        kv_reads(
            &mut r,
            &kv,
            RWC_ENTRIES,
            RWC_READS_PER_JOB,
            &mut rng,
            j == 0,
        );
    }
    r.finish_reads();
    r
}

pub fn p2p_sharded(seed: u64) -> Replay {
    let mut r = Replay::new();
    let mut rng = Rng::new(seed);
    let tenants = Tenants::random(&mut rng);
    let join = parse_query(gen::P2P_JOIN).expect("join parses");
    let mut last: Option<ShardedNetwork> = None;
    for _ in 0..P2P_RUNS {
        let mut net = tenants.network(gen::P2P_PEERS);
        let op = r.spans.op("op.p2p_run");
        let run: P2pRun = workloads::drive(&mut net, |net| {
            r.spans
                .time(op, "p2p.round", || net.step_round())
                .expect("a sharded round of positive services cannot fail")
        });
        r.spans.close(op);
        r.check(run.quiet, || "the sharded run did not quiesce".into());
        let s = &net.stats;
        r.counts.insert("p2p.rounds", s.rounds as f64);
        r.counts.insert("p2p.evaluations", s.evaluations as f64);
        r.counts
            .insert("p2p.remote_deliveries", s.remote_deliveries as f64);
        r.counts
            .insert("p2p.wire_push_bytes", s.wire_push_bytes as f64);
        let producer = net.tenant("prod-0").expect("producer tenant");
        let acc = producer.doc("acc").expect("producer document");
        let mut env = Env::new();
        env.insert(Sym::intern("acc"), acc);
        let op = r.spans.op("op.probe");
        let _ = r
            .spans
            .time(op, "eval.fixpoint_match", || snapshot(&join, &env));
        let _ = r.spans.time(op, "reduce.fixpoint_doc", || reduce(acc));
        r.spans.close(op);
        last = Some(net);
    }
    let net = last.expect("at least one run");
    r.read_loop(gen::P2P_PAIRS * gen::P2P_CHAIN, |r, i, first| {
        let (k, a) = (i % gen::P2P_PAIRS, i / gen::P2P_PAIRS % gen::P2P_CHAIN);
        let (query, want) = tenants.read(k, a);
        let op = r.spans.op("op.read");
        let tenant = net.tenant(&format!("cons-{k}")).expect("consumer tenant");
        let inbox = tenant.doc("inbox").expect("consumer inbox");
        let q = r
            .spans
            .time(op, "query.parse", || parse_query(&query))
            .expect("read parses");
        let mut env = Env::new();
        env.insert(Sym::intern("inbox"), inbox);
        let eval = if first {
            "eval.first_lookup"
        } else {
            "eval.lookup"
        };
        let forest = r
            .spans
            .time(op, eval, || snapshot(&q, &env))
            .expect("reads evaluate");
        let trees: Vec<String> = r.spans.time(op, "display.answer", || {
            forest.trees().iter().map(Tree::to_string).collect()
        });
        r.spans.close(op);
        let ok = trees.len() == want.len() && trees.iter().all(|t| want.contains(t));
        r.check(ok, || format!("inbox cons-{k} from {a}"));
    });
    r
}
