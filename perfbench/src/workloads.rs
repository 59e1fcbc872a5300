//! The untraced workloads: what a user of the system sees. Server
//! workloads drive a child `axml-server` with closed-loop connections;
//! `p2p_sharded` drives the sharded network in this process.

use crate::client::{cross_check, Conn, ServerCounters, ServerProc};
use crate::gen::{self, Digraph, Rng, Tenants};
use axml_core::{parse_query, snapshot, CanonKey, Env, Sym};
use axml_p2p::ShardedNetwork;
use std::collections::BTreeSet;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// Lookups after each `open` before timing starts (the first one
/// builds the lazy index).
const WARMUP_READS: usize = 32;
/// Passes over every closure node (every inbox position) read after
/// each fixpoint: the same mix of reads whatever the seed, and bursts
/// long enough to time as one throughput window.
const READ_PASSES: usize = 3;
/// Round budget of one sharded run (the X21 budget).
pub const P2P_MAX_ROUNDS: usize = 400;

pub const KV_ENTRIES: usize = 1024;
pub const RWC_ENTRIES: usize = 64;
pub const TC_N: usize = 64;
pub const RWC_TC_N: usize = 48;
/// The closure structures: of the first 40 random structures, these
/// have the median closure size (239 pairs at n = 64, 136 at n = 48).
pub const TC_STRUCTURE: u64 = 8;
pub const RWC_STRUCTURE: u64 = 36;

/// Raw samples and counts of one run.
#[derive(Default)]
pub struct Measured {
    pub setup_s: Vec<f64>,
    pub peak_rss_mb: f64,
    pub reads_us: Vec<f64>,
    /// Read throughput of each read window (see [`Window`]).
    pub read_rates: Vec<f64>,
    pub fixpoint_ms: Vec<f64>,
    pub first_delta_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub server: Option<ServerCounters>,
}

impl Measured {
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(msg);
        }
    }

    fn absorb(&mut self, other: Measured) {
        self.reads_us.extend(other.reads_us);
        self.read_rates.extend(other.read_rates);
        self.fixpoint_ms.extend(other.fixpoint_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 5 {
                self.failures.push(f);
            }
        }
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Read throughput is sampled per window: reads completed over the
/// window's wall time, a window being a quarter second of a read loop
/// or one burst of reads after a fixpoint. `reads_per_s` is the median
/// window, so a stall of the shared machine moves it no more than it
/// moves the median latency.
struct Window {
    start: Instant,
    reads: usize,
}

impl Window {
    const SPAN: Duration = Duration::from_millis(250);

    fn new() -> Window {
        Window {
            start: Instant::now(),
            reads: 0,
        }
    }

    /// Count a completed read; close the window once it spans
    /// [`Window::SPAN`].
    fn read(&mut self, m: &mut Measured) {
        self.reads += 1;
        if self.start.elapsed() >= Window::SPAN {
            self.close(m);
        }
    }

    fn close(&mut self, m: &mut Measured) {
        if self.reads > 0 {
            m.read_rates
                .push(self.reads as f64 / self.start.elapsed().as_secs_f64());
        }
        *self = Window::new();
    }
}

fn setup_failed(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("set-up failed: {msg}"))
}

/// One timed lookup of key `k`, checked against the oracle.
fn lookup(c: &mut Conn, session: &str, k: usize, m: &mut Measured) -> io::Result<()> {
    let t = Instant::now();
    let r = c.query(session, gen::kv_query(k))?;
    let el = t.elapsed();
    m.attempted += 1;
    match r {
        Ok(trees) if trees == [gen::kv_answer(k)] => m.reads_us.push(us(el)),
        Ok(trees) => m.fail(format!("lookup k{k} answered {trees:?}")),
        Err(e) => m.fail(format!("lookup k{k}: {e}")),
    }
    Ok(())
}

/// Open a kv session by subscribing to one seeded key, check the
/// subscription, record its times and warm the session up.
fn open_kv(c: &mut Conn, entries: usize, rng: &mut Rng, m: &mut Measured) -> io::Result<()> {
    let k = rng.below(entries);
    let docs = vec![("db".to_string(), gen::kv_doc(entries))];
    let job = c.open_subscribe("kv", docs, vec![], gen::kv_query(k))?;
    if job.status != "terminated" || job.answers != BTreeSet::from([gen::kv_answer(k)]) {
        return Err(setup_failed(format!(
            "kv subscription {} {:?}",
            job.status, job.answers
        )));
    }
    m.fixpoint_ms.push(ms(job.done));
    m.first_delta_ms
        .push(ms(job.first_delta.expect("a delta arrived")));
    let mut warm = Measured::default();
    for _ in 0..WARMUP_READS {
        lookup(c, "kv", rng.below(entries), &mut warm)?;
    }
    if warm.failed > 0 {
        return Err(setup_failed(warm.failures.join("; ")));
    }
    Ok(())
}

/// Scrape the server, check its counts against the clients', add them
/// to the run's, record its peak memory and shut it down.
fn finish(srv: ServerProc, conns: Vec<Conn>, m: &mut Measured) -> io::Result<()> {
    let mut control = Conn::connect(&srv.addr)?;
    let refs: Vec<&Conn> = conns.iter().collect();
    let (counters, verdict) = cross_check(&mut control, &refs)?;
    if let Err(e) = verdict {
        m.fail(format!("server cross-check: {e}"));
    }
    let total = m.server.get_or_insert_with(ServerCounters::default);
    total.served += counters.served;
    total.errors += counters.errors;
    total.batches_formed += counters.batches_formed;
    total.journal_dropped += counters.journal_dropped;
    m.peak_rss_mb = m.peak_rss_mb.max(srv.peak_rss_mb()?);
    srv.stop(control, conns)
}

/// `kv_lookup`: one connection, batch-1 lookups of uniformly seeded
/// keys against one 1 024-entry session.
pub fn kv_lookup(bin: &Path, seed: u64, seconds: f64, segments: usize) -> io::Result<Measured> {
    let mut rng = Rng::new(seed);
    let mut m = Measured::default();
    for _ in 0..segments {
        let t0 = Instant::now();
        let srv = ServerProc::spawn(bin)?;
        let mut c = Conn::connect(&srv.addr)?;
        open_kv(&mut c, KV_ENTRIES, &mut rng, &mut m)?;
        m.setup_s.push(t0.elapsed().as_secs_f64());
        let deadline = Instant::now() + Duration::from_secs_f64(seconds / segments as f64);
        let mut w = Window::new();
        while Instant::now() < deadline {
            lookup(&mut c, "kv", rng.below(KV_ENTRIES), &mut m)?;
            w.read(&mut m);
        }
        finish(srv, vec![c], &mut m)?;
    }
    Ok(m)
}

/// One closure job over the server: `open` + `subscribe` from node 0,
/// checked against BFS, then reads of the closure from the next
/// structural nodes in turn, then `close`.
fn tc_job(
    c: &mut Conn,
    session: &str,
    g: &Digraph,
    next: &mut usize,
    m: &mut Measured,
) -> io::Result<()> {
    let (docs, services) = g.session();
    let job = c.open_subscribe(session, docs, services, gen::tc_query(0))?;
    m.attempted += 1;
    match job.first_delta {
        Some(first) if job.status == "terminated" && job.answers == g.expected(0) => {
            m.fixpoint_ms.push(ms(job.done));
            m.first_delta_ms.push(ms(first));
        }
        _ => m.fail(format!(
            "{session}: status {}, {} answers, BFS gives {}",
            job.status,
            job.answers.len(),
            g.expected(0).len()
        )),
    }
    let mut w = Window::new();
    for _ in 0..READ_PASSES * g.n {
        let src = g.label(*next);
        *next += 1;
        let t = Instant::now();
        let r = c.query(session, gen::tc_query(src))?;
        let el = t.elapsed();
        m.attempted += 1;
        match r {
            Ok(trees)
                if trees.iter().cloned().collect::<BTreeSet<_>>() == g.expected(src)
                    && trees.len() == g.expected(src).len() =>
            {
                m.reads_us.push(us(el))
            }
            Ok(trees) => m.fail(format!(
                "{session}: read from {src} gave {} answers",
                trees.len()
            )),
            Err(e) => m.fail(format!("{session}: read from {src}: {e}")),
        }
        w.reads += 1;
    }
    w.close(m);
    c.close(session)
}

/// `tc_subscribe`: one connection looping `open`, `subscribe` to the
/// fixpoint, closure reads, `close` over a seeded random digraph.
pub fn tc_subscribe(bin: &Path, seed: u64, seconds: f64, segments: usize) -> io::Result<Measured> {
    let g = Digraph::renamed(TC_N, TC_STRUCTURE, &mut Rng::new(seed));
    let mut next = 0;
    let mut m = Measured::default();
    let mut j = 0;
    for _ in 0..segments {
        let t0 = Instant::now();
        let srv = ServerProc::spawn(bin)?;
        let mut c = Conn::connect(&srv.addr)?;
        let mut warm = Measured::default();
        tc_job(&mut c, "warm-up", &g, &mut next, &mut warm)?;
        if warm.failed > 0 {
            return Err(setup_failed(warm.failures.join("; ")));
        }
        m.setup_s.push(t0.elapsed().as_secs_f64());
        let deadline = Instant::now() + Duration::from_secs_f64(seconds / segments as f64);
        while Instant::now() < deadline {
            tc_job(&mut c, &format!("tc-{j}"), &g, &mut next, &mut m)?;
            j += 1;
        }
        finish(srv, vec![c], &mut m)?;
    }
    Ok(m)
}

/// One writer job: `open` a fresh closure session, `run` it to its
/// fixpoint (`run_ok` must say `terminated`), `close` it.
fn writer_job(c: &mut Conn, session: &str, g: &Digraph, m: &mut Measured) -> io::Result<()> {
    let (docs, services) = g.session();
    let t = Instant::now();
    c.open(session, docs, services)?;
    let r = c.call(axml_server::Request::Run {
        id: 0,
        session: session.to_string(),
        mode: None,
        max_invocations: None,
    })?;
    let el = t.elapsed();
    m.attempted += 1;
    match r {
        axml_server::Response::RunOk { status, .. } if status == "terminated" => {
            m.fixpoint_ms.push(ms(el))
        }
        other => m.fail(format!("{session}: run answered {}", other.to_json())),
    }
    c.close(session)
}

/// `read_while_commit`: a reader looping lookups on a long-lived
/// 64-entry session while a writer loops `open` → `run` → `close` on
/// fresh n = 48 closure sessions of one seeded digraph, on two
/// connections at once.
pub fn read_while_commit(
    bin: &Path,
    seed: u64,
    seconds: f64,
    segments: usize,
) -> io::Result<Measured> {
    let mut rng = Rng::new(seed);
    let g = Digraph::renamed(RWC_TC_N, RWC_STRUCTURE, &mut rng);
    let mut m = Measured::default();
    let mut j = 0;
    for _ in 0..segments {
        let t0 = Instant::now();
        let srv = ServerProc::spawn(bin)?;
        let mut reader = Conn::connect(&srv.addr)?;
        // The reader's set-up subscription gives `first_delta_p50_ms`;
        // `fixpoint_p50_ms` is the writer's.
        let mut opened = Measured::default();
        open_kv(&mut reader, RWC_ENTRIES, &mut rng, &mut opened)?;
        m.first_delta_ms.extend(opened.first_delta_ms);
        let mut writer = Conn::connect(&srv.addr)?;
        let mut warm = Measured::default();
        writer_job(&mut writer, "warm-up", &g, &mut warm)?;
        if warm.failed > 0 {
            return Err(setup_failed(warm.failures.join("; ")));
        }
        m.setup_s.push(t0.elapsed().as_secs_f64());
        let deadline = Instant::now() + Duration::from_secs_f64(seconds / segments as f64);
        let mut reader_rng = Rng::new(rng.next_u64());
        let (r, w) = std::thread::scope(|s| {
            let r = s.spawn(|| -> io::Result<Measured> {
                let mut m = Measured::default();
                let mut w = Window::new();
                while Instant::now() < deadline {
                    lookup(&mut reader, "kv", reader_rng.below(RWC_ENTRIES), &mut m)?;
                    w.read(&mut m);
                }
                Ok(m)
            });
            let w = s.spawn(|| -> io::Result<Measured> {
                let mut m = Measured::default();
                while Instant::now() < deadline {
                    writer_job(&mut writer, &format!("w-{j}"), &g, &mut m)?;
                    j += 1;
                }
                Ok(m)
            });
            (
                r.join().expect("reader thread"),
                w.join().expect("writer thread"),
            )
        });
        m.absorb(r?);
        m.absorb(w?);
        finish(srv, vec![reader, writer], &mut m)?;
    }
    Ok(m)
}

/// Tenant state keys, the placement-independent fixpoint.
pub fn state_keys(net: &ShardedNetwork) -> Vec<(Sym, Vec<(Sym, CanonKey)>)> {
    let mut keys: Vec<_> = net
        .tenant_names()
        .into_iter()
        .map(|t| (t, net.tenant_state_key(t)))
        .collect();
    keys.sort();
    keys
}

/// Times of one sharded run to quiescence, driven round by round
/// exactly as `ShardedNetwork::run` drives it, so the first round that
/// delivers a response to a subscriber can be timed too.
pub struct P2pRun {
    pub first_delivery: Option<Duration>,
    pub done: Duration,
    pub quiet: bool,
}

pub fn drive(
    net: &mut ShardedNetwork,
    mut round: impl FnMut(&mut ShardedNetwork) -> bool,
) -> P2pRun {
    let t0 = Instant::now();
    let mut run = P2pRun {
        first_delivery: None,
        done: Duration::ZERO,
        quiet: false,
    };
    for _ in 0..P2P_MAX_ROUNDS {
        let changed = round(net);
        if run.first_delivery.is_none()
            && net.stats.local_deliveries + net.stats.remote_deliveries > 0
        {
            run.first_delivery = Some(t0.elapsed());
        }
        if !changed && net.no_pending_work() {
            run.quiet = true;
            break;
        }
    }
    run.done = t0.elapsed();
    run
}

fn step(net: &mut ShardedNetwork) -> bool {
    net.step_round()
        .expect("a sharded round of positive services cannot fail")
}

/// One in-process read of a consumer inbox; `Ok(answers)`.
fn inbox_read(net: &ShardedNetwork, k: usize, query: &str) -> Result<Vec<String>, String> {
    let tenant = net
        .tenant(&format!("cons-{k}"))
        .ok_or("no consumer tenant")?;
    let inbox = tenant.doc("inbox").ok_or("no inbox")?;
    let q = parse_query(query).map_err(|e| e.to_string())?;
    let mut env = Env::new();
    env.insert(Sym::intern("inbox"), inbox);
    let forest = snapshot(&q, &env).map_err(|e| e.to_string())?;
    Ok(forest.trees().iter().map(|t| t.to_string()).collect())
}

/// `p2p_sharded`: the sharded tenant network run to quiescence again
/// and again, each run checked against a 1-peer run of the same network.
pub fn p2p_sharded(seed: u64, seconds: f64, reps: usize) -> io::Result<Measured> {
    let tenants = Tenants::random(&mut Rng::new(seed));
    let mut oracle = tenants.network(1);
    if !drive(&mut oracle, step).quiet {
        return Err(setup_failed("the 1-peer network did not quiesce".into()));
    }
    let expected = state_keys(&oracle);
    drop(oracle);
    let mut m = Measured::default();
    for _ in 0..reps {
        let t0 = Instant::now();
        let mut net = tenants.network(gen::P2P_PEERS);
        let run = drive(&mut net, step);
        if !run.quiet || state_keys(&net) != expected {
            return Err(setup_failed(
                "warm-up run differs from the 1-peer run".into(),
            ));
        }
        m.setup_s.push(t0.elapsed().as_secs_f64());
    }
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        let mut net = tenants.network(gen::P2P_PEERS);
        let run = drive(&mut net, step);
        m.attempted += 1;
        match run.first_delivery {
            Some(first) if run.quiet && state_keys(&net) == expected => {
                m.fixpoint_ms.push(ms(run.done));
                m.first_delta_ms.push(ms(first));
            }
            _ => m.fail(format!(
                "sharded run (quiet: {}) differs from the 1-peer run",
                run.quiet
            )),
        }
        let mut w = Window::new();
        for i in 0..READ_PASSES * gen::P2P_PAIRS * gen::P2P_CHAIN {
            let (k, a) = (i % gen::P2P_PAIRS, i / gen::P2P_PAIRS % gen::P2P_CHAIN);
            let (q, want) = tenants.read(k, a);
            let t = Instant::now();
            let r = inbox_read(&net, k, &q);
            let el = t.elapsed();
            m.attempted += 1;
            match r {
                Ok(trees)
                    if trees.len() == want.len()
                        && trees.iter().cloned().collect::<BTreeSet<_>>() == want =>
                {
                    m.reads_us.push(us(el))
                }
                Ok(trees) => m.fail(format!("inbox cons-{k} from {a}: {} answers", trees.len())),
                Err(e) => m.fail(format!("inbox cons-{k}: {e}")),
            }
            w.reads += 1;
        }
        w.close(&mut m);
    }
    m.peak_rss_mb = crate::client::vmhwm_mb("self")?;
    Ok(m)
}
