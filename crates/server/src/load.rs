//! `axml-load` — a closed-loop load generator for `axml-server`.
//!
//! Each connection is one closed loop: it opens its own session with a
//! synthetic key/value document (plus a transitive-closure service when
//! subscriptions are exercised), runs it to fixpoint, then issues
//! `requests` query requests in frames of `batch` queries, waiting for
//! each answer before sending the next frame. Request latency is the
//! client-observed frame round trip, recorded in a log-scale
//! [`Histogram`]; the X19 experiment reports its p50/p99 at several
//! batch sizes next to the server-side `server:` report line.
//!
//! `--readers N` appends a mixed read/write phase: one writer
//! connection drives back-to-back `run` fixpoints on a shared session
//! while `N` closed-loop readers alternate `query` and `stats` frames
//! against it, measuring reader p50/p99 under an actively-committing
//! writer (the MVCC read-while-commit path; see `docs/mvcc.md`).
//!
//! `--tenants N` appends a multi-tenant phase: `N` concurrent
//! connections, each owning its own small session (the colocated
//! "thousands of small systems" shape of `docs/sharding.md`), each
//! driving its own fixpoint and then a closed query loop. Per-tenant
//! latency lands in its own histogram; the report shows the aggregate
//! p50/p99 plus the *worst tenant's* p99 — the isolation number a
//! placement layer is judged by (`tn-*` columns, `tenant_*` JSON
//! fields).

use crate::protocol::{ProtoError, Request, Response, PROTOCOL_VERSION};
use axml_core::trace::Histogram;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// What one `axml-load` run does. See `docs/server.md` for the CLI
/// flags these map onto.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Server address, e.g. `127.0.0.1:7421`.
    pub addr: String,
    /// Concurrent connections, each with its own session.
    pub conns: usize,
    /// Query requests issued per connection.
    pub requests: usize,
    /// Queries per wire frame: 1 sends plain `query` frames, larger
    /// values send explicit `batch` frames of that size.
    pub batch: usize,
    /// `pair{k,v}` entries in each session's synthetic document.
    pub entries: usize,
    /// Also run one streaming subscription per connection (a
    /// transitive-closure fixpoint) before the query loop.
    pub subscribe: bool,
    /// Mixed read/write workload: after the main loop, race this many
    /// closed-loop reader connections (alternating `query` and `stats`
    /// frames) against one writer connection driving back-to-back
    /// `run` fixpoints on a shared session. Reader latency lands in
    /// its own histogram (`rd-p50`/`rd-p99` columns, `reader_*` JSON
    /// fields) — on an MVCC server the readers never wait for the
    /// writer's rounds. 0 disables the phase.
    pub readers: usize,
    /// Multi-tenant workload: after the main loop, run this many
    /// concurrent single-session tenants, each opening its own small
    /// system, driving its fixpoint, then issuing `requests` queries
    /// closed-loop. Aggregate and worst-tenant latency land in the
    /// `tn-*` columns / `tenant_*` JSON fields. 0 disables the phase.
    pub tenants: usize,
    /// Send a `shutdown` frame after the load (on a final extra
    /// connection), stopping the server.
    pub shutdown: bool,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            addr: "127.0.0.1:7421".to_string(),
            conns: 1,
            requests: 64,
            batch: 1,
            entries: 64,
            subscribe: false,
            readers: 0,
            tenants: 0,
            shutdown: false,
        }
    }
}

/// Aggregated results of one [`run`].
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    /// Query requests issued (batch members counted individually).
    pub requests: usize,
    /// Answer trees received across all answers.
    pub answer_trees: usize,
    /// Error frames received.
    pub errors: usize,
    /// `delta` frames received by subscriptions.
    pub deltas: usize,
    /// Trees pushed inside those deltas.
    pub pushed_trees: usize,
    /// Client-observed frame round-trip latency, nanoseconds.
    pub latency: Histogram,
    /// Wall-clock time of the whole load (connect to close).
    pub elapsed: Duration,
    /// Mixed-workload phase: reader frames answered (`--readers`).
    pub reader_requests: usize,
    /// Mixed-workload phase: reader round-trip latency, nanoseconds.
    pub reader_latency: Histogram,
    /// Mixed-workload phase: wall-clock time of the race.
    pub reader_elapsed: Duration,
    /// Mixed-workload phase: writer fixpoints committed during the race.
    pub writer_runs: usize,
    /// Multi-tenant phase: query frames answered across all tenants.
    pub tenant_requests: usize,
    /// Multi-tenant phase: aggregate round-trip latency, nanoseconds.
    pub tenant_latency: Histogram,
    /// Multi-tenant phase: the worst single tenant's p99, nanoseconds
    /// — the per-tenant isolation number.
    pub tenant_worst_p99: u64,
    /// Multi-tenant phase: wall-clock time (all tenants concurrent).
    pub tenant_elapsed: Duration,
    /// Multi-tenant phase: fixpoints driven (one per tenant).
    pub tenant_runs: usize,
}

impl LoadReport {
    /// Requests per second over the whole run.
    pub fn throughput(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.requests as f64 / self.elapsed.as_secs_f64()
    }

    /// Reader requests per second over the mixed-workload phase.
    pub fn reader_throughput(&self) -> f64 {
        if self.reader_elapsed.is_zero() {
            return 0.0;
        }
        self.reader_requests as f64 / self.reader_elapsed.as_secs_f64()
    }

    /// Tenant requests per second over the multi-tenant phase.
    pub fn tenant_throughput(&self) -> f64 {
        if self.tenant_elapsed.is_zero() {
            return 0.0;
        }
        self.tenant_requests as f64 / self.tenant_elapsed.as_secs_f64()
    }

    /// Machine-readable run summary: one JSON object on one line, the
    /// `BENCH_*.json` trajectory format (`axml-load --json PATH`).
    /// Latencies are nanoseconds; `elapsed_ms` and `throughput_rps`
    /// are floats.
    pub fn to_json(&self, cfg: &LoadConfig) -> String {
        format!(
            "{{\"conns\":{},\"batch\":{},\"requests\":{},\"elapsed_ms\":{:.3},\
             \"throughput_rps\":{:.1},\"latency_p50_ns\":{},\"latency_p99_ns\":{},\
             \"latency_max_ns\":{},\"answer_trees\":{},\"deltas\":{},\
             \"pushed_trees\":{},\"errors\":{},\"readers\":{},\
             \"reader_requests\":{},\"reader_rps\":{:.1},\
             \"reader_p50_ns\":{},\"reader_p99_ns\":{},\"writer_runs\":{},\
             \"tenants\":{},\"tenant_requests\":{},\"tenant_rps\":{:.1},\
             \"tenant_p50_ns\":{},\"tenant_p99_ns\":{},\
             \"tenant_worst_p99_ns\":{},\"tenant_runs\":{}}}",
            cfg.conns,
            cfg.batch,
            self.requests,
            self.elapsed.as_secs_f64() * 1e3,
            self.throughput(),
            self.latency.quantile(0.50),
            self.latency.quantile(0.99),
            self.latency.max(),
            self.answer_trees,
            self.deltas,
            self.pushed_trees,
            self.errors,
            cfg.readers,
            self.reader_requests,
            self.reader_throughput(),
            self.reader_latency.quantile(0.50),
            self.reader_latency.quantile(0.99),
            self.writer_runs,
            cfg.tenants,
            self.tenant_requests,
            self.tenant_throughput(),
            self.tenant_latency.quantile(0.50),
            self.tenant_latency.quantile(0.99),
            self.tenant_worst_p99,
            self.tenant_runs,
        )
    }

    /// One-line human summary (latencies in microseconds).
    pub fn render(&self, cfg: &LoadConfig) -> String {
        let mut line = format!(
            "axml-load: conns {}  batch {}  requests {}  elapsed {:.1} ms  thrpt {:.0} req/s  \
             p50 {} us  p99 {} us  max {} us  trees {}  deltas {} ({} trees)  errors {}",
            cfg.conns,
            cfg.batch,
            self.requests,
            self.elapsed.as_secs_f64() * 1e3,
            self.throughput(),
            self.latency.quantile(0.50) / 1_000,
            self.latency.quantile(0.99) / 1_000,
            self.latency.max() / 1_000,
            self.answer_trees,
            self.deltas,
            self.pushed_trees,
            self.errors,
        );
        if cfg.readers > 0 {
            line.push_str(&format!(
                "  readers {}  rd-thrpt {:.0} req/s  rd-p50 {} us  rd-p99 {} us  writer-runs {}",
                cfg.readers,
                self.reader_throughput(),
                self.reader_latency.quantile(0.50) / 1_000,
                self.reader_latency.quantile(0.99) / 1_000,
                self.writer_runs,
            ));
        }
        if cfg.tenants > 0 {
            line.push_str(&format!(
                "  tenants {}  tn-thrpt {:.0} req/s  tn-p50 {} us  tn-p99 {} us  \
                 tn-worst-p99 {} us",
                cfg.tenants,
                self.tenant_throughput(),
                self.tenant_latency.quantile(0.50) / 1_000,
                self.tenant_latency.quantile(0.99) / 1_000,
                self.tenant_worst_p99 / 1_000,
            ));
        }
        line
    }
}

/// A line-framed protocol client over one TCP connection — also the
/// client half used by the end-to-end tests.
pub struct Client {
    out: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Client {
    /// Connect and say `hello`; fails on version mismatch.
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let out = TcpStream::connect(addr)?;
        // One small frame per round trip: disable Nagle so a request
        // is not held back waiting for the delayed ACK of the last.
        out.set_nodelay(true)?;
        let reader = BufReader::new(out.try_clone()?);
        let mut c = Client {
            out,
            reader,
            line: String::new(),
        };
        let resp = c.call(&Request::Hello {
            id: 0,
            version: PROTOCOL_VERSION,
            client: "axml-load".to_string(),
        })?;
        match resp {
            Response::HelloOk { .. } => Ok(c),
            other => Err(bad_frame(&other)),
        }
    }

    /// Send one request frame (no reply expected yet).
    pub fn send(&mut self, req: &Request) -> std::io::Result<()> {
        writeln!(self.out, "{}", req.to_json())
    }

    /// Read the next response frame.
    pub fn recv(&mut self) -> std::io::Result<Response> {
        self.line.clear();
        let n = self.reader.read_line(&mut self.line)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Response::parse(&self.line).map_err(|e: ProtoError| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{}: {}", e.code, e.message),
            )
        })
    }

    /// Send a request and read exactly one response.
    pub fn call(&mut self, req: &Request) -> std::io::Result<Response> {
        self.send(req)?;
        self.recv()
    }
}

fn bad_frame(resp: &Response) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("unexpected frame {}: {}", resp.kind(), resp.to_json()),
    )
}

/// The synthetic key/value document: `db{pair{k{"k0"},v{"v0"}}, …}`.
pub fn kv_doc(entries: usize) -> String {
    let mut s = String::from("db{");
    for i in 0..entries {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(r#"pair{{k{{"k{i}"}},v{{"v{i}"}}}}"#));
    }
    s.push('}');
    s
}

/// The point-lookup query for key `i` — the request unit of the load.
pub fn kv_query(i: usize) -> String {
    format!(r#"hit{{$v}} :- db/db{{pair{{k{{"k{i}"}},v{{$v}}}}}}"#)
}

/// A transitive-closure chain document (`n` edges) and its `tc`
/// service — the fixpoint the subscription streams.
pub fn tc_doc(n: usize) -> (String, String) {
    let mut s = String::from("r{");
    for i in 0..n {
        s.push_str(&format!(r#"t{{from{{"{i}"}},to{{"{}"}}}},"#, i + 1));
    }
    s.push_str("@tc}");
    let rule = "t{from{$x},to{$y}} :- edges/r{t{from{$x},to{$z}}, t{from{$z},to{$y}}}";
    (s, rule.to_string())
}

struct ConnResult {
    requests: usize,
    answer_trees: usize,
    errors: usize,
    deltas: usize,
    pushed_trees: usize,
    samples: Vec<u64>,
}

fn drive_conn(cfg: &LoadConfig, conn: usize) -> std::io::Result<ConnResult> {
    let mut c = Client::connect(&cfg.addr)?;
    let session = format!("load-{conn}");
    let mut docs = vec![("db".to_string(), kv_doc(cfg.entries))];
    let mut services = Vec::new();
    if cfg.subscribe {
        let (doc, rule) = tc_doc(8);
        docs.push(("edges".to_string(), doc));
        services.push(("tc".to_string(), rule));
    }
    let mut r = ConnResult {
        requests: 0,
        answer_trees: 0,
        errors: 0,
        deltas: 0,
        pushed_trees: 0,
        samples: Vec::new(),
    };
    match c.call(&Request::Open {
        id: 1,
        session: session.clone(),
        docs,
        services,
    })? {
        Response::OpenOk { .. } => {}
        other => return Err(bad_frame(&other)),
    }
    if cfg.subscribe {
        // Stream the tc fixpoint before the query loop.
        c.send(&Request::Subscribe {
            id: 2,
            session: session.clone(),
            query: "hit{$y} :- edges/r{t{from{\"0\"},to{$y}}}".to_string(),
        })?;
        loop {
            match c.recv()? {
                Response::SubOk { .. } => {}
                Response::Delta { trees, .. } => {
                    r.deltas += 1;
                    r.pushed_trees += trees.len();
                }
                Response::SubDone { .. } => break,
                Response::Error { .. } => {
                    r.errors += 1;
                    break;
                }
                other => return Err(bad_frame(&other)),
            }
        }
    } else {
        match c.call(&Request::Run {
            id: 2,
            session: session.clone(),
            mode: None,
            max_invocations: None,
        })? {
            Response::RunOk { .. } => {}
            other => return Err(bad_frame(&other)),
        }
    }
    let mut issued = 0usize;
    let mut id = 16u64;
    while issued < cfg.requests {
        let take = cfg.batch.min(cfg.requests - issued).max(1);
        let started = Instant::now();
        if take == 1 {
            let q = kv_query((issued * 7 + conn) % cfg.entries.max(1));
            match c.call(&Request::Query {
                id,
                session: session.clone(),
                query: q,
            })? {
                Response::Answers { trees, .. } => r.answer_trees += trees.len(),
                Response::Error { .. } => r.errors += 1,
                other => return Err(bad_frame(&other)),
            }
        } else {
            let queries: Vec<String> = (0..take)
                .map(|j| kv_query(((issued + j) * 7 + conn) % cfg.entries.max(1)))
                .collect();
            match c.call(&Request::Batch {
                id,
                session: session.clone(),
                queries,
            })? {
                Response::BatchOk { answers, .. } => {
                    r.answer_trees += answers.iter().map(Vec::len).sum::<usize>();
                }
                Response::Error { .. } => r.errors += 1,
                other => return Err(bad_frame(&other)),
            }
        }
        r.samples.push(started.elapsed().as_nanos() as u64);
        issued += take;
        r.requests += take;
        id += 1;
    }
    match c.call(&Request::Close {
        id: id + 1,
        session,
    })? {
        Response::Closed { .. } => {}
        Response::Error { .. } => r.errors += 1,
        other => return Err(bad_frame(&other)),
    }
    Ok(r)
}

struct MixedResult {
    writer_runs: usize,
    reader_requests: usize,
    errors: usize,
    samples: Vec<u64>,
    elapsed: Duration,
}

/// The `--readers N` race: one writer connection drives back-to-back
/// `run` fixpoints on a shared session while `N` closed-loop readers
/// alternate `query` and `stats` frames. Every writer round holds the
/// session's writer lock and commits; the readers are served from the
/// published MVCC snapshot, so their p50/p99 should stay flat however
/// busy the writer is.
fn mixed_workload(cfg: &LoadConfig) -> std::io::Result<MixedResult> {
    let session = "load-rw".to_string();
    let mut w = Client::connect(&cfg.addr)?;
    let (edges, rule) = tc_doc(8);
    match w.call(&Request::Open {
        id: 1,
        session: session.clone(),
        docs: vec![
            ("db".to_string(), kv_doc(cfg.entries)),
            ("edges".to_string(), edges),
        ],
        services: vec![("tc".to_string(), rule)],
    })? {
        Response::OpenOk { .. } => {}
        other => return Err(bad_frame(&other)),
    }
    let stop = AtomicBool::new(false);
    let started = Instant::now();
    let mut writer_result: std::io::Result<usize> = Ok(0);
    let mut reader_results: Vec<std::io::Result<(Vec<u64>, usize)>> = Vec::new();
    std::thread::scope(|scope| {
        let writer = {
            let session = session.clone();
            let stop = &stop;
            let w = &mut w;
            scope.spawn(move || -> std::io::Result<usize> {
                let mut runs = 0usize;
                let mut id = 8u64;
                while !stop.load(Ordering::Relaxed) {
                    match w.call(&Request::Run {
                        id,
                        session: session.clone(),
                        mode: None,
                        max_invocations: None,
                    })? {
                        Response::RunOk { .. } => runs += 1,
                        other => return Err(bad_frame(&other)),
                    }
                    id += 1;
                }
                Ok(runs)
            })
        };
        let readers: Vec<_> = (0..cfg.readers)
            .map(|rid| {
                let session = session.clone();
                let cfg = &*cfg;
                scope.spawn(move || -> std::io::Result<(Vec<u64>, usize)> {
                    let mut c = Client::connect(&cfg.addr)?;
                    let mut samples = Vec::with_capacity(cfg.requests);
                    let mut errors = 0usize;
                    for i in 0..cfg.requests {
                        let id = 100 + i as u64;
                        let t0 = Instant::now();
                        let resp = if i % 2 == 0 {
                            c.call(&Request::Query {
                                id,
                                session: session.clone(),
                                query: kv_query((i * 7 + rid) % cfg.entries.max(1)),
                            })?
                        } else {
                            c.call(&Request::Stats { id })?
                        };
                        match resp {
                            Response::Answers { .. } | Response::StatsOk { .. } => {}
                            Response::Error { .. } => errors += 1,
                            other => return Err(bad_frame(&other)),
                        }
                        samples.push(t0.elapsed().as_nanos() as u64);
                    }
                    Ok((samples, errors))
                })
            })
            .collect();
        for h in readers {
            reader_results.push(h.join().expect("reader thread panicked"));
        }
        stop.store(true, Ordering::Relaxed);
        writer_result = writer.join().expect("writer thread panicked");
    });
    let elapsed = started.elapsed();
    let mut out = MixedResult {
        writer_runs: writer_result?,
        reader_requests: 0,
        errors: 0,
        samples: Vec::new(),
        elapsed,
    };
    for r in reader_results {
        let (samples, errors) = r?;
        out.reader_requests += samples.len();
        out.errors += errors;
        out.samples.extend(samples);
    }
    let mut c = Client::connect(&cfg.addr)?;
    match c.call(&Request::Close { id: 2, session })? {
        Response::Closed { .. } | Response::Error { .. } => {}
        other => return Err(bad_frame(&other)),
    }
    Ok(out)
}

struct TenantResult {
    runs: usize,
    requests: usize,
    errors: usize,
    /// Per-tenant latency sample vectors (one entry per tenant, so the
    /// worst tenant's p99 can be computed separately from the merge).
    samples: Vec<Vec<u64>>,
    elapsed: Duration,
}

/// The `--tenants N` phase: `N` concurrent single-session tenants,
/// each a small independent system — open, one fixpoint `run`, then a
/// closed query loop, then close. The per-tenant sample vectors stay
/// separate so the report can quote the worst tenant's p99 next to
/// the aggregate: on a well-isolated server (and a well-balanced
/// placement) the two stay close.
fn tenant_workload(cfg: &LoadConfig) -> std::io::Result<TenantResult> {
    let started = Instant::now();
    let mut results: Vec<std::io::Result<(usize, usize, Vec<u64>)>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.tenants)
            .map(|t| {
                let cfg = &*cfg;
                scope.spawn(move || -> std::io::Result<(usize, usize, Vec<u64>)> {
                    let session = format!("tenant-{t}");
                    let mut c = Client::connect(&cfg.addr)?;
                    let (edges, rule) = tc_doc(6);
                    match c.call(&Request::Open {
                        id: 1,
                        session: session.clone(),
                        docs: vec![
                            ("db".to_string(), kv_doc(cfg.entries)),
                            ("edges".to_string(), edges),
                        ],
                        services: vec![("tc".to_string(), rule)],
                    })? {
                        Response::OpenOk { .. } => {}
                        other => return Err(bad_frame(&other)),
                    }
                    let mut errors = 0usize;
                    match c.call(&Request::Run {
                        id: 2,
                        session: session.clone(),
                        mode: None,
                        max_invocations: None,
                    })? {
                        Response::RunOk { .. } => {}
                        Response::Error { .. } => errors += 1,
                        other => return Err(bad_frame(&other)),
                    }
                    let mut samples = Vec::with_capacity(cfg.requests);
                    for i in 0..cfg.requests {
                        let t0 = Instant::now();
                        match c.call(&Request::Query {
                            id: 100 + i as u64,
                            session: session.clone(),
                            query: kv_query((i * 7 + t) % cfg.entries.max(1)),
                        })? {
                            Response::Answers { .. } => {}
                            Response::Error { .. } => errors += 1,
                            other => return Err(bad_frame(&other)),
                        }
                        samples.push(t0.elapsed().as_nanos() as u64);
                    }
                    match c.call(&Request::Close { id: 3, session })? {
                        Response::Closed { .. } => {}
                        Response::Error { .. } => errors += 1,
                        other => return Err(bad_frame(&other)),
                    }
                    Ok((1, errors, samples))
                })
            })
            .collect();
        for h in handles {
            results.push(h.join().expect("tenant thread panicked"));
        }
    });
    let mut out = TenantResult {
        runs: 0,
        requests: 0,
        errors: 0,
        samples: Vec::new(),
        elapsed: started.elapsed(),
    };
    for r in results {
        let (runs, errors, samples) = r?;
        out.runs += runs;
        out.errors += errors;
        out.requests += samples.len();
        out.samples.push(samples);
    }
    Ok(out)
}

/// Run the load against a listening server and aggregate the report.
pub fn run(cfg: &LoadConfig) -> std::io::Result<LoadReport> {
    let started = Instant::now();
    let mut results = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.conns)
            .map(|conn| scope.spawn(move || drive_conn(cfg, conn)))
            .collect();
        for h in handles {
            results.push(h.join().expect("load connection thread panicked"));
        }
    });
    let mut report = LoadReport {
        elapsed: started.elapsed(),
        ..LoadReport::default()
    };
    for r in results {
        let r = r?;
        report.requests += r.requests;
        report.answer_trees += r.answer_trees;
        report.errors += r.errors;
        report.deltas += r.deltas;
        report.pushed_trees += r.pushed_trees;
        for s in r.samples {
            report.latency.record(s);
        }
    }
    if cfg.readers > 0 {
        let mixed = mixed_workload(cfg)?;
        report.writer_runs = mixed.writer_runs;
        report.reader_requests = mixed.reader_requests;
        report.reader_elapsed = mixed.elapsed;
        report.errors += mixed.errors;
        for s in mixed.samples {
            report.reader_latency.record(s);
        }
    }
    if cfg.tenants > 0 {
        let tenants = tenant_workload(cfg)?;
        report.tenant_runs = tenants.runs;
        report.tenant_requests = tenants.requests;
        report.tenant_elapsed = tenants.elapsed;
        report.errors += tenants.errors;
        for per_tenant in tenants.samples {
            let mut h = Histogram::new();
            for s in per_tenant {
                h.record(s);
                report.tenant_latency.record(s);
            }
            report.tenant_worst_p99 = report.tenant_worst_p99.max(h.quantile(0.99));
        }
    }
    if cfg.shutdown {
        let mut c = Client::connect(&cfg.addr)?;
        match c.call(&Request::Shutdown { id: 1 })? {
            Response::ShutdownOk { .. } | Response::Error { .. } => {}
            other => return Err(bad_frame(&other)),
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_core::trace::{parse_json, JsonValue};

    #[test]
    fn report_json_is_valid_and_complete() {
        let mut report = LoadReport {
            requests: 64,
            answer_trees: 64,
            errors: 1,
            deltas: 2,
            pushed_trees: 9,
            elapsed: Duration::from_millis(250),
            ..LoadReport::default()
        };
        for v in [10_000u64, 20_000, 1_000_000] {
            report.latency.record(v);
        }
        let json = report.to_json(&LoadConfig::default());
        let v = parse_json(&json).expect("summary parses as JSON");
        let JsonValue::Obj(fields) = v else {
            panic!("summary is not an object")
        };
        for key in [
            "conns",
            "batch",
            "requests",
            "elapsed_ms",
            "throughput_rps",
            "latency_p50_ns",
            "latency_p99_ns",
            "latency_max_ns",
            "answer_trees",
            "deltas",
            "pushed_trees",
            "errors",
            "readers",
            "reader_requests",
            "reader_rps",
            "reader_p50_ns",
            "reader_p99_ns",
            "writer_runs",
            "tenants",
            "tenant_requests",
            "tenant_rps",
            "tenant_p50_ns",
            "tenant_p99_ns",
            "tenant_worst_p99_ns",
            "tenant_runs",
        ] {
            assert!(
                fields.iter().any(|(k, _)| k == key),
                "summary is missing {key}"
            );
        }
        assert!(json.contains("\"requests\":64"));
        assert!(json.contains("\"latency_max_ns\":1000000"));
    }
}
