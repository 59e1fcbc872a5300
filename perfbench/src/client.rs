//! The `axml-server` child process and the benchmark's closed-loop
//! connections to it.

use crate::gen::Named;
use axml_server::load::Client;
use axml_server::{Request, Response};
use std::collections::BTreeSet;
use std::io::{self, BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Environment variables that change the engine configuration behind
/// the server's back; removed from the child (and from this process in
/// `main`) so every run measures the same configuration.
pub const PINNED_ENV: [&str; 2] = ["AXML_WORKERS", "AXML_FORCE_INTERPRET"];

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// `VmHWM` (peak resident set) of a process, in MB.
pub fn vmhwm_mb(pid: &str) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| invalid(format!("no VmHWM in /proc/{pid}/status")))
}

/// A running `axml-server` with default flags, on a free local port.
pub struct ServerProc {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl ServerProc {
    pub fn spawn(bin: &Path) -> io::Result<ServerProc> {
        let mut cmd = Command::new(bin);
        cmd.args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        for var in PINNED_ENV {
            cmd.env_remove(var);
        }
        let mut child = cmd.spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        // "axml-server listening on 127.0.0.1:PORT (protocol v1)"
        let addr = line
            .split_whitespace()
            .nth(3)
            .map(str::to_string)
            .ok_or_else(|| {
                let _ = child.kill();
                let _ = child.wait();
                invalid(format!("unexpected server banner {line:?}"))
            })?;
        Ok(ServerProc {
            child,
            _stdout: stdout,
            addr,
        })
    }

    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        vmhwm_mb(&self.child.id().to_string())
    }

    /// Send `shutdown` on `control` and wait for the process to exit
    /// once every connection is closed; kill it after 20 s.
    pub fn stop(mut self, mut control: Conn, others: Vec<Conn>) -> io::Result<()> {
        drop(others);
        let r = control.call(Request::Shutdown { id: 0 });
        drop(control);
        let deadline = Instant::now() + Duration::from_secs(20);
        while self.child.try_wait()?.is_none() {
            if Instant::now() > deadline {
                self.child.kill()?;
                self.child.wait()?;
                return Err(invalid("axml-server did not exit after shutdown".into()));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        match r? {
            Response::ShutdownOk { .. } => Ok(()),
            other => Err(invalid(format!("shutdown answered {}", other.to_json()))),
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One connection, counting what it sent and the error frames it got,
/// for the cross-check against the server's own `stats`.
pub struct Conn {
    c: Client,
    next_id: u64,
    pub sent: u64,
    pub errors: u64,
}

/// Client-observed times of one `open` + `subscribe` job, from sending
/// `open`, and the union of the subscription's deltas.
pub struct Job {
    pub first_delta: Option<Duration>,
    pub done: Duration,
    pub status: String,
    pub answers: BTreeSet<String>,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        Ok(Conn {
            c: Client::connect(addr)?,
            next_id: 1,
            sent: 1, // the `hello` Client::connect exchanged
            errors: 0,
        })
    }

    fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    fn send(&mut self, req: &Request) -> io::Result<()> {
        self.sent += 1;
        self.c.send(req)
    }

    fn recv(&mut self) -> io::Result<Response> {
        let r = self.c.recv()?;
        if let Response::Error { .. } = r {
            self.errors += 1;
        }
        Ok(r)
    }

    /// One request, one reply. `id`s are filled in here.
    pub fn call(&mut self, mut req: Request) -> io::Result<Response> {
        let id = self.id();
        match &mut req {
            Request::Open { id: i, .. }
            | Request::Run { id: i, .. }
            | Request::Query { id: i, .. }
            | Request::Close { id: i, .. }
            | Request::Stats { id: i }
            | Request::Health { id: i }
            | Request::Shutdown { id: i } => *i = id,
            _ => {}
        }
        self.send(&req)?;
        self.recv()
    }

    pub fn open(&mut self, session: &str, docs: Named, services: Named) -> io::Result<()> {
        let session = session.to_string();
        expect_ok(
            self.call(Request::Open {
                id: 0,
                session,
                docs,
                services,
            })?,
            "open_ok",
        )
    }

    pub fn close(&mut self, session: &str) -> io::Result<()> {
        let session = session.to_string();
        expect_ok(self.call(Request::Close { id: 0, session })?, "closed")
    }

    /// A `query`: its answer trees, or `Err` for an error frame.
    pub fn query(
        &mut self,
        session: &str,
        query: String,
    ) -> io::Result<Result<Vec<String>, String>> {
        let session = session.to_string();
        Ok(
            match self.call(Request::Query {
                id: 0,
                session,
                query,
            })? {
                Response::Answers { trees, .. } => Ok(trees),
                other => Err(other.to_json()),
            },
        )
    }

    /// `open`, then `subscribe` and read the stream to `sub_done`.
    pub fn open_subscribe(
        &mut self,
        session: &str,
        docs: Named,
        services: Named,
        query: String,
    ) -> io::Result<Job> {
        let t0 = Instant::now();
        self.open(session, docs, services)?;
        let id = self.id();
        self.send(&Request::Subscribe {
            id,
            session: session.to_string(),
            query,
        })?;
        let mut job = Job {
            first_delta: None,
            done: Duration::ZERO,
            status: String::new(),
            answers: BTreeSet::new(),
        };
        loop {
            match self.recv()? {
                Response::SubOk { .. } => {}
                Response::Delta { trees, .. } => {
                    job.first_delta.get_or_insert_with(|| t0.elapsed());
                    job.answers.extend(trees);
                }
                Response::SubDone { status, .. } => {
                    job.done = t0.elapsed();
                    job.status = status;
                    return Ok(job);
                }
                other => return Err(invalid(format!("subscribe got {}", other.to_json()))),
            }
        }
    }
}

fn expect_ok(r: Response, kind: &str) -> io::Result<()> {
    if r.kind() == kind {
        Ok(())
    } else {
        Err(invalid(format!("expected {kind}, got {}", r.to_json())))
    }
}

/// The server's own view of a run, scraped from `stats` and `health`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerCounters {
    pub served: u64,
    pub errors: u64,
    pub batches_formed: u64,
    pub journal_dropped: u64,
}

/// Scrape `stats` and `health` on `control` and check that the server
/// served exactly the requests the client connections sent, with the
/// same number of errors. A request's `served` count lands just after
/// its reply is written, so `stats` is re-read until it catches up.
pub fn cross_check(
    control: &mut Conn,
    conns: &[&Conn],
) -> io::Result<(ServerCounters, Result<(), String>)> {
    let sent: u64 = conns.iter().map(|c| c.sent).sum();
    let errors: u64 = conns.iter().map(|c| c.errors).sum::<u64>() + control.errors;
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut out = ServerCounters::default();
    let verdict = loop {
        // Every request the control connection sent before this one.
        let expected = sent + control.sent;
        match control.call(Request::Stats { id: 0 })? {
            Response::StatsOk {
                served,
                errors: e,
                batches,
                ..
            } => {
                out.served = served;
                out.errors = e;
                out.batches_formed = batches;
                if served == expected && e == errors {
                    break Ok(());
                }
                if served > expected || Instant::now() > deadline {
                    break Err(format!(
                        "server served {served} with {e} errors; clients sent {expected} and got {errors} error frames"
                    ));
                }
            }
            other => return Err(invalid(format!("stats answered {}", other.to_json()))),
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    match control.call(Request::Health { id: 0 })? {
        Response::HealthOk {
            journal_dropped, ..
        } => out.journal_dropped = journal_dropped,
        other => return Err(invalid(format!("health answered {}", other.to_json()))),
    }
    Ok((out, verdict))
}
