//! `axml-inspect` — inspect the engine's observability artifacts.
//!
//! ```text
//! axml-inspect report [--n N] [--shards S] [--seed X]
//! axml-inspect events <trace.json> [--cat C] [--ph P] [--contains S] [--limit N]
//! axml-inspect matrix [--peers K] [--rounds R]
//! axml-inspect provenance [--n N] [--shards S] [--seed X] [--out FILE]
//! axml-inspect plan [--n N] [--shards S] [--seed X] [--query RULE] [--scan]
//! axml-inspect serve [--conns N] [--requests N] [--batch N] [--trace FILE]
//! axml-inspect prom <file-or-host:port>
//! axml-inspect --version
//! ```
//!
//! * `report` runs the tc-digraph closure workload live on the delta
//!   engine and prints the metrics report.
//! * `events` parses a Chrome-trace JSON export (e.g. the X14 artifact)
//!   back into events and prints a filtered listing.
//! * `matrix` runs a live star network and prints the per-peer message
//!   matrix from its journal.
//! * `provenance` runs the closure workload with provenance enabled and
//!   prints (or writes) the DOT derivation DAG of the deepest
//!   explainable `path` answer — pipe it to `dot -Tsvg`.
//! * `plan` compiles every positive service of the closure workload (or
//!   the ad-hoc `--query` rule) after running it to fixpoint, and prints
//!   the optimized plan IR and match program of each.
//! * `serve` spawns an in-process `axml-server` on an ephemeral port,
//!   drives it closed-loop with the `axml-load` generator, and prints
//!   the load line plus the server's metrics report (the `server:`
//!   block with p50/p99 request latency and per-session rows);
//!   `--trace FILE` additionally streams the server's Chrome trace.
//! * `prom` validates a Prometheus text-exposition page — read from a
//!   file, or scraped live from an `axml-server --metrics-addr`
//!   listener when the argument looks like `host:port` — and prints
//!   the sample count (the CI metrics smoke uses it as the format
//!   checker).

use std::process::ExitCode;

use axml_inspect::{
    deepest_provenance_dot, matrix_from_events, render_events, render_plan,
    run_metrics_report, serve_report_traced, EventFilter,
};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  \
         axml-inspect report [--n N] [--shards S] [--seed X]\n  \
         axml-inspect events <trace.json> [--cat C] [--ph P] [--contains S] [--limit N]\n  \
         axml-inspect matrix [--peers K] [--rounds R]\n  \
         axml-inspect provenance [--n N] [--shards S] [--seed X] [--out FILE]\n  \
         axml-inspect plan [--n N] [--shards S] [--seed X] [--query RULE] [--scan]\n  \
         axml-inspect serve [--conns N] [--requests N] [--batch N] [--trace FILE]\n  \
         axml-inspect prom <file-or-host:port>\n  \
         axml-inspect --version"
    );
    ExitCode::from(2)
}

/// Pull `--flag value` out of `args`; removes both tokens when found.
fn take_opt(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        return None;
    }
    let v = args.remove(i + 1);
    args.remove(i);
    Some(v)
}

fn take_num<T: std::str::FromStr>(
    args: &mut Vec<String>,
    flag: &str,
    default: T,
) -> Result<T, String> {
    match take_opt(args, flag) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{flag}: bad value {v:?}")),
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage();
    }
    let cmd = args.remove(0);
    let result = match cmd.as_str() {
        "report" => cmd_report(&mut args),
        "events" => cmd_events(&mut args),
        "matrix" => cmd_matrix(&mut args),
        "provenance" => cmd_provenance(&mut args),
        "plan" => cmd_plan(&mut args),
        "serve" => cmd_serve(&mut args),
        "prom" => cmd_prom(&mut args),
        "--version" | "-V" => {
            println!("axml-inspect {}", env!("CARGO_PKG_VERSION"));
            return ExitCode::SUCCESS;
        }
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("axml-inspect: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_report(args: &mut Vec<String>) -> Result<(), String> {
    let n = take_num(args, "--n", 64usize)?;
    let shards = take_num(args, "--shards", 4usize)?;
    let seed = take_num(args, "--seed", 12u64)?;
    reject_extra(args)?;
    print!("{}", run_metrics_report(n, shards, seed));
    Ok(())
}

fn cmd_events(args: &mut Vec<String>) -> Result<(), String> {
    let filter = EventFilter {
        cat: take_opt(args, "--cat"),
        ph: take_opt(args, "--ph"),
        contains: take_opt(args, "--contains"),
        limit: take_num(args, "--limit", 0usize)?,
    };
    if args.len() != 1 {
        return Err("events: expected exactly one <trace.json> path".into());
    }
    let path = args.remove(0);
    let json = std::fs::read_to_string(&path)
        .map_err(|e| format!("{path}: {e}"))?;
    let events = axml_core::trace::parse_chrome_trace(&json)
        .map_err(|e| format!("{path}: {e}"))?;
    print!("{}", render_events(&events, &filter));
    Ok(())
}

fn cmd_matrix(args: &mut Vec<String>) -> Result<(), String> {
    let peers = take_num(args, "--peers", 4usize)?;
    let rounds = take_num(args, "--rounds", 16usize)?;
    reject_extra(args)?;
    let mut net = axml_bench::star_network(peers, axml_p2p::Mode::Pull, None);
    net.enable_tracing();
    net.run(rounds).map_err(|e| e.to_string())?;
    print!("{}", matrix_from_events(&net.take_journal()));
    Ok(())
}

fn cmd_provenance(args: &mut Vec<String>) -> Result<(), String> {
    let n = take_num(args, "--n", 32usize)?;
    let shards = take_num(args, "--shards", 3usize)?;
    let seed = take_num(args, "--seed", 12u64)?;
    let out = take_opt(args, "--out");
    reject_extra(args)?;
    let (dot, summary) = deepest_provenance_dot(n, shards, seed);
    match out {
        Some(path) => {
            std::fs::write(&path, &dot).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("wrote {path}: {summary}");
        }
        None => {
            print!("{dot}");
            eprintln!("{summary}");
        }
    }
    Ok(())
}

fn cmd_plan(args: &mut Vec<String>) -> Result<(), String> {
    let n = take_num(args, "--n", 32usize)?;
    let shards = take_num(args, "--shards", 3usize)?;
    let seed = take_num(args, "--seed", 12u64)?;
    let query = take_opt(args, "--query");
    let strategy = if take_flag(args, "--scan") {
        axml_core::MatchStrategy::Scan
    } else {
        axml_core::MatchStrategy::Indexed
    };
    reject_extra(args)?;
    print!("{}", render_plan(n, shards, seed, query.as_deref(), strategy)?);
    Ok(())
}

fn cmd_serve(args: &mut Vec<String>) -> Result<(), String> {
    let conns = take_num(args, "--conns", 2usize)?;
    let requests = take_num(args, "--requests", 64usize)?;
    let batch = take_num(args, "--batch", 4usize)?;
    let trace = take_opt(args, "--trace");
    reject_extra(args)?;
    print!(
        "{}",
        serve_report_traced(conns, requests, batch, trace.as_deref())?
    );
    Ok(())
}

fn cmd_prom(args: &mut Vec<String>) -> Result<(), String> {
    if args.len() != 1 {
        return Err("prom: expected exactly one <file-or-host:port> argument".into());
    }
    let target = args.remove(0);
    // An existing file wins; anything else with a colon is scraped.
    let text = if std::path::Path::new(&target).exists() {
        std::fs::read_to_string(&target).map_err(|e| format!("{target}: {e}"))?
    } else if target.contains(':') {
        scrape(&target)?
    } else {
        return Err(format!("{target}: no such file (and not a host:port)"));
    };
    let samples = axml_server::metrics::validate_prometheus_text(&text)
        .map_err(|e| format!("{target}: invalid exposition: {e}"))?;
    println!("{target}: valid Prometheus exposition, {samples} samples");
    Ok(())
}

/// One hand-rolled HTTP/1.0 GET against a `--metrics-addr` listener;
/// returns the response body.
fn scrape(addr: &str) -> Result<String, String> {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(format!("GET /metrics HTTP/1.0\r\nHost: {addr}\r\n\r\n").as_bytes())
        .map_err(|e| format!("{addr}: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("{addr}: {e}"))?;
    let Some((head, body)) = response.split_once("\r\n\r\n") else {
        return Err(format!("{addr}: malformed HTTP response"));
    };
    let status = head.lines().next().unwrap_or("");
    if !status.contains(" 200 ") {
        return Err(format!("{addr}: scrape failed: {status}"));
    }
    Ok(body.to_string())
}

/// Pull a bare `--flag` out of `args`; removes it when found.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

fn reject_extra(args: &[String]) -> Result<(), String> {
    if args.is_empty() {
        Ok(())
    } else {
        Err(format!("unexpected arguments: {args:?}"))
    }
}
