//! `axml-server` — serve the Positive AXML engine over TCP.
//!
//! ```text
//! axml-server [--addr HOST:PORT] [--max-conns N] [--max-sessions N]
//!             [--max-batch N] [--max-frame-bytes N] [--write-timeout SECS]
//!             [--mode naive|delta] [--trace-engine] [--trace FILE] [--report]
//!             [--metrics-addr HOST:PORT] [--journal-capacity N]
//!             [--journal-sample CAT=N] [--version]
//! ```
//!
//! Speaks protocol v1 (`docs/protocol.md`); `docs/server.md` is the
//! operator guide. Runs until a client sends a `shutdown` frame, then
//! drains, optionally writes the Chrome trace (`--trace`) and prints
//! the metrics report (`--report`). `--metrics-addr` opens a second
//! listener serving Prometheus text exposition; `--journal-capacity`
//! sizes the observability ring (0 = unbounded, the test mode);
//! `--journal-sample CAT=N` keeps one event in `N` for a category
//! (repeatable, e.g. `--journal-sample cache=16`).

use axml_core::engine::EngineMode;
use axml_core::trace::EventCategory;
use axml_server::server::{Server, ServerConfig};
use std::io::Write;

fn usage() -> ! {
    eprintln!(
        "usage: axml-server [--addr HOST:PORT] [--max-conns N] [--max-sessions N]\n\
         \x20                  [--max-batch N] [--max-frame-bytes N] [--write-timeout SECS]\n\
         \x20                  [--mode naive|delta] [--trace-engine] [--trace FILE] [--report]\n\
         \x20                  [--metrics-addr HOST:PORT] [--journal-capacity N]\n\
         \x20                  [--journal-sample CAT=N] [--version]"
    );
    std::process::exit(2)
}

fn main() {
    let mut addr = "127.0.0.1:7421".to_string();
    let mut cfg = ServerConfig::default();
    let mut trace_file: Option<String> = None;
    let mut report = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut val = |name: &str| args.next().unwrap_or_else(|| {
            eprintln!("missing value for {name}");
            usage()
        });
        match arg.as_str() {
            "--addr" => addr = val("--addr"),
            "--max-conns" => cfg.max_conns = parse(&val("--max-conns")),
            "--max-sessions" => cfg.max_sessions = parse(&val("--max-sessions")),
            "--max-batch" => cfg.max_batch = parse(&val("--max-batch")),
            "--max-frame-bytes" => cfg.max_frame_bytes = parse(&val("--max-frame-bytes")),
            "--write-timeout" => {
                // 0 disables the bound (a stalled client then holds
                // its session lock until the OS gives up the socket).
                cfg.write_timeout = match parse(&val("--write-timeout")) {
                    0 => None,
                    secs => Some(std::time::Duration::from_secs(secs as u64)),
                }
            }
            "--mode" => {
                cfg.engine.mode = match val("--mode").as_str() {
                    "naive" => EngineMode::Naive,
                    "delta" => EngineMode::Delta,
                    other => {
                        eprintln!("unknown mode {other:?}");
                        usage()
                    }
                }
            }
            "--trace-engine" => cfg.trace_engine = true,
            "--trace" => trace_file = Some(val("--trace")),
            "--report" => report = true,
            "--metrics-addr" => cfg.metrics_addr = Some(val("--metrics-addr")),
            "--journal-capacity" => {
                // 0 lifts the bound (the unbounded test mode).
                cfg.journal.capacity = match parse(&val("--journal-capacity")) {
                    0 => None,
                    n => Some(n),
                }
            }
            "--journal-sample" => {
                let spec = val("--journal-sample");
                let Some((cat, n)) = spec.split_once('=') else {
                    eprintln!("--journal-sample wants CAT=N, got {spec:?}");
                    usage()
                };
                let Some(cat) = EventCategory::parse(cat) else {
                    eprintln!("unknown event category {cat:?}");
                    usage()
                };
                cfg.journal = cfg.journal.clone().with_sample(cat, parse(n) as u32);
            }
            "--version" | "-V" => {
                println!("axml-server {}", env!("CARGO_PKG_VERSION"));
                return;
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage()
            }
        }
    }

    let mut handle = match Server::spawn(addr.as_str(), cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("axml-server: cannot bind {addr}: {e}");
            std::process::exit(1)
        }
    };
    println!(
        "axml-server listening on {} (protocol v{})",
        handle.addr(),
        axml_server::PROTOCOL_VERSION
    );
    if let Some(m) = handle.metrics_addr() {
        println!("metrics on {m} (GET /metrics)");
    }
    let _ = std::io::stdout().flush();

    // Serve until a `shutdown` frame stops admission, then drain.
    handle.join();

    if let Some(path) = trace_file {
        // Stream the export: a 64k-event ring would double peak memory
        // if serialized to one String first.
        let write = std::fs::File::create(&path).and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            handle.sink().chrome_trace_to(&mut w)?;
            w.flush()
        });
        match write {
            Ok(()) => println!("trace: {path} ({} events)", handle.sink().events().len()),
            Err(e) => {
                eprintln!("axml-server: cannot write {path}: {e}");
                std::process::exit(1)
            }
        }
    }
    if report {
        print!("{}", handle.report("axml-server"));
    }
}

fn parse(s: &str) -> usize {
    s.parse().unwrap_or_else(|_| {
        eprintln!("not a number: {s:?}");
        usage()
    })
}
