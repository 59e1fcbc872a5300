//! The repository's benchmark: point lookups, subscribed fixpoints,
//! reads beside commits and sharded p2p, end to end (untraced) and
//! layer by layer (`--trace 1`). See README.md.
//!
//! ```text
//! axml-perfbench --server-bin PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a human-readable report, then, as its last line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. Exits
//! non-zero when any operation failed or any answer was wrong.

mod client;
mod gen;
mod replay;
mod stats;
mod workloads;

use replay::Replay;
use stats::{median, summarize, MIN_BEYOND_P90};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Measured;

type SelfTimes = BTreeMap<&'static str, Vec<f64>>;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    KvLookup,
    TcSubscribe,
    ReadWhileCommit,
    P2pSharded,
}

use Workload::*;

const ALL: [Workload; 4] = [KvLookup, TcSubscribe, ReadWhileCommit, P2pSharded];

impl Workload {
    fn name(self) -> &'static str {
        match self {
            KvLookup => "kv_lookup",
            TcSubscribe => "tc_subscribe",
            ReadWhileCommit => "read_while_commit",
            P2pSharded => "p2p_sharded",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == s)
    }

    fn run(
        self,
        bin: &std::path::Path,
        seed: u64,
        seconds: f64,
        segments: usize,
    ) -> std::io::Result<Measured> {
        match self {
            KvLookup => workloads::kv_lookup(bin, seed, seconds, segments),
            TcSubscribe => workloads::tc_subscribe(bin, seed, seconds, segments),
            ReadWhileCommit => workloads::read_while_commit(bin, seed, seconds, segments),
            P2pSharded => workloads::p2p_sharded(seed, seconds, segments),
        }
    }

    /// Set-ups per untraced run; `setup_s` is their median. A server
    /// workload measures each segment of its run on the server it just
    /// set up: a server process keeps one speed for its lifetime (fast
    /// or slow by up to 2× for `kv_lookup`, depending on the process),
    /// so pooling several processes steadies the run. `read_while_commit`
    /// sets up cheaply and takes its `first_delta_p50_ms` samples from
    /// its set-ups, so it uses more.
    fn segments(self) -> usize {
        match self {
            KvLookup | TcSubscribe | P2pSharded => 5,
            ReadWhileCommit => 10,
        }
    }

    fn replay(self, seed: u64) -> Replay {
        match self {
            KvLookup => replay::kv_lookup(seed),
            TcSubscribe => replay::tc_subscribe(seed),
            ReadWhileCommit => replay::read_while_commit(seed),
            P2pSharded => replay::p2p_sharded(seed),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: PathBuf,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("axml-perfbench: {msg}");
    eprintln!(
        "usage: axml-perfbench --server-bin PATH --workload kv_lookup|tc_subscribe|read_while_commit|p2p_sharded \
         --seed N --seconds S --trace 0|1"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut bin) = (None, 0, 10.0, false, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {val:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&val).ok_or(format!("unknown workload {val:?}"))?)
            }
            "--seed" => seed = val.parse().map_err(bad)?,
            "--seconds" => {
                seconds = val
                    .parse::<f64>()
                    .map_err(|_| format!("bad value {val:?} for {flag}"))?
            }
            "--trace" => trace = val != "0",
            "--server-bin" => bin = Some(PathBuf::from(val)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        server_bin: bin.ok_or("--server-bin is required")?,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The end-to-end metrics of an untraced run, plus the problems that
/// make the run count as incorrect.
fn end_to_end(m: &Measured, problems: &mut Vec<String>) -> Vec<Metric> {
    let reads = summarize(&m.reads_us);
    let fix = summarize(&m.fixpoint_ms);
    let first = summarize(&m.first_delta_ms);
    println!(
        "samples: setup {} reads {} fixpoints {} first-deltas {}",
        m.setup_s.len(),
        m.reads_us.len(),
        m.fixpoint_ms.len(),
        m.first_delta_ms.len()
    );
    match reads {
        Some(r) => {
            println!(
                "read latency: p50 {:.1} us, p90 {:.1} us, mean {:.1} us over {} samples, {} beyond p90",
                r.p50, r.p90, r.mean, r.n, r.beyond_p90
            );
            let mut sorted = m.reads_us.clone();
            sorted.sort_by(f64::total_cmp);
            let deciles: Vec<String> = (1..10)
                .map(|d| format!("{:.1}", stats::quantile(&sorted, d as f64 / 10.0)))
                .collect();
            println!("read deciles (us): {}", deciles.join(" "));
            if r.beyond_p90 < MIN_BEYOND_P90 {
                problems.push(format!("only {} read samples beyond p90", r.beyond_p90));
            }
        }
        None => problems.push("no successful reads".into()),
    }
    if let Some(f) = fix {
        println!("fixpoint: p50 {:.3} ms over {} samples", f.p50, f.n);
    } else {
        problems.push("no successful fixpoint job".into());
    }
    if let Some(f) = first {
        println!("first delta: p50 {:.3} ms over {} samples", f.p50, f.n);
    } else {
        problems.push("no first delta".into());
    }
    let reads_per_s = median(&m.read_rates);
    println!("read throughput: median of {} windows", m.read_rates.len());
    vec![
        metric("setup_s", median(&m.setup_s), "s"),
        metric("peak_rss_mb", m.peak_rss_mb, "MB"),
        metric("read_p50_us", reads.map_or(0.0, |r| r.p50), "us"),
        metric("read_p90_us", reads.map_or(0.0, |r| r.p90), "us"),
        metric("reads_per_s", reads_per_s, "1/s"),
        metric("fixpoint_p50_ms", fix.map_or(0.0, |f| f.p50), "ms"),
        metric("first_delta_p50_ms", first.map_or(0.0, |f| f.p50), "ms"),
    ]
}

/// Per-layer timings: (span, unit, workloads whose replay measures it
/// when the run's own workload does not call it). The metric is named
/// `<span>_<unit>`.
const LAYER_TIMES: &[(&str, &str, &[Workload])] = &[
    ("protocol.decode", "us", &[ReadWhileCommit]),
    ("protocol.encode", "us", &[ReadWhileCommit, TcSubscribe]),
    ("query.parse", "us", &[ReadWhileCommit]),
    ("system.snapshot", "us", &[ReadWhileCommit]),
    ("eval.lookup", "us", &[KvLookup]),
    ("eval.first_lookup", "us", &[KvLookup]),
    ("eval.poll", "us", &[TcSubscribe]),
    ("eval.fixpoint_match", "ms", &[TcSubscribe]),
    ("display.answer", "us", &[ReadWhileCommit]),
    ("parse.document", "ms", &[KvLookup, ReadWhileCommit]),
    ("reduce.add_document", "ms", &[KvLookup]),
    ("reduce.fixpoint_doc", "ms", &[TcSubscribe, P2pSharded]),
    ("engine.step", "ms", &[TcSubscribe, ReadWhileCommit]),
    ("p2p.round", "ms", &[P2pSharded]),
];

/// Per-layer counts and ratios from the replays, with the same rule.
const LAYER_COUNTS: &[(&str, &str, &[Workload])] = &[
    ("protocol.bytes_per_op", "bytes", &[ReadWhileCommit]),
    ("engine.rounds", "count", &[TcSubscribe]),
    ("engine.invocations", "count", &[TcSubscribe]),
    ("engine.skipped", "count", &[TcSubscribe]),
    ("engine.programs_compiled", "count", &[TcSubscribe]),
    ("engine.final_nodes", "count", &[TcSubscribe]),
    ("engine.productive_frac", "ratio", &[TcSubscribe]),
    ("engine.match_cache_hit_frac", "ratio", &[TcSubscribe]),
    ("engine.program_cache_hit_frac", "ratio", &[TcSubscribe]),
    ("p2p.rounds", "count", &[P2pSharded]),
    ("p2p.evaluations", "count", &[P2pSharded]),
    ("p2p.remote_deliveries", "count", &[P2pSharded]),
    ("p2p.wire_push_bytes", "bytes", &[P2pSharded]),
];

/// The traced run: a short untraced server phase (the server's own
/// counters and the client-observed read latency the layers are
/// compared with), then the in-process replay of every workload.
fn per_layer(a: &Args, problems: &mut Vec<String>) -> std::io::Result<(Vec<Metric>, u64, u64)> {
    // p2p_sharded has no server; its server counters come from the
    // workload whose server-side layers they cross-check.
    let phase = if a.workload == P2pSharded {
        ReadWhileCommit
    } else {
        a.workload
    };
    let m = phase.run(&a.server_bin, a.seed, (a.seconds / 3.0).max(1.0), 1)?;
    let (mut attempted, mut failed) = (m.attempted, m.failed);
    problems.extend(m.failures.iter().cloned());
    let client_read_ns = summarize(&m.reads_us).map_or(0.0, |s| s.mean * 1e3);

    // (workload, its replay, the replay's self times by span name)
    let mut replays: Vec<(Workload, Replay, SelfTimes)> = Vec::new();
    for w in ALL {
        let r = w.replay(a.seed);
        attempted += r.attempted;
        failed += r.failed;
        problems.extend(
            r.failures
                .iter()
                .map(|f| format!("{} replay: {f}", w.name())),
        );
        let selfs = r.spans.self_times();
        replays.push((w, r, selfs));
    }
    if let Ok(dir) = std::env::var("CARGO_TARGET_DIR") {
        let dir = PathBuf::from(dir).join("perfbench");
        std::fs::create_dir_all(&dir)?;
        for (w, r, _) in &replays {
            let path = dir.join(format!(
                "spans-{}-{}-{}.jsonl",
                a.workload.name(),
                w.name(),
                a.seed
            ));
            let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
            r.spans.write_jsonl(&mut w)?;
            w.flush()?;
        }
        println!("spans written under {}", dir.display());
    }
    let get = |w: Workload| {
        replays
            .iter()
            .find(|(x, _, _)| *x == w)
            .expect("every workload replayed")
    };
    let order = |homes: &[Workload]| -> Vec<Workload> {
        std::iter::once(a.workload)
            .chain(homes.iter().copied())
            .collect()
    };

    let mut out = Vec::new();
    for &(span, unit, homes) in LAYER_TIMES {
        let (from, samples) = order(homes)
            .into_iter()
            .find_map(|w| get(w).2.get(span).map(|s| (w, s)))
            .unwrap_or_else(|| panic!("no replay calls {span}"));
        let s = summarize(samples).expect("spans recorded");
        let value = s.p50 / if unit == "us" { 1e3 } else { 1e6 };
        let name = format!("{span}_{unit}");
        println!(
            "{name:<28} {value:>16.3} {unit:<5} p50 of {} calls ({})",
            s.n,
            from.name()
        );
        out.push(metric(name, value, unit));
    }
    for &(name, unit, homes) in LAYER_COUNTS {
        let (from, value) = order(homes)
            .into_iter()
            .find_map(|w| get(w).1.counts.get(name).map(|v| (w, *v)))
            .unwrap_or_else(|| panic!("no replay counts {name}"));
        println!("{name:<28} {value:>16.4} {unit:<5} ({})", from.name());
        out.push(metric(name, value, unit));
    }
    // VmHWM only grows, so only the first large document shows it.
    let peak = get(KvLookup).1.counts["reduce.add_document_peak_mb"];
    println!(
        "{:<28} {peak:>16.1} MB    (kv_lookup)",
        "reduce.add_document_peak_mb"
    );
    out.push(metric("reduce.add_document_peak_mb", peak, "MB"));

    let srv = m.server.unwrap_or_default();
    for (name, v) in [
        ("server.served", srv.served),
        ("server.errors", srv.errors),
        ("server.batches_formed", srv.batches_formed),
        ("server.journal_dropped", srv.journal_dropped),
    ] {
        println!("{name:<28} {v:>16} count ({} server phase)", phase.name());
        out.push(metric(name, v as f64, "count"));
    }
    let layers_ns = get(phase).1.spans.layer_ns_per_op("op.read");
    let unattributed = if client_read_ns > 0.0 {
        1.0 - layers_ns / client_read_ns
    } else {
        0.0
    };
    println!(
        "{:<28} {unattributed:>16.4} ratio (layers {:.1} us of {:.1} us client mean, {})",
        "server.unattributed_frac",
        layers_ns / 1e3,
        client_read_ns / 1e3,
        phase.name()
    );
    out.push(metric("server.unattributed_frac", unattributed, "ratio"));
    let own = &get(a.workload).1;
    let overhead = own.overhead_frac();
    println!(
        "{:<28} {overhead:>16.4} ratio (untraced in-process read {:.1} us)",
        "trace.overhead_frac",
        own.untraced_read_ns() / 1e3
    );
    out.push(metric("trace.overhead_frac", overhead, "ratio"));
    Ok((out, attempted, failed))
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    for var in client::PINNED_ENV {
        std::env::remove_var(var);
    }
    println!(
        "perfbench workload={} seed={} seconds={} trace={} conns={} commit={} nproc={} rustc=\"{}\"",
        a.workload.name(),
        a.seed,
        a.seconds,
        u8::from(a.trace),
        match a.workload {
            KvLookup | TcSubscribe => 1,
            ReadWhileCommit => 2,
            P2pSharded => 0,
        },
        command_line("git", &["rev-parse", "--short", "HEAD"]),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        command_line("rustc", &["--version"]),
    );
    let mut problems = Vec::new();
    let result = if a.trace {
        per_layer(&a, &mut problems)
    } else {
        a.workload
            .run(&a.server_bin, a.seed, a.seconds, a.workload.segments())
            .map(|m| {
                problems.extend(m.failures.iter().cloned());
                let metrics = end_to_end(&m, &mut problems);
                let frac = m.failed as f64 / m.attempted.max(1) as f64;
                println!(
                    "failed_frac: {frac} ratio ({} of {} ops)",
                    m.failed, m.attempted
                );
                if let Some(s) = m.server {
                    println!(
                        "server: served {} errors {} batches {} journal_dropped {}",
                        s.served, s.errors, s.batches_formed, s.journal_dropped
                    );
                }
                (metrics, m.attempted, m.failed)
            })
    };
    let (metrics, attempted, failed) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("axml-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !a.trace {
        for m in &metrics {
            println!("{:<28} {:>16.4} {}", m.name, m.value, m.unit);
        }
    }
    for p in &problems {
        println!("problem: {p}");
    }
    let correct = problems.is_empty() && failed == 0 && attempted > 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(r#""{}": {{"value": {v}, "unit": "{}"}}"#, m.name, m.unit)
        })
        .collect();
    println!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
