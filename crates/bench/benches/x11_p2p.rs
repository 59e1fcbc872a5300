//! X11 — §2.2/§6: the P2P network. Pull vs push wall time over a star
//! of store peers, and the distributed termination detector's overhead.
//! Shape: push and pull converge to the same state; push's advantage
//! grows with the number of peers (it stops messaging once stable).

use axml_bench::star_network;
use axml_p2p::{detect_termination, Mode};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench_pull_vs_push(c: &mut Criterion) {
    let mut g = c.benchmark_group("x11/propagation");
    g.sample_size(10).measurement_time(Duration::from_secs(2));
    for &k in &[2usize, 8] {
        g.bench_with_input(BenchmarkId::new("pull-6rounds", k), &k, |b, &k| {
            b.iter(|| {
                let mut net = star_network(k, Mode::Pull, None);
                for _ in 0..6 {
                    net.step_round().unwrap();
                }
                net.stats.calls_sent
            })
        });
        g.bench_with_input(BenchmarkId::new("push-6rounds", k), &k, |b, &k| {
            b.iter(|| {
                let mut net = star_network(k, Mode::Push, None);
                for _ in 0..6 {
                    net.step_round().unwrap();
                }
                net.stats.calls_sent
            })
        });
    }
    g.finish();
}

fn bench_termination_detector(c: &mut Criterion) {
    let mut g = c.benchmark_group("x11/termination-detect");
    g.sample_size(10).measurement_time(Duration::from_secs(2));
    for &k in &[2usize, 8] {
        g.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| {
                let mut net = star_network(k, Mode::Pull, None);
                detect_termination(&mut net, 100, |_, _| {}).unwrap()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_pull_vs_push, bench_termination_detector);
criterion_main!(benches);
