//! Criterion micro-benchmarks — the sharded dispatcher's per-tuple probe
//! path in ns/op: routing one tuple through `dispatch_into_with_seq` with
//! the cross-shard shared sequence counter (what every shard pays per
//! tuple) against the single-threaded internal-counter baseline, plus the
//! off-path snapshot costs (taking and installing a whole-table
//! `RouteSnapshot`, what a route flip costs each shard).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

use fastjoin_core::dispatcher::{Dispatch, Dispatcher};
use fastjoin_core::partition::HashPartitioner;
use fastjoin_core::tuple::Tuple;

fn dispatcher48() -> Dispatcher {
    Dispatcher::new(Box::new(HashPartitioner::new(48, 0)), Box::new(HashPartitioner::new(48, 1)))
}

fn bench_probe_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("shard_probe_path");
    group.throughput(Throughput::Elements(1));
    // The single-threaded baseline: the dispatcher's own monotone counter.
    group.bench_function("internal_seq", |b| {
        let mut d = dispatcher48();
        let mut out = Dispatch::default();
        let mut k = 0u64;
        b.iter(|| {
            k = k.wrapping_add(1);
            d.dispatch_into(Tuple::s(k % 10_000, k, 0), &mut out);
            black_box(out.store_dest)
        });
    });
    // The sharded hot path: one `fetch_add` on the shared cross-shard
    // counter per tuple, then the same routing work. The delta between
    // these two is the per-tuple cost of shard-unique sequence numbers.
    group.bench_function("shared_seq", |b| {
        let mut d = dispatcher48();
        let seq = AtomicU64::new(1);
        let mut out = Dispatch::default();
        let mut k = 0u64;
        b.iter(|| {
            k = k.wrapping_add(1);
            let s = seq.fetch_add(1, Ordering::Relaxed);
            d.dispatch_into_with_seq(Tuple::s(k % 10_000, k, 0), s, &mut out);
            black_box(out.store_dest)
        });
    });
    group.finish();
}

fn bench_snapshot(c: &mut Criterion) {
    let mut group = c.benchmark_group("shard_snapshot");
    group.throughput(Throughput::Elements(1));
    // What the sequencer pays to publish: one deep copy of both
    // partitioners per shard per route flip.
    group.bench_function("take48", |b| {
        let d = dispatcher48();
        let mut epoch = 0u64;
        b.iter(|| {
            epoch += 1;
            black_box(d.route_snapshot(epoch))
        });
    });
    // What a shard pays to go live on a new epoch (minus the flush, which
    // is workload-dependent): swapping the routing tables in place.
    group.bench_function("install48", |b| {
        let mut d = dispatcher48();
        let snap = d.route_snapshot(1);
        b.iter(|| d.install_routes(black_box(snap.clone())));
    });
    group.finish();
}

criterion_group!(benches, bench_probe_path, bench_snapshot);
criterion_main!(benches);
