//! The benchmark's capacity comparison is not vacuous: fixed extra work on
//! the spout thread, inside the benchmark's own workload iterator, must be
//! reported as worse under the bound `BENCHMARK.json` fixes. The work is
//! sized to cost 40% of `capacity_tps`, clear of the 0.25 bound.

use std::hint::black_box;
use std::time::Instant;

use fastjoin_core::hash::mix64;
use fjbench::compare::{bounds, judge};
use fjbench::e2e::run_phase;
use fjbench::workload::Workload;

/// Wall ns of one round of the spout's extra work.
fn ns_per_round() -> f64 {
    let rounds = 20_000_000u64;
    let started = Instant::now();
    let mut x = 0u64;
    for i in 0..rounds {
        x = black_box(mix64(x ^ i));
    }
    black_box(x);
    started.elapsed().as_nanos() as f64 / rounds as f64
}

fn capacity_tps(w: &Workload, extra_work: u32) -> f64 {
    let p = run_phase(w, None, extra_work).expect("capacity phase passes its checks");
    p.tuples as f64 / p.wall_s
}

#[test]
fn extra_spout_work_fails_the_capacity_comparison() {
    let bench = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark");
    let bound = bounds(&bench)
        .expect("BENCHMARK.json parses")
        .into_iter()
        .find(|b| b.name == "capacity_tps")
        .expect("capacity_tps has a bound");
    let w = Workload::generate("ridehail_skew", 11).expect("known workload");

    // Size the work on this host. Spout work partly overlaps the executor
    // threads, so a loss of `TARGET` needs more than `TARGET` of the wall
    // time per tuple: start at that and scale by the loss measured.
    const TARGET: f64 = 0.40;
    let base_tps = capacity_tps(&w, 0);
    let mut extra = (TARGET * 1e9 / base_tps / ns_per_round()).round();
    for _ in 0..3 {
        let loss = 1.0 - capacity_tps(&w, extra as u32) / base_tps;
        extra = (extra * (TARGET / loss.max(0.05)).min(4.0)).round();
    }
    let extra = extra as u32;
    let (mut base, mut slowed) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        base.push(capacity_tps(&w, 0));
        slowed.push(capacity_tps(&w, extra));
    }
    let v = judge(&bound, &base, &slowed);
    eprintln!(
        "capacity_tps base {:.0}, with {extra} rounds of spout work {:.0} ({:+.1}%), bound {}",
        v.base,
        v.new,
        (v.new / v.base - 1.0) * 100.0,
        bound.bound
    );
    assert!(
        v.worse,
        "a {:.1}% capacity loss passed the comparison",
        (1.0 - v.new / v.base) * 100.0
    );
}
