//! `fjbench --workload <name> --seed <n> --seconds <s> --trace <0|1>` runs
//! one workload and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` (phases) and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`.
//!
//! `fjbench compare <base> <new>` reads result lines from two files and
//! reports every end-to-end metric whose median worsened by more than its
//! bound in `BENCHMARK.json`; it exits 1 if any did.

use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use fastjoin_core::metrics::MetricValue;
use fastjoin_runtime::{RuntimeConfig, RuntimeReport};
use fjbench::compare::{bounds, judge, metric};
use fjbench::e2e::{run_phase, verify_window_pairs, EndToEnd, Summary};
use fjbench::layers::{self, Layer, SelfTimes};
use fjbench::workload::{Workload, NAMES};
use fjbench::{median, procfs};

/// Tuples in the untimed pair-by-pair verification of a windowed workload.
const VERIFY_PREFIX: usize = 100_000;

/// Where the traced run writes its spans.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// The `BENCHMARK.json` this benchmark belongs to.
const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 0, seconds: 0.0, trace: false };
    let mut seen = [false; 4];
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                args.workload = value.clone();
                seen[0] = true;
            }
            "--seed" => {
                args.seed = value.parse().map_err(|_| bad("expected a whole number"))?;
                seen[1] = true;
            }
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| bad("expected a whole number"))?;
                if s == 0 {
                    return Err(bad("must be at least 1"));
                }
                args.seconds = s as f64;
                seen[2] = true;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                };
                seen[3] = true;
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if seen.iter().any(|s| !s) {
        return Err(
            "usage: fjbench --workload <name> --seed <n> --seconds <s> --trace <0|1>".into()
        );
    }
    if !NAMES.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}; one of {NAMES:?}", args.workload));
    }
    Ok(args)
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Phases attempted and failed; each failure is printed to stderr.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn keep<T>(&mut self, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("FAILED: {e}");
                None
            }
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match compare(&argv[1..]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = Workload::generate(&args.workload, args.seed) else {
        eprintln!("error: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let mut tally = Tally::default();
    let metrics = if args.trace {
        per_layer(&w, &args, &mut tally)
    } else {
        end_to_end(&w, &args, &mut tally)
    };
    let metrics = match metrics {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    let mut line = String::new();
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", x.name, finite(x.value), x.unit)
        })
        .collect();
    let _ = write!(
        line,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    println!("{line}");
    ExitCode::SUCCESS
}

/// JSON has no NaN or infinity.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Share of the measured time given to paced phases. A capacity phase is
/// shorter and its throughput spreads more, so it gets the larger share
/// and more samples; the paced figures (latency, CPU) spread little.
const PACED_SHARE: f64 = 0.45;

/// Capacity and paced phases until `--seconds` is used up, then the
/// untimed windowed verification. Before each phase, a paced one runs if
/// paced phases have had less than [`PACED_SHARE`] of the time so far.
fn end_to_end(w: &Workload, args: &Args, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let started = Instant::now();
    // Warm-up: thread stacks, allocator arenas and page faults land here,
    // not in the first measured phase. Its outputs are still checked.
    tally.keep(run_phase(w, None, 0));
    let mut capacity_len = started.elapsed().as_secs_f64();
    // Peak memory of one capacity run in a fresh process. Read later, the
    // high-water mark would grow with the number of phases that fit, as
    // each phase's new threads fill more allocator arenas.
    let peak_rss_mb = procfs::peak_rss_mb()?;
    let paced_len = w.tuples.len() as f64 / w.rate;
    let (mut capacity, mut paced) = (Vec::new(), Vec::new());
    let (mut capacity_s, mut paced_s) = (0.0, 0.0);
    loop {
        let run_paced = paced_s < PACED_SHARE * (capacity_s + paced_s);
        let next_len = if run_paced { paced_len } else { capacity_len };
        let used = started.elapsed().as_secs_f64();
        // Every run measures at least one phase of each kind.
        if used + next_len > args.seconds && !capacity.is_empty() && !paced.is_empty() {
            break;
        }
        let phase = Instant::now();
        if run_paced {
            paced.extend(
                tally.keep(run_phase(w, Some(w.rate), 0)).map(|p| show("paced", p.summary())),
            );
            paced_s += phase.elapsed().as_secs_f64();
        } else {
            capacity
                .extend(tally.keep(run_phase(w, None, 0)).map(|p| show("capacity", p.summary())));
            capacity_len = phase.elapsed().as_secs_f64();
            capacity_s += capacity_len;
        }
    }
    if w.window.is_some() {
        if let Some(pairs) = tally.keep(verify_window_pairs(w, VERIFY_PREFIX)) {
            println!("verified {pairs} windowed pairs one by one ({VERIFY_PREFIX} tuples)");
        }
    }
    let e = EndToEnd::of(&capacity, &paced);
    println!(
        "{}: {} tuples, {} capacity + {} paced phases at {} tuples/s, {} latency samples per \
         paced phase, {} of {} phases failed",
        w.name,
        w.tuples.len(),
        capacity.len(),
        paced.len(),
        w.rate,
        e.latency_samples,
        tally.failed,
        tally.attempted
    );
    Ok(vec![
        m("capacity_tps", e.capacity_tps, "1/s"),
        m("latency_p50_ms", e.latency_p50_ms, "ms"),
        m("cpu_us_per_tuple", e.cpu_us_per_tuple, "us"),
        m("setup_s", e.setup_s, "s"),
        m("peak_rss_mb", peak_rss_mb, "MiB"),
    ])
}

/// One line per measured phase.
fn show(kind: &str, p: Summary) -> Summary {
    println!(
        "  {kind:<8} {:>9.0} tuples/s  p50 {:.3} ms  p99 {:.3} ms  lag p99 {:.3} ms  \
         cpu {:.2} us/tuple  setup {:.6} s  drain {:.3} s  rounds {}  steal {:.1}%",
        p.tps,
        p.p50_ms,
        p.p99_ms,
        p.lag_p99_ms,
        p.cpu_us_per_tuple,
        p.setup_s,
        p.drain_s,
        p.rounds,
        p.steal_frac * 100.0,
    );
    p
}

fn per_tuple(count: u64, tuples: u64) -> f64 {
    if tuples == 0 {
        0.0
    } else {
        count as f64 / tuples as f64
    }
}

/// Share of sampled monitor periods in which an instance held tuples for
/// a migration (`*.mig_buffered` series).
fn mig_buffered_frac(r: &RuntimeReport) -> f64 {
    let (mut busy, mut all) = (0u64, 0u64);
    for (name, v) in r.registry.iter() {
        if let (true, MetricValue::Series(s)) = (name.ends_with(".mig_buffered"), v) {
            for (&sum, &count) in s.sums().iter().zip(s.counts()) {
                if count > 0 {
                    all += 1;
                    busy += u64::from(sum > 0.0);
                }
            }
        }
    }
    per_tuple(busy, all)
}

/// Highest queue-depth high-watermark gauge of any executor.
fn queue_depth_hwm(r: &RuntimeReport) -> f64 {
    r.registry
        .iter()
        .filter_map(|(name, v)| match v {
            MetricValue::Gauge(g) if name.ends_with(".depth") => Some(*g),
            _ => None,
        })
        .fold(0.0, f64::max)
}

/// Mean live LI over both groups' monitor periods.
fn li_mean(r: &RuntimeReport) -> f64 {
    let li: Vec<f64> =
        r.imbalance.iter().flatten().flat_map(|s| s.means().into_iter().flatten()).collect();
    if li.is_empty() {
        0.0
    } else {
        li.iter().sum::<f64>() / li.len() as f64
    }
}

/// The traced run: one capacity and one paced phase for the report's
/// counts, then untraced and traced replays alternating until `--seconds`
/// is used up, then the channel and selection microbenchmarks.
fn per_layer(w: &Workload, args: &Args, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let started = Instant::now();
    let mut gen_s = vec![w.gen_s];
    for _ in 0..2 {
        gen_s.extend(Workload::generate(w.name, args.seed).map(|x| x.gen_s));
    }
    let cap = tally.keep(run_phase(w, None, 0)).ok_or("the capacity phase failed")?;
    let paced = tally.keep(run_phase(w, Some(w.rate), 0)).ok_or("the paced phase failed")?;
    let paced_summary = show("paced", paced.summary());
    let input = layers::scheduled(w);
    let clock_ns = layers::clock_overhead_ns();

    let mut st_wall = Vec::new();
    let mut traced_wall = Vec::new();
    let mut layer_ns: Vec<[f64; 7]> = Vec::new();
    let mut last = None;
    loop {
        let round = Instant::now();
        if let Some(r) = tally.keep(layers::replay(w, &input, false)) {
            st_wall.push(r.wall_s);
        }
        if let Some(r) = tally.keep(layers::replay(w, &input, true)) {
            traced_wall.push(r.wall_s);
            let st = SelfTimes::from_spans(&r.spans, clock_ns);
            layer_ns.push([
                st.per_op(Layer::Insert),
                st.per_op(Layer::Probe),
                if r.expired == 0 {
                    0.0
                } else {
                    st.total(Layer::Expire).0 as f64 / r.expired as f64
                },
                st.step_ns(),
                st.per_op(Layer::Route),
                st.per_op(Layer::OnProbe),
                st.per_op(Layer::TracePush),
            ]);
            last = Some(r);
        }
        let left = args.seconds - started.elapsed().as_secs_f64();
        if left < round.elapsed().as_secs_f64() {
            break;
        }
    }
    let last = last.ok_or("every traced replay failed")?;
    let col = |i: usize| median(layer_ns.iter().map(|v| v[i]).collect());
    let (insert_ns, probe_ns, expire_ns, step_ns, route_ns, on_probe_ns, push_ns) =
        (col(0), col(1), col(2), col(3), col(4), col(5), col(6));

    let batch = RuntimeConfig::default().batch_size;
    let mut hop = Vec::new();
    let mut batch_hop = Vec::new();
    for _ in 0..3 {
        hop.extend(tally.keep(layers::hop_ns(200_000, |i| (i, 1u32, [i; 3]))));
        let tuples = &w.tuples;
        batch_hop.extend(tally.keep(layers::hop_ns(20_000, move |i| {
            let at = (i as usize * batch) % (tuples.len() - batch);
            tuples[at..at + batch].to_vec()
        })));
    }
    let (hop_ns, batch_hop_ns) = (median(hop), median(batch_hop));
    let plan_us = layers::plan_us(w, &last.plan_inputs, 25);

    // Ops per tuple, counted from the threaded capacity run's report.
    let rc = &cap.report;
    let t = rc.tuples_ingested;
    let sum = |f: fn(&fastjoin_core::instance::InstanceCounters) -> u64| -> u64 {
        rc.counters.iter().flatten().map(f).sum()
    };
    let (stored, probed, expired, moved_in) =
        (sum(|c| c.stored), sum(|c| c.probed), sum(|c| c.expired), sum(|c| c.migrated_in));
    let copies = rc.registry.counter("dispatcher.probe_copies");
    let rounds_cap: u64 = rc.monitor_stats.iter().flatten().map(|s| s.triggered).sum();
    // Data batches per tuple: one spout batch, one store batch and one
    // per probe copy, each carrying up to `batch` tuples (full at capacity).
    let batches = (2.0 + per_tuple(copies, t)) / batch as f64;
    let ladder = [
        ("state.insert", insert_ns, per_tuple(stored + moved_in, t)),
        ("state.probe", probe_ns, per_tuple(probed, t)),
        ("state.expire", expire_ns, per_tuple(expired, t)),
        ("instance.step", step_ns, per_tuple(stored + probed, t)),
        (
            "dispatcher.route",
            route_ns,
            per_tuple(rc.registry.counter("dispatcher.tuples_ingested"), t),
        ),
        ("accounting.on_probe", on_probe_ns, per_tuple(copies, t)),
        ("channel.hop", hop_ns, per_tuple(copies, t)),
        ("channel.batch_hop", batch_hop_ns, batches),
        ("trace.push", push_ns, 1.0 + per_tuple(stored + probed, t)),
        ("selection.plan", plan_us * 1e3, per_tuple(rounds_cap, t)),
    ];
    let sum_ns: f64 = ladder.iter().map(|(_, ns, ops)| ns * ops).sum();
    let cpu_ns = cap.cpu_s * 1e9 / t as f64;
    println!(
        "{}: layer ladder at capacity ({t} tuples, {} traced replays)",
        w.name,
        layer_ns.len()
    );
    println!("  {:<22} {:>12} {:>12} {:>12}", "layer", "ns/op", "ops/tuple", "ns/tuple");
    for (name, ns, ops) in &ladder {
        println!("  {name:<22} {ns:>12.1} {ops:>12.4} {:>12.1}", ns * ops);
    }
    println!("  {:<22} {:>38.1}", "sum", sum_ns);
    println!("  {:<22} {:>38.1}", "measured cpu", cpu_ns);

    // Report-derived metrics: bottleneck signals at capacity, balancing
    // and queueing in the paced phase.
    let rp = &paced.report;
    let tp = rp.tuples_ingested;
    let stats = rp.monitor_stats.iter().flatten();
    let rounds: u64 = stats.clone().map(|s| s.triggered).sum();
    let effective: u64 = stats.clone().map(|s| s.effective).sum();
    let tuples_moved: u64 = stats.map(|s| s.tuples_moved).sum();
    let flips: Vec<f64> = rp
        .migration_spans
        .iter()
        .flatten()
        .filter_map(|s| s.route_flip_us)
        .map(|u| u as f64)
        .collect();
    let trace_events = rc.registry.counter("trace.events") + rc.registry.counter("trace.dropped");

    write_spans(w, args.seed, &last.spans)?;
    Ok(vec![
        m("state.insert_ns", insert_ns, "ns"),
        m("state.insert_per_tuple", per_tuple(stored + moved_in, t), "count"),
        m("state.probe_ns", probe_ns, "ns"),
        m("state.probe_per_tuple", per_tuple(probed, t), "count"),
        m("state.scanned_per_probe", per_tuple(last.scanned, last.probes), "count"),
        m("state.match_frac", per_tuple(last.matches, last.scanned), "ratio"),
        m("state.expire_ns", expire_ns, "ns"),
        m("state.expire_per_tuple", per_tuple(expired, t), "count"),
        m("instance.step_ns", step_ns, "ns"),
        m("instance.step_per_tuple", per_tuple(stored + probed, t), "count"),
        m("instance.mig_buffered_frac", mig_buffered_frac(rp), "ratio"),
        m("dispatcher.route_ns", route_ns, "ns"),
        m("dispatcher.probe_copies_per_tuple", per_tuple(copies, t), "count"),
        m(
            "dispatcher.sends_parked_per_ktuple",
            per_tuple(rc.registry.counter("dispatcher.sends_parked") * 1000, t),
            "count",
        ),
        m("monitor.li_mean", li_mean(rp), "ratio"),
        m("monitor.route_flip_p50_us", median(flips), "us"),
        m("monitor.rounds", rounds as f64, "count"),
        m("monitor.effective_frac", per_tuple(effective, rounds), "ratio"),
        m("monitor.tuples_moved", tuples_moved as f64, "count"),
        m("selection.plan_us", plan_us, "us"),
        m("channel.hop_ns", hop_ns, "ns"),
        m("channel.hop_per_tuple", per_tuple(copies, t), "count"),
        m("channel.batch_hop_ns", batch_hop_ns, "ns"),
        m("channel.batch_hop_per_tuple", batches, "count"),
        m("topology.latency_p99_ms", paced_summary.p99_ms, "ms"),
        m("spout.pacing_lag_p99_ms", paced_summary.lag_p99_ms, "ms"),
        m("topology.drain_s", paced_summary.drain_s, "s"),
        m(
            "topology.sends_parked_per_ktuple",
            per_tuple(rp.registry.counter_sum("sends_parked") * 1000, tp),
            "count",
        ),
        m("topology.queue_depth_hwm", queue_depth_hwm(rp), "count"),
        m("accounting.on_probe_ns", on_probe_ns, "ns"),
        m("accounting.on_probe_per_tuple", per_tuple(copies, t), "count"),
        m("trace.push_ns", push_ns, "ns"),
        m("trace.push_per_tuple", 1.0 + per_tuple(stored + probed, t), "count"),
        m("trace.events_per_ktuple", per_tuple(trace_events * 1000, t), "count"),
        m("datagen.gen_s", median(gen_s), "s"),
        m("ladder.sum_ns_per_tuple", sum_ns, "ns"),
        m("ladder.cpu_ns_per_tuple", cpu_ns, "ns"),
        m("ladder.residue_frac", 1.0 - sum_ns / cpu_ns, "ratio"),
        m("baseline.st_tps", w.tuples.len() as f64 / median(st_wall.clone()), "1/s"),
        m("baseline.span_overhead_frac", median(traced_wall) / median(st_wall) - 1.0, "ratio"),
    ])
}

/// Writes the last traced replay's spans as JSON lines under `out/`.
fn write_spans(w: &Workload, seed: u64, spans: &[layers::Span]) -> Result<(), String> {
    let path = format!("{OUT_DIR}/spans-{}-{seed}.jsonl", w.name);
    let io = |e: std::io::Error| format!("{path}: {e}");
    std::fs::create_dir_all(OUT_DIR).map_err(io)?;
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path).map_err(io)?);
    for s in spans {
        writeln!(
            f,
            "{{\"name\": \"{}\", \"id\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}}}",
            s.layer.name(),
            s.id,
            s.start_ns,
            s.end_ns,
            if s.parent == layers::ROOT { -1 } else { i64::from(s.parent) }
        )
        .map_err(io)?;
    }
    f.flush().map_err(io)?;
    println!("wrote {} spans to {path}", spans.len());
    Ok(())
}

/// `compare <base> <new>`: both files hold result lines of one workload.
fn compare(argv: &[String]) -> Result<bool, String> {
    let [base, new] = argv else {
        return Err("usage: fjbench compare <base results> <new results>".into());
    };
    let bench =
        std::fs::read_to_string(BENCHMARK_JSON).map_err(|e| format!("{BENCHMARK_JSON}: {e}"))?;
    let read = |p: &String| -> Result<Vec<String>, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Ok(text.lines().filter(|l| l.starts_with('{')).map(str::to_string).collect())
    };
    let (base, new) = (read(base)?, read(new)?);
    let mut ok = true;
    for b in bounds(&bench)? {
        let values = |lines: &[String]| -> Vec<f64> {
            lines.iter().filter_map(|l| metric(l, &b.name)).collect()
        };
        let (bv, nv) = (values(&base), values(&new));
        if bv.is_empty() || nv.is_empty() {
            continue;
        }
        let v = judge(&b, &bv, &nv);
        ok &= !v.worse;
        println!(
            "{:<20} base {:>14.4}  new {:>14.4}  {}",
            b.name,
            v.base,
            v.new,
            if v.worse { "WORSE" } else { "within bound" }
        );
    }
    Ok(ok)
}
