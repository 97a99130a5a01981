//! End-to-end phases: the threaded runtime (`try_run_topology`) over a
//! workload, timed from outside the program, with every output checked.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread;
use std::time::Instant;

use crossbeam::channel::unbounded;
use fastjoin_core::hash::mix64;
use fastjoin_core::tuple::{JoinedPair, Tuple};
use fastjoin_runtime::{try_run_topology, try_run_topology_with_results, RuntimeReport};

use crate::procfs;
use crate::workload::{oracle_pairs, Workload};
use crate::{median, quantile};

/// The workload iterator handed to the runtime. The runtime pulls from it
/// on its spout thread, so its clock readings are the spout's view:
/// first pull (end of set-up), lateness against the paced
/// schedule at every pull, and the pull that finds the input exhausted.
pub struct Spout<'a> {
    tuples: std::slice::Iter<'a, Tuple>,
    pulled: u64,
    rate: Option<f64>,
    first: Option<Instant>,
    end: Option<Instant>,
    lag_us: Vec<f64>,
    /// Fixed extra work per pull (rounds of `mix64`); 0 outside the test
    /// that proves the comparison can fail.
    extra_work: u32,
    sink: u64,
}

impl<'a> Spout<'a> {
    fn new(tuples: &'a [Tuple], rate: Option<f64>, extra_work: u32) -> Self {
        Spout {
            tuples: tuples.iter(),
            pulled: 0,
            rate,
            first: None,
            end: None,
            lag_us: Vec::new(),
            extra_work,
            sink: 0,
        }
    }
}

impl Iterator for Spout<'_> {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        let i = self.pulled;
        if i == 0 {
            self.first = Some(Instant::now());
        } else if let (Some(rate), Some(first)) = (self.rate, self.first) {
            let due = i as f64 / rate;
            self.lag_us.push((first.elapsed().as_secs_f64() - due) * 1e6);
        }
        for _ in 0..self.extra_work {
            self.sink = std::hint::black_box(mix64(self.sink ^ i));
        }
        let t = self.tuples.next().copied();
        match t {
            Some(_) => self.pulled += 1,
            None => self.end = self.end.or_else(|| Some(Instant::now())),
        }
        t
    }
}

/// What one `run_topology` call measured.
pub struct Phase {
    /// Tuples ingested.
    pub tuples: u64,
    /// Call to return, seconds.
    pub wall_s: f64,
    /// Call to first pull, seconds.
    pub setup_s: f64,
    /// Exhausting pull to return, seconds.
    pub drain_s: f64,
    /// Process CPU over the call, seconds.
    pub cpu_s: f64,
    /// CPU seconds the hypervisor stole from this machine over the call.
    pub steal_s: f64,
    /// Spout lateness against its schedule at each pull, µs (paced only).
    pub lag_us: Vec<f64>,
    /// The runtime's own report.
    pub report: RuntimeReport,
}

/// Runs one phase of `w` and checks its outputs. `rate` is the spout's
/// paced rate (`None` = capacity). An `Err` is a failed phase.
pub fn run_phase(w: &Workload, rate: Option<f64>, extra_work: u32) -> Result<Phase, String> {
    let cfg = w.config(rate);
    let mut spout = Spout::new(&w.tuples, rate, extra_work);
    let cpu0 = procfs::cpu_seconds()?;
    let steal0 = procfs::steal_seconds()?;
    let call = Instant::now();
    let run = catch_unwind(AssertUnwindSafe(|| try_run_topology(&cfg, &mut spout)));
    let ret = Instant::now();
    let cpu1 = procfs::cpu_seconds()?;
    let steal1 = procfs::steal_seconds()?;
    let report = match run {
        Ok(Ok(report)) => report,
        Ok(Err(e)) => return Err(format!("{}: run failed: {e}", w.name)),
        Err(_) => return Err(format!("{}: runtime panicked", w.name)),
    };
    let (Some(first), Some(end)) = (spout.first, spout.end) else {
        return Err(format!("{}: the spout never finished pulling", w.name));
    };
    check_report(w, &report)?;
    Ok(Phase {
        tuples: report.tuples_ingested,
        wall_s: (ret - call).as_secs_f64(),
        setup_s: (first - call).as_secs_f64(),
        drain_s: (ret - end).as_secs_f64(),
        cpu_s: cpu1 - cpu0,
        steal_s: steal1 - steal0,
        lag_us: spout.lag_us,
        report,
    })
}

/// The checks every phase passes: each tuple ingested and probed once,
/// one latency sample per probe, no leaked fan-out, and on full-history
/// workloads the exact pair count.
fn check_report(w: &Workload, r: &RuntimeReport) -> Result<(), String> {
    let n = w.tuples.len() as u64;
    let fail = |what: String| Err(format!("{}: {what}", w.name));
    if r.tuples_ingested != n {
        return fail(format!("ingested {} of {n} tuples", r.tuples_ingested));
    }
    if r.probes_total != n || r.latency.count() != n {
        return fail(format!(
            "{n} tuples but {} probes and {} latency samples",
            r.probes_total,
            r.latency.count()
        ));
    }
    let leaked = r.registry.counter_sum("probe_fanout_leaked");
    if leaked != 0 {
        return fail(format!("{leaked} probe fan-out entries leaked"));
    }
    if w.window.is_none() {
        let want = oracle_pairs(&w.tuples, None);
        if r.results_total != want {
            return fail(format!("{} pairs joined, the oracle says {want}", r.results_total));
        }
    }
    Ok(())
}

/// Windowed results depend on the spout's wall-clock stamps, so a timed
/// phase cannot be checked pair by pair. This untimed run at the paced
/// rate streams every pair out and checks that each is same-key, inside
/// the window and unique by identity, and that their number equals
/// `results_total`. Missing pairs go unnoticed: the check is sound, not
/// complete.
pub fn verify_window_pairs(w: &Workload, prefix: usize) -> Result<u64, String> {
    let span = w.window.map(|win| win.span()).ok_or("verify_window_pairs needs a window")?;
    let sub = Workload {
        name: w.name,
        tuples: w.tuples[..prefix.min(w.tuples.len())].to_vec(),
        window: w.window,
        rate: w.rate,
        gen_s: 0.0,
    };
    let (tx, rx) = unbounded::<JoinedPair>();
    let checker = thread::spawn(move || -> Result<u64, String> {
        let mut ids = HashSet::new();
        for p in rx.iter() {
            if p.left.key != p.right.key {
                return Err(format!("pair {:?} joins different keys", p.identity()));
            }
            if p.left.ts.abs_diff(p.right.ts) > span {
                return Err(format!(
                    "pair {:?} is {} µs apart, window {span}",
                    p.identity(),
                    p.left.ts.abs_diff(p.right.ts)
                ));
            }
            if !ids.insert(p.identity()) {
                return Err(format!("pair {:?} joined twice", p.identity()));
            }
        }
        Ok(ids.len() as u64)
    });
    let cfg = sub.config(Some(sub.rate));
    let run = catch_unwind(AssertUnwindSafe(|| {
        try_run_topology_with_results(&cfg, sub.tuples.iter().copied(), tx)
    }));
    // The sender went into the run and is dropped with it, which ends the
    // checker's loop.
    let counted = checker.join().map_err(|_| "pair checker panicked".to_string())?;
    let report = match run {
        Ok(Ok(r)) => r,
        Ok(Err(e)) => return Err(format!("{}: verification run failed: {e}", w.name)),
        Err(_) => return Err(format!("{}: verification run panicked", w.name)),
    };
    check_report(&sub, &report)?;
    let counted = counted.map_err(|e| format!("{}: {e}", w.name))?;
    if counted != report.results_total {
        return Err(format!(
            "{}: {counted} distinct pairs streamed, results_total {}",
            w.name, report.results_total
        ));
    }
    Ok(counted)
}

/// CPUs this process may run on.
fn cpus() -> f64 {
    thread::available_parallelism().map_or(1, |n| n.get()) as f64
}

/// One phase reduced to the figures the end-to-end metrics use.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Tuples per wall second of the call.
    pub tps: f64,
    /// Probe latency p50, ms.
    pub p50_ms: f64,
    /// Probe latency p99, ms.
    pub p99_ms: f64,
    /// Latency samples.
    pub samples: u64,
    /// p99 of the spout's lateness against its schedule, ms (paced).
    pub lag_p99_ms: f64,
    /// Process CPU µs per tuple.
    pub cpu_us_per_tuple: f64,
    /// Call to first pull, s.
    pub setup_s: f64,
    /// Exhausting pull to return, s.
    pub drain_s: f64,
    /// Migration rounds triggered.
    pub rounds: u64,
    /// Share of the machine's CPU time stolen by the hypervisor.
    pub steal_frac: f64,
}

impl Phase {
    /// The phase's figures.
    pub fn summary(&self) -> Summary {
        let ms = |q: f64| self.report.latency.quantile(q).unwrap_or(0) as f64 / 1e3;
        Summary {
            tps: self.tuples as f64 / self.wall_s,
            p50_ms: ms(0.50),
            p99_ms: ms(0.99),
            samples: self.report.latency.count(),
            lag_p99_ms: quantile(self.lag_us.clone(), 0.99) / 1e3,
            cpu_us_per_tuple: self.cpu_s * 1e6 / self.tuples as f64,
            setup_s: self.setup_s,
            drain_s: self.drain_s,
            rounds: self.report.migrations(),
            steal_frac: self.steal_s / (self.wall_s * cpus()),
        }
    }
}

/// End-to-end metrics of one workload run: the median over the run's
/// phases of each phase's own figure, so one disturbed phase does not set
/// the result. Latency and CPU come from the paced phases, capacity from
/// the capacity phases, set-up from both.
pub struct EndToEnd {
    /// Capacity phases: tuples per wall second of the call.
    pub capacity_tps: f64,
    /// Probe latency p50, ms.
    pub latency_p50_ms: f64,
    /// Latency samples per paced phase.
    pub latency_samples: u64,
    /// Process CPU µs per tuple.
    pub cpu_us_per_tuple: f64,
    /// Call to first pull, s.
    pub setup_s: f64,
}

impl EndToEnd {
    /// Summarizes `capacity` and `paced` phases.
    pub fn of(capacity: &[Summary], paced: &[Summary]) -> EndToEnd {
        let each =
            |phases: &[Summary], f: fn(&Summary) -> f64| median(phases.iter().map(f).collect());
        EndToEnd {
            capacity_tps: each(capacity, |p| p.tps),
            latency_p50_ms: each(paced, |p| p.p50_ms),
            latency_samples: paced.first().map_or(0, |p| p.samples),
            cpu_us_per_tuple: each(paced, |p| p.cpu_us_per_tuple),
            setup_s: median(capacity.iter().chain(paced).map(|p| p.setup_s).collect()),
        }
    }
}
