//! The traced run: a single-threaded replay of a workload through the
//! public core calls the runtime's executors make — `dispatch_into`,
//! `handle`/`process_next`, `collect_expired`/`take_load_report`,
//! `on_report`/`maybe_trigger`, `ProbeAccountant::on_probe` and
//! `TraceRing::push_sampled` — with a span around each call, plus the
//! microbenchmarks for what a replay has no call for (channel hops, key
//! selection).
//!
//! The store call inside `process_next` cannot be wrapped from outside
//! the program, so the replay re-executes every store insert and probe on
//! a per-group shadow [`TupleStore`]. A key lives on one instance of its
//! group at a time, so the shadow's buckets have the sizes the real ones
//! had. Instance cost is the `handle`+`process_next` span minus the
//! shadow store spans of the same tuple.

use std::collections::VecDeque;
use std::hint::black_box;
use std::thread;
use std::time::Instant;

use crossbeam::channel::bounded;
use fastjoin_core::dispatcher::{Dispatch, Dispatcher};
use fastjoin_core::instance::{JoinInstance, Work};
use fastjoin_core::monitor::Monitor;
use fastjoin_core::partition::HashPartitioner;
use fastjoin_core::protocol::{Effects, InstanceMsg};
use fastjoin_core::selection::{make_selector, KeySelector};
use fastjoin_core::state::TupleStore;
use fastjoin_core::trace::{Actor, TraceEvent, TraceKind, TraceRing};
use fastjoin_core::tuple::{Side, Tuple};
use fastjoin_runtime::{ProbeAccountant, RuntimeConfig};

use crate::median;
use crate::workload::{oracle_pairs, Workload, COOLDOWN_US, INSTANCES, MONITOR_PERIOD_MS, THETA};

/// Trace one tuple in this many.
pub const SAMPLE_EVERY: usize = 32;

/// A span's layer: which public call it wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Root: everything the replay does for one tuple.
    Tuple,
    /// `Dispatcher::dispatch_into`.
    Route,
    /// `JoinInstance::handle` + `process_next` for one delivery.
    Step,
    /// `TupleStore::insert` (shadow).
    Insert,
    /// `TupleStore::probe` (shadow), fully consumed.
    Probe,
    /// `TupleStore::expire` (shadow).
    Expire,
    /// `ProbeAccountant::on_probe`.
    OnProbe,
    /// `TraceRing::push_sampled`.
    TracePush,
    /// Root: one monitor period.
    Tick,
    /// `collect_expired` + `take_load_report` on one instance.
    Report,
    /// `Monitor::on_report` for a group + `maybe_trigger`.
    Monitor,
}

impl Layer {
    /// Span name as written to the span file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Tuple => "tuple",
            Layer::Route => "dispatcher.route",
            Layer::Step => "instance.step",
            Layer::Insert => "state.insert",
            Layer::Probe => "state.probe",
            Layer::Expire => "state.expire",
            Layer::OnProbe => "accounting.on_probe",
            Layer::TracePush => "trace.push",
            Layer::Tick => "tick",
            Layer::Report => "instance.report",
            Layer::Monitor => "monitor.trigger",
        }
    }
}

/// No parent.
pub const ROOT: u32 = u32::MAX;

/// One timed call. Spans of one tuple share its dispatch seq as `id`;
/// spans of one monitor period share the period number.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The wrapped call.
    pub layer: Layer,
    /// Tuple seq or period number.
    pub id: u64,
    /// Start, ns since the replay began.
    pub start_ns: u64,
    /// End, ns since the replay began.
    pub end_ns: u64,
    /// Index of the parent span, or [`ROOT`].
    pub parent: u32,
}

/// In-memory span recorder. Disabled, it records nothing and reads no
/// clock.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn open(&mut self, on: bool, layer: Layer, id: u64, parent: Option<u32>) -> Option<u32> {
        if !on {
            return None;
        }
        let idx = self.spans.len();
        self.spans.push(Span { layer, id, start_ns: 0, end_ns: 0, parent: parent.unwrap_or(ROOT) });
        // Read the clock last, so the push above stays outside the span.
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        if let Some(s) = self.spans.get_mut(idx) {
            s.start_ns = start_ns;
            s.end_ns = start_ns;
        }
        Some(idx as u32)
    }

    fn close(&mut self, span: Option<u32>) {
        if let Some(i) = span {
            let end = self.origin.elapsed().as_nanos() as u64;
            if let Some(s) = self.spans.get_mut(i as usize) {
                s.end_ns = end;
            }
        }
    }
}

struct Group {
    side: Side,
    instances: Vec<JoinInstance>,
    rings: Vec<TraceRing>,
    monitor: Monitor,
    selector: Box<dyn KeySelector + Send>,
    shadow: TupleStore,
}

/// What one replay measured.
pub struct Replay {
    /// Wall seconds for the whole replay.
    pub wall_s: f64,
    /// Event time of the tuple being replayed, µs.
    now: u64,
    /// Tuples replayed.
    pub tuples: u64,
    /// Spans (empty for an untraced replay).
    pub spans: Vec<Span>,
    /// Bucket entries scanned by probes (`Work::Probe::bucket`).
    pub scanned: u64,
    /// Probes processed.
    pub probes: u64,
    /// Pairs matched.
    pub matches: u64,
    /// Tuples the shadow store expired.
    pub expired: u64,
    /// Migration rounds triggered.
    pub rounds: u64,
    /// Per-key statistics of each group's heaviest instance, with its and
    /// the lightest instance's load, as the selector would see them.
    pub plan_inputs: Vec<PlanInput>,
}

/// Inputs of one key-selection call.
pub struct PlanInput {
    src: fastjoin_core::load::InstanceLoad,
    dst: fastjoin_core::load::InstanceLoad,
    keys: Vec<fastjoin_core::load::KeyStat>,
}

/// The replay's input: the workload with event times on the paced
/// phase's schedule (`i / rate`), so windows hold as many tuples as in
/// the paced run.
pub fn scheduled(w: &Workload) -> Vec<Tuple> {
    let us_per_tuple = 1e6 / w.rate;
    w.tuples
        .iter()
        .enumerate()
        .map(|(i, t)| Tuple { ts: (i as f64 * us_per_tuple) as u64, ..*t })
        .collect()
}

/// The replay's state: the same components the runtime's executors own,
/// wired synchronously with FIFO delivery.
struct Replayer<'a> {
    w: &'a Workload,
    traced: bool,
    span: Option<u64>,
    theta_gap: f64,
    groups: [Group; 2],
    dispatcher: Dispatcher,
    accountant: ProbeAccountant,
    fx: Effects,
    /// Control messages awaiting delivery: `(group, instance, msg)`.
    ctrl: VecDeque<(usize, usize, InstanceMsg)>,
    works: Vec<Work>,
    tr: Tracer,
    out: Replay,
}

impl Replayer<'_> {
    /// Delivers `msg` to instance `idx` of group `g` and runs its pending
    /// work (traced as one step when `on`).
    fn deliver(
        &mut self,
        g: usize,
        idx: usize,
        msg: InstanceMsg,
        on: bool,
        root: Option<u32>,
    ) -> Result<(), String> {
        let seq = if let InstanceMsg::Data(t) = &msg { t.seq } else { 0 };
        let s = self.tr.open(on, Layer::Step, seq, root);
        let group = &mut self.groups[g];
        group.instances[idx]
            .handle(msg, group.selector.as_mut(), self.theta_gap, &mut self.fx)
            .map_err(|e| format!("{}: replay: protocol violation: {e}", self.w.name))?;
        while let Some(work) = group.instances[idx].process_next(&mut self.fx) {
            self.works.push(work);
        }
        self.tr.close(s);
        self.book(g, idx, on, root)?;
        self.route_effects(g)
    }

    /// Books each processed tuple through the shadow store, the
    /// accountant and the instance's trace ring.
    fn book(&mut self, g: usize, idx: usize, on: bool, root: Option<u32>) -> Result<(), String> {
        let group = &mut self.groups[g];
        for work in self.works.drain(..) {
            let (kind, seq, aux) = match work {
                Work::Store { tuple } => {
                    if self.traced {
                        let s = self.tr.open(on, Layer::Insert, tuple.seq, root);
                        group.shadow.insert(tuple);
                        self.tr.close(s);
                    }
                    (TraceKind::StoreDone, tuple.seq, 0)
                }
                Work::Probe { tuple, bucket, matches, .. } => {
                    self.out.scanned += bucket;
                    self.out.probes += 1;
                    self.out.matches += matches;
                    if self.traced {
                        let min_ts = self.span.map_or(0, |sp| tuple.ts.saturating_sub(sp));
                        let s = self.tr.open(on, Layer::Probe, tuple.seq, root);
                        black_box(group.shadow.probe(&tuple, min_ts).count());
                        self.tr.close(s);
                    }
                    // Hash partitioning: every probe has fan-out 1.
                    let s = self.tr.open(on, Layer::OnProbe, tuple.seq, root);
                    let booked = self.accountant.on_probe(tuple.seq, 1, 0);
                    self.tr.close(s);
                    booked.map_err(|e| format!("{}: replay: accounting: {e}", self.w.name))?;
                    (TraceKind::ProbeDone, tuple.seq, matches)
                }
            };
            let ring = &mut group.rings[idx];
            let ev =
                TraceEvent { at_us: 0, actor: ring.actor(), kind, seq, epoch: 0, aux, aux2: 0 };
            let s = self.tr.open(on, Layer::TracePush, seq, root);
            ring.push_sampled(ev);
            self.tr.close(s);
        }
        Ok(())
    }

    /// Routes the effects of a call on group `g`, as the runtime does:
    /// peer messages and route confirmations queue as control messages,
    /// route flips apply at the dispatcher, completions reach the monitor.
    fn route_effects(&mut self, g: usize) -> Result<(), String> {
        let group = &mut self.groups[g];
        for (to, msg) in self.fx.sends.drain(..) {
            self.ctrl.push_back((g, to, msg));
        }
        for req in self.fx.route_requests.drain(..) {
            if !self.dispatcher.apply_route(group.side, &req) {
                return Err(format!(
                    "{}: replay: the hash partitioner refused a route",
                    self.w.name
                ));
            }
            self.ctrl.push_back((g, req.source, InstanceMsg::RouteUpdated { epoch: req.epoch }));
        }
        let now = self.out.now;
        for done in self.fx.migration_done.drain(..) {
            group.monitor.on_migration_done(done, now);
        }
        Ok(())
    }

    /// Delivers queued control messages (the migration protocol) in FIFO
    /// order until none is left.
    fn drain_ctrl(&mut self) -> Result<(), String> {
        while let Some((g, idx, msg)) = self.ctrl.pop_front() {
            self.deliver(g, idx, msg, false, None)?;
        }
        Ok(())
    }

    /// One monitor period: every instance reports (expiring its window
    /// first, as the runtime's report handler does), each monitor may
    /// trigger a round, and the shadow stores expire.
    fn tick(&mut self, period: u64) -> Result<(), String> {
        let traced = self.traced;
        let now = self.out.now;
        let tick = self.tr.open(traced, Layer::Tick, period, None);
        for g in 0..2 {
            for idx in 0..INSTANCES {
                let s = self.tr.open(traced, Layer::Report, period, tick);
                let inst = &mut self.groups[g].instances[idx];
                inst.collect_expired();
                let load = inst.take_load_report();
                self.tr.close(s);
                let s = self.tr.open(traced, Layer::Monitor, period, tick);
                self.groups[g].monitor.on_report(idx, load);
                self.tr.close(s);
            }
            let s = self.tr.open(traced, Layer::Monitor, period, tick);
            let trigger = self.groups[g].monitor.maybe_trigger(now);
            self.tr.close(s);
            if let Some(trigger) = trigger {
                self.out.rounds += 1;
                self.ctrl.push_back((g, trigger.source, trigger.msg));
            }
            if let (true, Some(sp)) = (traced, self.span) {
                let s = self.tr.open(traced, Layer::Expire, period, tick);
                self.out.expired += self.groups[g].shadow.expire(now.saturating_sub(sp));
                self.tr.close(s);
            }
        }
        self.tr.close(tick);
        self.drain_ctrl()
    }

    fn ingest(
        &mut self,
        i: usize,
        t: Tuple,
        d: &mut Dispatch,
        ring: &mut TraceRing,
    ) -> Result<(), String> {
        let on = self.traced && i.is_multiple_of(SAMPLE_EVERY);
        // Dispatch seqs count from 1 in arrival order.
        let seq = i as u64 + 1;
        let root = self.tr.open(on, Layer::Tuple, seq, None);
        let s = self.tr.open(on, Layer::Route, seq, root);
        self.dispatcher.dispatch_into(t, d);
        self.tr.close(s);
        if d.tuple.seq != seq || d.probe_dests.len() != 1 {
            return Err(format!(
                "{}: replay: tuple {i} got seq {} and fan-out {}",
                self.w.name,
                d.tuple.seq,
                d.probe_dests.len()
            ));
        }
        let s = self.tr.open(on, Layer::TracePush, seq, root);
        let kind = TraceKind::Ingest;
        ring.push_sampled(TraceEvent {
            at_us: t.ts,
            actor: ring.actor(),
            kind,
            seq,
            epoch: 0,
            aux: 1,
            aux2: 0,
        });
        self.tr.close(s);
        let own = t.side.index();
        self.deliver(own, d.store_dest, InstanceMsg::Data(d.tuple), on, root)?;
        self.deliver(1 - own, d.probe_dests[0], InstanceMsg::Data(d.tuple), on, root)?;
        self.tr.close(root);
        self.drain_ctrl()
    }
}

/// Replays `input` (see [`scheduled`]) single-threaded. With `traced`, one
/// tuple in [`SAMPLE_EVERY`] and every monitor period get spans and the
/// store calls are shadowed. The pair count is checked against the
/// oracle.
pub fn replay(w: &Workload, input: &[Tuple], traced: bool) -> Result<Replay, String> {
    let cfg = w.config(None).fastjoin;
    let trace_cfg = RuntimeConfig::default().trace;
    let make_group = |side: Side| Group {
        side,
        instances: (0..INSTANCES)
            .map(|i| {
                let mut inst = JoinInstance::new(i, side, cfg.window);
                inst.set_emit_pairs(false);
                inst
            })
            .collect(),
        rings: (0..INSTANCES)
            .map(|i| TraceRing::new(Actor::instance(side.index() as u8, i as u16), &trace_cfg))
            .collect(),
        monitor: Monitor::new(INSTANCES, THETA, COOLDOWN_US),
        selector: make_selector(&cfg),
        shadow: TupleStore::new(),
    };
    let mut r = Replayer {
        w,
        traced,
        span: cfg.window.map(|win| win.span()),
        theta_gap: cfg.theta_gap,
        groups: [make_group(Side::R), make_group(Side::S)],
        dispatcher: Dispatcher::new(
            Box::new(HashPartitioner::new(INSTANCES, Side::R.index() as u64)),
            Box::new(HashPartitioner::new(INSTANCES, Side::S.index() as u64)),
        ),
        accountant: ProbeAccountant::new(),
        fx: Effects::new(),
        ctrl: VecDeque::new(),
        works: Vec::new(),
        tr: Tracer { origin: Instant::now(), spans: Vec::new() },
        out: Replay {
            wall_s: 0.0,
            now: 0,
            tuples: input.len() as u64,
            spans: Vec::new(),
            scanned: 0,
            probes: 0,
            matches: 0,
            expired: 0,
            rounds: 0,
            plan_inputs: Vec::new(),
        },
    };
    let mut d = Dispatch::default();
    let mut ring = TraceRing::new(Actor::dispatcher(), &trace_cfg);
    let tick_every = ((w.rate * MONITOR_PERIOD_MS as f64 / 1e3) as usize).max(1);
    let started = Instant::now();
    for (i, t) in input.iter().enumerate() {
        r.out.now = t.ts;
        r.ingest(i, *t, &mut d, &mut ring)?;
        if (i + 1) % tick_every == 0 {
            r.tick(((i + 1) / tick_every) as u64)?;
        }
    }
    // Run whatever a migration left pending.
    for g in 0..2 {
        for idx in 0..INSTANCES {
            while let Some(work) = r.groups[g].instances[idx].process_next(&mut r.fx) {
                r.works.push(work);
            }
            r.book(g, idx, false, None)?;
            r.route_effects(g)?;
            r.drain_ctrl()?;
        }
    }
    let mut out = r.out;
    out.wall_s = started.elapsed().as_secs_f64();
    out.spans = r.tr.spans;

    let want = oracle_pairs(input, r.span);
    if out.matches != want {
        return Err(format!(
            "{}: replay joined {} pairs, the oracle says {want}",
            w.name, out.matches
        ));
    }
    if out.probes != out.tuples || r.accountant.probes_total() != out.tuples {
        return Err(format!(
            "{}: replay booked {} probes for {} tuples",
            w.name, out.probes, out.tuples
        ));
    }
    for group in &r.groups {
        let by_load = |inst: &&JoinInstance| inst.reported_load().effective_load();
        let src = group.instances.iter().max_by(|a, b| by_load(a).total_cmp(&by_load(b)));
        let dst = group.instances.iter().min_by(|a, b| by_load(a).total_cmp(&by_load(b)));
        if let (Some(src), Some(dst)) = (src, dst) {
            out.plan_inputs.push(PlanInput {
                src: src.reported_load(),
                dst: dst.reported_load(),
                keys: src.key_stats(),
            });
        }
    }
    Ok(out)
}

/// Time of one GreedyFit selection on `input`, µs (median of `reps`).
pub fn plan_us(w: &Workload, inputs: &[PlanInput], reps: usize) -> f64 {
    let mut selector = make_selector(&w.config(None).fastjoin);
    let mut times = Vec::new();
    for p in inputs {
        for _ in 0..reps {
            let t = Instant::now();
            black_box(selector.select(p.src, p.dst, black_box(&p.keys), 0.0));
            times.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    median(times)
}

/// Cost of reading the clock twice back to back, ns: what a span adds to
/// the duration it measures, subtracted from every span.
pub fn clock_overhead_ns() -> u64 {
    let origin = Instant::now();
    let mut v: Vec<f64> = (0..10_001)
        .map(|_| {
            let a = origin.elapsed().as_nanos() as u64;
            let b = origin.elapsed().as_nanos() as u64;
            (b - a) as f64
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2] as u64
}

/// Per-layer totals from the spans of one replay: `(Σ self ns, spans)`.
pub struct SelfTimes {
    totals: Vec<(Layer, u64, u64)>,
}

impl SelfTimes {
    /// Self time of every span (duration minus its children's, less the
    /// clock overhead), summed per layer.
    pub fn from_spans(spans: &[Span], clock_ns: u64) -> SelfTimes {
        let dur: Vec<u64> =
            spans.iter().map(|s| (s.end_ns - s.start_ns).saturating_sub(clock_ns)).collect();
        let mut own = dur.clone();
        for (s, d) in spans.iter().zip(&dur) {
            if let Some(p) = own.get_mut(s.parent as usize) {
                *p = p.saturating_sub(*d);
            }
        }
        let mut totals: Vec<(Layer, u64, u64)> = Vec::new();
        for (s, t) in spans.iter().zip(own) {
            match totals.iter_mut().find(|(l, ..)| *l == s.layer) {
                Some(e) => {
                    e.1 += t;
                    e.2 += 1;
                }
                None => totals.push((s.layer, t, 1)),
            }
        }
        SelfTimes { totals }
    }

    /// `(Σ self ns, span count)` of `layer`.
    pub fn total(&self, layer: Layer) -> (u64, u64) {
        self.totals.iter().find(|(l, ..)| *l == layer).map_or((0, 0), |&(_, t, c)| (t, c))
    }

    /// Mean self ns per span of `layer` (0 without spans).
    pub fn per_op(&self, layer: Layer) -> f64 {
        let (t, c) = self.total(layer);
        if c == 0 {
            0.0
        } else {
            t as f64 / c as f64
        }
    }

    /// `handle` + `process_next` per delivery, less the shadow store
    /// calls that stand for the store work inside them.
    pub fn step_ns(&self) -> f64 {
        let (step, deliveries) = self.total(Layer::Step);
        let store = self.total(Layer::Insert).0 + self.total(Layer::Probe).0;
        if deliveries == 0 {
            0.0
        } else {
            step.saturating_sub(store) as f64 / deliveries as f64
        }
    }
}

/// Cross-thread hop through a `bounded(queue_cap)` channel, ns per
/// message: a producer sends `n` messages built by `make`, a consumer
/// thread receives and drops them.
pub fn hop_ns<T: Send + 'static>(n: u64, make: impl Fn(u64) -> T) -> Result<f64, String> {
    let (tx, rx) = bounded::<T>(RuntimeConfig::default().queue_cap);
    let consumer = thread::spawn(move || {
        let mut got = 0u64;
        for m in rx.iter() {
            drop(black_box(m));
            got += 1;
        }
        got
    });
    let started = Instant::now();
    for i in 0..n {
        tx.send(make(i)).map_err(|_| "hop consumer hung up".to_string())?;
    }
    drop(tx);
    let got = consumer.join().map_err(|_| "hop consumer panicked".to_string())?;
    let ns = started.elapsed().as_nanos() as f64 / n as f64;
    if got != n {
        return Err(format!("hop: sent {n}, received {got}"));
    }
    Ok(ns)
}
