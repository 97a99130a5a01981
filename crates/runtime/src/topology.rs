//! The threaded topology: spout → dispatcher → join instances → collector,
//! with one monitor thread per group (the Storm deployment of §V, scaled
//! to one process).
//!
//! Executor-to-executor communication uses crossbeam channels; each join
//! instance has exactly one input channel, so all messages it receives are
//! FIFO per sender — the ordering contract the migration protocol needs.
//! The *data* channel into each instance is bounded (Storm-style
//! backpressure propagating to the spout); every *control* edge
//! (instance → dispatcher, instance → monitor, instance → collector,
//! instance → instance) is unbounded, which breaks the only potential
//! wait-for cycle (dispatcher blocked on a full instance queue while that
//! instance publishes a routing update).
//!
//! # Data-plane batching
//!
//! The hot path is batched end to end: the spout accumulates up to
//! [`RuntimeConfig::batch_size`] tuples per spout → dispatcher message,
//! and the dispatcher accumulates per-destination runs flushed as
//! [`RtMsg::DataBatch`]/[`RtMsg::ProbeBatch`] when a destination reaches
//! `batch_size` or its oldest pending tuple ages past [`DISPATCH_TICK`].
//! The send-ordering discipline that keeps batching invisible to the
//! migration protocol (enforced by `DispatcherCore`, tested in this
//! module, documented in ARCHITECTURE.md):
//!
//! 1. a destination's pending batch is flushed *before* any control
//!    message (`RouteUpdated`, `MigAbort`, `Eos`) is sent to it, so
//!    per-channel FIFO means what it meant unbatched;
//! 2. control messages never wait behind a full data channel *at the
//!    dispatcher* because they travel dispatcher → instance on the same
//!    bounded channel only after that destination's data was flushed, and
//!    instance → dispatcher control stays unbounded (no wait-for cycle);
//! 3. batches are *equivalent to their scalar expansion* everywhere else:
//!    tuple-granularity crash points ([`crate::fault::KillSwitch`]),
//!    chaos perturbation via batch splitting
//!    ([`crate::fault::split_rt_batches`]), per-tuple `stage.*`
//!    attribution, per-tuple trace sampling, and checkpoint/replay (the
//!    replay log stores whole batches and replays them identically).
//!
//! # Failure model & supervision
//!
//! Join-instance executors are *supervised*: every message is processed
//! under `catch_unwind`, and a panic (organic, or injected by a
//! [`FaultPlan`] kill switch) triggers restart-from-checkpoint — the
//! supervisor keeps a full clone of the instance state from at most
//! [`SupervisionConfig::checkpoint_every`] messages ago plus a replay log
//! of everything processed since. Recovery replays the log with outbound
//! effects suppressed (they already escaped before the crash), then
//! re-processes the in-flight message live. Because the input channel's
//! receiver survives the restart, no queued message is lost, and because
//! injected crashes are fail-stop at a message boundary the rebuilt state
//! is exactly "everything before the crash message, nothing of it".
//!
//! The control plane is supervised too (see ARCHITECTURE.md, "Failure
//! model & recovery"):
//!
//! * **Dispatcher shards** are restartable. The respawned shard carries
//!   its *epoch fence* (highest snapshot epoch the dead incarnation
//!   installed, kept outside the restarted body) into a fresh routing
//!   table, salvage-flushes the dead incarnation's pending batches (they
//!   were already routed, so per-destination FIFO survives), defers new
//!   data until the sequencer's re-publication rebuilds its table to the
//!   fence, and announces [`ShardNote::Restarted`]. The fence makes the
//!   re-publication idempotent and — the core safety property — makes it
//!   impossible for a resurrected shard to acknowledge a snapshot older
//!   than one its predecessor installed (`xtask check-protocol
//!   sharded-shard-restart` checks this exhaustively).
//! * **The sequencer** is restartable: its authoritative routing table
//!   lives outside the `catch_unwind` region, the in-flight control
//!   message is parked in a replay slot before an injected crash fires,
//!   and recovery re-publishes the current snapshot to every shard before
//!   replaying the slot — so an interrupted publication barrier re-runs
//!   to completion.
//! * **Monitors** are a *degradable* dependency. On a crash the
//!   supervisor harvests the survivor's seed (epoch allocator, in-flight
//!   round, last load report per instance, stats history), backs off
//!   deterministically, and reseeds a fresh monitor; while down, routing
//!   is frozen at the last committed table and the run continues without
//!   migrations. Past the restart budget the monitor degrades
//!   permanently: the in-flight round is tombstoned through the existing
//!   abort path and a minimal drain keeps the shutdown handshake alive.
//!
//! Migration rounds are abortable while their route flip is still
//! pending: the per-group monitor arms a deadline per round
//! ([`SupervisionConfig::round_timeout_ms`]) and on breach asks the
//! dispatcher — the serialization point for routing — to abort. The
//! dispatcher either already applied the round's `Route` (abort refused,
//! the round finishes normally) or guarantees it never will: the staged
//! routing-table entries are reverted to the last committed version and
//! the source rolls the migration back (see `core::instance`).
//!
//! Whole-run liveness is watched from the collector: every executor
//! maintains a heartbeat, and a silent stall (or a hung shutdown) surfaces
//! as [`RunError::ExecutorHung`] instead of a wedged process.

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};

use fastjoin_baselines::{build_partitioners, SystemKind};
use fastjoin_core::config::FastJoinConfig;
use fastjoin_core::dispatcher::{Dispatch, Dispatcher, InstallVerdict};
use fastjoin_core::hash::mix64;
use fastjoin_core::instance::JoinInstance;
use fastjoin_core::instance::Work;
use fastjoin_core::metrics::{MetricsRegistry, MigrationSpan, TimeSeries};
use fastjoin_core::monitor::{MigrationDecision, Monitor, MonitorStats};
use fastjoin_core::protocol::{Effects, InstanceMsg, MigrationState};
use fastjoin_core::routing::RouteSnapshot;
use fastjoin_core::selection::{make_selector, KeySelector};
use fastjoin_core::telemetry::{GroupProbe, InstanceProbe, MigrationPhase};
use fastjoin_core::trace::{Actor, TraceConfig, TraceEvent, TraceJournal, TraceKind, TraceRing};
use fastjoin_core::tuple::{JoinedPair, Side, Tuple};
use lintmarks::lint;

use crate::accounting::ProbeAccountant;
use crate::fault::{
    ChaosPolicy, ChaosReceiver, ControlKillSwitch, CrashPhase, FaultPlan, KillSwitch,
};
use crate::introspect::{Introspection, IntrospectionHub};
use crate::msg::{DispatcherMsg, MonitorMsg, ProbeRecord, RtMsg, ShardCtrl, ShardNote};
use crate::report::RuntimeReport;

/// How often blocked executors wake to refresh their heartbeat and check
/// the emergency kill flag.
const EXECUTOR_TICK: Duration = Duration::from_millis(25);
/// Dispatcher wait on the data channel between control-channel polls.
/// This bounds how long a queued control message (a route flip, an abort)
/// can sit unserved while the dispatcher blocks on an idle data channel —
/// control arrives on a separate channel and does not wake the data wait.
/// [`DISPATCH_TICK`] (1ms) here was the PR 5 route-flip latency
/// regression: flips waited out the data timeout at p50 ≈ tick/2.
const CTRL_TICK: Duration = Duration::from_micros(100);
/// Batch-age flush deadline: the maximum extra latency batching may add
/// to a tuple parked in a partially-filled per-destination batch.
const DISPATCH_TICK: Duration = Duration::from_millis(1);
/// Collector wait between liveness sweeps.
const COLLECT_TICK: Duration = Duration::from_millis(50);
/// Hottest keys each instance publishes per introspection probe (the
/// width of one skew-heatmap row).
const HOT_KEYS_PER_PROBE: usize = 5;

/// Role salt for [`executor_seed`]: the per-instance key selector RNG.
const SEED_ROLE_SELECTOR: u64 = 1;
/// Role salt for [`executor_seed`]: the per-instance chaos-receiver RNG.
const SEED_ROLE_CHAOS: u64 = 2;

/// Derives a per-executor RNG seed by hashing (base, group, id, role)
/// through the SplitMix64 finalizer. The old affine derivation
/// (`seed + group + id*97`) made distinct executor coordinates collide
/// (e.g. `(group+97, id)` and `(group, id+1)`) and produced correlated
/// streams; chaining a bijective mixer per component cannot collide two
/// distinct `(group, id, role)` triples for the same base.
fn executor_seed(base: u64, group: u64, id: u64, role: u64) -> u64 {
    mix64(mix64(mix64(mix64(base) ^ group) ^ id) ^ role)
}

/// Sends on a (possibly bounded) channel, refreshing the caller's
/// heartbeat while parked on a full inbox. A plain blocking `send` there
/// froze the heartbeat for as long as backpressure lasted, so genuine
/// (healthy) backpressure longer than [`SupervisionConfig::stall_ms`] was
/// misdiagnosed as a silent stall and failed the run. Returns `false`
/// when the receiver is gone (the message is dropped, as with the
/// `let _ = tx.send(..)` idiom this replaces). Each timed-out park bumps
/// `parked`, the sender's contribution to the `sends_parked` backpressure
/// counter.
fn send_with_hb<T>(
    tx: &Sender<T>,
    msg: T,
    hb: &AtomicU64,
    now_us: &dyn Fn() -> u64,
    parked: &mut u64,
) -> bool {
    use crossbeam::channel::SendTimeoutError;
    let mut msg = msg;
    loop {
        match tx.send_timeout(msg, EXECUTOR_TICK) {
            Ok(()) => return true,
            Err(SendTimeoutError::Timeout(m)) => {
                hb.store(now_us(), Ordering::Relaxed);
                *parked += 1;
                msg = m;
            }
            Err(SendTimeoutError::Disconnected(_)) => return false,
        }
    }
}

/// Supervision and shutdown-watchdog knobs. The defaults preserve the
/// pre-supervision semantics: no restarts (any executor panic fails the
/// run), no round timeouts, generous shutdown grace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisionConfig {
    /// Restarts allowed per join instance before its failure is fatal to
    /// the run. 0 disables recovery.
    pub max_restarts: u32,
    /// Messages between supervisor checkpoints (bounds the replay log).
    pub checkpoint_every: u64,
    /// Migration-round deadline in milliseconds; a round still awaiting
    /// its route flip past the deadline is aborted. 0 disables the
    /// watchdog.
    pub round_timeout_ms: u64,
    /// A heartbeat older than this (milliseconds) marks its executor as
    /// silently stalled and fails the run. 0 disables stall detection.
    pub stall_ms: u64,
    /// Bounded wait when joining executor threads at shutdown.
    pub join_grace_ms: u64,
    /// Bounded wait for the monitors' quiesce acknowledgement.
    pub quiesce_timeout_ms: u64,
}

impl Default for SupervisionConfig {
    fn default() -> Self {
        SupervisionConfig {
            max_restarts: 0,
            checkpoint_every: 64,
            round_timeout_ms: 0,
            stall_ms: 10_000,
            join_grace_ms: 5_000,
            quiesce_timeout_ms: 60_000,
        }
    }
}

/// Runtime configuration.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Which system to run.
    pub system: SystemKind,
    /// Cluster configuration (instances, Θ, selector, window, …).
    pub fastjoin: FastJoinConfig,
    /// Capacity of each instance's input channel (backpressure bound).
    pub queue_cap: usize,
    /// Data-plane batch size: tuples accumulated per spout → dispatcher
    /// message and per dispatcher → instance flush. 1 reproduces the
    /// unbatched per-tuple message stream exactly; larger values amortize
    /// per-message channel overhead at the cost of up to one
    /// [`DISPATCH_TICK`] of added latency per tuple.
    pub batch_size: usize,
    /// Dispatcher shard count (default 1). Spawns this many shard threads
    /// routing disjoint key ranges (`mix64(key) % N`, so both sides of
    /// any matching pair cross the same shard) under per-batch routing
    /// snapshots, plus one control sequencer that owns the authoritative
    /// routing table and serializes route flips across the shards (see
    /// ARCHITECTURE.md, "Sharded dispatch & routing epochs").
    pub dispatcher_shards: usize,
    /// Monitor sampling period in wall-clock milliseconds.
    pub monitor_period_ms: u64,
    /// Optional spout rate limit, tuples/second (None = full speed).
    pub rate_limit: Option<f64>,
    /// Supervision, recovery, and shutdown-watchdog knobs.
    pub supervision: SupervisionConfig,
    /// Fault-injection schedule (default: no faults).
    pub faults: FaultPlan,
    /// Trace-journal settings: per-executor ring capacity and data-plane
    /// sampling (default: enabled, 16Ki events/executor, 1-in-64).
    pub trace: TraceConfig,
    /// Live-introspection snapshot period in milliseconds. 0 (the
    /// default) disables the snapshot thread entirely — no extra threads,
    /// messages, or allocations, keeping seed behavior bit-for-bit.
    pub snapshot_interval_ms: u64,
    /// Serve `/metrics` (Prometheus text) and `/snapshot` (JSON) over
    /// HTTP on `127.0.0.1:<port>` for the duration of the run. Port 0
    /// binds an ephemeral port (reported via the introspection handle).
    /// `None` (the default) starts no server.
    pub serve_metrics: Option<u16>,
    /// Append each periodic snapshot as one JSON line to this file
    /// (requires `snapshot_interval_ms > 0`). `None` keeps snapshots
    /// in-memory only (still visible via `/snapshot`).
    pub snapshot_path: Option<String>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            system: SystemKind::FastJoin,
            fastjoin: FastJoinConfig::default(),
            queue_cap: 4096,
            batch_size: 64,
            dispatcher_shards: 1,
            monitor_period_ms: 100,
            rate_limit: None,
            supervision: SupervisionConfig::default(),
            faults: FaultPlan::default(),
            trace: TraceConfig::default(),
            snapshot_interval_ms: 0,
            serve_metrics: None,
            snapshot_path: None,
        }
    }
}

impl RuntimeConfig {
    /// Checks the runtime knobs for consistency (the wrapped
    /// [`FastJoinConfig`] is validated too). Called by every `run_topology`
    /// entry point before any thread is spawned.
    ///
    /// # Errors
    /// A human-readable description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        self.fastjoin.validate()?;
        if self.queue_cap == 0 {
            return Err("queue_cap must be ≥ 1 (channels are bounded)".into());
        }
        if self.batch_size == 0 {
            return Err("batch_size must be ≥ 1 (1 = unbatched)".into());
        }
        if self.dispatcher_shards == 0 {
            return Err("dispatcher_shards must be ≥ 1 (each shard is one routing thread)".into());
        }
        if self.batch_size > self.queue_cap {
            return Err(format!(
                "batch_size ({}) must not exceed queue_cap ({}): a full batch is one message, \
                 but the spout fills batches tuple-by-tuple and a channel smaller than the \
                 batch rate bound starves the dispatcher",
                self.batch_size, self.queue_cap
            ));
        }
        if self.snapshot_path.is_some() && self.snapshot_interval_ms == 0 {
            return Err("snapshot_path requires snapshot_interval_ms > 0 (the periodic snapshot \
                 thread is what writes the stream)"
                .into());
        }
        Ok(())
    }
}

/// Why a topology run failed. Fault-free runs on correct code never see
/// these; they exist so crashes and stalls fail fast with a diagnosis
/// instead of wedging the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// An executor stopped updating its heartbeat (or shutdown timed out
    /// waiting on it) without reporting a failure.
    ExecutorHung {
        /// Thread name(s) of the stalled executor(s), comma-separated —
        /// every executor past the stall deadline is listed, so a
        /// cross-executor deadlock shows all of its participants.
        name: String,
    },
    /// An executor panicked and was out of restart budget. Monitors never
    /// produce this: past their restart budget they degrade instead.
    ExecutorFailed {
        /// Thread name of the failed executor.
        name: String,
        /// The panic payload, stringified.
        error: String,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::ExecutorHung { name } => write!(f, "executor {name:?} hung"),
            RunError::ExecutorFailed { name, error } => {
                write!(f, "executor {name:?} failed: {error}")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Handle used by instance executors to address their peers.
struct GroupWiring {
    /// Senders to every instance of this group.
    to_instances: Vec<Sender<RtMsg>>,
    /// Sender to this group's monitor (None for static systems).
    to_monitor: Option<Sender<MonitorMsg>>,
}

/// Runs a complete topology over a workload and reports the measurements.
///
/// # Panics
/// Panics if the configuration is invalid or the run fails (executor
/// crash out of restart budget, stall, hung shutdown) — use
/// [`try_run_topology`] to handle failures as values.
pub fn run_topology(
    cfg: &RuntimeConfig,
    workload: impl IntoIterator<Item = Tuple>,
) -> RuntimeReport {
    // lint:allow(thin compatibility wrapper: callers that want errors use try_run_topology)
    try_run_topology(cfg, workload).unwrap_or_else(|e| panic!("topology run failed: {e}"))
}

/// Like [`run_topology`], but additionally streams every joined pair to
/// `results` as it is produced (unordered across instances; exactly once).
/// Dropping the receiver mid-run is safe — emission is best-effort.
///
/// # Panics
/// Panics if the configuration is invalid or the run fails — use
/// [`try_run_topology_with_results`] to handle failures as values.
pub fn run_topology_with_results(
    cfg: &RuntimeConfig,
    workload: impl IntoIterator<Item = Tuple>,
    results: Sender<JoinedPair>,
) -> RuntimeReport {
    try_run_topology_with_results(cfg, workload, results)
        // lint:allow(thin compatibility wrapper: callers that want errors use the try_ variant)
        .unwrap_or_else(|e| panic!("topology run failed: {e}"))
}

/// Runs a complete topology, surfacing executor failures and stalls as
/// [`RunError`] instead of panicking.
///
/// # Errors
/// [`RunError::ExecutorFailed`] when an executor panics beyond its restart
/// budget; [`RunError::ExecutorHung`] when an executor stalls silently or
/// shutdown exceeds its grace period.
///
/// # Panics
/// Panics only on invalid configuration or a violated accounting
/// invariant (both programming errors, not runtime faults).
pub fn try_run_topology(
    cfg: &RuntimeConfig,
    workload: impl IntoIterator<Item = Tuple>,
) -> Result<RuntimeReport, RunError> {
    run_topology_inner(cfg, workload, None)
}

/// [`try_run_topology`] with a live stream of joined pairs, as in
/// [`run_topology_with_results`].
///
/// # Errors
/// As for [`try_run_topology`].
pub fn try_run_topology_with_results(
    cfg: &RuntimeConfig,
    workload: impl IntoIterator<Item = Tuple>,
    results: Sender<JoinedPair>,
) -> Result<RuntimeReport, RunError> {
    run_topology_inner(cfg, workload, Some(results))
}

/// One executor's liveness record: thread name plus the µs timestamp of
/// its last heartbeat (`u64::MAX` once the executor exited).
type Heartbeat = (String, Arc<AtomicU64>);

/// Marks an executor as cleanly exited so the stall sweep skips it.
const HB_FINISHED: u64 = u64::MAX;

fn run_topology_inner(
    cfg: &RuntimeConfig,
    workload: impl IntoIterator<Item = Tuple>,
    results: Option<Sender<JoinedPair>>,
) -> Result<RuntimeReport, RunError> {
    cfg.validate().expect("invalid configuration"); // lint:allow(startup config validation, before any data flows)
    let n = cfg.fastjoin.instances_per_group;
    let sup = cfg.supervision;
    // Only the flag is needed here: every dispatch executor builds its own
    // partitioners.
    let dynamic = build_partitioners(cfg.system, &cfg.fastjoin).2;
    let start = Instant::now();
    let now_us = move || start.elapsed().as_micros() as u64;
    if !cfg.faults.crashes.is_empty() {
        quiet_injected_panics();
    }

    // --- Live introspection plane -------------------------------------
    // Strictly gated: with snapshots off and no metrics port, no hub is
    // created, every `hub` Option below is `None`, and the run is
    // bit-for-bit identical to one built before this plane existed.
    let introspection = if cfg.snapshot_interval_ms > 0 || cfg.serve_metrics.is_some() {
        match Introspection::start(
            cfg.snapshot_interval_ms,
            cfg.serve_metrics,
            cfg.snapshot_path.clone(),
        ) {
            Ok(i) => Some(i),
            Err(e) => {
                return Err(RunError::ExecutorFailed {
                    name: "introspect-http".to_string(),
                    error: format!("failed to start introspection plane: {e}"),
                })
            }
        }
    } else {
        None
    };
    let hub: Option<Arc<IntrospectionHub>> = introspection.as_ref().map(Introspection::hub);

    // Channels.
    let shards = cfg.dispatcher_shards.max(1);
    // One bounded spout → shard data channel per shard: backpressure
    // propagates to the spout per shard.
    let (shard_data_txs, shard_data_rxs): (Vec<_>, Vec<_>) =
        (0..shards).map(|_| bounded::<DispatcherMsg>(cfg.queue_cap)).unzip();
    let mut inst_txs: [Vec<Sender<RtMsg>>; 2] = [Vec::new(), Vec::new()];
    let mut inst_rxs: [Vec<Receiver<RtMsg>>; 2] = [Vec::new(), Vec::new()];
    for g in 0..2 {
        for _ in 0..n {
            let (tx, rx) = bounded::<RtMsg>(cfg.queue_cap);
            inst_txs[g].push(tx); // lint:allow(g ranges over the two fixed groups)
            inst_rxs[g].push(rx); // lint:allow(g ranges over the two fixed groups)
        }
    }
    let (collector_tx, collector_rx) = unbounded::<CollectorMsg>();
    let mut mon_txs: [Option<Sender<MonitorMsg>>; 2] = [None, None];
    let mut mon_rxs: [Option<Receiver<MonitorMsg>>; 2] = [None, None];
    if dynamic {
        for g in 0..2 {
            let (tx, rx) = unbounded::<MonitorMsg>();
            mon_txs[g] = Some(tx); // lint:allow(g ranges over the two fixed groups)
            mon_rxs[g] = Some(rx); // lint:allow(g ranges over the two fixed groups)
        }
    }
    let kill = Arc::new(AtomicBool::new(false));
    let mut handles: Vec<(String, thread::JoinHandle<()>)> = Vec::new();
    let mut heartbeats: Vec<Heartbeat> = Vec::new();
    let mut spawn_hb = |name: &str| {
        let hb = Arc::new(AtomicU64::new(now_us()));
        heartbeats.push((name.to_string(), hb.clone()));
        hb
    };

    // --- Dispatch plane (shards + sequencer) ---------------------------
    let (disp_ctrl_tx, disp_ctrl_rx) = unbounded::<DispatcherMsg>();
    let wiring = DispatchWiring {
        data_rxs: shard_data_rxs,
        ctrl_rx: disp_ctrl_rx,
        inst_txs: inst_txs.clone(),
        mon_txs: mon_txs.clone(),
        collector: collector_tx.clone(),
    };
    handles.extend(spawn_dispatch(cfg, wiring, start, &kill, hub.as_ref(), &mut spawn_hb));

    // --- Instance executors -------------------------------------------
    for g in 0..2 {
        let side = if g == 0 { Side::R } else { Side::S };
        // lint:allow(g ranges over the two fixed groups)
        for (i, rx) in inst_rxs[g].iter().enumerate() {
            let name = format!("join-{side}-{i}");
            let hb = spawn_hb(&name);
            let kill = kill.clone();
            let rx = rx.clone();
            let wiring = GroupWiring {
                to_instances: inst_txs[g].clone(), // lint:allow(g ranges over the two fixed groups)
                to_monitor: mon_txs[g].clone(),    // lint:allow(g ranges over the two fixed groups)
            };
            let disp_ctrl = disp_ctrl_tx.clone();
            let collector = collector_tx.clone();
            let fj = cfg.fastjoin.clone();
            let results = results.clone();
            let sample_period_us = cfg.monitor_period_ms.max(1) * 1_000;
            let crash = cfg.faults.crash_for(g, i);
            let trace_cfg = cfg.trace;
            let chaos_rng =
                cfg.faults.rng_for(executor_seed(0, g as u64, i as u64, SEED_ROLE_CHAOS));
            let chaos = ChaosPolicy {
                // Data-plane channels only ever get delay faults: FIFO and
                // losslessness are the protocol's correctness backbone.
                delay_1_in: cfg.faults.instance_chaos.delay_1_in,
                delay_max_us: cfg.faults.instance_chaos.delay_max_us,
                ..ChaosPolicy::default()
            };
            let hub = hub.clone();
            let thread_name = name.clone();
            handles.push((
                name,
                thread::Builder::new()
                    .name(thread_name.clone())
                    .spawn(move || {
                        let ctx = InstanceCtx {
                            group: g,
                            id: i,
                            side,
                            fj: &fj,
                            sample_period_us,
                            now_us: &now_us,
                        };
                        let io = InstanceIo {
                            ctx: &ctx,
                            wiring: &wiring,
                            disp_ctrl: &disp_ctrl,
                            collector: &collector,
                            results,
                            hb: &hb,
                            hub: hub.as_deref(),
                        };
                        // Chaos perturbs at tuple granularity: batches are
                        // split to their scalar equivalents first (only
                        // under an active policy — see `fault`).
                        let chaos_rx = ChaosReceiver::new(rx, chaos, chaos_rng, |_| false)
                            .with_splitter(crate::fault::split_rt_batches);
                        let body = catch_unwind(AssertUnwindSafe(|| {
                            instance_executor(&io, chaos_rx, sup, crash, trace_cfg, &hb, &kill);
                        }));
                        if let Err(p) = body {
                            let _ = io.collector.send(CollectorMsg::ExecutorFailure {
                                name: thread_name,
                                error: panic_text(p.as_ref()),
                                fatal: true,
                            });
                        }
                        hb.store(HB_FINISHED, Ordering::Relaxed);
                    })
                    .expect("spawn instance"), // lint:allow(thread spawn at startup)
            ));
        }
    }

    // --- Monitor executors --------------------------------------------
    let (quiesce_ack_tx, quiesce_ack_rx) = unbounded::<usize>();
    if dynamic {
        for g in 0..2 {
            let name = format!("monitor-{g}");
            let hb = spawn_hb(&name);
            let kill = kill.clone();
            let rx = mon_rxs[g].take().expect("dynamic groups have monitors"); // lint:allow(dynamic branch: monitors were just built for both groups)
            let to_instances = inst_txs[g].clone(); // lint:allow(g ranges over the two fixed groups)
            let disp_ctrl = disp_ctrl_tx.clone();
            let fj = cfg.fastjoin.clone();
            let period = Duration::from_millis(cfg.monitor_period_ms);
            let collector = collector_tx.clone();
            let ack = quiesce_ack_tx.clone();
            let plan = cfg.faults.clone();
            let trace_cfg = cfg.trace;
            let hub = hub.clone();
            let thread_name = name.clone();
            handles.push((
                name,
                thread::Builder::new()
                    .name(thread_name.clone())
                    .spawn(move || {
                        let actor = Actor::monitor(g as u8);
                        let mut rx = ChaosReceiver::new(
                            rx,
                            plan.monitor_chaos,
                            plan.rng_for(0x4D_4F4E + g as u64), // "MON"
                            |m| matches!(m, MonitorMsg::Report { .. }),
                        );
                        let n = to_instances.len();
                        // The runtime's monitor clock is wall-clock
                        // milliseconds; the µs cooldown goes through the one
                        // sanctioned conversion (rounds up, so a
                        // sub-millisecond cooldown can never truncate to
                        // "disabled").
                        let mut monitor = Monitor::new(n, fj.theta, fj.migration_cooldown_ms());
                        monitor.set_round_timeout(sup.round_timeout_ms);
                        let mut sess = MonitorSession {
                            monitor,
                            li: TimeSeries::new((period.as_micros() as u64).max(1)),
                            ring: TraceRing::new(actor, &trace_cfg),
                            reg: MetricsRegistry::new(),
                            quiescing: false,
                            acked: false,
                            drop_triggers: plan.drop_migrate_cmds,
                            sends_parked: 0,
                            decisions_seen: 0,
                        };
                        let mut switch = ControlKillSwitch::new(plan.monitor_crash(g));
                        let mut backoff_rng = plan.rng_for(0x4D4F_4E53 + g as u64); // "MONS"
                        let mut restarts = 0u32;
                        loop {
                            let body = catch_unwind(AssertUnwindSafe(|| {
                                monitor_loop(
                                    g,
                                    period,
                                    &mut sess,
                                    &mut rx,
                                    &to_instances,
                                    &disp_ctrl,
                                    &ack,
                                    &now_us,
                                    &mut switch,
                                    &hb,
                                    &kill,
                                    hub.as_deref(),
                                );
                            }));
                            let payload = match body {
                                Ok(()) => break,
                                Err(p) => p,
                            };
                            restarts += 1;
                            let down_at = now_us();
                            // Never fatal: a monitor beyond its restart
                            // budget degrades the run (no more migrations)
                            // instead of failing it.
                            report_control_panic(
                                &collector,
                                hub.as_deref(),
                                &thread_name,
                                payload.as_ref(),
                                false,
                            );
                            sess.ring.push(TraceEvent::control(
                                down_at,
                                actor,
                                TraceKind::MonitorDown,
                                0,
                                u64::from(restarts),
                            ));
                            // Harvest the dead incarnation's durable summary
                            // — the load-stats seed a real monitor would
                            // restart from.
                            let floor = sess.monitor.last_allocated_epoch();
                            let inflight = sess.monitor.in_flight_round();
                            let loads = sess.monitor.load_snapshot();
                            let stats = sess.monitor.stats();
                            let spans = sess.monitor.spans().to_vec();
                            let decisions = sess.monitor.decisions().to_vec();
                            if restarts > sup.max_restarts {
                                // Tombstone the in-flight round through the
                                // dispatcher's existing abort path, then
                                // freeze: the run continues correctly on the
                                // last committed routing table, without
                                // migrations.
                                if let Some((epoch, source, _)) = inflight {
                                    sess.ring.push(TraceEvent::control(
                                        now_us(),
                                        actor,
                                        TraceKind::AbortRequest,
                                        epoch,
                                        source as u64,
                                    ));
                                    let _ = disp_ctrl.send(DispatcherMsg::Abort {
                                        group: g,
                                        epoch,
                                        source,
                                    });
                                }
                                sess.reg.counter_add("monitor.permanent_degraded", 1);
                                if let Some(h) = hub.as_deref() {
                                    h.set_degraded(true);
                                }
                                degraded_monitor_drain(
                                    g, &mut sess, &mut rx, &ack, &now_us, &hb, &kill,
                                );
                                break;
                            }
                            // Bounded, seed-deterministic exponential backoff
                            // before the next incarnation, heartbeat-
                            // refreshing so the stall watchdog sees a live
                            // (if degraded) executor.
                            let base_ms = 1u64 << restarts.saturating_sub(1).min(5);
                            let jitter = {
                                use rand::Rng;
                                backoff_rng.gen_range(0..=base_ms)
                            };
                            let wake = Instant::now() + Duration::from_millis(base_ms + jitter);
                            while Instant::now() < wake && !kill.load(Ordering::Relaxed) {
                                hb.store(now_us(), Ordering::Relaxed);
                                thread::sleep(Duration::from_millis(1));
                            }
                            // Reseed a fresh monitor from the harvest. The
                            // epoch floor keeps round ids monotonic across
                            // incarnations; a restored in-flight round gets a
                            // fresh deadline, so the bounded retry path
                            // (timeout → abort → backoff → retrigger) closes
                            // it if its instances died with the answer.
                            let mut m = Monitor::new(n, fj.theta, fj.migration_cooldown_ms());
                            m.set_round_timeout(sup.round_timeout_ms);
                            m.set_epoch_floor(floor);
                            for (id, load) in loads.into_iter().enumerate() {
                                m.on_report(id, load);
                            }
                            m.absorb_history(stats, spans, decisions);
                            if let Some((epoch, source, target)) = inflight {
                                m.restore_round(epoch, source, target, now_us() / 1000);
                            }
                            // The absorbed decisions were journaled by the
                            // dead incarnation; only genuinely new ones get
                            // trace events from here on.
                            sess.decisions_seen = m.decisions_recorded();
                            sess.monitor = m;
                            let degraded_ms = now_us().saturating_sub(down_at) / 1000;
                            sess.reg.counter_add("monitor.degraded_ms", degraded_ms);
                            sess.reg.counter_add("monitor_restarts", 1);
                            sess.ring.push(TraceEvent::control(
                                now_us(),
                                actor,
                                TraceKind::MonitorUp,
                                0,
                                degraded_ms,
                            ));
                        }
                        // Close the LI trace with a final sample so even runs
                        // shorter than one monitor period report a (possibly
                        // single-point) series.
                        sess.li.record(now_us(), sess.monitor.imbalance());
                        sess.reg.counter_add("monitor.sends_parked", sess.sends_parked);
                        let _ = collector.send(CollectorMsg::MonitorDone {
                            group: g,
                            stats: sess.monitor.stats(),
                            spans: sess.monitor.spans().to_vec(),
                            decisions: sess.monitor.decisions().to_vec(),
                            li: Box::new(sess.li),
                            registry: Box::new(sess.reg),
                            journal: Box::new(sess.ring.into_journal()),
                        });
                        hb.store(HB_FINISHED, Ordering::Relaxed);
                    })
                    .expect("spawn monitor"), // lint:allow(thread spawn at startup)
            ));
        }
    }
    drop(quiesce_ack_tx);
    drop(collector_tx);
    drop(disp_ctrl_tx);
    // Drop our copies of the instance senders so channels disconnect once
    // the dispatcher and monitors are done with theirs.
    inst_txs = [Vec::new(), Vec::new()];
    debug_assert!(inst_txs.iter().all(Vec::is_empty));

    // --- Spout (this thread) ------------------------------------------
    // Pacing is hybrid: sleep off the bulk of the inter-tuple gap, then
    // spin only the last stretch (the scheduler cannot be trusted below
    // ~100 µs, but a pure busy-wait burned a full core at low rates).
    const SPIN_WINDOW: Duration = Duration::from_micros(150);
    let batch = cfg.batch_size.max(1);
    let mut ingested = 0u64;
    // One accumulation buffer per shard: a batch never mixes shards, so
    // the shard assignment below is also the batch assignment.
    let mut bufs: Vec<Vec<Tuple>> = shard_data_txs
        .iter()
        .map(|_| Vec::with_capacity(if batch > 1 { batch } else { 0 }))
        .collect();
    let gap = cfg.rate_limit.map(|r| Duration::from_secs_f64(1.0 / r));
    // Precomputed hub queue names (no allocation on the spout path).
    let queue_names: Vec<String> = (0..shards).map(|sh| queue_gauge_name(sh, shards)).collect();
    let mut next_send = Instant::now();
    for mut t in workload {
        if kill.load(Ordering::Relaxed) {
            break;
        }
        if let Some(gap) = gap {
            loop {
                let now = Instant::now();
                if now >= next_send {
                    break;
                }
                let remaining = next_send - now;
                if remaining > SPIN_WINDOW {
                    thread::sleep(remaining - SPIN_WINDOW);
                } else {
                    std::hint::spin_loop();
                }
            }
            next_send += gap;
        }
        // Event time is stamped here, at pacing time and before any
        // batching, so inter-tuple gaps survive into the stream's event
        // time (a batch stamped at dispatch would compress them).
        t.ts = now_us();
        ingested += 1;
        // Shard by key hash: both sides of a matching pair share a key,
        // so they cross the same shard — per-shard ordering plus
        // per-channel FIFO is all the migration protocol ever relied on.
        let sh = if shards > 1 { (mix64(t.key) % shards as u64) as usize } else { 0 };
        if batch == 1 {
            // lint:allow(sh is mix64 % len by construction)
            if shard_data_txs[sh].send(DispatcherMsg::Ingest(t)).is_err() {
                // Dispatcher gone mid-stream: the failure that killed it is
                // in the collector queue; stop feeding and go diagnose.
                ingested -= 1;
                break;
            }
        } else {
            let buf = &mut bufs[sh]; // lint:allow(sh is mix64 % len by construction)
            buf.push(t);
            if buf.len() >= batch {
                let full = std::mem::replace(buf, Vec::with_capacity(batch));
                let len = full.len() as u64;
                // lint:allow(sh is mix64 % len by construction)
                if shard_data_txs[sh].send(DispatcherMsg::IngestBatch(full)).is_err() {
                    ingested -= len;
                    break;
                }
            }
        }
        if let Some(h) = hub.as_deref() {
            // Spout-side backpressure view: ingest progress plus the
            // depth of the channel it just fed.
            h.set_counter("spout.tuples_ingested", ingested);
            if let (Some(name), Some(tx)) = (queue_names.get(sh), shard_data_txs.get(sh)) {
                h.publish_queue(name, tx.len() as u64);
            }
        }
    }
    for (sh, buf) in bufs.into_iter().enumerate() {
        if buf.is_empty() {
            continue;
        }
        let len = buf.len() as u64;
        // lint:allow(sh enumerates the shard buffers)
        if shard_data_txs[sh].send(DispatcherMsg::IngestBatch(buf)).is_err() {
            ingested -= len;
        }
    }

    let fail = |kill: &AtomicBool,
                handles: Vec<(String, thread::JoinHandle<()>)>,
                e: RunError|
     -> Result<RuntimeReport, RunError> {
        kill.store(true, Ordering::Relaxed);
        let _ = bounded_join(handles, Duration::from_millis(sup.join_grace_ms));
        Err(e)
    };

    // --- Shutdown handshake -------------------------------------------
    if dynamic {
        for tx in mon_txs.iter().flatten() {
            let _ = tx.send(MonitorMsg::Quiesce);
        }
        // Wait (bounded) for both monitors to confirm no round in flight.
        let deadline = Instant::now() + Duration::from_millis(sup.quiesce_timeout_ms.max(1));
        let mut acked = 0;
        while acked < 2 {
            let left = deadline.saturating_duration_since(Instant::now());
            match quiesce_ack_rx.recv_timeout(left) {
                Ok(_) => acked += 1,
                Err(_) => {
                    // Prefer the root cause if an executor already died.
                    let e = drain_fatal(&collector_rx)
                        .unwrap_or(RunError::ExecutorHung { name: "monitor (quiesce)".into() });
                    return fail(&kill, handles, e);
                }
            }
        }
    }
    mon_txs = [None, None];
    let _ = &mon_txs;
    for tx in &shard_data_txs {
        let _ = tx.send(DispatcherMsg::Eos); // a dead dispatcher is reported below
    }
    drop(shard_data_txs);

    // --- Collect -------------------------------------------------------
    let mut accountant = ProbeAccountant::new();
    let mut throughput = TimeSeries::new(1_000_000);
    let mut results_total = 0u64;
    let mut counters: [Vec<_>; 2] = [vec![Default::default(); n], vec![Default::default(); n]];
    let mut done = 0;
    let mut monitor_stats: [Option<MonitorStats>; 2] = [None, None];
    let mut imbalance: [Option<TimeSeries>; 2] = [None, None];
    let mut migration_spans: [Vec<MigrationSpan>; 2] = [Vec::new(), Vec::new()];
    let mut decisions: [Vec<MigrationDecision>; 2] = [Vec::new(), Vec::new()];
    let mut registry = MetricsRegistry::new();
    let mut trace = TraceJournal::new();
    // Route-flip latencies arrive from instances keyed by (group, epoch)
    // and are patched into the matching monitor span after MonitorDone.
    let mut route_flips: Vec<(usize, u64, u64)> = Vec::new();
    let mut first_error: Option<RunError> = None;
    // One loop collects everything: instances exit first (on Eos), then
    // the monitors (their inboxes disconnect), and the sequencer last —
    // it keeps serving late control messages after broadcasting Eos and
    // only reports once every control sender is gone; each shard reports
    // once the sequencer drops its publication channel.
    let mut monitors_done = if dynamic { 0 } else { 2 };
    // One report per shard plus one for the sequencer.
    let dispatcher_reports_expected = shards + 1;
    let mut dispatcher_reports = 0usize;
    while done < 2 * n || monitors_done < 2 || dispatcher_reports < dispatcher_reports_expected {
        match collector_rx.recv_timeout(COLLECT_TICK) {
            Ok(CollectorMsg::Probe { seq, fanout, record }) => {
                results_total += record.matches;
                throughput.record(now_us(), record.matches as f64);
                if record.done_us > 0 {
                    // Emit-stage latency: probe completion → collector.
                    registry
                        .histogram_record("stage.emit_us", now_us().saturating_sub(record.done_us));
                }
                accountant
                    .on_probe(seq, fanout, record.latency_us)
                    // lint:allow(accounting corruption means every later count is garbage; fail the run loudly)
                    .unwrap_or_else(|e| panic!("probe accounting violated: {e}"));
            }
            Ok(CollectorMsg::RouteFlip { group, epoch, us }) => {
                route_flips.push((group, epoch, us));
            }
            Ok(CollectorMsg::InstanceDone { group, id, counters: c, registry: r, journal }) => {
                counters[group][id] = c; // lint:allow(group and id come from our own spawned executors)
                let prefix = format!("inst.{}{id}.", if group == 0 { 'r' } else { 's' });
                registry.merge_prefixed(&prefix, &r);
                trace.absorb(*journal);
                done += 1;
            }
            Ok(CollectorMsg::MonitorDone {
                group,
                stats,
                spans,
                decisions: ds,
                li,
                registry: r,
                journal,
            }) => {
                monitor_stats[group] = Some(stats); // lint:allow(group is 0 or 1 by construction)
                migration_spans[group] = spans; // lint:allow(group is 0 or 1 by construction)
                decisions[group] = ds; // lint:allow(group is 0 or 1 by construction)
                imbalance[group] = Some(*li); // lint:allow(group is 0 or 1 by construction)
                registry.merge_prefixed("", &r);
                trace.absorb(*journal);
                monitors_done += 1;
            }
            Ok(CollectorMsg::DispatcherDone { registry: r, journal }) => {
                // Counter merges ADD, so per-shard counts (tuples_ingested,
                // probe_copies, snapshot_installs, …) sum across reports.
                registry.merge_prefixed("dispatcher.", &r);
                trace.absorb(*journal);
                dispatcher_reports += 1;
            }
            Ok(CollectorMsg::ExecutorFailure { name, error, fatal }) => {
                registry.counter_add("supervisor.executor_failures", 1);
                // One ExecutorFailure event is sent per restart attempt, so
                // counting events yields the cumulative per-executor restart
                // count.
                registry.counter_add(&format!("supervisor.restarts.{name}"), 1);
                // Control-plane recoveries (dispatcher shards, the
                // sequencer, monitors) get their own aggregate, the
                // headline number for control-plane chaos runs.
                if !fatal
                    && (name.starts_with("dispatch-shard")
                        || name == "dispatch-seq"
                        || name.starts_with("monitor-"))
                {
                    registry.counter_add("supervisor.control_restarts", 1);
                }
                if fatal {
                    first_error = Some(RunError::ExecutorFailed { name, error });
                    break;
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                let stalled = stalled_executors(&heartbeats, now_us(), sup.stall_ms);
                if !stalled.is_empty() {
                    first_error = Some(RunError::ExecutorHung { name: stalled.join(", ") });
                    break;
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                first_error = Some(
                    drain_fatal(&collector_rx)
                        .unwrap_or(RunError::ExecutorHung { name: "collector feed".into() }),
                );
                break;
            }
        }
    }
    if let Some(e) = first_error {
        return fail(&kill, handles, e);
    }

    if let Some(e) = bounded_join(handles, Duration::from_millis(sup.join_grace_ms)) {
        kill.store(true, Ordering::Relaxed);
        return Err(e);
    }

    // Shutdown invariant: every probe's fan-out parts drained to zero.
    let (probes_total, latency) = accountant
        .finish()
        // lint:allow(shutdown invariant: leaked fan-out entries mean lost latency samples; fail loudly)
        .unwrap_or_else(|e| panic!("probe accounting corrupted at shutdown: {e}"));
    // And no instance abandoned fan-out entries on its side either.
    let leaked = registry.counter_sum("probe_fanout_leaked");
    // lint:allow(shutdown invariant: a leak here is the exact bug the hand-off protocol fixes)
    assert_eq!(leaked, 0, "{leaked} probe fan-out entrie(s) leaked in instances");

    for (group, epoch, us) in route_flips {
        if let Some(span) = migration_spans[group] // lint:allow(group is 0 or 1 by construction)
            .iter_mut()
            .find(|s| s.epoch == epoch)
        {
            span.route_flip_us = Some(us);
        }
    }

    // The merged journal sorts into its canonical deterministic order, and
    // the run-level registry records the drop counter the acceptance gate
    // checks (0 at default ring sizes).
    trace.sort();
    registry.counter_add("trace.dropped", trace.dropped());
    registry.counter_add("trace.events", trace.len() as u64);

    // Orderly teardown: stop the snapshot/HTTP threads and write the
    // final snapshot. (Failure paths above drop the plane instead, which
    // stops the threads without the final snapshot.)
    drop(hub);
    if let Some(intro) = introspection {
        intro.shutdown();
    }

    Ok(RuntimeReport {
        duration_us: now_us(),
        tuples_ingested: ingested,
        results_total,
        probes_total,
        latency,
        throughput,
        counters,
        monitor_stats,
        imbalance,
        migration_spans,
        decisions,
        registry,
        trace,
    })
}

/// Messages into the collector.
enum CollectorMsg {
    Probe {
        seq: u64,
        fanout: u32,
        record: ProbeRecord,
    },
    /// Routing-update round trip measured at the migration source:
    /// `MigrateCmd` receipt → `RouteUpdated` receipt, in microseconds.
    RouteFlip {
        group: usize,
        epoch: u64,
        us: u64,
    },
    InstanceDone {
        group: usize,
        id: usize,
        counters: fastjoin_core::instance::InstanceCounters,
        registry: MetricsRegistry,
        journal: Box<TraceJournal>,
    },
    MonitorDone {
        group: usize,
        stats: MonitorStats,
        spans: Vec<MigrationSpan>,
        /// The decision-audit log: every trigger evaluation with `LI > Θ`
        /// (triggered or rejected) and how it resolved.
        decisions: Vec<MigrationDecision>,
        li: Box<TimeSeries>,
        /// Supervision telemetry (`monitor.degraded_ms`, restart counts)
        /// merged unprefixed into the run registry.
        registry: Box<MetricsRegistry>,
        journal: Box<TraceJournal>,
    },
    DispatcherDone {
        registry: Box<MetricsRegistry>,
        journal: Box<TraceJournal>,
    },
    /// An executor panicked. `fatal` means it will not recover (the run
    /// must fail); otherwise the supervisor restarted it.
    ExecutorFailure {
        name: String,
        error: String,
        fatal: bool,
    },
}

/// Renders a caught panic payload for failure reports.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_string()
    }
}

/// Reports a caught control-plane panic (dispatch shard, sequencer,
/// monitor) to the collector and, when live, the introspection hub. A
/// non-fatal one is a control restart.
fn report_control_panic(
    collector: &Sender<CollectorMsg>,
    hub: Option<&IntrospectionHub>,
    name: &str,
    payload: &(dyn std::any::Any + Send),
    fatal: bool,
) {
    let _ = collector.send(CollectorMsg::ExecutorFailure {
        name: name.to_string(),
        error: panic_text(payload),
        fatal,
    });
    if let Some(h) = hub {
        h.record_executor_failure();
        if !fatal {
            h.record_control_restart();
        }
    }
}

/// Name of the depth gauge for shard `shard`'s spout → shard data inbox,
/// used by the spout (hub) and the shard (registry) alike. With one shard
/// that inbox is the spout's only queue, hence `queue.spout.depth`.
fn queue_gauge_name(shard: usize, shards: usize) -> String {
    if shards > 1 {
        format!("queue.shard{shard}.depth")
    } else {
        "queue.spout.depth".to_string()
    }
}

/// Installs (once per process) a panic hook that silences backtraces for
/// panics injected by the fault plane — hundreds of *scheduled* crashes
/// per chaos run would otherwise bury real diagnostics in noise.
fn quiet_injected_panics() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.starts_with("fault injection:"))
                || info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|s| s.starts_with("fault injection:"));
            if !injected {
                prev(info);
            }
        }));
    });
}

/// Every executor whose heartbeat is older than `stall_ms`. Reporting
/// all of them (not just the first) matters under correlated stalls — a
/// wedged channel typically hangs both of its endpoints, and the first
/// name alone routinely pointed debugging at the victim instead of the
/// culprit.
fn stalled_executors(heartbeats: &[Heartbeat], now_us: u64, stall_ms: u64) -> Vec<String> {
    if stall_ms == 0 {
        return Vec::new();
    }
    heartbeats
        .iter()
        .filter(|(_, hb)| {
            let at = hb.load(Ordering::Relaxed);
            at != HB_FINISHED && now_us.saturating_sub(at) > stall_ms.saturating_mul(1_000)
        })
        .map(|(name, _)| name.clone())
        .collect()
}

/// Scans pending collector messages for a fatal executor failure, to
/// report the root cause instead of the secondary symptom.
fn drain_fatal(collector_rx: &Receiver<CollectorMsg>) -> Option<RunError> {
    while let Ok(msg) = collector_rx.try_recv() {
        if let CollectorMsg::ExecutorFailure { name, error, fatal: true, .. } = msg {
            return Some(RunError::ExecutorFailed { name, error });
        }
    }
    None
}

/// Joins every executor thread, waiting at most `grace` overall; a thread
/// still running past the deadline is detached and reported as hung.
fn bounded_join(
    handles: Vec<(String, thread::JoinHandle<()>)>,
    grace: Duration,
) -> Option<RunError> {
    let deadline = Instant::now() + grace.max(Duration::from_millis(1));
    for (name, h) in handles {
        loop {
            if h.is_finished() {
                // Panics were already caught and reported inside the
                // executor wrappers; nothing useful remains in the result.
                let _ = h.join();
                break;
            }
            if Instant::now() >= deadline {
                return Some(RunError::ExecutorHung { name });
            }
            thread::sleep(Duration::from_millis(1));
        }
    }
    None
}

// ---------------------------------------------------------------------
// Dispatcher
// ---------------------------------------------------------------------

/// One queued data-plane item awaiting flush to a destination.
enum PendingItem {
    /// A tuple stored at the destination.
    Store(Tuple),
    /// A tuple probing the destination, with its dispatch fan-out.
    Probe(Tuple, u32),
}

/// A destination's accumulation buffer. Store and probe tuples share one
/// ordered queue so their relative arrival order survives batching.
#[derive(Default)]
struct PendingBatch {
    items: Vec<PendingItem>,
    /// `now_us` when the oldest queued item was enqueued (deadline flush).
    oldest_us: u64,
}

/// Dispatcher state plus outbound wiring, shared by [`shard_loop`] and
/// [`sequencer_loop`] so every message has one implementation — and so
/// the send-ordering discipline lives in exactly one place:
///
/// * data for a destination accumulates in its [`PendingBatch`] and is
///   flushed when the queue reaches `batch_size` or its oldest tuple ages
///   past [`DISPATCH_TICK`];
/// * any control message to a destination (`RouteUpdated`, `MigAbort`,
///   `Eos`) flushes that destination's pending data *first*, so the
///   batched channel carries the exact message order of an unbatched run;
/// * flushes ship maximal same-kind runs as one `DataBatch`/`ProbeBatch`
///   message, and single-item runs as the scalar variants — `batch_size
///   = 1` reproduces the pre-batching message stream bit for bit.
struct DispatcherCore<'a> {
    dispatcher: Dispatcher,
    scratch: Dispatch,
    reg: MetricsRegistry,
    ring: TraceRing,
    /// Routing epochs whose flip was applied (abort refused from then on)
    /// and epochs whose abort won (their late `Route` is discarded).
    /// Entries retire when the monitor's `Commit` closes the round.
    routed: [HashSet<u64>; 2],
    aborted: [HashSet<u64>; 2],
    /// Per-group, per-destination pending data.
    pending: [Vec<PendingBatch>; 2],
    batch_size: usize,
    inst_txs: &'a [Vec<Sender<RtMsg>>; 2],
    /// Owned so the EOS epilogue can drop them: the monitors exit on
    /// inbox disconnect, which requires every sender — including the
    /// dispatcher's — to be gone.
    mon_txs: [Option<Sender<MonitorMsg>>; 2],
    now_us: &'a dyn Fn() -> u64,
    /// The owning executor's heartbeat, refreshed inside bounded-channel
    /// send waits so backpressure never reads as a stall (see
    /// [`send_with_hb`]).
    hb: &'a AtomicU64,
    /// Cross-shard dispatch-seq counter, so probe accounting keys stay
    /// unique across shards.
    shared_seq: &'a AtomicU64,
    /// Sequencer-only: the shard control fan-out. None on shards, making
    /// `publish_snapshot` a no-op there.
    fanout: Option<ShardFanout<'a>>,
    /// Times a bounded send from this core parked on a full inbox
    /// (backpressure); folded into the registry as `sends_parked` at
    /// end-of-stream and carried across shard restarts with it.
    sends_parked: u64,
}

/// The sequencer's handle on its shards: publish channels, the shared
/// note channel acks and EOS reports come back on, and the publication
/// epoch counter.
struct ShardFanout<'a> {
    ctrl_txs: Vec<Sender<ShardCtrl>>,
    note_rx: Receiver<ShardNote>,
    /// Last published epoch; publication epochs start at 1.
    epoch: u64,
    /// Shards that reported end-of-stream (they still ack publishes).
    eos_shards: HashSet<usize>,
    /// The sequencer's heartbeat/kill pair, so the publication barrier
    /// stays visible to the stall watchdog and escapes emergency stops.
    hb: &'a AtomicU64,
    kill: &'a AtomicBool,
}

impl<'a> DispatcherCore<'a> {
    /// Builds a core with empty pending queues and a fresh routing table.
    /// Both roles (shard, sequencer) and every restart incarnation go
    /// through here, so the initial-state shape lives in one place.
    #[allow(clippy::too_many_arguments)]
    fn new(
        r_part: Box<dyn fastjoin_core::partition::Partitioner + Send>,
        s_part: Box<dyn fastjoin_core::partition::Partitioner + Send>,
        batch_size: usize,
        inst_txs: &'a [Vec<Sender<RtMsg>>; 2],
        mon_txs: [Option<Sender<MonitorMsg>>; 2],
        now_us: &'a dyn Fn() -> u64,
        hb: &'a AtomicU64,
        trace_cfg: &TraceConfig,
        shared_seq: &'a AtomicU64,
        fanout: Option<ShardFanout<'a>>,
    ) -> Self {
        DispatcherCore {
            dispatcher: Dispatcher::new(r_part, s_part),
            scratch: Dispatch::default(),
            reg: MetricsRegistry::new(),
            ring: TraceRing::new(Actor::dispatcher(), trace_cfg),
            routed: [HashSet::new(), HashSet::new()],
            aborted: [HashSet::new(), HashSet::new()],
            pending: [
                inst_txs[0].iter().map(|_| PendingBatch::default()).collect(), // lint:allow(both groups exist by construction)
                inst_txs[1].iter().map(|_| PendingBatch::default()).collect(), // lint:allow(both groups exist by construction)
            ],
            batch_size: batch_size.max(1),
            inst_txs,
            mon_txs,
            now_us,
            hb,
            shared_seq,
            fanout,
            sends_parked: 0,
        }
    }

    /// Routes one spout tuple into the per-destination pending queues
    /// (assigning its dispatch seq), flushing any queue that fills.
    #[lint(hot_path)]
    fn ingest(&mut self, t: Tuple) {
        let seq = self.shared_seq.fetch_add(1, Ordering::Relaxed);
        self.dispatcher.dispatch_into_with_seq(t, seq, &mut self.scratch);
        let t = self.scratch.tuple;
        let own = t.side.index();
        let opp = t.side.opposite().index();
        let fanout = self.scratch.probe_dests.len() as u32;
        self.reg.counter_add("tuples_ingested", 1);
        self.reg.counter_add("probe_copies", u64::from(fanout));
        let now = (self.now_us)();
        let store_dest = self.scratch.store_dest;
        self.enqueue(own, store_dest, PendingItem::Store(t), now);
        let dests = std::mem::take(&mut self.scratch.probe_dests);
        for &d in &dests {
            self.enqueue(opp, d, PendingItem::Probe(t, fanout), now);
        }
        self.scratch.probe_dests = dests;
        self.ring.push_sampled(TraceEvent {
            at_us: now,
            actor: Actor::dispatcher(),
            kind: TraceKind::Ingest,
            seq: t.seq,
            epoch: 0,
            aux: u64::from(fanout),
            aux2: 0,
        });
    }

    fn enqueue(&mut self, group: usize, dest: usize, item: PendingItem, now: u64) {
        // lint:allow(partitioner contract: routes are < instances())
        let q = &mut self.pending[group][dest];
        if q.items.is_empty() {
            q.oldest_us = now;
        }
        q.items.push(item);
        if q.items.len() >= self.batch_size {
            self.flush_dest(group, dest);
        }
    }

    /// Ships a destination's pending items in arrival order: maximal
    /// same-kind runs leave as one batch message, single-item runs as the
    /// scalar variants. Always called before any control message to the
    /// same destination.
    fn flush_dest(&mut self, group: usize, dest: usize) {
        // lint:allow(callers pass destinations that exist by construction)
        let items = std::mem::take(&mut self.pending[group][dest].items);
        if items.is_empty() {
            return;
        }
        let flushed_at = (self.now_us)();
        for item in &items {
            let ts = match item {
                PendingItem::Store(t) | PendingItem::Probe(t, _) => t.ts,
            };
            // Per-tuple dispatch attribution: spout stamp → flush (covers
            // spout-batch residency, queue wait, and batching delay).
            self.reg.histogram_record("stage.dispatch_us", flushed_at.saturating_sub(ts));
        }
        let tx = &self.inst_txs[group][dest]; // lint:allow(callers pass destinations that exist by construction)
        let (hb, now_us) = (self.hb, self.now_us);
        let parked = &mut self.sends_parked;
        let mut stores: Vec<Tuple> = Vec::new();
        let mut probes: Vec<(Tuple, u32)> = Vec::new();
        for item in items {
            match item {
                PendingItem::Store(t) => {
                    Self::ship_probes(tx, &mut probes, hb, now_us, parked);
                    stores.push(t);
                }
                PendingItem::Probe(t, f) => {
                    Self::ship_stores(tx, &mut stores, hb, now_us, parked);
                    probes.push((t, f));
                }
            }
        }
        Self::ship_stores(tx, &mut stores, hb, now_us, parked);
        Self::ship_probes(tx, &mut probes, hb, now_us, parked);
    }

    fn ship_stores(
        tx: &Sender<RtMsg>,
        stores: &mut Vec<Tuple>,
        hb: &AtomicU64,
        now_us: &dyn Fn() -> u64,
        parked: &mut u64,
    ) {
        match stores.len() {
            0 => {}
            1 => {
                if let Some(t) = stores.pop() {
                    let _ = send_with_hb(tx, RtMsg::Inst(InstanceMsg::Data(t)), hb, now_us, parked);
                }
            }
            _ => {
                let _ =
                    send_with_hb(tx, RtMsg::DataBatch(std::mem::take(stores)), hb, now_us, parked);
            }
        }
    }

    fn ship_probes(
        tx: &Sender<RtMsg>,
        probes: &mut Vec<(Tuple, u32)>,
        hb: &AtomicU64,
        now_us: &dyn Fn() -> u64,
        parked: &mut u64,
    ) {
        match probes.len() {
            0 => {}
            1 => {
                if let Some((t, f)) = probes.pop() {
                    let _ = send_with_hb(tx, RtMsg::Probe(t, f), hb, now_us, parked);
                }
            }
            _ => {
                let _ =
                    send_with_hb(tx, RtMsg::ProbeBatch(std::mem::take(probes)), hb, now_us, parked);
            }
        }
    }

    /// Ships this executor's telemetry to the collector: the registry,
    /// with the parked-send count folded in as `sends_parked` (counter
    /// merges add, so shard and sequencer reports sum), and the journal.
    fn report_done(mut self, collector: &Sender<CollectorMsg>) {
        self.reg.counter_add("sends_parked", self.sends_parked);
        let _ = collector.send(CollectorMsg::DispatcherDone {
            registry: Box::new(self.reg),
            journal: Box::new(self.ring.into_journal()),
        });
    }

    /// Flushes every destination whose oldest pending tuple has waited
    /// longer than [`DISPATCH_TICK`] — the latency bound batching adds.
    fn flush_overdue(&mut self, now: u64) {
        let deadline = DISPATCH_TICK.as_micros() as u64;
        for group in 0..2 {
            // lint:allow(group is 0 or 1 by construction)
            for dest in 0..self.pending[group].len() {
                // lint:allow(dest ranges over this group's destinations)
                let q = &self.pending[group][dest];
                if !q.items.is_empty() && now.saturating_sub(q.oldest_us) >= deadline {
                    self.flush_dest(group, dest);
                }
            }
        }
    }

    fn flush_all(&mut self) {
        for group in 0..2 {
            // lint:allow(group is 0 or 1 by construction)
            for dest in 0..self.pending[group].len() {
                self.flush_dest(group, dest);
            }
        }
    }

    /// Sequencer only: publishes the post-stage routing table to every
    /// shard and waits until each acks that it is live (the cross-shard
    /// FIFO barrier). A shard acks only after flushing every batch it
    /// buffered under older snapshots, so when this returns, all data any
    /// shard routed under the old table is already in the instances'
    /// bounded inboxes — the `RouteUpdated` the caller sends next cannot
    /// overtake an old-routed tuple. No-op when `fanout` is None (a
    /// shard's own core).
    fn publish_snapshot(&mut self) {
        let Some(fanout) = self.fanout.as_mut() else { return };
        fanout.epoch += 1;
        let epoch = fanout.epoch;
        let snap = self.dispatcher.route_snapshot(epoch);
        // Per-shard ack flags (not a count): a shard that restarts
        // mid-barrier may satisfy the barrier via its `Restarted` note
        // instead of a `SnapshotLive` ack, and a count could not tell a
        // duplicate from a distinct shard. A refused send means the
        // shard's supervisor gave up (fatal — the run is already failing);
        // pre-ack it so the barrier cannot wedge the shutdown path.
        let mut acked: Vec<bool> = Vec::with_capacity(fanout.ctrl_txs.len());
        for tx in &fanout.ctrl_txs {
            // Post-EOS shards still install and ack (nothing is pending
            // there).
            acked.push(tx.send(ShardCtrl::Publish(snap.clone())).is_err());
        }
        self.reg.counter_add("route_publishes", 1);
        while !acked.iter().all(|a| *a) {
            if fanout.kill.load(Ordering::Relaxed) {
                return;
            }
            match fanout.note_rx.recv_timeout(EXECUTOR_TICK) {
                Ok(ShardNote::SnapshotLive { shard, epoch: e }) => {
                    // Acks for superseded epochs (a barrier abandoned by
                    // an emergency stop) are stale; ignore them.
                    if e == epoch {
                        acked[shard] = true; // lint:allow(notes carry the sender's own shard id)
                    }
                }
                Ok(ShardNote::Eos { shard }) => {
                    fanout.eos_shards.insert(shard);
                }
                Ok(ShardNote::Restarted { shard, fence }) => {
                    // A shard died mid-barrier. Re-publish the snapshot so
                    // the fresh incarnation can rebuild its table; if the
                    // dead incarnation had already installed this epoch
                    // (fence >= epoch), the install is durable in the
                    // fence and only the ack died with the thread — count
                    // the note as the ack. The reinstall itself never acks
                    // (see `install_snapshot`), so this cannot double-count.
                    let resend = self.dispatcher.route_snapshot(epoch);
                    // lint:allow(notes carry the sender's own shard id)
                    let dead = fanout.ctrl_txs[shard].send(ShardCtrl::Publish(resend)).is_err();
                    self.reg.counter_add("snapshot_republishes", 1);
                    let mut ev = TraceEvent::control(
                        (self.now_us)(),
                        Actor::dispatcher(),
                        TraceKind::SnapshotRepublish,
                        epoch,
                        shard as u64,
                    );
                    ev.aux2 = fence;
                    self.ring.push(ev);
                    if dead || fence >= epoch {
                        acked[shard] = true; // lint:allow(notes carry the sender's own shard id)
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    fanout.hb.store((self.now_us)(), Ordering::Relaxed);
                }
                Err(RecvTimeoutError::Disconnected) => return,
            }
        }
    }

    /// Shard only: applies one publication through the epoch fence.
    /// Flush-then-install is the snapshot-per-batch rule — every pending
    /// batch drains under the snapshot its tuples were routed with, and
    /// no batch ever mixes epochs. Only a *first* install of an epoch
    /// acks (completing the sequencer's barrier): a re-publication after
    /// a restart rebuilds the table but its epoch is already covered by
    /// the fence — acking it again could release a barrier whose flushes
    /// this incarnation never performed — and a snapshot older than the
    /// fence is dropped outright (a resurrected shard must never ack a
    /// superseded snapshot). Returns whether the live table now covers at
    /// least this epoch (`Installed` or `Reinstalled`), which is what
    /// ends a restarted shard's resync window.
    fn install_snapshot(
        &mut self,
        shard: usize,
        snap: RouteSnapshot,
        note_tx: &Sender<ShardNote>,
    ) -> bool {
        self.flush_all();
        let epoch = snap.epoch;
        match self.dispatcher.install_routes_fenced(snap) {
            InstallVerdict::Installed => {
                self.reg.counter_add("snapshot_installs", 1);
                let _ = note_tx.send(ShardNote::SnapshotLive { shard, epoch });
                true
            }
            InstallVerdict::Reinstalled => {
                self.reg.counter_add("snapshot_reinstalls", 1);
                true
            }
            InstallVerdict::Superseded => {
                self.reg.counter_add("snapshots_superseded", 1);
                false
            }
        }
    }

    /// Sequencer only: folds queued shard notes outside any publication
    /// barrier — EOS reports, stale acks from a barrier abandoned on
    /// emergency stop (dropped), and restart notices (answered with a
    /// re-publication of the current snapshot so the fresh incarnation
    /// rebuilds its routing table). No-op when `fanout` is None.
    fn fold_notes(&mut self) {
        loop {
            let Some(fanout) = self.fanout.as_mut() else { return };
            let Ok(note) = fanout.note_rx.try_recv() else { return };
            match note {
                ShardNote::Eos { shard } => {
                    fanout.eos_shards.insert(shard);
                }
                ShardNote::SnapshotLive { .. } => {}
                ShardNote::Restarted { shard, .. } => self.republish_to(shard),
            }
        }
    }

    /// Re-sends the current snapshot to one (just restarted) shard. No-op
    /// before the first publication: with fence 0 the fresh incarnation
    /// is not resyncing and its initial routing table is already correct.
    fn republish_to(&mut self, shard: usize) {
        let Some(fanout) = self.fanout.as_mut() else { return };
        if fanout.epoch == 0 {
            return;
        }
        let epoch = fanout.epoch;
        let snap = self.dispatcher.route_snapshot(epoch);
        // lint:allow(callers pass shard ids from notes or the fanout range)
        let _ = fanout.ctrl_txs[shard].send(ShardCtrl::Publish(snap));
        self.reg.counter_add("snapshot_republishes", 1);
        let mut ev = TraceEvent::control(
            (self.now_us)(),
            Actor::dispatcher(),
            TraceKind::SnapshotRepublish,
            epoch,
            shard as u64,
        );
        ev.aux2 = 0;
        self.ring.push(ev);
    }

    /// Re-sends the current snapshot to every shard — the sequencer
    /// supervisor's first act after a restart, healing any shard whose
    /// table could have diverged under a publication the panic abandoned.
    /// Duplicates are harmless: the shard-side epoch fence turns them
    /// into ack-free reinstalls.
    fn republish_all(&mut self) {
        let shards = self.fanout.as_ref().map_or(0, |f| f.ctrl_txs.len());
        for shard in 0..shards {
            self.republish_to(shard);
        }
    }

    /// Applies one dispatcher message. Returns `true` when it was the
    /// end-of-stream marker (the caller owns the EOS epilogue).
    fn on_msg(&mut self, msg: DispatcherMsg) -> bool {
        let now_us = self.now_us;
        match msg {
            DispatcherMsg::Ingest(t) => self.ingest(t),
            DispatcherMsg::IngestBatch(tuples) => {
                for t in tuples {
                    self.ingest(t);
                }
            }
            DispatcherMsg::Route { group, req } => {
                let side = if group == 0 { Side::R } else { Side::S };
                // lint:allow(group is 0 or 1: monitors and targets send their own group id)
                if self.aborted[group].contains(&req.epoch) {
                    // The abort beat this flip to the serialization point:
                    // stage-and-revert leaves the table at its last
                    // committed contents (version bumped twice) and the
                    // source never sees `RouteUpdated` — it already got
                    // `MigAbort` on the same channel.
                    let ok = self.dispatcher.stage_route(side, &req);
                    assert!(ok, "route update on non-migratable partitioner"); // lint:allow(config contract: dynamic mode implies a migratable partitioner)
                    let reverted = self.dispatcher.revert_route(side, req.epoch);
                    debug_assert!(reverted);
                    self.reg.counter_add("route_reverts", 1);
                    let mut ev = TraceEvent::control(
                        now_us(),
                        Actor::dispatcher(),
                        TraceKind::RouteStaged,
                        req.epoch,
                        self.dispatcher.route_version(side),
                    );
                    ev.aux2 = group as u64;
                    self.ring.push(ev);
                } else {
                    let ok = self.dispatcher.stage_route(side, &req);
                    assert!(ok, "route update on non-migratable partitioner"); // lint:allow(config contract: dynamic mode implies a migratable partitioner)
                    self.routed[group].insert(req.epoch);
                    self.reg.counter_add("route_updates", 1);
                    let mut ev = TraceEvent::control(
                        now_us(),
                        Actor::dispatcher(),
                        TraceKind::RouteStaged,
                        req.epoch,
                        self.dispatcher.route_version(side),
                    );
                    ev.aux2 = group as u64;
                    self.ring.push(ev);
                    // Sharded: every shard must be routing under the new
                    // table — with its old-snapshot batches flushed —
                    // before the source learns the flip happened.
                    self.publish_snapshot();
                    // Ordering discipline: the source's pending data goes
                    // out before its RouteUpdated.
                    self.flush_dest(group, req.source);
                    let _ = send_with_hb(
                        &self.inst_txs[group][req.source], // lint:allow(RouteRequest.source is a valid instance id)
                        RtMsg::Inst(InstanceMsg::RouteUpdated { epoch: req.epoch }),
                        self.hb,
                        self.now_us,
                        &mut self.sends_parked,
                    );
                }
            }
            DispatcherMsg::Abort { group, epoch, source } => {
                let accept = !self.routed[group].contains(&epoch); // lint:allow(group is 0 or 1: the monitor sends its own group id)
                                                                   // The verdict goes to the monitor BEFORE `MigAbort` goes to
                                                                   // the source: the source's rollback ack (a `MigrationDone`)
                                                                   // races the verdict on the monitor's inbox, and with short
                                                                   // bounded inboxes an idle source can ack within
                                                                   // microseconds — if the ack won, the monitor would close
                                                                   // the round as abandoned instead of aborted.
                                                                   // lint:allow(group is 0 or 1: the monitor sends its own group id)
                if let Some(mon) = &self.mon_txs[group] {
                    let _ = mon.send(MonitorMsg::AbortOutcome { epoch, aborted: accept });
                }
                if accept {
                    self.aborted[group].insert(epoch); // lint:allow(group is 0 or 1: the monitor sends its own group id)
                    self.reg.counter_add("migration_aborts", 1);
                    let mut ev = TraceEvent::control(
                        now_us(),
                        Actor::dispatcher(),
                        TraceKind::MigAbort,
                        epoch,
                        source as u64,
                    );
                    ev.aux2 = group as u64;
                    self.ring.push(ev);
                    // Ordering discipline: flush before the control send.
                    self.flush_dest(group, source);
                    let _ = send_with_hb(
                        &self.inst_txs[group][source], // lint:allow(AbortRequest.source is a valid instance id)
                        RtMsg::Inst(InstanceMsg::MigAbort { epoch }),
                        self.hb,
                        self.now_us,
                        &mut self.sends_parked,
                    );
                }
            }
            DispatcherMsg::Commit { group, epoch } => {
                let side = if group == 0 { Side::R } else { Side::S };
                if self.dispatcher.commit_route(side, epoch) {
                    self.reg.counter_add("route_commits", 1);
                    let mut ev = TraceEvent::control(
                        now_us(),
                        Actor::dispatcher(),
                        TraceKind::RouteUpdated,
                        epoch,
                        self.dispatcher.route_version(side),
                    );
                    ev.aux2 = group as u64;
                    self.ring.push(ev);
                }
                self.routed[group].remove(&epoch); // lint:allow(group is 0 or 1: the monitor sends its own group id)
                self.aborted[group].remove(&epoch); // lint:allow(group is 0 or 1: the monitor sends its own group id)
            }
            DispatcherMsg::Eos => {
                self.flush_all();
                self.ring.push(TraceEvent::control(
                    now_us(),
                    Actor::dispatcher(),
                    TraceKind::Eos,
                    0,
                    0,
                ));
                return true;
            }
        }
        false
    }
}

/// The dispatch plane's channel endpoints.
struct DispatchWiring {
    /// One bounded spout → shard data inbox per shard.
    data_rxs: Vec<Receiver<DispatcherMsg>>,
    /// The control inbox instances and monitors send to; the sequencer
    /// owns it.
    ctrl_rx: Receiver<DispatcherMsg>,
    inst_txs: [Vec<Sender<RtMsg>>; 2],
    mon_txs: [Option<Sender<MonitorMsg>>; 2],
    collector: Sender<CollectorMsg>,
}

/// Spawns the supervised dispatch plane at every shard count, one
/// included: a `dispatch-shard-{k}` thread per data inbox plus the
/// `dispatch-seq` control sequencer (see ARCHITECTURE.md, "Sharded
/// dispatch & routing epochs"). Shards route disjoint key ranges under
/// published snapshots and draw dispatch seqs from one shared counter, so
/// the collector's exactly-once probe keys stay unique across shards; the
/// sequencer owns the authoritative routing table and all migration
/// control. Both roles restart under `max_restarts` (module docs,
/// "Failure model & supervision"). The runtime and its unit tests wire the
/// plane through here alone.
fn spawn_dispatch(
    cfg: &RuntimeConfig,
    wiring: DispatchWiring,
    start: Instant,
    kill: &Arc<AtomicBool>,
    hub: Option<&Arc<IntrospectionHub>>,
    spawn_hb: &mut dyn FnMut(&str) -> Arc<AtomicU64>,
) -> Vec<(String, thread::JoinHandle<()>)> {
    let DispatchWiring { data_rxs, ctrl_rx, inst_txs, mon_txs, collector } = wiring;
    let shards = data_rxs.len();
    let max_restarts = cfg.supervision.max_restarts;
    let shared_seq = Arc::new(AtomicU64::new(1));
    let (note_tx, note_rx) = unbounded::<ShardNote>();
    let mut shard_ctrl_txs = Vec::with_capacity(shards);
    let mut handles = Vec::with_capacity(shards + 1);
    for (k, data_rx) in data_rxs.into_iter().enumerate() {
        let (sc_tx, sc_rx) = unbounded::<ShardCtrl>();
        shard_ctrl_txs.push(sc_tx);
        let name = format!("dispatch-shard-{k}");
        let hb = spawn_hb(&name);
        let kill = kill.clone();
        let inst_txs = inst_txs.clone();
        let note_tx = note_tx.clone();
        let collector = collector.clone();
        let hub = hub.cloned();
        let seq = shared_seq.clone();
        // Each shard owns private partitioner state, rebuilt per
        // incarnation; consistency across shards comes from the published
        // snapshots, not from sharing (partitioner routing is `&mut self`).
        let (system, fj, batch_size, trace_cfg) =
            (cfg.system, cfg.fastjoin.clone(), cfg.batch_size, cfg.trace);
        let mut slot = ShardSlot {
            shard: k,
            queue_gauge: queue_gauge_name(k, shards),
            switch: ControlKillSwitch::new(cfg.faults.shard_crash(k)),
            resync: false,
            saw_eos: false,
        };
        let thread_name = name.clone();
        let handle = thread::Builder::new()
            .name(name.clone())
            .spawn(move || {
                let now_us = move || start.elapsed().as_micros() as u64;
                let fresh_core = || {
                    let (r, s, _) = build_partitioners(system, &fj);
                    DispatcherCore::new(
                        r,
                        s,
                        batch_size,
                        &inst_txs,
                        [None, None],
                        &now_us,
                        &hb,
                        &trace_cfg,
                        &seq,
                        None,
                    )
                };
                let mut core = fresh_core();
                supervise(
                    &mut (&mut core, &mut slot),
                    &thread_name,
                    &collector,
                    hub.as_deref(),
                    max_restarts,
                    |(core, slot)| shard_loop(core, slot, &data_rx, &sc_rx, &note_tx, &kill),
                    |(core, slot)| {
                        // Salvage the dead incarnation's pending batches:
                        // every queued tuple was already routed, so flushing
                        // preserves per-destination FIFO — and it happens
                        // before the fresh incarnation can install (and ack)
                        // any snapshot, so data routed under the old table
                        // still precedes any barrier release.
                        let salvaged = catch_unwind(AssertUnwindSafe(|| core.flush_all())).is_ok();
                        let fence = core.dispatcher.fence();
                        let mut fresh = fresh_core();
                        // Telemetry and the epoch fence outlive the body:
                        // the fence is what makes it impossible for this
                        // incarnation to ack a superseded snapshot.
                        fresh.reg = std::mem::take(&mut core.reg);
                        std::mem::swap(&mut fresh.ring, &mut core.ring);
                        fresh.sends_parked = core.sends_parked;
                        fresh.dispatcher.set_fence(fence);
                        **core = fresh;
                        if !salvaged {
                            core.reg.counter_add("shard_salvage_failures", 1);
                        }
                        core.reg.counter_add("shard_restarts", 1);
                        // The fresh routing table starts at initial routes;
                        // if any snapshot was ever installed, defer data
                        // until the sequencer's re-publication rebuilds it
                        // to (at least) the fence.
                        slot.resync = fence > 0;
                        let mut ev = TraceEvent::control(
                            now_us(),
                            Actor::dispatcher(),
                            TraceKind::ShardRestart,
                            0,
                            slot.shard as u64,
                        );
                        ev.aux2 = fence;
                        core.ring.push(ev);
                        let _ = note_tx.send(ShardNote::Restarted { shard: slot.shard, fence });
                    },
                );
                core.report_done(&collector);
                hb.store(HB_FINISHED, Ordering::Relaxed);
            })
            .expect("spawn dispatch shard"); // lint:allow(thread spawn at startup)
        handles.push((name, handle));
    }
    drop(note_tx);

    let name = "dispatch-seq".to_string();
    let hb = spawn_hb(&name);
    let kill = kill.clone();
    let hub = hub.cloned();
    let trace_cfg = cfg.trace;
    let (r_part, s_part, _) = build_partitioners(cfg.system, &cfg.fastjoin);
    let mut switch = ControlKillSwitch::new(cfg.faults.sequencer_crash());
    let thread_name = name.clone();
    let handle = thread::Builder::new()
        .name(name.clone())
        .spawn(move || {
            let now_us = move || start.elapsed().as_micros() as u64;
            let fanout = ShardFanout {
                ctrl_txs: shard_ctrl_txs,
                note_rx,
                epoch: 0,
                eos_shards: HashSet::new(),
                hb: &hb,
                kill: &kill,
            };
            // The core — and with it the authoritative routing table, the
            // publication epoch, and the monitor senders — is owned here,
            // outside the restart loop: a sequencer panic loses the
            // thread, never the table.
            let mut core = DispatcherCore::new(
                r_part,
                s_part,
                1,
                &inst_txs,
                mon_txs,
                &now_us,
                &hb,
                &trace_cfg,
                &shared_seq,
                Some(fanout),
            );
            let mut inflight: Option<DispatcherMsg> = None;
            let mut eos_broadcast = false;
            supervise(
                &mut core,
                &thread_name,
                &collector,
                hub.as_deref(),
                max_restarts,
                |core| {
                    sequencer_loop(
                        core,
                        &ctrl_rx,
                        &mut inflight,
                        &mut eos_broadcast,
                        &mut switch,
                        &kill,
                    );
                },
                |core| {
                    core.reg.counter_add("sequencer_restarts", 1);
                    // An organic panic may have abandoned a publication
                    // mid-barrier; re-publishing the current snapshot heals
                    // any shard divergence (the shard-side epoch fence
                    // turns duplicates into ack-free reinstalls). Then the
                    // loop resumes, replaying a message parked at an
                    // injected crash boundary first.
                    core.republish_all();
                },
            );
            core.report_done(&collector);
            hb.store(HB_FINISHED, Ordering::Relaxed);
        })
        .expect("spawn dispatch sequencer"); // lint:allow(thread spawn at startup)
    handles.push((name, handle));
    handles
}

/// Runs a control executor's re-entrant `body` under `catch_unwind` until
/// it returns normally. Each panic is reported; within the restart budget
/// `recover` rebuilds `state` and the body re-enters, past it the
/// executor gives up (the collector fails the run).
fn supervise<S>(
    state: &mut S,
    name: &str,
    collector: &Sender<CollectorMsg>,
    hub: Option<&IntrospectionHub>,
    max_restarts: u32,
    mut body: impl FnMut(&mut S),
    mut recover: impl FnMut(&mut S),
) {
    let mut restarts = 0u32;
    loop {
        let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(state))) else { return };
        restarts += 1;
        let fatal = restarts > max_restarts;
        report_control_panic(collector, hub, name, payload.as_ref(), fatal);
        if fatal {
            return;
        }
        recover(state);
    }
}

/// A dispatcher shard's supervisor-owned state, which outlives every
/// incarnation of [`shard_loop`].
struct ShardSlot {
    shard: usize,
    /// Registry gauge for this shard's data-inbox depth high-watermark.
    queue_gauge: String,
    /// Injects the `CrashPhase::ShardSnapshotInstall` fault.
    switch: ControlKillSwitch,
    /// A fresh incarnation defers data until a re-publication covers the
    /// dead one's epoch fence.
    resync: bool,
    /// A post-EOS crash re-enters the post-EOS serving phase directly.
    saw_eos: bool,
}

/// One dispatcher shard. Routes its key range's data under the currently
/// installed [`RouteSnapshot`]; all migration control lives at the
/// sequencer. Queued publications are drained to empty before the next
/// data message, and after end-of-stream the shard keeps acknowledging
/// them (trivially — nothing is pending) until the sequencer exits and
/// drops the control channel.
///
/// The body is re-entrant: its supervisor (see [`spawn_dispatch`]) calls
/// it again after a panic with a rebuilt `core` carrying the dead
/// incarnation's epoch fence and telemetry, and with `slot.resync` set
/// when any snapshot had ever been installed (data is deferred until the
/// sequencer's re-publication rebuilds the routing table to at least the
/// fence). The injected `CrashPhase::ShardSnapshotInstall` panic fires at
/// a publication pop, *before* the install — the hardest point for the
/// fence, because the sequencer may already be blocked in that
/// publication's barrier.
fn shard_loop(
    core: &mut DispatcherCore<'_>,
    slot: &mut ShardSlot,
    data_rx: &Receiver<DispatcherMsg>,
    ctrl_rx: &Receiver<ShardCtrl>,
    note_tx: &Sender<ShardNote>,
    kill: &AtomicBool,
) {
    let (now_us, hb) = (core.now_us, core.hb);
    let shard = slot.shard;
    let install = |core: &mut DispatcherCore<'_>, slot: &mut ShardSlot, snap| {
        if slot.switch.should_crash() {
            // lint:allow(the injected fail-stop crash IS the fault under test; the shard wrapper catches and restarts)
            panic!(
                "fault injection: scheduled crash of dispatch-shard-{shard} before snapshot install"
            );
        }
        if core.install_snapshot(shard, snap, note_tx) {
            slot.resync = false;
        }
    };
    let mut q_hwm = 0u64;
    while !slot.saw_eos {
        hb.store(now_us(), Ordering::Relaxed);
        if kill.load(Ordering::Relaxed) {
            return;
        }
        // High-watermark of this shard's spout → shard data channel: the
        // backpressure depth an operator sees live and in the report.
        let depth = data_rx.len() as u64;
        if depth > q_hwm {
            q_hwm = depth;
            core.reg.gauge_set(&slot.queue_gauge, depth as f64);
        }
        // Publications have priority and are drained to empty before the
        // next data message, so a data message is always routed under the
        // newest snapshot queued ahead of it.
        while let Ok(ShardCtrl::Publish(snap)) = ctrl_rx.try_recv() {
            install(core, slot, snap);
        }
        if slot.resync {
            // Fresh incarnation, stale table: the rebuilt core routes
            // under initial routes until a re-published snapshot covers
            // the fence, and routing data before then could contradict
            // epochs the dead incarnation already routed under. The
            // sequencer answers our `Restarted` note promptly, so this
            // window is a few publication round-trips at most.
            thread::sleep(CTRL_TICK);
            continue;
        }
        // Control fast-path: wait on data in CTRL_TICK slices, not
        // DISPATCH_TICK ones. A publication does not wake this wait (it
        // lands on the other channel), so the data timeout bounds how
        // long a route flip's barrier waits on a quiet shard. Batch aging
        // still uses DISPATCH_TICK inside flush_overdue.
        match data_rx.recv_timeout(CTRL_TICK) {
            Ok(m) => {
                slot.saw_eos = core.on_msg(m);
                core.flush_overdue(now_us());
            }
            Err(RecvTimeoutError::Timeout) => core.flush_overdue(now_us()),
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
    // The Eos arm ran flush_all, so everything this shard routed is
    // already in the instances' inboxes; tell the sequencer (it broadcasts
    // RtMsg::Eos once every shard has reported — the note is idempotent,
    // which lets a post-EOS restart re-send it), then keep serving
    // publications until the sequencer drops our channel.
    let _ = note_tx.send(ShardNote::Eos { shard });
    loop {
        hb.store(now_us(), Ordering::Relaxed);
        if kill.load(Ordering::Relaxed) {
            return;
        }
        match ctrl_rx.recv_timeout(DISPATCH_TICK) {
            Ok(ShardCtrl::Publish(snap)) => install(core, slot, snap),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// The control sequencer: owns the authoritative routing table and
/// serializes every route flip, abort, and commit through
/// [`DispatcherCore::on_msg`]; a flip runs the publication barrier
/// ([`DispatcherCore::publish_snapshot`]) before the source's
/// `RouteUpdated` goes out. The sequencer never touches data; its pending
/// buffers stay empty and its flushes are no-ops.
///
/// The body is re-entrant: `core` (and with it the authoritative table,
/// the publication epoch, and the monitor senders) is owned by the
/// supervisor and survives a panic; `eos_broadcast` persists so a
/// restart cannot broadcast `RtMsg::Eos` twice. `switch` injects the
/// `CrashPhase::SequencerBarrier` fault — the crash fires at the message
/// boundary, *after* parking the route in `inflight`, so the supervisor
/// replays it on re-entry and the flip is delayed, not lost. (An organic
/// panic mid-`on_msg` deliberately loses its message instead: its
/// outbound effects may already have escaped, and replaying could
/// publish a flip twice.)
fn sequencer_loop(
    core: &mut DispatcherCore<'_>,
    ctrl_rx: &Receiver<DispatcherMsg>,
    inflight: &mut Option<DispatcherMsg>,
    eos_broadcast: &mut bool,
    switch: &mut ControlKillSwitch,
    kill: &AtomicBool,
) {
    let (now_us, hb) = (core.now_us, core.hb);
    loop {
        hb.store(now_us(), Ordering::Relaxed);
        if kill.load(Ordering::Relaxed) {
            break;
        }
        // A message parked at a crash boundary replays first; otherwise a
        // control send wakes this wait directly (no data channel in
        // between), so flips are served at channel latency and the
        // timeout only bounds how late the shard notes below are noticed.
        let next = match inflight.take() {
            Some(m) => Some(m),
            None => match ctrl_rx.recv_timeout(DISPATCH_TICK) {
                Ok(m) => Some(m),
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => break,
            },
        };
        if let Some(m) = next {
            if matches!(m, DispatcherMsg::Route { .. }) && switch.should_crash() {
                *inflight = Some(m);
                // lint:allow(the injected fail-stop crash IS the fault under test; the sequencer wrapper catches, restarts, and replays the parked message)
                panic!(
                    "fault injection: scheduled crash of dispatch-seq before a route publication"
                );
            }
            let _ = core.on_msg(m);
        }
        // Fold in shard notes that arrived outside a publication barrier:
        // EOS reports, restart notices (answered with a re-publication),
        // and stale acks from a barrier abandoned on emergency stop.
        core.fold_notes();
        let all_eos = core.fanout.as_ref().is_some_and(|f| f.eos_shards.len() == f.ctrl_txs.len());
        if all_eos && !*eos_broadcast {
            // EOS epilogue. Every shard's data is flushed: serve
            // already-queued control, broadcast Eos — which lands after
            // all shard data on every (FIFO) instance channel — and
            // release the monitor senders so the monitors can exit (they
            // in turn release ctrl_rx). Control racing the shutdown
            // handshake is still served by the loop until every control
            // sender disconnects, so its source always gets its
            // RouteUpdated/MigAbort.
            while let Ok(m) = ctrl_rx.try_recv() {
                let _ = core.on_msg(m);
            }
            core.ring.push(TraceEvent::control(
                now_us(),
                Actor::dispatcher(),
                TraceKind::Eos,
                0,
                0,
            ));
            for group in core.inst_txs {
                for tx in group {
                    let _ = send_with_hb(tx, RtMsg::Eos, hb, now_us, &mut core.sends_parked);
                }
            }
            core.mon_txs = [None, None];
            *eos_broadcast = true;
        }
    }
}

// ---------------------------------------------------------------------
// Join-instance executors (supervised)
// ---------------------------------------------------------------------

/// Immutable per-instance-executor context (identity, config, clock).
struct InstanceCtx<'a> {
    group: usize,
    id: usize,
    side: Side,
    fj: &'a FastJoinConfig,
    /// Bucket width of the executor's sampled time series (µs); one
    /// monitor period, so samples align with load reports.
    sample_period_us: u64,
    now_us: &'a dyn Fn() -> u64,
}

/// The executor's outbound channels, bundled.
struct InstanceIo<'a> {
    ctx: &'a InstanceCtx<'a>,
    wiring: &'a GroupWiring,
    disp_ctrl: &'a Sender<DispatcherMsg>,
    collector: &'a Sender<CollectorMsg>,
    results: Option<Sender<JoinedPair>>,
    /// This executor's heartbeat, refreshed while a bounded peer-inbox
    /// send waits on backpressure so the stall watchdog never mistakes a
    /// full channel for a hung executor (see [`send_with_hb`]).
    hb: &'a AtomicU64,
    /// Live introspection hub, present only when the plane is enabled;
    /// published to on report ticks, never on the per-tuple hot path.
    hub: Option<&'a IntrospectionHub>,
}

/// Everything a join-instance executor mutates while processing messages.
/// `Clone` *is* the checkpoint mechanism: the supervisor snapshots the
/// whole state between messages and restores the snapshot on a crash.
#[derive(Clone)]
struct InstanceState {
    inst: JoinInstance,
    selector: Box<dyn KeySelector + Send>,
    /// Fan-out of every probe received but not yet completed, keyed by
    /// seq. Entries for probes forwarded to a migration target are handed
    /// off with the tuples (see `RtMsg::ProbeHandoff`); at exit the map
    /// must be empty — leaks are counted and asserted on by the collector.
    probe_fanout: HashMap<u64, u32>,
    /// `MigrateCmd` receipt time by epoch, closed out by `RouteUpdated` —
    /// the route-flip latency of a migration round this instance sourced.
    flip_started: HashMap<u64, u64>,
    reg: MetricsRegistry,
    /// Times a bounded peer send parked on a full inbox (backpressure);
    /// folded into the registry as `sends_parked` at end-of-stream.
    /// Checkpointed with the rest of the state — a restore rolls it back
    /// to the value consistent with the replayed sends.
    sends_parked: u64,
    eos: bool,
}

impl InstanceState {
    fn new(ctx: &InstanceCtx<'_>, emit_pairs: bool) -> Self {
        let fj = ctx.fj;
        let mut inst = JoinInstance::new(ctx.id, ctx.side, fj.window);
        // Pairs are only materialized when a consumer wants them.
        inst.set_emit_pairs(emit_pairs);
        inst.set_migration_mode(fj.migration_mode);
        let selector = make_selector(&FastJoinConfig {
            seed: executor_seed(fj.seed, ctx.group as u64, ctx.id as u64, SEED_ROLE_SELECTOR),
            ..fj.clone()
        });
        InstanceState {
            inst,
            selector,
            probe_fanout: HashMap::new(),
            flip_started: HashMap::new(),
            reg: MetricsRegistry::new(),
            sends_parked: 0,
            eos: false,
        }
    }

    /// Journals the receipt of a migration-protocol message. The event's
    /// `aux`/`aux2` payloads are kind-specific (see `core::trace`); data
    /// tuples are journaled after processing instead (`StoreDone` /
    /// `ProbeDone`, sampled).
    fn trace_protocol_msg(&self, actor: Actor, at_us: u64, ring: &mut TraceRing, m: &InstanceMsg) {
        let Some(kind) = TraceKind::of_instance_msg(m) else { return };
        // Messages outside any migration round journal under the explicit
        // sentinel — epoch 0 would be indistinguishable from a (therefore
        // reserved) genuine round 0 in `fastjoin-cli trace --round`.
        let epoch = m.round_id().unwrap_or(TraceEvent::NO_ROUND);
        let (aux, aux2) = match m {
            InstanceMsg::Data(_) => (0, 0),
            InstanceMsg::MigrateCmd { target, .. } => (*target as u64, 0),
            InstanceMsg::MigStart { from, keys, .. } => (*from as u64, keys.len() as u64),
            InstanceMsg::MigStore { tuples, .. } => (tuples.len() as u64, 0),
            InstanceMsg::RouteUpdated { .. } => {
                let buffered = match self.inst.migration_state() {
                    MigrationState::Source { buffer, .. } => buffer.len() as u64,
                    MigrationState::Idle
                    | MigrationState::Target { .. }
                    | MigrationState::Aborting { .. } => 0,
                };
                (buffered, 0)
            }
            InstanceMsg::MigForward { tuples, .. } => (tuples.len() as u64, 0),
            InstanceMsg::MigEnd { from, .. } => (*from as u64, 0),
            InstanceMsg::MigAbort { .. } => (0, 0),
            InstanceMsg::MigReturn { stored, inflight, .. } => {
                (stored.len() as u64, inflight.len() as u64)
            }
        };
        ring.push(TraceEvent { at_us, actor, kind, seq: 0, epoch, aux, aux2 });
    }

    /// Processes one message end to end (message, effects, pending work).
    /// With `live == false` the step replays a message whose outbound
    /// effects already escaped before a crash: every local mutation is
    /// re-applied, every channel send is suppressed — and nothing is
    /// journaled (the original live step already journaled these events).
    fn step(
        &mut self,
        io: &InstanceIo<'_>,
        fx: &mut Effects,
        msg: RtMsg,
        live: bool,
        qlen: usize,
        ring: &mut TraceRing,
    ) {
        let ctx = io.ctx;
        let (fj, now_us) = (ctx.fj, ctx.now_us);
        let actor = Actor::instance(ctx.group as u8, ctx.id as u16);
        match msg {
            RtMsg::Inst(m) => {
                if let InstanceMsg::MigrateCmd { epoch, .. } = &m {
                    self.flip_started.insert(*epoch, now_us());
                }
                if let InstanceMsg::RouteUpdated { epoch } = &m {
                    if let Some(t0) = self.flip_started.remove(epoch) {
                        let pause = now_us().saturating_sub(t0);
                        // Migration pause attribution: how long this
                        // source ran in buffering mode before the flip.
                        self.reg.histogram_record("stage.mig_pause_us", pause);
                        if live {
                            let _ = io.collector.send(CollectorMsg::RouteFlip {
                                group: ctx.group,
                                epoch: *epoch,
                                us: pause,
                            });
                        }
                    }
                }
                if let InstanceMsg::MigAbort { epoch } = &m {
                    // An aborted round's pause ends here; close it out so
                    // the attribution histogram covers aborts too.
                    if let Some(t0) = self.flip_started.remove(epoch) {
                        self.reg
                            .histogram_record("stage.mig_pause_us", now_us().saturating_sub(t0));
                    }
                }
                if let InstanceMsg::Data(t) = &m {
                    self.reg.histogram_record("stage.queue_wait_us", now_us().saturating_sub(t.ts));
                }
                if live {
                    self.trace_protocol_msg(actor, now_us(), ring, &m);
                }
                // Decision audit, per-key half: a MigrateCmd is about to
                // run key selection, so capture the loads the benefit
                // formula (Eq. 8) will see and journal one event per key
                // the selector actually picks.
                let mut plan_ctx = None;
                if live {
                    if let InstanceMsg::MigrateCmd { epoch, target_load, .. } = &m {
                        // Stats must be captured pre-handle: handling the
                        // command ships the selected keys' tuples away.
                        plan_ctx =
                            Some((*epoch, self.inst.load(), *target_load, self.inst.key_stats()));
                    }
                }
                self.inst
                    .handle(m, self.selector.as_mut(), fj.theta_gap, fx)
                    // lint:allow(a protocol violation in the threaded runtime is unrecoverable)
                    .unwrap_or_else(|e| panic!("protocol violation: {e}"));
                if let Some((epoch, src_load, dst_load, stats)) = plan_ctx {
                    if let MigrationState::Source { keys, .. } = self.inst.migration_state() {
                        let at = now_us();
                        for stat in stats.iter().filter(|s| keys.contains(&s.key)) {
                            // MigrateCmds are rare (one per round): push
                            // unsampled so `trace --round` can always
                            // explain the chosen plan.
                            ring.push(TraceEvent {
                                at_us: at,
                                actor,
                                kind: TraceKind::MigPlanKey,
                                seq: stat.key,
                                epoch,
                                aux: (stat.benefit(src_load, dst_load) * 1000.0) as u64,
                                aux2: stat.stored + stat.queue,
                            });
                        }
                    }
                }
            }
            RtMsg::Probe(t, fanout) => {
                self.reg.histogram_record("stage.queue_wait_us", now_us().saturating_sub(t.ts));
                self.probe_fanout.insert(t.seq, fanout);
                self.inst
                    .handle(InstanceMsg::Data(t), self.selector.as_mut(), fj.theta_gap, fx)
                    // lint:allow(Data never returns a protocol error)
                    .unwrap_or_else(|e| panic!("protocol violation: {e}"));
            }
            RtMsg::DataBatch(tuples) => {
                // Equivalent to that many consecutive Data messages: the
                // whole batch is absorbed here, then the shared work loop
                // below drains its probes/stores with per-tuple sampling.
                // Queue-wait attribution stays per tuple (t.ts is the
                // spout stamp; the whole batch waited equally).
                for t in tuples {
                    self.reg.histogram_record("stage.queue_wait_us", now_us().saturating_sub(t.ts));
                    self.inst
                        .handle(InstanceMsg::Data(t), self.selector.as_mut(), fj.theta_gap, fx)
                        // lint:allow(Data never returns a protocol error)
                        .unwrap_or_else(|e| panic!("protocol violation: {e}"));
                }
            }
            RtMsg::ProbeBatch(entries) => {
                for (t, fanout) in entries {
                    self.reg.histogram_record("stage.queue_wait_us", now_us().saturating_sub(t.ts));
                    self.probe_fanout.insert(t.seq, fanout);
                    self.inst
                        .handle(InstanceMsg::Data(t), self.selector.as_mut(), fj.theta_gap, fx)
                        // lint:allow(Data never returns a protocol error)
                        .unwrap_or_else(|e| panic!("protocol violation: {e}"));
                }
            }
            RtMsg::ProbeHandoff(entries) => {
                // Fan-outs of probes a migration source is about to forward
                // to us; FIFO guarantees they precede the MigForward.
                self.reg.counter_add("probe_handoffs_in", entries.len() as u64);
                self.probe_fanout.extend(entries);
            }
            RtMsg::ReportRequest => {
                self.inst.collect_expired();
                let load = self.inst.take_load_report();
                let now = now_us();
                self.reg.series_record("queue_depth", ctx.sample_period_us, now, qlen as f64);
                let buffered = match self.inst.migration_state() {
                    MigrationState::Idle => 0,
                    MigrationState::Source { buffer, .. } => buffer.len(),
                    MigrationState::Target { held, .. } => held.len(),
                    MigrationState::Aborting { buffer, .. } => buffer.len(),
                };
                self.reg.gauge_set("mig_buffered_tuples", buffered as f64);
                self.reg.series_record("mig_buffered", ctx.sample_period_us, now, buffered as f64);
                if live {
                    if let Some(mon) = &io.wiring.to_monitor {
                        let _ = mon.send(MonitorMsg::Report { id: ctx.id, load });
                    }
                    if let Some(hub) = io.hub {
                        // The skew-heatmap row: current effective load,
                        // inbox depth, and this instance's hottest keys.
                        hub.publish_instance(InstanceProbe {
                            group: ctx.group as u8,
                            id: ctx.id as u16,
                            load: self.inst.load().effective_load() as u64,
                            queue_depth: qlen as u64,
                            hot_keys: self.inst.top_keys(HOT_KEYS_PER_PROBE),
                            migrating: !self.inst.migration_state().is_idle(),
                        });
                        let side = if ctx.group == 0 { 'r' } else { 's' };
                        let c = self.inst.counters();
                        hub.set_counter(&format!("inst.{side}{}.stored", ctx.id), c.stored);
                        hub.set_counter(&format!("inst.{side}{}.probed", ctx.id), c.probed);
                        hub.set_counter(&format!("inst.{side}{}.joined", ctx.id), c.joined);
                    }
                }
            }
            RtMsg::Eos => self.eos = true,
        }
        self.flush(io, fx, live);
        // Process everything currently pending before taking new input.
        let mut before = now_us();
        while let Some(work) = self.inst.process_next(fx) {
            let after = now_us();
            match work {
                Work::Probe { tuple, matches, .. } => {
                    self.reg.histogram_record("stage.probe_us", after.saturating_sub(before));
                    let fanout = self
                        .probe_fanout
                        .remove(&tuple.seq)
                        // lint:allow(accounting invariant: the fan-out arrived with the probe or its hand-off; absence is the bug this layer fixes)
                        .unwrap_or_else(|| panic!("probe {} has no fan-out entry", tuple.seq));
                    if live {
                        ring.push_sampled(TraceEvent {
                            at_us: after,
                            actor,
                            kind: TraceKind::ProbeDone,
                            seq: tuple.seq,
                            epoch: 0,
                            aux: matches,
                            aux2: 0,
                        });
                        let record = ProbeRecord {
                            matches,
                            latency_us: after.saturating_sub(tuple.ts),
                            done_us: after,
                        };
                        let _ = io.collector.send(CollectorMsg::Probe {
                            seq: tuple.seq,
                            fanout,
                            record,
                        });
                    }
                }
                Work::Store { tuple } => {
                    if live {
                        ring.push_sampled(TraceEvent {
                            at_us: after,
                            actor,
                            kind: TraceKind::StoreDone,
                            seq: tuple.seq,
                            epoch: 0,
                            aux: 0,
                            aux2: 0,
                        });
                    }
                }
            }
            before = after;
            self.flush(io, fx, live);
        }
    }

    /// Drains the effect buffer: local bookkeeping always happens; channel
    /// sends only when `live` (a replayed message's sends already escaped
    /// before the crash being recovered from).
    fn flush(&mut self, io: &InstanceIo<'_>, fx: &mut Effects, live: bool) {
        if live && io.results.is_some() {
            if let Some(tx) = &io.results {
                for pair in fx.joined.drain(..) {
                    let _ = tx.send(pair); // receiver may have hung up — best effort
                }
            }
        } else {
            fx.joined.clear(); // not materialized, or already emitted pre-crash
        }
        for (to, msg) in fx.sends.drain(..) {
            if let InstanceMsg::MigForward { tuples, .. } = &msg {
                // Probe-side tuples in the forwarded buffer take their
                // fan-out entries with them; sending the hand-off on the
                // same channel first means the target owns the entries
                // before the tuples arrive (per-channel FIFO). Store-side
                // tuples have no entry and are skipped by the lookup.
                let entries: Vec<(u64, u32)> = tuples
                    .iter()
                    .filter_map(|t| self.probe_fanout.remove(&t.seq).map(|f| (t.seq, f)))
                    .collect();
                if !entries.is_empty() {
                    self.reg.counter_add("probe_handoffs_out", entries.len() as u64);
                    if live {
                        if let Some(ch) = io.wiring.to_instances.get(to) {
                            let _ = send_with_hb(
                                ch,
                                RtMsg::ProbeHandoff(entries),
                                io.hb,
                                io.ctx.now_us,
                                &mut self.sends_parked,
                            );
                        }
                    }
                }
            }
            if live {
                let _ = send_with_hb(
                    &io.wiring.to_instances[to], // lint:allow(protocol contract: peer ids are valid instance indices)
                    RtMsg::Inst(msg),
                    io.hb,
                    io.ctx.now_us,
                    &mut self.sends_parked,
                );
            }
        }
        for req in fx.route_requests.drain(..) {
            if live {
                let _ = io.disp_ctrl.send(DispatcherMsg::Route { group: io.ctx.group, req });
            }
        }
        for done in fx.migration_done.drain(..) {
            if live {
                if let Some(mon) = &io.wiring.to_monitor {
                    let _ = mon.send(MonitorMsg::Done(done));
                }
            }
        }
    }
}

/// The supervised executor harness: receive → (maybe inject a crash) →
/// step under `catch_unwind` → checkpoint; on a caught panic, restore the
/// checkpoint, replay the log with sends suppressed, and re-process the
/// in-flight message live.
fn instance_executor(
    io: &InstanceIo<'_>,
    mut rx: ChaosReceiver<RtMsg>,
    sup: SupervisionConfig,
    crash: Option<CrashPhase>,
    trace_cfg: TraceConfig,
    hb: &AtomicU64,
    kill: &AtomicBool,
) {
    let ctx = io.ctx;
    let now_us = ctx.now_us;
    let actor = Actor::instance(ctx.group as u8, ctx.id as u16);
    let mut switch = KillSwitch::new(crash);
    let mut state = InstanceState::new(ctx, io.results.is_some());
    let mut checkpoint = state.clone();
    // The ring lives OUTSIDE the checkpointed state: cloning a multi-KiB
    // event buffer on every checkpoint would tax the data plane, and the
    // journal should survive a crash (the crash is the interesting part).
    // Consequence, documented in ARCHITECTURE.md: events journaled by a
    // step that later panics are kept, so a crash-adjacent event can
    // appear even though its state mutation was rolled back — the paired
    // `FaultCrash` event marks exactly where to distrust.
    let mut ring = TraceRing::new(actor, &trace_cfg);
    let mut log: Vec<RtMsg> = Vec::new();
    let mut fx = Effects::new();
    let mut restarts = 0u32;
    // Inbox-depth high watermark: survives checkpoint restores (it is a
    // property of the channel, not of the replayable state).
    let mut q_hwm = 0u64;
    loop {
        hb.store(now_us(), Ordering::Relaxed);
        if kill.load(Ordering::Relaxed) {
            return; // emergency shutdown: the run already failed
        }
        let msg = match rx.recv_timeout(EXECUTOR_TICK) {
            Ok(m) => m,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => return,
        };
        let inject = switch.should_crash(&msg);
        let retry = msg.clone();
        let qlen = rx.queue_len();
        q_hwm = q_hwm.max(qlen as u64);
        let stepped = catch_unwind(AssertUnwindSafe(|| {
            if inject {
                // lint:allow(the injected fail-stop crash IS the fault being tested; caught by this very harness)
                panic!("fault injection: scheduled crash of join-{}-{}", io.ctx.side, io.ctx.id);
            }
            state.step(io, &mut fx, msg, true, qlen, &mut ring);
        }));
        match stepped {
            Ok(()) => {
                log.push(retry);
                if log.len() as u64 >= sup.checkpoint_every.max(1) {
                    checkpoint = state.clone();
                    log.clear();
                }
            }
            Err(payload) => {
                restarts += 1;
                let fatal = restarts > sup.max_restarts;
                ring.push(TraceEvent::control(
                    now_us(),
                    actor,
                    TraceKind::FaultCrash,
                    0,
                    u64::from(restarts),
                ));
                let _ = io.collector.send(CollectorMsg::ExecutorFailure {
                    name: format!("join-{}-{}", ctx.side, ctx.id),
                    error: panic_text(payload.as_ref()),
                    fatal,
                });
                if let Some(h) = io.hub {
                    h.record_executor_failure();
                }
                if fatal {
                    return; // no InstanceDone: the collector fails the run
                }
                fx.clear();
                // Restore-and-replay can only re-panic on a genuine bug
                // (deterministic protocol violation); that is fatal.
                let replayed = catch_unwind(AssertUnwindSafe(|| {
                    let mut s = checkpoint.clone();
                    let mut rfx = Effects::new();
                    for m in &log {
                        s.step(io, &mut rfx, m.clone(), false, 0, &mut ring);
                    }
                    // The in-flight message dies with the crash before any
                    // of its effects escape, so it re-processes live.
                    s.step(io, &mut rfx, retry.clone(), true, 0, &mut ring);
                    s
                }));
                match replayed {
                    Ok(mut s) => {
                        s.reg.counter_add("executor_restarts", 1);
                        ring.push(TraceEvent::control(
                            now_us(),
                            actor,
                            TraceKind::FaultRestart,
                            0,
                            u64::from(restarts),
                        ));
                        state = s;
                        log.push(retry);
                    }
                    Err(p2) => {
                        let _ = io.collector.send(CollectorMsg::ExecutorFailure {
                            name: format!("join-{}-{}", ctx.side, ctx.id),
                            error: format!("recovery replay failed: {}", panic_text(p2.as_ref())),
                            fatal: true,
                        });
                        return;
                    }
                }
            }
        }
        if state.eos && state.inst.migration_state().is_idle() {
            // All probes this instance received must have completed here or
            // been handed off; the collector asserts the sum stays zero.
            state.reg.counter_add("probe_fanout_leaked", state.probe_fanout.len() as u64);
            state.reg.counter_add("trace.dropped", ring.dropped());
            state.reg.counter_add("sends_parked", state.sends_parked);
            state.reg.gauge_set("queue.depth", q_hwm as f64);
            let (delays, drops, dups, reorders) = rx.perturbations();
            state.reg.counter_add("chaos.delays", delays);
            state.reg.counter_add("chaos.drops", drops);
            state.reg.counter_add("chaos.dups", dups);
            state.reg.counter_add("chaos.reorders", reorders);
            let _ = io.collector.send(CollectorMsg::InstanceDone {
                group: ctx.group,
                id: ctx.id,
                counters: state.inst.counters(),
                registry: std::mem::take(&mut state.reg),
                journal: Box::new(ring.into_journal()),
            });
            return;
        }
    }
}

// ---------------------------------------------------------------------
// Monitors
// ---------------------------------------------------------------------

/// Everything a monitor executor accumulates across its lifetime,
/// owned by the supervisor wrapper outside `catch_unwind` so a panic
/// loses the incarnation but never the journal, telemetry, LI trace, or
/// quiesce-handshake state. The [`Monitor`] itself is deliberately
/// *rebuilt* after a crash rather than reused: a panic mid-method may
/// have left it torn, so the supervisor harvests its durable summary
/// (the load-stats seed, epoch high-water mark, and in-flight round) and
/// reseeds a fresh one — modelling a real monitor process restarting
/// from persisted load statistics.
struct MonitorSession {
    monitor: Monitor,
    /// Live LI trace (the paper's Fig. 11), one bucket per monitor tick.
    li: TimeSeries,
    ring: TraceRing,
    reg: MetricsRegistry,
    quiescing: bool,
    acked: bool,
    /// Remaining injected `MigrateCmd` losses (see `FaultPlan`).
    drop_triggers: u64,
    /// Times a bounded instance send parked on a full inbox; folded into
    /// the registry as `sends_parked` when the session reports.
    sends_parked: u64,
    /// How many of the monitor's audited decisions already have trace
    /// events, so each incarnation journals only the new tail (resynced
    /// on reseed — absorbed history was journaled by its incarnation).
    decisions_seen: u64,
}

/// One monitor incarnation: the periodic report/trigger/deadline loop.
/// Re-entrant — all cross-incarnation state lives in [`MonitorSession`].
/// `switch` injects the `CrashPhase::MonitorMidRound` fault: a panic
/// immediately *after* a `MigrateCmd` goes out, so the round is in
/// flight at the instances while the monitor that owns its deadline is
/// dead (dropped triggers do not advance the switch — no round starts).
#[allow(clippy::too_many_arguments)]
fn monitor_loop(
    group: usize,
    period: Duration,
    sess: &mut MonitorSession,
    rx: &mut ChaosReceiver<MonitorMsg>,
    to_instances: &[Sender<RtMsg>],
    disp_ctrl: &Sender<DispatcherMsg>,
    quiesce_ack: &Sender<usize>,
    now_us: &dyn Fn() -> u64,
    switch: &mut ControlKillSwitch,
    hb: &AtomicU64,
    kill: &AtomicBool,
    hub: Option<&IntrospectionHub>,
) {
    let actor = Actor::monitor(group as u8);
    let mut next_tick = Instant::now() + period;
    #[allow(clippy::while_let_loop)] // the loop body has multiple exits
    loop {
        hb.store(now_us(), Ordering::Relaxed);
        if kill.load(Ordering::Relaxed) {
            break;
        }
        // Ask every instance for its period statistics.
        let timeout = next_tick.saturating_duration_since(Instant::now());
        match rx.recv_timeout(timeout) {
            Ok(MonitorMsg::Report { id, load }) => sess.monitor.on_report(id, load),
            Ok(MonitorMsg::Done(done)) => {
                sess.monitor.on_migration_done(done, now_us() / 1000);
                sess.ring.push(TraceEvent::control(
                    now_us(),
                    actor,
                    TraceKind::MigDone,
                    done.epoch,
                    done.tuples_moved,
                ));
                // Whatever the round staged at the dispatcher is now
                // permanent (no-op for aborted/abandoned rounds, whose
                // stage was already reverted or never existed).
                let _ = disp_ctrl.send(DispatcherMsg::Commit { group, epoch: done.epoch });
            }
            Ok(MonitorMsg::AbortOutcome { epoch, aborted }) => {
                sess.monitor.on_abort_outcome(epoch, aborted, now_us() / 1000);
                sess.ring.push(TraceEvent::control(
                    now_us(),
                    actor,
                    TraceKind::AbortOutcome,
                    epoch,
                    u64::from(aborted),
                ));
            }
            Ok(MonitorMsg::Quiesce) => sess.quiescing = true,
            Err(RecvTimeoutError::Timeout) => {
                next_tick += period;
                sess.li.record(now_us(), sess.monitor.imbalance());
                for tx in to_instances {
                    let _ =
                        send_with_hb(tx, RtMsg::ReportRequest, hb, now_us, &mut sess.sends_parked);
                }
                if !sess.quiescing {
                    if let Some(trigger) = sess.monitor.maybe_trigger(now_us() / 1000) {
                        let epoch = trigger.msg.round_id().unwrap_or(TraceEvent::NO_ROUND);
                        let target = match &trigger.msg {
                            InstanceMsg::MigrateCmd { target, .. } => *target as u64,
                            InstanceMsg::Data(_)
                            | InstanceMsg::MigStart { .. }
                            | InstanceMsg::MigStore { .. }
                            | InstanceMsg::RouteUpdated { .. }
                            | InstanceMsg::MigForward { .. }
                            | InstanceMsg::MigEnd { .. }
                            | InstanceMsg::MigAbort { .. }
                            | InstanceMsg::MigReturn { .. } => 0,
                        };
                        if sess.drop_triggers > 0 {
                            // Injected fault: the command is lost in
                            // flight. The monitor now believes a round is
                            // in flight that no instance ever heard of —
                            // only the abort watchdog can close it.
                            sess.drop_triggers -= 1;
                            sess.ring.push(TraceEvent {
                                at_us: now_us(),
                                actor,
                                kind: TraceKind::FaultDropTrigger,
                                seq: 0,
                                epoch,
                                aux: trigger.source as u64,
                                aux2: target,
                            });
                        } else {
                            sess.ring.push(TraceEvent {
                                at_us: now_us(),
                                actor,
                                kind: TraceKind::MigTrigger,
                                seq: 0,
                                epoch,
                                aux: trigger.source as u64,
                                aux2: target,
                            });
                            let source = trigger.source;
                            let _ = send_with_hb(
                                // lint:allow(monitor only triggers sources it was built to watch)
                                &to_instances[source],
                                RtMsg::Inst(trigger.msg),
                                hb,
                                now_us,
                                &mut sess.sends_parked,
                            );
                            if switch.should_crash() {
                                // lint:allow(the injected fail-stop crash IS the fault under test; the monitor wrapper catches and restarts)
                                panic!(
                                    "fault injection: scheduled crash of monitor-{group} mid-round"
                                );
                            }
                        }
                    }
                }
                if let Some(req) = sess.monitor.check_deadline(now_us() / 1000) {
                    sess.ring.push(TraceEvent::control(
                        now_us(),
                        actor,
                        TraceKind::AbortRequest,
                        req.epoch,
                        req.source as u64,
                    ));
                    let _ = disp_ctrl.send(DispatcherMsg::Abort {
                        group,
                        epoch: req.epoch,
                        source: req.source,
                    });
                }
                // Decision audit, trace half: journal every decision the
                // monitor recorded this tick (committed plans and
                // rejections alike) so `trace --round` can explain them.
                let recorded = sess.monitor.decisions_recorded();
                if recorded > sess.decisions_seen {
                    let fresh = (recorded - sess.decisions_seen) as usize;
                    let ds = sess.monitor.decisions();
                    let at = now_us();
                    for d in ds.iter().skip(ds.len().saturating_sub(fresh)) {
                        sess.ring.push(TraceEvent {
                            at_us: at,
                            actor,
                            kind: TraceKind::MigDecision,
                            seq: 0,
                            epoch: d.epoch.unwrap_or(TraceEvent::NO_ROUND),
                            aux: d.reason.code(),
                            aux2: (d.source as u64) * 256 + d.target as u64,
                        });
                    }
                    sess.decisions_seen = recorded;
                }
                if let Some(hub) = hub {
                    let (phase, epoch) = match sess.monitor.in_flight_round() {
                        Some((e, _, _)) if sess.monitor.abort_pending() => {
                            (MigrationPhase::Aborting, e)
                        }
                        Some((e, _, _)) => (MigrationPhase::Migrating, e),
                        None => (MigrationPhase::Idle, 0),
                    };
                    let stats = sess.monitor.stats();
                    hub.publish_group(GroupProbe {
                        group: group as u8,
                        imbalance: sess.monitor.imbalance(),
                        loads: sess
                            .monitor
                            .load_snapshot()
                            .iter()
                            .map(|l| l.effective_load() as u64)
                            .collect(),
                        phase,
                        epoch,
                        triggered: stats.triggered,
                        effective: stats.effective,
                    });
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
        if sess.quiescing && !sess.acked && !sess.monitor.migration_in_flight() {
            let _ = quiesce_ack.send(group);
            sess.acked = true;
        }
    }
}

/// Terminal degraded mode, entered when a monitor's restart budget is
/// spent: the run continues *without* migrations — routing is frozen at
/// the last table the dispatcher committed — rather than failing. This
/// loop keeps the shutdown handshake alive: `Quiesce` is acknowledged
/// immediately (no round can be in flight — the caller tombstoned any
/// in-flight round through the dispatcher's abort path before entering),
/// and every other message is discarded until the inbox disconnects.
fn degraded_monitor_drain(
    group: usize,
    sess: &mut MonitorSession,
    rx: &mut ChaosReceiver<MonitorMsg>,
    quiesce_ack: &Sender<usize>,
    now_us: &dyn Fn() -> u64,
    hb: &AtomicU64,
    kill: &AtomicBool,
) {
    // A Quiesce that arrived before the final crash still needs its ack.
    if sess.quiescing && !sess.acked {
        let _ = quiesce_ack.send(group);
        sess.acked = true;
    }
    loop {
        hb.store(now_us(), Ordering::Relaxed);
        if kill.load(Ordering::Relaxed) {
            return;
        }
        match rx.recv_timeout(EXECUTOR_TICK) {
            Ok(MonitorMsg::Quiesce) => {
                sess.quiescing = true;
                if !sess.acked {
                    let _ = quiesce_ack.send(group);
                    sess.acked = true;
                }
            }
            Ok(_) => {}
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastjoin_core::protocol::RouteRequest;

    /// The supervised dispatch plane (`shards` shard threads plus the
    /// sequencer, spawned exactly as the runtime spawns them) wired to
    /// hand-built channels, so tests control every input and observe every
    /// instance inbox directly.
    struct ShardedHarness {
        data_txs: Vec<Sender<DispatcherMsg>>,
        ctrl_tx: Sender<DispatcherMsg>,
        rxs: [Vec<Receiver<RtMsg>>; 2],
        /// Extra senders to the instance inboxes (to pre-fill them).
        extra_txs: [Vec<Sender<RtMsg>>; 2],
        collector_rx: Receiver<CollectorMsg>,
        handles: Vec<(String, thread::JoinHandle<()>)>,
    }

    fn spawn_sharded(shards: usize, n: usize, cap: usize, batch_size: usize) -> ShardedHarness {
        let cfg = RuntimeConfig {
            fastjoin: FastJoinConfig { instances_per_group: n, ..FastJoinConfig::default() },
            batch_size,
            ..RuntimeConfig::default()
        };
        let (data_txs, data_rxs): (Vec<_>, Vec<_>) =
            (0..shards).map(|_| bounded::<DispatcherMsg>(64)).unzip();
        let (ctrl_tx, ctrl_rx) = unbounded::<DispatcherMsg>();
        let mut txs: [Vec<Sender<RtMsg>>; 2] = [Vec::new(), Vec::new()];
        let mut rxs: [Vec<Receiver<RtMsg>>; 2] = [Vec::new(), Vec::new()];
        for g in 0..2 {
            for _ in 0..n {
                let (tx, rx) = bounded::<RtMsg>(cap);
                txs[g].push(tx);
                rxs[g].push(rx);
            }
        }
        let (collector_tx, collector_rx) = unbounded::<CollectorMsg>();
        let wiring = DispatchWiring {
            data_rxs,
            ctrl_rx,
            inst_txs: txs.clone(),
            mon_txs: [None, None],
            collector: collector_tx,
        };
        let kill = Arc::new(AtomicBool::new(false));
        let handles = spawn_dispatch(&cfg, wiring, Instant::now(), &kill, None, &mut |_| {
            Arc::new(AtomicU64::new(0))
        });
        ShardedHarness { data_txs, ctrl_tx, rxs, extra_txs: txs, collector_rx, handles }
    }

    fn recv(rx: &Receiver<RtMsg>, what: &str) -> RtMsg {
        rx.recv_timeout(Duration::from_secs(5)).unwrap_or_else(|e| panic!("{what}: {e}"))
    }

    fn shutdown_sharded(h: ShardedHarness) {
        let shards = h.data_txs.len();
        drop(h.data_txs);
        drop(h.ctrl_tx);
        drop(h.extra_txs);
        // One report per shard plus the sequencer's, in any order.
        for i in 0..=shards {
            let done = h
                .collector_rx
                .recv_timeout(Duration::from_secs(5))
                .unwrap_or_else(|e| panic!("DispatcherDone {i}: {e}"));
            assert!(matches!(done, CollectorMsg::DispatcherDone { .. }));
        }
        for (name, handle) in h.handles {
            handle.join().unwrap_or_else(|_| panic!("{name} exits cleanly"));
        }
    }

    /// Regression test (EOS control drain). A `Route` that reaches the
    /// sequencer while it is broadcasting `Eos` must still be applied and
    /// answered with `RouteUpdated`. A dispatcher that stops reading
    /// control right after the broadcast silently drops the update — this
    /// test fails there deterministically: the broadcast is parked on a
    /// full inbox while the Route is queued, guaranteeing it arrives
    /// before such a loop could exit.
    #[test]
    fn eos_applies_control_arriving_during_shutdown() {
        let h = spawn_sharded(1, 2, 1, 4);
        // Occupy inst[0][1]'s single slot so the Eos broadcast blocks
        // there, right after Eos lands at inst[0][0].
        h.extra_txs[0][1].send(RtMsg::ReportRequest).expect("pre-fill");
        h.data_txs[0].send(DispatcherMsg::Eos).expect("send Eos");
        // Once Eos shows up at inst[0][0] the sequencer is provably at or
        // before the blocked inst[0][1] send.
        assert!(matches!(recv(&h.rxs[0][0], "Eos at inst[0][0]"), RtMsg::Eos));
        let req = RouteRequest { epoch: 7, keys: Vec::new(), target: 1, source: 0 };
        h.ctrl_tx.send(DispatcherMsg::Route { group: 0, req }).expect("send Route");
        // Unblock the broadcast only now: the Route is already queued.
        assert!(matches!(recv(&h.rxs[0][1], "pre-fill drain"), RtMsg::ReportRequest));
        assert!(matches!(recv(&h.rxs[0][1], "Eos at inst[0][1]"), RtMsg::Eos));
        let got = recv(&h.rxs[0][0], "RouteUpdated for the late Route");
        assert!(
            matches!(got, RtMsg::Inst(InstanceMsg::RouteUpdated { epoch: 7 })),
            "late Route must still produce RouteUpdated, got {got:?}"
        );
        for rx in &h.rxs[1] {
            assert!(matches!(recv(rx, "Eos at group 1"), RtMsg::Eos));
        }
        shutdown_sharded(h);
    }

    /// Regression test (control-priority drain, at the shard). Every
    /// queued `ShardCtrl::Publish` is installed before the shard routes
    /// its next data message. A shard that serves at most one publication
    /// per data message routes the tuple below under the first snapshot
    /// only, sending it to its pre-flip owner. The publication barrier
    /// lets at most one publication per flip reach a live shard, so the
    /// queue is built by hand and the shard body runs on this thread.
    #[test]
    fn queued_control_is_served_before_the_next_data_message() {
        let fj = FastJoinConfig { instances_per_group: 2, ..FastJoinConfig::default() };
        // Two keys the initial table stores at R-instance 0.
        let (mut initial, _, _) = build_partitioners(SystemKind::FastJoin, &fj);
        let mut at_zero = (0u64..).filter(|k| initial.store_route(*k) == 0);
        let (k1, k2) = (at_zero.next().expect("a key at 0"), at_zero.next().expect("another"));
        let (r, s, _) = build_partitioners(SystemKind::FastJoin, &fj);
        let mut authority = Dispatcher::new(r, s);
        // Publication 1 moves k1 to instance 1; publication 2 moves k2 too.
        let (sc_tx, sc_rx) = unbounded::<ShardCtrl>();
        for (epoch, key) in [(1, k1), (2, k2)] {
            let req = RouteRequest { epoch, keys: vec![key], target: 1, source: 0 };
            assert!(authority.stage_route(Side::R, &req));
            sc_tx.send(ShardCtrl::Publish(authority.route_snapshot(epoch))).expect("publish");
        }
        drop(sc_tx);
        let (data_tx, data_rx) = bounded::<DispatcherMsg>(4);
        data_tx.send(DispatcherMsg::Ingest(Tuple::r(k2, 0, 7))).expect("tuple");
        data_tx.send(DispatcherMsg::Eos).expect("eos");
        let mut txs: [Vec<Sender<RtMsg>>; 2] = [Vec::new(), Vec::new()];
        let mut rxs: [Vec<Receiver<RtMsg>>; 2] = [Vec::new(), Vec::new()];
        for g in 0..2 {
            for _ in 0..2 {
                let (tx, rx) = bounded::<RtMsg>(8);
                txs[g].push(tx);
                rxs[g].push(rx);
            }
        }
        let (note_tx, note_rx) = unbounded::<ShardNote>();
        let (hb, kill, seq) = (AtomicU64::new(0), AtomicBool::new(false), AtomicU64::new(1));
        let now_us = || 0u64;
        let (r, s, _) = build_partitioners(SystemKind::FastJoin, &fj);
        let trace_cfg = TraceConfig::default();
        let mut core =
            DispatcherCore::new(r, s, 1, &txs, [None, None], &now_us, &hb, &trace_cfg, &seq, None);
        let mut slot = ShardSlot {
            shard: 0,
            queue_gauge: queue_gauge_name(0, 1),
            switch: ControlKillSwitch::new(None),
            resync: false,
            saw_eos: false,
        };
        // Returns once the (already dropped) publication channel drains.
        shard_loop(&mut core, &mut slot, &data_rx, &sc_rx, &note_tx, &kill);
        let acks: Vec<u64> = std::iter::from_fn(|| note_rx.try_recv().ok())
            .filter_map(|n| match n {
                ShardNote::SnapshotLive { epoch, .. } => Some(epoch),
                _ => None,
            })
            .collect();
        assert_eq!(acks, [1, 2], "both publications installed and acked in order");
        let stored = |i: usize| -> Vec<u64> {
            std::iter::from_fn(|| rxs[0][i].try_recv().ok())
                .filter_map(|m| match m {
                    RtMsg::Inst(InstanceMsg::Data(t)) => Some(t.key),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(stored(0), Vec::<u64>::new(), "nothing stored at the pre-flip owner");
        assert_eq!(
            stored(1),
            [k2],
            "ALL queued publications must be live before the next data message"
        );
    }

    /// Batched dispatch ships per-destination runs as batch messages while
    /// preserving arrival order and per-tuple identity (seq, fan-out).
    #[test]
    fn flushes_ship_ordered_runs_as_batches() {
        let h = spawn_sharded(1, 1, 64, 4);
        let tuples: Vec<Tuple> = (0..10).map(|i| Tuple::r(i, 0, i)).collect();
        h.data_txs[0].send(DispatcherMsg::IngestBatch(tuples)).expect("batch");
        h.data_txs[0].send(DispatcherMsg::Eos).expect("eos");
        let mut stored = Vec::new();
        let mut data_batches = 0;
        loop {
            match recv(&h.rxs[0][0], "store stream") {
                RtMsg::Inst(InstanceMsg::Data(t)) => stored.push(t),
                RtMsg::DataBatch(b) => {
                    data_batches += 1;
                    stored.extend(b);
                }
                RtMsg::Eos => break,
                other => panic!("unexpected on store channel: {other:?}"),
            }
        }
        assert_eq!(
            stored.iter().map(|t| t.payload).collect::<Vec<_>>(),
            (0..10).collect::<Vec<_>>()
        );
        assert!(data_batches >= 2, "10 tuples at batch 4 must ship in batch messages");
        assert!(stored.windows(2).all(|w| w[0].seq < w[1].seq), "dispatch seqs stay ordered");
        let mut probed = Vec::new();
        loop {
            match recv(&h.rxs[1][0], "probe stream") {
                RtMsg::Probe(t, f) => probed.push((t, f)),
                RtMsg::ProbeBatch(b) => probed.extend(b),
                RtMsg::Eos => break,
                other => panic!("unexpected on probe channel: {other:?}"),
            }
        }
        assert_eq!(probed.len(), 10);
        assert!(probed.iter().all(|(_, f)| *f == 1), "n = 1: every probe has fan-out 1");
        assert_eq!(
            probed.iter().map(|(t, _)| t.payload).collect::<Vec<_>>(),
            (0..10).collect::<Vec<_>>()
        );
        shutdown_sharded(h);
    }

    #[test]
    fn runtime_config_validate_rejects_bad_batching_knobs() {
        assert!(RuntimeConfig::default().validate().is_ok());
        let zero = RuntimeConfig { batch_size: 0, ..RuntimeConfig::default() };
        assert!(zero.validate().is_err(), "batch_size 0 must be rejected");
        let oversized = RuntimeConfig { batch_size: 8, queue_cap: 4, ..RuntimeConfig::default() };
        assert!(oversized.validate().is_err(), "batch larger than channel must be rejected");
        let no_queue = RuntimeConfig { queue_cap: 0, ..RuntimeConfig::default() };
        assert!(no_queue.validate().is_err(), "queue_cap 0 must be rejected");
        let no_shards = RuntimeConfig { dispatcher_shards: 0, ..RuntimeConfig::default() };
        assert!(no_shards.validate().is_err(), "dispatcher_shards 0 must be rejected");
        let sharded = RuntimeConfig { dispatcher_shards: 4, ..RuntimeConfig::default() };
        assert!(sharded.validate().is_ok(), "multi-shard configs are valid");
    }

    /// Satellite bugfix regression: per-executor seeds are derived by
    /// hashing (base, group, id, role), so no two executor coordinates in
    /// (or well beyond) any configurable topology share an RNG stream.
    /// The old affine form `seed + group + id*97` collided coordinates
    /// like `(group+97, id)` / `(group, id+1)` and made nearby executors'
    /// streams correlated.
    #[test]
    fn executor_seeds_are_pairwise_distinct_across_the_topology_range() {
        for base in [0u64, 0xFA57_301E, u64::MAX] {
            let mut seen = HashSet::new();
            let mut count = 0usize;
            for group in 0..2u64 {
                for id in 0..256u64 {
                    for role in [SEED_ROLE_SELECTOR, SEED_ROLE_CHAOS] {
                        assert!(
                            seen.insert(executor_seed(base, group, id, role)),
                            "seed collision at base={base:#x} group={group} id={id} role={role}"
                        );
                        count += 1;
                    }
                }
            }
            assert_eq!(seen.len(), count);
        }
    }

    /// Tentpole regression test (sharded routing consistency). Queues a
    /// route flip while a shard still holds data routed under the old
    /// snapshot and asserts the two halves of the snapshot-per-batch
    /// contract:
    ///
    /// (a) the flip's `RouteUpdated` is withheld until every shard has
    ///     flushed its old-snapshot data — no tuple is ever overtaken by
    ///     the flip notification, i.e. nothing is delivered as if routed
    ///     by a snapshot older than its batch's; afterwards, every shard
    ///     routes strictly under the published snapshot (tuples for a
    ///     migrated key land on the new owner from every shard);
    /// (b) an unobstructed flip commits at control-channel latency, not a
    ///     full [`DISPATCH_TICK`] data-poll round.
    #[test]
    fn sharded_flip_waits_for_old_snapshot_data_and_commits_promptly() {
        let shards = 2;
        let cap = 8;
        let h = spawn_sharded(shards, 2, cap, 1);
        // Find keys with known group-0 store routes via a private
        // partitioner replica (routing is deterministic per config).
        let fj = FastJoinConfig { instances_per_group: 2, ..FastJoinConfig::default() };
        let (mut probe_part, _, _) = build_partitioners(SystemKind::FastJoin, &fj);
        let key_to = |part: &mut Box<dyn fastjoin_core::partition::Partitioner + Send>,
                      want: usize| {
            (0u64..1024).find(|k| part.store_route(*k) == want).expect("a key routing to `want`")
        };
        let k_a = key_to(&mut probe_part, 0);
        let k_b = key_to(&mut probe_part, 1);
        // Park shard 1: fill inst[0][1]'s inbox, then feed shard 1 a
        // tuple storing there — its flush blocks mid-send, holding data
        // routed under the pre-flip snapshot in flight.
        for _ in 0..cap {
            h.extra_txs[0][1].send(RtMsg::ReportRequest).expect("pre-fill");
        }
        h.data_txs[1].send(DispatcherMsg::Ingest(Tuple::r(k_b, 0, 1))).expect("park shard 1");
        // Shard 0's tuple flushes immediately (batch_size 1, free inbox).
        h.data_txs[0].send(DispatcherMsg::Ingest(Tuple::r(k_a, 0, 1))).expect("t via shard 0");
        assert!(
            matches!(recv(&h.rxs[0][0], "shard 0 store"), RtMsg::Inst(InstanceMsg::Data(t)) if t.key == k_a),
            "shard 0's store reaches inst[0][0]"
        );
        // Give shard 1 ample time to dequeue its tuple and block in the
        // flush send before the flip goes in.
        thread::sleep(Duration::from_millis(100));
        let req = RouteRequest { epoch: 5, keys: Vec::new(), target: 1, source: 0 };
        h.ctrl_tx.send(DispatcherMsg::Route { group: 0, req }).expect("send flip");
        // (a) With shard 1 still holding old-snapshot data, the source
        // must NOT see RouteUpdated.
        thread::sleep(Duration::from_millis(30));
        assert!(
            h.rxs[0][0].try_recv().is_err(),
            "RouteUpdated must wait for every shard to flush old-snapshot data"
        );
        // Release shard 1: drain the parked inbox. Its flush completes,
        // it installs the snapshot and acks, and the barrier opens.
        let mut released = false;
        for _ in 0..(cap + 1) {
            match recv(&h.rxs[0][1], "parked inbox") {
                RtMsg::Inst(InstanceMsg::Data(t)) => {
                    assert_eq!(t.key, k_b);
                    released = true;
                    break;
                }
                RtMsg::ReportRequest => {}
                other => panic!("unexpected in parked inbox: {other:?}"),
            }
        }
        assert!(released, "shard 1's parked store must drain");
        assert!(
            matches!(
                recv(&h.rxs[0][0], "RouteUpdated after barrier"),
                RtMsg::Inst(InstanceMsg::RouteUpdated { epoch: 5 })
            ),
            "flip commits once every shard acked the snapshot"
        );
        // (b) Unobstructed flips commit at channel latency.
        assert_flips_commit_promptly(&h);
        // Post-flip snapshot consistency: migrate k_a to instance 1 and
        // verify BOTH shards route it under the published snapshot.
        let req = RouteRequest { epoch: 20, keys: vec![k_a], target: 1, source: 0 };
        h.ctrl_tx.send(DispatcherMsg::Route { group: 0, req }).expect("migrating flip");
        assert!(
            matches!(
                recv(&h.rxs[0][0], "migrating RouteUpdated"),
                RtMsg::Inst(InstanceMsg::RouteUpdated { epoch: 20 })
            ),
            "migrating flip commits"
        );
        for tx in &h.data_txs {
            tx.send(DispatcherMsg::Ingest(Tuple::r(k_a, 0, 2))).expect("post-flip tuple");
        }
        for tx in &h.data_txs {
            tx.send(DispatcherMsg::Eos).expect("eos");
        }
        // Drain in the sequencer's Eos broadcast order, counting where
        // the post-flip (payload 2) stores landed per inbox.
        let mut stores_at = [[0usize; 2]; 2];
        for (g, row) in stores_at.iter_mut().enumerate() {
            for (i, rx) in h.rxs[g].iter().enumerate() {
                loop {
                    match recv(rx, "drain to Eos") {
                        RtMsg::Eos => break,
                        RtMsg::Inst(InstanceMsg::Data(t)) if t.payload == 2 => {
                            row[i] += 1;
                        }
                        _ => {}
                    }
                }
            }
        }
        assert_eq!(
            stores_at[0],
            [0, 2],
            "every shard must route the migrated key under the published snapshot"
        );
        shutdown_sharded(h);
    }

    /// Unobstructed flips (epochs 6..=16, no keys moved) commit at channel
    /// latency: the fastest of several tries must beat one
    /// [`DISPATCH_TICK`] — a barrier or control path that ever waits out a
    /// data-poll round cannot.
    fn assert_flips_commit_promptly(h: &ShardedHarness) {
        let mut best = Duration::from_secs(1);
        for epoch in 6..=16u64 {
            let req = RouteRequest { epoch, keys: Vec::new(), target: 1, source: 0 };
            let t0 = Instant::now();
            h.ctrl_tx.send(DispatcherMsg::Route { group: 0, req }).expect("fast flip");
            assert!(
                matches!(
                    recv(&h.rxs[0][0], "fast RouteUpdated"),
                    RtMsg::Inst(InstanceMsg::RouteUpdated { epoch: e }) if e == epoch
                ),
                "fast flip must commit"
            );
            best = best.min(t0.elapsed());
        }
        assert!(
            best < DISPATCH_TICK,
            "an unobstructed flip should commit in well under one DISPATCH_TICK, best was {best:?}"
        );
    }

    /// Part (b) of the sharded flip test at the default deployment: one
    /// shard plus the sequencer must still commit an unobstructed flip
    /// within one [`DISPATCH_TICK`], although every flip now crosses the
    /// publication barrier.
    #[test]
    fn one_shard_flip_commits_promptly() {
        let h = spawn_sharded(1, 2, 8, 1);
        assert_flips_commit_promptly(&h);
        h.data_txs[0].send(DispatcherMsg::Eos).expect("eos");
        for rx in h.rxs.iter().flatten() {
            while !matches!(recv(rx, "drain to Eos"), RtMsg::Eos) {}
        }
        shutdown_sharded(h);
    }

    /// Regression test (heartbeat under backpressure). A bounded-channel
    /// send parked on a full peer inbox is making progress, not hanging;
    /// [`send_with_hb`] must keep refreshing the sender's heartbeat so
    /// the stall watchdog never converts backpressure into a false
    /// `ExecutorHung`. The pre-fix executors used plain blocking sends,
    /// and this test fails there: the heartbeat stays at its pre-send
    /// value for the whole park, which is far longer than `stall_ms`.
    #[test]
    fn bounded_send_refreshes_heartbeat_under_backpressure() {
        let (tx, rx) = bounded::<RtMsg>(1);
        tx.send(RtMsg::ReportRequest).expect("pre-fill the single slot");
        let hb = Arc::new(AtomicU64::new(0));
        let heartbeats: Vec<Heartbeat> = vec![("parked".to_string(), hb.clone())];
        let start = Instant::now();
        let sender = {
            let hb = hb.clone();
            thread::spawn(move || {
                let now_us = move || start.elapsed().as_micros() as u64;
                let mut parked = 0u64;
                assert!(
                    send_with_hb(&tx, RtMsg::Eos, &hb, &now_us, &mut parked),
                    "receiver stays alive"
                );
                assert!(parked > 0, "a 200ms park must count at least one timeout");
            })
        };
        // Park the send well past the stall budget. The heartbeat is
        // refreshed every EXECUTOR_TICK (25ms), so a 100ms budget has
        // ample slack against scheduler jitter.
        thread::sleep(Duration::from_millis(200));
        let now = start.elapsed().as_micros() as u64;
        assert!(
            stalled_executors(&heartbeats, now, 100).is_empty(),
            "a send parked on a full inbox must keep its heartbeat fresh"
        );
        // And the parked message is delivered once the inbox drains.
        let first = rx.recv_timeout(Duration::from_secs(5)).expect("pre-fill drains");
        assert!(matches!(first, RtMsg::ReportRequest));
        let second = rx.recv_timeout(Duration::from_secs(5)).expect("parked send lands");
        assert!(matches!(second, RtMsg::Eos));
        sender.join().expect("sender exits cleanly");
    }

    /// Regression test (stall report completeness). Correlated stalls —
    /// e.g. both endpoints of a wedged channel — must all be named in
    /// `RunError::ExecutorHung`; the pre-fix sweep reported only the
    /// first match, which routinely pointed debugging at the victim
    /// instead of the culprit.
    #[test]
    fn stalled_executors_reports_every_stalled_executor() {
        let hbs: Vec<Heartbeat> = vec![
            ("stale-a".into(), Arc::new(AtomicU64::new(10))),
            ("fresh".into(), Arc::new(AtomicU64::new(1_000_000))),
            ("stale-b".into(), Arc::new(AtomicU64::new(20))),
            ("finished".into(), Arc::new(AtomicU64::new(HB_FINISHED))),
        ];
        let got = stalled_executors(&hbs, 1_000_000, 100);
        assert_eq!(got, vec!["stale-a".to_string(), "stale-b".to_string()]);
        assert!(
            stalled_executors(&hbs, 1_000_000, 0).is_empty(),
            "stall_ms = 0 disables the watchdog"
        );
    }
}
