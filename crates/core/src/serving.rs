//! Sharded, lock-free model serving: answering prediction queries in real
//! time while the platform keeps training.
//!
//! The deployment drivers in [`crate::deployment`] interleave serving and
//! training on one thread with simulated time; this module is the
//! wall-clock counterpart — the piece that makes the paper's claim
//! operational: because proactive training produces a new model in
//! milliseconds, `publish` is frequent and cheap, and queries never wait on
//! a retraining (§5.5).
//!
//! Three layers (DESIGN.md §14):
//!
//! * **Epoch-pinned snapshots** — every shard holds a ring of
//!   double-buffered slots, each an immutable `Arc<ServingSnapshot>` (a
//!   coherent `(pipeline, model, version)` triple). Readers never take a
//!   lock: they pin a slot with an atomic counter, re-check the current
//!   index, clone the `Arc`, and unpin. Publishers rotate to the next slot
//!   only after its pin count drains, so a slot is never overwritten while
//!   a reader is cloning from it.
//! * **Micro-batching** — each shard owns a bounded MPSC queue of pending
//!   queries. A batch flushes when it reaches `max_batch` (inline, on the
//!   enqueueing thread) or when its oldest entry exceeds `max_delay_secs`
//!   (a deadline flush, from [`ModelServer::flush_due`] or the background
//!   [`FlusherHandle`]); the whole batch is scored against **one** snapshot
//!   through [`ExecutionEngine::try_map_indexed`], reusing the
//!   work-stealing pool.
//! * **Routing** — a [`ServingRouter`] multiplexes many concurrent
//!   deployments over one engine with per-route latency histograms,
//!   queue-depth gauges, and the `serving.*` SLA alert rules
//!   ([`AlertMonitor::serving_defaults`]).

use std::cell::UnsafeCell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use cdp_engine::{ExecutionEngine, TaskCtx};
use cdp_faults::{FaultHook, NoFaults};
use cdp_ml::LinearModel;
use cdp_obs::{Alert, AlertMonitor, Clock, Counter, Gauge, Histogram, Metrics, WallClock};
use cdp_pipeline::Pipeline;
use cdp_storage::Record;

/// A served prediction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// The model's raw margin (classification: sign is the class;
    /// regression: the predicted value).
    pub value: f64,
    /// Version of the `(pipeline, model)` pair that served the query.
    pub version: u64,
}

/// One immutable published `(pipeline, model, version)` triple.
///
/// Snapshots are never mutated after publication — readers share them via
/// `Arc`, so a query scored against a snapshot can never observe the
/// pipeline of one version and the model of another.
#[derive(Debug, Clone)]
pub struct ServingSnapshot {
    /// The transform-only pipeline of this version.
    pub pipeline: Pipeline,
    /// The model of this version, grown to the pipeline's output dimension.
    pub model: LinearModel,
    /// Monotonically increasing publication number (initial deploy = 1).
    pub version: u64,
}

/// Fingerprint of a weight vector's exact bit patterns, used by the publish
/// event log and the resume tests to name *which* model a publish carried.
///
/// Word `i` (`f64::to_bits`) feeds lane `i % 4` of four independent lanes,
/// one xor–multiply–rotate step each; the lanes and the length are then
/// folded in order and avalanched. Bit-identical vectors fingerprint equal.
/// Every step is a bijection of the word or lane it takes in, so flipping
/// any single bit of any weight always changes the fingerprint (`0.0` and
/// `-0.0` differ); swapping two unequal weights or changing the length
/// changes it except with 64-bit-hash odds.
pub fn weights_fingerprint(weights: &[f64]) -> u64 {
    const MUL: u64 = 0x9E37_79B9_7F4A_7C15;
    fn mix(lane: u64, word: u64) -> u64 {
        (lane ^ word).wrapping_mul(MUL).rotate_left(32)
    }
    let mut lanes: [u64; 4] = [
        0x243F_6A88_85A3_08D3,
        0x1319_8A2E_0370_7344,
        0xA409_3822_299F_31D0,
        0x082E_FA98_EC4E_6C89,
    ];
    let mut quads = weights.chunks_exact(4);
    for quad in &mut quads {
        for (lane, w) in lanes.iter_mut().zip(quad) {
            *lane = mix(*lane, w.to_bits());
        }
    }
    for (lane, w) in lanes.iter_mut().zip(quads.remainder()) {
        *lane = mix(*lane, w.to_bits());
    }
    let mut h = lanes
        .iter()
        .fold(weights.len() as u64, |h, &lane| mix(h, lane));
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^ (h >> 33)
}

/// Slots per shard ring. Two is the double buffer; two more absorb a
/// publish storm without the writer ever waiting on a reader that pinned
/// several versions ago.
const SNAPSHOT_SLOTS: usize = 4;

struct SnapshotSlot {
    /// Readers currently between pin and unpin on this slot.
    pins: AtomicUsize,
    /// The slot's snapshot. Written only by the (externally serialized)
    /// publisher while `pins == 0` and the slot is not current.
    snap: UnsafeCell<Arc<ServingSnapshot>>,
}

/// A lock-free publication cell: a ring of [`SNAPSHOT_SLOTS`] snapshot
/// slots plus the current index.
///
/// **Reader protocol** (`load`): read `current`, pin that slot
/// (`pins += 1`), re-read `current`; if unchanged, clone the slot's `Arc`
/// and unpin, else unpin and retry. Wait-free in practice: a retry needs a
/// concurrent publish between the two reads, and the publisher must lap the
/// whole ring before reusing the observed slot.
///
/// **Writer protocol** (`store`, callers serialized by the server's publish
/// mutex): pick `next = (current + 1) % SLOTS`, spin until
/// `pins(next) == 0`, overwrite the slot, then flip `current`.
///
/// Memory reclamation argument: the slot's old `Arc` is dropped by the
/// overwrite, but the snapshot it points to is freed only when the last
/// reader clone drops — the pin protects the *read of the `Arc` cell
/// itself*, not the snapshot lifetime. A reader holding a pin either saw
/// `current == slot` after pinning (so the publisher — which flips
/// `current` away before the slot can become a write target again, and
/// waits for `pins == 0` before writing) cannot be overwriting it, or it
/// observes the moved `current` on the re-check and retries without
/// touching the cell. All operations are `SeqCst`, so "pin then re-check"
/// and "wait-for-drain then write then flip" cannot reorder.
struct SnapshotCell {
    current: AtomicUsize,
    slots: [SnapshotSlot; SNAPSHOT_SLOTS],
}

// SAFETY: the `UnsafeCell` is only read while its slot is pinned and only
// written by an externally serialized publisher after the pin count drains
// (see the protocol above), so there is never a concurrent read/write of
// the cell contents. `Arc<ServingSnapshot>` itself is Send + Sync.
unsafe impl Send for SnapshotCell {}
// SAFETY: as above — shared access is coordinated by the pin/flip protocol.
unsafe impl Sync for SnapshotCell {}

impl SnapshotCell {
    fn new(initial: &Arc<ServingSnapshot>) -> Self {
        Self {
            current: AtomicUsize::new(0),
            slots: std::array::from_fn(|_| SnapshotSlot {
                pins: AtomicUsize::new(0),
                snap: UnsafeCell::new(Arc::clone(initial)),
            }),
        }
    }

    /// Lock-free coherent read of the current snapshot.
    fn load(&self) -> Arc<ServingSnapshot> {
        loop {
            let i = self.current.load(Ordering::SeqCst);
            self.slots[i].pins.fetch_add(1, Ordering::SeqCst);
            if self.current.load(Ordering::SeqCst) == i {
                // SAFETY: the slot is pinned and `current` still points at
                // it, so per the writer protocol no publisher is writing
                // this cell until our unpin below is visible.
                let snap = unsafe { (*self.slots[i].snap.get()).clone() };
                self.slots[i].pins.fetch_sub(1, Ordering::SeqCst);
                return snap;
            }
            // A publish moved on while we pinned; retry on the new slot.
            self.slots[i].pins.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Publishes a new snapshot. Callers must be serialized (the server
    /// holds its publish mutex); readers are never blocked.
    fn store(&self, snap: Arc<ServingSnapshot>) {
        let cur = self.current.load(Ordering::SeqCst);
        let next = (cur + 1) % SNAPSHOT_SLOTS;
        // Drain stragglers still pinned on the target slot. Pins last for
        // one `Arc` clone, so this wait is nanoseconds; a reader can only
        // still be pinned here if it read `current == next` a full ring
        // rotation ago and has not yet re-checked.
        let mut spins = 0u32;
        while self.slots[next].pins.load(Ordering::SeqCst) != 0 {
            spins += 1;
            if spins > 64 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        // SAFETY: the slot is not `current` (the publisher has not flipped
        // yet and publishers are serialized) and its pin count is zero, so
        // no reader is inside the cell; any reader that pins from now on
        // re-checks `current`, finds it ≠ `next` until the flip below, and
        // retries without reading the cell.
        unsafe {
            *self.slots[next].snap.get() = snap;
        }
        self.current.store(next, Ordering::SeqCst);
    }
}

/// Micro-batching knobs for one server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchConfig {
    /// Flush as soon as a shard's queue reaches this many queries (the
    /// flush runs inline on the enqueueing thread).
    pub max_batch: usize,
    /// Deadline: a queued query is flushed no later than this many seconds
    /// after enqueue (enforced by [`ModelServer::flush_due`] /
    /// [`FlusherHandle`]). Worst-case added latency is therefore
    /// `max_delay_secs` + one batch-scoring pass.
    pub max_delay_secs: f64,
    /// Bound on queued queries per shard; `enqueue` beyond it returns
    /// [`QueueOverflow`] and counts `serving.queue_overflow`.
    pub capacity: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            max_batch: 32,
            max_delay_secs: 0.002,
            capacity: 1024,
        }
    }
}

/// `enqueue` rejected a query because the shard's bounded queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueOverflow;

impl fmt::Display for QueueOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serving micro-batch queue is full")
    }
}

impl std::error::Error for QueueOverflow {}

/// A claim on one enqueued query's eventual result.
#[derive(Debug, Clone)]
pub struct Ticket(Arc<TicketInner>);

#[derive(Debug)]
struct TicketInner {
    /// `None` = pending; `Some(outcome)` = fulfilled (outcome `None` =
    /// rejected or lost to a fatal batch failure).
    slot: Mutex<Option<Option<Prediction>>>,
    ready: Condvar,
}

impl Ticket {
    fn new() -> Self {
        Self(Arc::new(TicketInner {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        }))
    }

    fn fulfil(&self, outcome: Option<Prediction>) {
        let mut slot = self.0.slot.lock().unwrap_or_else(|e| e.into_inner());
        *slot = Some(outcome);
        self.0.ready.notify_all();
    }

    /// Blocks until the query's batch is flushed; `None` means the query
    /// was rejected (malformed / filtered) or its batch failed fatally.
    pub fn wait(&self) -> Option<Prediction> {
        let mut slot = self.0.slot.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(outcome) = *slot {
                return outcome;
            }
            slot = self.0.ready.wait(slot).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Non-blocking probe: `None` while the query is still queued.
    pub fn try_take(&self) -> Option<Option<Prediction>> {
        *self.0.slot.lock().unwrap_or_else(|e| e.into_inner())
    }
}

struct PendingQuery {
    record: Record,
    ticket: Ticket,
    enqueued_secs: f64,
}

struct Shard {
    cell: SnapshotCell,
    served: AtomicU64,
    rejected: AtomicU64,
    queue: Mutex<VecDeque<PendingQuery>>,
}

/// Cached cdp-obs handles: resolved once at build time so the hot path
/// never takes the registry's name-resolution lock.
struct ServerMetrics {
    served: Counter,
    route_served: Counter,
    rejected: Counter,
    route_rejected: Counter,
    overflow: Counter,
    publishes: Counter,
    batch_failures: Counter,
    latency: Histogram,
    route_latency: Histogram,
    batch_size: Histogram,
    queue_depth: Gauge,
    version: Gauge,
}

impl ServerMetrics {
    fn resolve(metrics: &Metrics, route: &str) -> Self {
        Self {
            served: metrics.counter("serving.served"),
            route_served: metrics.counter(&format!("serving.{route}.served")),
            rejected: metrics.counter("serving.rejected"),
            route_rejected: metrics.counter(&format!("serving.{route}.rejected")),
            overflow: metrics.counter("serving.queue_overflow"),
            publishes: metrics.counter("serving.publishes"),
            batch_failures: metrics.counter("serving.batch_failures"),
            latency: metrics.histogram("serving.latency_secs"),
            route_latency: metrics.histogram(&format!("serving.{route}.latency_secs")),
            batch_size: metrics.histogram_with_bounds(
                "serving.batch_size",
                &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0],
            ),
            queue_depth: metrics.gauge(&format!("serving.{route}.queue_depth")),
            version: metrics.gauge(&format!("serving.{route}.version")),
        }
    }
}

struct ServerInner {
    route: String,
    shards: Vec<Shard>,
    /// Latest published version (readers see per-shard versions via their
    /// snapshots; this is the publisher-side source of truth).
    version: AtomicU64,
    engine: ExecutionEngine,
    hook: Arc<dyn FaultHook>,
    metrics: Metrics,
    obs: ServerMetrics,
    clock: Arc<dyn Clock>,
    batch: BatchConfig,
    /// Serializes publishers; readers never touch it.
    publish_mu: Mutex<()>,
    /// Clock seconds of the last publish, as `f64` bits.
    last_publish_secs: AtomicU64,
    /// Queries handed to scoring (predict calls + flushed batch entries).
    attempts: AtomicU64,
    /// Queries turned away by a full micro-batch queue (never scored, so
    /// not part of `attempts`).
    overflowed: AtomicU64,
    /// Queries lost to a fatal (past the restart budget) batch failure.
    batch_failed: AtomicU64,
}

impl ServerInner {
    /// Scoring runs outside any deployment span tree: the server's hook and
    /// metrics, no tracer.
    fn task_ctx(&self) -> TaskCtx<'_> {
        TaskCtx {
            hook: &*self.hook,
            metrics: &self.metrics,
            ..TaskCtx::plain()
        }
    }
}

/// A sharded, lock-free serving front over a deployed pipeline + model.
///
/// Cloning the server is cheap (it is an `Arc` handle); clones share the
/// deployed snapshots, so one thread can [`publish`](ModelServer::publish)
/// while others [`predict`](ModelServer::predict). Readers are lock-free:
/// `predict` pins an epoch slot, clones the current snapshot `Arc`, and
/// scores against that immutable triple — a concurrent publish can never
/// tear the `(pipeline, model, version)` a query observes.
///
/// Each calling thread is sticky to one shard (round-robin assignment on
/// first use), so per-thread version observations are monotone and shard
/// counters stay contention-free.
///
/// ### Accounting invariant
///
/// `attempts() == queries_served() + queries_rejected() + batch_failures()`
/// — every query handed to scoring is counted exactly once, in exactly one
/// bucket, and the `serving.served` / `serving.rejected` cdp-obs counters
/// mirror the first two exactly (when metrics are enabled). Queue overflows
/// are counted separately ([`queue_overflows`](ModelServer::queue_overflows)
/// / `serving.queue_overflow`): an overflowed query was never scored.
#[derive(Clone)]
pub struct ModelServer {
    inner: Arc<ServerInner>,
}

impl fmt::Debug for ModelServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ModelServer")
            .field("route", &self.inner.route)
            .field("version", &self.version())
            .field("shards", &self.inner.shards.len())
            .field("engine", &self.inner.engine.name())
            .finish()
    }
}

/// Builder for [`ModelServer`] (all knobs optional; `build` deploys the
/// initial pair as version 1).
pub struct ServerBuilder {
    pipeline: Pipeline,
    model: LinearModel,
    route: String,
    shards: usize,
    engine: ExecutionEngine,
    hook: Arc<dyn FaultHook>,
    metrics: Metrics,
    clock: Arc<dyn Clock>,
    batch: BatchConfig,
}

impl ServerBuilder {
    /// Route name used in per-route metric names (default `"default"`).
    #[must_use]
    pub fn route(mut self, name: &str) -> Self {
        self.route = name.to_owned();
        self
    }

    /// Number of shards (≥ 1; default 4). More shards spread reader pins
    /// and queue locks; publishes touch every shard.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Engine for batch scoring (default sequential).
    #[must_use]
    pub fn engine(mut self, engine: ExecutionEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Fault hook consulted by batch-scoring engine maps (default
    /// [`NoFaults`]), so seeded worker panics can fire while serving.
    #[must_use]
    pub fn fault_hook(mut self, hook: Arc<dyn FaultHook>) -> Self {
        self.hook = hook;
        self
    }

    /// Metrics handle for the `serving.*` series (default disabled).
    #[must_use]
    pub fn metrics(mut self, metrics: Metrics) -> Self {
        self.metrics = metrics;
        self
    }

    /// Clock for latency/deadline/staleness measurements (default
    /// [`WallClock`]; inject a `VirtualClock` for deterministic tests).
    #[must_use]
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Micro-batching knobs (default [`BatchConfig::default`]).
    #[must_use]
    pub fn batching(mut self, batch: BatchConfig) -> Self {
        self.batch = batch;
        self
    }

    /// Deploys the initial `(pipeline, model)` pair as version 1.
    pub fn build(self) -> ModelServer {
        let mut model = self.model;
        model.grow_to(self.pipeline.dim());
        let initial = Arc::new(ServingSnapshot {
            pipeline: self.pipeline,
            model,
            version: 1,
        });
        let shards = (0..self.shards)
            .map(|_| Shard {
                cell: SnapshotCell::new(&initial),
                served: AtomicU64::new(0),
                rejected: AtomicU64::new(0),
                queue: Mutex::new(VecDeque::new()),
            })
            .collect();
        let obs = ServerMetrics::resolve(&self.metrics, &self.route);
        obs.version.set(1.0);
        let now = self.clock.now_secs();
        ModelServer {
            inner: Arc::new(ServerInner {
                route: self.route,
                shards,
                version: AtomicU64::new(1),
                engine: self.engine,
                hook: self.hook,
                metrics: self.metrics,
                obs,
                clock: self.clock,
                batch: self.batch,
                publish_mu: Mutex::new(()),
                last_publish_secs: AtomicU64::new(now.to_bits()),
                attempts: AtomicU64::new(0),
                overflowed: AtomicU64::new(0),
                batch_failed: AtomicU64::new(0),
            }),
        }
    }
}

/// Scores one record against one snapshot: the single scoring function
/// shared by `predict` and the batched path, so batched results are
/// bit-identical to unbatched ones by construction. `None` = rejected
/// (malformed/filtered record, or — defensively — a feature vector wider
/// than the snapshot's weights, which `publish`'s `grow_to` makes
/// unreachable; such a query is rejected rather than scored as padded).
fn score_raw(snap: &ServingSnapshot, record: &Record) -> Option<f64> {
    let point = snap.pipeline.transform_query(record)?;
    if point.features.dim() > snap.model.dim() {
        return None;
    }
    Some(snap.model.margin_ref(&point.features))
}

impl ModelServer {
    /// Deploys the initial `(pipeline, model)` pair as version 1 with
    /// default configuration (4 shards, sequential scoring engine, metrics
    /// disabled). Use [`ModelServer::builder`] for the full configuration
    /// surface.
    pub fn new(pipeline: Pipeline, model: LinearModel) -> Self {
        Self::builder(pipeline, model).build()
    }

    /// Starts configuring a server around an initial `(pipeline, model)`.
    pub fn builder(pipeline: Pipeline, model: LinearModel) -> ServerBuilder {
        ServerBuilder {
            pipeline,
            model,
            route: "default".to_owned(),
            shards: 4,
            engine: ExecutionEngine::Sequential,
            hook: Arc::new(NoFaults),
            metrics: Metrics::disabled(),
            clock: Arc::new(WallClock::new()),
            batch: BatchConfig::default(),
        }
    }

    /// Route name (used in per-route metric names).
    pub fn route(&self) -> &str {
        &self.inner.route
    }

    /// The calling thread's sticky shard index (round-robin on first use).
    fn shard_index(&self) -> usize {
        static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);
        thread_local! {
            static THREAD_SLOT: std::cell::Cell<usize> =
                const { std::cell::Cell::new(usize::MAX) };
        }
        let slot = THREAD_SLOT.with(|s| {
            let mut v = s.get();
            if v == usize::MAX {
                v = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
                s.set(v);
            }
            v
        });
        slot % self.inner.shards.len()
    }

    /// The calling thread's current snapshot — a coherent immutable
    /// `(pipeline, model, version)` triple, obtained without locking.
    pub fn snapshot(&self) -> Arc<ServingSnapshot> {
        self.inner.shards[self.shard_index()].cell.load()
    }

    /// Answers one prediction query against the current snapshot, without
    /// taking any lock. Returns `None` (and counts a rejection) when the
    /// record is malformed or filtered out by a pipeline cleaning stage.
    pub fn predict(&self, record: &Record) -> Option<Prediction> {
        let shard = &self.inner.shards[self.shard_index()];
        let snap = shard.cell.load();
        self.inner.attempts.fetch_add(1, Ordering::Relaxed);
        let enabled = self.inner.metrics.is_enabled();
        let started = if enabled {
            self.inner.clock.now_secs()
        } else {
            0.0
        };
        match score_raw(&snap, record) {
            Some(value) => {
                shard.served.fetch_add(1, Ordering::Relaxed);
                if enabled {
                    let elapsed = self.inner.clock.now_secs() - started;
                    self.inner.obs.served.inc();
                    self.inner.obs.route_served.inc();
                    self.inner.obs.latency.observe(elapsed);
                    self.inner.obs.route_latency.observe(elapsed);
                }
                Some(Prediction {
                    value,
                    version: snap.version,
                })
            }
            None => {
                shard.rejected.fetch_add(1, Ordering::Relaxed);
                self.inner.obs.rejected.inc();
                self.inner.obs.route_rejected.inc();
                None
            }
        }
    }

    /// Scores a slice of records in one pass against one coherent snapshot,
    /// through the engine's indexed map (the work-stealing pool when the
    /// server was built with a threaded engine). Outcome per record is
    /// exactly what [`ModelServer::predict`] would return under the same
    /// snapshot.
    pub fn predict_batch(&self, records: &[Record]) -> Vec<Option<Prediction>> {
        let shard_idx = self.shard_index();
        let snap = self.inner.shards[shard_idx].cell.load();
        match self.score_batch(&snap, records) {
            Some(values) => {
                let shard = &self.inner.shards[shard_idx];
                values
                    .into_iter()
                    .map(|v| self.account_scored(shard, &snap, v, None))
                    .collect()
            }
            None => {
                self.inner
                    .batch_failed
                    .fetch_add(records.len() as u64, Ordering::Relaxed);
                self.inner.obs.batch_failures.add(records.len() as u64);
                vec![None; records.len()]
            }
        }
    }

    /// Engine pass over `records` with one shared snapshot. `None` = the
    /// map failed fatally (an injected worker panic past the restart
    /// budget); recoverable panics are absorbed by the engine and produce
    /// results identical to the fault-free pass.
    fn score_batch(&self, snap: &ServingSnapshot, records: &[Record]) -> Option<Vec<Option<f64>>> {
        self.inner
            .attempts
            .fetch_add(records.len() as u64, Ordering::Relaxed);
        self.inner
            .engine
            .try_map_indexed(
                records.len(),
                |i| score_raw(snap, &records[i]),
                &self.inner.task_ctx(),
            )
            .ok()
    }

    /// Books one scored outcome into the serve/reject counters (queue
    /// latency observed when `enqueued_secs` is known) and shapes it into a
    /// `Prediction`.
    fn account_scored(
        &self,
        shard: &Shard,
        snap: &ServingSnapshot,
        value: Option<f64>,
        enqueued_secs: Option<f64>,
    ) -> Option<Prediction> {
        match value {
            Some(value) => {
                shard.served.fetch_add(1, Ordering::Relaxed);
                if self.inner.metrics.is_enabled() {
                    self.inner.obs.served.inc();
                    self.inner.obs.route_served.inc();
                    if let Some(at) = enqueued_secs {
                        let elapsed = self.inner.clock.now_secs() - at;
                        self.inner.obs.latency.observe(elapsed);
                        self.inner.obs.route_latency.observe(elapsed);
                    }
                }
                Some(Prediction {
                    value,
                    version: snap.version,
                })
            }
            None => {
                shard.rejected.fetch_add(1, Ordering::Relaxed);
                self.inner.obs.rejected.inc();
                self.inner.obs.route_rejected.inc();
                None
            }
        }
    }

    /// Enqueues one query into the calling thread's shard queue for
    /// micro-batched scoring. Flushes inline when the shard reaches
    /// `max_batch`; otherwise the query waits for a deadline flush
    /// ([`ModelServer::flush_due`], [`ModelServer::flush_all`], or a
    /// [`FlusherHandle`]). The returned [`Ticket`] resolves to exactly what
    /// `predict` would have returned under the flush-time snapshot.
    ///
    /// # Errors
    /// [`QueueOverflow`] when the shard's bounded queue is at capacity; the
    /// query is counted in `serving.queue_overflow` and never scored.
    pub fn enqueue(&self, record: Record) -> Result<Ticket, QueueOverflow> {
        let shard_idx = self.shard_index();
        let shard = &self.inner.shards[shard_idx];
        let ticket = Ticket::new();
        let now = self.inner.clock.now_secs();
        let ready = {
            let mut q = shard.queue.lock().unwrap_or_else(|e| e.into_inner());
            if q.len() >= self.inner.batch.capacity {
                drop(q);
                self.inner.overflowed.fetch_add(1, Ordering::Relaxed);
                self.inner.obs.overflow.inc();
                return Err(QueueOverflow);
            }
            q.push_back(PendingQuery {
                record,
                ticket: ticket.clone(),
                enqueued_secs: now,
            });
            self.inner.obs.queue_depth.set(q.len() as f64);
            if q.len() >= self.inner.batch.max_batch {
                Some(drain_batch(&mut q, self.inner.batch.max_batch))
            } else {
                None
            }
        };
        if let Some(batch) = ready {
            self.flush_batch(shard_idx, batch);
        }
        Ok(ticket)
    }

    /// Queries currently queued across all shards.
    pub fn pending(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| s.queue.lock().unwrap_or_else(|e| e.into_inner()).len())
            .sum()
    }

    /// Flushes every shard whose oldest pending query has waited at least
    /// `max_delay_secs`; returns the number of queries flushed. A due shard
    /// drains completely (in `max_batch`-sized scoring passes): once the
    /// deadline forces a flush, draining the backlog is cheaper than
    /// re-arming it.
    pub fn flush_due(&self) -> usize {
        let now = self.inner.clock.now_secs();
        let deadline = self.inner.batch.max_delay_secs;
        (0..self.inner.shards.len())
            .map(|i| self.flush_shard(i, Some(now - deadline)))
            .sum()
    }

    /// Flushes every pending query regardless of deadlines; returns the
    /// number flushed.
    pub fn flush_all(&self) -> usize {
        (0..self.inner.shards.len())
            .map(|i| self.flush_shard(i, None))
            .sum()
    }

    /// Drains and scores shard `idx`. With `due_before = Some(t)`, only
    /// fires when the oldest entry was enqueued at or before `t`.
    fn flush_shard(&self, idx: usize, due_before: Option<f64>) -> usize {
        let shard = &self.inner.shards[idx];
        let mut flushed = 0;
        loop {
            let batch = {
                let mut q = shard.queue.lock().unwrap_or_else(|e| e.into_inner());
                let due = match (q.front(), due_before) {
                    (None, _) => false,
                    (Some(_), None) => true,
                    (Some(front), Some(t)) => front.enqueued_secs <= t,
                };
                if !due {
                    self.inner.obs.queue_depth.set(q.len() as f64);
                    break;
                }
                drain_batch(&mut q, self.inner.batch.max_batch)
            };
            flushed += batch.len();
            self.flush_batch(idx, batch);
        }
        flushed
    }

    /// Scores one drained batch against a single snapshot and fulfils its
    /// tickets.
    fn flush_batch(&self, shard_idx: usize, batch: Vec<PendingQuery>) {
        if batch.is_empty() {
            return;
        }
        let shard = &self.inner.shards[shard_idx];
        let snap = shard.cell.load();
        let records: Vec<&Record> = batch.iter().map(|p| &p.record).collect();
        self.inner
            .attempts
            .fetch_add(records.len() as u64, Ordering::Relaxed);
        let scored = self
            .inner
            .engine
            .try_map_indexed(
                records.len(),
                |i| score_raw(&snap, records[i]),
                &self.inner.task_ctx(),
            )
            .ok();
        match scored {
            Some(values) => {
                self.inner.obs.batch_size.observe(batch.len() as f64);
                for (pending, value) in batch.iter().zip(values) {
                    let outcome =
                        self.account_scored(shard, &snap, value, Some(pending.enqueued_secs));
                    pending.ticket.fulfil(outcome);
                }
            }
            None => {
                self.inner
                    .batch_failed
                    .fetch_add(batch.len() as u64, Ordering::Relaxed);
                self.inner.obs.batch_failures.add(batch.len() as u64);
                for pending in &batch {
                    pending.ticket.fulfil(None);
                }
            }
        }
    }

    /// Spawns a background deadline-flush thread polling
    /// [`ModelServer::flush_due`]; stops (and drains the queues) when the
    /// returned handle drops.
    pub fn start_flusher(&self) -> FlusherHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let server = self.clone();
        let flag = Arc::clone(&stop);
        let tick = (self.inner.batch.max_delay_secs / 2.0).max(0.0002);
        let join = std::thread::spawn(move || {
            while !flag.load(Ordering::SeqCst) {
                server.flush_due();
                std::thread::sleep(std::time::Duration::from_secs_f64(tick));
            }
            server.flush_all();
        });
        FlusherHandle {
            stop,
            join: Some(join),
        }
    }

    /// Atomically publishes an updated `(pipeline, model)` pair (e.g. after
    /// a proactive-training instance) to every shard and returns the new
    /// version number. Readers are never blocked: each shard's snapshot
    /// cell rotates to its next epoch slot. A reader thread observes
    /// versions monotonically (it is sticky to one shard, and each shard's
    /// cell moves only forward).
    pub fn publish(&self, pipeline: Pipeline, mut model: LinearModel) -> u64 {
        model.grow_to(pipeline.dim());
        let guard = self
            .inner
            .publish_mu
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let version = self.inner.version.load(Ordering::Relaxed) + 1;
        let snap = Arc::new(ServingSnapshot {
            pipeline,
            model,
            version,
        });
        for shard in &self.inner.shards {
            shard.cell.store(Arc::clone(&snap));
        }
        self.inner.version.store(version, Ordering::SeqCst);
        self.inner
            .last_publish_secs
            .store(self.inner.clock.now_secs().to_bits(), Ordering::Relaxed);
        drop(guard);
        self.inner.obs.publishes.inc();
        self.inner.obs.version.set(version as f64);
        version
    }

    /// Latest published version.
    pub fn version(&self) -> u64 {
        self.inner.version.load(Ordering::SeqCst)
    }

    /// Seconds since the last publish (0 right after deploy/publish).
    pub fn staleness_secs(&self) -> f64 {
        let last = f64::from_bits(self.inner.last_publish_secs.load(Ordering::Relaxed));
        (self.inner.clock.now_secs() - last).max(0.0)
    }

    /// Queries answered so far (sum over shards).
    pub fn queries_served(&self) -> u64 {
        self.inner
            .shards
            .iter()
            .map(|s| s.served.load(Ordering::Relaxed))
            .sum()
    }

    /// Malformed/filtered queries rejected so far (sum over shards).
    pub fn queries_rejected(&self) -> u64 {
        self.inner
            .shards
            .iter()
            .map(|s| s.rejected.load(Ordering::Relaxed))
            .sum()
    }

    /// Queries handed to scoring (served + rejected + lost to fatal batch
    /// failures) — the accounting invariant's left-hand side.
    pub fn attempts(&self) -> u64 {
        self.inner.attempts.load(Ordering::Relaxed)
    }

    /// Queries turned away by a full micro-batch queue (never scored).
    pub fn queue_overflows(&self) -> u64 {
        self.inner.overflowed.load(Ordering::Relaxed)
    }

    /// Queries lost to a fatal batch-scoring failure (injected worker
    /// panics past the restart budget).
    pub fn batch_failures(&self) -> u64 {
        self.inner.batch_failed.load(Ordering::Relaxed)
    }
}

/// Guard for the background deadline-flush thread of one server; dropping
/// it stops the thread and drains any still-queued queries.
#[derive(Debug)]
pub struct FlusherHandle {
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl Drop for FlusherHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

fn drain_batch(q: &mut VecDeque<PendingQuery>, max: usize) -> Vec<PendingQuery> {
    let take = q.len().min(max.max(1));
    q.drain(..take).collect()
}

/// Shared configuration for every route a [`ServingRouter`] registers.
#[derive(Clone)]
pub struct RouterConfig {
    /// Metrics handle shared by all routes (per-route series are
    /// name-scoped).
    pub metrics: Metrics,
    /// Clock for latency/deadline/staleness measurement.
    pub clock: Arc<dyn Clock>,
    /// Fault hook consulted by batch-scoring maps.
    pub hook: Arc<dyn FaultHook>,
    /// SLA rules evaluated by [`ServingRouter::check_slas`].
    pub sla: AlertMonitor,
    /// Shards per route.
    pub shards: usize,
    /// Micro-batching knobs per route.
    pub batch: BatchConfig,
}

impl fmt::Debug for RouterConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RouterConfig")
            .field("shards", &self.shards)
            .field("batch", &self.batch)
            .field("sla_rules", &self.sla.rules().len())
            .finish()
    }
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            metrics: Metrics::disabled(),
            clock: Arc::new(WallClock::new()),
            hook: Arc::new(NoFaults),
            sla: AlertMonitor::serving_defaults(0.050, 60.0),
            shards: 4,
            batch: BatchConfig::default(),
        }
    }
}

struct RouterInner {
    engine: ExecutionEngine,
    config: RouterConfig,
    routes: Mutex<BTreeMap<String, ModelServer>>,
}

/// Multiplexes many concurrent deployments over one scoring pool: each
/// registered route is a [`ModelServer`] sharing the router's engine,
/// metrics registry, clock, and fault hook, with per-route latency
/// histograms (`serving.<route>.latency_secs`), queue-depth gauges
/// (`serving.<route>.queue_depth`), and the aggregate `serving.*` series
/// feeding the SLA rules of [`AlertMonitor::serving_defaults`].
#[derive(Clone)]
pub struct ServingRouter {
    inner: Arc<RouterInner>,
}

impl fmt::Debug for ServingRouter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServingRouter")
            .field("engine", &self.inner.engine.name())
            .field("routes", &self.route_names())
            .finish()
    }
}

impl ServingRouter {
    /// A router scoring on `engine` with default [`RouterConfig`].
    pub fn new(engine: ExecutionEngine) -> Self {
        Self::with_config(engine, RouterConfig::default())
    }

    /// A router scoring on `engine` with explicit shared configuration.
    pub fn with_config(engine: ExecutionEngine, config: RouterConfig) -> Self {
        Self {
            inner: Arc::new(RouterInner {
                engine,
                config,
                routes: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// Deploys `(pipeline, model)` under `name` and returns the route's
    /// server handle (replacing — and returning a fresh server for — an
    /// existing route of the same name).
    pub fn register(&self, name: &str, pipeline: Pipeline, model: LinearModel) -> ModelServer {
        let cfg = &self.inner.config;
        let server = ModelServer::builder(pipeline, model)
            .route(name)
            .shards(cfg.shards)
            .engine(self.inner.engine)
            .fault_hook(Arc::clone(&cfg.hook))
            .metrics(cfg.metrics.clone())
            .clock(Arc::clone(&cfg.clock))
            .batching(cfg.batch)
            .build();
        self.inner
            .routes
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(name.to_owned(), server.clone());
        server
    }

    /// The server handle for `name`, if registered.
    pub fn route(&self, name: &str) -> Option<ModelServer> {
        self.inner
            .routes
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .cloned()
    }

    /// Registered route names, sorted.
    pub fn route_names(&self) -> Vec<String> {
        self.inner
            .routes
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .keys()
            .cloned()
            .collect()
    }

    fn servers(&self) -> Vec<ModelServer> {
        self.inner
            .routes
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .cloned()
            .collect()
    }

    /// Total queries served across every route (== the sum of per-route
    /// counters, == the aggregate `serving.served` counter).
    pub fn total_served(&self) -> u64 {
        self.servers().iter().map(ModelServer::queries_served).sum()
    }

    /// Total queries rejected across every route.
    pub fn total_rejected(&self) -> u64 {
        self.servers()
            .iter()
            .map(ModelServer::queries_rejected)
            .sum()
    }

    /// Deadline-flushes every route; returns queries flushed.
    pub fn flush_due(&self) -> usize {
        self.servers().iter().map(ModelServer::flush_due).sum()
    }

    /// Flushes every pending query on every route.
    pub fn flush_all(&self) -> usize {
        self.servers().iter().map(ModelServer::flush_all).sum()
    }

    /// Evaluates the SLA rules over the shared metrics registry. Exports
    /// `serving.staleness_secs` (the most stale route's seconds since
    /// publish) first so the `serving.stale_version` rule has its signal,
    /// then appends each fired alert as an `alert.fired` event.
    pub fn check_slas(&self) -> Vec<Alert> {
        let cfg = &self.inner.config;
        let stalest = self
            .servers()
            .iter()
            .map(|s| s.staleness_secs())
            .fold(0.0f64, f64::max);
        cfg.metrics.gauge("serving.staleness_secs").set(stalest);
        let fired = cfg
            .sla
            .evaluate(&cfg.metrics.snapshot(), cfg.clock.now_secs());
        for alert in &fired {
            cfg.metrics.event("alert.fired", alert.message());
        }
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdp_ml::LossKind;
    use cdp_obs::VirtualClock;
    use cdp_pipeline::encode::DenseEncoder;
    use cdp_pipeline::parser::SchemaParser;
    use cdp_pipeline::scale::StandardScaler;
    use cdp_pipeline::PipelineBuilder;
    use cdp_storage::{RawChunk, Schema, Timestamp, Value};

    fn pipeline() -> Pipeline {
        let schema = Schema::new(["y", "x"]);
        let built = PipelineBuilder::new(SchemaParser::new(schema, "y", &["x"], None))
            .add(StandardScaler::new())
            .encoder(DenseEncoder::new(1));
        match built {
            Ok(p) => p,
            Err(e) => panic!("components are incremental: {e}"),
        }
    }

    fn warmed_pipeline() -> Pipeline {
        let mut p = pipeline();
        let records = (0..8)
            .map(|i| Record::new(vec![Value::Num(i as f64), Value::Num(i as f64)]))
            .collect();
        p.fit_transform_chunk(&RawChunk::new(Timestamp(0), records));
        p
    }

    fn record(x: f64) -> Record {
        Record::new(vec![Value::Num(0.0), Value::Num(x)])
    }

    #[test]
    fn serves_predictions_and_counts() {
        let model = LinearModel::zeros(2, LossKind::Squared);
        let server = ModelServer::new(warmed_pipeline(), model);
        let p = server.predict(&record(1.0)).expect("valid query");
        assert_eq!(p.version, 1);
        assert_eq!(server.queries_served(), 1);

        // Malformed query counts as rejected — and the accounting invariant
        // holds exactly: every attempt lands in exactly one bucket.
        assert!(server
            .predict(&Record::new(vec![Value::Text("bad".into())]))
            .is_none());
        assert_eq!(server.queries_rejected(), 1);
        assert_eq!(
            server.attempts(),
            server.queries_served() + server.queries_rejected() + server.batch_failures()
        );
    }

    #[test]
    fn publish_bumps_version_and_changes_predictions() {
        let server = ModelServer::new(warmed_pipeline(), LinearModel::zeros(2, LossKind::Squared));
        let before = server.predict(&record(2.0)).expect("valid");
        assert_eq!(before.value, 0.0);

        let mut trained = LinearModel::zeros(2, LossKind::Squared);
        trained.weights_mut().set(0, 1.0).expect("bias slot");
        let v = server.publish(warmed_pipeline(), trained);
        assert_eq!(v, 2);
        let after = server.predict(&record(2.0)).expect("valid");
        assert_eq!(after.version, 2);
        assert_ne!(after.value, before.value);
    }

    #[test]
    fn concurrent_queries_during_publishes() {
        let server = ModelServer::new(warmed_pipeline(), LinearModel::zeros(2, LossKind::Squared));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let s = server.clone();
                std::thread::spawn(move || {
                    let mut last_version = 0;
                    for i in 0..500 {
                        let p = s.predict(&record(i as f64)).expect("valid query");
                        // Versions move forward, never backward.
                        assert!(p.version >= last_version);
                        last_version = p.version;
                    }
                    last_version
                })
            })
            .collect();
        // Publisher thread: keep deploying new versions while readers run.
        let publisher = {
            let s = server.clone();
            std::thread::spawn(move || {
                for _ in 0..50 {
                    s.publish(warmed_pipeline(), LinearModel::zeros(2, LossKind::Squared));
                }
            })
        };
        publisher.join().expect("publisher lives");
        for r in readers {
            let last = r.join().expect("reader lives");
            assert!(last >= 1);
        }
        assert_eq!(server.queries_served(), 4 * 500);
        assert_eq!(server.version(), 51);
    }

    #[test]
    fn snapshot_is_coherent_and_lock_free_reads_see_published_pairs() {
        let server = ModelServer::new(warmed_pipeline(), LinearModel::zeros(2, LossKind::Squared));
        let snap = server.snapshot();
        assert_eq!(snap.version, 1);
        assert_eq!(snap.model.dim(), snap.pipeline.dim());

        let mut trained = LinearModel::zeros(2, LossKind::Squared);
        trained.weights_mut().set(0, 3.0).expect("bias slot");
        server.publish(warmed_pipeline(), trained);
        let snap = server.snapshot();
        assert_eq!(snap.version, 2);
        assert_eq!(snap.model.weights().as_slice()[0], 3.0);
    }

    #[test]
    fn batched_scoring_matches_unbatched_bit_for_bit() {
        let mut trained = LinearModel::zeros(2, LossKind::Squared);
        trained.weights_mut().set(0, 0.25).expect("bias slot");
        trained.weights_mut().set(1, -1.5).expect("weight slot");
        let server = ModelServer::builder(warmed_pipeline(), trained)
            .engine(ExecutionEngine::Threaded { workers: 2 })
            .build();
        let records: Vec<Record> = (0..17).map(|i| record(i as f64 * 0.37 - 3.0)).collect();
        let unbatched: Vec<_> = records.iter().map(|r| server.predict(r)).collect();
        let batched = server.predict_batch(&records);
        for (u, b) in unbatched.iter().zip(&batched) {
            match (u, b) {
                (Some(a), Some(c)) => {
                    assert_eq!(a.value.to_bits(), c.value.to_bits());
                    assert_eq!(a.version, c.version);
                }
                (a, c) => assert_eq!(a.is_none(), c.is_none()),
            }
        }
        assert_eq!(server.attempts(), 2 * records.len() as u64);
    }

    #[test]
    fn micro_batch_queue_flushes_on_size_and_deadline() {
        let clock = Arc::new(VirtualClock::new());
        let server =
            ModelServer::builder(warmed_pipeline(), LinearModel::zeros(2, LossKind::Squared))
                .shards(1)
                .clock(clock.clone())
                .batching(BatchConfig {
                    max_batch: 3,
                    max_delay_secs: 0.010,
                    capacity: 8,
                })
                .build();

        // Two queries sit below max_batch: still pending.
        let t1 = server.enqueue(record(1.0)).expect("capacity");
        let t2 = server.enqueue(record(2.0)).expect("capacity");
        assert_eq!(server.pending(), 2);
        assert!(t1.try_take().is_none());

        // Deadline not reached yet: flush_due is a no-op.
        assert_eq!(server.flush_due(), 0);
        clock.advance_secs(0.011);
        assert_eq!(server.flush_due(), 2);
        assert!(t1.wait().is_some());
        assert!(t2.wait().is_some());

        // The third enqueue of a full batch flushes inline.
        let t3 = server.enqueue(record(3.0)).expect("capacity");
        let t4 = server.enqueue(record(4.0)).expect("capacity");
        let t5 = server.enqueue(record(5.0)).expect("capacity");
        assert_eq!(server.pending(), 0, "size trigger flushed inline");
        for t in [t3, t4, t5] {
            assert!(t.wait().is_some());
        }
        assert_eq!(server.queries_served(), 5);
    }

    #[test]
    fn bounded_queue_overflows_are_counted_not_scored() {
        let server =
            ModelServer::builder(warmed_pipeline(), LinearModel::zeros(2, LossKind::Squared))
                .shards(1)
                .batching(BatchConfig {
                    max_batch: 100,
                    max_delay_secs: 10.0,
                    capacity: 2,
                })
                .build();
        assert!(server.enqueue(record(1.0)).is_ok());
        assert!(server.enqueue(record(2.0)).is_ok());
        assert_eq!(server.enqueue(record(3.0)).err(), Some(QueueOverflow));
        assert_eq!(server.queue_overflows(), 1);
        assert_eq!(server.flush_all(), 2);
        assert_eq!(server.attempts(), 2, "overflowed query was never scored");
    }

    #[test]
    fn serving_metrics_reconcile_with_server_counters() {
        let metrics = Metrics::collecting();
        let server =
            ModelServer::builder(warmed_pipeline(), LinearModel::zeros(2, LossKind::Squared))
                .route("url")
                .metrics(metrics.clone())
                .build();
        for i in 0..7 {
            let _ = server.predict(&record(i as f64));
        }
        let _ = server.predict(&Record::new(vec![Value::Text("bad".into())]));
        server.publish(warmed_pipeline(), LinearModel::zeros(2, LossKind::Squared));

        let snap = metrics.snapshot();
        assert_eq!(snap.counter("serving.served"), server.queries_served());
        assert_eq!(snap.counter("serving.rejected"), server.queries_rejected());
        assert_eq!(snap.counter("serving.url.served"), server.queries_served());
        assert_eq!(
            snap.counter("serving.url.rejected"),
            server.queries_rejected()
        );
        assert_eq!(snap.counter("serving.publishes"), 1);
        assert_eq!(snap.gauge("serving.url.version"), 2.0);
        let lat = snap.histogram("serving.latency_secs").expect("latencies");
        assert_eq!(lat.count, server.queries_served());
    }

    #[test]
    fn router_multiplexes_routes_and_sums_counters() {
        let metrics = Metrics::collecting();
        let router = ServingRouter::with_config(
            ExecutionEngine::Sequential,
            RouterConfig {
                metrics: metrics.clone(),
                ..RouterConfig::default()
            },
        );
        let a = router.register(
            "a",
            warmed_pipeline(),
            LinearModel::zeros(2, LossKind::Squared),
        );
        let b = router.register(
            "b",
            warmed_pipeline(),
            LinearModel::zeros(2, LossKind::Squared),
        );
        for i in 0..5 {
            let _ = a.predict(&record(i as f64));
        }
        for i in 0..3 {
            let _ = b.predict(&record(i as f64));
        }
        assert_eq!(router.route_names(), vec!["a".to_owned(), "b".to_owned()]);
        assert_eq!(router.total_served(), 8);
        let snap = metrics.snapshot();
        assert_eq!(
            snap.counter("serving.served"),
            snap.counter("serving.a.served") + snap.counter("serving.b.served")
        );
        assert!(router.route("a").is_some());
        assert!(router.route("missing").is_none());
    }

    #[test]
    fn sla_rules_fire_on_breach_and_stay_quiet_when_healthy() {
        let clock = Arc::new(VirtualClock::new());
        let metrics = Metrics::with_clock(clock.clone());
        let router = ServingRouter::with_config(
            ExecutionEngine::Sequential,
            RouterConfig {
                metrics: metrics.clone(),
                clock: clock.clone(),
                sla: AlertMonitor::serving_defaults(0.050, 60.0),
                ..RouterConfig::default()
            },
        );
        let server = router.register(
            "url",
            warmed_pipeline(),
            LinearModel::zeros(2, LossKind::Squared),
        );
        let _ = server.predict(&record(1.0));
        assert!(
            router.check_slas().is_empty(),
            "healthy route fires nothing"
        );

        // A slow quantile, a full queue, and a stale route each breach.
        metrics.histogram("serving.latency_secs").observe(0.5);
        metrics.counter("serving.queue_overflow").inc();
        clock.advance_secs(120.0);
        let fired = router.check_slas();
        let names: Vec<&str> = fired.iter().map(|a| a.rule.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "serving.p99_breach",
                "serving.queue_overflow",
                "serving.stale_version"
            ]
        );
    }

    #[test]
    fn fingerprint_separates_weight_vectors() {
        let a = weights_fingerprint(&[1.0, 2.0]);
        let b = weights_fingerprint(&[1.0, 2.0 + 1e-12]);
        let c = weights_fingerprint(&[1.0, 2.0, 0.0]);
        assert_eq!(a, weights_fingerprint(&[1.0, 2.0]));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(weights_fingerprint(&[]), weights_fingerprint(&[0.0]));
        assert_ne!(weights_fingerprint(&[0.0]), weights_fingerprint(&[-0.0]));
    }

    #[test]
    fn fingerprint_detects_bit_flips_swaps_and_length_changes() {
        // Lengths 1..=9 cover every lane, a full round and the remainder.
        for len in 1..=9usize {
            let weights: Vec<f64> = (0..len).map(|i| 0.25 * i as f64 - 0.7).collect();
            let fp = weights_fingerprint(&weights);
            for at in [0, len / 2, len - 1] {
                for bit in 0..64 {
                    let mut flipped = weights.clone();
                    flipped[at] = f64::from_bits(flipped[at].to_bits() ^ (1 << bit));
                    assert_ne!(
                        weights_fingerprint(&flipped),
                        fp,
                        "len {len}, weight {at}, bit {bit}"
                    );
                }
            }
            for i in 0..len {
                for j in i + 1..len {
                    let mut swapped = weights.clone();
                    swapped.swap(i, j);
                    assert_ne!(
                        weights_fingerprint(&swapped),
                        fp,
                        "len {len}, swap {i}<->{j}"
                    );
                }
            }
            let mut longer = weights.clone();
            longer.push(0.0);
            assert_ne!(weights_fingerprint(&longer), fp, "len {len} + 0.0");
            assert_ne!(
                weights_fingerprint(&weights[..len - 1]),
                fp,
                "len {len} - 1"
            );
        }
    }
}
