//! The execution engine substrate.
//!
//! The paper's prototype delegates batch processing (proactive training) and
//! stream processing (online learning, query answering) to Apache Spark
//! (§4.5: "any data processing platform capable of processing data both in
//! batch mode and streaming mode is a suitable execution engine"). This
//! crate is that substrate at laptop scale: an [`ExecutionEngine`] executes
//! chunk-level data-parallel operations either sequentially or on a
//! **persistent worker pool** — threads are created once per worker count
//! (process-wide) and reused across calls, fed over a crossbeam channel.
//!
//! Scheduling is **work-stealing** over contiguous unit ranges: the input
//! index space is cut into a few units per participant, each participant
//! owns a range queue (packed lo/hi in one atomic word), pops its own units
//! from the front and, when its range runs dry, steals units from the *back*
//! of a sibling's queue. Completion is counted, not barriered: every claimed
//! unit bumps a shared counter and the last one wakes the submitting thread.
//! On the untraced hot path the submitting thread itself is participant 0,
//! so a map whose units all fit one participant degenerates to a plain loop
//! with no cross-thread hand-off at all; helper workers are enlisted only up
//! to the host's spare parallelism. With tracing enabled every unit runs on
//! pool threads instead, so the span tree reliably crosses threads.
//!
//! Every caller needs one operation: run `f(i)` for each `i in 0..n` and get
//! the outputs back in index order. [`ExecutionEngine::try_map_indexed`] is
//! that operation; a [`TaskCtx`] carries its fault hook, metrics, tracer and
//! trace parent. Two conveniences sit on the same scheduling path:
//! [`ExecutionEngine::map_indexed`] re-raises a failing unit's original
//! panic instead of returning an error, and [`ExecutionEngine::map`] moves
//! owned items (such as disjoint `&mut` ranges) into the units. Callers
//! shard borrowed data by index range rather than copying items into
//! per-shard vectors.
//!
//! Determinism contract: every map writes each output into its own index
//! slot, so input order is preserved no matter which participant ran which
//! unit, and [`tree_reduce`] combines partial results in a fixed shape that
//! depends only on the number of parts — never on worker count or
//! scheduling — so floating-point results are bit-identical across engines.
//! Scheduling observables that *are* timing-dependent (`engine.steal`,
//! `engine.barrier_wait_secs`) are recorded as histograms, never as
//! deterministic counters.

#![warn(missing_docs)]

use std::any::Any;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once, OnceLock, PoisonError};

use cdp_faults::{FaultHook, InjectedWorkerPanic, NoFaults, WorkerOrder, MAX_WORKER_RESTARTS};
use cdp_obs::{Metrics, SpanContext, Tracer};
use crossbeam::channel::{self, Sender};

/// Locks `mutex`, recovering from poisoning.
///
/// Every engine mutex guards simple scalar state (a registry map, a done
/// flag, a panic slot) that stays consistent even when the holder unwinds
/// mid-critical-section, so poisoning carries no information here.
/// Propagating the poison instead would crash the deployment thread on the
/// very fault the worker-restart machinery exists to absorb.
fn lock_ignore_poison<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Contiguous units handed out per participant in one map call: a few per
/// participant so a straggling unit re-balances onto idle participants via
/// stealing without giving up contiguity.
const UNITS_PER_PARTICIPANT: usize = 4;

/// An erased unit of work queued on the pool.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// A persistent pool of worker threads fed over a crossbeam channel.
///
/// Pools are process-global, keyed by worker count: the first
/// `Threaded { workers: w }` call spawns the `w` threads, every later call
/// with the same count reuses them (they block on the channel when idle).
struct WorkerPool {
    sender: Sender<Job>,
}

impl WorkerPool {
    /// Spawns `workers` threads. If one fails to spawn, the ones already
    /// running exit as soon as the error drops the pool's only sender.
    fn new(workers: usize) -> std::io::Result<Self> {
        let (sender, receiver) = channel::unbounded::<Job>();
        for i in 0..workers {
            let receiver = receiver.clone();
            std::thread::Builder::new()
                .name(format!("cdp-engine-{i}"))
                .spawn(move || {
                    // Helper jobs catch unit panics internally, so a
                    // panicking map never kills its worker; the loop only
                    // ends if the sender side is dropped (process exit).
                    while let Ok(job) = receiver.recv() {
                        job();
                    }
                })?;
        }
        Ok(Self { sender })
    }

    /// The process-wide pool for `workers` threads (created on first use).
    /// A pool that could not spawn all its threads is never cached, so a
    /// later call tries again.
    fn global(workers: usize) -> Result<Arc<WorkerPool>, EngineError> {
        static POOLS: OnceLock<Mutex<HashMap<usize, Arc<WorkerPool>>>> = OnceLock::new();
        let registry = POOLS.get_or_init(|| Mutex::new(HashMap::new()));
        let mut registry = lock_ignore_poison(registry);
        Ok(Arc::clone(match registry.entry(workers) {
            Entry::Occupied(pool) => pool.into_mut(),
            Entry::Vacant(slot) => {
                let pool = WorkerPool::new(workers)
                    .map_err(|err| EngineError::WorkerSpawn(err.to_string()))?;
                slot.insert(Arc::new(pool))
            }
        }))
    }
}

/// How many pool helpers the host can keep busy next to the submitting
/// thread. On a 1-core host this is 1, so an 8-worker engine enlists a
/// single helper instead of drowning the core in idle contenders — the fix
/// for the old engine's 0.45× cliff at ×8.
fn helper_cap() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(2)
            .saturating_sub(1)
            .max(1)
    })
}

/// One participant's contiguous range of pending units, packed `hi << 32 |
/// lo` into a single atomic word. The owner pops from the front (`lo`),
/// thieves steal from the back (`hi - 1`); both advance by CAS so every unit
/// index in `[lo, hi)` is claimed exactly once.
struct RangeQueue {
    state: AtomicU64,
}

fn pack(lo: u32, hi: u32) -> u64 {
    (u64::from(hi) << 32) | u64::from(lo)
}

fn unpack(state: u64) -> (u32, u32) {
    (state as u32, (state >> 32) as u32)
}

impl RangeQueue {
    fn new(lo: u32, hi: u32) -> Self {
        debug_assert!(lo <= hi);
        Self {
            state: AtomicU64::new(pack(lo, hi)),
        }
    }

    /// Owner side: claims the front unit of the range, if any.
    fn pop_front(&self) -> Option<usize> {
        let mut cur = self.state.load(Ordering::Acquire);
        loop {
            let (lo, hi) = unpack(cur);
            if lo >= hi {
                return None;
            }
            match self.state.compare_exchange_weak(
                cur,
                pack(lo + 1, hi),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(lo as usize),
                Err(now) => cur = now,
            }
        }
    }

    /// Thief side: claims the back unit of the range, if any.
    fn steal_back(&self) -> Option<usize> {
        let mut cur = self.state.load(Ordering::Acquire);
        loop {
            let (lo, hi) = unpack(cur);
            if lo >= hi {
                return None;
            }
            match self.state.compare_exchange_weak(
                cur,
                pack(lo, hi - 1),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some((hi - 1) as usize),
                Err(now) => cur = now,
            }
        }
    }
}

/// Shared state for one work-stealing map: the range queues, completion
/// count, panic slot, and the close/guard handshake that lets pool jobs
/// safely borrow from the submitting thread's stack.
struct Control {
    /// One range queue per participant, covering `[0, units)` disjointly.
    ranges: Vec<RangeQueue>,
    units: usize,
    completed: AtomicUsize,
    /// The panic payload of the lowest-indexed unit that panicked. Every
    /// claimed unit runs even after a panic, so which units ran — and which
    /// payload is kept — never depends on the schedule.
    panic: Mutex<Option<(usize, Box<dyn Any + Send>)>>,
    steals: AtomicU64,
    /// Scope-close handshake: the caller sets `closed` only after every
    /// unit completed, then spins until `guards` drains to zero. A pool job
    /// increments `guards`, *then* checks `closed`: either it sees the map
    /// still open (and the caller's spin keeps the borrowed stack alive
    /// until the job's decrement), or it sees `closed` and never touches
    /// the borrow. All four accesses are SeqCst, so the Dekker-style pair
    /// (store closed / load guards vs. add guards / load closed) cannot
    /// both miss each other.
    closed: AtomicBool,
    guards: AtomicUsize,
    done: Mutex<bool>,
    done_cv: Condvar,
}

impl Control {
    fn new(units: usize, queues: usize) -> Self {
        debug_assert!(units >= 1 && queues >= 1);
        debug_assert!(units <= u32::MAX as usize);
        let ranges = (0..queues)
            .map(|q| {
                let lo = q * units / queues;
                let hi = (q + 1) * units / queues;
                RangeQueue::new(lo as u32, hi as u32)
            })
            .collect();
        Self {
            ranges,
            units,
            completed: AtomicUsize::new(0),
            panic: Mutex::new(None),
            steals: AtomicU64::new(0),
            closed: AtomicBool::new(false),
            guards: AtomicUsize::new(0),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        }
    }
}

/// One participant's work loop: pop own units from the front, steal from
/// siblings when dry, run each claimed unit under `catch_unwind`, count
/// completions, and wake the submitting thread when the last unit lands.
///
/// Every claimed unit runs and is counted as completed, even after another
/// unit panicked: the completion count is the only thing the caller waits
/// on, so it must always reach `units`, and running every unit keeps the
/// set of executed units (their spans, their fault orders) schedule-free.
fn participate(ctrl: &Control, me: usize, run_unit: &(dyn Fn(usize) + Sync)) {
    let queues = ctrl.ranges.len();
    loop {
        let unit = ctrl.ranges[me].pop_front().or_else(|| {
            (1..queues).find_map(|k| {
                let victim = (me + k) % queues;
                let stolen = ctrl.ranges[victim].steal_back();
                if stolen.is_some() {
                    ctrl.steals.fetch_add(1, Ordering::Relaxed);
                }
                stolen
            })
        });
        let Some(unit) = unit else { break };
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| run_unit(unit))) {
            // Keep the payload of the lowest unit index; the other one is
            // dropped *outside* the slot lock and behind its own
            // catch_unwind: a payload whose Drop panics while the lock is
            // held would kill this participant before the completion count
            // below and hang the caller forever.
            let extra = {
                let mut slot = lock_ignore_poison(&ctrl.panic);
                match &*slot {
                    Some((kept, _)) if *kept < unit => Some(payload),
                    _ => slot.replace((unit, payload)).map(|(_, old)| old),
                }
            };
            if let Some(extra) = extra {
                let _ = panic::catch_unwind(AssertUnwindSafe(move || drop(extra)));
            }
        }
        if ctrl.completed.fetch_add(1, Ordering::SeqCst) + 1 == ctrl.units {
            let mut done = lock_ignore_poison(&ctrl.done);
            *done = true;
            ctrl.done_cv.notify_all();
        }
    }
}

/// Raw-pointer window over the output `Vec<Option<U>>`.
///
/// SAFETY contract: each index is written by exactly one participant — the
/// one that claimed the covering unit via a `RangeQueue` CAS — and units
/// cover disjoint index ranges, so no slot is ever written concurrently.
/// The submitting thread only reads the slots after the completion count
/// reached `units` (a SeqCst handshake through `Control::done`).
struct SharedSlots<U> {
    ptr: *mut Option<U>,
}

unsafe impl<U: Send> Send for SharedSlots<U> {}
unsafe impl<U: Send> Sync for SharedSlots<U> {}

impl<U> SharedSlots<U> {
    /// Writes slot `i`. Caller must hold the exclusive unit claim covering
    /// index `i` (see the type-level SAFETY contract).
    unsafe fn set(&self, i: usize, value: U) {
        *self.ptr.add(i) = Some(value);
    }
}

/// Raw-pointer window over the input `Vec<Option<T>>` of an owned map: each
/// participant takes exactly the items of its claimed units, so every slot
/// is taken at most once and never concurrently (same claim discipline as
/// [`SharedSlots`]).
struct SharedTake<T> {
    ptr: *mut Option<T>,
}

unsafe impl<T: Send> Send for SharedTake<T> {}
unsafe impl<T: Send> Sync for SharedTake<T> {}

impl<T> SharedTake<T> {
    /// Moves item `i` out. Caller must hold the exclusive unit claim
    /// covering index `i`.
    unsafe fn take(&self, i: usize) -> T {
        match (*self.ptr.add(i)).take() {
            Some(item) => item,
            // Invariant: every slot is filled before the map starts, and
            // only the one claim covering index `i` ever takes it.
            None => unreachable!("each input slot is taken exactly once"),
        }
    }
}

/// A worker failure the engine could not recover from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A worker panicked and (for injected panics) exhausted its restart
    /// budget; carries the panic message.
    WorkerPanic(String),
    /// The worker pool's threads could not be spawned; carries the OS
    /// error. Nothing ran.
    WorkerSpawn(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::WorkerPanic(msg) => write!(f, "worker panic: {msg}"),
            EngineError::WorkerSpawn(msg) => write!(f, "worker spawn failed: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl EngineError {
    fn from_payload(payload: Box<dyn Any + Send>) -> Self {
        let payload = match payload.downcast::<EngineError>() {
            Ok(err) => return *err,
            Err(payload) => payload,
        };
        if payload.downcast_ref::<InjectedWorkerPanic>().is_some() {
            EngineError::WorkerPanic("injected worker panic exhausted restarts".to_owned())
        } else if let Some(msg) = payload.downcast_ref::<String>() {
            EngineError::WorkerPanic(msg.clone())
        } else if let Some(msg) = payload.downcast_ref::<&str>() {
            EngineError::WorkerPanic((*msg).to_owned())
        } else {
            EngineError::WorkerPanic("non-string panic payload".to_owned())
        }
    }
}

/// Installs (once, process-wide) a panic hook that silences injected worker
/// panics — they are part of normal fault-injection operation and would
/// otherwise spam stderr with backtrace headers — while forwarding every
/// other panic to the previously installed hook.
fn install_quiet_panic_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info
                .payload()
                .downcast_ref::<InjectedWorkerPanic>()
                .is_none()
            {
                prev(info);
            }
        }));
    });
}

/// Order bookkeeping done once per call: restart metrics and the quiet
/// panic hook for injected unwinds.
fn record_order(order: &WorkerOrder, metrics: &Metrics) {
    if order.panics > 0 {
        install_quiet_panic_hook();
        metrics
            .counter("engine.worker_restarts")
            .add(u64::from(order.panics.min(MAX_WORKER_RESTARTS)));
        metrics.event(
            "engine.worker_panic",
            format!("injected panics: {}", order.panics),
        );
    }
}

/// Physically acts out a worker-fault order at its target unit's entry:
/// each injected panic is a *real* `panic_any` unwind caught right here,
/// exactly what a supervisor restarting a crashed worker observes, under an
/// `engine.restart` span. An order beyond the restart budget unwinds out of
/// the unit (the fatal case); otherwise its latency is slept.
///
/// The order is acted out before the unit consumes any input, so a restart
/// re-runs the unit from scratch with no items lost; this is what keeps
/// results identical to the fault-free run.
fn act_order(order: &WorkerOrder, tracer: &Tracer, task: Option<SpanContext>) {
    if order.panics > 0 {
        let _restart_span = tracer.child_of("engine.restart", task);
        for _ in 0..order.panics.min(MAX_WORKER_RESTARTS) {
            let unwound = panic::catch_unwind(|| panic::panic_any(InjectedWorkerPanic));
            debug_assert!(unwound.is_err());
        }
        if order.panics > MAX_WORKER_RESTARTS {
            panic::panic_any(InjectedWorkerPanic);
        }
    }
    if !order.delay.is_zero() {
        std::thread::sleep(order.delay);
    }
}

/// Runs the work-stealing loop for `units` units: enlists up to `workers`
/// pool helpers (capped by the host's spare parallelism on the untraced
/// path, where the submitting thread is participant 0), waits for the
/// completion count, then closes the scope so no pool job can still touch
/// the caller's stack. Returns the steal count and the panic payload of the
/// lowest-indexed unit that panicked, if any; fails before running anything
/// when the pool cannot be spawned.
fn run_stealing(
    workers: usize,
    units: usize,
    run_unit: &(dyn Fn(usize) + Sync),
    metrics: &Metrics,
    tracer: &Tracer,
) -> Result<(u64, Option<Box<dyn Any + Send>>), EngineError> {
    // With tracing enabled, hand every unit to pool threads so the span
    // tree reliably crosses threads (the observability contract the trace
    // tests pin down). Untraced — the perf path — the caller participates,
    // so small maps run inline and helpers only absorb overflow.
    let caller_participates = !tracer.is_enabled();
    let helpers = if caller_participates {
        workers.min(units.saturating_sub(1)).min(helper_cap())
    } else {
        workers.min(units).max(1)
    };
    let queues = helpers + usize::from(caller_participates);
    let ctrl = Arc::new(Control::new(units, queues));

    if helpers > 0 {
        let pool = WorkerPool::global(workers)?;
        // SAFETY: the transmute only erases the lifetime of the borrow; the
        // fat pointer (data + vtable) is unchanged. The close/guard
        // handshake below guarantees no pool job dereferences it after this
        // function returns: jobs increment `guards` before checking
        // `closed`, and this function sets `closed` (after all units
        // completed) and then spins until `guards` is zero before
        // returning, so any job still inside `participate` keeps the
        // caller's stack pinned here.
        let run_static: &'static (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(run_unit) };
        let first_helper_queue = usize::from(caller_participates);
        for h in 0..helpers {
            let ctrl = Arc::clone(&ctrl);
            let me = first_helper_queue + h;
            let job: Job = Box::new(move || {
                ctrl.guards.fetch_add(1, Ordering::SeqCst);
                if !ctrl.closed.load(Ordering::SeqCst) {
                    participate(&ctrl, me, run_static);
                }
                ctrl.guards.fetch_sub(1, Ordering::SeqCst);
            });
            if pool.sender.send(job).is_err() {
                // Invariant: every pool thread holds a receiver and never
                // exits while the cached pool holds the sender, because
                // `participate` catches every unit panic.
                unreachable!("engine workers never disconnect");
            }
        }
    }
    if caller_participates {
        participate(&ctrl, 0, run_unit);
    }
    // The old barrier is gone; this span now measures the caller's residual
    // completion wait. The name is kept for metric-schema continuity.
    let wait_span = metrics.span("engine.barrier_wait_secs");
    {
        let mut done = lock_ignore_poison(&ctrl.done);
        while !*done {
            done = ctrl
                .done_cv
                .wait(done)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
    wait_span.finish();
    ctrl.closed.store(true, Ordering::SeqCst);
    while ctrl.guards.load(Ordering::SeqCst) > 0 {
        std::thread::yield_now();
    }
    let payload = lock_ignore_poison(&ctrl.panic).take().map(|(_, p)| p);
    Ok((ctrl.steals.load(Ordering::Relaxed), payload))
}

/// Threaded body of every map: cuts `[0, n)` into contiguous units, runs
/// `exec(i)` for every index through the stealing scheduler (with one
/// `engine.task` span per unit and the fault order acted out at its target
/// unit's entry), and collects outputs in input order.
fn threaded_exec<U, E>(
    workers: usize,
    n: usize,
    exec: E,
    order: &WorkerOrder,
    ctx: &TaskCtx<'_>,
    map_ctx: Option<SpanContext>,
) -> Result<Vec<U>, Box<dyn Any + Send>>
where
    U: Send,
    E: Fn(usize) -> U + Sync,
{
    debug_assert!(n > 0);
    let (metrics, tracer) = (ctx.metrics, ctx.tracer);
    let workers = workers.max(1);
    let max_units = ((workers + 1) * UNITS_PER_PARTICIPANT).min(n);
    let unit_len = n.div_ceil(max_units);
    let units = n.div_ceil(unit_len);
    metrics.counter("engine.tasks").add(units as u64);
    metrics
        .histogram("engine.queue_depth")
        .observe(units as f64);
    let target = (order.target % units as u64) as usize;

    let mut outputs: Vec<Option<U>> = Vec::with_capacity(n);
    outputs.resize_with(n, || None);
    let slots = SharedSlots {
        ptr: outputs.as_mut_ptr(),
    };

    let exec = &exec;
    let run_unit = move |unit: usize| {
        let task_span = tracer.child_of("engine.task", map_ctx);
        if unit == target {
            act_order(order, tracer, task_span.context());
        }
        let lo = unit * unit_len;
        let hi = n.min(lo + unit_len);
        for i in lo..hi {
            // SAFETY: unit `unit` was claimed exactly once via a RangeQueue
            // CAS, and units cover disjoint index ranges — see SharedSlots.
            unsafe { slots.set(i, exec(i)) };
        }
    };
    let (steals, payload) = match run_stealing(workers, units, &run_unit, metrics, tracer) {
        Ok(done) => done,
        Err(err) => return Err(Box::new(err)),
    };
    metrics.histogram("engine.steal").observe(steals as f64);
    match payload {
        None => Ok(outputs
            .into_iter()
            .map(|slot| match slot {
                Some(out) => out,
                // Invariant: no unit panicked and the completion count
                // reached `units`, so every unit wrote its whole range.
                None => unreachable!("every claimed unit writes its whole index range"),
            })
            .collect()),
        Some(payload) => Err(payload),
    }
}

/// What one engine call runs under: the fault hook its [`WorkerOrder`] is
/// drawn from, the metrics and tracer it records into, and the span its
/// `engine.map` hangs under.
#[derive(Debug, Clone, Copy)]
pub struct TaskCtx<'a> {
    /// Source of the call's worker-fault order.
    pub hook: &'a dyn FaultHook,
    /// Sink for the `engine.*` metrics.
    pub metrics: &'a Metrics,
    /// Sink for the `engine.map` / `engine.task` / `engine.restart` spans.
    pub tracer: &'a Tracer,
    /// Parent of the call's `engine.map` span.
    pub parent: Option<SpanContext>,
}

impl TaskCtx<'static> {
    /// No faults, disabled metrics and tracer, no parent.
    pub fn plain() -> Self {
        static METRICS: Metrics = Metrics::disabled();
        static TRACER: Tracer = Tracer::disabled();
        Self {
            hook: &NoFaults,
            metrics: &METRICS,
            tracer: &TRACER,
            parent: None,
        }
    }
}

/// A chunk-parallel execution engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionEngine {
    /// Process items one by one on the calling thread.
    #[default]
    Sequential,
    /// Process items on a persistent pool of `workers` OS threads.
    Threaded {
        /// Number of worker threads (≥ 1).
        workers: usize,
    },
}

impl ExecutionEngine {
    /// A threaded engine sized to the machine (minimum 2 workers).
    pub fn threaded_auto() -> Self {
        let workers = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(2)
            .max(2);
        ExecutionEngine::Threaded { workers }
    }

    /// Engine display name.
    pub fn name(&self) -> String {
        match self {
            ExecutionEngine::Sequential => "sequential".to_owned(),
            ExecutionEngine::Threaded { workers } => format!("threaded×{workers}"),
        }
    }

    /// Worker-thread count (1 for the sequential engine).
    pub fn workers(&self) -> usize {
        match *self {
            ExecutionEngine::Sequential => 1,
            ExecutionEngine::Threaded { workers } => workers.max(1),
        }
    }

    /// Runs `f(i)` for every `i in 0..n` and returns the outputs in index
    /// order: the engine's general entry point.
    ///
    /// `f` must be `Sync` because participants share it. The index space is
    /// cut into contiguous units (a few per participant) scheduled by
    /// work-stealing, so per-item cost imbalance is load-balanced; each
    /// output is written into its own index slot, so results need no
    /// locking and arrive in index order. Borrowed inputs are read as
    /// `items[i]`, contiguous parts as index ranges.
    ///
    /// `ctx` supplies the rest:
    /// - one [`WorkerOrder`] is drawn from `ctx.hook` per call, so injected
    ///   counts are independent of worker count. The targeted unit suffers
    ///   the ordered injected panics (real unwinds, restarted in place up to
    ///   [`MAX_WORKER_RESTARTS`] times) and latency before producing its
    ///   outputs. The hook does the accounting and the engine only acts the
    ///   order out, which keeps results and [`cdp_faults::FaultStats`]
    ///   identical across `Sequential` and any `Threaded` worker count;
    /// - `ctx.metrics` records `engine.map_calls`, `engine.tasks` (units
    ///   scheduled), `engine.map_secs`, `engine.worker_restarts` and, on
    ///   threaded engines, `engine.barrier_wait_secs` (the caller's
    ///   completion wait), `engine.queue_depth` and `engine.steal`;
    /// - `ctx.tracer` records an `engine.map` span under `ctx.parent`, one
    ///   `engine.task` child per unit *on the thread executing it* (so the
    ///   trace tree spans threads), and an `engine.restart` span under the
    ///   targeted unit's task covering its injected panics.
    ///
    /// # Errors
    /// [`EngineError::WorkerPanic`] when `f` panics or the order exceeds the
    /// restart budget (every unit still runs; the lowest-indexed failing
    /// unit's panic is reported), and [`EngineError::WorkerSpawn`] when the
    /// worker pool cannot be spawned.
    pub fn try_map_indexed<U, F>(
        &self,
        n: usize,
        f: F,
        ctx: &TaskCtx<'_>,
    ) -> Result<Vec<U>, EngineError>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        self.run(n, f, ctx).map_err(EngineError::from_payload)
    }

    /// [`ExecutionEngine::try_map_indexed`] for callers with nothing to
    /// recover.
    ///
    /// # Panics
    /// Re-raises the original panic payload of the lowest-indexed failing
    /// unit on the calling thread once every unit has run, and panics with
    /// the [`EngineError`]'s message when the pool cannot be spawned.
    pub fn map_indexed<U, F>(&self, n: usize, f: F, ctx: &TaskCtx<'_>) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        match self.run(n, f, ctx) {
            Ok(out) => out,
            // An engine failure of its own (not a unit's panic) is raised
            // through the panic hook so an uncaught one still says why;
            // `resume_unwind` would skip the hook and print nothing.
            Err(payload) => match payload.downcast::<EngineError>() {
                Ok(err) => panic!("{err}"),
                Err(payload) => panic::resume_unwind(payload),
            },
        }
    }

    /// Moves every item into `f` — for inputs that cannot be shared, such
    /// as disjoint `&mut` ranges of one buffer — and returns the outputs in
    /// input order, with no fault hook, metrics or spans. The sequential
    /// engine runs a plain loop.
    ///
    /// # Panics
    /// As [`ExecutionEngine::map_indexed`].
    pub fn map<T, U, F>(&self, items: Vec<T>, f: F) -> Vec<U>
    where
        T: Send,
        U: Send,
        F: Fn(T) -> U + Sync,
    {
        if *self == ExecutionEngine::Sequential {
            return items.into_iter().map(f).collect();
        }
        let n = items.len();
        let mut staged: Vec<Option<T>> = items.into_iter().map(Some).collect();
        let take = SharedTake {
            ptr: staged.as_mut_ptr(),
        };
        // SAFETY (take): each index belongs to exactly one claimed unit, so
        // each input slot is taken once, never concurrently.
        self.map_indexed(n, |i| f(unsafe { take.take(i) }), &TaskCtx::plain())
    }

    /// The one scheduling path under every public map: opens the call's
    /// span and metrics, draws and acts out its fault order, and returns the
    /// outputs or the lowest-indexed failing unit's original panic payload.
    fn run<U, F>(&self, n: usize, f: F, ctx: &TaskCtx<'_>) -> Result<Vec<U>, Box<dyn Any + Send>>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        let map_span = ctx.tracer.child_of("engine.map", ctx.parent);
        let map_ctx = map_span.context();
        let _map_span_secs = ctx.metrics.span("engine.map_secs");
        ctx.metrics.counter("engine.map_calls").inc();
        let order = ctx.hook.next_worker_order();
        record_order(&order, ctx.metrics);
        match *self {
            ExecutionEngine::Sequential => {
                ctx.metrics.counter("engine.tasks").add(1);
                let task_span = ctx.tracer.child_of("engine.task", map_ctx);
                panic::catch_unwind(AssertUnwindSafe(|| {
                    act_order(&order, ctx.tracer, task_span.context());
                    (0..n).map(f).collect()
                }))
            }
            ExecutionEngine::Threaded { .. } if n == 0 => {
                // Per-call observations still land, so
                // `queue_depth.count == steal.count == map_calls` holds on
                // threaded engines. There is no unit to act the order on; a
                // fatal order still cannot lose work, so it alone fails.
                ctx.metrics.histogram("engine.queue_depth").observe(0.0);
                ctx.metrics.histogram("engine.steal").observe(0.0);
                if order.panics > MAX_WORKER_RESTARTS {
                    Err(Box::new(InjectedWorkerPanic))
                } else {
                    Ok(Vec::new())
                }
            }
            ExecutionEngine::Threaded { workers } => {
                threaded_exec(workers, n, f, &order, ctx, map_ctx)
            }
        }
    }
}

/// Reduces `parts` pairwise — adjacent pairs first, then pairs of pairs —
/// until one value remains.
///
/// The reduction tree's shape depends only on `parts.len()`, never on
/// worker count or timing, so non-associative (floating-point) combines
/// produce bit-identical results no matter which engine computed the parts.
/// Returns `None` for an empty input.
pub fn tree_reduce<U>(mut parts: Vec<U>, mut g: impl FnMut(U, U) -> U) -> Option<U> {
    while parts.len() > 1 {
        let mut next = Vec::with_capacity(parts.len().div_ceil(2));
        let mut iter = parts.into_iter();
        while let Some(a) = iter.next() {
            next.push(match iter.next() {
                Some(b) => g(a, b),
                None => a,
            });
        }
        parts = next;
    }
    parts.pop()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    const ENGINES: [ExecutionEngine; 3] = [
        ExecutionEngine::Sequential,
        ExecutionEngine::Threaded { workers: 1 },
        ExecutionEngine::Threaded { workers: 4 },
    ];

    /// A context recording into `metrics` and `tracer` under `hook`.
    fn ctx<'a>(hook: &'a dyn FaultHook, metrics: &'a Metrics, tracer: &'a Tracer) -> TaskCtx<'a> {
        TaskCtx {
            hook,
            metrics,
            tracer,
            parent: None,
        }
    }

    #[test]
    fn sequential_and_threaded_agree() {
        let items: Vec<u64> = (0..100).collect();
        let seq = ExecutionEngine::Sequential.map(items.clone(), |x| x * x);
        let par = ExecutionEngine::Threaded { workers: 4 }.map(items, |x| x * x);
        assert_eq!(seq, par);
    }

    #[test]
    fn order_is_preserved_under_imbalance() {
        // Make early items slow so late items finish first.
        let items: Vec<u64> = (0..32).collect();
        let out = ExecutionEngine::Threaded { workers: 8 }.map(items, |x| {
            if x < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            x
        });
        assert_eq!(out, (0..32).collect::<Vec<u64>>());
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u32> = ExecutionEngine::Threaded { workers: 4 }.map(Vec::<u32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_workers_than_items() {
        let out = ExecutionEngine::Threaded { workers: 64 }.map(vec![1, 2, 3], |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn moves_non_copy_items() {
        let items = vec![String::from("a"), String::from("bb")];
        let out = ExecutionEngine::Threaded { workers: 2 }.map(items, |s| s.len());
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn owned_map_moves_disjoint_mut_ranges() {
        // The optimizer's use: disjoint `&mut` ranges of one buffer.
        for engine in ENGINES {
            let mut buf: Vec<u64> = (0..100).collect();
            let ranges: Vec<&mut [u64]> = buf.chunks_mut(7).collect();
            let lens = engine.map(ranges, |range| {
                range.iter_mut().for_each(|x| *x *= 2);
                range.len()
            });
            assert_eq!(lens.iter().sum::<usize>(), 100);
            assert_eq!(buf, (0..100).map(|x| x * 2).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn names() {
        assert_eq!(ExecutionEngine::Sequential.name(), "sequential");
        assert_eq!(
            ExecutionEngine::Threaded { workers: 3 }.name(),
            "threaded×3"
        );
        assert_eq!(ExecutionEngine::Sequential.workers(), 1);
        assert_eq!(ExecutionEngine::Threaded { workers: 3 }.workers(), 3);
    }

    #[test]
    fn range_queue_hands_out_each_unit_exactly_once() {
        // Owner pops the front, thief steals the back; together they must
        // cover [lo, hi) exactly once with no overlap.
        let queue = RangeQueue::new(3, 11);
        let mut popped = Vec::new();
        let mut stolen = Vec::new();
        loop {
            match (queue.pop_front(), queue.steal_back()) {
                (None, None) => break,
                (front, back) => {
                    popped.extend(front);
                    stolen.extend(back);
                }
            }
        }
        assert!(popped.iter().all(|u| stolen.iter().all(|s| s != u)));
        let mut all: Vec<usize> = popped.iter().chain(stolen.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (3..11).collect::<Vec<usize>>());
    }

    #[test]
    fn range_queue_survives_concurrent_hammering() {
        // 4 threads race pop/steal on one queue; every unit must be claimed
        // exactly once across all of them.
        let queue = Arc::new(RangeQueue::new(0, 1024));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let unit = if t % 2 == 0 {
                            queue.pop_front()
                        } else {
                            queue.steal_back()
                        };
                        match unit {
                            Some(u) => mine.push(u),
                            None => break,
                        }
                    }
                    mine
                })
            })
            .collect();
        let mut all: Vec<usize> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..1024).collect::<Vec<usize>>());
    }

    #[test]
    fn pool_threads_are_reused_across_calls() {
        // A spawn-per-call engine would mint fresh thread ids on every map;
        // the persistent pool serves every call from the same helper
        // threads. The submitting thread participates too, so exclude it.
        let engine = ExecutionEngine::Threaded { workers: 3 };
        let caller = std::thread::current().id();
        let mut helper_ids = HashSet::new();
        for _ in 0..8 {
            for id in engine.map(vec![(); 64], |()| std::thread::current().id()) {
                if id != caller {
                    helper_ids.insert(id);
                }
            }
        }
        assert!(
            helper_ids.len() <= 3,
            "saw {} distinct helper threads",
            helper_ids.len()
        );
    }

    #[test]
    fn worker_panic_propagates_with_payload() {
        let result = panic::catch_unwind(|| {
            ExecutionEngine::Threaded { workers: 2 }.map(vec![1u32, 2, 3, 4], |x| {
                if x == 3 {
                    panic!("boom {x}");
                }
                x
            })
        });
        let payload = result.expect_err("map must propagate the worker panic");
        let msg = payload
            .downcast_ref::<String>()
            .expect("panic! with a formatted message carries a String");
        assert_eq!(msg, "boom 3");
    }

    #[test]
    fn infallible_maps_reraise_the_original_payload_on_every_engine() {
        // The lowest failing index wins, on the sequential engine (which
        // stops at it) and the threaded ones (which run every unit) alike.
        let expect_boom = |result: std::thread::Result<Vec<usize>>, engine: ExecutionEngine| {
            let payload = result.expect_err("the worker panic must propagate");
            let msg = payload
                .downcast_ref::<String>()
                .expect("panic! with a formatted message carries a String");
            assert_eq!(msg, "boom 3", "engine {}", engine.name());
        };
        let f = |i: usize| {
            if i == 3 || i == 40 {
                panic!("boom {i}");
            }
            i
        };
        for engine in ENGINES {
            expect_boom(
                panic::catch_unwind(|| engine.map_indexed(64, f, &TaskCtx::plain())),
                engine,
            );
            expect_boom(
                panic::catch_unwind(|| engine.map((0..64).collect(), f)),
                engine,
            );
        }
    }

    #[test]
    fn pool_survives_worker_panics() {
        let engine = ExecutionEngine::Threaded { workers: 2 };
        for round in 0..3 {
            let result = panic::catch_unwind(|| {
                engine.map((0..64u64).collect(), |x| {
                    if x % 16 == 7 {
                        panic!("round {round}");
                    }
                    x
                })
            });
            assert!(result.is_err());
            // The same pool keeps serving normal work afterwards.
            let ok = engine.map((0..64u64).collect(), |x| x + 1);
            assert_eq!(ok, (1..=64).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn try_map_converts_genuine_panics_to_errors() {
        for engine in ENGINES {
            let err = engine
                .try_map_indexed(
                    16,
                    |x| {
                        if x == 9 {
                            panic!("kaput {x}");
                        }
                        x
                    },
                    &TaskCtx::plain(),
                )
                .expect_err("panicking task must error");
            assert_eq!(err, EngineError::WorkerPanic("kaput 9".to_owned()));
            let ok = engine.try_map_indexed(3, |x| x * 2, &TaskCtx::plain());
            assert_eq!(ok, Ok(vec![0, 2, 4]));
        }
    }

    /// Hook ordering a fixed number of injected panics at a fixed target.
    #[derive(Debug)]
    struct PanicOrder(u32);

    impl cdp_faults::FaultHook for PanicOrder {
        fn next_worker_order(&self) -> WorkerOrder {
            WorkerOrder {
                panics: self.0,
                target: 5,
                delay: std::time::Duration::ZERO,
            }
        }
    }

    #[test]
    fn injected_panics_are_restarted_without_changing_results() {
        let expected: Vec<usize> = (0..200).map(|x| x * 3).collect();
        let hook = PanicOrder(MAX_WORKER_RESTARTS);
        let hooked = TaskCtx {
            hook: &hook,
            ..TaskCtx::plain()
        };
        for engine in [
            ExecutionEngine::Sequential,
            ExecutionEngine::Threaded { workers: 2 },
            ExecutionEngine::Threaded { workers: 5 },
        ] {
            let out = engine
                .try_map_indexed(200, |x| x * 3, &hooked)
                .expect("restartable order must recover");
            assert_eq!(out, expected, "engine {}", engine.name());
        }
    }

    #[test]
    fn fatal_injected_order_is_an_error_not_a_process_panic() {
        let hook = PanicOrder(MAX_WORKER_RESTARTS + 1);
        let hooked = TaskCtx {
            hook: &hook,
            ..TaskCtx::plain()
        };
        for engine in [
            ExecutionEngine::Sequential,
            ExecutionEngine::Threaded { workers: 3 },
        ] {
            // An empty map has no unit to act on but still fails.
            for n in [64, 0] {
                let err = engine
                    .try_map_indexed(n, |x| x, &hooked)
                    .expect_err("order beyond the restart budget is fatal");
                assert_eq!(
                    err,
                    EngineError::WorkerPanic("injected worker panic exhausted restarts".to_owned())
                );
            }
            // The pool keeps serving afterwards.
            assert_eq!(engine.map(vec![1, 2], |x| x + 1), vec![2, 3]);
        }
    }

    #[test]
    fn noop_hook_matches_plain_map() {
        let items: Vec<u64> = (0..50).collect();
        let engine = ExecutionEngine::Threaded { workers: 4 };
        let plain = engine.map(items.clone(), |x| x + 7);
        let hooked = engine.try_map_indexed(items.len(), |i| items[i] + 7, &TaskCtx::plain());
        assert_eq!(Ok(plain), hooked);
    }

    /// A panic payload whose `Drop` panics — the worst case for the panic
    /// slot's bookkeeping: dropping a second payload while holding the slot
    /// lock would poison it *and* kill the participant before its
    /// completion count, hanging the caller forever.
    struct BoomOnDrop;

    impl Drop for BoomOnDrop {
        fn drop(&mut self) {
            if !std::thread::panicking() {
                panic!("payload drop bomb");
            }
        }
    }

    #[test]
    fn panic_inside_completion_critical_section_does_not_poison_the_pool() {
        install_quiet_panic_hook();
        let engine = ExecutionEngine::Threaded { workers: 4 };
        // Every unit panics with a drop-bomb payload: the first payload is
        // stashed and re-raised here, all the extra ones detonate inside the
        // participants' cleanup, outside the slot lock and behind their own
        // catch_unwind, so the completion count still reaches `units`.
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            engine.map((0..64u64).collect(), |_| -> u64 {
                panic::panic_any(BoomOnDrop);
            })
        }));
        let payload = result.expect_err("map must re-raise the first panic");
        assert!(payload.downcast_ref::<BoomOnDrop>().is_some());
        // Never drop the re-raised bomb on this thread.
        std::mem::forget(payload);

        // The same pool (and its locks) keeps serving normal work.
        for _ in 0..3 {
            let ok = engine.map((0..64u64).collect(), |x| x + 1);
            assert_eq!(ok, (1..=64).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn observed_map_records_engine_metrics() {
        let metrics = Metrics::collecting();
        let tracer = Tracer::disabled();
        let engine = ExecutionEngine::Threaded { workers: 2 };
        let out = engine.map_indexed(32, |x| x * 2, &ctx(&NoFaults, &metrics, &tracer));
        assert_eq!(out.len(), 32);
        let ok = engine.try_map_indexed(32, |x| x, &ctx(&PanicOrder(2), &metrics, &tracer));
        assert!(ok.is_ok());
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("engine.map_calls"), 2);
        assert!(snap.counter("engine.tasks") >= 2);
        assert_eq!(snap.counter("engine.worker_restarts"), 2);
        let waits = snap.histogram("engine.barrier_wait_secs");
        assert!(waits.is_some_and(|h| h.count == 2));
        let spans = snap.histogram("engine.map_secs");
        assert!(spans.is_some_and(|h| h.count == 2));
        // The stealing scheduler's observables: one queue-depth sample and
        // one steal sample per threaded map, queue depth = units scheduled.
        let depth = snap.histogram("engine.queue_depth");
        assert!(depth.is_some_and(|h| h.count == 2 && h.sum == snap.counter("engine.tasks") as f64));
        let steals = snap.histogram("engine.steal");
        assert!(steals.is_some_and(|h| h.count == 2));

        // The sequential engine counts one task per call and no scheduler
        // observables.
        let seq_metrics = Metrics::collecting();
        ExecutionEngine::Sequential.map_indexed(32, |x| x, &ctx(&NoFaults, &seq_metrics, &tracer));
        let snap = seq_metrics.snapshot();
        assert_eq!(snap.counter("engine.map_calls"), 1);
        assert_eq!(snap.counter("engine.tasks"), 1);
        assert!(snap.histogram("engine.steal").is_none());
    }

    #[test]
    fn traced_map_builds_cross_thread_span_tree() {
        let tracer = Tracer::collecting();
        let root = tracer.root("caller");
        let traced = TaskCtx {
            tracer: &tracer,
            parent: root.context(),
            ..TaskCtx::plain()
        };
        let out = ExecutionEngine::Threaded { workers: 2 }.map_indexed(64, |x| x + 1, &traced);
        assert_eq!(out, (1..=64).collect::<Vec<usize>>());
        root.finish();

        let snap = tracer.snapshot();
        snap.validate().unwrap();
        assert_eq!(snap.span_count("caller"), 1);
        assert_eq!(snap.span_count("engine.map"), 1);
        assert!(snap.span_count("engine.task") >= 2);
        for task in snap.spans.iter().filter(|s| s.name == "engine.task") {
            assert_eq!(snap.parent_name(task), Some("engine.map"));
        }
        // With tracing enabled every unit runs on pool threads, the map
        // call on this one: the single trace tree spans threads.
        assert!(snap.crosses_threads());
    }

    #[test]
    fn injected_restarts_appear_as_restart_spans() {
        let tracer = Tracer::collecting();
        for engine in [
            ExecutionEngine::Sequential,
            ExecutionEngine::Threaded { workers: 2 },
        ] {
            let out = engine
                .try_map_indexed(
                    32,
                    |x| x,
                    &ctx(&PanicOrder(2), &Metrics::disabled(), &tracer),
                )
                .expect("restartable order must recover");
            assert_eq!(out.len(), 32);
        }
        let snap = tracer.snapshot();
        snap.validate().unwrap();
        assert_eq!(snap.span_count("engine.restart"), 2);
        for restart in snap.spans.iter().filter(|s| s.name == "engine.restart") {
            assert_eq!(snap.parent_name(restart), Some("engine.task"));
        }
    }

    #[test]
    fn disabled_tracer_map_matches_plain_map() {
        let items: Vec<u64> = (0..100).collect();
        let engine = ExecutionEngine::Threaded { workers: 3 };
        let plain = engine.map(items.clone(), |x| x * x);
        let indexed = engine.map_indexed(items.len(), |i| items[i] * items[i], &TaskCtx::plain());
        assert_eq!(plain, indexed);
    }

    #[test]
    fn borrowed_indexed_map_matches_owned_map() {
        let items: Vec<u64> = (0..300).collect();
        let owned = ExecutionEngine::Threaded { workers: 3 }.map(items.clone(), |x| x * 2 + 1);
        for engine in ENGINES {
            let borrowed = engine.map_indexed(items.len(), |i| items[i] * 2 + 1, &TaskCtx::plain());
            assert_eq!(owned, borrowed, "engine {}", engine.name());
        }
        // The input vector is untouched.
        assert_eq!(items, (0..300).collect::<Vec<u64>>());
    }

    #[test]
    fn index_parts_match_manual_sharding_bit_for_bit() {
        let items: Vec<f64> = (0..1000).map(|i| f64::from(i) * 0.37).collect();
        let part_sum = |part: &[f64]| part.iter().sum::<f64>();
        let manual: Vec<f64> = items.chunks(64).map(part_sum).collect();
        let part = |p: usize| &items[p * 64..items.len().min((p + 1) * 64)];
        for engine in ENGINES {
            let parts = engine.map_indexed(
                items.len().div_ceil(64),
                |p| part_sum(part(p)),
                &TaskCtx::plain(),
            );
            assert_eq!(parts.len(), manual.len());
            for (a, b) in parts.iter().zip(&manual) {
                assert_eq!(a.to_bits(), b.to_bits(), "engine {}", engine.name());
            }
        }
        // Empty input yields no parts on any engine.
        let empty: &[f64] = &[];
        assert!(ExecutionEngine::Threaded { workers: 2 }
            .map_indexed(
                empty.len().div_ceil(64),
                |p| part_sum(&empty[p * 64..]),
                &TaskCtx::plain(),
            )
            .is_empty());
    }

    #[test]
    fn indexed_hooked_map_recovers_and_fails_like_the_owned_one() {
        for engine in [
            ExecutionEngine::Sequential,
            ExecutionEngine::Threaded { workers: 3 },
        ] {
            let ok = engine
                .try_map_indexed(
                    64,
                    |i| i + 1,
                    &TaskCtx {
                        hook: &PanicOrder(MAX_WORKER_RESTARTS),
                        ..TaskCtx::plain()
                    },
                )
                .expect("restartable order must recover");
            assert_eq!(ok, (1..=64).collect::<Vec<usize>>());
            let err = engine
                .try_map_indexed(
                    64,
                    |i| i,
                    &TaskCtx {
                        hook: &PanicOrder(MAX_WORKER_RESTARTS + 1),
                        ..TaskCtx::plain()
                    },
                )
                .expect_err("order beyond the restart budget is fatal");
            assert!(matches!(err, EngineError::WorkerPanic(_)));
        }
    }

    #[test]
    fn map_indexed_covers_the_index_space_in_order() {
        for engine in ENGINES {
            let out = engine.map_indexed(37, |i| i * i, &TaskCtx::plain());
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<usize>>());
            assert!(engine.map_indexed(0, |i| i, &TaskCtx::plain()).is_empty());
        }
    }

    #[test]
    fn stealing_is_observed_when_load_is_imbalanced() {
        // One slow unit at the front: the caller gets stuck on it while the
        // helper drains its own range and then steals the caller's
        // remaining units (or vice versa). Steals are timing-dependent, so
        // only the observation plumbing is asserted strictly; the steal
        // count itself is just recorded as a histogram sample.
        let metrics = Metrics::collecting();
        let engine = ExecutionEngine::Threaded { workers: 2 };
        let out = engine.map_indexed(
            64,
            |x| {
                if x == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
                x
            },
            &ctx(&NoFaults, &metrics, &Tracer::disabled()),
        );
        assert_eq!(out.len(), 64);
        let snap = metrics.snapshot();
        let steals = snap.histogram("engine.steal").expect("steal observed");
        assert_eq!(steals.count, 1);
        assert!(steals.sum <= snap.counter("engine.tasks") as f64);
    }

    #[test]
    fn spawn_failure_is_a_typed_error() {
        // Spawning is not exercised here (that would need exhausting OS
        // threads); this pins how a spawn error reaches the caller.
        let err =
            EngineError::from_payload(Box::new(EngineError::WorkerSpawn("EAGAIN".to_owned())));
        assert_eq!(err, EngineError::WorkerSpawn("EAGAIN".to_owned()));
        assert_eq!(err.to_string(), "worker spawn failed: EAGAIN");
        // The infallible map raises it with its message, through the panic
        // hook, rather than re-raising a silent non-string payload.
        let payload = panic::catch_unwind(|| {
            ExecutionEngine::Sequential.map_indexed(
                1,
                |_| -> usize { panic::panic_any(EngineError::WorkerSpawn("EAGAIN".to_owned())) },
                &TaskCtx::plain(),
            )
        })
        .expect_err("spawn error must surface as a panic");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("worker spawn failed: EAGAIN")
        );
    }

    #[test]
    fn tree_reduce_is_fixed_shape() {
        // ((0+1)+(2+3)) + (4) for 5 parts — verify against the hand-built tree.
        let parts = vec![0.1f64, 0.2, 0.3, 0.4, 0.5];
        let reduced = tree_reduce(parts, |a, b| a + b).unwrap();
        let expected: f64 = ((0.1 + 0.2) + (0.3 + 0.4)) + 0.5;
        assert_eq!(reduced.to_bits(), expected.to_bits());
        assert_eq!(tree_reduce(Vec::<f64>::new(), |a, b| a + b), None);
        assert_eq!(tree_reduce(vec![7], |a, b| a + b), Some(7));
    }
}
