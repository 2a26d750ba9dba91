//! The sharded micro-batching inference engine.
//!
//! Concurrent control requests are spread across N **shards** — each shard
//! owns its own bounded queue, its own worker thread, and its own reusable
//! batch scratch — and coalesced into [`Mlp::forward_batch_cached`] calls.
//! Shard assignment is a deterministic hash of the submitting connection
//! id ([`EngineHandle::pinned`]), so a given client always lands on the
//! same queue and a drill is replayable. Each row of a batched forward is
//! bit-identical to a per-sample [`Mlp::forward`], and scaling/clipping
//! are applied per request exactly as `NnController::control` +
//! `Dynamics::clip_control` would — so the served output is invariant
//! under both the batch schedule *and* the shard count.
//!
//! The worker's steady-state loop performs **zero heap allocations per
//! request** on the outbox (binary-wire) reply path: request state buffers
//! are pooled per shard, batch scratch (input matrix + [`BatchCache`]) is
//! kept per batch-size class, and responses are fixed-size
//! [`ResponseRec`]s pushed into a capacity-reusing ring. CI asserts this
//! with a counting allocator — including across a mid-stream
//! [`Engine::promote`].
//!
//! Batching policy: by default the worker serves *whatever is queued* the
//! moment it is free (`batch_deadline` zero). Under concurrent load,
//! batches form naturally while the previous batch is being computed —
//! deadline-waiting for a fuller batch only ever adds latency when the
//! submitters are blocking on their replies (this inversion is exactly
//! what the PR-5 baseline measured). A nonzero deadline remains available
//! for sparse open-loop traffic.
//!
//! Two runtime guardrails, unchanged from the single-queue engine:
//!
//! * **Backpressure**: every shard queue is bounded; a submit against a
//!   full queue fails *immediately* with [`ServeError::Backpressure`]. A
//!   control loop must never block on its controller.
//! * **Non-finite guard**: if a (scaled) output row is non-finite — or
//!   the network's own internal finiteness assertion panics mid-batch —
//!   the request is answered by the configured fallback expert and
//!   `serve.fallbacks` is incremented; with no fallback the request fails
//!   with [`ServeError::NonFiniteOutput`].
//!
//! # Hot rollout
//!
//! The engine's models live in an **epoch-versioned
//! [`Arc`]-swapped set**: [`Engine::propose`] installs an admitted
//! candidate as a *canary* serving a deterministic fraction of traffic
//! ([`routes_to_canary`], a pure function of the request id), while every
//! canary answer is shadow-recomputed through the incumbent and the
//! clipped divergence histogrammed. [`Engine::promote`] and
//! [`Engine::rollback`] swap the set atomically; shard workers observe
//! the new epoch at the next batch boundary (a `Relaxed`-free
//! acquire/release handshake, so a request submitted after `promote`
//! returns is always served by the new incumbent). A canary batch is
//! answered **only after** the whole sub-batch passes three guards
//! (finiteness, per-request divergence budget, cumulative envelope
//! budget); a trip auto-rolls the engine back and answers the batch from
//! the incumbent's shadow outputs, so zero candidate responses escape.
//! See [`crate::rollout`] for the state machine and budgets.

use crate::admission::{self, AdmissionConfig, Admitted};
use crate::bundle::{fnv1a_64, ControllerBundle};
use crate::replay::encode_state_bits;
use crate::rollout::{
    routes_to_canary, DriftConfig, DriftDetector, DriftReport, RolloutAction, RolloutBudget,
    RolloutConfig, RolloutError, RolloutEvent, RolloutLog, RolloutStatus,
};
use crate::wire::{self, ResponseRec, MAX_WIRE_CONTROL_DIM};
use cocktail_control::Controller;
use cocktail_math::Matrix;
use cocktail_nn::{BatchCache, ForwardKernel, Mlp};
use cocktail_obs::{Event, NullSink, Span, Telemetry};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, MutexGuard};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// First request id handed out to ticket (in-process) submissions — far
/// above the binary wire's practical id space, so internally-assigned ids
/// never collide with client-chosen wire ids in a recorded stream.
const INTERNAL_ID_BASE: u64 = 1 << 48;

/// Which forward kernel the shard workers serve with.
///
/// [`ServeTier::Exact`] (the default) preserves the engine's founding
/// invariant: every batched row is bit-identical to a per-sample
/// [`Mlp::forward`]. The fast-tanh tier trades that invariant for
/// throughput, bounded by the certificate the bundle ships (and admission
/// re-derives): served outputs stay within `|scale| ×` the certified
/// sup-norm error of the exact path over the bundle's input domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServeTier {
    /// `f64` weights, libm activations — bit-identical to per-sample.
    #[default]
    Exact,
    /// `f64` weights with the certified Padé fast-tanh activation kernel.
    FastTanh,
}

impl ServeTier {
    /// The batched-forward kernel this tier serves with.
    fn kernel(self) -> ForwardKernel {
        match self {
            ServeTier::Exact => ForwardKernel::Exact,
            ServeTier::FastTanh => ForwardKernel::FastTanh,
        }
    }
}

/// Scheduler knobs.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Largest number of requests folded into one batched forward.
    pub max_batch: usize,
    /// How long a shard worker holds an open batch for more requests.
    /// Zero (the default) means "serve whatever is queued immediately";
    /// under load batches still form naturally while the previous batch
    /// computes.
    pub batch_deadline: Duration,
    /// Bounded queue capacity **per shard**; submits beyond it are
    /// rejected.
    pub queue_capacity: usize,
    /// Start with the scheduler paused (deterministic batch composition
    /// for tests: queue requests, then [`Engine::resume`]).
    pub start_paused: bool,
    /// Engine shards: independent queue + worker + scratch, ideally one
    /// per core. Connection ids hash onto shards deterministically.
    pub shards: usize,
    /// Enable the served-output drift detector ([`crate::rollout`]) with
    /// these knobs; `None` (the default) keeps the hot path free of it.
    pub drift: Option<DriftConfig>,
    /// Forward kernel tier; [`ServeTier::Exact`] (the default) keeps the
    /// batched ≡ per-sample bit-identity invariant. Applies to incumbent,
    /// canary and shadow forwards alike.
    pub tier: ServeTier,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            max_batch: 16,
            batch_deadline: Duration::ZERO,
            queue_capacity: 256,
            start_paused: false,
            shards: 1,
            drift: None,
            tier: ServeTier::Exact,
        }
    }
}

/// Why a request failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The shard's bounded queue is full; the request was rejected
    /// without blocking. `depth` is the queue depth observed at rejection.
    Backpressure {
        /// Queue depth at the moment of rejection.
        depth: usize,
    },
    /// The request itself is malformed (wrong dimension, non-finite
    /// state).
    BadRequest(String),
    /// The network produced a non-finite output and no fallback expert is
    /// configured.
    NonFiniteOutput,
    /// The engine shut down before answering.
    Shutdown,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Backpressure { depth } => {
                write!(f, "queue full ({depth} requests pending); request rejected")
            }
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::NonFiniteOutput => {
                write!(f, "non-finite controller output and no fallback expert")
            }
            ServeError::Shutdown => write!(f, "engine shut down"),
        }
    }
}

impl std::error::Error for ServeError {}

/// One answered control request.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlResponse {
    /// The clipped control vector.
    pub control: Vec<f64>,
    /// Whether the fallback expert answered (non-finite primary output).
    pub served_by_fallback: bool,
}

/// The allocation-free reply ring the reactor transport drains.
///
/// Shard workers push fixed-size [`ResponseRec`]s; the consumer drains
/// them into its own reused buffer. An optional waker runs after every
/// push so an event loop blocked in `epoll_wait` can be poked (the waker
/// must be cheap and must not panic). Blocking consumers (tests) can
/// instead [`Outbox::wait_nonempty`].
pub struct Outbox {
    queue: Mutex<VecDeque<ResponseRec>>,
    ready: Condvar,
    waker: Option<Box<dyn Fn() + Send + Sync>>,
}

impl Outbox {
    /// An outbox with no waker (consumers poll or block on
    /// [`Outbox::wait_nonempty`]).
    #[must_use]
    pub fn new() -> Self {
        Self {
            queue: Mutex::new(VecDeque::with_capacity(64)),
            ready: Condvar::new(),
            waker: None,
        }
    }

    /// An outbox that runs `waker` after each push (e.g. write one byte
    /// to a reactor's wake pipe).
    #[must_use]
    pub fn with_waker(waker: impl Fn() + Send + Sync + 'static) -> Self {
        Self {
            queue: Mutex::new(VecDeque::with_capacity(64)),
            ready: Condvar::new(),
            waker: Some(Box::new(waker)),
        }
    }

    /// Enqueues a record and runs the waker. Shard workers use this for
    /// answers; the reactor also pushes synchronous-rejection records so
    /// one connection's replies stay in submission order.
    pub fn push(&self, rec: ResponseRec) {
        if let Ok(mut q) = self.queue.lock() {
            q.push_back(rec);
        }
        self.ready.notify_all();
        if let Some(waker) = &self.waker {
            waker();
        }
    }

    /// Moves every queued record into `out` (appending; capacity of both
    /// buffers is reused). Returns how many were drained.
    pub fn drain_into(&self, out: &mut Vec<ResponseRec>) -> usize {
        let Ok(mut q) = self.queue.lock() else {
            return 0;
        };
        let n = q.len();
        out.extend(q.drain(..));
        n
    }

    /// Blocks until the outbox is non-empty or `timeout` passes; returns
    /// whether records are available.
    pub fn wait_nonempty(&self, timeout: Duration) -> bool {
        let Ok(mut q) = self.queue.lock() else {
            return false;
        };
        let deadline = Instant::now() + timeout;
        while q.is_empty() {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            match self.ready.wait_timeout(q, deadline - now) {
                Ok((guard, _)) => q = guard,
                Err(_) => return false,
            }
        }
        true
    }
}

impl Default for Outbox {
    fn default() -> Self {
        Self::new()
    }
}

enum Reply {
    /// One-shot channel feeding a [`Ticket`] (in-process clients).
    Channel(mpsc::SyncSender<Result<ControlResponse, ServeError>>),
    /// Fixed-size record pushed onto a shared reply ring (the reactor).
    /// Allocation-free on the worker side.
    Outbox { outbox: Arc<Outbox>, id: u64 },
}

struct Request {
    /// The canary-routing identity: the wire id for remote clients, an
    /// engine-assigned id (from [`INTERNAL_ID_BASE`]) for tickets.
    id: u64,
    state: Vec<f64>,
    reply: Reply,
}

/// One controller's servable parts: network plus its scale and clip
/// envelope. Shared by [`Arc`] between the model set and shard workers —
/// swapping controllers is a pointer swap, never a weight copy.
struct ModelParams {
    net: Mlp,
    scale: Vec<f64>,
    u_inf: Vec<f64>,
    u_sup: Vec<f64>,
}

/// A canary candidate plus its traffic split and auto-rollback budget.
struct CanarySlot {
    params: Arc<ModelParams>,
    fraction_permille: u32,
    budget: RolloutBudget,
}

/// The epoch-versioned model set shard workers serve from. Immutable
/// once published; every transition publishes a fresh `Arc<ModelSet>`
/// and bumps the epoch counter workers poll at batch boundaries.
struct ModelSet {
    epoch: u64,
    incumbent: Arc<ModelParams>,
    canary: Option<CanarySlot>,
}

struct ShardState {
    queue: VecDeque<Request>,
    /// Pooled state buffers: submits pop one instead of allocating, the
    /// worker returns them after each batch.
    free: Vec<Vec<f64>>,
    paused: bool,
    shutdown: bool,
}

struct Shard {
    state: Mutex<ShardState>,
    wake: Condvar,
}

struct Shared {
    shards: Vec<Shard>,
    rr: AtomicUsize,
    state_dim: usize,
    control_dim: usize,
    queue_capacity: usize,
    /// The published model set; workers clone the `Arc` out (refcount
    /// bump, no allocation) whenever `model_epoch` moves.
    models: Mutex<Arc<ModelSet>>,
    /// Epoch of the latest published set. Stored with `Release` after
    /// the set is swapped; workers `Acquire`-load it per batch.
    model_epoch: AtomicU64,
    /// Forward kernel tier every shard serves with (fixed at start).
    tier: ServeTier,
    rollout: Mutex<RolloutLog>,
    drift: Mutex<Option<DriftDetector>>,
    /// Cached `drift.is_some()` so the hot path skips the lock entirely
    /// when no detector is configured.
    drift_enabled: bool,
    next_req_id: AtomicU64,
    tel: Arc<dyn Telemetry>,
}

impl Shared {
    fn shard_for(&self, conn_id: u64) -> usize {
        #[allow(
            clippy::cast_possible_truncation,
            reason = "modulo shard count, far below 2^32"
        )]
        {
            (fnv1a_64(&conn_id.to_le_bytes()) % self.shards.len() as u64) as usize
        }
    }

    fn lock_models(&self) -> MutexGuard<'_, Arc<ModelSet>> {
        #[allow(
            clippy::expect_used,
            reason = "a poisoned model mutex means a rollout panic; propagating is correct"
        )]
        let guard = self.models.lock().expect("model mutex poisoned");
        guard
    }

    fn lock_rollout(&self) -> MutexGuard<'_, RolloutLog> {
        #[allow(
            clippy::expect_used,
            reason = "a poisoned rollout mutex means a worker panic; propagating is correct"
        )]
        let guard = self.rollout.lock().expect("rollout mutex poisoned");
        guard
    }

    fn current_models(&self) -> Arc<ModelSet> {
        self.lock_models().clone()
    }

    /// Appends to the structured trail and mirrors it as a
    /// `serve.rollout` telemetry point.
    fn push_event(&self, epoch: u64, action: RolloutAction, detail: &str) {
        if self.tel.enabled() {
            self.tel.record(
                Event::point("serve.rollout")
                    .with("epoch", epoch)
                    .with("action", action.label())
                    .with("detail", detail),
            );
        }
        self.lock_rollout().events.push(RolloutEvent {
            epoch,
            action,
            detail: detail.to_string(),
        });
    }

    /// Installs `params` as a canary at `cfg`'s split; the epoch bumps so
    /// every shard observes the candidate at its next batch boundary.
    fn install_candidate(
        &self,
        params: ModelParams,
        cfg: &RolloutConfig,
    ) -> Result<u64, RolloutError> {
        let fraction = cfg.fraction_permille.min(1000);
        let mut models = self.lock_models();
        if models.canary.is_some() {
            return Err(RolloutError::CanaryInFlight);
        }
        let epoch = models.epoch + 1;
        *models = Arc::new(ModelSet {
            epoch,
            incumbent: models.incumbent.clone(),
            canary: Some(CanarySlot {
                params: Arc::new(params),
                fraction_permille: fraction,
                budget: cfg.budget,
            }),
        });
        self.model_epoch.store(epoch, Ordering::Release);
        drop(models);
        self.lock_rollout().reset_canary_counters();
        self.push_event(
            epoch,
            RolloutAction::Proposed,
            &format!("canary at {fraction}/1000 of traffic"),
        );
        self.tel.counter("serve.proposals", 1);
        Ok(epoch)
    }

    fn promote(&self) -> Result<u64, RolloutError> {
        let mut models = self.lock_models();
        let Some(slot) = models.canary.as_ref() else {
            return Err(RolloutError::NoCandidate);
        };
        let epoch = models.epoch + 1;
        let incumbent = slot.params.clone();
        *models = Arc::new(ModelSet {
            epoch,
            incumbent,
            canary: None,
        });
        self.model_epoch.store(epoch, Ordering::Release);
        drop(models);
        self.push_event(
            epoch,
            RolloutAction::Promoted,
            "candidate promoted to incumbent",
        );
        self.tel.counter("serve.promotions", 1);
        Ok(epoch)
    }

    fn rollback(&self, detail: &str) -> Result<u64, RolloutError> {
        let mut models = self.lock_models();
        if models.canary.is_none() {
            return Err(RolloutError::NoCandidate);
        }
        let epoch = models.epoch + 1;
        *models = Arc::new(ModelSet {
            epoch,
            incumbent: models.incumbent.clone(),
            canary: None,
        });
        self.model_epoch.store(epoch, Ordering::Release);
        drop(models);
        self.push_event(epoch, RolloutAction::RolledBack, detail);
        self.tel.counter("serve.rollbacks", 1);
        Ok(epoch)
    }

    /// A guard trip from a shard worker. Epoch-checked under the model
    /// lock: when several shards trip the same canary concurrently, only
    /// the first transition happens and the rest are no-ops (their
    /// batches are still answered from shadow outputs locally).
    fn auto_rollback(&self, observed_epoch: u64, reason: &'static str) {
        let mut models = self.lock_models();
        if models.epoch != observed_epoch || models.canary.is_none() {
            return;
        }
        let epoch = models.epoch + 1;
        *models = Arc::new(ModelSet {
            epoch,
            incumbent: models.incumbent.clone(),
            canary: None,
        });
        self.model_epoch.store(epoch, Ordering::Release);
        drop(models);
        self.push_event(epoch, RolloutAction::AutoRolledBack, reason);
        self.tel.counter("serve.rollbacks", 1);
    }

    fn submit(
        &self,
        shard_idx: usize,
        id: u64,
        state: &[f64],
        reply: Reply,
    ) -> Result<(), ServeError> {
        if state.len() != self.state_dim {
            return Err(ServeError::BadRequest(format!(
                "state dimension {} != expected {}",
                state.len(),
                self.state_dim
            )));
        }
        if !state.iter().all(|v| v.is_finite()) {
            return Err(ServeError::BadRequest("non-finite state component".into()));
        }
        let shard = &self.shards[shard_idx];
        #[allow(
            clippy::expect_used,
            reason = "a poisoned engine mutex means a worker panic; propagating is correct"
        )]
        let mut guard = shard.state.lock().expect("engine mutex poisoned");
        if guard.shutdown {
            return Err(ServeError::Shutdown);
        }
        if guard.queue.len() >= self.queue_capacity {
            let depth = guard.queue.len();
            drop(guard);
            self.tel.counter("serve.rejections", 1);
            return Err(ServeError::Backpressure { depth });
        }
        let mut buf = guard
            .free
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(self.state_dim));
        buf.clear();
        buf.extend_from_slice(state);
        guard.queue.push_back(Request {
            id,
            state: buf,
            reply,
        });
        drop(guard);
        shard.wake.notify_all();
        if self.tel.enabled() {
            // the capture that makes `cocktail-serve replay` possible:
            // state components as exact bit patterns, never decimal
            self.tel.record(
                Event::point("serve.request")
                    .with("id", id)
                    .with("state_bits", encode_state_bits(state)),
            );
        }
        Ok(())
    }
}

/// A cloneable submission handle; this is what the reactor and in-process
/// clients hold. Unpinned submits round-robin across shards; the reactor
/// [`EngineHandle::pinned`]s each connection instead.
#[derive(Clone)]
pub struct EngineHandle {
    shared: Arc<Shared>,
}

/// A handle pinned to the shard a connection id hashes to. All requests
/// from one connection share a queue, which keeps rejection patterns and
/// batch composition replayable.
#[derive(Clone)]
pub struct PinnedHandle {
    shared: Arc<Shared>,
    shard: usize,
}

/// An in-flight request; [`Ticket::wait`] blocks until a shard worker
/// answers.
pub struct Ticket {
    rx: mpsc::Receiver<Result<ControlResponse, ServeError>>,
}

impl Ticket {
    /// Blocks until the response arrives.
    ///
    /// # Errors
    ///
    /// Returns the per-request [`ServeError`], or [`ServeError::Shutdown`]
    /// when the engine died first.
    pub fn wait(self) -> Result<ControlResponse, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Shutdown))
    }
}

impl EngineHandle {
    /// State (input) dimension served by this engine.
    pub fn state_dim(&self) -> usize {
        self.shared.state_dim
    }

    /// Control (output) dimension served by this engine.
    pub fn control_dim(&self) -> usize {
        self.shared.control_dim
    }

    /// Number of engine shards.
    pub fn shard_count(&self) -> usize {
        self.shared.shards.len()
    }

    /// The handle pinned to the shard `conn_id` hashes to
    /// (FNV-1a(`conn_id`) mod shards — deterministic, evenly spread for
    /// sequential ids).
    #[must_use]
    pub fn pinned(&self, conn_id: u64) -> PinnedHandle {
        PinnedHandle {
            shard: self.shared.shard_for(conn_id),
            shared: self.shared.clone(),
        }
    }

    /// Enqueues a request without blocking, on a round-robin shard.
    ///
    /// # Errors
    ///
    /// [`ServeError::Backpressure`] on a full shard queue,
    /// [`ServeError::BadRequest`] on a malformed state,
    /// [`ServeError::Shutdown`] after shutdown.
    pub fn try_submit(&self, state: &[f64]) -> Result<Ticket, ServeError> {
        let shard = self.shared.rr.fetch_add(1, Ordering::Relaxed) % self.shared.shards.len();
        submit_ticket(&self.shared, shard, state)
    }

    /// Submits and waits for the answer — the in-process client call.
    ///
    /// # Errors
    ///
    /// See [`Self::try_submit`] and [`Ticket::wait`].
    pub fn submit(&self, state: &[f64]) -> Result<ControlResponse, ServeError> {
        self.try_submit(state)?.wait()
    }
}

impl PinnedHandle {
    /// State (input) dimension served by this engine.
    pub fn state_dim(&self) -> usize {
        self.shared.state_dim
    }

    /// Control (output) dimension served by this engine.
    pub fn control_dim(&self) -> usize {
        self.shared.control_dim
    }

    /// The shard index this handle is pinned to.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Enqueues a request on the pinned shard without blocking.
    ///
    /// # Errors
    ///
    /// See [`EngineHandle::try_submit`].
    pub fn try_submit(&self, state: &[f64]) -> Result<Ticket, ServeError> {
        submit_ticket(&self.shared, self.shard, state)
    }

    /// Enqueues a request with an explicit request id — the id canary
    /// routing hashes ([`routes_to_canary`]), so tests and replay drive
    /// exactly the traffic split a recorded stream saw.
    ///
    /// # Errors
    ///
    /// See [`EngineHandle::try_submit`].
    pub fn try_submit_with_id(&self, id: u64, state: &[f64]) -> Result<Ticket, ServeError> {
        let (tx, rx) = mpsc::sync_channel(1);
        self.shared
            .submit(self.shard, id, state, Reply::Channel(tx))?;
        Ok(Ticket { rx })
    }

    /// Submits and waits for the answer.
    ///
    /// # Errors
    ///
    /// See [`EngineHandle::submit`].
    pub fn submit(&self, state: &[f64]) -> Result<ControlResponse, ServeError> {
        self.try_submit(state)?.wait()
    }

    /// Enqueues a request whose answer is pushed onto `outbox` as a
    /// fixed-size [`ResponseRec`] carrying `id` — the allocation-free
    /// reply path the reactor transport uses.
    ///
    /// # Errors
    ///
    /// As [`Self::try_submit`], plus [`ServeError::BadRequest`] when the
    /// engine's control dimension exceeds the wire limit
    /// ([`MAX_WIRE_CONTROL_DIM`]).
    pub fn try_submit_outbox(
        &self,
        id: u64,
        state: &[f64],
        outbox: &Arc<Outbox>,
    ) -> Result<(), ServeError> {
        if self.shared.control_dim > MAX_WIRE_CONTROL_DIM {
            return Err(ServeError::BadRequest(format!(
                "control dimension {} exceeds the binary-wire limit {MAX_WIRE_CONTROL_DIM}",
                self.shared.control_dim
            )));
        }
        self.shared.submit(
            self.shard,
            id,
            state,
            Reply::Outbox {
                outbox: outbox.clone(),
                id,
            },
        )
    }
}

fn submit_ticket(shared: &Arc<Shared>, shard: usize, state: &[f64]) -> Result<Ticket, ServeError> {
    let id = shared.next_req_id.fetch_add(1, Ordering::Relaxed);
    let (tx, rx) = mpsc::sync_channel(1);
    shared.submit(shard, id, state, Reply::Channel(tx))?;
    Ok(Ticket { rx })
}

/// The engine: owns the shard worker threads. Dropping it shuts the
/// workers down after draining every queue.
pub struct Engine {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Engine {
    /// Starts an engine serving an admitted bundle, with no fallback and
    /// no telemetry.
    ///
    /// # Errors
    ///
    /// Returns the [`crate::bundle::BundleError`] message when the
    /// admitted spec is not servable (cannot happen for bundles that went
    /// through [`crate::admission::admit`]).
    pub fn start(admitted: &Admitted, config: EngineConfig) -> Result<Self, ServeError> {
        Self::start_with(admitted, config, None, Arc::new(NullSink))
    }

    /// Starts an engine with an optional fallback expert and telemetry.
    ///
    /// The fallback must match the bundle's dimensions; it answers any
    /// request whose primary output is non-finite.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] when the spec is not the `Mlp` family or
    /// the fallback dimensions disagree with the bundle.
    pub fn start_with(
        admitted: &Admitted,
        config: EngineConfig,
        fallback: Option<Arc<dyn Controller>>,
        tel: Arc<dyn Telemetry>,
    ) -> Result<Self, ServeError> {
        let (net, scale) = admitted
            .bundle
            .network()
            .map_err(|e| ServeError::BadRequest(e.to_string()))?;
        Self::from_parts(
            net.clone(),
            scale.to_vec(),
            admitted.bundle.u_inf.clone(),
            admitted.bundle.u_sup.clone(),
            config,
            fallback,
            tel,
        )
    }

    /// Starts an engine from raw parts, bypassing admission. Exists for
    /// the fault drills (serving a deliberately overflowing network to
    /// exercise the fallback path) and the serving tests; production
    /// callers go through [`crate::admission::admit`] + [`Self::start`].
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] on any dimension inconsistency.
    #[allow(
        clippy::needless_pass_by_value,
        reason = "callers hand over ownership; the engine keeps the parts inside the shared model set"
    )]
    pub fn from_parts(
        net: Mlp,
        scale: Vec<f64>,
        u_inf: Vec<f64>,
        u_sup: Vec<f64>,
        config: EngineConfig,
        fallback: Option<Arc<dyn Controller>>,
        tel: Arc<dyn Telemetry>,
    ) -> Result<Self, ServeError> {
        let control_dim = net.output_dim();
        if scale.len() != control_dim || u_inf.len() != control_dim || u_sup.len() != control_dim {
            return Err(ServeError::BadRequest(format!(
                "scale/clip arity ({}, {}, {}) != control dimension {control_dim}",
                scale.len(),
                u_inf.len(),
                u_sup.len()
            )));
        }
        if let Some(fb) = &fallback {
            if fb.state_dim() != net.input_dim() || fb.control_dim() != control_dim {
                return Err(ServeError::BadRequest(format!(
                    "fallback expert `{}` dimensions ({}, {}) != bundle dimensions ({}, {})",
                    fb.name(),
                    fb.state_dim(),
                    fb.control_dim(),
                    net.input_dim(),
                    control_dim
                )));
            }
        }
        let n_shards = config.shards.max(1);
        let queue_capacity = config.queue_capacity.max(1);
        let shards = (0..n_shards)
            .map(|_| Shard {
                state: Mutex::new(ShardState {
                    queue: VecDeque::with_capacity(queue_capacity),
                    free: Vec::with_capacity(queue_capacity),
                    paused: config.start_paused,
                    shutdown: false,
                }),
                wake: Condvar::new(),
            })
            .collect();
        let incumbent = Arc::new(ModelParams {
            net,
            scale,
            u_inf,
            u_sup,
        });
        let drift = config
            .drift
            .map(|cfg| DriftDetector::new(cfg, &incumbent.u_inf, &incumbent.u_sup));
        let shared = Arc::new(Shared {
            shards,
            rr: AtomicUsize::new(0),
            state_dim: incumbent.net.input_dim(),
            control_dim,
            queue_capacity,
            models: Mutex::new(Arc::new(ModelSet {
                epoch: 1,
                incumbent,
                canary: None,
            })),
            model_epoch: AtomicU64::new(1),
            tier: config.tier,
            rollout: Mutex::new(RolloutLog::default()),
            drift_enabled: drift.is_some(),
            drift: Mutex::new(drift),
            next_req_id: AtomicU64::new(INTERNAL_ID_BASE),
            tel,
        });
        let max_batch = config.max_batch.max(1);
        let deadline = config.batch_deadline;
        let mut workers = Vec::with_capacity(n_shards);
        for shard_idx in 0..n_shards {
            let worker_shared = shared.clone();
            let fallback = fallback.clone();
            let worker = std::thread::Builder::new()
                .name(format!("cocktail-serve-shard-{shard_idx}"))
                .spawn(move || {
                    shard_worker(
                        &worker_shared,
                        shard_idx,
                        &WorkerParams {
                            max_batch,
                            deadline,
                            fallback,
                        },
                    );
                })
                .map_err(|e| ServeError::BadRequest(format!("spawn worker: {e}")))?;
            workers.push(worker);
        }
        Ok(Self { shared, workers })
    }

    /// A cloneable submission handle.
    pub fn handle(&self) -> EngineHandle {
        EngineHandle {
            shared: self.shared.clone(),
        }
    }

    /// Proposes `bundle` as a canary: the full admission gate runs here,
    /// off the hot path, then the candidate installs at `cfg`'s traffic
    /// split. Returns the new model epoch.
    ///
    /// # Errors
    ///
    /// [`RolloutError::Refused`] when admission refuses the bundle,
    /// [`RolloutError::Incompatible`] on a dimension mismatch with the
    /// running engine, [`RolloutError::CanaryInFlight`] when a canary is
    /// already installed.
    pub fn propose(
        &self,
        bundle: ControllerBundle,
        cfg: &RolloutConfig,
    ) -> Result<u64, RolloutError> {
        let admitted = admission::admit_candidate(
            bundle,
            self.shared.state_dim,
            self.shared.control_dim,
            &AdmissionConfig::default(),
            self.shared.tel.as_ref(),
        )
        .map_err(RolloutError::Refused)?;
        self.propose_admitted(&admitted, cfg)
    }

    /// Installs an already-admitted candidate as a canary (callers that
    /// ran [`crate::admission::admit_with`] themselves). Returns the new
    /// model epoch.
    ///
    /// # Errors
    ///
    /// See [`Self::propose`] (minus [`RolloutError::Refused`]).
    pub fn propose_admitted(
        &self,
        admitted: &Admitted,
        cfg: &RolloutConfig,
    ) -> Result<u64, RolloutError> {
        let (net, scale) = admitted
            .bundle
            .network()
            .map_err(|e| RolloutError::Incompatible(e.to_string()))?;
        self.propose_parts(
            net.clone(),
            scale.to_vec(),
            admitted.bundle.u_inf.clone(),
            admitted.bundle.u_sup.clone(),
            cfg,
        )
    }

    /// Installs candidate parts as a canary, bypassing admission. Exists
    /// for the fault drills (poisoned candidates that admission would
    /// refuse, to exercise auto-rollback); production callers go through
    /// [`Self::propose`]. Returns the new model epoch.
    ///
    /// # Errors
    ///
    /// [`RolloutError::Incompatible`] on a dimension mismatch,
    /// [`RolloutError::CanaryInFlight`] when a canary is already
    /// installed.
    #[allow(
        clippy::needless_pass_by_value,
        reason = "the canary slot takes ownership of the parts"
    )]
    pub fn propose_parts(
        &self,
        net: Mlp,
        scale: Vec<f64>,
        u_inf: Vec<f64>,
        u_sup: Vec<f64>,
        cfg: &RolloutConfig,
    ) -> Result<u64, RolloutError> {
        let (sd, cd) = (self.shared.state_dim, self.shared.control_dim);
        if net.input_dim() != sd
            || net.output_dim() != cd
            || scale.len() != cd
            || u_inf.len() != cd
            || u_sup.len() != cd
        {
            return Err(RolloutError::Incompatible(format!(
                "candidate dimensions ({} -> {}, scale {}, clip {}/{}) != engine ({sd} -> {cd})",
                net.input_dim(),
                net.output_dim(),
                scale.len(),
                u_inf.len(),
                u_sup.len()
            )));
        }
        let params = ModelParams {
            net,
            scale,
            u_inf,
            u_sup,
        };
        self.shared.install_candidate(params, cfg)
    }

    /// Atomically makes the canary the incumbent on every shard (observed
    /// at the next batch boundary). Returns the new model epoch; any
    /// request submitted after this returns is served by the promoted
    /// controller.
    ///
    /// # Errors
    ///
    /// [`RolloutError::NoCandidate`] when no canary is in flight.
    pub fn promote(&self) -> Result<u64, RolloutError> {
        self.shared.promote()
    }

    /// Drops the canary and restores incumbent-only serving, recording
    /// `detail` (e.g. `"operator"`) in the rollout trail. Returns the new
    /// model epoch.
    ///
    /// # Errors
    ///
    /// [`RolloutError::NoCandidate`] when no canary is in flight.
    pub fn rollback(&self, detail: &str) -> Result<u64, RolloutError> {
        self.shared.rollback(detail)
    }

    /// Current model epoch (bumps on propose/promote/rollback).
    pub fn model_epoch(&self) -> u64 {
        self.shared.model_epoch.load(Ordering::Acquire)
    }

    /// Point-in-time rollout snapshot: epoch, canary state, and the
    /// shadow-comparison counters/histogram.
    pub fn rollout_status(&self) -> RolloutStatus {
        let models = self.shared.current_models();
        let log = self.shared.lock_rollout();
        RolloutStatus {
            epoch: models.epoch,
            canary_active: models.canary.is_some(),
            canary_fraction_permille: models
                .canary
                .as_ref()
                .map_or(0, |slot| slot.fraction_permille),
            canary_served: log.canary_served,
            canary_shadowed: log.canary_shadowed,
            nonfinite_canary_outputs: log.nonfinite_canary_outputs,
            envelope_violations: log.envelope_violations,
            divergence: log.divergence,
        }
    }

    /// The structured rollout trail, oldest first.
    pub fn rollout_events(&self) -> Vec<RolloutEvent> {
        self.shared.lock_rollout().events.clone()
    }

    /// Every drift alarm raised so far, oldest first.
    pub fn drift_reports(&self) -> Vec<DriftReport> {
        self.shared.lock_rollout().drift_reports.clone()
    }

    /// Drops the drift detector's frozen baseline (call after an
    /// *intentional* behavior change, e.g. a promote). No-op when drift
    /// detection is off.
    pub fn rebaseline_drift(&self) {
        #[allow(
            clippy::expect_used,
            reason = "a poisoned drift mutex means a worker panic; propagating is correct"
        )]
        let mut guard = self.shared.drift.lock().expect("drift mutex poisoned");
        if let Some(det) = guard.as_mut() {
            det.rebaseline();
        }
    }

    /// Pauses every shard scheduler: requests keep queueing (and keep
    /// being rejected once a queue is full) but no batch runs.
    pub fn pause(&self) {
        self.set_paused(true);
    }

    /// Resumes a paused scheduler.
    pub fn resume(&self) {
        self.set_paused(false);
    }

    fn set_paused(&self, paused: bool) {
        for shard in &self.shared.shards {
            #[allow(
                clippy::expect_used,
                reason = "a poisoned engine mutex means a worker panic; propagating is correct"
            )]
            let mut guard = shard.state.lock().expect("engine mutex poisoned");
            guard.paused = paused;
            drop(guard);
            shard.wake.notify_all();
        }
    }

    /// Shuts every shard worker down after draining its queue.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        for shard in &self.shared.shards {
            #[allow(
                clippy::expect_used,
                reason = "a poisoned engine mutex means a worker panic; propagating is correct"
            )]
            let mut guard = shard.state.lock().expect("engine mutex poisoned");
            guard.shutdown = true;
            // a paused engine must still drain on shutdown
            guard.paused = false;
            drop(guard);
            shard.wake.notify_all();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Immutable per-shard worker parameters (the models travel separately,
/// through the epoch-versioned [`ModelSet`]).
struct WorkerParams {
    max_batch: usize,
    deadline: Duration,
    fallback: Option<Arc<dyn Controller>>,
}

/// Where one batched request is served from.
#[derive(Clone, Copy)]
enum Route {
    /// Row index into the incumbent sub-batch.
    Incumbent(usize),
    /// Row index into the canary sub-batch.
    Canary(usize),
}

/// Per-shard reusable scratch. `inputs[k]`/`caches[k]` are the staging
/// matrix and forward cache for batch-size class `k`; each class is
/// allocated on first use and reused forever after, so a steady-state
/// batch touches no allocator no matter how batch sizes fluctuate. The
/// canary path keeps its own size classes (`can_*`, plus the shadow
/// caches the incumbent recomputes canary rows into).
struct ShardScratch {
    batch: Vec<Request>,
    spent: Vec<Vec<f64>>,
    route: Vec<Route>,
    inputs: Vec<Option<Matrix>>,
    caches: Vec<CacheSlot>,
    can_inputs: Vec<Option<Matrix>>,
    can_caches: Vec<CacheSlot>,
    shadow_caches: Vec<CacheSlot>,
    divs: Vec<f64>,
    scaled: Vec<f64>,
}

impl ShardScratch {
    fn new(max_batch: usize, control_dim: usize, capacity: usize) -> Self {
        Self {
            batch: Vec::with_capacity(max_batch),
            spent: Vec::with_capacity(capacity + max_batch),
            route: Vec::with_capacity(max_batch),
            inputs: (0..=max_batch).map(|_| None).collect(),
            caches: (0..=max_batch).map(|_| CacheSlot::default()).collect(),
            can_inputs: (0..=max_batch).map(|_| None).collect(),
            can_caches: (0..=max_batch).map(|_| CacheSlot::default()).collect(),
            shadow_caches: (0..=max_batch).map(|_| CacheSlot::default()).collect(),
            divs: Vec::with_capacity(max_batch),
            scaled: vec![0.0; control_dim],
        }
    }
}

/// One batch-size class's forward cache, allocated on first use and
/// reused forever after.
#[derive(Default)]
struct CacheSlot(Option<BatchCache>);

impl CacheSlot {
    /// Runs `params`' batched forward with `kernel` over `input` into this
    /// slot, catching the network's internal finiteness panic; `false`
    /// means the batch is poisoned and must degrade to the fallback
    /// expert.
    fn forward(&mut self, params: &ModelParams, kernel: ForwardKernel, input: &Matrix) -> bool {
        let cache = self.0.get_or_insert_with(BatchCache::new);
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            params.net.forward_batch_cached_kernel(input, cache, kernel);
        }))
        .is_ok()
    }

    /// Row `j` of the last forward's output, if one ran.
    fn output_row(&self, j: usize) -> Option<&[f64]> {
        self.0.as_ref().map(|c| c.output().row(j))
    }
}

fn shard_worker(shared: &Shared, shard_idx: usize, params: &WorkerParams) {
    let tel = shared.tel.as_ref();
    let shard = &shared.shards[shard_idx];
    let mut models = shared.current_models();
    let mut scratch =
        ShardScratch::new(params.max_batch, shared.control_dim, shared.queue_capacity);
    loop {
        #[allow(
            clippy::expect_used,
            reason = "a poisoned engine mutex means a submitter panicked mid-push; nothing to salvage"
        )]
        let mut guard = shard.state.lock().expect("engine mutex poisoned");
        // return the previous batch's state buffers to the submit pool
        while let Some(mut buf) = scratch.spent.pop() {
            if guard.free.len() < shared.queue_capacity + params.max_batch {
                buf.clear();
                guard.free.push(buf);
            }
        }
        // wait for work (or shutdown with an empty queue)
        loop {
            if guard.queue.is_empty() || guard.paused {
                if guard.shutdown && guard.queue.is_empty() {
                    return;
                }
                #[allow(
                    clippy::expect_used,
                    reason = "condvar wait fails only on a poisoned mutex"
                )]
                {
                    guard = shard.wake.wait(guard).expect("engine mutex poisoned");
                }
            } else {
                break;
            }
        }
        // optional batch window: hold for up to `deadline` or `max_batch`
        if !params.deadline.is_zero() {
            let window_end = Instant::now() + params.deadline;
            while guard.queue.len() < params.max_batch && !guard.shutdown && !guard.paused {
                let now = Instant::now();
                if now >= window_end {
                    break;
                }
                #[allow(
                    clippy::expect_used,
                    reason = "condvar wait fails only on a poisoned mutex"
                )]
                let (g, timeout) = shard
                    .wake
                    .wait_timeout(guard, window_end - now)
                    .expect("engine mutex poisoned");
                guard = g;
                if timeout.timed_out() {
                    break;
                }
            }
        }
        if guard.paused && !guard.shutdown {
            continue; // drop the guard, go back to waiting
        }
        let depth = guard.queue.len();
        let take = depth.min(params.max_batch);
        scratch.batch.clear();
        for _ in 0..take {
            #[allow(
                clippy::expect_used,
                reason = "take <= queue length under the lock just taken"
            )]
            scratch
                .batch
                .push(guard.queue.pop_front().expect("take <= len"));
        }
        drop(guard);

        // observe rollout transitions at the batch boundary: the shard
        // mutex above synchronizes-with every submit, and transitions
        // Release-store the epoch before returning — so a request
        // submitted after promote() returns is never served by the old
        // set. Re-cloning the Arc is a refcount bump, not an allocation.
        if shared.model_epoch.load(Ordering::Acquire) != models.epoch {
            models = shared.current_models();
        }

        run_batch(tel, shard_idx, &mut scratch, shared, &models, params, depth);
    }
}

#[allow(
    clippy::too_many_lines,
    reason = "the batch hot path stays one function so the borrow structure (disjoint scratch fields) is visible at once"
)]
fn run_batch(
    tel: &dyn Telemetry,
    shard_idx: usize,
    scratch: &mut ShardScratch,
    shared: &Shared,
    models: &ModelSet,
    params: &WorkerParams,
    depth: usize,
) {
    let n = scratch.batch.len();
    let span = if tel.enabled() {
        Some(Span::enter_with(
            tel,
            "serve/batch",
            vec![
                ("batch".to_string(), n.into()),
                ("queue_depth".to_string(), depth.into()),
                ("shard".to_string(), shard_idx.into()),
            ],
        ))
    } else {
        None
    };

    let inc = models.incumbent.as_ref();
    let kernel = shared.tier.kernel();

    // ---- route each request: a pure function of its id, so the split is
    // identical for any shard count and batch composition
    scratch.route.clear();
    let (mut n_inc, mut n_can) = (0usize, 0usize);
    for req in &scratch.batch {
        let to_canary = models
            .canary
            .as_ref()
            .is_some_and(|slot| routes_to_canary(req.id, slot.fraction_permille));
        if to_canary {
            scratch.route.push(Route::Canary(n_can));
            n_can += 1;
        } else {
            scratch.route.push(Route::Incumbent(n_inc));
            n_inc += 1;
        }
    }

    // ---- incumbent sub-batch
    let inc_ok = if n_inc > 0 {
        let input =
            scratch.inputs[n_inc].get_or_insert_with(|| Matrix::zeros(n_inc, inc.net.input_dim()));
        for (req, route) in scratch.batch.iter().zip(&scratch.route) {
            if let Route::Incumbent(j) = route {
                input.row_mut(*j).copy_from_slice(&req.state);
            }
        }
        // the network asserts its own activations are finite and panics
        // otherwise; the slot catches that so one poisoned batch degrades
        // to the fallback expert instead of killing the shard worker
        scratch.caches[n_inc].forward(inc, kernel, input)
    } else {
        true
    };

    // ---- canary sub-batch: candidate forward + incumbent shadow, then
    // ALL guards, before any canary reply leaves the shard
    let (mut can_ok, mut shadow_ok) = (true, true);
    let mut trip: Option<&'static str> = None;
    if n_can > 0 {
        #[allow(
            clippy::expect_used,
            reason = "requests route to the canary only when a slot is installed"
        )]
        let slot = models.canary.as_ref().expect("canary routed without slot");
        let can = slot.params.as_ref();
        let input = scratch.can_inputs[n_can]
            .get_or_insert_with(|| Matrix::zeros(n_can, can.net.input_dim()));
        for (req, route) in scratch.batch.iter().zip(&scratch.route) {
            if let Route::Canary(j) = route {
                input.row_mut(*j).copy_from_slice(&req.state);
            }
        }
        can_ok = scratch.can_caches[n_can].forward(can, kernel, input);
        // shadow: the incumbent recomputes the very same staged rows with
        // the very same tier; in the Exact tier batched ≡ per-sample, so
        // the shadow is bit-identical to what the incumbent would have
        // served (the fast-tanh tier stays within its certified bound)
        shadow_ok = scratch.shadow_caches[n_can].forward(inc, kernel, input);

        // guard pass over the whole canary sub-batch
        scratch.divs.clear();
        let mut nonfinite = 0u64;
        let mut env_rows = 0u64;
        let mut max_finite_div = 0.0_f64;
        for j in 0..n_can {
            let can_row = if can_ok {
                scratch.can_caches[n_can].output_row(j)
            } else {
                None
            };
            let Some(can_row) = can_row else {
                nonfinite += 1;
                scratch.divs.push(f64::NAN);
                continue;
            };
            let shadow_row = if shadow_ok {
                scratch.shadow_caches[n_can].output_row(j)
            } else {
                None
            };
            let mut row_finite = true;
            let mut row_escaped = false;
            let mut shadow_finite = shadow_row.is_some();
            let mut d = 0.0_f64;
            for (i, &y) in can_row.iter().enumerate() {
                let c = y * can.scale[i];
                if !c.is_finite() {
                    row_finite = false;
                }
                if c < can.u_inf[i] || c > can.u_sup[i] {
                    row_escaped = true;
                }
                let cc = c.clamp(can.u_inf[i], can.u_sup[i]);
                if let Some(shadow_row) = shadow_row {
                    let s = shadow_row[i] * inc.scale[i];
                    if s.is_finite() {
                        let sc = s.clamp(inc.u_inf[i], inc.u_sup[i]);
                        // NaN-proof: f64::max ignores a NaN |cc - sc|
                        d = d.max((cc - sc).abs());
                    } else {
                        shadow_finite = false;
                    }
                }
            }
            if !row_finite {
                nonfinite += 1;
                d = f64::NAN;
            } else {
                if row_escaped {
                    env_rows += 1;
                }
                if !shadow_finite {
                    d = f64::NAN; // incumbent broke, not the candidate
                } else {
                    max_finite_div = max_finite_div.max(d);
                }
            }
            scratch.divs.push(d);
        }

        // account + evaluate the budgets under the engine-wide log lock
        {
            let mut log = shared.lock_rollout();
            log.canary_shadowed += n_can as u64;
            log.nonfinite_canary_outputs += nonfinite;
            log.envelope_violations += env_rows;
            for d in &scratch.divs {
                log.divergence.record(*d);
            }
            if !can_ok || nonfinite > 0 {
                trip = Some("non-finite canary output");
            } else if max_finite_div > slot.budget.max_divergence {
                trip = Some("canary divergence budget exceeded");
            } else if log.envelope_violations > slot.budget.max_envelope_violations {
                trip = Some("canary envelope-violation budget exceeded");
            } else {
                log.canary_served += n_can as u64;
            }
        }
        if let Some(reason) = trip {
            shared.auto_rollback(models.epoch, reason);
        }
        tel.counter("serve.canary.requests", n_can as u64);
    }

    let can_params = models.canary.as_ref().map(|slot| slot.params.as_ref());

    // drift: one lock per batch, only when a detector is configured
    let mut drift_guard = if shared.drift_enabled {
        #[allow(
            clippy::expect_used,
            reason = "a poisoned drift mutex means a worker panic; propagating is correct"
        )]
        let guard = shared.drift.lock().expect("drift mutex poisoned");
        Some(guard)
    } else {
        None
    };
    let mut drift_hits: Vec<DriftReport> = Vec::new();

    // ---- reply pass, in original batch order
    let mut fallbacks = 0u64;
    for (r, req) in scratch.batch.drain(..).enumerate() {
        let (model, row): (&ModelParams, Option<&[f64]>) = match scratch.route[r] {
            Route::Incumbent(j) => {
                let row = if inc_ok {
                    scratch.caches[n_inc].output_row(j)
                } else {
                    None
                };
                (inc, row)
            }
            Route::Canary(j) => {
                if trip.is_some() {
                    // a tripped batch is answered entirely from the
                    // incumbent's shadow outputs: zero candidate
                    // responses escape
                    let row = if shadow_ok {
                        scratch.shadow_caches[n_can].output_row(j)
                    } else {
                        None
                    };
                    (inc, row)
                } else {
                    let row = if can_ok {
                        scratch.can_caches[n_can].output_row(j)
                    } else {
                        None
                    };
                    (can_params.unwrap_or(inc), row)
                }
            }
        };
        // identical arithmetic to NnController::control followed by the
        // plant clip: y[i] * scale[i], then clamp — bit-for-bit what the
        // per-sample path produces
        let mut finite = row.is_some();
        if let Some(row) = row {
            for ((dst, y), sc) in scratch.scaled.iter_mut().zip(row).zip(&model.scale) {
                *dst = y * sc;
                finite &= dst.is_finite();
            }
        }
        let outcome: Result<(&[f64], bool), ServeError> = if finite {
            for ((v, lo), hi) in scratch
                .scaled
                .iter_mut()
                .zip(&model.u_inf)
                .zip(&model.u_sup)
            {
                // same clamp as cocktail_math::vector::clip
                *v = v.clamp(*lo, *hi);
            }
            Ok((scratch.scaled.as_slice(), false))
        } else if let Some(fb) = params.fallback.as_deref() {
            fallbacks += 1;
            let u = fb.control(&req.state);
            if u.iter().all(|v| v.is_finite()) {
                for (((dst, v), lo), hi) in scratch
                    .scaled
                    .iter_mut()
                    .zip(&u)
                    .zip(&model.u_inf)
                    .zip(&model.u_sup)
                {
                    *dst = v.clamp(*lo, *hi);
                }
                Ok((scratch.scaled.as_slice(), true))
            } else {
                Err(ServeError::NonFiniteOutput)
            }
        } else {
            Err(ServeError::NonFiniteOutput)
        };
        if let Some(det) = drift_guard.as_mut().and_then(|g| g.as_mut()) {
            if let Ok((control, _)) = &outcome {
                if let Some(report) = det.observe_row(control) {
                    drift_hits.push(report);
                }
            }
        }
        match req.reply {
            Reply::Channel(tx) => {
                let response = outcome.map(|(control, served_by_fallback)| ControlResponse {
                    control: control.to_vec(),
                    served_by_fallback,
                });
                // a dropped ticket (client gone) is not an engine error
                let _ = tx.send(response);
            }
            Reply::Outbox { outbox, id } => {
                let rec = match outcome {
                    Ok((control, fallback)) => ResponseRec::ok(id, control, fallback),
                    Err(e) => ResponseRec::err(id, wire::status_of_error(&e)),
                };
                outbox.push(rec);
            }
        }
        scratch.spent.push(req.state);
    }
    drop(drift_guard);

    // drift alarms: rare, off the per-request path
    for report in drift_hits {
        if tel.enabled() {
            tel.record(
                Event::point("serve.drift")
                    .with("dim", report.dim)
                    .with("distance", report.distance)
                    .with("threshold", report.threshold)
                    .with("epoch", models.epoch),
            );
        }
        tel.counter("serve.drift.alarms", 1);
        let mut log = shared.lock_rollout();
        log.events.push(RolloutEvent {
            epoch: models.epoch,
            action: RolloutAction::Drift,
            detail: format!(
                "served-output drift on dim {}: total-variation {:.4} > {:.4}",
                report.dim, report.distance, report.threshold
            ),
        });
        log.drift_reports.push(report);
    }

    tel.observe("serve.batch_size", n as f64);
    tel.observe("serve.queue_depth", depth as f64);
    tel.counter("serve.requests", n as u64);
    tel.counter("serve.fallbacks", fallbacks);
    if tel.enabled() {
        tel.record(Event::histogram("serve.shard.depth", depth as f64).with("shard", shard_idx));
        tel.record(Event::counter("serve.shard.batches", 1).with("shard", shard_idx));
        if fallbacks > 0 {
            tel.record(
                Event::point("serve.degradation")
                    .with("reason", "non-finite-output")
                    .with("shard", shard_idx)
                    .with("requests", fallbacks),
            );
        }
    }
    drop(span);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocktail_control::LinearFeedbackController;
    use cocktail_nn::{Activation, MlpBuilder};
    use cocktail_obs::InMemorySink;

    fn small_net() -> Mlp {
        MlpBuilder::new(2)
            .hidden(6, Activation::Tanh)
            .output(1, Activation::Identity)
            .seed(5)
            .build()
    }

    fn engine_with(config: EngineConfig) -> Engine {
        Engine::from_parts(
            small_net(),
            vec![2.0],
            vec![-5.0],
            vec![5.0],
            config,
            None,
            Arc::new(NullSink),
        )
        .expect("engine starts")
    }

    #[test]
    fn serves_a_request_end_to_end() {
        let engine = engine_with(EngineConfig::default());
        let resp = engine.handle().submit(&[0.3, -0.4]).expect("served");
        let expected = cocktail_math::vector::clip(
            &[small_net().forward(&[0.3, -0.4])[0] * 2.0],
            &[-5.0],
            &[5.0],
        );
        assert_eq!(resp.control, expected);
        assert!(!resp.served_by_fallback);
    }

    #[test]
    fn every_shard_serves_the_same_bits() {
        let per_sample = |s: &[f64]| {
            cocktail_math::vector::clip(&[small_net().forward(s)[0] * 2.0], &[-5.0], &[5.0])
        };
        for shards in [1usize, 2, 8] {
            let engine = engine_with(EngineConfig {
                shards,
                ..EngineConfig::default()
            });
            let h = engine.handle();
            assert_eq!(h.shard_count(), shards);
            for conn in 0..16u64 {
                let pinned = h.pinned(conn);
                assert!(pinned.shard() < shards);
                let s = [0.05 * conn as f64 - 0.3, 0.1];
                assert_eq!(
                    pinned.submit(&s).expect("served").control,
                    per_sample(&s),
                    "shard {} of {shards} must match the per-sample path",
                    pinned.shard()
                );
            }
        }
    }

    #[test]
    fn fast_tiers_serve_within_certified_bounds_across_shards() {
        assert_eq!(EngineConfig::default().tier, ServeTier::Exact);
        let net = MlpBuilder::new(2)
            .hidden(24, Activation::Tanh)
            .hidden(24, Activation::Tanh)
            .output(1, Activation::Identity)
            .seed(21)
            .build();
        let region = cocktail_math::BoxRegion::cube(2, -3.0, 3.0);
        let cert = cocktail_nn::certify_fast_tier(&net, &region).expect("tanh net certifies");
        let scale = 2.0_f64;
        // the clip to the control envelope is 1-Lipschitz, so the served
        // control error is at most |scale| × the certified network-output
        // bound
        let bound = scale * cert.fast_tanh_output_error[0];
        for shards in [1usize, 2, 8] {
            let engine = Engine::from_parts(
                net.clone(),
                vec![scale],
                vec![-5.0],
                vec![5.0],
                EngineConfig {
                    shards,
                    tier: ServeTier::FastTanh,
                    ..EngineConfig::default()
                },
                None,
                Arc::new(NullSink),
            )
            .expect("engine starts");
            let h = engine.handle();
            let mut rng = cocktail_math::rng::seeded(0xfa57 + shards as u64);
            for i in 0..32u64 {
                let s = cocktail_math::rng::uniform_in_box(&mut rng, &region);
                let served = h.pinned(i).submit(&s).expect("served").control[0];
                let oracle = (net.forward(&s)[0] * scale).clamp(-5.0, 5.0);
                assert!(
                    (served - oracle).abs() <= bound,
                    "fast-tanh on {shards} shard(s): |{served} - {oracle}| > {bound}"
                );
            }
        }
    }

    #[test]
    fn pinning_is_deterministic_and_spread() {
        let engine = engine_with(EngineConfig {
            shards: 4,
            ..EngineConfig::default()
        });
        let h = engine.handle();
        let mut counts = [0usize; 4];
        for conn in 0..32u64 {
            let a = h.pinned(conn).shard();
            let b = h.pinned(conn).shard();
            assert_eq!(a, b, "same connection id, same shard");
            counts[a] += 1;
        }
        assert!(
            counts.iter().all(|&c| c > 0),
            "sequential connection ids must touch every shard: {counts:?}"
        );
    }

    #[test]
    fn rejects_malformed_requests_immediately() {
        let engine = engine_with(EngineConfig::default());
        let h = engine.handle();
        assert!(matches!(h.submit(&[1.0]), Err(ServeError::BadRequest(_))));
        assert!(matches!(
            h.submit(&[f64::NAN, 0.0]),
            Err(ServeError::BadRequest(_))
        ));
    }

    #[test]
    fn paused_engine_rejects_above_capacity_deterministically() {
        let engine = engine_with(EngineConfig {
            queue_capacity: 3,
            start_paused: true,
            ..EngineConfig::default()
        });
        let h = engine.handle();
        let tickets: Vec<Ticket> = (0..3)
            .map(|i| h.try_submit(&[0.1 * f64::from(i), 0.0]).expect("queued"))
            .collect();
        for _ in 0..5 {
            assert_eq!(
                h.try_submit(&[0.9, 0.9]).err(),
                Some(ServeError::Backpressure { depth: 3 })
            );
        }
        engine.resume();
        for t in tickets {
            assert!(t.wait().expect("served after resume").control[0].is_finite());
        }
    }

    #[test]
    fn outbox_replies_carry_the_same_bits_as_tickets() {
        let engine = engine_with(EngineConfig::default());
        let h = engine.handle();
        let pinned = h.pinned(3);
        let outbox = Arc::new(Outbox::new());
        let state = [0.2, -0.6];
        let via_ticket = h.submit(&state).expect("served");
        pinned
            .try_submit_outbox(41, &state, &outbox)
            .expect("queued");
        assert!(outbox.wait_nonempty(Duration::from_secs(5)));
        let mut recs = Vec::new();
        assert_eq!(outbox.drain_into(&mut recs), 1);
        assert_eq!(recs[0].id, 41);
        assert!(recs[0].is_ok());
        assert_eq!(recs[0].control(), via_ticket.control.as_slice());
    }

    #[test]
    fn fallback_answers_non_finite_outputs() {
        // identity-activation net with an overflowing weight: finite
        // parameters, non-finite output at a large input — exactly the
        // case admission cannot rule out and the runtime guard must catch
        let net = MlpBuilder::new(2)
            .hidden(4, Activation::Identity)
            .output(1, Activation::Identity)
            .seed(1)
            .build();
        let mut net = net;
        for layer in net.layers_mut() {
            for v in layer.weights_mut().as_mut_slice() {
                *v = 1e300;
            }
        }
        let fallback = Arc::new(LinearFeedbackController::new(Matrix::from_rows(vec![
            vec![1.0, 1.0],
        ])));
        let tel = Arc::new(InMemorySink::new());
        let engine = Engine::from_parts(
            net,
            vec![1.0],
            vec![-5.0],
            vec![5.0],
            EngineConfig::default(),
            Some(fallback),
            tel.clone(),
        )
        .expect("engine starts");
        let resp = engine
            .handle()
            .submit(&[2.0, 2.0])
            .expect("fallback serves");
        assert!(resp.served_by_fallback);
        assert_eq!(resp.control, vec![-4.0]); // clip(-(2+2)) at [-5, 5]
        drop(engine);
        assert_eq!(tel.counter_total("serve.fallbacks"), 1);
        assert_eq!(tel.counter_total("serve.requests"), 1);
        assert_eq!(tel.counter_total("serve.shard.batches"), 1);
    }

    #[test]
    fn no_fallback_means_an_explicit_error() {
        // tanh layers would keep the output finite; identity ones overflow
        let mut net = MlpBuilder::new(2)
            .hidden(4, Activation::Identity)
            .output(1, Activation::Identity)
            .seed(1)
            .build();
        for layer in net.layers_mut() {
            for v in layer.weights_mut().as_mut_slice() {
                *v = 1e300;
            }
        }
        let engine = Engine::from_parts(
            net,
            vec![1.0],
            vec![-5.0],
            vec![5.0],
            EngineConfig::default(),
            None,
            Arc::new(NullSink),
        )
        .expect("engine starts");
        assert_eq!(
            engine.handle().submit(&[2.0, 2.0]).err(),
            Some(ServeError::NonFiniteOutput)
        );
    }

    #[test]
    fn shutdown_drains_queued_requests_on_every_shard() {
        let engine = engine_with(EngineConfig {
            start_paused: true,
            shards: 3,
            ..EngineConfig::default()
        });
        let h = engine.handle();
        let tickets: Vec<Ticket> = (0..12u32)
            .map(|i| {
                h.pinned(u64::from(i))
                    .try_submit(&[0.05 * f64::from(i), 0.1])
                    .expect("queued")
            })
            .collect();
        engine.shutdown();
        for t in tickets {
            assert!(t.wait().is_ok(), "queued work drains on shutdown");
        }
        assert_eq!(h.submit(&[0.0, 0.0]).err(), Some(ServeError::Shutdown));
    }

    #[test]
    fn promote_without_a_candidate_is_refused() {
        let engine = engine_with(EngineConfig::default());
        assert!(matches!(engine.promote(), Err(RolloutError::NoCandidate)));
        assert!(matches!(
            engine.rollback("operator"),
            Err(RolloutError::NoCandidate)
        ));
        assert_eq!(engine.model_epoch(), 1);
    }

    #[test]
    fn propose_rejects_incompatible_dimensions() {
        let engine = engine_with(EngineConfig::default());
        let wrong = MlpBuilder::new(3)
            .hidden(4, Activation::Tanh)
            .output(1, Activation::Identity)
            .seed(9)
            .build();
        let err = engine
            .propose_parts(
                wrong,
                vec![1.0],
                vec![-5.0],
                vec![5.0],
                &RolloutConfig::default(),
            )
            .expect_err("3-input candidate on a 2-input engine");
        assert!(matches!(err, RolloutError::Incompatible(_)), "{err}");
    }

    #[test]
    fn second_propose_requires_promote_or_rollback_first() {
        let engine = engine_with(EngineConfig::default());
        let candidate = || {
            MlpBuilder::new(2)
                .hidden(6, Activation::Tanh)
                .output(1, Activation::Identity)
                .seed(77)
                .build()
        };
        let cfg = RolloutConfig::default();
        let epoch = engine
            .propose_parts(candidate(), vec![2.0], vec![-5.0], vec![5.0], &cfg)
            .expect("first propose installs");
        assert_eq!(epoch, 2);
        let err = engine
            .propose_parts(candidate(), vec![2.0], vec![-5.0], vec![5.0], &cfg)
            .expect_err("second propose refused");
        assert!(matches!(err, RolloutError::CanaryInFlight), "{err}");
        assert_eq!(engine.rollback("operator").expect("rollback"), 3);
        let status = engine.rollout_status();
        assert!(!status.canary_active);
        assert_eq!(status.epoch, 3);
        let actions: Vec<RolloutAction> =
            engine.rollout_events().iter().map(|e| e.action).collect();
        assert_eq!(
            actions,
            vec![RolloutAction::Proposed, RolloutAction::RolledBack]
        );
    }
}
