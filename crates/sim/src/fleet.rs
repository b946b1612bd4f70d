//! Batch simulation: a work-stealing job fleet over a shared memo cache.
//!
//! The policy-invariance battery (E10), the semantic oracle of
//! `etpn-transform`, and the experiment sweeps all run *many* simulations
//! of the same few designs under varying policies, seeds and environments.
//! Two observations make that embarrassingly compressible:
//!
//! 1. the jobs are independent, so they spread over worker threads;
//! 2. data-path evaluation ([`crate::eval::Evaluator::step`]) is a pure
//!    function of `(design, environment, marking, register state, input
//!    cursors)` — the firing policy and its RNG only decide *which*
//!    transitions fire afterwards. Runs that pass through the same
//!    configuration (which seed sweeps over mostly-serial control nets do
//!    almost every step) can share one evaluation.
//!
//! [`Fleet::run_batch`] exploits both: jobs are striped over per-worker
//! deques (idle workers steal from the back of their neighbours'), and
//! every simulator is wired to one [`EvalCache`] — a lock-sharded,
//! bounded memo table from step configurations to [`StepValues`].
//! Results come back indexed by submission order, so the output is
//! deterministic regardless of how the jobs were scheduled or stolen.
//!
//! Cache keys are [`etpn_core::StableHasher`] digests; to make a 64-bit
//! collision harmless rather than silently corrupting, every entry also
//! stores an exact snapshot of its configuration and a hit is only
//! reported when the snapshot matches.

use crate::compiled::Backend;
use crate::engine::Simulator;
use crate::env::{Environment, InputCursors, ScriptedEnv};
use crate::error::SimError;
use crate::eval::{DpState, StepValues};
use crate::fault::FaultPlan;
use crate::policy::FiringPolicy;
use crate::retry::RetryPolicy;
use crate::trace::Trace;
use etpn_core::{Etpn, Marking, Value};
use etpn_cov::CovDb;
use etpn_obs as obs;
use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Number of independently locked cache shards (power of two).
const SHARDS: usize = 16;

/// Default total cache capacity in entries.
const DEFAULT_CAPACITY: usize = 1 << 16;

/// Default bounded retries for a panicked job.
const DEFAULT_RETRIES: u64 = 1;

/// Default cool-down before a quarantined cache shard is rebuilt empty
/// and re-admitted to service.
const DEFAULT_QUARANTINE_COOLDOWN: Duration = Duration::from_millis(250);

/// Lock a mutex, recovering the data if a previous holder panicked. Every
/// structure guarded this way in the fleet (work queues, result slots) is
/// only mutated by panic-free operations — a poisoned lock means a *job*
/// died elsewhere on that thread, not that the guarded data is torn — so
/// recovery is sound. The `EvalCache` shards, whose entries *could* be
/// mid-insertion when a panic strikes, are not recovered but quarantined
/// instead (see [`EvalCache`]).
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Render a caught panic payload as a message (best effort).
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One simulation request: a design, an environment and a run
/// configuration. Built builder-style, mirroring [`Simulator`].
#[derive(Clone)]
pub struct SimJob<'g, E: Environment = ScriptedEnv> {
    g: &'g Etpn,
    env: E,
    policy: FiringPolicy,
    max_steps: u64,
    init_all: Option<i64>,
    reg_inits: Vec<(String, i64)>,
    allow_unsafe: bool,
    faults: Option<FaultPlan>,
    wall_budget: Option<Duration>,
    strict: bool,
    coverage: bool,
    backend: Backend,
    record: Option<etpn_rec::RecordConfig>,
    design_fp: Option<u64>,
    trace: obs::TraceCtx,
}

impl<'g, E: Environment> SimJob<'g, E> {
    /// A job over `g` and `env` with the deterministic
    /// [`FiringPolicy::MaximalStep`] policy, a 10 000-step budget, and the
    /// compiled backend (the fleet default — jobs over one design share its
    /// compilation, and the differential battery holds the backends
    /// bit-identical; see [`SimJob::backend`] to opt out).
    pub fn new(g: &'g Etpn, env: E) -> Self {
        Self {
            g,
            env,
            policy: FiringPolicy::MaximalStep,
            max_steps: 10_000,
            init_all: None,
            reg_inits: Vec::new(),
            allow_unsafe: false,
            faults: None,
            wall_budget: None,
            strict: false,
            coverage: false,
            backend: Backend::Compiled,
            record: None,
            design_fp: None,
            trace: obs::TraceCtx::disabled(),
        }
    }

    /// The design this job runs.
    pub fn design(&self) -> &'g Etpn {
        self.g
    }

    /// Select the step engine (default [`Backend::Compiled`]). Use
    /// [`Backend::Interp`] for jobs that should share the fleet's
    /// evaluation memo cache instead of the compiled engine's persistent
    /// incremental values.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Select the firing policy (the seed lives inside the policy).
    pub fn with_policy(mut self, policy: FiringPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Set the step budget.
    pub fn max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Initialise every register to `value` before the run.
    pub fn init_registers(mut self, value: i64) -> Self {
        self.init_all = Some(value);
        self
    }

    /// Initialise the register vertex named `name` to `value`.
    pub fn init_register(mut self, name: &str, value: i64) -> Self {
        self.reg_inits.push((name.to_string(), value));
        self
    }

    /// Disable the runtime safeness check (Def. 3.2(2)).
    pub fn allow_unsafe(mut self) -> Self {
        self.allow_unsafe = true;
        self
    }

    /// Attach a request-scoped trace context ([`obs::TraceCtx`]). The
    /// fleet worker that eventually executes this job opens a `fleet.job`
    /// span as a child of the context's parent span, recorded into the
    /// *request's* span buffer — not the process-wide thread-local one —
    /// so a request's span tree survives the thread hop and reassembles
    /// at join.
    pub fn with_trace(mut self, ctx: obs::TraceCtx) -> Self {
        self.trace = ctx;
        self
    }

    /// Inject faults from `plan` (see [`crate::fault`]).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Stop with `Termination::Budget` after this much wall-clock time.
    pub fn wall_budget(mut self, budget: Duration) -> Self {
        self.wall_budget = Some(budget);
        self
    }

    /// Raise `SimError::InputExhausted` on dry input reads.
    pub fn strict_inputs(mut self) -> Self {
        self.strict = true;
        self
    }

    /// Collect functional coverage into the job's trace (see
    /// [`Simulator::with_coverage`]); the fleet merges per-job DBs into
    /// [`FleetBatch::coverage`] at join.
    pub fn with_coverage(mut self) -> Self {
        self.coverage = true;
        self
    }

    /// Flight-record the job (see [`Simulator::with_recorder`]): the
    /// trace carries an [`etpn_rec::Recording`] per job, so any fleet
    /// member — e.g. each fault of a campaign — can be replayed and
    /// bisected for divergence forensics afterwards.
    pub fn record(mut self, cfg: etpn_rec::RecordConfig) -> Self {
        self.record = Some(cfg);
        self
    }

    /// Supply the design's precomputed fingerprint so each job skips
    /// re-deriving it for its recording, coverage DB or cache key (see
    /// [`Simulator::with_design_fingerprint`]). Campaign drivers and
    /// etpnd's registry compute it once per design and stamp every job.
    pub fn design_fingerprint(mut self, fp: u64) -> Self {
        self.design_fp = Some(fp);
        self
    }

    /// Build the configured simulator, wired to `cache` when it runs on
    /// the interpreter — the only backend that reads the memo cache, so
    /// compiled jobs skip the handle's design and environment hashes.
    fn into_sim(self, cache: Option<&Arc<EvalCache>>) -> Simulator<'g, E> {
        let mut sim = Simulator::new(self.g, self.env)
            .with_backend(self.backend)
            .with_policy(self.policy);
        if let Some(fp) = self.design_fp {
            sim = sim.with_design_fingerprint(fp);
        }
        if let (Some(c), Backend::Interp) = (cache, self.backend) {
            sim = sim.with_cache(Arc::clone(c));
        }
        if let Some(v) = self.init_all {
            sim = sim.init_registers(v);
        }
        for (name, v) in &self.reg_inits {
            sim = sim.init_register(name, *v);
        }
        if self.allow_unsafe {
            sim = sim.allow_unsafe();
        }
        if let Some(plan) = self.faults {
            sim = sim.with_faults(plan);
        }
        if let Some(b) = self.wall_budget {
            sim = sim.with_wall_budget(b);
        }
        if self.strict {
            sim = sim.strict_inputs();
        }
        if self.coverage {
            sim = sim.with_coverage();
        }
        if let Some(cfg) = self.record {
            sim = sim.with_recorder(cfg);
        }
        sim
    }

    /// Execute this job on the calling thread, memoising through `cache`
    /// on the interpreter backend.
    pub fn run(self, cache: &Arc<EvalCache>) -> Result<Trace, SimError> {
        let max_steps = self.max_steps;
        self.into_sim(Some(cache)).run(max_steps)
    }

    /// Execute this job sequentially with no cache (reference path).
    pub fn run_uncached(self) -> Result<Trace, SimError> {
        let max_steps = self.max_steps;
        self.into_sim(None).run(max_steps)
    }
}

/// The full memo-cache key: stable hashes of every input the evaluator
/// reads. Equal keys *almost always* mean equal configurations; the stored
/// snapshot settles the rest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) struct StepKey {
    pub design: u64,
    pub env: u64,
    pub marking: u64,
    pub state: u64,
    pub cursors: u64,
}

impl StepKey {
    fn shard(&self) -> usize {
        (etpn_core::hash::stable_hash_words([
            self.design,
            self.env,
            self.marking,
            self.state,
            self.cursors,
        ]) as usize)
            % SHARDS
    }
}

/// The exact configuration snapshot a hit must match, plus the memoised
/// evaluation result.
struct CacheEntry {
    marking: Marking,
    state: Vec<Value>,
    cursors: Vec<u64>,
    vals: Arc<StepValues>,
}

#[derive(Default)]
struct Shard {
    map: HashMap<StepKey, CacheEntry>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<StepKey>,
}

/// A bounded, lock-sharded memo table from step configurations to
/// [`StepValues`], shared by every simulator of a fleet (and safely by
/// concurrent fleets over the same designs).
///
/// Shards are *quarantined* rather than recovered on poison: a panic while
/// a shard lock was held could in principle leave a half-updated entry, so
/// the first thread to observe the poison clears the shard and disables
/// it. A quarantined shard answers every lookup with a miss and drops
/// every insert — cached state from a panicked job can never be served.
///
/// Quarantine is not a life sentence: after the configured cool-down
/// (default 250 ms; see [`EvalCache::with_quarantine_cooldown`]) the
/// first probe rebuilds the shard *empty* and re-admits it to service,
/// so a long-lived process — the `etpnd` service in particular — regains
/// its full cache capacity instead of bleeding shards until restart.
/// Re-admissions are counted in [`CacheStats::readmitted`].
pub struct EvalCache {
    shards: Vec<Mutex<Shard>>,
    quarantined: Vec<AtomicBool>,
    /// Per-shard re-admission deadline, nanoseconds since `created`
    /// (meaningful only while the shard is quarantined; `u64::MAX` while
    /// permanently dead or mid-lift).
    lift_at: Vec<AtomicU64>,
    /// Cool-down before a quarantined shard is rebuilt; `None` keeps the
    /// pre-service behaviour (dead until the cache is dropped).
    cooldown: Option<Duration>,
    created: Instant,
    shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    quarantines: AtomicU64,
    readmissions: AtomicU64,
}

impl Default for EvalCache {
    fn default() -> Self {
        Self::new()
    }
}

impl EvalCache {
    /// A cache with the default capacity (65 536 entries).
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// A cache bounded to roughly `capacity` entries in total. Entries are
    /// evicted FIFO per shard once a shard fills.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            quarantined: (0..SHARDS).map(|_| AtomicBool::new(false)).collect(),
            lift_at: (0..SHARDS).map(|_| AtomicU64::new(u64::MAX)).collect(),
            cooldown: Some(DEFAULT_QUARANTINE_COOLDOWN),
            created: Instant::now(),
            shard_capacity: capacity.div_ceil(SHARDS).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            quarantines: AtomicU64::new(0),
            readmissions: AtomicU64::new(0),
        }
    }

    /// Set (or, with `None`, disable) the quarantine cool-down: how long
    /// a poisoned shard stays out of service before it is rebuilt empty
    /// and re-admitted.
    pub fn with_quarantine_cooldown(mut self, cooldown: Option<Duration>) -> Self {
        self.cooldown = cooldown;
        self
    }

    /// Nanoseconds since this cache was created (the clock the per-shard
    /// re-admission deadlines are expressed in).
    fn now_ns(&self) -> u64 {
        u64::try_from(self.created.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Clear and disable shard `i` after its lock was found poisoned (a
    /// holder panicked mid-mutation). With a cool-down configured the
    /// shard is scheduled for re-admission; otherwise it stays dead for
    /// the cache's life.
    fn quarantine(&self, i: usize, poisoned: PoisonError<MutexGuard<'_, Shard>>) {
        let mut shard = poisoned.into_inner();
        shard.map.clear();
        shard.order.clear();
        drop(shard);
        let deadline = match self.cooldown {
            Some(d) => self
                .now_ns()
                .saturating_add(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)),
            None => u64::MAX,
        };
        self.lift_at[i].store(deadline, Ordering::Release);
        if !self.quarantined[i].swap(true, Ordering::Release) {
            self.quarantines.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Whether shard `i` is currently out of service. A quarantined shard
    /// whose cool-down has elapsed is rebuilt empty, its lock's poison
    /// cleared, and re-admitted — exactly one probing thread performs the
    /// lift (the CAS on the deadline elects it); the shard counts as
    /// blocked until the lift completes.
    fn shard_blocked(&self, i: usize) -> bool {
        if !self.quarantined[i].load(Ordering::Acquire) {
            return false;
        }
        let deadline = self.lift_at[i].load(Ordering::Acquire);
        if deadline == u64::MAX || self.now_ns() < deadline {
            return true;
        }
        if self.lift_at[i]
            .compare_exchange(deadline, u64::MAX, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            // We won the lift. The quarantine flag still gates every
            // other thread, so nothing can touch the (possibly poisoned)
            // mutex while we rebuild it.
            let mut shard = lock_recover(&self.shards[i]);
            shard.map.clear();
            shard.order.clear();
            drop(shard);
            self.shards[i].clear_poison();
            self.readmissions.fetch_add(1, Ordering::Relaxed);
            self.quarantined[i].store(false, Ordering::Release);
            return false;
        }
        // Another thread is mid-lift; treat this probe as blocked.
        true
    }

    /// Look up a step configuration. Counts exactly one hit or one miss; a
    /// key collision whose snapshot mismatches is a miss, as is any probe
    /// of a quarantined shard.
    pub(crate) fn lookup(
        &self,
        key: &StepKey,
        marking: &Marking,
        state: &DpState,
        cursors: &InputCursors,
    ) -> Option<Arc<StepValues>> {
        let i = key.shard();
        let found = if self.shard_blocked(i) {
            None
        } else {
            match self.shards[i].lock() {
                Ok(shard) => shard.map.get(key).and_then(|e| {
                    let exact = e.marking == *marking
                        && e.state == state.values()
                        && e.cursors == cursors.positions();
                    exact.then(|| Arc::clone(&e.vals))
                }),
                Err(poisoned) => {
                    self.quarantine(i, poisoned);
                    None
                }
            }
        };
        match found {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Memoise an evaluation under its configuration snapshot. Silently
    /// dropped when the shard is quarantined.
    pub(crate) fn insert(
        &self,
        key: StepKey,
        marking: &Marking,
        state: &DpState,
        cursors: &InputCursors,
        vals: Arc<StepValues>,
    ) {
        self.insert_raw(
            key,
            marking.clone(),
            state.values().to_vec(),
            cursors.positions().to_vec(),
            vals,
        );
    }

    /// [`EvalCache::insert`] from owned snapshot parts — the common path
    /// for live insertion and journal restoration.
    fn insert_raw(
        &self,
        key: StepKey,
        marking: Marking,
        state: Vec<Value>,
        cursors: Vec<u64>,
        vals: Arc<StepValues>,
    ) {
        let i = key.shard();
        if self.shard_blocked(i) {
            return;
        }
        let mut shard = match self.shards[i].lock() {
            Ok(shard) => shard,
            Err(poisoned) => {
                self.quarantine(i, poisoned);
                return;
            }
        };
        while shard.map.len() >= self.shard_capacity {
            match shard.order.pop_front() {
                Some(old) => {
                    if shard.map.remove(&old).is_some() {
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                }
                None => break,
            }
        }
        let entry = CacheEntry {
            marking,
            state,
            cursors,
            vals,
        };
        if shard.map.insert(key, entry).is_none() {
            shard.order.push_back(key);
        }
    }

    /// A consistent snapshot of the counters. Quarantined (or
    /// not-yet-quarantined poisoned) shards report zero entries.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            quarantined: self.quarantines.load(Ordering::Relaxed),
            readmitted: self.readmissions.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    if self.quarantined[i].load(Ordering::Acquire) {
                        return 0;
                    }
                    s.lock().map_or(0, |sh| sh.map.len() as u64)
                })
                .sum(),
        }
    }

    /// Serialise every resident entry (quarantined shards excluded) into
    /// a flat byte image — the cache's journal-frame payload for the
    /// `etpnd` service's crash-safe persistence. The exact configuration
    /// snapshots travel with the keys, so a restored cache keeps the
    /// collision-proof hit check intact.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        type SnapshotRow = (StepKey, Marking, Vec<Value>, Vec<u64>, Arc<StepValues>);
        let mut entries: Vec<SnapshotRow> = Vec::new();
        for (i, shard) in self.shards.iter().enumerate() {
            if self.quarantined[i].load(Ordering::Acquire) {
                continue;
            }
            let Ok(shard) = shard.lock() else { continue };
            for (key, e) in &shard.map {
                entries.push((
                    *key,
                    e.marking.clone(),
                    e.state.clone(),
                    e.cursors.clone(),
                    Arc::clone(&e.vals),
                ));
            }
        }
        let mut buf = Vec::new();
        put_u64(&mut buf, entries.len() as u64);
        for (key, marking, state, cursors, vals) in &entries {
            for w in [key.design, key.env, key.marking, key.state, key.cursors] {
                put_u64(&mut buf, w);
            }
            put_u64(&mut buf, marking.counts().len() as u64);
            for &c in marking.counts() {
                buf.extend_from_slice(&c.to_le_bytes());
            }
            put_values(&mut buf, state);
            put_u64(&mut buf, cursors.len() as u64);
            for &c in cursors {
                put_u64(&mut buf, c);
            }
            put_values(&mut buf, &vals.port_values);
            put_u64(&mut buf, vals.open_arcs.capacity() as u64);
            put_u64(&mut buf, vals.open_arcs.words().len() as u64);
            for &w in vals.open_arcs.words() {
                put_u64(&mut buf, w);
            }
        }
        buf
    }

    /// Re-insert the entries of a [`EvalCache::snapshot_bytes`] image,
    /// returning how many were restored. A malformed or truncated image
    /// is an error, never a panic — the caller (journal recovery)
    /// decides whether to keep the valid prefix of an older frame
    /// instead.
    pub fn restore_bytes(&self, bytes: &[u8]) -> Result<u64, String> {
        let mut rd = Rd { b: bytes, pos: 0 };
        let n = rd.u64()?;
        for i in 0..n {
            let err = |what: &str| format!("cache snapshot entry {i}: {what}");
            let key = StepKey {
                design: rd.u64().map_err(|e| err(&e))?,
                env: rd.u64().map_err(|e| err(&e))?,
                marking: rd.u64().map_err(|e| err(&e))?,
                state: rd.u64().map_err(|e| err(&e))?,
                cursors: rd.u64().map_err(|e| err(&e))?,
            };
            let n_counts = rd.len()?;
            let mut counts = Vec::with_capacity(n_counts);
            for _ in 0..n_counts {
                counts.push(rd.u32().map_err(|e| err(&e))?);
            }
            let state = rd.values().map_err(|e| err(&e))?;
            let n_cursors = rd.len()?;
            let mut cursors = Vec::with_capacity(n_cursors);
            for _ in 0..n_cursors {
                cursors.push(rd.u64().map_err(|e| err(&e))?);
            }
            let port_values = rd.values().map_err(|e| err(&e))?;
            let cap = rd.len()?;
            let n_words = rd.len()?;
            let mut open_arcs = etpn_core::bitset::BitSet::new(cap);
            if n_words != open_arcs.words().len() {
                return Err(err("open-arc word count disagrees with capacity"));
            }
            let mut words = Vec::with_capacity(n_words);
            for _ in 0..n_words {
                words.push(rd.u64().map_err(|e| err(&e))?);
            }
            open_arcs.union_words(&words);
            self.insert_raw(
                key,
                Marking::from_counts(counts),
                state,
                cursors,
                Arc::new(StepValues {
                    port_values,
                    open_arcs,
                }),
            );
        }
        Ok(n)
    }
}

/// Append a little-endian `u64` to a byte image.
fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a length-prefixed [`Value`] vector (tag byte + payload each).
fn put_values(buf: &mut Vec<u8>, vals: &[Value]) {
    put_u64(buf, vals.len() as u64);
    for v in vals {
        match v {
            Value::Undef => buf.push(0),
            Value::Def(x) => {
                buf.push(1);
                buf.extend_from_slice(&x.to_le_bytes());
            }
        }
    }
}

/// A bounds-checked little-endian reader over a snapshot image.
struct Rd<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Rd<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.b.len())
            .ok_or_else(|| format!("truncated at byte {}", self.pos))?;
        let s = &self.b[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, String> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A `u64` length that must also be addressable in this image (each
    /// element is at least one byte), so a corrupt huge length fails
    /// here instead of in `Vec::with_capacity`.
    fn len(&mut self) -> Result<usize, String> {
        let n = self.u64()?;
        let n = usize::try_from(n).map_err(|_| "length overflows usize".to_string())?;
        if n > self.b.len() - self.pos.min(self.b.len()) {
            return Err(format!("length {n} exceeds remaining bytes"));
        }
        Ok(n)
    }

    fn values(&mut self) -> Result<Vec<Value>, String> {
        let n = self.len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(match self.u8()? {
                0 => Value::Undef,
                1 => Value::Def(self.i64()?),
                t => return Err(format!("bad value tag {t}")),
            });
        }
        Ok(out)
    }
}

/// Counter snapshot of an [`EvalCache`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache (snapshot-verified).
    pub hits: u64,
    /// Lookups that fell through to a fresh evaluation.
    pub misses: u64,
    /// Entries dropped to respect the capacity bound.
    pub evictions: u64,
    /// Shards disabled after a poisoned lock (cumulative trips).
    pub quarantined: u64,
    /// Quarantined shards rebuilt empty and re-admitted to service after
    /// their cool-down (cumulative lifts).
    pub readmitted: u64,
    /// Entries currently resident.
    pub entries: u64,
}

impl CacheStats {
    /// Total lookups (`hits + misses` by construction).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from the cache (0 when none were made).
    pub fn hit_rate(&self) -> f64 {
        let l = self.lookups();
        if l == 0 {
            0.0
        } else {
            self.hits as f64 / l as f64
        }
    }
}

/// Summary of one [`Fleet::run_batch`] call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FleetStats {
    /// Number of jobs executed.
    pub jobs: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Jobs executed by a worker other than the one they were striped to.
    pub stolen: u64,
    /// Panics contained by the per-job isolation boundary (every attempt
    /// of every job counts once).
    pub panics: u64,
    /// Retry attempts made for panicked jobs (cache bypassed).
    pub retried: u64,
    /// Cache counters accumulated over the batch (cumulative if the cache
    /// is shared across batches).
    pub cache: CacheStats,
}

impl FleetStats {
    /// Re-export this summary through the observability registry as
    /// gauges under `fleet.*`, so profile/stats dumps and downstream
    /// tooling see the same numbers `run_batch` returned.
    pub fn export(&self, reg: &obs::Registry) {
        reg.gauge("fleet.jobs").set(self.jobs as i64);
        reg.gauge("fleet.workers").set(self.workers as i64);
        reg.gauge("fleet.stolen").set(self.stolen as i64);
        reg.gauge("fleet.panics").set(self.panics as i64);
        reg.gauge("fleet.retried").set(self.retried as i64);
        reg.gauge("fleet.cache.quarantined")
            .set(self.cache.quarantined as i64);
        reg.gauge("fleet.cache.readmitted")
            .set(self.cache.readmitted as i64);
        reg.gauge("fleet.cache.hits").set(self.cache.hits as i64);
        reg.gauge("fleet.cache.misses")
            .set(self.cache.misses as i64);
        reg.gauge("fleet.cache.evictions")
            .set(self.cache.evictions as i64);
        reg.gauge("fleet.cache.entries")
            .set(self.cache.entries as i64);
    }
}

/// Everything a batch run returns: per-job outcomes in submission order
/// plus the run summary.
pub struct FleetBatch {
    /// `results[i]` is the outcome of the `i`-th submitted job, whatever
    /// order the workers actually ran them in.
    pub results: Vec<Result<Trace, SimError>>,
    /// Merged functional coverage over every successful job that carried a
    /// [`CovDb`] (jobs built [`SimJob::with_coverage`]). Counters sum and
    /// covered-sets union, so the merge is independent of worker count and
    /// scheduling: the same seed set yields a bit-identical DB under any
    /// `--jobs`. Jobs whose design fingerprint differs from the first
    /// covered job are skipped (a batch may legally mix designs).
    pub coverage: Option<CovDb>,
    /// Scheduling and cache counters for the batch.
    pub stats: FleetStats,
}

/// Configuration for [`Fleet::run_saturation`]: batch geometry and the
/// stopping rule.
#[derive(Clone, Copy, Debug)]
pub struct SaturationConfig {
    /// Seeds drawn per batch.
    pub batch_size: u64,
    /// Consecutive batches that must add *no* new coverage before the
    /// sweep is declared saturated.
    pub stable_batches: u32,
    /// Hard cap on batches, so a design whose coverage keeps trickling in
    /// cannot run unbounded.
    pub max_batches: u32,
}

impl Default for SaturationConfig {
    /// 8 seeds per batch, stop after 3 batches without new coverage,
    /// give up after 64 batches.
    fn default() -> Self {
        Self {
            batch_size: 8,
            stable_batches: 3,
            max_batches: 64,
        }
    }
}

/// What a coverage-saturation sweep found.
#[derive(Clone, Debug)]
pub struct SaturationOutcome {
    /// Coverage merged over every batch (`None` only if no job succeeded).
    pub coverage: Option<CovDb>,
    /// Batches executed.
    pub batches: u32,
    /// Jobs executed (batches × batch size).
    pub jobs: u64,
    /// Jobs that ended in an error.
    pub failures: u64,
    /// True when the sweep stopped because coverage went stable, false
    /// when it hit `max_batches` first.
    pub saturated: bool,
    /// Every seed drawn, in draw order (the reproducible seed set).
    pub seeds_used: Vec<u64>,
}

/// A reusable batch-simulation engine: a worker count and a shared
/// [`EvalCache`]. Batches run on scoped threads, so jobs may borrow their
/// designs from the caller's stack.
pub struct Fleet {
    workers: usize,
    cache: Arc<EvalCache>,
    retry: RetryPolicy,
    job_deadline: Option<Duration>,
    deadline_at: Option<Instant>,
}

impl Fleet {
    /// A fleet with `workers` threads (`0` means one per available CPU)
    /// and a fresh default-capacity cache.
    pub fn new(workers: usize) -> Self {
        Self::with_cache(workers, Arc::new(EvalCache::new()))
    }

    /// A fleet over an existing (possibly shared) cache.
    pub fn with_cache(workers: usize, cache: Arc<EvalCache>) -> Self {
        let workers = if workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            workers
        };
        Self {
            workers,
            cache,
            retry: RetryPolicy::immediate(DEFAULT_RETRIES),
            job_deadline: None,
            deadline_at: None,
        }
    }

    /// Bounded retries for panicked jobs (default 1), retried
    /// immediately. Retries re-run the identical job from scratch with
    /// the cache bypassed, so they are deterministic and cannot be fed
    /// state the failed attempt cached. A job that panics on every
    /// attempt resolves to [`SimError::Panicked`] instead of aborting
    /// the batch.
    pub fn with_retries(mut self, retries: u64) -> Self {
        self.retry = self.retry.with_max_retries(retries);
        self
    }

    /// The full retry policy — budget *and* backoff schedule (see
    /// [`RetryPolicy`]). The fleet default is
    /// [`RetryPolicy::immediate`]`(1)`; services that share a machine
    /// with their callers (e.g. `etpnd`) use a decorrelated-jitter
    /// policy so retry storms spread out.
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// A wall-clock deadline stamped onto every job of a batch that does
    /// not already carry its own [`SimJob::wall_budget`]: one stuck
    /// simulation then resolves to `Termination::Budget` instead of
    /// stalling the whole batch behind it. Note this is a **per-job**
    /// budget, each measured from its own start — a deep queue on few
    /// workers can therefore spend many multiples of it in total. When
    /// the batch as a whole must resolve by a point in time, use
    /// [`Fleet::with_deadline_at`].
    pub fn with_job_deadline(mut self, deadline: Duration) -> Self {
        self.job_deadline = Some(deadline);
        self
    }

    /// An **absolute** deadline for the whole batch: when each job
    /// starts, its [`SimJob::wall_budget`] is clamped to the time left
    /// until `at` (jobs starting after `at` terminate almost immediately
    /// with `Termination::Budget`). Unlike [`Fleet::with_job_deadline`],
    /// queueing time counts, so a deep queue cannot multiply the batch's
    /// wall time past the deadline.
    pub fn with_deadline_at(mut self, at: Instant) -> Self {
        self.deadline_at = Some(at);
        self
    }

    /// The shared evaluation cache (inspect via [`EvalCache::stats`]).
    pub fn cache(&self) -> &Arc<EvalCache> {
        &self.cache
    }

    /// Execute one job inside a panic-isolation boundary with bounded
    /// retries under `retry`'s deterministic backoff schedule (keyed by
    /// the job's submission index). The first attempt uses the shared
    /// cache; retries bypass it.
    fn run_isolated<'g, E: Environment + Clone>(
        job: &SimJob<'g, E>,
        token: u64,
        cache: &Arc<EvalCache>,
        retry: &RetryPolicy,
        panics: (&AtomicU64, &obs::Counter),
        retried: (&AtomicU64, &obs::Counter),
    ) -> Result<Trace, SimError> {
        let retries = retry.max_retries();
        let mut backoff = retry.schedule(token);
        let mut message = String::new();
        for attempt in 0..=retries {
            if attempt > 0 {
                if let Some(delay) = backoff.next() {
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                }
            }
            let j = job.clone();
            let run = panic::catch_unwind(AssertUnwindSafe(move || {
                if attempt == 0 {
                    j.run(cache)
                } else {
                    j.run_uncached()
                }
            }));
            match run {
                Ok(outcome) => return outcome,
                Err(payload) => {
                    panics.0.fetch_add(1, Ordering::Relaxed);
                    panics.1.inc();
                    message = panic_message(payload.as_ref());
                    if attempt < retries {
                        retried.0.fetch_add(1, Ordering::Relaxed);
                        retried.1.inc();
                    }
                }
            }
        }
        Err(SimError::Panicked { message, retries })
    }

    /// Run every job, returning results in submission order.
    ///
    /// Jobs are striped round-robin over per-worker deques; each worker
    /// drains its own deque from the front and steals from the *back* of
    /// the others when idle, so the batch balances itself even when job
    /// lengths are skewed.
    pub fn run_batch<'g, E: Environment + Clone + Send>(
        &self,
        jobs: Vec<SimJob<'g, E>>,
    ) -> FleetBatch {
        self.run_batch_with(jobs, |_, _| {})
    }

    /// [`Fleet::run_batch`] with a per-job post-processing hook, called on
    /// the worker thread as soon as that job's result exists — before the
    /// rest of the batch completes. The hook may harvest or strip
    /// per-job payloads (`idx` is the submission index), which bounds the
    /// batch's memory to what the hook leaves behind: fault-campaign
    /// forensics bisects and then drops each faulty flight recording
    /// here, holding at most one journal per worker instead of one per
    /// job. The hook runs outside the panic-isolation boundary, so it
    /// must not panic.
    pub fn run_batch_with<'g, E, F>(&self, jobs: Vec<SimJob<'g, E>>, post: F) -> FleetBatch
    where
        E: Environment + Clone + Send,
        F: Fn(usize, &mut Result<Trace, SimError>) + Sync,
    {
        type WorkQueue<'g, E> = Mutex<VecDeque<(usize, SimJob<'g, E>)>>;
        let _batch_span = obs::span_arg("fleet.batch", "jobs", jobs.len() as i64);
        let reg = obs::global();
        let jobs_done = reg.counter("fleet.jobs_done");
        let steals = reg.counter("fleet.steals");
        let panics_ctr = reg.counter("fleet.panics");
        let retried_ctr = reg.counter("fleet.retries");
        let n_jobs = jobs.len();
        let workers = self.workers.min(n_jobs).max(1);
        let queues: Vec<WorkQueue<'g, E>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        for (i, mut job) in jobs.into_iter().enumerate() {
            // Stamp the fleet-wide deadline on jobs without their own, so
            // a single pathological job cannot stall the batch.
            if job.wall_budget.is_none() {
                job.wall_budget = self.job_deadline;
            }
            lock_recover(&queues[i % workers]).push_back((i, job));
        }
        let slots: Vec<Mutex<Option<Result<Trace, SimError>>>> =
            (0..n_jobs).map(|_| Mutex::new(None)).collect();
        let stolen = AtomicU64::new(0);
        let panics = AtomicU64::new(0);
        let retried = AtomicU64::new(0);

        std::thread::scope(|scope| {
            for w in 0..workers {
                let queues = &queues;
                let slots = &slots;
                let stolen = &stolen;
                let panics = &panics;
                let retried = &retried;
                let cache = &self.cache;
                let retry = &self.retry;
                let deadline_at = self.deadline_at;
                let jobs_done = &jobs_done;
                let steals = &steals;
                let panics_ctr = &panics_ctr;
                let retried_ctr = &retried_ctr;
                let post = &post;
                scope.spawn(move || {
                    {
                        let _worker_span = obs::span_arg("fleet.worker", "worker", w as i64);
                        loop {
                            let mut next = lock_recover(&queues[w]).pop_front();
                            if next.is_none() {
                                for d in 1..workers {
                                    let victim = (w + d) % workers;
                                    next = lock_recover(&queues[victim]).pop_back();
                                    if next.is_some() {
                                        stolen.fetch_add(1, Ordering::Relaxed);
                                        steals.inc();
                                        break;
                                    }
                                }
                            }
                            match next {
                                Some((idx, mut job)) => {
                                    // The batch-wide absolute deadline binds
                                    // each job to the time actually left when
                                    // it *starts*, so queued jobs cannot each
                                    // spend a full budget of their own.
                                    if let Some(at) = deadline_at {
                                        let left = at
                                            .checked_duration_since(Instant::now())
                                            .unwrap_or(Duration::from_micros(1));
                                        job.wall_budget =
                                            Some(job.wall_budget.map_or(left, |b| b.min(left)));
                                    }
                                    let _job_span = obs::span_arg("fleet.job", "job", idx as i64);
                                    // The request-scoped twin of the span
                                    // above: lands in the owning request's
                                    // buffer, tagged with the job index.
                                    let _req_span =
                                        job.trace.span_arg("fleet.job", "job", idx as i64);
                                    let mut outcome = Self::run_isolated(
                                        &job,
                                        idx as u64,
                                        cache,
                                        retry,
                                        (panics, panics_ctr),
                                        (retried, retried_ctr),
                                    );
                                    post(idx, &mut outcome);
                                    *lock_recover(&slots[idx]) = Some(outcome);
                                    jobs_done.inc();
                                }
                                None => break,
                            }
                        }
                    }
                    // Flush explicitly: `thread::scope` unblocks when this
                    // closure returns, which is *before* thread-local
                    // destructors run, so relying on the TLS-drop flush
                    // would race the batch's readers.
                    obs::flush_thread();
                });
            }
        });

        let results: Vec<Result<Trace, SimError>> = slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .expect("every submitted job is executed exactly once")
            })
            .collect();
        let stats = FleetStats {
            jobs: n_jobs,
            workers,
            stolen: stolen.load(Ordering::Relaxed),
            panics: panics.load(Ordering::Relaxed),
            retried: retried.load(Ordering::Relaxed),
            cache: self.cache.stats(),
        };
        stats.export(reg);
        // Merge per-job coverage in submission order. Summation and set
        // union are associative and commutative, so the result is
        // independent of which worker ran which job.
        let mut coverage: Option<CovDb> = None;
        for trace in results.iter().flatten() {
            let Some(db) = &trace.cov else { continue };
            match &mut coverage {
                None => coverage = Some(db.clone()),
                Some(acc) => {
                    // A batch may mix designs; merge only matching ones.
                    let _ = acc.merge(db);
                }
            }
        }
        if let Some(db) = &coverage {
            db.export(reg);
        }
        FleetBatch {
            results,
            coverage,
            stats,
        }
    }

    /// Drive a design to **coverage saturation**: keep drawing seeds in
    /// batches of [`SaturationConfig::batch_size`], merging each batch's
    /// coverage, until [`SaturationConfig::stable_batches`] consecutive
    /// batches add no new coverage (the merged DB's
    /// [`CovDb::signature`] stops changing) or
    /// [`SaturationConfig::max_batches`] is hit.
    ///
    /// `make_job` maps a seed to a job; coverage collection is forced on
    /// regardless of how the job was built. Seeds are drawn sequentially
    /// from 0, so the sweep — and its merged coverage — is reproducible.
    pub fn run_saturation<'g, E, F>(
        &self,
        mut make_job: F,
        cfg: SaturationConfig,
    ) -> SaturationOutcome
    where
        E: Environment + Clone + Send,
        F: FnMut(u64) -> SimJob<'g, E>,
    {
        let mut merged: Option<CovDb> = None;
        let mut seeds_used = Vec::new();
        let mut failures = 0u64;
        let mut streak = 0u32;
        let mut batches = 0u32;
        let mut saturated = false;
        let mut next_seed = 0u64;
        while batches < cfg.max_batches {
            let seeds: Vec<u64> = (0..cfg.batch_size.max(1))
                .map(|_| {
                    let s = next_seed;
                    next_seed += 1;
                    s
                })
                .collect();
            let jobs: Vec<SimJob<'g, E>> = seeds
                .iter()
                .map(|&seed| make_job(seed).with_coverage())
                .collect();
            seeds_used.extend_from_slice(&seeds);
            let batch = self.run_batch(jobs);
            failures += batch.results.iter().filter(|r| r.is_err()).count() as u64;
            batches += 1;
            let before = merged.as_ref().map(CovDb::signature);
            match (&mut merged, batch.coverage) {
                (None, Some(db)) => merged = Some(db),
                (Some(acc), Some(db)) => {
                    let _ = acc.merge(&db);
                }
                (_, None) => {}
            }
            let after = merged.as_ref().map(CovDb::signature);
            if before == after && before.is_some() {
                streak += 1;
                if streak >= cfg.stable_batches {
                    saturated = true;
                    break;
                }
            } else {
                streak = 0;
            }
        }
        let reg = obs::global();
        reg.gauge("cov.saturation.batches").set(batches as i64);
        reg.gauge("cov.saturation.saturated")
            .set(i64::from(saturated));
        SaturationOutcome {
            coverage: merged,
            jobs: seeds_used.len() as u64,
            batches,
            failures,
            saturated,
            seeds_used,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etpn_core::{EtpnBuilder, Op};

    /// s0: load r := a + b;  s1: emit r to y;  then terminate.
    fn add_once() -> Etpn {
        let mut b = EtpnBuilder::new();
        let a = b.input("a");
        let c = b.input("b");
        let add = b.operator(Op::Add, 2, "add");
        let r = b.register("r");
        let out = b.output("y");
        let arc_a = b.connect(b.out_port(a, 0), b.in_port(add, 0));
        let arc_b = b.connect(b.out_port(c, 0), b.in_port(add, 1));
        let load = b.connect(b.out_port(add, 0), b.in_port(r, 0));
        let emit = b.connect(b.out_port(r, 0), b.in_port(out, 0));
        let s0 = b.place("s0");
        let s1 = b.place("s1");
        let s_end = b.place("end");
        b.control(s0, [arc_a, arc_b, load]);
        b.control(s1, [emit]);
        b.seq(s0, s1, "t0");
        b.seq(s1, s_end, "t1");
        let t2 = b.transition("t2");
        b.flow_st(s_end, t2);
        b.mark(s0);
        b.finish().unwrap()
    }

    fn env_ab(a: i64, b: i64) -> ScriptedEnv {
        ScriptedEnv::new()
            .with_stream("a", [a])
            .with_stream("b", [b])
    }

    #[test]
    fn batch_results_follow_submission_order() {
        let g = add_once();
        let jobs: Vec<SimJob> = (0..12)
            .map(|i| SimJob::new(&g, env_ab(i, 100)).max_steps(10))
            .collect();
        let fleet = Fleet::new(4);
        let batch = fleet.run_batch(jobs);
        assert_eq!(batch.stats.jobs, 12);
        for (i, r) in batch.results.iter().enumerate() {
            let t = r.as_ref().unwrap();
            assert_eq!(t.values_on_named_output(&g, "y"), vec![i as i64 + 100]);
        }
    }

    #[test]
    fn identical_jobs_share_evaluations() {
        let g = add_once();
        // Pinned to the interpreter: the memo cache is its sharing
        // mechanism (the compiled backend bypasses it).
        let jobs: Vec<SimJob> = (0..8)
            .map(|_| {
                SimJob::new(&g, env_ab(3, 4))
                    .backend(Backend::Interp)
                    .max_steps(10)
            })
            .collect();
        let fleet = Fleet::new(2);
        let batch = fleet.run_batch(jobs);
        let stats = batch.stats.cache;
        assert!(
            stats.hits > 0,
            "repeated identical runs must hit: {stats:?}"
        );
        assert_eq!(stats.lookups(), stats.hits + stats.misses);
        for r in &batch.results {
            assert_eq!(r.as_ref().unwrap().values_on_named_output(&g, "y"), vec![7]);
        }
    }

    #[test]
    fn cached_run_equals_uncached_run() {
        let g = add_once();
        let cache = Arc::new(EvalCache::new());
        // Warm the cache, then re-run and compare against the no-cache path
        // (interpreter jobs: the cache only serves that backend).
        let job = || SimJob::new(&g, env_ab(5, 6)).backend(Backend::Interp);
        job().run(&cache).unwrap();
        let warm = job().run(&cache).unwrap();
        let cold = job().run_uncached().unwrap();
        assert_eq!(format!("{warm:?}"), format!("{cold:?}"));
        assert!(cache.stats().hits > 0);
    }

    #[test]
    fn compiled_jobs_never_touch_the_cache() {
        let g = add_once();
        let cache = Arc::new(EvalCache::new());
        for backend in [Backend::Compiled, Backend::CompiledNoDirty] {
            for coverage in [false, true] {
                let mut job = SimJob::new(&g, env_ab(1, 2)).backend(backend);
                if coverage {
                    job = job.with_coverage();
                }
                let t = job.run(&cache).unwrap();
                assert_eq!(t.values_on_named_output(&g, "y"), vec![3]);
            }
        }
        let s = cache.stats();
        assert_eq!((s.entries, s.hits, s.misses), (0, 0, 0), "{s:?}");
    }

    #[test]
    fn coverage_is_keyed_by_the_design_fingerprint() {
        let g = add_once();
        let cache = Arc::new(EvalCache::new());
        for backend in [Backend::Interp, Backend::Compiled, Backend::CompiledNoDirty] {
            let t = SimJob::new(&g, env_ab(1, 2))
                .backend(backend)
                .with_coverage()
                .run(&cache)
                .unwrap();
            let cov = t.cov.expect("coverage requested");
            assert_eq!(cov.fingerprint, g.fingerprint(), "{backend:?}");
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let g = add_once();
        let fleet = Fleet::new(3);
        let batch = fleet.run_batch(Vec::<SimJob>::new());
        assert!(batch.results.is_empty());
        let _ = &g;
    }

    #[test]
    fn eviction_respects_capacity_bound() {
        let g = add_once();
        let cache = Arc::new(EvalCache::with_capacity(SHARDS)); // 1 entry per shard
        for i in 0..50 {
            SimJob::new(&g, env_ab(i, i))
                .backend(Backend::Interp)
                .run(&cache)
                .unwrap();
        }
        let stats = cache.stats();
        assert!(stats.entries <= SHARDS as u64 * 2);
        assert!(stats.evictions > 0, "tiny cache must evict: {stats:?}");
        assert_eq!(stats.lookups(), stats.hits + stats.misses);
    }

    /// Adversarial `BitSet` patterns: shifted, rotated, prefix-sharing and
    /// padding-only-different markings must all hash to distinct keys. The
    /// probes target classic weak-hash failure modes — XOR-cancelling bit
    /// pairs, equal popcount, trailing empty words.
    #[test]
    fn adversarial_bitset_patterns_hash_distinctly() {
        use etpn_core::bitset::BitSet;
        let patterns: Vec<Vec<usize>> = vec![
            vec![],
            vec![0],
            vec![1],
            vec![63],
            vec![64],
            vec![0, 63],
            vec![0, 64],
            vec![63, 64],
            vec![0, 1],
            vec![1, 2],
            vec![0, 65],
            vec![1, 64], // same popcount, shifted pair
            vec![0, 1, 2, 3],
            vec![4, 5, 6, 7],    // same popcount, disjoint run
            (0..64).collect(),   // full first word
            (64..128).collect(), // full second word
            (0..128).collect(),
        ];
        let mut seen = std::collections::HashMap::new();
        for (i, pat) in patterns.iter().enumerate() {
            let mut s = BitSet::new(128);
            for &b in pat {
                s.insert(b);
            }
            if let Some(j) = seen.insert(s.stable_hash64(), i) {
                panic!(
                    "patterns {j:?} and {i:?} collide: {:?} vs {pat:?}",
                    patterns[j]
                );
            }
        }
    }

    /// A forced 64-bit key collision (same [`StepKey`], different marking)
    /// must be answered as a miss: the snapshot check keeps the fast path
    /// exact, never returning another configuration's values.
    #[test]
    fn forced_key_collision_is_a_miss_not_a_wrong_hit() {
        use etpn_core::bitset::BitSet;
        let g = add_once();
        let state = DpState::new(&g);
        let cursors = InputCursors::new(&g);
        let m1 = Marking::initial(&g.ctl);
        let mut m2 = Marking::empty(&g.ctl);
        // A different configuration: move the token one place over.
        m2.add(g.ctl.places().ids().nth(1).unwrap());
        assert_ne!(m1, m2);

        let key = StepKey {
            design: 1,
            env: 2,
            marking: 3, // deliberately NOT m1/m2's real hash: a forced collision
            state: 4,
            cursors: 5,
        };
        let vals = Arc::new(StepValues {
            port_values: vec![Value::Undef; g.dp.ports().len()],
            open_arcs: BitSet::new(g.dp.arcs().len()),
        });
        let cache = EvalCache::new();
        cache.insert(key, &m1, &state, &cursors, Arc::clone(&vals));

        // Same key, matching snapshot: hit.
        assert!(cache.lookup(&key, &m1, &state, &cursors).is_some());
        // Same key, different marking: the collision must read as a miss.
        assert!(cache.lookup(&key, &m2, &state, &cursors).is_none());
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.lookups(), stats.hits + stats.misses);
    }

    /// Distinct markings of one design reach distinct cache entries on the
    /// real (hashed) fast path: walking the add-once net through its three
    /// markings yields three different `stable_hash64` values.
    #[test]
    fn distinct_markings_reach_distinct_entries() {
        let g = add_once();
        let mut hashes = std::collections::HashSet::new();
        let mut m = Marking::initial(&g.ctl);
        hashes.insert(m.stable_hash64());
        for t in [0u32, 1] {
            let enabled = m.enabled_transitions(&g.ctl);
            assert!(!enabled.is_empty(), "step {t}: net stalled");
            m.fire(&g.ctl, enabled[0]);
            hashes.insert(m.stable_hash64());
        }
        assert_eq!(hashes.len(), 3, "three markings, three distinct hashes");
    }

    /// An environment that either answers from a script or detonates,
    /// letting a batch mix healthy and panicking jobs under one type.
    #[derive(Clone)]
    enum TestEnv {
        Healthy(ScriptedEnv),
        Bomb,
    }

    impl Environment for TestEnv {
        fn value_at(&self, input: etpn_core::VertexId, name: &str, k: u64) -> Value {
            match self {
                TestEnv::Healthy(e) => e.value_at(input, name, k),
                TestEnv::Bomb => panic!("injected eval panic"),
            }
        }

        fn fingerprint(&self) -> Option<u64> {
            match self {
                TestEnv::Healthy(e) => e.fingerprint(),
                TestEnv::Bomb => None,
            }
        }
    }

    #[test]
    fn panics_are_contained_per_job() {
        let g = add_once();
        let jobs = vec![
            SimJob::new(&g, TestEnv::Healthy(env_ab(1, 2))).max_steps(10),
            SimJob::new(&g, TestEnv::Bomb).max_steps(10),
            SimJob::new(&g, TestEnv::Healthy(env_ab(3, 4))).max_steps(10),
        ];
        let batch = Fleet::new(2).run_batch(jobs);
        assert_eq!(
            batch.results[0]
                .as_ref()
                .unwrap()
                .values_on_named_output(&g, "y"),
            vec![3]
        );
        match &batch.results[1] {
            Err(SimError::Panicked { message, retries }) => {
                assert!(message.contains("injected eval panic"), "{message}");
                assert_eq!(*retries, DEFAULT_RETRIES);
            }
            other => panic!("expected contained panic, got {other:?}"),
        }
        assert_eq!(
            batch.results[2]
                .as_ref()
                .unwrap()
                .values_on_named_output(&g, "y"),
            vec![7]
        );
        // Initial attempt + DEFAULT_RETRIES retries, all panicking.
        assert_eq!(batch.stats.panics, DEFAULT_RETRIES + 1);
        assert_eq!(batch.stats.retried, DEFAULT_RETRIES);
    }

    #[test]
    fn retry_budget_is_bounded_and_counted() {
        let g = add_once();
        let jobs = vec![SimJob::new(&g, TestEnv::Bomb).max_steps(10)];
        let batch = Fleet::new(1).with_retries(3).run_batch(jobs);
        assert!(matches!(
            batch.results[0],
            Err(SimError::Panicked { retries: 3, .. })
        ));
        assert_eq!(batch.stats.panics, 4, "1 attempt + 3 retries");
        assert_eq!(batch.stats.retried, 3);
    }

    #[test]
    fn zero_retries_still_contains_the_panic() {
        let g = add_once();
        let jobs = vec![SimJob::new(&g, TestEnv::Bomb).max_steps(10)];
        let batch = Fleet::new(1).with_retries(0).run_batch(jobs);
        assert!(matches!(
            batch.results[0],
            Err(SimError::Panicked { retries: 0, .. })
        ));
        assert_eq!(batch.stats.panics, 1);
        assert_eq!(batch.stats.retried, 0);
    }

    /// A shard whose lock was poisoned by a panicking holder is cleared
    /// and disabled: lookups miss, inserts are dropped, the rest of the
    /// cache keeps working, and nothing ever panics again.
    #[test]
    fn poisoned_shard_is_quarantined_not_fatal() {
        let g = add_once();
        let state = DpState::new(&g);
        let cursors = InputCursors::new(&g);
        let m = Marking::initial(&g.ctl);
        let key = StepKey {
            design: 1,
            env: 2,
            marking: 3,
            state: 4,
            cursors: 5,
        };
        let vals = Arc::new(StepValues {
            port_values: vec![Value::Undef; g.dp.ports().len()],
            open_arcs: etpn_core::bitset::BitSet::new(g.dp.arcs().len()),
        });
        let cache = EvalCache::new();
        cache.insert(key, &m, &state, &cursors, Arc::clone(&vals));
        assert!(cache.lookup(&key, &m, &state, &cursors).is_some());

        // Poison the entry's shard by panicking while holding its lock.
        let i = key.shard();
        let poison = panic::catch_unwind(AssertUnwindSafe(|| {
            let _guard = cache.shards[i].lock().unwrap();
            panic!("poison the shard");
        }));
        assert!(poison.is_err());

        // First probe observes the poison, quarantines, and misses.
        assert!(cache.lookup(&key, &m, &state, &cursors).is_none());
        let stats = cache.stats();
        assert_eq!(stats.quarantined, 1);
        assert_eq!(stats.entries, 0, "quarantined shard was cleared");
        // Inserts into the quarantined shard are dropped silently.
        cache.insert(key, &m, &state, &cursors, Arc::clone(&vals));
        assert!(cache.lookup(&key, &m, &state, &cursors).is_none());
        // Other shards still work: a key targeting a different shard.
        let other = (0..100u64)
            .map(|d| StepKey {
                design: d,
                env: 2,
                marking: 3,
                state: 4,
                cursors: 5,
            })
            .find(|k| k.shard() != i)
            .expect("some key lands elsewhere");
        cache.insert(other, &m, &state, &cursors, Arc::clone(&vals));
        assert!(cache.lookup(&other, &m, &state, &cursors).is_some());
        assert_eq!(cache.stats().quarantined, 1, "counted once");
    }

    /// After the cool-down, a quarantined shard is rebuilt empty and
    /// re-admitted: inserts and lookups work again, and the re-admission
    /// is counted.
    #[test]
    fn quarantined_shard_is_readmitted_after_cooldown() {
        let g = add_once();
        let state = DpState::new(&g);
        let cursors = InputCursors::new(&g);
        let m = Marking::initial(&g.ctl);
        let key = StepKey {
            design: 11,
            env: 2,
            marking: 3,
            state: 4,
            cursors: 5,
        };
        let vals = Arc::new(StepValues {
            port_values: vec![Value::Undef; g.dp.ports().len()],
            open_arcs: etpn_core::bitset::BitSet::new(g.dp.arcs().len()),
        });
        let cache =
            EvalCache::with_capacity(64).with_quarantine_cooldown(Some(Duration::from_millis(10)));
        let i = key.shard();
        let poison = panic::catch_unwind(AssertUnwindSafe(|| {
            let _guard = cache.shards[i].lock().unwrap();
            panic!("poison the shard");
        }));
        assert!(poison.is_err());
        // Inside the cool-down: quarantined, miss, dropped insert.
        assert!(cache.lookup(&key, &m, &state, &cursors).is_none());
        assert_eq!(cache.stats().quarantined, 1);
        assert_eq!(cache.stats().readmitted, 0);
        std::thread::sleep(Duration::from_millis(20));
        // First probe after the cool-down lifts the quarantine (an empty
        // rebuild: the probe itself still misses)…
        assert!(cache.lookup(&key, &m, &state, &cursors).is_none());
        let stats = cache.stats();
        assert_eq!(stats.readmitted, 1, "{stats:?}");
        // …and the shard serves traffic again.
        cache.insert(key, &m, &state, &cursors, Arc::clone(&vals));
        assert!(cache.lookup(&key, &m, &state, &cursors).is_some());
        assert_eq!(cache.stats().quarantined, 1, "trip count is cumulative");
    }

    /// `None` cool-down preserves the pre-service behaviour: dead for
    /// the cache's life.
    #[test]
    fn quarantine_without_cooldown_is_permanent() {
        let g = add_once();
        let state = DpState::new(&g);
        let cursors = InputCursors::new(&g);
        let m = Marking::initial(&g.ctl);
        let key = StepKey {
            design: 1,
            env: 2,
            marking: 3,
            state: 4,
            cursors: 5,
        };
        let cache = EvalCache::with_capacity(64).with_quarantine_cooldown(None);
        let i = key.shard();
        let _ = panic::catch_unwind(AssertUnwindSafe(|| {
            let _guard = cache.shards[i].lock().unwrap();
            panic!("poison");
        }));
        assert!(cache.lookup(&key, &m, &state, &cursors).is_none());
        std::thread::sleep(Duration::from_millis(5));
        assert!(cache.lookup(&key, &m, &state, &cursors).is_none());
        assert_eq!(cache.stats().readmitted, 0);
    }

    /// Snapshot → restore round-trips resident entries: a fresh cache
    /// restored from the image serves the same hits.
    #[test]
    fn snapshot_restore_round_trips() {
        let g = add_once();
        let cache = Arc::new(EvalCache::new());
        for i in 0..6 {
            SimJob::new(&g, env_ab(i, i + 1))
                .backend(Backend::Interp)
                .run(&cache)
                .unwrap();
        }
        let entries_before = cache.stats().entries;
        assert!(entries_before > 0);
        let image = cache.snapshot_bytes();

        let restored = Arc::new(EvalCache::new());
        let n = restored.restore_bytes(&image).unwrap();
        assert_eq!(n, entries_before, "every resident entry travels");
        assert_eq!(restored.stats().entries, entries_before);
        // A warm run against the restored cache hits immediately.
        SimJob::new(&g, env_ab(0, 1))
            .backend(Backend::Interp)
            .run(&restored)
            .unwrap();
        assert!(restored.stats().hits > 0, "{:?}", restored.stats());
    }

    /// A truncated snapshot image is an error at every cut point, never
    /// a panic, and restores nothing it cannot prove complete.
    #[test]
    fn truncated_snapshot_is_an_error_not_a_panic() {
        let g = add_once();
        let cache = Arc::new(EvalCache::new());
        SimJob::new(&g, env_ab(1, 2))
            .backend(Backend::Interp)
            .run(&cache)
            .unwrap();
        let image = cache.snapshot_bytes();
        for cut in 0..image.len() {
            let fresh = EvalCache::new();
            let _ = fresh.restore_bytes(&image[..cut]);
        }
    }

    /// The fleet-wide job deadline lands on jobs without their own
    /// budget: a spinning job resolves to `Termination::Budget` instead
    /// of hanging the batch.
    #[test]
    fn fleet_deadline_bounds_stuck_jobs() {
        use crate::trace::Termination;
        // x=1, y=0: `while (x != y) x = x - y` never terminates.
        let mut b = EtpnBuilder::new();
        let one = b.constant(1, "one");
        let r = b.register("r");
        let keep = b.connect(b.out_port(one, 0), b.in_port(r, 0));
        let s0 = b.place("s0");
        let s1 = b.place("s1");
        b.control(s0, [keep]);
        b.control(s1, [keep]);
        b.seq(s0, s1, "t0");
        b.seq(s1, s0, "t1");
        b.mark(s0);
        let spin = b.finish().unwrap();
        let jobs = vec![SimJob::new(&spin, ScriptedEnv::new()).max_steps(u64::MAX)];
        let fleet = Fleet::new(1).with_job_deadline(Duration::from_millis(20));
        let batch = fleet.run_batch(jobs);
        let trace = batch.results[0].as_ref().unwrap();
        assert_eq!(trace.termination, Termination::Budget);
    }

    /// `with_deadline_at` is a batch-wide *absolute* deadline: eight
    /// unbounded spinners queued on one worker all resolve within roughly
    /// one deadline, not eight per-job budgets back to back.
    #[test]
    fn batch_deadline_is_absolute_not_per_job() {
        use crate::trace::Termination;
        let mut b = EtpnBuilder::new();
        let one = b.constant(1, "one");
        let r = b.register("r");
        let keep = b.connect(b.out_port(one, 0), b.in_port(r, 0));
        let s0 = b.place("s0");
        let s1 = b.place("s1");
        b.control(s0, [keep]);
        b.control(s1, [keep]);
        b.seq(s0, s1, "t0");
        b.seq(s1, s0, "t1");
        b.mark(s0);
        let spin = b.finish().unwrap();
        let jobs: Vec<_> = (0..8)
            .map(|_| SimJob::new(&spin, ScriptedEnv::new()).max_steps(u64::MAX))
            .collect();
        let deadline = Duration::from_millis(150);
        let fleet = Fleet::new(1).with_deadline_at(Instant::now() + deadline);
        let started = Instant::now();
        let batch = fleet.run_batch(jobs);
        // Per-job semantics would take ≥ 8 × 150 ms = 1.2 s; leave slack
        // for scheduling noise but stay far under that.
        assert!(
            started.elapsed() < Duration::from_millis(700),
            "batch overran its absolute deadline: {:?}",
            started.elapsed()
        );
        for r in &batch.results {
            assert_eq!(r.as_ref().unwrap().termination, Termination::Budget);
        }
    }

    #[test]
    fn job_errors_are_reported_per_job() {
        // An unsafe merge: two tokens into one place.
        let mut b = EtpnBuilder::new();
        let s0 = b.place("s0");
        let s1 = b.place("s1");
        let s2 = b.place("s2");
        let t0 = b.transition("t0");
        b.flow_st(s0, t0);
        b.flow_ts(t0, s2);
        let t1 = b.transition("t1");
        b.flow_st(s1, t1);
        b.flow_ts(t1, s2);
        b.mark(s0);
        b.mark(s1);
        let bad = b.finish().unwrap();
        let good = add_once();
        let jobs = vec![
            SimJob::new(&good, env_ab(1, 2)).max_steps(10),
            SimJob::new(&bad, ScriptedEnv::new()).max_steps(10),
        ];
        let batch = Fleet::new(2).run_batch(jobs);
        assert!(batch.results[0].is_ok());
        assert!(matches!(
            batch.results[1],
            Err(SimError::UnsafeMarking { .. })
        ));
    }
}
