//! The threaded, sharded deployment runtime — **overlapped epochs**.
//!
//! [`System`](crate::System) is the deterministic *epoch-at-a-time*
//! harness: one thread walks clients → proxies → aggregator in
//! sequence, so every BENCH number it produces is per-core.
//! [`ShardedSystem`] is the same deployment run the way the paper
//! runs it (§5): **N proxy relay threads** and **M aggregator
//! shards** over *partitioned* broker topics, fed by a pool of client
//! worker threads — and, since the pipelined runtime, the stages run
//! **continuously and concurrently** instead of lock-stepping behind
//! per-epoch barriers.
//!
//! # Topology and partition affinity
//!
//! ```text
//! worker threads ──send_to(partition π(c))──► proxy-i-in[π(c)]   (i = 0..n)
//! proxy thread i ──partition-preserving─────► proxy-i-out[π(c)]   (free-running)
//! shard thread s (owns {p : p % M == s}) ───► join ⟂ decode ⟂ window (free-running)
//! main ──Close(epoch) → merge counts────────► finalize → QueryResult
//! ```
//!
//! Every client `c` is pinned to partition `π(c) = c mod P`; all `n`
//! of its XOR shares travel in partition `π(c)` of their respective
//! proxy topics (proxies forward partition-preserving), and the
//! broker's consumer-group assignment hands partition `π(c)` of
//! *every* proxy-out topic to the same shard — so each MID's shares
//! join **shard-locally**, with no cross-shard traffic before the
//! window merge.
//!
//! # The overlapped pipeline
//!
//! The pre-pipelined runtime ran a global three-phase barrier per
//! epoch (all workers answer → all proxies drain → all shards drain),
//! so the epoch's critical path *summed* the stage maxima. Now:
//!
//! * **proxy threads free-run**: they forward whatever arrives,
//!   whenever it arrives, with no per-epoch commands at all — a relay
//!   has no epoch state to synchronize;
//! * **shard threads free-run**: they continuously join/decode/window
//!   records, counting completed decodes **per epoch tag** (the
//!   answer timestamp, which identifies its epoch); an epoch is
//!   closed by a `Close{epoch, expect, watermark}` control message,
//!   which the shard satisfies as soon as its in-flight accounting
//!   shows all `expect` answers tagged with that epoch have been
//!   decoded — records of *later* epochs may already be flowing
//!   through the same shard and are simply accounted under their own
//!   tags;
//! * **the main thread pipelines epochs**: [`ShardedSystem::submit_epoch`]
//!   dispatches epoch `k+1` to the workers without waiting for epoch
//!   `k` to drain, up to the configured
//!   [pipeline depth](ShardedSystemBuilder::pipeline_depth); worker
//!   replies, shard closes and the cross-shard merge happen when the
//!   epoch *completes* (lazily, oldest first).
//!
//! Per-partition **backpressure** (see
//! [`ShardedSystemBuilder::partition_capacity`]) bounds how far a
//! fast stage can run ahead of a slow one in records, on top of the
//! epoch-granular bound the pipeline depth provides — epoch `k+1`'s
//! workers park in the broker instead of flooding a shard still
//! draining epoch `k`.
//!
//! Why the epoch tag is sufficient: within one partition the broker
//! is FIFO **per producer**, but epoch `k+1` shares from one worker
//! may overtake epoch `k` shares from another, so a simple cumulative
//! message count cannot tell a shard when epoch `k` is fully drained.
//! The timestamp does: every answer of an epoch carries that epoch's
//! event timestamp, the timestamps are strictly increasing across
//! submitted epochs, and the per-tag counters are exact regardless of
//! interleaving. Closing epochs in submission order then guarantees
//! every window the watermark sweeps is complete: sliding windows
//! only ever close once every epoch overlapping them has been
//! accounted (earlier epochs closed earlier, later epochs only live
//! in windows ending after this watermark).
//!
//! # Determinism and equivalence
//!
//! `ShardedSystem` produces **byte-identical** `QueryResult`s to
//! `System` for the same configuration, seed for seed, at any shard
//! count *and any pipeline depth*. Four properties compose into that
//! guarantee:
//!
//! 1. every client's answer is a pure function of its own RNG stream
//!    ([`Randomizer::randomize_vec_forked`](privapprox_rr::randomize::Randomizer::randomize_vec_forked)
//!    re-forks the bulk generator per call), so processing order,
//!    scratch sharing and epoch overlap are irrelevant;
//! 2. window accumulation is commutative counting, so the partition
//!    of answers across shards — and the interleaving of epochs
//!    within a shard — is irrelevant;
//! 3. watermarks advance in epoch order and only after the epoch's
//!    in-flight accounting settles, so every closed window saw
//!    exactly the answers the single-threaded run folds; and
//! 4. estimation ([`finalize_window_into`]) is a pure function of the
//!    merged counts, so summing shard-local counts and finalizing
//!    once equals finalizing a single aggregator's counts.
//!
//! The equivalence is pinned by `tests/sharded_equivalence.rs` across
//! seeds × bucket widths × proxies × shards × **pipeline depths**,
//! including a straggler-shard stress where one shard is artificially
//! delayed while the workers run epochs ahead.
//!
//! # Steady-state allocation
//!
//! Each shard keeps the single-aggregator guarantees: decode scratch,
//! pooled estimators, recycled result shells, allocation-free broker
//! polls. The per-epoch in-flight accounting is a bounded scan list
//! (one entry per epoch concurrently in flight), so the overlapped
//! steady state performs no per-message heap allocation either
//! (extended proof in `crates/core/tests/alloc_steady_state.rs`).
//! Per-epoch *control* traffic (channel messages, reply vectors) is
//! deliberately outside that budget — it is O(threads) per epoch,
//! not O(messages).
//!
//! # Failure model (supervised runtime)
//!
//! Every deployment thread runs under a supervisor: panics are caught
//! ([`std::panic::catch_unwind`]), recorded in a crash log, surfaced
//! as typed [`DeployError`]s from the epoch API (never hangs), and —
//! by default — the dead thread is **respawned**:
//!
//! * a **worker** respawns with the same index, hence the same client
//!   ids and RNG seeds, and replays the command history — loads for
//!   real, past answers muted — so its clients' tables are rebuilt
//!   and their RNG streams resume byte-identically where the dead
//!   worker's stopped;
//! * a **shard** respawns by rejoining the `"aggregator"` consumer
//!   group — committed offsets persist across membership changes, so
//!   the replacement resumes exactly where the dead shard stopped
//!   (no replay, no loss beyond what died in its windows) — and is
//!   pre-registered with every live query;
//! * a **proxy** respawns onto its own single-member group, resuming
//!   from the committed offset.
//!
//! Epoch closes carry a **deadline**
//! ([`ShardedSystemBuilder::epoch_deadline`]): a close that cannot
//! account for all expected answers in time fires anyway with the
//! decodes at hand — a *partial close*. The estimate stays unbiased
//! because [`finalize_window_into`] scales by `U/n` with `n` the
//! answers actually observed: losing answers degrades the deployment
//! to a smaller effective sampling fraction with a correspondingly
//! wider confidence interval (degrade-to-sampling), never a biased
//! number. Partial closes and lost answers are counted in
//! [`DeployHealth`].
//!
//! Epoch-completion accounting is **global**, not per shard: every
//! decode bumps a shared epoch ledger keyed by epoch tag, and a
//! close is satisfied when the ledger reaches the epoch's total
//! expectation. This keeps closes correct across respawns, where the
//! consumer group's partition → shard assignment reshuffles.
//!
//! Poisoned input (malformed keys, undecodable or unroutable
//! payloads) is quarantined to a dead-letter topic (see
//! [`Aggregator::set_dead_letter`]) and counted, and every thread
//! carries a [`Heartbeat`] surfaced through
//! [`ShardedSystem::thread_health`].

use crate::aggregator::{finalize_window_into, Aggregator, QueryResult, RawWindow};
use crate::client::{Client, ClientScratch};
use crate::error::{CoreError, DeployError};
use crate::feedback::FeedbackController;
use crate::historical::Warehouse;
use crate::initializer::Initializer;
use crate::persist::{
    self, persist_err, CloseRecord, DurableState, OpenEpoch, RecoveredState, SnapshotContents,
};
use crate::proxy::{inbound_topic, outbound_topic, Proxy};
use crate::remote::{self, NodeChild};
use privapprox_store::wal::DEFAULT_SEGMENT_BYTES;
use privapprox_cluster::wire::{decode_data_batch, decode_progress, DataMsg};
use privapprox_cluster::{
    DeploymentShape, FaultPlan, Frame, FrameKind, Heartbeat, HeartbeatStatus, LinkStats,
    SupervisedLink, Wake, Watchdog,
};
use privapprox_rr::estimate::BucketEstimator;
use privapprox_rr::privacy::epsilon_zk;
use privapprox_sql::{ColumnType, Schema, Value};
use privapprox_crypto::xor::SlotPool;
use privapprox_stream::broker::{BatchEntry, Broker, BrokerStats, Consumer, Record, TopicWriter};
use privapprox_types::ids::AnalystId;
use privapprox_types::{
    AnswerSpec, BitVec, Budget, BudgetLedger, ClientId, ExecutionParams, MessageId, PrivacyBudget,
    ProxyId, Query, QueryBuilder, QueryId, Timestamp, Window,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default epoch deadline: how long a shard waits for an epoch's
/// expected in-flight records before closing partially with what it
/// has — a liveness backstop under correct operation, the
/// degrade-to-sampling trigger under faults. Configurable via
/// [`ShardedSystemBuilder::epoch_deadline`].
const DEFAULT_EPOCH_DEADLINE: Duration = Duration::from_secs(60);

/// Topic poisoned records are quarantined to (drop-oldest bounded at
/// [`DEAD_LETTER_CAP`]; same partition count as the data topics).
pub(crate) const DEAD_LETTER_TOPIC: &str = "dead-letter";

/// Dead-letter quarantine capacity per partition. A poisoned-input
/// storm evicts the *oldest* quarantined records rather than growing
/// without bound; evictions are surfaced as
/// [`DeployHealth::dead_letter_dropped`].
pub(crate) const DEAD_LETTER_CAP: usize = 4_096;

/// How often an idle worker wakes from its command wait to beat its
/// heartbeat.
const WORKER_IDLE_BEAT: Duration = Duration::from_millis(250);

/// Records a worker accumulates per (proxy topic, partition) before
/// flushing the run as one batch append — the lock-amortization
/// grain of the batched send path. Long enough to amortize the
/// partition lock and capacity check to noise, short enough that a
/// run publishes well inside an epoch (downstream blocking polls
/// re-check every ≤10 ms regardless) and the payload slot pools stay
/// small. Clamped to the topic capacity on bounded topics, since a
/// batch wider than the capacity can never publish.
const WORKER_FLUSH_RUN: usize = 64;

/// Park granularity of a free-running shard thread or remote shard
/// bridge between control checks (condvar park inside
/// `pump_blocking_with` or `park_since`; close commands additionally
/// wake the park through the broker so command latency is a wakeup,
/// not a timeout). It is the tick of epoch deadlines.
const SHARD_PARK: Duration = Duration::from_millis(10);

/// Park granularity of a free-running proxy thread or remote proxy
/// bridge (shutdown latency bound; data wakes the park immediately).
const PROXY_PARK: Duration = Duration::from_millis(50);

/// CPU time consumed by the calling thread so far (Linux:
/// `CLOCK_THREAD_CPUTIME_ID`; elsewhere falls back to wall time,
/// which over-counts blocked waits).
///
/// This is the measurement behind "machine-level" throughput claims:
/// on an unloaded multi-core machine a pinned thread's CPU time
/// equals its wall time, while on an oversubscribed box (CI
/// containers) it still reports what the thread *would* sustain on a
/// dedicated core. For the overlapped pipeline the machine rate is
/// `messages / max over all threads of CPU time` — the wall-clock of
/// the bottleneck stage when every thread has its own core —
/// documented for BENCH_5 in `docs/benchmarks.md`.
pub fn thread_busy_time() -> Duration {
    #[cfg(target_os = "linux")]
    {
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
        }
        const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: std links libc on Linux; Timespec matches the ABI
        // layout of struct timespec on 64-bit Linux.
        if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } == 0 {
            return Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32);
        }
    }
    wall_clock_fallback()
}

/// Wall-clock fallback for [`thread_busy_time`] on platforms without
/// a per-thread CPU clock.
fn wall_clock_fallback() -> Duration {
    use std::sync::OnceLock;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed()
}

// ---------------------------------------------------------------------------
// Supervision primitives.

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One caught thread panic, recorded by the supervisor wrapper
/// *before* the thread's reply channel disconnects — so the main
/// thread's recv-error path always finds the message waiting.
struct Crash {
    role: &'static str,
    index: usize,
    message: String,
}

type CrashLog = Arc<Mutex<Vec<Crash>>>;

/// Removes and returns the crash message recorded for `(role,
/// index)`, if any.
fn take_crash(crashes: &CrashLog, role: &'static str, index: usize) -> Option<String> {
    let mut log = crashes.lock().expect("crash log lock");
    let pos = log
        .iter()
        .position(|c| c.role == role && c.index == index)?;
    Some(log.remove(pos).message)
}

/// Global per-epoch decode counts, shared by every shard thread.
///
/// Closes are satisfied against the **global** count (the close
/// command carries the epoch's *total* expectation), which keeps
/// epoch accounting correct across shard respawns: a consumer-group
/// rebalance reshuffles the partition → shard assignment, so any
/// per-shard split of the expectation would go permanently stale the
/// first time a shard dies.
///
/// Shards batch their bumps (one ledger update per poll batch, not
/// per record), and the entry list is a bounded scan list — at most
/// pipeline-depth + 1 epochs are live, and the main thread retires
/// entries once an epoch fully closes — so the warm ledger costs an
/// uncontended mutex plus a ≤ depth-entry scan per batch and
/// allocates nothing.
struct EpochLedger {
    counts: Mutex<Vec<(Timestamp, u64)>>,
}

impl EpochLedger {
    fn new() -> EpochLedger {
        EpochLedger {
            counts: Mutex::new(Vec::new()),
        }
    }

    /// Adds `delta` decodes under `epoch`'s tag.
    fn add(&self, epoch: Timestamp, delta: u64) {
        let mut counts = self.counts.lock().expect("ledger lock");
        match counts.iter_mut().find(|(t, _)| *t == epoch) {
            Some((_, n)) => *n += delta,
            None => counts.push((epoch, delta)),
        }
    }

    /// Total decodes recorded under `epoch`'s tag.
    fn count(&self, epoch: Timestamp) -> u64 {
        self.counts
            .lock()
            .expect("ledger lock")
            .iter()
            .find(|(t, _)| *t == epoch)
            .map(|(_, n)| *n)
            .unwrap_or(0)
    }

    /// Retires every entry tagged `epoch` or earlier (epoch tags are
    /// strictly increasing, so this also sweeps stale zombie entries
    /// from threads that died mid-publish).
    fn retire(&self, epoch: Timestamp) {
        self.counts
            .lock()
            .expect("ledger lock")
            .retain(|(t, _)| *t > epoch);
    }
}

/// Static configuration of a threaded sharded deployment.
#[derive(Debug, Clone, Copy)]
pub struct ShardedConfig {
    /// Number of client devices.
    pub clients: u64,
    /// Number of proxies = relay threads (≥ 2).
    pub proxies: u16,
    /// Number of aggregator shards (≥ 1).
    pub shards: usize,
    /// Number of client worker threads (≥ 1).
    pub workers: usize,
    /// Partitions per broker topic; `0` means "same as `shards`".
    pub partitions: usize,
    /// Maximum epochs concurrently in flight (≥ 1); see
    /// [`ShardedSystemBuilder::pipeline_depth`].
    pub pipeline_depth: usize,
    /// Per-partition broker backlog bound (`0` = auto-sized to
    /// pipeline-depth + 1 epochs' worth of records); see
    /// [`ShardedSystemBuilder::partition_capacity`].
    pub partition_capacity: usize,
    /// Expected multi-tenant schedule width, used by the capacity
    /// auto-sizing (a scheduled epoch carries one record per client
    /// *per admitted query*); see
    /// [`ShardedSystemBuilder::concurrent_queries`].
    pub concurrent_queries: usize,
    /// Artificial per-close delay injected into one shard thread
    /// (test/stress hook); see [`ShardedSystemBuilder::straggler`].
    pub straggler: Option<(usize, Duration)>,
    /// Master seed for all client RNGs (same semantics as
    /// [`SystemConfig::seed`](crate::SystemConfig)).
    pub seed: u64,
    /// Confidence level for reported intervals.
    pub confidence: f64,
    /// The analyst's signing key.
    pub analyst_key: u64,
    /// How long an epoch close may wait for its expected answers
    /// before closing partially; see
    /// [`ShardedSystemBuilder::epoch_deadline`].
    pub epoch_deadline: Duration,
    /// Whether dead threads are automatically respawned; see
    /// [`ShardedSystemBuilder::auto_respawn`].
    pub auto_respawn: bool,
    /// Fault injection: worker `w` panics after sending its `n`-th
    /// answer; see [`ShardedSystemBuilder::worker_panic_after`].
    pub worker_panic_after: Option<(usize, u64)>,
    /// Fault injection: shard `s` panics after its `n`-th decode; see
    /// [`ShardedSystemBuilder::shard_panic_after`].
    pub shard_panic_after: Option<(usize, u64)>,
    /// Fault injection: workers drop (never send) every share bound
    /// for shard `s`'s partitions while still accounting the answers;
    /// see [`ShardedSystemBuilder::drop_shard_traffic`].
    pub drop_shard_traffic: Option<usize>,
    /// Ack-stall threshold before a supervised link proactively
    /// resends its unacked window; see
    /// [`ShardedSystemBuilder::link_resend_after`]. `None` keeps the
    /// link's default (250 ms).
    pub link_resend_after: Option<Duration>,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            clients: 100,
            proxies: 2,
            shards: 2,
            workers: 2,
            partitions: 0,
            pipeline_depth: 2,
            partition_capacity: 0,
            concurrent_queries: 1,
            straggler: None,
            seed: 0,
            confidence: 0.95,
            analyst_key: 0x5EED_0000_CAFE,
            epoch_deadline: DEFAULT_EPOCH_DEADLINE,
            auto_respawn: true,
            worker_panic_after: None,
            shard_panic_after: None,
            drop_shard_traffic: None,
            link_resend_after: None,
        }
    }
}

impl ShardedConfig {
    /// Effective partition count (`partitions`, defaulting to
    /// `shards`).
    pub fn effective_partitions(&self) -> usize {
        if self.partitions == 0 {
            self.shards
        } else {
            self.partitions
        }
    }
}

/// How the deployment's proxies and aggregator shards are hosted.
///
/// The epoch protocol, supervision and health roll-up are identical
/// either way — [`ShardedSystem`] drives both through the same handle
/// types, and the equivalence matrix pins the process transport
/// byte-identical to in-process threads.
#[derive(Debug, Clone, Default)]
pub enum TransportMode {
    /// Proxies and shards run as supervised threads sharing this
    /// process's broker (the default).
    #[default]
    InProcess,
    /// Proxies and shards run as spawned `privapprox-node` child
    /// processes reached over loopback TCP, each behind a supervised,
    /// optionally fault-injected link (see [`crate::remote`]).
    Process {
        /// Path to the `privapprox-node` binary.
        node: PathBuf,
        /// Fault plan applied to every parent→child link's dials
        /// ([`FaultPlan::default`] = clean links).
        faults: FaultPlan,
    },
}

/// Builder for [`ShardedSystem`].
#[derive(Debug, Clone, Default)]
pub struct ShardedSystemBuilder {
    config: ShardedConfig,
    /// `Some(path)` switches the build to process transport.
    node_binary: Option<PathBuf>,
    /// Link fault plan for process transport (ignored in-process).
    link_faults: FaultPlan,
    /// `Some(dir)` enables the durable store (journal + snapshots).
    durable_dir: Option<PathBuf>,
    /// Epoch closes between snapshots (`0` = default of 8).
    snapshot_every: u64,
    /// Journal segment rotation threshold (`0` = store default).
    journal_segment_bytes: u64,
    /// Crash-injection hook: `abort()` right after the n-th submitted
    /// epoch's journal records are fsynced, before any worker send.
    crash_after_journal: Option<u64>,
}

impl ShardedSystemBuilder {
    /// Enables **durable crash recovery** backed by `dir`: budget
    /// charges are journaled (and fsynced) strictly before the
    /// debit-gated sends of every epoch, committed offsets and window
    /// high-water marks are checkpointed at each epoch close, and the
    /// full supervisor state (ledgers, schedule, muted-replay history,
    /// retained warehouses, undrained results) is snapshotted every
    /// [`snapshot_every`](ShardedSystemBuilder::snapshot_every) closes
    /// with the journal pruned beneath the snapshot floor.
    ///
    /// If `dir` already holds a store, the build loads it and the
    /// system starts **pending recovery**: re-issue the original loads
    /// (closures cannot be journaled), then call
    /// [`ShardedSystem::resume`]. Works under both the in-process and
    /// the process transport — journaling is entirely supervisor-side.
    pub fn durable(mut self, dir: impl Into<PathBuf>) -> Self {
        self.durable_dir = Some(dir.into());
        self
    }

    /// Sets how many epoch closes elapse between snapshots (default
    /// 8). `1` snapshots at every close — the exactness setting for
    /// retained-warehouse recovery; larger intervals trade a longer
    /// journal replay for less checkpoint I/O. Disk usage stays
    /// O(snapshot interval) either way: each snapshot prunes journal
    /// segments below its floor.
    pub fn snapshot_every(mut self, closes: u64) -> Self {
        self.snapshot_every = closes.max(1);
        self
    }

    /// Overrides the journal's segment rotation threshold in bytes
    /// (default 1 MiB). Small segments make the disk bound tight —
    /// pruning deletes whole segments — at the cost of more files.
    pub fn journal_segment_bytes(mut self, bytes: u64) -> Self {
        self.journal_segment_bytes = bytes.max(1 << 12);
        self
    }

    /// Crash-injection hook for the kill-9 recovery harness: the
    /// process calls [`std::process::abort`] immediately after the
    /// `epoch`-th (0-based, counted across the deployment's lifetime)
    /// submitted epoch's journal records hit disk — after the fsync
    /// barrier, **before** any worker send. This is the exact point
    /// the durability contract pivots on: the charge is spent on disk
    /// but no answer escaped.
    pub fn crash_after_journal(mut self, epoch: u64) -> Self {
        self.crash_after_journal = Some(epoch);
        self
    }
    /// Hosts proxies and shards as `privapprox-node` child processes
    /// (spawned from `node`) connected over loopback TCP instead of
    /// in-process threads. Everything else — epoch pipeline,
    /// supervision, respawn, results — behaves identically.
    pub fn process_transport(mut self, node: impl Into<PathBuf>) -> Self {
        self.node_binary = Some(node.into());
        self
    }

    /// Injects deterministic network faults (drop / duplicate / delay
    /// / reorder / cut) into every parent→child link. Only meaningful
    /// together with [`ShardedSystemBuilder::process_transport`].
    pub fn transport_faults(mut self, plan: FaultPlan) -> Self {
        self.link_faults = plan;
        self
    }
    /// Sets the client population size.
    pub fn clients(mut self, n: u64) -> Self {
        self.config.clients = n;
        self
    }

    /// Sets the number of proxies / relay threads (≥ 2).
    pub fn proxies(mut self, n: u16) -> Self {
        self.config.proxies = n;
        self
    }

    /// Sets the number of aggregator shards (≥ 1).
    pub fn shards(mut self, n: usize) -> Self {
        self.config.shards = n;
        self
    }

    /// Sets the number of client worker threads (≥ 1).
    pub fn workers(mut self, n: usize) -> Self {
        self.config.workers = n;
        self
    }

    /// Sets the broker partition count (defaults to the shard count;
    /// may exceed it, in which case shards own several partitions
    /// each).
    pub fn partitions(mut self, n: usize) -> Self {
        self.config.partitions = n;
        self
    }

    /// Sets the **pipeline depth**: how many epochs may be in flight
    /// at once through [`ShardedSystem::submit_epoch`] before the
    /// oldest is completed. Depth 1 degenerates to epoch-at-a-time
    /// submission; the default of 2 lets workers populate epoch `k+1`
    /// while the shards drain epoch `k`. [`ShardedSystem::run_epoch`]
    /// always flushes, so its per-call semantics are depth-invariant.
    pub fn pipeline_depth(mut self, depth: usize) -> Self {
        self.config.pipeline_depth = depth.max(1);
        self
    }

    /// Bounds every broker partition's backlog to `records` in-flight
    /// records: producers park when a partition is full, and consumed
    /// records are trimmed off the bounded log. This is the
    /// record-granular backpressure under the epoch-granular pipeline
    /// depth: a future epoch's workers cannot flood a shard that is
    /// still draining. Deployment topics are **always** bounded —
    /// `0` (the default) auto-sizes the bound to pipeline-depth + 1
    /// epochs' worth of records per partition.
    pub fn partition_capacity(mut self, records: usize) -> Self {
        self.config.partition_capacity = records;
        self
    }

    /// Declares how many queries the deployment expects to run
    /// concurrently (the multi-tenant schedule width, default 1).
    /// Only the capacity auto-sizing uses it: a scheduled epoch
    /// appends one record per client **per admitted query**, so the
    /// per-partition bound scales accordingly. An explicit
    /// [`ShardedSystemBuilder::partition_capacity`] overrides it.
    pub fn concurrent_queries(mut self, queries: usize) -> Self {
        self.config.concurrent_queries = queries.max(1);
        self
    }

    /// Injects an artificial delay before every epoch close on shard
    /// `shard` — the straggler-shard stress hook: workers run epochs
    /// ahead (up to the pipeline depth) while the straggler lags, and
    /// results must still be byte-identical to the single-threaded
    /// harness.
    pub fn straggler(mut self, shard: usize, delay: Duration) -> Self {
        self.config.straggler = Some((shard, delay));
        self
    }

    /// Sets the **epoch deadline**: how long a shard waits for an
    /// epoch's expected answers before closing with the decodes it
    /// has (a *partial close*). The estimate of a partial close stays
    /// unbiased — [`finalize_window_into`] scales by the answers
    /// actually observed, so losing answers widens the confidence
    /// interval exactly as a smaller sampling fraction would
    /// (degrade-to-sampling). Default 60 s.
    pub fn epoch_deadline(mut self, deadline: Duration) -> Self {
        self.config.epoch_deadline = deadline;
        self
    }

    /// Overrides how long a supervised link waits for ack progress
    /// before proactively resending its unacked window (process
    /// transport only; default 250 ms). The resend is a *loss
    /// suspicion* heuristic: on a healthy but heavily oversubscribed
    /// host (e.g. a single-core CI runner with every node process
    /// competing for the same CPU), acks can lag behind the
    /// scheduler rather than the network, and a larger threshold
    /// avoids redundant — though harmless, MID-deduplicated —
    /// resend traffic.
    pub fn link_resend_after(mut self, after: Duration) -> Self {
        self.config.link_resend_after = Some(after);
        self
    }

    /// Enables or disables automatic respawn of dead threads
    /// (default: enabled). With respawn disabled, a dead thread is
    /// reported as a [`DeployError`] and permanently retired — its
    /// clients/partitions degrade every subsequent epoch.
    pub fn auto_respawn(mut self, enabled: bool) -> Self {
        self.config.auto_respawn = enabled;
        self
    }

    /// Fault injection: worker `worker` panics immediately after
    /// sending its `answers`-th answer (counted across epochs). The
    /// hook does not survive a respawn — the fault fires once.
    pub fn worker_panic_after(mut self, worker: usize, answers: u64) -> Self {
        self.config.worker_panic_after = Some((worker, answers));
        self
    }

    /// Fault injection: shard `shard` panics on its `decodes`-th
    /// decoded answer. The hook does not survive a respawn.
    pub fn shard_panic_after(mut self, shard: usize, decodes: u64) -> Self {
        self.config.shard_panic_after = Some((shard, decodes));
        self
    }

    /// Fault injection: every worker *accounts* answers bound for
    /// shard `shard`'s partitions but never sends their shares — the
    /// deterministic straggler-loss hook behind the partial-close
    /// tests (the epoch's expectation includes the dropped answers,
    /// so the close can only fire on its deadline).
    pub fn drop_shard_traffic(mut self, shard: usize) -> Self {
        self.config.drop_shard_traffic = Some(shard);
        self
    }

    /// Adopts thread/shard counts from a cluster-tier mapping — the
    /// bridge from the simulator's `ClusterSpec`s to the real
    /// runtime.
    pub fn shape(mut self, shape: DeploymentShape) -> Self {
        self.config.proxies = shape.proxies;
        self.config.shards = shape.shards;
        self.config.workers = shape.workers;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the reporting confidence level.
    pub fn confidence(mut self, c: f64) -> Self {
        self.config.confidence = c;
        self
    }

    /// Builds and starts the deployment: creates the (optionally
    /// bounded) topics, spawns the worker, proxy and shard threads
    /// and settles consumer-group membership before any record flows
    /// (so partition assignment is fixed for the run).
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration; see
    /// [`ShardedSystemBuilder::try_build`] for the typed-error form.
    pub fn build(self) -> ShardedSystem {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`ShardedSystemBuilder::build`] reporting an impossible
    /// configuration as [`DeployError::InvalidConfig`] instead of
    /// panicking.
    pub fn try_build(self) -> Result<ShardedSystem, DeployError> {
        let c = self.config;
        let durable_dir = self.durable_dir;
        let snapshot_every = if self.snapshot_every == 0 {
            8
        } else {
            self.snapshot_every
        };
        let journal_segment_bytes = if self.journal_segment_bytes == 0 {
            DEFAULT_SEGMENT_BYTES
        } else {
            self.journal_segment_bytes
        };
        let crash_after_journal = self.crash_after_journal;
        let transport = match self.node_binary {
            Some(node) => TransportMode::Process {
                node,
                faults: self.link_faults,
            },
            None => TransportMode::InProcess,
        };
        let invalid = |m: String| Err(DeployError::InvalidConfig(m));
        if c.clients == 0 {
            return invalid("population must be positive".into());
        }
        if c.proxies < 2 {
            return invalid("PrivApprox requires at least two proxies".into());
        }
        if c.shards < 1 {
            return invalid("need at least one aggregator shard".into());
        }
        if c.workers < 1 {
            return invalid("need at least one client worker".into());
        }
        if let Some((s, _)) = c.straggler {
            if s >= c.shards {
                return invalid(format!("straggler shard {s} out of range"));
            }
        }
        if let Some((w, _)) = c.worker_panic_after {
            if w >= c.workers {
                return invalid(format!("fault-injected worker {w} out of range"));
            }
        }
        if let Some((s, _)) = c.shard_panic_after {
            if s >= c.shards {
                return invalid(format!("fault-injected shard {s} out of range"));
            }
        }
        if let Some(s) = c.drop_shard_traffic {
            if s >= c.shards {
                return invalid(format!("traffic-dropped shard {s} out of range"));
            }
        }
        if c.epoch_deadline.is_zero() {
            return invalid("epoch deadline must be positive".into());
        }
        let partitions = c.effective_partitions();
        let broker = Broker::new(partitions);
        // A producer parked on a full partition gives up (with a
        // typed `Backpressure` fault) on the same horizon the epoch
        // degrades to sampling: a stalled consumer surfaces as an
        // error plus a partial close, never a wedged producer thread.
        broker.set_backpressure_deadline(c.epoch_deadline.max(Duration::from_millis(10)));
        // Every deployment topic is bounded: an explicit capacity, or
        // the auto-bound of pipeline-depth + 1 epochs' worth of
        // records per partition. Bounded partitions give the pipeline
        // its record-granular backpressure AND log trimming — consumed
        // records drop off the front, so the broker's memory (and the
        // allocator's page-fault rate) stays flat however many epochs
        // stream through.
        let capacity = if c.partition_capacity > 0 {
            c.partition_capacity
        } else {
            ((c.pipeline_depth as u64 + 1)
                * c.concurrent_queries.max(1) as u64
                * c.clients.div_ceil(partitions as u64))
            .max(64) as usize
        };
        // Bounded topics must exist (with their capacity) before the
        // proxies/shards auto-create them unbounded.
        for i in 0..c.proxies {
            let id = ProxyId(i);
            broker.create_topic_with_capacity(&inbound_topic(id), partitions, capacity);
            broker.create_topic_with_capacity(&outbound_topic(id), partitions, capacity);
        }
        // The quarantine topic is bounded drop-oldest: poisoned input
        // must never backpressure the healthy pipeline, and a
        // poisoned-input storm must not grow memory without bound —
        // beyond the cap the oldest quarantined records are evicted
        // and counted ([`DeployHealth::dead_letter_dropped`]).
        broker.create_topic_drop_oldest(DEAD_LETTER_TOPIC, partitions, DEAD_LETTER_CAP);

        // Order matters: create every proxy and shard consumer *now*,
        // on this thread, so group membership — and therefore the
        // partition → shard mapping — is complete and deterministic
        // before the first record is produced. (A shard joining the
        // "aggregator" group after a sibling already polled would
        // strand shares across joiners.) The process transport keeps
        // the exact same group names and join order, just with bridge
        // consumers in place of the in-process relay/aggregator ones —
        // that is what pins its partition→shard mapping (and so its
        // results) byte-identical to in-process.
        enum StagePlan {
            InProc {
                proxies: Vec<Proxy>,
                aggs: Vec<Aggregator>,
            },
            Remote {
                proxy_consumers: Vec<Consumer>,
                shard_consumers: Vec<Consumer>,
            },
        }
        let plan = match &transport {
            TransportMode::InProcess => StagePlan::InProc {
                proxies: (0..c.proxies)
                    .map(|i| Proxy::new(ProxyId(i), &broker))
                    .collect(),
                aggs: (0..c.shards)
                    .map(|_| {
                        let mut agg = Aggregator::new(&broker, c.proxies as usize, c.confidence);
                        agg.set_dead_letter(broker.writer(DEAD_LETTER_TOPIC));
                        agg
                    })
                    .collect(),
            },
            TransportMode::Process { .. } => {
                let out_names: Vec<String> = (0..c.proxies)
                    .map(|i| outbound_topic(ProxyId(i)))
                    .collect();
                let out_refs: Vec<&str> = out_names.iter().map(String::as_str).collect();
                StagePlan::Remote {
                    proxy_consumers: (0..c.proxies)
                        .map(|i| {
                            broker.consumer(&format!("proxy-{i}"), &[&inbound_topic(ProxyId(i))])
                        })
                        .collect(),
                    shard_consumers: (0..c.shards)
                        .map(|_| broker.consumer("aggregator", &out_refs))
                        .collect(),
                }
            }
        };

        let crashes: CrashLog = Arc::new(Mutex::new(Vec::new()));
        let ledger = Arc::new(EpochLedger::new());
        let mut watchdog = Watchdog::new();

        let workers = (0..c.workers)
            .map(|w| {
                WorkerHandle::spawn(
                    w,
                    &c,
                    partitions,
                    &broker,
                    Arc::clone(&crashes),
                    watchdog.register(&format!("worker-{w}")),
                )
            })
            .collect();
        let mut link_stats: Vec<Arc<LinkStats>> = Vec::new();
        let mut children: Vec<(String, u32)> = Vec::new();
        let (proxy_threads, shard_threads): (Vec<ProxyHandle>, Vec<ShardHandle>) = match plan {
            StagePlan::InProc { proxies, aggs } => {
                let proxy_threads = proxies
                    .into_iter()
                    .map(|p| {
                        let hb = watchdog.register(&format!("proxy-{}", p.id().0));
                        ProxyHandle::spawn(p, Arc::clone(&crashes), hb, (0, 0, 0))
                    })
                    .collect();
                let shard_threads = aggs
                    .into_iter()
                    .enumerate()
                    .map(|(s, agg)| {
                        let straggle = match c.straggler {
                            Some((idx, delay)) if idx == s => Some(delay),
                            _ => None,
                        };
                        let fuse = match c.shard_panic_after {
                            Some((idx, n)) if idx == s => Some(n),
                            _ => None,
                        };
                        ShardHandle::spawn(ShardSpawn {
                            index: s,
                            agg,
                            straggle,
                            deadline: c.epoch_deadline,
                            fuse,
                            ledger: Arc::clone(&ledger),
                            crashes: Arc::clone(&crashes),
                            heartbeat: watchdog.register(&format!("shard-{s}")),
                            broker: broker.clone(),
                        })
                    })
                    .collect();
                (proxy_threads, shard_threads)
            }
            StagePlan::Remote {
                proxy_consumers,
                shard_consumers,
            } => {
                let (node, faults) = match &transport {
                    TransportMode::Process { node, faults } => (node.clone(), *faults),
                    TransportMode::InProcess => unreachable!("remote plan implies process mode"),
                };
                let mut proxy_threads = Vec::with_capacity(c.proxies as usize);
                for (i, consumer) in proxy_consumers.into_iter().enumerate() {
                    let child = spawn_node_or_invalid(
                        &node,
                        "proxy",
                        i,
                        &proxy_node_args(i, partitions),
                    )?;
                    children.push((format!("proxy-{i}"), child.pid()));
                    let stats = LinkStats::shared();
                    link_stats.push(Arc::clone(&stats));
                    let mut link = remote::node_link(
                        child.addr(),
                        i as u32,
                        faults,
                        Arc::clone(&stats),
                        link_seed(c.seed, "proxy", i),
                        ring_topic(&broker, &inbound_topic(ProxyId(i as u16))),
                    );
                    if let Some(after) = c.link_resend_after {
                        link.set_resend_after(after);
                    }
                    proxy_threads.push(ProxyHandle::spawn_remote(RemoteProxySpawn {
                        index: i,
                        consumer,
                        link,
                        child,
                        crashes: Arc::clone(&crashes),
                        heartbeat: watchdog.register(&format!("proxy-{i}")),
                        broker: broker.clone(),
                        base: (0, 0, 0),
                    }));
                }
                let mut shard_threads = Vec::with_capacity(c.shards);
                for (s, consumer) in shard_consumers.into_iter().enumerate() {
                    let straggle = match c.straggler {
                        Some((idx, delay)) if idx == s => Some(delay),
                        _ => None,
                    };
                    let fuse = match c.shard_panic_after {
                        Some((idx, n)) if idx == s => Some(n),
                        _ => None,
                    };
                    let child = spawn_node_or_invalid(
                        &node,
                        "shard",
                        s,
                        &shard_node_args(s, partitions, c.proxies as usize, c.confidence, fuse),
                    )?;
                    children.push((format!("shard-{s}"), child.pid()));
                    let stats = LinkStats::shared();
                    link_stats.push(Arc::clone(&stats));
                    let mut link = remote::node_link(
                        child.addr(),
                        s as u32,
                        faults,
                        Arc::clone(&stats),
                        link_seed(c.seed, "shard", s),
                        ring_topic(&broker, &shard_park_topic()),
                    );
                    if let Some(after) = c.link_resend_after {
                        link.set_resend_after(after);
                    }
                    shard_threads.push(ShardHandle::spawn_remote(RemoteShardSpawn {
                        index: s,
                        consumer,
                        link,
                        child,
                        straggle,
                        deadline: c.epoch_deadline,
                        ledger: Arc::clone(&ledger),
                        crashes: Arc::clone(&crashes),
                        heartbeat: watchdog.register(&format!("shard-{s}")),
                        bell: broker.writer(&shard_park_topic()),
                    }));
                }
                (proxy_threads, shard_threads)
            }
        };

        let mut system = ShardedSystem {
            config: c,
            transport,
            link_stats,
            partitions,
            broker,
            workers,
            proxies: proxy_threads,
            shards: shard_threads,
            queries: HashMap::new(),
            initializer: Initializer::new(),
            now_ms: 0,
            next_serial: 1,
            in_flight: VecDeque::new(),
            pending: Vec::new(),
            spare_shells: Vec::new(),
            pending_recycle: vec![Vec::new(); c.shards],
            busy: BusyProfile::new(c.workers, c.proxies as usize, c.shards),
            crashes,
            ledger,
            watchdog,
            history: Vec::new(),
            faults: Vec::new(),
            partial_closes: 0,
            lost_answers: 0,
            respawns: 0,
            worker_backpressure: 0,
            children,
            admitted: Vec::new(),
            ledgers: HashMap::new(),
            retired: Vec::new(),
            terminal: Vec::new(),
            feedback: HashMap::new(),
            last_error: HashMap::new(),
            retain_set: Vec::new(),
            batch_scratch: None,
            durable: None,
            recovered: None,
            high_water: HashMap::new(),
            recovered_offsets: Vec::new(),
            recovered_warehouses: HashMap::new(),
            epochs_closed_total: 0,
            epochs_submitted_total: 0,
            crash_after_journal,
        };
        if let Some(dir) = durable_dir {
            let (durable, recovered) =
                DurableState::open(&dir, journal_segment_bytes, snapshot_every).map_err(|e| {
                    DeployError::Persist {
                        detail: e.to_string(),
                    }
                })?;
            system.durable = Some(durable);
            system.recovered = recovered.map(Box::new);
        }
        Ok(system)
    }
}

// ---------------------------------------------------------------------------
// Worker threads: own a slice of the client population.

/// A replayable load: the worker respawn path re-runs the full load
/// log on the replacement thread (creates replace tables, so replay
/// in order is idempotent), rebuilding every owned client's local
/// store.
#[derive(Clone)]
enum LoadCmd {
    Numeric {
        table: String,
        column: String,
        f: Arc<dyn Fn(usize) -> f64 + Send + Sync>,
    },
    Rows {
        table: String,
        schema: Schema,
        f: Arc<dyn Fn(usize) -> Vec<Vec<Value>> + Send + Sync>,
    },
}

/// A replayable worker command, logged by the main thread: the
/// respawn path re-runs the full history on the replacement thread —
/// loads for real, answers **muted** (the clients run the complete
/// answer pipeline, but nothing is sent). The muted replay advances
/// every owned client's RNG stream to exactly where the dead
/// worker's was; without it a respawned client would re-issue its
/// past MIDs, and the aggregator's duplicate defence would silently
/// swallow its next epoch's answers.
///
/// Answers share the registered query (`Arc`): at 10⁴ buckets a copy
/// is ~320 KB of bucket rules, and the history holds one entry per
/// epoch for the deployment's lifetime.
#[derive(Clone)]
enum ReplayCmd {
    Load(LoadCmd),
    Answer {
        query: Arc<Query>,
        params: ExecutionParams,
        ts: Timestamp,
    },
}

enum WorkerCmd {
    Load(LoadCmd),
    Answer {
        query: Arc<Query>,
        params: ExecutionParams,
        ts: Timestamp,
        /// `false` on a respawn's muted history replay: answer (to
        /// advance the client RNGs), but send and reply nothing.
        live: bool,
    },
    /// Chaos hook: panic on receipt.
    Die,
    Shutdown,
}

enum WorkerReply {
    Loaded,
    Answered {
        /// Messages (participating clients) sent, per partition.
        /// Always present — even on error, the shares sent before the
        /// failing client are in the broker and must be accounted for.
        per_partition: Vec<u64>,
        /// The first client-side error, if any (the worker stops at
        /// the first failing client).
        error: Option<CoreError>,
        busy: Duration,
    },
}

struct WorkerHandle {
    cmd: Sender<WorkerCmd>,
    reply: Receiver<WorkerReply>,
    thread: Option<JoinHandle<()>>,
    /// Replies the previous incarnation owed that will never arrive:
    /// a respawned worker knows nothing of the epochs already
    /// submitted to its predecessor, so the completion loop skips
    /// this many recvs (their answers are part of the epoch's lost
    /// count).
    reply_debt: usize,
    /// Permanently retired (respawn disabled or failed, or the thread
    /// wedged past the deadline and cannot be safely replaced).
    dead: bool,
}

impl WorkerHandle {
    /// Spawns worker `w`, owning clients `{i : i % workers == w}`.
    /// Client identities (id, RNG seed) are exactly
    /// [`System`](crate::System)'s, so per-client streams match the
    /// single-threaded harness seed for seed — including across a
    /// respawn, which reuses the same index.
    fn spawn(
        w: usize,
        c: &ShardedConfig,
        partitions: usize,
        broker: &Broker,
        crashes: CrashLog,
        heartbeat: Heartbeat,
    ) -> WorkerHandle {
        let (cmd_tx, cmd_rx) = channel::<WorkerCmd>();
        let (reply_tx, reply_rx) = channel::<WorkerReply>();
        let broker = broker.clone();
        let (workers, clients, seed, key, n_proxies) = (
            c.workers,
            c.clients,
            c.seed,
            c.analyst_key,
            c.proxies as usize,
        );
        let mut fuse = match c.worker_panic_after {
            Some((idx, n)) if idx == w => Some(n),
            _ => None,
        };
        let drop_hook = c.drop_shard_traffic.map(|s| (s, c.shards));
        let thread = std::thread::Builder::new()
            .name(format!("pa-worker-{w}"))
            .spawn(move || {
                // The reply sender stays owned OUTSIDE the caught
                // closure: a panic is recorded in the crash log
                // before the channel disconnects, so the main
                // thread's recv-error path always finds the message.
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    let mut owned: Vec<(usize, Client)> = (0..clients)
                        .filter(|i| (*i as usize) % workers == w)
                        .map(|i| (i as usize, Client::new(ClientId(i), seed, key)))
                        .collect();
                    let mut scratch = ClientScratch::new();
                    // Cached per-topic writers: no topic-name hash per
                    // share, one consumer wakeup per epoch slice (the
                    // blocking polls downstream re-check every ≤10ms, so
                    // forwarding overlaps the answer loop regardless).
                    let writers: Vec<TopicWriter> = (0..n_proxies)
                        .map(|pi| broker.writer(&inbound_topic(ProxyId(pi as u16))))
                        .collect();
                    let mut per_partition = vec![0u64; partitions];
                    // Batched send state, reused across epochs so the
                    // steady state allocates nothing: one pending run
                    // per (proxy topic, partition) — all of a
                    // message's shares enter their runs together, and
                    // a run flushes as ONE all-or-nothing batch
                    // append (one partition lock, one capacity check)
                    // once it reaches the flush grain. Entries hold
                    // refcount clones of the split scratch's payload
                    // slots and a pooled 24-byte query-tagged key
                    // built once per message — no per-share
                    // allocation or copy.
                    let mut batches: Vec<Vec<Vec<BatchEntry>>> = (0..n_proxies)
                        .map(|_| vec![Vec::new(); partitions])
                        .collect();
                    let mut key_pool = SlotPool::new();
                    let flush_run = match writers.first().map(|w| w.capacity()) {
                        Some(cap) if cap > 0 => WORKER_FLUSH_RUN.min(cap),
                        _ => WORKER_FLUSH_RUN,
                    };
                    // Flushes one partition's pending runs across all
                    // proxy topics; returns the number of messages
                    // published. Each topic's run is all-or-nothing;
                    // if topic `j` hits its backpressure deadline,
                    // topics `< j` have already published this run
                    // (those share sets expire at the join, exactly
                    // like the pre-batching failure path) and the
                    // run's messages stay uncounted.
                    // Flushes stay quiet (no condvar signal): the
                    // downstream blocking polls re-check on their park
                    // timeouts, and the single epoch-end notify is the
                    // only forced wakeup — mid-epoch signals measured
                    // strictly slower on oversubscribed machines (each
                    // one preempts the answer loop into a proxy drain
                    // and back, thrashing both stages' caches).
                    let flush_partition = |writers: &[TopicWriter],
                                           batches: &mut [Vec<Vec<BatchEntry>>],
                                           partition: usize|
                     -> Result<u64, CoreError> {
                        let n = batches[0][partition].len() as u64;
                        for (pi, writer) in writers.iter().enumerate() {
                            writer
                                .try_append_batch(partition, &mut batches[pi][partition])
                                .map_err(CoreError::from)?;
                        }
                        Ok(n)
                    };
                    loop {
                        heartbeat.beat();
                        let cmd = match cmd_rx.recv_timeout(WORKER_IDLE_BEAT) {
                            Ok(cmd) => cmd,
                            Err(RecvTimeoutError::Timeout) => continue,
                            Err(RecvTimeoutError::Disconnected) => break,
                        };
                        match cmd {
                            WorkerCmd::Load(LoadCmd::Numeric { table, column, f }) => {
                                for (i, client) in &mut owned {
                                    let db = client.db_mut();
                                    db.create_table(
                                        &table,
                                        Schema::new(vec![
                                            ("ts", ColumnType::Int),
                                            (column.as_str(), ColumnType::Float),
                                        ]),
                                    );
                                    db.insert(&table, vec![Value::Int(0), Value::Float(f(*i))])
                                        .expect("schema arity");
                                }
                                let _ = reply_tx.send(WorkerReply::Loaded);
                            }
                            WorkerCmd::Load(LoadCmd::Rows { table, schema, f }) => {
                                for (i, client) in &mut owned {
                                    let db = client.db_mut();
                                    db.create_table(&table, schema.clone());
                                    for row in f(*i) {
                                        db.insert(&table, row).expect("schema arity");
                                    }
                                }
                                let _ = reply_tx.send(WorkerReply::Loaded);
                            }
                            WorkerCmd::Answer {
                                query,
                                params,
                                ts,
                                live,
                            } => {
                                if !live {
                                    // Muted history replay (respawn
                                    // catch-up): every client runs
                                    // the full answer pipeline so its
                                    // RNG advances exactly as the
                                    // predecessor's did, stopping at
                                    // the first error like the live
                                    // path — but nothing is sent and
                                    // nothing is replied.
                                    if query.verify(key) {
                                        for (_, client) in &mut owned {
                                            if client
                                                .answer_query_into_preverified(
                                                    &query,
                                                    &params,
                                                    n_proxies,
                                                    &mut scratch,
                                                )
                                                .is_err()
                                            {
                                                break;
                                            }
                                        }
                                    }
                                    let _ = ts;
                                    continue;
                                }
                                let t0 = thread_busy_time();
                                let qtag = query.id.to_u64().to_be_bytes();
                                per_partition.iter_mut().for_each(|n| *n = 0);
                                // One signature check for the whole
                                // population: the query is a single
                                // immutable value, so the per-client
                                // verdicts cannot differ, and verify
                                // consumes no RNG — answers stay
                                // byte-identical to per-client
                                // verification. A forgery surfaces
                                // exactly like the first client
                                // failing (zero sent, error reply).
                                let mut failure = if query.verify(key) {
                                    None
                                } else {
                                    Some(CoreError::BadSignature)
                                };
                                'clients: for (i, client) in &mut owned {
                                    if failure.is_some() {
                                        break;
                                    }
                                    match client.answer_query_into_preverified(
                                        &query,
                                        &params,
                                        n_proxies,
                                        &mut scratch,
                                    ) {
                                        Ok(None) => {}
                                        Ok(Some(shares)) => {
                                            let partition = *i % partitions;
                                            let dropped = drop_hook
                                                .is_some_and(|(s, m)| partition % m == s);
                                            if dropped {
                                                // Accounted but never sent —
                                                // the drop-traffic fault.
                                                per_partition[partition] += 1;
                                            } else {
                                                // One pooled 24-byte key per
                                                // message — query tag (u64
                                                // BE) ‖ MID — refcounted
                                                // across its n shares;
                                                // payloads ride by refcount
                                                // from the split scratch's
                                                // slots.
                                                let mut key = key_pool.acquire(24);
                                                let slot = Arc::get_mut(&mut key)
                                                    .expect("acquired key slot is unique");
                                                slot[..8].copy_from_slice(&qtag);
                                                slot[8..].copy_from_slice(
                                                    &shares[0].mid.to_bytes(),
                                                );
                                                for (pi, share) in shares.iter().enumerate()
                                                {
                                                    batches[pi][partition].push((
                                                        Some(Arc::clone(&key)),
                                                        Arc::clone(&share.payload),
                                                        ts,
                                                    ));
                                                }
                                                key_pool.release(key);
                                                if batches[0][partition].len() >= flush_run {
                                                    match flush_partition(
                                                        &writers,
                                                        &mut batches,
                                                        partition,
                                                    ) {
                                                        Ok(n) => per_partition[partition] += n,
                                                        Err(e) => {
                                                            // The run's messages stay
                                                            // unaccounted; any topic
                                                            // already flushed leaves
                                                            // expired joins.
                                                            failure = Some(e);
                                                            break 'clients;
                                                        }
                                                    }
                                                }
                                            }
                                            if let Some(n) = fuse.as_mut() {
                                                if *n <= 1 {
                                                    panic!("injected worker fault");
                                                }
                                                *n -= 1;
                                            }
                                        }
                                        Err(e) => {
                                            failure = Some(e);
                                            break;
                                        }
                                    }
                                }
                                if failure.is_none() {
                                    // Drain the partial runs; a failure here
                                    // surfaces like a mid-epoch one.
                                    for partition in 0..partitions {
                                        if batches[0][partition].is_empty() {
                                            continue;
                                        }
                                        match flush_partition(&writers, &mut batches, partition)
                                        {
                                            Ok(n) => per_partition[partition] += n,
                                            Err(e) => {
                                                failure = Some(e);
                                                break;
                                            }
                                        }
                                    }
                                }
                                // On failure, abandon whatever runs remain:
                                // clearing drops the payload/key refcounts so
                                // the scratch slots recycle, and the next
                                // epoch starts from clean batches.
                                for topic_batches in &mut batches {
                                    for b in topic_batches {
                                        b.clear();
                                    }
                                }
                                for writer in &writers {
                                    writer.notify();
                                }
                                let busy = thread_busy_time().saturating_sub(t0);
                                // Counts always travel with the reply,
                                // error or not: shares sent *before* a
                                // failing client are already in the
                                // broker, and the epoch-tagged close is
                                // what lets a later epoch run from
                                // consistent counts.
                                let _ = reply_tx.send(WorkerReply::Answered {
                                    per_partition: per_partition.clone(),
                                    error: failure,
                                    busy,
                                });
                            }
                            WorkerCmd::Die => panic!("injected worker fault"),
                            WorkerCmd::Shutdown => break,
                        }
                    }
                }));
                if let Err(payload) = outcome {
                    crashes.lock().expect("crash log lock").push(Crash {
                        role: "worker",
                        index: w,
                        message: panic_message(&*payload),
                    });
                }
                // reply_tx (and cmd_rx) drop here — after the crash
                // record is visible.
                drop(reply_tx);
            })
            .expect("spawn worker thread");
        WorkerHandle {
            cmd: cmd_tx,
            reply: reply_rx,
            thread: Some(thread),
            reply_debt: 0,
            dead: false,
        }
    }
}

// ---------------------------------------------------------------------------
// Proxy threads: free-running partition-preserving relays.

struct ProxyHandle {
    stop: Arc<AtomicBool>,
    forwarded: Arc<AtomicU64>,
    busy_ns: Arc<AtomicU64>,
    /// Backpressure deadlines the relay rode out (the batch is
    /// retained and retried, so these are stalls, not losses).
    backpressure: Arc<AtomicU64>,
    in_topic: String,
    thread: Option<JoinHandle<()>>,
    dead: bool,
}

impl ProxyHandle {
    /// Spawns a relay thread that forwards continuously until told to
    /// stop: a proxy holds no epoch state, so it needs no epoch
    /// commands — it parks on the broker's condvar and forwards
    /// whatever lands, whichever epoch it belongs to.
    ///
    /// `base` seeds the `(forwarded, busy_ns, backpressure)` counters
    /// so a respawned relay reports monotone cumulative values.
    fn spawn(
        mut proxy: Proxy,
        crashes: CrashLog,
        heartbeat: Heartbeat,
        base: (u64, u64, u64),
    ) -> ProxyHandle {
        let index = proxy.id().0 as usize;
        let stop = Arc::new(AtomicBool::new(false));
        let forwarded = Arc::new(AtomicU64::new(base.0));
        let busy_ns = Arc::new(AtomicU64::new(base.1));
        let backpressure = Arc::new(AtomicU64::new(base.2));
        let in_topic = inbound_topic(proxy.id());
        let (stop2, forwarded2, busy2, bp2) = (
            Arc::clone(&stop),
            Arc::clone(&forwarded),
            Arc::clone(&busy_ns),
            Arc::clone(&backpressure),
        );
        let thread = std::thread::Builder::new()
            .name(format!("pa-proxy-{index}"))
            .spawn(move || {
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    while !stop2.load(Ordering::Relaxed) {
                        heartbeat.beat();
                        let t0 = thread_busy_time();
                        let pumped = proxy.try_pump_blocking(PROXY_PARK);
                        let dt = thread_busy_time().saturating_sub(t0);
                        busy2.fetch_add(dt.as_nanos() as u64, Ordering::Relaxed);
                        match pumped {
                            Ok(0) => {}
                            Ok(n) => {
                                forwarded2.fetch_add(n, Ordering::Relaxed);
                            }
                            // A backpressure deadline is a stall
                            // downstream, not a relay fault: the
                            // unforwarded tail stays buffered and the
                            // next pump retries it.
                            Err(_) => {
                                bp2.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    // Final drain so shutdown leaves no stranded shares.
                    if let Ok(n) = proxy.try_pump() {
                        forwarded2.fetch_add(n, Ordering::Relaxed);
                    }
                }));
                if let Err(payload) = outcome {
                    crashes.lock().expect("crash log lock").push(Crash {
                        role: "proxy",
                        index,
                        message: panic_message(&*payload),
                    });
                }
            })
            .expect("spawn proxy thread");
        ProxyHandle {
            stop,
            forwarded,
            busy_ns,
            backpressure,
            in_topic,
            thread: Some(thread),
            dead: false,
        }
    }
}

// ---------------------------------------------------------------------------
// Shard threads: free-running join ⟂ decode ⟂ window with per-epoch
// in-flight accounting.

/// An epoch close request: "once `expect` answers tagged `epoch` have
/// been decoded, advance the watermark and emit the closed windows".
struct CloseCmd {
    epoch: Timestamp,
    expect: u64,
    watermark: Timestamp,
    /// Estimators coming home from a previous epoch's merge.
    recycle: Vec<BucketEstimator>,
}

enum ShardCmd {
    Register {
        query: Arc<Query>,
        params: ExecutionParams,
        population: u64,
        /// Keep this query's decoded answers for batch queries
        /// (historical retention, §3.3.1).
        retain: bool,
    },
    Close(CloseCmd),
    /// Historical fetch: return the retained answers of `query`
    /// within `range`.
    Fetch { query: QueryId, range: Window },
    /// Health-counter snapshot (no watermark movement).
    Probe,
    /// Chaos hook: panic on receipt.
    Die,
    Shutdown,
}

enum ShardReply {
    Registered,
    /// Retained `(timestamp, MID, randomized answer)` triples for a
    /// [`ShardCmd::Fetch`].
    Stored {
        answers: Vec<(u64, u128, BitVec)>,
    },
    Closed {
        /// Answers **this shard** decoded under the closed epoch's
        /// tag. The main thread sums the replies: a total below the
        /// close's global `expect` is a partial close.
        decoded: u64,
        windows: Vec<RawWindow>,
        /// Cumulative CPU time of the shard thread (monotone within
        /// one incarnation; the handle adds the respawn base).
        busy: Duration,
    },
    Health {
        /// `(undecodable, unroutable, duplicates, expired_joins)`.
        quad: (u64, u64, u64, u64),
        /// Records quarantined to the dead-letter topic.
        dead_lettered: u64,
        /// Decoded answers dropped behind the watermark.
        late_answers: u64,
        /// Cumulative CPU time.
        busy: Duration,
    },
}

struct ShardHandle {
    cmd: Sender<ShardCmd>,
    reply: Receiver<ShardReply>,
    thread: Option<JoinHandle<()>>,
    /// CPU time accumulated by dead predecessor incarnations, added
    /// to this incarnation's readings so the busy profile stays
    /// monotone across respawns.
    busy_base: Duration,
    dead: bool,
}

/// Everything a shard thread needs at spawn — grouped because the
/// respawn path rebuilds the full set.
struct ShardSpawn {
    index: usize,
    agg: Aggregator,
    straggle: Option<Duration>,
    deadline: Duration,
    /// Fault injection: panic on the `n`-th decode.
    fuse: Option<u64>,
    ledger: Arc<EpochLedger>,
    crashes: CrashLog,
    heartbeat: Heartbeat,
    broker: Broker,
}

impl ShardHandle {
    fn spawn(spec: ShardSpawn) -> ShardHandle {
        let ShardSpawn {
            index,
            mut agg,
            straggle,
            deadline,
            mut fuse,
            ledger,
            crashes,
            heartbeat,
            broker,
        } = spec;
        let (cmd_tx, cmd_rx) = channel::<ShardCmd>();
        let (reply_tx, reply_rx) = channel::<ShardReply>();
        let thread = std::thread::Builder::new()
            .name(format!("pa-shard-{index}"))
            .spawn(move || {
                // The reply sender stays owned outside the caught
                // closure — crash record before channel disconnect.
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                // Per-epoch in-flight accounting: decoded answers per
                // epoch tag. A bounded scan list, not a map — at most
                // pipeline-depth + 1 epochs are ever live, entries
                // retire when their epoch closes, and the warm list
                // never allocates per message. `published` mirrors
                // what this shard has already reported to the global
                // ledger (bumps are batched per poll, not per
                // record).
                let mut counts: Vec<(Timestamp, u64)> = Vec::new();
                let mut published: Vec<(Timestamp, u64)> = Vec::new();
                // Retained histories for queries registered with
                // `retain`: the §3.3.1 at-rest store (randomized
                // answers only), fetched by the main thread to serve
                // batch queries.
                let mut retained: HashMap<QueryId, Vec<(u64, u128, BitVec)>> = HashMap::new();
                // Close requests queue in epoch order and are
                // satisfied strictly FIFO (watermarks must advance in
                // order); `Instant` tracks the epoch deadline.
                let mut closes: VecDeque<(CloseCmd, Instant)> = VecDeque::new();
                'run: loop {
                    heartbeat.beat();
                    // 1. Absorb all pending control messages.
                    loop {
                        match cmd_rx.try_recv() {
                            Ok(ShardCmd::Register {
                                query,
                                params,
                                population,
                                retain,
                            }) => {
                                if retain {
                                    // Keep whatever is already stored:
                                    // re-registration (a feedback
                                    // retune) must not wipe history.
                                    retained.entry(query.id).or_default();
                                }
                                agg.register_query(&query, params, population);
                                let _ = reply_tx.send(ShardReply::Registered);
                            }
                            Ok(ShardCmd::Fetch { query, range }) => {
                                let answers = retained
                                    .get(&query)
                                    .map(|stored| {
                                        stored
                                            .iter()
                                            .filter(|(ts, _, _)| range.contains(Timestamp(*ts)))
                                            .cloned()
                                            .collect()
                                    })
                                    .unwrap_or_default();
                                let _ = reply_tx.send(ShardReply::Stored { answers });
                            }
                            Ok(ShardCmd::Close(c)) => closes.push_back((c, Instant::now())),
                            Ok(ShardCmd::Probe) => {
                                let _ = reply_tx.send(ShardReply::Health {
                                    quad: (
                                        agg.undecodable(),
                                        agg.unroutable(),
                                        agg.duplicates(),
                                        agg.expired_joins(),
                                    ),
                                    dead_lettered: agg.dead_lettered(),
                                    late_answers: agg.late_events(),
                                    busy: thread_busy_time(),
                                });
                            }
                            Ok(ShardCmd::Die) => panic!("injected shard fault"),
                            Ok(ShardCmd::Shutdown) | Err(TryRecvError::Disconnected) => {
                                break 'run;
                            }
                            Err(TryRecvError::Empty) => break,
                        }
                    }
                    // 2. Satisfy the oldest close once the epoch's
                    //    GLOBAL accounting settles (or its deadline
                    //    fires → partial close).
                    if let Some((front, since)) = closes.front() {
                        let have = counts
                            .iter()
                            .find(|(t, _)| *t == front.epoch)
                            .map(|(_, n)| *n)
                            .unwrap_or(0);
                        let global = ledger.count(front.epoch);
                        if global >= front.expect || since.elapsed() >= deadline {
                            let (c, _) = closes.pop_front().expect("front exists");
                            if let Some(delay) = straggle {
                                std::thread::sleep(delay);
                            }
                            for est in c.recycle {
                                agg.release_estimator(est);
                            }
                            let mut windows = Vec::new();
                            agg.advance_watermark_raw_into(c.watermark, &mut windows);
                            // The epoch's accounting entries retire
                            // with the close.
                            counts.retain(|(t, _)| *t > c.epoch);
                            published.retain(|(t, _)| *t > c.epoch);
                            let _ = reply_tx.send(ShardReply::Closed {
                                decoded: have,
                                windows,
                                busy: thread_busy_time(),
                            });
                            // Kick sibling shards out of their parks:
                            // their own close checks re-read the
                            // ledger at wakeup latency instead of
                            // park-timeout latency.
                            broker.notify_topic(&shard_park_topic());
                            continue 'run;
                        }
                    }
                    // 3. Pump, tagging every decode with its epoch.
                    agg.pump_blocking_with(SHARD_PARK, |qid, ts, mid, answer| {
                        match counts.iter_mut().find(|(t, _)| *t == ts) {
                            Some((_, n)) => *n += 1,
                            None => counts.push((ts, 1)),
                        }
                        if let Some(stored) = retained.get_mut(&qid) {
                            stored.push((ts.0, mid.0, answer.clone()));
                        }
                        if let Some(n) = fuse.as_mut() {
                            if *n <= 1 {
                                panic!("injected shard fault");
                            }
                            *n -= 1;
                        }
                    });
                    // 4. Publish this poll's decode deltas to the
                    //    global ledger (one bounded-scan lock per
                    //    poll batch).
                    for (t, n) in &counts {
                        match published.iter_mut().find(|(pt, _)| pt == t) {
                            Some((_, pn)) => {
                                if *n > *pn {
                                    ledger.add(*t, *n - *pn);
                                    *pn = *n;
                                }
                            }
                            None => {
                                ledger.add(*t, *n);
                                published.push((*t, *n));
                            }
                        }
                    }
                }
                }));
                if let Err(payload) = outcome {
                    crashes.lock().expect("crash log lock").push(Crash {
                        role: "shard",
                        index,
                        message: panic_message(&*payload),
                    });
                }
                drop(reply_tx);
            })
            .expect("spawn shard thread");
        ShardHandle {
            cmd: cmd_tx,
            reply: reply_rx,
            thread: Some(thread),
            busy_base: Duration::ZERO,
            dead: false,
        }
    }
}

// ---------------------------------------------------------------------------
// Process-transport bridges: each remote proxy/shard slot is a spawned
// `privapprox-node` child plus a bridge thread that speaks the wire
// protocol on one side and the in-process handle protocol (the same
// `ProxyHandle` atomics / `ShardCmd` channels) on the other — so the
// main thread's epoch, supervision and respawn machinery is shared
// verbatim between the two transports.

/// The topic shard threads and remote shard bridges park on: the
/// first subscription of their `"aggregator"` consumer.
fn shard_park_topic() -> String {
    outbound_topic(ProxyId(0))
}

/// A link wake ([`remote::node_link`]) that rings `topic`, the topic
/// the link's bridge parks on.
fn ring_topic(broker: &Broker, topic: &str) -> Wake {
    let bell = broker.writer(topic);
    Arc::new(move || bell.notify())
}

/// Deterministic per-link jitter seed: deployment seed × role × slot,
/// so backoff schedules are stable run to run and distinct link to
/// link.
fn link_seed(seed: u64, role: &str, index: usize) -> u64 {
    let role_tag = role
        .bytes()
        .fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(b as u64));
    seed ^ role_tag.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (index as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

fn proxy_node_args(index: usize, partitions: usize) -> Vec<String> {
    vec![
        "proxy".into(),
        "--index".into(),
        index.to_string(),
        "--partitions".into(),
        partitions.to_string(),
    ]
}

fn shard_node_args(
    index: usize,
    partitions: usize,
    proxies: usize,
    confidence: f64,
    fuse: Option<u64>,
) -> Vec<String> {
    let mut args = vec![
        "shard".into(),
        "--index".into(),
        index.to_string(),
        "--partitions".into(),
        partitions.to_string(),
        "--proxies".into(),
        proxies.to_string(),
        "--confidence-bits".into(),
        confidence.to_bits().to_string(),
    ];
    if let Some(n) = fuse {
        args.push("--fuse".into());
        args.push(n.to_string());
    }
    args
}

/// Spawns a node child, mapping a spawn/banner failure to the typed
/// build error (a missing or broken node binary is a configuration
/// fault, not a runtime one).
fn spawn_node_or_invalid(
    node: &Path,
    role: &str,
    index: usize,
    args: &[String],
) -> Result<NodeChild, DeployError> {
    remote::spawn_node(node, args)
        .map_err(|e| DeployError::InvalidConfig(format!("spawn {role} node {index}: {e}")))
}

/// Appends one share relayed back by a child to the local broker,
/// riding out backpressure deadlines exactly like the in-process
/// relay: the record is retried, the stall is counted, nothing is
/// dropped.
fn deliver_share(writer: &TopicWriter, m: DataMsg, stalls: &AtomicU64) {
    let key = m.key;
    let value = m.value;
    loop {
        match writer.try_append_quiet(
            m.partition as usize,
            key.clone(),
            Arc::clone(&value),
            Timestamp(m.timestamp),
        ) {
            Ok(_) => return,
            Err(_) => {
                stalls.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Everything a remote proxy bridge needs at spawn (the respawn path
/// rebuilds the full set, like [`ShardSpawn`]).
struct RemoteProxySpawn {
    index: usize,
    /// Bridge consumer on the proxy's inbound topic — same group name
    /// as the in-process relay, joined on the main thread.
    consumer: Consumer,
    link: SupervisedLink,
    child: NodeChild,
    crashes: CrashLog,
    heartbeat: Heartbeat,
    broker: Broker,
    base: (u64, u64, u64),
}

impl ProxyHandle {
    /// Spawns the bridge thread for one remote proxy: polls the
    /// inbound topic into batched data frames toward the child, and
    /// lands the child's relayed shares on the local outbound topic.
    /// Same thread name and crash role as the in-process relay, so
    /// supervision and respawn treat both transports identically. The
    /// bridge owns the child: a panic (including a link whose retry
    /// budget ran out) drops the guard and kills the process.
    fn spawn_remote(spec: RemoteProxySpawn) -> ProxyHandle {
        let RemoteProxySpawn {
            index,
            consumer,
            mut link,
            child,
            crashes,
            heartbeat,
            broker,
            base,
        } = spec;
        let stop = Arc::new(AtomicBool::new(false));
        let forwarded = Arc::new(AtomicU64::new(base.0));
        let busy_ns = Arc::new(AtomicU64::new(base.1));
        let backpressure = Arc::new(AtomicU64::new(base.2));
        let in_topic = inbound_topic(ProxyId(index as u16));
        let (stop2, forwarded2, busy2, bp2) = (
            Arc::clone(&stop),
            Arc::clone(&forwarded),
            Arc::clone(&busy_ns),
            Arc::clone(&backpressure),
        );
        let thread = std::thread::Builder::new()
            .name(format!("pa-proxy-{index}"))
            .spawn(move || {
                let _child = child;
                let out_writer = broker.writer(&outbound_topic(ProxyId(index as u16)));
                // Shard bridges park on the first outbound topic only;
                // shares landing on any other must ring it too.
                let shard_bell = (index != 0).then(|| broker.writer(&shard_park_topic()));
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    let mut batch: Vec<(u32, u32, Record)> = Vec::new();
                    let mut msgs: Vec<DataMsg> = Vec::new();
                    let mut inbound: Vec<DataMsg> = Vec::new();
                    loop {
                        // Read the flag before the final round so one
                        // last poll + drain runs after it is raised.
                        let stopping = stop2.load(Ordering::Relaxed);
                        heartbeat.beat();
                        // Taken before looking for work: a ring after
                        // this point ends the park below at once.
                        let ticket = consumer.wake_ticket();
                        let t0 = thread_busy_time();
                        let mut idle = true;
                        // 1. Ship produced shares to the child.
                        loop {
                            if consumer.poll_into(remote::BATCH_RECORDS, &mut batch) == 0 {
                                break;
                            }
                            idle = false;
                            msgs.clear();
                            for (stream, partition, rec) in batch.drain(..) {
                                msgs.push(remote::record_to_msg(stream, partition, &rec));
                            }
                            if let Err(e) = remote::send_batched(&mut link, &msgs) {
                                panic!("proxy {index} link: {e}");
                            }
                        }
                        // 2. Land the relayed shares the link's reader
                        //    thread has handed over.
                        let mut landed = 0u64;
                        loop {
                            match link.try_recv() {
                                Ok(Some(f)) if f.kind == FrameKind::Data => {
                                    inbound.clear();
                                    if let Err(e) = decode_data_batch(&f.payload, &mut inbound) {
                                        panic!("proxy {index} link: {e}");
                                    }
                                    landed += inbound.len() as u64;
                                    for m in inbound.drain(..) {
                                        deliver_share(&out_writer, m, &bp2);
                                    }
                                }
                                Ok(Some(_)) => {}
                                Ok(None) => break,
                                Err(e) => panic!("proxy {index} link: {e}"),
                            }
                        }
                        if landed > 0 {
                            idle = false;
                            out_writer.notify();
                            if let Some(bell) = &shard_bell {
                                bell.notify();
                            }
                            forwarded2.fetch_add(landed, Ordering::Relaxed);
                        }
                        if let Err(e) = link.maybe_resend() {
                            panic!("proxy {index} link: {e}");
                        }
                        let dt = thread_busy_time().saturating_sub(t0);
                        busy2.fetch_add(dt.as_nanos() as u64, Ordering::Relaxed);
                        if stopping {
                            // Best-effort goodbye; the child guard
                            // kills the process regardless.
                            let _ = link.send(Frame::bare(FrameKind::Shutdown));
                            let _ = link.flush();
                            break;
                        }
                        // 3. Nothing to do: park on the inbound topic,
                        //    which both the workers and the link
                        //    reader ring, as long as the in-process
                        //    relay would (resends and the stop flag
                        //    are the only timers).
                        if idle {
                            consumer.park_since(ticket, PROXY_PARK);
                        }
                    }
                }));
                if let Err(payload) = outcome {
                    crashes.lock().expect("crash log lock").push(Crash {
                        role: "proxy",
                        index,
                        message: panic_message(&*payload),
                    });
                }
            })
            .expect("spawn proxy bridge thread");
        ProxyHandle {
            stop,
            forwarded,
            busy_ns,
            backpressure,
            in_topic,
            thread: Some(thread),
            dead: false,
        }
    }
}

/// Everything a remote shard bridge needs at spawn.
struct RemoteShardSpawn {
    index: usize,
    /// Bridge consumer over every proxy's outbound topic — same
    /// `"aggregator"` group as the in-process shards, joined on the
    /// main thread in shard order.
    consumer: Consumer,
    link: SupervisedLink,
    child: NodeChild,
    straggle: Option<Duration>,
    deadline: Duration,
    ledger: Arc<EpochLedger>,
    crashes: CrashLog,
    heartbeat: Heartbeat,
    /// Rings [`shard_park_topic`], the condvar every shard bridge
    /// parks on.
    bell: TopicWriter,
}

impl ShardHandle {
    /// Spawns the bridge (translator) thread for one remote shard: it
    /// speaks `ShardCmd`/`ShardReply` with the main thread and the
    /// control-frame protocol with the child. The close condition —
    /// global ledger count reaches the epoch's expectation, or the
    /// epoch deadline fires — is evaluated *here*, against the shared
    /// ledger fed by every child's `Progress` frames, so partial-close
    /// degradation under faults is identical to in-process.
    fn spawn_remote(spec: RemoteShardSpawn) -> ShardHandle {
        let RemoteShardSpawn {
            index,
            consumer,
            mut link,
            child,
            straggle,
            deadline,
            ledger,
            crashes,
            heartbeat,
            bell,
        } = spec;
        let (cmd_tx, cmd_rx) = channel::<ShardCmd>();
        let (reply_tx, reply_rx) = channel::<ShardReply>();
        let thread = std::thread::Builder::new()
            .name(format!("pa-shard-{index}"))
            .spawn(move || {
                let _child = child;
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    let mut batch: Vec<(u32, u32, Record)> = Vec::new();
                    let mut msgs: Vec<DataMsg> = Vec::new();
                    let mut closes: VecDeque<(CloseCmd, Instant)> = VecDeque::new();
                    // The epoch whose `Finish` is outstanding: further
                    // closes are held until the child's reply so
                    // watermarks advance strictly in order.
                    let mut awaiting: Option<u64> = None;
                    let send_ctrl = |link: &mut SupervisedLink, payload: Vec<u8>| {
                        let sent = link
                            .send(Frame::new(FrameKind::Ctrl, payload))
                            .and_then(|_| link.flush());
                        if let Err(e) = sent {
                            panic!("shard {index} link: {e}");
                        }
                    };
                    'run: loop {
                        heartbeat.beat();
                        // Taken before looking for work: a ring after
                        // this point ends the park below at once.
                        let ticket = consumer.wake_ticket();
                        let mut idle = true;
                        // 1. Absorb control commands.
                        loop {
                            let cmd = cmd_rx.try_recv();
                            if cmd.is_ok() {
                                idle = false;
                            }
                            match cmd {
                                Ok(ShardCmd::Register {
                                    query,
                                    params,
                                    population,
                                    // Retention is rejected for process
                                    // transport before any command is
                                    // sent, so the flag is never set
                                    // here.
                                    retain: _,
                                }) => send_ctrl(
                                    &mut link,
                                    remote::encode_register(&query, params, population),
                                ),
                                Ok(ShardCmd::Fetch { .. }) => {
                                    // Unreachable by construction (see
                                    // `retain` above); reply empty so a
                                    // misdirected fetch cannot wedge the
                                    // caller.
                                    let _ = reply_tx.send(ShardReply::Stored {
                                        answers: Vec::new(),
                                    });
                                }
                                Ok(ShardCmd::Close(c)) => closes.push_back((c, Instant::now())),
                                Ok(ShardCmd::Probe) => {
                                    send_ctrl(&mut link, remote::encode_probe())
                                }
                                Ok(ShardCmd::Die) => panic!("injected shard fault"),
                                Ok(ShardCmd::Shutdown) | Err(TryRecvError::Disconnected) => {
                                    break 'run;
                                }
                                Err(TryRecvError::Empty) => break,
                            }
                        }
                        // 2. Issue the oldest close once its global
                        //    accounting settles or its deadline fires.
                        if awaiting.is_none() {
                            if let Some((front, since)) = closes.front() {
                                let global = ledger.count(front.epoch);
                                if global >= front.expect || since.elapsed() >= deadline {
                                    let (c, _) = closes.pop_front().expect("front exists");
                                    if let Some(delay) = straggle {
                                        std::thread::sleep(delay);
                                    }
                                    // Recycled estimators have no home
                                    // here — the child owns its own
                                    // pool — so they are dropped.
                                    drop(c.recycle);
                                    send_ctrl(
                                        &mut link,
                                        remote::encode_finish(c.epoch.0, c.watermark.0),
                                    );
                                    awaiting = Some(c.epoch.0);
                                    idle = false;
                                }
                            }
                        }
                        // 3. Forward relayed shares to the child.
                        loop {
                            if consumer.poll_into(remote::BATCH_RECORDS, &mut batch) == 0 {
                                break;
                            }
                            idle = false;
                            msgs.clear();
                            for (stream, partition, rec) in batch.drain(..) {
                                msgs.push(remote::record_to_msg(stream, partition, &rec));
                            }
                            if let Err(e) = remote::send_batched(&mut link, &msgs) {
                                panic!("shard {index} link: {e}");
                            }
                        }
                        // 4. Handle the child's frames the link's reader
                        //    thread has handed over.
                        let mut progressed = false;
                        loop {
                            let frame = link.try_recv();
                            if matches!(frame, Ok(Some(_))) {
                                idle = false;
                            }
                            match frame {
                                Ok(Some(f)) => match f.kind {
                                    FrameKind::Progress => match decode_progress(&f.payload) {
                                        Ok((epoch, delta)) => {
                                            ledger.add(Timestamp(epoch), delta);
                                            progressed = true;
                                        }
                                        Err(e) => panic!("shard {index} link: {e}"),
                                    },
                                    FrameKind::CtrlReply => {
                                        match remote::decode_reply(&f.payload) {
                                            Ok(remote::NodeReply::Registered) => {
                                                let _ = reply_tx.send(ShardReply::Registered);
                                            }
                                            Ok(remote::NodeReply::Closed {
                                                epoch,
                                                decoded,
                                                busy,
                                                windows,
                                            }) => {
                                                assert_eq!(
                                                    awaiting.take(),
                                                    Some(epoch),
                                                    "shard {index}: close reply out of order"
                                                );
                                                let _ = reply_tx.send(ShardReply::Closed {
                                                    decoded,
                                                    windows,
                                                    busy,
                                                });
                                            }
                                            Ok(remote::NodeReply::Health {
                                                quad,
                                                dead_lettered,
                                                late_answers,
                                                busy,
                                            }) => {
                                                let _ = reply_tx.send(ShardReply::Health {
                                                    quad,
                                                    dead_lettered,
                                                    late_answers,
                                                    busy,
                                                });
                                            }
                                            Err(e) => panic!("shard {index} link: {e}"),
                                        }
                                    }
                                    _ => {}
                                },
                                Ok(None) => break,
                                Err(e) => panic!("shard {index} link: {e}"),
                            }
                        }
                        if progressed {
                            // Every shard bridge's close waits on the
                            // shared ledger: wake the siblings to
                            // re-check theirs.
                            bell.notify();
                        }
                        if let Err(e) = link.maybe_resend() {
                            panic!("shard {index} link: {e}");
                        }
                        // 5. Nothing to do: park on the shard topic,
                        //    which relayed shares, link readers,
                        //    commands and ledger progress all ring,
                        //    as long as an in-process shard would
                        //    (the tick for close deadlines and
                        //    resends).
                        if idle {
                            consumer.park_since(ticket, SHARD_PARK);
                        }
                    }
                    // Best-effort goodbye so the child exits cleanly
                    // before the guard kills it.
                    let _ = link.send(Frame::bare(FrameKind::Shutdown));
                    let _ = link.flush();
                }));
                if let Err(payload) = outcome {
                    crashes.lock().expect("crash log lock").push(Crash {
                        role: "shard",
                        index,
                        message: panic_message(&*payload),
                    });
                }
                drop(reply_tx);
            })
            .expect("spawn shard bridge thread");
        ShardHandle {
            cmd: cmd_tx,
            reply: reply_rx,
            thread: Some(thread),
            busy_base: Duration::ZERO,
            dead: false,
        }
    }
}

// ---------------------------------------------------------------------------
// The deployment.

/// Accumulated per-thread CPU time over a deployment's lifetime —
/// the instrumentation behind machine-level throughput reporting
/// (see [`thread_busy_time`]).
#[derive(Debug, Clone)]
pub struct BusyProfile {
    /// Per client-worker CPU time in the answer stage.
    pub workers: Vec<Duration>,
    /// Per proxy-thread CPU time (forwarding plus the free-running
    /// poll loop).
    pub proxies: Vec<Duration>,
    /// Per shard-thread CPU time (drain/close plus the free-running
    /// poll loop).
    pub shards: Vec<Duration>,
}

impl BusyProfile {
    fn new(workers: usize, proxies: usize, shards: usize) -> BusyProfile {
        BusyProfile {
            workers: vec![Duration::ZERO; workers],
            proxies: vec![Duration::ZERO; proxies],
            shards: vec![Duration::ZERO; shards],
        }
    }

    /// The critical path of a *barrier-synchronized* pass:
    /// `max(workers) + max(proxies) + max(shards)` — what an epoch
    /// costs when the stages run one after another (the BENCH_4
    /// methodology, kept for like-for-like comparisons).
    pub fn critical_path(&self) -> Duration {
        let max = |v: &[Duration]| v.iter().copied().max().unwrap_or(Duration::ZERO);
        max(&self.workers) + max(&self.proxies) + max(&self.shards)
    }

    /// The busiest single thread — the critical resource of the
    /// **overlapped** pipeline: with one core per thread and the
    /// stages running concurrently, steady-state wall time converges
    /// to this, so `messages / bottleneck()` is the pipelined machine
    /// rate (the BENCH_5 methodology).
    pub fn bottleneck(&self) -> Duration {
        self.workers
            .iter()
            .chain(&self.proxies)
            .chain(&self.shards)
            .copied()
            .max()
            .unwrap_or(Duration::ZERO)
    }
}

/// One submitted, not-yet-completed epoch.
struct InFlightEpoch {
    /// The epoch tag: the event timestamp every answer of this epoch
    /// carries.
    epoch: Timestamp,
    /// The watermark closing the epoch's windows.
    watermark: Timestamp,
    /// Worker commands issued for this epoch — one per scheduled
    /// query — so completion knows how many `Answered` replies each
    /// worker owes.
    cmds: usize,
    /// Journal index of this epoch's first record (charge or
    /// submitted). A snapshot taken while the epoch is open must not
    /// prune below this: recovery rebuilds open epochs from exactly
    /// these records. `0` when the deployment is not durable.
    journal_mark: u64,
}

/// A threaded, sharded in-process PrivApprox deployment with
/// overlapped-epoch pipelining (see the module docs for topology,
/// the pipeline protocol and guarantees). Drives the same query-epoch
/// surface as [`System`](crate::System) — `analyst()`, `load_*`,
/// `run_epoch`, `drain_results` — and produces byte-identical
/// results; [`ShardedSystem::submit_epoch`]/[`ShardedSystem::flush_epochs`]
/// expose the pipelined form.
pub struct ShardedSystem {
    config: ShardedConfig,
    /// How proxies and shards are hosted: in-process threads or
    /// spawned `privapprox-node` children behind supervised sockets.
    transport: TransportMode,
    /// Per-link supervision counters (one entry per proxy/shard link
    /// ever dialed, including respawn replacements). Empty in
    /// in-process mode.
    link_stats: Vec<Arc<LinkStats>>,
    partitions: usize,
    broker: Broker,
    workers: Vec<WorkerHandle>,
    proxies: Vec<ProxyHandle>,
    shards: Vec<ShardHandle>,
    /// Registered queries, shared by reference with every worker
    /// command and the replay history.
    queries: HashMap<QueryId, (Arc<Query>, ExecutionParams)>,
    initializer: Initializer,
    /// The shared event clock, advanced exactly like `System`'s.
    now_ms: u64,
    next_serial: u32,
    /// Submitted epochs not yet completed, oldest first.
    in_flight: VecDeque<InFlightEpoch>,
    /// Closed, merged windows not yet returned.
    pending: Vec<QueryResult>,
    /// Recycled result shells for the merge step.
    spare_shells: Vec<QueryResult>,
    /// Estimators consumed by the last merge, owed back to each shard
    /// with its next close command.
    pending_recycle: Vec<Vec<BucketEstimator>>,
    /// Cumulative per-thread busy time (workers accumulate deltas;
    /// shard slots hold the latest cumulative reading; proxy times
    /// live in the handles' atomics).
    busy: BusyProfile,
    /// Panic records from supervised threads, drained as faults are
    /// reported.
    crashes: CrashLog,
    /// Global per-epoch decode accounting shared with every shard.
    ledger: Arc<EpochLedger>,
    /// Liveness registry: every thread beats a heartbeat here.
    watchdog: Watchdog,
    /// Every load and answer command ever issued, for worker-respawn
    /// replay (loads re-applied, answers muted; see [`ReplayCmd`]).
    history: Vec<ReplayCmd>,
    /// Deployment faults observed so far (panics, wedges, respawn
    /// failures), oldest first.
    faults: Vec<DeployError>,
    /// Epochs that closed with fewer answers than expected.
    partial_closes: u64,
    /// Answers expected but never accounted across all partial
    /// closes.
    lost_answers: u64,
    /// Threads respawned so far.
    respawns: u64,
    /// Worker batch flushes that hit the backpressure deadline (the
    /// proxies' stalls live in their handles' atomics; workers report
    /// theirs through epoch replies, tallied here).
    worker_backpressure: u64,
    /// Every `privapprox-node` child ever spawned (label, OS pid),
    /// including respawn replacements. Empty in in-process mode; used
    /// by [`ShardedSystem::child_cpu`].
    children: Vec<(String, u32)>,
    /// Multi-tenant schedule: queries admitted to
    /// [`ShardedSystem::submit_epoch_all`], in admission order.
    admitted: Vec<QueryId>,
    /// Per-query privacy-budget spend ledgers (unbounded unless
    /// [`ShardedSystem::set_budget`] assigned a cap).
    ledgers: HashMap<QueryId, BudgetLedger>,
    /// Typed terminal results of budget-retired queries, each
    /// reported exactly once via [`ShardedSystem::drain_retired`].
    retired: Vec<Retirement>,
    /// Every query ever retired (permanent — draining the terminal
    /// results must not let a spent query back into the schedule).
    terminal: Vec<QueryId>,
    /// Per-query feedback controllers (opt-in).
    feedback: HashMap<QueryId, FeedbackController>,
    /// Worst relative CI bound of each query's most recently
    /// finalized window — the feedback signal.
    last_error: HashMap<QueryId, f64>,
    /// Queries whose shards retain decoded answers for batch queries.
    retain_set: Vec<QueryId>,
    /// Recycled estimator for the batch-query path (the pooled
    /// estimator lifecycle the historical regression suite pins).
    batch_scratch: Option<BucketEstimator>,
    /// The durable store (journal + snapshots), when enabled.
    durable: Option<DurableState>,
    /// State reconstructed from the store at build time, consumed by
    /// [`ShardedSystem::resume`].
    recovered: Option<Box<RecoveredState>>,
    /// Per-(query, shard) window high-water marks: the largest window
    /// end each shard has contributed for each query, checkpointed in
    /// every close record.
    high_water: HashMap<(QueryId, usize), u64>,
    /// Committed `"aggregator"`-group offsets checkpointed by the
    /// crashed incarnation's last close. A restart rebuilds the broker
    /// log, so these are the *pre-crash* floors for audit/rebasing,
    /// not live positions; see [`ShardedSystem::recovered_offsets`].
    recovered_offsets: Vec<(String, usize, u64)>,
    /// Retained-warehouse contents recovered from the last snapshot,
    /// merged into [`ShardedSystem::batch_query`] answers (the shards'
    /// in-memory stores die with the crash).
    recovered_warehouses: HashMap<QueryId, Vec<(u64, u128, BitVec)>>,
    /// Lifetime epoch closes (snapshot meta; survives restarts).
    epochs_closed_total: u64,
    /// Lifetime submitted epochs (drives the crash-injection hook).
    epochs_submitted_total: u64,
    /// Test hook: abort after this submitted epoch's journal fsync.
    crash_after_journal: Option<u64>,
}

/// The typed terminal result of a query retired mid-stream by budget
/// exhaustion: its ledger rejected an epoch's `ε_zk` debit, so the
/// query left the schedule having sent nothing that epoch. Reported
/// exactly once via [`ShardedSystem::drain_retired`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Retirement {
    /// The retired query.
    pub query: QueryId,
    /// Total ε spent across the query's lifetime (≤ `allocated`).
    pub spent: f64,
    /// The lifetime allowance the ledger enforced.
    pub allocated: f64,
    /// Epochs the query answered before exhaustion.
    pub epochs: u64,
}

/// A deployment-wide health snapshot: the aggregator quad plus the
/// quarantine, degradation and supervision counters. See
/// [`ShardedSystem::deploy_health`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeployHealth {
    /// Records that failed decode (malformed / corrupt shares).
    pub undecodable: u64,
    /// Decoded answers for unregistered queries.
    pub unroutable: u64,
    /// Duplicate shares dropped by the joiner.
    pub duplicates: u64,
    /// Joins evicted incomplete after the join timeout.
    pub expired_joins: u64,
    /// Poisoned records preserved on the dead-letter topic.
    pub dead_lettered: u64,
    /// Decoded answers dropped behind the watermark (e.g. records
    /// arriving after their epoch partially closed).
    pub late_answers: u64,
    /// Epochs that closed on their deadline with fewer answers than
    /// expected (each one degraded to a smaller effective sample).
    pub partial_closes: u64,
    /// Answers expected but never accounted across partial closes.
    pub lost_answers: u64,
    /// Worker threads that panicked or wedged.
    pub worker_panics: u64,
    /// Shard threads that panicked or wedged.
    pub shard_panics: u64,
    /// Proxy threads that panicked.
    pub proxy_panics: u64,
    /// Threads respawned.
    pub respawns: u64,
    /// Backpressure deadlines hit by producers: relay retries plus
    /// worker batch flushes that gave up at the deadline.
    pub backpressure_stalls: u64,
    /// Socket links re-dialed after a severed connection (process
    /// transport; always zero in-process).
    pub reconnects: u64,
    /// Frames bounced by a node's admission control (`Overloaded` /
    /// `RateLimited` rejections observed by the parent's links).
    pub rejections: u64,
    /// Unacknowledged frames retransmitted after a resend stall.
    pub retries: u64,
    /// Poisoned records evicted from the bounded dead-letter topic to
    /// admit newer ones (drop-oldest overflow).
    pub dead_letter_dropped: u64,
    /// Successful crash recoveries of the durable store directory
    /// (persisted in snapshot meta, so it survives further restarts).
    /// Zero when the deployment is not durable.
    pub recoveries: u64,
    /// On-disk bytes of the recovery journal: live WAL segments plus
    /// the unsynced append buffer. Bounded to O(snapshot interval) by
    /// segment pruning at each snapshot.
    pub journal_bytes: u64,
    /// Snapshot files currently retained on disk (the newest plus one
    /// predecessor kept as a fallback).
    pub snapshot_count: u64,
}

impl ShardedSystem {
    /// Starts building a deployment.
    pub fn builder() -> ShardedSystemBuilder {
        ShardedSystemBuilder::default()
    }

    /// The configuration.
    pub fn config(&self) -> &ShardedConfig {
        &self.config
    }

    /// Replaces the initializer (e.g. to set a privacy ceiling).
    pub fn set_initializer(&mut self, init: Initializer) {
        self.initializer = init;
    }

    /// The partition a client is pinned to: `c mod partitions`.
    pub fn partition_of(&self, client: u64) -> usize {
        (client % self.partitions as u64) as usize
    }

    /// The shard owning a partition under the group assignment
    /// (`p mod shards` — shards joined the group in order, so rank
    /// equals shard index).
    pub fn shard_of_partition(&self, partition: usize) -> usize {
        partition % self.config.shards
    }

    /// Number of epochs currently in flight (submitted, not yet
    /// completed).
    pub fn in_flight_epochs(&self) -> usize {
        self.in_flight.len()
    }

    /// Populates every client with a one-row table holding a numeric
    /// column, exactly like
    /// [`System::load_numeric_column`](crate::System::load_numeric_column).
    /// Completes any in-flight epochs first: loads must not reorder
    /// around pending answer commands. The load is appended to the
    /// replay log, so respawned workers rebuild it.
    pub fn load_numeric_column<F>(&mut self, table: &str, column: &str, f: F) -> Result<(), CoreError>
    where
        F: Fn(usize) -> f64 + Send + Sync + 'static,
    {
        self.apply_load(LoadCmd::Numeric {
            table: table.to_string(),
            column: column.to_string(),
            f: Arc::new(f),
        })
    }

    /// Populates every client with arbitrary rows, exactly like
    /// [`System::load_rows`](crate::System::load_rows). Completes any
    /// in-flight epochs first; appended to the replay log.
    pub fn load_rows<F>(&mut self, table: &str, schema: Schema, f: F) -> Result<(), CoreError>
    where
        F: Fn(usize) -> Vec<Vec<Value>> + Send + Sync + 'static,
    {
        self.apply_load(LoadCmd::Rows {
            table: table.to_string(),
            schema,
            f: Arc::new(f),
        })
    }

    /// Sends a load to every live worker and waits for the acks. A
    /// worker dying mid-load is respawned — and the respawn replays
    /// the full load log, which already includes this load, so the
    /// replacement comes back fully populated.
    fn apply_load(&mut self, load: LoadCmd) -> Result<(), CoreError> {
        let _ = self.flush_epochs();
        self.repair();
        // Log before sending: a respawn triggered below must replay
        // this load too.
        self.history.push(ReplayCmd::Load(load.clone()));
        for w in &self.workers {
            if w.dead {
                continue;
            }
            let _ = w.cmd.send(WorkerCmd::Load(load.clone()));
        }
        let mut result = Ok(());
        for wi in 0..self.workers.len() {
            if self.workers[wi].dead {
                continue;
            }
            match self.workers[wi].reply.recv_timeout(self.control_wait()) {
                Ok(WorkerReply::Loaded) => {}
                Ok(WorkerReply::Answered { .. }) => unreachable!("load expects Loaded"),
                Err(err) => {
                    let fault = self.worker_down(wi, err);
                    if result.is_ok() {
                        result = Err(fault.into());
                    }
                    // A successful respawn replayed the log (this
                    // load included), so the deployment is whole
                    // again even though the fault is reported.
                    if self.respawn_worker(wi).is_ok() {
                        result = Ok(());
                    }
                }
            }
        }
        result
    }

    /// Opens an analyst session for query submission.
    pub fn analyst(&mut self) -> ShardedAnalystSession<'_> {
        ShardedAnalystSession {
            system: self,
            sql: String::new(),
            buckets: None,
            budget: Budget::default_accuracy(),
            window: None,
            explicit_params: None,
        }
    }

    /// The execution parameters currently assigned to a query.
    pub fn params(&self, id: QueryId) -> Option<ExecutionParams> {
        self.queries.get(&id).map(|(_, p)| *p)
    }

    /// Registers a signed query with explicit parameters on every
    /// shard (the lower-level path under
    /// [`ShardedAnalystSession::submit`]). Completes any in-flight
    /// epochs first so registration cannot interleave with pending
    /// closes. A shard dying mid-registration is respawned
    /// pre-registered (respawns register every known query), so the
    /// deployment never runs with a query known to some shards only.
    pub fn register(&mut self, query: Query, params: ExecutionParams) -> Result<(), CoreError> {
        let _ = self.flush_epochs();
        self.repair();
        // Record before sending: a respawn triggered below registers
        // from this map, covering the in-flight registration.
        let query = Arc::new(query);
        self.queries.insert(query.id, (Arc::clone(&query), params));
        // Journal before the shard sends: a crash mid-registration
        // recovers the query (re-registration appends a fresh record;
        // the latest wins at replay).
        if self.durable.is_some() {
            let rec = persist::rec_registered(
                &query,
                params,
                self.retain_set.contains(&query.id),
                self.next_serial as u64,
            );
            self.journal(persist::K_REGISTERED, rec)?;
            self.journal_sync()?;
        }
        for shard in &self.shards {
            if shard.dead {
                continue;
            }
            let _ = shard.cmd.send(ShardCmd::Register {
                query: Arc::clone(&query),
                params,
                population: self.config.clients,
                retain: self.retain_set.contains(&query.id),
            });
        }
        self.wake_shards();
        let mut result = Ok(());
        for s in 0..self.shards.len() {
            if self.shards[s].dead {
                continue;
            }
            match self.shards[s].reply.recv_timeout(self.control_wait()) {
                Ok(ShardReply::Registered) => {}
                Ok(_) => unreachable!("register expects Registered"),
                Err(err) => {
                    let fault = self.shard_down(s, err);
                    if result.is_ok() {
                        result = Err(fault.into());
                    }
                    if self.respawn_shard(s).is_ok() {
                        result = Ok(());
                    }
                }
            }
        }
        result
    }

    /// Submits one epoch of a query into the pipeline: the workers
    /// start answering immediately, while proxies forward and shards
    /// drain whatever earlier epochs are still in flight. If the
    /// pipeline is at [depth](ShardedSystemBuilder::pipeline_depth),
    /// the oldest epoch is completed first (its windows land in the
    /// [`ShardedSystem::drain_results`] buffer, and its client error —
    /// if any — is returned here).
    pub fn submit_epoch(&mut self, query: &Query) -> Result<(), CoreError> {
        let (registered, params) = self.queries.get(&query.id).ok_or(CoreError::UnknownQuery)?;
        // Commands and the history share the registered copy. A
        // caller's query that differs from it travels as its own copy
        // and is verified by the workers exactly as before.
        let query = if **registered == *query {
            Arc::clone(registered)
        } else {
            Arc::new(query.clone())
        };
        let params = *params;
        let depth = self.config.pipeline_depth.max(1);
        let mut result = Ok(());
        while self.in_flight.len() >= depth {
            let r = self.complete_oldest(false);
            if result.is_ok() {
                result = r;
            }
        }
        let window_size = query.window.size;
        let epoch_start = self.now_ms.div_ceil(window_size) * window_size;
        let ts = Timestamp(epoch_start + window_size / 2);
        let watermark = Timestamp(epoch_start + window_size);
        self.now_ms = watermark.0;
        // Durable barrier: the epoch's `Submitted` record is fsynced
        // before the first worker send, so a crash can never lose an
        // epoch whose shares escaped.
        let journal_mark = self.durable.as_ref().map_or(0, |d| d.wal.next_index());
        if self.durable.is_some() {
            let rec = persist::rec_submitted(
                ts,
                watermark,
                std::slice::from_ref(&(Arc::clone(&query), params)),
            );
            self.journal(persist::K_SUBMITTED, rec)?;
            self.journal_sync()?;
        }
        self.crash_hook();
        for wi in 0..self.workers.len() {
            if self.workers[wi].dead {
                continue;
            }
            let cmd = WorkerCmd::Answer {
                query: Arc::clone(&query),
                params,
                ts,
                live: true,
            };
            if self.workers[wi].cmd.send(cmd).is_ok() {
                continue;
            }
            // The command channel disconnected: the worker died since
            // its last reply. Report, respawn, and re-send this
            // epoch's command to the replacement (which replayed the
            // history, so its clients answer identically). This
            // epoch enters the history only below, after the send
            // loop — the replacement must receive it live, not as a
            // muted replay.
            let fault = self.worker_down(wi, RecvTimeoutError::Disconnected);
            if result.is_ok() {
                result = Err(fault.into());
            }
            if self.respawn_worker(wi).is_ok() {
                let resend = WorkerCmd::Answer {
                    query: Arc::clone(&query),
                    params,
                    ts,
                    live: true,
                };
                if self.workers[wi].cmd.send(resend).is_ok() {
                    result = Ok(());
                }
            }
        }
        self.history.push(ReplayCmd::Answer { query, params, ts });
        self.in_flight.push_back(InFlightEpoch {
            epoch: ts,
            watermark,
            cmds: 1,
            journal_mark,
        });
        result
    }

    /// Completes every in-flight epoch, oldest first: collects worker
    /// replies, issues the epoch-tagged closes, merges shard windows
    /// and finalizes results into the
    /// [`ShardedSystem::drain_results`] buffer. Returns the first
    /// client error encountered (later epochs still complete — the
    /// cleanup guarantee).
    pub fn flush_epochs(&mut self) -> Result<(), CoreError> {
        let mut result = Ok(());
        while !self.in_flight.is_empty() {
            let r = self.complete_oldest(false);
            if result.is_ok() {
                result = r;
            }
        }
        result
    }

    /// Runs one epoch of a query through the overlapped pipeline and
    /// waits for it: submit + flush. Within the epoch the stages
    /// still stream concurrently (workers feed proxies feed shards);
    /// across epochs, use [`ShardedSystem::submit_epoch`] to keep the
    /// pipeline full.
    ///
    /// Returns the epoch's windowed result — byte-identical to what
    /// [`System::run_epoch`](crate::System::run_epoch) returns for
    /// the same configuration and seed, at any pipeline depth.
    pub fn run_epoch(&mut self, query: &Query) -> Result<QueryResult, CoreError> {
        let mut outcome = self.submit_epoch(query);
        let flushed = self.flush_epochs();
        if outcome.is_ok() {
            outcome = flushed;
        }
        outcome?;
        let idx = self
            .pending
            .iter()
            .rposition(|r| r.query == query.id)
            .ok_or(CoreError::UnknownQuery)?;
        Ok(self.pending.remove(idx))
    }

    // ----- multi-tenant schedule ------------------------------------

    /// Admits a registered query to the multi-tenant schedule:
    /// [`ShardedSystem::submit_epoch_all`] answers every admitted
    /// query each epoch, sharing the worker pool. Queries on one
    /// schedule must agree on window size (one shared event clock
    /// tags each epoch). Re-admitting is a no-op; a budget-retired
    /// query cannot come back (its allowance is spent).
    pub fn admit(&mut self, query: QueryId) -> Result<(), CoreError> {
        let (q, _) = self.queries.get(&query).ok_or(CoreError::UnknownQuery)?;
        if self.terminal.contains(&query) {
            return Err(CoreError::Deploy(DeployError::InvalidConfig(format!(
                "query {query:?} was retired: its privacy budget is spent"
            ))));
        }
        if self.admitted.contains(&query) {
            return Ok(());
        }
        if let Some(first) = self.admitted.first() {
            let shared = self.queries[first].0.window.size;
            if q.window.size != shared {
                return Err(CoreError::Deploy(DeployError::InvalidConfig(format!(
                    "scheduled queries must share a window size: {} != {}",
                    q.window.size, shared
                ))));
            }
        }
        self.admitted.push(query);
        if self.durable.is_some() {
            self.journal(persist::K_ADMITTED, persist::rec_query_only(query))?;
            self.journal_sync()?;
        }
        Ok(())
    }

    /// The queries currently admitted to the epoch schedule, in
    /// admission order.
    pub fn admitted(&self) -> &[QueryId] {
        &self.admitted
    }

    /// Withdraws a query from the schedule without retiring it: the
    /// ledger keeps its spend and the query may be re-admitted.
    pub fn withdraw(&mut self, query: QueryId) {
        self.admitted.retain(|q| *q != query);
        // Buffered append only: the withdrawal becomes durable with
        // the next epoch's sync. Losing it re-admits the query on
        // recovery — a scheduling hiccup, never a privacy leak (every
        // epoch still charges before sending).
        if self.durable.is_some() {
            if let Err(CoreError::Deploy(fault)) =
                self.journal(persist::K_WITHDRAWN, persist::rec_query_only(query))
            {
                self.faults.push(fault);
            }
        }
    }

    /// Assigns a lifetime privacy budget to a query, replacing its
    /// ledger. Every scheduled epoch debits `ε_zk(s, p, q)` — the
    /// zero-knowledge privacy spend of one answer under sampling and
    /// randomized response (paper Equation 9). Once a debit would
    /// overdraw, the query is retired mid-stream: it answers no
    /// further epochs and its typed terminal [`Retirement`] surfaces
    /// via [`ShardedSystem::drain_retired`].
    pub fn set_budget(&mut self, query: QueryId, budget: PrivacyBudget) -> Result<(), CoreError> {
        if !self.queries.contains_key(&query) {
            return Err(CoreError::UnknownQuery);
        }
        let ledger = BudgetLedger::new(budget);
        let allocated = ledger.allocated();
        self.ledgers.insert(query, ledger);
        if self.durable.is_some() {
            self.journal(persist::K_BUDGET, persist::rec_budget(query, allocated))?;
            self.journal_sync()?;
        }
        Ok(())
    }

    /// The query's spend ledger, if one exists (assigned by
    /// [`ShardedSystem::set_budget`] or created unbounded on its
    /// first scheduled epoch).
    pub fn budget_ledger(&self, query: QueryId) -> Option<&BudgetLedger> {
        self.ledgers.get(&query)
    }

    /// Terminal results of queries retired by budget exhaustion since
    /// the last drain, in retirement order. Each retirement is
    /// reported exactly once.
    pub fn drain_retired(&mut self) -> Vec<Retirement> {
        std::mem::take(&mut self.retired)
    }

    /// Attaches a StreamApprox-style feedback controller: each
    /// [`ShardedSystem::apply_feedback`] re-tunes the query's
    /// execution parameters from the previous window's observed
    /// error.
    pub fn enable_feedback(
        &mut self,
        query: QueryId,
        controller: FeedbackController,
    ) -> Result<(), CoreError> {
        if !self.queries.contains_key(&query) {
            return Err(CoreError::UnknownQuery);
        }
        self.feedback.insert(query, controller);
        Ok(())
    }

    /// The worst relative CI bound observed in the query's most
    /// recently finalized window — the feedback signal.
    pub fn last_observed_error(&self, query: QueryId) -> Option<f64> {
        self.last_error.get(&query).copied()
    }

    /// Flushes the pipeline, then re-tunes every admitted query that
    /// has a controller and an observed error, re-registering changed
    /// parameters on every shard. Flushing first keeps the pipelined
    /// schedule equivalent to an isolated run: the retune takes
    /// effect at exactly the same epoch boundary in both.
    pub fn apply_feedback(&mut self) -> Result<(), CoreError> {
        let mut result = self.flush_epochs();
        let mut retunes = Vec::new();
        for qid in &self.admitted {
            let (Some(ctrl), Some(err)) = (self.feedback.get(qid), self.last_error.get(qid))
            else {
                continue;
            };
            let params = self.queries[qid].1;
            let (next, changed) = ctrl.retune(params, *err);
            if changed {
                retunes.push((*qid, next));
            }
        }
        for (qid, next) in retunes {
            let query = Query::clone(&self.queries[&qid].0);
            let r = self.register(query, next);
            if result.is_ok() {
                result = r;
            }
        }
        result
    }

    /// Submits one multi-tenant epoch: every admitted query is
    /// answered by every client under ONE shared epoch timestamp —
    /// one participation flip, randomization, split and send per
    /// (client, query), batched through the zero-copy `append_batch`
    /// path — after charging each query's budget ledger for the
    /// epoch. A query whose ledger cannot cover the `ε_zk` debit is
    /// retired *before* any command is sent (exactly one
    /// [`Retirement`], zero shares this epoch) and the epoch proceeds
    /// with the survivors; with no survivors, nothing is submitted.
    pub fn submit_epoch_all(&mut self) -> Result<(), CoreError> {
        // Budget pass first: charging happens strictly before any
        // worker command, so an exhausted query contributes nothing
        // to the epoch it was retired in.
        let schedule = std::mem::take(&mut self.admitted);
        let mut batch: Vec<(Arc<Query>, ExecutionParams)> = Vec::with_capacity(schedule.len());
        // Journal material gathered during the pass: each successful
        // debit's *absolute* post-charge state (idempotent at replay)
        // and each retirement. The charge records themselves are
        // appended below, once the epoch timestamp is known.
        let mut charged: Vec<(QueryId, f64, f64, u64)> = Vec::new();
        let mut retire_recs: Vec<Vec<u8>> = Vec::new();
        let durable_on = self.durable.is_some();
        for qid in schedule {
            let (query, params) = self
                .queries
                .get(&qid)
                .expect("admitted queries are registered")
                .clone();
            let eps = epsilon_zk(params.s, params.p, params.q);
            let ledger = self
                .ledgers
                .entry(qid)
                .or_insert_with(|| BudgetLedger::new(PrivacyBudget::unbounded()));
            match ledger.try_charge(eps) {
                Ok(()) => {
                    if durable_on {
                        charged.push((qid, eps, ledger.spent(), ledger.epochs()));
                    }
                    self.admitted.push(qid);
                    batch.push((query, params));
                }
                Err(exhausted) => {
                    let retirement = Retirement {
                        query: qid,
                        spent: exhausted.spent,
                        allocated: exhausted.allocated,
                        epochs: exhausted.epochs,
                    };
                    if durable_on {
                        retire_recs.push(persist::rec_retired(&retirement));
                    }
                    self.terminal.push(qid);
                    self.retired.push(retirement);
                }
            }
        }
        for rec in retire_recs {
            self.journal(persist::K_RETIRED, rec)?;
        }
        if batch.is_empty() {
            // No epoch sync will follow: make any retirements durable
            // now.
            self.journal_sync()?;
            return Ok(());
        }
        let depth = self.config.pipeline_depth.max(1);
        let mut result = Ok(());
        while self.in_flight.len() >= depth {
            let r = self.complete_oldest(false);
            if result.is_ok() {
                result = r;
            }
        }
        // One shared clock step for the whole schedule (`admit`
        // validated the equal window sizes).
        let window_size = batch[0].0.window.size;
        let epoch_start = self.now_ms.div_ceil(window_size) * window_size;
        let ts = Timestamp(epoch_start + window_size / 2);
        let watermark = Timestamp(epoch_start + window_size);
        self.now_ms = watermark.0;
        // Durable barrier: every ledger debit plus the epoch's
        // `Submitted` record land under ONE fsync, strictly before the
        // first worker send. A crash after the sync re-runs the epoch
        // without re-charging; a crash before it leaves (at worst)
        // orphan charges that reconstruction drops — the recovered
        // spend can only under-report, never over-spend ε.
        let journal_mark = self.durable.as_ref().map_or(0, |d| d.wal.next_index());
        if durable_on {
            for (qid, eps, spent_after, epochs_after) in &charged {
                let rec = persist::rec_charge(*qid, ts, *eps, *spent_after, *epochs_after);
                self.journal(persist::K_CHARGE, rec)?;
            }
            let rec = persist::rec_submitted(ts, watermark, &batch);
            self.journal(persist::K_SUBMITTED, rec)?;
            self.journal_sync()?;
        }
        self.crash_hook();
        for wi in 0..self.workers.len() {
            if self.workers[wi].dead {
                continue;
            }
            let mut sent = 0;
            while sent < batch.len() {
                let (query, params) = &batch[sent];
                let cmd = WorkerCmd::Answer {
                    query: Arc::clone(query),
                    params: *params,
                    ts,
                    live: true,
                };
                if self.workers[wi].cmd.send(cmd).is_ok() {
                    sent += 1;
                    continue;
                }
                // Dead since its last reply: report, respawn (the
                // replacement replays prior history muted), then
                // replay this epoch's batch live from the top — the
                // dead channel swallowed the commands already sent.
                let fault = self.worker_down(wi, RecvTimeoutError::Disconnected);
                if result.is_ok() {
                    result = Err(fault.into());
                }
                if self.respawn_worker(wi).is_err() {
                    break;
                }
                sent = 0;
                result = Ok(());
            }
        }
        let cmds = batch.len();
        for (query, params) in batch {
            self.history.push(ReplayCmd::Answer { query, params, ts });
        }
        self.in_flight.push_back(InFlightEpoch {
            epoch: ts,
            watermark,
            cmds,
            journal_mark,
        });
        result
    }

    /// Runs one multi-tenant epoch to completion: submit + flush.
    /// Every admitted query's windows land in
    /// [`ShardedSystem::drain_results`], sorted by window start then
    /// query id; retirements surface via
    /// [`ShardedSystem::drain_retired`].
    pub fn run_epoch_all(&mut self) -> Result<(), CoreError> {
        let mut outcome = self.submit_epoch_all();
        let flushed = self.flush_epochs();
        if outcome.is_ok() {
            outcome = flushed;
        }
        outcome
    }

    /// Turns on historical retention for a registered query: every
    /// shard keeps the decoded randomized answers it routes to the
    /// query, and [`ShardedSystem::batch_query`] answers batch
    /// queries over the retained stream (paper §3.3.1). In-process
    /// transport only — a remote shard child holds no fetchable
    /// store.
    pub fn retain_history(&mut self, query: QueryId) -> Result<(), CoreError> {
        if !matches!(self.transport, TransportMode::InProcess) {
            return Err(CoreError::Deploy(DeployError::InvalidConfig(
                "historical retention requires in-process shards".into(),
            )));
        }
        if self.retain_set.contains(&query) {
            return Ok(());
        }
        let (q, params) = self
            .queries
            .get(&query)
            .ok_or(CoreError::UnknownQuery)?
            .clone();
        self.retain_set.push(query);
        // Re-register with the retain flag; `register` flushes
        // in-flight epochs first, so retention starts at an epoch
        // boundary.
        self.register(Query::clone(&q), params)
    }

    /// Answers a historical/batch query over the retained stream:
    /// the shards' stored answers for `query` within `range` are
    /// merged in canonical `(timestamp, MID)` order — threaded
    /// arrival interleavings cannot show — and re-sampled down to
    /// `batch_budget` answers (the §3.3.1 second sampling round)
    /// with an RNG derived deterministically from the deployment
    /// seed, the query and the range.
    pub fn batch_query(
        &mut self,
        query: QueryId,
        range: Window,
        batch_budget: usize,
    ) -> Result<QueryResult, CoreError> {
        if !self.retain_set.contains(&query) {
            return Err(CoreError::Deploy(DeployError::InvalidConfig(
                "historical retention is not enabled for this query".into(),
            )));
        }
        let mut first_error = self.flush_epochs().err();
        self.repair();
        let (q, params) = self
            .queries
            .get(&query)
            .ok_or(CoreError::UnknownQuery)?
            .clone();
        for shard in &self.shards {
            if shard.dead {
                continue;
            }
            let _ = shard.cmd.send(ShardCmd::Fetch { query, range });
        }
        self.wake_shards();
        let mut warehouse = Warehouse::new(query, q.answer.len(), params, self.config.clients);
        let wait = self.control_wait();
        for s in 0..self.shards.len() {
            if self.shards[s].dead {
                continue;
            }
            match self.shards[s].reply.recv_timeout(wait) {
                Ok(ShardReply::Stored { answers }) => {
                    for (ts, mid, answer) in answers {
                        warehouse.append(Timestamp(ts), MessageId(mid), answer);
                    }
                }
                Ok(_) => unreachable!("fetch expects Stored"),
                Err(err) => {
                    // The dead shard's retained history died with it:
                    // the batch answer degrades to the surviving
                    // stores, and the fault is reported.
                    let fault = self.shard_down(s, err);
                    first_error = first_error.or(Some(fault.into()));
                    let _ = self.respawn_shard(s);
                }
            }
        }
        // Answers retained before a crash live in the recovered
        // snapshot, not in the restarted shards' stores; the
        // warehouse's `(timestamp, MID)` keying dedups any overlap
        // with post-restart retention.
        if let Some(prev) = self.recovered_warehouses.get(&query) {
            for (ts, mid, answer) in prev {
                if range.contains(Timestamp(*ts)) {
                    warehouse.append(Timestamp(*ts), MessageId(*mid), answer.clone());
                }
            }
        }
        // Deterministic batch sampling: the same seed, query and
        // range always draw the same reservoir, so concurrent and
        // isolated runs agree byte for byte.
        let mut rng = StdRng::seed_from_u64(
            self.config.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ query.to_u64().rotate_left(17)
                ^ range.start.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
                ^ range.end.0,
        );
        // The estimator comes from the recycled scratch slot — the
        // pooled lifecycle the historical regression suite pins (a
        // dirty estimator must never leak a prior query's counts).
        let mut est = self
            .batch_scratch
            .take()
            .unwrap_or_else(|| BucketEstimator::new(q.answer.len(), params.p.min(1.0), params.q));
        let result =
            warehouse.batch_query_with(&mut est, range, batch_budget, self.config.confidence, &mut rng);
        self.batch_scratch = Some(est);
        match first_error {
            Some(e) => Err(e),
            None => Ok(result),
        }
    }

    /// Wakes shard threads parked in their blocking polls so a
    /// control message is observed at wakeup latency (shards park on
    /// their first subscribed topic's condvar).
    fn wake_shards(&self) {
        self.broker.notify_topic(&shard_park_topic());
    }

    /// Completes the oldest in-flight epoch. `lenient` (drop path)
    /// tolerates dead threads and incomplete drains without reporting
    /// faults or respawning.
    ///
    /// This is the supervised heart of the runtime: every wait is
    /// deadlined, a worker or shard that died mid-epoch surfaces as a
    /// typed [`DeployError`] (and is respawned), and an epoch whose
    /// global accounting cannot settle closes **partially** — the
    /// shards emit the decodes they have, the estimate scales by the
    /// observed sample (degrade-to-sampling), and the loss is counted
    /// in [`DeployHealth`].
    fn complete_oldest(&mut self, lenient: bool) -> Result<(), CoreError> {
        let Some(ep) = self.in_flight.pop_front() else {
            return Ok(());
        };
        // Worker replies arrive strictly in command order per worker,
        // so the oldest pending Answered on each channel is this
        // epoch's. A respawned worker skips the replies its dead
        // predecessor still owed (`reply_debt`).
        let wait = self.control_wait();
        let mut per_partition = vec![0u64; self.partitions];
        let mut first_error: Option<CoreError> = None;
        for wi in 0..self.workers.len() {
            // A multi-tenant epoch issued one Answer per scheduled
            // query; each worker owes that many replies.
            'replies: for _ in 0..ep.cmds {
                if self.workers[wi].dead {
                    break 'replies;
                }
                if self.workers[wi].reply_debt > 0 {
                    self.workers[wi].reply_debt -= 1;
                    continue;
                }
                let reply = match self.workers[wi].reply.recv_timeout(wait) {
                    Ok(r) => r,
                    Err(err) => {
                        if lenient {
                            self.workers[wi].dead = true;
                        } else {
                            let fault = self.worker_down(wi, err);
                            first_error = first_error.or(Some(fault.into()));
                            let _ = self.respawn_worker(wi);
                        }
                        // The dead worker's remaining replies for this
                        // epoch died with it; a successful respawn owes
                        // replies only for the *later* in-flight epochs.
                        break 'replies;
                    }
                };
                match reply {
                    WorkerReply::Answered {
                        per_partition: counts,
                        error,
                        busy,
                    } => {
                        self.busy.workers[wi] += busy;
                        for (total, n) in per_partition.iter_mut().zip(&counts) {
                            *total += n;
                        }
                        if let Some(e) = error {
                            if matches!(e, CoreError::Deploy(DeployError::Backpressure { .. })) {
                                self.worker_backpressure += 1;
                            }
                            first_error = first_error.or(Some(e));
                        }
                    }
                    WorkerReply::Loaded => unreachable!("answer expects Answered"),
                }
            }
        }
        // Sweep dead relays before waiting on the closes: a dead
        // proxy strands shares on its inbound topic, and respawning
        // it now lets the close drain instead of deadlining.
        if !lenient {
            self.check_proxies();
        }
        // Even when a client errored, the epoch still closes: the
        // shares sent before the failure are in the broker, and the
        // epoch-tagged close (with the exact partial count) is what
        // lets later — possibly already in-flight — epochs proceed
        // from consistent accounting. The partial window surfaces via
        // `drain_results`, mirroring `System`. The error is returned
        // after cleanup.
        //
        // The close carries the epoch's *total* expectation — every
        // shard closes against the global ledger, which stays correct
        // when a respawn reshuffles the partition → shard assignment.
        let expect: u64 = per_partition.iter().sum();
        for (s, shard) in self.shards.iter().enumerate() {
            if shard.dead {
                continue;
            }
            let _ = shard.cmd.send(ShardCmd::Close(CloseCmd {
                epoch: ep.epoch,
                expect,
                watermark: ep.watermark,
                recycle: std::mem::take(&mut self.pending_recycle[s]),
            }));
        }
        self.wake_shards();
        // A live shard replies within the epoch deadline by
        // construction (the deadline fires the close even when the
        // accounting cannot settle); the slack on top only covers
        // scheduling, so a miss means the thread is gone.
        let shard_wait = self.config.epoch_deadline + wait;
        let mut merged: Vec<(QueryId, Window, BucketEstimator, usize)> = Vec::new();
        let mut total_decoded = 0u64;
        for s in 0..self.shards.len() {
            if self.shards[s].dead {
                continue;
            }
            let mut retried = false;
            loop {
                match self.shards[s].reply.recv_timeout(shard_wait) {
                    Ok(ShardReply::Closed {
                        decoded,
                        windows,
                        busy,
                    }) => {
                        self.busy.shards[s] = self.shards[s].busy_base + busy;
                        total_decoded += decoded;
                        for rw in windows {
                            match merged
                                .iter_mut()
                                .find(|(q, w, _, _)| *q == rw.query && *w == rw.window)
                            {
                                Some((_, _, est, _)) => {
                                    est.merge(&rw.estimator);
                                    self.pending_recycle[s].push(rw.estimator);
                                }
                                None => merged.push((rw.query, rw.window, rw.estimator, s)),
                            }
                        }
                        break;
                    }
                    Ok(_) => unreachable!("close expects Closed"),
                    Err(err) => {
                        if lenient {
                            self.shards[s].dead = true;
                            break;
                        }
                        let fault = self.shard_down(s, err);
                        first_error = first_error.or(Some(fault.into()));
                        if retried || self.respawn_shard(s).is_err() {
                            break;
                        }
                        // Re-issue the close to the replacement: the
                        // windows the dead shard held are lost (the
                        // close goes partial), but the watermark
                        // still advances on every shard — in order.
                        retried = true;
                        let _ = self.shards[s].cmd.send(ShardCmd::Close(CloseCmd {
                            epoch: ep.epoch,
                            expect,
                            watermark: ep.watermark,
                            recycle: Vec::new(),
                        }));
                        self.wake_shards();
                    }
                }
            }
        }
        // Fewer decodes accounted than answers sent: the epoch closed
        // partially (deadline fired, or a shard died with decodes in
        // its windows). More is also possible — a dead worker's
        // pre-crash shares decode without a reply to expect them —
        // and is not a degradation.
        if !lenient && total_decoded < expect {
            self.partial_closes += 1;
            self.lost_answers += expect - total_decoded;
        }
        self.ledger.retire(ep.epoch);
        merged.sort_unstable_by_key(|(q, w, _, _)| (w.start, q.to_u64()));
        let pending_base = self.pending.len();
        for (qid, window, mut est, src) in merged {
            if self.durable.is_some() {
                // Per-(query, shard) window high-water mark: the
                // largest window end this shard has contributed,
                // checkpointed in the close record below.
                let hw = self.high_water.entry((qid, src)).or_insert(0);
                *hw = (*hw).max(window.end.0);
            }
            let (_, qparams) = self.queries.get(&qid).expect("registered query");
            let mut shell = self.spare_shells.pop().unwrap_or_else(QueryResult::shell);
            finalize_window_into(
                &mut shell,
                qid,
                window,
                &mut est,
                *qparams,
                self.config.clients,
                self.config.confidence,
            );
            // Feedback signal: the most recent window's worst relative
            // CI bound (windows are sorted by start, so the newest
            // observation wins).
            self.last_error.insert(qid, shell.worst_relative_bound());
            self.pending.push(shell);
            self.pending_recycle[src].push(est);
        }
        // Checkpoint the close: finalized results, the shard group's
        // committed offsets and the window high-water marks, fsynced
        // before the results can be drained. The lenient (drop) path
        // never journals — an epoch abandoned at drop stays open in
        // the journal and is re-run on recovery (at-least-once).
        if !lenient && self.durable.is_some() {
            let offsets = self.broker.committed_offsets("aggregator");
            let mut marks: Vec<(QueryId, usize, u64)> = self
                .high_water
                .iter()
                .map(|(&(q, s), &hw)| (q, s, hw))
                .collect();
            marks.sort_unstable_by_key(|&(q, s, _)| (q.to_u64(), s));
            let rec = persist::rec_closed(&CloseRecord {
                epoch: ep.epoch,
                watermark: ep.watermark,
                partial: total_decoded < expect,
                lost: expect.saturating_sub(total_decoded),
                results: &self.pending[pending_base..],
                offsets: &offsets,
                marks: &marks,
            });
            let journaled = self
                .journal(persist::K_CLOSED, rec)
                .and_then(|()| self.journal_sync());
            if let Err(e) = journaled {
                first_error = first_error.or(Some(e));
            }
            self.epochs_closed_total += 1;
            let due = {
                let d = self.durable.as_mut().expect("durable checked above");
                d.closes_since_snapshot += 1;
                d.closes_since_snapshot >= d.snapshot_every
            };
            if due {
                if let Err(e) = self.write_snapshot_now() {
                    first_error = first_error.or(Some(e));
                }
            }
        }
        match first_error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Drains any additional closed windows (sliding-window queries
    /// emit several per epoch; pipelined submissions park every
    /// completed epoch's results here).
    pub fn drain_results(&mut self) -> Vec<QueryResult> {
        std::mem::take(&mut self.pending)
    }

    /// Returns consumed results to the merge step's shell pool.
    pub fn recycle_results(&mut self, consumed: &mut Vec<QueryResult>) {
        self.spare_shells.append(consumed);
    }

    /// Broker traffic counters.
    pub fn broker_stats(&self) -> BrokerStats {
        self.broker.stats()
    }

    /// The deployment's broker, for tests and external taps that
    /// attach extra consumers (e.g. mirroring a topic, or wedging a
    /// partition's committed floor to exercise backpressure).
    pub fn broker(&self) -> &Broker {
        &self.broker
    }

    /// Aggregated shard health counters: `(undecodable, unroutable,
    /// duplicates, expired_joins)` summed across shards. Completes
    /// any in-flight epochs first, so the snapshot covers everything
    /// submitted so far.
    pub fn aggregator_health(&mut self) -> (u64, u64, u64, u64) {
        let t = self.probe_shards();
        (t.0, t.1, t.2, t.3)
    }

    /// Probes every live shard for its cumulative counters:
    /// `(undecodable, unroutable, duplicates, expired_joins,
    /// dead_lettered, late_answers)` summed across shards.
    fn probe_shards(&mut self) -> (u64, u64, u64, u64, u64, u64) {
        let _ = self.flush_epochs();
        self.repair();
        let mut totals = (0, 0, 0, 0, 0, 0);
        for shard in &self.shards {
            if shard.dead {
                continue;
            }
            let _ = shard.cmd.send(ShardCmd::Probe);
        }
        self.wake_shards();
        for s in 0..self.shards.len() {
            if self.shards[s].dead {
                continue;
            }
            match self.shards[s].reply.recv_timeout(self.control_wait()) {
                Ok(ShardReply::Health {
                    quad,
                    dead_lettered,
                    late_answers,
                    busy,
                }) => {
                    self.busy.shards[s] = self.shards[s].busy_base + busy;
                    totals.0 += quad.0;
                    totals.1 += quad.1;
                    totals.2 += quad.2;
                    totals.3 += quad.3;
                    totals.4 += dead_lettered;
                    totals.5 += late_answers;
                }
                Ok(_) => unreachable!("probe expects Health"),
                Err(err) => {
                    // A shard that died since its last close: its
                    // counters are lost with it (the respawn restarts
                    // them at zero).
                    let _ = self.shard_down(s, err);
                    let _ = self.respawn_shard(s);
                }
            }
        }
        totals
    }

    /// The deployment-wide health snapshot: data-plane quarantine and
    /// degradation counters plus the supervision record. Completes
    /// in-flight epochs and repairs dead threads first.
    pub fn deploy_health(&mut self) -> DeployHealth {
        let t = self.probe_shards();
        let mut health = DeployHealth {
            undecodable: t.0,
            unroutable: t.1,
            duplicates: t.2,
            expired_joins: t.3,
            dead_lettered: t.4,
            late_answers: t.5,
            partial_closes: self.partial_closes,
            lost_answers: self.lost_answers,
            respawns: self.respawns,
            backpressure_stalls: self.worker_backpressure
                + self
                    .proxies
                    .iter()
                    .map(|p| p.backpressure.load(Ordering::Relaxed))
                    .sum::<u64>(),
            reconnects: self
                .link_stats
                .iter()
                .map(|l| l.reconnects.load(Ordering::Relaxed))
                .sum(),
            rejections: self
                .link_stats
                .iter()
                .map(|l| l.rejections.load(Ordering::Relaxed))
                .sum(),
            retries: self
                .link_stats
                .iter()
                .map(|l| l.resends.load(Ordering::Relaxed))
                .sum(),
            dead_letter_dropped: self.broker.topic_dropped(DEAD_LETTER_TOPIC),
            recoveries: self.durable.as_ref().map_or(0, |d| d.recoveries),
            journal_bytes: self.durable.as_ref().map_or(0, |d| d.journal_bytes()),
            snapshot_count: self.durable.as_ref().map_or(0, |d| d.snapshot_count()),
            ..DeployHealth::default()
        };
        for fault in &self.faults {
            match fault {
                DeployError::WorkerPanic { .. } => health.worker_panics += 1,
                DeployError::ShardPanic { .. } => health.shard_panics += 1,
                DeployError::ProxyPanic { .. } => health.proxy_panics += 1,
                _ => {}
            }
        }
        health
    }

    /// Every deployment fault observed so far (panics, wedges,
    /// respawn failures), oldest first. Faults are also returned from
    /// the epoch API as they happen; this is the cumulative record.
    pub fn faults(&self) -> &[DeployError] {
        &self.faults
    }

    /// Liveness snapshot of every supervised thread from the
    /// heartbeat registry: `(thread name, status)`, stale when the
    /// thread has not beaten within `stale_after`. Workers beat at
    /// least every [`WORKER_IDLE_BEAT`](ShardedSystemBuilder) while
    /// idle; proxies and shards beat once per park interval — pass a
    /// `stale_after` comfortably above ~250 ms.
    pub fn thread_health(&self, stale_after: Duration) -> Vec<(String, HeartbeatStatus)> {
        self.watchdog.statuses(stale_after)
    }

    /// Records quarantined on the dead-letter topic and not yet
    /// consumed by an operator (poisoned input is preserved verbatim
    /// for offline inspection, never silently dropped).
    pub fn dead_letter_backlog(&self) -> u64 {
        self.broker.topic_len(DEAD_LETTER_TOPIC)
    }

    /// Chaos hook: makes worker `w` panic on its next command poll.
    /// Waits for the thread to finish unwinding before returning, so
    /// the fault lands at a deterministic point: a command sent after
    /// this call fails fast (dead channel → respawn + live replay)
    /// instead of racing the unwind and being accepted-then-lost —
    /// the equivalence suites inject between epochs and need both
    /// runs of a pair on the same side of that race.
    pub fn inject_worker_panic(&mut self, w: usize) {
        let _ = self.workers[w].cmd.send(WorkerCmd::Die);
        while self.workers[w]
            .thread
            .as_ref()
            .is_some_and(|t| !t.is_finished())
        {
            std::thread::yield_now();
        }
    }

    /// Chaos hook: makes shard `s` panic on its next control check.
    pub fn inject_shard_panic(&mut self, s: usize) {
        let _ = self.shards[s].cmd.send(ShardCmd::Die);
        self.wake_shards();
    }

    // -- durability --------------------------------------------------------

    /// Buffers one journal record when the deployment is durable
    /// (no-op otherwise, and while a recovery replay is muted).
    fn journal(&mut self, kind: u8, payload: Vec<u8>) -> Result<(), CoreError> {
        match self.durable.as_mut() {
            Some(d) => d.append(kind, &payload).map_err(persist_err),
            None => Ok(()),
        }
    }

    /// Fsyncs every buffered journal record — the durability barrier
    /// the submit paths cross before their first worker send.
    fn journal_sync(&mut self) -> Result<(), CoreError> {
        match self.durable.as_mut() {
            Some(d) => d.sync().map_err(persist_err),
            None => Ok(()),
        }
    }

    /// Counts a submitted epoch and fires the
    /// [`crash_after_journal`](ShardedSystemBuilder::crash_after_journal)
    /// hook: `abort()` exactly *after* the chosen epoch's journal
    /// fsync and *before* any of its worker sends — the widest gap
    /// the recovery contract must close.
    fn crash_hook(&mut self) {
        let n = self.epochs_submitted_total;
        self.epochs_submitted_total += 1;
        if self.crash_after_journal == Some(n) {
            std::process::abort();
        }
    }

    /// True when the store directory held a previous incarnation's
    /// state at build time; call [`ShardedSystem::resume`] (after
    /// re-issuing loads) to adopt it.
    pub fn needs_recovery(&self) -> bool {
        self.recovered.is_some()
    }

    /// The `"aggregator"` consumer group's committed offsets as
    /// checkpointed by the crashed incarnation's last close:
    /// `(topic, partition, next offset)`. A restart rebuilds the
    /// broker log from its origin, so these are reported as the
    /// pre-crash floors (everything below them was consumed by
    /// closed, journaled epochs) rather than force-restored — the
    /// rebuilt log's origin *is* the rebased floor, and re-run open
    /// epochs must be consumable above it.
    pub fn recovered_offsets(&self) -> &[(String, usize, u64)] {
        &self.recovered_offsets
    }

    /// Adopts the state recovered from the durable store: queries are
    /// re-registered on every shard, budget ledgers restored to their
    /// journaled spend, the schedule and retirement set rebuilt, the
    /// muted command history replayed into every worker (advancing
    /// client RNG streams to exactly where the crashed deployment's
    /// were — the same mechanism as a worker respawn), pending results
    /// and retained warehouses restored, and every submitted-but-
    /// unclosed epoch re-run live **without re-charging** (its debits
    /// are already in the restored ledgers). Returns the recovered
    /// queries, oldest first.
    ///
    /// Call order matters: loads hold closures the store cannot
    /// serialize, so the caller re-issues
    /// [`load_numeric_column`](ShardedSystem::load_numeric_column) /
    /// [`load_rows`](ShardedSystem::load_rows) *before* `resume` —
    /// the replayed answers need the tables in place. With nothing to
    /// recover this is a no-op returning an empty list.
    pub fn resume(&mut self) -> Result<Vec<Query>, CoreError> {
        let Some(rec) = self.recovered.take() else {
            return Ok(Vec::new());
        };
        let rec = *rec;
        // Everything restored below *came from* the journal:
        // re-journaling it would duplicate records, so appends are
        // muted until the live re-submissions at the end.
        if let Some(d) = self.durable.as_mut() {
            d.muted = true;
        }
        self.now_ms = self.now_ms.max(rec.now_ms);
        self.next_serial = self.next_serial.max(rec.next_serial as u32);
        self.partial_closes = rec.partial_closes;
        self.lost_answers = rec.lost_answers;
        self.epochs_closed_total = rec.epochs_closed;
        self.terminal = rec.terminal;
        self.recovered_offsets = rec.offsets;
        for (qid, shard, hw) in rec.marks {
            self.high_water.insert((qid, shard), hw);
        }
        for (qid, entries) in rec.warehouses {
            self.recovered_warehouses.insert(qid, entries);
        }
        self.pending.extend(rec.pending);
        // Retention flags first: `register` reads them to re-enable
        // shard-side retention for recovered queries.
        for rq in &rec.queries {
            if rq.retain && !self.retain_set.contains(&rq.query.id) {
                self.retain_set.push(rq.query.id);
            }
        }
        let mut result = Ok(());
        let mut queries = Vec::with_capacity(rec.queries.len());
        for rq in rec.queries {
            let r = self.register(rq.query.clone(), rq.params);
            if result.is_ok() {
                result = r;
            }
            if let Some(ledger) = rq.ledger {
                self.ledgers.insert(rq.query.id, ledger);
            }
            queries.push(rq.query);
        }
        for qid in rec.admitted {
            if self.queries.contains_key(&qid)
                && !self.terminal.contains(&qid)
                && !self.admitted.contains(&qid)
            {
                self.admitted.push(qid);
            }
        }
        // Muted replay of the closed-epoch history: every live worker
        // advances its clients' RNG streams without sending a share
        // (muted answers reply nothing, so there is nothing to wait
        // for — FIFO channels order any live command after these).
        for (qid, params, ts) in rec.history {
            let Some((query, _)) = self.queries.get(&qid).cloned() else {
                continue;
            };
            for w in &self.workers {
                if w.dead {
                    continue;
                }
                let _ = w.cmd.send(WorkerCmd::Answer {
                    query: Arc::clone(&query),
                    params,
                    ts,
                    live: false,
                });
            }
            self.history.push(ReplayCmd::Answer { query, params, ts });
        }
        if let Some(d) = self.durable.as_mut() {
            d.muted = false;
            d.recoveries += 1;
        }
        // Checkpoint the adopted state before re-running the open
        // epochs: their fresh `Submitted` records land *after* this
        // snapshot's floor, so a second crash — even mid-recovery —
        // reconstructs from here plus the journal suffix.
        let snap = self.write_snapshot_now();
        if result.is_ok() {
            result = snap;
        }
        for ep in rec.open_epochs {
            let r = self.resubmit_open_epoch(ep);
            if result.is_ok() {
                result = r;
            }
        }
        result.map(|()| queries)
    }

    /// Re-runs one submitted-but-unclosed epoch recovered from the
    /// journal: a fresh `Submitted` record is journaled and fsynced
    /// (NO charge records — the epoch's debits are already in the
    /// restored ledgers), then the batch is sent live under its
    /// original epoch timestamp. The replayed history left every
    /// client's RNG stream exactly where the crashed run's was when
    /// this epoch first went out, so the re-run produces the same
    /// shares the crash may or may not have let escape.
    fn resubmit_open_epoch(&mut self, ep: OpenEpoch) -> Result<(), CoreError> {
        let mut batch: Vec<(Arc<Query>, ExecutionParams)> = Vec::with_capacity(ep.entries.len());
        for (qid, params) in &ep.entries {
            let Some((query, _)) = self.queries.get(qid) else {
                continue;
            };
            batch.push((Arc::clone(query), *params));
        }
        if batch.is_empty() {
            return Ok(());
        }
        let ts = ep.ts;
        let watermark = ep.watermark;
        self.now_ms = self.now_ms.max(watermark.0);
        let journal_mark = self.durable.as_ref().map_or(0, |d| d.wal.next_index());
        if self.durable.is_some() {
            let rec = persist::rec_submitted(ts, watermark, &batch);
            self.journal(persist::K_SUBMITTED, rec)?;
            self.journal_sync()?;
        }
        self.crash_hook();
        let mut result = Ok(());
        for wi in 0..self.workers.len() {
            if self.workers[wi].dead {
                continue;
            }
            let mut sent = 0;
            while sent < batch.len() {
                let (query, params) = &batch[sent];
                let cmd = WorkerCmd::Answer {
                    query: Arc::clone(query),
                    params: *params,
                    ts,
                    live: true,
                };
                if self.workers[wi].cmd.send(cmd).is_ok() {
                    sent += 1;
                    continue;
                }
                let fault = self.worker_down(wi, RecvTimeoutError::Disconnected);
                if result.is_ok() {
                    result = Err(fault.into());
                }
                if self.respawn_worker(wi).is_err() {
                    break;
                }
                sent = 0;
                result = Ok(());
            }
        }
        let cmds = batch.len();
        for (query, params) in batch {
            self.history.push(ReplayCmd::Answer { query, params, ts });
        }
        self.in_flight.push_back(InFlightEpoch {
            epoch: ts,
            watermark,
            cmds,
            journal_mark,
        });
        result
    }

    /// Captures every retained query's warehouse for the snapshot:
    /// the shards' in-memory stores (in-process transport) merged
    /// with anything recovered from the previous snapshot, deduped by
    /// `(timestamp, MID)` in canonical order.
    fn capture_warehouses(&mut self) -> Vec<(QueryId, Vec<(u64, u128, BitVec)>)> {
        let retained = self.retain_set.clone();
        let mut out = Vec::with_capacity(retained.len());
        for qid in retained {
            let mut merged: BTreeMap<(u64, u128), BitVec> = BTreeMap::new();
            if let Some(prev) = self.recovered_warehouses.get(&qid) {
                for (ts, mid, answer) in prev {
                    merged.insert((*ts, *mid), answer.clone());
                }
            }
            if matches!(self.transport, TransportMode::InProcess) {
                for shard in &self.shards {
                    if shard.dead {
                        continue;
                    }
                    let _ = shard.cmd.send(ShardCmd::Fetch {
                        query: qid,
                        range: Window {
                            start: Timestamp(0),
                            end: Timestamp(u64::MAX),
                        },
                    });
                }
                self.wake_shards();
                let wait = self.control_wait();
                for s in 0..self.shards.len() {
                    if self.shards[s].dead {
                        continue;
                    }
                    match self.shards[s].reply.recv_timeout(wait) {
                        Ok(ShardReply::Stored { answers }) => {
                            for (ts, mid, answer) in answers {
                                merged.insert((ts, mid), answer);
                            }
                        }
                        Ok(_) => unreachable!("fetch expects Stored"),
                        Err(err) => {
                            let _ = self.shard_down(s, err);
                            let _ = self.respawn_shard(s);
                        }
                    }
                }
            }
            out.push((
                qid,
                merged
                    .into_iter()
                    .map(|((ts, mid), answer)| (ts, mid, answer))
                    .collect(),
            ));
        }
        out
    }

    /// Writes a full snapshot now and prunes the journal beneath it,
    /// bounding disk to O(snapshot interval). The prune floor is
    /// capped at the lowest open epoch's journal mark: open epochs
    /// are rebuilt from their journal records, never from snapshots.
    fn write_snapshot_now(&mut self) -> Result<(), CoreError> {
        if self.durable.is_none() {
            return Ok(());
        }
        let warehouses = self.capture_warehouses();
        let offsets = self.broker.committed_offsets("aggregator");
        let mut marks: Vec<(QueryId, usize, u64)> = self
            .high_water
            .iter()
            .map(|(&(q, s), &hw)| (q, s, hw))
            .collect();
        marks.sort_unstable_by_key(|&(q, s, _)| (q.to_u64(), s));
        let history: Vec<(QueryId, ExecutionParams, Timestamp)> = self
            .history
            .iter()
            .filter_map(|cmd| match cmd {
                ReplayCmd::Answer { query, params, ts } => Some((query.id, *params, *ts)),
                ReplayCmd::Load(_) => None,
            })
            .collect();
        let mut queries: Vec<(&Query, ExecutionParams, bool, Option<&BudgetLedger>)> = self
            .queries
            .values()
            .map(|(q, p)| {
                (
                    &**q,
                    *p,
                    self.retain_set.contains(&q.id),
                    self.ledgers.get(&q.id),
                )
            })
            .collect();
        queries.sort_unstable_by_key(|(q, _, _, _)| q.id.to_u64());
        let mut durable = self.durable.take().expect("durable checked above");
        let contents = SnapshotContents {
            now_ms: self.now_ms,
            next_serial: self.next_serial as u64,
            recoveries: durable.recoveries,
            partial_closes: self.partial_closes,
            lost_answers: self.lost_answers,
            epochs_closed: self.epochs_closed_total,
            queries,
            admitted: &self.admitted,
            terminal: &self.terminal,
            history: &history,
            pending: &self.pending,
            offsets: &offsets,
            marks: &marks,
            warehouses: &warehouses,
        };
        let floor_cap = self
            .in_flight
            .iter()
            .map(|e| e.journal_mark)
            .min()
            .unwrap_or(u64::MAX);
        let outcome = durable
            .snapshot(&contents, floor_cap)
            .map(|_| ())
            .map_err(persist_err);
        self.durable = Some(durable);
        outcome
    }

    /// Simulates a hard crash (the in-process analogue of `kill -9`):
    /// the journal's unsynced append buffer is discarded — nothing
    /// else touches disk — and the deployment is torn down without
    /// journaling its shutdown. A store directory left by `crash()`
    /// recovers exactly like one left by a real SIGKILL: from the
    /// last fsync barrier.
    pub fn crash(mut self) {
        if let Some(d) = self.durable.take() {
            d.wal.simulate_crash();
        }
        self.recovered = None;
        // Implicit Drop: lenient pipeline teardown, journaling off.
    }

    // -- supervision internals ---------------------------------------------

    /// How long a control wait (load ack, registration ack, worker
    /// epoch reply) may block before the peer is declared dead: the
    /// epoch deadline, floored at the default so short-deadline
    /// configurations (partial-close tests) don't misread a healthy
    /// but slow thread as dead.
    fn control_wait(&self) -> Duration {
        self.config.epoch_deadline.max(DEFAULT_EPOCH_DEADLINE)
    }

    /// Declares worker `wi` dead after a failed wait and returns the
    /// typed fault. Distinguishes a *wedge* (deadline elapsed, thread
    /// still running — retired but never respawned, because a live
    /// predecessor could double-send shares) from real death (thread
    /// gone; the crash log holds the panic message).
    fn worker_down(&mut self, wi: usize, err: RecvTimeoutError) -> DeployError {
        let wedged = err == RecvTimeoutError::Timeout
            && self.workers[wi]
                .thread
                .as_ref()
                .is_some_and(|t| !t.is_finished());
        let message = if wedged {
            // The handle keeps the JoinHandle: its presence is what
            // marks the slot non-respawnable.
            "wedged: no reply within the control deadline".to_string()
        } else {
            if let Some(t) = self.workers[wi].thread.take() {
                let _ = t.join();
            }
            take_crash(&self.crashes, "worker", wi)
                .unwrap_or_else(|| "thread exited without a panic record".to_string())
        };
        self.workers[wi].dead = true;
        let fault = DeployError::WorkerPanic {
            worker: wi,
            message,
        };
        self.faults.push(fault.clone());
        fault
    }

    /// Declares shard `s` dead after a failed wait; see
    /// [`ShardedSystem::worker_down`] for the wedge distinction.
    fn shard_down(&mut self, s: usize, err: RecvTimeoutError) -> DeployError {
        let wedged = err == RecvTimeoutError::Timeout
            && self.shards[s]
                .thread
                .as_ref()
                .is_some_and(|t| !t.is_finished());
        let message = if wedged {
            "wedged: no reply within the control deadline".to_string()
        } else {
            if let Some(t) = self.shards[s].thread.take() {
                let _ = t.join();
            }
            take_crash(&self.crashes, "shard", s)
                .unwrap_or_else(|| "thread exited without a panic record".to_string())
        };
        self.shards[s].dead = true;
        let fault = DeployError::ShardPanic { shard: s, message };
        self.faults.push(fault.clone());
        fault
    }

    /// Sweeps the relay threads for silent deaths (proxies have no
    /// reply channel, so death shows as a finished thread) and
    /// respawns them.
    fn check_proxies(&mut self) {
        for i in 0..self.proxies.len() {
            if self.proxies[i].dead {
                continue;
            }
            let finished = self.proxies[i]
                .thread
                .as_ref()
                .is_some_and(|t| t.is_finished());
            if !finished {
                continue;
            }
            if let Some(t) = self.proxies[i].thread.take() {
                let _ = t.join();
            }
            self.proxies[i].dead = true;
            let message = take_crash(&self.crashes, "proxy", i)
                .unwrap_or_else(|| "thread exited unexpectedly".to_string());
            self.faults.push(DeployError::ProxyPanic { proxy: i, message });
            let _ = self.respawn_proxy(i);
        }
    }

    /// Respawns every dead-but-respawnable thread — the control-path
    /// repair pass run before loads, registrations and probes.
    fn repair(&mut self) {
        self.check_proxies();
        for wi in 0..self.workers.len() {
            if self.workers[wi].dead && self.workers[wi].thread.is_none() && self.config.auto_respawn
            {
                let _ = self.respawn_worker(wi);
            }
        }
        for s in 0..self.shards.len() {
            if self.shards[s].dead && self.shards[s].thread.is_none() && self.config.auto_respawn {
                let _ = self.respawn_shard(s);
            }
        }
    }

    /// Respawns worker `wi` under the same index — same client ids
    /// and RNG seeds — and replays the command history: loads for
    /// real (rebuilding the clients' tables), past answers muted
    /// (advancing each client's RNG to exactly where the dead
    /// worker's was, so the replacement's future MIDs and coin flips
    /// are byte-identical to what the dead worker would have
    /// produced). Injected fault hooks do not survive the respawn.
    fn respawn_worker(&mut self, wi: usize) -> Result<(), DeployError> {
        if !self.config.auto_respawn || self.workers[wi].thread.is_some() {
            let fault = DeployError::RespawnFailed {
                role: "worker",
                index: wi,
            };
            self.faults.push(fault.clone());
            return Err(fault);
        }
        let mut cfg = self.config;
        cfg.worker_panic_after = None;
        let heartbeat = self.watchdog.register(&format!("worker-{wi}"));
        let handle = WorkerHandle::spawn(
            wi,
            &cfg,
            self.partitions,
            &self.broker,
            Arc::clone(&self.crashes),
            heartbeat,
        );
        let mut loads = 0usize;
        for cmd in &self.history {
            let msg = match cmd {
                ReplayCmd::Load(load) => {
                    loads += 1;
                    WorkerCmd::Load(load.clone())
                }
                ReplayCmd::Answer { query, params, ts } => WorkerCmd::Answer {
                    query: Arc::clone(query),
                    params: *params,
                    ts: *ts,
                    live: false,
                },
            };
            let _ = handle.cmd.send(msg);
        }
        // Only the loads ack (muted answers reply nothing); commands
        // are FIFO per channel, so once the last load acks, any live
        // command sent next runs after the whole replay.
        let wait = self.control_wait();
        for _ in 0..loads {
            match handle.reply.recv_timeout(wait) {
                Ok(WorkerReply::Loaded) => {}
                _ => {
                    let fault = DeployError::RespawnFailed {
                        role: "worker",
                        index: wi,
                    };
                    self.faults.push(fault.clone());
                    return Err(fault);
                }
            }
        }
        self.workers[wi] = handle;
        // Answer commands sent to the dead predecessor will never be
        // replied to (and any replies it queued died with its
        // channel): the completion loop skips that many waits.
        self.workers[wi].reply_debt = self.in_flight.iter().map(|e| e.cmds).sum();
        self.respawns += 1;
        Ok(())
    }

    /// Respawns shard `s`: a fresh [`Aggregator`] rejoins the
    /// `"aggregator"` consumer group (committed offsets persist, so
    /// the replacement resumes exactly where the group left off) and
    /// is registered with every live query before the slot goes back
    /// into service. Decodes held in the dead shard's open windows
    /// are lost — the affected epochs close partially.
    fn respawn_shard(&mut self, s: usize) -> Result<(), DeployError> {
        let failed = |faults: &mut Vec<DeployError>| {
            let fault = DeployError::RespawnFailed {
                role: "shard",
                index: s,
            };
            faults.push(fault.clone());
            Err(fault)
        };
        if !self.config.auto_respawn || self.shards[s].thread.is_some() {
            return failed(&mut self.faults);
        }
        let straggle = match self.config.straggler {
            Some((idx, delay)) if idx == s => Some(delay),
            _ => None,
        };
        let busy_base = self.busy.shards[s];
        let remote_cfg = match &self.transport {
            TransportMode::Process { node, faults } => Some((node.clone(), *faults)),
            TransportMode::InProcess => None,
        };
        let handle = match remote_cfg {
            None => {
                let mut agg =
                    Aggregator::new(&self.broker, self.config.proxies as usize, self.config.confidence);
                agg.set_dead_letter(self.broker.writer(DEAD_LETTER_TOPIC));
                ShardHandle::spawn(ShardSpawn {
                    index: s,
                    agg,
                    straggle,
                    deadline: self.config.epoch_deadline,
                    // Injected fault hooks fire once; never re-armed.
                    fuse: None,
                    ledger: Arc::clone(&self.ledger),
                    crashes: Arc::clone(&self.crashes),
                    heartbeat: self.watchdog.register(&format!("shard-{s}")),
                    broker: self.broker.clone(),
                })
            }
            Some((node, faults)) => {
                // A fresh child plus a fresh bridge. The dead bridge's
                // consumer left the `"aggregator"` group when its
                // thread unwound; the replacement rejoins here and
                // resumes from the group's committed offsets.
                let out_names: Vec<String> = (0..self.config.proxies)
                    .map(|i| outbound_topic(ProxyId(i)))
                    .collect();
                let out_refs: Vec<&str> = out_names.iter().map(String::as_str).collect();
                let consumer = self.broker.consumer("aggregator", &out_refs);
                let args = shard_node_args(
                    s,
                    self.partitions,
                    self.config.proxies as usize,
                    self.config.confidence,
                    // Injected fault hooks fire once; never re-armed.
                    None,
                );
                let child = match spawn_node_or_invalid(&node, "shard", s, &args) {
                    Ok(c) => c,
                    Err(_) => return failed(&mut self.faults),
                };
                self.children.push((format!("shard-{s}"), child.pid()));
                let stats = LinkStats::shared();
                self.link_stats.push(Arc::clone(&stats));
                let mut link = remote::node_link(
                    child.addr(),
                    s as u32,
                    faults,
                    stats,
                    link_seed(self.config.seed, "shard-respawn", s),
                    ring_topic(&self.broker, &shard_park_topic()),
                );
                if let Some(after) = self.config.link_resend_after {
                    link.set_resend_after(after);
                }
                ShardHandle::spawn_remote(RemoteShardSpawn {
                    index: s,
                    consumer,
                    link,
                    child,
                    straggle,
                    deadline: self.config.epoch_deadline,
                    ledger: Arc::clone(&self.ledger),
                    crashes: Arc::clone(&self.crashes),
                    heartbeat: self.watchdog.register(&format!("shard-{s}")),
                    bell: self.broker.writer(&shard_park_topic()),
                })
            }
        };
        for (query, params) in self.queries.values() {
            let _ = handle.cmd.send(ShardCmd::Register {
                query: Arc::clone(query),
                params: *params,
                population: self.config.clients,
                // The dead shard's retained store died with it;
                // re-enabling retention lets later epochs accumulate
                // again (the batch answer degrades, reported as the
                // respawn fault).
                retain: self.retain_set.contains(&query.id),
            });
        }
        self.wake_shards();
        let wait = self.control_wait();
        for _ in 0..self.queries.len() {
            match handle.reply.recv_timeout(wait) {
                Ok(ShardReply::Registered) => {}
                _ => return failed(&mut self.faults),
            }
        }
        self.shards[s] = handle;
        self.shards[s].busy_base = busy_base;
        self.respawns += 1;
        Ok(())
    }

    /// Respawns relay `i` onto its (single-member) consumer group; it
    /// resumes from the committed offset, and shares produced while
    /// it was dead are still on the topic — a dead relay delays
    /// forwarding, it never loses records.
    fn respawn_proxy(&mut self, i: usize) -> Result<(), DeployError> {
        if !self.config.auto_respawn {
            let fault = DeployError::RespawnFailed {
                role: "proxy",
                index: i,
            };
            self.faults.push(fault.clone());
            return Err(fault);
        }
        let base = (
            self.proxies[i].forwarded.load(Ordering::Relaxed),
            self.proxies[i].busy_ns.load(Ordering::Relaxed),
            self.proxies[i].backpressure.load(Ordering::Relaxed),
        );
        let remote_cfg = match &self.transport {
            TransportMode::Process { node, faults } => Some((node.clone(), *faults)),
            TransportMode::InProcess => None,
        };
        self.proxies[i] = match remote_cfg {
            None => {
                let proxy = Proxy::new(ProxyId(i as u16), &self.broker);
                let heartbeat = self.watchdog.register(&format!("proxy-{i}"));
                ProxyHandle::spawn(proxy, Arc::clone(&self.crashes), heartbeat, base)
            }
            Some((node, faults)) => {
                // Fresh child + bridge; the single-member group rejoin
                // resumes the inbound topic at its committed offset.
                // Shares that reached the dead child but were not yet
                // relayed back died with its private broker — the
                // epoch ledger accounts them as a partial close.
                let consumer = self
                    .broker
                    .consumer(&format!("proxy-{i}"), &[&inbound_topic(ProxyId(i as u16))]);
                let child =
                    match spawn_node_or_invalid(&node, "proxy", i, &proxy_node_args(i, self.partitions))
                    {
                        Ok(c) => c,
                        Err(_) => {
                            let fault = DeployError::RespawnFailed {
                                role: "proxy",
                                index: i,
                            };
                            self.faults.push(fault.clone());
                            return Err(fault);
                        }
                    };
                self.children.push((format!("proxy-{i}"), child.pid()));
                let stats = LinkStats::shared();
                self.link_stats.push(Arc::clone(&stats));
                let mut link = remote::node_link(
                    child.addr(),
                    i as u32,
                    faults,
                    stats,
                    link_seed(self.config.seed, "proxy-respawn", i),
                    ring_topic(&self.broker, &inbound_topic(ProxyId(i as u16))),
                );
                if let Some(after) = self.config.link_resend_after {
                    link.set_resend_after(after);
                }
                ProxyHandle::spawn_remote(RemoteProxySpawn {
                    index: i,
                    consumer,
                    link,
                    child,
                    crashes: Arc::clone(&self.crashes),
                    heartbeat: self.watchdog.register(&format!("proxy-{i}")),
                    broker: self.broker.clone(),
                    base,
                })
            }
        };
        self.respawns += 1;
        Ok(())
    }

    /// Cumulative on-CPU time of every live `privapprox-node` child
    /// process, labelled `proxy-<i>` / `shard-<s>`. Empty in
    /// in-process mode and on platforms without `/proc`; children
    /// that already exited (e.g. a pre-respawn casualty) are skipped.
    /// The bench harness folds these into the machine-rate bottleneck
    /// so a child process counts as a pipeline stage exactly like a
    /// parent thread does under the dedicated-core convention.
    /// `(label, OS pid)` of every `privapprox-node` child ever
    /// spawned (`proxy-<i>` / `shard-<s>`, including respawn
    /// replacements, oldest first). Empty in in-process mode. The
    /// kill-9 recovery harness uses this to SIGKILL specific children
    /// mid-epoch.
    pub fn children(&self) -> &[(String, u32)] {
        &self.children
    }

    pub fn child_cpu(&self) -> Vec<(String, Duration)> {
        self.children
            .iter()
            .filter_map(|(label, pid)| {
                remote::process_cpu(*pid).map(|cpu| (label.clone(), cpu))
            })
            .collect()
    }

    /// Snapshot of cumulative per-thread CPU time per stage (the
    /// machine-level throughput instrumentation; see
    /// [`thread_busy_time`] and [`BusyProfile::bottleneck`]).
    pub fn busy_profile(&self) -> BusyProfile {
        let mut profile = self.busy.clone();
        for (i, p) in self.proxies.iter().enumerate() {
            profile.proxies[i] = Duration::from_nanos(p.busy_ns.load(Ordering::Relaxed));
        }
        profile
    }

    /// Total shares forwarded by the relay threads so far.
    pub fn forwarded_shares(&self) -> u64 {
        self.proxies
            .iter()
            .map(|p| p.forwarded.load(Ordering::Relaxed))
            .sum()
    }
}

impl Drop for ShardedSystem {
    fn drop(&mut self) {
        // Leniently complete whatever the caller left in flight: an
        // abandoned overlapped epoch leaves answer commands, broker
        // records and epoch-tagged closes in the pipeline, and the
        // worker/shard threads must observe their shutdowns *after*
        // those — not interleaved with them.
        while !self.in_flight.is_empty() {
            let _ = self.complete_oldest(true);
        }
        for w in &self.workers {
            let _ = w.cmd.send(WorkerCmd::Shutdown);
        }
        for s in &self.shards {
            let _ = s.cmd.send(ShardCmd::Shutdown);
        }
        for p in &self.proxies {
            p.stop.store(true, Ordering::Relaxed);
        }
        // Pop parked threads out of their condvar waits.
        for p in &self.proxies {
            self.broker.notify_topic(&p.in_topic);
        }
        self.wake_shards();
        // A wedged thread (dead flag up, thread never finished) is
        // skipped: its command channel just disconnected, so it exits
        // on its own, and joining it could hang the drop.
        for w in &mut self.workers {
            if let Some(t) = w.thread.take() {
                if !w.dead || t.is_finished() {
                    let _ = t.join();
                }
            }
        }
        for p in &mut self.proxies {
            if let Some(t) = p.thread.take() {
                let _ = t.join();
            }
        }
        for s in &mut self.shards {
            if let Some(t) = s.thread.take() {
                if !s.dead || t.is_finished() {
                    let _ = t.join();
                }
            }
        }
    }
}

/// A fluent analyst session against a [`ShardedSystem`] — the same
/// SQL → buckets → budget → submit surface as
/// [`AnalystSession`](crate::system::AnalystSession), registering the
/// query on every shard.
pub struct ShardedAnalystSession<'a> {
    system: &'a mut ShardedSystem,
    sql: String,
    buckets: Option<AnswerSpec>,
    budget: Budget,
    window: Option<(u64, u64)>,
    explicit_params: Option<ExecutionParams>,
}

impl<'a> ShardedAnalystSession<'a> {
    /// Sets the SQL text.
    pub fn query(mut self, sql: impl Into<String>) -> Self {
        self.sql = sql.into();
        self
    }

    /// Sets the answer format `A[n]`.
    pub fn buckets(mut self, spec: AnswerSpec) -> Self {
        self.buckets = Some(spec);
        self
    }

    /// Sets the execution budget.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets sliding-window parameters `(w, δ)` in milliseconds.
    pub fn window(mut self, size: u64, slide: u64) -> Self {
        self.window = Some((size, slide));
        self
    }

    /// Bypasses the initializer with explicit `(s, p, q)`.
    pub fn params(mut self, params: ExecutionParams) -> Self {
        self.explicit_params = Some(params);
        self
    }

    /// Signs, registers (on every shard) and distributes the query;
    /// returns it. Serial assignment matches
    /// [`System`](crate::System) so the same submission order yields
    /// the same `QueryId`s.
    pub fn submit(self) -> Result<Query, CoreError> {
        let spec = self.buckets.ok_or_else(|| {
            CoreError::InfeasibleBudget("query needs an answer bucket spec".into())
        })?;
        let (w, d) = self.window.unwrap_or((60_000, 60_000));
        let sys = self.system;
        let id = QueryId::new(AnalystId(1), sys.next_serial);
        sys.next_serial += 1;
        let query = QueryBuilder::new(id, self.sql)
            .answer(spec)
            .window(w, d)
            .sign_and_build(sys.config.analyst_key);
        let params = match self.explicit_params {
            Some(p) => p,
            None => sys.initializer.derive(&self.budget, sys.config.clients)?,
        };
        sys.register(query.clone(), params)?;
        Ok(query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn speed_spec() -> AnswerSpec {
        AnswerSpec::ranges_with_overflow(0.0, 110.0, 11)
    }

    #[test]
    fn sharded_end_to_end_exact_mode() {
        let mut system = ShardedSystem::builder()
            .clients(200)
            .proxies(2)
            .shards(2)
            .workers(2)
            .seed(1)
            .build();
        system.load_numeric_column("vehicle", "speed", |i| (i % 110) as f64).unwrap();
        let query = system
            .analyst()
            .query("SELECT speed FROM vehicle")
            .buckets(speed_spec())
            .params(ExecutionParams::checked(1.0, 1.0, 0.5))
            .submit()
            .unwrap();
        let result = system.run_epoch(&query).unwrap();
        assert_eq!(result.sample_size, 200);
        assert_eq!(result.population, 200);
        let total: f64 = result.buckets.iter().map(|b| b.estimate).sum();
        assert_eq!(total, 200.0);
        for b in 0..9 {
            assert_eq!(result.buckets[b].estimate, 20.0, "bucket {b}");
        }
        assert_eq!(system.aggregator_health(), (0, 0, 0, 0));
    }

    #[test]
    fn sharded_epochs_advance_windows() {
        let mut system = ShardedSystem::builder()
            .clients(60)
            .proxies(2)
            .shards(4)
            .workers(3)
            .seed(4)
            .build();
        system.load_numeric_column("vehicle", "speed", |_| 15.0).unwrap();
        let query = system
            .analyst()
            .query("SELECT speed FROM vehicle")
            .buckets(speed_spec())
            .params(ExecutionParams::checked(1.0, 1.0, 0.5))
            .submit()
            .unwrap();
        let r1 = system.run_epoch(&query).unwrap();
        let r2 = system.run_epoch(&query).unwrap();
        assert!(r2.window.start > r1.window.start);
        assert_eq!(r1.sample_size, 60);
        assert_eq!(r2.sample_size, 60);
        // Threads did real work on every stage.
        let busy = system.busy_profile();
        assert!(busy.workers.iter().any(|d| !d.is_zero()));
        assert!(busy.critical_path() > Duration::ZERO);
        assert!(busy.bottleneck() <= busy.critical_path());
    }

    /// Pipelined submission: epochs overlap up to the configured
    /// depth, results arrive in epoch order via `drain_results`, and
    /// every epoch is exact.
    #[test]
    fn sharded_pipelined_epochs_overlap_and_drain_in_order() {
        let mut system = ShardedSystem::builder()
            .clients(90)
            .proxies(2)
            .shards(3)
            .workers(3)
            .pipeline_depth(3)
            .seed(6)
            .build();
        system.load_numeric_column("vehicle", "speed", |_| 15.0).unwrap();
        let query = system
            .analyst()
            .query("SELECT speed FROM vehicle")
            .buckets(speed_spec())
            .params(ExecutionParams::checked(1.0, 1.0, 0.5))
            .submit()
            .unwrap();
        for _ in 0..5 {
            system.submit_epoch(&query).unwrap();
            assert!(system.in_flight_epochs() <= 3, "depth respected");
        }
        system.flush_epochs().unwrap();
        assert_eq!(system.in_flight_epochs(), 0);
        let results = system.drain_results();
        assert_eq!(results.len(), 5);
        for (e, r) in results.iter().enumerate() {
            assert_eq!(r.sample_size, 90, "epoch {e}");
            assert_eq!(r.buckets[1].estimate, 90.0, "epoch {e}");
            if e > 0 {
                assert!(r.window.start > results[e - 1].window.start, "epoch order");
            }
        }
        assert_eq!(system.aggregator_health(), (0, 0, 0, 0));
    }

    #[test]
    fn sharded_single_shard_degenerates_to_plain_pipeline() {
        let mut system = ShardedSystem::builder()
            .clients(50)
            .proxies(3)
            .shards(1)
            .workers(1)
            .seed(9)
            .build();
        system.load_numeric_column("vehicle", "speed", |_| 15.0).unwrap();
        let query = system
            .analyst()
            .query("SELECT speed FROM vehicle")
            .buckets(speed_spec())
            .params(ExecutionParams::checked(1.0, 1.0, 0.5))
            .submit()
            .unwrap();
        let result = system.run_epoch(&query).unwrap();
        assert_eq!(result.sample_size, 50);
        assert_eq!(result.buckets[1].estimate, 50.0);
    }

    #[test]
    fn sharded_partition_affinity_is_total() {
        let system = ShardedSystem::builder()
            .clients(10)
            .proxies(2)
            .shards(3)
            .partitions(6)
            .build();
        // Every client maps to a partition, every partition to a
        // shard, and the shard set is exhaustive.
        let mut shards_seen = std::collections::HashSet::new();
        for c in 0..10 {
            let p = system.partition_of(c);
            assert!(p < 6);
            shards_seen.insert(system.shard_of_partition(p));
        }
        assert_eq!(shards_seen.len(), 3);
    }

    #[test]
    fn sharded_shape_adopts_cluster_tiers() {
        let shape = DeploymentShape::single_node(2, 4);
        let system = ShardedSystem::builder().clients(10).shape(shape).build();
        assert_eq!(system.config().proxies, 2);
        assert_eq!(system.config().shards, 4);
        assert_eq!(system.config().workers, 4);
    }

    /// A failed epoch (one client errors mid-population) must not
    /// poison the pipeline: the epoch still closes with its exact
    /// partial count, so the next epoch runs from consistent
    /// accounting instead of tripping the close asserts on stale
    /// records.
    #[test]
    fn sharded_failed_epoch_cleans_up_for_the_next() {
        let mut system = ShardedSystem::builder()
            .clients(40)
            .proxies(2)
            .shards(2)
            .workers(2)
            .seed(3)
            .build();
        // Client 25 holds an unbucketizable (negative) speed.
        system.load_numeric_column("vehicle", "speed", |i| if i == 25 { -5.0 } else { 15.0 }).unwrap();
        let query = system
            .analyst()
            .query("SELECT speed FROM vehicle")
            .buckets(speed_spec())
            .params(ExecutionParams::checked(1.0, 1.0, 0.5))
            .submit()
            .unwrap();
        assert!(matches!(
            system.run_epoch(&query),
            Err(CoreError::Unbucketizable(_))
        ));
        // The failure epoch's partial window surfaces via drain, not
        // silently: some clients answered before the bad one.
        let partial = system.drain_results();
        assert_eq!(partial.len(), 1);
        assert!(partial[0].sample_size < 40);
        // Repair the data; the next epoch is exact and complete.
        system.load_numeric_column("vehicle", "speed", |_| 15.0).unwrap();
        let result = system.run_epoch(&query).unwrap();
        assert_eq!(result.sample_size, 40);
        assert_eq!(result.buckets[1].estimate, 40.0);
        assert_eq!(system.aggregator_health(), (0, 0, 0, 0));
    }

    /// A client error in epoch k+1 while epoch k is still in flight
    /// must not corrupt epoch k's windows: each overlapped epoch
    /// closes under its own tag with its own exact (possibly partial)
    /// count.
    #[test]
    fn sharded_error_in_overlapped_epoch_isolates_to_its_windows() {
        let mut system = ShardedSystem::builder()
            .clients(40)
            .proxies(2)
            .shards(2)
            .workers(2)
            .pipeline_depth(3)
            .seed(8)
            .build();
        // Client 25 fails every epoch — so both in-flight epochs
        // error, each mid-population.
        system.load_numeric_column("vehicle", "speed", |i| if i == 25 { -5.0 } else { 15.0 }).unwrap();
        let query = system
            .analyst()
            .query("SELECT speed FROM vehicle")
            .buckets(speed_spec())
            .params(ExecutionParams::checked(1.0, 1.0, 0.5))
            .submit()
            .unwrap();
        // Two epochs enter the pipeline back to back; neither has
        // completed when the second is submitted.
        system.submit_epoch(&query).unwrap();
        assert!(system.submit_epoch(&query).is_ok(), "depth not yet hit");
        assert_eq!(system.in_flight_epochs(), 2);
        assert!(matches!(
            system.flush_epochs(),
            Err(CoreError::Unbucketizable(_))
        ));
        let partials = system.drain_results();
        assert_eq!(partials.len(), 2, "both epochs closed their windows");
        assert_eq!(
            partials[0].sample_size, partials[1].sample_size,
            "identical partial populations → identical counts per epoch"
        );
        assert!(partials[0].sample_size < 40);
        assert!(partials[1].window.start > partials[0].window.start);
        // Repair and verify the pipeline is clean.
        system.load_numeric_column("vehicle", "speed", |_| 15.0).unwrap();
        let result = system.run_epoch(&query).unwrap();
        assert_eq!(result.sample_size, 40);
        assert_eq!(system.aggregator_health(), (0, 0, 0, 0));
    }

    /// Dropping a system with epochs still in flight (an aborted
    /// overlapped run) must drain the epoch-tagged control messages
    /// and shut down cleanly instead of interleaving shutdowns with
    /// pending answers/closes.
    #[test]
    fn sharded_drop_with_in_flight_epochs_shuts_down_cleanly() {
        let mut system = ShardedSystem::builder()
            .clients(30)
            .proxies(2)
            .shards(2)
            .workers(2)
            .pipeline_depth(3)
            .seed(12)
            .build();
        system.load_numeric_column("vehicle", "speed", |_| 15.0).unwrap();
        let query = system
            .analyst()
            .query("SELECT speed FROM vehicle")
            .buckets(speed_spec())
            .params(ExecutionParams::checked(1.0, 1.0, 0.5))
            .submit()
            .unwrap();
        system.submit_epoch(&query).unwrap();
        system.submit_epoch(&query).unwrap();
        assert_eq!(system.in_flight_epochs(), 2);
        drop(system); // must not hang or panic
    }

    #[test]
    fn try_build_rejects_impossible_configs() {
        let invalid = |b: ShardedSystemBuilder| {
            matches!(b.try_build(), Err(DeployError::InvalidConfig(_)))
        };
        assert!(invalid(ShardedSystem::builder().clients(0)));
        assert!(invalid(ShardedSystem::builder().clients(10).proxies(1)));
        assert!(invalid(ShardedSystem::builder().clients(10).shards(0)));
        assert!(invalid(ShardedSystem::builder().clients(10).workers(0)));
        assert!(invalid(
            ShardedSystem::builder()
                .clients(10)
                .epoch_deadline(Duration::ZERO)
        ));
        assert!(invalid(
            ShardedSystem::builder().clients(10).worker_panic_after(9, 1)
        ));
        assert!(invalid(
            ShardedSystem::builder().clients(10).shard_panic_after(9, 1)
        ));
        assert!(invalid(
            ShardedSystem::builder().clients(10).drop_shard_traffic(9)
        ));
        assert!(invalid(
            ShardedSystem::builder()
                .clients(10)
                .straggler(9, Duration::from_millis(1))
        ));
    }

    #[test]
    fn thread_health_reports_every_supervised_thread() {
        let system = ShardedSystem::builder()
            .clients(10)
            .proxies(2)
            .shards(2)
            .workers(2)
            .build();
        let statuses = system.thread_health(Duration::from_secs(5));
        assert_eq!(statuses.len(), 6, "2 workers + 2 proxies + 2 shards");
        assert!(statuses.iter().all(|(_, s)| s.is_alive()));
    }

    /// Poisoned input (malformed key) is quarantined to the
    /// dead-letter topic and counted — never silently dropped, never
    /// blocking the healthy stream.
    #[test]
    fn poisoned_records_are_dead_lettered() {
        let mut system = ShardedSystem::builder()
            .clients(20)
            .proxies(2)
            .shards(2)
            .workers(2)
            .seed(5)
            .build();
        system
            .load_numeric_column("vehicle", "speed", |_| 15.0)
            .unwrap();
        let query = system
            .analyst()
            .query("SELECT speed FROM vehicle")
            .buckets(speed_spec())
            .params(ExecutionParams::checked(1.0, 1.0, 0.5))
            .submit()
            .unwrap();
        // A key of the wrong width, injected straight onto a shard
        // inbound topic.
        system.broker.producer().send(
            "proxy-0-out",
            Some(vec![9; 5]),
            vec![1, 2, 3],
            Timestamp(0),
        );
        let result = system.run_epoch(&query).unwrap();
        assert_eq!(result.sample_size, 20, "healthy stream unaffected");
        let health = system.deploy_health();
        assert_eq!(health.dead_lettered, 1);
        assert_eq!(system.dead_letter_backlog(), 1);
        assert_eq!(health.partial_closes, 0);
        assert_eq!(health.respawns, 0);
    }

    #[test]
    fn sharded_unknown_query_is_rejected() {
        let mut system = ShardedSystem::builder().clients(10).build();
        system.load_numeric_column("vehicle", "speed", |_| 15.0).unwrap();
        let foreign =
            QueryBuilder::new(QueryId::new(AnalystId(1), 999), "SELECT speed FROM vehicle")
                .answer(speed_spec())
                .sign_and_build(system.config().analyst_key);
        assert_eq!(
            system.run_epoch(&foreign).unwrap_err(),
            CoreError::UnknownQuery
        );
        assert_eq!(
            system.submit_epoch(&foreign).unwrap_err(),
            CoreError::UnknownQuery
        );
    }
}
