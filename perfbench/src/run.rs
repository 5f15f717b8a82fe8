//! Driving one deployment: set-up, the measured phase in a closed or
//! open loop, and the output checks every window passes through.

use crate::procfs;
use crate::stats::FailureTally;
use crate::trace::{Probe, Tracer};
use crate::workload::{Pacing, Workload, DEPTH, WINDOW_MS};
use privapprox_core::{DeployHealth, QueryResult, ShardedSystem};
use privapprox_types::{Query, QueryId};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A window fails its coverage check when fewer than this share of its
/// buckets hold the true count inside the reported confidence interval.
/// The intervals are nominally 95% (they sum the sampling and
/// randomization bounds, so they cover more in practice); the floor
/// leaves room for the misses they make by chance in an 11-bucket
/// answer, where one miss is already 9%.
pub const MIN_WINDOW_COVERAGE: f64 = 0.7;

/// A run fails its coverage check when fewer than this share of all
/// compared buckets are covered.
pub const MIN_RUN_COVERAGE: f64 = 0.9;

/// Windows whose fingerprints are kept to check the duplicates a crash
/// recovery may deliver again.
const RECENT: usize = 256;

/// Standard deviations of the binomial sample size a window may stray
/// from `s × population` before it fails.
const SAMPLE_SIGMAS: f64 = 6.0;

/// The event-time tag of epoch `k`: the timestamp every answer of the
/// epoch carries, half a window into it.
pub fn tag(k: u64) -> u64 {
    k * WINDOW_MS + WINDOW_MS / 2
}

/// A durable store directory, removed when dropped.
pub struct StoreDir(PathBuf);

impl StoreDir {
    /// A fresh, empty directory at `path`.
    pub fn fresh(path: PathBuf) -> StoreDir {
        let _ = std::fs::remove_dir_all(&path);
        StoreDir(path)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where a run keeps its files and finds the node binary.
pub struct Env {
    /// Scratch directory inside the working directory.
    pub data_dir: PathBuf,
    /// `privapprox-node`, for process-transport workloads.
    pub node: Option<PathBuf>,
    stores: u32,
}

impl Env {
    /// An environment rooted at `data_dir`.
    pub fn new(data_dir: PathBuf, node: Option<PathBuf>) -> Env {
        Env {
            data_dir,
            node,
            stores: 0,
        }
    }

    /// A fresh store directory for the next deployment.
    pub fn fresh_store(&mut self, workload: &str) -> StoreDir {
        self.stores += 1;
        StoreDir::fresh(self.data_dir.join(format!(
            "store-{workload}-{}-{}",
            std::process::id(),
            self.stores
        )))
    }
}

/// What one measured phase saw.
#[derive(Debug, Default, Clone)]
pub struct Phase {
    /// Wall time from the first submit to the last drain, s.
    pub wall: f64,
    /// Epochs submitted.
    pub epochs: u64,
    /// Windows drained.
    pub windows: u64,
    /// Sum of `sample_size` over drained windows.
    pub answers: u64,
    /// Per-window latency, ms, in drain order.
    pub latencies_ms: Vec<f64>,
    /// How late the generator submitted each epoch (open loop), ms.
    pub late_ms: Vec<f64>,
    /// Most epochs in flight right after a submit.
    pub in_flight_max: usize,
    /// CPU s of this process plus its node children over the phase.
    pub cpu: f64,
    /// Peak resident set (this process plus node children) once the
    /// phase drained its minimum window count, or at its end, MiB.
    pub peak_rss_mb: f64,
}

/// Checks every drained window: each (query, epoch) window arrives
/// exactly once and in order, its sample size is binomially plausible,
/// and its estimates cover the loaded data's true histogram.
struct Checker {
    queries: Vec<QueryId>,
    next: Vec<u64>,
    truth: Vec<u64>,
    clients: u64,
    s: f64,
    keep: usize,
    fingerprints: Vec<(u64, u64)>,
    recent: VecDeque<((QueryId, u64), u64)>,
    covered: u64,
    compared: u64,
    worst: f64,
}

impl Checker {
    fn check(&mut self, r: &QueryResult, submitted: u64, tally: &mut FailureTally) -> Option<u64> {
        let Some(qi) = self.queries.iter().position(|q| *q == r.query) else {
            tally.fail_unattributed(1, format!("window for unknown query {:?}", r.query));
            return None;
        };
        let (start, end) = (r.window.start.0, r.window.end.0);
        let k = start / WINDOW_MS;
        if start % WINDOW_MS != 0 || end != start + WINDOW_MS {
            tally.fail(k, format!("window [{start}, {end}) is not one epoch"));
            return None;
        }
        if k < self.next[qi] {
            tally.fail(k, format!("duplicate window for epoch {k}"));
            return None;
        }
        for missing in self.next[qi]..k {
            tally.fail(missing, format!("missing window for epoch {missing}"));
        }
        self.next[qi] = k + 1;
        if k >= submitted {
            tally.fail(k, format!("window for epoch {k}, never submitted"));
        }
        let mean = self.s * self.clients as f64;
        let sigma = (mean * (1.0 - self.s)).sqrt();
        if (r.sample_size as f64 - mean).abs() > SAMPLE_SIGMAS * sigma + 1.0
            || r.population != self.clients
        {
            tally.fail(
                k,
                format!(
                    "epoch {k}: sample size {} of {} outside binomial bounds",
                    r.sample_size, r.population
                ),
            );
        }
        if r.buckets.len() != self.truth.len() {
            tally.fail(
                k,
                format!(
                    "epoch {k}: {} buckets, expected {}",
                    r.buckets.len(),
                    self.truth.len()
                ),
            );
        } else {
            let hits = r
                .buckets
                .iter()
                .zip(&self.truth)
                .filter(|(b, &t)| (b.estimate - t as f64).abs() <= b.ci.bound)
                .count();
            self.covered += hits as u64;
            self.compared += r.buckets.len() as u64;
            let coverage = hits as f64 / r.buckets.len() as f64;
            self.worst = self.worst.min(coverage);
            if coverage < MIN_WINDOW_COVERAGE {
                tally.fail(
                    k,
                    format!("epoch {k}: confidence intervals cover {coverage:.3} of buckets"),
                );
            }
        }
        let print = fingerprint(r);
        if self.fingerprints.len() < self.keep {
            self.fingerprints.push((k, print));
        }
        if self.recent.len() == RECENT {
            self.recent.pop_front();
        }
        self.recent.push_back(((r.query, k), print));
        Some(k)
    }

    /// Fails every epoch some query never returned a window for.
    fn finish(&mut self, submitted: u64, tally: &mut FailureTally) {
        for next in &mut self.next {
            for missing in *next..submitted {
                tally.fail(missing, format!("missing window for epoch {missing}"));
            }
            *next = submitted;
        }
    }
}

/// A hash over every field of a window, floats by their bits: equal
/// fingerprints mean byte-identical windows (up to collisions of a
/// 64-bit hash).
pub fn fingerprint(r: &QueryResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut put = |v: u64| h = (h.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    put(r.query.to_u64());
    put(r.window.start.0);
    put(r.window.end.0);
    put(r.sample_size);
    put(r.population);
    for b in &r.buckets {
        put(b.raw_yes);
        for f in [
            b.estimate_sample,
            b.estimate,
            b.ci.estimate,
            b.ci.bound,
            b.ci.confidence,
            b.sampling_error,
            b.rr_error,
        ] {
            put(f.to_bits());
        }
    }
    for f in [r.privacy.eps_rr, r.privacy.eps_dp, r.privacy.eps_zk] {
        put(f.to_bits());
    }
    h
}

/// One deployment under test.
pub struct Instance {
    w: Workload,
    /// The deployment (taken by a crash).
    pub system: Option<ShardedSystem>,
    /// Its registered queries, in admission order.
    pub queries: Vec<Query>,
    checker: Checker,
    /// Per epoch: the instant its windows' latency counts from.
    origins: Vec<Instant>,
    epochs: u64,
    /// `builder()` to the end of the warm-up pipeline fill.
    pub setup: Duration,
    /// A drained window, kept as a shell for replays.
    pub sample_window: Option<QueryResult>,
    store: Option<StoreDir>,
}

impl Instance {
    /// Builds, loads, registers and warms a deployment (one pipeline
    /// fill, flushed): everything up to the first measured submit.
    /// The first `keep` windows are fingerprinted.
    pub fn setup(
        w: &Workload,
        seed: u64,
        env: &mut Env,
        keep: usize,
        tally: &mut FailureTally,
    ) -> Result<Instance, String> {
        let store = w.durable.then(|| env.fresh_store(w.name));
        let t0 = Instant::now();
        let (system, queries) = w
            .deploy(
                seed,
                store.as_ref().map(StoreDir::path),
                env.node.as_deref(),
            )
            .map_err(|e| format!("{}: set-up failed: {e}", w.name))?;
        let checker = Checker {
            queries: queries.iter().map(|q| q.id).collect(),
            next: vec![0; queries.len()],
            truth: w.histogram(seed),
            clients: w.clients,
            s: w.s,
            keep,
            fingerprints: Vec::new(),
            recent: VecDeque::with_capacity(RECENT),
            covered: 0,
            compared: 0,
            worst: 1.0,
        };
        let mut inst = Instance {
            w: w.clone(),
            system: Some(system),
            queries,
            checker,
            origins: Vec::new(),
            epochs: 0,
            setup: Duration::ZERO,
            sample_window: None,
            store,
        };
        let mut quiet = Tracer::new(false);
        for _ in 0..DEPTH {
            inst.submit(Instant::now(), &mut quiet, tally);
        }
        inst.flush(&mut quiet, None, tally);
        inst.setup = t0.elapsed();
        Ok(inst)
    }

    /// `(epoch, fingerprint)` of the first windows drained.
    pub fn fingerprints(&self) -> &[(u64, u64)] {
        &self.checker.fingerprints
    }

    /// `(share of all compared buckets, lowest share in one window)`
    /// whose interval covered the true count.
    pub fn coverage(&self) -> (f64, f64) {
        let c = &self.checker;
        (c.covered as f64 / c.compared.max(1) as f64, c.worst)
    }

    fn sys(&mut self) -> &mut ShardedSystem {
        self.system.as_mut().expect("deployment is live")
    }

    fn submit(&mut self, origin: Instant, tracer: &mut Tracer, tally: &mut FailureTally) {
        let k = self.epochs;
        self.epochs += 1;
        self.origins.push(origin);
        tally.attempt();
        let name = if self.w.queries > 1 {
            "submit_epoch_all"
        } else {
            "submit_epoch"
        };
        let (w, queries) = (&self.w, &self.queries);
        let system = self.system.as_mut().expect("deployment is live");
        if let Err(e) = tracer.span(name, || w.submit(system, queries)) {
            tally.fail(k, format!("epoch {k}: {e}"));
        }
    }

    fn drain(
        &mut self,
        tracer: &mut Tracer,
        mut phase: Option<&mut Phase>,
        tally: &mut FailureTally,
    ) {
        let system = self.system.as_mut().expect("deployment is live");
        let mut results = tracer.span("drain_results", || system.drain_results());
        let at = Instant::now();
        for r in &results {
            let Some(k) = self.checker.check(r, self.epochs, tally) else {
                continue;
            };
            if let Some(ph) = phase.as_deref_mut() {
                ph.windows += 1;
                ph.answers += r.sample_size;
                ph.latencies_ms
                    .push((at - self.origins[k as usize]).as_secs_f64() * 1e3);
            }
        }
        if self.sample_window.is_none() {
            self.sample_window = results.first().cloned();
        }
        system.recycle_results(&mut results);
    }

    fn flush(&mut self, tracer: &mut Tracer, phase: Option<&mut Phase>, tally: &mut FailureTally) {
        let system = self.system.as_mut().expect("deployment is live");
        if let Err(e) = tracer.span("flush_epochs", || system.flush_epochs()) {
            tally.fail_unattributed(1, format!("flush: {e}"));
        }
        self.drain(tracer, phase, tally);
    }

    fn probe(&mut self, tracer: &mut Tracer, k: u64) {
        if tracer.enabled() {
            let mut probe = self.snapshot();
            probe.epoch = tag(k);
            probe.at = tracer.now();
            tracer.probe(probe);
        }
    }

    /// The deployment's cumulative counters: per-thread CPU, shares
    /// forwarded, broker traffic and node-child CPU.
    pub fn snapshot(&self) -> Probe {
        let system = self.system.as_ref().expect("deployment is live");
        let busy = system.busy_profile();
        let broker = system.broker_stats();
        let ns = |v: &[Duration]| v.iter().map(|d| d.as_nanos() as u64).collect::<Vec<_>>();
        Probe {
            epoch: 0,
            at: 0,
            workers: ns(&busy.workers),
            proxies: ns(&busy.proxies),
            shards: ns(&busy.shards),
            forwarded: system.forwarded_shares(),
            records_in: broker.records_in,
            bytes_in: broker.bytes_in,
            children: system
                .child_cpu()
                .into_iter()
                .map(|(l, c)| (l, c.as_nanos() as u64))
                .collect(),
        }
    }

    /// CPU used so far by this process plus its node children, s.
    fn cpu(&self) -> f64 {
        let system = self.system.as_ref().expect("deployment is live");
        let children: f64 = system
            .child_cpu()
            .iter()
            .map(|(_, c)| c.as_secs_f64())
            .sum();
        procfs::self_cpu().as_secs_f64() + children
    }

    /// Runs epochs for `seconds` (and, in a closed loop, until at least
    /// `min_windows` windows drained), then flushes the pipeline.
    pub fn measure(
        &mut self,
        seconds: f64,
        min_windows: u64,
        tracer: &mut Tracer,
        tally: &mut FailureTally,
    ) -> Phase {
        let mut ph = Phase::default();
        let first = self.epochs;
        let budget = Duration::from_secs_f64(seconds);
        let start = Instant::now();
        let cpu0 = self.cpu();
        match self.w.pacing {
            Pacing::Closed => loop {
                let elapsed = start.elapsed();
                if (elapsed >= budget && ph.windows >= min_windows) || elapsed >= budget * 3 {
                    break;
                }
                let k = self.epochs;
                tracer.begin_epoch(tag(k));
                self.submit(Instant::now(), tracer, tally);
                ph.in_flight_max = ph.in_flight_max.max(self.sys().in_flight_epochs());
                self.drain(tracer, Some(&mut ph), tally);
                tracer.end_epoch();
                self.probe(tracer, k);
                self.read_rss(&mut ph, min_windows);
            },
            Pacing::Open { period } => {
                let n = (seconds / period.as_secs_f64()).floor() as u32;
                for i in 0..n {
                    let due = start + period * i;
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    ph.late_ms
                        .push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
                    let k = self.epochs;
                    tracer.begin_epoch(tag(k));
                    self.submit(due, tracer, tally);
                    ph.in_flight_max = ph.in_flight_max.max(self.sys().in_flight_epochs());
                    self.drain(tracer, Some(&mut ph), tally);
                    if Instant::now() < start + period * (i + 1) {
                        self.flush(tracer, Some(&mut ph), tally);
                    }
                    tracer.end_epoch();
                    self.probe(tracer, k);
                    self.read_rss(&mut ph, min_windows);
                }
            }
        }
        self.flush(tracer, Some(&mut ph), tally);
        ph.wall = start.elapsed().as_secs_f64();
        ph.cpu = self.cpu() - cpu0;
        self.read_rss(&mut ph, 0);
        ph.epochs = self.epochs - first;
        ph
    }

    /// Reads peak memory once `rss_windows` windows have drained.
    fn read_rss(&self, ph: &mut Phase, rss_windows: u64) {
        if ph.peak_rss_mb == 0.0 && ph.windows >= rss_windows {
            ph.peak_rss_mb = self.peak_rss_mb();
        }
    }

    /// Runs `epochs` epochs back to back in a closed loop, unmeasured.
    pub fn run_epochs(&mut self, epochs: u64, tally: &mut FailureTally) {
        let mut quiet = Tracer::new(false);
        for _ in 0..epochs {
            self.submit(Instant::now(), &mut quiet, tally);
            self.drain(&mut quiet, None, tally);
        }
        self.flush(&mut quiet, None, tally);
    }

    /// Final checks: every submitted epoch returned its windows, and
    /// the health record shows no fault. Returns the health snapshot.
    pub fn finish(&mut self, tally: &mut FailureTally) -> DeployHealth {
        let health = self.sys().deploy_health();
        self.checker.finish(self.epochs, tally);
        let (all, _) = self.coverage();
        if all < MIN_RUN_COVERAGE {
            tally.fail_unattributed(
                1,
                format!("confidence intervals covered only {all:.4} of buckets"),
            );
        }
        let faults = health.worker_panics
            + health.shard_panics
            + health.proxy_panics
            + health.respawns
            + health.partial_closes
            + u64::from(health.lost_answers > 0)
            + health.dead_lettered
            + health.dead_letter_dropped
            + health.retries
            + health.reconnects
            + health.rejections;
        tally.fail_unattributed(faults, format!("deployment faults: {health:?}"));
        health
    }

    /// Peak resident set of this process plus every node child, MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let system = self.system.as_ref().expect("deployment is live");
        let parent = procfs::peak_rss_kib("self").unwrap_or(0);
        let children: u64 = system
            .children()
            .iter()
            .filter_map(|(_, pid)| procfs::peak_rss_kib(&pid.to_string()))
            .sum();
        (parent + children) as f64 / 1024.0
    }

    /// Crashes the deployment after journaling one more epoch, then
    /// rebuilds it from the store and times `crash()` → first
    /// recovered window, ms. The recovered windows must be exactly the
    /// journaled epoch's.
    pub fn crash_and_recover(
        &mut self,
        seed: u64,
        node: Option<&Path>,
        tally: &mut FailureTally,
    ) -> Result<f64, String> {
        let mut quiet = Tracer::new(false);
        let k = self.epochs;
        self.submit(Instant::now(), &mut quiet, tally);
        let system = self.system.take().expect("deployment is live");
        let start = Instant::now();
        system.crash();
        let w = &self.w;
        let store = self.store.as_ref().map(StoreDir::path);
        let mut recovered = w
            .build(seed, store, node)
            .map_err(|e| format!("reopen: {e}"))?;
        w.load(&mut recovered, seed)
            .map_err(|e| format!("reload: {e}"))?;
        recovered.resume().map_err(|e| format!("resume: {e}"))?;
        recovered
            .flush_epochs()
            .map_err(|e| format!("recovered flush: {e}"))?;
        let windows = recovered.drain_results();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        // At-least-once: the journaled epoch's windows arrive exactly
        // once, and any earlier window delivered again must be
        // byte-identical to the original.
        let mut fresh = 0;
        for r in &windows {
            let kr = r.window.start.0 / WINDOW_MS;
            if kr == k {
                fresh += 1;
            } else {
                let original = self
                    .checker
                    .recent
                    .iter()
                    .find(|(id, _)| *id == (r.query, kr));
                if kr > k || original.is_none_or(|(_, print)| *print != fingerprint(r)) {
                    tally.fail(
                        kr,
                        format!("recovery re-delivered epoch {kr} unlike the original"),
                    );
                }
            }
        }
        if fresh != self.queries.len() {
            tally.fail(
                k,
                format!("recovery returned {fresh} windows for the journaled epoch {k}"),
            );
        }
        drop(recovered);
        Ok(ms)
    }
}
