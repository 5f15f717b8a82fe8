//! Durable persistence for the sharded runtime: the journal schema,
//! snapshot sections and crash-recovery reconstruction over the
//! `privapprox-store` WAL.
//!
//! # What is journaled, and when
//!
//! The deployment's *control-plane decisions* are journaled; the
//! data plane (client shares in broker partitions) is not — shares
//! are reproducible byte-for-byte from the seed plus the command
//! history, which is exactly what the journal captures.
//!
//! The one ordering that carries the privacy guarantee: **budget
//! charges are journaled and fsynced strictly before the first
//! debit-gated worker send of the epoch**. A crash can therefore only
//! leave the journal *ahead* of the wire — recovered ledgers have
//! spent at least as much as any answer that escaped, so replaying a
//! crash can under-spend ε (a charged epoch whose sends never
//! happened is re-run without re-charging) but never over-spend.
//!
//! Charge records are *gated* on the epoch's `Submitted` record at
//! reconstruction: both are appended under one `sync`, so a torn tail
//! can persist trailing charges without their `Submitted`. Such
//! orphans prove no send happened (sends come only after the sync
//! returns), and reconstruction ignores them — the ledger ends
//! exactly equal to an uninterrupted run's.
//!
//! # Snapshots
//!
//! Every [`snapshot_every`](crate::ShardedSystemBuilder::snapshot_every)
//! epoch closes, the full supervisor state is written as an atomic
//! temp-file-rename snapshot and the journal is pruned below the
//! snapshot's record floor, bounding disk usage to O(snapshot
//! interval). The snapshot embeds the muted-replay command history
//! (answers only — loads hold closures and must be re-issued by the
//! caller before [`resume`](crate::ShardedSystem::resume)), so a
//! recovered worker's client RNG streams advance to exactly where the
//! crashed deployment's were.

use crate::aggregator::{BucketResult, QueryResult};
use crate::error::{CoreError, DeployError};
use crate::remote;
use privapprox_rr::privacy::PrivacyReport;
use privapprox_stats::estimate::ConfidenceInterval;
use privapprox_store::codec::{Reader, Writer};
use privapprox_store::snapshot::{load_latest, prune_snapshots, write_snapshot};
use privapprox_store::wal::{dir_bytes, Wal, WalRecord};
use privapprox_store::StoreError;
use privapprox_types::{
    BitVec, BudgetLedger, ExecutionParams, Query, QueryId, Timestamp, Window,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

// ----- journal record kinds (WAL kind bytes; 0 is reserved) --------

/// A query (re-)registered on every shard, with its parameters and
/// retention flag. Re-registration (feedback retune, retention
/// enable) appends a fresh record; the latest wins.
pub(crate) const K_REGISTERED: u8 = 1;
/// A lifetime privacy budget assigned, replacing the query's ledger.
pub(crate) const K_BUDGET: u8 = 2;
/// A query admitted to the multi-tenant schedule.
pub(crate) const K_ADMITTED: u8 = 3;
/// A query withdrawn from the schedule (ledger kept).
pub(crate) const K_WITHDRAWN: u8 = 4;
/// A query retired by budget exhaustion (terminal).
pub(crate) const K_RETIRED: u8 = 5;
/// One epoch's ε_zk debit against a query's ledger. Carries the
/// *absolute* post-charge spend so replay is idempotent. Applied at
/// reconstruction only when the epoch's `K_SUBMITTED` follows.
pub(crate) const K_CHARGE: u8 = 6;
/// An epoch handed to the workers: timestamp, watermark and the
/// (query, params) entries answered. The fsync barrier between this
/// record and the first worker send is the recovery contract.
pub(crate) const K_SUBMITTED: u8 = 7;
/// An epoch fully closed: its finalized results, the shard group's
/// committed offsets, and per-(query, shard) window high-water marks.
pub(crate) const K_CLOSED: u8 = 8;

// ----- snapshot section kinds (0 is reserved for the header) -------

const S_META: u8 = 1;
const S_QUERIES: u8 = 2;
const S_SCHED: u8 = 3;
const S_HISTORY: u8 = 4;
const S_PENDING: u8 = 5;
const S_OFFSETS: u8 = 6;
const S_MARKS: u8 = 7;
const S_WAREHOUSES: u8 = 8;

/// Converts a store fault into the deployment's typed error.
pub(crate) fn persist_err(e: StoreError) -> CoreError {
    CoreError::Deploy(DeployError::Persist {
        detail: e.to_string(),
    })
}

fn bad(what: &'static str, detail: String) -> StoreError {
    StoreError::BadRecord { what, detail }
}

// ----- record payload encoders -------------------------------------

fn put_query(w: &mut Writer, query: &Query, params: ExecutionParams) {
    let json = remote::render(&remote::query_to_value(query));
    w.bytes(&json);
    w.f64(params.s).f64(params.p).f64(params.q);
}

fn get_query(r: &mut Reader<'_>, what: &'static str) -> Result<(Query, ExecutionParams), StoreError> {
    let json = r.bytes()?.to_vec();
    let value = remote::parse(&json).map_err(|e| bad(what, format!("query json: {e}")))?;
    let query =
        remote::query_from_value(&value).map_err(|e| bad(what, format!("query decode: {e}")))?;
    let (s, p, q) = (r.f64()?, r.f64()?, r.f64()?);
    if !(s.is_finite() && p.is_finite() && q.is_finite()) {
        return Err(bad(what, format!("non-finite params ({s}, {p}, {q})")));
    }
    Ok((query, ExecutionParams::checked(s, p, q)))
}

pub(crate) fn rec_registered(
    query: &Query,
    params: ExecutionParams,
    retain: bool,
    next_serial: u64,
) -> Vec<u8> {
    let mut w = Writer::new();
    put_query(&mut w, query, params);
    w.u8(retain as u8).u64(next_serial);
    w.finish()
}

pub(crate) fn rec_budget(query: QueryId, allocated: f64) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(query.to_u64()).f64(allocated);
    w.finish()
}

pub(crate) fn rec_query_only(query: QueryId) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(query.to_u64());
    w.finish()
}

pub(crate) fn rec_retired(r: &crate::deploy::Retirement) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(r.query.to_u64())
        .f64(r.spent)
        .f64(r.allocated)
        .u64(r.epochs);
    w.finish()
}

pub(crate) fn rec_charge(
    query: QueryId,
    epoch: Timestamp,
    eps: f64,
    spent_after: f64,
    epochs_after: u64,
) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(query.to_u64())
        .u64(epoch.0)
        .f64(eps)
        .f64(spent_after)
        .u64(epochs_after);
    w.finish()
}

pub(crate) fn rec_submitted(
    ts: Timestamp,
    watermark: Timestamp,
    entries: &[(Arc<Query>, ExecutionParams)],
) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(ts.0).u64(watermark.0).u64(entries.len() as u64);
    for (q, p) in entries {
        w.u64(q.id.to_u64()).f64(p.s).f64(p.p).f64(p.q);
    }
    w.finish()
}

/// Everything a close persists, gathered by the supervisor.
pub(crate) struct CloseRecord<'a> {
    pub epoch: Timestamp,
    pub watermark: Timestamp,
    pub partial: bool,
    pub lost: u64,
    pub results: &'a [QueryResult],
    pub offsets: &'a [(String, usize, u64)],
    pub marks: &'a [(QueryId, usize, u64)],
}

pub(crate) fn rec_closed(c: &CloseRecord<'_>) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(c.epoch.0)
        .u64(c.watermark.0)
        .u8(c.partial as u8)
        .u64(c.lost);
    w.u64(c.results.len() as u64);
    for r in c.results {
        put_result(&mut w, r);
    }
    w.u64(c.offsets.len() as u64);
    for (topic, partition, next) in c.offsets {
        w.str(topic).u32(*partition as u32).u64(*next);
    }
    w.u64(c.marks.len() as u64);
    for (qid, shard, hw) in c.marks {
        w.u64(qid.to_u64()).u32(*shard as u32).u64(*hw);
    }
    w.finish()
}

// ----- QueryResult codec (bit-exact: floats as raw bits) -----------

fn put_result(w: &mut Writer, r: &QueryResult) {
    w.u64(r.query.to_u64())
        .u64(r.window.start.0)
        .u64(r.window.end.0)
        .u64(r.sample_size)
        .u64(r.population);
    w.u64(r.buckets.len() as u64);
    for b in &r.buckets {
        w.u64(b.raw_yes)
            .f64(b.estimate_sample)
            .f64(b.estimate)
            .f64(b.ci.estimate)
            .f64(b.ci.bound)
            .f64(b.ci.confidence)
            .f64(b.sampling_error)
            .f64(b.rr_error);
    }
    w.f64(r.privacy.eps_rr).f64(r.privacy.eps_dp).f64(r.privacy.eps_zk);
}

fn get_result(r: &mut Reader<'_>) -> Result<QueryResult, StoreError> {
    let query = QueryId::from_u64(r.u64()?);
    let window = Window {
        start: Timestamp(r.u64()?),
        end: Timestamp(r.u64()?),
    };
    let sample_size = r.u64()?;
    let population = r.u64()?;
    let nb = r.count(64)?;
    let mut buckets = Vec::with_capacity(nb);
    for _ in 0..nb {
        buckets.push(BucketResult {
            raw_yes: r.u64()?,
            estimate_sample: r.f64()?,
            estimate: r.f64()?,
            ci: ConfidenceInterval {
                estimate: r.f64()?,
                bound: r.f64()?,
                confidence: r.f64()?,
            },
            sampling_error: r.f64()?,
            rr_error: r.f64()?,
        });
    }
    let privacy = PrivacyReport {
        eps_rr: r.f64()?,
        eps_dp: r.f64()?,
        eps_zk: r.f64()?,
    };
    Ok(QueryResult {
        query,
        window,
        sample_size,
        population,
        buckets,
        privacy,
    })
}

// ----- recovered state ---------------------------------------------

/// A query reconstructed from the store, with its latest parameters.
pub(crate) struct RecoveredQuery {
    pub query: Query,
    pub params: ExecutionParams,
    pub retain: bool,
    pub ledger: Option<BudgetLedger>,
}

/// An epoch that was durably submitted but never closed: its sends
/// may or may not have escaped before the crash, so recovery re-runs
/// it live — **without** re-charging (the charges are already in the
/// reconstructed ledgers).
pub(crate) struct OpenEpoch {
    pub ts: Timestamp,
    pub watermark: Timestamp,
    pub entries: Vec<(QueryId, ExecutionParams)>,
}

/// Supervisor state reconstructed from snapshot + journal suffix.
#[derive(Default)]
pub(crate) struct RecoveredState {
    pub queries: Vec<RecoveredQuery>,
    /// Multi-tenant schedule, in admission order.
    pub admitted: Vec<QueryId>,
    /// Budget-retired queries (terminal).
    pub terminal: Vec<QueryId>,
    pub now_ms: u64,
    pub next_serial: u64,
    pub recoveries: u64,
    pub partial_closes: u64,
    pub lost_answers: u64,
    pub epochs_closed: u64,
    /// Closed-epoch answer commands for the muted replay, in
    /// submission order: `(query, params, epoch timestamp)`.
    pub history: Vec<(QueryId, ExecutionParams, Timestamp)>,
    /// Submitted-but-unclosed epochs, oldest first.
    pub open_epochs: Vec<OpenEpoch>,
    /// Results closed but possibly not yet drained (at-least-once:
    /// a result drained after the last snapshot is re-emitted).
    pub pending: Vec<QueryResult>,
    /// Last checkpointed committed offsets of the `"aggregator"`
    /// group: `(topic, partition, next offset)`. A whole-system
    /// restart rebuilds the broker log, so these floors are reported
    /// (not force-restored): the rebuilt log's origin *is* the
    /// rebased floor — everything below it was consumed by closed,
    /// journaled epochs.
    pub offsets: Vec<(String, usize, u64)>,
    /// Per-(query, shard) window high-water marks: the largest
    /// window end each shard contributed for each query.
    pub marks: Vec<(QueryId, usize, u64)>,
    /// Retained warehouses captured by the last snapshot:
    /// `(query, [(ts, mid, answer)])`.
    pub warehouses: Vec<(QueryId, Vec<(u64, u128, BitVec)>)>,
    /// Whether the journal ended in a torn (crash-truncated) frame.
    pub torn_tail: bool,
}

impl RecoveredState {
    fn upsert_query(&mut self, q: Query, params: ExecutionParams, retain: bool) {
        match self.queries.iter_mut().find(|rq| rq.query.id == q.id) {
            Some(rq) => {
                rq.query = q;
                rq.params = params;
                rq.retain = retain;
            }
            None => self.queries.push(RecoveredQuery {
                query: q,
                params,
                retain,
                ledger: None,
            }),
        }
    }

    fn ledger_mut(&mut self, qid: QueryId) -> Option<&mut Option<BudgetLedger>> {
        self.queries
            .iter_mut()
            .find(|rq| rq.query.id == qid)
            .map(|rq| &mut rq.ledger)
    }
}

// ----- snapshot assembly -------------------------------------------

/// Everything the supervisor hands the snapshot writer.
pub(crate) struct SnapshotContents<'a> {
    pub now_ms: u64,
    pub next_serial: u64,
    pub recoveries: u64,
    pub partial_closes: u64,
    pub lost_answers: u64,
    pub epochs_closed: u64,
    /// `(query, params, retain, ledger)` for every registered query.
    pub queries: Vec<(&'a Query, ExecutionParams, bool, Option<&'a BudgetLedger>)>,
    pub admitted: &'a [QueryId],
    pub terminal: &'a [QueryId],
    pub history: &'a [(QueryId, ExecutionParams, Timestamp)],
    pub pending: &'a [QueryResult],
    pub offsets: &'a [(String, usize, u64)],
    pub marks: &'a [(QueryId, usize, u64)],
    pub warehouses: &'a [(QueryId, Vec<(u64, u128, BitVec)>)],
}

fn build_sections(c: &SnapshotContents<'_>) -> Vec<(u8, Vec<u8>)> {
    let mut meta = Writer::new();
    meta.u64(c.now_ms)
        .u64(c.next_serial)
        .u64(c.recoveries)
        .u64(c.partial_closes)
        .u64(c.lost_answers)
        .u64(c.epochs_closed);

    let mut queries = Writer::new();
    queries.u64(c.queries.len() as u64);
    for (q, params, retain, ledger) in &c.queries {
        put_query(&mut queries, q, *params);
        queries.u8(*retain as u8);
        match ledger {
            Some(l) => {
                queries.u8(1).f64(l.allocated()).f64(l.spent()).u64(l.epochs());
            }
            None => {
                queries.u8(0);
            }
        }
    }

    let mut sched = Writer::new();
    sched.u64(c.admitted.len() as u64);
    for qid in c.admitted {
        sched.u64(qid.to_u64());
    }
    sched.u64(c.terminal.len() as u64);
    for qid in c.terminal {
        sched.u64(qid.to_u64());
    }

    let mut history = Writer::new();
    history.u64(c.history.len() as u64);
    for (qid, params, ts) in c.history {
        history
            .u64(qid.to_u64())
            .f64(params.s)
            .f64(params.p)
            .f64(params.q)
            .u64(ts.0);
    }

    let mut pending = Writer::new();
    pending.u64(c.pending.len() as u64);
    for r in c.pending {
        put_result(&mut pending, r);
    }

    let mut offsets = Writer::new();
    offsets.u64(c.offsets.len() as u64);
    for (topic, partition, next) in c.offsets {
        offsets.str(topic).u32(*partition as u32).u64(*next);
    }

    let mut marks = Writer::new();
    marks.u64(c.marks.len() as u64);
    for (qid, shard, hw) in c.marks {
        marks.u64(qid.to_u64()).u32(*shard as u32).u64(*hw);
    }

    let mut wh = Writer::new();
    wh.u64(c.warehouses.len() as u64);
    for (qid, entries) in c.warehouses {
        wh.u64(qid.to_u64()).u64(entries.len() as u64);
        for (ts, mid, answer) in entries {
            wh.u64(*ts).u128(*mid).u64(answer.len() as u64);
            wh.bytes(&answer.to_bytes());
        }
    }

    vec![
        (S_META, meta.finish()),
        (S_QUERIES, queries.finish()),
        (S_SCHED, sched.finish()),
        (S_HISTORY, history.finish()),
        (S_PENDING, pending.finish()),
        (S_OFFSETS, offsets.finish()),
        (S_MARKS, marks.finish()),
        (S_WAREHOUSES, wh.finish()),
    ]
}

fn apply_snapshot(state: &mut RecoveredState, sections: &[(u8, Vec<u8>)]) -> Result<(), StoreError> {
    for (kind, payload) in sections {
        match *kind {
            S_META => {
                let mut r = Reader::new(payload, "snapshot meta");
                state.now_ms = r.u64()?;
                state.next_serial = r.u64()?;
                state.recoveries = r.u64()?;
                state.partial_closes = r.u64()?;
                state.lost_answers = r.u64()?;
                state.epochs_closed = r.u64()?;
                r.done()?;
            }
            S_QUERIES => {
                let mut r = Reader::new(payload, "snapshot queries");
                let n = r.count(32)?;
                for _ in 0..n {
                    let (q, params) = get_query(&mut r, "snapshot queries")?;
                    let qid = q.id;
                    let retain = r.u8()? != 0;
                    let ledger = if r.u8()? != 0 {
                        let (alloc, spent) = (r.f64()?, r.f64()?);
                        let epochs = r.u64()?;
                        Some(BudgetLedger::restore(alloc, spent, epochs))
                    } else {
                        None
                    };
                    state.upsert_query(q, params, retain);
                    if ledger.is_some() {
                        if let Some(slot) = state.ledger_mut(qid) {
                            *slot = ledger;
                        }
                    }
                }
                r.done()?;
            }
            S_SCHED => {
                let mut r = Reader::new(payload, "snapshot schedule");
                let na = r.count(8)?;
                for _ in 0..na {
                    state.admitted.push(QueryId::from_u64(r.u64()?));
                }
                let nt = r.count(8)?;
                for _ in 0..nt {
                    state.terminal.push(QueryId::from_u64(r.u64()?));
                }
                r.done()?;
            }
            S_HISTORY => {
                let mut r = Reader::new(payload, "snapshot history");
                let n = r.count(40)?;
                for _ in 0..n {
                    let qid = QueryId::from_u64(r.u64()?);
                    let (s, p, q) = (r.f64()?, r.f64()?, r.f64()?);
                    let ts = Timestamp(r.u64()?);
                    state
                        .history
                        .push((qid, ExecutionParams::checked(s, p, q), ts));
                }
                r.done()?;
            }
            S_PENDING => {
                let mut r = Reader::new(payload, "snapshot pending");
                let n = r.count(64)?;
                for _ in 0..n {
                    state.pending.push(get_result(&mut r)?);
                }
                r.done()?;
            }
            S_OFFSETS => {
                let mut r = Reader::new(payload, "snapshot offsets");
                let n = r.count(20)?;
                state.offsets.clear();
                for _ in 0..n {
                    let topic = r.str()?.to_string();
                    let partition = r.u32()? as usize;
                    let next = r.u64()?;
                    state.offsets.push((topic, partition, next));
                }
                r.done()?;
            }
            S_MARKS => {
                let mut r = Reader::new(payload, "snapshot marks");
                let n = r.count(20)?;
                for _ in 0..n {
                    let qid = QueryId::from_u64(r.u64()?);
                    let shard = r.u32()? as usize;
                    let hw = r.u64()?;
                    state.marks.push((qid, shard, hw));
                }
                r.done()?;
            }
            S_WAREHOUSES => {
                let mut r = Reader::new(payload, "snapshot warehouses");
                let nq = r.count(16)?;
                for _ in 0..nq {
                    let qid = QueryId::from_u64(r.u64()?);
                    let ne = r.count(32)?;
                    let mut entries = Vec::with_capacity(ne);
                    for _ in 0..ne {
                        let ts = r.u64()?;
                        let mid = r.u128()?;
                        let bits = r.u64()? as usize;
                        let raw = r.bytes()?;
                        let answer = BitVec::from_bytes(bits, raw).ok_or_else(|| {
                            bad(
                                "snapshot warehouses",
                                format!("bit vector of {bits} bits does not fit {} bytes", raw.len()),
                            )
                        })?;
                        entries.push((ts, mid, answer));
                    }
                    state.warehouses.push((qid, entries));
                }
                r.done()?;
            }
            other => {
                return Err(bad("snapshot", format!("unknown section kind {other}")));
            }
        }
    }
    Ok(())
}

// ----- journal replay ----------------------------------------------

fn apply_records(state: &mut RecoveredState, records: &[WalRecord]) -> Result<(), StoreError> {
    // Charges buffered until their epoch's `Submitted` proves the
    // sync barrier was crossed; orphans at the journal tail mean no
    // send escaped and are dropped.
    let mut pending_charges: Vec<(QueryId, u64, f64, u64)> = Vec::new();
    for rec in records {
        match rec.kind {
            K_REGISTERED => {
                let mut r = Reader::new(&rec.payload, "registered");
                let (q, params) = get_query(&mut r, "registered")?;
                let retain = r.u8()? != 0;
                let next_serial = r.u64()?;
                r.done()?;
                state.upsert_query(q, params, retain);
                state.next_serial = state.next_serial.max(next_serial);
            }
            K_BUDGET => {
                let mut r = Reader::new(&rec.payload, "budget");
                let qid = QueryId::from_u64(r.u64()?);
                let allocated = r.f64()?;
                r.done()?;
                if let Some(slot) = state.ledger_mut(qid) {
                    *slot = Some(BudgetLedger::restore(allocated, 0.0, 0));
                }
            }
            K_ADMITTED => {
                let mut r = Reader::new(&rec.payload, "admitted");
                let qid = QueryId::from_u64(r.u64()?);
                r.done()?;
                if !state.admitted.contains(&qid) {
                    state.admitted.push(qid);
                }
            }
            K_WITHDRAWN => {
                let mut r = Reader::new(&rec.payload, "withdrawn");
                let qid = QueryId::from_u64(r.u64()?);
                r.done()?;
                state.admitted.retain(|q| *q != qid);
            }
            K_RETIRED => {
                let mut r = Reader::new(&rec.payload, "retired");
                let qid = QueryId::from_u64(r.u64()?);
                let _spent = r.f64()?;
                let _allocated = r.f64()?;
                let _epochs = r.u64()?;
                r.done()?;
                state.admitted.retain(|q| *q != qid);
                if !state.terminal.contains(&qid) {
                    state.terminal.push(qid);
                }
            }
            K_CHARGE => {
                let mut r = Reader::new(&rec.payload, "charge");
                let qid = QueryId::from_u64(r.u64()?);
                let epoch = r.u64()?;
                let _eps = r.f64()?;
                let spent_after = r.f64()?;
                let epochs_after = r.u64()?;
                r.done()?;
                pending_charges.push((qid, epoch, spent_after, epochs_after));
            }
            K_SUBMITTED => {
                let mut r = Reader::new(&rec.payload, "submitted");
                let ts = Timestamp(r.u64()?);
                let watermark = Timestamp(r.u64()?);
                let n = r.count(32)?;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let qid = QueryId::from_u64(r.u64()?);
                    let (s, p, q) = (r.f64()?, r.f64()?, r.f64()?);
                    entries.push((qid, ExecutionParams::checked(s, p, q)));
                }
                r.done()?;
                // The sync barrier was crossed: this epoch's charges
                // are live. Absolute values make re-application after
                // a snapshot idempotent.
                for (qid, epoch, spent_after, epochs_after) in pending_charges.drain(..) {
                    if epoch != ts.0 {
                        continue;
                    }
                    let alloc = state
                        .ledger_mut(qid)
                        .and_then(|slot| slot.as_ref().map(|l| l.allocated()));
                    if let (Some(alloc), Some(slot)) = (alloc, state.ledger_mut(qid)) {
                        *slot = Some(BudgetLedger::restore(alloc, spent_after, epochs_after));
                    } else if let Some(slot) = state.ledger_mut(qid) {
                        // Charge against an implicitly-created
                        // unbounded ledger.
                        *slot = Some(BudgetLedger::restore(
                            f64::INFINITY,
                            spent_after,
                            epochs_after,
                        ));
                    }
                }
                state.now_ms = state.now_ms.max(watermark.0);
                state.open_epochs.push(OpenEpoch {
                    ts,
                    watermark,
                    entries,
                });
            }
            K_CLOSED => {
                let mut r = Reader::new(&rec.payload, "closed");
                let ts = Timestamp(r.u64()?);
                let _watermark = Timestamp(r.u64()?);
                let partial = r.u8()? != 0;
                let lost = r.u64()?;
                let nr = r.count(64)?;
                for _ in 0..nr {
                    state.pending.push(get_result(&mut r)?);
                }
                let no = r.count(20)?;
                let mut offsets = Vec::with_capacity(no);
                for _ in 0..no {
                    let topic = r.str()?.to_string();
                    let partition = r.u32()? as usize;
                    let next = r.u64()?;
                    offsets.push((topic, partition, next));
                }
                let nm = r.count(20)?;
                let mut marks = Vec::with_capacity(nm);
                for _ in 0..nm {
                    let qid = QueryId::from_u64(r.u64()?);
                    let shard = r.u32()? as usize;
                    let hw = r.u64()?;
                    marks.push((qid, shard, hw));
                }
                r.done()?;
                state.offsets = offsets;
                state.marks = marks;
                state.epochs_closed += 1;
                if partial {
                    state.partial_closes += 1;
                }
                state.lost_answers += lost;
                // Move the closed epoch's commands into the muted
                // replay history, preserving submission order.
                if let Some(pos) = state.open_epochs.iter().position(|e| e.ts == ts) {
                    let ep = state.open_epochs.remove(pos);
                    for (qid, params) in ep.entries {
                        state.history.push((qid, params, ep.ts));
                    }
                }
            }
            other => {
                return Err(bad("journal", format!("unknown record kind {other}")));
            }
        }
    }
    Ok(())
}

// ----- durable handle ----------------------------------------------

/// The open durable store plus the supervisor-side cadence state.
pub(crate) struct DurableState {
    pub dir: PathBuf,
    pub wal: Wal,
    /// Epoch closes between snapshots (≥ 1).
    pub snapshot_every: u64,
    pub closes_since_snapshot: u64,
    /// Sequence the *next* snapshot will get.
    pub snapshot_seq: u64,
    /// Successful recoveries of this store directory (persisted in
    /// snapshot meta; surfaced via `DeployHealth::recoveries`).
    pub recoveries: u64,
    /// True while `resume()` replays state that already came *from*
    /// the journal — suppresses re-journaling.
    pub muted: bool,
}

impl DurableState {
    /// Opens (creating if absent) the store directory, replays the
    /// latest snapshot plus the journal suffix, and returns the
    /// reconstructed supervisor state, if any was found.
    pub fn open(
        dir: &Path,
        segment_bytes: u64,
        snapshot_every: u64,
    ) -> Result<(DurableState, Option<RecoveredState>), StoreError> {
        std::fs::create_dir_all(dir).map_err(|e| StoreError::io("create_dir_all", dir, e))?;
        let snapshot = load_latest(dir)?;
        let (wal, recovery) = Wal::open(dir, segment_bytes)?;
        let mut state = RecoveredState::default();
        let mut found = false;
        let mut floor = 0u64;
        let mut snapshot_seq = 0u64;
        if let Some(snap) = snapshot {
            apply_snapshot(&mut state, &snap.sections)?;
            floor = snap.wal_floor;
            snapshot_seq = snap.seq + 1;
            found = true;
        }
        let suffix: Vec<WalRecord> = recovery
            .records
            .into_iter()
            .filter(|r| r.index >= floor)
            .collect();
        if !suffix.is_empty() {
            found = true;
        }
        apply_records(&mut state, &suffix)?;
        state.torn_tail = recovery.torn_tail.is_some();
        let durable = DurableState {
            dir: dir.to_path_buf(),
            wal,
            snapshot_every: snapshot_every.max(1),
            closes_since_snapshot: 0,
            snapshot_seq,
            recoveries: state.recoveries,
            muted: false,
        };
        Ok((durable, if found { Some(state) } else { None }))
    }

    /// Buffers one journal record (no-op while muted).
    pub fn append(&mut self, kind: u8, payload: &[u8]) -> Result<(), StoreError> {
        if self.muted {
            return Ok(());
        }
        self.wal.append(kind, payload)?;
        Ok(())
    }

    /// Makes every buffered record durable (no-op while muted).
    pub fn sync(&mut self) -> Result<(), StoreError> {
        if self.muted {
            return Ok(());
        }
        self.wal.sync()
    }

    /// Writes a snapshot of `contents`, then prunes the journal below
    /// the snapshot floor and retires old snapshot files — the disk
    /// bound. Returns the snapshot size in bytes.
    ///
    /// `floor_cap` bounds the prune floor: open (submitted, not yet
    /// closed) epochs are rebuilt from their journal records on
    /// recovery, so the caller passes the lowest open epoch's journal
    /// mark to keep those records alive past the snapshot.
    pub fn snapshot(
        &mut self,
        contents: &SnapshotContents<'_>,
        floor_cap: u64,
    ) -> Result<u64, StoreError> {
        // The floor must only cover *synced* records: buffered bytes
        // are not yet durable and must survive in the journal.
        self.wal.sync()?;
        let floor = self.wal.next_index().min(floor_cap);
        let sections = build_sections(contents);
        let bytes = write_snapshot(&self.dir, self.snapshot_seq, floor, &sections)?;
        self.snapshot_seq += 1;
        self.wal.prune_below(floor)?;
        prune_snapshots(&self.dir, 2)?;
        self.closes_since_snapshot = 0;
        Ok(bytes)
    }

    /// Total on-disk journal bytes (live segments plus unsynced
    /// buffer), for `DeployHealth::journal_bytes`.
    pub fn journal_bytes(&self) -> u64 {
        dir_bytes(&self.dir).unwrap_or(0) + self.wal.pending_bytes() as u64
    }

    /// Snapshot files currently on disk.
    pub fn snapshot_count(&self) -> u64 {
        privapprox_store::snapshot::snapshot_count(&self.dir).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privapprox_types::ids::AnalystId;
    use privapprox_types::{AnswerSpec, BucketRule, QueryBuilder};

    fn mk_query(serial: u32) -> Query {
        QueryBuilder::new(
            QueryId::new(AnalystId(1), serial),
            "SELECT speed FROM cars",
        )
        .answer(AnswerSpec::new(vec![
            BucketRule::Range { lo: 0.0, hi: 50.0 },
            BucketRule::Range { lo: 50.0, hi: 100.0 },
        ]))
        .window(1_000, 1_000)
        .sign_and_build(42)
    }

    fn mk_result(qid: QueryId, start: u64) -> QueryResult {
        QueryResult {
            query: qid,
            window: Window {
                start: Timestamp(start),
                end: Timestamp(start + 1_000),
            },
            sample_size: 7,
            population: 100,
            buckets: vec![BucketResult {
                raw_yes: 5,
                estimate_sample: 4.25,
                estimate: 42.5,
                ci: ConfidenceInterval {
                    estimate: 42.5,
                    bound: 3.125,
                    confidence: 0.95,
                },
                sampling_error: 2.0,
                rr_error: 1.125,
            }],
            privacy: PrivacyReport {
                eps_rr: 1.0,
                eps_dp: 0.5,
                eps_zk: 0.25,
            },
        }
    }

    #[test]
    fn result_codec_is_bit_exact() {
        let q = mk_query(1);
        let original = mk_result(q.id, 500);
        let mut w = Writer::new();
        put_result(&mut w, &original);
        let buf = w.finish();
        let mut r = Reader::new(&buf, "test");
        let decoded = get_result(&mut r).unwrap();
        r.done().unwrap();
        assert_eq!(decoded, original);
    }

    #[test]
    fn orphan_charges_without_submitted_are_dropped() {
        let q = mk_query(1);
        let mut records = Vec::new();
        let mut idx = 0u64;
        let mut push = |records: &mut Vec<WalRecord>, kind: u8, payload: Vec<u8>| {
            records.push(WalRecord {
                index: idx,
                kind,
                payload,
            });
            idx += 1;
        };
        let params = ExecutionParams::checked(1.0, 0.9, 0.5);
        push(
            &mut records,
            K_REGISTERED,
            rec_registered(&q, params, false, 2),
        );
        push(&mut records, K_BUDGET, rec_budget(q.id, 1.0));
        // Epoch 1: charge + submitted (applied).
        push(
            &mut records,
            K_CHARGE,
            rec_charge(q.id, Timestamp(500), 0.25, 0.25, 1),
        );
        push(
            &mut records,
            K_SUBMITTED,
            rec_submitted(Timestamp(500), Timestamp(1_000), &[(Arc::new(q.clone()), params)]),
        );
        // Epoch 2: a torn tail left the charge without its submitted.
        push(
            &mut records,
            K_CHARGE,
            rec_charge(q.id, Timestamp(1_500), 0.25, 0.5, 2),
        );
        let mut state = RecoveredState::default();
        apply_records(&mut state, &records).unwrap();
        let ledger = state.queries[0].ledger.as_ref().unwrap();
        assert_eq!(ledger.spent(), 0.25, "orphan charge must not apply");
        assert_eq!(ledger.epochs(), 1);
        assert_eq!(state.open_epochs.len(), 1, "epoch 1 submitted, never closed");
    }

    #[test]
    fn closed_epochs_move_to_history_and_results_restore() {
        let q = mk_query(1);
        let params = ExecutionParams::checked(1.0, 0.9, 0.5);
        let result = mk_result(q.id, 0);
        let records = vec![
            WalRecord {
                index: 0,
                kind: K_REGISTERED,
                payload: rec_registered(&q, params, false, 2),
            },
            WalRecord {
                index: 1,
                kind: K_SUBMITTED,
                payload: rec_submitted(
                    Timestamp(500),
                    Timestamp(1_000),
                    &[(Arc::new(q.clone()), params)],
                ),
            },
            WalRecord {
                index: 2,
                kind: K_CLOSED,
                payload: rec_closed(&CloseRecord {
                    epoch: Timestamp(500),
                    watermark: Timestamp(1_000),
                    partial: false,
                    lost: 0,
                    results: std::slice::from_ref(&result),
                    offsets: &[("proxy-0-out".to_string(), 0, 11)],
                    marks: &[(q.id, 0, 1_000)],
                }),
            },
        ];
        let mut state = RecoveredState::default();
        apply_records(&mut state, &records).unwrap();
        assert!(state.open_epochs.is_empty());
        assert_eq!(state.history, vec![(q.id, params, Timestamp(500))]);
        assert_eq!(state.pending, vec![result]);
        assert_eq!(state.offsets, vec![("proxy-0-out".to_string(), 0, 11)]);
        assert_eq!(state.marks, vec![(q.id, 0, 1_000)]);
        assert_eq!(state.epochs_closed, 1);
        assert_eq!(state.now_ms, 1_000);
    }

    #[test]
    fn snapshot_sections_round_trip() {
        let q = mk_query(1);
        let params = ExecutionParams::checked(1.0, 0.9, 0.5);
        let ledger = BudgetLedger::restore(2.0, 0.75, 3);
        let result = mk_result(q.id, 2_000);
        let history = vec![(q.id, params, Timestamp(500))];
        let pending = vec![result.clone()];
        let offsets = vec![("proxy-1-out".to_string(), 2, 33u64)];
        let marks = vec![(q.id, 1, 3_000u64)];
        let warehouses = vec![(
            q.id,
            vec![(500u64, 7u128, BitVec::one_hot(2, 1))],
        )];
        let contents = SnapshotContents {
            now_ms: 3_000,
            next_serial: 2,
            recoveries: 1,
            partial_closes: 4,
            lost_answers: 9,
            epochs_closed: 3,
            queries: vec![(&q, params, true, Some(&ledger))],
            admitted: &[q.id],
            terminal: &[],
            history: &history,
            pending: &pending,
            offsets: &offsets,
            marks: &marks,
            warehouses: &warehouses,
        };
        let sections = build_sections(&contents);
        let mut state = RecoveredState::default();
        apply_snapshot(&mut state, &sections).unwrap();
        assert_eq!(state.now_ms, 3_000);
        assert_eq!(state.next_serial, 2);
        assert_eq!(state.recoveries, 1);
        assert_eq!(state.partial_closes, 4);
        assert_eq!(state.lost_answers, 9);
        assert_eq!(state.epochs_closed, 3);
        assert_eq!(state.queries.len(), 1);
        assert!(state.queries[0].retain);
        let l = state.queries[0].ledger.as_ref().unwrap();
        assert_eq!((l.allocated(), l.spent(), l.epochs()), (2.0, 0.75, 3));
        assert_eq!(state.admitted, vec![q.id]);
        assert_eq!(state.history, history);
        assert_eq!(state.pending, pending);
        assert_eq!(state.offsets, offsets);
        assert_eq!(state.marks, marks);
        assert_eq!(state.warehouses.len(), 1);
        assert_eq!(state.warehouses[0].1[0].2, BitVec::one_hot(2, 1));
    }
}
