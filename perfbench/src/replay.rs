//! Replays of single layers' public functions on a workload's own
//! inputs, for the traced run's per-layer table: the client stages,
//! the shard's join / decode-fold / finalize, a journal append+sync
//! and the socket batch codec.

use crate::stats;
use crate::workload::{self, Workload, PROXIES};
use privapprox_cluster::wire::{decode_data_batch, encode_data_batch, DataMsg};
use privapprox_core::aggregator::finalize_window_into;
use privapprox_core::client::{Client, ClientScratch};
use privapprox_core::QueryResult;
use privapprox_crypto::xor::{decode_answer_into, encode_answer_into};
use privapprox_crypto::{SplitScratch, XorSplitter};
use privapprox_rr::estimate::BucketEstimator;
use privapprox_rr::randomize::{RandomizeScratch, Randomizer};
use privapprox_sql::{ColumnType, Schema, Value};
use privapprox_store::{Wal, DEFAULT_SEGMENT_BYTES};
use privapprox_stream::join::{JoinOutcome, MidJoiner};
use privapprox_types::{BitVec, ClientId, MessageId, Query, Timestamp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Time spent timing each replayed function.
const BUDGET: Duration = Duration::from_millis(150);

/// Calls of `body` between clock reads.
const BATCH: u64 = 16;

/// Mean ns per call of `body`, after a warm-up, over [`BUDGET`].
fn ns_per_call(mut body: impl FnMut()) -> f64 {
    for _ in 0..BATCH {
        body();
    }
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed() < BUDGET {
        for _ in 0..BATCH {
            body();
        }
        calls += BATCH;
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

/// Bytes of one journaled window close at `buckets` buckets, following
/// the close record's layout: epoch, watermark, partial flag and lost
/// count; one result (query, window, sample size and population, then
/// a raw count and seven floats per bucket, then three privacy
/// levels); the committed offsets of two proxy topics × two partitions.
pub fn close_record_bytes(buckets: usize) -> usize {
    let header = 8 + 8 + 1 + 8 + 8;
    let result = 5 * 8 + 8 + buckets * 8 * 8 + 3 * 8;
    let offsets = 8 + 4 * (4 + "proxy-0-out".len() + 4 + 8);
    header + result + offsets
}

/// The client stages of one answer at the workload's width:
/// `(sql.bucketize_ns, rr.randomize_ns, crypto.encode_ns,
/// crypto.split_ns)`, plus the share payload the split produced.
pub fn client_stages(w: &Workload, seed: u64, key: u64, query: &Query) -> ([f64; 4], Vec<u8>) {
    let mut client = Client::new(ClientId(0), seed, key);
    client.db_mut().create_table(
        "rides",
        Schema::new(vec![("ts", ColumnType::Int), ("d", ColumnType::Float)]),
    );
    client
        .db_mut()
        .insert(
            "rides",
            vec![Value::Int(0), Value::Float(workload::value(seed, 0))],
        )
        .expect("schema arity");
    // The whole answer path once, so plans and indexers are cached.
    let mut scratch = ClientScratch::new();
    let params = w.params();
    for _ in 0..8 {
        let _ = client.answer_query_into(query, &params, PROXIES, &mut scratch);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut truth = BitVec::zeros(w.buckets);
    let bucketize = ns_per_call(|| {
        client
            .truthful_answer_into(query, &mut truth)
            .expect("replay query answers");
        black_box(&truth);
    });
    let randomizer = Randomizer::new(workload::P, workload::Q);
    let mut randomized = BitVec::zeros(w.buckets);
    let mut rscratch = RandomizeScratch::new();
    let randomize = ns_per_call(|| {
        randomizer.randomize_vec_buffered(&truth, &mut randomized, &mut rscratch, &mut rng);
        black_box(&randomized);
    });
    let mut message = Vec::new();
    let encode = ns_per_call(|| {
        encode_answer_into(query.id, &randomized, &mut message);
        black_box(&message);
    });
    let splitter = XorSplitter::new(PROXIES);
    let mut split = SplitScratch::new();
    let split_ns = ns_per_call(|| {
        let mid = MessageId(rng.gen());
        black_box(splitter.split_into(&message, mid, &mut rng, &mut split));
    });
    let share = splitter.split_into(&message, MessageId(1), &mut rng, &mut split)[0]
        .payload
        .to_vec();
    ([bucketize, randomize, encode, split_ns], share)
}

/// The shard's per-answer work at the workload's width:
/// `(join.ns_per_share, aggregator.decode_fold_ns,
/// aggregator.finalize_ms)`.
pub fn shard_stages(w: &Workload, seed: u64, query: &Query, shell: &QueryResult) -> [f64; 3] {
    const MESSAGES: usize = 64;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5A4D);
    let randomizer = Randomizer::new(workload::P, workload::Q);
    let splitter = XorSplitter::new(PROXIES);
    let mut rscratch = RandomizeScratch::new();
    let mut split = SplitScratch::new();
    let mut messages = Vec::with_capacity(MESSAGES);
    let mut shares = Vec::with_capacity(MESSAGES);
    for i in 0..MESSAGES {
        let truth = BitVec::one_hot(w.buckets, i % w.buckets);
        let mut randomized = BitVec::zeros(w.buckets);
        randomizer.randomize_vec_buffered(&truth, &mut randomized, &mut rscratch, &mut rng);
        let mut message = Vec::new();
        encode_answer_into(query.id, &randomized, &mut message);
        let mid = MessageId(rng.gen());
        let parts: Vec<Vec<u8>> = splitter
            .split_into(&message, mid, &mut rng, &mut split)
            .iter()
            .map(|s| s.payload.to_vec())
            .collect();
        shares.push((mid, parts));
        messages.push(message);
    }

    // Join: every round offers each message's shares under a fresh
    // query tag, so no key repeats; the event clock advances and the
    // joiner is swept so its state stays bounded.
    let mut joiner = MidJoiner::new(PROXIES, workload::WINDOW_MS);
    let mut round = 0u64;
    let join_ns = ns_per_call(|| {
        round += 1;
        let now = Timestamp(round * 1_000);
        for (mid, parts) in &shares {
            for (source, part) in parts.iter().enumerate() {
                if let JoinOutcome::Complete(joined) = joiner.offer(round, *mid, source, part, now)
                {
                    joiner.recycle(black_box(joined));
                }
            }
        }
        if round.is_multiple_of(64) {
            joiner.sweep(now);
        }
    }) / (MESSAGES * PROXIES) as f64;

    let mut estimator = BucketEstimator::new(w.buckets, workload::P, workload::Q);
    let mut decoded = BitVec::zeros(w.buckets);
    let mut next = 0usize;
    let decode_fold_ns = ns_per_call(|| {
        decode_answer_into(&messages[next], &mut decoded).expect("replayed answer decodes");
        estimator.push(&decoded);
        next = (next + 1) % MESSAGES;
    });

    let mut out = shell.clone();
    let params = w.params();
    let finalize_ns = ns_per_call(|| {
        finalize_window_into(
            &mut out,
            query.id,
            shell.window,
            &mut estimator,
            params,
            w.clients,
            0.95,
        );
        black_box(&out);
    });
    [join_ns, decode_fold_ns, finalize_ns / 1e6]
}

/// Median ms of a journal append + sync of one close record at the
/// workload's width, in a fresh journal under `dir`.
pub fn append_sync_ms(w: &Workload, dir: &Path) -> f64 {
    let _ = std::fs::remove_dir_all(dir);
    let (mut wal, _) = Wal::open(dir, DEFAULT_SEGMENT_BYTES).expect("open replay journal");
    let payload = vec![0xA5u8; close_record_bytes(w.buckets)];
    let mut samples = Vec::new();
    for _ in 0..32 {
        let start = Instant::now();
        wal.append(1, &payload).expect("journal append");
        wal.sync().expect("journal sync");
        samples.push(start.elapsed().as_secs_f64() * 1e3);
    }
    drop(wal);
    let _ = std::fs::remove_dir_all(dir);
    stats::median(&samples)
}

/// Per-record ns of encoding and decoding a 64-record data batch of
/// share-sized records: `(wire.batch_encode_ns, wire.batch_decode_ns)`.
pub fn wire_batch(share_len: usize) -> [f64; 2] {
    const RECORDS: usize = 64;
    let key: std::sync::Arc<[u8]> = vec![7u8; 24].into();
    let value: std::sync::Arc<[u8]> = vec![0x3Cu8; share_len].into();
    let msgs: Vec<DataMsg> = (0..RECORDS)
        .map(|i| DataMsg {
            seq: 1 + i as u64,
            stream: 0,
            partition: (i % 2) as u32,
            timestamp: 30_000,
            key: Some(key.clone()),
            value: value.clone(),
        })
        .collect();
    let encode = ns_per_call(|| {
        black_box(encode_data_batch(&msgs));
    });
    let payload = encode_data_batch(&msgs);
    let mut out = Vec::with_capacity(RECORDS);
    let decode = ns_per_call(|| {
        out.clear();
        let n = decode_data_batch(&payload, &mut out).expect("replayed batch decodes");
        black_box(n);
    });
    [encode / RECORDS as f64, decode / RECORDS as f64]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn close_record_grows_eight_words_per_bucket() {
        assert_eq!(close_record_bytes(11) - close_record_bytes(10), 64);
        assert!(close_record_bytes(10_000) > 640_000);
    }
}
