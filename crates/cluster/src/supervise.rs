//! Supervised connections: reconnect with backoff, a retry budget,
//! and idempotent resend.
//!
//! PR 6 supervised every *thread*; this module extends the same
//! stance to every *connection*. A [`SupervisedLink`] owns a dial
//! closure, a live transport, and the sliding window of
//! unacknowledged data frames. When the link errors it re-dials under
//! an exponential [`BackoffPolicy`] (with deterministic jitter and a
//! bounded retry budget) and replays every unacknowledged frame —
//! safe because the receiving aggregator's MID duplicate defense
//! already makes share delivery idempotent, so over-delivery costs a
//! `duplicates` counter tick, never a double count.

use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::transport::Transport;
use crate::wire::{decode_ack, Frame, FrameKind};

/// Exponential backoff with deterministic jitter and a retry budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// First retry delay.
    pub base: Duration,
    /// Delay ceiling.
    pub max: Duration,
    /// Jitter amplitude in 1/256ths of the delay (64 = ±25%).
    pub jitter_256: u32,
    /// Consecutive dial failures tolerated before the link gives up
    /// (surfacing a hard error to the owner, who escalates it as a
    /// dead peer — feeding the epoch-deadline partial close).
    pub budget: u32,
}

impl Default for BackoffPolicy {
    fn default() -> BackoffPolicy {
        BackoffPolicy {
            base: Duration::from_millis(10),
            max: Duration::from_millis(500),
            jitter_256: 64,
            budget: 8,
        }
    }
}

impl BackoffPolicy {
    /// Delay before retry `attempt` (0-based): `base · 2^attempt`
    /// capped at `max`, jittered deterministically from
    /// `(seed, attempt)` so chaos runs replay.
    pub fn delay(&self, attempt: u32, seed: u64) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.max);
        if self.jitter_256 == 0 {
            return exp;
        }
        // splitmix64 over (seed, attempt) — stable across runs.
        let mut z = seed
            .wrapping_add(attempt as u64)
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        // Signed jitter in [-jitter, +jitter] 256ths.
        let span = self.jitter_256 as i64;
        let offset = (z % (2 * span as u64 + 1)) as i64 - span;
        let nanos = exp.as_nanos() as i64;
        let jittered = nanos + nanos * offset / 256;
        Duration::from_nanos(jittered.max(0) as u64)
    }
}

/// Shared counters a [`SupervisedLink`] maintains; the deployment
/// aggregates them into `DeployHealth`.
#[derive(Debug, Default)]
pub struct LinkStats {
    /// Successful re-dials after a link error.
    pub reconnects: AtomicU64,
    /// Data frames re-transmitted (after a reconnect or an ack
    /// timeout).
    pub resends: AtomicU64,
    /// `Reject` frames received from the peer's admission control.
    pub rejections: AtomicU64,
    /// Times the retry budget was exhausted (link declared dead).
    pub gave_up: AtomicU64,
}

impl LinkStats {
    /// Fresh zeroed stats behind an `Arc`.
    pub fn shared() -> Arc<LinkStats> {
        Arc::new(LinkStats::default())
    }
}

/// How long a link waits for ack progress before proactively
/// re-sending its unacknowledged window (repairs silently dropped
/// frames without waiting for a reconnect).
const DEFAULT_RESEND_AFTER: Duration = Duration::from_millis(250);

/// Cap on the unacknowledged-frame window retained for resend.
///
/// If the peer stops acking entirely the window would otherwise grow
/// with the epoch; beyond this cap the oldest frames are dropped from
/// the resend buffer (the epoch-deadline ledger then accounts the
/// loss as a partial close, which is the designed degradation).
const MAX_UNACKED: usize = 65_536;

/// A dialed connection supervised like PR 6's threads: errors trigger
/// re-dial with backoff, and unacknowledged data frames are replayed
/// (idempotently, thanks to MID dedup) on every reconnect or ack
/// stall.
pub struct SupervisedLink {
    dial: Box<dyn FnMut() -> io::Result<Box<dyn Transport>> + Send>,
    conn: Option<Box<dyn Transport>>,
    policy: BackoffPolicy,
    stats: Arc<LinkStats>,
    seed: u64,
    /// Next data-frame sequence number to assign (starts at 1).
    next_seq: u64,
    /// Highest cumulatively acknowledged sequence.
    acked: u64,
    /// Data frames sent but not yet acknowledged, oldest first.
    unacked: VecDeque<(u64, Frame)>,
    /// Last time the ack high-water mark moved (or traffic started).
    last_progress: Instant,
    /// Ack-stall threshold triggering a proactive resend.
    resend_after: Duration,
    /// True once any dial has succeeded (distinguishes the first
    /// connect from a *re*-connect in the stats).
    ever_connected: bool,
}

impl SupervisedLink {
    /// Creates a supervised link that will lazily dial on first use.
    ///
    /// `dial` must return a ready transport (handshake already done);
    /// mapping a `Reject` during handshake to an error keeps admission
    /// pressure inside the backoff loop.
    pub fn new(
        dial: Box<dyn FnMut() -> io::Result<Box<dyn Transport>> + Send>,
        policy: BackoffPolicy,
        stats: Arc<LinkStats>,
        seed: u64,
    ) -> SupervisedLink {
        SupervisedLink {
            dial,
            conn: None,
            policy,
            stats,
            seed,
            next_seq: 1,
            acked: 0,
            unacked: VecDeque::new(),
            last_progress: Instant::now(),
            resend_after: DEFAULT_RESEND_AFTER,
            ever_connected: false,
        }
    }

    /// Overrides the ack-stall resend threshold.
    pub fn set_resend_after(&mut self, after: Duration) {
        self.resend_after = after;
    }

    /// The link's shared counters.
    pub fn stats(&self) -> &Arc<LinkStats> {
        &self.stats
    }

    /// Sequence number that will be assigned to the next data frame.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Number of data frames awaiting acknowledgement.
    pub fn unacked_len(&self) -> usize {
        self.unacked.len()
    }

    /// Ensures a live connection, dialing under the backoff policy.
    ///
    /// Counts a reconnect only when replacing a previously-live
    /// connection (first dial is not a "re"-connect). On success the
    /// unacknowledged window is replayed.
    fn ensure_connected(&mut self) -> io::Result<&mut Box<dyn Transport>> {
        if self.conn.is_some() {
            // Borrow dance: re-match to satisfy the borrow checker.
            return Ok(self.conn.as_mut().unwrap());
        }
        let had_conn_before = self.ever_connected;
        let mut last_err = None;
        for attempt in 0..=self.policy.budget {
            if attempt > 0 || last_err.is_some() {
                std::thread::sleep(self.policy.delay(attempt.saturating_sub(1), self.seed));
            }
            match (self.dial)() {
                Ok(conn) => {
                    self.conn = Some(conn);
                    self.ever_connected = true;
                    if had_conn_before {
                        self.stats.reconnects.fetch_add(1, Ordering::Relaxed);
                    }
                    self.last_progress = Instant::now();
                    self.replay_unacked()?;
                    return Ok(self.conn.as_mut().unwrap());
                }
                Err(e) => last_err = Some(e),
            }
        }
        self.stats.gave_up.fetch_add(1, Ordering::Relaxed);
        Err(last_err.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::ConnectionRefused, "dial budget exhausted")
        }))
    }

    /// Replays every unacknowledged data frame onto the current
    /// connection (after a reconnect).
    fn replay_unacked(&mut self) -> io::Result<()> {
        if self.unacked.is_empty() {
            return Ok(());
        }
        let conn = self.conn.as_mut().expect("replay without connection");
        let mut sent = 0u64;
        for (_, frame) in &self.unacked {
            conn.send(frame)?;
            sent += 1;
        }
        conn.flush()?;
        self.stats.resends.fetch_add(sent, Ordering::Relaxed);
        Ok(())
    }

    /// Drops the connection so the next operation re-dials.
    fn sever(&mut self) {
        self.conn = None;
    }

    /// Sends a frame; data frames join the unacked window first, so a
    /// failure (now or later) replays them. One transparent
    /// reconnect-and-retry; a second failure propagates.
    ///
    /// Data frames have their leading `seq` field rewritten with this
    /// link's own sequence counter, so the unacked window, the wire,
    /// and the peer's cumulative acks always agree regardless of what
    /// the caller put there.
    pub fn send(&mut self, mut frame: Frame) -> io::Result<()> {
        // Connect (with any replay) *before* enrolling this frame in
        // the window, so a connect-time replay cannot double-send it.
        self.ensure_connected()?;
        if frame.kind == FrameKind::Data {
            if frame.payload.len() >= 8 {
                frame.payload[..8].copy_from_slice(&self.next_seq.to_le_bytes());
            }
            if self.unacked.len() >= MAX_UNACKED {
                // Shed the oldest: the epoch ledger accounts the loss.
                self.unacked.pop_front();
            }
            if self.unacked.is_empty() {
                // The stall clock measures "no ack progress while
                // frames were outstanding": restart it when the
                // window reopens, or an idle gap since the last ack
                // would count against the first frame of a new burst
                // and trigger a spurious replay.
                self.last_progress = Instant::now();
            }
            self.unacked.push_back((self.next_seq, frame.clone()));
            self.next_seq += 1;
        }
        match self.conn.as_mut().expect("just connected").send(&frame) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.sever();
                if frame.kind == FrameKind::Data {
                    // The replay on reconnect carries it.
                    self.ensure_connected().map(|_| ())
                } else {
                    // Control frames retry exactly once.
                    match self.ensure_connected().and_then(|c| c.send(&frame)) {
                        Ok(()) => Ok(()),
                        Err(_) => {
                            self.sever();
                            Err(e)
                        }
                    }
                }
            }
        }
    }

    /// Flushes buffered writes (reconnecting if needed).
    pub fn flush(&mut self) -> io::Result<()> {
        match self.ensure_connected().and_then(|c| c.flush()) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.sever();
                Err(e)
            }
        }
    }

    /// Receives a frame that has already arrived, or `Ok(None)` at
    /// once. `DataAck`s are consumed internally (they advance the
    /// resend window) and the receive goes on past them; `Reject`s are
    /// counted and surfaced. A link error triggers one reconnect
    /// attempt and reads as quiet (`Ok(None)`) for that round.
    pub fn try_recv(&mut self) -> io::Result<Option<Frame>> {
        loop {
            let result = self.ensure_connected()?.try_recv();
            match result {
                Ok(Some(frame)) if frame.kind == FrameKind::DataAck => {
                    let seq = decode_ack(&frame.payload)?;
                    if seq > self.acked {
                        self.acked = seq;
                        self.last_progress = Instant::now();
                        while self.unacked.front().is_some_and(|(s, _)| *s <= seq) {
                            self.unacked.pop_front();
                        }
                    }
                }
                Ok(Some(frame)) if frame.kind == FrameKind::Reject => {
                    self.stats.rejections.fetch_add(1, Ordering::Relaxed);
                    return Ok(Some(frame));
                }
                Ok(other) => return Ok(other),
                Err(_) => {
                    self.sever();
                    // Quietly reconnect; the replay repairs lost frames.
                    return self.ensure_connected().map(|_| None);
                }
            }
        }
    }

    /// Proactively replays the unacked window if the peer has not
    /// acked anything for `resend_after`. Call periodically from the
    /// bridge loop; repairs silent drops without waiting for a
    /// connection error.
    pub fn maybe_resend(&mut self) -> io::Result<()> {
        if self.unacked.is_empty() || self.last_progress.elapsed() < self.resend_after {
            return Ok(());
        }
        self.last_progress = Instant::now(); // pace retries
        match self.replay_unacked() {
            Ok(()) => Ok(()),
            Err(_) => {
                self.sever();
                self.ensure_connected().map(|_| ())
            }
        }
    }
}

/// The receiving half of a supervised link's resend protocol: puts
/// data frames back in sequence order exactly once.
///
/// A [`SupervisedLink`] may deliver frames duplicated (replay after
/// reconnect or ack stall) or adjacently reordered (fault injection).
/// The reassembly keeps a `next` cursor: in-order frames deliver
/// immediately, ahead-of-order frames are parked until the gap fills,
/// and frames below the cursor are acknowledged but dropped as
/// duplicates. The cursor survives reconnects — replayed frames keep
/// their original sequence numbers — so state must live *outside* the
/// per-connection transport.
#[derive(Debug, Default)]
pub struct Reassembly<T> {
    /// Next sequence number expected (frames start at seq 1; `next`
    /// starts at 0 meaning "nothing seen", first expected seq is 1).
    next: u64,
    /// Frames that arrived ahead of a gap, keyed by sequence.
    parked: BTreeMap<u64, T>,
    /// Duplicate deliveries skipped.
    duplicates: u64,
}

/// Cap on frames parked ahead of a gap; beyond it the oldest parked
/// frame is delivered out of order rather than growing without bound
/// (the MID duplicate defense downstream absorbs the disorder).
const MAX_PARKED: usize = 4_096;

impl<T> Reassembly<T> {
    /// Empty reassembly expecting sequence 1 first.
    pub fn new() -> Reassembly<T> {
        Reassembly {
            next: 0,
            parked: BTreeMap::new(),
            duplicates: 0,
        }
    }

    /// Accepts a frame with sequence `seq`, appending every newly
    /// deliverable frame (in order) to `out`. Duplicates are counted
    /// and dropped.
    pub fn accept(&mut self, seq: u64, frame: T, out: &mut Vec<T>) {
        if seq <= self.next {
            self.duplicates += 1;
            return;
        }
        if seq == self.next + 1 {
            self.next = seq;
            out.push(frame);
            // Drain any parked run now contiguous with the cursor.
            while let Some(entry) = self.parked.remove(&(self.next + 1)) {
                self.next += 1;
                out.push(entry);
            }
        } else {
            if self.parked.insert(seq, frame).is_some() {
                self.duplicates += 1;
            }
            if self.parked.len() > MAX_PARKED {
                // Gap never filling (sender shed its window): release
                // the oldest parked frame and move the cursor past it.
                if let Some((&s, _)) = self.parked.iter().next() {
                    let f = self.parked.remove(&s).expect("first key exists");
                    self.next = s;
                    out.push(f);
                    while let Some(entry) = self.parked.remove(&(self.next + 1)) {
                        self.next += 1;
                        out.push(entry);
                    }
                }
            }
        }
    }

    /// Cumulative acknowledgement to send the peer: the highest
    /// sequence delivered in order (`0` = nothing yet, don't ack).
    pub fn ack_floor(&self) -> u64 {
        self.next
    }

    /// Duplicate deliveries dropped so far.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::ChannelTransport;
    use crate::wire::DataMsg;
    use std::sync::Mutex;

    fn data_frame(seq: u64) -> Frame {
        Frame::new(
            FrameKind::Data,
            DataMsg {
                seq,
                stream: 0,
                partition: 0,
                timestamp: 0,
                key: None,
                value: vec![].into(),
            }
            .encode(),
        )
    }

    #[test]
    fn backoff_grows_caps_and_jitters_deterministically() {
        let p = BackoffPolicy::default();
        let d0 = p.delay(0, 42);
        let d3 = p.delay(3, 42);
        assert!(d3 > d0);
        assert!(p.delay(30, 42) <= p.max + p.max / 4); // capped (+jitter)
        assert_eq!(p.delay(2, 7), p.delay(2, 7)); // deterministic
        let nj = BackoffPolicy {
            jitter_256: 0,
            ..p
        };
        assert_eq!(nj.delay(1, 1), nj.delay(1, 2)); // jitter-free
    }

    /// A dial source handing out pre-built transports; `None` entries
    /// simulate dial failures.
    fn scripted_dial(
        script: Vec<Option<ChannelTransport>>,
    ) -> (
        Box<dyn FnMut() -> io::Result<Box<dyn Transport>> + Send>,
        Arc<Mutex<usize>>,
    ) {
        let calls = Arc::new(Mutex::new(0usize));
        let calls2 = calls.clone();
        let script = Arc::new(Mutex::new(script.into_iter()));
        let dial = Box::new(move || {
            *calls2.lock().unwrap() += 1;
            match script.lock().unwrap().next() {
                Some(Some(t)) => Ok(Box::new(t) as Box<dyn Transport>),
                _ => Err(io::Error::new(io::ErrorKind::ConnectionRefused, "down")),
            }
        });
        (dial, calls)
    }

    #[test]
    fn dial_failures_respect_budget_and_count_give_up() {
        let (dial, calls) = scripted_dial(vec![None, None, None]);
        let stats = LinkStats::shared();
        let mut link = SupervisedLink::new(
            dial,
            BackoffPolicy {
                base: Duration::from_micros(10),
                max: Duration::from_micros(50),
                jitter_256: 0,
                budget: 2,
            },
            stats.clone(),
            1,
        );
        let err = link.send(Frame::bare(FrameKind::Shutdown)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
        assert!(*calls.lock().unwrap() >= 3); // initial + budget
        assert!(stats.gave_up.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn reconnect_replays_unacked_data() {
        // First transport dies after accepting sends; second lives.
        let (alive_a, mut alive_b) = ChannelTransport::pair(64);
        let (dead_a, dead_b) = ChannelTransport::pair(64);
        let stats = LinkStats::shared();
        let (dial, _) = scripted_dial(vec![Some(dead_a), Some(alive_a)]);
        let mut link = SupervisedLink::new(
            dial,
            BackoffPolicy {
                base: Duration::from_micros(10),
                max: Duration::from_micros(10),
                jitter_256: 0,
                budget: 3,
            },
            stats.clone(),
            9,
        );
        link.send(data_frame(0)).unwrap();
        link.send(data_frame(0)).unwrap();
        drop(dead_b); // peer vanishes
        // Next send detects the broken pipe, re-dials, replays.
        link.send(data_frame(0)).unwrap();
        link.flush().unwrap();
        alive_b.set_read_timeout(Duration::from_millis(5)).unwrap();
        let mut seqs = Vec::new();
        while let Some(f) = alive_b.recv().unwrap() {
            seqs.push(DataMsg::decode(&f.payload).unwrap().seq);
        }
        // The reconnect replayed the whole window (frames 1 and 2 plus
        // the enrolled-but-unsent frame 3) exactly once.
        assert_eq!(seqs, vec![1, 2, 3]);
        assert_eq!(stats.reconnects.load(Ordering::Relaxed), 1);
        assert_eq!(stats.resends.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn acks_trim_window_and_stall_triggers_resend() {
        let (a, mut b) = ChannelTransport::pair(256);
        let stats = LinkStats::shared();
        let (dial, _) = scripted_dial(vec![Some(a)]);
        let mut link = SupervisedLink::new(dial, BackoffPolicy::default(), stats.clone(), 2);
        link.set_resend_after(Duration::from_millis(1));
        for _ in 0..4 {
            link.send(data_frame(0)).unwrap();
        }
        assert_eq!(link.unacked_len(), 4);
        // Peer acks through 3.
        b.send(&Frame::new(FrameKind::DataAck, crate::wire::encode_ack(3)))
            .unwrap();
        while link.unacked_len() > 1 {
            assert!(link.try_recv().unwrap().is_none());
        }
        assert_eq!(link.unacked_len(), 1);
        // Now stall: no more acks → maybe_resend replays frame 4.
        std::thread::sleep(Duration::from_millis(2));
        link.maybe_resend().unwrap();
        assert_eq!(stats.resends.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn rejects_are_counted_and_surfaced() {
        let (a, mut b) = ChannelTransport::pair(16);
        let stats = LinkStats::shared();
        let (dial, _) = scripted_dial(vec![Some(a)]);
        let mut link = SupervisedLink::new(dial, BackoffPolicy::default(), stats.clone(), 2);
        link.send(data_frame(0)).unwrap();
        b.send(&Frame::reject(crate::wire::RejectReason::RateLimited))
            .unwrap();
        let got = link.try_recv().unwrap().unwrap();
        assert_eq!(got.kind, FrameKind::Reject);
        assert_eq!(stats.rejections.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn reassembly_reorders_and_dedups() {
        let mut r: Reassembly<u64> = Reassembly::new();
        let mut out = Vec::new();
        // 2 arrives before 1: parked, then both deliver in order.
        r.accept(2, 2, &mut out);
        assert!(out.is_empty());
        assert_eq!(r.ack_floor(), 0);
        r.accept(1, 1, &mut out);
        assert_eq!(out, vec![1, 2]);
        assert_eq!(r.ack_floor(), 2);
        // Duplicate replays of 1 and 2 are dropped.
        r.accept(1, 1, &mut out);
        r.accept(2, 2, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(r.duplicates(), 2);
        // In-order continues.
        r.accept(3, 3, &mut out);
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!(r.ack_floor(), 3);
    }
}
