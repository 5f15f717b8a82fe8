//! The [`Transport`] abstraction: framed, bidirectional, fallible.
//!
//! Three implementations share one contract so the deployment runtime
//! is transport-agnostic:
//!
//! * [`TcpTransport`] — loopback TCP, the real multi-process path;
//! * [`ChannelTransport`] — in-process mpsc pair, proving the trait is
//!   honest (the equivalence matrix runs the same bridge code over
//!   both) and giving tests a socket-free harness;
//! * [`FaultyTransport`] — a deterministic fault-injection wrapper
//!   (seeded drop/duplicate/delay/reorder/partition/cut) shaped by the
//!   [`Link`] latency/bandwidth model, driving the network-chaos
//!   suite.
//!
//! [`ReaderHandoff`] moves a TCP link's receive side onto its own
//! thread, for owners that park on something other than the socket.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TryRecvError};
use std::sync::Arc;
use std::time::Duration;

use crate::net::Link;
use crate::wire::{read_frame, write_frame, Frame, FrameKind};

/// How long a receiver keeps reading once a frame has *started*
/// arriving (mid-frame stall budget; see [`read_frame`]).
const MAX_FRAME_WAIT: Duration = Duration::from_secs(10);

/// Socket buffer size on each side of a [`TcpTransport`]: one read
/// syscall pulls in every frame that has already arrived.
const SOCKET_BUF: usize = 64 << 10;

/// A framed, bidirectional, fallible message link.
///
/// Two receive forms: [`Transport::try_recv`] hands back a frame that
/// has already arrived and never waits for one, and
/// [`Transport::recv`] parks up to the configured read timeout. A
/// serving loop drains with `try_recv` and parks in `recv` only when
/// an iteration found nothing to do. Any `Err` means the link is
/// broken and must be re-dialed (see `supervise::SupervisedLink`).
pub trait Transport: Send {
    /// Queues one frame for transmission (possibly buffered; see
    /// [`Transport::flush`]).
    fn send(&mut self, frame: &Frame) -> io::Result<()>;

    /// Flushes any buffered writes to the peer.
    fn flush(&mut self) -> io::Result<()>;

    /// Receives one frame, waiting at most the read timeout;
    /// `Ok(None)` = nothing arrived.
    fn recv(&mut self) -> io::Result<Option<Frame>>;

    /// Receives one frame that has already arrived, without waiting
    /// for one to begin; `Ok(None)` = nothing has arrived. (A frame
    /// whose first bytes are in may still take the mid-frame budget
    /// to complete.) Every implementation must answer an idle link at
    /// once: falling back to [`Transport::recv`] would put the read
    /// timeout back on every drain.
    fn try_recv(&mut self) -> io::Result<Option<Frame>>;

    /// Sets the read timeout governing how long [`Transport::recv`]
    /// waits for a frame to begin.
    fn set_read_timeout(&mut self, timeout: Duration) -> io::Result<()>;

    /// Human-readable peer description for error messages.
    fn peer(&self) -> String;
}

/// [`Transport`] over a TCP stream (loopback in this deployment).
///
/// Reads are buffered: one `read` syscall fills up to 64 KiB, so a
/// burst of frames costs one syscall rather than three per frame.
pub struct TcpTransport {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    peer: String,
}

impl TcpTransport {
    /// Dials `addr` with `connect_timeout`, disables Nagle, and
    /// applies `read_timeout`.
    pub fn connect(
        addr: SocketAddr,
        connect_timeout: Duration,
        read_timeout: Duration,
    ) -> io::Result<TcpTransport> {
        let stream = TcpStream::connect_timeout(&addr, connect_timeout)?;
        TcpTransport::from_stream(stream, read_timeout)
    }

    /// Wraps an accepted or connected stream.
    pub fn from_stream(stream: TcpStream, read_timeout: Duration) -> io::Result<TcpTransport> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(read_timeout))?;
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "<unknown>".into());
        let writer = BufWriter::with_capacity(SOCKET_BUF, stream.try_clone()?);
        Ok(TcpTransport {
            reader: BufReader::with_capacity(SOCKET_BUF, stream),
            writer,
            peer,
        })
    }

    /// A second handle onto the same socket (shared fd), so one
    /// thread can read while another writes. The clone starts with
    /// empty buffers: bytes already buffered by this handle's reader
    /// stay here, so only this handle may go on reading. Writers on
    /// *different* handles must not interleave frames.
    pub fn try_clone(&self) -> io::Result<TcpTransport> {
        let stream = self.reader.get_ref().try_clone()?;
        let writer = BufWriter::with_capacity(SOCKET_BUF, stream.try_clone()?);
        Ok(TcpTransport {
            reader: BufReader::with_capacity(SOCKET_BUF, stream),
            writer,
            peer: self.peer.clone(),
        })
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, frame: &Frame) -> io::Result<()> {
        write_frame(&mut self.writer, frame)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }

    fn recv(&mut self) -> io::Result<Option<Frame>> {
        read_frame(&mut self.reader, MAX_FRAME_WAIT)
    }

    fn try_recv(&mut self) -> io::Result<Option<Frame>> {
        if self.reader.buffer().is_empty() && !readable_now(self.reader.get_ref())? {
            return Ok(None);
        }
        read_frame(&mut self.reader, MAX_FRAME_WAIT)
    }

    fn set_read_timeout(&mut self, timeout: Duration) -> io::Result<()> {
        self.reader
            .get_ref()
            .set_read_timeout(Some(timeout.max(Duration::from_millis(1))))
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }
}

/// True when a read on `stream` would not block: bytes, end of
/// stream or a socket error are pending. Asks `poll(2)` with a zero
/// timeout rather than flipping `O_NONBLOCK`, which is a property of
/// the file description that [`TcpTransport::try_clone`] shares with
/// the writer handle — a concurrent write could then fail with
/// `WouldBlock`.
#[cfg(unix)]
fn readable_now(stream: &TcpStream) -> io::Result<bool> {
    use std::os::raw::{c_int, c_short};
    use std::os::unix::io::AsRawFd;

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }
    #[cfg(any(target_os = "linux", target_os = "android"))]
    type NFds = std::os::raw::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    type NFds = std::os::raw::c_uint;
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NFds, timeout: c_int) -> c_int;
    }
    const POLLIN: c_short = 0x1;

    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    loop {
        // SAFETY: std links libc on unix; `fd` is one live pollfd
        // whose layout matches `struct pollfd`, and a zero timeout
        // never blocks.
        let ready = unsafe { poll(&mut fd, 1, 0) };
        if ready >= 0 {
            // POLLHUP/POLLERR count too: the read then surfaces the
            // end of stream or the error.
            return Ok(ready > 0 && fd.revents != 0);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Without `poll(2)`, only frames already in the read buffer count
/// as arrived; anything still in the kernel is picked up by the
/// caller's next parking [`Transport::recv`], which returns at once.
#[cfg(not(unix))]
fn readable_now(_stream: &TcpStream) -> io::Result<bool> {
    Ok(false)
}

/// [`Transport`] over in-process channels: the second implementation
/// pinning the trait's contract, and the socket-free path for unit
/// tests of bridge/supervision logic.
pub struct ChannelTransport {
    tx: SyncSender<Frame>,
    rx: Receiver<Frame>,
    read_timeout: Duration,
}

impl ChannelTransport {
    /// Builds a connected pair of endpoints with `depth` frames of
    /// buffering per direction.
    pub fn pair(depth: usize) -> (ChannelTransport, ChannelTransport) {
        let (a_tx, b_rx) = mpsc::sync_channel(depth);
        let (b_tx, a_rx) = mpsc::sync_channel(depth);
        let mk = |tx, rx| ChannelTransport {
            tx,
            rx,
            read_timeout: Duration::from_millis(10),
        };
        (mk(a_tx, a_rx), mk(b_tx, b_rx))
    }
}

impl Transport for ChannelTransport {
    fn send(&mut self, frame: &Frame) -> io::Result<()> {
        self.tx
            .send(frame.clone())
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "channel peer gone"))
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn recv(&mut self) -> io::Result<Option<Frame>> {
        match self.rx.recv_timeout(self.read_timeout) {
            Ok(frame) => Ok(Some(frame)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(channel_gone()),
        }
    }

    fn try_recv(&mut self) -> io::Result<Option<Frame>> {
        match self.rx.try_recv() {
            Ok(frame) => Ok(Some(frame)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(channel_gone()),
        }
    }

    fn set_read_timeout(&mut self, timeout: Duration) -> io::Result<()> {
        self.read_timeout = timeout;
        Ok(())
    }

    fn peer(&self) -> String {
        "<channel>".into()
    }
}

fn channel_gone() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, "channel peer gone")
}

/// Deterministic fault plan for [`FaultyTransport`].
///
/// All probabilities are per *data* frame (control frames stay clean
/// unless `data_only` is false — losing a `Register` reply forever is
/// a different failure class, covered by the cut/reconnect path).
/// Faults are driven by a seeded xorshift generator, so a given
/// `(plan, traffic)` pair replays identically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// RNG seed; two transports with equal seeds and equal traffic
    /// fault identically.
    pub seed: u64,
    /// Probability a sent frame is silently dropped.
    pub drop: f64,
    /// Probability a sent frame is delivered twice.
    pub duplicate: f64,
    /// Probability a sent frame is delayed by the link model's
    /// transfer time for its size.
    pub delay: f64,
    /// Probability a sent frame is held back and swapped with the
    /// next one (adjacent reorder).
    pub reorder: f64,
    /// Link model shaping delay durations; `None` = 1 ms flat.
    pub link: Option<Link>,
    /// After this many sent data frames the connection is cut with an
    /// I/O error (a partition: everything until re-dial fails). `0`
    /// disables. Each new connection gets a fresh count, so a
    /// supervised link makes progress between cuts.
    pub cut_after: u64,
    /// Apply faults only to [`FrameKind::Data`] frames (default).
    pub data_only: bool,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan {
            seed: 1,
            drop: 0.0,
            duplicate: 0.0,
            delay: 0.0,
            reorder: 0.0,
            link: None,
            cut_after: 0,
            data_only: true,
        }
    }
}

impl FaultPlan {
    /// True if every fault is disabled (the wrapper is a no-op).
    pub fn is_clean(&self) -> bool {
        self.drop == 0.0
            && self.duplicate == 0.0
            && self.delay == 0.0
            && self.reorder == 0.0
            && self.cut_after == 0
    }
}

/// Wraps any [`Transport`] with the seeded faults of a [`FaultPlan`].
pub struct FaultyTransport<T: Transport> {
    inner: T,
    plan: FaultPlan,
    rng: u64,
    /// Data frames sent on this connection (drives `cut_after`).
    sent: u64,
    /// True once the cut fired: all traffic fails until re-dial.
    severed: bool,
    /// Frame held back by a reorder fault, delivered on next send.
    held: Option<Frame>,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wraps `inner` with `plan`'s faults.
    pub fn new(inner: T, plan: FaultPlan) -> FaultyTransport<T> {
        FaultyTransport {
            inner,
            plan,
            rng: plan.seed | 1,
            sent: 0,
            severed: false,
            held: None,
        }
    }

    fn next_u64(&mut self) -> u64 {
        // xorshift64* — tiny, seedable, good enough for fault dice.
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && ((self.next_u64() >> 11) as f64) < p * (1u64 << 53) as f64
    }

    fn shaped_delay(&self, bytes: usize) -> Duration {
        match self.plan.link {
            Some(link) => Duration::from_micros(link.transfer(0, bytes as u64)),
            None => Duration::from_millis(1),
        }
    }

    fn cut_error(&self) -> io::Error {
        io::Error::new(
            io::ErrorKind::ConnectionReset,
            "injected partition: link severed",
        )
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn send(&mut self, frame: &Frame) -> io::Result<()> {
        if self.severed {
            return Err(self.cut_error());
        }
        if self.plan.data_only && frame.kind != FrameKind::Data {
            return self.inner.send(frame);
        }
        self.sent += 1;
        if self.plan.cut_after > 0 && self.sent > self.plan.cut_after {
            self.severed = true;
            return Err(self.cut_error());
        }
        if self.chance(self.plan.drop) {
            return Ok(()); // silently lost; resend path repairs it
        }
        if self.chance(self.plan.delay) {
            std::thread::sleep(self.shaped_delay(frame.payload.len() + 6));
        }
        if self.chance(self.plan.reorder) && self.held.is_none() {
            self.held = Some(frame.clone());
            return Ok(());
        }
        self.inner.send(frame)?;
        if self.chance(self.plan.duplicate) {
            self.inner.send(frame)?;
        }
        if let Some(held) = self.held.take() {
            self.inner.send(&held)?;
        }
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.severed {
            return Err(self.cut_error());
        }
        // A reorder hold must not outlive the batch: flush delivers it
        // so the last frame before a quiet period is never stranded.
        if let Some(held) = self.held.take() {
            self.inner.send(&held)?;
        }
        self.inner.flush()
    }

    fn recv(&mut self) -> io::Result<Option<Frame>> {
        if self.severed {
            return Err(self.cut_error());
        }
        self.inner.recv()
    }

    fn try_recv(&mut self) -> io::Result<Option<Frame>> {
        if self.severed {
            return Err(self.cut_error());
        }
        self.inner.try_recv()
    }

    fn set_read_timeout(&mut self, timeout: Duration) -> io::Result<()> {
        self.inner.set_read_timeout(timeout)
    }

    fn peer(&self) -> String {
        format!("{} (faulty)", self.inner.peer())
    }
}

/// How long a [`ReaderHandoff`] reader parks in one read: a backstop
/// only, since dropping the hand-off shuts the socket.
const READER_PARK: Duration = Duration::from_secs(1);

/// Wakes whoever consumes a [`ReaderHandoff`]'s frames.
pub type Wake = Arc<dyn Fn() + Send + Sync>;

/// A [`TcpTransport`] whose receive side runs on its own thread.
///
/// The reader thread parks in the blocking socket read, hands every
/// frame that has arrived to the owner's queue, then calls `wake` once
/// (unless the burst held only `DataAck`s). So the owner can park on a
/// source of its own choosing (the deployment's bridges park on a
/// broker condvar) and still learn of a frame the moment it lands.
/// Sends go straight to the writer handle on the caller's thread.
/// [`Transport::try_recv`] pops the queue; [`Transport::recv`] waits
/// on it up to the read timeout. A read error ends the thread and is
/// reported once the frames before it have been taken.
pub struct ReaderHandoff {
    writer: Box<dyn Transport>,
    frames: Receiver<io::Result<Frame>>,
    /// Shut on drop, which ends the reader thread's read.
    socket: TcpStream,
    read_timeout: Duration,
}

impl ReaderHandoff {
    /// Starts the reader thread on `reader` and sends through
    /// `writer`, typically `reader.try_clone()` (optionally wrapped in
    /// a [`FaultyTransport`]). Any handshake must already be done on
    /// `reader`: bytes its buffer holds are the reader thread's to
    /// parse.
    pub fn spawn(
        mut reader: TcpTransport,
        writer: Box<dyn Transport>,
        wake: Wake,
    ) -> io::Result<ReaderHandoff> {
        let socket = reader.reader.get_ref().try_clone()?;
        let read_timeout = socket.read_timeout()?.unwrap_or(MAX_FRAME_WAIT);
        // The reader has nothing to do between frames, so it needs no
        // idle tick: drop shuts the socket, and every read after that
        // fails at once. (The timeout is per socket; the writer handle
        // never reads.)
        socket.set_read_timeout(Some(READER_PARK))?;
        let (tx, frames) = mpsc::channel();
        std::thread::Builder::new()
            .name("pa-link-reader".into())
            .spawn(move || {
                let mut burst = Vec::new();
                loop {
                    // Park for the first frame, then take whatever
                    // else has arrived: one wake per burst.
                    let mut outcome = reader.recv().map(|f| burst.extend(f));
                    while outcome.is_ok() && !burst.is_empty() {
                        match reader.try_recv() {
                            Ok(Some(f)) => burst.push(f),
                            Ok(None) => break,
                            Err(e) => outcome = Err(e),
                        }
                    }
                    // Acks only trim the owner's resend window, which
                    // its next pass absorbs: they wake nobody.
                    let news = burst.iter().any(|f| f.kind != FrameKind::DataAck);
                    for frame in burst.drain(..) {
                        if tx.send(Ok(frame)).is_err() {
                            return; // the owner dropped the link
                        }
                    }
                    if let Err(e) = outcome {
                        let _ = tx.send(Err(e));
                        // Closed before the wake, so every receive
                        // after the error fails too.
                        drop(tx);
                        wake();
                        return;
                    }
                    if news {
                        wake();
                    }
                }
            })?;
        Ok(ReaderHandoff {
            writer,
            frames,
            socket,
            read_timeout,
        })
    }
}

fn reader_stopped() -> io::Error {
    io::Error::new(io::ErrorKind::NotConnected, "link reader stopped")
}

impl Transport for ReaderHandoff {
    fn send(&mut self, frame: &Frame) -> io::Result<()> {
        self.writer.send(frame)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }

    fn recv(&mut self) -> io::Result<Option<Frame>> {
        match self.frames.recv_timeout(self.read_timeout) {
            Ok(got) => got.map(Some),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(reader_stopped()),
        }
    }

    fn try_recv(&mut self) -> io::Result<Option<Frame>> {
        match self.frames.try_recv() {
            Ok(got) => got.map(Some),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(reader_stopped()),
        }
    }

    fn set_read_timeout(&mut self, timeout: Duration) -> io::Result<()> {
        self.read_timeout = timeout;
        Ok(())
    }

    fn peer(&self) -> String {
        self.writer.peer()
    }
}

impl Drop for ReaderHandoff {
    fn drop(&mut self) {
        // Ends the reader's blocking read at once instead of after
        // its park; the connection is being abandoned anyway.
        let _ = self.socket.shutdown(Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::DataMsg;
    use std::sync::{Condvar, Mutex};
    use std::time::Instant;

    fn data_frame(seq: u64) -> Frame {
        Frame::new(
            FrameKind::Data,
            DataMsg {
                seq,
                stream: 0,
                partition: 0,
                timestamp: 0,
                key: None,
                value: vec![seq as u8].into(),
            }
            .encode(),
        )
    }

    #[test]
    fn channel_pair_roundtrip_and_timeout() {
        let (mut a, mut b) = ChannelTransport::pair(16);
        a.set_read_timeout(Duration::from_millis(5)).unwrap();
        b.set_read_timeout(Duration::from_millis(5)).unwrap();
        assert!(b.recv().unwrap().is_none()); // quiet read
        a.send(&data_frame(1)).unwrap();
        a.flush().unwrap();
        let got = b.recv().unwrap().unwrap();
        assert_eq!(got.kind, FrameKind::Data);
        drop(a);
        assert!(b.recv().is_err()); // peer gone is a hard error
    }

    #[test]
    fn tcp_pair_roundtrip() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let join = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t = TcpTransport::from_stream(stream, Duration::from_millis(50)).unwrap();
            let f = t.recv().unwrap().unwrap();
            t.send(&f).unwrap();
            t.flush().unwrap();
        });
        let mut c =
            TcpTransport::connect(addr, Duration::from_secs(5), Duration::from_secs(5)).unwrap();
        c.send(&data_frame(9)).unwrap();
        c.flush().unwrap();
        let echoed = c.recv().unwrap().unwrap();
        assert_eq!(echoed, data_frame(9));
        join.join().unwrap();
    }

    /// A connected loopback pair, both ends with a 2 s read timeout.
    fn tcp_pair() -> (TcpTransport, TcpTransport) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client =
            TcpTransport::connect(addr, Duration::from_secs(5), Duration::from_secs(2)).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let server = TcpTransport::from_stream(stream, Duration::from_secs(2)).unwrap();
        (client, server)
    }

    /// `try_recv` on an idle link must answer at once, whatever the
    /// read timeout: a fallback to the parking `recv` would wait the
    /// full 2 s here.
    fn assert_idle_try_recv_is_instant(t: &mut dyn Transport) {
        t.set_read_timeout(Duration::from_secs(2)).unwrap();
        let t0 = Instant::now();
        assert!(t.try_recv().unwrap().is_none());
        assert!(
            t0.elapsed() < Duration::from_millis(500),
            "idle try_recv parked for {:?}",
            t0.elapsed()
        );
    }

    /// Spins on `try_recv` until a frame arrives (bounded).
    fn try_recv_within(t: &mut dyn Transport, limit: Duration) -> Frame {
        let deadline = Instant::now() + limit;
        loop {
            if let Some(f) = t.try_recv().unwrap() {
                return f;
            }
            assert!(Instant::now() < deadline, "frame never arrived");
            std::thread::yield_now();
        }
    }

    #[test]
    fn try_recv_answers_an_idle_link_at_once() {
        let (mut a, mut b) = ChannelTransport::pair(16);
        assert_idle_try_recv_is_instant(&mut b);
        a.send(&data_frame(1)).unwrap();
        assert_eq!(b.try_recv().unwrap(), Some(data_frame(1)));

        let (a, mut b) = ChannelTransport::pair(16);
        let mut f = FaultyTransport::new(a, FaultPlan::default());
        assert_idle_try_recv_is_instant(&mut f);
        b.send(&data_frame(2)).unwrap();
        assert_eq!(f.try_recv().unwrap(), Some(data_frame(2)));

        let (mut c, mut s) = tcp_pair();
        assert_idle_try_recv_is_instant(&mut s);
        for seq in 0..3 {
            c.send(&data_frame(seq)).unwrap();
        }
        c.flush().unwrap();
        for seq in 0..3 {
            let got = try_recv_within(&mut s, Duration::from_secs(5));
            assert_eq!(got, data_frame(seq));
        }
        assert_idle_try_recv_is_instant(&mut s);
        drop(c);
        // The peer's close is news too: it surfaces at once.
        let deadline = Instant::now() + Duration::from_secs(5);
        while s.try_recv().map(|f| f.is_none()).unwrap_or(false) {
            assert!(Instant::now() < deadline, "close never surfaced");
            std::thread::yield_now();
        }
        assert!(s.try_recv().is_err());
    }

    #[test]
    fn reader_handoff_wakes_its_owner_per_burst() {
        let (c, mut s) = tcp_pair();
        let rings = Arc::new((Mutex::new(0u32), Condvar::new()));
        let theirs = Arc::clone(&rings);
        let wake: Wake = Arc::new(move || {
            *theirs.0.lock().unwrap() += 1;
            theirs.1.notify_all();
        });
        let writer = c.try_clone().unwrap();
        let mut h = ReaderHandoff::spawn(c, Box::new(writer), wake).unwrap();
        assert_idle_try_recv_is_instant(&mut h);
        let wait_rings = |n: u32| {
            let mut got = rings.0.lock().unwrap();
            let deadline = Instant::now() + Duration::from_secs(5);
            while *got < n {
                let left = deadline.saturating_duration_since(Instant::now());
                assert!(!left.is_zero(), "owner never woken");
                got = rings.1.wait_timeout(got, left).unwrap().0;
            }
        };
        // A burst of acks alone wakes nobody; a data frame does, and
        // everything before it is in the inbox by then.
        s.send(&Frame::new(FrameKind::DataAck, crate::wire::encode_ack(1)))
            .unwrap();
        s.send(&data_frame(5)).unwrap();
        s.flush().unwrap();
        wait_rings(1);
        assert_eq!(h.try_recv().unwrap().unwrap().kind, FrameKind::DataAck);
        assert_eq!(h.try_recv().unwrap(), Some(data_frame(5)));
        assert!(h.try_recv().unwrap().is_none());
        // Sends go out through the writer handle.
        h.send(&data_frame(6)).unwrap();
        h.flush().unwrap();
        assert_eq!(s.recv().unwrap(), Some(data_frame(6)));
        // A closed peer ends the reader: the error is reported (and
        // rings the owner) once the frames before it are taken.
        drop(s);
        wait_rings(2);
        assert!(h.try_recv().is_err());
        assert!(h.try_recv().is_err());
    }

    #[test]
    fn faulty_drop_is_deterministic() {
        let run = || {
            let (a, mut b) = ChannelTransport::pair(1024);
            let mut f = FaultyTransport::new(
                a,
                FaultPlan {
                    seed: 7,
                    drop: 0.5,
                    ..FaultPlan::default()
                },
            );
            for i in 0..200 {
                f.send(&data_frame(i)).unwrap();
            }
            f.flush().unwrap();
            b.set_read_timeout(Duration::from_millis(1)).unwrap();
            let mut got = Vec::new();
            while let Some(frame) = b.recv().unwrap() {
                got.push(DataMsg::decode(&frame.payload).unwrap().seq);
            }
            got
        };
        let first = run();
        let second = run();
        assert_eq!(first, second, "seeded faults must replay identically");
        assert!(first.len() < 200 && !first.is_empty());
    }

    #[test]
    fn faulty_duplicate_and_reorder_deliver_everything() {
        let (a, mut b) = ChannelTransport::pair(4096);
        let mut f = FaultyTransport::new(
            a,
            FaultPlan {
                seed: 3,
                duplicate: 0.3,
                reorder: 0.3,
                ..FaultPlan::default()
            },
        );
        for i in 0..100 {
            f.send(&data_frame(i)).unwrap();
        }
        f.flush().unwrap(); // delivers any held reorder frame
        b.set_read_timeout(Duration::from_millis(1)).unwrap();
        let mut seen = std::collections::BTreeSet::new();
        let mut total = 0;
        while let Some(frame) = b.recv().unwrap() {
            seen.insert(DataMsg::decode(&frame.payload).unwrap().seq);
            total += 1;
        }
        assert_eq!(seen.len(), 100, "no frame may be lost");
        assert!(total > 100, "duplicates should have occurred");
    }

    #[test]
    fn cut_after_severs_until_redial() {
        let (a, _b) = ChannelTransport::pair(64);
        let mut f = FaultyTransport::new(
            a,
            FaultPlan {
                cut_after: 3,
                ..FaultPlan::default()
            },
        );
        for i in 0..3 {
            f.send(&data_frame(i)).unwrap();
        }
        assert!(f.send(&data_frame(3)).is_err());
        assert!(f.recv().is_err(), "a severed link fails both directions");
        // Control frames are also dead once severed.
        assert!(f.send(&Frame::bare(FrameKind::Shutdown)).is_err());
    }

    #[test]
    fn control_frames_bypass_data_faults() {
        let (a, mut b) = ChannelTransport::pair(64);
        let mut f = FaultyTransport::new(
            a,
            FaultPlan {
                seed: 5,
                drop: 1.0, // every data frame dropped
                ..FaultPlan::default()
            },
        );
        f.send(&data_frame(0)).unwrap();
        f.send(&Frame::bare(FrameKind::Shutdown)).unwrap();
        b.set_read_timeout(Duration::from_millis(1)).unwrap();
        let got = b.recv().unwrap().unwrap();
        assert_eq!(got.kind, FrameKind::Shutdown);
        assert!(b.recv().unwrap().is_none());
    }
}
