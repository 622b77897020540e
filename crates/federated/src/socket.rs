//! [`SocketTransport`]: the [`Transport`] contract over real TCP sockets.
//!
//! The transport owns both halves of a loopback federation data plane:
//!
//! * a `TcpListener` plus **one acceptor thread** that hands each accepted
//!   connection to its own **reader thread** (one per shard), which decodes
//!   `fedhh-wire` frames and queues the carried [`RoundMessage`]s;
//! * a pool of client `TcpStream`s — one per shard, picked by
//!   `from % shards` like [`crate::ShardedTransport`] — that
//!   [`Transport::send`] writes `Upload` frames through.
//!
//! Every upload therefore crosses a real socket in the versioned frame
//! format, while the engine keeps its ordinary synchronous shape:
//! [`Transport::drain`] writes a `Flush` marker down every client stream
//! and blocks until each reader has observed it.  TCP preserves per-stream
//! order, and the engine only drains after its workers joined, so the
//! barrier guarantees the drain sees every message sent before it — the
//! exact contract the in-process transport provides.  A given sender always
//! maps to one stream, so the stable canonical sort preserves each party's
//! submission order, and results stay bit-identical to the in-memory
//! transports.
//!
//! Shutdown is graceful: dropping the transport sends a `Shutdown` frame on
//! every client stream and joins the acceptor's reader threads, so no
//! thread outlives the value and no socket is torn down mid-frame.

use crate::message::RoundMessage;
use crate::scenario::FrameCorruption;
use crate::transport::{canonical_sort, Transport};
use fedhh_telemetry::{Counter, SpanName, Telemetry, ValueHist};
use fedhh_wire::{read_frame, write_frame, Decode, Encode, Reader, WireError};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// One frame on the transport data plane.
#[derive(Debug, Clone, PartialEq)]
enum SocketFrame {
    /// A queued round message.
    Upload(Box<RoundMessage>),
    /// A drain barrier: the reader acknowledges having consumed everything
    /// sent before this token on its stream.
    Flush(u64),
    /// Graceful end of the stream.
    Shutdown,
}

impl Encode for SocketFrame {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            SocketFrame::Upload(message) => {
                out.push(0);
                message.encode(out);
            }
            SocketFrame::Flush(token) => {
                out.push(1);
                token.encode(out);
            }
            SocketFrame::Shutdown => out.push(2),
        }
    }
}

impl Decode for SocketFrame {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        match reader.take_u8()? {
            0 => Ok(SocketFrame::Upload(Box::new(RoundMessage::decode(reader)?))),
            1 => Ok(SocketFrame::Flush(u64::decode(reader)?)),
            2 => Ok(SocketFrame::Shutdown),
            other => Err(WireError::InvalidValue {
                what: "socket frame tag",
                value: other as u64,
            }),
        }
    }
}

/// Shared server-side state: per-reader queues plus the flush barrier.
struct Shared {
    /// One message queue per reader thread.
    queues: Vec<Mutex<Vec<RoundMessage>>>,
    /// Barrier state: the latest flush token each reader acknowledged, and
    /// the first error any thread hit.
    sync: Mutex<SyncState>,
    cond: Condvar,
    /// Telemetry handle, attached (at most once) after the reader threads
    /// already exist — hence the `OnceLock` rather than a constructor
    /// argument.  Readers observe it lazily; until it is set they record
    /// nothing.
    telemetry: OnceLock<Telemetry>,
}

struct SyncState {
    acknowledged: Vec<u64>,
    error: Option<WireError>,
    closing: bool,
}

impl Shared {
    fn fail(&self, error: WireError) {
        let mut sync = self.sync.lock().expect("socket transport poisoned");
        if sync.error.is_none() && !sync.closing {
            sync.error = Some(error);
        }
        self.cond.notify_all();
    }
}

/// A [`Transport`] over loopback TCP: real sockets, real frames, the same
/// canonical-order drain contract as the in-process transport.
///
/// Select it with [`crate::TransportKind::Tcp`] on an
/// [`crate::EngineConfig`]; results are bit-identical to the in-memory
/// engine at the same seed.
pub struct SocketTransport {
    clients: Vec<Mutex<TcpStream>>,
    shared: std::sync::Arc<Shared>,
    readers: Vec<JoinHandle<()>>,
    next_token: AtomicU64,
    addr: SocketAddr,
    corruption: Option<FrameCorruption>,
    /// Ground truth for reconciliation: every byte written down a client
    /// stream, counted from the encoded frame's actual length.  Always on
    /// (an atomic add costs nothing next to a socket write), so tests can
    /// assert the telemetry counter equals this exactly.
    tx_bytes: AtomicU64,
}

impl SocketTransport {
    /// Binds a loopback listener and connects `shards` client streams to it
    /// (at least one), spawning one acceptor and one reader per shard.
    pub fn loopback(shards: usize) -> Result<Self, WireError> {
        Self::loopback_with(shards, None)
    }

    /// Like [`SocketTransport::loopback`], but optionally installs a
    /// [`FrameCorruption`] plan: a seeded fraction of `Upload` frames have
    /// one post-length byte flipped *after* framing (after the CRC was
    /// computed over the honest bytes), so the receiving reader observes a
    /// deterministic CRC mismatch and the drain surfaces a typed error —
    /// the `fedhh-wire` integrity surface under test, never a hang.
    pub fn loopback_with(
        shards: usize,
        corruption: Option<FrameCorruption>,
    ) -> Result<Self, WireError> {
        let shards = shards.max(1);
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let shared = std::sync::Arc::new(Shared {
            queues: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
            sync: Mutex::new(SyncState {
                acknowledged: vec![0; shards],
                error: None,
                closing: false,
            }),
            cond: Condvar::new(),
            telemetry: OnceLock::new(),
        });

        // One acceptor thread: accept exactly `shards` connections, spawn a
        // reader per connection, and hand the reader handles back on join.
        let acceptor = {
            let shared = std::sync::Arc::clone(&shared);
            std::thread::spawn(move || -> Vec<JoinHandle<()>> {
                let mut readers = Vec::with_capacity(shards);
                for index in 0..shards {
                    match listener.accept().and_then(|(stream, _)| no_delay(stream)) {
                        Ok(stream) => {
                            let shared = std::sync::Arc::clone(&shared);
                            readers.push(std::thread::spawn(move || {
                                read_loop(index, stream, &shared);
                            }));
                        }
                        Err(err) => {
                            shared.fail(WireError::from(err));
                            break;
                        }
                    }
                }
                readers
            })
        };

        let mut clients = Vec::with_capacity(shards);
        let mut connect_error = None;
        for _ in 0..shards {
            match TcpStream::connect(addr).and_then(no_delay) {
                Ok(stream) => clients.push(Mutex::new(stream)),
                Err(err) => {
                    connect_error = Some(WireError::from(err));
                    break;
                }
            }
        }
        if connect_error.is_some() {
            // The acceptor is still blocked waiting for the connections we
            // failed to make; feed it throwaway ones (dropped immediately,
            // so their readers exit on EOF) so the join below cannot hang.
            for _ in clients.len()..shards {
                let _ = TcpStream::connect(addr);
            }
        }
        let readers = acceptor.join().expect("socket acceptor panicked");
        if let Some(err) = connect_error {
            // Tear the partially built transport down before reporting.
            let partial = Self {
                clients,
                shared,
                readers,
                next_token: AtomicU64::new(1),
                addr,
                corruption: None,
                tx_bytes: AtomicU64::new(0),
            };
            drop(partial);
            return Err(err);
        }
        Ok(Self {
            clients,
            shared,
            readers,
            next_token: AtomicU64::new(1),
            addr,
            corruption,
            tx_bytes: AtomicU64::new(0),
        })
    }

    /// The loopback address the transport's listener was bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of client/reader shard pairs.
    pub fn shard_count(&self) -> usize {
        self.clients.len()
    }

    /// The telemetry handle attached to this transport (disabled until —
    /// and unless — [`Transport::attach_telemetry`] was called).
    fn telemetry(&self) -> Telemetry {
        self.shared.telemetry.get().cloned().unwrap_or_default()
    }

    /// Total bytes written down the client streams so far — the encoded
    /// length of every frame, data and control alike.  This is the wire
    /// ground truth the telemetry counter [`Counter::WireTxBytes`] must
    /// reconcile against exactly.
    pub fn tx_bytes(&self) -> u64 {
        self.tx_bytes.load(Ordering::Relaxed)
    }

    /// Books one outgoing frame of `len` encoded bytes: always into the
    /// transport's own ground-truth counter, and into the telemetry
    /// registry when a handle is attached.
    fn count_tx(&self, telemetry: &Telemetry, len: usize) {
        self.tx_bytes.fetch_add(len as u64, Ordering::Relaxed);
        telemetry.add(Counter::WireTxBytes, len as u64);
        telemetry.add(Counter::WireTxFrames, 1);
    }

    fn write(&self, shard: usize, frame: &SocketFrame) -> Result<(), WireError> {
        let telemetry = self.telemetry();
        // Encode into a buffer first: `write_frame` has to build the
        // payload anyway to stamp the length prefix and CRC, and a single
        // `write_all` of the finished frame both keeps the stream lock
        // short and gives byte accounting the frame's exact length.
        let mut bytes = Vec::new();
        {
            let _encode = telemetry.span(SpanName::WireEncode);
            write_frame(&mut bytes, frame)?;
        }
        let _send = telemetry.span(SpanName::TransportSend);
        {
            let mut stream = self.clients[shard]
                .lock()
                .expect("socket transport poisoned");
            stream.write_all(&bytes)?;
            stream.flush()?;
        }
        self.count_tx(&telemetry, bytes.len());
        Ok(())
    }

    /// Writes an upload frame with one byte flipped: the frame is built
    /// honestly (valid length prefix and CRC), then a deterministic byte
    /// past the length prefix is XOR-flipped before hitting the wire.
    /// Flipping after the CRC is computed guarantees the receiver detects
    /// the damage as a CRC (or schema) mismatch instead of silently
    /// consuming corrupt data; sparing the length prefix keeps the reader's
    /// framing intact so it fails fast instead of mis-reading the stream.
    fn write_corrupted(
        &self,
        shard: usize,
        frame: &SocketFrame,
        from: usize,
        round: u32,
    ) -> Result<(), WireError> {
        let corruption = self.corruption.expect("caller checked the plan");
        let mut bytes = Vec::new();
        write_frame(&mut bytes, frame)?;
        let offset = corruption.flip_offset(from, round, bytes.len());
        bytes[offset] ^= 0x20;
        {
            let mut stream = self.clients[shard]
                .lock()
                .expect("socket transport poisoned");
            stream.write_all(&bytes)?;
            stream.flush()?;
        }
        // The flipped frame is exactly as long as the honest one, so the
        // byte accounting stays truthful under corruption plans too.
        self.count_tx(&self.telemetry(), bytes.len());
        Ok(())
    }
}

/// Turns Nagle's algorithm off on one end of a transport stream.  Every
/// frame goes out in one write and is barriered on at once (the `Flush`
/// marker after an upload), so coalescing could only hold a frame back until
/// the peer's delayed ACK — hundreds of microseconds per round trip.
fn no_delay(stream: TcpStream) -> std::io::Result<TcpStream> {
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// A reader thread: decode frames off one accepted connection into the
/// shard's queue until shutdown, EOF or error.
fn read_loop(index: usize, stream: TcpStream, shared: &Shared) {
    let mut reader = BufReader::new(stream);
    loop {
        match read_frame::<_, SocketFrame>(&mut reader) {
            Ok(SocketFrame::Upload(message)) => {
                let depth = {
                    let mut queue = shared.queues[index]
                        .lock()
                        .expect("socket transport poisoned");
                    queue.push(*message);
                    queue.len()
                };
                if let Some(telemetry) = shared.telemetry.get() {
                    telemetry.add(Counter::FramesDecoded, 1);
                    telemetry.record_value(ValueHist::QueueDepth, depth as u64);
                }
            }
            Ok(SocketFrame::Flush(token)) => {
                if let Some(telemetry) = shared.telemetry.get() {
                    telemetry.add(Counter::FramesDecoded, 1);
                }
                let mut sync = shared.sync.lock().expect("socket transport poisoned");
                sync.acknowledged[index] = sync.acknowledged[index].max(token);
                shared.cond.notify_all();
            }
            // Shutdown frames race the stream teardown in `Drop` (the
            // reader may see EOF first), so they stay out of the decoded
            // count to keep it deterministic.
            Ok(SocketFrame::Shutdown) => return,
            Err(err) => {
                // An I/O error is a dead stream, not a bad frame; only
                // integrity failures (CRC/schema/value) count as rejects.
                if !matches!(err, WireError::Io { .. }) {
                    if let Some(telemetry) = shared.telemetry.get() {
                        telemetry.add(Counter::FramesCorruptRejected, 1);
                    }
                }
                shared.fail(err);
                return;
            }
        }
    }
}

impl Transport for SocketTransport {
    fn send(&self, message: RoundMessage) -> Result<(), WireError> {
        let shard = message.from % self.clients.len();
        let (from, round) = (message.from, message.round);
        let frame = SocketFrame::Upload(Box::new(message));
        match self.corruption {
            Some(corruption) if corruption.corrupts(from, round) => {
                self.write_corrupted(shard, &frame, from, round)
            }
            _ => self.write(shard, &frame),
        }
    }

    fn drain(&self) -> Result<Vec<RoundMessage>, WireError> {
        use std::sync::atomic::Ordering;
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        for shard in 0..self.clients.len() {
            self.write(shard, &SocketFrame::Flush(token))?;
        }
        // Wait for every reader to acknowledge the barrier (or fail).
        {
            let mut sync = self.shared.sync.lock().expect("socket transport poisoned");
            loop {
                if let Some(err) = &sync.error {
                    return Err(err.clone());
                }
                if sync.acknowledged.iter().all(|&seen| seen >= token) {
                    break;
                }
                sync = self
                    .shared
                    .cond
                    .wait(sync)
                    .expect("socket transport poisoned");
            }
        }
        let mut messages: Vec<RoundMessage> = self
            .shared
            .queues
            .iter()
            .flat_map(|queue| {
                std::mem::take(&mut *queue.lock().expect("socket transport poisoned"))
            })
            .collect();
        canonical_sort(&mut messages);
        Ok(messages)
    }

    fn attach_telemetry(&self, telemetry: &Telemetry) {
        // First attach wins; the readers are already running, so a swap
        // could lose counts mid-stream.
        let _ = self.shared.telemetry.set(telemetry.clone());
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        self.shared
            .sync
            .lock()
            .expect("socket transport poisoned")
            .closing = true;
        for client in &self.clients {
            let mut stream = client.lock().expect("socket transport poisoned");
            // Best effort: the reader also exits on EOF when the stream
            // closes with the transport.
            let _ = write_frame(&mut *stream, &SocketFrame::Shutdown);
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        for reader in self.readers.drain(..) {
            let _ = reader.join();
        }
    }
}

impl std::fmt::Debug for SocketTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SocketTransport")
            .field("addr", &self.addr)
            .field("shards", &self.clients.len())
            .field("corruption", &self.corruption)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{CandidateReport, RoundPayload};
    use crate::transport::ShardedTransport;

    fn message(from: usize, round: u32, tag: u64) -> RoundMessage {
        RoundMessage {
            from,
            party: format!("p{from}"),
            round,
            payload: RoundPayload::Report(CandidateReport {
                party: format!("p{from}"),
                level: 1,
                candidates: vec![(tag, from as f64)],
                users: 1,
            }),
        }
    }

    #[test]
    fn socket_transport_matches_the_in_memory_order() {
        let socket = SocketTransport::loopback(3).unwrap();
        let memory = ShardedTransport::new(1);
        for (from, round) in [(4, 0), (1, 0), (3, 1), (0, 0), (2, 0), (1, 1)] {
            socket.send(message(from, round, from as u64)).unwrap();
            memory.send(message(from, round, from as u64)).unwrap();
        }
        assert_eq!(socket.drain().unwrap(), memory.drain().unwrap());
        assert!(socket.drain().unwrap().is_empty(), "drain empties queues");
    }

    #[test]
    fn client_streams_have_nagle_turned_off() {
        let socket = SocketTransport::loopback(3).unwrap();
        for client in &socket.clients {
            assert!(client.lock().unwrap().nodelay().unwrap());
        }
    }

    #[test]
    fn equal_keys_keep_submission_order_across_the_socket() {
        let socket = SocketTransport::loopback(2).unwrap();
        for tag in [10, 11, 12] {
            socket.send(message(1, 0, tag)).unwrap();
        }
        let tags: Vec<u64> = socket
            .drain()
            .unwrap()
            .iter()
            .map(|m| m.as_report().unwrap().candidates[0].0)
            .collect();
        assert_eq!(tags, vec![10, 11, 12]);
    }

    #[test]
    fn concurrent_senders_arrive_completely() {
        let socket = SocketTransport::loopback(4).unwrap();
        assert_eq!(socket.shard_count(), 4);
        std::thread::scope(|scope| {
            for worker in 0..4usize {
                let socket = &socket;
                scope.spawn(move || {
                    for i in 0..16usize {
                        socket.send(message(worker * 16 + i, 0, i as u64)).unwrap();
                    }
                });
            }
        });
        let drained = socket.drain().unwrap();
        let senders: Vec<usize> = drained.iter().map(|m| m.from).collect();
        assert_eq!(senders, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn repeated_rounds_drain_independently() {
        let socket = SocketTransport::loopback(2).unwrap();
        socket.send(message(0, 0, 1)).unwrap();
        assert_eq!(socket.drain().unwrap().len(), 1);
        socket.send(message(1, 1, 2)).unwrap();
        socket.send(message(0, 1, 3)).unwrap();
        let second = socket.drain().unwrap();
        assert_eq!(second.len(), 2);
        assert!(second.iter().all(|m| m.round == 1));
    }

    #[test]
    fn zero_shards_is_clamped_to_one() {
        let socket = SocketTransport::loopback(0).unwrap();
        assert_eq!(socket.shard_count(), 1);
        socket.send(message(5, 0, 0)).unwrap();
        assert_eq!(socket.drain().unwrap().len(), 1);
    }

    #[test]
    fn drop_shuts_down_cleanly_with_messages_in_flight() {
        let socket = SocketTransport::loopback(2).unwrap();
        socket.send(message(0, 0, 1)).unwrap();
        drop(socket); // must not hang or panic
    }

    #[test]
    fn corrupted_frames_surface_a_typed_error_instead_of_hanging() {
        let corruption = FrameCorruption {
            fraction: 1.0,
            seed: 7,
        };
        let socket = SocketTransport::loopback_with(2, Some(corruption)).unwrap();
        // The send itself succeeds (the bytes leave the client); the damage
        // surfaces at the drain barrier as the reader's decode error.
        socket.send(message(0, 0, 1)).unwrap();
        let err = socket.drain().unwrap_err();
        assert!(
            matches!(
                err,
                WireError::CrcMismatch { .. }
                    | WireError::SchemaMismatch { .. }
                    | WireError::Io { .. }
            ),
            "{err:?}"
        );
        drop(socket); // still a clean shutdown
    }

    #[test]
    fn a_fractional_corruption_plan_spares_the_unselected_slots() {
        let corruption = FrameCorruption {
            fraction: 0.5,
            seed: 3,
        };
        let clean: Vec<usize> = (0..6).filter(|&f| !corruption.corrupts(f, 0)).collect();
        assert!(!clean.is_empty(), "seed 3 must leave some slot clean");
        let socket = SocketTransport::loopback_with(1, Some(corruption)).unwrap();
        for &from in &clean {
            socket.send(message(from, 0, from as u64)).unwrap();
        }
        let drained = socket.drain().unwrap();
        let senders: Vec<usize> = drained.iter().map(|m| m.from).collect();
        assert_eq!(senders, clean, "clean slots travel untouched");
    }
}
