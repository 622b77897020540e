//! [`SocketTransport`]: the [`Transport`] contract over a real TCP socket.
//!
//! The transport owns both ends of a loopback federation data plane: one
//! client `TcpStream` that [`Transport::send`] writes `Upload` frames
//! through, and the accepted server end of it, which **one reader thread**
//! decodes `fedhh-wire` frames off and queues the carried [`RoundMessage`]s
//! from.
//!
//! Every upload therefore crosses a real socket in the versioned frame
//! format, while the engine keeps its ordinary synchronous shape:
//! [`Transport::drain`] writes a `Flush` marker down the stream and blocks
//! until the reader has observed it.  TCP preserves the stream's order, and
//! the engine only drains after its workers joined, so the barrier
//! guarantees the drain sees every message sent before it — the exact
//! contract the in-process transport provides.  Each party sends from one
//! thread, so its messages cross the stream in submission order, the stable
//! canonical sort keeps that order, and results stay bit-identical to the
//! in-process transport.
//!
//! Shutdown is graceful: dropping the transport shuts the stream down and
//! joins the reader, which ends on the resulting EOF, so no thread outlives
//! the value.

use crate::message::RoundMessage;
use crate::scenario::FrameCorruption;
use crate::transport::{canonical_sort, Transport};
use fedhh_telemetry::{Counter, SpanName, Telemetry, ValueHist};
use fedhh_wire::{read_frame, write_frame, Decode, Encode, Reader, WireError};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// One frame on the transport data plane.
#[derive(Debug, Clone, PartialEq)]
enum SocketFrame {
    /// A queued round message.
    Upload(Box<RoundMessage>),
    /// A drain barrier: the reader acknowledges having consumed everything
    /// sent before this token on the stream.
    Flush(u64),
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
        }
    }
}

impl Decode for SocketFrame {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        match reader.take_u8()? {
            0 => Ok(SocketFrame::Upload(Box::new(RoundMessage::decode(reader)?))),
            1 => Ok(SocketFrame::Flush(u64::decode(reader)?)),
            other => Err(WireError::InvalidValue {
                what: "socket frame tag",
                value: other as u64,
            }),
        }
    }
}

/// Shared server-side state: the reader's queue plus the flush barrier.
struct Shared {
    /// The messages the reader decoded since the last drain.
    queue: Mutex<Vec<RoundMessage>>,
    /// Barrier state: the latest flush token the reader acknowledged, and
    /// the first error it hit.
    sync: Mutex<SyncState>,
    cond: Condvar,
    /// Telemetry handle, attached (at most once) after the reader thread
    /// already exists — hence the `OnceLock` rather than a constructor
    /// argument.  The reader observes it lazily; until it is set it records
    /// nothing.
    telemetry: OnceLock<Telemetry>,
}

struct SyncState {
    acknowledged: u64,
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

/// A [`Transport`] over loopback TCP: a real socket, real frames, the same
/// canonical-order drain contract as the in-process transport.
///
/// Select it with [`crate::TransportKind::Tcp`] on an
/// [`crate::EngineConfig`]; results are bit-identical to the in-memory
/// engine at the same seed.
pub struct SocketTransport {
    client: Mutex<TcpStream>,
    shared: Arc<Shared>,
    reader: Option<JoinHandle<()>>,
    next_token: AtomicU64,
    addr: SocketAddr,
    corruption: Option<FrameCorruption>,
    /// Ground truth for reconciliation: every byte written down the client
    /// stream, counted from the encoded frame's actual length.  Always on
    /// (an atomic add costs nothing next to a socket write), so tests can
    /// assert the telemetry counter equals this exactly.
    tx_bytes: AtomicU64,
}

impl SocketTransport {
    /// [`SocketTransport::loopback_with`] without a corruption plan.
    ///
    /// The argument is ignored: the transport has one stream whatever the
    /// engine's parallelism.  It stays only because the standalone
    /// benchmark crate calls `loopback(1)`; the next change to the benchmark
    /// drops it, together with the other benchmark-only shims.
    pub fn loopback(_shards: usize) -> Result<Self, WireError> {
        Self::loopback_with(None)
    }

    /// Binds a loopback listener, connects one client stream to it and
    /// spawns the reader for the accepted end.
    ///
    /// `corruption` optionally installs a [`FrameCorruption`] plan: a
    /// seeded fraction of `Upload` frames have one post-length byte flipped
    /// *after* framing (after the CRC was computed over the honest bytes),
    /// so the reader observes a deterministic CRC mismatch and the drain
    /// surfaces a typed error — the `fedhh-wire` integrity surface under
    /// test, never a hang.
    pub fn loopback_with(corruption: Option<FrameCorruption>) -> Result<Self, WireError> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        // The listen backlog completes the loopback handshake, so the
        // connect returns before anything accepts and the accept below
        // finds the connection waiting.
        let client = TcpStream::connect(addr).and_then(no_delay)?;
        let (server, _) = listener.accept()?;
        let server = no_delay(server)?;
        let shared = Arc::new(Shared {
            queue: Mutex::new(Vec::new()),
            sync: Mutex::new(SyncState {
                acknowledged: 0,
                error: None,
                closing: false,
            }),
            cond: Condvar::new(),
            telemetry: OnceLock::new(),
        });
        let reader = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || read_loop(server, &shared))
        };
        Ok(Self {
            client: Mutex::new(client),
            shared,
            reader: Some(reader),
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

    /// The telemetry handle attached to this transport (disabled until —
    /// and unless — [`Transport::attach_telemetry`] was called).
    fn telemetry(&self) -> Telemetry {
        self.shared.telemetry.get().cloned().unwrap_or_default()
    }

    /// Total bytes written down the client stream so far — the encoded
    /// length of every frame, data and control alike.  This is the wire
    /// ground truth the telemetry counter [`Counter::WireTxBytes`] must
    /// reconcile against exactly.
    pub fn tx_bytes(&self) -> u64 {
        self.tx_bytes.load(Ordering::Relaxed)
    }

    /// Writes one finished frame down the client stream and books its
    /// `bytes.len()` encoded bytes: always into the transport's own
    /// ground-truth counter, and into the telemetry registry when a handle
    /// is attached.
    fn transmit(&self, telemetry: &Telemetry, bytes: &[u8]) -> Result<(), WireError> {
        {
            let mut stream = self.client.lock().expect("socket transport poisoned");
            stream.write_all(bytes)?;
            stream.flush()?;
        }
        self.tx_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        telemetry.add(Counter::WireTxBytes, bytes.len() as u64);
        telemetry.add(Counter::WireTxFrames, 1);
        Ok(())
    }

    fn write(&self, frame: &SocketFrame) -> Result<(), WireError> {
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
        self.transmit(&telemetry, &bytes)
    }

    /// Writes an upload frame with one byte flipped: the frame is built
    /// honestly (valid length prefix and CRC), then a deterministic byte
    /// past the length prefix is XOR-flipped before hitting the wire.
    /// Flipping after the CRC is computed guarantees the receiver detects
    /// the damage as a CRC (or schema) mismatch instead of silently
    /// consuming corrupt data; sparing the length prefix keeps the reader's
    /// framing intact so it fails fast instead of mis-reading the stream.
    /// The flipped frame is exactly as long as the honest one, so the byte
    /// accounting stays truthful under corruption plans too.
    fn write_corrupted(
        &self,
        frame: &SocketFrame,
        from: usize,
        round: u32,
    ) -> Result<(), WireError> {
        let corruption = self.corruption.expect("caller checked the plan");
        let mut bytes = Vec::new();
        write_frame(&mut bytes, frame)?;
        let offset = corruption.flip_offset(from, round, bytes.len());
        bytes[offset] ^= 0x20;
        self.transmit(&self.telemetry(), &bytes)
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

/// The reader thread: decode frames off the accepted connection into the
/// queue until EOF or error.
fn read_loop(stream: TcpStream, shared: &Shared) {
    let mut reader = BufReader::new(stream);
    loop {
        match read_frame::<_, SocketFrame>(&mut reader) {
            Ok(SocketFrame::Upload(message)) => {
                let depth = {
                    let mut queue = shared.queue.lock().expect("socket transport poisoned");
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
                sync.acknowledged = sync.acknowledged.max(token);
                shared.cond.notify_all();
            }
            Err(err) => {
                // An I/O error is a dead stream, not a bad frame; only
                // integrity failures (CRC/schema/value) count as rejects.
                // The EOF that `Drop` causes arrives while `closing` is set,
                // so `fail` does not report it.
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
        let (from, round) = (message.from, message.round);
        let frame = SocketFrame::Upload(Box::new(message));
        match self.corruption {
            Some(corruption) if corruption.corrupts(from, round) => {
                self.write_corrupted(&frame, from, round)
            }
            _ => self.write(&frame),
        }
    }

    fn drain(&self) -> Result<Vec<RoundMessage>, WireError> {
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        self.write(&SocketFrame::Flush(token))?;
        // Wait for the reader to acknowledge the barrier (or fail).
        {
            let mut sync = self.shared.sync.lock().expect("socket transport poisoned");
            loop {
                if let Some(err) = &sync.error {
                    return Err(err.clone());
                }
                if sync.acknowledged >= token {
                    break;
                }
                sync = self
                    .shared
                    .cond
                    .wait(sync)
                    .expect("socket transport poisoned");
            }
        }
        let mut messages =
            std::mem::take(&mut *self.shared.queue.lock().expect("socket transport poisoned"));
        canonical_sort(&mut messages);
        Ok(messages)
    }

    fn attach_telemetry(&self, telemetry: &Telemetry) {
        // First attach wins; the reader is already running, so a swap could
        // lose counts mid-stream.
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
        // The reader ends on the EOF this causes (or has already ended on an
        // error); either way the join below cannot hang.
        if let Ok(stream) = self.client.get_mut() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

impl std::fmt::Debug for SocketTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SocketTransport")
            .field("addr", &self.addr)
            .field("corruption", &self.corruption)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{CandidateReport, RoundPayload};
    use crate::transport::InProcessTransport;

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
        let socket = SocketTransport::loopback_with(None).unwrap();
        let memory = InProcessTransport::new();
        for (from, round) in [(4, 0), (1, 0), (3, 1), (0, 0), (2, 0), (1, 1)] {
            socket.send(message(from, round, from as u64)).unwrap();
            memory.send(message(from, round, from as u64)).unwrap();
        }
        assert_eq!(socket.drain().unwrap(), memory.drain().unwrap());
        assert!(socket.drain().unwrap().is_empty(), "drain empties queues");
    }

    #[test]
    fn client_streams_have_nagle_turned_off() {
        let socket = SocketTransport::loopback_with(None).unwrap();
        assert!(socket.client.lock().unwrap().nodelay().unwrap());
    }

    #[test]
    fn equal_keys_keep_submission_order_across_the_socket() {
        let socket = SocketTransport::loopback_with(None).unwrap();
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

    /// Four workers share the one stream, each sending several tagged
    /// messages per party it owns: every message arrives, and each
    /// sender's tags drain in the order it sent them.
    #[test]
    fn concurrent_senders_arrive_completely() {
        let socket = SocketTransport::loopback_with(None).unwrap();
        std::thread::scope(|scope| {
            for worker in 0..4usize {
                let socket = &socket;
                scope.spawn(move || {
                    for tag in 0..8u64 {
                        for party in 0..4usize {
                            socket.send(message(worker * 4 + party, 0, tag)).unwrap();
                        }
                    }
                });
            }
        });
        let drained = socket.drain().unwrap();
        let expected: Vec<(usize, u64)> = (0..16)
            .flat_map(|from| (0..8).map(move |tag| (from, tag)))
            .collect();
        let got: Vec<(usize, u64)> = drained
            .iter()
            .map(|m| (m.from, m.as_report().unwrap().candidates[0].0))
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn repeated_rounds_drain_independently() {
        let socket = SocketTransport::loopback_with(None).unwrap();
        socket.send(message(0, 0, 1)).unwrap();
        assert_eq!(socket.drain().unwrap().len(), 1);
        socket.send(message(1, 1, 2)).unwrap();
        socket.send(message(0, 1, 3)).unwrap();
        let second = socket.drain().unwrap();
        assert_eq!(second.len(), 2);
        assert!(second.iter().all(|m| m.round == 1));
    }

    #[test]
    fn drop_shuts_down_cleanly_with_messages_in_flight() {
        let socket = SocketTransport::loopback_with(None).unwrap();
        socket.send(message(0, 0, 1)).unwrap();
        drop(socket); // must not hang or panic
    }

    #[test]
    fn corrupted_frames_surface_a_typed_error_instead_of_hanging() {
        let corruption = FrameCorruption {
            fraction: 1.0,
            seed: 7,
        };
        let socket = SocketTransport::loopback_with(Some(corruption)).unwrap();
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
        let socket = SocketTransport::loopback_with(Some(corruption)).unwrap();
        for &from in &clean {
            socket.send(message(from, 0, from as u64)).unwrap();
        }
        let drained = socket.drain().unwrap();
        let senders: Vec<usize> = drained.iter().map(|m| m.from).collect();
        assert_eq!(senders, clean, "clean slots travel untouched");
    }
}
