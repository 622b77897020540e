//! Party → server message transports.
//!
//! A [`Transport`] is the channel the engine's party workers upload their
//! [`RoundMessage`]s through while a round executes, possibly from many
//! threads at once.  Implementations only have to queue; the
//! [`crate::Session`] drains the queue once per round and sorts the
//! messages into the canonical `(round, from)` order, so the protocol's
//! results never depend on which worker happened to finish first.
//!
//! Two implementations are provided:
//!
//! * [`InProcessTransport`] — the in-process queue: one mutex-guarded
//!   vector every party worker pushes into.
//! * [`crate::SocketTransport`] — the same contract over a real loopback
//!   TCP socket, using the `fedhh-wire` frame format.
//!
//! Each party's driver sends from one thread, so a single queue already
//! holds every party's messages in submission order; the stable canonical
//! sort keeps that order among equal `(round, from)` keys.
//!
//! Sending and draining are fallible ([`fedhh_wire::WireError`]) because
//! socket transports can fail; the in-process transport never does.

use crate::message::RoundMessage;
use fedhh_telemetry::Telemetry;
use fedhh_wire::WireError;
use std::sync::Mutex;

/// A queue of in-flight party → server round messages.
///
/// `Send + Sync` because party workers send from scoped threads.
pub trait Transport: Send + Sync {
    /// Queues one message (called by party workers, possibly concurrently).
    fn send(&self, message: RoundMessage) -> Result<(), WireError>;

    /// Drains every queued message in the canonical `(round, from)` order.
    fn drain(&self) -> Result<Vec<RoundMessage>, WireError>;

    /// Attaches a telemetry handle for wire-level accounting (bytes and
    /// frames on the wire, reader queue depth).  The default is a no-op:
    /// the in-process transport has no wire, so only
    /// [`crate::SocketTransport`] overrides it.  Recording must never
    /// change what `send`/`drain` return — telemetry is observation only.
    fn attach_telemetry(&self, _telemetry: &Telemetry) {}
}

/// Sorts drained messages into the canonical `(round, from)` order shared
/// by every transport.
///
/// The sort is **stable** for equal `(round, from)` keys (it is built on
/// `slice::sort_by_key`, which Rust guarantees to be stable): a party that
/// uploads several messages in one round keeps its submission order after
/// the sort.  Multi-message rounds — a report plus a pruning dictionary,
/// say — rely on this, so the stability is part of the transport contract
/// and covered by `canonical_sort_is_stable_for_equal_keys` below.
pub(crate) fn canonical_sort(messages: &mut [RoundMessage]) {
    messages.sort_by_key(|m| (m.round, m.from));
}

/// The in-process transport: one queue shared by every party worker.
#[derive(Debug, Default)]
pub struct InProcessTransport {
    queue: Mutex<Vec<RoundMessage>>,
}

impl InProcessTransport {
    /// Creates an empty transport.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Transport for InProcessTransport {
    fn send(&self, message: RoundMessage) -> Result<(), WireError> {
        self.queue
            .lock()
            .expect("transport queue poisoned")
            .push(message);
        Ok(())
    }

    fn drain(&self) -> Result<Vec<RoundMessage>, WireError> {
        // `mem::take` swaps in a brand-new (unallocated) vector under the
        // lock: the drained messages move out without a clone and the queue
        // retains no stale capacity between rounds.
        let mut messages =
            std::mem::take(&mut *self.queue.lock().expect("transport queue poisoned"));
        canonical_sort(&mut messages);
        Ok(messages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{CandidateReport, RoundPayload};

    fn message(from: usize, round: u32) -> RoundMessage {
        message_tagged(from, round, from as u64)
    }

    /// A message whose first candidate value carries a caller-chosen tag, so
    /// tests can tell two messages with the same `(round, from)` key apart.
    fn message_tagged(from: usize, round: u32, tag: u64) -> RoundMessage {
        RoundMessage {
            from,
            party: format!("p{from}"),
            round,
            payload: RoundPayload::Report(CandidateReport {
                party: format!("p{from}"),
                level: 1,
                candidates: vec![(tag, 1.0)],
                users: 1,
            }),
        }
    }

    fn order_after_drain(transport: &dyn Transport) -> Vec<(u32, usize)> {
        transport
            .drain()
            .unwrap()
            .iter()
            .map(|m| (m.round, m.from))
            .collect()
    }

    #[test]
    fn in_memory_transport_drains_in_canonical_order() {
        let transport = InProcessTransport::new();
        transport.send(message(2, 0)).unwrap();
        transport.send(message(0, 1)).unwrap();
        transport.send(message(1, 0)).unwrap();
        transport.send(message(0, 0)).unwrap();
        assert_eq!(
            order_after_drain(&transport),
            vec![(0, 0), (0, 1), (0, 2), (1, 0)]
        );
        assert!(
            transport.drain().unwrap().is_empty(),
            "drain empties the queue"
        );
    }

    /// The stability contract of the canonical order: a party that uploads
    /// several messages in one round (e.g. a report followed by a pruning
    /// dictionary) keeps its submission order, even with other parties'
    /// messages interleaved.
    #[test]
    fn canonical_sort_is_stable_for_equal_keys() {
        let transport = InProcessTransport::new();
        // Party 1 submits tags 10, 11, 12 in round 0, interleaved with
        // other senders and rounds.
        transport.send(message_tagged(1, 0, 10)).unwrap();
        transport.send(message_tagged(0, 1, 90)).unwrap();
        transport.send(message_tagged(1, 0, 11)).unwrap();
        transport.send(message_tagged(2, 0, 80)).unwrap();
        transport.send(message_tagged(1, 0, 12)).unwrap();
        let drained = transport.drain().unwrap();
        let party1_tags: Vec<u64> = drained
            .iter()
            .filter(|m| m.from == 1 && m.round == 0)
            .map(|m| m.as_report().unwrap().candidates[0].0)
            .collect();
        assert_eq!(
            party1_tags,
            vec![10, 11, 12],
            "equal (round, from) keys must keep submission order"
        );
    }

    #[test]
    fn drain_leaves_no_capacity_behind() {
        let transport = InProcessTransport::new();
        for i in 0..256 {
            transport.send(message(i, 0)).unwrap();
        }
        let drained = transport.drain().unwrap();
        assert_eq!(drained.len(), 256);
        // After the take-based drain the queue is a fresh vector.
        assert_eq!(transport.queue.lock().unwrap().capacity(), 0);
    }

    /// Four workers share the one queue, each sending several tagged
    /// messages per party it owns: every message arrives, and each
    /// sender's tags drain in the order it sent them.
    #[test]
    fn in_process_transport_keeps_per_sender_order_under_concurrent_senders() {
        let transport = InProcessTransport::new();
        std::thread::scope(|scope| {
            for worker in 0..4usize {
                let transport = &transport;
                scope.spawn(move || {
                    for tag in 0..8u64 {
                        for party in 0..4usize {
                            transport
                                .send(message_tagged(worker * 4 + party, 0, tag))
                                .unwrap();
                        }
                    }
                });
            }
        });
        let drained = transport.drain().unwrap();
        let expected: Vec<(usize, u64)> = (0..16)
            .flat_map(|from| (0..8).map(move |tag| (from, tag)))
            .collect();
        let got: Vec<(usize, u64)> = drained
            .iter()
            .map(|m| (m.from, m.as_report().unwrap().candidates[0].0))
            .collect();
        assert_eq!(got, expected);
    }
}
