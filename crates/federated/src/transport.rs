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
//! * [`ShardedTransport`] — the in-process queue: one mutex-guarded queue
//!   per worker shard, keyed by sender index, so concurrent party workers
//!   never contend on one lock (a sequential session gets one shard).
//! * [`crate::SocketTransport`] — the same contract over real loopback TCP
//!   sockets, using the `fedhh-wire` frame format.
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

/// The in-process transport: senders hash to `from % shards`, so workers
/// running disjoint party ranges (the engine's chunking) rarely touch the
/// same lock.
#[derive(Debug)]
pub struct ShardedTransport {
    shards: Vec<Mutex<Vec<RoundMessage>>>,
}

impl ShardedTransport {
    /// Creates a transport with `shards` independent queues (at least one).
    pub fn new(shards: usize) -> Self {
        Self {
            shards: (0..shards.max(1)).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

impl Transport for ShardedTransport {
    fn send(&self, message: RoundMessage) -> Result<(), WireError> {
        let shard = message.from % self.shards.len();
        self.shards[shard]
            .lock()
            .expect("transport shard poisoned")
            .push(message);
        Ok(())
    }

    fn drain(&self) -> Result<Vec<RoundMessage>, WireError> {
        // `mem::take` swaps in a brand-new (unallocated) vector under each
        // lock: the drained messages move out without a clone and no shard
        // retains stale capacity between rounds.  A given sender always
        // maps to one shard, so concatenating shards in index order plus
        // the stable canonical sort preserves each party's submission order.
        let mut messages: Vec<RoundMessage> = self
            .shards
            .iter()
            .flat_map(|shard| std::mem::take(&mut *shard.lock().expect("transport shard poisoned")))
            .collect();
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
        let transport = ShardedTransport::new(1);
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
    /// dictionary) keeps its submission order at any shard count, even with
    /// other parties' messages interleaved.
    #[test]
    fn canonical_sort_is_stable_for_equal_keys() {
        for transport in [ShardedTransport::new(1), ShardedTransport::new(3)] {
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
    }

    #[test]
    fn drain_leaves_no_capacity_behind() {
        for shards in [1usize, 3] {
            let transport = ShardedTransport::new(shards);
            for i in 0..256 {
                transport.send(message(i, 0)).unwrap();
            }
            let drained = transport.drain().unwrap();
            assert_eq!(drained.len(), 256);
            // After the take-based drain every shard is a fresh vector.
            for shard in &transport.shards {
                assert_eq!(shard.lock().unwrap().capacity(), 0);
            }
        }
    }

    #[test]
    fn sharded_transport_survives_concurrent_senders() {
        let transport = ShardedTransport::new(4);
        assert_eq!(transport.shard_count(), 4);
        std::thread::scope(|scope| {
            for worker in 0..4usize {
                let transport = &transport;
                scope.spawn(move || {
                    for i in 0..16usize {
                        transport.send(message(worker * 16 + i, 0)).unwrap();
                    }
                });
            }
        });
        let drained = transport.drain().unwrap();
        assert_eq!(drained.len(), 64);
        let senders: Vec<usize> = drained.iter().map(|m| m.from).collect();
        assert_eq!(senders, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn zero_shards_is_clamped_to_one() {
        let transport = ShardedTransport::new(0);
        assert_eq!(transport.shard_count(), 1);
        transport.send(message(5, 0)).unwrap();
        assert_eq!(transport.drain().unwrap().len(), 1);
    }
}
