//! Multi-process federation: the node control plane.
//!
//! A distributed run is SPMD: the coordinator and every party process all
//! execute the *same* mechanism code over the *same* deterministically
//! rebuilt dataset, and only the per-round party work is partitioned.  Each
//! engine round, a process runs the drivers of the parties it owns, ships
//! their uploads and events to the coordinator in one `RoundDone` frame,
//! and blocks until the coordinator broadcasts the assembled
//! [`RoundCollection`] back.  Every process then aggregates the identical
//! collection, which is what makes a 4-process run bit-identical to the
//! in-memory engine at the same seed.
//!
//! ```text
//! party → coordinator   Hello                           (once, on connect)
//! coordinator → party   Welcome { rank, welcome }       (config + partition)
//! subagg → coordinator  AggregatorReady { rank, addr }  (tree: cohort socket)
//! coordinator → leaf    Route { addr }                  (tree: where to uplink)
//! leaf → subagg         JoinCohort { rank }             (tree: once, on connect)
//! party → uplink        RoundDone { round, ... }        (each engine round)
//! coordinator → party   Collection { ... } | Abort      (each engine round)
//! ```
//!
//! Under a tree [`ScenarioPlan::topology`] of fanout `f`, ranks form
//! cohorts of `f` consecutive ranks; the first rank of each multi-rank
//! cohort is its **sub-aggregator**, folds its leaves' `RoundDone` frames
//! and forwards one merged frame (a lossless
//! [`crate::message::MergedSupports`]), so the coordinator reads O(cohorts)
//! round frames.  The downlink stays a star, and the broadcast collection
//! is flattened first, so a tree run is bit-identical to the flat star.
//!
//! Every decision about frames — which frame may come next, what to send,
//! when a round closes, whom an Abort names — lives in the socket-free
//! `protocol` core, which closes rounds through the in-memory session's
//! assembly.  This module is its blocking socket driver, the only node code
//! that binds, accepts, connects, reads or writes; a read timeout reaches
//! the core as a missed deadline.  Tests also drive the core through a
//! seeded simulator (`sim`).
//!
//! A rank that closes, misses a deadline or breaks the protocol during a
//! round is a failure of its first party, and every survivor receives one
//! typed `Abort` naming it; a party process that dials a full federation
//! gets one naming the closed round.  Frames travel in the `fedhh-wire`
//! format (schema byte + CRC), so a corrupt peer fails with a typed
//! [`WireError`] folded into [`crate::ProtocolError::Transport`].

pub(crate) mod protocol;
#[cfg(test)]
mod sim;

use crate::message::RoundMessage;
use crate::scenario::ScenarioPlan;
use crate::session::{PartyEvent, RoundCollection};
use crate::ProtocolConfig;
use fedhh_wire::{read_frame, write_frame, WireError};
use protocol::{late_join, Action, Event, Input, Node, NodeFrame, Peer, Share, Wait};
use std::io::{BufReader, ErrorKind};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// Everything a party process needs to reconstruct the run: the protocol
/// configuration, the scenario plan (faults, adversary, topology and
/// quorum), the engine
/// parallelism, the partition of party indices over processes, and an
/// application-defined payload (the `fedhh-node` binary ships its mechanism
/// + dataset spec in it).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeWelcome {
    /// The protocol configuration of the run (includes the seed).
    pub config: ProtocolConfig,
    /// The scenario plan every process runs: the one home of the run's
    /// round policy (faults, adversary, topology and quorum).
    pub scenario: ScenarioPlan,
    /// Engine worker count each process uses for its local parties.
    pub parallelism: usize,
    /// Half-open party-index ranges `[start, end)`, one per rank, covering
    /// every party exactly once.
    pub assignments: Vec<(usize, usize)>,
    /// Opaque application payload (mechanism name, dataset spec, ...).
    pub app: Vec<u8>,
}

/// A framed, buffered TCP connection to one peer.
#[derive(Debug)]
struct FrameStream {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl FrameStream {
    fn new(stream: TcpStream, timeout: Option<Duration>) -> Result<Self, WireError> {
        stream.set_read_timeout(timeout)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
        })
    }

    fn send(&mut self, frame: &NodeFrame) -> Result<(), WireError> {
        write_frame(&mut self.writer, frame)
    }

    /// Sends an already-encoded [`NodeFrame`] payload (used to fan one
    /// encoded broadcast out to many peers without re-encoding).
    fn send_bytes(&mut self, payload: &[u8]) -> Result<(), WireError> {
        fedhh_wire::write_frame_bytes(&mut self.writer, payload)
    }

    fn recv(&mut self) -> Result<NodeFrame, WireError> {
        read_frame(&mut self.reader)
    }
}

/// One process's connections, each under the name its core gives the peer,
/// and the timeout that bounds its accepts and the reads of new streams.
#[derive(Debug, Default)]
struct Sockets(Vec<(Peer, FrameStream)>, Option<Duration>);

impl Sockets {
    fn get(&mut self, peer: Peer) -> Result<&mut FrameStream, WireError> {
        let found = self.0.iter_mut().find(|(p, _)| *p == peer);
        let closed = || std::io::Error::from(ErrorKind::NotConnected).into();
        found.map(|(_, stream)| stream).ok_or_else(closed)
    }

    /// Reads `peer`'s next frame for the core: a read timeout is a missed
    /// deadline, any other failure a closed peer.
    fn read(&mut self, peer: Peer) -> Event {
        let input = match self.get(peer).and_then(FrameStream::recv) {
            Ok(frame) => Input::Frame(frame),
            Err(WireError::Io {
                kind: ErrorKind::WouldBlock | ErrorKind::TimedOut,
                ..
            }) => Input::Deadline,
            Err(err) => Input::Closed(err),
        };
        Event::Peer(peer, input)
    }
}

/// Runs one process's core over its sockets — performs its actions, blocks
/// on what it waits for, feeds that back — until it delivers a collection
/// (`Some`), waits for the next round (`None`) or aborts (the error).
/// `Wait::Accept` accepts on `listener`, where a sub-aggregator binds its
/// cohort socket.
fn drive(
    node: &mut Node,
    sockets: &mut Sockets,
    listener: &mut Option<TcpListener>,
    mut actions: Vec<Action>,
) -> Result<Option<RoundCollection>, WireError> {
    let timeout = sockets.1;
    loop {
        for action in actions {
            match action {
                Action::Send(peer, frame) => sockets.get(peer)?.send(&frame)?,
                // A rank that cannot be written is gone, and its next read
                // folds it as a disconnect.
                Action::Broadcast(payload) => {
                    for (_, stream) in &mut sockets.0 {
                        let _ = stream.send_bytes(&payload);
                    }
                }
                Action::Close(peer) => sockets.0.retain(|(p, _)| *p != peer),
                Action::Dial(addr) => {
                    let stream = FrameStream::new(TcpStream::connect(addr)?, timeout)?;
                    sockets.0.push((Peer::SubAggregator, stream));
                }
                Action::Deliver(collection) => return Ok(Some(collection)),
                Action::Abort(err) => return Err(err),
            }
        }
        let event = match node.wait() {
            Wait::Read(peer) => sockets.read(peer),
            Wait::Accept(peer) => {
                let describe = |timeout| match (node.joined(), peer) {
                    (None, Peer::Accepted(rank)) => {
                        format!("no party process connected for rank {rank} within {timeout:?}")
                    }
                    (joined, _) => format!(
                        "cohort of rank {}: a leaf did not join within {timeout:?}",
                        joined.map_or(0, |(rank, _)| rank)
                    ),
                };
                let bound = listener.as_ref().expect("a node accepts on a bound socket");
                let stream = accept_with_timeout(bound, timeout, &describe)?;
                sockets.0.push((peer, FrameStream::new(stream, timeout)?));
                sockets.read(peer)
            }
            Wait::Listen => {
                let bound = TcpListener::bind("127.0.0.1:0")?;
                let addr = bound.local_addr()?.to_string();
                *listener = Some(bound);
                Event::Listening(addr)
            }
            Wait::Local => return Ok(None),
        };
        actions = node.step(event);
    }
}

/// The default per-read timeout of a node connection: generous enough for a
/// slow CI round, small enough that a dead peer fails the run instead of
/// hanging it forever.
pub const DEFAULT_NODE_TIMEOUT: Duration = Duration::from_secs(120);

/// The coordinator's listening socket, bound before parties are spawned so
/// the bound port can be advertised.
#[derive(Debug)]
pub struct NodeServer {
    listener: TcpListener,
    timeout: Option<Duration>,
}

impl NodeServer {
    /// Binds the listener (use port 0 to let the OS pick).
    pub fn bind<A: ToSocketAddrs>(addr: A) -> Result<Self, WireError> {
        Ok(Self {
            listener: TcpListener::bind(addr)?,
            timeout: Some(DEFAULT_NODE_TIMEOUT),
        })
    }

    /// Overrides the timeout that bounds each accept of a party process and
    /// each read on a party connection (`None` disables it).
    pub fn with_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.timeout = timeout;
        self
    }

    /// The bound address (advertise this to the party processes).
    pub fn local_addr(&self) -> Result<SocketAddr, WireError> {
        Ok(self.listener.local_addr()?)
    }

    /// Accepts one party process per entry in `welcome.assignments`,
    /// performing the handshake with each (and, under a tree topology,
    /// routing each cohort's leaves to its sub-aggregator), and returns the
    /// coordinator's side of the links.  Ranks follow accept order; the
    /// partition is part of the welcome, so which OS process gets which rank
    /// never affects results.  The listener stays on the link, non-blocking,
    /// to answer late joiners with a typed `Abort` each round.
    ///
    /// Each accept is bounded by the server's timeout (see
    /// [`NodeServer::with_timeout`]), so a party process that never dials
    /// fails the handshake instead of hanging it.  A welcome whose scenario
    /// is invalid (see [`ScenarioPlan::validate`]) is refused before any
    /// party is accepted.
    pub fn accept_parties(self, welcome: &NodeWelcome) -> Result<CoordinatorLink, WireError> {
        let (mut node, actions) = Node::coordinator(welcome.clone());
        let mut sockets = Sockets(Vec::new(), self.timeout);
        let mut listener = Some(self.listener);
        drive(&mut node, &mut sockets, &mut listener, actions)?;
        // Keep the listener for the per-round late-join drain.
        if let Some(listener) = &listener {
            listener.set_nonblocking(true)?;
        }
        Ok(CoordinatorLink {
            node,
            sockets,
            listener,
        })
    }
}

/// Accepts one connection on a blocking listener, bounded by `timeout`
/// (`None` waits forever).  `accept` has no deadline of its own, so a scoped
/// watchdog supplies one: an accept that returns first dismisses it; a
/// watchdog that expires first dials the listener to wake the accept, which
/// then fails with a `TimedOut` error worded by `describe` (the caller drops
/// the listener with the failed handshake, so the wake is never answered).
fn accept_with_timeout(
    listener: &TcpListener,
    timeout: Option<Duration>,
    describe: &dyn Fn(Duration) -> String,
) -> Result<TcpStream, WireError> {
    let Some(timeout) = timeout else {
        let (stream, _) = listener.accept()?;
        return Ok(stream);
    };
    let wake = wake_address(listener.local_addr()?);
    let (accepted, expired) = std::thread::scope(|scope| {
        let (dismiss, dismissed) = mpsc::channel::<()>();
        let watchdog = scope.spawn(move || {
            let expired = dismissed.recv_timeout(timeout) == Err(RecvTimeoutError::Timeout);
            if expired {
                // A failed dial leaves the accept to the next peer that
                // dials; there is nothing better to do with the error.
                let _ = TcpStream::connect(wake);
            }
            expired
        });
        let accepted = listener.accept();
        drop(dismiss);
        let expired = watchdog.join().expect("the accept watchdog does not panic");
        (accepted, expired)
    });
    if expired {
        return Err(WireError::Io {
            kind: ErrorKind::TimedOut,
            detail: describe(timeout),
        });
    }
    Ok(accepted?.0)
}

/// The address a watchdog dials to wake an accept on a listener bound to
/// `local`: the listener's own, with an unspecified IP (`0.0.0.0`, `[::]`)
/// replaced by the loopback address of the same family.
fn wake_address(mut local: SocketAddr) -> SocketAddr {
    if local.ip().is_unspecified() {
        let loopback: IpAddr = match local {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        };
        local.set_ip(loopback);
    }
    local
}

/// Connects a party process to the coordinator and performs the handshake;
/// returns the link plus the welcome describing the run.
pub fn connect_party<A: ToSocketAddrs>(addr: A) -> Result<(PartyLink, NodeWelcome), WireError> {
    connect_party_with_timeout(addr, Some(DEFAULT_NODE_TIMEOUT))
}

/// [`connect_party`] with an explicit timeout bounding every read and, on a
/// sub-aggregator, every accept of a cohort leaf (`None` disables it).
pub fn connect_party_with_timeout<A: ToSocketAddrs>(
    addr: A,
    timeout: Option<Duration>,
) -> Result<(PartyLink, NodeWelcome), WireError> {
    handshake(TcpStream::connect(addr)?, timeout)
}

/// The party's side of the handshake over an already-connected stream:
/// Hello out, then the Welcome (or a late-join Abort) back, then this rank's
/// place in the uplink topology.
fn handshake(
    stream: TcpStream,
    timeout: Option<Duration>,
) -> Result<(PartyLink, NodeWelcome), WireError> {
    let stream = FrameStream::new(stream, timeout)?;
    let mut sockets = Sockets(vec![(Peer::Coordinator, stream)], timeout);
    let (mut node, actions) = Node::party();
    // A sub-aggregator's cohort socket lives until its leaves have joined.
    drive(&mut node, &mut sockets, &mut None, actions)?;
    let (rank, welcome) = node.joined().expect("a finished handshake was welcomed");
    let (range, welcome) = (welcome.assignments[rank], welcome.clone());
    let link = PartyLink {
        node,
        sockets,
        rank,
        range,
    };
    Ok((link, welcome))
}

/// The coordinator's side of a distributed session: one connection per
/// party process plus the agreed partition.
#[derive(Debug)]
pub struct CoordinatorLink {
    node: Node,
    sockets: Sockets,
    /// The (non-blocking) accept socket, kept to drain late joiners with a
    /// typed `Abort` each round.
    listener: Option<TcpListener>,
}

impl CoordinatorLink {
    /// How many `RoundDone` frames reach the coordinator per round: one per
    /// sub-aggregator or singleton cohort under a tree topology, one per
    /// rank under the flat star.
    pub fn round_frames(&self) -> usize {
        self.node.round_frames()
    }
}

/// A party process's side of a distributed session.
#[derive(Debug)]
pub struct PartyLink {
    node: Node,
    sockets: Sockets,
    /// This process's rank (its index in the welcome's assignments).
    pub rank: usize,
    range: (usize, usize),
}

/// The session's handle on a distributed run: either the coordinator's
/// fan-in/fan-out side or a party process's single upstream connection.
///
/// Attach one to a run with `Run::link(...)`; the session then exchanges
/// every round through it instead of assembling rounds locally.
#[derive(Debug)]
pub enum SessionLink {
    /// The coordinator: owns no parties, assembles and broadcasts rounds.
    Coordinator(CoordinatorLink),
    /// A party process: owns the parties in its assigned range.
    Party(PartyLink),
}

impl SessionLink {
    /// The half-open range of party indices this process executes locally.
    pub(crate) fn local_range(&self) -> (usize, usize) {
        match self {
            SessionLink::Coordinator(_) => (0, 0),
            SessionLink::Party(party) => party.range,
        }
    }

    /// Validates the link against the session that attaches it.  The
    /// session's scenario must be the welcome's: a process that ran any
    /// other plan would draw different dropouts, flips and quorums than
    /// the rest of the federation.  The partition must fit the session's
    /// party count (the core already checked that the welcome's ranges
    /// tile `0..n`): the coordinator's must cover exactly the dataset's
    /// parties, a party's range must lie inside them.
    pub(crate) fn validate(
        &self,
        party_count: usize,
        scenario: &ScenarioPlan,
    ) -> Result<(), WireError> {
        let (welcome, end, fits) = match self {
            SessionLink::Coordinator(link) => {
                let welcome = link.node.welcome();
                let end = welcome
                    .and_then(|w| w.assignments.last())
                    .map_or(0, |r| r.1);
                (welcome, end, end == party_count)
            }
            SessionLink::Party(party) => {
                let end = party.range.1;
                (party.node.welcome(), end, end <= party_count)
            }
        };
        let welcomed = welcome.map(|welcome| &welcome.scenario);
        let detail = if welcomed != Some(scenario) {
            format!("the session's scenario {scenario:?} is not the welcome's {welcomed:?}")
        } else if !fits {
            format!(
                "the welcome's party ranges end at {end} but the dataset has {party_count} parties"
            )
        } else {
            return Ok(());
        };
        Err(WireError::Protocol { detail })
    }

    /// Completes one engine round across the federation: `messages` and
    /// `events` are this process's local drivers' (drained in canonical
    /// order), `failure` a local driver error.  Returns the round's
    /// collection — identical in every process — or, if any process failed,
    /// the error; every survivor then holds the same [`WireError::Remote`].
    /// The coordinator closes the round under its welcome's scenario.
    pub(crate) fn exchange(
        &mut self,
        round: u32,
        messages: Vec<RoundMessage>,
        events: Vec<(usize, Vec<PartyEvent>)>,
        failure: Option<(usize, String)>,
    ) -> Result<RoundCollection, WireError> {
        let (node, sockets) = match self {
            SessionLink::Coordinator(link) => {
                if let Some(listener) = &link.listener {
                    drain_late_joiners(listener, round);
                }
                (&mut link.node, &mut link.sockets)
            }
            SessionLink::Party(link) => (&mut link.node, &mut link.sockets),
        };
        let share = Share {
            round,
            messages,
            events,
            failure,
        };
        let actions = node.step(Event::Local(share));
        let collection = drive(node, sockets, &mut None, actions)?;
        Ok(collection.expect("a round ends in a delivery or an abort"))
    }
}

/// Accepts every pending late-join connection and answers it with the
/// core's late-join `Abort`.  The listener is non-blocking, so this returns
/// as soon as the backlog is empty; errors are swallowed — a late joiner
/// that vanished mid-drain must not fail the round.
fn drain_late_joiners(listener: &TcpListener, round: u32) {
    while let Ok((stream, _)) = listener.accept() {
        let _ = stream.set_nonblocking(false);
        if let Ok(mut peer) = FrameStream::new(stream, Some(Duration::from_secs(5))) {
            let _ = peer.send(&late_join(round));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{CandidateReport, RoundPayload};
    use crate::topology::Topology;
    use fedhh_wire::{from_bytes, to_bytes};

    fn welcome() -> NodeWelcome {
        NodeWelcome {
            config: ProtocolConfig::test_default(),
            scenario: ScenarioPlan {
                dropout: 0.25,
                seed: 3,
                ..ScenarioPlan::benign()
            },
            parallelism: 2,
            assignments: vec![(0, 2), (2, 4)],
            app: vec![1, 2, 3],
        }
    }

    #[test]
    fn node_frames_round_trip() {
        let frames = vec![
            NodeFrame::Hello,
            NodeFrame::Welcome {
                rank: 1,
                welcome: welcome(),
            },
            NodeFrame::RoundDone(Share {
                round: 4,
                messages: vec![RoundMessage {
                    from: 2,
                    party: "p2".to_string(),
                    round: 4,
                    payload: RoundPayload::Report(CandidateReport {
                        party: "p2".to_string(),
                        level: 3,
                        candidates: vec![(5, 2.0)],
                        users: 10,
                    }),
                }],
                events: vec![(2, vec![])],
                failure: Some((2, "boom".to_string())),
            }),
            NodeFrame::Collection(RoundCollection {
                round: 4,
                messages: vec![],
                events: vec![],
            }),
            NodeFrame::Abort {
                detail: "party 2 failed".to_string(),
            },
            NodeFrame::AggregatorReady {
                rank: 4,
                addr: "127.0.0.1:9099".to_string(),
            },
            NodeFrame::Route {
                addr: "127.0.0.1:9099".to_string(),
            },
            NodeFrame::JoinCohort { rank: 5 },
        ];
        for frame in frames {
            let bytes = to_bytes(&frame);
            assert_eq!(from_bytes::<NodeFrame>(&bytes).unwrap(), frame);
        }
    }

    #[test]
    fn handshake_over_loopback_delivers_the_welcome() {
        let server = NodeServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let expected = welcome();
        let server_welcome = expected.clone();
        let coordinator =
            std::thread::spawn(move || server.accept_parties(&server_welcome).unwrap());
        let mut links = Vec::new();
        for _ in 0..2 {
            let (link, got) = connect_party(addr).unwrap();
            assert_eq!(got, expected);
            links.push(link);
        }
        let coordinator = coordinator.join().unwrap();
        assert_eq!(coordinator.node.welcome(), Some(&expected));
        let ranks: Vec<usize> = links.iter().map(|l| l.rank).collect();
        assert_eq!(ranks, vec![0, 1]);
        assert_eq!(links[0].range, (0, 2));
        assert_eq!(links[1].range, (2, 4));
        // No accept watchdog dialled the listener: the late-join drain
        // finds nothing to answer.
        let listener = coordinator.listener.as_ref().unwrap();
        let err = listener.accept().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock, "{err}");
    }

    #[test]
    fn exchange_assembles_identical_collections_everywhere() {
        let server = NodeServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let mut run_welcome = welcome();
        run_welcome.scenario = ScenarioPlan::benign();
        let server_welcome = run_welcome.clone();
        let coordinator =
            std::thread::spawn(move || server.accept_parties(&server_welcome).unwrap());

        let message = |from: usize| RoundMessage {
            from,
            party: format!("p{from}"),
            round: 0,
            payload: RoundPayload::Report(CandidateReport {
                party: format!("p{from}"),
                level: 1,
                candidates: vec![(from as u64, 1.0)],
                users: 1,
            }),
        };
        let party_threads: Vec<_> = (0..2)
            .map(|_| {
                std::thread::spawn(move || {
                    let (link, _) = connect_party(addr).unwrap();
                    let (start, end) = link.range;
                    let mut link = SessionLink::Party(link);
                    let messages: Vec<RoundMessage> = (start..end).map(message).collect();
                    let events: Vec<(usize, Vec<PartyEvent>)> =
                        (start..end).map(|i| (i, vec![])).collect();
                    link.exchange(0, messages, events, None).unwrap()
                })
            })
            .collect();

        let mut coordinator = SessionLink::Coordinator(coordinator.join().unwrap());
        let coordinator_collection = coordinator
            .exchange(0, Vec::new(), Vec::new(), None)
            .unwrap();

        let senders: Vec<usize> = coordinator_collection
            .messages
            .iter()
            .map(|m| m.from)
            .collect();
        assert_eq!(senders, vec![0, 1, 2, 3]);
        let indices: Vec<usize> = coordinator_collection
            .events
            .iter()
            .map(|(i, _)| *i)
            .collect();
        assert_eq!(indices, vec![0, 1, 2, 3]);
        for thread in party_threads {
            assert_eq!(thread.join().unwrap(), coordinator_collection);
        }
    }

    #[test]
    fn tree_uplinks_assemble_the_same_collection_as_the_flat_star() {
        let message = |from: usize| RoundMessage {
            from,
            party: format!("p{from}"),
            round: 0,
            payload: RoundPayload::Report(CandidateReport {
                party: format!("p{from}"),
                level: 1,
                candidates: vec![(from as u64, 1.0)],
                users: 1,
            }),
        };
        let run = |topology: Topology| {
            let server = NodeServer::bind("127.0.0.1:0").unwrap();
            let addr = server.local_addr().unwrap();
            let server_welcome = NodeWelcome {
                config: ProtocolConfig::test_default(),
                scenario: ScenarioPlan {
                    topology,
                    ..ScenarioPlan::benign()
                },
                parallelism: 1,
                assignments: vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
                app: Vec::new(),
            };
            let coordinator =
                std::thread::spawn(move || server.accept_parties(&server_welcome).unwrap());
            let party_threads: Vec<_> = (0..5)
                .map(|_| {
                    std::thread::spawn(move || {
                        let (link, _) = connect_party(addr).unwrap();
                        let (start, end) = link.range;
                        let mut link = SessionLink::Party(link);
                        let messages: Vec<RoundMessage> = (start..end).map(message).collect();
                        let events: Vec<(usize, Vec<PartyEvent>)> =
                            (start..end).map(|i| (i, vec![])).collect();
                        link.exchange(0, messages, events, None).unwrap()
                    })
                })
                .collect();
            let link = coordinator.join().unwrap();
            let round_frames = link.round_frames();
            let mut coordinator = SessionLink::Coordinator(link);
            let collection = coordinator
                .exchange(0, Vec::new(), Vec::new(), None)
                .unwrap();
            for thread in party_threads {
                assert_eq!(thread.join().unwrap(), collection);
            }
            (round_frames, collection)
        };
        let (flat_frames, flat) = run(Topology::Flat);
        assert_eq!(flat_frames, 5);
        let (tree_frames, tree) = run(Topology::Tree {
            fanout: 2,
            depth: 1,
        });
        // 5 ranks at fanout 2: cohorts {0,1} {2,3} {4} — two sub-aggregator
        // frames plus one singleton.
        assert_eq!(tree_frames, 3);
        assert_eq!(tree, flat, "tree uplink changed the assembled round");
        let senders: Vec<usize> = tree.messages.iter().map(|m| m.from).collect();
        assert_eq!(senders, vec![0, 1, 2, 3, 4]);
        assert!(tree
            .messages
            .iter()
            .all(|m| matches!(m.payload, RoundPayload::Report(_))));
    }

    /// The satellite-3 regression: a party process that connects after the
    /// federation is full must get a typed Abort naming the closed round —
    /// not a socket that hangs unread until the client times out.
    #[test]
    fn late_joiners_get_a_typed_abort_naming_the_round() {
        let server = NodeServer::bind("127.0.0.1:0")
            .unwrap()
            .with_timeout(Some(Duration::from_secs(10)));
        let addr = server.local_addr().unwrap();
        let run_welcome = NodeWelcome {
            config: ProtocolConfig::test_default(),
            scenario: ScenarioPlan::benign(),
            parallelism: 1,
            assignments: vec![(0, 2)],
            app: Vec::new(),
        };
        let server_welcome = run_welcome.clone();
        let coordinator =
            std::thread::spawn(move || server.accept_parties(&server_welcome).unwrap());
        let rank0 = std::thread::spawn(move || {
            let (link, _) = connect_party(addr).unwrap();
            let mut link = SessionLink::Party(link);
            link.exchange(0, Vec::new(), Vec::new(), None)
        });
        let mut coordinator = SessionLink::Coordinator(coordinator.join().unwrap());
        // The latecomer dials once the federation is complete.  On loopback
        // a returned `connect` is already in the accept queue, so the next
        // exchange's drain answers it.
        let late = TcpStream::connect(addr).unwrap();
        let late = std::thread::spawn(move || handshake(late, Some(Duration::from_secs(10))));
        coordinator
            .exchange(0, Vec::new(), Vec::new(), None)
            .unwrap();
        rank0.join().unwrap().unwrap();
        let err = late.join().unwrap().unwrap_err();
        assert!(matches!(err, WireError::Remote { .. }), "{err}");
        let detail = err.to_string();
        assert!(detail.contains("late join"), "{detail}");
        assert!(detail.contains("round 0"), "{detail}");
    }

    #[test]
    fn a_party_failure_aborts_every_process() {
        let server = NodeServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let server_welcome = welcome();
        let coordinator =
            std::thread::spawn(move || server.accept_parties(&server_welcome).unwrap());
        let healthy = std::thread::spawn(move || {
            let (link, _) = connect_party(addr).unwrap();
            let mut link = SessionLink::Party(link);
            link.exchange(0, Vec::new(), Vec::new(), None)
        });
        let failing = std::thread::spawn(move || {
            let (link, _) = connect_party(addr).unwrap();
            let mut link = SessionLink::Party(link);
            link.exchange(
                0,
                Vec::new(),
                Vec::new(),
                Some((3, "driver exploded".to_string())),
            )
        });
        let mut coordinator = SessionLink::Coordinator(coordinator.join().unwrap());
        let err = coordinator
            .exchange(0, Vec::new(), Vec::new(), None)
            .unwrap_err();
        assert!(matches!(err, WireError::Remote { .. }), "{err}");
        assert!(err.to_string().contains("party 3"));
        for thread in [healthy, failing] {
            let err = thread.join().unwrap().unwrap_err();
            assert!(matches!(err, WireError::Remote { .. }), "{err}");
        }
    }

    #[test]
    fn a_disconnected_peer_aborts_the_survivors() {
        let server = NodeServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let server_welcome = welcome();
        let coordinator =
            std::thread::spawn(move || server.accept_parties(&server_welcome).unwrap());
        let healthy = std::thread::spawn(move || {
            let (link, _) = connect_party(addr).unwrap();
            let mut link = SessionLink::Party(link);
            link.exchange(0, Vec::new(), Vec::new(), None)
        });
        // The second peer completes the handshake, then vanishes without
        // ever sending RoundDone — a crash between rounds.
        let vanishing = std::thread::spawn(move || {
            let (link, _) = connect_party(addr).unwrap();
            drop(link);
        });
        vanishing.join().unwrap();
        let mut coordinator = SessionLink::Coordinator(coordinator.join().unwrap());
        let err = coordinator
            .exchange(0, Vec::new(), Vec::new(), None)
            .unwrap_err();
        assert!(matches!(err, WireError::Remote { .. }), "{err}");
        assert!(err.to_string().contains("disconnected"), "{err}");
        // The surviving peer gets a typed Abort instead of a hang.
        let err = healthy.join().unwrap().unwrap_err();
        assert!(matches!(err, WireError::Remote { .. }), "{err}");
        assert!(err.to_string().contains("disconnected"), "{err}");
    }

    /// A rank that reports the wrong round is a failure of its first party:
    /// the coordinator folds it into the round like a disconnect, so the
    /// healthy rank hears one typed Abort naming the offender.
    #[test]
    fn a_wrong_round_aborts_every_survivor_naming_the_offender() {
        let server = NodeServer::bind("127.0.0.1:0")
            .unwrap()
            .with_timeout(Some(Duration::from_secs(10)));
        let addr = server.local_addr().unwrap();
        let run_welcome = NodeWelcome {
            scenario: ScenarioPlan::benign(),
            ..welcome()
        };
        let server_welcome = run_welcome.clone();
        let coordinator =
            std::thread::spawn(move || server.accept_parties(&server_welcome).unwrap());
        // Rank 0 dials first and speaks the protocol by hand: in round 0 it
        // reports round 7.
        let stream = TcpStream::connect(addr).unwrap();
        let mut offender = FrameStream::new(stream, Some(Duration::from_secs(10))).unwrap();
        offender.send(&NodeFrame::Hello).unwrap();
        let healthy = std::thread::spawn(move || {
            let (link, _) = connect_party(addr).unwrap();
            let mut link = SessionLink::Party(link);
            link.exchange(0, Vec::new(), Vec::new(), None)
        });
        assert!(matches!(
            offender.recv().unwrap(),
            NodeFrame::Welcome { rank: 0, .. }
        ));
        let wrong_round = Share {
            round: 7,
            messages: Vec::new(),
            events: Vec::new(),
            failure: None,
        };
        offender.send(&NodeFrame::RoundDone(wrong_round)).unwrap();
        let mut coordinator = SessionLink::Coordinator(coordinator.join().unwrap());
        let coordinator_err = coordinator
            .exchange(0, Vec::new(), Vec::new(), None)
            .unwrap_err();
        let err = healthy.join().unwrap().unwrap_err();
        assert!(matches!(err, WireError::Remote { .. }), "{err}");
        assert_eq!(err, coordinator_err);
        let detail = err.to_string();
        assert!(detail.contains("party 0 failed: rank 0"), "{detail}");
        assert!(detail.contains("round 7"), "{detail}");
    }

    #[test]
    fn accepting_with_no_party_times_out_instead_of_hanging() {
        let server = NodeServer::bind("127.0.0.1:0")
            .unwrap()
            .with_timeout(Some(Duration::from_millis(50)));
        let err = server.accept_parties(&welcome()).unwrap_err();
        assert!(
            matches!(
                err,
                WireError::Io {
                    kind: std::io::ErrorKind::TimedOut,
                    ..
                }
            ),
            "{err}"
        );
    }

    /// The watchdog wakes a listener bound to an unspecified address through
    /// the loopback address of the same family.
    #[test]
    fn unspecified_listeners_still_time_out() {
        let mut binds = vec!["0.0.0.0:0"];
        if TcpListener::bind("[::1]:0").is_ok() {
            binds.push("[::]:0");
        }
        for bind in binds {
            let server = NodeServer::bind(bind)
                .unwrap()
                .with_timeout(Some(Duration::from_millis(50)));
            let err = server.accept_parties(&welcome()).unwrap_err();
            assert!(
                matches!(
                    err,
                    WireError::Io {
                        kind: std::io::ErrorKind::TimedOut,
                        ..
                    }
                ),
                "{bind}: {err}"
            );
            assert!(
                err.to_string().contains("rank 0 within 50ms"),
                "{bind}: {err}"
            );
        }
    }

    #[test]
    fn a_leaf_that_never_joins_times_out_its_sub_aggregator() {
        let server = NodeServer::bind("127.0.0.1:0")
            .unwrap()
            .with_timeout(Some(Duration::from_secs(10)));
        let addr = server.local_addr().unwrap();
        let tree_welcome = NodeWelcome {
            config: ProtocolConfig::test_default(),
            scenario: ScenarioPlan {
                topology: Topology::Tree {
                    fanout: 2,
                    depth: 1,
                },
                ..ScenarioPlan::benign()
            },
            parallelism: 1,
            assignments: vec![(0, 1), (1, 2)],
            app: Vec::new(),
        };
        let coordinator = std::thread::spawn(move || server.accept_parties(&tree_welcome));
        // Ranks follow dial order: the real party dials first and becomes
        // rank 0, the cohort's sub-aggregator; rank 1 greets the coordinator
        // but never dials the cohort socket it is routed to.
        let sub_aggregator = TcpStream::connect(addr).unwrap();
        let mut leaf = TcpStream::connect(addr).unwrap();
        write_frame(&mut leaf, &NodeFrame::Hello).unwrap();
        let sub_aggregator =
            std::thread::spawn(move || handshake(sub_aggregator, Some(Duration::from_millis(250))));
        coordinator.join().unwrap().unwrap();
        let err = sub_aggregator.join().unwrap().unwrap_err();
        assert!(
            matches!(
                err,
                WireError::Io {
                    kind: std::io::ErrorKind::TimedOut,
                    ..
                }
            ),
            "{err}"
        );
        assert!(err.to_string().contains("a leaf did not join"), "{err}");
    }

    /// A welcome is decoded from a socket, so a tree with fanout 0 must be
    /// a typed error on both sides, never a division by zero.  One rank: a
    /// coordinator without the check goes from its one Welcome straight to
    /// the cohort split.
    fn zero_fanout_welcome() -> NodeWelcome {
        let mut welcome = welcome();
        welcome.scenario.topology = Topology::Tree {
            fanout: 0,
            depth: 1,
        };
        welcome.assignments = vec![(0, 4)];
        welcome
    }

    #[test]
    fn a_zero_fanout_welcome_is_refused_before_any_party_is_accepted() {
        let server = NodeServer::bind("127.0.0.1:0")
            .unwrap()
            .with_timeout(Some(Duration::from_secs(10)));
        let addr = server.local_addr().unwrap();
        let party = std::thread::spawn(move || {
            connect_party_with_timeout(addr, Some(Duration::from_secs(10)))
        });
        let err = server.accept_parties(&zero_fanout_welcome()).unwrap_err();
        assert!(matches!(err, WireError::Protocol { .. }), "{err}");
        assert!(err.to_string().contains("fanout 0"), "{err}");
        // The listener went with the refused handshake: the party's dial is
        // refused or reset, never welcomed.
        party.join().unwrap().unwrap_err();
    }

    #[test]
    fn a_zero_fanout_welcome_is_refused_by_the_party() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let coordinator = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut peer = FrameStream::new(stream, Some(Duration::from_secs(10))).unwrap();
            assert_eq!(peer.recv().unwrap(), NodeFrame::Hello);
            peer.send(&NodeFrame::Welcome {
                rank: 0,
                welcome: zero_fanout_welcome(),
            })
            .unwrap();
            peer
        });
        let err = connect_party_with_timeout(addr, Some(Duration::from_secs(10))).unwrap_err();
        assert!(matches!(err, WireError::Protocol { .. }), "{err}");
        assert!(err.to_string().contains("fanout 0"), "{err}");
        coordinator.join().unwrap();
    }

    /// Hostile round-policy values in well-formed welcomes under a valid
    /// CRC: the decoder takes them, and the core refuses each with a typed
    /// error on the coordinator and on the party, never a panic.
    #[test]
    fn hostile_scenarios_in_a_welcome_are_typed_errors_on_both_sides() {
        use crate::scenario::{AdversaryModel, FlipMode};
        let benign = ScenarioPlan::benign();
        let quorum = |quorum| ScenarioPlan { quorum, ..benign };
        let tree = |fanout, depth| ScenarioPlan {
            topology: Topology::Tree { fanout, depth },
            ..benign
        };
        let flip = AdversaryModel::ReportFlip {
            fraction: 2.0,
            mode: FlipMode::Uniform,
        };
        let hostile = [
            (
                "dropout NaN",
                ScenarioPlan {
                    dropout: f64::NAN,
                    ..benign
                },
            ),
            (
                "adversary fraction 2.0",
                ScenarioPlan {
                    adversary: flip,
                    ..benign
                },
            ),
            ("quorum 0", quorum(0.0)),
            ("quorum NaN", quorum(f64::NAN)),
            ("fanout 0", tree(0, 1)),
            ("fanout 1", tree(1, 1)),
            ("depth 3", tree(2, 3)),
        ];
        let refused = |actions: &[Action]| {
            matches!(actions, [Action::Abort(WireError::Protocol { detail })]
                if detail.contains("invalid scenario"))
        };
        for (case, scenario) in hostile {
            let welcome = NodeWelcome {
                scenario,
                ..welcome()
            };
            let mut framed = Vec::new();
            write_frame(&mut framed, &NodeFrame::Welcome { rank: 0, welcome }).unwrap();
            let frame: NodeFrame = read_frame(&mut framed.as_slice()).unwrap();
            let NodeFrame::Welcome { welcome, .. } = frame.clone() else {
                panic!("{case}: a Welcome decodes as a Welcome");
            };
            let (_, actions) = Node::coordinator(welcome);
            assert!(refused(&actions), "{case}: coordinator took {actions:?}");
            let (mut party, _) = Node::party();
            let actions = party.step(Event::Peer(Peer::Coordinator, Input::Frame(frame)));
            assert!(refused(&actions), "{case}: party took {actions:?}");
        }
    }

    /// A party link whose node was welcomed into `welcome` at rank 0, over
    /// a connected stream it never uses.
    fn party_link(range: (usize, usize), welcome: NodeWelcome) -> SessionLink {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let _ = listener.accept().unwrap();
        let (mut node, _) = Node::party();
        let frame = NodeFrame::Welcome { rank: 0, welcome };
        assert!(node
            .step(Event::Peer(Peer::Coordinator, Input::Frame(frame)))
            .is_empty());
        SessionLink::Party(PartyLink {
            sockets: Sockets(
                vec![(Peer::Coordinator, FrameStream::new(client, None).unwrap())],
                None,
            ),
            rank: 0,
            range,
            node,
        })
    }

    #[test]
    fn link_partitions_are_validated() {
        let scenario = welcome().scenario;
        let party = party_link((2, 9), welcome());
        assert!(party.validate(9, &scenario).is_ok());
        assert!(party.validate(8, &scenario).is_err());
        assert_eq!(party.local_range(), (2, 9));
    }

    /// A process that forgot to install the welcome's scenario would draw
    /// its own dropouts, flips and quorums; its session refuses the link.
    #[test]
    fn sessions_refuse_an_engine_scenario_that_is_not_the_welcomes() {
        use crate::{EngineConfig, ProtocolError, Session};
        let engine = EngineConfig::sequential();
        let err = Session::with_link(&engine, 4, Some(party_link((0, 4), welcome()))).unwrap_err();
        assert!(
            matches!(err, ProtocolError::Transport(WireError::Protocol { .. })),
            "{err}"
        );
        assert!(err.to_string().contains("the welcome's"), "{err}");
        let engine = engine.with_scenario(welcome().scenario);
        Session::with_link(&engine, 4, Some(party_link((0, 4), welcome()))).unwrap();
    }
}
