//! Multi-process federation: the node control plane.
//!
//! A distributed run is SPMD: the coordinator and every party process all
//! execute the *same* mechanism code over the *same* deterministically
//! rebuilt dataset, and only the per-round party work is partitioned.  Each
//! engine round, a process runs the drivers of the parties it owns, ships
//! their uploads and events to the coordinator in one `RoundDone` frame,
//! and blocks until the coordinator broadcasts the assembled
//! [`RoundCollection`] back.  Because every process then aggregates the
//! identical collection, all server-side state (broadcast candidates,
//! pruning hand-overs, final rankings) evolves identically everywhere —
//! which is what makes a 4-process run bit-identical to the in-memory
//! engine at the same seed.
//!
//! The wire protocol is tiny and lockstep:
//!
//! ```text
//! party → coordinator   Hello                       (once, on connect)
//! coordinator → party   Welcome { rank, welcome }   (config + partition)
//! party → coordinator   RoundDone { round, ... }    (each engine round)
//! coordinator → party   Collection { ... } | Abort  (each engine round)
//! ```
//!
//! ## The aggregation tree over ranks
//!
//! When the welcome's [`ProtocolConfig::topology`] is
//! [`Topology::Tree`]`{ fanout, .. }`, ranks are grouped into cohorts of
//! `fanout` consecutive ranks and the *uplink* becomes two-level: the first
//! rank of each multi-rank cohort plays **sub-aggregator**, the other
//! cohort members ship their `RoundDone` frames to it, and it forwards one
//! merged frame (reports coalesced into a lossless
//! [`crate::message::MergedSupports`]) to the coordinator — which therefore
//! receives O(cohorts) round frames instead of O(ranks).  Three handshake
//! frames establish the edges after the Welcome:
//!
//! ```text
//! subagg → coordinator  AggregatorReady { rank, addr }  (its cohort socket)
//! coordinator → leaf    Route { addr }                  (where to uplink)
//! leaf → subagg         JoinCohort { rank }             (once, on connect)
//! ```
//!
//! The *downlink* stays a star: the coordinator broadcasts the assembled
//! `Collection` to every rank directly, and the collection is flattened
//! (merged frames unpacked, canonical order restored) before broadcast, so
//! a tree run stays bit-identical to the flat star and to the in-memory
//! engine at the same seed.  The node plane always uses depth 1 over ranks
//! regardless of the configured in-memory depth — interior levels beyond
//! the first change which process folds bytes, never the bytes themselves.
//!
//! A party process that connects *after* the federation is complete (every
//! rank accepted and a round already closed) is not left hanging on an
//! unread socket: the coordinator drains late joiners each round and
//! answers with a typed `Abort` naming the closed round.
//!
//! All frames travel in the `fedhh-wire` format (schema byte + CRC), so an
//! incompatible or corrupt peer fails with a typed [`WireError`] folded
//! into [`crate::ProtocolError::Transport`].

use crate::fault::FaultPlan;
use crate::message::{MergedSupports, RoundMessage, RoundPayload};
use crate::scenario::ScenarioPlan;
use crate::session::{PartyEvent, RoundCollection};
use crate::topology::Topology;
use crate::transport::canonical_sort;
use crate::ProtocolConfig;
use fedhh_wire::{read_frame, write_frame, Decode, Encode, Reader, WireError};
use std::io::BufReader;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// Everything a party process needs to reconstruct the run: the protocol
/// configuration, the scenario plan (faults + adversary), the engine
/// parallelism, the partition of party indices over processes, and an
/// application-defined payload (the `fedhh-node` binary ships its mechanism
/// + dataset spec in it).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeWelcome {
    /// The protocol configuration of the run (includes the seed).
    pub config: ProtocolConfig,
    /// The scenario plan every process must resolve identically (wire
    /// schema 3 — replaces the bare fault plan of schema 2).
    pub scenario: ScenarioPlan,
    /// Engine worker count each process uses for its local parties.
    pub parallelism: usize,
    /// Half-open party-index ranges `[start, end)`, one per rank, covering
    /// every party exactly once.
    pub assignments: Vec<(usize, usize)>,
    /// Opaque application payload (mechanism name, dataset spec, ...).
    pub app: Vec<u8>,
}

impl Encode for NodeWelcome {
    fn encode(&self, out: &mut Vec<u8>) {
        self.config.encode(out);
        self.scenario.encode(out);
        self.parallelism.encode(out);
        self.assignments.encode(out);
        self.app.len().encode(out);
        out.extend_from_slice(&self.app);
    }
}

impl Decode for NodeWelcome {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(NodeWelcome {
            config: ProtocolConfig::decode(reader)?,
            scenario: ScenarioPlan::decode(reader)?,
            parallelism: usize::decode(reader)?,
            assignments: Vec::decode(reader)?,
            app: {
                let len = usize::decode(reader)?;
                reader.take_bytes(len)?.to_vec()
            },
        })
    }
}

/// One frame on a node control connection.
#[derive(Debug, Clone, PartialEq)]
enum NodeFrame {
    /// Party → coordinator greeting.
    Hello,
    /// Coordinator → party: your rank plus the run description.
    Welcome { rank: usize, welcome: NodeWelcome },
    /// Party → coordinator: this process's share of one engine round.
    RoundDone {
        round: u32,
        messages: Vec<RoundMessage>,
        events: Vec<(usize, Vec<PartyEvent>)>,
        /// `(party index, error text)` when a local driver failed.
        failure: Option<(usize, String)>,
    },
    /// Coordinator → party: the assembled round.
    Collection(RoundCollection),
    /// Coordinator → party: the run is over because some party failed.
    Abort { detail: String },
    /// Sub-aggregator → coordinator: the cohort socket is bound and
    /// accepting; route my cohort's leaves to `addr`.
    AggregatorReady { rank: usize, addr: String },
    /// Coordinator → leaf: uplink your `RoundDone` frames to `addr`
    /// (your cohort's sub-aggregator) instead of here.
    Route { addr: String },
    /// Leaf → sub-aggregator: greeting on the cohort connection.
    JoinCohort { rank: usize },
}

impl Encode for NodeFrame {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            NodeFrame::Hello => out.push(0),
            NodeFrame::Welcome { rank, welcome } => {
                out.push(1);
                rank.encode(out);
                welcome.encode(out);
            }
            NodeFrame::RoundDone {
                round,
                messages,
                events,
                failure,
            } => {
                out.push(2);
                round.encode(out);
                messages.encode(out);
                events.encode(out);
                failure.encode(out);
            }
            NodeFrame::Collection(collection) => {
                out.push(3);
                collection.encode(out);
            }
            NodeFrame::Abort { detail } => {
                out.push(4);
                detail.encode(out);
            }
            NodeFrame::AggregatorReady { rank, addr } => {
                out.push(5);
                rank.encode(out);
                addr.encode(out);
            }
            NodeFrame::Route { addr } => {
                out.push(6);
                addr.encode(out);
            }
            NodeFrame::JoinCohort { rank } => {
                out.push(7);
                rank.encode(out);
            }
        }
    }
}

impl Decode for NodeFrame {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        match reader.take_u8()? {
            0 => Ok(NodeFrame::Hello),
            1 => Ok(NodeFrame::Welcome {
                rank: usize::decode(reader)?,
                welcome: NodeWelcome::decode(reader)?,
            }),
            2 => Ok(NodeFrame::RoundDone {
                round: u32::decode(reader)?,
                messages: Vec::decode(reader)?,
                events: Vec::decode(reader)?,
                failure: Option::decode(reader)?,
            }),
            3 => Ok(NodeFrame::Collection(RoundCollection::decode(reader)?)),
            4 => Ok(NodeFrame::Abort {
                detail: String::decode(reader)?,
            }),
            5 => Ok(NodeFrame::AggregatorReady {
                rank: usize::decode(reader)?,
                addr: String::decode(reader)?,
            }),
            6 => Ok(NodeFrame::Route {
                addr: String::decode(reader)?,
            }),
            7 => Ok(NodeFrame::JoinCohort {
                rank: usize::decode(reader)?,
            }),
            other => Err(WireError::InvalidValue {
                what: "node frame tag",
                value: other as u64,
            }),
        }
    }
}

/// A framed, buffered TCP connection to one peer.
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

impl std::fmt::Debug for FrameStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameStream").finish_non_exhaustive()
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
    /// performing the Hello/Welcome handshake with each, and returns the
    /// coordinator's side of the links.  Ranks are assigned in accept
    /// order; the partition itself is part of the welcome, so which OS
    /// process ends up with which rank never affects results.
    ///
    /// When the welcome's config carries a tree topology, the handshake
    /// continues past the Welcomes: each multi-rank cohort's first rank
    /// reports its cohort socket with `AggregatorReady`, and the
    /// coordinator routes the cohort's other ranks to it with `Route`.
    /// The listener is kept (non-blocking) on the returned link so late
    /// joiners can be drained with a typed `Abort` each round instead of
    /// hanging on an unread socket.
    ///
    /// Each accept blocks until a party process dials, bounded by the
    /// server's timeout (see [`NodeServer::with_timeout`]): a party process
    /// that never connects fails the handshake with a timeout error instead
    /// of hanging the coordinator forever.  A welcome whose tree topology is
    /// malformed (see [`Topology::is_valid`]) is refused before any party is
    /// accepted.
    pub fn accept_parties(self, welcome: &NodeWelcome) -> Result<CoordinatorLink, WireError> {
        check_topology(&welcome.config.topology)?;
        let ranks = welcome.assignments.len();
        let mut peers = Vec::with_capacity(ranks);
        for rank in 0..ranks {
            let stream = accept_with_timeout(&self.listener, self.timeout, &|timeout| {
                format!("no party process connected for rank {rank} within {timeout:?}")
            })?;
            let mut peer = FrameStream::new(stream, self.timeout)?;
            match peer.recv()? {
                NodeFrame::Hello => {}
                other => {
                    return Err(WireError::Protocol {
                        detail: format!("expected Hello from rank {rank}, got {other:?}"),
                    })
                }
            }
            peer.send(&NodeFrame::Welcome {
                rank,
                welcome: welcome.clone(),
            })?;
            peers.push(peer);
        }
        // Tree uplink handshake: collect each multi-rank cohort's
        // sub-aggregator socket, then route its leaves there.  Singleton
        // cohorts keep their direct uplink.
        let mut uplink_source = vec![true; ranks];
        if let Topology::Tree { fanout, .. } = welcome.config.topology {
            for cohort_start in (0..ranks).step_by(fanout) {
                let cohort_end = (cohort_start + fanout).min(ranks);
                if cohort_end - cohort_start < 2 {
                    continue;
                }
                let addr = match peers[cohort_start].recv()? {
                    NodeFrame::AggregatorReady { rank, addr } if rank == cohort_start => addr,
                    other => {
                        return Err(WireError::Protocol {
                            detail: format!(
                                "expected AggregatorReady from rank {cohort_start}, got {other:?}"
                            ),
                        })
                    }
                };
                for rank in cohort_start + 1..cohort_end {
                    peers[rank].send(&NodeFrame::Route { addr: addr.clone() })?;
                    uplink_source[rank] = false;
                }
            }
        }
        // Keep the listener for the per-round late-join drain.
        self.listener.set_nonblocking(true)?;
        Ok(CoordinatorLink {
            peers,
            assignments: welcome.assignments.clone(),
            uplink_source,
            listener: Some(self.listener),
        })
    }
}

/// Accepts one connection on a blocking listener, bounded by `timeout`
/// (`None` waits forever).
///
/// The accept blocks, so a peer is accepted the moment it dials.  `accept`
/// has no native deadline, so a scoped watchdog thread supplies one: an
/// accept that returns first dismisses it, and it exits untouched; a
/// watchdog whose `timeout` expires first marks the accept expired and
/// dials the listener itself to wake it.  An expired accept fails with a
/// `TimedOut` error worded by `describe`, whatever connection woke it; the
/// caller then drops the listener with the failed handshake, so the wake
/// connection is never answered.
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
            kind: std::io::ErrorKind::TimedOut,
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
    let mut link = FrameStream::new(stream, timeout)?;
    link.send(&NodeFrame::Hello)?;
    match link.recv()? {
        NodeFrame::Welcome { rank, welcome } => {
            let range = *welcome
                .assignments
                .get(rank)
                .ok_or_else(|| WireError::Protocol {
                    detail: format!(
                        "welcome assigns {} ranges but this process got rank {rank}",
                        welcome.assignments.len()
                    ),
                })?;
            let role = resolve_role(&mut link, rank, &welcome, timeout)?;
            Ok((
                PartyLink {
                    stream: link,
                    rank,
                    range,
                    role,
                },
                welcome,
            ))
        }
        // A coordinator whose federation is already complete answers a late
        // Hello with a typed Abort naming the closed round.
        NodeFrame::Abort { detail } => Err(WireError::Remote { detail }),
        other => Err(WireError::Protocol {
            detail: format!("expected Welcome, got {other:?}"),
        }),
    }
}

/// Resolves this rank's place in the uplink topology after the Welcome:
/// the first rank of a multi-rank cohort binds the cohort socket, reports
/// it with `AggregatorReady` and accepts its leaves' `JoinCohort`s; the
/// other cohort ranks wait for their `Route` and dial it.  Flat runs and
/// singleton cohorts keep the direct star uplink.
fn resolve_role(
    link: &mut FrameStream,
    rank: usize,
    welcome: &NodeWelcome,
    timeout: Option<Duration>,
) -> Result<PartyRole, WireError> {
    let Topology::Tree { fanout, .. } = welcome.config.topology else {
        return Ok(PartyRole::Leaf);
    };
    check_topology(&welcome.config.topology)?;
    let ranks = welcome.assignments.len();
    let cohort_start = (rank / fanout) * fanout;
    let cohort_end = (cohort_start + fanout).min(ranks);
    if cohort_end - cohort_start < 2 {
        return Ok(PartyRole::Leaf);
    }
    if rank == cohort_start {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        link.send(&NodeFrame::AggregatorReady {
            rank,
            addr: listener.local_addr()?.to_string(),
        })?;
        let mut cohort = Vec::with_capacity(cohort_end - cohort_start - 1);
        for _ in cohort_start + 1..cohort_end {
            let stream = accept_with_timeout(&listener, timeout, &|timeout| {
                format!("cohort of rank {rank}: a leaf did not join within {timeout:?}")
            })?;
            let mut peer = FrameStream::new(stream, timeout)?;
            match peer.recv()? {
                NodeFrame::JoinCohort { rank: leaf_rank } => {
                    let first_party = welcome
                        .assignments
                        .get(leaf_rank)
                        .map_or(leaf_rank, |range| range.0);
                    cohort.push((leaf_rank, first_party, peer));
                }
                other => {
                    return Err(WireError::Protocol {
                        detail: format!("expected JoinCohort, got {other:?}"),
                    })
                }
            }
        }
        // Join order is racy (leaves dial concurrently); fold in rank order
        // so the merged frame is a pure function of the plan.
        cohort.sort_by_key(|(leaf_rank, _, _)| *leaf_rank);
        Ok(PartyRole::SubAggregator { cohort })
    } else {
        match link.recv()? {
            NodeFrame::Route { addr } => {
                let stream = TcpStream::connect(addr)?;
                let mut uplink = FrameStream::new(stream, timeout)?;
                uplink.send(&NodeFrame::JoinCohort { rank })?;
                Ok(PartyRole::CohortLeaf { uplink })
            }
            NodeFrame::Abort { detail } => Err(WireError::Remote { detail }),
            other => Err(WireError::Protocol {
                detail: format!("expected Route, got {other:?}"),
            }),
        }
    }
}

/// Refuses a tree topology the cohort arithmetic cannot use: a welcome's
/// topology is decoded from a socket, and fanout 0 would divide by zero.
fn check_topology(topology: &Topology) -> Result<(), WireError> {
    match *topology {
        Topology::Tree { fanout, depth } if !topology.is_valid() => Err(WireError::Protocol {
            detail: format!(
                "welcome carries an invalid tree topology (fanout {fanout}, depth {depth}); \
                 a tree needs fanout >= 2 and depth in 1..=8"
            ),
        }),
        _ => Ok(()),
    }
}

/// The coordinator's side of a distributed session: one connection per
/// party process plus the agreed partition.
#[derive(Debug)]
pub struct CoordinatorLink {
    peers: Vec<FrameStream>,
    assignments: Vec<(usize, usize)>,
    /// `uplink_source[rank]` — whether this rank sends `RoundDone` frames
    /// directly to the coordinator (sub-aggregators and singleton cohorts)
    /// or through its cohort's sub-aggregator (tree leaves).
    uplink_source: Vec<bool>,
    /// The (non-blocking) accept socket, kept to drain late joiners with a
    /// typed `Abort` each round.
    listener: Option<TcpListener>,
}

impl CoordinatorLink {
    /// How many `RoundDone` frames reach the coordinator per round: one per
    /// sub-aggregator or singleton cohort under a tree topology, one per
    /// rank under the flat star.
    pub fn round_frames(&self) -> usize {
        self.uplink_source.iter().filter(|s| **s).count()
    }
}

/// A party process's place in the uplink topology (see [`resolve_role`]).
#[derive(Debug)]
enum PartyRole {
    /// Flat star or singleton cohort: `RoundDone` goes straight upstream.
    Leaf,
    /// Tree leaf: `RoundDone` goes to the cohort's sub-aggregator.
    CohortLeaf { uplink: FrameStream },
    /// Sub-aggregator: folds its cohort's `(rank, first party, stream)`
    /// connections into one merged frame per round.
    SubAggregator {
        cohort: Vec<(usize, usize, FrameStream)>,
    },
}

/// A party process's side of a distributed session.
#[derive(Debug)]
pub struct PartyLink {
    stream: FrameStream,
    /// This process's rank (its index in the welcome's assignments).
    pub rank: usize,
    range: (usize, usize),
    role: PartyRole,
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

    /// Validates the link's partition against the session's party count:
    /// ranges must tile `0..party_count` contiguously.
    pub(crate) fn validate(&self, party_count: usize) -> Result<(), WireError> {
        let assignments: &[(usize, usize)] = match self {
            SessionLink::Coordinator(link) => &link.assignments,
            SessionLink::Party(party) => std::slice::from_ref(&party.range),
        };
        match self {
            SessionLink::Coordinator(_) => {
                let mut expected = 0usize;
                for &(start, end) in assignments {
                    if start != expected || end < start {
                        return Err(WireError::Protocol {
                            detail: format!(
                                "party assignments must tile 0..{party_count} contiguously, \
                                 found range {start}..{end} where {expected} was expected"
                            ),
                        });
                    }
                    expected = end;
                }
                if expected != party_count {
                    return Err(WireError::Protocol {
                        detail: format!(
                            "party assignments cover 0..{expected} but the dataset has \
                             {party_count} parties"
                        ),
                    });
                }
                Ok(())
            }
            SessionLink::Party(party) => {
                let (start, end) = party.range;
                if start > end || end > party_count {
                    return Err(WireError::Protocol {
                        detail: format!(
                            "assigned range {start}..{end} exceeds the dataset's \
                             {party_count} parties"
                        ),
                    });
                }
                Ok(())
            }
        }
    }

    /// Completes one engine round across the federation.
    ///
    /// `messages`/`events` are what this process's local drivers produced
    /// (already drained in canonical order); `failure` carries a local
    /// driver error.  Returns the round's assembled collection — identical
    /// in every process — or an error if any process failed.  On the
    /// coordinator, a peer that disconnected between rounds counts as a
    /// failure of its first assigned party: every surviving peer receives
    /// a typed `Abort` and the exchange returns [`WireError::Remote`]
    /// instead of hanging on the dead socket.
    pub(crate) fn exchange(
        &mut self,
        round: u32,
        messages: Vec<RoundMessage>,
        events: Vec<(usize, Vec<PartyEvent>)>,
        failure: Option<(usize, String)>,
        faults: &FaultPlan,
    ) -> Result<RoundCollection, WireError> {
        match self {
            SessionLink::Party(party) => {
                let mut messages = messages;
                let mut events = events;
                let mut failures: Vec<(usize, String)> = failure.into_iter().collect();
                // A sub-aggregator first folds its cohort's frames into its
                // own, coalescing the reports into one lossless merged
                // frame, so the coordinator sees one uplink frame per
                // cohort.
                if let PartyRole::SubAggregator { cohort } = &mut party.role {
                    for (leaf_rank, first_party, peer) in cohort.iter_mut() {
                        match peer.recv() {
                            Ok(NodeFrame::RoundDone {
                                round: peer_round,
                                messages: peer_messages,
                                events: peer_events,
                                failure: peer_failure,
                            }) => {
                                if peer_round != round {
                                    return Err(WireError::Protocol {
                                        detail: format!(
                                            "rank {leaf_rank} reported round {peer_round} while \
                                             its cohort is in round {round}"
                                        ),
                                    });
                                }
                                messages.extend(peer_messages);
                                events.extend(peer_events);
                                failures.extend(peer_failure);
                            }
                            Ok(other) => {
                                return Err(WireError::Protocol {
                                    detail: format!(
                                        "expected RoundDone from rank {leaf_rank}, got {other:?}"
                                    ),
                                })
                            }
                            Err(err) => {
                                failures.push((
                                    *first_party,
                                    format!("rank {leaf_rank} disconnected: {err}"),
                                ));
                            }
                        }
                    }
                    canonical_sort(&mut messages);
                    messages = merge_cohort(round, messages);
                }
                let failure = failures.into_iter().min();
                let frame = NodeFrame::RoundDone {
                    round,
                    messages,
                    events,
                    failure,
                };
                match &mut party.role {
                    PartyRole::CohortLeaf { uplink } => uplink.send(&frame)?,
                    _ => party.stream.send(&frame)?,
                }
                // The downlink is a star regardless of topology: every rank
                // hears the assembled collection from the coordinator.
                match party.stream.recv()? {
                    NodeFrame::Collection(collection) => {
                        if collection.round != round {
                            return Err(WireError::Protocol {
                                detail: format!(
                                    "coordinator sent round {} while this process is in \
                                     round {round}",
                                    collection.round
                                ),
                            });
                        }
                        Ok(collection)
                    }
                    NodeFrame::Abort { detail } => Err(WireError::Remote { detail }),
                    other => Err(WireError::Protocol {
                        detail: format!("expected Collection, got {other:?}"),
                    }),
                }
            }
            SessionLink::Coordinator(link) => {
                // Answer any party process that connected after the
                // federation was filled: a typed Abort naming the round in
                // progress, instead of an unread socket that hangs the
                // joiner until its timeout.
                if let Some(listener) = &link.listener {
                    drain_late_joiners(listener, round);
                }
                let mut all_messages = messages;
                let mut all_events = events;
                let mut failures: Vec<(usize, String)> = failure.into_iter().collect();
                for (rank, peer) in link.peers.iter_mut().enumerate() {
                    // Tree leaves uplink through their sub-aggregator; the
                    // coordinator only reads frames from uplink sources.
                    if !link.uplink_source[rank] {
                        continue;
                    }
                    // A peer that vanished between rounds (socket error,
                    // EOF, timeout) is a dropout, not a protocol bug: fold
                    // it into the failure set — attributed to its first
                    // assigned party, matching FaultPlan's lowest-index
                    // dropout attribution — so the surviving peers get a
                    // typed Abort below instead of a hung exchange.
                    let frame = match peer.recv() {
                        Ok(frame) => frame,
                        Err(err) => {
                            let party = link.assignments.get(rank).map_or(rank, |r| r.0);
                            failures.push((party, format!("rank {rank} disconnected: {err}")));
                            continue;
                        }
                    };
                    match frame {
                        NodeFrame::RoundDone {
                            round: peer_round,
                            messages,
                            events,
                            failure,
                        } => {
                            if peer_round != round {
                                return Err(WireError::Protocol {
                                    detail: format!(
                                        "rank {rank} reported round {peer_round} while the \
                                         coordinator is in round {round}"
                                    ),
                                });
                            }
                            all_messages.extend(messages);
                            all_events.extend(events);
                            failures.extend(failure);
                        }
                        other => {
                            return Err(WireError::Protocol {
                                detail: format!(
                                    "expected RoundDone from rank {rank}, got {other:?}"
                                ),
                            })
                        }
                    }
                }
                if let Some((index, detail)) = failures.into_iter().min() {
                    let detail = format!("party {index} failed: {detail}");
                    for peer in link.peers.iter_mut() {
                        let _ = peer.send(&NodeFrame::Abort {
                            detail: detail.clone(),
                        });
                    }
                    return Err(WireError::Remote { detail });
                }
                // Unpack merged cohort frames back into their constituent
                // flat messages: the broadcast collection is identical to
                // the flat star's, whatever the uplink topology was.
                let mut flat = Vec::with_capacity(all_messages.len());
                for message in all_messages {
                    match message.payload {
                        RoundPayload::MergedSupports(merged) => {
                            flat.extend(merged.into_messages(message.round));
                        }
                        _ => flat.push(message),
                    }
                }
                let mut all_messages = flat;
                // Per-party subsequences arrive in each process's canonical
                // order and no party spans two processes, so the stable sort
                // reproduces exactly the order a single-process drain yields.
                canonical_sort(&mut all_messages);
                let order = faults.straggler_order(all_messages.len(), round);
                let mut slots: Vec<Option<RoundMessage>> =
                    all_messages.into_iter().map(Some).collect();
                let messages = order
                    .into_iter()
                    .map(|i| slots[i].take().expect("straggler order is a permutation"))
                    .collect();
                all_events.sort_by_key(|(index, _)| *index);
                let collection = RoundCollection {
                    round,
                    messages,
                    events: all_events,
                };
                // Encode the broadcast frame once and fan the same bytes
                // out to every peer — no per-peer clone or re-encode.
                let mut payload = Vec::new();
                payload.push(3); // NodeFrame::Collection tag
                collection.encode(&mut payload);
                for peer in link.peers.iter_mut() {
                    peer.send_bytes(&payload)?;
                }
                Ok(collection)
            }
        }
    }
}

/// Coalesces a cohort's already-canonical report messages into one
/// lossless [`MergedSupports`] frame.  Mirrors the in-memory engine's
/// singleton/mixed-round rules: fewer than two messages, or any
/// non-report payload in the round (dictionary hand-overs are
/// point-to-point), pass through unmerged.
fn merge_cohort(round: u32, messages: Vec<RoundMessage>) -> Vec<RoundMessage> {
    let all_reports = messages
        .iter()
        .all(|m| matches!(m.payload, RoundPayload::Report(_)));
    if !all_reports || messages.len() < 2 {
        return messages;
    }
    let mut parts = Vec::with_capacity(messages.len());
    for message in messages {
        if let RoundPayload::Report(report) = message.payload {
            parts.push((message.from, report));
        }
    }
    vec![RoundMessage {
        from: parts[0].0,
        party: parts[0].1.party.clone(),
        round,
        payload: RoundPayload::MergedSupports(MergedSupports { parts }),
    }]
}

/// Accepts every pending late-join connection and answers it with a typed
/// `Abort` naming the round in progress.  The listener is non-blocking, so
/// this returns as soon as the backlog is empty; errors are swallowed —
/// a late joiner that vanished mid-drain must not fail the round.
fn drain_late_joiners(listener: &TcpListener, round: u32) {
    while let Ok((stream, _)) = listener.accept() {
        let _ = stream.set_nonblocking(false);
        if let Ok(mut peer) = FrameStream::new(stream, Some(Duration::from_secs(5))) {
            let _ = peer.send(&NodeFrame::Abort {
                detail: format!(
                    "late join rejected: the federation is full and round {round} \
                     has already closed"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::CandidateReport;
    use fedhh_wire::{from_bytes, to_bytes};

    fn welcome() -> NodeWelcome {
        NodeWelcome {
            config: ProtocolConfig::test_default(),
            scenario: ScenarioPlan::from_faults(FaultPlan::dropout(0.25, 3)),
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
            NodeFrame::RoundDone {
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
            },
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
        assert_eq!(coordinator.assignments, expected.assignments);
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
                    link.exchange(0, messages, events, None, &FaultPlan::none())
                        .unwrap()
                })
            })
            .collect();

        let mut coordinator = SessionLink::Coordinator(coordinator.join().unwrap());
        let coordinator_collection = coordinator
            .exchange(0, Vec::new(), Vec::new(), None, &FaultPlan::none())
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
            let mut run_welcome = NodeWelcome {
                config: ProtocolConfig {
                    topology,
                    ..ProtocolConfig::test_default()
                },
                scenario: ScenarioPlan::benign(),
                parallelism: 1,
                assignments: vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
                app: Vec::new(),
            };
            run_welcome.config.quorum = crate::QuorumPolicy::full();
            let server_welcome = run_welcome.clone();
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
                        link.exchange(0, messages, events, None, &FaultPlan::none())
                            .unwrap()
                    })
                })
                .collect();
            let link = coordinator.join().unwrap();
            let round_frames = link.round_frames();
            let mut coordinator = SessionLink::Coordinator(link);
            let collection = coordinator
                .exchange(0, Vec::new(), Vec::new(), None, &FaultPlan::none())
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
            link.exchange(0, Vec::new(), Vec::new(), None, &FaultPlan::none())
        });
        let mut coordinator = SessionLink::Coordinator(coordinator.join().unwrap());
        // The latecomer dials once the federation is complete.  On loopback
        // a returned `connect` is already in the accept queue, so the next
        // exchange's drain answers it.
        let late = TcpStream::connect(addr).unwrap();
        let late = std::thread::spawn(move || handshake(late, Some(Duration::from_secs(10))));
        coordinator
            .exchange(0, Vec::new(), Vec::new(), None, &FaultPlan::none())
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
            link.exchange(0, Vec::new(), Vec::new(), None, &FaultPlan::none())
        });
        let failing = std::thread::spawn(move || {
            let (link, _) = connect_party(addr).unwrap();
            let mut link = SessionLink::Party(link);
            link.exchange(
                0,
                Vec::new(),
                Vec::new(),
                Some((3, "driver exploded".to_string())),
                &FaultPlan::none(),
            )
        });
        let mut coordinator = SessionLink::Coordinator(coordinator.join().unwrap());
        let err = coordinator
            .exchange(0, Vec::new(), Vec::new(), None, &FaultPlan::none())
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
            link.exchange(0, Vec::new(), Vec::new(), None, &FaultPlan::none())
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
            .exchange(0, Vec::new(), Vec::new(), None, &FaultPlan::none())
            .unwrap_err();
        assert!(matches!(err, WireError::Remote { .. }), "{err}");
        assert!(err.to_string().contains("disconnected"), "{err}");
        // The surviving peer gets a typed Abort instead of a hang.
        let err = healthy.join().unwrap().unwrap_err();
        assert!(matches!(err, WireError::Remote { .. }), "{err}");
        assert!(err.to_string().contains("disconnected"), "{err}");
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
            config: ProtocolConfig {
                topology: Topology::Tree {
                    fanout: 2,
                    depth: 1,
                },
                ..ProtocolConfig::test_default()
            },
            scenario: ScenarioPlan::benign(),
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
        welcome.config.topology = Topology::Tree {
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

    #[test]
    fn link_partitions_are_validated() {
        let party = SessionLink::Party(PartyLink {
            stream: {
                // A connected pair purely to own a stream; never used.
                let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                let addr = listener.local_addr().unwrap();
                let client = TcpStream::connect(addr).unwrap();
                let _ = listener.accept().unwrap();
                FrameStream::new(client, None).unwrap()
            },
            rank: 0,
            range: (2, 9),
            role: PartyRole::Leaf,
        });
        assert!(party.validate(9).is_ok());
        assert!(party.validate(8).is_err());
        assert_eq!(party.local_range(), (2, 9));
    }
}
