//! The node plane's protocol core: every decision the plane takes about
//! frames, for all three roles, with no socket, thread, clock or blocking
//! call in it.
//!
//! A [`Node`] is one process: the coordinator, or a party process that its
//! Welcome makes a plain party, a cohort leaf (a party whose uplink is its
//! sub-aggregator) or a sub-aggregator.  A driver feeds it [`Event`]s,
//! performs the [`Action`]s [`Node::step`] returns, and blocks on what
//! [`Node::wait`] names.  The frames' codec lives in `crate::wire`.

use super::NodeWelcome;
use crate::message::RoundMessage;
use crate::session::{assemble, coalesce, PartyEvent, RoundCollection};
use crate::topology::Topology;
use crate::transport::canonical_sort;
use fedhh_wire::{to_bytes, Encode, WireError};

/// One frame on a node control connection.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum NodeFrame {
    /// Party → coordinator greeting.
    Hello,
    /// Coordinator → party: your rank plus the run description.
    Welcome { rank: usize, welcome: NodeWelcome },
    /// Party → uplink: this process's share of one engine round.
    RoundDone(Share),
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

impl NodeFrame {
    /// The wire tag of [`NodeFrame::Collection`], which the coordinator
    /// writes ahead of a collection it encodes without cloning it.
    pub(crate) const COLLECTION_TAG: u8 = 3;

    /// The frame's kind and addressing, for error details (a Welcome or a
    /// Collection is too large to print whole).
    fn kind(&self) -> String {
        match self {
            NodeFrame::Welcome { rank, .. } => format!("Welcome for rank {rank}"),
            NodeFrame::RoundDone(share) => format!("RoundDone for round {}", share.round),
            NodeFrame::Collection(c) => format!("Collection for round {}", c.round),
            other => format!("{other:?}"),
        }
    }
}

/// The answer to a party process that dials a coordinator whose federation
/// is already complete.
pub(crate) fn late_join(round: u32) -> NodeFrame {
    NodeFrame::Abort {
        detail: format!(
            "late join rejected: the federation is full and round {round} has already closed"
        ),
    }
}

/// A connection of this process, named by what is at its other end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum Peer {
    /// A party process's connection to the coordinator.
    #[default]
    Coordinator,
    /// A cohort leaf's uplink to its sub-aggregator.
    SubAggregator,
    /// The n-th connection this process accepted: on the coordinator, rank
    /// n's (ranks follow accept order); on a sub-aggregator, a leaf's.
    Accepted(usize),
}

/// What happened on one peer connection.
#[derive(Debug)]
pub(crate) enum Input {
    Frame(NodeFrame),
    /// The peer closed, or sent bytes that do not decode.
    Closed(WireError),
    /// The read deadline passed before a frame arrived.
    Deadline,
}

/// One process's share of a round: what its local drivers produced, plus
/// what its upstream peers added while the round folded.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Share {
    pub(crate) round: u32,
    pub(crate) messages: Vec<RoundMessage>,
    pub(crate) events: Vec<(usize, Vec<PartyEvent>)>,
    /// The lowest-indexed failed party and its error text, if any.
    pub(crate) failure: Option<(usize, String)>,
}

impl Share {
    fn fail(&mut self, failure: Option<(usize, String)>) {
        self.failure = self.failure.take().into_iter().chain(failure).min();
    }
}

#[derive(Debug)]
pub(crate) enum Event {
    Peer(Peer, Input),
    /// The cohort socket [`Wait::Listen`] asked for is bound here.
    Listening(String),
    /// This process's local drivers finished the round.
    Local(Share),
}

#[derive(Debug)]
pub(crate) enum Action {
    Send(Peer, NodeFrame),
    /// Write the same encoded frame to every open peer.
    Broadcast(Vec<u8>),
    Close(Peer),
    /// Connect [`Peer::SubAggregator`] to this address.
    Dial(String),
    Deliver(RoundCollection),
    /// The handshake or the run failed; this process is done.
    Abort(WireError),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Wait {
    /// Accept a connection, name it this peer, and read its first frame.
    Accept(Peer),
    Read(Peer),
    /// Bind a cohort socket and report its address.
    Listen,
    /// Run this process's drivers for the next round (a node that aborted
    /// refuses it).
    Local,
}

#[derive(Debug, Default)]
enum Stage {
    /// Coordinator: accepting this rank.
    Welcoming(usize),
    /// Coordinator: waiting for the n-th cohort's `AggregatorReady`.
    Announcing(usize),
    /// Party: waiting for the Welcome (a fresh node's stage).
    #[default]
    Greeted,
    /// Sub-aggregator: waiting for its cohort socket, then its leaves.
    Binding,
    Joining(usize),
    /// Cohort leaf: waiting for its `Route`.
    Routing,
    Idle,
    /// Folding the n-th upstream peer's `RoundDone` into the round.
    Folding(Share, usize),
    /// Party: waiting for the coordinator's verdict on this round.
    Collecting(u32),
    Done,
}

/// One process's protocol state (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct Node {
    /// The coordinator's run description, or a party's Welcome.
    welcome: Option<NodeWelcome>,
    /// A party process's rank; `None` on the coordinator.
    rank: Option<usize>,
    stage: Stage,
    /// The coordinator's multi-rank cohorts, as rank ranges.
    cohorts: Vec<(usize, usize)>,
    /// A sub-aggregator's leaves that have not joined yet.
    leaves: Vec<usize>,
    /// The peers whose `RoundDone` frames this process folds each round,
    /// with their ranks, in fold order: the coordinator's uplink sources, a
    /// sub-aggregator's leaves, nobody on a party.
    upstream: Vec<(Peer, usize)>,
    /// Where a party process sends its `RoundDone` frames.
    uplink: Peer,
}

impl Node {
    /// The coordinator of `welcome`'s federation.  A welcome whose scenario
    /// is invalid is refused before any party is accepted.
    pub(crate) fn coordinator(welcome: NodeWelcome) -> (Self, Vec<Action>) {
        if let Err(err) = check_welcome(&welcome) {
            return (Node::default(), vec![Action::Abort(err)]);
        }
        let cohorts = cohorts(&welcome);
        // Tree leaves uplink through their sub-aggregator; the coordinator
        // folds frames from every other rank.
        let upstream = (0..welcome.assignments.len())
            .filter(|rank| !cohorts.iter().any(|&(s, e)| (s + 1..e).contains(rank)))
            .map(|rank| (Peer::Accepted(rank), rank))
            .collect();
        let mut node = Node {
            welcome: Some(welcome),
            cohorts,
            upstream,
            ..Node::default()
        };
        node.welcome_next(0);
        (node, Vec::new())
    }

    /// A party process that has just dialled the coordinator.
    pub(crate) fn party() -> (Self, Vec<Action>) {
        let hello = Action::Send(Peer::Coordinator, NodeFrame::Hello);
        (Node::default(), vec![hello])
    }

    /// A party process's rank and Welcome, once welcomed.
    pub(crate) fn joined(&self) -> Option<(usize, &NodeWelcome)> {
        Some((self.rank?, self.welcome.as_ref()?))
    }

    /// The coordinator's run description, or a party's Welcome.
    pub(crate) fn welcome(&self) -> Option<&NodeWelcome> {
        self.welcome.as_ref()
    }

    /// How many `RoundDone` frames this process reads per round.
    pub(crate) fn round_frames(&self) -> usize {
        self.upstream.len()
    }

    pub(crate) fn wait(&self) -> Wait {
        match &self.stage {
            Stage::Welcoming(rank) => Wait::Accept(Peer::Accepted(*rank)),
            Stage::Announcing(i) => Wait::Read(Peer::Accepted(self.cohorts[*i].0)),
            Stage::Greeted | Stage::Routing | Stage::Collecting(_) => Wait::Read(Peer::Coordinator),
            Stage::Binding => Wait::Listen,
            Stage::Joining(slot) => Wait::Accept(Peer::Accepted(*slot)),
            Stage::Folding(_, next) => Wait::Read(self.upstream[*next].0),
            Stage::Idle | Stage::Done => Wait::Local,
        }
    }

    /// Takes one event and returns what the driver must do about it.
    pub(crate) fn step(&mut self, event: Event) -> Vec<Action> {
        use NodeFrame as F;
        let stage = std::mem::replace(&mut self.stage, Stage::Done);
        match (stage, event) {
            (Stage::Folding(share, next), Event::Peer(_, input)) => self.fold(share, next, input),
            (Stage::Welcoming(rank), Event::Peer(peer, Input::Frame(F::Hello))) => {
                let welcome = self.welcome.clone().expect("a coordinator's");
                self.welcome_next(rank + 1);
                vec![Action::Send(peer, F::Welcome { rank, welcome })]
            }
            (
                Stage::Announcing(i),
                Event::Peer(_, Input::Frame(F::AggregatorReady { rank, addr })),
            ) if rank == self.cohorts[i].0 => {
                let (start, end) = self.cohorts[i];
                self.announce(i + 1);
                let route =
                    |leaf| Action::Send(Peer::Accepted(leaf), F::Route { addr: addr.clone() });
                (start + 1..end).map(route).collect()
            }
            (Stage::Greeted, Event::Peer(_, Input::Frame(F::Welcome { rank, welcome }))) => {
                self.welcomed(rank, welcome)
            }
            (Stage::Binding, Event::Listening(addr)) => {
                let rank = self.rank.expect("a sub-aggregator was welcomed");
                self.stage = Stage::Joining(0);
                vec![Action::Send(self.uplink, F::AggregatorReady { rank, addr })]
            }
            (Stage::Joining(slot), Event::Peer(peer, Input::Frame(F::JoinCohort { rank })))
                if self.leaves.contains(&rank) =>
            {
                self.leaves.retain(|leaf| *leaf != rank);
                self.upstream.push((peer, rank));
                self.stage = Stage::Joining(slot + 1);
                if self.leaves.is_empty() {
                    // Leaves dial concurrently; fold in rank order so the
                    // merged frame is a pure function of the plan.
                    self.upstream.sort_by_key(|(_, rank)| *rank);
                    self.stage = Stage::Idle;
                }
                Vec::new()
            }
            (Stage::Routing, Event::Peer(_, Input::Frame(F::Route { addr }))) => {
                let rank = self.rank.expect("a cohort leaf was welcomed");
                self.uplink = Peer::SubAggregator;
                self.stage = Stage::Idle;
                let join = Action::Send(self.uplink, F::JoinCohort { rank });
                vec![Action::Dial(addr), join]
            }
            (Stage::Idle, Event::Local(share)) => self.fold_from(share, 0),
            (Stage::Collecting(round), Event::Peer(_, Input::Frame(F::Collection(collection))))
                if collection.round == round =>
            {
                self.stage = Stage::Idle;
                vec![Action::Deliver(collection)]
            }
            // A coordinator that refuses a late Hello, or ends the run, says
            // why in a typed Abort.
            (_, Event::Peer(Peer::Coordinator, Input::Frame(F::Abort { detail }))) => {
                vec![Action::Abort(WireError::Remote { detail })]
            }
            (_, Event::Peer(_, Input::Closed(err))) => vec![Action::Abort(err)],
            (_, Event::Peer(peer, Input::Deadline)) => vec![Action::Abort(WireError::Io {
                kind: std::io::ErrorKind::TimedOut,
                detail: format!("no frame from {peer:?} before the read deadline"),
            })],
            (stage, Event::Peer(peer, Input::Frame(frame))) => {
                let detail = format!("unexpected {} from {peer:?} in {stage:?}", frame.kind());
                vec![Action::Abort(WireError::Protocol { detail })]
            }
            (stage, _) => vec![Action::Abort(WireError::Protocol {
                detail: format!("a driver event a node in {stage:?} does not take"),
            })],
        }
    }

    /// The coordinator after welcoming `rank - 1`: the next rank, or — all
    /// welcomed — the cohorts' `AggregatorReady`s, then the first round.
    fn welcome_next(&mut self, rank: usize) {
        let ranks = self.welcome.as_ref().map_or(0, |w| w.assignments.len());
        match rank < ranks {
            true => self.stage = Stage::Welcoming(rank),
            false => self.announce(0),
        }
    }

    fn announce(&mut self, i: usize) {
        self.stage = match i < self.cohorts.len() {
            true => Stage::Announcing(i),
            false => Stage::Idle,
        };
    }

    /// A party's Welcome: checks it and finds this rank's place in the
    /// uplink.  Flat runs and singleton cohorts keep the direct star uplink;
    /// the first rank of a multi-rank cohort binds the cohort socket, the
    /// others wait to be routed to it.
    fn welcomed(&mut self, rank: usize, welcome: NodeWelcome) -> Vec<Action> {
        let ranges = welcome.assignments.len();
        let checked = check_welcome(&welcome).and_then(|()| match rank < ranges {
            true => Ok(()),
            false => Err(WireError::Protocol {
                detail: format!("welcome assigns {ranges} ranges but this process got rank {rank}"),
            }),
        });
        if let Err(err) = checked {
            return vec![Action::Abort(err)];
        }
        let mut cohorts = cohorts(&welcome).into_iter();
        self.stage = match cohorts.find(|(start, end)| (*start..*end).contains(&rank)) {
            Some((start, end)) if start == rank => {
                self.leaves = (start + 1..end).collect();
                Stage::Binding
            }
            Some(_) => Stage::Routing,
            None => Stage::Idle,
        };
        (self.rank, self.welcome) = (Some(rank), Some(welcome));
        Vec::new()
    }

    /// The one fold of upstream `RoundDone` frames, on the coordinator and
    /// on a sub-aggregator alike.  Anything but this round's `RoundDone` —
    /// a closed peer, a missed deadline, a wrong round, a wrong frame — is
    /// a failure of the peer's first party, so every survivor still hears
    /// one typed Abort, and it names the offender.
    fn fold(&mut self, mut share: Share, next: usize, input: Input) -> Vec<Action> {
        let (peer, rank) = self.upstream[next];
        let detail = match input {
            Input::Frame(NodeFrame::RoundDone(theirs)) if theirs.round == share.round => {
                share.messages.extend(theirs.messages);
                share.events.extend(theirs.events);
                share.fail(theirs.failure);
                return self.fold_from(share, next + 1);
            }
            Input::Frame(frame) => format!(
                "rank {rank} sent {}, expected RoundDone for round {}",
                frame.kind(),
                share.round
            ),
            Input::Closed(err) => format!("rank {rank} disconnected: {err}"),
            Input::Deadline => format!("rank {rank} missed the deadline of round {}", share.round),
        };
        share.fail(Some((self.first_party(rank), detail)));
        let mut actions = vec![Action::Close(peer)];
        actions.extend(self.fold_from(share, next + 1));
        actions
    }

    /// Waits for upstream peer `next`, or closes the round once every
    /// upstream peer was heard.  A party process forwards its share — a
    /// sub-aggregator coalesces its cohort's reports first — and waits for
    /// the coordinator's verdict; the coordinator broadcasts the assembled
    /// collection, or the lowest failing party's Abort.
    fn fold_from(&mut self, mut share: Share, next: usize) -> Vec<Action> {
        if next < self.upstream.len() {
            self.stage = Stage::Folding(share, next);
            return Vec::new();
        }
        if self.rank.is_some() {
            if !self.upstream.is_empty() {
                canonical_sort(&mut share.messages);
                share.messages = coalesce(share.round, std::mem::take(&mut share.messages));
            }
            self.stage = Stage::Collecting(share.round);
            return vec![Action::Send(self.uplink, NodeFrame::RoundDone(share))];
        }
        if let Some((index, detail)) = share.failure {
            let detail = format!("party {index} failed: {detail}");
            let abort = to_bytes(&NodeFrame::Abort {
                detail: detail.clone(),
            });
            let detail = WireError::Remote { detail };
            return vec![Action::Broadcast(abort), Action::Abort(detail)];
        }
        let scenario = self.welcome().map(|w| w.scenario).unwrap_or_default();
        let collection = assemble(share.round, share.messages, share.events, &scenario);
        // Encode once: the driver fans the same bytes out to every rank.
        let mut payload = vec![NodeFrame::COLLECTION_TAG];
        collection.encode(&mut payload);
        self.stage = Stage::Idle;
        vec![Action::Broadcast(payload), Action::Deliver(collection)]
    }

    /// The party a failure of a whole rank is attributed to — its first,
    /// matching the dropout draw's lowest-index attribution.
    fn first_party(&self, rank: usize) -> usize {
        let range = self.welcome.as_ref().and_then(|w| w.assignments.get(rank));
        range.map_or(rank, |range| range.0)
    }
}

/// The multi-rank cohorts of a tree run as rank ranges; none under the flat
/// star.  A tree has one level ([`Topology::validate`]).
fn cohorts(welcome: &NodeWelcome) -> Vec<(usize, usize)> {
    let (Topology::Tree { fanout, .. }, ranks) =
        (welcome.scenario.topology, welcome.assignments.len())
    else {
        return Vec::new();
    };
    let cohort = |start: usize| (start, (start + fanout).min(ranks));
    let cohorts = (0..ranks).step_by(fanout).map(cohort);
    cohorts.filter(|(start, end)| end - start >= 2).collect()
}

/// Refuses a welcome the core cannot run.  It is decoded from a socket: its
/// scenario is checked here, once, for every process (a tree of fanout 0
/// would divide by zero, a NaN quorum or dropout would draw nonsense), and
/// ranges that do not tile `0..n` in rank order would leave a party unowned
/// or owned twice.
fn check_welcome(welcome: &NodeWelcome) -> Result<(), WireError> {
    let fail = |detail| Err(WireError::Protocol { detail });
    if let Err(err) = welcome.scenario.validate() {
        return fail(format!("welcome carries an invalid scenario: {err}"));
    }
    let mut expected = 0;
    for &(start, end) in &welcome.assignments {
        if start != expected || end < start {
            return fail(format!(
                "party assignments must tile 0..n contiguously, found range \
                 {start}..{end} where {expected} was expected"
            ));
        }
        expected = end;
    }
    Ok(())
}
