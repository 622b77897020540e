//! A seeded, single-threaded simulator over the protocol core.
//!
//! Every process of a federation — the coordinator and 1–5 party processes,
//! under the flat star or a depth-1 tree — runs its [`Node`] in one thread
//! over in-memory FIFO pipes and a virtual clock.  Each seed picks a setup
//! (ranks, parties, topology, rounds, a straggler plan, uploads that
//! sometimes include a dictionary, an optional local driver failure) and at
//! most one fault, injected into whichever frame of the run it lands on:
//! drop, duplicate, truncate, disconnect, wrong round, wrong kind, or a
//! missed read deadline.  The scheduler picks which runnable process steps
//! next, so deliveries interleave across connections; when nothing can
//! step, the clock jumps to the earliest read deadline.  Every run must
//! satisfy four properties:
//!
//! * **termination** — every process ends within [`MAX_STEPS`] steps;
//! * **agreement** — every process that delivers round r holds the same
//!   collection, and every typed Abort a process receives carries one
//!   reason, the coordinator's;
//! * **validity** — without a fault, every delivered collection is what
//!   [`assemble`] returns for the same uploads in one process, and every
//!   process completes the run (or, under a driver failure, aborts naming
//!   the failed party);
//! * **attribution** — a fault on rank r's uplink `RoundDone` makes the
//!   coordinator abort naming r's first party.  The one exception is a
//!   *dropped* leaf frame under a tree: the core has no clock, every hop
//!   waits one deadline, and when the coordinator's deadline on the leaf's
//!   sub-aggregator expires first, the sub-aggregator's first party is
//!   named.  A duplicate sent in the last round may outlive the run.
//!
//! A failing seed panics with the call that replays it.

use super::protocol::{Action, Event, Input, Node, NodeFrame, Peer, Share, Wait};
use super::NodeWelcome;
use crate::message::{CandidateReport, PruneDictionary, RoundMessage, RoundPayload};
use crate::scenario::ScenarioPlan;
use crate::session::{assemble, PartyEvent, RoundCollection};
use crate::topology::Topology;
use crate::ProtocolConfig;
use fedhh_wire::{from_bytes, to_bytes, WireError};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::io::ErrorKind;

/// Virtual time a blocked read or accept waits before its deadline passes.
const TIMEOUT: u64 = 1_000;
/// The step budget within which every process must have ended.
const MAX_STEPS: usize = 20_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    Drop,
    Duplicate,
    Truncate,
    Disconnect,
    WrongRound,
    WrongKind,
    Deadline,
}

const FAULTS: [Fault; 7] = [
    Fault::Drop,
    Fault::Duplicate,
    Fault::Truncate,
    Fault::Disconnect,
    Fault::WrongRound,
    Fault::WrongKind,
    Fault::Deadline,
];

/// One direction of a connection.
#[derive(Debug)]
struct Pipe {
    /// Encoded frames in flight; a late one makes the read that would
    /// return it miss its deadline instead (an injected fault).
    frames: VecDeque<(Vec<u8>, bool)>,
    /// The writer has not closed this direction.
    open: bool,
    /// The reader is gone: writes vanish.
    deaf: bool,
    /// The opposite direction of the same connection.
    twin: usize,
}

#[derive(Debug)]
struct Process {
    node: Node,
    /// `(peer, inbound pipe, outbound pipe)` per open connection.
    links: Vec<(Peer, usize, usize)>,
    /// This process's listener, if it bound one.
    listener: Option<usize>,
    /// When the current wait began, `(clock, tick)`: deadlines expire in
    /// this order.
    since: (u64, usize),
    rounds_run: u32,
    delivered: Vec<RoundCollection>,
    ended: Option<Result<(), WireError>>,
}

impl Process {
    fn new(node: Node) -> Self {
        Process {
            node,
            links: Vec::new(),
            listener: None,
            since: (0, 0),
            rounds_run: 0,
            delivered: Vec::new(),
            ended: None,
        }
    }

    fn link(&self, peer: Peer) -> Option<(usize, usize)> {
        let found = self.links.iter().find(|(p, _, _)| *p == peer);
        found.map(|&(_, inbound, outbound)| (inbound, outbound))
    }

    fn rank(&self) -> Option<usize> {
        self.node.joined().map(|(rank, _)| rank)
    }
}

/// What one seed runs.
#[derive(Debug)]
struct Setup {
    welcome: NodeWelcome,
    rounds: u32,
    /// The `(rank, round)` whose local drivers fail.
    failure: Option<(usize, u32)>,
    /// The `(party, round)` that uploads a dictionary besides its report.
    dictionary: Option<(usize, u32)>,
    /// The fault, and the index of the sent frame it hits.
    fault: Option<(usize, Fault)>,
}

impl Setup {
    fn draw(rng: &mut StdRng) -> Self {
        let ranks = rng.gen_range(1..=5usize);
        let parties = ranks + rng.gen_range(0..=3usize);
        let mut cuts: Vec<usize> = (1..parties).collect();
        cuts.shuffle(rng);
        cuts.truncate(ranks - 1);
        cuts.extend([0, parties]);
        cuts.sort_unstable();
        let assignments = cuts.windows(2).map(|w| (w[0], w[1])).collect();
        let topology = match rng.gen_bool(0.5) {
            true => Topology::Flat,
            false => Topology::Tree {
                fanout: rng.gen_range(2..=3usize),
                depth: 1,
            },
        };
        let stragglers = rng.gen_bool(0.5);
        let seed = rng.gen();
        let rounds = rng.gen_range(1..=3u32);
        let failure = rng
            .gen_bool(0.2)
            .then(|| (rng.gen_range(0..ranks), rng.gen_range(0..rounds)));
        let dictionary = rng
            .gen_bool(0.3)
            .then(|| (rng.gen_range(0..parties), rng.gen_range(0..rounds)));
        // Roughly the frames a run sends: four per rank in the handshake,
        // two per rank per round.
        let sends = ranks * (4 + 2 * rounds as usize);
        let fault = rng.gen_bool(0.8).then(|| {
            (
                rng.gen_range(0..sends),
                *FAULTS.choose(rng).expect("faults"),
            )
        });
        let welcome = NodeWelcome {
            config: ProtocolConfig::test_default(),
            scenario: ScenarioPlan {
                stragglers,
                topology,
                seed,
                ..ScenarioPlan::benign()
            },
            parallelism: 1,
            assignments,
            app: Vec::new(),
        };
        Setup {
            welcome,
            rounds,
            failure,
            dictionary,
            fault,
        }
    }

    /// Party `index`'s uploads in `round`, in its canonical order.
    fn uploads(&self, index: usize, round: u32) -> Vec<RoundMessage> {
        let party = format!("p{index}");
        let report = RoundPayload::Report(CandidateReport {
            party: party.clone(),
            level: round as u8,
            candidates: vec![(index as u64 * 31 + u64::from(round), index as f64 + 0.5)],
            users: index + 1,
        });
        let mut payloads = vec![report];
        if self.dictionary == Some((index, round)) {
            payloads.push(RoundPayload::Dictionary(PruneDictionary::default()));
        }
        let message = |payload| RoundMessage {
            from: index,
            party: party.clone(),
            round,
            payload,
        };
        payloads.into_iter().map(message).collect()
    }

    fn events(&self, index: usize, round: u32) -> (usize, Vec<PartyEvent>) {
        let event = PartyEvent::ValidationReports {
            party: format!("p{index}"),
            bits: index * 8 + round as usize,
        };
        (index, vec![event])
    }

    /// The share of the parties in `range` for `round`.
    fn share(&self, (start, end): (usize, usize), round: u32) -> Share {
        Share {
            round,
            messages: (start..end).flat_map(|i| self.uploads(i, round)).collect(),
            events: (start..end).map(|i| self.events(i, round)).collect(),
            failure: None,
        }
    }

    fn first_party(&self, rank: usize) -> usize {
        self.welcome.assignments[rank].0
    }

    /// The first rank of `rank`'s cohort under a tree topology.
    fn cohort_start(&self, rank: usize) -> usize {
        match self.welcome.scenario.topology {
            Topology::Tree { fanout, .. } => rank / fanout * fanout,
            Topology::Flat => rank,
        }
    }
}

/// What the seed's fault hit.
#[derive(Debug)]
struct Hit {
    fault: Fault,
    /// The sender's rank (`None` for the coordinator).
    rank: Option<usize>,
    round_done: bool,
}

struct Sim {
    rng: StdRng,
    setup: Setup,
    procs: Vec<Process>,
    pipes: Vec<Pipe>,
    /// Per listener: still open, and its dialled-but-unaccepted connections
    /// as the acceptor's `(inbound, outbound)` pipes.
    listeners: Vec<(bool, VecDeque<(usize, usize)>)>,
    clock: u64,
    tick: usize,
    sends: usize,
    hit: Option<Hit>,
}

/// Runs one seed and checks the four properties.
fn check(seed: u64) -> Result<Outcome, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let setup = Setup::draw(&mut rng);
    let (coordinator, _) = Node::coordinator(setup.welcome.clone());
    let mut sim = Sim {
        rng,
        setup,
        procs: vec![Process::new(coordinator)],
        pipes: Vec::new(),
        listeners: vec![(true, VecDeque::new())],
        clock: 0,
        tick: 0,
        sends: 0,
        hit: None,
    };
    sim.procs[0].listener = Some(0);
    // Party processes dial in a seeded order; ranks follow accept order.
    for _ in 0..sim.setup.welcome.assignments.len() {
        let (node, actions) = Node::party();
        sim.procs.push(Process::new(node));
        let p = sim.procs.len() - 1;
        sim.dial(p, 0, Peer::Coordinator);
        sim.perform(p, actions);
    }
    for _ in 0..MAX_STEPS {
        let runnable: Vec<usize> = (0..sim.procs.len()).filter(|&p| sim.runnable(p)).collect();
        if let Some(&p) = runnable.choose(&mut sim.rng) {
            sim.advance(p);
            continue;
        }
        let running = (0..sim.procs.len()).filter(|&p| sim.procs[p].ended.is_none());
        let Some(p) = running.min_by_key(|&p| sim.procs[p].since) else {
            return sim.verify();
        };
        sim.clock = sim.procs[p].since.0 + TIMEOUT;
        sim.expire(p);
    }
    Err(format!(
        "a process was still running after {MAX_STEPS} steps"
    ))
}

/// What a passing seed exercised.
#[derive(Debug, Default)]
struct Outcome {
    validity: bool,
    attribution: bool,
    aborted: bool,
}

impl Sim {
    fn pipe_pair(&mut self) -> (usize, usize) {
        let a = self.pipes.len();
        for twin in [a + 1, a] {
            self.pipes.push(Pipe {
                frames: VecDeque::new(),
                open: true,
                deaf: false,
                twin,
            });
        }
        (a, a + 1)
    }

    /// Connects process `p` to `listener` as `peer`; false if the listener
    /// is gone.
    fn dial(&mut self, p: usize, listener: usize, peer: Peer) -> bool {
        if !self.listeners[listener].0 {
            return false;
        }
        let (up, down) = self.pipe_pair();
        self.listeners[listener].1.push_back((up, down));
        self.procs[p].links.push((peer, down, up));
        true
    }

    /// Process `p` stops reading `inbound` and closes `outbound`.
    fn hang_up(&mut self, inbound: usize, outbound: usize) {
        self.pipes[inbound].deaf = true;
        self.pipes[outbound].open = false;
    }

    fn end(&mut self, p: usize, result: Result<(), WireError>) {
        if self.procs[p].ended.is_some() {
            return;
        }
        self.procs[p].ended = Some(result);
        for (_, inbound, outbound) in std::mem::take(&mut self.procs[p].links) {
            self.hang_up(inbound, outbound);
        }
        if let Some(listener) = self.procs[p].listener {
            self.listeners[listener].0 = false;
            for (inbound, outbound) in std::mem::take(&mut self.listeners[listener].1) {
                self.hang_up(inbound, outbound);
            }
        }
    }

    /// The peer process `p` reads next, once any accept is done.
    fn reading(&self, p: usize) -> Option<Peer> {
        match self.procs[p].node.wait() {
            Wait::Read(peer) => Some(peer),
            Wait::Accept(peer) => self.procs[p].link(peer).map(|_| peer),
            _ => None,
        }
    }

    fn runnable(&self, p: usize) -> bool {
        let proc = &self.procs[p];
        if proc.ended.is_some() {
            return false;
        }
        if let Some(peer) = self.reading(p) {
            return proc.link(peer).is_none_or(|(inbound, _)| {
                let pipe = &self.pipes[inbound];
                !pipe.frames.is_empty() || !pipe.open
            });
        }
        match proc.node.wait() {
            Wait::Accept(_) => {
                let listener = proc.listener.expect("an accepting process listens");
                !self.listeners[listener].1.is_empty()
            }
            _ => true,
        }
    }

    fn touch(&mut self, p: usize) {
        self.tick += 1;
        self.procs[p].since = (self.clock, self.tick);
    }

    /// One step of process `p`, which is runnable.
    fn advance(&mut self, p: usize) {
        let event = match (self.reading(p), self.procs[p].node.wait()) {
            (Some(peer), _) => self.read(p, peer),
            (None, Wait::Accept(peer)) => {
                let listener = self.procs[p]
                    .listener
                    .expect("an accepting process listens");
                let (inbound, outbound) = self.listeners[listener].1.pop_front().expect("runnable");
                self.procs[p].links.push((peer, inbound, outbound));
                return self.touch(p);
            }
            (None, Wait::Listen) => {
                self.listeners.push((true, VecDeque::new()));
                self.procs[p].listener = Some(self.listeners.len() - 1);
                Event::Listening(format!("sim:{}", self.listeners.len() - 1))
            }
            (None, Wait::Local) if self.procs[p].rounds_run == self.setup.rounds => {
                return self.end(p, Ok(()));
            }
            (None, Wait::Local) => self.local(p),
            (None, wait) => {
                let detail = format!("a node waits for {wait:?} without having aborted");
                return self.end(p, Err(WireError::Protocol { detail }));
            }
        };
        let actions = self.procs[p].node.step(event);
        self.perform(p, actions);
        self.touch(p);
    }

    /// Process `p`'s wait expires: a read misses its deadline; an accept
    /// with nobody dialling fails the handshake, as the driver's does.
    fn expire(&mut self, p: usize) {
        let Some(peer) = self.reading(p) else {
            let err = WireError::Io {
                kind: ErrorKind::TimedOut,
                detail: "nobody dialled before the deadline".to_string(),
            };
            return self.end(p, Err(err));
        };
        let actions = self.procs[p].node.step(Event::Peer(peer, Input::Deadline));
        self.perform(p, actions);
        self.touch(p);
    }

    fn read(&mut self, p: usize, peer: Peer) -> Event {
        let closed = |detail: &str| WireError::Io {
            kind: ErrorKind::UnexpectedEof,
            detail: detail.to_string(),
        };
        let input = match self.procs[p].link(peer) {
            None => Input::Closed(closed("this process closed the connection")),
            Some((inbound, _)) => {
                let pipe = &mut self.pipes[inbound];
                match pipe.frames.front_mut() {
                    Some((_, late)) if *late => {
                        *late = false;
                        Input::Deadline
                    }
                    Some(_) => match from_bytes::<NodeFrame>(&pipe.frames.pop_front().unwrap().0) {
                        Ok(frame) => Input::Frame(frame),
                        Err(err) => Input::Closed(err),
                    },
                    None => Input::Closed(closed("the peer closed the connection")),
                }
            }
        };
        Event::Peer(peer, input)
    }

    /// Process `p`'s local drivers finish their next round.
    fn local(&mut self, p: usize) -> Event {
        let round = self.procs[p].rounds_run;
        self.procs[p].rounds_run += 1;
        let share = match self.procs[p].rank() {
            None => self.setup.share((0, 0), round),
            Some(rank) if self.setup.failure == Some((rank, round)) => Share {
                failure: Some((self.setup.first_party(rank), "driver exploded".to_string())),
                ..self.setup.share((0, 0), round)
            },
            Some(rank) => self
                .setup
                .share(self.setup.welcome.assignments[rank], round),
        };
        Event::Local(share)
    }

    fn perform(&mut self, p: usize, actions: Vec<Action>) {
        for action in actions {
            if self.procs[p].ended.is_some() {
                return;
            }
            match action {
                Action::Send(peer, frame) => match self.procs[p].link(peer) {
                    Some((_, outbound)) => self.transmit(p, outbound, to_bytes(&frame)),
                    None => {
                        let detail = format!("{peer:?} is closed");
                        let err = WireError::Io {
                            kind: ErrorKind::NotConnected,
                            detail,
                        };
                        self.end(p, Err(err));
                    }
                },
                Action::Broadcast(bytes) => {
                    let outbound: Vec<usize> = self.procs[p].links.iter().map(|l| l.2).collect();
                    for pipe in outbound {
                        self.transmit(p, pipe, bytes.clone());
                    }
                }
                Action::Close(peer) => {
                    if let Some((inbound, outbound)) = self.procs[p].link(peer) {
                        self.procs[p].links.retain(|(q, _, _)| *q != peer);
                        self.hang_up(inbound, outbound);
                    }
                }
                Action::Dial(addr) => {
                    let listener = addr.strip_prefix("sim:").and_then(|i| i.parse().ok());
                    let dialled = listener.is_some_and(|l| self.dial(p, l, Peer::SubAggregator));
                    if !dialled {
                        let err = WireError::Io {
                            kind: ErrorKind::ConnectionRefused,
                            detail: format!("nobody listens at {addr}"),
                        };
                        self.end(p, Err(err));
                    }
                }
                Action::Deliver(collection) => self.procs[p].delivered.push(collection),
                Action::Abort(err) => self.end(p, Err(err)),
            }
        }
    }

    /// Writes one encoded frame, applying the seed's fault if this is the
    /// frame it lands on.
    fn transmit(&mut self, p: usize, outbound: usize, mut bytes: Vec<u8>) {
        let index = self.sends;
        self.sends += 1;
        let mut late = false;
        if let Some((_, fault)) = self.setup.fault.filter(|(at, _)| *at == index) {
            let frame: NodeFrame = from_bytes(&bytes).expect("the core sends decodable frames");
            let round_done = matches!(frame, NodeFrame::RoundDone(_));
            let rank = self.procs[p].rank();
            self.hit = Some(Hit {
                fault,
                rank,
                round_done,
            });
            match fault {
                Fault::Drop => return,
                Fault::Duplicate => self.push(outbound, bytes.clone(), false),
                Fault::Truncate => bytes.truncate(bytes.len() / 2),
                Fault::Disconnect => {
                    for pipe in [outbound, self.pipes[outbound].twin] {
                        self.pipes[pipe].open = false;
                        self.pipes[pipe].deaf = true;
                    }
                    return;
                }
                Fault::WrongRound | Fault::WrongKind => bytes = to_bytes(&mangle(frame, fault)),
                Fault::Deadline => late = true,
            }
        }
        self.push(outbound, bytes, late);
    }

    fn push(&mut self, outbound: usize, bytes: Vec<u8>, late: bool) {
        let pipe = &mut self.pipes[outbound];
        if pipe.open && !pipe.deaf {
            pipe.frames.push_back((bytes, late));
        }
    }

    /// The collection one process assembles from every party's uploads.
    fn expected(&self, round: u32) -> RoundCollection {
        let parties = self.setup.welcome.assignments.last().map_or(0, |r| r.1);
        let share = self.setup.share((0, parties), round);
        let scenario = &self.setup.welcome.scenario;
        assemble(round, share.messages, share.events, scenario)
    }

    fn verify(&self) -> Result<Outcome, String> {
        let setup = &self.setup;
        let mut outcome = Outcome::default();
        // Agreement.
        for round in 0..setup.rounds as usize {
            let mut held = self.procs.iter().filter_map(|p| p.delivered.get(round));
            if let Some(first) = held.next() {
                if held.any(|other| other != first) {
                    return Err(format!("processes delivered different round {round}s"));
                }
            }
        }
        let remote = |p: &Process| match &p.ended {
            Some(Err(WireError::Remote { detail })) => Some(detail.clone()),
            _ => None,
        };
        let reasons: Vec<String> = self.procs.iter().filter_map(remote).collect();
        if reasons.windows(2).any(|pair| pair[0] != pair[1]) {
            return Err(format!(
                "processes hold different Abort reasons: {reasons:?}"
            ));
        }
        let coordinator = remote(&self.procs[0]);
        if reasons.iter().any(|r| Some(r) != coordinator.as_ref()) {
            return Err(format!(
                "an Abort reason is not the coordinator's: {reasons:?}"
            ));
        }
        outcome.aborted = coordinator.is_some();
        match &self.hit {
            // Validity: the federation collects what one process would, and
            // ends as the driver failure (if any) dictates.
            None => {
                outcome.validity = true;
                let (rounds, reason) = match setup.failure {
                    None => (setup.rounds as usize, None),
                    Some((rank, round)) => {
                        let party = setup.first_party(rank);
                        let reason = format!("party {party} failed: driver exploded");
                        (round as usize, Some(reason))
                    }
                };
                for (p, process) in self.procs.iter().enumerate() {
                    for (round, held) in process.delivered.iter().enumerate() {
                        if *held != self.expected(round as u32) {
                            return Err(format!("process {p} delivered a wrong round {round}"));
                        }
                    }
                    let ended_as_told = match &reason {
                        None => process.ended == Some(Ok(())),
                        Some(reason) => remote(process).as_ref() == Some(reason),
                    };
                    if process.delivered.len() != rounds || !ended_as_told {
                        return Err(format!(
                            "process {p} delivered {} rounds and ended {:?} in a fault-free run",
                            process.delivered.len(),
                            process.ended
                        ));
                    }
                }
            }
            // Attribution: a fault on rank r's uplink RoundDone names r.
            Some(Hit {
                fault,
                rank: Some(rank),
                round_done: true,
            }) if setup.failure.is_none() => {
                outcome.attribution = true;
                let mut blamed = vec![setup.first_party(*rank)];
                if *fault == Fault::Drop {
                    blamed.push(setup.first_party(setup.cohort_start(*rank)));
                }
                let named = |party: &usize| {
                    coordinator
                        .as_ref()
                        .is_some_and(|r| r.starts_with(&format!("party {party} failed: ")))
                };
                let outlived = *fault == Fault::Duplicate && self.procs[0].ended == Some(Ok(()));
                if !blamed.iter().any(named) && !outlived {
                    return Err(format!(
                        "a {fault:?} on rank {rank}'s uplink ended the coordinator with {:?}, \
                         not an Abort naming party {}",
                        self.procs[0].ended, blamed[0]
                    ));
                }
            }
            Some(_) => {}
        }
        Ok(outcome)
    }
}

/// A frame of the wrong round, or of the wrong kind.
fn mangle(frame: NodeFrame, fault: Fault) -> NodeFrame {
    match (fault, frame) {
        (Fault::WrongRound, NodeFrame::RoundDone(mut share)) => {
            share.round += 7;
            NodeFrame::RoundDone(share)
        }
        (Fault::WrongRound, NodeFrame::Collection(mut collection)) => {
            collection.round += 7;
            NodeFrame::Collection(collection)
        }
        (_, NodeFrame::Hello) => NodeFrame::JoinCohort { rank: 0 },
        _ => NodeFrame::Hello,
    }
}

#[test]
fn every_seed_terminates_agrees_is_valid_and_attributes_faults() {
    let (mut valid, mut attributed, mut aborted) = (0, 0, 0);
    for seed in 0..4_000u64 {
        let outcome = std::panic::catch_unwind(|| check(seed))
            .unwrap_or_else(|_| Err("the run panicked".to_string()))
            .unwrap_or_else(|err| panic!("seed {seed}: {err}\nreplay: node::sim::check({seed})"));
        valid += usize::from(outcome.validity);
        attributed += usize::from(outcome.attribution);
        aborted += usize::from(outcome.aborted);
    }
    // The seeds must actually exercise each property.
    assert!(valid >= 800, "only {valid} fault-free seeds");
    assert!(
        attributed >= 400,
        "only {attributed} attributed uplink faults"
    );
    assert!(aborted >= 1_200, "only {aborted} seeds ended in an Abort");
}
