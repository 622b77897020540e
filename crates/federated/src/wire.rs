//! `fedhh-wire` encodings of the federated protocol types.
//!
//! Every type a round exchange ships between processes — round messages and
//! their payloads, party events, collected rounds, the protocol
//! configuration, the fault plan, the scenario plan and the node plane's
//! control frames — implements
//! [`Encode`]/[`Decode`] here.
//! Two representation rules matter:
//!
//! * **Floats are exact.**  Estimated counts/frequencies travel as their
//!   8-byte bit patterns, so a multi-process run aggregates *exactly* the
//!   numbers an in-process run would and stays bit-identical.
//! * **Candidate pairs are fixed-width.**  A `(value, count)` pair costs
//!   16 bytes on the wire regardless of magnitude, which keeps the real
//!   wire cost of a [`CandidateReport`]/[`PruneDictionary`] aligned with
//!   the `PAIR_BITS` cost model that [`crate::CommTracker`] charges (the
//!   `size_bits` ↔ encoded-length consistency test pins this down).
//!
//! Enum variants carry a one-byte tag; unknown tags decode to
//! [`WireError::InvalidValue`], never a panic.

use crate::config::ProtocolConfig;
use crate::fault::FaultPlan;
use crate::message::{
    CandidateReport, MergedSupports, PruneCandidates, PruneDictionary, RoundMessage, RoundPayload,
};
use crate::node::protocol::{NodeFrame, Share};
use crate::node::NodeWelcome;
use crate::observer::{LevelEstimated, PruningDecision};
use crate::scenario::{AdversaryModel, FlipMode, ScenarioPlan};
use crate::session::{PartyEvent, RoundCollection};
use crate::topology::{QuorumPolicy, Topology};
use fedhh_fo::FoKind;
use fedhh_wire::{prealloc, put_f64, put_u64_fixed, put_varint, Decode, Encode, Reader, WireError};

/// Encodes a candidate list as fixed-width `(value, count)` pairs.
fn put_pairs(out: &mut Vec<u8>, pairs: &[(u64, f64)]) {
    put_varint(out, pairs.len() as u64);
    for (value, count) in pairs {
        put_u64_fixed(out, *value);
        put_f64(out, *count);
    }
}

/// Decodes a fixed-width `(value, count)` pair list.
fn take_pairs(reader: &mut Reader<'_>) -> Result<Vec<(u64, f64)>, WireError> {
    let len = reader.take_len()?;
    let mut pairs = Vec::with_capacity(prealloc(len, reader.remaining(), 16));
    for _ in 0..len {
        let value = reader.take_u64_fixed()?;
        let count = reader.take_f64()?;
        pairs.push((value, count));
    }
    Ok(pairs)
}

/// Encodes candidate values (no counts) as fixed-width words.
fn put_values(out: &mut Vec<u8>, values: &[u64]) {
    put_varint(out, values.len() as u64);
    for value in values {
        put_u64_fixed(out, *value);
    }
}

/// Decodes a fixed-width value list.
fn take_values(reader: &mut Reader<'_>) -> Result<Vec<u64>, WireError> {
    let len = reader.take_len()?;
    let mut values = Vec::with_capacity(prealloc(len, reader.remaining(), 8));
    for _ in 0..len {
        values.push(reader.take_u64_fixed()?);
    }
    Ok(values)
}

impl Encode for CandidateReport {
    fn encode(&self, out: &mut Vec<u8>) {
        self.party.encode(out);
        self.level.encode(out);
        put_pairs(out, &self.candidates);
        self.users.encode(out);
    }
}

impl Decode for CandidateReport {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(CandidateReport {
            party: String::decode(reader)?,
            level: u8::decode(reader)?,
            candidates: take_pairs(reader)?,
            users: usize::decode(reader)?,
        })
    }
}

impl Encode for PruneCandidates {
    fn encode(&self, out: &mut Vec<u8>) {
        put_values(out, &self.infrequent);
        put_pairs(out, &self.frequent);
    }
}

impl Decode for PruneCandidates {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(PruneCandidates {
            infrequent: take_values(reader)?,
            frequent: take_pairs(reader)?,
        })
    }
}

impl Encode for PruneDictionary {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.levels.len() as u64);
        for (level, candidates) in &self.levels {
            level.encode(out);
            candidates.encode(out);
        }
    }
}

impl Decode for PruneDictionary {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = reader.take_len()?;
        let mut dictionary = PruneDictionary::default();
        for _ in 0..len {
            let level = u8::decode(reader)?;
            dictionary.insert(level, PruneCandidates::decode(reader)?);
        }
        Ok(dictionary)
    }
}

impl Encode for MergedSupports {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.parts.len() as u64);
        for (from, report) in &self.parts {
            from.encode(out);
            report.encode(out);
        }
    }
}

impl Decode for MergedSupports {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = reader.take_len()?;
        // A constituent costs at least its varint sender + report header.
        let mut parts = Vec::with_capacity(prealloc(len, reader.remaining(), 4));
        for _ in 0..len {
            let from = usize::decode(reader)?;
            let report = CandidateReport::decode(reader)?;
            parts.push((from, report));
        }
        Ok(MergedSupports { parts })
    }
}

impl Encode for RoundPayload {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            RoundPayload::Report(report) => {
                out.push(0);
                report.encode(out);
            }
            RoundPayload::Dictionary(dictionary) => {
                out.push(1);
                dictionary.encode(out);
            }
            RoundPayload::MergedSupports(merged) => {
                out.push(2);
                merged.encode(out);
            }
        }
    }
}

impl Decode for RoundPayload {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        match reader.take_u8()? {
            0 => Ok(RoundPayload::Report(CandidateReport::decode(reader)?)),
            1 => Ok(RoundPayload::Dictionary(PruneDictionary::decode(reader)?)),
            2 => Ok(RoundPayload::MergedSupports(MergedSupports::decode(
                reader,
            )?)),
            other => Err(WireError::InvalidValue {
                what: "round payload tag",
                value: other as u64,
            }),
        }
    }
}

impl Encode for RoundMessage {
    fn encode(&self, out: &mut Vec<u8>) {
        self.from.encode(out);
        self.party.encode(out);
        self.round.encode(out);
        self.payload.encode(out);
    }
}

impl Decode for RoundMessage {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(RoundMessage {
            from: usize::decode(reader)?,
            party: String::decode(reader)?,
            round: u32::decode(reader)?,
            payload: RoundPayload::decode(reader)?,
        })
    }
}

impl Encode for LevelEstimated {
    fn encode(&self, out: &mut Vec<u8>) {
        self.party.encode(out);
        self.level.encode(out);
        self.candidates.encode(out);
        self.users.encode(out);
        self.report_bits.encode(out);
        self.uplink_bits.encode(out);
    }
}

impl Decode for LevelEstimated {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(LevelEstimated {
            party: String::decode(reader)?,
            level: u8::decode(reader)?,
            candidates: usize::decode(reader)?,
            users: usize::decode(reader)?,
            report_bits: usize::decode(reader)?,
            uplink_bits: usize::decode(reader)?,
        })
    }
}

impl Encode for PruningDecision {
    fn encode(&self, out: &mut Vec<u8>) {
        self.party.encode(out);
        self.level.encode(out);
        put_values(out, &self.pruned);
        self.gamma.encode(out);
    }
}

impl Decode for PruningDecision {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(PruningDecision {
            party: String::decode(reader)?,
            level: u8::decode(reader)?,
            pruned: take_values(reader)?,
            gamma: f64::decode(reader)?,
        })
    }
}

impl Encode for PartyEvent {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            PartyEvent::Level(event) => {
                out.push(0);
                event.encode(out);
            }
            PartyEvent::Pruning(event) => {
                out.push(1);
                event.encode(out);
            }
            PartyEvent::ValidationReports { party, bits } => {
                out.push(2);
                party.encode(out);
                bits.encode(out);
            }
        }
    }
}

impl Decode for PartyEvent {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        match reader.take_u8()? {
            0 => Ok(PartyEvent::Level(LevelEstimated::decode(reader)?)),
            1 => Ok(PartyEvent::Pruning(PruningDecision::decode(reader)?)),
            2 => Ok(PartyEvent::ValidationReports {
                party: String::decode(reader)?,
                bits: usize::decode(reader)?,
            }),
            other => Err(WireError::InvalidValue {
                what: "party event tag",
                value: other as u64,
            }),
        }
    }
}

impl Encode for RoundCollection {
    fn encode(&self, out: &mut Vec<u8>) {
        self.round.encode(out);
        self.messages.encode(out);
        self.events.encode(out);
    }
}

impl Decode for RoundCollection {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(RoundCollection {
            round: u32::decode(reader)?,
            messages: Vec::decode(reader)?,
            events: Vec::decode(reader)?,
        })
    }
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

impl Encode for NodeFrame {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            NodeFrame::Hello => out.push(0),
            NodeFrame::Welcome { rank, welcome } => {
                out.push(1);
                rank.encode(out);
                welcome.encode(out);
            }
            NodeFrame::RoundDone(share) => {
                out.push(2);
                share.round.encode(out);
                share.messages.encode(out);
                share.events.encode(out);
                share.failure.encode(out);
            }
            NodeFrame::Collection(collection) => {
                out.push(NodeFrame::COLLECTION_TAG);
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
            2 => Ok(NodeFrame::RoundDone(Share {
                round: u32::decode(reader)?,
                messages: Vec::decode(reader)?,
                events: Vec::decode(reader)?,
                failure: Option::decode(reader)?,
            })),
            NodeFrame::COLLECTION_TAG => {
                Ok(NodeFrame::Collection(RoundCollection::decode(reader)?))
            }
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

impl Encode for FaultPlan {
    fn encode(&self, out: &mut Vec<u8>) {
        self.dropout_fraction.encode(out);
        self.stragglers.encode(out);
        put_u64_fixed(out, self.seed);
    }
}

impl Decode for FaultPlan {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(FaultPlan {
            dropout_fraction: f64::decode(reader)?,
            stragglers: bool::decode(reader)?,
            seed: reader.take_u64_fixed()?,
        })
    }
}

impl Encode for AdversaryModel {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            AdversaryModel::None => out.push(0),
            AdversaryModel::ReportFlip { fraction, mode } => {
                out.push(1);
                fraction.encode(out);
                out.push(match mode {
                    FlipMode::Uniform => 0,
                    FlipMode::Inverted => 1,
                });
            }
            AdversaryModel::InputPoison {
                fraction,
                target_prefix,
                prefix_len,
            } => {
                out.push(2);
                fraction.encode(out);
                put_u64_fixed(out, *target_prefix);
                prefix_len.encode(out);
            }
            AdversaryModel::Sybil {
                fraction,
                target_item,
            } => {
                out.push(3);
                fraction.encode(out);
                put_u64_fixed(out, *target_item);
            }
            AdversaryModel::CorruptFrames { fraction } => {
                out.push(4);
                fraction.encode(out);
            }
        }
    }
}

impl Decode for AdversaryModel {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        match reader.take_u8()? {
            0 => Ok(AdversaryModel::None),
            1 => {
                let fraction = f64::decode(reader)?;
                let mode = match reader.take_u8()? {
                    0 => FlipMode::Uniform,
                    1 => FlipMode::Inverted,
                    other => {
                        return Err(WireError::InvalidValue {
                            what: "flip mode",
                            value: other as u64,
                        })
                    }
                };
                Ok(AdversaryModel::ReportFlip { fraction, mode })
            }
            2 => Ok(AdversaryModel::InputPoison {
                fraction: f64::decode(reader)?,
                target_prefix: reader.take_u64_fixed()?,
                prefix_len: u8::decode(reader)?,
            }),
            3 => Ok(AdversaryModel::Sybil {
                fraction: f64::decode(reader)?,
                target_item: reader.take_u64_fixed()?,
            }),
            4 => Ok(AdversaryModel::CorruptFrames {
                fraction: f64::decode(reader)?,
            }),
            other => Err(WireError::InvalidValue {
                what: "adversary model tag",
                value: other as u64,
            }),
        }
    }
}

impl Encode for ScenarioPlan {
    fn encode(&self, out: &mut Vec<u8>) {
        self.faults.encode(out);
        self.adversary.encode(out);
        put_u64_fixed(out, self.seed);
    }
}

impl Decode for ScenarioPlan {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ScenarioPlan {
            faults: FaultPlan::decode(reader)?,
            adversary: AdversaryModel::decode(reader)?,
            seed: reader.take_u64_fixed()?,
        })
    }
}

/// Stable one-byte discriminants for [`FoKind`] (part of wire schema 1).
fn fo_kind_to_u8(kind: FoKind) -> u8 {
    match kind {
        FoKind::Grr => 0,
        FoKind::Oue => 1,
        FoKind::Olh => 2,
    }
}

fn fo_kind_from_u8(raw: u8) -> Result<FoKind, WireError> {
    match raw {
        0 => Ok(FoKind::Grr),
        1 => Ok(FoKind::Oue),
        2 => Ok(FoKind::Olh),
        other => Err(WireError::InvalidValue {
            what: "frequency oracle kind",
            value: other as u64,
        }),
    }
}

/// Stable one-byte discriminants for [`Topology`] (wire schema 5);
/// `Tree` is followed by its fanout and depth as varints.
fn encode_topology(topology: Topology, out: &mut Vec<u8>) {
    match topology {
        Topology::Flat => out.push(0),
        Topology::Tree { fanout, depth } => {
            out.push(1);
            fanout.encode(out);
            depth.encode(out);
        }
    }
}

fn decode_topology(reader: &mut Reader<'_>) -> Result<Topology, WireError> {
    match reader.take_u8()? {
        0 => Ok(Topology::Flat),
        1 => Ok(Topology::Tree {
            fanout: usize::decode(reader)?,
            depth: usize::decode(reader)?,
        }),
        other => Err(WireError::InvalidValue {
            what: "topology tag",
            value: other as u64,
        }),
    }
}

impl Encode for QuorumPolicy {
    fn encode(&self, out: &mut Vec<u8>) {
        self.fraction.encode(out);
        put_u64_fixed(out, self.seed);
    }
}

impl Decode for QuorumPolicy {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(QuorumPolicy {
            fraction: f64::decode(reader)?,
            seed: reader.take_u64_fixed()?,
        })
    }
}

impl Encode for ProtocolConfig {
    fn encode(&self, out: &mut Vec<u8>) {
        self.k.encode(out);
        self.epsilon.encode(out);
        out.push(fo_kind_to_u8(self.fo));
        self.max_bits.encode(out);
        self.granularity.encode(out);
        self.shared_ratio.encode(out);
        self.phase1_user_fraction.encode(out);
        self.dividing_ratio.encode(out);
        put_u64_fixed(out, self.seed);
        encode_topology(self.topology, out);
        self.quorum.encode(out);
    }
}

impl Decode for ProtocolConfig {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ProtocolConfig {
            k: usize::decode(reader)?,
            epsilon: f64::decode(reader)?,
            fo: fo_kind_from_u8(reader.take_u8()?)?,
            max_bits: u8::decode(reader)?,
            granularity: u8::decode(reader)?,
            shared_ratio: f64::decode(reader)?,
            phase1_user_fraction: f64::decode(reader)?,
            dividing_ratio: f64::decode(reader)?,
            seed: reader.take_u64_fixed()?,
            topology: decode_topology(reader)?,
            quorum: QuorumPolicy::decode(reader)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedhh_wire::{from_bytes, to_bytes};

    fn round_trip<T: Encode + Decode + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = to_bytes(&value);
        assert_eq!(from_bytes::<T>(&bytes).unwrap(), value);
    }

    fn report() -> CandidateReport {
        CandidateReport {
            party: "party-7".to_string(),
            level: 5,
            candidates: vec![(0xFFFF_FFFF_FFFF, 12.5), (3, -0.25)],
            users: 4321,
        }
    }

    #[test]
    fn forged_sequence_lengths_are_typed_errors() {
        // A length of u64::MAX / 2 over a one-byte body must fail with
        // truncation in every length-prefixed decoder, not abort while
        // preallocating.
        let mut forged = Vec::new();
        put_varint(&mut forged, u64::MAX / 2);
        forged.push(0);
        let truncated =
            |result: Result<(), WireError>| matches!(result, Err(WireError::Truncated { .. }));
        assert!(truncated(take_pairs(&mut Reader::new(&forged)).map(drop)));
        assert!(truncated(take_values(&mut Reader::new(&forged)).map(drop)));
        assert!(truncated(from_bytes::<MergedSupports>(&forged).map(drop)));
    }

    #[test]
    fn protocol_types_round_trip() {
        round_trip(report());
        let mut dictionary = PruneDictionary::default();
        dictionary.insert(
            3,
            PruneCandidates {
                infrequent: vec![9, 10],
                frequent: vec![(1, 0.5)],
            },
        );
        round_trip(dictionary.clone());
        round_trip(RoundPayload::Report(report()));
        round_trip(RoundPayload::Dictionary(dictionary));
        round_trip(RoundPayload::MergedSupports(MergedSupports {
            parts: vec![(0, report()), (3, report())],
        }));
        round_trip(MergedSupports { parts: Vec::new() });
        round_trip(RoundMessage {
            from: 2,
            party: "party-2".to_string(),
            round: 9,
            payload: RoundPayload::Report(report()),
        });
        round_trip(PartyEvent::Level(LevelEstimated {
            party: "p".to_string(),
            level: 1,
            candidates: 8,
            users: 100,
            report_bits: 1600,
            uplink_bits: 96,
        }));
        round_trip(PartyEvent::Pruning(PruningDecision {
            party: "p".to_string(),
            level: 2,
            pruned: vec![1, 2, 3],
            gamma: 0.75,
        }));
        round_trip(PartyEvent::ValidationReports {
            party: "p".to_string(),
            bits: 320,
        });
        round_trip(RoundCollection {
            round: 3,
            messages: vec![RoundMessage {
                from: 0,
                party: "a".to_string(),
                round: 3,
                payload: RoundPayload::Report(report()),
            }],
            events: vec![(
                0,
                vec![PartyEvent::ValidationReports {
                    party: "a".to_string(),
                    bits: 8,
                }],
            )],
        });
        round_trip(FaultPlan {
            dropout_fraction: 0.25,
            stragglers: true,
            seed: u64::MAX,
        });
        for adversary in [
            AdversaryModel::None,
            AdversaryModel::ReportFlip {
                fraction: 0.25,
                mode: FlipMode::Uniform,
            },
            AdversaryModel::ReportFlip {
                fraction: 1.0,
                mode: FlipMode::Inverted,
            },
            AdversaryModel::InputPoison {
                fraction: 0.5,
                target_prefix: 0b1011,
                prefix_len: 4,
            },
            AdversaryModel::Sybil {
                fraction: 0.125,
                target_item: u64::MAX,
            },
            AdversaryModel::CorruptFrames { fraction: 0.01 },
        ] {
            round_trip(adversary);
            round_trip(ScenarioPlan {
                faults: FaultPlan::dropout(0.5, 3),
                adversary,
                seed: 77,
            });
        }
        round_trip(ProtocolConfig::default());
        round_trip(ProtocolConfig {
            fo: FoKind::Olh,
            ..ProtocolConfig::test_default()
        });
    }

    #[test]
    fn tree_configs_round_trip() {
        round_trip(ProtocolConfig {
            topology: Topology::Tree {
                fanout: 4,
                depth: 2,
            },
            quorum: QuorumPolicy {
                fraction: 0.75,
                seed: u64::MAX,
            },
            ..ProtocolConfig::default()
        });
        round_trip(ProtocolConfig {
            quorum: QuorumPolicy {
                fraction: 0.5,
                seed: 3,
            },
            ..ProtocolConfig::test_default()
        });
    }

    #[test]
    fn unknown_topology_tags_are_typed_errors() {
        let config = ProtocolConfig::default();
        let mut bytes = to_bytes(&config);
        // The topology tag sits 17 bytes from the end (1 tag + 16 quorum).
        let at = bytes.len() - 17;
        bytes[at] = 9;
        assert!(matches!(
            from_bytes::<ProtocolConfig>(&bytes),
            Err(WireError::InvalidValue {
                what: "topology tag",
                ..
            })
        ));
    }

    #[test]
    fn counts_survive_the_wire_bit_exactly() {
        let report = CandidateReport {
            party: "p".to_string(),
            level: 1,
            candidates: vec![(1, f64::from_bits(0x3FF0_0000_0000_0001)), (2, -0.0)],
            users: 1,
        };
        let back: CandidateReport = from_bytes(&to_bytes(&report)).unwrap();
        for ((_, a), (_, b)) in report.candidates.iter().zip(&back.candidates) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn unknown_tags_are_typed_errors() {
        let mut bytes = to_bytes(&RoundPayload::Report(report()));
        bytes[0] = 7;
        assert!(matches!(
            from_bytes::<RoundPayload>(&bytes),
            Err(WireError::InvalidValue {
                what: "round payload tag",
                ..
            })
        ));
        let mut config = to_bytes(&ProtocolConfig::default());
        // The FO kind byte sits after the varint k and the 8-byte epsilon.
        let fo_offset = to_bytes(&ProtocolConfig::default().k).len() + 8;
        config[fo_offset] = 9;
        assert!(matches!(
            from_bytes::<ProtocolConfig>(&config),
            Err(WireError::InvalidValue {
                what: "frequency oracle kind",
                ..
            })
        ));
    }

    #[test]
    fn unknown_adversary_tags_are_typed_errors() {
        let plan = ScenarioPlan {
            faults: FaultPlan::none(),
            adversary: AdversaryModel::CorruptFrames { fraction: 0.5 },
            seed: 1,
        };
        let mut bytes = to_bytes(&plan);
        // The adversary tag follows the 17-byte fault plan.
        bytes[17] = 9;
        assert!(matches!(
            from_bytes::<ScenarioPlan>(&bytes),
            Err(WireError::InvalidValue {
                what: "adversary model tag",
                ..
            })
        ));
    }

    #[test]
    fn truncated_scenarios_never_panic() {
        let bytes = to_bytes(&ScenarioPlan {
            faults: FaultPlan::dropout(0.5, 3),
            adversary: AdversaryModel::Sybil {
                fraction: 0.25,
                target_item: 9,
            },
            seed: 4,
        });
        // Every strict prefix — the 17-byte bare fault plan included —
        // must fail cleanly.
        for cut in 0..bytes.len() {
            assert!(
                from_bytes::<ScenarioPlan>(&bytes[..cut]).is_err(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn truncated_messages_never_panic() {
        let bytes = to_bytes(&RoundMessage {
            from: 1,
            party: "p1".to_string(),
            round: 2,
            payload: RoundPayload::Report(report()),
        });
        for cut in 0..bytes.len() {
            assert!(from_bytes::<RoundMessage>(&bytes[..cut]).is_err());
        }
    }
}
