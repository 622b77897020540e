//! Wire-format integration tests for the federated protocol types:
//! randomised round trips, and the consistency check pinning the
//! `size_bits` cost model to the real encoded length so `CommTracker`
//! uplink accounting cannot silently drift from the wire format.

use fedhh_federated::{
    AdversaryModel, CandidateReport, FaultPlan, FlipMode, MergedSupports, ProtocolConfig,
    PruneCandidates, PruneDictionary, QuorumPolicy, RoundMessage, RoundPayload, ScenarioPlan,
    Topology, PAIR_BITS,
};
use fedhh_fo::FoKind;
use fedhh_wire::{crc32, from_bytes, read_frame, to_bytes, write_frame, WireError, WIRE_SCHEMA};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Cursor;

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

fn random_report(rng: &mut StdRng) -> CandidateReport {
    let pairs = rng.gen_range(0usize..20);
    CandidateReport {
        party: format!("party-{}", rng.gen_range(0usize..10)),
        level: rng.gen_range(1u32..25) as u8,
        candidates: (0..pairs)
            // 48-bit prefixes with arbitrary f64 count bit patterns.
            .map(|_| (rng.gen::<u64>() >> 16, f64::from_bits(rng.gen())))
            .collect(),
        users: rng.gen_range(0usize..100_000),
    }
}

fn random_dictionary(rng: &mut StdRng) -> PruneDictionary {
    let mut dictionary = PruneDictionary::default();
    for _ in 0..rng.gen_range(0usize..5) {
        let level = rng.gen_range(1u32..25) as u8;
        let infrequent = (0..rng.gen_range(0usize..8))
            .map(|_| rng.gen::<u64>() >> 16)
            .collect();
        let frequent = (0..rng.gen_range(0usize..8))
            .map(|_| (rng.gen::<u64>() >> 16, rng.gen::<f64>()))
            .collect();
        dictionary.insert(
            level,
            PruneCandidates {
                infrequent,
                frequent,
            },
        );
    }
    dictionary
}

fn random_config(rng: &mut StdRng) -> ProtocolConfig {
    let max_bits = rng.gen_range(8u32..=48) as u8;
    ProtocolConfig {
        k: rng.gen_range(1usize..100),
        epsilon: rng.gen::<f64>() * 8.0,
        fo: *[FoKind::Grr, FoKind::Oue, FoKind::Olh]
            .get(rng.gen_range(0usize..3))
            .unwrap(),
        max_bits,
        granularity: rng.gen_range(1u32..=max_bits as u32) as u8,
        shared_ratio: rng.gen::<f64>(),
        phase1_user_fraction: rng.gen::<f64>() * 0.99,
        dividing_ratio: rng.gen::<f64>() * 0.49,
        seed: rng.gen(),
        topology: match rng.gen_range(0usize..3) {
            0 => Topology::Flat,
            1 => Topology::Tree {
                fanout: rng.gen_range(2usize..32),
                depth: 1,
            },
            _ => Topology::Tree {
                fanout: rng.gen_range(2usize..8),
                depth: rng.gen_range(1usize..=4),
            },
        },
        quorum: QuorumPolicy {
            fraction: rng.gen::<f64>() * 0.99 + 0.01,
            seed: rng.gen(),
        },
    }
}

fn random_merged(rng: &mut StdRng) -> MergedSupports {
    let mut from = 0usize;
    let parts = (0..rng.gen_range(1usize..6))
        .map(|_| {
            from += rng.gen_range(1usize..5);
            (from, random_report(rng))
        })
        .collect();
    MergedSupports { parts }
}

#[test]
fn random_reports_round_trip_bit_exactly() {
    let mut rng = rng(11);
    for _ in 0..300 {
        let report = random_report(&mut rng);
        let back: CandidateReport = from_bytes(&to_bytes(&report)).unwrap();
        assert_eq!(back.party, report.party);
        assert_eq!(back.level, report.level);
        assert_eq!(back.users, report.users);
        assert_eq!(back.candidates.len(), report.candidates.len());
        for ((v1, c1), (v2, c2)) in report.candidates.iter().zip(&back.candidates) {
            assert_eq!(v1, v2);
            assert_eq!(c1.to_bits(), c2.to_bits(), "count bit pattern changed");
        }
    }
}

#[test]
fn random_dictionaries_round_trip() {
    let mut rng = rng(12);
    for _ in 0..300 {
        let dictionary = random_dictionary(&mut rng);
        assert_eq!(
            from_bytes::<PruneDictionary>(&to_bytes(&dictionary)).unwrap(),
            dictionary
        );
    }
}

#[test]
fn random_configs_round_trip() {
    let mut rng = rng(13);
    for _ in 0..300 {
        let config = random_config(&mut rng);
        assert_eq!(
            from_bytes::<ProtocolConfig>(&to_bytes(&config)).unwrap(),
            config
        );
    }
}

#[test]
fn merged_supports_round_trip_bit_exactly() {
    let mut rng = rng(21);
    for _ in 0..200 {
        let merged = random_merged(&mut rng);
        let back: MergedSupports = from_bytes(&to_bytes(&merged)).unwrap();
        assert_eq!(back.parts.len(), merged.parts.len());
        for ((from1, r1), (from2, r2)) in merged.parts.iter().zip(&back.parts) {
            assert_eq!(from1, from2);
            assert_eq!(r1.party, r2.party);
            assert_eq!(r1.level, r2.level);
            assert_eq!(r1.users, r2.users);
            for ((v1, c1), (v2, c2)) in r1.candidates.iter().zip(&r2.candidates) {
                assert_eq!(v1, v2);
                assert_eq!(c1.to_bits(), c2.to_bits(), "count bit pattern changed");
            }
        }
        // The payload variant round-trips too.
        let payload = RoundPayload::MergedSupports(merged);
        let back: RoundPayload = from_bytes(&to_bytes(&payload)).unwrap();
        assert!(matches!(back, RoundPayload::MergedSupports(_)));
    }
}

/// Every strict prefix of a tree-topology handshake payload is a typed
/// `WireError` — never a panic, never a flat-star config decoded from a
/// payload cut before the topology, and never a tree config invented from
/// a truncated suffix.
#[test]
fn topology_handshake_payload_cuts_are_typed_errors() {
    let mut rng = rng(22);
    for _ in 0..50 {
        let mut config = random_config(&mut rng);
        config.topology = Topology::Tree {
            fanout: rng.gen_range(2usize..16),
            depth: rng.gen_range(1usize..=2),
        };
        let bytes = to_bytes(&config);
        for cut in 0..bytes.len() {
            let err = from_bytes::<ProtocolConfig>(&bytes[..cut])
                .expect_err("a truncated config must not decode");
            let _ = err.to_string(); // typed, printable, no panic
        }
        // Bit flips anywhere in the payload must never panic either.
        let mut corrupt = bytes.clone();
        let bit = rng.gen_range(0usize..corrupt.len() * 8);
        corrupt[bit / 8] ^= 1 << (bit % 8);
        let _ = from_bytes::<ProtocolConfig>(&corrupt);
    }
}

/// Back-compat pin: a pre-topology peer speaks wire schema `WIRE_SCHEMA - 1`,
/// and its frames must fail the handshake with a typed `SchemaMismatch` — not
/// decode to garbage, not hang.  Forge a frame with a consistent crc but the
/// previous schema byte so the failure is attributable to the schema alone.
#[test]
fn pre_topology_schema_frames_fail_with_schema_mismatch() {
    let legacy = WIRE_SCHEMA - 1;
    let payload = to_bytes(&ProtocolConfig::test_default());
    let length = 1 + payload.len() + 4;
    let mut forged = Vec::new();
    forged.extend_from_slice(&(length as u32).to_le_bytes());
    forged.push(legacy);
    forged.extend_from_slice(&payload);
    let mut crc_input = vec![legacy];
    crc_input.extend_from_slice(&payload);
    forged.extend_from_slice(&crc32(&crc_input).to_le_bytes());
    let err = read_frame::<_, ProtocolConfig>(&mut Cursor::new(&forged)).unwrap_err();
    assert_eq!(
        err,
        WireError::SchemaMismatch {
            found: legacy,
            supported: WIRE_SCHEMA
        }
    );
    // Sanity: the same payload framed by the current writer reads back.
    let mut current = Vec::new();
    write_frame(&mut current, &ProtocolConfig::test_default()).unwrap();
    let back: ProtocolConfig = read_frame(&mut Cursor::new(&current)).unwrap();
    assert_eq!(back, ProtocolConfig::test_default());
}

#[test]
fn random_fault_plans_round_trip() {
    let mut rng = rng(14);
    for _ in 0..100 {
        let plan = FaultPlan {
            dropout_fraction: rng.gen(),
            stragglers: rng.gen(),
            seed: rng.gen(),
        };
        assert_eq!(from_bytes::<FaultPlan>(&to_bytes(&plan)).unwrap(), plan);
    }
}

fn random_adversary(rng: &mut StdRng) -> AdversaryModel {
    match rng.gen_range(0usize..5) {
        0 => AdversaryModel::None,
        1 => AdversaryModel::ReportFlip {
            fraction: rng.gen(),
            mode: if rng.gen::<bool>() {
                FlipMode::Uniform
            } else {
                FlipMode::Inverted
            },
        },
        2 => AdversaryModel::InputPoison {
            fraction: rng.gen(),
            target_prefix: rng.gen(),
            prefix_len: rng.gen_range(0u32..=64) as u8,
        },
        3 => AdversaryModel::Sybil {
            fraction: rng.gen(),
            target_item: rng.gen(),
        },
        _ => AdversaryModel::CorruptFrames {
            fraction: rng.gen(),
        },
    }
}

#[test]
fn random_scenario_plans_round_trip_bit_exactly() {
    let mut rng = rng(17);
    for _ in 0..200 {
        let plan = ScenarioPlan {
            faults: FaultPlan {
                dropout_fraction: rng.gen(),
                stragglers: rng.gen(),
                seed: rng.gen(),
            },
            adversary: random_adversary(&mut rng),
            seed: rng.gen(),
        };
        assert_eq!(from_bytes::<ScenarioPlan>(&to_bytes(&plan)).unwrap(), plan);
    }
}

#[test]
fn truncated_or_corrupt_payloads_are_typed_errors_never_panics() {
    let mut rng = rng(15);
    for _ in 0..50 {
        let payload = match rng.gen_range(0usize..3) {
            0 => RoundPayload::Report(random_report(&mut rng)),
            1 => RoundPayload::Dictionary(random_dictionary(&mut rng)),
            _ => RoundPayload::MergedSupports(random_merged(&mut rng)),
        };
        let bytes = to_bytes(&payload);
        for cut in 0..bytes.len() {
            assert!(from_bytes::<RoundPayload>(&bytes[..cut]).is_err());
        }
        let mut corrupt = bytes.clone();
        let bit = rng.gen_range(0usize..corrupt.len() * 8);
        corrupt[bit / 8] ^= 1 << (bit % 8);
        // Either a typed error or a (different) value — never a panic.
        let _ = from_bytes::<RoundPayload>(&corrupt);
    }
}

/// The `size_bits` ↔ encoded-length consistency contract: the cost model
/// charges `PAIR_BITS` (96) per candidate pair; the wire encodes a pair as
/// a fixed 16 bytes (128 bits).  The per-pair padding tolerance of 48 bits
/// plus a 512-bit envelope allowance (party name, level, users, lengths,
/// message framing) must absorb the difference for every payload variant —
/// if someone changes the codec or the cost model so that the accounted
/// bits no longer track the real wire format, this test fails.
#[test]
fn size_bits_tracks_the_real_wire_length_for_every_payload_variant() {
    const PER_PAIR_TOLERANCE_BITS: i64 = 48;
    const ENVELOPE_TOLERANCE_BITS: i64 = 512;
    let mut rng = rng(16);
    let mut seen_report = false;
    let mut seen_dictionary = false;
    for _ in 0..200 {
        let payload = if rng.gen::<bool>() {
            seen_report = true;
            RoundPayload::Report(random_report(&mut rng))
        } else {
            seen_dictionary = true;
            RoundPayload::Dictionary(random_dictionary(&mut rng))
        };
        let size_bits = payload.size_bits() as i64;
        let pairs = size_bits / PAIR_BITS as i64;
        let message = RoundMessage {
            from: rng.gen_range(0usize..8),
            party: format!("party-{}", rng.gen_range(0usize..8)),
            round: rng.gen_range(0u32..64),
            payload,
        };
        let wire_bits = 8 * to_bytes(&message).len() as i64;
        let tolerance = pairs * PER_PAIR_TOLERANCE_BITS + ENVELOPE_TOLERANCE_BITS;
        assert!(
            (wire_bits - size_bits).abs() <= tolerance,
            "size_bits {size_bits} vs wire {wire_bits} bits exceeds the \
             {tolerance}-bit padding tolerance ({pairs} pairs)"
        );
    }
    assert!(
        seen_report && seen_dictionary,
        "both variants must be covered"
    );
}

/// `MergedSupports::size_bits` is the sum of its constituent reports'
/// `size_bits`, so the cost model charges a tree run exactly what the flat
/// run would have paid for the same reports.  The wire adds one envelope
/// (party name, level, users, `from`, lengths) per constituent, so the
/// tolerance here scales per part, not just per message.
#[test]
fn merged_supports_size_bits_tracks_the_wire_length() {
    const PER_PAIR_TOLERANCE_BITS: i64 = 48;
    const PER_PART_TOLERANCE_BITS: i64 = 512;
    let mut rng = rng(23);
    for _ in 0..200 {
        let merged = random_merged(&mut rng);
        let parts = merged.parts.len() as i64;
        let pairs: i64 = merged
            .parts
            .iter()
            .map(|(_, r)| r.candidates.len() as i64)
            .sum();
        let size_bits = merged.size_bits() as i64;
        let summed: usize = merged.parts.iter().map(|(_, r)| r.size_bits()).sum();
        assert_eq!(size_bits, summed as i64, "size_bits must be lossless");
        let wire_bits = 8 * to_bytes(&RoundPayload::MergedSupports(merged)).len() as i64;
        let tolerance = pairs * PER_PAIR_TOLERANCE_BITS + (parts + 1) * PER_PART_TOLERANCE_BITS;
        assert!(
            (wire_bits - size_bits).abs() <= tolerance,
            "size_bits {size_bits} vs wire {wire_bits} bits exceeds the \
             {tolerance}-bit tolerance ({parts} parts, {pairs} pairs)"
        );
    }
}
