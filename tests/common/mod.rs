//! Fixtures shared by several integration-test files.

// Each test file compiles its own copy of this module and uses a subset.
#![allow(dead_code)]

use fedhh_datasets::{FederatedDataset, PartyData};
use fedhh_mechanisms::MechanismOutput;
use fedhh_trie::ItemEncoder;

/// A federation whose first party has more users than eight levels of the
/// report pipeline's 16 384-user chunk: every mechanism's level groups on
/// that party cross a chunk boundary, which no test-scale dataset does.
pub fn chunk_crossing_dataset() -> FederatedDataset {
    let encoder = ItemEncoder::new(16, 3);
    let party = |name: &str, users: u64, shift: u64| {
        let items: Vec<u64> = (0..users)
            .map(|u| encoder.encode((u % 89) % (1 + (u + shift) % 17)))
            .collect();
        PartyData::new(name, items, 16)
    };
    FederatedDataset::new(
        "chunk-crossing",
        vec![party("big", 200_000, 0), party("small", 4_000, 7)],
        16,
        encoder,
    )
}

/// FNV-1a over every deterministic field of an output (the wall clock is
/// excluded); two runs agree on this digest iff they agree bit-for-bit.
pub fn digest(output: &MechanismOutput) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for &hh in &output.heavy_hitters {
        eat(hh);
    }
    let mut counts: Vec<(u64, u64)> = output
        .counts
        .iter()
        .map(|(v, c)| (*v, c.to_bits()))
        .collect();
    counts.sort_unstable();
    for (value, count) in counts {
        eat(value);
        eat(count);
    }
    eat(output.comm.total_uplink_bits() as u64);
    eat(output.comm.total_downlink_bits() as u64);
    eat(output.comm.total_local_report_bits() as u64);
    h
}

/// Collapses an output into a comparable fingerprint (everything except the
/// wall-clock duration, which legitimately varies between runs).
pub fn fingerprint(output: &MechanismOutput) -> (Vec<u64>, Vec<(u64, u64)>, usize, usize, usize) {
    let mut counts: Vec<(u64, u64)> = output
        .counts
        .iter()
        .map(|(v, c)| (*v, c.to_bits()))
        .collect();
    counts.sort_unstable();
    (
        output.heavy_hitters.clone(),
        counts,
        output.comm.total_uplink_bits(),
        output.comm.total_downlink_bits(),
        output.comm.total_local_report_bits(),
    )
}
