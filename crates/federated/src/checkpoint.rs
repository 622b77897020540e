//! Crash-resumable checkpoints for the epoch service.
//!
//! A checkpoint is one `fedhh-wire` frame on disk:
//!
//! ```text
//! [ length: u32 ][ wire schema: u8 ][ ckpt schema: u8 ][ state ... ][ crc32 ]
//! ```
//!
//! The outer layout, CRC and wire-schema check are exactly
//! [`fedhh_wire::frame`]'s; the payload leads with its own
//! [`CHECKPOINT_SCHEMA`] byte so the checkpoint format can evolve
//! independently of the socket protocol.  Loading a truncated, corrupted
//! or foreign-schema file yields a typed [`WireError`] — never a panic —
//! and writing goes through a temp file + atomic rename + fsync, so a
//! crash mid-write leaves the previous checkpoint intact.
//!
//! What the checkpoint captures (see [`EpochState`]): the next epoch
//! index, the per-user budget ledger (bit-exact `f64` spends), the warm
//! set (the previous epoch's trie survivors) and every completed epoch's
//! record (heavy hitters, count-estimate bit patterns, communication and
//! enrollment tallies).  RNG positions need no explicit serialization:
//! every stream of randomness in an epoch run is re-derived from the spec
//! seeds plus the epoch index, so the epoch index *is* the RNG position.

use crate::epoch::{BudgetLedger, EpochRecord, EpochState, WarmSet};
use fedhh_wire::{read_frame_bytes, write_frame, Decode, Encode, Reader, WireError};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write as _};
use std::path::Path;

/// The checkpoint payload schema this build reads and writes.
pub const CHECKPOINT_SCHEMA: u8 = 1;

/// A complete, self-describing service checkpoint: the executor spec it
/// belongs to plus the cross-epoch state.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Encoded executor specification (opaque to this crate); compared on
    /// resume so a checkpoint can never silently continue a different run.
    pub spec: Vec<u8>,
    /// The cross-epoch service state.
    pub state: EpochState,
}

impl Encode for WarmSet {
    fn encode(&self, out: &mut Vec<u8>) {
        self.values.encode(out);
    }
}

impl Decode for WarmSet {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            values: Vec::<u64>::decode(reader)?,
        })
    }
}

impl Encode for BudgetLedger {
    fn encode(&self, out: &mut Vec<u8>) {
        // Same layout as Vec<Vec<f64>>, without cloning the ledgers.
        fedhh_wire::put_varint(out, self.spent().len() as u64);
        for ledger in self.spent() {
            ledger.encode(out);
        }
    }
}

impl Decode for BudgetLedger {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        let spent = Vec::<Vec<f64>>::decode(reader)?;
        let mut ledger = BudgetLedger::new();
        ledger.restore(spent);
        Ok(ledger)
    }
}

impl Encode for EpochRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        self.epoch.encode(out);
        self.heavy_hitters.encode(out);
        self.count_bits.encode(out);
        self.uplink_bits.encode(out);
        self.downlink_bits.encode(out);
        self.enrolled_users.encode(out);
        self.refused_users.encode(out);
    }
}

impl Decode for EpochRecord {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            epoch: u32::decode(reader)?,
            heavy_hitters: Vec::<u64>::decode(reader)?,
            count_bits: Vec::<(u64, u64)>::decode(reader)?,
            uplink_bits: u64::decode(reader)?,
            downlink_bits: u64::decode(reader)?,
            enrolled_users: u64::decode(reader)?,
            refused_users: u64::decode(reader)?,
        })
    }
}

impl Encode for EpochState {
    fn encode(&self, out: &mut Vec<u8>) {
        self.next_epoch.encode(out);
        self.ledger.encode(out);
        self.warm.encode(out);
        self.records.encode(out);
    }
}

impl Decode for EpochState {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            next_epoch: u32::decode(reader)?,
            ledger: BudgetLedger::decode(reader)?,
            warm: Option::<WarmSet>::decode(reader)?,
            records: Vec::<EpochRecord>::decode(reader)?,
        })
    }
}

impl Encode for Checkpoint {
    fn encode(&self, out: &mut Vec<u8>) {
        self.spec.encode(out);
        self.state.encode(out);
    }
}

impl Decode for Checkpoint {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            spec: Vec::<u8>::decode(reader)?,
            state: EpochState::decode(reader)?,
        })
    }
}

/// A checkpoint as a frame payload: the [`CHECKPOINT_SCHEMA`] byte, then
/// the checkpoint itself.
struct Payload<'a>(&'a Checkpoint);

impl Encode for Payload<'_> {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(CHECKPOINT_SCHEMA);
        self.0.encode(out);
    }
}

/// Atomically writes `checkpoint` to `path`: encode into the frame → temp
/// file → fsync → rename.  A crash at any point leaves either the previous
/// checkpoint or the new one, never a torn file.
pub fn save(path: &Path, checkpoint: &Checkpoint) -> Result<(), WireError> {
    let tmp = temp_path(path);
    {
        let mut writer = BufWriter::new(File::create(&tmp)?);
        write_frame(&mut writer, &Payload(checkpoint))?;
        writer.flush()?;
        writer.get_ref().sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// [`save`], timed under a `checkpoint.write` span.  The span covers the
/// full atomic sequence — encode, temp write, fsync, rename — which is the
/// latency an epoch step actually pays for durability.
pub fn save_traced(
    path: &Path,
    checkpoint: &Checkpoint,
    telemetry: &fedhh_telemetry::Telemetry,
) -> Result<(), WireError> {
    let _span = telemetry.span(fedhh_telemetry::SpanName::CheckpointWrite);
    save(path, checkpoint)
}

/// Loads a checkpoint, verifying frame CRC, wire schema and
/// [`CHECKPOINT_SCHEMA`].  Malformed input of any kind — truncation,
/// corruption, foreign schema, trailing bytes — yields a typed
/// [`WireError`].
pub fn load(path: &Path) -> Result<Checkpoint, WireError> {
    let mut reader = BufReader::new(File::open(path)?);
    let payload = read_frame_bytes(&mut reader)?;
    let Some((&schema, body)) = payload.split_first() else {
        return Err(WireError::Protocol {
            detail: "checkpoint payload is empty".into(),
        });
    };
    if schema != CHECKPOINT_SCHEMA {
        return Err(WireError::SchemaMismatch {
            found: schema,
            supported: CHECKPOINT_SCHEMA,
        });
    }
    fedhh_wire::from_bytes(body)
}

/// The sibling temp path used by [`save`] (`<file>.tmp` in the same
/// directory, so the rename never crosses filesystems).
fn temp_path(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::{EpochConfig, EpochRunner, WarmStart};
    use fedhh_wire::to_bytes;

    fn sample_state() -> EpochState {
        let mut ledger = BudgetLedger::new();
        ledger.restore(vec![vec![1.0, 2.5, 0.0], vec![4.0]]);
        EpochState {
            next_epoch: 2,
            ledger,
            warm: Some(WarmSet {
                values: vec![7, 9, 11],
            }),
            records: vec![EpochRecord {
                epoch: 1,
                heavy_hitters: vec![7, 9],
                count_bits: vec![(7, 3.25f64.to_bits()), (9, f64::NAN.to_bits())],
                uplink_bits: 4096,
                downlink_bits: 128,
                enrolled_users: 4,
                refused_users: 1,
            }],
        }
    }

    #[test]
    fn checkpoints_round_trip_bit_identically() {
        let ckpt = Checkpoint {
            spec: vec![1, 2, 3, 255],
            state: sample_state(),
        };
        let bytes = to_bytes(&ckpt);
        let back: Checkpoint = fedhh_wire::from_bytes(&bytes).unwrap();
        assert_eq!(to_bytes(&back), bytes);
        assert_eq!(back.spec, ckpt.spec);
        assert_eq!(back.state.records, ckpt.state.records);
    }

    #[test]
    fn save_and_load_round_trip_through_a_file() {
        let dir = std::env::temp_dir().join(format!("fedhh-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ckpt");
        let ckpt = Checkpoint {
            spec: vec![42],
            state: sample_state(),
        };
        save(&path, &ckpt).unwrap();
        assert_eq!(load(&path).unwrap(), ckpt);
        // Overwriting goes through the same atomic path.
        save(&path, &ckpt).unwrap();
        assert_eq!(load(&path).unwrap(), ckpt);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The on-disk format, byte for byte: how `save` encodes and frames may
    /// change, the file it leaves may not.  Wire schema 7 (one FO execution
    /// path) moved exactly the frame's schema byte and CRC, deliberately: a
    /// schema-6 checkpoint may have been written by a sequential-RNG run,
    /// and resuming it would continue on a different report stream, so
    /// `load` refuses it with `SchemaMismatch`.  Wire schema 8 (no
    /// execution-mode field in the protocol configuration) moved the same
    /// two places again: a checkpoint holds no protocol configuration, but
    /// every frame carries the schema byte, so a build refuses the other's
    /// files rather than guess at a layout it does not speak.  Wire schema 9
    /// (topology and quorum in the scenario plan) and wire schema 10 (a
    /// flat scenario plan with one seed) moved the same two places for the
    /// same reason.
    #[test]
    fn saved_files_match_the_pinned_bytes() {
        let dir = std::env::temp_dir().join(format!("fedhh-ckpt-pin-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pinned.ckpt");
        let ckpt = Checkpoint {
            spec: vec![42, 0, 255],
            state: sample_state(),
        };
        save(&path, &ckpt).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "530000000a01032a00ff020203000000000000f03f00000000000004400000000000000000\
             010000000000001040010307090b010102070902078080808080808085400980808080808080\
             fc7f802080010401dcef26fb"
        );
    }

    #[test]
    fn foreign_checkpoint_schema_is_rejected() {
        let mut payload = vec![CHECKPOINT_SCHEMA + 1];
        payload.extend_from_slice(&to_bytes(&Checkpoint {
            spec: Vec::new(),
            state: EpochState::default(),
        }));
        let mut framed = Vec::new();
        fedhh_wire::write_frame_bytes(&mut framed, &payload).unwrap();
        let dir = std::env::temp_dir().join(format!("fedhh-ckpt-schema-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.ckpt");
        std::fs::write(&path, &framed).unwrap();
        let err = load(&path).unwrap_err();
        assert_eq!(
            err,
            WireError::SchemaMismatch {
                found: CHECKPOINT_SCHEMA + 1,
                supported: CHECKPOINT_SCHEMA
            }
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn runner_checkpoint_survives_the_file_round_trip() {
        let config = EpochConfig {
            epochs: 3,
            warm_start: WarmStart::Previous,
            epsilon: 1.0,
            epsilon_cap: Some(5.0),
        };
        let runner = EpochRunner::new(config, vec![8, 8, 8]);
        let dir = std::env::temp_dir().join(format!("fedhh-ckpt-runner-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("runner.ckpt");
        save(&path, &runner.checkpoint()).unwrap();
        let loaded = load(&path).unwrap();
        let resumed = EpochRunner::resume(config, vec![8, 8, 8], loaded).unwrap();
        assert_eq!(resumed.state(), runner.state());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
