//! The `fedhh-node` run specification: what the coordinator ships to party
//! processes (inside [`fedhh_federated::NodeWelcome::app`]) so every
//! process rebuilds the *same* dataset and runs the *same* mechanism.
//!
//! Datasets are generated deterministically from a [`DatasetConfig`], so
//! the spec carries the generator parameters rather than the data itself:
//! a handful of bytes instead of millions of item codes, exactly like a
//! deployment where parties hold their own data and only agree on the
//! protocol parameters.

use fedhh_datasets::{DatasetConfig, DatasetKind, FederatedDataset};
use fedhh_mechanisms::MechanismKind;
use fedhh_wire::{from_bytes, put_f64, put_u64_fixed, to_bytes, Decode, Encode, Reader, WireError};

/// The application half of a `fedhh-node` welcome: mechanism, dataset kind
/// and the deterministic dataset generator parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeRunSpec {
    /// The mechanism every process executes.
    pub mechanism: MechanismKind,
    /// The dataset group to rebuild.
    pub dataset: DatasetKind,
    /// The generator parameters (scales, code width, SYN β, seed).
    pub dataset_config: DatasetConfig,
}

impl NodeRunSpec {
    /// Builds this spec's dataset (deterministic: every process gets
    /// bit-identical parties).
    pub fn build_dataset(&self) -> FederatedDataset {
        self.dataset_config.build(self.dataset)
    }

    /// Encodes the spec into welcome-app bytes.
    pub fn to_app_bytes(&self) -> Vec<u8> {
        to_bytes(self)
    }

    /// Decodes a spec from welcome-app bytes.
    pub fn from_app_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        from_bytes(bytes)
    }
}

impl Encode for NodeRunSpec {
    fn encode(&self, out: &mut Vec<u8>) {
        self.mechanism.name().encode(out);
        self.dataset.name().encode(out);
        put_f64(out, self.dataset_config.user_scale);
        put_f64(out, self.dataset_config.item_scale);
        self.dataset_config.code_bits.encode(out);
        put_f64(out, self.dataset_config.syn_beta);
        put_u64_fixed(out, self.dataset_config.seed);
    }
}

impl Decode for NodeRunSpec {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        let mechanism_name = String::decode(reader)?;
        let mechanism =
            mechanism_name
                .parse::<MechanismKind>()
                .map_err(|err| WireError::Protocol {
                    detail: err.to_string(),
                })?;
        let dataset_name = String::decode(reader)?;
        let dataset = dataset_name
            .parse::<DatasetKind>()
            .map_err(|err| WireError::Protocol {
                detail: err.to_string(),
            })?;
        let dataset_config = DatasetConfig {
            user_scale: reader.take_f64()?,
            item_scale: reader.take_f64()?,
            code_bits: u8::decode(reader)?,
            syn_beta: reader.take_f64()?,
            seed: reader.take_u64_fixed()?,
        };
        dataset_config
            .validate()
            .map_err(|err| WireError::Protocol {
                detail: err.to_string(),
            })?;
        Ok(NodeRunSpec {
            mechanism,
            dataset,
            dataset_config,
        })
    }
}

/// Splits `party_count` parties into `processes` contiguous near-equal
/// ranges (the partition the coordinator advertises in its welcome).
pub fn partition_parties(party_count: usize, processes: usize) -> Vec<(usize, usize)> {
    let processes = processes.max(1);
    let base = party_count / processes;
    let extra = party_count % processes;
    let mut ranges = Vec::with_capacity(processes);
    let mut start = 0;
    for rank in 0..processes {
        let len = base + usize::from(rank < extra);
        ranges.push((start, start + len));
        start += len;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_round_trip() {
        let spec = NodeRunSpec {
            mechanism: MechanismKind::Taps,
            dataset: DatasetKind::Ycm,
            dataset_config: DatasetConfig::test_scale(),
        };
        let bytes = spec.to_app_bytes();
        assert_eq!(NodeRunSpec::from_app_bytes(&bytes).unwrap(), spec);
    }

    #[test]
    fn unknown_names_are_protocol_errors() {
        let mut bytes = Vec::new();
        "NOPE".to_string().encode(&mut bytes);
        "RDB".to_string().encode(&mut bytes);
        assert!(matches!(
            NodeRunSpec::from_app_bytes(&bytes),
            Err(WireError::Protocol { .. })
        ));
    }

    /// A well-formed welcome carrying generator parameters the dataset
    /// builders assert on is refused at decode, before a party process
    /// builds anything.
    #[test]
    fn hostile_dataset_values_are_protocol_errors() {
        type Corrupt = fn(&mut DatasetConfig);
        let cases: [(&str, Corrupt); 8] = [
            ("syn_beta", |c| c.syn_beta = 0.0),
            ("syn_beta", |c| c.syn_beta = f64::NAN),
            ("code_bits", |c| c.code_bits = 7),
            ("code_bits", |c| c.code_bits = 0),
            ("code_bits", |c| c.code_bits = 66),
            ("user_scale", |c| c.user_scale = -1.0),
            ("item_scale", |c| c.item_scale = f64::INFINITY),
            ("item_scale", |c| c.item_scale = 0.0),
        ];
        for (field, corrupt) in cases {
            let mut spec = NodeRunSpec {
                mechanism: MechanismKind::Taps,
                dataset: DatasetKind::Syn,
                dataset_config: DatasetConfig::test_scale(),
            };
            corrupt(&mut spec.dataset_config);
            match NodeRunSpec::from_app_bytes(&spec.to_app_bytes()) {
                Err(WireError::Protocol { detail }) => {
                    assert!(detail.contains(field), "{field}: {detail}")
                }
                other => panic!("{field}: decoded {other:?}"),
            }
        }
    }

    #[test]
    fn rebuilt_datasets_are_identical_across_decodes() {
        let spec = NodeRunSpec {
            mechanism: MechanismKind::FedPem,
            dataset: DatasetKind::Rdb,
            dataset_config: DatasetConfig::test_scale(),
        };
        let other = NodeRunSpec::from_app_bytes(&spec.to_app_bytes()).unwrap();
        let a = spec.build_dataset();
        let b = other.build_dataset();
        assert_eq!(a.party_count(), b.party_count());
        for (pa, pb) in a.parties().iter().zip(b.parties()) {
            assert_eq!(pa.items(), pb.items());
        }
    }

    #[test]
    fn partitions_tile_the_party_range() {
        for (parties, processes) in [(4, 4), (6, 4), (2, 4), (8, 3), (5, 1), (0, 2)] {
            let ranges = partition_parties(parties, processes);
            assert_eq!(ranges.len(), processes.max(1));
            let mut expected = 0;
            for (start, end) in &ranges {
                assert_eq!(*start, expected);
                assert!(end >= start);
                expected = *end;
            }
            assert_eq!(expected, parties);
        }
    }
}
