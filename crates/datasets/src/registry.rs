//! Dataset registry: build any of the paper's five dataset groups by name.

use crate::federated::FederatedDataset;
use crate::realworld::{build_group, rdb_spec, tys_spec, uba_spec, ycm_spec};
use crate::synthetic::build_syn;

/// The five dataset groups used in the paper's evaluation (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// Reddit + IMDB (2 parties).
    Rdb,
    /// Yahoo + CNN/DailyMail + MIND + SWAG (4 parties).
    Ycm,
    /// Twitter + Yelp + Scientific Papers + Amazon Arts + SQuAD + AG News (6 parties).
    Tys,
    /// Alibaba user-behaviour slices (6 parties).
    Uba,
    /// Dirichlet-allocated synthetic parties (8 parties).
    Syn,
}

impl DatasetKind {
    /// All dataset groups in the order the paper reports them.
    pub const ALL: [DatasetKind; 5] = [
        DatasetKind::Rdb,
        DatasetKind::Ycm,
        DatasetKind::Tys,
        DatasetKind::Uba,
        DatasetKind::Syn,
    ];

    /// Stable uppercase name as used in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetKind::Rdb => "RDB",
            DatasetKind::Ycm => "YCM",
            DatasetKind::Tys => "TYS",
            DatasetKind::Uba => "UBA",
            DatasetKind::Syn => "SYN",
        }
    }

    /// Parses a (case-insensitive) dataset name.
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_uppercase().as_str() {
            "RDB" => Some(DatasetKind::Rdb),
            "YCM" => Some(DatasetKind::Ycm),
            "TYS" => Some(DatasetKind::Tys),
            "UBA" => Some(DatasetKind::Uba),
            "SYN" => Some(DatasetKind::Syn),
            _ => None,
        }
    }

    /// Number of parties in this group (Table 2 / Table 7).
    pub fn party_count(&self) -> usize {
        match self {
            DatasetKind::Rdb => 2,
            DatasetKind::Ycm => 4,
            DatasetKind::Tys | DatasetKind::Uba => 6,
            DatasetKind::Syn => 8,
        }
    }
}

impl std::fmt::Display for DatasetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when a string does not name a known dataset group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDatasetKindError {
    input: String,
}

impl std::fmt::Display for ParseDatasetKindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown dataset {:?}; expected one of RDB, YCM, TYS, UBA, SYN",
            self.input
        )
    }
}

impl std::error::Error for ParseDatasetKindError {}

impl std::str::FromStr for DatasetKind {
    type Err = ParseDatasetKindError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s).ok_or_else(|| ParseDatasetKindError {
            input: s.to_string(),
        })
    }
}

/// Error returned by [`DatasetConfig::validate`] and
/// [`crate::EvolutionPlan::validate`]: a parameter no dataset, or no epoch
/// of one, can be built with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidDatasetConfig {
    field: &'static str,
    value: String,
    expected: &'static str,
}

impl InvalidDatasetConfig {
    /// `field` holds `value`, which is not `expected`.
    pub(crate) fn new(field: &'static str, value: impl ToString, expected: &'static str) -> Self {
        Self {
            field,
            value: value.to_string(),
            expected,
        }
    }
}

impl std::fmt::Display for InvalidDatasetConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid dataset config: {} = {} (must be {})",
            self.field, self.value, self.expected
        )
    }
}

impl std::error::Error for InvalidDatasetConfig {}

/// Configuration for dataset generation shared by all groups.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetConfig {
    /// Multiplier applied to the paper's user populations.
    pub user_scale: f64,
    /// Multiplier applied to the paper's item-pool sizes.
    pub item_scale: f64,
    /// Width of the item code space in bits (the paper uses m = 48).
    pub code_bits: u8,
    /// Dirichlet concentration β for the SYN group (Table 8 sweeps it).
    pub syn_beta: f64,
    /// Generation seed.
    pub seed: u64,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        Self {
            user_scale: 0.02,
            item_scale: 0.1,
            code_bits: 48,
            syn_beta: 0.5,
            seed: 42,
        }
    }
}

impl DatasetConfig {
    /// A down-scaled configuration suitable for unit/integration tests.
    pub fn test_scale() -> Self {
        Self {
            user_scale: 0.004,
            item_scale: 0.01,
            code_bits: 16,
            syn_beta: 0.5,
            seed: 42,
        }
    }

    /// The paper's full evaluation scale: unscaled Table 2 user populations
    /// (`user_scale = 1.0`, millions of users on UBA/TYS) and item pools
    /// over 48-bit codes.  A build holds one `u64` per user: 52 MB for
    /// UBA's 6.48M users.
    pub fn paper_scale() -> Self {
        Self {
            user_scale: 1.0,
            item_scale: 1.0,
            code_bits: 48,
            syn_beta: 0.5,
            seed: 42,
        }
    }

    /// Checks that every dataset group can be built under this
    /// configuration: both scales and the SYN β positive and finite (the
    /// generators would floor a NaN or non-positive scale into a tiny
    /// dataset instead of refusing it), and a code width the item
    /// encoder's Feistel network accepts (even, in `2..=64`).  Scales have
    /// no upper bound here: a large one is a large build.
    ///
    /// [`DatasetConfig::build`] panics on an error; a configuration that
    /// arrives from outside the program (a node welcome's bytes) is checked
    /// here first, for a typed error.
    pub fn validate(&self) -> Result<(), InvalidDatasetConfig> {
        let positive = |field, value: f64| {
            if value > 0.0 && value.is_finite() {
                Ok(())
            } else {
                Err(InvalidDatasetConfig::new(
                    field,
                    value,
                    "positive and finite",
                ))
            }
        };
        positive("user_scale", self.user_scale)?;
        positive("item_scale", self.item_scale)?;
        positive("syn_beta", self.syn_beta)?;
        if !(2..=64).contains(&self.code_bits) || !self.code_bits.is_multiple_of(2) {
            return Err(InvalidDatasetConfig::new(
                "code_bits",
                self.code_bits,
                "even and in 2..=64",
            ));
        }
        Ok(())
    }

    /// Builds a dataset of the given kind under this configuration.
    ///
    /// # Panics
    ///
    /// Panics with [`DatasetConfig::validate`]'s message when the
    /// configuration is invalid.
    pub fn build(&self, kind: DatasetKind) -> FederatedDataset {
        if let Err(err) = self.validate() {
            panic!("{err}");
        }
        match kind {
            DatasetKind::Rdb => build_group(&rdb_spec(), self),
            DatasetKind::Ycm => build_group(&ycm_spec(), self),
            DatasetKind::Tys => build_group(&tys_spec(), self),
            DatasetKind::Uba => build_group(&uba_spec(), self),
            DatasetKind::Syn => build_syn(self),
        }
    }

    /// The same as [`DatasetConfig::build`].
    ///
    /// Kept only for the benchmark harness's per-layer probe, until the
    /// benchmark change of ROADMAP item 8(b) calls `build` instead.
    #[doc(hidden)]
    pub fn build_streamed(&self, kind: DatasetKind) -> FederatedDataset {
        self.build(kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for kind in DatasetKind::ALL {
            assert_eq!(DatasetKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(DatasetKind::parse("rdb"), Some(DatasetKind::Rdb));
        assert_eq!(DatasetKind::parse("unknown"), None);
    }

    #[test]
    fn from_str_delegates_to_parse() {
        for kind in DatasetKind::ALL {
            assert_eq!(kind.name().parse::<DatasetKind>(), Ok(kind));
        }
        let err = "unknown".parse::<DatasetKind>().unwrap_err();
        assert!(err.to_string().contains("unknown"));
    }

    #[test]
    fn every_group_builds_with_the_documented_party_count() {
        let config = DatasetConfig::test_scale();
        for kind in DatasetKind::ALL {
            let ds = config.build(kind);
            assert_eq!(ds.party_count(), kind.party_count(), "kind {kind}");
            assert_eq!(ds.name(), kind.name());
            assert!(ds.total_users() > 100, "kind {kind}");
            assert!(ds.distinct_items() > 10, "kind {kind}");
        }
    }

    #[test]
    fn the_presets_validate() {
        for config in [
            DatasetConfig::default(),
            DatasetConfig::test_scale(),
            DatasetConfig::paper_scale(),
        ] {
            assert_eq!(config.validate(), Ok(()));
        }
    }

    /// The generators would floor a NaN or non-positive scale into a tiny
    /// dataset (2 parties of 50 users on RDB) and fail on a bad β or code
    /// width deep inside: every build refuses them first, naming the field.
    #[test]
    fn invalid_configs_refuse_to_build_naming_the_field() {
        type Corrupt = fn(&mut DatasetConfig);
        let cases: [(&str, Corrupt); 8] = [
            ("user_scale", |c| c.user_scale = f64::NAN),
            ("user_scale", |c| c.user_scale = -1.0),
            ("item_scale", |c| c.item_scale = f64::NAN),
            ("item_scale", |c| c.item_scale = 0.0),
            ("syn_beta", |c| c.syn_beta = f64::INFINITY),
            ("syn_beta", |c| c.syn_beta = 0.0),
            ("code_bits", |c| c.code_bits = 7),
            ("code_bits", |c| c.code_bits = 66),
        ];
        for (field, corrupt) in cases {
            let mut config = DatasetConfig::test_scale();
            corrupt(&mut config);
            for kind in [DatasetKind::Rdb, DatasetKind::Syn] {
                let Err(payload) = std::panic::catch_unwind(|| config.build(kind)) else {
                    panic!("{config:?} built {kind}");
                };
                let message = payload
                    .downcast_ref::<String>()
                    .expect("a formatted panic message");
                assert_eq!(*message, config.validate().unwrap_err().to_string());
                assert!(message.contains(field), "{field}: {message}");
            }
        }
    }

    #[test]
    fn config_seed_controls_reproducibility() {
        let mut config = DatasetConfig::test_scale();
        let a = config.build(DatasetKind::Rdb);
        let b = config.build(DatasetKind::Rdb);
        assert_eq!(a.parties()[0].items(), b.parties()[0].items());
        config.seed = 77;
        let c = config.build(DatasetKind::Rdb);
        assert_ne!(a.parties()[0].items(), c.parties()[0].items());
    }
}
