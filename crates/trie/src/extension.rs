//! Candidate-domain construction by prefix extension.
//!
//! `Construct(l_h, l_{h−1}, C_{h−1}) = C_{h−1} × {0,1}^(l_h − l_{h−1})`
//! (Algorithm 2, line 13): every surviving prefix of the previous level is
//! extended with all possible bit patterns of the step, and the union forms
//! the candidate domain Λ_h that the next user group perturbs over.

use crate::bits::mask;

/// Extends each parent prefix (a raw value `parent_len` bits long, higher
/// bits ignored) by `step` bits, producing the raw candidate values of the
/// next level (`parent_len + step` bits long) in a deterministic order:
/// parents in input order, suffixes in increasing numeric order.
pub fn extend_prefix_values(parents: &[u64], parent_len: u8, step: u8) -> Vec<u64> {
    assert!(
        u16::from(parent_len) + u16::from(step) <= 64,
        "extended prefix would exceed 64 bits"
    );
    let mut out = Vec::with_capacity(parents.len() << step.min(20));
    for parent in parents {
        let base = mask(*parent, parent_len) << step;
        out.extend((0..(1u64 << step)).map(|suffix| base | mask(suffix, step)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::Prefix;

    #[test]
    fn extension_from_root_enumerates_all_prefixes() {
        assert_eq!(
            extend_prefix_values(&[0], 0, 2),
            vec![0b00, 0b01, 0b10, 0b11]
        );
    }

    #[test]
    fn extension_multiplies_domain_size() {
        let parents = [0b00u64, 0b10];
        let children = extend_prefix_values(&parents, 2, 2);
        assert_eq!(children.len(), parents.len() * 4);
        // All children keep their parent as a prefix.
        for (i, child) in children.iter().enumerate() {
            assert!(Prefix::new(parents[i / 4], 2).is_prefix_of(&Prefix::new(*child, 4)));
        }
    }

    #[test]
    fn raw_value_extension_matches_prefix_extension() {
        let parents = vec![0b01u64, 0b11];
        let children = extend_prefix_values(&parents, 2, 3);
        assert_eq!(children.len(), 16);
        assert_eq!(children[0], 0b01_000);
        assert_eq!(children[15], 0b11_111);
    }

    #[test]
    fn raw_value_extension_equals_the_prefix_path_and_masks_both_parts() {
        // Parents carry bits above their length, which both paths drop.
        let parents = [0u64, 1, 0b1011, 0xDEAD_BEEF, u64::MAX];
        for (parent_len, step) in [(0u8, 3u8), (2, 2), (4, 4), (31, 1), (60, 4), (64, 0)] {
            let via_prefix: Vec<u64> = parents
                .iter()
                .flat_map(|v| Prefix::new(*v, parent_len).children(step))
                .map(|p| p.value())
                .collect();
            assert_eq!(
                extend_prefix_values(&parents, parent_len, step),
                via_prefix,
                "parent_len {parent_len}, step {step}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "extended prefix would exceed 64 bits")]
    fn raw_value_extension_refuses_more_than_64_bits() {
        extend_prefix_values(&[1], 62, 3);
    }

    #[test]
    fn every_true_prefix_is_covered_when_its_parent_survives() {
        // If an item's (h−1)-prefix is in the parent set, its h-prefix must
        // appear in the extended candidates — the Apriori-style covering
        // property the mechanisms rely on.
        let m = 8u8;
        let item = 0b1011_0110u64;
        let parent = Prefix::of_item(item, m, 3).value();
        let children = extend_prefix_values(&[0b000, parent], 3, 2);
        assert!(children.contains(&Prefix::of_item(item, m, 5).value()));
    }

    #[test]
    fn zero_step_extension_is_identity() {
        assert_eq!(extend_prefix_values(&[0b01], 2, 0), vec![0b01]);
    }
}
