//! Property-style tests for the prefix-tree substrate, sweeping seeded
//! deterministic grids instead of a randomized property-testing framework.

use fedhh_trie::{extend_prefix_values, ItemEncoder, LevelSchedule, Prefix, PrefixTree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Taking the prefix of an item and then truncating further is the same as
/// taking the shorter prefix directly.
#[test]
fn prefix_truncation_is_consistent() {
    let m = 48u8;
    let mut rng = StdRng::seed_from_u64(1);
    for _case in 0..128 {
        let item = rng.gen::<u64>() & ((1u64 << m) - 1);
        let a = rng.gen_range(0u8..=48);
        let b = rng.gen_range(1u8..=48);
        let (short, long) = (a.min(b), a.max(b).max(1));
        let p_long = Prefix::of_item(item, m, long);
        let p_short = Prefix::of_item(item, m, short);
        assert_eq!(p_long.truncate(short), p_short);
        assert!(p_short.is_prefix_of(&p_long));
    }
}

/// Extending a prefix with the item's next bits always yields the item's
/// longer prefix (the covering property used by the trie mechanisms).
#[test]
fn extension_covers_the_true_prefix() {
    let m = 48u8;
    let mut rng = StdRng::seed_from_u64(2);
    for _case in 0..128 {
        let item = rng.gen::<u64>() & ((1u64 << m) - 1);
        let len = rng.gen_range(0u8..=46);
        let step = rng.gen_range(1u8..=8).min(m - len);
        let parent = Prefix::of_item(item, m, len).value();
        let children = extend_prefix_values(&[parent], len, step);
        let true_child = Prefix::of_item(item, m, len + step).value();
        assert!(
            children.contains(&true_child),
            "item {item} len {len} step {step}"
        );
        assert_eq!(children.len(), 1usize << step);
    }
}

/// The item encoder is a bijection: decode(encode(x)) == x for every id
/// that fits the code width.
#[test]
fn encoder_round_trips() {
    let mut rng = StdRng::seed_from_u64(3);
    for _case in 0..256 {
        let seed = rng.gen::<u64>();
        let enc = ItemEncoder::new(48, seed);
        let id = rng.gen::<u64>() & ((1u64 << 48) - 1);
        assert_eq!(enc.decode(enc.encode(id)), id, "seed {seed} id {id}");
    }
}

/// Level schedules always end at m bits, are non-decreasing, and their
/// steps sum to m.
#[test]
fn level_schedule_is_well_formed() {
    for m in 2u8..=64 {
        for g_raw in [1u8, 2, 3, 5, 8, 13, 24, 48, 64] {
            let g = g_raw.min(m);
            let s = LevelSchedule::new(m, g);
            assert_eq!(s.prefix_len(g), m);
            let mut total = 0u16;
            for h in s.levels() {
                assert!(s.prefix_len(h) >= s.prefix_len(h - 1));
                total += s.step(h) as u16;
            }
            assert_eq!(total, m as u16, "m {m} g {g}");
        }
    }
}

/// Prefix counts at any level sum to the total number of items, and the
/// count of a prefix equals the sum of its children's counts.
#[test]
fn tree_counts_are_conserved() {
    let m = 12u8;
    let mut rng = StdRng::seed_from_u64(4);
    for _case in 0..32 {
        let n = rng.gen_range(1usize..200);
        let items: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..(1 << 12))).collect();
        let len = rng.gen_range(0u8..=10);
        let tree = PrefixTree::from_items(m, &items);
        let level: u64 = tree.level_counts(len).iter().map(|(_, c)| c).sum();
        assert_eq!(level, items.len() as u64);
        // Parent count equals the sum of its two children at the next bit.
        if len < m {
            for (parent, count) in tree.level_counts(len) {
                let child_sum: u64 = parent
                    .children(1)
                    .iter()
                    .map(|c| tree.prefix_count(c))
                    .sum();
                assert_eq!(child_sum, count);
            }
        }
    }
}

/// Ground-truth top-k prefixes always contain the prefix of the top-1 item
/// when k ≥ 1 and the top item is strictly more frequent than half the data
/// (it cannot be overwhelmed by siblings).
#[test]
fn dominant_item_prefix_is_a_top_prefix() {
    let m = 10u8;
    let mut rng = StdRng::seed_from_u64(5);
    for _case in 0..32 {
        let n = rng.gen_range(1usize..100);
        let filler: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..(1 << 10))).collect();
        let hot = rng.gen_range(0u64..(1 << 10));
        let mut items = filler.clone();
        // Make `hot` strictly dominant.
        for _ in 0..(filler.len() * 2 + 1) {
            items.push(hot);
        }
        let tree = PrefixTree::from_items(m, &items);
        for len in [2u8, 4, 6, 8, 10] {
            let top = tree.top_k_prefixes(len, 1);
            assert_eq!(top[0], Prefix::of_item(hot, m, len), "hot {hot} len {len}");
        }
    }
}
