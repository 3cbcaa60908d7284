//! Count-based complexity guard for the persistent tree under every `Bag`:
//! a write into a bag that a clone still shares copies the root-to-leaf
//! paths it touches and nothing else — at every bag size, from one leaf up.
//!
//! The registry counters `data.tree.nodes_copied` / `data.tree.keys_copied`
//! are process-wide, so this file holds exactly one test: nothing else in
//! the process writes to a tree while it counts, and the counts repeat
//! exactly. No wall-clock assertion.

use nrc_data::{Bag, Value};

/// The ceiling `nrc_data` documents (and asserts at compile time) for the
/// tree's fan-out; the actual constant is private.
const MAX_FANOUT: u64 = 64;
const KEYS: usize = 20_000;
const DELTA: usize = 64;
/// Bag sizes from one leaf to three levels.
const SMALL_SIZES: [usize; 5] = [16, 64, 256, 512, 1_024];
/// A bulk build packs `FANOUT - 1` entries per leaf and children per
/// branch (`pack` in `nrc_data`'s `livemap`, `FANOUT = 32`).
const PACKED: usize = 31;

/// Height of a tree that a bulk build packs from `n` keys.
fn packed_height(mut n: usize) -> u64 {
    let mut height = 1;
    while n > PACKED {
        n = n.div_ceil(PACKED);
        height += 1;
    }
    height
}

/// Zero-padded, so that key order is numeric order.
fn key(n: usize) -> Value {
    Value::str(format!("tree-copy-guard-{n:06}"))
}

/// `(nodes copied, keys copied)` by `write`.
fn copied(write: impl FnOnce()) -> (u64, u64) {
    let nodes = nrc_obs::counter("data.tree.nodes_copied");
    let keys = nrc_obs::counter("data.tree.keys_copied");
    let before = (nodes.get(), keys.get());
    write();
    (nodes.get() - before.0, keys.get() - before.1)
}

#[test]
fn a_write_under_a_clone_copies_its_paths_not_the_map() {
    // Even keys in the bag, odd keys in the deltas: every delta key is
    // fresh and lands between existing ones.
    let build = || Bag::from_values((0..KEYS).map(|i| key(2 * i)));
    let one = Bag::from_values([key(KEYS + 1)]);
    // 64 fresh keys spread evenly over the key range: 64 different leaves.
    let delta = Bag::from_values((0..DELTA).map(|i| key(2 * i * (KEYS / DELTA) + 1)));
    assert_eq!(delta.distinct_count(), DELTA);

    let run = || {
        let mut bag = build();
        // Nothing shares the bag: nothing is copied.
        let unshared = copied(|| bag.union_assign(&delta));
        bag.union_assign(&delta.negate());

        // One key under a clone: one path. Its node count is the height.
        let held = bag.clone();
        let path = copied(|| bag.union_assign(&one));
        drop(held);

        // 64 keys under a clone.
        let held = bag.clone();
        let batch = copied(|| bag.union_assign(&delta));
        assert_eq!(held.distinct_count(), KEYS + 1, "the clone is a snapshot");
        assert_eq!(bag.distinct_count(), KEYS + 1 + DELTA);
        (unshared, path, batch)
    };

    let (unshared, path, batch) = run();
    assert_eq!(unshared, (0, 0), "an unshared write copies nothing");
    let (height, path_keys) = path;
    assert!(height >= 2, "20 000 keys do not fit one node");
    assert!(path_keys <= height * MAX_FANOUT);
    // d writes copy at most d paths: O(d · B · log n), never O(n).
    let (nodes, keys) = batch;
    assert!(nodes >= DELTA as u64, "64 spread keys touch 64 leaves");
    assert!(
        nodes <= DELTA as u64 * height,
        "{nodes} nodes copied for {DELTA} writes"
    );
    assert!(
        keys <= DELTA as u64 * height * MAX_FANOUT,
        "{keys} keys copied"
    );
    assert!(keys < KEYS as u64 / 2, "{keys} keys copied out of {KEYS}");
    // Counts, not times: a second run gives the same numbers.
    assert_eq!(run(), (unshared, path, batch));

    // Small bags pay the same way: one fresh key under a clone copies one
    // path, whose node count is the height, and never the whole bag.
    for size in SMALL_SIZES {
        let small_key = |n: usize| Value::str(format!("tree-copy-guard-{size:04}-{n:06}"));
        let mut bag = Bag::from_values((0..size).map(|i| small_key(2 * i)));
        let fresh = Bag::from_values([small_key(size + 1)]);
        let held = bag.clone();
        let (nodes, keys) = copied(|| bag.union_assign(&fresh));
        drop(held);
        let height = packed_height(size);
        assert_eq!(nodes, height, "{size} keys: {nodes} nodes copied");
        assert!(
            keys <= height * MAX_FANOUT,
            "{size} keys: {keys} keys copied"
        );
        assert_eq!(bag.distinct_count(), size + 1);
    }
}
