//! The id-keyed container that keeps the intern arena's live counts:
//! [`VidMap`], a persistent B+tree.
//!
//! [`crate::Bag`] and [`crate::Dictionary`] store their contents in it,
//! and its *key set* participates in arena reclamation. Every key
//! insertion retains the key's arena slot; every key removal (and the drop
//! of the storage that holds the key) releases it. When the last reference
//! to a slot disappears, the slot becomes collectible by `intern::collect`
//! — see the reclamation section of [`crate::intern`].
//!
//! # `VidMap`: a persistent (path-copying) B+tree
//!
//! `VidMap` is an ordered map from [`Vid`] to `T` whose nodes are
//! `Arc`-shared between every clone of the map:
//!
//! * a **leaf** holds a strictly sorted run of fewer than [`FANOUT`]
//!   `(key, T)` entries and *owns one arena retain per key* — copying a
//!   leaf retains its keys, dropping the last reference to it releases
//!   them;
//! * a **branch** holds fewer than [`FANOUT`] `(separator, child)` pairs,
//!   all children at the same depth. Branches own no retains: the
//!   **separator rule** is that a child's separator is always a copy of the
//!   *largest key stored in that child's subtree*. The branch keeps the
//!   subtree alive through its `Arc`, the subtree's leaf retains the key,
//!   so a separator can never be a stale id ([`Vid`]'s `Ord`
//!   generation-checks both sides and panics on one). Every edit
//!   re-derives the separators along its path from the children, by
//!   assignment, after the leaf changed and before anything compares
//!   against them again.
//!
//! Cloning a map bumps the root's reference count — `O(1)`, no arena
//! traffic. A write goes down one root-to-leaf path and unshares
//! ([`unshare`]) only the nodes on it that another clone still references,
//! so `d` writes into an `n`-key map that a snapshot shares copy (and
//! re-retain) `O(d · FANOUT · log n)` entries, never `O(n)`; the snapshot's
//! drop releases only the nodes nothing else shares. Shared nodes are never
//! mutated, which is what makes a clone a stable snapshot.
//!
//! Every stored key carries its [`Vid::rank`] beside it (`Key`), so a node
//! is searched by a branch-free count over cached integers, touching arena
//! slots only to order keys whose ranks tie with the probe's — the search
//! reads one contiguous buffer per level instead of one slot per compare.
//!
//! Deletion is *relaxed*: a node is removed when it empties, and two
//! adjacent siblings are merged when together they fill at most half a
//! node, which keeps occupancy bounded below without the borrow/merge case
//! analysis of a textbook B-tree. All leaves stay at one depth.
//!
//! Values (`T`) are ordinary owned data — for dictionaries they are
//! [`crate::Bag`]s whose own containers handle their elements, which is
//! exactly how dropping an interned value tree cascades releases through
//! nesting levels.

use crate::intern::{self, Vid};
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, LazyLock};

/// A node splits in two when it reaches this many entries (leaf) or
/// children (branch), so at rest every node holds `1..FANOUT`. A power of
/// two: a node's `Vec` then never grows past `FANOUT` slots.
const FANOUT: usize = 32;

// `retain_entries` marks a leaf's doomed entries in one `u64`.
const _: () = assert!(FANOUT <= 64 && FANOUT.is_power_of_two());

/// Branch levels an iterator's path has room for. Adjacent siblings always hold
/// more than `FANOUT / 2` entries between them (a split leaves two halves,
/// a shrinking node merges with a sparse neighbour), so a subtree's size
/// grows at least `FANOUT / 4`-fold per level and the `2³²` ids a [`Vid`]
/// can name are exhausted below a dozen levels.
const MAX_HEIGHT: usize = 16;

/// Count one node unshared by a write (`data.tree.nodes_copied`) and the
/// entries or separators it held (`data.tree.keys_copied`) — the cost a
/// write pays for the snapshots that share its path.
fn count_copy(keys: usize) {
    static NODES: LazyLock<Arc<nrc_obs::Counter>> =
        LazyLock::new(|| nrc_obs::counter("data.tree.nodes_copied"));
    static KEYS: LazyLock<Arc<nrc_obs::Counter>> =
        LazyLock::new(|| nrc_obs::counter("data.tree.keys_copied"));
    if nrc_obs::enabled() {
        NODES.inc();
        KEYS.add(keys as u64);
    }
}

/// A stored key with its rank cached beside it.
///
/// `rank` is [`Vid::rank`]: an order-homomorphic prefix of the canonical
/// order, a pure function of the value, hence constant while the slot is
/// live — which every key in a node is (leaves retain theirs; separators
/// copy a leaf's). Searching a node on the cached ranks touches no arena
/// slot at all; only keys whose ranks *tie* with the probe's are compared
/// through [`Vid`]'s `Ord` (generation-checked, deep).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Key {
    rank: u64,
    vid: Vid,
}

impl Key {
    fn new(vid: Vid) -> Key {
        Key {
            rank: vid.rank(),
            vid,
        }
    }

    /// The first index in `items` (sorted by key) whose key is not below
    /// this one: a branch-free count over the cached ranks, then a binary
    /// search by value within the run of tying ranks.
    fn lower_bound<X>(&self, items: &[(Key, X)]) -> usize {
        let below = items.iter().filter(|(k, _)| k.rank < self.rank).count();
        let ties = items[below..]
            .iter()
            .take_while(|(k, _)| k.rank == self.rank)
            .count();
        if ties == 0 {
            return below;
        }
        // Equal ranks: `Vid`'s `Ord` would fall through to exactly this
        // value comparison (`Vid::value` keeps the generation check).
        let value = self.vid.value();
        below
            + items[below..below + ties]
                .partition_point(|(k, _)| k.vid != self.vid && k.vid.value() < value)
    }

    /// This key's position among a leaf's entries: `Ok` if present, else
    /// where it belongs.
    fn find<T>(&self, entries: &[(Key, T)]) -> Result<usize, usize> {
        let at = self.lower_bound(entries);
        match entries.get(at) {
            Some((k, _)) if k.vid == self.vid => Ok(at),
            _ => Err(at),
        }
    }
}

/// A fresh node buffer for `len` items. Buffers hold a power of two of
/// slots, at most `FANOUT`: growth doubles them, [`trim`] halves them.
fn node_vec<X>(len: usize) -> Vec<X> {
    Vec::with_capacity(len.next_power_of_two())
}

/// Move `items` into a fresh buffer of `slots` slots. Shrinking in place
/// instead would leave the allocator a tail fragment of an odd size behind
/// every node that ever shrank; moving frees the old buffer whole, for the
/// next node of that size.
fn refit<X>(items: &mut Vec<X>, slots: usize) {
    let mut fresh = Vec::with_capacity(slots);
    fresh.append(items);
    *items = fresh;
}

/// Halve a buffer that is at most three-eighths full, so that a node that
/// shrank does not keep the room of the node it once was (and, short of
/// half, does not grow straight back on the next insert).
fn trim<X>(items: &mut Vec<X>) {
    if items.len() * 8 <= items.capacity() * 3 {
        refit(items, items.capacity() / 2);
    }
}

/// A sorted run of entries that owns one arena retain per key.
struct Leaf<T> {
    entries: Vec<(Key, T)>,
}

impl<T: Clone> Clone for Leaf<T> {
    fn clone(&self) -> Leaf<T> {
        let mut entries = node_vec(self.entries.len());
        entries.extend(self.entries.iter().map(|(key, value)| {
            intern::retain(key.vid);
            (*key, value.clone())
        }));
        Leaf { entries }
    }
}

impl<T> Drop for Leaf<T> {
    fn drop(&mut self) {
        for (key, _) in &self.entries {
            intern::release(key.vid);
        }
    }
}

/// `(separator, child)` pairs in key order; see the module docs for the
/// separator rule.
struct Branch<T> {
    children: Vec<(Key, Arc<Node<T>>)>,
}

impl<T> Clone for Branch<T> {
    fn clone(&self) -> Branch<T> {
        let mut children = node_vec(self.children.len());
        children.extend(self.children.iter().cloned());
        Branch { children }
    }
}

#[derive(Clone)]
enum Node<T> {
    Leaf(Leaf<T>),
    Branch(Branch<T>),
}

impl<T> Node<T> {
    /// Entries of a leaf, children of a branch.
    fn size(&self) -> usize {
        match self {
            Node::Leaf(leaf) => leaf.entries.len(),
            Node::Branch(branch) => branch.children.len(),
        }
    }

    /// The largest key of this (non-empty) subtree.
    fn max_key(&self) -> Key {
        match self {
            Node::Leaf(leaf) => leaf.entries.last().map(|(key, _)| *key),
            Node::Branch(branch) => branch.children.last().map(|(key, _)| *key),
        }
        .expect("tree nodes are never empty at rest")
    }

    /// Append the right sibling's contents (its keys keep their retains).
    fn absorb(&mut self, right: Node<T>) {
        match (self, right) {
            (Node::Leaf(left), Node::Leaf(mut right)) => left.entries.append(&mut right.entries),
            (Node::Branch(left), Node::Branch(mut right)) => {
                left.children.append(&mut right.children);
            }
            _ => unreachable!("siblings sit at the same depth"),
        }
    }
}

/// Mutable access to a node, copying it first when another map still
/// references it. The one place a write pays for sharing.
fn unshare<T: Clone>(node: &mut Arc<Node<T>>) -> &mut Node<T> {
    if Arc::get_mut(node).is_none() {
        count_copy(node.size());
        *node = Arc::new(Node::clone(node));
    }
    Arc::get_mut(node).expect("the node was just unshared")
}

/// If `items` reached `FANOUT`, move its upper half into a new buffer.
fn split_full<X>(items: &mut Vec<X>) -> Option<Vec<X>> {
    (items.len() >= FANOUT).then(|| {
        let mut right = node_vec(FANOUT / 2);
        right.extend(items.drain(FANOUT / 2..));
        refit(items, FANOUT / 2);
        right
    })
}

impl<T: Clone> Branch<T> {
    /// Merge adjacent children that together fill at most half a node,
    /// looking at the pairs that start at `from..to`.
    fn merge_sparse(&mut self, from: usize, mut to: usize) {
        let mut at = from;
        while at < to && at + 1 < self.children.len() {
            if self.children[at].1.size() + self.children[at + 1].1.size() > FANOUT / 2 {
                at += 1;
                continue;
            }
            let (key, right) = self.children.remove(at + 1);
            let right = Arc::try_unwrap(right).unwrap_or_else(|shared| {
                count_copy(shared.size());
                Node::clone(&shared)
            });
            let (left_key, left) = &mut self.children[at];
            unshare(left).absorb(right);
            *left_key = key;
            to -= 1;
        }
    }

    /// Restore the separator rule and the size bounds after child `at` was
    /// edited (`split` being the sibling it shed, if it overflowed).
    /// Returns this branch's own new right sibling if it overflowed in
    /// turn.
    fn settle(
        &mut self,
        at: usize,
        split: Option<Arc<Node<T>>>,
        shrank: bool,
    ) -> Option<Arc<Node<T>>> {
        if self.children[at].1.size() == 0 {
            self.children.remove(at);
        } else {
            self.children[at].0 = self.children[at].1.max_key();
            if let Some(right) = split {
                self.children.insert(at + 1, (right.max_key(), right));
            } else if shrank {
                self.merge_sparse(at.saturating_sub(1), at + 1);
            }
        }
        split_full(&mut self.children).map(|children| Arc::new(Node::Branch(Branch { children })))
    }
}

/// What a leaf edit did: the change in entry count.
type Delta = isize;

/// What editing a subtree did: the change in entry count, and the node's
/// new right sibling if it overflowed.
type Edited<T> = (Delta, Option<Arc<Node<T>>>);

/// Unshare the path to the leaf responsible for `key`, run `op` on that
/// leaf's entries (with the key's position among them), and settle every
/// branch on the way back up.
fn edit_node<T: Clone, E>(
    node: &mut Arc<Node<T>>,
    key: Key,
    op: impl FnOnce(&mut Vec<(Key, T)>, Result<usize, usize>) -> Result<Delta, E>,
) -> Result<Edited<T>, E> {
    match unshare(node) {
        Node::Leaf(leaf) => {
            let at = key.find(&leaf.entries);
            let delta = op(&mut leaf.entries, at)?;
            trim(&mut leaf.entries);
            let split =
                split_full(&mut leaf.entries).map(|entries| Arc::new(Node::Leaf(Leaf { entries })));
            Ok((delta, split))
        }
        Node::Branch(branch) => {
            // A key past every separator belongs to the last child, whose
            // separator `settle` then raises.
            let at = key
                .lower_bound(&branch.children)
                .min(branch.children.len() - 1);
            let (delta, split) = edit_node(&mut branch.children[at].1, key, op)?;
            Ok((delta, branch.settle(at, split, delta < 0)))
        }
    }
}

/// Drop the entries `keep` rejects, releasing their keys. A leaf that
/// loses nothing stays shared; returns how many entries went.
fn retain_node<T: Clone>(node: &mut Arc<Node<T>>, keep: &mut impl FnMut(Vid, &T) -> bool) -> usize {
    if let Node::Leaf(leaf) = &**node {
        let mut doomed = 0u64;
        for (i, (key, value)) in leaf.entries.iter().enumerate() {
            if !keep(key.vid, value) {
                doomed |= 1 << i;
            }
        }
        if doomed == 0 {
            return 0;
        }
        let Node::Leaf(leaf) = unshare(node) else {
            unreachable!("unsharing keeps the node's kind")
        };
        let mut i = 0;
        leaf.entries.retain(|(key, _)| {
            let gone = doomed >> i & 1 == 1;
            i += 1;
            if gone {
                intern::release(key.vid);
            }
            !gone
        });
        trim(&mut leaf.entries);
        return doomed.count_ones() as usize;
    }
    let Node::Branch(branch) = unshare(node) else {
        unreachable!("leaves returned above")
    };
    let removed: usize = branch
        .children
        .iter_mut()
        .map(|(_, child)| retain_node(child, keep))
        .sum();
    if removed > 0 {
        branch.children.retain(|(_, child)| child.size() > 0);
        for (separator, child) in &mut branch.children {
            *separator = child.max_key();
        }
        branch.merge_sparse(0, usize::MAX);
    }
    removed
}

/// Group `items` into nodes of `FANOUT - 1` (the last one holds the rest),
/// each paired with its separator.
fn pack<T, X>(
    mut items: impl ExactSizeIterator<Item = X>,
    node: impl Fn(Vec<X>) -> Node<T>,
) -> Vec<(Key, Arc<Node<T>>)> {
    let mut packed = Vec::with_capacity(items.len().div_ceil(FANOUT - 1));
    while items.len() > 0 {
        // Sized to the contents: a bag of three entries is one leaf of
        // four slots, not of `FANOUT`.
        let mut chunk = node_vec(items.len().min(FANOUT - 1));
        chunk.extend(items.by_ref().take(FANOUT - 1));
        let node = node(chunk);
        packed.push((node.max_key(), Arc::new(node)));
    }
    packed
}

/// A persistent ordered map from [`Vid`] to `T` whose leaves retain their
/// keys' arena slots (see the module docs). Crate-internal: the public
/// surface is [`crate::Bag`] / [`crate::Dictionary`].
pub(crate) struct VidMap<T> {
    root: Option<Arc<Node<T>>>,
    len: usize,
}

impl<T> VidMap<T> {
    /// The empty map.
    pub(crate) fn new() -> VidMap<T> {
        VidMap { root: None, len: 0 }
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Is the map empty?
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Do both maps share one root, hence hold the same entries? (`false`
    /// proves nothing.)
    pub(crate) fn ptr_eq(&self, other: &VidMap<T>) -> bool {
        match (&self.root, &other.root) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        }
    }

    /// The value stored under `key`.
    pub(crate) fn get(&self, key: Vid) -> Option<&T> {
        let mut node = self.root.as_deref()?;
        let key = Key::new(key);
        loop {
            match node {
                Node::Branch(branch) => {
                    node = &branch.children.get(key.lower_bound(&branch.children))?.1;
                }
                Node::Leaf(leaf) => return Some(&leaf.entries[key.find(&leaf.entries).ok()?].1),
            }
        }
    }

    /// Is `key` present?
    pub(crate) fn contains_key(&self, key: Vid) -> bool {
        self.get(key).is_some()
    }

    /// The entries in ascending key order.
    #[inline]
    pub(crate) fn iter(&self) -> Iter<'_, T> {
        let mut iter = Iter {
            root: self.root.as_deref(),
            path: [0; MAX_HEIGHT],
            leaf: Default::default(),
            remaining: self.len,
        };
        if let Some(root) = iter.root {
            iter.descend(root, 0);
        }
        iter
    }

    /// Build from an *already-retained*, strictly key-sorted pair vec,
    /// packing full leaves bottom-up: ownership of the keys' retains
    /// transfers in, so construction itself does no arena traffic. The
    /// bulk-construction funnel of [`crate::Bag`].
    pub(crate) fn from_retained_sorted(pairs: Vec<(Vid, T)>) -> VidMap<T> {
        debug_assert!(
            pairs.windows(2).all(|w| w[0].0 < w[1].0),
            "transferred pairs must be strictly key-sorted"
        );
        let len = pairs.len();
        let entries = pairs.into_iter().map(|(vid, value)| (Key::new(vid), value));
        let mut level = pack(entries, |entries| Node::Leaf(Leaf { entries }));
        while level.len() > 1 {
            level = pack(level.into_iter(), |children| {
                Node::Branch(Branch { children })
            });
        }
        VidMap {
            root: level.pop().map(|(_, root)| root),
            len,
        }
    }

    /// Shed a root that emptied, or that is a branch of one child.
    fn trim_root(&mut self) {
        loop {
            self.root = match self.root.as_deref() {
                Some(Node::Branch(branch)) if branch.children.len() == 1 => {
                    Some(Arc::clone(&branch.children[0].1))
                }
                Some(node) if node.size() == 0 => None,
                _ => return,
            };
        }
    }
}

impl<T: Clone> VidMap<T> {
    /// Run `op` on the leaf responsible for `key` (see [`edit_node`]) and
    /// keep the root and the entry count in step.
    fn edit<E>(
        &mut self,
        key: Key,
        op: impl FnOnce(&mut Vec<(Key, T)>, Result<usize, usize>) -> Result<Delta, E>,
    ) -> Result<(), E> {
        let root = self.root.get_or_insert_with(|| {
            Arc::new(Node::Leaf(Leaf {
                entries: node_vec(1),
            }))
        });
        let result = edit_node(root, key, op).map(|(delta, split)| {
            self.len = self
                .len
                .checked_add_signed(delta)
                .expect("the entry count follows the edits");
            if let Some(right) = split {
                let left = self.root.take().expect("the root was just edited");
                let children = vec![(left.max_key(), left), (right.max_key(), right)];
                self.root = Some(Arc::new(Node::Branch(Branch { children })));
            }
        });
        self.trim_root();
        result
    }

    /// Insert or overwrite, retaining the key if it was absent.
    pub(crate) fn insert(&mut self, key: Vid, value: T) {
        self.upsert_with::<std::convert::Infallible>(key, |_| Ok(Some(value)))
            .unwrap_or_else(|never| match never {});
    }

    /// One-walk insert-or-update-or-remove: `merge` sees the current value
    /// (if any) and returns the new one, `None` meaning remove/skip. The
    /// hot path of bag `⊎`.
    pub(crate) fn upsert_with<E>(
        &mut self,
        key: Vid,
        merge: impl FnOnce(Option<&T>) -> Result<Option<T>, E>,
    ) -> Result<(), E> {
        let key = Key::new(key);
        if self.root.is_none() {
            // The first key (most bags are singletons): build its leaf
            // directly.
            if let Some(value) = merge(None)? {
                intern::retain(key.vid);
                let mut entries = node_vec(1);
                entries.push((key, value));
                self.root = Some(Arc::new(Node::Leaf(Leaf { entries })));
                self.len = 1;
            }
            return Ok(());
        }
        self.edit(key, |entries, at| {
            Ok(match at {
                Err(at) => match merge(None)? {
                    Some(value) => {
                        intern::retain(key.vid);
                        entries.insert(at, (key, value));
                        1
                    }
                    None => 0,
                },
                Ok(at) => match merge(Some(&entries[at].1))? {
                    Some(value) => {
                        entries[at].1 = value;
                        0
                    }
                    None => {
                        entries.remove(at);
                        intern::release(key.vid);
                        -1
                    }
                },
            })
        })
    }

    /// Update the entry for `key` in place, default-inserting (and
    /// retaining) it first when absent.
    pub(crate) fn update_or_default(&mut self, key: Vid, update: impl FnOnce(&mut T))
    where
        T: Default,
    {
        let key = Key::new(key);
        self.edit::<std::convert::Infallible>(key, |entries, at| {
            let (at, delta) = match at {
                Ok(at) => (at, 0),
                Err(at) => {
                    intern::retain(key.vid);
                    entries.insert(at, (key, T::default()));
                    (at, 1)
                }
            };
            update(&mut entries[at].1);
            Ok(delta)
        })
        .unwrap_or_else(|never| match never {});
    }

    /// Keep only entries whose key/value satisfy `keep`, releasing the rest.
    pub(crate) fn retain_entries(&mut self, mut keep: impl FnMut(Vid, &T) -> bool) {
        if let Some(root) = &mut self.root {
            self.len -= retain_node(root, &mut keep);
            self.trim_root();
        }
    }
}

/// In-order iterator over a [`VidMap`]'s entries. Small and
/// allocation-free: it remembers the child index taken at each branch
/// level and walks down from the root again to step to the next leaf.
pub(crate) struct Iter<'a, T> {
    root: Option<&'a Node<T>>,
    /// The child index taken at each branch level above the current leaf.
    path: [u8; MAX_HEIGHT],
    leaf: std::slice::Iter<'a, (Key, T)>,
    remaining: usize,
}

impl<'a, T> Iter<'a, T> {
    /// Walk to the leftmost leaf under `node`, which sits `depth` branch
    /// levels below the root.
    fn descend(&mut self, mut node: &'a Node<T>, mut depth: usize) {
        loop {
            match node {
                Node::Leaf(leaf) => {
                    self.leaf = leaf.entries.iter();
                    return;
                }
                Node::Branch(branch) => {
                    self.path[depth] = 0;
                    depth += 1;
                    node = &branch.children[0].1;
                }
            }
        }
    }

    /// Step to the leaf after the current one: turn right at the deepest
    /// branch of the path that has a further child.
    fn next_leaf(&mut self) -> Option<()> {
        let mut node = self.root?;
        let mut turn = None;
        let mut depth = 0;
        while let Node::Branch(branch) = node {
            let at = usize::from(self.path[depth]);
            if at + 1 < branch.children.len() {
                turn = Some((depth, branch));
            }
            node = &branch.children[at].1;
            depth += 1;
        }
        let (depth, branch) = turn?;
        self.path[depth] += 1;
        self.descend(&branch.children[usize::from(self.path[depth])].1, depth + 1);
        Some(())
    }
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = (Vid, &'a T);

    #[inline]
    fn next(&mut self) -> Option<(Vid, &'a T)> {
        loop {
            if let Some((key, value)) = self.leaf.next() {
                self.remaining -= 1;
                return Some((key.vid, value));
            }
            if self.remaining == 0 {
                return None;
            }
            self.next_leaf()?;
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<T> ExactSizeIterator for Iter<'_, T> {}

impl<T> Default for VidMap<T> {
    fn default() -> VidMap<T> {
        VidMap::new()
    }
}

impl<T> Clone for VidMap<T> {
    /// `O(1)`: the clone shares every node.
    fn clone(&self) -> VidMap<T> {
        VidMap {
            root: self.root.clone(),
            len: self.len,
        }
    }
}

impl<T: Clone> FromIterator<(Vid, T)> for VidMap<T> {
    /// One insert per pair: duplicate keys keep the last value (and are
    /// retained once).
    fn from_iter<I: IntoIterator<Item = (Vid, T)>>(iter: I) -> VidMap<T> {
        let mut map = VidMap::new();
        for (key, value) in iter {
            map.insert(key, value);
        }
        map
    }
}

// Equality, ordering and hashing are those of the sorted entry sequence
// (what `BTreeMap<Vid, T>` defines): they depend on the contents only,
// never on how the entries are spread over nodes.

impl<T: PartialEq> PartialEq for VidMap<T> {
    fn eq(&self, other: &VidMap<T>) -> bool {
        self.ptr_eq(other) || (self.len == other.len && self.iter().eq(other.iter()))
    }
}

impl<T: Eq> Eq for VidMap<T> {}

impl<T: Ord> PartialOrd for VidMap<T> {
    fn partial_cmp(&self, other: &VidMap<T>) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T: Ord> Ord for VidMap<T> {
    fn cmp(&self, other: &VidMap<T>) -> Ordering {
        self.iter().cmp(other.iter())
    }
}

impl<T: Hash> Hash for VidMap<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.len.hash(state);
        for entry in self.iter() {
            entry.hash(state);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn probe(i: usize) -> Vid {
        intern::intern(Value::str(format!("gc-livemap-test-{i:04}")))
    }

    #[test]
    fn insert_upsert_remove_balance_out() {
        let mut m: VidMap<i64> = VidMap::new();
        let k = probe(0);
        m.insert(k, 1);
        // Overwriting insert must not double-retain.
        m.insert(k, 2);
        assert_eq!(m.len(), 1);
        // Removal through the one-walk upsert.
        m.upsert_with::<()>(k, |cur| {
            assert_eq!(cur, Some(&2));
            Ok(None)
        })
        .unwrap();
        assert!(m.is_empty());
        // Upserting a missing key with `None` neither inserts nor retains.
        m.upsert_with::<()>(k, |cur| {
            assert_eq!(cur, None);
            Ok(None)
        })
        .unwrap();
        assert!(m.is_empty());
    }

    #[test]
    fn clone_retains_and_drop_releases() {
        let mut m: VidMap<i64> = VidMap::new();
        let k = probe(1);
        m.insert(k, 7);
        let c = m.clone();
        drop(m);
        // The clone still protects the slot.
        assert_eq!(c.get(k), Some(&7));
        assert_eq!(k.value(), &Value::str("gc-livemap-test-0001"));
        drop(c);
    }

    #[test]
    fn or_default_retains_once() {
        let mut m: VidMap<i64> = VidMap::new();
        let k = probe(2);
        m.update_or_default(k, |v| *v += 5);
        m.update_or_default(k, |v| *v += 5);
        assert_eq!(m.get(k), Some(&10));
        // Balanced: one retain from update_or_default, one release here.
        m.retain_entries(|_, _| false);
        assert!(m.is_empty());
    }

    #[test]
    fn upsert_with_balance_is_observable_by_collection() {
        // The one-walk invariant of `upsert_with`: vacant + `Some` retains
        // exactly once, occupied + `Some` retains zero times, occupied +
        // `None` releases exactly once. The balance is observable through
        // actual reclamation — an over-retain would keep the slot alive
        // past the final release (failing the lookup assertion), an
        // under-retain would underflow the live count (debug assertion).
        let _serial = intern::gc_test_serial();
        let v = Value::str("gc-livemap-upsert-balance");
        let k = intern::intern(v.clone());
        let mut m: VidMap<i64> = VidMap::new();
        m.upsert_with::<()>(k, |cur| {
            assert!(cur.is_none());
            Ok(Some(1))
        })
        .unwrap();
        // In-place updates walk the occupied entry: no second retain…
        for _ in 0..3 {
            m.upsert_with::<()>(k, |cur| Ok(cur.map(|c| c + 1)))
                .unwrap();
        }
        assert_eq!(m.get(k), Some(&4));
        // …so one removal brings the count back to zero.
        m.upsert_with::<()>(k, |_| Ok(None)).unwrap();
        assert!(m.is_empty());
        intern::collect_now();
        assert!(
            intern::lookup(&v).is_none(),
            "balanced upserts must leave the slot collectible"
        );
    }

    #[test]
    fn upsert_inserted_keys_are_released_on_map_drop() {
        let _serial = intern::gc_test_serial();
        let v = Value::str("gc-livemap-upsert-drop");
        let mut m: VidMap<i64> = VidMap::new();
        m.upsert_with::<()>(intern::intern(v.clone()), |_| Ok(Some(1)))
            .unwrap();
        drop(m);
        intern::collect_now();
        assert!(
            intern::lookup(&v).is_none(),
            "drop must release keys inserted through upsert_with"
        );
    }

    /// Structural audit: sizes in `1..FANOUT`, one leaf depth, strictly
    /// ascending keys, every separator equal to its subtree's largest key,
    /// `len` equal to the entry count. Returns the tree's height.
    fn audit<T>(map: &VidMap<T>) -> usize {
        fn walk<T>(node: &Node<T>, keys: &mut Vec<Vid>) -> usize {
            assert!(
                (1..FANOUT).contains(&node.size()),
                "node size out of bounds"
            );
            match node {
                Node::Leaf(leaf) => {
                    keys.extend(leaf.entries.iter().map(|(key, _)| {
                        assert_eq!(key.rank, key.vid.rank(), "cached rank out of date");
                        key.vid
                    }));
                    1
                }
                Node::Branch(branch) => {
                    let mut depths = branch.children.iter().map(|(separator, child)| {
                        let depth = walk(child, keys);
                        assert_eq!(*separator, child.max_key(), "separator rule broken");
                        depth
                    });
                    let depth = depths.next().expect("non-empty branch");
                    assert!(depths.all(|d| d == depth), "leaves at different depths");
                    depth + 1
                }
            }
        }
        let mut keys = Vec::new();
        let height = map.root.as_deref().map_or(0, |root| walk(root, &mut keys));
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys out of order");
        assert_eq!(keys.len(), map.len());
        assert!(map.iter().map(|(key, _)| key).eq(keys.iter().copied()));
        height
    }

    /// A deterministic shuffle of `0..n`.
    fn shuffled(n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..n).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            order.swap(i, (x % (i as u64 + 1)) as usize);
        }
        order
    }

    #[test]
    fn tree_splits_on_growth_and_merges_on_shrinkage() {
        let n = 40 * FANOUT;
        let keys: Vec<Vid> = (1000..1000 + n).map(probe).collect();
        let mut m: VidMap<i64> = VidMap::new();
        for (step, &i) in shuffled(n).iter().enumerate() {
            m.insert(keys[i], i as i64);
            if step % 97 == 0 {
                audit(&m);
            }
        }
        assert!(audit(&m) >= 3, "{n} entries need two branch levels");
        for (i, &key) in keys.iter().enumerate() {
            assert_eq!(m.get(key), Some(&(i as i64)));
        }
        // Shrink to a handful of entries spread over the key range: sparse
        // siblings merge and the root collapses instead of leaving a tall
        // skeleton of one-entry nodes.
        for (step, &i) in shuffled(n).iter().enumerate() {
            if i % (4 * FANOUT) != 0 {
                m.upsert_with::<()>(keys[i], |_| Ok(None)).unwrap();
            }
            if step % 97 == 0 {
                audit(&m);
            }
        }
        assert_eq!(m.len(), 10);
        assert_eq!(audit(&m), 1, "ten entries fit one leaf");
        m.retain_entries(|_, _| false);
        assert_eq!(audit(&m), 0);
        assert!(m.iter().next().is_none());
    }

    #[test]
    fn bulk_build_and_retain_keep_the_structure_sound() {
        let n = 25 * FANOUT + 3;
        let mut keys: Vec<Vid> = (3000..3000 + n).map(probe).collect();
        keys.sort();
        let mut m = VidMap::from_retained_sorted(
            keys.iter()
                .map(|&key| {
                    intern::retain(key);
                    (key, 1i64)
                })
                .collect(),
        );
        audit(&m);
        assert_eq!(m.len(), n);
        let before = m.clone();
        let mut nth = 0;
        m.retain_entries(|_, _| {
            nth += 1;
            nth % 9 == 0
        });
        audit(&m);
        assert_eq!(m.len(), n / 9);
        assert!(m
            .iter()
            .map(|(key, _)| key)
            .eq(keys.iter().copied().skip(8).step_by(9)));
        // The clone taken before the filter is untouched.
        audit(&before);
        assert!(before.iter().map(|(key, _)| key).eq(keys.iter().copied()));
        // Duplicate keys in a collected map keep the last value.
        let dup: VidMap<i64> = [(keys[1], 1), (keys[0], 2), (keys[1], 3)]
            .into_iter()
            .collect();
        assert_eq!(dup.len(), 2);
        assert_eq!(dup.get(keys[1]), Some(&3));
    }

    #[test]
    fn a_clone_is_a_snapshot_and_writes_copy_only_their_path() {
        let n = 30 * FANOUT;
        let mut keys: Vec<Vid> = (5000..5000 + n + 1).map(probe).collect();
        keys.sort();
        let fresh = keys.pop().expect("one spare key");
        let mut m = VidMap::from_retained_sorted(
            keys.iter()
                .map(|&key| {
                    intern::retain(key);
                    (key, 0i64)
                })
                .collect(),
        );
        let height = audit(&m);
        let snapshot = m.clone();
        assert!(m.ptr_eq(&snapshot));
        m.insert(fresh, 1);
        m.upsert_with::<()>(keys[7], |_| Ok(None)).unwrap();
        assert!(!m.ptr_eq(&snapshot));
        assert_eq!(snapshot.len(), n);
        assert_eq!(snapshot.get(fresh), None);
        assert_eq!(snapshot.get(keys[7]), Some(&0));
        assert_eq!(m.get(fresh), Some(&1));
        assert_eq!(m.get(keys[7]), None);
        audit(&m);
        audit(&snapshot);
        // Two writes share at most two root-to-leaf paths with the
        // snapshot; every other leaf is still the snapshot's.
        fn leaves<T>(node: &Arc<Node<T>>, out: &mut Vec<*const Node<T>>) {
            match &**node {
                Node::Leaf(_) => out.push(Arc::as_ptr(node)),
                Node::Branch(branch) => {
                    branch.children.iter().for_each(|(_, c)| leaves(c, out));
                }
            }
        }
        let (mut mine, mut theirs) = (Vec::new(), Vec::new());
        leaves(m.root.as_ref().expect("non-empty"), &mut mine);
        leaves(snapshot.root.as_ref().expect("non-empty"), &mut theirs);
        let copied = mine.iter().filter(|leaf| !theirs.contains(leaf)).count();
        assert!(
            copied <= 2 + height,
            "{copied} leaves copied for two writes"
        );
    }

    #[test]
    fn separators_stay_live_when_their_key_leaves_the_map() {
        // A stale separator would trip `Vid`'s generation check on the next
        // descent: delete exactly the keys that serve as separators, let
        // the arena reclaim them, then search through every branch again.
        let _serial = intern::gc_test_serial();
        let n = 20 * FANOUT;
        let mut keys: Vec<Vid> = (0..n)
            .map(|i| intern::intern(Value::str(format!("gc-livemap-separator-{i:05}"))))
            .collect();
        keys.sort();
        let mut m: VidMap<i64> = keys.iter().map(|&key| (key, 1)).collect();
        let snapshot = m.clone();
        fn separators<T>(node: &Node<T>, out: &mut Vec<Vid>) {
            if let Node::Branch(branch) = node {
                for (separator, child) in &branch.children {
                    out.push(separator.vid);
                    separators(child, out);
                }
            }
        }
        for round in 0..3 {
            let mut doomed = Vec::new();
            separators(m.root.as_deref().expect("non-empty"), &mut doomed);
            doomed.sort();
            doomed.dedup();
            assert!(!doomed.is_empty());
            if round == 1 {
                m.retain_entries(|key, _| doomed.binary_search(&key).is_err());
            } else {
                for &key in &doomed {
                    m.upsert_with::<()>(key, |_| Ok(None)).unwrap();
                }
            }
            if round == 0 {
                // The snapshot still holds every key: nothing may be freed.
                intern::collect_now();
                assert!(snapshot.iter().all(|(key, _)| key.try_value().is_ok()));
            } else {
                drop(snapshot.clone());
            }
            audit(&m);
        }
        drop(snapshot);
        intern::collect_now();
        audit(&m);
        let survivors: Vec<Vid> = m.iter().map(|(key, _)| key).collect();
        for &key in &survivors {
            assert_eq!(m.get(key), Some(&1));
            m.update_or_default(key, |v| *v += 1);
        }
        assert!(m.iter().all(|(_, v)| *v == 2));
    }

    #[test]
    fn bulk_build_takes_over_the_callers_retains() {
        let _serial = intern::gc_test_serial();
        let vals: Vec<Value> = (0..4)
            .map(|i| Value::str(format!("gc-bulk-build-{i}")))
            .collect();
        let mut ids: Vec<Vid> = vals.iter().map(|v| intern::intern(v.clone())).collect();
        ids.sort();
        for &id in &ids {
            intern::retain(id);
        }
        let map: VidMap<i64> =
            VidMap::from_retained_sorted(ids.iter().map(|&id| (id, 1)).collect());
        intern::collect_now();
        for v in &vals {
            assert!(
                intern::lookup(v).is_some(),
                "the transferred retain must survive collection"
            );
        }
        drop(map);
        intern::collect_now();
        for v in &vals {
            assert!(
                intern::lookup(v).is_none(),
                "dropping the map must release the transferred retains"
            );
        }
    }

    #[test]
    fn retain_entries_releases_dropped_keys() {
        let mut m: VidMap<i64> = VidMap::new();
        let keep = probe(3);
        let toss = probe(4);
        m.insert(keep, 1);
        m.insert(toss, 2);
        m.retain_entries(|k, _| k == keep);
        assert_eq!(m.len(), 1);
        assert!(m.contains_key(keep));
    }
}
