//! Hash-consed value interning with epoch-based arena reclamation.
//!
//! Every hot path of the reproduction — delta application, shredded
//! dictionary lookups, recursive auxiliary refresh — manipulates nested
//! [`Value`] trees through [`crate::Bag`]s. Storing the trees themselves as
//! map keys makes each comparison a deep `Ord` traversal and each copy a
//! deep clone. This module applies the standard systems remedy, *hash
//! consing*: a global arena assigns every distinct `Value` a small
//! identifier [`Vid`], and all bag/dictionary internals key on `Vid`
//! instead of `Value`.
//!
//! The arena caches three things per interned value:
//!
//! * **hash** — a structural hash (nested interned children hash by id), so
//!   `Hash` for `Vid` is `O(1)`;
//! * **rank** — an *order-homomorphic* 64-bit prefix of the value's position
//!   in the canonical [`Ord`] on `Value`: `rank(a) < rank(b)` implies
//!   `a < b`. Comparisons resolve with one integer compare in the common
//!   case and fall back to a deep compare only on rank ties (where interned
//!   sub-structure still short-circuits equal subtrees in `O(1)`);
//! * **depth** — the constructor nesting depth, handy for diagnostics and
//!   cost accounting.
//!
//! Equality of `Vid`s is an integer compare: hash consing guarantees equal
//! values intern to equal ids. Iteration order of id-keyed maps equals the
//! seed's value-keyed order because `Ord for Vid` refines the exact same
//! total order (see `vid_order_matches_value_order` below).
//!
//! # Reclamation
//!
//! The PR-2 arena was append-only and leaked by design, which is fatal for
//! unbounded streams of ever-fresh values. The arena is now *collectible*:
//!
//! * Every slot carries a **live count** (`rc`): the number of references
//!   held by id-keyed [`crate::Bag`]/[`crate::Dictionary`] maps (including
//!   maps nested inside other interned values). Map inserts retain, map
//!   drops/removals release — see `crate::livemap::VidMap`.
//! * When a count hits zero the slot is recorded on a **dying list**
//!   together with the current **epoch**. Slots that were *never* retained
//!   (transient ids that never entered a map) are immortal — they are never
//!   enqueued, so a collector can never snatch an id out of a caller's
//!   hands before it reaches a map.
//! * [`collect`] sweeps the dying list: slots still dead, and dead since
//!   before every pinned epoch, are unhashed, their boxed `Value` dropped
//!   (recursively releasing nested children), and their index pushed onto a
//!   **free list** that [`intern`] reuses before growing the arena.
//! * [`collect_bounded`] is the *incremental* form: it frees at most
//!   `max_slots` slots per call, resuming from a **persistent sweep
//!   cursor** (the head of a process-global sweep queue) on the next call.
//!   Latency-sensitive callers amortize reclamation into many small pauses
//!   instead of one stop-the-world sweep; repeated bounded calls converge
//!   to exactly the state a full sweep reaches (`CollectStats::pending`
//!   reports the backlog still to visit).
//! * The sweep queue holds **one entry per dying slot**, not one per death.
//!   A slot revived by a lookup hit and released again queues a second
//!   entry while its first may still be queued (under a pin, deferred
//!   entries stay); each sweep pass examines the first entry it meets for
//!   a slot and drops the rest before taking any lock (see
//!   [`collect_bounded`]). Otherwise, while a published snapshot holds a
//!   pin, every sweep would re-examine one entry per death: O(batches).
//! * Reused slots are **generation-tagged**: `Vid` stays `Copy` by carrying
//!   `(index, generation)`, and every resolve checks the slot's current
//!   generation. Using a `Vid` whose slot was reclaimed is a deterministic
//!   error (panic, or `Err` via [`Vid::try_value`]) — never a wrong value.
//!
//! ## Safety protocol
//!
//! The collector frees a slot only when (a) its live count is zero, (b) it
//! died before the sweep's horizon epoch, and (c) no [`pin`] guard from an
//! earlier epoch is outstanding. Three rules make this sound:
//!
//! 1. ids obtained from a live map are protected by that map's live count;
//! 2. transient ids (interned but not yet inserted anywhere) are protected
//!    because zero-count slots are only collectible after a retain/release
//!    cycle, and a lookup hit on a dying slot *resurrects* it under the
//!    same shard lock the collector must take to free it;
//! 3. evaluation paths that resolve ids across many intermediate maps hold
//!    an [`pin`] guard, so a concurrent collector's horizon can never pass
//!    the evaluation's start epoch.
//!
//! A caller that violates the protocol (resolving an id after its last
//! reference was dropped *and* a collect ran) hits the generation check and
//! panics deterministically. The intended cadence — the engine collects
//! between batches via `CollectPolicy` — never races an evaluation.

use crate::base::BaseValue;
use crate::dict::Label;
use crate::error::DataError;
use crate::value::Value;
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::mem::MaybeUninit;
use std::sync::atomic::{
    AtomicBool, AtomicI32, AtomicPtr, AtomicU32, AtomicU64, Ordering as AtomicOrdering,
};
use std::sync::{LazyLock, Mutex, RwLock};

/// An interned value id: a handle into the global hash-consing arena.
///
/// `Vid` is `Copy`, compares for equality in `O(1)`, hashes in `O(1)` via
/// the cached structural hash, and orders consistently with the canonical
/// [`Ord`] on [`Value`] (rank prefix first, deep compare only on ties).
///
/// A `Vid` carries the **generation** of the slot it was created from; if
/// the slot has since been reclaimed by [`collect`] (and possibly reused
/// for a different value), every access through this id fails
/// deterministically instead of resolving to the wrong value.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Vid {
    idx: u32,
    gen: u32,
}

impl Vid {
    /// The interned value this id stands for.
    ///
    /// The reference is valid for as long as the slot stays live — i.e.
    /// while any bag/dictionary retains the id, while the caller holds an
    /// epoch [`pin`] taken before the last release, or until the next
    /// [`collect`]. Panics if the slot was already reclaimed.
    #[inline]
    pub fn value(self) -> &'static Value {
        match self.try_value() {
            Ok(v) => v,
            Err(_) => stale_vid_panic(self.idx, self.gen),
        }
    }

    /// Fallible [`Vid::value`]: `Err(DataError::StaleVid)` when the slot
    /// was reclaimed (generation mismatch) instead of panicking.
    #[inline]
    pub fn try_value(self) -> Result<&'static Value, DataError> {
        let s = slot(self.idx);
        let ptr = s.value.load(AtomicOrdering::Acquire);
        if s.gen.load(AtomicOrdering::Acquire) != self.gen || ptr.is_null() {
            return Err(DataError::StaleVid {
                index: self.idx,
                generation: self.gen,
            });
        }
        // SAFETY: the slot was occupied at generation `self.gen` when the
        // pointer was published (Release in `install`), and the matching
        // generation we just observed means no sweep has retired it. The
        // reclamation protocol (live counts / resurrection under the shard
        // lock / epoch pins, see module docs) guarantees no sweep retires
        // it while the caller still legitimately holds this id.
        Ok(unsafe { &*ptr })
    }

    /// The cached structural hash.
    #[inline]
    pub fn cached_hash(self) -> u64 {
        self.checked().hash.load(AtomicOrdering::Relaxed)
    }

    /// The cached order-homomorphic rank prefix.
    #[inline]
    pub fn rank(self) -> u64 {
        self.checked().rank.load(AtomicOrdering::Relaxed)
    }

    /// The cached constructor nesting depth (base values and labels with
    /// flat arguments have depth 0).
    #[inline]
    pub fn depth(self) -> u32 {
        self.checked().depth.load(AtomicOrdering::Relaxed)
    }

    /// The raw arena index (diagnostics only — not stable across processes,
    /// and reusable across generations once the slot is collected).
    #[inline]
    pub fn index(self) -> u32 {
        self.idx
    }

    /// The slot generation this id was created at (diagnostics).
    #[inline]
    pub fn generation(self) -> u32 {
        self.gen
    }

    /// The slot, after the deterministic staleness check.
    #[inline]
    fn checked(self) -> &'static Slot {
        let s = slot(self.idx);
        if s.gen.load(AtomicOrdering::Acquire) != self.gen {
            stale_vid_panic(self.idx, self.gen);
        }
        s
    }

    /// Resolve to a label, panicking when the interned value is not one.
    /// Dictionary supports rely on this: their keys are always labels.
    #[inline]
    pub(crate) fn as_label(self) -> &'static Label {
        match self.value() {
            Value::Label(l) => l,
            other => unreachable!("interned dictionary key is not a label: {other}"),
        }
    }
}

#[cold]
#[inline(never)]
fn stale_vid_panic(idx: u32, gen: u32) -> ! {
    panic!(
        "stale Vid({idx}@g{gen}): the arena slot was reclaimed by intern::collect \
         (current generation {}); the id outlived every bag/dictionary reference \
         and epoch pin that kept it live",
        slot(idx).gen.load(AtomicOrdering::Acquire)
    );
}

impl PartialOrd for Vid {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Vid {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        if self.idx == other.idx && self.gen == other.gen {
            return Ordering::Equal;
        }
        // Generation-checked on both sides (measured free next to the rank
        // loads): comparing a stale id must fail deterministically, never
        // order by a reused slot's rank.
        let (a, b) = (self.checked(), other.checked());
        match a
            .rank
            .load(AtomicOrdering::Relaxed)
            .cmp(&b.rank.load(AtomicOrdering::Relaxed))
        {
            // Distinct values with equal rank prefixes: fall back to the
            // deep canonical order. Shared interned subtrees still compare
            // in O(1) through nested `Vid` equality.
            Ordering::Equal => self.value().cmp(other.value()),
            unequal => unequal,
        }
    }
}

impl Hash for Vid {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.cached_hash());
    }
}

impl fmt::Debug for Vid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Vid({}@g{} ↦ {})", self.idx, self.gen, self.value())
    }
}

impl fmt::Display for Vid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.value())
    }
}

/// Scan one hash bucket for an already-interned equal value.
fn find_interned(map: &HashMap<u64, Vec<u32>>, hash: u64, value: &Value) -> Option<u32> {
    map.get(&hash)?
        .iter()
        .copied()
        .find(|&id| slot(id).value_ref() == value)
}

/// Build the `Vid` for an index found in a shard map. Must be called while
/// the shard lock (read or write) is held: occupied slots can only be
/// retired under the shard *write* lock, so the generation is stable here.
#[inline]
fn vid_at(idx: u32) -> Vid {
    let s = slot(idx);
    // A lookup hit on a dying slot resurrects it: clearing `enqueued` makes
    // the pending dying-list entry a no-op, so the returned id stays valid
    // at least until its next retain/release cycle. This runs under the
    // same shard lock the collector needs (exclusively) to free the slot.
    if s.enqueued.load(AtomicOrdering::Acquire) {
        s.enqueued.store(false, AtomicOrdering::Release);
    }
    Vid {
        idx,
        gen: s.gen.load(AtomicOrdering::Acquire),
    }
}

/// Intern a value, returning its id (allocating on first sight, reusing a
/// collected slot when the free list has one).
pub fn intern(value: Value) -> Vid {
    let hash = hash_value(&value);
    let interner = &*INTERNER;
    let shard = &interner.shards[shard_of(hash)];
    // Hits (the steady-state case) take only the shared read lock.
    {
        let map = shard.read().expect("intern shard");
        if let Some(id) = find_interned(&map, hash, &value) {
            return vid_at(id);
        }
    }
    let rank = rank_of(&value);
    let depth = depth_of(&value);
    let bytes = approx_bytes(&value);
    let mut map = shard.write().expect("intern shard");
    // Another thread may have interned the same value between the locks.
    if let Some(id) = find_interned(&map, hash, &value) {
        return vid_at(id);
    }
    let leaked: *mut Value = Box::into_raw(Box::new(value));
    let meta = SlotInit {
        value: leaked,
        hash,
        rank,
        depth,
        bytes,
    };
    // Prefer a reclaimed slot; grow the arena only when the free list is
    // empty. Both paths finish by publishing the (new) generation.
    let reused = interner.free.lock().expect("intern free list").pop();
    let vid = match reused {
        Some(idx) => {
            debug_assert_eq!(rc_of(idx).load(AtomicOrdering::Acquire), 0);
            let gen = slot(idx).install(meta);
            interner.stats.reused.fetch_add(1, AtomicOrdering::Relaxed);
            Vid { idx, gen }
        }
        None => {
            let _append = interner.append.lock().expect("intern append");
            let idx = interner.arena.push(meta);
            Vid { idx, gen: 0 }
        }
    };
    interner.stats.live.fetch_add(1, AtomicOrdering::Relaxed);
    interner
        .stats
        .bytes
        .fetch_add(bytes, AtomicOrdering::Relaxed);
    map.entry(hash).or_default().push(vid.idx);
    vid
}

/// Look a value up without interning it: `None` when it was never interned.
/// Pure reads (e.g. [`crate::Bag::multiplicity`]) use this so probing for
/// absent values does not grow the arena; concurrent readers share the
/// shard lock.
pub fn lookup(value: &Value) -> Option<Vid> {
    let hash = hash_value(value);
    let map = INTERNER.shards[shard_of(hash)]
        .read()
        .expect("intern shard");
    find_interned(&map, hash, value).map(vid_at)
}

/// Look up a label's id without constructing (or interning) a `Value`
/// wrapper — the dictionary-support fast path (shared read lock only).
pub fn lookup_label(label: &Label) -> Option<Vid> {
    let mut h = DefaultHasher::new();
    h.write_u8(TAG_LABEL);
    hash_label(label, &mut h);
    let hash = h.finish();
    let map = INTERNER.shards[shard_of(hash)]
        .read()
        .expect("intern shard");
    let ids = map.get(&hash)?;
    ids.iter()
        .copied()
        .find(|&id| matches!(slot(id).value_ref(), Value::Label(l) if l == label))
        .map(vid_at)
}

/// Intern a label as a dictionary-support key.
pub fn intern_label(label: Label) -> Vid {
    intern(Value::Label(label))
}

// ---------------------------------------------------------------------------
// Liveness: per-slot live counts maintained by the id-keyed maps.
// ---------------------------------------------------------------------------

/// Record one more map reference to `vid`. Called by `VidMap` on key
/// insertion and map clone.
///
/// Live counts live in a *dense* side array (16 per cache line) rather
/// than inside the 64-byte slots: map clones and drops sweep every key,
/// and that sweep is the hottest reclamation cost by far.
pub(crate) fn retain(vid: Vid) {
    debug_assert_eq!(
        slot(vid.idx).gen.load(AtomicOrdering::Acquire),
        vid.gen,
        "retain of a stale Vid"
    );
    let prev = rc_of(vid.idx).fetch_add(1, AtomicOrdering::AcqRel);
    debug_assert!(prev >= 0, "intern live count underflowed before retain");
}

/// Drop one map reference to `vid`. On the last release the slot joins the
/// dying list, stamped with the current epoch; [`collect`] may reclaim it
/// once every pin from before that epoch is gone. Called by `VidMap` on key
/// removal and map drop (including drops of values nested inside the arena
/// itself, which is what cascades collection through value trees).
pub(crate) fn release(vid: Vid) {
    let prev = rc_of(vid.idx).fetch_sub(1, AtomicOrdering::AcqRel);
    debug_assert!(prev > 0, "intern live count underflowed");
    if prev == 1 {
        let s = slot(vid.idx);
        debug_assert_eq!(
            s.gen.load(AtomicOrdering::Acquire),
            vid.gen,
            "release of a stale Vid"
        );
        s.dead_since
            .store(EPOCH.load(AtomicOrdering::Acquire), AtomicOrdering::Release);
        if !s.enqueued.swap(true, AtomicOrdering::AcqRel) {
            // Poisoning is survivable here: release runs from Drop impls
            // during unwinds and must not double-panic.
            let mut dying = match INTERNER.dying.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            dying.push(vid.idx);
        }
    }
}

// ---------------------------------------------------------------------------
// Epochs, pins and collection.
// ---------------------------------------------------------------------------

/// A point in the global reclamation clock. Epochs only move forward
/// ([`advance_epoch`]); [`collect`] reclaims slots that died strictly
/// before its horizon epoch (further limited by outstanding pins).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Epoch(pub u64);

/// The reclamation clock. Starts at 1 so epoch 0 can never equal a death
/// stamp taken before any advance.
static EPOCH: AtomicU64 = AtomicU64::new(1);

/// Advance the reclamation clock, returning the new epoch. Typically called
/// right before [`collect`] (or via [`collect_now`]) so everything that
/// died under the previous epoch becomes eligible.
pub fn advance_epoch() -> Epoch {
    Epoch(EPOCH.fetch_add(1, AtomicOrdering::AcqRel) + 1)
}

/// An epoch pin: while alive, no [`collect`] horizon can pass the epoch at
/// which it was taken, so any slot that dies *at or after* that epoch stays
/// resolvable for the pin's lifetime. (A slot that was already dying when
/// the pin was taken is not shielded — protect such ids by re-interning or
/// holding a map reference, which retains them.) Evaluation paths hold one
/// around their whole run so ids created and released mid-evaluation can
/// never be swept from under them.
#[must_use = "an epoch pin only protects ids while it is held"]
pub struct EpochPin {
    epoch: u64,
}

/// Pin the current epoch (see [`EpochPin`]).
pub fn pin() -> EpochPin {
    let mut pins = INTERNER.pins.lock().expect("epoch pins");
    let epoch = EPOCH.load(AtomicOrdering::Acquire);
    *pins.entry(epoch).or_insert(0) += 1;
    EpochPin { epoch }
}

impl EpochPin {
    /// The epoch this pin was taken at: no collection horizon can pass it
    /// while the pin is held.
    #[must_use]
    pub fn epoch(&self) -> Epoch {
        Epoch(self.epoch)
    }
}

/// The oldest outstanding pinned epoch — the *pin horizon*: no collection
/// can reclaim a slot that died at or after it. `None` when no pin is held
/// (sweeps are then limited only by their own horizon epoch).
///
/// Serving layers that hand out long-lived snapshots (each holding an
/// [`EpochPin`]) surface this figure in their stats: the horizon equals the
/// oldest outstanding snapshot's epoch, and dropping that snapshot advances
/// it — the observable guarantee that bounded GC never frees a slot a live
/// snapshot can still resolve.
#[must_use]
pub fn pin_horizon() -> Option<Epoch> {
    min_pinned().map(Epoch)
}

impl Drop for EpochPin {
    fn drop(&mut self) {
        let mut pins = match INTERNER.pins.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        if let Some(n) = pins.get_mut(&self.epoch) {
            *n -= 1;
            if *n == 0 {
                pins.remove(&self.epoch);
            }
        }
    }
}

fn min_pinned() -> Option<u64> {
    INTERNER
        .pins
        .lock()
        .expect("epoch pins")
        .keys()
        .next()
        .copied()
}

/// Outcome of one [`collect`] / [`collect_bounded`] sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CollectStats {
    /// Slots reclaimed (unhashed, value dropped, index freed for reuse).
    pub freed: u64,
    /// Dying-list entries skipped because the slot was referenced again
    /// (retained or re-interned) before the sweep reached it — including
    /// duplicate entries a sweep drops for a slot it already examined this
    /// pass, which exist only because the slot was revived after its older
    /// entry was queued and then died again.
    pub resurrected: u64,
    /// Entries still dead but too young for the horizon (or shielded by a
    /// pin); they stay on the sweep queue for a later sweep.
    pub deferred: u64,
    /// Dying-list entries still queued when the call returned — nonzero
    /// when a bounded sweep ran out of budget (or everything examined was
    /// deferred), zero after an unbounded sweep of quiescent garbage.
    pub pending: u64,
}

/// Sweep the dying list, reclaiming every slot that (a) still has a zero
/// live count, and (b) died strictly before `horizon` *and* before every
/// outstanding [`pin`]. Freed indices go to the free list [`intern`] reuses;
/// freed values drop recursively, releasing nested children (a cascade the
/// next sweep picks up).
///
/// Thread-safe: concurrent interning/lookups proceed per shard, a lookup
/// hit resurrects a dying slot under the shard lock, and sweeps serialize
/// among themselves. Equivalent to `collect_bounded(horizon, u64::MAX)`.
pub fn collect(horizon: Epoch) -> CollectStats {
    collect_bounded(horizon, u64::MAX)
}

/// The bounded, incremental form of [`collect`]: free at most `max_slots`
/// slots, then return — leaving the rest of the backlog on a **persistent
/// sweep queue** whose head acts as the sweep cursor for the next call.
///
/// Pause-bounding contract:
///
/// * at most `max_slots` slots are reclaimed (the expensive part: an
///   exclusive shard lock plus a recursive value drop per slot);
/// * at most the entries queued at call start are *examined*, each under
///   the exclusive lock of its slot's shard; entries that must stay dying
///   (too young, or shielded by a pin) rotate to the back of the queue and
///   are not revisited this call, so a backlog of unreclaimable slots
///   cannot spin the sweep;
/// * at most **one entry per slot** is examined per call. A slot revived
///   by a lookup hit and released again queues a second entry; the first
///   entry the call meets decides the slot, and every later one is dropped
///   before any lock is taken (counted in [`CollectStats::resurrected`]).
///   Dropping is sound: the deciding entry either went back on the queue,
///   or left the slot's `enqueued` flag clear so any later death queued a
///   fresh entry. Either way the slot keeps one entry, and the queue holds
///   O(distinct dying slots) however long a pin is held.
///
/// The epoch/generation protocol is identical to a full sweep: every free
/// happens under the exclusive shard lock, resurrection (a lookup hit on a
/// queued slot — including one the cursor already passed and deferred)
/// still wins against a later sweep until the slot dies again, and stale
/// ids keep failing deterministically even when their slot is reused while
/// earlier queue entries are still pending. Repeated bounded calls with a fresh horizon
/// (see [`collect_bounded_now`]) converge to exactly the live set and
/// [`ArenaStats`] a single full sweep reaches once `freed` and `pending`
/// both hit zero. `max_slots == 0` examines nothing and just reports the
/// backlog.
pub fn collect_bounded(horizon: Epoch, max_slots: u64) -> CollectStats {
    let obs_start = nrc_obs::enabled().then(std::time::Instant::now);
    let interner = &*INTERNER;
    let mut sweep = interner.sweep.lock().expect("intern sweep");
    *sweep = sweep.wrapping_add(1);
    if *sweep == 0 {
        // The pass number wrapped: clear every stamp, so that no slot's
        // stamp from 2^32 passes ago can match the passes to come.
        for idx in 0..interner.arena.len.load(AtomicOrdering::Acquire) {
            slot(idx).swept_in.store(0, AtomicOrdering::Relaxed);
        }
        *sweep = 1;
    }
    let pass = *sweep;
    let mut limit = horizon.0.min(EPOCH.load(AtomicOrdering::Acquire));
    if let Some(p) = min_pinned() {
        limit = limit.min(p);
    }
    // The sweep queue is only touched under the sweep lock; `release` (which
    // may run concurrently, or re-entrantly from the value drops below)
    // pushes to the `dying` inbox instead, drained here.
    let mut queue = interner.backlog.lock().expect("intern sweep queue");
    {
        let mut inbox = interner.dying.lock().expect("intern dying list");
        queue.extend(inbox.drain(..));
    }
    let mut stats = CollectStats::default();
    let mut examine = if max_slots == 0 { 0 } else { queue.len() };
    while examine > 0 && stats.freed < max_slots {
        examine -= 1;
        let idx = queue
            .pop_front()
            .expect("examine is bounded by queue.len()");
        let s = slot(idx);
        if s.swept_in.swap(pass, AtomicOrdering::Relaxed) == pass {
            // This pass already decided the slot on an earlier entry, which
            // either went back on the queue or left `enqueued` clear (so any
            // later death queued a fresh entry in the inbox). Either way the
            // slot keeps one entry: drop this one without a shard lock.
            stats.resurrected += 1;
            continue;
        }
        let shard = &interner.shards[shard_of(s.hash.load(AtomicOrdering::Relaxed))];
        let mut map = shard.write().expect("intern shard");
        // Re-check everything under the exclusive shard lock: resolution of
        // the shard's ids and resurrection both take (at least) the shared
        // lock, so the state checked here cannot shift under our feet.
        if !s.enqueued.load(AtomicOrdering::Acquire) {
            // Resurrected by a lookup hit (or already processed).
            stats.resurrected += 1;
            continue;
        }
        if rc_of(idx).load(AtomicOrdering::Acquire) > 0 {
            // Retained again after its last release: alive. Clear the flag
            // so the next death re-enqueues it.
            s.enqueued.store(false, AtomicOrdering::Release);
            stats.resurrected += 1;
            continue;
        }
        if s.dead_since.load(AtomicOrdering::Acquire) >= limit {
            // Too young (or shielded by a pin): keep it dying, behind the
            // cursor — `examine` guarantees it is not revisited this call.
            queue.push_back(idx);
            stats.deferred += 1;
            continue;
        }
        // Reclaim: unhash, retire the generation, drop the value, free the
        // index. The generation bump happens before the pointer is cleared
        // so a stale id always fails its check instead of reading a hole.
        let hash = s.hash.load(AtomicOrdering::Relaxed);
        if let Some(bucket) = map.get_mut(&hash) {
            bucket.retain(|&i| i != idx);
            if bucket.is_empty() {
                map.remove(&hash);
            }
        }
        s.enqueued.store(false, AtomicOrdering::Release);
        s.gen.fetch_add(1, AtomicOrdering::AcqRel); // now odd: retired
        let ptr = s.value.swap(std::ptr::null_mut(), AtomicOrdering::AcqRel);
        let bytes = s.bytes.load(AtomicOrdering::Relaxed);
        drop(map);
        // SAFETY: the pointer came from `Box::into_raw` in `intern`, the
        // slot was occupied (enqueued ⇒ installed), and retiring the
        // generation under the exclusive shard lock removed every way to
        // obtain a fresh reference. Dropping may recursively `release`
        // nested children — which takes the dying-list inbox lock, not held
        // here (the sweep queue lock is, but `release` never touches it).
        drop(unsafe { Box::from_raw(ptr) });
        interner.free.lock().expect("intern free list").push(idx);
        interner.stats.live.fetch_sub(1, AtomicOrdering::Relaxed);
        interner.stats.dead.fetch_add(1, AtomicOrdering::Relaxed);
        interner
            .stats
            .bytes
            .fetch_sub(bytes, AtomicOrdering::Relaxed);
        stats.freed += 1;
    }
    stats.pending =
        queue.len() as u64 + interner.dying.lock().expect("intern dying list").len() as u64;
    if let Some(t) = obs_start {
        // Cached registry handles: collection runs at the GC cadence, not
        // per record, so one relaxed add each is well below noise.
        static COLLECTIONS: LazyLock<std::sync::Arc<nrc_obs::Counter>> =
            LazyLock::new(|| nrc_obs::counter("data.arena.collections"));
        static FREED: LazyLock<std::sync::Arc<nrc_obs::Counter>> =
            LazyLock::new(|| nrc_obs::counter("data.arena.freed_slots"));
        static COLLECT_NS: LazyLock<std::sync::Arc<nrc_obs::Histogram>> =
            LazyLock::new(|| nrc_obs::histogram("data.arena.collect_ns"));
        COLLECTIONS.inc();
        FREED.add(stats.freed);
        COLLECT_NS.record(t.elapsed().as_nanos() as u64);
    }
    stats
}

/// Advance the epoch and sweep everything that died before the advance —
/// the cadence the engine's `CollectPolicy` uses between batches.
pub fn collect_now() -> CollectStats {
    collect(advance_epoch())
}

/// Advance the epoch and run one *bounded* sweep increment (at most
/// `max_slots` slots freed) — the pacing primitive behind the engine's
/// `CollectPolicy::Bounded`. Keep calling until `freed` and `pending` are
/// both zero to reach the state a single [`collect_now`] would.
pub fn collect_bounded_now(max_slots: u64) -> CollectStats {
    collect_bounded(advance_epoch(), max_slots)
}

/// Number of dying-list entries awaiting a sweep (persistent sweep queue
/// plus the inbox of freshly-dead slots). Diagnostics/pacing: an upper
/// bound on how much a full [`collect`] would examine, not on what it
/// would free (queued entries may be resurrected or deferred).
pub fn pending_reclaim() -> u64 {
    let interner = &*INTERNER;
    let queued = interner.backlog.lock().expect("intern sweep queue").len();
    let inbox = interner.dying.lock().expect("intern dying list").len();
    (queued + inbox) as u64
}

/// A point-in-time snapshot of the arena's occupancy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Slots currently occupied by a distinct interned value.
    pub live: u64,
    /// Slots reclaimed by [`collect`] over the process lifetime.
    pub dead: u64,
    /// Allocations served from the free list instead of arena growth.
    pub reused: u64,
    /// Approximate heap bytes held by live interned values (shallow
    /// estimate; nested bag/dict children count toward their own slots).
    pub bytes: u64,
}

/// Snapshot the arena occupancy counters.
pub fn arena_stats() -> ArenaStats {
    let s = &INTERNER.stats;
    ArenaStats {
        live: s.live.load(AtomicOrdering::Relaxed),
        dead: s.dead.load(AtomicOrdering::Relaxed),
        reused: s.reused.load(AtomicOrdering::Relaxed),
        bytes: s.bytes.load(AtomicOrdering::Relaxed),
    }
}

// ---------------------------------------------------------------------------
// Structural hashing.
//
// A hand-rolled recursive hash (rather than `Value`'s derived `Hash`) so the
// exact same bytes can be produced from a bare `&Label` in `lookup_label`
// without constructing a `Value::Label` wrapper. Nested bag and dictionary
// contents hash by interned index, which is what makes hashing shallow.
// (Hashing the index without the generation is sound: a parent can only be
// found in the shard maps while it is live, and a live parent's live count
// on its children pins their generations.)
// ---------------------------------------------------------------------------

const TAG_BASE: u8 = 0;
const TAG_TUPLE: u8 = 1;
const TAG_BAG: u8 = 2;
const TAG_LABEL: u8 = 3;
const TAG_DICT: u8 = 4;

fn hash_value(v: &Value) -> u64 {
    let mut h = DefaultHasher::new();
    hash_value_into(v, &mut h);
    h.finish()
}

fn hash_value_into(v: &Value, h: &mut DefaultHasher) {
    match v {
        Value::Base(b) => {
            h.write_u8(TAG_BASE);
            b.hash(h);
        }
        Value::Tuple(vs) => {
            h.write_u8(TAG_TUPLE);
            h.write_usize(vs.len());
            for v in vs {
                hash_value_into(v, h);
            }
        }
        Value::Bag(b) => {
            h.write_u8(TAG_BAG);
            for (id, m) in b.ids() {
                h.write_u32(id.index());
                h.write_i64(m);
            }
        }
        Value::Label(l) => {
            h.write_u8(TAG_LABEL);
            hash_label(l, h);
        }
        Value::Dict(d) => {
            h.write_u8(TAG_DICT);
            for (id, bag) in d.entry_ids() {
                h.write_u32(id.index());
                for (e, m) in bag.ids() {
                    h.write_u32(e.index());
                    h.write_i64(m);
                }
            }
        }
    }
}

fn hash_label(l: &Label, h: &mut DefaultHasher) {
    h.write_u32(l.index);
    h.write_usize(l.args.len());
    for a in &l.args {
        hash_value_into(a, h);
    }
}

// ---------------------------------------------------------------------------
// Canonical rank.
//
// `rank_of` maps a value to a 64-bit integer that is *order-homomorphic*
// with respect to the canonical `Ord` on `Value`: `a <= b` implies
// `rank(a) <= rank(b)` (so distinct ranks decide comparisons outright).
// Layout: 3 variant-tag bits (Base < Tuple < Bag < Label < Dict, the derive
// order), then a variant-specific 61-bit order-preserving prefix.
// ---------------------------------------------------------------------------

const VARIANT_SHIFT: u32 = 61;
/// Sequence prefixes (tuples, bag/dict supports) order by the first element:
/// `0` for empty, else `1 + first_rank >> 4` (monotone, fits 61 bits).
const SEQ_SHIFT: u32 = 4;

fn variant_tag(t: u8) -> u64 {
    (t as u64) << VARIANT_SHIFT
}

fn seq_prefix(first: Option<u64>) -> u64 {
    match first {
        None => 0,
        Some(r) => 1 + (r >> SEQ_SHIFT),
    }
}

fn rank_of(v: &Value) -> u64 {
    match v {
        Value::Base(b) => variant_tag(TAG_BASE) | base_rank(b),
        Value::Tuple(vs) => variant_tag(TAG_TUPLE) | seq_prefix(vs.first().map(rank_of)),
        Value::Bag(b) => variant_tag(TAG_BAG) | seq_prefix(b.first_id().map(Vid::rank)),
        // Labels order by (index, args): the 32-bit index fills the top of
        // the payload exactly; same-index labels tie-break deeply.
        Value::Label(l) => variant_tag(TAG_LABEL) | ((l.index as u64) << 29),
        Value::Dict(d) => variant_tag(TAG_DICT) | seq_prefix(d.first_label_id().map(Vid::rank)),
    }
}

/// `BaseValue` order is Bool < Int < Str (derive order): 2 sub-tag bits at
/// 59..60, then a 59-bit order-preserving payload prefix.
fn base_rank(b: &BaseValue) -> u64 {
    const SUB_SHIFT: u32 = 59;
    match b {
        BaseValue::Bool(x) => *x as u64,
        BaseValue::Int(i) => {
            // Flip the sign bit for an order-preserving u64, keep the top
            // 59 bits.
            (1u64 << SUB_SHIFT) | (((*i as u64) ^ (1u64 << 63)) >> 5)
        }
        BaseValue::Str(s) => {
            // First 7 bytes, big-endian, zero-padded: monotone w.r.t.
            // lexicographic byte order (ties resolve deeply).
            let mut buf = [0u8; 8];
            let n = s.len().min(7);
            buf[1..1 + n].copy_from_slice(&s.as_bytes()[..n]);
            (2u64 << SUB_SHIFT) | u64::from_be_bytes(buf)
        }
    }
}

fn depth_of(v: &Value) -> u32 {
    match v {
        Value::Base(_) => 0,
        Value::Tuple(vs) => vs.iter().map(depth_of).max().map_or(0, |d| d + 1),
        Value::Bag(b) => b.ids().map(|(id, _)| id.depth()).max().map_or(0, |d| d + 1),
        Value::Label(l) => l.args.iter().map(depth_of).max().map_or(0, |d| d + 1),
        Value::Dict(d) => d
            .entry_ids()
            .map(|(l, bag)| {
                l.depth().max(
                    bag.ids()
                        .map(|(id, _)| id.depth())
                        .max()
                        .map_or(0, |x| x + 1),
                )
            })
            .max()
            .map_or(0, |d| d + 1),
    }
}

/// Shallow heap-byte estimate of one interned value: the boxed node plus
/// its owned buffers; children held by id count toward their own slots,
/// inline tuple/label children toward this one. Diagnostics only.
fn approx_bytes(v: &Value) -> u64 {
    fn inline(v: &Value) -> u64 {
        let owned = match v {
            Value::Base(BaseValue::Str(s)) => s.len() as u64,
            Value::Base(_) => 0,
            Value::Tuple(vs) => vs.iter().map(inline).sum(),
            Value::Label(l) => l.args.iter().map(inline).sum(),
            // Id-keyed maps: count the entries, not the (separately
            // interned) elements.
            Value::Bag(b) => 24 * b.distinct_count() as u64,
            Value::Dict(d) => 24 * d.support_size() as u64,
        };
        std::mem::size_of::<Value>() as u64 + owned
    }
    inline(v)
}

// ---------------------------------------------------------------------------
// The arena: chunked storage with lock-free reads and generation-tagged
// slot reuse.
//
// Chunk `c` holds `1024 << c` entries starting at global index
// `1024 * (2^c - 1)`; 22 chunks cover the whole u32 id space. A slot is
// written (under the append mutex) strictly before the length is published
// with `Release`; `slot` re-reads the length with `Acquire` before indexing,
// which establishes the happens-before edge for the slot contents no matter
// how the `Vid` travelled between threads. Reused slots publish their new
// contents through the generation counter instead (even = occupied, odd =
// retired); every field is atomic so republication is race-free.
// ---------------------------------------------------------------------------

const CHUNK_BASE_LOG2: u32 = 10;
const NUM_CHUNKS: usize = 22;

/// The freshly-computed metadata a slot is (re)installed with.
struct SlotInit {
    value: *mut Value,
    hash: u64,
    rank: u64,
    depth: u32,
    bytes: u64,
}

struct Slot {
    /// The interned value; null while the slot is retired.
    value: AtomicPtr<Value>,
    hash: AtomicU64,
    rank: AtomicU64,
    depth: AtomicU32,
    /// Even = occupied, odd = retired; bumps once on retire and once on
    /// reuse, so every occupancy has a distinct tag.
    gen: AtomicU32,
    /// Epoch stamp of the last transition of the live count to 0.
    dead_since: AtomicU64,
    /// Is the index currently on the dying list?
    enqueued: AtomicBool,
    /// The last sweep pass that examined an entry for this index (0 =
    /// none). Touched only under the sweep lock: a pass drops every later
    /// entry for the index it meets (see `collect_bounded`).
    swept_in: AtomicU32,
    /// `approx_bytes` of the stored value (for `ArenaStats::bytes`).
    bytes: AtomicU64,
}

impl Slot {
    fn new(m: SlotInit) -> Slot {
        Slot {
            value: AtomicPtr::new(m.value),
            hash: AtomicU64::new(m.hash),
            rank: AtomicU64::new(m.rank),
            depth: AtomicU32::new(m.depth),
            gen: AtomicU32::new(0),
            dead_since: AtomicU64::new(0),
            enqueued: AtomicBool::new(false),
            swept_in: AtomicU32::new(0),
            bytes: AtomicU64::new(m.bytes),
        }
    }

    /// Reinstall a retired slot with fresh metadata, returning the new
    /// (even) generation. Caller must hold the shard write lock of the new
    /// hash so the slot is unreachable until the map insert that follows.
    fn install(&self, m: SlotInit) -> u32 {
        debug_assert!(self.value.load(AtomicOrdering::Acquire).is_null());
        self.hash.store(m.hash, AtomicOrdering::Relaxed);
        self.rank.store(m.rank, AtomicOrdering::Relaxed);
        self.depth.store(m.depth, AtomicOrdering::Relaxed);
        self.bytes.store(m.bytes, AtomicOrdering::Relaxed);
        self.dead_since
            .store(EPOCH.load(AtomicOrdering::Acquire), AtomicOrdering::Relaxed);
        self.enqueued.store(false, AtomicOrdering::Relaxed);
        self.value.store(m.value, AtomicOrdering::Release);
        // Odd (retired) → next even: publishes the fields above.
        self.gen.fetch_add(1, AtomicOrdering::AcqRel) + 1
    }

    /// The stored value; caller must know the slot is occupied (e.g. its
    /// index was found in a shard map while holding the shard lock).
    fn value_ref(&self) -> &Value {
        let ptr = self.value.load(AtomicOrdering::Acquire);
        debug_assert!(!ptr.is_null(), "value_ref on a retired slot");
        unsafe { &*ptr }
    }
}

struct Arena {
    chunks: [AtomicPtr<Slot>; NUM_CHUNKS],
    /// Live counts, chunked with the same geometry as `chunks` but dense
    /// (4 bytes per slot, 16 per cache line): the retain/release sweeps of
    /// map clones and drops touch only this array in the common case.
    rc_chunks: [AtomicPtr<AtomicI32>; NUM_CHUNKS],
    len: AtomicU32,
}

#[inline]
fn locate(index: u32) -> (usize, usize) {
    let bucket = (index >> CHUNK_BASE_LOG2) + 1;
    let chunk = (u32::BITS - 1 - bucket.leading_zeros()) as usize;
    let start = ((1u32 << chunk) - 1) << CHUNK_BASE_LOG2;
    (chunk, (index - start) as usize)
}

impl Arena {
    const fn new() -> Arena {
        Arena {
            chunks: [const { AtomicPtr::new(std::ptr::null_mut()) }; NUM_CHUNKS],
            rc_chunks: [const { AtomicPtr::new(std::ptr::null_mut()) }; NUM_CHUNKS],
            len: AtomicU32::new(0),
        }
    }

    /// Append one entry; caller must hold the append mutex.
    fn push(&self, m: SlotInit) -> u32 {
        let n = self.len.load(AtomicOrdering::Relaxed);
        let (chunk, offset) = locate(n);
        assert!(chunk < NUM_CHUNKS, "intern arena exhausted (u32 id space)");
        let mut ptr = self.chunks[chunk].load(AtomicOrdering::Acquire);
        if ptr.is_null() {
            let cap = 1usize << (chunk as u32 + CHUNK_BASE_LOG2);
            let slab: Box<[MaybeUninit<Slot>]> = Box::new_uninit_slice(cap);
            ptr = Box::leak(slab).as_mut_ptr() as *mut Slot;
            // The matching live-count chunk, zero-initialized, published
            // (Release) before the slot chunk readers can index into it.
            let rcs: Box<[AtomicI32]> = (0..cap).map(|_| AtomicI32::new(0)).collect();
            self.rc_chunks[chunk].store(Box::leak(rcs).as_mut_ptr(), AtomicOrdering::Release);
            self.chunks[chunk].store(ptr, AtomicOrdering::Release);
        }
        // SAFETY: `offset` is within the chunk's capacity by construction,
        // the slot is written exactly once (appends are serialized by the
        // append mutex), and no reader touches it until `len` advertises it
        // (the Release store below).
        unsafe { ptr.add(offset).write(Slot::new(m)) };
        self.len.store(n + 1, AtomicOrdering::Release);
        n
    }
}

/// The dense live-count cell of a slot.
#[inline]
fn rc_of(index: u32) -> &'static AtomicI32 {
    let arena = &INTERNER.arena;
    let len = arena.len.load(AtomicOrdering::Acquire);
    debug_assert!(index < len, "dangling Vid {index} (len {len})");
    let (chunk, offset) = locate(index);
    let ptr = arena.rc_chunks[chunk].load(AtomicOrdering::Acquire);
    // SAFETY: the count chunk is allocated (zeroed) and published before
    // the slot chunk that makes `index` reachable, and never freed.
    unsafe { &*ptr.add(offset) }
}

#[inline]
fn slot(index: u32) -> &'static Slot {
    let arena = &INTERNER.arena;
    // The Acquire load pairs with the Release store in `push`, making the
    // slot write visible; a `Vid` can only hold an already-published index.
    let len = arena.len.load(AtomicOrdering::Acquire);
    debug_assert!(index < len, "dangling Vid {index} (len {len})");
    let (chunk, offset) = locate(index);
    let ptr = arena.chunks[chunk].load(AtomicOrdering::Acquire);
    // SAFETY: published slots are initialized (see `push`) and never moved
    // or freed — the slot *storage* is permanent; only the boxed values it
    // points to are reclaimed (behind the generation check).
    unsafe { &*ptr.add(offset) }
}

const SHARD_COUNT: usize = 16;

struct Counters {
    live: AtomicU64,
    dead: AtomicU64,
    reused: AtomicU64,
    bytes: AtomicU64,
}

/// One lookup shard, on a cache line of its own. A lookup writes its
/// shard's lock word (the reader count), so 64-byte shards packed back to
/// back at whatever offset the linker gives the static straddle each
/// other's lines: a reader thread's lookups in one shard then stall the
/// writer's interning in its neighbours. How badly depended on that offset
/// — the same source built at two paths served `flat_durable` at 2.05 s and
/// 2.45 s of batch wall per 1 000 batches — and aligned it is 1.15 s.
#[repr(align(64))]
struct Shard(RwLock<HashMap<u64, Vec<u32>>>);

impl std::ops::Deref for Shard {
    type Target = RwLock<HashMap<u64, Vec<u32>>>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

struct Interner {
    shards: [Shard; SHARD_COUNT],
    arena: Arena,
    /// Serializes arena appends across shards (lookups stay sharded).
    append: Mutex<()>,
    /// Inbox of indices whose live count hit zero, awaiting a sweep.
    /// `release` only ever touches this (it must stay cheap and re-entrant
    /// from value drops inside a sweep); sweeps drain it into `backlog`.
    dying: Mutex<Vec<u32>>,
    /// The persistent sweep queue: dying indices in visit order. The front
    /// is the sweep cursor — a bounded sweep pops from it until the budget
    /// runs out and leaves the remainder for the next call; entries that
    /// must stay dying rotate to the back. Only touched under `sweep`.
    backlog: Mutex<VecDeque<u32>>,
    /// Reclaimed indices available for reuse.
    free: Mutex<Vec<u32>>,
    /// Serializes sweeps; holds the number of the last sweep pass (the
    /// stamp `Slot::swept_in` is compared against).
    sweep: Mutex<u32>,
    /// Outstanding epoch pins: epoch → pin count.
    pins: Mutex<BTreeMap<u64, u64>>,
    stats: Counters,
}

#[inline]
fn shard_of(hash: u64) -> usize {
    // The high bits: the map buckets already consume the low ones.
    (hash >> 59) as usize & (SHARD_COUNT - 1)
}

static INTERNER: LazyLock<Interner> = LazyLock::new(|| Interner {
    shards: std::array::from_fn(|_| Shard(RwLock::new(HashMap::new()))),
    arena: Arena::new(),
    append: Mutex::new(()),
    dying: Mutex::new(Vec::new()),
    backlog: Mutex::new(VecDeque::new()),
    free: Mutex::new(Vec::new()),
    sweep: Mutex::new(0),
    pins: Mutex::new(BTreeMap::new()),
    stats: Counters {
        live: AtomicU64::new(0),
        dead: AtomicU64::new(0),
        reused: AtomicU64::new(0),
        bytes: AtomicU64::new(0),
    },
});

/// Serializes unit tests (crate-wide) that pin epochs or collect: the arena
/// is process-global, so "this slot is reclaimed by now" assertions only
/// hold while no sibling test pins or sweeps concurrently. Non-GC sibling
/// tests are harmless — they neither pin nor collect, and the resurrection
/// protocol protects their transient ids from our sweeps.
#[cfg(test)]
pub(crate) fn gc_test_serial() -> std::sync::MutexGuard<'static, ()> {
    static GC_TESTS: Mutex<()> = Mutex::new(());
    GC_TESTS.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bag::Bag;
    use crate::dict::Dictionary;

    #[test]
    fn interning_is_idempotent_and_equality_is_id_equality() {
        let a = intern(Value::int(42));
        let b = intern(Value::int(42));
        let c = intern(Value::int(43));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.value(), &Value::int(42));
    }

    #[test]
    fn lookup_does_not_intern() {
        let probe = Value::str("never-constructed-elsewhere-9f3a7");
        assert_eq!(lookup(&probe), None);
        let id = intern(probe.clone());
        assert_eq!(lookup(&probe), Some(id));
    }

    #[test]
    fn label_lookup_matches_value_lookup() {
        let l = Label::new(7, vec![Value::str("x"), Value::int(3)]);
        assert_eq!(lookup_label(&l), lookup(&Value::Label(l.clone())));
        let id = intern_label(l.clone());
        assert_eq!(lookup_label(&l), Some(id));
        assert_eq!(id.as_label(), &l);
    }

    #[test]
    fn vid_order_matches_value_order() {
        // A spread of values crossing every variant and rank edge case.
        let mut values = vec![
            Value::bool(false),
            Value::bool(true),
            Value::int(i64::MIN),
            Value::int(-1),
            Value::int(0),
            Value::int(1),
            Value::int(i64::MAX),
            Value::str(""),
            Value::str("a"),
            Value::str("a\u{0}"),
            Value::str("ab"),
            Value::str("aaaaaaaaaa"),
            Value::str("aaaaaaaaab"),
            Value::unit(),
            Value::Tuple(vec![Value::int(1)]),
            Value::Tuple(vec![Value::int(1), Value::int(2)]),
            Value::Tuple(vec![Value::int(2)]),
            Value::Bag(Bag::empty()),
            Value::Bag(Bag::from_pairs([(Value::int(1), 1)])),
            Value::Bag(Bag::from_pairs([(Value::int(1), 2)])),
            Value::Bag(Bag::from_pairs([(Value::int(2), 1)])),
            Value::Label(Label::atomic(0)),
            Value::Label(Label::new(0, vec![Value::int(5)])),
            Value::Label(Label::atomic(1)),
            Value::Dict(Dictionary::empty()),
            Value::Dict(Dictionary::singleton(Label::atomic(1), Bag::empty())),
        ];
        values.sort();
        let ids: Vec<Vid> = values.iter().cloned().map(intern).collect();
        for i in 0..ids.len() {
            for j in 0..ids.len() {
                assert_eq!(
                    ids[i].cmp(&ids[j]),
                    values[i].cmp(&values[j]),
                    "Vid order diverged from Value order at ({}, {})",
                    values[i],
                    values[j]
                );
            }
        }
    }

    #[test]
    fn rank_is_order_homomorphic() {
        let lo = intern(Value::int(-5));
        let hi = intern(Value::str("z"));
        assert!(lo.rank() < hi.rank());
        assert!(lo < hi);
    }

    #[test]
    fn depth_counts_constructor_nesting() {
        assert_eq!(intern(Value::int(1)).depth(), 0);
        assert_eq!(intern(Value::pair(Value::int(1), Value::int(2))).depth(), 1);
        let nested = Value::Bag(Bag::from_values([Value::pair(
            Value::int(1),
            Value::Bag(Bag::from_values([Value::int(2)])),
        )]));
        assert_eq!(intern(nested).depth(), 3);
    }

    #[test]
    fn locate_maps_indices_to_chunks() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(1023), (0, 1023));
        assert_eq!(locate(1024), (1, 0));
        assert_eq!(locate(3071), (1, 2047));
        assert_eq!(locate(3072), (2, 0));
    }

    #[test]
    fn concurrent_interning_agrees() {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    (0..200)
                        .map(|i| intern(Value::pair(Value::int(i % 50), Value::int(t % 2))))
                        .collect::<Vec<Vid>>()
                })
            })
            .collect();
        let results: Vec<Vec<Vid>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for w in results.windows(2) {
            for (a, b) in w[0].iter().zip(&w[1]) {
                assert_eq!(a.value() == b.value(), a == b);
            }
        }
    }

    // ---- reclamation ----
    //
    // GC tests use payloads unique to each test (`collect` is process-global
    // and the test binary shares one arena across threads) and serialize
    // among themselves via the crate-wide `gc_test_serial` lock.

    fn gc_serial() -> std::sync::MutexGuard<'static, ()> {
        gc_test_serial()
    }

    fn probe(tag: &str, i: usize) -> Value {
        Value::str(format!("gc-intern-test-{tag}-{i:04}"))
    }

    #[test]
    fn dropping_the_last_bag_reference_makes_a_slot_collectible() {
        let _serial = gc_serial();
        let vals: Vec<Value> = (0..64).map(|i| probe("dropbag", i)).collect();
        let bag = Bag::from_values(vals.iter().cloned());
        let ids: Vec<Vid> = bag.ids().map(|(id, _)| id).collect();
        drop(bag);
        let stats = collect_now();
        assert!(
            stats.freed >= 64,
            "expected the 64 dropped probes freed, got {stats:?}"
        );
        // Every id is now deterministically stale.
        for id in ids {
            assert!(matches!(id.try_value(), Err(DataError::StaleVid { .. })));
        }
    }

    #[test]
    fn reuse_assigns_a_fresh_generation_and_old_ids_stay_stale() {
        let _serial = gc_serial();
        let bag = Bag::from_values([probe("reuse", 0)]);
        let (old, _) = bag.ids().next().unwrap();
        drop(bag);
        collect_now();
        assert!(old.try_value().is_err(), "freed slot must report stale");
        // Drive reuse: intern fresh values until one lands on the freed
        // index (a sibling thread may snatch it first; then the generation
        // discipline is exercised by whoever got it).
        for i in 1..1024 {
            let v = probe("reuse", i);
            let id = intern(v.clone());
            if id.index() == old.index() {
                assert_ne!(id.generation(), old.generation());
                assert_eq!(id.value(), &v, "new generation resolves to new value");
                assert!(old.try_value().is_err(), "old generation stays stale");
                return;
            }
        }
        assert!(old.try_value().is_err());
    }

    #[test]
    fn lookup_hit_resurrects_a_dying_slot() {
        let _serial = gc_serial();
        let v = probe("resurrect", 0);
        let bag = Bag::from_values([v.clone()]);
        drop(bag); // now dying
        let id = intern(v.clone()); // hit: resurrects
        collect_now();
        assert_eq!(id.value(), &v, "resurrected id must still resolve");
        // And it can die + be collected again after a retain/release cycle.
        let bag = Bag::from_values([v.clone()]);
        drop(bag);
        collect_now();
        assert!(lookup(&v).is_none(), "slot should be reclaimed now");
    }

    #[test]
    fn pins_shield_dying_slots_until_released() {
        let _serial = gc_serial();
        let epoch_pin = pin();
        let v = probe("pinned", 0);
        let bag = Bag::from_values([v.clone()]);
        let (id, _) = bag.ids().next().unwrap();
        drop(bag);
        collect_now();
        assert_eq!(id.value(), &v, "pinned epoch must keep the slot resolvable");
        drop(epoch_pin);
        collect_now();
        assert!(lookup(&v).is_none(), "slot must be reclaimed after unpin");
    }

    #[test]
    fn pin_horizon_tracks_the_oldest_outstanding_pin() {
        let _serial = gc_serial();
        // Serialized: every pinning test in this crate holds `gc_serial`.
        assert_eq!(pin_horizon(), None);
        let p1 = pin();
        let e1 = p1.epoch();
        assert_eq!(pin_horizon(), Some(e1));
        advance_epoch();
        let p2 = pin();
        assert!(p2.epoch() >= e1);
        assert_eq!(pin_horizon(), Some(e1), "the oldest pin is the horizon");
        drop(p1);
        assert_eq!(
            pin_horizon(),
            Some(p2.epoch()),
            "dropping the oldest pin advances the horizon"
        );
        drop(p2);
        assert_eq!(pin_horizon(), None);
    }

    #[test]
    fn never_retained_slots_are_immortal() {
        let _serial = gc_serial();
        let v = probe("immortal", 0);
        let id = intern(v.clone());
        collect_now();
        collect_now();
        assert_eq!(id.value(), &v, "a transient id never entered a map");
        assert_eq!(lookup(&v), Some(id));
    }

    #[test]
    fn nested_children_are_released_in_cascade() {
        let _serial = gc_serial();
        let inner: Vec<Value> = (0..8).map(|i| probe("cascade", i)).collect();
        let nested = Value::Bag(Bag::from_values(inner.iter().cloned()));
        let bag = Bag::from_values([nested.clone()]);
        drop(bag);
        drop(nested);
        // Sweep 1 frees the outer bag value, whose drop releases the inner
        // probes; sweep 2 frees those.
        collect_now();
        collect_now();
        for v in &inner {
            assert!(lookup(v).is_none(), "nested child {v} should be reclaimed");
        }
    }

    // NOTE: non-GC sibling tests drop bags concurrently, so the dying
    // inbox can always pick up unrelated entries mid-test. The bounded-GC
    // assertions below therefore check budgets (exact — a sweep can never
    // exceed its `max_slots`), progress and this test's own payloads, never
    // exact queue lengths.

    #[test]
    fn bounded_collect_frees_at_most_k_and_the_cursor_persists() {
        let _serial = gc_serial();
        let vals: Vec<Value> = (0..20).map(|i| probe("bounded", i)).collect();
        let bag = Bag::from_values(vals.iter().cloned());
        let ids: Vec<Vid> = bag.ids().map(|(id, _)| id).collect();
        drop(bag);
        // ≥ 20 eligible entries queued, so the first bounded call must
        // exhaust its budget exactly.
        let first = collect_bounded_now(7);
        assert_eq!(first.freed, 7, "budget of 7 must free exactly 7: {first:?}");
        assert!(first.pending >= 13, "cursor must leave the rest queued");
        // The cursor persists: successive calls make progress until this
        // test's payloads are all reclaimed, never exceeding the budget.
        // (Polling via the ids: a value `lookup` would *resurrect* the
        // still-dying slots; `try_value` observes without interfering.)
        let mut rounds = 1;
        // Sibling tests can queue thousands of unrelated dying entries (the
        // bag and tree tests intern thousands of values apiece), so the
        // progress bound scales with the observed backlog instead of
        // assuming a small fixed queue.
        let limit = 64 + (first.pending / 7) as usize;
        while ids.iter().any(|id| id.try_value().is_ok()) {
            let s = collect_bounded_now(7);
            assert!(s.freed <= 7, "budget violated: {s:?}");
            rounds += 1;
            assert!(rounds < limit, "bounded sweep failed to reach all 20 slots");
        }
        assert!(rounds >= 3, "20 slots cannot drain in fewer than 3×7");
        for v in &vals {
            assert!(lookup(v).is_none(), "{v} must be reclaimed");
        }
    }

    #[test]
    fn zero_budget_only_reports_the_backlog() {
        let _serial = gc_serial();
        let bag = Bag::from_values((0..5).map(|i| probe("zerobudget", i)));
        drop(bag);
        let stats = collect_bounded_now(0);
        assert_eq!(stats.freed, 0, "zero budget must not free: {stats:?}");
        assert!(stats.pending >= 5);
        assert!(pending_reclaim() >= 5);
        let full = collect_bounded_now(u64::MAX);
        assert!(full.freed >= 5, "{full:?}");
    }

    #[test]
    fn lookup_hit_resurrects_a_slot_the_cursor_passed_but_deferred() {
        let _serial = gc_serial();
        // Shield the deaths behind a pin so the bounded sweep's cursor
        // passes every entry without freeing it (all deferred).
        let epoch_pin = pin();
        let vals: Vec<Value> = (0..8).map(|i| probe("passed", i)).collect();
        let bag = Bag::from_values(vals.iter().cloned());
        drop(bag);
        let swept = collect_bounded_now(u64::MAX);
        assert_eq!(swept.freed, 0, "pinned slots must not be freed: {swept:?}");
        assert!(swept.deferred >= 8, "{swept:?}");
        // The cursor has passed (and re-queued) every entry; a lookup hit
        // now must still win against the next sweep.
        let kept = intern(vals[3].clone());
        drop(epoch_pin);
        collect_now();
        assert_eq!(kept.value(), &vals[3], "resurrected id must resolve");
        for (i, v) in vals.iter().enumerate() {
            if i == 3 {
                assert_eq!(lookup(v), Some(kept));
            } else {
                assert!(lookup(v).is_none(), "{v} should be reclaimed");
            }
        }
    }

    #[test]
    fn repeated_bounded_collects_converge_through_the_release_cascade() {
        let _serial = gc_serial();
        // Nested structure so convergence has to ride the release cascade:
        // freeing the outer bag's slot releases the inner probes, which only
        // then join the queue. (Exact ArenaStats parity with a full sweep is
        // asserted in tests/prop_bounded_gc.rs, whose binary can serialize
        // every arena touch; sibling tests here intern concurrently.)
        let inner: Vec<Value> = (0..6).map(|i| probe("converge", i)).collect();
        let nested = Value::Bag(Bag::from_values(inner.iter().cloned()));
        let bag = Bag::from_values([nested.clone()]);
        drop(bag);
        drop(nested);
        let mut rounds = 0;
        loop {
            let s = collect_bounded_now(2);
            assert!(s.freed <= 2, "budget violated: {s:?}");
            if s.freed == 0 && s.pending == 0 {
                break;
            }
            rounds += 1;
            assert!(rounds < 64, "bounded collection failed to converge");
        }
        for v in &inner {
            assert!(lookup(v).is_none(), "{v} should be reclaimed");
        }
    }

    #[test]
    fn a_revived_slot_keeps_one_queue_entry_under_a_pin() {
        let _serial = gc_serial();
        let v = probe("revived", 0);
        let epoch_pin = pin();
        drop(Bag::from_values([v.clone()]));
        collect_bounded_now(u64::MAX); // defers the first entry
        for _ in 0..8 {
            // Revive, then die again: each death queues another entry.
            assert!(lookup(&v).is_some());
            drop(Bag::from_values([v.clone()]));
        }
        let swept = collect_bounded_now(u64::MAX);
        assert!(swept.resurrected >= 8, "duplicates dropped: {swept:?}");
        drop(epoch_pin);
        collect_now();
        assert!(lookup(&v).is_none(), "the kept entry frees the slot");
    }

    #[test]
    fn a_wrapped_pass_number_matches_no_old_stamp() {
        let _serial = gc_serial();
        let v = probe("wrap", 0);
        let epoch_pin = pin();
        drop(Bag::from_values([v.clone()]));
        // Stamp the slot with pass 1, then jump to the last pass number so
        // the next sweep wraps back to pass 1.
        *INTERNER.sweep.lock().unwrap() = 0;
        collect_bounded_now(u64::MAX);
        *INTERNER.sweep.lock().unwrap() = u32::MAX;
        // Had the stamp survived the wrap, this pass would drop the slot's
        // only entry as a duplicate and the slot would never be freed.
        collect_bounded_now(u64::MAX);
        drop(epoch_pin);
        collect_now();
        assert!(lookup(&v).is_none(), "the slot's entry survived the wrap");
    }

    #[test]
    fn collect_stats_and_arena_stats_are_consistent() {
        let _serial = gc_serial();
        let vals: Vec<Value> = (0..32).map(|i| probe("stats", i)).collect();
        let before = arena_stats();
        let bag = Bag::from_values(vals.iter().cloned());
        let mid = arena_stats();
        assert!(mid.live >= before.live + 32);
        assert!(mid.bytes > before.bytes);
        drop(bag);
        let swept = collect_now();
        assert!(swept.freed >= 32);
        let after = arena_stats();
        assert!(after.dead >= before.dead + 32);
    }
}
