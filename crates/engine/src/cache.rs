//! The shared detection cache.
//!
//! ExSample's economics are "seconds of GPU per distinct result"; when
//! many concurrent queries sample overlapping regions of the same videos,
//! the single biggest lever is to never run the detector twice on the same
//! frame. [`FrameCache`] memoizes full detector output (all classes) keyed
//! by `(video, frame)`, so a query for cars warms the cache for a later
//! query for buses over the same footage — exactly how a real multi-class
//! detector amortizes across queries.
//!
//! The cache is sharded: each shard is an independent mutex over a hash
//! map plus a FIFO eviction queue, so concurrent sessions touching
//! different frames rarely contend. A lookup that misses *reserves* the
//! key with an in-flight entry and releases the shard lock before the
//! detector runs: detection (~50 ms of modelled GPU time) never
//! serializes unrelated sessions that merely hash to the same shard.
//! Concurrent lookups of the same in-flight key park on that entry's
//! condvar instead of recomputing, so each resident key is still computed
//! exactly once — which both bounds detector spend and keeps the total
//! invocation count deterministic for a fixed workload (modulo
//! evictions).
//!
//! A waiter's cell (its mutex and condvar) exists only for keys somebody
//! waits on: the reservation is a bare in-flight entry, the first lookup
//! that has to wait makes the cell, and a fill or abandon takes it out
//! under the shard lock it holds anyway and wakes only if it found one.
//! Most reservations are never waited on, and a fill that nobody waits on
//! allocates nothing, locks no cell and makes no wake-up syscall. The
//! counters live in the shards too, moved under the lock each lookup and
//! fill already holds, so no lookup writes memory another shard's
//! sessions share.
//!
//! The reservation is the interface — [`FrameCache::begin`], then
//! [`MissGuard::fill`] or [`PendingWait::wait`] — so the engine's batched
//! stepping (§III-F) can reserve a whole batch of keys, issue **one**
//! detector dispatch for all misses with no shard lock held, and only
//! then wait for frames other sessions already have in flight. There are
//! exactly two ways to redeem a reservation: [`MissGuard::fill`] publishes
//! fresh detector output (a miss, written behind into the detection log)
//! and [`MissGuard::fill_warm`] publishes detections read back from the
//! durable container (a warm hit, not written again). Nothing loads the
//! cache in bulk: a restarted engine warms it frame by frame, on touch.

use exsample_detect::Detection;
use exsample_stats::FxHashMap;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use crate::session::RepoId;

/// Cache key: a frame of a specific registered video repository.
pub type FrameKey = (RepoId, u64);

/// Detector output for one frame, shared between sessions.
pub type CachedDetections = Arc<Vec<Detection>>;

struct Shard {
    map: FxHashMap<FrameKey, CachedDetections>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<FrameKey>,
    /// Keys currently being computed (reserved by a [`MissGuard`]), each
    /// with its waiters' cell once the first of them arrived. Pending keys
    /// are not resident — they don't count against capacity and can't be
    /// evicted out from under their waiters.
    pending: FxHashMap<FrameKey, Option<Arc<PendingCell>>>,
    /// This shard's share of [`CacheStats`].
    hits: u64,
    misses: u64,
    evictions: u64,
    warm_loads: u64,
}

/// One in-flight computation that somebody waits on: waiters park on
/// `cv` until the computing session fills (or abandons) the entry.
struct PendingCell {
    state: Mutex<PendingState>,
    cv: Condvar,
}

impl PendingCell {
    /// Publish the computation's outcome and wake every waiter.
    fn settle(&self, outcome: PendingState) {
        *self.state.lock().expect("pending cell poisoned") = outcome;
        self.cv.notify_all();
    }
}

enum PendingState {
    Computing,
    Filled(CachedDetections),
    /// The computing session dropped its guard without filling (its
    /// compute panicked): waiters retry from [`FrameCache::begin`].
    Abandoned,
}

/// Counters describing cache behaviour since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to run the detector.
    pub misses: u64,
    /// Entries discarded to stay within capacity.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Entries published through [`MissGuard::fill_warm`] (persisted
    /// detections read back from the mapped container on first touch) —
    /// counted separately from misses, since no detector ran for them in
    /// this process.
    pub warm_loads: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl std::fmt::Display for CacheStats {
    /// One uniform cache line for examples, benches, and logs:
    /// `"1234 hits / 2000 lookups (61.7% hit rate), 500 warm-loaded, 0
    /// evictions, 1800 resident"`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hits / {} lookups ({:.1}% hit rate), {} warm-loaded, {} evictions, {} resident",
            self.hits,
            self.hits + self.misses,
            self.hit_rate() * 100.0,
            self.warm_loads,
            self.evictions,
            self.entries
        )
    }
}

/// Hook invoked (after the shard lock is released) with every freshly
/// computed entry; the engine uses it to write detections behind the
/// cache into the persistent detection log.
pub type WriteBehind = Box<dyn Fn(FrameKey, &[Detection]) + Send + Sync>;

/// Sharded, thread-safe memo of per-frame detector output.
pub struct FrameCache {
    shards: Vec<Mutex<Shard>>,
    /// Max resident entries per shard.
    shard_capacity: usize,
    write_behind: Option<WriteBehind>,
}

impl FrameCache {
    /// Cache holding at most `capacity` frames across `shards` shards
    /// (`shards` is rounded up to a power of two).
    ///
    /// # Panics
    /// Panics if `capacity` or `shards` is zero.
    pub fn new(capacity: usize, shards: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        assert!(shards > 0, "need at least one shard");
        let shards = shards.next_power_of_two();
        let shard_capacity = capacity.div_ceil(shards);
        FrameCache {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        map: FxHashMap::default(),
                        order: VecDeque::new(),
                        pending: FxHashMap::default(),
                        hits: 0,
                        misses: 0,
                        evictions: 0,
                        warm_loads: 0,
                    })
                })
                .collect(),
            shard_capacity,
            write_behind: None,
        }
    }

    /// Install a write-behind hook, called exactly once with every entry
    /// a miss computes. Must be set before the cache is shared (it takes
    /// `&mut`). The hook runs *after* the shard lock is released, so a
    /// slow sink (buffered file IO, a periodic fsync) delays only the
    /// computing session, never other sessions touching the same shard;
    /// consequently, hook invocations for different keys may interleave
    /// in any order across threads.
    pub fn set_write_behind(&mut self, hook: WriteBehind) {
        self.write_behind = Some(hook);
    }

    fn shard_of(&self, key: &FrameKey) -> usize {
        // Fibonacci-mix the frame and repo id; shards is a power of two.
        let h = (key.1 ^ ((key.0 .0 as u64) << 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 32) as usize & (self.shards.len() - 1)
    }

    /// Start a lookup of `key`: either it is resident ([`Lookup::Hit`]),
    /// another session is computing it right now ([`Lookup::Pending`] —
    /// park on [`PendingWait::wait`]), or the caller now owns the
    /// computation ([`Lookup::Miss`] — run the detector **without any
    /// cache lock held** and publish through [`MissGuard::fill`]).
    ///
    /// The returned guard *reserves* the key: every concurrent `begin`
    /// until the fill observes `Pending` and waits instead of recomputing
    /// (the compute-once guarantee). Dropping the guard unfilled (e.g. a
    /// panicking compute) wakes the waiters to retry, so a failed
    /// computation never wedges the key.
    ///
    /// Statistics: a resident or in-flight key counts as a hit (no
    /// detector runs on behalf of this caller), a reservation as a miss.
    pub fn begin(&self, key: FrameKey) -> Lookup<'_> {
        let mut shard = self.lock_shard(&key);
        let shard = &mut *shard;
        if let Some(hit) = shard.map.get(&key) {
            shard.hits += 1;
            return Lookup::Hit(hit.clone());
        }
        if let Some(waiters) = shard.pending.get_mut(&key) {
            shard.hits += 1;
            let cell = waiters.get_or_insert_with(|| {
                Arc::new(PendingCell {
                    state: Mutex::new(PendingState::Computing),
                    cv: Condvar::new(),
                })
            });
            return Lookup::Pending(PendingWait { cell: cell.clone() });
        }
        shard.misses += 1;
        shard.pending.insert(key, None);
        Lookup::Miss(MissGuard {
            cache: self,
            key,
            filled: false,
        })
    }

    /// The shard `key` lives in, locked.
    fn lock_shard(&self, key: &FrameKey) -> MutexGuard<'_, Shard> {
        // lint: allow(panic_audit, shard_of is modulo the shard count so the index is always in bounds)
        self.shards[self.shard_of(key)]
            .lock()
            .expect("cache shard poisoned")
    }

    /// Publish a freshly computed entry under `key`, evicting FIFO as
    /// needed and waking waiters, if there are any: the internals of
    /// [`MissGuard::fill`]. `warm` is the warm-fill path — the detections
    /// came from durable storage, so the reservation's miss is booked as
    /// a warm hit, and echoing them into the log would duplicate them
    /// forever.
    fn finish_fill(&self, key: FrameKey, value: CachedDetections, warm: bool) {
        let mut shard = self.lock_shard(&key);
        let waiters = shard.pending.remove(&key).flatten();
        while shard.map.len() >= self.shard_capacity {
            // lint: allow(panic_audit, the order deque mirrors the map so it is non-empty while map.len() > 0)
            let victim = shard.order.pop_front().expect("order tracks map");
            shard.map.remove(&victim);
            shard.evictions += 1;
        }
        if warm {
            // begin() booked this reservation as a miss before anyone
            // knew the container had the frame; reclassify it as a hit
            // (served from storage, not the detector) so `misses` keeps
            // meaning exactly "detector invocations" and hits + misses
            // keeps meaning lookups.
            shard.misses -= 1;
            shard.hits += 1;
            shard.warm_loads += 1;
        }
        shard.map.insert(key, value.clone());
        shard.order.push_back(key);
        drop(shard);
        if let Some(cell) = waiters {
            cell.settle(PendingState::Filled(value.clone()));
        }
        // Write behind with every lock released: the sink may do real IO,
        // and neither this shard's sessions nor the entry's waiters
        // should stall behind it.
        if !warm {
            if let Some(hook) = &self.write_behind {
                hook(key, &value);
            }
        }
    }

    /// Aggregate counters across all shards.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            let shard = shard.lock().expect("cache shard poisoned");
            total.hits += shard.hits;
            total.misses += shard.misses;
            total.evictions += shard.evictions;
            total.entries += shard.map.len() as u64;
            total.warm_loads += shard.warm_loads;
        }
        total
    }
}

/// Outcome of [`FrameCache::begin`].
pub enum Lookup<'a> {
    /// The key is resident; detections served immediately.
    Hit(CachedDetections),
    /// Another session is computing this key right now; park on
    /// [`PendingWait::wait`] for its result.
    Pending(PendingWait),
    /// The caller owns the computation: run the detector (unlocked) and
    /// publish through [`MissGuard::fill`].
    Miss(MissGuard<'a>),
}

impl std::fmt::Debug for Lookup<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Lookup::Hit(v) => f.debug_tuple("Hit").field(&v.len()).finish(),
            Lookup::Pending(_) => f.write_str("Pending"),
            Lookup::Miss(g) => f.debug_tuple("Miss").field(&g.key).finish(),
        }
    }
}

/// A parked lookup of a key another session has in flight.
pub struct PendingWait {
    cell: Arc<PendingCell>,
}

impl PendingWait {
    /// Block until the computing session publishes the entry. `None`
    /// when that session abandoned the computation (its compute
    /// panicked) — retry from [`FrameCache::begin`].
    pub fn wait(self) -> Option<CachedDetections> {
        let mut state = self.cell.state.lock().expect("pending cell poisoned");
        loop {
            match &*state {
                PendingState::Computing => {
                    state = self.cell.cv.wait(state).expect("pending cell poisoned");
                }
                PendingState::Filled(value) => return Some(value.clone()),
                PendingState::Abandoned => return None,
            }
        }
    }
}

/// Exclusive reservation of a missed key (see [`FrameCache::begin`]).
/// Fill it with the computed detections, or drop it to abandon the
/// reservation and wake any waiters to retry.
pub struct MissGuard<'a> {
    cache: &'a FrameCache,
    key: FrameKey,
    filled: bool,
}

impl MissGuard<'_> {
    /// The reserved key.
    pub fn key(&self) -> FrameKey {
        self.key
    }

    /// Publish the computed detections: the entry becomes resident
    /// (evicting FIFO if the shard is full), waiters wake with the
    /// value, and the write-behind hook (if any) runs with no lock held.
    pub fn fill(mut self, dets: Vec<Detection>) -> CachedDetections {
        let value: CachedDetections = Arc::new(dets);
        self.filled = true;
        self.cache.finish_fill(self.key, value.clone(), false);
        value
    }

    /// Publish detections that came from durable storage (the mapped
    /// columnar container) instead of a detector run. Identical to
    /// [`MissGuard::fill`] for waiters and residency, but accounted as a
    /// warm load rather than a miss (no detector ran in this process) and
    /// the write-behind hook is skipped (the bytes are already durable —
    /// re-appending them would grow the log on every restart).
    pub fn fill_warm(mut self, dets: Vec<Detection>) -> CachedDetections {
        let value: CachedDetections = Arc::new(dets);
        self.filled = true;
        self.cache.finish_fill(self.key, value.clone(), true);
        value
    }
}

impl Drop for MissGuard<'_> {
    fn drop(&mut self) {
        if self.filled {
            return;
        }
        // Abandoned (the compute panicked, or the guard was discarded):
        // un-reserve the key and wake waiters so they can retry — an
        // in-flight entry must never outlive its computer.
        let waiters = self.cache.lock_shard(&self.key).pending.remove(&self.key);
        if let Some(cell) = waiters.flatten() {
            cell.settle(PendingState::Abandoned);
        }
    }
}

impl std::fmt::Debug for FrameCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameCache")
            .field("shards", &self.shards.len())
            .field("shard_capacity", &self.shard_capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    fn key(frame: u64) -> FrameKey {
        (RepoId(0), frame)
    }

    /// One lookup through the reservation protocol, the way a session
    /// makes it: a hit is served, an in-flight key is waited for (and
    /// asked again if its computer abandoned it), a miss runs `compute`
    /// with no cache lock held and fills. Returns the detections and
    /// whether this was a hit.
    fn get_or_compute(
        cache: &FrameCache,
        key: FrameKey,
        compute: impl FnOnce() -> Vec<Detection>,
    ) -> (CachedDetections, bool) {
        let mut compute = Some(compute);
        loop {
            match cache.begin(key) {
                Lookup::Hit(value) => return (value, true),
                Lookup::Pending(wait) => {
                    if let Some(value) = wait.wait() {
                        return (value, true);
                    }
                }
                Lookup::Miss(guard) => {
                    let compute = compute.take().expect("at most one miss per lookup");
                    return (guard.fill(compute()), false);
                }
            }
        }
    }

    #[test]
    fn miss_then_hit() {
        let cache = FrameCache::new(64, 4);
        let (a, hit_a) = get_or_compute(&cache, key(7), Vec::new);
        assert!(!hit_a);
        let (b, hit_b) = get_or_compute(&cache, key(7), || panic!("must not recompute"));
        assert!(hit_b);
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn evicts_fifo_within_capacity() {
        // Single shard so the eviction order is fully observable.
        let cache = FrameCache::new(4, 1);
        for f in 0..8 {
            get_or_compute(&cache, key(f), Vec::new);
        }
        let s = cache.stats();
        assert_eq!(s.entries, 4);
        assert_eq!(s.evictions, 4);
        // Oldest entries are gone: looking them up recomputes.
        let (_, hit) = get_or_compute(&cache, key(0), Vec::new);
        assert!(!hit);
        let (_, hit) = get_or_compute(&cache, key(7), || panic!("recent entry evicted"));
        assert!(hit);
    }

    #[test]
    fn distinct_repos_do_not_collide() {
        let cache = FrameCache::new(64, 4);
        get_or_compute(&cache, (RepoId(1), 5), Vec::new);
        let (_, hit) = get_or_compute(&cache, (RepoId(2), 5), Vec::new);
        assert!(!hit);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn concurrent_lookups_compute_each_key_once() {
        use std::sync::atomic::AtomicUsize;
        let cache = FrameCache::new(4096, 16);
        let computes = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for t in 0..8 {
                let cache = &cache;
                let computes = &computes;
                scope.spawn(move || {
                    // All threads sweep the same 512 keys, interleaved
                    // differently per thread.
                    for i in 0..512u64 {
                        let f = (i * (t + 1)) % 512;
                        get_or_compute(cache, key(f), || {
                            computes.fetch_add(1, Ordering::Relaxed);
                            Vec::new()
                        });
                    }
                });
            }
        });
        assert_eq!(computes.load(Ordering::Relaxed), 512);
        let s = cache.stats();
        assert_eq!(s.misses, 512);
        assert_eq!(s.hits, 8 * 512 - 512);
        assert_eq!(s.evictions, 0);
    }

    #[test]
    fn slow_compute_does_not_block_other_keys_on_the_same_shard() {
        // Regression: a miss's compute used to run while the lookup was
        // holding the shard mutex, serializing every session that hashed
        // to the shard behind one detector invocation. The compute below
        // cannot finish until the *other-key* lookup on the same (single)
        // shard completes — under the old locking this deadlocks; with
        // in-flight entries it passes.
        use std::sync::mpsc::channel;
        let cache = FrameCache::new(64, 1);
        let (entered_tx, entered_rx) = channel();
        let (release_tx, release_rx) = channel::<()>();
        std::thread::scope(|scope| {
            let cache = &cache;
            scope.spawn(move || {
                get_or_compute(cache, key(1), move || {
                    entered_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    Vec::new()
                });
            });
            entered_rx.recv().unwrap(); // key 1 is mid-compute
            let (_, hit) = get_or_compute(cache, key(2), Vec::new);
            assert!(!hit);
            release_tx.send(()).unwrap();
        });
        let s = cache.stats();
        assert_eq!((s.misses, s.entries), (2, 2));
    }

    #[test]
    fn concurrent_same_key_lookup_waits_instead_of_recomputing() {
        use std::sync::mpsc::channel;
        let cache = FrameCache::new(64, 1);
        let (entered_tx, entered_rx) = channel();
        let (release_tx, release_rx) = channel::<()>();
        std::thread::scope(|scope| {
            let cache = &cache;
            scope.spawn(move || {
                get_or_compute(cache, key(1), move || {
                    entered_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    Vec::new()
                });
            });
            entered_rx.recv().unwrap();
            let waiter = scope.spawn(move || {
                // Must park on the in-flight entry, not recompute.
                get_or_compute(cache, key(1), || panic!("computed twice"))
            });
            release_tx.send(()).unwrap();
            let (_, hit) = waiter.join().unwrap();
            assert!(hit, "waiter is served the in-flight result as a hit");
        });
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn abandoned_compute_unblocks_waiters_and_allows_retry() {
        use std::panic::AssertUnwindSafe;
        let cache = FrameCache::new(64, 1);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            get_or_compute(&cache, key(5), || panic!("detector died"));
        }));
        assert!(result.is_err());
        // The reservation was released: the key is computable again, and
        // nothing is wedged.
        let (_, hit) = get_or_compute(&cache, key(5), Vec::new);
        assert!(!hit);
        let (_, hit) = get_or_compute(&cache, key(5), || panic!("resident now"));
        assert!(hit);
    }

    /// Reserve `key`, then have a second thread look it up: it must find
    /// the key pending and park. Returns once that waiter's cell exists —
    /// the one thing only a waiter makes — with the reservation and the
    /// waiter's join handle.
    fn reserve_with_parked_waiter<'s, 'c>(
        scope: &'s std::thread::Scope<'s, '_>,
        cache: &'c FrameCache,
        key: FrameKey,
    ) -> (
        MissGuard<'c>,
        std::thread::ScopedJoinHandle<'s, Option<CachedDetections>>,
    )
    where
        'c: 's,
    {
        let waiter_cell = || cache.lock_shard(&key).pending.get(&key).cloned();
        let guard = match cache.begin(key) {
            Lookup::Miss(g) => g,
            other => panic!("expected miss, got {other:?}"),
        };
        // Nobody waits yet: the reservation is a bare entry.
        assert!(matches!(waiter_cell(), Some(None)));
        let waiter = scope.spawn(move || match cache.begin(key) {
            Lookup::Pending(wait) => wait.wait(),
            other => panic!("expected pending, got {other:?}"),
        });
        while !matches!(waiter_cell(), Some(Some(_))) {
            std::thread::yield_now();
        }
        // Give the waiter time to park on the condvar; should it not have
        // yet, it finds the outcome already settled — the same answer.
        std::thread::sleep(std::time::Duration::from_millis(20));
        (guard, waiter)
    }

    #[test]
    fn a_parked_waiter_whose_computer_abandons_retries_and_computes() {
        let cache = FrameCache::new(64, 1);
        std::thread::scope(|scope| {
            let (guard, waiter) = reserve_with_parked_waiter(scope, &cache, key(5));
            drop(guard);
            assert!(waiter.join().unwrap().is_none(), "abandoned, not filled");
        });
        // The woken waiter asks again and computes the key itself.
        let (_, hit) = get_or_compute(&cache, key(5), Vec::new);
        assert!(!hit);
        let (_, hit) = get_or_compute(&cache, key(5), || panic!("resident now"));
        assert!(hit);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (2, 2, 1));
    }

    #[test]
    fn a_waiter_arriving_after_the_reservation_is_woken_by_fill() {
        let cache = FrameCache::new(64, 1);
        std::thread::scope(|scope| {
            let (guard, waiter) = reserve_with_parked_waiter(scope, &cache, key(1));
            let filled = guard.fill(Vec::new());
            let served = waiter.join().unwrap().expect("filled");
            assert!(Arc::ptr_eq(&filled, &served));
        });
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.warm_loads, s.entries), (1, 1, 0, 1));
        assert!(cache.lock_shard(&key(1)).pending.is_empty());
    }

    #[test]
    fn a_waiter_arriving_after_the_reservation_is_woken_by_fill_warm() {
        let cache = FrameCache::new(64, 1);
        std::thread::scope(|scope| {
            let (guard, waiter) = reserve_with_parked_waiter(scope, &cache, key(2));
            let filled = guard.fill_warm(Vec::new());
            let served = waiter.join().unwrap().expect("filled");
            assert!(Arc::ptr_eq(&filled, &served));
        });
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.warm_loads, s.entries), (2, 0, 1, 1));
        assert!(cache.lock_shard(&key(2)).pending.is_empty());
    }

    #[test]
    fn begin_fill_batch_protocol_round_trips() {
        // The engine's batched path: reserve several keys, fill them in
        // one "dispatch", and observe hits afterwards.
        let cache = FrameCache::new(64, 1);
        get_or_compute(&cache, key(0), Vec::new); // resident
        let mut guards = Vec::new();
        for f in 1..4 {
            match cache.begin(key(f)) {
                Lookup::Miss(g) => guards.push(g),
                other => panic!("expected miss for fresh key, got {other:?}"),
            }
        }
        match cache.begin(key(0)) {
            Lookup::Hit(_) => {}
            other => panic!("expected hit, got {other:?}"),
        }
        // A concurrent begin of a reserved key parks as Pending.
        assert!(matches!(cache.begin(key(1)), Lookup::Pending(_)));
        for g in guards {
            assert_eq!(g.key().0, RepoId(0));
            g.fill(Vec::new());
        }
        for f in 0..4 {
            let (_, hit) = get_or_compute(&cache, key(f), || panic!("filled above"));
            assert!(hit);
        }
        let s = cache.stats();
        assert_eq!(s.entries, 4);
    }

    #[test]
    fn fill_warm_counts_as_warm_hit_and_skips_write_behind() {
        use std::sync::Mutex as StdMutex;
        let written: Arc<StdMutex<Vec<FrameKey>>> = Arc::new(StdMutex::new(Vec::new()));
        let mut cache = FrameCache::new(64, 4);
        let sink = written.clone();
        cache.set_write_behind(Box::new(move |k, _| sink.lock().unwrap().push(k)));
        let guard = match cache.begin(key(3)) {
            Lookup::Miss(g) => g,
            other => panic!("expected miss, got {other:?}"),
        };
        guard.fill_warm(Vec::new());
        let s = cache.stats();
        // Served from storage: a warm hit, not a detector miss, and the
        // log never sees it again.
        assert_eq!((s.hits, s.misses, s.warm_loads, s.entries), (1, 0, 1, 1));
        assert!(written.lock().unwrap().is_empty());
        let (_, hit) = get_or_compute(&cache, key(3), || panic!("resident"));
        assert!(hit);
    }

    #[test]
    fn write_behind_sees_each_computed_entry_once() {
        use std::sync::Mutex as StdMutex;
        let written: Arc<StdMutex<Vec<FrameKey>>> = Arc::new(StdMutex::new(Vec::new()));
        let mut cache = FrameCache::new(64, 4);
        let sink = written.clone();
        cache.set_write_behind(Box::new(move |k, dets| {
            assert!(dets.is_empty());
            sink.lock().unwrap().push(k);
        }));
        get_or_compute(&cache, key(1), Vec::new); // miss: written
        get_or_compute(&cache, key(1), Vec::new); // hit: no write
        get_or_compute(&cache, key(2), Vec::new); // miss: written
        assert_eq!(*written.lock().unwrap(), vec![key(1), key(2)]);
    }

    #[test]
    fn stats_display_is_one_line() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            evictions: 0,
            entries: 4,
            warm_loads: 2,
        };
        let line = s.to_string();
        assert_eq!(
            line,
            "3 hits / 4 lookups (75.0% hit rate), 2 warm-loaded, 0 evictions, 4 resident"
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn capacity_rounds_to_shards() {
        let cache = FrameCache::new(10, 3); // 4 shards, cap 3 each
        for f in 0..100 {
            get_or_compute(&cache, key(f), Vec::new);
        }
        assert!(cache.stats().entries <= 12);
        assert!(cache.stats().evictions >= 88);
    }
}
