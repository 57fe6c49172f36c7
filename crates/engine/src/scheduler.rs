//! Cost-aware arbitration of the detector budget across sessions.
//!
//! The engine owns one modelled detector able to process a fixed number of
//! frames per second ([`crate::EngineConfig::detector_fps`]); every
//! detector invocation and every container decode a session causes is
//! charged to that session in seconds (via `exsample_store::CostModel` for
//! the io side). The scheduler then implements **weighted fair queueing**
//! over those charges: each session has a priority weight, its *virtual
//! time* is `charged_seconds / weight`, and the next quantum of detector
//! budget always goes to the runnable session with the smallest virtual
//! time. With equal per-frame costs this degenerates to weighted
//! round-robin; with a warm cache, sessions whose frames keep hitting are
//! charged almost nothing and get proportionally more turns — the budget
//! follows the *real* cost, not the frame count.
//!
//! Sessions joining late start at the current minimum virtual time, so a
//! newcomer competes fairly from now on instead of monopolizing the
//! detector while it "catches up" on seconds it never consumed.
//!
//! Charges are validated where they are applied: [`Scheduler::release`]
//! sanitizes non-finite and negative charges (a NaN would otherwise
//! poison the virtual-time comparison in [`Scheduler::lease_next`] and
//! panic a worker) and enforces a tiny minimum advance so a zero charge
//! can never freeze a session's virtual time and let it hold every lease
//! forever. That floor is a *correctness* guarantee — eventual rotation,
//! finite ordering — not a fairness policy; callers wanting an all-hit
//! session to rotate out promptly should still impose their own larger
//! policy floor, as the engine's worker loop does.

use crate::session::SessionId;

/// Minimum virtual-time advance per [`Scheduler::release`], applied after
/// sanitizing the reported charge. Small enough to be invisible next to
/// any real charge (detection is ~50 modelled milliseconds), large enough
/// that a session releasing "free" quanta forever still makes monotone
/// progress and eventually yields the lease.
const MIN_RELEASE_CHARGE_S: f64 = 1e-9;

#[derive(Debug, Clone, Copy)]
struct Entry {
    id: SessionId,
    weight: u32,
    /// Total seconds charged (detector + io/decode).
    charged_s: f64,
    /// Currently checked out by a worker thread.
    leased: bool,
}

impl Entry {
    fn virtual_time(&self) -> f64 {
        self.charged_s / self.weight as f64
    }
}

/// Weighted-fair scheduler over session cost charges.
///
/// Not internally synchronized: the engine keeps it inside its state
/// mutex. All operations are O(#sessions), which is the regime the engine
/// targets (tens to hundreds of concurrent sessions, stepped in quanta of
/// many frames).
#[derive(Debug, Default)]
pub struct Scheduler {
    entries: Vec<Entry>,
}

impl Scheduler {
    /// Empty scheduler.
    pub fn new() -> Self {
        Scheduler::default()
    }

    fn index_of(&self, id: SessionId) -> usize {
        self.entries
            .iter()
            .position(|e| e.id == id)
            // lint: allow(panic_audit, the engine registers every session before scheduling it; an unknown id here is state corruption worth crashing on)
            .expect("session registered with scheduler")
    }

    /// Register a session with the given priority weight (higher weight ⇒
    /// larger share of the detector budget). The session joins at the
    /// current minimum virtual time among active sessions.
    ///
    /// # Panics
    /// Panics if `weight` is zero.
    pub fn register(&mut self, id: SessionId, weight: u32) {
        assert!(weight > 0, "scheduler weight must be positive");
        let joined_v = self
            .entries
            .iter()
            .map(Entry::virtual_time)
            .fold(f64::INFINITY, f64::min);
        let charged_s = if joined_v.is_finite() {
            joined_v * weight as f64
        } else {
            0.0
        };
        self.entries.push(Entry {
            id,
            weight,
            charged_s,
            leased: false,
        });
    }

    /// The runnable (active, unleased) session with the smallest virtual
    /// time, marked leased so no other worker picks it. Ties break on the
    /// older session id for determinism.
    pub fn lease_next(&mut self) -> Option<SessionId> {
        let best = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| !e.leased)
            .min_by(|(_, a), (_, b)| {
                a.virtual_time()
                    .partial_cmp(&b.virtual_time())
                    // lint: allow(panic_audit, release() sanitizes every charge so virtual_time is always finite)
                    .expect("finite virtual time")
                    .then(a.id.cmp(&b.id))
            })
            .map(|(i, _)| i)?;
        let entry = self.entries.get_mut(best)?;
        entry.leased = true;
        Some(entry.id)
    }

    /// Return a leased session, charging it the seconds its quantum cost.
    ///
    /// The charge is validated here, not trusted from the caller: a NaN
    /// or infinite charge is dropped (it would poison every later
    /// virtual-time comparison and panic `lease_next` on a worker
    /// thread), a negative charge is clamped to zero (virtual time must
    /// never rewind), and the applied charge is floored at a tiny
    /// epsilon (`MIN_RELEASE_CHARGE_S`) so even a zero-cost release
    /// advances virtual time — a frozen clock would let the session hold
    /// every lease. Larger floors for *fairness* (rotating all-cache-hit
    /// sessions out promptly) remain the caller's policy.
    pub fn release(&mut self, id: SessionId, charge_s: f64) {
        let i = self.index_of(id);
        let charge_s = if charge_s.is_finite() {
            charge_s.max(0.0)
        } else {
            0.0
        };
        // One bounds-checked access for the whole update (index_of
        // returned a live position; `get_mut` keeps the no-panic proof
        // local instead of relying on it three times).
        let Some(entry) = self.entries.get_mut(i) else {
            return;
        };
        debug_assert!(entry.leased, "release of unleased session");
        entry.leased = false;
        let advanced = entry.charged_s + charge_s.max(MIN_RELEASE_CHARGE_S);
        // The epsilon alone can be absorbed by float rounding once the
        // accumulated charge is large (1e-9 < ulp(charged_s)/2 beyond
        // ~1.7e7 charged seconds); "every release advances virtual time"
        // is a strict guarantee, so fall back to the next representable
        // value when the addition rounds away.
        entry.charged_s = if advanced > entry.charged_s {
            advanced
        } else {
            entry.charged_s.next_up()
        };
    }

    /// Mark a session finished: its entry is removed outright, so the
    /// `lease_next` scan and the entry table stay proportional to the
    /// *concurrent* session count, not the total ever submitted.
    pub(crate) fn deactivate(&mut self, id: SessionId) {
        let i = self.index_of(id);
        self.entries.swap_remove(i);
    }

    /// Number of unfinished sessions (leased or not).
    pub(crate) fn active_sessions(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Seconds charged to a live session so far.
    fn charged(s: &Scheduler, id: SessionId) -> f64 {
        s.entries[s.index_of(id)].charged_s
    }

    fn sid(n: u64) -> SessionId {
        SessionId(n)
    }

    /// Run `rounds` grants where every grant costs `cost(id)` seconds, and
    /// count grants per session.
    fn simulate(
        sched: &mut Scheduler,
        rounds: usize,
        cost: impl Fn(SessionId) -> f64,
    ) -> Vec<(SessionId, usize)> {
        let mut counts: Vec<(SessionId, usize)> = Vec::new();
        for _ in 0..rounds {
            let id = sched.lease_next().expect("runnable session");
            sched.release(id, cost(id));
            match counts.iter_mut().find(|(s, _)| *s == id) {
                Some((_, c)) => *c += 1,
                None => counts.push((id, 1)),
            }
        }
        counts.sort();
        counts
    }

    #[test]
    fn equal_weights_share_equally() {
        let mut s = Scheduler::new();
        s.register(sid(1), 1);
        s.register(sid(2), 1);
        let counts = simulate(&mut s, 100, |_| 1.0);
        assert_eq!(counts, vec![(sid(1), 50), (sid(2), 50)]);
    }

    #[test]
    fn weights_scale_the_share() {
        let mut s = Scheduler::new();
        s.register(sid(1), 3);
        s.register(sid(2), 1);
        let counts = simulate(&mut s, 120, |_| 1.0);
        // 3:1 split of the budget.
        assert_eq!(counts, vec![(sid(1), 90), (sid(2), 30)]);
    }

    #[test]
    fn cheap_sessions_get_more_turns() {
        // Session 2's frames keep hitting the cache (cost 0.1 vs 1.0):
        // equal *seconds* means ~10x the turns.
        let mut s = Scheduler::new();
        s.register(sid(1), 1);
        s.register(sid(2), 1);
        let counts = simulate(&mut s, 110, |id| if id == sid(1) { 1.0 } else { 0.1 });
        let c1 = counts[0].1 as f64;
        let c2 = counts[1].1 as f64;
        assert!(c2 / c1 > 8.0, "c1={c1} c2={c2}");
    }

    #[test]
    fn late_joiner_does_not_monopolize() {
        let mut s = Scheduler::new();
        s.register(sid(1), 1);
        for _ in 0..50 {
            let id = s.lease_next().unwrap();
            s.release(id, 1.0);
        }
        s.register(sid(2), 1);
        // From here on the split is even; session 2 must NOT receive all
        // 50 next grants to "catch up".
        let counts = simulate(&mut s, 20, |_| 1.0);
        let c2 = counts
            .iter()
            .find(|(s, _)| *s == sid(2))
            .map_or(0, |&(_, c)| c);
        assert!((8..=12).contains(&c2), "late joiner got {c2}/20 grants");
    }

    #[test]
    fn leased_sessions_are_skipped_until_released() {
        let mut s = Scheduler::new();
        s.register(sid(1), 1);
        s.register(sid(2), 1);
        let a = s.lease_next().unwrap();
        let b = s.lease_next().unwrap();
        assert_ne!(a, b);
        assert!(s.lease_next().is_none());
        s.release(a, 1.0);
        assert_eq!(s.lease_next(), Some(a));
        s.release(a, 0.0);
        s.release(b, 0.0);
    }

    #[test]
    fn deactivated_sessions_stop_competing() {
        let mut s = Scheduler::new();
        s.register(sid(1), 1);
        s.register(sid(2), 1);
        s.deactivate(sid(1));
        assert_eq!(s.active_sessions(), 1);
        for _ in 0..5 {
            assert_eq!(s.lease_next(), Some(sid(2)));
            s.release(sid(2), 1.0);
        }
        s.deactivate(sid(2));
        assert!(s.lease_next().is_none());
        assert_eq!(s.active_sessions(), 0);
    }

    #[test]
    fn charges_accumulate() {
        let mut s = Scheduler::new();
        s.register(sid(7), 2);
        let id = s.lease_next().unwrap();
        s.release(id, 1.5);
        let id = s.lease_next().unwrap();
        s.release(id, 0.25);
        assert!((charged(&s, sid(7)) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn zero_cost_grants_with_floor_preserve_liveness() {
        // The engine floors every release at a small epsilon (worker
        // loop); with the floor, an all-hit (near-free) session cannot
        // hold the lease forever — the cold session keeps rotating in.
        let mut s = Scheduler::new();
        s.register(sid(1), 1); // all cache hits: floored charge
        s.register(sid(2), 1); // cold frames: real cost
        let floor = 1e-3;
        let mut cold_grants = 0;
        for _ in 0..5_000 {
            let id = s.lease_next().unwrap();
            s.release(id, if id == sid(1) { floor } else { 1.0 });
            if id == sid(2) {
                cold_grants += 1;
            }
        }
        // One cold grant per ~1000 warm grants at this floor ratio.
        assert!(
            (4..=7).contains(&cold_grants),
            "cold session got {cold_grants} grants"
        );
    }

    #[test]
    fn nan_charge_is_sanitized_instead_of_poisoning_lease_next() {
        // Regression: a NaN charge used to make the session's virtual
        // time NaN, and the next `lease_next` panicked a worker on
        // `partial_cmp(...).expect("finite virtual time")`.
        let mut s = Scheduler::new();
        s.register(sid(1), 1);
        s.register(sid(2), 1);
        let id = s.lease_next().unwrap();
        s.release(id, f64::NAN);
        // Both sessions still lease and order deterministically.
        let a = s.lease_next().expect("scheduler survives NaN charge");
        let b = s.lease_next().expect("scheduler survives NaN charge");
        assert_ne!(a, b);
        s.release(a, f64::INFINITY); // non-finite likewise dropped
        s.release(b, 1.0);
        assert!(charged(&s, a).is_finite());
        assert_eq!(s.lease_next(), Some(a));
    }

    #[test]
    fn negative_charge_never_rewinds_virtual_time() {
        let mut s = Scheduler::new();
        s.register(sid(1), 1);
        let id = s.lease_next().unwrap();
        s.release(id, 5.0);
        let before = charged(&s, sid(1));
        let id = s.lease_next().unwrap();
        s.release(id, -100.0);
        assert!(
            charged(&s, sid(1)) >= before,
            "virtual time rewound: {} < {before}",
            charged(&s, sid(1))
        );
    }

    #[test]
    fn zero_charge_still_advances_virtual_time() {
        // Correctness floor (not the engine's policy floor): each release
        // must advance the clock, so a zero-cost session eventually
        // rotates out even if the caller applies no floor of its own.
        let mut s = Scheduler::new();
        s.register(sid(1), 1);
        let mut last = charged(&s, sid(1));
        for _ in 0..10 {
            let id = s.lease_next().unwrap();
            s.release(id, 0.0);
            let now = charged(&s, sid(1));
            assert!(now > last, "zero-charge release froze virtual time");
            last = now;
        }
        // The guarantee must survive float absorption: once the
        // accumulated charge is large enough that the epsilon floor is
        // below half an ulp, a plain `+= 1e-9` would round away and
        // re-freeze the clock.
        let id = s.lease_next().unwrap();
        s.release(id, 1e12);
        let mut last = charged(&s, sid(1));
        for _ in 0..10 {
            let id = s.lease_next().unwrap();
            s.release(id, 0.0);
            let now = charged(&s, sid(1));
            assert!(now > last, "epsilon absorbed at charged_s = {last}");
            last = now;
        }
    }

    #[test]
    fn ties_break_by_session_id() {
        let mut s = Scheduler::new();
        s.register(sid(2), 1);
        s.register(sid(1), 1);
        assert_eq!(s.lease_next(), Some(sid(1)));
    }
}
