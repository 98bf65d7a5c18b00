//! The result table: one map under one lock holding every cacheable
//! `/repair` and `/explain` call's entry, either **in flight** (a leader
//! is solving it; followers wait on its condvar) or **done** (the exact
//! body to replay). Keys are the router's `slot`s: the engine's
//! `RepairCall`/`RefCall` cache keys, `/explain` ones XOR-tagged apart.
//!
//! A call claims its key in one step under the lock, so nothing solved
//! or being solved is solved again, and a leader's landing turns its
//! entry into the done entry and wakes its followers in one step too.
//! The 64-bit key is a hash: an entry is only replayed or joined when
//! its canonical form matches, so a collision costs a solve, never a
//! wrong reply. A leader that unwinds abandons its flight (drop guard)
//! and followers carry a wait cap, so a dead leader strands no one.
//! Only done entries count against the capacity or are ever evicted.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

/// What one solve produced: status plus body bytes (every `/repair` /
/// `/explain` reply is JSON, errors included). Identical deterministic
/// calls fail identically, so followers replay a 4xx as they would a
/// report; only a 200 becomes a done entry.
#[derive(Clone)]
pub struct Solved {
    /// The response status: 200 or an engine 4xx.
    pub status: u16,
    /// The exact body bytes, shared with the done entry on success.
    pub body: Arc<Vec<u8>>,
}

/// How a call went through [`ResultCache::serve`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Served {
    /// Replayed a done entry.
    Hit,
    /// Solved: as the leader, beside another call's flight under the
    /// same key, or after its leader died or overran the wait cap.
    Miss,
    /// Replayed the bytes of the leader it waited on.
    Coalesced,
}

impl Served {
    /// The `X-Fd-Cache` header value.
    pub fn name(self) -> &'static str {
        match self {
            Served::Hit => "hit",
            Served::Miss => "miss",
            Served::Coalesced => "coalesced",
        }
    }
}

/// A running solve. Its followers hold clones of the `Arc`.
struct Flight {
    landed: Condvar,
    /// Set once, under the table lock: the leader's result, or `None`
    /// when the leader unwound.
    outcome: OnceLock<Option<Solved>>,
}

enum Entry {
    InFlight(Arc<Flight>),
    Done(Arc<Vec<u8>>),
}

/// The server's result table. Capacity 0 keeps no done entry, but
/// concurrent identical calls still share one solve.
pub struct ResultCache {
    /// Each entry with the canonical form it answers; flights pinned.
    table: Mutex<LruCache<(Arc<str>, Entry)>>,
}

impl ResultCache {
    /// An empty table keeping at most `capacity` done entries.
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache {
            table: Mutex::new(LruCache::new(capacity)),
        }
    }

    fn lock(&self) -> MutexGuard<'_, LruCache<(Arc<str>, Entry)>> {
        // Plain data, and no code outside this module runs under the
        // lock: refusing to serve because some request panicked would
        // turn one bug into an outage.
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The body of `key`'s done entry for `canonical`, refreshing its
    /// recency. Never waits: a flight reads as absent.
    pub fn get(&self, key: u64, canonical: &str) -> Option<Arc<Vec<u8>>> {
        match self.lock().get(key)? {
            (c, Entry::Done(body)) if **c == *canonical => Some(Arc::clone(body)),
            _ => None,
        }
    }

    /// Answers one cacheable call, claiming `key` in one step: a done
    /// entry for `canonical` is a hit, its flight is joined for at most
    /// `wait_cap`, another call's flight is left alone while this call
    /// solves, and anything else makes this call the leader.
    pub fn serve(
        &self,
        key: u64,
        canonical: &Arc<str>,
        wait_cap: Duration,
        solve: impl FnOnce() -> Solved,
    ) -> (Solved, Served) {
        let mut table = self.lock();
        let flight = match table.get(key) {
            Some((c, Entry::Done(body))) if c == canonical => {
                let body = Arc::clone(body);
                return (Solved { status: 200, body }, Served::Hit);
            }
            Some((c, Entry::InFlight(flight))) => (c == canonical).then(|| Arc::clone(flight)),
            _ => {
                let flight = Arc::new(Flight {
                    landed: Condvar::new(),
                    outcome: OnceLock::new(),
                });
                let entry = Entry::InFlight(Arc::clone(&flight));
                table.pin(key, (Arc::clone(canonical), entry));
                drop(table);
                let leader = Leader {
                    cache: self,
                    key,
                    flight,
                };
                let solved = solve();
                leader.land(Some(solved.clone()));
                return (solved, Served::Miss);
            }
        };
        if let Some(flight) = flight {
            let flying = |_: &mut _| flight.outcome.get().is_none();
            let woken = flight.landed.wait_timeout_while(table, wait_cap, flying);
            table = woken.unwrap_or_else(PoisonError::into_inner).0;
            if let Some(Some(solved)) = flight.outcome.get() {
                return (solved.clone(), Served::Coalesced);
            }
        }
        // Another call's flight, a dead leader or one past the cap:
        // solving alone is always correct, just not shared.
        drop(table);
        (solve(), Served::Miss)
    }

    /// Read-your-writes: retires the done entry at `stale` if its
    /// canonical form matches, then files `body` as the done entry
    /// `fresh` unless a flight holds that key (its leader lands the same
    /// bytes). Returns whether `body` was filed, and the retired body.
    pub fn publish(
        &self,
        (key, canonical): (u64, Arc<str>),
        body: &Arc<Vec<u8>>,
        (stale_key, stale_canonical): (u64, &str),
    ) -> (bool, Option<Arc<Vec<u8>>>) {
        let mut table = self.lock();
        // Retire before filing: a mutate that leaves the content as it
        // was has one slot on both sides, and must keep its publish.
        let retired = match table.map.get(&stale_key) {
            Some((_, (c, Entry::Done(_)))) if **c == *stale_canonical => {
                match table.remove(stale_key) {
                    Some((_, Entry::Done(body))) => Some(body),
                    _ => None,
                }
            }
            _ => None,
        };
        if let Some((_, (_, Entry::InFlight(_)))) = table.map.get(&key) {
            return (false, retired);
        }
        table.insert(key, (canonical, Entry::Done(Arc::clone(body))));
        (true, retired)
    }
}

/// A leader's hold on its flight. Landing it files a 200 as the done
/// entry (anything else leaves the key empty) and wakes the followers;
/// dropping it unlanded, as a panicking solve does, abandons the flight
/// so that they solve alone.
struct Leader<'a> {
    cache: &'a ResultCache,
    key: u64,
    flight: Arc<Flight>,
}

impl Leader<'_> {
    fn land(&self, outcome: Option<Solved>) {
        let mut table = self.cache.lock();
        // Nothing else removes or replaces a flight: the key holds ours.
        let pinned = table.remove(self.key);
        if let (Some((canonical, _)), Some(solved)) = (pinned, &outcome) {
            if solved.status == 200 {
                let body = Arc::clone(&solved.body);
                table.insert(self.key, (canonical, Entry::Done(body)));
            }
        }
        let _ = self.flight.outcome.set(outcome);
        self.flight.landed.notify_all();
    }
}

impl Drop for Leader<'_> {
    fn drop(&mut self) {
        if self.flight.outcome.get().is_none() {
            self.land(None);
        }
    }
}

/// A least-recently-used map from a 64-bit key to a value, holding at
/// most `capacity` entries besides any pinned ones, which are never
/// evicted (capacity 0 keeps nothing unpinned). Recency is a monotonic
/// stamp per entry and eviction scans for the minimum: O(capacity),
/// which at a repair server's few hundred entries is cheaper than an
/// intrusive list, and obviously correct.
pub(crate) struct LruCache<V> {
    capacity: usize,
    clock: u64,
    /// Each value with its recency stamp; `None` pins it.
    map: HashMap<u64, (Option<u64>, V)>,
}

impl<V> LruCache<V> {
    /// An empty cache holding at most `capacity` unpinned entries.
    pub(crate) fn new(capacity: usize) -> LruCache<V> {
        LruCache {
            capacity,
            clock: 0,
            map: HashMap::with_capacity(capacity.min(4096)),
        }
    }

    /// Looks up a key, refreshing its recency unless it is pinned.
    pub(crate) fn get(&mut self, key: u64) -> Option<&mut V> {
        self.clock += 1;
        let clock = self.clock;
        let (stamp, value) = self.map.get_mut(&key)?;
        if let Some(stamp) = stamp {
            *stamp = clock;
        }
        Some(value)
    }

    /// Inserts (or refreshes) an unpinned entry, evicting the least
    /// recently used unpinned one when full.
    pub(crate) fn insert(&mut self, key: u64, value: V) {
        if self.capacity == 0 {
            return;
        }
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            let stamped = || self.map.iter().filter_map(|(k, (s, _))| Some(((*s)?, *k)));
            if stamped().count() >= self.capacity {
                if let Some((_, oldest)) = stamped().min() {
                    self.map.remove(&oldest);
                }
            }
        }
        self.clock += 1;
        self.map.insert(key, (Some(self.clock), value));
    }

    /// Inserts a pinned entry, whatever `key` held.
    pub(crate) fn pin(&mut self, key: u64, value: V) {
        self.map.insert(key, (None, value));
    }

    /// Removes `key`'s entry, pinned or not.
    pub(crate) fn remove(&mut self, key: u64) -> Option<V> {
        self.map.remove(&key).map(|(_, value)| value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::thread::JoinHandle;
    use std::time::Instant;

    const CAP: Duration = Duration::from_secs(30);

    impl ResultCache {
        /// Done entries held.
        pub(crate) fn len(&self) -> usize {
            let table = self.lock();
            table
                .map
                .values()
                .filter(|(stamp, _)| stamp.is_some())
                .count()
        }

        pub(crate) fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Whether a flight holds `key`.
        pub(crate) fn in_flight(&self, key: u64) -> bool {
            matches!(
                self.lock().map.get(&key),
                Some((_, (_, Entry::InFlight(_))))
            )
        }

        /// Followers waiting on the flight holding `key`: every holder
        /// of the flight but its entry and its leader.
        pub(crate) fn waiters(&self, key: u64) -> usize {
            match self.lock().map.get(&key) {
                Some((_, (_, Entry::InFlight(flight)))) => Arc::strong_count(flight) - 2,
                _ => 0,
            }
        }
    }

    fn solved(body: &str) -> Solved {
        Solved {
            status: 200,
            body: Arc::new(body.as_bytes().to_vec()),
        }
    }

    fn canonical(text: &str) -> Arc<str> {
        Arc::from(text)
    }

    fn text(body: &Arc<Vec<u8>>) -> &str {
        std::str::from_utf8(body).unwrap()
    }

    /// Spins, yielding and never sleeping, until `cond` holds.
    fn wait_until(cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "condition never held");
            std::thread::yield_now();
        }
    }

    /// A leader for `(key, call)` whose solve blocks until the returned
    /// sender fires, then answers `body`; returns once it is in flight.
    fn blocked_leader(
        cache: &Arc<ResultCache>,
        key: u64,
        call: &str,
        body: &'static str,
    ) -> (mpsc::Sender<()>, JoinHandle<(Solved, Served)>) {
        let (release, released) = mpsc::channel::<()>();
        let handle = {
            let (cache, call) = (Arc::clone(cache), canonical(call));
            std::thread::spawn(move || {
                cache.serve(key, &call, CAP, || {
                    released.recv().unwrap();
                    solved(body)
                })
            })
        };
        wait_until(|| cache.in_flight(key));
        (release, handle)
    }

    /// `n` callers of `(key, call)` that must not solve, joined on the
    /// leader's flight before this returns.
    fn followers(
        cache: &Arc<ResultCache>,
        key: u64,
        call: &str,
        n: usize,
    ) -> Vec<JoinHandle<(Solved, Served)>> {
        let handles = (0..n)
            .map(|_| {
                let (cache, call) = (Arc::clone(cache), canonical(call));
                std::thread::spawn(move || cache.serve(key, &call, CAP, || solved("second solve")))
            })
            .collect();
        wait_until(|| cache.waiters(key) == n);
        handles
    }

    fn assert_served(outcome: (Solved, Served), served: Served, body: &str) {
        assert_eq!(outcome.1, served);
        assert_eq!(text(&outcome.0.body), body);
    }

    #[test]
    fn followers_replay_the_leaders_bytes_with_one_solve() {
        let cache = Arc::new(ResultCache::new(4));
        let (release, leader) = blocked_leader(&cache, 1, "call", "the-report");
        assert!(cache.get(1, "call").is_none(), "a probe never waits");
        let followers = followers(&cache, 1, "call", 3);
        release.send(()).unwrap();
        assert_served(leader.join().unwrap(), Served::Miss, "the-report");
        for follower in followers {
            assert_served(follower.join().unwrap(), Served::Coalesced, "the-report");
        }
        assert!(!cache.in_flight(1));
        assert_eq!(text(&cache.get(1, "call").unwrap()), "the-report");
    }

    #[test]
    fn a_claim_after_a_completion_is_a_hit_with_no_second_solve() {
        let cache = ResultCache::new(4);
        let call = canonical("call");
        assert_served(
            cache.serve(1, &call, CAP, || solved("first")),
            Served::Miss,
            "first",
        );
        let again = cache.serve(1, &call, CAP, || panic!("solved twice"));
        assert_served(again, Served::Hit, "first");
        assert_eq!(cache.len(), 1);

        // An engine error is replayed to followers but never kept: the
        // next claim solves again.
        let failing = canonical("failing");
        let error = || Solved {
            status: 422,
            body: Arc::new(b"{\"error\":\"infeasible\"}".to_vec()),
        };
        assert_eq!(cache.serve(2, &failing, CAP, error).1, Served::Miss);
        assert!(cache.get(2, "failing").is_none());
        assert_eq!(cache.serve(2, &failing, CAP, error).1, Served::Miss);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn another_call_in_flight_under_the_same_key_solves_alone_and_never_replays() {
        let cache = Arc::new(ResultCache::new(4));
        let (release, leader) = blocked_leader(&cache, 1, "call-a", "a");
        // A key collision with a running flight neither waits nor joins
        // it, and leaves it running.
        let collision = cache.serve(1, &canonical("call-b"), CAP, || solved("b"));
        assert_served(collision, Served::Miss, "b");
        assert!(cache.in_flight(1));
        release.send(()).unwrap();
        assert_served(leader.join().unwrap(), Served::Miss, "a");
        // Nor does a done entry of another call answer it: it leads, and
        // its own bytes replace the foreign entry.
        assert!(cache.get(1, "call-b").is_none());
        let b = cache.serve(1, &canonical("call-b"), CAP, || solved("b2"));
        assert_served(b, Served::Miss, "b2");
        assert!(cache.get(1, "call-a").is_none());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn a_panicking_leader_wakes_its_followers_to_solve() {
        let cache = Arc::new(ResultCache::new(4));
        let (release, released) = mpsc::channel::<()>();
        let leader = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    cache.serve(1, &canonical("call"), CAP, || {
                        released.recv().unwrap();
                        panic!("engine bug");
                    })
                }))
                .is_err()
            })
        };
        wait_until(|| cache.in_flight(1));
        let follower = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || cache.serve(1, &canonical("call"), CAP, || solved("own")))
        };
        wait_until(|| cache.waiters(1) == 1);
        release.send(()).unwrap();
        assert!(leader.join().unwrap(), "the leader panicked");
        assert_served(follower.join().unwrap(), Served::Miss, "own");
        assert!(!cache.in_flight(1), "an abandoned flight retires");
        assert!(cache.is_empty(), "a follower solving alone files nothing");
    }

    #[test]
    fn a_follower_past_its_wait_cap_solves_alone() {
        let cache = Arc::new(ResultCache::new(4));
        let (release, leader) = blocked_leader(&cache, 1, "call", "leader");
        let cap = Duration::from_millis(10);
        let impatient = cache.serve(1, &canonical("call"), cap, || solved("impatient"));
        assert_served(impatient, Served::Miss, "impatient");
        assert!(cache.in_flight(1), "the flight keeps its key");
        release.send(()).unwrap();
        assert_served(leader.join().unwrap(), Served::Miss, "leader");
        let hit = cache.get(1, "call").unwrap();
        assert_eq!(text(&hit), "leader");
    }

    #[test]
    fn publish_and_retire_never_displace_a_flight_or_strand_its_followers() {
        let cache = Arc::new(ResultCache::new(4));
        let (release, leader) = blocked_leader(&cache, 1, "read", "solved");
        let followers = followers(&cache, 1, "read", 2);
        let published = Arc::new(b"published".to_vec());
        // Onto the flight's own slot: not filed, nothing retired.
        let (filed, retired) = cache.publish((1, canonical("read")), &published, (1, "read"));
        assert!(!filed && retired.is_none());
        // Elsewhere, retiring the flight's slot: filed, the flight stays.
        let (filed, retired) = cache.publish((2, canonical("next")), &published, (1, "read"));
        assert!(filed && retired.is_none());
        assert!(cache.in_flight(1));
        assert_eq!(cache.waiters(1), 2);
        release.send(()).unwrap();
        assert_served(leader.join().unwrap(), Served::Miss, "solved");
        for follower in followers {
            assert_served(follower.join().unwrap(), Served::Coalesced, "solved");
        }
        assert_eq!(text(&cache.get(1, "read").unwrap()), "solved");

        // A done entry retires only for its own canonical form.
        let (_, retired) = cache.publish((3, canonical("x")), &published, (2, "other"));
        assert!(retired.is_none());
        let (_, retired) = cache.publish((3, canonical("x")), &published, (2, "next"));
        assert_eq!(
            retired.as_deref().map(Vec::as_slice),
            Some(&b"published"[..])
        );
        assert!(cache.get(2, "next").is_none());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn capacity_zero_still_coalesces_and_keeps_nothing() {
        let cache = Arc::new(ResultCache::new(0));
        let (release, leader) = blocked_leader(&cache, 1, "call", "shared");
        let followers = followers(&cache, 1, "call", 3);
        release.send(()).unwrap();
        assert_served(leader.join().unwrap(), Served::Miss, "shared");
        for follower in followers {
            assert_served(follower.join().unwrap(), Served::Coalesced, "shared");
        }
        assert!(cache.is_empty() && !cache.in_flight(1));
        assert!(cache.get(1, "call").is_none());
        let again = cache.serve(1, &canonical("call"), CAP, || solved("again"));
        assert_served(again, Served::Miss, "again");
        let published = Arc::new(b"published".to_vec());
        cache.publish((2, canonical("p")), &published, (3, "q"));
        assert!(cache.is_empty());
    }

    #[test]
    fn flights_neither_count_against_the_capacity_nor_get_evicted() {
        let cache = Arc::new(ResultCache::new(2));
        let (release, leader) = blocked_leader(&cache, 1, "slow", "slow");
        for key in 2..=4 {
            let call = canonical(&format!("call-{key}"));
            cache.serve(key, &call, CAP, || solved("done"));
        }
        assert!(cache.in_flight(1));
        assert_eq!(cache.len(), 2);
        assert!(
            cache.get(2, "call-2").is_none(),
            "the oldest done entry went"
        );
        // Touch 3 so 4 is the least recently used when the flight lands.
        assert!(cache.get(3, "call-3").is_some());
        release.send(()).unwrap();
        leader.join().unwrap();
        assert_eq!(cache.len(), 2);
        assert!(cache.get(4, "call-4").is_none());
        assert!(cache.get(1, "slow").is_some() && cache.get(3, "call-3").is_some());
    }

    #[test]
    fn hit_miss_and_lru_eviction() {
        let mut cache = LruCache::new(2);
        assert!(cache.get(1).is_none());
        cache.insert(1, "one");
        cache.insert(2, "two");
        // Touch 1 so 2 becomes the LRU entry.
        assert_eq!(cache.get(1).copied(), Some("one"));
        cache.insert(3, "three");
        assert!(cache.get(2).is_none(), "LRU entry was evicted");
        assert_eq!(cache.get(1).copied(), Some("one"));
        assert_eq!(cache.get(3).copied(), Some("three"));
    }

    #[test]
    fn reinsert_refreshes_instead_of_evicting() {
        let mut cache = LruCache::new(2);
        cache.insert(1, "a");
        cache.insert(2, "b");
        cache.insert(1, "a2");
        assert_eq!(cache.get(1).copied(), Some("a2"));
        assert_eq!(cache.get(2).copied(), Some("b"));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = LruCache::new(0);
        cache.insert(1, "x");
        assert!(cache.get(1).is_none());
    }

    #[test]
    fn pinned_entries_are_neither_counted_nor_evicted() {
        let mut cache = LruCache::new(1);
        cache.pin(1, "pinned");
        cache.insert(2, "two");
        cache.insert(3, "three");
        assert_eq!(cache.get(1).copied(), Some("pinned"));
        assert!(cache.get(2).is_none(), "the unpinned entry was evicted");
        assert_eq!(cache.get(3).copied(), Some("three"));
        assert_eq!(cache.remove(1), Some("pinned"));
        assert!(cache.get(1).is_none());
    }
}
