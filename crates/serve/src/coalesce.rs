//! Single-flight coalescing: concurrent *cacheable* calls with the same
//! cache key run **one** solve; the rest block on it and replay its
//! exact bytes. A thundering herd on one table costs one solve, and —
//! because the leader's bytes are what everyone gets — coalesced
//! responses are byte-identical to direct engine output by
//! construction.
//!
//! Safety properties, in order of importance:
//!
//! * **No wrong bytes.** A flight is joined only when the *canonical
//!   form* matches, exactly like cache verification — an FNV key
//!   collision degrades to an independent solve, never a wrong reply.
//! * **No hung followers.** The leader marks the flight `Abandoned` on
//!   unwind (drop guard), and followers carry a wait cap; both turn a
//!   dead leader into a fallback self-solve.
//! * **No retained results.** The flight table only holds in-progress
//!   work; results live in the LRU cache, which the leader fills
//!   *before* completing the flight, so late arrivals hit the cache.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// What one solve produced, as the repair path ships it: status plus
/// body bytes (every `/repair` / `/explain` reply is JSON, errors
/// included, so the content type needs no replaying).
#[derive(Clone)]
pub struct FlightResult {
    /// The response status the leader computed (200 or an engine 4xx —
    /// identical deterministic calls fail identically, so replaying an
    /// error is as correct as replaying a report).
    pub status: u16,
    /// The exact body bytes, shared with the cache entry on success.
    pub body: Arc<Vec<u8>>,
}

enum FlightState {
    Running,
    Done(Arc<FlightResult>),
    /// The leader unwound without completing; followers must self-solve.
    Abandoned,
}

struct Flight {
    canonical: Arc<str>,
    state: Mutex<FlightState>,
    done: Condvar,
    waiters: AtomicUsize,
}

/// How a call went through [`SingleFlight::run`].
pub enum Outcome {
    /// This call solved (as flight leader, after a collision, or as a
    /// fallback when its leader died or overran the wait cap).
    Led(Arc<FlightResult>),
    /// This call replayed a concurrent leader's bytes.
    Coalesced(Arc<FlightResult>),
}

/// The in-flight solve table. One per server, keyed like the result
/// cache.
#[derive(Default)]
pub struct SingleFlight {
    inflight: Mutex<HashMap<u64, Arc<Flight>>>,
}

fn lock_or_recover<'a, T>(mutex: &'a Mutex<T>) -> MutexGuard<'a, T> {
    // The values behind these locks are plain state machines; a panic
    // mid-update cannot leave them unusable, and refusing to serve
    // because some other request panicked would turn one bug into an
    // outage.
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl SingleFlight {
    /// Fresh, with nothing in flight.
    pub fn new() -> SingleFlight {
        SingleFlight::default()
    }

    /// Runs `solve` under single-flight: the first call for `key`
    /// becomes the leader and actually solves; concurrent calls whose
    /// `canonical` matches wait (up to `wait_cap`) and replay the
    /// leader's result. `solve` must itself store the result wherever
    /// late arrivals look (the LRU cache) *before* returning — the
    /// flight is completed after it.
    pub fn run(
        &self,
        key: u64,
        canonical: &Arc<str>,
        wait_cap: Duration,
        solve: impl FnOnce() -> FlightResult,
    ) -> Outcome {
        let role = {
            let mut map = lock_or_recover(&self.inflight);
            match map.get(&key) {
                Some(flight) if flight.canonical == *canonical => {
                    let flight = Arc::clone(flight);
                    flight.waiters.fetch_add(1, Ordering::SeqCst);
                    Role::Follower(flight)
                }
                // Key collision with a different call: solve solo, do
                // not join or replace the flight.
                Some(_) => Role::Solo,
                None => {
                    let flight = Arc::new(Flight {
                        canonical: Arc::clone(canonical),
                        state: Mutex::new(FlightState::Running),
                        done: Condvar::new(),
                        waiters: AtomicUsize::new(0),
                    });
                    map.insert(key, Arc::clone(&flight));
                    Role::Leader(flight)
                }
            }
        };
        match role {
            Role::Solo => Outcome::Led(Arc::new(solve())),
            Role::Leader(flight) => {
                let guard = LeaderGuard {
                    single_flight: self,
                    key,
                    flight,
                    completed: false,
                };
                let result = Arc::new(solve());
                guard.complete(Arc::clone(&result));
                Outcome::Led(result)
            }
            Role::Follower(flight) => {
                let deadline = Instant::now() + wait_cap;
                let mut state = lock_or_recover(&flight.state);
                loop {
                    match &*state {
                        FlightState::Done(result) => {
                            return Outcome::Coalesced(Arc::clone(result));
                        }
                        FlightState::Abandoned => break,
                        FlightState::Running => {
                            let now = Instant::now();
                            if now >= deadline {
                                break;
                            }
                            state = flight
                                .done
                                .wait_timeout(state, deadline - now)
                                .unwrap_or_else(PoisonError::into_inner)
                                .0;
                        }
                    }
                }
                drop(state);
                // The leader died or overran the cap: solving ourselves
                // is always correct, just not coalesced.
                Outcome::Led(Arc::new(solve()))
            }
        }
    }

    /// Marks `flight` finished with `final_state`, wakes every waiter,
    /// and retires the map entry (only if it is still this flight — a
    /// fallback may have long replaced it).
    fn finish(&self, key: u64, flight: &Arc<Flight>, final_state: FlightState) {
        *lock_or_recover(&flight.state) = final_state;
        flight.done.notify_all();
        let mut map = lock_or_recover(&self.inflight);
        if map.get(&key).is_some_and(|f| Arc::ptr_eq(f, flight)) {
            map.remove(&key);
        }
    }

    /// How many followers are currently attached to `key`'s flight
    /// (tests use this to sequence deterministically).
    pub fn waiters(&self, key: u64) -> usize {
        lock_or_recover(&self.inflight)
            .get(&key)
            .map(|f| f.waiters.load(Ordering::SeqCst))
            .unwrap_or(0)
    }

    /// Whether a flight for `key` is currently running.
    pub fn in_flight(&self, key: u64) -> bool {
        lock_or_recover(&self.inflight).contains_key(&key)
    }
}

enum Role {
    Leader(Arc<Flight>),
    Follower(Arc<Flight>),
    Solo,
}

/// Abandons the flight if the leader's solve unwinds (a panic in the
/// engine must strand no followers); defused by [`LeaderGuard::complete`].
struct LeaderGuard<'a> {
    single_flight: &'a SingleFlight,
    key: u64,
    flight: Arc<Flight>,
    completed: bool,
}

impl LeaderGuard<'_> {
    fn complete(mut self, result: Arc<FlightResult>) {
        self.completed = true;
        self.single_flight
            .finish(self.key, &self.flight, FlightState::Done(result));
    }
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        if !self.completed {
            self.single_flight
                .finish(self.key, &self.flight, FlightState::Abandoned);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;

    fn result(body: &str) -> FlightResult {
        FlightResult {
            status: 200,
            body: Arc::new(body.as_bytes().to_vec()),
        }
    }

    fn canonical(text: &str) -> Arc<str> {
        Arc::from(text)
    }

    /// Spin until `cond` holds (bounded; condvar wakeups are fast).
    fn wait_until(cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "condition never held");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn followers_replay_the_leaders_bytes_with_one_solve() {
        let sf = Arc::new(SingleFlight::new());
        let solves = Arc::new(AtomicUsize::new(0));
        let (release_tx, release_rx) = mpsc::channel::<()>();

        let leader = {
            let (sf, solves) = (Arc::clone(&sf), Arc::clone(&solves));
            std::thread::spawn(move || {
                sf.run(1, &canonical("call"), Duration::from_secs(30), || {
                    solves.fetch_add(1, Ordering::SeqCst);
                    release_rx.recv().unwrap();
                    result("the-report")
                })
            })
        };
        // The leader is inside its solve; attach three followers and
        // wait until every one of them is registered on the flight.
        wait_until(|| sf.in_flight(1));
        let followers: Vec<_> = (0..3)
            .map(|_| {
                let (sf, solves) = (Arc::clone(&sf), Arc::clone(&solves));
                std::thread::spawn(move || {
                    sf.run(1, &canonical("call"), Duration::from_secs(30), || {
                        solves.fetch_add(1, Ordering::SeqCst);
                        result("independent")
                    })
                })
            })
            .collect();
        wait_until(|| sf.waiters(1) == 3);
        release_tx.send(()).unwrap();

        match leader.join().unwrap() {
            Outcome::Led(r) => assert_eq!(r.body.as_slice(), b"the-report"),
            Outcome::Coalesced(_) => panic!("the first caller must lead"),
        }
        for follower in followers {
            match follower.join().unwrap() {
                Outcome::Coalesced(r) => assert_eq!(r.body.as_slice(), b"the-report"),
                Outcome::Led(_) => panic!("registered followers must coalesce"),
            }
        }
        assert_eq!(solves.load(Ordering::SeqCst), 1, "N calls, one solve");
        assert!(!sf.in_flight(1), "completed flights retire");
    }

    #[test]
    fn a_panicking_leader_strands_no_followers() {
        let sf = Arc::new(SingleFlight::new());
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let leader = {
            let sf = Arc::clone(&sf);
            std::thread::spawn(move || {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    sf.run(1, &canonical("call"), Duration::from_secs(30), || {
                        release_rx.recv().unwrap();
                        panic!("engine bug");
                    })
                }));
            })
        };
        wait_until(|| sf.in_flight(1));
        let follower = {
            let sf = Arc::clone(&sf);
            std::thread::spawn(move || {
                sf.run(1, &canonical("call"), Duration::from_secs(30), || {
                    result("fallback")
                })
            })
        };
        wait_until(|| sf.waiters(1) == 1);
        release_tx.send(()).unwrap();
        leader.join().unwrap();
        match follower.join().unwrap() {
            Outcome::Led(r) => assert_eq!(r.body.as_slice(), b"fallback"),
            Outcome::Coalesced(_) => panic!("an abandoned flight must not be replayed"),
        }
        assert!(!sf.in_flight(1), "abandoned flights retire");
    }

    #[test]
    fn key_collisions_and_timeouts_fall_back_to_solo_solves() {
        let sf = Arc::new(SingleFlight::new());
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let leader = {
            let sf = Arc::clone(&sf);
            std::thread::spawn(move || {
                sf.run(1, &canonical("call-a"), Duration::from_secs(30), || {
                    release_rx.recv().unwrap();
                    result("a")
                })
            })
        };
        wait_until(|| sf.in_flight(1));
        // Same key, different canonical: an FNV collision must solve
        // independently, without waiting and without corrupting the
        // running flight.
        match sf.run(1, &canonical("call-b"), Duration::from_secs(30), || {
            result("b")
        }) {
            Outcome::Led(r) => assert_eq!(r.body.as_slice(), b"b"),
            Outcome::Coalesced(_) => panic!("collisions must never coalesce"),
        }
        // Same canonical but a tiny wait cap: gives up and self-solves.
        match sf.run(1, &canonical("call-a"), Duration::from_millis(20), || {
            result("impatient")
        }) {
            Outcome::Led(r) => assert_eq!(r.body.as_slice(), b"impatient"),
            Outcome::Coalesced(_) => panic!("the leader is still blocked"),
        }
        release_tx.send(()).unwrap();
        match leader.join().unwrap() {
            Outcome::Led(r) => assert_eq!(r.body.as_slice(), b"a"),
            Outcome::Coalesced(_) => panic!("leader led"),
        }
    }
}
