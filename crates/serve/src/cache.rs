//! The LRU result cache: repair reports keyed by the engine's
//! [`fd_engine::cache_key`] hash of (instance, Δ, request knobs).
//! Values are the exact serialized response bodies, so a hit skips
//! planning, solving, *and* serialization.

use std::collections::HashMap;
use std::sync::Arc;

/// One cached response: the canonical serialization of the call that
/// produced it, plus the exact body bytes. The 64-bit key is a hash, so
/// a hit is only trusted after the canonical forms compare equal — a
/// crafted (or accidental) key collision must never replay someone
/// else's report.
#[derive(Clone, Debug)]
pub struct CachedResponse {
    /// Canonical wire form of the call (endpoint-tagged).
    pub canonical: Arc<str>,
    /// The serialized response body to replay, in the one allocation
    /// that every response shipping it shares.
    pub body: Arc<Vec<u8>>,
}

/// A fixed-capacity least-recently-used map from cache key to a value.
/// Capacity 0 disables caching entirely.
///
/// Recency is tracked with a monotonic stamp per entry; eviction scans
/// for the minimum. That is O(capacity), which at the few-hundred-entry
/// capacities a repair server uses is cheaper than maintaining an
/// intrusive list — and it keeps the structure obviously correct.
pub struct LruCache<V> {
    capacity: usize,
    clock: u64,
    map: HashMap<u64, (u64, V)>,
}

impl<V: Clone> LruCache<V> {
    /// An empty cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> LruCache<V> {
        LruCache {
            capacity,
            clock: 0,
            map: HashMap::with_capacity(capacity.min(4096)),
        }
    }

    /// Looks up a key, refreshing its recency on a hit.
    pub fn get(&mut self, key: u64) -> Option<V> {
        self.clock += 1;
        let clock = self.clock;
        self.map.get_mut(&key).map(|(stamp, value)| {
            *stamp = clock;
            value.clone()
        })
    }

    /// Inserts (or refreshes) an entry, evicting the least recently
    /// used one when full.
    pub fn insert(&mut self, key: u64, value: V) {
        if self.capacity == 0 {
            return;
        }
        self.clock += 1;
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| *k)
            {
                self.map.remove(&oldest);
            }
        }
        self.map.insert(key, (self.clock, value));
    }

    /// Removes `key`'s entry if `stale` holds for its value, without
    /// refreshing anything; returns the value it removed.
    pub fn remove_if(&mut self, key: u64, stale: impl FnOnce(&V) -> bool) -> Option<V> {
        if !self.map.get(&key).is_some_and(|(_, value)| stale(value)) {
            return None;
        }
        self.map.remove(&key).map(|(_, value)| value)
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True iff no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> Arc<str> {
        Arc::from(s)
    }

    #[test]
    fn hit_miss_and_lru_eviction() {
        let mut cache = LruCache::new(2);
        assert!(cache.get(1).is_none());
        cache.insert(1, v("one"));
        cache.insert(2, v("two"));
        // Touch 1 so 2 becomes the LRU entry.
        assert_eq!(cache.get(1).as_deref(), Some("one"));
        cache.insert(3, v("three"));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(2).is_none(), "LRU entry was evicted");
        assert_eq!(cache.get(1).as_deref(), Some("one"));
        assert_eq!(cache.get(3).as_deref(), Some("three"));
    }

    #[test]
    fn reinsert_refreshes_instead_of_evicting() {
        let mut cache = LruCache::new(2);
        cache.insert(1, v("a"));
        cache.insert(2, v("b"));
        cache.insert(1, v("a2"));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(1).as_deref(), Some("a2"));
        assert_eq!(cache.get(2).as_deref(), Some("b"));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = LruCache::new(0);
        cache.insert(1, v("x"));
        assert!(cache.is_empty());
        assert!(cache.get(1).is_none());
    }

    #[test]
    fn stores_verified_responses() {
        let mut cache: LruCache<CachedResponse> = LruCache::new(2);
        cache.insert(
            7,
            CachedResponse {
                canonical: v("repair\n{…}"),
                body: Arc::new(b"{\"cost\":2}".to_vec()),
            },
        );
        let entry = cache.get(7).unwrap();
        assert_eq!(&*entry.canonical, "repair\n{…}");
        assert_eq!(entry.body.as_slice(), b"{\"cost\":2}");
    }

    #[test]
    fn remove_if_checks_the_value_first() {
        let mut cache = LruCache::new(2);
        cache.insert(1, v("old"));
        assert!(cache.remove_if(1, |value| &**value == "other").is_none());
        assert!(
            cache.remove_if(2, |_| true).is_none(),
            "absent keys remove nothing"
        );
        assert_eq!(cache.len(), 1);
        assert_eq!(
            cache.remove_if(1, |value| &**value == "old"),
            Some(v("old"))
        );
        assert!(cache.is_empty());
    }
}
