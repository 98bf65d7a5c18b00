//! Tables at rest: the server-side store behind `PUT /tables/{id}`.
//!
//! A stored table is parsed and interned **once**, fingerprinted once
//! ([`fd_engine::table_fingerprint`]), and then shared by reference
//! (`Arc`) with every `/repair` / `/explain` call that names it — a
//! by-reference call costs O(Δ + request) to key and zero bytes of
//! table upload. Ids are namespaced per tenant (the sanitized
//! `X-Tenant` header, defaulting to `public`): tenants can neither read
//! nor collide with each other's tables.
//!
//! Quotas are counted per tenant in both tables and total rows, checked
//! *before* insertion, and released on delete; overflow is a 413 at the
//! router, never an unbounded allocation here.
//!
//! Beside each snapshot the store can keep one primed
//! [`IncrementalSession`] — a session at rest — built over exactly that
//! snapshot's table. `POST /tables/{id}/mutate` takes it out with
//! [`TableStore::checkout`] and hands it back with the successor
//! snapshot in [`TableStore::replace`], so consecutive mutates re-solve
//! only the components they touch. A session holds its own copy of the
//! table plus the component cache; neither is counted by the row quota.

use fd_core::Table;
use fd_engine::IncrementalSession;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// One table at rest. The snapshot behind the `Arc` is immutable;
/// mutation (`POST /tables/{id}/mutate`) swaps in a successor via
/// [`TableStore::replace`] with a fresh fingerprint, so in-flight
/// readers keep a coherent table and fingerprint pair.
pub struct StoredTable {
    /// The interned table, shared by reference with every call.
    pub table: Table,
    /// [`fd_engine::table_fingerprint`], computed once at `PUT`.
    pub fingerprint: u64,
    /// Row count (denormalized for quota accounting and metadata).
    pub rows: usize,
}

/// Why a store operation failed; the router maps each to one response.
#[derive(Debug, PartialEq, Eq)]
pub enum StoreError {
    /// `PUT` on an id the tenant already stored → 409.
    Exists,
    /// The tenant is at its table-count quota → 413.
    TableQuota {
        /// The configured per-tenant table limit.
        limit: usize,
    },
    /// Storing this table would exceed the tenant's row quota → 413.
    RowQuota {
        /// The configured per-tenant total-row limit.
        limit: usize,
    },
    /// No such table under this tenant → 404.
    NotFound,
    /// `replace` found a different snapshot than the one the call read:
    /// another mutate, or a DELETE and re-PUT, got there first → 409.
    Changed,
}

#[derive(Default)]
struct TenantUsage {
    tables: usize,
    rows: usize,
}

/// One stored id: its current snapshot and, between mutates, the
/// session primed over that snapshot's table.
struct Entry {
    stored: Arc<StoredTable>,
    session: Option<IncrementalSession>,
}

#[derive(Default)]
struct StoreInner {
    /// Keyed by `(tenant, id)` — ids are per-tenant namespaces.
    tables: HashMap<(String, String), Entry>,
    usage: HashMap<String, TenantUsage>,
}

/// The concurrent table store. One mutex over a HashMap: every
/// operation is O(1)-ish and touches no IO, so contention is
/// negligible next to request parsing.
pub struct TableStore {
    max_tables_per_tenant: usize,
    max_rows_per_tenant: usize,
    inner: Mutex<StoreInner>,
}

impl TableStore {
    /// A store enforcing the given per-tenant quotas (`0` = unlimited).
    pub fn new(max_tables_per_tenant: usize, max_rows_per_tenant: usize) -> TableStore {
        TableStore {
            max_tables_per_tenant,
            max_rows_per_tenant,
            inner: Mutex::new(StoreInner::default()),
        }
    }

    /// Stores `table` under `(tenant, id)`. Quotas are checked first;
    /// a duplicate id is a conflict (delete it first — immutable ids
    /// keep cached by-reference responses trivially correct).
    pub fn put(
        &self,
        tenant: &str,
        id: &str,
        table: Table,
        fingerprint: u64,
    ) -> Result<Arc<StoredTable>, StoreError> {
        let rows = table.len();
        let mut inner = match self.inner.lock() {
            Ok(inner) => inner,
            Err(poisoned) => poisoned.into_inner(),
        };
        if inner
            .tables
            .contains_key(&(tenant.to_string(), id.to_string()))
        {
            return Err(StoreError::Exists);
        }
        let usage = inner.usage.entry(tenant.to_string()).or_default();
        if self.max_tables_per_tenant > 0 && usage.tables >= self.max_tables_per_tenant {
            return Err(StoreError::TableQuota {
                limit: self.max_tables_per_tenant,
            });
        }
        if self.max_rows_per_tenant > 0 && usage.rows + rows > self.max_rows_per_tenant {
            return Err(StoreError::RowQuota {
                limit: self.max_rows_per_tenant,
            });
        }
        usage.tables += 1;
        usage.rows += rows;
        let stored = Arc::new(StoredTable {
            table,
            fingerprint,
            rows,
        });
        inner.tables.insert(
            (tenant.to_string(), id.to_string()),
            Entry {
                stored: Arc::clone(&stored),
                session: None,
            },
        );
        Ok(stored)
    }

    /// Swaps the table stored under `(tenant, id)` for a mutated
    /// successor, re-checking the row quota against the row *delta*
    /// and releasing/charging the difference, and keeps `session` (primed
    /// over `table`) at rest beside it. The id must already exist —
    /// `replace` is how `POST /tables/{id}/mutate` persists a session's
    /// table, never a way to sneak past the `put` conflict check.
    ///
    /// The swap is a compare-and-swap: it happens only while the id still
    /// holds `read`, the snapshot the call started from. Otherwise
    /// another writer got there first and the call is
    /// [`StoreError::Changed`], so no acknowledged edit is ever lost.
    /// Every failure leaves the store exactly as it was. Readers holding
    /// the old `Arc` keep a coherent snapshot.
    pub fn replace(
        &self,
        tenant: &str,
        id: &str,
        read: &Arc<StoredTable>,
        table: Table,
        fingerprint: u64,
        session: Option<IncrementalSession>,
    ) -> Result<Arc<StoredTable>, StoreError> {
        let rows = table.len();
        let mut inner = match self.inner.lock() {
            Ok(inner) => inner,
            Err(poisoned) => poisoned.into_inner(),
        };
        let key = (tenant.to_string(), id.to_string());
        let old_rows = match inner.tables.get(&key) {
            Some(entry) if Arc::ptr_eq(&entry.stored, read) => entry.stored.rows,
            Some(_) => return Err(StoreError::Changed),
            None => return Err(StoreError::NotFound),
        };
        let usage = inner.usage.entry(tenant.to_string()).or_default();
        let rows_after = usage.rows.saturating_sub(old_rows) + rows;
        if self.max_rows_per_tenant > 0 && rows_after > self.max_rows_per_tenant {
            return Err(StoreError::RowQuota {
                limit: self.max_rows_per_tenant,
            });
        }
        usage.rows = rows_after;
        let stored = Arc::new(StoredTable {
            table,
            fingerprint,
            rows,
        });
        inner.tables.insert(
            key,
            Entry {
                stored: Arc::clone(&stored),
                session,
            },
        );
        Ok(stored)
    }

    /// The table stored under `(tenant, id)`, if any.
    pub fn get(&self, tenant: &str, id: &str) -> Option<Arc<StoredTable>> {
        let inner = match self.inner.lock() {
            Ok(inner) => inner,
            Err(poisoned) => poisoned.into_inner(),
        };
        inner
            .tables
            .get(&(tenant.to_string(), id.to_string()))
            .map(|entry| Arc::clone(&entry.stored))
    }

    /// The table stored under `(tenant, id)` together with the session
    /// at rest beside it, which leaves the store: a concurrent mutate of
    /// the same id finds none and primes its own, and only one of the
    /// two can [`replace`](TableStore::replace) the snapshot.
    pub fn checkout(
        &self,
        tenant: &str,
        id: &str,
    ) -> Option<(Arc<StoredTable>, Option<IncrementalSession>)> {
        let mut inner = match self.inner.lock() {
            Ok(inner) => inner,
            Err(poisoned) => poisoned.into_inner(),
        };
        let entry = inner
            .tables
            .get_mut(&(tenant.to_string(), id.to_string()))?;
        Some((Arc::clone(&entry.stored), entry.session.take()))
    }

    /// Removes `(tenant, id)`, and any session at rest with it, and
    /// releases its quota.
    pub fn remove(&self, tenant: &str, id: &str) -> Result<Arc<StoredTable>, StoreError> {
        let mut inner = match self.inner.lock() {
            Ok(inner) => inner,
            Err(poisoned) => poisoned.into_inner(),
        };
        let stored = inner
            .tables
            .remove(&(tenant.to_string(), id.to_string()))
            .ok_or(StoreError::NotFound)?
            .stored;
        if let Some(usage) = inner.usage.get_mut(tenant) {
            usage.tables = usage.tables.saturating_sub(1);
            usage.rows = usage.rows.saturating_sub(stored.rows);
        }
        Ok(stored)
    }

    /// Total tables at rest, across all tenants (the
    /// `fd_serve_tables_stored` gauge).
    pub fn stored_count(&self) -> usize {
        match self.inner.lock() {
            Ok(inner) => inner.tables.len(),
            Err(poisoned) => poisoned.into_inner().tables.len(),
        }
    }

    /// This tenant's current usage: `(tables, rows)`.
    pub fn usage(&self, tenant: &str) -> (usize, usize) {
        let inner = match self.inner.lock() {
            Ok(inner) => inner,
            Err(poisoned) => poisoned.into_inner(),
        };
        inner
            .usage
            .get(tenant)
            .map(|u| (u.tables, u.rows))
            .unwrap_or((0, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_core::{Schema, Tuple, Value};

    fn table(rows: usize) -> Table {
        let schema = Schema::new("T", ["A"]).unwrap();
        let mut t = Table::new(schema);
        for i in 0..rows {
            t.push(Tuple::new(vec![Value::Int(i as i64)]), 1.0).unwrap();
        }
        t
    }

    #[test]
    fn put_get_remove_round_trip_with_quota_release() {
        let store = TableStore::new(2, 100);
        let stored = store.put("acme", "t1", table(3), 7).unwrap();
        assert_eq!(stored.rows, 3);
        assert_eq!(stored.fingerprint, 7);
        assert_eq!(store.usage("acme"), (1, 3));
        assert_eq!(store.get("acme", "t1").unwrap().fingerprint, 7);
        assert_eq!(store.stored_count(), 1);

        assert_eq!(
            store.put("acme", "t1", table(1), 8).err(),
            Some(StoreError::Exists)
        );
        store.remove("acme", "t1").unwrap();
        assert_eq!(store.usage("acme"), (0, 0));
        assert_eq!(store.remove("acme", "t1").err(), Some(StoreError::NotFound));
        // After the delete, the id is free again.
        store.put("acme", "t1", table(1), 8).unwrap();
    }

    #[test]
    fn quotas_bound_tables_and_rows_per_tenant() {
        let store = TableStore::new(2, 10);
        store.put("acme", "a", table(4), 0).unwrap();
        store.put("acme", "b", table(4), 0).unwrap();
        assert_eq!(
            store.put("acme", "c", table(1), 0).err(),
            Some(StoreError::TableQuota { limit: 2 })
        );
        // Another tenant's quota is untouched.
        store.put("rival", "a", table(9), 0).unwrap();
        assert_eq!(
            store.put("rival", "b", table(2), 0).err(),
            Some(StoreError::RowQuota { limit: 10 })
        );
        // A failed put must not leak quota.
        assert_eq!(store.usage("rival"), (1, 9));
        store.put("rival", "b", table(1), 0).unwrap();
    }

    #[test]
    fn replace_swaps_the_snapshot_and_recounts_the_row_delta() {
        let store = TableStore::new(0, 10);
        let first = store.put("acme", "t", table(4), 1).unwrap();
        // Growing within quota: the delta (not the sum) is charged.
        let stored = store
            .replace("acme", "t", &first, table(8), 2, None)
            .unwrap();
        assert_eq!(stored.fingerprint, 2);
        assert_eq!(store.usage("acme"), (1, 8));
        assert_eq!(store.get("acme", "t").unwrap().rows, 8);
        // Growing past quota fails without touching the stored table.
        assert_eq!(
            store
                .replace("acme", "t", &stored, table(11), 3, None)
                .err(),
            Some(StoreError::RowQuota { limit: 10 })
        );
        assert_eq!(store.get("acme", "t").unwrap().fingerprint, 2);
        assert_eq!(store.usage("acme"), (1, 8));
        // Shrinking releases quota; an unknown id is NotFound.
        store
            .replace("acme", "t", &stored, table(1), 4, None)
            .unwrap();
        assert_eq!(store.usage("acme"), (1, 1));
        assert_eq!(
            store
                .replace("acme", "nope", &stored, table(1), 5, None)
                .err(),
            Some(StoreError::NotFound)
        );
    }

    #[test]
    fn replace_from_a_stale_snapshot_is_a_conflict_that_changes_nothing() {
        let store = TableStore::new(0, 100);
        // Two mutates read the same snapshot; the first swap wins.
        let read = store.put("acme", "t", table(4), 1).unwrap();
        let winner = store
            .replace("acme", "t", &read, table(5), 2, None)
            .unwrap();
        assert_eq!(
            store.replace("acme", "t", &read, table(6), 3, None).err(),
            Some(StoreError::Changed)
        );
        assert!(Arc::ptr_eq(&store.get("acme", "t").unwrap(), &winner));
        assert_eq!(store.usage("acme"), (1, 5));

        // A DELETE and re-PUT of the id in between is a conflict too,
        // even though the id exists again with the same row count.
        store.remove("acme", "t").unwrap();
        store.put("acme", "t", table(5), 4).unwrap();
        assert_eq!(
            store.replace("acme", "t", &winner, table(5), 5, None).err(),
            Some(StoreError::Changed)
        );
        assert_eq!(store.get("acme", "t").unwrap().fingerprint, 4);
        assert_eq!(store.usage("acme"), (1, 5));
    }

    fn session(table: Table) -> IncrementalSession {
        let fds = fd_core::FdSet::parse(table.schema(), "-> A").unwrap();
        IncrementalSession::new(table, fds, fd_engine::RepairRequest::subset()).unwrap()
    }

    #[test]
    fn sessions_rest_beside_their_snapshot_until_checked_out_or_deleted() {
        let store = TableStore::new(0, 0);
        let put = store.put("acme", "t", table(3), 1).unwrap();
        // A fresh PUT has no session at rest.
        let (read, none) = store.checkout("acme", "t").unwrap();
        assert!(Arc::ptr_eq(&read, &put) && none.is_none());
        store
            .replace("acme", "t", &read, table(4), 2, Some(session(table(4))))
            .unwrap();
        // Checking out takes the session: a second caller finds none.
        let (read, taken) = store.checkout("acme", "t").unwrap();
        assert_eq!(taken.unwrap().table().len(), 4);
        assert!(store.checkout("acme", "t").unwrap().1.is_none());
        // A losing replace drops the session it was handed.
        store
            .replace("acme", "t", &read, table(4), 3, Some(session(table(4))))
            .unwrap();
        assert_eq!(
            store
                .replace("acme", "t", &read, table(2), 4, Some(session(table(2))))
                .err(),
            Some(StoreError::Changed)
        );
        assert_eq!(
            store
                .checkout("acme", "t")
                .unwrap()
                .1
                .unwrap()
                .table()
                .len(),
            4
        );
        // DELETE drops the session with its table; a re-PUT starts bare.
        let read = store.get("acme", "t").unwrap();
        store
            .replace("acme", "t", &read, table(4), 5, Some(session(table(4))))
            .unwrap();
        store.remove("acme", "t").unwrap();
        assert!(store.checkout("acme", "t").is_none());
        store.put("acme", "t", table(4), 6).unwrap();
        assert!(store.checkout("acme", "t").unwrap().1.is_none());
    }

    #[test]
    fn tenants_are_isolated_namespaces() {
        let store = TableStore::new(0, 0);
        store.put("a", "shared-id", table(1), 1).unwrap();
        assert!(store.get("b", "shared-id").is_none());
        store.put("b", "shared-id", table(2), 2).unwrap();
        assert_eq!(store.get("a", "shared-id").unwrap().fingerprint, 1);
        assert_eq!(store.get("b", "shared-id").unwrap().fingerprint, 2);
        assert_eq!(store.remove("b", "shared-id").unwrap().fingerprint, 2);
        assert!(store.get("a", "shared-id").is_some());
    }
}
