//! Strict two-phase locking with a no-wait conflict policy.
//!
//! The paper assumes "the existence of some serializability protocol" (§3)
//! inside the database tier; this lock table provides it. **No-wait** means
//! a conflicting request dooms the requesting branch instead of blocking —
//! the branch will vote *no*, the attempt aborts, and the client retries a
//! fresh attempt. This matches the paper's liveness assumption that "if an
//! application server keeps computing results, a result eventually commits"
//! (§4, footnote 4) without introducing deadlocks into the simulation.

use etx_base::ids::ResultId;
use std::collections::{BTreeMap, BTreeSet};

/// Lock strength.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Shared (readers).
    Shared,
    /// Exclusive (writers).
    Exclusive,
}

#[derive(Debug, Default)]
struct LockEntry {
    shared: BTreeSet<ResultId>,
    exclusive: Option<ResultId>,
}

/// Outcome of a lock request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockGrant {
    /// Acquired (or already held at sufficient strength).
    Granted,
    /// Conflicts with another branch — requester must abort (no-wait).
    Conflict,
}

/// A per-database lock table keyed by record key.
#[derive(Debug, Default)]
pub struct LockTable {
    entries: BTreeMap<String, LockEntry>,
}

impl LockTable {
    /// Empty table.
    pub fn new() -> Self {
        LockTable::default()
    }

    /// Requests `mode` on `key` for branch `rid` (no-wait).
    /// A key is cloned into the table only when it enters it: a request on
    /// a key that already has an entry allocates nothing.
    pub fn acquire(&mut self, key: &str, rid: ResultId, mode: LockMode) -> LockGrant {
        let Some(e) = self.entries.get_mut(key) else {
            // A key nobody holds: granted at once.
            let mut e = LockEntry::default();
            match mode {
                LockMode::Shared => {
                    e.shared.insert(rid);
                }
                LockMode::Exclusive => e.exclusive = Some(rid),
            }
            self.entries.insert(key.to_string(), e);
            return LockGrant::Granted;
        };
        match mode {
            LockMode::Shared => {
                match e.exclusive {
                    Some(holder) if holder != rid => LockGrant::Conflict,
                    _ => {
                        // X by self implies S; otherwise take S.
                        if e.exclusive.is_none() {
                            e.shared.insert(rid);
                        }
                        LockGrant::Granted
                    }
                }
            }
            LockMode::Exclusive => {
                if let Some(holder) = e.exclusive {
                    if holder == rid {
                        return LockGrant::Granted;
                    }
                    return LockGrant::Conflict;
                }
                let others_share = e.shared.iter().any(|&h| h != rid);
                if others_share {
                    return LockGrant::Conflict;
                }
                // Upgrade own shared lock (or fresh acquire).
                e.shared.remove(&rid);
                e.exclusive = Some(rid);
                LockGrant::Granted
            }
        }
    }

    /// Releases everything `rid` holds.
    pub fn release_all(&mut self, rid: ResultId) {
        self.entries.retain(|_, e| {
            e.shared.remove(&rid);
            if e.exclusive == Some(rid) {
                e.exclusive = None;
            }
            e.exclusive.is_some() || !e.shared.is_empty()
        });
    }

    /// Whether `rid` holds any lock on `key` at least as strong as `mode`.
    pub fn holds(&self, key: &str, rid: ResultId, mode: LockMode) -> bool {
        let Some(e) = self.entries.get(key) else { return false };
        match mode {
            LockMode::Shared => e.shared.contains(&rid) || e.exclusive == Some(rid),
            LockMode::Exclusive => e.exclusive == Some(rid),
        }
    }

    /// Number of keys with at least one lock (diagnostics / tests).
    pub fn locked_keys(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etx_base::ids::{NodeId, RequestId};

    fn rid(n: u64) -> ResultId {
        ResultId::first(RequestId { client: NodeId(0), seq: n })
    }

    #[test]
    fn shared_locks_coexist() {
        let mut t = LockTable::new();
        assert_eq!(t.acquire("k", rid(1), LockMode::Shared), LockGrant::Granted);
        assert_eq!(t.acquire("k", rid(2), LockMode::Shared), LockGrant::Granted);
        assert!(t.holds("k", rid(1), LockMode::Shared));
        assert!(t.holds("k", rid(2), LockMode::Shared));
    }

    #[test]
    fn exclusive_excludes_everyone() {
        let mut t = LockTable::new();
        assert_eq!(t.acquire("k", rid(1), LockMode::Exclusive), LockGrant::Granted);
        assert_eq!(t.acquire("k", rid(2), LockMode::Exclusive), LockGrant::Conflict);
        assert_eq!(t.acquire("k", rid(2), LockMode::Shared), LockGrant::Conflict);
        // Re-entrant for the holder.
        assert_eq!(t.acquire("k", rid(1), LockMode::Exclusive), LockGrant::Granted);
        assert_eq!(t.acquire("k", rid(1), LockMode::Shared), LockGrant::Granted);
    }

    #[test]
    fn shared_blocks_exclusive_from_others() {
        let mut t = LockTable::new();
        assert_eq!(t.acquire("k", rid(1), LockMode::Shared), LockGrant::Granted);
        assert_eq!(t.acquire("k", rid(2), LockMode::Exclusive), LockGrant::Conflict);
    }

    #[test]
    fn upgrade_own_shared_to_exclusive() {
        let mut t = LockTable::new();
        assert_eq!(t.acquire("k", rid(1), LockMode::Shared), LockGrant::Granted);
        assert_eq!(t.acquire("k", rid(1), LockMode::Exclusive), LockGrant::Granted);
        assert!(t.holds("k", rid(1), LockMode::Exclusive));
        // But not if someone else shares it.
        let mut t2 = LockTable::new();
        t2.acquire("k", rid(1), LockMode::Shared);
        t2.acquire("k", rid(2), LockMode::Shared);
        assert_eq!(t2.acquire("k", rid(1), LockMode::Exclusive), LockGrant::Conflict);
    }

    #[test]
    fn release_unblocks() {
        let mut t = LockTable::new();
        t.acquire("a", rid(1), LockMode::Exclusive);
        t.acquire("b", rid(1), LockMode::Shared);
        t.release_all(rid(1));
        assert_eq!(t.locked_keys(), 0);
        assert_eq!(t.acquire("a", rid(2), LockMode::Exclusive), LockGrant::Granted);
        assert!(!t.holds("a", rid(1), LockMode::Shared));
    }

    #[test]
    fn a_release_takes_only_the_branch_own_locks() {
        let mut t = LockTable::new();
        let (a, b) = (rid(1), rid(2));
        assert_eq!(t.acquire("shared", a, LockMode::Shared), LockGrant::Granted);
        assert_eq!(t.acquire("shared", b, LockMode::Shared), LockGrant::Granted);
        assert_eq!(t.acquire("mine", a, LockMode::Exclusive), LockGrant::Granted);
        assert_eq!(t.acquire("theirs", b, LockMode::Exclusive), LockGrant::Granted);
        assert_eq!(t.locked_keys(), 3);
        t.release_all(a);
        assert_eq!(t.locked_keys(), 2, "the key only `a` held goes");
        assert!(t.holds("shared", b, LockMode::Shared) && !t.holds("shared", a, LockMode::Shared));
        assert!(t.holds("theirs", b, LockMode::Exclusive) && !t.holds("mine", a, LockMode::Shared));
        t.release_all(a);
        assert_eq!(t.locked_keys(), 2, "a second release changes nothing");
        t.release_all(b);
        assert_eq!(t.locked_keys(), 0);
    }

    /// A second statement of the table's rules, over plain tuples: the
    /// model the proptest holds the table to.
    #[derive(Default)]
    struct Model(BTreeMap<String, (BTreeSet<ResultId>, Option<ResultId>)>);

    impl Model {
        fn acquire(&mut self, key: &str, rid: ResultId, mode: LockMode) -> LockGrant {
            let (shared, exclusive) = self.0.entry(key.to_string()).or_default();
            match (mode, *exclusive) {
                (_, Some(holder)) if holder != rid => LockGrant::Conflict,
                (_, Some(_)) => LockGrant::Granted,
                (LockMode::Shared, None) => {
                    shared.insert(rid);
                    LockGrant::Granted
                }
                (LockMode::Exclusive, None) if shared.iter().any(|&h| h != rid) => {
                    LockGrant::Conflict
                }
                (LockMode::Exclusive, None) => {
                    shared.remove(&rid);
                    *exclusive = Some(rid);
                    LockGrant::Granted
                }
            }
        }

        fn release_all(&mut self, rid: ResultId) {
            self.0.retain(|_, (shared, exclusive)| {
                shared.remove(&rid);
                if *exclusive == Some(rid) {
                    *exclusive = None;
                }
                exclusive.is_some() || !shared.is_empty()
            });
        }
    }

    proptest::proptest! {
        /// Under random acquires (both modes, upgrades, re-acquires,
        /// conflicts) and releases of four branches over four keys, every
        /// grant, every `holds` answer and `locked_keys()` are the model's
        /// after every step: a release takes exactly its branch's locks and
        /// drops the entries it empties.
        #[test]
        fn the_table_matches_a_model_of_its_rules(
            ops in proptest::collection::vec((0u64..4, 0usize..4, 0u8..5), 1..80)
        ) {
            let keys = ["a", "b", "c", "d"];
            let mut t = LockTable::new();
            let mut model = Model::default();
            for (branch, key, op) in ops {
                let (branch, key) = (rid(branch), keys[key]);
                let mode = if op < 2 { LockMode::Shared } else { LockMode::Exclusive };
                if op < 4 {
                    proptest::prop_assert_eq!(
                        t.acquire(key, branch, mode),
                        model.acquire(key, branch, mode)
                    );
                } else {
                    t.release_all(branch);
                    model.release_all(branch);
                }
                proptest::prop_assert_eq!(t.locked_keys(), model.0.len());
                for key in keys {
                    for branch in 0..4 {
                        for mode in [LockMode::Shared, LockMode::Exclusive] {
                            let expect = model.0.get(key).is_some_and(|(s, x)| match mode {
                                LockMode::Shared => s.contains(&rid(branch)) || *x == Some(rid(branch)),
                                LockMode::Exclusive => *x == Some(rid(branch)),
                            });
                            proptest::prop_assert_eq!(t.holds(key, rid(branch), mode), expect);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn exclusive_implies_shared_without_double_entry() {
        let mut t = LockTable::new();
        t.acquire("k", rid(1), LockMode::Exclusive);
        assert_eq!(t.acquire("k", rid(1), LockMode::Shared), LockGrant::Granted);
        t.release_all(rid(1));
        assert_eq!(t.acquire("k", rid(2), LockMode::Exclusive), LockGrant::Granted);
    }
}
