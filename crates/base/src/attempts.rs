//! Per-client attempt windows: the middle tier's per-attempt tables.
//!
//! Everything the application servers remember per attempt — protocol
//! state machines, the decision log's arbitration memory, in-flight reads,
//! cached results — and each database's decide memo is keyed by
//! [`ResultId`]. The middle tier forgets by client watermark: "every
//! attempt of client `c` below request `seq`". A client's open attempts are
//! therefore not points of one global ordered index but a short FIFO
//! **window** of (nearly) consecutive sequence numbers (Figure 2: a client
//! has a bounded number of requests in flight and settles them oldest
//! first). [`AttemptWindows`] stores exactly that shape: the clients in a
//! vector sorted by [`NodeId`], and under each client its attempts as a run
//! sorted by `(seq, attempt)` together with the client's *floor* — the
//! highest watermark a drain has been given.
//!
//! What a lookup costs, in the common case one probe per level:
//!
//! * **the client**: the window at index `client` is looked at first, and
//!   taken if it is that client's. Clients are numbered densely from 0
//!   (`Topology::new`), so once every client has a window each sits at its
//!   own id. The probe is verified, not trusted: while some client has no
//!   window yet the slot holds another client's, and an id past the end has
//!   none. Either way the lookup falls back to a binary search of the one
//!   sorted vector, so sparse ids — the reserved `NodeId(u32::MAX)` of
//!   [`ResultId::repl_snapshot`] included — stay correct, at the old cost;
//! * **the attempt**: the run's newest slot is compared first. Attempts
//!   arrive in order, so a new one goes after it and most lookups name it;
//!   only an older attempt costs a binary search of the run. A run that
//!   only grows (the decide memo) stays one comparison per insert;
//! * a question about the floor and the record together is one lookup
//!   ([`AttemptWindows::get_with_floor`], [`AttemptWindows::open`]).
//!
//! And over a `BTreeMap<ResultId, V>` besides:
//!
//! * the watermark GC is **one prefix drain** ([`AttemptWindows::below`]):
//!   the stale attempts are the front of one client's run;
//! * tables that are always written together can share one record per
//!   attempt, so one event costs one lookup.
//!
//! What it keeps: iteration is in exactly the derived `(client, seq,
//! attempt)` order of [`ResultId`], so every walk over the attempts visits
//! them in the same order on every run and on every replica. (A `HashMap`
//! would not: its iteration order differs from process to process, and a
//! walk that sends messages or traces then makes a seed stop replaying.)
//! Both levels are sparse-safe — any `NodeId` and any sequence numbers, in
//! any insertion order.

use crate::ids::{NodeId, RequestId, ResultId};
use std::cmp::Ordering;
use std::collections::VecDeque;

/// One attempt of a client's run.
#[derive(Debug)]
struct Slot<V> {
    seq: u64,
    attempt: u32,
    value: V,
}

/// One client's open attempts, sorted by `(seq, attempt)`.
#[derive(Debug)]
struct Window<V> {
    client: NodeId,
    floor: u64,
    run: VecDeque<Slot<V>>,
}

impl<V> Window<V> {
    fn rid(&self, slot: &Slot<V>) -> ResultId {
        ResultId {
            request: RequestId { client: self.client, seq: slot.seq },
            attempt: slot.attempt,
        }
    }

    /// Position of `(seq, attempt)` in the run, or where it would go. The
    /// newest slot is compared first: attempts arrive in order, so a new
    /// one goes after it and a lookup usually names it. Only a key below it
    /// costs a binary search.
    fn find(&self, seq: u64, attempt: u32) -> Result<usize, usize> {
        let key = (seq, attempt);
        let len = self.run.len();
        match self.run.back().map(|s| (s.seq, s.attempt).cmp(&key)) {
            None | Some(Ordering::Less) => Err(len),
            Some(Ordering::Equal) => Ok(len - 1),
            Some(Ordering::Greater) => self.run.binary_search_by(|s| (s.seq, s.attempt).cmp(&key)),
        }
    }

    /// The value at `(seq, attempt)`, inserted as `V::default()` if absent;
    /// `len` counts the insertion.
    fn get_or_default(&mut self, seq: u64, attempt: u32, len: &mut usize) -> &mut V
    where
        V: Default,
    {
        let at = self.find(seq, attempt).unwrap_or_else(|at| {
            self.run.insert(at, Slot { seq, attempt, value: V::default() });
            *len += 1;
            at
        });
        &mut self.run[at].value
    }
}

/// A table of values keyed by attempt ([`ResultId`]), stored as one short
/// sorted run per client. See the [module documentation](self).
#[derive(Debug)]
pub struct AttemptWindows<V> {
    /// Sorted by client. A client's window outlives its attempts: it holds
    /// the floor.
    clients: Vec<Window<V>>,
    len: usize,
}

impl<V> Default for AttemptWindows<V> {
    fn default() -> Self {
        AttemptWindows { clients: Vec::new(), len: 0 }
    }
}

impl<V> AttemptWindows<V> {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of attempts held, over all clients.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no attempt is held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Position of `client`'s window, or where it would go. The probe at
    /// index `client` is taken only if that window is `client`'s own.
    fn position(clients: &[Window<V>], client: NodeId) -> Result<usize, usize> {
        match clients.get(client.0 as usize) {
            Some(w) if w.client == client => Ok(client.0 as usize),
            _ => clients.binary_search_by_key(&client, |w| w.client),
        }
    }

    fn window(&self, client: NodeId) -> Option<&Window<V>> {
        let at = Self::position(&self.clients, client).ok()?;
        Some(&self.clients[at])
    }

    fn window_mut(&mut self, client: NodeId) -> Option<&mut Window<V>> {
        let at = Self::position(&self.clients, client).ok()?;
        Some(&mut self.clients[at])
    }

    /// `client`'s window, created empty (floor 0) if this is the first the
    /// table hears of the client.
    fn window_or_new(clients: &mut Vec<Window<V>>, client: NodeId) -> &mut Window<V> {
        let at = Self::position(clients, client).unwrap_or_else(|at| {
            clients.insert(at, Window { client, floor: 0, run: VecDeque::new() });
            at
        });
        &mut clients[at]
    }

    /// The value stored for `rid`.
    pub fn get(&self, rid: ResultId) -> Option<&V> {
        self.get_with_floor(rid).1
    }

    /// `rid`'s client's [floor](AttemptWindows::floor) and the value stored
    /// for `rid`, in one lookup.
    pub fn get_with_floor(&self, rid: ResultId) -> (u64, Option<&V>) {
        let Some(w) = self.window(rid.request.client) else { return (0, None) };
        let value = w.find(rid.request.seq, rid.attempt).ok().map(|at| &w.run[at].value);
        (w.floor, value)
    }

    /// The value stored for `rid`, mutably.
    pub fn get_mut(&mut self, rid: ResultId) -> Option<&mut V> {
        let w = self.window_mut(rid.request.client)?;
        let at = w.find(rid.request.seq, rid.attempt).ok()?;
        Some(&mut w.run[at].value)
    }

    /// The value stored for `rid`, inserted as `V::default()` if absent.
    pub fn get_or_default(&mut self, rid: ResultId) -> &mut V
    where
        V: Default,
    {
        let w = Self::window_or_new(&mut self.clients, rid.request.client);
        w.get_or_default(rid.request.seq, rid.attempt, &mut self.len)
    }

    /// [`AttemptWindows::get_or_default`] for an attempt at or above its
    /// client's floor; `None`, and nothing inserted, below it.
    pub fn open(&mut self, rid: ResultId) -> Option<&mut V>
    where
        V: Default,
    {
        let w = Self::window_or_new(&mut self.clients, rid.request.client);
        if rid.request.seq < w.floor {
            return None;
        }
        Some(w.get_or_default(rid.request.seq, rid.attempt, &mut self.len))
    }

    /// Stores `value` for `rid`; returns the value it replaces, if any.
    pub fn insert(&mut self, rid: ResultId, value: V) -> Option<V> {
        let (seq, attempt) = (rid.request.seq, rid.attempt);
        let w = Self::window_or_new(&mut self.clients, rid.request.client);
        match w.find(seq, attempt) {
            Ok(at) => Some(std::mem::replace(&mut w.run[at].value, value)),
            Err(at) => {
                w.run.insert(at, Slot { seq, attempt, value });
                self.len += 1;
                None
            }
        }
    }

    /// Removes and returns the value stored for `rid`.
    pub fn remove(&mut self, rid: ResultId) -> Option<V> {
        let w = self.window_mut(rid.request.client)?;
        let at = w.find(rid.request.seq, rid.attempt).ok()?;
        let slot = w.run.remove(at)?;
        self.len -= 1;
        Some(slot.value)
    }

    /// Every attempt held, in `(client, seq, attempt)` order — the derived
    /// order of [`ResultId`].
    pub fn iter(&self) -> impl Iterator<Item = (ResultId, &V)> + '_ {
        self.clients.iter().flat_map(|w| w.run.iter().map(move |s| (w.rid(s), &s.value)))
    }

    /// `client`'s floor: the highest `seq` ever passed to
    /// [`AttemptWindows::below`] for it (0 for a client never drained).
    /// Purely a record — inserting below it is allowed.
    pub fn floor(&self, client: NodeId) -> u64 {
        self.window(client).map_or(0, |w| w.floor)
    }

    /// Every client's floor that a drain has raised above 0, in client
    /// order.
    pub fn floors(&self) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.clients.iter().filter(|w| w.floor > 0).map(|w| (w.client, w.floor))
    }

    /// The prefix drain: raises `client`'s floor to `seq` (floors never
    /// fall) and removes the client's attempts with a sequence number below
    /// `seq` **except** those `keep` returns `true` for. `keep` sees every
    /// attempt of the prefix exactly once, oldest first, and may edit the
    /// ones it keeps or take what it needs from the ones it lets go — there
    /// is no way to drain an attempt unseen. Nothing outside the prefix is
    /// visited. Returns whether the floor rose.
    pub fn below(
        &mut self,
        client: NodeId,
        seq: u64,
        mut keep: impl FnMut(ResultId, &mut V) -> bool,
    ) -> bool {
        if seq == 0 {
            return false; // nothing is below 0, and no floor is below it
        }
        let w = Self::window_or_new(&mut self.clients, client);
        let raised = seq > w.floor;
        w.floor = w.floor.max(seq);
        let prefix = match w.run.front() {
            Some(s) if s.seq < seq => w.run.partition_point(|s| s.seq < seq),
            _ => 0,
        };
        // Kept attempts move to the front in order; the rest are dropped.
        let mut kept = 0;
        for at in 0..prefix {
            let rid = w.rid(&w.run[at]);
            if keep(rid, &mut w.run[at].value) {
                w.run.swap(kept, at);
                kept += 1;
            }
        }
        if kept < prefix {
            w.run.drain(kept..prefix);
            self.len -= prefix - kept;
        }
        raised
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn rid(client: u32, seq: u64, attempt: u32) -> ResultId {
        ResultId { request: RequestId { client: NodeId(client), seq }, attempt }
    }

    #[test]
    fn a_window_is_a_sorted_run_whatever_the_insertion_order() {
        let mut t = AttemptWindows::new();
        for (c, s, a) in [(7, 5, 1), (7, 3, 2), (2, 9, 1), (7, 3, 1), (u32::MAX, 0, 1)] {
            assert_eq!(t.insert(rid(c, s, a), (c, s, a)), None);
        }
        assert_eq!(t.insert(rid(7, 5, 1), (0, 0, 0)), Some((7, 5, 1)), "insert replaces");
        assert_eq!(t.len(), 5);
        let keys: Vec<ResultId> = t.iter().map(|(rid, _)| rid).collect();
        assert!(keys.is_sorted(), "iteration follows the derived order of ResultId: {keys:?}");
        assert_eq!(keys.last(), Some(&ResultId::repl_snapshot()));
        assert_eq!(t.remove(rid(7, 3, 2)), Some((7, 3, 2)));
        assert_eq!(t.remove(rid(7, 3, 2)), None);
        assert_eq!((t.get(rid(7, 3, 1)), t.get(rid(8, 3, 1))), (Some(&(7, 3, 1)), None));
    }

    #[test]
    fn the_drain_keeps_what_it_is_told_to() {
        let mut t = AttemptWindows::new();
        for seq in 1..=6 {
            t.insert(rid(1, seq, 1), seq);
        }
        t.insert(rid(2, 1, 1), 100);
        // Odd values go, even ones stay — edited on the way.
        let mut gone = Vec::new();
        t.below(NodeId(1), 5, |rid, v| {
            *v += 10;
            if *v % 2 != 0 {
                gone.push((rid, *v));
            }
            *v % 2 == 0
        });
        assert_eq!(gone, [(rid(1, 1, 1), 11), (rid(1, 3, 1), 13)]);
        let left: Vec<_> = t.iter().map(|(rid, v)| (rid.request.seq, *v)).collect();
        assert_eq!(left, [(2, 12), (4, 14), (5, 5), (6, 6), (1, 100)], "order survives the keeps");
        t.below(NodeId(1), 6, |_, _| false);
        assert_eq!((t.len(), t.floor(NodeId(1)), t.floor(NodeId(2))), (2, 6, 0));
        // A lower bound later neither lowers the floor nor removes anything.
        t.below(NodeId(1), 3, |_, _| panic!("nothing is left below 3"));
        assert_eq!((t.len(), t.floor(NodeId(1))), (2, 6));
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(ResultId, u16),
        Default(ResultId),
        Bump(ResultId),
        Remove(ResultId),
        Open(ResultId),
        /// `get_with_floor`, of a key that may be absent.
        Peek(ResultId),
        /// Drain `client` below `seq`, keeping values divisible by `keep`.
        Below(NodeId, u64, u16),
    }

    fn ops() -> impl proptest::strategy::Strategy<Value = Vec<Op>> {
        use proptest::strategy::Strategy;
        // Dense clients 0–3 (first seen in any order, so the probe at a
        // client's id hits its own window, lands on another client's or runs
        // past the end), a sparse one, a far-out one and the reserved marker
        // id; sequence numbers dense near zero (repeats, attempts > 1) and
        // two far out.
        let key = (0usize..7, 0u64..8, 1u32..4).prop_map(|(c, s, a)| {
            let client = [0, 1, 2, 3, 10, 1 << 20, u32::MAX][c];
            rid(client, if s >= 6 { s << 40 } else { s }, a)
        });
        let op =
            (0u8..11, key, 0u16..1000, 0u64..9, 1u16..4).prop_map(|(op, rid, v, below, keep)| {
                match op {
                    0 | 1 => Op::Insert(rid, v),
                    2 => Op::Default(rid),
                    3 => Op::Bump(rid),
                    4 => Op::Remove(rid),
                    5 => Op::Open(rid),
                    6 => Op::Peek(rid),
                    // `below` 8 means "everything"; clients 20 and up are absent.
                    _ => Op::Below(
                        if op == 10 { NodeId(20 + rid.attempt) } else { rid.request.client },
                        if below == 8 { u64::MAX } else { below },
                        keep,
                    ),
                }
            });
        proptest::collection::vec(op, 1..120)
    }

    proptest::proptest! {
        /// The windows are a `BTreeMap<ResultId, V>`: under random
        /// interleavings of every operation, over several clients (the
        /// reserved `NodeId(u32::MAX)` among them, first seen in any
        /// order), sparse and repeated
        /// sequence numbers, several attempts per request, drains of
        /// absent clients and drains below 0, every return value (the
        /// fused `open` and `get_with_floor` included), the contents, the
        /// floors and the iteration order are the model's after every step.
        #[test]
        fn windows_match_an_ordered_map(ops in ops()) {
            let mut t: AttemptWindows<u16> = AttemptWindows::new();
            let mut model: BTreeMap<ResultId, u16> = BTreeMap::new();
            let mut floors: BTreeMap<NodeId, u64> = BTreeMap::new();
            for op in ops {
                match op {
                    Op::Insert(rid, v) => {
                        proptest::prop_assert_eq!(t.insert(rid, v), model.insert(rid, v));
                    }
                    Op::Default(rid) => {
                        proptest::prop_assert_eq!(
                            *t.get_or_default(rid),
                            *model.entry(rid).or_default()
                        );
                    }
                    Op::Bump(rid) => {
                        let bump = |v: &mut u16| {
                            *v = v.wrapping_add(1);
                            *v
                        };
                        proptest::prop_assert_eq!(
                            t.get_mut(rid).map(bump),
                            model.get_mut(&rid).map(bump)
                        );
                    }
                    Op::Remove(rid) => {
                        proptest::prop_assert_eq!(t.remove(rid), model.remove(&rid));
                    }
                    Op::Open(rid) => {
                        let floor = floors.get(&rid.request.client).copied().unwrap_or(0);
                        let expect =
                            (rid.request.seq >= floor).then(|| *model.entry(rid).or_default());
                        proptest::prop_assert_eq!(t.open(rid).map(|v| *v), expect);
                    }
                    Op::Peek(rid) => {
                        let floor = floors.get(&rid.request.client).copied().unwrap_or(0);
                        proptest::prop_assert_eq!(t.get_with_floor(rid), (floor, model.get(&rid)));
                    }
                    Op::Below(client, seq, keep) => {
                        let floor = floors.entry(client).or_insert(0);
                        let raised = seq > *floor;
                        *floor = (*floor).max(seq);
                        let (mut seen, mut gone) = (Vec::new(), Vec::new());
                        let rose = t.below(client, seq, |rid, v| {
                            seen.push(rid);
                            if *v % keep != 0 {
                                gone.push((rid, *v));
                            }
                            *v % keep == 0
                        });
                        let stale = ResultId::below(client, seq);
                        let prefix: Vec<ResultId> = model.range(stale.clone()).map(|(r, _)| *r).collect();
                        proptest::prop_assert_eq!(seen, prefix, "keep sees the prefix, in order");
                        let expect: Vec<_> = model.extract_if(stale, |_, v| *v % keep != 0).collect();
                        proptest::prop_assert_eq!(gone, expect);
                        proptest::prop_assert_eq!(rose, raised, "below says whether the floor rose");
                    }
                }
                proptest::prop_assert_eq!(t.len(), model.len());
                proptest::prop_assert_eq!(t.is_empty(), model.is_empty());
                proptest::prop_assert!(t.iter().eq(model.iter().map(|(r, v)| (*r, v))));
                for rid in model.keys() {
                    proptest::prop_assert_eq!(t.get(*rid), model.get(rid));
                    let floor = floors.get(&rid.request.client).copied().unwrap_or(0);
                    proptest::prop_assert_eq!(t.get_with_floor(*rid), (floor, model.get(rid)));
                }
                for (&client, &floor) in &floors {
                    proptest::prop_assert_eq!(t.floor(client), floor);
                }
                let raised: Vec<(NodeId, u64)> =
                    floors.iter().filter(|f| *f.1 > 0).map(|(&c, &f)| (c, f)).collect();
                proptest::prop_assert_eq!(t.floors().collect::<Vec<_>>(), raised);
            }
        }
    }
}
