//! Allocation, retained-heap, event and trace budgets of the commit path.
//!
//! Heap traffic is the part of the middle tier's cost a simulated clock
//! cannot see and a wall clock on a shared machine cannot resolve — but the
//! *number* of allocations a fixed simulation makes is a function of the
//! code and the seed, so it can be gated. So are the heap bytes the run
//! leaves live (the trace, the logs, the per-request state: what a
//! regrown id or record costs, and what shows first in `peak_rss_mb`), and
//! the number of events the simulator pops to deliver it, which is what a
//! timer that fires for nothing, or a cancelled one still in the queue,
//! costs — and the number of trace events it stores, which is what a
//! figure recorded as an event instead of summed by its node costs. Before
//! any of that, the heap the scenario's `build()` leaves live must not
//! depend on how many requests each client will issue: a client makes each
//! request at issue and holds its window, not its plan. This binary owns
//! its process (one `#[test]`, a counting `#[global_allocator]`), builds
//! the scenario at two plan lengths, and runs a small
//! `commit_sim16`-shaped scenario — the saturated sharded write pipeline
//! `etx_bench` measures — twice. Then it runs a small scenario of the
//! paper's shape (`paper_seq1`: one sequential client, no batching, two
//! decision-log slots per request on three application servers) twice
//! and gates its allocations per commit too: there the consensus rounds
//! themselves, not the batches they carry, are the heap traffic. It gates
//! that shape's events per commit at their measured figure as well: most
//! of them are the failure detector's heartbeats and ticks, whose number
//! the protocol's cadence fixes, so one more event per commit there is a
//! timer or a message someone added.
//!
//! That the count repeats **exactly** is an observation, not a guarantee:
//! 200 of 200 executions of this binary read the same figure in both runs.
//! What can break it is a hash table with per-process random keys that
//! both grows and shrinks on the path — where its tombstones fall decides
//! whether a full table rehashes in place or reallocates. The simulator's
//! cancelled-timer set was one (off by one allocation in a fifth of all
//! executions); it became an ordered set, and then no set at all, when a
//! cancel came to mark the timer in its own queue slot. No hashed table is
//! left on the commit path: etx-core, etx-consensus and etx-store refuse
//! them through their `clippy.toml`, as both hosts do. If the two runs ever
//! differ by an allocation or two, look for a table whose layout follows
//! something other than the seed before suspecting the protocol.

use etx::base::config::FeatureSet;
use etx::harness::{feature_corners, MiddleTier, ScenarioBuilder, Workload};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread (`const` and drop-free, so reading
    /// it from inside the allocator never allocates or runs a destructor).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread has allocated minus the bytes it has freed
    /// (requested sizes; signed, as it may free what another thread
    /// allocated). Only differences over a window mean anything.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// The system allocator, counting every allocating call and the live bytes
/// per thread — the test harness's own threads do not disturb the test
/// thread's figures (the simulator frees on the thread that allocated).
struct Counting;

impl Counting {
    fn count(grown: usize, freed: usize) {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        Self::resize(grown, freed);
    }

    fn resize(grown: usize, freed: usize) {
        let _ = LIVE.try_with(|n| n.set(n.get() + grown as i64 - freed as i64));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a thread-local
// `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size(), 0);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size(), 0);
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size, layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::resize(0, layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const CLIENTS: usize = 16;
const REQUESTS: u64 = 50;

/// Allocations per delivered commit this scenario made at the parent of the
/// change that introduced the budget (per-attempt `BTreeMap`s, results
/// deep-copied at every hop), measured by this very test.
const PARENT: f64 = 82.18;

/// The budget: the figure of the change that last set it, plus 5 %. It came
/// in at 55.74 (per-client attempt windows, shared result payloads; ceiling
/// 58.5). Write sets sealed once at the vote and shared by the `Prepared`
/// record, the shipment and the follower's record took it from 56.60 to
/// 50.10 (ceiling 52.6). Slot-indexed consensus state and one-item results
/// held in place took it to 44.91 (ceiling 47.2). A vote that returns its
/// one record without a vector, and a lock table that clones a key only
/// when the key enters it, took it to 43.74 (ceiling 45.9). Compacting the
/// settled prefix of the decision log to one shared watermark table, in
/// place of a tombstone per slot, took it to 41.38, and a commit for a
/// branch a database never held that logs nothing to 40.92. A cancel that
/// marks the timer in its own queue slot, with no ordered set of cancelled
/// ids, took it to 40.61. A change that needs more heap traffic per commit
/// than this should say why, and raise the ceiling on purpose.
const CEILING: f64 = 42.6;

/// Simulator events per delivered commit at the parent of the change that
/// introduced the event budget: per-attempt retry timers that fire as
/// no-ops, cancelled timers popped one by one.
const EVENTS_PARENT: f64 = 16.95;

/// The event budget: the figure of the change that introduced it (15.13 —
/// retry timers cancelled at the end of their attempt, cancelled timers
/// compacted out of the queue, every share speculated), plus 5 %.
const EVENTS_CEILING: f64 = 15.9;

/// Heap bytes left live per delivered commit, at the parent of the change
/// that introduced the retained-heap budget: 24-byte attempt ids, 64-byte
/// trace events.
const RETAINED_PARENT: f64 = 2_489.0;

/// The retained-heap budget: the figure of the change that last set it,
/// plus 5 %. Most of it is the trace and the WAL; a change that regrows an
/// id or a record pays here first. The trace counts by capacity, which
/// doubles: this run's 14 117 events with spans and 9 056 without fill one
/// buffer of 16 384, so dropping spans left the figure where it was
/// (2 028, ceiling 2 130). Keeping results and WAL group frames at their
/// length — no growth slack in an entry vector or a frame's record vector —
/// took it to 1 944, ceiling 2 041. Storing only the trace kinds someone
/// reads left 7 403 events, which fit a buffer of 8 192: 1 452, ceiling
/// 1 525. A change that stores some 800 more events doubles that buffer
/// again and pays about 490 bytes per commit here. Sharing write sets
/// between the WAL records of primary and follower took it from 1 474 to
/// 1 422, ceiling 1 493 (this run appends about 100 records per database,
/// short of a checkpoint). Slot-indexed consensus state read 1 403. Trace
/// events of 40 bytes instead of 48 took it to 1 316, ceiling 1 382. A
/// register bank that keeps decided values only above the settled prefix
/// — no tombstone per slot, no decided table indexed from slot 0 — took it
/// to 1 081, ceiling 1 135.
const RETAINED_CEILING: f64 = 1_135.0;

/// Trace events stored per delivered commit at the parent of the change
/// that introduced the trace budget: every modelled service time a
/// `Span` event.
const TRACE_PARENT: f64 = 17.65;

/// The trace budget: the figure of the change that last set it, plus 5 %.
/// It came in at 11.32 (spans summed per node, not traced; ceiling 11.9).
/// Register decisions, slot GC and shard routes — kinds no check, bench
/// metric or trigger read — then left the trace: 9.25, ceiling 9.7.
const TRACE_CEILING: f64 = 9.7;

/// Allocations per delivered commit of the paper-shaped scenario at the
/// parent of the change that introduced its budget: per-slot state in
/// ordered maps, a fresh vector for every decided register, applied slot
/// and entry list.
const PAPER_PARENT: f64 = 83.04;

/// The paper-shaped budget: the figure of the change that last set it,
/// plus 5 %. It came in at 45.22 (slot-indexed consensus state, one-item
/// results held in place; ceiling 47.5). A vote without a vector and a
/// lock table that clones a key only on insert took it to 43.20 (ceiling
/// 45.4). Compacting the settled prefix to one watermark table refilled in
/// place, not a tombstone per slot, took it to 37.13, and later changes to
/// 35.77 (35.85 in a debug build). A cancel that marks the timer in its
/// own queue slot left it there: this shape cancels few timers.
const PAPER_CEILING: f64 = 37.6;

/// Simulator events per delivered commit of the paper-shaped scenario,
/// gated at the figure itself: events repeat exactly, and nothing on this
/// shape should add one. Heartbeat deliveries and ticks are most of them.
/// The figure did not move when detector-only events stopped at the
/// detector and cancels came to mark the timer in its slot: neither
/// changes what the simulator pops.
const PAPER_EVENTS: f64 = 154.23;

/// Kernel queue pops per delivered commit of the paper-shaped scenario,
/// gated at the figure itself: pops repeat exactly too. The aim set for
/// detector traffic was at most 80 *events* per commit, but a heartbeat
/// that waits in its receiver's mailbox is still handled, and counted as
/// an event: what it no longer costs is its own queue entry. So the gate
/// is on pops: 76.50 per commit, where they equalled the events (154.23)
/// before heartbeats to an idle server waited in its mailbox. The events
/// read 154.20 since: the run stops with the last few heartbeats held.
const PAPER_POPS: f64 = 76.5;

/// Handler runs (`on_event` calls) per delivered commit of the
/// paper-shaped scenario, gated at the figure itself: runs repeat exactly
/// too. A heartbeat held in an idle server's mailbox was one while the
/// kernel handed it over as a delivery: 152.22 per commit then (these runs
/// plus the 77.70 held ones; a cancelled timer's pop runs nothing). Taken
/// by the detector alone (`Process::absorb`), it is none: 74.52.
const PAPER_RUNS: f64 = 74.52;

/// Requests of the paper-shaped scenario: its one client issues them one
/// after another.
const PAPER_REQUESTS: u64 = 200;

/// Requests per client of the long plan the build gate compares with
/// [`REQUESTS`].
const LONG_PLAN: u64 = 5_000;

/// How far the heap `ScenarioBuilder::build` leaves live may differ between
/// a plan of [`REQUESTS`] and one of [`LONG_PLAN`] per client. Clients make
/// each request when they issue it, so a plan's length is one number; at
/// the parent of the gate every client held its whole plan, built up
/// front, and the long plan kept megabytes more.
const BUILD_SLACK: i64 = 64;

/// The scenario — 16 shards × rf 2, 3 application servers, batch 64 /
/// 1 ms, speculation, closed-loop clients, write-only sharded bank — with
/// `requests` per client.
fn scenario(requests: u64) -> ScenarioBuilder {
    let (_, features) = feature_corners()
        .into_iter()
        .find(|(name, _)| *name == "pipelined")
        .expect("the feature set etx_bench runs commit_sim16 under");
    ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, 7_018)
        .features(features)
        .shards(16)
        .replication(2)
        .clients(CLIENTS)
        .requests(requests)
        .workload(Workload::ShardedBank { accounts: 1_024, cross_pct: 10, amount: 7 })
}

/// The heap bytes `build()` leaves live for a plan of `requests` per client.
fn built(requests: u64) -> i64 {
    let builder = scenario(requests);
    let live = LIVE.get();
    let s = builder.build();
    let kept = LIVE.get() - live;
    drop(s);
    kept
}

/// The paper's shape: `etx_bench`'s `paper_seq1` (the paper's cost
/// model, one client, default features) at [`PAPER_REQUESTS`] requests.
fn paper_scenario() -> ScenarioBuilder {
    ScenarioBuilder::new(MiddleTier::Etx { apps: 3 }, 7_018)
        .features(FeatureSet::default())
        .clients(1)
        .requests(PAPER_REQUESTS)
        .workload(Workload::BankUpdate { amount: 7 })
}

/// What one run made: allocations, heap bytes left live, simulator events,
/// trace events stored, queue pops and handler runs.
type Run = (u64, i64, u64, usize, u64, u64);

/// Builds `builder`'s scenario, runs it until `commits` are delivered, and
/// returns the allocations the run made, the heap bytes it left live, the
/// events the simulator processed, the trace events it stored, the
/// entries its queue popped and the handlers it ran.
fn one_run(builder: ScenarioBuilder, commits: usize) -> Run {
    let mut s = builder.build();
    let (before, live) = (ALLOCATIONS.get(), LIVE.get());
    let outcome = s.run_until_settled(commits);
    let (allocations, retained) = (ALLOCATIONS.get() - before, LIVE.get() - live);
    assert_eq!(outcome, etx::sim::RunOutcome::Predicate, "the run must settle");
    assert_eq!(s.delivered_commits(), commits);
    let sim = s.sim();
    (allocations, retained, sim.processed(), s.trace().len(), sim.pops(), sim.runs())
}

#[test]
fn the_commit_path_stays_within_its_allocation_budget() {
    let (short, long) = (built(REQUESTS), built(LONG_PLAN));
    println!(
        "build() keeps {short} bytes at {REQUESTS} requests per client, {long} at {LONG_PLAN}"
    );
    assert!(
        (long - short).abs() <= BUILD_SLACK,
        "build() keeps {short} bytes for {REQUESTS} requests per client and {long} for \
         {LONG_PLAN}: a client holds its window, not its plan"
    );
    let run = || one_run(scenario(REQUESTS), CLIENTS * REQUESTS as usize);
    let ((first, retained, events, traced, ..), (second, _, again, retraced, ..)) = (run(), run());
    assert_eq!(first, second, "one seed, two allocation counts: see the module doc for suspects");
    assert_eq!(events, again, "one seed, two event counts");
    assert_eq!(traced, retraced, "one seed, two trace lengths");
    let commits = (CLIENTS as u64 * REQUESTS) as f64;
    let per_commit = first as f64 / commits;
    println!(
        "{first} allocations, {per_commit:.2} per commit (parent {PARENT}, ceiling {CEILING})"
    );
    let retained_per_commit = retained as f64 / commits;
    println!(
        "{retained} bytes retained, {retained_per_commit:.0} per commit \
         (parent {RETAINED_PARENT}, ceiling {RETAINED_CEILING})"
    );
    let events_per_commit = events as f64 / commits;
    println!(
        "{events} events, {events_per_commit:.2} per commit \
         (parent {EVENTS_PARENT}, ceiling {EVENTS_CEILING})"
    );
    let traced_per_commit = traced as f64 / commits;
    println!(
        "{traced} trace events, {traced_per_commit:.2} per commit \
         (parent {TRACE_PARENT}, ceiling {TRACE_CEILING})"
    );
    assert!(
        per_commit <= CEILING,
        "{per_commit:.2} allocations per commit, budget {CEILING} (parent of the budget: {PARENT})"
    );
    assert!(
        retained_per_commit <= RETAINED_CEILING,
        "{retained_per_commit:.0} bytes retained per commit, budget {RETAINED_CEILING} \
         (parent of the budget: {RETAINED_PARENT})"
    );
    assert!(
        events_per_commit <= EVENTS_CEILING,
        "{events_per_commit:.2} events per commit, budget {EVENTS_CEILING} \
         (parent of the budget: {EVENTS_PARENT})"
    );
    assert!(
        traced_per_commit <= TRACE_CEILING,
        "{traced_per_commit:.2} trace events per commit, budget {TRACE_CEILING} \
         (parent of the budget: {TRACE_PARENT})"
    );
    let paper = || one_run(paper_scenario(), PAPER_REQUESTS as usize);
    let ((first, _, events, _, pops, runs), (second, _, again, _, repops, reruns)) =
        (paper(), paper());
    assert_eq!(first, second, "one seed, two paper-shape allocation counts");
    assert_eq!(events, again, "one seed, two paper-shape event counts");
    assert_eq!(pops, repops, "one seed, two paper-shape pop counts");
    assert_eq!(runs, reruns, "one seed, two paper-shape handler-run counts");
    let per_commit = first as f64 / PAPER_REQUESTS as f64;
    println!(
        "paper shape: {first} allocations, {per_commit:.2} per commit \
         (parent {PAPER_PARENT}, ceiling {PAPER_CEILING})"
    );
    let events_per_commit = events as f64 / PAPER_REQUESTS as f64;
    println!(
        "paper shape: {events} events, {events_per_commit:.2} per commit (gate {PAPER_EVENTS})"
    );
    assert!(
        per_commit <= PAPER_CEILING,
        "paper shape: {per_commit:.2} allocations per commit, budget {PAPER_CEILING} \
         (parent of the budget: {PAPER_PARENT})"
    );
    let pops_per_commit = pops as f64 / PAPER_REQUESTS as f64;
    println!("paper shape: {pops} queue pops, {pops_per_commit:.2} per commit (gate {PAPER_POPS})");
    assert!(
        events_per_commit <= PAPER_EVENTS,
        "paper shape: {events_per_commit:.2} events per commit, gate {PAPER_EVENTS}"
    );
    assert!(
        pops_per_commit <= PAPER_POPS,
        "paper shape: {pops_per_commit:.2} queue pops per commit, gate {PAPER_POPS}"
    );
    let runs_per_commit = runs as f64 / PAPER_REQUESTS as f64;
    println!(
        "paper shape: {runs} handler runs, {runs_per_commit:.2} per commit (gate {PAPER_RUNS})"
    );
    assert!(
        runs_per_commit <= PAPER_RUNS,
        "paper shape: {runs_per_commit:.2} handler runs per commit, gate {PAPER_RUNS}"
    );
}
