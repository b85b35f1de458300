//! # etx-base — shared vocabulary for the e-Transactions workspace
//!
//! This crate holds everything that every tier of the three-tier system must
//! agree on: process identities, time, request/result/decision values, the
//! wire-message vocabulary, stable storage and its record formats,
//! configuration knobs, trace events, node-owned metrics, the runtime
//! abstraction ([`Context`] / [`Process`]) that protocol state machines are
//! written against, and the rules both runtimes host them by ([`host`]).
//!
//! The paper this workspace reproduces is Frølund & Guerraoui,
//! *"Implementing e-Transactions with Asynchronous Replication"* (DSN 2000).
//! Section references in doc comments (e.g. "§3", "Figure 5") point into that
//! paper.
//!
//! ## Design notes
//!
//! * All wire messages live here, in [`msg`], as one [`msg::Payload`] enum
//!   with per-layer sub-enums. Every protocol in the workspace shares a
//!   single simulated wire, so a central vocabulary avoids `Any`-downcasts
//!   and keeps the simulation kernel monomorphic.
//! * Protocol code never talks to a concrete runtime: it receives
//!   [`runtime::Event`]s and drives a [`runtime::Context`]. The deterministic
//!   simulator in `etx-sim` is one implementation of that interface.
//!
//! ```
//! use etx_base::ids::{NodeId, RequestId, ResultId};
//!
//! let client = NodeId(0);
//! let req = RequestId { client, seq: 1 };
//! let rid = ResultId { request: req, attempt: 1 };
//! assert_eq!(rid.next_attempt().attempt, 2);
//! ```

pub mod attempts;
pub mod config;
pub mod fault;
pub mod host;
pub mod ids;
pub mod metrics;
pub mod msg;
pub mod retry;
pub mod rng;
pub mod runtime;
pub mod shard;
pub mod time;
pub mod trace;
pub mod value;
pub mod wal;

pub use attempts::AttemptWindows;
pub use config::{BatchingConfig, CostModel, FdConfig, ProtocolConfig};
pub use fault::{CapabilityError, FaultOp, NemesisWhen, TracePred};
pub use ids::{NodeId, RegId, RequestId, ResultId};
pub use msg::Payload;
pub use retry::{AttemptDriver, IssuePlan, RetryTimer};
pub use runtime::{Context, Event, Process};
pub use shard::{ShardId, ShardMap, ShardSpec};
pub use time::{Dur, Time};
pub use value::{Decision, Outcome, Request, ResultValue, Vote};
