//! # etx-store — an XA-style transactional database engine
//!
//! The back-end tier substrate: the paper runs Oracle 8.0.3 behind the XA
//! interface; this crate provides the equivalent commitment contract over an
//! in-memory key-value store with strict two-phase locking, a write-ahead
//! log on (simulated) stable storage, forced prepare/commit records, and
//! crash recovery that restores **in-doubt** branches with their locks.
//!
//! See [`engine::Engine`] for the resource-manager surface (`execute`,
//! `vote`, `decide`, `commit_one_phase`, `recover`) and [`locks`] for the
//! serializability substrate the paper assumes in §3.
//!
//! ```
//! use etx_store::Engine;
//! use etx_base::ids::{NodeId, RequestId, ResultId};
//! use etx_base::value::{DbOp, Outcome, Vote};
//!
//! let mut db = Engine::with_data([("seats".to_string(), 3)]);
//! let rid = ResultId::first(RequestId { client: NodeId(0), seq: 1 });
//! db.execute(rid, &[DbOp::Reserve { key: "seats".into(), qty: 1 }]);
//! let (vote, _log) = db.vote(rid);
//! assert_eq!(vote, Vote::Yes);
//! let (outcome, _log) = db.decide(rid, Outcome::Commit);
//! assert_eq!(outcome, Outcome::Commit);
//! assert_eq!(db.committed("seats"), Some(2));
//! ```

pub mod engine;
pub mod locks;

pub use engine::{Engine, LogWrite, Promotion, ReplApply, ShippedCommit};
pub use locks::{LockGrant, LockMode, LockTable};
