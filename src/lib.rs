//! # etx — e-Transactions with Asynchronous Replication
//!
//! Facade crate: re-exports the whole workspace under one roof. See the
//! README for a guided tour; its *Crate map* is the system inventory.
//!
//! ```
//! use etx::base::ids::Topology;
//! let topo = Topology::new(1, 3, 1);
//! assert_eq!(topo.app_majority(), 2);
//! ```

pub use etx_base as base;
pub use etx_baselines as baselines;
pub use etx_consensus as consensus;
pub use etx_core as protocol;
pub use etx_fd as fd;
pub use etx_harness as harness;
pub use etx_rt as rt;
pub use etx_sim as sim;
pub use etx_store as store;
