//! Write-once registers over consensus.
//!
//! §4 of the paper: *"A wo-register has two operations: read() and write().
//! If several processes try to write a value in the register, only one value
//! is written, and once it is written, no other value can be written."* The
//! paper sketches the construction this module implements verbatim: every
//! application server holds a copy; `write(v)` proposes `v` to a consensus
//! instance dedicated to the register; `read()` returns the consensus
//! decision or `⊥` if none was reached yet, with a pull mechanism providing
//! the "keep reading and you will eventually see the value" liveness.

use crate::engine::{ConsensusEngine, EngineConfig, Suspects};
use etx_base::ids::{NodeId, RegId};
use etx_base::runtime::{Context, Event};
use etx_base::value::RegValue;

/// Completion notices produced by [`WoRegisters::handle`].
#[derive(Debug, Clone, PartialEq)]
pub enum WoEvent {
    /// A register now has its (unique, final) value at this replica. Fires
    /// at most once per register per replica.
    Decided {
        /// Which register.
        reg: RegId,
        /// Its value, forever.
        value: RegValue,
    },
}

/// One application server's view of all write-once registers (Figure 4's
/// `regA[..]` and `regD[..]`, here the slots of the decision log).
#[derive(Debug)]
pub struct WoRegisters {
    engine: ConsensusEngine,
}

impl WoRegisters {
    /// Creates the register bank for `me` replicated across `alist`.
    pub fn new(me: NodeId, alist: &[NodeId], cfg: EngineConfig) -> Self {
        WoRegisters { engine: ConsensusEngine::new(me, alist, cfg) }
    }

    /// Call once from the owner's `Init`.
    pub fn on_init(&mut self, ctx: &mut dyn Context) {
        self.engine.on_init(ctx);
    }

    /// `write(input)`: attempts to write `value`. Returns the register's
    /// value immediately if it is already known at this replica (which may
    /// be `value` or an earlier writer's value — the wo-register contract);
    /// otherwise returns `None` and a [`WoEvent::Decided`] arrives later via
    /// [`Self::handle`].
    pub fn write(
        &mut self,
        ctx: &mut dyn Context,
        reg: RegId,
        value: RegValue,
        suspects: Suspects<'_>,
    ) -> Option<RegValue> {
        self.engine.propose(ctx, reg, value, suspects)
    }

    /// `read()`: the register's value, or `None` (the paper's `⊥`).
    pub fn read(&self, reg: RegId) -> Option<&RegValue> {
        self.engine.decided(reg)
    }

    /// Nudges the network for a decision we do not have locally ("keep
    /// invoking read()"): broadcasts a pull, one message per peer (none if
    /// already decided). Callers pull a slot once per resync period.
    pub fn pull(&mut self, ctx: &mut dyn Context, reg: RegId) {
        self.engine.pull(ctx, reg);
    }

    /// Number of registers with a write in flight or a pull outstanding —
    /// undecided at this replica (observability / bounded-state tests).
    pub fn open_registers(&self) -> usize {
        self.engine.open_instances()
    }

    /// Feeds a runtime event; returns registers decided by this call.
    pub fn handle(
        &mut self,
        ctx: &mut dyn Context,
        event: &Event,
        suspects: Suspects<'_>,
    ) -> Vec<WoEvent> {
        self.engine
            .handle(ctx, event, suspects)
            .into_iter()
            .map(|(reg, value)| WoEvent::Decided { reg, value })
            .collect()
    }

    /// Re-evaluates stalled writes after a suspicion change.
    pub fn on_suspicion_change(&mut self, ctx: &mut dyn Context, suspects: Suspects<'_>) {
        self.engine.on_suspicion_change(ctx, suspects);
    }

    /// Compacts a decided register to `placeholder`: its payload is
    /// dropped, but the register stays decided — reads, pulls and
    /// late writes are still answered, so a replica that missed the
    /// original decision can never re-open the position (§5 notes GC is
    /// out of the paper's scope; this hook is the natural place for it).
    pub fn compact(&mut self, reg: RegId, placeholder: RegValue) -> bool {
        self.engine.compact(reg, placeholder)
    }
}
