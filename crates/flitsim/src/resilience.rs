//! End-to-end retransmission state: transfer records, the timeout heap
//! and the lifetime ledger.
//!
//! (The lagged routing view and the incremental selection cache that
//! used to live here are now the shared
//! [`SelectionEngine`](lmpr_core::SelectionEngine) in `lmpr-core`,
//! driven by [`routing_view`](crate::routing_view).)

use crate::util::Slab;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use xgft::PnId;

/// Why a transfer was abandoned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropCause {
    /// The retry cap was reached after at least one copy was sent.
    RetryExhausted,
    /// Every attempt found the pair disconnected; no copy was ever sent.
    Disconnected,
}

/// Lifecycle of one end-to-end packet transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XferState {
    /// Unresolved: a copy may be in flight, queued, or awaiting retry.
    InFlight,
    /// The first complete copy arrived; later copies are duplicates.
    Delivered,
    /// Abandoned with a cause; late copies are counted as duplicates
    /// (the source already gave up on the packet).
    Dropped(DropCause),
}

/// One reliable packet transfer. Each retransmission creates a fresh
/// packet copy pointing back at this record.
#[derive(Debug, Clone, Copy)]
pub struct Transfer {
    /// Creation sequence number, unique over the simulation lifetime.
    /// Timeout-heap entries carry it so an entry armed for a reaped
    /// transfer can never act on an unrelated transfer that happens to
    /// reuse the same slab slot.
    pub seq: u64,
    /// Source processing node.
    pub src: u32,
    /// Destination processing node.
    pub dst: PnId,
    /// Message slab key the packet belongs to.
    pub msg: u32,
    /// Transmission attempts consumed (including attempts skipped while
    /// the pair was disconnected). The cap is `1 + max_retries`.
    pub sends: u32,
    /// Whether any copy was actually queued (distinguishes the
    /// [`DropCause`] variants).
    pub ever_sent: bool,
    /// Copies whose packet record is still alive (queued, in flight, or
    /// draining); the record may be reaped only when this hits zero.
    pub live_copies: u32,
    /// Resolution state.
    pub state: XferState,
}

/// A timeout-heap entry: `(deadline, transfer key, transfer seq,
/// sends-at-arming)`. Min-heap via `Reverse`; entries whose `seq` does
/// not match the transfer in the slot are stale (the slot was reaped
/// and reused), as are entries whose `sends` no longer match (a newer
/// attempt re-armed).
pub type TimeoutEntry = Reverse<(u64, u32, u64, u32)>;

/// Exponential-backoff deadline: `timeout · 2^(sends-1)` cycles after
/// `now`, saturating at every step so extreme retry counts can never
/// wrap the timeline.
pub fn backoff_deadline(now: u64, timeout: u64, sends: u32) -> u64 {
    let exp = sends.saturating_sub(1).min(62);
    let factor = 1u64 << exp;
    now.saturating_add(timeout.saturating_mul(factor))
}

/// The retransmission ledger: transfers plus the timeout heap.
#[derive(Debug, Clone, Default)]
pub struct RetxLedger {
    /// Live transfer records (resolved records are reaped once their
    /// last copy drains, so memory tracks in-flight work, not history).
    pub(crate) transfers: Slab<Transfer>,
    /// Pending delivery timeouts.
    pub timeouts: BinaryHeap<TimeoutEntry>,
    /// Lifetime transfers created.
    pub created: u64,
    /// Lifetime transfers delivered exactly once.
    pub delivered: u64,
    /// Lifetime transfers dropped with cause.
    pub dropped: u64,
    /// Lifetime retransmission copies queued (sends beyond the first).
    pub retransmitted: u64,
}

impl RetxLedger {
    /// Reap a resolved transfer once no copy references it. No-op while
    /// the transfer is unresolved or copies remain.
    pub fn maybe_reap(&mut self, xfer: u32) {
        let resolved = self
            .transfers
            .get(xfer)
            .is_some_and(|t| t.state != XferState::InFlight && t.live_copies == 0);
        if resolved {
            self.transfers.remove(xfer);
        }
    }

    /// Transfers currently unresolved (measured by walking the slab, so
    /// the count is independent of the lifetime counters it is audited
    /// against).
    pub fn in_flight(&self) -> u64 {
        self.transfers
            .iter()
            .filter(|(_, t)| t.state == XferState::InFlight)
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_then_saturates() {
        assert_eq!(backoff_deadline(100, 50, 1), 150);
        assert_eq!(backoff_deadline(100, 50, 2), 200);
        assert_eq!(backoff_deadline(100, 50, 3), 300);
        assert_eq!(backoff_deadline(100, 50, 0), 150, "send 0 clamps to base");
        assert_eq!(backoff_deadline(u64::MAX - 1, 50, 4), u64::MAX);
        assert_eq!(backoff_deadline(0, u64::MAX, 63), u64::MAX);
    }

    #[test]
    fn ledger_reaps_only_resolved_copyless_transfers() {
        let mut l = RetxLedger::default();
        let x = l.transfers.insert(Transfer {
            seq: 1,
            src: 0,
            dst: PnId(1),
            msg: 0,
            sends: 1,
            ever_sent: true,
            live_copies: 1,
            state: XferState::InFlight,
        });
        l.created += 1;
        l.maybe_reap(x);
        assert!(l.transfers.get(x).is_some(), "in-flight is never reaped");
        assert_eq!(l.in_flight(), 1);
        if let Some(t) = l.transfers.get_mut(x) {
            t.state = XferState::Delivered;
        }
        l.maybe_reap(x);
        assert!(l.transfers.get(x).is_some(), "a live copy pins the record");
        if let Some(t) = l.transfers.get_mut(x) {
            t.live_copies = 0;
        }
        l.maybe_reap(x);
        assert!(l.transfers.get(x).is_none());
        assert_eq!(l.in_flight(), 0);
    }
}
