//! Packets, messages and flits.

use xgft::PnId;

/// Sentinel for [`Packet::xfer`]: the packet is not tracked by the
/// end-to-end retransmission layer (reliability disabled).
pub const NO_XFER: u32 = u32::MAX;

/// A flit in a buffer. All flits of a packet share its record in the
/// packet slab; the flit only carries what differs per copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// Packet slab key.
    pub pkt: u32,
    /// Position within the packet (`0` = head, `len-1` = tail).
    pub seq: u16,
    /// Index of the node this flit currently sits at along its route
    /// (`0` = source PN). The output port to take at that node is
    /// `route[hop]`.
    pub hop: u8,
    /// Cycle the flit entered its current buffer; it may move again only
    /// on a strictly later cycle. 64-bit so arbitrarily long resilience
    /// runs never wrap the timeline.
    pub entered: u64,
    /// Whether this is the packet's tail flit (`seq + 1 == len`):
    /// derived from the packet record when the flit is created, so the
    /// stages that only need to know where a packet ends never look the
    /// record up.
    pub tail: bool,
}

impl Flit {
    /// Whether this is the packet's head flit.
    pub fn is_head(&self) -> bool {
        self.seq == 0
    }
}

/// A packet in flight.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Message slab key this packet belongs to.
    pub msg: u32,
    /// Length in flits.
    pub len: u16,
    /// Output port to take at each node along the path (`2κ` entries:
    /// source PN, up-phase switches, apex, down-phase switches).
    pub route: Box<[u16]>,
    /// Destination (for delivery assertions).
    pub dst: PnId,
    /// Transfer slab key when end-to-end reliability tracks this packet
    /// (each retransmitted copy is its own `Packet` sharing one
    /// transfer); [`NO_XFER`] otherwise.
    pub xfer: u32,
}

impl Packet {
    /// Whether `seq` is the tail flit.
    pub fn is_tail(&self, seq: u16) -> bool {
        seq + 1 == self.len
    }
}

/// A message: the unit whose creation-to-delivery delay the paper plots.
#[derive(Debug, Clone, Copy)]
pub struct Message {
    /// Creation cycle (arrival at the source queue).
    pub created: u64,
    /// Flits still outstanding; the message completes when this reaches
    /// zero. Under end-to-end reliability this decrements by a whole
    /// packet when the packet's *first* copy completes (duplicates never
    /// advance it).
    pub remaining_flits: u32,
    /// Whether the message was created inside the measurement window
    /// (only those contribute to delay statistics).
    pub measured: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_and_tail_classification() {
        let p = Packet {
            msg: 0,
            len: 4,
            route: Box::new([0, 1]),
            dst: PnId(3),
            xfer: NO_XFER,
        };
        assert!(Flit {
            pkt: 0,
            seq: 0,
            hop: 0,
            entered: 0,
            tail: false,
        }
        .is_head());
        assert!(!Flit {
            pkt: 0,
            seq: 1,
            hop: 0,
            entered: 0,
            tail: false,
        }
        .is_head());
        assert!(p.is_tail(3));
        assert!(!p.is_tail(2));
    }
}
