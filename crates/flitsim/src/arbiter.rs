//! Per-port switching state: buffers, credits, grants and round-robin
//! pointers — the arbitration half of the VCT switch model.
//!
//! The [`Arbiter`] owns everything indexed by port gid that the
//! crossbar and link stages contend over. Pulling it out of the
//! simulator struct gives the cycle stages one narrow seam for buffer
//! state and gives the monitors ([`Arbiter::flits_in_network`],
//! [`Arbiter::blocked_ports`]) their occupancy answers without
//! reaching into stage internals.
//!
//! # Occupancy
//!
//! Beside the buffers the arbiter keeps two bit vectors that say *which*
//! buffers hold anything, so a cycle stage visits only those:
//!
//! * `in_ready`, one bit per input queue. Its first words are the
//!   **ejection worklist** — bit `p` set iff processing-node port `p`'s
//!   ejection queue is non-empty. After them comes one **request row**
//!   per switch output, in port order: bit `i` of an output's row is
//!   set iff local input `i`'s VOQ for that output is non-empty. A row
//!   has as many words as the widest switch radix needs.
//! * `out_ready`: bit `o` set iff output port `o`'s staging buffer is
//!   non-empty — the link stage's worklist.
//!
//! Both are functions of the buffers and nothing else. Every push and
//! pop goes through this module, which updates them in the same call,
//! and the `RT-OCCUPANCY` monitor compares them against a rescan of the
//! buffers.
//!
//! A pop clears its queue's bit with a masked store, not a branch:
//! while a packet streams through a queue, whether a pop empties it is
//! close to a coin flip, and the mispredictions cost more than every
//! scan the bits save.

use crate::network::PortGraph;
use crate::packet::Flit;
use crate::util::{find_cyclic, ix, small_u32, BitSet};
use std::collections::VecDeque;

/// Buffer, credit and arbitration state of every port in the network.
pub(crate) struct Arbiter {
    /// Input buffers, organized as virtual output queues (VOQs): one
    /// FIFO per local output port of the owning node, all sharing the
    /// port's credit-managed capacity. Packets arrive contiguously per
    /// link (upstream outputs are packet-atomic) and each packet lands
    /// wholly in one VOQ, so packets stay contiguous per queue while
    /// head-of-line blocking across outputs disappears — matching
    /// shared-memory InfiniBand-style switches. VOQ `v` of port `p` is
    /// `in_buf[voq_base[p] + v]`; processing nodes eject through a
    /// single queue.
    in_buf: Vec<VecDeque<Flit>>,
    /// Index of each port's first VOQ, plus the total as a last entry.
    voq_base: Vec<u32>,
    /// Per input port, where `in_ready` keeps the bit of its VOQ 0: word
    /// index and mask. The bit of its VOQ `v` is `row_words · v` words
    /// further on, under the same mask.
    in_bit: Vec<(u32, u64)>,
    /// Words per request row.
    row_words: u32,
    /// Words of `in_ready` before the first request row.
    eject_words: u32,
    /// Port gids below this belong to processing nodes.
    pn_ports: u32,
    /// Output staging buffers.
    out_buf: Vec<VecDeque<Flit>>,
    /// Free flit slots in the downstream input buffer of each output.
    pub(crate) credits: Vec<u32>,
    /// Packet-atomic output reservation: `(input port gid, packet key)`.
    pub(crate) grant: Vec<Option<(u32, u32)>>,
    /// Round-robin arbitration pointer per output port (local input
    /// index to scan first).
    pub(crate) rr_ptr: Vec<u32>,
    /// Which input queues are non-empty (see the module docs).
    in_ready: Vec<u64>,
    /// Which output buffers are non-empty.
    out_ready: BitSet,
}

impl Arbiter {
    /// Empty buffers with full credit, sized to the port graph.
    pub(crate) fn new(graph: &PortGraph, buffer_flits: u32) -> Self {
        let ports = graph.num_ports();
        let pn_ports = graph.num_pn_ports();
        let eject_words = pn_ports.div_ceil(64);
        let widest = (graph.num_pns()..graph.num_nodes()).map(|n| graph.ports_of(n).len());
        let row_words = small_u32(widest.max().unwrap_or(1)).div_ceil(64);
        let mut voq_base = Vec::with_capacity(ix(ports) + 1);
        let mut in_bit = Vec::with_capacity(ix(ports));
        let mut voqs = 0;
        for node in 0..graph.num_nodes() {
            let range = graph.ports_of(node);
            for port in range.clone() {
                voq_base.push(voqs);
                if graph.is_pn(node) {
                    in_bit.push((port / 64, 1 << (port % 64)));
                    voqs += 1;
                } else {
                    let local_in = port - range.start;
                    let first_row = eject_words + (range.start - pn_ports) * row_words;
                    in_bit.push((first_row + local_in / 64, 1 << (local_in % 64)));
                    voqs += range.end - range.start;
                }
            }
        }
        voq_base.push(voqs);
        Arbiter {
            in_buf: vec![VecDeque::new(); ix(voqs)],
            voq_base,
            in_bit,
            row_words,
            eject_words,
            pn_ports,
            out_buf: vec![VecDeque::new(); ix(ports)],
            credits: vec![buffer_flits; ix(ports)],
            grant: vec![None; ix(ports)],
            rr_ptr: vec![0; ix(ports)],
            in_ready: vec![0; ix(eject_words + (ports - pn_ports) * row_words)],
            out_ready: BitSet::new(ports),
        }
    }

    /// The VOQs of one input port, in local-output order.
    fn voqs_of(&self, port: u32) -> &[VecDeque<Flit>] {
        &self.in_buf[ix(self.voq_base[ix(port)])..ix(self.voq_base[ix(port) + 1])]
    }

    /// Word of `in_ready` and mask of the bit of input `port`'s VOQ
    /// `voq`.
    #[inline]
    fn in_ready_bit(&self, port: u32, voq: u32) -> (usize, u64) {
        let (word, mask) = self.in_bit[ix(port)];
        (ix(word + voq * self.row_words), mask)
    }

    /// The request row of switch output `out`.
    #[inline]
    fn request_row(&self, out: u32) -> &[u64] {
        let start = ix(self.eject_words + (out - self.pn_ports) * self.row_words);
        &self.in_ready[start..start + ix(self.row_words)]
    }

    /// The flit at the head of input `port`'s VOQ `voq`.
    #[inline]
    pub(crate) fn in_head(&self, port: u32, voq: u32) -> Option<Flit> {
        self.in_buf[ix(self.voq_base[ix(port)] + voq)]
            .front()
            .copied()
    }

    /// Append a flit to input `port`'s VOQ `voq`.
    #[inline]
    pub(crate) fn push_in(&mut self, port: u32, voq: u32, f: Flit) {
        self.in_buf[ix(self.voq_base[ix(port)] + voq)].push_back(f);
        let (word, mask) = self.in_ready_bit(port, voq);
        self.in_ready[word] |= mask;
    }

    /// Take the flit at the head of input `port`'s VOQ `voq`.
    #[inline]
    pub(crate) fn pop_in(&mut self, port: u32, voq: u32) -> Option<Flit> {
        let q = &mut self.in_buf[ix(self.voq_base[ix(port)] + voq)];
        let f = q.pop_front();
        let emptied = u64::from(q.is_empty());
        let (word, mask) = self.in_ready_bit(port, voq);
        self.in_ready[word] &= !(mask * emptied);
        f
    }

    /// The flit at the head of output `out`'s staging buffer.
    #[inline]
    pub(crate) fn out_head(&self, out: u32) -> Option<Flit> {
        self.out_buf[ix(out)].front().copied()
    }

    /// Flits staged at output `out`.
    #[inline]
    pub(crate) fn out_len(&self, out: u32) -> usize {
        self.out_buf[ix(out)].len()
    }

    /// Append a flit to output `out`'s staging buffer.
    #[inline]
    pub(crate) fn push_out(&mut self, out: u32, f: Flit) {
        self.out_buf[ix(out)].push_back(f);
        self.out_ready.set(out);
    }

    /// Take the flit at the head of output `out`'s staging buffer.
    #[inline]
    pub(crate) fn pop_out(&mut self, out: u32) -> Option<Flit> {
        let q = &mut self.out_buf[ix(out)];
        let f = q.pop_front();
        let emptied = q.is_empty();
        self.out_ready.clear_if(out, emptied);
        f
    }

    /// Output ports with a non-empty staging buffer.
    pub(crate) fn out_ready(&self) -> &BitSet {
        &self.out_ready
    }

    /// The ejection worklist, 64 processing-node port gids a word: bit
    /// `b` of word `w` says port `64·w + b`'s ejection queue is
    /// non-empty.
    pub(crate) fn eject_ready(&self) -> &[u64] {
        &self.in_ready[..ix(self.eject_words)]
    }

    /// Number of words in the ejection worklist.
    pub(crate) fn eject_words(&self) -> u32 {
        self.eject_words
    }

    /// Whether any input of the node has a flit queued for switch
    /// output `out`.
    #[inline]
    pub(crate) fn has_request(&self, out: u32) -> bool {
        self.request_row(out).iter().any(|&w| w != 0)
    }

    /// Round-robin arbitration for the ungranted switch output `out` of
    /// the node whose ports start at `start`: the first local input,
    /// scanning cyclically from the output's pointer, whose VOQ for
    /// `out` is headed by a flit that entered before `now`. Returns the
    /// input's port gid and that flit.
    #[inline]
    pub(crate) fn arbitrate(&self, out: u32, start: u32, now: u64) -> Option<(u32, Flit)> {
        find_cyclic(self.request_row(out), self.rr_ptr[ix(out)], |local_in| {
            let head = self.in_head(start + local_in, out - start);
            debug_assert!(head.is_some(), "request bit set over an empty VOQ");
            head.filter(|f| f.entered < now)
                .map(|f| (start + local_in, f))
        })
    }

    /// Every buffered flit, input queues first.
    pub(crate) fn flits(&self) -> impl Iterator<Item = &Flit> {
        self.in_buf.iter().chain(&self.out_buf).flatten()
    }

    /// Flits currently occupying any input or output buffer.
    pub(crate) fn flits_in_network(&self) -> u64 {
        let queued = |bufs: &[VecDeque<Flit>]| bufs.iter().map(VecDeque::len).sum::<usize>();
        (queued(&self.in_buf) + queued(&self.out_buf)) as u64
    }

    /// Output ports holding at least one flit (the watchdog's blocked-
    /// port count).
    pub(crate) fn blocked_ports(&self) -> usize {
        self.out_ready.len()
    }

    /// `in_ready` and `out_ready`, recomputed from the buffers.
    fn scan_occupancy(&self) -> (Vec<u64>, BitSet) {
        let ports = small_u32(self.out_buf.len());
        let mut in_ready = vec![0; self.in_ready.len()];
        let mut out_ready = BitSet::new(ports);
        for port in 0..ports {
            if !self.out_buf[ix(port)].is_empty() {
                out_ready.set(port);
            }
            for (voq, q) in self.voqs_of(port).iter().enumerate() {
                if !q.is_empty() {
                    let (word, mask) = self.in_ready_bit(port, small_u32(voq));
                    in_ready[word] |= mask;
                }
            }
        }
        (in_ready, out_ready)
    }

    /// `RT-OCCUPANCY`, arbiter half: which occupancy bits, if any,
    /// disagree with the buffers.
    pub(crate) fn occupancy_error(&self) -> Option<&'static str> {
        let (in_ready, out_ready) = self.scan_occupancy();
        let (eject, requests) = in_ready.split_at(ix(self.eject_words));
        if eject != self.eject_ready() {
            Some("the ejection worklist disagrees with the ejection queues")
        } else if requests != &self.in_ready[eject.len()..] {
            Some("a crossbar request row disagrees with the VOQs")
        } else if out_ready != self.out_ready {
            Some("the output worklist disagrees with the output buffers")
        } else {
            None
        }
    }

    /// Test hook: flip one occupancy bit behind the buffers' back.
    #[cfg(test)]
    pub(crate) fn corrupt_in_ready(&mut self, port: u32, voq: u32) {
        let (word, mask) = self.in_ready_bit(port, voq);
        self.in_ready[word] ^= mask;
    }
}
