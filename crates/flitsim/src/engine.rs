//! The cycle stages: fault-timeline advance, delivery timeouts,
//! ejection, crossbar traversal, link transfer and source injection —
//! the event wheel one [`FlitSim::step`] spin drives, in that order.
//!
//! A stage visits only state that can change this cycle: ejection, link
//! transfer and injection walk the occupancy worklists (non-empty
//! ejection queues, output buffers, source queues) in ascending port
//! order — the order matters, because records retired along the way
//! free slab slots that are reused LIFO — and the crossbar arbitrates
//! from per-output request rows (see [`arbiter`](crate::arbiter)).
//!
//! Each stage is a method on [`FlitSim`]; the control loop itself
//! (run/step/stats) lives in [`sim`](crate::sim), buffer state in
//! [`arbiter`](crate::arbiter), path selection in
//! [`routing_view`](crate::routing_view), and the invariant monitors in
//! [`monitor`](crate::monitor).

use crate::inject::StreamingPacket;
use crate::packet::{Flit, Message, Packet, NO_XFER};
use crate::resilience::{backoff_deadline, DropCause, Transfer, XferState};
use crate::sim::FlitSim;
use crate::traffic_mode::TrafficMode;
use crate::util::{ix, route_port, word_ids};
use lmpr_core::Router;
use std::cmp::Reverse;
use xgft::{PathId, PnId};

use crate::config::{FaultPolicy, RetxConfig};

impl<R: Router> FlitSim<R> {
    // ------------------------------------------------------------------
    // Stage 0a: fault timeline — physical events now, view events after
    // the detection + reconvergence lag.
    // ------------------------------------------------------------------
    pub(crate) fn advance_faults(&mut self) {
        self.routing
            .advance(self.now, &self.topo, &self.graph, &mut self.failed_out);
    }

    // ------------------------------------------------------------------
    // Stage 0b: end-to-end delivery timeouts and retransmission.
    // ------------------------------------------------------------------
    pub(crate) fn process_timeouts(&mut self) {
        let Some(rc) = self.retx else {
            return;
        };
        loop {
            let due = match self.ledger.timeouts.peek() {
                Some(&Reverse((deadline, xfer, seq, sends))) if deadline <= self.now => {
                    (xfer, seq, sends)
                }
                _ => break,
            };
            self.ledger.timeouts.pop();
            self.handle_timeout(due.0, due.1, due.2, rc);
        }
    }

    fn handle_timeout(&mut self, xfer: u32, seq: u64, sends: u32, rc: RetxConfig) {
        let info = self
            .ledger
            .transfers
            .get(xfer)
            .map(|t| (t.seq, t.state, t.sends, t.ever_sent));
        // Reaped or slot reused by a different transfer: stale.
        let Some((cur_seq, state, cur_sends, ever_sent)) = info else {
            return;
        };
        // Resolved, superseded by a newer attempt, or a slot-reuse
        // collision (the armed transfer was reaped and an unrelated one
        // now lives at this key): stale either way.
        if cur_seq != seq || state != XferState::InFlight || cur_sends != sends {
            return;
        }
        if cur_sends > rc.max_retries {
            // The cap of 1 + max_retries total attempts is exhausted.
            let cause = if ever_sent {
                DropCause::RetryExhausted
            } else {
                DropCause::Disconnected
            };
            if let Some(t) = self.ledger.transfers.get_mut(xfer) {
                t.state = XferState::Dropped(cause);
            }
            self.ledger.dropped += 1;
            self.ledger.maybe_reap(xfer);
            return;
        }
        self.retransmit(xfer);
    }

    fn retransmit(&mut self, xfer: u32) {
        let Some((src, dst, msg)) = self
            .ledger
            .transfers
            .get(xfer)
            .map(|t| (t.src, t.dst, t.msg))
        else {
            return;
        };
        self.ensure_routes(PnId(src), dst);
        let paths = std::mem::take(&mut self.path_buf);
        let sends = {
            let bumped = self.ledger.transfers.get_mut(xfer).map(|t| {
                t.sends += 1;
                t.sends
            });
            let Some(sends) = bumped else {
                self.path_buf = paths;
                return;
            };
            sends
        };
        if paths.is_empty() {
            // Still disconnected in the routing view: the attempt is
            // burned (the backoff clock keeps ticking) and the next
            // timeout re-examines the — possibly reconverged — view.
            self.arm_timeout(xfer, sends);
            self.path_buf = paths;
            return;
        }
        let choice = self.sources[ix(src)].pick_message_path(paths.len());
        let route = self.packed_route(PnId(src), dst, paths[choice]);
        let Some(&first_port) = route.first() else {
            debug_assert!(false, "a transfer can never be a self-pair");
            self.arm_timeout(xfer, sends);
            self.path_buf = paths;
            return;
        };
        let pkt = self.packets.insert(Packet {
            msg,
            len: self.cfg.packet_flits,
            route,
            dst,
            xfer,
        });
        if let Some(t) = self.ledger.transfers.get_mut(xfer) {
            if t.ever_sent {
                self.ledger.retransmitted += 1;
            }
            t.ever_sent = true;
            t.live_copies += 1;
        }
        self.queue_at_source(src, first_port, pkt);
        self.arm_timeout(xfer, sends);
        self.path_buf = paths;
    }

    /// The output port to take at each node of a path, packed as a
    /// packet record stores it: one allocation, filled in place.
    fn packed_route(&self, s: PnId, d: PnId, path: PathId) -> Box<[u16]> {
        let mut route = Vec::with_capacity(2 * self.topo.nca_level(s, d));
        self.topo.walk_path(s, d, path, |link| {
            route.push(route_port(self.topo.endpoints(link).from_port));
        });
        route.into_boxed_slice()
    }

    /// Queue a fresh packet behind source `pn`'s up port `local`.
    fn queue_at_source(&mut self, pn: u32, local: u16, pkt: u32) {
        self.sources[ix(pn)].queues[usize::from(local)].push_back(StreamingPacket {
            pkt,
            next_seq: 0,
            len: self.cfg.packet_flits,
        });
        self.src_ready
            .set(self.graph.port_gid(pn, u32::from(local)));
    }

    /// Create a transfer record for one reliable packet. `queued` marks
    /// whether a first copy is being queued right now.
    fn new_transfer(&mut self, src: u32, dst: PnId, msg: u32, queued: bool) -> u32 {
        debug_assert!(
            self.retx.is_some(),
            "transfers exist only under a resilience config"
        );
        self.ledger.created += 1;
        self.ledger.transfers.insert(Transfer {
            seq: self.ledger.created,
            src,
            dst,
            msg,
            sends: 1,
            ever_sent: queued,
            live_copies: u32::from(queued),
            state: XferState::InFlight,
        })
    }

    fn arm_timeout(&mut self, xfer: u32, sends: u32) {
        let Some(rc) = self.retx else {
            return;
        };
        let Some(seq) = self.ledger.transfers.get(xfer).map(|t| t.seq) else {
            return;
        };
        self.ledger.timeouts.push(Reverse((
            backoff_deadline(self.now, rc.timeout, sends),
            xfer,
            seq,
            sends,
        )));
    }

    /// Fill `self.path_buf` with the selection for the pair, delegated
    /// to the shared [`SelectionEngine`](lmpr_core::SelectionEngine)
    /// behind the routing view: under a dynamic timeline the cached
    /// surviving selection computed against the (lagged) view, otherwise
    /// the router's plain selection.
    fn ensure_routes(&mut self, s: PnId, d: PnId) {
        let mut paths = std::mem::take(&mut self.path_buf);
        self.routing.select(&self.topo, s, d, &mut paths);
        self.path_buf = paths;
    }

    // ------------------------------------------------------------------
    // Stage 1: ejection at processing nodes.
    // ------------------------------------------------------------------
    pub(crate) fn eject(&mut self) {
        for w in 0..self.arb.eject_words() {
            for port in word_ids(w, self.arb.eject_ready()[ix(w)]) {
                let Some(f) = self.arb.in_head(port, 0) else {
                    debug_assert!(false, "ejection worklist names an empty queue");
                    continue;
                };
                if f.entered >= self.now {
                    continue; // arrived this cycle; consumable next cycle
                }
                self.arb.pop_in(port, 0);
                self.arb.credits[ix(self.graph.peer(port))] += 1;
                self.deliver(self.graph.port_owner(port), f);
            }
        }
    }

    fn deliver(&mut self, pn: u32, f: Flit) {
        let Some(pkt) = self.packets.get(f.pkt) else {
            debug_assert!(false, "ejected flit references a vacant packet record");
            return;
        };
        debug_assert_eq!(pkt.dst, PnId(pn), "flit ejected at the wrong PN");
        debug_assert_eq!(
            usize::from(f.hop),
            pkt.route.len(),
            "flit ejected mid-route"
        );
        let (msg_key, is_tail, len, xfer) = (pkt.msg, f.tail, pkt.len, pkt.xfer);
        self.progress = true;
        if xfer != NO_XFER {
            self.deliver_reliable(f, msg_key, is_tail, len, xfer);
            return;
        }
        self.total_delivered += 1;
        if self.in_window() {
            self.w_delivered += 1;
        }
        if is_tail {
            self.packets.remove(f.pkt);
        }
        let Some(msg) = self.messages.get_mut(msg_key) else {
            debug_assert!(false, "delivered flit references a vacant message record");
            return;
        };
        msg.remaining_flits = msg.remaining_flits.saturating_sub(1);
        if msg.remaining_flits == 0 {
            self.complete_message(msg_key);
        }
    }

    /// Sink-side duplicate suppression: the first copy whose flits
    /// arrive while the transfer is unresolved counts as delivered; its
    /// tail resolves the transfer and advances the message. Copies of an
    /// already-resolved transfer (delivered by a sibling, or dropped
    /// because the source gave up) count as duplicates flit by flit.
    fn deliver_reliable(&mut self, f: Flit, msg_key: u32, is_tail: bool, len: u16, xfer: u32) {
        let state = self.ledger.transfers.get(xfer).map(|t| t.state);
        debug_assert!(state.is_some(), "live copy of a reaped transfer");
        let first_copy = state == Some(XferState::InFlight);
        if first_copy {
            self.total_delivered += 1;
            if self.in_window() {
                self.w_delivered += 1;
            }
        } else {
            self.total_duplicate += 1;
            if self.in_window() {
                self.w_duplicate += 1;
            }
        }
        if !is_tail {
            return;
        }
        self.packets.remove(f.pkt);
        if let Some(t) = self.ledger.transfers.get_mut(xfer) {
            t.live_copies = t.live_copies.saturating_sub(1);
            if first_copy {
                t.state = XferState::Delivered;
            }
        }
        if first_copy {
            self.ledger.delivered += 1;
        }
        self.ledger.maybe_reap(xfer);
        if first_copy {
            let Some(msg) = self.messages.get_mut(msg_key) else {
                debug_assert!(false, "transfer references a vacant message record");
                return;
            };
            msg.remaining_flits = msg.remaining_flits.saturating_sub(u32::from(len));
            if msg.remaining_flits == 0 {
                self.complete_message(msg_key);
            }
        }
    }

    fn complete_message(&mut self, msg_key: u32) {
        let Some(msg) = self.messages.remove(msg_key) else {
            return;
        };
        if msg.measured {
            let delay = self.now.saturating_sub(msg.created);
            self.w_completed_messages += 1;
            self.w_sum_delay += delay as f64;
            self.w_max_delay = self.w_max_delay.max(delay);
            self.w_delays.push(delay);
        }
    }

    // ------------------------------------------------------------------
    // Stage 2: crossbar traversal at switches (input → output buffers).
    // ------------------------------------------------------------------
    pub(crate) fn crossbar(&mut self) {
        let cap = ix(self.cfg.buffer_flits());
        for node in self.graph.num_pns()..self.graph.num_nodes() {
            let ports = self.graph.ports_of(node);
            let (start, radix) = (ports.start, ports.end - ports.start);
            for out in ports {
                let out_local = out - start;
                if let Some((in_gid, pkt_key)) = self.arb.grant[ix(out)] {
                    // A packet holds this output until its tail passes.
                    let Some(f) = self.arb.in_head(in_gid, out_local) else {
                        continue;
                    };
                    if f.entered >= self.now {
                        continue;
                    }
                    debug_assert_eq!(
                        f.pkt, pkt_key,
                        "foreign packet at VOQ head while output is granted"
                    );
                    if self.arb.out_len(out) == cap {
                        continue; // output staging full; packet waits at the input
                    }
                    self.move_through_crossbar(in_gid, out_local, out);
                    if f.tail {
                        self.arb.grant[ix(out)] = None;
                    }
                    continue;
                }
                // No grant: round-robin over the node's inputs that have
                // a flit queued for this output (one word test when none
                // has).
                //
                // Note the whole-packet VCT reservation applies at the
                // *link* (downstream input buffer); within the switch a
                // blocked packet may straddle the input and output
                // buffers, as in real combined-queue VCT switches.
                if !self.arb.has_request(out) || self.arb.out_len(out) == cap {
                    continue;
                }
                let Some((in_gid, f)) = self.arb.arbitrate(out, start, self.now) else {
                    continue;
                };
                debug_assert!(f.is_head(), "VOQ head must be a packet head between grants");
                debug_assert_eq!(
                    self.packets
                        .get(f.pkt)
                        .and_then(|p| p.route.get(usize::from(f.hop)))
                        .map(|&p| u32::from(p)),
                    Some(out_local),
                    "VOQ head is not routed through this output"
                );
                self.move_through_crossbar(in_gid, out_local, out);
                if !f.tail {
                    self.arb.grant[ix(out)] = Some((in_gid, f.pkt));
                }
                self.arb.rr_ptr[ix(out)] = (in_gid - start + 1) % radix;
            }
        }
    }

    fn move_through_crossbar(&mut self, in_gid: u32, voq: u32, out_gid: u32) {
        let Some(mut f) = self.arb.pop_in(in_gid, voq) else {
            debug_assert!(false, "VOQ head vanished between inspection and move");
            return;
        };
        self.arb.credits[ix(self.graph.peer(in_gid))] += 1;
        f.entered = self.now;
        self.arb.push_out(out_gid, f);
        self.progress = true;
    }

    // ------------------------------------------------------------------
    // Stage 3: link transfer (output buffer → downstream input buffer).
    // ------------------------------------------------------------------
    pub(crate) fn link_transfer(&mut self) {
        for w in 0..self.arb.out_ready().num_words() {
            for out in word_ids(w, self.arb.out_ready().word(w)) {
                self.transfer_over_link(out);
            }
        }
    }

    /// Move the flit at the head of output `out` across its cable, if
    /// it may move this cycle.
    fn transfer_over_link(&mut self, out: u32) {
        let o = ix(out);
        let Some(f) = self.arb.out_head(out) else {
            debug_assert!(false, "output worklist names an empty buffer");
            return;
        };
        if f.entered >= self.now {
            return;
        }
        // A packet truncated here earlier keeps draining here, even
        // if the cable has recovered since — downstream must never
        // see a headless packet.
        if self.discarding[o] == Some(f.pkt) {
            self.drop_front_flit(out);
            return;
        }
        // Failure takes effect at packet granularity: a packet that
        // started crossing before the cable died completes.
        if self.failed_out[o] && self.link_mid_packet[o] != Some(f.pkt) {
            match self.fault_policy {
                // A dead cable transfers nothing; traffic routed over
                // it backs up until the link recovers (or the
                // watchdog aborts the run).
                FaultPolicy::Block => {}
                // Discard at the failure point. The rest of the
                // packet drains via the `discarding` marker; no
                // credit moves and nothing downstream ever sees the
                // packet. The packet record is retired when its tail
                // drops (a dropped *transfer* copy releases its pin
                // on the transfer record there).
                FaultPolicy::Drop => self.drop_front_flit(out),
            }
            return;
        }
        // A head reserves downstream room for its whole packet and
        // picks the VOQ it joins there — the local output it will leave
        // through, or queue 0 at a processing node (ejection). That is
        // this hop's one look-up of the packet record; the body follows
        // the head into `link_voq`.
        let (need, voq) = if f.is_head() {
            self.packets.get(f.pkt).map_or((1, 0), |p| {
                let next = p.route.get(usize::from(f.hop) + 1);
                debug_assert_eq!(
                    next.is_none(),
                    self.graph
                        .is_pn(self.graph.port_owner(self.graph.peer(out))),
                    "a route ends exactly where a flit reaches a PN"
                );
                (u32::from(p.len), next.copied().unwrap_or(0))
            })
        } else {
            debug_assert!(
                self.arb.credits[o] >= 1,
                "credit reservation violated for a body flit"
            );
            (1, self.link_voq[o])
        };
        if self.arb.credits[o] < need {
            return;
        }
        let Some(mut f) = self.arb.pop_out(out) else {
            return;
        };
        self.arb.credits[o] -= 1;
        self.progress = true;
        if self.in_window() {
            self.link_busy[o] += 1;
        }
        if f.tail {
            self.link_mid_packet[o] = None;
        } else if f.is_head() {
            self.link_mid_packet[o] = Some(f.pkt);
            self.link_voq[o] = voq;
        }
        f.hop += 1;
        f.entered = self.now;
        self.arb.push_in(self.graph.peer(out), u32::from(voq), f);
    }

    /// Discard the flit at the head of output `out`, maintaining the
    /// truncated-packet drain marker and the drop counters. When the
    /// tail goes, the packet record is retired.
    fn drop_front_flit(&mut self, out: u32) {
        let Some(f) = self.arb.pop_out(out) else {
            return;
        };
        self.total_dropped += 1;
        if self.in_window() {
            self.w_dropped += 1;
        }
        self.progress = true;
        if f.tail {
            self.discarding[ix(out)] = None;
            self.retire_dropped_packet(f.pkt);
        } else {
            self.discarding[ix(out)] = Some(f.pkt);
        }
    }

    /// Remove a fully-discarded packet's record; if end-to-end
    /// reliability tracks it, release the copy's pin on the transfer so
    /// the retransmission machinery (not this drop) decides its fate.
    fn retire_dropped_packet(&mut self, pkt_key: u32) {
        let Some(pkt) = self.packets.remove(pkt_key) else {
            return;
        };
        if pkt.xfer == NO_XFER {
            return;
        }
        if let Some(t) = self.ledger.transfers.get_mut(pkt.xfer) {
            t.live_copies = t.live_copies.saturating_sub(1);
        }
        self.ledger.maybe_reap(pkt.xfer);
    }

    // ------------------------------------------------------------------
    // Stage 4: message creation and source injection.
    // ------------------------------------------------------------------
    pub(crate) fn inject(&mut self) {
        let rate = self.cfg.message_rate();
        for pn in 0..self.graph.num_pns() {
            while self.sources[ix(pn)].poll_arrival(self.now, rate) {
                self.create_message(pn);
            }
        }
        // Streaming touches only a source's own queues and NIC buffers,
        // so it commutes with the other sources' arrivals.
        self.stream_source_flits();
    }

    fn create_message(&mut self, pn: u32) {
        let src = PnId(pn);
        let traffic = std::mem::replace(&mut self.traffic, TrafficMode::Uniform);
        let picked = self.sources[ix(pn)].pick_destination_mode(&traffic, pn, self.graph.num_pns());
        self.traffic = traffic;
        let Some(dst) = picked else {
            return; // self-mapped permutation entry: this source is silent
        };
        let dst = PnId(dst);
        self.ensure_routes(src, dst);
        let paths = std::mem::take(&mut self.path_buf);
        let retx = self.retx;
        let measured = self.in_window();
        if paths.is_empty() {
            if measured {
                self.w_disconnected += 1;
            }
            if retx.is_none() {
                // No surviving route and no reliability: the message is
                // never materialized, only counted.
                self.path_buf = paths;
                return;
            }
            // Reliability keeps the bookkeeping alive: each packet
            // becomes a transfer that retries — and may succeed once the
            // view reconverges — or drops as Disconnected.
            if measured {
                self.w_created_messages += 1;
            }
            let msg = self.messages.insert(Message {
                created: self.now,
                remaining_flits: self.cfg.message_flits(),
                measured,
            });
            for _ in 0..self.cfg.packets_per_message {
                let xfer = self.new_transfer(pn, dst, msg, false);
                self.arm_timeout(xfer, 1);
            }
            self.path_buf = paths;
            return;
        }
        if measured {
            self.w_created_messages += 1;
        }
        let msg = self.messages.insert(Message {
            created: self.now,
            remaining_flits: self.cfg.message_flits(),
            measured,
        });
        let per_message_choice = self.sources[ix(pn)].pick_message_path(paths.len());
        for _ in 0..self.cfg.packets_per_message {
            let choice = self.sources[ix(pn)].pick_path(
                self.cfg.path_policy,
                paths.len(),
                per_message_choice,
            );
            let route = self.packed_route(src, dst, paths[choice]);
            debug_assert!(!route.is_empty(), "traffic modes never self-address");
            let xfer = if retx.is_some() {
                let x = self.new_transfer(pn, dst, msg, true);
                self.arm_timeout(x, 1);
                x
            } else {
                NO_XFER
            };
            let first_port = route[0];
            let pkt = self.packets.insert(Packet {
                msg,
                len: self.cfg.packet_flits,
                route,
                dst,
                xfer,
            });
            self.queue_at_source(pn, first_port, pkt);
        }
        self.path_buf = paths;
    }

    /// One flit from every source queue that has a packet waiting and
    /// NIC staging room. A PN's port gid names both the queue and the
    /// output buffer it streams into.
    fn stream_source_flits(&mut self) {
        let cap = ix(self.cfg.buffer_flits());
        for w in 0..self.src_ready.num_words() {
            for out in word_ids(w, self.src_ready.word(w)) {
                if cap == self.arb.out_len(out) {
                    continue; // NIC staging buffer full
                }
                let pn = self.graph.port_owner(out);
                let q = &mut self.sources[ix(pn)].queues[ix(self.graph.local_port(out))];
                let Some(head) = q.front_mut() else {
                    debug_assert!(false, "source worklist names an empty queue");
                    continue;
                };
                let f = Flit {
                    pkt: head.pkt,
                    seq: head.next_seq,
                    hop: 0,
                    entered: self.now,
                    tail: head.next_seq + 1 == head.len,
                };
                head.next_seq += 1;
                if f.tail {
                    q.pop_front();
                    self.src_ready.clear_if(out, q.is_empty());
                }
                self.arb.push_out(out, f);
                self.total_injected += 1;
                self.progress = true;
                if self.in_window() {
                    self.w_injected += 1;
                }
            }
        }
    }
}
