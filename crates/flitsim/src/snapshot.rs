//! Crash-consistent simulator snapshots: versioned, checksummed
//! serialization of complete [`FlitSim`] state with a byte-identical
//! resume guarantee.
//!
//! # Format
//!
//! A snapshot is the `lmpr_codec::envelope` — `magic (8) · version
//! (u32) · payload length (u64) · FNV-1a-64 checksum of the payload
//! (u64) · payload`, all little-endian — under [`SNAPSHOT_MAGIC`] and
//! [`SNAPSHOT_VERSION`]. [`FlitSim::restore`] verifies magic, version,
//! length and checksum *before* decoding a single payload byte, so a
//! truncated or bit-flipped file is rejected with a typed
//! [`SnapshotError`] — never a panic, never a silently wrong simulator.
//!
//! # Serialized vs. rebuilt
//!
//! Everything whose *value* is behavioral state is serialized exactly:
//! the cycle counter, every statistic (f64s as raw bits), the packet and
//! message slabs **including free-list order** (keys are reused LIFO and
//! leak into future identifiers), per-source RNG positions, arrival
//! clocks and queues, the arbiter's VOQs/credits/grants/round-robin
//! pointers, the retransmission ledger with its timeout heap (as a
//! sorted sequence — entries are totally ordered and pairwise distinct,
//! so heap pop order is a function of the *set*), the fault-schedule
//! replay cursor, the pending routing-view batches and the selection
//! cache's key set and counters.
//!
//! Everything *derivable* is rebuilt on restore: the [`Topology`] from
//! its spec, the port graph, the physical and routing-view fault sets
//! (by replaying schedule prefixes), the cached selections themselves
//! (recomputed per key against the rebuilt view — the cached-vs-cold
//! property test certifies the recomputation equals the original
//! cache), and the occupancy state the cycle stages steer by: the
//! arbiter's request rows and worklists and the source worklist
//! (rescanned from the buffers and queues), each flit's tail flag and
//! each queued packet's length (from the packet records), and the
//! in-flight VOQ of every cable a packet is crossing (from its route).
//! Serializing any of it would only add bytes that can disagree with
//! the buffers; the `RT-OCCUPANCY` monitor checks it against the same
//! recomputation.

use crate::arbiter::Arbiter;
use crate::config::{FaultPolicy, PathPolicy, RetxConfig, SimConfig};
use crate::inject::{Source, StreamingPacket};
use crate::network::PortGraph;
use crate::packet::{Flit, Message, Packet};
use crate::resilience::{DropCause, RetxLedger, Transfer, XferState};
use crate::routing_view::{RoutingView, ViewBatch};
use crate::sim::{downstream_voq, scan_src_ready, FlitSim};
use crate::traffic_mode::TrafficMode;
use crate::util::{ix, small_u32, Slab};
use lmpr_codec::envelope::{self, Dec, Enc};
use lmpr_core::{Router, SelectionStats};
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;
use xgft::{
    DirectedLinkId, FaultChange, FaultEvent, FaultSchedule, NodeId, PnId, Topology, XgftSpec,
};

/// File magic identifying an LMPR flit-simulator snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"LMPRSNAP";

/// Current snapshot format version. Bumped on any layout change; older
/// readers reject newer snapshots with a typed error instead of
/// misinterpreting bytes.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Why a snapshot could not be restored. Every variant is a structured
/// rejection — restoring never panics and never yields a simulator
/// built from unverified bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte stream is shorter than the fixed header.
    TooShort,
    /// The magic bytes are not [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The format version is newer than this reader understands.
    UnsupportedVersion(u32),
    /// The declared payload length disagrees with the actual bytes.
    LengthMismatch {
        /// Payload length the header declares.
        declared: u64,
        /// Payload bytes actually present.
        actual: u64,
    },
    /// The payload checksum does not match — the bytes were corrupted.
    ChecksumMismatch {
        /// Checksum the header declares.
        declared: u64,
        /// Checksum recomputed over the payload.
        actual: u64,
    },
    /// The payload ended mid-field (corruption the checksum caught a
    /// different way, or an internal decoder bug).
    Truncated,
    /// A decoded value is structurally impossible (bad enum tag,
    /// inconsistent slab free list, cursor past the schedule end, …).
    Corrupt(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::TooShort => write!(f, "snapshot shorter than its header"),
            SnapshotError::BadMagic => write!(f, "not a flit-simulator snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (reader supports {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::LengthMismatch { declared, actual } => write!(
                f,
                "snapshot payload length mismatch: header declares {declared} bytes, found {actual}"
            ),
            SnapshotError::ChecksumMismatch { declared, actual } => write!(
                f,
                "snapshot checksum mismatch: header declares {declared:#018x}, payload hashes to \
                 {actual:#018x}"
            ),
            SnapshotError::Truncated => write!(f, "snapshot payload truncated mid-field"),
            SnapshotError::Corrupt(what) => write!(f, "snapshot payload corrupt: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Envelope and cursor errors keep their snapshot spelling: the header
/// checks and the payload reads live in `lmpr_codec::envelope`.
impl From<envelope::Error> for SnapshotError {
    fn from(e: envelope::Error) -> Self {
        match e {
            envelope::Error::TooShort => SnapshotError::TooShort,
            envelope::Error::BadMagic => SnapshotError::BadMagic,
            envelope::Error::BadVersion(v) => SnapshotError::UnsupportedVersion(v),
            envelope::Error::Oversize { declared, actual }
            | envelope::Error::LengthMismatch { declared, actual } => {
                SnapshotError::LengthMismatch { declared, actual }
            }
            envelope::Error::ChecksumMismatch { declared, actual } => {
                SnapshotError::ChecksumMismatch { declared, actual }
            }
            envelope::Error::Truncated => SnapshotError::Truncated,
            envelope::Error::Corrupt(what) => SnapshotError::Corrupt(what),
        }
    }
}

type DecResult<T> = Result<T, SnapshotError>;

// ---------------------------------------------------------------------
// Field-group encoders / decoders
// ---------------------------------------------------------------------

fn enc_config(e: &mut Enc, cfg: &SimConfig) {
    e.u16(cfg.packet_flits);
    e.u16(cfg.packets_per_message);
    e.u16(cfg.buffer_packets);
    e.u64(cfg.warmup_cycles);
    e.u64(cfg.measure_cycles);
    e.f64(cfg.offered_load);
    e.u64(cfg.seed);
    e.u8(match cfg.path_policy {
        PathPolicy::PerPacketRandom => 0,
        PathPolicy::PerMessageRandom => 1,
        PathPolicy::RoundRobin => 2,
    });
    e.u64(cfg.watchdog_cycles);
}

fn dec_config(d: &mut Dec<'_>) -> DecResult<SimConfig> {
    Ok(SimConfig {
        packet_flits: d.u16()?,
        packets_per_message: d.u16()?,
        buffer_packets: d.u16()?,
        warmup_cycles: d.u64()?,
        measure_cycles: d.u64()?,
        offered_load: d.f64()?,
        seed: d.u64()?,
        path_policy: match d.u8()? {
            0 => PathPolicy::PerPacketRandom,
            1 => PathPolicy::PerMessageRandom,
            2 => PathPolicy::RoundRobin,
            _ => return Err(SnapshotError::Corrupt("path-policy tag out of range")),
        },
        watchdog_cycles: d.u64()?,
    })
}

fn enc_traffic(e: &mut Enc, t: &TrafficMode) {
    match t {
        TrafficMode::Uniform => e.u8(0),
        TrafficMode::Permutation(p) => {
            e.u8(1);
            e.seq_len(p.len());
            for &d in p {
                e.u32(d);
            }
        }
        TrafficMode::Hotspot { hot, fraction } => {
            e.u8(2);
            e.seq_len(hot.len());
            for &h in hot {
                e.u32(h);
            }
            e.f64(*fraction);
        }
    }
}

fn dec_traffic(d: &mut Dec<'_>) -> DecResult<TrafficMode> {
    match d.u8()? {
        0 => Ok(TrafficMode::Uniform),
        1 => {
            let n = d.seq_len(4)?;
            let mut p = Vec::with_capacity(n);
            for _ in 0..n {
                p.push(d.u32()?);
            }
            Ok(TrafficMode::Permutation(p))
        }
        2 => {
            let n = d.seq_len(4)?;
            let mut hot = Vec::with_capacity(n);
            for _ in 0..n {
                hot.push(d.u32()?);
            }
            Ok(TrafficMode::Hotspot {
                hot,
                fraction: d.f64()?,
            })
        }
        _ => Err(SnapshotError::Corrupt("traffic-mode tag out of range")),
    }
}

fn enc_flit(e: &mut Enc, f: &Flit) {
    e.u32(f.pkt);
    e.u16(f.seq);
    e.u8(f.hop);
    e.u64(f.entered);
}

fn dec_flit(d: &mut Dec<'_>, packets: &Slab<Packet>) -> DecResult<Flit> {
    let (pkt, seq) = (d.u32()?, d.u16()?);
    Ok(Flit {
        pkt,
        seq,
        hop: d.u8()?,
        entered: d.u64()?,
        tail: packets.get(pkt).is_none_or(|p| p.is_tail(seq)),
    })
}

fn enc_flit_queue(e: &mut Enc, q: &VecDeque<Flit>) {
    e.seq_len(q.len());
    for f in q {
        enc_flit(e, f);
    }
}

fn dec_flit_queue(d: &mut Dec<'_>, packets: &Slab<Packet>) -> DecResult<VecDeque<Flit>> {
    let n = d.seq_len(15)?;
    let mut q = VecDeque::with_capacity(n);
    for _ in 0..n {
        q.push_back(dec_flit(d, packets)?);
    }
    Ok(q)
}

fn enc_packet_slab(e: &mut Enc, slab: &Slab<Packet>) {
    let (slots, free) = slab.parts();
    e.seq_len(slots.len());
    for slot in slots {
        match slot {
            None => e.u8(0),
            Some(p) => {
                e.u8(1);
                e.u32(p.msg);
                e.u16(p.len);
                e.seq_len(p.route.len());
                for &port in p.route.iter() {
                    e.u16(port);
                }
                e.u32(p.dst.0);
                e.u32(p.xfer);
            }
        }
    }
    e.seq_len(free.len());
    for &k in free {
        e.u32(k);
    }
}

fn dec_packet_slab(d: &mut Dec<'_>) -> DecResult<Slab<Packet>> {
    let n = d.seq_len(1)?;
    let mut slots = Vec::with_capacity(n);
    for _ in 0..n {
        slots.push(match d.u8()? {
            0 => None,
            1 => {
                let msg = d.u32()?;
                let len = d.u16()?;
                let hops = d.seq_len(2)?;
                let mut route = Vec::with_capacity(hops);
                for _ in 0..hops {
                    route.push(d.u16()?);
                }
                Some(Packet {
                    msg,
                    len,
                    route: route.into_boxed_slice(),
                    dst: PnId(d.u32()?),
                    xfer: d.u32()?,
                })
            }
            _ => return Err(SnapshotError::Corrupt("packet-slot tag out of range")),
        });
    }
    let nf = d.seq_len(4)?;
    let mut free = Vec::with_capacity(nf);
    for _ in 0..nf {
        free.push(d.u32()?);
    }
    Slab::from_parts(slots, free).ok_or(SnapshotError::Corrupt("packet slab free list"))
}

fn enc_message_slab(e: &mut Enc, slab: &Slab<Message>) {
    let (slots, free) = slab.parts();
    e.seq_len(slots.len());
    for slot in slots {
        match slot {
            None => e.u8(0),
            Some(m) => {
                e.u8(1);
                e.u64(m.created);
                e.u32(m.remaining_flits);
                e.bool(m.measured);
            }
        }
    }
    e.seq_len(free.len());
    for &k in free {
        e.u32(k);
    }
}

fn dec_message_slab(d: &mut Dec<'_>) -> DecResult<Slab<Message>> {
    let n = d.seq_len(1)?;
    let mut slots = Vec::with_capacity(n);
    for _ in 0..n {
        slots.push(match d.u8()? {
            0 => None,
            1 => Some(Message {
                created: d.u64()?,
                remaining_flits: d.u32()?,
                measured: d.bool()?,
            }),
            _ => return Err(SnapshotError::Corrupt("message-slot tag out of range")),
        });
    }
    let nf = d.seq_len(4)?;
    let mut free = Vec::with_capacity(nf);
    for _ in 0..nf {
        free.push(d.u32()?);
    }
    Slab::from_parts(slots, free).ok_or(SnapshotError::Corrupt("message slab free list"))
}

fn enc_sources(e: &mut Enc, sources: &[Source]) {
    e.seq_len(sources.len());
    for s in sources {
        let (rng, next_arrival, rr) = s.snapshot_parts();
        for w in rng {
            e.u64(w);
        }
        e.f64(next_arrival);
        e.u64(rr);
        e.seq_len(s.queues.len());
        for q in &s.queues {
            e.seq_len(q.len());
            for sp in q {
                e.u32(sp.pkt);
                e.u16(sp.next_seq);
            }
        }
    }
}

fn dec_sources(d: &mut Dec<'_>, packets: &Slab<Packet>) -> DecResult<Vec<Source>> {
    let n = d.seq_len(8)?;
    let mut sources = Vec::with_capacity(n);
    for _ in 0..n {
        let rng = [d.u64()?, d.u64()?, d.u64()?, d.u64()?];
        let next_arrival = d.f64()?;
        let rr = d.u64()?;
        let nq = d.seq_len(8)?;
        let mut queues = Vec::with_capacity(nq);
        for _ in 0..nq {
            let np = d.seq_len(6)?;
            let mut q = VecDeque::with_capacity(np);
            for _ in 0..np {
                let pkt = d.u32()?;
                q.push_back(StreamingPacket {
                    pkt,
                    next_seq: d.u16()?,
                    len: packets
                        .get(pkt)
                        .ok_or(SnapshotError::Corrupt("queued packet has no record"))?
                        .len,
                });
            }
            queues.push(q);
        }
        sources.push(Source::from_parts(rng, next_arrival, queues, rr));
    }
    Ok(sources)
}

fn enc_arbiter(e: &mut Enc, arb: &Arbiter) {
    let out_bufs = arb.out_bufs();
    e.seq_len(out_bufs.len());
    for port in 0..out_bufs.len() {
        let voqs = arb.voqs_of(small_u32(port));
        e.seq_len(voqs.len());
        for q in voqs {
            enc_flit_queue(e, q);
        }
    }
    e.seq_len(out_bufs.len());
    for q in out_bufs {
        enc_flit_queue(e, q);
    }
    e.seq_len(arb.credits.len());
    for &c in &arb.credits {
        e.u32(c);
    }
    e.seq_len(arb.grant.len());
    for g in &arb.grant {
        match g {
            None => e.u8(0),
            Some((input, pkt)) => {
                e.u8(1);
                e.u32(*input);
                e.u32(*pkt);
            }
        }
    }
    e.seq_len(arb.rr_ptr.len());
    for &p in &arb.rr_ptr {
        e.u32(p);
    }
}

fn dec_arbiter(d: &mut Dec<'_>, graph: &PortGraph, packets: &Slab<Packet>) -> DecResult<Arbiter> {
    let np = d.seq_len(8)?;
    let mut in_buf = Vec::with_capacity(np);
    for _ in 0..np {
        let nv = d.seq_len(8)?;
        let mut voqs = Vec::with_capacity(nv);
        for _ in 0..nv {
            voqs.push(dec_flit_queue(d, packets)?);
        }
        in_buf.push(voqs);
    }
    let no = d.seq_len(8)?;
    let mut out_buf = Vec::with_capacity(no);
    for _ in 0..no {
        out_buf.push(dec_flit_queue(d, packets)?);
    }
    let nc = d.seq_len(4)?;
    let mut credits = Vec::with_capacity(nc);
    for _ in 0..nc {
        credits.push(d.u32()?);
    }
    let ng = d.seq_len(1)?;
    let mut grant = Vec::with_capacity(ng);
    for _ in 0..ng {
        grant.push(match d.u8()? {
            0 => None,
            1 => Some((d.u32()?, d.u32()?)),
            _ => return Err(SnapshotError::Corrupt("grant tag out of range")),
        });
    }
    let nr = d.seq_len(4)?;
    let mut rr_ptr = Vec::with_capacity(nr);
    for _ in 0..nr {
        rr_ptr.push(d.u32()?);
    }
    Arbiter::restore(graph, in_buf, out_buf, credits, grant, rr_ptr).ok_or(SnapshotError::Corrupt(
        "port-indexed state does not match the topology",
    ))
}

fn enc_ledger(e: &mut Enc, ledger: &RetxLedger) {
    let (slots, free) = ledger.transfers.parts();
    e.seq_len(slots.len());
    for slot in slots {
        match slot {
            None => e.u8(0),
            Some(t) => {
                e.u8(1);
                e.u64(t.seq);
                e.u32(t.src);
                e.u32(t.dst.0);
                e.u32(t.msg);
                e.u32(t.sends);
                e.bool(t.ever_sent);
                e.u32(t.live_copies);
                e.u8(match t.state {
                    XferState::InFlight => 0,
                    XferState::Delivered => 1,
                    XferState::Dropped(DropCause::RetryExhausted) => 2,
                    XferState::Dropped(DropCause::Disconnected) => 3,
                });
            }
        }
    }
    e.seq_len(free.len());
    for &k in free {
        e.u32(k);
    }
    // The heap is serialized as its *sorted* element sequence. Entries
    // are pairwise distinct (each transfer arms at most one live entry
    // per sends count, and seqs disambiguate slot reuse) and totally
    // ordered, so the rebuilt heap pops in exactly the original order
    // even though its internal array layout may differ.
    let mut entries: Vec<(u64, u32, u64, u32)> = ledger.timeouts.iter().map(|r| r.0).collect();
    entries.sort_unstable();
    e.seq_len(entries.len());
    for (deadline, xfer, seq, sends) in entries {
        e.u64(deadline);
        e.u32(xfer);
        e.u64(seq);
        e.u32(sends);
    }
    e.u64(ledger.created);
    e.u64(ledger.delivered);
    e.u64(ledger.dropped);
    e.u64(ledger.retransmitted);
}

fn dec_ledger(d: &mut Dec<'_>) -> DecResult<RetxLedger> {
    let n = d.seq_len(1)?;
    let mut slots = Vec::with_capacity(n);
    for _ in 0..n {
        slots.push(match d.u8()? {
            0 => None,
            1 => Some(Transfer {
                seq: d.u64()?,
                src: d.u32()?,
                dst: PnId(d.u32()?),
                msg: d.u32()?,
                sends: d.u32()?,
                ever_sent: d.bool()?,
                live_copies: d.u32()?,
                state: match d.u8()? {
                    0 => XferState::InFlight,
                    1 => XferState::Delivered,
                    2 => XferState::Dropped(DropCause::RetryExhausted),
                    3 => XferState::Dropped(DropCause::Disconnected),
                    _ => return Err(SnapshotError::Corrupt("transfer-state tag out of range")),
                },
            }),
            _ => return Err(SnapshotError::Corrupt("transfer-slot tag out of range")),
        });
    }
    let nf = d.seq_len(4)?;
    let mut free = Vec::with_capacity(nf);
    for _ in 0..nf {
        free.push(d.u32()?);
    }
    let transfers =
        Slab::from_parts(slots, free).ok_or(SnapshotError::Corrupt("transfer slab free list"))?;
    let ne = d.seq_len(24)?;
    let mut timeouts = BinaryHeap::with_capacity(ne);
    for _ in 0..ne {
        timeouts.push(std::cmp::Reverse((d.u64()?, d.u32()?, d.u64()?, d.u32()?)));
    }
    Ok(RetxLedger {
        transfers,
        timeouts,
        created: d.u64()?,
        delivered: d.u64()?,
        dropped: d.u64()?,
        retransmitted: d.u64()?,
    })
}

fn enc_fault_change(e: &mut Enc, c: FaultChange) {
    match c {
        FaultChange::LinkDown(l) => {
            e.u8(0);
            e.u32(l.0);
        }
        FaultChange::LinkUp(l) => {
            e.u8(1);
            e.u32(l.0);
        }
        FaultChange::SwitchDown(n) => {
            e.u8(2);
            e.u8(n.level);
            e.u32(n.rank);
        }
        FaultChange::SwitchUp(n) => {
            e.u8(3);
            e.u8(n.level);
            e.u32(n.rank);
        }
    }
}

fn dec_fault_change(d: &mut Dec<'_>) -> DecResult<FaultChange> {
    Ok(match d.u8()? {
        0 => FaultChange::LinkDown(DirectedLinkId(d.u32()?)),
        1 => FaultChange::LinkUp(DirectedLinkId(d.u32()?)),
        2 => FaultChange::SwitchDown(NodeId {
            level: d.u8()?,
            rank: d.u32()?,
        }),
        3 => FaultChange::SwitchUp(NodeId {
            level: d.u8()?,
            rank: d.u32()?,
        }),
        _ => return Err(SnapshotError::Corrupt("fault-change tag out of range")),
    })
}

fn enc_routing<R: Router>(e: &mut Enc, routing: &RoutingView<R>) {
    match routing.timeline_parts() {
        None => e.u8(0),
        Some((events, cursor, lag, pending, reconv)) => {
            e.u8(1);
            e.seq_len(events.len());
            for ev in events {
                e.u64(ev.at);
                enc_fault_change(e, ev.change);
            }
            e.u64(cursor as u64);
            e.u64(lag);
            e.seq_len(pending.len());
            for b in pending {
                e.u64(b.event_at);
                e.u64(b.apply_at);
                e.seq_len(b.changes.len());
                for &c in &b.changes {
                    enc_fault_change(e, c);
                }
            }
            e.u64(reconv.0);
            e.u64(reconv.1);
            e.u64(reconv.2);
            let (keys, stats) = routing.engine_cache_parts();
            e.seq_len(keys.len());
            for k in keys {
                e.u64(k);
            }
            e.u64(stats.hits);
            e.u64(stats.misses);
            e.u64(stats.invalidated);
        }
    }
}

fn dec_routing<R: Router>(
    d: &mut Dec<'_>,
    topo: &Topology,
    router: R,
) -> DecResult<RoutingView<R>> {
    match d.u8()? {
        0 => Ok(RoutingView::plain(router)),
        1 => {
            let n = d.seq_len(13)?;
            let mut events = Vec::with_capacity(n);
            for _ in 0..n {
                events.push(FaultEvent {
                    at: d.u64()?,
                    change: dec_fault_change(d)?,
                });
            }
            let cursor = d.u64()? as usize;
            let lag = d.u64()?;
            let nb = d.seq_len(24)?;
            let mut pending = VecDeque::with_capacity(nb);
            for _ in 0..nb {
                let event_at = d.u64()?;
                let apply_at = d.u64()?;
                let nc = d.seq_len(5)?;
                let mut changes = Vec::with_capacity(nc);
                for _ in 0..nc {
                    changes.push(dec_fault_change(d)?);
                }
                pending.push_back(ViewBatch {
                    event_at,
                    apply_at,
                    changes,
                });
            }
            let reconv = (d.u64()?, d.u64()?, d.u64()?);
            let nk = d.seq_len(8)?;
            let mut keys = Vec::with_capacity(nk);
            for _ in 0..nk {
                keys.push(d.u64()?);
            }
            let stats = SelectionStats {
                hits: d.u64()?,
                misses: d.u64()?,
                invalidated: d.u64()?,
            };
            // The schedule was serialized in its already-sorted event
            // order; `scripted` sorts stably by cycle, so the round-trip
            // is the identity.
            let schedule = FaultSchedule::scripted(events);
            RoutingView::restore_scheduled(
                router, topo, schedule, cursor, lag, pending, reconv, &keys, stats,
            )
            .ok_or(SnapshotError::Corrupt("routing-view timeline inconsistent"))
        }
        _ => Err(SnapshotError::Corrupt("routing-view tag out of range")),
    }
}

// ---------------------------------------------------------------------
// FlitSim entry points
// ---------------------------------------------------------------------

impl<R: Router> FlitSim<R> {
    /// Serialize the complete simulator state into a versioned,
    /// checksummed byte stream. Taken between cycles (never mid-step),
    /// the snapshot is *crash-consistent*: restoring it and running to
    /// any horizon produces byte-identical statistics, ledgers and
    /// emitted JSON to the uninterrupted run.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut e = Enc::default();
        // Topology spec (the topology itself is rebuilt on restore).
        let spec = self.topo.spec();
        e.seq_len(spec.m().len());
        for &m in spec.m() {
            e.u32(m);
        }
        e.seq_len(spec.w().len());
        for &w in spec.w() {
            e.u32(w);
        }
        enc_config(&mut e, &self.cfg);
        enc_traffic(&mut e, &self.traffic);
        e.u8(match self.fault_policy {
            FaultPolicy::Drop => 0,
            FaultPolicy::Block => 1,
        });
        match self.retx {
            None => e.u8(0),
            Some(r) => {
                e.u8(1);
                e.u64(r.timeout);
                e.u32(r.max_retries);
            }
        }
        e.u64(self.now);
        e.u64(self.last_progress);
        e.bool(self.progress);
        e.u64(self.total_injected);
        e.u64(self.total_delivered);
        e.u64(self.total_dropped);
        e.u64(self.total_duplicate);
        e.u64(self.w_injected);
        e.u64(self.w_delivered);
        e.u64(self.w_dropped);
        e.u64(self.w_duplicate);
        e.u64(self.w_disconnected);
        e.u64(self.w_created_messages);
        e.u64(self.w_completed_messages);
        e.f64(self.w_sum_delay);
        e.u64(self.w_max_delay);
        e.seq_len(self.w_delays.len());
        for &dl in &self.w_delays {
            e.u64(dl);
        }
        e.seq_len(self.link_busy.len());
        for &b in &self.link_busy {
            e.u64(b);
        }
        e.seq_len(self.failed_out.len());
        for &f in &self.failed_out {
            e.bool(f);
        }
        e.seq_len(self.discarding.len());
        for &v in &self.discarding {
            e.opt_u32(v);
        }
        e.seq_len(self.link_mid_packet.len());
        for &v in &self.link_mid_packet {
            e.opt_u32(v);
        }
        enc_packet_slab(&mut e, &self.packets);
        enc_message_slab(&mut e, &self.messages);
        enc_sources(&mut e, &self.sources);
        enc_arbiter(&mut e, &self.arb);
        enc_ledger(&mut e, &self.ledger);
        enc_routing(&mut e, &self.routing);

        envelope::seal(&SNAPSHOT_MAGIC, SNAPSHOT_VERSION, e.bytes())
    }

    /// Restore a simulator from [`FlitSim::snapshot`] bytes. The caller
    /// supplies the router (routers are pure functions of the topology
    /// and are not serialized); everything else — including RNG stream
    /// positions, slab free lists and the lagged routing view — resumes
    /// exactly where the snapshot left it.
    ///
    /// Magic, version, length and checksum are verified *before* any
    /// payload decoding; every failure is a typed [`SnapshotError`].
    pub fn restore(router: R, bytes: &[u8]) -> Result<Self, SnapshotError> {
        let payload = envelope::open(bytes, &SNAPSHOT_MAGIC, SNAPSHOT_VERSION, u64::MAX)?;
        let mut d = Dec::new(payload);
        let nm = d.seq_len(4)?;
        let mut m = Vec::with_capacity(nm);
        for _ in 0..nm {
            m.push(d.u32()?);
        }
        let nw = d.seq_len(4)?;
        let mut w = Vec::with_capacity(nw);
        for _ in 0..nw {
            w.push(d.u32()?);
        }
        let spec =
            XgftSpec::new(&m, &w).map_err(|_| SnapshotError::Corrupt("invalid topology spec"))?;
        let topo = Topology::new(spec);
        let graph = PortGraph::new(&topo);
        let ports = graph.num_ports() as usize;

        let cfg = dec_config(&mut d)?;
        let traffic = dec_traffic(&mut d)?;
        let fault_policy = match d.u8()? {
            0 => FaultPolicy::Drop,
            1 => FaultPolicy::Block,
            _ => return Err(SnapshotError::Corrupt("fault-policy tag out of range")),
        };
        let retx = match d.u8()? {
            0 => None,
            1 => Some(RetxConfig {
                timeout: d.u64()?,
                max_retries: d.u32()?,
            }),
            _ => return Err(SnapshotError::Corrupt("retx tag out of range")),
        };
        let now = d.u64()?;
        let last_progress = d.u64()?;
        let progress = d.bool()?;
        let total_injected = d.u64()?;
        let total_delivered = d.u64()?;
        let total_dropped = d.u64()?;
        let total_duplicate = d.u64()?;
        let w_injected = d.u64()?;
        let w_delivered = d.u64()?;
        let w_dropped = d.u64()?;
        let w_duplicate = d.u64()?;
        let w_disconnected = d.u64()?;
        let w_created_messages = d.u64()?;
        let w_completed_messages = d.u64()?;
        let w_sum_delay = d.f64()?;
        let w_max_delay = d.u64()?;
        let nd = d.seq_len(8)?;
        let mut w_delays = Vec::with_capacity(nd);
        for _ in 0..nd {
            w_delays.push(d.u64()?);
        }
        let nb = d.seq_len(8)?;
        let mut link_busy = Vec::with_capacity(nb);
        for _ in 0..nb {
            link_busy.push(d.u64()?);
        }
        let nf = d.seq_len(1)?;
        let mut failed_out = Vec::with_capacity(nf);
        for _ in 0..nf {
            failed_out.push(d.bool()?);
        }
        let ndc = d.seq_len(1)?;
        let mut discarding = Vec::with_capacity(ndc);
        for _ in 0..ndc {
            discarding.push(d.opt_u32()?);
        }
        let nmp = d.seq_len(1)?;
        let mut link_mid_packet = Vec::with_capacity(nmp);
        for _ in 0..nmp {
            link_mid_packet.push(d.opt_u32()?);
        }
        let packets = dec_packet_slab(&mut d)?;
        let messages = dec_message_slab(&mut d)?;
        let sources = dec_sources(&mut d, &packets)?;
        let arb = dec_arbiter(&mut d, &graph, &packets)?;
        let ledger = dec_ledger(&mut d)?;
        let routing = dec_routing(&mut d, &topo, router)?;
        d.finish()?;

        // Cross-check the port-indexed vectors against the rebuilt
        // graph; a mismatch means the payload, though checksum-clean,
        // does not describe this topology.
        if failed_out.len() != ports
            || discarding.len() != ports
            || link_mid_packet.len() != ports
            || link_busy.len() != ports
            || sources.len() != graph.num_pns() as usize
            || (0..graph.num_pns())
                .any(|pn| sources[ix(pn)].queues.len() != graph.ports_of(pn).len())
        {
            return Err(SnapshotError::Corrupt(
                "port-indexed state does not match the topology",
            ));
        }
        let src_ready = scan_src_ready(&graph, &sources);
        let link_voq = (0..graph.num_ports())
            .map(|out| {
                link_mid_packet[ix(out)]
                    .and_then(|pkt| packets.get(pkt))
                    .map_or(0, |p| downstream_voq(&graph, out, &p.route))
            })
            .collect();

        Ok(FlitSim {
            topo,
            cfg,
            traffic,
            graph,
            now,
            arb,
            packets,
            messages,
            sources,
            path_buf: Vec::new(),
            failed_out,
            fault_policy,
            discarding,
            link_mid_packet,
            link_voq,
            src_ready,
            routing,
            retx,
            ledger,
            last_progress,
            progress,
            total_injected,
            total_delivered,
            total_dropped,
            total_duplicate,
            w_injected,
            w_delivered,
            w_dropped,
            w_duplicate,
            w_disconnected,
            w_created_messages,
            w_completed_messages,
            w_sum_delay,
            w_max_delay,
            w_delays,
            link_busy,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_rejections_are_typed() {
        assert_eq!(
            FlitSim::restore(lmpr_core::DModK, &[]).err(),
            Some(SnapshotError::TooShort)
        );
        let mut junk = vec![0u8; envelope::HEADER_LEN + 4];
        junk[..8].copy_from_slice(b"NOTASNAP");
        assert_eq!(
            FlitSim::restore(lmpr_core::DModK, &junk).err(),
            Some(SnapshotError::BadMagic)
        );
    }
}
