//! Runtime invariant monitors.
//!
//! The static analyzer (`lmpr-verify`) certifies routing properties
//! before a run; these monitors certify the *running* system, firing as
//! the same structured [`Diagnostic`]s so chaos harnesses and CI can
//! gate on them uniformly:
//!
//! | Rule | Invariant |
//! |---|---|
//! | `RT-CONSERVE` | injected = delivered + duplicate + dropped + in-network, and created transfers = delivered-once + dropped-with-cause + in-flight |
//! | `RT-DUP` | duplicates can only exist under retransmission; resolved transfers never exceed created ones |
//! | `RT-PROGRESS` | flits keep moving while work is pending (online watchdog) |
//! | `RT-SELECT` | every cached live selection is duplicate-free and survives the routing view's fault state (checked in the simulator, which owns the cache) |
//! | `RT-OCCUPANCY` | every piece of derived state — crossbar request rows, the output/ejection/source worklists, in-flight VOQs, copied packet lengths — equals a recomputation from the buffers and records it is derived from |

use crate::sim::{downstream_voq, scan_src_ready, FlitSim};
use crate::util::small_u32;
use lmpr_core::Router;
use lmpr_verify::{Diagnostic, RuleId, Severity, Witness};

/// Snapshot of every counter the conservation monitors reason about.
/// Built by [`FlitSim::conservation_ledger`](crate::FlitSim::conservation_ledger);
/// all checks are pure functions of this snapshot, so they can also be
/// asserted against recorded ledgers post-hoc.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConservationLedger {
    /// Lifetime flits that left a source queue into the network.
    pub injected: u64,
    /// Lifetime flits delivered while their transfer was unresolved (or
    /// any delivery when reliability is off).
    pub delivered: u64,
    /// Lifetime flits suppressed at the sink as duplicates.
    pub duplicate: u64,
    /// Lifetime flits discarded at failed links.
    pub dropped: u64,
    /// Flits currently buffered anywhere in the network.
    pub in_network: u64,
    /// Whether end-to-end retransmission is active.
    pub retx_enabled: bool,
    /// Lifetime transfers created (0 when reliability is off).
    pub transfers_created: u64,
    /// Lifetime transfers delivered exactly once.
    pub transfers_delivered: u64,
    /// Lifetime transfers dropped with cause.
    pub transfers_dropped: u64,
    /// Transfers currently unresolved (measured from live records).
    pub transfers_in_flight: u64,
}

impl ConservationLedger {
    /// The flit-granularity conservation equation.
    pub fn flit_balance_holds(&self) -> bool {
        self.injected
            == self
                .delivered
                .wrapping_add(self.duplicate)
                .wrapping_add(self.dropped)
                .wrapping_add(self.in_network)
    }

    /// The transfer-granularity conservation equation (trivially true
    /// when reliability is off).
    pub fn transfer_balance_holds(&self) -> bool {
        self.transfers_created
            == self
                .transfers_delivered
                .wrapping_add(self.transfers_dropped)
                .wrapping_add(self.transfers_in_flight)
    }

    /// Run the conservation and duplicate-delivery monitors, appending
    /// findings to `out`.
    pub fn check(&self, out: &mut Vec<Diagnostic>) {
        if !self.flit_balance_holds() {
            out.push(Diagnostic::error(
                RuleId::RtConservation,
                format!(
                    "flit conservation broke: injected {} != delivered {} + duplicate {} \
                     + dropped {} + in-network {}",
                    self.injected, self.delivered, self.duplicate, self.dropped, self.in_network
                ),
                Witness::None,
            ));
        }
        if !self.transfer_balance_holds() {
            out.push(Diagnostic::error(
                RuleId::RtConservation,
                format!(
                    "transfer ledger lost a packet: created {} != delivered-once {} \
                     + dropped-with-cause {} + in-flight {}",
                    self.transfers_created,
                    self.transfers_delivered,
                    self.transfers_dropped,
                    self.transfers_in_flight
                ),
                Witness::None,
            ));
        }
        if !self.retx_enabled && self.duplicate > 0 {
            out.push(Diagnostic::error(
                RuleId::RtDuplicate,
                format!(
                    "{} duplicate flits reached sinks with retransmission disabled",
                    self.duplicate
                ),
                Witness::None,
            ));
        }
        if self
            .transfers_delivered
            .saturating_add(self.transfers_dropped)
            > self.transfers_created
        {
            out.push(Diagnostic::error(
                RuleId::RtDuplicate,
                format!(
                    "more transfers resolved ({} delivered + {} dropped) than created ({}): \
                     some packet was delivered or dropped twice",
                    self.transfers_delivered, self.transfers_dropped, self.transfers_created
                ),
                Witness::None,
            ));
        }
    }
}

/// Accumulator for the monitor findings of one
/// [`FlitSim::run_monitored`](crate::FlitSim::run_monitored) run.
///
/// Warnings are deduplicated per rule for the log's lifetime; errors are
/// always recorded.
#[derive(Debug, Default)]
pub(crate) struct MonitorLog {
    warned: Vec<RuleId>,
    report: Vec<Diagnostic>,
}

impl MonitorLog {
    /// An empty log.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Record a batch of findings from one checkpoint. Errors are kept
    /// verbatim; warnings only on their rule's first occurrence. Returns
    /// whether the batch contained an error (the caller's abort signal).
    pub(crate) fn absorb(&mut self, findings: Vec<Diagnostic>) -> bool {
        let mut fatal = false;
        for d in findings {
            if d.severity == Severity::Error {
                fatal = true;
                self.report.push(d);
            } else if !self.warned.contains(&d.rule) {
                self.warned.push(d.rule);
                self.report.push(d);
            }
        }
        fatal
    }

    /// Consume the log, yielding the recorded findings.
    pub(crate) fn into_findings(self) -> Vec<Diagnostic> {
        self.report
    }
}

/// The online progress monitor: warn at half the watchdog horizon, error
/// once the horizon is exceeded while work is pending. A disabled
/// watchdog (`horizon == 0`) checks nothing.
pub fn check_progress(
    stalled_for: u64,
    horizon: u64,
    work_pending: bool,
    out: &mut Vec<Diagnostic>,
) {
    if horizon == 0 || !work_pending {
        return;
    }
    if stalled_for > horizon {
        out.push(Diagnostic::error(
            RuleId::RtProgress,
            format!(
                "no flit moved for {stalled_for} cycles (watchdog horizon {horizon}) \
                 while work is pending"
            ),
            Witness::None,
        ));
    } else if stalled_for > horizon / 2 {
        out.push(Diagnostic {
            rule: RuleId::RtProgress,
            severity: Severity::Warning,
            message: format!(
                "progress stalled for {stalled_for} cycles, past half the \
                 watchdog horizon ({horizon})"
            ),
            witness: Witness::None,
        });
    }
}

impl<R: Router> FlitSim<R> {
    /// Snapshot of every counter the runtime conservation monitors
    /// reason about.
    pub fn conservation_ledger(&self) -> ConservationLedger {
        ConservationLedger {
            injected: self.total_injected,
            delivered: self.total_delivered,
            duplicate: self.total_duplicate,
            dropped: self.total_dropped,
            in_network: self.flits_in_network(),
            retx_enabled: self.retx.is_some(),
            transfers_created: self.ledger.created,
            transfers_delivered: self.ledger.delivered,
            transfers_dropped: self.ledger.dropped,
            transfers_in_flight: self.ledger.in_flight(),
        }
    }

    /// `RT-OCCUPANCY`: the first piece of derived state, if any, that
    /// disagrees with the state it is derived from — the arbiter's
    /// request rows and worklists, the source worklist, the in-flight
    /// VOQ of every cable a packet is crossing, and the per-flit and
    /// per-queued-packet copies of packet lengths.
    pub(crate) fn occupancy_error(&self) -> Option<&'static str> {
        if let Some(what) = self.arb.occupancy_error() {
            return Some(what);
        }
        if self.src_ready != scan_src_ready(&self.graph, &self.sources) {
            return Some("the source worklist disagrees with the source queues");
        }
        let stale_voq = |(out, mid): (usize, &Option<u32>)| {
            mid.and_then(|pkt| self.packets.get(pkt)).is_some_and(|p| {
                self.link_voq[out] != downstream_voq(&self.graph, small_u32(out), &p.route)
            })
        };
        if self.link_mid_packet.iter().enumerate().any(stale_voq) {
            return Some("a cable's in-flight VOQ disagrees with the crossing packet's route");
        }
        let tail_of = |pkt, seq| self.packets.get(pkt).is_none_or(|p| p.is_tail(seq));
        if self.arb.flits().any(|f| f.tail != tail_of(f.pkt, f.seq)) {
            return Some("a flit's tail flag disagrees with its packet's length");
        }
        let len_of = |pkt| self.packets.get(pkt).map(|p| p.len);
        let mut queued = self.sources.iter().flat_map(|s| s.queues.iter().flatten());
        if queued.any(|sp| Some(sp.len) != len_of(sp.pkt)) {
            return Some("a queued packet's length disagrees with its record");
        }
        None
    }

    /// Run every runtime invariant monitor against the current state:
    /// flit and transfer conservation (`RT-CONSERVE`), duplicate
    /// delivery (`RT-DUP`), online progress (`RT-PROGRESS`), and
    /// validity of every cached routing selection against the routing
    /// view's fault state (`RT-SELECT`), and agreement of the occupancy
    /// worklists and other derived state with the buffers
    /// (`RT-OCCUPANCY`). An empty result is the runtime analogue of a
    /// verification certificate.
    pub fn check_invariants(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        self.conservation_ledger().check(&mut out);
        if let Some(what) = self.occupancy_error() {
            out.push(Diagnostic::error(
                RuleId::RtOccupancy,
                format!("derived state went stale at cycle {}: {what}", self.now),
                Witness::None,
            ));
        }
        check_progress(
            self.now.saturating_sub(self.last_progress),
            self.cfg.watchdog_cycles,
            self.flits_in_network() > 0 || self.source_backlog() > 0,
            &mut out,
        );
        if self.routing.is_dynamic() {
            let view = self.routing.view_faults();
            for (s, d, sel) in self.routing.cached_selections() {
                for (i, &p) in sel.paths.iter().enumerate() {
                    if sel.paths[..i].contains(&p) {
                        out.push(Diagnostic::error(
                            RuleId::RtSelection,
                            format!(
                                "cached selection of ({}, {}) lists path {} twice",
                                s.0, d.0, p.0
                            ),
                            Witness::Path {
                                src: s,
                                dst: d,
                                path: p,
                            },
                        ));
                    }
                    if !view.path_survives(&self.topo, s, d, p) {
                        out.push(Diagnostic::error(
                            RuleId::RtSelection,
                            format!(
                                "cached selection of ({}, {}) crosses a link the routing \
                                 view knows is dead (path {})",
                                s.0, d.0, p.0
                            ),
                            Witness::Path {
                                src: s,
                                dst: d,
                                path: p,
                            },
                        ));
                    }
                }
                if sel.paths.is_empty() && view.num_surviving(&self.topo, s, d) > 0 {
                    out.push(Diagnostic::error(
                        RuleId::RtSelection,
                        format!(
                            "pair ({}, {}) cached as disconnected while paths survive \
                             in the routing view",
                            s.0, d.0
                        ),
                        Witness::Pair { src: s, dst: d },
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean() -> ConservationLedger {
        ConservationLedger {
            injected: 100,
            delivered: 60,
            duplicate: 5,
            dropped: 15,
            in_network: 20,
            retx_enabled: true,
            transfers_created: 10,
            transfers_delivered: 6,
            transfers_dropped: 1,
            transfers_in_flight: 3,
        }
    }

    #[test]
    fn clean_ledger_is_silent() {
        let mut out = Vec::new();
        clean().check(&mut out);
        assert!(out.is_empty(), "unexpected findings: {out:?}");
    }

    #[test]
    fn broken_flit_balance_fires_rt_conserve() {
        let mut l = clean();
        l.delivered -= 1;
        let mut out = Vec::new();
        l.check(&mut out);
        assert!(out
            .iter()
            .any(|d| d.rule == RuleId::RtConservation && d.severity == Severity::Error));
    }

    #[test]
    fn lost_transfer_fires_rt_conserve() {
        let mut l = clean();
        l.transfers_in_flight = 2;
        let mut out = Vec::new();
        l.check(&mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("transfer ledger"));
    }

    #[test]
    fn duplicates_without_retx_fire_rt_dup() {
        let mut l = clean();
        l.retx_enabled = false;
        let mut out = Vec::new();
        l.check(&mut out);
        assert!(out.iter().any(|d| d.rule == RuleId::RtDuplicate));
    }

    #[test]
    fn over_resolution_fires_rt_dup() {
        let mut l = clean();
        l.transfers_delivered = 12; // > created
        let mut out = Vec::new();
        l.check(&mut out);
        assert!(out
            .iter()
            .any(|d| d.rule == RuleId::RtDuplicate && d.message.contains("twice")));
    }

    /// A busy mid-run simulator: packets crossing cables, grants held.
    fn busy_sim() -> FlitSim<lmpr_core::DModK> {
        use xgft::{Topology, XgftSpec};
        let topo = Topology::new(XgftSpec::new(&[4, 4], &[1, 4]).expect("valid spec"));
        let cfg = crate::SimConfig {
            offered_load: 0.6,
            ..crate::SimConfig::default()
        };
        let mut sim = FlitSim::new(&topo, lmpr_core::DModK, cfg).expect("valid config");
        for _ in 0..600 {
            sim.step();
        }
        assert!(sim.arb.grant.iter().any(Option::is_some));
        assert!(sim.link_mid_packet.iter().any(Option::is_some));
        sim
    }

    fn occupancy_message(sim: &FlitSim<lmpr_core::DModK>) -> Option<String> {
        let mut hits = sim.check_invariants().into_iter();
        let hit = hits.find(|d| d.rule == RuleId::RtOccupancy)?;
        assert_eq!(hit.severity, Severity::Error);
        Some(hit.message)
    }

    #[test]
    fn stale_derived_state_fires_rt_occupancy() {
        let sim = busy_sim();
        assert_eq!(occupancy_message(&sim), None);

        let mut stale = busy_sim();
        let switch_port = stale.graph.ports_of(stale.graph.num_pns()).start;
        stale.arb.corrupt_in_ready(switch_port, 0);
        assert!(occupancy_message(&stale).is_some_and(|m| m.contains("request row")));

        let mut stale = busy_sim();
        stale.arb.corrupt_in_ready(0, 0);
        assert!(occupancy_message(&stale).is_some_and(|m| m.contains("ejection worklist")));

        let mut stale = busy_sim();
        let queued = (0..stale.src_ready.num_words()).any(|w| stale.src_ready.word(w) != 0);
        assert!(queued, "some source must be mid-packet at 60% load");
        stale.src_ready = crate::util::BitSet::new(stale.graph.num_pn_ports());
        assert!(occupancy_message(&stale).is_some_and(|m| m.contains("source worklist")));

        let mut stale = busy_sim();
        let crossing = stale.link_mid_packet.iter().position(Option::is_some);
        stale.link_voq[crossing.expect("asserted by busy_sim")] ^= 1;
        assert!(occupancy_message(&stale).is_some_and(|m| m.contains("in-flight VOQ")));
    }

    #[test]
    fn progress_monitor_escalates() {
        let mut out = Vec::new();
        check_progress(10, 0, true, &mut out);
        assert!(out.is_empty(), "disabled watchdog checks nothing");
        check_progress(600, 1000, false, &mut out);
        assert!(out.is_empty(), "idle network is fine");
        check_progress(600, 1000, true, &mut out);
        assert_eq!(out.last().map(|d| d.severity), Some(Severity::Warning));
        check_progress(1500, 1000, true, &mut out);
        assert_eq!(out.last().map(|d| d.severity), Some(Severity::Error));
    }
}
