//! The simulator shell: construction, the run loop, and statistics.
//!
//! The per-cycle pipeline stages live in [`engine`](crate::engine),
//! buffer/credit/arbitration state in [`arbiter`](crate::arbiter), the
//! lagged fault view and shared path-selection engine in
//! [`routing_view`](crate::routing_view), and the runtime invariant
//! monitors in [`monitor`](crate::monitor).

use crate::arbiter::Arbiter;
use crate::config::{FaultPolicy, ResilienceConfig, RetxConfig, SimConfig};
use crate::error::{DeadlockReport, SimError};
use crate::inject::Source;
use crate::monitor::MonitorLog;
use crate::network::PortGraph;
use crate::packet::{Message, Packet};
use crate::resilience::RetxLedger;
use crate::routing_view::RoutingView;
use crate::stats::{percentile, SimStats};
use crate::traffic_mode::TrafficMode;
use crate::util::{ix, BitSet, Slab};
use lmpr_core::{Router, SelectionStats};
use lmpr_verify::Diagnostic;
use xgft::{FaultSchedule, FaultSet, PathId, Topology};

/// A flit-level simulation of one routing scheme on one topology at one
/// offered load.
///
/// See the crate docs for the network model. Construct with
/// [`FlitSim::new`], drive with [`FlitSim::run`], or use the one-shot
/// [`FlitSim::simulate`]. For dynamic fault timelines construct with
/// [`FlitSim::with_schedule`] and drive with [`FlitSim::run_monitored`].
pub struct FlitSim<R: Router> {
    pub(crate) topo: Topology,
    pub(crate) cfg: SimConfig,
    pub(crate) traffic: TrafficMode,
    pub(crate) graph: PortGraph,
    pub(crate) now: u64,

    /// Per-port buffer, credit and arbitration state.
    pub(crate) arb: Arbiter,

    pub(crate) packets: Slab<Packet>,
    pub(crate) messages: Slab<Message>,
    pub(crate) sources: Vec<Source>,
    pub(crate) path_buf: Vec<PathId>,

    // Fault model: `failed_out[port]` marks output ports whose cable is
    // down; `fault_policy` decides whether flits reaching one are
    // discarded or jam (see [`FaultPolicy`]). Under a dynamic schedule
    // the flags track the *physical* fault state cycle by cycle.
    pub(crate) failed_out: Vec<bool>,
    pub(crate) fault_policy: FaultPolicy,
    /// Per output port: packet currently being discarded here. A packet
    /// truncated at a failed link keeps draining at the failure point —
    /// even after the cable recovers — so downstream never sees a
    /// headless packet.
    pub(crate) discarding: Vec<Option<u32>>,
    /// Per output port: packet that started crossing before the cable
    /// died. Failure takes effect at packet granularity: a packet
    /// already crossing completes, the *next* head sees the dead link.
    pub(crate) link_mid_packet: Vec<Option<u32>>,
    /// Per output port: the downstream VOQ the packet in
    /// `link_mid_packet` joins, noted when its head crossed so its body
    /// follows without consulting the packet record. Meaningful only
    /// while a packet is crossing; derived (`RT-OCCUPANCY` recomputes
    /// it from the packet's route, see [`downstream_voq`]).
    pub(crate) link_voq: Vec<u16>,
    /// The source queues holding a packet, by the port gid of the PN up
    /// port they stream into — the injection stage's worklist. Derived
    /// from `sources` (`RT-OCCUPANCY` rescans them).
    pub(crate) src_ready: BitSet,

    /// Path selection: the shared engine, plus the lagged fault
    /// timeline for schedule-driven runs.
    pub(crate) routing: RoutingView<R>,
    /// End-to-end retransmission parameters (`None` = reliability off;
    /// only [`FlitSim::with_schedule`] can turn it on).
    pub(crate) retx: Option<RetxConfig>,
    /// Transfer records and the timeout heap (all zeros/empty while
    /// reliability is off).
    pub(crate) ledger: RetxLedger,

    // No-progress watchdog state.
    pub(crate) last_progress: u64,
    pub(crate) progress: bool,

    // Lifetime counters (conservation audits).
    pub(crate) total_injected: u64,
    pub(crate) total_delivered: u64,
    pub(crate) total_dropped: u64,
    pub(crate) total_duplicate: u64,

    // Measurement-window counters.
    pub(crate) w_injected: u64,
    pub(crate) w_delivered: u64,
    pub(crate) w_dropped: u64,
    pub(crate) w_duplicate: u64,
    pub(crate) w_disconnected: u64,
    pub(crate) w_created_messages: u64,
    pub(crate) w_completed_messages: u64,
    pub(crate) w_sum_delay: f64,
    pub(crate) w_max_delay: u64,
    /// Delays of measured completed messages (percentile source).
    pub(crate) w_delays: Vec<u64>,
    /// Per-output-port busy cycles during the measurement window.
    pub(crate) link_busy: Vec<u64>,
}

/// The source-queue worklist ([`FlitSim::src_ready`]), rescanned from
/// the queues: what `RT-OCCUPANCY` compares against.
pub(crate) fn scan_src_ready(graph: &PortGraph, sources: &[Source]) -> BitSet {
    let mut ready = BitSet::new(graph.num_pn_ports());
    for port in 0..graph.num_pn_ports() {
        let queues = &sources[ix(graph.port_owner(port))].queues;
        if !queues[ix(graph.local_port(port))].is_empty() {
            ready.set(port);
        }
    }
    ready
}

/// The VOQ a packet crossing output `out` joins at the far end
/// ([`FlitSim::link_voq`]), from its route and the cable's place in the
/// tree alone — no flit of the packet need be in sight. A route has an
/// entry per node before the destination, and climbs a level per hop to
/// its apex at the middle entry, so the node at level `l` is hop `l` on
/// the way up and hop `len − l` on the way down; past the last entry is
/// the destination PN and its single ejection queue.
pub(crate) fn downstream_voq(graph: &PortGraph, out: u32, route: &[u16]) -> u16 {
    let level = |port| usize::from(graph.node(graph.port_owner(port)).level);
    let (here, there) = (level(out), level(graph.peer(out)));
    let hop = if there > here {
        Some(there)
    } else {
        route.len().checked_sub(there)
    };
    hop.and_then(|h| route.get(h)).copied().unwrap_or(0)
}

impl<R: Router> FlitSim<R> {
    /// Build a simulator with the paper's uniform random workload.
    /// Validates the configuration.
    pub fn new(topo: &Topology, router: R, cfg: SimConfig) -> Result<Self, SimError> {
        Self::with_traffic(topo, router, cfg, TrafficMode::Uniform)
    }

    /// Build a simulator with an explicit workload (permutation or
    /// hotspot traffic for cross-validation against the flow level).
    pub fn with_traffic(
        topo: &Topology,
        router: R,
        cfg: SimConfig,
        traffic: TrafficMode,
    ) -> Result<Self, SimError> {
        Self::with_faults(
            topo,
            router,
            cfg,
            traffic,
            &FaultSet::default(),
            FaultPolicy::Drop,
        )
    }

    /// Build a simulator with an explicit workload and a static fault
    /// set: output ports whose cable is in `faults` transfer nothing —
    /// their flits are discarded or jam according to `policy`. An empty
    /// fault set reproduces the fault-free simulator exactly.
    pub fn with_faults(
        topo: &Topology,
        router: R,
        cfg: SimConfig,
        traffic: TrafficMode,
        faults: &FaultSet,
        policy: FaultPolicy,
    ) -> Result<Self, SimError> {
        cfg.validate()?;
        traffic.validate(topo.num_pns())?;
        if topo.num_pns() < 2 {
            return Err(SimError::TooFewPns(topo.num_pns()));
        }
        let graph = PortGraph::new(topo);
        let ports = graph.num_ports() as usize;
        let rate = cfg.message_rate();
        let sources = (0..graph.num_pns())
            .map(|pn| Source::new(cfg.seed, pn, topo.up_ports(0), rate))
            .collect();
        let arb = Arbiter::new(&graph, cfg.buffer_flits());
        // Map each failed directed link to the output port that feeds it.
        let mut failed_out = vec![false; ports];
        for link in faults.failed_links() {
            let e = topo.endpoints(link);
            let gid = graph.port_gid(graph.node_gid(e.from), e.from_port);
            failed_out[gid as usize] = true;
        }
        Ok(FlitSim {
            topo: topo.clone(),
            cfg,
            traffic,
            now: 0,
            arb,
            packets: Slab::new(),
            messages: Slab::new(),
            sources,
            path_buf: Vec::new(),
            failed_out,
            fault_policy: policy,
            discarding: vec![None; ports],
            link_mid_packet: vec![None; ports],
            link_voq: vec![0; ports],
            src_ready: BitSet::new(graph.num_pn_ports()),
            graph,
            routing: RoutingView::plain(router),
            retx: None,
            ledger: RetxLedger::default(),
            last_progress: 0,
            progress: false,
            total_injected: 0,
            total_delivered: 0,
            total_dropped: 0,
            total_duplicate: 0,
            w_injected: 0,
            w_delivered: 0,
            w_dropped: 0,
            w_duplicate: 0,
            w_disconnected: 0,
            w_created_messages: 0,
            w_completed_messages: 0,
            w_sum_delay: 0.0,
            w_max_delay: 0,
            w_delays: Vec::new(),
            link_busy: vec![0; ports],
        })
    }

    /// Build a simulator driven by a dynamic [`FaultSchedule`]: links and
    /// switches fail *and recover* mid-run. The physical fault state
    /// changes the cycle an event occurs; path selection only reacts
    /// `res.lag()` cycles later, when the affected cached SD selections
    /// are recomputed incrementally against the updated routing view.
    ///
    /// Takes the *base* router — the simulator degrades selections
    /// itself (surviving paths topped up to `min(K, X)` in canonical
    /// order), so a [`SelectionEngine`](lmpr_core::SelectionEngine) over
    /// a fault view is neither needed nor wanted here. With `res.retx`
    /// set, every packet becomes an end-to-end transfer with delivery
    /// timeout, exponential-backoff retransmission and duplicate
    /// suppression at the sink. An empty schedule with default
    /// resilience reproduces the fault-free simulator exactly.
    pub fn with_schedule(
        topo: &Topology,
        router: R,
        cfg: SimConfig,
        traffic: TrafficMode,
        schedule: FaultSchedule,
        policy: FaultPolicy,
        res: ResilienceConfig,
    ) -> Result<Self, SimError> {
        res.validate()?;
        let mut sim = Self::with_faults(topo, router, cfg, traffic, &FaultSet::default(), policy)?;
        sim.routing = RoutingView::scheduled(sim.routing.into_router(), schedule, res.lag());
        sim.retx = res.retx;
        Ok(sim)
    }

    /// One-shot: build, run warm-up plus measurement, return stats.
    pub fn simulate(topo: &Topology, router: R, cfg: SimConfig) -> Result<SimStats, SimError> {
        FlitSim::new(topo, router, cfg)?.run()
    }

    /// Run the configured warm-up and measurement phases and return the
    /// window statistics.
    ///
    /// Errors with [`SimError::Deadlock`] when the no-progress watchdog
    /// fires: no flit moved for `cfg.watchdog_cycles` cycles while flits
    /// were in flight or backlogged (e.g. blocking faults jam every
    /// route of a flow). Under a dynamic schedule with
    /// [`FaultPolicy::Block`], size the watchdog above the longest
    /// outage — a blocked port that will recover looks exactly like a
    /// deadlock until it does.
    pub fn run(&mut self) -> Result<SimStats, SimError> {
        let end = self.cfg.horizon();
        while self.now < end {
            self.step();
            if let Some(report) = self.watchdog_fired() {
                return Err(SimError::Deadlock(report));
            }
        }
        Ok(self.stats())
    }

    /// Like [`FlitSim::run`], but every `every` cycles (and once at the
    /// end) the runtime invariant monitors run; the findings come back
    /// with the stats. Error-severity findings abort the run at the
    /// failing checkpoint (the stats snapshot is the crash scene);
    /// warnings are deduplicated per rule and never abort.
    pub fn run_monitored(&mut self, every: u64) -> Result<(SimStats, Vec<Diagnostic>), SimError> {
        let every = every.max(1);
        let end = self.cfg.horizon();
        let mut log = MonitorLog::new();
        let mut fatal = false;
        while self.now < end && !fatal {
            self.step();
            if let Some(r) = self.watchdog_fired() {
                return Err(SimError::Deadlock(r));
            }
            fatal = self.now.is_multiple_of(every) && log.absorb(self.check_invariants());
        }
        if !fatal {
            log.absorb(self.check_invariants());
        }
        Ok((self.stats(), log.into_findings()))
    }

    /// Advance one cycle. Public so tests and harnesses can single-step.
    pub fn step(&mut self) {
        self.progress = false;
        self.advance_faults();
        self.process_timeouts();
        self.eject();
        self.crossbar();
        self.link_transfer();
        self.inject();
        self.now = self.now.saturating_add(1);
        if self.progress {
            self.last_progress = self.now;
        }
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Snapshot of the window statistics (valid any time; final after
    /// [`FlitSim::run`]).
    pub fn stats(&self) -> SimStats {
        let (reconv_events, reconv_sum_lag, reconv_max_lag) = self.routing.reconv_counters();
        let mut delays = self.w_delays.clone();
        delays.sort_unstable();
        SimStats {
            offered_load: self.cfg.offered_load,
            measure_cycles: self.cfg.measure_cycles,
            num_pns: self.graph.num_pns(),
            injected_flits: self.w_injected,
            delivered_flits: self.w_delivered,
            dropped_flits: self.w_dropped,
            duplicate_flits: self.w_duplicate,
            disconnected_messages: self.w_disconnected,
            created_messages: self.w_created_messages,
            completed_messages: self.w_completed_messages,
            sum_message_delay: self.w_sum_delay,
            max_message_delay: self.w_max_delay,
            delay_p50: percentile(&delays, 0.50),
            delay_p95: percentile(&delays, 0.95),
            delay_p99: percentile(&delays, 0.99),
            final_source_backlog: self.sources.iter().map(|s| s.backlog() as u64).sum(),
            transfers_created: self.ledger.created,
            transfers_delivered: self.ledger.delivered,
            transfers_dropped: self.ledger.dropped,
            retransmitted_packets: self.ledger.retransmitted,
            reconvergence_events: reconv_events,
            mean_reconverge_cycles: if reconv_events > 0 {
                reconv_sum_lag as f64 / reconv_events as f64
            } else {
                0.0
            },
            max_reconverge_cycles: reconv_max_lag,
            routes_invalidated: self.routing.selection_stats().invalidated,
        }
    }

    /// Lifetime hit/miss/invalidation counters of the shared
    /// [`SelectionEngine`](lmpr_core::SelectionEngine) behind path
    /// selection (all zeros for plain, uncached runs).
    pub fn selection_stats(&self) -> SelectionStats {
        self.routing.selection_stats()
    }

    /// Fraction of the measurement window each directed cable (indexed
    /// by the *sending* port gid) spent transferring a flit. Only
    /// meaningful after a full run.
    pub fn link_utilization(&self) -> Vec<f64> {
        let window = self.cfg.measure_cycles.max(1) as f64;
        self.link_busy.iter().map(|&b| b as f64 / window).collect()
    }

    /// The port graph (to interpret [`FlitSim::link_utilization`]).
    pub fn graph(&self) -> &PortGraph {
        &self.graph
    }

    /// Conservation audit: every flit ever injected is either delivered
    /// (once or as a duplicate), dropped, or sitting in some buffer.
    pub fn flits_in_network(&self) -> u64 {
        self.arb.flits_in_network()
    }

    /// Lifetime injected/delivered counters (for audits).
    pub fn lifetime_counters(&self) -> (u64, u64) {
        (self.total_injected, self.total_delivered)
    }

    /// Lifetime count of flits discarded at failed links
    /// ([`FaultPolicy::Drop`]). The conservation invariant under faults
    /// is `injected = delivered + duplicate + in-network + dropped`.
    pub fn dropped_in_lifetime(&self) -> u64 {
        self.total_dropped
    }

    /// Lifetime count of flits suppressed at sinks as duplicates
    /// (end-to-end retransmission only).
    pub fn duplicates_in_lifetime(&self) -> u64 {
        self.total_duplicate
    }

    /// Packets currently queued at the sources (open-loop backlog).
    pub fn source_backlog(&self) -> u64 {
        self.sources.iter().map(|s| s.backlog() as u64).sum()
    }

    /// Snapshot for the watchdog's diagnostic report.
    pub(crate) fn deadlock_report(&self, stalled_for: u64) -> DeadlockReport {
        DeadlockReport {
            cycle: self.now,
            stalled_for,
            flits_in_network: self.flits_in_network(),
            in_flight_packets: self.packets.len(),
            blocked_ports: self.arb.blocked_ports(),
            source_backlog: self.source_backlog(),
        }
    }

    pub(crate) fn watchdog_fired(&self) -> Option<DeadlockReport> {
        if self.cfg.watchdog_cycles == 0 {
            return None;
        }
        let stalled = self.now.saturating_sub(self.last_progress);
        if stalled > self.cfg.watchdog_cycles
            && (self.flits_in_network() > 0 || self.source_backlog() > 0)
        {
            Some(self.deadlock_report(stalled))
        } else {
            None
        }
    }

    pub(crate) fn in_window(&self) -> bool {
        self.now >= self.cfg.warmup_cycles && self.now < self.cfg.horizon()
    }
}
