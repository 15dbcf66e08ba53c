//! Dynamic fault timelines: links and switches that fail *and recover*
//! while a workload runs.
//!
//! A [`FaultSchedule`] generalizes the one-shot [`FaultSet`]: instead of
//! a static set sampled before the first cycle, it is a deterministic,
//! time-ordered sequence of [`FaultEvent`]s. The network state at any
//! instant `t` is obtained by replaying every event with `at <= t` onto
//! an empty [`FaultSet`] ([`FaultSchedule::state_at`]); simulators apply
//! the same events incrementally through a cursor so they never rebuild
//! the whole set mid-run.
//!
//! Two constructors cover the experiment space:
//!
//! * [`FaultSchedule::scripted`] — an explicit event list (e.g. "up-link
//!   `L` dies at cycle 4000 and is repaired at 6000"), for targeted
//!   reconvergence studies;
//! * [`FaultSchedule::poisson`] — every directed link independently
//!   alternates alive → dead → alive with exponentially distributed
//!   time-to-failure and time-to-repair, seeded and fully deterministic,
//!   for degradation-curve sweeps ("chaos" runs).

use crate::{DirectedLinkId, FaultSet, NodeId, Topology};
use lmpr_codec::splitmix;

/// One state change of the fault timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultChange {
    /// A directed link goes down.
    LinkDown(DirectedLinkId),
    /// A directed link comes back up.
    LinkUp(DirectedLinkId),
    /// A whole switch goes down (all incident links with it).
    SwitchDown(NodeId),
    /// A whole switch comes back up (all incident links with it).
    SwitchUp(NodeId),
}

impl FaultChange {
    /// Apply this change to a fault set. Switch changes need the
    /// topology to enumerate incident links.
    pub fn apply(self, topo: &Topology, set: &mut FaultSet) {
        match self {
            FaultChange::LinkDown(l) => set.fail_link(l),
            FaultChange::LinkUp(l) => set.recover_link(l),
            FaultChange::SwitchDown(n) => set.fail_switch(topo, n),
            FaultChange::SwitchUp(n) => set.recover_switch(topo, n),
        }
    }
}

/// A [`FaultChange`] stamped with the cycle it takes effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Cycle at which the change takes effect (the link/switch is in its
    /// new state for the whole of cycle `at`).
    pub at: u64,
    /// What changes.
    pub change: FaultChange,
}

/// A deterministic timeline of fail and recover events.
///
/// Events are kept sorted by `at`; events sharing a cycle apply in their
/// submission order (so a scripted `LinkDown` followed by `LinkUp` at
/// the same cycle leaves the link up). `FaultSchedule::default()` is the
/// empty timeline and reproduces fault-free behaviour exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// The empty (fault-free) timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a schedule from an explicit event list. The list is sorted
    /// by time; ties keep their given order.
    pub fn scripted(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        FaultSchedule { events }
    }

    /// Lift a one-shot [`FaultSet`] into a schedule whose failures all
    /// strike at cycle 0 and never recover — the PR-1 static fault model
    /// as a special case.
    pub fn from_fault_set(set: &FaultSet) -> Self {
        let mut events: Vec<FaultEvent> = set
            .failed_links()
            .map(|l| FaultEvent {
                at: 0,
                change: FaultChange::LinkDown(l),
            })
            .collect();
        events.extend(set.failed_switches().iter().map(|&n| FaultEvent {
            at: 0,
            change: FaultChange::SwitchDown(n),
        }));
        FaultSchedule { events }
    }

    /// Sample an alternating fail/repair renewal process per directed
    /// link: time-to-failure is exponential with rate `fail_rate`
    /// (failures per link per cycle), time-to-repair is exponential with
    /// mean `mean_repair` cycles. Events beyond `horizon` are not
    /// generated. Deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `fail_rate` is not in `[0, 1]` or `mean_repair` is not
    /// positive and finite.
    pub fn poisson(
        topo: &Topology,
        fail_rate: f64,
        mean_repair: f64,
        horizon: u64,
        seed: u64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&fail_rate),
            "failure rate must be in [0, 1] per link per cycle"
        );
        assert!(
            mean_repair > 0.0 && mean_repair.is_finite(),
            "mean repair time must be positive and finite"
        );
        let mut events = Vec::new();
        if fail_rate > 0.0 {
            for id in 0..topo.num_links() {
                let link = DirectedLinkId(id);
                // Independent, decorrelated stream per link.
                let mut state = seed ^ (0xC4A0_5CED_u64 << 32) ^ (id as u64).wrapping_mul(0x9E37);
                let mut t = exp_draw(&mut state, fail_rate);
                while t < horizon as f64 {
                    events.push(FaultEvent {
                        at: t as u64,
                        change: FaultChange::LinkDown(link),
                    });
                    t += exp_draw(&mut state, 1.0 / mean_repair);
                    if t >= horizon as f64 {
                        break;
                    }
                    events.push(FaultEvent {
                        at: t as u64,
                        change: FaultChange::LinkUp(link),
                    });
                    t += exp_draw(&mut state, fail_rate);
                }
            }
        }
        Self::scripted(events)
    }

    /// The events, sorted by time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the timeline has no events (fault-free run).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Cycle of the last event, or `None` for an empty schedule.
    pub fn last_event_at(&self) -> Option<u64> {
        self.events.last().map(|e| e.at)
    }

    /// The events with `from <= at <= through`, as a slice of the sorted
    /// timeline (both bounds inclusive; an inverted window is empty).
    ///
    /// This is the export surface for incremental consumers that feed
    /// change *batches* elsewhere instead of replaying onto a local
    /// [`FaultSet`]: a controller that already committed every event
    /// through cycle `t0` fetches `events_between(t0 + 1, t1)` and hands
    /// the batch to its selection engine, reproducing
    /// [`FaultSchedule::apply_through`] window by window.
    pub fn events_between(&self, from: u64, through: u64) -> &[FaultEvent] {
        let lo = self.events.partition_point(|e| e.at < from);
        let hi = self.events.partition_point(|e| e.at <= through);
        &self.events[lo..hi.max(lo)]
    }

    /// The fault state at cycle `t`: every event with `at <= t` replayed
    /// onto an empty set, in timeline order.
    pub fn state_at(&self, topo: &Topology, t: u64) -> FaultSet {
        let mut set = FaultSet::new();
        let mut cursor = 0;
        self.apply_through(topo, &mut set, &mut cursor, t);
        set
    }

    /// Incrementally apply every not-yet-applied event with `at <= t` to
    /// `set`, advancing `cursor` (an index into [`FaultSchedule::events`],
    /// initially 0). Returns the number of events applied. Feeding
    /// monotonically non-decreasing `t` values reproduces
    /// [`FaultSchedule::state_at`] at every step.
    pub fn apply_through(
        &self,
        topo: &Topology,
        set: &mut FaultSet,
        cursor: &mut usize,
        t: u64,
    ) -> usize {
        let start = *cursor;
        while let Some(e) = self.events.get(*cursor) {
            if e.at > t {
                break;
            }
            e.change.apply(topo, set);
            *cursor += 1;
        }
        *cursor - start
    }
}

/// Exponential draw from the SplitMix64 stream `state` (the generator
/// [`FaultSet::sample`] uses).
fn exp_draw(state: &mut u64, rate: f64) -> f64 {
    debug_assert!(rate > 0.0);
    let u = splitmix::unit_f64(splitmix::next(state));
    // Map (0, 1]: avoid ln(0).
    -(1.0 - u).ln() / rate
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PnId, XgftSpec};

    fn fig3() -> Topology {
        Topology::new(XgftSpec::new(&[4, 4, 4], &[1, 2, 4]).unwrap())
    }

    #[test]
    fn empty_schedule_is_fault_free_forever() {
        let t = fig3();
        let s = FaultSchedule::default();
        assert!(s.is_empty());
        assert_eq!(s.last_event_at(), None);
        for at in [0, 1, 1_000_000] {
            assert!(s.state_at(&t, at).is_empty());
        }
    }

    #[test]
    fn scripted_fail_then_recover() {
        let t = fig3();
        let link = t.up_link(2, 0, 0);
        let s = FaultSchedule::scripted(vec![
            FaultEvent {
                at: 600,
                change: FaultChange::LinkUp(link),
            },
            FaultEvent {
                at: 400,
                change: FaultChange::LinkDown(link),
            },
        ]);
        assert_eq!(s.events()[0].at, 400, "events are sorted by time");
        assert!(s.state_at(&t, 399).is_empty());
        assert!(s.state_at(&t, 400).is_link_failed(link));
        assert!(s.state_at(&t, 599).is_link_failed(link));
        assert!(s.state_at(&t, 600).is_empty());
        assert_eq!(s.last_event_at(), Some(600));
    }

    #[test]
    fn same_cycle_ties_apply_in_submission_order() {
        let t = fig3();
        let link = t.up_link(1, 0, 0);
        let s = FaultSchedule::scripted(vec![
            FaultEvent {
                at: 5,
                change: FaultChange::LinkDown(link),
            },
            FaultEvent {
                at: 5,
                change: FaultChange::LinkUp(link),
            },
        ]);
        assert!(s.state_at(&t, 5).is_empty());
    }

    #[test]
    fn from_fault_set_reproduces_the_static_model() {
        let t = fig3();
        let mut set = FaultSet::new();
        set.fail_link(t.up_link(2, 0, 0));
        set.fail_switch(&t, NodeId { level: 3, rank: 1 });
        let s = FaultSchedule::from_fault_set(&set);
        assert_eq!(s.state_at(&t, 0), set);
        assert_eq!(s.state_at(&t, u64::MAX), set);
    }

    #[test]
    fn prefix_property_over_random_schedules() {
        // Property: for random Poisson schedules, the state at time t
        // equals replaying exactly the event prefix with `at <= t` by
        // hand — probed at every event timestamp, one cycle either
        // side of it, and beyond the horizon. This pins the boundary
        // semantics (an event is visible at its own timestamp) against
        // both `state_at` and the incremental cursor replay.
        let t = fig3();
        for (seed, rate, repair) in [
            (1u64, 5e-5, 200.0),
            (2, 2e-4, 500.0),
            (3, 1e-3, 50.0),
            (4, 1e-3, 5_000.0),
        ] {
            let s = FaultSchedule::poisson(&t, rate, repair, 10_000, seed);
            assert!(!s.is_empty(), "seed {seed}: schedule must fire");
            let mut probes: Vec<u64> = s
                .events()
                .iter()
                .flat_map(|e| [e.at.saturating_sub(1), e.at, e.at + 1])
                .collect();
            probes.extend([0, 9_999, 10_000, 20_000]);
            probes.sort_unstable();
            probes.dedup();
            let mut live = FaultSet::new();
            let mut cursor = 0;
            for &at in &probes {
                let mut manual = FaultSet::new();
                for e in s.events().iter().filter(|e| e.at <= at) {
                    e.change.apply(&t, &mut manual);
                }
                assert_eq!(s.state_at(&t, at), manual, "seed {seed} cycle {at}");
                // The incremental cursor replay walks the same prefix.
                s.apply_through(&t, &mut live, &mut cursor, at);
                assert_eq!(live, manual, "cursor divergence, seed {seed} cycle {at}");
            }
            assert_eq!(cursor, s.events().len(), "all events consumed at the end");
        }
    }

    #[test]
    fn events_between_windows_tile_the_timeline() {
        let t = fig3();
        let s = FaultSchedule::poisson(&t, 1e-3, 200.0, 5_000, 9);
        assert!(!s.is_empty());
        // Consecutive inclusive windows concatenate to the full prefix.
        let mut seen = 0usize;
        let mut from = 0u64;
        for through in (0..6_000).step_by(250) {
            let w = s.events_between(from, through);
            for e in w {
                assert!(e.at >= from && e.at <= through);
                assert_eq!(*e, s.events()[seen], "window order == timeline order");
                seen += 1;
            }
            from = through + 1;
        }
        assert_eq!(seen, s.events().len(), "windows must tile every event");
        // Boundary inclusivity: a window ending exactly on an event's
        // cycle contains it; the next window does not repeat it.
        let at = s.events()[0].at;
        assert!(s.events_between(at, at).iter().all(|e| e.at == at));
        assert!(!s.events_between(at, at).is_empty());
        assert!(s.events_between(at + 1, at).is_empty(), "inverted window");
    }

    #[test]
    fn cursor_replay_matches_state_at() {
        let t = fig3();
        let s = FaultSchedule::poisson(&t, 1e-4, 500.0, 20_000, 42);
        assert!(!s.is_empty(), "rate 1e-4 over 20k cycles must fire");
        let mut live = FaultSet::new();
        let mut cursor = 0;
        for at in (0..21_000).step_by(137) {
            s.apply_through(&t, &mut live, &mut cursor, at);
            assert_eq!(live, s.state_at(&t, at), "divergence at cycle {at}");
        }
    }

    #[test]
    fn poisson_is_deterministic_and_rate_scaled() {
        let t = fig3();
        let a = FaultSchedule::poisson(&t, 1e-4, 500.0, 50_000, 7);
        let b = FaultSchedule::poisson(&t, 1e-4, 500.0, 50_000, 7);
        assert_eq!(a, b);
        let c = FaultSchedule::poisson(&t, 1e-4, 500.0, 50_000, 8);
        assert_ne!(a, c);
        assert!(FaultSchedule::poisson(&t, 0.0, 500.0, 50_000, 7).is_empty());
        let busier = FaultSchedule::poisson(&t, 1e-3, 500.0, 50_000, 7);
        assert!(busier.events().len() > a.events().len());
        // Every event lands inside the horizon, downs and ups alternate
        // per link, and the timeline is sorted.
        assert!(a.events().iter().all(|e| e.at < 50_000));
        assert!(a.events().windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn switch_events_toggle_whole_switches() {
        let t = fig3();
        let top = NodeId { level: 3, rank: 0 };
        let s = FaultSchedule::scripted(vec![
            FaultEvent {
                at: 10,
                change: FaultChange::SwitchDown(top),
            },
            FaultEvent {
                at: 20,
                change: FaultChange::SwitchUp(top),
            },
        ]);
        let mid = s.state_at(&t, 15);
        assert!(mid.is_switch_failed(top));
        assert_eq!(mid.num_failed_links(), 8);
        assert_eq!(mid.num_surviving(&t, PnId(0), PnId(63)), 7);
        assert!(s.state_at(&t, 20).is_empty());
    }
}
