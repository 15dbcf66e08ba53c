//! Open-loop Poisson message sources.

use crate::config::PathPolicy;
use crate::traffic_mode::TrafficMode;
use lmpr_codec::xoshiro::Xoshiro256pp;
use std::collections::VecDeque;

/// A packet queued at its source, streaming flit by flit into the
/// processing node's output buffer.
#[derive(Debug, Clone, Copy)]
pub struct StreamingPacket {
    /// Packet slab key.
    pub pkt: u32,
    /// Next flit sequence number to inject.
    pub next_seq: u16,
    /// The packet's length in flits, copied from its record when it is
    /// queued so streaming never looks the record up.
    pub len: u16,
}

/// Per-processing-node traffic source: Poisson message arrivals with
/// uniformly random destinations, and unbounded per-port packet queues
/// (open-loop injection).
#[derive(Debug, Clone)]
pub struct Source {
    rng: Xoshiro256pp,
    /// Absolute time (in cycles, fractional) of the next message
    /// arrival.
    next_arrival: f64,
    /// One FIFO of pending packets per PN up port.
    pub queues: Vec<VecDeque<StreamingPacket>>,
    /// Rotation counter for [`PathPolicy::RoundRobin`].
    rr: u64,
}

impl Source {
    /// Create a source with its own decorrelated RNG stream.
    pub fn new(seed: u64, pn: u32, ports: u32, rate: f64) -> Self {
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ (0xA5A5_0000_0000_0000 | pn as u64));
        let first = exp_sample(&mut rng, rate);
        Source {
            rng,
            next_arrival: first,
            queues: vec![VecDeque::new(); ports as usize],
            rr: 0,
        }
    }

    /// Whether a message arrives at or before `now`; advances the
    /// arrival clock when it does.
    pub fn poll_arrival(&mut self, now: u64, rate: f64) -> bool {
        if self.next_arrival <= now as f64 {
            self.next_arrival += exp_sample(&mut self.rng, rate);
            true
        } else {
            false
        }
    }

    /// Destination under a [`TrafficMode`] (`None` = this source is
    /// silent for this arrival).
    pub fn pick_destination_mode(
        &mut self,
        mode: &TrafficMode,
        self_pn: u32,
        num_pns: u32,
    ) -> Option<u32> {
        mode.pick(self_pn, num_pns, &mut self.rng)
    }

    /// Pick an index into a path set of size `len` for the next packet,
    /// honouring the policy. `per_message_choice` is the index chosen at
    /// message granularity (used by [`PathPolicy::PerMessageRandom`]).
    pub fn pick_path(
        &mut self,
        policy: PathPolicy,
        len: usize,
        per_message_choice: usize,
    ) -> usize {
        match policy {
            PathPolicy::PerPacketRandom => self.rng.index(len),
            PathPolicy::PerMessageRandom => per_message_choice,
            PathPolicy::RoundRobin => {
                let i = (self.rr % len as u64) as usize;
                self.rr += 1;
                i
            }
        }
    }

    /// Draw the message-granularity path choice.
    pub fn pick_message_path(&mut self, len: usize) -> usize {
        self.rng.index(len)
    }

    /// Total packets waiting across all port queues (for saturation
    /// diagnostics and conservation audits).
    pub fn backlog(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }
}

/// Exponential inter-arrival sample with rate `rate` events/cycle.
fn exp_sample(rng: &mut Xoshiro256pp, rate: f64) -> f64 {
    debug_assert!(rate > 0.0);
    // Map (0, 1]: avoid ln(0).
    let u = 1.0 - rng.unit_f64();
    -u.ln() / rate
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_rate_is_calibrated() {
        // Mean inter-arrival must approximate 1/rate.
        let mut src = Source::new(1, 0, 1, 0.01);
        let mut events = 0u32;
        for now in 0..200_000u64 {
            while src.poll_arrival(now, 0.01) {
                events += 1;
            }
        }
        let expected = 200_000.0 * 0.01;
        assert!(
            (f64::from(events) - expected).abs() < 0.1 * expected,
            "events {events} vs expected {expected}"
        );
    }

    #[test]
    fn round_robin_cycles() {
        let mut src = Source::new(0, 0, 1, 0.5);
        let picks: Vec<usize> = (0..6)
            .map(|_| src.pick_path(PathPolicy::RoundRobin, 3, 0))
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn per_message_policy_uses_the_message_choice() {
        let mut src = Source::new(0, 0, 1, 0.5);
        for _ in 0..5 {
            assert_eq!(src.pick_path(PathPolicy::PerMessageRandom, 4, 2), 2);
        }
    }

    #[test]
    fn per_packet_random_spreads() {
        let mut src = Source::new(0, 0, 1, 0.5);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[src.pick_path(PathPolicy::PerPacketRandom, 4, 0)] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn backlog_counts_all_queues() {
        let mut src = Source::new(0, 0, 2, 0.5);
        src.queues[0].push_back(StreamingPacket {
            pkt: 0,
            next_seq: 0,
            len: 1,
        });
        src.queues[1].push_back(StreamingPacket {
            pkt: 1,
            next_seq: 0,
            len: 1,
        });
        assert_eq!(src.backlog(), 2);
    }
}
