//! Cycle-driven flit-level network simulator for XGFTs.
//!
//! Models the network the paper's §5 flit-level experiments target:
//! InfiniBand-like switches with **virtual cut-through (VCT) switching**,
//! **credit-based link-level flow control**, a **single virtual
//! channel**, per-port input and output buffers, and round-robin
//! crossbar arbitration. Traffic is **uniform random**: each processing
//! node generates messages by a Poisson process, each message addressed
//! to a uniformly random other node, split into fixed-size packets that
//! are source-routed along a path chosen from the routing scheme's path
//! set.
//!
//! # Model
//!
//! * Time advances in cycles; every link moves at most one flit per
//!   cycle; a flit needs one cycle in a buffer before it can move again
//!   (so the per-hop latency is one link cycle plus one switch cycle).
//! * VCT rule: a packet's *head* flit may enter an output buffer (or
//!   cross a link) only when the target buffer has room for the whole
//!   packet; body flits then stream behind it one per cycle. Once an
//!   output port is granted to a packet it stays granted until the tail
//!   flit passes (packet-atomic switching, as in real VCT switches).
//! * Credits: each output port tracks the free space of the downstream
//!   input buffer; credits return as the downstream buffer drains
//!   (return latency 0 — a simplification that shifts absolute delays
//!   slightly but preserves all relative comparisons).
//! * Open-loop injection: source queues are unbounded, so offered loads
//!   beyond saturation show the classic throughput collapse / delay
//!   blow-up ("tree saturation") the paper discusses.
//!
//! # Metrics
//!
//! [`SimStats`] reports accepted throughput (flits/node/cycle, i.e. the
//! fraction of injection bandwidth delivered) and average message delay
//! (creation to last-flit delivery) over a measurement window following
//! a warm-up phase — the two quantities plotted in Table 1 and Figure 5
//! of the paper. [`sweep::run_sweep`] drives a whole offered-load sweep,
//! one simulator per load point, across worker threads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arbiter;
mod config;
mod engine;
mod error;
mod inject;
mod monitor;
mod network;
mod packet;
mod resilience;
mod routing_view;
mod sim;
mod stats;
pub mod sweep;
mod traffic_mode;
mod util;

pub use config::{FaultPolicy, PathPolicy, ResilienceConfig, RetxConfig, SimConfig};
pub use error::{ConfigError, DeadlockReport, SimError, TrafficError};
pub use monitor::{check_progress, ConservationLedger};
pub use network::PortGraph;
pub use resilience::{DropCause, XferState};
pub use sim::FlitSim;
pub use stats::{saturation_throughput, LoadPoint, SimStats};
pub use sweep::{load_grid, run_sweep, run_sweep_with_preflight, SweepError};
pub use traffic_mode::TrafficMode;
