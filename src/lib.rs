//! Limited multi-path routing on extended generalized fat-trees — the
//! facade crate.
//!
//! This crate re-exports the whole workspace behind one dependency and
//! hosts the runnable examples (`examples/`) and cross-crate integration
//! tests (`tests/`). See the individual crates for the deep
//! documentation:
//!
//! * [`topology`] (`xgft`) — XGFT construction, labelling and shortest
//!   path enumeration;
//! * [`routing`] (`lmpr-core`) — the limited multi-path heuristics
//!   (d-mod-k, shift-1, disjoint, random, UMULTI);
//! * [`traffic`] (`lmpr-traffic`) — permutations, uniform and
//!   adversarial workloads;
//! * [`flowsim`] (`lmpr-flowsim`) — link-load analysis, the optimal-load
//!   lower bound, and the confidence-interval permutation study;
//! * [`flitsim`] (`lmpr-flitsim`) — the cycle-driven virtual
//!   cut-through simulator.
//!
//! # Quickstart
//!
//! ```
//! use lmpr::prelude::*;
//!
//! // An 8-port 2-tree (32 processing nodes).
//! let topo = Topology::new(XgftSpec::m_port_n_tree(8, 2).unwrap());
//!
//! // Compare single-path d-mod-k with 4-path disjoint routing on one
//! // random permutation.
//! let tm = TrafficMatrix::permutation(&random_permutation(topo.num_pns(), 1));
//! let single = LinkLoads::accumulate(&topo, &DModK, &tm).max_load();
//! let multi = LinkLoads::accumulate(&topo, &Disjoint::new(4), &tm).max_load();
//! assert!(multi <= single);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use lmpr_core as routing;
pub use lmpr_flitsim as flitsim;
pub use lmpr_flowsim as flowsim;
pub use lmpr_traffic as traffic;
pub use xgft as topology;

/// One-stop imports for examples and downstream binaries.
pub mod prelude {
    pub use lmpr_core::{
        CachedSelection, DModK, Disjoint, DisjointStride, PathSet, RandomK, RouteError, Router,
        RouterKind, SModK, SelectionEngine, SelectionStats, ShiftOne, Umulti,
    };
    pub use lmpr_flitsim::{
        DeadlockReport, FaultPolicy, FlitSim, PathPolicy, ResilienceConfig, RetxConfig, SimConfig,
        SimError, SimStats, TrafficMode,
    };
    pub use lmpr_flowsim::{DegradedLoads, LinkLoads, PermutationStudy, StudyConfig};
    pub use lmpr_traffic::{random_permutation, TrafficMatrix};
    pub use xgft::{
        DirectedLinkId, FaultChange, FaultEvent, FaultSchedule, FaultSet, NodeId, PathId, PnId,
        Topology, XgftSpec,
    };
}
