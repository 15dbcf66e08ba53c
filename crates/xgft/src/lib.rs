//! Extended generalized fat-tree (XGFT) topology substrate.
//!
//! An `XGFT(h; m_1, …, m_h; w_1, …, w_h)` is a layered indirect network
//! with `h + 1` levels of nodes, introduced by Öhring, Ibel, Das and Kumar
//! ("On Generalized Fat Trees", IPPS 1995). Level 0 holds the processing
//! nodes; levels 1 through `h` hold switches. Each level-`i` node
//! (`0 ≤ i ≤ h-1`) has `w_{i+1}` parents and each level-`i` node
//! (`1 ≤ i ≤ h`) has `m_i` children. Almost every practical fat-tree
//! variant (m-port n-trees, k-ary n-trees, generalized fat-trees) is an
//! XGFT, which is why the limited multi-path routing paper of Mahapatra,
//! Yuan and Nienaber (IPDPS workshops 2012) — the system reproduced by
//! this workspace — is formulated on XGFTs.
//!
//! This crate provides:
//!
//! * [`XgftSpec`] — a validated parameter set plus constructors for the
//!   common equivalences (`m`-port `n`-trees, `k`-ary `n`-trees, GFTs);
//! * [`Topology`] — precomputed products, per-level node counts, node
//!   labelling (the paper's `(level, a_h, …, a_1)` tuples) and a dense
//!   enumeration of every *directed* link;
//! * shortest-path machinery: nearest-common-ancestor levels, the
//!   canonical enumeration of all `Π_{i≤κ} w_i` shortest paths of an SD
//!   pair ([`Topology::num_paths`], [`Topology::walk_path`]), and the
//!   destination-mod-k path index ([`Topology::dmodk_path`]);
//! * sub-tree cut utilities used by the optimal-load lower bound
//!   (Lemma 1 of the paper);
//! * [`BlastRadius`] — the O(1)-membership geometry of which SD pairs a
//!   changed link or switch can touch.
//!
//! The representation is *implicit*: nodes are identified by
//! `(level, rank)` pairs and digit tuples are converted on demand, so a
//! topology object for a 3456-node 24-port 3-tree occupies a few hundred
//! bytes. Hot paths (link walking) are allocation-free.
//!
//! # Example
//!
//! ```
//! use xgft::{XgftSpec, Topology, PnId};
//!
//! // The paper's Figure 3 topology: XGFT(3; 4,4,4; 1,2,4).
//! let topo = Topology::new(XgftSpec::new(&[4, 4, 4], &[1, 2, 4]).unwrap());
//! assert_eq!(topo.num_pns(), 64);
//!
//! let (s, d) = (PnId(0), PnId(63));
//! assert_eq!(topo.nca_level(s, d), 3);
//! assert_eq!(topo.num_paths(s, d), 8);
//! // The worked example in the paper: d-mod-k routes pair (0, 63) on path 7.
//! assert_eq!(topo.dmodk_path(s, d).0, 7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod blast;
mod error;
mod fault;
mod ids;
mod iter;
mod paths;
pub mod render;
mod schedule;
mod spec;
mod subtree;
mod topology;

pub use blast::BlastRadius;
pub use error::SpecError;
pub use fault::{FaultSet, SurvivorSet};
pub use ids::{DirectedLinkId, LinkDir, NodeId, PathId, PnId};
pub use paths::PathWalk;
pub use schedule::{FaultChange, FaultEvent, FaultSchedule};
pub use spec::XgftSpec;
pub use subtree::SubtreeCut;
pub use topology::{topology_by_name, LinkEndpoints, Topology};

/// Maximum supported tree height `h`.
///
/// Fixed so that per-path scratch space lives on the stack. Real
/// installations rarely exceed 4 levels; the paper evaluates 2 and 3.
pub const MAX_HEIGHT: usize = 8;
