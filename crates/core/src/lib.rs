//! Limited multi-path routing on extended generalized fat-trees.
//!
//! This crate implements the primary contribution of Mahapatra, Yuan and
//! Nienaber, *"Limited Multi-path Routing on Extended Generalized
//! Fat-trees"* (IPDPS workshops, 2012): path-calculation heuristics that
//! pick `K` of the `X = Π_{i≤κ} w_i` shortest paths of every
//! source-destination pair, where `K` is a resource budget knob.
//!
//! * `K = 1` recovers single-path routing;
//! * `K ≥ X` recovers unlimited multi-path routing (`UMULTI`), which is
//!   optimal for every traffic matrix (Theorem 1 of the paper);
//! * in between, the heuristics trade routing quality for realizability
//!   (e.g. InfiniBand LID budgets, see [`lid`]).
//!
//! # Routers
//!
//! | Router | Idea | Paper section |
//! |---|---|---|
//! | [`DModK`] | deterministic destination-mod-k single path | §3.3 |
//! | [`SModK`] | source-mod-k single path (baseline twin) | §3.3 |
//! | [`ShiftOne`] | `K` consecutive paths after the d-mod-k path — spreads load at the top level only | §4.2.2 |
//! | [`Disjoint`] | `K` paths chosen by a recursive level-wise shift so they fork as *low* as possible | §4.2.3 |
//! | [`DisjointStride`] | maximal-stride variant of the disjoint selection (ablation; see DESIGN.md on the garbled worked example) | §4.2.3 |
//! | [`RandomK`] | `K` distinct paths sampled uniformly per SD pair | §4.2.1 |
//! | [`Umulti`] | all `X` paths, traffic split evenly | §4.1 |
//!
//! All multi-path routers guarantee: the selected set contains
//! `min(K, X)` *distinct* valid path ids, grows monotonically in quality
//! as `K` rises, and equals the full path set once `K ≥ X`.
//!
//! # Example
//!
//! ```
//! use xgft::{Topology, XgftSpec, PnId, PathId};
//! use lmpr_core::{Router, ShiftOne, Disjoint};
//!
//! // The paper's Figure 3 topology and worked example pair (0, 63).
//! let topo = Topology::new(XgftSpec::new(&[4, 4, 4], &[1, 2, 4]).unwrap());
//! let (s, d) = (PnId(0), PnId(63));
//!
//! // shift-1 with K = 3 selects paths 7, 0, 1 (§4.2.2).
//! let set = ShiftOne::new(3).path_set(&topo, s, d);
//! assert_eq!(set.paths(), &[PathId(7), PathId(0), PathId(1)]);
//!
//! // disjoint with K = 2 selects paths 7 and 3, which fork at the
//! // level-1 switch (§4.2.3).
//! let set = Disjoint::new(2).path_set(&topo, s, d);
//! assert_eq!(set.paths(), &[PathId(7), PathId(3)]);
//! // Each carries half of the pair's traffic.
//! assert!((set.fraction() - 0.5).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod disjoint;
mod dmodk;
mod error;
pub mod forwarding;
mod kind;
pub mod lid;
mod path_set;
mod random;
mod router;
mod selection;
mod shift;
mod umulti;

pub use disjoint::{Disjoint, DisjointStride};
pub use dmodk::{DModK, SModK};
pub use error::RouteError;
pub use kind::RouterKind;
pub use path_set::PathSet;
pub use random::RandomK;
pub use router::Router;
pub use selection::{route_key, route_key_pair, CachedSelection, SelectionEngine, SelectionStats};
pub use shift::ShiftOne;
pub use umulti::Umulti;
