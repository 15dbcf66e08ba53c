//! The workspace's one codec: every byte that reaches a result
//! document, a controller checkpoint or the controller's socket is
//! produced — and every such byte read back is validated — here.
//!
//! * [`json`] — the strict JSON reader (typed errors on any input,
//!   required-field accessors) and the one streaming writer every
//!   document, certificate and wire frame is laid out by.
//! * [`envelope`] — `magic · version · length · FNV-1a-64 · payload`
//!   sealing and opening, plus the little-endian [`envelope::Enc`] /
//!   [`envelope::Dec`] payload cursors. Users own their magic, version
//!   and payload bound; the header checks are written once.
//! * [`fnv`] — FNV-1a-64, one-shot and incremental.
//! * [`splitmix`] — the SplitMix64 finaliser and stream step.
//! * [`xoshiro`] — the xoshiro256++ generator behind every full random
//!   stream (path samples, permutations, flit arrivals).
//! * [`cases`] — seeded property cases for the workspace's tests: a
//!   SplitMix64 stream seeded by the FNV-1a of the property's name.
//! * [`par`] — the one ordered fan-out: independent items on scoped
//!   threads, results in item order at any worker count. It lives here
//!   because this is the one leaf every multi-threaded sampler and audit
//!   already depends on.
//!
//! The crate has no dependencies and never panics on input: it parses
//! untrusted socket bytes for `lmpr-ctld`.

#![forbid(unsafe_code)]

pub mod cases;
pub mod envelope;
pub mod fnv;
pub mod json;
pub mod par;
pub mod splitmix;
pub mod xoshiro;
