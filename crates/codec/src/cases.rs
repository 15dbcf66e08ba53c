//! Seeded property cases: [`run`] checks a property on `n` inputs drawn
//! from a [`CaseRng`] whose stream is a pure function of the property's
//! name, so a failure reproduces on every run. There is no shrinking.
//!
//! A case asserts with the standard macros. [`run`] catches the panic
//! and returns it as an `Err` naming the property and the case index,
//! so `run` itself never panics; under `panic = "abort"` a failing case
//! aborts instead.

use crate::{fnv, splitmix};
use std::ops::RangeInclusive;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The draws of one property: SplitMix64 seeded with the FNV-1a-64 of
/// its name.
#[derive(Debug)]
pub struct CaseRng {
    state: u64,
}

impl CaseRng {
    /// The next 64 raw bits.
    pub fn next_u64(&mut self) -> u64 {
        splitmix::next(&mut self.state)
    }

    /// Uniform in `0..n` by Lemire's multiply-shift (`0` when `n == 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `lo..=hi`; the full `0..=u64::MAX` takes a raw draw.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range(&mut self, range: RangeInclusive<u64>) -> u64 {
        let (lo, hi) = range.into_inner();
        assert!(lo <= hi, "empty range {lo}..={hi}");
        match (hi - lo).checked_add(1) {
            Some(span) => lo + self.below(span),
            None => self.next_u64(),
        }
    }
}

/// A case whose input falls outside the property's domain: it is
/// drawn again and does not count towards `n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rejected;

/// Reject the current case unless `cond` holds: `assume(s != d)?`.
pub fn assume(cond: bool) -> Result<(), Rejected> {
    if cond {
        Ok(())
    } else {
        Err(Rejected)
    }
}

/// Check `case` on `n` accepted inputs drawn from one [`CaseRng`]
/// seeded by `name` (the property's function name).
///
/// Fails on the first case that panics, with its message and its index
/// (the number of cases accepted before it), or once `max(16·n, 64)`
/// attempts have been made without `n` accepted.
pub fn run<F>(name: &str, n: u32, mut case: F) -> Result<(), String>
where
    F: FnMut(&mut CaseRng) -> Result<(), Rejected>,
{
    let mut rng = CaseRng {
        state: fnv::fnv1a64(name.as_bytes()),
    };
    let budget = n.saturating_mul(16).max(64);
    let (mut passed, mut attempts) = (0, 0);
    while passed < n {
        if attempts == budget {
            return Err(format!(
                "property `{name}`: too many rejected cases ({passed} passed of {n} wanted)"
            ));
        }
        attempts += 1;
        match catch_unwind(AssertUnwindSafe(|| case(&mut rng))) {
            Ok(Ok(())) => passed += 1,
            Ok(Err(Rejected)) => {}
            Err(payload) => {
                let message = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("(non-string panic)");
                return Err(format!(
                    "property `{name}` failed at case {passed}: {message}"
                ));
            }
        }
    }
    Ok(())
}
