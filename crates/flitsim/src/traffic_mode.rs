//! Workload selection for the flit simulator.
//!
//! The paper's flit-level experiments use uniform random traffic only;
//! permutation and hotspot modes are provided so flit-level results can
//! be cross-validated against the flow-level analysis (a permutation
//! with flow-level maximum link load `L` saturates near `1/L` of
//! injection bandwidth at the flit level).

use crate::error::TrafficError;
use crate::util::{ix, small_u32};
use lmpr_codec::xoshiro::Xoshiro256pp;

/// How sources pick message destinations.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficMode {
    /// Every message goes to a uniformly random other node (the paper's
    /// §5 flit workload).
    Uniform,
    /// Node `i` always sends to `perm[i]`; self-mapped nodes stay
    /// silent (matches the flow-level permutation semantics).
    Permutation(Vec<u32>),
    /// With probability `fraction` a message targets a uniformly chosen
    /// hot node, otherwise a uniform other node.
    Hotspot {
        /// The hot destinations.
        hot: Vec<u32>,
        /// Fraction of traffic redirected to the hot set.
        fraction: f64,
    },
}

impl TrafficMode {
    /// Validate against a node count: malformed permutations,
    /// out-of-range hot nodes and a fraction outside `[0, 1]` are
    /// rejected with a typed error.
    pub fn validate(&self, n: u32) -> Result<(), TrafficError> {
        match self {
            TrafficMode::Uniform => {}
            TrafficMode::Permutation(p) => {
                if p.len() as u32 != n {
                    return Err(TrafficError::PermutationLength {
                        expected: n,
                        got: p.len(),
                    });
                }
                let mut seen = vec![false; n as usize];
                for &d in p {
                    if d >= n {
                        return Err(TrafficError::TargetOutOfRange {
                            target: d,
                            nodes: n,
                        });
                    }
                    if std::mem::replace(&mut seen[d as usize], true) {
                        return Err(TrafficError::NotABijection { duplicate: d });
                    }
                }
            }
            TrafficMode::Hotspot { hot, fraction } => {
                if hot.is_empty() {
                    return Err(TrafficError::EmptyHotSet);
                }
                if let Some(&h) = hot.iter().find(|&&h| h >= n) {
                    return Err(TrafficError::HotNodeOutOfRange { node: h, nodes: n });
                }
                if !(0.0..=1.0).contains(fraction) {
                    return Err(TrafficError::BadFraction(*fraction));
                }
            }
        }
        Ok(())
    }

    /// Destination for the next message from `src`, or `None` when this
    /// source does not send (self-mapped permutation entry).
    pub fn pick(&self, src: u32, n: u32, rng: &mut Xoshiro256pp) -> Option<u32> {
        match self {
            TrafficMode::Uniform => Some(uniform_other(src, n, rng)),
            TrafficMode::Permutation(p) => {
                let d = p[src as usize];
                (d != src).then_some(d)
            }
            TrafficMode::Hotspot { hot, fraction } => {
                if rng.unit_f64() < *fraction {
                    let h = hot[rng.index(hot.len())];
                    if h != src {
                        return Some(h);
                    }
                }
                Some(uniform_other(src, n, rng))
            }
        }
    }
}

fn uniform_other(src: u32, n: u32, rng: &mut Xoshiro256pp) -> u32 {
    let d = small_u32(rng.index(ix(n - 1)));
    if d >= src {
        d + 1
    } else {
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(7)
    }

    #[test]
    fn uniform_covers_everyone_but_self() {
        let mut r = rng();
        let mut seen = [false; 8];
        for _ in 0..200 {
            let d = TrafficMode::Uniform.pick(3, 8, &mut r).unwrap();
            seen[d as usize] = true;
        }
        assert_eq!(seen, [true, true, true, false, true, true, true, true]);
    }

    #[test]
    fn permutation_is_fixed_and_silent_on_self() {
        let mode = TrafficMode::Permutation(vec![1, 0, 2, 3]);
        assert_eq!(mode.validate(4), Ok(()));
        let mut r = rng();
        assert_eq!(mode.pick(0, 4, &mut r), Some(1));
        assert_eq!(mode.pick(1, 4, &mut r), Some(0));
        assert_eq!(mode.pick(2, 4, &mut r), None);
    }

    #[test]
    fn hotspot_biases_toward_hot_nodes() {
        let mode = TrafficMode::Hotspot {
            hot: vec![0],
            fraction: 0.8,
        };
        assert_eq!(mode.validate(16), Ok(()));
        let mut r = rng();
        let hits = (0..1000)
            .filter(|_| mode.pick(5, 16, &mut r).unwrap() == 0)
            .count();
        assert!(hits > 600, "expected ~80% hot hits, got {hits}");
    }

    #[test]
    fn invalid_permutation_rejected() {
        let err = TrafficMode::Permutation(vec![0, 0, 1])
            .validate(3)
            .unwrap_err();
        assert_eq!(err, TrafficError::NotABijection { duplicate: 0 });
        assert!(err.to_string().contains("bijection"));
    }

    #[test]
    fn wrong_length_rejected() {
        let err = TrafficMode::Permutation(vec![0, 1])
            .validate(3)
            .unwrap_err();
        assert_eq!(
            err,
            TrafficError::PermutationLength {
                expected: 3,
                got: 2
            }
        );
        assert!(err.to_string().contains("length"));
    }

    #[test]
    fn hotspot_errors_are_typed() {
        let e = TrafficMode::Hotspot {
            hot: vec![],
            fraction: 0.5,
        }
        .validate(4);
        assert_eq!(e, Err(TrafficError::EmptyHotSet));
        let e = TrafficMode::Hotspot {
            hot: vec![9],
            fraction: 0.5,
        }
        .validate(4);
        assert_eq!(
            e,
            Err(TrafficError::HotNodeOutOfRange { node: 9, nodes: 4 })
        );
        let e = TrafficMode::Hotspot {
            hot: vec![1],
            fraction: 1.5,
        }
        .validate(4);
        assert_eq!(e, Err(TrafficError::BadFraction(1.5)));
    }
}
