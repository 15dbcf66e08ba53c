//! The seeded-case helper: its stream, its case count and its failure
//! messages.

use lmpr_codec::cases::{self, assume};

#[test]
fn first_draws_are_pinned() {
    // The stream every property has drawn since before the helper
    // existed: SplitMix64 from the FNV-1a of the name, Lemire ranges,
    // and a raw draw for the full `0..=u64::MAX`.
    let mut got = Vec::new();
    cases::run("survivors_equal_the_exhaustive_walk", 1, |rng| {
        got = vec![
            rng.range(1..=4),
            rng.range(0..=u64::MAX),
            rng.below(10),
            rng.next_u64(),
            rng.range(3..=40),
            rng.below(u64::MAX),
        ];
        Ok(())
    })
    .unwrap();
    assert_eq!(
        got,
        [
            3,
            0x76b4_f4a1_7614_898e,
            5,
            0x9982_aabd_f01f_593f,
            28,
            0x785d_4849_405c_0e6b,
        ]
    );
}

#[test]
fn rejected_cases_do_not_count() {
    let (mut attempts, mut accepted) = (0, 0);
    cases::run("rejected_cases_do_not_count", 50, |rng| {
        attempts += 1;
        assume(rng.below(2) == 0)?;
        accepted += 1;
        Ok(())
    })
    .unwrap();
    assert_eq!(accepted, 50);
    assert!(attempts > 50, "{attempts} attempts for 50 accepted cases");
}

#[test]
fn an_exhausted_budget_names_the_property() {
    let mut attempts = 0;
    let err = cases::run("never_in_domain", 10, |_| {
        attempts += 1;
        assume(false)
    })
    .unwrap_err();
    assert_eq!(attempts, 160, "16 attempts per wanted case");
    assert_eq!(
        err,
        "property `never_in_domain`: too many rejected cases (0 passed of 10 wanted)"
    );
    // Small properties still get 64 attempts.
    let mut attempts = 0;
    cases::run("never_in_domain", 2, |_| {
        attempts += 1;
        assume(false)
    })
    .unwrap_err();
    assert_eq!(attempts, 64);
}

#[test]
fn a_failing_case_reports_its_index() {
    // Cases 0, 1 and 2 pass, one rejected attempt does not count, and
    // the fourth accepted-or-failed case fails: it is case 3.
    let mut attempt = 0;
    let err = cases::run("fails_late", 10, |_| {
        attempt += 1;
        assume(attempt != 2)?;
        assert!(attempt < 5, "attempt {attempt} is too late");
        Ok(())
    })
    .unwrap_err();
    assert_eq!(
        err,
        "property `fails_late` failed at case 3: attempt 5 is too late"
    );
}
