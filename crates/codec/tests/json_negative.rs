//! Negative-path hardening for `lmpr_codec::json`.
//!
//! The routing-controller daemon feeds socket frames straight into this
//! parser, so every malformed input must come back as a typed
//! [`ParseError`] — truncations, duplicate keys, non-UTF-8 bytes, depth
//! bombs, and arbitrary byte mutations of valid documents must never
//! panic and never loop.
//!
//! [`ParseError`]: lmpr_codec::json::ParseError

use lmpr_codec::json::{parse, parse_bytes};
use lmpr_codec::splitmix::next as splitmix64;

/// A representative valid document exercising every value shape the
/// writers emit: nested objects/arrays, escapes, exponent numbers.
const SEED_DOC: &str = r#"{
  "version": 3,
  "quick": false,
  "label": "sweep-r0-s1 \"quoted\" é\n",
  "rates": [5e-5, -1.5e-3, 0.3437152777777778, 0],
  "cells": [
    {"id": "a", "seeds": [{"seed": 0, "thru": "0.25"}], "aux": null},
    {"id": "b", "seeds": [], "aux": true}
  ]
}"#;

#[test]
fn every_truncation_of_a_valid_document_is_a_typed_error() {
    assert!(parse(SEED_DOC).is_ok(), "seed document must be valid");
    for cut in 0..SEED_DOC.len() {
        if !SEED_DOC.is_char_boundary(cut) {
            continue;
        }
        let prefix = &SEED_DOC[..cut];
        // Every proper prefix is malformed (the document has no valid
        // proper prefix: it opens with '{' and only closes at the end),
        // and must fail with a structured error rather than panicking.
        let e = parse(prefix).expect_err("truncated document accepted");
        assert!(e.offset <= prefix.len(), "offset {} past input", e.offset);
        assert!(!e.message.is_empty());
    }
    // Byte-level truncations (possibly splitting a UTF-8 sequence) go
    // through the bytes entry point.
    let bytes = SEED_DOC.as_bytes();
    for cut in 0..bytes.len() {
        assert!(
            parse_bytes(&bytes[..cut]).is_err(),
            "byte truncation at {cut} accepted"
        );
    }
}

#[test]
fn mutated_documents_never_panic_and_errors_stay_in_bounds() {
    let mut rng = 0x6a09_e667_f3bc_c908_u64;
    let seed = SEED_DOC.as_bytes();
    let mut accepted = 0u32;
    for _ in 0..4000 {
        let mut doc = seed.to_vec();
        // 1-4 point mutations: overwrite, insert, or delete a byte.
        let edits = 1 + (splitmix64(&mut rng) % 4) as usize;
        for _ in 0..edits {
            let at = (splitmix64(&mut rng) as usize) % doc.len();
            match splitmix64(&mut rng) % 3 {
                0 => doc[at] = (splitmix64(&mut rng) & 0xFF) as u8,
                1 => doc.insert(at, (splitmix64(&mut rng) & 0xFF) as u8),
                _ => {
                    doc.remove(at);
                }
            }
        }
        match parse_bytes(&doc) {
            Ok(_) => accepted += 1, // some mutations stay valid JSON
            Err(e) => {
                assert!(
                    e.offset <= doc.len(),
                    "error offset {} past {}-byte input",
                    e.offset,
                    doc.len()
                );
                assert!(!e.message.is_empty());
            }
        }
    }
    // Sanity: the loop actually explored both outcomes.
    assert!(accepted > 0, "no mutation survived — mutator too harsh?");
    assert!(accepted < 4000, "every mutation survived — mutator inert?");
}

#[test]
fn duplicate_keys_are_rejected_at_any_nesting_level() {
    for bad in [
        r#"{"x": 1, "x": 2}"#,
        r#"{"outer": {"x": 1, "x": 2}}"#,
        r#"[{"x": 1, "x": 2}]"#,
        r#"{"a": 1, "b": [{"c": 0, "c": 1}]}"#,
    ] {
        let e = parse(bad).expect_err("duplicate key accepted");
        assert_eq!(e.message, "duplicate object key", "for {bad}");
    }
}

#[test]
fn non_utf8_payloads_are_typed_errors_not_panics() {
    // Invalid at byte 0, mid-document, and inside a string literal.
    let cases: &[(&[u8], usize)] = &[
        (&[0xFF, 0xFE], 0),
        (b"{\"k\": \xC3}", 6),
        (b"[1, 2, \x80]", 7),
        (b"{\"s\": \"ab\xF0\x28\"}", 9),
    ];
    for &(bytes, offset) in cases {
        let e = parse_bytes(bytes).expect_err("accepted invalid utf-8");
        assert_eq!(e.message, "invalid utf-8 in document", "for {bytes:?}");
        assert_eq!(e.offset, offset, "for {bytes:?}");
    }
}

#[test]
fn deep_nesting_fails_fast_without_exhausting_the_stack() {
    for (open, close) in [("[", "]"), ("{\"k\": ", "}")] {
        for depth in [65usize, 128, 4096, 100_000] {
            let doc = open.repeat(depth) + "0" + &close.repeat(depth);
            let e = parse(&doc).expect_err("depth bomb accepted");
            assert_eq!(e.message, "nesting too deep", "depth {depth}");
        }
    }
}
