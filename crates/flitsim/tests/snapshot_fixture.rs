//! Format pin: an `LMPRSNAP` v1 snapshot written before the envelope
//! and the byte cursors moved into `lmpr-codec` — a resilient
//! (scheduled faults + retransmission) run of `XGFT(2; 2,2; 1,2)`
//! stopped at cycle 420, between a link failure and its reconvergence —
//! must still restore, and must re-serialize to the same bytes.

use lmpr_core::ShiftOne;
use lmpr_flitsim::FlitSim;

const FIXTURE: &[u8] = include_bytes!("fixtures/snapshot_v1.snap");

#[test]
fn committed_v1_snapshot_restores_and_reencodes_byte_identically() {
    assert_eq!(&FIXTURE[..8], b"LMPRSNAP");
    let mut sim = FlitSim::restore(ShiftOne::new(2), FIXTURE).expect("v1 fixture restores");
    assert_eq!(sim.now(), 420);
    assert_eq!(sim.snapshot(), FIXTURE);
    // The restored simulator is live, not just a byte echo.
    sim.step();
    assert_eq!(sim.now(), 421);
    assert!(sim.check_invariants().is_empty());
}
