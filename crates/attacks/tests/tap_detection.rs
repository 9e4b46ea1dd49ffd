//! The second DI check against each channel tap of the paper's Section III,
//! run directly on transmitted pairs: intercept-and-resend (III-B),
//! man-in-the-middle (III-C) and entangle-and-measure (III-D) all cap the
//! CHSH value at the classical bound, so the protocol aborts.

use protocol::di_check::{run_di_check, DiCheckRound};
use qchannel::epr::EprPair;
use qchannel::quantum::ChannelTap;
use qchannel::taps::{
    EntangleMeasureAttack, InterceptBasis, InterceptResendAttack, ManInTheMiddleAttack,
};
use rand::SeedableRng;

#[test]
fn chsh_drops_below_classical_bound_under_interception() {
    let mut r = rand::rngs::StdRng::seed_from_u64(55);
    for basis in [
        InterceptBasis::Computational,
        InterceptBasis::Hadamard,
        InterceptBasis::Equatorial(1.1),
        InterceptBasis::RandomPerQubit,
    ] {
        let mut eve = InterceptResendAttack::new(basis);
        let mut pairs: Vec<EprPair> = (0..500).map(|_| EprPair::ideal()).collect();
        for pair in &mut pairs {
            eve.on_transmit(pair, &mut r);
        }
        let (report, _) = run_di_check(DiCheckRound::Second, &mut pairs, 2.0, &mut r);
        let s = report.chsh.unwrap();
        assert!(
            s <= 2.0 + 0.25,
            "intercept-and-resend in {basis} must cap CHSH at ~2, got {s}"
        );
    }
}

#[test]
fn chsh_under_mitm_is_classical() {
    let mut r = rand::rngs::StdRng::seed_from_u64(66);
    let mut eve = ManInTheMiddleAttack::random_computational();
    let mut pairs: Vec<EprPair> = (0..500).map(|_| EprPair::ideal()).collect();
    for pair in &mut pairs {
        eve.on_transmit(pair, &mut r);
    }
    let (report, _) = run_di_check(DiCheckRound::Second, &mut pairs, 2.0, &mut r);
    let s = report.chsh.unwrap();
    assert!(s <= 2.0 + 0.25, "MITM substitution caps CHSH at 2, got {s}");
    assert!(!report.passed || s <= 2.25);
    assert_eq!(eve.stolen_qubits(), 500);
}

#[test]
fn chsh_under_full_attack_cannot_violate_classical_bound() {
    let mut r = rand::rngs::StdRng::seed_from_u64(88);
    let mut eve = EntangleMeasureAttack::full();
    let mut pairs: Vec<EprPair> = (0..500).map(|_| EprPair::ideal()).collect();
    for pair in &mut pairs {
        eve.on_transmit(pair, &mut r);
    }
    let (report, _) = run_di_check(DiCheckRound::Second, &mut pairs, 2.0, &mut r);
    let s = report.chsh.unwrap();
    assert!(
        s <= 2.0 + 0.25,
        "full entangle-and-measure caps CHSH at 2, got {s}"
    );
    assert_eq!(eve.ancillas_measured(), 500);
    // Her ancilla copies a maximally mixed Z value: both bits occur.
    assert!((1..500).contains(&eve.ancilla_ones()));
}

#[test]
fn chsh_degrades_monotonically_with_attack_strength() {
    let mut r = rand::rngs::StdRng::seed_from_u64(88);
    let mut previous = f64::INFINITY;
    for strength in [0.0, 0.4, 0.8, 1.0] {
        let mut eve = EntangleMeasureAttack::with_strength(strength);
        let mut pairs: Vec<EprPair> = (0..600).map(|_| EprPair::ideal()).collect();
        for pair in &mut pairs {
            eve.on_transmit(pair, &mut r);
        }
        let (report, _) = run_di_check(DiCheckRound::Second, &mut pairs, 2.0, &mut r);
        let s = report.chsh.unwrap();
        assert!(
            s <= previous + 0.3,
            "stronger coupling must not increase CHSH (s={s} at strength {strength}, prev={previous})"
        );
        previous = s;
    }
    assert!(
        previous < 2.3,
        "full-strength attack ends near the classical bound"
    );
}
