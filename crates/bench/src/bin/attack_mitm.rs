//! Man-in-the-middle attack simulation (Sections III-C and IV).
//!
//! Runs the checked-in `campaigns/attack_mitm.json` definition, rebuilt via
//! [`bench::campaigns::attack_campaign`] when `--backend` overrides the
//! stored substrate.

fn main() {
    bench::attack_binary_main(bench::ChannelAttackKind::ManInTheMiddle);
}
