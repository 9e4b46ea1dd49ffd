//! Intercept-and-resend attack simulation (Sections III-B and IV).
//!
//! Runs the checked-in `campaigns/attack_intercept.json` definition, rebuilt via
//! [`bench::campaigns::attack_campaign`] when `--backend` overrides the
//! stored substrate.

fn main() {
    bench::attack_binary_main(bench::ChannelAttackKind::InterceptResend);
}
