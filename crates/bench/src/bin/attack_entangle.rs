//! Entangle-and-measure attack simulation (Sections III-D and IV).
//!
//! Runs the checked-in `campaigns/attack_entangle.json` definition, rebuilt via
//! [`bench::campaigns::attack_campaign`] when `--backend` overrides the
//! stored substrate.

fn main() {
    bench::attack_binary_main(bench::ChannelAttackKind::EntangleMeasure);
}
