//! Information-leakage audit (Section III-E): inspects the public classical transcripts of
//! many honest sessions and reports what an eavesdropper could learn from them.

fn main() {
    bench::reject_args();
    bench::announce_parallelism();
    let audit = bench::leakage_experiment(40, 2024);
    println!("# Information-leakage audit of the classical channel\n");
    println!("transcripts audited       : {}", audit.transcripts);
    println!("classical messages        : {}", audit.messages);
    println!("unexpected message kinds  : {:?}", audit.unexpected_kinds);
    println!(
        "announced Bell results    : {}",
        audit.announced_bell_results
    );
    println!(
        "announced distribution    : {:?} (uniform = [0.25, 0.25, 0.25, 0.25])",
        audit.bell_result_distribution
    );
    println!(
        "distribution bias (TV)    : {:.4}",
        audit.bell_distribution_bias()
    );
    println!(
        "I(announced ; id_B)       : {:.4} bits (paper: Eve gains no information)",
        audit.mutual_information_with_id_b.unwrap_or(0.0)
    );
    println!(
        "\nstructurally clean: {} — only whitelisted announcement kinds ever cross the channel.",
        audit.structurally_clean()
    );
}
