//! `qsdc-serve` — the multi-tenant session service daemon.
//!
//! Configuration comes from `UA_DI_QSDC_SERVE_*` environment variables
//! (see [`protocol::env_keys`]) with flag overrides:
//!
//! ```text
//! qsdc-serve [--addr HOST:PORT] [--spool DIR] [--workers N]
//!            [--quota N] [--snapshot-trials N]
//! ```
//!
//! The process serves until killed. Killing it — even with SIGKILL — is
//! safe: every accepted job lives in the spool, and the next start resumes
//! and finishes all unfinished jobs byte-identically.

use protocol::env_keys;
use serve::{Server, ServerConfig};
use std::env;
use std::path::PathBuf;
use std::process;
use std::thread;
use std::time::Duration;

fn main() {
    let config = match parse_config() {
        Ok(config) => config,
        Err(message) => {
            eprintln!("qsdc-serve: {message}");
            process::exit(2);
        }
    };
    let server = match Server::start(config) {
        Ok(server) => server,
        Err(error) => {
            eprintln!("qsdc-serve: could not start: {error}");
            process::exit(1);
        }
    };
    // Flushed line by line so wrappers (tests, scripts) can scrape the port.
    println!("qsdc-serve listening on {}", server.local_addr());
    loop {
        thread::sleep(Duration::from_secs(3600));
    }
}

fn parse_config() -> Result<ServerConfig, String> {
    let mut config = ServerConfig {
        addr: "127.0.0.1:7878".to_string(),
        ..ServerConfig::default()
    };

    if let Ok(addr) = env::var(env_keys::SERVE_ADDR) {
        config.addr = addr;
    }
    if let Ok(spool) = env::var(env_keys::SERVE_SPOOL) {
        config.spool_dir = PathBuf::from(spool);
    }
    if let Ok(workers) = env::var(env_keys::SERVE_WORKERS) {
        config.workers = parse_count(env_keys::SERVE_WORKERS, &workers)?;
    }
    if let Ok(quota) = env::var(env_keys::SERVE_QUOTA) {
        config.quota = parse_count(env_keys::SERVE_QUOTA, &quota)?;
    }
    if let Ok(trials) = env::var(env_keys::SERVE_SNAPSHOT_TRIALS) {
        config.snapshot_trials = parse_count(env_keys::SERVE_SNAPSHOT_TRIALS, &trials)?;
    }

    let mut args = env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value_for = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--addr" => config.addr = value_for("--addr")?,
            "--spool" => config.spool_dir = PathBuf::from(value_for("--spool")?),
            "--workers" => config.workers = parse_count("--workers", &value_for("--workers")?)?,
            "--quota" => config.quota = parse_count("--quota", &value_for("--quota")?)?,
            "--snapshot-trials" => {
                config.snapshot_trials =
                    parse_count("--snapshot-trials", &value_for("--snapshot-trials")?)?;
            }
            "--help" | "-h" => {
                println!(
                    "usage: qsdc-serve [--addr HOST:PORT] [--spool DIR] [--workers N] \
                     [--quota N] [--snapshot-trials N]"
                );
                process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(config)
}

fn parse_count(name: &str, value: &str) -> Result<usize, String> {
    match value.parse::<usize>() {
        Ok(parsed) if parsed > 0 => Ok(parsed),
        _ => Err(format!("{name} must be a positive integer, got {value:?}")),
    }
}
