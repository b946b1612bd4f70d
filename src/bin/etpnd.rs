//! `etpnd` — the long-lived ETPN design-verification service.
//!
//! ```text
//! etpnd [--addr HOST:PORT] [--workers N] [--queue N]
//!       [--deadline-ms N] [--max-deadline-ms N]
//!       [--data DIR] [--stats-json FILE]
//!       [--breaker-threshold N] [--breaker-cooldown-ms N]
//!       [--breaker-probe-timeout-ms N]
//!       [--retries N] [--snapshot-every N] [--allow-chaos]
//!       [--no-tracing] [--no-access-log] [--debug-ring N]
//!       [--slow-trace-ms N]
//! ```
//!
//! The server prints its bound address on stdout (`listening on …`) once
//! live, serves until `SIGTERM`/`SIGINT`, then drains gracefully: the
//! listener closes, every admitted request is answered, the shared cache
//! is snapshotted to its journal and both journals are synced. With
//! `--stats-json FILE` the final observability registry is written there
//! on exit.
//!
//! Endpoints and the error taxonomy are documented in the README's
//! `etpnd` section; `etpnc remote --addr …` is the matching CLI client.

use std::process::ExitCode;
use std::time::Duration;

use etpn::serve::{server, signal, BreakerConfig, ServerConfig};

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    match flag_value(args, flag) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|e| format!("{flag}: {e}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "etpnd: ETPN design-verification service\n\n\
             usage: etpnd [--addr HOST:PORT] [--workers N] [--queue N]\n\
             \x20             [--deadline-ms N] [--max-deadline-ms N]\n\
             \x20             [--data DIR] [--stats-json FILE]\n\
             \x20             [--breaker-threshold N] [--breaker-cooldown-ms N]\n\
             \x20             [--breaker-probe-timeout-ms N]\n\
             \x20             [--retries N] [--snapshot-every N] [--allow-chaos]\n\
             \x20             [--no-tracing] [--no-access-log] [--debug-ring N]\n\
             \x20             [--slow-trace-ms N]\n\n\
             Serves until SIGTERM/SIGINT, then drains gracefully.\n\
             Every response carries X-Etpn-Trace-Id; recent requests are\n\
             inspectable live at GET /v1/debug/requests and their span\n\
             trees at GET /v1/debug/trace/<id>."
        );
        return ExitCode::SUCCESS;
    }
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("etpnd: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let defaults = ServerConfig::default();
    let cfg = ServerConfig {
        addr: flag_value(args, "--addr")
            .unwrap_or("127.0.0.1:7414")
            .to_string(),
        workers: parse_flag(args, "--workers", defaults.workers)?,
        queue_depth: parse_flag(args, "--queue", defaults.queue_depth)?,
        default_deadline: Duration::from_millis(parse_flag(
            args,
            "--deadline-ms",
            defaults.default_deadline.as_millis() as u64,
        )?),
        max_deadline: Duration::from_millis(parse_flag(
            args,
            "--max-deadline-ms",
            defaults.max_deadline.as_millis() as u64,
        )?),
        data_dir: flag_value(args, "--data").map(std::path::PathBuf::from),
        breaker: BreakerConfig {
            threshold: parse_flag(args, "--breaker-threshold", 3u32)?,
            cooldown: Duration::from_millis(parse_flag(args, "--breaker-cooldown-ms", 5_000u64)?),
            probe_timeout: Duration::from_millis(parse_flag(
                args,
                "--breaker-probe-timeout-ms",
                60_000u64,
            )?),
        },
        retry: defaults
            .retry
            .with_max_retries(parse_flag(args, "--retries", 2u64)?),
        cov_shed_depth: parse_flag(args, "--cov-shed-depth", defaults.cov_shed_depth)?,
        snapshot_every: parse_flag(args, "--snapshot-every", defaults.snapshot_every)?,
        allow_chaos: args.iter().any(|a| a == "--allow-chaos"),
        tracing: !args.iter().any(|a| a == "--no-tracing"),
        // The standalone daemon logs each request by default (the library
        // default stays quiet for embedded/test servers).
        access_log: !args.iter().any(|a| a == "--no-access-log"),
        debug_ring: parse_flag(args, "--debug-ring", defaults.debug_ring)?,
        slow_floor: Duration::from_millis(parse_flag(
            args,
            "--slow-trace-ms",
            defaults.slow_floor.as_millis() as u64,
        )?),
        ..defaults
    };
    let stats_path = flag_value(args, "--stats-json").map(std::path::PathBuf::from);

    // Installed before the readiness line (`run_until_term` installs it
    // too), so a supervisor's SIGTERM right after that line is never fatal.
    signal::install_term_handler();
    let handle = server::start(cfg).map_err(|e| format!("bind failed: {e}"))?;
    println!("listening on {}", handle.addr);
    // Ensure the line is visible to process supervisors piping stdout.
    use std::io::Write;
    let _ = std::io::stdout().flush();

    // Blocks until SIGTERM/SIGINT, then drains: stop accepting, serve the
    // admitted queue, snapshot + sync journals. The returned export covers
    // the complete life of the process, including the drain.
    let stats = handle.run_until_term();
    if let Some(path) = stats_path {
        std::fs::write(&path, stats).map_err(|e| format!("writing stats: {e}"))?;
        eprintln!("etpnd: wrote stats to {}", path.display());
    }
    eprintln!("etpnd: drained, exiting");
    Ok(ExitCode::SUCCESS)
}
