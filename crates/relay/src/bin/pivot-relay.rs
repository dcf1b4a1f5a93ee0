//! The standalone relay process.
//!
//! ```text
//! pivot-relay --upstream 127.0.0.1:7000 [--listen 127.0.0.1:0]
//!             [--host rack-0] [--procid 1] [--flush-ms 200]
//! ```
//!
//! Starts a [`pivot_relay::live::RelayServer`] between downstream agents
//! (which connect to the printed listen address exactly as they would to
//! a frontend) and the upstream bus at `--upstream`, then runs until the
//! upstream link closes orderly or is lost for good.

use std::process::exit;
use std::time::Duration;

use pivot_core::ProcessInfo;
use pivot_live::bus::ConnStatus;
use pivot_relay::live::RelayServer;

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Command-line mistakes all end the same way: the reason, the usage
/// line, exit status 2.
fn usage(why: &str) -> ! {
    eprintln!(
        "pivot-relay: {why}\n\
         usage: pivot-relay --upstream HOST:PORT [--listen HOST:PORT] \
         [--host NAME] [--procid N] [--flush-ms MS]"
    );
    exit(2);
}

/// The value of numeric flag `name`, or `default` when it is absent.
fn numeric_flag(args: &[String], name: &str, default: u64) -> u64 {
    match flag(args, name) {
        None => default,
        Some(s) => s
            .parse()
            .unwrap_or_else(|_| usage(&format!("{name} takes a number, got {s:?}"))),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(upstream) = flag(&args, "--upstream") else {
        usage("--upstream is required");
    };
    let upstream = upstream
        .parse()
        .unwrap_or_else(|e| usage(&format!("bad --upstream address {upstream:?}: {e}")));
    let listen = flag(&args, "--listen").unwrap_or_else(|| "127.0.0.1:0".to_owned());
    let host = flag(&args, "--host").unwrap_or_else(|| "relay".to_owned());
    let procid = numeric_flag(&args, "--procid", 0);
    let flush_ms = numeric_flag(&args, "--flush-ms", 200);

    let info = ProcessInfo {
        host,
        procid,
        procname: "pivot-relay".to_owned(),
    };
    let relay = match RelayServer::bind(
        &listen,
        upstream,
        info,
        Duration::from_millis(flush_ms),
        pivot_live::ReconnectPolicy::new(procid),
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pivot-relay: failed to start: {e}");
            exit(1);
        }
    };
    // The line scripts parse to learn the ephemeral downstream port.
    println!("pivot-relay listening on {}", relay.addr());

    loop {
        std::thread::sleep(Duration::from_millis(100));
        match relay.status() {
            ConnStatus::Closed => {
                relay.shutdown();
                return;
            }
            ConnStatus::Lost => {
                let s = relay.stats();
                eprintln!(
                    "pivot-relay: upstream lost for good \
                     (in={} out={} tuples_in={} tuples_out={})",
                    s.reports_in, s.reports_out, s.tuples_in, s.tuples_out
                );
                relay.shutdown();
                exit(1);
            }
            _ => {}
        }
    }
}
