//! The sweep-results service CLI: run, query, and stop a
//! `wl_harness::service` server (see `docs/service.md`). The server
//! stores and shares results; it never simulates. A point it lacks comes
//! back unresolved, and the client runs it and puts it back.
//!
//! ```text
//! # Serve a store on a unix socket (or --tcp 127.0.0.1:7171):
//! sweep_serve --socket /tmp/wl.sock --store sweeps.wls
//!
//! # Point the paper report (or any cached sweep) at it:
//! WL_SWEEP_SERVICE=unix:/tmp/wl.sock cargo run --release -p bench --bin paper_report -- agreement
//!
//! # Query / stop a running server:
//! sweep_serve --stats unix:/tmp/wl.sock
//! sweep_serve --shutdown unix:/tmp/wl.sock
//! ```
//!
//! `--crash-after-batches N` is the fault-injection knob the CI
//! service-smoke uses: the server `abort()`s (a `kill -9` stand-in)
//! right after its Nth put-batch checkpoint, *before* responding —
//! clients observe the death and carry on locally, and a restarted
//! server serves the checkpointed prefix.

use std::path::PathBuf;
use wl_harness::{serve, ServeConfig, ServiceAddr, ServiceClient};

fn usage() -> ! {
    eprintln!(
        "usage: sweep_serve --socket <path> | --tcp <addr> --store <file> \
         [--crash-after-batches <n>]\n\
       \x20      sweep_serve --stats <spec> | --shutdown <spec>   (spec: unix:<path> | tcp:<addr>)"
    );
    std::process::exit(2);
}

fn parse_spec(s: &str) -> ServiceAddr {
    ServiceAddr::parse(s).unwrap_or_else(|| {
        eprintln!("not a service address: {s:?} (unix:<path> | tcp:<addr>)");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr: Option<ServiceAddr> = None;
    let mut store: Option<PathBuf> = None;
    let mut crash_after_batches = None;
    let mut stats_spec: Option<ServiceAddr> = None;
    let mut shutdown_spec: Option<ServiceAddr> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut val = || it.next().cloned().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--socket" => addr = Some(parse_spec(&format!("unix:{}", val()))),
            "--tcp" => addr = Some(ServiceAddr::Tcp(val())),
            "--store" => store = Some(PathBuf::from(val())),
            "--crash-after-batches" => {
                crash_after_batches = Some(val().parse().unwrap_or_else(|_| usage()))
            }
            "--stats" => stats_spec = Some(parse_spec(&val())),
            "--shutdown" => shutdown_spec = Some(parse_spec(&val())),
            _ => usage(),
        }
    }
    if let Some(spec) = stats_spec {
        let stats = ServiceClient::new(spec)
            .stats()
            .unwrap_or_else(|e| fail(&format!("stats request failed: {e}")));
        println!(
            "service stats: {} records, {} warm hits, {} simulated, {} puts, {} requests",
            stats.records, stats.warm_hits, stats.simulated, stats.puts, stats.requests
        );
        return;
    }
    if let Some(spec) = shutdown_spec {
        ServiceClient::new(spec)
            .shutdown()
            .unwrap_or_else(|e| fail(&format!("shutdown request failed: {e}")));
        println!("service shutdown requested");
        return;
    }

    let (Some(addr), Some(store)) = (addr, store) else {
        usage();
    };
    let mut cfg = ServeConfig::new(addr, store);
    cfg.crash_after_batches = crash_after_batches;
    let report = serve(&cfg, |resolved| {
        // The ready line doubles as the machine-readable handshake:
        // scripts wait for it (or for the socket file) before
        // connecting, and parse the resolved address when binding
        // ephemeral TCP ports.
        println!("sweep service: ready on {resolved}");
    })
    .unwrap_or_else(|e| fail(&format!("serve failed: {e}")));
    println!(
        "sweep service: stopped; {} records, {} warm hits, {} simulated, {} puts, {} requests",
        report.stats.records,
        report.stats.warm_hits,
        report.stats.simulated,
        report.stats.puts,
        report.stats.requests
    );
}

fn fail(msg: &str) -> ! {
    eprintln!("sweep_serve: {msg}");
    std::process::exit(1);
}
