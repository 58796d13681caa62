//! End-to-end tests of the sweep-results service, with a real server
//! subprocess: this test binary re-enters itself as the server
//! (`argv[1] == "--serve"`), so `harness = false` in the manifest.
//!
//! Pinned here (and mirrored by the CI `service-smoke` job):
//!
//! 1. a cached sweep pointed at a server via `WL_SWEEP_SERVICE` runs
//!    with **zero local simulations** — cold (the server simulates) and
//!    warm (the server's in-RAM index answers) — and the warm pass adds
//!    zero server-side simulations too;
//! 2. a server killed mid-load (hard abort right after its first
//!    miss-batch checkpoint, before responding) leaves a store a
//!    restarted server loads and serves in full, the interrupted client
//!    falls back to local simulation and still completes, and the final
//!    server store is **byte-identical** to a 1-process local-store run;
//! 3. two clients sweeping the same cold grid concurrently converge to
//!    that same byte-identical store;
//! 4. a client pointed at a dead address degrades to a plain local
//!    sweep — same outcomes, no error;
//! 5. a warm server under load — 8 concurrent clients, each through the
//!    `WL_SWEEP_SERVICE` env knob with `WL_SWEEP_EXPECT_MISSES=0`
//!    semantics held (zero local misses per client) — answers everything
//!    from its in-RAM index: server stats report zero simulations;
//! 6. a *sharded* cached sweep never consults the service, even with
//!    `WL_SWEEP_SERVICE` naming a live server: the server sees no
//!    request and the client simulates every point it owns.

use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::time::{Duration, Instant};
use wl_core::Params;
use wl_harness::{
    derive_seed, Capture, DelayKind, Maintenance, ScenarioSpec, ServiceAddr, ServiceClient,
    ServiceStats, Shard, StoreFormat, SweepCache, SweepOutcome, SweepRequest, SweepStore,
};
use wl_time::RealTime;

const GRID: usize = 12;

fn grid() -> Vec<ScenarioSpec> {
    let params = Params::auto(4, 1, 1e-6, 0.010, 0.001).unwrap();
    let delays = [
        DelayKind::Constant,
        DelayKind::Uniform,
        DelayKind::AdversarialSplit,
    ];
    (0..GRID)
        .map(|i| {
            ScenarioSpec::new(params.clone())
                .seed(derive_seed(0x5EC_51DE, i as u64))
                .delay(delays[i % 3])
                .t_end(RealTime::from_secs(1.5))
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("--serve") {
        serve_main(&args[2..]);
        return;
    }

    test_served_sweep_runs_zero_local_simulations();
    test_killed_server_store_is_recoverable_and_byte_identical();
    test_concurrent_clients_converge_to_reference_bytes();
    test_dead_service_degrades_to_local_sweep();
    test_warm_server_under_load_simulates_nothing();
    test_sharded_sweep_never_consults_the_service();
    println!("service_process: all 6 tests passed");
}

// ---------------------------------------------------------------------------
// Server mode.
// ---------------------------------------------------------------------------

/// `--serve --socket PATH --store FILE [--crash-after-batches N]`
fn serve_main(args: &[String]) {
    let mut it = args.iter();
    let mut socket = None;
    let mut store = None;
    let mut crash_after_batches = None;
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--socket" => socket = it.next().cloned(),
            "--store" => store = it.next().cloned(),
            "--crash-after-batches" => {
                crash_after_batches = Some(it.next().unwrap().parse().unwrap())
            }
            other => panic!("unknown serve flag {other}"),
        }
    }
    let cfg = wl_harness::ServeConfig {
        addr: ServiceAddr::parse(&format!("unix:{}", socket.expect("--socket"))).unwrap(),
        store: PathBuf::from(store.expect("--store")),
        format: StoreFormat::Binary,
        threads: 1,
        crash_after_batches,
    };
    let report = wl_harness::serve(&cfg, |addr| println!("ready on {addr}")).expect("serve");
    println!(
        "served: {} records, {} warm hits, {} simulated",
        report.stats.records, report.stats.warm_hits, report.stats.simulated
    );
}

// ---------------------------------------------------------------------------
// Client-side helpers.
// ---------------------------------------------------------------------------

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wl-service-proc-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

struct Server {
    child: Child,
    addr: ServiceAddr,
    sock: PathBuf,
}

impl Server {
    fn spawn(dir: &Path, store: &Path, crash_after_batches: Option<usize>) -> Self {
        let sock = dir.join("wl.sock");
        let mut cmd = Command::new(std::env::current_exe().expect("own path"));
        cmd.arg("--serve")
            .arg("--socket")
            .arg(&sock)
            .arg("--store")
            .arg(store);
        if let Some(n) = crash_after_batches {
            cmd.arg("--crash-after-batches").arg(n.to_string());
        }
        let child = cmd.spawn().expect("spawn server");
        // The server removes any stale socket before binding, so the
        // file's (re)appearance is the ready signal.
        let deadline = Instant::now() + Duration::from_secs(30);
        while !sock.exists() {
            assert!(Instant::now() < deadline, "server socket never appeared");
            std::thread::sleep(Duration::from_millis(5));
        }
        let addr = ServiceAddr::parse(&format!("unix:{}", sock.display())).unwrap();
        Self { child, addr, sock }
    }

    fn stats(&self) -> ServiceStats {
        ServiceClient::new(self.addr.clone())
            .stats()
            .expect("stats")
    }

    /// Graceful stop: canonical final save, clean exit.
    fn shutdown(mut self) {
        ServiceClient::new(self.addr.clone())
            .shutdown()
            .expect("shutdown");
        let status = self.child.wait().expect("server exit");
        assert!(status.success(), "server exited {status}");
    }

    /// Waits for the injected abort to kill the server.
    fn wait_for_crash(mut self) {
        let status = self.child.wait().expect("server exit");
        assert!(
            !status.success(),
            "server was supposed to die, got {status}"
        );
        let _ = std::fs::remove_file(&self.sock);
    }
}

/// Runs one cached sweep against `addr` (via the env knob — the exact
/// path `paper_report` takes) and returns the outcomes plus the
/// local cache's (hits, misses).
fn served_sweep(addr: &ServiceAddr, specs: Vec<ScenarioSpec>) -> (Vec<SweepOutcome>, u64, u64) {
    std::env::set_var("WL_SWEEP_SERVICE", addr.to_string());
    let cache = SweepCache::new();
    let out = SweepRequest::new()
        .threads(1)
        .cached(&cache)
        .run::<Maintenance>(specs);
    std::env::remove_var("WL_SWEEP_SERVICE");
    (out, cache.hits(), cache.misses())
}

/// The 1-process local-store reference: a plain cached sweep absorbed
/// into a binary store — the bytes every server store must match.
fn reference_bytes(dir: &Path) -> Vec<u8> {
    std::env::remove_var("WL_SWEEP_SERVICE");
    let cache = SweepCache::new();
    let _ = SweepRequest::new()
        .threads(1)
        .cached(&cache)
        .run::<Maintenance>(grid());
    let path = dir.join("reference.wls");
    let mut store = SweepStore::open(&path).unwrap();
    store.set_format(StoreFormat::Binary);
    store.absorb(&cache);
    store.save().unwrap();
    std::fs::read(&path).unwrap()
}

// ---------------------------------------------------------------------------
// The tests.
// ---------------------------------------------------------------------------

fn test_served_sweep_runs_zero_local_simulations() {
    let dir = tmp_dir("warm");
    let store = dir.join("server.wls");
    let server = Server::spawn(&dir, &store, None);

    // Cold: the server simulates; the client's sweep loop sees pure
    // hits — zero *local* simulations even on a cold store.
    let (out, hits, misses) = served_sweep(&server.addr, grid());
    assert_eq!(out.len(), GRID);
    assert_eq!((hits, misses), (GRID as u64, 0));
    let cold = server.stats();
    assert_eq!(cold.simulated, GRID as u64);
    assert_eq!(cold.records, GRID as u64);

    // Warm: same again, and the server answers from its in-RAM index —
    // zero simulations anywhere.
    let (warm_out, hits, misses) = served_sweep(&server.addr, grid());
    assert_eq!((hits, misses), (GRID as u64, 0));
    let warm = server.stats();
    assert_eq!(warm.simulated, GRID as u64, "warm pass must not simulate");
    assert_eq!(warm.warm_hits, cold.warm_hits + GRID as u64);

    // Served outcomes are exactly what local simulation produces.
    std::env::remove_var("WL_SWEEP_SERVICE");
    let local = SweepRequest::new().threads(1).run::<Maintenance>(grid());
    let canon = |o: &SweepOutcome| format!("{o:?}");
    assert_eq!(
        out.iter().map(canon).collect::<Vec<_>>(),
        local.iter().map(canon).collect::<Vec<_>>()
    );
    assert_eq!(
        warm_out.iter().map(canon).collect::<Vec<_>>(),
        local.iter().map(canon).collect::<Vec<_>>()
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    println!("ok: served sweeps execute zero local simulations, cold and warm");
}

fn test_killed_server_store_is_recoverable_and_byte_identical() {
    let dir = tmp_dir("kill");
    let store = dir.join("server.wls");
    let reference = reference_bytes(&dir);

    // The server aborts (kill -9 stand-in) right after checkpointing
    // its first miss batch, *before* answering — the worst moment: work
    // done, client unanswered.
    let server = Server::spawn(&dir, &store, Some(1));
    let addr = server.addr.clone();
    let (out, hits, misses) = served_sweep(&addr, grid());
    assert_eq!(out.len(), GRID, "client completes despite the dead server");
    assert_eq!(
        (hits, misses),
        (0, GRID as u64),
        "interrupted prefetch must fall back to local simulation"
    );
    server.wait_for_crash();

    // The checkpoint the server wrote before dying is fully loadable —
    // the batch was durable before the response would have gone out.
    let recovered = SweepStore::open(&store).unwrap();
    assert_eq!(recovered.len(), GRID, "checkpointed batch survives kill");
    assert_eq!(recovered.skipped_lines(), 0, "no torn records");

    // A restarted server serves that checkpointed prefix in full.
    let server = Server::spawn(&dir, &store, None);
    let (_, hits, misses) = served_sweep(&server.addr, grid());
    assert_eq!((hits, misses), (GRID as u64, 0));
    let stats = server.stats();
    assert_eq!(stats.simulated, 0, "restart serves, never re-simulates");
    assert_eq!(stats.warm_hits, GRID as u64);
    server.shutdown();

    // And its graceful save is byte-identical to the 1-process
    // local-store run — the crash cost nothing.
    assert_eq!(
        std::fs::read(&store).unwrap(),
        reference,
        "post-kill server store != local reference store"
    );
    let _ = std::fs::remove_dir_all(&dir);
    println!("ok: killed server's store recovers byte-identically after restart");
}

fn test_concurrent_clients_converge_to_reference_bytes() {
    let dir = tmp_dir("concurrent");
    let store = dir.join("server.wls");
    let reference = reference_bytes(&dir);
    let server = Server::spawn(&dir, &store, None);

    // Two clients race the same cold grid. Env is process-global, so
    // the tiers are built directly (subprocess clients — the shape the
    // CI smoke runs — go through the env knob instead).
    let specs = grid();
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let addr = server.addr.clone();
            let specs = specs.clone();
            scope.spawn(move || {
                let tier = wl_harness::ServiceSweepCache::new(addr);
                let cache = SweepCache::new();
                let served = tier.prefetch::<Maintenance>(&specs, Capture::Scalar, &cache);
                assert_eq!(served, GRID, "every point served, none simulated here");
            });
        }
    });
    let stats = server.stats();
    assert_eq!(stats.records, GRID as u64);
    assert_eq!(
        stats.simulated, GRID as u64,
        "the two racing batches must not double-simulate the grid"
    );
    server.shutdown();
    assert_eq!(
        std::fs::read(&store).unwrap(),
        reference,
        "concurrent-client server store != local reference store"
    );
    let _ = std::fs::remove_dir_all(&dir);
    println!("ok: concurrent cold clients converge to the reference bytes");
}

fn test_warm_server_under_load_simulates_nothing() {
    let dir = tmp_dir("load");
    let store = dir.join("server.wls");
    let server = Server::spawn(&dir, &store, None);

    // Warm the store once (the server simulates the cold grid), then
    // snapshot the stats the load phase must not move.
    let (_, hits, misses) = served_sweep(&server.addr, grid());
    assert_eq!((hits, misses), (GRID as u64, 0));
    let warm = server.stats();
    assert_eq!(warm.simulated, GRID as u64);
    assert_eq!(warm.records, GRID as u64);

    // 8 concurrent clients hammer the warm server through the same env
    // knob the experiment binaries use. `WL_SWEEP_EXPECT_MISSES=0` is
    // held for the duration, and its contract — zero local cache misses,
    // i.e. zero local simulations — is asserted per client.
    const CLIENTS: usize = 8;
    std::env::set_var("WL_SWEEP_SERVICE", server.addr.to_string());
    std::env::set_var("WL_SWEEP_EXPECT_MISSES", "0");
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            let specs = grid();
            scope.spawn(move || {
                let cache = SweepCache::new();
                let out = SweepRequest::new()
                    .threads(1)
                    .cached(&cache)
                    .run::<Maintenance>(specs);
                assert_eq!(out.len(), GRID);
                assert_eq!(
                    (cache.hits(), cache.misses()),
                    (GRID as u64, 0),
                    "a loaded warm server must keep every client at zero misses"
                );
            });
        }
    });
    std::env::remove_var("WL_SWEEP_EXPECT_MISSES");
    std::env::remove_var("WL_SWEEP_SERVICE");

    // The server answered all of it from its in-RAM index: not one
    // simulation beyond the warm-up, one warm hit per point per client.
    let loaded = server.stats();
    assert_eq!(
        loaded.simulated, warm.simulated,
        "load against a warm store must add 0 simulated"
    );
    assert_eq!(loaded.records, GRID as u64);
    assert_eq!(
        loaded.warm_hits,
        warm.warm_hits + (CLIENTS * GRID) as u64,
        "every loaded point must be a warm hit"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    println!("ok: 8 concurrent clients on a warm server simulate nothing anywhere");
}

fn test_sharded_sweep_never_consults_the_service() {
    let dir = tmp_dir("sharded");
    let server = Server::spawn(&dir, &dir.join("server.wls"), None);
    let before = server.stats();

    let shard = Shard::new(0, 2);
    std::env::set_var("WL_SWEEP_SERVICE", server.addr.to_string());
    let cache = SweepCache::new();
    let out = SweepRequest::new()
        .threads(1)
        .shard(shard)
        .cached(&cache)
        .run::<Maintenance>(grid());
    std::env::remove_var("WL_SWEEP_SERVICE");

    let owned = (GRID / 2) as u64;
    assert!(out.iter().all(|o| shard.owns(o.index)));
    assert_eq!(
        (cache.hits(), cache.misses()),
        (0, owned),
        "a sharded sweep simulates every point it owns locally"
    );
    let after = server.stats();
    assert_eq!(
        after.requests,
        before.requests + 1,
        "the server saw only the second Stats call"
    );
    assert_eq!((after.simulated, after.records), (0, 0));

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    println!("ok: a sharded sweep leaves a live service untouched");
}

fn test_dead_service_degrades_to_local_sweep() {
    let dir = tmp_dir("dead");
    let addr = ServiceAddr::parse(&format!("unix:{}", dir.join("nobody.sock").display())).unwrap();
    let (out, hits, misses) = served_sweep(&addr, grid());
    assert_eq!(out.len(), GRID);
    assert_eq!((hits, misses), (0, GRID as u64), "pure local fallback");
    std::env::remove_var("WL_SWEEP_SERVICE");
    let local = SweepRequest::new().threads(1).run::<Maintenance>(grid());
    assert_eq!(format!("{out:?}"), format!("{local:?}"));
    let _ = std::fs::remove_dir_all(&dir);
    println!("ok: dead service degrades to a plain local sweep");
}
