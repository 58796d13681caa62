//! `service_mix`: warm gets, batch gets and put batches against an
//! in-process results server on a unix socket.
//!
//! Frame codec, socket round trip and checkpoint-before-answer dominate;
//! the store lookup is a few percent of a get. Reads and writes share
//! the server's one lock. One client thread, closed loop: the next
//! request goes out when the previous answer is in.

use crate::common::{
    file_len, measure, median_rate, peak_rss_mb, print_budget, ratio, read_records, secs,
    simulate_store, sweep_into, trace_pairs, Ctx, Scratch, Sizes, Tally, BATCH,
};
use crate::grids;
use crate::stats::{median, percentile, sorted, tail};
use crate::trace::Recorder;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{self, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use wl_harness::cache::segment::EncodedRecord;
use wl_harness::service::{
    decode_request, decode_response, decode_spec, encode_request, encode_response, encode_spec,
    Request, Response,
};
use wl_harness::{
    serve, Capture, Maintenance, ScenarioSpec, ServeConfig, ServiceAddr, ServiceClient,
    ServiceStats, SweepStore, SyncAlgorithm, ENGINE_VERSION,
};

const ALGO: &str = <Maintenance as SyncAlgorithm>::NAME;

/// Length prefix + checksum trailer around every frame body.
const FRAME_OVERHEAD: usize = 4 + 8;

/// Round trips of the ladder's echo and `stats` rungs.
const LADDER_TRIPS: usize = 4000;

pub struct Setup {
    base: PathBuf,
    grid: Vec<ScenarioSpec>,
    /// `content_hash` of each grid point.
    hashes: Vec<u64>,
    /// Store records by content hash: what every `Found` must equal.
    by_hash: BTreeMap<u64, EncodedRecord>,
    /// Grid indices in seeded-shuffled order, cycled by the scripts.
    order: Vec<usize>,
    puts: Vec<EncodedRecord>,
    /// The store a local `merge_from` + `save_to` of the same records
    /// writes: what the server's store must be after shutdown.
    expected_bytes: Vec<u8>,
}

struct Pass {
    gets_s: f64,
    batch_s: f64,
    put_s: f64,
    stats: ServiceStats,
    checkpoint_bytes: u64,
    final_len: u64,
}

fn build(sizes: &Sizes, seed: u64, scratch: &Scratch) -> Setup {
    let grid = grids::small(seed, sizes.service);
    let base = scratch.path("svc-base.wls");
    simulate_store(&grid, &base);
    let put_path = scratch.path("svc-puts.wls");
    simulate_store(
        &grids::small(seed.wrapping_add(1), sizes.service_put),
        &put_path,
    );
    let mut merged = SweepStore::open(&base).expect("open base store");
    merged
        .merge_from(&SweepStore::open(&put_path).expect("open put store"))
        .expect("put records are new");
    let expected = scratch.path("svc-expected.wls");
    merged.save_to(&expected).expect("save expected store");
    Setup {
        by_hash: read_records(&base)
            .into_iter()
            .map(|r| (r.content_hash, r))
            .collect(),
        order: grids::shuffled(seed, grid.len()),
        hashes: grid.iter().map(ScenarioSpec::content_hash).collect(),
        puts: read_records(&put_path),
        expected_bytes: std::fs::read(&expected).expect("read expected store"),
        base,
        grid,
    }
}

/// The request script of one pass, against a live server.
fn script(
    setup: &Setup,
    sizes: &Sizes,
    client: &mut ServiceClient,
    live: &Path,
    tally: &mut Tally,
    rec: &mut Recorder,
) -> io::Result<Pass> {
    let hashes = &setup.hashes;
    let mut picks = setup.order.iter().cycle();

    let mut wrong = 0usize;
    let (result, gets_s) = secs(|| -> io::Result<()> {
        for request in 0..sizes.gets {
            let hash = hashes[*picks.next().expect("a cycle never ends")];
            let open = rec.begin("service.get", request);
            let found = client.get(hash, ALGO, Capture::Sketch)?;
            rec.end(open);
            wrong += usize::from(found.as_ref() != setup.by_hash.get(&hash));
        }
        Ok(())
    });
    result?;
    tally.check(
        wrong == 0,
        sizes.gets,
        "service_mix: every Found record equals the store's record for that key",
    );

    let batch = BATCH.min(setup.grid.len());
    let mut wrong = 0usize;
    let (result, batch_s) = secs(|| -> io::Result<()> {
        for request in 0..sizes.batch_gets {
            let points: Vec<(u64, &ScenarioSpec)> = picks
                .by_ref()
                .take(batch)
                .map(|&i| (hashes[i], &setup.grid[i]))
                .collect();
            let open = rec.begin("service.batch_get", request);
            let items = client.batch_get(ALGO, Capture::Sketch, &points)?;
            rec.end(open);
            wrong += points
                .iter()
                .zip(&items)
                .filter(|((hash, _), item)| item.as_ref() != setup.by_hash.get(hash))
                .count();
        }
        Ok(())
    });
    result?;
    tally.check(
        wrong == 0,
        sizes.batch_gets * batch,
        "service_mix: every batch slot equals the store's record for that key",
    );

    let before_puts = file_len(live);
    let (result, put_s) = secs(|| -> io::Result<()> {
        for (request, records) in setup.puts.chunks(BATCH).enumerate() {
            let open = rec.begin("service.put_batch", request);
            client.put_batch(records)?;
            rec.end(open);
        }
        Ok(())
    });
    result?;
    tally.attempted += setup.puts.len() as u64;
    let checkpoint_bytes = file_len(live) - before_puts;

    let stats = client.stats()?;
    let put_batches = setup.puts.len().div_ceil(BATCH);
    let want = ServiceStats {
        records: (setup.grid.len() + setup.puts.len()) as u64,
        warm_hits: (sizes.gets + sizes.batch_gets * batch) as u64,
        simulated: 0,
        puts: setup.puts.len() as u64,
        // Every opcode counts, the `stats` request itself included.
        requests: (sizes.gets + sizes.batch_gets + put_batches + 1) as u64,
    };
    tally.check(
        stats == want,
        1,
        &format!("service_mix: server counters match the script ({stats:?} vs {want:?})"),
    );
    Ok(Pass {
        gets_s,
        batch_s,
        put_s,
        stats,
        checkpoint_bytes,
        final_len: 0,
    })
}

/// Runs `client_side` against a fresh server over a fresh copy of the
/// base store, then shuts the server down whatever the client did, so
/// the server thread always ends.
fn with_server<T>(
    setup: &Setup,
    scratch: &Scratch,
    client_side: impl FnOnce(&mut ServiceClient, &Path) -> io::Result<T>,
) -> io::Result<T> {
    let live = scratch.path("svc-live.wls");
    std::fs::copy(&setup.base, &live)?;
    let socket = scratch.path("s.sock");
    let _ = std::fs::remove_file(&socket);
    let mut cfg = ServeConfig::new(ServiceAddr::Unix(socket), &live);
    cfg.threads = 1;

    std::thread::scope(|scope| {
        let (ready, addr) = mpsc::channel();
        let server = scope.spawn(move || serve(&cfg, |addr| drop(ready.send(addr.clone()))));
        // A server that failed to bind drops the sender without sending.
        let Ok(addr) = addr.recv() else {
            return Err(server
                .join()
                .expect("server thread")
                .err()
                .unwrap_or_else(|| io::Error::other("server exited before it was ready")));
        };
        let mut client = ServiceClient::new(addr);
        let out = client_side(&mut client, &live);
        let stopped = client.shutdown();
        server.join().expect("server thread")?;
        stopped?;
        out
    })
}

fn pass(
    setup: &Setup,
    sizes: &Sizes,
    scratch: &Scratch,
    tally: &mut Tally,
    rec: &mut Recorder,
) -> Pass {
    let mut pass = with_server(setup, scratch, |client, live| {
        script(setup, sizes, client, live, tally, rec)
    })
    .expect("service pass");
    let live = scratch.path("svc-live.wls");
    tally.check(
        std::fs::read(&live).is_ok_and(|bytes| bytes == setup.expected_bytes),
        1,
        "service_mix: the store after shutdown is byte-identical to a local merge + save",
    );
    pass.final_len = file_len(&live);
    pass
}

/// Re-executes this process confined to one CPU, unless it already is.
///
/// `service_mix` is two threads handing a socket back and forth. Left to
/// the scheduler they share a CPU for minutes, then sit on two for
/// minutes, and on this VM a wake-up across CPUs is an interrupt through
/// the hypervisor: the same code has read 65 and 150 us per get, system
/// time quadrupling. One CPU for both threads takes the scheduler's
/// choice out of the number. Without `taskset` the run goes on unpinned.
pub fn pin_to_one_cpu() {
    use std::os::unix::process::CommandExt;
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let Some(allowed) = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map(str::trim)
    else {
        return;
    };
    if allowed.parse::<u32>().is_ok() {
        return;
    }
    let first: String = allowed.chars().take_while(char::is_ascii_digit).collect();
    let Ok(exe) = std::env::current_exe() else {
        return;
    };
    let error = std::process::Command::new("taskset")
        .args(["-c", &first])
        .arg(exe)
        .args(std::env::args_os().skip(1))
        .exec();
    eprintln!("service_mix runs unpinned: taskset: {error}");
}

pub fn run(ctx: &mut Ctx) {
    let (sizes, seed) = (ctx.sizes, ctx.seed);
    let setup = ctx.setup(|scratch| build(&sizes, seed, scratch));
    if ctx.trace {
        return traced(ctx, &setup);
    }
    let scratch = &ctx.scratch;
    let passes = measure(ctx.seconds, &mut ctx.tally, |tally, rec| {
        pass(&setup, &sizes, scratch, tally, rec)
    });

    let batch = BATCH.min(setup.grid.len());
    let records = (setup.grid.len() + setup.puts.len()) as f64;
    let m = &mut ctx.metrics;
    m.set(
        "points_per_s",
        median_rate(
            sizes.gets,
            passes.iter().map(|t| t.at_reference(t.pass.gets_s)),
        ),
    );
    m.set(
        "load_points_per_s",
        median_rate(
            sizes.batch_gets * batch,
            passes.iter().map(|t| t.at_reference(t.pass.batch_s)),
        ),
    );
    m.set(
        "save_points_per_s",
        median_rate(
            setup.puts.len(),
            passes.iter().map(|t| t.at_reference(t.pass.put_s)),
        ),
    );
    m.set(
        "store_bytes_per_point",
        passes[0].pass.final_len as f64 / records,
    );
    m.set("peak_rss_mb", peak_rss_mb());
}

/// Ping-pong of request- and response-sized byte strings against the
/// benchmark's own echo thread: the unix-socket floor under a get, with
/// no framing, checksum, codec or store behind it.
fn echo_floor_us(scratch: &Scratch, request: usize, response: usize) -> io::Result<Vec<f64>> {
    let path = scratch.path("e.sock");
    let _ = std::fs::remove_file(&path);
    let listener = UnixListener::bind(&path)?;
    std::thread::scope(|scope| {
        let echo = scope.spawn(move || -> io::Result<()> {
            let (mut stream, _) = listener.accept()?;
            let mut inbound = vec![0u8; request];
            let outbound = vec![0x5Au8; response];
            while stream.read_exact(&mut inbound).is_ok() {
                stream.write_all(&outbound)?;
            }
            Ok(())
        });
        let mut stream = UnixStream::connect(&path)?;
        let outbound = vec![0xA5u8; request];
        let mut inbound = vec![0u8; response];
        let mut trips = Vec::with_capacity(LADDER_TRIPS);
        for _ in 0..LADDER_TRIPS {
            let (result, s) = secs(|| {
                stream
                    .write_all(&outbound)
                    .and_then(|()| stream.read_exact(&mut inbound))
            });
            result?;
            trips.push(s * 1e6);
        }
        drop(stream);
        echo.join().expect("echo thread")?;
        Ok(trips)
    })
}

fn traced(ctx: &mut Ctx, setup: &Setup) {
    let sizes = ctx.sizes;
    let (scratch, tally) = (&ctx.scratch, &mut ctx.tally);
    let (traced, mut rec, traced_s, untraced_s) = trace_pairs(
        "service_mix",
        |rec| pass(setup, &sizes, scratch, tally, rec),
        |p| p.gets_s + p.batch_s + p.put_s,
    );

    // Codec rungs over every stored record: the four steps of one get.
    // One span per step over all records; each step is around a
    // microsecond, too close to the cost of a span to time alone.
    let requests: Vec<Request> = setup
        .by_hash
        .keys()
        .map(|&content_hash| Request::Get {
            content_hash,
            engine_version: ENGINE_VERSION,
            need: Capture::Sketch,
            algo: ALGO.to_string(),
        })
        .collect();
    let responses: Vec<Response> = setup
        .by_hash
        .values()
        .map(|record| Response::Found {
            record: record.clone(),
        })
        .collect();
    let request_bodies: Vec<Vec<u8>> = rec.time("service.encode_request", 0, || {
        requests.iter().map(encode_request).collect()
    });
    rec.time("service.decode_request", 0, || {
        for body in &request_bodies {
            black_box(decode_request(body));
        }
    });
    let response_bodies: Vec<Vec<u8>> = rec.time("service.encode_response", 0, || {
        responses.iter().map(encode_response).collect()
    });
    rec.time("service.decode_response", 0, || {
        for body in &response_bodies {
            black_box(decode_response(body));
        }
    });
    let wires: Vec<Vec<u8>> = rec.time("spec.wire_encode", 0, || {
        setup.grid.iter().map(encode_spec).collect()
    });
    rec.time("spec.wire_decode", 0, || {
        for wire in &wires {
            black_box(decode_spec(wire));
        }
    });
    let n = setup.by_hash.len();
    let framed = |bodies: &[Vec<u8>]| {
        bodies
            .iter()
            .map(|b| b.len() + FRAME_OVERHEAD)
            .sum::<usize>()
            / n
    };
    let (request_bytes, response_bytes) = (framed(&request_bodies), framed(&response_bodies));
    rec.count("service.request_bytes", request_bytes as u64);
    rec.count("service.response_bytes", response_bytes as u64);

    let echo =
        sorted(echo_floor_us(&ctx.scratch, request_bytes, response_bytes).expect("echo ping-pong"));
    let stats_trips = with_server(setup, &ctx.scratch, |client, _| {
        (0..LADDER_TRIPS)
            .map(|_| {
                let (stats, s) = secs(|| client.stats());
                stats.map(|_| s * 1e6)
            })
            .collect::<io::Result<Vec<f64>>>()
    })
    .expect("stats ping-pong");

    // The same lookups without the service: a warm sweep of the grid.
    let cache = SweepStore::open(&setup.base)
        .expect("open base store")
        .hydrate();
    let (_, local_s) = secs(|| black_box(sweep_into(&cache, &setup.grid)));
    let local_us = local_s * 1e6 / setup.grid.len() as f64;

    let gets = sorted(rec.durations_us("service.get"));
    let get_p50 = percentile(&gets, 0.5);
    let get_mean = traced.gets_s * 1e6 / sizes.gets as f64;
    let echo_p50 = percentile(&echo, 0.5);
    let per = |name: &str| rec.total_us(name) / n as f64;
    let codec = [
        ("service.encode_request_us", per("service.encode_request")),
        ("service.decode_request_us", per("service.decode_request")),
        ("service.encode_response_us", per("service.encode_response")),
        ("service.decode_response_us", per("service.decode_response")),
    ];
    let get_self = get_p50 - echo_p50 - codec.iter().map(|(_, us)| us).sum::<f64>();
    let mut layers = vec![("socket round trip (echo p50)", echo_p50)];
    layers.extend(codec);
    layers.push(("service.get self (server side)", get_self));
    let residual = get_mean - layers.iter().map(|(_, us)| us).sum::<f64>();

    let m = &mut ctx.metrics;
    for (name, us) in codec {
        m.set(name, us);
    }
    m.set("spec.wire_encode_us", per("spec.wire_encode"));
    m.set("spec.wire_decode_us", per("spec.wire_decode"));
    m.set("service.echo_us_p50", echo_p50);
    m.set("service.stats_us_p50", median(&stats_trips));
    m.set("service.get_us_p50", get_p50);
    m.set("service.get_us_p99", tail(&gets, 0.99));
    m.set("service.get_us_p999", tail(&gets, 0.999));
    m.set("service.get_self_us", get_self);
    m.set(
        "service.batch_us_p50",
        median(&rec.durations_us("service.batch_get")),
    );
    m.set(
        "service.put_batch_us_p50",
        median(&rec.durations_us("service.put_batch")),
    );
    m.set("service.request_bytes", request_bytes as f64);
    m.set("service.response_bytes", response_bytes as f64);
    m.set("service.requests", traced.stats.requests as f64);
    m.set("service.warm_hits", traced.stats.warm_hits as f64);
    m.set("service.simulated", traced.stats.simulated as f64);
    m.set("service.puts", traced.stats.puts as f64);
    m.set(
        "service.put_checkpoint_bytes",
        traced.checkpoint_bytes as f64,
    );
    m.set("service.local_ratio", ratio(get_p50, local_us));
    m.set("sweep.warm_point_us", local_us);
    m.set("cache.bytes_written", traced.final_len as f64);
    m.set("residual.service_us", residual);
    m.set("residual.service_share", ratio(residual, get_mean));
    print_budget("service_mix", "get (mean)", get_mean, &layers);
    ctx.finish_trace(&rec, traced_s, untraced_s);
}
