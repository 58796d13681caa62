//! The adversary determinism contract: every built-in
//! [`AdversaryStrategy`] is byte-deterministic under thread count,
//! arbitrary legal tie-breaking, the service wire codec, and
//! text↔binary store migration — the properties the sweep cache, shard
//! merge, and results service all lean on (`docs/adversaries.md`).
//!
//! Byte-identity is checked with [`SweepOutcome::bit_identical`] (IEEE
//! bit patterns, not epsilons) and `std::fs::read` equality on saved
//! stores — the same currency the CI shard smoke uses.

mod common;

use common::ShuffledTieQueue;
use proptest::prelude::*;
use welch_lynch::core::Params;
use welch_lynch::harness::service::{decode_spec, encode_spec};
use welch_lynch::harness::{
    assemble_with_queue, derive_seed, run, AdversarySpec, AdversaryStrategy, Capture, DelayKind,
    Maintenance, ScenarioSpec, ServeConfig, ServiceAddr, ServiceClient, ServiceSweepCache,
    StoreFormat, SweepCache, SweepOutcome, SweepRequest, SweepStore,
};
use welch_lynch::sim::ProcessId;
use welch_lynch::time::RealTime;

/// Every built-in strategy (all nine discriminants; both pull-apart
/// orientations), with payloads scaled to the family's β and P.
fn gallery(params: &Params) -> Vec<AdversaryStrategy> {
    let beta = params.beta;
    vec![
        AdversaryStrategy::Crash { at: 2.0 },
        AdversaryStrategy::Mute,
        AdversaryStrategy::Spam,
        AdversaryStrategy::PullApart {
            amplitude: beta,
            high: false,
        },
        AdversaryStrategy::PullApart {
            amplitude: beta,
            high: true,
        },
        AdversaryStrategy::TwoFacedValue { amplitude: beta },
        AdversaryStrategy::Collude { amplitude: beta },
        AdversaryStrategy::Churn {
            up: 2.0 * params.p_round,
            down: params.p_round,
        },
        AdversaryStrategy::TargetedDelay { victim: 2 },
        AdversaryStrategy::Partition,
    ]
}

fn family() -> Params {
    Params::auto(4, 1, 1e-6, 0.010, 0.001).expect("feasible")
}

fn adversarial_spec(params: &Params, strategy: AdversaryStrategy, seed: u64) -> ScenarioSpec {
    ScenarioSpec::new(params.clone())
        .seed(seed)
        .delay(DelayKind::Uniform)
        .adversary(AdversarySpec::new(vec![ProcessId(0)], strategy).seed(7))
        .t_end(RealTime::from_secs(4.0))
}

/// One spec per gallery strategy, seeds derived from `base_seed`.
fn gallery_grid(params: &Params, base_seed: u64) -> Vec<ScenarioSpec> {
    gallery(params)
        .into_iter()
        .enumerate()
        .map(|(i, s)| adversarial_spec(params, s, derive_seed(base_seed, i as u64)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        .. ProptestConfig::default()
    })]

    /// The full gallery swept serially and at several thread counts —
    /// bit-identical outcomes at every grid point.
    #[test]
    fn prop_gallery_identical_at_every_thread_count(
        base_seed in 0u64..10_000,
        threads_idx in 0usize..3,
    ) {
        let params = family();
        let serial = SweepRequest::new()
            .threads(1)
            .run::<Maintenance>(gallery_grid(&params, base_seed));
        let threads = [2usize, 4, 8][threads_idx];
        let wide = SweepRequest::new()
            .threads(threads)
            .run::<Maintenance>(gallery_grid(&params, base_seed));
        prop_assert_eq!(serial.len(), wide.len());
        for (a, b) in serial.iter().zip(&wide) {
            prop_assert!(
                a.bit_identical(b),
                "threads={}: adversarial outcome diverged at grid point {}",
                threads,
                a.index
            );
        }
    }

    /// Delay-only adversaries (the attack lives in the shared delay
    /// model, every process stays correct): two assemblies under the
    /// same arbitrary legal tie-breaking run bit-for-bit alike.
    #[test]
    fn prop_delay_only_adversaries_ride_the_enum_path_identically(
        seed in 0u64..10_000,
        salt in 1u64..u64::MAX,
        partition in proptest::bool::ANY,
    ) {
        let params = family();
        let strategy = if partition {
            AdversaryStrategy::Partition
        } else {
            AdversaryStrategy::TargetedDelay { victim: 2 }
        };
        let spec = adversarial_spec(&params, strategy, seed);
        let t_end = spec.t_end.as_secs();
        let once = assemble_with_queue::<Maintenance, _>(&spec, ShuffledTieQueue::new(salt));
        let a = SweepOutcome::new(0, spec.seed, &run::run_summary(once, t_end));
        let again = assemble_with_queue::<Maintenance, _>(&spec, ShuffledTieQueue::new(salt));
        let b = SweepOutcome::new(0, spec.seed, &run::run_summary(again, t_end));
        prop_assert!(
            a.bit_identical(&b),
            "delay-only strategy {:?} is not deterministic under salt {}",
            strategy,
            salt
        );
    }

    /// Behaviour adversaries are wrapper automata in the fleet: the
    /// execution — including the strategy's own seeded RNG — must be a
    /// pure function of (spec, tie order): the same shuffled-tie salt
    /// reproduces the run bit-for-bit.
    #[test]
    fn prop_behaviour_adversaries_deterministic_under_shuffled_ties(
        seed in 0u64..10_000,
        salt in 1u64..u64::MAX,
        strat_idx in 0usize..8,
    ) {
        let params = family();
        let strategy = gallery(&params)[strat_idx]; // 0..8 = the behaviour strategies
        let spec = adversarial_spec(&params, strategy, seed);
        let t_end = spec.t_end.as_secs();
        let once = assemble_with_queue::<Maintenance, _>(&spec, ShuffledTieQueue::new(salt));
        let a = SweepOutcome::new(0, spec.seed, &run::run_summary(once, t_end));
        let again = assemble_with_queue::<Maintenance, _>(&spec, ShuffledTieQueue::new(salt));
        let b = SweepOutcome::new(0, spec.seed, &run::run_summary(again, t_end));
        prop_assert!(
            a.bit_identical(&b),
            "behaviour strategy {:?} is not deterministic under salt {}",
            strategy,
            salt
        );
    }

    /// Every gallery spec survives the service wire codec exactly:
    /// decode(encode(spec)) == spec, and the canonical string (the cache
    /// key) is unchanged by the round trip.
    #[test]
    fn prop_gallery_specs_round_trip_the_wire_codec(
        base_seed in 0u64..10_000,
    ) {
        let params = family();
        for spec in gallery_grid(&params, base_seed) {
            let decoded = decode_spec(&encode_spec(&spec)).expect("wire codec decodes");
            prop_assert_eq!(&decoded, &spec);
            prop_assert_eq!(decoded.content_hash(), spec.content_hash());
        }
    }
}

/// End-to-end transport determinism: the same adversarial gallery
/// resolved (a) by local simulation and (b) through a live results
/// service — a cold client's put-back, wire transfer, a fresh client's
/// cache seeding — produces bit-identical outcomes and
/// **byte-identical** saved stores, and those stores survive text →
/// binary → text migration unchanged.
#[test]
fn gallery_byte_identical_through_service_transport_and_migration() {
    let params = family();
    let grid = gallery_grid(&params, 0xAD0E_5EED);

    // (a) Local: every point simulated in this process.
    let local_cache = SweepCache::new();
    let local = SweepRequest::new()
        .threads(1)
        .cached(&local_cache)
        .run::<Maintenance>(grid.clone());
    assert_eq!(local_cache.misses(), grid.len() as u64);

    // (b) Service: a cold client simulates every point and puts the
    // gallery back; the server stores it and never simulates.
    let dir = std::env::temp_dir().join(format!("wl-adv-transport-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let cfg = ServeConfig::new(
        ServiceAddr::Tcp("127.0.0.1:0".into()),
        dir.join("service.wls"),
    );
    let (tx, rx) = std::sync::mpsc::channel();
    let server = std::thread::spawn(move || {
        welch_lynch::harness::serve(&cfg, move |addr| tx.send(addr.clone()).unwrap())
    });
    let addr = rx.recv().expect("server ready");
    let cold = ServiceSweepCache::new(addr.clone());
    let cold_cache = SweepCache::new();
    assert_eq!(
        cold.prefetch::<Maintenance>(&grid, Capture::Scalar, &cold_cache),
        0
    );
    let _ = SweepRequest::new()
        .threads(1)
        .cached(&cold_cache)
        .run::<Maintenance>(grid.clone());
    cold.push_back::<Maintenance>(&cold_cache);
    assert_eq!(
        cold.pushed(),
        grid.len() as u64,
        "the whole gallery put back"
    );

    // A fresh client prefetches all of it over the wire codec.
    let service = ServiceSweepCache::new(addr.clone());
    let service_cache = SweepCache::new();
    let served = service.prefetch::<Maintenance>(&grid, Capture::Scalar, &service_cache);
    assert_eq!(served, grid.len(), "server must resolve the whole gallery");
    let remote = SweepRequest::new()
        .threads(1)
        .cached(&service_cache)
        .run::<Maintenance>(grid.clone());
    assert_eq!(
        service_cache.misses(),
        0,
        "prefetched sweep must be all hits"
    );
    ServiceClient::new(addr).shutdown().expect("shutdown");
    server.join().expect("server thread").expect("serve ok");

    assert_eq!(local.len(), remote.len());
    for (a, b) in local.iter().zip(&remote) {
        assert!(
            a.bit_identical(b),
            "service-transported outcome diverged at grid point {}",
            a.index
        );
    }

    // The two caches serialize to byte-identical stores.
    let save = |cache: &SweepCache, name: &str| {
        let mut store = SweepStore::new();
        store.set_format(StoreFormat::Text);
        store.absorb(cache);
        let path = dir.join(name);
        store.save_to(&path).expect("save");
        path
    };
    let path_local = save(&local_cache, "local.wls");
    let path_remote = save(&service_cache, "remote.wls");
    let text = std::fs::read(&path_local).expect("read local");
    assert_eq!(
        text,
        std::fs::read(&path_remote).expect("read remote"),
        "local and service-transported stores must be byte-identical"
    );

    // Adversarial records survive text → binary → text unchanged.
    let bin = dir.join("roundtrip.wlb");
    let back = dir.join("roundtrip.wls");
    SweepStore::migrate(&path_local, &bin, StoreFormat::Binary).expect("to binary");
    SweepStore::migrate(&bin, &back, StoreFormat::Text).expect("back to text");
    assert_eq!(
        text,
        std::fs::read(&back).expect("read round-trip"),
        "text↔binary migration must preserve adversarial records byte-for-byte"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
