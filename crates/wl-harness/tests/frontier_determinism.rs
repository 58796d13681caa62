//! Proptest pin on the frontier's core promise: **any** schedule merges
//! to the same store bytes as the unsharded run.
//!
//! The frontier state machine is driven entirely in-process — no
//! subprocesses — so proptest can shrink freely over the knobs that a
//! real fleet varies at random:
//!
//! * chunk size (including one oversized chunk spanning the whole grid
//!   and a ragged last chunk);
//! * which worker acts next at every step (claim interleaving);
//! * worker death points — before *or* after the chunk checkpoint, the
//!   two halves of the `kill -9` window — with the orphaned claim
//!   recovered by `requeue_stale` and the dead worker later restarted
//!   against its own store (resume);
//! * on-disk format (text and binary).
//!
//! Whatever the schedule, the merged store must be byte-identical to a
//! serial 1-process sweep of the same grid. The subprocess version of
//! this pin (fixed schedules, real kills) is `transport_conformance.rs`.

use proptest::prelude::*;
use std::path::PathBuf;
use std::time::Duration;
use wl_core::Params;
use wl_harness::{
    derive_seed, DelayKind, Frontier, FrontierSpec, Maintenance, ScenarioSpec, StoreFormat,
    SweepCache, SweepRequest, SweepRunner, SweepStore,
};
use wl_time::RealTime;

const GRID: usize = 6;

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
                .seed(derive_seed(0xDE7E_3713, i as u64))
                .delay(delays[i % 3])
                .t_end(RealTime::from_secs(1.5))
        })
        .collect()
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wl-frontier-prop-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The serial 1-process bytes every schedule must reproduce.
fn reference_bytes(dir: &std::path::Path, format: StoreFormat) -> Vec<u8> {
    let cache = SweepCache::new();
    let _ = SweepRequest::new()
        .threads(1)
        .cached(&cache)
        .run::<Maintenance>(grid());
    let path = dir.join("reference.wls");
    let mut store = SweepStore::open(&path).unwrap();
    store.set_format(format);
    store.absorb(&cache);
    store.save().unwrap();
    std::fs::read(&path).unwrap()
}

/// One in-process virtual worker: its own store file and hydrated cache,
/// exactly what `run_worker_frontier` holds per subprocess.
struct Worker {
    name: String,
    path: PathBuf,
    store: SweepStore,
    cache: SweepCache,
    chunks_done: usize,
    dead: bool,
    /// A restarted worker never dies again, so every schedule terminates.
    restarted: bool,
}

impl Worker {
    fn spawn(dir: &std::path::Path, id: usize, format: StoreFormat) -> Self {
        let path = dir.join(format!("w{id}.wls"));
        let mut store = SweepStore::open(&path).unwrap();
        store.set_format(format);
        let cache = store.hydrate();
        Self {
            name: format!("w{id}"),
            path,
            store,
            cache,
            chunks_done: 0,
            dead: false,
            restarted: false,
        }
    }

    /// Restart after a death: reopen the same store file and resume from
    /// whatever its checkpoints left behind.
    fn restart(&mut self, format: StoreFormat) {
        let mut store = SweepStore::open(&self.path).unwrap();
        store.set_format(format);
        self.cache = store.hydrate();
        self.store = store;
        self.dead = false;
        self.restarted = true;
    }
}

/// When (and how) a worker dies: after `chunks` chunk checkpoints, with
/// the fatal chunk's records kept (`after_checkpoint`) or lost.
#[derive(Debug, Clone, Copy)]
struct Death {
    chunks: usize,
    after_checkpoint: bool,
}

proptest! {
    #![proptest_config(ProptestConfig {
        // Simulation-backed cases: each runs a full (small) sweep, so a
        // handful of cases is the budget, not the default 256.
        cases: 10,
        ..ProptestConfig::default()
    })]

    #[test]
    fn any_schedule_merges_to_the_unsharded_bytes(
        chunk in 1usize..GRID + 3,
        worker_count in 1usize..4,
        binary in proptest::bool::ANY,
        schedule in proptest::collection::vec(0usize..64, 0..48),
        death_chunks in proptest::collection::vec(proptest::option::of(0usize..3), 3),
        death_after in proptest::collection::vec(proptest::bool::ANY, 3),
    ) {
        let format = if binary { StoreFormat::Binary } else { StoreFormat::Text };
        let dir = tmp_dir("case");
        let grid = grid();
        let reference = reference_bytes(&dir, format);

        let frontier_dir = dir.join("frontier");
        let frontier =
            Frontier::init(&frontier_dir, FrontierSpec::for_grid::<Maintenance>(&grid, chunk))
                .unwrap();
        let runner = SweepRunner::serial();
        let mut workers: Vec<Worker> = (0..worker_count)
            .map(|id| Worker::spawn(&dir, id, format))
            .collect();
        let deaths: Vec<Option<Death>> = death_chunks
            .iter()
            .zip(&death_after)
            .map(|(chunks, &after_checkpoint)| {
                chunks.map(|chunks| Death { chunks, after_checkpoint })
            })
            .collect();

        let mut step = 0usize;
        while !frontier.is_complete().unwrap() {
            let live: Vec<usize> = (0..workers.len()).filter(|&i| !workers[i].dead).collect();
            if live.is_empty() {
                // The fleet died out: the driver restarts every slot
                // against its own store (resume semantics).
                for w in &mut workers {
                    w.restart(format);
                }
                continue;
            }
            let pick = schedule
                .get(step)
                .map_or(step % live.len(), |ix| ix % live.len());
            step += 1;
            let wi = live[pick];

            let Some(claim) = frontier.claim(&workers[wi].name).unwrap() else {
                // Everything is claimed or done; recover any orphans. In
                // this sequential model no claim is ever held by a live
                // worker across steps, so a zero timeout only requeues
                // the dead workers' orphans.
                frontier.requeue_stale(Duration::ZERO).unwrap();
                continue;
            };

            let dying = !workers[wi].restarted
                && deaths[wi].is_some_and(|d| d.chunks == workers[wi].chunks_done);
            if dying && !deaths[wi].unwrap().after_checkpoint {
                // Death in the first half of the kill window: the claim
                // is orphaned and this chunk's records are lost.
                workers[wi].dead = true;
                drop(claim);
                continue;
            }

            let specs: Vec<ScenarioSpec> = grid[claim.range()].to_vec();
            let w = &mut workers[wi];
            let _ = SweepRequest::new().runner(runner).cached(&w.cache).run::<Maintenance>(specs);
            w.store.absorb(&w.cache);
            w.store.checkpoint().unwrap();
            w.chunks_done += 1;

            if dying {
                // Death in the second half: checkpointed but never
                // completed — the orphaned claim the steal path recovers,
                // with the records already safe in the store.
                workers[wi].dead = true;
                drop(claim);
            } else {
                claim.complete().unwrap();
            }
        }

        // Harvest and merge, exactly as `drive_frontier` does.
        let out = dir.join("merged.wls");
        let mut merged = SweepStore::open(&out).unwrap();
        merged.set_format(format);
        for w in &workers {
            let theirs = SweepStore::open(&w.path).unwrap();
            merged.merge_from(&theirs).unwrap();
        }
        merged.save().unwrap();

        let merged_bytes = std::fs::read(&out).unwrap();
        prop_assert_eq!(
            merged_bytes,
            reference,
            "chunk={} workers={} format={:?}: schedule diverged from the unsharded run",
            chunk,
            worker_count,
            format
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
