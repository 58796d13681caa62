//! Prints the paper report — every section of [`bench::paper::SECTIONS`],
//! or the ones named as positional arguments — to stdout; the checked-in
//! copy is `docs/paper-report.txt`.
//!
//! Everything environmental goes to stderr: the cache status line (the
//! sweeps run through the shared disk cache, `WL_SWEEP_CACHE_DIR`, so a
//! repeat run simulates nothing for the stored sections), the CSV files
//! written under `target/paper_report/`, and warnings.
//!
//! Run: `cargo run --release -p bench --bin paper_report [-- SECTION...]`

use bench::paper;
use std::path::Path;
use wl_harness::DiskSweepCache;

fn main() {
    let ids: Vec<String> = std::env::args().skip(1).collect();
    let sections = paper::select(&ids).unwrap_or_else(|usage| {
        eprintln!("paper_report: {usage}");
        std::process::exit(2);
    });

    let mut disk = DiskSweepCache::open_shared();
    let report = paper::render(&sections, disk.cache());
    bench::enforce_expected_misses(&disk);
    print!("{}", report.text);

    eprintln!("{}", disk.status());
    if let Err(e) = disk.persist() {
        eprintln!("warning: could not persist sweep cache: {e}");
    }
    let dir = Path::new("target/paper_report");
    for (stem, table) in &report.csvs {
        match paper::write_csv(dir, stem, table) {
            Ok(path) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!(
                "warning: could not write {stem}.csv under {}: {e}",
                dir.display()
            ),
        }
    }
}
