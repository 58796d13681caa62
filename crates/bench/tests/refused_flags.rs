//! A refused flag value, or a flag the mode does not know, is exit 2
//! with a message on stderr — not a panic (101) out of a sweep worker,
//! and not after the run has left files behind. The value refusals are
//! one table, in the style of `cli.rs`'s per-mode table.

use std::process::Command;

#[test]
fn a_horizon_too_short_for_the_agreement_window_is_exit_2() {
    let dir = std::env::temp_dir().join(format!("wl-refused-flags-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let at = |name: &str| dir.join(name).to_str().expect("utf-8 temp dir").to_string();
    let (store, work) = (at("x.wls"), at("drive"));
    let min = wl_harness::run::min_horizon(&bench::demo_grid_t(1, 2.0)[0].params);

    let shard = env!("CARGO_BIN_EXE_sweep_shard");
    let drive = env!("CARGO_BIN_EXE_sweep_drive");
    let modes: [(&str, &str, Vec<&str>); 3] = [
        (
            "sweep_shard --shard",
            shard,
            vec!["--shard", "0/1", "--store", &store],
        ),
        (
            "sweep_drive --workers",
            drive,
            vec!["--workers", "2", "--dir", &work],
        ),
        (
            "sweep_drive --frontier-worker",
            drive,
            vec![
                "--frontier-worker",
                "--frontier",
                &work,
                "--worker-id",
                "w0",
                "--store",
                &store,
            ],
        ),
    ];
    for (mode, bin, args) in modes {
        let out = Command::new(bin)
            .args(args)
            .args(["--grid", "2", "--t-end", "1"])
            .output()
            .expect("run the binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{mode}: {stderr}");
        assert!(
            stderr.starts_with("--t-end: t_end = 1 s is too short")
                && stderr.contains(&format!("t_end = {min} s")),
            "{mode}: names the flag, the value and the minimum: {stderr}"
        );
        assert!(!dir.exists(), "{mode}: refused before touching the disk");
    }
}

/// A drive has one topology, so `--transport` is an unknown flag: usage
/// and exit 2 before anything touches the disk, never silently ignored.
#[test]
fn a_transport_flag_is_an_unknown_flag() {
    let dir = std::env::temp_dir().join(format!("wl-refused-transport-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let work = dir.to_str().expect("utf-8 temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_sweep_drive"))
        .args(["--workers", "1", "--transport", "subprocess", "--dir", work])
        .output()
        .expect("run the binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.starts_with("usage:"), "{stderr}");
    assert!(!dir.exists(), "refused after touching the disk");
}
