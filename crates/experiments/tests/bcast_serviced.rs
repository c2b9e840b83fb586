//! `bcast_serviced` on a spec the service refuses: the reason on stderr
//! and exit status 2, as for any other bad argument, never a panic.

use std::process::Command;

#[test]
fn a_refused_spec_exits_with_status_2_without_panicking() {
    let specs: [&[&str]; 2] = [
        &["--family", "tiers", "--nodes", "2"],
        &["--family", "random", "--nodes", "5", "--density", "2"],
    ];
    for (i, spec) in specs.iter().enumerate() {
        let dir =
            std::env::temp_dir().join(format!("bcast_serviced_refused_{}_{i}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = Command::new(env!("CARGO_BIN_EXE_bcast_serviced"))
            .arg("--dir")
            .arg(&dir)
            .args(*spec)
            .output()
            .expect("bcast_serviced runs");
        let _ = std::fs::remove_dir_all(&dir);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{spec:?}: {stderr}");
        assert!(stderr.contains("rejected: "), "{spec:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{spec:?}: {stderr}");
    }
}
