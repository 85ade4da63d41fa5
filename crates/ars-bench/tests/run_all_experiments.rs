//! The `run_all_experiments` command line refuses an `--only` list it
//! cannot run, before it runs anything.

use std::process::Command;

#[test]
fn unknown_or_missing_ids_fail_before_running_anything() {
    for args in [
        &["--only", "E99"][..],
        &["--only", "E9,E99"][..],
        &["--only"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_run_all_experiments"))
            .args(args)
            .output()
            .expect("spawn run_all_experiments");
        assert!(!out.status.success(), "{args:?} exited {}", out.status);
        assert!(
            out.stdout.is_empty(),
            "{args:?} printed a report before refusing: {}",
            String::from_utf8_lossy(&out.stdout)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("valid ids: E1, E2") && stderr.contains("E16"),
            "{args:?} did not name the valid ids: {stderr}"
        );
    }
}
