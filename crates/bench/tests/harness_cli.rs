//! The harness's command line: an argument it does not know is an error,
//! not a warning — a typo'd CI step must not pass having run nothing.

use std::process::Command;

fn harness(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_harness"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("spawn harness")
}

#[test]
fn unknown_arguments_exit_non_zero_and_list_the_known_ids() {
    for args in [&["--quick", "e99"][..], &["e8", "e9"], &["--quik", "e2"]] {
        let out = harness(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran an experiment");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("e1, e2, e3, e4, e5, e6, e7, e8, e14"),
            "{args:?}: {err}"
        );
    }
}

#[test]
fn a_known_id_runs_and_exits_zero() {
    let out = harness(&["--quick", "e2"]);
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("### E2"));
}
