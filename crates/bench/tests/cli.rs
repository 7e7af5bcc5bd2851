//! The experiment binaries' exit-code contract at the process boundary:
//! a benchmark selection that matches no circuit exits 2 with a warning
//! and a diagnostic, before any experiment output.

use std::process::Command;

#[test]
fn a_selection_matching_no_circuit_exits_two() {
    let dir = std::env::temp_dir().join(format!("prebond3d-cli-{}", std::process::id()));
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_table2"));
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("PREBOND3D_") {
            cmd.env_remove(key);
        }
    }
    let out = cmd
        .env("PREBOND3D_CIRCUITS", "nope")
        .env("PREBOND3D_REPORT_DIR", &dir)
        .output()
        .expect("table2 runs");
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("warning: PREBOND3D_CIRCUITS entries [nope] match no benchmark"),
        "{stderr}"
    );
    assert!(
        stderr.contains("error: PREBOND3D_CIRCUITS=`nope` selects no benchmark"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty());
}
