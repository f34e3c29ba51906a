//! `experiments` writes its reports to stdout; a reader that leaves early
//! (`experiments sampling | head`) must end the run quietly with exit 0,
//! not with a broken-pipe panic.

use std::process::{Command, Stdio};

#[test]
fn closed_stdout_exits_zero_without_a_panic() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["fig2", "--size", "64"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("experiments starts");
    // Close the read end before the first report line is written.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("experiments exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "exit {:?}: {stderr}",
        out.status.code()
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}
