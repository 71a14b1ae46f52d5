//! The `accl-obs` binary reports bad input with exit code 2 and a
//! message, never a panic: invalid `dump` options are rejected before
//! any capture runs, and `perfetto` rejects a missing or malformed
//! trace document.

use std::process::Command;

/// Runs the binary; returns its exit code and stderr.
fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_accl-obs"))
        .args(args)
        .output()
        .expect("run accl-obs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn bad_input_exits_2_with_a_message() {
    let dir = std::env::temp_dir().join(format!("accl-obs-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("out.json");
    let out = out.to_str().unwrap();
    let malformed = dir.join("malformed.json");
    std::fs::write(
        &malformed,
        "{\"schema\": \"accl-obs-trace-v1\", \"events\": [",
    )
    .unwrap();
    let malformed = malformed.to_str().unwrap();
    let missing = dir.join("missing.json");
    let missing = missing.to_str().unwrap();

    let cases: [(&[&str], &str); 6] = [
        (
            &["dump", "--window-us", "0", "-o", out],
            "metric window width must be positive",
        ),
        (
            &["dump", "--degrade-rank", "8", "-o", out],
            "degrade rank 8 out of range",
        ),
        (
            &[
                "dump",
                "--workload",
                "dlrm",
                "--degrade-rank",
                "1",
                "-o",
                out,
            ],
            "only supported for the allreduce8 workload",
        ),
        (
            &["dump", "--queue", "heap", "-o", out],
            "unknown option \"--queue\"",
        ),
        (&["perfetto", missing, "-o", out], "cannot read"),
        (
            &["perfetto", malformed, "-o", out],
            "unexpected end of input",
        ),
    ];
    for (args, message) in cases {
        let (code, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    assert!(
        !std::path::Path::new(out).exists(),
        "a rejected command wrote its output"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
