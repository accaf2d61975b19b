//! `repro`'s argument and environment errors, through the built binary.
//!
//! Each case runs one `repro` process with every `SIM*` variable scrubbed
//! from its environment, then the case's own. A rejected invocation must
//! exit 2 with nothing on stdout and fail before any run starts: its
//! stderr holds no scheduler or run status line. Cases that could run
//! anything add `--exp table2`, the analytic table, so a missed error
//! prints a table and fails fast instead of starting a sweep.

use std::process::{Command, Output};

/// Runs `repro` with `args` and, on top of a `SIM*`-free environment,
/// the variables in `env`.
fn repro(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("SIM") {
            cmd.env_remove(name);
        }
    }
    cmd.args(args).envs(env.iter().copied());
    cmd.output().expect("repro starts")
}

/// Asserts the invocation was refused before any run: exit 2, empty
/// stdout, an `error:` first line, and no status line on stderr.
fn assert_refused(args: &[&str], env: &[(&str, &str)]) -> String {
    let out = repro(args, env);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    let case = format!("{args:?} {env:?}");
    assert_eq!(out.status.code(), Some(2), "{case}: stderr {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{case}: printed {:?}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(stderr.starts_with("error: "), "{case}: stderr {stderr}");
    for status in ["[simsched]", "[repro]", "[simchk]"] {
        assert!(!stderr.contains(status), "{case}: a run started: {stderr}");
    }
    stderr
}

#[test]
fn bad_arguments_exit_2_before_any_run() {
    let cases: &[&[&str]] = &[
        &["--no-such-flag"],
        &["--exp", "table2", "--quick", "--huge"],
        &["--exp", "table2", "--cores", "0"],
        &["--exp", "table2", "--cores", "9"],
        &["--exp", "table2", "--sample", "--intervals", "0"],
        &["--exp", "table2", "--sample", "--intervals", "65"],
        &["--exp", "table2", "--intervals", "2"],
        &["--exp", "table2", "--sample", "--cores", "2"],
    ];
    for args in cases {
        assert_refused(args, &[]);
    }
}

#[test]
fn malformed_environment_values_exit_2_naming_the_variable() {
    let cases = [
        ("SIMSCHED_THREADS", "four"),
        ("SIMCHK_MAX", "4GB"),
        ("SIMCHK_WARMUP", "fast"),
    ];
    for (name, value) in cases {
        let stderr = assert_refused(&["--exp", "table2"], &[(name, value)]);
        assert_eq!(stderr.lines().count(), 1, "{name}: {stderr}");
        assert!(stderr.contains(name), "{name} not named: {stderr}");
    }
}

#[test]
fn well_formed_environment_values_and_help_are_accepted() {
    let help = repro(&["--help"], &[]);
    assert_eq!(help.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&help.stderr).contains("usage: repro"));

    let env = [
        ("SIMSCHED_THREADS", "2"),
        ("SIMCHK_MAX", "4096"),
        ("SIMCHK_WARMUP", "timed"),
    ];
    let table = repro(&["--exp", "table2", "--quiet"], &env);
    assert_eq!(table.status.code(), Some(0), "{}", String::from_utf8_lossy(&table.stderr));
    assert!(!table.stdout.is_empty(), "table2 printed nothing");
}
