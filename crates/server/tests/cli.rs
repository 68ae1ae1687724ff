//! The `viva-server` command line: flags reach the server limits, and
//! a bad value is a usage error.

use std::io::Write;
use std::process::{Command, Stdio};

fn viva_server(args: &[&str], stdin: &str) -> std::process::Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_viva-server"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("start viva-server");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(stdin.as_bytes())
        .expect("write script");
    child.wait_with_output().expect("viva-server exits")
}

/// A three-container trace (the span's root plus two hosts).
const LOAD: &str = r#"{"cmd":"load_trace","session":"a","mode":"strict","text":"span,0.0,10.0\ncontainer,1,0,host,h0\ncontainer,2,0,host,h1\nmetric,0,MFlop/s,power\nvar,1.0,1,0,100.0"}
"#;

#[test]
fn max_containers_sets_the_load_budget() {
    let roomy = viva_server(&["--stdio", "--max-containers", "10"], LOAD);
    assert!(roomy.status.success());
    let answer = String::from_utf8(roomy.stdout).unwrap();
    assert!(answer.starts_with(r#"{"ok":"loaded""#), "{answer}");

    let tight = viva_server(&["--stdio", "--max-containers", "1"], LOAD);
    assert!(tight.status.success());
    let answer = String::from_utf8(tight.stdout).unwrap();
    assert!(answer.starts_with(r#"{"err":"budget_exceeded""#), "{answer}");
}

#[test]
fn non_integer_max_containers_is_a_usage_error() {
    for flag in ["--max-containers", "--max-sessions"] {
        let out = viva_server(&["--stdio", flag, "many"], "");
        assert!(!out.status.success(), "{flag}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(stderr, format!("viva-server: {flag} needs an integer\n"));
    }
}

#[test]
fn help_lists_max_containers() {
    let out = viva_server(&["--help"], "");
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("[--max-containers N]"));
}
