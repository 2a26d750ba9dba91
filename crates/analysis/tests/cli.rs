//! End-to-end tests of the `lint-model` binary: exit codes and verdict
//! lines for broken, clean and unparseable models.

#![allow(clippy::expect_used, clippy::unwrap_used)] // test helpers panic on setup failure by design

use std::path::PathBuf;
use std::process::{Command, Output};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lint-model"))
        .args(args)
        .output()
        .expect("lint-model runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn nan_weight_model_fails_the_lint() {
    let out = lint(&[
        fixture("nan_weight.json").to_str().unwrap(),
        "--system",
        "oscillator",
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    let text = stdout(&out);
    assert!(text.contains("nonfinite-weight"), "{text}");
    assert!(text.contains("FAILED"), "{text}");
}

#[test]
fn a_spec_of_another_family_is_a_load_error() {
    let out = lint(&[
        fixture("linear_spec.json").to_str().unwrap(),
        "--system",
        "oscillator",
    ]);
    assert_eq!(out.status.code(), Some(2), "{}", stdout(&out));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot parse"), "{stderr}");
    assert!(stdout(&out).is_empty(), "{}", stdout(&out));
}

#[test]
fn clean_model_passes() {
    let out = lint(&[
        fixture("clean_oscillator.json").to_str().unwrap(),
        "--system",
        "oscillator",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}{}",
        stdout(&out),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout(&out).contains("PASSED"), "{}", stdout(&out));
}

#[test]
fn clean_model_against_wrong_system_fails() {
    let out = lint(&[
        fixture("clean_oscillator.json").to_str().unwrap(),
        "--system",
        "cartpole",
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
}

#[test]
fn deny_warnings_turns_warnings_into_failure() {
    // the clean fixture under an absurdly small Lipschitz budget: a
    // warning appears, and --deny-warnings makes it fatal
    let path = fixture("clean_oscillator.json");
    let relaxed = lint(&[
        path.to_str().unwrap(),
        "--system",
        "oscillator",
        "--lipschitz-target",
        "1e-6",
    ]);
    assert_eq!(relaxed.status.code(), Some(0), "{}", stdout(&relaxed));
    let strict = lint(&[
        path.to_str().unwrap(),
        "--system",
        "oscillator",
        "--lipschitz-target",
        "1e-6",
        "--deny-warnings",
    ]);
    assert_eq!(strict.status.code(), Some(1), "{}", stdout(&strict));
}

#[test]
fn usage_errors_exit_2() {
    let out = lint(&[]);
    assert_eq!(out.status.code(), Some(2));
    let out = lint(&["/nonexistent/model.json", "--system", "oscillator"]);
    assert_eq!(out.status.code(), Some(2));
    let out = lint(&[
        fixture("clean_oscillator.json").to_str().unwrap(),
        "--system",
        "mars",
    ]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn garbage_json_exits_2() {
    let dir = std::env::temp_dir().join("cocktail-analysis-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("garbage.json");
    std::fs::write(&path, "{ not json").expect("write garbage");
    let out = lint(&[path.to_str().unwrap(), "--system", "oscillator"]);
    assert_eq!(out.status.code(), Some(2));

    // a bare Mlp whose layers do not chain: the loader's reason is the
    // whole explanation, so it must reach the user
    let layer = |cols: usize| {
        format!(
            r#"{{"weights":{{"rows":1,"cols":{cols},"data":[{}]}},"biases":[0],"activation":"Tanh"}}"#,
            vec!["0.5"; cols].join(",")
        )
    };
    let path = dir.join("unchained.json");
    std::fs::write(
        &path,
        format!(r#"{{"layers":[{},{}]}}"#, layer(2), layer(2)),
    )
    .expect("write model");
    let out = lint(&[path.to_str().unwrap(), "--system", "oscillator"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("layer 1 reads 2 inputs but layer 0 emits 1"),
        "{stderr}"
    );
}

#[test]
fn bare_mlp_files_are_accepted() {
    // a bare Mlp JSON (as Mlp::to_json writes) is wrapped with unit scale
    use cocktail_nn::{Activation, MlpBuilder};
    let net = MlpBuilder::new(2)
        .hidden(4, Activation::Tanh)
        .output(1, Activation::Tanh)
        .seed(3)
        .build();
    let dir = std::env::temp_dir().join("cocktail-analysis-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("bare_mlp.json");
    std::fs::write(&path, net.to_json().expect("serializable")).expect("write model");
    let out = lint(&[path.to_str().unwrap(), "--system", "oscillator"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}{}",
        stdout(&out),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout(&out).contains("neural"), "{}", stdout(&out));
}
