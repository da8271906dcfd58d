//! Short self-check runs of every workload: every metric `BENCHMARK.json`
//! declares is printed with its unit and a finite value, no op fails, and
//! a planted wrong expected verdict is reported as a failure.
//!
//! Run with `cargo test --release --manifest-path sackbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

/// A parsed JSON value (just enough for `BENCHMARK.json` and the result
/// line).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or(&Json::Null),
            _ => &Json::Null,
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("not an array: {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s[self.i], c, "at byte {}", self.i);
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    let Json::Str(k) = self.value() else {
                        panic!("object key is not a string")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(a);
                }
                loop {
                    a.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(a);
                    }
                }
            }
            b'"' => {
                let start = self.i + 1;
                self.i = start;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are not used here");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).unwrap())
            }
            b't' => {
                self.i += 4;
                Json::Bool(true)
            }
            b'f' => {
                self.i += 5;
                Json::Bool(false)
            }
            b'n' => {
                self.i += 4;
                Json::Null
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
            }
        }
    }
}

fn parse(text: &str) -> Json {
    Parser {
        s: text.as_bytes(),
        i: 0,
    }
    .value()
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives in a directory of the repository")
        .to_path_buf()
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    parse(&text)
        .get(list)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

/// Runs one short run; returns the exit code and the parsed result line.
fn run(workload: &str, trace: u8, extra: &[&str]) -> (i32, Json, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_sackbench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", &trace.to_string()])
        .args(extra)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = stdout.lines().last().unwrap_or_default().to_string();
    (out.status.code().unwrap_or(-1), parse(&last), stdout)
}

fn check_workload(workload: &str) {
    for (trace, list) in [(0, "end_to_end"), (1, "per_layer")] {
        let (code, result, stdout) = run(workload, trace, &[]);
        assert_eq!(code, 0, "{workload} trace={trace} failed:\n{stdout}");
        assert_eq!(result.get("correct"), &Json::Bool(true), "{stdout}");
        assert_eq!(result.get("failed"), &Json::Num(0.0), "{stdout}");
        assert!(matches!(result.get("attempted"), Json::Num(n) if *n >= 1.0));
        let Json::Obj(metrics) = result.get("metrics") else {
            panic!("no metrics object:\n{stdout}")
        };
        let names = declared(list);
        assert_eq!(metrics.len(), names.len(), "{workload} {list}: {metrics:?}");
        for (name, unit) in names {
            let m = result.get("metrics").get(&name);
            assert_eq!(m.get("unit"), &Json::Str(unit), "{workload} {name}");
            assert!(
                matches!(m.get("value"), Json::Num(v) if v.is_finite()),
                "{workload} {name}: {m:?}"
            );
        }
        assert!(stdout.contains("failed_frac=0\n"), "{stdout}");
    }
    let (code, result, stdout) = run(workload, 0, &["--plant-wrong-verdict"]);
    assert_eq!(
        code, 1,
        "{workload}: a planted wrong verdict must fail the run"
    );
    assert_eq!(result.get("correct"), &Json::Bool(false), "{stdout}");
    assert!(matches!(result.get("failed"), Json::Num(n) if *n >= 1.0));
    assert!(stdout.contains("FAILED "), "{stdout}");
}

#[test]
fn steady_self_check() {
    check_workload("steady");
}

#[test]
fn churn_self_check() {
    check_workload("churn");
}

#[test]
fn drive_cycle_self_check() {
    check_workload("drive-cycle");
}

#[test]
fn unknown_workload_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_sackbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
