//! Self-test of the benchmark: every workload, at a tiny size, prints each
//! metric BENCHMARK.json names with its unit, and each workload's
//! correctness check rejects a corrupted expected output.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::process::Command;

/// A JSON value; numbers as f64 are enough for this test.
#[derive(Debug, Clone)]
enum J {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<J>),
    Obj(BTreeMap<String, J>),
}

impl J {
    fn get(&self, k: &str) -> &J {
        match self {
            J::Obj(m) => m.get(k).unwrap_or(&J::Null),
            _ => &J::Null,
        }
    }
    fn arr(&self) -> &[J] {
        match self {
            J::Arr(v) => v,
            _ => &[],
        }
    }
    fn str(&self) -> &str {
        match self {
            J::Str(s) => s,
            _ => "",
        }
    }
    fn num(&self) -> f64 {
        match self {
            J::Num(n) => *n,
            _ => f64::NAN,
        }
    }
}

struct P<'a> {
    s: &'a [u8],
    i: usize,
}

impl P<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }
    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s[self.i] as char, c as char, "at byte {}", self.i);
        self.i += 1;
    }
    fn value(&mut self) -> J {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return J::Obj(m);
                }
                loop {
                    self.ws();
                    let J::Str(k) = self.value() else {
                        panic!("object key")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return J::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return J::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return J::Arr(v);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let mut out = String::new();
                while self.s[self.i] != b'"' {
                    if self.s[self.i] == b'\\' {
                        self.i += 1;
                    }
                    out.push(self.s[self.i] as char);
                    self.i += 1;
                }
                self.i += 1;
                J::Str(out)
            }
            b't' => {
                self.i += 4;
                J::Bool(true)
            }
            b'f' => {
                self.i += 5;
                J::Bool(false)
            }
            b'n' => {
                self.i += 4;
                J::Null
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                J::Num(
                    std::str::from_utf8(&self.s[start..self.i])
                        .unwrap()
                        .parse()
                        .unwrap(),
                )
            }
        }
    }
}

fn parse(text: &str) -> J {
    P {
        s: text.as_bytes(),
        i: 0,
    }
    .value()
}

fn benchmark() -> J {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

/// Run the benchmark binary; returns the exit code and the parsed last line.
fn run(workload: &str, trace: u8, extra: &[&str]) -> (i32, J) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
        ])
        .arg(trace.to_string())
        .arg("--tiny")
        .args(extra)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_else(|| {
        panic!(
            "{workload}: no output; stderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    (out.status.code().unwrap_or(-1), parse(last))
}

fn assert_result_shape(r: &J) {
    let J::Obj(m) = r else {
        panic!("result is not an object")
    };
    let keys: Vec<&str> = m.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert!(r.get("attempted").num() >= 1.0);
}

fn assert_metrics(workload: &str, r: &J, list: &J, nonzero: bool) {
    let J::Obj(printed) = r.get("metrics") else {
        panic!("{workload}: metrics")
    };
    assert_eq!(printed.len(), list.arr().len(), "{workload}: metric count");
    for m in list.arr() {
        let name = m.get("name").str();
        let got = printed
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: metric {name} not printed"));
        assert_eq!(
            got.get("unit").str(),
            m.get("unit").str(),
            "{workload}: unit of {name}"
        );
        let v = got.get("value").num();
        assert!(v.is_finite(), "{workload}: {name} = {v}");
        if nonzero {
            assert!(v > 0.0, "{workload}: end-to-end metric {name} reads {v}");
        }
    }
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let b = benchmark();
    for w in b.get("workloads").arr() {
        let name = w.get("name").str();
        let (code, r) = run(name, 0, &[]);
        assert_eq!(code, 0, "{name}: untraced run failed");
        assert_result_shape(&r);
        assert!(matches!(r.get("correct"), J::Bool(true)), "{name}: {r:?}");
        assert_eq!(r.get("failed").num(), 0.0, "{name}");
        assert_metrics(name, &r, b.get("end_to_end"), true);

        let (code, r) = run(name, 1, &[]);
        assert_eq!(code, 0, "{name}: traced run failed");
        assert_result_shape(&r);
        assert_metrics(name, &r, b.get("per_layer"), false);
    }
}

#[test]
fn every_correctness_check_rejects_a_corrupted_expected_output() {
    for w in benchmark().get("workloads").arr() {
        let name = w.get("name").str();
        let (code, r) = run(name, 0, &["--corrupt-expected"]);
        assert_ne!(
            code, 0,
            "{name}: a corrupted expected output must fail the run"
        );
        assert!(matches!(r.get("correct"), J::Bool(false)), "{name}: {r:?}");
        assert!(r.get("failed").num() >= 1.0, "{name}: {r:?}");
    }
}
