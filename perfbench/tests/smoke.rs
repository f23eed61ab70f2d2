//! Smoke run of every workload, traced and untraced, at the smallest size
//! (`--seconds 1`: a few loop steps). Checks that the result line has the
//! contract's shape, that the outputs are correct, and that the metric
//! names and units printed are exactly those `BENCHMARK.json` declares —
//! and that `layers.json` maps every declared per-layer metric.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// A parsed JSON value (just enough JSON for these files).
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
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let value = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing input after JSON value");
        value
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(map) => map.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(map) => map.keys().map(String::as_str).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
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
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {:?} at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut map = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(map);
                }
                loop {
                    self.ws();
                    let Json::Str(key) = self.value() else {
                        panic!("object key must be a string")
                    };
                    self.eat(b':');
                    let value = self.value();
                    assert!(map.insert(key, value).is_none(), "duplicate key");
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(map);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(items);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are not used in these files");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).expect("utf-8"))
            }
            b't' | b'f' | b'n' => {
                for (word, value) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return value;
                    }
                }
                panic!("bad literal at {}", self.i)
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
            }
        }
    }
}

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives in a directory of the repository")
}

fn benchmark() -> Json {
    Json::parse(&std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json"))
}

/// `(name, unit)` of every metric in the `section` list of BENCHMARK.json.
fn declared(section: &str) -> BTreeMap<String, String> {
    benchmark()
        .get(section)
        .items()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

fn run(workload: &str, trace: u8) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(root())
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let result = Json::parse(stdout.lines().last().expect("a result line"));
    assert_eq!(result.keys(), ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(result.get("correct"), &Json::Bool(true), "{stdout}");
    assert_eq!(result.get("failed").num(), 0.0);
    assert!(result.get("attempted").num() >= 1.0);
    let section = if trace == 1 {
        "per_layer"
    } else {
        "end_to_end"
    };
    let printed: BTreeMap<String, String> = result
        .get("metrics")
        .keys()
        .into_iter()
        .map(|name| {
            let metric = result.get("metrics").get(name);
            assert!(metric.get("value").num().is_finite());
            (name.to_string(), metric.get("unit").str().to_string())
        })
        .collect();
    assert_eq!(
        printed,
        declared(section),
        "{workload}: printed vs declared {section}"
    );
    if trace == 0 {
        for name in printed.keys() {
            let value = result.get("metrics").get(name).get("value").num();
            assert!(value > 0.0, "{workload}: end-to-end {name} must not be 0");
        }
    } else {
        let closure = result
            .get("metrics")
            .get("trace.closure_ok")
            .get("value")
            .num();
        assert_eq!(closure, 1.0, "{workload}: closure check");
    }
}

#[test]
fn every_workload_prints_the_declared_metrics() {
    let workloads: Vec<String> = benchmark()
        .get("workloads")
        .items()
        .iter()
        .map(|w| w.get("name").str().to_string())
        .collect();
    assert_eq!(workloads.len(), 4);
    for workload in &workloads {
        run(workload, 0);
        run(workload, 1);
    }
}

#[test]
fn layers_json_maps_every_per_layer_metric() {
    let layers = Json::parse(
        &std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("layers.json"))
            .expect("layers.json"),
    );
    let mut mapped: Vec<String> = layers
        .get("layers")
        .items()
        .iter()
        .flat_map(|l| l.get("metrics").items().iter().map(|m| m.str().to_string()))
        .collect();
    mapped.sort();
    let declared: Vec<String> = declared("per_layer").into_keys().collect();
    assert_eq!(mapped, declared);
    let workloads: Vec<String> = benchmark()
        .get("workloads")
        .items()
        .iter()
        .map(|w| w.get("name").str().to_string())
        .collect();
    for layer in layers.get("layers").items() {
        for target in layer.get("moves").items() {
            assert!(workloads.contains(&target.get("workload").str().to_string()));
            assert!(declared_end_to_end(target.get("metric").str()));
        }
        for w in layer.get("unchanged_on").items() {
            assert!(workloads.contains(&w.str().to_string()));
        }
    }
}

fn declared_end_to_end(name: &str) -> bool {
    declared("end_to_end").contains_key(name)
}
