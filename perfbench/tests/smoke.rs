//! Smoke test of the benchmark at tiny sizes: every workload, both
//! trace modes. Asserts that the result line carries exactly the
//! metrics `BENCHMARK.json` declares, each with its declared unit, that
//! every output check passed, and that `predictions.json` only names
//! declared metrics and workloads.
//!
//! ```sh
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

/// A parsed JSON value (just enough JSON for the benchmark's files).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            b: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.b.len(), "trailing bytes after JSON value");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(members) => members
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("missing key `{key}`")),
            other => panic!("`{key}` looked up in non-object {other:?}"),
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

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn members(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(m) => m,
            other => panic!("not an object: {other:?}"),
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.b.get(self.i),
            Some(&c),
            "expected `{}` at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    /// Consume the `,` or `close` after a container element; true at
    /// the container's end.
    fn close(&mut self, close: u8) -> bool {
        self.ws();
        let c = self.b[self.i];
        assert!(
            c == b',' || c == close,
            "expected `,` or `{}` at {}",
            close as char,
            self.i
        );
        self.i += 1;
        c == close
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.b[self.i] {
            b'{' => {
                self.i += 1;
                let mut members = Vec::new();
                self.ws();
                if self.b[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(members);
                }
                loop {
                    self.ws();
                    let key = self.string();
                    self.eat(b':');
                    members.push((key, self.value()));
                    if self.close(b'}') {
                        return Json::Obj(members);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.b[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    if self.close(b']') {
                        return Json::Arr(items);
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            b't' => self.word("true", Json::Bool(true)),
            b'f' => self.word("false", Json::Bool(false)),
            b'n' => self.word("null", Json::Null),
            _ => {
                let start = self.i;
                while self.i < self.b.len() && b"+-.eE0123456789".contains(&self.b[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.b[start..self.i]).unwrap();
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number `{text}`")),
                )
            }
        }
    }

    fn word(&mut self, w: &str, v: Json) -> Json {
        assert!(self.b[self.i..].starts_with(w.as_bytes()));
        self.i += w.len();
        v
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        loop {
            let c = self.b[self.i];
            self.i += 1;
            match c {
                b'"' => return out,
                b'\\' => {
                    let e = self.b[self.i];
                    self.i += 1;
                    match e {
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = std::str::from_utf8(&self.b[self.i..self.i + 4]).unwrap();
                            out.push(
                                char::from_u32(u32::from_str_radix(hex, 16).unwrap()).unwrap(),
                            );
                            self.i += 4;
                        }
                        other => out.push(other as char),
                    }
                }
                _ => {
                    // Copy a whole UTF-8 sequence at once.
                    let start = self.i - 1;
                    while self.i < self.b.len() && self.b[self.i] & 0xC0 == 0x80 {
                        self.i += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.b[start..self.i]).unwrap());
                }
            }
        }
    }
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn read_json(path: &Path) -> Json {
    Json::parse(
        &std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display())),
    )
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(bench: &Json, list: &str) -> Vec<(String, String)> {
    bench
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

/// Run the benchmark at tiny size and return its parsed result line.
fn run(workload: &str, trace: u8) -> Json {
    let out_dir =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--tiny", "--out"])
        .arg(&out_dir)
        .output()
        .expect("spawn perfbench");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 stdout");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload}/{trace} exited {:?}: {stderr}",
        out.status
    );
    let last = stdout
        .lines()
        .last()
        .unwrap_or_else(|| panic!("no output: {stderr}"));
    let result = Json::parse(last);
    assert_eq!(
        result.get("correct"),
        &Json::Bool(true),
        "{workload}/{trace}: {stderr}"
    );
    assert_eq!(
        result.get("failed").num(),
        0.0,
        "{workload}/{trace}: {stderr}"
    );
    assert!(result.get("attempted").num() >= 1.0);
    let keys: Vec<&str> = result.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    result
}

#[test]
fn every_declared_metric_is_printed_with_its_unit_and_checks_pass() {
    let bench = read_json(&repo_root().join("BENCHMARK.json"));
    let workloads: Vec<&str> = bench
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    for w in &workloads {
        for (trace, list) in [(0, "end_to_end"), (1, "per_layer")] {
            let result = run(w, trace);
            let printed: Vec<(String, String)> = result
                .get("metrics")
                .members()
                .iter()
                .map(|(name, m)| {
                    assert!(m.get("value").num().is_finite());
                    (name.clone(), m.get("unit").str().to_string())
                })
                .collect();
            assert_eq!(printed, declared(&bench, list), "{w} --trace {trace}");
            let value = |name: &str| result.get("metrics").get(name).get("value").num();
            if trace == 0 {
                assert!(value("hosts_per_sec") > 0.0 && value("setup_s") > 0.0);
                continue;
            }
            // The contrasts each workload exists for.
            let campaign = *w == "campaign-chaos";
            assert_eq!(value("checkpoint.writes") > 0.0, campaign, "{w}");
            assert_eq!(value("checkpoint.bytes") > 0.0, campaign, "{w}");
            if *w == "census-jsonl" {
                assert_eq!(value("pipeline.baseline_us"), 0.0);
                assert_eq!(value("core.measure_attempts_per_host"), 0.0);
            } else {
                assert!(value("pipeline.measure_us") > 0.0, "{w}");
            }
        }
    }
}

#[test]
fn predictions_name_only_declared_metrics_and_workloads() {
    let bench = read_json(&repo_root().join("BENCHMARK.json"));
    let pred = read_json(&repo_root().join("perfbench/predictions.json"));
    let names = |list: &str| -> Vec<String> {
        declared(&bench, list).into_iter().map(|(n, _)| n).collect()
    };
    let (layer, e2e) = (names("per_layer"), names("end_to_end"));
    let workloads: Vec<&str> = bench
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    let described: Vec<&str> = pred
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(
        described, workloads,
        "predictions.json describes every workload, in order"
    );
    let mut covered = Vec::new();
    for p in pred.get("predictions").arr() {
        let m = p.get("layer_metric").str();
        assert!(layer.iter().any(|l| l == m), "undeclared layer metric {m}");
        covered.push(m.to_string());
        for e in p.get("moves").arr() {
            assert!(
                e2e.iter().any(|n| n == e.str()),
                "undeclared end-to-end metric {e:?}"
            );
        }
        for w in p.get("on").arr() {
            assert!(workloads.contains(&w.str()), "undeclared workload {w:?}");
        }
    }
    covered.sort();
    let mut all = layer.clone();
    all.sort();
    assert_eq!(
        covered, all,
        "every per-layer metric has exactly one prediction"
    );
    let seeds = pred.get("seeds");
    assert_ne!(seeds.get("default").num(), seeds.get("held_out").num());
}
