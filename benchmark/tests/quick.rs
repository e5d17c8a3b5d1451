//! Runs every workload in `--quick` mode, untraced and traced, and fails if
//! a name in `BENCHMARK.json` is missing from the output or printed without
//! its unit, or if a run's own correctness check fails.

use std::path::Path;
use std::process::Command;

/// Every `"name": "…"` that follows `section` in BENCHMARK.json up to the
/// closing bracket of that array. The file is flat enough that scanning
/// beats carrying a JSON parser.
fn names(spec: &str, section: &str) -> Vec<(String, String)> {
    let start = spec
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &spec[start..];
    let body = &body[..body.find(']').expect("array closes")];
    let field = |obj: &str, key: &str| -> Option<String> {
        let at = obj.find(&format!("\"{key}\""))?;
        let rest = &obj[at + key.len() + 2..];
        let open = rest.find('"')?;
        let rest = &rest[open + 1..];
        Some(rest[..rest.find('"')?].to_string())
    };
    body.split('{')
        .skip(1)
        .map(|obj| {
            (
                field(obj, "name").expect("entry has a name"),
                field(obj, "unit").unwrap_or_default(),
            )
        })
        .collect()
}

fn run(workload: &str, trace: &str, out: &Path) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_music-benchmark"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "20"])
        .args(["--trace", trace, "--quick", "--out"])
        .arg(out)
        .output()
        .expect("run music-benchmark");
    assert!(
        output.status.success(),
        "{workload} --trace {trace} exited with {:?}",
        output.status
    );
    String::from_utf8(output.stdout).expect("utf-8 output")
}

#[test]
fn every_named_metric_is_printed_with_its_unit() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let spec = std::fs::read_to_string(manifest.join("../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repo root");
    let out = std::env::temp_dir().join(format!("music-benchmark-test-{}", std::process::id()));
    let workloads = names(&spec, "workloads");
    assert_eq!(workloads.len(), 6, "six workloads");
    for (workload, _) in &workloads {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let stdout = run(workload, trace, &out);
            let last = stdout.lines().last().expect("a result line");
            assert!(
                last.starts_with("{\"correct\": true, "),
                "{workload} --trace {trace}: {}",
                stdout
                    .lines()
                    .filter(|l| l.starts_with('#'))
                    .collect::<Vec<_>>()
                    .join("\n")
            );
            let metrics = names(&spec, section);
            assert!(!metrics.is_empty());
            for (name, unit) in &metrics {
                assert!(!unit.is_empty(), "{name} has no unit in BENCHMARK.json");
                let entry = last
                    .split_once(&format!("\"{name}\": {{\"value\": "))
                    .and_then(|(_, rest)| rest.split_once('}'))
                    .map(|(entry, _)| entry);
                assert!(
                    entry.is_some_and(|e| e.ends_with(&format!("\"unit\": \"{unit}\""))),
                    "{workload} --trace {trace}: `{name}` ({unit}) missing from the result line"
                );
                // The table for people carries the same name and unit.
                assert!(
                    stdout.lines().any(|l| {
                        let mut cols = l.split_whitespace();
                        cols.next() == Some(workload.as_str())
                            && cols.next() == Some(name.as_str())
                            && cols.nth(1) == Some(unit.as_str())
                    }),
                    "{workload} --trace {trace}: `{name}` not in the table with unit {unit}"
                );
            }
            // Nothing is printed that BENCHMARK.json does not name.
            assert_eq!(
                last.matches("\"value\": ").count(),
                metrics.len(),
                "{workload} --trace {trace}: metric count differs from BENCHMARK.json"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&out);
}
