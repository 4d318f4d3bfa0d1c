//! `perfbench`: the seeded benchmark of the parsim k-NN engine.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload uniform-scan --seed 1 --seconds 15 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --compare base.txt change.txt
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --manifest > BENCHMARK.json
//! ```
//!
//! A run prints a readable report, a `record` line for compare mode, and
//! as its last line the JSON result: `correct`, `attempted`, `failed`,
//! and the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). The traced run also writes its spans to
//! `.perfbench/spans-<workload>-<seed>.jsonl`. The exit code is 0 for a
//! correct run, 1 when the correctness gate failed, 2 for bad arguments
//! or a run that could not complete.

mod compare;
mod gate;
mod host;
mod json;
mod kernel;
mod metrics;
mod output;
mod spans;
mod stats;
mod workloads;

use std::path::Path;

use workloads::{Plan, Workload};

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --compare <baseline-output> <change-output>\n       perfbench --manifest";

fn main() {
    let code = match run(std::env::args().skip(1).collect()) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    };
    std::process::exit(code);
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut flags = std::collections::BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        flags.insert(flag.as_str(), value.as_str());
    }
    let get = |name: &str| {
        flags
            .get(name)
            .copied()
            .ok_or_else(|| format!("missing {name}\n{USAGE}"))
    };
    if let Some(unknown) = flags
        .keys()
        .find(|k| !["--workload", "--seed", "--seconds", "--trace"].contains(k))
    {
        return Err(format!("unknown argument {unknown}\n{USAGE}"));
    }
    let name = get("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed must be a whole number")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run(args: Vec<String>) -> Result<i32, String> {
    match args.first().map(String::as_str) {
        Some("--manifest") => {
            print!("{}", metrics::manifest());
            return Ok(0);
        }
        Some("--compare") => {
            let [_, a, b] = args.as_slice() else {
                return Err(USAGE.into());
            };
            let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
            let (a, b) = (
                compare::parse_results(&read(a)?)?,
                compare::parse_results(&read(b)?)?,
            );
            print!("{}", compare::report(&a, &b));
            return Ok(0);
        }
        _ => {}
    }
    let args = parse_args(&args)?;
    let host = host::Fingerprint::collect(Path::new("."));
    let mut outcome = workloads::run(
        &Plan::full(args.workload),
        args.seed,
        args.seconds,
        args.trace,
    )?;
    if let Some(rec) = &outcome.recorder {
        let dir = Path::new(".perfbench");
        let path = dir.join(format!("spans-{}-{}.jsonl", outcome.workload, args.seed));
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|f| rec.write_jsonl(std::io::BufWriter::new(f)))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        outcome
            .notes
            .push(format!("spans written to {}", path.display()));
    }
    let notes = output::self_time_notes(&outcome);
    outcome.notes.extend(notes);
    let last = output::result_line(&outcome, args.trace)?;
    print!("{}", output::report(&outcome, args.seed, args.trace, &host));
    println!(
        "{}",
        output::record_line(&outcome, args.seed, args.trace, &host)
    );
    println!("{last}");
    Ok(if outcome.correct { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::metrics::{END_TO_END, PER_LAYER, REPORTED};

    fn manifest_file() -> String {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    #[test]
    fn the_committed_manifest_is_the_generated_one() {
        assert_eq!(manifest_file(), metrics::manifest());
    }

    #[test]
    fn every_manifest_metric_is_printed_with_its_unit_on_every_workload() {
        let manifest = Json::parse(&manifest_file()).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            manifest
                .get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field =
                        |f: &str| m.get(f).and_then(Json::as_str).expect("field").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let workloads: Vec<&str> = manifest
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workload list")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
        let host = host::Fingerprint::collect(Path::new(env!("CARGO_MANIFEST_DIR")));
        for workload in Workload::ALL {
            for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
                let outcome = workloads::run(&Plan::tiny(workload), 3, 0.8, trace)
                    .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
                assert!(
                    outcome.correct,
                    "{}: {:?}",
                    workload.name(),
                    outcome.failures
                );
                assert_eq!(outcome.failed, 0);
                let line = output::result_line(&outcome, trace).expect("every metric measured");
                let result = Json::parse(&line).expect("result line parses");
                let keys: Vec<&String> = result.as_object().expect("object").keys().collect();
                assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
                let printed = result
                    .get("metrics")
                    .and_then(Json::as_object)
                    .expect("metrics");
                let expected = names(key);
                assert_eq!(printed.len(), expected.len());
                let report = output::report(&outcome, 3, trace, &host);
                for (name, unit) in &expected {
                    let m = printed
                        .get(name)
                        .unwrap_or_else(|| panic!("{name} missing"));
                    assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
                    assert!(m
                        .get("value")
                        .and_then(Json::as_f64)
                        .is_some_and(f64::is_finite));
                    assert!(report.contains(name.as_str()), "{name} not in the report");
                }
                for (name, _) in names("end_to_end") {
                    let v = outcome.get(&name).map(|m| m.value);
                    assert!(v.is_some_and(|v| v > 0.0), "{name} reads {v:?}");
                }
                // The reported-only metrics appear exactly where their
                // operation runs; the batch phase runs untraced only.
                let reported: Vec<&str> = REPORTED
                    .iter()
                    .map(|m| m.name)
                    .filter(|n| outcome.get(n).is_some())
                    .collect();
                let mut want = vec!["query_p50_us", "query_p99_us", "ops_per_s"];
                if !trace {
                    want.push("batch_qps");
                }
                match workload {
                    Workload::UniformScan => {}
                    Workload::ClusteredApprox => {
                        want.extend(["approx_p50_us", "approx_p99_us", "recall_at_10"])
                    }
                    Workload::FourierIngest => want.extend(["write_p50_us", "write_p99_us"]),
                }
                want.push("error_rate");
                assert_eq!(reported, want, "{}", workload.name());
                for name in &reported[..3] {
                    assert!(outcome.get(name).is_some_and(|m| m.value > 0.0), "{name}");
                }
                let record = output::record_line(&outcome, 3, trace, &host);
                let set = compare::parse_results(&record).expect("record parses");
                assert_eq!(set.len(), outcome.metrics.len());
            }
        }
        assert_eq!(
            END_TO_END.len() + PER_LAYER.len(),
            names("end_to_end").len() + names("per_layer").len()
        );
    }

    #[test]
    fn bad_arguments_are_rejected() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&args(
            "--workload uniform-scan --seed 1 --seconds 2 --trace 0"
        ))
        .is_ok());
        assert!(parse_args(&args("--workload nope --seed 1 --seconds 2 --trace 0")).is_err());
        assert!(parse_args(&args(
            "--workload uniform-scan --seed x --seconds 2 --trace 0"
        ))
        .is_err());
        assert!(parse_args(&args(
            "--workload uniform-scan --seed 1 --seconds 2 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&args("--workload uniform-scan --seed 1 --seconds 2")).is_err());
        assert!(parse_args(&args(
            "--workload uniform-scan --seed 1 --seconds 2 --trace 0 --x 1"
        ))
        .is_err());
    }
}
