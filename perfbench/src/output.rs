//! What a run prints: a readable report, one `record` line for compare
//! mode, and, last, the one-line result the benchmark contract asks for.

use std::collections::BTreeMap;

use crate::host::Fingerprint;
use crate::json::quote;
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER, REPORTED};
use crate::workloads::{Measured, Outcome};

/// The metrics the result line carries: the end-to-end list, or with
/// `trace` the per-layer list.
pub fn result_metrics(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

fn number(x: f64) -> String {
    // `{:?}` prints the shortest text that reads back as the same f64.
    format!("{x:?}")
}

/// The readable report: every measured metric by name, value, unit and
/// sample count, then the notes and any gate failures.
pub fn report(outcome: &Outcome, seed: u64, trace: bool, host: &Fingerprint) -> String {
    let mut out = format!(
        "perfbench {} seed={seed} trace={}\nhost: nproc={} cpu={} profile={} commit={}\n",
        outcome.workload,
        u8::from(trace),
        host.nproc,
        quote(&host.cpu),
        host.profile,
        host.commit
    );
    for def in END_TO_END.iter().chain(REPORTED).chain(PER_LAYER) {
        if let Some(m) = outcome.get(def.name) {
            out.push_str(&format!(
                "  {:<26} {:>16.4} {:<6} n={}\n",
                m.name, m.value, m.unit, m.samples
            ));
        }
    }
    for note in &outcome.notes {
        out.push_str(&format!("  note: {note}\n"));
    }
    for f in &outcome.failures {
        out.push_str(&format!("  GATE FAILURE: {f}\n"));
    }
    out
}

fn metric_object(metrics: &[&Measured], with_samples: bool) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            let samples = if with_samples {
                format!(", \"samples\": {}", m.samples)
            } else {
                String::new()
            };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}{samples}}}",
                quote(m.name),
                number(m.value),
                quote(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The `record` line compare mode reads: every measured metric with its
/// sample count, the seed, and the host fingerprint.
pub fn record_line(outcome: &Outcome, seed: u64, trace: bool, host: &Fingerprint) -> String {
    let all: Vec<&Measured> = outcome.metrics.iter().collect();
    format!(
        "{{\"record\": {{\"workload\": {}, \"seed\": {seed}, \"trace\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"host\": {{\"nproc\": {}, \"cpu\": {}, \"profile\": {}, \"commit\": {}}}, \"metrics\": {}}}}}",
        quote(outcome.workload),
        u8::from(trace),
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        host.nproc,
        quote(&host.cpu),
        quote(host.profile),
        quote(&host.commit),
        metric_object(&all, true)
    )
}

/// The final result line. Fails if a metric the line must carry was not
/// measured.
pub fn result_line(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let mut picked = Vec::new();
    for def in result_metrics(trace) {
        let m = outcome
            .get(def.name)
            .ok_or_else(|| format!("metric {} was not measured", def.name))?;
        picked.push(m);
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        metric_object(&picked, false)
    ))
}

/// Total self time per span name, in ms, for the report's notes.
pub fn self_time_notes(outcome: &Outcome) -> Vec<String> {
    let Some(rec) = &outcome.recorder else {
        return Vec::new();
    };
    let mut by_name: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for (s, self_ns) in rec.spans().iter().zip(rec.self_times_ns()) {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += self_ns;
    }
    by_name
        .into_iter()
        .map(|(name, (n, ns))| {
            format!(
                "span {name}: {n} spans, {:.3} ms self time",
                ns as f64 / 1e6
            )
        })
        .collect()
}
