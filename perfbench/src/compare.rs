//! Compare mode: reads two result sets and gives, per workload and
//! metric, each side's median and quartiles, the change of the median,
//! and a verdict.
//!
//! A result set is the captured standard output of any number of runs;
//! every run prints one `{"record": ...}` line. The verdict follows the
//! benchmark's rule for landing a change: a metric whose run-to-run
//! spread is wider than its bound is unresolved unless every run of the
//! change beats every run of the baseline; otherwise it is worse when
//! the change's median is worse by more than the bound, and better only
//! when the change wins at least nine tenths of the seed-paired runs and
//! the medians differ by more than the baseline's quartile spread.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::metrics::{def, Better};
use crate::stats::{median, quartiles};

/// The verdict on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change improves the metric.
    Better,
    /// The change worsens the metric by more than its bound.
    Worse,
    /// Within the bound, and no gain shown.
    Same,
    /// The run-to-run spread is wider than the bound.
    Unresolved,
    /// A per-layer metric: it has no bound, so no verdict.
    Info,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Same => "same",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "-",
        }
    }
}

/// One run's value of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunValue {
    /// The run's seed, used to pair baseline and change runs.
    pub seed: u64,
    /// The measured value.
    pub value: f64,
}

/// `(workload, metric)` → unit and the values of every run.
pub type ResultSet = BTreeMap<(String, String), (String, Vec<RunValue>)>;

/// Collects the record lines of a captured output.
pub fn parse_results(text: &str) -> Result<ResultSet, String> {
    let mut set = ResultSet::new();
    for line in text.lines().filter(|l| l.starts_with("{\"record\"")) {
        let doc = Json::parse(line)?;
        let rec = doc.get("record").ok_or("record line without a record")?;
        let workload = rec
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("record without a workload")?;
        let seed = rec
            .get("seed")
            .and_then(Json::as_f64)
            .ok_or("record without a seed")? as u64;
        let metrics = rec
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or("record without metrics")?;
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or("metric without a value")?;
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            set.entry((workload.to_string(), name.clone()))
                .or_insert_with(|| (unit.to_string(), Vec::new()))
                .1
                .push(RunValue { seed, value });
        }
    }
    Ok(set)
}

/// Median and quartiles of one side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Runs.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile (the median when there is one run).
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarizes `values`.
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        let med = median(&mut v);
        let (q1, q3) = quartiles(&mut v).unwrap_or((med, med));
        Summary {
            n: values.len(),
            median: med,
            q1,
            q3,
        }
    }

    /// Quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        relative(self.q3 - self.q1, self.median)
    }
}

fn relative(diff: f64, base: f64) -> f64 {
    if diff == 0.0 {
        0.0
    } else if base == 0.0 {
        f64::INFINITY.copysign(diff)
    } else {
        diff / base.abs()
    }
}

/// The verdict on a metric improving in direction `better` with bound
/// `bound`, from baseline runs `a` and change runs `b`.
pub fn verdict(better: Better, bound: Option<f64>, a: &[RunValue], b: &[RunValue]) -> Verdict {
    let Some(bound) = bound else {
        return Verdict::Info;
    };
    let values = |r: &[RunValue]| r.iter().map(|x| x.value).collect::<Vec<f64>>();
    let (sa, sb) = (Summary::of(&values(a)), Summary::of(&values(b)));
    // Positive when the change is better.
    let gain = |base: f64, new: f64| match better {
        Better::Lower => base - new,
        Better::Higher => new - base,
    };
    let all_better = a
        .iter()
        .all(|x| b.iter().all(|y| gain(x.value, y.value) > 0.0));
    if sa.spread() > bound || sb.spread() > bound {
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    let change = relative(gain(sa.median, sb.median), sa.median);
    if change < -bound {
        return Verdict::Worse;
    }
    let mut pairs: Vec<(f64, f64)> = a
        .iter()
        .filter_map(|x| {
            b.iter()
                .find(|y| y.seed == x.seed)
                .map(|y| (x.value, y.value))
        })
        .collect();
    if pairs.is_empty() {
        pairs = a.iter().zip(b).map(|(x, y)| (x.value, y.value)).collect();
    }
    let wins = pairs.iter().filter(|(x, y)| gain(*x, *y) > 0.0).count();
    let beyond_noise = gain(sa.median, sb.median) > sa.q3 - sa.q1;
    if !pairs.is_empty() && wins * 10 >= pairs.len() * 9 && beyond_noise {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// The comparison table of baseline `a` against change `b`.
pub fn report(a: &ResultSet, b: &ResultSet) -> String {
    let mut out = format!(
        "{:<18} {:<26} {:<6} {:>34} {:>34} {:>9}  verdict\n",
        "workload",
        "metric",
        "unit",
        "baseline median [q1, q3] (n)",
        "change median [q1, q3] (n)",
        "delta"
    );
    for ((workload, metric), (unit, ra)) in a {
        let Some((_, rb)) = b.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let v = def(metric).map_or(Verdict::Info, |d| verdict(d.better, d.bound, ra, rb));
        let summary = |r: &[RunValue]| Summary::of(&r.iter().map(|x| x.value).collect::<Vec<_>>());
        let (sa, sb) = (summary(ra), summary(rb));
        let side = |s: Summary| format!("{:.4} [{:.4}, {:.4}] ({})", s.median, s.q1, s.q3, s.n);
        let delta = relative(sb.median - sa.median, sa.median) * 100.0;
        out.push_str(&format!(
            "{workload:<18} {metric:<26} {unit:<6} {:>34} {:>34} {delta:>+8.2}%  {}\n",
            side(sa),
            side(sb),
            v.as_str()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(values: &[f64]) -> Vec<RunValue> {
        values
            .iter()
            .enumerate()
            .map(|(i, &value)| RunValue {
                seed: i as u64,
                value,
            })
            .collect()
    }

    const BASE: [f64; 10] = [
        100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 100.8, 99.2, 100.1, 99.9,
    ];

    #[test]
    fn a_clear_latency_cut_is_better() {
        let faster: Vec<f64> = BASE.iter().map(|x| x * 0.8).collect();
        assert_eq!(
            verdict(Better::Lower, Some(0.1), &runs(&BASE), &runs(&faster)),
            Verdict::Better
        );
    }

    #[test]
    fn a_latency_rise_beyond_the_bound_is_worse() {
        let slower: Vec<f64> = BASE.iter().map(|x| x * 1.3).collect();
        assert_eq!(
            verdict(Better::Lower, Some(0.1), &runs(&BASE), &runs(&slower)),
            Verdict::Worse
        );
    }

    #[test]
    fn a_small_shift_within_the_bound_is_the_same() {
        let nudged: Vec<f64> = BASE.iter().map(|x| x * 1.03).collect();
        assert_eq!(
            verdict(Better::Lower, Some(0.1), &runs(&BASE), &runs(&nudged)),
            Verdict::Same
        );
        // A gain inside the baseline's own noise is not claimed.
        let tiny_gain: Vec<f64> = BASE.iter().map(|x| x - 0.3).collect();
        assert_eq!(
            verdict(Better::Lower, Some(0.1), &runs(&BASE), &runs(&tiny_gain)),
            Verdict::Same
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy = [
            60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 65.0, 135.0, 100.0, 90.0,
        ];
        assert_eq!(
            verdict(Better::Lower, Some(0.1), &runs(&BASE), &runs(&noisy)),
            Verdict::Unresolved
        );
        // ...unless every changed run beats every baseline run.
        let noisy_but_faster: Vec<f64> = noisy.iter().map(|x| x * 0.3).collect();
        assert_eq!(
            verdict(
                Better::Lower,
                Some(0.1),
                &runs(&BASE),
                &runs(&noisy_but_faster)
            ),
            Verdict::Better
        );
    }

    #[test]
    fn throughput_gains_point_upward() {
        let more: Vec<f64> = BASE.iter().map(|x| x * 1.25).collect();
        assert_eq!(
            verdict(Better::Higher, Some(0.1), &runs(&BASE), &runs(&more)),
            Verdict::Better
        );
        assert_eq!(
            verdict(Better::Higher, Some(0.1), &runs(&more), &runs(&BASE)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(Better::Higher, None, &runs(&more), &runs(&BASE)),
            Verdict::Info
        );
    }

    #[test]
    fn an_error_rate_leaving_zero_is_worse() {
        let zero = [0.0; 10];
        let some = [0.01; 10];
        assert_eq!(
            verdict(Better::Lower, Some(0.0), &runs(&zero), &runs(&some)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(Better::Lower, Some(0.0), &runs(&zero), &runs(&zero)),
            Verdict::Same
        );
    }

    #[test]
    fn record_lines_are_grouped_by_workload_and_metric() {
        let text = "noise\n\
            {\"record\": {\"workload\": \"w\", \"seed\": 1, \"metrics\": {\"query_p50_us\": {\"value\": 2.5, \"unit\": \"us\", \"samples\": 9}}}}\n\
            {\"record\": {\"workload\": \"w\", \"seed\": 2, \"metrics\": {\"query_p50_us\": {\"value\": 3.5, \"unit\": \"us\", \"samples\": 9}}}}\n";
        let set = parse_results(text).expect("valid records");
        let (unit, values) = &set[&("w".to_string(), "query_p50_us".to_string())];
        assert_eq!(unit, "us");
        assert_eq!(
            values.iter().map(|v| v.value).collect::<Vec<_>>(),
            vec![2.5, 3.5]
        );
        // Two runs 40 % apart: the spread is wider than the bound.
        assert!(report(&set, &set).contains("unresolved"));
    }
}
