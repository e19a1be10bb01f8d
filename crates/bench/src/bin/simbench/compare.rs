//! `simbench --compare A.json B.json`: a verdict for every end-to-end
//! metric of every workload between two `--out` files, A the base.

use crate::report::{Better, Bound, Metric, WorkloadReport};
use elision_bench::metrics::{parse, Json};
use elision_bench::report::Table;
use std::fs;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// The run-to-run spread is wider than the bound, so a change within
    /// it cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The verdict on `b` against the base `a`; `None` without samples.
///
/// An exact metric is the same only when equal. Otherwise a change beyond
/// the bound, as a share of `a`'s median, is better or worse. When either
/// side's interquartile spread exceeds the bound the verdict is
/// unresolved, unless every sample of `b` beats every sample of `a`.
pub fn verdict(a: &Metric, b: &Metric) -> Option<Verdict> {
    let (sa, sb) = (a.summary()?, b.summary()?);
    let worse_by = match a.better {
        Better::Higher => sa.median - sb.median,
        Better::Lower => sb.median - sa.median,
    };
    let bound = match a.bound {
        Bound::Frac(f) if sa.median != 0.0 => f,
        _ => {
            return Some(match worse_by {
                w if w > 0.0 => Verdict::Worse,
                w if w < 0.0 => Verdict::Better,
                _ => Verdict::Same,
            })
        }
    };
    if sa.spread().max(sb.spread()) > bound {
        let min = |s: &[f64]| s.iter().copied().fold(f64::INFINITY, f64::min);
        let max = |s: &[f64]| s.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let all_better = match a.better {
            Better::Higher => min(&b.samples) > max(&a.samples),
            Better::Lower => max(&b.samples) < min(&a.samples),
        };
        return Some(if all_better { Verdict::Better } else { Verdict::Unresolved });
    }
    let rel = worse_by / sa.median.abs();
    Some(if rel > bound {
        Verdict::Worse
    } else if rel < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    })
}

/// The workload reports of an `--out` file.
pub fn load(path: &Path) -> Result<Vec<WorkloadReport>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    doc.get("workloads")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{}: no \"workloads\" array", path.display()))?
        .iter()
        .map(WorkloadReport::from_json)
        .collect()
}

fn quartiles(m: &Metric) -> String {
    m.summary().map_or("-".into(), |s| {
        format!("{} [{}, {}]", crate::fmt(s.median), crate::fmt(s.q1), crate::fmt(s.q3))
    })
}

/// Print the comparison; `Ok(false)` when some metric got worse.
pub fn run(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut table = Table::new(&[
        "workload",
        "metric",
        "unit",
        "A median [q1, q3]",
        "B median [q1, q3]",
        "delta",
        "bound",
        "verdict",
    ]);
    let mut worse = false;
    let mut notes = Vec::new();
    for wa in &a {
        let Some(wb) = b.iter().find(|w| w.workload == wa.workload) else {
            notes.push(format!("{}: missing from B", wa.workload));
            continue;
        };
        if wa.digest != wb.digest {
            notes.push(format!("{}: digest differs, A {} B {}", wa.workload, wa.digest, wb.digest));
        }
        for ma in &wa.metrics {
            let Some(mb) = wb.metric(&ma.name) else {
                notes.push(format!("{}: {} missing from B", wa.workload, ma.name));
                continue;
            };
            let v = verdict(ma, mb);
            worse |= v == Some(Verdict::Worse);
            let delta = match ma.summary().zip(mb.summary()) {
                Some((sa, sb)) if sa.median != 0.0 => {
                    format!("{:+.2}%", (sb.median - sa.median) / sa.median.abs() * 100.0)
                }
                _ => "-".into(),
            };
            table.row(vec![
                wa.workload.clone(),
                ma.name.clone(),
                ma.unit.clone(),
                quartiles(ma),
                quartiles(mb),
                delta,
                ma.bound.label(),
                v.map_or("no samples", Verdict::label).into(),
            ]);
        }
    }
    table.print();
    for n in &notes {
        println!("{n}");
    }
    Ok(!worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better, bound: Bound, samples: &[f64]) -> Metric {
        Metric { name: "m".into(), unit: "u".into(), better, bound, samples: samples.to_vec() }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let tight = [100.0, 101.0, 99.0, 100.5, 99.5];
        let a = metric(Better::Higher, Bound::Frac(0.10), &tight);
        let shifted = |k: f64| metric(Better::Higher, Bound::Frac(0.10), &tight.map(|v| v * k));
        assert_eq!(verdict(&a, &shifted(1.05)), Some(Verdict::Same));
        assert_eq!(verdict(&a, &shifted(0.95)), Some(Verdict::Same));
        assert_eq!(verdict(&a, &shifted(1.2)), Some(Verdict::Better));
        assert_eq!(verdict(&a, &shifted(0.8)), Some(Verdict::Worse));

        // Lower is better: the same shifts read the other way.
        let lower = |k: f64| metric(Better::Lower, Bound::Frac(0.10), &tight.map(|v| v * k));
        assert_eq!(verdict(&lower(1.0), &lower(1.2)), Some(Verdict::Worse));
        assert_eq!(verdict(&lower(1.0), &lower(0.8)), Some(Verdict::Better));
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_sample_wins() {
        let a = metric(Better::Higher, Bound::Frac(0.10), &[60.0, 80.0, 100.0, 120.0, 140.0]);
        let noisy_worse =
            metric(Better::Higher, Bound::Frac(0.10), &[50.0, 60.0, 70.0, 90.0, 130.0]);
        assert_eq!(verdict(&a, &noisy_worse), Some(Verdict::Unresolved));
        let clear_win = metric(Better::Higher, Bound::Frac(0.10), &[150.0, 160.0, 170.0]);
        assert_eq!(verdict(&a, &clear_win), Some(Verdict::Better));
    }

    #[test]
    fn exact_metrics_change_on_any_difference() {
        let a = metric(Better::Lower, Bound::Exact, &[1.25; 5]);
        assert_eq!(verdict(&a, &a.clone()), Some(Verdict::Same));
        assert_eq!(
            verdict(&a, &metric(Better::Lower, Bound::Exact, &[1.2500001])),
            Some(Verdict::Worse)
        );
        assert_eq!(
            verdict(&a, &metric(Better::Lower, Bound::Exact, &[1.2])),
            Some(Verdict::Better)
        );
        assert_eq!(verdict(&a, &metric(Better::Lower, Bound::Exact, &[])), None);
    }
}
