//! Compares two sets of benchmark results by the bounds `BENCHMARK.json`
//! fixes: a metric regressed when the new median is worse than the base
//! median by more than `bound` × the base median.

use fastjoin_core::json::Json;

use crate::median;

/// One end-to-end metric's regression rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether a lower value is better.
    pub lower_is_better: bool,
    /// Allowed worsening, as a share of the base median.
    pub bound: f64,
}

/// The `end_to_end` bounds of a `BENCHMARK.json` document.
pub fn bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc = Json::parse(benchmark_json)?;
    let list = doc.get("end_to_end").and_then(Json::as_arr).ok_or("no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).ok_or("metric without a name")?;
            let better = m.get("better").and_then(Json::as_str).ok_or("metric without 'better'")?;
            let bound = m.get("bound").and_then(Json::as_num).ok_or("metric without a bound")?;
            Ok(Bound { name: name.to_string(), lower_is_better: better == "lower", bound })
        })
        .collect()
}

/// The value of `metric` in one result line, if present.
pub fn metric(result_line: &str, name: &str) -> Option<f64> {
    Json::parse(result_line).ok()?.get("metrics")?.get(name)?.get("value")?.as_num()
}

/// The comparison of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// Median of the base runs.
    pub base: f64,
    /// Median of the new runs.
    pub new: f64,
    /// Whether the new median is worse than the bound allows.
    pub worse: bool,
}

/// Judges `new` runs against `base` runs of one metric.
pub fn judge(b: &Bound, base: &[f64], new: &[f64]) -> Verdict {
    let (base, new) = (median(base.to_vec()), median(new.to_vec()));
    let slack = b.bound * base.abs();
    let worse = if b.lower_is_better { new > base + slack } else { new < base - slack };
    Verdict { base, new, worse }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judges_in_the_metric_direction() {
        let tps = Bound { name: "tps".into(), lower_is_better: false, bound: 0.1 };
        assert!(judge(&tps, &[100.0, 101.0, 99.0], &[85.0, 86.0, 84.0]).worse);
        assert!(!judge(&tps, &[100.0, 101.0, 99.0], &[95.0, 92.0, 94.0]).worse);
        assert!(!judge(&tps, &[100.0], &[150.0]).worse);
        let ms = Bound { name: "ms".into(), lower_is_better: true, bound: 0.1 };
        assert!(judge(&ms, &[1.0, 1.0], &[1.2, 1.2]).worse);
        assert!(!judge(&ms, &[1.0, 1.0], &[0.5, 0.5]).worse);
    }

    #[test]
    fn reads_bounds_and_result_lines() {
        let doc =
            r#"{"end_to_end": [{"name": "a", "unit": "s", "better": "lower", "bound": 0.2}]}"#;
        assert_eq!(
            bounds(doc),
            Ok(vec![Bound { name: "a".into(), lower_is_better: true, bound: 0.2 }])
        );
        let line = r#"{"correct": true, "metrics": {"a": {"value": 1.5, "unit": "s"}}}"#;
        assert_eq!(metric(line, "a"), Some(1.5));
        assert_eq!(metric(line, "b"), None);
    }
}
