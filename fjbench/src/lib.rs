//! The FastJoin benchmark: the threaded runtime end to end on three
//! workloads, and a traced single-threaded replay that prices each layer.
//! See `fjbench/README.md` for the metrics and what each one answers.

pub mod compare;
pub mod e2e;
pub mod layers;
pub mod procfs;
pub mod workload;

/// Median of `v` (0 when empty).
pub fn median(v: Vec<f64>) -> f64 {
    quantile(v, 0.5)
}

/// The `q` quantile of `v`, linearly interpolated between order
/// statistics (0 when empty).
pub fn quantile(mut v: Vec<f64>, q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![1.0, 2.0]), 1.5);
        assert_eq!(quantile(vec![0.0, 10.0], 0.99), 9.9);
        assert_eq!(median(Vec::new()), 0.0);
    }
}
