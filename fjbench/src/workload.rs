//! The three workloads, the deployment they all run on, and the join
//! oracle that checks their results.
//!
//! Inputs are generated in the benchmark process from the seed before any
//! timing starts; the runtime only ever receives the generated tuples.
//! Workloads differ in their input and the query's window, never in the
//! deployment.

use std::collections::HashMap;
use std::time::Instant;

use fastjoin_core::config::{FastJoinConfig, SelectorKind, WindowConfig};
use fastjoin_core::tuple::{Key, Side, Tuple};
use fastjoin_datagen::{KeySpace, RideHailConfig, RideHailGen};
use fastjoin_runtime::RuntimeConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["ridehail_skew", "uniform_window", "mega_key"];

/// Join instances per group.
pub const INSTANCES: usize = 4;
/// Load-imbalance threshold Θ (the paper's value).
pub const THETA: f64 = 2.2;
/// Monitor sampling period.
pub const MONITOR_PERIOD_MS: u64 = 25;
/// Minimum spacing between migration rounds, µs.
pub const COOLDOWN_US: u64 = 100_000;

/// One generated workload.
pub struct Workload {
    /// Workload name (one of [`NAMES`]).
    pub name: &'static str,
    /// The input, in arrival order. Event times are restamped by the
    /// spout at send time, so the generated `ts` only matters to the
    /// single-threaded replay, which assigns its own.
    pub tuples: Vec<Tuple>,
    /// The query's sliding window (`None` = full history).
    pub window: Option<WindowConfig>,
    /// Offered load of the paced phase, tuples per second.
    pub rate: f64,
    /// Wall seconds the generator took.
    pub gen_s: f64,
}

impl Workload {
    /// Generates workload `name` from `seed`; `None` for an unknown name.
    pub fn generate(name: &str, seed: u64) -> Option<Workload> {
        let started = Instant::now();
        let (name, tuples, window, rate) = match name {
            // The paper's DiDi substitute: 80/20 tiered skew over 2,000
            // cells, 1:4 orders:tracks. The hottest cell is small, so whole-
            // key migration can balance it.
            "ridehail_skew" => {
                let cfg = RideHailConfig {
                    locations: 2_000,
                    orders: 120_000,
                    tracks: 480_000,
                    seed,
                    ..RideHailConfig::default()
                };
                ("ridehail_skew", RideHailGen::new(&cfg).collect(), None, 100_000.0)
            }
            // Uniform keys and a 4×50 ms window: bounded state, inserts
            // beside expiries, nothing for the balancer to do.
            "uniform_window" => {
                let cells = KeySpace::new(2_000, seed);
                let mut rng = StdRng::seed_from_u64(seed);
                let tuples = (0..300_000u64)
                    .map(|i| {
                        let key = cells.key_of_rank(rng.gen_range(1..=2_000u64));
                        side_1_in_5(&mut rng, key, i)
                    })
                    .collect();
                let window = WindowConfig { sub_windows: 4, sub_window_len: 50_000 };
                ("uniform_window", tuples, Some(window), 100_000.0)
            }
            // The adversarial case: one key carries 75% of the traffic.
            // Its bucket scan is quadratic and no whole-key move fixes it.
            "mega_key" => {
                let keys = KeySpace::new(97, seed);
                let mut rng = StdRng::seed_from_u64(seed);
                let tuples = (0..60_000u64)
                    .map(|i| {
                        let rank =
                            if rng.gen::<f64>() < 0.75 { 1 } else { rng.gen_range(2..=97u64) };
                        side_1_in_5(&mut rng, keys.key_of_rank(rank), i)
                    })
                    .collect();
                ("mega_key", tuples, None, 30_000.0)
            }
            _ => return None,
        };
        Some(Workload { name, tuples, window, rate, gen_s: started.elapsed().as_secs_f64() })
    }

    /// The deployment every workload runs on, with the spout throttled to
    /// `rate_limit` tuples/s (`None` = unthrottled).
    pub fn config(&self, rate_limit: Option<f64>) -> RuntimeConfig {
        RuntimeConfig {
            fastjoin: FastJoinConfig {
                instances_per_group: INSTANCES,
                theta: THETA,
                migration_cooldown: COOLDOWN_US,
                selector: SelectorKind::GreedyFit,
                window: self.window,
                ..FastJoinConfig::default()
            },
            monitor_period_ms: MONITOR_PERIOD_MS,
            rate_limit,
            ..RuntimeConfig::default()
        }
    }
}

/// One tuple in five is an R-side order, as in the 1:4 ride-hail mix.
fn side_1_in_5(rng: &mut StdRng, key: Key, i: u64) -> Tuple {
    if rng.gen_range(0..5u32) == 0 {
        Tuple::r(key, i, i)
    } else {
        Tuple::s(key, i, i)
    }
}

/// Exact number of joined pairs for `tuples` in arrival order: every pair
/// of opposite-side tuples with equal keys, where the earlier one is at
/// most `span` event-time units older than the later (`None` = full
/// history). Event times must be non-decreasing.
pub fn oracle_pairs(tuples: &[Tuple], span: Option<u64>) -> u64 {
    // Per key and side: event times of the tuples seen so far, oldest
    // first, with a cursor past the ones outside every later window.
    let mut seen: HashMap<(Key, Side), (Vec<u64>, usize)> = HashMap::new();
    let mut pairs = 0u64;
    for t in tuples {
        if let Some((ts, start)) = seen.get_mut(&(t.key, t.side.opposite())) {
            if let Some(span) = span {
                let min = t.ts.saturating_sub(span);
                while *start < ts.len() && ts[*start] < min {
                    *start += 1;
                }
            }
            pairs += (ts.len() - *start) as u64;
        }
        seen.entry((t.key, t.side)).or_default().0.push(t.ts);
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        for name in NAMES {
            let a = Workload::generate(name, 7).expect("known workload");
            let b = Workload::generate(name, 7).expect("known workload");
            let c = Workload::generate(name, 8).expect("known workload");
            assert_eq!(a.tuples, b.tuples, "{name}");
            assert_ne!(a.tuples, c.tuples, "{name}");
            a.config(None).validate().expect("valid deployment");
        }
        assert!(Workload::generate("nope", 1).is_none());
    }

    #[test]
    fn oracle_counts_cross_products_and_windows() {
        let t = [Tuple::r(1, 0, 0), Tuple::s(1, 5, 0), Tuple::s(1, 20, 0), Tuple::r(1, 21, 0)];
        assert_eq!(oracle_pairs(&t, None), 4);
        // Window 10: (r0,s5), (s20,r21) only.
        assert_eq!(oracle_pairs(&t, Some(10)), 2);
        let other_key = [Tuple::r(1, 0, 0), Tuple::s(2, 1, 0)];
        assert_eq!(oracle_pairs(&other_key, None), 0);
    }
}
