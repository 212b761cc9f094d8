//! Small statistics, hashing and randomness helpers shared by the
//! workloads. Nothing here touches the program under test.

use std::time::Instant;

/// One reported metric: name, value as measured, unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Shorthand constructor for [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// SplitMix64: the benchmark's only random source, so every input is a
/// pure function of `--seed`.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize
    }

    /// Exponential with the given rate.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        -(1.0 - self.next_f64()).ln() / rate
    }

    /// Poisson with the given mean (Knuth's product method; means here
    /// are below 10).
    pub fn poisson(&mut self, mean: f64) -> usize {
        let limit = (-mean).exp();
        let mut product = self.next_f64();
        let mut count = 0;
        while product > limit {
            product *= self.next_f64();
            count += 1;
        }
        count
    }
}

/// FNV-1a 64 over a byte stream: result fingerprints.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Fingerprint of a float vector, bit for bit.
pub fn fingerprint(values: &[f64]) -> u64 {
    fnv1a(values.iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

/// Nearest-rank index of quantile `q` in a sorted sample of `n`.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Samples strictly above the nearest-rank `q` quantile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, q)
    }
}

/// Percentiles the benchmark reports, highest last.
pub const PERCENTILES: [f64; 5] = [0.5, 0.9, 0.95, 0.99, 0.999];

/// The highest of [`PERCENTILES`] with at least ten samples beyond it,
/// or `None` when even the median lacks ten.
pub fn highest_supported(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .rev()
        .copied()
        .find(|&q| beyond(n, q) >= 10)
}

/// Nearest-rank quantile of an unsorted sample (`NaN` when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), q)]
}

/// Median as the mean of the two middle values for even counts.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// Median of repeated set-ups or jobs, after printing every sample to
/// standard error.
pub fn median_of(what: &str, seconds: &[f64]) -> f64 {
    eprintln!(
        "{what}: {} samples, seconds each: {seconds:?}",
        seconds.len()
    );
    median(seconds)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Runs `f` and returns its result with the wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Reads `name{…labels…} value` lines of a metrics exposition and sums
/// the values whose labels include every `(key, value)` filter pair.
pub fn exposition_sum(text: &str, name: &str, filter: &[(&str, &str)]) -> f64 {
    text.lines()
        .filter_map(|line| {
            let rest = line.strip_prefix(name)?;
            let (labels, value) = match rest.strip_prefix('{') {
                Some(r) => r.split_once("} ")?,
                None => ("", rest.strip_prefix(' ')?),
            };
            filter
                .iter()
                .all(|(k, v)| labels.contains(&format!("{k}=\"{v}\"")))
                .then(|| value.trim().parse::<f64>().ok())?
        })
        .sum()
}

/// `VmHWM` (peak resident set) of a process, in MB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{path}: no VmHWM line"))?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(highest_supported(1000), Some(0.99));
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(highest_supported(999), Some(0.95));
        assert_eq!(highest_supported(10_000), Some(0.999));
        assert_eq!(highest_supported(200), Some(0.95));
        assert_eq!(highest_supported(199), Some(0.9));
        assert_eq!(highest_supported(20), Some(0.5));
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(0), None);
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&values, 0.5), 50.0);
        assert_eq!(quantile(&values, 0.99), 99.0);
        assert_eq!(quantile(&values, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn exposition_sum_filters_by_labels() {
        let text =
            "# TYPE x counter\nx{a=\"1\",b=\"2\"} 3\nx{a=\"1\",b=\"3\"} 4\nx_sum 9\nxy 100\nx 5\n";
        assert_eq!(exposition_sum(text, "x", &[("a", "1")]), 7.0);
        assert_eq!(exposition_sum(text, "x", &[("b", "3")]), 4.0);
        assert_eq!(exposition_sum(text, "x", &[]), 12.0);
        assert_eq!(exposition_sum(text, "x_sum", &[]), 9.0);
    }

    #[test]
    fn poisson_mean_is_close() {
        let mut rng = SplitMix64::new(7);
        let n = 20_000;
        let total: usize = (0..n).map(|_| rng.poisson(4.8)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 4.8).abs() < 0.1, "{mean}");
    }
}
