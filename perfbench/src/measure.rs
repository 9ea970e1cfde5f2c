//! Measurement primitives: percentiles, process counters, digests, a
//! seeded generator and the metric record every workload reports.

use std::time::Instant;

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit string (`ms`, `s`, `count`, ...).
    pub unit: &'static str,
}

/// Builds a [`Metric`].
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of an already sorted slice;
/// 0 for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p).clamp(1, sorted.len()) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples, robust to
/// `p / 100 * n` landing a rounding error above a whole number.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0) * n as f64 - 1e-9).ceil().clamp(0.0, n as f64) as usize
}

/// Median of unsorted values; 0 for none.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Samples of a sorted slice that lie beyond its `p` percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The percentile a workload reports as `op_tail_ms`: the highest of
/// p99.9, p99 and p90 that leaves at least ten samples beyond it at the
/// workload's run length, or the median when none does. Each workload
/// fixes it, so every run of a workload reports the same percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile, 0..=100.
    pub p: f64,
    /// Its name in reports.
    pub label: &'static str,
}

/// p99.9.
pub const P99_9: Tail = Tail {
    p: 99.9,
    label: "p99.9",
};
/// p90.
pub const P90: Tail = Tail {
    p: 90.0,
    label: "p90",
};
/// The median: runs too short to resolve any tail percentile.
pub const P50: Tail = Tail {
    p: 50.0,
    label: "p50",
};

/// Process-wide user+system CPU time in milliseconds, from
/// `/proc/self/stat` (clock ticks of 10 ms, the Linux default `USER_HZ`).
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) * 10.0
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over bytes.
pub fn fnv64(bytes: &[u8]) -> u64 {
    fold(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a digest over more bytes.
pub fn fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// splitmix64: the seeded generator every workload derives inputs from.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated by `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// `worst symptom rank / intervals ranked`, in percent, for one job.
pub fn symptom_rank_pct(buggy_ranks: &[usize], samples: usize) -> Option<f64> {
    let worst = *buggy_ranks.iter().max()?;
    (samples > 0).then(|| 100.0 * worst as f64 / samples as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.9), 999.0);
        assert_eq!(beyond(v.len(), 99.9), 1);
        assert_eq!(percentile(&v, 90.0), 900.0);
        assert_eq!(beyond(v.len(), 90.0), 100);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn process_counters_read() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_ms() >= 0.0);
    }
}
