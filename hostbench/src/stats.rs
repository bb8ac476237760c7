//! Order statistics, seed mixing and process memory readings.

use smokestack_vm::{canonical_event, Exit, RunOutcome};

/// Nearest-rank percentile (`p` in 0..=100) of `v`; 0 when empty.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Geometric mean of the positive values of `v`; 0 when there are none.
pub fn geomean(v: &[f64]) -> f64 {
    let logs: Vec<f64> = v.iter().filter(|x| **x > 0.0).map(|x| x.ln()).collect();
    if logs.is_empty() {
        0.0
    } else {
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }
}

/// Geometric mean over groups of each group's median, scaled by `scale`.
pub fn geomean_of_medians(groups: impl Iterator<Item = Vec<f64>>, scale: f64) -> f64 {
    geomean(&groups.map(|g| median(&g) * scale).collect::<Vec<_>>())
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Latency tail at a fixed percentile. Warns when fewer than ten
/// samples lie beyond it, since the figure is then not a tail estimate.
pub fn tail(v: &[f64], p: f64) -> f64 {
    let beyond = v.len() as f64 * (1.0 - p / 100.0);
    if beyond < 10.0 {
        eprintln!(
            "hostbench: only {beyond:.1} of {} samples lie beyond p{p}",
            v.len()
        );
    }
    percentile(v, p)
}

/// SplitMix64 finalizer over two words: how the benchmark derives every
/// program input from the `--seed` argument.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A field of `/proc/self/status` in KiB (`VmHWM`, `VmRSS`).
pub fn status_kib(field: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// What the correctness oracles compare between two runs: exit,
/// decicycles, instructions and an FNV-1a hash of the output events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digest {
    pub exit: Exit,
    pub decicycles: u64,
    pub insts: u64,
    pub output: u64,
}

impl Digest {
    pub fn of(out: &RunOutcome) -> Digest {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for ev in &out.output {
            for b in canonical_event(ev).bytes().chain([b'\n']) {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
        Digest {
            exit: out.exit.clone(),
            decicycles: out.decicycles,
            insts: out.insts,
            output: h,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_ne!(mix(1, 2), mix(2, 1));
    }
}
