//! The benchmark's own arithmetic, free of I/O so every formula is
//! unit-tested: quantiles, median-window rates, level self times, wire
//! byte counts, kernel operation counts and CPU-steal parsing.

/// Nearest-rank quantile of an ascending-sorted, non-empty sample: the
/// smallest sample with at least a share `q` of the samples at or below it.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Ascending copy of `values` (total order; NaN never occurs in timings).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank median (the lower middle for an even count).
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// How many samples lie strictly above the nearest-rank `q` quantile
/// position — the tail a percentile is resolved from.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// Median-window throughput: consecutive frames are grouped into windows
/// of `window` frames (a trailing partial window is dropped), each window
/// yields its mean frame time, and the rate is `steps_per_frame` over the
/// median of those means. One host stall moves one window, not the result.
pub fn window_throughput(frame_secs: &[f64], steps_per_frame: f64, window: usize) -> f64 {
    let means: Vec<f64> = frame_secs
        .chunks_exact(window)
        .map(|w| w.iter().sum::<f64>() / window as f64)
        .collect();
    assert!(!means.is_empty(), "fewer frames than one window");
    steps_per_frame / median(&means)
}

/// Operations per second over a mix of `(operations, seconds)` parts: the
/// total operations over the total seconds.
pub fn typical_rate(mix: &[(f64, f64)]) -> f64 {
    let (ops, secs) = mix
        .iter()
        .fold((0.0, 0.0), |(n, t), &(dn, dt)| (n + dn, t + dt));
    ops / secs
}

/// The windows measured with the least CPU steal, in their original
/// order: every steal-free window when there are at least `min`, otherwise
/// the `min` windows with the fewest steal ticks. A vCPU descheduled by
/// the hypervisor stalls whatever was in flight, so a burst of steal moves
/// every window it overlaps, and bursts come and go within one run.
/// Windows past the end of `steal` are never chosen.
pub fn least_stolen<T: Clone>(windows: &[T], steal: &[u64], min: usize) -> Vec<T> {
    let mut order: Vec<usize> = (0..windows.len().min(steal.len())).collect();
    order.sort_by_key(|&i| (steal[i], i));
    let free = order.iter().take_while(|&&i| steal[i] == 0).count();
    let mut keep = order[..free.max(min).min(order.len())].to_vec();
    keep.sort_unstable();
    keep.iter().map(|&i| windows[i].clone()).collect()
}

/// Self time of each level in a stack measured outside-in: a level's time
/// minus the next (inner) level's; the innermost level keeps its whole
/// time. The self times telescope, so they sum to `levels[0]`.
pub fn self_times(levels: &[f64]) -> Vec<f64> {
    levels
        .iter()
        .enumerate()
        .map(|(i, &t)| t - levels.get(i + 1).copied().unwrap_or(0.0))
        .collect()
}

/// Bytes of one `kalmmind.ingest.v1` BATCH request on the wire: 4-byte
/// length prefix, version and type bytes, `u32` count, then per entry a
/// `u64` id, a `u16` length and the `f64` measurement.
pub fn request_bytes(z_lens: impl IntoIterator<Item = usize>) -> usize {
    10 + z_lens.into_iter().map(|z| 8 + 2 + 8 * z).sum::<usize>()
}

/// Bytes of one BATCH_REPLY on the wire: the same 10-byte header, then
/// per entry a `u64` id, a `u8` status, a `u16` length and the `f64` state.
pub fn reply_bytes(x_lens: impl IntoIterator<Item = usize>) -> usize {
    10 + x_lens.into_iter().map(|x| 8 + 1 + 2 + 8 * x).sum::<usize>()
}

/// Floating-point operations of one Kalman step with `x` states and `z`
/// channels, counted from the matrix shapes (a multiply-add is 2): the
/// predict, the innovation covariance `S`, the gain, the update, and the
/// inverse of `S` — `2z³` for Gauss–Jordan on a calc iteration, `approx`
/// Newton–Schulz iterations of `4z³ + z²` otherwise. Averaged over the
/// schedule: one calc step in every `calc_freq` (every step when it is 1).
pub fn kf_step_flops(x: usize, z: usize, approx: usize, calc_freq: u32) -> f64 {
    let (x, z) = (x as f64, z as f64);
    let predict = 2.0 * x * x + 4.0 * x * x * x + x * x;
    let innovation = 2.0 * z * x * x + 2.0 * z * z * x + z * z;
    let gain = 2.0 * x * x * z + 2.0 * x * z * z;
    let update = 2.0 * z * x + z + 2.0 * x * z + x + 2.0 * x * x * z + x + 2.0 * x * x * x;
    let calc = 2.0 * z * z * z;
    let newton = approx as f64 * (4.0 * z * z * z + z * z);
    let calc_share = 1.0 / f64::from(calc_freq.max(1));
    predict + innovation + gain + update + calc_share * calc + (1.0 - calc_share) * newton
}

/// Aggregate CPU tick counters from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuTicks {
    /// user + nice + system + idle + iowait + irq + softirq + steal
    /// (guest time is already inside user).
    pub total: u64,
    /// Ticks the hypervisor ran something else while a vCPU wanted to run.
    pub steal: u64,
}

/// Parses the aggregate `cpu` line of `/proc/stat`.
pub fn parse_proc_stat(text: &str) -> Option<CpuTicks> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    if fields.len() < 8 {
        return None;
    }
    Some(CpuTicks {
        total: fields.iter().sum(),
        steal: fields[7],
    })
}

/// Steal as a percentage of all ticks between two readings (0 when no
/// tick elapsed).
pub fn steal_pct(before: CpuTicks, after: CpuTicks) -> f64 {
    let total = after.total.saturating_sub(before.total);
    if total == 0 {
        return 0.0;
    }
    100.0 * after.steal.saturating_sub(before.steal) as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), 5.0);
        assert_eq!(quantile(&s, 0.99), 10.0);
        assert_eq!(quantile(&s, 0.1), 1.0);
        assert_eq!(quantile(&s, 0.11), 2.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_counts_behind_a_percentile() {
        assert_eq!(samples_beyond(10_000, 0.99), 100);
        assert_eq!(samples_beyond(10_100, 0.99), 101);
        assert_eq!(samples_beyond(100, 0.99), 1);
        assert_eq!(samples_beyond(0, 0.99), 0);
    }

    #[test]
    fn window_throughput_ignores_one_stalled_window() {
        // Three windows of two frames: 1 ms, 1 ms, and one 50 ms stall.
        let frames = [0.001, 0.001, 0.001, 0.001, 0.001, 0.099, 0.5];
        let rate = window_throughput(&frames, 250.0, 2);
        assert!((rate - 250_000.0).abs() < 1e-6, "{rate}");
    }

    #[test]
    fn typical_rate_of_a_mix() {
        // Two replaces (2 calls each) at 1 ms and one snapshot at 2 ms.
        let mix = [(4.0, 2.0 * 0.001), (1.0, 0.002)];
        assert!((typical_rate(&mix) - 1_250.0).abs() < 1e-9);
    }

    #[test]
    fn least_stolen_prefers_steal_free_windows() {
        let windows = [10, 20, 30, 40, 50];
        let steal = [0, 3, 0, 1, 2];
        assert_eq!(least_stolen(&windows, &steal, 2), vec![10, 30]);
        assert_eq!(least_stolen(&windows, &steal, 1), vec![10, 30]);
        // Too few steal-free windows: the least-stolen ones, in order.
        assert_eq!(least_stolen(&windows, &steal, 3), vec![10, 30, 40]);
        assert_eq!(least_stolen(&windows, &steal, 9), windows.to_vec());
        // Windows past the end of `steal` are never chosen.
        assert_eq!(least_stolen(&windows, &steal[..2], 2), vec![10, 20]);
    }

    #[test]
    fn self_times_telescope_to_the_outer_level() {
        let levels = [10.0, 7.5, 4.0, 3.0, 1.0];
        let st = self_times(&levels);
        assert_eq!(st, vec![2.5, 3.5, 1.0, 2.0, 1.0]);
        assert!((st.iter().sum::<f64>() - levels[0]).abs() < 1e-12);
    }

    #[test]
    fn protocol_byte_counts_match_the_wire_format() {
        // One (2,3) entry: 10 header + 8 id + 2 len + 24 payload.
        assert_eq!(request_bytes([3]), 44);
        // Its reply: 10 header + 8 id + 1 status + 2 len + 16 state.
        assert_eq!(reply_bytes([2]), 37);
        assert_eq!(request_bytes(std::iter::repeat_n(3, 250)), 10 + 250 * 34);
        assert_eq!(request_bytes([]), 10);
    }

    #[test]
    fn flop_count_by_schedule() {
        // x = 1, z = 1: predict 7, innovation 5, gain 4, update 11, calc 2,
        // one Newton iteration 5.
        assert_eq!(kf_step_flops(1, 1, 1, 1), 29.0);
        assert_eq!(kf_step_flops(1, 1, 1, 2), 27.0 + 0.5 * 2.0 + 0.5 * 5.0);
        // More Newton iterations cost more only off the calc steps.
        assert!(kf_step_flops(6, 46, 3, 4) > kf_step_flops(6, 46, 2, 4));
        assert_eq!(kf_step_flops(6, 46, 3, 1), kf_step_flops(6, 46, 2, 1));
    }

    #[test]
    fn steal_from_proc_stat() {
        let a = "cpu  100 0 50 800 10 0 5 35 7 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n";
        let b = "cpu  150 0 60 900 10 0 5 75 9 0\n";
        let (a, b) = (parse_proc_stat(a).unwrap(), parse_proc_stat(b).unwrap());
        assert_eq!(
            a,
            CpuTicks {
                total: 1000,
                steal: 35
            }
        );
        assert_eq!(b.total, 1200);
        assert!((steal_pct(a, b) - 20.0).abs() < 1e-12);
        assert_eq!(steal_pct(a, a), 0.0);
        assert_eq!(parse_proc_stat("cpu0 1 2 3\n"), None);
        assert_eq!(parse_proc_stat("cpu  1 2 3\n"), None);
    }
}
