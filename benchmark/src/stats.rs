//! The timing rule's arithmetic and the result line.

/// Element-wise minimum over laps: `out[i] = min over laps of laps[l][i]`.
///
/// Every lap replays the same op sequence on a fresh world, so op `i`
/// does identical work each time and the program is deterministic;
/// whatever makes one replay of it slower than another is interference
/// from outside, which only ever adds time. The minimum is therefore the
/// best estimate of the op's own cost. Laps may be prefixes of the full
/// sequence (the ablation series); the result has the shortest length.
pub fn lap_min(laps: &[&[u64]]) -> Vec<u64> {
    let n = laps.iter().map(|lap| lap.len()).min().unwrap_or(0);
    (0..n)
        .map(|i| {
            laps.iter()
                .map(|lap| lap[i])
                .min()
                .expect("at least one lap")
        })
        .collect()
}

/// Nearest-rank percentile of an unsorted sample: the smallest value with
/// at least `p` percent of the sample at or below it.
pub fn percentile(sample: &[u64], p: f64) -> u64 {
    assert!(!sample.is_empty() && (0.0..=100.0).contains(&p));
    let mut v = sample.to_vec();
    v.sort_unstable();
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of a float sample (mean of the middle two when even).
pub fn median(sample: &[f64]) -> f64 {
    assert!(!sample.is_empty());
    let mut v = sample.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric { name, unit, value }
    }
}

/// JSON has no NaN or infinity; a metric that could not be computed (a
/// zero denominator) is reported as 0 rather than breaking the line.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The contract's result line: exactly the keys `correct`, `attempted`,
/// `failed` and `metrics`. Hand-rolled like the rest of the repository's
/// JSON (no serde offline); metric names and units are compile-time
/// identifiers, so nothing needs escaping.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lap_min_takes_each_ops_best_lap() {
        let laps: [&[u64]; 3] = [&[10, 50, 30], &[12, 20, 31], &[11, 21, 29]];
        assert_eq!(lap_min(&laps), vec![10, 20, 29]);
    }

    #[test]
    fn lap_min_of_prefix_laps_has_the_shortest_length() {
        let laps: [&[u64]; 2] = [&[5, 6, 7, 8], &[4, 9]];
        assert_eq!(lap_min(&laps), vec![4, 6]);
        assert!(lap_min(&[]).is_empty());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=240).rev().collect();
        assert_eq!(percentile(&v, 50.0), 120);
        assert_eq!(percentile(&v, 95.0), 228); // 12 samples beyond it
        assert_eq!(percentile(&v, 100.0), 240);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 95.0), 7);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            true,
            1680,
            0,
            &[
                Metric::new("items_per_s", "1/s", 81.25),
                Metric::new("setup_s", "s", 0.1496),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1680, \"failed\": 0, \"metrics\": \
             {\"items_per_s\": {\"value\": 81.25, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0.1496, \"unit\": \"s\"}}}"
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn non_finite_values_stay_valid_json() {
        let line = result_line(false, 1, 1, &[Metric::new("x", "count", f64::NAN)]);
        assert!(line.contains("\"x\": {\"value\": 0, \"unit\": \"count\"}"));
    }
}
