//! The benchmark's own arithmetic: metric naming, the percentile rule,
//! failure accounting, and the one-line JSON result.

use std::fmt::Write as _;

/// A reported percentile must leave at least this many samples above it.
pub const MIN_BEYOND: usize = 10;

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// A metric name starts with a letter or digit and holds at most 64
/// letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit holds 1 to 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Smallest sample count for which percentile `q` keeps [`MIN_BEYOND`]
/// samples above its nearest rank.
pub fn min_samples_for(q: f64) -> usize {
    (1..)
        .find(|&n| supported(n, q))
        .expect("some n supports q < 1")
}

fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

fn supported(n: usize, q: f64) -> bool {
    n > 0 && n - nearest_rank(n, q) >= MIN_BEYOND
}

/// Nearest-rank percentile `q` of `samples`, refused when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    let n = samples.len();
    if !supported(n, q) {
        return Err(format!(
            "p{} needs {} samples, have {n}",
            q * 100.0,
            min_samples_for(q)
        ));
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Ok(s[nearest_rank(n, q) - 1])
}

/// Median with no support rule (set-up repetitions, side measurements).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of nothing");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        0.5 * (s[m - 1] + s[m])
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// How one attempted operation ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fate {
    /// Completed with a verified answer after `latency_s`.
    Ok { latency_s: f64 },
    /// Completed, but the output check failed.
    Wrong,
    /// Completed without converging, or the call itself failed.
    Failed,
    /// Refused at admission.
    Refused,
    /// Admitted, then dropped before it ran.
    Shed,
}

/// Attempted / failed accounting over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    pub attempted: u64,
    pub ok: u64,
    pub wrong: u64,
    pub failed: u64,
    pub refused: u64,
    pub shed: u64,
    /// Verified operations that finished within the latency limit.
    pub within_limit: u64,
}

impl Tally {
    pub fn add(&mut self, fate: Fate, limit_s: f64) {
        self.attempted += 1;
        match fate {
            Fate::Ok { latency_s } => {
                self.ok += 1;
                if latency_s <= limit_s {
                    self.within_limit += 1;
                }
            }
            Fate::Wrong => self.wrong += 1,
            Fate::Failed => self.failed += 1,
            Fate::Refused => self.refused += 1,
            Fate::Shed => self.shed += 1,
        }
    }

    /// Failed + refused + shed + wrong.
    pub fn not_ok(&self) -> u64 {
        self.attempted - self.ok
    }

    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.not_ok() as f64 / self.attempted as f64
        }
    }

    /// Goodput: verified operations within the latency limit per second of
    /// schedule. Shed, refused, failed and wrong operations all miss.
    pub fn goodput(&self, schedule_s: f64) -> f64 {
        self.within_limit as f64 / schedule_s
    }
}

/// Render a number for JSON; the result line never carries NaN or ±inf.
fn json_number(v: f64) -> Result<String, String> {
    if v.is_finite() {
        Ok(format!("{v:?}"))
    } else {
        Err(format!("non-finite value {v}"))
    }
}

/// The benchmark's last stdout line.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        if !valid_name(&m.name) || !valid_unit(m.unit) {
            return Err(format!("bad metric name or unit: {} [{}]", m.name, m.unit));
        }
        if metrics[..i].iter().any(|o| o.name == m.name) {
            return Err(format!("metric {} reported twice", m.name));
        }
        let v = json_number(m.value).map_err(|e| format!("{}: {e}", m.name))?;
        if i > 0 {
            body.push_str(", ");
        }
        write!(
            body,
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        )
        .expect("write to String");
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        assert_eq!(min_samples_for(0.95), 200);
        assert_eq!(min_samples_for(0.5), 20);
        let s: Vec<f64> = (1..=199).map(f64::from).collect();
        assert!(percentile(&s, 0.95).is_err());
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        let p = percentile(&s, 0.95).unwrap();
        assert_eq!(p, 190.0);
        assert_eq!(s.iter().filter(|&&v| v > p).count(), MIN_BEYOND);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut s: Vec<f64> = (0..300).map(|i| ((i * 7919) % 300) as f64).collect();
        let a = percentile(&s, 0.5).unwrap();
        s.sort_by(f64::total_cmp);
        assert_eq!(a, percentile(&s, 0.5).unwrap());
        assert_eq!(a, 149.0);
    }

    #[test]
    fn metric_names_are_validated() {
        for ok in [
            "setup_s",
            "op_p95_ms",
            "precond.apply_us.evp",
            "serve.shed.queue_full",
            "9x",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "pcsi+evp", "a b", "ms/s", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("1/s") && valid_unit("%") && !valid_unit("") && !valid_unit("m s"));
        let bad = [Metric::new("pcsi+evp", 1.0, "ms")];
        assert!(result_line(true, 1, 0, &bad).is_err());
        let twice = [Metric::new("a", 1.0, "ms"), Metric::new("a", 2.0, "ms")];
        assert!(result_line(true, 1, 0, &twice).is_err());
        let nan = [Metric::new("a", f64::NAN, "ms")];
        assert!(result_line(true, 1, 0, &nan).is_err());
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let m = [Metric::new("latency_ms", 1.2034567890123, "ms")];
        let line = result_line(true, 3, 0, &m).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"latency_ms\": {\"value\": 1.2034567890123, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn goodput_counts_shed_as_missed() {
        let limit = 0.25;
        let mut t = Tally::default();
        t.add(Fate::Ok { latency_s: 0.1 }, limit);
        t.add(Fate::Ok { latency_s: 0.3 }, limit); // served, but late
        t.add(Fate::Shed, limit);
        t.add(Fate::Refused, limit);
        t.add(Fate::Wrong, limit);
        t.add(Fate::Failed, limit);
        assert_eq!(t.attempted, 6);
        assert_eq!(t.within_limit, 1);
        assert_eq!(t.goodput(2.0), 0.5);
        // The late request is served correctly: it misses the limit but
        // does not fail.
        assert_eq!(t.not_ok(), 4);
        assert!((t.fail_frac() - 4.0 / 6.0).abs() < 1e-15);
    }
}
