//! An outside ledger of spans around calls into each layer.
//!
//! Spans (name, start, end, parent) are kept in memory and written as JSON
//! lines when the run ends. A disabled ledger records nothing, so the
//! untraced run pays one branch per call site.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Sub-label, e.g. the solver/preconditioner combination.
    pub tag: &'static str,
    /// Seconds since the ledger's epoch.
    pub start: f64,
    pub end: f64,
    pub parent: Option<SpanId>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

pub struct Ledger {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Ledger {
    pub fn new(epoch: Instant, enabled: bool) -> Ledger {
        Ledger {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Record a span whose endpoints the caller timed.
    pub fn add(
        &mut self,
        name: &'static str,
        tag: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            tag,
            start: start.saturating_duration_since(self.epoch).as_secs_f64(),
            end: end.saturating_duration_since(self.epoch).as_secs_f64(),
            parent,
        });
        Some(self.spans.len() - 1)
    }

    /// Time `f` and record it as a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        tag: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        self.add(name, tag, parent, t0, t1);
        (r, (t1 - t0).as_secs_f64())
    }

    /// Open a span whose end is not yet known; close it with [`Ledger::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        tag: &'static str,
        parent: Option<SpanId>,
    ) -> Option<SpanId> {
        let now = Instant::now();
        self.add(name, tag, parent, now, now)
    }

    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end = self.epoch.elapsed().as_secs_f64();
        }
    }

    /// Append another ledger's spans (same epoch), keeping parent links.
    pub fn merge(&mut self, other: Ledger) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span with this name (and tag, unless empty).
    pub fn durations(&self, name: &str, tag: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && (tag.is_empty() || s.tag == tag))
            .map(Span::secs)
            .collect()
    }

    /// Each span's self time: its duration minus the part of its interval
    /// that the union of its children covers.
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut covered = 0.0;
                let mut cur: Option<(f64, f64)> = None;
                for (a, b) in kids {
                    let (a, b) = (a.max(s.start), b.min(s.end));
                    if b <= a {
                        continue;
                    }
                    cur = match cur {
                        Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
                s.secs() - covered
            })
            .collect()
    }

    /// Write one JSON object per span, with its self time.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for (i, (s, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"tag\": \"{}\", \"start_s\": {:?}, \"end_s\": {:?}, \
                 \"parent\": {parent}, \"self_s\": {:?}}}",
                s.name, s.tag, s.start, s.end, own
            )
            .expect("write to String");
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        f.write_all(out.as_bytes())?;
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(epoch: Instant, ms: u64) -> Instant {
        epoch + Duration::from_millis(ms)
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let e = Instant::now();
        let mut l = Ledger::new(e, true);
        let root = l.add("op", "", None, at(e, 0), at(e, 100));
        // Two overlapping children cover 10..50, a third 60..70, and one
        // sticks out past the parent's end (clipped to 90..100).
        l.add("a", "", root, at(e, 10), at(e, 40));
        l.add("b", "", root, at(e, 30), at(e, 50));
        let c = l.add("c", "", root, at(e, 60), at(e, 70));
        l.add("d", "", root, at(e, 90), at(e, 120));
        l.add("c.child", "", c, at(e, 62), at(e, 65));
        let own = l.self_times();
        assert!((own[0] - 0.040).abs() < 1e-9, "{}", own[0]);
        assert!((own[3] - 0.007).abs() < 1e-9, "{}", own[3]);
        assert!(
            (own[5] - 0.003).abs() < 1e-9,
            "leaf self time is its duration"
        );
    }

    #[test]
    fn disabled_ledger_records_nothing_and_merge_keeps_parents() {
        let e = Instant::now();
        let mut off = Ledger::new(e, false);
        assert!(off.add("x", "", None, e, e).is_none());
        let (v, _) = off.time("y", "", None, || 7);
        assert_eq!(v, 7);
        assert!(off.spans().is_empty());

        let mut a = Ledger::new(e, true);
        a.add("a", "", None, e, at(e, 1));
        let mut b = Ledger::new(e, true);
        let p = b.add("p", "", None, e, at(e, 5));
        b.add("k", "", p, e, at(e, 2));
        a.merge(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.durations("p", "").len(), 1);
    }
}
