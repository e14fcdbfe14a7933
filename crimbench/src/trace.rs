//! Spans recorded around the benchmark's own calls into each layer, kept in
//! memory and written out when the run ends.
//!
//! A span's layer is its name up to the first `.` (`storage`, `crimson`,
//! `reconstruction`, `server`, or `bench` for the benchmark's own
//! grouping spans). Its self time is its duration minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::common::Samples;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Shared by every span of one request (or grid cell).
    pub req: u64,
    /// Counter deltas measured at the span's boundaries.
    pub counters: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span; returns its index (a parent for others).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end).max(self.ns(start)),
            parent,
            req,
            counters: Vec::new(),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Close a span recorded before its children, at `end`.
    pub fn finish(&mut self, span: usize, end: Instant) {
        self.spans[span].end_ns = self.ns(end);
    }

    pub fn counter(&mut self, span: usize, name: &'static str, delta: u64) {
        self.spans[span].counters.push((name, delta));
    }

    /// Append another thread's spans (same origin), re-basing parents.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations in µs of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Samples {
        let mut out = Samples::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            out.push(s.dur_ns() as f64 / 1e3);
        }
        out
    }

    /// Sum of counter `counter` over spans called `name`, and the number
    /// of such spans.
    pub fn counter_total(&self, name: &str, counter: &str) -> (u64, usize) {
        let mut total = 0;
        let mut spans = 0;
        for s in self.spans.iter().filter(|s| s.name == name) {
            spans += 1;
            total += s
                .counters
                .iter()
                .filter(|(c, _)| *c == counter)
                .map(|(_, v)| v)
                .sum::<u64>();
        }
        (total, spans)
    }

    /// Self time per span, ns: duration minus the union of its children.
    fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                s.dur_ns() - covered.min(s.dur_ns())
            })
            .collect()
    }

    /// Per layer: total self time in µs and the number of distinct request
    /// ids with a span in that layer.
    pub fn layer_self_us(&self) -> BTreeMap<&'static str, (f64, usize)> {
        let mut by_layer: BTreeMap<&'static str, (u64, Vec<u64>)> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            let entry = by_layer.entry(s.layer()).or_default();
            entry.0 += self_ns;
            entry.1.push(s.req);
        }
        by_layer
            .into_iter()
            .map(|(layer, (ns, mut reqs))| {
                reqs.sort_unstable();
                reqs.dedup();
                (layer, (ns as f64 / 1e3, reqs.len()))
            })
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let mut line = format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"req\": {}, \"counters\": {{",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.req
            );
            for (j, (c, v)) in s.counters.iter().enumerate() {
                let _ = write!(line, "{}\"{c}\": {v}", if j == 0 { "" } else { ", " });
            }
            line.push_str("}}");
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}
