//! Spans and counter probes recorded by the traced run, kept in memory
//! and written as JSON lines when the run ends.
//!
//! Spans wrap the benchmark's own calls into the runtime: one root span
//! per epoch (its id is the epoch tag, the event timestamp every answer
//! of the epoch carries) with child spans around `submit_epoch` /
//! `submit_epoch_all`, `flush_epochs` and `drain_results`. Nothing
//! inside the runtime is instrumented.

use crate::stats;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Root spans use the epoch tag; their children `tag + n` for
    /// `n` from 1.
    pub id: u64,
    /// The enclosing epoch's root span, if any.
    pub parent: Option<u64>,
    /// What the span wraps.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start: u64,
    /// End, ns since the tracer's origin.
    pub end: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Cumulative counters read after an epoch.
#[derive(Debug, Clone, Default)]
pub struct Probe {
    /// The epoch tag the probe follows.
    pub epoch: u64,
    /// ns since the tracer's origin.
    pub at: u64,
    /// CPU ns per client worker thread.
    pub workers: Vec<u64>,
    /// CPU ns per proxy thread (relay or socket bridge).
    pub proxies: Vec<u64>,
    /// CPU ns per shard thread (aggregator or socket bridge).
    pub shards: Vec<u64>,
    /// Shares forwarded by the proxy threads.
    pub forwarded: u64,
    /// Broker records appended.
    pub records_in: u64,
    /// Broker bytes appended.
    pub bytes_in: u64,
    /// CPU ns per `privapprox-node` child, by label.
    pub children: Vec<(String, u64)>,
}

/// Records spans when enabled; otherwise only runs the wrapped calls.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    probes: Vec<Probe>,
    root: Option<(u64, u64)>,
    children: u64,
    loose: u64,
}

impl Tracer {
    /// A tracer that records (`enabled`) or stays out of the way.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            probes: Vec::new(),
            root: None,
            children: 0,
            loose: 0,
        }
    }

    /// True when spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// ns since the tracer's origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens the root span of the epoch tagged `tag`.
    pub fn begin_epoch(&mut self, tag: u64) {
        if self.enabled {
            self.root = Some((tag, self.now()));
            self.children = 0;
        }
    }

    /// Closes the open root span.
    pub fn end_epoch(&mut self) {
        if let Some((tag, start)) = self.root.take() {
            let end = self.now();
            self.spans.push(Span {
                id: tag,
                parent: None,
                name: "epoch",
                start,
                end,
            });
        }
    }

    /// Runs `f` inside a span called `name`, a child of the open root.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start = self.now();
        let out = f();
        let end = self.now();
        let (id, parent) = match self.root {
            Some((tag, _)) => {
                self.children += 1;
                (tag + self.children, Some(tag))
            }
            // Spans outside any epoch number from 1; epoch tags start
            // at half a window, far above.
            None => {
                self.loose += 1;
                (self.loose, None)
            }
        };
        self.spans.push(Span {
            id,
            parent,
            name,
            start,
            end,
        });
        out
    }

    /// Keeps a counter probe.
    pub fn probe(&mut self, probe: Probe) {
        if self.enabled {
            self.probes.push(probe);
        }
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every root span, in ns: its duration minus the time
    /// its child spans cover.
    pub fn root_self_times(&self) -> Vec<u64> {
        let mut kids: std::collections::HashMap<u64, Vec<(u64, u64)>> = Default::default();
        for s in &self.spans {
            if let Some(p) = s.parent {
                kids.entry(p).or_default().push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == "epoch")
            .map(|s| stats::self_time(s.start, s.end, kids.get(&s.id).map_or(&[][..], |v| v)))
            .collect()
    }

    /// Durations in ms of the spans called `name`, ascending.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur() as f64 / 1e6)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Writes every span (with its self time), every probe and the
    /// per-layer table as JSON lines.
    pub fn write_jsonl(&self, path: &Path, table: &[(String, f64, &str)]) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let roots = self.root_self_times();
        let mut root_self = roots.iter();
        for s in &self.spans {
            let self_ns = if s.parent.is_none() && s.name == "epoch" {
                *root_self.next().expect("one self time per root")
            } else {
                s.dur()
            };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"type\":\"span\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.id, parent, s.name, s.start, s.end, self_ns
            )?;
        }
        for p in &self.probes {
            let list = |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
            let children = p
                .children
                .iter()
                .map(|(l, c)| format!("\"{l}\":{c}"))
                .collect::<Vec<_>>()
                .join(",");
            writeln!(
                out,
                "{{\"type\":\"probe\",\"epoch\":{},\"at_ns\":{},\"workers_cpu_ns\":[{}],\"proxies_cpu_ns\":[{}],\"shards_cpu_ns\":[{}],\"forwarded\":{},\"records_in\":{},\"bytes_in\":{},\"children_cpu_ns\":{{{}}}}}",
                p.epoch,
                p.at,
                list(&p.workers),
                list(&p.proxies),
                list(&p.shards),
                p.forwarded,
                p.records_in,
                p.bytes_in,
                children
            )?;
        }
        for (name, value, unit) in table {
            writeln!(
                out,
                "{{\"type\":\"metric\",\"name\":\"{name}\",\"value\":{value},\"unit\":\"{unit}\"}}"
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.begin_epoch(30_000);
        assert_eq!(t.span("submit_epoch", || 7), 7);
        t.end_epoch();
        t.probe(Probe::default());
        assert!(t.spans().is_empty() && t.probes.is_empty());
    }

    #[test]
    fn children_hang_off_the_epoch_root() {
        let mut t = Tracer::new(true);
        t.begin_epoch(30_000);
        t.span("submit_epoch", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("drain_results", || ());
        t.end_epoch();
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, Some(30_000));
        assert_eq!(spans[1].id, 30_002);
        assert_eq!(spans[2].id, 30_000);
        let selfs = t.root_self_times();
        assert_eq!(selfs.len(), 1);
        assert!(selfs[0] < spans[2].dur() - spans[0].dur() + 1);
    }
}
