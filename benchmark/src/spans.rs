//! In-memory spans recorded from the benchmark's own files.
//!
//! A traced run wraps every call into the program (`step`, `run_for`,
//! `add_job`, `remove_job`) in a span.  Spans carry the id of the span
//! that was open when they started, are kept in memory for the whole
//! run, and are written out once at the end in the Chrome trace-event
//! format (load `out/trace_<workload>.json` in `chrome://tracing` or
//! <https://ui.perfetto.dev>).

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Marks a span without a parent.
pub const ROOT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index of the enclosing span in the log, or [`ROOT`].
    pub parent: u32,
    pub name: &'static str,
    /// Qualifier: `"ctl"` on a step that ran a controller cycle, empty
    /// otherwise.
    pub tag: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span store of one traced repetition.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanLog {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            parent: self.open.last().copied().unwrap_or(ROOT),
            name,
            tag: "",
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: u32, tag: &'static str) {
        let now = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.tag = tag;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in nanoseconds, of every span called `name` that
    /// passes `keep`.
    pub fn durations(&self, name: &str, keep: impl Fn(&Span) -> bool) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && keep(s))
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Self time of every span: its duration minus the part of that
    /// interval its direct children cover.  Children are clipped to the
    /// parent and overlapping children are counted once, so the covered
    /// part never exceeds the parent's duration.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                children[s.parent as usize].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(parent, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = parent.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(cursor);
                    let end = end.min(parent.end_ns);
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
                parent.dur_ns() - covered
            })
            .collect()
    }

    /// Writes the log as Chrome trace-event JSON.  Every event carries
    /// its own `id` and its `parent` (−1 at the root) in `args`.
    pub fn write_chrome_json(&self, path: &Path, workload: &str) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        write!(out, "{{\"otherData\":{{\"workload\":\"{workload}\"}},")?;
        write!(out, "\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.write_all(b",\n")?;
            }
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"bench\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"id\":{id},\"parent\":{parent},\"tag\":\"{}\"}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.tag,
            )?;
        }
        out.write_all(b"]}\n")?;
        out.flush()
    }
}

/// Opens a span if a log is being kept.
pub fn open(log: &mut Option<&mut SpanLog>, name: &'static str) -> Option<u32> {
    log.as_deref_mut().map(|l| l.begin(name))
}

/// Closes what [`open`] opened.
pub fn close(log: &mut Option<&mut SpanLog>, id: Option<u32>) {
    if let (Some(l), Some(id)) = (log.as_deref_mut(), id) {
        l.end(id, "");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_of(spans: &[(u32, u64, u64)]) -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: spans
                .iter()
                .map(|&(parent, start_ns, end_ns)| Span {
                    parent,
                    name: "s",
                    tag: "",
                    start_ns,
                    end_ns,
                })
                .collect(),
            open: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage() {
        // A slice of 100 with two children (20 + 30) and a grandchild.
        let log = log_of(&[(ROOT, 0, 100), (0, 10, 30), (0, 50, 80), (2, 55, 60)]);
        assert_eq!(log.self_times_ns(), vec![50, 20, 25, 5]);
    }

    #[test]
    fn child_coverage_never_exceeds_the_parent() {
        // Overlapping children and one that sticks out of the parent.
        let log = log_of(&[(ROOT, 10, 50), (0, 0, 30), (0, 20, 40), (0, 45, 90)]);
        let self_ns = log.self_times_ns();
        let parent = log.spans()[0].dur_ns();
        assert_eq!(self_ns[0], 5, "covered 10..40 and 45..50");
        assert!(parent - self_ns[0] <= parent);
    }

    #[test]
    fn begin_end_links_parents() {
        let mut log = SpanLog::new();
        let outer = log.begin("outer");
        let inner = log.begin("inner");
        log.end(inner, "ctl");
        log.end(outer, "");
        let after = log.begin("after");
        log.end(after, "");
        let s = log.spans();
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (ROOT, outer, ROOT));
        assert_eq!(s[1].tag, "ctl");
        assert!(s[1].start_ns >= s[0].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(log.durations("inner", |s| s.tag == "ctl").len(), 1);
    }
}
