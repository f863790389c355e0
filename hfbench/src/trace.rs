//! Span nesting, self time, and the trace file.
//!
//! Spans arrive as [`SpanRecord`]s on one clock per timeline (one rank
//! of one training run, or the benchmark's own recorder). Nesting is
//! recovered from interval containment, which is exact for spans
//! recorded by RAII guards on one thread.

use pdnn_obs::SpanRecord;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Parent of each span (an index into `spans`), by interval
/// containment on one timeline.
pub fn parents(spans: &[SpanRecord]) -> Vec<Option<usize>> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    // Outer spans first: earlier start, then later end.
    order.sort_by(|&a, &b| {
        spans[a]
            .start
            .total_cmp(&spans[b].start)
            .then(spans[b].end.total_cmp(&spans[a].end))
    });
    let mut parent = vec![None; spans.len()];
    let mut open: Vec<usize> = Vec::new();
    for i in order {
        while let Some(&top) = open.last() {
            if spans[top].end >= spans[i].end {
                break;
            }
            open.pop();
        }
        parent[i] = open.last().copied();
        open.push(i);
    }
    parent
}

/// Duration of each span minus the time its direct children cover.
pub fn self_seconds(spans: &[SpanRecord], parents: &[Option<usize>]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(SpanRecord::seconds).collect();
    for (i, p) in parents.iter().enumerate() {
        if let Some(p) = *p {
            own[p] -= spans[i].seconds();
        }
    }
    own
}

/// Spans of every traced run, kept in memory and written once at the
/// end of the benchmark.
#[derive(Default)]
pub struct TraceLog {
    lines: Vec<String>,
}

impl TraceLog {
    /// Append one timeline: spans of `run` on `rank` (`None` for the
    /// benchmark's own spans). Parents refer to line numbers in the
    /// file, so they stay valid across timelines.
    pub fn add(&mut self, run: usize, rank: Option<usize>, spans: &[SpanRecord]) {
        let base = self.lines.len();
        let rank = rank.map_or_else(|| "null".to_string(), |r| r.to_string());
        for (span, parent) in spans.iter().zip(parents(spans)) {
            let parent = parent.map_or_else(|| "null".to_string(), |p| (base + p).to_string());
            let id = self.lines.len();
            let mut line = String::new();
            let _ = write!(
                line,
                "{{\"id\":{id},\"run\":{run},\"rank\":{rank},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent}}}",
                escape(span.name()),
                span.start,
                span.end,
            );
            self.lines.push(line);
        }
    }

    /// Number of spans held.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether no span is held.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Write one JSON object per line, creating parent directories.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut text = self.lines.join("\n");
        text.push('\n');
        std::fs::write(path, text)
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdnn_obs::SpanKind;

    fn span(name: &'static str, start: f64, end: f64) -> SpanRecord {
        SpanRecord::new(name, SpanKind::Scalar, start, end)
    }

    #[test]
    fn nesting_and_self_time() {
        // Recorded in close order, as guards record them.
        let spans = vec![
            span("a", 1.0, 2.0),
            span("b", 2.5, 3.0),
            span("iter", 0.5, 4.0),
            span("c", 4.5, 5.0),
        ];
        let p = parents(&spans);
        assert_eq!(p, vec![Some(2), Some(2), None, None]);
        let own = self_seconds(&spans, &p);
        assert!((own[2] - 2.0).abs() < 1e-12);
        assert!((own[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn trace_lines_point_at_parent_lines() {
        let mut log = TraceLog::default();
        log.add(0, None, &[span("setup", 0.0, 1.0)]);
        log.add(
            1,
            Some(0),
            &[span("inner", 0.2, 0.3), span("outer", 0.0, 1.0)],
        );
        assert_eq!(log.len(), 3);
        assert!(log.lines[1].contains("\"parent\":2"));
        assert!(log.lines[2].contains("\"parent\":null"));
        assert!(log.lines[0].contains("\"rank\":null"));
    }
}
