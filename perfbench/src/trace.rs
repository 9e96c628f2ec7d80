//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed from the benchmark's own files around
//! each call into a layer's public API; nothing inside the engines is
//! instrumented. Spans stay in memory and are written once, at exit.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span. Times are nanoseconds since the
/// trace began.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub workload: &'static str,
    pub seed: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// The spans of one traced run, in the order they were opened.
pub struct Trace {
    epoch: Instant,
    workload: &'static str,
    seed: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    pub fn new(workload: &'static str, seed: u64) -> Self {
        Trace {
            epoch: Instant::now(),
            workload,
            seed,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span whose parent is the innermost span still open.
    pub fn begin(&mut self, name: &str) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            workload: self.workload,
            seed: self.seed,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes the innermost open span, which must be `id`, and returns
    /// its duration in seconds.
    pub fn end(&mut self, id: usize) -> f64 {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].secs()
    }

    /// Runs `f` inside a span named `name`; returns its output and the
    /// span's duration in seconds.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.begin(name);
        let out = f();
        let secs = self.end(id);
        (out, secs)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span with its self time as one JSON document.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, render(&self.spans))
    }
}

/// Self time of every span: its duration minus the part of it that
/// its children's intervals cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

fn render(spans: &[Span]) -> String {
    let self_ns = self_times_ns(spans);
    let mut out = String::from("{\"spans\": [\n");
    for (i, (s, own)) in spans.iter().zip(self_ns).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
             \"self_ns\": {own}, \"parent\": {parent}, \"workload\": \"{}\", \"seed\": {}}}",
            s.name, s.start_ns, s.end_ns, s.workload, s.seed
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            workload: "test",
            seed: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)), // overlaps a: union 10..50
            span("a.1", 12, 18, Some(1)),
            span("c", 90, 120, Some(0)), // clipped to the parent's end
            span("other root", 200, 210, None),
        ];
        assert_eq!(
            self_times_ns(&spans),
            vec![100 - 40 - 10, 20 - 6, 30, 6, 30, 10]
        );
    }

    #[test]
    fn recorder_nests_spans_under_the_innermost_open_one() {
        let mut t = Trace::new("test", 7);
        let outer = t.begin("outer");
        let ((), _) = t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(outer);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[0].parent, None);
        assert!(s[1].start_ns >= s[0].start_ns && s[1].end_ns <= s[0].end_ns);
        let own = self_times_ns(s);
        assert_eq!(
            own[0],
            s[0].end_ns - s[0].start_ns - (s[1].end_ns - s[1].start_ns)
        );
        assert!(render(s).contains("\"name\": \"inner\""));
    }
}
