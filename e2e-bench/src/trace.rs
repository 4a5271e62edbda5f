//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span is named `<layer>.<call>` (`core.apply`, `serving.wal_append`,
//! ...); the root span of an operation (`window`, `resume`, ...) belongs to
//! no layer and its self time is the residual the layers do not explain.
//! A disabled tracer records nothing and reads no clock.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Layers a span name can start with; anything else is a root span.
pub const LAYERS: [&str; 5] = ["graph", "core", "pregel", "serving", "routing"];

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub window: u64,
    /// Placed from a duration the library reported rather than timed here
    /// (the engine run inside `StreamSession::apply` / `partition`).
    pub reported: bool,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn layer(&self) -> Option<&'static str> {
        LAYERS.iter().copied().find(|l| self.name.split('.').next() == Some(*l))
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    window: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new(), window: 0 }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags subsequent spans with operation id `window`.
    pub fn set_window(&mut self, window: u64) {
        self.window = window;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            window: self.window,
            reported: false,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its duration.
    pub fn end(&mut self) -> Duration {
        if !self.enabled {
            return Duration::ZERO;
        }
        let id = self.open.pop().expect("end without begin");
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        Duration::from_nanos(span.ns())
    }

    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Records a child of the span closed last, `ns` long and ending where
    /// it ended, from a duration the library measured. Used for the engine
    /// run, which the library times inside the call that encloses it.
    pub fn reported_child(&mut self, name: &'static str, ns: u64) {
        if !self.enabled {
            return;
        }
        let enclosing = self.spans.len() - 1;
        let end_ns = self.spans[enclosing].end_ns;
        let ns = ns.min(self.spans[enclosing].ns());
        self.spans.push(Span {
            name,
            start_ns: end_ns - ns,
            end_ns,
            parent: Some(enclosing),
            window: self.window,
            reported: true,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in ms of every span called `name`, summed per window.
    pub fn per_window_ms(&self, name: &str) -> Vec<f64> {
        let mut sums: BTreeMap<u64, u64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *sums.entry(s.window).or_default() += s.ns();
        }
        sums.values().map(|&ns| ns as f64 / 1e6).collect()
    }

    /// Durations in ms of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.ns() as f64 / 1e6).collect()
    }

    /// Self times in ms of every span called `name`.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let self_ns = self.self_ns();
        self.spans
            .iter()
            .zip(self_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e6)
            .collect()
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover (children of one span never overlap: calls are
    /// sequential on one thread).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.ns();
            }
        }
        self.spans.iter().zip(covered).map(|(s, c)| s.ns().saturating_sub(c)).collect()
    }

    /// Total self time per layer in ms over the spans under a root span
    /// named in `roots`.
    pub fn layer_self_ms(&self, roots: &[&str]) -> BTreeMap<&'static str, f64> {
        // Parents precede their children, so one pass finds every root.
        let mut root_of = Vec::with_capacity(self.spans.len());
        for (id, s) in self.spans.iter().enumerate() {
            root_of.push(s.parent.map_or(id, |p| root_of[p]));
        }
        let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
        for ((s, ns), root) in self.spans.iter().zip(self.self_ns()).zip(root_of) {
            if !roots.contains(&self.spans[root].name) {
                continue;
            }
            if let Some(layer) = s.layer() {
                *out.get_mut(layer).expect("known layer") += ns as f64 / 1e6;
            }
        }
        out
    }

    /// Self time in ms of each root span called `root`: the part of the
    /// operation no layer's span explains.
    pub fn residual_ms(&self, root: &str) -> Vec<f64> {
        let self_ns = self.self_ns();
        self.spans
            .iter()
            .zip(self_ns)
            .filter(|(s, _)| s.name == root && s.parent.is_none())
            .map(|(_, ns)| ns as f64 / 1e6)
            .collect()
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"window\": {}, \"reported\": {}}}",
                s.name, s.start_ns, s.end_ns, s.window, s.reported
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new(true);
        t.begin("window");
        t.span("core.apply", || std::thread::sleep(Duration::from_millis(3)));
        t.reported_child("pregel.run", 1_000_000);
        t.span("serving.wal_append", || std::thread::sleep(Duration::from_millis(1)));
        t.end();
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1), "reported span nests under the call");
        assert_eq!(spans[2].end_ns, spans[1].end_ns);
        let self_ns = t.self_ns();
        assert_eq!(self_ns[1], spans[1].ns() - 1_000_000);
        let layers = t.layer_self_ms(&["window"]);
        assert!((layers["pregel"] - 1.0).abs() < 1e-9);
        let residual = t.residual_ms("window");
        assert_eq!(residual.len(), 1);
        let total_ms = spans[0].ns() as f64 / 1e6;
        let explained: f64 = layers.values().sum();
        assert!((total_ms - explained - residual[0]).abs() < 1e-6);
        assert_eq!(t.layer_self_ms(&["resume"])["core"], 0.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.begin("window");
        assert_eq!(t.span("core.apply", || 7), 7);
        t.reported_child("pregel.run", 5);
        assert_eq!(t.end(), Duration::ZERO);
        assert!(t.spans().is_empty());
    }
}
