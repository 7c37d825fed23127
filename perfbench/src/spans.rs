//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call it makes into a crate's public entry
//! point in a span (name, start, end, parent, items processed). Spans
//! stay in memory until the run ends, when they are written out as JSON
//! lines and folded into per-layer self times. A disabled recorder runs
//! the wrapped closures and records nothing.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Entry point (or root) the span times.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Items (instructions, events, cell-events, ...) the call processed.
    pub items: u64,
}

impl Span {
    /// Wall time of the span in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
    /// `(root span, key, amount)` counts recorded at layer boundaries.
    counts: Vec<(usize, &'static str, u64)>,
}

/// Records spans and boundary counts; see the module docs.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    inner: RefCell<Inner>,
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotal {
    /// Summed wall time in nanoseconds.
    pub ns: u64,
    /// Summed items.
    pub items: u64,
    /// Number of calls.
    pub calls: u64,
}

impl NameTotal {
    /// Nanoseconds per item (0 when nothing was processed).
    #[must_use]
    pub fn ns_per_item(&self) -> f64 {
        if self.items == 0 {
            0.0
        } else {
            self.ns as f64 / self.items as f64
        }
    }
}

impl Spans {
    /// A recorder; `enabled == false` makes every method a pass-through.
    #[must_use]
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            epoch: Instant::now(),
            inner: RefCell::new(Inner::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }

    /// Runs `f` inside a span called `name`; `items` reads the number of
    /// items processed off the result.
    pub fn call<R>(
        &self,
        name: &'static str,
        f: impl FnOnce() -> R,
        items: impl FnOnce(&R) -> u64,
    ) -> R {
        if !self.enabled {
            return f();
        }
        let id = {
            let mut inner = self.inner.borrow_mut();
            let id = inner.spans.len();
            let parent = inner.open.last().copied();
            inner.spans.push(Span {
                name,
                parent,
                start_ns: 0,
                end_ns: 0,
                items: 0,
            });
            inner.open.push(id);
            id
        };
        let start = self.now_ns();
        let result = f();
        let end = self.now_ns();
        let n = items(&result);
        let mut inner = self.inner.borrow_mut();
        let popped = inner.open.pop();
        debug_assert_eq!(popped, Some(id), "spans closed out of order");
        let span = &mut inner.spans[id];
        span.start_ns = start;
        span.end_ns = end;
        span.items = n;
        result
    }

    /// Runs `f` inside a span that processes no items of its own (a root
    /// such as `iteration`, `probe` or `setup`).
    pub fn scope<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.call(name, f, |_| 0)
    }

    /// Adds `amount` to the boundary count `key`, charged to the root of
    /// the innermost open span.
    pub fn count(&self, key: &'static str, amount: u64) {
        if !self.enabled {
            return;
        }
        let mut inner = self.inner.borrow_mut();
        let Some(&open) = inner.open.last() else {
            return;
        };
        let root = root_of(&inner.spans, open);
        inner.counts.push((root, key, amount));
    }

    /// Every recorded span, in opening order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.inner.borrow().spans.clone()
    }

    /// Wall seconds of each root span named `root`, in order.
    #[must_use]
    pub fn root_seconds(&self, root: &str) -> Vec<f64> {
        self.inner
            .borrow()
            .spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == root)
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .collect()
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Per-name totals over every non-root span, or only over those under
    /// roots named `root`.
    #[must_use]
    pub fn name_totals(&self, root: Option<&str>) -> BTreeMap<&'static str, NameTotal> {
        let inner = self.inner.borrow();
        let mut totals: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
        for (id, span) in inner.spans.iter().enumerate() {
            if span.parent.is_none()
                || root.is_some_and(|r| inner.spans[root_of(&inner.spans, id)].name != r)
            {
                continue;
            }
            let t = totals.entry(span.name).or_default();
            t.ns += span.dur_ns();
            t.items += span.items;
            t.calls += 1;
        }
        totals
    }

    /// Boundary counts summed over every root, or only over roots named
    /// `root`.
    #[must_use]
    pub fn counts_under(&self, root: Option<&str>) -> BTreeMap<&'static str, u64> {
        let inner = self.inner.borrow();
        let mut out = BTreeMap::new();
        for &(r, key, amount) in &inner.counts {
            if root.is_none_or(|name| inner.spans[r].name == name) {
                *out.entry(key).or_insert(0) += amount;
            }
        }
        out
    }

    /// Self time (span minus the part its children cover) summed by
    /// layer over every span under roots named `root`. `layer_of` maps a
    /// span name to its layer; the roots' own self time is charged to
    /// `root_layer`.
    #[must_use]
    pub fn layer_self_ns(
        &self,
        root: &str,
        root_layer: &'static str,
        layer_of: impl Fn(&str) -> &'static str,
    ) -> BTreeMap<&'static str, u64> {
        let inner = self.inner.borrow();
        let spans = &inner.spans;
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (id, span) in spans.iter().enumerate() {
            let r = root_of(spans, id);
            if spans[r].name != root {
                continue;
            }
            let layer = if span.parent.is_none() {
                root_layer
            } else {
                layer_of(span.name)
            };
            *out.entry(layer).or_insert(0) += span.dur_ns().saturating_sub(child_ns[id]);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates IO errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::new();
        for (id, span) in self.inner.borrow().spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"items\":{}}}",
                span.name, span.start_ns, span.end_ns, span.items
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

fn root_of(spans: &[Span], mut id: usize) -> usize {
    while let Some(p) = spans[id].parent {
        id = p;
    }
    id
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_roots_charge_their_own_layer() {
        let spans = Spans::new(true);
        spans.scope("iteration", || {
            spans.call(
                "outer",
                || {
                    spans.call(
                        "inner",
                        || std::thread::sleep(std::time::Duration::from_millis(2)),
                        |_| 7,
                    );
                    spans.count("k", 3);
                },
                |_| 1,
            );
        });
        spans.scope("probe", || spans.call("inner", || (), |_| 1));
        let all = spans.spans();
        assert_eq!(all.len(), 5);
        assert_eq!(all[2].parent, Some(1));
        let layers = spans.layer_self_ns("iteration", "suite", |name| {
            if name == "inner" {
                "a"
            } else {
                "b"
            }
        });
        assert!(layers["a"] >= 2_000_000);
        assert!(layers["b"] < layers["a"]);
        assert!(layers.contains_key("suite"));
        let totals = spans.name_totals(None);
        assert_eq!(totals["inner"].calls, 2);
        assert_eq!(totals["inner"].items, 8);
        assert_eq!(spans.name_totals(Some("probe"))["inner"].calls, 1);
        assert_eq!(spans.counts_under(Some("iteration"))["k"], 3);
        assert_eq!(spans.counts_under(None)["k"], 3);
        assert!(spans.counts_under(Some("probe")).is_empty());
        assert_eq!(spans.root_seconds("iteration").len(), 1);
    }

    #[test]
    fn disabled_recorder_only_runs_the_closures() {
        let spans = Spans::new(false);
        assert_eq!(spans.call("x", || 5, |_| 1), 5);
        spans.count("k", 1);
        assert!(spans.spans().is_empty());
    }
}
