//! The benchmark's own span recorder. Spans wrap calls *into* a layer
//! (set-up steps, each `fit`, each probe, every 64th `predict`); nothing is
//! recorded inside the program under test. Spans stay in memory and are
//! written out once, when the run ends.

use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Span names are `<layer>/<operation>`; the layer is a workspace module
/// name, or `bench` for the harness's own work.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Every `PREDICT_SAMPLE`-th request of a client gets a span.
pub const PREDICT_SAMPLE: u64 = 64;

pub struct Recorder {
    enabled: bool,
    workload: String,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new(enabled: bool, workload: &str) -> Recorder {
        Recorder {
            enabled,
            workload: workload.to_string(),
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; `None` when tracing is off.
    pub fn begin(&self, name: &'static str, parent: Option<u32>) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span list poisoned");
        let id = spans.len() as u32;
        spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        Some(id)
    }

    pub fn end(&self, id: Option<u32>) {
        if let Some(id) = id {
            let end_ns = self.now_ns();
            self.spans.lock().expect("span list poisoned")[id as usize].end_ns = end_ns;
        }
    }

    /// Run `f` under a span and return its result with its wall seconds
    /// (measured whether or not tracing is on).
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        f: impl FnOnce(Option<u32>) -> T,
    ) -> (T, f64) {
        let id = self.begin(name, parent);
        let start = Instant::now();
        let out = f(id);
        let secs = start.elapsed().as_secs_f64();
        self.end(id);
        (out, secs)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// The span file: every span with its self time.
    pub fn to_json(&self) -> Json {
        let spans = self.spans();
        let selfs = self_times_ns(&spans);
        Json::obj([
            ("workload", Json::str(&self.workload)),
            (
                "spans",
                Json::Arr(
                    spans
                        .iter()
                        .zip(&selfs)
                        .map(|(s, &self_ns)| {
                            Json::obj([
                                ("id", Json::Num(s.id as f64)),
                                (
                                    "parent",
                                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                                ),
                                ("name", Json::str(s.name)),
                                ("start_ns", Json::Num(s.start_ns as f64)),
                                ("end_ns", Json::Num(s.end_ns as f64)),
                                ("self_ns", Json::Num(self_ns as f64)),
                                ("workload", Json::str(&self.workload)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Self seconds and span counts summed per layer (the part of a span
    /// name before `/`).
    pub fn layer_self_s(&self) -> BTreeMap<String, (f64, usize)> {
        let spans = self.spans();
        let selfs = self_times_ns(&spans);
        let mut out: BTreeMap<String, (f64, usize)> = BTreeMap::new();
        for (s, &self_ns) in spans.iter().zip(&selfs) {
            let layer = s.name.split('/').next().unwrap_or(s.name);
            let e = out.entry(layer.to_string()).or_default();
            e.0 += self_ns as f64 * 1e-9;
            e.1 += 1;
        }
        out
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its child spans cover. Children of one parent may overlap (two client
/// threads), so the covered part is the length of their union.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(cursor);
                if hi > lo {
                    covered += hi - lo;
                    cursor = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "bench/x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            // Overlaps span 1 by 10 ns: the union covers 10..60.
            span(2, Some(0), 30, 60),
            span(3, Some(2), 35, 45),
            // Sticks out of its parent; only 90..100 counts.
            span(4, Some(0), 90, 120),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 30, 20, 10, 30]);
    }

    #[test]
    fn disabled_recorder_still_times() {
        let rec = Recorder::new(false, "w");
        let (v, secs) = rec.time("bench/x", None, |id| {
            assert!(id.is_none());
            7
        });
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn enabled_recorder_nests_and_sums_layers() {
        let rec = Recorder::new(true, "w");
        rec.time("hier-kmeans/fit", None, |outer| {
            rec.time("kmeans-core/probe", outer, |_| ());
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let layers = rec.layer_self_s();
        assert_eq!(layers["hier-kmeans"].1, 1);
        assert_eq!(layers["kmeans-core"].1, 1);
        let doc = rec.to_json();
        assert_eq!(doc.get("workload").and_then(Json::as_str), Some("w"));
    }
}
