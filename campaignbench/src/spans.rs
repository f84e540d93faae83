//! Bench-side spans around the calls into each layer, kept in memory until
//! the run ends, and the self time derived from them.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call. Ids are unique within one [`Recorder`]; `parent` is the
/// span that was open when this one began.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    /// The seed this span worked on (setup spans use their training seed
    /// range's first seed).
    pub seed: u64,
    pub worker: usize,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span recorder. Spans nest: [`Recorder::time`] makes the
/// innermost open span the new span's parent.
pub struct Recorder {
    epoch: Instant,
    worker: usize,
    next_id: u32,
    open: Vec<u32>,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant, worker: usize) -> Self {
        Recorder {
            epoch,
            worker,
            next_id: (worker as u32) << 24,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, seed: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            seed,
            worker: self.worker,
            start_ns,
            end_ns,
        });
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Each span's self time: its duration minus the part of its interval that
/// its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// Self time summed per span name, in nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let own = self_times(spans);
    let mut by_name = BTreeMap::new();
    for s in spans {
        *by_name.entry(s.name).or_insert(0) += own[&s.id];
    }
    by_name
}

/// The spans as a JSON array, one object per span.
pub fn to_json(spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .map(|s| {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            format!(
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"seed\":{},\"worker\":{},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.name, s.seed, s.worker, s.start_ns, s.end_ns
            )
        })
        .collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            seed: 1,
            worker: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // seed [0,100) > run [10,40) > inner [15,35); seed > rerun [50,90)
        let spans = [
            span(1, None, "seed", 0, 100),
            span(2, Some(1), "run", 10, 40),
            span(3, Some(2), "inner", 15, 35),
            span(4, Some(1), "rerun", 50, 90),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - 30 - 40);
        assert_eq!(own[&2], 30 - 20);
        assert_eq!(own[&3], 20);
        assert_eq!(own[&4], 40);
        // Self times partition the root's interval.
        assert_eq!(own.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span(1, None, "seed", 0, 100),
            span(2, Some(1), "a", 10, 50),
            span(3, Some(1), "b", 30, 60),
            span(4, Some(1), "c", 90, 120),
        ];
        assert_eq!(self_times(&spans)[&1], 100 - 50 - 10);
    }

    #[test]
    fn recorder_nests_and_sums_by_name() {
        let mut rec = Recorder::new(Instant::now(), 3);
        rec.time("seed", 7, |rec| {
            rec.time("run", 7, |_| ());
            rec.time("run", 7, |_| ());
        });
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.name == "seed").unwrap();
        assert!(root.parent.is_none());
        assert!(spans
            .iter()
            .filter(|s| s.name == "run")
            .all(|s| s.parent == Some(root.id) && s.worker == 3));
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name.values().sum::<u64>(), root.dur_ns());
        assert!(to_json(&spans).contains("\"name\":\"run\""));
    }
}
