//! Span recorder for the traced run. Spans are recorded from the
//! benchmark's own files only, around the calls into each layer, into a
//! buffer allocated before timing starts, and written out when the run
//! ends. A span's self time is its duration minus the part its children
//! cover, so the self times under an `epoch` span sum exactly to it.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// Identifier shared by every span of one epoch (round, sort).
    pub epoch: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A timed call recorded away from the recorder's thread of control
/// (the counting VFS logs these); [`Tracer::adopt`] hangs each under the
/// innermost span that contains it.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    pub dropped: u64,
}

/// Handle of an open span; `None` while tracing is off or the buffer is
/// full.
#[derive(Clone, Copy)]
pub struct Open(Option<u32>);

impl Tracer {
    /// A recorder with room for `capacity` spans, switched off.
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
            dropped: 0,
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    #[inline]
    pub fn begin(&mut self, name: &'static str, epoch: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            epoch,
        });
        self.open.push(id);
        Open(Some(id))
    }

    #[inline]
    pub fn end(&mut self, span: Open) {
        let Some(id) = span.0 else { return };
        let now = self.ns(Instant::now());
        self.spans[id as usize].end_ns = now;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
    }

    /// Attach out-of-band `events` (ascending by start) as leaf spans
    /// under the innermost recorded span that contains each of them.
    /// Events outside every span (set-up I/O) are left out.
    pub fn adopt(&mut self, events: &[Event]) {
        let recorded = self.spans.len();
        let mut cursor = 0usize;
        for ev in events {
            if ev.start < self.origin {
                continue;
            }
            let (start_ns, end_ns) = (self.ns(ev.start), self.ns(ev.end));
            // Spans are in start order; skip the ones that ended before
            // this event began and are not its ancestors.
            while cursor < recorded && self.spans[cursor].end_ns < start_ns {
                cursor += 1;
            }
            let mut parent = NO_PARENT;
            let mut k = cursor;
            while k < recorded && self.spans[k].start_ns <= start_ns {
                if self.spans[k].end_ns >= end_ns {
                    parent = k as u32;
                }
                k += 1;
            }
            if parent == NO_PARENT {
                continue;
            }
            if self.spans.len() == self.spans.capacity() {
                self.dropped += 1;
                continue;
            }
            let epoch = self.spans[parent as usize].epoch;
            self.spans.push(Span {
                name: ev.name,
                start_ns,
                end_ns,
                parent,
                epoch,
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self, workload: &str) -> Json {
        Json::obj([
            ("workload", Json::str(workload)),
            ("clock", Json::str("ns since recorder start")),
            ("dropped", Json::Num(self.dropped as f64)),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("name", Json::str(s.name)),
                                ("start_ns", Json::Num(s.start_ns as f64)),
                                ("end_ns", Json::Num(s.end_ns as f64)),
                                (
                                    "parent",
                                    if s.parent == NO_PARENT {
                                        Json::Null
                                    } else {
                                        Json::Num(s.parent as f64)
                                    },
                                ),
                                ("epoch", Json::Num(s.epoch as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Self time per span: duration minus the durations of its direct
/// children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.dur());
        }
    }
    own
}

/// Totals per span name: `(count, total duration, total self time)`.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, &own_ns) in spans.iter().zip(&own) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur();
        e.2 += own_ns;
    }
    out
}

/// Durations of every span called `name`, in recording order.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur)
        .collect()
}

/// For every root span: its duration and the sum of the self times in
/// its subtree. The two are equal by construction; the traced run
/// asserts it on real data.
pub fn root_balance(spans: &[Span]) -> Vec<(u64, u64)> {
    let own = self_times(spans);
    let mut root_of: Vec<u32> = Vec::with_capacity(spans.len());
    let mut sums: BTreeMap<u32, u64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        // Parents precede children in the buffer, adopted events too.
        let root = if s.parent == NO_PARENT {
            i as u32
        } else {
            root_of[s.parent as usize]
        };
        root_of.push(root);
        *sums.entry(root).or_default() += own[i];
    }
    sums.into_iter()
        .map(|(root, sum)| (spans[root as usize].dur(), sum))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            epoch: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("epoch", 0, 100, NO_PARENT),
            span("gen", 0, 10, 0),
            span("commit", 10, 90, 0),
            span("vfs.append", 20, 30, 2),
            span("vfs.sync", 30, 70, 2),
            span("verify", 90, 98, 0),
        ];
        assert_eq!(self_times(&spans), vec![2, 10, 30, 10, 40, 8]);
        assert_eq!(root_balance(&spans), vec![(100, 100)]);
        let names = by_name(&spans);
        assert_eq!(names["commit"], (1, 80, 30));
        assert_eq!(names["vfs.sync"], (1, 40, 40));
    }

    #[test]
    fn recorded_self_times_sum_exactly_to_their_epochs() {
        let mut tr = Tracer::new(64);
        tr.set_on(true);
        let mut events = Vec::new();
        for epoch in 0..5 {
            let e = tr.begin("epoch", epoch);
            let g = tr.begin("gen", epoch);
            tr.end(g);
            let c = tr.begin("commit", epoch);
            let t0 = Instant::now();
            std::thread::sleep(Duration::from_micros(200));
            let t1 = Instant::now();
            events.push(Event {
                name: "vfs.sync",
                start: t0,
                end: t1,
            });
            tr.end(c);
            tr.end(e);
        }
        tr.adopt(&events);
        let spans = tr.spans();
        assert_eq!(spans.len(), 20);
        let adopted: Vec<&Span> = spans.iter().filter(|s| s.name == "vfs.sync").collect();
        assert_eq!(adopted.len(), 5);
        for (k, s) in adopted.iter().enumerate() {
            assert_eq!(spans[s.parent as usize].name, "commit");
            assert_eq!(s.epoch, k as u64);
        }
        let balance = root_balance(spans);
        assert_eq!(balance.len(), 5);
        assert!(balance.iter().all(|&(dur, sum)| dur == sum && dur > 0));
    }

    #[test]
    fn a_tracer_that_is_off_or_full_records_nothing_more() {
        let mut tr = Tracer::new(1);
        let s = tr.begin("epoch", 0);
        tr.end(s);
        assert!(tr.spans().is_empty());
        tr.set_on(true);
        let a = tr.begin("epoch", 0);
        let b = tr.begin("gen", 0);
        tr.end(b);
        tr.end(a);
        assert_eq!(tr.spans().len(), 1);
        assert_eq!(tr.dropped, 1);
    }
}
