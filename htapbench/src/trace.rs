//! Spans recorded around the benchmark's calls into the engine.
//!
//! A traced round wraps every call a client makes into a span: its layer
//! name, start, end, and the id of the operation (transaction, scan or wire
//! request) that caused it. Spans stay in per-client vectors until the run
//! ends. The engine itself is not instrumented: each layer is timed from
//! outside, at the public function that enters it.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Version-chain depth class of a point read: committed updates to the key
/// since load, as counted by the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Depth {
    D0,
    D1To7,
    D8To63,
    D64Plus,
}

impl Depth {
    pub const ALL: [Depth; 4] = [Depth::D0, Depth::D1To7, Depth::D8To63, Depth::D64Plus];

    pub fn of(updates: u32) -> Depth {
        match updates {
            0 => Depth::D0,
            1..=7 => Depth::D1To7,
            8..=63 => Depth::D8To63,
            _ => Depth::D64Plus,
        }
    }

    pub fn suffix(self) -> &'static str {
        match self {
            Depth::D0 => "d0",
            Depth::D1To7 => "d1_7",
            Depth::D8To63 => "d8_63",
            Depth::D64Plus => "d64p",
        }
    }
}

/// The layer a span times.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Name {
    /// One update transaction, retries included (root).
    Txn,
    /// `Database::begin`.
    Begin,
    /// `Table::read`, by depth class of the key.
    Read(Depth),
    /// `Table::update`.
    Update,
    /// `Database::commit`.
    Commit,
    /// `Database::abort` after a write-write conflict.
    Abort,
    /// One analytic query (root).
    Scan,
    /// `Table::locate` of the span's first key.
    Locate,
    /// `Table::sum_rid_span`.
    SumSpan,
    /// One wire `Client::multi_read` round trip (root).
    Wire,
}

impl Name {
    pub fn label(self) -> String {
        match self {
            Name::Txn => "txn".into(),
            Name::Begin => "txn.begin".into(),
            Name::Read(d) => format!("read.point.{}", d.suffix()),
            Name::Update => "table.update".into(),
            Name::Commit => "commit.commit".into(),
            Name::Abort => "txn.abort".into(),
            Name::Scan => "scan".into(),
            Name::Locate => "index.locate".into(),
            Name::SumSpan => "scan.sum_span".into(),
            Name::Wire => "wire.multi_read".into(),
        }
    }
}

/// One timed call. Root spans have `parent == 0`; a child's `parent` is
/// the id of the root span of its operation.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: Name,
    pub id: u64,
    pub parent: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One client thread's span buffer. With tracing off every method is a
/// pass-through and nothing is recorded.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    thread: u64,
    next: u64,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(on: bool, epoch: Instant, thread: u64, capacity: usize) -> Recorder {
        Recorder {
            on,
            epoch,
            thread,
            next: 0,
            spans: Vec::with_capacity(if on { capacity } else { 0 }),
        }
    }

    /// A fresh span id, unique across the client threads of a round.
    pub fn next_id(&mut self) -> u64 {
        self.next += 1;
        (self.thread << 40) | self.next
    }

    /// Run `f` as a child span of operation `parent`.
    #[inline]
    pub fn time<R>(&mut self, name: Name, parent: u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let id = self.next_id();
        self.record(name, id, parent, start, end);
        out
    }

    /// Record the root span `id` of an operation timed by the caller.
    #[inline]
    pub fn root(&mut self, name: Name, id: u64, start: Instant, end: Instant) {
        if self.on {
            self.record(name, id, 0, start, end);
        }
    }

    fn record(&mut self, name: Name, id: u64, parent: u64, start: Instant, end: Instant) {
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }
}

/// Per-name totals of a set of spans.
#[derive(Default)]
pub struct Summary {
    /// Span durations in ns, per name.
    pub durations: HashMap<Name, Vec<u64>>,
    /// Summed self time in ns (duration minus the part covered by child
    /// spans), per name.
    pub self_ns: HashMap<Name, u64>,
}

impl Summary {
    pub fn add(&mut self, spans: &[Span]) {
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        for s in spans {
            self.durations.entry(s.name).or_default().push(s.dur_ns());
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            *self.self_ns.entry(s.name).or_default() += s.dur_ns() - covered;
        }
    }

    pub fn count(&self, name: Name) -> usize {
        self.durations.get(&name).map_or(0, Vec::len)
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Write spans as tab-separated lines: id, parent, name, start, end (ns
/// since the round began).
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            s.id,
            s.parent,
            s.name.label(),
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let spans = [
            Span {
                name: Name::Txn,
                id: 1,
                parent: 0,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                name: Name::Begin,
                id: 2,
                parent: 1,
                start_ns: 10,
                end_ns: 30,
            },
            Span {
                name: Name::Update,
                id: 3,
                parent: 1,
                start_ns: 20,
                end_ns: 50,
            },
            Span {
                name: Name::Commit,
                id: 4,
                parent: 1,
                start_ns: 90,
                end_ns: 120,
            },
        ];
        let mut summary = Summary::default();
        summary.add(&spans);
        // Children cover 10..50 and 90..100 of the root: 50 ns.
        assert_eq!(summary.self_ns[&Name::Txn], 50);
        assert_eq!(summary.self_ns[&Name::Commit], 30);
    }

    #[test]
    fn depth_classes() {
        assert_eq!(Depth::of(0), Depth::D0);
        assert_eq!(Depth::of(7), Depth::D1To7);
        assert_eq!(Depth::of(8), Depth::D8To63);
        assert_eq!(Depth::of(64), Depth::D64Plus);
    }
}
