//! In-memory spans for the traced run.
//!
//! A span is `(name, parent, start, end)`. Structural spans (`sim.*`,
//! `pool.*`) nest through [`Tracer::span`]; leaf spans (`road.*`,
//! `strategy.decide`) come from the probes through [`Tracer::leaf`], which
//! counts every call exactly and times one call in `every`. A sampled
//! leaf carries `weight = every`, so `duration × weight` estimates the time
//! of all the calls it stands for (the `est` metrics). Spans stay in memory
//! until the run ends; [`Tracer::dump`] writes the last traced rep as JSON.
//!
//! A dense-table lookup takes a few nanoseconds and two clock reads take
//! ten times that, more when they interrupt a hot loop. So half a period
//! after each sampled call the tracer times an empty closure in the same
//! place (`trace.null`), and [`Tracer::budget`] takes the mean null
//! duration off every leaf. Without it the dense oracle was billed 84 % of
//! a rep it cannot have more than a fifth of.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// Sampling period of the `est` probes: one call in 64 is timed. A power
/// of two, so the test is a mask.
pub const SAMPLE_EVERY: u64 = 64;

/// Span and counter names. The string form is the prefix of the per-layer
/// metrics derived from it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    /// One `DispatchCore::step` call.
    Step,
    /// One `Daemon::feed_line` call, or the final `close_and_drain`.
    Feed,
    /// One `OrderIngest::parse_line` call made by the benchmark.
    Parse,
    /// One explicit `Daemon::checkpoint_now` call.
    Checkpoint,
    /// `CheckpointStore::open` + `Daemon::resume` after the drop.
    Restore,
    /// One `Dispatcher::on_arrival` call.
    Arrive,
    /// One `Dispatcher::on_check` call.
    Check,
    /// `TravelCost::cost` at the outer probe (outside the cache).
    Exact,
    /// `TravelBound::lower_bound` at the outer probe.
    Bound,
    /// `TravelCost::cost` at the inner probe (between cache and backend).
    Backend,
    /// One `DecisionPolicy::decide` call.
    Decide,
    /// Counter only: `decide` calls that answered "dispatch now".
    DispatchNow,
    /// An empty closure timed where a sampled leaf would be: what the
    /// clock itself costs there.
    Null,
}

const NAMES: usize = Name::Null as usize + 1;

impl Name {
    /// The name written to the span dump.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Step => "sim.step",
            Name::Feed => "sim.feed",
            Name::Parse => "sim.parse",
            Name::Checkpoint => "sim.checkpoint",
            Name::Restore => "sim.restore",
            Name::Arrive => "pool.arrive",
            Name::Check => "pool.check",
            Name::Exact => "road.exact",
            Name::Bound => "road.bound",
            Name::Backend => "road.backend",
            Name::Decide => "strategy.decide",
            Name::DispatchNow => "strategy.dispatch_now",
            Name::Null => "trace.null",
        }
    }

    /// Leaves come from the probes; the other spans are structural.
    fn is_leaf(self) -> bool {
        matches!(
            self,
            Name::Exact | Name::Bound | Name::Backend | Name::Decide
        )
    }

    /// Whether a leaf of this name is subtracted from its parent's self
    /// time. `road.backend` is not: it runs inside a `road.exact` call,
    /// whose estimate already covers it.
    fn subtracts(self) -> bool {
        self != Name::Backend
    }
}

/// No parent: a top-level span of the measured loop.
pub const ROOT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer was made.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: Name,
    pub parent: u32,
    pub start: u64,
    pub end: u64,
    /// How many calls this span stands for (1, or the sampling period).
    pub weight: u32,
    /// Recorded on the thread that drives the loop. Leaves recorded on
    /// fork-join worker threads overlap their parent's wait and are not
    /// subtracted from it.
    pub main: bool,
}

/// Span sink shared by the driver loop, the dispatcher wrapper and the
/// oracle/policy probes of one traced rep.
pub struct Tracer {
    t0: Instant,
    main: ThreadId,
    current: AtomicU32,
    /// Whether leaves can be recorded from several threads at once. When
    /// not, counting is a plain load and store: an atomic add on each of
    /// the 10⁸ oracle calls of a dense rep cost half the rep again.
    shared: bool,
    counts: [AtomicU64; NAMES],
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// `shared`: the workload runs the dispatcher on more than one thread.
    pub fn new(shared: bool) -> Self {
        Self {
            t0: Instant::now(),
            main: std::thread::current().id(),
            current: AtomicU32::new(ROOT),
            shared,
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) -> u32 {
        let mut spans = self.spans.lock().expect("no probe panics while recording");
        spans.push(span);
        (spans.len() - 1) as u32
    }

    /// Run `f` inside a structural span; spans opened by `f` nest under it.
    /// Structural spans are only opened on the driving thread.
    pub fn span<R>(&self, name: Name, f: impl FnOnce() -> R) -> R {
        self.counts[name as usize].fetch_add(1, Ordering::Relaxed);
        let parent = self.current.load(Ordering::Relaxed);
        let id = self.push(Span {
            name,
            parent,
            start: self.now(),
            end: 0,
            weight: 1,
            main: true,
        });
        self.current.store(id, Ordering::Relaxed);
        let out = f();
        let end = self.now();
        self.spans.lock().expect("no probe panics while recording")[id as usize].end = end;
        self.current.store(parent, Ordering::Relaxed);
        out
    }

    /// Count one call of `name` and time it if it is the `every`-th
    /// (`every` a power of two).
    #[inline]
    pub fn leaf<R>(&self, name: Name, every: u64, f: impl FnOnce() -> R) -> R {
        let count = &self.counts[name as usize];
        let n = if self.shared {
            count.fetch_add(1, Ordering::Relaxed)
        } else {
            let n = count.load(Ordering::Relaxed);
            count.store(n + 1, Ordering::Relaxed);
            n
        };
        match n & (every - 1) {
            0 => self.timed_leaf(name, every, f),
            phase => {
                if phase == every / 2 {
                    self.timed_leaf(Name::Null, every, || ());
                }
                f()
            }
        }
    }

    #[inline(never)]
    fn timed_leaf<R>(&self, name: Name, every: u64, f: impl FnOnce() -> R) -> R {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.push(Span {
            name,
            parent: self.current.load(Ordering::Relaxed),
            start,
            end,
            weight: every as u32,
            main: !self.shared || std::thread::current().id() == self.main,
        });
        out
    }

    /// Count an event that has no duration.
    pub fn count(&self, name: Name) {
        self.counts[name as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Mean duration of the null leaves, ns: the clock's share of a leaf.
    fn null_ns(spans: &[Span]) -> f64 {
        let (mut sum, mut n) = (0u64, 0u64);
        for s in spans.iter().filter(|s| s.name == Name::Null) {
            sum += s.end - s.start;
            n += 1;
        }
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    }

    /// Fold the spans into per-name totals, counts and durations.
    pub fn budget(&self) -> Budget {
        let spans = self.spans.lock().expect("no probe panics while recording");
        let null_ns = Self::null_ns(&spans);
        let mut b = Budget {
            calls: std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed)),
            ..Budget::default()
        };
        for s in spans.iter().filter(|s| s.name != Name::Null) {
            let raw = (s.end - s.start) as f64;
            // The clock's share comes off a leaf.
            let one = if s.name.is_leaf() { raw - null_ns } else { raw };
            let ns = one * s.weight as f64;
            let i = s.name as usize;
            b.total_ns[i] += ns;
            b.durations[i].push(one.max(0.0) as u64);
            if s.parent == ROOT {
                b.top_level_ns += ns;
            } else if s.main && s.name.subtracts() {
                b.children_ns[spans[s.parent as usize].name as usize] += ns;
            }
        }
        for d in &mut b.durations {
            d.sort_unstable();
        }
        b
    }

    /// Write every span as one JSON array of
    /// `{"name","parent","start_ns","end_ns","weight","main"}` rows.
    pub fn dump(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let spans = self.spans.lock().expect("no probe panics while recording");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let comma = if i + 1 == spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"weight\":{},\"main\":{}}}{comma}",
                s.name.as_str(),
                s.start,
                s.end,
                s.weight,
                s.main
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

/// Per-name totals of one traced rep.
#[derive(Clone, Debug, Default)]
pub struct Budget {
    /// Exact number of calls per name, sampled or not.
    calls: [u64; NAMES],
    /// Σ duration × weight over the spans of each name, all threads.
    total_ns: [f64; NAMES],
    /// Σ duration × weight of the subtracting main-thread children found
    /// under spans of each name.
    children_ns: [f64; NAMES],
    /// Sorted duration (ns) of every span recorded per name.
    durations: [Vec<u64>; NAMES],
    /// Σ duration of the spans with no parent.
    pub top_level_ns: f64,
}

impl Budget {
    /// Exact number of calls of `name`, sampled or not.
    pub fn calls(&self, name: Name) -> u64 {
        self.calls[name as usize]
    }

    /// Total (estimated) time of `name` in ms, across threads.
    pub fn total_ms(&self, name: Name) -> f64 {
        self.total_ns[name as usize].max(0.0) / 1e6
    }

    /// Self time of `name` in ms: its spans minus what their children on
    /// the driving thread cover. Taken on the totals, not span by span, so
    /// a sampled child that overshoots one parent is made up by the
    /// parents whose children went unsampled.
    pub fn self_ms(&self, name: Name) -> f64 {
        (self.total_ns[name as usize] - self.children_ns[name as usize].max(0.0)) / 1e6
    }

    /// Sorted durations (ns) of the spans of `name` that were timed.
    pub fn durations(&self, name: Name) -> &[u64] {
        &self.durations[name as usize]
    }
}
