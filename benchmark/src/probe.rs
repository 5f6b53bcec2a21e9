//! The wrappers the benchmark puts at the program's boundaries.
//!
//! * [`Timed`] — the one piece of instrumentation in an untraced run: a
//!   `Dispatcher` wrapper taking two `Instant`s per `on_arrival`/`on_check`
//!   and copying the terminal outcomes out of the effect sink.
//! * [`Probe`] — a `TravelBound` wrapper counting and sampling oracle
//!   calls; traced runs only.
//! * [`Policy`] — the decision policy of a workload; with a tracer it also
//!   counts and samples `decide`.

use crate::trace::{Name, Tracer, SAMPLE_EVERY};
use std::cell::RefCell;
use std::time::Instant;
use watter::core::{Dur, Group, GroupQuality, NodeId, Order, TravelBound, TravelCost};
use watter::sim::{
    DegradableDispatcher, Dispatcher, DispatcherState, Effect, SimCtx, SnapshotDispatcher,
    SnapshotError,
};
use watter::strategy::{DecisionContext, DecisionPolicy, OnlinePolicy, TimeoutPolicy};

/// Terminal outcome of one order, as the effect stream reported it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Outcome {
    Served {
        at: i64,
        group_size: u32,
        extra: f64,
    },
    Rejected {
        at: i64,
    },
}

/// What [`Timed`] collects over one rep. It outlives the dispatcher: the
/// daemon owns its dispatcher and drops it at the simulated crash.
#[derive(Debug, Default)]
pub struct Sink {
    /// Wall time of each `on_arrival`, ns.
    pub arrive_ns: Vec<u64>,
    /// Wall time of each `on_check`, ns.
    pub check_ns: Vec<u64>,
    /// `Dispatcher::pending` after each `on_check`.
    pub pending: Vec<u32>,
    /// Terminal outcome per order id. A crash replay re-emits the outcomes
    /// since the last checkpoint; they must be the same ones.
    pub outcomes: Vec<Option<Outcome>>,
    /// Orders that got two different terminal outcomes.
    pub conflicts: u64,
}

impl Sink {
    pub fn for_orders(n: usize) -> Self {
        Self {
            outcomes: vec![None; n],
            ..Self::default()
        }
    }

    fn absorb(&mut self, effects: &[Effect]) {
        for e in effects {
            let (id, outcome) = match *e {
                Effect::Served {
                    id,
                    at,
                    group_size,
                    extra,
                    ..
                } => (
                    id,
                    Outcome::Served {
                        at,
                        group_size,
                        extra,
                    },
                ),
                Effect::Rejected { id, at } => (id, Outcome::Rejected { at }),
                _ => continue,
            };
            let slot = &mut self.outcomes[id.0 as usize];
            if slot.is_some_and(|old| old != outcome) {
                self.conflicts += 1;
            }
            *slot = Some(outcome);
        }
    }

    /// FNV-1a over `(id, instant, group size, extra-time bits)` of every
    /// order in id order. A rejected order hashes size and extra 0; an order
    /// with no terminal outcome hashes as a marker, so it changes the
    /// digest too.
    pub fn digest(&self) -> u64 {
        fnv1a(self.outcomes.iter().enumerate().flat_map(|(id, outcome)| {
            let rest = match *outcome {
                Some(Outcome::Served {
                    at,
                    group_size,
                    extra,
                }) => [at as u64, group_size as u64, extra.to_bits()],
                Some(Outcome::Rejected { at }) => [at as u64, 0, 0],
                None => [u64::MAX; 3],
            };
            [id as u64, rest[0], rest[1], rest[2]]
        }))
    }
}

/// FNV-1a 64 over the little-endian bytes of `words`.
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for word in words {
        for b in word.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `Dispatcher` wrapper: two `Instant`s around each call into the
/// dispatcher under test, plus (traced runs) a span.
pub struct Timed<'s, D> {
    inner: D,
    sink: &'s RefCell<Sink>,
    tracer: Option<&'s Tracer>,
}

impl<'s, D> Timed<'s, D> {
    pub fn new(inner: D, sink: &'s RefCell<Sink>, tracer: Option<&'s Tracer>) -> Self {
        Self {
            inner,
            sink,
            tracer,
        }
    }
}

impl<D: Dispatcher> Dispatcher for Timed<'_, D> {
    fn on_arrival(&mut self, order: Order, ctx: &mut SimCtx<'_>) {
        let seen = ctx.effects.len();
        let inner = &mut self.inner;
        let t0 = Instant::now();
        match self.tracer {
            Some(t) => t.span(Name::Arrive, || inner.on_arrival(order, ctx)),
            None => inner.on_arrival(order, ctx),
        }
        let ns = t0.elapsed().as_nanos() as u64;
        let mut sink = self.sink.borrow_mut();
        sink.arrive_ns.push(ns);
        sink.absorb(&ctx.effects[seen..]);
    }

    fn on_check(&mut self, ctx: &mut SimCtx<'_>) {
        let seen = ctx.effects.len();
        let inner = &mut self.inner;
        let t0 = Instant::now();
        match self.tracer {
            Some(t) => t.span(Name::Check, || inner.on_check(ctx)),
            None => inner.on_check(ctx),
        }
        let ns = t0.elapsed().as_nanos() as u64;
        let mut sink = self.sink.borrow_mut();
        sink.check_ns.push(ns);
        sink.pending.push(self.inner.pending() as u32);
        sink.absorb(&ctx.effects[seen..]);
    }

    fn pending(&self) -> usize {
        self.inner.pending()
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

impl<D: SnapshotDispatcher> SnapshotDispatcher for Timed<'_, D> {
    fn save_state(&self) -> DispatcherState {
        self.inner.save_state()
    }

    fn load_state(&mut self, state: &DispatcherState) -> Result<(), SnapshotError> {
        self.inner.load_state(state)
    }
}

impl<D: DegradableDispatcher> DegradableDispatcher for Timed<'_, D> {
    fn set_degraded(&mut self, on: bool) -> bool {
        self.inner.set_degraded(on)
    }

    fn is_degraded(&self) -> bool {
        self.inner.is_degraded()
    }
}

/// Oracle probe: counts every `cost`/`lower_bound` call and times one in
/// `every` of them as a leaf span.
pub struct Probe<'t, C> {
    inner: C,
    tracer: &'t Tracer,
    cost_name: Name,
    every: u64,
    /// Only the outer probe counts bounds: the cache forwards
    /// `lower_bound` to its backend, which would count each one twice.
    bounds: bool,
}

impl<'t, C> Probe<'t, C> {
    /// The outer probe: what the dispatcher asks, sampled.
    pub fn outer(inner: C, tracer: &'t Tracer) -> Self {
        Self {
            inner,
            tracer,
            cost_name: Name::Exact,
            every: SAMPLE_EVERY,
            bounds: true,
        }
    }

    /// The inner probe: what reaches the backend past the cache. Every
    /// call is timed; a miss costs far more than the clock.
    pub fn inner(inner: C, tracer: &'t Tracer) -> Self {
        Self {
            inner,
            tracer,
            cost_name: Name::Backend,
            every: 1,
            bounds: false,
        }
    }

    pub fn get(&self) -> &C {
        &self.inner
    }
}

impl<C: TravelCost> TravelCost for Probe<'_, C> {
    fn cost(&self, a: NodeId, b: NodeId) -> Dur {
        self.tracer
            .leaf(self.cost_name, self.every, || self.inner.cost(a, b))
    }
}

impl<C: TravelBound> TravelBound for Probe<'_, C> {
    fn lower_bound(&self, a: NodeId, b: NodeId) -> Dur {
        if !self.bounds {
            return self.inner.lower_bound(a, b);
        }
        self.tracer
            .leaf(Name::Bound, SAMPLE_EVERY, || self.inner.lower_bound(a, b))
    }
}

/// Which hold-or-dispatch policy a workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyKind {
    /// Dispatch as soon as a feasible group exists.
    Online,
    /// Hold as long as the watching window allows: the deepest pool.
    Timeout,
}

/// The policy handed to `WatterDispatcher::new`. One type for every
/// workload keeps the dispatcher type the same whether traced or not.
pub struct Policy<'t> {
    held: Held,
    tracer: Option<&'t Tracer>,
}

enum Held {
    Online(OnlinePolicy),
    Timeout(TimeoutPolicy),
}

impl<'t> Policy<'t> {
    pub fn new(kind: PolicyKind, check_period: Dur, tracer: Option<&'t Tracer>) -> Self {
        let held = match kind {
            PolicyKind::Online => Held::Online(OnlinePolicy),
            PolicyKind::Timeout => Held::Timeout(TimeoutPolicy { check_period }),
        };
        Self { held, tracer }
    }
}

impl DecisionPolicy for Policy<'_> {
    fn decide(&mut self, g: &Group, q: GroupQuality, ctx: &DecisionContext<'_>) -> bool {
        let held = &mut self.held;
        let mut decide = || match held {
            Held::Online(p) => p.decide(g, q, ctx),
            Held::Timeout(p) => p.decide(g, q, ctx),
        };
        let Some(tracer) = self.tracer else {
            return decide();
        };
        let now = tracer.leaf(Name::Decide, SAMPLE_EVERY, decide);
        if now {
            tracer.count(Name::DispatchNow);
        }
        now
    }

    fn name(&self) -> &'static str {
        match &self.held {
            Held::Online(p) => p.name(),
            Held::Timeout(p) => p.name(),
        }
    }
}
