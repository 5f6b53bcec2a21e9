//! Contraction-hierarchy (CH) point-query oracle.
//!
//! The ALT oracle made 10⁵-node cities *possible*; its cold queries are
//! still A* searches that settle thousands of nodes, and PR 3 showed those
//! misses dominating the cached large-city hot path. A contraction
//! hierarchy moves that work into preprocessing: nodes are contracted in
//! importance order, shortcut edges preserve shortest-path costs across
//! contracted nodes, and a query becomes a *bidirectional upward* Dijkstra
//! that settles a few hundred nodes regardless of graph size — exact,
//! microsecond-scale answers at 10⁵–10⁶ nodes.
//!
//! # Preprocessing
//!
//! 1. **Node ordering** — a lazy priority queue over the classic
//!    `edge_difference + deleted_neighbors + hierarchy_depth` heuristic:
//!    nodes whose contraction adds few shortcuts (relative to the edges
//!    removed), whose neighborhood is still intact, and who sit low in
//!    the forming hierarchy go first. The depth term
//!    (`1 + max(depth of contracted neighbors)`) is what keeps grid-like
//!    networks tractable — it forces contraction into balanced layers
//!    where pure edge difference, seeing every grid node alike, would
//!    build deep chains with snowballing shortcut fan-out. Priorities are
//!    recomputed lazily on pop (re-inserted when stale), with node id as
//!    the deterministic tie-break.
//! 2. **Contraction, up to the wall** — contracting `v` adds `u → x` with
//!    weight `w(u,v) + w(v,x)` for every in/out neighbor pair unless a
//!    bounded **witness search** (Dijkstra from `u` avoiding `v`, capped
//!    at `WITNESS_SETTLE_LIMIT` = 1 500 settled nodes) already proves a
//!    path at most that long. The search exits as soon as every shortcut target is
//!    settled, and a truncated search errs toward *adding* the shortcut —
//!    never toward dropping one — so limits trade preprocessing time for
//!    a few redundant edges, not correctness. The loop ends once all but
//!    `min(CORE_SIZE, n / 4)` nodes are contracted: the survivors are the
//!    *core*, ranked above everything else by ascending node id. They
//!    would be by far the dearest nodes to contract, and no query reads
//!    an order or a shortcut among them (step 3).
//! 3. **Core distance table** — on grid-like networks the bidirectional
//!    upward search space grows like √n (unlike the near-constant top of
//!    motorway hierarchies), so the core's exact pairwise distances go
//!    into a flat table and searches below treat the core as a wall. The
//!    table is one Dijkstra per core node over the *remaining graph* as
//!    the loop left it: every contraction preserves shortest-path costs
//!    among the nodes still uncontracted, so that graph is distance-exact
//!    for the core without any arc of a contracted node.
//! 4. **Upward/downward CSR split** — the final edge set (originals +
//!    shortcuts, deduplicated to minimum weight per arc, then pruned of
//!    strictly dominated arcs by a second witness pass) is split into an
//!    upward graph (arcs into higher-ranked nodes, searched forward from
//!    the source) and a downward graph (arcs into lower-ranked nodes,
//!    stored reversed and searched backward from the target). Arcs
//!    between two core nodes are not kept: a search records a core node
//!    as an entry point and never relaxes out of it.
//! 5. **Access-node sets** — for every node and direction, a build-time
//!    upward search below the core collects the node's core entry points
//!    `(core index, distance)`. Entries dominated through the table
//!    (`d(a) + T[a→f] ≤ d(f)` for an already-kept `a`) are dropped;
//!    tens of thousands of potential entries shrink to ~20 per node.
//!
//! Initial priorities, core-table rows and access-node sets are
//! embarrassingly parallel and run on every core through the workspace's
//! deterministic fork-join ([`watter_core::Exec`]), as the dense and
//! landmark tables' sweeps do; the arc reduction is sequential.
//!
//! **The crew.** The contraction loop decides on one thread — which node
//! pops, whether it is requeued, what contracting it writes — but the
//! work of each priority evaluation, one witness search per in-neighbour,
//! is shared by a crew of `exec.threads()` threads started once per build,
//! the loop thread among them. Members claim in-neighbour indices from one
//! atomic counter and search the remaining graph, which is read-shared
//! during an evaluation and written only by the loop thread between
//! evaluations. The loop thread merges the shortcuts in in-neighbour
//! order, the order one thread finds them in, so every evaluation's
//! shortcut list, the adjacency lists' insertion order and with them the
//! whole hierarchy are bit-identical for every thread count (`ch::tests`
//! and `tests/oracle.rs` prove it); one thread claims every index itself.
//! It is a crew and not [`Exec::map_indexed`]: an evaluation is a handful
//! of microsecond searches, and spawning threads for each one made the
//! loop 2.5× slower than not splitting it at all.
//!
//! **Packed keys.** Every witness search and core-table sweep pops its
//! labels in ascending `(d, node)` order. When `max_arc · n < 2³²` —
//! `max_arc` the largest weight the remaining graph has held, `n` the
//! searched graph's node count — the frontier is a heap of single `u64`
//! keys `d · 2³² + node`; otherwise a heap of `(d, node)` tuples. The two
//! pop identical sequences, stale entries included: a label is only pushed
//! from a settled one, a shortest distance and so a simple path of at most
//! `n − 1` arcs, plus one arc, so every label is at most `n · max_arc <
//! 2³²`, and packing preserves the tuple order. Which heap runs, even
//! switching mid-build, changes speed and nothing else.
//!
//! # Queries
//!
//! `cost(a, b)` on a thread-local, allocation-free workspace
//! (touched-entry reset, same discipline as
//! [`DijkstraWorkspace`](crate::DijkstraWorkspace)):
//!
//! 1. **Access join** — every path whose highest-ranked node lies *in*
//!    the core costs `d(s→f) + T[f→b] + d(b→t)` for some access pair;
//!    both access lists are distance-sorted, so the scan early-exits on
//!    the table's lower bound.
//! 2. **Local phases** — paths whose peak stays *below* the core are
//!    rank-increasing then rank-decreasing and never touch it, so a
//!    bidirectional upward meet over the below-core arc prefix finds
//!    them. Each side runs as goal-directed A* (the admissible geometric
//!    potential `γ · euclid` from [`RoadGraph::min_cost_per_unit_distance`])
//!    with stall-on-demand, pruned by the join bound — for cross-city
//!    pairs the join answer kills the local cones almost immediately.
//!
//! Distances saturate at [`UNREACHABLE`] exactly like every other
//! backend, so adversarial weights cannot wrap and disconnected pairs
//! answer `UNREACHABLE`. Directed (asymmetric) graphs are handled
//! natively — no symmetry fallback is needed.

use crate::dijkstra::{shortest_path_cost, UNREACHABLE};
use crate::graph::RoadGraph;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::ScopedJoinHandle;
use watter_core::{Dur, Exec, NodeId, TravelBound, TravelCost};

/// Witness searches stop after settling this many nodes. Larger limits
/// find more witnesses (fewer redundant shortcuts, slower preprocessing);
/// smaller limits do the opposite. Correctness never depends on it. The
/// search also stops as soon as every shortcut target is settled, so this
/// backstop only binds on pathologically dense neighborhoods — a limit
/// that is too small poisons the hierarchy (every timeout adds a
/// redundant shortcut, inflating degrees and causing more timeouts).
const WITNESS_SETTLE_LIMIT: usize = 1_500;

/// Weight of the `deleted_neighbors` term in the contraction priority.
/// Keeping contraction spread across the graph (instead of eating one
/// region hole-first) bounds shortcut fan-out on grid-like networks.
const DELETED_NEIGHBOR_WEIGHT: i64 = 1;

/// Weight of the hierarchy-depth term in the contraction priority.
/// `depth[v] = 1 + max(depth of contracted neighbors)` approximates the
/// node's level in the hierarchy; penalizing it contracts the graph in
/// balanced layers instead of deep chains — the decisive quality term on
/// grid-like networks, where pure edge difference sees every node alike.
const DEPTH_WEIGHT: i64 = 4;

/// Upper bound on the distance-table core. The top of the hierarchy is
/// where bidirectional upward searches spend most of their settles on
/// grid-like networks (search space grows like √n with the grid, unlike
/// the near-constant top on motorway networks), so the top `CORE_SIZE`
/// ranks keep their exact pairwise distances in a table and the searches
/// stop at the core boundary instead of climbing through it.
const CORE_SIZE: usize = 2_048;

/// A directed arc of the remaining (uncontracted) graph during
/// preprocessing.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Arc_ {
    other: u32,
    weight: Dur,
}

/// Exact contraction-hierarchy travel-cost oracle.
///
/// Build once per graph ([`ChOracle::build`]); queries are `&self` and run
/// on a thread-local workspace, so a shared instance needs no locking.
#[derive(Debug)]
pub struct ChOracle {
    graph: Arc<RoadGraph>,
    /// Contraction rank per node (0 = contracted first / least important;
    /// the uncontracted core holds the top ranks in node-id order).
    rank: Vec<u32>,
    /// Upward graph in *rank space*: CSR over ranks of arcs `u → v` with
    /// `rank[v] > rank[u]`. Rank indexing is a locality optimization:
    /// both search directions spend most of their settles near the top of
    /// the hierarchy, so the hot end of the distance arrays and CSRs is a
    /// contiguous (cache-resident) region instead of nodes scattered
    /// across the id space.
    up: SplitCsr,
    /// Downward graph in rank space, reversed: for each rank `v`, arcs
    /// `u → v` with `rank[u] > rank[v]`, stored as `(u, w)` so the
    /// backward search relaxes them from `v`.
    down: SplitCsr,
    /// First rank inside the distance-table core; ranks `>= core_start`
    /// never relax arcs at query time — the searches record them as entry
    /// points and the table answers the traversal between them.
    core_start: u32,
    /// Row-major `(n - core_start)²` exact pairwise distances between core
    /// nodes (rank space, saturated at [`UNREACHABLE`]).
    core_table: Vec<Dur>,
    /// Forward access nodes per rank: the distance-sorted, domination-pruned
    /// core entry points of the below-core upward cone (`targets` hold core
    /// indices, `weights` exact distances). Precomputing these turns the
    /// core traversal of a query into `|A(s)| · |A(t)|` table lookups.
    fwd_access: SplitCsr,
    /// Backward mirror: access nodes of the reversed-downward cone.
    bwd_access: SplitCsr,
    /// Node coordinates in rank order, for the geometric A* potential of
    /// the local query phases.
    coords: Vec<(f64, f64)>,
    /// [`RoadGraph::min_cost_per_unit_distance`], cached at build.
    gamma: f64,
    /// Shortcut arcs added while contracting below the core (diagnostic).
    shortcuts: usize,
}

/// Minimal CSR used for the upward/downward halves. Each node's arc list
/// keeps below-core targets first (`local_end` marks the boundary), so the
/// query's local phases iterate exactly the arcs they may relax.
#[derive(Debug, Default, PartialEq)]
struct SplitCsr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    weights: Vec<Dur>,
    local_end: Vec<u32>,
}

impl SplitCsr {
    /// `cs` is the first core rank: targets `>= cs` sort to the back of
    /// each node's list and `local_end` points at the split.
    fn from_arcs(n: usize, mut arcs: Vec<(u32, u32, Dur)>, cs: u32) -> Self {
        arcs.sort_unstable_by_key(|&(from, to, w)| (from, to >= cs, to, w));
        let mut offsets = vec![0u32; n + 1];
        for &(from, _, _) in &arcs {
            offsets[from as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut local_end: Vec<u32> = offsets[..n].to_vec();
        for (i, &(from, to, _)) in arcs.iter().enumerate() {
            if to < cs {
                local_end[from as usize] = i as u32 + 1;
            }
        }
        Self {
            offsets,
            targets: arcs.iter().map(|a| a.1).collect(),
            weights: arcs.iter().map(|a| a.2).collect(),
            local_end,
        }
    }

    #[inline]
    fn arcs(&self, u: u32) -> (&[u32], &[Dur]) {
        let lo = self.offsets[u as usize] as usize;
        let hi = self.offsets[u as usize + 1] as usize;
        (&self.targets[lo..hi], &self.weights[lo..hi])
    }

    /// The below-core prefix of `arcs(u)`.
    #[inline]
    fn local_arcs(&self, u: u32) -> (&[u32], &[Dur]) {
        let lo = self.offsets[u as usize] as usize;
        let hi = self.local_end[u as usize] as usize;
        (&self.targets[lo..hi], &self.weights[lo..hi])
    }

    /// Concatenate per-node entry lists *preserving their order* (unlike
    /// [`SplitCsr::from_arcs`], which sorts by target) — access sets are
    /// distance-sorted and the query's early exit depends on that.
    fn from_sets(sets: Vec<Vec<(u32, Dur)>>) -> Self {
        let mut offsets = vec![0u32; sets.len() + 1];
        for (i, s) in sets.iter().enumerate() {
            offsets[i + 1] = offsets[i] + s.len() as u32;
        }
        Self {
            local_end: offsets[1..].to_vec(),
            targets: sets.iter().flatten().map(|e| e.0).collect(),
            weights: sets.iter().flatten().map(|e| e.1).collect(),
            offsets,
        }
    }
}

/// A graph a witness search or core-table sweep runs over: adjacency
/// lists and a bound on every weight they hold, which picks the frontier
/// (module docs, "Packed keys").
#[derive(Clone, Copy)]
struct SearchGraph<'a> {
    adj: &'a [Vec<Arc_>],
    max_arc: Dur,
}

impl SearchGraph<'_> {
    /// Whether every label a search pushes is below 2³²: at most
    /// `n · max_arc` (module docs).
    fn packs(&self) -> bool {
        self.max_arc as u128 * self.adj.len() as u128 <= u32::MAX as u128
    }
}

/// Reusable scratch for one witness search (bounded Dijkstra).
#[derive(Default)]
struct WitnessWorkspace {
    dist: Vec<Dur>,
    touched: Vec<u32>,
    /// The frontier while the searched graph packs
    /// ([`SearchGraph::packs`]): `d · 2³² + node` orders like `(d, node)`
    /// at one `u64` compare per sift step instead of a tuple's two.
    packed: BinaryHeap<Reverse<u64>>,
    /// The frontier otherwise, on the `(d, node)` tuple itself.
    wide: BinaryHeap<Reverse<(Dur, u32)>>,
    /// Whether this search pushes onto `packed`.
    pack: bool,
    /// Shortcut targets not yet settled; the search stops when empty.
    pending: Vec<u32>,
}

impl WitnessWorkspace {
    #[inline]
    fn push(&mut self, d: Dur, v: u32) {
        if self.pack {
            debug_assert!((0..=u32::MAX as Dur).contains(&d), "{d} does not pack");
            self.packed.push(Reverse(((d as u64) << 32) | u64::from(v)));
        } else {
            self.wide.push(Reverse((d, v)));
        }
    }

    /// The least label of whichever frontier this search uses.
    #[inline]
    fn pop(&mut self) -> Option<(Dur, u32)> {
        match self.packed.pop() {
            Some(Reverse(key)) => Some(((key >> 32) as Dur, key as u32)),
            None => self.wide.pop().map(|Reverse(label)| label),
        }
    }

    /// Bounded multi-target Dijkstra from `src` over `g`, skipping the
    /// node being contracted (`banned`) and stopping once every node in
    /// `targets` is settled, `limit` nodes are settled, or the frontier
    /// exceeds `cap`. Afterwards `self.dist` holds (possibly truncated)
    /// witness distances. The target-settled exit is what keeps large
    /// `limit`s affordable: in a healthy hierarchy the handful of shortcut
    /// endpoints settle after a small local exploration.
    fn search(
        &mut self,
        g: SearchGraph,
        src: u32,
        banned: u32,
        cap: Dur,
        limit: usize,
        targets: &[u32],
    ) {
        for &t in &self.touched {
            self.dist[t as usize] = UNREACHABLE;
        }
        self.touched.clear();
        if self.dist.len() < g.adj.len() {
            self.dist.resize(g.adj.len(), UNREACHABLE);
        }
        self.packed.clear();
        self.wide.clear();
        self.pack = g.packs();
        self.pending.clear();
        self.pending.extend(targets.iter().filter(|&&t| t != src));
        self.dist[src as usize] = 0;
        self.touched.push(src);
        self.push(0, src);
        let mut settled = 0;
        while let Some((d, u)) = self.pop() {
            if d > self.dist[u as usize] {
                continue;
            }
            if let Some(i) = self.pending.iter().position(|&t| t == u) {
                self.pending.swap_remove(i);
                if self.pending.is_empty() {
                    break;
                }
            }
            settled += 1;
            if settled > limit || d > cap {
                break;
            }
            for a in &g.adj[u as usize] {
                if a.other == banned {
                    continue;
                }
                let nd = d.saturating_add(a.weight).min(UNREACHABLE);
                if nd < self.dist[a.other as usize] {
                    if self.dist[a.other as usize] >= UNREACHABLE {
                        self.touched.push(a.other);
                    }
                    self.dist[a.other as usize] = nd;
                    self.push(nd, a.other);
                }
            }
        }
    }
}

thread_local! {
    /// Per-thread witness scratch (preprocessing) — initial priorities and
    /// core-table rows run under the fork-join executor and contraction
    /// priorities on the crew, so each thread needs its own.
    static WITNESS: RefCell<WitnessWorkspace> = RefCell::new(WitnessWorkspace::default());
    /// Per-thread query scratch: repeated queries allocate nothing.
    static QUERY: RefCell<ChWorkspace> = RefCell::new(ChWorkspace::default());
}

/// Settle cap for the arc-reduction searches (see [`reduce_arcs`]).
const REDUCTION_SETTLE_LIMIT: usize = 1_000;

/// Remove every arc `u → v` that a *multi-hop* path in the same graph
/// strictly beats. Witness searches only see the remaining graph at
/// contraction time, so shortcuts added late routinely dominate arcs kept
/// early; queries then relax the dominated arcs for nothing. Dropping an
/// arc only when a strictly shorter path exists keeps all distances exact
/// (the witness path survives any removal order), so the pass is safe to
/// run on either search half independently. `max_arc` bounds every
/// weight in `adj`.
fn reduce_arcs(adj: &mut [Vec<Arc_>], max_arc: Dur) {
    for u in 0..adj.len() as u32 {
        if adj[u as usize].len() < 2 {
            continue; // a dominating path must start with a different arc
        }
        let targets: Vec<u32> = adj[u as usize].iter().map(|a| a.other).collect();
        let cap = adj[u as usize]
            .iter()
            .map(|a| a.weight)
            .max()
            .unwrap_or(0)
            .min(UNREACHABLE);
        WITNESS.with(|ws| {
            let mut ws = ws.borrow_mut();
            // No banned node: the search may use every arc, including the
            // one under test — `dist[v] < w` then certifies a multi-hop
            // path strictly shorter than the direct arc.
            let g = SearchGraph { adj, max_arc };
            ws.search(g, u, u32::MAX, cap, REDUCTION_SETTLE_LIMIT, &targets);
            let dist = &ws.dist;
            adj[u as usize].retain(|a| dist[a.other as usize] >= a.weight);
        });
    }
}

/// The remaining (uncontracted) graph while the contraction loop runs,
/// and the node whose priority evaluation is in flight: what an
/// evaluation reads and what contracting writes.
struct Remaining {
    fwd: Vec<Vec<Arc_>>,
    bwd: Vec<Vec<Arc_>>,
    /// The largest weight `fwd` has held (module docs, "Packed keys").
    max_arc: Dur,
    node: u32,
}

/// What the contraction loop leaves behind.
#[derive(PartialEq)]
struct Contracted {
    rank: Vec<u32>,
    /// Every shortcut in the order contracting added it.
    shortcuts: Vec<(u32, u32, Dur)>,
    /// The uncontracted nodes, ascending: ranked from the core's start.
    core_nodes: Vec<u32>,
    /// The remaining graph at the wall: arcs among core nodes only.
    fwd: Vec<Vec<Arc_>>,
    max_arc: Dur,
}

impl Remaining {
    /// `graph` without self loops, deduplicated to the minimum weight per
    /// arc (parallel arcs never matter for shortest paths).
    fn new(graph: &RoadGraph) -> Self {
        let n = graph.node_count();
        let mut fwd: Vec<Vec<Arc_>> = vec![Vec::new(); n];
        let mut bwd: Vec<Vec<Arc_>> = vec![Vec::new(); n];
        for u in graph.nodes() {
            let (targets, weights) = graph.out_edges(u);
            let mut last: Option<u32> = None;
            for (&v, &w) in targets.iter().zip(weights) {
                if v == u.0 {
                    continue; // self loops are never on a shortest path
                }
                // out_edges is sorted by target, so duplicates are runs;
                // the first of a run has the minimum weight only if sorted
                // by weight too — compare explicitly instead.
                if last == Some(v) {
                    if let Some(a) = fwd[u.0 as usize].last_mut() {
                        if w < a.weight {
                            a.weight = w;
                            if let Some(b) = bwd[v as usize].last_mut() {
                                b.weight = w;
                            }
                        }
                    }
                    continue;
                }
                last = Some(v);
                fwd[u.0 as usize].push(Arc_ {
                    other: v,
                    weight: w,
                });
                bwd[v as usize].push(Arc_ {
                    other: u.0,
                    weight: w,
                });
            }
        }
        let max_arc = fwd.iter().flatten().map(|a| a.weight).max().unwrap_or(0);
        Self {
            fwd,
            bwd,
            max_arc,
            node: 0,
        }
    }

    fn search_graph(&self) -> SearchGraph<'_> {
        SearchGraph {
            adj: &self.fwd,
            max_arc: self.max_arc,
        }
    }

    /// Edge difference of contracting `v` with `added` shortcuts —
    /// shortcuts added minus arcs removed. The contraction priority adds
    /// the deleted-neighbors term that spreads contraction uniformly and
    /// the depth term that keeps the hierarchy in balanced layers.
    fn edge_difference(&self, v: u32, added: usize) -> i64 {
        added as i64 - (self.fwd[v as usize].len() + self.bwd[v as usize].len()) as i64
    }

    /// The shortcuts contracting `v` needs on behalf of its `i`-th
    /// in-neighbour `u`: one witness search from `u` avoiding `v`, then
    /// `u → x`, in out-arc order, for every out-neighbour `x` (`targets`)
    /// the search reaches no cheaper than through `v`. A pure function of
    /// the graph, so any thread may run it.
    fn witness(&self, v: u32, i: usize, targets: &[u32], mut emit: impl FnMut(u32, u32, Dur)) {
        let inc = self.bwd[v as usize][i];
        let outs = &self.fwd[v as usize];
        let u = inc.other;
        // Cap the witness search at the worst chain through v.
        let cap = outs
            .iter()
            .map(|out| inc.weight.saturating_add(out.weight))
            .max()
            .unwrap_or(0)
            .min(UNREACHABLE);
        WITNESS.with(|ws| {
            let mut ws = ws.borrow_mut();
            ws.search(
                self.search_graph(),
                u,
                v,
                cap,
                WITNESS_SETTLE_LIMIT,
                targets,
            );
            for out in outs {
                let x = out.other;
                if x == u {
                    continue;
                }
                let via = inc.weight.saturating_add(out.weight).min(UNREACHABLE);
                if via >= UNREACHABLE {
                    continue; // indistinguishable from no path
                }
                if ws.dist[x as usize] <= via {
                    continue; // witness found: shortcut redundant
                }
                emit(u, x, via);
            }
        });
    }

    fn targets(&self, v: u32) -> Vec<u32> {
        self.fwd[v as usize].iter().map(|out| out.other).collect()
    }

    /// Contract nodes in lazy-priority order up to the wall (module docs,
    /// steps 1–2), each evaluation's searches shared by a crew of
    /// `exec.threads()` threads; the survivors are the core.
    fn contract(self, exec: &Exec) -> Contracted {
        let n = self.fwd.len();
        // `n / 4` keeps small graphs honest: even unit tests cross the
        // core code path instead of leaving it to metropolis runs.
        let core_start = (n - CORE_SIZE.min(n / 4)) as u32;
        // Initial priorities: pure per-node work, fanned out deterministically.
        let init: Vec<i64> = exec.map_indexed(n, |v| {
            let (v, targets) = (v as u32, self.targets(v as u32));
            let mut added = 0;
            for i in 0..self.bwd[v as usize].len() {
                self.witness(v, i, &targets, |_, _, _| added += 1);
            }
            self.edge_difference(v, added)
        });
        let mut heap: BinaryHeap<Reverse<(i64, u32)>> = (0..n as u32)
            .map(|v| Reverse((init[v as usize], v)))
            .collect();

        let mut rank = vec![0u32; n];
        let mut deleted = vec![0i64; n];
        let mut depth = vec![0i64; n];
        let mut shortcuts: Vec<(u32, u32, Dur)> = Vec::new();
        let mut new_arcs: Vec<(u32, u32, Dur)> = Vec::new();
        let mut next_rank = 0u32;
        let crew = Crew::new(self);

        std::thread::scope(|scope| {
            let _dismiss = Dismiss(&crew.dismissed);
            let members: Vec<_> = (1..exec.threads())
                .map(|_| scope.spawn(|| crew.serve()))
                .collect();
            while next_rank < core_start {
                // A node is queued exactly once until it is contracted.
                let Reverse((p, v)) = heap.pop().expect("uncontracted nodes are queued");
                // Lazy update: recompute; if the node no longer wins,
                // requeue. The evaluation that wins contracts with the
                // shortcuts it saw.
                new_arcs.clear();
                let fresh = crew.evaluate(v, &mut new_arcs, &members)
                    + DELETED_NEIGHBOR_WEIGHT * deleted[v as usize]
                    + DEPTH_WEIGHT * depth[v as usize];
                if fresh > p {
                    if let Some(&Reverse((top, _))) = heap.peek() {
                        if fresh > top {
                            heap.push(Reverse((fresh, v)));
                            continue;
                        }
                    }
                }

                // Contract v: materialize its shortcuts into the remaining
                // graph and the final arc set, then disconnect it.
                let mut g = crew.graph.write().expect("only the loop thread writes");
                let Remaining {
                    fwd, bwd, max_arc, ..
                } = &mut *g;
                for &(u, x, w) in &new_arcs {
                    *max_arc = (*max_arc).max(w);
                    // Keep the remaining graph deduplicated: tighten an
                    // existing arc in place, insert otherwise.
                    match fwd[u as usize].iter_mut().find(|a| a.other == x) {
                        Some(a) if a.weight <= w => {}
                        Some(a) => {
                            a.weight = w;
                            if let Some(b) = bwd[x as usize].iter_mut().find(|a| a.other == u) {
                                b.weight = w;
                            }
                        }
                        None => {
                            fwd[u as usize].push(Arc_ {
                                other: x,
                                weight: w,
                            });
                            bwd[x as usize].push(Arc_ {
                                other: u,
                                weight: w,
                            });
                        }
                    }
                    shortcuts.push((u, x, w));
                }

                // Disconnect v; bump the deleted-neighbors and depth terms
                // of its (still uncontracted) neighborhood.
                let out = std::mem::take(&mut fwd[v as usize]);
                for a in &out {
                    bwd[a.other as usize].retain(|b| b.other != v);
                    deleted[a.other as usize] += 1;
                    depth[a.other as usize] = depth[a.other as usize].max(depth[v as usize] + 1);
                }
                let inc = std::mem::take(&mut bwd[v as usize]);
                for a in &inc {
                    fwd[a.other as usize].retain(|b| b.other != v);
                    deleted[a.other as usize] += 1;
                    depth[a.other as usize] = depth[a.other as usize].max(depth[v as usize] + 1);
                }

                rank[v as usize] = next_rank;
                next_rank += 1;
            }
        });

        // The survivors are the core, ranked by ascending node id.
        let mut core_nodes: Vec<u32> = heap.into_iter().map(|Reverse((_, v))| v).collect();
        core_nodes.sort_unstable();
        for (i, &v) in core_nodes.iter().enumerate() {
            rank[v as usize] = core_start + i as u32;
        }
        let g = crew
            .graph
            .into_inner()
            .expect("only the loop thread writes");
        Contracted {
            rank,
            shortcuts,
            core_nodes,
            fwd: g.fwd,
            max_arc: g.max_arc,
        }
    }
}

/// Busy-wait iterations before a crew thread starts yielding its core:
/// evaluations follow each other within microseconds, but a crew wider
/// than the host's cores only moves on once a waiting thread steps aside.
const CREW_SPINS: u32 = 256;

fn pause(waited: &mut u32) {
    if *waited < CREW_SPINS {
        *waited += 1;
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

/// One build's contraction crew (module docs, "The crew").
///
/// Orderings: `next` and `done` are reset under the write lock and
/// claimed under the read lock, so the lock orders them against each
/// evaluation and a claim needs only the atomicity of `fetch_add`;
/// `published` and `dismissed` are hints that publish no data (the job
/// itself is read under the lock). A member's `found` append happens
/// before its `Release` add to `done`, which the loop thread's `Acquire`
/// load pairs with before it merges.
struct Crew {
    graph: RwLock<Remaining>,
    /// Bumped once per published evaluation; idle members watch it.
    published: AtomicUsize,
    /// The next unclaimed in-neighbour index of the evaluation in flight.
    next: AtomicUsize,
    /// In-neighbours searched whose shortcuts are in `found`.
    done: AtomicUsize,
    /// `(in-neighbour index, u, x, w)` per shortcut, in completion order.
    found: Mutex<Vec<(usize, u32, u32, Dur)>>,
    dismissed: AtomicBool,
}

/// Dismisses the crew when the loop ends, by returning or by unwinding:
/// the scope joins every member before it does either.
struct Dismiss<'a>(&'a AtomicBool);

impl Drop for Dismiss<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

impl Crew {
    fn new(graph: Remaining) -> Self {
        Self {
            graph: RwLock::new(graph),
            published: AtomicUsize::new(0),
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            found: Mutex::new(Vec::new()),
            dismissed: AtomicBool::new(false),
        }
    }

    /// A member's life: wait for an evaluation, help with it, repeat.
    fn serve(&self) {
        let (mut seen, mut waited) = (0, 0);
        while !self.dismissed.load(Ordering::Relaxed) {
            let now = self.published.load(Ordering::Relaxed);
            // Never sleep on the lock: the loop thread holds it for
            // writing only for microseconds, and waking a sleeper would
            // put a system call on its path.
            if now != seen {
                if let Ok(g) = self.graph.try_read() {
                    (seen, waited) = (now, 0);
                    self.work(&g);
                    continue;
                }
            }
            pause(&mut waited);
        }
    }

    /// Claim in-neighbours of the evaluation in flight until none is
    /// left, search each, and hand the shortcuts in.
    fn work(&self, g: &Remaining) {
        let v = g.node;
        let ins = g.bwd[v as usize].len();
        let mut i = self.next.fetch_add(1, Ordering::Relaxed);
        if i >= ins {
            return;
        }
        let targets = g.targets(v);
        let (mut mine, mut searched) = (Vec::new(), 0);
        while i < ins {
            g.witness(v, i, &targets, |u, x, w| mine.push((i, u, x, w)));
            searched += 1;
            i = self.next.fetch_add(1, Ordering::Relaxed);
        }
        self.found
            .lock()
            .expect("no member panics holding `found`")
            .append(&mut mine);
        self.done.fetch_add(searched, Ordering::Release);
    }

    /// Evaluate `v` with the crew: its shortcuts appended to `new_arcs` in
    /// in-neighbour order, its edge difference returned. `members` are
    /// watched so that a member that died fails the build, not stalls it.
    fn evaluate(
        &self,
        v: u32,
        new_arcs: &mut Vec<(u32, u32, Dur)>,
        members: &[ScopedJoinHandle<()>],
    ) -> i64 {
        {
            let mut g = self.graph.write().expect("only the loop thread writes");
            g.node = v;
            self.next.store(0, Ordering::Relaxed);
            self.done.store(0, Ordering::Relaxed);
        }
        self.published.fetch_add(1, Ordering::Relaxed);
        let g = self.graph.read().expect("only the loop thread writes");
        self.work(&g);
        let ins = g.bwd[v as usize].len();
        let mut waited = 0;
        while self.done.load(Ordering::Acquire) < ins {
            assert!(
                !members.iter().any(|m| m.is_finished()),
                "a contraction crew member died"
            );
            pause(&mut waited);
        }
        let mut found = self.found.lock().expect("no member panics holding `found`");
        // Stable: one search's shortcuts keep their out-arc order.
        found.sort_by_key(|s| s.0);
        new_arcs.extend(found.drain(..).map(|(_, u, x, w)| (u, x, w)));
        g.edge_difference(v, new_arcs.len())
    }
}

impl ChOracle {
    /// Preprocess `graph` into a contraction hierarchy on every available
    /// core.
    pub fn build(graph: Arc<RoadGraph>) -> Self {
        Self::build_with_exec(graph, &Exec::new(0))
    }

    /// Preprocess with initial priorities, core-table rows and access sets
    /// computed on `exec`'s fork-join threads and each contraction
    /// priority's witness searches on a crew of `exec.threads()` threads.
    /// The hierarchy is bit-identical for every thread count: the
    /// fork-join stages are pure order-preserving maps, and the crew's
    /// results merge in the order one thread finds them (module docs).
    pub fn build_with_exec(graph: Arc<RoadGraph>, exec: &Exec) -> Self {
        let n = graph.node_count();
        let remaining = Remaining::new(&graph);

        // Original (deduplicated) arcs, later merged with shortcuts.
        let mut all_arcs: Vec<(u32, u32, Dur)> = Vec::new();
        for (u, arcs) in remaining.fwd.iter().enumerate() {
            all_arcs.extend(arcs.iter().map(|a| (u as u32, a.other, a.weight)));
        }

        let Contracted {
            rank,
            shortcuts,
            core_nodes,
            fwd,
            max_arc,
        } = remaining.contract(exec);
        let core_len = core_nodes.len();
        let core_start = (n - core_len) as u32;

        // `fwd` is now the core graph (step 3): one full Dijkstra per core
        // node over it — fanned out on the executor, order-preserving, so
        // still deterministic — fills the table.
        let core_arc = |a: &Arc_| Arc_ {
            other: rank[a.other as usize] - core_start,
            weight: a.weight,
        };
        let core_adj: Vec<Vec<Arc_>> = core_nodes
            .iter()
            .map(|&v| fwd[v as usize].iter().map(core_arc).collect())
            .collect();

        // Final arc set: originals + shortcuts, minimum weight per arc,
        // minus the arcs between two core nodes — the table answers those
        // and the searches never relax out of a core rank.
        let shortcut_count = shortcuts.len();
        all_arcs.extend(shortcuts);
        all_arcs.sort_unstable_by_key(|&(u, v, w)| (u, v, w));
        all_arcs.dedup_by_key(|&mut (u, v, _)| (u, v));

        let mut up_adj: Vec<Vec<Arc_>> = vec![Vec::new(); n];
        let mut down_adj: Vec<Vec<Arc_>> = vec![Vec::new(); n];
        for &(u, v, w) in &all_arcs {
            let (ru, rv) = (rank[u as usize], rank[v as usize]);
            if ru.min(rv) >= core_start {
                continue;
            }
            if rv > ru {
                up_adj[ru as usize].push(Arc_ {
                    other: rv,
                    weight: w,
                });
            } else {
                // Reversed: the backward search relaxes (v ← u) from v.
                down_adj[rv as usize].push(Arc_ {
                    other: ru,
                    weight: w,
                });
            }
        }

        // Arc reduction: late shortcuts dominate early arcs; prune them so
        // queries never relax an arc a shorter multi-hop path beats.
        reduce_arcs(&mut up_adj, max_arc);
        reduce_arcs(&mut down_adj, max_arc);

        // Each sweep lands in its row of the one preallocated table, so
        // the build never holds the (8 MB at 1 024 core nodes) table twice.
        let mut core_table: Vec<Dur> = vec![UNREACHABLE; core_len * core_len];
        let core = SearchGraph {
            adj: &core_adj,
            max_arc,
        };
        exec.fill_rows(&mut core_table, core_len, |first_row, rows| {
            WITNESS.with(|ws| {
                let mut ws = ws.borrow_mut();
                for (r, row) in rows.chunks_mut(core_len).enumerate() {
                    let src = (first_row + r) as u32;
                    ws.search(core, src, u32::MAX, UNREACHABLE, usize::MAX, &[]);
                    row.copy_from_slice(&ws.dist[..core_len]);
                }
            })
        });
        // Debug builds re-derive a sample of entries on the original graph.
        for i in (0..core_len).step_by(core_len / 8 + 1) {
            let j = (i * 7 + 3) % core_len;
            let (a, b) = (NodeId(core_nodes[i]), NodeId(core_nodes[j]));
            debug_assert_eq!(
                core_table[i * core_len + j],
                shortest_path_cost(&graph, a, b)
            );
        }

        let collect = |adj: &[Vec<Arc_>]| -> Vec<(u32, u32, Dur)> {
            adj.iter()
                .enumerate()
                .flat_map(|(u, arcs)| arcs.iter().map(move |a| (u as u32, a.other, a.weight)))
                .collect()
        };
        let up = SplitCsr::from_arcs(n, collect(&up_adj), core_start);
        let down = SplitCsr::from_arcs(n, collect(&down_adj), core_start);

        // Access-node sets: one exhaustive below-core cone per rank and
        // direction, reduced to the entries no other entry dominates
        // through the table. Another order-preserving fan-out, so the
        // whole structure stays bit-identical across thread counts.
        let access = |forward: bool| -> SplitCsr {
            let (climb, stall) = if forward { (&up, &down) } else { (&down, &up) };
            SplitCsr::from_sets(exec.map_indexed(n, |r| {
                QUERY.with(|ws| {
                    ws.borrow_mut().collect_access(
                        climb,
                        stall,
                        n,
                        core_start,
                        core_len,
                        &core_table,
                        r as u32,
                        forward,
                    )
                })
            }))
        };
        let fwd_access = access(true);
        let bwd_access = access(false);

        let mut coords = vec![(0.0, 0.0); n];
        for (v, &c) in graph.coords().iter().enumerate() {
            coords[rank[v] as usize] = c;
        }
        let gamma = graph.min_cost_per_unit_distance();

        Self {
            rank,
            up,
            down,
            core_start,
            core_table,
            fwd_access,
            bwd_access,
            coords,
            gamma,
            shortcuts: shortcut_count,
            graph,
        }
    }

    /// The underlying road graph.
    pub fn graph(&self) -> &Arc<RoadGraph> {
        &self.graph
    }

    /// Shortcut arcs added while contracting the nodes below the core —
    /// the core itself is never contracted.
    pub fn shortcut_count(&self) -> usize {
        self.shortcuts
    }

    /// Contraction rank of a node (0 = contracted first).
    pub fn rank(&self, n: NodeId) -> u32 {
        self.rank[n.index()]
    }

    /// Resident bytes of the search structure: both CSR halves, both
    /// access-set CSRs, ranks, the core table and the rank-order coords.
    pub fn resident_bytes(&self) -> usize {
        let csr = |c: &SplitCsr| {
            c.offsets.len() * 4 + c.targets.len() * 4 + c.weights.len() * std::mem::size_of::<Dur>()
        };
        csr(&self.up)
            + csr(&self.down)
            + csr(&self.fwd_access)
            + csr(&self.bwd_access)
            + self.rank.len() * 4
            + self.core_table.len() * std::mem::size_of::<Dur>()
            + self.coords.len() * std::mem::size_of::<(f64, f64)>()
    }

    /// Admissible geometric lower bound on the travel cost between two
    /// ranks: `γ · euclid`, shaved by a relative and absolute margin so
    /// float rounding can never push it above the true cost (see
    /// [`RoadGraph::min_cost_per_unit_distance`] for why the bound holds).
    #[inline]
    fn geo_bound(&self, u: u32, to: (f64, f64)) -> Dur {
        let (x, y) = self.coords[u as usize];
        let (dx, dy) = (x - to.0, y - to.1);
        let b = (dx * dx + dy * dy).sqrt() * self.gamma;
        if b.is_finite() && b < UNREACHABLE as f64 {
            (((b * (1.0 - 1e-9)).floor() as Dur) - 1).max(0)
        } else {
            UNREACHABLE
        }
    }

    /// Whether `b` is reachable from `a`.
    pub fn reachable(&self, a: NodeId, b: NodeId) -> bool {
        self.cost(a, b) < UNREACHABLE
    }

    /// Query + search-space diagnostics: `(cost, [settled, relaxed, stalled,
    /// table entries scanned by the access join, access entries read])`.
    #[doc(hidden)]
    pub fn cost_with_stats(&self, a: NodeId, b: NodeId) -> (Dur, [usize; 5]) {
        QUERY.with(|ws| {
            let mut ws = ws.borrow_mut();
            ws.settled = 0;
            ws.relaxed = 0;
            ws.stalled = 0;
            ws.scanned = 0;
            ws.entries = 0;
            let c = ws.search(self, a, b);
            (
                c,
                [ws.settled, ws.relaxed, ws.stalled, ws.scanned, ws.entries],
            )
        })
    }

    /// Structural fingerprint for determinism tests: every query-relevant
    /// component, so two bit-identical hierarchies compare equal.
    pub fn same_hierarchy(&self, other: &ChOracle) -> bool {
        self.rank == other.rank
            && self.up == other.up
            && self.down == other.down
            && self.core_start == other.core_start
            && self.core_table == other.core_table
            && self.fwd_access == other.fwd_access
            && self.bwd_access == other.bwd_access
            && self.coords == other.coords
            && self.gamma == other.gamma
            && self.shortcuts == other.shortcuts
    }
}

/// Reusable bidirectional upward-search state.
#[derive(Default)]
struct ChWorkspace {
    dist_f: Vec<Dur>,
    dist_b: Vec<Dur>,
    touched_f: Vec<u32>,
    touched_b: Vec<u32>,
    heap_f: BinaryHeap<Reverse<(Dur, Dur, u32)>>,
    heap_b: BinaryHeap<Reverse<(Dur, Dur, u32)>>,
    settled: usize,
    relaxed: usize,
    stalled: usize,
    scanned: usize,
    entries: usize,
}

impl ChWorkspace {
    fn begin(&mut self, n: usize) {
        for &t in &self.touched_f {
            self.dist_f[t as usize] = UNREACHABLE;
        }
        for &t in &self.touched_b {
            self.dist_b[t as usize] = UNREACHABLE;
        }
        self.touched_f.clear();
        self.touched_b.clear();
        self.heap_f.clear();
        self.heap_b.clear();
        if self.dist_f.len() < n {
            self.dist_f.resize(n, UNREACHABLE);
            self.dist_b.resize(n, UNREACHABLE);
        }
    }

    /// The below-core upward cone from `start` (in rank space): an
    /// exhaustive stalled Dijkstra over `climb` that treats the core as a
    /// wall, collected into the distance-sorted core entry list and pruned
    /// to the access nodes — entries no kept entry reaches more cheaply
    /// through the table (domination is transitive, so checking against
    /// the kept prefix suffices).
    #[allow(clippy::too_many_arguments)]
    fn collect_access(
        &mut self,
        climb: &SplitCsr,
        stall: &SplitCsr,
        n: usize,
        cs: u32,
        k: usize,
        table: &[Dur],
        start: u32,
        forward: bool,
    ) -> Vec<(u32, Dur)> {
        self.begin(n);
        self.dist_f[start as usize] = 0;
        self.touched_f.push(start);
        self.heap_f.push(Reverse((0, 0, start)));
        let mut entries: Vec<(u32, Dur)> = Vec::new();
        while let Some(Reverse((_, d, u))) = self.heap_f.pop() {
            if d > self.dist_f[u as usize] {
                continue;
            }
            if u >= cs {
                entries.push((u - cs, d));
                continue;
            }
            let (stall_n, stall_w) = stall.arcs(u);
            if stall_n
                .iter()
                .zip(stall_w)
                .any(|(&w_node, &w)| self.dist_f[w_node as usize].saturating_add(w) < d)
            {
                continue;
            }
            let (targets, weights) = climb.arcs(u);
            for (&v, &w) in targets.iter().zip(weights) {
                let nd = d.saturating_add(w).min(UNREACHABLE);
                if nd < self.dist_f[v as usize] {
                    if self.dist_f[v as usize] >= UNREACHABLE {
                        self.touched_f.push(v);
                    }
                    self.dist_f[v as usize] = nd;
                    self.heap_f.push(Reverse((nd, nd, v)));
                }
            }
        }
        entries.sort_unstable_by_key(|&(i, d)| (d, i));
        let mut kept: Vec<(u32, Dur)> = Vec::new();
        'entry: for &(f, df) in &entries {
            for &(a, da) in &kept {
                // Forward: s → a, then core path a → f. Backward entries
                // carry tail distances, so the core path runs f-ward:
                // f → a, then a → t.
                let t = if forward {
                    table[a as usize * k + f as usize]
                } else {
                    table[f as usize * k + a as usize]
                };
                if da.saturating_add(t) <= df {
                    continue 'entry;
                }
            }
            kept.push((f, df));
        }
        kept
    }

    fn search(&mut self, ch: &ChOracle, src: NodeId, dst: NodeId) -> Dur {
        let n = ch.rank.len();
        self.begin(n);
        // The whole search runs in rank space (see `ChOracle::up`).
        let cs = ch.core_start;
        let k = n - cs as usize;
        let (rs, rd) = (ch.rank[src.index()], ch.rank[dst.index()]);
        let mut best = if src == dst { 0 } else { UNREACHABLE };

        // Access join first: every path through the core is the cheapest
        // `s → f (access), f → b (table), b → t (access)` combination.
        // Both sets are distance-sorted, so the running best bounds both
        // loops (the table term is non-negative).
        let (af_n, af_d) = ch.fwd_access.arcs(rs);
        let (ab_n, ab_d) = ch.bwd_access.arcs(rd);
        self.entries += af_n.len() + ab_n.len();
        if let Some(&db_min) = ab_d.first() {
            for (&f, &df) in af_n.iter().zip(af_d) {
                if df.saturating_add(db_min) >= best {
                    break;
                }
                let row = &ch.core_table[f as usize * k..(f as usize + 1) * k];
                for (&b, &db) in ab_n.iter().zip(ab_d) {
                    if df.saturating_add(db) >= best {
                        break;
                    }
                    self.scanned += 1;
                    let cand = df
                        .saturating_add(row[b as usize])
                        .saturating_add(db)
                        .min(UNREACHABLE);
                    best = best.min(cand);
                }
            }
        }

        // Local phases cover paths whose peak lies below the core — an
        // up-path is rank-increasing, so such paths never touch it and the
        // classic bidirectional meet finds them. The core is a wall here
        // (never relaxed into); `best` from the join is a valid upper
        // bound, so both directions prune on it. Each phase runs as an A*
        // toward the far endpoint: the geometric potential is consistent,
        // so labels are final when settled, and a frontier whose `f`
        // reaches `best` cannot complete any cheaper below-core path —
        // for cross-city pairs the join bound kills the cone almost
        // immediately. Backward first: its distances must be final before
        // the forward meet checks.
        let to_src = ch.coords[rs as usize];
        let to_dst = ch.coords[rd as usize];
        self.dist_b[rd as usize] = 0;
        self.touched_b.push(rd);
        self.heap_b.push(Reverse((ch.geo_bound(rd, to_src), 0, rd)));
        while let Some(Reverse((f, d, u))) = self.heap_b.pop() {
            if f >= best {
                break;
            }
            if d > self.dist_b[u as usize] || u >= cs {
                continue;
            }
            self.settled += 1;
            // Stall-on-demand: a cheaper u → t tail through an *upward*
            // arc u → w dominates this label; relaxing it only floods the
            // hierarchy. (u still counts as a meet point; that is valid.)
            // Core neighbours never carry finite local distances (relaxation
            // stays below the wall), so the below-core prefix suffices.
            let (stall_tgts, stall_ws) = ch.up.local_arcs(u);
            let stalled = stall_tgts
                .iter()
                .zip(stall_ws)
                .any(|(&w_node, &w)| self.dist_b[w_node as usize].saturating_add(w) < d);
            if stalled {
                self.stalled += 1;
                continue;
            }
            let (targets, weights) = ch.down.local_arcs(u);
            for (&v, &w) in targets.iter().zip(weights) {
                self.relaxed += 1;
                let nd = d.saturating_add(w).min(UNREACHABLE);
                if nd < self.dist_b[v as usize] {
                    if self.dist_b[v as usize] >= UNREACHABLE {
                        self.touched_b.push(v);
                    }
                    self.dist_b[v as usize] = nd;
                    let nf = nd.saturating_add(ch.geo_bound(v, to_src));
                    if nf < best {
                        self.heap_b.push(Reverse((nf, nd, v)));
                    }
                }
            }
        }

        // Forward phase, with meet checks against the final backward
        // distances. Any candidate through a popped label costs at least
        // that label, so `d >= best` ends the search.
        self.dist_f[rs as usize] = 0;
        self.touched_f.push(rs);
        self.heap_f.push(Reverse((ch.geo_bound(rs, to_dst), 0, rs)));
        while let Some(Reverse((f, d, u))) = self.heap_f.pop() {
            if f >= best {
                break;
            }
            if d > self.dist_f[u as usize] || u >= cs {
                continue;
            }
            self.settled += 1;
            let meet = d.saturating_add(self.dist_b[u as usize]).min(UNREACHABLE);
            best = best.min(meet);
            // Mirror image of the backward stall: a higher-ranked w that
            // reaches u more cheaply through a *downward* arc w → u
            // (again only below-core w can hold a finite distance).
            let (stall_srcs, stall_ws) = ch.down.local_arcs(u);
            let stalled = stall_srcs
                .iter()
                .zip(stall_ws)
                .any(|(&w_node, &w)| self.dist_f[w_node as usize].saturating_add(w) < d);
            if stalled {
                self.stalled += 1;
                continue;
            }
            let (targets, weights) = ch.up.local_arcs(u);
            for (&v, &w) in targets.iter().zip(weights) {
                self.relaxed += 1;
                let nd = d.saturating_add(w).min(UNREACHABLE);
                if nd < self.dist_f[v as usize] {
                    if self.dist_f[v as usize] >= UNREACHABLE {
                        self.touched_f.push(v);
                    }
                    self.dist_f[v as usize] = nd;
                    let nf = nd.saturating_add(ch.geo_bound(v, to_dst));
                    if nf < best {
                        self.heap_f.push(Reverse((nf, nd, v)));
                    }
                }
            }
        }
        best.min(UNREACHABLE)
    }
}

impl TravelCost for ChOracle {
    fn cost(&self, a: NodeId, b: NodeId) -> Dur {
        if a == b {
            return 0;
        }
        QUERY.with(|ws| ws.borrow_mut().search(self, a, b))
    }
}

impl TravelBound for ChOracle {
    /// CH queries are exact and microsecond-scale, so — like the dense
    /// table — the tightest admissible bound *is* the cost itself.
    #[inline]
    fn lower_bound(&self, a: NodeId, b: NodeId) -> Dur {
        self.cost(a, b)
    }

    /// The bound is a full query: a caller that knows asks once.
    #[inline]
    fn bound_is_exact(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::citygen::CityConfig;
    use crate::dijkstra::DijkstraOracle;
    use crate::graph::Edge;
    use crate::matrix::CostMatrix;

    fn city(w: usize, h: usize, seed: u64) -> Arc<RoadGraph> {
        Arc::new(
            CityConfig {
                width: w,
                height: h,
                ..Default::default()
            }
            .generate(seed),
        )
    }

    /// Build the hierarchy and check it against Dijkstra on every pair.
    fn exact_on_all_pairs(g: &Arc<RoadGraph>) -> ChOracle {
        let ch = ChOracle::build(g.clone());
        let dij = DijkstraOracle::new(g);
        for a in g.nodes() {
            for b in g.nodes() {
                assert_eq!(ch.cost(a, b), dij.cost(a, b), "{a} -> {b}");
            }
        }
        ch
    }

    #[test]
    fn matches_dense_table_on_all_pairs() {
        let g = city(8, 7, 3);
        let dense = CostMatrix::build(&g);
        let ch = ChOracle::build(g.clone());
        for a in g.nodes() {
            for b in g.nodes() {
                assert_eq!(ch.cost(a, b), dense.cost(a, b), "{a} -> {b}");
            }
        }
    }

    #[test]
    fn matches_dijkstra_on_disconnected_graph() {
        let coords = (0..6).map(|i| (i as f64, 0.0)).collect();
        let e = |a: u32, b: u32, t: i64| Edge {
            from: NodeId(a),
            to: NodeId(b),
            travel: t,
        };
        let g = Arc::new(RoadGraph::from_undirected_edges(
            coords,
            vec![e(0, 1, 5), e(1, 2, 7), e(3, 4, 11), e(4, 5, 2)],
        ));
        let ch = exact_on_all_pairs(&g);
        assert!(!ch.reachable(NodeId(0), NodeId(3)));
        assert!(ch.reachable(NodeId(3), NodeId(5)));
    }

    #[test]
    fn handles_directed_one_way_streets() {
        // 0 → 1 → 2 cheap chain, slow direct 0 → 2, nothing back.
        let g = Arc::new(RoadGraph::from_edges(
            vec![(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)],
            vec![
                Edge {
                    from: NodeId(0),
                    to: NodeId(1),
                    travel: 3,
                },
                Edge {
                    from: NodeId(1),
                    to: NodeId(2),
                    travel: 4,
                },
                Edge {
                    from: NodeId(0),
                    to: NodeId(2),
                    travel: 20,
                },
            ],
        ));
        let ch = exact_on_all_pairs(&g);
        assert_eq!(ch.cost(NodeId(0), NodeId(2)), 7);
        assert!(!ch.reachable(NodeId(2), NodeId(0)));
    }

    #[test]
    fn parallel_and_duplicate_edges_keep_minimum() {
        let e = |a: u32, b: u32, t: i64| Edge {
            from: NodeId(a),
            to: NodeId(b),
            travel: t,
        };
        // Duplicate arcs with different weights plus a self loop.
        let g = Arc::new(RoadGraph::from_edges(
            vec![(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)],
            vec![
                e(0, 1, 9),
                e(0, 1, 4),
                e(1, 1, 1),
                e(1, 2, 6),
                e(1, 2, 8),
                e(2, 0, 5),
            ],
        ));
        let ch = exact_on_all_pairs(&g);
        assert_eq!(ch.cost(NodeId(0), NodeId(2)), 10);
    }

    #[test]
    fn adversarial_weights_saturate() {
        let coords = (0..3).map(|i| (i as f64, 0.0)).collect();
        let edges = (0..2)
            .map(|i| Edge {
                from: NodeId(i),
                to: NodeId(i + 1),
                travel: Dur::MAX / 3,
            })
            .collect();
        let g = Arc::new(RoadGraph::from_undirected_edges(coords, edges));
        let ch = ChOracle::build(g.clone());
        for a in g.nodes() {
            for b in g.nodes() {
                let d = ch.cost(a, b);
                assert!((0..=UNREACHABLE).contains(&d), "{a} -> {b} = {d}");
            }
        }
        assert_eq!(ch.cost(NodeId(0), NodeId(2)), UNREACHABLE);
    }

    /// The width changes nothing: the contraction — ranks, every shortcut
    /// in the order it was added, the remaining graph at the wall in
    /// insertion order — and the hierarchy are one thread's.
    fn assert_width_invariant(g: &Arc<RoadGraph>, widths: &[usize]) {
        let contract = |threads| Remaining::new(g).contract(&Exec::new(threads));
        let one = contract(1);
        let base = ChOracle::build_with_exec(g.clone(), &Exec::new(1));
        for &threads in widths {
            assert!(
                contract(threads) == one,
                "contraction differs at {threads} threads"
            );
            let other = ChOracle::build_with_exec(g.clone(), &Exec::new(threads));
            assert!(
                base.same_hierarchy(&other),
                "hierarchy differs at {threads} threads"
            );
        }
    }

    /// The second city is the benchmark's, where evaluations have enough
    /// in-neighbours for a crew of 7 to finish them out of order.
    #[test]
    fn preprocessing_is_deterministic_across_thread_counts() {
        assert_width_invariant(&city(9, 8, 11), &[2, 3, 8]);
        assert_width_invariant(&city(64, 64, 20_240_311), &[2, 7]);
    }

    #[test]
    #[ignore = "seconds in release, minutes in debug"]
    fn preprocessing_is_deterministic_across_thread_counts_at_128x128() {
        assert_width_invariant(&city(128, 128, 20_240_311), &[2, 7]);
    }

    /// Shapes with nothing to split — a path (one in-neighbour a side), a
    /// star (one hub, spokes of degree one), a lone node (none at all) —
    /// still finish on a crew of 8, exact and as one thread builds them.
    #[test]
    fn a_wide_crew_finishes_shapes_with_nothing_to_split() {
        let e = |a: u32, b: u32, t: i64| Edge {
            from: NodeId(a),
            to: NodeId(b),
            travel: t,
        };
        let coords = |n: u32| (0..n).map(|i| (i as f64, 0.0)).collect();
        let path = (0..11).map(|i| e(i, i + 1, 3 + i as i64 % 4)).collect();
        let star = (1..12).map(|i| e(0, i, 2 + i as i64 % 5)).collect();
        for g in [
            RoadGraph::from_undirected_edges(coords(12), path),
            RoadGraph::from_undirected_edges(coords(12), star),
            RoadGraph::from_edges(coords(1), vec![]),
        ] {
            let g = Arc::new(g);
            let wide = ChOracle::build_with_exec(g.clone(), &Exec::new(8));
            assert!(wide.same_hierarchy(&ChOracle::build_with_exec(g.clone(), &Exec::new(1))));
            let dij = DijkstraOracle::new(&g);
            for a in g.nodes() {
                for b in g.nodes() {
                    assert_eq!(wide.cost(a, b), dij.cost(a, b), "{a} -> {b}");
                }
            }
        }
    }

    /// Query work over 20 000 fixed pairs: the `cost_with_stats` counters
    /// summed, and the costs summed. Any change to the hierarchy — ranks,
    /// arcs, table or access sets — moves some of it.
    fn query_work(ch: &ChOracle, n: u64) -> ([usize; 5], Dur) {
        let mut stats = [0; 5];
        let mut cost = 0;
        for i in 0..20_000u64 {
            let a = NodeId((i * 2_654_435_761 % n) as u32);
            let b = NodeId(((i * 40_503 + 17) % n) as u32);
            let (c, s) = ch.cost_with_stats(a, b);
            cost += c;
            for (total, x) in stats.iter_mut().zip(s) {
                *total += x;
            }
        }
        (stats, cost)
    }

    /// The second city is the benchmark's (`metro_ch_cold`: Chengdu 64×64,
    /// seed 20240311). Contracting every node adds 34 750 shortcuts there,
    /// 22 578 of them before the first core node: a larger count means
    /// the loop ran past the wall, any other that the hierarchy below the
    /// core — the part queries walk — has changed. The query work pins the
    /// rest of it.
    #[test]
    fn contraction_stops_at_the_wall() {
        for (g, shortcuts) in [(city(9, 8, 11), 218), (city(64, 64, 20_240_311), 22_578)] {
            let ch = ChOracle::build(g.clone());
            assert_eq!(ch.shortcut_count(), shortcuts);
            let n = g.node_count() as u32;
            assert_eq!(ch.core_start, n - n / 4);
            // The core is ranked by node id, and no stored arc leaves it.
            let core: Vec<NodeId> = g.nodes().filter(|&v| ch.rank(v) >= ch.core_start).collect();
            assert!(core.windows(2).all(|w| ch.rank(w[0]) < ch.rank(w[1])));
            for r in ch.core_start..n {
                assert!(ch.up.arcs(r).0.is_empty() && ch.down.arcs(r).0.is_empty());
            }
            // Arcs *into* the core survive: nodes below still enter it.
            assert!((0..ch.core_start).any(|r| !ch.fwd_access.arcs(r).0.is_empty()));
            if n == 64 * 64 {
                let work = ([146_005, 163_127, 1_866, 598_138, 220_644], 44_980_323);
                assert_eq!(query_work(&ch, n.into()), work);
            }
        }
    }

    /// The same pins on a city four times the benchmark's, where far more
    /// witness searches tie and pop orders have more room to differ. A
    /// release build takes seconds: CI runs it with `--ignored`.
    #[test]
    #[ignore = "seconds in release, minutes in debug"]
    fn hierarchy_is_pinned_at_128x128() {
        let g = city(128, 128, 20_240_311);
        let ch = ChOracle::build(g.clone());
        assert_eq!(ch.shortcut_count(), 119_684);
        let work = ([546_381, 964_106, 42_527, 1_581_320, 359_876], 88_676_141);
        assert_eq!(query_work(&ch, g.node_count() as u64), work);
    }

    /// Random monotone Dijkstra-like traffic — each push at or above the
    /// last pop, ties on `d` and repeated labels included — up to the top
    /// of the packable range: the packed frontier, the tuple frontier and
    /// a sorted-list model pop the same sequence.
    #[test]
    fn packed_and_tuple_frontiers_pop_identical_sequences() {
        let (mut packed, mut wide) = (WitnessWorkspace::default(), WitnessWorkspace::default());
        packed.pack = true;
        let mut model: Vec<(Dur, u32)> = Vec::new();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut rand = |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        let top = u32::MAX as Dur;
        let mut floor = top - 3_000;
        for _ in 0..20_000 {
            for _ in 0..rand(3) {
                let d = (floor + rand(64) as Dur).min(top);
                let v = [rand(8) as u32, u32::MAX - rand(4) as u32][rand(2) as usize];
                packed.push(d, v);
                wide.push(d, v);
                let at = model.partition_point(|&l| l > (d, v));
                model.insert(at, (d, v));
            }
            let want = model.pop();
            assert_eq!((packed.pop(), wide.pop()), (want, want));
            floor = want.map_or(floor, |l| l.0);
        }
        assert!(packed.wide.is_empty() && wide.packed.is_empty());
        assert_eq!(floor, top, "the traffic reaches 2³² − 1");
    }

    /// The wide path: every weight of a 6×6 city times 2³¹, so no search
    /// packs. Scaling preserves every comparison the build makes, so the
    /// ranks match the unscaled city's, and every answer is exactly 2³¹
    /// times the unscaled one — and Dijkstra's.
    #[test]
    fn huge_weights_take_the_tuple_frontier_and_build_the_same_hierarchy() {
        const SCALE: Dur = 1 << 31;
        let g = city(6, 6, 2);
        let edges = g
            .nodes()
            .flat_map(|u| {
                let (targets, weights) = g.out_edges(u);
                targets.iter().zip(weights).map(move |(&v, &w)| Edge {
                    from: u,
                    to: NodeId(v),
                    travel: w * SCALE,
                })
            })
            .collect();
        let scaled = Arc::new(RoadGraph::from_edges(g.coords().to_vec(), edges));
        assert!(
            SCALE as usize * g.node_count() > u32::MAX as usize,
            "must not pack"
        );
        let (ch, wide) = (ChOracle::build(g.clone()), exact_on_all_pairs(&scaled));
        for a in g.nodes() {
            assert_eq!(wide.rank(a), ch.rank(a), "rank of {a}");
            for b in g.nodes() {
                assert!(ch.reachable(a, b), "{a} -> {b}");
                assert_eq!(wide.cost(a, b), ch.cost(a, b) * SCALE, "{a} -> {b}");
            }
        }
    }

    #[test]
    fn ranks_are_a_permutation() {
        let g = city(6, 6, 2);
        let ch = ChOracle::build(g.clone());
        let mut seen = vec![false; g.node_count()];
        for v in g.nodes() {
            let r = ch.rank(v) as usize;
            assert!(!seen[r], "duplicate rank {r}");
            seen[r] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert!(ch.resident_bytes() > 0);
    }

    #[test]
    fn exact_lower_bound_like_dense() {
        let g = city(5, 5, 4);
        let ch = ChOracle::build(g.clone());
        for a in g.nodes().take(6) {
            for b in g.nodes().take(6) {
                assert_eq!(ch.lower_bound(a, b), ch.cost(a, b));
            }
        }
    }

    #[test]
    fn single_node_graph() {
        let g = Arc::new(RoadGraph::from_edges(vec![(0.0, 0.0)], vec![]));
        let ch = ChOracle::build(g);
        assert_eq!(ch.cost(NodeId(0), NodeId(0)), 0);
        assert!(ch.reachable(NodeId(0), NodeId(0)));
        assert_eq!(ch.shortcut_count(), 0);
    }
}
