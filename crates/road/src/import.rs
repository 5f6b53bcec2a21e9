//! Plain-text road-network import/export.
//!
//! The paper evaluates on real OSM street networks (New York City, Chengdu,
//! Xi'an); those extracts are not redistributable, so this module defines
//! the smallest offline-friendly interchange format that can carry them —
//! an edge list with planar coordinates — and a loader strict enough to be
//! trusted with hand-edited files: every malformed input yields a typed
//! [`ImportError`], never a panic (`RoadGraph::from_edges` panics on bad
//! input, so the parser validates everything *before* construction).
//!
//! # Format
//!
//! Line-oriented UTF-8. `#` starts a comment (whole-line or trailing);
//! blank lines are ignored. The first significant line declares the node
//! count; every node then gets exactly one `v` line (in any order), and
//! each `e` line adds one **directed** edge — two-way streets are two
//! lines. Node ids are `0..N`; travel times are positive integer seconds.
//!
//! ```text
//! # demo city
//! nodes 3
//! v 0 0.0 0.0
//! v 1 1.5 0.0
//! v 2 1.5 2.25
//! e 0 1 30
//! e 1 0 30
//! e 1 2 45
//! ```
//!
//! Coordinates round-trip exactly: [`export_graph`] writes floats with
//! Rust's shortest-round-trip formatting, so `parse(export(g)) == g` for
//! every graph — the property the synthetic-grid export exists to test
//! (and CI's export→import→run check exercises end to end).

use crate::graph::{Edge, RoadGraph};
use std::fmt;
use std::path::Path;
use watter_core::{Dur, NodeId};

/// Why an import was rejected. Every variant names the offending line so
/// hand-edited files are debuggable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ImportError {
    /// The file could not be read.
    Io(String),
    /// No significant lines at all.
    Empty,
    /// A line that doesn't parse; `reason` says why.
    Malformed {
        /// 1-based line number in the input.
        line: usize,
        /// Human-readable cause.
        reason: String,
    },
    /// A `v` line repeats a node id.
    DuplicateNode {
        /// 1-based line number of the repeat.
        line: usize,
        /// The repeated node id.
        node: u32,
    },
    /// An `e` line repeats an exact `(from, to)` arc.
    DuplicateEdge {
        /// 1-based line number of the repeat.
        line: usize,
        /// Source node id.
        from: u32,
        /// Target node id.
        to: u32,
    },
    /// A node id is `≥ nodes`.
    NodeOutOfRange {
        /// 1-based line number.
        line: usize,
        /// The offending id.
        node: u64,
        /// The declared node count.
        nodes: usize,
    },
    /// An edge travel time is zero or negative.
    BadWeight {
        /// 1-based line number.
        line: usize,
        /// The offending travel time.
        weight: i64,
    },
    /// Fewer `v` lines than the declared node count.
    CountMismatch {
        /// Declared node count.
        declared: usize,
        /// `v` lines actually seen.
        seen: usize,
    },
}

impl fmt::Display for ImportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImportError::Io(e) => write!(f, "cannot read graph file: {e}"),
            ImportError::Empty => write!(f, "graph file has no significant lines"),
            ImportError::Malformed { line, reason } => {
                write!(f, "line {line}: {reason}")
            }
            ImportError::DuplicateNode { line, node } => {
                write!(f, "line {line}: node {node} declared twice")
            }
            ImportError::DuplicateEdge { line, from, to } => {
                write!(f, "line {line}: duplicate edge {from} -> {to}")
            }
            ImportError::NodeOutOfRange { line, node, nodes } => {
                write!(
                    f,
                    "line {line}: node id {node} out of range (nodes = {nodes})"
                )
            }
            ImportError::BadWeight { line, weight } => {
                write!(
                    f,
                    "line {line}: travel time {weight} must be a positive integer"
                )
            }
            ImportError::CountMismatch { declared, seen } => {
                write!(f, "declared {declared} nodes but found {seen} `v` lines")
            }
        }
    }
}

impl std::error::Error for ImportError {}

/// Strip a trailing `#`-comment and surrounding whitespace.
fn significant(line: &str) -> &str {
    match line.find('#') {
        Some(pos) => line[..pos].trim(),
        None => line.trim(),
    }
}

fn malformed(line: usize, reason: impl Into<String>) -> ImportError {
    ImportError::Malformed {
        line,
        reason: reason.into(),
    }
}

/// Parse a graph from the plain-text format. See the module docs for the
/// grammar; every rejection is a typed [`ImportError`].
pub fn parse_graph(text: &str) -> Result<RoadGraph, ImportError> {
    let mut declared: Option<usize> = None;
    let mut coords: Vec<(f64, f64)> = Vec::new();
    let mut have_coord: Vec<bool> = Vec::new();
    let mut coords_seen = 0usize;
    let mut edges: Vec<Edge> = Vec::new();
    let mut edge_lines: Vec<usize> = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = significant(raw);
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_ascii_whitespace();
        let tag = parts.next().expect("non-empty significant line");
        let n = match declared {
            Some(n) => n,
            None => {
                // The first significant line must be the node count.
                if tag != "nodes" {
                    return Err(malformed(
                        lineno,
                        format!("expected `nodes N` header, found `{tag}`"),
                    ));
                }
                let n: usize = parts
                    .next()
                    .ok_or_else(|| malformed(lineno, "`nodes` missing count"))?
                    .parse()
                    .map_err(|_| malformed(lineno, "`nodes` count is not an integer"))?;
                if parts.next().is_some() {
                    return Err(malformed(lineno, "trailing tokens after `nodes N`"));
                }
                declared = Some(n);
                coords = vec![(0.0, 0.0); n];
                have_coord = vec![false; n];
                continue;
            }
        };
        match tag {
            "v" => {
                let mut field = |name: &str| {
                    parts
                        .next()
                        .ok_or_else(|| malformed(lineno, format!("`v` missing {name}")))
                };
                let id: u64 = field("node id")?
                    .parse()
                    .map_err(|_| malformed(lineno, "`v` node id is not an integer"))?;
                let x: f64 = field("x coordinate")?
                    .parse()
                    .map_err(|_| malformed(lineno, "`v` x coordinate is not a number"))?;
                let y: f64 = field("y coordinate")?
                    .parse()
                    .map_err(|_| malformed(lineno, "`v` y coordinate is not a number"))?;
                if parts.next().is_some() {
                    return Err(malformed(lineno, "trailing tokens after `v id x y`"));
                }
                if id >= n as u64 {
                    return Err(ImportError::NodeOutOfRange {
                        line: lineno,
                        node: id,
                        nodes: n,
                    });
                }
                let id = id as usize;
                if have_coord[id] {
                    return Err(ImportError::DuplicateNode {
                        line: lineno,
                        node: id as u32,
                    });
                }
                have_coord[id] = true;
                coords[id] = (x, y);
                coords_seen += 1;
            }
            "e" => {
                let mut field = |name: &str| {
                    parts
                        .next()
                        .ok_or_else(|| malformed(lineno, format!("`e` missing {name}")))
                };
                let from: u64 = field("source node")?
                    .parse()
                    .map_err(|_| malformed(lineno, "`e` source is not an integer"))?;
                let to: u64 = field("target node")?
                    .parse()
                    .map_err(|_| malformed(lineno, "`e` target is not an integer"))?;
                let travel: i64 = field("travel time")?
                    .parse()
                    .map_err(|_| malformed(lineno, "`e` travel time is not an integer"))?;
                if parts.next().is_some() {
                    return Err(malformed(
                        lineno,
                        "trailing tokens after `e from to travel`",
                    ));
                }
                for id in [from, to] {
                    if id >= n as u64 {
                        return Err(ImportError::NodeOutOfRange {
                            line: lineno,
                            node: id,
                            nodes: n,
                        });
                    }
                }
                if travel <= 0 {
                    return Err(ImportError::BadWeight {
                        line: lineno,
                        weight: travel,
                    });
                }
                edges.push(Edge {
                    from: NodeId(from as u32),
                    to: NodeId(to as u32),
                    travel: travel as Dur,
                });
                edge_lines.push(lineno);
            }
            other => {
                return Err(malformed(
                    lineno,
                    format!("unknown line tag `{other}` (expected `v` or `e`)"),
                ));
            }
        }
    }

    let Some(n) = declared else {
        return Err(ImportError::Empty);
    };
    if coords_seen != n {
        return Err(ImportError::CountMismatch {
            declared: n,
            seen: coords_seen,
        });
    }
    // Exact duplicate arcs are almost always an editing mistake; reject
    // loudly instead of silently letting one weight shadow the other.
    let mut order: Vec<usize> = (0..edges.len()).collect();
    order.sort_unstable_by_key(|&i| (edges[i].from.0, edges[i].to.0, edge_lines[i]));
    for w in order.windows(2) {
        let (a, b) = (edges[w[0]], edges[w[1]]);
        if a.from == b.from && a.to == b.to {
            return Err(ImportError::DuplicateEdge {
                line: edge_lines[w[1]],
                from: a.from.0,
                to: a.to.0,
            });
        }
    }

    // Everything `from_edges` would assert on has been checked above.
    Ok(RoadGraph::from_edges(coords, edges))
}

/// Read and parse a graph file from disk.
pub fn import_graph(path: impl AsRef<Path>) -> Result<RoadGraph, ImportError> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)
        .map_err(|e| ImportError::Io(format!("{}: {e}", path.display())))?;
    parse_graph(&text)
}

/// Serialize a graph to the plain-text format.
///
/// Floats use Rust's shortest-round-trip formatting and edges are emitted
/// in CSR order, so the output is canonical: `parse_graph(export_graph(g))`
/// reconstructs a graph equal to `g`.
pub fn export_graph(graph: &RoadGraph) -> String {
    let mut out = String::new();
    out.push_str("# watter road-network interchange format\n");
    out.push_str("# nodes N / v id x y / e from to travel_seconds\n");
    out.push_str(&format!("nodes {}\n", graph.node_count()));
    for (id, &(x, y)) in graph.coords().iter().enumerate() {
        out.push_str(&format!("v {id} {x} {y}\n"));
    }
    for u in graph.nodes() {
        let (targets, travels) = graph.out_edges(u);
        for (&v, &w) in targets.iter().zip(travels) {
            out.push_str(&format!("e {} {v} {w}\n", u.0));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::citygen::CityConfig;

    const DEMO: &str = "\
# demo city
nodes 3
v 0 0.0 0.0
v 1 1.5 0.0   # trailing comment
v 2 1.5 2.25
e 0 1 30
e 1 0 30
e 1 2 45
";

    #[test]
    fn parses_the_demo_file() {
        let g = parse_graph(DEMO).expect("demo parses");
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.coord(NodeId(2)), (1.5, 2.25));
        assert_eq!(g.out_edges(NodeId(1)), (&[0, 2][..], &[30, 45][..]));
    }

    #[test]
    fn round_trips_a_synthetic_city_exactly() {
        let g = CityConfig {
            width: 7,
            height: 6,
            ..Default::default()
        }
        .generate(42);
        let text = export_graph(&g);
        let back = parse_graph(&text).expect("exported city parses");
        assert_eq!(back, g);
        // Canonical output: a second round trip is byte-identical.
        assert_eq!(export_graph(&back), text);
    }

    #[test]
    fn empty_inputs_are_typed_errors() {
        assert_eq!(parse_graph(""), Err(ImportError::Empty));
        assert_eq!(
            parse_graph("# only comments\n\n  # and blanks\n"),
            Err(ImportError::Empty)
        );
    }

    #[test]
    fn zero_node_graph_is_fine() {
        let g = parse_graph("nodes 0\n").expect("empty graph parses");
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn malformed_lines_name_the_line() {
        let missing_header = parse_graph("v 0 0.0 0.0\n");
        assert!(matches!(
            missing_header,
            Err(ImportError::Malformed { line: 1, .. })
        ));
        let bad_count = parse_graph("nodes many\n");
        assert!(matches!(
            bad_count,
            Err(ImportError::Malformed { line: 1, .. })
        ));
        let bad_coord = parse_graph("nodes 1\nv 0 east north\n");
        assert!(matches!(
            bad_coord,
            Err(ImportError::Malformed { line: 2, .. })
        ));
        let short_edge = parse_graph("nodes 2\nv 0 0 0\nv 1 1 0\ne 0 1\n");
        assert!(matches!(
            short_edge,
            Err(ImportError::Malformed { line: 4, .. })
        ));
        let trailing = parse_graph("nodes 1\nv 0 0 0 extra\n");
        assert!(matches!(
            trailing,
            Err(ImportError::Malformed { line: 2, .. })
        ));
        let unknown_tag = parse_graph("nodes 1\nv 0 0 0\nw 0 1 5\n");
        assert!(matches!(
            unknown_tag,
            Err(ImportError::Malformed { line: 3, .. })
        ));
    }

    #[test]
    fn duplicate_nodes_and_edges_are_rejected() {
        let dup_node = parse_graph("nodes 2\nv 0 0 0\nv 0 1 1\n");
        assert_eq!(
            dup_node,
            Err(ImportError::DuplicateNode { line: 3, node: 0 })
        );
        let dup_edge = parse_graph("nodes 2\nv 0 0 0\nv 1 1 0\ne 0 1 5\ne 0 1 9\n");
        assert_eq!(
            dup_edge,
            Err(ImportError::DuplicateEdge {
                line: 5,
                from: 0,
                to: 1
            })
        );
        // Opposite directions are distinct arcs, not duplicates.
        assert!(parse_graph("nodes 2\nv 0 0 0\nv 1 1 0\ne 0 1 5\ne 1 0 5\n").is_ok());
    }

    #[test]
    fn out_of_range_ids_are_rejected() {
        let bad_v = parse_graph("nodes 1\nv 5 0 0\n");
        assert_eq!(
            bad_v,
            Err(ImportError::NodeOutOfRange {
                line: 2,
                node: 5,
                nodes: 1
            })
        );
        let bad_e = parse_graph("nodes 2\nv 0 0 0\nv 1 1 0\ne 0 7 5\n");
        assert_eq!(
            bad_e,
            Err(ImportError::NodeOutOfRange {
                line: 4,
                node: 7,
                nodes: 2
            })
        );
        // Ids larger than u32 must not wrap into range.
        let huge = parse_graph("nodes 2\nv 0 0 0\nv 1 1 0\ne 0 4294967297 5\n");
        assert!(matches!(huge, Err(ImportError::NodeOutOfRange { .. })));
    }

    #[test]
    fn non_positive_weights_are_rejected() {
        let zero = parse_graph("nodes 2\nv 0 0 0\nv 1 1 0\ne 0 1 0\n");
        assert_eq!(zero, Err(ImportError::BadWeight { line: 4, weight: 0 }));
        let neg = parse_graph("nodes 2\nv 0 0 0\nv 1 1 0\ne 0 1 -3\n");
        assert_eq!(
            neg,
            Err(ImportError::BadWeight {
                line: 4,
                weight: -3
            })
        );
    }

    #[test]
    fn missing_vertices_are_a_count_mismatch() {
        let missing = parse_graph("nodes 3\nv 0 0 0\nv 2 1 1\n");
        assert_eq!(
            missing,
            Err(ImportError::CountMismatch {
                declared: 3,
                seen: 2
            })
        );
    }

    #[test]
    fn io_errors_are_typed() {
        let err = import_graph("/nonexistent/definitely/missing.graph");
        assert!(matches!(err, Err(ImportError::Io(_))));
    }

    #[test]
    fn errors_display_cleanly() {
        let e = parse_graph("nodes 2\nv 0 0 0\nv 1 1 0\ne 0 1 0\n").unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("line 4"), "{msg}");
        assert!(msg.contains("positive"), "{msg}");
    }
}
