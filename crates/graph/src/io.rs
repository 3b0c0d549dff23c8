//! Graph serialization: plain edge-list text format and Graphviz DOT export.
//!
//! ## Edge-list format
//!
//! One edge per line: two whitespace-separated node ids. Lines starting with
//! `#` and blank lines are ignored. An optional header line `nodes N` pins
//! the node count (otherwise it is `max id + 1`), so graphs with trailing
//! isolated nodes round-trip. This is the format CAIDA-style adjacency
//! snapshots use, and it is what the reproduction binaries write under
//! `results/` so generated topologies can be inspected with standard tools.
//!
//! One parser reads the format into two shapes: [`read_edge_list`]
//! builds the mutable [`Graph`] the generators and chains rewire, and
//! [`read_edge_list_csr`] builds the read-only [`CsrGraph`] analysis
//! reads, by counting sort and without a `Graph` in between.

use crate::csr::CsrGraph;
use crate::error::GraphError;
use crate::graph::{Graph, NodeId};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// The most nodes an edge list may hold: ids run `0..n` and must fit a
/// [`NodeId`], so `n ≤ NodeId::MAX`.
const MAX_NODES: usize = NodeId::MAX as usize;

/// Parses edge-list text into its node count and its edge lines, in
/// file order, self-loops and repeats included — the one parser behind
/// [`read_edge_list`] and [`read_edge_list_csr`], so both accept the
/// same files and refuse the rest with the same error on the same line.
///
/// Lines are read as bytes into one reused buffer and checked as UTF-8
/// there, so a line that is not UTF-8 fails as [`BufRead::lines`]
/// fails on it. The errors are documented on [`read_edge_list`].
fn parse_edge_list<R: Read>(reader: R) -> Result<(usize, Vec<(NodeId, NodeId)>), GraphError> {
    let mut input = BufReader::with_capacity(1 << 16, reader);
    let mut bytes = Vec::new();
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    let mut declared_nodes: Option<usize> = None;
    // the largest id so far and the line it first appears on
    let mut max_id: Option<(NodeId, usize)> = None;
    let mut lineno = 0;
    loop {
        bytes.clear();
        if input.read_until(b'\n', &mut bytes)? == 0 {
            break;
        }
        lineno += 1;
        let line = std::str::from_utf8(&bytes).map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            )
        })?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let Some(first) = parts.next() else {
            continue;
        };
        if first == "nodes" {
            let n = parts
                .next()
                .ok_or_else(|| GraphError::Parse {
                    line: lineno,
                    msg: "header `nodes` missing count".into(),
                })?
                .parse::<usize>()
                .map_err(|e| GraphError::Parse {
                    line: lineno,
                    msg: format!("bad node count: {e}"),
                })?;
            if n > MAX_NODES {
                return Err(GraphError::Parse {
                    line: lineno,
                    msg: format!("node count {n} is past the id space (at most {MAX_NODES})"),
                });
            }
            declared_nodes = Some(n);
            continue;
        }
        let u: NodeId = first.parse().map_err(|e| GraphError::Parse {
            line: lineno,
            msg: format!("bad node id {first:?}: {e}"),
        })?;
        let vtok = parts.next().ok_or_else(|| GraphError::Parse {
            line: lineno,
            msg: "expected two node ids".into(),
        })?;
        let v: NodeId = vtok.parse().map_err(|e| GraphError::Parse {
            line: lineno,
            msg: format!("bad node id {vtok:?}: {e}"),
        })?;
        if parts.next().is_some() {
            return Err(GraphError::Parse {
                line: lineno,
                msg: "trailing tokens after edge".into(),
            });
        }
        let top = u.max(v);
        if top as usize >= MAX_NODES {
            return Err(GraphError::Parse {
                line: lineno,
                msg: format!(
                    "node id {top} needs a node count past the id space (at most {MAX_NODES})"
                ),
            });
        }
        if max_id.is_none_or(|(m, _)| top > m) {
            max_id = Some((top, lineno));
        }
        edges.push((u, v));
    }
    let n = match (declared_nodes, max_id) {
        (Some(n), Some((top, line))) if n <= top as usize => {
            return Err(GraphError::Parse {
                line,
                msg: format!("declared nodes {n} smaller than max id {top}"),
            })
        }
        (Some(n), _) => n,
        (None, _) => max_id.map_or(0, |(top, _)| top as usize + 1),
    };
    Ok((n, edges))
}

/// Parses a graph from edge-list text.
///
/// The graph's [`Graph::edges`] list keeps each edge's first
/// occurrence in file order (the rewiring chains sample from it).
/// Measured topology snapshots routinely contain both (u,v) and (v,u),
/// so repeats are one undirected edge rather than an error; self-loops
/// are dropped.
///
/// Malformed lines are a [`GraphError::Parse`] naming the line, and a
/// line that is not UTF-8 a [`GraphError::Io`]. A node count past the
/// id space — a `nodes N` header above `NodeId::MAX`, or an id of
/// `NodeId::MAX` itself — is refused as a `Parse` error naming its
/// line, before anything is allocated.
pub fn read_edge_list<R: Read>(reader: R) -> Result<Graph, GraphError> {
    let (n, edges) = parse_edge_list(reader)?;
    Graph::from_edges_dedup(n, edges)
}

/// Parses edge-list text straight into a [`CsrGraph`] — the
/// representation analysis reads — without building a [`Graph`].
///
/// Accepts and refuses exactly the files [`read_edge_list`] does, and
/// equals `CsrGraph::from_graph(&read_edge_list(..)?)`: the counting
/// sort of [`CsrGraph::from_edges`] sorts and deduplicates each row and
/// drops self-loops. An edge list whose distinct edges overflow the
/// CSR's `u32` offsets is a [`GraphError`], never a panic. The parsed
/// edges are freed before this returns.
pub fn read_edge_list_csr<R: Read>(reader: R) -> Result<CsrGraph, GraphError> {
    let (n, edges) = parse_edge_list(reader)?;
    CsrGraph::from_edges(n, &edges)
}

/// Writes a graph in edge-list format (with `nodes` header).
pub fn write_edge_list<W: Write>(g: &Graph, mut writer: W) -> Result<(), GraphError> {
    writeln!(
        writer,
        "# dk-graph edge list: {} nodes, {} edges",
        g.node_count(),
        g.edge_count()
    )?;
    writeln!(writer, "nodes {}", g.node_count())?;
    for &(u, v) in g.edges() {
        writeln!(writer, "{u} {v}")?;
    }
    Ok(())
}

/// Convenience wrapper: read a graph from a file path.
pub fn load_edge_list<P: AsRef<Path>>(path: P) -> Result<Graph, GraphError> {
    let file = std::fs::File::open(path)?;
    read_edge_list(file)
}

/// Convenience wrapper: read a [`CsrGraph`] from a file path through
/// [`read_edge_list_csr`].
pub fn load_edge_list_csr<P: AsRef<Path>>(path: P) -> Result<CsrGraph, GraphError> {
    read_edge_list_csr(std::fs::File::open(path)?)
}

/// Convenience wrapper: write a graph to a file path, through a buffer
/// (one `write` syscall per 8 KiB instead of several per edge line).
/// The buffer is flushed explicitly so a failed final write surfaces as
/// an error instead of being dropped with the writer.
pub fn save_edge_list<P: AsRef<Path>>(g: &Graph, path: P) -> Result<(), GraphError> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    write_edge_list(g, &mut out)?;
    out.flush()?;
    Ok(())
}

/// Renders the graph as Graphviz DOT (undirected).
///
/// Node labels are the ids; an optional `highlight_degree_gte` threshold
/// colors high-degree nodes, which makes the core/periphery migration of
/// the paper's Figure 3 visible in external viewers too.
pub fn to_dot(g: &Graph, highlight_degree_gte: Option<usize>) -> String {
    let mut out = String::new();
    out.push_str("graph G {\n  node [shape=circle, fontsize=8];\n");
    if let Some(th) = highlight_degree_gte {
        for u in g.nodes() {
            if g.degree(u) >= th {
                out.push_str(&format!(
                    "  {u} [style=filled, fillcolor=\"#d62728\", fontcolor=white];\n"
                ));
            }
        }
    }
    for &(u, v) in g.edges() {
        out.push_str(&format!("  {u} -- {v};\n"));
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    #[test]
    fn roundtrip_preserves_graph() {
        let g = builders::karate_club();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn roundtrip_preserves_trailing_isolated_nodes() {
        let mut g = builders::path(3);
        g.add_node();
        g.add_node();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(g2.node_count(), 5);
        assert_eq!(g2.edge_count(), 2);
    }

    #[test]
    fn parses_comments_blanks_and_dup_edges() {
        let text = "# comment\n\n0 1\n1 0\n1 2\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = read_edge_list("0 1\nbogus\n".as_bytes()).unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other}"),
        }
        assert!(read_edge_list("0\n".as_bytes()).is_err());
        assert!(read_edge_list("0 1 2\n".as_bytes()).is_err());
        assert!(read_edge_list("nodes\n".as_bytes()).is_err());
        assert!(read_edge_list("nodes x\n".as_bytes()).is_err());
        // declared node count too small: the error names the line of
        // the largest id
        for (text, want, max) in [
            ("nodes 1\n0 1\n", 2, 1),
            ("nodes 3\n7 1\n", 2, 7),
            ("nodes 2\n0 1\n0 5\n5 1\n", 3, 5),
            ("0 9\n1 2\nnodes 4\n", 1, 9),
        ] {
            let got = read_edge_list(text.as_bytes());
            assert!(
                matches!(&got, Err(GraphError::Parse { line, msg })
                    if *line == want && msg.ends_with(&format!("smaller than max id {max}"))),
                "{text:?}: {got:?}"
            );
        }
        // node counts past the id space, refused before any allocation
        for (text, want) in [
            ("nodes 18446744073709551615\n0 1\n", 1),
            ("0 1\nnodes 5000000000\n", 2),
            ("nodes 4294967296\n", 1),
            ("# ids\n0 1\n4294967295 2\n", 3),
            ("0 4294967295\n", 1),
        ] {
            let got = read_edge_list(text.as_bytes());
            assert!(
                matches!(&got, Err(GraphError::Parse { line, msg })
                    if *line == want && msg.contains("id space")),
                "{text:?}: {got:?}"
            );
        }
    }

    #[test]
    fn csr_reader_equals_the_frozen_graph_reader() -> Result<(), GraphError> {
        for text in [
            "# c\n0 1\n1 0\n1 2\n2 2\n",
            "nodes 6\n4 1\n0 3\n",
            "",
            "nodes 2\n",
            "0\t1\r\n 1  3 \n+2 0",
        ] {
            let g = read_edge_list(text.as_bytes())?;
            assert_eq!(
                read_edge_list_csr(text.as_bytes())?,
                CsrGraph::from_graph(&g)
            );
        }
        for text in [
            &b"0 1\nbogus\n"[..],
            b"nodes 1\n0 1\n",
            b"0 4294967295\n",
            b"0 1\n\xff 2\n",
        ] {
            let (csr, graph) = (read_edge_list_csr(text), read_edge_list(text));
            assert!(csr.is_err(), "{text:?}");
            assert_eq!(csr.err(), graph.err(), "{text:?}");
        }
        Ok(())
    }

    #[test]
    fn empty_input_is_empty_graph() {
        let g = read_edge_list("".as_bytes()).unwrap();
        assert!(g.is_empty());
        let g = read_edge_list("# only comments\n".as_bytes()).unwrap();
        assert!(g.is_empty());
    }

    #[test]
    fn dot_output_contains_edges_and_highlights() {
        let g = builders::star(3);
        let dot = to_dot(&g, Some(3));
        assert!(dot.starts_with("graph G {"));
        assert!(dot.contains("0 -- 1;"));
        assert!(dot.contains("0 -- 3;"));
        assert!(dot.contains("fillcolor")); // hub highlighted
        let plain = to_dot(&g, None);
        assert!(!plain.contains("fillcolor"));
    }

    #[test]
    fn file_helpers_roundtrip() -> Result<(), GraphError> {
        let dir = std::env::temp_dir().join("dk_graph_io_test");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("g_{}.edges", std::process::id()));
        let g = builders::cycle(7);
        save_edge_list(&g, &path)?;
        assert_eq!(load_edge_list(&path)?, g);
        assert_eq!(load_edge_list_csr(&path)?, CsrGraph::from_graph(&g));
        // the buffered file holds exactly the writer's bytes
        let mut want = Vec::new();
        write_edge_list(&g, &mut want)?;
        assert_eq!(std::fs::read(&path)?, want);
        std::fs::remove_file(&path).ok();
        Ok(())
    }

    #[test]
    fn save_reports_write_errors_held_in_the_buffer() {
        // a small graph fits the buffer, so the device error only shows
        // at the final flush — which must surface, not vanish on drop
        let full = Path::new("/dev/full");
        if full.exists() {
            assert!(save_edge_list(&builders::cycle(7), full).is_err());
        }
        assert!(save_edge_list(&builders::cycle(7), "/nonexistent-dir/g.edges").is_err());
    }
}
