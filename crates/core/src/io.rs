//! Orbis-style text formats for dK-distributions.
//!
//! The paper's released tooling (Orbis) exchanged dK-distributions as
//! plain-text files so that extraction ("dkDist") and generation
//! ("dkTopoGen") could be separate programs. We keep that interface:
//!
//! * **1K**: lines `k n(k)`;
//! * **2K**: lines `k1 k2 m(k1,k2)` with `k1 ≤ k2`;
//! * **3K**: lines `W k1 k2 k3 count` (wedge, center `k2`) and
//!   `T k1 k2 k3 count` (triangle, sorted).
//!
//! Comments (`#`) and blank lines are ignored. All writers emit sorted,
//! deterministic output.

use crate::dist::{Dist0K, Dist1K, Dist2K, Dist3K};
use dk_graph::GraphError;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};

fn parse_err(line: usize, msg: impl Into<String>) -> GraphError {
    GraphError::Parse {
        line,
        msg: msg.into(),
    }
}

/// Duplicate lines merge by adding their counts; a sum past the count
/// type's range is refused instead of wrapping.
fn overflow_err(line: usize) -> GraphError {
    parse_err(line, "count overflows when merged with an earlier line")
}

/// Writes a 0K-distribution as `nodes N` / `edges M` lines.
pub fn write_0k<W: Write>(d: &Dist0K, mut w: W) -> Result<(), GraphError> {
    writeln!(w, "# dK-series 0K distribution: nodes/edges totals")?;
    writeln!(w, "nodes {}", d.nodes)?;
    writeln!(w, "edges {}", d.edges)?;
    Ok(())
}

/// Reads a 0K-distribution.
pub fn read_0k<R: Read>(r: R) -> Result<Dist0K, GraphError> {
    let mut d = Dist0K::default();
    let (mut saw_nodes, mut saw_edges) = (false, false);
    for (no, line) in BufReader::new(r).lines().enumerate() {
        let no = no + 1;
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        if toks.len() != 2 {
            return Err(parse_err(no, "expected `nodes N` or `edges M`"));
        }
        let value: usize = toks[1]
            .parse()
            .map_err(|e| parse_err(no, format!("bad count: {e}")))?;
        match toks[0] {
            "nodes" => {
                d.nodes = value;
                saw_nodes = true;
            }
            "edges" => {
                d.edges = value;
                saw_edges = true;
            }
            other => return Err(parse_err(no, format!("unknown field {other:?}"))),
        }
    }
    if !saw_nodes || !saw_edges {
        return Err(parse_err(0, "0K file must define both nodes and edges"));
    }
    Ok(d)
}

/// Writes a 1K-distribution as `k n(k)` lines.
pub fn write_1k<W: Write>(d: &Dist1K, mut w: W) -> Result<(), GraphError> {
    writeln!(w, "# dK-series 1K distribution: k n(k)")?;
    for (k, &c) in d.counts.iter().enumerate() {
        if c > 0 {
            writeln!(w, "{k} {c}")?;
        }
    }
    Ok(())
}

/// Reads a 1K-distribution.
///
/// Every line is parsed before anything is sized: duplicate degrees
/// merge in an ordered map, and the node count `n` is the sum of the
/// counts. A degree of `n` or more with a positive count is refused,
/// naming the first line that gives one, since no node of a simple
/// graph on `n` nodes has that many neighbours; the dense count vector
/// is built only then, so its length never exceeds `n`. Zero-count
/// lines parse but add nothing.
pub fn read_1k<R: Read>(r: R) -> Result<Dist1K, GraphError> {
    // degree -> (merged count, first line that gave it a positive count)
    let mut merged: BTreeMap<u32, (usize, usize)> = BTreeMap::new();
    let mut nodes: usize = 0;
    for (no, line) in BufReader::new(r).lines().enumerate() {
        let no = no + 1;
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let k: u32 = it
            .next()
            .ok_or_else(|| parse_err(no, "missing degree"))?
            .parse()
            .map_err(|e| parse_err(no, format!("bad degree: {e}")))?;
        let c: usize = it
            .next()
            .ok_or_else(|| parse_err(no, "missing count"))?
            .parse()
            .map_err(|e| parse_err(no, format!("bad count: {e}")))?;
        if it.next().is_some() {
            return Err(parse_err(no, "trailing tokens"));
        }
        if c == 0 {
            continue;
        }
        let (count, _) = merged.entry(k).or_insert((0, no));
        *count = count.checked_add(c).ok_or_else(|| overflow_err(no))?;
        nodes = nodes
            .checked_add(c)
            .ok_or_else(|| parse_err(no, "node total overflows when this line is added"))?;
    }
    // refuse the first line, in file order, whose degree no node of an
    // n-node graph can have; a node total past u32 allows every degree
    let impossible = u32::try_from(nodes)
        .ok()
        .and_then(|n| merged.range(n..).map(|(&k, &(_, no))| (no, k)).min());
    if let Some((no, k)) = impossible {
        return Err(parse_err(
            no,
            format!("degree {k} is impossible: the counts total {nodes} nodes"),
        ));
    }
    let len = merged.last_key_value().map_or(0, |(&k, _)| k as usize + 1);
    let mut counts = vec![0; len];
    for (k, (c, _)) in merged {
        counts[k as usize] = c;
    }
    Ok(Dist1K { counts })
}

/// Writes a 2K-distribution as `k1 k2 m` lines.
pub fn write_2k<W: Write>(d: &Dist2K, mut w: W) -> Result<(), GraphError> {
    writeln!(w, "# dK-series 2K distribution: k1 k2 m(k1,k2), k1 <= k2")?;
    for ((k1, k2), c) in d.sorted_entries() {
        writeln!(w, "{k1} {k2} {c}")?;
    }
    Ok(())
}

/// Reads a 2K-distribution (keys are canonicalized on read).
pub fn read_2k<R: Read>(r: R) -> Result<Dist2K, GraphError> {
    let mut d = Dist2K::default();
    for (no, line) in BufReader::new(r).lines().enumerate() {
        let no = no + 1;
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        if toks.len() != 3 {
            return Err(parse_err(no, "expected `k1 k2 count`"));
        }
        let k1: u32 = toks[0]
            .parse()
            .map_err(|e| parse_err(no, format!("bad k1: {e}")))?;
        let k2: u32 = toks[1]
            .parse()
            .map_err(|e| parse_err(no, format!("bad k2: {e}")))?;
        let c: u64 = toks[2]
            .parse()
            .map_err(|e| parse_err(no, format!("bad count: {e}")))?;
        let total = d.counts.entry(crate::dist::canon_pair(k1, k2)).or_insert(0);
        *total = total.checked_add(c).ok_or_else(|| overflow_err(no))?;
    }
    Ok(d)
}

/// Writes a 3K-distribution as `W/T k1 k2 k3 count` lines.
pub fn write_3k<W: Write>(d: &Dist3K, mut w: W) -> Result<(), GraphError> {
    writeln!(
        w,
        "# dK-series 3K distribution: `W k1 k2 k3 n` (wedge, center k2) / `T k1 k2 k3 n` (triangle)"
    )?;
    for (is_tri, (a, b, c), n) in d.sorted_entries() {
        let tag = if is_tri { 'T' } else { 'W' };
        writeln!(w, "{tag} {a} {b} {c} {n}")?;
    }
    Ok(())
}

/// Reads a 3K-distribution (keys canonicalized on read).
///
/// Lines are read as bytes into one reused buffer and checked as UTF-8
/// there, and their tokens are taken without collecting them, so no line
/// allocates; a line that is not UTF-8 fails with the [`GraphError::Io`]
/// error [`BufRead::lines`] gives. Lines are taken in file order, so the
/// maps are filled, and iterate, in the order a line-by-line reader fills
/// them. A malformed line is a [`GraphError::Parse`] naming it: its token
/// count, then its three degrees, its count and its tag are checked in
/// that order, and a count that overflows when merged with an earlier
/// line's is refused.
pub fn read_3k<R: Read>(r: R) -> Result<Dist3K, GraphError> {
    let mut d = Dist3K::default();
    let mut input = BufReader::with_capacity(1 << 16, r);
    let mut bytes = Vec::new();
    let mut no = 0;
    loop {
        bytes.clear();
        if input.read_until(b'\n', &mut bytes)? == 0 {
            break;
        }
        no += 1;
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
        let mut toks = line.split_whitespace();
        let [Some(tag), Some(t1), Some(t2), Some(t3), Some(tn), None] =
            [(); 6].map(|()| toks.next())
        else {
            return Err(parse_err(no, "expected `W|T k1 k2 k3 count`"));
        };
        let parse_degree = |s: &str| -> Result<u32, GraphError> {
            s.parse()
                .map_err(|e| parse_err(no, format!("bad degree: {e}")))
        };
        let (a, b, c) = (parse_degree(t1)?, parse_degree(t2)?, parse_degree(t3)?);
        let n: u64 = tn
            .parse()
            .map_err(|e| parse_err(no, format!("bad count: {e}")))?;
        let total = match tag {
            "W" => d.wedges.entry(crate::dist::canon_wedge(a, b, c)),
            "T" => d.triangles.entry(crate::dist::canon_triangle(a, b, c)),
            other => return Err(parse_err(no, format!("unknown tag {other:?}"))),
        }
        .or_insert(0);
        *total = total.checked_add(n).ok_or_else(|| overflow_err(no))?;
    }
    Ok(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dk_graph::builders;

    #[test]
    fn roundtrip_0k() {
        let d = crate::dist::Dist0K::from_graph(&builders::karate_club());
        let mut buf = Vec::new();
        write_0k(&d, &mut buf).unwrap();
        let back = read_0k(buf.as_slice()).unwrap();
        assert_eq!(d, back);
        assert!(read_0k("nodes 5\n".as_bytes()).is_err(), "missing edges");
        assert!(read_0k("nodes x\nedges 1\n".as_bytes()).is_err());
        assert!(read_0k("frob 3\n".as_bytes()).is_err());
    }

    #[test]
    fn roundtrip_1k() {
        let d = Dist1K::from_graph(&builders::karate_club());
        let mut buf = Vec::new();
        write_1k(&d, &mut buf).unwrap();
        let back = read_1k(buf.as_slice()).unwrap();
        assert_eq!(d, back);
    }

    #[test]
    fn roundtrip_2k() {
        let d = Dist2K::from_graph(&builders::karate_club());
        let mut buf = Vec::new();
        write_2k(&d, &mut buf).unwrap();
        let back = read_2k(buf.as_slice()).unwrap();
        assert_eq!(d, back);
    }

    #[test]
    fn roundtrip_3k() {
        let d = Dist3K::from_graph(&builders::karate_club());
        let mut buf = Vec::new();
        write_3k(&d, &mut buf).unwrap();
        let back = read_3k(buf.as_slice()).unwrap();
        assert_eq!(d, back);
    }

    #[test]
    fn reads_canonicalize() {
        let d = read_2k("3 2 5\n".as_bytes()).unwrap();
        assert_eq!(d.m(2, 3), 5);
        let d = read_3k("W 9 2 1 4\nT 3 1 2 7\n".as_bytes()).unwrap();
        assert_eq!(d.wedge(1, 2, 9), 4);
        assert_eq!(d.triangle(1, 2, 3), 7);
    }

    #[test]
    fn merge_duplicate_lines() {
        let d = read_1k("2 3\n2 4\n".as_bytes()).unwrap();
        assert_eq!(d.counts[2], 7);
    }

    #[test]
    fn parse_errors() {
        assert!(read_1k("x 1\n".as_bytes()).is_err());
        assert!(read_1k("1\n".as_bytes()).is_err());
        assert!(read_1k("1 2 3\n".as_bytes()).is_err());
        assert!(read_2k("1 2\n".as_bytes()).is_err());
        assert!(read_3k("X 1 2 3 4\n".as_bytes()).is_err());
        assert!(read_3k("W 1 2 3\n".as_bytes()).is_err());
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let d = read_2k("# hi\n\n1 2 3\n".as_bytes()).unwrap();
        assert_eq!(d.edges(), 3);
    }
}
