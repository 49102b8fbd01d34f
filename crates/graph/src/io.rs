//! Graph file loaders and writers.
//!
//! Two formats are supported:
//!
//! * **SNAP edge list** (`.txt`): one `u v` pair per line, `#` comments —
//!   the format of the paper's datasets (WikiVote, Enron, …).
//! * **`.lg` labeled graph** (as used by the STMatch artifact and many graph
//!   mining systems): `v <id> <label>` and `e <u> <v> [elabel]` lines.

use crate::{Graph, GraphBuilder, Label, VertexId};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Errors raised by the loaders.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line that could not be parsed, with its 1-based line number.
    Parse { line: usize, message: String },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// The loaders keep the file's own vertex ids (no remapping), so the graph
/// they build is sized by the largest id, not by the input: a file may name
/// ids up to `ID_SLACK_PER_RECORD × records + ID_SLACK_BASE` and no
/// further. SNAP's ids are sparse but honest — soc-Wiki-Vote numbers its
/// 7 115 vertices up to 8 297 over 103 689 edge lines, and any file whose
/// ids are a small multiple of its vertex count passes, since every
/// non-isolated vertex costs at least half a record — so 64 ids per record
/// leaves such files more than an order of magnitude of room, while
/// `e 0 4294967295` (one record) no longer asks for 48 GiB of label and
/// degree vectors. The base lets a hand-written toy file use ids below
/// 1 024 freely.
const ID_SLACK_PER_RECORD: usize = 64;
const ID_SLACK_BASE: usize = 1024;

/// The largest vertex id parsed so far and the line that named it.
#[derive(Default)]
struct MaxId(Option<(VertexId, usize)>);

impl MaxId {
    fn see(&mut self, id: VertexId, line: usize) {
        if self.0.is_none_or(|(max, _)| id > max) {
            self.0 = Some((id, line));
        }
    }

    /// Builds the graph of the parsed records — after rejecting a largest id
    /// implausible for that many records, before any structure sized by it
    /// exists.
    fn build(
        &self,
        labels: Vec<(VertexId, Label)>,
        edges: Vec<(VertexId, VertexId)>,
    ) -> Result<Graph, IoError> {
        let records = labels.len() + edges.len();
        let limit = records
            .saturating_mul(ID_SLACK_PER_RECORD)
            .saturating_add(ID_SLACK_BASE);
        if let Some((max, line)) = self.0.filter(|&(max, _)| max as usize >= limit) {
            return Err(IoError::Parse {
                line,
                message: format!(
                    "vertex id {max} is implausible for a file of {records} records \
                     (ids must stay below {limit}: the graph is sized by its largest id)"
                ),
            });
        }
        let mut builder = GraphBuilder::with_capacity(0, edges.len());
        for (id, label) in labels {
            builder.set_label(id, label);
        }
        for (u, v) in edges {
            builder.add_edge(u, v);
        }
        Ok(builder.build())
    }
}

/// Feeds `f` each line of `reader` with its 1-based number (the terminator
/// included; callers trim). A line that is not UTF-8 is a parse error at
/// that line, not an I/O error.
fn for_each_line<R: Read>(
    reader: R,
    mut f: impl FnMut(usize, &str) -> Result<(), IoError>,
) -> Result<(), IoError> {
    let mut reader = BufReader::new(reader);
    let mut buf = Vec::new();
    for line in 1.. {
        buf.clear();
        if reader.read_until(b'\n', &mut buf)? == 0 {
            break;
        }
        let text = std::str::from_utf8(&buf).map_err(|e| IoError::Parse {
            line,
            message: format!("not UTF-8: {e}"),
        })?;
        f(line, text)?;
    }
    Ok(())
}

/// Parses a SNAP-style edge list from a reader.
pub fn read_edge_list<R: Read>(reader: R) -> Result<Graph, IoError> {
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    let mut max_id = MaxId::default();
    for_each_line(reader, |line, text| {
        let trimmed = text.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            return Ok(());
        }
        let mut it = trimmed.split_whitespace();
        let parse = |tok: Option<&str>, what: &str| -> Result<VertexId, IoError> {
            tok.ok_or_else(|| IoError::Parse {
                line,
                message: format!("missing {what}"),
            })?
            .parse::<VertexId>()
            .map_err(|e| IoError::Parse {
                line,
                message: format!("bad {what}: {e}"),
            })
        };
        let u = parse(it.next(), "source vertex")?;
        let v = parse(it.next(), "target vertex")?;
        max_id.see(u.max(v), line);
        edges.push((u, v));
        Ok(())
    })?;
    max_id.build(Vec::new(), edges)
}

/// Loads a SNAP edge-list file.
pub fn load_edge_list(path: impl AsRef<Path>) -> Result<Graph, IoError> {
    let file = std::fs::File::open(path)?;
    read_edge_list(file)
}

/// Parses an `.lg` labeled graph from a reader. A `t # <name>` header
/// names the graph (an empty name leaves it unnamed); other `t` lines are
/// skipped.
pub fn read_lg<R: Read>(reader: R) -> Result<Graph, IoError> {
    let mut labels: Vec<(VertexId, Label)> = Vec::new();
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    let mut max_id = MaxId::default();
    let mut name = String::new();
    for_each_line(reader, |line, text| {
        let trimmed = text.trim();
        if let Some(header) = trimmed.strip_prefix('t') {
            if let Some(named) = header.trim_start().strip_prefix('#') {
                name = named.trim().to_string();
            }
            return Ok(());
        }
        if trimmed.is_empty() || trimmed.starts_with('#') {
            return Ok(());
        }
        let toks: Vec<&str> = trimmed.split_whitespace().collect();
        let bad = |message: String| IoError::Parse { line, message };
        match toks[0] {
            "v" => {
                if toks.len() < 3 {
                    return Err(bad("vertex line needs `v <id> <label>`".into()));
                }
                let id: VertexId = toks[1].parse().map_err(|e| bad(format!("bad id: {e}")))?;
                let label: Label = toks[2]
                    .parse()
                    .map_err(|e| bad(format!("bad label: {e}")))?;
                if label == Label::MAX {
                    return Err(bad(format!(
                        "label {label} leaves no room for the label count \
                         (labels must stay below {label}: the count is the largest label + 1)"
                    )));
                }
                max_id.see(id, line);
                labels.push((id, label));
            }
            "e" => {
                if toks.len() < 3 {
                    return Err(bad("edge line needs `e <u> <v>`".into()));
                }
                let u: VertexId = toks[1].parse().map_err(|e| bad(format!("bad u: {e}")))?;
                let v: VertexId = toks[2].parse().map_err(|e| bad(format!("bad v: {e}")))?;
                max_id.see(u.max(v), line);
                edges.push((u, v));
            }
            other => return Err(bad(format!("unknown record type `{other}`"))),
        }
        Ok(())
    })?;
    Ok(max_id.build(labels, edges)?.with_name(name))
}

/// Loads an `.lg` file.
pub fn load_lg(path: impl AsRef<Path>) -> Result<Graph, IoError> {
    let file = std::fs::File::open(path)?;
    read_lg(file)
}

/// Writes a graph in `.lg` format.
pub fn write_lg<W: Write>(g: &Graph, mut w: W) -> std::io::Result<()> {
    writeln!(w, "t # {}", g.name())?;
    for v in g.vertices() {
        writeln!(w, "v {} {}", v, g.label(v))?;
    }
    for (u, v) in g.edges() {
        writeln!(w, "e {u} {v}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_edge_list_with_comments() {
        let text = "# snap header\n0 1\n1 2\n\n2 0\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn rejects_garbage() {
        let err = read_edge_list("0 x\n".as_bytes()).unwrap_err();
        match err {
            IoError::Parse { line, .. } => assert_eq!(line, 1),
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn lg_roundtrip() {
        let text = "t # demo\nv 0 1\nv 1 2\nv 2 1\ne 0 1\ne 1 2\n";
        let g = read_lg(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.label(1), 2);
        assert_eq!(g.name(), "demo");
        let mut out = Vec::new();
        write_lg(&g, &mut out).unwrap();
        let g2 = read_lg(out.as_slice()).unwrap();
        assert_eq!(g, g2);
        assert_eq!(g2.name(), "demo");
        // An empty header name leaves the graph unnamed.
        let unnamed = read_lg("t #\nv 0 0\n".as_bytes()).unwrap();
        assert_eq!(unnamed.name(), "");
    }

    #[test]
    fn lg_rejects_unknown_record() {
        assert!(read_lg("x 1 2\n".as_bytes()).is_err());
    }

    #[test]
    fn hostile_vertex_id_is_rejected_before_anything_is_sized_by_it() {
        // 15 bytes that used to ask the builder for a 16 GiB label vector
        // and a 32 GiB degree vector; a completed call is the proof that
        // nothing was allocated.
        for (err, want_line) in [
            (read_lg("e 0 4294967295\n".as_bytes()).unwrap_err(), 1),
            (read_edge_list("0 4294967295\n".as_bytes()).unwrap_err(), 1),
            (
                read_lg("v 0 1\nv 4000000000 1\n".as_bytes()).unwrap_err(),
                2,
            ),
        ] {
            match err {
                IoError::Parse { line, message } => {
                    assert_eq!(line, want_line);
                    assert!(message.contains("implausible"), "{message}");
                }
                other => panic!("expected a parse error, got {other}"),
            }
        }
    }

    #[test]
    fn hostile_label_is_rejected_before_the_label_count_wraps() {
        // `max + 1` used to overflow: a debug build panicked, a release
        // build reported a labeled graph as unlabeled (`num_labels() == 0`).
        match read_lg("v 0 4294967295\ne 0 1\n".as_bytes()).unwrap_err() {
            IoError::Parse { line, message } => {
                assert_eq!(line, 1);
                assert!(message.contains("label 4294967295"), "{message}");
            }
            other => panic!("expected a parse error, got {other}"),
        }
        // The largest label that leaves room still loads.
        let g = read_lg("v 0 4294967294\ne 0 1\n".as_bytes()).unwrap();
        assert_eq!(g.num_labels(), u32::MAX);
        assert!(g.is_labeled());
    }

    #[test]
    fn a_line_that_is_not_utf8_is_a_parse_error_at_that_line() {
        for err in [
            read_lg(&b"v 0 1\ne 0 \xff1\ne 0 1\n"[..]).unwrap_err(),
            read_edge_list(&b"0 1\n0 \xc3\n"[..]).unwrap_err(),
        ] {
            match err {
                IoError::Parse { line, message } => {
                    assert_eq!(line, 2);
                    assert!(message.contains("UTF-8"), "{message}");
                }
                other => panic!("expected a parse error, got {other}"),
            }
        }
    }

    #[test]
    fn sparse_but_honest_ids_still_load() {
        // soc-Wiki-Vote's shape: ids run to about twice the vertex count.
        let text: String = (0..500u32)
            .map(|i| format!("{} {}\n", 2 * i, 2 * i + 2))
            .collect();
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 1001);
        assert_eq!(g.num_edges(), 500);
        let lg: String = (0..500u32)
            .map(|i| format!("v {} 3\ne {} {}\n", 2 * i, 2 * i, 2 * i + 2))
            .collect();
        let g = read_lg(lg.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 1001);
        assert_eq!(g.label(998), 3);
        // A toy file may use small ids freely.
        assert_eq!(
            read_lg("e 0 1000\n".as_bytes()).unwrap().num_vertices(),
            1001
        );
    }
}
