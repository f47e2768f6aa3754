//! The FMI-style plain-text exchange format for spatial networks.
//!
//! This is how road graphs enter and leave the workspace as files:
//! `bench_scale` writes its generated networks in it and reads them back,
//! so the scale pipeline starts from the same format external road-graph
//! tooling emits. Malformed input fails with `InvalidData` and the
//! offending line number rather than panicking. (The paged serving form of
//! a network is `SILCPNT2`, in [`crate::paged`].)

use crate::SpatialNetwork;
use silc_geom::Point;
use std::io::{self, Read, Write};

/// Writes `g` in the FMI-style plain-text exchange format (see
/// [`read_fmi`]). Coordinates are written as `lat lon`, i.e. `y` first.
pub fn write_fmi<W: Write>(g: &SpatialNetwork, w: &mut W) -> io::Result<()> {
    writeln!(w, "# FMI-style graph: node count, edge count, nodes, edges")?;
    writeln!(w, "{}", g.vertex_count())?;
    writeln!(w, "{}", g.edge_count())?;
    for v in g.vertices() {
        let p = g.position(v);
        writeln!(w, "{} {}", p.y, p.x)?;
    }
    for u in g.vertices() {
        for (v, wt) in g.out_edges(u) {
            writeln!(w, "{} {} {}", u.0, v.0, wt)?;
        }
    }
    Ok(())
}

/// Reads the FMI-style plain-text exchange format used by road-graph
/// tooling (node/edge counts first, then one node per line, then one
/// directed edge per line):
///
/// ```text
/// # comments and blank lines are skipped anywhere
/// <node count>
/// <edge count>
/// <lat> <lon>           — node lines, ids assigned in order
/// <src> <dst> <weight>  — directed edge lines
/// ```
///
/// `lat` maps to `y` and `lon` to `x`. Fails with `InvalidData` (and the
/// offending line number) on malformed counts, non-finite coordinates,
/// out-of-range endpoints, self-loops, non-positive or non-finite
/// weights, missing lines, or trailing garbage.
pub fn read_fmi<R: Read>(r: &mut R) -> io::Result<SpatialNetwork> {
    use crate::{NetworkBuilder, VertexId};
    let mut text = String::new();
    r.read_to_string(&mut text)?;
    let fail = |line_no: usize, msg: &str| {
        io::Error::new(io::ErrorKind::InvalidData, format!("line {line_no}: {msg}"))
    };
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));
    let mut next = |what: &str| {
        lines.next().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected end of input: missing {what}"),
            )
        })
    };

    let (no, line) = next("node count line")?;
    let n: usize = line.parse().map_err(|_| fail(no, "bad node count"))?;
    let (no, line) = next("edge count line")?;
    let m: usize = line.parse().map_err(|_| fail(no, "bad edge count"))?;

    let mut b = NetworkBuilder::with_capacity(n, m);
    for _ in 0..n {
        let (no, line) = next("node line")?;
        let mut parts = line.split_whitespace();
        let lat: f64 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| fail(no, "bad node latitude"))?;
        let lon: f64 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| fail(no, "bad node longitude"))?;
        if !(lat.is_finite() && lon.is_finite()) {
            return Err(fail(no, "non-finite node position"));
        }
        if parts.next().is_some() {
            return Err(fail(no, "trailing fields on node line"));
        }
        b.add_vertex(Point::new(lon, lat));
    }
    for _ in 0..m {
        let (no, line) = next("edge line")?;
        let mut parts = line.split_whitespace();
        let src: u32 =
            parts.next().and_then(|s| s.parse().ok()).ok_or_else(|| fail(no, "bad edge source"))?;
        let dst: u32 =
            parts.next().and_then(|s| s.parse().ok()).ok_or_else(|| fail(no, "bad edge target"))?;
        let w: f64 =
            parts.next().and_then(|s| s.parse().ok()).ok_or_else(|| fail(no, "bad edge weight"))?;
        if parts.next().is_some() {
            return Err(fail(no, "trailing fields on edge line"));
        }
        if src as usize >= n || dst as usize >= n {
            return Err(fail(no, "edge endpoint out of range"));
        }
        if src == dst {
            return Err(fail(no, "self-loop edge"));
        }
        if !w.is_finite() || w < 0.0 {
            return Err(fail(no, "invalid edge weight"));
        }
        b.add_edge(VertexId(src), VertexId(dst), w);
    }
    if let Some((no, _)) = lines.next() {
        return Err(fail(no, "trailing data after declared nodes and edges"));
    }
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{grid_network, road_network, GridConfig, RoadConfig};
    use crate::VertexId;

    fn fmi_bytes(g: &SpatialNetwork) -> Vec<u8> {
        let mut buf = Vec::new();
        write_fmi(g, &mut buf).unwrap();
        buf
    }

    fn assert_same_network(a: &SpatialNetwork, b: &SpatialNetwork) {
        assert_eq!(a.vertex_count(), b.vertex_count());
        assert_eq!(a.edge_count(), b.edge_count());
        for v in a.vertices() {
            assert_eq!(a.position(v), b.position(v));
            let x: Vec<_> = a.out_edges(v).collect();
            let y: Vec<_> = b.out_edges(v).collect();
            assert_eq!(x, y);
        }
    }

    #[test]
    fn roundtrip_in_memory() {
        // Irregular coordinates and weights: every f64 must survive its
        // decimal form bit for bit.
        let g = road_network(&RoadConfig { vertices: 90, seed: 99, ..Default::default() });
        let g2 = read_fmi(&mut &fmi_bytes(&g)[..]).unwrap();
        assert_same_network(&g, &g2);
    }

    #[test]
    fn roundtrip_on_disk() {
        let g = grid_network(&GridConfig { rows: 4, cols: 4, ..Default::default() });
        let dir = std::env::temp_dir().join("silc-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("net.fmi");
        let mut w = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
        write_fmi(&g, &mut w).unwrap();
        w.into_inner().unwrap();
        let g2 = read_fmi(&mut std::fs::File::open(&path).unwrap()).unwrap();
        assert_same_network(&g, &g2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_input_rejected() {
        let g = grid_network(&GridConfig { rows: 3, cols: 3, ..Default::default() });
        let text = String::from_utf8(fmi_bytes(&g)).unwrap();
        // Drop the last edge line, then everything past the counts.
        let without_last = &text[..text.trim_end().rfind('\n').unwrap()];
        assert!(read_fmi(&mut without_last.as_bytes()).is_err());
        let counts_only: String = text.lines().take(3).map(|l| format!("{l}\n")).collect();
        assert!(read_fmi(&mut counts_only.as_bytes()).is_err());
    }

    #[test]
    fn tampered_target_rejected() {
        let g = grid_network(&GridConfig { rows: 2, cols: 2, ..Default::default() });
        let text = String::from_utf8(fmi_bytes(&g)).unwrap();
        // Point the last edge at a vertex that does not exist.
        let (head, last) = text.trim_end().rsplit_once('\n').unwrap();
        let mut fields: Vec<&str> = last.split_whitespace().collect();
        fields[1] = "4294967295";
        let tampered = format!("{head}\n{}\n", fields.join(" "));
        assert!(read_fmi(&mut tampered.as_bytes()).is_err());
    }

    #[test]
    fn empty_network_roundtrips() {
        let g = crate::NetworkBuilder::new().build();
        let g2 = read_fmi(&mut &fmi_bytes(&g)[..]).unwrap();
        assert_eq!((g2.vertex_count(), g2.edge_count()), (0, 0));
    }

    #[test]
    fn fmi_roundtrip() {
        let g = grid_network(&GridConfig { rows: 6, cols: 5, seed: 8, ..Default::default() });
        let g2 = read_fmi(&mut &fmi_bytes(&g)[..]).unwrap();
        assert_same_network(&g, &g2);
    }

    #[test]
    fn fmi_parses_hand_written_input() {
        let text = "# tiny graph\n\n3\n4\n50.1 8.6\n50.2 8.7\n50.3 8.8\n\
                    0 1 2.5\n1 0 2.5\n1 2 1.25\n2 1 1.25\n";
        let g = read_fmi(&mut text.as_bytes()).unwrap();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 4);
        // lat is y, lon is x.
        assert_eq!(g.position(VertexId(0)), silc_geom::Point::new(8.6, 50.1));
        assert_eq!(g.edge_weight(VertexId(1), VertexId(2)), Some(1.25));
    }

    #[test]
    fn fmi_rejects_malformed_input() {
        for bad in [
            "",                                  // empty
            "2\n",                               // missing edge count
            "x\n0\n",                            // bad node count
            "2\ny\n0 0\n1 1\n",                  // bad edge count
            "2\n0\n0 0\n",                       // too few node lines
            "2\n1\n0 0\n1 1\n",                  // too few edge lines
            "2\n0\n0\n1 1\n",                    // node line missing a field
            "2\n0\n0 0 9\n1 1\n",                // node line trailing field
            "2\n0\nnan 0\n1 1\n",                // non-finite coordinate
            "2\n1\n0 0\n1 1\n0 5 1\n",           // endpoint out of range
            "2\n1\n0 0\n1 1\n0 0 1\n",           // self-loop
            "2\n1\n0 0\n1 1\n0 1 -2\n",          // negative weight
            "2\n1\n0 0\n1 1\n0 1 inf\n",         // non-finite weight
            "2\n1\n0 0\n1 1\n0 1 1 9\n",         // edge line trailing field
            "2\n1\n0 0\n1 1\n0 1 1\nleftover\n", // trailing data
        ] {
            assert!(read_fmi(&mut bad.as_bytes()).is_err(), "accepted: {bad:?}");
        }
    }
}
