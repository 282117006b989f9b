//! `emgbin` — the workspace's binary graph cache format.
//!
//! Text parsing is the slowest stage of a repeated experiment run, however
//! parallel: every byte of a SNAP/DIMACS/METIS file must be tokenized and
//! integer-parsed again on every load. `emgbin` stores the already-parsed
//! [`ParsedGraph`] (and optionally its CSR adjacency) as little-endian
//! arrays behind a versioned, checksummed header, so a reload is a bounds
//! check plus `memcpy`-speed decoding. `emg convert graph.txt graph.emgbin`
//! writes the cache; every reader in the workspace auto-detects it by
//! magic.
//!
//! ## Layout (all integers little-endian)
//!
//! ```text
//! offset  0: magic       b"EMGB"
//!         4: version     u32  (currently 1)
//!         8: flags       u32  (bit 0: original_ids section present,
//!                              bit 1: CSR section present)
//!        12: reserved    u32  (zero)
//!        16: num_nodes   u64
//!        24: num_edges   u64
//!        32: checksum    u64  (FNV-1a over header bytes 0..32 and the
//!                              payload, u64-word-wise)
//!        40: payload:
//!            src          [u32; m]
//!            dst          [u32; m]
//!            original_ids [u64; n]            (if flags bit 0)
//!            offsets      [u32; n + 1]        (if flags bit 1)
//!            neighbors    [u32; 2m]           (if flags bit 1)
//!            edge_ids     [u32; 2m]           (if flags bit 1)
//! ```
//!
//! The `original_ids` section is omitted when the mapping is the identity
//! (`0..n`), the common case for generated graphs.

use crate::{ParseError, ParsedGraph};
use graph_core::{Csr, EdgeList};
use std::io::Write;
use std::path::Path;

/// The four magic bytes every `emgbin` file starts with.
pub const MAGIC: [u8; 4] = *b"EMGB";
/// The current format version.
pub const VERSION: u32 = 1;

const FLAG_ORIGINAL_IDS: u32 = 1 << 0;
const FLAG_CSR: u32 = 1 << 1;
const HEADER_LEN: usize = 40;

/// Whether `bytes` starts with the `emgbin` magic.
pub fn is_emgbin(bytes: &[u8]) -> bool {
    bytes.len() >= 4 && bytes[..4] == MAGIC
}

/// FNV-1a over the header prefix (everything before the checksum field)
/// and the payload, folded one little-endian u64 word at a time (the tail
/// is zero-padded) — word-wise rather than byte-wise so the checksum runs
/// at memory speed instead of dominating the reload. Covering the header
/// means a corrupted node/edge count is caught *before* any
/// count-proportional allocation.
fn checksum(header_prefix: &[u8], payload: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    debug_assert_eq!(header_prefix.len() % 8, 0);
    let mut hash = OFFSET;
    for part in [header_prefix, payload] {
        let mut chunks = part.chunks_exact(8);
        for c in &mut chunks {
            hash ^= u64::from_le_bytes(c.try_into().unwrap());
            hash = hash.wrapping_mul(PRIME);
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            hash ^= u64::from_le_bytes(tail);
            hash = hash.wrapping_mul(PRIME);
        }
    }
    hash
}

fn push_u32s(buf: &mut Vec<u8>, values: impl Iterator<Item = u32>) {
    for v in values {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Serializes `parsed` (and optionally its CSR adjacency) to `emgbin`
/// bytes.
pub fn to_bytes(parsed: &ParsedGraph, csr: Option<&Csr>) -> Vec<u8> {
    let n = parsed.graph.num_nodes();
    let m = parsed.graph.num_edges();
    let identity_ids = parsed
        .original_ids
        .iter()
        .enumerate()
        .all(|(i, &v)| v == i as u64);

    let mut payload = Vec::with_capacity(8 * m + if identity_ids { 0 } else { 8 * n });
    push_u32s(&mut payload, parsed.graph.edges().iter().map(|&(u, _)| u));
    push_u32s(&mut payload, parsed.graph.edges().iter().map(|&(_, v)| v));
    let mut flags = 0u32;
    if !identity_ids {
        flags |= FLAG_ORIGINAL_IDS;
        for &id in &parsed.original_ids {
            payload.extend_from_slice(&id.to_le_bytes());
        }
    }
    if let Some(csr) = csr {
        flags |= FLAG_CSR;
        push_u32s(&mut payload, csr.offsets().iter().copied());
        push_u32s(&mut payload, csr.raw_neighbors().iter().copied());
        push_u32s(&mut payload, csr.raw_edge_ids().iter().copied());
    }

    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&flags.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    out.extend_from_slice(&(n as u64).to_le_bytes());
    out.extend_from_slice(&(m as u64).to_le_bytes());
    let digest = checksum(&out, &payload);
    out.extend_from_slice(&digest.to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Writes `parsed` (and optionally its CSR) as `emgbin`.
///
/// # Errors
/// Propagates I/O errors from `w`.
pub fn write<W: Write>(w: &mut W, parsed: &ParsedGraph, csr: Option<&Csr>) -> std::io::Result<()> {
    w.write_all(&to_bytes(parsed, csr))
}

/// Writes `parsed` (and optionally its CSR) to a file.
///
/// # Errors
/// Propagates filesystem errors.
pub fn write_file(
    path: impl AsRef<Path>,
    parsed: &ParsedGraph,
    csr: Option<&Csr>,
) -> std::io::Result<()> {
    std::fs::write(path, to_bytes(parsed, csr))
}

/// A cursor over the payload that slices fixed-size sections with bounds
/// reporting.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn section(&mut self, count: usize, width: usize, what: &str) -> Result<&'a [u8], ParseError> {
        let len = count.saturating_mul(width);
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| {
                ParseError::file(format!(
                    "emgbin truncated: {what} needs {len} bytes at offset {}, file has {}",
                    self.pos,
                    self.bytes.len()
                ))
            })?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32s(&mut self, count: usize, what: &str) -> Result<Vec<u32>, ParseError> {
        let raw = self.section(count, 4, what)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    fn u64s(&mut self, count: usize, what: &str) -> Result<Vec<u64>, ParseError> {
        let raw = self.section(count, 8, what)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }
}

/// Decodes `emgbin` bytes back into the graph and (when the writer
/// embedded one) its CSR adjacency.
///
/// # Errors
/// [`ParseError`] (whole-file) on bad magic/version, truncation, checksum
/// mismatch, out-of-range endpoints, or an embedded CSR that does not
/// match the edge list — a corrupt cache must never yield a silently
/// different graph.
pub fn read(bytes: &[u8]) -> Result<(ParsedGraph, Option<Csr>), ParseError> {
    if !is_emgbin(bytes) {
        return Err(ParseError::file("not an emgbin file (bad magic)"));
    }
    if bytes.len() < HEADER_LEN {
        return Err(ParseError::file(format!(
            "emgbin truncated: header needs {HEADER_LEN} bytes, file has {}",
            bytes.len()
        )));
    }
    let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    let quad = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    let version = word(4);
    if version != VERSION {
        return Err(ParseError::file(format!(
            "emgbin version {version} unsupported (expected {VERSION})"
        )));
    }
    let flags = word(8);
    if flags & !(FLAG_ORIGINAL_IDS | FLAG_CSR) != 0 {
        return Err(ParseError::file(format!(
            "emgbin has unknown flag bits {flags:#x}"
        )));
    }
    let n = usize::try_from(quad(16))
        .map_err(|_| ParseError::file("emgbin node count exceeds this platform's usize"))?;
    let m = usize::try_from(quad(24))
        .map_err(|_| ParseError::file("emgbin edge count exceeds this platform's usize"))?;
    let expected_checksum = quad(32);
    let payload = &bytes[HEADER_LEN..];
    let actual = checksum(&bytes[..32], payload);
    if actual != expected_checksum {
        return Err(ParseError::file(format!(
            "emgbin checksum mismatch: header says {expected_checksum:#018x}, payload hashes to {actual:#018x}"
        )));
    }

    let mut r = Reader {
        bytes: payload,
        pos: 0,
    };
    let src = r.u32s(m, "edge sources")?;
    let dst = r.u32s(m, "edge targets")?;
    for (&u, &v) in src.iter().zip(&dst) {
        if u as usize >= n || v as usize >= n {
            return Err(ParseError::file(format!(
                "emgbin edge ({u}, {v}) out of range for {n} nodes"
            )));
        }
    }
    let graph = EdgeList::new(n, src.into_iter().zip(dst).collect());
    let original_ids = if flags & FLAG_ORIGINAL_IDS != 0 {
        let ids = r.u64s(n, "original ids")?;
        if ids.len() != n {
            return Err(ParseError::file("emgbin original id count mismatch"));
        }
        ids
    } else {
        (0..n as u64).collect()
    };
    let csr = if flags & FLAG_CSR != 0 {
        let offsets = r.u32s(n + 1, "CSR offsets")?;
        let neighbors = r.u32s(2 * m, "CSR neighbors")?;
        let edge_ids = r.u32s(2 * m, "CSR edge ids")?;
        Some(
            Csr::from_raw_parts(offsets, neighbors, edge_ids, &graph)
                .map_err(|e| ParseError::file(format!("emgbin CSR section invalid: {e}")))?,
        )
    } else {
        None
    };
    if r.pos != payload.len() {
        return Err(ParseError::file(format!(
            "emgbin has {} trailing bytes after the last section",
            payload.len() - r.pos
        )));
    }
    let parsed = ParsedGraph {
        graph,
        original_ids,
    };
    Ok((parsed, csr))
}

/// Reads an `emgbin` file.
///
/// # Errors
/// [`crate::IoError`] on filesystem failures or corrupt content.
pub fn read_file(path: impl AsRef<Path>) -> Result<(ParsedGraph, Option<Csr>), crate::IoError> {
    let bytes = std::fs::read(path)?;
    Ok(read(&bytes)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ParsedGraph {
        ParsedGraph {
            graph: EdgeList::new(4, vec![(0, 1), (1, 2), (2, 0), (2, 3)]),
            original_ids: vec![10, 20, 30, 40],
        }
    }

    #[test]
    fn round_trips_graph_and_ids() {
        let p = sample();
        let bytes = to_bytes(&p, None);
        assert!(is_emgbin(&bytes));
        let (q, csr) = read(&bytes).unwrap();
        assert_eq!(q.graph.edges(), p.graph.edges());
        assert_eq!(q.graph.num_nodes(), 4);
        assert_eq!(q.original_ids, p.original_ids);
        assert!(csr.is_none());
    }

    #[test]
    fn identity_ids_are_elided_but_restored() {
        let p = ParsedGraph::dense(EdgeList::new(3, vec![(0, 1), (1, 2)]));
        let with_ids = to_bytes(&sample(), None);
        let bytes = to_bytes(&p, None);
        // 2 edges * 8 bytes payload, no id section.
        assert_eq!(bytes.len(), HEADER_LEN + 16);
        assert!(bytes.len() < with_ids.len());
        let (q, _) = read(&bytes).unwrap();
        assert_eq!(q.original_ids, vec![0, 1, 2]);
    }

    #[test]
    fn round_trips_embedded_csr() {
        let p = sample();
        let csr = Csr::from_edge_list(&p.graph);
        let bytes = to_bytes(&p, Some(&csr));
        let (q, loaded) = read(&bytes).unwrap();
        assert_eq!(q.graph.edges(), p.graph.edges());
        assert_eq!(loaded.expect("CSR embedded"), csr);
    }

    #[test]
    fn rejects_corruption() {
        let p = sample();
        let good = to_bytes(&p, None);
        // Bad magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(read(&bad).unwrap_err().message.contains("magic"));
        // Bad version.
        let mut bad = good.clone();
        bad[4] = 99;
        assert!(read(&bad).unwrap_err().message.contains("version"));
        // Flipped payload byte -> checksum mismatch.
        let mut bad = good.clone();
        *bad.last_mut().unwrap() ^= 0x40;
        assert!(read(&bad).unwrap_err().message.contains("checksum"));
        // Truncation.
        let bad = &good[..good.len() - 3];
        assert!(read(bad).is_err());
        // Trailing garbage changes the checksum; with the checksum patched
        // it is still rejected as trailing bytes.
        let mut bad = good.clone();
        bad.extend_from_slice(&[0; 8]);
        let fixed = checksum(&bad[..32], &bad[HEADER_LEN..]);
        bad[32..40].copy_from_slice(&fixed.to_le_bytes());
        assert!(read(&bad).unwrap_err().message.contains("trailing"));
    }

    #[test]
    fn rejects_a_csr_from_another_graph() {
        // Same n and m, checksum valid: the triangle-plus-tail edges with
        // a 4-cycle's adjacency. Loading it would hand the bridge
        // pipelines a CSR that describes the cycle.
        let p = sample();
        let cycle = EdgeList::new(4, vec![(0, 1), (1, 2), (2, 3), (3, 0)]);
        let bytes = to_bytes(&p, Some(&Csr::from_edge_list(&cycle)));
        let err = read(&bytes).unwrap_err();
        assert!(err.message.contains("CSR section invalid"), "{err:?}");
    }

    #[test]
    fn rejects_edge_ids_swapped_inside_one_run() {
        // Node 2's run lists three distinct edges; swapping two of their
        // ids keeps every offset, length and id range valid.
        let p = sample();
        let csr = Csr::from_edge_list(&p.graph);
        let mut edge_ids = csr.raw_edge_ids().to_vec();
        let run = csr.offsets()[2] as usize;
        assert_ne!(edge_ids[run], edge_ids[run + 1]);
        edge_ids.swap(run, run + 1);
        let mut bytes = to_bytes(&p, Some(&csr));
        let at = bytes.len() - 4 * edge_ids.len();
        for (i, e) in edge_ids.iter().enumerate() {
            bytes[at + 4 * i..at + 4 * i + 4].copy_from_slice(&e.to_le_bytes());
        }
        let fixed = checksum(&bytes[..32], &bytes[HEADER_LEN..]);
        bytes[32..40].copy_from_slice(&fixed.to_le_bytes());
        let err = read(&bytes).unwrap_err();
        assert!(err.message.contains("CSR section invalid"), "{err:?}");
    }

    #[test]
    fn rejects_out_of_range_edges_without_panicking() {
        // Hand-craft a file whose edge endpoint exceeds num_nodes.
        let p = ParsedGraph::dense(EdgeList::new(5, vec![(0, 4)]));
        let mut bytes = to_bytes(&p, None);
        bytes[16..24].copy_from_slice(&2u64.to_le_bytes()); // shrink n to 2
        let fixed = checksum(&bytes[..32], &bytes[HEADER_LEN..]);
        bytes[32..40].copy_from_slice(&fixed.to_le_bytes());
        // original_ids were elided (identity over 5 nodes) so the payload
        // still parses structurally; the endpoint check must fire.
        assert!(read(&bytes).unwrap_err().message.contains("out of range"));
    }

    #[test]
    fn empty_graph_round_trips() {
        let p = ParsedGraph::dense(EdgeList::empty(0));
        let (q, csr) = read(&to_bytes(&p, None)).unwrap();
        assert_eq!(q.graph.num_nodes(), 0);
        assert_eq!(q.graph.num_edges(), 0);
        assert!(csr.is_none());
    }
}
