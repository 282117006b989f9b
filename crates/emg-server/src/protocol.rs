//! The wire protocol: length-prefixed binary frames over a byte stream.
//!
//! This module is the normative implementation of DESIGN.md §12 — the
//! framing, the message grammar, the error codes, and the versioning
//! rules. Every message round-trips through [`Request::encode`] /
//! [`Request::decode`] (and the [`Response`] pair), which the property
//! suite pins for every message type, so a client in another language can
//! be written against the byte layout documented there.
//!
//! Layout conventions, repeated from the spec:
//!
//! * every integer is **little-endian**;
//! * a **frame** is a `u32` payload length followed by that many payload
//!   bytes; payloads above [`MAX_FRAME_LEN`] are rejected before any
//!   length-proportional allocation;
//! * a payload is a one-byte **tag** followed by the message body;
//!   requests use tags `0x01..=0x07`, responses mirror their request's
//!   tag with the high bit set (`0x81..=0x87`), and `0xFF` is the error
//!   response;
//! * **strings** are a `u16` length followed by UTF-8 bytes; **pair
//!   lists** are a `u32` count followed by `count` `(u32, u32)` pairs;
//! * decoding must consume the payload exactly — trailing bytes are a
//!   [`ErrorCode::BadFrame`], not an extension point. Versioning happens
//!   in the [`Request::Hello`] handshake, never by payload sniffing.

use std::io::{Read, Write};

/// Handshake magic: the first four payload bytes of every connection.
pub const MAGIC: [u8; 4] = *b"EMGQ";

/// The protocol version this implementation speaks.
pub const PROTOCOL_VERSION: u16 = 1;

/// Upper bound on a frame payload (64 MiB): large enough for ~8M queries
/// per request, small enough that a corrupt length prefix cannot trigger
/// a giant allocation.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// Wire error codes (the `u16` carried by [`Response::Error`]).
///
/// Codes are append-only across protocol versions: a code once assigned
/// never changes meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// The handshake payload did not start with [`MAGIC`].
    BadMagic = 1,
    /// The client requested a protocol version the server cannot speak.
    UnsupportedVersion = 2,
    /// A payload failed to decode (unknown tag, truncated body, trailing
    /// bytes, malformed UTF-8).
    BadFrame = 3,
    /// A frame length exceeded [`MAX_FRAME_LEN`].
    FrameTooLarge = 4,
    /// The named graph is not in the catalog.
    UnknownGraph = 5,
    /// The request pinned an epoch the snapshot no longer (or does not
    /// yet) serve.
    WrongEpoch = 6,
    /// An LCA or subtree query against a snapshot that is not a tree.
    NotATree = 7,
    /// A query pair names a node id `>=` the graph's node count.
    NodeOutOfRange = 8,
    /// An unknown [`QueryKind`] byte.
    UnknownKind = 9,
    /// The first frame of a connection was not a `Hello`.
    ExpectedHello = 10,
    /// The server failed internally (worker gone, reload I/O error, a
    /// batch launch that panicked and was isolated, ...).
    Internal = 11,
    /// The batcher's admission control refused the request: the pending
    /// queue is at capacity. The message carries a
    /// `retry_after_ms=<n>` hint (see [`retry_after_ms`]); the request
    /// was **not** enqueued and is safe to retry after backing off.
    Overloaded = 12,
}

impl ErrorCode {
    /// The code as its wire `u16`.
    pub fn as_u16(self) -> u16 {
        self as u16
    }

    /// Decodes a wire `u16` back to a code.
    pub fn from_u16(v: u16) -> Option<Self> {
        Some(match v {
            1 => Self::BadMagic,
            2 => Self::UnsupportedVersion,
            3 => Self::BadFrame,
            4 => Self::FrameTooLarge,
            5 => Self::UnknownGraph,
            6 => Self::WrongEpoch,
            7 => Self::NotATree,
            8 => Self::NodeOutOfRange,
            9 => Self::UnknownKind,
            10 => Self::ExpectedHello,
            11 => Self::Internal,
            12 => Self::Overloaded,
            _ => return None,
        })
    }
}

/// The key an [`ErrorCode::Overloaded`] message uses to carry its backoff
/// hint, e.g. `server overloaded (4096 pairs pending); retry_after_ms=2`.
/// Carried inside the message string so the error frame layout stays
/// byte-identical for every code (append-only wire discipline).
pub const RETRY_AFTER_KEY: &str = "retry_after_ms=";

/// Formats the canonical `Overloaded` message with its retry hint.
pub fn overloaded_message(pending_pairs: usize, cap: usize, retry_after_ms: u64) -> String {
    format!(
        "server overloaded ({pending_pairs} pairs pending, cap {cap}); \
         {RETRY_AFTER_KEY}{retry_after_ms}"
    )
}

/// Extracts the `retry_after_ms=<n>` hint from an error message, if
/// present. Retrying clients use it as the floor of their next backoff.
pub fn retry_after_ms(message: &str) -> Option<u64> {
    let start = message.find(RETRY_AFTER_KEY)? + RETRY_AFTER_KEY.len();
    let rest = &message[start..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The query families a snapshot can answer. Each answer is one `u32`
/// per pair; the meaning of that word is kind-specific (see the
/// variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum QueryKind {
    /// Lowest common ancestor of `(x, y)` on a tree snapshot; the answer
    /// is the LCA's node id.
    Lca = 1,
    /// Connectivity: answer `1` iff `u` and `v` share a connected
    /// component, else `0`.
    Connectivity = 2,
    /// Bridge membership of the edge `{u, v}`: `1` = the edge exists and
    /// is a bridge, `0` = exists and is not, [`BRIDGE_NO_SUCH_EDGE`] =
    /// no such edge.
    BridgeEdge = 3,
    /// Subtree membership on a tree snapshot: answer `1` iff `u` lies in
    /// the subtree rooted at `v`, else `0`.
    Subtree = 4,
}

/// The [`QueryKind::BridgeEdge`] answer for a pair that is not an edge of
/// the graph.
pub const BRIDGE_NO_SUCH_EDGE: u32 = 2;

/// Every query kind, in tag order.
pub const ALL_KINDS: [QueryKind; 4] = [
    QueryKind::Lca,
    QueryKind::Connectivity,
    QueryKind::BridgeEdge,
    QueryKind::Subtree,
];

impl QueryKind {
    /// The kind as its wire byte.
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Decodes a wire byte back to a kind.
    pub fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            1 => Self::Lca,
            2 => Self::Connectivity,
            3 => Self::BridgeEdge,
            4 => Self::Subtree,
            _ => return None,
        })
    }

    /// Parses the CLI spelling (`lca`/`conn`/`bridge`/`subtree`).
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "lca" => Self::Lca,
            "conn" | "connectivity" => Self::Connectivity,
            "bridge" => Self::BridgeEdge,
            "subtree" => Self::Subtree,
            _ => return None,
        })
    }

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            Self::Lca => "lca",
            Self::Connectivity => "conn",
            Self::BridgeEdge => "bridge",
            Self::Subtree => "subtree",
        }
    }
}

/// Catalog metadata for one served graph, as carried by
/// [`Response::GraphList`] and [`Response::InfoOk`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphInfo {
    /// Catalog name (the file stem the graph was loaded from).
    pub name: String,
    /// Snapshot epoch: starts at 1, +1 per reload.
    pub epoch: u64,
    /// Node count.
    pub nodes: u32,
    /// Undirected edge count.
    pub edges: u32,
    /// Whether the snapshot is a rooted tree (LCA/subtree answerable).
    pub is_tree: bool,
    /// Connected components in the snapshot.
    pub num_components: u32,
    /// Bridges in the snapshot.
    pub num_bridges: u32,
}

/// Aggregate server counters, as carried by [`Response::StatsOk`].
///
/// The histogram is the **batch-size distribution**: bucket `i` counts
/// device launches whose coalesced batch held `2^i ..= 2^(i+1) - 1`
/// queries. `queries / batches` is the mean coalescing factor the qps
/// sweep reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Queries answered across all graphs and kinds.
    pub queries: u64,
    /// Batched device launches that answered them.
    pub batches: u64,
    /// Largest single batch.
    pub max_batch: u64,
    /// Flushes that reached the size cap.
    pub size_flushes: u64,
    /// Flushes that emptied the queue before reaching the size cap. The
    /// name is kept from the retired coalescing window: the wire layout is
    /// append-only (DESIGN.md §12.3).
    pub deadline_flushes: u64,
    /// Power-of-two batch-size histogram (`hist[i]` counts batches of
    /// size in `[2^i, 2^(i+1))`).
    pub batch_hist: Vec<u64>,
    /// Sessions closed because a read or write deadline expired (idle
    /// reaping and slow-loris/stalled-peer defense).
    pub timeouts: u64,
    /// Requests refused with [`ErrorCode::Overloaded`] by the batcher's
    /// admission control.
    pub overloads: u64,
    /// Batch launches that panicked and were isolated: their requesters
    /// got [`ErrorCode::Internal`], the daemon kept serving.
    pub panics_isolated: u64,
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Connection handshake; must be the first frame on a connection.
    /// Carries [`MAGIC`] and the highest protocol version the client
    /// speaks.
    Hello {
        /// Highest protocol version the client can speak.
        version: u16,
    },
    /// List every graph in the catalog.
    ListGraphs,
    /// Answer `pairs` under `kind` against graph `graph`.
    Query {
        /// Catalog name of the target graph.
        graph: String,
        /// Epoch the client insists on (`0` = whatever is current).
        epoch: u64,
        /// Query family.
        kind: QueryKind,
        /// The `(u, v)` query pairs.
        pairs: Vec<(u32, u32)>,
    },
    /// Metadata for one graph.
    Info {
        /// Catalog name of the target graph.
        graph: String,
    },
    /// Aggregate server counters (batch-size distribution included).
    Stats,
    /// Re-read one graph from disk into a fresh snapshot (epoch + 1).
    Reload {
        /// Catalog name of the target graph.
        graph: String,
    },
    /// Ask the server to stop accepting connections and exit.
    Shutdown,
}

/// A server-to-client message. Responses arrive in request order —
/// exactly one response frame per request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Handshake accepted; carries the negotiated protocol version
    /// (`min(client, server)`).
    HelloOk {
        /// The protocol version both sides will speak.
        version: u16,
    },
    /// The catalog listing.
    GraphList {
        /// One entry per served graph, in catalog order.
        graphs: Vec<GraphInfo>,
    },
    /// Answers to a [`Request::Query`], one `u32` per pair, in pair
    /// order.
    Answers {
        /// The query family answered.
        kind: QueryKind,
        /// The snapshot epoch that produced the answers.
        epoch: u64,
        /// One kind-specific answer word per query pair.
        answers: Vec<u32>,
    },
    /// Metadata for one graph.
    InfoOk {
        /// The graph's catalog metadata.
        info: GraphInfo,
    },
    /// Aggregate server counters.
    StatsOk {
        /// The counters, including the batch-size histogram.
        stats: ServerStats,
    },
    /// A reload completed; carries the new epoch.
    ReloadOk {
        /// The fresh snapshot's epoch.
        epoch: u64,
    },
    /// The server acknowledges shutdown and will exit.
    ShutdownOk,
    /// The request failed; the connection stays usable unless the error
    /// was a framing-level one.
    Error {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable detail (not part of the stable contract).
        message: String,
    },
}

// --- encoding helpers ----------------------------------------------------

fn put_str(buf: &mut Vec<u8>, s: &str) {
    let len = u16::try_from(s.len()).expect("string field over 64 KiB");
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn put_pairs(buf: &mut Vec<u8>, pairs: &[(u32, u32)]) {
    buf.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
    for &(u, v) in pairs {
        buf.extend_from_slice(&u.to_le_bytes());
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

fn put_info(buf: &mut Vec<u8>, info: &GraphInfo) {
    put_str(buf, &info.name);
    buf.extend_from_slice(&info.epoch.to_le_bytes());
    buf.extend_from_slice(&info.nodes.to_le_bytes());
    buf.extend_from_slice(&info.edges.to_le_bytes());
    buf.push(u8::from(info.is_tree));
    buf.extend_from_slice(&info.num_components.to_le_bytes());
    buf.extend_from_slice(&info.num_bridges.to_le_bytes());
}

/// A decode failure: the error code to report and a human-readable cause.
pub type DecodeError = (ErrorCode, String);

fn bad(msg: impl Into<String>) -> DecodeError {
    (ErrorCode::BadFrame, msg.into())
}

/// Strict little-endian payload reader; every accessor errors on
/// truncation instead of panicking, and [`Reader::finish`] rejects
/// trailing bytes.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| bad(format!("truncated payload: needed {n} more bytes")))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| bad("string field is not UTF-8"))
    }

    fn pairs(&mut self) -> Result<Vec<(u32, u32)>, DecodeError> {
        let count = self.u32()? as usize;
        // The count must be consistent with the remaining payload before
        // any count-proportional allocation.
        if self.buf.len() - self.pos < count * 8 {
            return Err(bad(format!("pair count {count} exceeds payload")));
        }
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push((self.u32()?, self.u32()?));
        }
        Ok(out)
    }

    fn words(&mut self) -> Result<Vec<u32>, DecodeError> {
        let count = self.u32()? as usize;
        if self.buf.len() - self.pos < count * 4 {
            return Err(bad(format!("word count {count} exceeds payload")));
        }
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(self.u32()?);
        }
        Ok(out)
    }

    fn info(&mut self) -> Result<GraphInfo, DecodeError> {
        Ok(GraphInfo {
            name: self.string()?,
            epoch: self.u64()?,
            nodes: self.u32()?,
            edges: self.u32()?,
            is_tree: self.u8()? != 0,
            num_components: self.u32()?,
            num_bridges: self.u32()?,
        })
    }

    fn finish(self) -> Result<(), DecodeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(bad(format!(
                "{} trailing byte(s) after message body",
                self.buf.len() - self.pos
            )))
        }
    }
}

impl Request {
    /// Encodes the request as a frame payload (tag + body, no length
    /// prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Request::Hello { version } => {
                buf.push(0x01);
                buf.extend_from_slice(&MAGIC);
                buf.extend_from_slice(&version.to_le_bytes());
            }
            Request::ListGraphs => buf.push(0x02),
            Request::Query {
                graph,
                epoch,
                kind,
                pairs,
            } => {
                buf.push(0x03);
                put_str(&mut buf, graph);
                buf.extend_from_slice(&epoch.to_le_bytes());
                buf.push(kind.as_u8());
                put_pairs(&mut buf, pairs);
            }
            Request::Info { graph } => {
                buf.push(0x04);
                put_str(&mut buf, graph);
            }
            Request::Stats => buf.push(0x05),
            Request::Reload { graph } => {
                buf.push(0x06);
                put_str(&mut buf, graph);
            }
            Request::Shutdown => buf.push(0x07),
        }
        buf
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    /// Returns the [`ErrorCode`] the server should answer with (plus a
    /// human-readable cause): `BadFrame` for truncation/trailing bytes/
    /// unknown tags, `BadMagic`/`UnknownKind` for their specific fields.
    pub fn decode(payload: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(payload);
        let tag = r.u8().map_err(|_| bad("empty payload"))?;
        let req = match tag {
            0x01 => {
                let magic = r.take(4)?;
                if magic != MAGIC {
                    return Err((
                        ErrorCode::BadMagic,
                        format!("handshake magic {magic:02x?} != {MAGIC:02x?}"),
                    ));
                }
                Request::Hello { version: r.u16()? }
            }
            0x02 => Request::ListGraphs,
            0x03 => {
                let graph = r.string()?;
                let epoch = r.u64()?;
                let kind_byte = r.u8()?;
                let kind = QueryKind::from_u8(kind_byte).ok_or((
                    ErrorCode::UnknownKind,
                    format!("unknown query kind {kind_byte}"),
                ))?;
                Request::Query {
                    graph,
                    epoch,
                    kind,
                    pairs: r.pairs()?,
                }
            }
            0x04 => Request::Info { graph: r.string()? },
            0x05 => Request::Stats,
            0x06 => Request::Reload { graph: r.string()? },
            0x07 => Request::Shutdown,
            other => return Err(bad(format!("unknown request tag 0x{other:02x}"))),
        };
        r.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Encodes the response as a frame payload (tag + body, no length
    /// prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Response::HelloOk { version } => {
                buf.push(0x81);
                buf.extend_from_slice(&version.to_le_bytes());
            }
            Response::GraphList { graphs } => {
                buf.push(0x82);
                buf.extend_from_slice(&(graphs.len() as u32).to_le_bytes());
                for g in graphs {
                    put_info(&mut buf, g);
                }
            }
            Response::Answers {
                kind,
                epoch,
                answers,
            } => {
                buf.push(0x83);
                buf.push(kind.as_u8());
                buf.extend_from_slice(&epoch.to_le_bytes());
                buf.extend_from_slice(&(answers.len() as u32).to_le_bytes());
                for a in answers {
                    buf.extend_from_slice(&a.to_le_bytes());
                }
            }
            Response::InfoOk { info } => {
                buf.push(0x84);
                put_info(&mut buf, info);
            }
            Response::StatsOk { stats } => {
                buf.push(0x85);
                buf.extend_from_slice(&stats.queries.to_le_bytes());
                buf.extend_from_slice(&stats.batches.to_le_bytes());
                buf.extend_from_slice(&stats.max_batch.to_le_bytes());
                buf.extend_from_slice(&stats.size_flushes.to_le_bytes());
                buf.extend_from_slice(&stats.deadline_flushes.to_le_bytes());
                buf.push(u8::try_from(stats.batch_hist.len()).expect("histogram over 255 buckets"));
                for b in &stats.batch_hist {
                    buf.extend_from_slice(&b.to_le_bytes());
                }
                // Robustness counters, appended after the histogram (the
                // variable-length field keeps its prefix position).
                buf.extend_from_slice(&stats.timeouts.to_le_bytes());
                buf.extend_from_slice(&stats.overloads.to_le_bytes());
                buf.extend_from_slice(&stats.panics_isolated.to_le_bytes());
            }
            Response::ReloadOk { epoch } => {
                buf.push(0x86);
                buf.extend_from_slice(&epoch.to_le_bytes());
            }
            Response::ShutdownOk => buf.push(0x87),
            Response::Error { code, message } => {
                buf.push(0xFF);
                buf.extend_from_slice(&code.as_u16().to_le_bytes());
                put_str(&mut buf, message);
            }
        }
        buf
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    /// Returns `BadFrame`-class failures exactly like [`Request::decode`].
    pub fn decode(payload: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(payload);
        let tag = r.u8().map_err(|_| bad("empty payload"))?;
        let resp = match tag {
            0x81 => Response::HelloOk { version: r.u16()? },
            0x82 => {
                let count = r.u32()? as usize;
                let mut graphs = Vec::new();
                for _ in 0..count {
                    graphs.push(r.info()?);
                }
                Response::GraphList { graphs }
            }
            0x83 => {
                let kind_byte = r.u8()?;
                let kind = QueryKind::from_u8(kind_byte).ok_or((
                    ErrorCode::UnknownKind,
                    format!("unknown query kind {kind_byte}"),
                ))?;
                Response::Answers {
                    kind,
                    epoch: r.u64()?,
                    answers: r.words()?,
                }
            }
            0x84 => Response::InfoOk { info: r.info()? },
            0x85 => {
                let queries = r.u64()?;
                let batches = r.u64()?;
                let max_batch = r.u64()?;
                let size_flushes = r.u64()?;
                let deadline_flushes = r.u64()?;
                let buckets = r.u8()? as usize;
                let mut batch_hist = Vec::with_capacity(buckets);
                for _ in 0..buckets {
                    batch_hist.push(r.u64()?);
                }
                Response::StatsOk {
                    stats: ServerStats {
                        queries,
                        batches,
                        max_batch,
                        size_flushes,
                        deadline_flushes,
                        batch_hist,
                        timeouts: r.u64()?,
                        overloads: r.u64()?,
                        panics_isolated: r.u64()?,
                    },
                }
            }
            0x86 => Response::ReloadOk { epoch: r.u64()? },
            0x87 => Response::ShutdownOk,
            0xFF => {
                let raw = r.u16()?;
                let code = ErrorCode::from_u16(raw)
                    .ok_or_else(|| bad(format!("unknown error code {raw}")))?;
                Response::Error {
                    code,
                    message: r.string()?,
                }
            }
            other => return Err(bad(format!("unknown response tag 0x{other:02x}"))),
        };
        r.finish()?;
        Ok(resp)
    }
}

// --- framing -------------------------------------------------------------

/// A frame-level read failure.
#[derive(Debug)]
pub enum FrameError {
    /// The stream ended cleanly at a frame boundary (peer hung up).
    Eof,
    /// An I/O error from the underlying stream.
    Io(std::io::Error),
    /// The length prefix exceeded [`MAX_FRAME_LEN`].
    TooLarge(u32),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Eof => write!(f, "connection closed"),
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::TooLarge(n) => {
                write!(f, "frame length {n} exceeds the {MAX_FRAME_LEN} cap")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Writes one frame: `u32` little-endian payload length, then the
/// payload.
///
/// # Panics
/// Panics if `payload` exceeds [`MAX_FRAME_LEN`] — the encoder side must
/// chunk its batches below the cap.
///
/// # Errors
/// Propagates stream I/O errors.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME_LEN)
        .expect("frame payload exceeds MAX_FRAME_LEN");
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame payload.
///
/// # Errors
/// [`FrameError::Eof`] when the stream ends *at* a frame boundary (the
/// peer is done), [`FrameError::Io`] mid-frame, [`FrameError::TooLarge`]
/// when the length prefix exceeds [`MAX_FRAME_LEN`] (nothing is
/// allocated in that case).
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_bytes[filled..]) {
            Ok(0) if filled == 0 => return Err(FrameError::Eof),
            Ok(0) => {
                return Err(FrameError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "stream ended inside a frame length prefix",
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME_LEN {
        return Err(FrameError::TooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(FrameError::Io)?;
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_tags_round_trip() {
        let reqs = [
            Request::Hello {
                version: PROTOCOL_VERSION,
            },
            Request::ListGraphs,
            Request::Query {
                graph: "road".into(),
                epoch: 3,
                kind: QueryKind::Lca,
                pairs: vec![(1, 2), (3, 4)],
            },
            Request::Info {
                graph: "kron".into(),
            },
            Request::Stats,
            Request::Reload { graph: "t".into() },
            Request::Shutdown,
        ];
        for req in reqs {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn response_tags_round_trip() {
        let info = GraphInfo {
            name: "road".into(),
            epoch: 2,
            nodes: 100,
            edges: 150,
            is_tree: false,
            num_components: 3,
            num_bridges: 7,
        };
        let resps = [
            Response::HelloOk { version: 1 },
            Response::GraphList {
                graphs: vec![info.clone()],
            },
            Response::Answers {
                kind: QueryKind::BridgeEdge,
                epoch: 9,
                answers: vec![0, 1, BRIDGE_NO_SUCH_EDGE],
            },
            Response::InfoOk { info },
            Response::StatsOk {
                stats: ServerStats {
                    queries: 10,
                    batches: 2,
                    max_batch: 8,
                    size_flushes: 1,
                    deadline_flushes: 1,
                    batch_hist: vec![0, 1, 1],
                    timeouts: 3,
                    overloads: 4,
                    panics_isolated: 5,
                },
            },
            Response::ReloadOk { epoch: 4 },
            Response::ShutdownOk,
            Response::Error {
                code: ErrorCode::NotATree,
                message: "not a tree".into(),
            },
        ];
        for resp in resps {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut payload = Request::Stats.encode();
        payload.push(0);
        let (code, _) = Request::decode(&payload).unwrap_err();
        assert_eq!(code, ErrorCode::BadFrame);
    }

    #[test]
    fn bad_magic_detected() {
        let mut payload = Request::Hello { version: 1 }.encode();
        payload[1] = b'X';
        let (code, _) = Request::decode(&payload).unwrap_err();
        assert_eq!(code, ErrorCode::BadMagic);
    }

    #[test]
    fn oversized_pair_count_rejected_before_allocation() {
        // A Query frame whose pair count claims u32::MAX pairs but whose
        // payload holds none: must error, not attempt a 32 GiB Vec.
        let mut payload = vec![0x03];
        payload.extend_from_slice(&1u16.to_le_bytes());
        payload.push(b'g');
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.push(QueryKind::Lca.as_u8());
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        let (code, _) = Request::decode(&payload).unwrap_err();
        assert_eq!(code, ErrorCode::BadFrame);
    }

    #[test]
    fn frame_round_trip_and_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abc").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), b"abc");
        assert_eq!(read_frame(&mut cursor).unwrap(), b"");
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::Eof)));
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameError::TooLarge(_))
        ));
    }

    #[test]
    fn error_codes_round_trip() {
        for raw in 1..=12u16 {
            let code = ErrorCode::from_u16(raw).unwrap();
            assert_eq!(code.as_u16(), raw);
        }
        assert_eq!(ErrorCode::from_u16(0), None);
        assert_eq!(ErrorCode::from_u16(999), None);
    }

    #[test]
    fn retry_after_hint_round_trips_through_the_message() {
        let msg = overloaded_message(4096, 4000, 7);
        assert_eq!(retry_after_ms(&msg), Some(7));
        assert_eq!(retry_after_ms("no hint here"), None);
        assert_eq!(retry_after_ms("retry_after_ms="), None);
        // The hint parses even with trailing prose after the digits.
        assert_eq!(retry_after_ms("busy; retry_after_ms=12, sorry"), Some(12));
    }
}
