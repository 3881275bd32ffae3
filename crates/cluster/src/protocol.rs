//! The length-prefixed binary wire protocol.
//!
//! Every message travels as one *frame*. The base (v1) layout:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "CRSL"
//! 4       1     version (1)
//! 5       4     payload length `len`, little-endian (1 ..= MAX_PAYLOAD)
//! 9       len   payload: tag byte + body
//! 9+len   4     CRC-32 (IEEE) of the payload, little-endian
//! ```
//!
//! Version 2 inserts a flags byte (and, when flag bit 0 is set, a 16-byte
//! trace-context extension) between the version and the length:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "CRSL"
//! 4       1     version (2)
//! 5       1     flags (bit 0: trace extension present; others reserved)
//! 6       16    trace id (u64 LE) ++ parent span id (u64 LE), if bit 0
//! then          length, payload, CRC exactly as in v1
//! ```
//!
//! Frames without a trace context are always emitted in the v1 layout —
//! byte-identical to what pre-trace peers produce and accept — so the
//! version bump only ever rides on frames that actually carry the
//! extension, and old captures/peers remain readable. The extension
//! itself sits *outside* the payload CRC: it is best-effort observability
//! metadata ([`WireTrace`]) whose corruption can at worst mislabel a
//! trace, never alter the message.
//!
//! The tag byte lives *inside* the checksummed payload, so a flipped tag
//! cannot silently turn one valid message into another. Integers are
//! little-endian; strings are length-prefixed UTF-8.
//!
//! Six entry points make up the whole codec: [`Request::encode`] and
//! [`Response::encode`] build frames, [`write_request`] /
//! [`write_response`] send one, and [`read_request`] /
//! [`read_response_into`] parse one off any [`Read`] — a socket, or a
//! byte slice in the tests, which then assert the slice is exhausted. A
//! frame header is therefore parsed in exactly one place.

use std::io::{IoSlice, Read, Write};
use std::time::Instant;

use gf256::{crc32, crc32_continue};

use crate::error::ClusterError;

/// Leading frame bytes identifying this protocol.
pub const MAGIC: [u8; 4] = *b"CRSL";
/// Base protocol version: the layout of every frame without a trace
/// extension.
pub const VERSION: u8 = 1;
/// Extended protocol version carrying a flags byte and optional trace
/// context; only emitted for frames that have one.
pub const TRACED_VERSION: u8 = 2;
/// Upper bound on a payload, rejecting absurd length prefixes before
/// allocation (a 256 MiB block is far beyond anything this workspace
/// stripes).
pub const MAX_PAYLOAD: usize = 256 << 20;
/// Fixed per-frame cost of the base layout: magic + version + length +
/// trailing CRC. A v2 frame with a trace extension adds
/// `1 + TRACE_EXT_BYTES` on top.
pub const FRAME_OVERHEAD: usize = 4 + 1 + 4 + 4;
/// Size of the optional trace-context header extension.
pub const TRACE_EXT_BYTES: usize = 16;

/// Flags-byte bit marking a trace extension (v2 frames only).
const FLAG_TRACE: u8 = 0x01;

// Request tags (0x01..) and response tags (0x81..) share the payload's
// first byte; the two decoders each reject the other family. 0x08 and
// 0x09 are retired (the repair-status and manifest reads, whose data
// `Stats` and the metadata layer serve): never reuse them, an old peer
// would misread the new op.
const TAG_PING: u8 = 0x01;
const TAG_PUT_BLOCK: u8 = 0x02;
const TAG_GET_BLOCK: u8 = 0x03;
const TAG_GET_UNITS: u8 = 0x04;
const TAG_REPAIR_READ: u8 = 0x05;
const TAG_STAT: u8 = 0x06;
const TAG_STATS: u8 = 0x07;
const TAG_WRITE_DELTA: u8 = 0x0A;
const TAG_DELETE_BLOCK: u8 = 0x0B;
const TAG_PONG: u8 = 0x81;
const TAG_DONE: u8 = 0x82;
const TAG_DATA: u8 = 0x83;
const TAG_ERROR: u8 = 0xEE;

/// The trace-context frame-header extension: the client's raw
/// `(trace, parent span)` ids, so spans a datanode opens while serving
/// the request join the client's trace. Carried outside the payload CRC
/// — it is best-effort observability metadata and never alters the
/// message it rides on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireTrace {
    /// Trace id (nonzero).
    pub trace: u64,
    /// The sender's current span id (0 at a trace root).
    pub span: u64,
}

impl WireTrace {
    /// The extension `ctx` stamps on an outgoing frame.
    pub fn from_ctx(ctx: &telemetry::trace::TraceCtx) -> WireTrace {
        let (trace, span) = ctx.wire();
        WireTrace { trace, span }
    }

    fn to_bytes(self) -> [u8; TRACE_EXT_BYTES] {
        let mut b = [0u8; TRACE_EXT_BYTES];
        b[..8].copy_from_slice(&self.trace.to_le_bytes());
        b[8..].copy_from_slice(&self.span.to_le_bytes());
        b
    }

    fn from_bytes(b: &[u8; TRACE_EXT_BYTES]) -> WireTrace {
        WireTrace {
            trace: u64::from_le_bytes(b[..8].try_into().expect("8 bytes")),
            span: u64::from_le_bytes(b[8..].try_into().expect("8 bytes")),
        }
    }
}

/// Addresses one stored block: `(file, stripe, block-in-stripe)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BlockId {
    /// File name (no path separators; at most 255 bytes).
    pub file: String,
    /// Stripe index within the file.
    pub stripe: u32,
    /// Block index within the stripe.
    pub block: u32,
}

impl BlockId {
    /// Validates the file-name component: non-empty, at most 255 bytes,
    /// and free of path separators, NUL, and dot-dot — a `BlockId` becomes
    /// part of an on-disk file name on the datanode.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Protocol`] describing the violation.
    pub fn validate(&self) -> Result<(), ClusterError> {
        let f = &self.file;
        let bad = |why: &str| {
            Err(ClusterError::Protocol {
                reason: format!("bad file name {f:?}: {why}"),
            })
        };
        if f.is_empty() {
            return bad("empty");
        }
        if f.len() > 255 {
            return bad("longer than 255 bytes");
        }
        if f.contains(['/', '\\', '\0']) {
            return bad("contains a path separator or NUL");
        }
        if f == "." || f == ".." {
            return bad("reserved");
        }
        Ok(())
    }
}

/// A client → datanode message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Store a block (overwrites); answered with [`Response::Done`].
    PutBlock {
        /// Which block to store.
        id: BlockId,
        /// The block bytes.
        data: Vec<u8>,
    },
    /// Fetch a whole block; answered with [`Response::Data`].
    GetBlock {
        /// Which block.
        id: BlockId,
    },
    /// Fetch selected stored units of a block — the parallel-read
    /// primitive: with unit width `w = block_len / sub`, the response
    /// carries `units.len() · w` bytes in request order.
    GetUnits {
        /// Which block.
        id: BlockId,
        /// Units per block of the file's code; the datanode derives the
        /// unit width from it.
        sub: u32,
        /// Stored unit indices (`< sub`), in the order wanted back.
        units: Vec<u32>,
    },
    /// Helper-side repair read: the datanode multiplies its block by the
    /// shipped `rows × cols` GF(256) matrix and returns the compressed
    /// `rows · w`-byte payload — this is what realizes the MSR
    /// `d/(d−k+1)` repair-bandwidth saving *on the wire*.
    RepairRead {
        /// Which block to compress.
        id: BlockId,
        /// Matrix rows (`β`, units sent back).
        rows: u32,
        /// Matrix columns (must equal the code's `sub`).
        cols: u32,
        /// Row-major GF(256) coefficients, `rows · cols` bytes.
        coeffs: Vec<u8>,
    },
    /// Presence probe for one block; answered with [`Response::Data`]
    /// holding `len (u32) ++ block digest (u32)` — the digest of the
    /// block file's footer, every chunk verified — or [`Response::Error`]
    /// when absent or quarantined.
    Stat {
        /// Which block.
        id: BlockId,
    },
    /// Scrape the serving node's full telemetry registry; answered with
    /// [`Response::Data`] holding an [`encode_stats`]-serialized
    /// snapshot — the ten `repair.*` totals included (see
    /// [`RepairStatusReport::from_snapshot`](crate::repair::RepairStatusReport::from_snapshot)).
    Stats,
    /// In-place delta update of one stored block — the write-path dual of
    /// [`Request::RepairRead`]: instead of shipping the whole rewritten
    /// block, the client ships only the unit-aligned *message deltas* of
    /// the edit plus, per touched local unit of this block, one GF(256)
    /// coefficient per delta. The datanode folds `Σ coeff · Δ` into its
    /// stored bytes locally ([`erasure::apply_block_delta`]) — it never
    /// learns the generator matrix — and answers [`Response::Done`]. The
    /// same op updates data and parity blocks; only the coefficients
    /// differ.
    WriteDelta {
        /// Which block to update.
        id: BlockId,
        /// Width of one unit in bytes; every delta is this long.
        unit_bytes: u32,
        /// The edit's message deltas (new ⊕ old), unit-aligned.
        deltas: Vec<Vec<u8>>,
        /// Per touched local unit of this block: `(unit index, one
        /// coefficient byte per delta, in delta order)`.
        rows: Vec<(u32, Vec<u8>)>,
    },
    /// Remove one stored block; answered with [`Response::Done`] whether
    /// or not the block existed (deletes are idempotent).
    DeleteBlock {
        /// Which block.
        id: BlockId,
    },
}

/// A datanode → client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// Success without a payload.
    Done,
    /// Success with a payload (block bytes, unit bytes, repair payload, or
    /// stat summary).
    Data(Vec<u8>),
    /// Failure, with a human-readable reason.
    Error(String),
}

// ---------------------------------------------------------------------
// Payload primitives.
// ---------------------------------------------------------------------

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

fn put_block_id(out: &mut Vec<u8>, id: &BlockId) {
    put_str(out, &id.file);
    put_u32(out, id.stripe);
    put_u32(out, id.block);
}

/// Writes stripe → node rows, each as `u32 width ++ u32 node ids`; the
/// row count travels in whatever field the caller's layout gives it.
pub(crate) fn put_rows(out: &mut Vec<u8>, rows: &[Vec<usize>]) {
    for row in rows {
        put_u32(out, row.len() as u32);
        for &node in row {
            put_u32(out, node as u32);
        }
    }
}

/// Decode bounds on [`Reader::rows`]: a hostile or corrupt count must not
/// allocate absurd amounts — sanity caps on top of the frame's or
/// record's CRC, not the real validation.
const MAX_STRIPES: usize = 1 << 22;
const MAX_ROW: usize = 4096;

/// Forward-only cursor over one payload — a wire message body or a
/// metadata-log record. Every accessor fails past the end.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    /// Bytes consumed so far.
    pub(crate) pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn err<T>(&self, why: &str) -> Result<T, ClusterError> {
        Err(ClusterError::Protocol {
            reason: format!("{why} at payload offset {}", self.pos),
        })
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], ClusterError> {
        if self.buf.len() - self.pos < n {
            return self.err("truncated field");
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, ClusterError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, ClusterError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, ClusterError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, ClusterError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn bytes(&mut self) -> Result<Vec<u8>, ClusterError> {
        let len = self.u32()? as usize;
        if len > MAX_PAYLOAD {
            return self.err("oversized byte field");
        }
        Ok(self.take(len)?.to_vec())
    }

    pub(crate) fn str(&mut self) -> Result<String, ClusterError> {
        let raw = self.bytes()?;
        String::from_utf8(raw).or_else(|_| self.err("invalid UTF-8 string"))
    }

    /// A string behind a `u16` length — the metadata log's form.
    pub(crate) fn str16(&mut self) -> Result<String, ClusterError> {
        let len = self.u16()? as usize;
        String::from_utf8(self.take(len)?.to_vec()).or_else(|_| self.err("invalid UTF-8 string"))
    }

    /// `count` stripe → node rows as [`put_rows`] wrote them.
    pub(crate) fn rows(&mut self, count: usize) -> Result<Vec<Vec<usize>>, ClusterError> {
        if count > MAX_STRIPES {
            return self.err(&format!("{count} stripe rows claimed"));
        }
        let mut rows = Vec::with_capacity(count);
        for s in 0..count {
            let width = self.u32()? as usize;
            if width > MAX_ROW {
                return self.err(&format!("stripe row {s} claims {width} nodes"));
            }
            let mut row = Vec::with_capacity(width);
            for _ in 0..width {
                row.push(self.u32()? as usize);
            }
            rows.push(row);
        }
        Ok(rows)
    }

    fn block_id(&mut self) -> Result<BlockId, ClusterError> {
        let id = BlockId {
            file: self.str()?,
            stripe: self.u32()?,
            block: self.u32()?,
        };
        id.validate()?;
        Ok(id)
    }

    pub(crate) fn finish(&self) -> Result<(), ClusterError> {
        if self.pos != self.buf.len() {
            return self.err("trailing bytes after message");
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Framing.
// ---------------------------------------------------------------------

/// Payload room a frame reserves beyond its bulk bytes: the tag, a block
/// id with the longest file name, and a few `u32` fields. A payload that
/// outgrows it only costs a reallocation.
const SMALL_FIELDS: usize = 1 + (4 + 255 + 4 + 4) + 4 * 4;

/// Builds a complete frame in one buffer: the header — the v1 layout
/// when no trace context rides along, the v2 flags + extension layout
/// when one does — then the payload (tag + body) `encode` appends after
/// it, then the payload length patched in and its CRC appended. `bulk`
/// is the payload's variable-length bytes, so a block-sized payload is
/// written once, into a buffer that is not reallocated.
fn frame(trace: Option<WireTrace>, bulk: usize, encode: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::with_capacity(
        FRAME_OVERHEAD + SMALL_FIELDS + bulk + trace.map_or(0, |_| 1 + TRACE_EXT_BYTES),
    );
    put_header(&mut out, trace, 0); // the length, known once the payload is
    let start = out.len();
    encode(&mut out);
    let len = out.len() - start;
    debug_assert!(len > 0 && len <= MAX_PAYLOAD);
    out[start - 4..start].copy_from_slice(&(len as u32).to_le_bytes());
    let crc = crc32(&out[start..]);
    put_u32(&mut out, crc);
    out
}

/// Appends a frame header: the magic, then the v1 version byte when no
/// trace context rides along, or the v2 version, flags and extension when
/// one does, then the payload length. The one place the header layout is
/// written.
fn put_header(out: &mut Vec<u8>, trace: Option<WireTrace>, payload_len: usize) {
    out.extend_from_slice(&MAGIC);
    match trace {
        None => out.push(VERSION),
        Some(t) => {
            out.push(TRACED_VERSION);
            out.push(FLAG_TRACE);
            out.extend_from_slice(&t.to_bytes());
        }
    }
    put_u32(out, payload_len as u32);
}

/// Bytes a `Data` payload spends before its data: the tag and the `u32`
/// data length.
const DATA_PREFIX: usize = 1 + 4;

/// Per-frame receive timings, split at the first byte: how long the
/// reader *waited* for the peer to start answering vs how long the body
/// took to *arrive*.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecvTiming {
    /// Nanoseconds from entering the read to the first header byte.
    pub wait_ns: u64,
    /// Nanoseconds from the first header byte to the last CRC byte.
    pub recv_ns: u64,
}

/// A frame header as read off a stream: everything before the payload.
struct Header {
    /// Payload length, already bounded to `1 ..= MAX_PAYLOAD`.
    len: usize,
    /// Wire bytes of the header (magic through length).
    wire: usize,
    /// Trace extension, if the frame carried one.
    trace: Option<WireTrace>,
    /// When the read was entered, and when its first byte arrived.
    entered: Instant,
    first_byte_at: Instant,
}

impl Header {
    /// Wait/receive split of a frame whose last byte was just read.
    fn timing(&self) -> RecvTiming {
        let nanos = |d: std::time::Duration| d.as_nanos().min(u64::MAX as u128) as u64;
        RecvTiming {
            wait_ns: nanos(self.first_byte_at.duration_since(self.entered)),
            recv_ns: nanos(self.first_byte_at.elapsed()),
        }
    }

    /// Total wire bytes of the frame: header, payload and CRC.
    fn frame_bytes(&self) -> usize {
        self.wire + self.len + 4
    }
}

/// Reads one frame header. `Ok(None)` on a clean EOF at a frame boundary
/// (the peer closed the connection). The only code that knows the header
/// layout on the read side, behind both stream readers.
fn read_header(r: &mut impl Read) -> Result<Option<Header>, ClusterError> {
    let entered = Instant::now();
    // Read the first byte separately to distinguish clean EOF from a
    // truncated frame.
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let first_byte_at = Instant::now();
    // Rest of the magic plus the version byte.
    let mut head = [0u8; 4];
    r.read_exact(&mut head)?;
    if first[0] != MAGIC[0] || head[..3] != MAGIC[1..] {
        return Err(ClusterError::Protocol {
            reason: "bad magic".into(),
        });
    }
    let mut wire = 5usize;
    let trace = match head[3] {
        VERSION => None,
        TRACED_VERSION => {
            let mut flags = [0u8; 1];
            r.read_exact(&mut flags)?;
            wire += 1;
            if flags[0] & !FLAG_TRACE != 0 {
                return Err(ClusterError::Protocol {
                    reason: format!("unknown header flags 0x{:02x}", flags[0]),
                });
            }
            if flags[0] & FLAG_TRACE != 0 {
                let mut ext = [0u8; TRACE_EXT_BYTES];
                r.read_exact(&mut ext)?;
                wire += TRACE_EXT_BYTES;
                Some(WireTrace::from_bytes(&ext))
            } else {
                None
            }
        }
        v => {
            return Err(ClusterError::Protocol {
                reason: format!("unsupported protocol version {v}"),
            })
        }
    };
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    wire += 4;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len == 0 || len > MAX_PAYLOAD {
        return Err(ClusterError::Protocol {
            reason: format!("bad payload length {len}"),
        });
    }
    Ok(Some(Header {
        len,
        wire,
        trace,
        entered,
        first_byte_at,
    }))
}

/// Reads the frame's trailing CRC and holds it to `crc`, the checksum of
/// the payload as received.
fn check_crc(r: &mut impl Read, crc: u32) -> Result<(), ClusterError> {
    let mut sent = [0u8; 4];
    r.read_exact(&mut sent)?;
    if crc != u32::from_le_bytes(sent) {
        return Err(ClusterError::Protocol {
            reason: "payload CRC mismatch".into(),
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Requests.
// ---------------------------------------------------------------------

impl Request {
    /// Whether executing this request twice leaves the node as executing
    /// it once does — what lets a client re-send it when it cannot tell
    /// whether the first copy was executed. Every op but
    /// [`Request::WriteDelta`]: a delta XORed into a block a second time
    /// undoes the first.
    pub fn is_idempotent(&self) -> bool {
        !matches!(self, Request::WriteDelta { .. })
    }

    /// Encodes this request as one complete frame, in the v2 layout
    /// carrying `trace` when given, the v1 layout otherwise.
    pub fn encode(&self, trace: Option<WireTrace>) -> Vec<u8> {
        let bulk = match self {
            Request::PutBlock { data, .. } => data.len(),
            Request::GetUnits { units, .. } => 4 * units.len(),
            Request::RepairRead { coeffs, .. } => coeffs.len(),
            Request::WriteDelta { deltas, rows, .. } => {
                deltas.iter().map(Vec::len).sum::<usize>()
                    + rows.iter().map(|(_, c)| 4 + c.len()).sum::<usize>()
            }
            _ => 0,
        };
        frame(trace, bulk, |p| match self {
            Request::Ping => p.push(TAG_PING),
            Request::PutBlock { id, data } => {
                p.push(TAG_PUT_BLOCK);
                put_block_id(p, id);
                put_bytes(p, data);
            }
            Request::GetBlock { id } => {
                p.push(TAG_GET_BLOCK);
                put_block_id(p, id);
            }
            Request::GetUnits { id, sub, units } => {
                p.push(TAG_GET_UNITS);
                put_block_id(p, id);
                put_u32(p, *sub);
                put_u32(p, units.len() as u32);
                for &u in units {
                    put_u32(p, u);
                }
            }
            Request::RepairRead {
                id,
                rows,
                cols,
                coeffs,
            } => {
                p.push(TAG_REPAIR_READ);
                put_block_id(p, id);
                put_u32(p, *rows);
                put_u32(p, *cols);
                put_bytes(p, coeffs);
            }
            Request::Stat { id } => {
                p.push(TAG_STAT);
                put_block_id(p, id);
            }
            Request::Stats => p.push(TAG_STATS),
            Request::WriteDelta {
                id,
                unit_bytes,
                deltas,
                rows,
            } => {
                p.push(TAG_WRITE_DELTA);
                put_block_id(p, id);
                put_u32(p, *unit_bytes);
                // Deltas and coefficient rows have known widths
                // (`unit_bytes` and `deltas.len()` respectively), so they
                // travel raw, without per-item length prefixes — the whole
                // point of this op is a small wire footprint.
                put_u32(p, deltas.len() as u32);
                for d in deltas {
                    p.extend_from_slice(d);
                }
                put_u32(p, rows.len() as u32);
                for (unit, coeffs) in rows {
                    put_u32(p, *unit);
                    p.extend_from_slice(coeffs);
                }
            }
            Request::DeleteBlock { id } => {
                p.push(TAG_DELETE_BLOCK);
                put_block_id(p, id);
            }
        })
    }

    fn from_payload(payload: &[u8]) -> Result<Self, ClusterError> {
        let mut r = Reader::new(payload);
        let req = match r.u8()? {
            TAG_PING => Request::Ping,
            TAG_PUT_BLOCK => Request::PutBlock {
                id: r.block_id()?,
                data: r.bytes()?,
            },
            TAG_GET_BLOCK => Request::GetBlock { id: r.block_id()? },
            TAG_GET_UNITS => {
                let id = r.block_id()?;
                let sub = r.u32()?;
                let count = r.u32()? as usize;
                if sub == 0 || count > sub as usize {
                    return Err(ClusterError::Protocol {
                        reason: format!("GetUnits wants {count} of sub={sub} units"),
                    });
                }
                let mut units = Vec::with_capacity(count);
                for _ in 0..count {
                    let u = r.u32()?;
                    if u >= sub {
                        return Err(ClusterError::Protocol {
                            reason: format!("unit {u} out of range 0..{sub}"),
                        });
                    }
                    units.push(u);
                }
                Request::GetUnits { id, sub, units }
            }
            TAG_REPAIR_READ => {
                let id = r.block_id()?;
                let rows = r.u32()?;
                let cols = r.u32()?;
                let coeffs = r.bytes()?;
                if rows == 0 || cols == 0 || coeffs.len() != rows as usize * cols as usize {
                    return Err(ClusterError::Protocol {
                        reason: format!(
                            "RepairRead matrix {rows}x{cols} with {} coefficient bytes",
                            coeffs.len()
                        ),
                    });
                }
                Request::RepairRead {
                    id,
                    rows,
                    cols,
                    coeffs,
                }
            }
            TAG_STAT => Request::Stat { id: r.block_id()? },
            TAG_STATS => Request::Stats,
            TAG_WRITE_DELTA => {
                let id = r.block_id()?;
                let unit_bytes = r.u32()?;
                let ndeltas = r.u32()? as usize;
                if unit_bytes == 0
                    || ndeltas == 0
                    || ndeltas.saturating_mul(unit_bytes as usize) > MAX_PAYLOAD
                {
                    return Err(ClusterError::Protocol {
                        reason: format!("WriteDelta with {ndeltas} deltas of {unit_bytes} bytes"),
                    });
                }
                let mut deltas = Vec::with_capacity(ndeltas);
                for _ in 0..ndeltas {
                    deltas.push(r.take(unit_bytes as usize)?.to_vec());
                }
                let nrows = r.u32()? as usize;
                if nrows == 0 || nrows > MAX_PAYLOAD / ndeltas.max(4) {
                    return Err(ClusterError::Protocol {
                        reason: format!("WriteDelta with {nrows} coefficient rows"),
                    });
                }
                let mut rows = Vec::with_capacity(nrows);
                for _ in 0..nrows {
                    let unit = r.u32()?;
                    rows.push((unit, r.take(ndeltas)?.to_vec()));
                }
                Request::WriteDelta {
                    id,
                    unit_bytes,
                    deltas,
                    rows,
                }
            }
            TAG_DELETE_BLOCK => Request::DeleteBlock { id: r.block_id()? },
            tag => {
                return Err(ClusterError::Protocol {
                    reason: format!("unknown request tag 0x{tag:02x}"),
                })
            }
        };
        r.finish()?;
        Ok(req)
    }
}

/// Writes one untraced request to a stream, returning the wire bytes. (A
/// traced frame is [`Request::encode`] with a trace, written as is.)
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_request(w: &mut impl Write, req: &Request) -> Result<usize, ClusterError> {
    let bytes = req.encode(None);
    w.write_all(&bytes)?;
    w.flush()?;
    Ok(bytes.len())
}

/// Reads one request from a stream; `Ok(None)` means the peer closed the
/// connection cleanly. On success also returns the wire bytes consumed
/// and the frame's trace-context extension (`None` for v1 frames and
/// untraced v2 frames), so a server can adopt the caller's trace.
///
/// # Errors
///
/// Returns [`ClusterError::Protocol`] on malformed frames and
/// [`ClusterError::Io`] on socket failures (including read timeouts and a
/// frame cut short).
pub fn read_request(
    r: &mut impl Read,
) -> Result<Option<(Request, usize, Option<WireTrace>)>, ClusterError> {
    let Some(head) = read_header(r)? else {
        return Ok(None);
    };
    let mut payload = vec![0u8; head.len];
    r.read_exact(&mut payload)?;
    check_crc(r, crc32(&payload))?;
    let request = Request::from_payload(&payload)?;
    Ok(Some((request, head.frame_bytes(), head.trace)))
}

// ---------------------------------------------------------------------
// Responses.
// ---------------------------------------------------------------------

impl Response {
    /// Encodes this response as one complete frame.
    pub fn encode(&self) -> Vec<u8> {
        let bulk = match self {
            Response::Data(data) => data.len(),
            Response::Error(msg) => msg.len(),
            Response::Pong | Response::Done => 0,
        };
        // Responses never carry the trace extension: the client already
        // holds the context, so echoing it back would be dead weight.
        frame(None, bulk, |p| match self {
            Response::Pong => p.push(TAG_PONG),
            Response::Done => p.push(TAG_DONE),
            Response::Data(data) => {
                p.push(TAG_DATA);
                put_bytes(p, data);
            }
            Response::Error(msg) => {
                p.push(TAG_ERROR);
                put_str(p, msg);
            }
        })
    }

    fn from_payload(payload: &[u8]) -> Result<Self, ClusterError> {
        let mut r = Reader::new(payload);
        let resp = match r.u8()? {
            TAG_PONG => Response::Pong,
            TAG_DONE => Response::Done,
            TAG_DATA => Response::Data(r.bytes()?),
            TAG_ERROR => Response::Error(r.str()?),
            tag => {
                return Err(ClusterError::Protocol {
                    reason: format!("unknown response tag 0x{tag:02x}"),
                })
            }
        };
        r.finish()?;
        Ok(resp)
    }
}

/// Writes one response to a stream, returning the wire bytes — exactly
/// the bytes of [`Response::encode`]. A [`Response::Data`] is not framed
/// into a buffer first: its header and payload prefix, its data (borrowed
/// from the response) and its CRC, computed over the prefix and then
/// continued over the data, go out as one vectored write.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_response(w: &mut impl Write, resp: &Response) -> Result<usize, ClusterError> {
    let Response::Data(data) = resp else {
        let bytes = resp.encode();
        w.write_all(&bytes)?;
        w.flush()?;
        return Ok(bytes.len());
    };
    let payload_len = DATA_PREFIX + data.len();
    debug_assert!(payload_len <= MAX_PAYLOAD);
    let mut head = Vec::with_capacity(FRAME_OVERHEAD + DATA_PREFIX);
    put_header(&mut head, None, payload_len);
    let prefix_at = head.len();
    head.push(TAG_DATA);
    put_u32(&mut head, data.len() as u32);
    let crc = crc32_continue(crc32(&head[prefix_at..]), data).to_le_bytes();
    let mut parts = [IoSlice::new(&head), IoSlice::new(data), IoSlice::new(&crc)];
    write_all_vectored(w, &mut parts)?;
    w.flush()?;
    Ok(head.len() + data.len() + crc.len())
}

/// `write_all` over several buffers: `write_vectored` until every byte of
/// `parts` is written, resuming mid-buffer after a short write.
fn write_all_vectored(w: &mut impl Write, mut parts: &mut [IoSlice<'_>]) -> std::io::Result<()> {
    IoSlice::advance_slices(&mut parts, 0);
    while !parts.is_empty() {
        match w.write_vectored(parts) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut parts, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Reads one response from a stream, using a caller-owned scratch buffer
/// for the frame payload, so a long-lived connection (the client's
/// per-node `Link` entries) reads small responses without a fresh
/// per-frame allocation; the scratch is an opaque workspace, only its
/// capacity carries over. A `Data` payload's bytes bypass it: they are
/// read once, into the `Vec` the response returns, and the frame CRC is
/// continued over them from the payload prefix that went through the
/// scratch. `Ok(None)` means the peer closed the connection
/// cleanly. On success also returns the wire bytes consumed and the
/// wait/receive split of the read ([`RecvTiming`]) — the raw material for
/// the client's per-phase latency histograms.
///
/// # Errors
///
/// Returns [`ClusterError::Protocol`] on malformed frames and
/// [`ClusterError::Io`] on socket failures.
pub fn read_response_into(
    r: &mut impl Read,
    scratch: &mut Vec<u8>,
) -> Result<Option<(Response, usize, RecvTiming)>, ClusterError> {
    let Some(head) = read_header(r)? else {
        return Ok(None);
    };
    // The payload's first bytes say whether it is a well-formed `Data`
    // (`tag ‖ u32 data length`, the length filling the payload): then
    // the data lands once, in the exactly-sized `Vec` it is returned in,
    // and the CRC is continued over it. Anything else — a small reply, or
    // a malformed `Data` the parser must reject as before — is read whole
    // into the scratch.
    let prefix = DATA_PREFIX.min(head.len);
    scratch.resize(prefix, 0);
    r.read_exact(scratch)?;
    let data_len = head.len - prefix;
    let response = if scratch[0] == TAG_DATA
        && prefix == DATA_PREFIX
        && scratch[1..] == (data_len as u32).to_le_bytes()
    {
        let mut data = Vec::with_capacity(data_len);
        r.take(data_len as u64).read_to_end(&mut data)?;
        if data.len() != data_len {
            return Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof).into());
        }
        check_crc(r, crc32_continue(crc32(scratch), &data))?;
        Response::Data(data)
    } else {
        scratch.resize(head.len, 0);
        r.read_exact(&mut scratch[prefix..])?;
        check_crc(r, crc32(scratch))?;
        Response::from_payload(scratch)?
    };
    Ok(Some((response, head.frame_bytes(), head.timing())))
}

// ---------------------------------------------------------------------
// Stats snapshots on the wire.
// ---------------------------------------------------------------------

/// Upper bound on entries per section of a stats snapshot — far above
/// any real registry, small enough to reject allocation-bomb counts.
const MAX_STATS_ENTRIES: usize = 1 << 20;

/// Serializes a telemetry registry snapshot as the [`Response::Data`]
/// payload answering [`Request::Stats`]: three length-prefixed sections
/// (counters, gauges, histograms), entries as length-prefixed names plus
/// little-endian values; histograms ship `count/sum/min/max` and their
/// sparse `(bucket index, count)` pairs so the scraper can merge nodes
/// bucket-wise without losing tail resolution.
pub fn encode_stats(snap: &telemetry::Snapshot) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, snap.counters.len() as u32);
    for (name, v) in &snap.counters {
        put_str(&mut out, name);
        out.extend_from_slice(&v.to_le_bytes());
    }
    put_u32(&mut out, snap.gauges.len() as u32);
    for (name, v) in &snap.gauges {
        put_str(&mut out, name);
        out.extend_from_slice(&v.to_le_bytes());
    }
    put_u32(&mut out, snap.histograms.len() as u32);
    for (name, h) in &snap.histograms {
        put_str(&mut out, name);
        for v in [h.count, h.sum, h.min, h.max] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        put_u32(&mut out, h.buckets.len() as u32);
        for &(i, c) in &h.buckets {
            put_u32(&mut out, i);
            out.extend_from_slice(&c.to_le_bytes());
        }
    }
    out
}

/// Decodes an [`encode_stats`] payload back into a snapshot.
///
/// # Errors
///
/// Returns [`ClusterError::Protocol`] on truncation, trailing bytes,
/// absurd entry counts, or histogram buckets that are out of range or
/// not strictly ascending (the invariants the merge path relies on).
pub fn decode_stats(buf: &[u8]) -> Result<telemetry::Snapshot, ClusterError> {
    let section = |r: &mut Reader<'_>, what: &str| -> Result<usize, ClusterError> {
        let n = r.u32()? as usize;
        if n > MAX_STATS_ENTRIES {
            return Err(ClusterError::Protocol {
                reason: format!("stats snapshot claims {n} {what}"),
            });
        }
        Ok(n)
    };
    let mut r = Reader::new(buf);
    let mut counters = Vec::new();
    for _ in 0..section(&mut r, "counters")? {
        let name = r.str()?;
        let v = r.u64()?;
        counters.push((name, v));
    }
    let mut gauges = Vec::new();
    for _ in 0..section(&mut r, "gauges")? {
        let name = r.str()?;
        let v = r.u64()? as i64;
        gauges.push((name, v));
    }
    let mut histograms = Vec::new();
    for _ in 0..section(&mut r, "histograms")? {
        let name = r.str()?;
        let count = r.u64()?;
        let sum = r.u64()?;
        let min = r.u64()?;
        let max = r.u64()?;
        let nb = r.u32()? as usize;
        if nb > telemetry::snapshot::BUCKETS {
            return Err(ClusterError::Protocol {
                reason: format!("stats histogram {name:?} claims {nb} buckets"),
            });
        }
        let mut buckets = Vec::with_capacity(nb);
        let mut prev: Option<u32> = None;
        for _ in 0..nb {
            let i = r.u32()?;
            let c = r.u64()?;
            if i as usize >= telemetry::snapshot::BUCKETS || prev.is_some_and(|p| i <= p) {
                return Err(ClusterError::Protocol {
                    reason: format!("stats histogram {name:?} has bad bucket index {i}"),
                });
            }
            prev = Some(i);
            buckets.push((i, c));
        }
        histograms.push((
            name,
            telemetry::HistogramSnapshot {
                count,
                sum,
                min,
                max,
                buckets,
            },
        ));
    }
    r.finish()?;
    Ok(telemetry::Snapshot {
        counters,
        gauges,
        histograms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn id(file: &str, stripe: u32, block: u32) -> BlockId {
        BlockId {
            file: file.into(),
            stripe,
            block,
        }
    }

    /// [`read_request`] over a slice that must hold exactly one frame: a
    /// slice running dry or trailing bytes is an error.
    fn decode_request(bytes: &[u8]) -> Result<(Request, Option<WireTrace>), ClusterError> {
        let mut rest = bytes;
        let decoded = read_request(&mut rest)?;
        match decoded {
            Some((req, wire, trace)) if rest.is_empty() => {
                assert_eq!(wire, bytes.len(), "wire bytes account the whole frame");
                Ok((req, trace))
            }
            _ => Err(ClusterError::Protocol {
                reason: format!("not exactly one frame in {} bytes", bytes.len()),
            }),
        }
    }

    /// [`read_response_into`] over a slice that must hold exactly one frame.
    fn decode_response(bytes: &[u8]) -> Result<Response, ClusterError> {
        let mut rest = bytes;
        let decoded = read_response_into(&mut rest, &mut Vec::new())?;
        match decoded {
            Some((resp, wire, _)) if rest.is_empty() => {
                assert_eq!(wire, bytes.len(), "wire bytes account the whole frame");
                Ok(resp)
            }
            _ => Err(ClusterError::Protocol {
                reason: format!("not exactly one frame in {} bytes", bytes.len()),
            }),
        }
    }

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::PutBlock {
                id: id("a.bin", 0, 3),
                data: vec![1, 2, 3, 4, 5],
            },
            Request::GetBlock { id: id("f", 7, 0) },
            Request::GetUnits {
                id: id("data.enc", 2, 8),
                sub: 6,
                units: vec![0, 2, 5],
            },
            Request::RepairRead {
                id: id("x", 1, 1),
                rows: 2,
                cols: 3,
                coeffs: vec![1, 2, 3, 4, 5, 6],
            },
            Request::Stat { id: id("s", 0, 0) },
            Request::Stats,
            Request::WriteDelta {
                id: id("mut.bin", 4, 9),
                unit_bytes: 4,
                deltas: vec![vec![1, 2, 3, 4], vec![5, 6, 7, 8]],
                rows: vec![(0, vec![3, 1]), (5, vec![0, 7])],
            },
            Request::DeleteBlock {
                id: id("gone", 2, 1),
            },
        ]
    }

    #[test]
    fn request_roundtrip_all_variants() {
        for req in sample_requests() {
            let bytes = req.encode(None);
            assert_eq!(decode_request(&bytes).unwrap(), (req.clone(), None));
            // `write_request` writes exactly the untraced frame.
            let mut written = Vec::new();
            assert_eq!(write_request(&mut written, &req).unwrap(), bytes.len());
            assert_eq!(written, bytes);
        }
    }

    #[test]
    fn response_roundtrip_all_variants() {
        for resp in [
            Response::Pong,
            Response::Done,
            Response::Data(vec![9u8; 100]),
            Response::Error("nope".into()),
        ] {
            let bytes = resp.encode();
            assert_eq!(decode_response(&bytes).unwrap(), resp);
            let mut written = Vec::new();
            assert_eq!(write_response(&mut written, &resp).unwrap(), bytes.len());
            assert_eq!(written, bytes);
        }
    }

    #[test]
    fn scratch_is_reused_across_frames() {
        let responses = [
            Response::Pong,
            Response::Data(vec![7u8; 300]),
            Response::Data(vec![1u8; 4]), // shrinks: stale scratch must not leak
            Response::Error("gone".into()),
        ];
        let mut stream = Vec::new();
        for resp in &responses {
            stream.extend_from_slice(&resp.encode());
        }
        let mut scratch = Vec::new();
        let mut cursor = &stream[..];
        for resp in &responses {
            let (got, wire, _) = read_response_into(&mut cursor, &mut scratch)
                .unwrap()
                .unwrap();
            assert_eq!(&got, resp);
            assert_eq!(wire, resp.encode().len());
        }
        assert!(read_response_into(&mut cursor, &mut scratch)
            .unwrap()
            .is_none());
    }

    #[test]
    fn clean_eof_is_none_and_mid_frame_eof_is_error() {
        let mut empty: &[u8] = &[];
        assert!(read_request(&mut empty).unwrap().is_none());
        let bytes = Request::Ping.encode(None);
        let mut cut = &bytes[..bytes.len() - 1];
        assert!(read_request(&mut cut).is_err(), "truncated frame");
    }

    #[test]
    fn version_and_magic_are_enforced() {
        let mut bytes = Request::Ping.encode(None);
        bytes[4] = 3; // future version beyond both supported layouts
        match decode_request(&bytes) {
            Err(ClusterError::Protocol { reason }) => assert!(reason.contains("version")),
            other => panic!("expected protocol error, got {other:?}"),
        }
        let mut bytes = Request::Ping.encode(None);
        bytes[0] = b'X';
        assert!(decode_request(&bytes).is_err());
    }

    #[test]
    fn v1_frames_without_trace_extension_still_accepted() {
        // Untraced encodes stay on the v1 layout — byte-identical to what
        // a pre-trace peer emits — and decode with no trace attached.
        let req = Request::GetUnits {
            id: id("old.bin", 4, 1),
            sub: 6,
            units: vec![1, 3],
        };
        let bytes = req.encode(None);
        assert_eq!(bytes[4], VERSION, "untraced frames keep the v1 layout");
        let payload = u32::from_le_bytes(bytes[5..9].try_into().unwrap()) as usize;
        assert_eq!(bytes.len(), FRAME_OVERHEAD + payload);
        assert_eq!(decode_request(&bytes).unwrap(), (req, None));
    }

    #[test]
    fn traced_frames_use_v2_and_roundtrip() {
        let req = Request::GetBlock { id: id("t", 9, 2) };
        let wt = WireTrace {
            trace: 0x1122_3344_5566_7788,
            span: 42,
        };
        let bytes = req.encode(Some(wt));
        assert_eq!(bytes[4], TRACED_VERSION);
        assert_eq!(
            bytes.len(),
            req.encode(None).len() + 1 + TRACE_EXT_BYTES,
            "the extension costs exactly flags + 16 bytes"
        );
        assert_eq!(decode_request(&bytes).unwrap(), (req, Some(wt)));
        // Unknown flag bits are rejected, not silently skipped: a future
        // extension could change the layout after the flags byte.
        let mut bad = bytes.clone();
        bad[5] |= 0x02;
        match decode_request(&bad) {
            Err(ClusterError::Protocol { reason }) => assert!(reason.contains("flags")),
            other => panic!("expected protocol error, got {other:?}"),
        }
        // A v2 frame with no flags set parses as untraced.
        let p = vec![TAG_PING];
        let mut v2_plain = Vec::new();
        v2_plain.extend_from_slice(&MAGIC);
        v2_plain.push(TRACED_VERSION);
        v2_plain.push(0);
        v2_plain.extend_from_slice(&(p.len() as u32).to_le_bytes());
        v2_plain.extend_from_slice(&p);
        v2_plain.extend_from_slice(&crc32(&p).to_le_bytes());
        assert_eq!(decode_request(&v2_plain).unwrap(), (Request::Ping, None));
    }

    #[test]
    fn stats_snapshot_roundtrips_and_rejects_hostile_buckets() {
        let snap = telemetry::Snapshot {
            counters: vec![("node.rx".into(), 123), ("node.tx".into(), u64::MAX)],
            gauges: vec![("inflight".into(), -7)],
            histograms: vec![
                ("empty_us".into(), telemetry::HistogramSnapshot::new()),
                (
                    "lat_us".into(),
                    telemetry::HistogramSnapshot {
                        count: 3,
                        sum: 2100,
                        min: 100,
                        max: 1100,
                        buckets: vec![(98, 2), (160, 1)],
                    },
                ),
            ],
        };
        let bytes = encode_stats(&snap);
        assert_eq!(decode_stats(&bytes).unwrap(), snap);
        // Over the wire as a full exchange.
        match decode_response(&Response::Data(bytes.clone()).encode()).unwrap() {
            Response::Data(d) => assert_eq!(decode_stats(&d).unwrap(), snap),
            other => panic!("unexpected {other:?}"),
        }
        // Truncation anywhere is an error, not a partial snapshot.
        for cut in 0..bytes.len() {
            assert!(decode_stats(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Bucket indices beyond the scheme or out of order are rejected.
        let bogus = telemetry::Snapshot {
            histograms: vec![(
                "h".into(),
                telemetry::HistogramSnapshot {
                    count: 1,
                    sum: 1,
                    min: 1,
                    max: 1,
                    buckets: vec![(telemetry::snapshot::BUCKETS as u32, 1)],
                },
            )],
            ..Default::default()
        };
        assert!(decode_stats(&encode_stats(&bogus)).is_err());
        let unsorted = telemetry::Snapshot {
            histograms: vec![(
                "h".into(),
                telemetry::HistogramSnapshot {
                    count: 2,
                    sum: 2,
                    min: 1,
                    max: 1,
                    buckets: vec![(5, 1), (5, 1)],
                },
            )],
            ..Default::default()
        };
        assert!(decode_stats(&encode_stats(&unsorted)).is_err());
    }

    #[test]
    fn hostile_fields_rejected() {
        // Path traversal, empty, reserved and overlong file names.
        for bad in ["../../etc/passwd", "", "..", &"x".repeat(300)] {
            let evil = Request::GetBlock { id: id(bad, 0, 0) };
            assert!(decode_request(&evil.encode(None)).is_err(), "{bad:?}");
        }
        // Unit index out of range of sub.
        let bad = Request::GetUnits {
            id: id("f", 0, 0),
            sub: 3,
            units: vec![3],
        };
        assert!(decode_request(&bad.encode(None)).is_err());
        // Coefficient count disagreeing with the matrix shape.
        let bad = Request::RepairRead {
            id: id("f", 0, 0),
            rows: 2,
            cols: 2,
            coeffs: vec![1, 2, 3],
        };
        assert!(decode_request(&bad.encode(None)).is_err());
        // WriteDelta with zero-width units or no deltas/rows.
        let bad = Request::WriteDelta {
            id: id("f", 0, 0),
            unit_bytes: 0,
            deltas: vec![vec![]],
            rows: vec![(0, vec![1])],
        };
        assert!(decode_request(&bad.encode(None)).is_err());
        let bad = Request::WriteDelta {
            id: id("f", 0, 0),
            unit_bytes: 4,
            deltas: vec![],
            rows: vec![],
        };
        assert!(decode_request(&bad.encode(None)).is_err());
    }

    /// A writer that takes at most three bytes per call, so every
    /// vectored write comes back short and must be resumed mid-buffer.
    struct Trickle(Vec<u8>);

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len().min(3);
            self.0.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// `write_response`'s bytes, through a plain buffer and through a
    /// short-writing one, both held to `Response::encode`.
    fn assert_written_as_encoded(resp: &Response) {
        let want = resp.encode();
        let mut whole = Vec::new();
        assert_eq!(write_response(&mut whole, resp).unwrap(), want.len());
        assert_eq!(whole, want, "{resp:?}");
        let mut trickle = Trickle(Vec::new());
        assert_eq!(write_response(&mut trickle, resp).unwrap(), want.len());
        assert_eq!(trickle.0, want, "{resp:?} in short writes");
    }

    #[test]
    fn vectored_data_writer_matches_encode() {
        for len in [0, 1, 4, 5, 6, 4096] {
            let data: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
            assert_written_as_encoded(&Response::Data(data));
        }
        for resp in [
            Response::Pong,
            Response::Done,
            Response::Error("no such block".into()),
        ] {
            assert_written_as_encoded(&resp);
        }
    }

    /// A `Data` payload whose inner length field says `inner`, framed with
    /// a valid CRC.
    fn data_frame_claiming(inner: u32, data: &[u8]) -> Vec<u8> {
        frame(None, data.len(), |p| {
            p.push(TAG_DATA);
            put_u32(p, inner);
            p.extend_from_slice(data);
        })
    }

    #[test]
    fn data_inner_length_must_fill_the_payload() {
        let data = [9u8; 40];
        assert_eq!(
            decode_response(&data_frame_claiming(40, &data)).unwrap(),
            Response::Data(data.to_vec())
        );
        for inner in [0, 1, 39, 41, 45, u32::MAX] {
            let frame = data_frame_claiming(inner, &data);
            assert!(
                matches!(decode_response(&frame), Err(ClusterError::Protocol { .. })),
                "inner length {inner} of a 40-byte data part accepted"
            );
        }
        // A payload too short to hold the length field at all.
        let stub = frame(None, 0, |p| p.extend_from_slice(&[TAG_DATA, 0, 0]));
        assert!(matches!(
            decode_response(&stub),
            Err(ClusterError::Protocol { .. })
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_vectored_data_writer_matches_encode(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..3000),
        ) {
            assert_written_as_encoded(&Response::Data(data));
        }

        #[test]
        fn prop_data_part_crc_flip_rejected(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 1..2048),
            pos_frac in 0.0f64..1.0,
            flip in 1u8..=255,
        ) {
            let mut bytes = Response::Data(data.clone()).encode();
            // Past the 9-byte header and the 5-byte payload prefix, up to
            // and including the trailing CRC.
            let data_at = FRAME_OVERHEAD - 4 + DATA_PREFIX;
            let pos = data_at + ((bytes.len() - 1 - data_at) as f64 * pos_frac) as usize;
            bytes[pos] ^= flip;
            let rejected = matches!(
                decode_response(&bytes),
                Err(ClusterError::Protocol { reason }) if reason.contains("CRC")
            );
            prop_assert!(rejected, "flip at {} of {} accepted", pos, bytes.len());
        }

        #[test]
        fn prop_data_truncated_mid_data_is_an_io_error(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 1..2048),
            cut_frac in 0.0f64..1.0,
        ) {
            let bytes = Response::Data(data).encode();
            let data_at = FRAME_OVERHEAD - 4 + DATA_PREFIX;
            let cut = data_at + ((bytes.len() - data_at) as f64 * cut_frac) as usize;
            let mut stream = &bytes[..cut.min(bytes.len() - 1)];
            let truncated = matches!(
                read_response_into(&mut stream, &mut Vec::new()),
                Err(ClusterError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof
            );
            prop_assert!(truncated, "a frame cut at {} of {} bytes", cut, bytes.len());
        }

        #[test]
        fn prop_put_block_roundtrips(
            stripe in 0u32..1000,
            block in 0u32..256,
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..2048),
        ) {
            let req = Request::PutBlock { id: id("prop.bin", stripe, block), data };
            prop_assert_eq!(decode_request(&req.encode(None)).unwrap(), (req, None));
        }

        #[test]
        fn prop_data_response_roundtrips(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..2048),
        ) {
            let resp = Response::Data(data);
            prop_assert_eq!(decode_response(&resp.encode()).unwrap(), resp);
        }

        #[test]
        fn prop_truncation_always_rejected(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..256),
            cut_frac in 0.0f64..1.0,
        ) {
            let bytes = Request::PutBlock { id: id("t", 0, 0), data }.encode(None);
            // Cut strictly inside the frame: the reader must fail, never
            // report a clean EOF or a message.
            let cut = 1 + ((bytes.len() - 2) as f64 * cut_frac) as usize;
            let mut stream = &bytes[..cut];
            prop_assert!(read_request(&mut stream).is_err());
        }

        #[test]
        fn prop_single_byte_corruption_rejected(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 1..256),
            pos_frac in 0.0f64..1.0,
            flip in 1u8..=255,
        ) {
            let req = Request::PutBlock { id: id("c", 3, 1), data };
            let mut bytes = req.encode(None);
            let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
            bytes[pos] ^= flip;
            // Any single-byte flip lands in the magic/version (explicitly
            // checked), the length (breaks the frame-size equation), or the
            // checksummed payload/CRC — never a silently different message.
            match decode_request(&bytes) {
                Err(_) => {}
                Ok((decoded, _)) => prop_assert_eq!(decoded, req, "corruption changed the message"),
            }
        }

        #[test]
        fn prop_trace_ctx_roundtrips_through_extended_header(
            trace in proptest::prelude::any::<u64>(),
            span in proptest::prelude::any::<u64>(),
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..512),
        ) {
            let wt = WireTrace { trace: trace.max(1), span };
            let req = Request::PutBlock { id: id("tr", 1, 0), data };
            prop_assert_eq!(decode_request(&req.encode(Some(wt))).unwrap(), (req, Some(wt)));
        }

        #[test]
        fn prop_single_byte_corruption_rejected_traced(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 1..256),
            pos_frac in 0.0f64..1.0,
            flip in 1u8..=255,
        ) {
            let req = Request::PutBlock { id: id("c", 3, 1), data };
            let wt = WireTrace { trace: 0xABCD_EF01_2345_6789, span: 5 };
            let mut bytes = req.encode(Some(wt));
            let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
            bytes[pos] ^= flip;
            // The trace extension sits outside the CRC, so a flip there may
            // relabel the trace — but the *message* is still protected: it
            // either fails to decode or decodes identically.
            match decode_request(&bytes) {
                Err(_) => {}
                Ok((decoded, _)) => prop_assert_eq!(decoded, req, "corruption changed the message"),
            }
        }
    }
}
