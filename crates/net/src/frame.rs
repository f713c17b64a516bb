//! Wire frame grammar.
//!
//! Every message on the wire is one frame, reusing the WAL's envelope
//! (`wal.rs`): `len: u32 LE | crc32: u32 LE | payload`, where the CRC is
//! the WAL's slicing-by-8 CRC-32 (IEEE) over the payload bytes. The
//! payload begins with a one-byte frame kind:
//!
//! | kind | dir | body |
//! |------|-----|------|
//! | `HELLO`    | c→s | `ver:u16, ntags:u16, name_len:u16, name` |
//! | `BATCH`    | c→s | `seq:u64, nrows:u32, ntags:u16,` columns (below) |
//! | `BYE`      | c→s | empty |
//! | `HELLO_OK` | s→c | `ver:u16, credit:u32` |
//! | `ACK`      | s→c | `seq:u64, grant:u32, queue_depth:u32, wal_lag:u64` |
//! | `BYE_OK`   | s→c | empty |
//! | `ERROR`    | s→c | `code:u8, msg_len:u16, msg` |
//!
//! `BATCH` carries a *columnar* layout chosen so the server never
//! re-marshals: after the fixed header come, in order, the `sources`
//! column (`nrows × u64 LE`), the `ts` column (`nrows × i64 LE` micros),
//! one validity bitmap per tag (`ntags × ceil(nrows/8)` bytes, bit `r` of
//! bitmap `t` = row `r` has a value for tag `t`), the per-tag value
//! counts (`ntags × u32 LE`), and finally the present values themselves
//! (`f64 LE`), densely packed tag-major in row order. [`BatchView`]
//! borrows all six sections straight out of the session's read buffer —
//! decoding is validation plus pointer arithmetic, no copies.
//!
//! Every decoder here is total: truncated, oversized, or otherwise
//! corrupt input returns [`OdhError::Corrupt`], never panics, and never
//! allocates proportionally to attacker-controlled lengths (the frame
//! body is capped at [`MAX_FRAME`] before any buffer is grown).

use odh_storage::wal::crc32;
use odh_types::{OdhError, Record, Result, SourceId, Timestamp};
use std::collections::HashMap;
use std::io::Read;

/// Protocol version spoken by this build.
pub const WIRE_VERSION: u16 = 1;
/// Hard cap on one frame's payload. Anything larger is implausible and
/// rejected from the 8-byte header alone, before any allocation.
pub const MAX_FRAME: usize = 8 << 20;
/// Hard cap on rows per batch frame.
pub const MAX_BATCH_ROWS: usize = 1 << 16;
/// Hard cap on tags per batch frame.
pub const MAX_BATCH_TAGS: usize = 1 << 10;
/// Frame envelope: `len:u32 | crc32:u32`.
pub const FRAME_HDR: usize = 8;

pub const KIND_HELLO: u8 = 0x01;
pub const KIND_BATCH: u8 = 0x02;
pub const KIND_BYE: u8 = 0x03;
pub const KIND_HELLO_OK: u8 = 0x81;
pub const KIND_ACK: u8 = 0x82;
pub const KIND_BYE_OK: u8 = 0x83;
pub const KIND_ERROR: u8 = 0x8F;

fn corrupt(msg: &str) -> OdhError {
    OdhError::Corrupt(format!("wire: {msg}"))
}

// ---------------------------------------------------------------------------
// Little-endian cursor over an untrusted payload.
// ---------------------------------------------------------------------------

struct Cur<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Cur<'a> {
        Cur { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.at.checked_add(n).ok_or_else(|| corrupt("length overflow"))?;
        if end > self.buf.len() {
            return Err(corrupt("truncated payload"));
        }
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn done(&self) -> Result<()> {
        if self.at != self.buf.len() {
            return Err(corrupt("trailing bytes after frame body"));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Decoded frames.
// ---------------------------------------------------------------------------

/// One decoded frame, borrowing from the read buffer.
#[derive(Debug)]
pub enum Frame<'a> {
    Hello { version: u16, ntags: u16, schema: &'a str },
    Batch(BatchView<'a>),
    Bye,
    HelloOk { version: u16, credit: u32 },
    Ack { seq: u64, grant: u32, queue_depth: u32, wal_lag: u64 },
    ByeOk,
    Error { code: u8, msg: &'a str },
}

/// Zero-copy view over a `BATCH` payload: all six column sections borrow
/// the session read buffer. Constructed only by [`decode_frame`], which
/// validates every section length, the per-tag counts against the
/// validity popcounts, and the bitmap tail bits — after that, accessors
/// are pure pointer arithmetic.
#[derive(Debug)]
pub struct BatchView<'a> {
    pub seq: u64,
    pub nrows: usize,
    pub ntags: usize,
    sources: &'a [u8],
    ts: &'a [u8],
    validity: &'a [u8],
    counts: &'a [u8],
    values: &'a [u8],
}

impl<'a> BatchView<'a> {
    #[inline]
    pub fn source(&self, row: usize) -> u64 {
        u64::from_le_bytes(self.sources[row * 8..row * 8 + 8].try_into().unwrap())
    }

    #[inline]
    pub fn ts_at(&self, row: usize) -> i64 {
        i64::from_le_bytes(self.ts[row * 8..row * 8 + 8].try_into().unwrap())
    }

    #[inline]
    fn stride(&self) -> usize {
        self.nrows.div_ceil(8)
    }

    #[inline]
    pub fn present(&self, tag: usize, row: usize) -> bool {
        let b = self.validity[tag * self.stride() + row / 8];
        b & (1 << (row % 8)) != 0
    }

    #[inline]
    pub fn count(&self, tag: usize) -> usize {
        u32::from_le_bytes(self.counts[tag * 4..tag * 4 + 4].try_into().unwrap()) as usize
    }

    /// The `idx`-th present value, in global (tag-major) order.
    #[inline]
    fn value(&self, idx: usize) -> f64 {
        f64::from_le_bytes(self.values[idx * 8..idx * 8 + 8].try_into().unwrap())
    }

    /// Pivot the columns into rows, invoking `sink` once per row with a
    /// [`Record`] whose backing buffers live in `scratch` and are reused
    /// across frames — steady state, this path allocates nothing.
    pub fn for_each_row(
        &self,
        scratch: &mut Scratch,
        mut sink: impl FnMut(&Record) -> Result<()>,
    ) -> Result<()> {
        scratch.cursors.clear();
        let mut acc = 0usize;
        for t in 0..self.ntags {
            scratch.cursors.push(acc);
            acc += self.count(t);
        }
        for row in 0..self.nrows {
            let rec = &mut scratch.record;
            rec.source = SourceId(self.source(row));
            rec.ts = Timestamp::from_micros(self.ts_at(row));
            rec.values.clear();
            for t in 0..self.ntags {
                if self.present(t, row) {
                    let v = self.value(scratch.cursors[t]);
                    scratch.cursors[t] += 1;
                    rec.values.push(Some(v));
                } else {
                    rec.values.push(None);
                }
            }
            sink(rec)?;
        }
        Ok(())
    }

    /// Pivot the columns into per-source runs, invoking `sink` once per
    /// distinct source in the frame with that source's timestamps and
    /// `cols[tag][row]` columns (rows in frame order). This is the bulk
    /// ingest shape: the storage layer pays its source lookup, shard
    /// lock, and WAL stripe lock once per run instead of once per row.
    /// All accumulators live in `scratch` and are reused across frames —
    /// steady state, this path allocates nothing. Peak scratch memory is
    /// bounded by the frame's own row count (≤ [`MAX_BATCH_ROWS`] rows ×
    /// `ntags` values), never by attacker-declared counts.
    pub fn for_each_run(
        &self,
        scratch: &mut ColScratch,
        mut sink: impl FnMut(SourceId, &[i64], &[Vec<Option<f64>>]) -> Result<()>,
    ) -> Result<()> {
        let ColScratch { cursors, runs, index, live } = scratch;
        cursors.clear();
        let mut acc = 0usize;
        for t in 0..self.ntags {
            cursors.push(acc);
            acc += self.count(t);
        }
        index.clear();
        *live = 0;
        for row in 0..self.nrows {
            let source = self.source(row);
            let idx = *index.entry(source).or_insert_with(|| {
                let i = *live;
                if runs.len() == i {
                    runs.push(RunAcc { source, ts: Vec::new(), cols: Vec::new() });
                }
                let run = &mut runs[i];
                run.source = source;
                run.ts.clear();
                if run.cols.len() != self.ntags {
                    run.cols.resize_with(self.ntags, Vec::new);
                }
                for col in &mut run.cols {
                    col.clear();
                }
                *live += 1;
                i
            });
            let run = &mut runs[idx];
            run.ts.push(self.ts_at(row));
            for (t, cursor) in cursors.iter_mut().enumerate() {
                if self.present(t, row) {
                    let v = self.value(*cursor);
                    *cursor += 1;
                    run.cols[t].push(Some(v));
                } else {
                    run.cols[t].push(None);
                }
            }
        }
        for run in &runs[..*live] {
            sink(SourceId(run.source), &run.ts, &run.cols)?;
        }
        Ok(())
    }
}

/// Per-session reusable pivot state: the [`Record`] handed to the sink
/// and the per-tag value cursors. Lives separately from the frame read
/// buffer (which the [`BatchView`] borrows) so both can be used at once.
/// After the first few frames warm the capacities, the decode path
/// performs zero allocations.
pub struct Scratch {
    record: Record,
    cursors: Vec<usize>,
}

impl Scratch {
    pub fn new() -> Scratch {
        Scratch {
            record: Record::new(SourceId(0), Timestamp::from_micros(0), Vec::new()),
            cursors: Vec::new(),
        }
    }
}

impl Default for Scratch {
    fn default() -> Scratch {
        Scratch::new()
    }
}

/// One source's accumulated rows within the current frame (see
/// [`BatchView::for_each_run`]). Pooled in [`ColScratch`]: `ts`/`cols`
/// are cleared, not dropped, between frames, so their capacity survives.
struct RunAcc {
    source: u64,
    ts: Vec<i64>,
    cols: Vec<Vec<Option<f64>>>,
}

/// Per-session reusable state for [`BatchView::for_each_run`]: the
/// per-tag value cursors, a pool of per-source `RunAcc` accumulators,
/// and the source → accumulator index for the frame in flight. `clear()`
/// on the map and vectors retains capacity, so after the first few
/// frames warm the pool the run pivot allocates nothing.
pub struct ColScratch {
    cursors: Vec<usize>,
    runs: Vec<RunAcc>,
    index: HashMap<u64, usize>,
    /// Accumulators of `runs[..live]` belong to the current frame; the
    /// rest are warm spares from earlier, wider frames.
    live: usize,
}

impl ColScratch {
    pub fn new() -> ColScratch {
        ColScratch { cursors: Vec::new(), runs: Vec::new(), index: HashMap::new(), live: 0 }
    }
}

impl Default for ColScratch {
    fn default() -> ColScratch {
        ColScratch::new()
    }
}

/// Decode one frame payload (everything after the `len|crc` envelope).
pub fn decode_frame(payload: &[u8]) -> Result<Frame<'_>> {
    let mut c = Cur::new(payload);
    let kind = c.u8()?;
    match kind {
        KIND_HELLO => {
            let version = c.u16()?;
            let ntags = c.u16()?;
            let name_len = c.u16()? as usize;
            let name = c.take(name_len)?;
            c.done()?;
            let schema = std::str::from_utf8(name).map_err(|_| corrupt("schema name not utf-8"))?;
            Ok(Frame::Hello { version, ntags, schema })
        }
        KIND_BATCH => {
            let seq = c.u64()?;
            let nrows = c.u32()? as usize;
            let ntags = c.u16()? as usize;
            if nrows == 0 || nrows > MAX_BATCH_ROWS {
                return Err(corrupt("batch row count out of range"));
            }
            if ntags > MAX_BATCH_TAGS {
                return Err(corrupt("batch tag count out of range"));
            }
            let stride = nrows.div_ceil(8);
            let sources = c.take(nrows * 8)?;
            let ts = c.take(nrows * 8)?;
            let validity = c.take(ntags * stride)?;
            let counts = c.take(ntags * 4)?;
            let mut total = 0usize;
            for t in 0..ntags {
                let n = u32::from_le_bytes(counts[t * 4..t * 4 + 4].try_into().unwrap()) as usize;
                if n > nrows {
                    return Err(corrupt("tag value count exceeds row count"));
                }
                // The count must equal the bitmap popcount: the pivot
                // trusts the cursors it derives from these counts.
                let bm = &validity[t * stride..(t + 1) * stride];
                let pop: u32 = bm.iter().map(|b| b.count_ones()).sum();
                if pop as usize != n {
                    return Err(corrupt("validity popcount disagrees with value count"));
                }
                // Tail bits past nrows must be zero, or popcount lies.
                if !nrows.is_multiple_of(8) {
                    let tail = bm[stride - 1] >> (nrows % 8);
                    if tail != 0 {
                        return Err(corrupt("validity bitmap has tail bits set"));
                    }
                }
                total += n;
            }
            let values = c.take(total * 8)?;
            c.done()?;
            Ok(Frame::Batch(BatchView { seq, nrows, ntags, sources, ts, validity, counts, values }))
        }
        KIND_BYE => {
            c.done()?;
            Ok(Frame::Bye)
        }
        KIND_HELLO_OK => {
            let version = c.u16()?;
            let credit = c.u32()?;
            c.done()?;
            Ok(Frame::HelloOk { version, credit })
        }
        KIND_ACK => {
            let seq = c.u64()?;
            let grant = c.u32()?;
            let queue_depth = c.u32()?;
            let wal_lag = c.u64()?;
            c.done()?;
            Ok(Frame::Ack { seq, grant, queue_depth, wal_lag })
        }
        KIND_BYE_OK => {
            c.done()?;
            Ok(Frame::ByeOk)
        }
        KIND_ERROR => {
            let code = c.u8()?;
            let msg_len = c.u16()? as usize;
            let msg = c.take(msg_len)?;
            c.done()?;
            let msg = std::str::from_utf8(msg).map_err(|_| corrupt("error message not utf-8"))?;
            Ok(Frame::Error { code, msg })
        }
        k => Err(corrupt(&format!("unknown frame kind 0x{k:02x}"))),
    }
}

// ---------------------------------------------------------------------------
// Encoders. All append to a caller-owned buffer (reused across frames).
// ---------------------------------------------------------------------------

/// Reserve the 8-byte envelope; returns the patch offset for [`end_frame`].
fn begin_frame(buf: &mut Vec<u8>) -> usize {
    let start = buf.len();
    buf.extend_from_slice(&[0u8; FRAME_HDR]);
    start
}

/// Patch `len` and `crc` over the payload appended since [`begin_frame`].
fn end_frame(buf: &mut [u8], start: usize) {
    let payload_at = start + FRAME_HDR;
    let len = (buf.len() - payload_at) as u32;
    let crc = crc32(&buf[payload_at..]);
    buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
    buf[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
}

pub fn encode_hello(buf: &mut Vec<u8>, ntags: u16, schema: &str) {
    let s = begin_frame(buf);
    buf.push(KIND_HELLO);
    buf.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    buf.extend_from_slice(&ntags.to_le_bytes());
    buf.extend_from_slice(&(schema.len() as u16).to_le_bytes());
    buf.extend_from_slice(schema.as_bytes());
    end_frame(buf, s);
}

pub fn encode_hello_ok(buf: &mut Vec<u8>, credit: u32) {
    let s = begin_frame(buf);
    buf.push(KIND_HELLO_OK);
    buf.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    buf.extend_from_slice(&credit.to_le_bytes());
    end_frame(buf, s);
}

pub fn encode_ack(buf: &mut Vec<u8>, seq: u64, grant: u32, queue_depth: u32, wal_lag: u64) {
    let s = begin_frame(buf);
    buf.push(KIND_ACK);
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&grant.to_le_bytes());
    buf.extend_from_slice(&queue_depth.to_le_bytes());
    buf.extend_from_slice(&wal_lag.to_le_bytes());
    end_frame(buf, s);
}

pub fn encode_bye(buf: &mut Vec<u8>) {
    let s = begin_frame(buf);
    buf.push(KIND_BYE);
    end_frame(buf, s);
}

pub fn encode_bye_ok(buf: &mut Vec<u8>) {
    let s = begin_frame(buf);
    buf.push(KIND_BYE_OK);
    end_frame(buf, s);
}

pub fn encode_error(buf: &mut Vec<u8>, code: u8, msg: &str) {
    let msg = &msg.as_bytes()[..msg.len().min(512)];
    let s = begin_frame(buf);
    buf.push(KIND_ERROR);
    buf.push(code);
    buf.extend_from_slice(&(msg.len() as u16).to_le_bytes());
    buf.extend_from_slice(msg);
    end_frame(buf, s);
}

/// Encode `records` as one columnar `BATCH` frame. Every record must
/// have exactly `ntags` tag slots.
pub fn encode_batch(buf: &mut Vec<u8>, seq: u64, ntags: usize, records: &[Record]) -> Result<()> {
    if records.is_empty() || records.len() > MAX_BATCH_ROWS {
        return Err(OdhError::Config(format!(
            "batch of {} rows (1..={MAX_BATCH_ROWS})",
            records.len()
        )));
    }
    if ntags > MAX_BATCH_TAGS {
        return Err(OdhError::Config(format!("{ntags} tags (max {MAX_BATCH_TAGS})")));
    }
    for r in records {
        if r.values.len() != ntags {
            return Err(OdhError::Schema(format!(
                "record has {} tag slots, batch declares {ntags}",
                r.values.len()
            )));
        }
    }
    let nrows = records.len();
    let stride = nrows.div_ceil(8);
    let s = begin_frame(buf);
    buf.push(KIND_BATCH);
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&(nrows as u32).to_le_bytes());
    buf.extend_from_slice(&(ntags as u16).to_le_bytes());
    for r in records {
        buf.extend_from_slice(&r.source.0.to_le_bytes());
    }
    for r in records {
        buf.extend_from_slice(&r.ts.micros().to_le_bytes());
    }
    let bitmap_at = buf.len();
    buf.resize(bitmap_at + ntags * stride, 0);
    let counts_at = buf.len();
    buf.resize(counts_at + ntags * 4, 0);
    for t in 0..ntags {
        let mut n: u32 = 0;
        for (row, r) in records.iter().enumerate() {
            if r.values[t].is_some() {
                buf[bitmap_at + t * stride + row / 8] |= 1 << (row % 8);
                n += 1;
            }
        }
        buf[counts_at + t * 4..counts_at + t * 4 + 4].copy_from_slice(&n.to_le_bytes());
    }
    for t in 0..ntags {
        for r in records {
            if let Some(v) = r.values[t] {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
    }
    end_frame(buf, s);
    Ok(())
}

// ---------------------------------------------------------------------------
// Stream reader.
// ---------------------------------------------------------------------------

/// Outcome of one [`read_frame`] call.
#[derive(Debug, PartialEq, Eq)]
pub enum ReadStatus {
    /// A complete, CRC-verified payload of this length sits in `buf[..len]`.
    Frame(usize),
    /// Clean EOF at a frame boundary (peer closed).
    Eof,
    /// The read timed out before any byte of the next frame arrived.
    /// Only surfaces when the stream has a read timeout configured.
    Idle,
}

/// Read one frame from `r` into `buf` (grown once, then reused).
///
/// Timeout semantics: a timeout *between* frames returns
/// [`ReadStatus::Idle`] so the caller can poll shutdown flags; a timeout
/// *mid-frame* retries up to `idle_budget` times (the bytes are in
/// flight) and then fails — a peer that stalls inside a frame for that
/// long is treated as gone.
pub fn read_frame(r: &mut impl Read, buf: &mut Vec<u8>, idle_budget: u32) -> Result<ReadStatus> {
    let mut hdr = [0u8; FRAME_HDR];
    let mut got = 0usize;
    let mut idles = 0u32;
    while got < FRAME_HDR {
        match r.read(&mut hdr[got..]) {
            Ok(0) => {
                if got == 0 {
                    return Ok(ReadStatus::Eof);
                }
                return Err(corrupt("connection closed mid frame header"));
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if got == 0 {
                    return Ok(ReadStatus::Idle);
                }
                idles += 1;
                if idles > idle_budget {
                    return Err(OdhError::Io("peer stalled mid frame header".into()));
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes(hdr[0..4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(hdr[4..8].try_into().unwrap());
    if len == 0 || len > MAX_FRAME {
        return Err(corrupt("implausible frame length"));
    }
    if buf.len() < len {
        buf.resize(len, 0);
    }
    let mut got = 0usize;
    let mut idles = 0u32;
    while got < len {
        match r.read(&mut buf[got..len]) {
            Ok(0) => return Err(corrupt("connection closed mid frame body")),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                idles += 1;
                if idles > idle_budget {
                    return Err(OdhError::Io("peer stalled mid frame body".into()));
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
    if crc32(&buf[..len]) != crc {
        return Err(corrupt("frame checksum mismatch"));
    }
    Ok(ReadStatus::Frame(len))
}

/// Map an [`OdhError`] kind to a wire error code (for `ERROR` frames).
pub fn error_code(e: &OdhError) -> u8 {
    match e {
        OdhError::Io(_) => 1,
        OdhError::Corrupt(_) => 2,
        OdhError::Schema(_) => 3,
        OdhError::Parse(_) => 4,
        OdhError::Plan(_) => 5,
        OdhError::Exec(_) => 6,
        OdhError::NotFound(_) => 7,
        OdhError::Config(_) => 8,
        OdhError::Full(_) => 9,
        OdhError::Unsupported(_) => 10,
    }
}

/// Reconstruct a typed error from a wire error code + message.
pub fn error_from_code(code: u8, msg: &str) -> OdhError {
    let m = msg.to_string();
    match code {
        1 => OdhError::Io(m),
        2 => OdhError::Corrupt(m),
        3 => OdhError::Schema(m),
        4 => OdhError::Parse(m),
        5 => OdhError::Plan(m),
        6 => OdhError::Exec(m),
        7 => OdhError::NotFound(m),
        8 => OdhError::Config(m),
        9 => OdhError::Full(m),
        10 => OdhError::Unsupported(m),
        _ => OdhError::Corrupt(format!("unknown error code {code}: {m}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(buf: &[u8]) -> Frame<'_> {
        let len = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(buf[4..8].try_into().unwrap());
        let payload = &buf[FRAME_HDR..FRAME_HDR + len];
        assert_eq!(crc, crc32(payload), "envelope crc");
        assert_eq!(buf.len(), FRAME_HDR + len, "exactly one frame");
        decode_frame(payload).expect("decode")
    }

    #[test]
    fn hello_roundtrip() {
        let mut buf = Vec::new();
        encode_hello(&mut buf, 7, "environ_data");
        match roundtrip(&buf) {
            Frame::Hello { version, ntags, schema } => {
                assert_eq!(version, WIRE_VERSION);
                assert_eq!(ntags, 7);
                assert_eq!(schema, "environ_data");
            }
            f => panic!("wrong frame: {f:?}"),
        }
    }

    #[test]
    fn ack_roundtrip() {
        let mut buf = Vec::new();
        encode_ack(&mut buf, 42, 8, 3, 1000);
        match roundtrip(&buf) {
            Frame::Ack { seq, grant, queue_depth, wal_lag } => {
                assert_eq!((seq, grant, queue_depth, wal_lag), (42, 8, 3, 1000));
            }
            f => panic!("wrong frame: {f:?}"),
        }
    }

    #[test]
    fn batch_roundtrip_sparse() {
        let recs = vec![
            Record::new(SourceId(5), Timestamp::from_micros(10), vec![Some(1.0), None, Some(3.0)]),
            Record::new(SourceId(6), Timestamp::from_micros(20), vec![None, None, None]),
            Record::new(SourceId(5), Timestamp::from_micros(30), vec![Some(-2.5), Some(0.0), None]),
        ];
        let mut buf = Vec::new();
        encode_batch(&mut buf, 9, 3, &recs).unwrap();
        let Frame::Batch(view) = roundtrip(&buf) else { panic!("not a batch") };
        assert_eq!(view.seq, 9);
        assert_eq!(view.nrows, 3);
        assert_eq!(view.ntags, 3);
        let mut out = Vec::new();
        let mut scratch = Scratch::new();
        view.for_each_row(&mut scratch, |r| {
            out.push(r.clone());
            Ok(())
        })
        .unwrap();
        assert_eq!(out, recs);
    }

    #[test]
    fn for_each_run_matches_for_each_row() {
        // Interleaved sources with sparse values: the run pivot must
        // reproduce every row of for_each_row, grouped by source with
        // relative order preserved.
        let recs: Vec<Record> = (0..37)
            .map(|i| {
                Record::new(
                    SourceId(i % 5),
                    Timestamp::from_micros(100 + i as i64 * 10),
                    (0..3)
                        .map(|t| {
                            (!(i as usize + t).is_multiple_of(3))
                                .then(|| (i as usize * 10 + t) as f64)
                        })
                        .collect(),
                )
            })
            .collect();
        let mut buf = Vec::new();
        encode_batch(&mut buf, 4, 3, &recs).unwrap();
        let Frame::Batch(view) = decode_frame(&buf[FRAME_HDR..]).unwrap() else {
            panic!("not a batch")
        };
        let mut scratch = ColScratch::new();
        let mut rebuilt: Vec<Record> = Vec::new();
        for pass in 0..3 {
            rebuilt.clear();
            view.for_each_run(&mut scratch, |source, ts, cols| {
                for row in 0..ts.len() {
                    rebuilt.push(Record::new(
                        source,
                        Timestamp::from_micros(ts[row]),
                        cols.iter().map(|c| c[row]).collect(),
                    ));
                }
                Ok(())
            })
            .unwrap();
            let mut expect = recs.clone();
            expect.sort_by_key(|r| r.source.0); // stable: keeps in-source order
            rebuilt.sort_by_key(|r| r.source.0);
            assert_eq!(rebuilt, expect, "pass {pass}: run pivot lost or reordered rows");
        }
    }

    #[test]
    fn batch_rejects_bad_popcount() {
        let recs = vec![Record::dense(SourceId(1), Timestamp::from_micros(1), [1.0, 2.0])];
        let mut buf = Vec::new();
        encode_batch(&mut buf, 1, 2, &recs).unwrap();
        // Flip a validity bit (section starts after kind+seq+nrows+ntags
        // + sources + ts = 1+8+4+2+8+8 = 31 bytes into the payload).
        let payload_at = FRAME_HDR;
        buf[payload_at + 31] ^= 0b10;
        let payload = &buf[payload_at..];
        assert!(decode_frame(payload).is_err());
    }

    #[test]
    fn truncations_never_panic() {
        let recs = vec![
            Record::new(SourceId(1), Timestamp::from_micros(1), vec![Some(1.0), None]),
            Record::new(SourceId(2), Timestamp::from_micros(2), vec![None, Some(2.0)]),
        ];
        let mut buf = Vec::new();
        encode_batch(&mut buf, 3, 2, &recs).unwrap();
        let payload = &buf[FRAME_HDR..];
        for cut in 0..payload.len() {
            let _ = decode_frame(&payload[..cut]);
        }
    }
}
