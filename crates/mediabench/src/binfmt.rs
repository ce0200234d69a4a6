//! The compact binary trace encoding and its constant-memory reader.
//!
//! The text replay format ([`crate::replay`]) is the debuggable
//! interchange surface; this module is the production one. A binary
//! trace is a fixed header followed by framed chunks, each carrying a
//! bounded number of entries — so a [`BinaryReplay`] reader holds at
//! most one decoded chunk in memory no matter how long the trace is,
//! and a truncated or corrupt file fails with a typed error naming
//! the chunk instead of feeding the engine garbage.
//!
//! # Layout
//!
//! ```text
//! +--------+---------+---------+----------------------------------+
//! | "HYVT" | version | flags   | chunk*                           |
//! | 4 B    | u16 LE  | u16 LE  |                                  |
//! +--------+---------+---------+----------------------------------+
//!
//! chunk := entry_count (u32 LE) | payload_len (u32 LE) | payload
//! ```
//!
//! A clean end of file at a chunk boundary ends the trace; anything
//! else is [`BinfmtError::TruncatedChunk`]. Within a chunk's payload,
//! each entry is:
//!
//! ```text
//! flags (1 B) | zigzag-varint Δpc | [zigzag-varint Δaddr]
//! ```
//!
//! `flags` packs `has_access` (bit 0), `is_write` (bit 1) and
//! `size - 1` (bits 2–4); the remaining bits must be zero. PC and
//! data-address deltas run against separate predictors that reset at
//! every chunk boundary, so chunks are independently decodable and a
//! flipped byte can corrupt at most one chunk's worth of entries.
//! Hot-loop PCs and strided data walks delta down to 1–2 bytes per
//! field, which is where the size win over the hex text format comes
//! from.
//!
//! # Streaming
//!
//! [`TraceWriter`] buffers up to `chunk_entries` entries and emits a
//! framed chunk when full; [`BinaryReplay`] decodes one chunk at a
//! time into a reused buffer. Both are `O(chunk)` in memory —
//! [`BinaryReplay::peak_resident_entries`] is the accounting hook the
//! constant-memory tests assert against. `BinaryReplay` implements
//! `Iterator` (and therefore [`TraceSource`](crate::TraceSource) via
//! the blanket impl), so it plugs into `System::run` and
//! `MultiCoreSystem` like any other source; a decode error mid-stream ends iteration and parks the
//! error in [`BinaryReplay::error`] for the caller to check after the
//! run.
//!
//! # Example
//!
//! ```
//! use hyvec_mediabench::binfmt::{encode_entries, BinaryReplay, DEFAULT_CHUNK_ENTRIES};
//! use hyvec_mediabench::Benchmark;
//!
//! let entries: Vec<_> = Benchmark::AdpcmC.trace(500, 1).collect();
//! let (bytes, stats) = encode_entries(entries.iter().copied(), DEFAULT_CHUNK_ENTRIES);
//! assert_eq!(stats.entries, 500);
//! let mut reader = BinaryReplay::from_bytes(bytes).unwrap();
//! let decoded: Vec<_> = reader.by_ref().collect();
//! assert!(reader.error().is_none());
//! assert_eq!(decoded, entries);
//! ```

use crate::replay::{parse_trace_line, write_entry_line, ReplayError};
use crate::trace::{DataAccess, TraceEntry};
use std::error::Error;
use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, Read, Write};
use std::path::Path;

/// The four magic bytes opening every binary trace.
pub const MAGIC: [u8; 4] = *b"HYVT";
/// The format version this build writes and accepts.
pub const FORMAT_VERSION: u16 = 1;
/// Default entries per chunk: ~100KB of decoded entries resident,
/// large enough to amortize framing, small enough that a reader's
/// working set is invisible next to the simulated caches.
pub const DEFAULT_CHUNK_ENTRIES: usize = 4096;
/// Upper bound on `entry_count` accepted from a chunk header — a
/// corrupt count past this is rejected before any allocation.
pub const MAX_CHUNK_ENTRIES: usize = 1 << 20;
/// Worst-case encoded bytes of one entry (flags + two 10-byte
/// varints); bounds `payload_len` sanity checks.
pub const MAX_ENTRY_BYTES: usize = 21;

/// Why a binary trace could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BinfmtError {
    /// The file does not open with [`MAGIC`].
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// The header's version is not [`FORMAT_VERSION`].
    BadVersion {
        /// The version actually found.
        found: u16,
    },
    /// End of file inside the 8-byte header.
    TruncatedHeader,
    /// End of file inside a chunk's header or payload.
    TruncatedChunk {
        /// 0-based index of the truncated chunk.
        chunk: u64,
        /// Bytes the chunk frame promised.
        expected: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// A chunk frame or payload that cannot be valid.
    CorruptChunk {
        /// 0-based index of the corrupt chunk.
        chunk: u64,
        /// What was wrong with it.
        reason: String,
    },
    /// The underlying reader failed.
    Io(String),
}

impl fmt::Display for BinfmtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinfmtError::BadMagic { found } => {
                write!(f, "not a hyvec binary trace: magic {found:02x?}")
            }
            BinfmtError::BadVersion { found } => {
                write!(
                    f,
                    "unsupported binary trace version {found} (this build reads {FORMAT_VERSION})"
                )
            }
            BinfmtError::TruncatedHeader => write!(f, "truncated binary trace header"),
            BinfmtError::TruncatedChunk {
                chunk,
                expected,
                got,
            } => write!(
                f,
                "truncated chunk {chunk}: expected {expected} bytes, got {got}"
            ),
            BinfmtError::CorruptChunk { chunk, reason } => {
                write!(f, "corrupt chunk {chunk}: {reason}")
            }
            BinfmtError::Io(e) => write!(f, "could not read binary trace: {e}"),
        }
    }
}

impl Error for BinfmtError {}

fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads one LEB128 varint from `payload` at `*pos`; `None` on
/// overrun or a varint longer than 10 bytes.
fn read_varint(payload: &[u8], pos: &mut usize) -> Option<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *payload.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None;
        }
        value |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Some(value);
        }
        shift += 7;
    }
}

fn encode_entry(out: &mut Vec<u8>, e: TraceEntry, last_pc: &mut u64, last_addr: &mut u64) {
    let mut flags = 0u8;
    if let Some(a) = e.access {
        flags |= 0x01;
        if a.is_write {
            flags |= 0x02;
        }
        flags |= (a.size - 1) << 2;
    }
    out.push(flags);
    push_varint(out, zigzag_encode(e.pc.wrapping_sub(*last_pc) as i64));
    *last_pc = e.pc;
    if let Some(a) = e.access {
        push_varint(out, zigzag_encode(a.addr.wrapping_sub(*last_addr) as i64));
        *last_addr = a.addr;
    }
}

/// Statistics of one completed encode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodeStats {
    /// Entries encoded.
    pub entries: u64,
    /// Total bytes written, header included.
    pub bytes: u64,
    /// Chunks emitted.
    pub chunks: u64,
    /// The writer's configured entries-per-chunk bound.
    pub chunk_entries: usize,
}

/// Streaming encoder: push entries one at a time, chunks are framed
/// and flushed to the sink whenever `chunk_entries` accumulate, and
/// [`TraceWriter::finish`] flushes the tail. Resident state is one
/// chunk's entries plus its encoded payload — never the whole trace.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    sink: W,
    chunk_entries: usize,
    pending: Vec<TraceEntry>,
    scratch: Vec<u8>,
    header_written: bool,
    entries: u64,
    bytes: u64,
    chunks: u64,
}

impl<W: Write> TraceWriter<W> {
    /// A writer with the [`DEFAULT_CHUNK_ENTRIES`] chunk bound.
    pub fn new(sink: W) -> TraceWriter<W> {
        TraceWriter::with_chunk_entries(sink, DEFAULT_CHUNK_ENTRIES)
    }

    /// A writer flushing a chunk every `chunk_entries` entries
    /// (clamped to `1..=`[`MAX_CHUNK_ENTRIES`]).
    pub fn with_chunk_entries(sink: W, chunk_entries: usize) -> TraceWriter<W> {
        let chunk_entries = chunk_entries.clamp(1, MAX_CHUNK_ENTRIES);
        TraceWriter {
            sink,
            chunk_entries,
            pending: Vec::with_capacity(chunk_entries),
            scratch: Vec::new(),
            header_written: false,
            entries: 0,
            bytes: 0,
            chunks: 0,
        }
    }

    fn write_header(&mut self) -> io::Result<()> {
        if self.header_written {
            return Ok(());
        }
        self.sink.write_all(&MAGIC)?;
        self.sink.write_all(&FORMAT_VERSION.to_le_bytes())?;
        self.sink.write_all(&0u16.to_le_bytes())?;
        self.bytes += 8;
        self.header_written = true;
        Ok(())
    }

    /// Appends one entry, flushing a framed chunk if the bound is
    /// reached.
    ///
    /// # Errors
    ///
    /// Propagates any sink write error.
    pub fn push(&mut self, entry: TraceEntry) -> io::Result<()> {
        self.pending.push(entry);
        if self.pending.len() >= self.chunk_entries {
            self.flush_chunk()?;
        }
        Ok(())
    }

    fn flush_chunk(&mut self) -> io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        self.write_header()?;
        self.scratch.clear();
        let (mut last_pc, mut last_addr) = (0u64, 0u64);
        for &e in &self.pending {
            encode_entry(&mut self.scratch, e, &mut last_pc, &mut last_addr);
        }
        let count = u32::try_from(self.pending.len()).unwrap_or(u32::MAX);
        let len = u32::try_from(self.scratch.len()).unwrap_or(u32::MAX);
        self.sink.write_all(&count.to_le_bytes())?;
        self.sink.write_all(&len.to_le_bytes())?;
        self.sink.write_all(&self.scratch)?;
        self.entries += u64::from(count);
        self.bytes += 8 + u64::from(len);
        self.chunks += 1;
        self.pending.clear();
        Ok(())
    }

    /// Flushes the tail chunk (and the header, so an empty trace is
    /// still a valid file) and returns the sink with the stats.
    ///
    /// # Errors
    ///
    /// Propagates any sink write error.
    pub fn finish(mut self) -> io::Result<(W, EncodeStats)> {
        self.flush_chunk()?;
        self.write_header()?;
        self.sink.flush()?;
        let stats = EncodeStats {
            entries: self.entries,
            bytes: self.bytes,
            chunks: self.chunks,
            chunk_entries: self.chunk_entries,
        };
        Ok((self.sink, stats))
    }
}

/// Encodes `entries` into an in-memory binary trace.
pub fn encode_entries(
    entries: impl IntoIterator<Item = TraceEntry>,
    chunk_entries: usize,
) -> (Vec<u8>, EncodeStats) {
    let mut writer = TraceWriter::with_chunk_entries(Vec::new(), chunk_entries);
    for e in entries {
        // hyvec-lint: allow(no-panic, "Vec<u8> as io::Write is infallible")
        writer.push(e).expect("writing to a Vec cannot fail");
    }
    // hyvec-lint: allow(no-panic, "Vec<u8> as io::Write is infallible")
    writer.finish().expect("writing to a Vec cannot fail")
}

/// The constant-memory chunked reader: decodes one framed chunk at a
/// time into a reused buffer and hands entries out of it. Implements
/// `Iterator` (and therefore [`TraceSource`](crate::TraceSource)), so
/// it drives `System::run` and the multi-core engine directly;
/// `&mut BinaryReplay` is also a `TraceSource`, which lets a caller
/// keep the reader and inspect [`BinaryReplay::error`] and
/// [`BinaryReplay::peak_resident_entries`] after a run.
#[derive(Debug)]
pub struct BinaryReplay<R: Read> {
    source: R,
    /// The current chunk's payload bytes, one buffer reused for every
    /// chunk.
    payload: Vec<u8>,
    chunk: Vec<TraceEntry>,
    pos: usize,
    next_chunk: u64,
    peak_resident: usize,
    entries_read: u64,
    bytes_read: u64,
    finished: bool,
    error: Option<BinfmtError>,
}

impl BinaryReplay<BufReader<File>> {
    /// Opens a binary trace file for streaming replay.
    ///
    /// # Errors
    ///
    /// Returns [`BinfmtError::Io`] if the file cannot be opened and a
    /// header error ([`BinfmtError::BadMagic`],
    /// [`BinfmtError::BadVersion`], [`BinfmtError::TruncatedHeader`])
    /// if it does not open with a valid header.
    pub fn from_file(path: impl AsRef<Path>) -> Result<BinaryReplay<BufReader<File>>, BinfmtError> {
        let path = path.as_ref();
        let file =
            File::open(path).map_err(|e| BinfmtError::Io(format!("{}: {e}", path.display())))?;
        BinaryReplay::from_reader(BufReader::new(file))
    }
}

impl BinaryReplay<io::Cursor<Vec<u8>>> {
    /// Wraps an in-memory binary trace.
    ///
    /// # Errors
    ///
    /// Returns a header error if `bytes` does not open with a valid
    /// header.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<BinaryReplay<io::Cursor<Vec<u8>>>, BinfmtError> {
        BinaryReplay::from_reader(io::Cursor::new(bytes))
    }
}

impl<R: Read> BinaryReplay<R> {
    /// Wraps any reader, validating the 8-byte header eagerly.
    ///
    /// # Errors
    ///
    /// Returns [`BinfmtError::TruncatedHeader`],
    /// [`BinfmtError::BadMagic`], [`BinfmtError::BadVersion`], or
    /// [`BinfmtError::Io`] if the header cannot be read and
    /// validated.
    pub fn from_reader(mut source: R) -> Result<BinaryReplay<R>, BinfmtError> {
        let mut header = [0u8; 8];
        if read_full(&mut source, &mut header)? < header.len() {
            return Err(BinfmtError::TruncatedHeader);
        }
        let magic = [header[0], header[1], header[2], header[3]];
        if magic != MAGIC {
            return Err(BinfmtError::BadMagic { found: magic });
        }
        let version = u16::from_le_bytes([header[4], header[5]]);
        if version != FORMAT_VERSION {
            return Err(BinfmtError::BadVersion { found: version });
        }
        Ok(BinaryReplay {
            source,
            payload: Vec::new(),
            chunk: Vec::new(),
            pos: 0,
            next_chunk: 0,
            peak_resident: 0,
            entries_read: 0,
            bytes_read: 8,
            finished: false,
            error: None,
        })
    }

    /// The decode error that ended iteration early, if any. `None`
    /// after the iterator returns `None` means the trace ended
    /// cleanly at a chunk boundary.
    pub fn error(&self) -> Option<&BinfmtError> {
        self.error.as_ref()
    }

    /// Takes the stored decode error, leaving `None`.
    pub fn take_error(&mut self) -> Option<BinfmtError> {
        self.error.take()
    }

    /// The accounting hook of the constant-memory contract: the most
    /// decoded entries ever resident at once — bounded by the largest
    /// `entry_count` any chunk declared, regardless of trace length.
    pub fn peak_resident_entries(&self) -> usize {
        self.peak_resident
    }

    /// Entries handed out so far.
    pub fn entries_read(&self) -> u64 {
        self.entries_read
    }

    /// Bytes consumed from the underlying reader so far.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Loads and decodes the next chunk into the reused buffer.
    /// `Ok(false)` is a clean end of trace.
    fn load_chunk(&mut self) -> Result<bool, BinfmtError> {
        let chunk = self.next_chunk;
        let mut frame = [0u8; 8];
        // No byte at all is a clean end at the chunk boundary.
        match read_full(&mut self.source, &mut frame)? {
            0 => return Ok(false),
            8 => {}
            got => {
                return Err(BinfmtError::TruncatedChunk {
                    chunk,
                    expected: 8,
                    got,
                })
            }
        }
        self.bytes_read += 8;
        let entry_count = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]) as usize;
        let payload_len = u32::from_le_bytes([frame[4], frame[5], frame[6], frame[7]]) as usize;
        if entry_count == 0 {
            return Err(BinfmtError::CorruptChunk {
                chunk,
                reason: "chunk declares zero entries".to_string(),
            });
        }
        if entry_count > MAX_CHUNK_ENTRIES {
            return Err(BinfmtError::CorruptChunk {
                chunk,
                reason: format!("entry count {entry_count} exceeds {MAX_CHUNK_ENTRIES}"),
            });
        }
        if payload_len > entry_count * MAX_ENTRY_BYTES {
            return Err(BinfmtError::CorruptChunk {
                chunk,
                reason: format!(
                    "payload of {payload_len} bytes cannot hold only {entry_count} entries"
                ),
            });
        }
        // The buffers grow with the bytes that actually arrive, never
        // to the sizes the frame merely declares: a forged frame over
        // a short stream costs what the stream holds.
        self.payload.clear();
        let got = (&mut self.source)
            .take(payload_len as u64)
            .read_to_end(&mut self.payload)
            .map_err(|e| BinfmtError::Io(e.to_string()))?;
        if got < payload_len {
            return Err(BinfmtError::TruncatedChunk {
                chunk,
                expected: payload_len,
                got,
            });
        }
        self.bytes_read += payload_len as u64;

        let payload: &[u8] = &self.payload;
        self.chunk.clear();
        // Every entry takes at least a flag byte and a pc varint byte.
        self.chunk.reserve(entry_count.min(payload_len / 2));
        let (mut last_pc, mut last_addr) = (0u64, 0u64);
        let mut pos = 0usize;
        for _ in 0..entry_count {
            let flags = *payload.get(pos).ok_or_else(|| BinfmtError::CorruptChunk {
                chunk,
                reason: "payload ends mid-entry".to_string(),
            })?;
            pos += 1;
            if flags & !0x1F != 0 {
                return Err(BinfmtError::CorruptChunk {
                    chunk,
                    reason: format!("reserved flag bits set: {flags:#04x}"),
                });
            }
            let delta =
                read_varint(payload, &mut pos).ok_or_else(|| BinfmtError::CorruptChunk {
                    chunk,
                    reason: "bad pc varint".to_string(),
                })?;
            last_pc = last_pc.wrapping_add(zigzag_decode(delta) as u64);
            let access = if flags & 0x01 != 0 {
                let delta =
                    read_varint(payload, &mut pos).ok_or_else(|| BinfmtError::CorruptChunk {
                        chunk,
                        reason: "bad address varint".to_string(),
                    })?;
                last_addr = last_addr.wrapping_add(zigzag_decode(delta) as u64);
                Some(DataAccess {
                    addr: last_addr,
                    size: (flags >> 2) + 1,
                    is_write: flags & 0x02 != 0,
                })
            } else {
                None
            };
            self.chunk.push(TraceEntry {
                pc: last_pc,
                access,
            });
        }
        if pos != payload_len {
            return Err(BinfmtError::CorruptChunk {
                chunk,
                reason: format!("{} trailing payload bytes", payload_len - pos),
            });
        }
        self.pos = 0;
        self.next_chunk += 1;
        self.peak_resident = self.peak_resident.max(self.chunk.len());
        Ok(true)
    }
}

impl<R: Read> Iterator for BinaryReplay<R> {
    type Item = TraceEntry;

    fn next(&mut self) -> Option<TraceEntry> {
        if self.pos >= self.chunk.len() {
            if self.finished {
                return None;
            }
            match self.load_chunk() {
                Ok(true) => {}
                Ok(false) => {
                    self.finished = true;
                    return None;
                }
                Err(e) => {
                    // Entries decoded before the damage in this chunk
                    // are never handed out.
                    self.chunk.clear();
                    self.pos = 0;
                    self.error = Some(e);
                    self.finished = true;
                    return None;
                }
            }
        }
        let entry = self.chunk[self.pos];
        self.pos += 1;
        self.entries_read += 1;
        Some(entry)
    }
}

/// Reads until `buf` is full or the source ends, returning how many
/// bytes arrived; the caller types a short count as the truncation it
/// is (header, chunk frame or payload).
fn read_full<R: Read>(source: &mut R, buf: &mut [u8]) -> Result<usize, BinfmtError> {
    let mut got = 0;
    while got < buf.len() {
        match source.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(BinfmtError::Io(e.to_string())),
        }
    }
    Ok(got)
}

/// A streaming scan's summary of one binary trace, as printed by
/// `hyvec trace info`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSummary {
    /// Format version of the file.
    pub version: u16,
    /// Total entries across all chunks.
    pub entries: u64,
    /// Number of chunks.
    pub chunks: u64,
    /// Total bytes, header and framing included.
    pub bytes: u64,
    /// The largest `entry_count` any chunk declared — the reader's
    /// peak resident entry count when replaying this file.
    pub max_chunk_entries: usize,
}

/// Fully decodes `source` in constant memory, returning the summary
/// or the first decode error — the validation pass behind
/// `hyvec trace info`.
///
/// # Errors
///
/// Returns the first [`BinfmtError`] the stream raises.
pub fn summarize<R: Read>(source: R) -> Result<TraceSummary, BinfmtError> {
    let mut reader = BinaryReplay::from_reader(source)?;
    for _ in reader.by_ref() {}
    if let Some(e) = reader.take_error() {
        return Err(e);
    }
    Ok(TraceSummary {
        version: FORMAT_VERSION,
        entries: reader.entries_read(),
        chunks: reader.next_chunk,
        bytes: reader.bytes_read(),
        max_chunk_entries: reader.peak_resident_entries(),
    })
}

/// Transcodes replay-format text into a binary trace.
///
/// # Errors
///
/// Returns [`ReplayError::Malformed`] (line number and offending
/// token included) on the first bad line.
pub fn text_to_binary(text: &str, chunk_entries: usize) -> Result<Vec<u8>, ReplayError> {
    let mut writer = TraceWriter::with_chunk_entries(Vec::new(), chunk_entries);
    for (i, raw) in text.lines().enumerate() {
        if let Some(entry) = parse_trace_line(i + 1, raw)? {
            // hyvec-lint: allow(no-panic, "Vec<u8> as io::Write is infallible")
            writer.push(entry).expect("writing to a Vec cannot fail");
        }
    }
    // hyvec-lint: allow(no-panic, "Vec<u8> as io::Write is infallible")
    let (bytes, _) = writer.finish().expect("writing to a Vec cannot fail");
    Ok(bytes)
}

/// Transcodes a binary trace back into replay-format text. The round
/// trip is exact: `binary_to_text(&text_to_binary(t, n)?) == t` for
/// any canonical trace text `t` (one entry per line, no comments).
///
/// # Errors
///
/// Returns the first [`BinfmtError`] the stream raises.
pub fn binary_to_text(bytes: &[u8]) -> Result<String, BinfmtError> {
    let mut reader = BinaryReplay::from_reader(bytes)?;
    let mut out = String::new();
    for e in reader.by_ref() {
        write_entry_line(&mut out, e);
    }
    if let Some(e) = reader.take_error() {
        return Err(e);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::write_trace;
    use crate::Benchmark;

    fn sample(n: u64, seed: u64) -> Vec<TraceEntry> {
        Benchmark::Mpeg2C.trace(n, seed).collect()
    }

    #[test]
    fn entry_round_trip_is_exact() {
        let entries = sample(10_000, 3);
        for chunk_entries in [1, 7, 512, DEFAULT_CHUNK_ENTRIES, 1 << 20] {
            let (bytes, stats) = encode_entries(entries.iter().copied(), chunk_entries);
            assert_eq!(stats.entries, 10_000, "chunk={chunk_entries}");
            assert_eq!(stats.bytes, bytes.len() as u64);
            let mut reader = BinaryReplay::from_bytes(bytes).unwrap();
            let decoded: Vec<_> = reader.by_ref().collect();
            assert!(reader.error().is_none(), "chunk={chunk_entries}");
            assert_eq!(decoded, entries, "chunk={chunk_entries}");
        }
    }

    #[test]
    fn text_binary_text_round_trip_is_byte_exact() {
        let text = write_trace(sample(5_000, 9));
        let bytes = text_to_binary(&text, 256).unwrap();
        assert_eq!(binary_to_text(&bytes).unwrap(), text);
    }

    #[test]
    fn binary_is_smaller_than_text() {
        let entries = sample(50_000, 1);
        let text = write_trace(entries.iter().copied());
        let (bytes, _) = encode_entries(entries.iter().copied(), DEFAULT_CHUNK_ENTRIES);
        assert!(
            bytes.len() * 2 < text.len(),
            "binary {} bytes vs text {} bytes: the delta encoding stopped paying",
            bytes.len(),
            text.len()
        );
    }

    #[test]
    fn reader_memory_is_bounded_by_chunk_size() {
        let entries = sample(60_000, 5);
        let (bytes, stats) = encode_entries(entries.iter().copied(), 512);
        assert_eq!(stats.chunks, 60_000_f64.div_euclid(512.0) as u64 + 1);
        let mut reader = BinaryReplay::from_bytes(bytes).unwrap();
        let n = reader.by_ref().count();
        assert_eq!(n, 60_000);
        assert!(reader.error().is_none());
        assert_eq!(reader.peak_resident_entries(), 512);
    }

    #[test]
    fn extreme_values_survive() {
        let entries = vec![
            TraceEntry {
                pc: u64::MAX,
                access: Some(DataAccess {
                    addr: 0,
                    size: 8,
                    is_write: true,
                }),
            },
            TraceEntry {
                pc: 0,
                access: Some(DataAccess {
                    addr: u64::MAX,
                    size: 1,
                    is_write: false,
                }),
            },
            TraceEntry {
                pc: 1 << 63,
                access: None,
            },
        ];
        let (bytes, _) = encode_entries(entries.iter().copied(), 2);
        let mut reader = BinaryReplay::from_bytes(bytes).unwrap();
        let decoded: Vec<_> = reader.by_ref().collect();
        assert!(reader.error().is_none());
        assert_eq!(decoded, entries);
    }

    #[test]
    fn empty_trace_is_a_valid_file() {
        let (bytes, stats) = encode_entries(std::iter::empty(), 64);
        assert_eq!((stats.entries, stats.chunks), (0, 0));
        assert_eq!(bytes.len(), 8);
        let mut reader = BinaryReplay::from_bytes(bytes).unwrap();
        assert_eq!(reader.next(), None);
        assert!(reader.error().is_none());
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let (mut bytes, _) = encode_entries(sample(10, 1), 4);
        bytes[0] = b'X';
        match BinaryReplay::from_bytes(bytes.clone()) {
            Err(BinfmtError::BadMagic { found }) => assert_eq!(found[0], b'X'),
            other => panic!("expected BadMagic, got {other:?}"),
        }
        bytes[0] = b'H';
        bytes[4] = 99;
        match BinaryReplay::from_bytes(bytes) {
            Err(BinfmtError::BadVersion { found }) => assert_eq!(found, 99),
            other => panic!("expected BadVersion, got {other:?}"),
        }
        match BinaryReplay::from_bytes(vec![b'H', b'Y']) {
            Err(BinfmtError::TruncatedHeader) => {}
            other => panic!("expected TruncatedHeader, got {other:?}"),
        }
    }

    #[test]
    fn truncated_chunks_are_typed_and_stop_iteration() {
        let entries = sample(1_000, 2);
        let (bytes, _) = encode_entries(entries.iter().copied(), 100);
        // Cut mid-payload of some chunk: decoded prefix is whole
        // chunks only, and the error names the truncation.
        let cut = bytes.len() - 37;
        let mut reader = BinaryReplay::from_bytes(bytes[..cut].to_vec()).unwrap();
        let decoded: Vec<_> = reader.by_ref().collect();
        assert!(decoded.len() < entries.len());
        assert_eq!(decoded.len() % 100, 0, "partial chunks must not leak");
        assert_eq!(&entries[..decoded.len()], &decoded[..]);
        match reader.take_error() {
            Some(BinfmtError::TruncatedChunk {
                chunk,
                expected,
                got,
            }) => {
                assert_eq!(chunk, decoded.len() as u64 / 100);
                // The cut lands inside the last chunk's payload, and
                // every byte before it is counted.
                assert!(got > 0, "got {got} of {expected}");
                assert_eq!(expected - got, 37, "got {got} of {expected}");
            }
            other => panic!("expected TruncatedChunk, got {other:?}"),
        }
        // Cut mid-frame, too: 4 of the frame's 8 bytes are present.
        let mut reader = BinaryReplay::from_bytes(bytes[..12].to_vec()).unwrap();
        assert_eq!(reader.by_ref().count(), 0);
        assert_eq!(
            reader.error(),
            Some(&BinfmtError::TruncatedChunk {
                chunk: 0,
                expected: 8,
                got: 4,
            })
        );
    }

    #[test]
    fn corrupt_chunks_are_typed() {
        // Zero entry count.
        let mut bytes = encode_entries(std::iter::empty(), 4).0;
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        let mut reader = BinaryReplay::from_bytes(bytes).unwrap();
        assert_eq!(reader.by_ref().count(), 0);
        assert!(matches!(
            reader.error(),
            Some(BinfmtError::CorruptChunk { chunk: 0, .. })
        ));

        // Absurd entry count is rejected before allocation.
        let mut bytes = encode_entries(std::iter::empty(), 4).0;
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&8u32.to_le_bytes());
        let mut reader = BinaryReplay::from_bytes(bytes).unwrap();
        assert_eq!(reader.by_ref().count(), 0);
        assert!(matches!(
            reader.error(),
            Some(BinfmtError::CorruptChunk { .. })
        ));

        // Reserved flag bits.
        let (mut bytes, _) = encode_entries(sample(4, 1), 4);
        bytes[16] |= 0x80; // first entry's flags byte (8 header + 8 frame)
        let mut reader = BinaryReplay::from_bytes(bytes).unwrap();
        assert_eq!(reader.by_ref().count(), 0);
        match reader.error() {
            Some(BinfmtError::CorruptChunk { chunk: 0, reason }) => {
                assert!(reason.contains("reserved"), "{reason}");
            }
            other => panic!("expected CorruptChunk, got {other:?}"),
        }

        // Trailing payload bytes.
        let one = vec![TraceEntry {
            pc: 0x1000,
            access: None,
        }];
        let (mut bytes, _) = encode_entries(one, 4);
        let len_at = 12; // payload_len field of chunk 0
        let len = u32::from_le_bytes(bytes[len_at..len_at + 4].try_into().unwrap());
        bytes[len_at..len_at + 4].copy_from_slice(&(len + 1).to_le_bytes());
        bytes.push(0);
        let mut reader = BinaryReplay::from_bytes(bytes).unwrap();
        assert_eq!(reader.by_ref().count(), 0);
        match reader.error() {
            Some(BinfmtError::CorruptChunk { reason, .. }) => {
                assert!(reason.contains("trailing"), "{reason}");
            }
            other => panic!("expected CorruptChunk, got {other:?}"),
        }
        // The entries decoded before the damage stay unread, also when
        // the caller keeps pulling after the error.
        assert_eq!(reader.next(), None);
    }

    /// The bytes a reader's two buffers hold reserved.
    fn buffer_bytes<R: Read>(reader: &BinaryReplay<R>) -> usize {
        reader.payload.capacity() + reader.chunk.capacity() * std::mem::size_of::<TraceEntry>()
    }

    proptest::proptest! {
        /// A frame declaring up to the largest chunk (and past it) over
        /// a short, arbitrary payload: the buffers grow with the bytes
        /// that arrive, never to the declared sizes, and stay within
        /// one chunk's worst-case payload.
        #[test]
        fn declared_sizes_do_not_size_the_buffers(
            count_sel in 0u64..4,
            len_sel in 0u64..4,
            payload in proptest::prop::collection::vec(proptest::prelude::any::<u8>(), 0..256),
        ) {
            let count = [1, 4096, MAX_CHUNK_ENTRIES, MAX_CHUNK_ENTRIES + 1][count_sel as usize];
            let payload_len =
                [0, 2 * count, MAX_ENTRY_BYTES * count, MAX_ENTRY_BYTES * count + 1]
                    [len_sel as usize];
            let mut bytes = MAGIC.to_vec();
            bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
            bytes.extend_from_slice(&[0, 0]);
            bytes.extend_from_slice(&(count as u32).to_le_bytes());
            bytes.extend_from_slice(&(payload_len as u32).to_le_bytes());
            bytes.extend_from_slice(&payload);
            let mut reader = BinaryReplay::from_bytes(bytes).unwrap();
            let _ = reader.by_ref().count();
            let held = buffer_bytes(&reader);
            proptest::prop_assert!(held <= MAX_CHUNK_ENTRIES * MAX_ENTRY_BYTES, "{} bytes", held);
            proptest::prop_assert!(held <= 16 * payload.len() + 1024, "{} bytes", held);
        }
    }

    #[test]
    fn summarize_reports_the_stream_shape() {
        let (bytes, stats) = encode_entries(sample(1_234, 4), 100);
        let s = summarize(&bytes[..]).unwrap();
        assert_eq!(s.version, FORMAT_VERSION);
        assert_eq!(s.entries, 1_234);
        assert_eq!(s.chunks, 13);
        assert_eq!(s.bytes, stats.bytes);
        assert_eq!(s.max_chunk_entries, 100);
        assert!(matches!(
            summarize(&bytes[..bytes.len() - 3]),
            Err(BinfmtError::TruncatedChunk { .. })
        ));
    }

    #[test]
    fn missing_file_reports_io() {
        match BinaryReplay::from_file("/nonexistent/trace.bin") {
            Err(BinfmtError::Io(msg)) => assert!(msg.contains("trace.bin")),
            other => panic!("expected Io, got {other:?}"),
        }
    }

    #[test]
    fn error_display_is_informative() {
        let messages = [
            BinfmtError::BadMagic { found: *b"text" }.to_string(),
            BinfmtError::BadVersion { found: 7 }.to_string(),
            BinfmtError::TruncatedHeader.to_string(),
            BinfmtError::TruncatedChunk {
                chunk: 3,
                expected: 64,
                got: 10,
            }
            .to_string(),
            BinfmtError::CorruptChunk {
                chunk: 2,
                reason: "bad pc varint".to_string(),
            }
            .to_string(),
            BinfmtError::Io("oops".to_string()).to_string(),
        ];
        for (m, needle) in
            messages
                .iter()
                .zip(["magic", "version 7", "header", "chunk 3", "chunk 2", "oops"])
        {
            assert!(m.contains(needle), "{m:?} missing {needle:?}");
        }
    }

    #[test]
    fn constant_memory_over_ten_million_entries() {
        // The acceptance-scale contract on the reader itself: a 10M+
        // entry stream decodes with peak resident entries pinned to
        // the chunk bound. (The full System::run replay at this scale
        // is the release-gated test in hyvec-cachesim.)
        let n: u64 = 10_000_000;
        let gen = |i: u64| TraceEntry {
            pc: 0x1000 + (i % 512) * 4,
            access: i.is_multiple_of(3).then(|| DataAccess {
                addr: 0x2000_0000 + (i % 4096) * 8,
                size: 4,
                is_write: i.is_multiple_of(5),
            }),
        };
        let (bytes, stats) = encode_entries((0..n).map(gen), DEFAULT_CHUNK_ENTRIES);
        assert_eq!(stats.entries, n);
        let mut reader = BinaryReplay::from_bytes(bytes).unwrap();
        let mut count = 0u64;
        for (i, e) in reader.by_ref().enumerate() {
            debug_assert_eq!(e, gen(i as u64));
            count += 1;
        }
        assert!(reader.error().is_none());
        assert_eq!(count, n);
        assert!(
            reader.peak_resident_entries() <= DEFAULT_CHUNK_ENTRIES,
            "peak resident {} exceeds the chunk bound {}",
            reader.peak_resident_entries(),
            DEFAULT_CHUNK_ENTRIES
        );
    }
}
