//! Hostile input: the untrusted parsers fed arbitrary bytes.
//!
//! `BinaryReplay` (with and without a valid header in front), the text
//! `Replay` parser and the daemon's `read_request` must each end in a
//! typed error or a clean end — never a panic. Memory stays bounded by
//! the input rather than by sizes it merely declares: the binary
//! reader's resident entries are checked here, its buffer capacities
//! by the unit tests in `binfmt.rs`, and the HTTP reader's buffers are
//! capped by its line, header and body limits, which the last test
//! drives past.

use hyvec_mediabench::binfmt::{
    encode_entries, BinaryReplay, FORMAT_VERSION, MAGIC, MAX_CHUNK_ENTRIES, MAX_ENTRY_BYTES,
};
use hyvec_mediabench::{Benchmark, Replay};
use hyvec_serve::http::{
    read_request, RequestError, MAX_BODY_BYTES, MAX_HEADER_COUNT, MAX_HEADER_LINE_BYTES,
    MAX_REQUEST_LINE_BYTES,
};
use proptest::prelude::*;
use std::io::Cursor;

/// The 8-byte header of a valid binary trace.
fn header() -> Vec<u8> {
    let mut bytes = MAGIC.to_vec();
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&[0, 0]);
    bytes
}

/// Drains a binary trace from `bytes`. Returns how it ended — `Ok`
/// with the entries read, or the typed error — and the most decoded
/// entries the reader held at once. A reader must stop at its first
/// error.
fn drain_binary(bytes: &[u8]) -> (Result<u64, String>, usize) {
    let mut reader = match BinaryReplay::from_reader(Cursor::new(bytes)) {
        Ok(reader) => reader,
        Err(e) => return (Err(e.to_string()), 0),
    };
    let entries = reader.by_ref().count() as u64;
    assert!(reader.next().is_none(), "a finished reader stays finished");
    let resident = reader.peak_resident_entries();
    match reader.take_error() {
        Some(e) => (Err(e.to_string()), resident),
        None => (Ok(entries), resident),
    }
}

/// An entry takes at least a flag byte and a pc varint byte, so `len`
/// input bytes can hold at most this many.
fn entries_in(len: usize) -> usize {
    len / 2
}

proptest! {
    /// Arbitrary bytes: almost always a header error, never a panic.
    #[test]
    fn binary_replay_survives_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let (_, resident) = drain_binary(&bytes);
        prop_assert!(resident <= entries_in(bytes.len()));
    }

    /// A valid header followed by arbitrary chunk bytes.
    #[test]
    fn binary_replay_survives_arbitrary_chunks(
        tail in prop::collection::vec(any::<u8>(), 0..1024),
    ) {
        let mut bytes = header();
        bytes.extend_from_slice(&tail);
        let (_, resident) = drain_binary(&bytes);
        prop_assert!(resident <= entries_in(bytes.len()));
    }

    /// A valid header and a chunk frame declaring sizes up to and past
    /// the limits, over a short payload: a typed error unless the
    /// payload is really there.
    #[test]
    fn binary_replay_does_not_trust_declared_sizes(
        count_sel in 0u64..4,
        len_sel in 0u64..4,
        payload in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let count = [1, 4096, MAX_CHUNK_ENTRIES, MAX_CHUNK_ENTRIES + 1][count_sel as usize];
        let payload_len = [0, 2 * count, MAX_ENTRY_BYTES * count, MAX_ENTRY_BYTES * count + 1]
            [len_sel as usize];
        let mut bytes = header();
        bytes.extend_from_slice(&(count as u32).to_le_bytes());
        bytes.extend_from_slice(&(payload_len as u32).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let (ended, resident) = drain_binary(&bytes);
        prop_assert!(ended.is_err() || payload_len <= payload.len(), "{:?}", ended);
        prop_assert!(resident <= entries_in(payload.len()));
    }

    /// A valid trace with arbitrary bytes overwritten: a typed error or
    /// the entries up to the damage, never a panic.
    #[test]
    fn binary_replay_survives_corrupted_traces(
        len in 1u64..300,
        seed in 0u64..100,
        hits in prop::collection::vec((any::<usize>(), any::<u8>()), 1..8),
        cut in any::<usize>(),
    ) {
        let entries: Vec<_> = Benchmark::GsmC.trace(len, seed).collect();
        let (mut bytes, _) = encode_entries(entries.iter().copied(), 64);
        for (at, byte) in hits {
            let at = 8 + at % (bytes.len() - 8);
            bytes[at] = byte;
        }
        bytes.truncate(8 + cut % (bytes.len() - 7));
        let (ended, resident) = drain_binary(&bytes);
        if let Ok(read) = ended {
            prop_assert!(read <= len, "{} entries from a {}-entry trace", read, len);
        }
        prop_assert!(resident <= entries_in(bytes.len()));
    }

    /// The text parser over arbitrary (lossily decoded) bytes.
    #[test]
    fn text_replay_survives_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(replay) = Replay::from_text(&text) {
            prop_assert!(replay.len() <= text.lines().count());
        }
    }

    /// The text parser over lines built from the format's own tokens,
    /// which reach the field-level checks far more often.
    #[test]
    fn text_replay_survives_near_valid_lines(
        lines in prop::collection::vec(
            prop::collection::vec(0usize..12, 0..6),
            0..24,
        ),
    ) {
        const TOKENS: [&str; 12] = [
            "1f", "r", "w", "ffffffffffffffffff", "8", "9", "0", "-1", "#", "x", "\t", "",
        ];
        let text: String = lines
            .iter()
            .map(|line| {
                let words: Vec<&str> = line.iter().map(|&t| TOKENS[t]).collect();
                words.join(" ") + "\n"
            })
            .collect();
        match Replay::from_text(&text) {
            Ok(replay) => prop_assert!(replay.len() <= lines.len()),
            Err(e) => prop_assert!(e.to_string().contains("malformed trace line")),
        }
    }

    /// One request read from arbitrary bytes.
    #[test]
    fn http_request_survives_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let mut reader = Cursor::new(&bytes[..]);
        let result = read_request(&mut reader);
        prop_assert!(reader.position() as usize <= bytes.len());
        if let Err(RequestError::Malformed(detail)) = &result {
            prop_assert!(!detail.is_empty());
        }
    }

    /// Requests built from HTTP's own tokens: request lines, headers,
    /// escapes and bodies that reach every check in the parser.
    #[test]
    fn http_request_survives_near_valid_messages(
        parts in prop::collection::vec(0usize..20, 0..24),
        body in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        const TOKENS: [&str; 20] = [
            "GET", " ", "/report/fig3/A", "?seed=1&format=json", "%zz", "%e9", "+", "HTTP/1.1",
            "HTTP/1.0", "\r\n", "\n", "Content-Length: 5", "Content-Length: 99999999999",
            "Transfer-Encoding: chunked", "Connection: close", "If-None-Match: *", ":",
            "get", "\u{e9}", "?",
        ];
        let mut bytes: Vec<u8> = parts.iter().flat_map(|&t| TOKENS[t].bytes()).collect();
        bytes.extend_from_slice(&body);
        let mut reader = Cursor::new(&bytes[..]);
        match read_request(&mut reader) {
            Ok(request) => {
                prop_assert!(request.method.bytes().all(|b| b.is_ascii_uppercase()));
                prop_assert!(request.path.starts_with('/'));
            }
            Err(RequestError::Malformed(detail)) => prop_assert!(!detail.is_empty()),
            Err(RequestError::Closed) => prop_assert!(bytes.is_empty()),
            Err(RequestError::Io(_)) => {}
        }
    }
}

/// Lines past the request-line and header limits, too many headers
/// and an oversize body: each a typed error, raised before the reader
/// buffers past its limit.
#[test]
fn http_limits_hold_against_oversize_input() {
    let long = |n: usize| "a".repeat(n);
    let cases = [
        format!("GET /{} HTTP/1.1\r\n\r\n", long(MAX_REQUEST_LINE_BYTES)),
        format!(
            "GET / HTTP/1.1\r\nX: {}\r\n\r\n",
            long(MAX_HEADER_LINE_BYTES)
        ),
        format!(
            "GET / HTTP/1.1\r\n{}\r\n",
            "X: y\r\n".repeat(MAX_HEADER_COUNT + 1)
        ),
        format!(
            "GET / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        ),
    ];
    for case in cases {
        let result = read_request(&mut Cursor::new(case.as_bytes()));
        assert!(
            matches!(result, Err(RequestError::Malformed(_))),
            "{:?}",
            &case[..40]
        );
    }
}
