//! The trace-log wire format: a compact, append-only binary encoding of
//! [`PipelineEvent`] streams.
//!
//! Layout:
//!
//! ```text
//! magic            "specrun-trace v1\n"                  (17 bytes)
//! block*           varint(payload_len) ‖ payload ‖ fnv1a64(payload) LE
//! ```
//!
//! Each block's payload holds up to [`BLOCK_EVENTS`] events, one after
//! another:
//!
//! ```text
//! event            tag u8 ‖ varint(zigzag(cycle − prev_cycle)) ‖ fields
//! ```
//!
//! Cycle numbers are delta-encoded against the previous event *across the
//! whole stream* (zigzag so an arbitrary — even non-monotonic — event
//! sequence round-trips); PCs, addresses and line indices are plain
//! varints; booleans pack into flag bytes; [`HitLevel`] gets a stable
//! 2-bit encoding. The framing mirrors the campaign-journal discipline
//! (PR 7): the digest comes *last*, so
//!
//! * a **torn tail** (crash mid-append) fails to complete its final block
//!   and is silently dropped — the intact prefix stays readable, and
//!   [`DecodedTrace::torn_tail`] says it happened;
//! * **mid-file corruption** lands inside a *complete* block, fails that
//!   block's digest, and is a hard [`TraceError`] — never a silently
//!   shortened trace.

use std::fmt;

use specrun_cpu::probe::PipelineEvent;
use specrun_mem::HitLevel;

/// First bytes of every trace log; a version bump changes this string.
pub const TRACE_MAGIC: &[u8] = b"specrun-trace v1\n";

/// Events per framed block. Fixed (never host-dependent), so encoding the
/// same event stream always produces byte-identical logs.
pub const BLOCK_EVENTS: usize = 1024;

const TAG_RUNAHEAD_ENTER: u8 = 1;
const TAG_RUNAHEAD_EXIT: u8 = 2;
const TAG_SQUASH: u8 = 3;
const TAG_COMMIT: u8 = 4;
const TAG_BRANCH_RESOLVED: u8 = 5;
const TAG_TRANSIENT_LOAD: u8 = 6;
const TAG_CACHE_FILL: u8 = 7;
const TAG_FLUSH: u8 = 8;

/// FNV-1a over `bytes` — the same digest the campaign journal uses.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn get_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut value: u64 = 0;
    for shift in 0..10 {
        let &byte = bytes.get(*pos)?;
        *pos += 1;
        let chunk = (byte & 0x7f) as u64;
        if shift == 9 && byte > 1 {
            return None; // an 11th significant bit cannot fit a u64
        }
        value |= chunk << (shift * 7);
        if byte & 0x80 == 0 {
            return Some(value);
        }
    }
    None
}

fn zigzag(delta: i64) -> u64 {
    ((delta << 1) ^ (delta >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn level_code(level: HitLevel) -> u8 {
    match level {
        HitLevel::L1 => 0,
        HitLevel::L2 => 1,
        HitLevel::L3 => 2,
        HitLevel::Mem => 3,
    }
}

fn level_from(code: u8) -> Option<HitLevel> {
    match code {
        0 => Some(HitLevel::L1),
        1 => Some(HitLevel::L2),
        2 => Some(HitLevel::L3),
        3 => Some(HitLevel::Mem),
        _ => None,
    }
}

fn put_event(out: &mut Vec<u8>, event: &PipelineEvent, prev_cycle: &mut u64) {
    let cycle = event.cycle();
    let delta = zigzag(cycle.wrapping_sub(*prev_cycle) as i64);
    *prev_cycle = cycle;
    match *event {
        PipelineEvent::RunaheadEnter { stall_pc, .. } => {
            out.push(TAG_RUNAHEAD_ENTER);
            put_varint(out, delta);
            put_varint(out, stall_pc);
        }
        PipelineEvent::RunaheadExit { window, .. } => {
            out.push(TAG_RUNAHEAD_EXIT);
            put_varint(out, delta);
            put_varint(out, window);
        }
        PipelineEvent::Squash { squashed, .. } => {
            out.push(TAG_SQUASH);
            put_varint(out, delta);
            put_varint(out, squashed);
        }
        PipelineEvent::Commit { pc, .. } => {
            out.push(TAG_COMMIT);
            put_varint(out, delta);
            put_varint(out, pc);
        }
        PipelineEvent::BranchResolved { pc, taken, mispredicted, .. } => {
            out.push(TAG_BRANCH_RESOLVED);
            put_varint(out, delta);
            put_varint(out, pc);
            out.push(taken as u8 | (mispredicted as u8) << 1);
        }
        PipelineEvent::TransientLoad { pc, addr, tainted, .. } => {
            out.push(TAG_TRANSIENT_LOAD);
            put_varint(out, delta);
            put_varint(out, pc);
            put_varint(out, addr);
            out.push(tainted as u8);
        }
        PipelineEvent::CacheFill { level, line, transient, .. } => {
            out.push(TAG_CACHE_FILL);
            put_varint(out, delta);
            put_varint(out, line);
            out.push(level_code(level) | (transient as u8) << 2);
        }
        PipelineEvent::Flush { line, .. } => {
            out.push(TAG_FLUSH);
            put_varint(out, delta);
            put_varint(out, line);
        }
    }
}

fn get_event(
    bytes: &[u8],
    pos: &mut usize,
    prev_cycle: &mut u64,
) -> Result<PipelineEvent, &'static str> {
    let tag = *bytes.get(*pos).ok_or("event truncated at tag")?;
    *pos += 1;
    let delta = get_varint(bytes, pos).ok_or("bad cycle delta varint")?;
    let cycle = prev_cycle.wrapping_add(unzigzag(delta) as u64);
    *prev_cycle = cycle;
    let mut varint = |what| get_varint(bytes, pos).ok_or(what);
    match tag {
        TAG_RUNAHEAD_ENTER => {
            Ok(PipelineEvent::RunaheadEnter { cycle, stall_pc: varint("bad stall_pc")? })
        }
        TAG_RUNAHEAD_EXIT => {
            Ok(PipelineEvent::RunaheadExit { cycle, window: varint("bad window")? })
        }
        TAG_SQUASH => Ok(PipelineEvent::Squash { cycle, squashed: varint("bad squashed")? }),
        TAG_COMMIT => Ok(PipelineEvent::Commit { cycle, pc: varint("bad pc")? }),
        TAG_BRANCH_RESOLVED => {
            let pc = varint("bad pc")?;
            let flags = *bytes.get(*pos).ok_or("branch flags truncated")?;
            *pos += 1;
            if flags > 3 {
                return Err("unknown branch flag bits");
            }
            Ok(PipelineEvent::BranchResolved {
                cycle,
                pc,
                taken: flags & 1 != 0,
                mispredicted: flags & 2 != 0,
            })
        }
        TAG_TRANSIENT_LOAD => {
            let pc = varint("bad pc")?;
            let addr = varint("bad addr")?;
            let flags = *bytes.get(*pos).ok_or("load flags truncated")?;
            *pos += 1;
            if flags > 1 {
                return Err("unknown load flag bits");
            }
            Ok(PipelineEvent::TransientLoad { cycle, pc, addr, tainted: flags != 0 })
        }
        TAG_CACHE_FILL => {
            let line = varint("bad line")?;
            let flags = *bytes.get(*pos).ok_or("fill flags truncated")?;
            *pos += 1;
            if flags > 7 {
                return Err("unknown fill flag bits");
            }
            let level = level_from(flags & 3).ok_or("bad hit level")?;
            Ok(PipelineEvent::CacheFill { cycle, level, line, transient: flags & 4 != 0 })
        }
        TAG_FLUSH => Ok(PipelineEvent::Flush { cycle, line: varint("bad line")? }),
        _ => Err("unknown event tag"),
    }
}

/// Encodes `events` into a complete trace log (magic + framed blocks).
/// The encoding is a pure function of the event sequence: same events,
/// same bytes, on every host.
pub fn encode_events(events: &[PipelineEvent]) -> Vec<u8> {
    let mut out = Vec::with_capacity(TRACE_MAGIC.len() + events.len() * 4);
    out.extend_from_slice(TRACE_MAGIC);
    let mut prev_cycle = 0u64;
    for chunk in events.chunks(BLOCK_EVENTS) {
        let mut payload = Vec::with_capacity(chunk.len() * 4);
        for event in chunk {
            put_event(&mut payload, event, &mut prev_cycle);
        }
        put_varint(&mut out, payload.len() as u64);
        let digest = fnv1a(&payload);
        out.extend_from_slice(&payload);
        out.extend_from_slice(&digest.to_le_bytes());
    }
    out
}

/// A decoding failure that is *not* a torn tail: the log is corrupt and
/// must be treated as unreadable (`specrun-lab` maps these to exit 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The file does not start with [`TRACE_MAGIC`].
    Header,
    /// A complete block's payload does not match its recorded digest:
    /// mid-file corruption.
    DigestMismatch {
        /// Zero-based index of the corrupt block.
        block: usize,
    },
    /// A digest-valid block's payload failed to parse (impossible from
    /// this encoder; a crafted or version-skewed log).
    Corrupt {
        /// Zero-based index of the unparseable block.
        block: usize,
        /// What failed.
        reason: &'static str,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Header => write!(f, "not a specrun trace (bad magic)"),
            TraceError::DigestMismatch { block } => {
                write!(f, "trace corrupt: digest mismatch in block {block}")
            }
            TraceError::Corrupt { block, reason } => {
                write!(f, "trace corrupt: block {block}: {reason}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// A successfully decoded trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedTrace {
    /// The recorded event stream, in emission order.
    pub events: Vec<PipelineEvent>,
    /// Whether an incomplete final block was dropped (crash mid-append).
    /// The events above are the intact prefix.
    pub torn_tail: bool,
    /// Complete blocks decoded.
    pub blocks: usize,
}

/// Decodes a trace log produced by [`encode_events`].
///
/// A torn tail — the final block cut off mid-length, mid-payload or
/// mid-digest — is tolerated: the intact prefix is returned with
/// [`DecodedTrace::torn_tail`] set. Anything else wrong with the body is
/// a hard [`TraceError`].
pub fn decode_events(bytes: &[u8]) -> Result<DecodedTrace, TraceError> {
    if !bytes.starts_with(TRACE_MAGIC) {
        return Err(TraceError::Header);
    }
    let mut pos = TRACE_MAGIC.len();
    let mut events = Vec::new();
    let mut prev_cycle = 0u64;
    let mut blocks = 0usize;
    while pos < bytes.len() {
        let mut cursor = pos;
        let Some(len) = get_varint(bytes, &mut cursor) else {
            return Ok(DecodedTrace { events, torn_tail: true, blocks });
        };
        let remaining = (bytes.len() - cursor) as u64;
        if len + 8 > remaining {
            // The block never finished being written (its digest would
            // have come last) — drop it, keep the prefix.
            return Ok(DecodedTrace { events, torn_tail: true, blocks });
        }
        let payload = &bytes[cursor..cursor + len as usize];
        cursor += len as usize;
        let recorded = u64::from_le_bytes(bytes[cursor..cursor + 8].try_into().unwrap());
        cursor += 8;
        if fnv1a(payload) != recorded {
            return Err(TraceError::DigestMismatch { block: blocks });
        }
        let mut p = 0usize;
        while p < payload.len() {
            match get_event(payload, &mut p, &mut prev_cycle) {
                Ok(event) => events.push(event),
                Err(reason) => return Err(TraceError::Corrupt { block: blocks, reason }),
            }
        }
        blocks += 1;
        pos = cursor;
    }
    Ok(DecodedTrace { events, torn_tail: false, blocks })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<PipelineEvent> {
        vec![
            PipelineEvent::Commit { cycle: 3, pc: 0x1000 },
            PipelineEvent::RunaheadEnter { cycle: 10, stall_pc: 0x1008 },
            PipelineEvent::TransientLoad { cycle: 12, pc: 0x1010, addr: 0xb_0000, tainted: true },
            PipelineEvent::CacheFill { cycle: 12, level: HitLevel::Mem, line: 77, transient: true },
            PipelineEvent::BranchResolved {
                cycle: 13,
                pc: 0x1018,
                taken: true,
                mispredicted: true,
            },
            PipelineEvent::Squash { cycle: 400, squashed: 9 },
            PipelineEvent::RunaheadExit { cycle: 400, window: 120 },
            PipelineEvent::Flush { cycle: 401, line: 77 },
            PipelineEvent::CacheFill { cycle: 402, level: HitLevel::L2, line: 5, transient: false },
        ]
    }

    #[test]
    fn round_trips_every_event_kind() {
        let events = sample_events();
        let decoded = decode_events(&encode_events(&events)).unwrap();
        assert_eq!(decoded.events, events);
        assert!(!decoded.torn_tail);
        assert_eq!(decoded.blocks, 1);
    }

    #[test]
    fn empty_log_round_trips() {
        let bytes = encode_events(&[]);
        assert_eq!(bytes, TRACE_MAGIC);
        let decoded = decode_events(&bytes).unwrap();
        assert!(decoded.events.is_empty());
        assert!(!decoded.torn_tail);
        assert_eq!(decoded.blocks, 0);
    }

    #[test]
    fn encoding_is_deterministic_and_compact() {
        let events = sample_events();
        let a = encode_events(&events);
        let b = encode_events(&events);
        assert_eq!(a, b);
        // Delta + varint encoding: well under the 40-byte in-memory size.
        assert!(a.len() - TRACE_MAGIC.len() < events.len() * 12, "{} bytes", a.len());
    }

    #[test]
    fn multi_block_streams_carry_cycle_deltas_across_blocks() {
        let events: Vec<PipelineEvent> = (0..BLOCK_EVENTS as u64 * 2 + 37)
            .map(|i| PipelineEvent::Commit { cycle: i * 3 + 1_000_000, pc: 0x1000 + i * 8 })
            .collect();
        let decoded = decode_events(&encode_events(&events)).unwrap();
        assert_eq!(decoded.events, events);
        assert_eq!(decoded.blocks, 3);
    }

    #[test]
    fn torn_tail_is_tolerated_at_every_truncation_point() {
        let events = sample_events();
        let full = encode_events(&events);
        // (A file cut exactly at the magic is just an empty log.)
        for cut in TRACE_MAGIC.len() + 1..full.len() {
            let decoded = decode_events(&full[..cut]).expect("torn tail is not an error");
            assert!(decoded.torn_tail, "cut at {cut} must read as torn");
            assert!(decoded.events.is_empty(), "the only block is incomplete");
        }
        // Torn *second* block: the first block's events survive.
        let many: Vec<PipelineEvent> = (0..BLOCK_EVENTS as u64 + 10)
            .map(|i| PipelineEvent::Commit { cycle: i, pc: i })
            .collect();
        let bytes = encode_events(&many);
        let decoded = decode_events(&bytes[..bytes.len() - 3]).unwrap();
        assert!(decoded.torn_tail);
        assert_eq!(decoded.blocks, 1);
        assert_eq!(decoded.events, many[..BLOCK_EVENTS]);
    }

    #[test]
    fn mid_file_corruption_is_a_hard_error() {
        let events = sample_events();
        let mut bytes = encode_events(&events);
        let payload_mid = TRACE_MAGIC.len() + 6; // inside the first payload
        bytes[payload_mid] ^= 0x40;
        assert_eq!(decode_events(&bytes), Err(TraceError::DigestMismatch { block: 0 }));
    }

    #[test]
    fn corrupting_the_final_complete_block_is_still_hard() {
        // Unlike a torn tail, a *complete* final block with a bad digest is
        // corruption, exactly as the journal treats its final line.
        let events = sample_events();
        let mut bytes = encode_events(&events);
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff; // flip the digest itself
        assert_eq!(decode_events(&bytes), Err(TraceError::DigestMismatch { block: 0 }));
    }

    #[test]
    fn bad_magic_is_rejected() {
        assert_eq!(decode_events(b"not a trace at all"), Err(TraceError::Header));
        assert_eq!(decode_events(&[]), Err(TraceError::Header));
    }

    #[test]
    fn unknown_tag_with_valid_digest_is_corrupt() {
        let mut bytes = TRACE_MAGIC.to_vec();
        let payload = vec![99u8, 0u8]; // tag 99, delta 0
        put_varint(&mut bytes, payload.len() as u64);
        let digest = fnv1a(&payload);
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&digest.to_le_bytes());
        assert_eq!(
            decode_events(&bytes),
            Err(TraceError::Corrupt { block: 0, reason: "unknown event tag" })
        );
    }

    #[test]
    fn varint_round_trips_extremes() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
        for d in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(d)), d);
        }
    }

    #[test]
    fn non_monotonic_cycles_round_trip() {
        let events = vec![
            PipelineEvent::Commit { cycle: u64::MAX, pc: 1 },
            PipelineEvent::Commit { cycle: 0, pc: 2 },
            PipelineEvent::Commit { cycle: 5, pc: 3 },
            PipelineEvent::Commit { cycle: 2, pc: 4 },
        ];
        assert_eq!(decode_events(&encode_events(&events)).unwrap().events, events);
    }
}
