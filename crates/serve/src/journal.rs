//! Journal segment framing and the torn-tail recovery scanner.
//!
//! A segment is a run of frames, followed by zero padding when the
//! segment was preallocated:
//!
//! ```text
//! [len: u32 LE] [crc32(payload): u32 LE] [payload: len bytes]
//! ```
//!
//! The CRC covers the payload only; `len` is implicitly validated by
//! the CRC (a corrupted length either lands the CRC on garbage bytes
//! or walks off the end of the file, both of which read as a bad
//! frame). Payloads are never empty, so a zero `len` field marks the
//! end of the written part of a preallocated (zero-filled) segment; a
//! segment that grows by appending simply ends at EOF. [`scan`] reads
//! both layouts.
//!
//! On recovery, [`scan`] walks frames from the start and stops at the
//! first one that doesn't check out. Everything before that point is a
//! **valid prefix** and is replayed. How the segment ends decides what
//! the rest is:
//!
//! * **clean** — EOF, or a zero header with only zeros after it;
//! * **torn tail** — a short or CRC-failing last frame with only zeros
//!   after it: an append the crash interrupted;
//! * **corruption** — a CRC failure or a zero header followed by any
//!   non-zero byte, or an impossible length.
//!
//! A damaged segment is truncated at the valid prefix: frames after a
//! broken one can't be located reliably. This is the standard WAL
//! argument: the only writes that can be lost are ones never
//! acknowledged by an fsync, so truncation never discards an
//! acknowledged event.

use crate::crc::crc32;

/// Bytes of header per frame (length + checksum).
pub const FRAME_HEADER: usize = 8;

/// Upper bound on a single frame's payload. Real events are tens of
/// bytes; the cap exists so a corrupted length field can't drive a
/// multi-gigabyte allocation during recovery.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Fills in the header of a frame whose payload was written after
/// [`FRAME_HEADER`] placeholder bytes: `frame` is the whole frame, and
/// its length and checksum go into the first eight bytes. Writers
/// encode in place this way, into a buffer they reuse.
///
/// # Panics
/// Panics if the payload is empty (a zero length marks the end of a
/// segment) or longer than [`MAX_FRAME`].
pub fn seal_frame(frame: &mut [u8]) {
    let (header, payload) = frame.split_at_mut(FRAME_HEADER);
    assert!(!payload.is_empty(), "frame payload must not be empty");
    assert!(
        payload.len() <= MAX_FRAME as usize,
        "frame payload {} exceeds MAX_FRAME",
        payload.len()
    );
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
}

/// Wraps `payload` in a length-prefixed checksummed frame; see
/// [`seal_frame`].
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(&[0; FRAME_HEADER]);
    out.extend_from_slice(payload);
    seal_frame(&mut out);
    out
}

/// Why [`scan`] stopped where it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanEnd {
    /// Every byte belonged to a valid frame, or to the zero padding
    /// after the last one.
    Clean,
    /// The segment ended mid-frame: a partial header, a payload
    /// shorter than its declared length, or a last frame failing its
    /// checksum with only zeros after it. The classic torn write.
    TornTail,
    /// A frame failed its checksum, or a zero header appeared, with
    /// non-zero bytes after it; or a frame declared an impossible
    /// length. Corruption rather than a torn append.
    CorruptFrame,
}

/// Result of scanning one segment: the decoded payloads of the valid
/// prefix and an accounting of what (if anything) was cut.
#[derive(Debug)]
pub struct ScannedSegment {
    /// Payloads of every frame in the valid prefix, in order.
    pub frames: Vec<Vec<u8>>,
    /// Byte length of the valid prefix (the truncation point).
    pub valid_len: usize,
    /// Bytes past `valid_len` that must be discarded: zero for a clean
    /// segment (its zero padding is kept), the whole rest of the file
    /// for a damaged one.
    pub bytes_truncated: usize,
    /// How the scan terminated.
    pub end: ScanEnd,
}

impl ScannedSegment {
    /// Whether the segment needs truncation.
    pub fn is_damaged(&self) -> bool {
        self.end != ScanEnd::Clean
    }
}

fn all_zero(bytes: &[u8]) -> bool {
    bytes.iter().all(|&b| b == 0)
}

/// Walks `bytes` frame by frame, returning the valid prefix and the
/// classification of its end. Never panics and never allocates more
/// than [`MAX_FRAME`] per frame, whatever the input.
pub fn scan(bytes: &[u8]) -> ScannedSegment {
    let mut frames = Vec::new();
    let mut at = 0usize;
    let end = loop {
        let rest = &bytes[at..];
        if rest.len() < FRAME_HEADER {
            break if all_zero(rest) {
                ScanEnd::Clean
            } else {
                ScanEnd::TornTail
            };
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
        let crc = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
        if len == 0 {
            break if all_zero(rest) {
                ScanEnd::Clean
            } else {
                ScanEnd::CorruptFrame
            };
        }
        if len > MAX_FRAME {
            break ScanEnd::CorruptFrame;
        }
        let frame_end = FRAME_HEADER + len as usize;
        if rest.len() < frame_end {
            break ScanEnd::TornTail;
        }
        let payload = &rest[FRAME_HEADER..frame_end];
        if crc32(payload) != crc {
            break if all_zero(&rest[frame_end..]) {
                ScanEnd::TornTail
            } else {
                ScanEnd::CorruptFrame
            };
        }
        frames.push(payload.to_vec());
        at += frame_end;
    };
    let bytes_truncated = match end {
        ScanEnd::Clean => 0,
        ScanEnd::TornTail | ScanEnd::CorruptFrame => bytes.len() - at,
    };
    ScannedSegment {
        frames,
        valid_len: at,
        bytes_truncated,
        end,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn segment(payloads: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        for p in payloads {
            out.extend_from_slice(&encode_frame(p));
        }
        out
    }

    #[test]
    fn clean_segment_scans_fully() {
        let bytes = segment(&[b"one", b"two", b"3", b"three"]);
        let s = scan(&bytes);
        assert_eq!(s.end, ScanEnd::Clean);
        assert_eq!(s.valid_len, bytes.len());
        assert_eq!(s.bytes_truncated, 0);
        assert_eq!(
            s.frames,
            vec![
                b"one".to_vec(),
                b"two".to_vec(),
                b"3".to_vec(),
                b"three".to_vec()
            ]
        );
    }

    #[test]
    fn empty_segment_is_clean() {
        let s = scan(&[]);
        assert_eq!(s.end, ScanEnd::Clean);
        assert!(s.frames.is_empty());
    }

    #[test]
    fn every_torn_tail_length_yields_the_valid_prefix() {
        let bytes = segment(&[b"alpha", b"beta"]);
        let first = encode_frame(b"alpha").len();
        for cut in 0..bytes.len() {
            let s = scan(&bytes[..cut]);
            if cut < first {
                assert!(s.frames.is_empty(), "cut={cut}");
                assert_eq!(s.valid_len, 0, "cut={cut}");
            } else if cut < bytes.len() {
                assert_eq!(s.frames, vec![b"alpha".to_vec()], "cut={cut}");
                assert_eq!(s.valid_len, first, "cut={cut}");
            }
            if cut == 0 || cut == first {
                assert_eq!(s.end, ScanEnd::Clean, "cut={cut}");
            } else {
                assert_eq!(s.end, ScanEnd::TornTail, "cut={cut}");
                assert_eq!(s.bytes_truncated, cut - s.valid_len, "cut={cut}");
            }
        }
    }

    #[test]
    fn bit_flip_anywhere_is_caught_and_truncated_at_frame_start() {
        let bytes = segment(&[b"alpha", b"beta"]);
        let first = encode_frame(b"alpha").len();
        for byte in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[byte] ^= 0x01;
            let s = scan(&bad);
            // The flip lands in frame 0 or frame 1; the valid prefix is
            // everything before the damaged frame.
            let expect_valid = if byte < first { 0 } else { first };
            assert_eq!(s.valid_len, expect_valid, "flip at {byte}");
            assert!(s.is_damaged(), "flip at {byte}");
        }
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_payload_is_rejected() {
        encode_frame(b"");
    }

    /// A preallocated segment: frames, then zeros to the physical end.
    fn padded(payloads: &[&[u8]], zeros: usize) -> Vec<u8> {
        let mut out = segment(payloads);
        out.resize(out.len() + zeros, 0);
        out
    }

    #[test]
    fn zero_padding_after_the_last_frame_is_a_clean_end() {
        let frames = segment(&[b"alpha", b"beta"]);
        // Padding shorter than a header, exactly a header, and longer.
        for zeros in [0, 3, FRAME_HEADER, 4096] {
            let s = scan(&padded(&[b"alpha", b"beta"], zeros));
            assert_eq!(s.end, ScanEnd::Clean, "zeros={zeros}");
            assert_eq!(s.valid_len, frames.len(), "zeros={zeros}");
            assert_eq!(s.bytes_truncated, 0, "zeros={zeros}");
            assert_eq!(s.frames, vec![b"alpha".to_vec(), b"beta".to_vec()]);
        }
        let s = scan(&[0u8; 64]);
        assert_eq!(s.end, ScanEnd::Clean);
        assert!(s.frames.is_empty());
    }

    #[test]
    fn a_partly_written_last_frame_before_zeros_is_a_torn_tail() {
        // The crash model of a preallocated segment: the last frame's
        // unsynced bytes survive only as a prefix, the rest stays zero.
        let first = encode_frame(b"alpha");
        let last = encode_frame(b"beta");
        for keep in 0..last.len() {
            let mut bytes = first.clone();
            bytes.extend_from_slice(&last[..keep]);
            bytes.resize(first.len() + 256, 0);
            let s = scan(&bytes);
            assert_eq!(s.frames, vec![b"alpha".to_vec()], "keep={keep}");
            assert_eq!(s.valid_len, first.len(), "keep={keep}");
            if keep == 0 {
                assert_eq!(s.end, ScanEnd::Clean);
                assert_eq!(s.bytes_truncated, 0);
            } else {
                assert_eq!(s.end, ScanEnd::TornTail, "keep={keep}");
                assert_eq!(s.bytes_truncated, 256, "keep={keep}");
            }
        }
        // A whole last frame that fails its CRC, zeros after it.
        let mut bytes = padded(&[b"alpha", b"beta"], 100);
        bytes[first.len() + FRAME_HEADER] ^= 0x01;
        let s = scan(&bytes);
        assert_eq!(s.end, ScanEnd::TornTail);
        assert_eq!(s.valid_len, first.len());
    }

    #[test]
    fn non_zero_bytes_after_a_bad_frame_or_a_zero_header_are_corruption() {
        let first = encode_frame(b"alpha").len();
        // A CRC failure with a later frame after it.
        let mut bytes = padded(&[b"alpha", b"beta", b"gamma"], 64);
        bytes[first + FRAME_HEADER] ^= 0x01;
        let s = scan(&bytes);
        assert_eq!(s.end, ScanEnd::CorruptFrame);
        assert_eq!(s.valid_len, first);
        assert_eq!(s.bytes_truncated, bytes.len() - first);

        // A CRC failure in the last frame, one stray byte deep in the
        // padding.
        let mut bytes = padded(&[b"alpha", b"beta"], 64);
        bytes[first + FRAME_HEADER] ^= 0x01;
        *bytes.last_mut().unwrap() = 0x80;
        assert_eq!(scan(&bytes).end, ScanEnd::CorruptFrame);

        // A zeroed header with frames after it.
        let mut bytes = padded(&[b"alpha", b"beta", b"gamma"], 64);
        bytes[first..first + FRAME_HEADER].fill(0);
        let s = scan(&bytes);
        assert_eq!(s.end, ScanEnd::CorruptFrame);
        assert_eq!(s.frames, vec![b"alpha".to_vec()]);

        // A zero header followed by garbage in the padding.
        let mut bytes = padded(&[b"alpha"], 64);
        bytes[first + 20] = 0xff;
        let s = scan(&bytes);
        assert_eq!(s.end, ScanEnd::CorruptFrame);
        assert_eq!(s.valid_len, first);
    }

    #[test]
    fn absurd_length_is_corrupt_not_an_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(b"whatever");
        let s = scan(&bytes);
        assert_eq!(s.end, ScanEnd::CorruptFrame);
        assert_eq!(s.valid_len, 0);
    }
}
