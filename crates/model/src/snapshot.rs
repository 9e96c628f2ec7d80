//! Versioned binary snapshot format for deterministic checkpoint /
//! restore.
//!
//! A snapshot captures *full* engine state at a tick boundary — event
//! queues, per-peer counters, RNG stream positions, fault / repair /
//! scenario state — so that restoring at time T and running to the end
//! is **bitwise identical** to the uninterrupted run. The format is a
//! hand-rolled length-prefixed binary container (the workspace has no
//! serialization dependency, and floats must round-trip bit-exactly,
//! which text formats make easy to get wrong):
//!
//! ```text
//! [magic "SPSN"][version u32][engine u8][payload_len u64]
//! [payload bytes…][fnv1a-64 of payload]
//! ```
//!
//! * All integers are little-endian; `f64` travels as `to_bits()`.
//! * `version` is the schema version: a reader rejects any snapshot
//!   whose version it does not understand with a named error rather
//!   than misinterpreting the payload.
//! * `engine` names the producing engine (fast / reference / scale) so
//!   a restore cannot feed one engine's state into another.
//! * The trailing FNV-1a fingerprint detects corruption and
//!   truncation before any field is decoded.
//!
//! Engines own their payload layout; this module owns the container,
//! the primitive encodings ([`SnapWriter`] / [`SnapReader`]), and the
//! error taxonomy ([`SnapshotError`]).

/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"SPSN";

/// Current snapshot schema version. Bump on any payload layout change;
/// readers reject snapshots from other versions by name. Version 2
/// added the overload-control policy and runtime state; version 3
/// dropped the five fixed engine delays from the encoded options;
/// version 4 made a churn snapshot's header config, options, and one
/// scenario plan, which alone carries the faults, repair policy, and
/// overload policy.
pub const SNAPSHOT_VERSION: u32 = 4;

/// Engine tag: the fast churn engine (`sp_sim::engine::Simulation`).
pub const ENGINE_FAST: u8 = 1;
/// Engine tag: the reference churn engine
/// (`sp_sim::reference::ReferenceSimulation`).
pub const ENGINE_REFERENCE: u8 = 2;
/// Engine tag: the sharded scale engine
/// (`sp_sim::shard::ShardedSimulation`).
pub const ENGINE_SCALE: u8 = 3;

/// FNV-1a 64-bit offset basis (shared with the campaign fingerprint).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a hash of a byte slice — the snapshot integrity fingerprint.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Why a snapshot could not be read. Every variant names the problem
/// precisely so an operator can tell a stale file from a damaged one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The data ends before the container (or a payload field) does.
    Truncated {
        /// What the reader was decoding when the bytes ran out.
        context: &'static str,
    },
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// The snapshot was written by a schema version this reader does
    /// not understand.
    UnsupportedVersion {
        /// Version recorded in the snapshot header.
        found: u32,
        /// Version this reader supports.
        supported: u32,
    },
    /// The snapshot was produced by a different engine than the one
    /// restoring it.
    WrongEngine {
        /// Engine tag recorded in the header.
        found: u8,
        /// Engine tag the caller expected.
        expected: u8,
    },
    /// The payload fingerprint does not match: corruption.
    Corrupt {
        /// Fingerprint recorded in the snapshot trailer.
        recorded: u64,
        /// Fingerprint recomputed over the payload.
        computed: u64,
    },
    /// The payload decoded, but a field value is impossible (an enum
    /// tag out of range, a length that contradicts another field).
    Malformed(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated { context } => {
                write!(f, "snapshot truncated while reading {context}")
            }
            SnapshotError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "snapshot schema version {found} is not supported (this build reads version {supported})"
            ),
            SnapshotError::WrongEngine { found, expected } => write!(
                f,
                "snapshot was written by engine {} but engine {} is restoring it",
                engine_name(*found),
                engine_name(*expected)
            ),
            SnapshotError::Corrupt { recorded, computed } => write!(
                f,
                "snapshot fingerprint mismatch (recorded {recorded:#018x}, computed {computed:#018x}): file is corrupt"
            ),
            SnapshotError::Malformed(msg) => write!(f, "malformed snapshot payload: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Human name for an engine tag (unknown tags print numerically).
pub fn engine_name(tag: u8) -> String {
    match tag {
        ENGINE_FAST => "fast".into(),
        ENGINE_REFERENCE => "reference".into(),
        ENGINE_SCALE => "scale".into(),
        other => format!("unknown({other})"),
    }
}

/// Builds a snapshot payload field by field, then seals it into the
/// versioned, fingerprinted container.
#[derive(Debug, Default)]
pub struct SnapWriter {
    payload: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> SnapWriter {
        SnapWriter::default()
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.payload.push(v);
    }

    /// Appends a `u16` (little-endian).
    pub fn u16(&mut self, v: u16) {
        self.payload.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32` (little-endian).
    pub fn u32(&mut self, v: u32) {
        self.payload.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` (little-endian).
    pub fn u64(&mut self, v: u64) {
        self.payload.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (sizes must survive 32/64-bit
    /// round trips unchanged).
    pub fn len(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an `f64` bit-exactly.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.len(v.len());
        self.payload.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Seals the payload into the full container for `engine`.
    pub fn seal(self, engine: u8) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.payload.len() + 25);
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.push(engine);
        out.extend_from_slice(&(self.payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.payload);
        out.extend_from_slice(&fnv1a(&self.payload).to_le_bytes());
        out
    }
}

/// Reads a sealed snapshot: header and fingerprint are validated up
/// front, then payload fields decode in writer order.
#[derive(Debug)]
pub struct SnapReader<'a> {
    payload: &'a [u8],
    pos: usize,
    engine: u8,
}

impl<'a> SnapReader<'a> {
    /// Validates the container (magic, version, length, fingerprint)
    /// and positions the reader at the start of the payload.
    pub fn open(data: &'a [u8]) -> Result<SnapReader<'a>, SnapshotError> {
        if data.len() < 4 {
            return Err(SnapshotError::Truncated { context: "magic" });
        }
        if data[..4] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        if data.len() < 17 {
            return Err(SnapshotError::Truncated { context: "header" });
        }
        let version = u32::from_le_bytes([data[4], data[5], data[6], data[7]]);
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                supported: SNAPSHOT_VERSION,
            });
        }
        let engine = data[8];
        let len = u64::from_le_bytes([
            data[9], data[10], data[11], data[12], data[13], data[14], data[15], data[16],
        ]) as usize;
        let body_end = 17usize.checked_add(len).ok_or(SnapshotError::Malformed(
            "payload length overflows".to_string(),
        ))?;
        if data.len() < body_end + 8 {
            return Err(SnapshotError::Truncated { context: "payload" });
        }
        let payload = &data[17..body_end];
        let recorded = u64::from_le_bytes(
            data[body_end..body_end + 8]
                .try_into()
                .expect("slice is exactly 8 bytes"),
        );
        let computed = fnv1a(payload);
        if recorded != computed {
            return Err(SnapshotError::Corrupt { recorded, computed });
        }
        Ok(SnapReader {
            payload,
            pos: 0,
            engine,
        })
    }

    /// The engine tag recorded in the header.
    pub fn engine(&self) -> u8 {
        self.engine
    }

    /// Peeks at the engine tag of a sealed snapshot without validating
    /// the payload (for dispatching a restore to the right engine).
    pub fn peek_engine(data: &[u8]) -> Result<u8, SnapshotError> {
        if data.len() < 4 {
            return Err(SnapshotError::Truncated { context: "magic" });
        }
        if data[..4] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        if data.len() < 9 {
            return Err(SnapshotError::Truncated { context: "header" });
        }
        let version = u32::from_le_bytes([data[4], data[5], data[6], data[7]]);
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                supported: SNAPSHOT_VERSION,
            });
        }
        Ok(data[8])
    }

    /// Errors unless the header's engine tag is `expected`.
    pub fn expect_engine(&self, expected: u8) -> Result<(), SnapshotError> {
        if self.engine != expected {
            return Err(SnapshotError::WrongEngine {
                found: self.engine,
                expected,
            });
        }
        Ok(())
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.payload.len())
            .ok_or(SnapshotError::Truncated { context })?;
        let slice = &self.payload[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self, context: &'static str) -> Result<u8, SnapshotError> {
        Ok(self.take(1, context)?[0])
    }

    /// Reads a `u16`.
    pub fn u16(&mut self, context: &'static str) -> Result<u16, SnapshotError> {
        let b = self.take(2, context)?;
        Ok(u16::from_le_bytes(b.try_into().expect("2-byte slice")))
    }

    /// Reads a `u32`.
    pub fn u32(&mut self, context: &'static str) -> Result<u32, SnapshotError> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4-byte slice")))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self, context: &'static str) -> Result<u64, SnapshotError> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// Reads a length written by [`SnapWriter::len`], bounds-checked
    /// against the remaining payload so a hostile length cannot force
    /// a huge allocation.
    pub fn len(&mut self, context: &'static str) -> Result<usize, SnapshotError> {
        let v = self.u64(context)?;
        if v > self.payload.len() as u64 {
            return Err(SnapshotError::Malformed(format!(
                "{context}: length {v} exceeds payload size"
            )));
        }
        Ok(v as usize)
    }

    /// Reads an `f64` bit-exactly.
    pub fn f64(&mut self, context: &'static str) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64(context)?))
    }

    /// Reads a `bool`; any byte other than 0 or 1 is malformed.
    pub fn bool(&mut self, context: &'static str) -> Result<bool, SnapshotError> {
        match self.u8(context)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapshotError::Malformed(format!(
                "{context}: invalid bool byte {other}"
            ))),
        }
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self, context: &'static str) -> Result<&'a [u8], SnapshotError> {
        let n = self.len(context)?;
        self.take(n, context)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self, context: &'static str) -> Result<&'a str, SnapshotError> {
        std::str::from_utf8(self.bytes(context)?)
            .map_err(|_| SnapshotError::Malformed(format!("{context}: invalid UTF-8")))
    }

    /// Errors unless every payload byte has been consumed — trailing
    /// garbage means writer and reader disagree about the layout.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.pos != self.payload.len() {
            return Err(SnapshotError::Malformed(format!(
                "{} unread byte(s) at end of payload",
                self.payload.len() - self.pos
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.f64(-0.0);
        w.f64(f64::MAX);
        w.bool(true);
        w.str("snapshot");
        w.bytes(&[1, 2, 3]);
        w.seal(ENGINE_FAST)
    }

    #[test]
    fn round_trips_every_primitive() {
        let data = sample();
        let mut r = SnapReader::open(&data).unwrap();
        assert_eq!(r.engine(), ENGINE_FAST);
        r.expect_engine(ENGINE_FAST).unwrap();
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u32("b").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64("c").unwrap(), u64::MAX - 1);
        assert_eq!(r.f64("d").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64("e").unwrap(), f64::MAX);
        assert!(r.bool("f").unwrap());
        assert_eq!(r.str("g").unwrap(), "snapshot");
        assert_eq!(r.bytes("h").unwrap(), &[1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn rejects_bad_magic() {
        let mut data = sample();
        data[0] = b'X';
        assert_eq!(
            SnapReader::open(&data).unwrap_err(),
            SnapshotError::BadMagic
        );
        assert_eq!(
            SnapReader::peek_engine(&data).unwrap_err(),
            SnapshotError::BadMagic
        );
    }

    #[test]
    fn rejects_future_version_by_name() {
        let mut data = sample();
        data[4] = (SNAPSHOT_VERSION + 1) as u8;
        match SnapReader::open(&data).unwrap_err() {
            SnapshotError::UnsupportedVersion { found, supported } => {
                assert_eq!(found, SNAPSHOT_VERSION + 1);
                assert_eq!(supported, SNAPSHOT_VERSION);
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn rejects_wrong_engine() {
        let data = sample();
        let r = SnapReader::open(&data).unwrap();
        let err = r.expect_engine(ENGINE_SCALE).unwrap_err();
        assert_eq!(
            err,
            SnapshotError::WrongEngine {
                found: ENGINE_FAST,
                expected: ENGINE_SCALE
            }
        );
        assert!(err.to_string().contains("scale"));
    }

    #[test]
    fn detects_corruption_of_any_payload_byte() {
        let clean = sample();
        for i in 17..clean.len() - 8 {
            let mut data = clean.clone();
            data[i] ^= 0x40;
            match SnapReader::open(&data).unwrap_err() {
                SnapshotError::Corrupt { .. } => {}
                other => panic!("byte {i}: wrong error {other:?}"),
            }
        }
    }

    #[test]
    fn detects_truncation_at_every_length() {
        let clean = sample();
        for n in 0..clean.len() {
            let err = SnapReader::open(&clean[..n]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { .. } | SnapshotError::Corrupt { .. }
                ),
                "truncation to {n} bytes gave {err:?}"
            );
        }
    }

    #[test]
    fn field_level_truncation_is_named() {
        let mut w = SnapWriter::new();
        w.u32(5);
        let data = w.seal(ENGINE_SCALE);
        let mut r = SnapReader::open(&data).unwrap();
        assert_eq!(r.u32("first").unwrap(), 5);
        let err = r.u64("missing-field").unwrap_err();
        assert_eq!(
            err,
            SnapshotError::Truncated {
                context: "missing-field"
            }
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut w = SnapWriter::new();
        w.u64(1);
        w.u64(2);
        let data = w.seal(ENGINE_REFERENCE);
        let mut r = SnapReader::open(&data).unwrap();
        let _ = r.u64("only").unwrap();
        assert!(matches!(r.finish(), Err(SnapshotError::Malformed(_))));
    }

    #[test]
    fn hostile_lengths_cannot_force_allocation() {
        let mut w = SnapWriter::new();
        w.u64(u64::MAX); // a "length" far beyond the payload
        let data = w.seal(ENGINE_FAST);
        let mut r = SnapReader::open(&data).unwrap();
        assert!(matches!(r.len("evil"), Err(SnapshotError::Malformed(_))));
    }

    #[test]
    fn peek_engine_reads_only_the_header() {
        let data = sample();
        assert_eq!(SnapReader::peek_engine(&data).unwrap(), ENGINE_FAST);
        // Corrupt payload: peek still answers (it is for dispatch, the
        // full open() does the integrity work).
        let mut corrupt = data.clone();
        let last = corrupt.len() - 10;
        corrupt[last] ^= 0xFF;
        assert_eq!(SnapReader::peek_engine(&corrupt).unwrap(), ENGINE_FAST);
        assert!(SnapReader::open(&corrupt).is_err());
    }
}
