//! Byte-level framing of the **v3 binary segment store** — the reader
//! and writer under [`SweepStore`]'s binary format.
//!
//! This module knows nothing about sweeps: it frames opaque canonical
//! strings into length-prefixed, checksummed records, packs records
//! into fixed-capacity segments, and concatenates segments into a
//! container file. The normative byte-level specification — authoritative
//! over this implementation, and detailed enough to reimplement the
//! reader independently — is `docs/store-format.md`; the layout in
//! brief:
//!
//! ```text
//! file    := file-header segment*
//! segment := plain-segment | packed-segment
//! plain   := "WSEG" segment-header record-block
//! packed  := "WSGZ" packed-header wlz(hex_pack(columnar-block))
//! record  := body-len:u32 body          (body self-checksummed)
//! ```
//!
//! * **Records** carry the same six fields a v1/v2 text line does (tag,
//!   content hash, engine version, algorithm, canonical spec, canonical
//!   outcome) — see [`EncodedRecord`] — with the two canonical-string
//!   payloads individually [`wlz`]-compressed when that shrinks them.
//! * **Segments** are capacity-bounded: a writer starts a new segment
//!   when the next record would push the current record-block past the
//!   configured capacity (a single oversized record gets a segment of
//!   its own). Each segment header states its record count and block
//!   length and checksums the whole block, so any segment is verifiable
//!   — and skippable — without touching its neighbours.
//! * **Packed segments** close the gap per-payload compression cannot
//!   see: across a block of records the canonical spec strings are
//!   near-identical, so the writer also encodes each sealed block
//!   **columnar** — all tags, then all content hashes, then all spec
//!   canons back to back, and so on (see [`encode_packed_block`]) —
//!   with no per-record checksums or compression framing (the segment
//!   checksum covers the whole block), compresses that block wholesale
//!   ([`wlz::hex_pack`] then [`wlz::compress`]), and keeps whichever
//!   framing is smaller — deterministically, ties to plain. Grouping
//!   like fields puts each canon right after its near-twin from the
//!   previous record, which is exactly the redundancy an LZ window
//!   exploits; on sketch-record stores this is what turns ~1 KB/point
//!   into ~100 B/point. Canonical text, series included, packs smaller
//!   in practice; a block stays plain when its payloads do not
//!   compress, and only then are its records framed and checksummed.
//! * **Append-friendly**: the file header does not state a segment
//!   count; readers scan segments to EOF. A checkpoint can therefore
//!   extend a store by appending one segment instead of rewriting the
//!   file — and a crash mid-append costs exactly the torn tail, which
//!   the reader recovers record-by-record.
//!
//! [`SweepStore`]: crate::cache::SweepStore

use crate::cache::{fnv64, fnv64_pair, fnv64_seeded, FNV_OFFSET};

/// First four bytes of every binary store file.
pub const FILE_MAGIC: [u8; 4] = *b"WLSB";

/// The binary *file-format* version (independent of the per-record
/// engine version), fifth byte of the file header. Version 2 added
/// packed (block-compressed) segments; the reader accepts version-1
/// files unchanged, since every version-1 byte sequence is also a
/// valid version-2 one.
pub const FILE_FORMAT_VERSION: u8 = 2;

/// The previous file-format version, still accepted by the reader.
pub const FILE_FORMAT_V1: u8 = 1;

/// Byte length of the file header: magic (4), format version (1),
/// reserved zeros (3), segment capacity (`u32` LE), reserved zeros (4).
pub const FILE_HEADER_LEN: usize = 16;

/// First four bytes of every *plain* (uncompressed) segment header.
pub const SEGMENT_MAGIC: [u8; 4] = *b"WSEG";

/// Byte length of a plain segment header: magic (4), ordinal (`u32`
/// LE), record count (`u32` LE), record-block length (`u32` LE),
/// FNV-1a of the record block (`u64` LE).
pub const SEGMENT_HEADER_LEN: usize = 24;

/// First four bytes of every *packed* (block-compressed) segment
/// header.
pub const SEGMENT_MAGIC_PACKED: [u8; 4] = *b"WSGZ";

/// Byte length of a packed segment header: magic (4), ordinal (`u32`
/// LE), record count (`u32` LE), stored block length (`u32` LE),
/// hex-packed intermediate length (`u32` LE), raw block length (`u32`
/// LE), FNV-1a of the *stored* (compressed) block (`u64` LE) — so a
/// packed segment verifies without decompressing, and each codec layer
/// decodes against its exact expected length.
pub const PACKED_SEGMENT_HEADER_LEN: usize = 32;

/// Default capacity of one segment's record block, in bytes. Part of a
/// file's canonical identity (it is written into the file header and
/// governs where segment boundaries fall), so two stores compare
/// byte-identical only when written at the same capacity.
pub const DEFAULT_SEGMENT_CAPACITY: u32 = 256 * 1024;

/// The `R` record tag: a scalar-summary record of a non-adversarial
/// spec.
pub const TAG_SCALAR: u8 = b'R';

/// The `S` record tag: an outcome whose encoding carries a series
/// payload (non-adversarial spec).
pub const TAG_SERIES: u8 = b'S';

/// The `A` record tag: a scalar-summary record of an *adversarial* spec
/// (one whose canonical form carries an `adversary:+…` block).
pub const TAG_ADV_SCALAR: u8 = b'A';

/// The `B` record tag: a series-bearing record of an adversarial spec.
pub const TAG_ADV_SERIES: u8 = b'B';

/// The `K` record tag: a scalar-plus-sketch record of a non-adversarial
/// spec (~100-byte streaming aggregate; see `wl_harness::sketch`).
pub const TAG_SKETCH: u8 = b'K';

/// The `L` record tag: a scalar-plus-sketch record of an adversarial
/// spec.
pub const TAG_ADV_SKETCH: u8 = b'L';

/// What a record carries beyond its scalar summary — the three payload
/// richness levels of the store's upgrade lattice
/// (scalar ⊑ sketch ⊑ series).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PayloadKind {
    /// Scalar summary only (`R`/`A`).
    Scalar,
    /// Scalar plus a mergeable skew sketch (`K`/`L`).
    Sketch,
    /// Scalar plus the full per-run series (`S`/`B`); the series
    /// subsumes the sketch, which is a pure derivation of it.
    Series,
}

/// The payload richness level encoded by `tag` (an unknown tag reads
/// as scalar; decoders reject those before this is asked).
#[must_use]
pub fn tag_payload_kind(tag: u8) -> PayloadKind {
    match tag {
        TAG_SERIES | TAG_ADV_SERIES => PayloadKind::Series,
        TAG_SKETCH | TAG_ADV_SKETCH => PayloadKind::Sketch,
        _ => PayloadKind::Scalar,
    }
}

/// The record tag for a `(payload kind, adversarial)` combination —
/// the single choice point both store writers and the service share.
#[must_use]
pub fn record_tag(kind: PayloadKind, adversarial: bool) -> u8 {
    match (kind, adversarial) {
        (PayloadKind::Scalar, false) => TAG_SCALAR,
        (PayloadKind::Series, false) => TAG_SERIES,
        (PayloadKind::Sketch, false) => TAG_SKETCH,
        (PayloadKind::Scalar, true) => TAG_ADV_SCALAR,
        (PayloadKind::Series, true) => TAG_ADV_SERIES,
        (PayloadKind::Sketch, true) => TAG_ADV_SKETCH,
    }
}

/// One store record at the *format* level: the six fields shared by the
/// text line formats (v1 `R`, v2 `S`) and the v3 binary record, with
/// the spec and outcome as opaque canonical strings.
///
/// This is the unit both stores read and write — and the unit in which
/// stale-engine records are retained across saves and carried through
/// text↔binary migration without their (possibly foreign-grammar)
/// outcome payloads ever being parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedRecord {
    /// Record kind: [`TAG_SCALAR`], [`TAG_SERIES`], [`TAG_ADV_SCALAR`],
    /// [`TAG_ADV_SERIES`], [`TAG_SKETCH`], or [`TAG_ADV_SKETCH`].
    pub tag: u8,
    /// The spec's content hash (the record key, with `algo`).
    pub content_hash: u64,
    /// The engine-semantics version that produced this record.
    pub engine_version: u32,
    /// The algorithm name, unescaped.
    pub algo: String,
    /// Canonical serialization of the spec.
    pub spec_canon: String,
    /// Canonical serialization of the outcome.
    pub outcome_canon: String,
}

/// Payload encoding id: raw bytes, untransformed.
pub const ENC_RAW: u8 = 0;
/// Payload encoding id: a [`wlz::compress`] stream.
pub const ENC_LZ: u8 = 1;
/// Payload encoding id: [`wlz::hex_pack`] then [`wlz::compress`] — the
/// winner on canonical text, whose bulk is 16-digit hex float
/// encodings that nibble-packing halves before LZ sees them.
pub const ENC_HEX_LZ: u8 = 2;

/// What the compression framing adds to a payload's encoded bytes: the
/// encoding byte, the raw length and the encoded length.
const PAYLOAD_FRAMING: usize = 1 + 4 + 4;

/// What [`ENC_HEX_LZ`] adds on top: the intermediate hex-packed length.
const HEX_FRAMING: usize = 4;

/// Appends `payload` to `out` in the compression framing: one encoding
/// byte, raw length, encoded length, encoded bytes — and, for
/// [`ENC_HEX_LZ`] only, the intermediate hex-packed length between the
/// two (each codec layer is decoded against its exact expected length,
/// so truncation and padding are detected at every layer). The writer
/// tries every encoding and keeps the smallest *total framing* (ties
/// break toward the lowest id), so the choice is deterministic and the
/// reader never guesses — it just dispatches on the byte.
fn push_payload(out: &mut Vec<u8>, payload: &[u8]) {
    let lz = wlz::compress(payload);
    let hex_packed = wlz::hex_pack(payload);
    let hex_lz = wlz::compress(&hex_packed);
    if payload.len() <= lz.len() && payload.len() <= hex_lz.len() + HEX_FRAMING {
        push_raw_payload(out, payload);
        return;
    }
    let len32 = |n: usize| u32::try_from(n).expect("payload < 4 GiB").to_le_bytes();
    let (enc, encoded) = if lz.len() <= hex_lz.len() + HEX_FRAMING {
        (ENC_LZ, &lz)
    } else {
        (ENC_HEX_LZ, &hex_lz)
    };
    out.push(enc);
    out.extend_from_slice(&len32(payload.len()));
    if enc == ENC_HEX_LZ {
        out.extend_from_slice(&len32(hex_packed.len()));
    }
    out.extend_from_slice(&len32(encoded.len()));
    out.extend_from_slice(encoded);
}

/// Appends `payload` to `out` framed [`ENC_RAW`]: the framing the writer
/// keeps for a payload no codec shrinks, and the one a put sends.
fn push_raw_payload(out: &mut Vec<u8>, payload: &[u8]) {
    let len = u32::try_from(payload.len())
        .expect("payload < 4 GiB")
        .to_le_bytes();
    out.push(ENC_RAW);
    out.extend_from_slice(&len);
    out.extend_from_slice(&len);
    out.extend_from_slice(payload);
}

/// Exactly how many bytes [`push_payload`] writes for `payload`, found
/// without writing them: its framing around the smallest of the raw
/// bytes and the lengths ([`wlz::compressed_len`]) of both codec streams,
/// the same three candidates it chooses among. `scratch` holds the
/// hex-packed payload, and is left holding it.
fn payload_len(payload: &[u8], scratch: &mut Vec<u8>) -> usize {
    let lz = wlz::compressed_len(payload);
    let hex_lz = wlz::compressed_len(hex_packed(payload, scratch)) + HEX_FRAMING;
    PAYLOAD_FRAMING + payload.len().min(lz).min(hex_lz)
}

/// The fewest bytes [`push_payload`] can write for `payload`: its
/// framing around the smallest of the raw bytes and the floors
/// ([`wlz::compressed_len_floor`]) of both codec streams. A lower bound,
/// since each encoded length is at least its floor. `scratch` as in
/// [`payload_len`].
fn payload_floor(payload: &[u8], scratch: &mut Vec<u8>) -> usize {
    let lz = wlz::compressed_len_floor(payload);
    let hex_lz = wlz::compressed_len_floor(hex_packed(payload, scratch)) + HEX_FRAMING;
    PAYLOAD_FRAMING + payload.len().min(lz).min(hex_lz)
}

/// `payload` hex-packed into `scratch`, in place of what it held.
fn hex_packed<'s>(payload: &[u8], scratch: &'s mut Vec<u8>) -> &'s [u8] {
    scratch.clear();
    wlz::hex_pack_into(payload, scratch);
    scratch
}

/// The crate's one little-endian byte cursor: every binary decoder (the
/// record and segment codecs here, the wire codecs in `service.rs`) reads
/// through it, with its codec-specific readers as functions over it.
/// Every read is bounds-checked; `None` = truncated.
pub(crate) struct Take<'a>(pub(crate) &'a [u8]);

impl<'a> Take<'a> {
    pub(crate) fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.0.len() < n {
            return None;
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Some(head)
    }
    pub(crate) fn u8(&mut self) -> Option<u8> {
        self.bytes(1).map(|b| b[0])
    }
    pub(crate) fn u16(&mut self) -> Option<u16> {
        Some(u16::from_le_bytes(self.bytes(2)?.try_into().ok()?))
    }
    pub(crate) fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.bytes(4)?.try_into().ok()?))
    }
    pub(crate) fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.bytes(8)?.try_into().ok()?))
    }
    pub(crate) fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }
    pub(crate) fn done(&self) -> bool {
        self.0.is_empty()
    }
}

/// What a record's frame adds to its body: a `u32` length, a `u64` checksum.
const FRAME_LEN: usize = 4 + 8;

/// Closes the frame at `out[start..]` (4 placeholder bytes, then a body):
/// appends the body's FNV-1a and writes the length covering both — the
/// framing of a record here and of a service frame on the wire.
pub(crate) fn close_frame(out: &mut Vec<u8>, start: usize) {
    let crc = fnv64(&out[start + 4..]);
    out.extend_from_slice(&crc.to_le_bytes());
    let len = u32::try_from(out.len() - start - 4).expect("record < 4 GiB");
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

/// Reads one encoded payload (see `push_payload`) off the cursor.
fn payload(c: &mut Take<'_>) -> Option<String> {
    let enc = c.u8()?;
    let raw_len = c.u32()? as usize;
    let raw = match enc {
        ENC_RAW => {
            let enc_len = c.u32()? as usize;
            if enc_len != raw_len {
                return None;
            }
            c.bytes(enc_len)?.to_vec()
        }
        ENC_LZ => {
            let enc_len = c.u32()? as usize;
            wlz::decompress(c.bytes(enc_len)?, raw_len)?
        }
        ENC_HEX_LZ => {
            let mid_len = c.u32()? as usize;
            let enc_len = c.u32()? as usize;
            wlz::decompress_hex(c.bytes(enc_len)?, mid_len, raw_len)?
        }
        _ => return None,
    };
    String::from_utf8(raw).ok()
}

impl EncodedRecord {
    /// Whether `tag` is one of the known record tags.
    #[must_use]
    pub fn known_tag(tag: u8) -> bool {
        matches!(
            tag,
            TAG_SCALAR | TAG_SERIES | TAG_ADV_SCALAR | TAG_ADV_SERIES | TAG_SKETCH | TAG_ADV_SKETCH
        )
    }

    /// Serializes this record: `u32` LE body length, then the
    /// self-checksummed body (see `docs/store-format.md` § "v3 record").
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + FRAME_LEN + self.outcome_canon.len() / 4);
        self.encode_into(&mut out);
        out
    }

    /// Appends [`encode`](Self::encode)'s bytes to `out` — for a caller
    /// that frames the record inside a larger buffer.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        self.frame_into(out, push_payload);
    }

    /// Appends the bytes of [`encode`](Self::encode) with both payloads
    /// framed [`ENC_RAW`] instead of in their smallest encodings: a
    /// valid record that costs no compression to write — how a put
    /// travels, since the server re-encodes what it stores.
    pub(crate) fn encode_raw_into(&self, out: &mut Vec<u8>) {
        self.frame_into(out, push_raw_payload);
    }

    /// How many bytes [`encode_raw_into`](Self::encode_raw_into) writes.
    pub(crate) fn raw_len(&self) -> usize {
        FRAME_LEN + self.body_ceiling()
    }

    /// [`encode_raw_into`](Self::encode_raw_into) that continues `outer`
    /// — the FNV-1a chain of an enclosing frame — over every byte the
    /// record spans, hashing each body byte once for both checksums: the
    /// encode-side mirror of [`decode_within`](Self::decode_within).
    pub(crate) fn encode_raw_within(&self, out: &mut Vec<u8>, outer: &mut u64) {
        let start = out.len();
        out.reserve(self.raw_len());
        out.extend_from_slice(&[0; 4]);
        self.push_body(out, push_raw_payload);
        let len = u32::try_from(out.len() - start - 4 + 8).expect("record < 4 GiB");
        out[start..start + 4].copy_from_slice(&len.to_le_bytes());
        let (head, body) = out[start..].split_at(4);
        let (frame, own) = fnv64_pair(fnv64_seeded(*outer, head), FNV_OFFSET, body);
        let own = own.to_le_bytes();
        out.extend_from_slice(&own);
        *outer = fnv64_seeded(frame, &own);
    }

    /// Appends this record's frame: its length, its body with each
    /// payload written by `payload`, and its checksum.
    fn frame_into(&self, out: &mut Vec<u8>, payload: fn(&mut Vec<u8>, &[u8])) {
        let start = out.len();
        out.extend_from_slice(&[0; 4]);
        self.push_body(out, payload);
        close_frame(out, start);
    }

    /// Bytes of the fixed fields a body starts with.
    fn head_len(&self) -> usize {
        1 + 8 + 4 + 2 + self.algo.len()
    }

    /// The most bytes the stored body can take: both payloads framed
    /// raw. The encoding [`push_payload`] keeps is never longer, since raw
    /// is one of its candidates and the others are kept only when
    /// smaller.
    fn body_ceiling(&self) -> usize {
        self.head_len() + 2 * PAYLOAD_FRAMING + self.spec_canon.len() + self.outcome_canon.len()
    }

    /// The fewest bytes the stored body can take (see
    /// [`payload_floor`]).
    fn body_floor(&self, scratch: &mut Vec<u8>) -> usize {
        self.head_len()
            + payload_floor(self.spec_canon.as_bytes(), scratch)
            + payload_floor(self.outcome_canon.as_bytes(), scratch)
    }

    /// Exactly how many bytes [`encode`](Self::encode) writes, found
    /// without encoding (see [`payload_len`]): the record's length in a
    /// plain block.
    fn plain_len(&self, scratch: &mut Vec<u8>) -> usize {
        FRAME_LEN
            + self.head_len()
            + payload_len(self.spec_canon.as_bytes(), scratch)
            + payload_len(self.outcome_canon.as_bytes(), scratch)
    }

    /// Appends this record's body short of its checksum: the fixed
    /// fields, then both payloads, each written by `payload` —
    /// [`push_payload`] for the bytes a store keeps.
    fn push_body(&self, out: &mut Vec<u8>, payload: fn(&mut Vec<u8>, &[u8])) {
        out.push(self.tag);
        out.extend_from_slice(&self.content_hash.to_le_bytes());
        out.extend_from_slice(&self.engine_version.to_le_bytes());
        let algo = self.algo.as_bytes();
        out.extend_from_slice(
            &u16::try_from(algo.len())
                .expect("algorithm names are short")
                .to_le_bytes(),
        );
        out.extend_from_slice(algo);
        payload(out, self.spec_canon.as_bytes());
        payload(out, self.outcome_canon.as_bytes());
    }

    /// Parses one record from the front of `data`, returning it and the
    /// number of bytes consumed. `None` on any malformation — a length
    /// running past `data`, a checksum mismatch, an unknown tag, a
    /// compression framing violation, or non-UTF-8 text.
    #[must_use]
    pub fn decode(data: &[u8]) -> Option<(Self, usize)> {
        let (checked, crc) = split_record(data)?;
        if crc != fnv64(checked) {
            return None;
        }
        Some((Self::parse(checked)?, 4 + checked.len() + 8))
    }

    /// [`decode`](Self::decode) that hashes each byte once for two
    /// checksums: the record's own, and `outer` — the FNV-1a chain of an
    /// enclosing frame, continued over every byte the record spans. The
    /// two chains run interleaved, so checking both costs about what
    /// checking one does. `outer` is only meaningful on `Some`.
    pub(crate) fn decode_within(data: &[u8], outer: &mut u64) -> Option<(Self, usize)> {
        let (checked, crc) = split_record(data)?;
        let used = 4 + checked.len() + 8;
        let (frame, own) = fnv64_pair(fnv64_seeded(*outer, &data[..4]), FNV_OFFSET, checked);
        *outer = fnv64_seeded(frame, &data[used - 8..used]);
        if own != crc {
            return None;
        }
        Some((Self::parse(checked)?, used))
    }

    /// The fields of a record body whose checksum already held.
    fn parse(checked: &[u8]) -> Option<Self> {
        let mut c = Take(checked);
        let tag = *c.bytes(1)?.first()?;
        if !Self::known_tag(tag) {
            return None;
        }
        let content_hash = c.u64()?;
        let engine_version = c.u32()?;
        let algo_len = c.u16()? as usize;
        let algo = String::from_utf8(c.bytes(algo_len)?.to_vec()).ok()?;
        let spec_canon = payload(&mut c)?;
        let outcome_canon = payload(&mut c)?;
        c.done().then_some(Self {
            tag,
            content_hash,
            engine_version,
            algo,
            spec_canon,
            outcome_canon,
        })
    }
}

/// The checksummed bytes and the stated checksum of the record framed at
/// the front of `data`. `None` = the frame runs past `data` or is too
/// short to hold a checksum.
fn split_record(data: &[u8]) -> Option<(&[u8], u64)> {
    let mut head = Take(data);
    let body_len = head.u32()? as usize;
    let body = head.bytes(body_len)?;
    let checked_len = body_len.checked_sub(8)?;
    let (checked, crc) = body.split_at(checked_len);
    Some((checked, u64::from_le_bytes(crc.try_into().ok()?)))
}

/// Serializes a record sequence as the **columnar block** a packed
/// segment compresses: all tags, then all content hashes (`u64` LE),
/// all engine versions (`u32` LE), all algorithm lengths (`u16` LE),
/// all algorithm names, all spec-canon lengths (`u32` LE), all spec
/// canons, all outcome-canon lengths (`u32` LE), all outcome canons.
///
/// No per-record checksums and no compression framing — the packed
/// segment header checksums (and compresses) the block wholesale, and
/// interleaved integrity bytes would only be incompressible noise.
/// Grouping like fields is what makes the block compress: each
/// canonical string sits directly after its near-identical predecessor,
/// well inside the LZ window.
#[must_use]
pub fn encode_packed_block(records: &[EncodedRecord]) -> Vec<u8> {
    packed_block(records)
}

/// [`encode_packed_block`] over owned or borrowed records alike — the
/// writer packs the records it was lent without copying them first.
fn packed_block<R: std::borrow::Borrow<EncodedRecord>>(records: &[R]) -> Vec<u8> {
    let len32 = |n: usize| u32::try_from(n).expect("payload < 4 GiB").to_le_bytes();
    let records = || records.iter().map(std::borrow::Borrow::borrow);
    let mut out = Vec::new();
    for r in records() {
        out.push(r.tag);
    }
    for r in records() {
        out.extend_from_slice(&r.content_hash.to_le_bytes());
    }
    for r in records() {
        out.extend_from_slice(&r.engine_version.to_le_bytes());
    }
    for r in records() {
        out.extend_from_slice(
            &u16::try_from(r.algo.len())
                .expect("algorithm names are short")
                .to_le_bytes(),
        );
    }
    for r in records() {
        out.extend_from_slice(r.algo.as_bytes());
    }
    for r in records() {
        out.extend_from_slice(&len32(r.spec_canon.len()));
    }
    for r in records() {
        out.extend_from_slice(r.spec_canon.as_bytes());
    }
    for r in records() {
        out.extend_from_slice(&len32(r.outcome_canon.len()));
    }
    for r in records() {
        out.extend_from_slice(r.outcome_canon.as_bytes());
    }
    out
}

/// Parses a columnar block (see [`encode_packed_block`]) holding
/// exactly `count` records. `None` on any malformation — an unknown
/// tag, non-UTF-8 text, a length column overrunning the block, or
/// trailing bytes. Only called on a block that already passed the
/// packed segment's checksum and exact-length decompression, so a
/// `None` here means a corrupted record count (or a writer bug); the
/// caller discards the whole segment either way.
#[must_use]
pub fn decode_packed_block(data: &[u8], count: usize) -> Option<Vec<EncodedRecord>> {
    let mut c = Take(data);
    let tags = c.bytes(count)?;
    if !tags.iter().all(|&t| EncodedRecord::known_tag(t)) {
        return None;
    }
    let mut records: Vec<EncodedRecord> = tags
        .iter()
        .map(|&tag| EncodedRecord {
            tag,
            content_hash: 0,
            engine_version: 0,
            algo: String::new(),
            spec_canon: String::new(),
            outcome_canon: String::new(),
        })
        .collect();
    for r in &mut records {
        r.content_hash = c.u64()?;
    }
    for r in &mut records {
        r.engine_version = c.u32()?;
    }
    // Each string column: every length (u16 for names, u32 for canons),
    // then every string.
    let mut column = |wide: bool, field: fn(&mut EncodedRecord) -> &mut String| {
        let len = |c: &mut Take<'_>| {
            if wide {
                c.u32().map(|n| n as usize)
            } else {
                c.u16().map(usize::from)
            }
        };
        let lens: Vec<usize> = (0..count).map(|_| len(&mut c)).collect::<Option<_>>()?;
        for (r, n) in records.iter_mut().zip(lens) {
            *field(r) = String::from_utf8(c.bytes(n)?.to_vec()).ok()?;
        }
        Some(())
    };
    column(false, |r| &mut r.algo)?;
    column(true, |r| &mut r.spec_canon)?;
    column(true, |r| &mut r.outcome_canon)?;
    c.done().then_some(records)
}

// ---------------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------------

/// Packs [`EncodedRecord`]s into capacity-bounded segments.
///
/// Use [`write_file`] for a whole store file; use a bare writer when
/// producing *appendable* segment bytes (a checkpoint extending an
/// existing file):
///
/// ```
/// use wl_harness::cache::segment::{EncodedRecord, SegmentReader, SegmentWriter, TAG_SCALAR};
///
/// let rec = EncodedRecord {
///     tag: TAG_SCALAR,
///     content_hash: 7,
///     engine_version: 3,
///     algo: "demo".into(),
///     spec_canon: "Spec{x:1}".into(),
///     outcome_canon: "Outcome{y:2}".into(),
/// };
///
/// // A full file...
/// let mut file = wl_harness::cache::segment::write_file([&rec], 1024);
/// // ...extended by one appended checkpoint segment:
/// let mut w = SegmentWriter::new(1024, 1);
/// w.push(&rec);
/// file.extend_from_slice(&w.finish());
///
/// let mut reader = SegmentReader::new(&file).expect("valid header");
/// assert_eq!(reader.by_ref().count(), 2);
/// assert_eq!((reader.segments(), reader.damaged()), (2, 0));
/// ```
#[derive(Debug)]
pub struct SegmentWriter<'a> {
    capacity: u32,
    next_ordinal: u32,
    out: Vec<u8>,
    /// The open segment's records, borrowed until it seals.
    pending: Vec<&'a EncodedRecord>,
    /// How many pending records, from the first, have been sized: their
    /// exact plain frame lengths are known. A record is sized only when a
    /// decision needs its exact length, and then with every record before
    /// it.
    sized: usize,
    /// The sized records' plain frames, summed.
    sized_len: usize,
    /// An upper bound on the open segment's plain block: the sized
    /// frames exactly, each other record at its ceiling.
    plain_ceiling: usize,
    /// The one buffer each payload is hex-packed into to be sized or
    /// floored: one payload long.
    scratch: Vec<u8>,
    /// How many records this writer has sized.
    #[cfg(test)]
    built: usize,
    /// How many plain bodies it has written: only those of segments
    /// sealed plain.
    #[cfg(test)]
    bodies: usize,
    /// How many body floors it has taken.
    #[cfg(test)]
    floors: usize,
}

impl<'a> SegmentWriter<'a> {
    /// A writer producing segments `first_ordinal, first_ordinal+1, …`
    /// with the given record-block capacity.
    #[must_use]
    pub fn new(capacity: u32, first_ordinal: u32) -> Self {
        Self {
            capacity,
            next_ordinal: first_ordinal,
            out: Vec::new(),
            pending: Vec::new(),
            sized: 0,
            sized_len: 0,
            plain_ceiling: 0,
            scratch: Vec::new(),
            #[cfg(test)]
            built: 0,
            #[cfg(test)]
            bodies: 0,
            #[cfg(test)]
            floors: 0,
        }
    }

    /// Adds one record, sealing the current segment first if the record
    /// would overflow it. Capacity (and hence where segment boundaries
    /// fall) is accounted in the *plain* encoding, whether or not the
    /// sealed segment ends up packed — so boundary placement never
    /// depends on compression ratios.
    ///
    /// The plain length of a record is its body + 12 bytes, and its body
    /// is at most its ceiling: the fixed fields and both payloads framed
    /// raw. While the ceilings fit the capacity the record joins the
    /// segment unencoded. Only when they overflow are the segment's
    /// records and this one sized, and the exact lengths decide. A size
    /// is a length, not a body: no plain byte is written to place a
    /// boundary.
    pub fn push(&mut self, record: &'a EncodedRecord) {
        let ceiling = record.body_ceiling() + FRAME_LEN;
        if self.pending.is_empty() || self.plain_ceiling + ceiling <= self.capacity as usize {
            self.pending.push(record);
            self.plain_ceiling += ceiling;
            return;
        }
        self.size_pending();
        let len = self.size(record);
        if self.sized_len + len > self.capacity as usize {
            self.seal();
        }
        self.pending.push(record);
        self.sized += 1;
        self.sized_len += len;
        self.plain_ceiling = self.sized_len;
    }

    /// `record`'s exact plain frame length.
    fn size(&mut self, record: &EncodedRecord) -> usize {
        #[cfg(test)]
        {
            self.built += 1;
        }
        record.plain_len(&mut self.scratch)
    }

    /// Sizes every pending record not yet sized.
    fn size_pending(&mut self) {
        for k in self.sized..self.pending.len() {
            self.sized_len += self.size(self.pending[k]);
        }
        self.sized = self.pending.len();
    }

    /// Whether the open segment's plain block is provably longer than
    /// `len` bytes: its sized frames counted exactly, every other record
    /// at its body floor plus its frame, summed only as far as it takes.
    /// With at most one record unsized its floor saves nothing (the size
    /// would still be needed wherever the floor fell short), so that
    /// record is sized instead. A floor never exceeds the exact length,
    /// so either way the answer is `true` only where the exact block is
    /// longer than `len`.
    fn plain_exceeds(&mut self, len: usize) -> bool {
        if self.pending.len() - self.sized <= 1 {
            self.size_pending();
            return self.sized_len > len;
        }
        let mut floor = self.sized_len + FRAME_LEN * (self.pending.len() - self.sized);
        for record in &self.pending[self.sized..] {
            if floor > len {
                break;
            }
            #[cfg(test)]
            {
                self.floors += 1;
            }
            floor += record.body_floor(&mut self.scratch);
        }
        floor > len
    }

    /// Seals the open segment: the pending records.
    fn seal(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        // Candidate framings for the same records: plain (per-payload
        // compression, 24-byte header) vs packed (columnar block, whole
        // block hex-packed + LZ'd, 32-byte header). Keep the smaller;
        // ties go to plain. Both sides are pure functions of the record
        // sequence, so the choice — and the file — stays deterministic.
        // A plain block provably longer than the packed one needs no
        // sizes; any other needs them all, and its bodies only if it
        // wins.
        let raw_block = packed_block(&self.pending);
        let mid = wlz::hex_pack(&raw_block);
        let stored = wlz::compress(&mid);
        let packed_plain = PACKED_SEGMENT_HEADER_LEN + stored.len() - SEGMENT_HEADER_LEN;
        let packed = self.plain_exceeds(packed_plain) || {
            self.size_pending();
            self.sized_len > packed_plain
        };
        let len32 = |n: usize| u32::try_from(n).expect("segment < 4 GiB").to_le_bytes();
        let count = len32(self.pending.len());
        if packed {
            self.out.extend_from_slice(&SEGMENT_MAGIC_PACKED);
            self.out.extend_from_slice(&self.next_ordinal.to_le_bytes());
            self.out.extend_from_slice(&count);
            self.out.extend_from_slice(&len32(stored.len()));
            self.out.extend_from_slice(&len32(mid.len()));
            self.out.extend_from_slice(&len32(raw_block.len()));
            self.out.extend_from_slice(&fnv64(&stored).to_le_bytes());
            self.out.extend_from_slice(&stored);
        } else {
            self.out.extend_from_slice(&SEGMENT_MAGIC);
            self.out.extend_from_slice(&self.next_ordinal.to_le_bytes());
            self.out.extend_from_slice(&count);
            self.out.extend_from_slice(&len32(self.sized_len));
            let crc_at = self.out.len();
            self.out.extend_from_slice(&[0; 8]);
            for record in &self.pending {
                record.encode_into(&mut self.out);
            }
            #[cfg(test)]
            {
                self.bodies += self.pending.len();
            }
            debug_assert_eq!(self.out.len() - crc_at - 8, self.sized_len);
            let crc = fnv64(&self.out[crc_at + 8..]);
            self.out[crc_at..crc_at + 8].copy_from_slice(&crc.to_le_bytes());
        }
        self.pending.clear();
        self.sized = 0;
        self.sized_len = 0;
        self.plain_ceiling = 0;
        self.next_ordinal += 1;
    }

    /// Seals the pending segment and returns the segment bytes (no file
    /// header — callers append these to an existing file or prepend
    /// [`FILE_MAGIC`]'s header themselves via [`write_file`]).
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        self.into_parts().0
    }

    /// [`finish`](SegmentWriter::finish), also returning the ordinal the
    /// *next* appended segment should carry — what an incremental
    /// checkpointer needs to keep extending the same file.
    #[must_use]
    pub fn into_parts(mut self) -> (Vec<u8>, u32) {
        self.seal();
        (self.out, self.next_ordinal)
    }
}

/// Serializes a complete binary store file: the 16-byte file header
/// followed by the records packed into capacity-bounded segments in
/// iteration order. The output is a pure function of the record
/// sequence and the capacity — the canonicality the store's
/// byte-comparison contract rests on.
#[must_use]
pub fn write_file<'a>(
    records: impl IntoIterator<Item = &'a EncodedRecord>,
    capacity: u32,
) -> Vec<u8> {
    write_file_with_ordinal(records, capacity).0
}

/// [`write_file`], also returning the ordinal an appended segment
/// should carry (i.e. how many segments were written) — so a saver
/// that intends to append later does not have to re-read its own
/// output to learn it.
#[must_use]
pub fn write_file_with_ordinal<'a>(
    records: impl IntoIterator<Item = &'a EncodedRecord>,
    capacity: u32,
) -> (Vec<u8>, u32) {
    let mut out = Vec::with_capacity(FILE_HEADER_LEN + 1024);
    out.extend_from_slice(&FILE_MAGIC);
    out.push(FILE_FORMAT_VERSION);
    out.extend_from_slice(&[0u8; 3]);
    out.extend_from_slice(&capacity.to_le_bytes());
    out.extend_from_slice(&[0u8; 4]);
    let mut writer = SegmentWriter::new(capacity, 0);
    for record in records {
        writer.push(record);
    }
    let (segments, next_ordinal) = writer.into_parts();
    out.extend_from_slice(&segments);
    (out, next_ordinal)
}

// ---------------------------------------------------------------------------
// Reader.
// ---------------------------------------------------------------------------

/// Streaming, corruption-tolerant reader over a binary store file.
///
/// Yields every record that survives verification, in file order, and
/// counts what it had to discard ([`damaged`](SegmentReader::damaged)):
/// a record failing its checksum or parse costs that record; a torn
/// tail costs the records after the tear; a vandalized segment header
/// costs its segment (the reader resyncs on the next [`SEGMENT_MAGIC`]).
/// Construction fails only when the 16-byte file header is absent or
/// foreign — the file is then *not a binary store* at all.
///
/// ```
/// use wl_harness::cache::segment::{write_file, EncodedRecord, SegmentReader, TAG_SERIES};
///
/// let rec = EncodedRecord {
///     tag: TAG_SERIES,
///     content_hash: 0xFEED,
///     engine_version: 3,
///     algo: "wl-maintenance".into(),
///     spec_canon: "Spec{n:4}".into(),
///     outcome_canon: "Outcome{series:+…}".into(),
/// };
/// let file = write_file([&rec, &rec], 64); // tiny capacity: 2 segments
///
/// let mut reader = SegmentReader::new(&file).expect("valid header");
/// let records: Vec<EncodedRecord> = reader.by_ref().collect();
/// assert_eq!(records.len(), 2);
/// assert_eq!(records[0], rec);
/// assert_eq!(reader.segments(), 2);
/// assert_eq!(reader.damaged(), 0);
/// assert_eq!(reader.next_ordinal(), 2); // where an append would continue
/// ```
#[derive(Debug)]
pub struct SegmentReader<'a> {
    rest: &'a [u8],
    block: &'a [u8],
    block_pos: usize,
    block_left: u32,
    unpacked: std::collections::VecDeque<EncodedRecord>,
    capacity: u32,
    segments: usize,
    damaged: usize,
    next_ordinal: u32,
}

impl<'a> SegmentReader<'a> {
    /// Validates the file header and positions the reader at the first
    /// segment. `None` means "not a v3 binary store" (wrong magic,
    /// unknown format version, or a file shorter than the header) — the
    /// caller should try the text format instead. Both file-format
    /// versions load: 1 (plain segments only) and 2 (packed segments
    /// permitted).
    #[must_use]
    pub fn new(data: &'a [u8]) -> Option<Self> {
        if data.len() < FILE_HEADER_LEN
            || data[..4] != FILE_MAGIC
            || !(data[4] == FILE_FORMAT_VERSION || data[4] == FILE_FORMAT_V1)
        {
            return None;
        }
        let capacity = u32::from_le_bytes(data[8..12].try_into().expect("4 bytes"));
        Some(Self {
            rest: &data[FILE_HEADER_LEN..],
            block: &[],
            block_pos: 0,
            block_left: 0,
            unpacked: std::collections::VecDeque::new(),
            capacity,
            segments: 0,
            damaged: 0,
            next_ordinal: 0,
        })
    }

    /// The segment capacity stated in the file header.
    #[must_use]
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Segments encountered so far (including damaged ones).
    #[must_use]
    pub fn segments(&self) -> usize {
        self.segments
    }

    /// Units discarded so far: individual records that failed
    /// verification, plus one per segment whose header was unreadable.
    #[must_use]
    pub fn damaged(&self) -> usize {
        self.damaged
    }

    /// One past the highest segment ordinal seen — the ordinal an
    /// appended segment should carry.
    #[must_use]
    pub fn next_ordinal(&self) -> u32 {
        self.next_ordinal
    }

    /// Enters the next segment, handling header damage and torn tails.
    /// Returns `false` at end of file.
    fn advance_segment(&mut self) -> bool {
        loop {
            if self.rest.is_empty() {
                return false;
            }
            let packed = self.rest.len() >= 4 && self.rest[..4] == SEGMENT_MAGIC_PACKED;
            let header_len = if packed {
                PACKED_SEGMENT_HEADER_LEN
            } else {
                SEGMENT_HEADER_LEN
            };
            if self.rest.len() < header_len || (!packed && self.rest[..4] != SEGMENT_MAGIC) {
                // Damaged or torn segment header: drop it and resync on
                // the next segment magic, if any.
                self.damaged += 1;
                self.segments += 1;
                match find_magic(&self.rest[1..]) {
                    Some(i) => self.rest = &self.rest[1 + i..],
                    None => {
                        self.rest = &[];
                        return false;
                    }
                }
                continue;
            }
            let header = &self.rest[..header_len];
            let ordinal = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
            let count = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
            let block_len =
                u32::from_le_bytes(header[12..16].try_into().expect("4 bytes")) as usize;
            self.segments += 1;
            self.next_ordinal = self.next_ordinal.max(ordinal.saturating_add(1));
            let body = &self.rest[header_len..];
            if packed {
                let mid_len =
                    u32::from_le_bytes(header[16..20].try_into().expect("4 bytes")) as usize;
                let raw_len =
                    u32::from_le_bytes(header[20..24].try_into().expect("4 bytes")) as usize;
                let crc = u64::from_le_bytes(header[24..32].try_into().expect("8 bytes"));
                if body.len() < block_len {
                    // A torn packed tail is all-or-nothing: partial
                    // compressed bytes cannot be salvaged record by
                    // record, so the whole promised count is lost.
                    self.damaged += count.max(1) as usize;
                    self.rest = &[];
                    continue;
                }
                let (stored, rest) = body.split_at(block_len);
                self.rest = rest;
                if crc != fnv64(stored) {
                    self.damaged += count.max(1) as usize;
                    continue;
                }
                // Checksum verified: decompress each codec layer against
                // its exact expected length, then parse the columnar
                // block into whole records. Any failure past this point
                // means the header's lengths or count lied — all-or-
                // nothing, like the torn case.
                let records = wlz::decompress_hex(stored, mid_len, raw_len)
                    .and_then(|raw| decode_packed_block(&raw, count as usize));
                match records {
                    Some(records) => {
                        self.unpacked = records.into();
                        return true;
                    }
                    None => {
                        self.damaged += count.max(1) as usize;
                        continue;
                    }
                }
            }
            if body.len() < block_len {
                // Torn tail (crash mid-append): salvage the prefix
                // record-by-record; the per-record checksums decide how
                // far is trustworthy.
                self.block = body;
                self.block_pos = 0;
                self.block_left = count;
                self.rest = &[];
            } else {
                let (block, rest) = body.split_at(block_len);
                self.rest = rest;
                self.block = block;
                self.block_pos = 0;
                self.block_left = count;
                // The block checksum (header bytes 16..24) lets other
                // implementations verify a segment wholesale; this
                // reader salvages records one by one regardless, so the
                // per-record checksums decide what survives.
            }
            return true;
        }
    }
}

fn find_magic(hay: &[u8]) -> Option<usize> {
    hay.windows(SEGMENT_MAGIC.len())
        .position(|w| w == SEGMENT_MAGIC || w == SEGMENT_MAGIC_PACKED)
}

impl Iterator for SegmentReader<'_> {
    type Item = EncodedRecord;

    fn next(&mut self) -> Option<EncodedRecord> {
        loop {
            // A packed segment decodes wholesale into this queue.
            if let Some(record) = self.unpacked.pop_front() {
                return Some(record);
            }
            let remaining = self.block.len() - self.block_pos;
            if self.block_left == 0 || remaining == 0 {
                // Leftover bytes with no records promised — or promised
                // records with no bytes left — are damage.
                if self.block_left > 0 {
                    self.damaged += self.block_left as usize;
                } else if remaining > 0 {
                    self.damaged += 1;
                }
                self.block = &[];
                self.block_pos = 0;
                self.block_left = 0;
                if !self.advance_segment() {
                    return None;
                }
                continue;
            }
            self.block_left -= 1;
            match EncodedRecord::decode(&self.block[self.block_pos..]) {
                Some((record, used)) => {
                    self.block_pos += used;
                    return Some(record);
                }
                None => {
                    // Unrecoverable within this block: the length prefix
                    // itself may be damaged, so everything after the bad
                    // record is unaddressable. Cost: the bad record plus
                    // whatever the header still promised.
                    self.damaged += 1 + self.block_left as usize;
                    self.block = &[];
                    self.block_pos = 0;
                    self.block_left = 0;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(i: u64, series: bool) -> EncodedRecord {
        EncodedRecord {
            tag: if series { TAG_SERIES } else { TAG_SCALAR },
            content_hash: i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            engine_version: 3,
            algo: format!("algo-{}", i % 3),
            spec_canon: format!("Spec{{n:{i},rho:x3ff0000000000000}}").repeat(3),
            outcome_canon: format!("Outcome{{v:x400921fb54442d18,k:{i}}}")
                .repeat(1 + (i as usize % 4)),
        }
    }

    /// Pseudo-random text the codecs cannot shrink (a 32-symbol
    /// alphabet with no lowercase hex), so segments holding it stay
    /// *plain* — what the byte-offset damage tests below rely on.
    fn noise(seed: u64, len: usize) -> String {
        const ALPHABET: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZ!#%-_+";
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                ALPHABET[(x >> 58) as usize & 31] as char
            })
            .collect()
    }

    fn noisy_rec(i: u64, series: bool) -> EncodedRecord {
        EncodedRecord {
            tag: if series { TAG_SERIES } else { TAG_SCALAR },
            content_hash: i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            engine_version: 3,
            algo: format!("algo-{}", i % 3),
            spec_canon: noise(2 * i + 1, 260),
            outcome_canon: noise(2 * i + 2, 200 + 30 * (i as usize % 4)),
        }
    }

    fn read_all(data: &[u8]) -> (Vec<EncodedRecord>, usize, usize) {
        let mut r = SegmentReader::new(data).expect("valid header");
        let records: Vec<_> = r.by_ref().collect();
        (records, r.segments(), r.damaged())
    }

    #[test]
    fn record_roundtrip_and_tamper_rejection() {
        let original = rec(5, true);
        let bytes = original.encode();
        let (decoded, used) = EncodedRecord::decode(&bytes).expect("decodes");
        assert_eq!(used, bytes.len());
        assert_eq!(decoded, original);
        // Every single-byte flip is rejected, never misread.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            if let Some((tampered, _)) = EncodedRecord::decode(&bad) {
                assert_ne!(tampered, original, "flip at byte {i} went unnoticed");
                // The only survivable flips are in the length prefix in a
                // way that still frames a valid checksummed body — which
                // cannot happen because the checksum covers the body the
                // length delimits.
                panic!("flip at byte {i} produced a decodable record");
            }
        }
        // Truncation is rejected.
        assert!(EncodedRecord::decode(&bytes[..bytes.len() - 1]).is_none());
    }

    #[test]
    fn hostile_raw_length_is_refused_without_reserving_it() {
        // A checksum-valid 47-byte record whose spec payload claims
        // 4 GiB − 1 raw bytes behind a one-byte LZ stream. The checksum
        // proves nothing about intent — anyone can compute FNV — so the
        // claimed length must not reach the allocator.
        let mut body = vec![TAG_SCALAR];
        body.extend_from_slice(&7u64.to_le_bytes());
        body.extend_from_slice(&3u32.to_le_bytes());
        body.extend_from_slice(&1u16.to_le_bytes());
        body.push(b'a');
        body.push(ENC_LZ);
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        body.extend_from_slice(&1u32.to_le_bytes());
        body.push(0);
        body.push(ENC_RAW);
        body.extend_from_slice(&[0u8; 8]);
        let crc = fnv64(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        let mut record = (body.len() as u32).to_le_bytes().to_vec();
        record.extend_from_slice(&body);
        assert_eq!(record.len(), 47);
        assert!(EncodedRecord::decode(&record).is_none());
    }

    #[test]
    fn incompressible_payloads_are_stored_raw() {
        // A short, high-entropy payload: wlz gains nothing, so the
        // framing must fall back to raw bytes (enc_len == raw_len).
        let r = EncodedRecord {
            tag: TAG_SCALAR,
            content_hash: 1,
            engine_version: 3,
            algo: "a".into(),
            spec_canon: "zq9!k".into(),
            outcome_canon: "x".into(),
        };
        let bytes = r.encode();
        let (decoded, _) = EncodedRecord::decode(&bytes).expect("decodes");
        assert_eq!(decoded, r);
    }

    #[test]
    fn file_roundtrip_across_capacities() {
        let records: Vec<EncodedRecord> = (0..20).map(|i| rec(i, i % 2 == 0)).collect();
        for capacity in [64, 1024, DEFAULT_SEGMENT_CAPACITY] {
            let file = write_file(&records, capacity);
            let mut reader = SegmentReader::new(&file).expect("valid header");
            assert_eq!(reader.capacity(), capacity);
            let out: Vec<_> = reader.by_ref().collect();
            assert_eq!(out, records, "capacity {capacity}");
            assert_eq!(reader.damaged(), 0);
            // Tiny capacities force many segments; huge ones, few.
            if capacity == 64 {
                assert!(
                    reader.segments() >= records.len(),
                    "oversized records sit alone"
                );
            }
            if capacity == DEFAULT_SEGMENT_CAPACITY {
                assert_eq!(reader.segments(), 1);
            }
        }
    }

    #[test]
    fn write_is_deterministic_and_append_matches_rewrite_contents() {
        let records: Vec<EncodedRecord> = (0..8).map(|i| rec(i, false)).collect();
        assert_eq!(write_file(&records, 512), write_file(&records, 512));

        // Append path: first 5 written as a file, last 3 appended.
        let mut file = write_file(records.iter().take(5), 512);
        let first = {
            let mut r = SegmentReader::new(&file).expect("header");
            r.by_ref().for_each(drop);
            r.next_ordinal()
        };
        let mut w = SegmentWriter::new(512, first);
        for r in records.iter().skip(5) {
            w.push(r);
        }
        file.extend_from_slice(&w.finish());
        let (out, _, damaged) = read_all(&file);
        assert_eq!(out, records);
        assert_eq!(damaged, 0);
    }

    #[test]
    fn torn_tail_costs_exactly_the_unreadable_records() {
        let records: Vec<EncodedRecord> = (0..6).map(|i| noisy_rec(i, true)).collect();
        let file = write_file(&records, 128); // one record per segment
        assert!(
            !file
                .windows(4)
                .any(|w| w == SEGMENT_MAGIC_PACKED.as_slice()),
            "noise records must produce plain segments"
        );
        // Cut mid-way through the final record's bytes.
        let cut = file.len() - 10;
        let (out, _, damaged) = read_all(&file[..cut]);
        assert_eq!(out, records[..5], "only the torn record is lost");
        assert_eq!(damaged, 1);

        // Cut inside the final segment *header*: same cost, detected as
        // a damaged segment instead of a damaged record.
        let last_seg_start = file.len() - (records[5].encode().len() + SEGMENT_HEADER_LEN);
        let (out, _, damaged) = read_all(&file[..last_seg_start + 7]);
        assert_eq!(out, records[..5]);
        assert_eq!(damaged, 1);

        // Cut exactly at a segment boundary: nothing damaged at all.
        let (out, _, damaged) = read_all(&file[..last_seg_start]);
        assert_eq!(out, records[..5]);
        assert_eq!(damaged, 0);
    }

    #[test]
    fn vandalized_segment_resyncs_on_next_magic() {
        let records: Vec<EncodedRecord> = (0..4).map(|i| noisy_rec(i, false)).collect();
        let mut file = write_file(&records, 128); // one record per segment
                                                  // Vandalize segment 1's magic (segment 0 starts at FILE_HEADER_LEN).
        let seg_len = SEGMENT_HEADER_LEN + records[0].encode().len();
        // Records differ in length; find segment 1 by scanning.
        let seg1 = FILE_HEADER_LEN + seg_len;
        assert_eq!(&file[seg1..seg1 + 4], SEGMENT_MAGIC.as_slice());
        file[seg1] = b'X';
        let (out, _, damaged) = read_all(&file);
        assert_eq!(out.len(), 3, "segments 0, 2, 3 survive");
        assert_eq!(out[0], records[0]);
        assert_eq!(out[1], records[2]);
        assert!(damaged >= 1);
    }

    #[test]
    fn corrupt_record_inside_block_costs_the_block_tail() {
        let records: Vec<EncodedRecord> = (0..4).map(|i| noisy_rec(i, false)).collect();
        let mut file = write_file(&records, DEFAULT_SEGMENT_CAPACITY); // one segment
                                                                       // Flip a byte in record 1's body (after record 0).
        let r0 = records[0].encode().len();
        let hit = FILE_HEADER_LEN + SEGMENT_HEADER_LEN + r0 + 10;
        file[hit] ^= 0xFF;
        let (out, segments, damaged) = read_all(&file);
        assert_eq!(segments, 1);
        assert_eq!(out, records[..1], "the prefix before the damage survives");
        assert_eq!(damaged, 3, "the bad record plus the unaddressable tail");
    }

    #[test]
    fn packed_segments_shrink_redundant_blocks_and_roundtrip() {
        // Records whose canonical strings are near-identical — the
        // shape of a real sweep store, where only seeds and a few
        // floats differ per point. The block-level compressor must
        // collapse the cross-record repeats per-payload compression
        // cannot reach.
        let records: Vec<EncodedRecord> = (0..64)
            .map(|i| {
                let mut r = rec(0, false);
                r.content_hash = i;
                r.spec_canon = format!(
                    "Spec{{n:4,f:1,rho:x3eb0c6f7a0b5ed8d,delta:x3f847ae147ae147b,\
                     eps:x3f50624dd2f1a9fc,seed:{i},delay:DelayKind::Constant}}"
                );
                r.outcome_canon = format!(
                    "Outcome{{index:{i},steady_skew:x3f50624dd2f1a9fc,\
                     max_skew:x3f5062{i:02}d2f1aa01,agreement_holds:+}}"
                );
                r
            })
            .collect();
        let file = write_file(&records, DEFAULT_SEGMENT_CAPACITY);
        assert!(
            file.windows(4)
                .any(|w| w == SEGMENT_MAGIC_PACKED.as_slice()),
            "a redundant block must come out packed"
        );
        let plain_total: usize = records.iter().map(|r| r.encode().len()).sum();
        assert!(
            file.len() * 4 < plain_total,
            "expected ≥4× over per-record framing, got {plain_total} -> {}",
            file.len()
        );
        let (out, segments, damaged) = read_all(&file);
        assert_eq!(out, records);
        assert_eq!((segments, damaged), (1, 0));
        // Same records, same capacity, same bytes: packing is part of
        // the canonical write, not a mood.
        assert_eq!(file, write_file(&records, DEFAULT_SEGMENT_CAPACITY));
    }

    #[test]
    fn torn_or_corrupt_packed_segment_is_all_or_nothing() {
        let batch_a: Vec<EncodedRecord> = (0..8).map(|i| rec(i % 2, false)).collect();
        let batch_b: Vec<EncodedRecord> = (10..18).map(|i| rec(i % 2, true)).collect();
        // Two packed segments: batch_a fills one, batch_b appends one.
        let mut file = write_file(&batch_a, DEFAULT_SEGMENT_CAPACITY);
        let seg_a_len = file.len();
        let mut w = SegmentWriter::new(DEFAULT_SEGMENT_CAPACITY, 1);
        for r in &batch_b {
            w.push(r);
        }
        file.extend_from_slice(&w.finish());
        assert_eq!(&file[FILE_HEADER_LEN..FILE_HEADER_LEN + 4], b"WSGZ");
        let (out, _, damaged) = read_all(&file);
        assert_eq!(out.len(), 16);
        assert_eq!(damaged, 0);

        // A torn packed tail cannot be salvaged record-by-record: the
        // whole promised count is damage, the prefix segment survives.
        let (out, _, damaged) = read_all(&file[..file.len() - 5]);
        assert_eq!(out, batch_a);
        assert_eq!(damaged, batch_b.len());

        // A flipped byte inside the stored block fails the segment
        // checksum wholesale — and the reader still reaches the next
        // segment afterwards.
        let mut vandal = file.clone();
        vandal[seg_a_len - 10] ^= 0xFF;
        let (out, segments, damaged) = read_all(&vandal);
        assert_eq!(out, batch_b, "the later segment survives");
        assert_eq!((segments, damaged), (2, batch_a.len()));

        // The header's `mid` (bytes 16..20) and `raw` (20..24) lengths
        // sit outside the checksum. A lie in either — however large —
        // costs the segment and reserves nothing for the claim.
        for field in [16, 20] {
            for lie in [0, 1, u32::MAX] {
                let mut liar = file.clone();
                let at = FILE_HEADER_LEN + field;
                liar[at..at + 4].copy_from_slice(&lie.to_le_bytes());
                let (out, segments, damaged) = read_all(&liar);
                assert_eq!(out, batch_b, "header byte {field} = {lie}");
                assert_eq!((segments, damaged), (2, batch_a.len()));
            }
        }
    }

    #[test]
    fn version1_headers_still_load() {
        // A file written before packed segments existed: header version
        // 1, plain segments only. The current reader must accept it —
        // stores in the wild (CI caches, checked-in fixtures) predate
        // the bump.
        let records: Vec<EncodedRecord> = (0..4).map(|i| noisy_rec(i, false)).collect();
        let mut file = write_file(&records, 512);
        assert_eq!(file[4], FILE_FORMAT_VERSION);
        file[4] = FILE_FORMAT_V1;
        let (out, _, damaged) = read_all(&file);
        assert_eq!(out, records);
        assert_eq!(damaged, 0);
    }

    // -----------------------------------------------------------------
    // Same bytes as the encode-then-copy writer.
    // -----------------------------------------------------------------

    /// `EncodedRecord::encode` as it stood when the writer framed every
    /// record on push, verbatim.
    fn reference_encode(record: &EncodedRecord) -> Vec<u8> {
        let mut body = Vec::with_capacity(64 + record.outcome_canon.len() / 4);
        body.push(record.tag);
        body.extend_from_slice(&record.content_hash.to_le_bytes());
        body.extend_from_slice(&record.engine_version.to_le_bytes());
        let algo = record.algo.as_bytes();
        body.extend_from_slice(
            &u16::try_from(algo.len())
                .expect("algorithm names are short")
                .to_le_bytes(),
        );
        body.extend_from_slice(algo);
        push_payload(&mut body, record.spec_canon.as_bytes());
        push_payload(&mut body, record.outcome_canon.as_bytes());
        let crc = fnv64(&body);
        body.extend_from_slice(&crc.to_le_bytes());

        let mut out = Vec::with_capacity(4 + body.len());
        out.extend_from_slice(
            &u32::try_from(body.len())
                .expect("record < 4 GiB")
                .to_le_bytes(),
        );
        out.extend_from_slice(&body);
        out
    }

    /// The segment writer as it stood when `push` encoded and copied
    /// every record's frame, verbatim but for the encoder it calls.
    struct ReferenceWriter<'a> {
        capacity: u32,
        next_ordinal: u32,
        out: Vec<u8>,
        block: Vec<u8>,
        pending: Vec<&'a EncodedRecord>,
    }

    impl<'a> ReferenceWriter<'a> {
        fn new(capacity: u32, first_ordinal: u32) -> Self {
            Self {
                capacity,
                next_ordinal: first_ordinal,
                out: Vec::new(),
                block: Vec::new(),
                pending: Vec::new(),
            }
        }

        fn push(&mut self, record: &'a EncodedRecord) {
            let encoded = reference_encode(record);
            if !self.block.is_empty() && self.block.len() + encoded.len() > self.capacity as usize {
                self.seal();
            }
            self.block.extend_from_slice(&encoded);
            self.pending.push(record);
        }

        fn seal(&mut self) {
            if self.block.is_empty() {
                return;
            }
            let raw_block = packed_block(&self.pending);
            let mid = wlz::hex_pack(&raw_block);
            let stored = wlz::compress(&mid);
            let len32 = |n: usize| u32::try_from(n).expect("segment < 4 GiB").to_le_bytes();
            let count = len32(self.pending.len());
            if PACKED_SEGMENT_HEADER_LEN + stored.len() < SEGMENT_HEADER_LEN + self.block.len() {
                self.out.extend_from_slice(&SEGMENT_MAGIC_PACKED);
                self.out.extend_from_slice(&self.next_ordinal.to_le_bytes());
                self.out.extend_from_slice(&count);
                self.out.extend_from_slice(&len32(stored.len()));
                self.out.extend_from_slice(&len32(mid.len()));
                self.out.extend_from_slice(&len32(raw_block.len()));
                self.out.extend_from_slice(&fnv64(&stored).to_le_bytes());
                self.out.extend_from_slice(&stored);
                self.block.clear();
            } else {
                self.out.extend_from_slice(&SEGMENT_MAGIC);
                self.out.extend_from_slice(&self.next_ordinal.to_le_bytes());
                self.out.extend_from_slice(&count);
                self.out.extend_from_slice(&len32(self.block.len()));
                self.out
                    .extend_from_slice(&fnv64(&self.block).to_le_bytes());
                self.out.append(&mut self.block);
            }
            self.pending.clear();
            self.next_ordinal += 1;
        }

        fn into_parts(mut self) -> (Vec<u8>, u32) {
            self.seal();
            (self.out, self.next_ordinal)
        }
    }

    /// The segment writer as it stood when `push` built every record's
    /// body, verbatim but for its name: the oracle the lazy writer is
    /// held to.
    struct EagerWriter<'a> {
        capacity: u32,
        next_ordinal: u32,
        out: Vec<u8>,
        bodies: Vec<u8>,
        ends: Vec<usize>,
        pending: Vec<&'a EncodedRecord>,
    }

    impl<'a> EagerWriter<'a> {
        fn new(capacity: u32, first_ordinal: u32) -> Self {
            Self {
                capacity,
                next_ordinal: first_ordinal,
                out: Vec::new(),
                bodies: Vec::new(),
                ends: Vec::new(),
                pending: Vec::new(),
            }
        }

        fn push(&mut self, record: &'a EncodedRecord) {
            let start = self.bodies.len();
            record.push_body(&mut self.bodies, push_payload);
            let plain = self.bodies.len() + FRAME_LEN * (self.pending.len() + 1);
            if !self.pending.is_empty() && plain > self.capacity as usize {
                self.seal(start);
            }
            self.ends.push(self.bodies.len());
            self.pending.push(record);
        }

        fn seal(&mut self, sealed: usize) {
            if self.pending.is_empty() {
                return;
            }
            let raw_block = packed_block(&self.pending);
            let mid = wlz::hex_pack(&raw_block);
            let stored = wlz::compress(&mid);
            let len32 = |n: usize| u32::try_from(n).expect("segment < 4 GiB").to_le_bytes();
            let count = len32(self.pending.len());
            let plain_len = sealed + FRAME_LEN * self.pending.len();
            if PACKED_SEGMENT_HEADER_LEN + stored.len() < SEGMENT_HEADER_LEN + plain_len {
                self.out.extend_from_slice(&SEGMENT_MAGIC_PACKED);
                self.out.extend_from_slice(&self.next_ordinal.to_le_bytes());
                self.out.extend_from_slice(&count);
                self.out.extend_from_slice(&len32(stored.len()));
                self.out.extend_from_slice(&len32(mid.len()));
                self.out.extend_from_slice(&len32(raw_block.len()));
                self.out.extend_from_slice(&fnv64(&stored).to_le_bytes());
                self.out.extend_from_slice(&stored);
            } else {
                self.out.extend_from_slice(&SEGMENT_MAGIC);
                self.out.extend_from_slice(&self.next_ordinal.to_le_bytes());
                self.out.extend_from_slice(&count);
                self.out.extend_from_slice(&len32(plain_len));
                let crc_at = self.out.len();
                self.out.extend_from_slice(&[0; 8]);
                let mut from = 0;
                for &end in &self.ends {
                    let frame = self.out.len();
                    self.out.extend_from_slice(&[0; 4]);
                    self.out.extend_from_slice(&self.bodies[from..end]);
                    close_frame(&mut self.out, frame);
                    from = end;
                }
                let crc = fnv64(&self.out[crc_at + 8..]);
                self.out[crc_at..crc_at + 8].copy_from_slice(&crc.to_le_bytes());
            }
            self.bodies.drain(..sealed);
            self.ends.clear();
            self.pending.clear();
            self.next_ordinal += 1;
        }

        fn into_parts(mut self) -> (Vec<u8>, u32) {
            self.seal(self.bodies.len());
            (self.out, self.next_ordinal)
        }
    }

    /// Writes `records` from ordinal `first` at `capacity` with the
    /// lazy writer, and asserts the eager writer writes the same bytes
    /// and the same next ordinal. Returns the bytes, the next ordinal and
    /// how many bodies the lazy writer built.
    fn same_bytes_as_the_eager_writer(
        records: &[EncodedRecord],
        capacity: u32,
        first: u32,
    ) -> (Vec<u8>, u32, usize) {
        let mut lazy = SegmentWriter::new(capacity, first);
        let mut eager = EagerWriter::new(capacity, first);
        for r in records {
            lazy.push(r);
            eager.push(r);
        }
        lazy.seal();
        let built = lazy.built;
        let ours = lazy.into_parts();
        assert_eq!(
            ours,
            eager.into_parts(),
            "{} records at capacity {capacity}",
            records.len()
        );
        let (bytes, next) = ours;
        (bytes, next, built)
    }

    /// [`same_bytes_as_the_eager_writer`], and the encode-then-copy
    /// writer's bytes too.
    fn same_bytes_as_both_oracles(
        records: &[EncodedRecord],
        capacity: u32,
        first: u32,
    ) -> (Vec<u8>, u32) {
        let (ours, next, _) = same_bytes_as_the_eager_writer(records, capacity, first);
        let mut copied = ReferenceWriter::new(capacity, first);
        for r in records {
            copied.push(r);
        }
        let (theirs, their_next) = copied.into_parts();
        assert_eq!((&ours, next), (&theirs, their_next), "capacity {capacity}");
        (ours, next)
    }

    #[test]
    fn same_bytes_as_the_encode_then_copy_writer() {
        // Scalar and series, compressible and not, in runs and
        // interleaved — so blocks seal plain, packed, and mixed.
        let records: Vec<EncodedRecord> = (0..40u64)
            .map(|i| match i % 5 {
                0 | 1 => rec(i, i % 2 == 0),
                2 => noisy_rec(i, true),
                3 => noisy_rec(i, false),
                _ => rec(i / 2, true),
            })
            .chain((0..6).map(|i| noisy_rec(100 + i, i % 2 == 0)))
            .chain((0..6).map(|i| rec(200 + i, false)))
            .collect();
        for record in &records {
            assert_eq!(record.encode(), reference_encode(record));
        }
        let mut kinds = (false, false);
        for capacity in [1, 64, 1024, DEFAULT_SEGMENT_CAPACITY] {
            for first_ordinal in [0, 7] {
                // A whole batch, and an appended checkpoint continuing
                // it, for every split point.
                for split in [0, 1, 13, records.len()] {
                    let (head, tail) = records.split_at(split);
                    let (_, next) = same_bytes_as_both_oracles(head, capacity, first_ordinal);
                    let (ours, _) = same_bytes_as_both_oracles(tail, capacity, next);
                    kinds.0 |= ours.windows(4).any(|w| w == SEGMENT_MAGIC);
                    kinds.1 |= ours.windows(4).any(|w| w == SEGMENT_MAGIC_PACKED);
                }
            }
        }
        assert_eq!(kinds, (true, true), "both framings were written");
    }

    /// The records of every checked-in binary store fixture, per file.
    fn fixture_records() -> Vec<Vec<EncodedRecord>> {
        [
            &include_bytes!("../../tests/fixtures/sketch-store.wlsb")[..],
            include_bytes!("../../tests/fixtures/faulted-store.wlsb"),
            include_bytes!("../../tests/fixtures/adversary-store.wlsb"),
            include_bytes!("../../tests/fixtures/piecewise-store.wlsb"),
            include_bytes!("../../tests/fixtures/series-store.wlsb"),
        ]
        .into_iter()
        .map(|file| {
            let (records, _, damaged) = read_all(file);
            assert_eq!(damaged, 0);
            records
        })
        .collect()
    }

    /// What each record's frame adds to a plain block.
    fn plain_lens(records: &[EncodedRecord]) -> Vec<usize> {
        records.iter().map(|r| r.encode().len()).collect()
    }

    #[test]
    fn the_lazy_writer_writes_every_fixture_as_the_eager_writer() {
        // Every fixture store, in one segment and in 32 KiB segments;
        // and the sketch store at capacities that put a cut right after
        // each record's frame and one byte either side of it.
        for records in fixture_records() {
            for capacity in [DEFAULT_SEGMENT_CAPACITY, 32 * 1024] {
                same_bytes_as_the_eager_writer(&records, capacity, 3);
            }
            if records
                .iter()
                .any(|r| tag_payload_kind(r.tag) == PayloadKind::Series)
            {
                continue;
            }
            let mut block = 0;
            for len in plain_lens(&records) {
                block += len;
                for capacity in [block - 1, block, block + 1] {
                    same_bytes_as_the_eager_writer(&records, capacity as u32, 3);
                }
            }
        }
    }

    #[test]
    fn the_lazy_writer_cuts_where_the_eager_writer_cuts() {
        // Seeded sequences of compressible, incompressible and mixed
        // records, cut after every record: each capacity is a prefix's
        // plain block, so the exact lengths decide where the ceilings
        // alone would have cut elsewhere.
        let mut x = 0x5E6_0000_0000_0001_u64;
        for round in 0..3 {
            let records: Vec<EncodedRecord> = (0..12)
                .map(|i| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let i = 16 * round + i;
                    match x % 4 {
                        0 => rec(i, x.is_multiple_of(3)),
                        1 => noisy_rec(i, x.is_multiple_of(5)),
                        2 => {
                            let mut r = rec(i, false);
                            r.outcome_canon = noise(i, (x % 700) as usize);
                            r
                        }
                        _ => rec(x % 7, true),
                    }
                })
                .collect();
            let mut block = 0;
            for len in plain_lens(&records) {
                block += len;
                for capacity in [block - 1, block, block + 1] {
                    same_bytes_as_the_eager_writer(&records, capacity as u32, 0);
                }
            }
        }
    }

    #[test]
    fn incompressible_and_oversize_records_seal_as_the_eager_writer_seals() {
        // Noise stays plain: the floor cannot prove packed smaller, so
        // the exact bodies decide, and plain wins.
        let noisy: Vec<EncodedRecord> = (0..10).map(|i| noisy_rec(i, i % 2 == 0)).collect();
        for capacity in [1, 700, DEFAULT_SEGMENT_CAPACITY] {
            let (file, _, built) = same_bytes_as_the_eager_writer(&noisy, capacity, 0);
            assert!(!file.windows(4).any(|w| w == SEGMENT_MAGIC_PACKED));
            assert_eq!(built, noisy.len(), "capacity {capacity}");
        }
        // One record larger than the capacity, alone and between others.
        let mut big = rec(9, true);
        big.outcome_canon = big.outcome_canon.repeat(40) + &noise(9, 2_000);
        assert!(big.encode().len() > 1_024);
        for records in [
            vec![big.clone()],
            vec![rec(1, false), big.clone(), rec(2, false)],
            vec![
                noisy_rec(1, false),
                big.clone(),
                big.clone(),
                noisy_rec(2, true),
            ],
        ] {
            for capacity in [1, 512, 1_024] {
                same_bytes_as_the_eager_writer(&records, capacity, 0);
            }
        }
    }

    #[test]
    fn one_record_segments_fall_back_to_exact_bodies() {
        // A lone record's floor leaves room for its packed block, so the
        // seal builds its body and decides as the eager writer did —
        // alone in a writer, and cut from its neighbours at capacity 1.
        for records in fixture_records() {
            for record in &records {
                let (_, _, built) = same_bytes_as_the_eager_writer(
                    std::slice::from_ref(record),
                    DEFAULT_SEGMENT_CAPACITY,
                    0,
                );
                assert_eq!(built, 1);
            }
            let (_, next, _) = same_bytes_as_the_eager_writer(&records, 1, 0);
            assert_eq!(next as usize, records.len());
        }
    }

    #[test]
    fn a_lone_unsized_record_is_sized_without_a_floor() {
        // Where its floor falls short the seal needs the exact length
        // anyway, so a lone record is sized once and never floored.
        for records in fixture_records() {
            for record in &records {
                let mut lazy = SegmentWriter::new(DEFAULT_SEGMENT_CAPACITY, 0);
                lazy.push(record);
                lazy.seal();
                assert_eq!((lazy.floors, lazy.built), (0, 1));
            }
        }
        // Two unsized records still go to their floors, which settle it.
        let batch = sketch_batch();
        let mut lazy = SegmentWriter::new(DEFAULT_SEGMENT_CAPACITY, 0);
        lazy.push(&batch[0]);
        lazy.push(&batch[1]);
        lazy.seal();
        assert!(lazy.floors > 0);
        assert_eq!(lazy.built, 0);
    }

    /// 64 sketch records the shape of a put batch.
    fn sketch_batch() -> Vec<EncodedRecord> {
        sketch_sequence(64)
    }

    /// `n` sketch records: the sketch fixture's records, cycled under
    /// fresh keys and seeds.
    fn sketch_sequence(n: u64) -> Vec<EncodedRecord> {
        let fixture = &fixture_records()[0];
        (0..n)
            .map(|i| {
                let mut r = fixture[i as usize % fixture.len()].clone();
                let seed = format!("seed:{}", 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i + 1));
                let old = r
                    .spec_canon
                    .split("seed:")
                    .nth(1)
                    .and_then(|s| s.split(',').next());
                let old = format!("seed:{}", old.expect("a seed"));
                r.spec_canon = r.spec_canon.replace(&old, &seed);
                r.outcome_canon = r.outcome_canon.replace(&old, &seed);
                r.content_hash = r.content_hash.rotate_left(i as u32) ^ i;
                r
            })
            .collect()
    }

    #[test]
    fn a_sketch_checkpoint_builds_no_plain_body() {
        let batch = sketch_batch();
        let (file, next, built) =
            same_bytes_as_the_eager_writer(&batch, DEFAULT_SEGMENT_CAPACITY, 5);
        assert_eq!(next, 6, "one segment");
        assert_eq!(file[..4], SEGMENT_MAGIC_PACKED);
        assert_eq!(built, 0, "the floor proves the packed block smaller");
        // So does every block of it the service or a frontier chunk writes.
        for size in [2, 4, 16] {
            for chunk in batch.chunks_exact(size) {
                let (_, _, built) =
                    same_bytes_as_the_eager_writer(chunk, DEFAULT_SEGMENT_CAPACITY, 0);
                assert_eq!(built, 0, "a block of {size}");
            }
        }
    }

    /// A full save of `records` at `capacity`: the file [`write_file`]
    /// writes, asserted to be the eager writer's, with how many records
    /// the lazy writer sized and how many plain bodies it wrote.
    fn full_save(records: &[EncodedRecord], capacity: u32) -> (Vec<u8>, usize, usize) {
        let mut lazy = SegmentWriter::new(capacity, 0);
        let mut eager = EagerWriter::new(capacity, 0);
        for r in records {
            lazy.push(r);
            eager.push(r);
        }
        lazy.seal();
        let (sized, bodies) = (lazy.built, lazy.bodies);
        let ours = lazy.into_parts();
        assert_eq!(ours, eager.into_parts(), "{} records", records.len());
        let file = write_file(records, capacity);
        assert_eq!(file[FILE_HEADER_LEN..], ours.0);
        (file, sized, bodies)
    }

    /// The segments of a whole file, walked header to header: how many
    /// are plain, how many packed, and how many records the plain ones
    /// hold.
    fn segment_kinds(file: &[u8]) -> (usize, usize, usize) {
        let u32_at =
            |at: usize| u32::from_le_bytes(file[at..at + 4].try_into().expect("4 bytes")) as usize;
        let (mut plain, mut packed, mut plain_records) = (0, 0, 0);
        let mut at = FILE_HEADER_LEN;
        while at < file.len() {
            let (count, block) = (u32_at(at + 8), u32_at(at + 12));
            if file[at..at + 4] == SEGMENT_MAGIC {
                (plain, plain_records) = (plain + 1, plain_records + count);
                at += SEGMENT_HEADER_LEN + block;
            } else {
                assert_eq!(file[at..at + 4], SEGMENT_MAGIC_PACKED);
                packed += 1;
                at += PACKED_SEGMENT_HEADER_LEN + block;
            }
        }
        assert_eq!(at, file.len());
        (plain, packed, plain_records)
    }

    #[test]
    fn a_multi_segment_sketch_save_builds_no_plain_body() {
        // A benchmark-shaped store: every segment boundary is placed by
        // exact plain lengths, and every segment seals packed, so not one
        // plain body is written.
        let records = sketch_sequence(4_096);
        let (file, sized, bodies) = full_save(&records, DEFAULT_SEGMENT_CAPACITY);
        let (plain, packed, _) = segment_kinds(&file);
        assert_eq!(plain, 0);
        assert!(packed > 4, "{packed} segments");
        assert!(sized > records.len() / 2, "{sized} records sized");
        assert_eq!(bodies, 0);
        assert_eq!(read_all(&file), (records, packed, 0));
    }

    #[test]
    fn a_noise_store_builds_bodies_only_for_its_plain_segments() {
        // Runs of incompressible records between runs of sketch records,
        // over several segments: the noise seals plain, the sketches
        // packed, and only the plain segments' bodies are written.
        let sketches = sketch_sequence(96);
        let records: Vec<EncodedRecord> = (0..96u64)
            .map(|i| {
                if (i / 16) % 2 == 0 {
                    noisy_rec(i, i % 3 == 0)
                } else {
                    sketches[i as usize].clone()
                }
            })
            .collect();
        for capacity in [2 * 1024, 4 * 1024] {
            let (file, _, bodies) = full_save(&records, capacity);
            let (plain, packed, plain_records) = segment_kinds(&file);
            assert!(plain > 1 && packed > 1, "{plain} plain, {packed} packed");
            assert_eq!(bodies, plain_records, "capacity {capacity}");
            assert!(bodies < records.len());
        }
    }

    #[test]
    fn columnar_block_refuses_every_truncation_and_lying_length() {
        // Two tables of the same block: the fixture's sketch records and
        // a mix of empty and non-empty strings.
        let mut empty = rec(3, false);
        (empty.algo, empty.spec_canon, empty.outcome_canon) =
            (String::new(), String::new(), String::new());
        for records in [
            fixture_records().remove(0),
            vec![rec(1, true), empty, rec(2, false)],
        ] {
            let block = encode_packed_block(&records);
            let count = records.len();
            assert_eq!(decode_packed_block(&block, count), Some(records.clone()));
            for cut in 0..block.len() {
                assert_eq!(
                    decode_packed_block(&block[..cut], count),
                    None,
                    "cut at {cut}"
                );
            }
            // Each length column: where it starts, its entry width, and
            // the values a lie sets an entry to.
            let algo_at = 13 * count;
            let algo_bytes: usize = records.iter().map(|r| r.algo.len()).sum();
            let spec_at = algo_at + 2 * count + algo_bytes;
            let spec_bytes: usize = records.iter().map(|r| r.spec_canon.len()).sum();
            let outcome_at = spec_at + 4 * count + spec_bytes;
            for (column, width) in [(algo_at, 2), (spec_at, 4), (outcome_at, 4)] {
                for k in 0..count {
                    let at = column + width * k;
                    let entry = &block[at..at + width];
                    let (truth, max) = if width == 2 {
                        (
                            u64::from(u16::from_le_bytes(entry.try_into().unwrap())),
                            u64::from(u16::MAX),
                        )
                    } else {
                        (
                            u64::from(u32::from_le_bytes(entry.try_into().unwrap())),
                            u64::from(u32::MAX),
                        )
                    };
                    for lie in [
                        truth.wrapping_add(1) & max,
                        truth.wrapping_sub(1) & max,
                        max,
                    ] {
                        if lie == truth {
                            continue;
                        }
                        let mut liar = block.clone();
                        liar[at..at + width].copy_from_slice(&lie.to_le_bytes()[..width]);
                        assert_eq!(
                            decode_packed_block(&liar, count),
                            None,
                            "entry {k} of the column at {column} set to {lie}"
                        );
                    }
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // The same bytes, or the same refusal, as the three-step decode.
    // -----------------------------------------------------------------

    /// The hex-LZ decode as it stood before `wlz::decompress_hex`,
    /// verbatim: decompress, hex-unpack, then check the length.
    fn three_step_unhex_lz(stored: &[u8], mid_len: usize, raw_len: usize) -> Option<Vec<u8>> {
        wlz::decompress(stored, mid_len)
            .and_then(|mid| wlz::hex_unpack(&mid))
            .filter(|raw| raw.len() == raw_len)
    }

    /// `wlz::decompress_hex` decodes `stored` as the three steps do —
    /// the same bytes or the same refusal — and so it does at each
    /// declared length one off, at every cut of `stored` and with each
    /// of its bytes flipped. The decode is the only step of either
    /// reader that `decompress_hex` replaced, so the records, segments
    /// and `damaged()` a reader yields follow.
    fn decodes_as_the_three_steps_decode(stored: &[u8], mid_len: usize, raw_len: usize) {
        let same = |stored: &[u8], mid_len: usize, raw_len: usize| {
            assert_eq!(
                wlz::decompress_hex(stored, mid_len, raw_len),
                three_step_unhex_lz(stored, mid_len, raw_len),
                "{stored:?} to {mid_len} then {raw_len} bytes"
            );
        };
        assert!(wlz::decompress_hex(stored, mid_len, raw_len).is_some());
        for (mid, raw) in [
            (mid_len - 1, raw_len),
            (mid_len + 1, raw_len),
            (mid_len, raw_len - 1),
            (mid_len, raw_len + 1),
        ] {
            same(stored, mid, raw);
        }
        for cut in 0..stored.len() {
            same(&stored[..cut], mid_len, raw_len);
        }
        let mut flipped = stored.to_vec();
        for at in 0..stored.len() {
            for mask in [0x01, 0x80, 0xFF] {
                flipped[at] ^= mask;
                same(&flipped, mid_len, raw_len);
                flipped[at] ^= mask;
            }
        }
    }

    #[test]
    fn tampered_hex_lz_decodes_as_the_three_steps_decode() {
        let fixture = include_bytes!("../../tests/fixtures/sketch-store.wlsb");
        let (records, segments, damaged) = read_all(fixture);
        assert_eq!((segments, damaged), (1, 0));
        let u32_at = |bytes: &[u8], at: usize| {
            u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize
        };

        // The fixture's records as one packed segment, read back whole,
        // and its block.
        let file = write_file(&records, DEFAULT_SEGMENT_CAPACITY);
        assert_eq!(read_all(&file), (records.clone(), 1, 0));
        let packed = &file[FILE_HEADER_LEN..];
        assert_eq!(packed[..4], SEGMENT_MAGIC_PACKED);
        let (mid_len, raw_len) = (u32_at(packed, 16), u32_at(packed, 20));
        decodes_as_the_three_steps_decode(&packed[PACKED_SEGMENT_HEADER_LEN..], mid_len, raw_len);

        // One record's spec payload: encoding, raw, intermediate and
        // stored lengths, then the stored bytes.
        let frame = records[0].encode();
        let body = &frame[4..frame.len() - 8];
        let spec = 1 + 8 + 4 + 2 + records[0].algo.len();
        assert_eq!(body[spec], ENC_HEX_LZ, "the spec payload is hex-packed");
        let (raw_len, mid_len, enc_len) = (
            u32_at(body, spec + 1),
            u32_at(body, spec + 5),
            u32_at(body, spec + 9),
        );
        let stored = &body[spec + 13..spec + 13 + enc_len];
        decodes_as_the_three_steps_decode(stored, mid_len, raw_len);
    }

    #[test]
    fn foreign_files_are_not_binary_stores() {
        assert!(SegmentReader::new(b"").is_none());
        assert!(SegmentReader::new(b"wlsweep 1\n").is_none());
        assert!(SegmentReader::new(&[0u8; 64]).is_none());
        // Right magic, wrong format version.
        let mut file = write_file(std::iter::empty(), 1024);
        file[4] = 99;
        assert!(SegmentReader::new(&file).is_none());
    }
}
