//! The five workloads, and the ladder rungs more than one of them walks.

pub mod cold;
pub mod drive;
pub mod service;
pub mod store;
pub mod warm;

use crate::common::ratio;
use crate::metrics::Metrics;
use crate::trace::Recorder;
use std::hint::black_box;
use wl_harness::cache::canon_string;
use wl_harness::cache::segment::{
    decode_packed_block, encode_packed_block, EncodedRecord, SegmentReader,
    DEFAULT_SEGMENT_CAPACITY,
};
use wl_harness::ScenarioSpec;

/// `spec.canon` and `spec.hash` over `grid`: what a cached sweep pays
/// per point before it can consult any tier. Each rung is one span over
/// the whole grid: a span costs two clock reads (~0.1 us here), which
/// would be a third of a hash timed alone.
pub fn spec_ladder(rec: &mut Recorder, grid: &[ScenarioSpec], m: &mut Metrics) {
    let n = grid.len() as f64;
    let bytes = rec.time("spec.canon", 0, || {
        grid.iter()
            .map(|spec| canon_string(&crate::common::canonical(spec)).len())
            .sum::<usize>()
    });
    rec.count("spec.canon_bytes", bytes as u64);
    rec.time("spec.hash", 0, || {
        for spec in grid {
            black_box(spec.content_hash());
        }
    });
    m.set("spec.canon_us", ratio(rec.total_us("spec.canon"), n));
    m.set("spec.hash_us", ratio(rec.total_us("spec.hash"), n));
    m.set("spec.canon_bytes", ratio(bytes as f64, n));
}

/// The segment codec over the records of one store: per-record framing
/// (`encode`/`decode`), whole-block columnar packing (`pack`/`unpack`,
/// blocks cut at the store's own segment capacity), and a full
/// [`SegmentReader`] pass over the file the store saved.
pub fn segment_ladder(rec: &mut Recorder, records: &[EncodedRecord], file: &[u8], m: &mut Metrics) {
    let n = records.len() as f64;
    let mut blocks: Vec<&[EncodedRecord]> = Vec::new();
    let mut framed = Vec::with_capacity(records.len());
    let (mut start, mut filled, mut plain_bytes) = (0usize, 0usize, 0usize);
    for (i, record) in records.iter().enumerate() {
        let frame = rec.time("segment.encode", i, || record.encode());
        plain_bytes += frame.len();
        if filled > 0 && filled + frame.len() > DEFAULT_SEGMENT_CAPACITY as usize {
            blocks.push(&records[start..i]);
            (start, filled) = (i, 0);
        }
        filled += frame.len();
        framed.push(frame);
    }
    blocks.push(&records[start..]);
    // One span for all decodes: a decode is a few microseconds, too
    // close to the cost of a span to time alone.
    let decoded = rec.time("segment.decode", 0, || {
        framed
            .iter()
            .map(|frame| EncodedRecord::decode(frame).map(|(record, _)| record))
            .collect::<Option<Vec<_>>>()
    });
    assert_eq!(decoded.as_deref(), Some(records));

    for (i, block) in blocks.iter().enumerate() {
        let packed = rec.time("segment.pack", i, || encode_packed_block(block));
        let unpacked = rec.time("segment.unpack", i, || {
            decode_packed_block(&packed, block.len())
        });
        assert_eq!(unpacked.as_deref(), Some(*block));
    }
    let read = rec.time("segment.read", 0, || {
        SegmentReader::new(file)
            .expect("a binary store")
            .by_ref()
            .count()
    });
    assert_eq!(read, records.len());

    m.set("segment.encode_us", rec.mean_us("segment.encode"));
    m.set(
        "segment.decode_us",
        ratio(rec.total_us("segment.decode"), n),
    );
    m.set("segment.pack_us", ratio(rec.total_us("segment.pack"), n));
    m.set(
        "segment.unpack_us",
        ratio(rec.total_us("segment.unpack"), n),
    );
    m.set("segment.read_us", ratio(rec.total_us("segment.read"), n));
    m.set(
        "segment.plain_bytes_per_record",
        ratio(plain_bytes as f64, n),
    );
    m.set(
        "segment.packed_bytes_per_record",
        ratio(file.len() as f64, n),
    );
}

/// The `wlz` codec on the concatenated canonical text of `records`: the
/// bytes every store save compresses and every load decompresses.
pub fn wlz_ladder(rec: &mut Recorder, records: &[EncodedRecord], m: &mut Metrics) {
    let mut text = Vec::new();
    for r in records {
        text.extend_from_slice(r.spec_canon.as_bytes());
        text.extend_from_slice(r.outcome_canon.as_bytes());
    }
    let hexed = rec.time("wlz.hex_pack", 0, || wlz::hex_pack(&text));
    let packed = rec.time("wlz.compress", 0, || wlz::compress(&hexed));
    let unpacked = rec.time("wlz.decompress", 0, || {
        wlz::decompress(&packed, hexed.len())
    });
    assert_eq!(unpacked.as_deref(), Some(hexed.as_slice()));
    let unhexed = rec.time("wlz.hex_unpack", 0, || wlz::hex_unpack(&hexed));
    assert_eq!(unhexed.as_deref(), Some(text.as_slice()));

    // MB/s of the bytes each step consumes: bytes per microsecond.
    let mb_per_s = |bytes: usize, name: &str| ratio(bytes as f64, rec.total_us(name));
    m.set(
        "wlz.hex_pack_mb_per_s",
        mb_per_s(text.len(), "wlz.hex_pack"),
    );
    m.set(
        "wlz.compress_mb_per_s",
        mb_per_s(hexed.len(), "wlz.compress"),
    );
    m.set(
        "wlz.decompress_mb_per_s",
        mb_per_s(hexed.len(), "wlz.decompress"),
    );
    m.set(
        "wlz.hex_unpack_mb_per_s",
        mb_per_s(hexed.len(), "wlz.hex_unpack"),
    );
    m.set("wlz.ratio", ratio(text.len() as f64, packed.len() as f64));
}
