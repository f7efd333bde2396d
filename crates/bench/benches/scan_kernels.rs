//! Vectorized scan/aggregate kernels: batch bit-unpacking against the
//! scalar per-element reference, synopsis-driven skip-scan on banded
//! data, and the fused late-materializing group-by.
//!
//! Besides the criterion timings, the run emits
//! `BENCH_scan_kernels.json` at the repository root with median
//! wall-clock numbers, speedups, and the block scanned/skipped counts
//! observed through the metrics registry.

use criterion::{criterion_group, Criterion, Throughput};
use hana_bench::median_nanos;
use hana_columnar::{RowIdBitmap, VidCodec, VidMatch, BLOCK_ROWS};
use hana_core::HanaPlatform;
use hana_types::{Row, Value};

const ROWS: usize = 1_000_000;
const GROUP_ROWS: usize = 200_000;

fn mix(i: usize) -> usize {
    i.wrapping_mul(2_654_435_761)
}

/// High-entropy vids (~16-bit packed width, no banding): every block's
/// synopsis spans the whole domain, so nothing can be skipped and the
/// comparison isolates the bulk-unpacking kernel itself.
fn entropy_codec() -> VidCodec {
    let vids: Vec<u32> = (0..ROWS).map(|i| (mix(i) % 50_000) as u32 + 1).collect();
    VidCodec::encode(&vids)
}

/// Block-banded vids: each 1024-row block draws from a narrow, strictly
/// increasing band (43 distinct values per block keep the payload
/// Plain), so a selective range predicate intersects only a few block
/// synopses and the skip-scan prunes the rest.
fn banded_codec() -> VidCodec {
    let vids: Vec<u32> = (0..ROWS)
        .map(|i| ((i / BLOCK_ROWS) * 48 + mix(i) % 43) as u32 + 1)
        .collect();
    VidCodec::encode(&vids)
}

/// ~20% selectivity over the entropy data: every block still matches.
fn full_match() -> VidMatch {
    VidMatch::range(1, 10_000)
}

/// A ~20-band window over the banded data: ~2% of blocks survive the
/// synopsis test.
fn banded_match() -> VidMatch {
    VidMatch::range(20_000, 20_960)
}

fn bench_scan_kernels(c: &mut Criterion) {
    let entropy = entropy_codec();
    let banded = banded_codec();
    let fm = full_match();
    let bm = banded_match();
    let mut group = c.benchmark_group("scan_kernels");
    group.throughput(Throughput::Elements(ROWS as u64));
    group.bench_function("full_scan/scalar", |b| {
        b.iter(|| {
            let mut out = RowIdBitmap::new(ROWS);
            entropy.scan_into_scalar(&fm, &mut out, 0);
            out.count()
        })
    });
    group.bench_function("full_scan/vectorized", |b| {
        b.iter(|| {
            let mut out = RowIdBitmap::new(ROWS);
            entropy.scan_into(&fm, &mut out, 0);
            out.count()
        })
    });
    group.bench_function("skip_scan/scalar", |b| {
        b.iter(|| {
            let mut out = RowIdBitmap::new(ROWS);
            banded.scan_into_scalar(&bm, &mut out, 0);
            out.count()
        })
    });
    group.bench_function("skip_scan/vectorized", |b| {
        b.iter(|| {
            let mut out = RowIdBitmap::new(ROWS);
            banded.scan_into(&bm, &mut out, 0);
            out.count()
        })
    });
    group.finish();
}

/// Median scan times for one codec/match pair, with the vectorized
/// result checked against the scalar reference.
fn scan_pair(codec: &VidCodec, m: &VidMatch) -> (u128, u128) {
    let mut reference = RowIdBitmap::new(ROWS);
    codec.scan_into_scalar(m, &mut reference, 0);
    let mut fast = RowIdBitmap::new(ROWS);
    codec.scan_into(m, &mut fast, 0);
    assert_eq!(fast, reference, "vectorized scan diverged from scalar");
    let scalar_ns = median_nanos(|| {
        let mut out = RowIdBitmap::new(ROWS);
        codec.scan_into_scalar(m, &mut out, 0);
    });
    let vector_ns = median_nanos(|| {
        let mut out = RowIdBitmap::new(ROWS);
        codec.scan_into(m, &mut out, 0);
    });
    (scalar_ns, vector_ns)
}

/// Blocks scanned/skipped by one vectorized scan, read as a delta of
/// the global metrics registry counters.
fn block_counts(codec: &VidCodec, m: &VidMatch) -> (u64, u64) {
    let before = hana_obs::registry().snapshot();
    let mut out = RowIdBitmap::new(ROWS);
    codec.scan_into(m, &mut out, 0);
    let after = hana_obs::registry().snapshot();
    (
        after.counter("hana_columnar_blocks_scanned_total")
            - before.counter("hana_columnar_blocks_scanned_total"),
        after.counter("hana_columnar_blocks_skipped_total")
            - before.counter("hana_columnar_blocks_skipped_total"),
    )
}

/// Fused (vid-keyed, late-materializing) against generic (row-at-a-time)
/// group-by through the SQL front end. `SUM(v + 0)` computes the same
/// aggregate but the expression argument defeats the fusion gate, so it
/// runs the row-materializing path on the identical table.
fn group_by_medians() -> (u128, u128) {
    let hana = HanaPlatform::new_in_memory();
    let s = hana.connect("SYSTEM", "manager").unwrap();
    hana.execute_sql(&s, "CREATE COLUMN TABLE t (g INTEGER, v INTEGER)")
        .unwrap();
    let rows: Vec<Row> = (0..GROUP_ROWS)
        .map(|i| Row::from_values([Value::Int((mix(i) % 1_000) as i64), Value::Int(i as i64)]))
        .collect();
    hana.load_rows(&s, "t", &rows).unwrap();
    hana.execute_sql(&s, "MERGE DELTA OF t").unwrap();
    let fused_q = "SELECT g, COUNT(*) AS n, SUM(v) AS total FROM t GROUP BY g";
    let generic_q = "SELECT g, COUNT(*) AS n, SUM(v + 0) AS total FROM t GROUP BY g";
    let fused = hana.execute_sql(&s, fused_q).unwrap();
    let generic = hana.execute_sql(&s, generic_q).unwrap();
    assert_eq!(fused.len(), 1_000);
    assert_eq!(fused.len(), generic.len());
    let generic_ns = median_nanos(|| {
        hana.execute_sql(&s, generic_q).unwrap();
    });
    let fused_ns = median_nanos(|| {
        hana.execute_sql(&s, fused_q).unwrap();
    });
    (generic_ns, fused_ns)
}

/// Direct `Instant` medians for the machine-readable summary (the
/// criterion stub reports means on stdout only).
fn emit_json() {
    let entropy = entropy_codec();
    let fm = full_match();
    let (full_scalar, full_vector) = scan_pair(&entropy, &fm);
    let full_speedup = full_scalar as f64 / full_vector as f64;
    println!(
        "scan_kernels: full scan vectorized {:.3} ms ({full_speedup:.2}x vs scalar {:.3} ms)",
        full_vector as f64 / 1e6,
        full_scalar as f64 / 1e6,
    );

    let banded = banded_codec();
    let bm = banded_match();
    let (skip_scalar, skip_vector) = scan_pair(&banded, &bm);
    let skip_speedup = skip_scalar as f64 / skip_vector as f64;
    let (scanned, skipped) = block_counts(&banded, &bm);
    assert!(skipped > 0, "selective banded scan should skip blocks");
    println!(
        "scan_kernels: skip scan vectorized {:.3} ms ({skip_speedup:.2}x vs scalar {:.3} ms), \
         {scanned} blocks scanned / {skipped} skipped",
        skip_vector as f64 / 1e6,
        skip_scalar as f64 / 1e6,
    );

    let (generic_ns, fused_ns) = group_by_medians();
    let group_speedup = generic_ns as f64 / fused_ns as f64;
    let fused_rows_per_sec = GROUP_ROWS as f64 / (fused_ns as f64 / 1e9);
    println!(
        "scan_kernels: fused group-by {:.3} ms ({group_speedup:.2}x vs generic {:.3} ms, \
         {fused_rows_per_sec:.0} rows/s)",
        fused_ns as f64 / 1e6,
        generic_ns as f64 / 1e6,
    );

    let json = format!(
        "{{\n  \"bench\": \"scan_kernels\",\n  \"rows\": {ROWS},\n  \
         \"full_scan\": {{\"scalar_median_ns\": {full_scalar}, \
         \"vectorized_median_ns\": {full_vector}, \"speedup\": {full_speedup:.3}}},\n  \
         \"skip_scan\": {{\"scalar_median_ns\": {skip_scalar}, \
         \"vectorized_median_ns\": {skip_vector}, \"speedup\": {skip_speedup:.3}, \
         \"blocks_scanned\": {scanned}, \"blocks_skipped\": {skipped}}},\n  \
         \"group_by\": {{\"rows\": {GROUP_ROWS}, \"generic_median_ns\": {generic_ns}, \
         \"fused_median_ns\": {fused_ns}, \"speedup\": {group_speedup:.3}, \
         \"fused_rows_per_sec\": {fused_rows_per_sec:.0}}}\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scan_kernels.json");
    std::fs::write(path, json).expect("write BENCH_scan_kernels.json");
    println!("wrote {path}");
}

criterion_group!(benches, bench_scan_kernels);

fn main() {
    benches();
    emit_json();
}
