//! Criterion benches: codec encode/decode throughput and the entropy
//! coders' raw symbol rates (the §7.5 decoding-overhead microbenchmarks).
//!
//! The `entropy_coding` group pits the 4-lane interleaved rANS coder
//! (`cachegen_codec::rans`, the codec's entropy coder) against the serial
//! byte-renormalizing range coder (`cachegen_bench::rc`, a bench-only
//! reference) on identical symbol streams — the `range_*` rows are the
//! baseline the `ratchet` binary holds rANS decode to. The
//! `kv_codec` group exercises the end-to-end path, where `decode_parallel`
//! fans out per (layer, token-group) chunk: with 200 tokens at group size
//! 10 there are 20 groups per layer, so the work-item count (2 × layers ×
//! groups) far exceeds the old thread-per-layer fan-out.

//! Beyond printing, the harness writes the headline numbers to
//! `BENCH_codec.json` at the workspace root (decode rates in Melem/s,
//! end-to-end codec times in ms, and the parallel decoder's pool shape
//! from one traced run) so CI can archive the perf trajectory.

use cachegen_bench::rc;
use cachegen_codec::rans::{self, AliasTable};
use cachegen_codec::symbol_model::FreqTable;
use cachegen_codec::{CodecConfig, CodecProfile, KvCodec};
use cachegen_llm::{SimModelConfig, SimTransformer};
use cachegen_telemetry::{workspace_root, JsonValue, Recorder};
use criterion::{BenchmarkId, Criterion, Throughput};

fn bench_entropy_coders(c: &mut Criterion) {
    let table = FreqTable::from_counts(&vec![10u32; 256]);
    let symbols: Vec<usize> = (0..100_000).map(|i| (i * 31) % 256).collect();
    let mut rc_enc = rc::Encoder::new();
    for &s in &symbols {
        rc_enc.encode(&table, s);
    }
    let rc_bytes = rc_enc.finish();

    let mut g = c.benchmark_group("entropy_coding");
    g.throughput(Throughput::Elements(symbols.len() as u64));
    g.bench_function("range_encode_100k_symbols", |b| {
        b.iter(|| {
            let mut enc = rc::Encoder::new();
            for &s in &symbols {
                enc.encode(&table, s);
            }
            enc.finish()
        })
    });
    g.bench_function("range_decode_100k_symbols", |b| {
        b.iter(|| {
            let mut dec = rc::Decoder::new(&rc_bytes);
            let mut acc = 0usize;
            for _ in 0..symbols.len() {
                acc ^= dec.decode(&table);
            }
            acc
        })
    });
    // Interleaved-rANS rows: the codec's coder, measured on the same
    // stream with the round-robin lane schedule the codec uses
    // (lane = position % LANES).
    let alias = AliasTable::from_freq(&table);
    let mut rans_enc = rans::Encoder::new();
    for (i, &s) in symbols.iter().enumerate() {
        rans_enc.encode(i % rans::LANES, &alias, s);
    }
    let rans_bytes = rans_enc.finish();
    g.bench_function("rans_encode_100k_symbols", |b| {
        b.iter(|| {
            let mut enc = rans::Encoder::new();
            for (i, &s) in symbols.iter().enumerate() {
                enc.encode(i % rans::LANES, &alias, s);
            }
            enc.finish()
        })
    });
    g.bench_function("rans_decode_100k_symbols", |b| {
        b.iter(|| {
            let mut dec = rans::Decoder::new(&rans_bytes);
            let mut acc = 0usize;
            for i in 0..symbols.len() {
                acc ^= dec.decode(i % rans::LANES, &alias);
            }
            acc
        })
    });
    g.finish();
}

fn bench_kv_codec(c: &mut Criterion) {
    let model = SimTransformer::new(SimModelConfig::llama7b_sim(42));
    let ctx: Vec<usize> = (0..200).map(|i| (i * 7) % 512).collect();
    let cache = model.prefill(&ctx);
    let cfg = CodecConfig::default();
    let profile = CodecProfile::build(&cfg, &[&cache]);
    let codec = KvCodec::new(cfg, profile);
    let enc = codec.encode(&cache);

    let mut g = c.benchmark_group("kv_codec");
    g.throughput(Throughput::Elements(cache.num_elements() as u64));
    g.bench_function("encode", |b| b.iter(|| codec.encode(&cache)));
    g.bench_function("decode_serial", |b| b.iter(|| codec.decode(&enc)));
    g.bench_function("decode_parallel", |b| {
        b.iter(|| codec.decode_parallel(&enc))
    });
    g.finish();
}

fn bench_prefill(c: &mut Criterion) {
    // The compute CacheGen avoids: prefill grows superlinearly (Figure 14b).
    let model = SimTransformer::new(SimModelConfig::llama7b_sim(42));
    let mut g = c.benchmark_group("prefill");
    g.sample_size(10);
    for &len in &[50usize, 100, 200] {
        let ctx: Vec<usize> = (0..len).map(|i| (i * 7) % 512).collect();
        g.bench_with_input(BenchmarkId::from_parameter(len), &ctx, |b, ctx| {
            b.iter(|| model.prefill(ctx))
        });
    }
    g.finish();
}

/// One traced parallel decode, for the pool-shape metrics the timing
/// rows can't show (worker count, jobs per worker).
fn pool_shape() -> (f64, f64) {
    let model = SimTransformer::new(SimModelConfig::llama7b_sim(42));
    let ctx: Vec<usize> = (0..200).map(|i| (i * 7) % 512).collect();
    let cache = model.prefill(&ctx);
    let cfg = CodecConfig::default();
    let profile = CodecProfile::build(&cfg, &[&cache]);
    let codec = KvCodec::new(cfg, profile);
    let enc = codec.encode(&cache);
    let recorder = Recorder::new();
    codec
        .try_decode_parallel_traced(&enc, &recorder)
        .expect("self-encoded stream decodes");
    let snap = recorder.registry_snapshot();
    let workers = snap
        .gauge_value("cachegen.codec.pool.workers")
        .unwrap_or(0.0);
    let chunks = snap.counter("cachegen.codec.decode_chunks").unwrap_or(0) as f64;
    (workers, chunks)
}

fn main() {
    let mut criterion = Criterion::default().configure_from_args();
    bench_entropy_coders(&mut criterion);
    bench_kv_codec(&mut criterion);
    bench_prefill(&mut criterion);

    let melem = |label: &str| {
        criterion
            .measurement(label)
            .and_then(criterion::Measurement::elements_per_sec)
            .map_or(JsonValue::Null, |r| JsonValue::Number(r / 1e6))
    };
    let ms = |label: &str| {
        criterion
            .measurement(label)
            .map_or(JsonValue::Null, |m| JsonValue::Number(m.ms_per_iter()))
    };
    let (pool_workers, decode_chunks) = pool_shape();
    let doc = JsonValue::Object(vec![
        ("bench".to_string(), JsonValue::String("codec".to_string())),
        (
            "range_decode_melem_per_s".to_string(),
            melem("entropy_coding/range_decode_100k_symbols"),
        ),
        (
            "range_encode_melem_per_s".to_string(),
            melem("entropy_coding/range_encode_100k_symbols"),
        ),
        (
            "rans_decode_melem_per_s".to_string(),
            melem("entropy_coding/rans_decode_100k_symbols"),
        ),
        (
            "rans_encode_melem_per_s".to_string(),
            melem("entropy_coding/rans_encode_100k_symbols"),
        ),
        (
            "rans_lanes".to_string(),
            JsonValue::Number(rans::LANES as f64),
        ),
        ("kv_encode_ms".to_string(), ms("kv_codec/encode")),
        (
            "kv_decode_serial_ms".to_string(),
            ms("kv_codec/decode_serial"),
        ),
        (
            "kv_decode_parallel_ms".to_string(),
            ms("kv_codec/decode_parallel"),
        ),
        ("pool_workers".to_string(), JsonValue::Number(pool_workers)),
        (
            "decode_chunks".to_string(),
            JsonValue::Number(decode_chunks),
        ),
    ]);
    let path = workspace_root().join("BENCH_codec.json");
    let mut text = doc.to_compact();
    text.push('\n');
    std::fs::write(&path, text).expect("write BENCH_codec.json");
    println!("wrote {}", path.display());
}
