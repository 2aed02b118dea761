//! Tests pinning the wire-v3 (interleaved rANS) contract: a stored
//! container fixture, per-lane truncation/corruption detection, and
//! chunk-local damage containment. (Bit-exactness against an
//! entropy-free reference decode lives with the encoder's unit tests.)

use cachegen_codec::delta::GroupLayout;
use cachegen_codec::repair::{ChunkArrivalMap, RepairCause, RepairPolicy};
use cachegen_codec::{CodecConfig, CodecProfile, EncodedKv, KvCodec};
use cachegen_llm::{KvCache, SimModelConfig, SimTransformer};
use proptest::prelude::*;

/// A small encoded cache plus the codec that produced it, shared by the
/// damage-injection properties below.
fn encode_small(seed: u64, len: usize, delta: bool) -> (KvCodec, EncodedKv) {
    let model = SimTransformer::new(SimModelConfig::tiny(7));
    let mut rng = cachegen_tensor::rng::seeded(seed);
    use rand::Rng;
    let ctx: Vec<usize> = (0..len).map(|_| rng.gen::<usize>() % 64).collect();
    let cache = model.prefill(&ctx);
    let cfg = CodecConfig {
        delta_encoding: delta,
        ..CodecConfig::default()
    };
    let profile = CodecProfile::build(&cfg, &[&cache]);
    let codec = KvCodec::new(cfg, profile);
    let enc = codec.encode(&cache);
    (codec, enc)
}

/// FNV-1a over the bit patterns of the decoded K then V elements: the
/// digest the stored fixture pins the decoded cache with.
fn cache_digest(cache: &KvCache) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in cache.k().data().iter().chain(cache.v().data()) {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The stored v3 container: a 20-token context on the seeded tiny model,
/// encoded with the default codec config under a profile built from the
/// same cache.
const FIXTURE: &[u8] = include_bytes!("fixtures/codec_v3_tiny.cgkv");
/// [`cache_digest`] of the fixture's decoded cache.
const FIXTURE_DIGEST: u64 = 0x96df_d151_d4ac_2824;

/// Wire-compat gate for the container: today's encoder must still emit
/// the stored bytes, and today's decoder must still turn the stored bytes
/// into the stored digest, serially and in parallel.
#[test]
fn stored_v3_container_fixture_is_stable() {
    let model = SimTransformer::new(SimModelConfig::tiny(7));
    let ctx: Vec<usize> = (0..20).map(|i| (i * 13 + 5) % 64).collect();
    let cache = model.prefill(&ctx);
    let cfg = CodecConfig::default();
    let profile = CodecProfile::build(&cfg, &[&cache]);
    let codec = KvCodec::new(cfg, profile);
    let bytes = codec.encode(&cache).to_bytes();
    assert_eq!(bytes[4], 3, "fixture is a version-3 container");
    assert!(
        bytes == FIXTURE,
        "encoder output drifted from the stored fixture"
    );
    let enc = EncodedKv::from_bytes(FIXTURE).expect("fixture parses");
    assert_eq!(cache_digest(&codec.decode(&enc)), FIXTURE_DIGEST);
    assert_eq!(cache_digest(&codec.decode_parallel(&enc)), FIXTURE_DIGEST);
}

proptest! {
    // Each case prefills the tiny transformer, so keep the counts modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Truncating any v3 chunk to any proper prefix is always detected:
    /// `try_decode` errors (lane states cannot all return to the
    /// normalization base on short input) and never returns noise.
    #[test]
    fn truncated_v3_chunk_is_always_detected(
        seed in 0u64..200,
        len in 20usize..50,
        pick in 0usize..1000,
        cut in 0usize..1000,
    ) {
        let (codec, mut enc) = encode_small(seed, len, seed % 2 == 0);
        let groups = GroupLayout::new(enc.group_size, enc.tokens).num_groups();
        let flat = 2 * enc.layers * groups;
        let target = pick % flat;
        let (side, rest) = (target / (enc.layers * groups), target % (enc.layers * groups));
        let (layer, group) = (rest / groups, rest % groups);
        let chunks = if side == 0 { &mut enc.k_chunks } else { &mut enc.v_chunks };
        let chunk = &mut chunks[layer][group];
        prop_assert!(!chunk.is_empty()); // v3 chunks always carry the state header
        let keep = cut % chunk.len();
        chunk.truncate(keep);
        prop_assert!(codec.try_decode(&enc).is_err());
        prop_assert!(codec.try_decode_parallel(&enc).is_err());
    }

    /// Flipping any single bit of any v3 chunk is detected: the decoder
    /// either consumes a different byte count than the frame claims or
    /// fails the per-lane final-state check — it never silently yields a
    /// cache decoded from corrupt bytes.
    #[test]
    fn corrupt_v3_chunk_is_always_detected(
        seed in 0u64..200,
        len in 20usize..50,
        pick in 0usize..1000,
        at in 0usize..10_000,
        bit in 0u8..8,
    ) {
        let (codec, mut enc) = encode_small(seed, len, seed % 2 == 0);
        let groups = GroupLayout::new(enc.group_size, enc.tokens).num_groups();
        let flat = 2 * enc.layers * groups;
        let target = pick % flat;
        let (side, rest) = (target / (enc.layers * groups), target % (enc.layers * groups));
        let (layer, group) = (rest / groups, rest % groups);
        let chunks = if side == 0 { &mut enc.k_chunks } else { &mut enc.v_chunks };
        let chunk = &mut chunks[layer][group];
        prop_assert!(!chunk.is_empty()); // v3 chunks always carry the state header
        let idx = at % chunk.len();
        chunk[idx] ^= 1u8 << bit;
        prop_assert!(codec.try_decode(&enc).is_err());
    }

    /// Chunks stay independent on the v3 wire: damaging one chunk is
    /// repaired (and reported) without perturbing any other chunk's
    /// decoded rows — the interleaved lanes never leak state across the
    /// per-(layer, token-group) chunk boundary.
    #[test]
    fn v3_damage_is_chunk_local(
        seed in 0u64..200,
        len in 20usize..50,
        pick in 0usize..1000,
        at in 0usize..10_000,
    ) {
        let (codec, enc) = encode_small(seed, len, true);
        let clean = codec.decode(&enc);
        let layout = GroupLayout::new(enc.group_size, enc.tokens);
        let groups = layout.num_groups();
        let flat = 2 * enc.layers * groups;
        let target = pick % flat;
        let (side, rest) = (target / (enc.layers * groups), target % (enc.layers * groups));
        let (layer, group) = (rest / groups, rest % groups);
        let is_k = side == 0;
        let mut damaged = enc.clone();
        let chunks = if is_k { &mut damaged.k_chunks } else { &mut damaged.v_chunks };
        let chunk = &mut chunks[layer][group];
        prop_assert!(!chunk.is_empty()); // v3 chunks always carry the state header
        let idx = at % chunk.len();
        chunk[idx] ^= 0x10;
        let arrivals = ChunkArrivalMap::full(enc.layers, groups);
        let repaired = codec
            .decode_with_repairs(&damaged, &arrivals, RepairPolicy::ZeroFill)
            .unwrap();
        // Exactly the damaged chunk is reported, as arrived-but-corrupt.
        prop_assert_eq!(repaired.repairs.len(), 1);
        let r = &repaired.repairs[0];
        prop_assert_eq!((r.is_k, r.layer, r.group), (is_k, layer, group));
        prop_assert!(matches!(r.cause, RepairCause::Corrupt(_)));
        // Every row outside the damaged (side, layer, group) region is
        // bit-identical to the clean decode.
        let (start, end) = layout.group_range(group);
        let channels = enc.channels;
        let tokens = enc.tokens;
        for (side_idx, (got, want)) in [
            (repaired.cache.k().data(), clean.k().data()),
            (repaired.cache.v().data(), clean.v().data()),
        ]
        .into_iter()
        .enumerate()
        {
            for (i, (g, w)) in got.iter().zip(want).enumerate() {
                let l = i / (tokens * channels);
                let t = (i / channels) % tokens;
                let in_damaged =
                    (side_idx == 0) == is_k && l == layer && t >= start && t < end;
                if !in_damaged {
                    prop_assert!(
                        g.to_bits() == w.to_bits(),
                        "leak at side {} layer {} token {} (damaged: {:?})",
                        side_idx, l, t, (is_k, layer, group)
                    );
                }
            }
        }
    }
}
