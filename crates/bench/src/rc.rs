//! Byte-renormalizing serial range coder: the benchmark's reference
//! entropy coder.
//!
//! The codec ships one entropy coder, the four-lane interleaved rANS of
//! [`cachegen_codec::rans`]. This module keeps the serial range coder it
//! replaced as a measuring stick only: the `entropy_coding` bench group
//! decodes the same symbol stream through both, and the `ratchet` binary
//! fails CI when rANS decode drops below the pinned multiple of this
//! coder's rate. Nothing on a wire path uses it.
//!
//! It is a carry-less range coder in the Subbotin style, with 64-bit
//! state and whole-byte output:
//!
//! * the coder state is a `(low, range)` window over the full 64-bit
//!   integer line; symbols narrow the window proportionally to their
//!   frequency (`range / total` per-symbol scaling);
//! * renormalization emits the **top byte** of `low` whenever it is settled
//!   (the window no longer straddles a top-byte boundary), shifting state
//!   left by 8 bits, with no per-bit branching and no pending-bit
//!   bookkeeping;
//! * carries cannot occur: when the window straddles a boundary and has
//!   shrunk below `BOT`, the range is clamped to the boundary distance
//!   (losing < 1 bit of code space) so emitted bytes are final.
//!
//! Frequency totals are exactly [`MAX_TOTAL`] (2²⁴) by construction, so
//! the per-symbol `range / total` is a plain shift and `range / total ≥
//! 2²⁴` after renormalization (`range ≥ 2⁴⁸` between symbols).
//!
//! The [`Decoder`] accounts for consumed bytes **exactly**: an encoder's
//! output is always the renorm bytes plus 8 flush bytes, and a decoder
//! driven with the same table sequence consumes exactly that many (8 up
//! front, the renorm bytes as it goes). [`Decoder::bytes_consumed`] never
//! counts synthetic past-end zeros; those are tallied separately in
//! [`Decoder::overrun_bytes`].

use cachegen_codec::symbol_model::{FreqTable, MAX_TOTAL, TOTAL_BITS};

/// Renormalization threshold: the top byte of `low` is settled once the
/// window fits under this boundary spacing.
const TOP: u64 = 1 << 56;
/// Minimum inter-symbol range. `range ≥ BOT` is restored by
/// renormalization, so per-symbol scaling keeps ≥ 24 bits of headroom over
/// [`MAX_TOTAL`].
const BOT: u64 = 1 << 48;
/// Bytes emitted by [`Encoder::finish`] to pin down the final interval
/// (and read up-front by [`Decoder::new`]).
pub const FLUSH_BYTES: usize = 8;

/// Streaming range encoder. Symbols are encoded under caller-supplied
/// [`FreqTable`]s; the decoder must be driven with the same table sequence.
pub struct Encoder {
    low: u64,
    range: u64,
    out: Vec<u8>,
}

impl Default for Encoder {
    fn default() -> Self {
        Self::new()
    }
}

impl Encoder {
    /// Creates a fresh encoder.
    pub fn new() -> Self {
        Encoder {
            low: 0,
            range: u64::MAX,
            out: Vec::new(),
        }
    }

    /// Encodes one alphabet index under the given frequency table.
    #[inline]
    pub fn encode(&mut self, table: &FreqTable, index: usize) {
        let (cum_lo, cum_hi) = table.range(index);
        debug_assert_eq!(table.total(), MAX_TOTAL);
        debug_assert!(cum_hi > cum_lo, "symbol {index} has zero frequency");
        // Every table totals exactly 2^TOTAL_BITS, so the per-symbol
        // range scaling is a shift, not a division.
        let r = self.range >> TOTAL_BITS;
        self.low = self.low.wrapping_add(r * cum_lo);
        // The last symbol absorbs the `range % total` rounding slack so no
        // code space is wasted; the decoder mirrors this exactly.
        self.range = if cum_hi == MAX_TOTAL {
            self.range - r * cum_lo
        } else {
            r * (cum_hi - cum_lo)
        };
        self.normalize();
    }

    #[inline]
    fn normalize(&mut self) {
        loop {
            if self.low ^ self.low.wrapping_add(self.range) < TOP {
                // Top byte settled: emit it.
            } else if self.range < BOT {
                // Window straddles a top-byte boundary but is small; clamp
                // it to the near side so the byte becomes final (carry-less
                // renormalization). `low` is not BOT-aligned here (an
                // aligned window this small cannot straddle), so the
                // clamped range stays positive.
                self.range = self.low.wrapping_neg() & (BOT - 1);
            } else {
                break;
            }
            self.out.push((self.low >> 56) as u8);
            self.low <<= 8;
            self.range <<= 8;
        }
    }

    /// Bytes emitted so far (excluding the final flush).
    pub fn bytes_written(&self) -> usize {
        self.out.len()
    }

    /// Flushes the final interval and returns the byte stream. Always
    /// appends exactly [`FLUSH_BYTES`] bytes, which the decoder consumes
    /// up front — output length is therefore exactly predictable from the
    /// renormalization byte count.
    pub fn finish(mut self) -> Vec<u8> {
        for _ in 0..FLUSH_BYTES {
            self.out.push((self.low >> 56) as u8);
            self.low <<= 8;
        }
        self.out
    }
}

/// Streaming range decoder with exact consumed-byte accounting.
pub struct Decoder<'a> {
    buf: &'a [u8],
    /// Bytes actually consumed from `buf`.
    pos: usize,
    /// Synthetic zero bytes yielded past the end of `buf`.
    synthetic: usize,
    low: u64,
    range: u64,
    code: u64,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over an encoded byte stream. Reads
    /// [`FLUSH_BYTES`] bytes immediately.
    pub fn new(buf: &'a [u8]) -> Self {
        let mut d = Decoder {
            buf,
            pos: 0,
            synthetic: 0,
            low: 0,
            range: u64::MAX,
            code: 0,
        };
        for _ in 0..FLUSH_BYTES {
            d.code = (d.code << 8) | u64::from(d.next_byte());
        }
        d
    }

    #[inline]
    fn next_byte(&mut self) -> u8 {
        if self.pos < self.buf.len() {
            let b = self.buf[self.pos];
            self.pos += 1;
            b
        } else {
            self.synthetic += 1;
            0
        }
    }

    /// Decodes one alphabet index under the given frequency table.
    #[inline]
    pub fn decode(&mut self, table: &FreqTable) -> usize {
        debug_assert_eq!(table.total(), MAX_TOTAL);
        let r = self.range >> TOTAL_BITS;
        // Position of `code` inside the window, in frequency units. Values
        // in the rounding-slack tail map to the last symbol (min), exactly
        // mirroring the encoder's slack assignment.
        let scaled = (self.code.wrapping_sub(self.low) / r).min(MAX_TOTAL - 1);
        let index = table.find(scaled);
        let (cum_lo, cum_hi) = table.range(index);
        self.low = self.low.wrapping_add(r * cum_lo);
        self.range = if cum_hi == MAX_TOTAL {
            self.range - r * cum_lo
        } else {
            r * (cum_hi - cum_lo)
        };
        loop {
            if self.low ^ self.low.wrapping_add(self.range) < TOP {
                // emit (consume) below
            } else if self.range < BOT {
                self.range = self.low.wrapping_neg() & (BOT - 1);
            } else {
                break;
            }
            self.code = (self.code << 8) | u64::from(self.next_byte());
            self.low <<= 8;
            self.range <<= 8;
        }
        index
    }

    /// Bytes actually consumed from the input buffer. For a well-formed
    /// stream decoded to completion this equals the stream's length.
    pub fn bytes_consumed(&self) -> usize {
        self.pos
    }

    /// Synthetic zero bytes handed out past the end of input — nonzero
    /// means the stream was truncated relative to the symbols requested.
    pub fn overrun_bytes(&self) -> usize {
        self.synthetic
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachegen_codec::rans::{self, AliasTable, LANES, STATE_BYTES};
    use rand::Rng;

    fn round_trip(symbols: &[usize], table: &FreqTable) -> Vec<usize> {
        let mut enc = Encoder::new();
        for &s in symbols {
            enc.encode(table, s);
        }
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        let out: Vec<usize> = (0..symbols.len()).map(|_| dec.decode(table)).collect();
        // Exact accounting: the decoder consumes the stream completely and
        // never reads past it.
        assert_eq!(dec.bytes_consumed(), bytes.len());
        assert_eq!(dec.overrun_bytes(), 0);
        out
    }

    #[test]
    fn round_trip_uniform_alphabet() {
        let table = FreqTable::uniform(8);
        let symbols: Vec<usize> = (0..1000).map(|i| (i * 31) % 8).collect();
        assert_eq!(round_trip(&symbols, &table), symbols);
    }

    #[test]
    fn round_trip_skewed_alphabet() {
        let table = FreqTable::from_counts(&[1000, 10, 5, 1]);
        let symbols = vec![0, 0, 0, 1, 0, 2, 0, 0, 3, 0, 0, 0, 1, 0];
        assert_eq!(round_trip(&symbols, &table), symbols);
    }

    #[test]
    fn skewed_distribution_compresses_below_fixed_width() {
        let table = FreqTable::from_counts(&[970, 10, 10, 10]);
        let mut rng = cachegen_tensor::rng::seeded(11);
        let symbols: Vec<usize> = (0..10_000)
            .map(|_| {
                let r: f32 = rng.gen();
                if r < 0.97 {
                    0
                } else {
                    1 + (rng.gen::<u32>() % 3) as usize
                }
            })
            .collect();
        let mut enc = Encoder::new();
        for &s in &symbols {
            enc.encode(&table, s);
        }
        let bytes = enc.finish();
        let bits_per_symbol = bytes.len() as f64 * 8.0 / symbols.len() as f64;
        assert!(
            bits_per_symbol < 0.5,
            "expected <0.5 bits/symbol, got {bits_per_symbol:.3}"
        );
        let mut dec = Decoder::new(&bytes);
        for &s in &symbols {
            assert_eq!(dec.decode(&table), s);
        }
    }

    #[test]
    fn per_symbol_context_switching() {
        let t0 = FreqTable::from_counts(&[10, 1, 1, 1]);
        let t1 = FreqTable::from_counts(&[1, 1, 1, 10]);
        let symbols: Vec<usize> = (0..500).map(|i| if i % 2 == 0 { 0 } else { 3 }).collect();
        let mut enc = Encoder::new();
        for (i, &s) in symbols.iter().enumerate() {
            enc.encode(if i % 2 == 0 { &t0 } else { &t1 }, s);
        }
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        for (i, &s) in symbols.iter().enumerate() {
            assert_eq!(dec.decode(if i % 2 == 0 { &t0 } else { &t1 }), s);
        }
        // Every symbol is the most likely one under its table, so the whole
        // stream (minus the fixed flush tail) stays under 1 bit/symbol.
        assert!((bytes.len() - FLUSH_BYTES) * 8 < symbols.len());
    }

    #[test]
    fn single_symbol_stream() {
        let table = FreqTable::uniform(256);
        assert_eq!(round_trip(&[42], &table), vec![42]);
    }

    #[test]
    fn empty_stream_is_flush_only() {
        let enc = Encoder::new();
        assert_eq!(enc.finish().len(), FLUSH_BYTES);
    }

    #[test]
    fn random_streams_round_trip() {
        let mut rng = cachegen_tensor::rng::seeded(99);
        for trial in 0..40 {
            let alpha = 2 + (trial % 16);
            let counts: Vec<u32> = (0..alpha).map(|_| 1 + rng.gen::<u32>() % 100).collect();
            let table = FreqTable::from_counts(&counts);
            let n = 1 + (rng.gen::<usize>() % 2000);
            let symbols: Vec<usize> = (0..n).map(|_| rng.gen::<usize>() % alpha).collect();
            assert_eq!(round_trip(&symbols, &table), symbols, "trial {trial}");
        }
    }

    #[test]
    fn near_max_total_tables_round_trip() {
        // Tables renormalized to exactly MAX_TOTAL exercise the minimum
        // per-symbol precision headroom.
        let counts: Vec<u32> = (0..256)
            .map(|i| if i % 2 == 0 { u32::MAX / 64 } else { 0 })
            .collect();
        let table = FreqTable::from_counts(&counts);
        assert!(table.total() <= MAX_TOTAL);
        let symbols: Vec<usize> = (0..4_000).map(|i| (i * 2) % 256).collect();
        assert_eq!(round_trip(&symbols, &table), symbols);
    }

    #[test]
    fn truncated_stream_overruns() {
        let table = FreqTable::uniform(256);
        let symbols: Vec<usize> = (0..2_000).map(|i| (i * 131) % 256).collect();
        let mut enc = Encoder::new();
        for &s in &symbols {
            enc.encode(&table, s);
        }
        let mut bytes = enc.finish();
        bytes.truncate(bytes.len() / 2);
        let mut dec = Decoder::new(&bytes);
        for _ in 0..symbols.len() {
            dec.decode(&table);
        }
        assert!(dec.overrun_bytes() > 0, "truncation must be observable");
        assert_eq!(dec.bytes_consumed(), bytes.len());
    }

    #[test]
    fn matches_range_coder_losslessness_on_same_tables() {
        // Same symbols through the range coder (cumulative layout) and
        // rANS (alias layout): different bytes, identical decoded
        // sequences.
        let freq = FreqTable::from_counts(&[500, 30, 9, 2, 1]);
        let table = AliasTable::from_freq(&freq);
        let symbols: Vec<usize> = (0..3_000).map(|i| (i * i) % 5).collect();
        let mut rc_enc = Encoder::new();
        let mut rans_enc = rans::Encoder::new();
        for (i, &s) in symbols.iter().enumerate() {
            rc_enc.encode(&freq, s);
            rans_enc.encode(i % LANES, &table, s);
        }
        let rc_bytes = rc_enc.finish();
        let rans_bytes = rans_enc.finish();
        let mut rc_dec = Decoder::new(&rc_bytes);
        let mut rans_dec = rans::Decoder::new(&rans_bytes);
        for (i, &s) in symbols.iter().enumerate() {
            assert_eq!(rc_dec.decode(&freq), s);
            assert_eq!(rans_dec.decode(i % LANES, &table), s);
        }
        assert!(rans_dec.finished());
    }

    #[test]
    fn compression_is_close_to_the_range_coder() {
        // rANS coding efficiency must not regress past its fixed 32-byte
        // state header: compare payload sizes on a skewed stream.
        let freq = FreqTable::from_counts(&[900, 50, 25, 12, 6, 3, 2, 1]);
        let table = AliasTable::from_freq(&freq);
        let mut rng = cachegen_tensor::rng::seeded(5);
        let symbols: Vec<usize> = (0..20_000)
            .map(|_| (rng.gen::<u32>() % 8) as usize)
            .collect();
        let mut rc_enc = Encoder::new();
        let mut rans_enc = rans::Encoder::new();
        for (i, &s) in symbols.iter().enumerate() {
            rc_enc.encode(&freq, s);
            rans_enc.encode(i % LANES, &table, s);
        }
        let rc_len = rc_enc.finish().len() as f64;
        let rans_len = rans_enc.finish().len() as f64;
        assert!(
            rans_len < rc_len * 1.02 + STATE_BYTES as f64,
            "rANS stream {rans_len}B vs range coder {rc_len}B"
        );
    }
}
