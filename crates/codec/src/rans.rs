//! Four-lane interleaved rANS — the codec's entropy coder (wire v3).
//!
//! A serial range coder decodes one symbol per dependent
//! divide/renormalize chain, so raw decode throughput is pinned to the
//! latency of a 64-bit division. This module is a *range asymmetric
//! numeral system* in the 64-bit/32-bit-word formulation instead:
//!
//! * **Four independent `u64` states** round-robin over the symbol
//!   sequence (`lane = position % LANES` is the caller's contract, the
//!   codec uses `channel % LANES`). Each lane's update chain is
//!   independent of the others, so a superscalar CPU overlaps four
//!   decodes where the range coder serialized one.
//! * **Division-free decode.** Frequency totals are exactly
//!   `2^TOTAL_BITS` ([`crate::symbol_model::MAX_TOTAL`]), so the state
//!   split is a mask/shift and the update is one multiply-add —
//!   the per-symbol division lives only on the encode side.
//! * **Alias-table symbol resolution** ([`AliasTable`]): `2^TOTAL_BITS`
//!   of probability mass is packed into `N = alphabet.next_power_of_two()`
//!   equal buckets of at most two symbols each (Vose's construction), so
//!   resolving a scaled code value is two loads and one compare — no
//!   forward scan, branch-light regardless of how skewed the table is.
//! * **Single-`if` renormalization** in whole `u32` words. The state
//!   invariant `x ∈ [RANS_L, 2^63)` guarantees at most one word is
//!   emitted (encode) or refilled (decode) per symbol, and that the
//!   encoder's word sequence, reversed, is exactly the decoder's read
//!   sequence.
//!
//! rANS is last-in-first-out: the encoder buffers `(table, symbol, lane)`
//! triples as they arrive and runs the actual state arithmetic *in
//! reverse* inside [`Encoder::finish`]. A finished stream is the four
//! final lane states (32 bytes, little-endian — the decoder's *initial*
//! states) followed by the renormalization words in decode order.
//!
//! Truncation and corruption are detectable without trusting the payload:
//! the decoder counts synthetic zero bytes past the end of input
//! ([`Decoder::overrun_bytes`]) and, because every
//! encoder lane starts at [`RANS_L`], a complete clean decode must return
//! every lane to exactly [`RANS_L`] — [`Decoder::finished`] is the
//! per-lane final-state check the v3 container verifies per chunk.

use crate::symbol_model::{FreqTable, MAX_TOTAL, TOTAL_BITS};

/// Number of interleaved rANS states. Four matches the independent
/// execution ports of commodity cores; the wire format fixes it (a v3
/// stream always carries exactly four lane states).
pub const LANES: usize = 4;

/// Lower bound of the normalized state interval `[RANS_L, RANS_L · 2^32)`.
/// Chosen so renormalization moves whole `u32` words with at most one
/// word per symbol per side.
pub const RANS_L: u64 = 1 << 31;

/// Bytes of the per-stream state header: [`LANES`] little-endian `u64`
/// final states, read up-front by [`Decoder::new`].
pub const STATE_BYTES: usize = LANES * 8;

/// Low-`TOTAL_BITS` mask: the slice of state that addresses probability
/// mass.
const MASK: u32 = (MAX_TOTAL - 1) as u32;

/// One bucket of an [`AliasTable`]: at most two symbols share it — the
/// bucket's own symbol (index = bucket index) below `divider`, and one
/// alias symbol above it.
#[derive(Clone, Debug)]
struct Bucket {
    /// Within-bucket boundary: offsets `< divider` belong to the bucket's
    /// own symbol, the rest to `alias`.
    divider: u32,
    /// The symbol that fills the bucket above `divider`.
    alias: u32,
    /// Slot index (within the own symbol's frequency range) of the
    /// bucket's first own-symbol cell.
    primary_base: u32,
    /// Slot index (within the alias symbol's frequency range) of the
    /// bucket's first alias cell.
    alias_base: u32,
}

/// One contiguous run of a symbol's slots inside the alias layout: slots
/// `[slot_base, slot_base + len)` map to scaled values `[scaled_base,
/// scaled_base + len)`. Only the encoder walks these.
#[derive(Clone, Debug)]
struct Seg {
    slot_base: u32,
    scaled_base: u32,
}

/// A [`FreqTable`] repacked for branch-light rANS symbol resolution.
///
/// Vose's alias construction distributes the table's `2^TOTAL_BITS` of
/// mass over `N = len.next_power_of_two()` buckets of `K = 2^TOTAL_BITS
/// / N` cells, at most two symbols per bucket. Decoding a scaled value is
/// then: bucket = high bits, compare against the bucket's divider, done —
/// where [`FreqTable::find`] scans forward from a coarse LUT. The alias
/// layout permutes the symbol ↔ scaled-value mapping relative to the
/// cumulative layout, so the two layouts produce different bytes for the
/// same symbols.
///
/// Build cost is `O(N)`; [`crate::symbol_model::SymbolModelSet`] builds
/// one per frequency table at profile time so no decode ever pays it.
#[derive(Clone, Debug)]
pub struct AliasTable {
    /// Real alphabet size (buckets may outnumber symbols when the
    /// alphabet is not a power of two; padded buckets carry `divider 0`).
    alphabet: usize,
    /// `TOTAL_BITS - log2(buckets)`: shift that extracts the bucket index
    /// from a scaled value.
    shift: u32,
    buckets: Vec<Bucket>,
    /// Per-symbol frequency (the decode-side multiplier).
    freq: Vec<u32>,
    /// Per-symbol segment ranges into `segs`, `alphabet + 1` entries.
    seg_index: Vec<u32>,
    /// All symbols' slot→scaled segments, sorted by `slot_base` within
    /// each symbol.
    segs: Vec<Seg>,
    /// Per-symbol shift for the segment lookup: `slot >> lut_shift[s]`
    /// indexes that symbol's slice of `lut`. Zero for single-segment
    /// symbols (which skip the lookup entirely).
    lut_shift: Vec<u32>,
    /// Per-symbol ranges into `lut`, `alphabet + 1` entries.
    lut_index: Vec<u32>,
    /// Segment-lookup cells: each holds the symbol-relative index of the
    /// last segment whose `slot_base` is at or below the cell's first
    /// slot, so [`AliasTable::scaled_of`] finishes with a short forward
    /// scan instead of a binary search. Sized at ~2 cells per segment.
    lut: Vec<u32>,
}

impl AliasTable {
    /// Repacks a frequency table into alias form. The table must total
    /// exactly [`MAX_TOTAL`], which every [`FreqTable`] constructor
    /// guarantees.
    pub fn from_freq(table: &FreqTable) -> Self {
        let n = table.len();
        assert!(n > 0, "empty alphabet");
        assert_eq!(table.total(), MAX_TOTAL, "table must total 2^TOTAL_BITS");
        let buckets = n.next_power_of_two();
        let shift = TOTAL_BITS - buckets.trailing_zeros();
        let cap = 1u64 << shift; // cells per bucket (K)
        let mut freq = vec![0u32; buckets];
        for (s, f) in freq.iter_mut().enumerate().take(n) {
            let (lo, hi) = table.range(s);
            *f = (hi - lo) as u32;
        }
        // Vose's two-stack pairing over exact integer masses. Every
        // symbol (real or zero-frequency pad) owns exactly one bucket;
        // "large" symbols (mass ≥ K) donate their surplus into small
        // symbols' buckets before receiving their own. With exact masses
        // summing to buckets × K, a nonempty small stack implies a
        // nonempty large stack, and once smalls are exhausted every
        // remaining large holds exactly K — so no bucket ever needs a
        // third symbol.
        let mut rem: Vec<u64> = freq.iter().map(|&f| u64::from(f)).collect();
        let mut small: Vec<usize> = Vec::with_capacity(buckets);
        let mut large: Vec<usize> = Vec::with_capacity(buckets);
        for (s, &r) in rem.iter().enumerate() {
            if r < cap {
                small.push(s);
            } else {
                large.push(s);
            }
        }
        let mut next_slot = vec![0u32; buckets];
        // Every index is overwritten exactly once: each symbol is popped
        // from exactly one of the two stacks and then owns its bucket.
        let mut table_buckets: Vec<Bucket> = vec![
            Bucket {
                divider: 0,
                alias: 0,
                primary_base: 0,
                alias_base: 0,
            };
            buckets
        ];
        let mut per_sym_segs: Vec<Vec<Seg>> = vec![Vec::new(); buckets];
        let push_seg =
            |per: &mut Vec<Vec<Seg>>, next: &mut [u32], sym: usize, len: u64, scaled_base: u32| {
                if len > 0 {
                    per[sym].push(Seg {
                        slot_base: next[sym],
                        scaled_base,
                    });
                    next[sym] += len as u32;
                }
            };
        while let Some(s) = small.pop() {
            let own = rem[s];
            rem[s] = 0;
            let scaled0 = (s as u32) << shift;
            let primary_base = next_slot[s];
            push_seg(&mut per_sym_segs, &mut next_slot, s, own, scaled0);
            let Some(l) = large.pop() else {
                // With exact masses summing to buckets × K, a nonempty
                // small stack (all entries < K) forces at least one entry
                // ≥ K to balance the sum — large cannot be empty here.
                unreachable!("alias construction: small stack nonempty but large stack empty")
            };
            let donated = cap - own;
            let alias_base = next_slot[l];
            push_seg(
                &mut per_sym_segs,
                &mut next_slot,
                l,
                donated,
                scaled0 + own as u32,
            );
            rem[l] -= donated;
            if rem[l] < cap {
                small.push(l);
            } else {
                large.push(l);
            }
            table_buckets[s] = Bucket {
                divider: own as u32,
                alias: l as u32,
                primary_base,
                alias_base,
            };
        }
        while let Some(l) = large.pop() {
            debug_assert_eq!(
                rem[l], cap,
                "leftover large symbol must hold exactly one bucket"
            );
            rem[l] = 0;
            let primary_base = next_slot[l];
            push_seg(
                &mut per_sym_segs,
                &mut next_slot,
                l,
                cap,
                (l as u32) << shift,
            );
            table_buckets[l] = Bucket {
                divider: cap as u32,
                alias: l as u32,
                primary_base,
                alias_base: 0,
            };
        }
        debug_assert!(next_slot.iter().zip(&freq).all(|(&slots, &f)| slots == f));
        let mut seg_index = Vec::with_capacity(buckets + 1);
        let mut segs = Vec::new();
        seg_index.push(0u32);
        for sym_segs in per_sym_segs {
            segs.extend(sym_segs);
            seg_index.push(segs.len() as u32);
        }
        // Segment-lookup tables for the encode-side inverse: heavy
        // symbols in skewed tables fragment into many segments, and a
        // binary search over them dominated encode cost. ~2 LUT cells
        // per segment makes the expected lookup O(1) for uniform slots.
        let mut lut_shift = vec![0u32; buckets];
        let mut lut_index = Vec::with_capacity(buckets + 1);
        let mut lut: Vec<u32> = Vec::new();
        lut_index.push(0u32);
        for s in 0..buckets {
            let lo = seg_index[s] as usize;
            let hi = seg_index[s + 1] as usize;
            let m = hi - lo;
            let f = freq[s];
            if m > 1 {
                let cells = ((2 * m).next_power_of_two()) as u32;
                let mut sh = 0u32;
                while (u64::from(f - 1) >> sh) >= u64::from(cells) {
                    sh += 1;
                }
                lut_shift[s] = sh;
                let used = ((f - 1) >> sh) + 1;
                let mut seg = 0u32;
                for j in 0..used {
                    let cell_start = j << sh;
                    while (seg as usize) + 1 < m
                        && segs[lo + seg as usize + 1].slot_base <= cell_start
                    {
                        seg += 1;
                    }
                    lut.push(seg);
                }
            }
            lut_index.push(lut.len() as u32);
        }
        AliasTable {
            alphabet: n,
            shift,
            buckets: table_buckets,
            freq,
            seg_index,
            segs,
            lut_shift,
            lut_index,
            lut,
        }
    }

    /// Real alphabet size.
    pub fn len(&self) -> usize {
        self.alphabet
    }

    /// Whether the alphabet is empty (never true for constructed tables).
    pub fn is_empty(&self) -> bool {
        self.alphabet == 0
    }

    /// Frequency of one symbol index (its per-decode multiplier).
    pub fn freq(&self, index: usize) -> u32 {
        self.freq[index]
    }

    /// Resolves a scaled value to `(symbol, slot, freq)` — the decode
    /// hot path: two loads and one compare.
    #[inline]
    fn resolve(&self, scaled: u32) -> (u32, u32, u32) {
        let b = (scaled >> self.shift) as usize;
        let within = scaled & ((1u32 << self.shift) - 1);
        let e = &self.buckets[b];
        let primary = within < e.divider;
        let sym = if primary { b as u32 } else { e.alias };
        let slot = if primary {
            e.primary_base + within
        } else {
            e.alias_base + (within - e.divider)
        };
        (sym, slot, self.freq[sym as usize])
    }

    /// Maps a symbol's slot back to its scaled value — the encode-side
    /// inverse of [`AliasTable::resolve`]. A per-symbol LUT cell lands at
    /// (or just before) the right segment; a short forward scan finishes.
    #[inline]
    fn scaled_of(&self, index: usize, slot: u32) -> u32 {
        let lo = self.seg_index[index] as usize;
        let hi = self.seg_index[index + 1] as usize;
        debug_assert!(lo < hi, "symbol {index} has zero frequency");
        let mut i = lo;
        if hi - lo > 1 {
            let base = self.lut_index[index] as usize;
            let cell = (slot >> self.lut_shift[index]) as usize;
            i = lo + self.lut[base + cell] as usize;
            while i + 1 < hi && self.segs[i + 1].slot_base <= slot {
                i += 1;
            }
        }
        let seg = &self.segs[i];
        debug_assert!(seg.slot_base <= slot);
        seg.scaled_base + (slot - seg.slot_base)
    }
}

/// Buffered four-lane rANS encoder.
///
/// [`Encoder::encode`] only records `(lane, table, symbol)`; the state
/// arithmetic happens in reverse order inside [`Encoder::finish`]
/// (rANS is LIFO). The decoder must be driven with the same `(lane,
/// table)` sequence in the same forward order.
pub struct Encoder<'t> {
    /// `(table, symbol index, lane, frequency)` per buffered symbol. The
    /// frequency is captured at buffer time so the reverse pass reads it
    /// from the (sequentially prefetched) buffer instead of chasing the
    /// table pointer twice per symbol.
    pending: Vec<(&'t AliasTable, u16, u8, u32)>,
}

impl<'t> Default for Encoder<'t> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'t> Encoder<'t> {
    /// Creates a fresh encoder.
    pub fn new() -> Self {
        Encoder {
            pending: Vec::new(),
        }
    }

    /// Buffers one alphabet index on `lane` under the given alias table.
    #[inline]
    pub fn encode(&mut self, lane: usize, table: &'t AliasTable, index: usize) {
        debug_assert!(lane < LANES);
        debug_assert!(index < table.len());
        self.pending
            .push((table, index as u16, lane as u8, table.freq[index]));
    }

    /// Symbols buffered so far.
    pub fn symbols_buffered(&self) -> usize {
        self.pending.len()
    }

    /// Runs the reverse-order rANS pass and returns the byte stream:
    /// a [`STATE_BYTES`] header of final lane states, then the
    /// renormalization words in decode order.
    pub fn finish(self) -> Vec<u8> {
        let mut states = [RANS_L; LANES];
        let mut words: Vec<u32> = Vec::new();
        for &(table, index, lane, freq) in self.pending.iter().rev() {
            let f = u64::from(freq);
            debug_assert!(f > 0, "symbol {index} has zero frequency");
            let mut x = states[lane as usize];
            // One word out at most: x < 2^63 before, and after the shift
            // x < RANS_L < x_max again.
            let x_max = f << (32 + 31 - TOTAL_BITS);
            if x >= x_max {
                words.push(x as u32);
                x >>= 32;
            }
            let slot = (x % f) as u32;
            let scaled = u64::from(table.scaled_of(index as usize, slot));
            states[lane as usize] = ((x / f) << TOTAL_BITS) + scaled;
        }
        let mut out = Vec::with_capacity(STATE_BYTES + words.len() * 4);
        for s in states {
            out.extend_from_slice(&s.to_le_bytes());
        }
        for w in words.iter().rev() {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }
}

/// Four-lane rANS decoder with exact consumed-byte accounting.
pub struct Decoder<'a> {
    buf: &'a [u8],
    /// Bytes actually consumed from `buf`.
    pos: usize,
    /// Synthetic zero bytes yielded past the end of `buf`.
    synthetic: usize,
    states: [u64; LANES],
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over an encoded byte stream, reading the
    /// [`STATE_BYTES`] lane-state header immediately.
    pub fn new(buf: &'a [u8]) -> Self {
        let mut d = Decoder {
            buf,
            pos: 0,
            synthetic: 0,
            states: [0; LANES],
        };
        for lane in 0..LANES {
            let mut b = [0u8; 8];
            for byte in &mut b {
                *byte = d.next_byte();
            }
            d.states[lane] = u64::from_le_bytes(b);
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

    #[inline]
    fn next_word(&mut self) -> u32 {
        if self.pos + 4 <= self.buf.len() {
            let w = u32::from_le_bytes([
                self.buf[self.pos],
                self.buf[self.pos + 1],
                self.buf[self.pos + 2],
                self.buf[self.pos + 3],
            ]);
            self.pos += 4;
            w
        } else {
            let mut b = [0u8; 4];
            for byte in &mut b {
                *byte = self.next_byte();
            }
            u32::from_le_bytes(b)
        }
    }

    /// Decodes one alphabet index on `lane` under the given alias table.
    #[inline]
    pub fn decode(&mut self, lane: usize, table: &AliasTable) -> usize {
        debug_assert!(lane < LANES);
        let x = self.states[lane];
        let (sym, slot, f) = table.resolve((x as u32) & MASK);
        let mut x = u64::from(f) * (x >> TOTAL_BITS) + u64::from(slot);
        if x < RANS_L {
            x = (x << 32) | u64::from(self.next_word());
        }
        self.states[lane] = x;
        sym as usize
    }

    /// Decodes one symbol per lane, lanes `0..LANES` in order — the
    /// batched inner-loop form of four [`Decoder::decode`] calls. The
    /// four state updates are independent, so the CPU overlaps them;
    /// refills happen in lane order, matching the encoder's word order.
    #[inline]
    pub fn decode4(&mut self, tables: [&AliasTable; LANES]) -> [usize; LANES] {
        let mut syms = [0usize; LANES];
        let mut xs = self.states;
        for lane in 0..LANES {
            let x = xs[lane];
            let (sym, slot, f) = tables[lane].resolve((x as u32) & MASK);
            xs[lane] = u64::from(f) * (x >> TOTAL_BITS) + u64::from(slot);
            syms[lane] = sym as usize;
        }
        for x in &mut xs {
            if *x < RANS_L {
                *x = (*x << 32) | u64::from(self.next_word());
            }
        }
        self.states = xs;
        syms
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

    /// Per-lane final-state check: a clean, complete decode returns every
    /// lane to exactly [`RANS_L`] (the encoder's initial state) with no
    /// synthetic input. False means the stream was corrupt or the caller
    /// drove the wrong `(lane, table)` sequence.
    pub fn finished(&self) -> bool {
        self.synthetic == 0 && self.states == [RANS_L; LANES]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol_model::FreqTable;
    use rand::Rng;

    fn alias(counts: &[u32]) -> AliasTable {
        AliasTable::from_freq(&FreqTable::from_counts(counts))
    }

    /// Encode with `lane = i % LANES`, decode the same way, assert clean
    /// completion.
    fn round_trip(symbols: &[usize], table: &AliasTable) -> Vec<usize> {
        let mut enc = Encoder::new();
        for (i, &s) in symbols.iter().enumerate() {
            enc.encode(i % LANES, table, s);
        }
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        let out: Vec<usize> = (0..symbols.len())
            .map(|i| dec.decode(i % LANES, table))
            .collect();
        assert_eq!(dec.bytes_consumed(), bytes.len());
        assert_eq!(dec.overrun_bytes(), 0);
        assert!(dec.finished(), "lanes must flush back to RANS_L");
        out
    }

    #[test]
    fn alias_resolve_inverts_scaled_of() {
        for counts in [
            vec![2u32, 3, 1, 10],
            vec![1_000_000, 0, 0, 1, 7, 0, 900],
            vec![1u32; 256],
            vec![1],
            vec![5, 5, 5],
            (0..256u32).collect(),
        ] {
            let freq = FreqTable::from_counts(&counts);
            let t = AliasTable::from_freq(&freq);
            for s in 0..t.len() {
                let f = t.freq(s);
                let (lo, hi) = freq.range(s);
                assert_eq!(u64::from(f), hi - lo, "freq must match the table");
                // Probe each symbol's slot extremes and a stride through
                // the middle.
                let probes = [0, f / 3, f / 2, f.saturating_sub(2), f - 1];
                for &slot in probes.iter().filter(|&&j| j < f) {
                    let scaled = t.scaled_of(s, slot);
                    assert_eq!(
                        t.resolve(scaled),
                        (s as u32, slot, f),
                        "symbol {s} slot {slot}"
                    );
                }
            }
            // Every bucket edge resolves to a consistent (sym, slot).
            let buckets = t.buckets.len() as u32;
            for b in 0..buckets {
                let scaled = b << t.shift;
                let (sym, slot, f) = t.resolve(scaled);
                assert!(slot < f, "bucket {b} edge resolved out of range");
                assert_eq!(t.scaled_of(sym as usize, slot), scaled);
            }
        }
    }

    #[test]
    fn alias_mass_partitions_exactly() {
        // Sum of per-bucket dividers + alias fills = MAX_TOTAL, and each
        // symbol's slots appear exactly freq times.
        let t = alias(&[1000, 10, 5, 1, 0, 0, 700]);
        let mut per_sym = vec![0u64; t.len()];
        let cap = 1u64 << t.shift;
        for (b, e) in t.buckets.iter().enumerate() {
            if b < t.len() {
                per_sym[b] += u64::from(e.divider);
            } else {
                assert_eq!(e.divider, 0, "padded bucket {b} must be pure alias");
            }
            if u64::from(e.divider) < cap {
                per_sym[e.alias as usize] += cap - u64::from(e.divider);
            }
        }
        for (s, &mass) in per_sym.iter().enumerate() {
            assert_eq!(mass, u64::from(t.freq(s)), "symbol {s} mass");
        }
        assert_eq!(per_sym.iter().sum::<u64>(), MAX_TOTAL);
    }

    #[test]
    fn round_trip_uniform_alphabet() {
        let table = alias(&vec![1u32; 256]);
        let symbols: Vec<usize> = (0..1000).map(|i| (i * 31) % 256).collect();
        assert_eq!(round_trip(&symbols, &table), symbols);
    }

    #[test]
    fn round_trip_skewed_alphabet() {
        let table = alias(&[1000, 10, 5, 1]);
        let symbols = vec![0, 0, 0, 1, 0, 2, 0, 0, 3, 0, 0, 0, 1, 0];
        assert_eq!(round_trip(&symbols, &table), symbols);
    }

    #[test]
    fn decode4_matches_scalar_decode() {
        let t0 = alias(&[100, 1, 1, 1]);
        let t1 = alias(&[1, 100, 1, 1]);
        let t2 = alias(&[1, 1, 100, 1]);
        let t3 = alias(&vec![1u32; 256]);
        let tables = [&t0, &t1, &t2, &t3];
        let symbols: Vec<usize> = (0..4000).map(|i| (i * 7) % 4).collect();
        let mut enc = Encoder::new();
        for (i, &s) in symbols.iter().enumerate() {
            enc.encode(i % LANES, tables[i % LANES], s);
        }
        let bytes = enc.finish();
        // Scalar route.
        let mut dec = Decoder::new(&bytes);
        let scalar: Vec<usize> = (0..symbols.len())
            .map(|i| dec.decode(i % LANES, tables[i % LANES]))
            .collect();
        assert!(dec.finished());
        // Batched route.
        let mut dec = Decoder::new(&bytes);
        let mut batched = Vec::with_capacity(symbols.len());
        for _ in 0..symbols.len() / LANES {
            batched.extend(dec.decode4([&t0, &t1, &t2, &t3]));
        }
        assert!(dec.finished());
        assert_eq!(scalar, symbols);
        assert_eq!(batched, symbols);
    }

    #[test]
    fn per_symbol_context_switching() {
        let t0 = alias(&[10, 1, 1, 1]);
        let t1 = alias(&[1, 1, 1, 10]);
        let symbols: Vec<usize> = (0..500).map(|i| if i % 2 == 0 { 0 } else { 3 }).collect();
        let mut enc = Encoder::new();
        for (i, &s) in symbols.iter().enumerate() {
            enc.encode(i % LANES, if i % 2 == 0 { &t0 } else { &t1 }, s);
        }
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        for (i, &s) in symbols.iter().enumerate() {
            assert_eq!(dec.decode(i % LANES, if i % 2 == 0 { &t0 } else { &t1 }), s);
        }
        assert!(dec.finished());
    }

    #[test]
    fn skewed_distribution_compresses_below_fixed_width() {
        let table = alias(&[970, 10, 10, 10]);
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
        for (i, &s) in symbols.iter().enumerate() {
            enc.encode(i % LANES, &table, s);
        }
        let bytes = enc.finish();
        let payload_bits = (bytes.len() - STATE_BYTES) as f64 * 8.0;
        let bits_per_symbol = payload_bits / symbols.len() as f64;
        assert!(
            bits_per_symbol < 0.5,
            "expected <0.5 bits/symbol, got {bits_per_symbol:.3}"
        );
        let mut dec = Decoder::new(&bytes);
        for (i, &s) in symbols.iter().enumerate() {
            assert_eq!(dec.decode(i % LANES, &table), s);
        }
        assert!(dec.finished());
    }

    #[test]
    fn empty_stream_is_state_header_only() {
        let enc = Encoder::new();
        let bytes = enc.finish();
        assert_eq!(bytes.len(), STATE_BYTES);
        let dec = Decoder::new(&bytes);
        assert!(dec.finished());
        assert_eq!(dec.bytes_consumed(), STATE_BYTES);
    }

    #[test]
    fn random_streams_round_trip() {
        let mut rng = cachegen_tensor::rng::seeded(99);
        for trial in 0..40 {
            let alpha = 2 + (trial % 16);
            let counts: Vec<u32> = (0..alpha).map(|_| 1 + rng.gen::<u32>() % 100).collect();
            let table = alias(&counts);
            let n = 1 + (rng.gen::<usize>() % 2000);
            let symbols: Vec<usize> = (0..n).map(|_| rng.gen::<usize>() % alpha).collect();
            assert_eq!(round_trip(&symbols, &table), symbols, "trial {trial}");
        }
    }

    #[test]
    fn near_max_total_tables_round_trip() {
        let counts: Vec<u32> = (0..256)
            .map(|i| if i % 2 == 0 { u32::MAX / 64 } else { 0 })
            .collect();
        let table = alias(&counts);
        let symbols: Vec<usize> = (0..4_000).map(|i| (i * 2) % 256).collect();
        assert_eq!(round_trip(&symbols, &table), symbols);
    }

    #[test]
    fn any_truncation_is_observable() {
        let table = alias(&vec![1u32; 256]);
        let symbols: Vec<usize> = (0..2_000).map(|i| (i * 131) % 256).collect();
        let mut enc = Encoder::new();
        for (i, &s) in symbols.iter().enumerate() {
            enc.encode(i % LANES, &table, s);
        }
        let bytes = enc.finish();
        // The decoder follows the clean read path until the first missing
        // byte, so every proper prefix ends in synthetic input.
        for cut in [
            0,
            1,
            STATE_BYTES - 1,
            STATE_BYTES,
            bytes.len() / 2,
            bytes.len() - 1,
        ] {
            let mut dec = Decoder::new(&bytes[..cut]);
            for i in 0..symbols.len() {
                dec.decode(i % LANES, &table);
            }
            assert!(
                dec.overrun_bytes() > 0,
                "truncation to {cut} bytes must be observable"
            );
            assert!(!dec.finished());
            assert_eq!(dec.bytes_consumed(), cut);
        }
    }

    #[test]
    fn corrupt_words_fail_the_final_state_check() {
        let table = alias(&[500, 30, 9, 2, 1]);
        let symbols: Vec<usize> = (0..3_000).map(|i| (i * i) % 5).collect();
        let mut enc = Encoder::new();
        for (i, &s) in symbols.iter().enumerate() {
            enc.encode(i % LANES, &table, s);
        }
        let bytes = enc.finish();
        let mut rng = cachegen_tensor::rng::seeded(7);
        for _ in 0..20 {
            let mut damaged = bytes.clone();
            let at = rng.gen::<usize>() % damaged.len();
            damaged[at] ^= 1 << (rng.gen::<u32>() % 8);
            let mut dec = Decoder::new(&damaged);
            for i in 0..symbols.len() {
                dec.decode(i % LANES, &table);
            }
            let clean_length = dec.overrun_bytes() == 0 && dec.bytes_consumed() == damaged.len();
            assert!(
                !(clean_length && dec.finished()),
                "corruption at byte {at} slipped every check"
            );
        }
    }
}
