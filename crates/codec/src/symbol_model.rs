//! Static symbol-frequency models for the arithmetic coder.
//!
//! §5.2: "our KV encoder offline profiles a separate probability distribution
//! for each channel-layer combination of delta tensors and another for anchor
//! tensors produced by an LLM, and uses the same distributions for all KV
//! caches produced by the same LLM." §7.5 reports that channel-layer grouping
//! shrinks bitstreams by up to 53% versus one global distribution — the
//! [`ModelGranularity`] enum exposes the intermediate strategies so the
//! Figure 15 ablation can be regenerated.

use crate::rans::AliasTable;
use crate::{symbol_to_index, ALPHABET};

/// Every table's total frequency mass, exactly: `2^TOTAL_BITS`. A fixed
/// power-of-two total makes rANS decode division-free (the state split is
/// a mask and a shift) and turns a cumulative-layout coder's per-symbol
/// `range / total` into a shift.
pub const TOTAL_BITS: u32 = 24;

/// `1 << TOTAL_BITS` — the exact total of every [`FreqTable`].
pub const MAX_TOTAL: u64 = 1 << TOTAL_BITS;

/// log₂ of the bucket count in each table's decode lookup table.
const BUCKET_BITS: u32 = 10;

/// A cumulative frequency table over a fixed alphabet, with total mass
/// exactly [`MAX_TOTAL`].
///
/// Frequencies are stored as a cumulative array `cum[0..=n]` with
/// `cum[i+1] > cum[i]` guaranteed (every symbol gets at least one count —
/// Laplace smoothing — so unseen symbols remain encodable). A bucket
/// lookup table maps a scaled code value to its symbol in O(1) expected
/// time ([`FreqTable::find`], the lookup a cumulative-layout decoder such
/// as a range coder runs per symbol). The codec's rANS stage repacks each
/// table into an [`AliasTable`] instead.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FreqTable {
    cum: Vec<u64>,
    /// `lut[v >> (TOTAL_BITS - BUCKET_BITS)]` = index of the symbol whose
    /// range contains the bucket's first value; `find` scans forward from
    /// there (expected < 1 step: a bucket intersects few symbols unless
    /// its probability mass is tiny).
    lut: Vec<u16>,
}

impl FreqTable {
    /// Builds a table from raw per-symbol counts.
    ///
    /// Observed counts are weighted 64× against a +1 Laplace floor so that
    /// unseen symbols stay encodable without flattening the distribution
    /// (a 1:1 floor over a 256-symbol alphabet would dominate small
    /// profiles and destroy the compression gain). The weighted counts are
    /// then renormalized **exactly** to a total of [`MAX_TOTAL`]: one
    /// count is reserved per symbol, the rest of the budget is split
    /// proportionally with floor division, and the remainder goes to the
    /// most frequent symbol (minimal relative distortion). The old
    /// proportional downscale applied `.max(1)` after scaling, so the
    /// rescaled total could overshoot the precision bound and skew symbol
    /// probabilities for large profiles; the exact renormalization cannot.
    pub fn from_counts(counts: &[u32]) -> Self {
        assert!(!counts.is_empty(), "empty alphabet");
        assert!(
            counts.len() <= u16::MAX as usize && (counts.len() as u64) < MAX_TOTAL,
            "alphabet larger than the precision budget"
        );
        const DATA_WEIGHT: u64 = 64;
        let raw_total: u64 = counts.iter().map(|&c| u64::from(c) * DATA_WEIGHT + 1).sum();
        let budget = MAX_TOTAL - counts.len() as u64;
        let mut cum = Vec::with_capacity(counts.len() + 1);
        cum.push(0u64);
        let mut acc = 0u64;
        let mut largest = (0usize, 0u64);
        for (i, &c) in counts.iter().enumerate() {
            let weighted = u64::from(c) * DATA_WEIGHT + 1;
            // weighted ≤ 2³⁸ and budget < 2²⁴, so the product fits u64.
            let share = 1 + weighted * budget / raw_total;
            if share > largest.1 {
                largest = (i, share);
            }
            acc += share;
            cum.push(acc);
        }
        // Floor rounding leaves ≤ n spare counts; hand them to the most
        // frequent symbol so the total is exactly MAX_TOTAL.
        let leftover = MAX_TOTAL - acc;
        for c in &mut cum[largest.0 + 1..] {
            *c += leftover;
        }
        let lut = build_lut(&cum);
        let table = FreqTable { cum, lut };
        assert_eq!(
            table.total(),
            MAX_TOTAL,
            "renormalized total must land exactly on the coder precision budget"
        );
        table
    }

    /// Uniform table over `n` symbols.
    pub fn uniform(n: usize) -> Self {
        FreqTable::from_counts(&vec![1u32; n])
    }

    /// Alphabet size.
    pub fn len(&self) -> usize {
        self.cum.len() - 1
    }

    /// Whether the alphabet is empty (never true for constructed tables).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total frequency mass.
    pub fn total(&self) -> u64 {
        // analyze: allow(no-lib-unwrap, "cum always ends with the total — every constructor builds at least one entry; this is the per-symbol hot path, keep it branchless")
        *self.cum.last().unwrap()
    }

    /// Cumulative range `[lo, hi)` of a symbol index.
    pub fn range(&self, index: usize) -> (u64, u64) {
        (self.cum[index], self.cum[index + 1])
    }

    /// Finds the symbol whose cumulative range contains `scaled` — the
    /// decoders' per-symbol hot path. The bucket lookup table gives a
    /// starting index; the forward scan is expected-O(1) because a bucket
    /// only intersects many symbols where little probability mass lives.
    #[inline]
    pub fn find(&self, scaled: u64) -> usize {
        debug_assert!(scaled < self.total());
        let mut i = self.lut[(scaled >> (TOTAL_BITS - BUCKET_BITS)) as usize] as usize;
        while self.cum[i + 1] <= scaled {
            i += 1;
        }
        i
    }

    /// Empirical entropy of the table's distribution, bits/symbol.
    pub fn entropy_bits(&self) -> f64 {
        let total = self.total() as f64;
        (0..self.len())
            .map(|i| {
                let (lo, hi) = self.range(i);
                let p = (hi - lo) as f64 / total;
                if p > 0.0 {
                    -p * p.log2()
                } else {
                    0.0
                }
            })
            .sum()
    }
}

/// Builds the bucket lookup table: entry `b` is the symbol containing the
/// bucket's first value `b << (TOTAL_BITS - BUCKET_BITS)`. Two-pointer
/// walk, O(symbols + buckets).
fn build_lut(cum: &[u64]) -> Vec<u16> {
    let shift = TOTAL_BITS - BUCKET_BITS;
    let mut lut = Vec::with_capacity(1 << BUCKET_BITS);
    let mut sym = 0usize;
    for b in 0..(1u64 << BUCKET_BITS) {
        let first = b << shift;
        while cum[sym + 1] <= first {
            sym += 1;
        }
        lut.push(sym as u16);
    }
    lut
}

/// How symbol distributions are grouped when profiling (Figure 15 ablation;
/// the paper's design is [`ModelGranularity::PerChannelLayer`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModelGranularity {
    /// One distribution for the whole model (the strawman of §7.5).
    Global,
    /// One distribution per layer.
    PerLayer,
    /// One distribution per channel (shared across layers).
    PerChannel,
    /// One distribution per (layer, channel) pair — CacheGen's choice.
    PerChannelLayer,
}

/// A set of frequency tables indexed by (layer, channel) at a chosen
/// granularity.
#[derive(Clone, Debug)]
pub struct SymbolModelSet {
    granularity: ModelGranularity,
    layers: usize,
    channels: usize,
    tables: Vec<FreqTable>,
    /// rANS alias view of `tables`, same indexing — built eagerly at
    /// profile time so no decode ever pays the construction.
    alias: Vec<AliasTable>,
}

impl SymbolModelSet {
    /// Builds a model set by counting symbols. `observe` must call the
    /// provided closure once per (layer, channel, symbol) occurrence.
    pub fn build<F>(
        granularity: ModelGranularity,
        layers: usize,
        channels: usize,
        observe: F,
    ) -> Self
    where
        F: FnOnce(&mut dyn FnMut(usize, usize, i32)),
    {
        let ntables = match granularity {
            ModelGranularity::Global => 1,
            ModelGranularity::PerLayer => layers,
            ModelGranularity::PerChannel => channels,
            ModelGranularity::PerChannelLayer => layers * channels,
        };
        let mut counts = vec![vec![0u32; ALPHABET]; ntables];
        {
            let mut record = |layer: usize, channel: usize, symbol: i32| {
                let t = table_index(granularity, layers, channels, layer, channel);
                let idx = symbol_to_index(symbol);
                counts[t][idx] = counts[t][idx].saturating_add(1);
            };
            observe(&mut record);
        }
        let tables: Vec<FreqTable> = counts.iter().map(|c| FreqTable::from_counts(c)).collect();
        let alias = tables.iter().map(AliasTable::from_freq).collect();
        SymbolModelSet {
            granularity,
            layers,
            channels,
            tables,
            alias,
        }
    }

    /// The table to use for a given (layer, channel).
    pub fn table(&self, layer: usize, channel: usize) -> &FreqTable {
        &self.tables[table_index(self.granularity, self.layers, self.channels, layer, channel)]
    }

    /// The rANS alias table for a given (layer, channel) — the same
    /// distribution as [`SymbolModelSet::table`], repacked for branch-light
    /// symbol resolution.
    pub fn alias_table(&self, layer: usize, channel: usize) -> &AliasTable {
        &self.alias[table_index(self.granularity, self.layers, self.channels, layer, channel)]
    }

    /// All per-channel alias tables of one layer, resolved once. Hot
    /// symbol loops index this slice directly instead of re-deriving the
    /// granularity routing per symbol.
    pub fn layer_alias_tables(&self, layer: usize) -> Vec<&AliasTable> {
        (0..self.channels)
            .map(|c| self.alias_table(layer, c))
            .collect()
    }

    /// The profiling granularity.
    pub fn granularity(&self) -> ModelGranularity {
        self.granularity
    }

    /// Number of distinct tables held.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Mean entropy across tables, bits/symbol (weighted equally; used by
    /// diagnostics).
    pub fn mean_entropy_bits(&self) -> f64 {
        self.tables.iter().map(|t| t.entropy_bits()).sum::<f64>() / self.tables.len() as f64
    }
}

fn table_index(
    g: ModelGranularity,
    _layers: usize,
    channels: usize,
    layer: usize,
    channel: usize,
) -> usize {
    match g {
        ModelGranularity::Global => 0,
        ModelGranularity::PerLayer => layer,
        ModelGranularity::PerChannel => channel,
        ModelGranularity::PerChannelLayer => layer * channels + channel,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cumulative_ranges_partition_total() {
        // Counts weight 64× with a +1 floor ([3,0,5] → [193, 1, 321]),
        // then renormalize exactly onto the 2²⁴ budget: ranges tile
        // [0, MAX_TOTAL) with proportions preserved to floor rounding.
        let t = FreqTable::from_counts(&[3, 0, 5]);
        assert_eq!(t.total(), MAX_TOTAL);
        assert_eq!(t.range(0).0, 0);
        for i in 1..t.len() {
            assert_eq!(t.range(i).0, t.range(i - 1).1, "ranges must tile");
        }
        assert_eq!(t.range(t.len() - 1).1, MAX_TOTAL);
        let width = |i: usize| {
            let (lo, hi) = t.range(i);
            (hi - lo) as f64
        };
        // Proportions ≈ 193 : 1 : 321 of the total mass.
        let total = MAX_TOTAL as f64;
        assert!((width(0) / total - 193.0 / 515.0).abs() < 1e-3);
        assert!((width(1) / total - 1.0 / 515.0).abs() < 1e-3);
        assert!((width(2) / total - 321.0 / 515.0).abs() < 1e-3);
    }

    #[test]
    fn large_profiles_renormalize_exactly_to_budget() {
        // Regression: the old proportional downscale applied `.max(1)`
        // after scaling, so alphabets with many unseen symbols could
        // overshoot MAX_TOTAL. The exact renormalization cannot.
        let counts: Vec<u32> = (0..ALPHABET)
            .map(|i| if i % 2 == 0 { u32::MAX / 64 } else { 0 })
            .collect();
        let t = FreqTable::from_counts(&counts);
        assert_eq!(
            t.total(),
            MAX_TOTAL,
            "renormalization must land exactly on the budget"
        );
        for i in 0..t.len() {
            let (lo, hi) = t.range(i);
            assert!(hi > lo, "symbol {i} lost its count");
        }
        // Probability mass still reflects the skew: seen symbols dwarf
        // unseen ones.
        let (lo0, hi0) = t.range(0);
        let (lo1, hi1) = t.range(1);
        assert!((hi0 - lo0) > 1000 * (hi1 - lo1));
    }

    #[test]
    fn layer_alias_tables_match_per_channel_lookup() {
        let set = SymbolModelSet::build(ModelGranularity::PerChannelLayer, 3, 5, |rec| {
            for l in 0..3 {
                for c in 0..5 {
                    rec(l, c, (l * 5 + c) as i32);
                }
            }
        });
        for l in 0..3 {
            let tables = set.layer_alias_tables(l);
            assert_eq!(tables.len(), 5);
            for (c, t) in tables.iter().enumerate() {
                assert!(std::ptr::eq(*t, set.alias_table(l, c)));
            }
        }
    }

    #[test]
    fn find_inverts_range() {
        // Boundaries are where the bucket LUT can go wrong; probe each
        // symbol's first/last/middle values plus the bucket edges.
        let tables = [
            FreqTable::from_counts(&[2, 3, 1, 10]),
            FreqTable::from_counts(&[1_000_000, 0, 0, 1, 7, 0, 900]),
            FreqTable::uniform(256),
            FreqTable::from_counts(&[1]),
        ];
        for t in &tables {
            for i in 0..t.len() {
                let (lo, hi) = t.range(i);
                for s in [lo, (lo + hi) / 2, hi - 1] {
                    assert_eq!(t.find(s), i);
                }
            }
            for b in 0..1u64 << 10 {
                let v = b << (TOTAL_BITS - 10);
                let i = t.find(v);
                let (lo, hi) = t.range(i);
                assert!(lo <= v && v < hi, "bucket edge {v} mapped to {i}");
            }
        }
    }

    #[test]
    fn uniform_entropy() {
        let t = FreqTable::uniform(8);
        assert!((t.entropy_bits() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn skew_lowers_entropy() {
        let skewed = FreqTable::from_counts(&[100, 1, 1, 1]);
        let uniform = FreqTable::uniform(4);
        assert!(skewed.entropy_bits() < uniform.entropy_bits());
    }

    #[test]
    fn model_set_granularities() {
        let build = |g| {
            SymbolModelSet::build(g, 3, 4, |rec| {
                for l in 0..3 {
                    for c in 0..4 {
                        // Symbol depends on layer only.
                        rec(l, c, l as i32);
                    }
                }
            })
        };
        assert_eq!(build(ModelGranularity::Global).num_tables(), 1);
        assert_eq!(build(ModelGranularity::PerLayer).num_tables(), 3);
        assert_eq!(build(ModelGranularity::PerChannel).num_tables(), 4);
        assert_eq!(build(ModelGranularity::PerChannelLayer).num_tables(), 12);
    }

    #[test]
    fn finer_granularity_never_increases_entropy() {
        // Symbols correlate with the layer, so per-layer tables are sharper.
        let observe = |rec: &mut dyn FnMut(usize, usize, i32)| {
            for rep in 0..50 {
                for l in 0..4usize {
                    for c in 0..4usize {
                        let sym = (l as i32) * 2 + ((rep + c) % 2) as i32;
                        rec(l, c, sym);
                    }
                }
            }
        };
        let global = SymbolModelSet::build(ModelGranularity::Global, 4, 4, observe);
        let per_layer = SymbolModelSet::build(ModelGranularity::PerLayer, 4, 4, observe);
        assert!(per_layer.mean_entropy_bits() < global.mean_entropy_bits());
    }

    #[test]
    fn table_lookup_routes_correctly() {
        let set = SymbolModelSet::build(ModelGranularity::PerChannelLayer, 2, 2, |rec| {
            rec(0, 0, -5);
            rec(1, 1, 5);
        });
        // Table (0,0) saw symbol −5 once (weighted 64× + 1 floor = 65 of
        // a raw mass of 320); table (1,0) never did (floor only, 1/256).
        // After exact renormalization onto the 2²⁴ budget the proportions
        // survive.
        let idx_neg = symbol_to_index(-5);
        let width = |t: &FreqTable, i: usize| {
            let (lo, hi) = t.range(i);
            hi - lo
        };
        let seen = width(set.table(0, 0), idx_neg);
        let unseen = width(set.table(1, 0), idx_neg);
        assert!(
            seen > 50 * unseen,
            "seen symbol ({seen}) must dwarf unseen ({unseen})"
        );
        assert!(unseen >= 1, "unseen symbols stay encodable");
    }
}
