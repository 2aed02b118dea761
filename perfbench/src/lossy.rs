//! `lossy-load`: `load_context` over per-packet-fault links.
//!
//! Set-up prefills a few `llama7b_sim` contexts. Each load then draws a
//! seeded §7.4-style bandwidth trace, a packet loss rate from
//! {0, 5, 10, 20}% (i.i.d. or in 4-packet bursts) and streams one context
//! under an SLO with adaptive FEC and anchor-interpolation repair. Every
//! load re-encodes its reference at all levels inside `load_context`, so
//! this is also the workload where encode cost shows.

use std::time::Instant;

use cachegen::{
    load_context, CacheGenEngine, EngineConfig, FecOverhead, LoadOutcome, LoadParams, RepairPolicy,
};
use cachegen_codec::ChunkArrivalMap;
use cachegen_llm::{KvCache, SimModelConfig};
use cachegen_net::{BandwidthTrace, Link, PacketFaults};
use cachegen_streamer::{simulate_stream, StreamConfig, StreamParams};
use cachegen_workloads::{random_prompt, workload_rng, Dataset};
use rand::rngs::StdRng;
use rand::Rng;

use crate::common::{self, Deck, Ledger, Reference, RunReport, Span};

/// Context lengths in tokens. A fixed 60–180 ladder, picked uniformly, so
/// every seed loads the same size mix and the median load falls inside
/// the middle length's cluster.
const LENGTHS: [usize; 5] = [60, 90, 120, 150, 180];
/// Packet loss rates a load draws from.
const LOSSES: [f64; 4] = [0.0, 0.05, 0.10, 0.20];
/// Drop-burst length of the bursty loss mode.
const BURST: usize = 4;
/// Fixed prompts per context.
const PROMPTS: usize = 4;
/// Context-loading SLO, seconds.
const SLO_S: f64 = 0.08;
/// Bandwidth range of the random traces, bits per second, re-drawn every
/// `PERIOD_S` for `PERIODS` periods.
const BW_LO: f64 = 2e6;
const BW_HI: f64 = 20e6;
const PERIOD_S: f64 = 0.05;
const PERIODS: usize = 40;
/// One-way propagation delay of every link, seconds.
const PROPAGATION_S: f64 = 0.005;
/// The percentile the `*_tail_ms` metrics report; it falls inside the
/// longest context's cluster.
const TAIL: f64 = 95.0;

struct Context {
    reference: KvCache,
    prompts: Vec<Vec<usize>>,
    ref_first: Vec<usize>,
}

struct Fixture {
    engine: CacheGenEngine,
    contexts: Vec<Context>,
    /// Wall and CPU time of each set-up.
    setups: Vec<Span>,
    prefill_s: f64,
}

/// Everything one load draws from the seed.
#[derive(Clone, Copy)]
struct Load {
    context: usize,
    prompt: usize,
    loss: f64,
    bursty: bool,
    trace_seed: u64,
    link_seed: u64,
}

/// The load mix: every (context, loss rate, loss mode) combination once
/// per deck, prompts cycling. The link seeds are drawn per load.
fn deck(seed: u64) -> Deck<Load> {
    let mut items = Vec::new();
    for context in 0..LENGTHS.len() {
        for (i, &loss) in LOSSES.iter().enumerate() {
            for bursty in [false, true] {
                items.push(Load {
                    context,
                    prompt: (i * 2 + usize::from(bursty)) % PROMPTS,
                    loss,
                    bursty,
                    trace_seed: 0,
                    link_seed: 0,
                });
            }
        }
    }
    Deck::new(items, workload_rng(seed ^ 0x6c6f_7373_792d_6c64))
}

impl Load {
    /// The next load of the mix, with fresh link seeds.
    fn draw(deck: &mut Deck<Load>, rng: &mut StdRng) -> Self {
        Load {
            trace_seed: rng.gen(),
            link_seed: rng.gen(),
            ..deck.draw()
        }
    }

    /// The load's link; identical on every call.
    fn link(&self) -> Link {
        let trace = BandwidthTrace::random_uniform(
            &mut workload_rng(self.trace_seed),
            BW_LO,
            BW_HI,
            PERIOD_S,
            PERIODS,
        );
        let faults = if self.bursty {
            PacketFaults::burst(self.loss / BURST as f64, BURST)
        } else {
            PacketFaults::loss(self.loss)
        };
        Link::new(trace, PROPAGATION_S).with_packet_faults(faults, self.link_seed)
    }
}

fn params() -> LoadParams {
    LoadParams {
        slo: Some(SLO_S),
        fec_overhead: FecOverhead::adaptive_default(),
        repair: RepairPolicy::AnchorInterpolate,
        ..LoadParams::default()
    }
}

/// The timed set-ups, with a reference pass after each; the last one's
/// engine and references are kept.
fn setup(seed: u64, reference: &mut Reference) -> Fixture {
    let mut rng = workload_rng(seed);
    let vocab = SimModelConfig::llama7b_sim(42).vocab;
    let profile: Vec<Vec<usize>> = (0..2)
        .map(|_| Dataset::NarrativeQa.generate(&mut rng, vocab, 180).tokens)
        .collect();
    let texts: Vec<Vec<usize>> = LENGTHS
        .iter()
        .map(|&n| Dataset::NarrativeQa.generate(&mut rng, vocab, n).tokens)
        .collect();
    let mut times = Vec::new();
    let mut built = None;
    while !common::enough_setups(&times) {
        // Drop the previous set-up first: one engine alive at a time.
        drop(built.take());
        let (span, (engine, references, prefill_s)) = common::timed(|| {
            let engine = CacheGenEngine::build(
                SimModelConfig::llama7b_sim(42),
                EngineConfig::default(),
                &profile,
            );
            let t_prefill = Instant::now();
            let references: Vec<KvCache> = texts.iter().map(|c| engine.calculate_kv(c)).collect();
            (engine, references, common::secs(t_prefill))
        });
        times.push(span);
        reference.sample();
        built = Some((engine, references, prefill_s));
    }
    let (engine, references, prefill_s) = built.expect("at least one set-up");
    let contexts = references
        .into_iter()
        .map(|reference| {
            let prompts: Vec<Vec<usize>> = (0..PROMPTS)
                .map(|_| random_prompt(&mut rng, vocab, 3))
                .collect();
            let ref_first = prompts
                .iter()
                .map(|p| engine.generate_with_kv(&reference, p, 1)[0])
                .collect();
            Context {
                reference,
                prompts,
                ref_first,
            }
        })
        .collect();
    Fixture {
        engine,
        contexts,
        setups: times,
        prefill_s,
    }
}

/// Output checks of one load; returns the problems found.
fn check(fx: &Fixture, load: Load, out: &LoadOutcome) -> Vec<String> {
    let r = &fx.contexts[load.context].reference;
    let c = &out.cache;
    let mut problems = Vec::new();
    if (c.layers(), c.tokens(), c.channels()) != (r.layers(), r.tokens(), r.channels()) {
        problems.push(format!(
            "geometry {}x{}x{}, reference {}x{}x{}",
            c.layers(),
            c.tokens(),
            c.channels(),
            r.layers(),
            r.tokens(),
            r.channels()
        ));
    }
    if !common::all_finite(c) {
        problems.push("non-finite value in the loaded cache".to_string());
    }
    if load.loss == 0.0 && (!out.repairs.is_empty() || out.repaired_fraction != 0.0) {
        problems.push(format!(
            "loss-free load reports {} repairs, repaired fraction {}",
            out.repairs.len(),
            out.repaired_fraction
        ));
    }
    problems
}

/// Per-load accumulators of one measured pass.
#[derive(Default)]
struct Pass {
    loads: Vec<Load>,
    walls: Vec<f64>,
    cpus: Vec<f64>,
    vttfts: Vec<f64>,
    slo_missed: u64,
    matched: u64,
    data_bytes: u64,
    parity_bytes: u64,
    tokens: u64,
    repaired: f64,
}

impl Pass {
    fn record(
        &mut self,
        fx: &Fixture,
        report: &mut RunReport,
        load: Load,
        span: Span,
        out: &LoadOutcome,
    ) {
        report.check("lossy-load", check(fx, load, out));
        let ctx = &fx.contexts[load.context];
        let first = fx
            .engine
            .generate_with_kv(&out.cache, &ctx.prompts[load.prompt], 1);
        self.loads.push(load);
        self.walls.push(span.wall);
        self.cpus.push(span.cpu);
        self.vttfts.push(out.stream.finish);
        self.slo_missed += u64::from(!out.stream.slo_met);
        self.matched += u64::from(first.first() == Some(&ctx.ref_first[load.prompt]));
        self.data_bytes += out.stream.bytes_sent;
        self.parity_bytes += out.parity_bytes;
        self.tokens += ctx.reference.tokens() as u64;
        self.repaired += out.repaired_fraction;
    }
}

fn load_once(fx: &Fixture, load: Load, params: &LoadParams) -> (Span, LoadOutcome) {
    let mut link = load.link();
    let reference = &fx.contexts[load.context].reference;
    common::timed(|| load_context(&fx.engine, reference, &mut link, params))
}

/// Runs untraced loads for `seconds` of load time, with reference passes
/// between loads.
fn measure(
    fx: &Fixture,
    seed: u64,
    seconds: f64,
    reference: &mut Reference,
    report: &mut RunReport,
) -> Pass {
    // Link seeds come from a stream of their own, apart from the corpus's.
    let mut rng = workload_rng(seed ^ 0x6c69_6e6b_2d73_6565);
    let mut deck = deck(seed);
    let params = params();
    // Warm-up: one loss-free load per context, untimed.
    for context in 0..fx.contexts.len() {
        let load = Load {
            context,
            prompt: 0,
            loss: 0.0,
            bursty: false,
            trace_seed: context as u64,
            link_seed: context as u64,
        };
        std::hint::black_box(load_once(fx, load, &params));
    }
    let mut pass = Pass::default();
    let mut busy = 0.0;
    while busy < seconds {
        let load = Load::draw(&mut deck, &mut rng);
        let (span, out) = load_once(fx, load, &params);
        busy += span.wall;
        pass.record(fx, report, load, span, &out);
        reference.tick();
    }
    pass
}

/// Runs the workload; with `trace`, also the per-layer pass.
pub fn run(seed: u64, seconds: f64, trace: bool) -> RunReport {
    let mut report = RunReport::default();
    let mut reference = Reference::new();
    let fx = setup(seed, &mut reference);
    let measured = measure(
        &fx,
        seed,
        if trace { seconds / 3.0 } else { seconds },
        &mut reference,
        &mut report,
    );
    let n = measured.walls.len();
    report.cpu_times(common::pct(&measured.cpus, 50.0), &fx.setups, &reference);
    report.e2e("cpu_tail_ms", 1e3 * common::pct(&measured.cpus, TAIL), "ms");
    report.e2e(
        "wall_p50_ms",
        1e3 * common::pct(&measured.walls, 50.0),
        "ms",
    );
    report.e2e(
        "wall_tail_ms",
        1e3 * common::pct(&measured.walls, TAIL),
        "ms",
    );
    report.e2e("ops_per_s", common::block_rate(&measured.walls, 8), "1/s");
    report.e2e(
        "bytes_per_token",
        common::ratio(
            (measured.data_bytes + measured.parity_bytes) as f64,
            measured.tokens as f64,
        ),
        "B/token",
    );
    report.e2e(
        "vttft_p50_ms",
        1e3 * common::pct(&measured.vttfts, 50.0),
        "ms",
    );
    report.e2e(
        "vttft_tail_ms",
        1e3 * common::pct(&measured.vttfts, TAIL),
        "ms",
    );
    report.e2e(
        "slo_miss_frac",
        common::ratio(measured.slo_missed as f64, n as f64),
        "frac",
    );
    report.e2e(
        "token_match",
        common::ratio(measured.matched as f64, n as f64),
        "frac",
    );
    report.e2e(
        "repaired_frac",
        common::ratio(measured.repaired, n as f64),
        "frac",
    );
    report.e2e(
        "parity_overhead",
        common::ratio(measured.parity_bytes as f64, measured.data_bytes as f64),
        "frac",
    );
    report
        .notes
        .push(format!("loads {n}; tail percentile p{TAIL}"));
    if !common::tail_supported(n, TAIL) {
        report
            .notes
            .push(format!("too few loads for a p{TAIL} tail: {n}"));
    }
    if trace {
        traced(&fx, &measured, &mut report);
    }
    report
}

/// Per-load transport counters of the traced pass.
#[derive(Default)]
struct NetCounts {
    sent: u64,
    dropped: u64,
    recovered: u64,
    still_lost: u64,
    repaired_chunks: u64,
    /// Stream chunks per configuration: levels finest first, then text.
    mix: Vec<u64>,
}

/// The traced pass: for each measured load, the real `load_context` call
/// (timed, untraced) and then its layer calls replayed one by one on the
/// same seeded inputs, each timed into the ledger.
fn traced(fx: &Fixture, measured: &Pass, report: &mut RunReport) {
    let params = params();
    let levels = fx.engine.num_levels();
    let mut ledger = Ledger::default();
    let mut net = NetCounts {
        mix: vec![0; levels + 1],
        ..NetCounts::default()
    };
    let (mut load_wall, mut replay_wall) = (0.0, 0.0);
    for &load in &measured.loads {
        let (span, out) = load_once(fx, load, &params);
        load_wall += span.wall;
        let t = Instant::now();
        let (cache, link) = replay_layers(fx, load, &params, &mut ledger, &mut net);
        replay_wall += common::secs(t);
        let stats = link.stats();
        net.sent += stats.packets_sent;
        net.dropped += stats.packets_dropped;
        net.recovered += out.stream.fec_recovered_packets() as u64;
        net.still_lost += out.stream.lost_packets() as u64;
        net.repaired_chunks += out.repairs.len() as u64;
        let mut problems = check(fx, load, &out);
        if common::digest(&cache) != common::digest(&out.cache) {
            problems.push("replayed layer calls disagree with load_context".to_string());
        }
        report.check("lossy-load traced", problems);
    }
    let loads = measured.loads.len().max(1) as f64;
    common::close_ledger(report, "lossy-load", load_wall, ledger.total());
    report.layer(
        "trace.overhead_frac",
        common::ratio(replay_wall, load_wall) - 1.0,
        "frac",
    );
    report.notes.extend(ledger.describe(load_wall));

    let (encode_s, _) = ledger.get("codec.encode");
    report.layer(
        "codec.encode_ms",
        1e3 * ledger.per_call("codec.encode"),
        "ms",
    );
    report.layer(
        "core.encode_share",
        common::ratio(encode_s, load_wall),
        "frac",
    );
    report.layer(
        "codec.decode_us",
        1e6 * ledger.per_call("codec.decode"),
        "us",
    );
    report.layer(
        "codec.repair_decode_us",
        1e6 * ledger.per_call("codec.repair_decode"),
        "us",
    );
    report.layer(
        "codec.repaired_chunks",
        net.repaired_chunks as f64 / loads,
        "count",
    );
    report.layer(
        "streamer.simulate_us",
        1e6 * ledger.per_call("streamer.simulate"),
        "us",
    );
    report.layer("llm.concat_us", 1e6 * ledger.per_call("llm.concat"), "us");
    let chunks: u64 = net.mix.iter().sum();
    for (i, &count) in net.mix.iter().enumerate() {
        let name = if i < levels {
            format!("streamer.level_mix.L{i}")
        } else {
            "streamer.level_mix.text".to_string()
        };
        report.layer(name, common::ratio(count as f64, chunks as f64), "frac");
    }
    report.layer("net.packets_sent", net.sent as f64 / loads, "count");
    report.layer("net.packets_dropped", net.dropped as f64 / loads, "count");
    report.layer("net.fec_recovered", net.recovered as f64 / loads, "count");
    report.layer("net.still_lost", net.still_lost as f64 / loads, "count");
    report.layer(
        "net.fec_recovery_ratio",
        common::ratio(net.recovered as f64, net.dropped as f64),
        "frac",
    );
    report.layer(
        "llm.prefill_ms",
        1e3 * fx.prefill_s / fx.contexts.len() as f64,
        "ms",
    );
    let tokens: usize = fx.contexts.iter().map(|c| c.reference.tokens()).sum();
    let plans: Vec<_> = fx
        .contexts
        .iter()
        .map(|c| fx.engine.encode_context(&c.reference).1)
        .collect();
    for level in 0..levels {
        let bytes: u64 = plans.iter().map(|p| p.total_bytes_at_level(level)).sum();
        report.layer(
            format!("codec.bytes_per_token.L{level}"),
            common::ratio(bytes as f64, tokens as f64),
            "B/token",
        );
    }
}

/// `load_context`'s layer calls, replayed through the public APIs on the
/// load's seeded inputs: encode every level, stream over an identically
/// seeded link, decode (or repair) each chunk at the level the adapter
/// chose, take text chunks from the reference, and join. Returns the
/// cache and the link (for its packet counters).
fn replay_layers(
    fx: &Fixture,
    load: Load,
    params: &LoadParams,
    ledger: &mut Ledger,
    net: &mut NetCounts,
) -> (KvCache, Link) {
    let engine = &fx.engine;
    let reference = &fx.contexts[load.context].reference;
    let (encoded, plan) = ledger.time("codec.encode", || engine.encode_context(reference));
    let mut link = load.link();
    let decode_rate = params.decode_bytes_per_sec;
    let recompute = params.recompute_sec_per_token;
    let decode_seconds = move |bytes: u64| bytes as f64 / decode_rate;
    let recompute_seconds = move |tokens: usize| tokens as f64 * recompute;
    let stream_params = StreamParams {
        slo: params.slo,
        policy: params.policy,
        prior_throughput_bps: params.prior_throughput_bps,
        concurrent_requests: params.concurrent_requests,
        retransmit_budget: params.retransmit_budget,
        fec_overhead: params.fec_overhead.clone(),
        ladder: &engine.config().ladder,
        decode_seconds: &decode_seconds,
        recompute_seconds: &recompute_seconds,
        recorder: None,
    };
    let stream = ledger.time("streamer.simulate", || {
        simulate_stream(&plan, &mut link, &stream_params)
    });
    let mut chunks = Vec::with_capacity(stream.chunks.len());
    let mut start = 0;
    for outcome in &stream.chunks {
        let tokens = plan.chunk(outcome.index).tokens;
        let chunk = match outcome.config {
            StreamConfig::Level(l) => {
                net.mix[l] += 1;
                let enc = &encoded[outcome.index][l];
                if outcome.lost.is_empty() && outcome.fec_recovered.is_empty() {
                    ledger.time("codec.decode", || engine.try_decode_at_level(enc, l))
                } else {
                    let mut arrivals = ChunkArrivalMap::full(enc.layers, enc.num_groups());
                    for &(id, _) in &outcome.lost {
                        arrivals.mark_lost(id.is_k, id.layer, id.group);
                    }
                    for &(id, _) in &outcome.fec_recovered {
                        arrivals.mark_recovered(id.is_k, id.layer, id.group);
                    }
                    ledger
                        .time("codec.repair_decode", || {
                            engine.decode_with_repairs_at_level(enc, l, &arrivals, params.repair)
                        })
                        .map(|r| r.cache)
                }
            }
            StreamConfig::Text => {
                net.mix[engine.num_levels()] += 1;
                Ok(ledger.time("llm.text_slice", || {
                    reference.slice_tokens(start, start + tokens)
                }))
            }
        };
        start += tokens;
        // A decode error leaves a zero chunk; the digest check reports it.
        chunks.push(
            chunk.unwrap_or_else(|_| {
                KvCache::zeros(reference.layers(), tokens, reference.channels())
            }),
        );
    }
    let cache = ledger.time("llm.concat", || KvCache::concat_tokens(&chunks));
    (cache, link)
}
