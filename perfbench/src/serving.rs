//! `serving-threads`: a multi-tenant shared-prefix trace on a two-shard
//! `llama7b_sim` cluster, played by `ThreadBackend`.
//!
//! The trace is an open loop in virtual time: Poisson arrivals at one
//! fixed rate near the knee of the virtual TTFT curve. In wall time each
//! `run_detailed` call replays its plan as fast as the shard workers
//! drain it, so the wall side is a closed loop. The run feeds the trace
//! to the cluster in consecutive segments of `SEGMENT` requests, one
//! `run_detailed` call each; the shards' local caches stay warm across
//! segments, as in a long-lived deployment, and the corpus is larger
//! than they hold, so both hits and misses keep happening.

use std::time::Instant;

use cachegen::EngineConfig;
use cachegen_llm::SimModelConfig;
use cachegen_net::{BandwidthTrace, Link};
use cachegen_serving::{
    ServingCluster, ServingConfig, ServingReport, ThreadBackend, ThreadRunStats,
};
use cachegen_telemetry::{Recorder, Stage, NOOP};
use cachegen_workloads::{workload_rng, Dataset, ServingRequest, SharedPrefixGen};

use crate::common::{self, Ledger, Reference, RunReport, Span};

const SHARDS: usize = 2;
const TENANTS: usize = 4;
/// Shared documents in the corpus and their length in tokens.
const DOCUMENTS: usize = 16;
const DOC_TOKENS: usize = 150;
/// Aggregate Poisson arrival rate of the virtual trace, requests/s.
const RATE_HZ: f64 = 24.0;
/// Requests per `run_detailed` call.
const SEGMENT: usize = 120;
/// Segments generated per seed; a run longer than this cycles them.
const SEGMENTS: usize = 96;
/// Store→shard link bandwidth, bits/s.
const LINK_BPS: f64 = 20e6;
/// Per-request context-loading SLO, seconds.
const SLO_S: f64 = 0.1;
/// The percentile the tail metrics report.
const TAIL: f64 = 99.0;

fn config() -> ServingConfig {
    ServingConfig {
        num_shards: SHARDS,
        num_tenants: TENANTS,
        slo: Some(SLO_S),
        prior_throughput_bps: Some(LINK_BPS),
        ..ServingConfig::default()
    }
}

/// Cluster build plus corpus store: the timed set-up. Returns the
/// set-up's time on both clocks and the wall seconds of the stores.
fn build(profile: &[Vec<usize>], documents: &[(u64, Vec<usize>)]) -> (ServingCluster, Span, f64) {
    let (span, (cluster, store_s)) = common::timed(|| {
        let links = (0..SHARDS)
            .map(|_| Link::new(BandwidthTrace::constant(LINK_BPS), 0.0))
            .collect();
        let mut cluster = ServingCluster::build(
            SimModelConfig::llama7b_sim(42),
            EngineConfig::default(),
            config(),
            profile,
            links,
        );
        let t_store = Instant::now();
        for (id, tokens) in documents {
            cluster.store_context(*id, tokens);
        }
        (cluster, common::secs(t_store))
    });
    (cluster, span, store_s)
}

struct Fixture {
    /// The cluster the thread backend runs on.
    cluster: ServingCluster,
    /// An identically built cluster fed the same segments, on which the
    /// benchmark runs the virtual-clock `plan_run`: the oracle the
    /// outputs are checked against, and the planner's timing.
    twin: ServingCluster,
    segments: Vec<Vec<ServingRequest>>,
    /// `(context_id, tokens)`; ids are dense from 0, in order.
    documents: Vec<(u64, Vec<usize>)>,
    /// Wall and CPU time of each set-up.
    setups: Vec<Span>,
    store_s: f64,
}

/// The timed set-ups, with a reference pass after each; the last two
/// clusters are kept.
fn setup(seed: u64, reference: &mut Reference) -> Fixture {
    let mut rng = workload_rng(seed);
    let vocab = SimModelConfig::llama7b_sim(42).vocab;
    let profile: Vec<Vec<usize>> = (0..2)
        .map(|_| Dataset::TriviaQa.generate(&mut rng, vocab, 240).tokens)
        .collect();
    let workload = SharedPrefixGen::new(vocab, DOCUMENTS, DOC_TOKENS).generate(
        &mut rng,
        TENANTS,
        SEGMENT * SEGMENTS,
        RATE_HZ,
    );
    let segments = workload
        .requests
        .chunks(SEGMENT)
        .map(|seg| {
            let t0 = seg[0].arrival;
            seg.iter()
                .map(|r| ServingRequest {
                    arrival: r.arrival - t0,
                    ..r.clone()
                })
                .collect()
        })
        .collect();
    // Every set-up is timed; the last two are kept (the twin, then the
    // cluster), the earlier ones dropped before the next build.
    let mut times = Vec::new();
    let mut twin = None;
    let mut last = None;
    while !common::enough_setups(&times) {
        twin = last.take().map(|(c, _)| c);
        let (cluster, span, store) = build(&profile, &workload.documents);
        times.push(span);
        reference.sample();
        last = Some((cluster, store));
    }
    let (cluster, store_s) = last.expect("set-ups");
    let twin = twin.expect("at least two set-ups");
    Fixture {
        cluster,
        twin,
        segments,
        documents: workload.documents,
        setups: times,
        store_s,
    }
}

/// One segment as the thread backend played it.
struct Played {
    wall: f64,
    /// Process CPU seconds of the `run_detailed` call.
    cpu: f64,
    plan_s: f64,
    report: ServingReport,
    stats: ThreadRunStats,
}

/// Plans the segment on the twin (timed), plays it on the cluster (timed)
/// and checks every request's output against the plan.
fn play(
    fx: &mut Fixture,
    seg: usize,
    workers: usize,
    recorder: &Recorder,
    report: &mut RunReport,
) -> Played {
    let requests = &fx.segments[seg % fx.segments.len()];
    // `run_detailed` plans with a recording recorder (to keep the loop's
    // live counters); the twin plans the same way so `plan_s` is the
    // planning cost inside the call.
    let t = Instant::now();
    let (oracle, plan) = fx.twin.plan_run(requests, &Recorder::new());
    let plan_s = common::secs(t);
    let (span, (played, stats)) = common::timed(|| {
        ThreadBackend::new(workers).run_detailed(&mut fx.cluster, requests, recorder)
    });

    let mut segment_problems = Vec::new();
    if !stats.decode_errors.is_empty() {
        segment_problems.push(format!("decode errors: {:?}", stats.decode_errors));
    }
    if stats.decoded_chunks != plan.decode_jobs() as u64 {
        segment_problems.push(format!(
            "decoded {} chunks, plan has {} decode jobs",
            stats.decoded_chunks,
            plan.decode_jobs()
        ));
    }
    let mut wall_ttft = stats.wall_ttfts.iter().peekable();
    for (i, outcome) in played.outcomes.iter().enumerate() {
        let mut problems = segment_problems.clone();
        if oracle.outcomes.get(i) != Some(outcome) {
            problems.push(format!("request {i} outcome differs from the oracle's"));
        }
        if outcome.ttft().is_some() {
            if wall_ttft.peek().map(|w| w.0) == Some(i) {
                wall_ttft.next();
            } else {
                problems.push(format!("completed request {i} has no wall TTFT"));
            }
        }
        report.check("serving-threads request", problems);
    }
    if played.outcomes.len() != requests.len() || wall_ttft.next().is_some() {
        report.check(
            "serving-threads segment",
            vec![format!(
                "{} outcomes for {} requests, or a wall TTFT for a request that did not complete",
                played.outcomes.len(),
                requests.len()
            )],
        );
    }
    Played {
        wall: span.wall,
        cpu: span.cpu,
        plan_s,
        report: played,
        stats,
    }
}

/// Accumulators over the untraced segments of a run.
#[derive(Default)]
struct Pass {
    rates: Vec<f64>,
    /// Process CPU seconds of the `run_detailed` calls.
    cpu: f64,
    completed: u64,
    wall_ttfts: Vec<f64>,
    vttfts: Vec<f64>,
    requests: u64,
    slo_missed: u64,
    degraded: u64,
    bytes: u64,
    tokens: u64,
}

impl Pass {
    fn record(&mut self, fx: &Fixture, p: &Played) {
        let completed = p.report.completed().count();
        self.rates.push(common::ratio(completed as f64, p.wall));
        self.cpu += p.cpu;
        self.completed += completed as u64;
        self.wall_ttfts
            .extend(p.stats.wall_ttfts.iter().map(|w| w.1));
        self.requests += p.report.outcomes.len() as u64;
        for o in &p.report.outcomes {
            match o.ttft() {
                Some(t) => {
                    self.vttfts.push(t);
                    self.slo_missed += u64::from(t > SLO_S);
                    self.tokens += fx.documents[o.context_id as usize].1.len() as u64;
                }
                None => self.slo_missed += 1,
            }
        }
        self.degraded += p.report.degraded_count() as u64;
        self.bytes += p
            .report
            .shards
            .iter()
            .map(|s| s.bytes_fetched + s.parity_bytes)
            .sum::<u64>();
    }
}

/// Wall-span totals of one traced segment.
struct Spans {
    /// When the first batch was fed, on the backend's clock (which starts
    /// before the per-call set-up: codec copies, decode pool, workers).
    first_feed: f64,
    queue_waits: Vec<f64>,
    decode_s: f64,
    decodes: u64,
    emulated_s: f64,
}

fn spans(recorder: &Recorder) -> Spans {
    let mut s = Spans {
        first_feed: f64::INFINITY,
        queue_waits: Vec::new(),
        decode_s: 0.0,
        decodes: 0,
        emulated_s: 0.0,
    };
    for span in recorder.spans() {
        match span.stage {
            Stage::QueueWait => {
                s.first_feed = s.first_feed.min(span.start);
                s.queue_waits.push(span.duration());
            }
            Stage::ChunkDecode => {
                s.decode_s += span.duration();
                s.decodes += 1;
            }
            Stage::Prefill | Stage::TextRecompute | Stage::Refetch => {
                s.emulated_s += span.duration()
            }
            _ => {}
        }
    }
    s
}

/// Traced-segment accumulators for one worker count.
#[derive(Default)]
struct TracedPass {
    segments: u64,
    wall: f64,
    requests: u64,
    rates: Vec<f64>,
    busy: Vec<f64>,
    queue_waits: Vec<f64>,
    decode_s: f64,
    decodes: u64,
    emulated_s: f64,
    batches: u64,
    coalesced: u64,
    hits: u64,
    lookups: u64,
    decoded: u64,
    texts: u64,
    shed: u64,
    degraded: u64,
}

impl TracedPass {
    fn record(&mut self, p: &Played, recorder: &Recorder, ledger: &mut Ledger) {
        let s = spans(recorder);
        let startup = if s.first_feed.is_finite() {
            s.first_feed
        } else {
            0.0
        };
        let completed = p.report.completed().count();
        self.segments += 1;
        self.wall += p.wall;
        self.requests += p.report.outcomes.len() as u64;
        self.rates.push(common::ratio(completed as f64, p.wall));
        self.busy.push(common::ratio(
            s.decode_s,
            p.stats.wall_secs * p.stats.pool_workers as f64,
        ));
        self.queue_waits.extend(s.queue_waits);
        self.decode_s += s.decode_s;
        self.decodes += s.decodes;
        self.emulated_s += s.emulated_s;
        ledger.add("serving.plan", p.plan_s);
        ledger.add("serving.startup", startup);
        ledger.add("serving.execute", p.stats.wall_secs - startup);
        self.batches += p.stats.batches;
        self.coalesced += p.report.coalesced_count() as u64;
        for sh in &p.report.shards {
            self.hits += sh.cache.hits;
            self.lookups += sh.cache.hits + sh.cache.misses;
        }
        self.decoded += p.stats.decoded_chunks;
        self.texts += p.stats.text_chunks;
        self.shed += p.report.shed_count() as u64;
        self.degraded += p.report.degraded_count() as u64;
    }

    fn per_segment(&self, x: u64) -> f64 {
        common::ratio(x as f64, self.segments as f64)
    }
}

/// Runs the workload; with `trace`, also the per-layer pass.
pub fn run(seed: u64, seconds: f64, trace: bool) -> RunReport {
    let mut report = RunReport::default();
    let mut reference = Reference::new();
    let mut fx = setup(seed, &mut reference);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Warm-up: one segment fills the local caches, untimed.
    play(&mut fx, 0, nproc, &NOOP, &mut report);
    let mut pass = Pass::default();
    let mut traced = [TracedPass::default(), TracedPass::default()];
    let mut ledger = Ledger::default();
    let mut clones = Ledger::default();
    let started = Instant::now();
    let mut seg = 1;
    while common::secs(started) < seconds {
        // Untraced, then (traced runs only) traced at nproc and at one
        // worker per shard, round robin over consecutive segments.
        match if trace { seg % 3 } else { 0 } {
            0 => {
                let p = play(&mut fx, seg, nproc, &NOOP, &mut report);
                pass.record(&fx, &p);
                reference.tick();
            }
            mode => {
                let recorder = Recorder::new_wall();
                let workers = if mode == 1 { nproc } else { 1 };
                let p = play(&mut fx, seg, workers, &recorder, &mut report);
                traced[mode - 1].record(&p, &recorder, &mut ledger);
                copy_codecs(&fx.twin, &mut clones);
            }
        }
        seg += 1;
    }

    let n = pass.vttfts.len();
    report.cpu_times(
        common::ratio(pass.cpu, pass.completed as f64),
        &fx.setups,
        &reference,
    );
    report.e2e(
        "wall_p50_ms",
        1e3 * common::pct(&pass.wall_ttfts, 50.0),
        "ms",
    );
    report.e2e(
        "wall_tail_ms",
        1e3 * common::pct(&pass.wall_ttfts, TAIL),
        "ms",
    );
    report.e2e("ops_per_s", common::pct(&pass.rates, 50.0), "1/s");
    report.e2e(
        "bytes_per_token",
        common::ratio(pass.bytes as f64, pass.tokens as f64),
        "B/token",
    );
    report.e2e("vttft_p50_ms", 1e3 * common::pct(&pass.vttfts, 50.0), "ms");
    report.e2e("vttft_tail_ms", 1e3 * common::pct(&pass.vttfts, TAIL), "ms");
    report.e2e(
        "slo_miss_frac",
        common::ratio(pass.slo_missed as f64, pass.requests as f64),
        "frac",
    );
    report.e2e(
        "degraded_frac",
        common::ratio(pass.degraded as f64, pass.requests as f64),
        "frac",
    );
    report.notes.push(format!(
        "segments {} of {SEGMENT} requests; {n} completed; tail percentile p{TAIL}",
        pass.rates.len(),
    ));
    if !common::tail_supported(n, TAIL) {
        report
            .notes
            .push(format!("too few completions for a p{TAIL} tail: {n}"));
    }
    if trace {
        per_layer(&fx, &pass, &traced, &ledger, &clones, &mut report);
    }
    report
}

/// Replays the codec copies `run_detailed` makes before it feeds its
/// workers (one per shard and level) and the drops that end the call,
/// timing each into `into`. Each copy is dropped before the next, so only
/// one extra codec is alive at a time.
fn copy_codecs(cluster: &ServingCluster, into: &mut Ledger) {
    let (mut copy_s, mut drop_s) = (0.0, 0.0);
    for shard in cluster.shards() {
        for level in 0..shard.engine.num_levels() {
            let t = Instant::now();
            let codec = std::hint::black_box(shard.engine.codec(level).clone());
            copy_s += common::secs(t);
            let t = Instant::now();
            drop(codec);
            drop_s += common::secs(t);
        }
    }
    into.add("codec_clone", copy_s);
    into.add("codec_drop", drop_s);
}

fn per_layer(
    fx: &Fixture,
    untraced: &Pass,
    traced: &[TracedPass; 2],
    ledger: &Ledger,
    clones: &Ledger,
    report: &mut RunReport,
) {
    let [full, one] = traced;
    let wall = full.wall + one.wall;
    common::close_ledger(report, "serving-threads", wall, ledger.total());
    report.layer(
        "ledger.execute_frac",
        common::ratio(ledger.get("serving.execute").0, wall),
        "frac",
    );
    report.notes.extend(ledger.describe(wall));
    report.layer(
        "trace.overhead_frac",
        common::ratio(
            common::pct(&untraced.rates, 50.0),
            common::pct(&full.rates, 50.0),
        ) - 1.0,
        "frac",
    );

    report.layer(
        "serving.plan_ms",
        1e3 * ledger.per_call("serving.plan"),
        "ms",
    );
    report.layer(
        "serving.startup_ms",
        1e3 * ledger.per_call("serving.startup"),
        "ms",
    );
    report.layer(
        "serving.codec_clone_ms",
        1e3 * clones.per_call("codec_clone"),
        "ms",
    );
    report.layer(
        "serving.codec_drop_ms",
        1e3 * clones.per_call("codec_drop"),
        "ms",
    );
    report.layer("serving.ops_per_s", common::pct(&full.rates, 50.0), "1/s");
    report.layer(
        "serving.queue_wait_p50_ms",
        1e3 * common::pct(&full.queue_waits, 50.0),
        "ms",
    );
    report.layer(
        "serving.queue_wait_tail_ms",
        1e3 * common::pct(&full.queue_waits, TAIL),
        "ms",
    );
    report.layer(
        "serving.pool_busy_frac",
        common::pct(&full.busy, 50.0),
        "frac",
    );
    report.layer(
        "serving.emulated_s",
        common::ratio(full.emulated_s, full.segments as f64),
        "s",
    );
    report.layer(
        "codec.decode_us",
        1e6 * common::ratio(full.decode_s, full.decodes as f64),
        "us",
    );
    report.layer("serving.batches", full.per_segment(full.batches), "count");
    report.layer(
        "serving.coalesced",
        full.per_segment(full.coalesced),
        "count",
    );
    report.layer(
        "serving.cache_hit_ratio",
        common::ratio(full.hits as f64, full.lookups as f64),
        "frac",
    );
    report.layer(
        "serving.decoded_chunks",
        full.per_segment(full.decoded),
        "count",
    );
    report.layer("serving.text_chunks", full.per_segment(full.texts), "count");
    report.layer("serving.shed", full.per_segment(full.shed), "count");
    report.layer("serving.degraded", full.per_segment(full.degraded), "count");
    report.layer("serving.w1.ops_per_s", common::pct(&one.rates, 50.0), "1/s");
    report.layer(
        "serving.w1.pool_busy_frac",
        common::pct(&one.busy, 50.0),
        "frac",
    );
    report.layer(
        "serving.w1.queue_wait_p50_ms",
        1e3 * common::pct(&one.queue_waits, 50.0),
        "ms",
    );
    report.layer(
        "serving.w1.queue_wait_tail_ms",
        1e3 * common::pct(&one.queue_waits, TAIL),
        "ms",
    );
    report.notes.push(format!(
        "traced segments: {} at nproc workers, {} at one worker per shard",
        full.segments, one.segments
    ));

    report.layer("core.store_ms", 1e3 * fx.store_s / DOCUMENTS as f64, "ms");
    let engine = &fx.twin.shard(0).engine;
    let t = Instant::now();
    for (_, tokens) in &fx.documents {
        std::hint::black_box(engine.calculate_kv(tokens));
    }
    report.layer(
        "llm.prefill_ms",
        1e3 * common::secs(t) / DOCUMENTS as f64,
        "ms",
    );
    let tokens: usize = fx.documents.iter().map(|d| d.1.len()).sum();
    for level in 0..engine.num_levels() {
        let bytes: u64 = fx
            .documents
            .iter()
            .map(|(id, _)| {
                fx.twin
                    .shard(fx.twin.shard_of(*id))
                    .plan(*id)
                    .total_bytes_at_level(level)
            })
            .sum();
        report.layer(
            format!("codec.bytes_per_token.L{level}"),
            common::ratio(bytes as f64, tokens as f64),
            "B/token",
        );
    }
}
