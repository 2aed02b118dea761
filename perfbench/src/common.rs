//! Pieces every workload shares: statistics, the seeded input deck, the
//! run report and layer ledger, the memcpy reference and output digests.

use std::time::Instant;

use cachegen_llm::KvCache;
use rand::rngs::StdRng;
use rand::Rng;

/// Nearest-rank percentile (`p` in `[0, 100]`) of `samples`; 0 on none.
pub fn pct(samples: &[f64], p: f64) -> f64 {
    cachegen_telemetry::percentile(samples, p).unwrap_or(0.0)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// CPU time this process has used so far, in seconds: all its threads,
/// live or ended, together (`CLOCK_PROCESS_CPUTIME_ID`). A KVM guest's
/// kernel leaves out of it the time the hypervisor ran other guests on
/// this one's virtual CPUs (steal-time accounting), so it does not rise
/// with the load of a shared host the way wall time does.
pub fn cpu_secs() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec (two 64-bit fields on
    // the 64-bit Linux targets this benchmark runs on) and the clock id
    // is a constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Wall and CPU seconds of one stretch of work.
#[derive(Clone, Copy)]
pub struct Span {
    pub wall: f64,
    pub cpu: f64,
}

/// Runs `f`, timing it on both clocks.
pub fn timed<T>(f: impl FnOnce() -> T) -> (Span, T) {
    let (t, c) = (Instant::now(), cpu_secs());
    let out = f();
    let cpu = cpu_secs() - c;
    (Span { wall: secs(t), cpu }, out)
}

/// Whether a run has timed enough set-ups: at least three, and more
/// while they add up to less than 8 s of CPU time (at most nine), so a
/// short set-up is repeated more often. `setup_s` comes from their median,
/// so work moved into set-up shows without one slow build deciding the
/// figure; the first set-up of a process runs 10–30 % slower than the
/// next.
pub fn enough_setups(done: &[Span]) -> bool {
    let cpu: f64 = done.iter().map(|s| s.cpu).sum();
    done.len() >= 9 || (done.len() >= 3 && cpu >= 8.0)
}

/// CPU seconds one reference pass is taken to last on the nominal host:
/// the 2-core 2.0 GHz Xeon guest the benchmark was written on, where the
/// pass measured 4.5–8.5 ms as the host's load came and went.
pub const REF_NOMINAL_S: f64 = 0.005;

/// Wall seconds of operations between two reference passes.
const REF_EVERY_S: f64 = 0.5;

/// f32 values each reference pass copies: 4 MB, more than the L2 cache
/// of any core the benchmark targets, so the pass runs at the speed of
/// the shared cache and memory.
const REF_FLOATS: usize = 1 << 20;

/// A fixed memory-streaming pass in the benchmark's own code, run after
/// each set-up and between measured operations so that its CPU time
/// tracks how fast the host runs at that moment. On a shared host the
/// same work takes 20–30 % more or less CPU time from minute to minute as
/// other guests load the shared cache and memory; the workloads' CPU
/// times move with it. Dividing by the run's median reference pass takes
/// that drift out; no program code runs in the pass, so a change to the
/// program moves only the numerator.
pub struct Reference {
    src: Vec<f32>,
    dst: Vec<f32>,
    samples: Vec<f64>,
    last: Instant,
}

impl Reference {
    /// Buffers allocated and touched by one untimed pass; no sample
    /// taken yet.
    pub fn new() -> Self {
        let mut reference = Reference {
            src: (0..REF_FLOATS).map(|i| i as f32).collect(),
            dst: vec![0.0; REF_FLOATS],
            samples: Vec::new(),
            last: Instant::now(),
        };
        reference.sample();
        reference.samples.clear();
        reference
    }

    /// Takes one pass: eight copies of the buffer, each followed by a
    /// strided read of the copy.
    pub fn sample(&mut self) {
        let c = cpu_secs();
        for _ in 0..8 {
            self.dst.copy_from_slice(std::hint::black_box(&self.src));
            let sum: f32 = self.dst.iter().step_by(7).sum();
            std::hint::black_box(sum);
        }
        self.samples.push(cpu_secs() - c);
        self.last = Instant::now();
    }

    /// Takes a pass when `REF_EVERY_S` of wall time has gone by since the
    /// last one; called between operations.
    pub fn tick(&mut self) {
        if secs(self.last) >= REF_EVERY_S {
            self.sample();
        }
    }

    /// Median CPU seconds of one pass over the run.
    pub fn median(&self) -> f64 {
        pct(&self.samples, 50.0)
    }

    /// Factor that turns this run's CPU seconds into nominal-host CPU
    /// seconds.
    pub fn scale(&self) -> f64 {
        ratio(REF_NOMINAL_S, self.median())
    }
}

/// Whether `n` samples leave at least ten beyond percentile `p`, the
/// guide for how high a tail percentile a sample count supports.
pub fn tail_supported(n: usize, p: f64) -> bool {
    (n as f64) * (1.0 - p / 100.0) >= 10.0
}

/// Zipf(s = 1) popularity over `n` ranks as whole copies per rank: each
/// rank gets `unit × round(scale × weight)` copies, at least `unit`.
pub fn zipf_copies(n: usize, scale: f64, unit: usize) -> Vec<usize> {
    let total: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
    (1..=n)
        .map(|k| unit * ((scale / k as f64 / total).round() as usize).max(1))
        .collect()
}

/// A fixed multiset of items dealt in a seeded random order and
/// reshuffled whenever it runs out. Every run then sees the same mix of
/// inputs (the seed changes their order and content, not their
/// proportions), so a run's medians do not move with sampling noise in
/// the mix.
pub struct Deck<T> {
    items: Vec<T>,
    next: usize,
    rng: StdRng,
}

impl<T: Copy> Deck<T> {
    /// A deck over `items`, shuffled by `rng`.
    pub fn new(items: Vec<T>, rng: StdRng) -> Self {
        assert!(!items.is_empty(), "a deck needs items");
        let next = items.len();
        Deck { items, next, rng }
    }

    /// The next item.
    pub fn draw(&mut self) -> T {
        if self.next == self.items.len() {
            for i in (1..self.items.len()).rev() {
                let j = self.rng.gen::<usize>() % (i + 1);
                self.items.swap(i, j);
            }
            self.next = 0;
        }
        self.next += 1;
        self.items[self.next - 1]
    }
}

/// Operations per second of operation time, over consecutive blocks of
/// `block` operations (`walls` are per-operation seconds, in run order),
/// reported as the median block: a stall in one block cannot move it.
pub fn block_rate(walls: &[f64], block: usize) -> f64 {
    let rate = |b: &[f64]| ratio(b.len() as f64, b.iter().sum());
    let rates: Vec<f64> = walls.chunks_exact(block).map(rate).collect();
    if rates.is_empty() {
        rate(walls)
    } else {
        pct(&rates, 50.0)
    }
}

/// FNV-1a style digest over the bit patterns of a cache's K and V
/// values, plus its geometry.
pub fn digest(cache: &KvCache) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    mix(cache.layers() as u64);
    mix(cache.tokens() as u64);
    mix(cache.channels() as u64);
    for t in [cache.k(), cache.v()] {
        for &x in t.data() {
            mix(u64::from(x.to_bits()));
        }
    }
    h
}

/// Whether every K and V value of a cache is finite.
pub fn all_finite(cache: &KvCache) -> bool {
    cache.k().data().iter().all(|x| x.is_finite()) && cache.v().data().iter().all(|x| x.is_finite())
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// In-process memcpy rate, bytes per second, over a buffer of `bytes`
/// bytes: the host reference behind `codec.decode_vs_memcpy`. Median of
/// nine rounds of ~10 ms each.
pub fn memcpy_bytes_per_sec(bytes: usize) -> f64 {
    let src: Vec<u8> = (0..bytes.max(64)).map(|i| (i * 31 + 7) as u8).collect();
    let mut dst = vec![0u8; src.len()];
    let mut rates = Vec::with_capacity(9);
    for _ in 0..9 {
        let t = Instant::now();
        let mut copies = 0u64;
        while t.elapsed().as_secs_f64() < 0.01 {
            for _ in 0..16 {
                dst.copy_from_slice(std::hint::black_box(&src));
                std::hint::black_box(&mut dst);
            }
            copies += 16;
        }
        rates.push(copies as f64 * src.len() as f64 / secs(t));
    }
    pct(&rates, 50.0)
}

/// Everything one run measured. Metric lists keep insertion order, which
/// is the order they print in.
#[derive(Default)]
pub struct RunReport {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output check failed or that returned an error.
    pub failed: u64,
    /// End-to-end metrics `(name, value, unit)`.
    pub e2e: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics of the traced run `(name, value, unit)`.
    pub layers: Vec<(String, f64, &'static str)>,
    /// Free-text lines: failed checks, ledger findings, observations.
    pub notes: Vec<String>,
}

impl RunReport {
    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.e2e.push((name, value, unit));
    }

    /// Records the CPU-time metrics every workload reports:
    /// `norm_cpu_ms_per_op` from `cpu_per_op_s` (the workload's CPU
    /// seconds per operation) and `setup_s` from the median set-up, both
    /// scaled by the run's reference pass; their raw forms `cpu_ms_per_op`
    /// and `setup_cpu_s`; `setup_wall_s`, the median set-up's wall time;
    /// and `ref_pass_ms`.
    pub fn cpu_times(&mut self, cpu_per_op_s: f64, setups: &[Span], reference: &Reference) {
        let cpu = pct(&setups.iter().map(|s| s.cpu).collect::<Vec<_>>(), 50.0);
        let wall = pct(&setups.iter().map(|s| s.wall).collect::<Vec<_>>(), 50.0);
        let scale = reference.scale();
        self.e2e("norm_cpu_ms_per_op", 1e3 * scale * cpu_per_op_s, "ms");
        self.e2e("cpu_ms_per_op", 1e3 * cpu_per_op_s, "ms");
        self.e2e("setup_s", scale * cpu, "s");
        self.e2e("setup_cpu_s", cpu, "s");
        self.e2e("setup_wall_s", wall, "s");
        self.e2e("ref_pass_ms", 1e3 * reference.median(), "ms");
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.layers.push((name.into(), value, unit));
    }

    /// Counts one attempted operation; `problems` are its failed checks
    /// (empty = passed). Only the first few failures are kept as notes.
    pub fn check(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            if self.failed <= 5 {
                self.notes
                    .push(format!("check failed: {what}: {}", problems.join("; ")));
            }
        }
    }

    /// `error_frac`: failed over attempted.
    pub fn error_frac(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

/// Sum of wall time per named layer call, plus the call count, for the
/// traced run's ledger.
#[derive(Default)]
pub struct Ledger {
    parts: Vec<(&'static str, f64, u64)>,
}

impl Ledger {
    /// Adds `seconds` of self time to layer `name`.
    pub fn add(&mut self, name: &'static str, seconds: f64) {
        match self.parts.iter_mut().find(|p| p.0 == name) {
            Some(p) => {
                p.1 += seconds;
                p.2 += 1;
            }
            None => self.parts.push((name, seconds, 1)),
        }
    }

    /// Times `f` as one call of layer `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(name, secs(t));
        out
    }

    /// Total seconds across all layers.
    pub fn total(&self) -> f64 {
        self.parts.iter().map(|p| p.1).sum()
    }

    /// Total seconds and call count of one layer.
    pub fn get(&self, name: &str) -> (f64, u64) {
        self.parts
            .iter()
            .find(|p| p.0 == name)
            .map_or((0.0, 0), |p| (p.1, p.2))
    }

    /// Mean seconds per call of one layer.
    pub fn per_call(&self, name: &str) -> f64 {
        let (s, n) = self.get(name);
        ratio(s, n as f64)
    }

    /// One line per layer: share of `wall` and mean per call.
    pub fn describe(&self, wall: f64) -> Vec<String> {
        self.parts
            .iter()
            .map(|(name, s, n)| {
                format!(
                    "ledger {name}: {:.1}% of wall, {n} calls, {:.1} us/call",
                    100.0 * ratio(*s, wall),
                    1e6 * ratio(*s, *n as f64)
                )
            })
            .collect()
    }
}

/// Ledger tolerance: the traced layer self times must account for the
/// end-to-end wall time to within this share, or the gap is reported as
/// a finding.
pub const LEDGER_TOLERANCE: f64 = 0.05;

/// Records `ledger.unaccounted_frac` and, when it exceeds the tolerance,
/// a finding naming the gap.
pub fn close_ledger(report: &mut RunReport, workload: &str, wall: f64, accounted: f64) {
    let unaccounted = ratio(wall - accounted, wall);
    report.layer("ledger.unaccounted_frac", unaccounted, "frac");
    if unaccounted.abs() > LEDGER_TOLERANCE {
        report.notes.push(format!(
            "finding: {workload} ledger leaves {:.1}% of {:.3} s wall unaccounted \
             (tolerance {:.0}%)",
            100.0 * unaccounted,
            wall,
            100.0 * LEDGER_TOLERANCE
        ));
    }
}
