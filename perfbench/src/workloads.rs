//! The three workloads: inputs, set-up, the timed loop with tracing off, the
//! traced run, and the correctness bookkeeping they share.

use crate::check::{self, Probe, Verdict};
use crate::mathprobe;
use crate::stats::{self, round_order};
use crate::trace::{PricingTotals, Recorder, Span, TracingModel};
use qcc_control::GrapeLatencyModel;
use qcc_core::{
    AggregationOptions, CompilationResult, CompileError, CompileService, Compiler, CompilerOptions,
    PassContext, PassState, ServeConfig, ServiceError, Strategy, SubmitOptions, Ticket,
};
use qcc_hw::{CalibratedLatencyModel, ControlLimits, Device, LatencyModel};
use qcc_ir::{Circuit, Instruction};
use qcc_workloads::{ising, qaoa, qft, standard_suite, uccsd, SuiteScale};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::time::Instant;
use threadpool::ThreadPool;

/// Times each set-up is repeated; `setup_s` is the median.
const SETUP_REPEATS: usize = 21;
/// About how long one round of each workload takes on the reference host
/// (2 cores). A timed phase of `--seconds` runs a fixed number of whole
/// rounds derived from these, so every run of a workload has the same
/// sample count and the same mix, and its order statistics compare across
/// runs and seeds.
const COLD_ROUND_S: f64 = 8.0;
const WARM_BATCH_S: f64 = 0.005;
const SERVE_ROUND_S: f64 = 2.5;
/// Fewest whole rounds a timed phase with tracing off runs: a request's
/// median over its repeats needs five to outvote two slowed repeats.
const MIN_ROUNDS: u64 = 5;
/// Fewest whole rounds of each half of a traced run (its timings only feed
/// `trace.overhead_frac`).
const MIN_TRACED_ROUNDS: u64 = 2;
/// Batches per `grape_warm` segment (see [`Robust::Segments`]).
const WARM_SEGMENT: usize = 50;
/// Requests in flight in `serve_suite`.
const SERVE_IN_FLIGHT: usize = 2;
/// Seed of the Table-3 suite's random graphs (the run seed orders requests).
const SUITE_SEED: u64 = 1;
/// The one suite entry left out of `serve_suite` (it alone outlasts a round
/// of the rest of the mix).
const SUITE_EXCLUDED: &str = "square-root-n5";

/// The workloads, by the names the benchmark definition uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold GRAPE-priced compiles, one request in flight.
    GrapeCold,
    /// Batched recompiles against a warm GRAPE solve cache.
    GrapeWarm,
    /// The Table-3 suite × every strategy, served two at a time.
    ServeSuite,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::GrapeCold,
        Workload::GrapeWarm,
        Workload::ServeSuite,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GrapeCold => "grape_cold",
            Workload::GrapeWarm => "grape_warm",
            Workload::ServeSuite => "serve_suite",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed phase (whole rounds, at least this long).
    pub seconds: f64,
    /// Directory for the snapshot and trace files the run writes.
    pub out_dir: PathBuf,
}

/// One metric as reported.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Outcome of one run of a workload.
#[derive(Debug, Default)]
pub struct Report {
    /// Requests attempted (circuits compiled).
    pub attempted: u64,
    /// Requests that failed (error, failed check, or a latency that differs
    /// from the first compile of the same request).
    pub failed: u64,
    /// Distinct outputs too wide to simulate.
    pub unchecked: u64,
    /// Distinct outputs simulated and found equivalent.
    pub checked: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable remarks (failure details, tail rank).
    pub notes: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// Runs `workload` with tracing off (end-to-end metrics) or on (per-layer
/// metrics).
pub fn run(workload: Workload, config: &RunConfig, traced: bool) -> Report {
    match (workload, traced) {
        (Workload::GrapeCold, false) => grape_cold(config),
        (Workload::GrapeCold, true) => grape_cold_traced(config),
        (Workload::GrapeWarm, false) => grape_warm(config),
        (Workload::GrapeWarm, true) => grape_warm_traced(config),
        (Workload::ServeSuite, false) => serve_suite(config),
        (Workload::ServeSuite, true) => serve_suite_traced(config),
    }
}

// ---------------------------------------------------------------------------
// Shared bookkeeping
// ---------------------------------------------------------------------------

/// How a timed loop's order statistics resist bursts of host noise (on a
/// shared host, other tenants slow everything by up to ~40% for seconds at
/// a time).
#[derive(Debug, Clone, Copy)]
enum Robust {
    /// The loop repeats each distinct request once per round: every sample
    /// counts as the median of its request's repeats, and throughput is the
    /// median over rounds of `window` requests.
    Repeats { window: usize },
    /// The loop repeats one request: p50, tail and throughput are medians
    /// over consecutive segments of `size` samples.
    Segments { size: usize },
}

/// What a timed loop collects.
#[derive(Default)]
struct Tally {
    /// Wall clock of each request, in completion order.
    request_s: Vec<f64>,
    /// The distinct request of each sample.
    groups: Vec<usize>,
    /// Completion time of each sample, from the start of the loop.
    done_s: Vec<f64>,
    /// Circuits each sample compiled.
    circuits: Vec<f64>,
    ratios: Vec<f64>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    /// First result of each distinct request, for the semantic check.
    first: BTreeMap<usize, CompilationResult>,
    /// Successful compiles of each distinct request.
    compiles: BTreeMap<usize, u64>,
}

impl Tally {
    /// Books the timing of one request (`circuits` compiled by it).
    fn sample(&mut self, group: usize, request_s: f64, loop_start: Instant, circuits: usize) {
        self.request_s.push(request_s);
        self.groups.push(group);
        self.done_s.push(loop_start.elapsed().as_secs_f64());
        self.circuits.push(circuits as f64);
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.notes.len() < 20 {
            self.notes.push(what);
        }
    }

    /// Books one compile of request `key` (a distinct circuit × options)
    /// whose ISA-baseline latency is `isa_ns`.
    fn record(
        &mut self,
        key: usize,
        label: &str,
        isa_ns: f64,
        outcome: Result<CompilationResult, String>,
    ) {
        self.attempted += 1;
        match outcome {
            Err(e) => self.fail(format!("{label}: {e}")),
            Ok(result) => {
                *self.compiles.entry(key).or_default() += 1;
                self.ratios.push(result.total_latency_ns / isa_ns);
                match self.first.get(&key) {
                    Some(first)
                        if first.total_latency_ns.to_bits()
                            != result.total_latency_ns.to_bits() =>
                    {
                        let msg = format!(
                            "{label}: latency {} differs from the first compile's {}",
                            result.total_latency_ns, first.total_latency_ns
                        );
                        self.fail(msg);
                    }
                    Some(_) => {}
                    None => {
                        self.first.insert(key, result);
                    }
                }
            }
        }
    }

    /// Runs the semantic check on the first result of every distinct
    /// request; `circuit_of` maps a request to its input circuit. Every
    /// compile of an output that fails counts as a failed request.
    fn check_outputs(
        &mut self,
        circuits: &[Circuit],
        circuit_of: &dyn Fn(usize) -> usize,
        label: &dyn Fn(usize) -> String,
        seed: u64,
        report: &mut Report,
    ) {
        let start = Instant::now();
        let mut probes: HashMap<usize, Option<Probe>> = HashMap::new();
        for (key, result) in &self.first {
            let c = circuit_of(*key);
            let probe = probes
                .entry(c)
                .or_insert_with(|| Probe::new(&circuits[c], seed ^ c as u64));
            match check::check(probe.as_ref(), result) {
                Verdict::Passed => report.checked += 1,
                Verdict::Unchecked => report.unchecked += 1,
                Verdict::Failed(why) => {
                    self.failed += self.compiles.get(key).copied().unwrap_or(1);
                    self.notes
                        .push(format!("{}: semantic check failed: {why}", label(*key)));
                }
            }
        }
        report.notes.push(format!(
            "semantic check of {} distinct outputs took {:.1} s (untimed)",
            self.first.len(),
            start.elapsed().as_secs_f64()
        ));
    }

    /// p50, tail and throughput of the timed loop, and a note on the tail;
    /// `None` for the tail when there are too few samples.
    fn timing(&self, robust: Robust) -> (f64, Option<f64>, f64, String) {
        match robust {
            Robust::Repeats { window } => {
                let values = stats::median_of_group(&self.request_s, &self.groups);
                let tail = stats::tail(&values);
                let rates = stats::window_rates(&self.done_s, &self.circuits, window);
                let note = tail.map_or(String::new(), |t| {
                    format!(
                        "request_s.tail is p{:.1}: rank {} of {} samples, each the median of its request's repeats",
                        t.percentile(),
                        t.rank,
                        t.count
                    )
                });
                (
                    stats::median(&values),
                    tail.map(|t| t.value),
                    stats::median(&rates),
                    note,
                )
            }
            Robust::Segments { size } => {
                let segments: Vec<&[f64]> = self.request_s.chunks_exact(size).collect();
                let p50s: Vec<f64> = segments.iter().map(|s| stats::median(s)).collect();
                let tails: Option<Vec<stats::Tail>> =
                    segments.iter().map(|s| stats::tail(s)).collect();
                let rates = stats::window_rates(&self.done_s, &self.circuits, size);
                let note = tails.as_ref().and_then(|t| t.first()).map_or(String::new(), |t| {
                    format!(
                        "request_s.tail is p{:.1}: rank {} of {} samples per segment, median over {} segments",
                        t.percentile(),
                        t.rank,
                        t.count,
                        segments.len()
                    )
                });
                let tail = tails
                    .filter(|t| !t.is_empty())
                    .map(|t| stats::median(&t.iter().map(|t| t.value).collect::<Vec<_>>()));
                (stats::median(&p50s), tail, stats::median(&rates), note)
            }
        }
    }

    /// The end-to-end metrics of the timed loop.
    fn end_to_end(mut self, robust: Robust, setup_s: f64, report: &mut Report) {
        self.failed = self.failed.min(self.attempted);
        let (p50, tail, throughput, note) = self.timing(robust);
        report.metric("request_s.p50", p50, "s");
        match tail {
            Some(tail) => {
                report.metric("request_s.tail", tail, "s");
                report.notes.push(note);
            }
            None => {
                self.fail(format!(
                    "{} timed requests leave no tail with {} samples beyond it",
                    self.request_s.len(),
                    stats::TAIL_BEYOND
                ));
                report.metric("request_s.tail", p50, "s");
            }
        }
        report.metric("throughput_rps", throughput, "1/s");
        report.metric(
            "program_latency_ratio",
            stats::geomean(&self.ratios).unwrap_or(f64::NAN),
            "ratio",
        );
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        report.metric("success_frac", 1.0 - failed_frac, "fraction");
        report.metric("setup_s", setup_s, "s");
        report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
        report.notes.push(format!(
            "failed_frac = {failed_frac} ({} of {} requests)",
            self.failed, self.attempted
        ));
        report.attempted += self.attempted;
        report.failed += self.failed;
        report.notes.append(&mut self.notes);
    }
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Whole rounds a timed phase of `seconds` runs when one round takes about
/// `nominal_s`; at least `min`.
fn rounds_for(seconds: f64, nominal_s: f64, min: u64) -> u64 {
    ((seconds / nominal_s).round() as u64).max(min)
}

/// Runs `setup` [`SETUP_REPEATS`] times; returns the last value and the
/// median duration.
fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        last = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), stats::median(&times))
}

/// ISA-baseline latency of each circuit on `device` under the calibrated
/// model.
fn isa_baselines(device: &Device, circuits: &[Circuit]) -> Vec<f64> {
    let service = CompileService::new(device)
        .with_threads(1)
        .with_compile_cache(0);
    let options = CompilerOptions::strategy(Strategy::IsaBaseline);
    circuits
        .iter()
        .map(|c| {
            service
                .compile(c, &options)
                .expect("the ISA baseline compiles on the workload's device")
                .total_latency_ns
        })
        .collect()
}

/// Identity bytes a backend-less service derives for `model` on `device`.
fn fingerprint(device: &Device, model: &dyn LatencyModel) -> Vec<u8> {
    let mut fp = Vec::new();
    device.encode_into(&mut fp);
    fp.extend_from_slice(model.name().as_bytes());
    fp
}

// ---------------------------------------------------------------------------
// The GRAPE-priced pool (grape_cold, grape_warm)
// ---------------------------------------------------------------------------

/// The 3–8 qubit circuits GRAPE prices, by name.
fn grape_pool() -> Vec<(&'static str, Circuit)> {
    vec![
        ("paper_triangle_example", qaoa::paper_triangle_example()),
        ("maxcut_line(4)", qaoa::maxcut_line(4)),
        ("maxcut_line(6)", qaoa::maxcut_line(6)),
        ("ising_chain(4)", ising::ising_chain(4)),
        ("ising_chain(6)", ising::ising_chain(6)),
        ("maxcut_reg4(6,7)", qaoa::maxcut_reg4(6, 7)),
        ("maxcut_reg4(8,11)", qaoa::maxcut_reg4(8, 11)),
        ("qft(3)", qft::qft(3)),
        ("qft(4)", qft::qft(4)),
        ("uccsd_benchmark(4)", uccsd::uccsd_benchmark(4)),
    ]
}

fn grape_options() -> CompilerOptions {
    CompilerOptions {
        strategy: Strategy::ClsAggregation,
        aggregation: AggregationOptions::with_width(2),
    }
}

/// Set-up state of the GRAPE pool.
struct GrapeSetup {
    device: Device,
    names: Vec<&'static str>,
    circuits: Vec<Circuit>,
    isa_ns: Vec<f64>,
}

fn grape_setup() -> GrapeSetup {
    let device = Device::transmon_grid(8);
    let (names, circuits): (Vec<_>, Vec<_>) = grape_pool().into_iter().unzip();
    let isa_ns = isa_baselines(&device, &circuits);
    GrapeSetup {
        device,
        names,
        circuits,
        isa_ns,
    }
}

impl GrapeSetup {
    fn check(&self, tally: &mut Tally, seed: u64, report: &mut Report) {
        tally.check_outputs(
            &self.circuits,
            &|i| i,
            &|i| self.names[i].to_string(),
            seed,
            report,
        );
    }
}

/// The untraced `grape_cold` loop: `rounds` seeded rounds over the pool,
/// each request a service compile on a fresh model.
fn cold_loop(setup: &GrapeSetup, seed: u64, rounds: u64, tally: &mut Tally) {
    let pool = setup.circuits.len();
    let options = grape_options();
    let start = Instant::now();
    for round in 0..rounds {
        for index in round_order(seed, round, pool) {
            let model = GrapeLatencyModel::fast_two_qubit();
            let service = CompileService::with_model(&setup.device, Box::new(&model))
                .with_threads(1)
                .with_compile_cache(0);
            let t = Instant::now();
            let result = service.compile(&setup.circuits[index], &options);
            tally.sample(index, t.elapsed().as_secs_f64(), start, 1);
            tally.record(
                index,
                setup.names[index],
                setup.isa_ns[index],
                result.map_err(|e| e.to_string()),
            );
        }
    }
}

fn grape_cold(config: &RunConfig) -> Report {
    let (setup, setup_s) = repeated_setup(grape_setup);
    let mut tally = Tally::default();
    let rounds = rounds_for(config.seconds, COLD_ROUND_S, MIN_ROUNDS);
    cold_loop(&setup, config.seed, rounds, &mut tally);
    let mut report = Report::default();
    setup.check(&mut tally, config.seed, &mut report);
    tally.end_to_end(
        Robust::Repeats {
            window: setup.circuits.len(),
        },
        setup_s,
        &mut report,
    );
    report
}

// ---------------------------------------------------------------------------
// Traced per-pass runs
// ---------------------------------------------------------------------------

/// Per-layer totals gathered by [`drive_passes`].
#[derive(Default)]
struct LayerTotals {
    self_s: BTreeMap<&'static str, f64>,
    instrs_out: BTreeMap<&'static str, u64>,
    merges: u64,
    swaps: u64,
    request_s: Vec<f64>,
    pass_self_s: f64,
    pricing_s: f64,
}

/// Drives the strategy's pipeline one `run_pass` at a time, recording a
/// request span, a span per pass, and (through `model`) a span per pricing
/// call; adds the layer totals of the request to `totals`.
#[allow(clippy::too_many_arguments)] // one slot per input of the run
fn drive_passes(
    recorder: &Recorder,
    model: &TracingModel<'_>,
    device: &Device,
    circuit: &Circuit,
    options: &CompilerOptions,
    pool: ThreadPool,
    request: u64,
    totals: &mut LayerTotals,
) -> Result<PassState, CompileError> {
    let pipeline = options.strategy.pipeline();
    let names = pipeline.pass_names();
    let fp = fingerprint(device, model);
    let ctx = PassContext::new(circuit, device, model, options, pool).with_backend_fingerprint(&fp);
    let request_span = recorder.open("request".to_string(), None, request);
    let mut state = PassState::default();
    let mut outcome = Ok(());
    for (i, name) in names.iter().enumerate() {
        let span = recorder.open(format!("pass:{name}"), Some(request_span), request);
        model.enter(span, request);
        outcome = pipeline.run_pass(i, &mut state, &ctx);
        model.leave();
        recorder.close(span);
        if outcome.is_err() {
            break;
        }
    }
    recorder.close(request_span);
    outcome?;

    // Spans of this request: the request itself, then its passes, each
    // followed by its pricing children.
    let spans: Vec<Span> = recorder.spans_from(request_span);
    let mut children: HashMap<usize, Vec<(f64, f64)>> = HashMap::new();
    for s in &spans[1..] {
        if let Some(parent) = s.parent {
            children.entry(parent).or_default().push((s.start, s.end));
        }
        if s.name == "pricing" {
            totals.pricing_s += s.duration();
        }
    }
    let passes = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.parent == Some(request_span));
    for (pass_index, (offset, s)) in passes.enumerate() {
        let covered = children
            .get(&(request_span + offset))
            .map_or(&[][..], |c| c);
        let own = stats::self_time(s.start, s.end, covered);
        let name = names[pass_index];
        *totals.self_s.entry(name).or_default() += own;
        *totals.instrs_out.entry(name).or_default() +=
            state.reports[pass_index].instructions as u64;
        totals.pass_self_s += own;
    }
    totals.request_s.push(spans[0].duration());
    totals.merges += state.aggregation.merges as u64;
    totals.swaps += state.swap_count as u64;
    Ok(state)
}

/// The pass names the per-layer report covers, in pipeline order.
const PASS_NAMES: [&str; 9] = [
    "flatten",
    "commutativity-detection",
    "hand-optimization",
    "cls",
    "route",
    "aggregation",
    "final-cls",
    "price",
    "schedule",
];

/// Values of the per-layer metrics; missing ones report 0 (the layer did
/// not run on this workload).
#[derive(Default)]
struct Layers {
    grape_s_per_solve: f64,
    grape_solves: f64,
    grape_hit_ratio: f64,
    grape_fallback_frac: f64,
    pricing: PricingTotals,
    rounds: f64,
    totals: LayerTotals,
    queue_wait_s: Vec<f64>,
    in_service_s: Vec<f64>,
    warm_start_s: f64,
    records: f64,
    overhead_frac: f64,
}

impl Layers {
    fn into_report(self, report: &mut Report) {
        let rounds = self.rounds.max(1.0);
        let math = mathprobe::probe(0x5EED);
        report.metric("grape.s_per_solve", self.grape_s_per_solve, "s");
        report.metric("grape.solves", self.grape_solves, "count");
        report.metric("grape.hit_ratio", self.grape_hit_ratio, "ratio");
        report.metric("grape.fallback_frac", self.grape_fallback_frac, "fraction");
        report.metric("math.expm2_ns", math.expm2_ns, "ns");
        report.metric("math.expm4_ns", math.expm4_ns, "ns");
        report.metric("math.matmul4_ns", math.matmul4_ns, "ns");
        report.metric("pricing.calls", self.pricing.calls as f64 / rounds, "count");
        report.metric(
            "pricing.queries",
            self.pricing.queries as f64 / rounds,
            "count",
        );
        report.metric("pricing.busy_s", self.pricing.busy_s / rounds, "s");
        for name in PASS_NAMES {
            let v = self.totals.self_s.get(name).copied().unwrap_or(0.0);
            report.metric(format!("pass.{name}.self_s"), v, "s");
        }
        for name in PASS_NAMES {
            let v = self.totals.instrs_out.get(name).copied().unwrap_or(0);
            report.metric(format!("pass.{name}.instrs_out"), v as f64, "count");
        }
        report.metric("aggregate.merges", self.totals.merges as f64, "count");
        report.metric("route.swaps", self.totals.swaps as f64, "count");
        let tail = |v: &[f64]| stats::tail(v).map_or(0.0, |t| t.value);
        report.metric(
            "service.queue_wait_s.p50",
            stats::median(&self.queue_wait_s),
            "s",
        );
        report.metric("service.queue_wait_s.tail", tail(&self.queue_wait_s), "s");
        report.metric(
            "service.in_service_s.p50",
            stats::median(&self.in_service_s),
            "s",
        );
        report.metric("persist.warm_start_s", self.warm_start_s, "s");
        report.metric("persist.records", self.records, "count");
        report.metric("trace.overhead_frac", self.overhead_frac, "fraction");
        let request_total: f64 = self.totals.request_s.iter().sum();
        let accounted = if request_total > 0.0 {
            (self.totals.pass_self_s + self.totals.pricing_s) / request_total
        } else {
            0.0
        };
        report.metric("trace.accounted_frac", accounted, "fraction");
    }
}

/// Assembles a traced run's report: the semantic check of the untraced
/// outputs, both loops' counts and notes, the spans (written to
/// `trace-<workload>.jsonl`, replacing the previous run's), and the
/// per-layer metrics.
#[allow(clippy::too_many_arguments)] // one slot per piece of the report
fn traced_report(
    check: impl FnOnce(&mut Tally, &mut Report),
    mut untraced: Tally,
    mut traced: Tally,
    recorder: &Recorder,
    config: &RunConfig,
    workload: Workload,
    layers: Layers,
) -> Report {
    let mut report = Report::default();
    check(&mut untraced, &mut report);
    report.attempted = untraced.attempted + traced.attempted;
    report.failed = untraced.failed + traced.failed;
    report.notes.append(&mut untraced.notes);
    report.notes.append(&mut traced.notes);
    let path = config
        .out_dir
        .join(format!("trace-{}.jsonl", workload.name()));
    report.notes.push(match recorder.write_jsonl(&path) {
        Ok(()) => format!("spans written to {}", path.display()),
        Err(e) => format!("could not write spans to {}: {e}", path.display()),
    });
    layers.into_report(&mut report);
    report
}

/// `traced / untraced - 1` of two request medians.
fn overhead(traced: &[f64], untraced: &[f64]) -> f64 {
    stats::median(traced) / stats::median(untraced) - 1.0
}

fn grape_cold_traced(config: &RunConfig) -> Report {
    let (setup, _) = repeated_setup(grape_setup);
    let mut untraced = Tally::default();
    let rounds = rounds_for(config.seconds / 2.0, COLD_ROUND_S, MIN_TRACED_ROUNDS);
    cold_loop(&setup, config.seed, rounds, &mut untraced);

    let recorder = Recorder::default();
    let calibrated = CalibratedLatencyModel::new(ControlLimits::asplos19());
    let options = grape_options();
    let pool = setup.circuits.len();
    let mut tally = Tally::default();
    let mut layers = Layers::default();
    let (mut solves, mut queries, mut solved_keys, mut fallbacks) =
        (0usize, 0usize, 0usize, 0usize);
    for round in 0..rounds {
        for index in round_order(config.seed, round, pool) {
            let model = GrapeLatencyModel::fast_two_qubit();
            let traced = TracingModel::new(&model, &recorder).record_answers();
            let request = round * pool as u64 + index as u64;
            let state = drive_passes(
                &recorder,
                &traced,
                &setup.device,
                &setup.circuits[index],
                &options,
                ThreadPool::serial(),
                request,
                &mut layers.totals,
            );
            let stats = model.pricing_stats().unwrap_or_default();
            solves += stats.solves;
            queries += stats.queries;
            let pricing = traced.totals();
            layers.pricing.calls += pricing.calls;
            layers.pricing.queries += pricing.queries;
            layers.pricing.busy_s += pricing.busy_s;
            // Every distinct key this fresh model saw was solved once; a
            // solve whose latency is bit-equal to the calibrated model's is
            // the silent fallback.
            let mut seen = HashSet::new();
            for (q, latency) in traced.take_answers() {
                if seen.insert(key_bytes(&q)) {
                    solved_keys += 1;
                    if latency.to_bits() == calibrated.aggregate_latency(&q).to_bits() {
                        fallbacks += 1;
                    }
                }
            }
            if seen.len() != stats.solves {
                tally.fail(format!(
                    "{}: {} distinct keys but {} solves",
                    setup.names[index],
                    seen.len(),
                    stats.solves
                ));
            }
            let outcome = state
                .map_err(|e| e.to_string())
                .and_then(|s| traced_result(s, &setup.circuits[index], options.strategy));
            tally.record(index, setup.names[index], setup.isa_ns[index], outcome);
        }
    }
    // The traced path must reproduce the untraced compile bit for bit.
    for (index, first) in &untraced.first {
        if let Some(traced) = tally.first.get(index) {
            if traced.total_latency_ns.to_bits() != first.total_latency_ns.to_bits() {
                tally.fail(format!(
                    "{}: traced latency differs from untraced",
                    setup.names[*index]
                ));
            }
        }
    }
    let rounds = rounds as f64;
    layers.rounds = rounds;
    layers.grape_solves = solves as f64 / rounds;
    layers.grape_s_per_solve = if solves > 0 {
        layers.pricing.busy_s / solves as f64
    } else {
        0.0
    };
    layers.grape_hit_ratio = (queries - solves) as f64 / queries.max(1) as f64;
    layers.grape_fallback_frac = fallbacks as f64 / solved_keys.max(1) as f64;
    layers.overhead_frac = overhead(&layers.totals.request_s, &untraced.request_s);
    per_round(&mut layers.totals, rounds);

    tally.notes.push(format!(
        "traced {rounds} rounds: {solves} solves, {solved_keys} solved keys, {fallbacks} fell back"
    ));
    let check = |t: &mut Tally, r: &mut Report| setup.check(t, config.seed, r);
    traced_report(
        check,
        untraced,
        tally,
        &recorder,
        config,
        Workload::GrapeCold,
        layers,
    )
}

/// Scales the additive per-layer totals to one round of the workload.
fn per_round(totals: &mut LayerTotals, rounds: f64) {
    for v in totals.self_s.values_mut() {
        *v /= rounds;
    }
    for v in totals.instrs_out.values_mut() {
        *v = (*v as f64 / rounds).round() as u64;
    }
    totals.merges = (totals.merges as f64 / rounds).round() as u64;
    totals.swaps = (totals.swaps as f64 / rounds).round() as u64;
}

/// Injective key bytes of an instruction list.
fn key_bytes(constituents: &[Instruction]) -> Vec<u8> {
    let mut out = Vec::new();
    for inst in constituents {
        inst.encode_into(&mut out);
    }
    out
}

/// A finished state packaged as the result the service would return.
fn traced_result(
    state: PassState,
    circuit: &Circuit,
    strategy: Strategy,
) -> Result<CompilationResult, String> {
    let latencies = state.latencies.ok_or("pipeline left no latencies")?;
    let schedule = state.schedule.ok_or("pipeline left no schedule")?;
    let n = circuit.n_qubits();
    Ok(CompilationResult {
        strategy,
        instructions: state.instructions,
        latencies,
        total_latency_ns: schedule.makespan,
        schedule,
        swap_count: state.swap_count,
        aggregation: state.aggregation,
        reports: state.reports,
        partition: state.partition,
        initial_layout: state
            .initial_layout
            .unwrap_or_else(|| qcc_core::Layout::identity(n)),
        final_layout: state
            .final_layout
            .unwrap_or_else(|| qcc_core::Layout::identity(n)),
    })
}

// ---------------------------------------------------------------------------
// grape_warm
// ---------------------------------------------------------------------------

/// Pricing threads of the warm batch loop.
const WARM_THREADS: usize = 2;

/// Untimed preparation: one cold batch over the pool on a shared model,
/// snapshotted to disk. Returns the snapshot path and the cold results.
fn warm_prepare(
    setup: &GrapeSetup,
    config: &RunConfig,
) -> (PathBuf, Vec<Result<CompilationResult, CompileError>>) {
    let model = GrapeLatencyModel::fast_two_qubit();
    let results = Compiler::new(&setup.device, &model)
        .with_threads(WARM_THREADS)
        .compile_batch(&setup.circuits, &grape_options());
    std::fs::create_dir_all(&config.out_dir).expect("the output directory can be created");
    let path = config
        .out_dir
        .join(format!("grape_warm-{}.qccsnap", std::process::id()));
    model
        .snapshot_to(&path)
        .expect("the GRAPE cache snapshot can be written");
    (path, results)
}

/// Set-up of `grape_warm`: the pool, its ISA baselines, and a fresh model
/// warm-started from the snapshot. Returns the model, the records loaded,
/// and the warm-start time alone.
fn warm_setup(path: &Path) -> (GrapeSetup, GrapeLatencyModel, usize, f64) {
    let setup = grape_setup();
    let model = GrapeLatencyModel::fast_two_qubit();
    let start = Instant::now();
    let records = model
        .warm_start_from(path)
        .expect("the snapshot written in preparation loads");
    (setup, model, records, start.elapsed().as_secs_f64())
}

/// The timed `grape_warm` loop: `batches` whole-pool batches, each in a
/// seeded order.
fn warm_loop(
    setup: &GrapeSetup,
    compiler: &Compiler<'_>,
    model: &GrapeLatencyModel,
    seed: u64,
    batches: u64,
    tally: &mut Tally,
) {
    let pool = setup.circuits.len();
    let options = grape_options();
    let start = Instant::now();
    for batch in 0..batches {
        let order = round_order(seed, batch, pool);
        let circuits: Vec<Circuit> = order.iter().map(|&i| setup.circuits[i].clone()).collect();
        let solves_before = model.solve_count();
        let t = Instant::now();
        let results = compiler.compile_batch(&circuits, &options);
        tally.sample(0, t.elapsed().as_secs_f64(), start, circuits.len());
        let solved = model.solve_count() - solves_before;
        for (&index, result) in order.iter().zip(results) {
            let outcome = if solved > 0 {
                Err(format!(
                    "batch {batch} made {solved} GRAPE solves on a warm cache"
                ))
            } else {
                result.map_err(|e| e.to_string())
            };
            tally.record(index, setup.names[index], setup.isa_ns[index], outcome);
        }
    }
}

/// Seeds `tally` with the cold preparation results, so every warm compile is
/// compared with the first (cold) compile of the same circuit.
fn seed_first_results(
    setup: &GrapeSetup,
    cold: Vec<Result<CompilationResult, CompileError>>,
    tally: &mut Tally,
) {
    for (index, result) in cold.into_iter().enumerate() {
        match result {
            Ok(r) => {
                tally.first.insert(index, r);
            }
            Err(e) => tally.fail(format!(
                "{}: cold preparation failed: {e}",
                setup.names[index]
            )),
        }
    }
}

fn grape_warm(config: &RunConfig) -> Report {
    let (path, cold) = warm_prepare(&grape_setup(), config);
    let ((setup, model, _, _), setup_s) = repeated_setup(|| warm_setup(&path));
    let _ = std::fs::remove_file(&path);
    let mut tally = Tally::default();
    seed_first_results(&setup, cold, &mut tally);
    let compiler = Compiler::new(&setup.device, &model).with_threads(WARM_THREADS);
    let batches = rounds_for(config.seconds, WARM_BATCH_S, WARM_SEGMENT as u64);
    warm_loop(&setup, &compiler, &model, config.seed, batches, &mut tally);
    let mut report = Report::default();
    setup.check(&mut tally, config.seed, &mut report);
    tally.end_to_end(
        Robust::Segments { size: WARM_SEGMENT },
        setup_s,
        &mut report,
    );
    report
}

fn grape_warm_traced(config: &RunConfig) -> Report {
    let (path, cold) = warm_prepare(&grape_setup(), config);
    let mut warm_times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let (setup, model, records, warm_s) = warm_setup(&path);
        warm_times.push(warm_s);
        last = Some((setup, model, records));
    }
    let _ = std::fs::remove_file(&path);
    let (setup, model, records) = last.expect("at least one set-up");
    let mut layers = Layers {
        warm_start_s: stats::median(&warm_times),
        records: records as f64,
        ..Layers::default()
    };

    let mut untraced = Tally::default();
    seed_first_results(&setup, cold, &mut untraced);
    let compiler = Compiler::new(&setup.device, &model).with_threads(WARM_THREADS);
    let batches = rounds_for(config.seconds / 2.0, WARM_BATCH_S, WARM_SEGMENT as u64);
    warm_loop(
        &setup,
        &compiler,
        &model,
        config.seed,
        batches,
        &mut untraced,
    );

    // Traced batches: the staged executor runs passes on its own threads, so
    // pricing is attributed per batch (one round of the pool), not per request.
    let recorder = Recorder::default();
    let traced = TracingModel::new(&model, &recorder);
    let traced_compiler = Compiler::new(&setup.device, &traced).with_threads(WARM_THREADS);
    let mut tally = Tally {
        first: untraced.first.clone(),
        ..Tally::default()
    };
    let solves_before = model.solve_count();
    warm_loop(
        &setup,
        &traced_compiler,
        &model,
        config.seed,
        batches,
        &mut tally,
    );
    layers.pricing = traced.totals();
    layers.rounds = batches as f64;
    layers.overhead_frac = overhead(&tally.request_s, &untraced.request_s);

    // Per-pass spans: the same recipe driven one pass at a time, with the
    // serial pricing pool each staged pass gets.
    let options = grape_options();
    let per_pass = TracingModel::new(&model, &recorder);
    for (index, circuit) in setup.circuits.iter().enumerate() {
        let state = drive_passes(
            &recorder,
            &per_pass,
            &setup.device,
            circuit,
            &options,
            ThreadPool::serial(),
            index as u64,
            &mut layers.totals,
        );
        let outcome = state
            .map_err(|e| e.to_string())
            .and_then(|s| traced_result(s, circuit, options.strategy));
        tally.record(index, setup.names[index], setup.isa_ns[index], outcome);
    }
    let solves = model.solve_count() - solves_before;
    layers.grape_solves = solves as f64;
    let stats = model.pricing_stats().unwrap_or_default();
    layers.grape_hit_ratio = stats.cache_hits() as f64 / stats.queries.max(1) as f64;

    tally
        .notes
        .push(format!("{solves} GRAPE solves after the warm start"));
    let check = |t: &mut Tally, r: &mut Report| setup.check(t, config.seed, r);
    traced_report(
        check,
        untraced,
        tally,
        &recorder,
        config,
        Workload::GrapeWarm,
        layers,
    )
}

// ---------------------------------------------------------------------------
// serve_suite
// ---------------------------------------------------------------------------

/// Set-up state of the served Table-3 mix.
struct SuiteSetup {
    device: Device,
    names: Vec<String>,
    circuits: Vec<Circuit>,
    isa_ns: Vec<f64>,
    /// Requests: (circuit index, strategy).
    requests: Vec<(usize, Strategy)>,
}

fn suite_setup() -> SuiteSetup {
    let device = Device::transmon_grid(60);
    let (names, circuits): (Vec<String>, Vec<Circuit>) =
        standard_suite(SuiteScale::Full, SUITE_SEED)
            .into_iter()
            .filter(|b| b.name != SUITE_EXCLUDED)
            .map(|b| (b.name, b.circuit))
            .unzip();
    let isa_ns = isa_baselines(&device, &circuits);
    let requests = (0..circuits.len())
        .flat_map(|c| Strategy::all().into_iter().map(move |s| (c, s)))
        .collect();
    SuiteSetup {
        device,
        names,
        circuits,
        isa_ns,
        requests,
    }
}

impl SuiteSetup {
    fn label(&self, request: usize) -> String {
        let (c, s) = self.requests[request];
        format!("{} / {s}", self.names[c])
    }

    fn check(&self, tally: &mut Tally, seed: u64, report: &mut Report) {
        tally.check_outputs(
            &self.circuits,
            &|r| self.requests[r].0,
            &|r| self.label(r),
            seed,
            report,
        );
    }

    fn book(
        &self,
        tally: &mut Tally,
        request: usize,
        result: Result<CompilationResult, ServiceError>,
    ) {
        let (c, _) = self.requests[request];
        tally.record(
            request,
            &self.label(request),
            self.isa_ns[c],
            result.map_err(|e| e.to_string()),
        );
    }
}

/// The seeded request sequence of `serve_suite`: round after round of a
/// fresh permutation of the 50 requests.
struct Sequence {
    seed: u64,
    len: usize,
    next: usize,
    round: Vec<usize>,
}

impl Sequence {
    fn new(seed: u64, len: usize) -> Self {
        Self {
            seed,
            len,
            next: 0,
            round: Vec::new(),
        }
    }

    fn at_round_start(&self) -> bool {
        self.next.is_multiple_of(self.len)
    }

    fn rounds(&self) -> u64 {
        (self.next / self.len) as u64
    }

    fn pop(&mut self) -> usize {
        if self.at_round_start() {
            self.round = round_order(self.seed, self.rounds(), self.len);
        }
        let request = self.round[self.next % self.len];
        self.next += 1;
        request
    }
}

/// Service-side timings of each served request.
#[derive(Default)]
struct ServiceTimes {
    /// Submit to the start of the first pass.
    queue_wait_s: Vec<f64>,
    /// Start of the first pass to completion.
    in_service_s: Vec<f64>,
}

/// A service configured as `serve_suite` serves.
fn suite_service<'d>(
    device: &'d Device,
    model: Option<&'d dyn LatencyModel>,
) -> CompileService<'d> {
    let service = match model {
        Some(model) => CompileService::with_model(device, Box::new(model)),
        None => CompileService::new(device),
    };
    service.with_threads(SERVE_IN_FLIGHT).with_compile_cache(0)
}

/// The closed serving loop: [`SERVE_IN_FLIGHT`] requests in flight in one
/// session, `rounds` rounds of the mix, driven from one thread. Every
/// request carries a progress channel; the client blocks on it, so each
/// request is timed from its submit to its own completion without polling,
/// and its first `PassProgress` minus that pass's wall time dates the start
/// of service.
fn serve_loop(
    setup: &SuiteSetup,
    service: &CompileService<'_>,
    seed: u64,
    rounds: u64,
    tally: &mut Tally,
) -> ServiceTimes {
    let serve = ServeConfig {
        workers: SERVE_IN_FLIGHT,
        ..ServeConfig::default()
    };
    let options: Vec<CompilerOptions> = setup
        .requests
        .iter()
        .map(|&(_, s)| CompilerOptions::strategy(s))
        .collect();
    let last_pass: Vec<&'static str> = options
        .iter()
        .map(|o| {
            *o.strategy
                .pipeline()
                .pass_names()
                .last()
                .expect("recipes are non-empty")
        })
        .collect();
    // Far more room than the events of the requests in flight, so the
    // program never drops one (it drops rather than block a full channel).
    let (progress_tx, progress_rx) = threadpool::mpmc::bounded(1024);
    let mut times = ServiceTimes::default();
    let mut seq = Sequence::new(seed, setup.requests.len());
    let start = Instant::now();
    service.serve(serve, |handle| {
        // ticket -> (request, submitted, first pass start)
        let mut in_flight: HashMap<Ticket, (usize, Instant, Option<Instant>)> = HashMap::new();
        loop {
            while in_flight.len() < SERVE_IN_FLIGHT && seq.rounds() < rounds {
                let request = seq.pop();
                let (c, _) = setup.requests[request];
                let submitted = Instant::now();
                let submit = SubmitOptions::default().progress(progress_tx.clone());
                match handle.submit(&setup.circuits[c], &options[request], submit) {
                    Ok(ticket) => {
                        in_flight.insert(ticket, (request, submitted, None));
                    }
                    Err(e) => setup.book(tally, request, Err(e)),
                }
            }
            if in_flight.is_empty() {
                break;
            }
            let event = progress_rx.recv().expect("the progress sender is alive");
            let now = Instant::now();
            let Some(entry) = in_flight.get_mut(&event.ticket) else {
                continue;
            };
            let first_start = *entry
                .2
                .get_or_insert_with(|| now.checked_sub(event.report.wall_time).unwrap_or(now));
            let (request, submitted, _) = *entry;
            if event.report.pass == last_pass[request] {
                in_flight.remove(&event.ticket);
                let result = handle.wait(event.ticket);
                let done = Instant::now();
                tally.sample(request, (done - submitted).as_secs_f64(), start, 1);
                times.queue_wait_s.push(
                    first_start
                        .saturating_duration_since(submitted)
                        .as_secs_f64(),
                );
                times.in_service_s.push((done - first_start).as_secs_f64());
                setup.book(tally, request, result);
            }
        }
    });
    times
}

fn serve_suite(config: &RunConfig) -> Report {
    let (setup, setup_s) = repeated_setup(suite_setup);
    let service = suite_service(&setup.device, None);
    let mut tally = Tally::default();
    let rounds = rounds_for(config.seconds, SERVE_ROUND_S, MIN_ROUNDS);
    serve_loop(&setup, &service, config.seed, rounds, &mut tally);
    let mut report = Report::default();
    setup.check(&mut tally, config.seed, &mut report);
    tally.end_to_end(
        Robust::Repeats {
            window: setup.requests.len(),
        },
        setup_s,
        &mut report,
    );
    report
}

fn serve_suite_traced(config: &RunConfig) -> Report {
    let (setup, _) = repeated_setup(suite_setup);
    let mut untraced = Tally::default();
    let rounds = rounds_for(config.seconds / 2.0, SERVE_ROUND_S, MIN_TRACED_ROUNDS);
    serve_loop(
        &setup,
        &suite_service(&setup.device, None),
        config.seed,
        rounds,
        &mut untraced,
    );

    let recorder = Recorder::default();
    let calibrated = CalibratedLatencyModel::new(setup.device.limits);
    let traced = TracingModel::new(&calibrated, &recorder);
    let mut layers = Layers::default();
    let mut tally = Tally {
        first: untraced.first.clone(),
        ..Tally::default()
    };
    let times = serve_loop(
        &setup,
        &suite_service(&setup.device, Some(&traced)),
        config.seed,
        rounds,
        &mut tally,
    );
    layers.queue_wait_s = times.queue_wait_s;
    layers.in_service_s = times.in_service_s;
    layers.pricing = traced.totals();
    layers.rounds = rounds as f64;
    layers.overhead_frac = overhead(&tally.request_s, &untraced.request_s);

    // Per-pass spans: one round of the mix driven one pass at a time, with
    // the serial pricing pool each served pass gets.
    let per_pass = TracingModel::new(&calibrated, &recorder);
    for (request, &(c, strategy)) in setup.requests.iter().enumerate() {
        let state = drive_passes(
            &recorder,
            &per_pass,
            &setup.device,
            &setup.circuits[c],
            &CompilerOptions::strategy(strategy),
            ThreadPool::serial(),
            request as u64,
            &mut layers.totals,
        );
        let outcome = state
            .map_err(|e| e.to_string())
            .and_then(|s| traced_result(s, &setup.circuits[c], strategy));
        tally.record(request, &setup.label(request), setup.isa_ns[c], outcome);
    }
    // The calibrated model is uninstrumented: no GRAPE solve can happen.
    if traced.pricing_stats().is_some() {
        tally.fail("serve_suite's model reports GRAPE activity".to_string());
    }

    let check = |t: &mut Tally, r: &mut Report| setup.check(t, config.seed, r);
    traced_report(
        check,
        untraced,
        tally,
        &recorder,
        config,
        Workload::ServeSuite,
        layers,
    )
}
