//! The request executor: the one implementation of each analysis op,
//! shared by `glitch-cli` and the daemon.
//!
//! Each front end resolves its arguments (flags or protocol fields) into
//! a [`Plan`] through [`crate::params`], supplies whatever it keeps warm
//! or builds itself (the compiled kernel program, the fanout-cone index,
//! the recorded flip baseline), calls one function here and renders the
//! typed outcome through [`crate::report`]. Deterministic work counts go
//! into a [`WorkRecorder`]; the CLI dumps it under `--metrics`, the daemon
//! merges it into the registry behind its `metrics` op. Because both
//! surfaces run this code, a daemon response equals the one-shot
//! `glitch-cli ... --json` line by construction.
//!
//! Every op fails with the one-line message both front ends print:
//! [`ParamError::Run`] for a failed simulation (`simulation failed: …`),
//! [`ParamError::Usage`] for a duplicate flip.

use glitch_core::netlist::{Bus, ConeIndex, Netlist};
use glitch_core::sim::{MetricsProbe, Probe, RandomStimulus, SessionReport};
use glitch_core::verify::{CheckSuite, VerifyReport};
use glitch_core::{
    AggregateAnalysis, AggregateReport, Analysis, AnalysisConfig, CheckAnalysis, DelayKind,
    DelaySweepPoint, DeltaAnalysis, DeltaCheck, DeltaStimulus, GlitchAnalyzer, IncrementalStats,
    KernelProgram, KernelTelemetry, ShardSummary, SimBaseline,
};
use glitch_obs::{MetricsRegistry, Span, SpanLog};
use glitch_reduce::{ProgressSink, ReduceOptions, ReduceReport, Reducer};

use crate::params::{self, AppliedFlip, FlipSpec, ParamError};

/// A resolved request: the circuit and the run shape every op shares.
pub struct Plan<'a> {
    /// The parsed circuit.
    pub netlist: &'a Netlist,
    /// Cycles, seed, delay model, engine, technology, simulator options.
    pub config: AnalysisConfig,
    /// Stimulus seeds (1 = the configured seed itself).
    pub seeds: usize,
    /// Worker threads.
    pub jobs: usize,
    /// Wall-clock phase spans (`--trace-out`); `None` records none.
    pub spans: Option<&'a SpanLog>,
}

impl<'a> Plan<'a> {
    /// A plan without phase spans.
    #[must_use]
    pub fn new(netlist: &'a Netlist, config: AnalysisConfig, seeds: usize, jobs: usize) -> Self {
        Plan {
            netlist,
            config,
            seeds,
            jobs,
            spans: None,
        }
    }

    fn span(&self, name: &str) -> Option<Span<'a>> {
        self.spans.map(|log| log.span(name))
    }

    fn now_micros(&self) -> u64 {
        self.spans.map_or(0, |log| log.clock().now_micros())
    }

    /// One trace bar per shard of a reduced batch, each on its own track:
    /// it starts at `batch_start` plus the shard's queue wait and spans
    /// its session wall time.
    fn shard_spans(&self, batch_start: u64, shards: &[ShardSummary]) {
        let Some(log) = self.spans else { return };
        for (index, shard) in shards.iter().enumerate() {
            let name = if shard.label.is_empty() {
                format!("shard seed={}", shard.seed)
            } else {
                format!("shard {} seed={}", shard.label, shard.seed)
            };
            log.record(
                name,
                index as u64 + 1,
                batch_start + shard.queue_wait_micros,
                shard.wall_micros,
            );
        }
    }

    fn analyzer(&self) -> GlitchAnalyzer {
        GlitchAnalyzer::new(self.config.clone())
    }

    fn buses(&self) -> Vec<Bus> {
        params::input_buses(self.netlist)
    }

    fn seed_list(&self) -> Vec<u64> {
        params::stimulus_seeds(self.config.seed, self.seeds)
    }
}

fn failed(what: &str, error: impl std::fmt::Display) -> ParamError {
    ParamError::Run(format!("{what} failed: {error}"))
}

/// The deterministic work counts of executed ops (`sim.*`, `queue.*`,
/// `kernel.*`, `incremental.*`, `check.*`, `reduce.*`), folded in job
/// order so the registry is byte-identical at any worker count.
/// Wall-clock time never enters it.
///
/// The default recorder counts, and attaches a [`MetricsProbe`] to every
/// analyze session.
#[derive(Default)]
pub struct WorkRecorder {
    registry: MetricsRegistry,
}

impl WorkRecorder {
    /// A recorder that counts nothing and keeps runs bare: no metrics
    /// probe, no telemetry-only cone-index build.
    #[must_use]
    pub fn disabled() -> Self {
        WorkRecorder {
            registry: MetricsRegistry::disabled(),
        }
    }

    /// `true` unless built by [`WorkRecorder::disabled`].
    #[must_use]
    pub fn enabled(&self) -> bool {
        !self.registry.is_disabled()
    }

    /// The recorded counters, gauges and histograms.
    #[must_use]
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Hands the registry over for merging.
    #[must_use]
    pub fn into_registry(self) -> MetricsRegistry {
        self.registry
    }

    /// Adds `n` to the counter `name` (created on first use).
    pub fn add(&mut self, name: &str, n: u64) {
        if self.enabled() {
            let handle = self.registry.counter(name);
            self.registry.add(handle, n);
        }
    }

    /// Raises the gauge `name` to at least `value`.
    pub fn gauge_max(&mut self, name: &str, value: u64) {
        if self.enabled() {
            let handle = self.registry.gauge(name);
            self.registry.observe_max(handle, value);
        }
    }

    /// Takes the [`MetricsProbe`] out of a finished session report (if
    /// any), attributes the session's event-queue traffic to it and folds
    /// its registry in. Call once per report, in job order.
    fn absorb_session(&mut self, report: &mut SessionReport) {
        if let Some(mut probe) = report.take_probe::<MetricsProbe>() {
            probe.record_queue_stats(report.queue_stats());
            self.registry.merge(probe.into_registry());
        }
    }

    /// Cycle/event/evaluation totals and merged queue traffic of a
    /// reduced batch whose sessions carried no metrics probe.
    fn record_aggregate(&mut self, aggregate: &AggregateReport) {
        self.add("sim.cycles", aggregate.total_cycles());
        self.add("sim.events", aggregate.total_events());
        self.add("sim.cell_evals", aggregate.total_cell_evals());
        self.gauge_max("sim.max_settle_time", aggregate.max_settle_time());
        let queue = aggregate.queue_stats();
        self.add("queue.pushes", queue.pushes);
        self.add("queue.pops", queue.pops);
        self.gauge_max("queue.peak_depth", queue.peak_depth);
    }

    /// The compiled kernel's lane/cycle/pair classification and
    /// functional work.
    fn record_kernel(&mut self, kernel: &KernelTelemetry) {
        self.add("kernel.lanes", kernel.lanes as u64);
        self.add("kernel.cycles_total", kernel.total_cycles);
        self.add("kernel.cycles_quiet", kernel.quiet_cycles);
        self.add("kernel.pairs_total", kernel.total_pairs);
        self.add("kernel.pairs_quiet", kernel.quiet_pairs);
        self.add(
            "kernel.functional_transitions",
            kernel.functional_transitions,
        );
        self.add("kernel.functional_cell_evals", kernel.functional_cell_evals);
        self.gauge_max("kernel.program_ops", kernel.program_ops as u64);
        self.gauge_max("kernel.program_bytes", kernel.program_bytes as u64);
    }

    /// One incremental re-simulation: replay/re-settle split, dirty-cone
    /// peak, flipflop divergence fallbacks.
    pub fn record_incremental(&mut self, stats: &IncrementalStats) {
        self.add("incremental.replayed_cycles", stats.replayed_cycles);
        self.add("incremental.simulated_cycles", stats.simulated_cycles);
        self.add("incremental.cells_evaluated", stats.cells_evaluated);
        self.add(
            "incremental.dff_divergence_reseeds",
            stats.dff_divergence_reseeds,
        );
        self.gauge_max(
            "incremental.peak_dirty_cone_nets",
            stats.peak_dirty_cone_nets,
        );
    }

    /// The violation counters of a verdict report.
    fn record_check(&mut self, report: &VerifyReport) {
        self.add("check.violations_total", report.total_violations());
        self.add("check.violations_retained", report.retained_violations());
        self.add("check.violations_dropped", report.dropped_violations());
        for outcome in report.outcomes() {
            self.add(
                &format!("check.{}.violations", outcome.checker),
                outcome.total_violations,
            );
        }
    }

    /// The descent accounting of a reduction.
    fn record_reduce(&mut self, report: &ReduceReport) {
        self.add("reduce.iterations", report.iterations as u64);
        self.add("reduce.proposed", report.proposed as u64);
        self.add("reduce.screened", report.screened as u64);
        self.add("reduce.confirmed", report.confirmed as u64);
        self.add("reduce.accepted", report.moves.len() as u64);
    }
}

/// Probes a caller rides on an analyze run (the CLI's `--vcd`,
/// `--wave-csv` and `--window` artefacts): attached to every simulated
/// session, and handed back before the session is classified.
pub trait ExtraProbes: Sync {
    /// Fresh probes for one session.
    fn probes(&self) -> Vec<Box<dyn Probe>>;

    /// Takes this caller's probes out of a finished session; called once
    /// per session, in seed order.
    fn harvest(&mut self, report: &mut SessionReport);
}

/// No extra probes.
impl ExtraProbes for () {
    fn probes(&self) -> Vec<Box<dyn Probe>> {
        Vec::new()
    }

    fn harvest(&mut self, _report: &mut SessionReport) {}
}

/// The caller's probes plus, when recording, a [`MetricsProbe`].
fn probes_with_metrics(
    extra: &dyn ExtraProbes,
    metrics: bool,
) -> impl Fn(usize) -> Vec<Box<dyn Probe>> + Sync + '_ {
    move |_| {
        let mut probes = extra.probes();
        if metrics {
            probes.push(Box::new(MetricsProbe::new()));
        }
        probes
    }
}

/// A classified single-seed run and its session totals.
pub struct SingleRun {
    /// Activity and power.
    pub analysis: Analysis,
    /// Simulation passes.
    pub passes: u64,
    /// Simulator events.
    pub events: u64,
    /// Worst settle time.
    pub max_settle: u64,
    /// Combinational cell evaluations.
    pub cell_evals: u64,
}

/// Runs `seeds` through the one engine dispatch,
/// [`GlitchAnalyzer::analyze_seeds`], with the caller's probes (plus a
/// metrics probe when recording) on every session, and records the
/// kernel telemetry. `program` is compiled there when the engine needs
/// one and none is given.
fn simulate(
    plan: &Plan<'_>,
    seeds: &[u64],
    program: Option<&KernelProgram>,
    extra: &dyn ExtraProbes,
    work: &mut WorkRecorder,
) -> Result<(AggregateAnalysis, Vec<SessionReport>), ParamError> {
    let factory = probes_with_metrics(extra, work.enabled());
    let (aggregate, reports) = {
        let _span = plan.span("simulate");
        plan.analyzer()
            .analyze_seeds(
                plan.netlist,
                &plan.buses(),
                &[],
                seeds,
                plan.jobs,
                &factory,
                program,
            )
            .map_err(|e| failed("simulation", e))?
    };
    if let Some(kernel) = &aggregate.kernel {
        work.record_kernel(kernel);
    }
    Ok((aggregate, reports))
}

/// Hands every finished session to the caller's probes and to the
/// recorder — in seed order, the `--jobs`-invariance discipline.
fn harvest(reports: &mut [SessionReport], extra: &mut dyn ExtraProbes, work: &mut WorkRecorder) {
    for report in reports {
        extra.harvest(report);
        work.absorb_session(report);
    }
}

/// Single-seed `analyze`: one session, one simulation pass — the
/// one-seed batch of [`analyze_seeds`] under any engine (a lone shard
/// keeps its own run-end power report).
pub fn analyze(
    plan: &Plan<'_>,
    program: Option<&KernelProgram>,
    extra: &mut dyn ExtraProbes,
    work: &mut WorkRecorder,
) -> Result<SingleRun, ParamError> {
    let (aggregate, mut reports) = simulate(plan, &[plan.config.seed], program, &*extra, work)?;
    harvest(&mut reports, extra, work);
    let report = &reports[0];
    Ok(SingleRun {
        passes: report.passes(),
        events: report.total_events(),
        max_settle: report.max_settle_time(),
        cell_evals: report.total_cell_evals(),
        analysis: Analysis {
            trace: aggregate.trace().clone(),
            cycles: report.cycles(),
            activity: aggregate.activity,
            power: aggregate.power,
        },
    })
}

/// Multi-seed `analyze`: one session per seed fanned across the worker
/// pool and reduced into an aggregate with per-seed spread.
pub fn analyze_seeds(
    plan: &Plan<'_>,
    program: Option<&KernelProgram>,
    extra: &mut dyn ExtraProbes,
    work: &mut WorkRecorder,
) -> Result<AggregateAnalysis, ParamError> {
    let batch_start = plan.now_micros();
    let (aggregate, mut reports) = simulate(plan, &plan.seed_list(), program, &*extra, work)?;
    plan.shard_spans(batch_start, aggregate.aggregate.shards());
    let _span = plan.span("merge");
    harvest(&mut reports, extra, work);
    Ok(aggregate)
}

/// Why a stored flip baseline cannot serve `plan`, as a one-line
/// message, or `None` when it matches the netlist (structural
/// fingerprint included), cycle count, delay model, simulator options
/// and — regenerated and compared cycle for cycle, since baselines do not
/// store their seed — the configured stimulus.
#[must_use]
pub fn baseline_mismatch(plan: &Plan<'_>, baseline: &SimBaseline) -> Option<String> {
    let (netlist, config) = (plan.netlist, &plan.config);
    if !baseline.matches_netlist(netlist) {
        return Some(format!(
            "baseline was recorded on `{}`, which does not match `{}` structurally \
             (the circuit may have been edited since); delete the file to re-record",
            baseline.netlist_name(),
            netlist.name()
        ));
    }
    if baseline.cycle_count() != config.cycles {
        return Some(format!(
            "baseline records {} cycles but --cycles is {}",
            baseline.cycle_count(),
            config.cycles
        ));
    }
    if baseline.delay() != &config.delay {
        return Some(
            "baseline was recorded under a different delay model; re-record or match --delay"
                .into(),
        );
    }
    if baseline.options() != config.options {
        return Some(
            "baseline was recorded under different simulator options; re-record or match them"
                .into(),
        );
    }
    let mut regenerated = RandomStimulus::new(plan.buses(), config.cycles, config.seed);
    (0..baseline.cycle_count())
        .find(|&cycle| regenerated.next().as_ref() != Some(baseline.assignment(cycle)))
        .map(|cycle| {
            format!(
                "baseline was recorded under a different stimulus (cycle {cycle} differs \
                 — --seed mismatch?); re-record or match --seed"
            )
        })
}

/// Records the configured single-seed run as a replayable flip baseline,
/// with its "before" analysis.
pub fn record_baseline(plan: &Plan<'_>) -> Result<(Analysis, SimBaseline), ParamError> {
    let netlist = plan.netlist;
    let _span = plan.span("simulate");
    plan.analyzer()
        .analyze_baseline(netlist, &plan.buses(), &[])
        .map_err(|e| failed("simulation", e))
}

/// Recovers a stored baseline's "before" analysis by replaying it
/// through fresh probes: O(transitions), zero cell evaluations.
pub fn replay_baseline(plan: &Plan<'_>, baseline: &SimBaseline) -> Result<Analysis, ParamError> {
    plan.analyzer()
        .analyze_delta_with_index(plan.netlist, baseline, &DeltaStimulus::new(), None)
        .map(|delta| delta.analysis)
        .map_err(|e| failed("baseline replay", e))
}

/// A flipped re-analysis.
pub struct FlipRun {
    /// The flips as driven: `(net, cycle, value)`.
    pub applied: Vec<AppliedFlip>,
    /// The "after" analysis and its incremental accounting.
    pub after: DeltaAnalysis,
}

/// `flip`: incrementally re-simulates `baseline` with `flips` applied,
/// bit-identical to a full rerun. `index` is the caller's shared
/// fanout-cone index, if it keeps one (the session builds its own
/// otherwise).
pub fn flip(
    plan: &Plan<'_>,
    baseline: &SimBaseline,
    flips: &[FlipSpec],
    index: Option<&ConeIndex>,
    work: &mut WorkRecorder,
) -> Result<FlipRun, ParamError> {
    let (delta, applied) = params::flips_to_delta(flips, baseline)?;
    let after = {
        let _span = plan.span("incremental");
        plan.analyzer()
            .analyze_delta_with_index(plan.netlist, baseline, &delta, index)
            .map_err(|e| failed("incremental simulation", e))?
    };
    work.record_incremental(&after.incremental);
    Ok(FlipRun { applied, after })
}

/// Multi-seed `check`: the suite rides every seed, and the per-seed
/// checkers fold in seed order (verdicts are `--jobs`-invariant).
pub fn check(
    plan: &Plan<'_>,
    suite: &CheckSuite,
    program: Option<&KernelProgram>,
    work: &mut WorkRecorder,
) -> Result<CheckAnalysis, ParamError> {
    let netlist = plan.netlist;
    let batch_start = plan.now_micros();
    let checked = {
        let _span = plan.span("simulate");
        plan.analyzer()
            .check_seeds_compiled(
                netlist,
                &plan.buses(),
                &[],
                suite,
                &plan.seed_list(),
                plan.jobs,
                program,
            )
            .map_err(|e| failed("simulation", e))?
    };
    plan.shard_spans(batch_start, checked.analysis.aggregate.shards());
    if let Some(kernel) = &checked.analysis.kernel {
        work.record_kernel(kernel);
    }
    let _span = plan.span("merge");
    work.record_aggregate(&checked.analysis.aggregate);
    work.record_check(&checked.report);
    if let Some(log) = plan.spans {
        let mut cursor = log.clock().now_micros();
        for (name, micros) in &checked.checker_micros {
            log.record(format!("checker:{name}"), 0, cursor, *micros);
            cursor += micros;
        }
    }
    Ok(checked)
}

/// A flipped re-check: both verdicts of the pair.
pub struct CheckFlipRun {
    /// Cycles in the recorded baseline.
    pub cycles: u64,
    /// The flips as driven: `(net, cycle, value)`.
    pub applied: Vec<AppliedFlip>,
    /// The verdict of the unflipped run.
    pub base_report: VerifyReport,
    /// The flipped verdict and its incremental accounting.
    pub flipped: DeltaCheck,
}

/// `check` with flips: checks the recorded baseline, then re-checks it
/// incrementally with `flips` applied (bit-identical to a full re-run).
pub fn check_flip(
    plan: &Plan<'_>,
    suite: &CheckSuite,
    flips: &[FlipSpec],
    work: &mut WorkRecorder,
) -> Result<CheckFlipRun, ParamError> {
    let netlist = plan.netlist;
    let analyzer = plan.analyzer();
    let (base_report, _, baseline) = {
        let _span = plan.span("simulate");
        analyzer
            .check_baseline(netlist, &plan.buses(), &[], suite)
            .map_err(|e| failed("simulation", e))?
    };
    let (delta, applied) = params::flips_to_delta(flips, &baseline)?;
    let flipped = {
        let _span = plan.span("incremental");
        analyzer
            .check_delta(netlist, &baseline, &delta, suite)
            .map_err(|e| failed("incremental simulation", e))?
    };
    work.record_incremental(&flipped.incremental);
    work.record_check(&flipped.report);
    Ok(CheckFlipRun {
        cycles: baseline.cycle_count(),
        applied,
        base_report,
        flipped,
    })
}

/// The delay-model `sweep`: every `(model, seed)` pair is one parallel
/// job; one aggregate per model, in `models` order.
pub fn sweep(
    plan: &Plan<'_>,
    models: &[(String, DelayKind)],
    program: Option<&KernelProgram>,
    work: &mut WorkRecorder,
) -> Result<Vec<DelaySweepPoint>, ParamError> {
    let netlist = plan.netlist;
    let batch_start = plan.now_micros();
    let points = {
        let _span = plan.span("simulate");
        plan.analyzer()
            .sweep_delays(
                netlist,
                &plan.buses(),
                &[],
                models,
                &plan.seed_list(),
                plan.jobs,
                program,
            )
            .map_err(|e| failed("simulation", e))?
    };
    let _span = plan.span("merge");
    // One prepass serves the whole sweep; record its classification once
    // (every point carries the same copy).
    if let Some(kernel) = points.first().and_then(|p| p.analysis.kernel.as_ref()) {
        work.record_kernel(kernel);
    }
    for point in &points {
        work.record_aggregate(&point.analysis.aggregate);
        plan.shard_spans(batch_start, point.analysis.aggregate.shards());
    }
    Ok(points)
}

/// `reduce`: the greedy glitch-power descent and the final equivalence
/// verification. `progress` observes each iteration without changing the
/// report.
pub fn reduce(
    plan: &Plan<'_>,
    options: ReduceOptions,
    progress: &mut dyn ProgressSink,
    work: &mut WorkRecorder,
) -> Result<ReduceReport, ParamError> {
    let netlist = plan.netlist;
    let session = glitch_core::ReduceSession::new(plan.config.clone(), plan.seed_list(), plan.jobs);
    let report = {
        let _span = plan.span("reduce");
        Reducer::new(session, options)
            .run_with_progress(netlist, &plan.buses(), &[], progress)
            .map_err(|e| failed("reduction", e))?
    };
    work.record_reduce(&report);
    Ok(report)
}
