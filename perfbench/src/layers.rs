//! The traced run's calls into each layer of the workspace.
//!
//! Every function here does the work the program does for one step of a
//! workload, through the same public entry points the CLI and the daemon
//! use, wrapped in a [`Tracer`] span named after the layer. The traced
//! run replays a workload through these functions and checks that the
//! replay renders byte-identical reports, so the attribution describes
//! the work the program really does. This file is the only one that
//! names crate internals below the CLI and protocol surfaces.

use glitch_activity::ActivityReport;
use glitch_core::netlist::{Bus, ConeIndex, NetId, Netlist};
use glitch_core::power::estimate_power_from_counts;
use glitch_core::retime::NetMap;
use glitch_core::sim::{
    kernel_prepass, AggregateReport, MergeableProbe, MetricsProbe, ParallelRunner, Probe,
    SessionReport, SimJob, SimOptions,
};
use glitch_core::verify::{EquivalenceChecker, HazardProbe};
use glitch_core::{
    AggregateAnalysis, AnalysisConfig, EngineKind, GlitchAnalyzer, KernelProgram, KernelTelemetry,
    ReduceScore, ReduceSession,
};
use glitch_reduce::{
    generate_candidates, screen_candidate, AcceptedMove, Candidate, ReduceOptions, ReduceReport,
    Reducer,
};
use glitch_serve::params;
use glitch_serve::report;

use crate::circuits;
use crate::trace::Tracer;

/// Per-probe factory type of the sharded runner.
pub type ProbeFactory<'a> = &'a (dyn Fn(usize) -> Vec<Box<dyn Probe>> + Sync);

/// The CLI's analysis configuration for `--cycles`/`--seed` with every
/// other flag at its default.
pub fn cli_config(cycles: u64, seed: u64) -> Result<AnalysisConfig, String> {
    let library = params::library_for_tech(None).map_err(|e| e.to_string())?;
    params::analysis_config(&library, Some(cycles), Some(seed), None, None, None)
        .map_err(|e| e.to_string())
}

/// `glitch_io`: reads and parses a netlist file.
pub fn parse(tracer: &Tracer, path: &str) -> Result<Netlist, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    tracer.span("io.parse", || circuits::parse_text(&text))
}

/// `glitch_netlist`: builds the fanout-cone index.
pub fn cone_index(tracer: &Tracer, netlist: &Netlist) -> Result<ConeIndex, String> {
    tracer
        .span("netlist.cone_index", || ConeIndex::build(netlist))
        .map_err(|e| e.to_string())
}

/// `glitch_kernel`: compiles the bit-parallel program.
pub fn compile(tracer: &Tracer, netlist: &Netlist) -> Result<KernelProgram, String> {
    tracer
        .span("kernel.compile", || KernelProgram::compile(netlist))
        .map_err(|e| e.to_string())
}

fn job<'a>(
    netlist: &'a Netlist,
    config: &AnalysisConfig,
    buses: &[Bus],
    held: &[(NetId, bool)],
    seed: u64,
) -> SimJob<'a> {
    SimJob::new(netlist, buses.to_vec(), config.cycles, seed)
        .with_delay(config.delay.clone())
        .with_held(held.to_vec())
        .with_power(config.technology, config.frequency)
        .with_options(config.options)
}

fn count_reports(tracer: &Tracer, reports: &[SessionReport]) {
    for report in reports {
        tracer.count("sim.cycles", report.cycles());
        tracer.count("sim.events", report.total_events());
        tracer.count("sim.cell_evals", report.total_cell_evals());
        tracer.count_max("sim.queue_peak_depth", report.queue_stats().peak_depth);
    }
}

/// `glitch_sim` settle and merge, then `glitch_core` classification: the
/// event-queue multi-seed pass behind `analyze --seeds N` (queue engine).
#[allow(clippy::too_many_arguments)]
pub fn analyze_seeds(
    tracer: &Tracer,
    netlist: &Netlist,
    config: &AnalysisConfig,
    buses: &[Bus],
    held: &[(NetId, bool)],
    seeds: &[u64],
    jobs: usize,
    probes: ProbeFactory<'_>,
) -> Result<(AggregateAnalysis, Vec<SessionReport>), String> {
    let job_list: Vec<SimJob<'_>> = seeds
        .iter()
        .map(|&seed| job(netlist, config, buses, held, seed))
        .collect();
    let mut reports = tracer
        .span("sim.settle", || {
            ParallelRunner::new(jobs).run_sessions_with(&job_list, probes)
        })
        .map_err(|e| format!("simulation failed: {e}"))?;
    count_reports(tracer, &reports);
    let aggregate = tracer.span("sim.merge", || {
        AggregateReport::reduce(netlist, &job_list, &mut reports)
    });
    let analysis = tracer.span("core", || AggregateAnalysis {
        activity: ActivityReport::from_trace(netlist, aggregate.merged_trace()),
        power: aggregate.merged_power().clone(),
        seeds: seeds.to_vec(),
        aggregate,
        kernel: None,
    });
    Ok((analysis, reports))
}

/// The whole `glitch-cli analyze FILE --json --seeds N --jobs J` pass
/// (queue engine), rendered through the shared report code.
pub fn analyze_aggregate_json(
    tracer: &Tracer,
    file: &str,
    netlist: &Netlist,
    config: &AnalysisConfig,
    seeds: usize,
    jobs: usize,
) -> Result<String, String> {
    let seed_list = params::stimulus_seeds(config.seed, seeds);
    let buses = params::input_buses(netlist);
    let (analysis, _) = analyze_seeds(
        tracer,
        netlist,
        config,
        &buses,
        &[],
        &seed_list,
        jobs,
        &|_| Vec::new(),
    )?;
    Ok(tracer.span("report.render", || {
        report::analyze_aggregate_json(file, netlist, seeds, jobs, config.cycles, &analysis, None)
    }))
}

fn record_kernel(tracer: &Tracer, kernel: &KernelTelemetry) {
    tracer.count("kernel.cell_evals", kernel.functional_cell_evals);
    tracer.count("kernel.cycles_total", kernel.total_cycles);
    tracer.count("kernel.cycles_quiet", kernel.quiet_cycles);
}

/// The daemon's default single-seed `analyze` (hybrid engine): a kernel
/// prepass marks quiet cycles, the queue settles the rest.
pub fn analyze_hybrid_json(
    tracer: &Tracer,
    file: &str,
    netlist: &Netlist,
    program: &KernelProgram,
    config: &AnalysisConfig,
) -> Result<String, String> {
    let buses = params::input_buses(netlist);
    let sim_job = job(netlist, config, &buses, &[], config.seed);
    let prepass = tracer
        .span("kernel.eval", || {
            kernel_prepass(netlist, program, std::slice::from_ref(&sim_job))
        })
        .map_err(|e| format!("kernel prepass failed: {e}"))?;
    let kernel = KernelTelemetry::from_prepass(netlist, program, &prepass)
        .map_err(|e| format!("kernel prepass failed: {e}"))?;
    record_kernel(tracer, &kernel);
    let analyzer = GlitchAnalyzer::new(config.clone());
    let session = analyzer
        .session(netlist, &buses, &[])
        .probe(MetricsProbe::new())
        .quiet_cycles(prepass.quiet_cycles(0));
    let report = tracer
        .span("sim.settle", || session.run())
        .map_err(|e| format!("simulation failed: {e}"))?;
    count_reports(tracer, std::slice::from_ref(&report));
    let (passes, events, settle, evals) = (
        report.passes(),
        report.total_events(),
        report.max_settle_time(),
        report.total_cell_evals(),
    );
    let analysis = tracer.span("core", || GlitchAnalyzer::analysis(netlist, report));
    Ok(tracer.span("report.render", || {
        report::analyze_json(
            file, netlist, &analysis, passes, events, settle, evals, None,
        )
    }))
}

/// A recorded flip baseline: the "before" analysis and its replay log.
pub struct Baseline {
    before: glitch_core::Analysis,
    baseline: glitch_core::SimBaseline,
}

/// The cold half of a daemon `flip`: the recording pass.
pub fn record_baseline(
    tracer: &Tracer,
    netlist: &Netlist,
    config: &AnalysisConfig,
) -> Result<Baseline, String> {
    let buses = params::input_buses(netlist);
    let (before, baseline) = tracer
        .span("sim.settle", || {
            GlitchAnalyzer::new(config.clone()).analyze_baseline(netlist, &buses, &[])
        })
        .map_err(|e| format!("simulation failed: {e}"))?;
    tracer.count("sim.cycles", config.cycles);
    Ok(Baseline { before, baseline })
}

/// The warm half of a daemon `flip`: incremental replay of a recorded
/// baseline through the cached cone index.
pub fn flip_json(
    tracer: &Tracer,
    file: &str,
    netlist: &Netlist,
    index: &ConeIndex,
    config: &AnalysisConfig,
    recorded: &Baseline,
    spec: &str,
) -> Result<String, String> {
    let flips = params::parse_flips(spec, netlist).map_err(|e| e.to_string())?;
    let (delta, applied) =
        params::flips_to_delta(&flips, &recorded.baseline).map_err(|e| e.to_string())?;
    let after = tracer
        .span("incremental", || {
            GlitchAnalyzer::new(config.clone()).analyze_delta_with_index(
                netlist,
                &recorded.baseline,
                &delta,
                Some(index),
            )
        })
        .map_err(|e| format!("incremental simulation failed: {e}"))?;
    tracer.count(
        "incremental.replayed_cycles",
        after.incremental.replayed_cycles,
    );
    tracer.count(
        "incremental.simulated_cycles",
        after.incremental.simulated_cycles,
    );
    tracer.count(
        "incremental.cells_evaluated",
        after.incremental.cells_evaluated,
    );
    Ok(tracer.span("report.render", || {
        report::analyze_flip_json(
            file,
            netlist,
            recorded.baseline.cycle_count(),
            &applied,
            &after.incremental,
            &recorded.before,
            &after.analysis,
        )
    }))
}

/// The daemon's default `check` with `x_init` and `hazards` (hybrid
/// engine, one seed).
pub fn check_json(
    tracer: &Tracer,
    file: &str,
    netlist: &Netlist,
    program: &KernelProgram,
    config: &AnalysisConfig,
) -> Result<String, String> {
    let mut config = config.clone();
    config.options = SimOptions::x_init();
    config.engine = EngineKind::Hybrid;
    let suite =
        params::build_check_suite(netlist, None, None, true, None).map_err(|e| e.to_string())?;
    let buses = params::input_buses(netlist);
    let seeds = params::stimulus_seeds(config.seed, 1);
    let checked = tracer
        .span("verify.check", || {
            GlitchAnalyzer::new(config.clone()).check_seeds_compiled(
                netlist,
                &buses,
                &[],
                &suite,
                &seeds,
                1,
                Some(program),
            )
        })
        .map_err(|e| format!("simulation failed: {e}"))?;
    if let Some(kernel) = &checked.analysis.kernel {
        record_kernel(tracer, kernel);
    }
    let aggregate = &checked.analysis.aggregate;
    tracer.count("sim.cycles", aggregate.total_cycles());
    tracer.count("sim.events", aggregate.total_events());
    tracer.count("sim.cell_evals", aggregate.total_cell_evals());
    Ok(tracer.span("report.render", || {
        report::check_json(file, netlist, config.cycles, 1, 1, true, &checked)
    }))
}

/// `glitch_core` scoring as `ReduceSession::score` does it: one
/// multi-seed pass with a hazard probe, priced in glitch power.
fn score(
    tracer: &Tracer,
    netlist: &Netlist,
    config: &AnalysisConfig,
    buses: &[Bus],
    held: &[(NetId, bool)],
    seeds: &[u64],
    jobs: usize,
) -> Result<ReduceScore, String> {
    tracer.span("reduce.score", || {
        let factory = |_seed: usize| -> Vec<Box<dyn Probe>> { vec![Box::new(HazardProbe::new())] };
        let (analysis, mut reports) =
            analyze_seeds(tracer, netlist, config, buses, held, seeds, jobs, &factory)?;
        Ok(tracer.span("core", || {
            let mut merged = HazardProbe::new();
            for report in &mut reports {
                let probe = report
                    .take_probe::<HazardProbe>()
                    .expect("the factory attached a hazard probe to every seed");
                merged.merge(probe);
            }
            let trace = analysis.trace();
            let useless: Vec<u64> = (0..netlist.net_count())
                .map(|index| trace.node(index).useless())
                .collect();
            let glitch_power = estimate_power_from_counts(
                netlist,
                &useless,
                trace.cycles(),
                &config.technology,
                config.frequency,
            )
            .breakdown
            .logic;
            let total_power = analysis.power.breakdown.total();
            ReduceScore {
                analysis,
                hazards: merged.per_net().to_vec(),
                glitch_power,
                total_power,
            }
        }))
    })
}

/// The `glitch-cli reduce FILE --json` descent, step for step as
/// `glitch_reduce::Reducer` runs it, rendered through the shared report
/// code.
pub fn reduce_json(
    tracer: &Tracer,
    file: &str,
    netlist: &Netlist,
    config: &AnalysisConfig,
    seeds: usize,
    jobs: usize,
    max_iters: usize,
) -> Result<String, String> {
    let seed_list = params::stimulus_seeds(config.seed, seeds);
    let options = ReduceOptions {
        max_iters,
        ..ReduceOptions::default()
    };
    let backend = Reducer::new(
        ReduceSession::new(config.clone(), seed_list.clone(), jobs),
        options.clone(),
    )
    .screen_backend();
    let original_buses = params::input_buses(netlist);
    let baseline = score(
        tracer,
        netlist,
        config,
        &original_buses,
        &[],
        &seed_list,
        jobs,
    )?;
    let mut current = netlist.clone();
    let mut map = NetMap::identity(netlist);
    let mut buses = original_buses;
    let mut current_score = baseline.clone();
    let mut glitch_history = vec![baseline.glitch_power];
    let mut moves: Vec<AcceptedMove> = Vec::new();
    let (mut proposed, mut screened, mut confirmed, mut iterations) = (0, 0, 0, 0);
    while moves.len() < options.max_iters {
        iterations += 1;
        let step = tracer.span("reduce.iter", || -> Result<_, String> {
            let candidates = tracer.span("reduce.candidates", || {
                generate_candidates(
                    &current,
                    &current_score,
                    &options.moves,
                    options.per_kind,
                    options.pipeline,
                )
            });
            proposed += candidates.len();
            if candidates.is_empty() {
                return Ok(None);
            }
            let mut survivors: Vec<Candidate> = Vec::new();
            for candidate in candidates {
                let outcome = tracer
                    .span("reduce.screen", || {
                        screen_candidate(
                            &current,
                            &candidate.rewrite,
                            backend,
                            options.screen_cycles,
                            options.screen_lanes,
                            config.seed ^ iterations as u64,
                        )
                    })
                    .map_err(|e| e.to_string())?;
                if outcome.accepted {
                    survivors.push(candidate);
                }
            }
            screened += survivors.len();
            let mut best: Option<(Candidate, ReduceScore, Vec<Bus>)> = None;
            for candidate in survivors {
                let next_buses: Vec<Bus> = buses
                    .iter()
                    .map(|bus| {
                        Bus::new(
                            bus.iter()
                                .map(|&net| candidate.rewrite.map.new_net(net))
                                .collect(),
                        )
                    })
                    .collect();
                let next = score(
                    tracer,
                    &candidate.rewrite.netlist,
                    config,
                    &next_buses,
                    &[],
                    &seed_list,
                    jobs,
                )?;
                confirmed += 1;
                let improves = next.glitch_power < current_score.glitch_power;
                let beats_best = best
                    .as_ref()
                    .is_none_or(|(_, s, _)| next.glitch_power < s.glitch_power);
                if improves && beats_best {
                    best = Some((candidate, next, next_buses));
                }
            }
            Ok(best)
        })?;
        let Some((winner, winner_score, winner_buses)) = step else {
            break;
        };
        moves.push(AcceptedMove {
            iteration: iterations,
            kind: winner.kind,
            description: winner.rewrite.description.clone(),
            glitch_power_before: current_score.glitch_power,
            glitch_power_after: winner_score.glitch_power,
            latency_added: winner.rewrite.map.latency(),
        });
        map = map.compose(&winner.rewrite.map);
        current = winner.rewrite.netlist;
        buses = winner_buses;
        current_score = winner_score;
        glitch_history.push(current_score.glitch_power);
    }
    tracer.count("reduce.proposed", proposed as u64);
    tracer.count("reduce.screened", screened as u64);
    tracer.count("reduce.confirmed", confirmed as u64);
    tracer.count("reduce.accepted", moves.len() as u64);
    let equivalence = tracer.span("verify.equivalence", || -> Result<_, String> {
        let inputs: Vec<(NetId, NetId)> = netlist
            .inputs()
            .iter()
            .map(|&net| (net, map.new_net(net)))
            .collect();
        let outputs: Vec<(NetId, NetId)> = netlist
            .outputs()
            .iter()
            .map(|&net| (net, map.output_net(net)))
            .collect();
        let checker = EquivalenceChecker::new(netlist, &current, inputs, outputs, map.latency())
            .map_err(|e| e.to_string())?;
        checker
            .verify(
                std::slice::from_ref(&config.delay),
                options.equivalence_cycles,
                config.seed,
            )
            .map_err(|e| e.to_string())
    })?;
    tracer.count("verify.equivalence_compared", equivalence.compared());
    let reduced = ReduceReport {
        circuit: netlist.name().to_string(),
        iterations,
        proposed,
        screened,
        confirmed,
        moves,
        initial_glitch_power: baseline.glitch_power,
        final_glitch_power: current_score.glitch_power,
        initial_total_power: baseline.total_power,
        final_total_power: current_score.total_power,
        glitch_history,
        latency: map.latency(),
        equivalence,
        netlist: current,
        map,
    };
    Ok(tracer.span("report.render", || {
        report::reduce_json(file, &reduced, seeds, jobs, config.cycles)
    }))
}
