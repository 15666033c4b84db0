//! `serve-whatif`: an open loop at a fixed rate against an in-process
//! daemon (2 workers) serving mult16 and a 16-bit Wallace tree. About 70%
//! `flip`, 20% `analyze` and 10% `check` (`x_init`, `hazards`), no
//! `engine` field, over a small set of stimulus seeds with skewed reuse,
//! so the baseline cache both hits and misses. Each request is timed from
//! its due time; the generator's lateness is reported. While the loop
//! runs, idle-priority threads keep the CPUs from halting.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use glitch_serve::json::JsonObject;
use glitch_serve::jsonin::JsonValue;
use glitch_serve::protocol::Request as ProtocolRequest;
use glitch_serve::{run_server, Client, ServeConfig};

use crate::circuits::{self, Circuit, Family};
use crate::cli::{peak_rss_mb, Cli};
use crate::layers;
use crate::outcome::{Outcome, OPS_PER_WINDOW};
use crate::stats::{mean, median, percentile, share};
use crate::workload::{
    attribute, mix, nested, number, object, publish, set_up_repeatedly, stimulus_seed, Params, Rng,
};

/// The workload's name.
pub const NAME: &str = "serve-whatif";

/// Daemon worker threads and client connections.
const WORKERS: usize = 2;
const CONNECTIONS: usize = 2;
/// The CLI `serve` default cache budget.
const CACHE_BYTES: usize = 256 * 1024 * 1024;
/// Fewest requests per run: one window of the latency percentiles.
const MIN_REQUESTS: usize = OPS_PER_WINDOW;

struct Size {
    bits: usize,
    cycles: u64,
    /// Stimulus seeds (baseline keys) per circuit.
    keys: usize,
    /// Distinct flip specs per key.
    variants: usize,
    /// Requests per second of the open loop.
    rate: f64,
}

fn size(tiny: bool) -> Size {
    if tiny {
        Size {
            bits: 4,
            cycles: 40,
            keys: 2,
            variants: 2,
            rate: 200.0,
        }
    } else {
        Size {
            bits: 16,
            cycles: 32,
            keys: 8,
            variants: 8,
            rate: 200.0,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Analyze,
    Flip,
    Check,
}

/// One scheduled request: its protocol line, the equivalent one-shot
/// argv, and what the in-process replay needs.
#[derive(Debug, Clone)]
struct Request {
    op: Op,
    circuit: usize,
    key: usize,
    seed: u64,
    flips: String,
    line: String,
    argv: Vec<String>,
}

/// The key whose cumulative weight first exceeds `u` (`0 <= u < 1`),
/// with weight proportional to `1 / (k + 1)`: skewed reuse.
fn skewed_key(u: f64, keys: usize) -> usize {
    let total: f64 = (1..=keys).map(|k| 1.0 / k as f64).sum();
    let mut left = u * total;
    for k in 0..keys {
        left -= 1.0 / (k + 1) as f64;
        if left < 0.0 {
            return k;
        }
    }
    keys - 1
}

/// The mix per circuit and block of ten: 7 `flip`, 2 `analyze`, 1 `check`.
const MIX: [(Op, usize); 3] = [(Op::Flip, 7), (Op::Analyze, 2), (Op::Check, 1)];

fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// The request schedule. The mix is stratified so that every seed gets
/// the same composition: each block holds exactly the mix's counts of
/// each op on each circuit in shuffled order, and the skewed key draws
/// are stratified within the block.
fn schedule(seed: u64, circuits: &[Circuit], size: &Size, count: usize) -> Vec<Request> {
    let mut rng = Rng::new(seed);
    let mut block: Vec<(Op, usize)> = Vec::new();
    for circuit in 0..circuits.len() {
        for &(op, n) in &MIX {
            block.extend(std::iter::repeat_n((op, circuit), n));
        }
    }
    let mut plan = Vec::with_capacity(count);
    while plan.len() < count {
        let mut ops = block.clone();
        shuffle(&mut rng, &mut ops);
        let n = ops.len() as f64;
        let mut strata: Vec<f64> = (0..ops.len())
            .map(|j| (j as f64 + rng.unit()) / n)
            .collect();
        shuffle(&mut rng, &mut strata);
        plan.extend(ops.into_iter().zip(strata));
    }
    plan.truncate(count);
    plan.into_iter()
        .map(|((op, circuit), u)| {
            let key = skewed_key(u, size.keys);
            let stimulus = stimulus_seed(seed, 100 + (circuit * size.keys + key) as u64);
            let variant = 3 * rng.below(size.variants) as u64;
            let bus = if mix(stimulus, variant).is_multiple_of(2) {
                "x"
            } else {
                "y"
            };
            let flips = format!(
                "{}:{bus}[{}]",
                mix(stimulus, variant + 1) % size.cycles,
                mix(stimulus, variant + 2) % size.bits as u64
            );
            let file = circuits[circuit].file();
            let mut line = JsonObject::new()
                .str(
                    "op",
                    match op {
                        Op::Analyze => "analyze",
                        Op::Flip => "flip",
                        Op::Check => "check",
                    },
                )
                .str("file", &file)
                .u64("cycles", size.cycles)
                .u64("seed", stimulus);
            let mut argv: Vec<String> = vec![
                if op == Op::Check { "check" } else { "analyze" }.into(),
                file,
                "--json".into(),
                "--cycles".into(),
                size.cycles.to_string(),
                "--seed".into(),
                stimulus.to_string(),
            ];
            match op {
                Op::Analyze => {}
                Op::Flip => {
                    line = line.str("flips", &flips);
                    argv.extend(["--flip".to_string(), flips.clone()]);
                }
                Op::Check => {
                    line = line.bool("x_init", true).bool("hazards", true);
                    argv.extend(["--x-init".to_string(), "--hazards".into()]);
                }
            }
            Request {
                op,
                circuit,
                key,
                seed: stimulus,
                flips,
                line: line.render(),
                argv,
            }
        })
        .collect()
}

/// An in-process daemon on a loopback port.
struct Daemon {
    port: u16,
    thread: JoinHandle<Result<(), String>>,
}

fn free_port() -> Result<u16, String> {
    let listener = std::net::TcpListener::bind(("127.0.0.1", 0))
        .map_err(|e| format!("cannot bind a loopback port: {e}"))?;
    listener
        .local_addr()
        .map(|a| a.port())
        .map_err(|e| e.to_string())
}

impl Daemon {
    fn start(access_log: Option<&Path>, trace_out: Option<&Path>) -> Result<Daemon, String> {
        let port = free_port()?;
        let mut config = ServeConfig::new(port, WORKERS, CACHE_BYTES);
        config.access_log = access_log.map(|p| p.display().to_string());
        config.trace_out = trace_out.map(|p| p.display().to_string());
        let thread = std::thread::spawn(move || run_server(&config));
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let ready = Client::connect(port)
                .and_then(|mut c| c.request("{\"op\":\"ping\"}"))
                .is_ok();
            if ready {
                return Ok(Daemon { port, thread });
            }
            if thread.is_finished() || Instant::now() > deadline {
                return Err(match thread.join() {
                    Ok(Err(e)) => e,
                    _ => "daemon did not start".into(),
                });
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn request(&self, line: &str) -> Result<String, String> {
        Client::connect(self.port)?.request(line)
    }

    fn stop(self) -> Result<(), String> {
        self.request("{\"op\":\"shutdown\"}")?;
        self.thread
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
    }
}

/// Generates the circuits, starts the daemon and primes its netlist and
/// program caches (a one-cycle default-engine `analyze` per circuit).
fn set_up(
    params: &Params,
    size: &Size,
    access_log: Option<&Path>,
    trace_out: Option<&Path>,
) -> Result<(Vec<Circuit>, Daemon), String> {
    let circuits = vec![
        circuits::generate(Family::Array, size.bits, params.seed, &params.work)?,
        circuits::generate(Family::Wallace, size.bits, params.seed, &params.work)?,
    ];
    let daemon = Daemon::start(access_log, trace_out)?;
    let prime = |circuit: &Circuit| {
        let line = JsonObject::new()
            .str("op", "analyze")
            .str("file", &circuit.file())
            .u64("cycles", 1)
            .render();
        let response = daemon.request(&line)?;
        if object(&response)?.contains_key("error") {
            return Err(format!("priming failed: {response}"));
        }
        Ok(())
    };
    if let Err(e) = circuits.iter().try_for_each(prime) {
        daemon.stop().ok();
        return Err(e);
    }
    Ok((circuits, daemon))
}

/// One request's timing, relative to the loop's start.
#[derive(Debug, Clone, Default)]
struct Sample {
    due: f64,
    sent: f64,
    done: f64,
    response: String,
}

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// Moves the calling thread to `SCHED_IDLE`, the policy the kernel runs
/// only when no other thread wants the CPU. Returns whether it did.
fn set_idle_priority() -> bool {
    const SCHED_IDLE: i32 = 5;
    // SAFETY: pid 0 names the calling thread, and `param` points to a
    // live `struct sched_param` (one int) for the duration of the call.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &SchedParam { sched_priority: 0 }) == 0 }
}

/// Sets its flag when dropped, also while unwinding.
struct RaiseOnDrop<'a>(&'a AtomicBool);

impl Drop for RaiseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// Runs `f` with every CPU kept out of the idle state by one busy-waiting
/// thread per CPU at `SCHED_IDLE` priority, which yields at once to any
/// other runnable thread. On a shared virtual machine a halted virtual
/// CPU waits for the host to run it again, for as long as the host's
/// other tenants decide. Over eleven runs of the same code on a 2-core
/// one, p99 spread 0.20 of its median without these threads and 0.06
/// with them.
fn with_cpus_awake<T>(f: impl FnOnce() -> T) -> T {
    let stop = AtomicBool::new(false);
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    std::thread::scope(|scope| {
        for _ in 0..cpus {
            scope.spawn(|| {
                if set_idle_priority() {
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                }
            });
        }
        let _stop = RaiseOnDrop(&stop);
        f()
    })
}

/// Drives `requests` at `rate` over `CONNECTIONS` client connections:
/// request `i` is due at `i / rate`; a connection still busy when a
/// request falls due sends it late, and that wait counts.
fn open_loop(port: u16, requests: &[Request], rate: f64) -> Result<Vec<Sample>, String> {
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(vec![Sample::default(); requests.len()]);
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                scope.spawn(|| -> Result<(), String> {
                    let mut client = Client::connect(port)?;
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(request) = requests.get(i) else {
                            return Ok(());
                        };
                        let due = start + Duration::from_secs_f64(i as f64 / rate);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let sent = Instant::now();
                        let response = client.request(&request.line)?;
                        let done = Instant::now();
                        let at = |t: Instant| t.saturating_duration_since(start).as_secs_f64();
                        samples.lock().expect("sample lock")[i] = Sample {
                            due: at(due),
                            sent: at(sent),
                            done: at(done),
                            response,
                        };
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .try_for_each(|w| w.join().map_err(|_| "client thread panicked".to_string())?)
    })?;
    Ok(samples.into_inner().expect("sample lock"))
}

/// The oracle. Every response must be a non-error object, repeats of a
/// request must answer identically, and each distinct request's answer
/// must equal the one-shot CLI `--json` output for it. Returns, per
/// request, whether it passed, and the summed total power of the distinct
/// `analyze` answers over the CLI's.
fn check_responses(
    cli: &Cli,
    requests: &[Request],
    samples: &[Sample],
) -> Result<(Vec<bool>, f64), String> {
    let mut first: BTreeMap<&str, (&Request, &str)> = BTreeMap::new();
    let mut ok: Vec<bool> = requests
        .iter()
        .zip(samples)
        .map(|(request, sample)| {
            let valid = object(&sample.response).is_ok_and(|m| !m.contains_key("error"));
            let (_, answer) = *first
                .entry(request.line.as_str())
                .or_insert((request, sample.response.as_str()));
            valid && answer == sample.response
        })
        .collect();
    let distinct: Vec<(&Request, &str)> = first.values().copied().collect();
    let next = AtomicUsize::new(0);
    let verdicts = Mutex::new(HashMap::new());
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some((request, answer)) = distinct.get(i) else {
                    return;
                };
                let expected = cli
                    .run(&request.argv)
                    .map(|run| run.last_line().to_string());
                verdicts
                    .lock()
                    .expect("verdict lock")
                    .insert(request.line.as_str(), expected.map(|e| (e == *answer, e)));
            });
        }
    });
    let verdicts = verdicts.into_inner().expect("verdict lock");
    let (mut daemon_power, mut cli_power) = (0.0, 0.0);
    for (request, answer) in &distinct {
        match &verdicts[request.line.as_str()] {
            Ok((true, expected)) => {
                if request.op == Op::Analyze {
                    daemon_power += object(answer).map_or(0.0, |m| nested(&m, "power", "total_w"));
                    cli_power += object(expected).map_or(0.0, |m| nested(&m, "power", "total_w"));
                }
            }
            Ok((false, expected)) => {
                eprintln!("{NAME}: daemon answer differs from the one-shot CLI:\n  {answer}\n  {expected}");
                for (flag, r) in ok.iter_mut().zip(requests) {
                    *flag &= r.line != request.line;
                }
            }
            Err(e) => return Err(e.clone()),
        }
    }
    Ok((ok, share(daemon_power, cli_power)))
}

/// Runs the workload.
///
/// # Errors
///
/// Returns a message when set-up fails; failing requests are counted.
pub fn run(params: &Params) -> Result<Outcome, String> {
    // The daemon spills evicted baselines under the temporary directory;
    // keep it inside the work directory.
    let work = std::fs::canonicalize(&params.work).map_err(|e| e.to_string())?;
    std::env::set_var("TMPDIR", &work);
    let size = size(params.tiny);
    let count = MIN_REQUESTS.max((size.rate * params.seconds).ceil() as usize);
    let mut outcome = Outcome::default();
    let artefact =
        |suffix: &str| -> PathBuf { work.join(format!("{NAME}-s{}.{suffix}", params.seed)) };
    let access_log = params.trace.then(|| artefact("access.log"));
    let trace_out = params.trace.then(|| artefact("daemon-trace.json"));
    if let Some(log) = &access_log {
        std::fs::remove_file(log).ok();
    }

    let ((circuits, daemon), setup) = set_up_repeatedly(
        || set_up(params, &size, access_log.as_deref(), trace_out.as_deref()),
        |(_, daemon)| daemon.stop(),
    )?;
    for circuit in &circuits {
        println!("{{\"circuit\":{}}}", circuit.identity_json());
    }
    let requests = schedule(params.seed, &circuits, &size, count);
    let samples = with_cpus_awake(|| open_loop(daemon.port, &requests, size.rate));
    let metrics = if params.trace {
        Some(daemon.request("{\"op\":\"metrics\"}"))
    } else {
        None
    };
    daemon.stop()?;
    let samples = samples?;
    let (ok, power_ratio) = check_responses(&params.cli, &requests, &samples)?;
    for passed in &ok {
        outcome.op(*passed);
    }

    let latency: Vec<f64> = samples.iter().map(|s| s.done - s.due).collect();
    let lag: Vec<f64> = samples.iter().map(|s| (s.sent - s.due) * 1e3).collect();
    let rtt: Vec<f64> = samples.iter().map(|s| (s.done - s.sent) * 1e3).collect();
    println!(
        "{NAME}: {} requests at {} /s, {} distinct; generator lag p50 {:.3} ms, p99 {:.3} ms",
        requests.len(),
        size.rate,
        requests
            .iter()
            .map(|r| r.line.as_str())
            .collect::<std::collections::BTreeSet<_>>()
            .len(),
        median(&lag),
        percentile(&lag, 0.99)
    );

    if !params.trace {
        outcome.set_timings(&setup, &latency, size.cycles as f64);
        outcome.set("total_power_ratio", power_ratio);
        outcome.set("peak_rss_mb", peak_rss_mb(false));
        return Ok(outcome);
    }

    // Serving layers, from the daemon's own telemetry.
    let registry = object(&metrics.expect("traced runs fetch metrics")?)?;
    let hit_ratio = |cache: &str| {
        let hits = nested(&registry, "counters", &format!("cache.{cache}_hits"));
        let misses = nested(&registry, "counters", &format!("cache.{cache}_misses"));
        share(hits, hits + misses)
    };
    let log_path = access_log.expect("traced runs keep an access log");
    let log =
        std::fs::read_to_string(&log_path).map_err(|e| format!("{}: {e}", log_path.display()))?;
    let (mut queue_ms, mut handle_ms) = (Vec::new(), Vec::new());
    for line in log.lines() {
        let entry = object(line)?;
        if matches!(
            entry.get("op").and_then(JsonValue::as_str),
            Some("analyze" | "flip" | "check")
        ) {
            queue_ms.push(number(&entry, "queue_us") / 1e3);
            handle_ms.push(number(&entry, "wall_us") / 1e3);
        }
    }
    let parse_start = Instant::now();
    for request in &requests {
        ProtocolRequest::parse(&request.line)?;
    }
    let parse_us = parse_start.elapsed().as_secs_f64() * 1e6 / requests.len() as f64;

    // Compute layers, from an in-process replay of the schedule's head.
    let head = &requests[..requests.len().min(60)];
    let answers: HashMap<&str, &str> = requests
        .iter()
        .zip(&samples)
        .map(|(r, s)| (r.line.as_str(), s.response.as_str()))
        .collect();
    let mut configs = HashMap::new();
    for request in head {
        configs.insert(request.seed, layers::cli_config(size.cycles, request.seed)?);
    }
    let attribution = attribute(NAME, params.seconds / 4.0, |tracer| {
        let mut loaded = Vec::new();
        for circuit in &circuits {
            let netlist = layers::parse(tracer, &circuit.file())?;
            let index = layers::cone_index(tracer, &netlist)?;
            let program = layers::compile(tracer, &netlist)?;
            loaded.push((netlist, index, program));
        }
        let mut baselines = HashMap::new();
        let mut matched = true;
        for request in head {
            let (netlist, index, program) = &loaded[request.circuit];
            let file = circuits[request.circuit].file();
            let config = &configs[&request.seed];
            let json = match request.op {
                Op::Analyze => {
                    layers::analyze_hybrid_json(tracer, &file, netlist, program, config)?
                }
                Op::Check => layers::check_json(tracer, &file, netlist, program, config)?,
                Op::Flip => {
                    let recorded = match baselines.entry((request.circuit, request.key)) {
                        Entry::Occupied(entry) => entry.into_mut(),
                        Entry::Vacant(entry) => {
                            entry.insert(layers::record_baseline(tracer, netlist, config)?)
                        }
                    };
                    layers::flip_json(
                        tracer,
                        &file,
                        netlist,
                        index,
                        config,
                        recorded,
                        &request.flips,
                    )?
                }
            };
            matched &= answers.get(request.line.as_str()) == Some(&json.as_str());
        }
        Ok(matched)
    })?;
    publish(params, NAME, &attribution)?;
    outcome.set_layers(&attribution.table, attribution.untraced_median_us);
    outcome.set("trace.replay_match", attribution.replay_match);
    let (rtt_ms, queue, handle) = (mean(&rtt), mean(&queue_ms), mean(&handle_ms));
    outcome.set("serve.rtt_ms", rtt_ms);
    outcome.set("serve.queue_wait_ms", queue);
    outcome.set("serve.handle_ms", handle);
    outcome.set("serve.transport_ms", rtt_ms - queue - handle);
    outcome.set("serve.request_parse_us", parse_us);
    outcome.set("cache.netlist_hit_ratio", hit_ratio("netlist"));
    outcome.set("cache.baseline_hit_ratio", hit_ratio("baseline"));
    outcome.set("cache.program_hit_ratio", hit_ratio("program"));
    outcome.set(
        "cache.peak_bytes",
        nested(&registry, "gauges", "cache.peak_bytes"),
    );
    outcome.set("client.lag_ms", percentile(&lag, 0.99));
    Ok(outcome)
}
