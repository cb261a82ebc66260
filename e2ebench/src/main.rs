//! `e2ebench`: the repository's end-to-end benchmark.
//!
//! One workload per process (peak RSS only grows). Each run builds the
//! system under test from the public entry points, gates every output
//! against an oracle, and measures:
//!
//! * the operation-time path — NDJSON log bytes tailed by `PipelineRunner`
//!   into `IndexedSink` or `DistributedSink`, alerts out, checkpoints on
//!   the side, and the restart from the final checkpoint;
//! * the design-time path — model → `generate_lts_with` →
//!   `LtsIndex::build` → `analyse_users_batch` → `check_lts_batch_indexed`.
//!
//! ```text
//! e2ebench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` a separate traced run carries the per-layer metrics,
//! recorded as spans around the benchmark's own calls into each layer.
//! A JSON report (stamped with core count, commit, seed and input sizes)
//! and, when traced, every span are written under `--out`. See
//! `BENCHMARK.md` beside this package.

mod audit;
mod fixture;
mod live;
mod stats;
mod trace;

use fixture::{Fixture, SinkKind, Workload, WORKLOADS};
use live::{FleetEnv, PacedFeed, Sut};
use privacy_mde::distrib::CheckpointStore;
use privacy_mde::ingest::live::LineAssembler;
use privacy_mde::ingest::stream::{LineIngestor, LinePush};
use privacy_mde::ingest::FieldMapping;
use privacy_mde::pipeline::{PipelineCheckpoint, PipelineConfig};
use privacy_mde::runtime::{Alert, IndexedMonitor};
use stats::{json_number, json_string, median, percentile};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::AtomicUsize;
use std::time::Instant;
use trace::{span, Tracer};

struct Options {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_options() -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from(".bench_out");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                workload =
                    Some(fixture::workload(&name).ok_or(format!(
                        "unknown workload `{name}` (known: {})",
                        names.join(", ")
                    ))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                });
            }
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

/// What a run hands back for printing.
#[derive(Default)]
struct Outcome {
    metrics: Vec<Metric>,
    /// Extra report fields: `(key, JSON value)`.
    report: Vec<(String, String)>,
    attempted: u64,
    failed: u64,
    spans: Vec<(&'static str, Tracer)>,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    fn field(&mut self, key: &str, value: impl std::fmt::Display) {
        self.report.push((key.to_owned(), value.to_string()));
    }
}

fn json_list(values: &[f64]) -> String {
    format!("[{}]", values.iter().map(|v| json_number(*v)).collect::<Vec<_>>().join(", "))
}

/// Repeats `f` until `budget` seconds have passed, at least `min` and at
/// most `max` times. Returns the number of repetitions.
fn repeat_for(
    budget: f64,
    min: usize,
    max: usize,
    mut f: impl FnMut(usize) -> Result<(), String>,
) -> Result<usize, String> {
    let started = Instant::now();
    let mut reps = 0;
    while reps < max && (reps < min || started.elapsed().as_secs_f64() < budget) {
        f(reps)?;
        reps += 1;
    }
    Ok(reps)
}

/// Samples of one metric, each with the share of CPU time the hypervisor
/// stole from this machine while it was taken.
///
/// A steal episode on a shared host slows every stage at once by tens of
/// percent for seconds at a time; it is not the program's doing (steal is
/// time the VM was ready to run and was not run). [`Samples::steady`] is
/// therefore the median of the samples taken with less than
/// [`CLEAN_STEAL`] steal, as long as there are at least half of them or at
/// least five; otherwise the median of the least-stolen half. The report
/// keeps every sample and its steal, and how many were used.
#[derive(Default)]
struct Samples {
    values: Vec<f64>,
    steal: Vec<f64>,
}

/// Steal share below which a sample counts as undisturbed.
const CLEAN_STEAL: f64 = 0.01;

impl Samples {
    fn push(&mut self, value: f64, steal: f64) {
        self.values.push(value);
        self.steal.push(steal);
    }

    /// Times `f` as one sample, in seconds.
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let clock = stats::CpuClock::now();
        let started = Instant::now();
        let result = f();
        let elapsed = started.elapsed().as_secs_f64();
        self.push(elapsed, clock.steal_share());
        result
    }

    /// Indices of the samples the reported median is taken over.
    fn used(&self) -> Vec<usize> {
        let clean: Vec<usize> =
            (0..self.values.len()).filter(|&i| self.steal[i] < CLEAN_STEAL).collect();
        if clean.len() * 2 >= self.values.len() || clean.len() >= 5 {
            return clean;
        }
        let mut order: Vec<usize> = (0..self.values.len()).collect();
        order.sort_by(|&a, &b| self.steal[a].total_cmp(&self.steal[b]));
        order.truncate(self.values.len().div_ceil(2));
        order
    }

    fn steady(&self) -> f64 {
        median(&self.used().iter().map(|&i| self.values[i]).collect::<Vec<f64>>())
    }

    /// The lowest sample. Used for the tail-latency percentile, where one
    /// stolen time slice inside a rep sets that rep's p99 and steal
    /// accounting (10 ms ticks) is too coarse to tell which reps it hit.
    fn best(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// The time budget of one phase across the rounds of a run: by the end of
/// round `r` the phase may have spent `(r + 1) / rounds` of its budget, so
/// a rep that overruns one round's slice is paid back in the next.
struct Phase {
    budget: f64,
    spent: f64,
}

impl Phase {
    fn new(seconds: f64, share: f64) -> Self {
        Phase { budget: seconds * share, spent: 0.0 }
    }

    /// Runs reps of `f` in `round` (at least one in round 0), returning how
    /// many ran.
    fn run(
        &mut self,
        round: usize,
        rounds: usize,
        f: impl FnMut(usize) -> Result<(), String>,
    ) -> Result<usize, String> {
        let target = self.budget * (round + 1) as f64 / rounds as f64;
        let started = Instant::now();
        let reps = repeat_for(target - self.spent, usize::from(round == 0), 5_000, f)?;
        self.spent += started.elapsed().as_secs_f64();
        Ok(reps)
    }
}

/// The run's fixed inputs and shared state.
struct Run<'a> {
    opts: &'a Options,
    fixture: Fixture,
    work: PathBuf,
    fleet: Option<FleetEnv>,
    drain: fixture::Rendered,
    drain_log: PathBuf,
    paced: fixture::Rendered,
    paced_events: usize,
    paced_reps: AtomicUsize,
}

/// Writes `bytes` to `path` and syncs it, so the harness's own writes are
/// on disk before anything is timed.
fn write_synced(path: &std::path::Path, bytes: &[u8]) -> Result<(), String> {
    let mut file =
        std::fs::File::create(path).map_err(|e| format!("creating {}: {e}", path.display()))?;
    std::io::Write::write_all(&mut file, bytes)
        .and_then(|()| file.sync_all())
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// One drain: the fully written log tailed from offset 0 until every event
/// is ingested and the final checkpoint is written, gated on the oracle.
struct Drain {
    wall: f64,
    checkpoint: PathBuf,
    fleet_dir: Option<PathBuf>,
    checkpoints: u64,
    failed: u64,
    workers_mib: f64,
}

impl Run<'_> {
    fn budget(&self, share: f64) -> f64 {
        self.opts.seconds * share
    }

    fn fleet_env(&self) -> Option<&FleetEnv> {
        self.fleet.as_ref()
    }

    fn drain_once(
        &self,
        sut: &Sut,
        expected: &[Alert],
        tag: &str,
        tracer: Option<&RefCell<Tracer>>,
    ) -> Result<Drain, String> {
        let checkpoint = self.work.join(format!("drain-{tag}.pplc"));
        let mut sink = live::make_sink(&self.fixture, sut, self.fleet_env(), tracer)?;
        let fleet_dir = self.fleet.as_ref().map(FleetEnv::last_dir);
        let total = self.drain.line_ends.len() as u64;
        let run =
            live::run_pipeline(&self.drain_log, &checkpoint, &mut sink, total, tracer, |_| Ok(()))?;
        let (workers_mib, recoveries) = sink.finish()?;
        if run.report.alerts != expected {
            return Err(format!(
                "drain {tag}: alert stream ({} alerts) differs from the oracle ({} alerts)",
                run.report.alerts.len(),
                expected.len()
            ));
        }
        if run.report.events != total {
            return Err(format!("drain {tag}: {} of {total} events resolved", run.report.events));
        }
        Ok(Drain {
            wall: run.wall,
            checkpoint,
            fleet_dir,
            checkpoints: run.report.checkpoints,
            failed: run.report.skipped + recoveries,
            workers_mib,
        })
    }

    /// The oracle for `bytes`, per sink kind.
    fn oracle(
        &self,
        bytes: &[u8],
        sut: &Sut,
        tracer: Option<&RefCell<Tracer>>,
    ) -> Result<(Vec<Alert>, IndexedMonitor), String> {
        match self.fixture.workload.sink {
            SinkKind::Indexed => live::indexed_oracle(bytes, sut),
            SinkKind::Fleet { .. } => live::fleet_oracle(bytes, &self.fixture, sut, tracer),
        }
    }

    /// The open-loop paced phase. Returns latencies in arrival order (ms),
    /// generator lateness (ms, sorted), the sampled (read lag, backlog) pairs, and
    /// failures.
    fn paced(&self, sut: &Sut, expected: &[Alert], sample: bool) -> Result<Paced, String> {
        // A new file per rep: truncating or deleting a file mid-run frees
        // blocks whose discard lands on a later checkpoint's fsync.
        let rep = self.paced_reps.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let log = self.work.join(format!("paced-{rep}.ndjson"));
        write_synced(&log, b"")?;
        let checkpoint = self.work.join(format!("paced-{rep}.pplc"));
        let mut sink = live::make_sink(&self.fixture, sut, self.fleet_env(), None)?;
        let mut feed = PacedFeed {
            log: &log,
            rendered: &self.paced,
            rate: self.fixture.workload.paced_rate,
            start: Instant::now(),
            late_ms: Vec::new(),
            samples: sample.then(Vec::new),
        };
        let total = self.paced_events as u64;
        let run = live::run_pipeline(&log, &checkpoint, &mut sink, total, None, |p| feed.feed(p))?;
        let (workers_mib, recoveries) = sink.finish()?;
        // Settle the appended log on disk before the next phase is timed.
        std::fs::File::open(&log)
            .and_then(|file| file.sync_all())
            .map_err(|e| format!("syncing {}: {e}", log.display()))?;
        if run.report.alerts != expected {
            return Err(format!(
                "paced: alert stream ({} alerts) differs from the oracle ({} alerts)",
                run.report.alerts.len(),
                expected.len()
            ));
        }
        let events = &self.fixture.events[..self.paced_events];
        let latencies = live::latencies_ms(events, &feed, &run.arrivals)?;
        let mut late = std::mem::take(&mut feed.late_ms);
        late.sort_by(f64::total_cmp);
        Ok(Paced {
            latencies,
            late,
            samples: feed.samples.take().unwrap_or_default(),
            failed: run.report.skipped + recoveries,
            workers_mib,
        })
    }
}

struct Paced {
    latencies: Vec<f64>,
    late: Vec<f64>,
    samples: Vec<(u64, u64)>,
    failed: u64,
    workers_mib: f64,
}

fn worker_program() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let worker = me.with_file_name("privacy-shardd");
    if worker.exists() {
        Ok(worker)
    } else {
        Err(format!("no worker binary at {}", worker.display()))
    }
}

fn prepare(opts: &Options) -> Result<Run<'_>, String> {
    let w = opts.workload;
    let paced_events = w.paced_events;
    let fixture = Fixture::build(w, opts.seed)?;
    let work = opts.out.join(format!("work-{}-{}", w.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let fleet = match w.sink {
        SinkKind::Fleet { workers } => {
            Some(FleetEnv::new(worker_program()?, workers, work.join("fleet")))
        }
        SinkKind::Indexed => None,
    };
    let drain = fixture::render(&fixture.events[..w.drain_events])?;
    let paced = fixture::render(&fixture.events[..paced_events])?;
    let drain_log = work.join("drain.ndjson");
    write_synced(&drain_log, &drain.bytes)?;
    Ok(Run {
        opts,
        fixture,
        work,
        fleet,
        drain,
        drain_log,
        paced,
        paced_events,
        paced_reps: AtomicUsize::new(0),
    })
}

/// Shuts down a fleet launched by set-up.
fn close_fleet(fleet: Option<privacy_mde::distrib::DistributedMonitor>) -> Result<(), String> {
    if let Some(mut fleet) = fleet {
        fleet.shutdown().map_err(|e| format!("fleet shutdown: {e}"))?;
    }
    Ok(())
}

/// The untraced run: every end-to-end metric. The run is a sequence of
/// rounds, each a fresh set-up followed by one slice of every phase, so a
/// slowdown of the shared machine that lasts a few seconds lands on a few
/// samples of every metric rather than on all samples of one. Every sample
/// carries the CPU steal the hypervisor charged while it ran; each metric
/// is a median over the samples the host left alone (see [`Samples`]).
fn measure(run: &Run<'_>) -> Result<Outcome, String> {
    let w = run.opts.workload;
    let fixture = &run.fixture;
    let mut out = Outcome::default();
    let seconds = run.opts.seconds;
    let mut drain_phase = Phase::new(seconds, w.shares.drain);
    let mut paced_phase = Phase::new(seconds, w.shares.paced);
    let mut resume_phase = Phase::new(seconds, w.shares.resume);
    let mut audit_phase = Phase::new(seconds, w.shares.audit);
    let drain_events = &fixture.events[..w.drain_events];

    let mut setups = Samples::default();
    let mut walls = Samples::default();
    let mut p50s = Samples::default();
    let mut p99s = Samples::default();
    let mut resumes = Samples::default();
    let mut audits = Samples::default();
    let mut late = Vec::new();
    let mut alerts_timed = 0;
    let mut workers_mib: f64 = 0.0;
    let mut oracles = None;
    let mut latest: Option<Drain> = None;
    let mut last_checkpoint = None;
    let mut lts_size = (0, 0);
    let mut sut: Option<Sut> = None;
    for round in 0..w.rounds {
        // ── Set-up; `setup_s` is the median over every round's set-ups.
        for _ in 0..w.setup_reps.div_ceil(w.rounds) {
            // Free the previous build first: one system is held at a time.
            drop(sut.take());
            let (built, fleet) = setups.time(|| live::setup(fixture, run.fleet_env(), None))?;
            close_fleet(fleet)?;
            sut = Some(built);
        }
        let sut = sut.as_ref().ok_or("no set-up ran")?;
        if oracles.is_none() {
            let drain = run.oracle(&run.drain.bytes, sut, None)?;
            let (paced, _) = run.oracle(&run.paced.bytes, sut, None)?;
            oracles = Some((drain, paced));
        }
        let ((expected, uninterrupted), paced_expected) = oracles.as_ref().ok_or("no oracle")?;

        // ── Catch-up drain, gated on the oracle every time.
        let drains = drain_phase.run(round, w.rounds, |rep| {
            let clock = stats::CpuClock::now();
            let drain = run.drain_once(sut, expected, &format!("{round}-{rep}"), None)?;
            walls.push(drain.wall, clock.steal_share());
            out.failed += drain.failed;
            workers_mib = workers_mib.max(drain.workers_mib);
            latest = Some(drain);
            Ok(())
        })?;
        let last = latest.as_ref().ok_or("no drain ran")?;
        out.attempted += (drains * drain_events.len()) as u64;

        // ── Open-loop paced reps: each yields one p50/p99 pair.
        let reps = paced_phase.run(round, w.rounds, |_| {
            let clock = stats::CpuClock::now();
            let paced = run.paced(sut, paced_expected, false)?;
            let steal = clock.steal_share();
            out.failed += paced.failed;
            workers_mib = workers_mib.max(paced.workers_mib);
            let mut latencies = paced.latencies;
            if latencies.is_empty() {
                return Err("paced: no alerts to time".to_owned());
            }
            latencies.sort_by(f64::total_cmp);
            p50s.push(percentile(&latencies, 0.50), steal);
            p99s.push(percentile(&latencies, 0.99), steal);
            alerts_timed += latencies.len();
            late.extend(paced.late);
            Ok(())
        })?;
        out.attempted += (reps * run.paced_events) as u64;

        // ── Restart from the final checkpoint's bytes, gated in round 0.
        let bytes = live::read_checkpoint(&last.checkpoint)?;
        let reps = match (run.fleet_env(), &last.fleet_dir) {
            (None, _) => {
                if round == 0 {
                    let resumed = live::resume_indexed(&bytes, sut, None)?;
                    live::gate_states(&resumed, uninterrupted, &fixture.users, drain_events)?;
                }
                resume_phase.run(round, w.rounds, |_| {
                    black_box(resumes.time(|| live::resume_indexed(&bytes, sut, None))?);
                    Ok(())
                })?
            }
            (Some(env), Some(dir)) => {
                if round == 0 {
                    let resumed =
                        live::resume_snapshot(sut, &live::fleet_snapshot(dir, env.workers)?)?;
                    live::gate_states(&resumed, uninterrupted, &fixture.users, drain_events)?;
                }
                resume_phase.run(round, w.rounds, |_| {
                    let mut fleet =
                        resumes.time(|| live::resume_fleet(&bytes, sut, env, dir, None))?;
                    let (_, stats) =
                        fleet.shutdown().map_err(|e| format!("fleet shutdown: {e}"))?;
                    out.failed += stats.recoveries.len() as u64;
                    Ok(())
                })?
            }
            (Some(_), None) => return Err("fleet drain left no checkpoint directory".to_owned()),
        };
        out.attempted += reps as u64;
        last_checkpoint = Some(bytes);

        // ── Design-time audit; the first is gated against the scan oracles
        // after it is timed.
        let reps = audit_phase.run(round, w.rounds, |rep| {
            let report = audits.time(|| audit::audit(fixture, None))?;
            if round == 0 && rep == 0 {
                audit::gate(fixture, &report)?;
                lts_size = (report.lts.state_count(), report.lts.transition_count());
            }
            black_box(report);
            Ok(())
        })?;
        out.attempted += (reps * fixture.users.len()) as u64;
    }

    let peak = stats::own_peak_rss_mib() + workers_mib;
    out.metric("setup_s", "s", setups.steady());
    out.metric("drain_eps", "events/s", drain_events.len() as f64 / walls.steady());
    out.metric("e2a_p50_ms", "ms", p50s.steady());
    out.metric("e2a_p99_ms", "ms", p99s.best());
    out.metric("resume_s", "s", resumes.steady());
    out.metric("audit_s", "s", audits.steady());
    out.metric("peak_rss_mb", "MiB", peak);

    late.sort_by(f64::total_cmp);
    let snapshot_bytes = last_checkpoint
        .as_deref()
        .and_then(|bytes| PipelineCheckpoint::from_bytes(bytes).ok())
        .map_or(0, |c| c.snapshot.len());
    out.field("rounds", w.rounds);
    out.field("e2a_samples", alerts_timed);
    out.field("gen_late_ms_p99", json_number(percentile(&late, 0.99)));
    out.field("snapshot_bytes", snapshot_bytes);
    out.field("lts_states", lts_size.0);
    out.field("lts_transitions", lts_size.1);
    for (name, samples) in [
        ("setup_s", &setups),
        ("drain_s", &walls),
        ("e2a_p50_ms", &p50s),
        ("e2a_p99_ms", &p99s),
        ("resume_s", &resumes),
        ("audit_s", &audits),
    ] {
        out.field(&format!("{name}_each"), json_list(&samples.values));
        out.field(&format!("{name}_steal_each"), json_list(&samples.steal));
        out.field(&format!("{name}_used"), samples.used().len());
    }
    Ok(out)
}

/// Replays the parser thread's work over the run's bytes:
/// `LineAssembler::push` + `LineIngestor::push_line`, as `PipelineRunner`
/// calls them. Returns the number of events resolved.
fn replay_parse(bytes: &[u8]) -> Result<u64, String> {
    let config = PipelineConfig::new(FieldMapping::canonical());
    let mut assembler = LineAssembler::new(config.max_line_bytes.saturating_add(1));
    let mut ingestor =
        LineIngestor::new(config.mapping, config.format, config.policy, config.max_line_bytes);
    let mut lines = Vec::new();
    let mut events = 0u64;
    let mut feed = |line: privacy_mde::ingest::live::AssembledLine| -> Result<(), String> {
        match ingestor.push_line(&line.bytes, line.start, line.end).map_err(|e| e.to_string())? {
            LinePush::Event(event) => {
                black_box(event);
                events += 1;
                Ok(())
            }
            LinePush::Quarantined(q) => Err(format!("replayed parse quarantined a line: {q:?}")),
            LinePush::Pending => Ok(()),
        }
    };
    for chunk in bytes.chunks(64 << 10) {
        assembler.push(chunk, &mut lines);
        for line in lines.drain(..) {
            feed(line)?;
        }
    }
    if let Some(line) = assembler.finish() {
        feed(line)?;
    }
    Ok(events)
}

fn traced(
    name: &'static str,
    spans: &mut Vec<(&'static str, Tracer)>,
    tracer: RefCell<Tracer>,
) -> usize {
    spans.push((name, tracer.into_inner()));
    spans.len() - 1
}

/// The traced run: every per-layer metric, the consumer thread's stage
/// shares, the bounding stage, and the tracing overhead.
fn measure_traced(run: &Run<'_>) -> Result<Outcome, String> {
    let w = run.opts.workload;
    let fixture = &run.fixture;
    let fleet_workload = run.fleet.is_some();
    let mut out = Outcome::default();

    // ── Set-up, traced once.
    let setup_tracer = RefCell::new(Tracer::new());
    let (sut, fleet) = live::setup(fixture, run.fleet_env(), Some(&setup_tracer))?;
    close_fleet(fleet)?;
    let setup_id = traced("setup", &mut out.spans, setup_tracer);

    // ── Oracle; for the fleet it doubles as the replay of the workers'
    // monitor calls (`register_user`, `ingest_batch` + `drain_alerts`).
    let replay_tracer = RefCell::new(Tracer::new());
    let (expected, uninterrupted) =
        run.oracle(&run.drain.bytes, &sut, fleet_workload.then_some(&replay_tracer))?;

    // ── Drains, alternating untraced and traced; the traced rep with the
    // median wall time is the one analysed.
    let mut plain = Vec::new();
    let mut traced_reps: Vec<(Drain, Tracer)> = Vec::new();
    let mut failed = 0;
    let drain_budget = run.budget(w.shares.drain);
    repeat_for(drain_budget, 4, 200, |rep| {
        if rep % 2 == 0 {
            let drain = run.drain_once(&sut, &expected, &format!("plain-{rep}"), None)?;
            failed += drain.failed;
            plain.push(drain.wall);
        } else {
            let tracer = RefCell::new(Tracer::new());
            let drain = run.drain_once(&sut, &expected, &format!("traced-{rep}"), Some(&tracer))?;
            failed += drain.failed;
            traced_reps.push((drain, tracer.into_inner()));
        }
        Ok(())
    })?;
    out.failed += failed;
    out.attempted += ((plain.len() + traced_reps.len()) * run.drain.line_ends.len()) as u64;
    let traced_walls: Vec<f64> = traced_reps.iter().map(|(d, _)| d.wall).collect();
    let overhead = median(&traced_walls) - median(&plain);
    traced_reps.sort_by(|a, b| a.0.wall.total_cmp(&b.0.wall));
    let (drain, drain_tracer) = traced_reps.swap_remove(traced_reps.len() / 2);
    let drain_id = traced("drain", &mut out.spans, RefCell::new(drain_tracer));

    // ── Replays of calls the runner makes out of reach: the parser
    // thread's assemble + parse + resolve, and the checkpoint writes.
    let parse_tracer = RefCell::new(Tracer::new());
    let parsed = span(Some(&parse_tracer), "ingest.parse", || replay_parse(&run.drain.bytes))?;
    if parsed != run.drain.line_ends.len() as u64 {
        return Err(format!(
            "replayed parse resolved {parsed} of {} events",
            run.drain.line_ends.len()
        ));
    }
    let checkpoint_bytes = live::read_checkpoint(&drain.checkpoint)?;
    let store = CheckpointStore::new(run.work.join("replay.pplc"));
    let writes = drain.checkpoints.max(1);
    for _ in 0..writes {
        span(Some(&parse_tracer), "pipeline.checkpoint_write", || store.write(&checkpoint_bytes))
            .map_err(|e| format!("replaying checkpoint write: {e}"))?;
    }
    let parse_id = traced("replay.parse_write", &mut out.spans, parse_tracer);

    // ── Fleet: the workers' snapshot calls replayed on their final state.
    let mut fleet_snapshot = None;
    if let (Some(env), Some(dir)) = (run.fleet_env(), &drain.fleet_dir) {
        let snapshot = live::fleet_snapshot(dir, env.workers)?;
        let resumed = live::resume_snapshot(&sut, &snapshot)?;
        live::gate_states(
            &resumed,
            &uninterrupted,
            &fixture.users,
            &fixture.events[..w.drain_events],
        )?;
        for _ in 0..drain.checkpoints {
            let captured = span(Some(&replay_tracer), "snapshot.capture", || resumed.snapshot());
            black_box(span(Some(&replay_tracer), "snapshot.encode", || captured.to_bytes()));
        }
        fleet_snapshot = Some(snapshot);
    }
    let replay_id = traced("replay.monitor", &mut out.spans, replay_tracer);

    // ── Paced phase with read-lag and backlog sampling.
    let (paced_expected, _) = run.oracle(&run.paced.bytes, &sut, None)?;
    let paced = run.paced(&sut, &paced_expected, true)?;
    out.failed += paced.failed;
    out.attempted += run.paced_events as u64;
    let mut lags: Vec<f64> = paced.samples.iter().map(|s| s.0 as f64).collect();
    let mut backlogs: Vec<f64> = paced.samples.iter().map(|s| s.1 as f64).collect();
    lags.sort_by(f64::total_cmp);
    backlogs.sort_by(f64::total_cmp);

    // ── Restart, traced.
    let resume_tracer = RefCell::new(Tracer::new());
    let snapshot_bytes;
    let mut users = 0usize;
    let resumes = match (run.fleet_env(), &drain.fleet_dir, &fleet_snapshot) {
        (Some(env), Some(dir), Some(snapshot)) => {
            users = snapshot.user_count();
            snapshot_bytes = (0..env.workers)
                .map(|w| {
                    live::read_checkpoint(&dir.join(format!("worker-{w}.ckpt"))).map(|b| b.len())
                })
                .sum::<Result<usize, String>>()?;
            let merged = snapshot.to_bytes();
            repeat_for(run.budget(w.shares.resume), 3, 200, |_| {
                let mut fleet =
                    live::resume_fleet(&checkpoint_bytes, &sut, env, dir, Some(&resume_tracer))?;
                fleet.shutdown().map_err(|e| format!("fleet shutdown: {e}"))?;
                // The worker-side restart calls, replayed on the merged state.
                let decoded = span(Some(&resume_tracer), "snapshot.decode", || {
                    privacy_mde::runtime::MonitorSnapshot::from_bytes(&merged)
                })
                .map_err(|e| format!("snapshot: {e}"))?;
                let monitor = span(Some(&resume_tracer), "monitor.resume", || {
                    privacy_mde::runtime::IndexedMonitor::resume_from(
                        sut.system.catalog().clone(),
                        sut.system.policy().clone(),
                        std::sync::Arc::clone(&sut.index),
                        &decoded,
                    )
                })
                .map_err(|e| format!("resume: {e}"))?;
                black_box(monitor);
                Ok(())
            })?
        }
        _ => {
            let checkpoint =
                PipelineCheckpoint::from_bytes(&checkpoint_bytes).map_err(|e| e.to_string())?;
            snapshot_bytes = checkpoint.snapshot.len();
            repeat_for(run.budget(w.shares.resume), 3, 5_000, |_| {
                let monitor = live::resume_indexed(&checkpoint_bytes, &sut, Some(&resume_tracer))?;
                users = monitor.user_count();
                black_box(monitor);
                Ok(())
            })?
        }
    };
    out.attempted += resumes as u64;
    let resume_id = traced("resume", &mut out.spans, resume_tracer);

    // ── Audit, traced.
    let audit_tracer = RefCell::new(Tracer::new());
    let mut lts_size = (0, 0);
    let audits = repeat_for(run.budget(w.shares.audit), 1, 500, |rep| {
        let report = audit::audit(fixture, Some(&audit_tracer))?;
        if rep == 0 {
            audit::gate(fixture, &report)?;
            lts_size = (report.lts.state_count(), report.lts.transition_count());
        }
        Ok(())
    })?;
    out.attempted += (audits * fixture.users.len()) as u64;
    let audit_id = traced("audit", &mut out.spans, audit_tracer);

    // ── Derived numbers.
    let spans = std::mem::take(&mut out.spans);
    let t = |id: usize| &spans[id].1;
    let (setup_t, drain_t, parse_t, replay_t, resume_t, audit_t) =
        (t(setup_id), t(drain_id), t(parse_id), t(replay_id), t(resume_id), t(audit_id));
    let wall = drain_t.total("pipeline.run");
    let monitor_stage = drain_t.total("sink.ingest") + drain_t.total("sink.flush");
    let snapshot_stage = drain_t.total("sink.snapshot");
    let alert_stage = drain_t.total("alert.deliver");
    let measured = monitor_stage + snapshot_stage + alert_stage;
    if measured > wall * 1.001 {
        return Err(format!(
            "consumer stages ({measured:.6} s) exceed the consumer's wall time ({wall:.6} s)"
        ));
    }
    let write_each = parse_t.total("pipeline.checkpoint_write") / writes as f64;
    // The write replay estimates time inside the runner's residual; it can
    // never claim more than that residual.
    let write_stage = (write_each * drain.checkpoints as f64).min(wall - measured);
    let pipeline_stage = wall - measured - write_stage;
    let parse_s = parse_t.total("ingest.parse");
    let (register_s, ingest_s, capture_s, encode_s) = if fleet_workload {
        (
            replay_t.total("monitor.register"),
            replay_t.total("monitor.ingest"),
            replay_t.total("snapshot.capture"),
            replay_t.total("snapshot.encode"),
        )
    } else {
        (
            setup_t.total("monitor.register") + drain_t.total("monitor.register"),
            drain_t.total("monitor.ingest"),
            drain_t.total("snapshot.capture"),
            drain_t.total("snapshot.encode"),
        )
    };
    let resume_n = resumes.max(1) as f64;
    let audit_n = audits.max(1) as f64;
    let disclosure_s = audit_t.total("risk.disclosure") / audit_n;
    let users_audited = fixture.users.len() as f64;

    out.metric("ingest.parse_s", "s", parse_s);
    out.metric("ingest.parse_eps", "events/s", parsed as f64 / parse_s);
    out.metric("ingest.busy_share", "share", parse_s / wall);
    out.metric("ingest.read_lag_bytes_p99", "bytes", percentile(&lags, 0.99));
    out.metric("pipeline.queue_backlog_p99", "events", percentile(&backlogs, 0.99));
    out.metric("pipeline.checkpoints", "count", drain.checkpoints as f64);
    out.metric("pipeline.checkpoint_write_s", "s", write_stage);
    out.metric("monitor.register_s", "s", register_s);
    out.metric("monitor.ingest_s", "s", ingest_s);
    out.metric("monitor.busy_share", "share", (wall - pipeline_stage) / wall);
    out.metric("snapshot.capture_s", "s", capture_s);
    out.metric("snapshot.encode_s", "s", encode_s);
    out.metric("snapshot.bytes_per_user", "bytes", snapshot_bytes as f64 / users.max(1) as f64);
    out.metric("snapshot.decode_s", "s", resume_t.total("snapshot.decode") / resume_n);
    out.metric("monitor.resume_s", "s", resume_t.total("monitor.resume") / resume_n);
    out.metric("lts.generate_s", "s", audit_t.total("lts.generate") / audit_n);
    out.metric("lts.states", "count", lts_size.0 as f64);
    out.metric("lts.transitions", "count", lts_size.1 as f64);
    out.metric("lts.index_build_s", "s", audit_t.total("lts.index_build") / audit_n);
    out.metric("risk.disclosure_s", "s", disclosure_s);
    out.metric("risk.users_per_s", "users/s", users_audited / disclosure_s);
    out.metric("compliance.check_s", "s", audit_t.total("compliance.check") / audit_n);
    out.metric("consumer.monitor_share", "share", monitor_stage / wall);
    out.metric("consumer.snapshot_share", "share", snapshot_stage / wall);
    out.metric("consumer.checkpoint_write_share", "share", write_stage / wall);
    out.metric("consumer.alert_share", "share", alert_stage / wall);
    out.metric("consumer.pipeline_share", "share", pipeline_stage / wall);
    out.metric("trace.overhead_s", "s", overhead);
    out.metric("loadgen.late_ms_p99", "ms", percentile(&paced.late, 0.99));
    out.metric("e2a.samples", "count", paced.latencies.len() as f64);

    // Fleet-only layer numbers go to the report, not the metric line:
    // the in-process workloads never run the `distrib` layer.
    if fleet_workload {
        out.field("fleet.launch_s", json_number(setup_t.total("fleet.launch")));
        out.field("fleet.register_s", json_number(drain_t.total("fleet.register")));
        out.field("fleet.submit_s", json_number(drain_t.total("fleet.submit")));
        out.field("fleet.checkpoint_s", json_number(drain_t.total("fleet.checkpoint")));
        out.field("fleet.relaunch_s", json_number(resume_t.total("fleet.relaunch") / resume_n));
        out.field("fleet.recoveries", out.failed);
    }

    // Bounding stages: the parser and the consumer run concurrently, so
    // the drain is bounded by the busier of the two, and within the
    // consumer by its largest stage.
    let (sink_stage, checkpoint_stage) = if fleet_workload {
        ("fleet.submit", "fleet.checkpoint")
    } else {
        ("monitor.ingest", "checkpoint")
    };
    let drain_stages = [
        ("ingest.parse", parse_s),
        (sink_stage, monitor_stage),
        (checkpoint_stage, snapshot_stage + write_stage),
        ("alert.deliver", alert_stage),
    ];
    let audit_stages = ["lts.generate", "lts.index_build", "risk.disclosure", "compliance.check"]
        .map(|name| (name, audit_t.total(name)));
    let busiest = |stages: &[(&'static str, f64)]| {
        stages.iter().copied().max_by(|a, b| a.1.total_cmp(&b.1)).map_or("none", |s| s.0)
    };
    let drain_bound = busiest(&drain_stages);
    let audit_bound = busiest(&audit_stages);
    out.field("drain_wall_s", json_number(wall));
    out.field("drain_bounding_stage", json_string(drain_bound));
    out.field("audit_bounding_stage", json_string(audit_bound));
    let headline = if w.name == "design_audit" { audit_bound } else { drain_bound };
    out.field("bounding_stage", json_string(headline));
    let shares_sum =
        (monitor_stage + snapshot_stage + write_stage + alert_stage + pipeline_stage) / wall;
    out.field("consumer_shares_sum", json_number(shares_sum));
    out.field("e2a_samples", paced.latencies.len());
    out.field("resume_reps", resumes);
    out.field("audit_reps", audits);
    out.field("snapshot_bytes", snapshot_bytes);
    out.field("self_time_s", self_times(&spans));
    out.spans = spans;
    Ok(out)
}

/// Self time per span name, per traced phase, as a JSON object.
fn self_times(spans: &[(&'static str, Tracer)]) -> String {
    let mut json = String::from("{");
    for (i, (phase, tracer)) in spans.iter().enumerate() {
        let _ = write!(json, "{}{}: {{", if i > 0 { ", " } else { "" }, json_string(phase));
        for (j, name) in tracer.names().iter().enumerate() {
            let _ = write!(
                json,
                "{}{}: {}",
                if j > 0 { ", " } else { "" },
                json_string(name),
                json_number(tracer.self_time(name))
            );
        }
        json.push('}');
    }
    json.push('}');
    json
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn write_report(
    opts: &Options,
    run: Option<&Run<'_>>,
    outcome: &Outcome,
    correct: bool,
    error: Option<&str>,
) -> Result<PathBuf, String> {
    let w = opts.workload;
    let mut json = String::from("{\n");
    let mut kv = |key: &str, value: String| {
        let _ = writeln!(json, "  {}: {value},", json_string(key));
    };
    kv("bench", json_string("e2ebench"));
    kv("workload", json_string(w.name));
    kv("seed", opts.seed.to_string());
    kv("seconds", json_number(opts.seconds));
    kv("trace", opts.trace.to_string());
    kv("nproc", std::thread::available_parallelism().map_or(0, usize::from).to_string());
    kv(
        "commit",
        json_string(&std::env::var("E2EBENCH_COMMIT").unwrap_or_else(|_| "unknown".to_owned())),
    );
    kv(
        "source_digest",
        json_string(&std::env::var("E2EBENCH_SOURCE").unwrap_or_else(|_| "unknown".to_owned())),
    );
    kv("correct", correct.to_string());
    if let Some(error) = error {
        kv("error", json_string(error));
    }
    if let Some(run) = run {
        kv("users", run.fixture.users.len().to_string());
        kv("drain_events", run.drain.line_ends.len().to_string());
        kv("drain_log_bytes", run.drain.bytes.len().to_string());
        kv("paced_events", run.paced_events.to_string());
        kv("paced_log_bytes", run.paced.bytes.len().to_string());
        kv("paced_rate_eps", json_number(w.paced_rate));
    }
    for (key, value) in &outcome.report {
        kv(key, value.clone());
    }
    kv("attempted", outcome.attempted.to_string());
    kv("failed", outcome.failed.to_string());
    let _ = writeln!(json, "  \"metrics\": {}\n}}", metrics_json(&outcome.metrics));
    std::fs::create_dir_all(&opts.out)
        .map_err(|e| format!("creating {}: {e}", opts.out.display()))?;
    let stem = format!("{}-seed{}-trace{}", w.name, opts.seed, u8::from(opts.trace));
    let path = opts.out.join(format!("{stem}.json"));
    std::fs::write(&path, json).map_err(|e| format!("writing {}: {e}", path.display()))?;
    if !outcome.spans.is_empty() {
        let mut spans = String::new();
        for (phase, tracer) in &outcome.spans {
            for line in tracer.to_ndjson().lines() {
                let _ = writeln!(spans, "{{\"phase\": {}, {}", json_string(phase), &line[1..]);
            }
        }
        let span_path = opts.out.join(format!("{stem}.spans.ndjson"));
        std::fs::write(&span_path, spans)
            .map_err(|e| format!("writing {}: {e}", span_path.display()))?;
    }
    Ok(path)
}

fn result_line(correct: bool, outcome: &Outcome) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics_json(&outcome.metrics)
    )
}

fn main() -> ExitCode {
    let opts = match parse_options() {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("e2ebench: {message}");
            return ExitCode::from(2);
        }
    };
    let run = match prepare(&opts) {
        Ok(run) => run,
        Err(message) => {
            eprintln!("e2ebench: {}: preparing inputs: {message}", opts.workload.name);
            return ExitCode::FAILURE;
        }
    };
    let result = if opts.trace { measure_traced(&run) } else { measure(&run) };
    let _ = std::fs::remove_dir_all(&run.work);
    match result {
        Ok(outcome) => {
            for metric in &outcome.metrics {
                eprintln!("{:<34} {:>16.6} {}", metric.name, metric.value, metric.unit);
            }
            for (key, value) in &outcome.report {
                if key != "self_time_s" {
                    eprintln!("{key:<34} {value}");
                }
            }
            match write_report(&opts, Some(&run), &outcome, true, None) {
                Ok(path) => eprintln!("e2ebench: report {}", path.display()),
                Err(message) => eprintln!("e2ebench: {message}"),
            }
            println!("{}", result_line(true, &outcome));
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("e2ebench: {}: {message}", opts.workload.name);
            let outcome = Outcome { failed: 1, ..Outcome::default() };
            let _ = write_report(&opts, Some(&run), &outcome, false, Some(&message));
            println!("{}", result_line(false, &outcome));
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(pairs: &[(f64, f64)]) -> Samples {
        let mut samples = Samples::default();
        for &(value, steal) in pairs {
            samples.push(value, steal);
        }
        samples
    }

    #[test]
    fn steady_median_skips_stolen_samples() {
        let mixed = samples(&[(1.0, 0.0), (9.0, 0.2), (2.0, 0.0), (8.0, 0.3), (3.0, 0.005)]);
        assert_eq!(mixed.used(), vec![0, 2, 4]);
        assert_eq!(mixed.steady(), 2.0);
    }

    #[test]
    fn mostly_stolen_runs_keep_the_least_stolen_half() {
        let stolen = samples(&[(5.0, 0.3), (4.0, 0.1), (6.0, 0.4), (3.0, 0.05)]);
        assert_eq!(stolen.used(), vec![3, 1]);
        assert_eq!(stolen.steady(), 3.5);
    }
}
