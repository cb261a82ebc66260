//! The operation-time path: set-up of the system under test, the tailed
//! pipeline runs (catch-up drain and open-loop paced), the oracles they are
//! gated against, and the restart (resume) path.

use crate::fixture::{Fixture, Rendered, SinkKind};
use crate::trace::{span, Tracer};
use privacy_mde::core::{casestudy, PrivacySystem};
use privacy_mde::distrib::wire::decode_checkpoint;
use privacy_mde::distrib::{DistributedMonitor, SupervisorConfig};
use privacy_mde::ingest::{ingest_bytes, FieldMapping, FollowConfig, IngestOptions, LiveSource};
use privacy_mde::lts::LtsIndex;
use privacy_mde::model::{ServiceId, UserId, UserProfile};
use privacy_mde::pipeline::{
    DistributedSink, IndexedSink, MonitorSink, PipelineCheckpoint, PipelineConfig, PipelineError,
    PipelineProgress, PipelineReport, PipelineRunner,
};
use privacy_mde::runtime::{Alert, Event, IndexedMonitor, MonitorSnapshot};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The built system under test.
pub(crate) struct Sut {
    pub(crate) system: PrivacySystem,
    pub(crate) index: Arc<LtsIndex>,
    /// The monitor every in-process run starts from (with the population
    /// pre-registered where the workload says so).
    pub(crate) proto: IndexedMonitor,
}

/// Where fleet runs find their worker binary and keep their checkpoints.
pub(crate) struct FleetEnv {
    pub(crate) worker: PathBuf,
    pub(crate) workers: usize,
    pub(crate) dir: PathBuf,
    launches: AtomicU64,
}

impl FleetEnv {
    pub(crate) fn new(worker: PathBuf, workers: usize, dir: PathBuf) -> Self {
        FleetEnv { worker, workers, dir, launches: AtomicU64::new(0) }
    }

    /// A config over a fresh checkpoint directory.
    pub(crate) fn fresh_config(&self) -> SupervisorConfig {
        let n = self.launches.fetch_add(1, Ordering::Relaxed);
        let dir = self.dir.join(format!("fleet-{n}"));
        let _ = std::fs::remove_dir_all(&dir);
        self.config_at(dir)
    }

    /// The checkpoint directory of the most recent fresh config.
    pub(crate) fn last_dir(&self) -> PathBuf {
        let n = self.launches.load(Ordering::Relaxed).saturating_sub(1);
        self.dir.join(format!("fleet-{n}"))
    }

    pub(crate) fn config_at(&self, dir: PathBuf) -> SupervisorConfig {
        let mut config = SupervisorConfig::new(&self.worker, dir);
        config.workers = self.workers;
        config
    }

    pub(crate) fn launch(
        &self,
        sut: &Sut,
        config: SupervisorConfig,
    ) -> Result<DistributedMonitor, String> {
        DistributedMonitor::launch("healthcare", &sut.system, sut.index.fingerprint(), config)
            .map_err(|e| format!("fleet launch: {e}"))
    }
}

/// Builds the system under test: model, LTS, index, monitor with any
/// pre-registered users, and — for the fleet — a launched fleet (returned
/// so the caller decides when to shut it down).
pub(crate) fn setup(
    fixture: &Fixture,
    fleet: Option<&FleetEnv>,
    tracer: Option<&RefCell<Tracer>>,
) -> Result<(Sut, Option<DistributedMonitor>), String> {
    let system =
        span(tracer, "model.build", casestudy::healthcare).map_err(|e| format!("model: {e}"))?;
    let lts =
        span(tracer, "lts.generate", || system.generate_lts_with(&fixture.generator_config()))
            .map_err(|e| format!("LTS generation: {e}"))?;
    let index = Arc::new(span(tracer, "lts.index_build", || LtsIndex::build(&lts)));
    drop(lts);
    let mut proto =
        IndexedMonitor::new(system.catalog().clone(), system.policy().clone(), Arc::clone(&index));
    if fixture.workload.preregister {
        span(tracer, "monitor.register", || {
            for user in &fixture.users {
                proto.register_user(user);
            }
        });
    }
    let sut = Sut { system, index, proto };
    let launched = match fleet {
        Some(env) => Some(span(tracer, "fleet.launch", || env.launch(&sut, env.fresh_config()))?),
        None => None,
    };
    Ok((sut, launched))
}

/// The profile of a user first seen in the log, as `IndexedSink` and
/// `DistributedSink` build it: consent to every service, or to none under
/// `no_consent`.
fn first_sight(user: &UserId, services: &[ServiceId], no_consent: bool) -> UserProfile {
    let services = if no_consent { &[][..] } else { services };
    services.iter().fold(UserProfile::new(user.clone()), |p, s| p.consents_to(s.clone()))
}

enum Target {
    Indexed(IndexedMonitor),
    Fleet(DistributedMonitor, BTreeSet<UserId>),
}

/// A `MonitorSink` replicating `IndexedSink` and `DistributedSink` with a
/// span around each call into the monitor layer.
pub(crate) struct TracedSink<'t> {
    target: Target,
    services: Vec<ServiceId>,
    no_consent: bool,
    tracer: &'t RefCell<Tracer>,
}

impl<'t> TracedSink<'t> {
    fn new(
        target: Target,
        services: Vec<ServiceId>,
        no_consent: bool,
        tracer: &'t RefCell<Tracer>,
    ) -> Self {
        TracedSink { target, services, no_consent, tracer }
    }

    fn into_fleet(self) -> Option<DistributedMonitor> {
        match self.target {
            Target::Fleet(monitor, _) => Some(monitor),
            Target::Indexed(_) => None,
        }
    }
}

fn monitor_error(error: impl std::fmt::Display) -> PipelineError {
    PipelineError::Monitor(error.to_string())
}

impl MonitorSink for TracedSink<'_> {
    fn ingest(&mut self, events: &[Event]) -> Result<Vec<Alert>, PipelineError> {
        let tracer = Some(self.tracer);
        let (services, no_consent) = (&self.services, self.no_consent);
        span(tracer, "sink.ingest", || match &mut self.target {
            Target::Indexed(monitor) => {
                for event in events {
                    if !monitor.is_registered(event.user()) {
                        let profile = first_sight(event.user(), services, no_consent);
                        span(tracer, "monitor.register", || monitor.register_user(&profile));
                    }
                }
                Ok(span(tracer, "monitor.ingest", || {
                    let _ = monitor.ingest_batch(events);
                    monitor.drain_alerts()
                }))
            }
            Target::Fleet(monitor, known) => {
                for event in events {
                    if known.insert(event.user().clone()) {
                        let profile = first_sight(event.user(), services, no_consent);
                        span(tracer, "fleet.register", || monitor.register_user(&profile))
                            .map_err(monitor_error)?;
                    }
                }
                span(tracer, "fleet.submit", || monitor.submit_batch(events)).map_err(monitor_error)
            }
        })
    }

    fn flush(&mut self) -> Result<Vec<Alert>, PipelineError> {
        let tracer = Some(self.tracer);
        span(tracer, "sink.flush", || match &mut self.target {
            Target::Indexed(monitor) => Ok(monitor.drain_alerts()),
            Target::Fleet(monitor, _) => monitor.flush().map_err(monitor_error),
        })
    }

    fn snapshot(&mut self) -> Result<Vec<u8>, PipelineError> {
        let tracer = Some(self.tracer);
        span(tracer, "sink.snapshot", || match &mut self.target {
            Target::Indexed(monitor) => {
                let snapshot = span(tracer, "snapshot.capture", || monitor.snapshot());
                Ok(span(tracer, "snapshot.encode", || snapshot.to_bytes()))
            }
            Target::Fleet(monitor, _) => {
                span(tracer, "fleet.checkpoint", || monitor.checkpoint_now())
                    .map_err(monitor_error)?;
                Ok(Vec::new())
            }
        })
    }
}

/// The sink of one pipeline run, kept concrete so the fleet can be shut
/// down (and its statistics read) afterwards.
pub(crate) enum RunSink<'t> {
    Indexed(IndexedSink),
    Fleet(DistributedSink),
    Traced(TracedSink<'t>),
}

impl RunSink<'_> {
    fn as_dyn(&mut self) -> &mut dyn MonitorSink {
        match self {
            RunSink::Indexed(sink) => sink,
            RunSink::Fleet(sink) => sink,
            RunSink::Traced(sink) => sink,
        }
    }

    /// Shuts a fleet down, returning the peak RSS of its workers (read
    /// just before they exit) and the number of recoveries it needed.
    pub(crate) fn finish(self) -> Result<(f64, u64), String> {
        let fleet = match self {
            RunSink::Fleet(sink) => Some(sink.into_monitor()),
            RunSink::Traced(sink) => sink.into_fleet(),
            RunSink::Indexed(_) => None,
        };
        let Some(mut fleet) = fleet else { return Ok((0.0, 0)) };
        let workers_mib = crate::stats::children_peak_rss_mib();
        let (late, stats) = fleet.shutdown().map_err(|e| format!("fleet shutdown: {e}"))?;
        if !late.is_empty() {
            return Err(format!("fleet reported {} alerts after the pipeline's flush", late.len()));
        }
        Ok((workers_mib, stats.recoveries.len() as u64))
    }
}

/// Builds the sink a live run drives.
pub(crate) fn make_sink<'t>(
    fixture: &Fixture,
    sut: &Sut,
    fleet: Option<&FleetEnv>,
    tracer: Option<&'t RefCell<Tracer>>,
) -> Result<RunSink<'t>, String> {
    let services = fixture.services.clone();
    let no_consent = fixture.workload.no_consent;
    Ok(match (fixture.workload.sink, fleet, tracer) {
        (SinkKind::Indexed, _, None) => {
            RunSink::Indexed(IndexedSink::new(sut.proto.clone(), services, no_consent))
        }
        (SinkKind::Indexed, _, Some(tracer)) => RunSink::Traced(TracedSink::new(
            Target::Indexed(sut.proto.clone()),
            services,
            no_consent,
            tracer,
        )),
        (SinkKind::Fleet { .. }, Some(env), tracer) => {
            let monitor = span(tracer, "fleet.launch", || env.launch(sut, env.fresh_config()))?;
            match tracer {
                None => RunSink::Fleet(DistributedSink::new(monitor, services, no_consent)),
                Some(tracer) => RunSink::Traced(TracedSink::new(
                    Target::Fleet(monitor, BTreeSet::new()),
                    services,
                    no_consent,
                    tracer,
                )),
            }
        }
        (SinkKind::Fleet { .. }, None, _) => {
            return Err("fleet workload without a fleet".to_owned())
        }
    })
}

/// What one pipeline run produced.
pub(crate) struct PipelineRun {
    /// Wall time of `PipelineRunner::run`, from the call until the final
    /// checkpoint is written.
    pub(crate) wall: f64,
    pub(crate) report: PipelineReport,
    /// `(alert sequence, instant the on_alert callback saw it)`.
    pub(crate) arrivals: Vec<(u64, Instant)>,
}

fn pipeline_config(checkpoint: &Path) -> PipelineConfig {
    let mut config = PipelineConfig::new(FieldMapping::canonical());
    config.follow =
        FollowConfig { poll_interval: Duration::from_millis(1), ..FollowConfig::default() };
    config.checkpoint = Some(checkpoint.to_path_buf());
    config
}

/// Spins until `counter` reaches `target`, or fails on `abort` / 120 s.
fn wait_counter(counter: &AtomicU64, target: u64, abort: &AtomicBool) -> Result<(), String> {
    let started = Instant::now();
    while counter.load(Ordering::Relaxed) < target {
        if abort.load(Ordering::Relaxed) {
            return Err("pipeline ended early".to_owned());
        }
        if started.elapsed() > Duration::from_secs(120) {
            return Err(format!(
                "pipeline ingested {} of {target} events within 120 s",
                counter.load(Ordering::Relaxed)
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(())
}

/// Tails `log` from offset 0 through `sink` on the calling thread (the
/// pipeline's consumer) while `feeder` runs on a helper thread; once every
/// one of `total` events is ingested the helper requests a graceful drain.
pub(crate) fn run_pipeline(
    log: &Path,
    checkpoint: &Path,
    sink: &mut RunSink<'_>,
    total: u64,
    tracer: Option<&RefCell<Tracer>>,
    feeder: impl FnOnce(&PipelineProgress) -> Result<(), String> + Send,
) -> Result<PipelineRun, String> {
    let config = pipeline_config(checkpoint);
    let follow = config.follow.clone();
    let runner = PipelineRunner::new(config);
    let progress = runner.progress();
    let stop = runner.stop_handle();
    let ended = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let helper = scope.spawn(|| {
            let fed =
                feeder(&progress).and_then(|()| wait_counter(&progress.ingested, total, &ended));
            stop.store(true, Ordering::Relaxed);
            fed
        });
        let mut arrivals = Vec::new();
        let started = Instant::now();
        let outcome = span(tracer, "pipeline.run", || {
            runner.run(LiveSource::tail(log, follow), sink.as_dyn(), |alert| {
                span(tracer, "alert.deliver", || arrivals.push((alert.sequence(), Instant::now())));
            })
        });
        let wall = started.elapsed().as_secs_f64();
        ended.store(true, Ordering::Relaxed);
        let helped = helper.join().map_err(|_| "pipeline helper thread panicked".to_owned())?;
        let report = outcome.map_err(|e| format!("pipeline: {e}"))?;
        helped?;
        Ok(PipelineRun { wall, report, arrivals })
    })
}

/// The offline oracle of an in-process run: `ingest_bytes` over the same
/// bytes, then one batch through a clone of the prototype monitor.
/// Returns the expected alerts and the monitor after the whole stream.
pub(crate) fn indexed_oracle(
    bytes: &[u8],
    sut: &Sut,
) -> Result<(Vec<Alert>, IndexedMonitor), String> {
    let parsed = ingest_bytes(bytes, &FieldMapping::canonical(), &IngestOptions::default())
        .map_err(|e| format!("offline ingest: {e}"))?;
    let mut monitor = sut.proto.clone();
    let alerts = monitor.ingest_batch(&parsed.events);
    let _ = monitor.drain_alerts();
    Ok((alerts, monitor))
}

/// The fleet's oracle: an in-process `IndexedSink` that starts empty,
/// driven in pipeline-sized batches over the offline parse of the bytes.
/// Spans around its monitor calls replay, in this process, the calls each
/// worker makes.
pub(crate) fn fleet_oracle(
    bytes: &[u8],
    fixture: &Fixture,
    sut: &Sut,
    tracer: Option<&RefCell<Tracer>>,
) -> Result<(Vec<Alert>, IndexedMonitor), String> {
    let parsed = ingest_bytes(bytes, &FieldMapping::canonical(), &IngestOptions::default())
        .map_err(|e| format!("offline ingest: {e}"))?;
    let empty = IndexedMonitor::new(
        sut.system.catalog().clone(),
        sut.system.policy().clone(),
        Arc::clone(&sut.index),
    );
    let mut alerts = Vec::new();
    let monitor = match tracer {
        None => {
            let mut sink =
                IndexedSink::new(empty, fixture.services.clone(), fixture.workload.no_consent);
            for batch in parsed.events.chunks(256) {
                alerts.extend(sink.ingest(batch).map_err(|e| format!("oracle: {e}"))?);
            }
            alerts.extend(sink.flush().map_err(|e| format!("oracle: {e}"))?);
            sink.into_monitor()
        }
        Some(tracer) => {
            let mut sink = TracedSink::new(
                Target::Indexed(empty),
                fixture.services.clone(),
                fixture.workload.no_consent,
                tracer,
            );
            for batch in parsed.events.chunks(256) {
                alerts.extend(sink.ingest(batch).map_err(|e| format!("oracle: {e}"))?);
            }
            alerts.extend(sink.flush().map_err(|e| format!("oracle: {e}"))?);
            match sink.target {
                Target::Indexed(monitor) => monitor,
                Target::Fleet(..) => unreachable!("the oracle sink is in-process"),
            }
        }
    };
    Ok((alerts, monitor))
}

/// The open-loop load generator: appends line `i` at its due time
/// `start + i / rate`, writing every line already due in one append.
/// Lateness (write instant minus due time) is recorded per line; with a
/// `sampler`, read lag and queue backlog are sampled about every
/// millisecond.
pub(crate) struct PacedFeed<'a> {
    pub(crate) log: &'a Path,
    pub(crate) rendered: &'a Rendered,
    pub(crate) rate: f64,
    pub(crate) start: Instant,
    pub(crate) late_ms: Vec<f64>,
    pub(crate) samples: Option<Vec<(u64, u64)>>,
}

/// Minimum gap between two appends: lines due inside it share one write.
const MIN_WRITE_GAP: Duration = Duration::from_micros(100);

impl PacedFeed<'_> {
    pub(crate) fn due(&self, line: usize) -> Instant {
        self.start + Duration::from_secs_f64(line as f64 / self.rate)
    }

    pub(crate) fn feed(&mut self, progress: &PipelineProgress) -> Result<(), String> {
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(self.log)
            .map_err(|e| format!("opening {}: {e}", self.log.display()))?;
        let ends = &self.rendered.line_ends;
        let mut next = 0;
        let mut last_sample = Instant::now();
        while next < ends.len() {
            let now = Instant::now();
            let due = self.due(next);
            if now < due {
                std::thread::sleep((due - now).max(MIN_WRITE_GAP));
                continue;
            }
            let elapsed = (now - self.start).as_secs_f64();
            let last = ((elapsed * self.rate).floor() as usize + 1).clamp(next + 1, ends.len());
            let from = if next == 0 { 0 } else { ends[next - 1] };
            file.write_all(&self.rendered.bytes[from..ends[last - 1]])
                .map_err(|e| format!("append: {e}"))?;
            let written = Instant::now();
            for line in next..last {
                self.late_ms.push(crate::stats::millis(written - self.due(line)));
            }
            next = last;
            if let Some(samples) = &mut self.samples {
                if written - last_sample >= Duration::from_millis(1) {
                    last_sample = written;
                    let read = PipelineProgress::get(&progress.bytes);
                    let lag = (ends[next - 1] as u64).saturating_sub(read);
                    let backlog = PipelineProgress::get(&progress.events)
                        .saturating_sub(PipelineProgress::get(&progress.ingested));
                    samples.push((lag, backlog));
                }
            }
            let gap_end = written + MIN_WRITE_GAP;
            let now = Instant::now();
            if now < gap_end {
                std::thread::sleep(gap_end - now);
            }
        }
        Ok(())
    }
}

/// Event-to-alert latencies in ms, in arrival order: each alert's arrival
/// minus the due time of the line that raised it, matched by sequence.
pub(crate) fn latencies_ms(
    events: &[Event],
    feed: &PacedFeed<'_>,
    arrivals: &[(u64, Instant)],
) -> Result<Vec<f64>, String> {
    let line_of: HashMap<u64, usize> =
        events.iter().enumerate().map(|(i, e)| (e.sequence(), i)).collect();
    let latencies = arrivals
        .iter()
        .map(|(sequence, arrival)| {
            let line = line_of
                .get(sequence)
                .ok_or_else(|| format!("alert for unknown sequence {sequence}"))?;
            Ok(crate::stats::millis(arrival.saturating_duration_since(feed.due(*line))))
        })
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(latencies)
}

/// The restart path's input: the final checkpoint file's bytes.
pub(crate) fn read_checkpoint(path: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("reading checkpoint {}: {e}", path.display()))
}

/// In-process restart: checkpoint bytes → `PipelineCheckpoint` →
/// `MonitorSnapshot` → a monitor ready to ingest.
pub(crate) fn resume_indexed(
    bytes: &[u8],
    sut: &Sut,
    tracer: Option<&RefCell<Tracer>>,
) -> Result<IndexedMonitor, String> {
    let checkpoint =
        span(tracer, "pipeline.checkpoint_decode", || PipelineCheckpoint::from_bytes(bytes))
            .map_err(|e| format!("pipeline checkpoint: {e}"))?;
    let snapshot =
        span(tracer, "snapshot.decode", || MonitorSnapshot::from_bytes(&checkpoint.snapshot))
            .map_err(|e| format!("snapshot: {e}"))?;
    span(tracer, "monitor.resume", || resume_snapshot(sut, &snapshot))
}

/// A monitor resumed from an already decoded snapshot.
pub(crate) fn resume_snapshot(
    sut: &Sut,
    snapshot: &MonitorSnapshot,
) -> Result<IndexedMonitor, String> {
    IndexedMonitor::resume_from(
        sut.system.catalog().clone(),
        sut.system.policy().clone(),
        Arc::clone(&sut.index),
        snapshot,
    )
    .map_err(|e| format!("resume: {e}"))
}

/// Fleet restart: checkpoint bytes → `PipelineCheckpoint`, then a fleet
/// relaunched over the workers' final checkpoints, ready to ingest.
pub(crate) fn resume_fleet(
    bytes: &[u8],
    sut: &Sut,
    env: &FleetEnv,
    dir: &Path,
    tracer: Option<&RefCell<Tracer>>,
) -> Result<DistributedMonitor, String> {
    span(tracer, "pipeline.checkpoint_decode", || PipelineCheckpoint::from_bytes(bytes))
        .map_err(|e| format!("pipeline checkpoint: {e}"))?;
    span(tracer, "fleet.relaunch", || env.launch(sut, env.config_at(dir.to_path_buf())))
}

/// The workers' final checkpoints decoded and merged into one snapshot.
pub(crate) fn fleet_snapshot(dir: &Path, workers: usize) -> Result<MonitorSnapshot, String> {
    let mut parts = Vec::new();
    for w in 0..workers {
        let path = dir.join(format!("worker-{w}.ckpt"));
        let file = decode_checkpoint(&read_checkpoint(&path)?)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        parts.push(
            MonitorSnapshot::from_bytes(&file.snapshot)
                .map_err(|e| format!("{}: {e}", path.display()))?,
        );
    }
    MonitorSnapshot::merge(&parts).map_err(|e| format!("merging worker snapshots: {e}"))
}

/// Resumed states must equal the uninterrupted run's, on a sample of users
/// (every `stride`-th of the population plus every user in the stream).
pub(crate) fn gate_states(
    resumed: &IndexedMonitor,
    uninterrupted: &IndexedMonitor,
    population: &[UserProfile],
    events: &[Event],
) -> Result<usize, String> {
    let mut sample: BTreeSet<&UserId> =
        population.iter().step_by(97).map(UserProfile::id).collect();
    sample.extend(events.iter().map(Event::user));
    for user in &sample {
        if resumed.state_of(user) != uninterrupted.state_of(user) {
            return Err(format!("resumed state of `{user}` differs from the uninterrupted run"));
        }
    }
    if resumed.user_count() != uninterrupted.user_count() {
        return Err(format!(
            "resumed monitor holds {} users, the uninterrupted run {}",
            resumed.user_count(),
            uninterrupted.user_count()
        ));
    }
    Ok(sample.len())
}
