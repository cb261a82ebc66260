//! Workload definitions and the seeded inputs the harness generates for
//! them: the system model, the user population, the event stream and its
//! NDJSON rendering. Everything here is the harness's work and is never
//! timed as part of the system under test.

use privacy_mde::compliance::{ActorMatcher, FieldMatcher, PrivacyPolicy, Statement};
use privacy_mde::core::{casestudy, PrivacySystem};
use privacy_mde::lts::{ActionKind, GeneratorConfig};
use privacy_mde::model::{FieldId, Purpose, Record, ServiceId, UserId, UserProfile};
use privacy_mde::runtime::{Event, ServiceEngine};
use privacy_mde::synth::{
    random_profiles, random_workload, render_events, skewed_population, LogFormat,
    ProfileGeneratorConfig, SkewedPopulationConfig, WorkloadConfig,
};

/// Which monitor sink the live phases drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SinkKind {
    /// The in-process `IndexedMonitor` through `IndexedSink`.
    Indexed,
    /// A `DistributedMonitor` over `privacy-shardd` workers through
    /// `DistributedSink`.
    Fleet { workers: usize },
}

/// How the user population is drawn.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Population {
    /// `random_profiles`: every user draws consents and sensitivities
    /// from the same Bernoulli; every user generates events.
    Random { count: usize },
    /// `skewed_population`: a cold majority and an engaged ≈10% minority.
    /// Only the engaged users generate events unless `all_active`.
    Skewed { count: usize, all_active: bool },
}

/// Share of `--seconds` each measured phase gets.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Shares {
    pub(crate) drain: f64,
    pub(crate) paced: f64,
    pub(crate) resume: f64,
    pub(crate) audit: f64,
}

/// One benchmark workload. Every number here is fixed: nothing is derived
/// from the machine at run time.
#[derive(Debug, Clone)]
pub(crate) struct Workload {
    pub(crate) name: &'static str,
    pub(crate) population: Population,
    /// Pre-register the population before the first event (otherwise the
    /// sink registers users on first sight).
    pub(crate) preregister: bool,
    /// Users first seen in the log are registered without consents
    /// (`IndexedSink`/`DistributedSink`'s `no_consent`), so the monitor
    /// alerts on their disclosures.
    pub(crate) no_consent: bool,
    pub(crate) sink: SinkKind,
    /// Generate the LTS with `explore_potential_reads`.
    pub(crate) potential_reads: bool,
    /// Events in the catch-up (drain) log.
    pub(crate) drain_events: usize,
    /// Offered rate of the open-loop paced phase, events per second.
    pub(crate) paced_rate: f64,
    /// Events per paced rep (a prefix of the drain log's stream); each rep
    /// yields one p50/p99 pair and the run reports their medians.
    pub(crate) paced_events: usize,
    /// Set-ups per run, spread over the rounds; `setup_s` is their median.
    pub(crate) setup_reps: usize,
    /// Rounds per run: each is a fresh set-up and one slice of every phase.
    pub(crate) rounds: usize,
    pub(crate) shares: Shares,
    /// The LTS size the gate expects, where one is recorded.
    pub(crate) expected_lts: Option<(usize, usize)>,
    /// Users whose indexed disclosure report is compared with the scan
    /// oracle.
    pub(crate) scan_sample: usize,
}

pub(crate) const WORKLOADS: &[Workload] = &[
    Workload {
        name: "tail_healthcare",
        population: Population::Random { count: 256 },
        preregister: true,
        no_consent: false,
        sink: SinkKind::Indexed,
        potential_reads: false,
        drain_events: 50_000,
        paced_rate: 20_000.0,
        paced_events: 8_000,
        setup_reps: 24,
        rounds: 6,
        shares: Shares { drain: 0.3, paced: 0.5, resume: 0.05, audit: 0.15 },
        expected_lts: None,
        scan_sample: 32,
    },
    Workload {
        name: "population_checkpoint",
        population: Population::Skewed { count: 65_536, all_active: false },
        preregister: true,
        no_consent: false,
        sink: SinkKind::Indexed,
        potential_reads: false,
        drain_events: 12_288,
        paced_rate: 4_000.0,
        paced_events: 4_000,
        setup_reps: 6,
        rounds: 6,
        shares: Shares { drain: 0.35, paced: 0.35, resume: 0.05, audit: 0.25 },
        expected_lts: None,
        scan_sample: 32,
    },
    Workload {
        name: "fleet_healthcare",
        population: Population::Random { count: 256 },
        preregister: false,
        no_consent: true,
        sink: SinkKind::Fleet { workers: 2 },
        potential_reads: false,
        drain_events: 50_000,
        paced_rate: 10_000.0,
        paced_events: 8_000,
        setup_reps: 24,
        rounds: 6,
        shares: Shares { drain: 0.35, paced: 0.5, resume: 0.05, audit: 0.1 },
        expected_lts: None,
        scan_sample: 32,
    },
    Workload {
        name: "design_audit",
        population: Population::Skewed { count: 256, all_active: true },
        preregister: true,
        no_consent: false,
        sink: SinkKind::Indexed,
        potential_reads: true,
        drain_events: 20_000,
        paced_rate: 10_000.0,
        paced_events: 4_000,
        setup_reps: 3,
        rounds: 3,
        shares: Shares { drain: 0.1, paced: 0.3, resume: 0.05, audit: 0.55 },
        expected_lts: Some((138_284, 1_430_952)),
        scan_sample: 2,
    },
];

pub(crate) fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64: derives independent sub-seeds from the run's `--seed`.
pub(crate) fn sub_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The generated inputs of one run.
pub(crate) struct Fixture {
    pub(crate) workload: &'static Workload,
    pub(crate) system: PrivacySystem,
    pub(crate) services: Vec<ServiceId>,
    /// The population: pre-registered (where the workload says so) and
    /// audited.
    pub(crate) users: Vec<UserProfile>,
    /// The engine-produced event stream, long enough for both live phases.
    pub(crate) events: Vec<Event>,
    /// The compliance policy the audit checks.
    pub(crate) policy: PrivacyPolicy,
}

impl Fixture {
    pub(crate) fn build(workload: &'static Workload, seed: u64) -> Result<Self, String> {
        let system = casestudy::healthcare().map_err(|e| format!("healthcare model: {e}"))?;
        let catalog = system.catalog();
        let services: Vec<ServiceId> = catalog.services().map(|s| s.id().clone()).collect();
        let fields: Vec<FieldId> = catalog.fields().map(|f| f.id().clone()).collect();
        let (users, active): (Vec<UserProfile>, Vec<UserId>) = match workload.population {
            Population::Random { count } => {
                let users = random_profiles(&ProfileGeneratorConfig {
                    count,
                    seed: sub_seed(seed, 1),
                    services: services.clone(),
                    consent_probability: 0.5,
                    fields: fields.clone(),
                    sensitivity_probability: 0.6,
                });
                let active = users.iter().map(|u| u.id().clone()).collect();
                (users, active)
            }
            Population::Skewed { count, all_active } => {
                let population = skewed_population(&SkewedPopulationConfig {
                    count,
                    seed: sub_seed(seed, 2),
                    services: services.clone(),
                    fields: fields.clone(),
                    ..SkewedPopulationConfig::default()
                });
                let active = if all_active {
                    population.profiles.iter().map(|u| u.id().clone()).collect()
                } else {
                    population.engaged
                };
                (population.profiles, active)
            }
        };
        let wanted = workload.drain_events.max(workload.paced_events);
        let events = event_stream(&system, &services, &fields, &active, wanted, sub_seed(seed, 3))?;
        let policy = audit_policy(&system, workload.potential_reads);
        Ok(Fixture { workload, system, services, users, events, policy })
    }

    pub(crate) fn generator_config(&self) -> GeneratorConfig {
        let mut config = GeneratorConfig::default().with_max_states(5_000_000);
        config.explore_potential_reads = self.workload.potential_reads;
        config
    }
}

/// Replays seeded requests through the service engine until the log holds
/// at least `wanted` events, and returns its first `wanted` events.
fn event_stream(
    system: &PrivacySystem,
    services: &[ServiceId],
    fields: &[FieldId],
    active: &[UserId],
    wanted: usize,
    seed: u64,
) -> Result<Vec<Event>, String> {
    if active.is_empty() {
        return Err("no active users to generate events".to_owned());
    }
    let record = fields
        .iter()
        .fold(Record::new(), |record, field| record.with(field.clone(), format!("v-{field}")));
    let mut requests = wanted / 3 + 64;
    loop {
        let mut engine = ServiceEngine::new(
            system.catalog().clone(),
            system.dataflows().clone(),
            system.policy().clone(),
        );
        let workload = random_workload(&WorkloadConfig {
            length: requests,
            seed,
            users: active.to_vec(),
            services: services.iter().map(|s| (s.clone(), 1.0)).collect(),
        });
        for request in &workload {
            let _ = engine.execute(request.user(), request.service(), &record);
        }
        let events = engine.log().events();
        if events.len() >= wanted {
            return Ok(events[..wanted].to_vec());
        }
        requests *= 2;
    }
}

/// The stream rendered as NDJSON, with the byte range of each line
/// (terminator included).
pub(crate) struct Rendered {
    pub(crate) bytes: Vec<u8>,
    pub(crate) line_ends: Vec<usize>,
}

pub(crate) fn render(events: &[Event]) -> Result<Rendered, String> {
    let mut text = render_events(events, LogFormat::Json);
    if !text.ends_with('\n') {
        text.push('\n');
    }
    let bytes = text.into_bytes();
    let line_ends: Vec<usize> =
        bytes.iter().enumerate().filter(|(_, b)| **b == b'\n').map(|(i, _)| i + 1).collect();
    if line_ends.len() != events.len() {
        return Err(format!("{} lines rendered for {} events", line_ends.len(), events.len()));
    }
    Ok(Rendered { bytes, line_ends })
}

/// A privacy-hygiene policy over the model's own vocabulary: per-actor
/// deletion bans, bans on an actor outside the model, right to erasure,
/// purpose limitation (declared flows only: potential reads carry no
/// purpose) and per-field exposure bounds.
fn audit_policy(system: &PrivacySystem, potential_reads: bool) -> PrivacyPolicy {
    let catalog = system.catalog();
    let mut policy = PrivacyPolicy::new("benchmark hygiene policy");
    for (i, actor) in catalog.identifying_actors().enumerate() {
        policy.add_statement(Statement::forbid(
            format!("NO-DELETE-{i}"),
            format!("{} never deletes records", actor.id()),
            ActorMatcher::only([actor.id().clone()]),
            Some(ActionKind::Delete),
            FieldMatcher::Any,
        ));
    }
    for (i, action) in ActionKind::ALL.iter().enumerate() {
        policy.add_statement(Statement::forbid(
            format!("NO-AUDITOR-{i}"),
            format!("the external auditor never performs {action}"),
            ActorMatcher::only([privacy_mde::model::ActorId::new("ExternalAuditor")]),
            Some(*action),
            FieldMatcher::Any,
        ));
    }
    policy.add_statement(Statement::require_erasure(
        "ERASE-ALL",
        "every processed field must be erasable",
        FieldMatcher::Any,
    ));
    let fields: Vec<FieldId> = catalog.fields().map(|f| f.id().clone()).collect();
    if !potential_reads {
        if let Some(core) = fields.first() {
            policy.add_statement(Statement::purpose_limit(
                "PURPOSE-CORE",
                "the core record is only processed for declared purposes",
                FieldMatcher::only([core.clone()]),
                ["intake", "persist", "process", "collect", "disclose"]
                    .map(|p| Purpose::new(p).expect("valid purpose literal")),
            ));
        }
    }
    for (i, field) in fields.iter().enumerate() {
        policy.add_statement(Statement::max_exposure(
            format!("EXPOSE-{i}"),
            format!("at most two actors may identify {field}"),
            field.clone(),
            2,
        ));
    }
    policy
}
