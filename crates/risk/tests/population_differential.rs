//! Population differential: the batch assessment, which shares one
//! exposure table across a whole population, against the per-user scan
//! oracle on the healthcare case study with potential reads (138,284
//! states, 1,430,952 transitions).
//!
//! Every report must equal [`DisclosureAnalysis::assess_scan`] for its
//! user, finding order included, at one and at two threads. The population
//! is a skewed one, plus the two extremes of consent: a user who consents
//! to every service and a user who consents to none.

use privacy_core::casestudy;
use privacy_lts::{GeneratorConfig, LtsIndex};
use privacy_model::{FieldId, Sensitivity, ServiceId, UserProfile};
use privacy_risk::{DisclosureAnalysis, DisclosureReport};
use privacy_synth::{skewed_population, SkewedPopulationConfig};

#[test]
fn batch_reports_equal_the_scan_oracle_over_a_healthcare_population() {
    let system = casestudy::healthcare().expect("fixture builds");
    let lts = system
        .generate_lts_with(&GeneratorConfig::default().with_potential_reads())
        .expect("healthcare generates within the state bound");
    let catalog = system.catalog();
    let services: Vec<ServiceId> = catalog.services().map(|s| s.id().clone()).collect();
    let fields: Vec<FieldId> = catalog.fields().map(|f| f.id().clone()).collect();

    let mut users = skewed_population(&SkewedPopulationConfig {
        count: 64,
        seed: 16,
        services: services.clone(),
        fields: fields.clone(),
        engaged_fraction: 0.25,
        ..SkewedPopulationConfig::default()
    })
    .profiles;
    let mut everything = UserProfile::new("consents-to-everything");
    let mut nothing = UserProfile::new("consents-to-nothing");
    for service in &services {
        everything.consent_mut().grant(service.clone());
    }
    for field in &fields {
        everything.sensitivities_mut().set(field.clone(), Sensitivity::clamped(1.0));
        nothing.sensitivities_mut().set(field.clone(), Sensitivity::clamped(1.0));
    }
    users.push(everything);
    users.push(nothing);

    let index = LtsIndex::build(&lts);
    let analysis = DisclosureAnalysis::new(catalog, system.policy());
    // The oracle is pure per user; spreading it over the machine's cores
    // only shortens the test.
    let oracle: Vec<DisclosureReport> =
        privacy_lts::batch::parallel_map(&users, None, |user| analysis.assess_scan(&lts, user));
    assert!(!oracle.last().expect("the no-consent user").is_empty());

    for threads in [1, 2] {
        let batch = analysis.analyse_users_batch(&index, &users, Some(threads));
        assert_eq!(batch.len(), users.len());
        for ((user, report), expected) in users.iter().zip(&batch).zip(&oracle) {
            assert_eq!(report, expected, "t={threads}: the report of `{}` differs", user.id());
        }
    }
}
