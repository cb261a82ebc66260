//! The design-time path: model → LTS → `LtsIndex` → disclosure analysis
//! of the population → compliance check, and its gate against the scan
//! oracles.

use crate::fixture::Fixture;
use crate::trace::{span, Tracer};
use privacy_mde::compliance::{check_lts_batch_indexed, check_lts_scan, ComplianceReport};
use privacy_mde::lts::{Lts, LtsIndex};
use privacy_mde::risk::{DisclosureAnalysis, DisclosureReport};
use std::cell::RefCell;
use std::hint::black_box;

pub(crate) struct Audit {
    pub(crate) lts: Lts,
    pub(crate) disclosure: Vec<DisclosureReport>,
    pub(crate) compliance: ComplianceReport,
}

/// One complete audit, from the system model to both reports.
pub(crate) fn audit(fixture: &Fixture, tracer: Option<&RefCell<Tracer>>) -> Result<Audit, String> {
    let system = &fixture.system;
    let lts =
        span(tracer, "lts.generate", || system.generate_lts_with(&fixture.generator_config()))
            .map_err(|e| format!("LTS generation: {e}"))?;
    let index = span(tracer, "lts.index_build", || LtsIndex::build(&lts));
    let analysis = DisclosureAnalysis::new(system.catalog(), system.policy());
    let disclosure = span(tracer, "risk.disclosure", || {
        analysis.analyse_users_batch(&index, &fixture.users, None)
    });
    let policies = [fixture.policy.clone()];
    let mut compliance =
        span(tracer, "compliance.check", || check_lts_batch_indexed(&lts, &index, &policies, None));
    let compliance = compliance.pop().ok_or("compliance check returned no report")?;
    black_box((&index, &disclosure, &compliance));
    Ok(Audit { lts, disclosure, compliance })
}

/// Checks an audit against the recorded LTS size and the scan oracles.
pub(crate) fn gate(fixture: &Fixture, audit: &Audit) -> Result<(), String> {
    let (states, transitions) = (audit.lts.state_count(), audit.lts.transition_count());
    if let Some(expected) = fixture.workload.expected_lts {
        if (states, transitions) != expected {
            return Err(format!(
                "LTS has {states} states / {transitions} transitions, recorded {} / {}",
                expected.0, expected.1
            ));
        }
    }
    if audit.disclosure.len() != fixture.users.len() {
        return Err(format!(
            "{} disclosure reports for {} users",
            audit.disclosure.len(),
            fixture.users.len()
        ));
    }
    let system = &fixture.system;
    let analysis = DisclosureAnalysis::new(system.catalog(), system.policy());
    let stride = (fixture.users.len() / fixture.workload.scan_sample.max(1)).max(1);
    for (user, report) in fixture.users.iter().zip(&audit.disclosure).step_by(stride) {
        if analysis.assess_scan(&audit.lts, user) != *report {
            return Err(format!(
                "disclosure report of `{}` differs from the scan oracle",
                user.id()
            ));
        }
    }
    if check_lts_scan(&audit.lts, &fixture.policy) != audit.compliance {
        return Err("compliance report differs from the scan oracle".to_owned());
    }
    Ok(())
}
