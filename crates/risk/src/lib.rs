//! # privacy-risk
//!
//! The automated privacy-risk analyses of Section III of *"Identifying
//! Privacy Risks in Distributed Data Services"* (Grace et al., ICDCS 2018).
//!
//! Risk analysis is performed per user on the generated LTS:
//!
//! * [`sensitivity`] — the relative sensitivity `σ(d, a)` of a field with
//!   respect to an actor (zero for *allowed* actors — those involved in
//!   services the user consented to — and the user's declared `σ(d)`
//!   otherwise), plus the sensitivity of whole privacy states and the
//!   sensitivity *change* caused by a transition;
//! * [`likelihood`] — the likelihood model: a sum of uncorrelated scenario
//!   probabilities (accidental access, delete-preview exposure, execution of
//!   a non-agreed service) per actor/datastore;
//! * [`matrix`] — categorisation of both dimensions into low / medium / high
//!   and the combining risk table;
//! * [`disclosure`] — the unwanted-disclosure analysis (Case Study A): finds
//!   non-allowed actors that can identify fields the user is sensitive
//!   about, attaches risk labels to the corresponding `read` transitions and
//!   adds potential-read risk transitions to the LTS. Queries resolve
//!   through the columnar [`privacy_lts::LtsIndex`] (with the original scan
//!   strategy retained for differential testing), and
//!   [`DisclosureAnalysis::analyse_users_batch`] assesses whole user
//!   populations over one index build in parallel. The read-only assessment
//!   builds one exposure table per index: the user-independent facts of
//!   every readable, exposed (datastore, field, actor) triple, with one
//!   existing-read list per (actor, field) pair that every report shares.
//!   Per user only the actor partition and the impact remain;
//! * [`pseudonym`] — the pseudonymisation (value) risk analysis (Case Study
//!   B, Table I, Fig. 4): computes per-record value risks for each set of
//!   quasi-identifiers readable by an adversary actor, counts policy
//!   violations and adds dotted risk-transitions to the LTS;
//! * [`reident`] — the re-identification risk dimension the paper names and
//!   defers (prosecutor / marketer attacker models over the same visible
//!   quasi-identifier combinations);
//! * [`report`] — a combined, renderable risk report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod disclosure;
pub mod likelihood;
pub mod matrix;
pub mod pseudonym;
pub mod reident;
pub mod report;
pub mod sensitivity;

pub use disclosure::{DisclosureAnalysis, DisclosureFinding, DisclosureReport};
pub use likelihood::{LikelihoodModel, Scenario, ScenarioKind};
pub use matrix::RiskMatrix;
pub use pseudonym::{PseudonymAnalysis, PseudonymFinding, PseudonymReport};
pub use reident::{reident_risk, ReidentFinding, ReidentPolicy, ReidentReport};
pub use report::RiskReport;
pub use sensitivity::SensitivityModel;

/// Convenience re-export of the most commonly used items.
pub mod prelude {
    pub use crate::disclosure::{DisclosureAnalysis, DisclosureFinding, DisclosureReport};
    pub use crate::likelihood::{LikelihoodModel, Scenario, ScenarioKind};
    pub use crate::matrix::RiskMatrix;
    pub use crate::pseudonym::{PseudonymAnalysis, PseudonymFinding, PseudonymReport};
    pub use crate::reident::{reident_risk, ReidentFinding, ReidentPolicy, ReidentReport};
    pub use crate::report::RiskReport;
    pub use crate::sensitivity::SensitivityModel;
}
