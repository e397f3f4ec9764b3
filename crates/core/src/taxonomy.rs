//! The thread-type taxonomy of Figure 2.
//!
//! | proportion specified | period specified | progress metric | class |
//! |---|---|---|---|
//! | yes | yes | n/a | real-time |
//! | yes | no  | n/a | aperiodic real-time |
//! | no  | —   | yes | real-rate |
//! | no  | —   | no  | miscellaneous |

use crate::squish::Importance;
use rrs_scheduler::{Period, Proportion};
use serde::{Deserialize, Serialize};

/// The controller's classification of a job (Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobClass {
    /// Both proportion and period specified: a classic reservation.  The
    /// controller does not modify the allocation in practice.
    RealTime,
    /// Proportion specified but no period: the controller assigns the
    /// default period.
    AperiodicRealTime,
    /// No proportion or period, but a visible progress metric: the
    /// controller estimates both from progress.
    RealRate,
    /// No information at all: the controller applies a constant-pressure
    /// heuristic and the default period.
    Miscellaneous,
}

impl JobClass {
    /// Returns `true` if this class's allocation may be squished under
    /// overload.  Real-time and aperiodic real-time jobs hold reservations
    /// and are instead subject to admission control.
    pub(crate) fn is_squishable(self) -> bool {
        matches!(self, JobClass::RealRate | JobClass::Miscellaneous)
    }
}

impl std::fmt::Display for JobClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            JobClass::RealTime => "real-time",
            JobClass::AperiodicRealTime => "aperiodic real-time",
            JobClass::RealRate => "real-rate",
            JobClass::Miscellaneous => "miscellaneous",
        };
        write!(f, "{s}")
    }
}

/// What a job told the system about itself when it registered.
///
/// The class is derived from which fields are present, exactly as in
/// Figure 2; the progress metric itself lives in the
/// [`rrs_queue::MetricRegistry`], so here only its existence matters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// The proportion the job asked for, if it specified one.
    pub proportion: Option<Proportion>,
    /// The period the job asked for, if it specified one.
    pub period: Option<Period>,
    /// Whether the job exposes at least one progress metric through the
    /// meta-interface.
    pub has_progress_metric: bool,
    /// The job's importance weight under weighted fair-share squishing.
    /// Defaults to `Importance::NORMAL`; set it with
    /// [`JobSpec::with_importance`] — the importance knob lives on the
    /// spec, not on per-backend `*_with_importance` method pairs.
    #[serde(default)]
    pub importance: Importance,
}

impl JobSpec {
    /// A real-time job: proportion and period both specified.
    pub fn real_time(proportion: Proportion, period: Period) -> Self {
        Self {
            proportion: Some(proportion),
            period: Some(period),
            has_progress_metric: false,
            importance: Importance::NORMAL,
        }
    }

    /// An aperiodic real-time job: proportion specified, period unknown.
    pub fn aperiodic_real_time(proportion: Proportion) -> Self {
        Self {
            proportion: Some(proportion),
            period: None,
            has_progress_metric: false,
            importance: Importance::NORMAL,
        }
    }

    /// A real-rate job: nothing specified but progress is observable.
    pub fn real_rate() -> Self {
        Self {
            proportion: None,
            period: None,
            has_progress_metric: true,
            importance: Importance::NORMAL,
        }
    }

    /// A miscellaneous job: nothing specified, nothing observable.
    pub fn miscellaneous() -> Self {
        Self {
            proportion: None,
            period: None,
            has_progress_metric: false,
            importance: Importance::NORMAL,
        }
    }

    /// Derives the job class per Figure 2.
    pub fn classify(&self) -> JobClass {
        match (self.proportion, self.period, self.has_progress_metric) {
            (Some(_), Some(_), _) => JobClass::RealTime,
            (Some(_), None, _) => JobClass::AperiodicRealTime,
            (None, _, true) => JobClass::RealRate,
            (None, _, false) => JobClass::Miscellaneous,
        }
    }

    /// Marks the spec as having (or not having) a registered progress
    /// metric; called when symbiotic interfaces are attached or detached at
    /// run time.
    pub(crate) fn with_progress_metric(mut self, has: bool) -> Self {
        self.has_progress_metric = has;
        self
    }

    /// Returns a copy with the given importance weight.
    ///
    /// Importance biases weighted fair-share squishing under overload; it
    /// never affects classification and can never starve another job.
    pub fn with_importance(mut self, importance: Importance) -> Self {
        self.importance = importance;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_2_classification() {
        let p = Proportion::from_ppt(100);
        let t = Period::from_millis(30);
        assert_eq!(JobSpec::real_time(p, t).classify(), JobClass::RealTime);
        assert_eq!(
            JobSpec::aperiodic_real_time(p).classify(),
            JobClass::AperiodicRealTime
        );
        assert_eq!(JobSpec::real_rate().classify(), JobClass::RealRate);
        assert_eq!(JobSpec::miscellaneous().classify(), JobClass::Miscellaneous);
    }

    #[test]
    fn progress_metric_is_irrelevant_when_proportion_specified() {
        // "N/A" rows of Figure 2: a real-time job with a metric is still
        // real-time.
        let p = Proportion::from_ppt(100);
        let t = Period::from_millis(30);
        let spec = JobSpec::real_time(p, t).with_progress_metric(true);
        assert_eq!(spec.classify(), JobClass::RealTime);
        let spec = JobSpec::aperiodic_real_time(p).with_progress_metric(true);
        assert_eq!(spec.classify(), JobClass::AperiodicRealTime);
    }

    #[test]
    fn metric_attachment_promotes_misc_to_real_rate() {
        let spec = JobSpec::miscellaneous().with_progress_metric(true);
        assert_eq!(spec.classify(), JobClass::RealRate);
    }

    #[test]
    fn requested_reservation_only_for_real_time() {
        let p = Proportion::from_ppt(100);
        let t = Period::from_millis(30);
        // A reservation is requested only by a spec that fixes both halves.
        let requested = |spec: JobSpec| spec.proportion.zip(spec.period);
        assert_eq!(requested(JobSpec::real_time(p, t)), Some((p, t)));
        assert_eq!(requested(JobSpec::aperiodic_real_time(p)), None);
        assert_eq!(requested(JobSpec::real_rate()), None);
    }

    #[test]
    fn squishability_and_adaptivity() {
        assert!(!JobClass::RealTime.is_squishable());
        assert!(!JobClass::AperiodicRealTime.is_squishable());
        assert!(JobClass::RealRate.is_squishable());
        assert!(JobClass::Miscellaneous.is_squishable());
    }

    #[test]
    fn importance_lives_on_the_spec() {
        let spec = JobSpec::miscellaneous();
        assert_eq!(spec.importance, Importance::NORMAL);
        let weighted = spec.with_importance(Importance::new(4.0));
        assert_eq!(weighted.importance.weight(), 4.0);
        // Importance never changes the Figure 2 classification.
        assert_eq!(weighted.classify(), spec.classify());
        // Serde: specs written before the field existed deserialise to
        // the default importance.
        let legacy = r#"{"proportion":null,"period":null,"has_progress_metric":false}"#;
        let back: JobSpec = serde_json::from_str(legacy).unwrap();
        assert_eq!(back.importance, Importance::NORMAL);
    }

    #[test]
    fn display_names() {
        assert_eq!(JobClass::RealTime.to_string(), "real-time");
        assert_eq!(JobClass::RealRate.to_string(), "real-rate");
        assert_eq!(JobClass::Miscellaneous.to_string(), "miscellaneous");
        assert_eq!(
            JobClass::AperiodicRealTime.to_string(),
            "aperiodic real-time"
        );
    }
}
