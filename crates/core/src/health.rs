//! Per-target degradation accounting for fault-isolated runs.
//!
//! FRaC's NS score aggregates hundreds of independent per-feature models, so
//! a production run must degrade per target, not die: a degenerate column is
//! quarantined, a diverged solve retries on the strict solver, a panicking
//! trainer is replaced by the baseline predictor, and a target with nothing
//! left is dropped with the NS sum renormalized over the survivors. Every
//! one of those decisions is recorded here as a [`TargetHealth`] event inside
//! the run's [`RunHealth`], which rides on
//! [`crate::resources::ResourceReport`] and is surfaced by the CLI. A clean
//! run produces no events — `RunHealth` stays empty and costs nothing.

use frac_dataset::QuarantineReason;

/// Which rung of the fallback ladder rescued a member fit.
///
/// The ladder is Fast → Strict → baseline → drop: a non-converged fast
/// solve retries on the strict reference solver; any other failure (or a
/// strict failure, or a panic) substitutes the baseline predictor; a member
/// that even the baseline cannot fit is dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackKind {
    /// The strict reference solver replaced a non-converged fast solve.
    StrictSolver,
    /// The baseline predictor (constant mean / majority class) replaced the
    /// configured model family.
    Baseline,
}

impl std::fmt::Display for FallbackKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FallbackKind::StrictSolver => write!(f, "strict solver"),
            FallbackKind::Baseline => write!(f, "baseline predictor"),
        }
    }
}

/// What happened to one target (or one of its ensemble members).
#[derive(Debug, Clone, PartialEq)]
pub enum TargetOutcome {
    /// Poisoned (`±Inf`) cells in the target's column were rewritten to
    /// missing before training; the target then trained normally.
    Sanitized {
        /// Number of rewritten cells in this column.
        cells: usize,
    },
    /// The ingestion screen flagged the column as degenerate
    /// (zero variance / single class) and the baseline predictor was
    /// substituted without running a solver.
    Quarantined {
        /// The screening verdict.
        reason: QuarantineReason,
    },
    /// One member's fit failed and a fallback rung produced its model.
    Degraded {
        /// Input-set (ensemble member) index within the target's plan.
        member: usize,
        /// Which rung rescued the fit.
        fallback: FallbackKind,
        /// The original failure, for diagnostics.
        detail: String,
    },
    /// One ensemble member could not be fitted even by the baseline rung
    /// and was removed; the target survives on its remaining members.
    MemberDropped {
        /// Input-set (ensemble member) index within the target's plan.
        member: usize,
        /// The final failure, for diagnostics.
        detail: String,
    },
    /// The target could not be fitted at all and was removed from the
    /// model; NS scores are renormalized over the survivors.
    Dropped {
        /// Why nothing could be fitted.
        reason: String,
    },
}

impl std::fmt::Display for TargetOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TargetOutcome::Sanitized { cells } => {
                write!(f, "sanitized {cells} non-finite cell(s)")
            }
            TargetOutcome::Quarantined { reason } => {
                write!(f, "quarantined ({reason}); baseline substituted")
            }
            TargetOutcome::Degraded { member, fallback, detail } => {
                write!(f, "member {member} fell back to {fallback} ({detail})")
            }
            TargetOutcome::MemberDropped { member, detail } => {
                write!(f, "member {member} dropped: {detail}")
            }
            TargetOutcome::Dropped { reason } => write!(f, "dropped: {reason}"),
        }
    }
}

/// One degradation event, tied to its target feature.
#[derive(Debug, Clone, PartialEq)]
pub struct TargetHealth {
    /// Target feature index (into the training schema).
    pub target: usize,
    /// What happened.
    pub outcome: TargetOutcome,
}

/// Health report of one fit (or several merged sequential fits).
///
/// `Default` is the clean report: zero targets, no events — exactly what a
/// run that never hit a fault produces, so equality against
/// `RunHealth::default()` is meaningful only through [`RunHealth::is_clean`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunHealth {
    /// Targets the training plan asked for.
    pub targets_planned: usize,
    /// Targets that produced a usable model (possibly degraded).
    pub targets_survived: usize,
    /// Total `±Inf` cells sanitized across the training set.
    pub sanitized_cells: usize,
    /// Every degradation, quarantine, and drop, in target order.
    pub events: Vec<TargetHealth>,
}

impl RunHealth {
    /// No degradation of any kind: every planned target fitted cleanly.
    pub fn is_clean(&self) -> bool {
        self.events.is_empty()
            && self.sanitized_cells == 0
            && self.targets_survived == self.targets_planned
    }

    /// Number of dropped targets.
    pub fn n_dropped(&self) -> usize {
        self.count(|o| matches!(o, TargetOutcome::Dropped { .. }))
    }

    /// Number of quarantined (baseline-substituted) targets.
    pub fn n_quarantined(&self) -> usize {
        self.count(|o| matches!(o, TargetOutcome::Quarantined { .. }))
    }

    /// Number of member fits rescued by a fallback rung.
    pub fn n_degraded(&self) -> usize {
        self.count(|o| matches!(o, TargetOutcome::Degraded { .. }))
    }

    fn count(&self, pred: impl Fn(&TargetOutcome) -> bool) -> usize {
        self.events.iter().filter(|e| pred(&e.outcome)).count()
    }

    /// All events touching one target.
    pub fn events_for(&self, target: usize) -> impl Iterator<Item = &TargetHealth> {
        self.events.iter().filter(move |e| e.target == target)
    }

    /// Fold in the health of a run executed after this one (sequential
    /// composition — ensemble members, replicates): counts add, events
    /// concatenate.
    pub fn merge_sequential(&mut self, other: &RunHealth) {
        self.targets_planned += other.targets_planned;
        self.targets_survived += other.targets_survived;
        self.sanitized_cells += other.sanitized_cells;
        self.events.extend(other.events.iter().cloned());
    }

    /// Fold in the health of a *shard* of the same run: a disjoint subset of
    /// targets fitted against the same training set, possibly in another
    /// process.
    ///
    /// Differs from [`Self::merge_sequential`] in two ways that matter for
    /// sharded runs:
    ///
    /// - `sanitized_cells` takes the max, not the sum. Every worker screens
    ///   the same full training matrix, so each shard reports the same
    ///   global sanitization count; adding them would multi-count cells.
    /// - `events` are re-sorted by target index (stably, so multiple events
    ///   on one target keep their ladder order). Shards interleave targets
    ///   round-robin, and the merged report must read identically no matter
    ///   how many shards produced it or in which order they were merged.
    pub fn merge(&mut self, other: &RunHealth) {
        self.targets_planned += other.targets_planned;
        self.targets_survived += other.targets_survived;
        self.sanitized_cells = self.sanitized_cells.max(other.sanitized_cells);
        self.events.extend(other.events.iter().cloned());
        self.events.sort_by_key(|e| e.target);
    }

    /// One-line human summary, e.g. for CLI output.
    pub fn summary(&self) -> String {
        if self.is_clean() {
            format!("all {} targets fitted cleanly", self.targets_planned)
        } else {
            format!(
                "{}/{} targets survived ({} quarantined, {} member fallbacks, {} dropped, {} cells sanitized)",
                self.targets_survived,
                self.targets_planned,
                self.n_quarantined(),
                self.n_degraded(),
                self.n_dropped(),
                self.sanitized_cells,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn degraded_health() -> RunHealth {
        RunHealth {
            targets_planned: 4,
            targets_survived: 3,
            sanitized_cells: 2,
            events: vec![
                TargetHealth {
                    target: 0,
                    outcome: TargetOutcome::Sanitized { cells: 2 },
                },
                TargetHealth {
                    target: 1,
                    outcome: TargetOutcome::Quarantined {
                        reason: QuarantineReason::ZeroVariance,
                    },
                },
                TargetHealth {
                    target: 2,
                    outcome: TargetOutcome::Degraded {
                        member: 0,
                        fallback: FallbackKind::StrictSolver,
                        detail: "no finite solution after 60 epochs".into(),
                    },
                },
                TargetHealth {
                    target: 3,
                    outcome: TargetOutcome::Dropped { reason: "all values missing".into() },
                },
            ],
        }
    }

    #[test]
    fn default_is_clean() {
        assert!(RunHealth::default().is_clean());
        assert_eq!(RunHealth::default().summary(), "all 0 targets fitted cleanly");
    }

    #[test]
    fn counts_by_outcome_kind() {
        let h = degraded_health();
        assert!(!h.is_clean());
        assert_eq!(h.n_dropped(), 1);
        assert_eq!(h.n_quarantined(), 1);
        assert_eq!(h.n_degraded(), 1);
        assert_eq!(h.events_for(2).count(), 1);
        assert_eq!(h.events_for(7).count(), 0);
    }

    #[test]
    fn merge_adds_counts_and_concatenates_events() {
        let mut a = degraded_health();
        let b = degraded_health();
        a.merge_sequential(&b);
        assert_eq!(a.targets_planned, 8);
        assert_eq!(a.targets_survived, 6);
        assert_eq!(a.sanitized_cells, 4);
        assert_eq!(a.events.len(), 8);
    }

    #[test]
    fn shard_merge_rebalances_counts_and_orders_events_by_target() {
        // Two shards of one 5-target run over the same training matrix:
        // shard 0 took targets {0, 2, 4}, shard 1 took {1, 3}. Both saw the
        // same 2 sanitized cells (each worker screens the full matrix).
        let shard0 = RunHealth {
            targets_planned: 3,
            targets_survived: 3,
            sanitized_cells: 2,
            events: vec![
                TargetHealth { target: 0, outcome: TargetOutcome::Sanitized { cells: 2 } },
                TargetHealth {
                    target: 4,
                    outcome: TargetOutcome::Quarantined {
                        reason: QuarantineReason::ZeroVariance,
                    },
                },
            ],
        };
        let shard1 = RunHealth {
            targets_planned: 2,
            targets_survived: 1,
            sanitized_cells: 2,
            events: vec![TargetHealth {
                target: 1,
                outcome: TargetOutcome::Dropped { reason: "all values missing".into() },
            }],
        };

        // Merge in both orders: the result must be identical.
        let mut a = shard0.clone();
        a.merge(&shard1);
        let mut b = shard1.clone();
        b.merge(&shard0);
        assert_eq!(a, b);

        assert_eq!(a.targets_planned, 5);
        assert_eq!(a.targets_survived, 4);
        assert_eq!(a.sanitized_cells, 2, "same matrix — cells must not double-count");
        let order: Vec<usize> = a.events.iter().map(|e| e.target).collect();
        assert_eq!(order, vec![0, 1, 4], "events sorted by target index");
    }

    #[test]
    fn shard_merge_keeps_ladder_order_within_a_target() {
        // Two events on the same target must keep their relative (ladder)
        // order through the stable sort.
        let mut base = RunHealth {
            targets_planned: 1,
            targets_survived: 1,
            sanitized_cells: 0,
            events: vec![
                TargetHealth { target: 2, outcome: TargetOutcome::Sanitized { cells: 1 } },
                TargetHealth {
                    target: 2,
                    outcome: TargetOutcome::Degraded {
                        member: 0,
                        fallback: FallbackKind::Baseline,
                        detail: "panicked".into(),
                    },
                },
            ],
        };
        let other = RunHealth {
            targets_planned: 1,
            targets_survived: 1,
            sanitized_cells: 0,
            events: vec![TargetHealth {
                target: 0,
                outcome: TargetOutcome::Sanitized { cells: 1 },
            }],
        };
        base.merge(&other);
        assert_eq!(base.events.len(), 3);
        assert_eq!(base.events[0].target, 0);
        assert!(matches!(base.events[1].outcome, TargetOutcome::Sanitized { .. }));
        assert!(matches!(base.events[2].outcome, TargetOutcome::Degraded { .. }));
    }

    #[test]
    fn summary_mentions_every_degradation_class() {
        let s = degraded_health().summary();
        for needle in ["3/4", "1 quarantined", "1 member fallbacks", "1 dropped", "2 cells"] {
            assert!(s.contains(needle), "`{s}` missing `{needle}`");
        }
    }

    #[test]
    fn outcome_display_is_actionable() {
        let o = TargetOutcome::Degraded {
            member: 2,
            fallback: FallbackKind::Baseline,
            detail: "panicked".into(),
        };
        let s = o.to_string();
        assert!(s.contains("member 2") && s.contains("baseline"), "{s}");
    }
}
