//! Privacy constraints: k-anonymity plus optional extra models, with a
//! tuple-suppression budget.
//!
//! Classical full-domain algorithms pair a generalization scheme with
//! *suppression of outliers*: after recoding, tuples in classes that still
//! violate the requirement are removed — here, retained in fully
//! generalized form per the paper's §3 convention — provided no more than
//! `max_suppression` tuples need it.

use std::sync::Arc;

use anoncmp_microdata::prelude::{AnonymizedTable, NodePartition};

use crate::models::{KAnonymity, PrivacyModel};

/// A conjunction of privacy requirements with a suppression budget.
///
/// ```
/// use std::sync::Arc;
/// use anoncmp_anonymize::prelude::*;
///
/// let constraint = Constraint::k_anonymity(5)
///     .with_suppression(20)
///     .with_model(Arc::new(LDiversity::distinct(2)));
/// assert_eq!(
///     constraint.describe(),
///     "5-anonymity + distinct 2-diversity (≤ 20 suppressed)"
/// );
/// ```
#[derive(Clone)]
pub struct Constraint {
    /// The k of the base k-anonymity requirement.
    pub k: usize,
    /// Maximum number of tuples that may be suppressed to reach
    /// satisfaction.
    pub max_suppression: usize,
    /// Additional per-class models (ℓ-diversity, t-closeness, …).
    pub models: Vec<Arc<dyn PrivacyModel>>,
}

impl std::fmt::Debug for Constraint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Constraint")
            .field("k", &self.k)
            .field("max_suppression", &self.max_suppression)
            .field(
                "models",
                &self.models.iter().map(|m| m.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Constraint {
    /// Plain k-anonymity with no suppression budget.
    pub fn k_anonymity(k: usize) -> Self {
        Constraint {
            k,
            max_suppression: 0,
            models: Vec::new(),
        }
    }

    /// Sets the suppression budget (number of tuples).
    pub fn with_suppression(mut self, max_suppression: usize) -> Self {
        self.max_suppression = max_suppression;
        self
    }

    /// Adds an extra privacy model.
    pub fn with_model(mut self, model: Arc<dyn PrivacyModel>) -> Self {
        self.models.push(model);
        self
    }

    /// Human-readable description, e.g. `"3-anonymity + distinct
    /// 2-diversity (≤ 5 suppressed)"`.
    pub fn describe(&self) -> String {
        let mut s = format!("{}-anonymity", self.k);
        for m in &self.models {
            s.push_str(" + ");
            s.push_str(&m.name());
        }
        if self.max_suppression > 0 {
            s.push_str(&format!(" (≤ {} suppressed)", self.max_suppression));
        }
        s
    }

    /// Whether this is a pure frequency-set constraint — k-anonymity plus
    /// a suppression budget, no extra models — decidable from equivalence
    /// class **sizes** alone, without materializing a table.
    pub fn is_frequency_only(&self) -> bool {
        self.models.is_empty()
    }

    /// Frequency-set feasibility from a codec [`NodePartition`]'s class
    /// sizes: whether the node can be brought to satisfaction within the
    /// suppression budget. Suppressing the tuples of every class below `k`
    /// only merges them into the fully suppressed class (which cannot
    /// shrink any class), so for a frequency-only constraint
    /// [`enforce`](Self::enforce) succeeds **iff** the tuples in
    /// sub-`k` classes fit the budget. Always `false` when extra models
    /// are attached — those need the actual table.
    pub fn feasible_partition(&self, partition: &NodePartition) -> bool {
        self.is_frequency_only() && partition.tuples_below(self.k) <= self.max_suppression
    }

    /// Whether one class (by members) satisfies every requirement.
    pub fn class_satisfied(&self, table: &AnonymizedTable, members: &[u32]) -> bool {
        KAnonymity { k: self.k }.class_satisfied(table, members)
            && self
                .models
                .iter()
                .all(|m| m.class_satisfied(table, members))
    }

    /// Whether the table as released satisfies the constraint: every
    /// non-suppressed class passes all models and the number of suppressed
    /// tuples is within budget.
    pub fn satisfied(&self, table: &AnonymizedTable) -> bool {
        if table.suppressed_count() > self.max_suppression {
            return false;
        }
        table.classes().iter().all(|(_, members)| {
            let suppressed = members
                .iter()
                .all(|&t| table.is_tuple_suppressed(t as usize));
            suppressed || self.class_satisfied(table, members)
        })
    }

    /// Number of tuples in violating (non-suppressed) classes — the tuples
    /// that would need suppression for `table` to satisfy the constraint.
    pub fn violating_tuples(&self, table: &AnonymizedTable) -> usize {
        table
            .classes()
            .iter()
            .filter(|(_, members)| {
                let suppressed = members
                    .iter()
                    .all(|&t| table.is_tuple_suppressed(t as usize));
                !suppressed && !self.class_satisfied(table, members)
            })
            .map(|(_, members)| members.len())
            .sum()
    }

    /// Attempts to satisfy the constraint by suppressing every violating
    /// class, within budget. Returns `None` when more than
    /// `max_suppression` tuples would need to be suppressed (already
    /// suppressed tuples count against the budget too).
    pub fn enforce(&self, table: &AnonymizedTable) -> Option<AnonymizedTable> {
        self.try_enforce(table).ok()
    }

    /// [`enforce`](Self::enforce), reporting the number of
    /// [violating tuples](Self::violating_tuples) when it fails.
    pub(crate) fn try_enforce(
        &self,
        table: &AnonymizedTable,
    ) -> std::result::Result<AnonymizedTable, usize> {
        let needed = self.violating_tuples(table);
        let already = table.suppressed_count();
        if needed + already > self.max_suppression {
            return Err(needed);
        }
        if needed == 0 {
            return Ok(table.clone());
        }
        let mut to_suppress: Vec<usize> = Vec::with_capacity(needed);
        for (_, members) in table.classes().iter() {
            let suppressed = members
                .iter()
                .all(|&t| table.is_tuple_suppressed(t as usize));
            if !suppressed && !self.class_satisfied(table, members) {
                to_suppress.extend(members.iter().map(|&t| t as usize));
            }
        }
        let enforced = table.suppress_tuples(to_suppress);
        // Suppressing can only merge classes into the suppressed class, so
        // the result either satisfies the constraint or the constraint is
        // genuinely unsatisfiable within budget for this recoding.
        self.satisfied(&enforced).then_some(enforced).ok_or(needed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;

    use anoncmp_microdata::prelude::*;

    use crate::models::LDiversity;

    /// Ages 1,2,3 / 11 / 21,22 → classes of size 3, 1, 2 at level 1.
    fn fixture() -> AnonymizedTable {
        let schema = Schema::new(vec![
            Attribute::integer("age", Role::QuasiIdentifier, 0, 100)
                .with_hierarchy(IntervalLadder::uniform(0, &[10]).unwrap().into())
                .unwrap(),
            Attribute::categorical("d", Role::Sensitive, ["x", "y"]),
        ])
        .unwrap();
        let ds = Dataset::new(
            schema.clone(),
            vec![
                vec![Value::Int(1), Value::Cat(0)],
                vec![Value::Int(2), Value::Cat(1)],
                vec![Value::Int(3), Value::Cat(0)],
                vec![Value::Int(11), Value::Cat(1)],
                vec![Value::Int(21), Value::Cat(0)],
                vec![Value::Int(22), Value::Cat(1)],
            ],
        )
        .unwrap();
        Lattice::new(schema).unwrap().apply(&ds, &[1], "f").unwrap()
    }

    #[test]
    fn satisfaction_and_violations() {
        let t = fixture();
        let c2 = Constraint::k_anonymity(2);
        assert!(!c2.satisfied(&t), "the singleton class violates");
        assert_eq!(c2.violating_tuples(&t), 1);

        let c3 = Constraint::k_anonymity(3);
        assert_eq!(c3.violating_tuples(&t), 3, "singleton + pair");
    }

    #[test]
    fn enforce_within_budget() {
        let t = fixture();
        let c = Constraint::k_anonymity(2).with_suppression(1);
        let enforced = c.enforce(&t).expect("one suppression suffices");
        assert_eq!(enforced.suppressed_count(), 1);
        assert!(c.satisfied(&enforced));
        assert!(enforced.is_tuple_suppressed(3));
        // Untouched tuples keep their generalizations.
        assert_eq!(enforced.cell(0, 0), &GenValue::Interval { lo: 0, hi: 10 });
    }

    #[test]
    fn enforce_over_budget_fails() {
        let t = fixture();
        let c = Constraint::k_anonymity(3).with_suppression(2);
        assert!(c.enforce(&t).is_none(), "needs 3 suppressions, budget 2");
        let c = Constraint::k_anonymity(3).with_suppression(3);
        let enforced = c.enforce(&t).expect("budget 3 suffices");
        assert_eq!(enforced.suppressed_count(), 3);
    }

    #[test]
    fn enforce_noop_when_satisfied() {
        let t = fixture();
        let c = Constraint::k_anonymity(1);
        let enforced = c.enforce(&t).unwrap();
        assert_eq!(enforced.suppressed_count(), 0);
    }

    #[test]
    fn extra_models_participate() {
        let t = fixture();
        // k=1 passes alone, but distinct 2-diversity kills the singleton
        // class (1 distinct value).
        let c = Constraint::k_anonymity(1).with_model(StdArc::new(LDiversity::distinct(2)));
        assert!(!c.satisfied(&t));
        assert_eq!(c.violating_tuples(&t), 1);
        let c = c.with_suppression(1);
        let enforced = c.enforce(&t).unwrap();
        assert!(c.satisfied(&enforced));
        assert!(c.describe().contains("2-diversity"));
    }

    #[test]
    fn frequency_set_check_matches_enforce() {
        // Class sizes 3, 1, 2 (see `fixture`): the sizes-only check must
        // agree with enforce() for every pure-k constraint.
        let t = fixture();
        let codec = GenCodec::new(t.dataset()).unwrap();
        let part = codec.partition(&[1]).unwrap();
        assert_eq!(part.sizes(), &[3, 1, 2]);
        for k in 1..=7 {
            for budget in 0..=7 {
                let c = Constraint::k_anonymity(k).with_suppression(budget);
                assert!(c.is_frequency_only());
                assert_eq!(
                    c.feasible_partition(&part),
                    c.enforce(&t).is_some(),
                    "k={k} budget={budget}"
                );
            }
        }
    }

    #[test]
    fn frequency_set_check_refuses_extra_models() {
        let t = fixture();
        let codec = GenCodec::new(t.dataset()).unwrap();
        let part = codec.partition(&[1]).unwrap();
        let c = Constraint::k_anonymity(1).with_model(StdArc::new(LDiversity::distinct(2)));
        assert!(!c.is_frequency_only());
        // k=1 is trivially feasible by sizes, but the model must force the
        // slow path: the sizes check conservatively refuses.
        assert!(!c.feasible_partition(&part));
    }

    #[test]
    fn describe_formats() {
        let c = Constraint::k_anonymity(3).with_suppression(5);
        assert_eq!(c.describe(), "3-anonymity (≤ 5 suppressed)");
        let c = Constraint::k_anonymity(2);
        assert_eq!(c.describe(), "2-anonymity");
    }

    #[test]
    fn debug_impl_lists_models() {
        let c = Constraint::k_anonymity(2).with_model(StdArc::new(LDiversity::distinct(2)));
        let s = format!("{c:?}");
        assert!(s.contains("2-diversity"));
    }
}
