//! Delta-debugging support for `specrun-fuzz`: shrink a failing
//! [`Plan`] while preserving its failure.
//!
//! The shrinker is deliberately oracle-agnostic — `still_fails` is whatever
//! the caller considers "the same failure" (in the lab it is "at least one
//! of the originally violated invariants still fires, or the plan still
//! panics"). Termination is structural: every candidate from
//! [`Plan::shrink_candidates`] has a strictly smaller [`Plan::weight`], so
//! the adopt-and-restart loop walks a well-founded order.
//!
//! ```
//! use specrun_workloads::fuzz::shrink_plan;
//! use specrun_workloads::plan::Plan;
//!
//! let mut plan = Plan::generate(0xBAD, 0, true);
//! plan.victim.nop_slide = 200;
//! // "Fails" whenever the slide is long; everything else should collapse.
//! let shrunk = shrink_plan(&plan, |p| p.victim.nop_slide >= 50);
//! assert!(shrunk.victim.nop_slide >= 50, "shrinking preserves the failure");
//! assert!(shrunk.weight() < plan.weight(), "and strictly reduces the plan");
//! ```

use crate::plan::Plan;

/// Greedily minimizes `plan` under the failure predicate.
///
/// Repeatedly tries the candidates of the current plan in order and adopts
/// the first one that still fails, restarting from it; returns once no
/// candidate fails, i.e. a local minimum: every single reduction step the
/// grammar offers repairs the plan.
///
/// `still_fails(plan)` is assumed true on entry (the caller observed the
/// failure); the function never re-checks the input itself.
pub fn shrink_plan<F>(plan: &Plan, mut still_fails: F) -> Plan
where
    F: FnMut(&Plan) -> bool,
{
    let mut current = plan.clone();
    loop {
        let mut improved = false;
        for candidate in current.shrink_candidates() {
            if still_fails(&candidate) {
                current = candidate;
                improved = true;
                break;
            }
        }
        if !improved {
            return current;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{AttackLayout, KnobSpec};

    #[test]
    fn shrink_reaches_local_minimum_and_preserves_failure() {
        // A deliberately-injected failure: any plan with a slide of at
        // least 37 "fails". The shrinker must keep the property while
        // discarding everything else it can.
        let mut plan = Plan::generate(0xBAD, 3, false);
        plan.victim.nop_slide = 300;
        let fails = |p: &Plan| p.victim.nop_slide >= 37;
        let shrunk = shrink_plan(&plan, fails);
        assert!(fails(&shrunk), "shrinking must preserve the failure");
        assert!(shrunk.weight() < plan.weight(), "shrinking must strictly reduce the plan");
        // Everything unrelated to the predicate collapsed to the floor.
        assert_eq!(shrunk.layout, AttackLayout::default());
        assert_eq!(shrunk.knobs, KnobSpec::default());
        assert!(shrunk.warm.is_empty());
        assert_eq!(shrunk.secret, 1);
        assert_eq!(shrunk.victim.attack_filler, 0);
        assert_eq!(shrunk.victim.training_rounds, 1);
        // The slide sits just above the threshold: halving once more would
        // cross it, so the result is locally minimal.
        assert!((37..74).contains(&shrunk.victim.nop_slide), "slide {}", shrunk.victim.nop_slide);
        assert!(shrunk.shrink_candidates().iter().all(|c| !fails(c)), "local minimum");
    }

    #[test]
    fn shrink_of_minimal_plan_is_identity() {
        let plan = Plan::generate(5, 0, true);
        // Predicate fails on everything — adopt until the floor.
        let floor = shrink_plan(&plan, |_| true);
        assert!(floor.shrink_candidates().is_empty(), "floor has no candidates left");
        let again = shrink_plan(&floor, |_| true);
        assert_eq!(floor, again);
    }
}
