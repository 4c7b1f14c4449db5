//! Defense verification: the §6 secure-runahead scheme against the attacks.

use specrun_cpu::probe::PipelineObserver;

use crate::attack::poc::{run_poc, PocConfig, PocOutcome};
use crate::attack::GadgetKind;
use crate::session::Session;

/// Outcome of running an attack against a defended machine.
#[derive(Debug, Clone)]
pub struct DefenseReport {
    /// The attack outcome on the defended machine.
    pub outcome: PocOutcome,
    /// SL-cache entries promoted to L1 (safe data kept its prefetch value).
    pub sl_promotions: u64,
    /// SL-cache entries deleted on branch misprediction.
    pub sl_deletions: u64,
    /// INV branches suppressed by the skip-INV mitigation.
    pub skipped_inv_branches: u64,
}

impl DefenseReport {
    /// Whether the defense blocked the leak.
    pub fn blocked(&self) -> bool {
        !self.outcome.success()
    }
}

/// Runs the Fig. 8 PoC against `session`'s machine and reports whether the
/// planted secret stayed hidden.
pub fn verify_pht_blocked<O: PipelineObserver>(
    session: &mut Session<O>,
    cfg: &PocConfig,
) -> DefenseReport {
    let outcome = run_poc(session, GadgetKind::Pht, cfg);
    let stats = session.stats();
    DefenseReport {
        sl_promotions: stats.sl_promotions,
        sl_deletions: stats.sl_deletions,
        skipped_inv_branches: stats.skipped_inv_branches,
        outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_blocked_logic() {
        let cfg = PocConfig::default();
        let mut s = crate::Session::builder().policy(crate::Policy::NoRunahead).build();
        // On the baseline machine with no nop slide the leak may succeed via
        // plain speculation; this test only checks report plumbing.
        let report = verify_pht_blocked(&mut s, &cfg);
        assert_eq!(report.blocked(), !report.outcome.success());
    }
}
