//! Multi-trial attack sweeps (the Fig. 9 methodology at scale).
//!
//! A single SPECRUN run leaks one byte. Evaluating the channel — accuracy
//! across secrets, machine variants, defense configurations — takes many
//! independent runs, exactly like the original Spectre proof of concept
//! averaged thousands of covert-channel trials. Every trial owns a fresh
//! [`Session`], so the sweep fans out over all host cores through
//! [`specrun_workloads::harness`].

use specrun_cpu::{CancelToken, CpuConfig};
use specrun_workloads::harness::{self, parallel_map, RunError};
use specrun_workloads::SplitMix64;

use crate::attack::poc::{run_poc, PocConfig, PocOutcome};
use crate::attack::GadgetKind;
use crate::session::Session;

/// Configuration of a multi-trial SpectrePHT-in-runahead sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Machine configuration each trial instantiates afresh.
    pub machine: CpuConfig,
    /// Attack template; each trial overrides `secret` from its own seed.
    pub poc: PocConfig,
    /// Number of independent trials.
    pub trials: u32,
    /// Worker threads (`0` = all host cores).
    pub threads: usize,
    /// Base seed for per-trial secrets.
    pub seed: u64,
}

impl Default for SweepConfig {
    fn default() -> SweepConfig {
        SweepConfig {
            machine: CpuConfig::default(),
            poc: PocConfig::default(),
            trials: 16,
            threads: 0,
            seed: 0xf199,
        }
    }
}

/// One trial's outcome within a sweep.
#[derive(Debug, Clone)]
pub struct SweepTrial {
    /// Trial index.
    pub id: usize,
    /// The secret planted for this trial.
    pub secret: u8,
    /// The full PoC outcome.
    pub outcome: PocOutcome,
}

/// Aggregated sweep results.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Per-trial outcomes, in trial order.
    pub trials: Vec<SweepTrial>,
}

impl SweepReport {
    /// Trials whose covert channel recovered the planted secret.
    pub fn successes(&self) -> usize {
        self.trials.iter().filter(|t| t.outcome.success()).count()
    }

    /// Fraction of successful trials in [0, 1].
    pub fn accuracy(&self) -> f64 {
        if self.trials.is_empty() {
            0.0
        } else {
            self.successes() as f64 / self.trials.len() as f64
        }
    }

    /// Mean runahead episodes per trial.
    pub fn mean_runahead_entries(&self) -> f64 {
        harness::Summary::of(self.trials.iter().map(|t| t.outcome.runahead_entries as f64)).mean
    }
}

/// Runs `cfg.trials` independent SpectrePHT-in-runahead attacks in
/// parallel, each with a per-trial random secret, and aggregates the
/// results. Every trial's session runs under `token`; a trial whose
/// programs do not halt cleanly (budget, wedge, cancellation) fails the
/// sweep with its [`RunError`]. Deterministic for a fixed seed regardless
/// of thread count.
pub fn run_pht_sweep(
    cfg: &SweepConfig,
    token: Option<&CancelToken>,
) -> Result<SweepReport, RunError> {
    let mut seeder = SplitMix64::new(cfg.seed);
    let seeds: Vec<u64> = (0..cfg.trials.max(1)).map(|_| seeder.next_u64()).collect();
    let trials = parallel_map(&seeds, cfg.threads, |i, &seed| {
        // Avoid 0: probe entry 0 is warmed by training and excluded by the
        // analyzer, so a 0 secret could never be recovered.
        let secret = (SplitMix64::new(seed).next_below(255) + 1) as u8;
        let mut session = Session::builder().config(cfg.machine.clone()).build();
        session.set_cancel_token(token.cloned());
        let poc = PocConfig { secret, ..cfg.poc.clone() };
        let outcome = run_poc(&mut session, GadgetKind::Pht, &poc);
        session.check_halted(|| format!("sweep trial {i}"))?;
        Ok(SweepTrial { id: i, secret, outcome })
    });
    Ok(SweepReport { trials: trials.into_iter().collect::<Result<_, RunError>>()? })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_recovers_random_secrets_on_runahead_machine() {
        let cfg = SweepConfig { trials: 4, threads: 2, ..SweepConfig::default() };
        let report = run_pht_sweep(&cfg, None).unwrap();
        assert_eq!(report.trials.len(), 4);
        assert_eq!(report.successes(), 4, "runahead machine must leak every secret");
        assert!(report.mean_runahead_entries() > 0.0);
    }

    #[test]
    fn sweep_is_thread_invariant() {
        let sweep = |threads| {
            run_pht_sweep(&SweepConfig { trials: 3, threads, ..SweepConfig::default() }, None)
                .unwrap()
        };
        let (one, four) = (sweep(1), sweep(4));
        let secrets = |r: &SweepReport| r.trials.iter().map(|t| t.secret).collect::<Vec<_>>();
        let leaks = |r: &SweepReport| r.trials.iter().map(|t| t.outcome.leaked).collect::<Vec<_>>();
        assert_eq!(secrets(&one), secrets(&four));
        assert_eq!(leaks(&one), leaks(&four));
    }
}
