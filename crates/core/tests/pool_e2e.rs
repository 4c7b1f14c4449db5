//! End-to-end fork-campaign tests: the whole paper matrix through
//! [`specrun::pool::run_campaign`], with per-shard leak verdicts and the
//! double-run determinism the repro gate depends on.

use specrun::pool::{run_campaign, ShardSnapshot};
use specrun::Session;
use specrun_mem::Cache;
use specrun_workloads::pool::{CampaignSpec, ShardStatus};

/// The full eight-shard PHT/BTB/RSB × policy matrix, 24 forked sessions,
/// checked shard by shard against the paper's verdicts.
#[test]
fn paper_matrix_reproduces_per_figure_verdicts() {
    let spec = CampaignSpec::paper_matrix();
    let report = run_campaign(&spec, 0, None).unwrap();
    assert!(report.all_done(), "{:?}", report.shards);
    assert!(!report.breaker_tripped);
    assert_eq!(report.total_units(), spec.unit_count());

    let rate = |label: &str| {
        report
            .shards
            .iter()
            .find(|s| s.spec.label() == label)
            .unwrap_or_else(|| panic!("shard {label} missing"))
            .stats
            .leak_rate()
    };
    // Vulnerable runahead leaks in both the Fig. 9 and Fig. 11 shapes.
    assert_eq!(rate("pht_runahead"), 1.0);
    assert_eq!(rate("pht_runahead_s300"), 1.0);
    // Past the ROB, the no-runahead baseline and both §6 defenses hold.
    assert_eq!(rate("pht_norunahead_s300"), 0.0);
    assert_eq!(rate("pht_secure_s300"), 0.0);
    assert_eq!(rate("pht_skipinv_s300"), 0.0);
    // The §4.4 variants leak — including BTB on the defended machine,
    // the paper's finding that the SL scheme does not cover BTB/RSB.
    assert_eq!(rate("btb_runahead_s300"), 1.0);
    assert_eq!(rate("btb_secure_s300"), 1.0);
    assert_eq!(rate("rsb_runahead_s300"), 1.0);

    for shard in &report.shards {
        assert!(matches!(shard.status, ShardStatus::Done { attempts: 1 }), "{:?}", shard);
        let label = shard.spec.label();
        if shard.spec.policy == specrun_workloads::plan::PlanPolicy::NoRunahead {
            assert_eq!(shard.stats.runahead_entries, 0, "{label}: baseline cannot enter runahead");
        } else {
            assert!(shard.stats.runahead_entries > 0, "{label} must enter runahead");
        }
    }
}

/// Two runs of the matrix at different thread counts must agree bit for
/// bit — the in-process half of the CI `pool-repro` artifact gate.
#[test]
fn paper_matrix_is_deterministic_across_thread_counts() {
    let spec = CampaignSpec::paper_matrix();
    let serial = run_campaign(&spec, 1, None).unwrap();
    let parallel = run_campaign(&spec, 4, None).unwrap();
    assert_eq!(serial, parallel);
    assert_eq!(serial.metrics(), parallel.metrics());
}

/// A fork costs what the parent touched: before it runs, a clone of every
/// prepared paper-matrix snapshot holds exactly its parent's cache rows,
/// and those are a small share of the Table 1 geometry (the 4 MiB L3's
/// 8,192 sets above all).
#[test]
fn forks_inherit_exactly_the_parents_touched_sets() {
    let spec = CampaignSpec::paper_matrix();
    for shard in &spec.shards {
        let snapshot = ShardSnapshot::prepare(&spec, shard);
        let fork = snapshot.session().clone();
        let rows = |s: &Session| s.core().mem().caches().map(Cache::touched_sets);
        let parent = rows(snapshot.session());
        assert_eq!(rows(&fork), parent, "{}", shard.label());
        let l3 = snapshot.session().core().mem().config().l3.num_sets() as usize;
        assert!(parent[3] > 0 && parent[3] * 8 < l3, "{}: {parent:?}", shard.label());
    }
}
