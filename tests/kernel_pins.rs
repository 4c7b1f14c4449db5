//! Cross-commit behaviour pins for the workload kernels and the quick fuzz
//! plans, on the naive one-cycle-at-a-time path as well as the
//! fast-forwarding one.
//!
//! `tests/fast_forward.rs` checks that fast-forward and naive stepping
//! agree with each other. Both call `Core::step`, so a change to what one
//! cycle does moves both runs alike and that test cannot see it. These
//! constants were computed once and are never re-derived from the code
//! under test: a refactor of the per-cycle path that shifts a single
//! cycle, counter or register fails here.

use specrun::plan::try_run_plan;
use specrun_cpu::{Core, CpuConfig, RunExit};
use specrun_workloads::plan::Plan;
use specrun_workloads::{suite_with_iters, Workload};

/// One pinned kernel run: kernel, machine, fast-forward, then the pinned
/// values (`stats.cycles`, a digest of every `CpuStats` field, the
/// architectural fingerprint).
type KernelPin = (&'static str, &'static str, bool, u64, u64, u64);

#[rustfmt::skip]
const KERNEL_PINS: &[KernelPin] = &[
    ("zeusmp", "no_runahead", true, 18024, 0xca16a2a1045814fe, 0x701d85944bc949b3),
    ("zeusmp", "no_runahead", false, 18024, 0xca16a2a1045814fe, 0x701d85944bc949b3),
    ("zeusmp", "runahead", true, 17604, 0xbec69b1ae313957c, 0x701d85944bc949b3),
    ("zeusmp", "runahead", false, 17604, 0xbec69b1ae313957c, 0x701d85944bc949b3),
    ("wrf", "no_runahead", true, 15864, 0x11c4ed6324aaa622, 0x4f166faeecdbaa3e),
    ("wrf", "no_runahead", false, 15864, 0x11c4ed6324aaa622, 0x4f166faeecdbaa3e),
    ("wrf", "runahead", true, 12384, 0x6e6168d8ff840b64, 0x4f166faeecdbaa3e),
    ("wrf", "runahead", false, 12384, 0x6e6168d8ff840b64, 0x4f166faeecdbaa3e),
    ("bwaves", "no_runahead", true, 16825, 0x6db44d879dc97b58, 0x4dd71af845c3b566),
    ("bwaves", "no_runahead", false, 16825, 0x6db44d879dc97b58, 0x4dd71af845c3b566),
    ("bwaves", "runahead", true, 14305, 0xc01914821d0659fb, 0x4dd71af845c3b566),
    ("bwaves", "runahead", false, 14305, 0xc01914821d0659fb, 0x4dd71af845c3b566),
    ("lbm", "no_runahead", true, 17244, 0xb8c997a39e8cf05c, 0x41f2bf31eccea95f),
    ("lbm", "no_runahead", false, 17244, 0xb8c997a39e8cf05c, 0x41f2bf31eccea95f),
    ("lbm", "runahead", true, 16842, 0x8037e49fef2df9c1, 0x41f2bf31eccea95f),
    ("lbm", "runahead", false, 16842, 0x8037e49fef2df9c1, 0x41f2bf31eccea95f),
    ("mcf", "no_runahead", true, 4514, 0x0f0d82bac800b4e9, 0xa035c2b1e49261f5),
    ("mcf", "no_runahead", false, 4514, 0x0f0d82bac800b4e9, 0xa035c2b1e49261f5),
    ("mcf", "runahead", true, 3966, 0xcb277b3477c7bd05, 0xa035c2b1e49261f5),
    ("mcf", "runahead", false, 3966, 0xcb277b3477c7bd05, 0xa035c2b1e49261f5),
    ("GemsFDTD", "no_runahead", true, 15564, 0x6e59a5a38757851c, 0xf3a27c78ed0b4bb2),
    ("GemsFDTD", "no_runahead", false, 15564, 0x6e59a5a38757851c, 0xf3a27c78ed0b4bb2),
    ("GemsFDTD", "runahead", true, 13344, 0x7738b221f101eb03, 0xf3a27c78ed0b4bb2),
    ("GemsFDTD", "runahead", false, 13344, 0x7738b221f101eb03, 0xf3a27c78ed0b4bb2),
];

/// FNV-1a digests of the `PlanOutcome` of quick plans 0..40 of seed
/// 0xC0FFEE, run with fast-forward off.
#[rustfmt::skip]
const PLAN_PINS: &[u64] = &[
    0xdb46a4f5ba5547aa,
    0x12a1bc9857ebf915,
    0x54c1b9648c92ed52,
    0xf6b73936f1b1c997,
    0x8a264fd9f8b5f287,
    0xb151721ad787ae74,
    0xac90b30334e05bf1,
    0x3198e37a6ad3b46e,
    0x190c3251f00496c5,
    0x56d578829c5932dc,
    0x58753ec60653d5c2,
    0x74bb0b77afcbaaf7,
    0x3df4011b66056337,
    0x84a4efcd603d415a,
    0x7f9dea5d7145fedc,
    0x1afc9648afc94ac7,
    0xd6f9909022e56840,
    0x9b60dc6079ecdcc0,
    0x4bd289f2245c92b7,
    0x849d66cc69835646,
    0x3019a8ef004dccf0,
    0x974e8d7bd5785e4d,
    0x8eb18d0344f91e01,
    0x8d33ba1dd3ba443d,
    0xef5b1ce724309063,
    0x3c4ce03577902580,
    0x8d1b201388bd25e1,
    0x819aa8eb71ebb762,
    0x8753ee90940a3685,
    0x28aa6dc3bfc99cf0,
    0x9952c0eec33f98b6,
    0x5b5d26c4a2c277b0,
    0x8b9702583e0d0e3e,
    0x7ead7772af74e778,
    0x00cec30dcf188737,
    0x8f787f5e090b76a3,
    0xa7a4a78be7be2516,
    0xa185073fde403a81,
    0x59cc806aff7ffd81,
    0xc3a2aa7f908bedd4,
];

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Digest of a value's `Debug` rendering, which names every field.
fn digest(value: &impl std::fmt::Debug) -> u64 {
    fnv1a(format!("{value:?}").as_bytes())
}

fn machine(name: &str) -> CpuConfig {
    match name {
        "no_runahead" => CpuConfig::no_runahead(),
        "runahead" => CpuConfig::default(),
        other => panic!("unknown machine {other}"),
    }
}

/// Runs `w` to completion and returns its pinned values.
fn measure(w: &Workload, machine_name: &str, fast_forward: bool) -> (u64, u64, u64) {
    let mut core = Core::new(CpuConfig { fast_forward, ..machine(machine_name) });
    for (addr, bytes) in &w.setup {
        core.mem_mut().write_bytes(*addr, bytes);
    }
    core.load_program(&w.program);
    assert_eq!(core.run(100_000_000), RunExit::Halted, "{} must halt", w.name);
    (core.stats().cycles, digest(core.stats()), core.arch_fingerprint())
}

#[test]
fn kernels_match_their_committed_pins() {
    let mut measured: Vec<KernelPin> = Vec::new();
    for w in suite_with_iters(60) {
        for machine_name in ["no_runahead", "runahead"] {
            for fast_forward in [true, false] {
                let (cycles, stats, fingerprint) = measure(&w, machine_name, fast_forward);
                measured.push((w.name, machine_name, fast_forward, cycles, stats, fingerprint));
            }
        }
    }
    let table: String = measured
        .iter()
        .map(|(k, m, ff, cycles, stats, fp)| {
            format!("    ({k:?}, {m:?}, {ff}, {cycles}, {stats:#018x}, {fp:#018x}),\n")
        })
        .collect();
    assert_eq!(
        measured.as_slice(),
        KERNEL_PINS,
        "kernel behaviour drifted; measured pins:\n{table}"
    );
}

#[test]
fn naive_fuzz_plans_match_their_committed_pins() {
    let measured: Vec<u64> = (0..40)
        .map(|index| {
            let mut plan = Plan::generate(0xC0FFEE, index, true);
            plan.knobs.fast_forward = false;
            digest(&try_run_plan(&plan).expect("quick plan runs"))
        })
        .collect();
    let table: String = measured.iter().map(|d| format!("    {d:#018x},\n")).collect();
    assert_eq!(measured.as_slice(), PLAN_PINS, "plan outcomes drifted; measured pins:\n{table}");
}
