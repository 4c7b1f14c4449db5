//! Cross-commit behaviour pins for the three attack PoCs.
//!
//! Every cell of {PHT, BTB, RSB} × {runahead, no-runahead, secure,
//! skip-INV} × nop slide {0, 300} runs at `PocConfig::default()` with a
//! `RecordingObserver` riding, and must reproduce four committed values:
//! an FNV-1a digest of the encoded pipeline-event stream, the final
//! `stats.cycles`, the architectural fingerprint and the leaked byte. The
//! constants were computed once and are never re-derived from the code
//! under test, so a refactor that reorders a single attack step (and so
//! shifts a cycle or an event) fails here even if every run is still
//! deterministic.

use specrun::attack::{run_poc, GadgetKind, PocConfig};
use specrun::session::{Policy, Session};
use specrun_trace::{encode_events, RecordingObserver};

/// One pinned cell: gadget, policy, slide, then the four pinned values
/// (event digest, cycles, architectural fingerprint, leaked byte).
type Pin = (&'static str, &'static str, usize, u64, u64, u64, Option<u8>);

#[rustfmt::skip]
const PINS: &[Pin] = &[
    ("pht", "runahead", 0, 0xa457ff40602cd691, 54104, 0x62b4d997d77eaef1, Some(86)),
    ("pht", "runahead", 300, 0x0359ecd0c76fb13b, 56805, 0xddf643486876f518, Some(86)),
    ("pht", "no_runahead", 0, 0x183fd000c8423ea1, 54061, 0x738f425f6a9c8b5b, Some(86)),
    ("pht", "no_runahead", 300, 0x5f72b166b6efaedc, 56870, 0xd061550acb6ebcd3, None),
    ("pht", "secure", 0, 0x836ca9c604896ecd, 54104, 0x62b4d997d77eaef1, Some(86)),
    ("pht", "secure", 300, 0x7b8b5666d289884e, 57083, 0x385875efa14639dc, None),
    ("pht", "skip_inv", 0, 0x40994de92f2dc007, 54077, 0xebdc45f64137795b, Some(86)),
    ("pht", "skip_inv", 300, 0xe9e88dcca6f043f6, 56997, 0x71b6062c4bd6b5e1, None),
    ("btb", "runahead", 0, 0x4169eb0db18dfb1d, 52851, 0xa3d238e9820371db, Some(86)),
    ("btb", "runahead", 300, 0x2537998c20adc9bf, 52824, 0x63c7e0be7ef44081, Some(86)),
    ("btb", "no_runahead", 0, 0x4169eb0db18dfb1d, 52851, 0xa3d238e9820371db, Some(86)),
    ("btb", "no_runahead", 300, 0xc2afe3cabe273d76, 52999, 0xcd40d5a87a779858, None),
    ("btb", "secure", 0, 0x4169eb0db18dfb1d, 52851, 0xa3d238e9820371db, Some(86)),
    ("btb", "secure", 300, 0xf44f0334eec2b326, 52824, 0x63c7e0be7ef44081, Some(86)),
    ("btb", "skip_inv", 0, 0x4169eb0db18dfb1d, 52851, 0xa3d238e9820371db, Some(86)),
    ("btb", "skip_inv", 300, 0x1bcb7362264ed4b3, 53016, 0x458a73a88d9f9ee7, None),
    ("rsb", "runahead", 0, 0x97e62e928042c9a2, 52930, 0xca7629b9b4271541, Some(86)),
    ("rsb", "runahead", 300, 0xbc4d021658ffe7ab, 52866, 0x835a8bffc4eae741, Some(86)),
    ("rsb", "no_runahead", 0, 0x97e62e928042c9a2, 52930, 0xca7629b9b4271541, Some(86)),
    ("rsb", "no_runahead", 300, 0x6e229ffa558c2e68, 53054, 0x99918d7a47faaf83, None),
    ("rsb", "secure", 0, 0x97e62e928042c9a2, 52930, 0xca7629b9b4271541, Some(86)),
    ("rsb", "secure", 300, 0x6511a39a926b36b7, 52866, 0x835a8bffc4eae741, Some(86)),
    ("rsb", "skip_inv", 0, 0x97e62e928042c9a2, 52930, 0xca7629b9b4271541, Some(86)),
    ("rsb", "skip_inv", 300, 0xf90ef1355030ce7a, 53058, 0x4d906bca84d4ff7b, None),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn policy(name: &str) -> Policy {
    match name {
        "runahead" => Policy::Runahead,
        "no_runahead" => Policy::NoRunahead,
        "secure" => Policy::Secure,
        "skip_inv" => Policy::SkipInv,
        other => panic!("unknown policy {other}"),
    }
}

/// Runs one cell and returns its four pinned values.
fn measure(gadget: &str, policy_name: &str, nop_slide: usize) -> (u64, u64, u64, Option<u8>) {
    let mut session =
        Session::builder().policy(policy(policy_name)).observer(RecordingObserver::new()).build();
    let cfg = PocConfig { nop_slide, ..PocConfig::default() };
    let gadget = match gadget {
        "pht" => GadgetKind::Pht,
        "btb" => GadgetKind::Btb,
        "rsb" => GadgetKind::Rsb,
        other => panic!("unknown gadget {other}"),
    };
    let outcome = run_poc(&mut session, gadget, &cfg);
    (
        fnv1a(&encode_events(session.observer().events())),
        session.stats().cycles,
        session.core().arch_fingerprint(),
        outcome.leaked,
    )
}

#[test]
fn attack_pocs_match_their_committed_pins() {
    let mut cells = Vec::new();
    for gadget in ["pht", "btb", "rsb"] {
        for policy_name in ["runahead", "no_runahead", "secure", "skip_inv"] {
            for slide in [0, 300] {
                cells.push((gadget, policy_name, slide));
            }
        }
    }
    let measured: Vec<Pin> = cells
        .into_iter()
        .map(|(gadget, policy_name, slide)| {
            let (events, cycles, fingerprint, leaked) = measure(gadget, policy_name, slide);
            (gadget, policy_name, slide, events, cycles, fingerprint, leaked)
        })
        .collect();
    let table: String = measured
        .iter()
        .map(|(g, p, slide, events, cycles, fp, leaked)| {
            format!(
                "    ({g:?}, {p:?}, {slide}, {events:#018x}, {cycles}, {fp:#018x}, {leaked:?}),\n"
            )
        })
        .collect();
    assert_eq!(measured.as_slice(), PINS, "attack behaviour drifted; measured pins:\n{table}");
}
