//! Golden external event structures of the compiled backend.
//!
//! Each test runs a catalogue workload on the **compiled** step engine and
//! compares a textual digest of its external event structure (Def. 3.4/3.5:
//! per-arc value sequences plus the `≺`/`≍` relations) byte-for-byte
//! against the checked-in file under `tests/golden/es/`. Because the
//! differential battery separately proves compiled ≡ interp, these files
//! pin the *absolute* observable behaviour of both engines. The design
//! fingerprints themselves are pinned to literal constants as well.
//! Regenerate the digests after an intentional semantic change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_es
//! ```

use etpn_core::StableHasher;
use etpn_sim::Simulator;
use etpn_workloads::by_name;
use std::fmt::Write as _;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/es")
        .join(format!("{name}.txt"))
}

/// Render the event structure of a compiled-backend run as a stable,
/// human-diffable digest document.
fn digest(name: &str) -> String {
    let w = by_name(name).unwrap_or_else(|| panic!("workload `{name}` not in catalog"));
    let d = etpn_synth::compile_source(&w.source).expect("workload compiles");
    let mut sim = Simulator::new(&d.etpn, w.env()).compiled();
    for (n, v) in &d.reg_inits {
        sim = sim.init_register(n, *v);
    }
    let trace = sim.run(w.max_steps).expect("workload simulates");
    let es = etpn_sim::event_structure(&d.etpn, &trace);

    let mut out = String::new();
    let _ = writeln!(out, "design {:#018x}", d.etpn.fingerprint());
    let _ = writeln!(out, "termination {:?}", trace.termination);
    let _ = writeln!(out, "steps {} firings {}", trace.steps, trace.firings);
    for (arc, values) in &es.events {
        let _ = writeln!(out, "arc {arc} {values:?}");
    }
    let _ = writeln!(out, "precedent {}", es.precedent.len());
    let _ = writeln!(out, "concurrent {}", es.concurrent.len());
    // One word that covers the relations in full (they are too large to
    // list) — any reordering or membership change flips it.
    let mut h = StableHasher::new();
    h.write_str(&format!("{:?}{:?}", es.precedent, es.concurrent));
    let _ = writeln!(out, "relations {:#018x}", h.finish());
    out
}

fn check_golden(name: &str) {
    let rendered = digest(name);
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert!(
        rendered == golden,
        "compiled-backend event structure for `{name}` drifted from {}; \
         run with UPDATE_GOLDEN=1 if the change is intentional.\n\
         rendered:\n{rendered}",
        path.display()
    );
}

#[test]
fn gcd_event_structure_matches_golden() {
    check_golden("gcd");
}

#[test]
fn diffeq_event_structure_matches_golden() {
    check_golden("diffeq");
}

/// `Etpn::fingerprint` keys the registry, journals, recordings and the VCD
/// `$date` header, so its value must never drift. Every catalogue design
/// plus two seeded random nets are pinned to literal constants.
#[test]
fn fingerprints_match_pinned_constants() {
    const PINNED: &[(&str, u64)] = &[
        ("diffeq", 0x4691_add6_6327_7676),
        ("ewf", 0xfdac_e3af_409c_02b8),
        ("fir16", 0x11db_a619_568e_fb52),
        ("gcd", 0x3a37_64f5_beaa_7776),
        ("ar_lattice", 0x4da0_950b_91fd_bc73),
        ("iir", 0x84ee_ba35_96a6_a083),
        ("alphabeta", 0xae4a_480e_dbef_08ec),
        ("isqrt", 0x549d_7690_c4ba_15d0),
        ("random_net_128", 0x2f78_1244_fd86_0c23),
        ("random_net_1024", 0xc59c_5378_6cf9_0b4d),
    ];
    let mut got: Vec<(String, u64)> = etpn_workloads::catalog()
        .iter()
        .map(|w| {
            let d = etpn_synth::compile_source(&w.source).expect("workload compiles");
            (w.name.to_string(), d.etpn.fingerprint())
        })
        .collect();
    for n in [128, 1024] {
        got.push((
            format!("random_net_{n}"),
            etpn_workloads::random_net(7, n).fingerprint(),
        ));
    }
    let table: String = got
        .iter()
        .map(|(name, fp)| format!("(\"{name}\", {fp:#018x}),\n"))
        .collect();
    let pinned: Vec<(String, u64)> = PINNED.iter().map(|&(n, f)| (n.to_string(), f)).collect();
    assert!(got == pinned, "fingerprints drifted; computed:\n{table}");
}
