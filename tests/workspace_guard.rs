//! Workspace-level guard tests.
//!
//! These assertions pin down cross-crate contracts that future refactors must
//! preserve: the paper's 20-workload set exposed by `impress_workloads`, and the
//! ability to construct every defense × tracker combination that
//! `impress_core::config` advertises.

use impress_repro::core::config::{DefenseKind, ProtectionConfig, TrackerChoice};
use impress_repro::core::Alpha;
use impress_repro::dram::DramTimings;
use impress_repro::sim::{Configuration, ExperimentRunner};
use impress_repro::workloads::WorkloadMix;

/// The 20 workloads of §III-A in the paper's figure order: ten SPEC2017 traces
/// followed by the four STREAM kernels and six STREAM mixes.
const PAPER_WORKLOADS: [&str; 20] = [
    "fotonik3d",
    "mcf",
    "gcc",
    "omnetpp",
    "bwaves",
    "roms",
    "cactuBSSN",
    "wrf",
    "pop2",
    "xalancbmk",
    "add",
    "copy",
    "scale",
    "triad",
    "add_copy",
    "add_scale",
    "add_triad",
    "copy_scale",
    "copy_triad",
    "scale_triad",
];

#[test]
fn paper_workload_names_match_the_paper() {
    assert_eq!(WorkloadMix::paper_workload_names(), PAPER_WORKLOADS);
}

#[test]
fn every_paper_workload_builds_an_eight_core_mix() {
    for name in PAPER_WORKLOADS {
        let mix = WorkloadMix::by_name(name, 1).unwrap_or_else(|| panic!("missing mix {name}"));
        assert_eq!(mix.cores(), 8, "{name} should build the 8-core rate mode");
    }
}

/// Every defense kind the configuration layer can express.
fn all_defense_kinds(timings: &DramTimings) -> Vec<DefenseKind> {
    vec![
        DefenseKind::NoRp,
        DefenseKind::express_paper_baseline(timings),
        DefenseKind::Express {
            t_mro: timings.t_ras + 4 * timings.t_rc,
            alpha: Alpha::LongDuration,
        },
        DefenseKind::ImpressN {
            alpha: Alpha::Conservative,
        },
        DefenseKind::ImpressN {
            alpha: Alpha::ShortDuration,
        },
        DefenseKind::ImpressN {
            alpha: Alpha::Custom(0.75),
        },
        DefenseKind::impress_p_default(),
        DefenseKind::ImpressP { frac_bits: 0 },
        DefenseKind::ImpressP { frac_bits: 4 },
    ]
}

const ALL_TRACKERS: [TrackerChoice; 5] = [
    TrackerChoice::Graphene,
    TrackerChoice::Para,
    TrackerChoice::Mithril,
    TrackerChoice::Mint,
    TrackerChoice::Prac,
];

#[test]
fn every_defense_tracker_combination_constructs() {
    let timings = DramTimings::ddr5();
    for tracker in ALL_TRACKERS {
        for defense in all_defense_kinds(&timings) {
            let config = ProtectionConfig::paper_default(tracker, defense);
            // Construction must never panic, even for combinations that
            // validate() rejects (callers are told via Result, not via panic).
            let built_tracker = config.build_tracker(&timings);
            let built_defense = config.build_defense(&timings);
            drop((built_tracker, built_defense));

            let expected_invalid =
                matches!(defense, DefenseKind::Express { .. }) && tracker.is_in_dram();
            assert_eq!(
                config.validate().is_err(),
                expected_invalid,
                "unexpected validate() outcome for {tracker:?} + {defense:?}"
            );
        }
    }
}

/// Cross-crate contract for the sharded simulation core: a DefenseKind×TrackerChoice
/// sweep executed through the epoch-phased run loop on more than one sweep worker
/// must be bit-identical to the serial sweep. Under the CI race-check jobs this
/// whole suite also runs with `IMPRESS_THREADS=4`, which routes the `run_sweep`
/// default through the same pool.
#[test]
fn defense_tracker_sweep_runs_through_the_epoch_phased_loop() {
    let threads = impress_repro::exec::thread_count().max(2);
    let baseline = Configuration::unprotected();
    let configurations: Vec<Configuration> = ALL_TRACKERS
        .iter()
        .map(|&tracker| {
            Configuration::protected(
                format!("{tracker:?}+ImPress-P"),
                ProtectionConfig::paper_default(tracker, DefenseKind::impress_p_default()),
            )
        })
        .collect();

    let plain = ExperimentRunner::new()
        .with_requests_per_core(500)
        .run_sweep_with_threads(1, &["gcc"], &baseline, &configurations);
    let epoch_phased = ExperimentRunner::new()
        .with_requests_per_core(500)
        .run_sweep_with_threads(threads, &["gcc"], &baseline, &configurations);

    assert_eq!(plain.len(), ALL_TRACKERS.len());
    for (pc, sc) in plain.iter().zip(&epoch_phased) {
        for (p, s) in pc.iter().zip(sc) {
            assert_eq!(p.configuration, s.configuration);
            assert_eq!(
                p.normalized_performance.to_bits(),
                s.normalized_performance.to_bits(),
                "{} diverged through the epoch-phased loop",
                p.configuration
            );
            assert_eq!(p.output.memory, s.output.memory);
        }
    }
}

#[test]
fn paper_tracker_set_is_the_four_evaluated_trackers() {
    assert_eq!(
        TrackerChoice::PAPER_SET,
        [
            TrackerChoice::Graphene,
            TrackerChoice::Para,
            TrackerChoice::Mithril,
            TrackerChoice::Mint,
        ]
    );
}
