//! Golden campaign digest: one quick-scale, unfaulted campaign per study
//! must reproduce the recorded FNV-1a digest of its deterministic
//! learning-curve CSV, its sampled indices and a few probe predictions
//! (as exact bits). Any change to the paper's numbers — simulator,
//! sampling, encoding, training or estimation — moves a digest, so it
//! has to be a deliberate golden update recorded alongside the change.

use archpredict::campaign::{Campaign, CampaignConfig};
use archpredict::report::LearningCurve;
use archpredict::simulate::{CachedEvaluator, SimBudget, StudyEvaluator};
use archpredict::studies::Study;
use archpredict_ann::TrainConfig;
use archpredict_stats::hash::fnv1a_64;
use archpredict_workloads::{Benchmark, TraceGenerator};

/// Recorded digests, one per study in [`Study::ALL`] order.
const GOLDEN: [(Study, u64); 2] = [
    (Study::MemorySystem, 0x7BA5_6B68_9DB7_9353),
    (Study::Processor, 0xC0F4_28A1_38AB_CC98),
];

/// Runs the study's campaign and renders everything the digest covers.
fn outcome(study: Study) -> String {
    let benchmark = Benchmark::Gzip;
    let space = study.space();
    let generator = TraceGenerator::new(benchmark);
    let evaluator = CachedEvaluator::new(
        StudyEvaluator::with_budget(study, benchmark, SimBudget::quick(&generator)),
        space.clone(),
    );
    let config = CampaignConfig {
        batch: 15,
        folds: 5,
        target_error: 0.0,
        max_samples: 30,
        train: TrainConfig {
            max_epochs: 25,
            patience: 8,
            ..TrainConfig::default()
        },
        seed: 0x601D_CA4E,
        ..CampaignConfig::default()
    };
    let mut campaign = Campaign::new(&space, &evaluator, config);
    campaign.run();
    let mut curve = LearningCurve::new(study.name());
    for round in campaign.history() {
        curve.push(round, None);
    }
    let indices: Vec<String> = campaign
        .sampled_indices()
        .iter()
        .map(usize::to_string)
        .collect();
    let probes: Vec<String> = campaign
        .predict_indices(&[0, 1_000, space.size() / 2, space.size() - 1])
        .iter()
        .map(|p| format!("{:016x}", p.to_bits()))
        .collect();
    format!(
        "{}indices,{}\nprobes,{}\n",
        curve.to_csv_deterministic(),
        indices.join(","),
        probes.join(",")
    )
}

#[test]
fn quick_campaign_digests_match_the_golden_values() {
    let got: Vec<(Study, u64)> = GOLDEN
        .iter()
        .map(|&(study, _)| (study, fnv1a_64(outcome(study).as_bytes())))
        .collect();
    assert_eq!(
        got, GOLDEN,
        "campaign digests moved; a deliberate change records the new values here"
    );
}
