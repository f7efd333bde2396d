//! E6 — PAL: apriori mining cost over warranty-claim-style transactions
//! (§4.1) and classifier scoring latency ("classify new readouts …
//! in real-time"); medians of 15 runs.

use std::hint::black_box;

use hana_bench::median_nanos;
use hana_pal::{apriori, kmeans, AprioriParams, RuleClassifier};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn transactions(n: usize) -> Vec<Vec<String>> {
    let mut rng = StdRng::seed_from_u64(99);
    let dtcs = ["P0300", "P0420", "P0171", "B1342", "C1201", "U0100"];
    let ctx = ["hot", "cold", "city", "highway", "towing"];
    (0..n)
        .map(|_| {
            let mut items = vec![
                format!("dtc_{}", dtcs[rng.random_range(0..dtcs.len())]),
                ctx[rng.random_range(0..ctx.len())].to_string(),
            ];
            let risky =
                items.contains(&"dtc_P0300".to_string()) && items.contains(&"hot".to_string());
            if risky && rng.random_range(0..10) < 9 {
                items.push("claim".into());
            }
            items.sort();
            items.dedup();
            items
        })
        .collect()
}

fn main() {
    let txs = transactions(10_000);
    let params = AprioriParams {
        min_support: 0.005,
        min_confidence: 0.8,
        max_len: 3,
    };
    let ms = |nanos: u128| nanos as f64 / 1e6;

    let mining = median_nanos(|| {
        black_box(apriori(&txs, params).unwrap());
    });
    println!("apriori_10k_transactions : {:>8.3} ms", ms(mining));

    let rules = apriori(&txs, params).unwrap();
    println!("mined {} rules (confidence >= 0.8)", rules.len());
    let clf = RuleClassifier::new(&rules, "claim");
    let readout = vec![
        "dtc_P0300".to_string(),
        "hot".to_string(),
        "city".to_string(),
    ];
    // One score is tens of nanoseconds: time a batch per sample.
    const SCORES: u32 = 10_000;
    let scoring = median_nanos(|| {
        for _ in 0..SCORES {
            black_box(clf.score(black_box(&readout)));
        }
    });
    println!(
        "classifier_score_readout : {:>8.1} ns",
        scoring as f64 / SCORES as f64
    );

    // k-means on load profiles.
    let points: Vec<Vec<f64>> = (0..5_000)
        .map(|i| vec![(i % 100) as f64, ((i * 7) % 50) as f64])
        .collect();
    let clustering = median_nanos(|| {
        black_box(kmeans(&points, 4, 25).unwrap());
    });
    println!("kmeans_5k_points_k4      : {:>8.3} ms", ms(clustering));
}
