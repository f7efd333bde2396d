//! The §4.1 automotive warranty-claim project, end to end:
//!
//! * diagnostic read-outs, support escalations and warranty claims live
//!   as raw data in Hadoop (HDFS + Hive);
//! * condensed production/sales data lives in HANA;
//! * Hive extracts twelve months of read-outs for one car series and
//!   makes them available to HANA through SDA — with the Figure 12/13
//!   plans shown via EXPLAIN, and remote materialization caching the
//!   extraction;
//! * the PAL apriori algorithm mines association rules (the paper found
//!   "thousands of association rules … with confidence between 80% and
//!   100%");
//! * the derived model classifies new read-outs as warranty candidates
//!   in real time in HANA.
//!
//! Run with: `cargo run --release --example warranty_claims`

use std::sync::Arc;

use hana_data_platform::hadoop::{Hdfs, Hive, MrCluster, MrConfig, MrFunctionRegistry};
use hana_data_platform::pal::{apriori, AprioriParams, RuleClassifier};
use hana_data_platform::platform::HanaPlatform;
use hana_data_platform::query::Catalog as _;
use hana_data_platform::{DataType, Row, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DTCS: [&str; 8] = [
    "dtc_P0300",
    "dtc_P0420",
    "dtc_P0171",
    "dtc_B1342",
    "dtc_C1201",
    "dtc_U0100",
    "dtc_P0455",
    "dtc_P0128",
];
const CONTEXT: [&str; 5] = [
    "hot_climate",
    "cold_climate",
    "city_driving",
    "highway",
    "towing",
];

fn main() {
    let mut rng = StdRng::seed_from_u64(41);

    // ---- the Hadoop cluster with raw diagnostic read-outs ----------
    let hdfs = Arc::new(Hdfs::new(6));
    let mr = Arc::new(MrCluster::new(hdfs, MrConfig::default()));
    let hive = Arc::new(Hive::new(Arc::clone(&mr)));
    hive.create_table(
        "readouts",
        Schema::of(&[
            ("vin", DataType::Varchar),
            ("series", DataType::Varchar),
            ("month", DataType::Int),
            ("items", DataType::Varchar), // space-separated DTCs/context
            ("claimed", DataType::Int),
        ]),
    )
    .unwrap();
    // 4000 read-outs across two car series; the failure mechanism:
    // P0300 + hot climate (and P0171 + towing) lead to claims.
    let mut rows = Vec::new();
    for i in 0..4000 {
        let series = if i % 3 == 0 { "X7" } else { "Z3" };
        let mut items = vec![
            DTCS[rng.random_range(0..DTCS.len())].to_string(),
            CONTEXT[rng.random_range(0..CONTEXT.len())].to_string(),
        ];
        if rng.random_range(0..3) == 0 {
            items.push(DTCS[rng.random_range(0..DTCS.len())].to_string());
        }
        let risky = (items.contains(&"dtc_P0300".to_string())
            && items.contains(&"hot_climate".to_string()))
            || (items.contains(&"dtc_P0171".to_string()) && items.contains(&"towing".to_string()));
        let claimed = risky && rng.random_range(0..10) < 9;
        items.sort();
        items.dedup();
        rows.push(Row::from_values([
            Value::from(format!("VIN{i:06}")),
            Value::from(series),
            Value::Int(rng.random_range(1..13)),
            Value::from(items.join(" ")),
            Value::Int(claimed as i64),
        ]));
    }
    hive.load("readouts", &rows).unwrap();

    // ---- HANA as the federation layer -------------------------------
    let hana = Arc::new(HanaPlatform::new_in_memory());
    let session = hana.connect("SYSTEM", "manager").unwrap();
    hana.attach_hadoop(Arc::clone(&hive), Arc::new(MrFunctionRegistry::new(mr)));
    hana.execute_sql(
        &session,
        "CREATE REMOTE SOURCE HIVE1 ADAPTER \"hiveodbc\" CONFIGURATION 'DSN=hive1' \
         WITH CREDENTIAL TYPE 'PASSWORD' USING 'user=dfuser;password=dfpass'",
    )
    .unwrap();
    hana.execute_sql(
        &session,
        "CREATE VIRTUAL TABLE readouts AT hive1.dflo.dflo.readouts",
    )
    .unwrap();
    hana.set_remote_cache(true, 1_000_000);

    // The twelve-month extraction for the X7 series (pushed to Hive).
    let extraction = "SELECT items, claimed FROM readouts \
                      WHERE series = 'X7' AND month BETWEEN 1 AND 12";

    // Figure 12: the plan without remote materialization.
    let plan = hana
        .execute_sql(&session, &format!("EXPLAIN {extraction}"))
        .unwrap();
    println!("Plan WITHOUT remote materialization (Figure 12):");
    for r in &plan.rows {
        println!("  {}", r[0]);
    }

    // First hinted run materializes at the remote source; repeated runs
    // hit the Hive-side cache (Figure 13 behaviour).
    let hinted = format!("{extraction} WITH HINT (USE_REMOTE_CACHE)");
    // Measured wall time beside the MR start-up time the cluster
    // modelled meanwhile (charged, never slept).
    let timed = |sql: &str| {
        let modelled_before = hive.cluster().modelled();
        let start = std::time::Instant::now();
        let rs = hana.execute_sql(&session, sql).unwrap();
        let measured = start.elapsed();
        (rs, hive.cluster().modelled() - modelled_before, measured)
    };
    let (rs, first_modelled, first_measured) = timed(&hinted);
    let (rs2, hit_modelled, hit_measured) = timed(&hinted);
    assert_eq!(rs.len(), rs2.len());
    let (hits, misses) = hana.catalog().sda().cache.stats();
    println!(
        "\nExtraction of {} read-outs — cache stats {hits} hit(s) / {misses} miss(es)\n\
         run                  | modelled | measured\n\
         first (materializes) | {:>6.1}ms | {:>6.1}ms\n\
         cache hit            | {:>6.1}ms | {:>6.1}ms\n",
        rs.len(),
        first_modelled.as_secs_f64() * 1e3,
        first_measured.as_secs_f64() * 1e3,
        hit_modelled.as_secs_f64() * 1e3,
        hit_measured.as_secs_f64() * 1e3
    );

    // ---- PAL: apriori over the extracted transactions ---------------
    let transactions: Vec<Vec<String>> = rs
        .rows
        .iter()
        .map(|r| {
            let mut items: Vec<String> = r[0]
                .as_str()
                .unwrap_or("")
                .split_whitespace()
                .map(str::to_string)
                .collect();
            if r[1] == Value::Int(1) {
                items.push("claim".into());
            }
            items
        })
        .collect();
    let rules = apriori(
        &transactions,
        AprioriParams {
            min_support: 0.01,
            min_confidence: 0.8,
            max_len: 3,
        },
    )
    .unwrap();
    println!(
        "apriori mined {} rules with confidence in [{:.2}, {:.2}] (paper: 80%..100%)",
        rules.len(),
        rules.iter().map(|r| r.confidence).fold(1.0, f64::min),
        rules.iter().map(|r| r.confidence).fold(0.0, f64::max),
    );
    for r in rules
        .iter()
        .filter(|r| r.consequent == vec!["claim".to_string()])
        .take(4)
    {
        println!(
            "  {:?} => claim  (support {:.3}, confidence {:.2}, lift {:.1})",
            r.antecedent, r.support, r.confidence, r.lift
        );
    }

    // ---- classify new read-outs in real time in HANA ----------------
    let clf = RuleClassifier::new(&rules, "claim");
    println!(
        "\nClassifier built from {} claim rules; scoring new read-outs:",
        clf.rule_count()
    );
    for obs in [
        vec!["dtc_P0300".to_string(), "hot_climate".to_string()],
        vec![
            "dtc_P0171".to_string(),
            "towing".to_string(),
            "city_driving".to_string(),
        ],
        vec!["dtc_P0420".to_string(), "highway".to_string()],
    ] {
        match clf.score(&obs) {
            Some(score) if score >= 0.8 => {
                println!("  {obs:?} -> WARRANTY CANDIDATE (confidence {score:.2})")
            }
            Some(score) => println!("  {obs:?} -> low risk ({score:.2})"),
            None => println!("  {obs:?} -> no rule fires"),
        }
    }
}
