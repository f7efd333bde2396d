//! End-to-end ESP tests covering the three §3.2 use cases, pattern
//! alerts, the HDFS archive adapter, replay and threaded ingestion.

use std::sync::Arc;

use parking_lot::Mutex;

use hana_esp::{parse_archive_line, EspEngine, Sink};
use hana_hadoop::Hdfs;
use hana_types::{DataType, ResultSet, Row, Schema, Value};

fn telecom_engine() -> EspEngine {
    let esp = EspEngine::new();
    esp.deploy(
        "CREATE INPUT STREAM network_events SCHEMA \
             (cell VARCHAR(10), kind VARCHAR(10), load DOUBLE);\n\
         CREATE OUTPUT WINDOW cell_health AS \
             SELECT cell, AVG(load) AS avg_load, COUNT(*) AS events \
             FROM network_events WHERE kind = 'status' GROUP BY cell \
             KEEP 1000 ROWS;\n\
         CREATE OUTPUT STREAM overload_alerts AS \
             SELECT cell, load FROM network_events WHERE load > 95;",
    )
    .unwrap();
    esp
}

fn ev(cell: &str, kind: &str, load: f64) -> Row {
    Row::from_values([Value::from(cell), Value::from(kind), Value::Double(load)])
}

#[test]
fn use_case_1_prefilter_aggregate_forward() {
    let esp = telecom_engine();
    // A "HANA table" the window forwards into.
    let stored: Arc<Mutex<Vec<Row>>> = Arc::new(Mutex::new(Vec::new()));
    esp.attach_sink("cell_health", Sink::Memory(Arc::clone(&stored)))
        .unwrap();
    for i in 0..100 {
        esp.send(
            "network_events",
            i,
            ev(
                if i % 2 == 0 { "c1" } else { "c2" },
                "status",
                50.0 + (i % 10) as f64,
            ),
        )
        .unwrap();
        // Non-matching kinds are prefiltered out of the window.
        esp.send("network_events", i, ev("c1", "billing", 0.0))
            .unwrap();
    }
    let emitted = esp.flush_window("cell_health").unwrap();
    assert_eq!(emitted.len(), 2, "one aggregate row per cell");
    assert_eq!(stored.lock().len(), 2, "forwarded into the table sink");
    // Tumbled: the next snapshot is empty (global aggregate of nothing).
    let snap = esp.window_snapshot("cell_health").unwrap();
    assert_eq!(snap.len(), 0);
}

#[test]
fn use_case_2_esp_join_enriches_events() {
    let esp = EspEngine::new();
    esp.deploy("CREATE INPUT STREAM gps SCHEMA (cell VARCHAR(10), lat DOUBLE);")
        .unwrap();
    // Reference data pushed from the HANA store: cell -> city.
    esp.register_reference(
        "cells",
        ResultSet::new(
            Schema::of(&[("cell_id", DataType::Varchar), ("city", DataType::Varchar)]),
            vec![
                Row::from_values([Value::from("c1"), Value::from("Walldorf")]),
                Row::from_values([Value::from("c2"), Value::from("Dresden")]),
            ],
        ),
    );
    esp.deploy(
        "CREATE OUTPUT STREAM located AS \
             SELECT g.cell, r.city, g.lat FROM gps g JOIN cells r ON g.cell = r.cell_id",
    )
    .unwrap();
    let out: Arc<Mutex<Vec<Row>>> = Arc::new(Mutex::new(Vec::new()));
    esp.attach_sink("located", Sink::Memory(Arc::clone(&out)))
        .unwrap();
    esp.send(
        "gps",
        0,
        Row::from_values([Value::from("c1"), Value::Double(49.3)]),
    )
    .unwrap();
    esp.send(
        "gps",
        1,
        Row::from_values([Value::from("cX"), Value::Double(0.0)]),
    )
    .unwrap(); // no reference partner -> dropped
    let rows = out.lock();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0][1], Value::from("Walldorf"));
}

#[test]
fn use_case_3_hana_join_window_snapshot() {
    let esp = telecom_engine();
    for i in 0..10 {
        esp.send("network_events", i, ev("c7", "status", 80.0))
            .unwrap();
    }
    // The federated query side reads the live window as a relation.
    let snap = esp.window_snapshot("cell_health").unwrap();
    assert_eq!(snap.len(), 1);
    assert_eq!(snap.schema.index_of("avg_load"), Some(1));
    assert_eq!(snap.rows[0][1], Value::Double(80.0));
    assert_eq!(snap.rows[0][2], Value::Int(10));
    assert_eq!(esp.window_schema("cell_health").unwrap().len(), 3);
}

#[test]
fn alerts_stream_and_pattern_detection() {
    let esp = telecom_engine();
    let alerts: Arc<Mutex<Vec<Row>>> = Arc::new(Mutex::new(Vec::new()));
    esp.attach_sink("overload_alerts", Sink::Memory(Arc::clone(&alerts)))
        .unwrap();
    // Outage pattern: overload, then an outage event, within 5s.
    esp.define_pattern(
        "outage",
        "network_events",
        &["load > 95", "kind = 'outage'"],
        5,
    )
    .unwrap();
    esp.send("network_events", 0, ev("c1", "status", 99.0))
        .unwrap();
    esp.send("network_events", 1_000_000, ev("c1", "outage", 0.0))
        .unwrap();
    assert_eq!(alerts.lock().len(), 1, "overload alert forwarded");
    let matches = esp.take_alerts("outage");
    assert_eq!(matches.len(), 1);
    assert_eq!(matches[0].len(), 2);
    assert!(esp.take_alerts("outage").is_empty(), "drained");
}

#[test]
fn hdfs_archive_and_replay() {
    let esp = telecom_engine();
    let hdfs = Arc::new(Hdfs::new(2));
    esp.attach_sink(
        "network_events",
        Sink::Hdfs {
            hdfs: Arc::clone(&hdfs),
            path: "/archive/network/day1".into(),
        },
    )
    .unwrap();
    for i in 0..50 {
        esp.send("network_events", i, ev("c1", "status", i as f64))
            .unwrap();
    }
    let lines = hdfs.read_lines("/archive/network/day1").unwrap();
    assert_eq!(lines.len(), 50, "raw events archived");

    // Replay the archive into a fresh engine (pattern verification).
    let dev = telecom_engine();
    let schema = Schema::of(&[
        ("cell", DataType::Varchar),
        ("kind", DataType::Varchar),
        ("load", DataType::Double),
    ]);
    let ts = std::cell::Cell::new(0i64);
    let replayed = dev
        .replay_hdfs(&hdfs, "/archive/network/day1", "network_events", |line| {
            ts.set(ts.get() + 1);
            parse_archive_line(line, &schema).map(|r| (ts.get(), r))
        })
        .unwrap();
    assert_eq!(replayed, 50);
    let snap = dev.window_snapshot("cell_health").unwrap();
    assert_eq!(snap.rows[0][2], Value::Int(50));
}

#[test]
fn window_retention_limits_state() {
    let esp = EspEngine::new();
    esp.deploy(
        "CREATE INPUT STREAM s SCHEMA (v DOUBLE);\n\
         CREATE OUTPUT WINDOW recent AS SELECT COUNT(v) FROM s KEEP 10 ROWS;\n\
         CREATE OUTPUT WINDOW last_minute AS SELECT COUNT(v) FROM s KEEP 60 SECONDS;",
    )
    .unwrap();
    for i in 0..100i64 {
        esp.send(
            "s",
            i * 1_000_000,
            Row::from_values([Value::Double(i as f64)]),
        )
        .unwrap();
    }
    let recent = esp.window_snapshot("recent").unwrap();
    assert_eq!(recent.rows[0][0], Value::Int(10));
    let last_minute = esp.window_snapshot("last_minute").unwrap();
    // Events at ts 39..99 seconds are within 60s of t=99.
    assert_eq!(last_minute.rows[0][0], Value::Int(61));
}

#[test]
fn threaded_ingestion() {
    let esp = Arc::new(telecom_engine());
    let (tx, rx) = crossbeam::channel::unbounded::<(i64, Row)>();
    let consumer = {
        let esp = Arc::clone(&esp);
        std::thread::spawn(move || {
            for (ts, row) in rx {
                esp.send("network_events", ts, row).unwrap();
            }
        })
    };
    let producers: Vec<_> = (0..4)
        .map(|p| {
            let tx = tx.clone();
            std::thread::spawn(move || {
                for i in 0..250 {
                    tx.send((i, ev(&format!("c{p}"), "status", 42.0))).unwrap();
                }
            })
        })
        .collect();
    drop(tx);
    for p in producers {
        p.join().unwrap();
    }
    consumer.join().unwrap();
    let (events_in, _) = esp.stats();
    assert_eq!(events_in, 1000);
    let snap = esp.window_snapshot("cell_health").unwrap();
    assert_eq!(snap.len(), 4);
}

#[test]
fn errors_and_validation() {
    let esp = EspEngine::new();
    assert!(esp.send("nope", 0, Row::new()).is_err());
    esp.deploy("CREATE INPUT STREAM s SCHEMA (v INT)").unwrap();
    // Wrong arity.
    assert!(esp.send("s", 0, Row::new()).is_err());
    // Unknown sink target.
    assert!(esp
        .attach_sink("ghost", Sink::Memory(Arc::new(Mutex::new(Vec::new()))))
        .is_err());
    // Window over unknown stream.
    assert!(esp
        .deploy("CREATE OUTPUT WINDOW w AS SELECT v FROM ghost KEEP 1 ROWS")
        .is_err());
    // ESP join without registered reference.
    assert!(esp
        .deploy("CREATE OUTPUT STREAM o AS SELECT s.v FROM s JOIN r ON s.v = r.v")
        .is_err());
    // Duplicate stream.
    assert!(esp.deploy("CREATE INPUT STREAM s SCHEMA (v INT)").is_err());
    assert!(esp.window_snapshot("missing").is_err());
}

#[test]
fn bounded_input_queue_blocks_producers_and_counts_engagements() {
    let esp = Arc::new(EspEngine::new());
    esp.set_input_queue_cap(2);
    esp.deploy("CREATE INPUT STREAM slow SCHEMA (v INT)")
        .unwrap();
    // A sink that holds every event until released: the engine lock stays
    // held inside emit(), so producers queue up at the gate.
    let release: Arc<(std::sync::Mutex<bool>, std::sync::Condvar)> =
        Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new()));
    let rel = Arc::clone(&release);
    let writer: hana_esp::TableWriter = Arc::new(move |_t: &str, _s: &Schema, _r: &[Row]| {
        let (lock, cv) = &*rel;
        let mut open = lock.lock().unwrap();
        while !*open {
            open = cv.wait(open).unwrap();
        }
        Ok(())
    });
    esp.attach_sink(
        "slow",
        Sink::Table {
            table: "t".into(),
            writer,
        },
    )
    .unwrap();

    let before = hana_obs::registry()
        .snapshot()
        .counter("hana_esp_backpressure_engaged_total");
    let producers: Vec<_> = (0..4)
        .map(|i| {
            let esp = Arc::clone(&esp);
            std::thread::spawn(move || esp.send("slow", i, Row::from_values([Value::Int(i)])))
        })
        .collect();
    // Wait until the gate is saturated: 2 admitted, the rest blocked.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while esp.pending_events("slow") < 2 && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(esp.pending_events("slow"), 2);
    // Give the remaining producers a moment to hit the full gate.
    std::thread::sleep(std::time::Duration::from_millis(50));
    assert_eq!(esp.pending_events("slow"), 2);

    // Open the sink: everyone drains.
    {
        let (lock, cv) = &*release;
        *lock.lock().unwrap() = true;
        cv.notify_all();
    }
    for p in producers {
        p.join().unwrap().unwrap();
    }
    assert_eq!(esp.pending_events("slow"), 0);
    let after = hana_obs::registry()
        .snapshot()
        .counter("hana_esp_backpressure_engaged_total");
    assert!(
        after > before,
        "backpressure engagement should be counted ({before} -> {after})"
    );
    let (events_in, _) = esp.stats();
    assert_eq!(events_in, 4);
}

#[test]
fn sinks_detach_individually_by_id() {
    let esp = telecom_engine();
    let a: Arc<Mutex<Vec<Row>>> = Arc::new(Mutex::new(Vec::new()));
    let b: Arc<Mutex<Vec<Row>>> = Arc::new(Mutex::new(Vec::new()));
    let id_a = esp
        .attach_sink("overload_alerts", Sink::Memory(Arc::clone(&a)))
        .unwrap();
    let _id_b = esp
        .attach_sink("overload_alerts", Sink::Memory(Arc::clone(&b)))
        .unwrap();
    esp.send("network_events", 0, ev("c1", "status", 99.0))
        .unwrap();
    assert_eq!(a.lock().len(), 1);
    assert_eq!(b.lock().len(), 1);
    assert!(esp.detach_sink("overload_alerts", id_a));
    assert!(!esp.detach_sink("overload_alerts", id_a));
    esp.send("network_events", 1, ev("c1", "status", 99.0))
        .unwrap();
    assert_eq!(a.lock().len(), 1, "detached sink must not receive rows");
    assert_eq!(b.lock().len(), 2);
    assert_eq!(esp.detach_sinks("overload_alerts"), 1);
    use hana_esp::EspTargetKind;
    assert_eq!(
        esp.target_kind("network_events").unwrap(),
        EspTargetKind::Stream
    );
    assert_eq!(
        esp.target_kind("cell_health").unwrap(),
        EspTargetKind::Window
    );
    assert_eq!(
        esp.target_kind("overload_alerts").unwrap(),
        EspTargetKind::OutputStream
    );
    assert!(esp.target_kind("nope").is_err());
}

/// A CCL filter, window key or pattern step over an unknown column is
/// refused when it is defined — not a definition every event silently
/// fails.
#[test]
fn an_unknown_column_fails_when_the_ccl_is_defined() {
    let esp = telecom_engine();
    for ccl in [
        "CREATE OUTPUT STREAM bad AS SELECT cell FROM network_events WHERE nosuch > 95;",
        "CREATE OUTPUT STREAM bad AS SELECT nosuch FROM network_events;",
        "CREATE OUTPUT WINDOW bad AS SELECT cell, COUNT(*) AS n FROM network_events \
         WHERE nosuch = 'status' GROUP BY cell KEEP 10 ROWS;",
        "CREATE OUTPUT WINDOW bad AS SELECT nosuch, COUNT(*) AS n FROM network_events \
         GROUP BY nosuch KEEP 10 ROWS;",
        "CREATE OUTPUT WINDOW bad AS SELECT cell, SUM(nosuch) AS n FROM network_events \
         GROUP BY cell KEEP 10 ROWS;",
        "CREATE OUTPUT WINDOW bad AS SELECT nosuch FROM network_events KEEP 10 ROWS;",
        "CREATE OUTPUT WINDOW bad AS SELECT cell, COUNT(*) AS n FROM network_events \
         GROUP BY cell ORDER BY nosuch KEEP 10 ROWS;",
    ] {
        let err = esp
            .deploy(ccl)
            .err()
            .unwrap_or_else(|| panic!("{ccl} deployed"));
        assert!(
            err.to_string().contains("unknown column 'nosuch'"),
            "{ccl}: {err}"
        );
    }
    let err = esp
        .define_pattern("bad", "network_events", &["nosuch = 'warn'"], 10)
        .unwrap_err();
    assert!(err.to_string().contains("unknown column 'nosuch'"), "{err}");
    // What was defined still runs.
    esp.send("network_events", 0, ev("c1", "status", 99.0))
        .unwrap();
    assert_eq!(esp.window_snapshot("cell_health").unwrap().len(), 1);
}
