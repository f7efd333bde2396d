//! The input splits of a file are a partition of its lines, whatever
//! the block size: a map task reads the lines that *start* in its block
//! and finishes the last one from the blocks that follow.

use std::sync::Arc;
use std::time::Duration;

use hana_hadoop::{Hdfs, JobSpec, MrCluster, MrConfig, KV};
use proptest::prelude::*;

proptest! {
    /// Lines of 0–90 characters — empty ones, ones longer than any
    /// block, 2-, 3- and 4-byte characters that straddle a boundary,
    /// carriage returns — with and without a final newline, cut into
    /// blocks of 1–64 bytes.
    #[test]
    fn splits_are_a_partition_of_the_lines_in_order(
        lines in prop::collection::vec("[a-c é€😀\r]{0,90}", 0..12),
        final_newline in any::<bool>(),
    ) {
        let mut text = lines.join("\n");
        if final_newline && !lines.is_empty() {
            text.push('\n');
        }
        let expected: Vec<&str> = text.lines().collect();
        for block_size in 1..=64 {
            let hdfs = Arc::new(Hdfs::with_config(2, block_size, 1));
            hdfs.write("/f", text.as_bytes()).unwrap();
            let nblocks = hdfs.block_count("/f").unwrap();
            prop_assert_eq!(nblocks, text.len().div_ceil(block_size));

            let mut got: Vec<String> = Vec::new();
            for block in 0..nblocks {
                let split = hdfs.read_split("/f", block).unwrap();
                got.extend(split.lines().map(str::to_string));
            }
            prop_assert_eq!(&got, &expected, "block size {}", block_size);
            prop_assert_eq!(hdfs.read_split("/f", nblocks).unwrap(), "");

            // The same through a job: every line is mapped exactly once.
            let config = MrConfig {
                worker_slots: 2,
                job_startup: Duration::ZERO,
                task_startup: Duration::ZERO,
            };
            let mr = MrCluster::new(Arc::clone(&hdfs), config);
            let spec = JobSpec {
                name: "echo".into(),
                inputs: vec!["/f".into()],
                output_dir: "/out".into(),
                num_reducers: 0,
            };
            // A text output line cannot end in a carriage return: spell it.
            let spell = |line: &str| line.replace('\r', "<CR>");
            let echo = move |_path: &str, line: &str, out: &mut Vec<KV>| {
                out.push((String::new(), spell(line)));
            };
            let stats = mr.run_job(&spec, Arc::new(echo), None).unwrap();
            prop_assert_eq!(stats.map_tasks, nblocks.max(1));
            prop_assert_eq!(stats.input_records, expected.len() as u64);
            let mut mapped = mr.read_output("/out").unwrap();
            mapped.sort();
            let mut spelled: Vec<String> = got.iter().map(|l| spell(l)).collect();
            spelled.sort();
            prop_assert_eq!(mapped, spelled, "block size {}", block_size);
        }
    }
}
