//! The HDFS simulator.
//!
//! A block-based distributed file system in miniature: files are split
//! into fixed-size blocks, each block is "replicated" onto `replication`
//! simulated datanodes (round-robin with the least-loaded node first),
//! and all reads/writes are metered. The paper's Hadoop-side experiments
//! (Figs 14/15) and the ESP raw-event archive (§3.2) run on top of this.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

use hana_types::{HanaError, Result};

/// Default block size (64 KiB — scaled down like everything else).
pub const DEFAULT_BLOCK_SIZE: usize = 64 * 1024;

/// One stored block with its replica placement.
#[derive(Debug, Clone)]
struct Block {
    data: Vec<u8>,
    replicas: Vec<usize>,
}

#[derive(Debug, Default, Clone)]
struct HdfsFile {
    blocks: Vec<Block>,
    len: usize,
}

/// The simulated distributed file system.
pub struct Hdfs {
    block_size: usize,
    replication: usize,
    datanodes: Vec<AtomicU64>, // bytes stored per node
    files: RwLock<BTreeMap<String, HdfsFile>>,
}

impl Hdfs {
    /// A cluster of `datanodes` nodes with the default block size and
    /// 3-way (or fewer, if the cluster is smaller) replication.
    pub fn new(datanodes: usize) -> Hdfs {
        Hdfs::with_config(datanodes, DEFAULT_BLOCK_SIZE, 3.min(datanodes.max(1)))
    }

    /// Fully configured constructor.
    pub fn with_config(datanodes: usize, block_size: usize, replication: usize) -> Hdfs {
        let n = datanodes.max(1);
        Hdfs {
            block_size: block_size.max(1),
            replication: replication.clamp(1, n),
            datanodes: (0..n).map(|_| AtomicU64::new(0)).collect(),
            files: RwLock::new(BTreeMap::new()),
        }
    }

    fn normalize(path: &str) -> String {
        let p = path.trim();
        let p = match p.strip_prefix("hdfs://") {
            // With a scheme, drop the authority (`namenode:8020`).
            Some(rest) => match rest.find('/') {
                Some(i) => &rest[i..],
                None => "/",
            },
            None => p,
        };
        if p.starts_with('/') {
            p.to_string()
        } else {
            format!("/{p}")
        }
    }

    /// Whether `path` exists.
    pub fn exists(&self, path: &str) -> bool {
        self.files.read().contains_key(&Self::normalize(path))
    }

    /// Write (create or overwrite) a file.
    pub fn write(&self, path: &str, data: &[u8]) -> Result<()> {
        let path = Self::normalize(path);
        let mut file = HdfsFile::default();
        self.append_blocks(&mut file, data);
        // Replace: un-account the old file's bytes first.
        let mut files = self.files.write();
        if let Some(old) = files.remove(&path) {
            self.unaccount(&old);
        }
        files.insert(path, file);
        Ok(())
    }

    /// Append to a file, creating it if missing.
    pub fn append(&self, path: &str, data: &[u8]) -> Result<()> {
        let path = Self::normalize(path);
        let mut files = self.files.write();
        let file = files.entry(path).or_default();
        // Fill the last partial block first, then add whole blocks.
        let mut data = data;
        if let Some(last) = file.blocks.last_mut() {
            if last.data.len() < self.block_size {
                let take = (self.block_size - last.data.len()).min(data.len());
                last.data.extend_from_slice(&data[..take]);
                file.len += take;
                for &n in &last.replicas {
                    self.datanodes[n].fetch_add(take as u64, Ordering::Relaxed);
                }
                data = &data[take..];
            }
        }
        if !data.is_empty() {
            // Work around borrowck: append_blocks only touches counters.
            let mut tail = HdfsFile::default();
            self.append_blocks(&mut tail, data);
            file.len += tail.len;
            file.blocks.append(&mut tail.blocks);
        }
        Ok(())
    }

    fn append_blocks(&self, file: &mut HdfsFile, data: &[u8]) {
        for chunk in data.chunks(self.block_size) {
            let replicas = self.pick_replicas();
            for &n in &replicas {
                self.datanodes[n].fetch_add(chunk.len() as u64, Ordering::Relaxed);
            }
            file.len += chunk.len();
            file.blocks.push(Block {
                data: chunk.to_vec(),
                replicas,
            });
        }
    }

    /// Least-loaded-first replica placement.
    fn pick_replicas(&self) -> Vec<usize> {
        let mut loads: Vec<(u64, usize)> = self
            .datanodes
            .iter()
            .enumerate()
            .map(|(i, b)| (b.load(Ordering::Relaxed), i))
            .collect();
        loads.sort_unstable();
        loads
            .into_iter()
            .take(self.replication)
            .map(|(_, i)| i)
            .collect()
    }

    fn unaccount(&self, file: &HdfsFile) {
        for b in &file.blocks {
            for &n in &b.replicas {
                self.datanodes[n].fetch_sub(b.data.len() as u64, Ordering::Relaxed);
            }
        }
    }

    /// Read a whole file.
    pub fn read(&self, path: &str) -> Result<Vec<u8>> {
        let path = Self::normalize(path);
        let files = self.files.read();
        let file = files
            .get(&path)
            .ok_or_else(|| HanaError::Io(format!("HDFS: no such file '{path}'")))?;
        let mut out = Vec::with_capacity(file.len);
        for b in &file.blocks {
            out.extend_from_slice(&b.data);
        }
        Ok(out)
    }

    /// Delete a file; returns whether it existed.
    pub fn delete(&self, path: &str) -> bool {
        let path = Self::normalize(path);
        match self.files.write().remove(&path) {
            Some(f) => {
                self.unaccount(&f);
                true
            }
            None => false,
        }
    }

    /// Delete every file under `dir` (recursive `rm -r`). Returns count.
    pub fn delete_dir(&self, dir: &str) -> usize {
        let prefix = Self::dir_prefix(dir);
        let mut files = self.files.write();
        let doomed: Vec<String> = files
            .keys()
            .filter(|k| k.starts_with(&prefix))
            .cloned()
            .collect();
        for k in &doomed {
            if let Some(f) = files.remove(k) {
                self.unaccount(&f);
            }
        }
        doomed.len()
    }

    fn dir_prefix(dir: &str) -> String {
        let mut p = Self::normalize(dir);
        if !p.ends_with('/') {
            p.push('/');
        }
        p
    }

    /// List the files under `dir` (recursive), sorted.
    pub fn list(&self, dir: &str) -> Vec<String> {
        let prefix = Self::dir_prefix(dir);
        self.files
            .read()
            .keys()
            .filter(|k| k.starts_with(&prefix))
            .cloned()
            .collect()
    }

    /// File length in bytes.
    pub fn len(&self, path: &str) -> Result<usize> {
        let path = Self::normalize(path);
        self.files
            .read()
            .get(&path)
            .map(|f| f.len)
            .ok_or_else(|| HanaError::Io(format!("HDFS: no such file '{path}'")))
    }

    /// Number of blocks of a file (drives the MR split count).
    pub fn block_count(&self, path: &str) -> Result<usize> {
        let path = Self::normalize(path);
        self.files
            .read()
            .get(&path)
            .map(|f| f.blocks.len())
            .ok_or_else(|| HanaError::Io(format!("HDFS: no such file '{path}'")))
    }

    // ---- text-file helpers (the Hive storage format) ----

    /// Append text lines to a file.
    pub fn append_lines<S: AsRef<str>>(&self, path: &str, lines: &[S]) -> Result<()> {
        let mut buf = String::new();
        for l in lines {
            buf.push_str(l.as_ref());
            buf.push('\n');
        }
        self.append(path, buf.as_bytes())
    }

    /// Read a whole file as text.
    pub fn read_text(&self, path: &str) -> Result<String> {
        utf8(self.read(path)?, path)
    }

    /// Read a file as text lines.
    pub fn read_lines(&self, path: &str) -> Result<Vec<String>> {
        Ok(self.read_text(path)?.lines().map(str::to_string).collect())
    }

    /// The input split of block `block`: the lines that *start* in the
    /// block, the last one finished from the blocks that follow — the
    /// rule of Hadoop's `LineRecordReader`, under which the splits of a
    /// file are a partition of its lines whatever the block size. A
    /// block in the middle of one long line owns no line at all.
    pub fn read_split(&self, path: &str, block: usize) -> Result<String> {
        let norm = Self::normalize(path);
        let files = self.files.read();
        let file = files
            .get(&norm)
            .ok_or_else(|| HanaError::Io(format!("HDFS: no such file '{norm}'")))?;
        // Every block but the last is full, so byte `pos` of the file
        // is byte `pos % block_size` of block `pos / block_size`.
        let size = self.block_size;
        if block * size >= file.len {
            return Ok(String::new());
        }
        let block_end = ((block + 1) * size).min(file.len);
        // One past the first newline at or after `from`, if there is one.
        let after_newline = |from: usize| {
            let mut skip = from % size;
            for (b, blk) in file.blocks.iter().enumerate().skip(from / size) {
                if let Some(i) = blk.data[skip..].iter().position(|&c| c == b'\n') {
                    return Some(b * size + skip + i + 1);
                }
                skip = 0;
            }
            None
        };
        // A line starts at byte 0 and after every newline: back up one
        // byte, so that a line starting exactly at the block boundary
        // is this split's and not the previous one's.
        let start = match block {
            0 => Some(0),
            _ => after_newline(block * size - 1),
        };
        let Some(start) = start.filter(|&s| s < block_end) else {
            return Ok(String::new());
        };
        let end = after_newline(block_end - 1).unwrap_or(file.len);
        let mut out = Vec::with_capacity(end - start);
        for (b, blk) in file.blocks.iter().enumerate().skip(start / size) {
            let base = b * size;
            if base >= end {
                break;
            }
            let from = start.saturating_sub(base);
            out.extend_from_slice(&blk.data[from..(end - base).min(blk.data.len())]);
        }
        utf8(out, &norm)
    }

    // ---- cluster accounting ----

    /// Bytes stored per datanode.
    pub fn datanode_usage(&self) -> Vec<u64> {
        self.datanodes
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Total logical bytes stored.
    pub fn used_bytes(&self) -> usize {
        self.files.read().values().map(|f| f.len).sum()
    }
}

fn utf8(data: Vec<u8>, path: &str) -> Result<String> {
    String::from_utf8(data).map_err(|_| HanaError::Io(format!("HDFS: '{path}' is not valid UTF-8")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_round_trip_and_normalization() {
        let fs = Hdfs::new(4);
        fs.write("hdfs://nn:8020/data/x.txt", b"hello world")
            .unwrap();
        assert!(fs.exists("/data/x.txt"));
        assert_eq!(fs.read("data/x.txt").unwrap(), b"hello world");
        assert_eq!(fs.len("/data/x.txt").unwrap(), 11);
    }

    #[test]
    fn blocks_and_replication() {
        let fs = Hdfs::with_config(5, 10, 3);
        fs.write("/big", &[1u8; 35]).unwrap();
        assert_eq!(fs.block_count("/big").unwrap(), 4);
        // 35 bytes * 3 replicas spread over 5 nodes.
        let usage = fs.datanode_usage();
        assert_eq!(usage.iter().sum::<u64>(), 35 * 3);
        assert!(
            usage.iter().all(|&u| u > 0),
            "placement is balanced: {usage:?}"
        );
    }

    #[test]
    fn append_fills_partial_blocks() {
        let fs = Hdfs::with_config(2, 10, 1);
        fs.append("/log", b"12345").unwrap();
        fs.append("/log", b"67890AB").unwrap();
        assert_eq!(fs.read("/log").unwrap(), b"1234567890AB");
        assert_eq!(fs.block_count("/log").unwrap(), 2);
    }

    #[test]
    fn delete_and_list() {
        let fs = Hdfs::new(2);
        fs.write("/warehouse/t1/part-0", b"a").unwrap();
        fs.write("/warehouse/t1/part-1", b"b").unwrap();
        fs.write("/warehouse/t2/part-0", b"c").unwrap();
        assert_eq!(fs.list("/warehouse/t1").len(), 2);
        assert_eq!(fs.delete_dir("/warehouse/t1"), 2);
        assert!(!fs.exists("/warehouse/t1/part-0"));
        assert!(fs.exists("/warehouse/t2/part-0"));
        assert!(fs.delete("/warehouse/t2/part-0"));
        assert!(!fs.delete("/warehouse/t2/part-0"));
        assert_eq!(fs.used_bytes(), 0);
    }

    #[test]
    fn text_helpers() {
        let fs = Hdfs::new(1);
        fs.append_lines("/t.csv", &["a|1", "b|2"]).unwrap();
        fs.append_lines("/t.csv", &["c|3"]).unwrap();
        assert_eq!(fs.read_lines("/t.csv").unwrap(), vec!["a|1", "b|2", "c|3"]);
        assert!(fs.read_lines("/missing").is_err());
    }

    #[test]
    fn a_split_is_the_lines_that_start_in_its_block() {
        let fs = Hdfs::with_config(1, 4, 1);
        // Blocks: "ab\nc" "defg" "hij\n" "k\n".
        fs.write("/f", b"ab\ncdefghij\nk\n").unwrap();
        assert_eq!(fs.block_count("/f").unwrap(), 4);
        let splits: Vec<String> = (0..5).map(|b| fs.read_split("/f", b).unwrap()).collect();
        assert_eq!(splits, ["ab\ncdefghij\n", "", "", "k\n", ""]);
        assert!(fs.read_split("/missing", 0).is_err());
    }

    #[test]
    fn overwrite_reclaims_space() {
        let fs = Hdfs::with_config(2, 10, 2);
        fs.write("/f", &[0u8; 100]).unwrap();
        let before: u64 = fs.datanode_usage().iter().sum();
        fs.write("/f", &[0u8; 10]).unwrap();
        let after: u64 = fs.datanode_usage().iter().sum();
        assert_eq!(before, 200);
        assert_eq!(after, 20);
    }
}
