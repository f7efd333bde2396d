//! Every retired path stays retired. [`GUARDS`] holds one row per guard:
//! the files it reads, what it forbids there, the exceptions it allows,
//! why, and the entry of ROADMAP.md's deletion ledger that retired the
//! path. The test reads the source tree below `CARGO_MANIFEST_DIR` and
//! fails once, listing every violating `file:line` of every row.
//!
//! Patterns are matched by hand (no regex crate is vendored). A
//! [`Pat::Text`] is literal text with three markers: a leading `^` puts
//! it at the start of a line's text (after indentation and an optional
//! `pub ` or `pub(crate) `), and a leading or trailing `\b` asks for a
//! word boundary there, as in `grep -E`.
//!
//! Run it alone with `cargo test --test retired_paths`.

use std::ops::RangeInclusive;
use std::path::Path;

/// What a line must not contain.
#[derive(Clone, Copy)]
enum Pat {
    /// Text, with the markers above.
    Text(&'static str),
    /// `open`, then text without `stop`, then `close`: `open[^stop]*close`.
    Span(&'static str, char, &'static str),
    /// A field declaration `name: type`, placed as `^` places text, whose
    /// type names the text.
    Field(&'static str),
}

use Pat::{Field, Span, Text};

/// What a row forbids.
enum Rule {
    /// The number of lines that match one of the patterns lies in the
    /// range; [`NONE`] allows no line.
    Lines(&'static [Pat], RangeInclusive<usize>),
    /// None of the row's paths exists.
    Absent,
}

use Rule::{Absent, Lines};

const NONE: RangeInclusive<usize> = 0..=0;

/// Lines a [`Rule::Lines`] row does not count.
enum Except {
    /// Every line of this file.
    File(&'static str),
    /// A line of this file indented by spaces, whose text starts so.
    Line(&'static str, &'static str),
}

use Except::{File, Line};

struct Guard {
    /// The row's name; DESIGN.md cites a guard by it.
    name: &'static str,
    /// The deletion-ledger entry (ROADMAP.md) that retired the path.
    ledger: u32,
    /// Paths relative to the repository root. `*` matches within one
    /// path component, `**` any run of directories (`target/` and
    /// `.git/` are skipped), and a directory stands for every file below
    /// it.
    paths: &'static [&'static str],
    /// Only lines from one that matches the first pattern through the
    /// next line that is exactly the second; a region still open at the
    /// end of a file continues into the row's next file, as an `awk`
    /// range over several files does.
    region: Option<(&'static str, &'static str)>,
    rule: Rule,
    except: &'static [Except],
    why: &'static str,
}

/// The fields most rows leave as they are.
const ROW: Guard = Guard {
    name: "",
    ledger: 0,
    paths: &[],
    region: None,
    rule: Absent,
    except: &[],
    why: "",
};

/// Shipped sources: every crate's `src` and the root package's.
const SHIPPED: &[&str] = &["crates/*/src", "src"];

const GUARDS: &[Guard] = &[
    Guard {
        name: "lint-allow-list",
        ledger: 22,
        paths: SHIPPED,
        rule: Lines(
            &[Span("#[allow(", ']', ")]"), Span("#![allow(", ']', ")]")],
            NONE,
        ),
        why: "the allow-list is empty: a lint exemption is a reviewed change to this row, never a local one",
        ..ROW
    },
    // One batch evaluator and one group-by below every engine.
    Guard {
        name: "executor-builds-no-rows",
        ledger: 22,
        paths: &["crates/query/src/executor.rs"],
        rule: Lines(&[Text("collect_rows(")], NONE),
        why: "executor.rs must not materialize rows",
        ..ROW
    },
    Guard {
        name: "one-runtime-evaluator",
        ledger: 26,
        paths: &["crates/*/src"],
        rule: Lines(
            &[Text(r"\bevaluate("), Text(r"\bevaluate_predicate(")],
            NONE,
        ),
        except: &[
            File("crates/sql/src/eval.rs"),
            File("crates/esp/src/engine.rs"),
            File("crates/esp/src/window.rs"),
            File("crates/esp/src/pattern.rs"),
        ],
        why: "evaluate through hana_sql::batch: the row evaluator is for ESP per-event paths only",
        ..ROW
    },
    Guard {
        name: "epilogue-resolved-at-compile",
        ledger: 26,
        paths: &["crates/*/src"],
        rule: Lines(&[Text("finish_query")], NONE),
        why: "an engine resolves its Epilogue when it compiles: no finish_query",
        ..ROW
    },
    Guard {
        name: "batch-layer-in-hana-sql",
        ledger: 26,
        paths: &[
            "crates/query/src/batch.rs",
            "crates/query/src/eval.rs",
            "crates/query/src/aggregate.rs",
        ],
        rule: Absent,
        why: "the batch layer lives in crates/sql/src/batch",
        ..ROW
    },
    Guard {
        name: "one-group-by",
        ledger: 22,
        paths: SHIPPED,
        rule: Lines(
            &[Text(r"\btry_fused_group_by\b"), Text(r"\baggregate_chunk\b")],
            NONE,
        ),
        why: "group_batch is the one group-by: no fused special case, no row-at-a-time aggregation",
        ..ROW
    },
    // A cached plan is a resolved plan.
    Guard {
        name: "operators-look-no-name-up",
        ledger: 24,
        paths: &[
            "crates/query/src/executor.rs",
            "crates/query/src/join.rs",
            "crates/query/src/locate.rs",
            "crates/sql/src/batch/*.rs",
        ],
        rule: Lines(
            &[Text(".resolve("), Text("resolve_column("), Text(".require(")],
            NONE,
        ),
        except: &[Line(
            "crates/query/src/executor.rs",
            "let resolve = |(c, p): &PlanPredicate| Ok((schema.require(c)?",
        )],
        why: "operators read positions: names are resolved when the plan is compiled; a leaf's pushed-down predicates (resolve_preds) are the one lookup left",
        ..ROW
    },
    Guard {
        name: "one-equi-key-extractor",
        ledger: 24,
        paths: &["crates/*/src"],
        rule: Lines(&[Text("fn equi_keys")], 0..=1),
        why: "one equi-key extractor: hana_sql::equi_keys",
        ..ROW
    },
    Guard {
        name: "one-query-block",
        ledger: 37,
        paths: &["crates/*/src"],
        rule: Lines(
            &[
                Text(r"fn owning_binding\b"),
                Text(r"fn binding_of_column\b"),
                Text(r"fn prune_unreferenced\b"),
                Text(r"fn single_source_of\b"),
                Text(r"fn named_columns\b"),
                Text(r"fn bind_table\b"),
                Text(r"fn read_rows\b"),
            ],
            NONE,
        ),
        why: "bind, place and prune through hana_sql::block; read Hive text with read_batch",
        ..ROW
    },
    // One remote-join operator, a cost model without knobs.
    Guard {
        name: "one-remote-join-operator",
        ledger: 45,
        paths: &["crates/query/src/plan.rs"],
        region: Some(("^pub enum PlanOp", "}")),
        rule: Lines(&[Text("^SemiJoin {"), Text("^RelocateJoin {")], NONE),
        why: "a semijoin and a table relocation are PlanOp::RemoteJoin strategies",
        ..ROW
    },
    Guard {
        name: "cost-model-without-knobs",
        ledger: 45,
        paths: &["crates/query/src/*.rs"],
        region: Some(("struct CostModel", "}")),
        rule: Lines(&[Text("pub ")], NONE),
        why: "the federation unit costs are constants in cost.rs, not settable fields",
        ..ROW
    },
    Guard {
        name: "cost-model-not-exported",
        ledger: 45,
        paths: &["crates/query/src/lib.rs"],
        rule: Lines(&[Text("CostModel")], NONE),
        why: "the federation unit costs are constants in cost.rs, not settable fields",
        ..ROW
    },
    Guard {
        name: "semijoin-ships-build-keys",
        ledger: 45,
        paths: &["crates/query/src/executor.rs"],
        rule: Lines(&[Text("keys.sort()"), Text("keys.dedup()")], NONE),
        why: "a semijoin ships BuildKeys::ascending, the keys its hash join built",
        ..ROW
    },
    Guard {
        name: "remote-table-priced-once",
        ledger: 45,
        paths: SHIPPED,
        rule: Lines(
            &[Text(r"\bremote_rows_opt\b"), Text(r"\bexplain_query\b")],
            NONE,
        ),
        why: "a remote table is priced once (remote_rows), and EXPLAIN goes through the planner",
        ..ROW
    },
    Guard {
        name: "build-side-fixed-by-planner",
        ledger: 43,
        paths: &["crates/query/src"],
        rule: Lines(&[Text("l.rows() < r.rows()")], NONE),
        why: "the planner fixes the build side (PlanOp::HashJoin { build }): no run-time choice in hana-query",
        ..ROW
    },
    // Admission: two independent pools, instruments resolved once.
    Guard {
        name: "two-independent-pools",
        ledger: 29,
        paths: &["crates/*/src"],
        rule: Lines(
            &[
                Text("total_limit"),
                Text("with_priority"),
                Text("UnknownClass"),
                Text("controller_of"),
            ],
            NONE,
        ),
        why: "admission is two independent pools: no shared cap, priority or class lookup",
        ..ROW
    },
    Guard {
        name: "admission-resolves-its-registry-once",
        ledger: 29,
        paths: &["crates/exec/src/admission.rs"],
        rule: Lines(&[Text("hana_obs::registry()")], 1..=1),
        why: "a pool resolves its instruments once, when it is built",
        ..ROW
    },
    Guard {
        name: "admission-names-its-metrics-once",
        ledger: 29,
        paths: &["crates/exec/src/admission.rs"],
        rule: Lines(&[Text("format!(\"hana_admission_")], 1..=1),
        why: "a pool resolves its instruments once, when it is built",
        ..ROW
    },
    Guard {
        name: "remote-instruments-resolved-once",
        ledger: 29,
        paths: &["crates/sda/src/registry.rs"],
        region: Some(("fn execute_remote(", "    }")),
        rule: Lines(&[Text("format!(\"hana_sda_")], NONE),
        why: "execute_remote uses the instruments its source resolved when built",
        ..ROW
    },
    Guard {
        name: "no-environment-knobs",
        ledger: 12,
        paths: SHIPPED,
        rule: Lines(&[Text("env::var"), Text("from_env")], NONE),
        why: "shipped sources must not read the environment",
        ..ROW
    },
    // Hadoop: modelled cost, split reads, one-pass records, no text
    // between stages.
    Guard {
        name: "no-slept-cost-model",
        ledger: 16,
        paths: &["crates/hadoop/src", "crates/sda/src/adapter.rs"],
        rule: Lines(&[Text("thread::sleep")], NONE),
        why: "simulated cost must be charged to the modelled clock, not slept",
        ..ROW
    },
    Guard {
        name: "map-task-reads-its-split",
        ledger: 17,
        paths: &["crates/hadoop/src/mapreduce.rs"],
        rule: Lines(&[Text("read_lines")], NONE),
        why: "a map task reads its split (Hdfs::read_split), never the whole file",
        ..ROW
    },
    Guard {
        name: "one-field-splitter",
        ledger: 25,
        paths: &["crates/hadoop/src"],
        rule: Lines(&[Text("split_fields"), Text("split(FIELD_SEP)")], NONE),
        why: "Hive text is cut into fields by hive::read_fields, in the pass that finds its lines",
        ..ROW
    },
    Guard {
        name: "hive-decodes-columns",
        ledger: 28,
        paths: &["crates/hadoop/src/hive.rs"],
        rule: Lines(
            &[Text("decode_fields"), Text("Column::from_values")],
            NONE,
        ),
        why: "Hive text is decoded into typed columns (hive::decode), never a row at a time",
        ..ROW
    },
    Guard {
        name: "mapper-counts-in-its-pass",
        ledger: 25,
        paths: &["crates/hadoop/src/mapreduce.rs"],
        rule: Lines(&[Text("lines().count()")], NONE),
        why: "a mapper returns how many records it read: no second pass to count them",
        ..ROW
    },
    Guard {
        name: "hive-ships-records",
        ledger: 30,
        paths: &["crates/hadoop/src/hive.rs"],
        rule: Lines(
            &[
                Text(r"\btext_line\b"),
                Text(r"\bline_fields\b"),
                Text(r"\bdecode_values\b"),
                Text(r"\bencode_row\b"),
            ],
            NONE,
        ),
        why: "Hive stages exchange records (record.rs), not text lines or encode_row",
        ..ROW
    },
    Guard {
        name: "joined-row-is-two-records",
        ledger: 30,
        paths: &["crates/hadoop/src/hive.rs"],
        rule: Lines(&[Span("format!(", ')', "{FIELD_SEP}")], NONE),
        why: "a joined row is the two records one after the other, never formatted text",
        ..ROW
    },
    Guard {
        name: "hdfs-lists-by-range",
        ledger: 30,
        paths: &["crates/hadoop/src/hdfs.rs"],
        rule: Lines(&[Text("keys().filter(")], NONE),
        why: "HDFS lists a directory by the BTreeMap range of its prefix",
        ..ROW
    },
    // Benchmarks.
    Guard {
        name: "eviction-without-scan",
        ledger: 19,
        paths: &["crates/session/src/plan_cache.rs"],
        rule: Lines(&[Text("min_by_key")], NONE),
        why: "plan-cache eviction is O(1): the recency list, never a scan",
        ..ROW
    },
    Guard {
        name: "no-bench-json",
        ledger: 16,
        paths: &["**/BENCH_*.json"],
        rule: Absent,
        why: "no BENCH_*.json anywhere in the tree: results belong to benchmark/",
        ..ROW
    },
    // Execution: one fork-join whose caller claims items.
    Guard {
        name: "one-fork-join",
        ledger: 14,
        paths: SHIPPED,
        rule: Lines(&[Text(r"\bTaskGraph\b")], NONE),
        why: "ExecContext::scatter is the one fork-join: no task graph",
        ..ROW
    },
    Guard {
        name: "caller-claims-items",
        ledger: 41,
        paths: &["crates/*/src"],
        rule: Lines(
            &[
                Text("on_worker_thread"),
                Text("CURRENT_POOL"),
                Text("ScatterState"),
            ],
            NONE,
        ),
        why: "a scatter caller claims items itself (exec/src/pool.rs): no inline-on-worker case, no per-item job state",
        ..ROW
    },
    // Expressions: no bytecode VM beside the evaluator.
    Guard {
        name: "no-bytecode-vm",
        ledger: 21,
        paths: SHIPPED,
        rule: Lines(
            &[Text(r"\bcompile_expr\b"), Text(r"\btry_vm_finish\b")],
            NONE,
        ),
        why: "expressions run through hana_sql's evaluators: no bytecode VM",
        ..ROW
    },
    Guard {
        name: "no-bytecode-vm-files",
        ledger: 21,
        paths: &["crates/query/src/compile.rs", "crates/query/src/vm.rs"],
        rule: Absent,
        why: "expressions run through hana_sql's evaluators: no bytecode VM",
        ..ROW
    },
    // Columnar: word-at-a-time scans, merges by dictionary.
    Guard {
        name: "scan-keeps-whole-words",
        ledger: 34,
        paths: &["crates/columnar/src/bitmap.rs"],
        rule: Lines(&[Text(r"fn retain\b"), Text(r"fn unset\b")], NONE),
        why: "a scan keeps visible rows a word at a time: RowIdBitmap has no per-row retain or unset",
        ..ROW
    },
    Guard {
        name: "merge-materializes-no-row",
        ledger: 46,
        paths: &["crates/columnar/src"],
        rule: Lines(&[Text(r"fn materialize\b")], NONE),
        why: "a merge remaps vids through merged dictionaries: no Value per row",
        ..ROW
    },
    Guard {
        name: "dictionary-built-by-merge",
        ledger: 46,
        paths: &["crates/columnar/src/dictionary.rs"],
        rule: Lines(&[Text(r"fn build\b")], NONE),
        why: "a dictionary is a merge into an empty one: no sort of every row",
        ..ROW
    },
    Guard {
        name: "delta-column-has-no-clear",
        ledger: 46,
        paths: &["crates/columnar/src/column.rs"],
        region: Some(("^impl DeltaColumn {", "}")),
        rule: Lines(&[Text(r"fn clear\b")], NONE),
        why: "a merge builds a new main and a new delta: DeltaColumn has no clear",
        ..ROW
    },
    Guard {
        name: "delta-dictionary-hashes-with-fx",
        ledger: 48,
        paths: &["crates/columnar/src/dictionary.rs"],
        rule: Lines(&[Text("std::collections::HashMap"), Text(r"\bHashMap\b")], NONE),
        why: "the delta dictionary's index is probed with FxHasher, the engine's one hasher: no SipHash HashMap",
        ..ROW
    },
    // The write path.
    Guard {
        name: "column-fragment-takes-one-batch",
        ledger: 48,
        paths: &["crates/core/src/writes.rs"],
        rule: Lines(&[Text("into: Fragment"), Text(".to_vec()")], NONE),
        except: &[Line(
            "crates/core/src/writes.rs",
            "let homed = hana_dist::repartition(",
        )],
        why: "a statement's rows reach a column fragment as one encoded batch, read where they are: \
              no per-row insert op into any fragment, no copy of the rows but the exchange's",
        ..ROW
    },
    // The write-ahead log: its files, its committing thread.
    Guard {
        name: "wal-no-window-no-thread",
        ledger: 32,
        paths: &["crates/txn/src"],
        rule: Lines(
            &[
                Text("thread::sleep"),
                Text("thread::Builder"),
                Text("thread::spawn"),
                Text("group_commit_window"),
            ],
            NONE,
        ),
        why: "the WAL flushes on the committing thread (wal/group.rs): no window, no thread",
        ..ROW
    },
    Guard {
        name: "wal-is-its-files",
        ledger: 35,
        paths: &["crates/txn/src/wal/mod.rs"],
        rule: Lines(&[Field("Vec<LogRecord>"), Text("^end_offsets:")], NONE),
        why: "the WAL reads its records back from its segments: no in-memory mirror",
        ..ROW
    },
    // Redo and recovery.
    Guard {
        name: "redo-logs-nothing",
        ledger: 38,
        paths: &["crates/*/src"],
        rule: Lines(
            &[
                Text("set_passive"),
                Text("fn passive"),
                Text(".passive()"),
                Text(r"DISTLOAD\u{1}"),
            ],
            NONE,
        ),
        why: "redo logs nothing: no passive mode, no DISTLOAD marker",
        ..ROW
    },
    Guard {
        name: "recovery-runs-no-dml",
        ledger: 38,
        paths: &["crates/core/src/durability.rs"],
        rule: Lines(&[Text("execute_sql"), Text("connect(")], NONE),
        why: "recovery applies typed records: it opens no session and runs no DML text",
        ..ROW
    },
    Guard {
        name: "one-log-shape",
        ledger: 39,
        paths: &["crates/*/src"],
        rule: Lines(
            &[
                Text("SingleFile"),
                Text("fn with_file"),
                Text("fn with_log_file"),
                Text("fn recover_to"),
                Text("fn with_shared_wal"),
                Text("fn check_redo_target"),
                Text("log_commit"),
            ],
            NONE,
        ),
        why: "one durable log shape (a segment directory), one recovery routine",
        ..ROW
    },
    Guard {
        name: "one-recovery-routine",
        ledger: 39,
        paths: &["crates/*/src"],
        rule: Lines(&[Text("redo_log(")], 1..=1),
        except: &[File("crates/core/src/redo.rs")],
        why: "recover_log is the one caller of redo_log outside redo.rs",
        ..ROW
    },
    Guard {
        name: "checkpoint-is-log-records",
        ledger: 40,
        paths: &["crates/*/src"],
        rule: Lines(
            &[
                Text("HANACKPT2"),
                Text("BackupEntry"),
                Text("fn create_spec"),
                Text("fn kind_fields"),
                Text("fn decode_kind"),
                Text("fn encode_backup"),
                Text("fn decode_backup"),
            ],
            NONE,
        ),
        why: "a checkpoint is the log's own typed records; it has no codec of its own",
        ..ROW
    },
    Guard {
        name: "one-log",
        ledger: 42,
        paths: &["crates/*/src"],
        rule: Lines(
            &[
                Text("PartitionWals"),
                Text("log_buckets"),
                Text("redo_rows"),
                Text("attach_wal"),
                Text("partition_wals"),
                Text("wal_slot"),
                Text("in_partition_logs"),
                Text("partition_redo_rows"),
            ],
            NONE,
        ),
        why: "one log: a distributed load writes its rows in the coordinator's bulk record",
        ..ROW
    },
    // The commit watermark.
    Guard {
        name: "no-apply-gate",
        ledger: 49,
        paths: &["crates/txn/src"],
        rule: Lines(&[Text("apply_gate")], NONE),
        why: "a checkpoint cut reads the commit watermark: no lock holds commits back from it",
        ..ROW
    },
    Guard {
        name: "one-observable-cid",
        ledger: 49,
        paths: &["crates", "tests", "src", "examples"],
        rule: Lines(&[Text("last_commit_id")], NONE),
        except: &[File("tests/retired_paths.rs")],
        why: "a reader observes one CID, the watermark: current_snapshot().cid()",
        ..ROW
    },
];

fn is_word(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Where a `^` pattern may start: the line's text after its
/// indentation, with or without a `pub ` or `pub(crate) ` in front.
fn heads(line: &str) -> impl Iterator<Item = &str> {
    let text = line.trim_start();
    [
        Some(text),
        text.strip_prefix("pub "),
        text.strip_prefix("pub(crate) "),
    ]
    .into_iter()
    .flatten()
}

/// Every index at which `hay` starts with `needle`, overlapping ones too.
fn starts<'a>(hay: &'a str, needle: &'a str) -> impl Iterator<Item = usize> + 'a {
    let mut from = 0;
    std::iter::from_fn(move || {
        let i = from + hay.get(from..)?.find(needle)?;
        from = i + hay[i..].chars().next().map_or(1, char::len_utf8);
        Some(i)
    })
}

impl Pat {
    fn matches(self, line: &str) -> bool {
        match self {
            Text(pat) => {
                let (anchored, pat) = pat.strip_prefix('^').map_or((false, pat), |p| (true, p));
                let (open, pat) = pat.strip_prefix(r"\b").map_or((false, pat), |p| (true, p));
                let (close, pat) = pat.strip_suffix(r"\b").map_or((false, pat), |p| (true, p));
                let at = |hay: &str, i: usize| {
                    hay[i..].starts_with(pat)
                        && !(open && hay[..i].chars().next_back().is_some_and(is_word))
                        && !(close && hay[i + pat.len()..].chars().next().is_some_and(is_word))
                };
                if anchored {
                    heads(line).any(|h| at(h, 0))
                } else {
                    starts(line, pat).any(|i| at(line, i))
                }
            }
            Span(open, stop, close) => starts(line, open).any(|i| {
                let rest = &line[i + open.len()..];
                let gap = rest.find(stop).unwrap_or(rest.len());
                (0..=gap).any(|p| rest.is_char_boundary(p) && rest[p..].starts_with(close))
            }),
            Field(ty) => heads(line).any(|h| {
                let name = h.find(|c| !is_word(c)).unwrap_or(h.len());
                name > 0 && h[name..].strip_prefix(": ").is_some_and(|t| t.contains(ty))
            }),
        }
    }
}

impl Except {
    fn covers(&self, file: &str, line: &str) -> bool {
        match *self {
            File(f) => f == file,
            Line(f, prefix) => {
                let text = line.trim_start_matches(' ');
                f == file && text.len() < line.len() && text.starts_with(prefix)
            }
        }
    }
}

/// The entries of a directory, by name, without `target` and `.git`.
fn entries(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n != "target" && n != ".git")
        .collect();
    names.sort();
    names
}

/// Appends to `out` the paths below `root` that `parts` (one of
/// [`Guard::paths`], split at `/`) matches below `rel`.
fn expand(root: &Path, rel: &str, parts: &[&str], out: &mut Vec<String>) {
    let Some((part, rest)) = parts.split_first() else {
        out.push(rel.to_string());
        return;
    };
    let join = |name: &str| match rel {
        "" => name.to_string(),
        _ => format!("{rel}/{name}"),
    };
    if *part == "**" {
        expand(root, rel, rest, out);
        for name in entries(&root.join(rel)) {
            if root.join(join(&name)).is_dir() {
                expand(root, &join(&name), parts, out);
            }
        }
    } else if let Some((pre, post)) = part.split_once('*') {
        for name in entries(&root.join(rel)) {
            if name.len() >= pre.len() + post.len() && name.starts_with(pre) && name.ends_with(post)
            {
                expand(root, &join(&name), rest, out);
            }
        }
    } else if root.join(join(part)).exists() {
        expand(root, &join(part), rest, out);
    }
}

/// Appends to `out` the file `rel`, or every file below the directory.
fn files(root: &Path, rel: String, out: &mut Vec<String>) {
    if root.join(&rel).is_dir() {
        for name in entries(&root.join(&rel)) {
            files(root, format!("{rel}/{name}"), out);
        }
    } else {
        out.push(rel);
    }
}

impl Guard {
    /// What this row finds wrong below `root`, if anything.
    fn check(&self, root: &Path) -> Option<String> {
        let mut found = Vec::new();
        for path in self.paths {
            let parts: Vec<&str> = path.split('/').collect();
            expand(root, "", &parts, &mut found);
        }
        let (what, lines) = match &self.rule {
            Absent if found.is_empty() => return None,
            Absent => ("must not exist".to_string(), found),
            Lines(pats, allowed) => {
                let mut read = Vec::new();
                for rel in found {
                    files(root, rel, &mut read);
                }
                if read.is_empty() {
                    (
                        "its paths match no file, so it guards nothing".to_string(),
                        read,
                    )
                } else {
                    let hits = self.hits(root, &read, pats);
                    if allowed.contains(&hits.len()) {
                        return None;
                    }
                    (
                        format!("{} matching lines, allowed {allowed:?}", hits.len()),
                        hits,
                    )
                }
            }
        };
        let mut report = format!(
            "{} (deletion ledger {}): {what}\n  {}",
            self.name, self.ledger, self.why
        );
        for line in lines {
            report.push_str("\n    ");
            report.push_str(&line);
        }
        Some(report)
    }

    /// The lines of `files` (in the row's region) that match a pattern
    /// and no exception, as `file:line: text`.
    fn hits(&self, root: &Path, files: &[String], pats: &[Pat]) -> Vec<String> {
        let mut hits = Vec::new();
        let mut inside = false;
        for rel in files {
            let bytes = std::fs::read(root.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"));
            for (n, line) in String::from_utf8_lossy(&bytes).split('\n').enumerate() {
                if let Some((start, end)) = self.region {
                    inside = inside || Text(start).matches(line);
                    if !inside {
                        continue;
                    }
                    inside = line != end;
                }
                if pats.iter().any(|p| p.matches(line))
                    && !self.except.iter().any(|e| e.covers(rel, line))
                {
                    hits.push(format!("{rel}:{}: {line}", n + 1));
                }
            }
        }
        hits
    }
}

#[test]
fn retired_paths_stay_retired() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let failed: Vec<String> = GUARDS.iter().filter_map(|g| g.check(root)).collect();
    assert!(
        failed.is_empty(),
        "{} of {} guards failed:\n\n{}\n",
        failed.len(),
        GUARDS.len(),
        failed.join("\n\n")
    );
}

/// The matcher itself, on lines each pattern kind must and must not
/// match.
#[test]
fn patterns_match_as_grep_would() {
    let cases: &[(Pat, &str, bool)] = &[
        (Text("keys.sort()"), "    build_keys.sort();", true),
        (Text(r"\bevaluate("), "let v = evaluate(e, &row)?;", true),
        (
            Text(r"\bevaluate("),
            "let v = re_evaluate(e, &row)?;",
            false,
        ),
        (Text(r"fn read_rows\b"), "    fn read_rows(&self)", true),
        (
            Text(r"fn read_rows\b"),
            "    fn read_rows_into(&self)",
            false,
        ),
        (Text(r"\btext_line\b"), "text_line", true),
        (Text(r"\btext_line\b"), "a_text_line", false),
        (Text("^SemiJoin {"), "    SemiJoin {", true),
        (
            Text("^SemiJoin {"),
            "    /// SemiJoin { .. } is gone",
            false,
        ),
        (
            Text("^end_offsets:"),
            "    pub(crate) end_offsets: Vec<u64>,",
            true,
        ),
        (Span("#[allow(", ']', ")]"), "#[allow(dead_code)]", true),
        (Span("#![allow(", ']', ")]"), "#![allow(clippy::all)]", true),
        (Span("#[allow(", ']', ")]"), "#[allow(a] )]", false),
        (
            Span("format!(", ')', "{FIELD_SEP}"),
            r#"format!("{a}{FIELD_SEP}{b}")"#,
            true,
        ),
        (
            Span("format!(", ')', "{FIELD_SEP}"),
            r#"format!("{a}", b) + "{FIELD_SEP}""#,
            false,
        ),
        (
            Field("Vec<LogRecord>"),
            "    records: Mutex<Vec<LogRecord>>,",
            true,
        ),
        (
            Field("Vec<LogRecord>"),
            "    pub fn records(&self) -> Result<Vec<LogRecord>> {",
            false,
        ),
    ];
    for &(pat, line, want) in cases {
        assert_eq!(pat.matches(line), want, "{line:?}");
    }
}
