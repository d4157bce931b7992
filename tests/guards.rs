//! The repository's guards: each rule names text that must not come back,
//! where it must not come back, and why. Most keep a deleted mechanism
//! deleted; one holds the `unsafe` budget. Every rule is its own test, so
//! `cargo test --test guards` runs them all (CI's lint job does).
//!
//! A grep rule runs the system `grep` from the repository root, its pattern
//! verbatim: `-E` extended, `-F` fixed, basic otherwise. It fails on any
//! match outside its `except` files. This file holds every pattern, so its
//! own lines never count.

use std::path::Path;
use std::process::Command;

/// What `grep` must not find.
struct Grep {
    /// grep's options, as the rule was first written.
    opts: &'static [&'static str],
    /// Each pattern is one `-e`.
    patterns: &'static [&'static str],
    /// Files and directories, from the repository root; `dir/*.rs` is every
    /// Rust file directly in `dir`.
    paths: &'static [&'static str],
    /// Files whose matches do not count.
    except: &'static [&'static str],
    /// What to do instead.
    message: &'static str,
}

/// How a rule is checked.
enum Check {
    /// Every grep must find nothing.
    Grep(&'static [Grep]),
    /// A rule that is not a grep.
    Code(fn(&Path) -> Result<(), String>),
}

struct Rule {
    name: &'static str,
    /// Why the rule exists: what it keeps out, and where the design that
    /// replaced it is described.
    reason: &'static str,
    check: Check,
}

/// The file every pattern lives in.
const THIS_FILE: &str = "tests/guards.rs";

const NOTHING: &[&str] = &[];

fn enforce(rule: &Rule) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let verdict = match &rule.check {
        Check::Grep(greps) => greps.iter().try_for_each(|g| g.run(root)),
        Check::Code(check) => check(root),
    };
    if let Err(found) = verdict {
        panic!(
            "guard \"{}\" failed:\n{found}\n\nwhy: {}",
            rule.name, rule.reason
        );
    }
}

impl Grep {
    fn run(&self, root: &Path) -> Result<(), String> {
        let mut grep = Command::new("grep");
        grep.current_dir(root).arg("-H").args(self.opts);
        for pattern in self.patterns {
            grep.args(["-e", pattern]);
        }
        for path in self.paths {
            match path.strip_suffix("/*.rs") {
                Some(dir) => grep.args(rust_files_in(root, dir)),
                None => grep.arg(path),
            };
        }
        let hits = hits(&mut grep)?;
        let counted: Vec<&str> = hits
            .lines()
            .filter(|hit| {
                // A path given as `dir/` may print as `dir//file`.
                let file = hit.split(':').next().unwrap_or("").replace("//", "/");
                file != THIS_FILE && !self.except.contains(&file.as_str())
            })
            .collect();
        match counted[..] {
            [] => Ok(()),
            _ => Err(format!("{}\n{}", counted.join("\n"), self.message)),
        }
    }
}

/// What `cmd` (a grep) printed; exit status 1 is "no match".
fn hits(cmd: &mut Command) -> Result<String, String> {
    let out = cmd
        .output()
        .map_err(|e| format!("could not run {cmd:?}: {e}"))?;
    match out.status.code() {
        Some(0 | 1) => Ok(String::from_utf8_lossy(&out.stdout).into_owned()),
        _ => Err(format!(
            "{cmd:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        )),
    }
}

/// `dir/*.rs`, sorted, as paths from the repository root.
fn rust_files_in(root: &Path, dir: &str) -> Vec<String> {
    let entries = std::fs::read_dir(root.join(dir)).unwrap_or_else(|e| panic!("read {dir}: {e}"));
    let mut files: Vec<String> = entries
        .map(|e| {
            e.expect("a directory entry")
                .file_name()
                .into_string()
                .expect("a UTF-8 name")
        })
        .filter(|name| name.ends_with(".rs"))
        .map(|name| format!("{dir}/{name}"))
        .collect();
    files.sort();
    files
}

/// `grep -rn unsafe --include='*.rs' crates src | grep -v crates/shims | wc -l`
/// must not pass the budget.
fn unsafe_budget(root: &Path) -> Result<(), String> {
    const BUDGET: usize = 76;
    let mut grep = Command::new("grep");
    grep.current_dir(root)
        .args(["-rn", "unsafe", "--include=*.rs", "crates", "src"]);
    let hits = hits(&mut grep)?;
    let n = hits.lines().filter(|l| !l.contains("crates/shims")).count();
    eprintln!("{n} lines mention unsafe (budget {BUDGET})");
    match n > BUDGET {
        true => Err(format!(
            "{n} lines mention unsafe (budget {BUDGET})\nunsafe budget exceeded: use a \
             combinator, or add the site to DESIGN.md §3 and raise the budget"
        )),
        false => Ok(()),
    }
}

/// The body of `TreeOram::step` (the lines from `    fn step<C: Ctx>(` to
/// the next `    }`, as `sed -n '/^    fn step<C: Ctx>(/,/^    }$/p'`
/// prints them) must not call `.pos(`.
fn oram_step_reads_the_slot_table(root: &Path) -> Result<(), String> {
    const FILE: &str = "crates/pram/src/oram.rs";
    let text = std::fs::read_to_string(root.join(FILE)).map_err(|e| format!("read {FILE}: {e}"))?;
    let (mut body, mut inside) = (Vec::new(), false);
    for (i, line) in (1..).zip(text.lines()) {
        if inside || line.starts_with("    fn step<C: Ctx>(") {
            body.push((i, line));
            inside = !(inside && line == "    }");
        }
    }
    if body.is_empty() {
        return Err(format!(
            "TreeOram::step not found in {FILE}: update this check"
        ));
    }
    let calls: Vec<String> = body
        .iter()
        .filter(|(_, line)| line.contains(".pos("))
        .map(|(i, line)| format!("{FILE}:{i}:{line}"))
        .collect();
    match calls[..] {
        [] => Ok(()),
        _ => Err(format!(
            "{}\nTreeOram::step reads positions from its slot table: see oram.rs's module doc",
            calls.join("\n")
        )),
    }
}

/// No second counter gate: the binary that diffed fresh tables against the
/// baselines at a threshold is gone, and no threshold is declared in its
/// place under `crates/bench/src`.
fn one_counter_gate(root: &Path) -> Result<(), String> {
    const BIN: &str = "crates/bench/src/bin/bench_diff.rs";
    let message = "counters and traces have one gate, crates/bench/tests/registry.rs: \
                   it fails on every moved row";
    if root.join(BIN).exists() {
        return Err(format!("{BIN} exists\n{message}"));
    }
    let threshold = Grep {
        opts: &["-rnE"],
        patterns: &["fn is_regression|const THRESHOLD"],
        paths: &["crates/bench/src"],
        except: NOTHING,
        message,
    };
    threshold.run(root)
}

/// No `debug_assert*!(…)` in non-test code under `crates/*/src` holds a
/// tracked access in its arguments, however many lines they span.
fn debug_asserts_are_unmetered(root: &Path) -> Result<(), String> {
    const TRACKED: [&str; 5] = [".get(c", ".set(c", "c.work(", "c.touch(", "c.count("];
    let mut found = Vec::new();
    let crates = std::fs::read_dir(root.join("crates")).map_err(|e| format!("read crates: {e}"))?;
    let mut dirs: Vec<_> = crates
        .map(|e| e.expect("a directory entry").path().join("src"))
        .collect();
    dirs.sort();
    while let Some(dir) = dirs.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for path in entries.map(|e| e.expect("a directory entry").path()) {
            if path.is_dir() {
                dirs.push(path);
                continue;
            }
            if path.extension().is_none_or(|x| x != "rs") {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("a UTF-8 source file");
            let file = path
                .strip_prefix(root)
                .expect("under the root")
                .display()
                .to_string();
            for (line, args) in debug_asserts(&text) {
                if TRACKED.iter().any(|t| args.contains(t)) {
                    let args = args.split_whitespace().collect::<Vec<_>>().join(" ");
                    found.push(format!("{file}:{line}: debug_assert…({args})"));
                }
            }
        }
    }
    found.sort();
    match found[..] {
        [] => Ok(()),
        _ => Err(format!(
            "{}\nan assertion reads through an untracked accessor (`Tracked::raw`, \
             `Ranks::peek`): see DESIGN.md §5",
            found.join("\n")
        )),
    }
}

/// `(line, arguments)` of every `debug_assert*!(…)` outside comments and
/// `#[cfg(test)]` items.
fn debug_asserts(text: &str) -> Vec<(usize, &str)> {
    let lines: Vec<&str> = text.lines().collect();
    let mut test_lines = vec![false; lines.len()];
    for (i, line) in lines.iter().enumerate() {
        if line.trim() != "#[cfg(test)]" {
            continue;
        }
        let indent = &line[..line.len() - line.trim_start().len()];
        let item = (i + 1..lines.len()).find(|&j| !lines[j].trim_start().starts_with("#["));
        let end = match item {
            Some(j) if lines[j].trim_end().ends_with(';') => j,
            _ => (i..lines.len())
                .find(|&j| lines[j] == format!("{indent}}}"))
                .unwrap_or(lines.len() - 1),
        };
        test_lines[i..=end].fill(true);
    }
    let mut starts = Vec::with_capacity(lines.len());
    let mut at = 0;
    for line in &lines {
        starts.push(at);
        at += line.len() + 1;
    }
    let line_of = |pos: usize| starts.partition_point(|&s| s <= pos);
    let mut found = Vec::new();
    for (pos, _) in text.match_indices("debug_assert") {
        let line = line_of(pos);
        let head = &text[starts[line - 1]..pos];
        if test_lines[line - 1] || head.contains("//") {
            continue;
        }
        let rest = text[pos + "debug_assert".len()..]
            .trim_start_matches(|ch: char| ch.is_ascii_lowercase() || ch == '_');
        let Some(rest) = rest.strip_prefix('!') else {
            continue;
        };
        let rest = rest.trim_start();
        if let Some(args) = rest.strip_prefix('(').and_then(up_to_close) {
            found.push((line, args));
        }
    }
    found
}

/// `s` up to the `)` that closes an already-open `(`, skipping string
/// literals and line comments.
fn up_to_close(s: &str) -> Option<&str> {
    let (bytes, mut depth, mut i) = (s.as_bytes(), 1, 0);
    while i < bytes.len() {
        match bytes[i] {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&s[..i]);
                }
            }
            b'"' => {
                i += 1;
                while i < bytes.len() && bytes[i] != b'"' {
                    i += 1 + (bytes[i] == b'\\') as usize;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

macro_rules! guards {
    ($($test:ident: $rule:expr,)*) => {
        $(
            #[test]
            fn $test() {
                enforce(&$rule);
            }
        )*
    };
}

guards! {
    no_host_clock_in_crates_bench: Rule {
        name: "No host clock in crates/bench",
        reason: "crates/bench reports the paper's model quantities only; host time has one \
                 home, benchmark/. Keep a second clock from growing back.",
        check: Check::Grep(&[Grep {
            opts: &["-rnE"],
            patterns: &["Instant|wall"],
            paths: &["crates/bench/src"],
            except: NOTHING,
            message: "crates/bench/src must not time anything: use benchmark/",
        }]),
    },
    one_row_registry: Rule {
        name: "One row registry",
        reason: "Every gated number is one entry of `dob_bench::rows`: the table binaries and \
                 obliv_check only call its runners. Keep rows metered or built by hand in a \
                 binary from growing back.",
        check: Check::Grep(&[Grep {
            opts: &["-nE"],
            patterns: &[r"meter\(|meter_with\(|measure\(|Row \{"],
            paths: &["crates/bench/src/bin/*.rs"],
            except: NOTHING,
            message: "declare rows in dob_bench::rows: see its module doc",
        }]),
    },
    one_counter_gate_holds: Rule {
        name: "One counter gate",
        reason: "Every registry row is held byte for byte to benches/baseline/ by \
                 crates/bench/tests/registry.rs, in tier-1 and in CI, with each table's report \
                 after its rows. A gate that fails only past a growth threshold can only fail \
                 where that test already has. Keep the second gate from growing back.",
        check: Check::Code(one_counter_gate),
    },
    no_snapshot_sort_in_crates_store: Rule {
        name: "No snapshot sort in crates/store",
        reason: "`read_now` has one consult, `merge::consult`, at every shard count. Keep the \
                 sort-the-whole-snapshot path from growing back beside it.",
        check: Check::Grep(&[Grep {
            opts: &["-rnE"],
            patterns: &["fn sort_snapshot|snapshot_sorted"],
            paths: &["crates/store/src"],
            except: NOTHING,
            message: "read_now probes the per-shard tables in place: see merge::consult",
        }]),
    },
    one_record_layout_and_one_answer_layout_in_crates_store: Rule {
        name: "One record layout and one answer layout in crates/store",
        reason: "The store has one record layout (the op/record cell the table, the merge and \
                 the snapshot file share) and one answer layout (the answer cell every path \
                 returns and `store::decode` reads). Keep the per-hop re-encodings from growing \
                 back.",
        check: Check::Grep(&[Grep {
            opts: &["-rnE"],
            patterns: &[r"struct Rec\b|REC_KIND|OutRes|OpResultSlot"],
            paths: &["crates/store/src"],
            except: NOTHING,
            message: "store records and answers are TagCells: see DESIGN.md §10",
        }]),
    },
    one_store_oracle: Rule {
        name: "One store oracle",
        reason: "The store's correctness rests on one HashMap oracle and one command runner, \
                 `tests/common/model.rs`, shared by every front end's suite. Keep the per-front \
                 copies from growing back.",
        check: Check::Grep(&[Grep {
            opts: &["-nE"],
            patterns: &[
                r"fn (apply_to_oracle|check_against_oracle|check_epoch|assert_matches_oracle)\b",
            ],
            paths: &["tests/*.rs"],
            except: NOTHING,
            message: "check stores against tests/common/model.rs (Oracle, Model)",
        }]),
    },
    one_sort_in_orp_one_merge_of_runs: Rule {
        name: "One sort in ORP, one merge of runs",
        reason: "ORP is ORBA plus filler removal: the labels ORBA routes on carry the tiebreak, \
                 so there is no shake-out sort and no second label stream to grow back. The \
                 butterfly's last level only sorts its rows (`rec_orba::Finish::Rows`), and ORP \
                 removes fillers row by row, so nothing in orp.rs counts or scans per Z-slot \
                 bin. \"Merge sorted runs\" has one implementation \
                 (`sortnet::bitonic_sort_rec_from_runs`); ORBA's placements call it, and the \
                 store, which merges no runs, keeps no second copy.",
        check: Check::Grep(&[
            Grep {
                opts: &["-nE"],
                patterns: &["sort_slots|PERM_SALT|perm_labels"],
                paths: &["crates/core/src/orp.rs"],
                except: NOTHING,
                message: "orp.rs sorts nothing: see DESIGN.md §4 row 7",
            },
            Grep {
                opts: &["-nE"],
                patterns: &[r"% *(p\.)?z == 0|b \* *(p\.)?z \+ i"],
                paths: &["crates/core/src/orp.rs"],
                except: NOTHING,
                message: "orp.rs removes fillers per last-level row, not per bin: see \
                          rec_orba::Finish",
            },
            Grep {
                opts: &["-rn"],
                patterns: &["reverse_odd_blocks"],
                paths: &["crates/store/src"],
                except: NOTHING,
                message: "the store merges no sorted runs: see router::gather_results",
            },
        ]),
    },
    a_sharded_epoch_sorts_its_answers_once: Rule {
        name: "A sharded epoch sorts its answers once",
        reason: "Each shard hands its answer window over in key order, and the gather compacts \
                 the windows and sorts the batch (DESIGN.md §9). Keep per-window sorts and a \
                 merge of sorted runs from growing back.",
        check: Check::Grep(&[Grep {
            opts: &["-rn"],
            patterns: &["sort_cells_from_runs"],
            paths: &["crates/store/src"],
            except: NOTHING,
            message: "gather_results compacts and sorts once: see router.rs",
        }]),
    },
    the_store_routes_on_cells: Rule {
        name: "The store routes on cells",
        reason: "A sharded epoch sorts its ops once, as op cells, and each shard masks and \
                 compacts its own lane from that order (DESIGN.md §9). Keep the slot scatter \
                 and the routed sub-batches from growing back.",
        check: Check::Grep(&[Grep {
            opts: &["-rnE"],
            patterns: &["oblivious_scatter|SubBatch|Slot::"],
            paths: &["crates/store/src"],
            except: NOTHING,
            message: "the router masks and compacts the sorted op cells: see router::shard_lane",
        }]),
    },
    only_public_classes_are_padded_to_a_power_of_two: Rule {
        name: "Only public classes are padded to a power of two",
        reason: "`Engine`'s sorts and merges, and `compact_cells`, take any length: only the \
                 engine pads (DESIGN.md §4). The store's op lane is the `p + b` ops it holds and \
                 its merge array `cap + p + b` cells; send-receive, the tag sort, the graph \
                 kernels and the PRAM conflict resolution sort exactly what they hold. Keep the \
                 call-site padding from growing back.",
        check: Check::Grep(&[
            Grep {
                opts: &["-n"],
                patterns: &["next_power_of_two"],
                paths: &["crates/store/src/merge.rs"],
                except: NOTHING,
                message: "the op lane is p + b cells and the merge array cap + p + b, unpadded: \
                          see DESIGN.md §8",
            },
            Grep {
                opts: &["-rn"],
                patterns: &["next_power_of_two"],
                paths: &[
                    "crates/graphs/src",
                    "crates/core/src/sendrecv.rs",
                    "crates/core/src/tag_sort.rs",
                    "crates/pram/src/obliv_sb.rs",
                ],
                except: NOTHING,
                message: "Engine sorts any length; do not pad at the call site: see DESIGN.md §4",
            },
        ]),
    },
    placement_carries_no_targets: Rule {
        name: "Placement carries no targets",
        reason: "Bin placement spreads its sorted run by per-bin loads: the compaction \
                 butterfly run backwards (`expand_by_loads`). Keep the rank pass, the per-real \
                 targets and the target-steered expansion from growing back. The old kernel was \
                 `obliv_core::expand`: a path to it, or a one-line import of it, outside its \
                 own module.",
        check: Check::Grep(&[
            Grep {
                opts: &["-nE"],
                patterns: &["with_phase_key|rank_in_groups"],
                paths: &["crates/core/src/binplace.rs"],
                except: NOTHING,
                message: "bin placement reads per-bin loads, not ranks and targets: see \
                          binplace.rs's module doc",
            },
            Grep {
                opts: &["-rnE", "--include=*.rs"],
                patterns: &[r"obliv_core::expand\(|expand::expand\b|\{[^}]*[{ ,]expand\s*[,}]"],
                paths: &["crates", "src", "tests", "examples"],
                except: &["crates/core/src/expand.rs"],
                message: "the expansion is steered by loads (expand_by_loads), not per-slot \
                          targets: see expand.rs's module doc",
            },
        ]),
    },
    position_maps_pack_by_leaf_width: Rule {
        name: "Position maps pack by leaf width",
        reason: "A position-map entry packs 64 / w leaves of w bits, and the map's depth is the \
                 one that minimises touches. Keep the fixed top threshold and the 32-bit leaf \
                 packing from growing back.",
        check: Check::Grep(&[Grep {
            opts: &["-n"],
            patterns: &["TOP_THRESHOLD", r"32 \* bit"],
            paths: &["crates/pram/src/oram.rs"],
            except: NOTHING,
            message: "map entries pack 64 / w leaves and the map depth minimises touches: see \
                      oram.rs's module doc",
        }]),
    },
    oram_steps_read_positions_from_the_table: Rule {
        name: "ORAM steps read positions from the table",
        reason: "A tree step reads bucket positions from the table `TreeOram::new` builds once \
                 (`slots`), not from the layout's recursion. Keep the per-level `pos` calls \
                 from growing back into the step.",
        check: Check::Code(oram_step_reads_the_slot_table),
    },
    oram_lookups_need_no_guard: Rule {
        name: "ORAM lookups need no guard",
        reason: "A dummy walk looks up `DUMMY`, an address no slot holds, so a lookup is \
                 `sl.addr == addr` alone, and the top map is written by every request in \
                 reverse: keep a guard on the walk's address (which LLVM hoists into a branch \
                 skipping a dummy's stash pass) and a pass over the run heads only (a secret \
                 count) from growing back.",
        check: Check::Grep(&[Grep {
            opts: &["-nF"],
            patterns: &["(addr != EMPTY)", "filter(|&i| head("],
            paths: &["crates/pram/src/oram.rs"],
            except: NOTHING,
            message: "ORAM lookups compare addresses only and the top-map pass runs p times: see \
                      oram.rs's module doc",
        }]),
    },
    the_store_steps_its_oram_mirror: Rule {
        name: "The store steps its ORAM mirror",
        reason: "The store's ORAM epochs, its mirror replay and its snapshot rebuild each apply \
                 a class as one OPRAM step (`shard::Mirror::step`). Keep the walk per op from \
                 growing back.",
        check: Check::Grep(&[Grep {
            opts: &["-n"],
            patterns: &[r"oram\.access("],
            paths: &["crates/store/src/shard.rs"],
            except: NOTHING,
            message: "a class reaches the ORAM mirror as one Opram::step: see shard::Mirror::step",
        }]),
    },
    one_path_rule: Rule {
        name: "One path rule",
        reason: "A store with a bounded key space takes the ORAM path unless the epoch's class \
                 would take the pending log past `pending_limit`: the ORAM path was measured \
                 cheaper at every class the limit admits (DESIGN.md §8). Keep a class threshold \
                 from growing back.",
        check: Check::Grep(&[Grep {
            opts: &["-rn"],
            patterns: &["oram_threshold"],
            paths: &["crates", "src", "tests", "examples"],
            except: NOTHING,
            message: "pending_limit is the one path rule: see Shard::epoch_path and DESIGN.md §8",
        }]),
    },
    a_merge_epoch_leases_no_merge_lanes: Rule {
        name: "A merge epoch leases no merge lanes",
        reason: "A shard owns its merge array, candidates lane and rank lane and keeps them \
                 across epochs (`merge::Lanes`), so no epoch leases or fills them. The consult \
                 borrows the tables and keeps its leases.",
        check: Check::Grep(&[Grep {
            opts: &["-nF"],
            patterns: &["lease(m,"],
            paths: &["crates/store/src/merge.rs"],
            except: NOTHING,
            message: "the merge epoch's m-cell lanes are the shard's: see merge::Lanes and \
                      DESIGN.md §7",
        }]),
    },
    one_send_receive: Rule {
        name: "One send-receive",
        reason: "Send-receive has one body over `Slot<P>` for every payload; the value's type \
                 picks the record layout. Keep the `u64` copy and its private route records \
                 from growing back.",
        check: Check::Grep(&[
            Grep {
                opts: &["-rn"],
                patterns: &["send_receive_u64"],
                paths: &["crates/", "src/", "tests/", "examples/"],
                except: NOTHING,
                message: "send-receive has one body; the value's type picks the record layout: \
                          see sendrecv.rs's module doc",
            },
            Grep {
                opts: &["-n"],
                patterns: &["struct Route<", "OptSlot"],
                paths: &["crates/core/src/sendrecv.rs"],
                except: NOTHING,
                message: "send-receive has one body; the value's type picks the record layout: \
                          see sendrecv.rs's module doc",
            },
        ]),
    },
    narrow_compaction_levels_run_per_block: Rule {
        name: "Narrow compaction levels run per block",
        reason: "On a host the compaction butterfly's narrow levels run block-major: one \
                 `Swap::swap_block` entry takes a 32-cell block through widths 2–32 while it \
                 sits in L1 (`tag_sort::gather`). Keep the level-wide narrow host entry from \
                 growing back.",
        check: Check::Grep(&[
            Grep {
                opts: &["-n"],
                patterns: &["fn swap_level"],
                paths: &["crates/sortnet/src/vec.rs"],
                except: NOTHING,
                message: "a narrow level runs a block at a time (Swap::swap_block): see \
                          tag_sort::gather and DESIGN.md §14",
            },
            Grep {
                opts: &["-n"],
                patterns: &["E::swap_level"],
                paths: &["crates/core/src/tag_sort.rs"],
                except: NOTHING,
                message: "a narrow level runs a block at a time (Swap::swap_block): see \
                          tag_sort::gather and DESIGN.md §14",
            },
        ]),
    },
    the_merge_epoch_compacts_by_its_bounds: Rule {
        name: "The merge epoch compacts by its bounds",
        reason: "The merge epoch's tail is one walk and two compactions sized by public bounds \
                 (`Count(b)`, `Shift(2(p + b))`). Keep the per-epoch bounds record from growing \
                 back.",
        check: Check::Grep(&[Grep {
            opts: &["-n"],
            patterns: &["struct Bounds", "Bounds::default"],
            paths: &["crates/store/src/merge.rs"],
            except: NOTHING,
            message: "the merge epoch walks its runs once and compacts by its public bounds: see \
                      merge.rs's module doc",
        }]),
    },
    one_tree_scan: Rule {
        name: "One tree scan",
        reason: "The §F scan has one tree walk, `map_scan`, which `scan_in`'s paper schedule \
                 runs on; the level sweeps are chunk combinators.",
        check: Check::Grep(&[Grep {
            opts: &["-nE"],
            patterns: &["unsafe|TreeScan"],
            paths: &["crates/core/src/scan.rs"],
            except: NOTHING,
            message: "scan.rs walks one tree (map_scan) through safe splits: see its module doc",
        }]),
    },
    one_durability_point: Rule {
        name: "One durability point",
        reason: "The append that returns `Ok` is synced: every acknowledged epoch is durable, \
                 and the WAL has no group-commit cadence that defers a sync. Keep the knob from \
                 growing back. (`unsynced` stays legal: the FaultVfs tests of lying and missing \
                 syncs use it.)",
        check: Check::Grep(&[Grep {
            opts: &["-rnE"],
            patterns: &["sync_every|epoch_every|open_with"],
            paths: &["crates/store", "tests", "examples"],
            except: NOTHING,
            message: "the append that returns Ok is synced: see Durability::Epoch",
        }]),
    },
    unsafe_budget_holds: Rule {
        name: "Unsafe budget",
        reason: "Elementwise phases go through the safe combinators of `metrics::tracked`; what \
                 is left on raw views is listed in DESIGN.md §3 (\"Where `unsafe` lives\"). \
                 Shrink the number when a site goes; raising it needs a ledger row.",
        check: Check::Code(unsafe_budget),
    },
    debug_only_code_does_not_touch_the_meter: Rule {
        name: "Debug-only code does not touch the meter",
        reason: "Counters and traces are a function of the code and its inputs, not of the \
                 build profile (DESIGN.md §5): a tracked read inside a `debug_assert!` charges \
                 a touch and a unit of work in a debug build only, so the dev-profile counters \
                 and traces would differ from the release baselines.",
        check: Check::Code(debug_asserts_are_unmetered),
    },
}
