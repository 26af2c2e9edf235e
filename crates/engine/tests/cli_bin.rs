//! End-to-end tests of the `eproc` binary: exit-code contract, per-
//! subcommand flag rejection, the `--csv` table, the artifact cache round
//! trip, a closed stdout or stderr, and the cache/list subcommands.
//! Everything runs the real binary via `CARGO_BIN_EXE_eproc`, so these
//! pin exactly what scripts and CI see.

use eproc_engine::builtin;
use eproc_engine::executor::{run, RunOptions};
use eproc_engine::report::{to_json, to_text_table};
use eproc_engine::spec::Scale;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn eproc(args: &[&str]) -> Output {
    eproc_env(args, &[])
}

/// Runs the binary with `args` and extra environment `envs`, with
/// `EPROC_CACHE` scrubbed so an outer environment never bleeds into the
/// tests.
fn eproc_env(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_eproc"));
    cmd.args(args).env_remove("EPROC_CACHE");
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eproc_cli_bin_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn usage_errors_exit_2_and_help_exits_0() {
    // The full exit-code contract: 0 for help, 2 for every usage shape.
    assert_eq!(eproc(&["--help"]).status.code(), Some(0));
    assert_eq!(eproc(&["run", "--help"]).status.code(), Some(0));
    for args in [
        &[][..],                                   // missing command
        &["frobnicate"][..],                       // unknown command
        &["run"][..],                              // missing spec
        &["run", "nosuch"][..],                    // unknown spec
        &["run", "a", "b"][..],                    // too many positionals
        &["run", "comparison", "--seed"][..],      // missing value
        &["run", "comparison", "--seed", "x"][..], // bad value
        &["run", "comparison", "--bogus"][..],     // unknown flag
        &["compare", "--process", "srw"][..],      // no graphs
        &["scale"][..],                            // no spec and no graphs
        &["merge"][..],                            // no shard paths
        &["cache"][..],                            // no action
        &["cache", "ls"][..],                      // no cache root
        &["list", "extra"][..],                    // positional on list
    ] {
        let out = eproc(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
    }
}

#[test]
fn hostile_sizes_and_rwc_zero_fail_with_typed_errors() {
    // A graph too large for the 32-bit CSR ids is a spec error (exit 1),
    // caught before anything is allocated; `rwc:0` and an unknown rule are
    // malformed process specs (exit 2). None may panic.
    for (graph, process, code, needle) in [
        ("hypercube:40", "srw", 1, "32-bit index limit"),
        (
            "torus:4294967296,4294967297",
            "srw",
            1,
            "32-bit index limit",
        ),
        ("cycle:10", "rwc:0", 2, "rwc needs d >= 1"),
        // `last-port` is the one highest-arc-id rule.
        ("cycle:10", "eprocess:spiteful", 2, "unknown rule"),
    ] {
        let out = eproc(&["compare", "--graph", graph, "--process", process]);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(code), "{graph} {process}: {err}");
        assert!(err.contains(needle), "{graph} {process}: {err}");
        assert!(!err.contains("panicked"), "{graph} {process}: {err}");
    }
}

#[test]
fn foreign_flags_are_rejected_by_name_per_subcommand() {
    // Each case: a flag that exists in the table but does not belong to
    // the subcommand. The error must name both.
    for (args, flag) in [
        (&["run", "comparison", "--graph", "cycle:8"][..], "--graph"),
        (
            &[
                "compare",
                "--graph",
                "cycle:8",
                "--process",
                "srw",
                "--scale",
                "quick",
            ][..],
            "--scale",
        ),
        (&["merge", "a.json", "--seed", "1"][..], "--seed"),
        (&["merge", "a.json", "--shard", "0/2"][..], "--shard"),
        (&["merge", "a.json", "--cache", "/tmp"][..], "--cache"),
        (&["list", "--json", "x.json"][..], "--json"),
        (&["list", "--trials", "3"][..], "--trials"),
        (&["cache", "ls", "--json", "x.json"][..], "--json"),
        (&["cache", "ls", "--threads", "2"][..], "--threads"),
    ] {
        let out = eproc(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = stderr(&out);
        let cmd = args[0];
        assert!(
            err.contains(&format!("flag `{flag}` does not apply to `{cmd}`")),
            "{args:?} stderr: {err}"
        );
    }
    // `scale` accepts `--shard` at the table level (it shares the
    // executing-command set) but rejects the combination semantically —
    // still exit 2, with the growth-law-specific message.
    let out = eproc(&[
        "scale",
        "--graph",
        "cycle:8",
        "--process",
        "srw",
        "--shard",
        "0/2",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("--shard does not apply to scale"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn flag_value_errors_name_the_flag_and_the_token() {
    for (args, needle) in [
        (
            &["run", "comparison", "--trials", "0"][..],
            "flag `--trials` expects an integer of at least 1, got \"0\"",
        ),
        (
            &["run", "comparison", "--seed"][..],
            "flag `--seed` expects an unsigned integer",
        ),
        (
            &["run", "comparison", "--seed", "--trials"][..],
            "flag `--seed` expects an unsigned integer",
        ),
        (
            &[
                "compare",
                "--graph",
                "cycle:8",
                "--process",
                "srw",
                "--cap",
                "fast",
            ][..],
            "--cap",
        ),
    ] {
        let out = eproc(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr(&out).contains(needle), "{args:?}: {}", stderr(&out));
    }
}

#[test]
fn cache_round_trip_is_byte_exact_across_thread_counts() {
    let dir = temp_dir("roundtrip");
    let cache = dir.join("cache");
    let cache_s = cache.to_str().unwrap();
    let a1 = dir.join("a1.json");
    let a2 = dir.join("a2.json");
    let spec = &[
        "compare",
        "--graph",
        "cycle:32",
        "--process",
        "srw,eprocess",
        "--trials",
        "3",
    ][..];
    let mut run1: Vec<&str> = spec.to_vec();
    run1.extend([
        "--threads",
        "1",
        "--cache",
        cache_s,
        "--json",
        a1.to_str().unwrap(),
    ]);
    let out = eproc(&run1);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stdout(&out).contains("cache: stored"), "{}", stdout(&out));
    let mut run2: Vec<&str> = spec.to_vec();
    run2.extend([
        "--threads",
        "5",
        "--cache",
        cache_s,
        "--json",
        a2.to_str().unwrap(),
    ]);
    let out = eproc(&run2);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stdout(&out).contains("cache: hit"), "{}", stdout(&out));
    let b1 = std::fs::read(&a1).unwrap();
    let b2 = std::fs::read(&a2).unwrap();
    assert!(!b1.is_empty());
    assert_eq!(b1, b2, "cache hit must be byte-identical to the stored run");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_closed_stdout_neither_aborts_the_run_nor_skips_the_cache_store() {
    // `eproc … | head -1` closes the reader early; here it is gone
    // before the binary starts, so every printed line fails to write.
    let dir = temp_dir("closed_stdout");
    let cache = dir.join("cache");
    let cache_s = cache.to_str().unwrap();
    let json = dir.join("a.json");
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_eproc"))
        .args([
            "compare",
            "--graph",
            "cycle:10",
            "--process",
            "srw",
            "--trials",
            "4",
            "--json",
            json.to_str().unwrap(),
            "--cache",
            cache_s,
        ])
        .env_remove("EPROC_CACHE")
        .stdout(Stdio::from(writer))
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(json.exists());
    let out = eproc(&["cache", "ls", "--cache", cache_s]);
    assert!(stdout(&out).contains("1 entry"), "{}", stdout(&out));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_closed_stderr_neither_aborts_the_run_nor_skips_its_artifacts() {
    // `eproc … 2>&1 >/dev/null | head -c 1` closes stderr early; here it
    // is gone before the binary starts, so the informational lines and
    // every progress render fail to write.
    let dir = temp_dir("closed_stderr");
    let json = dir.join("c.json");
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_eproc"))
        .args([
            "compare",
            "--graph",
            "cycle:10",
            "--process",
            "srw",
            "--trials",
            "4",
            "--threads",
            "2",
            "--progress",
            "--json",
            json.to_str().unwrap(),
        ])
        .env_remove("EPROC_CACHE")
        .stderr(Stdio::from(writer))
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    assert!(json.exists());
    assert!(dir.join("c.telemetry.json").exists(), "{}", stdout(&out));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn block_retries_and_three_part_fault_specs_are_usage_errors() {
    let run = |extra: &[&str]| {
        let mut args = vec!["compare", "--graph", "cycle:10", "--process", "srw"];
        args.extend_from_slice(extra);
        eproc(&args)
    };
    let out = run(&["--retry-blocks", "1"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("--retry-blocks"), "{}", stderr(&out));
    // The retired form's third part was a retry attempt.
    let out = run(&["--inject-faults", "panic@0.1.0"]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(
        err.contains("fault \"panic@0.1.0\": expected <panic|graphfail>@<family>.<group>\n"),
        "{err}"
    );
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn quantiles_that_share_a_label_are_usage_errors() {
    let dir = temp_dir("quantiles");
    let json = dir.join("q.json");
    let compare = |quantiles: &str| {
        let mut args: Vec<&str> = "compare --graph cycle:10 --process srw --trials 3 --json"
            .split(' ')
            .collect();
        args.extend([json.to_str().unwrap(), "--quantiles", quantiles]);
        eproc(&args)
    };
    // Each list would write one JSON key twice: two values closer than
    // the label's precision, and one value spelt two ways.
    for (list, label) in [("0,1e-7", "p0"), ("0.5,p50", "p50")] {
        let (first, second) = list.split_once(',').unwrap();
        let needle = format!("lists {first:?} and {second:?}, which both render as {label}");
        let out = compare(list);
        assert_eq!(out.status.code(), Some(2), "{list}: {}", stderr(&out));
        assert!(stderr(&out).contains(&needle), "{list}: {}", stderr(&out));
        assert!(!json.exists(), "{list}");
    }
    // `-0` is 0, not a `p-0` column.
    let out = compare("p-0");
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let artifact = std::fs::read_to_string(&json).unwrap();
    assert!(artifact.contains("\"steps\": {\"p0\": "), "{artifact}");
    assert!(!artifact.contains("p-0"), "{artifact}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_every_without_checkpoint_is_a_usage_error() {
    // Without `--checkpoint` there is nothing to write, plain or sharded.
    for extra in [&[][..], &["--shard", "0/2"][..]] {
        let mut args = vec!["compare", "--graph", "cycle:10", "--process", "srw"];
        args.extend(["--checkpoint-every", "2"].iter().chain(extra));
        let out = eproc(&args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{extra:?}: {err}");
        assert!(
            err.contains(
                "--checkpoint-every sets how often --checkpoint writes: it needs --checkpoint PATH"
            ),
            "{extra:?}: {err}"
        );
    }
}

#[test]
fn a_corrupted_cache_entry_misses_and_the_run_executes_again() {
    let dir = temp_dir("corrupt");
    let cache = dir.join("cache");
    let cache_s = cache.to_str().unwrap();
    let a1 = dir.join("a1.json");
    let a2 = dir.join("a2.json");
    let run = |json: &PathBuf| {
        eproc(&[
            "compare",
            "--graph",
            "cycle:24",
            "--process",
            "srw",
            "--trials",
            "2",
            "--cache",
            cache_s,
            "--json",
            json.to_str().unwrap(),
        ])
    };
    let out = run(&a1);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let short = stdout(&out)
        .lines()
        .find_map(|l| l.strip_prefix("cache: stored ").map(String::from))
        .expect("stored line");
    let out = eproc(&["cache", "path", &short, "--cache", cache_s]);
    let entry = PathBuf::from(stdout(&out).trim());
    let mut bytes = std::fs::read(&entry).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&entry, &bytes).unwrap();
    // The damaged bytes are never served: the lookup misses, the run
    // executes and stores a fresh entry with the clean artifact.
    let out = run(&a2);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stderr(&out).contains("cache: miss"), "{}", stderr(&out));
    assert!(stdout(&out).contains("cache: stored"), "{}", stdout(&out));
    assert_eq!(std::fs::read(&a1).unwrap(), std::fs::read(&a2).unwrap());
    assert_eq!(std::fs::read(&entry).unwrap(), std::fs::read(&a1).unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_serves_resampled_builtins_and_env_var_activates_it() {
    let dir = temp_dir("resampled");
    let cache = dir.join("cache");
    let cache_s = cache.to_str().unwrap();
    let a1 = dir.join("a1.json");
    let a2 = dir.join("a2.json");
    // A resampled builtin through the EPROC_CACHE env var, different
    // thread counts on the two runs.
    let out = eproc_env(
        &[
            "run",
            "cubicensemble",
            "--threads",
            "2",
            "--json",
            a1.to_str().unwrap(),
        ],
        &[("EPROC_CACHE", cache_s)],
    );
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stdout(&out).contains("cache: stored"), "{}", stdout(&out));
    let out = eproc_env(
        &[
            "run",
            "cubicensemble",
            "--threads",
            "7",
            "--json",
            a2.to_str().unwrap(),
        ],
        &[("EPROC_CACHE", cache_s)],
    );
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stdout(&out).contains("cache: hit"), "{}", stdout(&out));
    assert_eq!(std::fs::read(&a1).unwrap(), std::fs::read(&a2).unwrap());
    // Env-var activation with a conflicting flag skips caching instead
    // of erroring; the explicit flag is strict.
    let out = eproc_env(
        &[
            "run",
            "cubicensemble",
            "--shard",
            "0/2",
            "--json",
            dir.join("s.json").to_str().unwrap(),
        ],
        &[("EPROC_CACHE", cache_s)],
    );
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stderr(&out).contains("cache: disabled"), "{}", stderr(&out));
    let out = eproc(&[
        "run",
        "cubicensemble",
        "--shard",
        "0/2",
        "--cache",
        cache_s,
        "--json",
        dir.join("s2.json").to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_subcommand_lists_resolves_and_prunes() {
    let dir = temp_dir("cachecmd");
    let cache = dir.join("cache");
    let cache_s = cache.to_str().unwrap();
    let out = eproc(&[
        "compare",
        "--graph",
        "cycle:16",
        "--process",
        "srw",
        "--trials",
        "2",
        "--cache",
        cache_s,
        "--json",
        dir.join("a.json").to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let short = stdout(&out)
        .lines()
        .find_map(|l| l.strip_prefix("cache: stored ").map(String::from))
        .expect("stored line");
    // ls shows the canonical spec line for the entry.
    let out = eproc(&["cache", "ls", "--cache", cache_s]);
    assert_eq!(out.status.code(), Some(0));
    let ls = stdout(&out);
    assert!(ls.contains(&short), "{ls}");
    assert!(
        ls.contains("--graph cycle:16 --process srw --trials 2"),
        "{ls}"
    );
    assert!(ls.contains("1 entry"), "{ls}");
    // path with no argument prints the root; with a prefix, the artifact.
    let out = eproc(&["cache", "path", "--cache", cache_s]);
    assert_eq!(stdout(&out).trim(), cache_s);
    let out = eproc(&["cache", "path", &short, "--cache", cache_s]);
    assert_eq!(out.status.code(), Some(0));
    let artifact = PathBuf::from(stdout(&out).trim());
    assert!(artifact.is_file(), "{}", artifact.display());
    // An unmatched prefix is a runtime error (1), not a usage error.
    let out = eproc(&["cache", "path", "ffffffffffff", "--cache", cache_s]);
    assert_eq!(out.status.code(), Some(1));
    // gc with the default budget clears the store.
    let out = eproc(&["cache", "gc", "--cache", cache_s]);
    assert_eq!(out.status.code(), Some(0));
    assert!(stdout(&out).contains("removed 1 entry"), "{}", stdout(&out));
    let out = eproc(&["cache", "ls", "--cache", cache_s]);
    assert!(stdout(&out).contains("0 entries"), "{}", stdout(&out));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn list_canonical_prints_digest_and_normal_form_per_builtin() {
    let out = eproc(&["list", "--canonical"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = stdout(&out);
    let digests: Vec<&str> = text
        .lines()
        .filter_map(|l| l.trim().strip_prefix("digest: "))
        .collect();
    let specs: Vec<&str> = text
        .lines()
        .filter_map(|l| l.trim().strip_prefix("spec:"))
        .collect();
    assert_eq!(digests.len(), specs.len());
    assert!(text.lines().any(|l| l == "comparison"), "{text}");
    assert!(digests.len() >= 14, "all builtins listed: {text}");
    for d in &digests {
        assert_eq!(d.len(), 64, "full hex digest: {d}");
        assert!(d.bytes().all(|b| b.is_ascii_hexdigit()), "{d}");
    }
    for s in &specs {
        assert!(s.trim().starts_with("--graph "), "canonical line: {s}");
    }
    // Deterministic: a second invocation prints identical bytes.
    let again = eproc(&["list", "--canonical"]);
    assert_eq!(out.stdout, again.stdout);
    // A different seed changes every digest but no spec line.
    let other = stdout(&eproc(&["list", "--canonical", "--seed", "99"]));
    let other_digests: Vec<&str> = other
        .lines()
        .filter_map(|l| l.trim().strip_prefix("digest: "))
        .collect();
    assert_eq!(digests.len(), other_digests.len());
    assert!(digests.iter().zip(&other_digests).all(|(a, b)| a != b));
}

#[test]
fn the_checkpoint_hint_follows_only_a_block_failure() {
    const HINT: &str = "completed blocks were checkpointed to";
    let dir = temp_dir("hint");
    let ck = dir.join("ck.json");
    let ck_s = ck.to_str().unwrap();
    let compare = |extra: &[&str]| {
        let mut args = vec![
            "compare",
            "--graph",
            "regular:~64,3",
            "--process",
            "srw",
            "--resample",
            "2",
            "--trials",
            "4",
            "--checkpoint",
            ck_s,
        ];
        args.extend_from_slice(extra);
        eproc(&args)
    };
    // A spec error stops the run before any block: nothing was written,
    // so the CLI must not point at a checkpoint.
    let out = compare(&["--start", "999"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("start vertex 999"),
        "{}",
        stderr(&out)
    );
    assert!(!stderr(&out).contains(HINT), "{}", stderr(&out));
    assert!(!ck.exists());
    // A failed block is followed by the final checkpoint and the hint.
    let out = compare(&["--inject-faults", "graphfail@0.1"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains(HINT), "{}", stderr(&out));
    assert!(ck.exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_max_wall_too_large_for_a_duration_is_a_usage_error() {
    let dir = temp_dir("max_wall");
    let json = dir.join("o.json");
    let compare = |secs: &str| {
        eproc(&[
            "compare",
            "--graph",
            "cycle:10",
            "--process",
            "srw",
            "--max-wall",
            secs,
            "--json",
            json.to_str().unwrap(),
        ])
    };
    // Past what a `Duration` holds: a usage error naming the flag.
    let out = compare("1e300");
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("flag `--max-wall` expects"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    assert!(!json.exists());
    // A `Duration`, but past what the clock can represent: no deadline.
    let out = compare("1e19");
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(json.exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_job_count_that_overflows_is_a_spec_error() {
    let out = eproc(&[
        "compare",
        "--graph",
        "cycle:10",
        "--process",
        "srw,eprocess",
        "--trials",
        "18446744073709551615",
    ]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("overflows the job count"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    // Nothing announces a wrapped job count first.
    assert!(!err.contains(" jobs ("), "{err}");
}

#[test]
fn csv_is_the_report_table_for_runs_and_merges() {
    // `--csv` writes the engine's own table: for a run it matches the
    // report rendered in-process, and a merge of the run's shards writes
    // the same bytes.
    let dir = temp_dir("csv");
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let run_rules = |extra: &[&str]| {
        let mut args = vec!["run", "rules", "--scale", "quick", "--threads", "2"];
        args.extend_from_slice(extra);
        let out = eproc(&args);
        assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
        out
    };
    let (csv, json) = (path("rules.csv"), path("rules.json"));
    let out = run_rules(&["--csv", &csv, "--json", &json]);
    assert!(stdout(&out).contains(&format!("csv: {csv}")));

    let spec = builtin::spec("rules", Scale::Quick).unwrap();
    let opts = RunOptions {
        threads: 2,
        base_seed: RunOptions::auto().base_seed,
    };
    let report = run(&spec, &opts).unwrap();
    let read = |path: &str| std::fs::read_to_string(path).unwrap();
    assert_eq!(read(&csv), to_text_table(&report).to_csv());
    assert_eq!(read(&json), to_json(&report));

    let (s0, s1) = (path("s0.json"), path("s1.json"));
    run_rules(&["--shard", "0/2", "--json", &s0]);
    run_rules(&["--shard", "1/2", "--json", &s1]);
    let (merged_csv, merged_json) = (path("merged.csv"), path("merged.json"));
    let merge = [
        "merge",
        &s0,
        &s1,
        "--csv",
        &merged_csv,
        "--json",
        &merged_json,
    ];
    let out = eproc(&merge);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert_eq!(read(&merged_csv), read(&csv));
    assert_eq!(read(&merged_json), read(&json));
    let _ = std::fs::remove_dir_all(&dir);
}
