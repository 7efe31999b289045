//! End-to-end smoke tests: run the built `reorder` binary as a user
//! would and assert the output carries a parseable reordering estimate.

use std::process::Command;

fn reorder(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_reorder"))
        .args(args)
        .output()
        .expect("spawn reorder binary");
    (
        String::from_utf8(out.stdout).expect("stdout utf8"),
        String::from_utf8(out.stderr).expect("stderr utf8"),
        out.status.success(),
    )
}

/// Parse `"<label>: <pct>% [<lo>%, <hi>%] (<k>/<n>)"` into
/// `(rate, lo, hi, reordered, total)`.
fn parse_estimate(line: &str) -> (f64, f64, f64, u64, u64) {
    let (_, rest) = line.split_once(':').expect("label");
    let mut nums = rest
        .split(|c: char| !(c.is_ascii_digit() || c == '.'))
        .filter(|s| !s.is_empty())
        .map(|s| s.parse::<f64>().expect("number"));
    let rate = nums.next().expect("rate");
    let lo = nums.next().expect("ci low");
    let hi = nums.next().expect("ci high");
    let k = nums.next().expect("reordered count") as u64;
    let n = nums.next().expect("total count") as u64;
    (rate, lo, hi, k, n)
}

#[test]
fn measure_single_reports_parseable_estimate() {
    let (stdout, stderr, ok) = reorder(&[
        "measure",
        "--technique",
        "single",
        "--samples",
        "20",
        "--seed",
        "1",
    ]);
    assert!(ok, "reorder measure failed: {stderr}");

    let fwd = stdout
        .lines()
        .find(|l| l.trim_start().starts_with("forward:"))
        .unwrap_or_else(|| panic!("no forward estimate in output:\n{stdout}"));
    let (rate, lo, hi, k, n) = parse_estimate(fwd);
    assert_eq!(n, 20, "sample count should match --samples 20");
    assert!(k <= n, "reordered count exceeds total");
    assert!((0.0..=100.0).contains(&rate), "rate out of range: {rate}");
    assert!(
        lo <= rate + 1e-9 && rate <= hi + 1e-9,
        "point estimate outside CI"
    );

    let rev = stdout
        .lines()
        .find(|l| l.trim_start().starts_with("reverse:"))
        .unwrap_or_else(|| panic!("no reverse estimate in output:\n{stdout}"));
    let (_, _, _, rk, rn) = parse_estimate(rev);
    assert!(rk <= rn);
}

#[test]
fn measure_is_deterministic_per_seed() {
    let run = || reorder(&["measure", "--samples", "20", "--seed", "7"]).0;
    assert_eq!(run(), run(), "same seed must reproduce the same output");
    let other = reorder(&["measure", "--samples", "20", "--seed", "8"]).0;
    assert_ne!(run(), other, "different seeds should differ somewhere");
}

#[test]
fn survey_is_deterministic_and_rejects_sim_version() {
    let survey = ["survey", "--hosts", "12", "--samples", "4", "--seed", "5"];
    let run = || {
        let (stdout, stderr, ok) = reorder(&survey);
        assert!(ok, "survey failed: {stderr}");
        stdout
    };
    assert_eq!(run(), run(), "same seed must reproduce the same report");
    // Campaign format v1 was retired with the switch between formats:
    // every command that took `--sim-version` now refuses it.
    for cmd in [
        &survey[..],
        &["profile", "--samples", "4", "--max-us", "0"],
        &["campaign", "--dir", "unused", "--hosts", "2"],
    ] {
        let args = [cmd, &["--sim-version", "2"]].concat();
        let (_, stderr, ok) = reorder(&args);
        assert!(!ok, "{args:?} must fail");
        assert!(
            stderr.contains("error: unknown option --sim-version"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn progress_never_touches_jsonl_stdout() {
    // `--jsonl -` owns stdout; heartbeat and summary ride stderr. The
    // machine-readable bytes must be identical with and without
    // `--progress` (and with telemetry on for good measure).
    let base = &[
        "survey",
        "--hosts",
        "12",
        "--samples",
        "4",
        "--seed",
        "5",
        "--jsonl",
        "-",
    ];
    let (plain, plain_err, ok) = reorder(base);
    assert!(ok, "survey --jsonl - failed: {plain_err}");
    let noisy = [base as &[&str], &["--progress", "--telemetry", "full"]].concat();
    let (noisy_out, _, ok) = reorder(&noisy);
    assert!(ok);
    assert_eq!(
        plain, noisy_out,
        "--progress/--telemetry altered the JSONL stream"
    );
    assert_eq!(
        plain.lines().count(),
        12,
        "one JSON line per host on stdout"
    );
    assert!(
        plain.lines().all(|l| l.starts_with('{')),
        "non-JSONL noise on stdout"
    );
    // The human summary still reaches the user — on stderr.
    assert!(
        plain_err.contains("hosts"),
        "summary missing from stderr: {plain_err}"
    );
}

#[test]
fn metrics_document_smoke() {
    let (stdout, stderr, ok) = reorder(&[
        "survey",
        "--hosts",
        "8",
        "--samples",
        "4",
        "--seed",
        "3",
        "--workers",
        "2",
        "--metrics",
        "-",
    ]);
    assert!(ok, "survey --metrics - failed: {stderr}");
    let doc = stdout
        .lines()
        .last()
        .expect("metrics document on the last stdout line");
    for key in [
        "\"schema\":\"reorder.metrics/1\"",
        "\"mode\":\"summary\"",
        "\"hosts\":8",
        "\"workers\":2",
        "\"seed\":3",
        "\"wall_s\":",
        "\"events\":",
        "\"steals\":",
        "\"merged\":{",
        "\"per_worker\":[",
        "\"netsim.events\":",
        "\"sched.tasks\":",
        "\"agg.absorbs\":8",
        "\"host\":{\"count\":8",
    ] {
        assert!(doc.contains(key), "missing {key} in metrics doc: {doc}");
    }
    // Footer now surfaces the event count and rate (satellite fix).
    assert!(
        stderr.contains("event(s)"),
        "no event count in footer: {stderr}"
    );

    // Contradictory flags are rejected up front.
    let (_, stderr, ok) = reorder(&[
        "survey",
        "--hosts",
        "4",
        "--metrics",
        "-",
        "--telemetry",
        "off",
    ]);
    assert!(!ok, "--metrics with --telemetry off must fail");
    assert!(stderr.contains("--metrics needs telemetry"), "{stderr}");
}

#[test]
fn campaign_process_mode_crash_and_resume_byte_identical() {
    // The headline contract, end to end through real worker processes:
    // a campaign killed by fault injection and resumed produces the
    // same bytes as an uninterrupted run — and as a plain unsharded
    // `survey` of the same spec.
    let base = std::env::temp_dir().join(format!("reorder_smoke_campaign_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let dir_a = base.join("clean");
    let dir_b = base.join("crash");
    let plan = |dir: &std::path::Path| {
        vec![
            "campaign".to_string(),
            "--dir".to_string(),
            dir.display().to_string(),
            "--hosts".to_string(),
            "12".to_string(),
            "--shards".to_string(),
            "4".to_string(),
            "--samples".to_string(),
            "3".to_string(),
            "--seed".to_string(),
            "21".to_string(),
            "--no-baseline".to_string(),
            "--jsonl".to_string(),
            "--workers".to_string(),
            "1".to_string(),
            "--inflight".to_string(),
            "2".to_string(),
        ]
    };
    fn to_refs(v: &[String]) -> Vec<&str> {
        v.iter().map(String::as_str).collect()
    }

    let args_a = plan(&dir_a);
    let (stdout_a, stderr_a, ok) = reorder(&to_refs(&args_a));
    assert!(ok, "clean campaign failed: {stderr_a}");
    assert!(
        stdout_a.contains("campaign summary: 12 hosts"),
        "summary missing from stdout: {stdout_a}"
    );

    // Interrupt after 2 checkpointed shards: honest nonzero exit that
    // says how to continue.
    let mut args_b = plan(&dir_b);
    args_b.extend(["--fail-after-shards".to_string(), "2".to_string()]);
    let (_, stderr_b, ok) = reorder(&to_refs(&args_b));
    assert!(!ok, "an interrupted campaign must exit nonzero");
    assert!(stderr_b.contains("--resume"), "no resume hint: {stderr_b}");
    assert!(
        !dir_b.join("summary.txt").exists(),
        "interrupted campaign must not finalize outputs"
    );

    let resume_args = [
        "campaign",
        "--resume",
        dir_b.to_str().expect("utf8 path"),
        "--workers",
        "1",
        "--inflight",
        "2",
    ];
    let (stdout_r, stderr_r, ok) = reorder(&resume_args);
    assert!(ok, "resume failed: {stderr_r}");
    assert_eq!(stdout_a, stdout_r, "resumed summary output must match");
    assert_eq!(
        std::fs::read(dir_a.join("summary.txt")).unwrap(),
        std::fs::read(dir_b.join("summary.txt")).unwrap(),
        "summary.txt must be byte-identical after resume"
    );
    assert_eq!(
        std::fs::read(dir_a.join("campaign.jsonl")).unwrap(),
        std::fs::read(dir_b.join("campaign.jsonl")).unwrap(),
        "campaign.jsonl must be byte-identical after resume"
    );

    // Both equal the unsharded survey's JSONL for the same plan.
    let (survey_jsonl, survey_err, ok) = reorder(&[
        "survey",
        "--hosts",
        "12",
        "--samples",
        "3",
        "--seed",
        "21",
        "--no-baseline",
        "--jsonl",
        "-",
    ]);
    assert!(ok, "survey failed: {survey_err}");
    assert_eq!(
        survey_jsonl.into_bytes(),
        std::fs::read(dir_a.join("campaign.jsonl")).unwrap(),
        "campaign JSONL must equal the unsharded survey's"
    );
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn shard_rejections_exit_nonzero_with_accepted_form() {
    for bad in ["1/0", "0/4", "5/4", "abc"] {
        let (_, stderr, ok) = reorder(&["survey", "--hosts", "4", "--shard", bad]);
        assert!(!ok, "--shard {bad} must exit nonzero");
        assert!(
            stderr.contains("accepted: K/N"),
            "--shard {bad}: error must name the accepted form: {stderr}"
        );
    }
}

/// Every value option of `survey` and `campaign` given without a
/// value, and every switch given one, exits nonzero with an error that
/// names the flag: neither is silently read as the other kind.
#[test]
fn misused_flags_exit_nonzero_naming_the_flag() {
    // The plan flags both commands share, then each command's own.
    let plan_options = "hosts seed samples rounds technique gaps-us chaos \
                        host-deadline-ms host-retries host-backoff-ms";
    let plan_switches = "no-baseline no-reuse amenability-only";
    for (command, options, switches) in [
        (
            "survey",
            "workers jsonl shard shard-state telemetry metrics",
            "per-host progress",
        ),
        (
            "campaign",
            "dir resume shards workers inflight retries backoff-ms \
             max-host-failures fail-after-shards telemetry metrics",
            "jsonl in-process progress",
        ),
    ] {
        for flag in plan_options
            .split_whitespace()
            .chain(options.split_whitespace())
        {
            let flag = format!("--{flag}");
            let (_, stderr, ok) = reorder(&[command, &flag]);
            assert!(!ok, "`{command} {flag}` without a value must exit nonzero");
            assert!(
                stderr.contains(&format!("{flag} needs a value")),
                "`{command} {flag}`: the error must name the flag: {stderr}"
            );
        }
        for flag in plan_switches
            .split_whitespace()
            .chain(switches.split_whitespace())
        {
            let flag = format!("--{flag}");
            let (_, stderr, ok) = reorder(&[command, &flag, "yes"]);
            assert!(!ok, "`{command} {flag} yes` must exit nonzero");
            assert!(
                stderr.contains(&format!("{flag} takes no value")),
                "`{command} {flag} yes`: the error must name the flag: {stderr}"
            );
        }
    }
}

#[test]
fn help_and_errors() {
    let (stdout, _, ok) = reorder(&["help"]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));

    let (_, stderr, ok) = reorder(&["measure", "--bogus-flag", "1"]);
    assert!(!ok, "unknown option must fail");
    assert!(stderr.contains("bogus-flag"));

    let (_, stderr, ok) = reorder(&["frobnicate"]);
    assert!(!ok, "unknown command must fail");
    assert!(stderr.contains("frobnicate"));
}
