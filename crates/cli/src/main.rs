//! `reorder` — command-line driver for the packet-reordering
//! measurement toolkit.
//!
//! The original tools shipped as an extension to `sting`; since this
//! reproduction's "Internet" is simulated, the CLI builds a simulated
//! path per invocation (fully parameterized and seeded) and runs the
//! chosen technique against it. Run `reorder help` for usage.

#![forbid(unsafe_code)]

mod args;
mod commands;

use args::Args;
use std::process::ExitCode;

const USAGE: &str = "\
reorder — single-ended one-way packet reordering measurement
          (Bellardo & Savage, IMC 2002, reproduced in simulation)

USAGE: reorder <command> [options]

COMMANDS:
  measure    run one technique against a dummynet-style path
               --technique single|single-rev|dual|syn|transfer (default
                                    single; single-rev is the reversed,
                                    delayed-ACK-proof variant)
               --fwd P --rev P      adjacent-swap probabilities (default 0.1/0.05)
               --samples N          samples (default 100)
               --gap-us N           inter-packet gap in microseconds (default 0)
               --personality NAME   freebsd4|linux22|linux24|openbsd3|solaris8|
                                    windows2000|hardened (default freebsd4)
               --lb N               put N load-balancer backends in the path
               --seed S             RNG seed (default 1)
  profile    sweep the inter-packet gap (Fig. 7 style)
               --mechanism striping|multipath|arq     (default striping)
               --samples N          per point (default 300)
               --max-us N           sweep upper bound (default 300)
               --step-us N          sweep step (default 25)
               --workers auto|N     sweep threads (default auto = all cores;
                                    output is byte-identical regardless)
               --seed S
  survey     sharded measurement campaign over a generated host
             population (§IV-B scaled up; deterministic in --seed,
             byte-identical across worker counts)
               --hosts N            population size (default 50)
               --workers auto|N     worker threads (default auto = all cores)
               --samples N          samples per technique run (default 15)
               --rounds R           measurement rounds per host (default 1)
               --technique T        auto|single|single-rev|dual|syn|transfer
                                    (default auto: IPID-validate, dual where
                                    amenable, SYN fallback)
               --jsonl FILE|-       write one JSON line per host (- =
                                    stdout; the summary moves to stderr)
               --gaps-us LIST       extra gap sweep, e.g. 0,100,300 (§IV-C)
               --shard K/N          run only host-id shard K of N (1-based);
                                    concatenating shards 1..N reproduces the
                                    unsharded JSONL byte-for-byte
               --shard-state FILE   worker mode: write the sealed exact
                                    shard state (reorder.shard/1) to FILE
                                    atomically and suppress the human
                                    summary (used by `campaign`)
               --per-host           print the per-host table too
               --no-baseline        skip the data-transfer baseline
               --no-reuse           fresh scenario + handshakes per phase
                                    (per-host connection reuse is the default)
               --amenability-only   verdicts only, no measurement
               --telemetry MODE     off|summary|full instrumentation
                                    (default off; full adds latency
                                    quantile sketches per span)
               --metrics FILE|-     write the reorder.metrics/1 JSON
                                    document (- = stdout; implies
                                    --telemetry summary unless set)
               --progress           heartbeat to stderr: hosts done,
                                    hosts/s, ETA, per-worker utilization
               --seed S
  campaign   crash-safe orchestrated survey: shard plan, worker
             processes, checkpoint/resume (resumed output is
             byte-identical to an uninterrupted run)
               --dir DIR            campaign directory (checkpoint, shard
                                    parts, summary.txt, campaign.jsonl)
               --resume DIR         continue an interrupted campaign from
                                    its checkpoint (plan flags come from
                                    the checkpoint, not the command line)
               --shards N           shard tasks in the plan (default 8)
               --jsonl              keep per-host JSONL: shard parts are
                                    concatenated into DIR/campaign.jsonl
               --inflight N         max shards in flight (default 0 = cores)
               --retries N          re-attempts per failed shard (default 2)
               --backoff-ms N       base retry backoff, doubled per attempt
                                    (default 250)
               --in-process         supervise library calls instead of
                                    spawning worker processes
               --fail-after-shards N  fault injection: stop (as a crash
                                    would) after N checkpoint writes
               --workers auto|N     threads per shard run (default auto)
               --hosts/--seed/--samples/--rounds/--technique/--gaps-us/
               --no-baseline/--no-reuse/--amenability-only
                                    as in `survey` (the campaign plan)
               --telemetry MODE, --metrics FILE|-, --progress
                                    as in `survey` (merged across shards)
  validate   measure and cross-check against the capture trace (§IV-A)
               --fwd P --rev P --samples N --seed S
  pcap       run a measurement and export the server-side trace
               --out FILE           pcap path (required)
               --fwd P --rev P --samples N --seed S
  help       this text
";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match args.command.as_deref() {
        Some("measure") => commands::measure(&args),
        Some("profile") => commands::profile(&args),
        Some("survey") => commands::survey(&args),
        Some("campaign") => commands::campaign(&args),
        Some("validate") => commands::validate(&args),
        Some("pcap") => commands::pcap(&args),
        Some("help") | None => {
            println!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(args::ArgError(format!("unknown command `{other}`"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
