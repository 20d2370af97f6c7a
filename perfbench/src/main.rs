//! The foxq benchmark: four seeded workloads run against the shipped
//! `foxq` binary (child processes and loopback HTTP), every output checked
//! against the reference evaluator, plus a traced run that times each
//! workspace layer in-process.
//!
//! ```text
//! perfbench --foxq PATH --workload NAME|all --seed N --seconds S --trace 0|1
//! ```
//!
//! The last stdout line is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}` with
//! the end-to-end metrics (`--trace 0`) or the per-layer ones
//! (`--trace 1`). Everything above it is for people.

mod cpus;
mod http;
mod inputs;
mod proc;
mod speed;
mod stats;
mod trace;

use inputs::{Inputs, FOURSTAR, MEDLINE_TITLES, XMARK_QUERIES};
use speed::Speed;
use stats::{json_str, median, quantile, Report, MIB};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Gated end-to-end metrics: every workload reports each of them.
pub const END_TO_END: [&str; 5] = [
    "setup_s",
    "run_mib_s",
    "peak_rss_mib",
    "first_output_ms",
    "lat_p50_ms",
];

/// Per-layer metrics of the traced run, in `BENCHMARK.json` order.
pub const PER_LAYER: [&str; 26] = [
    "xml.tokenize_ns_per_event",
    "xml.tokenize_allocs_per_event",
    "xml.serialize_ns_per_output_event",
    "core.engine_ns_per_event",
    "core.engine_allocs_per_event",
    "core.expansions_per_event",
    "core.peak_live_bytes",
    "core.peak_pending_calls",
    "core.emit_ns_per_event",
    "core.emit_flushes",
    "core.first_emit_events",
    "service.compile_us",
    "service.prefiltered_share",
    "service.cache_hit_ratio",
    "store.index_ns_per_event",
    "store.scan_ns_per_event",
    "store.index_skipped_share",
    "store.ingest_ns_per_event",
    "store.tape_bytes_per_xml_byte",
    "server.healthz_p50_us",
    "server.query_overhead_us",
    "server.ttfb_share",
    "server.gen_lag_ms",
    "trace.overhead_share",
    "trace.unattributed_share",
    "trace.adapter_ns",
];

const XMARK_BYTES: usize = 4 << 20;
const MEDLINE_BYTES: usize = 4 << 20;
const SERVE_DOC_BYTES: usize = 16 << 10;
const SERVE_DOCS: u64 = 32;

/// Open-loop rates of `serve-mixed` (requests per second): a low rate, a
/// rate near half of saturation (the closed loop reaches ~950/s on one
/// CPU of a 2-vCPU box), and the ladder `max_rps` climbs.
const RATE_LO: f64 = 250.0;
const RATE_HI: f64 = 500.0;
const LADDER: [f64; 10] = [
    400.0, 500.0, 600.0, 700.0, 800.0, 900.0, 1000.0, 1200.0, 1400.0, 1600.0,
];
/// The latency limit a ladder rung's p99 must meet.
const LIMIT_P99_MS: f64 = 20.0;

/// Whether to set up once more after `done` set-ups took `spent`: at
/// least 5 and at most 100 of them, for about 2 s. A set-up is a few
/// process spawns, whose time spreads widely from one to the next, so
/// `setup_s`, their median, needs many.
fn another_setup(done: usize, spent: Duration) -> bool {
    done < 5 || (done < 100 && spent < Duration::from_secs(2))
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    XmarkXml,
    XmarkFet2,
    MedlineStream,
    ServeMixed,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::XmarkXml,
        Workload::XmarkFet2,
        Workload::MedlineStream,
        Workload::ServeMixed,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::XmarkXml => "xmark-xml",
            Workload::XmarkFet2 => "xmark-fet2",
            Workload::MedlineStream => "medline-stream",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Generate this workload's documents and reference answers.
    fn inputs(self, dir: &Path, seed: u64) -> Result<Inputs, String> {
        match self {
            Workload::XmarkXml | Workload::XmarkFet2 => inputs::build(
                dir,
                "foxq_gen::xmark_bytes sized to 4 MiB",
                |s| inputs::sized(foxq_gen::xmark_bytes, XMARK_BYTES, s),
                seed,
                1,
                &XMARK_QUERIES,
            ),
            Workload::MedlineStream => inputs::build(
                dir,
                "foxq_gen::medline_bytes sized to 4 MiB",
                |s| inputs::sized(foxq_gen::medline_bytes, MEDLINE_BYTES, s),
                seed,
                1,
                &[FOURSTAR, MEDLINE_TITLES],
            ),
            Workload::ServeMixed => inputs::build(
                dir,
                "foxq_gen::xmark_bytes sized to 16 KiB, x 32",
                |s| inputs::sized(foxq_gen::xmark_bytes, SERVE_DOC_BYTES, s),
                seed,
                SERVE_DOCS,
                &XMARK_QUERIES,
            ),
        }
    }

    /// The queries the end-to-end operations run (the traced run may add
    /// a probe for a layer the workload's own queries cannot reach).
    fn op_queries(self, inputs: &Inputs) -> usize {
        match self {
            Workload::MedlineStream => 1,
            _ => inputs.queries.len(),
        }
    }
}

pub struct Args {
    pub foxq: PathBuf,
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// The command line; `--workload all` runs the four workloads in turn.
fn parse_args() -> Result<Vec<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut foxq = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10;
    let mut trace = false;
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--foxq" => foxq = Some(PathBuf::from(value)),
            "--workload" if value == "all" => workload = Some(Workload::ALL.to_vec()),
            "--workload" => {
                let w = Workload::ALL
                    .into_iter()
                    .find(|w| w.name() == value)
                    .ok_or_else(|| format!("unknown workload {value:?}"))?;
                workload = Some(vec![w]);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs a number")?),
            "--seconds" => seconds = value.parse().map_err(|_| "--seconds needs a number")?,
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += 2;
    }
    let foxq: PathBuf = foxq.ok_or("--foxq is required")?;
    let seed = seed.ok_or("--seed is required")?;
    Ok(workload
        .ok_or("--workload is required")?
        .into_iter()
        .map(|workload| Args {
            foxq: foxq.clone(),
            workload,
            seed,
            seconds: seconds.max(1),
            trace,
        })
        .collect())
}

/// Operation tally: every operation counts as attempted; a failure is a
/// non-zero exit, an output that differs from the reference, a non-200
/// reply or a refused request.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        ok
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn real_main() -> Result<(), String> {
    for args in parse_args()? {
        run_one(&args)?;
    }
    Ok(())
}

/// Run one workload and print its report; the last line is its JSON result.
fn run_one(args: &Args) -> Result<(), String> {
    let root = PathBuf::from(".perfbench");
    let work = root.join(format!(
        "work-{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let results = root.join("results");
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    std::fs::create_dir_all(&results).map_err(|e| format!("{}: {e}", results.display()))?;
    let outcome = run_workload(args, &work);
    let _ = std::fs::remove_dir_all(&work);
    let (inputs_line, tally, report) = outcome?;
    if tally.attempted == 0 {
        return Err("no operation ran".into());
    }

    let env = environment();
    let mode = if args.trace { "traced" } else { "end-to-end" };
    println!(
        "workload {} ({mode}), seed {}",
        args.workload.name(),
        args.seed
    );
    println!("  {inputs_line}");
    println!("  {env}");
    println!(
        "  operations: {} attempted, {} failed",
        tally.attempted, tally.failed
    );
    report.print_lines("  ");
    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = report.json_object(names);
    let correct = tally.failed == 0;
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"inputs\": {}, \"environment\": {}, \
         \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \"all_metrics\": {}}}\n",
        json_str(args.workload.name()),
        args.seed,
        args.trace,
        json_str(&inputs_line),
        json_str(&env),
        tally.attempted,
        tally.failed,
        metrics,
        report.json_object(&report.metrics.iter().map(|m| m.name).collect::<Vec<_>>()),
    );
    let file = results.join(format!(
        "{}-seed{}-{}.json",
        args.workload.name(),
        args.seed,
        if args.trace { "trace" } else { "e2e" }
    ));
    std::fs::write(&file, record).map_err(|e| format!("{}: {e}", file.display()))?;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        tally.attempted, tally.failed
    );
    Ok(())
}

fn run_workload(args: &Args, work: &Path) -> Result<(String, Tally, Report), String> {
    let t = Instant::now();
    let inputs = args.workload.inputs(work, args.seed)?;
    let sizes: Vec<String> = inputs
        .docs
        .iter()
        .take(3)
        .map(|d| d.xml.len().to_string())
        .collect();
    let inputs_line = format!(
        "inputs: generator {}, seed {}, {} document(s), {} XML bytes in all (first: {}), \
         queries {}, generated and answered by the reference evaluator in {:.2} s",
        inputs.generator,
        args.seed,
        inputs.docs.len(),
        inputs.total_xml_bytes(),
        sizes.join(", "),
        inputs
            .queries
            .iter()
            .map(|q| q.name)
            .collect::<Vec<_>>()
            .join(","),
        t.elapsed().as_secs_f64()
    );
    let mut tally = Tally::default();
    let report = if args.trace {
        trace::run(args, &inputs, work, &mut tally)?
    } else {
        match args.workload {
            Workload::ServeMixed => serve_workload(args, &inputs, &mut tally)?,
            w => cli_workload(args, w, &inputs, work, &mut tally)?,
        }
    };
    Ok((inputs_line, tally, report))
}

/// `nproc`, the compiler and the source revision, for the results record.
fn environment() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let commit = Path::new(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "--short=12", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    format!("environment: nproc {nproc}, {rustc}, commit {commit}")
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    (out.status.success() && !text.trim().is_empty()).then(|| text.trim().to_string())
}

// ---------------------------------------------------------------------------
// CLI workloads: xmark-xml, xmark-fet2, medline-stream
// ---------------------------------------------------------------------------

/// What the CLI set-up measured.
#[derive(Default)]
struct Setup {
    /// Wall seconds of each set-up.
    times: Vec<f64>,
    /// Wall seconds of each `foxq store add`.
    ingests: Vec<f64>,
    /// The last corpus's tape.
    tape: Option<PathBuf>,
    /// Peak resident sets, in bytes, of the compiles and of the ingests.
    compile_rss: Vec<f64>,
    ingest_rss: Vec<f64>,
}

/// Compile the query set again and again (see [`another_setup`]), plus,
/// on the tape workload, ingest the document into a fresh corpus each
/// time.
fn cli_setup(
    args: &Args,
    inputs: &Inputs,
    nq: usize,
    work: &Path,
    ingest: bool,
    tally: &mut Tally,
) -> Result<Setup, String> {
    let mut setup = Setup::default();
    let start = Instant::now();
    for rep in (0..).take_while(|&rep| another_setup(rep, start.elapsed())) {
        let mut wall = 0.0;
        for q in &inputs.queries[..nq] {
            let run = proc::run(
                Command::new(&args.foxq).arg("compile").arg(&q.path),
                1 << 12,
            )
            .map_err(|e| format!("spawn foxq compile: {e}"))?;
            setup.compile_rss.push(run.peak_rss as f64);
            wall += run.wall.as_secs_f64();
            tally.record(run.success && !run.stdout.is_empty());
        }
        if ingest {
            let dir = work.join(format!("corpus{rep}"));
            let run = proc::run(
                Command::new(&args.foxq)
                    .args(["store", "add", "--id", "doc", "--dir"])
                    .arg(&dir)
                    .arg(&inputs.docs[0].path),
                1 << 10,
            )
            .map_err(|e| format!("spawn foxq store add: {e}"))?;
            setup.ingests.push(run.wall.as_secs_f64());
            setup.ingest_rss.push(run.peak_rss as f64);
            wall += run.wall.as_secs_f64();
            if tally.record(run.success) {
                let corpus = foxq_store::Corpus::open(&dir).map_err(|e| e.to_string())?;
                setup.tape = Some(corpus.tape_path("doc").map_err(|e| e.to_string())?);
            }
            if let Some(old) = rep.checked_sub(1) {
                let _ = std::fs::remove_dir_all(work.join(format!("corpus{old}")));
            }
        }
        setup.times.push(wall);
    }
    Ok(setup)
}

/// Put the four timed end-to-end metrics, scaled to reference speed (see
/// [`speed`]), and beside each the value as measured, as `<name>.raw`.
fn put_timed(
    r: &mut Report,
    speed: &Speed,
    setup_s: Option<f64>,
    run_mib_s: Option<f64>,
    first_output_ms: Option<f64>,
    lat_p50_ms: Option<f64>,
) {
    let f = speed.time_factor();
    r.put("setup_s", "s", setup_s.map(|v| v * f));
    r.put("run_mib_s", "MiB/s", run_mib_s.map(|v| v / f));
    r.put("first_output_ms", "ms", first_output_ms.map(|v| v * f));
    r.put("lat_p50_ms", "ms", lat_p50_ms.map(|v| v * f));
    r.put("setup_s.raw", "s", setup_s);
    r.put("run_mib_s.raw", "MiB/s", run_mib_s);
    r.put("first_output_ms.raw", "ms", first_output_ms);
    r.put("lat_p50_ms.raw", "ms", lat_p50_ms);
    r.put("calibration_ms", "ms", Some(speed.calibration_ms()));
}

/// The mean over queries of each query's median: one figure for a
/// query set whose queries differ by an order of magnitude, without the
/// set's middle query flipping from run to run.
fn mean_of_medians(per_query: &[Vec<f64>]) -> Option<f64> {
    let medians: Vec<f64> = per_query.iter().filter_map(|v| median(v)).collect();
    (medians.len() == per_query.len()).then(|| medians.iter().sum::<f64>() / medians.len() as f64)
}

fn cli_workload(
    args: &Args,
    workload: Workload,
    inputs: &Inputs,
    work: &Path,
    tally: &mut Tally,
) -> Result<Report, String> {
    let stream = workload == Workload::MedlineStream;
    let tape_input = workload == Workload::XmarkFet2;
    let nq = workload.op_queries(inputs);
    let doc = &inputs.docs[0];
    let mut speed = Speed::new();
    let setup = cli_setup(args, inputs, nq, work, tape_input, tally)?;
    let input = match (tape_input, &setup.tape) {
        (false, _) => doc.path.clone(),
        (true, Some(tape)) => tape.clone(),
        (true, None) => return Err("foxq store add failed; no tape to query".into()),
    };
    let attempted_before = tally.attempted;
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); nq];
    let mut rss: Vec<Vec<f64>> = vec![Vec::new(); nq];
    let mut firsts: Vec<Vec<f64>> = vec![Vec::new(); nq];
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs(args.seconds) || walls[0].is_empty() {
        for (qi, q) in inputs.queries[..nq].iter().enumerate() {
            speed.sample();
            let mut cmd = Command::new(&args.foxq);
            cmd.arg("run");
            if stream {
                cmd.arg("--stream");
            }
            let run = proc::run(cmd.arg(&q.path).arg(&input), doc.expected[qi].len())
                .map_err(|e| format!("spawn foxq run: {e}"))?;
            if attempted_before == tally.attempted {
                inputs::self_check(&run.stdout, &doc.expected[qi])?;
            }
            let ok = run.success && inputs::output_matches(&run.stdout, &doc.expected[qi]);
            if !tally.record(ok) {
                eprintln!(
                    "perfbench: {} on {} failed: {}",
                    q.name,
                    input.display(),
                    run.stderr.trim()
                );
            }
            walls[qi].push(run.wall.as_secs_f64());
            rss[qi].push(run.peak_rss as f64);
            if let Some(fb) = run.first_byte {
                firsts[qi].push(stats::ms(fb));
            }
        }
    }
    let mib = doc.xml.len() as f64 / MIB;
    // Per query, the median over rounds; the set's throughput is the
    // document MiB it read over the sum of those medians.
    let per_query: Vec<f64> = walls.iter().filter_map(|w| median(w)).collect();
    let set_wall: f64 = per_query.iter().sum();
    let mut r = Report::default();
    speed.sample();
    put_timed(
        &mut r,
        &speed,
        median(&setup.times),
        Some(mib * nq as f64 / set_wall),
        mean_of_medians(&firsts),
        mean_of_medians(&walls).map(|s| s * 1e3),
    );
    // The largest of the commands' typical peaks: per command (compile,
    // store add, each query's run), the median over its runs.
    let peak_rss = [&setup.compile_rss, &setup.ingest_rss]
        .into_iter()
        .chain(&rss)
        .filter_map(|v| median(v))
        .fold(0.0, f64::max);
    r.put("peak_rss_mib", "MiB", Some(peak_rss / MIB));
    if tape_input {
        r.put(
            "ingest_mib_s",
            "MiB/s",
            median(&setup.ingests).map(|s| mib / s),
        );
    }
    r.put(
        "error_ratio",
        "ratio",
        Some(tally.failed as f64 / tally.attempted.max(1) as f64),
    );
    r.put("rounds", "count", Some(walls[0].len() as f64));
    for (q, w) in inputs.queries.iter().zip(&per_query) {
        println!(
            "  {:<10} median {:>9.1} ms over {} run(s)",
            q.name,
            w * 1e3,
            walls[0].len()
        );
    }
    Ok(r)
}

// ---------------------------------------------------------------------------
// serve-mixed
// ---------------------------------------------------------------------------

/// A running `foxq serve` child.
pub struct ServerChild {
    child: Child,
    pub addr: SocketAddr,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl ServerChild {
    /// Spawn on an ephemeral loopback port, with the split's worker count
    /// and confined to its server CPUs, and wait until it prints its
    /// address.
    pub fn spawn(foxq: &Path, split: &cpus::Split) -> Result<ServerChild, String> {
        use std::io::BufRead;
        use std::os::unix::process::CommandExt;
        let mut cmd = Command::new(foxq);
        cmd.args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--slow-ms",
            "60000",
            "--threads",
        ])
        .arg(split.server_threads.to_string());
        let cpus = split.server;
        // SAFETY: the hook only makes the sched_setaffinity system call,
        // which is async-signal-safe, on a set computed before the fork.
        unsafe {
            cmd.pre_exec(move || {
                cpus.apply();
                Ok(())
            });
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn foxq serve: {e}"))?;
        let mut stderr = std::io::BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let _ = stderr.read_line(&mut line);
        let addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("foxq serve did not report its address: {line:?}"));
        };
        // Keep draining stderr so the server never blocks on it.
        let drain = std::thread::spawn(move || {
            let _ = std::io::copy(&mut stderr, &mut std::io::sink());
        });
        Ok(ServerChild {
            child,
            addr,
            drain: Some(drain),
        })
    }

    /// Poll `GET /healthz` until it answers 200.
    pub fn wait_healthy(&self) -> Result<(), String> {
        let start = Instant::now();
        while start.elapsed() < Duration::from_secs(30) {
            if let Ok(mut c) = http::Conn::connect(self.addr) {
                if c.request("GET", "/healthz", b"")
                    .is_ok_and(|r| r.status == 200)
                {
                    return Ok(());
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Err("foxq serve never became healthy".into())
    }

    /// The server's CPU time so far, in seconds.
    pub fn cpu_seconds(&self) -> Option<f64> {
        proc::cpu_seconds(self.child.id())
    }

    /// The server's peak resident set so far, in bytes.
    pub fn peak_rss(&self) -> u64 {
        proc::vm_hwm_bytes(self.child.id()).unwrap_or(0)
    }

    /// Graceful shutdown, then reap the process.
    pub fn stop(mut self) {
        let ok = http::Conn::connect(self.addr)
            .and_then(|mut c| c.request("POST", "/shutdown", b""))
            .is_ok();
        if !ok {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        if self.drain.is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
            if let Some(d) = self.drain.take() {
                let _ = d.join();
            }
        }
    }
}

/// `/query` targets per query: (buffered, streamed).
pub fn targets(inputs: &Inputs) -> Vec<(String, String)> {
    inputs
        .queries
        .iter()
        .map(|q| {
            let t = foxq_server::client::query_target(q.source);
            let s = format!("{t}&stream=1");
            (t, s)
        })
        .collect()
}

/// The cyclic request mix: every query, buffered then streamed, over
/// every document.
pub fn request_mix<'a>(inputs: &'a Inputs, targets: &'a [(String, String)]) -> Vec<http::Req<'a>> {
    let mut mix = Vec::new();
    for doc in &inputs.docs {
        for streamed in [false, true] {
            for (qi, (buffered, stream)) in targets.iter().enumerate() {
                mix.push(http::Req {
                    method: "POST",
                    target: if streamed { stream } else { buffered },
                    body: &doc.xml,
                    expected: &doc.expected[qi],
                    streamed,
                });
            }
        }
    }
    mix
}

/// Spawn a server and bring it to its first answer on every query:
/// spawn to the first `/healthz` 200, plus one cache-miss request each.
pub fn serve_setup(
    args: &Args,
    inputs: &Inputs,
    targets: &[(String, String)],
    split: &cpus::Split,
    tally: &mut Tally,
) -> Result<(ServerChild, f64), String> {
    let start = Instant::now();
    let server = ServerChild::spawn(&args.foxq, split)?;
    server.wait_healthy()?;
    let mut conn = http::Conn::connect(server.addr).map_err(|e| e.to_string())?;
    let doc = &inputs.docs[0];
    for (qi, (target, _)) in targets.iter().enumerate() {
        let reply = conn.request("POST", target, &doc.xml);
        if let Ok(r) = &reply {
            inputs::self_check(&r.body, &doc.expected[qi])?;
        }
        tally.record(
            reply.is_ok_and(|r| {
                r.status == 200 && inputs::output_matches(&r.body, &doc.expected[qi])
            }),
        );
    }
    Ok((server, start.elapsed().as_secs_f64()))
}

fn record_samples(samples: &[http::Sample], tally: &mut Tally) {
    for s in samples.iter().filter(|s| s.attempted) {
        tally.record(s.ok);
    }
}

fn latency_quantile(samples: &[http::Sample], p: f64) -> Option<f64> {
    let lat: Vec<f64> = samples.iter().map(http::Sample::latency_ms).collect();
    quantile(&lat, p)
}

/// Time to the first body byte of each streamed request answered right.
fn streamed_ttfb_ms(samples: &[http::Sample]) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.streamed && s.ok)
        .map(http::Sample::ttfb_ms)
        .collect()
}

/// Whether a rung kept up: all sent and answered, p99 within the limit,
/// and the backlog not growing — the median delay before sending in the
/// last third of the rung exceeds the first third's by less than half the
/// limit.
fn rung_holds(samples: &[http::Sample]) -> bool {
    if samples.iter().any(|s| !s.attempted || !s.ok) {
        return false;
    }
    let third = (samples.len() / 3).max(1);
    let delay = |part: &[http::Sample]| {
        let d: Vec<f64> = part.iter().map(|s| (s.sent - s.due) * 1e3).collect();
        median(&d).unwrap_or(0.0)
    };
    let growth = delay(&samples[samples.len() - third..]) - delay(&samples[..third]);
    latency_quantile(samples, 0.99).is_some_and(|p99| p99 <= LIMIT_P99_MS)
        && growth <= LIMIT_P99_MS / 2.0
}

fn serve_workload(args: &Args, inputs: &Inputs, tally: &mut Tally) -> Result<Report, String> {
    let split = cpus::Split::shared();
    split.pin_client();
    let client_threads = split.client_threads;
    let targets = targets(inputs);
    // The calibration loop runs on the server's CPUs while the server is
    // idle, eight times between load phases.
    let mut speed = split.on_server_cpus(Speed::new);
    let calibrate = |speed: &mut Speed| {
        split.on_server_cpus(|| (0..8).for_each(|_| speed.sample()));
    };
    let mut setups = Vec::new();
    let mut server = None;
    let start = Instant::now();
    while another_setup(setups.len(), start.elapsed()) {
        if let Some(old) = server.take() {
            ServerChild::stop(old);
        }
        let (s, t) = serve_setup(args, inputs, &targets, &split, tally)?;
        setups.push(t);
        server = Some(s);
    }
    let server = server.expect("at least one set-up ran");
    let mix = request_mix(inputs, &targets);
    let scale = args.seconds as f64 / 10.0;
    let phase = |s: f64| Duration::from_secs_f64(s * scale);
    let grace = Duration::from_millis(500);

    // The closed loop and the low-rate open loop, the phases gated, run
    // in six short parts each, alternating. The latency figures are
    // medians over the low-rate parts: on a shared VM, latency moves
    // between levels from second to second, and one long phase would catch
    // whichever level held then, a pooled one a stall in any part. The
    // throughput is request-body MiB per second of the server's CPU time
    // in the closed loop: how long the server waits for the generator,
    // which shares its CPU, changes from run to run with how the two
    // happen to be scheduled.
    let (mut done, mut wall, mut bytes, mut server_cpu) = (0, Duration::ZERO, 0, 0.0);
    let (mut lo_p50, mut lo_ttfb) = (Vec::new(), Vec::new());
    let mut lo = Vec::new();
    for _ in 0..6 {
        let cpu_before = server.cpu_seconds();
        let (d, failed, b, w) = http::closed_loop(server.addr, &mix, phase(0.5), client_threads);
        let cpu = server.cpu_seconds().zip(cpu_before).map(|(a, b)| a - b);
        tally.attempted += d + failed;
        tally.failed += failed;
        (done, wall, bytes) = (done + d, wall + w, bytes + b);
        server_cpu += cpu.ok_or("cannot read the server's CPU time")?;
        calibrate(&mut speed);
        let part = http::open_loop(
            server.addr,
            &mix,
            RATE_LO,
            phase(0.5),
            client_threads,
            grace,
        );
        record_samples(&part, tally);
        lo_p50.extend(latency_quantile(&part, 0.5));
        lo_ttfb.extend(median(&streamed_ttfb_ms(&part)));
        lo.extend(part);
    }
    calibrate(&mut speed);
    let hi = http::open_loop(
        server.addr,
        &mix,
        RATE_HI,
        phase(1.5),
        client_threads,
        grace,
    );
    record_samples(&hi, tally);
    let mut max_rps = None;
    for rate in LADDER {
        calibrate(&mut speed);
        let rung = http::open_loop(server.addr, &mix, rate, phase(0.3), client_threads, grace);
        let holds = rung_holds(&rung);
        println!(
            "  ladder {rate:>6.0}/s: p50 {:>8.3} ms, p99 {:>8.3} ms, {}",
            latency_quantile(&rung, 0.5).unwrap_or(f64::NAN),
            latency_quantile(&rung, 0.99).unwrap_or(f64::NAN),
            if holds { "holds" } else { "misses" }
        );
        for s in rung.iter().filter(|s| s.attempted) {
            // A rung past saturation may time out requests; only wrong
            // answers and refused connections are program failures here.
            tally.record(s.ok || s.done - s.sent > 1.0);
        }
        if !holds {
            break;
        }
        max_rps = Some(rate);
    }
    let server_rss = server.peak_rss() as f64;
    server.stop();

    let lags: Vec<f64> = lo
        .iter()
        .chain(&hi)
        .filter(|s| s.attempted)
        .map(|s| s.idle_lag * 1e3)
        .collect();
    let mut r = Report::default();
    calibrate(&mut speed);
    put_timed(
        &mut r,
        &speed,
        median(&setups),
        Some(bytes as f64 / MIB / server_cpu),
        median(&lo_ttfb),
        median(&lo_p50),
    );
    r.put("peak_rss_mib", "MiB", Some(server_rss / MIB));
    r.put("lat_p50_ms.lo", "ms", latency_quantile(&lo, 0.5));
    r.put("lat_p99_ms.lo", "ms", latency_quantile(&lo, 0.99));
    r.put("lat_p50_ms.hi", "ms", latency_quantile(&hi, 0.5));
    r.put("lat_p99_ms.hi", "ms", latency_quantile(&hi, 0.99));
    r.put("ttfb_p50_ms", "ms", median(&streamed_ttfb_ms(&lo)));
    r.put("max_rps", "1/s", max_rps);
    r.put(
        "closed_loop_rps",
        "1/s",
        Some(done as f64 / wall.as_secs_f64()),
    );
    r.put("server.gen_lag_ms", "ms", quantile(&lags, 0.99));
    r.put(
        "error_ratio",
        "ratio",
        Some(tally.failed as f64 / tally.attempted.max(1) as f64),
    );
    r.put("samples.lo", "count", Some(lo.len() as f64));
    r.put("samples.hi", "count", Some(hi.len() as f64));
    Ok(r)
}

#[cfg(test)]
mod tests {
    /// The metric lists here and in `BENCHMARK.json` must name the same
    /// metrics.
    #[test]
    fn metric_names_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        let listed = spec.matches("{\"name\": ").count();
        let workloads = super::Workload::ALL.len();
        assert_eq!(
            listed,
            workloads + super::END_TO_END.len() + super::PER_LAYER.len()
        );
        for name in super::END_TO_END.iter().chain(&super::PER_LAYER) {
            assert!(spec.contains(&format!("{{\"name\": \"{name}\"")), "{name}");
        }
    }
}
