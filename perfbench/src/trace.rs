//! The traced run: the workload's documents and queries driven through
//! each layer's public functions from this file, with spans at every
//! layer boundary.
//!
//! Where a layer is reached through a trait, a timing adapter wraps it:
//! [`Timed`] around an `EventSource` (the XML tokenizer, the tape scan and
//! the index cursor) and around an `XmlSink`/`EmitSink` (serialization and
//! emission). The engine's time is the self time of the run span: the run
//! minus the time its source and sink calls took. Where no trait exists
//! (`PreparedQuery::compile`, `ingest_xml_to_tape`, `index_drive`, HTTP
//! round trips) the call itself is timed. Every adapter call pays for its
//! own clock reads; timing an adapter around no work (`trace.adapter_ns`)
//! gives that cost, which is taken off each call's time and, for the part
//! outside the recorded interval, off the engine's self time. The writer's
//! and the emission boundary's calls cost less than those clock reads, so
//! their per-event figures come from replaying a run's recorded sink calls
//! into the writer alone ([`replay`]).
//!
//! Spans stay in memory and are written as JSON lines when the run ends:
//! `{"id", "parent", "name", "start_ns", "end_ns"}` plus, on the aggregate
//! spans of per-event adapter calls, `"calls"` and `"busy_ns"`.

use crate::http::{self, Conn, Req};
use crate::inputs::{output_matches, Doc, Inputs};
use crate::stats::{json_str, median, quantile, Report};
use crate::{Args, Tally, Workload};
use foxq_core::emit::{EmitSink, EmitWriter};
use foxq_core::stream::{run_streaming_with_limits, StreamLimits, StreamStats};
use foxq_forest::Label;
use foxq_obs::{alloc_snapshot, AllocScope};
use foxq_service::{run_multi_emit, run_multi_on_tape, run_multi_with_plan, PreparedQuery};
use foxq_store::{index_drive, ingest_xml_to_tape, TapeDrive, TapeReader};
use foxq_xml::{EventSource, WriterSink, XmlError, XmlEvent, XmlReader, XmlSink};
use std::fmt::Write as _;
use std::io::Cursor;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

struct Span {
    parent: Option<usize>,
    name: String,
    start: Instant,
    end: Instant,
    /// `(calls, busy_ns)` of an aggregate span over per-event calls.
    calls: Option<(u64, u64)>,
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Record a finished span; returns its id.
    fn push(&mut self, parent: Option<usize>, name: &str, start: Instant, end: Instant) -> usize {
        self.spans.push(Span {
            parent,
            name: name.to_string(),
            start,
            end,
            calls: None,
        });
        self.spans.len() - 1
    }

    /// Time `f` as one top-level span; returns its result and duration.
    fn timed<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.push(None, name, start, end);
        (out, end - start)
    }

    /// An aggregate span: `meter`'s calls made inside span `parent`.
    fn aggregate(&mut self, parent: usize, name: &str, meter: &Meter, clock: Clock) {
        let (start, end) = (self.spans[parent].start, self.spans[parent].end);
        self.spans.push(Span {
            parent: Some(parent),
            name: name.to_string(),
            start,
            end,
            calls: Some((meter.calls, meter.net_ns(clock) as u64)),
        });
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let ns = |t: Instant| t.duration_since(self.origin).as_nanos();
            let _ = write!(
                out,
                "{{\"id\": {id}, \"parent\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}",
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                json_str(&s.name),
                ns(s.start),
                ns(s.end)
            );
            if let Some((calls, busy)) = s.calls {
                let _ = write!(out, ", \"calls\": {calls}, \"busy_ns\": {busy}");
            }
            out.push_str("}\n");
        }
        std::fs::write(path, out)
    }
}

// ---------------------------------------------------------------------------
// Timing adapters
// ---------------------------------------------------------------------------

/// Calls, time and allocations of one adapter.
#[derive(Default, Clone, Copy)]
struct Meter {
    calls: u64,
    busy_ns: u64,
    allocs: u64,
}

impl Meter {
    fn add(&mut self, other: &Meter) {
        self.calls += other.calls;
        self.busy_ns += other.busy_ns;
        self.allocs += other.allocs;
    }

    #[inline(always)]
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let scope = AllocScope::begin();
        let start = Instant::now();
        let out = f();
        self.busy_ns += start.elapsed().as_nanos() as u64;
        self.allocs += scope.delta().allocations;
        self.calls += 1;
        out
    }

    /// Busy time less what the adapter itself records per call.
    fn net_ns(&self, clock: Clock) -> f64 {
        (self.busy_ns as f64 - self.calls as f64 * clock.inside_ns).max(0.0)
    }
}

/// A timing adapter around an event source or a sink.
struct Timed<T> {
    inner: T,
    meter: Meter,
    /// `emit` calls, kept apart from `open`/`close`.
    emit: Meter,
}

impl<T> Timed<T> {
    fn new(inner: T) -> Timed<T> {
        Timed {
            inner,
            meter: Meter::default(),
            emit: Meter::default(),
        }
    }
}

impl<E: EventSource> EventSource for Timed<E> {
    fn next_event(&mut self) -> Result<XmlEvent, XmlError> {
        let inner = &mut self.inner;
        self.meter.time(|| inner.next_event())
    }

    fn events_read(&self) -> u64 {
        self.inner.events_read()
    }
}

impl<S: XmlSink> XmlSink for Timed<S> {
    fn open(&mut self, label: &Label) {
        let inner = &mut self.inner;
        self.meter.time(|| inner.open(label))
    }

    fn close(&mut self, label: &Label) {
        let inner = &mut self.inner;
        self.meter.time(|| inner.close(label))
    }
}

impl<S: EmitSink> EmitSink for Timed<S> {
    fn emit(&mut self) -> std::io::Result<()> {
        let inner = &mut self.inner;
        self.emit.time(|| inner.emit())
    }
}

/// One call an engine made on its sink.
#[derive(Clone)]
enum SinkCall {
    Open(Label),
    Close(Label),
    Emit,
}

/// Records a run's sink calls, to replay them into the writer alone.
#[derive(Default)]
struct Recorder(Vec<SinkCall>);

impl XmlSink for Recorder {
    fn open(&mut self, label: &Label) {
        self.0.push(SinkCall::Open(label.clone()));
    }

    fn close(&mut self, label: &Label) {
        self.0.push(SinkCall::Close(label.clone()));
    }
}

impl EmitSink for Recorder {
    fn emit(&mut self) -> std::io::Result<()> {
        self.0.push(SinkCall::Emit);
        Ok(())
    }
}

/// Replay recorded sink calls into the emitting writer (`emitting`) or
/// into the buffering one, which takes no `Emit` calls; returns the output.
fn replay(calls: &[SinkCall], capacity: usize, emitting: bool) -> Vec<u8> {
    if emitting {
        let mut out = Vec::with_capacity(capacity);
        let mut w = EmitWriter::new(|chunk: &[u8]| {
            out.extend_from_slice(chunk);
            Ok(())
        });
        for call in calls {
            match call {
                SinkCall::Open(l) => w.open(l),
                SinkCall::Close(l) => w.close(l),
                SinkCall::Emit => w.emit().expect("a Vec takes every chunk"),
            }
        }
        w.finish().expect("a Vec takes every chunk");
        out
    } else {
        let mut w = WriterSink::new(Vec::with_capacity(capacity));
        for call in calls {
            match call {
                SinkCall::Open(l) => w.open(l),
                SinkCall::Close(l) => w.close(l),
                SinkCall::Emit => unreachable!("the buffering replay takes no emits"),
            }
        }
        w.finish().expect("a Vec takes every byte")
    }
}

/// The cost of one adapter call around no work: the part its own meter
/// records, and the part outside the recorded interval.
#[derive(Clone, Copy)]
struct Clock {
    inside_ns: f64,
    outside_ns: f64,
}

/// Time an adapter around no work, in five rounds of 100k calls.
fn calibrate_adapter() -> Clock {
    let rounds: Vec<(f64, f64)> = (0..5)
        .map(|_| {
            let n = 100_000u32;
            let mut meter = Meter::default();
            let start = Instant::now();
            for i in 0..n {
                meter.time(|| std::hint::black_box(i));
            }
            let total = start.elapsed().as_nanos() as f64 / f64::from(n);
            let inside = meter.busy_ns as f64 / f64::from(n);
            (inside, total)
        })
        .collect();
    let inside = median(&rounds.iter().map(|r| r.0).collect::<Vec<_>>()).expect("five rounds");
    let total = median(&rounds.iter().map(|r| r.1).collect::<Vec<_>>()).expect("five rounds");
    Clock {
        inside_ns: inside,
        outside_ns: (total - inside).max(0.0),
    }
}

/// Whether the counting allocator is installed: allocating must move its
/// counter.
fn allocator_counts() -> bool {
    let before = alloc_snapshot().allocations;
    let v = std::hint::black_box(vec![0u8; 64]);
    drop(v);
    alloc_snapshot().allocations > before
}

// ---------------------------------------------------------------------------
// Per-layer accumulators
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Totals {
    tokenize: Meter,
    /// Writer replays: ns and output events.
    serialize_ns: f64,
    output_events: u64,
    /// Emission boundary replays: ns over the buffering replay's, and calls.
    emit_ns: f64,
    emit_calls: u64,
    engine_ns: f64,
    engine_allocs: u64,
    engine_events: u64,
    expansions: u64,
    peak_live_bytes: usize,
    peak_pending_calls: usize,
    emit_flushes: u64,
    first_emit: Vec<f64>,
    prefiltered: u64,
    offered: u64,
    index: Meter,
    index_skipped_bytes: u64,
    index_tape_bytes: u64,
    scan: Meter,
    ingest_ns: f64,
    ingest_events: u64,
    tape_bytes: u64,
    xml_bytes: u64,
    traced_ns: f64,
    untraced_ns: f64,
}

fn ratio(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| num / den)
}

/// A document's tape, held in memory.
struct Tape {
    bytes: Vec<u8>,
}

impl Tape {
    fn reader(&self) -> Result<TapeReader<Cursor<&[u8]>>, String> {
        TapeReader::new(Cursor::new(&self.bytes[..])).map_err(|e| e.to_string())
    }
}

pub fn run(args: &Args, inputs: &Inputs, work: &Path, tally: &mut Tally) -> Result<Report, String> {
    let mut tracer = Tracer::new();
    let clock = calibrate_adapter();
    let counting = allocator_counts();
    let nq = args.workload.op_queries(inputs);
    let mut t = Totals::default();

    // service: compile the query set five times; the operations' queries
    // are what set-up pays for.
    let mut compile_us = Vec::new();
    let mut prepared = Vec::new();
    for rep in 0..5 {
        let mut set_us = 0.0;
        let mut compiled = Vec::new();
        for (qi, q) in inputs.queries.iter().enumerate() {
            let (p, took) = tracer.timed("service.compile", || PreparedQuery::compile(q.source));
            if qi < nq {
                set_us += took.as_secs_f64() * 1e6;
            }
            compiled.push(p.map_err(|e| format!("{}: {e}", q.name))?);
        }
        compile_us.push(set_us);
        if rep == 0 {
            prepared = compiled;
        }
    }
    let compile_us = median(&compile_us).expect("five compiles");

    // store: every document ingested to an in-memory tape.
    let mut tapes = Vec::new();
    for doc in &inputs.docs {
        let (res, took) = tracer.timed("store.ingest", || {
            ingest_xml_to_tape(&doc.xml[..], Cursor::new(Vec::new()))
        });
        let (cursor, info, _) = res.map_err(|e| format!("ingest: {e}"))?;
        t.ingest_ns += took.as_nanos() as f64;
        t.ingest_events += info.events;
        t.tape_bytes += info.file_bytes;
        t.xml_bytes += doc.xml.len() as u64;
        tapes.push(Tape {
            bytes: cursor.into_inner(),
        });
    }

    // xml: the tokenizer alone, drained through the adapter.
    for doc in &inputs.docs {
        let mut src = Timed::new(XmlReader::new(&doc.xml[..]));
        let start = Instant::now();
        while src.next_event().map_err(|e| e.to_string())? != XmlEvent::Eof {}
        let id = tracer.push(None, "xml.drain", start, Instant::now());
        tracer.aggregate(id, "xml.tokenize", &src.meter, clock);
        t.tokenize.add(&src.meter);
    }

    // The workload's operations: as the product runs them, then through
    // the adapters (buffered, then emitting).
    let tape_ops = args.workload == Workload::XmarkFet2;
    for (doc, tape) in inputs.docs.iter().zip(&tapes) {
        for (qi, p) in prepared[..nq].iter().enumerate() {
            t.untraced_ns += untraced_op(&mut tracer, args.workload, p, doc, tape, qi, tally)?;
            t.traced_ns += if tape_ops {
                traced_tape_op(
                    &mut tracer,
                    &mut t,
                    p,
                    tape,
                    &doc.expected[qi],
                    true,
                    clock,
                    tally,
                )?
            } else {
                traced_xml_op(&mut tracer, &mut t, p, doc, qi, clock, tally)?
            };
            emit_op(
                &mut tracer,
                &mut t,
                p,
                doc,
                tape,
                qi,
                tape_ops,
                clock,
                tally,
            )?;
        }
    }
    // store: the index and scan paths over every query of the set.
    if !tape_ops {
        for (doc, tape) in inputs.docs.iter().zip(&tapes) {
            for (qi, p) in prepared.iter().enumerate() {
                traced_tape_op(
                    &mut tracer,
                    &mut t,
                    p,
                    tape,
                    &doc.expected[qi],
                    false,
                    clock,
                    tally,
                )?;
            }
        }
    }

    // server: the same documents and queries over HTTP, against the same
    // in-process `PreparedQuery` runs.
    let server = server_phase(args, inputs, &prepared[..nq], &mut tracer, tally)?;
    // The end-to-end operations the layer spans should explain.
    let (e2e_ns, attributed_ns) = match args.workload {
        Workload::ServeMixed => (server.round_trip_ns, server.in_process_ns),
        _ => {
            let (e2e, local) = cli_ops(
                args,
                inputs,
                &prepared[..nq],
                &tapes[0],
                work,
                &mut tracer,
                tally,
            )?;
            (e2e, local + compile_us * 1e3)
        }
    };

    let file = Path::new(".perfbench/results").join(format!(
        "{}-seed{}-spans.jsonl",
        args.workload.name(),
        args.seed
    ));
    tracer
        .write(&file)
        .map_err(|e| format!("{}: {e}", file.display()))?;

    let net = |m: &Meter| ratio(m.net_ns(clock), m.calls as f64);
    let allocs = |n: u64, events: u64| counting.then(|| ratio(n as f64, events as f64)).flatten();
    let mut r = Report::default();
    r.put("xml.tokenize_ns_per_event", "ns/event", net(&t.tokenize));
    r.put(
        "xml.tokenize_allocs_per_event",
        "allocs/event",
        allocs(t.tokenize.allocs, t.tokenize.calls),
    );
    r.put(
        "xml.serialize_ns_per_output_event",
        "ns/event",
        ratio(t.serialize_ns, t.output_events as f64),
    );
    r.put(
        "core.engine_ns_per_event",
        "ns/event",
        ratio(t.engine_ns, t.engine_events as f64),
    );
    r.put(
        "core.engine_allocs_per_event",
        "allocs/event",
        allocs(t.engine_allocs, t.engine_events),
    );
    r.put(
        "core.expansions_per_event",
        "count/event",
        ratio(t.expansions as f64, t.engine_events as f64),
    );
    r.put("core.peak_live_bytes", "B", Some(t.peak_live_bytes as f64));
    r.put(
        "core.peak_pending_calls",
        "count",
        Some(t.peak_pending_calls as f64),
    );
    r.put(
        "core.emit_ns_per_event",
        "ns/event",
        ratio(t.emit_ns, t.emit_calls as f64),
    );
    r.put("core.emit_flushes", "count", Some(t.emit_flushes as f64));
    r.put("core.first_emit_events", "count", median(&t.first_emit));
    r.put("service.compile_us", "us", Some(compile_us));
    r.put(
        "service.prefiltered_share",
        "ratio",
        ratio(t.prefiltered as f64, t.offered as f64),
    );
    r.put("service.cache_hit_ratio", "ratio", server.cache_hit_ratio);
    r.put("store.index_ns_per_event", "ns/event", net(&t.index));
    r.put("store.scan_ns_per_event", "ns/event", net(&t.scan));
    r.put(
        "store.index_skipped_share",
        "ratio",
        ratio(t.index_skipped_bytes as f64, t.index_tape_bytes as f64),
    );
    r.put(
        "store.ingest_ns_per_event",
        "ns/event",
        ratio(t.ingest_ns, t.ingest_events as f64),
    );
    r.put(
        "store.tape_bytes_per_xml_byte",
        "ratio",
        ratio(t.tape_bytes as f64, t.xml_bytes as f64),
    );
    r.put("server.healthz_p50_us", "us", server.healthz_p50_us);
    r.put("server.query_overhead_us", "us", server.query_overhead_us);
    r.put("server.ttfb_share", "ratio", server.ttfb_share);
    r.put("server.gen_lag_ms", "ms", server.gen_lag_ms);
    r.put(
        "trace.overhead_share",
        "ratio",
        ratio(t.traced_ns - t.untraced_ns, t.untraced_ns),
    );
    r.put(
        "trace.unattributed_share",
        "ratio",
        ratio(e2e_ns - attributed_ns, e2e_ns),
    );
    r.put(
        "trace.adapter_ns",
        "ns",
        Some(clock.inside_ns + clock.outside_ns),
    );
    println!(
        "  tracing overhead: the operations took {:.1} ms through the adapters, {:.1} ms without",
        t.traced_ns / 1e6,
        t.untraced_ns / 1e6
    );
    println!(
        "  unattributed remainder: end-to-end {:.1} ms, covered by layer spans {:.1} ms, \
         remainder {:.1} ms",
        e2e_ns / 1e6,
        attributed_ns / 1e6,
        (e2e_ns - attributed_ns) / 1e6
    );
    if !counting {
        println!("  allocation counts missing: the counting allocator is not active");
    }
    println!("  spans: {}", file.display());
    Ok(r)
}

/// The operation as the product runs it, with no adapters: the service
/// layer's `PreparedQuery` on XML, or the tape driver on the stored tape.
/// Returns its wall time in ns.
fn untraced_op(
    tracer: &mut Tracer,
    workload: Workload,
    p: &PreparedQuery,
    doc: &Doc,
    tape: &Tape,
    qi: usize,
    tally: &mut Tally,
) -> Result<f64, String> {
    let expected = &doc.expected[qi];
    let (ok, took) = match workload {
        Workload::MedlineStream => tracer.timed("service.run_streaming", || {
            let mut out = Vec::with_capacity(expected.len());
            let ran = p.run_streaming(&doc.xml, |chunk| {
                out.extend_from_slice(chunk);
                Ok(())
            });
            Ok::<_, String>(ran.is_ok() && out == *expected)
        }),
        Workload::XmarkFet2 => tracer.timed("service.run_on_tape", || {
            let sink = WriterSink::new(Vec::with_capacity(expected.len()));
            let limits = StreamLimits::serving();
            let run = run_multi_on_tape(
                &[p.mft()],
                tape.reader()?,
                vec![sink],
                limits,
                p.solo_plan(),
            )
            .map_err(|e| e.to_string())?;
            Ok(match run.results.into_iter().next().expect("one lane") {
                Ok((sink, _)) => sink.finish().is_ok_and(|out| out == *expected),
                Err(_) => false,
            })
        }),
        _ => tracer.timed("service.run_to_string", || {
            Ok(p.run_to_string(&doc.xml)
                .is_ok_and(|out| out.output.as_bytes() == &expected[..]))
        }),
    };
    tally.record(ok?);
    Ok(took.as_nanos() as f64)
}

/// Engine self time and counts of one run: the run's span less its
/// source and sink calls, each call's whole adapter cost included.
fn note_engine(
    t: &mut Totals,
    stats: &StreamStats,
    run_ns: f64,
    run_allocs: u64,
    src: &Meter,
    sink: &Meter,
    clock: Clock,
) {
    let adapters =
        (src.busy_ns + sink.busy_ns) as f64 + (src.calls + sink.calls) as f64 * clock.outside_ns;
    t.engine_ns += (run_ns - adapters).max(0.0);
    t.engine_allocs += run_allocs.saturating_sub(src.allocs + sink.allocs);
    t.engine_events += src.calls;
    t.expansions += stats.expansions;
    t.peak_live_bytes = t.peak_live_bytes.max(stats.peak_live_bytes);
    t.peak_pending_calls = t.peak_pending_calls.max(stats.peak_pending_calls);
}

/// One query over XML through the tokenizer and writer adapters, as
/// `foxq run` drives it. Returns the run's wall time in ns.
fn traced_xml_op(
    tracer: &mut Tracer,
    t: &mut Totals,
    p: &PreparedQuery,
    doc: &Doc,
    qi: usize,
    clock: Clock,
    tally: &mut Tally,
) -> Result<f64, String> {
    let expected = &doc.expected[qi];
    let mut src = Timed::new(XmlReader::new(&doc.xml[..]));
    let sink = Timed::new(WriterSink::new(Vec::with_capacity(expected.len())));
    let scope = AllocScope::begin();
    let start = Instant::now();
    let result = run_streaming_with_limits(p.mft(), &mut src, sink, StreamLimits::serving());
    let end = Instant::now();
    let allocs = scope.delta().allocations;
    let (sink, stats) = result.map_err(|e| e.to_string())?;
    let id = tracer.push(None, "core.run", start, end);
    tracer.aggregate(id, "xml.tokenize", &src.meter, clock);
    tracer.aggregate(id, "xml.serialize", &sink.meter, clock);
    let ns = (end - start).as_nanos() as f64;
    note_engine(t, &stats, ns, allocs, &src.meter, &sink.meter, clock);
    let out = sink.inner.finish().map_err(|e| e.to_string())?;
    tally.record(out == *expected);
    Ok(ns)
}

/// One query over a tape through the store's index cursor or its scan,
/// wrapped in the source adapter and driven by the service layer's
/// prefiltering fan-out. Returns the run's wall time in ns. Only the
/// workload's own operations (`op`) count towards the engine and writer
/// totals; the others probe the store layer alone.
#[allow(clippy::too_many_arguments)]
fn traced_tape_op(
    tracer: &mut Tracer,
    t: &mut Totals,
    p: &PreparedQuery,
    tape: &Tape,
    expected: &[u8],
    op: bool,
    clock: Clock,
    tally: &mut Tally,
) -> Result<f64, String> {
    let plan = p.solo_plan();
    let limits = StreamLimits::serving();
    let sink = Timed::new(WriterSink::new(Vec::with_capacity(expected.len())));
    let scope = AllocScope::begin();
    let start = Instant::now();
    let reader = tape.reader()?;
    let drive = if plan.prefilters_whole_set() {
        index_drive(reader, plan.matched_labels(), plan.skips_texts()).map_err(|e| e.to_string())?
    } else {
        TapeDrive::Linear(reader)
    };
    let (name, run, src, skipped) = match drive {
        TapeDrive::Indexed(d) => {
            let mut src = Timed::new(d);
            let run = run_multi_with_plan(&[p.mft()], &mut src, vec![sink], limits, plan);
            let skipped = src.inner.index_skipped_bytes();
            ("store.index", run, src.meter, Some(skipped))
        }
        TapeDrive::Linear(reader) => {
            let mut src = Timed::new(reader);
            let run = run_multi_with_plan(&[p.mft()], &mut src, vec![sink], limits, plan);
            ("store.scan", run, src.meter, None)
        }
    };
    let end = Instant::now();
    let allocs = scope.delta().allocations;
    let run = run.map_err(|e| e.to_string())?;
    let (sink, stats) = run
        .results
        .into_iter()
        .next()
        .expect("one lane")
        .map_err(|e| e.to_string())?;
    let id = tracer.push(None, "service.tape_run", start, end);
    tracer.aggregate(id, name, &src, clock);
    tracer.aggregate(id, "xml.serialize", &sink.meter, clock);
    let ns = (end - start).as_nanos() as f64;
    match skipped {
        Some(skipped) => {
            t.index.add(&src);
            t.index_skipped_bytes += skipped;
            t.index_tape_bytes += tape.bytes.len() as u64;
        }
        None => t.scan.add(&src),
    }
    if op {
        note_engine(t, &stats, ns, allocs, &src, &sink.meter, clock);
    }
    let out = sink.inner.finish().map_err(|e| e.to_string())?;
    tally.record(out == expected);
    Ok(ns)
}

/// One query through the emitting fan-out (the `--stream` and
/// `?stream=1` path): the emission boundary's timing and the service
/// layer's prefilter share; then the run's sink calls, recorded and
/// replayed, for the writer's and the boundary's per-event costs.
#[allow(clippy::too_many_arguments)]
fn emit_op(
    tracer: &mut Tracer,
    t: &mut Totals,
    p: &PreparedQuery,
    doc: &Doc,
    tape: &Tape,
    qi: usize,
    from_tape: bool,
    clock: Clock,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut out = Vec::with_capacity(doc.expected[qi].len());
    let sink = Timed::new(EmitWriter::new(|chunk: &[u8]| {
        out.extend_from_slice(chunk);
        Ok(())
    }));
    let (plan, limits) = (p.solo_plan(), StreamLimits::serving());
    let start = Instant::now();
    let (run, src, src_name) = if from_tape {
        let mut src = Timed::new(tape.reader()?);
        let run = run_multi_emit(&[p.mft()], &mut src, vec![sink], limits, plan);
        (run, src.meter, "store.scan")
    } else {
        let mut src = Timed::new(XmlReader::new(&doc.xml[..]));
        let run = run_multi_emit(&[p.mft()], &mut src, vec![sink], limits, plan);
        (run, src.meter, "xml.tokenize")
    };
    let id = tracer.push(None, "core.emit_run", start, Instant::now());
    let run = run.map_err(|e| e.to_string())?;
    let (sink, stats) = run
        .results
        .into_iter()
        .next()
        .expect("one lane")
        .map_err(|e| e.to_string())?;
    tracer.aggregate(id, src_name, &src, clock);
    tracer.aggregate(id, "xml.serialize", &sink.meter, clock);
    tracer.aggregate(id, "core.emit", &sink.emit, clock);
    t.emit_flushes += stats.emit_flushes;
    if stats.first_emit_events > 0 {
        t.first_emit.push(stats.first_emit_events as f64);
    }
    t.prefiltered += stats.prefiltered_events;
    t.offered += stats.prefiltered_events + src.calls;
    let finished = sink.inner.finish().is_ok();
    tally.record(finished && out == doc.expected[qi]);

    // The writer's and the boundary's per-event costs are a few ns, below
    // what per-call clock reads resolve: replay the run's sink calls into
    // the writer alone, three times without the boundaries and three
    // times with them, alternating.
    let recorder = Recorder::default();
    let run = if from_tape {
        run_multi_emit(&[p.mft()], tape.reader()?, vec![recorder], limits, plan)
    } else {
        let src = XmlReader::new(&doc.xml[..]);
        run_multi_emit(&[p.mft()], src, vec![recorder], limits, plan)
    };
    let run = run.map_err(|e| e.to_string())?;
    let (Recorder(calls), _) = run
        .results
        .into_iter()
        .next()
        .expect("one lane")
        .map_err(|e| e.to_string())?;
    let writes: Vec<SinkCall> = calls
        .iter()
        .filter(|c| !matches!(c, SinkCall::Emit))
        .cloned()
        .collect();
    let expected = &doc.expected[qi];
    let (mut buffered, mut emitting) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let (out, took) = tracer.timed("xml.serialize_replay", || {
            replay(&writes, expected.len(), false)
        });
        tally.record(out == *expected);
        buffered.push(took.as_nanos() as f64);
        let (out, took) = tracer.timed("core.emit_replay", || replay(&calls, expected.len(), true));
        tally.record(out == *expected);
        emitting.push(took.as_nanos() as f64);
    }
    let buffered = median(&buffered).expect("three replays");
    let emitting = median(&emitting).expect("three replays");
    t.serialize_ns += buffered;
    t.output_events += writes.len() as u64;
    t.emit_ns += emitting - buffered;
    t.emit_calls += (calls.len() - writes.len()) as u64;
    Ok(())
}

struct ServerFigures {
    healthz_p50_us: Option<f64>,
    query_overhead_us: Option<f64>,
    ttfb_share: Option<f64>,
    gen_lag_ms: Option<f64>,
    cache_hit_ratio: Option<f64>,
    /// Sums over the (document, query) pairs of the median buffered round
    /// trip and of the median in-process run, in ns.
    round_trip_ns: f64,
    in_process_ns: f64,
}

/// A server child: `/healthz` in an open loop, then every (document,
/// query) three times in-process (`PreparedQuery::run_to_string`),
/// buffered and streamed, alternating, then its query-cache counters.
fn server_phase(
    args: &Args,
    inputs: &Inputs,
    prepared: &[PreparedQuery],
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Result<ServerFigures, String> {
    let split = crate::cpus::Split::separate();
    split.pin_client();
    let client_threads = split.client_threads;
    let server = crate::ServerChild::spawn(&args.foxq, &split)?;
    server.wait_healthy()?;
    let health = [Req {
        method: "GET",
        target: "/healthz",
        body: b"",
        expected: b"ok",
        streamed: false,
    }];
    let samples = http::open_loop(
        server.addr,
        &health,
        1000.0,
        Duration::from_millis(500),
        client_threads,
        Duration::from_millis(500),
    );
    for s in &samples {
        tally.record(s.ok);
    }
    let lat: Vec<f64> = samples.iter().map(|s| s.latency_ms() * 1e3).collect();
    let lag: Vec<f64> = samples.iter().map(|s| s.idle_lag * 1e3).collect();

    let targets = crate::targets(inputs);
    let mut conn = Conn::connect(server.addr).map_err(|e| e.to_string())?;
    let (mut overhead, mut shares) = (Vec::new(), Vec::new());
    let (mut round_trip_ns, mut in_process_ns) = (0.0, 0.0);
    for doc in &inputs.docs {
        for (qi, p) in prepared.iter().enumerate() {
            let (buffered, streamed) = &targets[qi];
            let (mut local, mut trips) = (Vec::new(), Vec::new());
            for _ in 0..3 {
                let (_, took) = tracer.timed("service.run_to_string", || p.run_to_string(&doc.xml));
                local.push(took.as_nanos() as f64);
                let start = Instant::now();
                let r = conn.request("POST", buffered, &doc.xml);
                let end = Instant::now();
                tracer.push(None, "server.query", start, end);
                tally.record(
                    r.is_ok_and(|r| r.status == 200 && output_matches(&r.body, &doc.expected[qi])),
                );
                trips.push((end - start).as_nanos() as f64);
                let start = Instant::now();
                let r = conn.request("POST", streamed, &doc.xml);
                let end = Instant::now();
                tracer.push(None, "server.query_stream", start, end);
                if let Ok(r) = &r {
                    shares.push((r.first_body - start).as_secs_f64() / (end - start).as_secs_f64());
                }
                tally.record(
                    r.is_ok_and(|r| r.status == 200 && output_matches(&r.body, &doc.expected[qi])),
                );
            }
            let local = median(&local).expect("three runs");
            let trip = median(&trips).expect("three runs");
            in_process_ns += local;
            round_trip_ns += trip;
            overhead.push((trip - local) / 1e3);
        }
    }
    let metrics = conn
        .request("GET", "/metrics", b"")
        .map(|r| String::from_utf8_lossy(&r.body).into_owned())
        .unwrap_or_default();
    server.stop();
    let counter = |name: &str| {
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(name)?.trim().parse::<f64>().ok())
    };
    let cache_hit_ratio = match (
        counter("foxq_query_cache_hits_total "),
        counter("foxq_query_cache_misses_total "),
    ) {
        (Some(h), Some(m)) => ratio(h, h + m),
        _ => None,
    };
    Ok(ServerFigures {
        healthz_p50_us: median(&lat),
        query_overhead_us: median(&overhead),
        ttfb_share: median(&shares),
        gen_lag_ms: quantile(&lag, 0.99),
        cache_hit_ratio,
        round_trip_ns,
        in_process_ns,
    })
}

/// The CLI operations as child processes, each alternated three times
/// with the same operation in-process: per query, the median of each, in
/// ns, summed over the queries — the end-to-end time the layer spans
/// should explain, and the in-process time they cover.
fn cli_ops(
    args: &Args,
    inputs: &Inputs,
    prepared: &[PreparedQuery],
    tape: &Tape,
    work: &Path,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Result<(f64, f64), String> {
    let doc = &inputs.docs[0];
    let input = if args.workload == Workload::XmarkFet2 {
        let dir = work.join("trace-corpus");
        let run = crate::proc::run(
            Command::new(&args.foxq)
                .args(["store", "add", "--id", "doc", "--dir"])
                .arg(&dir)
                .arg(&doc.path),
            1 << 10,
        )
        .map_err(|e| e.to_string())?;
        if !tally.record(run.success) {
            return Err("foxq store add failed".into());
        }
        let corpus = foxq_store::Corpus::open(&dir).map_err(|e| e.to_string())?;
        corpus.tape_path("doc").map_err(|e| e.to_string())?
    } else {
        doc.path.clone()
    };
    let (mut e2e, mut local) = (0.0, 0.0);
    for (qi, (q, p)) in inputs.queries.iter().zip(prepared).enumerate() {
        let (mut child, mut own) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            let mut cmd = Command::new(&args.foxq);
            cmd.arg("run");
            if args.workload == Workload::MedlineStream {
                cmd.arg("--stream");
            }
            let run = crate::proc::run(cmd.arg(&q.path).arg(&input), doc.expected[qi].len())
                .map_err(|e| e.to_string())?;
            tally.record(run.success && output_matches(&run.stdout, &doc.expected[qi]));
            child.push(run.wall.as_nanos() as f64);
            own.push(untraced_op(tracer, args.workload, p, doc, tape, qi, tally)?);
        }
        e2e += median(&child).expect("three runs");
        local += median(&own).expect("three runs");
    }
    Ok((e2e, local))
}
