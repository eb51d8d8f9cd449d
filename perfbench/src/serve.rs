//! The serve workload: closed-loop clients against a loopback server,
//! one amplicon per session, and its traced re-enactment.

use crate::host;
use crate::layers::{self, ratio};
use crate::replay::{probe_every, replay_reads, Work};
use crate::report::{EndToEnd, Outcome};
use crate::trace::{self, Lane, Span, SpanId};
use crate::workload::{self, Group, Mode, Spec};
use crate::{score_vcf, write_vcf, Accuracy, Floors, Inputs};
use genome::index::KmerIndex;
use genome::read::SequencedRead;
use genome::seq::DnaSeq;
use gnumap_core::accum::{FixedAccumulator, GenomeAccumulator};
use gnumap_core::snpcall::call_snps;
use gnumap_core::MappingEngine;
use server::{Client, ErrorKind, ServerConfig, ServerHandle, SessionConfig, StatsSnapshot};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Pause before retrying a Busy submit, as `gnumap client` pauses.
const RETRY_PAUSE: Duration = Duration::from_millis(50);
/// Sessions whose evidence the traced run rebuilds to time calling.
const REPLAYED_SESSIONS: usize = 2;

/// Start a server and wait for its first Ping reply; returns the handle
/// and the seconds that took.
fn start(spec: &Spec, reference: &DnaSeq) -> Result<(ServerHandle, f64), String> {
    let reference = reference.clone();
    let Mode::Serve { workers, .. } = spec.mode else {
        unreachable!("serve workloads only")
    };
    let cfg = ServerConfig {
        workers,
        ..Default::default()
    };
    let t = Instant::now();
    let handle = server::start(reference, spec.config(), cfg, "127.0.0.1:0")
        .map_err(|e| format!("server start: {e}"))?;
    let ready = Client::connect(handle.addr()).and_then(|mut c| c.ping(1));
    let secs = t.elapsed().as_secs_f64();
    if let Err(e) = ready {
        stop(handle);
        return Err(format!("first ping: {e}"));
    }
    Ok((handle, secs))
}

fn stop(handle: ServerHandle) {
    handle.shutdown();
    handle.join();
}

/// One finished session.
struct Session {
    ok: bool,
    secs: f64,
    reads: usize,
    retries: u64,
    first_submit: Instant,
    calls_at: Instant,
    accuracy: Accuracy,
}

/// Time `f` as a span when a lane is given.
fn timed<T>(lane: &mut Option<Lane>, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
    match lane {
        Some(l) => l.time(name, req, f),
        None => f(),
    }
}

/// Open → submit in chunks → finalize → VCF written, driven as
/// `gnumap client` drives a session: a Busy submit is retried after a
/// pause for as long as it takes, and finalize is not retried. Then the
/// checks against the precomputed digest.
#[allow(clippy::too_many_arguments)]
fn session(
    client: &mut Client,
    group: &Group,
    reads: &[SequencedRead],
    calling: SessionConfig,
    chunk: usize,
    vcf: &Path,
    seq: u64,
    lane: &mut Option<Lane>,
) -> Result<Session, String> {
    let t = Instant::now();
    let id = timed(lane, "client.open", seq, || client.open_session(calling))
        .map_err(|e| format!("open: {e}"))?;
    let mut retries = 0u64;
    let first_submit = Instant::now();
    for part in reads.chunks(chunk) {
        let accepted = timed(lane, "client.submit", seq, || loop {
            match client.submit_reads(id, part) {
                Err(e) if e.is_kind(ErrorKind::Busy) => {
                    retries += 1;
                    std::thread::sleep(RETRY_PAUSE);
                }
                other => break other,
            }
        })
        .map_err(|e| format!("submit: {e}"))?;
        if accepted as usize != part.len() {
            return Err(format!(
                "submit: {accepted} of {} reads accepted",
                part.len()
            ));
        }
    }
    let result = timed(lane, "client.finalize", seq, || client.finalize(id, 0))
        .map_err(|e| format!("finalize: {e}"))?;
    let calls_at = Instant::now();
    let secs = t.elapsed().as_secs_f64();
    timed(lane, "vcf.write", seq, || write_vcf(vcf, &result.calls))?;
    let accuracy = score_vcf(vcf, group)?;
    let ok = result.reads_processed as usize == reads.len() && result.digest == group.digest;
    if !ok {
        eprintln!(
            "session {seq}: {} of {} reads, digest {:#x} (serial {:#x})",
            result.reads_processed,
            reads.len(),
            result.digest,
            group.digest
        );
    }
    Ok(Session {
        ok,
        secs,
        reads: reads.len(),
        retries,
        first_submit,
        calls_at,
        accuracy,
    })
}

/// What a closed loop produced.
struct Loop {
    sessions: Vec<Session>,
    failures: usize,
    spans: Vec<Span>,
}

/// `clients` callers, each waiting for its calls before it opens its
/// next session, cycling through the amplicon pool until `done` says
/// stop (given the next session number and the sessions finished).
fn closed_loop(
    spec: &Spec,
    addr: std::net::SocketAddr,
    groups: &[Group],
    reads: &[SequencedRead],
    dir: &Path,
    done: impl Fn(usize, usize) -> bool + Sync,
    trace: Option<(Instant, SpanId)>,
) -> Loop {
    let Mode::Serve { clients, chunk, .. } = spec.mode else {
        unreachable!("serve workloads only")
    };
    let calling: SessionConfig = spec.config().calling.into();
    let next = AtomicUsize::new(0);
    let finished = AtomicUsize::new(0);
    let per_client: Vec<(Vec<Session>, usize, Vec<Span>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (next, finished, done, calling) = (&next, &finished, &done, calling);
                scope.spawn(move || {
                    let vcf = dir.join(format!("session-{c}.vcf"));
                    let mut lane =
                        trace.map(|(epoch, root)| Lane::new(epoch, 100 + c as u32, Some(root)));
                    let (mut sessions, mut failures) = (Vec::new(), 0usize);
                    let mut client = match Client::connect(addr) {
                        Ok(client) => client,
                        Err(e) => {
                            eprintln!("client {c}: connect: {e}");
                            return (sessions, 1, Vec::new());
                        }
                    };
                    loop {
                        let k = next.fetch_add(1, Ordering::SeqCst);
                        if done(k, finished.load(Ordering::SeqCst)) {
                            break;
                        }
                        let group = &groups[k % groups.len()];
                        let part = &reads[group.first_read..group.first_read + group.reads];
                        if let Some(l) = lane.as_mut() {
                            l.open("session", k as u64);
                        }
                        let r = session(
                            &mut client,
                            group,
                            part,
                            calling,
                            chunk,
                            &vcf,
                            k as u64,
                            &mut lane,
                        );
                        if let Some(l) = lane.as_mut() {
                            l.close();
                        }
                        match r {
                            Ok(sess) => sessions.push(sess),
                            Err(e) => {
                                eprintln!("session {k}: {e}");
                                failures += 1;
                                // The connection may be unusable now.
                                match Client::connect(addr) {
                                    Ok(c) => client = c,
                                    Err(_) => break,
                                }
                            }
                        }
                        finished.fetch_add(1, Ordering::SeqCst);
                    }
                    (
                        sessions,
                        failures,
                        lane.map(Lane::finish).unwrap_or_default(),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut out = Loop {
        sessions: Vec::new(),
        failures: 0,
        spans: Vec::new(),
    };
    for (sessions, failures, spans) in per_client {
        out.sessions.extend(sessions);
        out.failures += failures;
        out.spans.extend(spans);
    }
    out
}

impl Loop {
    /// Wall seconds from the first submit to the last calls.
    fn wall(&self) -> f64 {
        let first = self.sessions.iter().map(|s| s.first_submit).min();
        let last = self.sessions.iter().map(|s| s.calls_at).max();
        match (first, last) {
            (Some(a), Some(b)) => (b - a).as_secs_f64(),
            _ => 0.0,
        }
    }

    fn reads(&self) -> usize {
        self.sessions.iter().filter(|s| s.ok).map(|s| s.reads).sum()
    }

    fn count(&self, out: &mut Outcome) {
        for s in &self.sessions {
            out.op(s.ok);
        }
        for _ in 0..self.failures {
            out.op(false);
        }
    }
}

fn load(inputs: &Inputs) -> Result<(DnaSeq, Vec<Group>, Vec<SequencedRead>), String> {
    let reference = workload::read_reference(&inputs.reference)?;
    let groups = workload::read_groups(&inputs.groups)?;
    let reads = workload::read_reads(&inputs.reads)?;
    if groups.is_empty() || groups.iter().any(|g| g.first_read + g.reads > reads.len()) {
        return Err("groups.tsv does not match reads.fq".into());
    }
    Ok((reference, groups, reads))
}

/// One set-up as a user pays it: server start to the first Ping reply.
pub fn setup_once(spec: &Spec, reference: &DnaSeq) -> Result<f64, String> {
    let (handle, secs) = start(spec, reference)?;
    stop(handle);
    Ok(secs)
}

/// The untraced run: end-to-end metrics.
pub fn run(
    spec: &Spec,
    inputs: &Inputs,
    seconds: f64,
    setups: &[f64],
    out: &mut Outcome,
) -> Result<(), String> {
    let (reference, groups, reads) = load(inputs)?;
    let (handle, _) = start(spec, &reference)?;
    let Mode::Serve { min_sessions, .. } = spec.mode else {
        unreachable!("serve workloads only")
    };
    let t0 = Instant::now();
    let cpu0 = host::process_cpu_secs();
    let run = closed_loop(
        spec,
        handle.addr(),
        &groups,
        &reads,
        &inputs.dir,
        |_, finished| finished >= min_sessions && t0.elapsed().as_secs_f64() >= seconds,
        None,
    );
    let cpu = host::process_cpu_secs() - cpu0;
    stop(handle);

    run.count(out);
    let mut accuracy = Accuracy::default();
    for s in &run.sessions {
        accuracy.add(&s.accuracy);
    }
    if !Floors::for_spec(spec).pass(&accuracy) {
        out.check_failed("sensitivity or precision below its floor");
    }
    let reads_done = run.reads();
    EndToEnd {
        setups: setups.to_vec(),
        reads_per_s: ratio(reads_done as f64, run.wall()),
        cpu_s_per_kread: ratio(cpu, reads_done as f64 / 1e3),
        peak_rss_mb: host::peak_rss_mb(),
        sensitivity: accuracy.sensitivity(),
        precision: accuracy.precision(),
        latencies_ms: run
            .sessions
            .iter()
            .filter(|s| s.ok)
            .map(|s| s.secs * 1e3)
            .collect(),
    }
    .emit(out);
    out.record_num("reads_per_session", groups[0].reads);
    out.record_num(
        "submit_retries",
        run.sessions.iter().map(|s| s.retries).sum::<u64>(),
    );
    Ok(())
}

/// The traced run: an untraced loop of a fixed session count for the
/// baseline, then the same sessions traced, the server's `Stats` frame,
/// and a re-enactment of a few sessions' evidence and calling.
pub fn run_traced(spec: &Spec, inputs: &Inputs, out: &mut Outcome) -> Result<(), String> {
    let (reference, groups, _) = load(inputs)?;
    let sessions = 2 * groups.len();
    let fixed_count = |k: usize, _| k >= sessions;

    let (handle, _) = start(spec, &reference)?;
    let all_reads = workload::read_reads(&inputs.reads)?;
    let baseline = closed_loop(
        spec,
        handle.addr(),
        &groups,
        &all_reads,
        &inputs.dir,
        fixed_count,
        None,
    );
    stop(handle);
    drop(all_reads);
    baseline.count(out);

    let config = spec.config();
    let epoch = Instant::now();
    let mut main = Lane::new(epoch, 0, None);
    let root = main.open("run", 0);
    let reads = main.time("fastq.parse", 0, || workload::read_reads(&inputs.reads))?;
    let index = main
        .time("index.build", 0, || {
            KmerIndex::build(&reference, config.mapping.index)
        })
        .map_err(|e| e.to_string())?;
    let (index_heap_bytes, masked_kmers) = (index.heap_bytes(), index.masked_kmers());
    let (handle, _) = main.time("server.start", 0, || start(spec, &reference))?;
    let traced = closed_loop(
        spec,
        handle.addr(),
        &groups,
        &reads,
        &inputs.dir,
        fixed_count,
        Some((epoch, root)),
    );
    let stats: Option<StatsSnapshot> = main.time("server.stats", 0, || {
        Client::connect(handle.addr())
            .and_then(|mut c| c.stats())
            .ok()
    });
    main.time("server.stop", 0, || stop(handle));

    // Calling runs inside the server's Finalize, out of reach of a span:
    // rebuild a few sessions' evidence through the public layers and
    // time calling on it.
    let engine = MappingEngine::with_index(&reference, index, config.mapping);
    let mut work = Work::default();
    let mut call_positions = 0;
    let mut calls = 0;
    let mut replay_ok = true;
    for (g, group) in groups.iter().take(REPLAYED_SESSIONS).enumerate() {
        let part = &reads[group.first_read..group.first_read + group.reads];
        let mut acc = FixedAccumulator::new(reference.len());
        main.open("session", g as u64);
        let indexed = part
            .iter()
            .enumerate()
            .map(|(i, r)| (group.first_read + i, r));
        work.add(&replay_reads(
            &engine,
            &reference,
            indexed,
            probe_every(part.len()),
            &mut acc,
            &mut main,
        ));
        let c = main.time("call", g as u64, || {
            call_snps(&acc, &reference, &config.calling)
        });
        main.close();
        calls += c.len();
        let min_total = config.calling.min_total;
        call_positions += (0..acc.len())
            .filter(|&p| acc.total(p) >= min_total)
            .count();
        replay_ok &= acc.digest() == group.digest;
    }
    main.close();
    traced.count(out);
    out.op(replay_ok);
    if !replay_ok {
        eprintln!("re-enacted session evidence disagrees with the serial digest");
    }

    let mut spans = main.finish();
    spans.extend(traced.spans.iter().cloned());
    let mut jsonl = Vec::new();
    trace::write_json_lines(&spans, &mut jsonl).map_err(|e| e.to_string())?;
    std::fs::write(&inputs.trace, &jsonl).map_err(|e| e.to_string())?;
    let summary = trace::summarize(&spans);
    let replayed = REPLAYED_SESSIONS.min(groups.len());
    let fastq_bytes = std::fs::metadata(&inputs.reads)
        .map_err(|e| e.to_string())?
        .len();
    let Mode::Serve { workers, .. } = spec.mode else {
        unreachable!("serve workloads only")
    };
    let worker_mean = stats.map_or(0.0, |s| s.worker_cpu_secs / workers as f64);
    layers::emit(
        out,
        &summary,
        &work,
        &layers::Extra {
            fastq_bytes,
            index_heap_bytes,
            masked_kmers,
            call_positions,
            calls,
            cpu_imbalance: ratio(stats.map_or(0.0, |s| s.max_worker_cpu_secs), worker_mean),
            overhead_frac: ratio(traced.wall(), baseline.wall()) - 1.0,
            coverage: trace::coverage(&spans, root),
            submit_retries: traced.sessions.iter().map(|s| s.retries).sum(),
            stats,
            ..Default::default()
        },
    );
    out.record_num("traced_sessions", traced.sessions.len());
    out.record_num("replayed_sessions", replayed);
    Ok(())
}
