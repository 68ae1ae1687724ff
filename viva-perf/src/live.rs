//! `live-tcp`: a live stream against `serve_tcp` in the same process,
//! over loopback, with the journal on and the default
//! `journal_sync_every`. Per round: one producer connection appends
//! samples for 240 hosts at a fixed rate (open loop, each append timed
//! from when it was due), with an analyst action and its render at
//! fixed intervals on the same connection; one subscriber connection
//! receives the deltas; a closed-loop burst measures capacity; then the
//! server shuts down and fresh servers recover the journal and answer a
//! render.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use viva_server::{serve_tcp, Server, ServerLimits};

use crate::analyst::{aggregate_line, group_line, render_line, slice_line, Samples};
use crate::checks;
use crate::exec::{Exec, Mirror};
use crate::util::{field, field_num, kind, median, metric, ms, percentile, Outcome, Rng, Tally};
use crate::Args;

const SESSION: &str = "live";
const CLUSTERS: usize = 8;
const HOSTS_PER_CLUSTER: usize = 30;
/// Paced appends per round; a multiple of `CLUSTERS` so every host
/// gets the same number of samples.
const PACED: usize = 480;
/// Appends per second in the paced segment.
const RATE: f64 = 250.0;
/// An analyst action (a render, or a command and its render) after
/// every this many appends.
const ACTION_EVERY: usize = 8;
/// Closed-loop appends per round, and how many the producer keeps in
/// flight on its connection. The shard answers every complete request
/// it has read in one tick and queues one push per append for the
/// subscriber, so a window above `subscriber_queue` (64) sheds it.
const BURST: usize = 4000;
const BURST_WINDOW: usize = 32;
/// Set-ups per round (the median is `setup_s`).
const SET_UPS: usize = 3;
/// Fresh servers recovering the journal at the end of each round.
const RECOVERIES: usize = 3;
/// Sample appends per round, and the trace span that covers them.
const APPENDS: usize = PACED + BURST;
const SPAN_END: f64 = (APPENDS / CLUSTERS + 2) as f64;

fn limits(journal_dir: &Path) -> ServerLimits {
    ServerLimits {
        journal_dir: Some(journal_dir.to_path_buf()),
        ..ServerLimits::default()
    }
}

/// The structural opener, append seq 1: the span, 8 clusters of 30
/// hosts and the two metrics, with file ids the samples address.
fn opener() -> (String, Vec<Vec<usize>>) {
    let mut text = format!("span,0.0,{SPAN_END:?}\n");
    let mut hosts = Vec::new();
    let mut id = 1usize;
    for c in 0..CLUSTERS {
        let cluster = id;
        id += 1;
        text.push_str(&format!("container,{cluster},0,cluster,cl{c}\n"));
        let mut members = Vec::new();
        for h in 0..HOSTS_PER_CLUSTER {
            text.push_str(&format!("container,{id},{cluster},host,cl{c}-h{h}\n"));
            members.push(id);
            id += 1;
        }
        hosts.push(members);
    }
    text.push_str("metric,0,MFlop/s,power\nmetric,1,MFlop/s,power_used");
    (text, hosts)
}

/// Sample append `j` (0-based): one sample for every host of cluster
/// `j % 8`, at time `j / 8 + 1`, so each host's samples sit one second
/// apart and its integral over `[1, last + 1]` is their plain sum.
fn samples(j: usize, hosts: &[Vec<usize>], rng: &mut Rng, sums: &mut [f64]) -> String {
    let c = j % CLUSTERS;
    let t = j / CLUSTERS + 1;
    let mut text = String::new();
    for (h, &id) in hosts[c].iter().enumerate() {
        let v = rng.below(100) as f64;
        sums[c * HOSTS_PER_CLUSTER + h] += v;
        text.push_str(&format!("var,{t},{id},1,{v:?}\n"));
    }
    text.pop();
    text
}

fn append_line(seq: usize, text: &str) -> String {
    viva_server::Command::Append {
        session: SESSION.into(),
        seq: seq as u64,
        text: text.to_owned(),
    }
    .encode()
}

/// The producer connection, and in traced runs the in-process twin
/// server that replays every line through the traced path.
struct Producer {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    tally: Tally,
    twin: Option<Exec>,
}

impl Producer {
    fn call(&mut self, line: &str) -> String {
        self.writer
            .write_all(line.as_bytes())
            .expect("send request");
        self.writer.write_all(b"\n").expect("send request");
        let mut resp = String::new();
        self.reader.read_line(&mut resp).expect("read response");
        let resp = resp.trim_end().to_owned();
        self.tally
            .note(field(line, "cmd").unwrap_or("?"), kind(&resp).is_ok());
        resp
    }

    /// Replays `line` on the twin; returns the seconds the twin server
    /// spent decoding, executing and encoding it (not its mirror's).
    fn replay(&mut self, line: &str) -> f64 {
        match self.twin.as_mut() {
            None => 0.0,
            Some(twin) => {
                twin.call(line);
                twin.server_s
            }
        }
    }

    /// Sends `lines` with up to `window` requests in flight on the one
    /// connection (the server answers in order); returns each response
    /// with its arrival time. The twin replays them afterwards.
    fn pipeline(&mut self, lines: &[&str], window: usize) -> Vec<(String, Instant)> {
        let mut out = Vec::with_capacity(lines.len());
        let mut sent = 0;
        while out.len() < lines.len() {
            while sent < lines.len() && sent - out.len() < window {
                self.writer
                    .write_all(lines[sent].as_bytes())
                    .expect("send request");
                self.writer.write_all(b"\n").expect("send request");
                sent += 1;
            }
            let mut resp = String::new();
            self.reader.read_line(&mut resp).expect("read response");
            let at = Instant::now();
            let line = lines[out.len()];
            self.tally.note(
                field(line, "cmd").unwrap_or("?"),
                kind(resp.trim_end()).is_ok(),
            );
            out.push((resp.trim_end().to_owned(), at));
        }
        for line in lines {
            self.replay(line);
        }
        out
    }

    /// A request that the twin replays too.
    fn send(&mut self, line: &str) -> String {
        let resp = self.call(line);
        self.replay(line);
        resp
    }
}

/// Deltas the subscriber holds: `(seq, arrival)`, and lagging pushes.
struct Subscriber {
    handle: thread::JoinHandle<(Vec<(u64, Instant)>, u64)>,
    last_seq: Arc<AtomicU64>,
}

fn subscribe(addr: std::net::SocketAddr) -> Subscriber {
    let mut stream = TcpStream::connect(addr).expect("subscriber connects");
    stream.set_nodelay(true).expect("nodelay");
    let line = format!(r#"{{"cmd":"subscribe","session":"{SESSION}"}}"#);
    stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("send subscribe");
    let mut reader = BufReader::new(stream);
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("read subscribe answer");
    assert_eq!(kind(resp.trim_end()), Ok("subscribed"), "subscribe: {resp}");
    let last_seq = Arc::new(AtomicU64::new(0));
    let seen = Arc::clone(&last_seq);
    let handle = thread::spawn(move || {
        let mut deltas = Vec::new();
        let mut lagging = 0;
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            let at = Instant::now();
            if line.starts_with("{\"push\":\"delta\"") {
                let seq = field_num(&line, "seq").unwrap_or(0.0) as u64;
                deltas.push((seq, at));
                seen.store(seq, Ordering::Release);
            } else if line.starts_with("{\"push\":\"lagging\"") {
                lagging += 1;
            }
        }
        (deltas, lagging)
    });
    Subscriber { handle, last_seq }
}

#[derive(Default)]
struct Totals {
    setups: Vec<f64>,
    samples: Samples,
    delta: Vec<f64>,
    late: Vec<f64>,
    recover: Vec<f64>,
    /// Appends per second of each round's burst; a run reports their
    /// median, so one round hit by a scheduling stall does not move it.
    burst_rates: Vec<f64>,
    /// `(TCP round trip, twin in-process time)` of paced appends, s.
    split: Vec<(f64, f64)>,
}

pub fn run(args: &Args, work: &Path) -> Outcome {
    let journal_dir = work.join("journal");
    let twin_dir = work.join("twin");
    let mirror_dir = work.join("mirror");
    for d in [&journal_dir, &twin_dir, &mirror_dir] {
        std::fs::create_dir_all(d).expect("work directory");
    }
    let mut out = Outcome::default();
    let mut totals = Totals::default();
    let mut tally = Tally::default();
    let mut layers = Vec::new();
    let mut rng = Rng::new(args.seed);
    let started = Instant::now();
    let mut round = 0usize;
    while round == 0 || started.elapsed().as_secs_f64() < args.seconds as f64 {
        let twin = args.trace.then(|| {
            let mirror = Mirror::new(mirror_dir.clone());
            Exec::new(Arc::new(Server::new(limits(&twin_dir))), Some(mirror))
        });
        let (t, twin) = round_trip(&journal_dir, twin, &mut rng, &mut totals, &mut out);
        tally.merge(t);
        if let Some(mut twin) = twin {
            if let Some(mut m) = twin.mirror.take() {
                m.recover(SESSION);
                layers.push(m);
            }
        }
        for d in [&journal_dir, &twin_dir, &mirror_dir] {
            clear_dir(d);
        }
        round += 1;
    }
    let loop_s = started.elapsed().as_secs_f64();

    let s = &totals.samples;
    let appends_per_s = median(&totals.burst_rates);
    out.end_to_end = s.end_to_end(&totals.setups, appends_per_s);
    out.detail = s.tails();
    out.detail.extend([
        metric("append_ms", median(&s.ops), "ms"),
        metric("append_p95_ms", percentile(&s.ops, 95.0), "ms"),
        metric("delta_ms", median(&totals.delta), "ms"),
        metric(
            "events_per_s",
            appends_per_s * HOSTS_PER_CLUSTER as f64,
            "1/s",
        ),
        metric("recover_ms", median(&totals.recover), "ms"),
    ]);
    out.notes.push(format!(
        "{round} rounds in {loop_s:.1} s; per round {PACED} paced appends at {RATE}/s, {} analyst actions, {BURST} burst appends, {RECOVERIES} recoveries; {} hosts, {HOSTS_PER_CLUSTER} samples per append",
        PACED / ACTION_EVERY,
        CLUSTERS * HOSTS_PER_CLUSTER
    ));
    out.notes.push(format!(
        "paced generator late by p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms over {} appends",
        median(&totals.late),
        percentile(&totals.late, 99.0),
        percentile(&totals.late, 100.0),
        totals.late.len()
    ));
    out.notes.push(format!(
        "journal in {}, journal_sync_every {}",
        journal_dir.display(),
        limits(&journal_dir).journal_sync_every
    ));
    out.tally = tally;
    if let Some(mut first) = (!layers.is_empty()).then(|| layers.remove(0)) {
        for m in layers {
            first.absorb(m);
        }
        let mut l = first.finish();
        // TCP share: the loopback round trip minus the in-process time
        // of the same append on the twin.
        let rtt: Vec<f64> = totals.split.iter().map(|p| p.0).collect();
        let inproc: Vec<f64> = totals.split.iter().map(|p| p.1).collect();
        l.set("server.tcp_ms", median(&rtt) - median(&inproc));
        out.layers = l.report();
    }
    out
}

fn clear_dir(d: &Path) {
    if let Ok(entries) = std::fs::read_dir(d) {
        for e in entries.flatten() {
            let _ = std::fs::remove_file(e.path());
        }
    }
}

/// A started server with its producer and subscriber connections.
struct Live {
    shards: Vec<thread::JoinHandle<()>>,
    p: Producer,
    sub: Subscriber,
}

/// Set-up: a fresh server recovers its (empty) journal directory,
/// serves loopback TCP, takes the producer's opener and a subscriber.
fn start(journal_dir: &Path, twin: Option<Exec>, out: &mut Outcome) -> Live {
    let server = Arc::new(Server::new(limits(journal_dir)));
    let recovered = server.recover_journals();
    assert!(recovered.is_empty(), "the journal directory starts empty");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local address");
    // One shard: both connections land on it, a fixed assignment.
    let shards = serve_tcp(listener, 1, Arc::clone(&server));
    let stream = TcpStream::connect(addr).expect("producer connects");
    stream.set_nodelay(true).expect("nodelay");
    let mut p = Producer {
        writer: stream.try_clone().expect("clone stream"),
        reader: BufReader::new(stream),
        tally: Tally::default(),
        twin,
    };
    let answer = p.send(&append_line(1, &opener().0));
    out.check(kind(&answer) == Ok("appended"), || {
        format!("opener: {answer}")
    });
    let sub = subscribe(addr);
    Live { shards, p, sub }
}

/// Graceful shutdown: drain, join the shard, collect the subscriber's
/// deltas and lagging count.
fn stop(mut live: Live, out: &mut Outcome) -> (Producer, Vec<(u64, Instant)>, u64) {
    let answer = live.p.call(r#"{"cmd":"shutdown"}"#);
    out.check(kind(&answer).is_ok(), || format!("shutdown: {answer}"));
    for h in live.shards {
        h.join().expect("shard thread ends cleanly");
    }
    let (deltas, lagging) = live
        .sub
        .handle
        .join()
        .expect("subscriber thread ends cleanly");
    (live.p, deltas, lagging)
}

/// One round: set up a server and a stream (three times; the first two
/// are torn down again, so set-up time is a median), run the paced
/// segment, the burst and the checks, shut down, recover.
fn round_trip(
    journal_dir: &Path,
    twin: Option<Exec>,
    rng: &mut Rng,
    totals: &mut Totals,
    out: &mut Outcome,
) -> (Tally, Option<Exec>) {
    let mut tally = Tally::default();
    let set_ups = if twin.is_some() { 1 } else { SET_UPS };
    for _ in 1..set_ups {
        let t0 = Instant::now();
        let live = start(journal_dir, None, out);
        totals.setups.push(t0.elapsed().as_secs_f64());
        let (p, _, _) = stop(live, out);
        tally.merge(p.tally);
        clear_dir(journal_dir);
    }
    let t0 = Instant::now();
    let Live { shards, mut p, sub } = start(journal_dir, twin, out);
    totals.setups.push(t0.elapsed().as_secs_f64());

    let (open, hosts) = opener();
    let mut sums = vec![0.0; CLUSTERS * HOSTS_PER_CLUSTER];
    let lines: Vec<String> = (0..APPENDS)
        .map(|j| append_line(j + 2, &samples(j, &hosts, rng, &mut sums)))
        .collect();
    let render = render_line(SESSION, 800, 600);
    let mut due_at = Vec::with_capacity(PACED);
    let start = Instant::now() + Duration::from_millis(2);
    for (j, line) in lines.iter().take(PACED).enumerate() {
        let due = start + Duration::from_secs_f64(j as f64 / RATE);
        let now = Instant::now();
        if now < due {
            thread::sleep(due - now);
        }
        let sent = Instant::now();
        let answer = p.call(line);
        let done = Instant::now();
        let inproc = p.replay(line);
        totals.split.push(((done - sent).as_secs_f64(), inproc));
        out.check(field_num(&answer, "seq") == Some((j + 2) as f64), || {
            format!("append {}: {answer}", j + 2)
        });
        totals.samples.ops.push(ms(done - due));
        totals.late.push(ms(sent.saturating_duration_since(due)));
        due_at.push(due);
        if (j + 1) % ACTION_EVERY == 0 {
            // 0.4 interval after this append: a render alone, or a
            // slice change or a collapse/expand sent together with its
            // render. Timed from when it was due, like the appends; it
            // usually ends before the next append is due.
            let k = (j + 1) / ACTION_EVERY - 1;
            let now_t = j / CLUSTERS + 1;
            let cluster = format!("cl{}", (k / 4) % CLUSTERS);
            let cmd = match k % 4 {
                0 | 2 => None,
                1 => Some(slice_line(
                    SESSION,
                    now_t.saturating_sub(20) as f64,
                    (now_t + 1) as f64,
                )),
                _ if k % 8 == 3 => Some(group_line("collapse", SESSION, &cluster)),
                _ => Some(group_line("expand", SESSION, &cluster)),
            };
            let due = start + Duration::from_secs_f64((j as f64 + 0.4) / RATE);
            let now = Instant::now();
            if now < due {
                thread::sleep(due - now);
            }
            let mut batch: Vec<&str> = cmd.iter().map(String::as_str).collect();
            batch.push(&render);
            let got = p.pipeline(&batch, 2);
            let (frame, t_frame) = got.last().expect("render answered");
            let total = ms(t_frame.saturating_duration_since(due));
            totals.samples.frame_bytes.push(frame.len() as f64);
            out.check(
                got.iter().all(|(r, _)| kind(r).is_ok()) && kind(frame) == Ok("frame"),
                || format!("{:?}: {:.200}", cmd, got[0].0),
            );
            totals.samples.frames.push(total);
            match &cmd {
                None => {}
                Some(c) if c.contains("set_time_slice") => totals.samples.slice.push(total),
                Some(_) => totals.samples.regroup.push(total),
            }
        }
    }
    let burst = Instant::now();
    let burst_lines: Vec<&str> = lines[PACED..].iter().map(String::as_str).collect();
    let answers = p.pipeline(&burst_lines, BURST_WINDOW);
    totals
        .burst_rates
        .push(BURST as f64 / burst.elapsed().as_secs_f64());
    for (j, (answer, _)) in answers.iter().enumerate() {
        let seq = PACED + j + 2;
        out.check(field_num(answer, "seq") == Some(seq as f64), || {
            format!("append {seq}: {answer}")
        });
    }
    let last = (APPENDS + 1) as u64;

    // Checks: the subscriber caught up, each host's integral is the
    // sum of its samples, and recovery renders what an uninterrupted
    // server renders.
    let wait = Instant::now();
    while sub.last_seq.load(Ordering::Acquire) < last && wait.elapsed() < Duration::from_secs(5) {
        thread::sleep(Duration::from_millis(1));
    }
    let t_last = APPENDS / CLUSTERS + 1;
    let answer = p.send(&slice_line(SESSION, 1.0, t_last as f64));
    out.check(field_num(&answer, "end") == Some(t_last as f64), || {
        format!("slice: {answer}")
    });
    for (c, members) in hosts.iter().enumerate() {
        for h in 0..members.len() {
            let name = format!("cl{c}-h{h}");
            let answer = p.send(&aggregate_line(SESSION, "power_used", &name));
            let want = sums[c * HOSTS_PER_CLUSTER + h];
            out.check(checks::aggregate_matches(&answer, want), || {
                format!(
                    "host {name}: aggregate {:?}, samples sent sum to {want}",
                    field_num(&answer, "integral")
                )
            });
        }
    }
    let (mut p, deltas, lagging) = stop(Live { shards, p, sub }, out);
    let last_delta = deltas.last().map_or(0, |d| d.0);
    out.check(
        checks::subscriber_caught_up(last_delta, last, lagging),
        || {
            format!(
                "subscriber: last delta {last_delta}, last acked {last}, {lagging} lagging pushes"
            )
        },
    );
    for (seq, at) in deltas {
        let j = seq as usize - 2;
        if let Some(due) = due_at.get(j) {
            totals.delta.push(ms(at.saturating_duration_since(*due)));
        }
    }

    // The reference: the same appends, uninterrupted, in process. The
    // journal holds appends only; the analyst's collapse/expand moved
    // layout positions of the live session, and that view state is not
    // journaled, so the live session itself is not the reference.
    let reference = Server::new(ServerLimits::default());
    for line in std::iter::once(append_line(1, &open)).chain(lines) {
        let answer = reference.handle_line(&line).expect("append answers");
        out.check(kind(&answer) == Ok("appended"), || {
            format!("reference append: {answer}")
        });
    }
    let want = reference.handle_line(&render).expect("render answers");
    let want_svg = field(&want, "svg").unwrap_or("").to_owned();
    for _ in 0..RECOVERIES {
        let t = Instant::now();
        let fresh = Server::new(limits(journal_dir));
        let names = fresh.recover_journals();
        let frame = fresh.handle_line(&render).expect("render answers");
        totals.recover.push(ms(t.elapsed()));
        p.tally.note("render", kind(&frame).is_ok());
        out.check(names == [SESSION], || format!("recovered {names:?}"));
        out.check(checks::same_svg(&frame, &want_svg), || {
            "the recovered session does not render byte-identical to an uninterrupted one"
                .to_owned()
        });
    }
    tally.merge(p.tally);
    (tally, p.twin)
}
