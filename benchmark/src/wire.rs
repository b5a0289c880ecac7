//! The wire side: `dbring-serve` as a child process on an ephemeral port, driven over
//! loopback TCP with the line protocol, started with no flags (the default server).

use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::oracle::{first_mismatch, Table};
use crate::spec::{self, Schema};
use crate::stats;
use crate::trace::{Clock, Tracer, NO_PARENT};
use crate::workload::{
    metric, proc_status, Data, LoopResult, Metric, Sample, Workload, WriteUnit, TENANT,
};

/// A request not answered in this long is a failed operation.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// Every `PROBE_EVERY`-th operation of the read connection is a freshness probe.
const PROBE_EVERY: u64 = 8;

/// The server child. Dropping it sends `SHUTDOWN`, then kills and reaps the process,
/// so a run that panics or bails out early never leaks a server.
pub struct Server {
    child: Child,
    port: u16,
    /// Kept open so the server never writes to a closed pipe.
    stdout: BufReader<ChildStdout>,
}

impl Server {
    pub fn spawn(bin: &Path) -> io::Result<Server> {
        let mut child = Command::new(bin)
            .env_remove("DBRING_INGEST_THREADS")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        // Constructed before the handshake so that a failed handshake reaps the child.
        let mut server = Server {
            child,
            port: 0,
            stdout,
        };
        // The handshake: the server prints `LISTENING <port>` once it accepts.
        let mut line = String::new();
        server.stdout.read_line(&mut line)?;
        server.port = line
            .strip_prefix("LISTENING ")
            .and_then(|p| p.trim().parse().ok())
            .ok_or_else(|| io::Error::other(format!("no LISTENING handshake, got {line:?}")))?;
        Ok(server)
    }

    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    pub fn connect(&self) -> io::Result<Conn> {
        let stream = TcpStream::connect(("127.0.0.1", self.port))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            out: stream,
            reply: String::new(),
        })
    }

    /// Orderly stop: `SHUTDOWN`, then wait for the process to end.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.connect()?.request("SHUTDOWN")?;
        let deadline = Instant::now() + REPLY_TIMEOUT;
        while Instant::now() < deadline {
            if self.child.try_wait()?.is_some() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err(io::Error::other("server did not exit after SHUTDOWN"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(Some(_))) {
            return;
        }
        if let Ok(mut conn) = self.connect() {
            let _ = conn.request("SHUTDOWN");
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One client connection: `TCP_NODELAY`, every request one `write_all`, replies read
/// line by line with a timeout.
pub struct Conn {
    reader: BufReader<TcpStream>,
    out: TcpStream,
    reply: String,
}

impl Conn {
    fn send(&mut self, line: &str) -> io::Result<()> {
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.out.write_all(framed.as_bytes())
    }

    fn read_line(&mut self) -> io::Result<&str> {
        self.reply.clear();
        if self.reader.read_line(&mut self.reply)? == 0 {
            return Err(io::Error::other("server closed the connection"));
        }
        Ok(self.reply.trim_end())
    }

    /// Sends one line and waits for its one-line reply (the closed loop).
    pub fn request(&mut self, line: &str) -> io::Result<&str> {
        self.send(line)?;
        self.read_line()
    }

    fn expect_ok(&mut self, line: &str) -> Result<String, String> {
        match self.request(line) {
            Ok(reply) if reply.starts_with("OK") => Ok(reply.to_string()),
            Ok(reply) => Err(format!("{line:?} -> {reply:?}")),
            Err(e) => Err(format!("{line:?}: {e}")),
        }
    }

    /// Sends all `lines` back to back while a second thread drains the replies;
    /// returns how many replies were not `OK`.
    pub fn pipeline(&mut self, lines: &[String]) -> io::Result<u64> {
        let mut payload = String::new();
        for line in lines {
            payload.push_str(line);
            payload.push('\n');
        }
        let (out, reader, reply) = (&mut self.out, &mut self.reader, &mut self.reply);
        std::thread::scope(|scope| {
            let drain = scope.spawn(move || -> io::Result<u64> {
                let mut bad = 0;
                for _ in 0..lines.len() {
                    reply.clear();
                    if reader.read_line(reply)? == 0 {
                        return Err(io::Error::other("server closed the connection"));
                    }
                    bad += !reply.starts_with("OK") as u64;
                }
                Ok(bad)
            });
            let sent = out.write_all(payload.as_bytes());
            if sent.is_err() {
                // Unblock the drain thread instead of letting it wait out its timeout.
                let _ = out.shutdown(Shutdown::Both);
            }
            let drained = drain.join().expect("drain thread panicked");
            sent.and(drained)
        })
    }

    /// `GET`: the value of one group.
    fn get(&mut self, line: &str) -> Option<i64> {
        self.request(line)
            .ok()?
            .strip_prefix("VALUE ")?
            .parse()
            .ok()
    }

    /// `TABLE`: the rows plus the `ingested` and `epoch` of the snapshot served.
    pub fn table(&mut self, view: &str) -> Result<(Table, u64, u64), String> {
        self.send(&format!("TABLE {TENANT} {view}"))
            .map_err(|e| e.to_string())?;
        let mut table = Table::new();
        loop {
            let line = self.read_line().map_err(|e| e.to_string())?;
            if let Some(row) = line.strip_prefix("ROW ") {
                let mut numbers: Vec<i64> = row
                    .split_whitespace()
                    .map(|t| t.parse().map_err(|_| format!("non-integer in {line:?}")))
                    .collect::<Result<_, _>>()?;
                let value = numbers.pop().ok_or("empty ROW")?;
                if value != 0 {
                    table.insert(numbers, value);
                }
            } else if let Some(end) = line.strip_prefix("END ") {
                let field = |name: &str| {
                    end.split_whitespace()
                        .find_map(|kv| {
                            kv.strip_prefix(name)?
                                .strip_prefix('=')?
                                .parse::<u64>()
                                .ok()
                        })
                        .ok_or_else(|| format!("no {name} in {line:?}"))
                };
                return Ok((table, field("ingested")?, field("epoch")?));
            } else {
                return Err(format!("TABLE {view} -> {line:?}"));
            }
        }
    }

    /// One `key=value` field of the `STATS` reply.
    fn stat(&mut self, name: &str) -> Result<f64, String> {
        let reply = self.expect_ok(&format!("STATS {TENANT}"))?;
        reply
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix(name)?.strip_prefix('=')?.parse().ok())
            .ok_or_else(|| format!("no {name} in {reply:?}"))
    }
}

/// A served tenant, loaded, with the counters the oracle needs.
pub struct Wired {
    pub server: Server,
    /// How many of `data.initial_ops` were loaded.
    pub loaded: usize,
    pub applied: u64,
    pub markers: u64,
    pub setup_s: f64,
    pub load_upd_per_s: f64,
    /// The server's `VmHWM` at the end of set-up.
    pub rss_mb: f64,
}

/// Spawn, declare, create the views (synchronously), load the first `load` initial
/// updates *pipelined*, and `FLUSH`.
pub fn setup(w: &Workload, data: &Data, bin: &Path, load: usize) -> Result<Wired, String> {
    let started = Instant::now();
    let server = Server::spawn(bin).map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    let mut conn = server.connect().map_err(|e| e.to_string())?;
    for (name, cols) in w.spec.relations {
        conn.expect_ok(&format!("DECLARE {TENANT} {name} {}", cols.join(" ")))?;
    }
    for (name, sql) in w.spec.views {
        conn.expect_ok(&format!("VIEW {TENANT} {name} {sql}"))?;
    }
    let lines: Vec<String> = data.initial_ops[..load]
        .iter()
        .map(|op| crate::gen::to_line(op, w.spec.relations, TENANT))
        .collect();
    let load_started = Instant::now();
    let bad = conn
        .pipeline(&lines)
        .map_err(|e| format!("pipelined load: {e}"))?;
    if bad > 0 {
        return Err(format!("{bad} of {load} pipelined updates were refused"));
    }
    conn.expect_ok(&format!("FLUSH {TENANT}"))?;
    let load_s = load_started.elapsed().as_secs_f64();
    let rss_mb = proc_status(&server.pid(), "VmHWM").unwrap_or(0.0);
    Ok(Wired {
        server,
        loaded: load,
        applied: 0,
        markers: 0,
        setup_s: started.elapsed().as_secs_f64(),
        load_upd_per_s: load as f64 / load_s,
        rss_mb,
    })
}

/// What one connection's loop brings back: `(start, end)` per round trip.
#[derive(Default)]
struct ConnResult {
    trips: Vec<(u64, u64)>,
    visible: Vec<Sample>,
    attempted: u64,
    failed: u64,
    done: u64,
}

/// The two synchronous connections, for `budget_ns`: W sends the `INSERT`/`DELETE`
/// stream, R sends `GET`s and (dashboard only) every `PROBE_EVERY`-th operation a
/// freshness probe: `INSERT` a marker row, then `GET` until its count shows it.
pub fn run_loop(
    w: &Workload,
    sys: &mut Wired,
    data: &Data,
    clock: Clock,
    budget_ns: u64,
    tracer: Option<&mut Tracer>,
) -> Result<LoopResult, String> {
    let mut conn_w = sys.server.connect().map_err(|e| e.to_string())?;
    let mut conn_r = sys.server.connect().map_err(|e| e.to_string())?;
    let len = data.stream_ops.len();
    let first = (sys.applied % len as u64) as usize;
    let gets: Vec<String> = data
        .key_ints
        .iter()
        .map(|key| {
            let mut line = format!("GET {TENANT} {}", w.spec.read_view);
            for k in key {
                line.push_str(&format!(" {k}"));
            }
            line
        })
        .collect();
    let probes = w.spec.schema == Schema::Dash;
    let marker_insert = crate::gen::to_line(&spec::marker_op(), w.spec.relations, TENANT);
    let marker_get = format!("GET {TENANT} {} {}", spec::MARKER_VIEW, spec::MARKER_CUST);
    let markers_before = sys.markers;
    let deadline = clock.now() + budget_ns;

    let (wr, rd) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut out = ConnResult::default();
            let mut cur = first;
            loop {
                let line = crate::gen::to_line(&data.stream_ops[cur], w.spec.relations, TENANT);
                let t0 = clock.now();
                let ok = matches!(conn_w.request(&line), Ok("OK queued"));
                let t1 = clock.now();
                out.attempted += 1;
                if !ok {
                    // The connection's state is unknown after an error: stop here.
                    out.failed += 1;
                    break;
                }
                out.trips.push((t0, t1));
                out.done += 1;
                cur = (cur + 1) % len;
                if t1 >= deadline {
                    break;
                }
            }
            out
        });
        let reader = scope.spawn(|| {
            let mut out = ConnResult::default();
            let mut markers = markers_before;
            let mut ops = 0u64;
            let mut k = 0usize;
            loop {
                ops += 1;
                let now = if probes && ops.is_multiple_of(PROBE_EVERY) {
                    let t0 = clock.now();
                    out.attempted += 1;
                    if !matches!(conn_r.request(&marker_insert), Ok("OK queued")) {
                        out.failed += 1;
                        break;
                    }
                    markers += 1;
                    out.done += 1;
                    loop {
                        out.attempted += 1;
                        let seen = conn_r.get(&marker_get);
                        let now = clock.now();
                        if seen == Some(markers as i64) {
                            out.visible.push(Sample {
                                at: t0,
                                ns: now - t0,
                            });
                            break now;
                        }
                        if seen.is_none() || now - t0 > REPLY_TIMEOUT.as_nanos() as u64 {
                            out.failed += 1;
                            return out;
                        }
                    }
                } else {
                    let t0 = clock.now();
                    let value = conn_r.get(&gets[k]);
                    let t1 = clock.now();
                    out.attempted += 1;
                    if value.is_none() {
                        out.failed += 1;
                        break;
                    }
                    out.trips.push((t0, t1));
                    k = (k + 1) % gets.len();
                    t1
                };
                if now >= deadline {
                    break;
                }
            }
            out
        });
        (
            writer.join().expect("write connection thread panicked"),
            reader.join().expect("read connection thread panicked"),
        )
    });

    sys.applied += wr.done;
    sys.markers += rd.done;
    if let Some(tracer) = tracer {
        for (i, &(t0, t1)) in wr.trips.iter().enumerate() {
            tracer.record("server.write_rtt", t0, t1, NO_PARENT, i as u64);
        }
        for (i, &(t0, t1)) in rd.trips.iter().enumerate() {
            tracer.record("server.read_rtt", t0, t1, NO_PARENT, i as u64);
        }
    }
    let write = |&(t0, t1): &(u64, u64)| WriteUnit {
        start: t0,
        call: t0,
        end: t1,
    };
    let read = |&(t0, t1): &(u64, u64)| Sample {
        at: t0,
        ns: t1 - t0,
    };
    Ok(LoopResult {
        updates: wr.done,
        unit: 1,
        writes: wr.trips.iter().map(write).collect(),
        read_group: 1,
        reads: rd.trips.iter().map(read).collect(),
        visible: rd.visible,
        attempted: wr.attempted + rd.attempted,
        failed: wr.failed + rd.failed,
    })
}

/// `FLUSH`, then `TABLE` of every view against the oracle. Returns the newest
/// `(ingested, epoch)` any view's snapshot carries.
pub fn check(w: &Workload, sys: &Wired, data: &Data) -> Result<(u64, u64), String> {
    let mut conn = sys.server.connect().map_err(|e| e.to_string())?;
    conn.expect_ok(&format!("FLUSH {TENANT}"))?;
    let expected = data
        .oracle(w, &data.initial_ops[..sys.loaded], sys.applied, sys.markers)
        .tables();
    let mut newest = (0, 0);
    for (name, _) in w.spec.views {
        let (table, ingested, epoch) = conn.table(name)?;
        newest = newest.max((ingested, epoch));
        if let Some(diff) = first_mismatch(name, &table, &expected[name]) {
            return Err(diff);
        }
    }
    Ok(newest)
}

/// Server-side figures read from outside: `PING` round trips, `STATS`, `/proc`.
pub fn probe(sys: &Wired, clock: Clock, budget_ns: u64) -> Result<Vec<Metric>, String> {
    let mut conn = sys.server.connect().map_err(|e| e.to_string())?;
    let mut pings = Vec::new();
    let deadline = clock.now() + budget_ns;
    while pings.len() < 8 || clock.now() < deadline {
        let t0 = clock.now();
        if !matches!(conn.request("PING"), Ok("OK pong")) {
            return Err("PING failed".to_string());
        }
        pings.push(clock.now() - t0);
    }
    let pid = sys.server.pid();
    Ok(vec![
        metric(
            "server.ping_rtt_us",
            stats::p50_p99(&mut pings).0 as f64 / 1e3,
            "us",
        ),
        metric(
            "server.threads",
            proc_status(&pid, "Threads").unwrap_or(0.0),
            "count",
        ),
        metric(
            "server.rss_mb",
            proc_status(&pid, "VmRSS").unwrap_or(0.0),
            "MiB",
        ),
    ])
}

/// Cumulative publication time the tenant's ring reports through `STATS`.
pub fn publish_ns(sys: &Wired) -> Result<f64, String> {
    sys.server
        .connect()
        .map_err(|e| e.to_string())?
        .stat("publish_ns")
}
