//! End-to-end tests for the serving front end: a real `Server` on an ephemeral TCP
//! port, scripted clients, snapshot-read semantics, tenant isolation, pipelining,
//! line limits, and shutdown.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use dbring::StorageBackend;
use dbring_server::{Server, ServerConfig, MAX_LINE_BYTES};

/// A reply not read in this long fails the test instead of hanging it.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

/// A tiny line-protocol client over a real TCP connection: `TCP_NODELAY`, one write
/// per request.
struct Client {
    reader: BufReader<TcpStream>,
    out: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .expect("read timeout");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            out: stream,
        }
    }

    fn write(&mut self, line: &str) {
        self.out
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
    }

    fn read_reply(&mut self) -> String {
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("reply");
        reply.trim_end().to_string()
    }

    /// Sends one request and reads a single reply line.
    fn send(&mut self, line: &str) -> String {
        self.write(line);
        self.read_reply()
    }

    /// Sends one request and reads reply lines until the `END` terminator.
    fn send_multi(&mut self, line: &str) -> Vec<String> {
        self.write(line);
        let mut lines = Vec::new();
        loop {
            let reply = self.read_reply();
            let done = reply.starts_with("END") || reply.starts_with("ERR");
            lines.push(reply);
            if done {
                return lines;
            }
        }
    }

    /// Writes `payload` in one `write_all` from a second thread while this one reads
    /// `replies` reply lines.
    fn pipeline(&mut self, payload: &[u8], replies: usize) -> Vec<String> {
        let mut out = self.out.try_clone().expect("clone stream");
        std::thread::scope(|scope| {
            scope.spawn(move || out.write_all(payload).expect("pipelined send"));
            (0..replies).map(|_| self.read_reply()).collect()
        })
    }

    /// Whether the server has closed the connection: end of stream, or a reset because
    /// the server closed with request bytes still unread.
    fn closed(&mut self) -> bool {
        let mut rest = String::new();
        match self.reader.read_line(&mut rest) {
            Ok(0) => true,
            Err(e) => matches!(
                e.kind(),
                io::ErrorKind::ConnectionReset | io::ErrorKind::ConnectionAborted
            ),
            Ok(_) => false,
        }
    }
}

fn start(config: ServerConfig) -> (SocketAddr, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(("127.0.0.1", 0), config).expect("bind");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

fn shutdown(addr: SocketAddr, handle: std::thread::JoinHandle<std::io::Result<()>>) {
    let mut client = Client::connect(addr);
    assert_eq!(client.send("SHUTDOWN"), "OK shutting down");
    handle.join().expect("server thread").expect("server run");
}

#[test]
fn declare_view_ingest_read_roundtrip() {
    let (addr, handle) = start(ServerConfig::default());
    let mut c = Client::connect(addr);

    assert_eq!(c.send("PING"), "OK pong");
    assert_eq!(
        c.send("DECLARE t1 Sales cust price qty"),
        "OK declared Sales"
    );
    assert_eq!(
        c.send("VIEW t1 revenue SELECT cust, SUM(price * qty) AS revenue FROM Sales GROUP BY cust"),
        "OK created revenue as view#0"
    );
    assert_eq!(c.send("INSERT t1 Sales 1 10 2"), "OK queued");
    assert_eq!(c.send("INSERT t1 Sales 2 3 3"), "OK queued");
    assert_eq!(c.send("FLUSH t1"), "OK ingested=2");
    assert_eq!(c.send("GET t1 revenue 1"), "VALUE 20");
    assert_eq!(c.send("GET t1 revenue 2"), "VALUE 9");
    // Absent group keys read as the ring zero, not an error.
    assert_eq!(c.send("GET t1 revenue 42"), "VALUE 0");

    let table = c.send_multi("TABLE t1 revenue");
    assert_eq!(table.len(), 3);
    assert_eq!(table[0], "ROW 1 20");
    assert_eq!(table[1], "ROW 2 9");
    assert!(
        table[2].starts_with("END rows=2 ingested=2 epoch="),
        "unexpected terminator: {}",
        table[2]
    );

    drop(c);
    shutdown(addr, handle);
}

#[test]
fn tenants_are_isolated_rings() {
    let (addr, handle) = start(ServerConfig::default());
    let mut c = Client::connect(addr);

    for tenant in ["alpha", "beta"] {
        assert_eq!(c.send(&format!("DECLARE {tenant} R x")), "OK declared R");
        assert_eq!(
            c.send(&format!(
                "VIEW {tenant} total SELECT SUM(x) AS total FROM R"
            )),
            "OK created total as view#0"
        );
    }
    assert_eq!(c.send("INSERT alpha R 5"), "OK queued");
    assert_eq!(c.send("FLUSH alpha"), "OK ingested=1");
    // beta's ring is untouched by alpha's ingest.
    assert_eq!(c.send("GET alpha total"), "VALUE 5");
    assert_eq!(c.send("GET beta total"), "VALUE 0");
    assert_eq!(c.send("FLUSH beta"), "OK ingested=0");

    drop(c);
    shutdown(addr, handle);
}

#[test]
fn reads_come_from_published_snapshots() {
    // batch_max 1000 ≫ the test's updates: nothing commits until the queue drains
    // or an explicit FLUSH, so this exercises the quiescent-point publication.
    let config = ServerConfig {
        backend: StorageBackend::Ordered,
        batch_max: 1000,
    };
    let (addr, handle) = start(config);
    let mut c = Client::connect(addr);

    c.send("DECLARE t R k v");
    c.send("VIEW t by_k SELECT k, SUM(v) AS s FROM R GROUP BY k");
    for i in 0..50 {
        assert_eq!(c.send(&format!("INSERT t R {} 1", i % 5)), "OK queued");
    }
    assert_eq!(c.send("FLUSH t"), "OK ingested=50");
    for k in 0..5 {
        assert_eq!(c.send(&format!("GET t by_k {k}")), "VALUE 10");
    }
    // SCAN narrows to the keys matching the given prefix.
    let scan = c.send_multi("SCAN t by_k 3");
    assert_eq!(scan.len(), 2);
    assert_eq!(scan[0], "ROW 3 10");
    assert!(
        scan[1].starts_with("END rows=1 ingested=50 epoch="),
        "unexpected terminator: {}",
        scan[1]
    );

    drop(c);
    shutdown(addr, handle);
}

#[test]
fn errors_are_per_request_and_recoverable() {
    let (addr, handle) = start(ServerConfig::default());
    let mut c = Client::connect(addr);

    assert_eq!(c.send("GET ghost v 1"), "ERR unknown tenant ghost");
    assert_eq!(
        c.send("DECLARE t Sales cust price qty"),
        "OK declared Sales"
    );
    assert_eq!(
        c.send("VIEW t rev SELECT cust, SUM(price) AS r FROM Sales GROUP BY cust"),
        "OK created rev as view#0"
    );
    // The catalog is frozen once the ring is built.
    assert_eq!(
        c.send("DECLARE t Late x"),
        "ERR relations must be declared before the first view or update"
    );
    assert_eq!(c.send("INSERT t Nope 1"), "ERR unknown relation Nope");
    assert_eq!(
        c.send("INSERT t Sales 1 2"),
        "ERR Sales expects 3 values, got 2"
    );
    assert_eq!(c.send("GET t nope 1"), "ERR no live view nope on this ring");
    assert_eq!(c.send("BOGUS"), "ERR unknown command BOGUS");
    // The tenant still works after every error above.
    assert_eq!(c.send("INSERT t Sales 1 2 3"), "OK queued");
    assert_eq!(c.send("FLUSH t"), "OK ingested=1");
    assert_eq!(c.send("GET t rev 1"), "VALUE 2");

    drop(c);
    shutdown(addr, handle);
}

/// A `GET` must name exactly one value per key column and a `SCAN` at most that many:
/// any other count used to miss every group and answer like an empty table.
#[test]
fn a_wrong_key_count_is_an_error_not_a_silent_miss() {
    let (addr, handle) = start(ServerConfig::default());
    let mut c = Client::connect(addr);

    c.send("DECLARE t Sales cust price");
    c.send("VIEW t total SELECT SUM(price) AS total FROM Sales");
    c.send("VIEW t rev SELECT cust, SUM(price) AS r FROM Sales GROUP BY cust");
    assert_eq!(c.send("INSERT t Sales 1 500"), "OK queued");
    assert_eq!(c.send("FLUSH t"), "OK ingested=1");

    assert_eq!(c.send("GET t total"), "VALUE 500");
    assert_eq!(
        c.send("GET t total 7"),
        "ERR total has 0 key columns, got 1"
    );
    assert_eq!(c.send("GET t rev 1"), "VALUE 500");
    assert_eq!(c.send("GET t rev"), "ERR rev has 1 key columns, got 0");
    assert_eq!(c.send("GET t rev 1 2"), "ERR rev has 1 key columns, got 2");
    assert_eq!(c.send("SCAN t rev 1 2"), "ERR rev has 1 key columns, got 2");
    assert_eq!(
        c.send("SCAN t total 1"),
        "ERR total has 0 key columns, got 1"
    );
    // A shorter prefix is a scan, not an error.
    let scan = c.send_multi("SCAN t rev");
    assert_eq!(scan[0], "ROW 1 500");
    assert!(scan[1].starts_with("END rows=1 "), "{}", scan[1]);
    let scan = c.send_multi("SCAN t rev 1");
    assert_eq!(scan[0], "ROW 1 500");

    drop(c);
    shutdown(addr, handle);
}

/// A view no client has read yet defers its commits; its first `GET` builds them,
/// and from then on its commits publish at once.
#[test]
fn an_unread_view_defers_until_its_first_read() {
    let (addr, handle) = start(ServerConfig::default());
    let mut c = Client::connect(addr);

    c.send("DECLARE t R k v");
    c.send("VIEW t hot SELECT k, SUM(v) AS s FROM R GROUP BY k");
    c.send("VIEW t cold SELECT k, SUM(1) AS n FROM R GROUP BY k");
    assert_eq!(c.send("GET t hot 1"), "VALUE 0");
    for round in 1..=3 {
        assert_eq!(c.send(&format!("INSERT t R 1 {round}")), "OK queued");
        assert_eq!(c.send("FLUSH t"), format!("OK ingested={round}"));
    }
    let stats = c.send("STATS t");
    assert_eq!(stat(&stats, "deferred"), 3, "{stats}");
    assert_eq!(stat(&stats, "pulled"), 0, "{stats}");
    assert_eq!(c.send("GET t hot 1"), "VALUE 6");
    assert_eq!(c.send("GET t cold 1"), "VALUE 3");
    let table = c.send_multi("TABLE t cold");
    assert!(
        table[1].starts_with("END rows=1 ingested=3 "),
        "{}",
        table[1]
    );
    assert_eq!(stat(&c.send("STATS t"), "pulled"), 1);

    assert_eq!(c.send("INSERT t R 2 1"), "OK queued");
    assert_eq!(c.send("FLUSH t"), "OK ingested=4");
    assert_eq!(c.send("GET t cold 2"), "VALUE 1");
    let stats = c.send("STATS t");
    assert_eq!(stat(&stats, "deferred"), 3, "{stats}");
    assert_eq!(stat(&stats, "pulled"), 1, "{stats}");

    drop(c);
    shutdown(addr, handle);
}

#[test]
fn drop_view_releases_and_later_reads_error() {
    let (addr, handle) = start(ServerConfig::default());
    let mut c = Client::connect(addr);

    c.send("DECLARE t R x");
    c.send("VIEW t total SELECT SUM(x) AS total FROM R");
    c.send("INSERT t R 7");
    assert_eq!(c.send("FLUSH t"), "OK ingested=1");
    assert_eq!(c.send("GET t total"), "VALUE 7");
    assert_eq!(c.send("DROP t total"), "OK dropped total");
    assert_eq!(c.send("GET t total"), "ERR no live view total on this ring");

    drop(c);
    shutdown(addr, handle);
}

#[test]
fn concurrent_clients_share_a_tenant() {
    let (addr, handle) = start(ServerConfig::default());
    let mut admin = Client::connect(addr);
    admin.send("DECLARE t R k v");
    admin.send("VIEW t by_k SELECT k, SUM(v) AS s FROM R GROUP BY k");

    // Four writer connections race into the same tenant's ingest queue.
    let writers: Vec<_> = (0..4)
        .map(|w| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                for _ in 0..25 {
                    assert_eq!(c.send(&format!("INSERT t R {w} 1")), "OK queued");
                }
            })
        })
        .collect();
    for w in writers {
        w.join().expect("writer");
    }
    assert_eq!(admin.send("FLUSH t"), "OK ingested=100");
    for k in 0..4 {
        assert_eq!(admin.send(&format!("GET t by_k {k}")), "VALUE 25");
    }

    drop(admin);
    shutdown(addr, handle);
}

/// Declares `t.R(k, v)` and the view `by_k` = `SUM(v)` per `k`.
fn serve_by_k(c: &mut Client) {
    assert_eq!(c.send("DECLARE t R k v"), "OK declared R");
    assert_eq!(
        c.send("VIEW t by_k SELECT k, SUM(v) AS s FROM R GROUP BY k"),
        "OK created by_k as view#0"
    );
}

/// `TABLE t by_k` as a map, zero groups left out.
fn by_k_table(c: &mut Client) -> BTreeMap<i64, i64> {
    let lines = c.send_multi("TABLE t by_k");
    assert!(lines.last().unwrap().starts_with("END "), "{lines:?}");
    let mut table = BTreeMap::new();
    for row in &lines[..lines.len() - 1] {
        let fields: Vec<i64> = row
            .strip_prefix("ROW ")
            .unwrap_or_else(|| panic!("not a row: {row:?}"))
            .split_whitespace()
            .map(|f| f.parse().expect("integer field"))
            .collect();
        if fields[1] != 0 {
            table.insert(fields[0], fields[1]);
        }
    }
    table
}

/// One `key=value` field of a `STATS` reply.
fn stat(stats: &str, name: &str) -> u64 {
    stats
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix(name)?.strip_prefix('=')?.parse().ok())
        .unwrap_or_else(|| panic!("no {name} in {stats:?}"))
}

#[test]
fn synchronous_requests_cost_a_round_trip_not_a_delayed_ack() {
    // A reply split over two small writes on a socket without TCP_NODELAY waits for
    // the client's delayed ACK, about 44 ms a request: these 1 000 took about 44 s.
    let (addr, handle) = start(ServerConfig::default());
    let mut c = Client::connect(addr);
    serve_by_k(&mut c);
    let started = Instant::now();
    for i in 0..500 {
        assert_eq!(c.send(&format!("INSERT t R {} 1", i % 10)), "OK queued");
        let value = c.send(&format!("GET t by_k {}", i % 10));
        assert!(value.starts_with("VALUE "), "{value}");
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "only {} of 1 000 requests answered in 2 s",
            2 * i + 2
        );
    }
    assert_eq!(c.send("FLUSH t"), "OK ingested=500");
    assert_eq!(c.send("GET t by_k 3"), "VALUE 50");

    drop(c);
    shutdown(addr, handle);
}

#[test]
fn pipelined_lines_get_one_reply_each_in_order() {
    let (addr, handle) = start(ServerConfig::default());
    let mut c = Client::connect(addr);
    serve_by_k(&mut c);

    let mut payload = String::new();
    let mut expected = Vec::new();
    let mut model: BTreeMap<i64, i64> = BTreeMap::new();
    for i in 0..5_000i64 {
        let (k, v) = (i % 37, i % 11 + 1);
        let verb = if i % 3 == 0 { "DELETE" } else { "INSERT" };
        payload.push_str(&format!("{verb} t R {k} {v}\n"));
        expected.push("OK queued".to_string());
        *model.entry(k).or_default() += if verb == "INSERT" { v } else { -v };
        if i % 50 == 7 {
            let (line, reply) = match (i / 50) % 4 {
                0 => ("INSERT t Nope 1", Some("ERR unknown relation Nope")),
                1 => ("DELETE t R 1", Some("ERR R expects 2 values, got 1")),
                2 => ("   ", None),
                _ => ("FROB t R 1 2", Some("ERR unknown command FROB")),
            };
            payload.push_str(line);
            payload.push('\n');
            expected.extend(reply.map(str::to_string));
        }
    }
    assert_eq!(c.pipeline(payload.as_bytes(), expected.len()), expected);
    assert_eq!(c.send("FLUSH t"), "OK ingested=5000");
    model.retain(|_, sum| *sum != 0);
    assert_eq!(by_k_table(&mut c), model);
    // The tenant committed whatever had queued, not one update at a time.
    let stats = c.send("STATS t");
    assert!(stat(&stats, "commits") < 5_000, "{stats}");

    drop(c);
    shutdown(addr, handle);
}

#[test]
fn flush_covers_updates_queued_by_another_connection() {
    let (addr, handle) = start(ServerConfig::default());
    let mut a = Client::connect(addr);
    let mut b = Client::connect(addr);
    serve_by_k(&mut a);
    assert_eq!(a.send("INSERT t R 4 9"), "OK queued");
    assert_eq!(b.send("FLUSH t"), "OK ingested=1");
    assert_eq!(b.send("GET t by_k 4"), "VALUE 9");

    drop((a, b));
    shutdown(addr, handle);
}

#[test]
fn a_large_pipelined_load_through_the_bounded_queue_loses_nothing() {
    let (addr, handle) = start(ServerConfig::default());
    let mut c = Client::connect(addr);
    serve_by_k(&mut c);
    let lines = 100_000;
    let payload: String = (0..lines)
        .map(|i| format!("INSERT t R {} 1\n", i % 100))
        .collect();
    let replies = c.pipeline(payload.as_bytes(), lines);
    assert!(replies.iter().all(|r| r == "OK queued"));
    assert_eq!(c.send("FLUSH t"), format!("OK ingested={lines}"));
    let table = by_k_table(&mut c);
    assert_eq!(table.len(), 100);
    assert!(table.values().all(|&sum| sum == 1_000), "{table:?}");

    drop(c);
    shutdown(addr, handle);
}

#[test]
fn a_failed_commit_surfaces_on_the_next_flush() {
    let (addr, handle) = start(ServerConfig::default());
    let mut c = Client::connect(addr);
    serve_by_k(&mut c);
    assert_eq!(c.send("INSERT t R 1 5"), "OK queued");
    assert_eq!(c.send("FLUSH t"), "OK ingested=1");
    // Relation and arity are right, so the update queues; its string value then fails
    // the commit inside the ring, which rolls the batch back.
    assert_eq!(c.send("INSERT t R 1 abc"), "OK queued");
    let flushed = c.send("FLUSH t");
    assert!(flushed.starts_with("ERR "), "{flushed}");
    assert_eq!(c.send("FLUSH t"), "OK ingested=1");
    assert_eq!(c.send("GET t by_k 1"), "VALUE 5");

    drop(c);
    shutdown(addr, handle);
}

#[test]
fn an_over_long_line_is_refused_and_closes_only_its_connection() {
    let (addr, handle) = start(ServerConfig::default());
    let mut c = Client::connect(addr);
    assert_eq!(c.send("PING"), "OK pong");
    let mut long = vec![b'x'; MAX_LINE_BYTES + 1];
    long.push(b'\n');
    // The server may close before it has read the whole line.
    let _ = c.out.write_all(&long);
    assert_eq!(
        c.read_reply(),
        format!("ERR line exceeds {MAX_LINE_BYTES} bytes")
    );
    assert!(c.closed());

    // A line of exactly the cap is an ordinary request.
    let mut other = Client::connect(addr);
    let padded = format!("PING{}", " ".repeat(MAX_LINE_BYTES - 4));
    assert_eq!(other.send(&padded), "OK pong");

    drop(other);
    shutdown(addr, handle);
}

#[test]
fn a_line_that_is_not_utf8_closes_only_its_connection() {
    let (addr, handle) = start(ServerConfig::default());
    let mut c = Client::connect(addr);
    c.out
        .write_all(b"PING\nPING \xff\xfe\nPING\n")
        .expect("send");
    assert_eq!(c.read_reply(), "OK pong");
    assert!(c.closed());

    let mut other = Client::connect(addr);
    assert_eq!(other.send("PING"), "OK pong");

    drop(other);
    shutdown(addr, handle);
}
