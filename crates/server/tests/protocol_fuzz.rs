//! Protocol fuzzing: random pipelined sequences of valid, invalid, blank, over-long
//! and non-UTF-8 lines, sent at once over two connections into one tenant. Every line
//! before a connection-fatal one gets exactly its reply, in order; the server stays
//! up for a fresh connection; and after `FLUSH` the view equals a replay of the
//! updates that were answered `OK queued`.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use dbring_server::{Server, ServerConfig, MAX_LINE_BYTES};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Line {
    Insert(i64, i64),
    Delete(i64, i64),
    Get(i64),
    Ping,
    UnknownRelation,
    UnknownTenant,
    WrongArity(usize),
    TooFewArguments,
    UnknownVerb,
    Blank,
    /// More than [`MAX_LINE_BYTES`] bytes before the newline.
    OverLong,
    /// Bytes with no newline among them that are not UTF-8.
    Binary(Vec<u8>),
}

impl Line {
    fn bytes(&self) -> Vec<u8> {
        let text = match self {
            Line::Insert(k, v) => format!("INSERT t R {k} {v}"),
            Line::Delete(k, v) => format!("delete t R {k} {v}"),
            Line::Get(k) => format!("GET t by_k {k}"),
            Line::Ping => "PING".to_string(),
            Line::UnknownRelation => "INSERT t Nope 1 2".to_string(),
            Line::UnknownTenant => "INSERT ghost R 1 2".to_string(),
            Line::WrongArity(n) => format!("INSERT t R{}", " 7".repeat(*n)),
            Line::TooFewArguments => "DELETE t".to_string(),
            Line::UnknownVerb => "FROB t R 1 2".to_string(),
            Line::Blank => " \t ".to_string(),
            Line::OverLong => "x".repeat(MAX_LINE_BYTES + 1),
            Line::Binary(bytes) => {
                let mut line = bytes.clone();
                line.push(b'\n');
                return line;
            }
        };
        let mut line = text.into_bytes();
        line.push(b'\n');
        line
    }
}

/// What the server must answer to one line.
enum Expect {
    Exact(String),
    Prefix(&'static str),
    /// No reply; the connection goes on.
    Nothing,
    /// The connection closes after this reply (if any).
    Close(Option<String>),
}

fn expect(line: &Line, view_first: bool) -> Expect {
    let exact = |s: &str| Expect::Exact(s.to_string());
    match line {
        Line::Insert(..) | Line::Delete(..) => exact("OK queued"),
        // Without a view up front, `by_k` does not exist during the traffic.
        Line::Get(_) if view_first => Expect::Prefix("VALUE "),
        Line::Get(_) => Expect::Prefix("ERR "),
        Line::Ping => exact("OK pong"),
        Line::UnknownRelation => exact("ERR unknown relation Nope"),
        Line::UnknownTenant => exact("ERR unknown tenant ghost"),
        Line::WrongArity(n) => Expect::Exact(format!("ERR R expects 2 values, got {n}")),
        Line::TooFewArguments => exact("ERR DELETE needs at least 2 arguments"),
        Line::UnknownVerb => exact("ERR unknown command FROB"),
        Line::Blank => Expect::Nothing,
        Line::OverLong => Expect::Close(Some(format!("ERR line exceeds {MAX_LINE_BYTES} bytes"))),
        Line::Binary(_) => Expect::Close(None),
    }
}

fn line() -> impl Strategy<Value = Line> {
    (
        0u32..100,
        -3i64..6,
        -2i64..4,
        prop::collection::vec(0u8..=255, 0..12),
    )
        .prop_map(|(pick, k, v, mut bytes)| match pick {
            0..=29 => Line::Insert(k, v),
            30..=44 => Line::Delete(k, v),
            45..=54 => Line::Get(k),
            55..=59 => Line::Ping,
            60..=64 => Line::UnknownRelation,
            65..=67 => Line::UnknownTenant,
            68..=74 => Line::WrongArity([0, 1, 3, 4][k.rem_euclid(4) as usize]),
            75..=77 => Line::TooFewArguments,
            78..=82 => Line::UnknownVerb,
            83..=92 => Line::Blank,
            93 => Line::OverLong,
            _ => {
                bytes.retain(|&b| b != b'\n');
                let at = bytes.len() / 2;
                bytes.insert(at, 0xff);
                Line::Binary(bytes)
            }
        })
}

/// One connection's traffic: its lines, then `QUIT`, written at once from a second
/// thread while this one reads replies until the server closes the connection.
fn exchange(addr: SocketAddr, lines: &[Line]) -> Vec<String> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    let mut payload: Vec<u8> = lines.iter().flat_map(Line::bytes).collect();
    payload.extend_from_slice(b"QUIT\n");
    let mut out = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    std::thread::scope(|scope| {
        // The server may close before it has read everything (over-long or binary line).
        scope.spawn(move || out.write_all(&payload));
        let mut replies = Vec::new();
        loop {
            let mut reply = String::new();
            match reader.read_line(&mut reply) {
                Ok(0) => return replies,
                Ok(_) => replies.push(reply.trim_end().to_string()),
                Err(e) if e.kind() == io::ErrorKind::ConnectionReset => return replies,
                Err(e) => panic!("reading replies: {e}"),
            }
        }
    })
}

/// Checks one connection's replies against its lines; returns the net `SUM(v)` per
/// `k` of the updates it had accepted.
fn check_replies(
    lines: &[Line],
    replies: &[String],
    view_first: bool,
) -> Result<BTreeMap<i64, i64>, TestCaseError> {
    let mut replies = replies.iter();
    let mut accepted = BTreeMap::new();
    let mut closed = false;
    for line in lines {
        match expect(line, view_first) {
            Expect::Nothing => continue,
            Expect::Close(reply) => {
                prop_assert_eq!(replies.next(), reply.as_ref(), "reply to {:?}", line);
                closed = true;
                break;
            }
            Expect::Exact(want) => {
                prop_assert_eq!(replies.next(), Some(&want), "reply to {:?}", line);
            }
            Expect::Prefix(want) => {
                let got = replies.next();
                prop_assert!(
                    got.is_some_and(|r| r.starts_with(want)),
                    "reply to {:?}: {:?}",
                    line,
                    got
                );
            }
        }
        match *line {
            Line::Insert(k, v) => *accepted.entry(k).or_default() += v,
            Line::Delete(k, v) => *accepted.entry(k).or_default() -= v,
            _ => {}
        }
    }
    if !closed {
        prop_assert_eq!(replies.next().map(String::as_str), Some("OK bye"));
    }
    prop_assert_eq!(replies.next(), None, "replies past the last request");
    Ok(accepted)
}

/// One request on a fresh connection, pipelined with `QUIT`; the reply lines before
/// `OK bye`.
fn request(addr: SocketAddr, line: &str) -> Vec<String> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    (&stream)
        .write_all(format!("{line}\nQUIT\n").as_bytes())
        .expect("send");
    let mut replies: Vec<String> = BufReader::new(stream)
        .lines()
        .map(|l| l.expect("reply"))
        .collect();
    assert_eq!(replies.pop().as_deref(), Some("OK bye"), "{line}");
    replies
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pipelined_fuzz_keeps_order_and_state(
        view_first in any::<bool>(),
        first in prop::collection::vec(line(), 0..40),
        second in prop::collection::vec(line(), 0..40),
    ) {
        let server = Server::bind(("127.0.0.1", 0), ServerConfig::default()).expect("bind");
        let addr = server.local_addr();
        let running = std::thread::spawn(move || server.run());

        prop_assert_eq!(request(addr, "DECLARE t R k v"), vec!["OK declared R"]);
        let view = "VIEW t by_k SELECT k, SUM(v) AS s FROM R GROUP BY k";
        if view_first {
            prop_assert_eq!(request(addr, view), vec!["OK created by_k as view#0"]);
        }
        let (replies_first, replies_second) = std::thread::scope(|scope| {
            let a = scope.spawn(|| exchange(addr, &first));
            let b = scope.spawn(|| exchange(addr, &second));
            (a.join().expect("first connection"), b.join().expect("second connection"))
        });
        let mut model = check_replies(&first, &replies_first, view_first)?;
        for (k, sum) in check_replies(&second, &replies_second, view_first)? {
            *model.entry(k).or_default() += sum;
        }
        model.retain(|_, sum| *sum != 0);

        prop_assert_eq!(request(addr, "PING"), vec!["OK pong"]);
        if !view_first {
            prop_assert_eq!(request(addr, view), vec!["OK created by_k as view#0"]);
        }
        let flushed = request(addr, "FLUSH t");
        prop_assert!(flushed[0].starts_with("OK ingested="), "{:?}", flushed);
        let mut table = BTreeMap::new();
        let rows = request(addr, "TABLE t by_k");
        prop_assert!(rows.last().is_some_and(|end| end.starts_with("END ")), "{:?}", rows);
        for row in &rows[..rows.len() - 1] {
            let fields: Vec<i64> = row
                .trim_start_matches("ROW ")
                .split_whitespace()
                .map(|f| f.parse().expect("integer field"))
                .collect();
            if fields[1] != 0 {
                table.insert(fields[0], fields[1]);
            }
        }
        prop_assert_eq!(table, model);

        // `SHUTDOWN` closes its connection before the pipelined `QUIT` is read.
        let stream = TcpStream::connect(addr).expect("connect");
        (&stream).write_all(b"SHUTDOWN\n").expect("send");
        let mut reply = String::new();
        BufReader::new(stream).read_line(&mut reply).expect("reply");
        prop_assert_eq!(reply.as_str(), "OK shutting down\n");
        running.join().expect("server thread").expect("server run");
    }
}
