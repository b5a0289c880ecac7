//! `dbring-serve`: the line-protocol serving front end as a standalone binary.
//!
//! ```text
//! dbring-serve [--port N] [--batch N] [--self-test]
//! ```
//!
//! Binds 127.0.0.1 (port 0 lets the OS pick), prints `LISTENING <port>` once ready,
//! then serves until a client sends `SHUTDOWN`. With `--self-test` it instead spawns
//! the server on an ephemeral port, runs a scripted client session against it over
//! TCP, and exits non-zero on any unexpected reply — the CI smoke test.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::ExitCode;

use dbring_server::{Server, ServerConfig};

fn main() -> ExitCode {
    let mut config = ServerConfig::default();
    let mut port: u16 = 0;
    let mut self_test = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--port" => match args.next().and_then(|v| v.parse().ok()) {
                Some(p) => port = p,
                None => return usage("--port needs a number"),
            },
            "--batch" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => config.batch_max = n,
                None => return usage("--batch needs a number"),
            },
            "--self-test" => self_test = true,
            other => return usage(&format!("unknown argument {other}")),
        }
    }

    if self_test {
        return match run_self_test(config) {
            Ok(()) => {
                println!("self-test PASS");
                ExitCode::SUCCESS
            }
            Err(message) => {
                eprintln!("self-test FAIL: {message}");
                ExitCode::FAILURE
            }
        };
    }

    let server = match Server::bind(("127.0.0.1", port), config) {
        Ok(server) => server,
        Err(error) => {
            eprintln!("bind failed: {error}");
            return ExitCode::FAILURE;
        }
    };
    println!("LISTENING {}", server.local_addr().port());
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("server error: {error}");
            ExitCode::FAILURE
        }
    }
}

fn usage(message: &str) -> ExitCode {
    eprintln!("{message}");
    eprintln!("usage: dbring-serve [--port N] [--batch N] [--self-test]");
    ExitCode::FAILURE
}

/// One scripted client connection: line out (`TCP_NODELAY`, one write per request),
/// reply line back.
struct Session {
    reader: BufReader<TcpStream>,
    out: TcpStream,
}

impl Session {
    fn connect(addr: std::net::SocketAddr) -> Result<Session, String> {
        let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(Session {
            reader: BufReader::new(stream.try_clone().map_err(|e| e.to_string())?),
            out: stream,
        })
    }

    fn send(&mut self, line: &str) -> Result<String, String> {
        self.out
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| e.to_string())?;
        let mut reply = String::new();
        self.reader
            .read_line(&mut reply)
            .map_err(|e| e.to_string())?;
        Ok(reply.trim_end().to_string())
    }

    fn expect(&mut self, line: &str, want: &str) -> Result<(), String> {
        let got = self.send(line)?;
        if got == want {
            Ok(())
        } else {
            Err(format!("{line:?}: expected {want:?}, got {got:?}"))
        }
    }
}

/// A scripted end-to-end session: declare a schema, create a view, ingest, flush,
/// and read back through snapshots — all over real TCP.
fn run_self_test(config: ServerConfig) -> Result<(), String> {
    let server = Server::bind(("127.0.0.1", 0), config).map_err(|e| e.to_string())?;
    let addr = server.local_addr();
    let worker = std::thread::spawn(move || server.run());

    let mut s = Session::connect(addr)?;

    s.expect("PING", "OK pong")?;
    s.expect("DECLARE acme Sales cust price qty", "OK declared Sales")?;
    s.expect(
        "VIEW acme revenue SELECT cust, SUM(price * qty) AS revenue FROM Sales GROUP BY cust",
        "OK created revenue as view#0",
    )?;
    s.expect("INSERT acme Sales 1 10 2", "OK queued")?;
    s.expect("INSERT acme Sales 1 5 4", "OK queued")?;
    s.expect("INSERT acme Sales 2 7 1", "OK queued")?;
    s.expect("FLUSH acme", "OK ingested=3")?;
    s.expect("GET acme revenue 1", "VALUE 40")?;
    s.expect("GET acme revenue 2", "VALUE 7")?;
    s.expect("GET acme revenue 99", "VALUE 0")?;
    s.expect("DELETE acme Sales 2 7 1", "OK queued")?;
    s.expect("FLUSH acme", "OK ingested=4")?;
    s.expect("GET acme revenue 2", "VALUE 0")?;
    // Errors are per-request, never fatal.
    s.expect("INSERT acme Nope 1", "ERR unknown relation Nope")?;
    s.expect("INSERT acme Sales 1", "ERR Sales expects 3 values, got 1")?;
    s.expect(
        "GET acme missing 1",
        "ERR no live view missing on this ring",
    )?;
    s.expect("GET ghost revenue 1", "ERR unknown tenant ghost")?;
    s.expect(
        "GET acme revenue 1 2",
        "ERR revenue has 1 key columns, got 2",
    )?;

    let stats = s.send("STATS acme")?;
    if !stats.starts_with("OK views=1 ingested=4") {
        return Err(format!("unexpected STATS reply {stats:?}"));
    }

    s.expect("SHUTDOWN", "OK shutting down")?;
    worker
        .join()
        .map_err(|_| "server thread panicked".to_string())?
        .map_err(|e| e.to_string())
}
