//! A small threaded serving front end over [`dbring`]: tenants map to independent
//! [`Ring`] shards, writes flow through a per-tenant ingest thread, and reads are
//! answered from lock-free [`ViewSnapshot`](dbring::ViewSnapshot) handles without ever
//! touching the writer.
//!
//! ## Architecture
//!
//! ```text
//!   TCP connections (one handler thread each, TCP_NODELAY; replies collect in one
//!   buffer that goes out in one write when no further request is buffered)
//!     │                                                │
//!     │ INSERT / DELETE: validated against the frozen  │ GET / TABLE / SCAN:
//!     │   catalog, enqueued, `OK queued` at once       │   no ingest round trip
//!     │ DECLARE / VIEW / DROP / FLUSH / STATS:         │
//!     │   enqueued, reply awaited                      │
//!     ▼                                                │
//!   bounded tenant queue (a full queue blocks the      │
//!   sender, so TCP flow control reaches the client)    │
//!     ▼                                                │
//!   per-tenant ingest thread ── owns the &mut Ring,    │
//!     │  commits whatever the queue held as one batch  ▼
//!     └─ publishes read views on commit ─▶ RingHandle ── Arc-shared snapshot store;
//!                                                      O(1) acquire, lock-free reads
//! ```
//!
//! Each tenant's ingest thread owns its [`Ring`] exclusively (the `RingHandle` split:
//! writers never wait for readers, readers never block the writer). Updates accumulate
//! into a batch and are committed when the request queue drains — a **quiescent point**
//! — or when the batch reaches [`ServerConfig::batch_max`], or on an explicit `FLUSH`.
//! Because writes do not wait for the ingest thread, a commit takes every update that
//! queued up while the previous one ran (group commit). Snapshot publication happens
//! inside the ring at exactly those commit points, so a reader always observes a
//! batch-consistent prefix of the tenant's update stream. Only views some client has
//! read are built at a commit: a view nobody has read yet keeps its commits' changes
//! pending, and its first `GET`, `TABLE` or `SCAN` builds them (`STATS` counts both
//! as `deferred=` and `pulled=`).
//!
//! ## Protocol
//!
//! Line-delimited text, one request per line, whitespace-separated tokens. Values
//! parse as integer, then float, then (optionally double-quoted) string. Responses are
//! one or more lines; every response ends with a line starting `OK`, `ERR`, `VALUE`,
//! or `END`. Blank lines get no response.
//!
//! | Request | Reply |
//! |---|---|
//! | `PING` | `OK pong` |
//! | `DECLARE <tenant> <relation> <col>...` | `OK declared <relation>` |
//! | `VIEW <tenant> <name> <sql>...` | `OK created <name> ...` |
//! | `DROP <tenant> <view>` | `OK dropped <view>` |
//! | `INSERT <tenant> <relation> <val>...` | `OK queued`: validated and enqueued |
//! | `DELETE <tenant> <relation> <val>...` | `OK queued`: validated and enqueued |
//! | `FLUSH <tenant>` | `OK ingested=<n>`, or `ERR` for a failed commit |
//! | `GET <tenant> <view> <key>...` | `VALUE <number>`: one value per key column |
//! | `TABLE <tenant> <view>` | `ROW <key>... <number>` lines, then `END ...` |
//! | `SCAN <tenant> <view> <prefix>...` | `ROW` lines, then `END ...`: at most one value per key column |
//! | `STATS <tenant>` | `OK <key=value>...` (`commits=` counts batch commits; `deferred=`, `pulled=` count view publications deferred and built on first read) |
//! | `QUIT` | `OK bye` (closes the connection) |
//! | `SHUTDOWN` | `OK shutting down` (stops the whole server) |
//!
//! A `GET` whose key has other than one value per key column of the view, or a
//! `SCAN` whose prefix has more, is answered `ERR <view> has <n> key columns, got
//! <m>`.
//!
//! Relations must be declared before the tenant's first view or update (a ring's
//! catalog is fixed when the ring is built). `INSERT`/`DELETE` validate the relation
//! name and arity synchronously, on the connection's thread, and apply asynchronously:
//! `OK queued` means the update passed validation and sits in the tenant's queue. A
//! commit that fails anyway (a value error inside the ring rolls the whole batch back)
//! is reported by the next `FLUSH`. `FLUSH` waits for the ingest thread, so it covers
//! every `OK queued` any connection received before it was sent: `GET` after `FLUSH`
//! observes the flushed rows.
//!
//! Clients may pipeline: send many lines without waiting, and read the replies, which
//! come back in request order. When the tenant's queue is full, the connection stops
//! reading until the ingest thread catches up; nothing is refused for being busy. A
//! line longer than [`MAX_LINE_BYTES`] is answered `ERR line exceeds <N> bytes` and
//! closes the connection; so does a line that is not UTF-8, without a reply.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TryRecvError};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;

use dbring::{Catalog, Number, Ring, RingBuilder, RingHandle, Update, Value, ViewDef};

/// The longest request line the server reads, newline excluded.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Requests a tenant's queue holds before senders block. Small on purpose: a pipelined
/// load parks in the queue, so resident memory grows with the bound. It is below the
/// default `batch_max`, so one commit can take a full queue.
const QUEUE_BOUND: usize = 64;

/// A connection's reply buffer is written out once it holds this many bytes, even
/// while further requests are already buffered.
const REPLY_FLUSH_BYTES: usize = 64 * 1024;

/// Server-wide configuration: the batch size that forces a commit even without a
/// quiescent point.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Commit the pending batch once it holds this many updates, even if more
    /// requests are queued. Writers that keep the queue non-empty (pipelining
    /// clients, or several connections) grow a batch up to this size; this bounds
    /// snapshot staleness under sustained ingest.
    pub batch_max: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { batch_max: 256 }
    }
}

/// A request routed to a tenant's ingest thread. `reply` is `None` for
/// [`Command::Ingest`], which the connection has answered already.
struct Request {
    command: Command,
    reply: Option<Sender<Result<String, String>>>,
}

/// Commands the ingest thread executes while holding the tenant's `&mut Ring`.
enum Command {
    Declare {
        relation: String,
        columns: Vec<String>,
    },
    CreateView {
        name: String,
        sql: String,
    },
    DropView {
        name: String,
    },
    /// Build the ring, freezing the catalog, if the tenant has none yet.
    Serve,
    /// An update already validated against the frozen catalog.
    Ingest {
        update: Update,
    },
    Flush,
    Stats,
    Stop,
}

/// What a serving tenant shares with connection threads. Set exactly once, when the
/// tenant's ring is built; nothing in it changes afterwards.
struct TenantShared {
    /// Read paths acquire snapshots through this, never through the ingest thread.
    reader: RingHandle,
    /// The ring's catalog, which `INSERT`/`DELETE` are validated against.
    catalog: Catalog,
}

struct Tenant {
    requests: SyncSender<Request>,
    shared: Arc<OnceLock<TenantShared>>,
    worker: Mutex<Option<JoinHandle<()>>>,
}

/// The tenant's ring, or the catalog still being declared before the first view.
/// The ring is boxed: `Core` lives on the ingest thread's stack frame and a `Ring`
/// is a large value to move through enum reassignment.
enum Core {
    Building(Catalog),
    Serving(Box<Ring>),
}

struct ServerState {
    config: ServerConfig,
    addr: SocketAddr,
    tenants: Mutex<HashMap<String, Arc<Tenant>>>,
    shutdown: AtomicBool,
}

/// A serving front end bound to a TCP address. [`Server::run`] accepts connections
/// until a client issues `SHUTDOWN`.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds to `addr` (use port 0 to let the OS pick) with the given configuration.
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let state = Arc::new(ServerState {
            config,
            addr: listener.local_addr()?,
            tenants: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
        });
        Ok(Server { listener, state })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Accepts and serves connections until `SHUTDOWN`; each connection gets its own
    /// handler thread. Returns once every tenant ingest thread has drained and exited.
    pub fn run(self) -> io::Result<()> {
        let mut handlers = Vec::new();
        for stream in self.listener.incoming() {
            if self.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = stream?;
            let state = Arc::clone(&self.state);
            handlers.push(std::thread::spawn(move || {
                // Connection errors (client hangs up mid-line) only affect that client.
                let _ = handle_connection(&state, stream);
            }));
        }
        for handle in handlers {
            let _ = handle.join();
        }
        // Stop every tenant worker and wait for its final flush.
        let tenants: Vec<Arc<Tenant>> = self
            .state
            .tenants
            .lock()
            .unwrap()
            .drain()
            .map(|(_, t)| t)
            .collect();
        for tenant in tenants {
            let _ = roundtrip(&tenant, Command::Stop);
            if let Some(worker) = tenant.worker.lock().unwrap().take() {
                let _ = worker.join();
            }
        }
        Ok(())
    }
}

/// Puts one request on the tenant's queue, blocking while the queue is full.
fn enqueue(
    tenant: &Tenant,
    command: Command,
    reply: Option<Sender<Result<String, String>>>,
) -> Result<(), String> {
    tenant
        .requests
        .send(Request { command, reply })
        .map_err(|_| "tenant worker stopped".to_string())
}

/// Sends one command to the tenant's ingest thread and waits for the reply.
fn roundtrip(tenant: &Tenant, command: Command) -> Result<String, String> {
    let (reply, rx) = mpsc::channel();
    enqueue(tenant, command, Some(reply))?;
    rx.recv().map_err(|_| "tenant worker stopped".to_string())?
}

fn handle_connection(state: &Arc<ServerState>, stream: TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut out = stream;
    let mut line = String::new();
    let mut replies = String::new();
    loop {
        line.clear();
        // One byte past the cap tells an over-long line from one of exactly the cap.
        let read = reader
            .by_ref()
            .take(MAX_LINE_BYTES as u64 + 1)
            .read_line(&mut line);
        let close = match read {
            Ok(0) => true,
            Ok(_) if line.len() > MAX_LINE_BYTES && !line.ends_with('\n') => {
                let _ = writeln!(replies, "ERR line exceeds {MAX_LINE_BYTES} bytes");
                true
            }
            Ok(_) => match line.trim() {
                "" => false,
                request => dispatch(state, request, &mut replies),
            },
            // Not UTF-8, or the socket failed: close, after answering what came before.
            Err(_) => true,
        };
        // Write before any read that could block: a client waiting for its reply gets
        // it in one segment, and a pipelining client gets its replies coalesced.
        if close || replies.len() >= REPLY_FLUSH_BYTES || !reader.buffer().contains(&b'\n') {
            out.write_all(replies.as_bytes())?;
            replies.clear();
            // A large TABLE must not pin its buffer for the connection's lifetime.
            replies.shrink_to(REPLY_FLUSH_BYTES);
        }
        if close {
            return Ok(());
        }
    }
}

/// Executes one request line, appending its reply lines to `out`. Returns whether the
/// connection should close.
fn dispatch(state: &Arc<ServerState>, line: &str, out: &mut String) -> bool {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    let verb = tokens[0].to_ascii_uppercase();
    let result = match verb.as_str() {
        "PING" => {
            out.push_str("OK pong\n");
            Ok(())
        }
        "QUIT" => {
            out.push_str("OK bye\n");
            return true;
        }
        "SHUTDOWN" => {
            state.shutdown.store(true, Ordering::SeqCst);
            // Wake the accept loop so `run` can observe the flag and drain tenants.
            let _ = TcpStream::connect(state.addr);
            out.push_str("OK shutting down\n");
            return true;
        }
        "DECLARE" => with_args(&tokens, 3, |t| {
            let tenant = tenant_entry(state, t[1]);
            let command = Command::Declare {
                relation: t[2].to_string(),
                columns: t[3..].iter().map(|c| c.to_string()).collect(),
            };
            roundtrip(&tenant, command).map(|detail| ok_line(out, &detail))
        }),
        "VIEW" => with_args(&tokens, 4, |t| {
            let tenant = tenant_entry(state, t[1]);
            let command = Command::CreateView {
                name: t[2].to_string(),
                // SQL is whitespace-insensitive, so rejoining tokens is lossless
                // for the Section 5 subset the parser accepts.
                sql: t[3..].join(" "),
            };
            roundtrip(&tenant, command).map(|detail| ok_line(out, &detail))
        }),
        "DROP" => with_args(&tokens, 3, |t| {
            let tenant = tenant_entry(state, t[1]);
            let command = Command::DropView {
                name: t[2].to_string(),
            };
            roundtrip(&tenant, command).map(|detail| ok_line(out, &detail))
        }),
        "INSERT" | "DELETE" => with_args(&tokens, 3, |t| {
            let tenant = known_tenant(state, t[1])?;
            ingest(&tenant, verb == "INSERT", t[2], &t[3..])?;
            out.push_str("OK queued\n");
            Ok(())
        }),
        "FLUSH" => with_args(&tokens, 2, |t| {
            let tenant = known_tenant(state, t[1])?;
            roundtrip(&tenant, Command::Flush).map(|detail| ok_line(out, &detail))
        }),
        "STATS" => with_args(&tokens, 2, |t| {
            let tenant = known_tenant(state, t[1])?;
            roundtrip(&tenant, Command::Stats).map(|detail| ok_line(out, &detail))
        }),
        "GET" => with_args(&tokens, 3, |t| {
            let snapshot = acquire(state, t[1], t[2])?;
            let key = key_values(&snapshot, &t[3..], false)?;
            let _ = writeln!(out, "VALUE {}", snapshot.value(&key));
            Ok(())
        }),
        "TABLE" => with_args(&tokens, 3, |t| {
            let snapshot = acquire(state, t[1], t[2])?;
            render_rows(out, snapshot.iter(), &snapshot);
            Ok(())
        }),
        "SCAN" => with_args(&tokens, 3, |t| {
            let snapshot = acquire(state, t[1], t[2])?;
            let prefix = key_values(&snapshot, &t[3..], true)?;
            render_rows(out, snapshot.prefix_scan(&prefix), &snapshot);
            Ok(())
        }),
        _ => Err(format!("unknown command {verb}")),
    };
    if let Err(message) = result {
        let _ = writeln!(out, "ERR {message}");
    }
    false
}

/// Runs `body` if the request has at least `min` tokens, else an arity error.
fn with_args<'a>(
    tokens: &[&'a str],
    min: usize,
    body: impl FnOnce(&[&'a str]) -> Result<(), String>,
) -> Result<(), String> {
    if tokens.len() < min {
        return Err(format!(
            "{} needs at least {} arguments",
            tokens[0].to_ascii_uppercase(),
            min - 1
        ));
    }
    body(tokens)
}

fn ok_line(out: &mut String, detail: &str) {
    let _ = writeln!(out, "OK {detail}");
}

/// Validates an update against the tenant's frozen catalog and queues it without a
/// reply channel, so the connection answers before the ingest thread sees it. An
/// update that arrives before the tenant's first view builds the ring first, which is
/// one round trip.
fn ingest(tenant: &Tenant, insert: bool, relation: &str, values: &[&str]) -> Result<(), String> {
    let shared = match tenant.shared.get() {
        Some(shared) => shared,
        None => {
            roundtrip(tenant, Command::Serve)?;
            tenant
                .shared
                .get()
                .expect("the ingest thread publishes the shared state before answering Serve")
        }
    };
    match shared.catalog.columns(relation) {
        None => return Err(format!("unknown relation {relation}")),
        Some(cols) if cols.len() != values.len() => {
            return Err(format!(
                "{relation} expects {} values, got {}",
                cols.len(),
                values.len()
            ))
        }
        Some(_) => {}
    }
    let values: Vec<Value> = values.iter().copied().map(parse_value).collect();
    let update = if insert {
        Update::insert(relation, values)
    } else {
        Update::delete(relation, values)
    };
    enqueue(tenant, Command::Ingest { update }, None)
}

/// Returns the tenant, creating it (and its ingest thread) on first use.
fn tenant_entry(state: &Arc<ServerState>, name: &str) -> Arc<Tenant> {
    let mut tenants = state.tenants.lock().unwrap();
    if let Some(tenant) = tenants.get(name) {
        return Arc::clone(tenant);
    }
    let (requests, rx) = mpsc::sync_channel(QUEUE_BOUND);
    let shared = Arc::new(OnceLock::new());
    let worker_shared = Arc::clone(&shared);
    let config = state.config;
    let worker = std::thread::spawn(move || tenant_loop(rx, &worker_shared, config));
    let tenant = Arc::new(Tenant {
        requests,
        shared,
        worker: Mutex::new(Some(worker)),
    });
    tenants.insert(name.to_string(), Arc::clone(&tenant));
    tenant
}

/// Returns an existing tenant, or an error: reads and ingest never auto-create.
fn known_tenant(state: &Arc<ServerState>, name: &str) -> Result<Arc<Tenant>, String> {
    state
        .tenants
        .lock()
        .unwrap()
        .get(name)
        .cloned()
        .ok_or_else(|| format!("unknown tenant {name}"))
}

/// Acquires a point-in-time snapshot of `view` for `tenant` — no ingest round-trip;
/// this is the lock-free read path.
fn acquire(
    state: &Arc<ServerState>,
    tenant: &str,
    view: &str,
) -> Result<dbring::ViewSnapshot, String> {
    let tenant = known_tenant(state, tenant)?;
    let shared = tenant
        .shared
        .get()
        .ok_or_else(|| "tenant has no views yet".to_string())?;
    shared
        .reader
        .snapshot_named(view)
        .map_err(|e| e.to_string())
}

/// Parses the key of a `GET` (one value per key column of the view) or the prefix of
/// a `SCAN` (`prefix`: at most one per key column). Any other count is an error: a
/// lookup with the wrong number of values can only miss, and would read as zero.
fn key_values(
    snapshot: &dbring::ViewSnapshot,
    tokens: &[&str],
    prefix: bool,
) -> Result<Vec<Value>, String> {
    let columns = snapshot.arity();
    if tokens.len() > columns || (!prefix && tokens.len() < columns) {
        return Err(format!(
            "{} has {columns} key columns, got {}",
            snapshot.name(),
            tokens.len()
        ));
    }
    Ok(tokens.iter().copied().map(parse_value).collect())
}

/// Appends one `ROW <key>... <value>` line per row, then the `END` line.
fn render_rows<'a>(
    out: &mut String,
    rows: impl Iterator<Item = (&'a [Value], Number)>,
    snapshot: &dbring::ViewSnapshot,
) {
    let mut count = 0usize;
    for (key, value) in rows {
        out.push_str("ROW");
        for v in key {
            let _ = write!(out, " {v}");
        }
        let _ = writeln!(out, " {value}");
        count += 1;
    }
    let _ = writeln!(
        out,
        "END rows={count} ingested={} epoch={}",
        snapshot.ingested(),
        snapshot.epoch()
    );
}

/// Parses a protocol token: integer, then float, then (optionally quoted) string.
fn parse_value(token: &str) -> Value {
    if let Ok(i) = token.parse::<i64>() {
        return Value::int(i);
    }
    if let Ok(f) = token.parse::<f64>() {
        return Value::float(f);
    }
    let unquoted = token
        .strip_prefix('"')
        .and_then(|rest| rest.strip_suffix('"'))
        .unwrap_or(token);
    Value::str(unquoted)
}

/// The ingest thread's updates awaiting commit, and what its commits so far left.
#[derive(Default)]
struct Batch {
    pending: Vec<Update>,
    /// The error of a failed commit, surfaced (and cleared) by the next `FLUSH`.
    last_error: Option<String>,
    /// `apply_batch` calls so far.
    commits: u64,
}

impl Batch {
    fn flush(&mut self, core: &mut Core) {
        if let Core::Serving(ring) = core {
            self.commit(ring);
        }
    }

    /// Commits the pending batch. Ingest is failure-atomic: on error the whole batch is
    /// rolled back by the ring; the error is surfaced on the next `FLUSH`.
    fn commit(&mut self, ring: &mut Ring) {
        if self.pending.is_empty() {
            return;
        }
        self.commits += 1;
        if let Err(error) = ring.apply_batch(&self.pending) {
            self.last_error = Some(error.to_string());
        }
        self.pending.clear();
    }
}

/// The tenant ingest loop: owns the tenant's [`Ring`] exclusively, accumulates
/// updates into a batch, and commits (publishing snapshots) at quiescent points —
/// when the request queue drains, the batch hits `batch_max`, or on explicit `FLUSH`.
fn tenant_loop(rx: Receiver<Request>, shared: &OnceLock<TenantShared>, config: ServerConfig) {
    let mut core = Core::Building(Catalog::new());
    let mut batch = Batch::default();
    loop {
        let request = match rx.try_recv() {
            Ok(request) => request,
            Err(TryRecvError::Empty) => {
                // Queue drained: a quiescent point. Commit what we have so readers
                // observe it, then block for the next request.
                batch.flush(&mut core);
                match rx.recv() {
                    Ok(request) => request,
                    Err(_) => break,
                }
            }
            Err(TryRecvError::Disconnected) => break,
        };
        let stop = matches!(request.command, Command::Stop);
        let reply = handle_command(request.command, &mut core, &mut batch, shared);
        if let Some(sender) = request.reply {
            let _ = sender.send(reply);
        }
        if batch.pending.len() >= config.batch_max {
            batch.flush(&mut core);
        }
        if stop {
            break;
        }
    }
    batch.flush(&mut core);
}

fn handle_command(
    command: Command,
    core: &mut Core,
    batch: &mut Batch,
    shared: &OnceLock<TenantShared>,
) -> Result<String, String> {
    match command {
        Command::Declare { relation, columns } => match core {
            Core::Building(catalog) => {
                let cols: Vec<&str> = columns.iter().map(|c| c.as_str()).collect();
                catalog
                    .declare(&relation, &cols)
                    .map_err(|e| e.to_string())?;
                Ok(format!("declared {relation}"))
            }
            Core::Serving(_) => {
                Err("relations must be declared before the first view or update".to_string())
            }
        },
        Command::CreateView { name, sql } => {
            let ring = ensure_serving(core, shared);
            batch.commit(ring);
            let id = ring
                .create_view(&name, ViewDef::Sql(&sql))
                .map_err(|e| e.to_string())?;
            Ok(format!("created {name} as {id}"))
        }
        Command::DropView { name } => {
            let ring = serving_ring(core)?;
            batch.commit(ring);
            let id = ring
                .view_id(&name)
                .ok_or_else(|| format!("unknown view {name}"))?;
            ring.drop_view(id).map_err(|e| e.to_string())?;
            Ok(format!("dropped {name}"))
        }
        Command::Serve => {
            ensure_serving(core, shared);
            Ok("serving".to_string())
        }
        Command::Ingest { update } => {
            batch.pending.push(update);
            Ok("queued".to_string())
        }
        Command::Flush => {
            let ring = serving_ring(core)?;
            batch.commit(ring);
            match batch.last_error.take() {
                Some(error) => Err(error),
                None => Ok(format!("ingested={}", ring.updates_ingested())),
            }
        }
        Command::Stats => match core {
            Core::Building(catalog) => Ok(format!(
                "building relations={}",
                catalog.relation_names().count()
            )),
            Core::Serving(ring) => {
                let publish = ring.snapshot_publish_stats();
                Ok(format!(
                    "views={} ingested={} commits={} pending={} publish_ns={} snapshot_entries={} \
                     deferred={} pulled={}",
                    ring.len(),
                    ring.updates_ingested(),
                    batch.commits,
                    batch.pending.len(),
                    ring.snapshot_publish_ns(),
                    ring.snapshot_footprint(),
                    publish.deferred,
                    publish.pulled
                ))
            }
        },
        Command::Stop => Ok("stopping".to_string()),
    }
}

/// Builds the tenant's ring on its first view or update, freezing the catalog and
/// publishing the read handle and the catalog to connection threads.
fn ensure_serving<'a>(core: &'a mut Core, shared: &OnceLock<TenantShared>) -> &'a mut Ring {
    if let Core::Building(catalog) = core {
        let ring = RingBuilder::new(std::mem::take(catalog)).build();
        // Only this transition sets it, and a tenant makes it once.
        let _ = shared.set(TenantShared {
            reader: ring.reader(),
            catalog: ring.catalog().clone(),
        });
        *core = Core::Serving(Box::new(ring));
    }
    match core {
        Core::Serving(ring) => ring,
        Core::Building(_) => unreachable!("just transitioned to serving"),
    }
}

fn serving_ring(core: &mut Core) -> Result<&mut Ring, String> {
    match core {
        Core::Serving(ring) => Ok(ring),
        Core::Building(_) => Err("tenant has no views yet".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Queues a command without a reply channel, as `INSERT`/`DELETE` do.
    fn queue(requests: &SyncSender<Request>, command: Command) {
        let request = Request {
            command,
            reply: None,
        };
        requests.send(request).expect("the queue has room");
    }

    fn ask(requests: &SyncSender<Request>, command: Command) -> Result<String, String> {
        let (reply, rx) = mpsc::channel();
        let request = Request {
            command,
            reply: Some(reply),
        };
        requests.send(request).expect("the queue has room");
        rx.recv().expect("the ingest thread replies")
    }

    fn stat(stats: &str, name: &str) -> u64 {
        stats
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix(name)?.strip_prefix('=')?.parse().ok())
            .unwrap_or_else(|| panic!("no {name} in {stats:?}"))
    }

    #[test]
    fn updates_queued_together_commit_as_one_batch() {
        // Fill the queue before the ingest thread starts, so it finds every update
        // already waiting: one commit must take them all.
        let (requests, rx) = mpsc::sync_channel(QUEUE_BOUND);
        let declare = Command::Declare {
            relation: "R".to_string(),
            columns: vec!["k".to_string(), "v".to_string()],
        };
        queue(&requests, declare);
        queue(&requests, Command::Serve);
        let updates = QUEUE_BOUND - 2;
        for i in 0..updates {
            let update = Update::insert("R", vec![Value::int(i as i64 % 3), Value::int(1)]);
            queue(&requests, Command::Ingest { update });
        }
        let shared = Arc::new(OnceLock::new());
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::spawn(move || {
            tenant_loop(rx, &worker_shared, ServerConfig::default());
        });

        let flushed = ask(&requests, Command::Flush);
        assert_eq!(flushed, Ok(format!("ingested={updates}")));
        let stats = ask(&requests, Command::Stats).expect("stats");
        assert_eq!(stat(&stats, "commits"), 1, "{stats}");

        let view = Command::CreateView {
            name: "s".to_string(),
            sql: "SELECT k, SUM(v) AS s FROM R GROUP BY k".to_string(),
        };
        ask(&requests, view).expect("view");
        for i in 0..5 {
            let update = Update::delete("R", vec![Value::int(i), Value::int(1)]);
            queue(&requests, Command::Ingest { update });
        }
        let flushed = ask(&requests, Command::Flush);
        assert_eq!(flushed, Ok(format!("ingested={}", updates + 5)));
        let stats = ask(&requests, Command::Stats).expect("stats");
        let commits = stat(&stats, "commits");
        assert!((2..=stat(&stats, "ingested")).contains(&commits), "{stats}");
        let reader = &shared.get().expect("serving").reader;
        let snapshot = reader.snapshot_named("s").expect("view s");
        assert_eq!(snapshot.value(&[Value::int(0)]).to_string(), "20");

        ask(&requests, Command::Stop).expect("stop");
        worker.join().expect("ingest thread");
    }
}
