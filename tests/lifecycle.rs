//! Lifecycle integration for the serving daemon: graceful SIGTERM drain
//! with in-flight work against the real `archpredict-served` binary,
//! per-connection panic isolation, load shedding under a saturated
//! connection gate, and the readiness/liveness split.
//!
//! The real-daemon test builds `archpredict-served` on demand (same
//! profile as this test binary) so the suite passes under plain
//! `cargo test`. An in-process test arms a failpoint plan by entering it
//! before binding its server; plans are thread-scoped, so the other
//! tests' servers never see it.

use archpredict::failpoint::{self, FailAction, Plan, SiteSpec};
use archpredict::serve::{http_request, ServeConfig, Server, FP_HANDLER};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "archpredict_lifecycle_{tag}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const SEED: u64 = 0x77;
const BUDGET: usize = 10;

fn fit_body() -> String {
    format!(
        r#"{{"study":"memory","app":"gzip","seed":"{SEED:x}","budget":{BUDGET},"batch":5,"quick":true}}"#
    )
}

/// Locates `archpredict-served`, building it first if this test binary
/// was compiled without it (`cargo test -p archpredict`).
fn served_binary() -> &'static PathBuf {
    static BINARY: OnceLock<PathBuf> = OnceLock::new();
    BINARY.get_or_init(|| {
        let locate = || -> Option<PathBuf> {
            let exe = std::env::current_exe().ok()?;
            let mut dir = exe.parent();
            for _ in 0..3 {
                let d = dir?;
                let candidate = d.join("archpredict-served");
                if candidate.is_file() {
                    return Some(candidate);
                }
                dir = d.parent();
            }
            None
        };
        if let Some(path) = locate() {
            return path;
        }
        let mut build = Command::new(env!("CARGO"));
        build.args(["build", "-p", "archpredict-served"]);
        if !cfg!(debug_assertions) {
            build.arg("--release");
        }
        let status = build.status().expect("run cargo build for the daemon");
        assert!(status.success(), "building archpredict-served failed");
        locate().expect("daemon binary after building it")
    })
}

/// Kills the daemon child on drop so a panicking test doesn't leak it.
struct DaemonGuard(Child);

impl Drop for DaemonGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns the real daemon over `root`, optionally enrolled in a chaos
/// schedule via `ARCHPREDICT_FAILPOINTS`, and scrapes its address line.
fn spawn_daemon(root: &Path, failpoints: Option<&str>) -> (DaemonGuard, SocketAddr) {
    let mut command = Command::new(served_binary());
    command
        .args(["--addr", "127.0.0.1:0", "--tick-ms", "1", "--root"])
        .arg(root)
        .stdout(Stdio::piped());
    match failpoints {
        Some(plan) => {
            command.env(failpoint::ENV_FAILPOINTS, plan);
        }
        None => {
            command.env_remove(failpoint::ENV_FAILPOINTS);
        }
    }
    let mut child = command.spawn().expect("spawn archpredict-served");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut first_line = String::new();
    BufReader::new(stdout)
        .read_line(&mut first_line)
        .expect("daemon address line");
    let addr = first_line
        .trim()
        .rsplit(' ')
        .next()
        .expect("address token")
        .parse()
        .expect("daemon printed its address");
    (DaemonGuard(child), addr)
}

fn signal(pid: u32, sig: &str) {
    let status = Command::new("/usr/bin/kill")
        .args([format!("-{sig}"), pid.to_string()])
        .status()
        .expect("run kill");
    assert!(status.success(), "kill -{sig} {pid} failed");
}

/// SIGTERM with work in flight: the listener closes first (new
/// connections refused), the in-flight request still gets its answer,
/// the process exits 0, and a restarted daemon over the same registry
/// answers the same fit warm.
#[test]
fn sigterm_drains_in_flight_work_then_a_restart_answers_warm() {
    let root = temp_root("drain");
    // Delay the first request 1.5 s inside the handler so it is
    // reliably in flight when the signal lands.
    let plan = "seed=1;serve.handler=delay:1500@1@1";
    let (mut daemon, addr) = spawn_daemon(&root, Some(plan));

    let in_flight =
        std::thread::spawn(move || http_request(addr, "POST", "/fit", Some(&fit_body())));
    std::thread::sleep(Duration::from_millis(500));
    signal(daemon.0.id(), "TERM");
    std::thread::sleep(Duration::from_millis(500));

    // Drain closes the listener before finishing in-flight work: new
    // connections must already be refused while the fit still runs.
    assert!(
        http_request(addr, "GET", "/health", None).is_err(),
        "listener must close at the start of the drain"
    );

    let (status, reply) = in_flight
        .join()
        .expect("client thread")
        .expect("in-flight fit answered during drain");
    assert_eq!(status, 200, "drained fit failed: {}", reply.to_json());
    let exit = daemon.0.wait().expect("reap daemon");
    assert!(exit.success(), "SIGTERM drain must exit 0, got {exit}");

    // The drained commit is durable: a fresh daemon answers warm.
    let (_restarted, addr) = spawn_daemon(&root, None);
    let (status, reply) = http_request(addr, "POST", "/fit", Some(&fit_body())).unwrap();
    assert_eq!(status, 200);
    assert!(
        reply.get("warm").unwrap().as_bool().unwrap(),
        "restarted daemon refitted instead of loading warm"
    );
    let (status, _) = http_request(addr, "POST", "/shutdown", None).unwrap();
    assert_eq!(status, 200);
    let _ = std::fs::remove_dir_all(&root);
}

/// A panicking handler answers 500, is counted, and takes down neither
/// the daemon nor the next request.
#[test]
fn handler_panic_is_isolated_counted_and_survivable() {
    // The server captures the plan active where it is bound.
    let plan = Plan::new(1).site(FP_HANDLER, SiteSpec::once(FailAction::Panic));
    let _armed = failpoint::enter(Arc::new(plan));
    let root = temp_root("panic");
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            registry_root: root.clone(),
            tick: Duration::from_millis(1),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let handle = server.spawn();
    let addr = handle.addr();

    let (status, reply) = http_request(addr, "GET", "/health", None).unwrap();
    assert_eq!(status, 500, "the armed panic surfaces as a 500");
    assert!(
        reply
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("failpoint"),
        "the 500 carries the panic message: {}",
        reply.to_json()
    );

    let (status, stats) = http_request(addr, "GET", "/stats", None).unwrap();
    assert_eq!(status, 200, "the daemon survived the panic");
    assert_eq!(stats.get("panics_caught").unwrap().as_u64().unwrap(), 1);

    let (status, health) = http_request(addr, "GET", "/health", None).unwrap();
    assert_eq!(status, 200);
    assert!(health.get("ok").unwrap().as_bool().unwrap());
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// Raw request/response against the daemon, headers included — what
/// `http_request` hides but the Retry-After assertion needs.
fn raw_request(addr: SocketAddr, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(request.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    response
}

/// A saturated connection gate sheds instead of queueing forever: 503
/// with `Retry-After`, counted in `/stats`, and full recovery once the
/// hog disconnects.
#[test]
fn saturated_gate_sheds_with_retry_after_and_recovers() {
    let root = temp_root("shed");
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            registry_root: root.clone(),
            tick: Duration::from_millis(1),
            max_connections: 1,
            gate_wait: Duration::from_millis(50),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let handle = server.spawn();
    let addr = handle.addr();

    // An idle connection that never sends its request holds the sole
    // permit from the moment it is accepted.
    let hog = TcpStream::connect(addr).expect("hog connects");
    std::thread::sleep(Duration::from_millis(120));

    let response = raw_request(
        addr,
        &format!("GET /health HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"),
    );
    assert!(
        response.starts_with("HTTP/1.1 503"),
        "saturated gate must shed with 503, got: {response}"
    );
    assert!(
        response.contains("Retry-After: 1"),
        "shed response must carry Retry-After: {response}"
    );

    // Releasing the hog releases the permit; service resumes and the
    // shed is on the books.
    drop(hog);
    std::thread::sleep(Duration::from_millis(50));
    let (status, health) = http_request(addr, "GET", "/health", None).unwrap();
    assert_eq!(status, 200, "gate must recover once the hog disconnects");
    assert!(health.get("ready").unwrap().as_bool().unwrap());
    let (status, stats) = http_request(addr, "GET", "/stats", None).unwrap();
    assert_eq!(status, 200);
    assert!(stats.get("requests_shed").unwrap().as_u64().unwrap() >= 1);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// `/ready` mirrors `/health` while the daemon accepts work; both carry
/// the readiness booleans the supervisor watches.
#[test]
fn ready_endpoint_reports_acceptance() {
    let root = temp_root("ready");
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            registry_root: root.clone(),
            tick: Duration::from_millis(1),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let handle = server.spawn();
    let addr = handle.addr();

    let (status, ready) = http_request(addr, "GET", "/ready", None).unwrap();
    assert_eq!(status, 200);
    assert!(ready.get("ready").unwrap().as_bool().unwrap());
    assert!(!ready.get("draining").unwrap().as_bool().unwrap());
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
