//! Starting and stopping the servers a workload drives: `pc serve`
//! replicas and, for the routed workload, a `pc route` in front of them.
//!
//! The benchmark launches the shipped binary. Its own tests start the same
//! library entry points (`server::start`, `router::start`) in-process with
//! the same default configuration, so they need no built binary.

use pc_service::client::{ConnectOptions, ServiceClient};
use pc_service::protocol::{Request, Response};
use pc_service::{router, server, RouterHandle, ServerHandle};
use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How servers are started.
#[derive(Debug, Clone)]
pub enum Launcher {
    /// Spawn this `pc` binary.
    Binary(PathBuf),
    /// Start the library servers on threads of this process.
    InProcess,
}

/// What a node holds on to; dropping it stops the server.
enum Kind {
    Child(Child, Option<std::thread::JoinHandle<()>>),
    Serve { _handle: ServerHandle },
    Route { _handle: RouterHandle },
}

/// One running server process (or in-process server).
pub struct Node {
    kind: Kind,
    /// The address it listens on.
    pub addr: String,
}

/// How long a server may take to come up before the run fails.
const READY_TIMEOUT: Duration = Duration::from_secs(120);

fn spawn_child(bin: &Path, args: &[String], banner: &str) -> io::Result<Node> {
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        match lines.next() {
            Some(Ok(line)) => {
                if let Some(addr) = line.strip_prefix(banner) {
                    break addr.trim().to_string();
                }
            }
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other(format!(
                    "{} exited before printing {banner:?}",
                    bin.display()
                )));
            }
        }
    };
    // The server keeps printing (load summary, drain notice); keep its pipe
    // drained so a write never fails. The thread ends with the process.
    let drain = std::thread::spawn(move || lines.for_each(drop));
    Ok(Node {
        kind: Kind::Child(child, Some(drain)),
        addr,
    })
}

/// Starts one `pc serve` replica over a persisted database and index.
///
/// # Errors
///
/// Spawn or bind failures.
pub fn start_serve(launcher: &Launcher, db: &Path, index: &Path) -> io::Result<Node> {
    match launcher {
        Launcher::Binary(bin) => {
            let args = [
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--db",
                &db.display().to_string(),
                "--index",
                &index.display().to_string(),
            ]
            .map(String::from);
            spawn_child(bin, &args, "pc-service listening on ")
        }
        Launcher::InProcess => {
            let handle = server::start(server::ServerConfig {
                db_path: Some(db.to_path_buf()),
                index_path: Some(index.to_path_buf()),
                ..server::ServerConfig::default()
            })?;
            Ok(Node {
                addr: handle.local_addr().to_string(),
                kind: Kind::Serve { _handle: handle },
            })
        }
    }
}

/// Starts a `pc route` (default ring) in front of `replicas`.
///
/// # Errors
///
/// Spawn or bind failures.
pub fn start_route(launcher: &Launcher, replicas: &[String]) -> io::Result<Node> {
    match launcher {
        Launcher::Binary(bin) => {
            let mut args = vec!["route".to_string(), "--addr".into(), "127.0.0.1:0".into()];
            for r in replicas {
                args.push("--replica".into());
                args.push(r.clone());
            }
            spawn_child(bin, &args, "pc-route listening on ")
        }
        Launcher::InProcess => {
            let handle = router::start(router::RouterConfig {
                replicas: replicas.to_vec(),
                ..router::RouterConfig::default()
            })?;
            Ok(Node {
                addr: handle.local_addr().to_string(),
                kind: Kind::Route { _handle: handle },
            })
        }
    }
}

impl Node {
    /// Peak resident set (`VmHWM`) of the server's process, in kB. For an
    /// in-process server this is the whole benchmark process.
    pub fn peak_rss_kb(&self) -> u64 {
        let status = match &self.kind {
            Kind::Child(c, _) => format!("/proc/{}/status", c.id()),
            _ => "/proc/self/status".to_string(),
        };
        std::fs::read_to_string(status)
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("VmHWM:"))
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            })
            .unwrap_or(0)
    }
}

/// Dropping a node stops the server and waits until it has ended, so a run
/// that fails or panics midway leaves no server behind. A child process is
/// killed outright (its shutdown checkpoint is not part of any workload);
/// in-process handles shut down and wait in their own drop.
impl Drop for Node {
    fn drop(&mut self) {
        if let Kind::Child(c, drain) = &mut self.kind {
            let _ = c.kill();
            let _ = c.wait();
            if let Some(drain) = drain.take() {
                let _ = drain.join();
            }
        }
    }
}

/// A client for control calls, with 60 s socket timeouts.
///
/// # Errors
///
/// Connect failures.
pub fn control_client(addr: &str) -> io::Result<ServiceClient> {
    ServiceClient::connect_with(addr, ConnectOptions::uniform(Duration::from_secs(60)))
}

/// Waits until `addr` answers a ping.
///
/// # Errors
///
/// Times out after [`READY_TIMEOUT`].
pub fn wait_ping(addr: &str) -> io::Result<()> {
    let deadline = Instant::now() + READY_TIMEOUT;
    while Instant::now() < deadline {
        if let Ok(mut c) = control_client(addr) {
            if matches!(c.call(&Request::Ping), Ok(Response::Pong)) {
                return Ok(());
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Err(io::Error::other(format!("{addr} never answered ping")))
}

/// Waits until the router at `addr` reports all `replicas` up.
///
/// # Errors
///
/// Times out after [`READY_TIMEOUT`].
pub fn wait_ring_up(addr: &str, replicas: usize) -> io::Result<()> {
    let deadline = Instant::now() + READY_TIMEOUT;
    while Instant::now() < deadline {
        if let Ok(mut c) = control_client(addr) {
            if let Ok(Response::RingStatus(body)) = c.call(&Request::RingStatus) {
                if body.nodes.len() == replicas && body.nodes.iter().all(|n| n.state == "up") {
                    return Ok(());
                }
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Err(io::Error::other(format!("ring at {addr} never came up")))
}
