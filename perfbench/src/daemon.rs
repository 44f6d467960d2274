//! The serve daemon for `sqf-serve-stream`, run in a child process.
//!
//! The child is this benchmark's own executable started with `daemon`: it
//! runs the same `gopher_serve::Server` that `gopher serve` starts, with
//! the default serve settings and `nproc` workers. Running it from the
//! benchmark's executable keeps the benchmark one package with one build.

use gopher_serve::client::{request_once, Conn, Response};
use gopher_serve::{ServeConfig, Server};
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The first argument that turns a benchmark executable into the daemon.
const DAEMON_ARG: &str = "daemon";

/// Runs the daemon if `args` asks for it, returning `true` once it has
/// drained and stopped; `false` means "not a daemon invocation".
pub fn run_if_requested(args: &[String]) -> bool {
    if args.first().map(String::as_str) != Some(DAEMON_ARG) {
        return false;
    }
    let config = ServeConfig {
        workers: crate::host::nproc(),
        ..ServeConfig::default()
    };
    let server = match Server::start(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("daemon: cannot start: {e}");
            std::process::exit(1);
        }
    };
    println!("listening on http://{}", server.addr());
    while !server.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(20));
    }
    server.join();
    true
}

/// A running daemon child. Dropping it kills the child and waits for it.
pub struct Daemon {
    child: Option<Child>,
    /// The address the daemon listens on.
    pub addr: SocketAddr,
}

/// How long the daemon may take to print its address.
const START_TIMEOUT: Duration = Duration::from_secs(30);

impl Daemon {
    /// Starts the daemon and waits until it answers `GET /healthz`.
    pub fn spawn() -> io::Result<Daemon> {
        let mut child = Command::new(std::env::current_exe()?)
            .arg(DAEMON_ARG)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut daemon = Daemon {
            child: Some(child),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line)?;
        daemon.addr = line
            .trim()
            .strip_prefix("listening on http://")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| io::Error::other(format!("unexpected daemon banner {line:?}")))?;
        let started = Instant::now();
        loop {
            match request_once(daemon.addr, "GET", "/healthz", None) {
                Ok(r) if r.status == 200 => return Ok(daemon),
                _ if started.elapsed() > START_TIMEOUT => {
                    return Err(io::Error::other("daemon never became healthy"))
                }
                _ => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// A fresh keep-alive connection.
    pub fn connect(&self) -> io::Result<Conn> {
        Conn::connect(self.addr)
    }

    /// One request on a fresh connection.
    pub fn request(&self, method: &str, path: &str, body: Option<&str>) -> io::Result<Response> {
        request_once(self.addr, method, path, body)
    }

    /// Asks the daemon to drain and waits for it to exit; kills it if it
    /// has not exited within ten seconds.
    pub fn stop(mut self) -> io::Result<()> {
        let _ = self.request("POST", "/shutdown", None);
        let mut child = self.child.take().expect("a running daemon has a child");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(status) = child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("daemon exited with {status}")))
                };
            }
            if Instant::now() > deadline {
                child.kill()?;
                child.wait()?;
                return Err(io::Error::other("daemon did not drain in time"));
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
