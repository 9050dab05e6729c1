//! `fearlessc serve`, `serve-bench` and `client`: the
//! compiler-as-a-service daemon (`fearless-serve`) and its clients.

use std::path::Path;

use fearless_serve::{BenchOptions, ServeOptions};

use crate::args::{
    Args, BODIES, CACHE, CLIENTS, DEADLINE, OBS, ONCE, OUT, QUEUE, REQUESTS, RETRIES, RETRY_AFTER,
    SEED, SHED_EXTRA, SOCKET, STALE_OK, WORKERS,
};
use crate::telemetry::write_file;
use crate::Command;

/// `fearlessc serve`: run the daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Serve {
    /// Socket, workers, queue capacity, cache directory and retry hint.
    pub options: ServeOptions,
    /// Run the in-process end-to-end self-test instead of serving.
    pub once: bool,
}

impl Serve {
    pub(crate) fn parse(a: &Args) -> Result<Command, String> {
        a.operands(0)?;
        let mut options = ServeOptions::new("");
        options.workers = a.last(WORKERS)?.unwrap_or(options.workers).max(1);
        options.queue_capacity = a.last(QUEUE)?.unwrap_or(options.queue_capacity).max(1);
        options.cache_dir = a.last(CACHE)?;
        options.retry_after_millis = a.last(RETRY_AFTER)?.unwrap_or(options.retry_after_millis);
        options.socket = a.last(SOCKET)?.ok_or("serve requires --socket <path>")?;
        Ok(Command::Serve(Serve {
            options,
            once: a.on(ONCE),
        }))
    }

    pub(crate) fn execute(&self) -> Result<String, String> {
        if self.once {
            return fearless_serve::self_test(&self.options.socket);
        }
        fearless_serve::Server::bind(self.options.clone())?.run()
    }
}

/// `fearlessc serve-bench`: drive a running daemon with the seeded load
/// generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeBench {
    /// Socket and workload: clients, requests per client, distinct
    /// bodies, seed (same seed ⇒ same deterministic counters) and
    /// shed-drill requests beyond the queue capacity.
    pub options: BenchOptions,
    /// Write the fearless-obs/1 journal here.
    pub obs: Option<String>,
    /// Write the BENCH_serve.json document here.
    pub out: Option<String>,
}

impl ServeBench {
    pub(crate) fn parse(a: &Args) -> Result<Command, String> {
        a.operands(0)?;
        let mut options = BenchOptions::new("");
        options.clients = a.last(CLIENTS)?.unwrap_or(options.clients).max(1);
        options.requests = a.last(REQUESTS)?.unwrap_or(options.requests).max(1);
        options.bodies = a.last(BODIES)?.unwrap_or(options.bodies).max(1);
        options.seed = a.last(SEED)?.unwrap_or(options.seed);
        options.shed_extra = a.last(SHED_EXTRA)?.unwrap_or(options.shed_extra);
        options.socket = a
            .last(SOCKET)?
            .ok_or("serve-bench requires --socket <path>")?;
        Ok(Command::ServeBench(ServeBench {
            options,
            obs: a.last(OBS)?,
            out: a.last(OUT)?,
        }))
    }

    pub(crate) fn execute(&self) -> Result<String, String> {
        let outcome = fearless_serve::run_bench(&self.options)?;
        if let Some(path) = &self.obs {
            write_file(path, "journal", &outcome.journal_text)?;
        }
        if let Some(path) = &self.out {
            write_file(path, "bench document", &outcome.bench_text)?;
        }
        Ok(outcome.summary)
    }
}

/// `fearlessc client`: send one request to a running daemon and print
/// the response body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Client {
    /// Daemon socket to connect to.
    pub socket: String,
    /// Request kind (`check`/`lint`/`flow`/`profile` or a control kind
    /// like `ping`, `stats`, `shutdown`).
    pub kind: String,
    /// File holding the request body (`-` for stdin; omitted for control
    /// kinds).
    pub path: Option<String>,
    /// Deterministic logical deadline (`deadline_millis`) to attach to
    /// the request.
    pub deadline: Option<u64>,
    /// Retry `overloaded` responses up to this many times with bounded
    /// seeded backoff.
    pub retries: Option<u32>,
    /// Tolerate a stale answer under load (`allow_stale`).
    pub stale_ok: bool,
}

impl Client {
    pub(crate) fn parse(a: &Args) -> Result<Command, String> {
        let operands = a.operands(2)?;
        Ok(Command::Client(Client {
            deadline: a.last(DEADLINE)?,
            retries: a
                .last::<u64>(RETRIES)?
                .map(|n| n.min(u32::MAX as u64) as u32),
            stale_ok: a.on(STALE_OK),
            socket: a.last(SOCKET)?.ok_or("client requires --socket <path>")?,
            kind: operands
                .first()
                .cloned()
                .ok_or("client requires a request kind")?,
            path: operands.get(1).cloned(),
        }))
    }

    pub(crate) fn execute(&self, src: &str) -> Result<String, String> {
        let mut client = fearless_serve::Client::connect(Path::new(&self.socket))?;
        let mut req = fearless_serve::Request::new(self.kind.clone(), src);
        req.deadline_millis = self.deadline;
        req.allow_stale = self.stale_ok;
        let response = match self.retries {
            Some(n) => {
                let policy = fearless_serve::RetryPolicy {
                    max_retries: n,
                    ..fearless_serve::RetryPolicy::new()
                };
                client.send_with_retry(&req, policy)?.0
            }
            None => client.send(&req)?,
        };
        if response.code == 0 {
            Ok(response.output)
        } else {
            Err(response.output)
        }
    }
}
