//! SIGTERM drain under load, in its own test binary: the TERM flag is
//! process-global, so this drill cannot share a process with the other
//! daemon tests.
//!
//! The scenario the guard layer promises (`docs/GUARD.md`): a daemon
//! with one worker pinned on a long job and more work queued behind it
//! receives SIGTERM. The in-flight job must *complete* with a real
//! verdict, every queued job must be answered with a structured code 8
//! (never a hang or a dropped connection), the fingerprint cache must
//! be persisted exactly once as a compacted snapshot, and a
//! successor daemon in the same process must start with a fresh TERM
//! flag, replay nothing, and serve byte-identical warm responses.

use std::path::PathBuf;
use std::time::Duration;

use fearless_incr::disk::{DiskCache, LoadOutcome};
use fearless_serve::client::Client;
use fearless_serve::protocol::codes;
use fearless_serve::server::{install_sigterm, ServeOptions, Server, STALL_MARKER};

extern "C" {
    fn raise(signum: i32) -> i32;
}

const SIGTERM: i32 = 15;

const WARM_PROGRAM: &str = "def warm(x: int): int { x + 1 }\n";

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fearless-sigterm-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Parses `"name": <digits>` out of a stats document.
fn stat(output: &str, name: &str) -> u64 {
    let needle = format!("\"{name}\": ");
    let at = output.find(&needle).unwrap_or_else(|| {
        panic!("stat `{name}` missing from:\n{output}");
    });
    output[at + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap()
}

/// Polls `stats` until `pred` holds (2s budget, 1ms ticks).
fn wait_for(c: &mut Client, what: &str, pred: impl Fn(&str) -> bool) {
    for _ in 0..2000 {
        let r = c.request("stats", "").expect("stats");
        if pred(&r.output) {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!("timed out waiting for {what}");
}

#[test]
fn sigterm_drains_inflight_and_rejects_queued_with_code_8() {
    install_sigterm();
    let dir = scratch("drain");
    let socket = dir.join("serve.sock");
    let cache_dir = dir.join("cache");

    let mut opts = ServeOptions::new(&socket);
    opts.workers = 1;
    opts.queue_capacity = 8;
    opts.cache_dir = Some(cache_dir.clone());
    opts.inject_faults = true;
    let spawned = Server::spawn(opts.clone()).expect("spawn");

    // Warm the cache with one completed check before the storm.
    let mut stats = Client::connect(&socket).expect("connect");
    let warm = stats.request("check", WARM_PROGRAM).expect("warm check");
    assert_eq!(warm.code, codes::OK, "{}", warm.output);

    // Pin the single worker on a stalled job (in-flight at signal
    // time), then pile two more jobs into the queue behind it.
    let sock_a = socket.clone();
    let inflight = std::thread::spawn(move || {
        let mut c = Client::connect(&sock_a).expect("connect inflight");
        c.request("check", &format!("{STALL_MARKER}\n"))
            .expect("inflight response")
    });
    wait_for(&mut stats, "the stalled job to be in-flight", |out| {
        stat(out, "inflight_nondet") >= 1
    });
    let queued: Vec<_> = (0..2)
        .map(|i| {
            let sock = socket.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&sock).expect("connect queued");
                c.request("check", &format!("def q{i}(x: int): int {{ x + {i} }}\n"))
                    .expect("queued response")
            })
        })
        .collect();
    wait_for(&mut stats, "both jobs to queue behind the stall", |out| {
        stat(out, "queue_len_nondet") >= 2
    });

    // SIGTERM lands while the worker is mid-stall and the queue is
    // full. The accept loop must notice within one poll tick and
    // drain: queued jobs answered with 8, the stalled job finished.
    assert_eq!(unsafe { raise(SIGTERM) }, 0, "raise(SIGTERM)");

    let inflight = inflight.join().expect("inflight thread");
    assert_ne!(
        inflight.code,
        codes::SHUTTING_DOWN,
        "the in-flight job must complete with a real verdict, got: {}",
        inflight.output
    );
    assert_eq!(
        inflight.code,
        codes::DIAGNOSTIC,
        "the stall marker is not a program; expected a diagnostic, got: {}",
        inflight.output
    );
    for handle in queued {
        let r = handle.join().expect("queued thread");
        assert_eq!(
            r.code,
            codes::SHUTTING_DOWN,
            "queued jobs must be rejected with code 8, got {}: {}",
            r.code,
            r.output
        );
    }

    let summary = spawned.shutdown_and_join().expect("join drained daemon");
    assert!(
        summary.contains("drained and stopped"),
        "unexpected summary: {summary}"
    );

    // The cache was persisted exactly once on the way down, compacted —
    // a load must come up warm with zero replay debt.
    let cache = DiskCache::load(&cache_dir);
    assert_eq!(cache.load_outcome(), LoadOutcome::Warm, "cache persisted");
    assert!(!cache.is_empty(), "warm check must have left entries");

    // A successor daemon in the same process: the TERM flag was
    // consumed by the drain (not left latched), nothing replays, and
    // warm responses are byte-identical.
    let spawned = Server::spawn(opts).expect("respawn after SIGTERM");
    let mut c = Client::connect(&socket).expect("reconnect");
    let st = c.request("stats", "").expect("stats after restart");
    assert_eq!(
        stat(&st.output, "wal_replayed"),
        0,
        "a clean shutdown leaves nothing to replay: {}",
        st.output
    );
    let again = c.request("check", WARM_PROGRAM).expect("warm check 2");
    assert_eq!(
        again.to_json(),
        warm.to_json(),
        "warm responses must be byte-identical across the restart"
    );
    let r = c.request("shutdown", "").expect("shutdown");
    assert_eq!(r.code, codes::OK, "{}", r.output);
    spawned.shutdown_and_join().expect("join successor");
    let _ = std::fs::remove_dir_all(&dir);
}
