//! End-to-end daemon tests: the full protocol self-test, cache
//! write-back across daemon restarts, and serve-bench determinism.

use std::path::PathBuf;

use fearless_incr::disk::{DiskCache, LoadOutcome};
use fearless_serve::bench::{run_bench, BenchOptions};
use fearless_serve::client::{self_test, stat_counter, Client, SMOKE_PROGRAM};
use fearless_serve::protocol::codes;
use fearless_serve::server::{ServeOptions, Server};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fearless-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn self_test_exercises_the_whole_protocol() {
    let dir = scratch("selftest");
    let transcript = self_test(&dir.join("serve.sock")).expect("self-test");
    for probe in [
        "ping → pong",
        "dedupe → byte-identical response",
        "shed → overloaded with retry hint",
        "codes 2/3/4/5/6",
        "deadline 0 → deadline-exceeded (code 9)",
        "stale → served stale: true under load",
        "worker panic ×2 → quarantined (code 70)",
        "shutdown drained cleanly",
        "all probes passed",
    ] {
        assert!(
            transcript.contains(probe),
            "missing `{probe}`:\n{transcript}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn nesting_bomb_frame_is_malformed_and_the_daemon_survives() {
    let dir = scratch("nesting-bomb");
    let socket = dir.join("serve.sock");
    let spawned = Server::spawn(ServeOptions::new(&socket)).expect("spawn");
    let mut c = Client::connect(&socket).expect("connect");
    // 100 KB of `[`: well under MAX_FRAME, but unbounded recursion on it
    // would overflow the connection thread's stack and abort the daemon.
    let bomb = "[".repeat(100_000);
    let r = c.request_raw(bomb.as_bytes()).expect("bomb response");
    assert_eq!(r.code, codes::MALFORMED, "{}", r.output);
    // In-frame failures keep the connection usable.
    let r = c.request("ping", "").expect("ping on the same connection");
    assert_eq!(r.code, codes::OK, "{}", r.output);
    let mut fresh = Client::connect(&socket).expect("reconnect");
    let r = fresh.request("ping", "").expect("ping on a new connection");
    assert_eq!(r.code, codes::OK, "{}", r.output);
    let r = fresh.request("shutdown", "").expect("shutdown");
    assert_eq!(r.code, codes::OK, "{}", r.output);
    spawned.shutdown_and_join().expect("join");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_persists_the_cache_and_a_restart_runs_warm() {
    let dir = scratch("cache");
    let socket = dir.join("serve.sock");
    let cache_dir = dir.join("cache");

    // First daemon: cold cache, one check, draining shutdown.
    let mut opts = ServeOptions::new(&socket);
    opts.cache_dir = Some(cache_dir.clone());
    let spawned = Server::spawn(opts).expect("spawn");
    let mut c = Client::connect(&socket).expect("connect");
    let first = c.request("check", SMOKE_PROGRAM).expect("check");
    assert_eq!(first.code, codes::OK, "{}", first.output);
    let r = c.request("shutdown", "").expect("shutdown");
    assert_eq!(r.code, codes::OK, "{}", r.output);
    spawned.shutdown_and_join().expect("join");

    // The fingerprint cache must be on disk and loadable — not merely
    // present but uncorrupted.
    let cache = DiskCache::load(&cache_dir);
    assert_eq!(
        cache.load_outcome(),
        LoadOutcome::Warm,
        "persisted cache must load warm"
    );
    assert!(!cache.is_empty(), "cache must have entries after a check");

    // Second daemon over the same cache: identical response bytes.
    let mut opts = ServeOptions::new(&socket);
    opts.cache_dir = Some(cache_dir);
    let spawned = Server::spawn(opts).expect("respawn");
    let mut c = Client::connect(&socket).expect("reconnect");
    let warm = c.request("check", SMOKE_PROGRAM).expect("warm check");
    assert_eq!(
        warm.to_json(),
        first.to_json(),
        "identical bodies must yield byte-identical responses across restarts"
    );
    let r = c.request("shutdown", "").expect("shutdown 2");
    assert_eq!(r.code, codes::OK);
    spawned.shutdown_and_join().expect("join 2");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wal_replay_recovers_a_crashed_daemon_byte_identically() {
    let dir = scratch("crash");
    let socket = dir.join("serve.sock");
    let cache_dir = dir.join("cache");
    let crash_dir = dir.join("cache-at-crash");

    // Daemon A: serve one check, then snapshot the cache directory
    // *while it is still running* — exactly the bytes a kill -9 would
    // leave behind: the cache log with the entry in its journal, not
    // yet compacted by a clean shutdown.
    let mut opts = ServeOptions::new(&socket);
    opts.cache_dir = Some(cache_dir.clone());
    let spawned = Server::spawn(opts).expect("spawn");
    let mut c = Client::connect(&socket).expect("connect");
    let first = c.request("check", SMOKE_PROGRAM).expect("check");
    assert_eq!(first.code, codes::OK, "{}", first.output);

    std::fs::create_dir_all(&crash_dir).unwrap();
    for entry in std::fs::read_dir(&cache_dir).unwrap() {
        let entry = entry.unwrap();
        if entry.file_type().unwrap().is_file() {
            std::fs::copy(entry.path(), crash_dir.join(entry.file_name())).unwrap();
        }
    }
    assert!(
        !crash_dir.join("check-cache.wal").exists(),
        "the cache log is the only journal"
    );
    let at_crash = DiskCache::load(&crash_dir);
    assert_eq!(at_crash.load_outcome(), LoadOutcome::Warm);
    assert!(
        at_crash.replayed() > 0,
        "the entry must sit in the journal, not in a compacted snapshot — \
         otherwise this test is not exercising crash recovery"
    );
    let r = c.request("shutdown", "").expect("shutdown");
    assert_eq!(r.code, codes::OK);
    spawned.shutdown_and_join().expect("join");

    // Daemon B over the crash snapshot: replay must restore the cache
    // and the response bytes must match daemon A's exactly.
    let socket_b = dir.join("serve-b.sock");
    let mut opts = ServeOptions::new(&socket_b);
    opts.cache_dir = Some(crash_dir);
    let spawned = Server::spawn(opts).expect("respawn");
    let mut c = Client::connect(&socket_b).expect("reconnect");
    let stats = c.request("stats", "").expect("stats");
    assert!(
        stats.output.contains("\"wal_replayed\"") && !stats.output.contains("\"wal_replayed\": 0"),
        "stats must count the replayed journal records:\n{}",
        stats.output
    );
    let recovered = c.request("check", SMOKE_PROGRAM).expect("warm check");
    assert_eq!(
        recovered.to_json(),
        first.to_json(),
        "post-crash responses must be byte-identical to pre-crash ones"
    );
    let r = c.request("shutdown", "").expect("shutdown 2");
    assert_eq!(r.code, codes::OK);
    spawned.shutdown_and_join().expect("join 2");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_pool_holds_only_the_previous_reset_epoch() {
    let dir = scratch("stale-epoch");
    let socket = dir.join("serve.sock");
    let mut opts = ServeOptions::new(&socket);
    opts.queue_capacity = 1;
    let spawned = Server::spawn(opts).expect("spawn");
    let mut c = Client::connect(&socket).expect("connect");
    let old = "def two_epochs_ago(x: int): int { x + 1 }\n";
    let last = "def last_epoch(x: int): int { x + 2 }\n";
    for body in [old, last] {
        let r = c.request("lint", body).expect("lint");
        assert_eq!(r.code, codes::OK, "{}", r.output);
        let r = c.request("reset", "").expect("reset");
        assert_eq!(r.code, codes::OK, "{}", r.output);
    }

    // Pause and fill the one-slot queue so every new key is shed-bound.
    let r = c.request("pause", "").expect("pause");
    assert_eq!(r.code, codes::OK, "{}", r.output);
    let parked = {
        let socket = socket.clone();
        std::thread::spawn(move || {
            Client::connect(&socket)
                .expect("connect parked")
                .request("check", "def fill(x: int): int { x }\n")
                .expect("parked check")
        })
    };
    while stat_counter(
        &c.request("stats", "").expect("stats").output,
        "work_requests",
    ) < 1
    {
        std::thread::sleep(std::time::Duration::from_millis(2));
    }

    let r = c.request_stale_ok("lint", old).expect("two epochs ago");
    assert_eq!(r.code, codes::OVERLOADED, "{}", r.output);
    let r = c.request_stale_ok("lint", last).expect("last epoch");
    assert_eq!(r.code, codes::OK, "{}", r.output);
    assert!(r.stale, "the last epoch's answer must come back stale");

    let r = c.request("resume", "").expect("resume");
    assert_eq!(r.code, codes::OK, "{}", r.output);
    assert_eq!(parked.join().expect("parked client").code, codes::OK);
    let r = c.request("shutdown", "").expect("shutdown");
    assert_eq!(r.code, codes::OK);
    spawned.shutdown_and_join().expect("join");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_bench_is_deterministic_across_runs() {
    let dir = scratch("bench");
    let socket = dir.join("serve.sock");
    let mut sopts = ServeOptions::new(&socket);
    sopts.workers = 2;
    sopts.queue_capacity = 4;
    let spawned = Server::spawn(sopts).expect("spawn");

    let mut bopts = BenchOptions::new(&socket);
    bopts.clients = 3;
    bopts.requests = 4;
    bopts.bodies = 3;
    bopts.shed_extra = 2;
    let one = run_bench(&bopts).expect("bench run 1");
    let two = run_bench(&bopts).expect("bench run 2");

    // Identical request streams → identical journals modulo `_nondet`.
    let strip = |text: &str| {
        fearless_trace::strip_nondet(&fearless_trace::parse_json(text).expect("journal json"))
            .render()
    };
    assert_eq!(
        strip(&one.journal_text),
        strip(&two.journal_text),
        "journal deterministic portions must be byte-identical"
    );

    // The BENCH documents agree on every deterministic counter; only
    // `_nondet` leaves may differ — which is exactly a 0-regression
    // bench-diff at any threshold.
    let b1 = fearless_trace::parse_json(&one.bench_text).expect("bench json 1");
    let b2 = fearless_trace::parse_json(&two.bench_text).expect("bench json 2");
    let diff = fearless_trace::bench_diff(&b1, &b2, 0);
    assert!(
        !diff.has_regressions(),
        "deterministic counters drifted:\n{}",
        diff.render()
    );
    assert_eq!(strip(&one.bench_text), strip(&two.bench_text));

    // The report renders from the journal and is itself deterministic.
    let r1 = fearless_serve::render_serve_report(&one.journal_text).expect("report");
    let r2 = fearless_serve::render_serve_report(&two.journal_text).expect("report 2");
    assert!(
        r1.contains("serve report: 3 client(s), 12 request(s)"),
        "{r1}"
    );
    assert!(r1.contains("shed drill:"), "{r1}");

    // Wall-clock lines differ between reports; the lane table (every
    // line except histogram summaries of nondet lanes) must not.
    let stable = |r: &str| {
        r.lines()
            .filter(|l| !l.contains("_nondet"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(stable(&r1), stable(&r2));

    let mut c = Client::connect(&socket).expect("connect");
    let r = c.request("shutdown", "").expect("shutdown");
    assert_eq!(r.code, codes::OK);
    spawned.shutdown_and_join().expect("join");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn profile_responses_match_their_golden() {
    // The `profile` kind's response bytes, for a corpus body that checks
    // and for one that does not. Re-bless with
    // BLESS=1 cargo test -p fearless-serve --test serve_e2e
    let dir = scratch("profile-golden");
    let socket = dir.join("serve.sock");
    let spawned = Server::spawn(ServeOptions::new(&socket)).expect("spawn");
    let mut c = Client::connect(&socket).expect("connect");
    let entries = fearless_corpus::all_entries();
    let pass = entries
        .iter()
        .find(|e| e.accepted)
        .expect("an accepted entry");
    let fail = entries
        .iter()
        .find(|e| !e.accepted)
        .expect("a rejected entry");
    let mut actual = String::new();
    for entry in [pass, fail] {
        let r = c.request("profile", &entry.source).expect("profile");
        actual.push_str(&format!("== {} ==\n{}", entry.name, r.to_json()));
    }
    let r = c.request("shutdown", "").expect("shutdown");
    assert_eq!(r.code, codes::OK, "{}", r.output);
    spawned.shutdown_and_join().expect("join");
    let _ = std::fs::remove_dir_all(&dir);

    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/profile_responses.txt");
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden ({e}); run with BLESS=1"));
    assert!(expected == actual, "profile responses drifted:\n{actual}");
}
