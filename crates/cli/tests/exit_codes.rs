//! Integration tests for the driver's exit-status contract and the
//! `chaos` subcommand surface: file-loading failures are rendered
//! diagnostics with *distinct* statuses (never panics, never a generic
//! `1`), and internal panics stop at the ICE boundary.

use fearless_cli::{
    catch_ice, main_with_code, EXIT_ICE, EXIT_INVALID_UTF8, EXIT_MISSING_FILE, EXIT_UNREADABLE,
};

fn args(items: &[&str]) -> Vec<String> {
    items.iter().map(|x| x.to_string()).collect()
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("fearless-cli-exit-{tag}-{}", std::process::id()))
}

#[test]
fn missing_file_is_a_diagnostic_with_its_own_status() {
    for cmd in ["check", "verify", "lint", "explain", "flow"] {
        let mut a = vec![cmd.to_string(), "/no/such/file.fc".to_string()];
        if cmd == "explain" {
            a.extend(args(&["--fn", "f"]));
        }
        let (result, code) = main_with_code(&a);
        let msg = result.unwrap_err();
        assert_eq!(code, EXIT_MISSING_FILE, "{cmd}: {msg}");
        assert!(msg.contains("no such file"), "{cmd}: {msg}");
        assert!(msg.contains("/no/such/file.fc"), "{cmd}: {msg}");
    }
}

/// A misspelled flag is a usage error (status 1), never a file name.
#[test]
fn misspelled_flag_is_a_usage_error_not_a_missing_file() {
    let (result, code) = main_with_code(&args(&["check", "--corpsu"]));
    let msg = result.unwrap_err();
    assert_ne!(code, EXIT_MISSING_FILE, "{msg}");
    assert_eq!(code, 1, "{msg}");
    assert_eq!(msg, "unexpected argument `--corpsu`");
}

#[test]
fn unreadable_file_is_a_diagnostic_with_its_own_status() {
    // A directory exists but cannot be read as a file.
    let dir = temp_path("dir");
    std::fs::create_dir_all(&dir).unwrap();
    let (result, code) = main_with_code(&args(&["check", dir.to_str().unwrap()]));
    let _ = std::fs::remove_dir_all(&dir);
    let msg = result.unwrap_err();
    assert_eq!(code, EXIT_UNREADABLE, "{msg}");
    assert!(msg.contains("cannot read"), "{msg}");
}

#[test]
fn invalid_utf8_is_a_diagnostic_with_its_own_status() {
    let path = temp_path("utf8");
    std::fs::write(&path, [b'd', b'e', b'f', 0xff, 0xfe, b'!']).unwrap();
    let (result, code) = main_with_code(&args(&["check", path.to_str().unwrap()]));
    let _ = std::fs::remove_file(&path);
    let msg = result.unwrap_err();
    assert_eq!(code, EXIT_INVALID_UTF8, "{msg}");
    assert!(msg.contains("not valid UTF-8"), "{msg}");
    assert!(msg.contains("offset 3"), "{msg}");
}

#[test]
fn type_errors_keep_the_generic_failure_status() {
    let path = temp_path("typeerr");
    std::fs::write(&path, "def f(x: int) : bool { x }").unwrap();
    let (result, code) = main_with_code(&args(&["check", path.to_str().unwrap()]));
    let _ = std::fs::remove_file(&path);
    assert!(result.is_err());
    assert_eq!(code, 1, "diagnostics stay on status 1");
}

#[test]
fn ice_boundary_renders_panics_with_its_own_status() {
    let (result, code) = catch_ice(|| panic!("synthetic driver bug"));
    let msg = result.unwrap_err();
    assert_eq!(code, EXIT_ICE);
    assert!(msg.contains("internal error"), "{msg}");
    assert!(msg.contains("synthetic driver bug"), "{msg}");
    assert!(msg.contains("bug in fearlessc"), "{msg}");
}

#[test]
fn ice_boundary_passes_clean_runs_through() {
    let (result, code) = catch_ice(|| (Ok("fine".to_string()), 0));
    assert_eq!(result.unwrap(), "fine");
    assert_eq!(code, 0);
}

/// Each of the FA005–FA007 flow lints participates in the
/// `--deny-warnings` exit-code contract: findings print to stdout and
/// the process exits 1, exactly like the older lints.
#[test]
fn flow_lints_honor_the_deny_warnings_contract() {
    let structs = "struct data { value: int }
         struct sll_node { iso payload : data; iso next : sll_node? }
         struct sll { iso hd : sll_node? }
         struct dll_node { iso payload : data; next : dll_node; prev : dll_node }";
    let cases = [
        (
            "FA005",
            "def ship(l : sll) : unit {
               let some(n) = take(l.hd) in { send(n); } else { unit; };
               unit
             }",
        ),
        (
            "FA006",
            "def double_check(n : dll_node) : int {
               let m = n.next;
               if disconnected(m, n) { 1 } else {
                 if disconnected(m, n) { 2 } else { 3 }
               }
             }",
        ),
        (
            "FA007",
            "def self_check(n : dll_node) : int {
               if disconnected(n, n) { 1 } else { 2 }
             }",
        ),
    ];
    for (code_name, func) in cases {
        let path = temp_path(&format!("lint-{code_name}"));
        std::fs::write(&path, format!("{structs}\n{func}")).unwrap();
        let plain = args(&["lint", path.to_str().unwrap(), "--format", "json"]);
        let (result, code) = main_with_code(&plain);
        let out = result.unwrap();
        assert!(out.contains(code_name), "{code_name}: {out}");
        assert_eq!(code, 0, "{code_name}: findings alone must not fail");

        let mut deny = plain.clone();
        deny.push("--deny-warnings".to_string());
        let (result, code) = main_with_code(&deny);
        let _ = std::fs::remove_file(&path);
        let out = result.unwrap();
        assert!(out.contains(code_name), "{code_name}: {out}");
        assert_eq!(code, 1, "{code_name}: --deny-warnings must exit 1");
    }
}

#[test]
fn flow_subcommand_works_end_to_end_with_a_cache() {
    let path = temp_path("flow-src");
    std::fs::write(
        &path,
        "struct data { value: int }
         def set_value(d : data) : unit { d.value = 7; }",
    )
    .unwrap();
    let dir = temp_path("flow-cache");
    let cmd = args(&[
        "flow",
        path.to_str().unwrap(),
        "--cache",
        dir.to_str().unwrap(),
    ]);
    let (cold, code) = main_with_code(&cmd);
    let cold = cold.unwrap();
    assert_eq!(code, 0);
    let (warm, code) = main_with_code(&cmd);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(code, 0);
    assert_eq!(cold, warm.unwrap(), "warm run must be byte-identical");
    assert!(cold.contains("\"fearless-flow/1\""), "{cold}");
    assert!(cold.contains("\"set_value\""), "{cold}");
}

#[test]
fn chaos_flow_facts_sweep_is_clean() {
    let sweep = args(&[
        "chaos",
        "--corpus",
        "--seeds",
        "2",
        "--flow-facts",
        "--json",
    ]);
    let (a, code) = main_with_code(&sweep);
    let a = a.unwrap();
    assert_eq!(code, 0, "{a}");
    assert!(a.contains("\"flow_facts\": true"), "{a}");
    assert!(a.contains("\"sanitize_skipped\""), "{a}");
    let (b, _) = main_with_code(&sweep);
    assert_eq!(a, b.unwrap(), "flow-facts sweep must stay deterministic");
}

#[test]
fn chaos_corpus_sweep_is_clean_and_json_is_deterministic() {
    let sweep = args(&["chaos", "--corpus", "--seeds", "3", "--json"]);
    let (a, code) = main_with_code(&sweep);
    let a = a.unwrap();
    assert_eq!(code, 0);
    let (b, _) = main_with_code(&sweep);
    assert_eq!(a, b.unwrap(), "identical seeds must give identical bytes");
    assert!(a.contains("\"seed_digests\""), "{a}");

    let (text, code) = main_with_code(&args(&["chaos", "--corpus", "--seeds", "2"]));
    assert_eq!(code, 0);
    assert!(text.unwrap().contains("all oracles held"));
}

#[test]
fn chaos_on_a_source_file_works_end_to_end() {
    let path = temp_path("chaos-src");
    std::fs::write(
        &path,
        "struct data { value: int }
         def ping() : unit { send(new data(1)); unit }
         def pong() : int { recv(data).value }",
    )
    .unwrap();
    let (result, code) = main_with_code(&args(&[
        "chaos",
        path.to_str().unwrap(),
        "--seeds",
        "3",
        "--faults",
        "delay,reorder",
    ]));
    let _ = std::fs::remove_file(&path);
    let out = result.unwrap();
    assert_eq!(code, 0);
    assert!(out.contains("delay,reorder"), "{out}");
}

#[test]
fn chaos_fuzz_smoke_runs_clean() {
    let (result, code) = main_with_code(&args(&["chaos", "fuzz", "--cases", "60", "--seed", "11"]));
    let out = result.unwrap();
    assert_eq!(code, 0);
    assert!(out.contains("60 case(s)"), "{out}");
    assert!(out.contains("no panic escaped"), "{out}");
}

#[test]
fn chaos_drills_smoke_runs_clean() {
    let dir = temp_path("chaos-drills");
    let (result, code) = main_with_code(&args(&[
        "chaos",
        "drills",
        "--seed",
        "5",
        "--dir",
        dir.to_str().unwrap(),
    ]));
    let out = result.unwrap();
    assert_eq!(code, 0);
    assert!(out.contains("byte-identical to cold"), "{out}");
}

#[test]
fn chaos_argument_validation() {
    // Schedules mode needs exactly one input.
    assert_eq!(main_with_code(&args(&["chaos"])).1, 1);
    assert_eq!(main_with_code(&args(&["chaos", "f.fc", "--corpus"])).1, 1);
    // Fuzz and drills generate their own inputs.
    assert_eq!(main_with_code(&args(&["chaos", "fuzz", "--corpus"])).1, 1);
    assert_eq!(main_with_code(&args(&["chaos", "drills", "f.fc"])).1, 1);
    // Bad fault specs are parse errors.
    assert_eq!(
        main_with_code(&args(&["chaos", "--corpus", "--faults", "bogus"])).1,
        1
    );
}
