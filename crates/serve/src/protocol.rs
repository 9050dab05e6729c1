//! The `fearless-serve/1` wire protocol.
//!
//! A connection is a sequence of *frames* in each direction. A frame is
//! a 4-byte big-endian length followed by that many bytes of UTF-8
//! JSON. Requests carry a `kind` (a work kind — `check`, `lint`,
//! `flow`, `profile` — or a control kind) and, for work kinds, the
//! program source in `body`. Responses carry a `status`
//! (`ok`/`error`/`overloaded`), a numeric `code`, and the rendered
//! `output`; overloaded responses add a `retry_after_millis` hint.
//!
//! Malformed traffic never kills the daemon: every recognizable failure
//! gets a structured error response with a distinct [`code`](codes),
//! mirroring `fearlessc chaos`'s 2/3/4 exit-code contract for broken
//! inputs. Frames that desynchronize the stream (oversized or truncated)
//! are answered and then the connection is closed; in-frame failures
//! (invalid UTF-8, malformed JSON, unknown kind) keep the connection
//! usable.

use std::io::{Read, Write};

use fearless_trace::Json;

/// Schema tag carried by every request and response document.
pub const SCHEMA: &str = "fearless-serve/1";

/// Frames larger than this are rejected with [`codes::OVERSIZED`]
/// before any allocation happens.
pub const MAX_FRAME: u32 = 4 * 1024 * 1024;

/// Response codes. Work responses use `OK`/`DIAGNOSTIC`; protocol
/// failures get the distinct codes the edge-case tests pin (oversized =
/// 2, truncated = 3, invalid UTF-8 = 4 mirror the chaos subcommand's
/// exit-code contract for broken input files).
pub mod codes {
    /// The request was served.
    pub const OK: u64 = 0;
    /// The program was processed and produced diagnostics (a type or
    /// parse error); `output` is the rendered diagnostic.
    pub const DIAGNOSTIC: u64 = 1;
    /// The frame declared a length above [`super::MAX_FRAME`]; the
    /// connection closes after the response.
    pub const OVERSIZED: u64 = 2;
    /// The stream ended mid-frame; the response goes out on the
    /// (possibly half-open) socket and the connection closes.
    pub const TRUNCATED: u64 = 3;
    /// The frame body was not valid UTF-8.
    pub const INVALID_UTF8: u64 = 4;
    /// The request named a kind the daemon does not know.
    pub const UNKNOWN_KIND: u64 = 5;
    /// The frame body was not a JSON object with the required fields.
    pub const MALFORMED: u64 = 6;
    /// The work queue was full; the response carries a
    /// `retry_after_millis` hint and the request was *not* enqueued.
    pub const OVERLOADED: u64 = 7;
    /// The daemon is draining for shutdown and no longer accepts work.
    pub const SHUTTING_DOWN: u64 = 8;
    /// The request carried a `deadline_millis` budget and the work's
    /// *logical* cost (derivation nodes, converted at
    /// `DEADLINE_NODES_PER_MILLI`) exceeded it — a deterministic
    /// timeout: the same request and body always hit (or always miss)
    /// the same deadline, regardless of machine speed.
    pub const DEADLINE_EXCEEDED: u64 = 9;
    /// A panic escaped the request handler (an internal error in the
    /// daemon, never in the client's program) — the ICE boundary.
    pub const ICE: u64 = 70;
}

/// The work kinds a request may name, in protocol order.
pub const WORK_KINDS: &[&str] = &["check", "lint", "flow", "profile"];

/// The control kinds (no `body` required).
pub const CONTROL_KINDS: &[&str] = &["ping", "stats", "pause", "resume", "reset", "shutdown"];

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// One of [`WORK_KINDS`] or [`CONTROL_KINDS`].
    pub kind: String,
    /// Program source for work kinds (empty for control kinds).
    pub body: String,
    /// Optional logical deadline for work kinds. Enforced
    /// deterministically against the response's `cost_nodes` (see
    /// [`codes::DEADLINE_EXCEEDED`]); absent means no deadline.
    pub deadline_millis: Option<u64>,
    /// When `true`, the client tolerates a previous-epoch answer: under
    /// load the daemon may serve a memoized pre-`reset` result marked
    /// `stale: true` instead of shedding with [`codes::OVERLOADED`].
    pub allow_stale: bool,
}

impl Request {
    /// A request with no deadline and no staleness tolerance.
    pub fn new(kind: impl Into<String>, body: impl Into<String>) -> Request {
        Request {
            kind: kind.into(),
            body: body.into(),
            deadline_millis: None,
            allow_stale: false,
        }
    }

    /// Renders the request document.
    pub fn to_json(&self) -> String {
        let mut fields = vec![
            ("schema".to_string(), Json::str(SCHEMA)),
            ("kind".to_string(), Json::str(&self.kind)),
            ("body".to_string(), Json::str(&self.body)),
        ];
        if let Some(ms) = self.deadline_millis {
            fields.push(("deadline_millis".to_string(), Json::U64(ms)));
        }
        if self.allow_stale {
            fields.push(("allow_stale".to_string(), Json::Bool(true)));
        }
        Json::Obj(fields).render()
    }
}

/// A response document (the parsed form; the wire carries its JSON).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// `"ok"`, `"error"`, or `"overloaded"`.
    pub status: String,
    /// One of [`codes`].
    pub code: u64,
    /// Rendered output: a report, a diagnostic, or a JSON document.
    pub output: String,
    /// Backoff hint, present only on `overloaded` responses.
    pub retry_after_millis: Option<u64>,
    /// Logical cost of the work in derivation nodes (serialized as
    /// `cost_nodes`), present on successful work responses; what
    /// deadlines are enforced against.
    pub cost: Option<u64>,
    /// `true` when this is a previously-memoized result served in the
    /// stale-while-revalidate degrade path instead of shedding.
    pub stale: bool,
}

impl Response {
    /// An `ok` response.
    pub fn ok(output: impl Into<String>) -> Response {
        Response {
            status: "ok".to_string(),
            code: codes::OK,
            output: output.into(),
            retry_after_millis: None,
            cost: None,
            stale: false,
        }
    }

    /// An `error` response with a [`codes`] code.
    pub fn error(code: u64, output: impl Into<String>) -> Response {
        Response {
            status: "error".to_string(),
            code,
            output: output.into(),
            retry_after_millis: None,
            cost: None,
            stale: false,
        }
    }

    /// The load-shedding response: the queue was full, come back in
    /// `retry_after_millis`.
    pub fn overloaded(retry_after_millis: u64) -> Response {
        Response {
            status: "overloaded".to_string(),
            code: codes::OVERLOADED,
            output: "work queue full".to_string(),
            retry_after_millis: Some(retry_after_millis),
            cost: None,
            stale: false,
        }
    }

    /// Renders the response document (deterministic bytes: identical
    /// responses render identically).
    pub fn to_json(&self) -> String {
        let mut fields = vec![
            ("schema".to_string(), Json::str(SCHEMA)),
            ("status".to_string(), Json::str(&self.status)),
            ("code".to_string(), Json::U64(self.code)),
            ("output".to_string(), Json::str(&self.output)),
        ];
        if let Some(ms) = self.retry_after_millis {
            fields.push(("retry_after_millis".to_string(), Json::U64(ms)));
        }
        if let Some(cost) = self.cost {
            fields.push(("cost_nodes".to_string(), Json::U64(cost)));
        }
        if self.stale {
            fields.push(("stale".to_string(), Json::Bool(true)));
        }
        Json::Obj(fields).render()
    }

    /// Parses a response document.
    pub fn from_json(text: &str) -> Option<Response> {
        let mut root = fearless_incr::parse_json(text)?;
        if !matches!(root.take("schema"), Some(Json::Str(s)) if s == SCHEMA) {
            return None;
        }
        let Some(Json::Str(status)) = root.take("status") else {
            return None;
        };
        let Some(Json::U64(code)) = root.take("code") else {
            return None;
        };
        let Some(Json::Str(output)) = root.take("output") else {
            return None;
        };
        let retry_after_millis = match root.take("retry_after_millis") {
            Some(Json::U64(n)) => Some(n),
            _ => None,
        };
        let cost = match root.take("cost_nodes") {
            Some(Json::U64(n)) => Some(n),
            _ => None,
        };
        let stale = matches!(root.take("stale"), Some(Json::Bool(true)));
        Some(Response {
            status,
            code,
            output,
            retry_after_millis,
            cost,
            stale,
        })
    }
}

/// What [`read_frame`] saw on the stream.
#[derive(Debug)]
pub enum Frame {
    /// A complete frame body.
    Body(Vec<u8>),
    /// Clean end of stream (no bytes of a next frame).
    Eof,
    /// The declared length exceeded [`MAX_FRAME`]; the stream is
    /// desynchronized and must be closed after responding.
    Oversized(u32),
    /// The stream ended mid-header or mid-body.
    Truncated,
}

/// Reads one length-prefixed frame.
///
/// # Errors
///
/// Propagates I/O errors other than a clean or mid-frame EOF (those are
/// [`Frame::Eof`] / [`Frame::Truncated`]).
pub fn read_frame(stream: &mut impl Read, max: u32) -> Result<Frame, String> {
    let mut header = [0u8; 4];
    match read_exact_or_eof(stream, &mut header) {
        ReadOutcome::Full => {}
        ReadOutcome::Empty => return Ok(Frame::Eof),
        ReadOutcome::Partial => return Ok(Frame::Truncated),
        ReadOutcome::Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(header);
    if len > max {
        return Ok(Frame::Oversized(len));
    }
    let mut body = vec![0u8; len as usize];
    match read_exact_or_eof(stream, &mut body) {
        ReadOutcome::Full => Ok(Frame::Body(body)),
        ReadOutcome::Empty | ReadOutcome::Partial => {
            if len == 0 {
                Ok(Frame::Body(body))
            } else {
                Ok(Frame::Truncated)
            }
        }
        ReadOutcome::Err(e) => Err(e),
    }
}

enum ReadOutcome {
    Full,
    Empty,
    Partial,
    Err(String),
}

fn read_exact_or_eof(stream: &mut impl Read, buf: &mut [u8]) -> ReadOutcome {
    let mut filled = 0usize;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    ReadOutcome::Empty
                } else {
                    ReadOutcome::Partial
                }
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return ReadOutcome::Err(format!("read: {e}")),
        }
    }
    if buf.is_empty() {
        // Zero-length reads cannot distinguish "empty" from "full";
        // treat as full (the caller allocated what the header declared).
        return ReadOutcome::Full;
    }
    ReadOutcome::Full
}

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Propagates I/O failures (e.g. the peer hung up).
pub fn write_frame(stream: &mut impl Write, body: &[u8]) -> Result<(), String> {
    let len =
        u32::try_from(body.len()).map_err(|_| format!("frame too large: {} bytes", body.len()))?;
    stream
        .write_all(&len.to_be_bytes())
        .and_then(|()| stream.write_all(body))
        .and_then(|()| stream.flush())
        .map_err(|e| format!("write: {e}"))
}

/// Parses a request document, mapping each failure to its protocol
/// code: invalid UTF-8 → 4, malformed JSON / wrong shape → 6, unknown
/// kind → 5.
pub fn parse_request(bytes: &[u8]) -> Result<Request, (u64, String)> {
    let text = std::str::from_utf8(bytes).map_err(|_| {
        (
            codes::INVALID_UTF8,
            "frame body is not valid UTF-8".to_string(),
        )
    })?;
    let malformed = || {
        (
            codes::MALFORMED,
            format!("frame body is not a `{SCHEMA}` request object"),
        )
    };
    let mut root = fearless_incr::parse_json(text).ok_or_else(malformed)?;
    if !matches!(root.take("schema"), Some(Json::Str(s)) if s == SCHEMA) {
        return Err(malformed());
    }
    let Some(Json::Str(kind)) = root.take("kind") else {
        return Err(malformed());
    };
    if !WORK_KINDS.contains(&kind.as_str()) && !CONTROL_KINDS.contains(&kind.as_str()) {
        return Err((
            codes::UNKNOWN_KIND,
            format!("unknown request kind `{kind}`"),
        ));
    }
    let body = match root.take("body") {
        Some(Json::Str(s)) => s,
        None => String::new(),
        _ => return Err(malformed()),
    };
    let deadline_millis = match root.take("deadline_millis") {
        Some(Json::U64(n)) => Some(n),
        None => None,
        _ => return Err(malformed()),
    };
    let allow_stale = match root.take("allow_stale") {
        Some(Json::Bool(b)) => b,
        None => false,
        _ => return Err(malformed()),
    };
    Ok(Request {
        kind,
        body,
        deadline_millis,
        allow_stale,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"k\": 1}").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        match read_frame(&mut cursor, MAX_FRAME).unwrap() {
            Frame::Body(b) => assert_eq!(b, b"{\"k\": 1}"),
            other => panic!("expected body, got {other:?}"),
        }
        match read_frame(&mut cursor, MAX_FRAME).unwrap() {
            Frame::Eof => {}
            other => panic!("expected eof, got {other:?}"),
        }
    }

    #[test]
    fn oversized_and_truncated_frames_are_classified() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_be_bytes());
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cursor, MAX_FRAME).unwrap(),
            Frame::Oversized(_)
        ));

        let mut buf = Vec::new();
        buf.extend_from_slice(&100u32.to_be_bytes());
        buf.extend_from_slice(b"only forty bytes of the declared hundred");
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cursor, MAX_FRAME).unwrap(),
            Frame::Truncated
        ));

        // A torn header is also a truncation.
        let mut cursor = std::io::Cursor::new(vec![0u8, 0]);
        assert!(matches!(
            read_frame(&mut cursor, MAX_FRAME).unwrap(),
            Frame::Truncated
        ));
    }

    #[test]
    fn request_parsing_maps_failures_to_distinct_codes() {
        assert_eq!(
            parse_request(&[0xff, 0xfe]).unwrap_err().0,
            codes::INVALID_UTF8
        );
        assert_eq!(
            parse_request(b"{ not json").unwrap_err().0,
            codes::MALFORMED
        );
        assert_eq!(parse_request(b"[1, 2]").unwrap_err().0, codes::MALFORMED);
        let wrong_schema = b"{\"schema\": \"other/9\", \"kind\": \"check\"}";
        assert_eq!(parse_request(wrong_schema).unwrap_err().0, codes::MALFORMED);
        let unknown = Request::new("dance", "").to_json();
        assert_eq!(
            parse_request(unknown.as_bytes()).unwrap_err().0,
            codes::UNKNOWN_KIND
        );
        let ok = Request::new("check", "def f(): int { 1 }");
        assert_eq!(parse_request(ok.to_json().as_bytes()).unwrap(), ok);
    }

    #[test]
    fn nesting_bomb_is_malformed_not_a_stack_overflow() {
        // 100 KB of `[`: far below MAX_FRAME, far deeper than any stack
        // can recurse. Run on a default-size thread stack, as the
        // daemon's connection threads are.
        let bomb = "[".repeat(100_000);
        let code = std::thread::spawn(move || parse_request(bomb.as_bytes()).unwrap_err().0)
            .join()
            .expect("the parser must not abort on deep nesting");
        assert_eq!(code, codes::MALFORMED);
        let wrapped = format!(
            "{{\"schema\": \"{SCHEMA}\", \"kind\": \"ping\", \"x\": {}1{}}}",
            "{\"k\": ".repeat(10_000),
            "}".repeat(10_000)
        );
        assert_eq!(
            parse_request(wrapped.as_bytes()).unwrap_err().0,
            codes::MALFORMED
        );
    }

    #[test]
    fn near_max_frame_body_decodes_in_linear_time() {
        // A body just under MAX_FRAME, with a multi-byte char and escapes
        // spread through it. A reader that re-scans the rest of the
        // document per character needs many minutes for this; a linear
        // one needs milliseconds, even unoptimized.
        let line = "let x = \"é\" + 1;\n";
        let body = line.repeat((MAX_FRAME as usize - 200) / (line.len() + 3));
        let req = Request::new("check", body);
        let wire = req.to_json();
        assert!(wire.len() < MAX_FRAME as usize, "{} bytes", wire.len());
        let start = std::time::Instant::now();
        let parsed = parse_request(wire.as_bytes()).expect("parses");
        let elapsed = start.elapsed();
        assert_eq!(parsed, req);
        assert!(
            elapsed < std::time::Duration::from_secs(5),
            "decoding a {}-byte request took {elapsed:?}",
            wire.len()
        );
    }

    #[test]
    fn deadline_roundtrips_and_bad_deadline_is_malformed() {
        let mut req = Request::new("check", "def f(): int { 1 }");
        req.deadline_millis = Some(50);
        assert_eq!(parse_request(req.to_json().as_bytes()).unwrap(), req);
        // Absent deadline parses as None (back-compat with v1 clients).
        let plain = Request::new("check", "x");
        assert_eq!(
            parse_request(plain.to_json().as_bytes())
                .unwrap()
                .deadline_millis,
            None
        );
        let bad = format!(
            "{{\"schema\": \"{SCHEMA}\", \"kind\": \"check\", \"deadline_millis\": \"soon\"}}"
        );
        assert_eq!(
            parse_request(bad.as_bytes()).unwrap_err().0,
            codes::MALFORMED
        );
    }

    #[test]
    fn allow_stale_roundtrips_and_bad_flag_is_malformed() {
        let mut req = Request::new("lint", "def f(): int { 1 }");
        req.allow_stale = true;
        assert_eq!(parse_request(req.to_json().as_bytes()).unwrap(), req);
        let plain = Request::new("lint", "x");
        assert!(
            !parse_request(plain.to_json().as_bytes())
                .unwrap()
                .allow_stale
        );
        let bad =
            format!("{{\"schema\": \"{SCHEMA}\", \"kind\": \"lint\", \"allow_stale\": \"yes\"}}");
        assert_eq!(
            parse_request(bad.as_bytes()).unwrap_err().0,
            codes::MALFORMED
        );
    }

    #[test]
    fn response_roundtrip_including_retry_hint() {
        let mut costed = Response::ok("ok: 1 function(s)\n");
        costed.cost = Some(412);
        let mut stale = Response::ok("ok: 1 function(s)\n");
        stale.stale = true;
        stale.cost = Some(7);
        for r in [
            Response::ok("ok: 1 function(s)\n"),
            Response::error(codes::DIAGNOSTIC, "type error"),
            Response::error(codes::DEADLINE_EXCEEDED, "deadline-exceeded"),
            Response::overloaded(25),
            costed,
            stale,
        ] {
            assert_eq!(Response::from_json(&r.to_json()).unwrap(), r);
        }
    }

    #[test]
    fn identical_responses_render_identical_bytes() {
        let a = Response::ok("same");
        let b = Response::ok("same");
        assert_eq!(a.to_json(), b.to_json());
    }
}
