//! Wire codec for the `apex serve` protocol: one flat JSON object per
//! line, every value a string.
//!
//! The daemon deliberately speaks the same dialect the sweep journal
//! writes — flat objects, string values, fixed escaping — so the whole
//! stack stays std-only and strictly parseable. Anything the encoder
//! cannot produce (nested objects, numbers, unknown escapes) is rejected
//! as `bad_request` instead of being guessed at: the peer is untrusted.
//!
//! See `DESIGN.md` §7 for the full request/response catalogue.

use std::collections::BTreeMap;

/// Hard cap a conforming client must stay under for one request line
/// (servers may configure a lower bound; DFG text dominates the budget).
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Writes `line` and its terminating newline in **one** write. Both peers
/// set `TCP_NODELAY`, and a line split over two writes would still cost
/// an extra segment per message; without nodelay, Nagle's algorithm holds
/// the second write until the peer's delayed ACK (up to 40 ms) arrives.
///
/// # Errors
/// The underlying write failure.
pub fn write_line(w: &mut impl std::io::Write, line: &str) -> std::io::Result<()> {
    let mut framed = Vec::with_capacity(line.len() + 1);
    framed.extend_from_slice(line.as_bytes());
    framed.push(b'\n');
    w.write_all(&framed)?;
    w.flush()
}

/// Escapes a string for embedding in one wire line (same discipline as
/// the journal encoder: `\\ \" \n \r \t` only).
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            _ => out.push(c),
        }
    }
    out
}

/// Strict inverse of [`esc`]; `None` on any escape the encoder never
/// produces.
fn unesc(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('"') => out.push('"'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            _ => return None,
        }
    }
    Some(out)
}

/// An ordered flat string-to-string map — the only value shape the
/// protocol has. Field order is preserved on encode via sorted keys, so
/// responses are byte-stable.
pub type Fields = BTreeMap<String, String>;

/// Encodes a flat object as one wire line (no trailing newline). Keys
/// are emitted in sorted order so identical content is identical bytes.
pub fn encode(fields: &Fields) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(&esc(k));
        out.push_str("\":\"");
        out.push_str(&esc(v));
        out.push('"');
    }
    out.push('}');
    out
}

/// Decodes one wire line into a flat object. `None` on anything that is
/// not exactly `{"k":"v",...}` with the journal escaping — duplicate
/// keys, nesting, numbers and trailing bytes all fail.
pub fn decode(line: &str) -> Option<Fields> {
    let line = line.trim();
    let mut rest = line.strip_prefix('{')?.strip_suffix('}')?;
    let mut fields = Fields::new();
    if rest.is_empty() {
        return Some(fields);
    }
    let mut first = true;
    while !rest.is_empty() {
        if !first {
            rest = rest.strip_prefix(',')?;
        }
        first = false;
        rest = rest.strip_prefix('"')?;
        let (key_raw, after_key) = take_quoted(rest)?;
        rest = after_key.strip_prefix(':')?.strip_prefix('"')?;
        let (val_raw, after_val) = take_quoted(rest)?;
        rest = after_val;
        let key = unesc(key_raw)?;
        let val = unesc(val_raw)?;
        if fields.insert(key, val).is_some() {
            return None; // duplicate key: ambiguous, reject
        }
    }
    Some(fields)
}

/// Splits `s` at the first unescaped `"`, returning the raw (still
/// escaped) content and the remainder after the quote.
fn take_quoted(s: &str) -> Option<(&str, &str)> {
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return Some((&s[..i], &s[i + 1..])),
            _ => i += 1,
        }
    }
    None
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness + load probe.
    Ping,
    /// Submit a DFG-text sweep job.
    Submit {
        /// Cache namespace the job runs under (sanitized server-side).
        tenant: String,
        /// DFG text (the `apex save` format).
        graph: String,
        /// Per-job deadline in milliseconds; `None` = server default.
        deadline_ms: Option<u64>,
    },
    /// Poll one job's state.
    Status {
        /// Job key returned by `submit`.
        job: u64,
    },
    /// Fetch one finished job's payload.
    Result {
        /// Job key returned by `submit`.
        job: u64,
    },
    /// Daemon counters (admissions, sheds, evictions, ...).
    Stats,
    /// Ask the daemon to drain and exit (same path as SIGTERM).
    Drain,
}

/// Why a request line failed to parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseError {
    /// Not a flat JSON object in the wire dialect.
    Malformed,
    /// No `op` field, or an unknown one.
    UnknownOp,
    /// A required field for the op is missing or unparseable.
    BadField(&'static str),
}

impl ParseError {
    /// The `detail` string reported back to the client.
    pub fn detail(self) -> String {
        match self {
            ParseError::Malformed => "not a flat json object".to_owned(),
            ParseError::UnknownOp => {
                "unknown op (expected ping|submit|status|result|stats|drain)".to_owned()
            }
            ParseError::BadField(f) => format!("missing or invalid field '{f}'"),
        }
    }
}

/// Parses one request line.
///
/// # Errors
/// [`ParseError`] describing what the client got wrong; the server
/// reports it as a `bad_request` response and keeps the connection.
pub fn parse_request(line: &str) -> Result<Request, ParseError> {
    let fields = decode(line).ok_or(ParseError::Malformed)?;
    let op = fields.get("op").ok_or(ParseError::UnknownOp)?;
    match op.as_str() {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "drain" => Ok(Request::Drain),
        "submit" => {
            let graph = fields
                .get("graph")
                .filter(|g| !g.trim().is_empty())
                .ok_or(ParseError::BadField("graph"))?
                .clone();
            let tenant = fields.get("tenant").cloned().unwrap_or_default();
            let deadline_ms = match fields.get("deadline_ms") {
                None => None,
                Some(v) => Some(
                    v.parse::<u64>()
                        .ok()
                        .filter(|ms| *ms > 0)
                        .ok_or(ParseError::BadField("deadline_ms"))?,
                ),
            };
            Ok(Request::Submit {
                tenant,
                graph,
                deadline_ms,
            })
        }
        "status" | "result" => {
            let job = fields
                .get("job")
                .and_then(|j| u64::from_str_radix(j, 16).ok())
                .ok_or(ParseError::BadField("job"))?;
            Ok(if op == "status" {
                Request::Status { job }
            } else {
                Request::Result { job }
            })
        }
        _ => Err(ParseError::UnknownOp),
    }
}

/// Builds an `{"ok":<kind>, ...}` response line.
pub fn ok_response(kind: &str, extra: &[(&str, String)]) -> String {
    let mut f = Fields::new();
    f.insert("ok".to_owned(), kind.to_owned());
    for (k, v) in extra {
        f.insert((*k).to_owned(), v.clone());
    }
    encode(&f)
}

/// Builds an `{"err":<code>, ...}` response line. Error codes are the
/// protocol's stable surface: `bad_request`, `overloaded`, `draining`,
/// `unknown_job`, `not_done`, `line_too_long`, `idle_timeout`.
pub fn err_response(code: &str, extra: &[(&str, String)]) -> String {
    let mut f = Fields::new();
    f.insert("err".to_owned(), code.to_owned());
    for (k, v) in extra {
        f.insert((*k).to_owned(), v.clone());
    }
    encode(&f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trips() {
        let mut f = Fields::new();
        f.insert("op".to_owned(), "submit".to_owned());
        f.insert("graph".to_owned(), "line1\nline2\t\"x\\y\"".to_owned());
        let line = encode(&f);
        assert!(!line.contains('\n'), "wire lines must be single lines");
        assert_eq!(decode(&line), Some(f));
    }

    #[test]
    fn decode_rejects_what_the_encoder_never_writes() {
        assert!(decode("not json").is_none());
        assert!(decode("{\"a\":1}").is_none(), "numbers are not in the dialect");
        assert!(decode("{\"a\":{\"b\":\"c\"}}").is_none(), "no nesting");
        assert!(decode("{\"a\":\"x\",\"a\":\"y\"}").is_none(), "no duplicate keys");
        assert!(decode("{\"a\":\"\\q\"}").is_none(), "unknown escape");
        assert!(decode("{\"a\":\"x\"}trailing").is_none());
        assert_eq!(decode("{}"), Some(Fields::new()));
    }

    #[test]
    fn parse_request_covers_the_op_catalogue() {
        assert_eq!(parse_request("{\"op\":\"ping\"}"), Ok(Request::Ping));
        assert_eq!(parse_request("{\"op\":\"stats\"}"), Ok(Request::Stats));
        assert_eq!(parse_request("{\"op\":\"drain\"}"), Ok(Request::Drain));
        assert_eq!(
            parse_request("{\"op\":\"submit\",\"tenant\":\"acme\",\"graph\":\"g x\"}"),
            Ok(Request::Submit {
                tenant: "acme".to_owned(),
                graph: "g x".to_owned(),
                deadline_ms: None
            })
        );
        assert_eq!(
            parse_request("{\"op\":\"status\",\"job\":\"00ff\"}"),
            Ok(Request::Status { job: 0xff })
        );
        assert_eq!(
            parse_request("{\"op\":\"result\",\"job\":\"a\"}"),
            Ok(Request::Result { job: 0xa })
        );
    }

    #[test]
    fn parse_request_rejects_bad_fields() {
        assert_eq!(parse_request("nope"), Err(ParseError::Malformed));
        assert_eq!(parse_request("{\"x\":\"y\"}"), Err(ParseError::UnknownOp));
        assert_eq!(parse_request("{\"op\":\"fly\"}"), Err(ParseError::UnknownOp));
        assert_eq!(
            parse_request("{\"op\":\"submit\"}"),
            Err(ParseError::BadField("graph"))
        );
        assert_eq!(
            parse_request("{\"op\":\"submit\",\"graph\":\"g\",\"deadline_ms\":\"soon\"}"),
            Err(ParseError::BadField("deadline_ms"))
        );
        assert_eq!(
            parse_request("{\"op\":\"submit\",\"graph\":\"g\",\"deadline_ms\":\"0\"}"),
            Err(ParseError::BadField("deadline_ms"))
        );
        assert_eq!(
            parse_request("{\"op\":\"status\",\"job\":\"zz\"}"),
            Err(ParseError::BadField("job"))
        );
    }

    #[test]
    fn responses_are_stable_bytes() {
        assert_eq!(
            ok_response("accepted", &[("job", "00ff".to_owned())]),
            "{\"job\":\"00ff\",\"ok\":\"accepted\"}"
        );
        assert_eq!(
            err_response("overloaded", &[("retry_after_ms", "500".to_owned())]),
            "{\"err\":\"overloaded\",\"retry_after_ms\":\"500\"}"
        );
    }
}
