//! Hand-rolled HTTP/1.1 plumbing: request parsing with strict limits and
//! response serialization. The event loop owns the connections.
//!
//! The server speaks exactly the subset the `dvf-serve/1` API needs:
//! `GET`/`POST`/`DELETE`, `Content-Length` bodies (no chunked encoding),
//! persistent connections with `Connection: close` opt-out. Everything a
//! client can get wrong is answered with a proper status instead of a
//! dropped connection: oversized headers (431), oversized bodies (413),
//! missing length on a body (411), chunked encoding (501), garbage (400).

use std::io::Write;
use std::net::TcpStream;

/// Upper bound on the request line + headers block.
pub(crate) const MAX_HEADER_BYTES: usize = 16 * 1024;

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, ...).
    pub method: String,
    /// Path component of the target (query string stripped).
    pub path: String,
    /// Raw query string, if any (without the `?`).
    pub query: Option<String>,
    /// Headers with lower-cased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Request body (possibly empty).
    pub body: Vec<u8>,
}

impl Request {
    /// First header with the given (lower-case) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Does the client ask for the connection to be closed after this
    /// exchange? (HTTP/1.1 defaults to keep-alive.)
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// Value of one `name=value` pair in the query string, if present.
    /// (No percent-decoding: the API's query parameters are all simple
    /// tokens and numbers.)
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.as_deref()?.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == name).then_some(v)
        })
    }
}

/// One response about to be serialized.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes (always sent with an exact `Content-Length`).
    pub body: String,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra headers (name, value) appended verbatim.
    pub extra_headers: Vec<(&'static str, String)>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Self {
            status,
            body,
            content_type: "application/json",
            extra_headers: Vec::new(),
        }
    }

    /// A plain-text response with an explicit content type (used for the
    /// Prometheus exposition, whose scrapers key off the version tag in
    /// the content type).
    pub fn text(status: u16, body: String, content_type: &'static str) -> Self {
        Self {
            status,
            body,
            content_type,
            extra_headers: Vec::new(),
        }
    }

    /// Append a header.
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.extra_headers.push((name, value.into()));
        self
    }

    /// Standard reason phrase for the handful of codes the API uses.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            411 => "Length Required",
            413 => "Content Too Large",
            422 => "Unprocessable Content",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            501 => "Not Implemented",
            503 => "Service Unavailable",
            _ => "",
        }
    }
}

/// Result of one attempt to parse a request out of buffered bytes.
///
/// [`parse_request`] is a pure function of the buffer: the event loop
/// runs it after every readiness-driven read.
#[derive(Debug)]
pub(crate) enum Parse {
    /// More bytes are needed. `header_complete` distinguishes "waiting
    /// for a new request" (EOF here is a clean close) from "waiting for
    /// declared body bytes" (EOF here is a truncation error).
    Incomplete {
        /// The header block has fully arrived; only body bytes are missing.
        header_complete: bool,
    },
    /// One complete request, and how many buffer bytes it consumed.
    Complete(Request, usize),
    /// Protocol error: answer with this response, then close.
    Reject(Response),
}

/// Try to parse one request from the front of `buf`, enforcing
/// [`MAX_HEADER_BYTES`] on the header block and `max_body` on the body.
/// Never consumes bytes itself — a [`Parse::Complete`] reports how many
/// bytes the caller should drain.
pub(crate) fn parse_request(buf: &[u8], max_body: usize) -> Parse {
    let Some(header_end) = find_subsequence(buf, b"\r\n\r\n") else {
        if buf.len() > MAX_HEADER_BYTES {
            return Parse::Reject(error_response(
                431,
                "headers_too_large",
                "request header block exceeds 16 KiB",
            ));
        }
        return Parse::Incomplete {
            header_complete: false,
        };
    };

    let head = String::from_utf8_lossy(&buf[..header_end]).into_owned();
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if parts.next().is_none() && !m.is_empty() => {
            (m.to_owned(), t.to_owned(), v.to_owned())
        }
        _ => {
            return Parse::Reject(error_response(
                400,
                "bad_request_line",
                "malformed request line",
            ))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Parse::Reject(error_response(
            400,
            "bad_version",
            "only HTTP/1.0 and HTTP/1.1 are supported",
        ));
    }

    let mut headers = Vec::new();
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Parse::Reject(error_response(400, "bad_header", "malformed header line"));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }

    let header = |name: &str| {
        headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    };
    if header("transfer-encoding").is_some() {
        return Parse::Reject(error_response(
            501,
            "chunked_unsupported",
            "transfer-encoding is not supported; send Content-Length",
        ));
    }
    let content_length = match header("content-length") {
        None if method == "POST" || method == "PUT" => {
            return Parse::Reject(error_response(
                411,
                "length_required",
                "POST requests must carry Content-Length",
            ))
        }
        None => 0usize,
        Some(v) => match v.parse::<usize>() {
            Ok(n) => n,
            Err(_) => {
                return Parse::Reject(error_response(
                    400,
                    "bad_content_length",
                    "Content-Length is not a valid integer",
                ))
            }
        },
    };
    if content_length > max_body {
        return Parse::Reject(error_response(
            413,
            "body_too_large",
            &format!("request body exceeds the {max_body}-byte limit"),
        ));
    }

    let body_start = header_end + 4;
    if buf.len() < body_start + content_length {
        return Parse::Incomplete {
            header_complete: true,
        };
    }
    let body = buf[body_start..body_start + content_length].to_vec();

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), Some(q.to_owned())),
        None => (target, None),
    };
    Parse::Complete(
        Request {
            method,
            path,
            query,
            headers,
            body,
        },
        body_start + content_length,
    )
}

/// The `400` a connection gets when it ends before its declared body.
pub(crate) fn truncated_body() -> Response {
    error_response(
        400,
        "truncated_body",
        "connection ended before the declared Content-Length",
    )
}

/// Serialize `resp` to wire bytes; `keep_alive` selects the `Connection`
/// header. Feeds the event loop's per-connection output buffers and the
/// blocking writer below.
pub(crate) fn serialize_response(resp: &Response, keep_alive: bool) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        resp.status,
        resp.reason(),
        resp.content_type,
        resp.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in &resp.extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(resp.body.as_bytes());
    out
}

/// Serialize and send `resp`; `keep_alive` selects the `Connection` header.
pub(crate) fn write_response(
    mut stream: &TcpStream,
    resp: &Response,
    keep_alive: bool,
) -> std::io::Result<()> {
    stream.write_all(&serialize_response(resp, keep_alive))?;
    stream.flush()
}

/// The standard `dvf-serve/1` error envelope.
pub fn error_response(status: u16, code: &str, message: &str) -> Response {
    let mut w = dvf_obs::JsonWriter::new();
    w.begin_object();
    w.key("schema").string(crate::SCHEMA);
    w.key("error")
        .begin_object()
        .key("code")
        .string(code)
        .key("message")
        .string(message)
        .end_object();
    w.end_object();
    Response::json(status, w.finish())
}

fn find_subsequence(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack
        .windows(needle.len())
        .position(|window| window == needle)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parse one complete request, or the response it is rejected with.
    fn parse_one(raw: &[u8], max_body: usize) -> Result<Request, Response> {
        match parse_request(raw, max_body) {
            Parse::Complete(req, _) => Ok(req),
            Parse::Reject(resp) => Err(resp),
            other => panic!("expected a decision, got {other:?}"),
        }
    }

    #[test]
    fn parses_post_with_body_and_query() {
        let req = parse_one(
            b"POST /v1/dvf?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nabcd",
            1024,
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/dvf");
        assert_eq!(req.query.as_deref(), Some("x=1"));
        assert_eq!(req.query_param("x"), Some("1"));
        assert_eq!(req.query_param("y"), None);
        assert_eq!(req.header("host"), Some("h"));
        assert_eq!(req.body, b"abcd");
        assert!(!req.wants_close());
    }

    #[test]
    fn oversized_body_is_413() {
        let out = parse_one(
            b"POST /v1/parse HTTP/1.1\r\nContent-Length: 999999\r\n\r\n",
            1024,
        );
        assert_eq!(out.unwrap_err().status, 413);
    }

    #[test]
    fn post_without_length_is_411() {
        let out = parse_one(b"POST /v1/parse HTTP/1.1\r\nHost: h\r\n\r\n", 1024);
        assert_eq!(out.unwrap_err().status, 411);
    }

    #[test]
    fn garbage_request_line_is_400() {
        let out = parse_one(b"NOT-HTTP\r\n\r\n", 1024);
        assert_eq!(out.unwrap_err().status, 400);
    }

    #[test]
    fn incremental_parse_settles_at_every_prefix() {
        // Feeding the parser byte-by-byte must pass through Incomplete
        // (header, then body) and produce the same request at the end.
        let raw = b"POST /v1/dvf HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd";
        let header_end = find_subsequence(raw, b"\r\n\r\n").unwrap() + 4;
        for cut in 0..raw.len() {
            match parse_request(&raw[..cut], 1024) {
                Parse::Incomplete { header_complete } => {
                    assert_eq!(header_complete, cut >= header_end, "cut={cut}")
                }
                other => panic!("prefix {cut} must be incomplete, got {other:?}"),
            }
        }
        match parse_request(raw, 1024) {
            Parse::Complete(req, consumed) => {
                assert_eq!(consumed, raw.len());
                assert_eq!(req.body, b"abcd");
            }
            other => panic!("expected complete, got {other:?}"),
        }
    }

    #[test]
    fn parse_reports_pipelined_consumption() {
        let raw = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        match parse_request(raw, 1024) {
            Parse::Complete(req, consumed) => {
                assert_eq!(req.path, "/a");
                assert_eq!(consumed, raw.len() / 2);
                match parse_request(&raw[consumed..], 1024) {
                    Parse::Complete(req, _) => assert_eq!(req.path, "/b"),
                    other => panic!("second request must parse, got {other:?}"),
                }
            }
            other => panic!("expected complete, got {other:?}"),
        }
    }

    #[test]
    fn oversized_header_block_rejects_while_incomplete() {
        let big = vec![b'A'; MAX_HEADER_BYTES + 1];
        match parse_request(&big, 1024) {
            Parse::Reject(r) => assert_eq!(r.status, 431),
            other => panic!("expected 431, got {other:?}"),
        }
    }

    #[test]
    fn serialized_response_carries_connection_choice() {
        let resp = Response::json(200, "{}".into()).with_header("X-T", "1");
        let keep = String::from_utf8(serialize_response(&resp, true)).unwrap();
        assert!(keep.contains("Connection: keep-alive\r\n"), "{keep}");
        assert!(keep.contains("X-T: 1\r\n"), "{keep}");
        assert!(keep.ends_with("\r\n\r\n{}"), "{keep}");
        let close = String::from_utf8(serialize_response(&resp, false)).unwrap();
        assert!(close.contains("Connection: close\r\n"), "{close}");
    }

    #[test]
    fn error_envelope_is_valid_json() {
        let r = error_response(404, "not_found", "no such route");
        let v = crate::jsonval::Json::parse(&r.body).unwrap();
        assert_eq!(
            v.get("error").unwrap().get("code").unwrap().as_str(),
            Some("not_found")
        );
    }
}
