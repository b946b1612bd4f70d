//! A deliberately small HTTP/1.1 subset over `std::net` — just enough for
//! `etpnd`'s JSON verbs, with hard limits on header and body sizes so a
//! malformed or hostile client costs bounded memory and bounded time.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use etpn_core::json::Json;

/// Upper bound on the request head (request line + headers).
pub const MAX_HEAD: usize = 16 * 1024;
/// Upper bound on a request body.
pub const MAX_BODY: usize = 4 * 1024 * 1024;

/// A parsed request.
#[derive(Clone, Debug)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// Path component, query string stripped.
    pub path: String,
    /// Decoded query parameters, in request order.
    pub query: Vec<(String, String)>,
    /// Lower-cased header names with their raw values.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (`Content-Length`-framed).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a (lower-case) header name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// First value of a query parameter.
    pub fn query(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Split and decode a request target into `(path, query_pairs)`.
/// Percent-escapes and `+`-as-space are decoded in both keys and values;
/// malformed escapes pass through literally (a debug endpoint should be
/// forgiving about hand-typed URLs).
fn parse_target(target: &str) -> (String, Vec<(String, String)>) {
    let (path, qs) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let pairs = qs
        .split('&')
        .filter(|p| !p.is_empty())
        .map(|p| {
            let (k, v) = p.split_once('=').unwrap_or((p, ""));
            (pct_decode(k), pct_decode(v))
        })
        .collect();
    (path.to_string(), pairs)
}

/// Decode `%XX` escapes and `+` spaces (application/x-www-form-urlencoded).
fn pct_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                match (
                    bytes.get(i + 1).and_then(|b| (*b as char).to_digit(16)),
                    bytes.get(i + 2).and_then(|b| (*b as char).to_digit(16)),
                ) {
                    (Some(hi), Some(lo)) => {
                        out.push((hi * 16 + lo) as u8);
                        i += 3;
                    }
                    _ => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Why a request could not be read. Maps to `400` (malformed), `413`
/// (too large) or a dropped connection (I/O).
#[derive(Debug)]
pub enum ReadError {
    /// Syntactically invalid request.
    Malformed(String),
    /// Head or body over the hard limits.
    TooLarge(String),
    /// Connection-level failure (timeout, reset, EOF mid-request).
    Io(std::io::Error),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Malformed(m) => write!(f, "malformed request: {m}"),
            ReadError::TooLarge(m) => write!(f, "request too large: {m}"),
            ReadError::Io(e) => write!(f, "i/o: {e}"),
        }
    }
}

/// Read one request from `stream`. `timeout` is an **absolute** budget
/// for the whole head+body read: each `read` call's timeout shrinks to
/// whatever remains, so a client trickling one byte at a time (slow
/// loris) is cut off when the budget runs out instead of resetting the
/// clock with every byte.
pub fn read_request(stream: &mut TcpStream, timeout: Duration) -> Result<Request, ReadError> {
    let deadline = Instant::now() + timeout;
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 2048];
    let head_end = loop {
        if let Some(i) = find_head_end(&buf) {
            break i;
        }
        if buf.len() > MAX_HEAD {
            return Err(ReadError::TooLarge(format!(
                "request head exceeds {MAX_HEAD} bytes"
            )));
        }
        let n = read_some(stream, &mut chunk, deadline)?;
        if n == 0 {
            return Err(if buf.is_empty() {
                ReadError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "empty connection",
                ))
            } else {
                ReadError::Malformed("connection closed mid-head".into())
            });
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| ReadError::Malformed("head is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| ReadError::Malformed("missing method".into()))?;
    let path = parts
        .next()
        .filter(|p| p.starts_with('/'))
        .ok_or_else(|| ReadError::Malformed("missing or relative path".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| ReadError::Malformed("missing HTTP version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Malformed(format!("unsupported {version}")));
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ReadError::Malformed(format!("bad header line `{line}`")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| ReadError::Malformed(format!("bad content-length `{v}`")))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY {
        return Err(ReadError::TooLarge(format!(
            "body of {content_length} bytes exceeds {MAX_BODY}"
        )));
    }

    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let n = read_some(stream, &mut chunk, deadline)?;
        if n == 0 {
            return Err(ReadError::Malformed("connection closed mid-body".into()));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);

    let (path, query) = parse_target(path);
    Ok(Request {
        method: method.to_string(),
        path,
        query,
        headers,
        body,
    })
}

/// One bounded read against the request's absolute deadline: the
/// per-call socket timeout is the budget *remaining*, and an exhausted
/// budget is a timeout error even if bytes keep arriving.
fn read_some(
    stream: &mut TcpStream,
    chunk: &mut [u8],
    deadline: Instant,
) -> Result<usize, ReadError> {
    let remaining = deadline
        .checked_duration_since(Instant::now())
        .filter(|d| !d.is_zero())
        .ok_or_else(|| {
            ReadError::Io(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "request read deadline exhausted",
            ))
        })?;
    stream
        .set_read_timeout(Some(remaining))
        .map_err(ReadError::Io)?;
    stream.read(chunk).map_err(ReadError::Io)
}

/// Index of the `\r\n\r\n` head terminator.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// A response under construction.
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Extra headers (`Content-Type`/`Content-Length`/`Connection` are
    /// emitted automatically).
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
    /// `Content-Type` value.
    pub content_type: &'static str,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, doc: &Json) -> Self {
        let mut body = doc.pretty().into_bytes();
        body.push(b'\n');
        Self {
            status,
            headers: Vec::new(),
            body,
            content_type: "application/json",
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            headers: Vec::new(),
            body: body.into().into_bytes(),
            content_type: "text/plain; charset=utf-8",
        }
    }

    /// The canonical error shape: `{"error": …, "status": …}`.
    pub fn error(status: u16, message: &str) -> Self {
        Self::json(
            status,
            &Json::obj([
                ("error", Json::Str(message.to_string())),
                ("status", Json::Num(i64::from(status))),
            ]),
        )
    }

    /// Attach a header.
    pub fn with_header(mut self, name: &str, value: String) -> Self {
        self.headers.push((name.to_string(), value));
        self
    }

    /// Serialize and write the response; the connection is then closed by
    /// the caller (the service is deliberately `Connection: close`). Head
    /// and body go out in one `write_all`: one syscall and, on loopback,
    /// one segment per response.
    pub fn write_to(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        let mut wire = Vec::with_capacity(256 + self.body.len());
        write!(
            wire,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            status_reason(self.status),
            self.content_type,
            self.body.len()
        )?;
        for (k, v) in &self.headers {
            write!(wire, "{k}: {v}\r\n")?;
        }
        wire.extend_from_slice(b"\r\n");
        wire.extend_from_slice(&self.body);
        stream.write_all(&wire)?;
        stream.flush()
    }
}

/// Reason phrase for the status codes the service emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Status",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn round_trip(raw: &[u8]) -> Result<Request, ReadError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
            // Keep the socket open briefly so the server reads a timeout,
            // not an EOF, if it wants more bytes.
            std::thread::sleep(Duration::from_millis(300));
        });
        let (mut conn, _) = listener.accept().unwrap();
        let req = read_request(&mut conn, Duration::from_millis(200));
        client.join().unwrap();
        req
    }

    #[test]
    fn parses_a_post_with_body() {
        let req =
            round_trip(b"POST /v1/run HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\n{\"a\":1}")
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/run");
        assert_eq!(req.body, b"{\"a\":1}");
        assert_eq!(req.header("host"), Some("x"));
    }

    #[test]
    fn parses_query_strings() {
        let req = round_trip(
            b"GET /v1/debug/requests?verb=run&min_latency_us=250&design=a%2Fb+c&flag HTTP/1.1\r\n\r\n",
        )
        .unwrap();
        assert_eq!(req.path, "/v1/debug/requests");
        assert_eq!(req.query("verb"), Some("run"));
        assert_eq!(req.query("min_latency_us"), Some("250"));
        assert_eq!(req.query("design"), Some("a/b c"));
        assert_eq!(req.query("flag"), Some(""));
        assert_eq!(req.query("missing"), None);
        // Malformed escapes pass through rather than erroring.
        let req = round_trip(b"GET /x?bad=%zz%2 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.query("bad"), Some("%zz%2"));
    }

    #[test]
    fn rejects_garbage_request_line() {
        assert!(matches!(
            round_trip(b"NONSENSE\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
        assert!(matches!(
            round_trip(b"GET noslash HTTP/1.1\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
        assert!(matches!(
            round_trip(b"GET / SPDY/9\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_bad_content_length() {
        assert!(matches!(
            round_trip(b"POST / HTTP/1.1\r\nContent-Length: banana\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
        let huge = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(matches!(
            round_trip(huge.as_bytes()),
            Err(ReadError::TooLarge(_))
        ));
    }

    #[test]
    fn times_out_on_a_short_body_instead_of_hanging() {
        let err = round_trip(b"POST / HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort");
        assert!(matches!(err, Err(ReadError::Io(_))), "{err:?}");
    }

    #[test]
    fn slow_loris_is_bounded_by_the_whole_request_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            // Trickle one byte every 40 ms: each individual read succeeds
            // well inside any per-read timeout, so only an absolute
            // deadline can cut this connection off.
            let started = std::time::Instant::now();
            for b in b"POST /v1/run HTTP/1.1\r\nHost: x\r\nA: b\r\n\r\n" {
                if started.elapsed() > Duration::from_millis(800) || s.write_all(&[*b]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(40));
            }
        });
        let (mut conn, _) = listener.accept().unwrap();
        let started = std::time::Instant::now();
        let res = read_request(&mut conn, Duration::from_millis(200));
        assert!(matches!(res, Err(ReadError::Io(_))), "{res:?}");
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "read_request held the worker for {:?}",
            started.elapsed()
        );
        drop(conn);
        client.join().unwrap();
    }
}
