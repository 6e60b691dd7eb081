//! Client helpers for the wire protocols — used by the integration
//! tests and `examples/serve.rs`, and handy as a reference
//! implementation of both protocols.

use crate::json::{self, Obj};
use crate::wire::WireWriter;
use std::io::{self, BufRead, BufReader, Read};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// One parsed event from a query's ndjson stream.
#[derive(Debug, Clone)]
pub struct WireEstimate {
    pub id: u64,
    pub seq: u64,
    pub t: f64,
    pub is_final: bool,
    pub rows: u64,
    pub rows_processed: u64,
    pub spill_bytes: u64,
    pub scan_bytes: u64,
    pub degraded: bool,
    pub value: Option<f64>,
    pub ci_rel_half_width: Option<f64>,
}

/// The stream's terminal event.
#[derive(Debug, Clone)]
pub struct WireDone {
    pub id: u64,
    pub status: String,
    pub stopped_early: bool,
    pub degraded: bool,
    pub spill_bytes: u64,
    pub peak_state_bytes: u64,
}

/// Everything a query stream yielded: the converging estimates plus the
/// terminal event (absent if the connection ended first).
#[derive(Debug, Clone, Default)]
pub struct QueryOutcome {
    pub id: u64,
    pub estimates: Vec<WireEstimate>,
    pub done: Option<WireDone>,
    pub error: Option<(String, String)>,
}

fn parse_estimate(line: &str) -> Option<WireEstimate> {
    Some(WireEstimate {
        id: json::field_u64(line, "id")?,
        seq: json::field_u64(line, "seq")?,
        t: json::field_f64(line, "t")?,
        is_final: json::field_bool(line, "is_final")?,
        rows: json::field_u64(line, "rows")?,
        rows_processed: json::field_u64(line, "rows_processed")?,
        spill_bytes: json::field_u64(line, "spill_bytes")?,
        scan_bytes: json::field_u64(line, "scan_bytes")?,
        degraded: json::field_bool(line, "degraded")?,
        value: json::field_f64(line, "value"),
        ci_rel_half_width: json::field_f64(line, "ci_rel_half_width"),
    })
}

fn parse_done(line: &str) -> Option<WireDone> {
    Some(WireDone {
        id: json::field_u64(line, "id")?,
        status: json::field_str(line, "status")?,
        stopped_early: json::field_bool(line, "stopped_early")?,
        degraded: json::field_bool(line, "degraded")?,
        spill_bytes: json::field_u64(line, "spill_bytes")?,
        peak_state_bytes: json::field_u64(line, "peak_state_bytes")?,
    })
}

/// A line-JSON TCP protocol client over one connection.
pub struct ServeClient {
    out: WireWriter,
    reader: BufReader<TcpStream>,
}

impl ServeClient {
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<ServeClient> {
        let stream = TcpStream::connect(addr)?;
        let out = WireWriter::tcp(&stream)?;
        let reader = BufReader::new(stream);
        Ok(ServeClient { out, reader })
    }

    /// Send one raw request line.
    pub fn send_line(&mut self, line: &str) -> io::Result<()> {
        self.out.line(line)
    }

    /// Read one response line (`None` on EOF).
    pub fn read_line(&mut self) -> io::Result<Option<String>> {
        let mut line = String::new();
        match self.reader.read_line(&mut line)? {
            0 => Ok(None),
            _ => Ok(Some(line.trim_end_matches(['\r', '\n']).to_string())),
        }
    }

    /// Run a named catalog query to its terminal event, collecting every
    /// wire estimate.
    pub fn query(&mut self, name: &str) -> io::Result<QueryOutcome> {
        self.query_with(name, None)
    }

    /// [`Self::query`] with an explicit deadline.
    pub fn query_with(
        &mut self,
        name: &str,
        deadline: Option<Duration>,
    ) -> io::Result<QueryOutcome> {
        let mut req = Obj::new().str("op", "query").str("name", name);
        if let Some(d) = deadline {
            req = req.u64("deadline_ms", d.as_millis() as u64);
        }
        self.send_line(&req.build())?;
        let mut outcome = QueryOutcome::default();
        while let Some(line) = self.read_line()? {
            match json::field_str(&line, "type").as_deref() {
                Some("admitted") => {
                    outcome.id = json::field_u64(&line, "id").unwrap_or(0);
                }
                Some("estimate") => {
                    if let Some(est) = parse_estimate(&line) {
                        outcome.estimates.push(est);
                    }
                }
                Some("done") => {
                    outcome.done = parse_done(&line);
                    return Ok(outcome);
                }
                Some("error") => {
                    let code = json::field_str(&line, "code").unwrap_or_default();
                    let msg = json::field_str(&line, "message").unwrap_or_default();
                    let fatal = code != "query_failed"; // query_failed is followed by done
                    outcome.error = Some((code, msg));
                    if fatal {
                        return Ok(outcome);
                    }
                }
                _ => {}
            }
        }
        Ok(outcome)
    }

    /// Send a query request and read only the admission response —
    /// leaving the estimate stream flowing. Dropping the client then
    /// disconnects mid-stream (the server cancels the query).
    pub fn query_no_wait(&mut self, name: &str) -> io::Result<Option<u64>> {
        self.send_line(&Obj::new().str("op", "query").str("name", name).build())?;
        match self.read_line()? {
            Some(line) if json::field_str(&line, "type").as_deref() == Some("admitted") => {
                Ok(json::field_u64(&line, "id"))
            }
            _ => Ok(None),
        }
    }

    /// Fetch the EXPLAIN ANALYZE profile line for a finished query.
    pub fn explain(&mut self, id: u64) -> io::Result<Option<String>> {
        self.send_line(&Obj::new().str("op", "explain").u64("id", id).build())?;
        self.read_line()
    }

    /// Fetch the catalog + served-query listing line.
    pub fn list(&mut self) -> io::Result<Option<String>> {
        self.send_line(&Obj::new().str("op", "list").build())?;
        self.read_line()
    }
}

/// Issue one HTTP/1.1 GET against the server, returning the status code
/// and the decoded body (chunked transfer encoding is reassembled).
pub fn http_get(addr: impl ToSocketAddrs, path: &str) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    WireWriter::tcp(&stream)?.http_get(path)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw).into_owned();
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed HTTP response"))?;
    let status: u16 = head
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed status line"))?;
    let chunked = head.lines().any(|l| {
        l.to_ascii_lowercase()
            .contains("transfer-encoding: chunked")
    });
    let body = if chunked {
        decode_chunked(body)
    } else {
        body.to_string()
    };
    Ok((status, body))
}

/// Reassemble a chunked HTTP body into its payload.
pub(crate) fn decode_chunked(body: &str) -> String {
    let mut out = Vec::new();
    let mut rest = body.as_bytes();
    while let Some(eol) = rest.windows(2).position(|w| w == b"\r\n") {
        let size_line = String::from_utf8_lossy(&rest[..eol]);
        let Ok(size) = usize::from_str_radix(size_line.trim(), 16) else {
            break;
        };
        let after = &rest[eol + 2..];
        if size == 0 {
            break;
        }
        if after.len() < size {
            out.extend_from_slice(after); // truncated stream (disconnect)
            break;
        }
        out.extend_from_slice(&after[..size]);
        rest = &after[size..];
        if rest.starts_with(b"\r\n") {
            rest = &rest[2..];
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_turns_nagle_off() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let client = ServeClient::connect(listener.local_addr().unwrap()).unwrap();
        assert!(client.reader.get_ref().nodelay().unwrap());
    }
}
