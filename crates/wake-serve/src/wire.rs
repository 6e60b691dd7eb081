//! The wire writer: the write half of one connection.
//!
//! The contract is **one frame, one write, `TCP_NODELAY` on both ends**.
//! A frame split over two `write` calls on a default socket stalls: the
//! first segment goes out, Nagle holds the second until the first is
//! acknowledged, and the peer — which cannot answer before it has the
//! whole frame — delays that ACK by ~40 ms (Linux). Once per request on
//! the way in and once per reply on the way out, that is the 65–87 ms
//! `wake-e2e` measured between `send_line` and `admitted`. So every
//! frame is assembled in a buffer reused for the life of the connection
//! and handed to the kernel in exactly one `write_all`, and every socket
//! the crate writes to enters through [`WireWriter::tcp`], which turns
//! Nagle off. Nothing else in the crate writes to a socket.

use std::io::{self, Write};
use std::net::TcpStream;

pub(crate) struct WireWriter<W = TcpStream> {
    out: W,
    frame: Vec<u8>,
}

impl WireWriter {
    /// Take the write half of `stream` (the caller keeps it for reading)
    /// and set `TCP_NODELAY` — a socket option, so it holds for both.
    pub(crate) fn tcp(stream: &TcpStream) -> io::Result<WireWriter> {
        stream.set_nodelay(true)?;
        Ok(WireWriter::new(stream.try_clone()?))
    }
}

impl<W: Write> WireWriter<W> {
    pub(crate) fn new(out: W) -> WireWriter<W> {
        WireWriter {
            out,
            frame: Vec::new(),
        }
    }

    /// Start a frame in the connection's reused buffer.
    fn begin(&mut self) -> &mut Vec<u8> {
        self.frame.clear();
        &mut self.frame
    }

    /// Hand the assembled frame to the kernel in one write.
    fn send(&mut self) -> io::Result<()> {
        self.out.write_all(&self.frame)?;
        self.out.flush()
    }

    /// One line of the line-JSON protocol.
    pub(crate) fn line(&mut self, line: &str) -> io::Result<()> {
        let frame = self.begin();
        frame.extend_from_slice(line.as_bytes());
        frame.push(b'\n');
        self.send()
    }

    /// The request of [`crate::http_get`].
    pub(crate) fn http_get(&mut self, path: &str) -> io::Result<()> {
        write!(
            self.begin(),
            "GET {path} HTTP/1.1\r\nHost: wake\r\nConnection: close\r\n\r\n"
        )?;
        self.send()
    }

    /// One complete (non-streaming) HTTP response.
    pub(crate) fn http_reply(&mut self, status: u16, reason: &str, body: &str) -> io::Result<()> {
        write!(
            self.begin(),
            "HTTP/1.1 {status} {reason}\r\n\
             Content-Type: application/json\r\n\
             Content-Length: {}\r\n\
             Connection: close\r\n\r\n{body}",
            body.len()
        )?;
        self.send()
    }

    /// The head of a streaming (chunked ndjson) HTTP response.
    pub(crate) fn http_stream_head(&mut self) -> io::Result<()> {
        self.begin().extend_from_slice(
            b"HTTP/1.1 200 OK\r\n\
              Content-Type: application/x-ndjson\r\n\
              Transfer-Encoding: chunked\r\n\
              Connection: close\r\n\r\n",
        );
        self.send()
    }

    /// One ndjson event line as an HTTP chunk (the newline travels inside
    /// the chunk so consumers can split on it).
    pub(crate) fn http_chunk(&mut self, line: &str) -> io::Result<()> {
        let frame = self.begin();
        write!(frame, "{:x}\r\n", line.len() + 1)?;
        frame.extend_from_slice(line.as_bytes());
        frame.extend_from_slice(b"\n\r\n");
        self.send()
    }

    /// The zero-length chunk that ends a streaming response.
    pub(crate) fn http_last_chunk(&mut self) -> io::Result<()> {
        self.begin().extend_from_slice(b"0\r\n\r\n");
        self.send()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sink that records each `write` call on its own.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// The single write `frame` makes, as text.
    fn one_write(frame: impl FnOnce(&mut WireWriter<Writes>) -> io::Result<()>) -> String {
        let mut wire = WireWriter::new(Writes::default());
        frame(&mut wire).unwrap();
        assert_eq!(wire.out.0.len(), 1, "one frame, one write");
        String::from_utf8(wire.out.0.remove(0)).unwrap()
    }

    #[test]
    fn each_frame_is_one_write_of_the_protocol_bytes() {
        let event = r#"{"type":"estimate","id":7}"#;
        assert_eq!(one_write(|w| w.line(event)), format!("{event}\n"));

        let chunk = one_write(|w| w.http_chunk(event));
        assert_eq!(chunk, format!("{:x}\r\n{event}\n\r\n", event.len() + 1));
        let body = format!("{chunk}{}", one_write(|w| w.http_last_chunk()));
        assert_eq!(crate::client::decode_chunked(&body), format!("{event}\n"));

        assert_eq!(
            one_write(|w| w.http_reply(429, "Too Many Requests", event)),
            format!(
                "HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\nConnection: close\r\n\r\n{event}",
                event.len()
            )
        );
        assert_eq!(
            one_write(|w| w.http_stream_head()),
            "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
             Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
        );
        assert_eq!(
            one_write(|w| w.http_get("/queries")),
            "GET /queries HTTP/1.1\r\nHost: wake\r\nConnection: close\r\n\r\n"
        );
    }

    #[test]
    fn the_frame_buffer_is_reused_not_appended_to() {
        let mut wire = WireWriter::new(Writes::default());
        wire.line("a long first line").unwrap();
        wire.line("b").unwrap();
        assert_eq!(
            wire.out.0,
            vec![b"a long first line\n".to_vec(), b"b\n".to_vec()]
        );
    }
}
