//! A keep-alive HTTP/1.1 client speaking just enough of the protocol
//! for `preserva-server`: sized request bodies, `Content-Length`
//! responses.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One persistent connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    key: String,
}

impl Client {
    pub fn connect(addr: SocketAddr, key: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            key: key.to_string(),
        })
    }

    /// One request/response exchange: `(status, body)`.
    pub fn call(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nAuthorization: Bearer {}\r\nContent-Length: {}\r\n\r\n",
            self.key,
            body.len()
        );
        let mut request = head.into_bytes();
        request.extend_from_slice(body);
        self.writer.write_all(&request)?;
        self.writer.flush()?;
        self.read_reply()
    }

    pub fn get(&mut self, path: &str) -> io::Result<(u16, Vec<u8>)> {
        self.call("GET", path, b"")
    }

    fn read_reply(&mut self) -> io::Result<(u16, Vec<u8>)> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let mut len = 0usize;
        loop {
            line.clear();
            self.reader.read_line(&mut line)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    len = value.trim().parse().map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                    })?;
                }
            }
        }
        let mut body = vec![0u8; len];
        self.reader.read_exact(&mut body)?;
        Ok((status, body))
    }
}

/// Percent-encode a query-string value (everything but unreserved ASCII).
pub fn encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        if b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'~') {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encodes_reserved_and_non_ascii_bytes() {
        assert_eq!(encode("Hyla faber"), "Hyla%20faber");
        assert_eq!(encode("são"), "s%C3%A3o");
        assert_eq!(encode("a/b&c"), "a%2Fb%26c");
    }
}
