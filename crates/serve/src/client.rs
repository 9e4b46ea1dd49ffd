//! A minimal blocking client for `qsdc-serve`, used by the chaos tests,
//! the repository benchmark's `serve-open-loop` workload (`perfbench/`),
//! and ad-hoc tooling.
//!
//! The protocol is symmetric newline-delimited JSON, so the client is a
//! thin wrapper: [`Client::send`] writes one request line,
//! [`Client::recv`] reads the next response line (which may be an
//! asynchronous [`Snapshot`](Response::Snapshot) or
//! [`Done`](Response::Done) for an earlier job — the server interleaves
//! them with request replies). [`Client::wait_done`] drives a submitted
//! job to completion, collecting its snapshots.

use protocol::wire::{JobSpec, Request, Response};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

/// A blocking connection to one server.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The server's advertised per-client job quota (from `Hello`).
    quota: usize,
    /// The server's advertised snapshot cadence (from `Hello`).
    snapshot_trials: usize,
}

impl Client {
    /// Connects and consumes the server's `Hello` banner.
    ///
    /// # Errors
    ///
    /// Connection failures, or a peer that does not speak the protocol
    /// (no parseable `Hello` line).
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        // Each request is one write of a whole line; Nagle would hold a
        // pipelined request until the server's delayed ACK.
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        let mut client = Client {
            reader,
            writer,
            quota: 0,
            snapshot_trials: 0,
        };
        match client.recv()? {
            Response::Hello {
                quota,
                snapshot_trials,
                ..
            } => {
                client.quota = quota;
                client.snapshot_trials = snapshot_trials;
                Ok(client)
            }
            other => Err(io::Error::other(format!("expected Hello, got {other:?}"))),
        }
    }

    /// The server's per-client job quota.
    pub fn quota(&self) -> usize {
        self.quota
    }

    /// The server's snapshot cadence in trials.
    pub fn snapshot_trials(&self) -> usize {
        self.snapshot_trials
    }

    /// Writes one request line.
    ///
    /// # Errors
    ///
    /// Socket write failures.
    pub fn send(&mut self, request: &Request) -> io::Result<()> {
        self.send_raw(&serde::json::to_string(request))
    }

    /// Writes one raw line, newline included, in a single write (tests use
    /// it to exercise the server's malformed- and oversized-input
    /// handling).
    ///
    /// # Errors
    ///
    /// Socket write failures.
    pub fn send_raw(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(format!("{line}\n").as_bytes())
    }

    /// Reads the next response line, whichever job it belongs to.
    ///
    /// # Errors
    ///
    /// Socket read failures, EOF, or an unparseable line.
    pub fn recv(&mut self) -> io::Result<Response> {
        let mut line = String::new();
        let read = self.reader.read_line(&mut line)?;
        if read == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        serde::json::from_str(&line)
            .map_err(|error| io::Error::other(format!("unparseable response: {error}")))
    }

    /// Submits a job and returns the server's direct answer
    /// (`Accepted`, `Busy`, or `Error`). The server sends `Accepted` before
    /// any `Snapshot` or `Done` of the same job, so nothing of the new job
    /// is lost here. Asynchronous responses for *earlier* jobs (snapshots,
    /// completions, cancellations) arriving first are skipped — callers
    /// tracking those should use [`recv`](Self::recv) directly.
    ///
    /// # Errors
    ///
    /// Socket failures.
    pub fn submit(&mut self, job: JobSpec) -> io::Result<Response> {
        self.send(&Request::Submit { job })?;
        loop {
            match self.recv()? {
                Response::Snapshot { .. }
                | Response::Done { .. }
                | Response::Cancelled { .. }
                | Response::Status { .. } => continue,
                direct => return Ok(direct),
            }
        }
    }

    /// Reads until job `job` finishes, collecting its streamed snapshots.
    /// Returns the terminal response (`Done`, `Cancelled`, or an `Error`)
    /// plus the snapshots seen on the way.
    ///
    /// # Errors
    ///
    /// Socket failures.
    pub fn wait_done(&mut self, job: u64) -> io::Result<(Response, Vec<Response>)> {
        let mut snapshots = Vec::new();
        loop {
            let response = self.recv()?;
            match &response {
                Response::Snapshot { job: j, .. } if *j == job => snapshots.push(response),
                Response::Done { job: j, .. } | Response::Cancelled { job: j } if *j == job => {
                    return Ok((response, snapshots));
                }
                Response::Error { .. } => return Ok((response, snapshots)),
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A connected client has Nagle off, so a request never waits on the
    /// server's delayed ACK.
    #[test]
    fn connect_sets_nodelay() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("addr");
        let greeter = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accepts");
            let mut hello = serde::json::to_string(&Response::Hello {
                server: "test".to_string(),
                wire_version: protocol::wire::WIRE_VERSION,
                quota: 1,
                snapshot_trials: 1,
            });
            hello.push('\n');
            stream.write_all(hello.as_bytes()).expect("greets");
        });
        let client = Client::connect(addr).expect("connects");
        greeter.join().expect("greeter finishes");
        assert!(client.writer.nodelay().expect("reads the option"));
    }
}
