//! A minimal keep-alive HTTP/1.1 client that timestamps the first body
//! byte, and the open- and closed-loop load generators built on it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
    /// When the first body byte (or first chunk) was available.
    pub first_body: Instant,
}

pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    request: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 16, stream.try_clone()?),
            writer: stream,
            request: Vec::new(),
        })
    }

    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> std::io::Result<Response> {
        self.request.clear();
        write!(
            self.request,
            "{method} {target} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )?;
        self.request.extend_from_slice(body);
        self.writer.write_all(&self.request)?;
        self.read_response()
    }

    fn read_line(&mut self, line: &mut String) -> std::io::Result<()> {
        line.clear();
        if self.reader.read_line(line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(())
    }

    fn read_response(&mut self) -> std::io::Result<Response> {
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let mut line = String::new();
        self.read_line(&mut line)?;
        let status: u16 = line
            .split_ascii_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut length = 0usize;
        let mut chunked = false;
        loop {
            self.read_line(&mut line)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let (name, value) = (name.trim(), value.trim());
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.parse().map_err(|_| bad("bad content-length"))?;
                } else if name.eq_ignore_ascii_case("transfer-encoding") {
                    chunked = value.eq_ignore_ascii_case("chunked");
                }
            }
        }
        if !chunked {
            let mut body = vec![0u8; length];
            if length > 0 {
                self.reader.fill_buf()?;
            }
            let first_body = Instant::now();
            self.reader.read_exact(&mut body)?;
            return Ok(Response {
                status,
                body,
                first_body,
            });
        }
        let mut body = Vec::new();
        let mut first_body = None;
        loop {
            self.read_line(&mut line)?;
            let size = usize::from_str_radix(line.trim(), 16).map_err(|_| bad("bad chunk size"))?;
            if size == 0 {
                break;
            }
            first_body.get_or_insert_with(Instant::now);
            let start = body.len();
            body.resize(start + size, 0);
            self.reader.read_exact(&mut body[start..])?;
            let mut crlf = [0u8; 2];
            self.reader.read_exact(&mut crlf)?;
        }
        // Trailer fields, up to the blank line.
        loop {
            self.read_line(&mut line)?;
            if line.trim_end().is_empty() {
                break;
            }
        }
        Ok(Response {
            status,
            body,
            first_body: first_body.unwrap_or_else(Instant::now),
        })
    }
}

/// One request of a load mix, with the body it must answer.
pub struct Req<'a> {
    pub method: &'a str,
    pub target: &'a str,
    pub body: &'a [u8],
    pub expected: &'a [u8],
    pub streamed: bool,
}

/// One request's timeline, in seconds from the phase start.
#[derive(Clone, Copy)]
pub struct Sample {
    pub due: f64,
    /// When the generator's thread, free since `max(due, previous done)`,
    /// actually sent it: the excess is the generator's own lateness.
    pub idle_lag: f64,
    pub sent: f64,
    pub first_byte: f64,
    pub done: f64,
    pub ok: bool,
    pub streamed: bool,
    /// False when the generator gave up before sending it (the backlog
    /// outgrew the phase); such requests count as missing the limit.
    pub attempted: bool,
}

impl Sample {
    /// Latency from when the request was due, in ms.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }

    pub fn ttfb_ms(&self) -> f64 {
        (self.first_byte - self.due) * 1e3
    }
}

fn send_one(conn: &mut Option<Conn>, addr: SocketAddr, req: &Req<'_>) -> (bool, Instant) {
    let result = (|| {
        if conn.is_none() {
            *conn = Some(Conn::connect(addr)?);
        }
        conn.as_mut()
            .expect("connected")
            .request(req.method, req.target, req.body)
    })();
    match result {
        Ok(r) => (
            r.status == 200 && crate::inputs::output_matches(&r.body, req.expected),
            r.first_body,
        ),
        Err(_) => {
            *conn = None;
            (false, Instant::now())
        }
    }
}

/// Open loop: request `i` of the cyclic mix is due at `i / rate` seconds,
/// whatever happened to earlier ones. `threads` generator threads each own
/// one keep-alive connection and take every `threads`-th request. A
/// request not sent within `grace` after the last one was due is dropped
/// (`attempted == false`).
pub fn open_loop(
    addr: SocketAddr,
    mix: &[Req<'_>],
    rate: f64,
    duration: Duration,
    threads: usize,
    grace: Duration,
) -> Vec<Sample> {
    let total = (rate * duration.as_secs_f64()).round().max(1.0) as usize;
    let deadline = duration.as_secs_f64() + grace.as_secs_f64();
    let start = Instant::now() + Duration::from_millis(5);
    let mut samples: Vec<Sample> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let mut conn = Conn::connect(addr).ok();
                    let mut out = Vec::new();
                    let mut free_at = 0.0f64;
                    for i in (t..total).step_by(threads) {
                        let req = &mix[i % mix.len()];
                        let due = i as f64 / rate;
                        let now = start.elapsed().as_secs_f64();
                        if due > now {
                            std::thread::sleep(Duration::from_secs_f64(due - now));
                        }
                        let sent = start.elapsed().as_secs_f64();
                        if sent > deadline {
                            out.push(Sample {
                                due,
                                idle_lag: 0.0,
                                sent,
                                first_byte: sent,
                                done: sent,
                                ok: false,
                                streamed: req.streamed,
                                attempted: false,
                            });
                            continue;
                        }
                        let (ok, first) = send_one(&mut conn, addr, req);
                        let done = start.elapsed().as_secs_f64();
                        let first_byte = first.saturating_duration_since(start).as_secs_f64();
                        out.push(Sample {
                            due,
                            idle_lag: sent - due.max(free_at),
                            sent,
                            first_byte: first_byte.min(done),
                            done,
                            ok,
                            streamed: req.streamed,
                            attempted: true,
                        });
                        free_at = done;
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("load generator thread panicked"))
            .collect()
    });
    samples.sort_by(|a, b| a.due.total_cmp(&b.due));
    samples
}

/// Closed loop: each of `threads` connections sends its next request as
/// soon as the previous answer arrived, for `duration`. Returns
/// (completed, failed, request-body bytes of completed requests, wall).
pub fn closed_loop(
    addr: SocketAddr,
    mix: &[Req<'_>],
    duration: Duration,
    threads: usize,
) -> (u64, u64, u64, Duration) {
    let start = Instant::now();
    let per_thread: Vec<(u64, u64, u64)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let mut conn = Conn::connect(addr).ok();
                    let (mut done, mut failed, mut bytes) = (0u64, 0u64, 0u64);
                    let mut i = t;
                    while start.elapsed() < duration {
                        let req = &mix[i % mix.len()];
                        let (ok, _) = send_one(&mut conn, addr, req);
                        if ok {
                            done += 1;
                            bytes += req.body.len() as u64;
                        } else {
                            failed += 1;
                        }
                        i += threads;
                    }
                    (done, failed, bytes)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("load generator thread panicked"))
            .collect()
    });
    let wall = start.elapsed();
    let sum = |f: fn(&(u64, u64, u64)) -> u64| per_thread.iter().map(f).sum::<u64>();
    (sum(|p| p.0), sum(|p| p.1), sum(|p| p.2), wall)
}
