//! Blocking wire-protocol client.
//!
//! One `NetClient` is one session: single-threaded, credit-throttled,
//! reusing one encode buffer and one read buffer across every frame.
//! After every send the client consumes each ack already waiting in its
//! socket without blocking, so [`NetClient::acked_seq`], the credit grant
//! and the ack-latency samples move as acks arrive. It blocks only when
//! the credit window is exhausted ([`ClientStats::backpressure_waits`]
//! counts those stalls) and in [`NetClient::wait_all_acked`] and
//! [`NetClient::finish`].

use crate::frame::{self, Frame, ReadStatus, WIRE_VERSION};
use odh_obs::Histogram;
use odh_types::{OdhError, Record, Result};
use std::collections::VecDeque;
use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Client-side session counters, plus the ack-latency histogram
/// (microseconds from frame write to ack receipt).
#[derive(Default)]
pub struct ClientStats {
    pub frames_sent: u64,
    pub rows_sent: u64,
    pub bytes_sent: u64,
    pub bytes_received: u64,
    pub acks_received: u64,
    /// Times a send blocked on zero credit.
    pub backpressure_waits: u64,
    /// Last seal-queue depth the server reported.
    pub last_queue_depth: u32,
    /// Last WAL lag the server reported.
    pub last_wal_lag: u64,
    pub ack_latency_us: Histogram,
}

/// Final report returned by [`NetClient::finish`].
pub struct ClientReport {
    /// Highest batch seq the server durably acked.
    pub acked_seq: u64,
    pub stats: ClientStats,
}

pub struct NetClient {
    stream: TcpStream,
    ntags: usize,
    next_seq: u64,
    acked_seq: u64,
    /// Total frames of credit granted by the server.
    granted: u64,
    enc_buf: Vec<u8>,
    rd_buf: Vec<u8>,
    /// (seq, send instant) of unacked frames, for latency accounting.
    inflight: VecDeque<(u64, Instant)>,
    pub stats: ClientStats,
}

const BLOCKING_TIMEOUT: Duration = Duration::from_secs(30);
// Mid-frame stall tolerance, in read-timeout units.
const IDLE_BUDGET: u32 = 1000;

impl NetClient {
    /// Connect and run the handshake for one schema type with `ntags`
    /// tag slots per record.
    pub fn connect(addr: SocketAddr, schema: &str, ntags: usize) -> Result<NetClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(BLOCKING_TIMEOUT))?;
        let mut c = NetClient {
            stream,
            ntags,
            next_seq: 1,
            acked_seq: 0,
            granted: 0,
            enc_buf: Vec::new(),
            rd_buf: Vec::new(),
            inflight: VecDeque::new(),
            stats: ClientStats::default(),
        };
        c.enc_buf.clear();
        frame::encode_hello(&mut c.enc_buf, ntags as u16, schema);
        c.stream.write_all(&c.enc_buf)?;
        match c.read_one()? {
            Some(Reply::HelloOk { version, credit }) => {
                if version != WIRE_VERSION {
                    return Err(OdhError::Unsupported(format!(
                        "server speaks wire version {version}, client {WIRE_VERSION}"
                    )));
                }
                c.granted = credit as u64;
                Ok(c)
            }
            Some(Reply::Ack) | Some(Reply::Bye) => {
                Err(OdhError::Corrupt("wire: unexpected frame during handshake".into()))
            }
            None => Err(OdhError::Io("handshake timed out".into())),
        }
    }

    /// Credit remaining before the next send must block.
    pub fn credit(&self) -> u64 {
        self.granted.saturating_sub(self.next_seq - 1)
    }

    /// Highest durably-acked batch seq so far.
    pub fn acked_seq(&self) -> u64 {
        self.acked_seq
    }

    /// Seq the next [`NetClient::send_batch`] will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Encode and send `records` as one batch frame. Blocks while the
    /// credit window is exhausted. Returns the frame's seq.
    pub fn send_batch(&mut self, records: &[Record]) -> Result<u64> {
        self.wait_credit()?;
        let seq = self.next_seq;
        self.enc_buf.clear();
        frame::encode_batch(&mut self.enc_buf, seq, self.ntags, records)?;
        self.stream.write_all(&self.enc_buf)?;
        self.sent(seq, records.len() as u64, self.enc_buf.len())?;
        Ok(seq)
    }

    /// Send one pre-encoded `BATCH` frame (built by
    /// [`frame::encode_batch`] with `seq` equal to this session's
    /// [`NetClient::next_seq`]); `rows` is its row count. Replay shape
    /// for harnesses that pre-generate wire traffic: no re-encode on the
    /// hot path, but credit, inflight, and ack accounting identical to
    /// [`NetClient::send_batch`].
    pub fn send_encoded(&mut self, bytes: &[u8], rows: u64) -> Result<u64> {
        if bytes.len() < frame::FRAME_HDR + 9 || bytes[frame::FRAME_HDR] != frame::KIND_BATCH {
            return Err(OdhError::Config("send_encoded: not a single BATCH frame".into()));
        }
        let at = frame::FRAME_HDR + 1;
        let seq = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        if seq != self.next_seq {
            return Err(OdhError::Config(format!(
                "send_encoded: frame carries seq {seq}, session expects {}",
                self.next_seq
            )));
        }
        self.wait_credit()?;
        self.stream.write_all(bytes)?;
        self.sent(seq, rows, bytes.len())?;
        Ok(seq)
    }

    /// Block while the credit window is exhausted.
    fn wait_credit(&mut self) -> Result<()> {
        while self.credit() == 0 {
            self.stats.backpressure_waits += 1;
            if self.read_one()?.is_none() {
                return Err(OdhError::Io("timed out waiting for credit".into()));
            }
        }
        Ok(())
    }

    /// Account for frame `seq` just written, then consume every ack that
    /// has already arrived.
    fn sent(&mut self, seq: u64, rows: u64, bytes: usize) -> Result<()> {
        self.next_seq += 1;
        self.inflight.push_back((seq, Instant::now()));
        self.stats.frames_sent += 1;
        self.stats.rows_sent += rows;
        self.stats.bytes_sent += bytes as u64;
        while self.frame_arriving()? {
            self.read_one()?;
        }
        Ok(())
    }

    /// Block until every sent frame is acked (without closing).
    pub fn wait_all_acked(&mut self) -> Result<()> {
        while self.acked_seq + 1 < self.next_seq {
            if self.read_one()?.is_none() {
                return Err(OdhError::Io("timed out waiting for ack".into()));
            }
        }
        Ok(())
    }

    /// Send BYE, wait for the final ack + BYE_OK, and return the session
    /// report.
    pub fn finish(mut self) -> Result<ClientReport> {
        self.enc_buf.clear();
        frame::encode_bye(&mut self.enc_buf);
        self.stream.write_all(&self.enc_buf)?;
        loop {
            match self.read_one()? {
                Some(Reply::Bye) => break,
                Some(_) => {}
                None => return Err(OdhError::Io("timed out waiting for BYE_OK".into())),
            }
        }
        Ok(ClientReport { acked_seq: self.acked_seq, stats: self.stats })
    }

    /// Whether a server frame (or EOF) has started arriving, probed
    /// without blocking. The frame itself is then read in blocking mode,
    /// so a frame that arrives in pieces is waited for, not mistaken for
    /// a stalled peer.
    fn frame_arriving(&self) -> Result<bool> {
        self.stream.set_nonblocking(true)?;
        let probe = self.stream.peek(&mut [0u8; 1]);
        self.stream.set_nonblocking(false)?;
        match probe {
            Ok(_) => Ok(true),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                Ok(false)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Read and process one server frame. `Ok(None)` = idle timeout.
    fn read_one(&mut self) -> Result<Option<Reply>> {
        let mut buf = std::mem::take(&mut self.rd_buf);
        let st = frame::read_frame(&mut self.stream, &mut buf, IDLE_BUDGET);
        self.rd_buf = buf;
        match st? {
            ReadStatus::Idle => Ok(None),
            ReadStatus::Eof => Err(OdhError::Io("server closed the connection".into())),
            ReadStatus::Frame(len) => {
                self.stats.bytes_received += (frame::FRAME_HDR + len) as u64;
                match frame::decode_frame(&self.rd_buf[..len])? {
                    Frame::Ack { seq, grant, queue_depth, wal_lag } => {
                        let now = Instant::now();
                        while let Some(&(s, at)) = self.inflight.front() {
                            if s > seq {
                                break;
                            }
                            self.stats
                                .ack_latency_us
                                .record(now.duration_since(at).as_micros() as u64);
                            self.inflight.pop_front();
                        }
                        self.acked_seq = self.acked_seq.max(seq);
                        self.granted += grant as u64;
                        self.stats.acks_received += 1;
                        self.stats.last_queue_depth = queue_depth;
                        self.stats.last_wal_lag = wal_lag;
                        Ok(Some(Reply::Ack))
                    }
                    Frame::HelloOk { version, credit } => {
                        Ok(Some(Reply::HelloOk { version, credit }))
                    }
                    Frame::ByeOk => Ok(Some(Reply::Bye)),
                    Frame::Error { code, msg } => Err(frame::error_from_code(code, msg)),
                    Frame::Hello { .. } | Frame::Batch(_) | Frame::Bye => {
                        Err(OdhError::Corrupt("wire: server sent a client frame".into()))
                    }
                }
            }
        }
    }
}

/// Internal reply classification for the client's read loop.
enum Reply {
    Ack,
    HelloOk { version: u16, credit: u32 },
    Bye,
}

#[cfg(test)]
mod tests {
    use super::*;
    use odh_types::{SourceId, Timestamp};
    use std::net::TcpListener;
    use std::sync::mpsc;
    use std::thread;

    const WINDOW: u32 = 64;

    fn records() -> Vec<Record> {
        vec![Record::new(SourceId(1), Timestamp(1), vec![Some(1.0)])]
    }

    /// A scripted server: handshake with a 64-frame window, then for each
    /// frame seq 1, 2, ... read the BATCH and hand its ACK to `ack`, which
    /// writes it when and how the test wants.
    fn fake_server(
        frames: u64,
        mut ack: impl FnMut(&mut TcpStream, u64, &[u8]) + Send + 'static,
    ) -> (SocketAddr, thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let h = thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let (mut rd, mut wr) = (Vec::new(), Vec::new());
            let mut read = |s: &mut TcpStream| {
                let st = frame::read_frame(s, &mut rd, IDLE_BUDGET).unwrap();
                assert!(matches!(st, ReadStatus::Frame(_)));
            };
            read(&mut s);
            frame::encode_hello_ok(&mut wr, WINDOW);
            s.write_all(&wr).unwrap();
            for seq in 1..=frames {
                read(&mut s);
                wr.clear();
                frame::encode_ack(&mut wr, seq, 1, 0, 0);
                ack(&mut s, seq, &wr);
            }
            // Hold the socket open until the client hangs up.
            while let Ok(ReadStatus::Frame(_)) = frame::read_frame(&mut s, &mut rd, IDLE_BUDGET) {}
        });
        (addr, h)
    }

    fn frame2() -> Vec<u8> {
        let mut buf = Vec::new();
        frame::encode_batch(&mut buf, 2, 1, &records()).unwrap();
        buf
    }

    #[test]
    fn send_consumes_acks_already_arrived() {
        let ((tx, rx), (go_tx, go_rx)) = (mpsc::channel(), mpsc::channel());
        let (addr, server) = fake_server(2, move |s, seq, ack| {
            if seq == 2 {
                go_rx.recv().unwrap();
            }
            s.write_all(ack).unwrap();
            if seq == 1 {
                tx.send(()).unwrap();
            }
        });
        let mut c = NetClient::connect(addr, "m", 1).unwrap();
        assert_eq!(c.send_batch(&records()).unwrap(), 1);
        rx.recv().unwrap();
        // Loopback delivers on write; the pause only guards slow hosts.
        thread::sleep(Duration::from_millis(20));
        // Credit is 62 of 64 after this send: far from exhausted, yet the
        // ack for seq 1 must already be consumed.
        assert_eq!(c.send_encoded(&frame2(), 1).unwrap(), 2);
        assert_eq!(c.acked_seq(), 1);
        assert_eq!(c.stats.ack_latency_us.count(), 1);
        assert_eq!(c.credit(), WINDOW as u64 + 1 - 2);
        go_tx.send(()).unwrap();
        c.wait_all_acked().unwrap();
        drop(c);
        server.join().unwrap();
    }

    #[test]
    fn ack_arriving_in_pieces_is_read_whole() {
        let ((tx, rx), (go_tx, go_rx)) = (mpsc::channel(), mpsc::channel());
        let (addr, server) = fake_server(2, move |s, seq, ack| {
            if seq == 1 {
                s.write_all(&ack[..5]).unwrap();
                tx.send(()).unwrap();
                thread::sleep(Duration::from_millis(100));
                s.write_all(&ack[5..]).unwrap();
            } else {
                go_rx.recv().unwrap();
                s.write_all(ack).unwrap();
            }
        });
        let mut c = NetClient::connect(addr, "m", 1).unwrap();
        c.send_batch(&records()).unwrap();
        rx.recv().unwrap();
        thread::sleep(Duration::from_millis(20));
        // The first five bytes of ACK 1 are in the socket; the drain must
        // wait for the rest instead of failing or dropping the frame.
        c.send_encoded(&frame2(), 1).unwrap();
        assert_eq!(c.acked_seq(), 1);
        go_tx.send(()).unwrap();
        c.wait_all_acked().unwrap();
        assert_eq!(c.acked_seq(), 2);
        assert_eq!(c.stats.acks_received, 2);
        drop(c);
        server.join().unwrap();
    }
}
