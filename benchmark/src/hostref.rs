//! Host-speed calibration: a reference round trip timed right around
//! every measured operation.
//!
//! The sandbox is a few virtual cores of a shared host. What its
//! neighbours do moves the speed of everything that runs here by tens of
//! percent, in plateaus that last from seconds to minutes, so no run is
//! long enough to average it out. The reference is a fixed piece of work
//! with the shape of the product's block fetch — a small request over a
//! loopback socket to a second thread, which checksums one block's worth
//! of bytes twice and sends them back to be checksummed once more — and
//! shares no code with the product. A measured operation's time divided
//! by the reference's time at that moment repeats from run to run several
//! times better than the operation's time does; multiplied by the
//! reference's nominal time it reads as time on a host at nominal speed.

use std::cell::{Cell, RefCell};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Bytes of the request that asks for one block.
const REQUEST_BYTES: usize = 16;

/// Table of the reflected CRC-32 polynomial, one byte at a time — the
/// benchmark's own, so that no change to the product's checksum moves
/// the reference.
fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    for (i, entry) in table.iter_mut().enumerate() {
        let mut c = i as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
        *entry = c;
    }
    table
}

fn crc(table: &[u32; 256], bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = table[((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

/// The far end: answers each request with one block, checksummed twice
/// as a datanode checksums what it reads and what it frames.
fn serve(mut stream: TcpStream, block_bytes: usize) {
    let table = crc_table();
    let mut block = vec![0x5au8; block_bytes];
    let mut request = [0u8; REQUEST_BYTES];
    while stream.read_exact(&mut request).is_ok() {
        block[0] = request[0];
        let stored = crc(&table, &block);
        let framed = crc(&table, &block);
        block[1] = (stored ^ framed) as u8;
        if stream.write_all(&block).is_err() {
            break;
        }
    }
}

/// A reference round trip over a loopback connection to a thread of its
/// own, alive for as long as the value is.
pub struct HostRef {
    stream: TcpStream,
    far_end: Option<JoinHandle<()>>,
    table: [u32; 256],
    block: RefCell<Vec<u8>>,
    /// Round trips per sample.
    rounds: usize,
    /// The newest sample and when it ended.
    newest: Cell<Option<(Instant, f64)>>,
}

/// A sample younger than this stands for the moment just before the next
/// operation too; back-to-back small operations then pay for one sample
/// each, not two.
const FRESH: Duration = Duration::from_micros(500);

impl HostRef {
    /// Starts the far end and connects to it. A sample is `rounds` round
    /// trips of `block_bytes` each.
    pub fn start(block_bytes: usize, rounds: usize) -> io::Result<HostRef> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let stream = TcpStream::connect(listener.local_addr()?)?;
        let (served, _) = listener.accept()?;
        served.set_nodelay(true)?;
        stream.set_nodelay(true)?;
        let far_end = std::thread::spawn(move || serve(served, block_bytes));
        let host = HostRef {
            stream,
            far_end: Some(far_end),
            table: crc_table(),
            block: RefCell::new(vec![0u8; block_bytes]),
            rounds: rounds.max(1),
            newest: Cell::new(None),
        };
        // The first round trips page the buffers in.
        for _ in 0..4 {
            host.round()?;
        }
        Ok(host)
    }

    /// One round trip, in seconds.
    fn round(&self) -> io::Result<f64> {
        let t0 = Instant::now();
        let mut block = self.block.borrow_mut();
        (&self.stream).write_all(&[7u8; REQUEST_BYTES])?;
        (&self.stream).read_exact(&mut block)?;
        std::hint::black_box(crc(&self.table, &block));
        Ok(t0.elapsed().as_secs_f64())
    }

    /// Mean seconds per round trip over one sample taken now.
    fn sample(&self) -> f64 {
        let mut sum = 0.0;
        for _ in 0..self.rounds {
            sum += self
                .round()
                .expect("the reference's loopback connection holds");
        }
        let secs = sum / self.rounds as f64;
        self.newest.set(Some((Instant::now(), secs)));
        secs
    }

    /// Times `op` and the reference on both sides of it. Returns what
    /// `op` returned, its duration, and the mean seconds per reference
    /// round trip of the sample before and the sample after.
    pub fn around<T>(&self, op: impl FnOnce() -> T) -> (T, Duration, f64) {
        let before = match self.newest.get() {
            Some((at, secs)) if at.elapsed() < FRESH => secs,
            _ => self.sample(),
        };
        let t0 = Instant::now();
        let out = op();
        let d = t0.elapsed();
        let after = self.sample();
        (out, d, (before + after) / 2.0)
    }
}

impl Drop for HostRef {
    fn drop(&mut self) {
        // The far end's read fails, its loop ends, the thread is joined.
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(far_end) = self.far_end.take() {
            let _ = far_end.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc_matches_the_standard_check_value() {
        assert_eq!(crc(&crc_table(), b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn round_trips_are_timed_around_the_operation_and_the_far_end_stops() {
        let host = HostRef::start(4096, 2).expect("loopback");
        let (out, d, reference) = host.around(|| {
            std::thread::sleep(Duration::from_millis(2));
            42
        });
        assert_eq!(out, 42);
        assert!(d >= Duration::from_millis(2));
        assert!(reference > 0.0 && reference < 0.1, "{reference}");
        // The sample after one operation serves as the sample before the
        // next when nothing happened in between.
        let (_, _, again) = host.around(|| ());
        assert!(again > 0.0);
        drop(host); // joins the far end; hangs here if it does not stop
    }
}
