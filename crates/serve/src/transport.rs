//! Stream-type abstraction: the serving tier speaks the same protocol
//! over TCP and Unix-domain sockets.
//!
//! [`Transport`] is the client-side/connection-side stream contract
//! ([`std::net::TcpStream`], [`std::os::unix::net::UnixStream`], or the
//! type-erased [`AnyStream`]); [`Listen`] is the server-side listener
//! contract. [`ListenAddr`] is what a [`crate::ServeConfig`] binds,
//! [`ServerAddr`] is what a bound server publishes (port 0 resolved,
//! socket path settled) and what [`AnyStream::dial`] redials.
//!
//! `ServeConfig::default()` binds a free loopback TCP port, and a
//! `ServeClient` speaks binary frames. [`ListenAddr::unix_temp`] and
//! `ServeClient::with_protocol` pick the other arms explicitly.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A bidirectional byte stream the protocol can run over.
///
/// Everything the client and the server's per-connection threads need
/// from a socket, with no TCP specifics: dialing, cloning into a
/// read/write half pair, timeouts, shutdown, and per-transport tuning
/// (Nagle for TCP, nothing for UDS).
pub trait Transport: Read + Write + Send + Sized + 'static {
    /// The address this stream type dials.
    type Addr: Clone + Send + Sync + std::fmt::Debug + 'static;

    /// Open a fresh connection to `addr`.
    fn dial(addr: &Self::Addr) -> std::io::Result<Self>;

    /// A second handle to the same underlying socket (read/write halves).
    fn try_clone(&self) -> std::io::Result<Self>;

    /// Shut down both directions, unblocking any parked reader.
    /// Best-effort: an already-dead socket is fine.
    fn shutdown_both(&self);

    /// Per-transport socket tuning (e.g. `TCP_NODELAY`). Best-effort.
    fn tune(&self) {}

    /// Bound each blocking read by `d` (`None` blocks indefinitely).
    fn set_read_timeout(&self, d: Option<Duration>) -> std::io::Result<()>;

    /// Bound each blocking write by `d` (`None` blocks indefinitely).
    fn set_write_timeout(&self, d: Option<Duration>) -> std::io::Result<()>;

    /// Write as much of `buf` as the socket takes right now, never
    /// blocking: the count written, or `WouldBlock` when it takes
    /// nothing. The server's connection thread writes the replies it
    /// scores itself through this, so a client that stops reading
    /// cannot stall the thread that reads its requests.
    fn write_nowait(&self, buf: &[u8]) -> std::io::Result<usize>;
}

/// `send(2)` with `MSG_DONTWAIT`: what `fd`'s send buffer takes now. A
/// per-call flag, so the socket's other handles keep blocking.
#[cfg(target_os = "linux")]
fn send_nowait(fd: &impl AsRawFd, buf: &[u8]) -> std::io::Result<usize> {
    use std::os::raw::{c_int, c_void};
    extern "C" {
        fn send(fd: c_int, buf: *const c_void, len: usize, flags: c_int) -> isize;
    }
    const MSG_DONTWAIT: c_int = 0x40;
    // A closed peer is an error here, not a SIGPIPE.
    const MSG_NOSIGNAL: c_int = 0x4000;
    // SAFETY: `buf` is `buf.len()` readable bytes for the whole call, and
    // `fd` is a socket its borrowed owner keeps open until it returns.
    let n = unsafe {
        send(
            fd.as_raw_fd(),
            buf.as_ptr().cast(),
            buf.len(),
            MSG_DONTWAIT | MSG_NOSIGNAL,
        )
    };
    if n < 0 {
        Err(std::io::Error::last_os_error())
    } else {
        Ok(n as usize)
    }
}

/// Elsewhere nothing is written without blocking: every reply takes the
/// writer thread.
#[cfg(not(target_os = "linux"))]
fn send_nowait(_fd: &impl AsRawFd, _buf: &[u8]) -> std::io::Result<usize> {
    Err(std::io::ErrorKind::WouldBlock.into())
}

impl Transport for TcpStream {
    type Addr = SocketAddr;

    fn dial(addr: &SocketAddr) -> std::io::Result<Self> {
        TcpStream::connect(addr)
    }

    fn try_clone(&self) -> std::io::Result<Self> {
        TcpStream::try_clone(self)
    }

    fn shutdown_both(&self) {
        let _ = TcpStream::shutdown(self, std::net::Shutdown::Both);
    }

    fn tune(&self) {
        let _ = self.set_nodelay(true);
    }

    fn set_read_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        TcpStream::set_read_timeout(self, d)
    }

    fn set_write_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        TcpStream::set_write_timeout(self, d)
    }

    fn write_nowait(&self, buf: &[u8]) -> std::io::Result<usize> {
        send_nowait(self, buf)
    }
}

impl Transport for UnixStream {
    type Addr = PathBuf;

    fn dial(addr: &PathBuf) -> std::io::Result<Self> {
        UnixStream::connect(addr)
    }

    fn try_clone(&self) -> std::io::Result<Self> {
        UnixStream::try_clone(self)
    }

    fn shutdown_both(&self) {
        let _ = UnixStream::shutdown(self, std::net::Shutdown::Both);
    }

    fn set_read_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        UnixStream::set_read_timeout(self, d)
    }

    fn set_write_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        UnixStream::set_write_timeout(self, d)
    }

    fn write_nowait(&self, buf: &[u8]) -> std::io::Result<usize> {
        send_nowait(self, buf)
    }
}

/// What a [`crate::ServeConfig`] binds: a TCP bind string (port 0 picks
/// a free port) or a Unix-socket path (a stale file at that path is
/// removed before binding; the server removes it again on shutdown).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ListenAddr {
    /// A `host:port` bind string, e.g. `"127.0.0.1:0"`.
    Tcp(String),
    /// A filesystem path for a Unix-domain socket.
    Unix(PathBuf),
}

static UNIX_TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

impl ListenAddr {
    /// A fresh, collision-free Unix-socket path under the system temp
    /// directory (unique per process × call).
    pub fn unix_temp(tag: &str) -> ListenAddr {
        let n = UNIX_TEMP_COUNTER.fetch_add(1, Ordering::Relaxed);
        ListenAddr::Unix(std::env::temp_dir().join(format!(
            "rlsched-serve-{tag}-{}-{n}.sock",
            std::process::id()
        )))
    }
}

impl std::fmt::Display for ListenAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ListenAddr::Tcp(a) => write!(f, "tcp:{a}"),
            ListenAddr::Unix(p) => write!(f, "unix:{}", p.display()),
        }
    }
}

/// Where a *bound* server actually listens — what clients dial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerAddr {
    /// A resolved TCP socket address (port 0 already replaced).
    Tcp(SocketAddr),
    /// The Unix-socket path.
    Unix(PathBuf),
}

impl std::fmt::Display for ServerAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerAddr::Tcp(a) => write!(f, "tcp:{a}"),
            ServerAddr::Unix(p) => write!(f, "unix:{}", p.display()),
        }
    }
}

/// A connected stream over either transport, dialed from a
/// [`ServerAddr`]. The per-call enum dispatch costs one predictable
/// branch; transport-pinned code can use `TcpStream` / `UnixStream`
/// directly instead.
#[derive(Debug)]
pub enum AnyStream {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A Unix-domain connection.
    Unix(UnixStream),
}

/// `$body` with `$s` bound to whichever stream `$any` holds.
macro_rules! either {
    ($any:expr, $s:ident => $body:expr) => {
        match $any {
            AnyStream::Tcp($s) => $body,
            AnyStream::Unix($s) => $body,
        }
    };
}

impl Read for AnyStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        either!(self, s => s.read(buf))
    }
}

impl Write for AnyStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        either!(self, s => s.write(buf))
    }

    fn flush(&mut self) -> std::io::Result<()> {
        either!(self, s => s.flush())
    }
}

impl Transport for AnyStream {
    type Addr = ServerAddr;

    fn dial(addr: &ServerAddr) -> std::io::Result<Self> {
        match addr {
            ServerAddr::Tcp(a) => TcpStream::connect(a).map(AnyStream::Tcp),
            ServerAddr::Unix(p) => UnixStream::connect(p).map(AnyStream::Unix),
        }
    }

    fn try_clone(&self) -> std::io::Result<Self> {
        match self {
            AnyStream::Tcp(s) => s.try_clone().map(AnyStream::Tcp),
            AnyStream::Unix(s) => s.try_clone().map(AnyStream::Unix),
        }
    }

    fn shutdown_both(&self) {
        either!(self, s => Transport::shutdown_both(s))
    }

    fn tune(&self) {
        either!(self, s => Transport::tune(s))
    }

    fn set_read_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        either!(self, s => s.set_read_timeout(d))
    }

    fn set_write_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        either!(self, s => s.set_write_timeout(d))
    }

    fn write_nowait(&self, buf: &[u8]) -> std::io::Result<usize> {
        either!(self, s => send_nowait(s, buf))
    }
}

/// Server-side listener contract: the accept loop is generic over this,
/// so TCP and UDS front doors share one implementation, monomorphized.
pub trait Listen: Send + 'static {
    /// The stream type accepted connections arrive as.
    type Stream: Transport;

    /// Toggle non-blocking accepts (the accept loop polls).
    fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()>;

    /// Accept one pending connection.
    fn accept_stream(&self) -> std::io::Result<Self::Stream>;
}

impl Listen for TcpListener {
    type Stream = TcpStream;

    fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        TcpListener::set_nonblocking(self, nonblocking)
    }

    fn accept_stream(&self) -> std::io::Result<TcpStream> {
        self.accept().map(|(s, _peer)| s)
    }
}

impl Listen for UnixListener {
    type Stream = UnixStream;

    fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        UnixListener::set_nonblocking(self, nonblocking)
    }

    fn accept_stream(&self) -> std::io::Result<UnixStream> {
        self.accept().map(|(s, _peer)| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unix_temp_paths_are_unique() {
        let a = ListenAddr::unix_temp("t");
        let b = ListenAddr::unix_temp("t");
        assert_ne!(a, b);
    }

    #[test]
    fn any_stream_round_trips_over_both_transports() {
        use std::io::{BufRead, BufReader};
        // TCP echo.
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = ServerAddr::Tcp(l.local_addr().unwrap());
        let t = std::thread::spawn(move || {
            let (mut s, _) = l.accept().unwrap();
            let mut line = String::new();
            BufReader::new(s.try_clone().unwrap())
                .read_line(&mut line)
                .unwrap();
            s.write_all(line.as_bytes()).unwrap();
        });
        let mut c = AnyStream::dial(&addr).unwrap();
        c.tune();
        c.write_all(b"ping\n").unwrap();
        let mut back = String::new();
        BufReader::new(c.try_clone().unwrap())
            .read_line(&mut back)
            .unwrap();
        assert_eq!(back, "ping\n");
        t.join().unwrap();

        // UDS echo through the same generic surface.
        let ListenAddr::Unix(path) = ListenAddr::unix_temp("echo") else {
            unreachable!()
        };
        let l = UnixListener::bind(&path).unwrap();
        let addr = ServerAddr::Unix(path.clone());
        let t = std::thread::spawn(move || {
            let mut s = l.accept_stream().unwrap();
            let mut line = String::new();
            BufReader::new(Transport::try_clone(&s).unwrap())
                .read_line(&mut line)
                .unwrap();
            s.write_all(line.as_bytes()).unwrap();
        });
        let mut c = AnyStream::dial(&addr).unwrap();
        c.write_all(b"pong\n").unwrap();
        let mut back = String::new();
        BufReader::new(c.try_clone().unwrap())
            .read_line(&mut back)
            .unwrap();
        assert_eq!(back, "pong\n");
        t.join().unwrap();
        let _ = std::fs::remove_file(&path);
    }
}
