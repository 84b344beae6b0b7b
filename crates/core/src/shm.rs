//! OS shared-memory primitives for the cross-process transport.
//!
//! Everything the shm backend needs from the kernel lives here, behind a
//! dependency-free seam: a file-backed [`ShmSegment`] mapped with `MAP_SHARED`
//! into each participating process, and a pair of futex wrappers
//! ([`futex_wait`]/[`futex_wake`]) under every ring's doorbell
//! ([`crate::ring`], through `csync`'s seam the checker models).
//!
//! The workspace vendors no `libc`, so on Linux (x86_64/aarch64) the three
//! required syscalls — `mmap`, `munmap`, `futex` — are issued directly via
//! inline assembly. Regular file creation/sizing goes through `std::fs`
//! (`File::create` + `set_len`), which also guarantees the fresh mapping
//! reads as zeroes. On any other platform the module still compiles:
//! [`ShmSegment::create`] reports [`RvmaError::TransportFailed`] and the
//! futex wrappers degrade to bounded sleeps (at most 2 ms; a heap ring's
//! idle consumer then re-checks that often), so the rest of the crate
//! (and its tests) gate on [`shm_supported`] instead of `cfg` soup.
//!
//! ## Robustness conventions
//!
//! * Every `futex_wait` takes a bounded timeout and every caller re-checks
//!   its predicate in a loop. A lost wakeup (or a peer dying between
//!   publish and wake) therefore costs latency, never a hang.
//! * The futexes are *shared* (no `FUTEX_PRIVATE_FLAG`): the wait queue is
//!   keyed on the physical page, which is what makes cross-process wakeups
//!   work through two different virtual mappings of one segment.
//! * The creating side owns the file name and unlinks it on drop; openers
//!   never unlink. See DESIGN.md §12 for the peer-death protocol built on
//!   top.

use std::fs::OpenOptions;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Duration;

use crate::error::{Result, RvmaError};

/// True when this build can actually create and map shared segments (Linux
/// on x86_64 or aarch64 — the platforms the raw-syscall shim covers).
pub const fn shm_supported() -> bool {
    cfg!(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))
}

// ---------------------------------------------------------------------------
// Raw syscalls (Linux only; no libc in the workspace).
// ---------------------------------------------------------------------------

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    pub const SYS_MMAP: usize = 9;
    pub const SYS_MUNMAP: usize = 11;
    pub const SYS_FUTEX: usize = 202;

    /// Six-argument Linux syscall. Returns the raw kernel result
    /// (negative errno on failure).
    ///
    /// # Safety
    /// The caller must uphold the invariants of the specific syscall.
    pub unsafe fn syscall6(
        n: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
        a6: usize,
    ) -> isize {
        let ret: isize;
        core::arch::asm!(
            "syscall",
            inlateout("rax") n as isize => ret,
            in("rdi") a1,
            in("rsi") a2,
            in("rdx") a3,
            in("r10") a4,
            in("r8") a5,
            in("r9") a6,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack)
        );
        ret
    }
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
mod sys {
    pub const SYS_MMAP: usize = 222;
    pub const SYS_MUNMAP: usize = 215;
    pub const SYS_FUTEX: usize = 98;

    /// Six-argument Linux syscall (aarch64 `svc 0` convention).
    ///
    /// # Safety
    /// The caller must uphold the invariants of the specific syscall.
    pub unsafe fn syscall6(
        n: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
        a6: usize,
    ) -> isize {
        let ret: isize;
        core::arch::asm!(
            "svc 0",
            in("x8") n,
            inlateout("x0") a1 => ret,
            in("x1") a2,
            in("x2") a3,
            in("x3") a4,
            in("x4") a5,
            in("x5") a6,
            options(nostack)
        );
        ret
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod os {
    use super::sys::{syscall6, SYS_FUTEX, SYS_MMAP, SYS_MUNMAP};
    use std::sync::atomic::AtomicU32;

    const PROT_READ: usize = 1;
    const PROT_WRITE: usize = 2;
    const MAP_SHARED: usize = 1;
    const FUTEX_WAIT: usize = 0;
    const FUTEX_WAKE: usize = 1;

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    pub fn mmap_shared(fd: i32, len: usize) -> std::result::Result<*mut u8, i32> {
        // SAFETY: anonymous address (addr=0), kernel-validated fd/len; a
        // failed mapping comes back as -errno, never a partial mapping.
        let ret = unsafe {
            syscall6(
                SYS_MMAP,
                0,
                len,
                PROT_READ | PROT_WRITE,
                MAP_SHARED,
                fd as usize,
                0,
            )
        };
        if ret < 0 {
            Err(-ret as i32)
        } else {
            Ok(ret as *mut u8)
        }
    }

    /// # Safety
    /// `ptr..ptr+len` must be a live mapping created by [`mmap_shared`] and
    /// must not be referenced after this call.
    pub unsafe fn munmap(ptr: *mut u8, len: usize) {
        let _ = syscall6(SYS_MUNMAP, ptr as usize, len, 0, 0, 0, 0);
    }

    pub fn futex_wait(word: &AtomicU32, expected: u32, timeout_ns: u64) {
        let ts = Timespec {
            tv_sec: (timeout_ns / 1_000_000_000) as i64,
            tv_nsec: (timeout_ns % 1_000_000_000) as i64,
        };
        // SAFETY: `word` lives for the duration of the call; FUTEX_WAIT
        // only sleeps, it never writes through the pointer. Spurious
        // returns (EAGAIN/EINTR/ETIMEDOUT) are all fine — callers loop.
        unsafe {
            let _ = syscall6(
                SYS_FUTEX,
                word.as_ptr() as usize,
                FUTEX_WAIT,
                expected as usize,
                &ts as *const Timespec as usize,
                0,
                0,
            );
        }
    }

    pub fn futex_wake(word: &AtomicU32, n: u32) {
        // SAFETY: `word` outlives the call; FUTEX_WAKE reads nothing
        // through the pointer, it only keys the wait queue.
        unsafe {
            let _ = syscall6(
                SYS_FUTEX,
                word.as_ptr() as usize,
                FUTEX_WAKE,
                n as usize,
                0,
                0,
                0,
            );
        }
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod os {
    use std::sync::atomic::AtomicU32;

    pub fn mmap_shared(_fd: i32, _len: usize) -> std::result::Result<*mut u8, i32> {
        Err(38) // ENOSYS
    }

    /// # Safety
    /// Trivially safe — fallback build never creates a mapping.
    pub unsafe fn munmap(_ptr: *mut u8, _len: usize) {}

    pub fn futex_wait(_word: &AtomicU32, _expected: u32, timeout_ns: u64) {
        // Degrade to a bounded sleep; every caller re-checks in a loop.
        std::thread::sleep(std::time::Duration::from_nanos(timeout_ns.min(2_000_000)));
    }

    pub fn futex_wake(_word: &AtomicU32, _n: u32) {}
}

/// Bounded wait on a 32-bit word in a shared mapping: sleeps while
/// `*word == expected`, at most `timeout`. Returns on wake, value change,
/// timeout, or signal — callers must re-check their predicate.
pub fn futex_wait(word: &AtomicU32, expected: u32, timeout: Duration) {
    os::futex_wait(
        word,
        expected,
        timeout.as_nanos().min(u64::MAX as u128) as u64,
    );
}

/// Wake up to `n` waiters parked on `word` (in any process mapping it).
pub fn futex_wake(word: &AtomicU32, n: u32) {
    os::futex_wake(word, n);
}

// ---------------------------------------------------------------------------
// Segment
// ---------------------------------------------------------------------------

/// A file-backed shared-memory mapping.
///
/// The creator names the file (see [`default_segment_path`]), sizes it with
/// `set_len` (so it reads as zeroes), maps it, and unlinks it on drop.
/// Openers map the existing file and leave the name alone. Both sides hold
/// the mapping until their `ShmSegment` drops, so an unlinked segment stays
/// usable until the last participant exits — the standard POSIX idiom for
/// leak-free cleanup even when a peer dies.
pub struct ShmSegment {
    ptr: *mut u8,
    len: usize,
    path: PathBuf,
    owner: bool,
}

// SAFETY: the mapping is plain shared memory; all concurrent access goes
// through atomics or explicitly synchronised raw copies in transport_shm.
unsafe impl Send for ShmSegment {}
unsafe impl Sync for ShmSegment {}

/// Smallest page size we might be mapped with; touching at this stride
/// faults every page even if the kernel uses larger pages.
const PAGE: usize = 4096;

impl ShmSegment {
    /// Create (exclusively) and map a new zero-filled segment of `len`
    /// bytes at `path`. The segment file is unlinked when this handle
    /// drops.
    pub fn create(path: &Path, len: usize) -> Result<ShmSegment> {
        if !shm_supported() {
            return Err(RvmaError::TransportFailed(
                "shared-memory transport requires Linux on x86_64/aarch64".into(),
            ));
        }
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(path)
            .map_err(|e| RvmaError::TransportFailed(format!("create {}: {e}", path.display())))?;
        file.set_len(len as u64)
            .map_err(|e| RvmaError::TransportFailed(format!("size {}: {e}", path.display())))?;
        let ptr = Self::map(&file, len, path)?;
        // Pre-fault every page while the segment is still private to us —
        // the shared-memory analogue of RDMA memory registration. Without
        // this the first touch of each tmpfs page takes a kernel fault on
        // the datapath, which dominates the large-message (bulk-extent)
        // lane. Write-touching is safe here: the file was created
        // exclusively and `set_len` guarantees it is all zeros.
        for off in (0..len).step_by(PAGE) {
            // SAFETY: `off < len` and the mapping is `len` bytes.
            unsafe { std::ptr::write_volatile(ptr.add(off), 0) };
        }
        Ok(ShmSegment {
            ptr,
            len,
            path: path.to_path_buf(),
            owner: true,
        })
    }

    /// Map an existing segment created by a peer process.
    pub fn open(path: &Path) -> Result<ShmSegment> {
        if !shm_supported() {
            return Err(RvmaError::TransportFailed(
                "shared-memory transport requires Linux on x86_64/aarch64".into(),
            ));
        }
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| RvmaError::TransportFailed(format!("open {}: {e}", path.display())))?;
        let len = file
            .metadata()
            .map_err(|e| RvmaError::TransportFailed(format!("stat {}: {e}", path.display())))?
            .len() as usize;
        if len == 0 {
            return Err(RvmaError::TransportFailed(format!(
                "segment {} has zero length",
                path.display()
            )));
        }
        let ptr = Self::map(&file, len, path)?;
        // Pre-fault this process's page mappings (read-only touch: the
        // creator owns the contents and may already be publishing data).
        // The pages themselves exist — the creator write-faulted them —
        // so this only populates our page tables, off the datapath.
        for off in (0..len).step_by(PAGE) {
            // SAFETY: `off < len` and the mapping is `len` bytes.
            unsafe { std::ptr::read_volatile(ptr.add(off)) };
        }
        Ok(ShmSegment {
            ptr,
            len,
            path: path.to_path_buf(),
            owner: false,
        })
    }

    fn map(file: &std::fs::File, len: usize, path: &Path) -> Result<*mut u8> {
        use std::os::fd::AsRawFd;
        os::mmap_shared(file.as_raw_fd(), len).map_err(|errno| {
            RvmaError::TransportFailed(format!("mmap {} ({len} B): errno {errno}", path.display()))
        })
    }

    /// Write-fault the pages of `[off, off + len)` so this process's
    /// later stores there take no kernel faults (the read-touch in
    /// [`ShmSegment::open`] installs read-only PTEs; the first store to
    /// each page would otherwise take a write-protect fault on the
    /// datapath). Each page's first byte is rewritten with its current
    /// value, so existing contents survive — only call this on regions
    /// no *other* process writes concurrently.
    pub fn prefault_writable(&self, off: usize, len: usize) {
        let end = off.checked_add(len).expect("prefault range overflow");
        assert!(end <= self.len, "prefault range outside segment");
        for page in (off..end).step_by(PAGE) {
            // SAFETY: `page < self.len`; bytewise volatile read + write.
            unsafe {
                let p = self.ptr.add(page);
                std::ptr::write_volatile(p, std::ptr::read_volatile(p));
            }
        }
    }

    /// Base address of the mapping.
    pub fn as_ptr(&self) -> *mut u8 {
        self.ptr
    }

    /// Mapped length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True only for a zero-length mapping (never constructed; satisfies
    /// the `len`-without-`is_empty` lint).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The backing file's path (what a peer passes to [`ShmSegment::open`]).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A `T` reference at byte `offset` into the segment.
    ///
    /// # Safety
    /// `offset` must be in bounds, `T`-aligned, and the bytes there must be
    /// a valid `T` for the mapping's lifetime. Only atomics and `repr(C)`
    /// plain-data structs are used this way.
    pub unsafe fn at<T>(&self, offset: usize) -> &T {
        debug_assert!(offset + std::mem::size_of::<T>() <= self.len);
        debug_assert_eq!(self.ptr.add(offset) as usize % std::mem::align_of::<T>(), 0);
        &*(self.ptr.add(offset) as *const T)
    }
}

impl Drop for ShmSegment {
    fn drop(&mut self) {
        // SAFETY: ptr/len are the live mapping created in create/open; the
        // handle is being destroyed so nothing references it afterwards.
        unsafe { os::munmap(self.ptr, self.len) };
        if self.owner {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

/// Unique segment path for this process: `/dev/shm` when available (a real
/// tmpfs, the conventional home for POSIX shm), else the system temp dir.
pub fn default_segment_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = if Path::new("/dev/shm").is_dir() {
        PathBuf::from("/dev/shm")
    } else {
        std::env::temp_dir()
    };
    let nonce = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos())
        .unwrap_or(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    dir.join(format!(
        "rvma-{tag}-{}-{nonce:x}-{n}.shm",
        std::process::id()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::Arc;

    #[test]
    fn create_map_write_read_roundtrip() {
        if !shm_supported() {
            return;
        }
        let path = default_segment_path("segtest");
        let seg = ShmSegment::create(&path, 8192).unwrap();
        assert!(path.exists());
        // Fresh mapping reads as zeroes.
        // SAFETY: offset 0 is aligned and in bounds.
        let w: &AtomicU64 = unsafe { seg.at::<AtomicU64>(0) };
        assert_eq!(w.load(Ordering::SeqCst), 0);
        w.store(0xDEAD_BEEF_F00D, Ordering::SeqCst);

        // A second mapping of the same file sees the store.
        let seg2 = ShmSegment::open(&path).unwrap();
        // SAFETY: as above.
        let w2: &AtomicU64 = unsafe { seg2.at::<AtomicU64>(0) };
        assert_eq!(w2.load(Ordering::SeqCst), 0xDEAD_BEEF_F00D);

        drop(seg2); // opener never unlinks
        assert!(path.exists());
        drop(seg); // creator unlinks
        assert!(!path.exists());
    }

    #[test]
    fn create_refuses_to_clobber() {
        if !shm_supported() {
            return;
        }
        let path = default_segment_path("clobber");
        let _a = ShmSegment::create(&path, 4096).unwrap();
        assert!(ShmSegment::create(&path, 4096).is_err());
    }

    #[test]
    fn futex_wait_times_out_and_wakes() {
        let word = Arc::new(AtomicU32::new(0));
        // Timeout path: value matches, nobody wakes us.
        let t0 = std::time::Instant::now();
        futex_wait(&word, 0, Duration::from_millis(20));
        assert!(t0.elapsed() >= Duration::from_millis(5));
        // Mismatch path: returns immediately.
        futex_wait(&word, 1, Duration::from_secs(5));

        // Wake path: a real sleeper is released well before its timeout.
        let w = Arc::clone(&word);
        let h = std::thread::spawn(move || {
            let t0 = std::time::Instant::now();
            while w.load(Ordering::SeqCst) == 0 && t0.elapsed() < Duration::from_secs(10) {
                futex_wait(&w, 0, Duration::from_millis(100));
            }
            w.load(Ordering::SeqCst)
        });
        std::thread::sleep(Duration::from_millis(10));
        word.store(7, Ordering::SeqCst);
        futex_wake(&word, u32::MAX);
        assert_eq!(h.join().unwrap(), 7);
    }
}
