//! Read-only file mappings for zero-copy container access.
//!
//! A compacted container is immutable, so every engine on a host can map
//! the same file and share one copy of its pages: reads go straight
//! through the page cache with no per-engine heap copy of the column
//! data. On Unix this is a real `mmap(PROT_READ, MAP_SHARED)` (declared
//! directly against the libc the standard library already links — this
//! build environment has no `libc` crate); elsewhere the file is read
//! into an owned buffer with identical semantics, just without the
//! sharing.

use std::fs::File;
use std::path::Path;

#[cfg(unix)]
mod sys {
    use core::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_SHARED: i32 = 1;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    pub fn map_failed() -> *mut c_void {
        usize::MAX as *mut c_void
    }
}

enum Backing {
    /// Live `mmap` region (Unix). `ptr` is non-null and `len > 0`.
    #[cfg(unix)]
    Mapped { ptr: *const u8, len: usize },
    /// Owned fallback: empty files (zero-length maps are invalid) and
    /// non-Unix targets.
    Owned(Vec<u8>),
}

/// A read-only view of a whole file, `Deref`-able to `&[u8]`.
///
/// The mapping is private to this value and unmapped on drop; clones of
/// the *data* are never taken — readers slice directly into it.
pub struct MappedFile {
    backing: Backing,
}

// SAFETY: the region is mapped PROT_READ and never mutated or remapped
// after construction; concurrent reads from any thread are safe.
unsafe impl Send for MappedFile {}
unsafe impl Sync for MappedFile {}

impl MappedFile {
    /// Map `path` read-only. Empty files yield an empty (owned) view.
    pub fn open(path: &Path) -> std::io::Result<MappedFile> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        if len == 0 {
            return Ok(MappedFile {
                backing: Backing::Owned(Vec::new()),
            });
        }
        Self::from_file(&file, len as usize)
    }

    #[cfg(unix)]
    fn from_file(file: &File, len: usize) -> std::io::Result<MappedFile> {
        use std::os::unix::io::AsRawFd;
        // SAFETY: a read-only shared mapping of `len` bytes of an open
        // file; the kernel keeps the mapping valid after `file` closes.
        // What no type can check: the file must not be truncated (or
        // written in place) while mapped — a read past the new end of
        // file raises SIGBUS. Only containers are mapped (the live one,
        // and the compactor's temp file while it verifies it), and none
        // is ever truncated or rewritten: the compactor writes a new temp
        // file and renames it over the live name, so an existing mapping
        // keeps the old inode and its bytes until it is dropped (removing
        // a file only unlinks it).
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == sys::map_failed() || ptr.is_null() {
            return Err(std::io::Error::last_os_error());
        }
        Ok(MappedFile {
            backing: Backing::Mapped {
                ptr: ptr as *const u8,
                len,
            },
        })
    }

    #[cfg(not(unix))]
    fn from_file(file: &File, _len: usize) -> std::io::Result<MappedFile> {
        use std::io::Read;
        let mut buf = Vec::new();
        let mut file = file;
        file.read_to_end(&mut buf)?;
        Ok(MappedFile {
            backing: Backing::Owned(buf),
        })
    }
}

impl std::ops::Deref for MappedFile {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.backing {
            #[cfg(unix)]
            // SAFETY: ptr/len describe a live PROT_READ mapping owned by
            // this value; it stays valid until drop.
            Backing::Mapped { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            Backing::Owned(buf) => buf,
        }
    }
}

impl Drop for MappedFile {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Backing::Mapped { ptr, len } = self.backing {
            // SAFETY: exactly one munmap per successful mmap.
            unsafe {
                sys::munmap(ptr as *mut core::ffi::c_void, len);
            }
        }
    }
}

impl std::fmt::Debug for MappedFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedFile")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_file_contents() {
        let dir =
            std::env::temp_dir().join(format!("exsample-persist-mmap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("data.bin");
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        std::fs::write(&path, &payload).unwrap();
        let map = MappedFile::open(&path).unwrap();
        assert_eq!(&*map, &payload[..]);
        // Two independent mappings of one file see identical bytes.
        let again = MappedFile::open(&path).unwrap();
        assert_eq!(&*again, &*map);
        drop(map);
        drop(again);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_file_is_empty_view() {
        let dir =
            std::env::temp_dir().join(format!("exsample-persist-mmap0-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.bin");
        std::fs::write(&path, b"").unwrap();
        let map = MappedFile::open(&path).unwrap();
        assert!(map.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_is_an_error() {
        assert!(MappedFile::open(Path::new("/nonexistent/exsample-persist")).is_err());
    }
}
