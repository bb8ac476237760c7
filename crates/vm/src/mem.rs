//! The flat simulated memory: rodata / data / heap / stack segments.
//!
//! Loads and stores are bounds-checked against *segments*, never against
//! individual objects — a store that runs past the end of a buffer but
//! stays inside the stack segment silently corrupts whatever is adjacent,
//! exactly like native code. That property is what makes the DOP attacks
//! in `smokestack-attacks` (and their defeat by Smokestack) meaningful.

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// Address-space map. Segments are widely separated so that overflows
/// within a segment behave natively while wild pointers fault.
pub mod layout {
    /// "Addresses" of functions, for indirect calls: `CODE_BASE + 16*id`.
    pub const CODE_BASE: u64 = 0x0000_1000;
    /// Read-only globals (string literals, the P-BOX).
    pub const RODATA_BASE: u64 = 0x0010_0000;
    /// Writable globals. The first 8 bytes are the memory-resident state
    /// of the insecure "pseudo" PRNG (see `smokestack-srng`).
    pub const DATA_BASE: u64 = 0x0100_0000;
    /// Heap allocations.
    pub const HEAP_BASE: u64 = 0x1000_0000;
    /// The stack grows *down* from this address.
    pub const STACK_TOP: u64 = 0x8000_0000;
    /// Gap between `STACK_TOP` and the first frame (the analog of the
    /// argv/env area a real process keeps above `main`), so that linear
    /// overflows out of shallow frames corrupt memory instead of
    /// instantly faulting at the segment edge.
    pub const STACK_START_GAP: u64 = 4096;
}

/// Whether `addr..addr+len` lies inside `base..end`.
fn spans(base: u64, end: u64, addr: u64, len: u64) -> bool {
    addr >= base && addr.checked_add(len).is_some_and(|e| e <= end)
}

/// Fill `out` with the rodata bytes at `addr`: the image, then zeros
/// past its end (the rest of the rodata capacity reads as zero).
fn rodata_into(image: &[u8], addr: u64, out: &mut [u8]) {
    let head = image
        .get((addr - layout::RODATA_BASE) as usize..)
        .unwrap_or_default();
    let n = head.len().min(out.len());
    out[..n].copy_from_slice(&head[..n]);
    out[n..].fill(0);
}

/// A contiguous writable memory region.
#[derive(Debug, Clone)]
struct Segment {
    name: &'static str,
    base: u64,
    bytes: Vec<u8>,
    /// Dirty-range watermarks (byte offsets into `bytes`): every write
    /// widens `dirty_lo..dirty_hi`, and [`Segment::wipe`] zeroes only
    /// that span. `dirty_lo > dirty_hi` means the segment is clean, so
    /// resetting an untouched multi-megabyte segment costs nothing —
    /// the property resident serve sessions rely on to make per-request
    /// respawns proportional to bytes touched, not bytes mapped.
    dirty_lo: usize,
    dirty_hi: usize,
}

impl Segment {
    /// Create a zero-filled segment.
    fn new(name: &'static str, base: u64, size: usize) -> Segment {
        Segment {
            name,
            base,
            bytes: vec![0; size],
            dirty_lo: usize::MAX,
            dirty_hi: 0,
        }
    }

    /// One past the highest valid address.
    fn end(&self) -> u64 {
        self.base + self.bytes.len() as u64
    }

    /// Whether `addr..addr+len` lies inside this segment.
    fn contains(&self, addr: u64, len: u64) -> bool {
        spans(self.base, self.end(), addr, len)
    }

    fn slice(&self, addr: u64, len: u64) -> &[u8] {
        let off = (addr - self.base) as usize;
        &self.bytes[off..off + len as usize]
    }

    /// Byte offsets of `addr..addr+len`, widened into the dirty span.
    fn dirty(&mut self, addr: u64, len: u64) -> std::ops::Range<usize> {
        let off = (addr - self.base) as usize;
        let end = off + len as usize;
        self.dirty_lo = self.dirty_lo.min(off);
        self.dirty_hi = self.dirty_hi.max(end);
        off..end
    }

    fn slice_mut(&mut self, addr: u64, len: u64) -> &mut [u8] {
        let range = self.dirty(addr, len);
        &mut self.bytes[range]
    }

    /// Copy `len` bytes from `src` to `dst`, both inside this segment
    /// (overlap allowed, like `memmove`).
    fn copy_within(&mut self, dst: u64, src: u64, len: u64) {
        let to = self.dirty(dst, len).start;
        let from = (src - self.base) as usize;
        self.bytes.copy_within(from..from + len as usize, to);
    }

    /// Zero every byte written since construction (or the last wipe).
    /// Cost is proportional to the dirty span, not the segment size.
    fn wipe(&mut self) {
        if self.dirty_lo < self.dirty_hi {
            self.bytes[self.dirty_lo..self.dirty_hi].fill(0);
        }
        self.dirty_lo = usize::MAX;
        self.dirty_hi = 0;
    }
}
/// Where a faulting address sits relative to the segment map — the
/// context that makes a fault message readable without a debugger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultLocus {
    /// The address is inside `segment` at `offset` bytes from its base;
    /// the access still faulted (read-only segment, or a range that
    /// straddles the segment's end).
    Within {
        /// Segment name.
        segment: &'static str,
        /// Byte offset of the faulting address from the segment base.
        offset: u64,
    },
    /// The address is unmapped, `by` bytes past the end of `segment`
    /// (the nearest segment below it).
    PastEnd {
        /// Nearest segment name.
        segment: &'static str,
        /// Distance past the segment's end in bytes.
        by: u64,
    },
    /// The address is unmapped, `by` bytes below the base of `segment`
    /// (the nearest segment above it).
    Below {
        /// Nearest segment name.
        segment: &'static str,
        /// Distance below the segment's base in bytes.
        by: u64,
    },
}

impl fmt::Display for FaultLocus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultLocus::Within { segment, offset } => {
                write!(f, "{segment}+{offset:#x}")
            }
            FaultLocus::PastEnd { segment, by } => {
                write!(f, "{by:#x} bytes past end of {segment}")
            }
            FaultLocus::Below { segment, by } => {
                write!(f, "{by:#x} bytes below {segment}")
            }
        }
    }
}

/// A memory access fault (the simulated SIGSEGV).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemFault {
    /// Faulting address.
    pub addr: u64,
    /// Access size in bytes.
    pub len: u64,
    /// Whether the access was a write.
    pub write: bool,
    /// Segment context of the faulting address.
    pub locus: FaultLocus,
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} fault at {:#x} ({} bytes; {})",
            if self.write { "write" } else { "read" },
            self.addr,
            self.len,
            self.locus
        )
    }
}

impl std::error::Error for MemFault {}

/// The whole simulated address space.
///
/// Rodata is not a segment buffer: it is the loaded module's read-only
/// image (string literals, the P-BOX), built once per compiled module
/// and shared by every VM spawned from it. Nothing writes it after the
/// loader built it — program and attacker writes fault — so reset and
/// respawn never touch it. Reads past the image but inside the
/// configured rodata capacity see zeros.
#[derive(Debug, Clone)]
pub struct Memory {
    rodata: Arc<[u8]>,
    /// Rodata capacity in bytes (the mapped extent, not the image).
    rodata_size: u64,
    data: Segment,
    heap: Segment,
    stack: Segment,
    /// Lowest stack address ever touched (for peak-RSS accounting).
    stack_low_water: u64,
    /// Highest heap offset ever handed out.
    heap_high_water: u64,
    /// Data bytes actually occupied by the loaded image.
    data_used: u64,
}

/// Sizes for the segments.
#[derive(Debug, Clone, Copy)]
pub struct MemConfig {
    /// Rodata capacity in bytes.
    pub rodata_size: usize,
    /// Data capacity in bytes.
    pub data_size: usize,
    /// Heap capacity in bytes.
    pub heap_size: usize,
    /// Stack capacity in bytes.
    pub stack_size: usize,
}

impl Default for MemConfig {
    fn default() -> MemConfig {
        MemConfig {
            rodata_size: 4 << 20,
            data_size: 4 << 20,
            heap_size: 64 << 20,
            stack_size: 8 << 20,
        }
    }
}

impl Memory {
    /// Allocate an address space with an empty rodata image.
    pub fn new(cfg: MemConfig) -> Memory {
        Memory::with_rodata(cfg, Arc::from([]))
    }

    /// Allocate an address space whose rodata is `image`, mapped at
    /// [`layout::RODATA_BASE`]. The image is shared, not copied.
    pub fn with_rodata(cfg: MemConfig, image: Arc<[u8]>) -> Memory {
        Memory {
            rodata: image,
            rodata_size: cfg.rodata_size as u64,
            data: Segment::new("data", layout::DATA_BASE, cfg.data_size),
            heap: Segment::new("heap", layout::HEAP_BASE, cfg.heap_size),
            stack: Segment::new(
                "stack",
                layout::STACK_TOP - cfg.stack_size as u64,
                cfg.stack_size,
            ),
            stack_low_water: layout::STACK_TOP,
            heap_high_water: 0,
            data_used: 0,
        }
    }

    /// The shared read-only image mapped at [`layout::RODATA_BASE`].
    pub fn rodata_image(&self) -> &Arc<[u8]> {
        &self.rodata
    }

    /// Name, base and end of every segment, rodata first.
    fn extents(&self) -> [(&'static str, u64, u64); 4] {
        let ro = ("rodata", layout::RODATA_BASE, self.rodata_end());
        let rw = self.segments().map(|s| (s.name, s.base, s.end()));
        [ro, rw[0], rw[1], rw[2]]
    }

    /// Classify `addr` against the segment map for fault reporting.
    pub fn locate(&self, addr: u64) -> FaultLocus {
        let extents = self.extents();
        if let Some(&(segment, base, _)) = extents.iter().find(|(_, b, e)| spans(*b, *e, addr, 1)) {
            return FaultLocus::Within {
                segment,
                offset: addr - base,
            };
        }
        // Unmapped: report the nearest segment edge.
        extents
            .into_iter()
            .map(|(segment, base, end)| {
                if addr < base {
                    (
                        base - addr,
                        FaultLocus::Below {
                            segment,
                            by: base - addr,
                        },
                    )
                } else {
                    (
                        addr - end,
                        FaultLocus::PastEnd {
                            segment,
                            by: addr - end,
                        },
                    )
                }
            })
            .min_by_key(|(d, _)| *d)
            .map(|(_, locus)| locus)
            .expect("segment map is non-empty")
    }

    /// Build a [`MemFault`] for `addr..addr+len` with segment context.
    fn fault(&self, addr: u64, len: u64, write: bool) -> MemFault {
        MemFault {
            addr,
            len,
            write,
            locus: self.locate(addr),
        }
    }

    /// One past the rodata capacity (the image may end well before).
    fn rodata_end(&self) -> u64 {
        layout::RODATA_BASE + self.rodata_size
    }

    fn in_rodata(&self, addr: u64, len: u64) -> bool {
        spans(layout::RODATA_BASE, self.rodata_end(), addr, len)
    }

    /// The writable segments, in address order.
    fn segments(&self) -> [&Segment; 3] {
        [&self.data, &self.heap, &self.stack]
    }

    fn segment_for(&self, addr: u64, len: u64) -> Option<&Segment> {
        self.segments().into_iter().find(|s| s.contains(addr, len))
    }

    /// The writable segment holding `addr..addr+len`, noting a stack
    /// touch for peak-RSS accounting.
    fn writable_for(&mut self, addr: u64, len: u64) -> Option<&mut Segment> {
        if self.stack.contains(addr, len) {
            self.stack_low_water = self.stack_low_water.min(addr);
            Some(&mut self.stack)
        } else if self.data.contains(addr, len) {
            Some(&mut self.data)
        } else if self.heap.contains(addr, len) {
            Some(&mut self.heap)
        } else {
            None
        }
    }

    /// `addr..addr+len` borrowed in place: inside one writable segment,
    /// or inside the rodata capacity and its image.
    fn borrow(&self, addr: u64, len: u64) -> Option<&[u8]> {
        if let Some(s) = self.segment_for(addr, len) {
            return Some(s.slice(addr, len));
        }
        if !self.in_rodata(addr, len) {
            return None;
        }
        let off = (addr - layout::RODATA_BASE) as usize;
        self.rodata.get(off..off + len as usize)
    }

    /// Read `len` bytes at `addr`. Borrowed unless the range runs past
    /// the rodata image into its zero-filled tail.
    ///
    /// # Errors
    ///
    /// Faults if the range is not fully inside one segment.
    pub fn read(&self, addr: u64, len: u64) -> Result<Cow<'_, [u8]>, MemFault> {
        if let Some(b) = self.borrow(addr, len) {
            return Ok(Cow::Borrowed(b));
        }
        if !self.in_rodata(addr, len) {
            return Err(self.fault(addr, len, false));
        }
        let mut v = vec![0; len as usize];
        rodata_into(&self.rodata, addr, &mut v);
        Ok(Cow::Owned(v))
    }

    /// Write bytes at `addr` (program access: respects read-only).
    ///
    /// # Errors
    ///
    /// Faults if the range is outside all segments or inside rodata.
    pub fn write(&mut self, addr: u64, bytes: &[u8]) -> Result<(), MemFault> {
        let len = bytes.len() as u64;
        match self.writable_for(addr, len) {
            Some(s) => {
                s.slice_mut(addr, len).copy_from_slice(bytes);
                Ok(())
            }
            None => Err(self.fault(addr, len, true)),
        }
    }

    /// Set `len` bytes at `addr` to `byte` in place (`memset`).
    ///
    /// # Errors
    ///
    /// Faults exactly like [`Memory::write`] of the same range, including
    /// for lengths no segment can hold.
    pub fn fill(&mut self, addr: u64, byte: u8, len: u64) -> Result<(), MemFault> {
        match self.writable_for(addr, len) {
            Some(s) => {
                s.slice_mut(addr, len).fill(byte);
                Ok(())
            }
            None => Err(self.fault(addr, len, true)),
        }
    }

    /// Copy `len` bytes from `src` to `dst` in place (`memcpy` with
    /// `memmove` overlap semantics).
    ///
    /// # Errors
    ///
    /// Faults like [`Memory::read`] of the source range, else like
    /// [`Memory::write`] of the destination range.
    pub fn copy(&mut self, dst: u64, src: u64, len: u64) -> Result<(), MemFault> {
        let from = self.segments().iter().position(|s| s.contains(src, len));
        if from.is_none() && !self.in_rodata(src, len) {
            return Err(self.fault(src, len, false));
        }
        if self.writable_for(dst, len).is_none() {
            return Err(self.fault(dst, len, true));
        }
        let to = self.segments().iter().position(|s| s.contains(dst, len));
        let to = to.expect("destination checked above");
        let mut segs = [&mut self.data, &mut self.heap, &mut self.stack];
        match from {
            Some(from) if from == to => segs[to].copy_within(dst, src, len),
            Some(from) => {
                let [from, to] = segs.get_disjoint_mut([from, to]).expect("distinct");
                to.slice_mut(dst, len).copy_from_slice(from.slice(src, len));
            }
            None => rodata_into(&self.rodata, src, segs[to].slice_mut(dst, len)),
        }
        Ok(())
    }

    /// Read an unsigned little-endian integer of `len` bytes (1/2/4/8).
    ///
    /// # Errors
    ///
    /// Faults like [`Memory::read`].
    pub fn read_uint(&self, addr: u64, len: u64) -> Result<u64, MemFault> {
        let le = |b: &[u8]| {
            let mut v = 0u64;
            for (i, byte) in b.iter().enumerate() {
                v |= (*byte as u64) << (8 * i);
            }
            v
        };
        match self.borrow(addr, len) {
            Some(b) => Ok(le(b)),
            None => self.read(addr, len).map(|b| le(&b)),
        }
    }

    /// Write the low `len` bytes of `v` little-endian at `addr`.
    ///
    /// # Errors
    ///
    /// Faults like [`Memory::write`].
    pub fn write_uint(&mut self, addr: u64, v: u64, len: u64) -> Result<(), MemFault> {
        let bytes = v.to_le_bytes();
        self.write(addr, &bytes[..len as usize])
    }

    /// Length of the NUL-terminated string at `addr`.
    ///
    /// # Errors
    ///
    /// Faults if the scan runs off the end of the segment before a NUL.
    pub fn strlen(&self, addr: u64) -> Result<u64, MemFault> {
        let mut n = 0u64;
        loop {
            let b = self.read(addr + n, 1)?[0];
            if b == 0 {
                return Ok(n);
            }
            n += 1;
        }
    }

    /// Record that the stack pointer reached `sp` (peak-RSS accounting).
    pub fn note_stack_pointer(&mut self, sp: u64) {
        self.stack_low_water = self.stack_low_water.min(sp);
    }

    /// Record a heap high-water offset (bytes from heap base).
    pub fn note_heap_used(&mut self, used: u64) {
        self.heap_high_water = self.heap_high_water.max(used);
    }

    /// Peak resident footprint in bytes: static segments plus the peak
    /// dynamic stack and heap usage. The analog of `ru_maxrss` used for
    /// the paper's Figure 4.
    pub fn peak_rss(&self) -> u64 {
        let stack_used = layout::STACK_TOP - self.stack_low_water;
        self.rodata_used() + self.data_used() + self.heap_high_water + stack_used
    }

    /// Bytes of rodata counted as resident: the loaded image's length.
    pub fn rodata_used(&self) -> u64 {
        self.rodata.len() as u64
    }

    /// Bytes of data counted as resident.
    pub fn data_used(&self) -> u64 {
        self.data_used
    }

    /// Loader: record how many data bytes are actually occupied.
    pub fn set_data_used(&mut self, n: u64) {
        self.data_used = n;
    }

    /// Base of the stack segment (lowest valid stack address).
    pub fn stack_base(&self) -> u64 {
        self.stack.base
    }

    /// Capacity of the heap segment in bytes.
    pub fn heap_capacity(&self) -> u64 {
        self.heap.bytes.len() as u64
    }

    /// Return the writable segments to their freshly-allocated state:
    /// data, heap and stack zeroed (only dirty spans are touched) and
    /// every high-water accounting mark cleared. Rodata is the shared
    /// image and stays as it is. The data initializers are *not*
    /// reinstalled — callers re-blit them afterwards, exactly like
    /// `Vm` construction does. This is the backbone of cheap session
    /// respawns: a resident tenant that touched 40 KB of an 8 MB stack
    /// pays for 40 KB.
    pub fn reset(&mut self) {
        self.data.wipe();
        self.heap.wipe();
        self.stack.wipe();
        self.stack_low_water = layout::STACK_TOP;
        self.heap_high_water = 0;
        self.data_used = 0;
    }

    /// Whether `addr..addr+len` is in a *writable* segment — the memory
    /// an attacker with full data-memory control may corrupt (§III-B).
    pub fn attacker_writable(&self, addr: u64, len: u64) -> bool {
        self.segment_for(addr, len).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> Memory {
        Memory::new(MemConfig::default())
    }

    #[test]
    fn read_write_roundtrip() {
        let mut m = mem();
        let addr = layout::DATA_BASE + 100;
        m.write_uint(addr, 0xdead_beef_cafe, 8).unwrap();
        assert_eq!(m.read_uint(addr, 8).unwrap(), 0xdead_beef_cafe);
        assert_eq!(m.read_uint(addr, 4).unwrap(), 0xbeef_cafe);
    }

    /// A memory whose rodata image is 24 bytes with `0xcc` at 16..24.
    fn mem_with_image() -> Memory {
        let mut image = vec![0u8; 24];
        image[16..].fill(0xcc);
        Memory::with_rodata(MemConfig::default(), image.into())
    }

    #[test]
    fn rodata_rejects_program_writes() {
        let mut m = mem_with_image();
        let addr = layout::RODATA_BASE + 16;
        assert!(m.write(addr, &[1]).is_err());
        // The image supplied at construction is what reads see.
        assert_eq!(m.read(addr, 1).unwrap()[0], 0xcc);
    }

    #[test]
    fn reads_past_the_rodata_image_see_zeros() {
        let m = mem_with_image();
        // Straddling the image end into the capacity tail.
        assert_eq!(
            m.read_uint(layout::RODATA_BASE + 20, 8).unwrap(),
            0xcccc_cccc
        );
        assert_eq!(
            &*m.read(layout::RODATA_BASE + 22, 4).unwrap(),
            &[0xcc, 0xcc, 0, 0]
        );
        // Wholly inside the tail.
        assert_eq!(m.read_uint(layout::RODATA_BASE + 4096, 8).unwrap(), 0);
        // Past the capacity still faults.
        let end = layout::RODATA_BASE + MemConfig::default().rodata_size as u64;
        assert!(m.read(end - 4, 8).is_err());
        assert_eq!(m.rodata_used(), 24);
    }

    #[test]
    fn fill_and_copy_work_in_place() {
        let mut m = mem_with_image();
        let a = layout::DATA_BASE + 64;
        m.fill(a, 0x5a, 16).unwrap();
        assert_eq!(&*m.read(a, 16).unwrap(), &[0x5a; 16]);
        // Overlapping copy inside one segment behaves like memmove.
        m.write(a, b"abcdef").unwrap();
        m.copy(a + 2, a, 6).unwrap();
        assert_eq!(&*m.read(a, 8).unwrap(), b"ababcdef");
        // Across segments, and out of rodata across the image end.
        let s = layout::STACK_TOP - 256;
        m.copy(s, a, 8).unwrap();
        assert_eq!(&*m.read(s, 8).unwrap(), b"ababcdef");
        m.copy(s, layout::RODATA_BASE + 20, 8).unwrap();
        assert_eq!(
            &*m.read(s, 8).unwrap(),
            &[0xcc, 0xcc, 0xcc, 0xcc, 0, 0, 0, 0]
        );
        assert_eq!(m.peak_rss(), 24 + 256);
    }

    #[test]
    fn fill_and_copy_fault_like_write_and_read() {
        let mut m = mem();
        let a = layout::DATA_BASE + 64;
        let huge = (-15i64) as u64;
        assert_eq!(m.fill(a, 0, huge), Err(m.fault(a, huge, true)));
        let ro = layout::RODATA_BASE + 0x40;
        assert_eq!(m.fill(ro, 0, 1), m.write(ro, &[0]));
        // The source is checked first, then the destination.
        assert_eq!(m.copy(a, a, huge), Err(m.fault(a, huge, false)));
        assert_eq!(m.copy(ro, a, 4), Err(m.fault(ro, 4, true)));
        assert_eq!(m.read(a, 4).unwrap(), &[0u8; 4][..]);
    }

    #[test]
    fn out_of_segment_faults() {
        let m = mem();
        let gap = layout::RODATA_BASE - 100;
        let err = m.read(gap, 4).unwrap_err();
        assert_eq!(err.addr, gap);
        assert!(!err.write);
    }

    #[test]
    fn cross_segment_boundary_faults() {
        let mut m = mem();
        // A write straddling the end of the data segment must fault even
        // though it starts inside.
        let end = layout::DATA_BASE + MemConfig::default().data_size as u64;
        assert!(m.write(end - 4, &[0u8; 8]).is_err());
    }

    #[test]
    fn stack_overflow_within_segment_allowed() {
        // The crucial property: stores past an object's end but inside
        // the stack segment succeed (silent corruption, not a fault).
        let mut m = mem();
        let sp = layout::STACK_TOP - 0x1000;
        m.write(sp, &[0xaa; 128]).unwrap();
        assert_eq!(m.read(sp + 64, 1).unwrap()[0], 0xaa);
    }

    #[test]
    fn peak_rss_tracks_stack_low_water() {
        let mut m = mem();
        m.set_data_used(0);
        assert_eq!(m.peak_rss(), 0);
        m.note_stack_pointer(layout::STACK_TOP - 4096);
        assert_eq!(m.peak_rss(), 4096);
        m.note_heap_used(100);
        assert_eq!(m.peak_rss(), 4196);
    }

    #[test]
    fn strlen_scans_to_nul() {
        let mut m = mem();
        let a = layout::DATA_BASE + 50;
        m.write(a, b"hello\0").unwrap();
        assert_eq!(m.strlen(a).unwrap(), 5);
    }

    #[test]
    fn fault_locus_names_containing_segment() {
        let mut m = mem();
        // Write to rodata: inside the segment, still a fault.
        let err = m.write(layout::RODATA_BASE + 0x40, &[1]).unwrap_err();
        assert_eq!(
            err.locus,
            FaultLocus::Within {
                segment: "rodata",
                offset: 0x40
            }
        );
        assert!(err.to_string().contains("rodata+0x40"), "{err}");
    }

    #[test]
    fn fault_locus_names_nearest_segment_for_unmapped() {
        let m = mem();
        // Just past the end of the data segment.
        let data_end = layout::DATA_BASE + MemConfig::default().data_size as u64;
        let err = m.read(data_end + 0x10, 4).unwrap_err();
        assert_eq!(
            err.locus,
            FaultLocus::PastEnd {
                segment: "data",
                by: 0x10
            }
        );
        assert!(err.to_string().contains("past end of data"), "{err}");
        // Just below the rodata base.
        let err = m.read(layout::RODATA_BASE - 8, 4).unwrap_err();
        assert_eq!(
            err.locus,
            FaultLocus::Below {
                segment: "rodata",
                by: 8
            }
        );
        assert!(err.to_string().contains("below rodata"), "{err}");
    }

    #[test]
    fn fault_locus_straddling_range_reports_start_segment() {
        let mut m = mem();
        let end = layout::DATA_BASE + MemConfig::default().data_size as u64;
        let err = m.write(end - 4, &[0u8; 8]).unwrap_err();
        assert!(
            matches!(
                err.locus,
                FaultLocus::Within {
                    segment: "data",
                    ..
                }
            ),
            "{:?}",
            err.locus
        );
    }

    #[test]
    fn reset_zeroes_dirty_bytes_and_accounting() {
        let mut m = mem_with_image();
        let image = Arc::clone(m.rodata_image());
        m.write(layout::DATA_BASE + 64, &[0xaa; 32]).unwrap();
        m.write(layout::STACK_TOP - 512, &[0xbb; 128]).unwrap();
        m.set_data_used(96);
        m.note_heap_used(1000);
        assert!(m.peak_rss() > 24);
        m.reset();
        assert_eq!(m.read_uint(layout::DATA_BASE + 64, 8).unwrap(), 0);
        assert_eq!(m.read_uint(layout::STACK_TOP - 512, 8).unwrap(), 0);
        // Rodata is image-owned: reset leaves the very same bytes mapped,
        // and they stay counted as resident.
        assert!(Arc::ptr_eq(m.rodata_image(), &image));
        assert_eq!(&*m.read(layout::RODATA_BASE, 24).unwrap(), &image[..]);
        assert_eq!(m.read(layout::RODATA_BASE + 16, 1).unwrap()[0], 0xcc);
        assert_eq!(m.peak_rss(), 24);
        assert_eq!(m.rodata_used(), 24);
        assert_eq!(m.data_used(), 0);
    }

    #[test]
    fn reset_matches_fresh_memory() {
        let mut used = mem();
        used.write(layout::HEAP_BASE + 8, &[0x11; 64]).unwrap();
        used.write(layout::STACK_TOP - 4096, &[0x22; 256]).unwrap();
        used.reset();
        let fresh = mem();
        for s in [
            layout::RODATA_BASE,
            layout::DATA_BASE,
            layout::HEAP_BASE,
            layout::STACK_TOP - 4096,
        ] {
            assert_eq!(used.read(s, 64).unwrap(), fresh.read(s, 64).unwrap());
        }
        assert_eq!(used.peak_rss(), fresh.peak_rss());
    }

    #[test]
    fn attacker_writable_excludes_rodata() {
        let m = mem();
        assert!(m.attacker_writable(layout::DATA_BASE, 8));
        assert!(m.attacker_writable(layout::STACK_TOP - 64, 8));
        assert!(m.attacker_writable(layout::HEAP_BASE, 8));
        assert!(!m.attacker_writable(layout::RODATA_BASE, 8));
    }
}
