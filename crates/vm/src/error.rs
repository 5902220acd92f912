//! Error type shared by the virtual-memory subsystem.

use crate::addr::{PageSize, VirtAddr};
use core::fmt;

/// Errors produced by the simulated virtual-memory subsystem.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VmError {
    /// Physical memory (of the requested order) is exhausted.
    OutOfMemory {
        /// Buddy order that could not be satisfied.
        order: u8,
    },
    /// Attempt to map over an existing mapping.
    AlreadyMapped(VirtAddr),
    /// Translation of an unmapped address was attempted.
    NotMapped(VirtAddr),
    /// Access violated the region's protection bits.
    ProtectionViolation(VirtAddr),
    /// A virtual region of the requested size/alignment could not be found.
    NoVirtualSpace {
        /// Bytes requested.
        len: u64,
        /// Alignment requested.
        align: u64,
    },
    /// Address or length not aligned for the requested page size.
    Misaligned {
        /// The offending address.
        addr: VirtAddr,
        /// Page size whose alignment was violated.
        size: PageSize,
    },
    /// The page size is not a rung of the active translation
    /// architecture's ladder.
    UnsupportedPageSize(PageSize),
    /// Requested range lies outside the file/region.
    OutOfRange {
        /// Offset requested.
        offset: u64,
        /// Length requested.
        len: u64,
        /// Size of the object.
        object_len: u64,
    },
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::OutOfMemory { order } => {
                write!(f, "out of physical memory at buddy order {order}")
            }
            VmError::AlreadyMapped(a) => write!(f, "address {a} already mapped"),
            VmError::NotMapped(a) => write!(f, "address {a} not mapped"),
            VmError::ProtectionViolation(a) => write!(f, "protection violation at {a}"),
            VmError::NoVirtualSpace { len, align } => {
                write!(f, "no virtual space for {len} bytes (align {align})")
            }
            VmError::Misaligned { addr, size } => {
                write!(f, "address {addr} not aligned to {size} page")
            }
            VmError::UnsupportedPageSize(s) => {
                write!(f, "page size {s} is not in the architecture's ladder")
            }
            VmError::OutOfRange {
                offset,
                len,
                object_len,
            } => write!(
                f,
                "range [{offset}, {offset}+{len}) outside object of {object_len} bytes"
            ),
        }
    }
}

impl std::error::Error for VmError {}

/// Convenience alias used across the crate.
pub type VmResult<T> = Result<T, VmError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = VmError::OutOfRange {
            offset: 4,
            len: 1,
            object_len: 3,
        };
        let s = e.to_string();
        assert!(s.contains("[4, 4+1)"));
        assert!(s.contains("object of 3 bytes"));
        let e = VmError::Misaligned {
            addr: VirtAddr(0x1234),
            size: PageSize::Large2M,
        };
        assert!(e.to_string().contains("2MB"));
    }
}
