//! FLIP addresses.
//!
//! FLIP addresses identify *entities* (processes, services, groups), not
//! hosts — the location of an address is resolved at run time by the locate
//! protocol, which is what gives FLIP its location transparency.

use std::fmt;

use ethernet::MacAddr;

/// A 64-bit location-independent FLIP address.
///
/// # Examples
///
/// ```
/// use flip::FlipAddr;
///
/// let service = FlipAddr(0x1234);
/// assert_ne!(service, FlipAddr::NULL);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlipAddr(pub u64);

impl FlipAddr {
    /// The null address; never routable.
    pub const NULL: FlipAddr = FlipAddr(0);

    /// The per-interface address space: the high bit distinguishes interface
    /// addresses (used by the locate protocol) from entity addresses.
    const IFACE_BIT: u64 = 1 << 63;

    /// Derives the interface address of the FLIP interface on `mac`.
    pub fn for_interface(mac: MacAddr) -> FlipAddr {
        FlipAddr(Self::IFACE_BIT | u64::from(mac.0))
    }
}

impl fmt::Display for FlipAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flip:{:x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interface_addresses_are_distinct() {
        let a = FlipAddr::for_interface(MacAddr(1));
        let b = FlipAddr::for_interface(MacAddr(2));
        assert_ne!(a, b);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", FlipAddr(0xbeef)), "flip:beef");
    }
}
