//! Strongly-typed identifiers used across subsystems.
//!
//! Newtypes (rather than bare integers) prevent the classic bug class of
//! passing a shard id where a transaction id is expected — particularly easy
//! to hit in the GTM-lite code where *global* and *local* transaction ids
//! coexist and must never be mixed up (paper §II-A, the `xidMap`).

use std::fmt;

macro_rules! id_newtype {
    ($(#[$meta:meta])* $name:ident, $prefix:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub u64);

        impl $name {
            /// Wrap a raw id.
            pub const fn new(v: u64) -> Self {
                Self(v)
            }

            /// Unwrap to the raw id.
            pub const fn raw(self) -> u64 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}{}", $prefix, self.0)
            }
        }

        impl From<u64> for $name {
            fn from(v: u64) -> Self {
                Self(v)
            }
        }
    };
}

id_newtype!(
    /// A transaction identifier. In GTM-lite both *global* XIDs (allocated by
    /// the GTM for multi-shard transactions) and *local* XIDs (allocated by a
    /// data node for every transaction touching it) are `Xid`s; the context —
    /// which snapshot they appear in — determines which namespace they belong
    /// to, exactly as in the paper's design.
    Xid,
    "xid:"
);

id_newtype!(
    /// Identifies one node (CN, DN, or GTM) in a simulated cluster.
    NodeId,
    "node:"
);

id_newtype!(
    /// Identifies one data shard (partition). With one DN per shard this is
    /// interchangeable with the owning DN's index, which is the deployment the
    /// paper's Fig 3 evaluates.
    ShardId,
    "shard:"
);

id_newtype!(
    /// Identifies a GMDB client (each client may run a different schema
    /// version, §III-B).
    ClientId,
    "client:"
);

id_newtype!(
    /// Identifies a device/edge/cloud replica in the edge-sync platform
    /// (§IV-B).
    DeviceId,
    "device:"
);

/// Transaction ids start here; ids below are reserved (0 = invalid/bootstrap).
pub const FIRST_XID: u64 = 3;

/// The invalid transaction id, used for "no xmax" tuple headers.
pub const INVALID_XID: Xid = Xid(0);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_has_prefix() {
        assert_eq!(Xid::new(42).to_string(), "xid:42");
        assert_eq!(ShardId::new(3).to_string(), "shard:3");
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(Xid::new(1) < Xid::new(2));
        assert_eq!(Xid::from(7).raw(), 7);
    }

    #[test]
    fn invalid_xid_is_zero() {
        assert_eq!(INVALID_XID.raw(), 0);
        assert!(INVALID_XID.raw() < FIRST_XID);
    }
}
