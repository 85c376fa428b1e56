//! Message envelope and tags.

/// A message tag — disambiguates logically distinct exchanges between the
/// same pair of ranks, exactly like an MPI tag.
pub type Tag = u32;

/// Tags reserved by the runtime; user code must use tags below
/// [`RESERVED_TAG_BASE`].
pub const RESERVED_TAG_BASE: Tag = 0xFFFF_0000;

/// Tag used by the poison-propagation protocol when a rank panics.
pub const POISON_TAG: Tag = RESERVED_TAG_BASE + 1;

/// Tags used internally by the engine's flat collective schedules.
pub const COLL_TAG_BASE: Tag = RESERVED_TAG_BASE + 0x100;

/// Tags used internally by the fault-tolerance layer (failure agreement
/// exchange, recovery collectives).
pub const FT_TAG_BASE: Tag = RESERVED_TAG_BASE + 0x200;

/// Tags used internally by the topology-aware collective engine's
/// hierarchical schedules.
pub const ENGINE_TAG_BASE: Tag = RESERVED_TAG_BASE + 0x300;

/// A point-to-point message.
///
/// The payload is a boxed `f64` slice — every quantity the pricing
/// engines exchange (slab boundaries, partial sums, serialized statistics)
/// is a vector of doubles, matching the MPI_DOUBLE traffic of the original
/// codes. `sent_at` carries the sender's virtual clock at completion of
/// the modelled transfer, making receiver-side clock updates deterministic.
#[derive(Debug, Clone)]
pub struct Message {
    /// Sending rank.
    pub src: usize,
    /// Message tag.
    pub tag: Tag,
    /// Payload.
    pub data: Box<[f64]>,
    /// Sender's virtual time at which the message is fully delivered
    /// under the machine model.
    pub sent_at: f64,
    /// True when this is a poison marker from a failed rank.
    pub poison: bool,
}

impl Message {
    /// Payload size in modelled bytes (8 per f64 plus a fixed 16-byte
    /// envelope, mirroring MPI header overheads).
    pub fn wire_bytes(len: usize) -> usize {
        16 + 8 * len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_bytes_counts_envelope() {
        assert_eq!(Message::wire_bytes(0), 16);
        assert_eq!(Message::wire_bytes(10), 96);
    }

    #[test]
    fn reserved_tags_above_user_space() {
        // Pin the tag-space layout (evaluated through locals so the
        // relationship is checked as data, not folded away silently).
        let (base, poison, coll) = (RESERVED_TAG_BASE, POISON_TAG, COLL_TAG_BASE);
        assert!(poison > base);
        assert!(coll > poison);
    }
}
