//! Hop-keyed metric ids for per-wire mesh observability.
//!
//! Registry metric ids are `&'static str` so handles can be resolved once
//! and shared lock-free; hop-scoped ids (`mesh.hop.{N}.{suffix}`) are only
//! known at runtime, so they are interned.

use crate::registry::intern_id;

/// Common prefix of every hop-scoped metric id.
pub const HOP_METRIC_PREFIX: &str = "mesh.hop.";

/// Bucket edges for the per-hop queue-depth histogram
/// (`mesh.hop.{N}.depth`). Depth is the number of in-flight transfers
/// already queued on the wire when a new one arrives.
pub const HOP_DEPTH_EDGES: &[u64] = &[1, 2, 4, 8, 16, 32];

/// Interns and returns the `'static` metric id `mesh.hop.{hop}.{suffix}`.
///
/// Repeated calls with the same arguments return the same pointer, so the
/// id can be used for registry resolution exactly like a literal.
#[must_use]
pub fn hop_metric_id(hop: u32, suffix: &str) -> &'static str {
    intern_id(format!("{HOP_METRIC_PREFIX}{hop}.{suffix}"))
}

/// Inverse of [`hop_metric_id`]: splits `mesh.hop.{N}.{suffix}` into
/// `(N, suffix)`, or `None` when `id` is not hop-scoped.
#[must_use]
pub fn parse_hop_metric(id: &str) -> Option<(u32, &str)> {
    let rest = id.strip_prefix(HOP_METRIC_PREFIX)?;
    let (hop, suffix) = rest.split_once('.')?;
    if suffix.is_empty() {
        return None;
    }
    Some((hop.parse().ok()?, suffix))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip_through_the_parser() {
        for hop in [0, 3, 41] {
            for suffix in ["bits", "busy_ps", "depth", "nacks"] {
                let id = hop_metric_id(hop, suffix);
                assert_eq!(parse_hop_metric(id), Some((hop, suffix)));
            }
        }
    }

    #[test]
    fn interning_returns_the_same_pointer() {
        let a = hop_metric_id(7, "faults");
        let b = hop_metric_id(7, "faults");
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn non_hop_ids_do_not_parse() {
        assert_eq!(parse_hop_metric("link.wire_bits"), None);
        assert_eq!(parse_hop_metric("mesh.hop."), None);
        assert_eq!(parse_hop_metric("mesh.hop.3"), None);
        assert_eq!(parse_hop_metric("mesh.hop.3."), None);
        assert_eq!(parse_hop_metric("mesh.hop.x.bits"), None);
    }
}
