//! Glue from `teamnet-net`'s plain stats structs into the metrics
//! registry.
//!
//! `teamnet-obs` depends on `teamnet-net`, so the net crate cannot call
//! into this one; [`fold_transport_stats`] copies a transport's
//! cumulative [`TransportStats`] (including the chaos fault-injection
//! counters) into registry gauges, unifying the ad-hoc stats struct with
//! the metrics snapshot format. The round's own send/recv events come
//! from `teamnet_core::shell`.

use crate::metrics::MetricsRegistry;
use teamnet_net::TransportStats;

/// Copies a transport's cumulative [`TransportStats`] into gauges named
/// `<prefix>.messages_sent`, `<prefix>.bytes_sent`,
/// `<prefix>.messages_dropped`, `<prefix>.messages_delayed`,
/// `<prefix>.messages_corrupted`, `<prefix>.messages_duplicated`.
///
/// Gauges, not counters: `TransportStats` is itself cumulative, so each
/// fold overwrites the last-known totals instead of double-counting.
/// Values are clamped at `i64::MAX` (a transport that moved 2^63 messages
/// has other problems).
pub fn fold_transport_stats(registry: &MetricsRegistry, prefix: &str, stats: &TransportStats) {
    let fields: [(&str, u64); 6] = [
        ("messages_sent", stats.messages_sent),
        ("bytes_sent", stats.bytes_sent),
        ("messages_dropped", stats.messages_dropped),
        ("messages_delayed", stats.messages_delayed),
        ("messages_corrupted", stats.messages_corrupted),
        ("messages_duplicated", stats.messages_duplicated),
    ];
    for (field, value) in fields {
        let mut name = String::with_capacity(prefix.len() + field.len() + 1);
        name.push_str(prefix);
        name.push('.');
        name.push_str(field);
        registry
            .gauge(&name)
            .set(i64::try_from(value).unwrap_or(i64::MAX));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transport_stats_fold_into_gauges() {
        let registry = MetricsRegistry::new();
        let stats = TransportStats {
            messages_sent: 10,
            bytes_sent: 999,
            messages_dropped: 3,
            messages_delayed: 2,
            messages_corrupted: 1,
            messages_duplicated: 4,
        };
        fold_transport_stats(&registry, "chaos.master", &stats);
        let snap = registry.snapshot();
        assert_eq!(snap.gauges["chaos.master.messages_sent"], 10);
        assert_eq!(snap.gauges["chaos.master.messages_dropped"], 3);
        assert_eq!(snap.gauges["chaos.master.messages_duplicated"], 4);
        // Re-folding overwrites (gauge semantics), not accumulates.
        fold_transport_stats(&registry, "chaos.master", &stats);
        assert_eq!(registry.snapshot().gauges["chaos.master.messages_sent"], 10);
    }
}
