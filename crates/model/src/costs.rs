//! The paper's cost model: Table 2 atomic-action costs, Table 3 general
//! statistics, and the Appendix A packet-multiplex overhead.
//!
//! Bandwidth costs are in **bytes** (message sizes follow the Gnutella
//! protocol: 22-byte Gnutella header + flags + payload + Ethernet and
//! TCP/IP headers). Processing costs are in **units**, where one unit
//! is the cost of sending and receiving an empty Gnutella message —
//! measured by the authors as roughly 7200 cycles on a Pentium III
//! 930 MHz ([`UNIT_CYCLES`]).
//!
//! The published table's decimal points are partially corrupted in the
//! available text; DESIGN.md §4 records the reconstruction used here.
//! All shape results (knees, crossovers, winners) were verified to be
//! insensitive to these constants at the ±50% level.

/// Cycles per processing unit: the measured cost of sending and
/// receiving an empty Gnutella message.
pub const UNIT_CYCLES: f64 = 7200.0;

/// Bits per byte, for converting byte costs to the bps loads the paper
/// plots.
pub const BITS_PER_BYTE: f64 = 8.0;

/// General statistics (the paper's Table 3), gathered by the authors
/// over a month of Gnutella observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneralStats {
    /// Expected length of a query string, bytes.
    pub query_length: f64,
    /// Average size of one result record, bytes.
    pub result_record: f64,
    /// Average size of the metadata for a single file, bytes.
    pub metadata_record: f64,
}

impl Default for GeneralStats {
    fn default() -> Self {
        GeneralStats {
            query_length: 12.0,
            result_record: 76.0,
            metadata_record: 72.0,
        }
    }
}

/// Atomic-action cost table (the paper's Table 2 / "Figure 2").
///
/// Each method returns the cost of one atomic action; "macro" actions
/// (query, join, update) are compositions evaluated by the analysis
/// engine. Bandwidth methods return bytes; `*_units` methods return
/// processing units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Message-size and record-size statistics.
    pub stats: GeneralStats,
    /// Per-open-connection processing units added to every message a
    /// node sends or receives (Appendix A: the `select()` scan cost,
    /// ~0.04 units per descriptor amortized over ~4 events per call).
    pub multiplex_per_connection: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            stats: GeneralStats::default(),
            multiplex_per_connection: 0.01,
        }
    }
}

impl CostModel {
    /// Size of a query message: 82 bytes of headers + the query string.
    pub fn query_bytes(&self) -> f64 {
        82.0 + self.stats.query_length
    }

    /// Processing units to send one query message.
    pub fn send_query_units(&self) -> f64 {
        0.44 + 0.003 * self.stats.query_length
    }

    /// Processing units to receive one query message.
    pub fn recv_query_units(&self) -> f64 {
        0.57 + 0.004 * self.stats.query_length
    }

    /// Processing units to evaluate a query over a local index that
    /// yields `results` expected results (index probe startup plus
    /// per-result assembly). No bandwidth cost.
    pub fn process_query_units(&self, results: f64) -> f64 {
        14.0 + 0.1 * results
    }

    /// Size of a Response message carrying `results` result records for
    /// `addrs` distinct responding clients.
    pub fn response_bytes(&self, addrs: f64, results: f64) -> f64 {
        80.0 + 28.0 * addrs + self.stats.result_record * results
    }

    /// Processing units to send one Response message.
    pub fn send_response_units(&self, addrs: f64, results: f64) -> f64 {
        0.21 + 0.31 * addrs + 0.2 * results
    }

    /// Processing units to receive one Response message.
    pub fn recv_response_units(&self, addrs: f64, results: f64) -> f64 {
        0.26 + 0.41 * addrs + 0.3 * results
    }

    /// Expected Response-message bytes when the responder answers with
    /// probability `p_respond` and the *unconditional* expectations of
    /// addresses and results are `addrs`/`results` (load is linear in
    /// these, so `E[bytes] = p·overhead + linear part` — used by the
    /// mean-value analysis so its coefficients can never drift from
    /// [`response_bytes`](Self::response_bytes)).
    pub fn expected_response_bytes(&self, p_respond: f64, addrs: f64, results: f64) -> f64 {
        let base = self.response_bytes(0.0, 0.0);
        p_respond * base + (self.response_bytes(addrs, results) - base)
    }

    /// Expected processing units to send the probabilistic Response of
    /// [`expected_response_bytes`](Self::expected_response_bytes).
    pub fn expected_send_response_units(&self, p_respond: f64, addrs: f64, results: f64) -> f64 {
        let base = self.send_response_units(0.0, 0.0);
        p_respond * base + (self.send_response_units(addrs, results) - base)
    }

    /// Expected processing units to receive the probabilistic Response.
    pub fn expected_recv_response_units(&self, p_respond: f64, addrs: f64, results: f64) -> f64 {
        let base = self.recv_response_units(0.0, 0.0);
        p_respond * base + (self.recv_response_units(addrs, results) - base)
    }

    /// Size of a Join message carrying metadata for `files` files.
    pub fn join_bytes(&self, files: f64) -> f64 {
        80.0 + self.stats.metadata_record * files
    }

    /// Processing units for the joining peer to send its metadata.
    pub fn send_join_units(&self, files: f64) -> f64 {
        0.44 + 0.2 * files
    }

    /// Processing units for the super-peer to receive the metadata.
    pub fn recv_join_units(&self, files: f64) -> f64 {
        0.56 + 0.3 * files
    }

    /// Processing units for the super-peer to insert `files` metadata
    /// records into its index. No bandwidth cost.
    pub fn process_join_units(&self, files: f64) -> f64 {
        1.4 + 1.0 * files
    }

    /// Size of an Update message (one item changed).
    pub fn update_bytes(&self) -> f64 {
        152.0
    }

    /// Processing units to send one Update.
    pub fn send_update_units(&self) -> f64 {
        0.6
    }

    /// Processing units to receive one Update.
    pub fn recv_update_units(&self) -> f64 {
        0.8
    }

    /// Processing units to apply one Update to the index.
    pub fn process_update_units(&self) -> f64 {
        3.0
    }

    /// Packet-multiplex overhead: processing units added to each
    /// message a node with `connections` open connections sends or
    /// receives (Appendix A).
    pub fn multiplex_units(&self, connections: f64) -> f64 {
        self.multiplex_per_connection * connections
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cm() -> CostModel {
        CostModel::default()
    }

    #[test]
    fn query_message_matches_gnutella_framing() {
        // 82 header bytes + the 12-byte average query string = the
        // 94-byte average query message quoted in Section 4.1.
        assert_eq!(cm().query_bytes(), 94.0);
    }

    #[test]
    fn response_scales_with_results_and_addrs() {
        let c = cm();
        assert_eq!(c.response_bytes(0.0, 0.0), 80.0);
        assert_eq!(c.response_bytes(1.0, 1.0), 80.0 + 28.0 + 76.0);
        let big = c.response_bytes(3.0, 100.0);
        assert_eq!(big, 80.0 + 84.0 + 7600.0);
    }

    #[test]
    fn join_scales_with_files() {
        let c = cm();
        assert_eq!(c.join_bytes(0.0), 80.0);
        assert_eq!(c.join_bytes(10.0), 80.0 + 720.0);
        assert!(c.process_join_units(100.0) > c.recv_join_units(100.0));
    }

    #[test]
    fn processing_units_positive_and_monotone() {
        let c = cm();
        assert!(c.send_query_units() > 0.0);
        assert!(c.recv_query_units() > c.send_query_units());
        assert!(c.process_query_units(10.0) > c.process_query_units(0.0));
        assert!(c.send_response_units(2.0, 5.0) < c.recv_response_units(2.0, 5.0));
    }

    #[test]
    fn expected_response_costs_match_linear_decomposition() {
        let c = cm();
        // p = 1 collapses to the plain formulas.
        assert!(
            (c.expected_response_bytes(1.0, 2.0, 5.0) - c.response_bytes(2.0, 5.0)).abs() < 1e-12
        );
        // p = 0 keeps only the linear (payload) part.
        assert!(
            (c.expected_response_bytes(0.0, 2.0, 5.0)
                - (c.response_bytes(2.0, 5.0) - c.response_bytes(0.0, 0.0)))
            .abs()
                < 1e-12
        );
        assert!(c.expected_send_response_units(0.5, 1.0, 2.0) > 0.0);
        assert!(
            c.expected_recv_response_units(0.5, 1.0, 2.0)
                > c.expected_send_response_units(0.5, 1.0, 2.0)
        );
    }

    #[test]
    fn multiplex_is_linear_in_connections() {
        let c = cm();
        assert_eq!(c.multiplex_units(0.0), 0.0);
        assert!((c.multiplex_units(100.0) - 1.0).abs() < 1e-12);
        assert!((c.multiplex_units(1000.0) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn update_costs_are_small_constants() {
        let c = cm();
        assert_eq!(c.update_bytes(), 152.0);
        assert!(c.process_update_units() < c.process_query_units(0.0));
    }

    #[test]
    fn unit_conversion_constants() {
        assert_eq!(UNIT_CYCLES, 7200.0);
        assert_eq!(BITS_PER_BYTE, 8.0);
    }
}
