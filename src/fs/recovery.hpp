// Lustre failover recovery, including the OLCF-funded features
// (Section IV-D): imperative recovery and asymmetric router notification.
//
// Classic Lustre recovery after an OSS failover: clients discover the
// failure only when their RPCs time out, then reconnect to the failover
// partner; the server holds a recovery window open until every known
// client reconnects (or the window expires) before serving new I/O.
// At Titan scale (18,688 clients behind 440 routers) timeouts and the
// straggler-gated window dominate. Imperative recovery has the server
// *tell* clients to reconnect immediately; asymmetric router notification
// lets LNET routers broadcast a dead-path notice so clients skip the RPC
// timeout entirely.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "fs/journal.hpp"

namespace spider::fs {

struct RecoveryParams {
  std::size_t clients = 18688;
  /// Classic RPC timeout before a client notices the OSS is gone.
  double rpc_timeout_s = 100.0;
  /// Spread of client timeout detection (in-flight RPC phase), seconds.
  double detection_spread_s = 60.0;
  /// Recovery window the failover server holds for stragglers.
  double recovery_window_s = 300.0;
  /// Reconnect RPCs/sec the failover server can absorb.
  double reconnect_rate = 2000.0;
  /// Fraction of clients that are slow/absent stragglers under classic
  /// recovery (they gate the window).
  double straggler_fraction = 0.002;
  // --- OLCF-funded features ---
  /// Server-initiated reconnect notification.
  bool imperative_recovery = false;
  /// Routers broadcast dead-path notices (skips the RPC timeout).
  bool asymmetric_router_notification = false;
  /// Notification fan-out latency through the router fleet.
  double notification_s = 2.0;
};

struct FailoverOutcome {
  /// Time from OSS death until clients know to reconnect.
  double detection_s = 0.0;
  /// Time spent streaming reconnects into the failover server.
  double reconnect_s = 0.0;
  /// Extra time the recovery window stayed open for stragglers.
  double straggler_wait_s = 0.0;
  /// Total I/O outage for the affected OSTs.
  double total_outage_s = 0.0;
};

/// Model one OSS failover under the given feature set.
FailoverOutcome simulate_oss_failover(const RecoveryParams& params);

// --- journal-cursor replay --------------------------------------------------
//
// The crash-consistency half of recovery: fold an OpLog (fs/journal.hpp)
// back into namespace-level state without scanning the namespace itself.
// spiderfsck uses this as its phase-2 cross-reference (journal-derived
// counters and live set vs. the inode table) and as its phase-3 repair
// primitive (advance the cursor over a backfilled tail).

/// Counters derived from one full replay of an op log. Record positions are
/// indices into `log.records()` at replay time, kept full width
/// (std::size_t) because a changelog can outgrow 2^32 records.
struct OpLogSummary {
  std::uint64_t creates = 0;
  std::uint64_t unlinks = 0;
  std::uint64_t setattrs = 0;
  std::uint64_t resizes = 0;
  std::uint64_t setprojects = 0;
  /// Files whose last journaled op is a create (created and never unlinked),
  /// ascending file-id order — the journal's view of the live set.
  std::vector<std::uint64_t> live;
  /// Parallel to `live`: position of each live file's first create record
  /// (the earliest in the log, even when the file was unlinked and
  /// re-created since).
  std::vector<std::size_t> live_first_create;
  /// Positions, in log order, of unlink records whose file no create record
  /// anywhere in the log mentions (spiderfsck's ghost unlinks).
  std::vector<std::size_t> ghost_unlinks;
  /// Sum of the sizes of the journal-live files (kResize records update a
  /// live file's size in place).
  Bytes live_bytes = 0;
  std::uint64_t last_txid = 0;
};

/// Replay every record of `log` from txid 1 through the tail, in one pass.
/// Per file: a create while live is a no-op, an unlink kills the file, a
/// resize updates only a live file, and a create after an unlink revives it.
OpLogSummary replay_op_log(const OpLog& log);

/// Replay only the records beyond `cursor` (exclusive), on top of nothing —
/// the incremental consumer's step over the whole log tail (committed or
/// not; fs/changelog.hpp's ChangelogCursor is the committed-prefix flavor
/// and additionally detects txid reuse after a crash, which a pure log view
/// cannot).
struct JournalReplayOutcome {
  std::uint64_t replayed = 0;
  std::uint64_t new_cursor = 0;
  /// `cursor` was beyond last_txid(): it points into a tail that
  /// truncate_to has since crash-dropped. Nothing replayed; new_cursor is
  /// clamped back to last_txid() and the consumer must rebuild, because a
  /// future append will reuse the lost txids for different operations.
  bool cursor_ahead = false;
  /// A txid in (cursor, last_txid] had no record — interior corruption of
  /// the records_mutable kind spiderfsck seeds. Present records were still
  /// counted; `first_gap_txid` names the first hole.
  bool gap = false;
  std::uint64_t first_gap_txid = 0;
};
JournalReplayOutcome replay_from_cursor(const OpLog& log, std::uint64_t cursor);

}  // namespace spider::fs
