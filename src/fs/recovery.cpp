#include "fs/recovery.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <type_traits>
#include <utility>

namespace spider::fs {

FailoverOutcome simulate_oss_failover(const RecoveryParams& params) {
  FailoverOutcome out;

  // Detection: how long until clients know the OSS moved.
  if (params.asymmetric_router_notification) {
    // Routers see the dead path and broadcast; no RPC timeout.
    out.detection_s = params.notification_s;
  } else if (params.imperative_recovery) {
    // The failover server boots its targets and pings clients; still pays
    // the failover partner's takeover delay, not the full RPC timeout.
    out.detection_s = params.notification_s + 0.1 * params.rpc_timeout_s;
  } else {
    // Classic: mean RPC timeout plus detection spread.
    out.detection_s = params.rpc_timeout_s + 0.5 * params.detection_spread_s;
  }

  // Reconnect storm: all clients stream reconnect RPCs into one server.
  out.reconnect_s =
      static_cast<double>(params.clients) / params.reconnect_rate;

  // Straggler gating: classic recovery keeps the window open until the
  // last known client returns or the window expires. Imperative recovery
  // evicts non-responding clients quickly instead of waiting.
  if (params.imperative_recovery) {
    out.straggler_wait_s = std::min(10.0, params.recovery_window_s);
  } else if (params.straggler_fraction > 0.0) {
    out.straggler_wait_s = params.recovery_window_s;
  }

  out.total_outage_s = out.detection_s + out.reconnect_s + out.straggler_wait_s;
  return out;
}

// --- journal-cursor replay --------------------------------------------------

namespace {

/// One file's replay state. An entry exists only once a create record has
/// mentioned the file, so a set `first_create` doubles as the occupancy mark.
struct FileEntry {
  static constexpr std::size_t kEmpty =
      std::numeric_limits<std::size_t>::max();
  std::uint64_t file = 0;
  Bytes size = 0;
  std::size_t first_create = kEmpty;
  bool live = false;
};
// Record positions stay full width: a narrowed index would wrap silently on
// a changelog past 2^32 records.
static_assert(std::is_same_v<decltype(FileEntry::first_create), std::size_t>);
static_assert(std::is_same_v<decltype(OpLogSummary::ghost_unlinks)::value_type,
                             std::size_t>);

/// Flat open-addressing table keyed by file id: linear probing over a
/// power-of-two array kept at most half full. Iteration order is the hash
/// order, so callers sort whatever they read out of it.
class FileTable {
 public:
  FileTable() : slots_(kInitialCapacity) {}

  FileEntry* find(std::uint64_t file) {
    for (std::size_t i = home(file);; i = (i + 1) & mask()) {
      FileEntry& e = slots_[i];
      if (e.first_create == FileEntry::kEmpty) return nullptr;
      if (e.file == file) return &e;
    }
  }

  /// The entry for `file`, claimed with `first_create = pos` if absent.
  FileEntry& find_or_insert(std::uint64_t file, std::size_t pos) {
    if (2 * (used_ + 1) > slots_.size()) grow();
    for (std::size_t i = home(file);; i = (i + 1) & mask()) {
      FileEntry& e = slots_[i];
      if (e.first_create == FileEntry::kEmpty) {
        e.file = file;
        e.first_create = pos;
        ++used_;
        return e;
      }
      if (e.file == file) return e;
    }
  }

  const std::vector<FileEntry>& slots() const { return slots_; }

 private:
  static constexpr std::size_t kInitialCapacity = 64;

  std::size_t mask() const { return slots_.size() - 1; }
  /// Fibonacci hashing: ids are (generation << 32) | (slot + 1), so the
  /// multiply spreads consecutive slots across the whole array.
  std::size_t home(std::uint64_t file) const {
    return static_cast<std::size_t>((file * 0x9e3779b97f4a7c15ull) >>
                                    (64 - std::countr_zero(slots_.size())));
  }

  void grow() {
    std::vector<FileEntry> old(2 * slots_.size());
    old.swap(slots_);
    for (const FileEntry& e : old) {
      if (e.first_create == FileEntry::kEmpty) continue;
      std::size_t i = home(e.file);
      while (slots_[i].first_create != FileEntry::kEmpty) i = (i + 1) & mask();
      slots_[i] = e;
    }
  }

  std::vector<FileEntry> slots_;
  std::size_t used_ = 0;
};

}  // namespace

OpLogSummary replay_op_log(const OpLog& log) {
  OpLogSummary out;
  FileTable table;
  // Unlinks of files no create has mentioned yet; a later create may still
  // mention them, so they are settled after the pass.
  std::vector<std::size_t> unmatched_unlinks;
  const std::vector<OpRecord>& records = log.records();
  for (std::size_t pos = 0; pos < records.size(); ++pos) {
    const OpRecord& rec = records[pos];
    switch (rec.kind) {
      case OpKind::kCreate: {
        ++out.creates;
        FileEntry& e = table.find_or_insert(rec.file, pos);
        if (!e.live) {  // a create of a live file changes nothing
          e.live = true;
          e.size = rec.size;
        }
        break;
      }
      case OpKind::kUnlink: {
        ++out.unlinks;
        FileEntry* e = table.find(rec.file);
        if (e != nullptr) {
          e->live = false;
        } else {
          unmatched_unlinks.push_back(pos);
        }
        break;
      }
      case OpKind::kSetattr:
        ++out.setattrs;  // touch: no live-set or size effect
        break;
      case OpKind::kResize: {
        ++out.resizes;
        FileEntry* e = table.find(rec.file);
        if (e != nullptr && e->live) e->size = rec.size;
        break;
      }
      case OpKind::kSetProject:
        ++out.setprojects;  // ownership move: live set and sizes unchanged
        break;
    }
  }
  for (const std::size_t pos : unmatched_unlinks) {
    if (table.find(records[pos].file) == nullptr) {
      out.ghost_unlinks.push_back(pos);
    }
  }
  // Table order is hash order: read the live entries out, then sort by id.
  std::vector<std::pair<std::uint64_t, std::size_t>> live;
  for (const FileEntry& e : table.slots()) {
    if (e.first_create == FileEntry::kEmpty || !e.live) continue;
    live.emplace_back(e.file, e.first_create);
    out.live_bytes += e.size;
  }
  std::sort(live.begin(), live.end());
  out.live.reserve(live.size());
  out.live_first_create.reserve(live.size());
  for (const auto& [file, first_create] : live) {
    out.live.push_back(file);
    out.live_first_create.push_back(first_create);
  }
  out.last_txid = log.last_txid();
  return out;
}

JournalReplayOutcome replay_from_cursor(const OpLog& log,
                                        std::uint64_t cursor) {
  JournalReplayOutcome out;
  if (cursor > log.last_txid()) {
    // The records this cursor consumed no longer exist (crash-truncated
    // tail). Clamp back rather than carry a position a future append will
    // silently reuse.
    out.cursor_ahead = true;
    out.new_cursor = log.last_txid();
    return out;
  }
  std::uint64_t expect = cursor + 1;
  for (const OpRecord& rec : log.records()) {
    if (rec.txid <= cursor) continue;
    if (rec.txid != expect && !out.gap) {
      out.gap = true;
      out.first_gap_txid = expect;
    }
    expect = rec.txid + 1;
    ++out.replayed;
  }
  if (expect <= log.last_txid() && !out.gap) {
    out.gap = true;
    out.first_gap_txid = expect;
  }
  out.new_cursor = log.last_txid();
  return out;
}

}  // namespace spider::fs
