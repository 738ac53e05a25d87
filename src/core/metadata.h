#ifndef ZIZIPHUS_CORE_METADATA_H_
#define ZIZIPHUS_CORE_METADATA_H_

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>

#include "common/hash.h"
#include "common/status.h"
#include "common/types.h"

namespace ziziphus::core {

/// Network-wide policies enforced through the global system meta-data
/// (Section II/III-B: "a zone cannot host more than 10000 clients", "a
/// client can migrate at most 10 times a year").
struct PolicyConfig {
  std::uint64_t max_clients_per_zone = 10000;
  std::uint32_t max_migrations_per_client = 1000000;
};

/// The global operation `o` executed once a global transaction commits.
/// For client migrations (the paper's common case) `command` is empty and
/// the op updates the system meta-data. When `command` is non-empty the op
/// is a generic globally-replicated application command — used by the
/// Steward baseline (every transaction is global) and by cross-zone
/// transactions (Section IV-B3).
struct MigrationOp {
  ClientId client = kInvalidClient;
  ZoneId source = kInvalidZone;
  ZoneId destination = kInvalidZone;
  RequestTimestamp timestamp = 0;
  std::string command;
  /// Cross-zone transaction (Section IV-B3): `command` executes on the
  /// *local* data of the involved zones (source and destination) only; the
  /// destination zone acts as the primary, no election, and messages go
  /// only to the involved zones.
  bool cross_zone = false;

  bool IsMigration() const { return command.empty(); }

  std::uint64_t RequestId() const {
    return Hasher(0x317).Add(client).Add(timestamp).Finish();
  }
};

/// Exactly-once bookkeeping for global ops without a per-op history: per
/// client, a high-water `floor` plus the last few timestamps executed above
/// it. (client, ts) counts as executed when ts is at or below the floor or
/// in that window.
///
/// A node can execute a client's global ops out of timestamp order: a
/// chain skip runs a successor before its predecessor, and a migrated
/// client's consecutive ops can ride two initiator chains (an amnesiac that
/// missed a commit may later run the op as a re-led twin after the client's
/// next one). So the window keeps the kWindow highest executed timestamps
/// and only the lowest of them falls into the floor. The answer matches an
/// exact per-op set unless a node executes more than kWindow of a client's
/// later global ops before an earlier one reaches it.
class ExecutedOps {
 public:
  static constexpr std::size_t kWindow = 4;

  bool Contains(ClientId client, RequestTimestamp ts) const;
  /// Records (client, ts); false if it already counted as executed.
  bool Insert(ClientId client, RequestTimestamp ts);

  std::size_t clients() const { return clients_.size(); }
  std::size_t ApproxBytes() const {
    return clients_.size() * (sizeof(ClientId) + sizeof(Entry) + 16);
  }

 private:
  struct Entry {
    RequestTimestamp floor = 0;
    /// Executed timestamps above `floor`, unordered; 0 marks a free slot
    /// (client timestamps start at 1).
    std::array<RequestTimestamp, kWindow> above{};
  };
  std::unordered_map<ClientId, Entry> clients_;
};

/// Global (or, with zone clusters, regional) system meta-data, replicated on
/// every node of every zone in scope: client counts per zone, migration
/// counts per client, and each client's current home zone.
///
/// Execution is idempotent per (client, timestamp) so that at-least-once
/// delivery of commit messages is safe; the dedup state is one watermark
/// per client (ExecutedOps), not a history.
class GlobalMetadata {
 public:
  explicit GlobalMetadata(PolicyConfig policy = {}) : policy_(policy) {}

  /// Registers a client's initial home zone (bootstrap; not a transaction).
  void RegisterClient(ClientId client, ZoneId home);

  /// Policy check used when validating a migration request. Does not
  /// modify state.
  Status ValidateMigration(const MigrationOp& op) const;

  /// Executes the migration op. Returns the result string sent to the
  /// client ("ok" / error). Deduplicates on (client, timestamp).
  std::string Execute(const MigrationOp& op);

  ZoneId HomeOf(ClientId client) const;
  std::uint64_t ClientsInZone(ZoneId zone) const;
  std::uint32_t MigrationsOf(ClientId client) const;

  /// Order-insensitive digest over the meta-data, for cross-node equality
  /// checks in tests.
  std::uint64_t StateDigest() const;

  /// Distinct migration ops executed (duplicates excluded).
  std::uint64_t executed_count() const { return executed_count_; }
  /// Clients with an execution watermark (the dedup state's size).
  std::size_t watermarked_clients() const { return executed_.clients(); }

 private:
  PolicyConfig policy_;
  std::unordered_map<ZoneId, std::uint64_t> clients_per_zone_;
  std::unordered_map<ClientId, std::uint32_t> migrations_;
  std::unordered_map<ClientId, ZoneId> home_;
  ExecutedOps executed_;
  std::uint64_t executed_count_ = 0;
};

}  // namespace ziziphus::core

#endif  // ZIZIPHUS_CORE_METADATA_H_
