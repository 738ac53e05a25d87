#ifndef ZIZIPHUS_CORE_LEDGER_H_
#define ZIZIPHUS_CORE_LEDGER_H_

#include <cstdint>
#include <map>
#include <vector>

#include "common/types.h"

namespace ziziphus::core {

/// System-wide record of what ran under each data-synchronization ballot:
/// one entry per ballot for the whole deployment, not one per node. Every
/// node's DataSyncEngine reports each execution here as it happens, and the
/// InvariantChecker's global-agreement sweep reads it back: two honest
/// nodes executing different requests under one ballot is a violation.
///
/// An entry holds the first digest seen for the ballot and the set of
/// nodes that executed that digest; an execution with any other digest is
/// kept separately as a conflict. That is everything the sweep needs to
/// pick its reference among the honest executors.
class ExecutionLedger {
 public:
  struct Execution {
    NodeId node = kInvalidNode;
    std::uint64_t digest = 0;
  };

  void Record(Ballot ballot, std::uint64_t digest, NodeId node);

  /// Every recorded execution of each ballot that saw more than one
  /// digest, in ascending node order per ballot.
  std::map<Ballot, std::vector<Execution>> Disputed() const;

  std::size_t ballots() const { return entries_.size(); }

 private:
  struct Entry {
    std::uint64_t digest = 0;
    /// Executors of `digest`: node ids below 64 as bits, the rest listed.
    std::uint64_t low_nodes = 0;
    std::vector<NodeId> high_nodes;
    /// Executions under this ballot with a different digest.
    std::vector<Execution> conflicts;
  };
  std::map<Ballot, Entry> entries_;
};

}  // namespace ziziphus::core

#endif  // ZIZIPHUS_CORE_LEDGER_H_
