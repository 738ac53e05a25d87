#include "core/ledger.h"

#include <algorithm>

namespace ziziphus::core {

void ExecutionLedger::Record(Ballot ballot, std::uint64_t digest,
                             NodeId node) {
  auto [it, inserted] = entries_.try_emplace(ballot);
  Entry& e = it->second;
  if (inserted) e.digest = digest;
  if (digest != e.digest) {
    e.conflicts.push_back({node, digest});
  } else if (node < 64) {
    e.low_nodes |= std::uint64_t{1} << node;
  } else if (std::find(e.high_nodes.begin(), e.high_nodes.end(), node) ==
             e.high_nodes.end()) {
    e.high_nodes.push_back(node);
  }
}

std::map<Ballot, std::vector<ExecutionLedger::Execution>>
ExecutionLedger::Disputed() const {
  std::map<Ballot, std::vector<Execution>> out;
  for (const auto& [ballot, e] : entries_) {
    if (e.conflicts.empty()) continue;
    std::vector<Execution>& all = out[ballot];
    for (NodeId n = 0; n < 64; ++n) {
      if ((e.low_nodes >> n) & 1) all.push_back({n, e.digest});
    }
    for (NodeId n : e.high_nodes) all.push_back({n, e.digest});
    all.insert(all.end(), e.conflicts.begin(), e.conflicts.end());
    std::stable_sort(all.begin(), all.end(),
                     [](const Execution& a, const Execution& b) {
                       return a.node < b.node;
                     });
  }
  return out;
}

}  // namespace ziziphus::core
