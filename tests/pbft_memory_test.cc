// Bounded PBFT batch retention. Between stable checkpoints every replica
// keeps each slot's pre-prepare, its prepared proof and the durable copy of
// that proof. The proofs share the pre-prepare's batch, and every replica of
// the zone received that pre-prepare as one object, so a slot should hold
// about one copy of its ops per zone, not one per replica and store.
// Counts live heap bytes with a binary-local operator new.
// `ctest -L perf-smoke` runs this with the queue and global-op memory tests.

#include <malloc.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "baselines/pbft_process.h"
#include "gtest/gtest.h"
#include "pbft/durable.h"
#include "pbft/engine.h"

namespace {
// Single-threaded test binary: plain counters suffice.
std::int64_t g_live_bytes = 0;
}  // namespace

// These replacements pair malloc with free; GCC cannot see that once it
// inlines them into a new/delete pair.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  g_live_bytes += static_cast<std::int64_t>(malloc_usable_size(p));
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes -= static_cast<std::int64_t>(malloc_usable_size(p));
  std::free(p);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept {
  ::operator delete(p);
}

namespace ziziphus {
namespace {

constexpr std::size_t kOpsPerBatch = 32;
constexpr std::size_t kCommandBytes = 100;  // past the small-string buffer

pbft::Operation MakeOp(RequestTimestamp ts) {
  pbft::Operation op;
  op.client = kInvalidClient;  // no replies: nothing client-side is retained
  op.timestamp = ts;
  op.command = std::string(kCommandBytes, 'x') + std::to_string(ts);
  return op;
}

/// Live heap bytes of one Batch of kOpsPerBatch ops: the unit the per-slot
/// retention is measured in.
std::int64_t BatchHeapBytes() {
  pbft::Batch batch;
  for (std::size_t i = 0; i < kOpsPerBatch; ++i) {
    batch.ops.push_back(MakeOp(i + 1));
  }
  const std::int64_t before = g_live_bytes;
  auto copy = std::make_unique<pbft::Batch>(batch);
  return g_live_bytes - before;
}

TEST(PbftMemoryTest, SlotsRetainAboutOneBatchCopyPerZone) {
  constexpr std::size_t kWarmupBatches = 8;
  constexpr std::size_t kBatches = 64;
  crypto::KeyRegistry keys(0x5eedc0deULL);
  sim::Simulation sim(1, sim::LatencyModel::Uniform(1, 1000));
  std::vector<std::unique_ptr<baselines::PbftReplicaProcess>> replicas;
  std::vector<NodeId> members;
  for (int i = 0; i < 4; ++i) {
    replicas.push_back(std::make_unique<baselines::PbftReplicaProcess>());
    members.push_back(sim.Register(replicas.back().get(), 0));
  }
  pbft::PbftConfig cfg;
  cfg.members = members;
  cfg.f = 1;
  cfg.batch_max = kOpsPerBatch;
  // Every batch stays below the first checkpoint, so nothing is trimmed.
  cfg.checkpoint_interval = 1024;
  std::vector<pbft::DurableState> durable(replicas.size());
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    replicas[i]->Init(&keys, cfg, std::make_unique<pbft::EchoStateMachine>());
    replicas[i]->engine().set_durable(&durable[i]);
  }
  pbft::PbftEngine& primary = replicas[0]->engine();
  RequestTimestamp ts = 0;
  auto run_batches = [&](std::size_t n) {
    for (std::size_t b = 0; b < n; ++b) {
      // A full batch proposes at once; the rest of the zone follows.
      for (std::size_t i = 0; i < kOpsPerBatch; ++i) {
        primary.Submit(MakeOp(++ts));
      }
      sim.RunFor(Millis(20));
    }
  };
  run_batches(kWarmupBatches);
  const SeqNum seq0 = primary.last_executed();
  const std::int64_t live0 = g_live_bytes;
  run_batches(kBatches);
  const std::int64_t live1 = g_live_bytes;
  for (const auto& rep : replicas) {
    ASSERT_EQ(rep->engine().last_executed(), seq0 + kBatches);
    ASSERT_EQ(rep->engine().stable_seq(), 0u);
  }

  const double per_slot =
      static_cast<double>(live1 - live0) / static_cast<double>(kBatches);
  const double copies = per_slot / static_cast<double>(BatchHeapBytes());
  // Measured in batch copies per slot per 4-replica zone: 10.3 when each
  // replica deep-copied the batch into its prepared proof and again into
  // the durable proof (4 x 2 copies plus the shared pre-prepare), 1.5 with
  // the proofs aliasing the pre-prepare's batch (the remainder is slot,
  // proof-map and log bookkeeping).
  EXPECT_LT(copies, 4.0) << per_slot << " live heap bytes per slot";
  RecordProperty("batch_copies_per_slot", std::to_string(copies));
}

}  // namespace
}  // namespace ziziphus
