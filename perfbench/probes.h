#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstddef>

#include "core/system.h"

namespace perfbench {

/// Wall time per call of the crypto and storage primitives, on inputs
/// sized from one zone's final state in the workload just run (its
/// snapshot, its members, its keys).
struct PrimitiveTimings {
  double merkle_build_us = 0;  // BuildReadTree over the zone snapshot
  double read_verify_us = 0;   // VerifyReadProof, f+1 certificate
  double sign_us = 0;          // KeyRegistry::Sign
  double verify_us = 0;        // KeyRegistry::Verify
  double kv_get_us = 0;        // KvStore::Get of a present key
  double kv_put_us = 0;        // KvStore::Put overwriting a key
  double snapshot_us = 0;      // KvStore::Snapshot of the whole store
};

PrimitiveTimings TimePrimitives(ziziphus::core::ZiziphusSystem& sys);

/// Events per wall second of the system's event queue under a classic
/// hold model (pop the minimum, push a successor) at `depth` pending
/// events, with a LAN / WAN / protocol-timer gap mix as in
/// bench/bench_simperf.cc.
double HoldEventsPerSecond(ziziphus::core::ZiziphusSystem& sys,
                           std::size_t depth);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
