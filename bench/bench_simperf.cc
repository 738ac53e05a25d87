// Simulator-performance benchmark: events/sec and allocations/event of the
// event hot path, end to end on the Figure 4 multi-zone deployment.
//
//   Simperf/fig4/zones:Z   — the full Ziziphus experiment from one seed,
//                            best of three repetitions.
//
// Every cell publishes the dispatched event count, events_per_sec,
// allocations/event measured by a global operator new count, and the
// modeled throughput, so the exported ziziphus.bench.v1 JSON carries both
// the deterministic numbers and the wall-clock rate.

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>

#include "app/experiment_config.h"
#include "benchmark/benchmark.h"

// ---- Allocation counter -------------------------------------------------
// Replaces the global allocation functions for this binary only; every
// operator new in the process bumps one relaxed atomic.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ziziphus::bench {
using namespace app;  // bench helpers live in app/experiment_config.h
namespace {

std::uint64_t AllocCount() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct RunSample {
  double events_per_sec = 0;
  double allocs_per_event = 0;
  std::uint64_t events = 0;
  app::ExperimentResult result;
};

RunSample RunOnce(std::size_t zones) {
  app::WorkloadSpec wl = BaseWorkload();
  wl.clients_per_zone = ClientsPerZone(200, 50);
  wl.mix.global_fraction = 0.1;
  std::uint64_t allocs0 = AllocCount();
  auto t0 = std::chrono::steady_clock::now();
  RunSample s;
  s.result = app::RunExperiment(app::Protocol::kZiziphus,
                                app::PaperDeployment(zones), wl);
  double secs = SecondsSince(t0);
  std::uint64_t allocs = AllocCount() - allocs0;
  s.events = s.result.events_dispatched;
  s.events_per_sec = secs > 0 ? static_cast<double>(s.events) / secs : 0;
  s.allocs_per_event =
      s.events > 0 ? static_cast<double>(allocs) / s.events : 0;
  return s;
}

void BM_Fig4EndToEnd(benchmark::State& state) {
  auto zones = static_cast<std::size_t>(state.range(0));
  // Best-of-N is the standard throughput estimator on a shared machine.
  const int reps = SmokeSweep() ? 1 : 3;
  RunSample best;
  for (auto _ : state) {
    for (int r = 0; r < reps; ++r) {
      RunSample s = RunOnce(zones);
      if (s.events_per_sec > best.events_per_sec) best = s;
    }
  }
  BenchCell cell;
  cell.name = "simperf/fig4/zones:" + std::to_string(zones) +
              "/clients:" + std::to_string(ClientsPerZone(200, 50));
  auto put = [&](const char* key, double v) {
    state.counters[key] = v;
    cell.metrics[key] = v;
  };
  put("events", static_cast<double>(best.events));
  put("events_per_sec", best.events_per_sec);
  put("allocs_per_event", best.allocs_per_event);
  put("tput_ktps", best.result.throughput_tps / 1000.0);
  CollectedCells().push_back(std::move(cell));
}

void RegisterAll() {
  for (int z : {3, 5, 7}) {
    benchmark::RegisterBenchmark(
        ("Simperf/fig4/zones:" + std::to_string(z)).c_str(), BM_Fig4EndToEnd)
        ->Args({z})
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
}

[[maybe_unused]] const bool registered = (RegisterAll(), true);

}  // namespace
}  // namespace ziziphus::bench

ZIZIPHUS_BENCH_MAIN("simperf");
