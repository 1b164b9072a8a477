// Micro-benchmarks of the StorM storage manager: store population, get, the
// full-scan keyword search path (what every simulated node executes per
// query), the page checksum every pager read and write-back pays, and
// buffer-pool behaviour under each replacement policy.

#include <benchmark/benchmark.h>

#include <vector>

#include "storm/page.h"
#include "storm/storm.h"
#include "workload/corpus.h"

namespace {

using bestpeer::storm::Page;
using bestpeer::storm::Storm;
using bestpeer::storm::StormOptions;

std::unique_ptr<Storm> MakeLoadedStore(size_t objects, size_t frames,
                                       const std::string& policy) {
  StormOptions options;
  options.buffer_frames = frames;
  options.replacement = policy;
  options.build_index = false;
  auto storm = Storm::Open(options).value();
  bestpeer::workload::CorpusGenerator corpus({1024, 500, 0.8}, 11);
  for (size_t i = 0; i < objects; ++i) {
    storm->Put(i, corpus.MakeObject(i % 100 == 0)).ok();
  }
  return storm;
}

// One paper_star node's store population: a fresh 128-frame store
// filled with 1000 x 1 KB corpus objects (10 matching), generated
// outside the timed loop. Store and pool set-up are timed with the Puts.
void BM_StormPopulate1000(benchmark::State& state) {
  bestpeer::workload::CorpusGenerator corpus({1024, 500, 0.8}, 11);
  std::vector<bestpeer::Bytes> objects;
  for (size_t i = 0; i < 1000; ++i) {
    objects.push_back(corpus.MakeObject(i % 100 == 0));
  }
  StormOptions options;
  options.buffer_frames = 128;
  options.build_index = false;
  for (auto _ : state) {
    auto storm = Storm::Open(options).value();
    for (size_t i = 0; i < objects.size(); ++i) {
      storm->Put(i, objects[i]).ok();
    }
    benchmark::DoNotOptimize(storm.get());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_StormPopulate1000);

void BM_StormGet(benchmark::State& state) {
  auto storm = MakeLoadedStore(1000, 128, "lru");
  uint64_t id = 0;
  for (auto _ : state) {
    auto content = storm->Get(id % 1000);
    benchmark::DoNotOptimize(content);
    ++id;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_StormGet);

// The per-query cost of the paper's search agent: scan 1000 x 1 KB.
void BM_StormScanSearch1000(benchmark::State& state) {
  auto storm = MakeLoadedStore(1000, static_cast<size_t>(state.range(0)),
                               "lru");
  for (auto _ : state) {
    auto scan = storm->ScanSearch("needle");
    benchmark::DoNotOptimize(scan);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1000);
  state.counters["hit_rate"] =
      storm->buffer_pool().hits() == 0
          ? 0.0
          : static_cast<double>(storm->buffer_pool().hits()) /
                static_cast<double>(storm->buffer_pool().hits() +
                                    storm->buffer_pool().misses());
}
BENCHMARK(BM_StormScanSearch1000)->Arg(32)->Arg(128)->Arg(512);

// One formatted 4 KiB page holding three 1 KB corpus objects, the shape
// a 1000 x 1 KB store's pages have.
void BM_PageChecksum(benchmark::State& state) {
  Page page;
  page.Init(1);
  bestpeer::workload::CorpusGenerator corpus({1024, 500, 0.8}, 11);
  for (int i = 0; i < 3; ++i) {
    auto content = corpus.MakeObject(false);
    page.Insert(content.data(), static_cast<uint16_t>(content.size())).ok();
  }
  page.UpdateChecksum();
  for (auto _ : state) {
    benchmark::DoNotOptimize(page.VerifyChecksum());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(Page::kPageSize));
}
BENCHMARK(BM_PageChecksum);

void BM_StormIndexSearch(benchmark::State& state) {
  StormOptions options;
  options.build_index = true;
  auto storm = Storm::Open(options).value();
  bestpeer::workload::CorpusGenerator corpus({1024, 500, 0.8}, 11);
  for (size_t i = 0; i < 1000; ++i) {
    storm->Put(i, corpus.MakeObject(i % 100 == 0)).ok();
  }
  for (auto _ : state) {
    auto hits = storm->IndexSearch("needle");
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_StormIndexSearch);

// Scan throughput under each replacement policy with a tight pool.
void BM_StormScanByPolicy(benchmark::State& state) {
  static const char* kPolicies[] = {"lru", "fifo", "clock", "lfu"};
  const char* policy = kPolicies[state.range(0)];
  auto storm = MakeLoadedStore(1000, 64, policy);
  for (auto _ : state) {
    auto scan = storm->ScanSearch("needle");
    benchmark::DoNotOptimize(scan);
  }
  state.SetLabel(policy);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_StormScanByPolicy)->DenseRange(0, 3);

}  // namespace

BENCHMARK_MAIN();
