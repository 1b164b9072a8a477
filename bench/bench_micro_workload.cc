// Micro-benchmarks of the workload generator every experiment runs before
// its first query: one Zipf word draw, and one corpus object at the two
// object sizes the benches and scenarios store (512 B and the paper's
// 1 KB, §4.2).

#include <benchmark/benchmark.h>

#include "util/rng.h"
#include "workload/corpus.h"

namespace {

using bestpeer::Rng;
using bestpeer::ZipfSampler;
using bestpeer::workload::CorpusGenerator;

// The corpus vocabulary: 500 words, skew 0.8.
void BM_ZipfSample(benchmark::State& state) {
  ZipfSampler zipf(500, 0.8);
  Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ZipfSample);

// One non-matching object of range(0) bytes, as store population draws.
void BM_CorpusMakeObject(benchmark::State& state) {
  CorpusGenerator corpus({static_cast<size_t>(state.range(0)), 500, 0.8}, 11);
  for (auto _ : state) {
    auto object = corpus.MakeObject(false);
    benchmark::DoNotOptimize(object.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_CorpusMakeObject)->Arg(512)->Arg(1024);

}  // namespace

BENCHMARK_MAIN();
