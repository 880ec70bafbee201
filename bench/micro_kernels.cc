// google-benchmark microbenchmarks for the real software kernels and
// core data structures (wall-clock performance of the actual
// implementations, independent of the simulator's cost models).

#include <benchmark/benchmark.h>

#include "common/histogram.h"
#include "common/logging.h"
#include "kern/chacha20.h"
#include "kern/crc32.h"
#include "kern/dedup.h"
#include "kern/deflate.h"
#include "kern/huffman.h"
#include "kern/regex.h"
#include "kern/relational.h"
#include "kern/textgen.h"
#include "sim/simulator.h"

namespace dpdpu {
namespace {

void BM_DeflateCompress(benchmark::State& state) {
  size_t size = size_t(state.range(0));
  int level = int(state.range(1));
  Buffer text = kern::GenerateText(size, {});
  for (auto _ : state) {
    auto out = kern::DeflateCompress(text.span(),
                                     kern::DeflateOptions{level});
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * int64_t(size));
}
BENCHMARK(BM_DeflateCompress)
    ->Args({64 << 10, 1})
    ->Args({64 << 10, 6})
    ->Args({64 << 10, 9})
    ->Args({1 << 20, 6});

void BM_DeflateDecompress(benchmark::State& state) {
  Buffer text = kern::GenerateText(size_t(state.range(0)), {});
  auto compressed = kern::DeflateCompress(text.span());
  for (auto _ : state) {
    auto out = kern::DeflateDecompress(compressed->span());
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * state.range(0));
}
BENCHMARK(BM_DeflateDecompress)->Arg(64 << 10)->Arg(1 << 20);

void BM_ChaCha20(benchmark::State& state) {
  Buffer data = kern::GenerateRandomBytes(size_t(state.range(0)), 1);
  std::array<uint8_t, 32> key{};
  std::array<uint8_t, 12> nonce{};
  for (auto _ : state) {
    Buffer out = kern::ChaCha20Xor(key, nonce, 0, data.span());
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * state.range(0));
}
BENCHMARK(BM_ChaCha20)->Arg(64 << 10)->Arg(1 << 20);

void BM_Crc32(benchmark::State& state) {
  Buffer data = kern::GenerateRandomBytes(size_t(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kern::Crc32(data.span()));
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64 << 10)->Arg(1 << 20);

void BM_HuffmanDecode(benchmark::State& state) {
  // Encode a text corpus's byte stream with its own optimal length-limited
  // code, then measure pure symbol decode throughput through DecodeFast.
  Buffer text = kern::GenerateText(size_t(state.range(0)), {});
  std::vector<uint64_t> freqs(256, 0);
  for (size_t i = 0; i < text.size(); ++i) freqs[text.span()[i]]++;
  std::vector<uint8_t> lengths =
      kern::PackageMergeLengths(freqs, kern::kMaxHuffmanBits);
  std::vector<uint32_t> codes = kern::CanonicalCodes(lengths);
  Buffer encoded;
  {
    kern::BitWriter writer(&encoded);
    for (size_t i = 0; i < text.size(); ++i) {
      uint8_t s = text.span()[i];
      writer.WriteHuffmanCode(codes[s], lengths[s]);
    }
    writer.PadToByte();
  }
  auto decoder = kern::HuffmanDecoder::Build(lengths);
  DPDPU_CHECK(decoder.ok());
  for (auto _ : state) {
    kern::BitReader reader(encoded.span());
    int symbol = 0;
    uint64_t sum = 0;
    for (size_t i = 0; i < text.size(); ++i) {
      DPDPU_CHECK(decoder->DecodeFast(reader, &symbol).ok());
      sum += uint64_t(symbol);
    }
    benchmark::DoNotOptimize(sum);
  }
  // One symbol decodes to one byte of the original corpus.
  state.SetBytesProcessed(int64_t(state.iterations()) * state.range(0));
}
BENCHMARK(BM_HuffmanDecode)->Arg(64 << 10)->Arg(1 << 20);

void BM_RegexCount(benchmark::State& state) {
  Buffer text = kern::GenerateText(size_t(state.range(0)), {});
  auto re = kern::Regex::Compile("[a-z]+tion");
  for (auto _ : state) {
    benchmark::DoNotOptimize(re->CountMatches(text.view()));
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * state.range(0));
}
BENCHMARK(BM_RegexCount)->Arg(16 << 10)->Arg(64 << 10);

void BM_DedupChunk(benchmark::State& state) {
  Buffer data = kern::GenerateText(size_t(state.range(0)), {});
  for (auto _ : state) {
    auto chunks = kern::ChunkData(data.span());
    benchmark::DoNotOptimize(chunks);
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * state.range(0));
}
BENCHMARK(BM_DedupChunk)->Arg(1 << 20);

void BM_FilterPage(benchmark::State& state) {
  kern::Schema schema(
      {{"id", kern::ColumnType::kInt64}, {"v", kern::ColumnType::kDouble}});
  kern::RowPageBuilder builder(schema);
  for (int i = 0; i < int(state.range(0)); ++i) {
    Status added =
        builder.AddRow({kern::Value(int64_t(i)), kern::Value(i * 0.5)});
    DPDPU_CHECK(added.ok());
  }
  Buffer page = builder.Finish();
  auto reader = kern::RowPageReader::Open(&schema, page.span());
  auto pred = kern::Predicate::Compare(0, kern::CompareOp::kLt,
                                       kern::Value(int64_t(100)));
  for (auto _ : state) {
    auto rows = kern::FilterPage(*reader, *pred);
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * state.range(0));
}
BENCHMARK(BM_FilterPage)->Arg(1024)->Arg(16384);

void BM_SimulatorEvents(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      sim.Schedule(uint64_t(i % 37), [] {});
    }
    sim.Run();
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * 1000);
}
BENCHMARK(BM_SimulatorEvents);

// One event of BM_SimulatorDeepHeap: owns a Buffer, as Network::Send's
// Packet capture does, so moving the closure is not a trivial copy. It
// reschedules itself as one of four closure types at a pseudo-random
// delay: a fleet run's pending closures are of many types, so each
// relocation is an indirect call the CPU cannot predict.
template <int kType>
struct DeepHeapEvent {
  sim::Simulator* sim;
  uint64_t* rng;
  Buffer payload;

  void operator()();
};

template <int kType>
void DeepHeapEvent<kType>::operator()() {
  *rng = *rng * 6364136223846793005ull + 1442695040888963407ull;
  uint64_t r = *rng >> 33;
  sim::SimTime delay = 1 + (r + kType) % 1000;  // kType: no code folding
  switch ((r >> 10) % 4) {
    case 0:
      sim->Schedule(delay, DeepHeapEvent<0>{sim, rng, std::move(payload)});
      break;
    case 1:
      sim->Schedule(delay, DeepHeapEvent<1>{sim, rng, std::move(payload)});
      break;
    case 2:
      sim->Schedule(delay, DeepHeapEvent<2>{sim, rng, std::move(payload)});
      break;
    default:
      sim->Schedule(delay, DeepHeapEvent<3>{sim, rng, std::move(payload)});
      break;
  }
}

void BM_SimulatorDeepHeap(benchmark::State& state) {
  // Steady state at fleet depth: about 4096 events stay pending (fleet_kv
  // holds 5-6 K), and each step runs one and schedules one.
  sim::Simulator sim;
  uint64_t rng = 1;
  for (int i = 0; i < 4096; ++i) {
    sim.Schedule(uint64_t(i % 1000),
                 DeepHeapEvent<0>{&sim, &rng, Buffer(size_t{64})});
  }
  for (auto _ : state) {
    sim.Step();
  }
  benchmark::DoNotOptimize(sim.events_executed());
  state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_SimulatorDeepHeap);

void BM_Histogram(benchmark::State& state) {
  Histogram h;
  uint64_t v = 12345;
  for (auto _ : state) {
    h.Add(v);
    v = v * 1664525 + 1013904223;
    benchmark::DoNotOptimize(h.count());
  }
}
BENCHMARK(BM_Histogram);

}  // namespace
}  // namespace dpdpu

BENCHMARK_MAIN();
