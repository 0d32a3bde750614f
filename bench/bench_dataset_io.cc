/**
 * @file
 * Dataset IO throughput: how fast corpora stream to and from disk.
 *
 * Five phases, all at bounded memory:
 *   1. synthesize+write — StreamingSynthesisSource feeding CorpusWriter
 *      (the `granite_cli dataset synthesize` path): blocks/sec and MB/s.
 *   2. sequential read — the chunked CorpusReader (checksum-verified
 *      full pass, one shard resident): blocks/sec and MB/s.
 *   3. random access — StreamingCorpusSource under a shard-hopping
 *      access pattern with a small LRU window: blocks/sec and the
 *      shard load count (the cost of sampling-style access, plus one
 *      load per shard made by the validating open pass).
 *   4. CSV import — the `granite_cli dataset import` path: blocks/sec
 *      over a synthesized CSV, plus the reject rate of the checked-in
 *      BHive sample CSV (--import-csv=PATH, default
 *      ../tests/data/bhive_sample.csv) as an ISA-coverage canary —
 *      a parser regression shows up as a rising reject_ppm.
 *   5. canonical text — BasicBlock::ToString, BlockFingerprint and
 *      ParseBasicBlock over blocks of the corpus's shape: ns (print,
 *      fingerprint) and µs (parse) per block, the per-candidate costs
 *      of autotune search and the per-record costs of corpus write;
 *      and GraniteModel::EncodeBlocks over the same blocks in batches
 *      of 16: ns per block, the encoding cost of every training
 *      sample, cold served request and autotune candidate. Then
 *      uarch::MeasureOnAllUarchs over the same blocks: µs per block
 *      for the oracle labels of all three microarchitectures, the stage
 *      that dominates phase 1's synthesize+write.
 *
 * Peak RSS (VmHWM) is reported on Linux as a bounded-memory sanity
 * check: it must track the shard window, not the corpus size.
 *
 * --quick shrinks the corpus for the CI perf-smoke job; --json-out=PATH
 * emits the metrics for bench/compare_bench.py.
 */
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <cstring>
#include <fstream>

#include "asm/parser.h"
#include "base/resource_usage.h"
#include "bench_common.h"
#include "core/granite_model.h"
#include "dataset/block_source.h"
#include "dataset/corpus_io.h"
#include "dataset/generator.h"
#include "dataset/importer.h"
#include "uarch/measurement.h"

namespace granite::bench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void Run(int argc, char** argv) {
  const Scale scale = ParseScale(argc, argv, {"--import-csv="});
  // The shard count always exceeds the random-access cache window, so
  // phase 3 measures genuine reload traffic in both run sizes.
  const std::size_t num_blocks = scale.quick ? 4000 : 25000;
  const std::size_t records_per_shard = scale.quick ? 512 : 1024;

  std::printf("== bench_dataset_io: corpus write/read/stream ==\n");
  std::printf("%zu blocks, %zu records/shard, %s run\n\n", num_blocks,
              records_per_shard, scale.quick ? "quick" : "full");

  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("bench_dataset_io_" + std::to_string(::getpid()) + ".gbc"))
          .string();

  dataset::SynthesisConfig synthesis;
  synthesis.num_blocks = num_blocks;
  synthesis.seed = 7;
  synthesis.generator.max_instructions = 8;

  // Phase 1: streaming synthesis straight to disk.
  {
    const Clock::time_point start = Clock::now();
    dataset::StreamingSynthesisOptions options;
    options.records_per_shard = records_per_shard;
    options.cache_shards = 2;
    const dataset::StreamingSynthesisSource source(synthesis, options);
    dataset::SaveCorpus(source, path, synthesis.tool, synthesis.seed,
                        records_per_shard);
    const double seconds = SecondsSince(start);
    const double mb = static_cast<double>(
                          std::filesystem::file_size(path)) /
                      (1024.0 * 1024.0);
    const double blocks_per_sec =
        static_cast<double>(num_blocks) / seconds;
    std::printf("synthesize+write: %8.0f blocks/s  %6.1f MB/s  "
                "(%.1f MB, %.2f s)\n",
                blocks_per_sec, mb / seconds, mb, seconds);
    RecordMetric("dataset_io.write.blocks_per_sec", blocks_per_sec);
    RecordMetric("dataset_io.write.mb_per_sec", mb / seconds);
    RecordMetric("dataset_io.corpus_mb", mb);
  }

  // Phase 2: sequential chunked read (checksum-verified full pass).
  {
    const Clock::time_point start = Clock::now();
    dataset::CorpusReader reader(path);
    std::vector<dataset::Sample> shard;
    std::size_t total = 0;
    std::size_t instructions = 0;
    while (reader.NextShard(&shard)) {
      total += shard.size();
      for (const dataset::Sample& sample : shard) {
        instructions += sample.block.instructions.size();
      }
    }
    const double seconds = SecondsSince(start);
    const double blocks_per_sec = static_cast<double>(total) / seconds;
    std::printf("sequential read:  %8.0f blocks/s  (%zu blocks, "
                "%zu instructions, %.2f s)\n",
                blocks_per_sec, total, instructions, seconds);
    RecordMetric("dataset_io.sequential_read.blocks_per_sec",
                 blocks_per_sec);
  }

  // Phase 3: sampling-style random access through a small LRU window.
  {
    dataset::StreamingCorpusOptions options;
    options.cache_shards = 4;
    const dataset::StreamingCorpusSource source(path, options);
    const std::size_t accesses = scale.quick ? 20000 : 100000;
    const Clock::time_point start = Clock::now();
    std::size_t instructions = 0;
    for (std::size_t i = 0; i < accesses; ++i) {
      // A large co-prime stride hops shards like shuffled sampling does.
      const dataset::SampleView view =
          source.Get((i * 7919) % source.size());
      instructions += view.block->instructions.size();
    }
    const double seconds = SecondsSince(start);
    const double blocks_per_sec =
        static_cast<double>(accesses) / seconds;
    std::printf("random access:    %8.0f blocks/s  (%zu gets, "
                "%zu shard loads, cache %zu shards)\n",
                blocks_per_sec, accesses, source.shard_loads(),
                options.cache_shards);
    RecordMetric("dataset_io.random_access.blocks_per_sec",
                 blocks_per_sec);
    RecordMetric("dataset_io.random_access.shard_loads",
                 static_cast<double>(source.shard_loads()));
  }

  // Phase 4a: CSV import throughput over a synthesized CSV (every row
  // goes through the parser + semantics classification + CorpusWriter).
  const std::string csv_path = path + ".csv";
  const std::string imported_path = path + ".imported.gbc";
  {
    {
      const dataset::StreamingCorpusSource source(path);
      std::ofstream csv(csv_path, std::ios::trunc);
      for (std::size_t i = 0; i < source.size(); ++i) {
        const dataset::SampleView view = source.Get(i);
        std::string block = view.block->ToString();
        for (char& c : block) {
          if (c == '\n') c = ';';
        }
        while (!block.empty() && block.back() == ';') block.pop_back();
        csv << '"' << block << "\"," << (*view.throughput)[0] << "\n";
      }
    }
    const Clock::time_point start = Clock::now();
    dataset::ImportOptions options;
    options.tool = dataset::SynthesisConfig{}.tool;
    options.records_per_shard = records_per_shard;
    const dataset::ImportStats stats =
        dataset::ImportBhiveCsv(csv_path, imported_path, options);
    const double seconds = SecondsSince(start);
    const double blocks_per_sec =
        static_cast<double>(stats.imported) / seconds;
    std::printf("csv import:       %8.0f blocks/s  (%llu rows, "
                "%llu rejected, %.2f s)\n",
                blocks_per_sec,
                static_cast<unsigned long long>(stats.rows),
                static_cast<unsigned long long>(stats.rejected()),
                seconds);
    RecordMetric("dataset_io.import.blocks_per_sec", blocks_per_sec);
    RecordMetric("dataset_io.import.reject_ppm",
                 static_cast<double>(stats.rejected_ppm()));
  }

  // Phase 4b: reject rate of the checked-in sample CSV — the
  // ISA-coverage canary compare_bench.py tracks across commits.
  {
    std::string sample_csv = "../tests/data/bhive_sample.csv";
    for (int i = 1; i < argc; ++i) {
      if (std::strncmp(argv[i], "--import-csv=", 13) == 0) {
        sample_csv = argv[i] + 13;
      }
    }
    std::error_code probe;
    if (std::filesystem::exists(sample_csv, probe)) {
      const dataset::ImportStats stats =
          dataset::ImportBhiveCsv(sample_csv, imported_path);
      std::printf("sample import:    %6.2f%% unparseable  (%llu / %llu "
                  "rows rejected, %s)\n",
                  100.0 * stats.reject_rate(),
                  static_cast<unsigned long long>(stats.rejected()),
                  static_cast<unsigned long long>(stats.rows),
                  sample_csv.c_str());
      RecordMetric("dataset_io.import.sample_reject_ppm",
                   static_cast<double>(stats.rejected_ppm()));
    } else {
      std::printf("sample import:    skipped (%s not found; pass "
                  "--import-csv=PATH)\n",
                  sample_csv.c_str());
    }
  }

  const double rss = base::PeakRssMb();
  if (rss > 0.0) {
    std::printf("peak RSS:         %8.1f MB (bounded by the shard "
                "window, not the corpus)\n",
                rss);
    RecordMetric("dataset_io.peak_rss_mb", rss);
  }

  // Phase 5: the canonical block text, after the peak-RSS reading so
  // its block set does not count against the shard-window bound. A
  // small block set is replayed for several passes so the timed loops
  // run long enough to resolve.
  {
    dataset::BlockGenerator generator(synthesis.generator, synthesis.seed);
    const std::vector<assembly::BasicBlock> blocks =
        generator.GenerateMany(1000);
    const int passes = scale.quick ? 20 : 100;
    const double items = static_cast<double>(blocks.size()) * passes;
    std::size_t checksum = 0;

    Clock::time_point start = Clock::now();
    for (int pass = 0; pass < passes; ++pass) {
      for (const assembly::BasicBlock& block : blocks) {
        checksum += block.ToString().size();
      }
    }
    const double print_ns = 1e9 * SecondsSince(start) / items;

    start = Clock::now();
    for (int pass = 0; pass < passes; ++pass) {
      for (const assembly::BasicBlock& block : blocks) {
        checksum += uarch::BlockFingerprint(block);
      }
    }
    const double fingerprint_ns = 1e9 * SecondsSince(start) / items;

    std::vector<std::string> texts;
    texts.reserve(blocks.size());
    for (const assembly::BasicBlock& block : blocks) {
      texts.push_back(block.ToString());
    }
    start = Clock::now();
    for (int pass = 0; pass < passes; ++pass) {
      for (const std::string& text : texts) {
        checksum += assembly::ParseBasicBlock(text).value->size();
      }
    }
    const double parse_us = 1e6 * SecondsSince(start) / items;

    const graph::Vocabulary vocabulary = graph::Vocabulary::CreateDefault();
    const core::GraniteModel model(
        &vocabulary, core::GraniteConfig().WithEmbeddingSize(8));
    constexpr std::size_t kEncodeBatch = 16;
    std::vector<const assembly::BasicBlock*> batch;
    start = Clock::now();
    for (int pass = 0; pass < passes; ++pass) {
      for (std::size_t first = 0; first < blocks.size();
           first += kEncodeBatch) {
        batch.clear();
        for (std::size_t i = first;
             i < std::min(blocks.size(), first + kEncodeBatch); ++i) {
          batch.push_back(&blocks[i]);
        }
        checksum += model.EncodeBlocks(batch).num_edges;
      }
    }
    const double encode_ns = 1e9 * SecondsSince(start) / items;

    double label_sum = 0.0;
    start = Clock::now();
    for (int pass = 0; pass < passes; ++pass) {
      for (const assembly::BasicBlock& block : blocks) {
        for (const double label :
             uarch::MeasureOnAllUarchs(block, synthesis.tool)) {
          label_sum += label;
        }
      }
    }
    const double label_us = 1e6 * SecondsSince(start) / items;

    std::printf("canonical text:   %6.0f ns print  %6.0f ns fingerprint  "
                "%6.2f us parse  %6.0f ns encode per block  (%zu blocks "
                "x %d, checksum %zx)\n",
                print_ns, fingerprint_ns, parse_us, encode_ns, blocks.size(),
                passes, checksum);
    std::printf("oracle labels:    %6.2f us per block, all %d "
                "microarchitectures  (label sum %.6g)\n",
                label_us, uarch::kNumMicroarchitectures, label_sum);
    RecordMetric("dataset_io.asm.print_ns_per_block", print_ns);
    RecordMetric("dataset_io.asm.fingerprint_ns_per_block", fingerprint_ns);
    RecordMetric("dataset_io.asm.parse_us_per_block", parse_us);
    RecordMetric("dataset_io.graph.encode_ns_per_block", encode_ns);
    RecordMetric("dataset_io.uarch.label_us_per_block", label_us);
  }

  std::error_code ignored;
  std::filesystem::remove(path, ignored);
  std::filesystem::remove(csv_path, ignored);
  std::filesystem::remove(imported_path, ignored);
  WriteMetricsJson();
}

}  // namespace
}  // namespace granite::bench

int main(int argc, char** argv) { granite::bench::Run(argc, argv); }
