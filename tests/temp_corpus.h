/**
 * @file
 * Shared corpus-file helpers for the corpus and streaming-equivalence
 * tests: an RAII temp corpus file, and a copy-out read of a whole file.
 */
#ifndef GRANITE_TESTS_TEMP_CORPUS_H_
#define GRANITE_TESTS_TEMP_CORPUS_H_

#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "dataset/corpus_io.h"

namespace granite::dataset {

/** Every sample of the corpus at `path`, in order, copied out of a
 * StreamingCorpusSource: the reader `train --dataset-file` uses. Throws
 * CorpusError like the source does. */
inline Dataset ReadStreamedCorpus(const std::string& path) {
  const StreamingCorpusSource source(path);
  std::vector<Sample> samples;
  samples.reserve(source.size());
  for (std::size_t i = 0; i < source.size(); ++i) {
    const SampleView view = source.Get(i);
    samples.push_back(Sample{*view.block, *view.throughput});
  }
  return Dataset(std::move(samples));
}

/** Writes `data` as a corpus under the system temp directory and
 * removes it on destruction (batch_pipeline_test,
 * parallel_trainer_test). */
class TempCorpus {
 public:
  TempCorpus(const Dataset& data, std::uint64_t records_per_shard,
             const std::string& prefix) {
    path_ = (std::filesystem::temp_directory_path() /
             (prefix + "_" +
              std::to_string(reinterpret_cast<std::uintptr_t>(this)) +
              ".gbc"))
                .string();
    SaveCorpus(data, path_, uarch::MeasurementTool::kIthemalTool, 0,
               records_per_shard);
  }

  ~TempCorpus() {
    std::error_code ignored;
    std::filesystem::remove(path_, ignored);
  }

  TempCorpus(const TempCorpus&) = delete;
  TempCorpus& operator=(const TempCorpus&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace granite::dataset

#endif  // GRANITE_TESTS_TEMP_CORPUS_H_
