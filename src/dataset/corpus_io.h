/**
 * @file
 * On-disk corpus format for labeled basic-block datasets.
 *
 * A corpus file is the dataset analogue of a checkpoint bundle
 * (model/checkpoint.h): one versioned, checksummed binary file holding a
 * labeled block corpus, so `granite_cli train` and `eval` can run on the
 * same real data instead of each re-synthesizing its own. The format is
 * sharded: records are grouped into fixed-size shards with a per-shard
 * byte length, so readers stream one shard at a time — a million-block
 * corpus never needs more than one shard of samples in memory.
 *
 * File layout (all integers little-endian host encoding):
 *   magic "GRNTCRPS" (8 bytes)
 *   u32 format version (kCorpusFormatVersion)
 *   u32 measurement tool (uarch::MeasurementTool value)
 *   u32 label count per record (uarch::kNumMicroarchitectures at write)
 *   u32 import rejected rate, parts per million (provenance; 0 for
 *       synthesized corpora — this field was reserved-zero before the
 *       importer existed, so old files read back as "no rejects")
 *   u64 generator seed (provenance metadata; 0 when unknown)
 *   u64 block count
 *   u64 records per shard
 *   u64 shard count
 *   per shard:
 *     u64 record count (== records per shard except the last shard)
 *     u64 payload byte length
 *     per record:
 *       u32 block text length, block text (assembly::BasicBlock::ToString;
 *           re-parsed on read — the parser round trip is bit-faithful)
 *       f64 throughput[label count] (bit-exact binary doubles)
 *   u64 FNV-1a checksum of every preceding byte (header through the last
 *   record)
 *
 * Corrupt, truncated, version-mismatched or structurally inconsistent
 * files raise CorpusError — never UB, never a partial dataset. All
 * length fields are bounds-checked before allocation.
 */
#ifndef GRANITE_DATASET_CORPUS_IO_H_
#define GRANITE_DATASET_CORPUS_IO_H_

#include <array>
#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "dataset/block_source.h"
#include "dataset/dataset.h"

namespace granite::dataset {

/** Raised for any unreadable, corrupt, truncated, version-mismatched or
 * structurally inconsistent corpus file. */
class CorpusError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/** The 8-byte corpus magic ("GRNTCRPS", no terminator). */
inline constexpr std::array<char, 8> kCorpusMagic = {'G', 'R', 'N', 'T',
                                                     'C', 'R', 'P', 'S'};

/** Current corpus format version; bump on incompatible layout changes. */
inline constexpr std::uint32_t kCorpusFormatVersion = 1;

/** Default shard granularity (records per shard). */
inline constexpr std::uint64_t kDefaultRecordsPerShard = 4096;

/** Parsed corpus header: everything `dataset inspect` reports without
 * touching a record. */
struct CorpusHeader {
  std::uint32_t version = kCorpusFormatVersion;
  uarch::MeasurementTool tool = uarch::MeasurementTool::kIthemalTool;
  std::uint32_t num_labels = uarch::kNumMicroarchitectures;
  /** Provenance: the synthesis seed, 0 when unknown/not synthesized. */
  std::uint64_t generator_seed = 0;
  /** Provenance: unparseable-block rate of the import that produced this
   * corpus, in rejected rows per million CSV data rows (0..1000000).
   * Always 0 for synthesized corpora. */
  std::uint32_t import_rejected_ppm = 0;
  std::uint64_t num_blocks = 0;
  std::uint64_t records_per_shard = kDefaultRecordsPerShard;
  std::uint64_t num_shards = 0;
};

/**
 * Streaming corpus writer: Append() samples one at a time, then
 * Finish(). Buffers at most one shard of encoded bytes, so writing a
 * million-block corpus uses O(shard) memory. Finish() back-patches the
 * final counts into the header and appends the whole-file checksum
 * (one extra sequential read pass over the file, constant memory).
 * Destroying an unfinished writer leaves the file invalid on purpose —
 * readers reject it — so a crashed producer cannot pass for a corpus.
 */
class CorpusWriter {
 public:
  /** Opens `path` for writing. `tool` and `generator_seed` are recorded
   * as provenance metadata. Throws CorpusError when the file cannot be
   * created or `records_per_shard` is zero. */
  CorpusWriter(const std::string& path, uarch::MeasurementTool tool,
               std::uint64_t generator_seed,
               std::uint64_t records_per_shard = kDefaultRecordsPerShard);

  ~CorpusWriter();

  CorpusWriter(const CorpusWriter&) = delete;
  CorpusWriter& operator=(const CorpusWriter&) = delete;

  /** Appends one labeled sample. Throws CorpusError on write failure or
   * after Finish(). */
  void Append(const Sample& sample);

  /** Flushes the tail shard, finalizes header and checksum. Throws
   * CorpusError on IO failure. Must be called exactly once. */
  void Finish();

  /** Records the importer's unparseable-block rate (rejected rows per
   * million CSV data rows) as provenance; back-patched into the header by
   * Finish(), so call before it. Throws CorpusError when `ppm` exceeds
   * one million. */
  void set_import_rejected_ppm(std::uint32_t ppm);

  std::uint64_t blocks_written() const { return blocks_written_; }

 private:
  void FlushShard();

  std::string path_;
  std::ofstream file_;
  std::uint64_t records_per_shard_;
  uarch::MeasurementTool tool_;
  std::uint64_t generator_seed_;
  std::uint32_t import_rejected_ppm_ = 0;
  std::uint64_t blocks_written_ = 0;
  std::uint64_t shards_written_ = 0;
  std::uint64_t shard_records_ = 0;
  std::string shard_buffer_;
  bool finished_ = false;
};

/** Writes all of `source` as a corpus at `path` (streaming; one shard of
 * bytes plus the source's own window in memory). */
void SaveCorpus(const BlockSource& source, const std::string& path,
                uarch::MeasurementTool tool, std::uint64_t generator_seed,
                std::uint64_t records_per_shard = kDefaultRecordsPerShard);

/** Reads and validates only the header of `path` (no record is read):
 * the `dataset inspect` entry point. Throws CorpusError. */
CorpusHeader ReadCorpusHeader(const std::string& path);

/**
 * Sequential chunked reader: yields one shard of samples at a time and
 * never holds more than that. The checksum accumulates as shards are
 * consumed and is verified when the last shard has been read, so a full
 * sequential pass detects any bit flip in the file.
 */
class CorpusReader {
 public:
  /** Opens `path` and validates the header. Throws CorpusError. */
  explicit CorpusReader(const std::string& path);

  const CorpusHeader& header() const { return header_; }

  /**
   * Reads the next shard into `shard` (replacing its contents). Returns
   * false when all shards have been consumed — at which point the
   * whole-file checksum has been verified. Throws CorpusError on any
   * corruption, including a checksum mismatch or trailing bytes.
   */
  bool NextShard(std::vector<Sample>* shard);

 private:
  std::string path_;
  std::ifstream file_;
  CorpusHeader header_;
  /** Bytes from the read position to the end of the file. */
  std::uint64_t bytes_left_ = 0;
  std::uint64_t shards_read_ = 0;
  std::uint64_t checksum_;
  bool done_ = false;
};

/** Loads an entire corpus into memory through the chunked reader
 * (checksum-verified). Prefer StreamingCorpusSource for large files. */
Dataset LoadCorpus(const std::string& path);

/** Tuning of a file-backed streaming source. */
struct StreamingCorpusOptions {
  /** Shards kept resident (LRU). */
  std::size_t cache_shards = 8;
};

/**
 * Random-access BlockSource over a corpus file: an index of shard
 * offsets is built at open, shards are parsed on demand and at most
 * `cache_shards` stay resident. Get() pins the backing shard, so views
 * survive eviction. Thread-safe.
 */
class StreamingCorpusSource : public ShardedBlockSource {
 public:
  /** Opens and validates `path`, verifying the whole-file checksum in
   * one sequential pass (constant memory): random shard access could not
   * verify it later. Throws CorpusError. */
  explicit StreamingCorpusSource(const std::string& path,
                                 const StreamingCorpusOptions& options = {});

  std::size_t size() const override {
    return static_cast<std::size_t>(header_.num_blocks);
  }

  const CorpusHeader& header() const { return header_; }

 protected:
  std::vector<Sample> LoadShard(std::size_t shard_index) const override;

 private:
  /** Everything Open() must produce before the base class (which needs
   * the shard size) can be constructed. */
  struct OpenState {
    std::ifstream file;
    CorpusHeader header;
    std::uint64_t file_size = 0;
    std::vector<std::uint64_t> shard_offsets;
  };

  static OpenState Open(const std::string& path);

  StreamingCorpusSource(OpenState state, const std::string& path,
                        std::size_t cache_shards);

  std::string path_;
  mutable std::ifstream file_;
  CorpusHeader header_;
  std::uint64_t file_size_;
  /** Byte offset of each shard's record-count field. */
  std::vector<std::uint64_t> shard_offsets_;
};

}  // namespace granite::dataset

#endif  // GRANITE_DATASET_CORPUS_IO_H_
