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
 * length fields are bounds-checked before allocation. A record whose
 * block parses but that assembly::CheckEncodable refuses is corrupt too,
 * so no record a reader returns can abort the graph encoder.
 *
 * CorpusReader's sequential pass is the one definition of a valid
 * corpus: it decodes and checks every record, then the checksum and the
 * end of the file. StreamingCorpusSource opens by running that pass, so
 * the two readers accept and refuse exactly the same files, with the
 * same messages.
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

/** Parsed corpus header: the fields `dataset inspect` reports. */
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
 * Finish(). Append() reads each record through a view, so a caller
 * passes a BlockSource's views (or a Sample, which converts to one)
 * without copying the block. Buffers at most one shard of encoded bytes,
 * so writing a million-block corpus uses O(shard) memory. Finish()
 * back-patches the final counts into the header and appends the
 * whole-file checksum (one extra sequential read pass over the file,
 * constant memory).
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

  /** Appends the block and labels `sample` points at. Throws CorpusError
   * on write failure or after Finish(). */
  void Append(const SampleView& sample);

  /** Flushes the tail shard, finalizes header and checksum. Throws
   * CorpusError on IO failure. Must be called exactly once. */
  void Finish();

  /** Records the importer's unparseable-block rate (rejected rows per
   * million CSV data rows) as provenance; back-patched into the header by
   * Finish(), so call before it. Throws CorpusError when `ppm` exceeds
   * one million. */
  void set_import_rejected_ppm(std::uint32_t ppm);

  std::uint64_t blocks_written() const { return header_.num_blocks; }

 private:
  void FlushShard();

  std::string path_;
  std::ofstream file_;
  /** Written as a placeholder at construction; Finish() writes it again
   * with the final counts. */
  CorpusHeader header_;
  std::uint64_t shard_records_ = 0;
  std::string shard_buffer_;
  bool finished_ = false;
};

/** Writes all of `source` as a corpus at `path` (streaming; one shard of
 * bytes plus the source's own window in memory). */
void SaveCorpus(const BlockSource& source, const std::string& path,
                uarch::MeasurementTool tool, std::uint64_t generator_seed,
                std::uint64_t records_per_shard = kDefaultRecordsPerShard);

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

  /**
   * Reads the next shard into `shard` (replacing its contents). Returns
   * false when all shards have been consumed — at which point the
   * whole-file checksum has been verified. Throws CorpusError on any
   * corruption, including a checksum mismatch or trailing bytes.
   */
  bool NextShard(std::vector<Sample>* shard);

 private:
  /** Its open pass is this reader's pass. */
  friend class StreamingCorpusSource;

  std::string path_;
  std::ifstream file_;
  CorpusHeader header_;
  /** Bytes from the read position to the end of the file. */
  std::uint64_t bytes_left_ = 0;
  std::uint64_t shards_read_ = 0;
  std::uint64_t checksum_;
  bool done_ = false;
};

/** Tuning of a file-backed streaming source. */
struct StreamingCorpusOptions {
  /** Shards kept resident (LRU). */
  std::size_t cache_shards = 8;
};

/**
 * Random-access BlockSource over a corpus file. Opening runs one
 * CorpusReader to the end: it decodes and checks every record and the
 * checksum, records each shard's byte offset, and keeps each decoded
 * shard in the LRU window (counted in shard_loads()), so the last
 * `cache_shards` shards stay resident and a corpus that fits the window
 * is never decoded twice. A larger corpus decodes its early shards
 * again when they are used. Get() pins the backing shard, so views
 * survive eviction. Thread-safe.
 */
class StreamingCorpusSource : public ShardedBlockSource {
 public:
  /** Opens `path` and validates all of it (one sequential pass, one
   * shard of samples beyond the window in memory). Throws CorpusError;
   * Get() throws it only when the file changes after open. */
  explicit StreamingCorpusSource(const std::string& path,
                                 const StreamingCorpusOptions& options = {});

  std::size_t size() const override {
    return static_cast<std::size_t>(header_.num_blocks);
  }

  const CorpusHeader& header() const { return header_; }

 protected:
  std::vector<Sample> LoadShard(std::size_t shard_index) const override;

 private:
  /** Runs the just-opened `reader` to the end (the base class needs its
   * header's shard size first). */
  StreamingCorpusSource(CorpusReader reader, std::size_t cache_shards);

  std::string path_;
  /** The reader's handle, reused by LoadShard. */
  mutable std::ifstream file_;
  CorpusHeader header_;
  /** Byte offset of each shard's prelude, then of the checksum. */
  std::vector<std::uint64_t> shard_offsets_;
};

}  // namespace granite::dataset

#endif  // GRANITE_DATASET_CORPUS_IO_H_
