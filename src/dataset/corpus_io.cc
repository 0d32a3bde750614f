#include "dataset/corpus_io.h"

#include <cstring>
#include <utility>

#include "asm/parser.h"
#include "base/logging.h"
#include "base/string_util.h"

namespace granite::dataset {
namespace {

// Sanity bounds rejecting absurd length fields before any allocation, so
// a corrupt field raises CorpusError instead of bad_alloc.
constexpr std::uint64_t kMaxBlockTextBytes = 1ull << 20;
constexpr std::uint64_t kMaxRecordsPerShard = 1ull << 24;
constexpr std::uint64_t kMaxBlocks = 1ull << 36;

/** Fixed header size in bytes: magic + 4 u32 fields + 4 u64 fields. */
constexpr std::uint64_t kHeaderBytes = 8 + 4 * 4 + 4 * 8;

template <typename T>
void AppendScalar(std::string& buffer, T value) {
  buffer.append(reinterpret_cast<const char*>(&value), sizeof(value));
}

template <typename T>
T ScalarAt(const std::string& buffer, std::size_t offset) {
  T value{};
  std::memcpy(&value, buffer.data() + offset, sizeof(value));
  return value;
}

/** Serialized fixed-size header. */
std::string EncodeHeader(const CorpusHeader& header) {
  std::string bytes;
  bytes.reserve(kHeaderBytes);
  bytes.append(kCorpusMagic.data(), kCorpusMagic.size());
  AppendScalar<std::uint32_t>(bytes, header.version);
  AppendScalar<std::uint32_t>(bytes,
                              static_cast<std::uint32_t>(header.tool));
  AppendScalar<std::uint32_t>(bytes, header.num_labels);
  AppendScalar<std::uint32_t>(bytes, header.import_rejected_ppm);
  AppendScalar<std::uint64_t>(bytes, header.generator_seed);
  AppendScalar<std::uint64_t>(bytes, header.num_blocks);
  AppendScalar<std::uint64_t>(bytes, header.records_per_shard);
  AppendScalar<std::uint64_t>(bytes, header.num_shards);
  GRANITE_CHECK_EQ(bytes.size(), kHeaderBytes);
  return bytes;
}

/** Parses and validates the fixed-size header bytes. */
CorpusHeader DecodeHeader(const std::string& bytes,
                          const std::string& path) {
  GRANITE_CHECK_EQ(bytes.size(), kHeaderBytes);
  if (std::memcmp(bytes.data(), kCorpusMagic.data(), kCorpusMagic.size()) !=
      0) {
    throw CorpusError("not a GRANITE corpus (bad magic): " + path);
  }
  CorpusHeader header;
  header.version = ScalarAt<std::uint32_t>(bytes, 8);
  if (header.version != kCorpusFormatVersion) {
    throw CorpusError("unsupported corpus version " +
                      std::to_string(header.version) +
                      " (this build reads version " +
                      std::to_string(kCorpusFormatVersion) + "): " + path);
  }
  const std::uint32_t tool = ScalarAt<std::uint32_t>(bytes, 12);
  if (tool >
      static_cast<std::uint32_t>(uarch::MeasurementTool::kBHiveTool)) {
    throw CorpusError("corrupt corpus (unknown measurement tool " +
                      std::to_string(tool) + "): " + path);
  }
  header.tool = static_cast<uarch::MeasurementTool>(tool);
  header.num_labels = ScalarAt<std::uint32_t>(bytes, 16);
  if (header.num_labels !=
      static_cast<std::uint32_t>(uarch::kNumMicroarchitectures)) {
    throw CorpusError(
        "corpus label count mismatch (file has " +
        std::to_string(header.num_labels) + " per record, this build has " +
        std::to_string(uarch::kNumMicroarchitectures) +
        " microarchitectures): " + path);
  }
  header.import_rejected_ppm = ScalarAt<std::uint32_t>(bytes, 20);
  if (header.import_rejected_ppm > 1000000) {
    throw CorpusError("corrupt corpus (import rejected rate " +
                      std::to_string(header.import_rejected_ppm) +
                      " ppm exceeds one million): " + path);
  }
  header.generator_seed = ScalarAt<std::uint64_t>(bytes, 24);
  header.num_blocks = ScalarAt<std::uint64_t>(bytes, 32);
  header.records_per_shard = ScalarAt<std::uint64_t>(bytes, 40);
  header.num_shards = ScalarAt<std::uint64_t>(bytes, 48);
  if (header.num_blocks > kMaxBlocks) {
    throw CorpusError("corrupt corpus (absurd block count " +
                      std::to_string(header.num_blocks) + "): " + path);
  }
  if (header.records_per_shard == 0 ||
      header.records_per_shard > kMaxRecordsPerShard) {
    throw CorpusError("corrupt corpus (bad records-per-shard " +
                      std::to_string(header.records_per_shard) +
                      "): " + path);
  }
  const std::uint64_t expected_shards =
      (header.num_blocks + header.records_per_shard - 1) /
      header.records_per_shard;
  if (header.num_shards != expected_shards) {
    throw CorpusError(
        "corrupt corpus (shard count " + std::to_string(header.num_shards) +
        " does not match " + std::to_string(header.num_blocks) +
        " blocks at " + std::to_string(header.records_per_shard) +
        " records/shard): " + path);
  }
  return header;
}

/** Encoded byte size of one record's fixed part (text length field plus
 * the label doubles). */
std::uint64_t RecordOverheadBytes(std::uint32_t num_labels) {
  return 4 + 8ull * num_labels;
}

/** Reads exactly `size` bytes or throws. */
void ReadExact(std::istream& file, char* data, std::uint64_t size,
               const char* what, const std::string& path) {
  file.read(data, static_cast<std::streamsize>(size));
  if (static_cast<std::uint64_t>(file.gcount()) != size) {
    throw CorpusError("truncated corpus (" + std::string(what) +
                      "): " + path);
  }
}

/** A shard's 16-byte prelude: record count and payload byte length. */
struct ShardPrelude {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};

/**
 * Reads the prelude of shard `index` at the read position of `file` and
 * validates it against the header and the `bytes_left` bytes from that
 * position to the end of the file: the prelude, its payload and the
 * 8-byte checksum trailer must all fit. Folds the prelude bytes into
 * `checksum` unless it is null.
 */
ShardPrelude ReadShardPrelude(std::istream& file, const CorpusHeader& header,
                              std::uint64_t index, std::uint64_t bytes_left,
                              const std::string& path,
                              std::uint64_t* checksum = nullptr) {
  if (bytes_left < 16 + 8) {
    throw CorpusError("truncated corpus (shard " + std::to_string(index) +
                      " prelude): " + path);
  }
  char raw[16];
  ReadExact(file, raw, sizeof(raw), "shard prelude", path);
  if (checksum != nullptr) *checksum = Fnv1a(*checksum, {raw, sizeof(raw)});
  ShardPrelude prelude;
  std::memcpy(&prelude.count, raw, 8);
  std::memcpy(&prelude.bytes, raw + 8, 8);
  const std::uint64_t expected_count =
      std::min(header.records_per_shard,
               header.num_blocks - index * header.records_per_shard);
  if (prelude.count != expected_count) {
    throw CorpusError("corrupt corpus (shard " + std::to_string(index) +
                      " holds " + std::to_string(prelude.count) +
                      " records, " + std::to_string(expected_count) +
                      " expected): " + path);
  }
  const std::uint64_t record_bytes = RecordOverheadBytes(header.num_labels);
  if (prelude.bytes < prelude.count * record_bytes ||
      prelude.bytes > prelude.count * (record_bytes + kMaxBlockTextBytes) ||
      prelude.bytes > bytes_left - 16 - 8) {
    throw CorpusError("corrupt corpus (shard " + std::to_string(index) +
                      " payload length " + std::to_string(prelude.bytes) +
                      " inconsistent): " + path);
  }
  return prelude;
}

/** Decodes one shard payload into samples. */
std::vector<Sample> ParseShardPayload(const std::string& buffer,
                                      std::uint64_t count,
                                      std::uint32_t num_labels,
                                      const std::string& path) {
  std::vector<Sample> samples;
  samples.reserve(count);
  std::size_t cursor = 0;
  const auto need = [&](std::uint64_t bytes, const char* what) {
    if (buffer.size() - cursor < bytes) {
      throw CorpusError("corrupt corpus (truncated " + std::string(what) +
                        " in shard payload): " + path);
    }
  };
  for (std::uint64_t i = 0; i < count; ++i) {
    need(4, "block text length");
    std::uint32_t text_length = 0;
    std::memcpy(&text_length, buffer.data() + cursor, 4);
    cursor += 4;
    if (text_length > kMaxBlockTextBytes) {
      throw CorpusError("corrupt corpus (oversized block text): " + path);
    }
    need(text_length, "block text");
    const std::string_view text(buffer.data() + cursor, text_length);
    cursor += text_length;
    auto parsed = assembly::ParseBasicBlock(text);
    if (!parsed.ok()) {
      throw CorpusError("corrupt corpus (unparseable block: " +
                        parsed.error + "): " + path);
    }
    Sample sample;
    sample.block = std::move(*parsed.value);
    need(8ull * num_labels, "labels");
    for (std::uint32_t label = 0; label < num_labels; ++label) {
      double value = 0.0;
      std::memcpy(&value, buffer.data() + cursor, 8);
      cursor += 8;
      sample.throughput[label] = value;
    }
    samples.push_back(std::move(sample));
  }
  if (cursor != buffer.size()) {
    throw CorpusError("corrupt corpus (trailing bytes in shard payload): " +
                      path);
  }
  return samples;
}

/** Reads the header of the just-opened `file` and returns (validated
 * header, file size). Folds the header bytes into `checksum` unless it is
 * null. */
std::pair<CorpusHeader, std::uint64_t> OpenAndReadHeader(
    std::ifstream& file, const std::string& path,
    std::uint64_t* checksum = nullptr) {
  if (!file.is_open()) {
    throw CorpusError("cannot read corpus: " + path);
  }
  file.seekg(0, std::ios::end);
  const std::uint64_t file_size =
      static_cast<std::uint64_t>(file.tellg());
  file.seekg(0);
  if (file_size < kHeaderBytes + 8) {
    throw CorpusError("truncated corpus (no room for header): " + path);
  }
  std::string header_bytes(kHeaderBytes, '\0');
  ReadExact(file, header_bytes.data(), kHeaderBytes, "header", path);
  if (checksum != nullptr) *checksum = Fnv1a(*checksum, header_bytes);
  return {DecodeHeader(header_bytes, path), file_size};
}

/**
 * Seek-walks the shard table (no payload is read) and returns the byte
 * offset of every shard prelude, validating structural consistency:
 * record counts, payload lengths, and that exactly the 8-byte checksum
 * trailer follows the last shard.
 */
std::vector<std::uint64_t> BuildShardIndex(std::ifstream& file,
                                           const CorpusHeader& header,
                                           std::uint64_t file_size,
                                           const std::string& path) {
  std::vector<std::uint64_t> offsets;
  offsets.reserve(header.num_shards);
  std::uint64_t cursor = kHeaderBytes;
  for (std::uint64_t shard = 0; shard < header.num_shards; ++shard) {
    offsets.push_back(cursor);
    file.seekg(static_cast<std::streamoff>(cursor));
    const ShardPrelude prelude =
        ReadShardPrelude(file, header, shard, file_size - cursor, path);
    cursor += 16 + prelude.bytes;
  }
  if (cursor + 8 != file_size) {
    throw CorpusError(
        "corrupt corpus (trailing bytes after the last shard): " + path);
  }
  return offsets;
}

/** FNV-1a of the first `size` bytes of `file`, read from its start in
 * 64 KiB chunks (constant memory). */
std::uint64_t ChecksumPrefix(std::istream& file, std::uint64_t size,
                             const std::string& path) {
  file.clear();
  file.seekg(0);
  std::uint64_t checksum = kFnvOffsetBasis;
  std::vector<char> buffer(1 << 16);
  while (size > 0) {
    const std::uint64_t chunk = std::min<std::uint64_t>(size, buffer.size());
    ReadExact(file, buffer.data(), chunk, "checksum pass", path);
    checksum = Fnv1a(checksum, {buffer.data(), chunk});
    size -= chunk;
  }
  return checksum;
}

/** Streams the whole file, verifying the trailer checksum. */
void VerifyWholeFileChecksum(std::ifstream& file, std::uint64_t file_size,
                             const std::string& path) {
  const std::uint64_t checksum = ChecksumPrefix(file, file_size - 8, path);
  std::uint64_t stored = 0;
  ReadExact(file, reinterpret_cast<char*>(&stored), 8, "checksum", path);
  if (stored != checksum) {
    throw CorpusError("corrupt corpus (checksum mismatch): " + path);
  }
}

}  // namespace

CorpusWriter::CorpusWriter(const std::string& path,
                           uarch::MeasurementTool tool,
                           std::uint64_t generator_seed,
                           std::uint64_t records_per_shard)
    : path_(path),
      file_(path, std::ios::binary | std::ios::trunc),
      records_per_shard_(records_per_shard),
      tool_(tool),
      generator_seed_(generator_seed) {
  if (!file_.is_open()) {
    throw CorpusError("cannot write corpus: " + path);
  }
  if (records_per_shard == 0 || records_per_shard > kMaxRecordsPerShard) {
    throw CorpusError("invalid records-per-shard " +
                      std::to_string(records_per_shard) + ": " + path);
  }
  // Placeholder header; Finish() back-patches the final counts.
  CorpusHeader header;
  header.tool = tool_;
  header.generator_seed = generator_seed_;
  header.records_per_shard = records_per_shard_;
  const std::string bytes = EncodeHeader(header);
  file_.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

CorpusWriter::~CorpusWriter() = default;

void CorpusWriter::set_import_rejected_ppm(std::uint32_t ppm) {
  if (ppm > 1000000) {
    throw CorpusError("import rejected rate " + std::to_string(ppm) +
                      " ppm exceeds one million: " + path_);
  }
  import_rejected_ppm_ = ppm;
}

void CorpusWriter::Append(const Sample& sample) {
  if (finished_) {
    throw CorpusError("append after Finish: " + path_);
  }
  // The text goes straight into the shard buffer behind a length slot
  // that is patched once the text's size is known.
  const std::size_t length_at = shard_buffer_.size();
  AppendScalar<std::uint32_t>(shard_buffer_, 0);
  sample.block.AppendTo(shard_buffer_);
  const std::size_t text_size =
      shard_buffer_.size() - length_at - sizeof(std::uint32_t);
  if (text_size > kMaxBlockTextBytes) {
    shard_buffer_.resize(length_at);
    throw CorpusError("block text exceeds the format limit: " + path_);
  }
  const auto length = static_cast<std::uint32_t>(text_size);
  std::memcpy(shard_buffer_.data() + length_at, &length, sizeof(length));
  for (int label = 0; label < uarch::kNumMicroarchitectures; ++label) {
    AppendScalar<double>(shard_buffer_, sample.throughput[label]);
  }
  ++shard_records_;
  ++blocks_written_;
  if (shard_records_ == records_per_shard_) FlushShard();
}

void CorpusWriter::FlushShard() {
  if (shard_records_ == 0) return;
  std::string prelude;
  AppendScalar<std::uint64_t>(prelude, shard_records_);
  AppendScalar<std::uint64_t>(prelude, shard_buffer_.size());
  file_.write(prelude.data(), static_cast<std::streamsize>(prelude.size()));
  file_.write(shard_buffer_.data(),
              static_cast<std::streamsize>(shard_buffer_.size()));
  ++shards_written_;
  shard_records_ = 0;
  shard_buffer_.clear();
}

void CorpusWriter::Finish() {
  if (finished_) {
    throw CorpusError("Finish called twice: " + path_);
  }
  FlushShard();
  file_.flush();
  if (!file_.good()) {
    throw CorpusError("write failed for corpus: " + path_);
  }
  file_.close();
  finished_ = true;

  // Back-patch the header with the final counts, then append the
  // whole-file checksum: one sequential re-read pass, constant memory.
  CorpusHeader header;
  header.tool = tool_;
  header.generator_seed = generator_seed_;
  header.import_rejected_ppm = import_rejected_ppm_;
  header.num_blocks = blocks_written_;
  header.records_per_shard = records_per_shard_;
  header.num_shards = shards_written_;
  std::fstream patch(path_, std::ios::in | std::ios::out | std::ios::binary);
  if (!patch.is_open()) {
    throw CorpusError("cannot finalize corpus: " + path_);
  }
  const std::string bytes = EncodeHeader(header);
  patch.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  patch.flush();

  patch.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(patch.tellg());
  const std::uint64_t checksum = ChecksumPrefix(patch, file_size, path_);
  patch.seekp(0, std::ios::end);
  patch.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  patch.flush();
  if (!patch.good()) {
    throw CorpusError("write failed finalizing corpus: " + path_);
  }
}

void SaveCorpus(const BlockSource& source, const std::string& path,
                uarch::MeasurementTool tool, std::uint64_t generator_seed,
                std::uint64_t records_per_shard) {
  CorpusWriter writer(path, tool, generator_seed, records_per_shard);
  for (std::size_t i = 0; i < source.size(); ++i) {
    const SampleView view = source.Get(i);
    Sample sample;
    sample.block = *view.block;
    sample.throughput = *view.throughput;
    writer.Append(sample);
  }
  writer.Finish();
}

CorpusHeader ReadCorpusHeader(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  const auto [header, file_size] = OpenAndReadHeader(file, path);
  // Structural validation (seeks only): a half-written file must not
  // pass for an empty or truncated-but-valid corpus.
  BuildShardIndex(file, header, file_size, path);
  return header;
}

CorpusReader::CorpusReader(const std::string& path)
    : path_(path),
      file_(path, std::ios::binary),
      checksum_(kFnvOffsetBasis) {
  const auto [header, file_size] = OpenAndReadHeader(file_, path, &checksum_);
  header_ = header;
  bytes_left_ = file_size - kHeaderBytes;
}

bool CorpusReader::NextShard(std::vector<Sample>* shard) {
  GRANITE_CHECK(shard != nullptr);
  if (done_) return false;
  if (shards_read_ == header_.num_shards) {
    // All shards consumed: the trailer must match the running checksum
    // and end the file.
    std::uint64_t stored = 0;
    ReadExact(file_, reinterpret_cast<char*>(&stored), 8, "checksum",
              path_);
    if (stored != checksum_) {
      throw CorpusError("corrupt corpus (checksum mismatch): " + path_);
    }
    file_.peek();
    if (!file_.eof()) {
      throw CorpusError("corrupt corpus (trailing bytes after checksum): " +
                        path_);
    }
    done_ = true;
    return false;
  }
  const ShardPrelude prelude = ReadShardPrelude(
      file_, header_, shards_read_, bytes_left_, path_, &checksum_);
  bytes_left_ -= 16 + prelude.bytes;
  std::string payload(prelude.bytes, '\0');
  ReadExact(file_, payload.data(), prelude.bytes, "shard payload", path_);
  checksum_ = Fnv1a(checksum_, payload);
  *shard = ParseShardPayload(payload, prelude.count, header_.num_labels,
                             path_);
  ++shards_read_;
  return true;
}

Dataset LoadCorpus(const std::string& path) {
  CorpusReader reader(path);
  std::vector<Sample> samples;
  samples.reserve(reader.header().num_blocks);
  std::vector<Sample> shard;
  while (reader.NextShard(&shard)) {
    for (Sample& sample : shard) samples.push_back(std::move(sample));
  }
  return Dataset(std::move(samples));
}

StreamingCorpusSource::OpenState StreamingCorpusSource::Open(
    const std::string& path) {
  OpenState state;
  state.file.open(path, std::ios::binary);
  const auto [header, file_size] = OpenAndReadHeader(state.file, path);
  state.header = header;
  state.file_size = file_size;
  state.shard_offsets =
      BuildShardIndex(state.file, state.header, file_size, path);
  VerifyWholeFileChecksum(state.file, file_size, path);
  return state;
}

StreamingCorpusSource::StreamingCorpusSource(
    const std::string& path, const StreamingCorpusOptions& options)
    : StreamingCorpusSource(Open(path), path, options.cache_shards) {}

StreamingCorpusSource::StreamingCorpusSource(OpenState state,
                                             const std::string& path,
                                             std::size_t cache_shards)
    : ShardedBlockSource(
          static_cast<std::size_t>(state.header.records_per_shard),
          cache_shards),
      path_(path),
      file_(std::move(state.file)),
      header_(state.header),
      file_size_(state.file_size),
      shard_offsets_(std::move(state.shard_offsets)) {}

std::vector<Sample> StreamingCorpusSource::LoadShard(
    std::size_t shard_index) const {
  GRANITE_CHECK_LT(shard_index, shard_offsets_.size());
  file_.clear();
  const std::uint64_t offset = shard_offsets_[shard_index];
  file_.seekg(static_cast<std::streamoff>(offset));
  // Open validated every prelude, so one that fails now means the file
  // changed under us.
  ShardPrelude prelude;
  try {
    prelude = ReadShardPrelude(file_, header_, shard_index,
                               file_size_ - offset, path_);
  } catch (const CorpusError&) {
    throw CorpusError("corpus changed while streaming: " + path_);
  }
  std::string payload(prelude.bytes, '\0');
  ReadExact(file_, payload.data(), prelude.bytes, "shard payload", path_);
  return ParseShardPayload(payload, prelude.count, header_.num_labels, path_);
}

}  // namespace granite::dataset
