#include "model/checkpoint.h"

#include <cstring>
#include <fstream>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "base/string_util.h"
#include "core/granite_model.h"
#include "graph/vocabulary.h"
#include "ithemal/ithemal_model.h"
#include "ml/tensor.h"
#include "model/config_io.h"

namespace granite::model {
namespace {

// Sanity bounds rejecting absurd sizes before any allocation, so a
// corrupt length field raises CheckpointError instead of bad_alloc.
constexpr std::uint64_t kMaxStringBytes = 1ull << 20;
constexpr std::uint64_t kMaxTokens = 1ull << 22;
constexpr std::uint64_t kMaxParameters = 1ull << 20;
constexpr std::uint64_t kMaxTensorElements = 1ull << 28;

/** One tensor's name and shape, as stored ahead of its values. */
struct TensorHeader {
  std::string name;
  std::int32_t rows = 0;
  std::int32_t cols = 0;
};

class BundleWriter {
 public:
  BundleWriter(const std::string& path)
      : path_(path), file_(path, std::ios::binary | std::ios::trunc) {
    if (!file_.is_open()) {
      throw CheckpointError("cannot write checkpoint bundle: " + path);
    }
  }

  /** Every written byte feeds the running checksum, so the trailer
   * covers the whole bundle — kind, config and vocabulary included, not
   * just the parameter payload. */
  void WriteRaw(const char* data, std::size_t size) {
    file_.write(data, static_cast<std::streamsize>(size));
    checksum_ = Fnv1a(checksum_, {data, size});
  }

  template <typename T>
  void WriteScalar(T value) {
    WriteRaw(reinterpret_cast<const char*>(&value), sizeof(value));
  }

  void WriteString(std::string_view value) {
    WriteScalar<std::uint64_t>(value.size());
    WriteRaw(value.data(), value.size());
  }

  /** Appends the checksum trailer (not part of its own coverage) and
   * verifies the stream. */
  void FinishWithChecksum() {
    const std::uint64_t checksum = checksum_;
    file_.write(reinterpret_cast<const char*>(&checksum),
                sizeof(checksum));
    file_.flush();
    if (!file_.good()) {
      throw CheckpointError("write failed for checkpoint bundle: " + path_);
    }
  }

 private:
  std::string path_;
  std::ofstream file_;
  std::uint64_t checksum_ = kFnvOffsetBasis;
};

/**
 * Reads a bundle front to back for LoadModel: the format checks — magic,
 * version, string and vocabulary-size bounds, tensor-shape bounds, the
 * end of the file — and the running checksum live here.
 */
class BundleReader {
 public:
  BundleReader(const std::string& path)
      : path_(path), file_(path, std::ios::binary) {
    if (!file_.is_open()) {
      throw CheckpointError("cannot read checkpoint bundle: " + path);
    }
  }

  /** Mirrors BundleWriter::WriteRaw: every consumed byte feeds the
   * running checksum. */
  void ReadRaw(char* data, std::size_t size, const char* what) {
    file_.read(data, static_cast<std::streamsize>(size));
    if (static_cast<std::size_t>(file_.gcount()) != size) {
      throw CheckpointError("truncated checkpoint bundle (" +
                            std::string(what) + "): " + path_);
    }
    checksum_ = Fnv1a(checksum_, {data, size});
  }

  /** The checksum of everything read so far. */
  std::uint64_t checksum() const { return checksum_; }

  /** Reads the trailer without feeding it into its own coverage. */
  std::uint64_t ReadStoredChecksum() {
    std::uint64_t value = 0;
    file_.read(reinterpret_cast<char*>(&value), sizeof(value));
    if (static_cast<std::size_t>(file_.gcount()) != sizeof(value)) {
      throw CheckpointError("truncated checkpoint bundle (checksum): " +
                            path_);
    }
    return value;
  }

  template <typename T>
  T ReadScalar(const char* what) {
    T value{};
    ReadRaw(reinterpret_cast<char*>(&value), sizeof(value), what);
    return value;
  }

  std::string ReadString(const char* what) {
    std::string value(ReadStringSize(what), '\0');
    ReadRaw(value.data(), value.size(), what);
    return value;
  }

  /** Reads the magic and the format version; throws unless both match
   * this build's. */
  void ReadMagicAndVersion() {
    std::array<char, 8> magic{};
    ReadRaw(magic.data(), magic.size(), "magic");
    if (magic != kBundleMagic) {
      throw CheckpointError("not a GRANITE checkpoint bundle (bad magic): " +
                            path_);
    }
    const std::uint32_t version = ReadScalar<std::uint32_t>("version");
    if (version != kBundleFormatVersion) {
      throw CheckpointError(
          "unsupported checkpoint bundle version " + std::to_string(version) +
          " (this build reads version " +
          std::to_string(kBundleFormatVersion) + "): " + path_);
    }
  }

  std::uint64_t ReadVocabularySize() {
    const std::uint64_t size = ReadScalar<std::uint64_t>("vocabulary size");
    if (size == 0 || size > kMaxTokens) {
      throw CheckpointError(
          "corrupt checkpoint bundle (bad vocabulary size): " + path_);
    }
    return size;
  }

  /** Reads one tensor's name and shape, up to its values. */
  TensorHeader ReadTensorHeader() {
    TensorHeader tensor;
    tensor.name = ReadString("parameter name");
    tensor.rows = ReadScalar<std::int32_t>("parameter rows");
    tensor.cols = ReadScalar<std::int32_t>("parameter cols");
    if (tensor.rows < 0 || tensor.cols < 0 ||
        static_cast<std::uint64_t>(tensor.rows) *
                static_cast<std::uint64_t>(tensor.cols) >
            kMaxTensorElements) {
      throw CheckpointError(
          "corrupt checkpoint bundle (bad tensor shape for '" + tensor.name +
          "'): " + path_);
    }
    return tensor;
  }

  /** Throws unless the file ends here. */
  void ExpectEnd() {
    file_.peek();
    if (!file_.eof()) {
      throw CheckpointError(
          "corrupt checkpoint bundle (trailing bytes after checksum): " +
          path_);
    }
  }

 private:
  std::uint64_t ReadStringSize(const char* what) {
    const std::uint64_t size = ReadScalar<std::uint64_t>(what);
    if (size > kMaxStringBytes) {
      throw CheckpointError("corrupt checkpoint bundle (oversized " +
                            std::string(what) + "): " + path_);
    }
    return size;
  }

  std::string path_;
  std::ifstream file_;
  std::uint64_t checksum_ = kFnvOffsetBasis;
};

std::unique_ptr<ThroughputPredictor> ConstructModel(
    ModelKind kind, const std::string& config_text,
    std::unique_ptr<graph::Vocabulary> vocabulary, const std::string& path) {
  // Parsing rejects a bit-flipped but parseable config (a value outside
  // its field-list bounds) before it can reach the model constructors'
  // checked aborts or an absurd allocation; the whole-stream checksum
  // that also catches it is read only after construction.
  try {
    switch (kind) {
      case ModelKind::kGranite:
        return std::make_unique<core::GraniteModel>(
            std::move(vocabulary),
            ParseFields<core::GraniteConfig>(config_text));
      case ModelKind::kIthemal:
        return std::make_unique<ithemal::IthemalModel>(
            std::move(vocabulary),
            ParseFields<ithemal::IthemalConfig>(config_text));
    }
  } catch (const std::runtime_error& error) {
    throw CheckpointError("corrupt checkpoint bundle (bad config): " + path +
                          ": " + error.what());
  }
  throw CheckpointError("corrupt checkpoint bundle (bad kind): " + path);
}

}  // namespace

void SaveModel(const ThroughputPredictor& model, const std::string& path) {
  BundleWriter writer(path);
  writer.WriteRaw(kBundleMagic.data(), kBundleMagic.size());
  writer.WriteScalar<std::uint32_t>(kBundleFormatVersion);
  writer.WriteString(ModelKindName(model.kind()));
  writer.WriteString(model.DescribeConfig());

  const std::vector<std::string>& tokens = model.vocabulary().tokens();
  writer.WriteScalar<std::uint64_t>(tokens.size());
  for (const std::string& token : tokens) writer.WriteString(token);

  const auto& parameters = model.parameters().parameters();
  writer.WriteScalar<std::uint64_t>(parameters.size());
  for (const auto& parameter : parameters) {
    writer.WriteString(parameter->name);
    writer.WriteScalar<std::int32_t>(parameter->value.rows());
    writer.WriteScalar<std::int32_t>(parameter->value.cols());
    writer.WriteRaw(reinterpret_cast<const char*>(parameter->value.data()),
                    parameter->value.size() * sizeof(float));
  }
  writer.FinishWithChecksum();
}

std::unique_ptr<ThroughputPredictor> LoadModel(const std::string& path) {
  BundleReader reader(path);
  reader.ReadMagicAndVersion();
  const std::string kind_name = reader.ReadString("model kind");
  const std::optional<ModelKind> kind = ModelKindFromName(kind_name);
  if (!kind.has_value()) {
    throw CheckpointError("unknown model kind '" + kind_name +
                          "' in checkpoint bundle: " + path);
  }
  const std::string config_text = reader.ReadString("config");

  const std::uint64_t num_tokens = reader.ReadVocabularySize();
  std::vector<std::string> tokens;
  tokens.reserve(num_tokens);
  for (std::uint64_t i = 0; i < num_tokens; ++i) {
    tokens.push_back(reader.ReadString("vocabulary token"));
  }
  // The checksum that would catch a flipped token is read only after the
  // model is built, so reject here what the Vocabulary constructor would
  // abort on: a duplicate token or a missing unknown token.
  const std::unordered_set<std::string_view> distinct(tokens.begin(),
                                                      tokens.end());
  if (distinct.size() != tokens.size() ||
      !distinct.contains(graph::Vocabulary::kUnknownToken)) {
    throw CheckpointError("corrupt checkpoint bundle (bad vocabulary): " +
                          path);
  }

  std::unique_ptr<ThroughputPredictor> model = ConstructModel(
      *kind, config_text,
      std::make_unique<graph::Vocabulary>(std::move(tokens)), path);

  const std::uint64_t num_parameters =
      reader.ReadScalar<std::uint64_t>("parameter count");
  const auto& parameters = model->parameters().parameters();
  if (num_parameters > kMaxParameters ||
      num_parameters != parameters.size()) {
    throw CheckpointError(
        "checkpoint bundle parameter count mismatch (file has " +
        std::to_string(num_parameters) + ", model has " +
        std::to_string(parameters.size()) + "): " + path);
  }
  std::unordered_set<std::string> loaded;
  for (std::uint64_t i = 0; i < num_parameters; ++i) {
    const TensorHeader tensor = reader.ReadTensorHeader();
    const std::string& name = tensor.name;
    if (!loaded.insert(name).second) {
      throw CheckpointError(
          "corrupt checkpoint bundle (duplicate parameter '" + name +
          "'): " + path);
    }
    // Bundles restore by name, so parameter creation order may change
    // between builds without invalidating existing files.
    if (!model->parameters().Contains(name)) {
      throw CheckpointError("checkpoint bundle parameter '" + name +
                            "' does not exist in the reconstructed model: " +
                            path);
    }
    ml::Parameter* parameter = model->parameters().Get(name);
    if (parameter->value.rows() != tensor.rows ||
        parameter->value.cols() != tensor.cols) {
      throw CheckpointError(
          "checkpoint bundle shape mismatch for '" + name + "' (file " +
          std::to_string(tensor.rows) + "x" + std::to_string(tensor.cols) +
          ", model " + std::to_string(parameter->value.rows()) + "x" +
          std::to_string(parameter->value.cols()) + "): " + path);
    }
    reader.ReadRaw(reinterpret_cast<char*>(parameter->value.data()),
                   parameter->value.size() * sizeof(float),
                   "parameter values");
  }
  const std::uint64_t computed_checksum = reader.checksum();
  if (reader.ReadStoredChecksum() != computed_checksum) {
    throw CheckpointError(
        "corrupt checkpoint bundle (checksum mismatch): " + path);
  }
  reader.ExpectEnd();
  return model;
}

}  // namespace granite::model
