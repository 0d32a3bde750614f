/**
 * @file
 * Key=value (de)serialization of model hyper-parameter structs, used by
 * the self-describing checkpoint bundles (model/checkpoint.h) and by
 * ThroughputPredictor::DescribeConfig().
 *
 * The format is one `key=value` pair per line, in insertion order.
 * Parsing is forward- and backward-compatible by construction: unknown
 * keys are ignored and missing keys keep the caller-supplied default, so
 * configs gain fields without breaking old bundles. Malformed text (a
 * line without '=', a value that does not parse as the requested type)
 * throws std::runtime_error, which model::LoadModel converts into a
 * CheckpointError.
 *
 * Floats are written with enough digits (FLT_DECIMAL_DIG) to round-trip
 * bit-exactly, so a reloaded config reproduces the original model
 * architecture and initialization exactly.
 *
 * Each model config states its serialized fields once, in a field list
 * (see FieldWriter); SerializeFields and ParseFields derive the text
 * codec and the bounds check from it, so a new field is one line.
 *
 * Threading contract: ConfigMap, FieldWriter and FieldReader are plain
 * value types with no internal synchronization — confine an instance to
 * one thread or share it read-only; the free (de)serialization helpers
 * are pure functions and safe to call concurrently.
 */
#ifndef GRANITE_MODEL_CONFIG_IO_H_
#define GRANITE_MODEL_CONFIG_IO_H_

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace granite::model {

/** An ordered key=value map with typed accessors. */
class ConfigMap {
 public:
  ConfigMap() = default;

  /** Parses Serialize() output. Throws std::runtime_error on malformed
   * lines (missing '='); blank lines and `#` comments are skipped. */
  static ConfigMap Parse(const std::string& text);

  void SetString(const std::string& key, std::string value);
  void SetInt(const std::string& key, std::int64_t value);
  void SetUint(const std::string& key, std::uint64_t value);
  void SetBool(const std::string& key, bool value);
  void SetFloat(const std::string& key, float value);
  void SetIntList(const std::string& key, const std::vector<int>& values);

  bool Has(const std::string& key) const;

  /** Each getter returns `fallback` when the key is absent and throws
   * std::runtime_error when the stored value does not parse. */
  std::string GetString(const std::string& key,
                        const std::string& fallback) const;
  std::int64_t GetInt(const std::string& key, std::int64_t fallback) const;
  std::uint64_t GetUint(const std::string& key,
                        std::uint64_t fallback) const;
  bool GetBool(const std::string& key, bool fallback) const;
  float GetFloat(const std::string& key, float fallback) const;
  std::vector<int> GetIntList(const std::string& key,
                              const std::vector<int>& fallback) const;

  /** One `key=value` line per entry, in insertion order. */
  std::string Serialize() const;

 private:
  const std::string* Find(const std::string& key) const;
  void Put(const std::string& key, std::string value);

  std::vector<std::pair<std::string, std::string>> entries_;
  std::unordered_map<std::string, std::size_t> index_;
};

/** Inclusive bounds of an integer config field, or of every width of a
 * layer list. */
struct IntRange {
  std::int64_t low;
  std::int64_t high;
};

/** Bounds of embedding sizes and layer widths. */
inline constexpr IntRange kWidthRange{1, 1 << 16};
/** Bounds of per-model counts: task heads, message-passing rounds. */
inline constexpr IntRange kCountRange{1, 1 << 10};
/** Bounds of the number of widths in a layer list. */
inline constexpr IntRange kLayerCountRange{0, 64};

/** The serialized spelling of one value of an enum-valued field. */
template <typename Enum>
struct EnumName {
  Enum value;
  const char* name;
};

/**
 * Serializes a config through its field list. A config struct lists
 * every serialized field once, in text order, in
 *
 *   template <typename Self, typename Visitor>
 *   static void VisitFields(Self& config, Visitor& visitor);
 *
 * (Self is the config, const or not) calling, per field, one of
 *   visitor.Field(key, member)          bool, float and uint64 members;
 *   visitor.Field(key, member, range)   int members and layer lists
 *                                       (`range` bounds every width);
 *   visitor.Field(key, member, names)   enum members, `names` a
 *                                       std::array of EnumName.
 */
class FieldWriter {
 public:
  void Field(const char* key, bool value) { map_.SetBool(key, value); }
  void Field(const char* key, float value) { map_.SetFloat(key, value); }
  void Field(const char* key, std::uint64_t value) {
    map_.SetUint(key, value);
  }
  void Field(const char* key, int value, IntRange) {
    map_.SetInt(key, value);
  }
  void Field(const char* key, const std::vector<int>& layers, IntRange) {
    map_.SetIntList(key, layers);
  }
  template <typename Enum, std::size_t N>
  void Field(const char* key, Enum value,
             const std::array<EnumName<Enum>, N>& names) {
    for (const EnumName<Enum>& entry : names) {
      if (entry.value == value) return map_.SetString(key, entry.name);
    }
    throw std::logic_error(std::string("unnamed value of config field ") +
                           key);
  }

  std::string Serialize() const { return map_.Serialize(); }

 private:
  ConfigMap map_;
};

/**
 * Parses a config through its field list (see FieldWriter). A missing
 * key keeps the member's value; a malformed value, an unknown enum name
 * or an int or layer list outside its bounds (a width count outside
 * kLayerCountRange, or a width outside `range`) throws
 * std::runtime_error naming the key.
 */
class FieldReader {
 public:
  explicit FieldReader(const std::string& text)
      : map_(ConfigMap::Parse(text)) {}

  void Field(const char* key, bool& value) {
    value = map_.GetBool(key, value);
  }
  void Field(const char* key, float& value) {
    value = map_.GetFloat(key, value);
  }
  void Field(const char* key, std::uint64_t& value) {
    value = map_.GetUint(key, value);
  }
  void Field(const char* key, int& value, IntRange range);
  void Field(const char* key, std::vector<int>& layers, IntRange range);
  template <typename Enum, std::size_t N>
  void Field(const char* key, Enum& value,
             const std::array<EnumName<Enum>, N>& names) {
    if (!map_.Has(key)) return;
    const std::string name = map_.GetString(key, "");
    for (const EnumName<Enum>& entry : names) {
      if (name == entry.name) {
        value = entry.value;
        return;
      }
    }
    throw std::runtime_error(std::string("config value for '") + key +
                             "' is not a known name: '" + name + "'");
  }

 private:
  ConfigMap map_;
};

/** The canonical key=value text of `config`, in field-list order. */
template <typename Config>
std::string SerializeFields(const Config& config) {
  FieldWriter writer;
  Config::VisitFields(config, writer);
  return writer.Serialize();
}

/** Parses SerializeFields text over a default-constructed Config: unknown
 * keys are ignored, missing keys keep their defaults, and malformed or
 * out-of-bounds values throw std::runtime_error. */
template <typename Config>
Config ParseFields(const std::string& text) {
  FieldReader reader(text);
  Config config;
  Config::VisitFields(config, reader);
  return config;
}

/**
 * Returns `layers` with every entry replaced by `size`, preserving depth.
 * The shared core of GraniteConfig::WithEmbeddingSize and
 * IthemalConfig::WithEmbeddingSize: proportionally scaled-down model
 * variants (tests, benches, CLI) shrink every hidden-layer width to the
 * embedding size without changing the layer count.
 */
std::vector<int> ScaledLayers(const std::vector<int>& layers, int size);

}  // namespace granite::model

#endif  // GRANITE_MODEL_CONFIG_IO_H_
