/**
 * @file
 * Key=value (de)serialization of model hyper-parameter structs, used by
 * the self-describing checkpoint bundles (model/checkpoint.h) and by
 * ThroughputPredictor::DescribeConfig().
 *
 * The format is one `key=value` line per field, ended by '\n', in
 * field-list order. A reader splits each line at its first '='; it skips
 * empty lines and lines that start with '#', and the last of several
 * lines with one key wins. Parsing is forward- and backward-compatible
 * by construction: unknown keys are ignored and missing keys keep the
 * caller-supplied default, so configs gain fields without breaking old
 * bundles. Malformed text (a line without '=', a value that does not
 * parse as its field's type) throws std::runtime_error, which
 * model::LoadModel converts into a CheckpointError.
 *
 * Floats are written with enough digits (FLT_DECIMAL_DIG) to round-trip
 * bit-exactly, so a reloaded config reproduces the original model
 * architecture and initialization exactly.
 *
 * Each model config states its serialized fields once, in a field list
 * (see FieldWriter); SerializeFields and ParseFields derive the text
 * codec and the bounds check from it, so a new field is one line.
 *
 * Threading contract: FieldWriter and FieldReader are plain value types
 * with no internal synchronization — confine an instance to one thread;
 * SerializeFields and ParseFields are pure functions and safe to call
 * concurrently.
 */
#ifndef GRANITE_MODEL_CONFIG_IO_H_
#define GRANITE_MODEL_CONFIG_IO_H_

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace granite::model {

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
  /** Booleans as `1` / `0`. */
  void Field(const char* key, bool value) { Line(key, value ? "1" : "0"); }
  /** Floats as `%.*g` with FLT_DECIMAL_DIG significant digits. */
  void Field(const char* key, float value);
  void Field(const char* key, std::uint64_t value) {
    Line(key, std::to_string(value));
  }
  void Field(const char* key, int value, IntRange) {
    Line(key, std::to_string(value));
  }
  /** Layer lists as comma-joined widths; an empty list as no text. */
  void Field(const char* key, const std::vector<int>& layers, IntRange);
  template <typename Enum, std::size_t N>
  void Field(const char* key, Enum value,
             const std::array<EnumName<Enum>, N>& names) {
    for (const EnumName<Enum>& entry : names) {
      if (entry.value == value) return Line(key, entry.name);
    }
    throw std::logic_error(std::string("unnamed value of config field ") +
                           key);
  }

  /** The lines written so far. */
  const std::string& text() const { return text_; }

 private:
  void Line(const char* key, std::string_view value);

  std::string text_;
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
  /** Splits `text` into its lines; throws std::runtime_error on a line
   * without '='. The reader views `text`, which must outlive it. */
  explicit FieldReader(std::string_view text);

  /** `1` / `true` or `0` / `false`. */
  void Field(const char* key, bool& value);
  /** ParseDecimal's one spelling, and finite. */
  void Field(const char* key, float& value);
  void Field(const char* key, std::uint64_t& value);
  void Field(const char* key, int& value, IntRange range);
  /** Comma-separated integers that each fit int; no text is no widths. */
  void Field(const char* key, std::vector<int>& layers, IntRange range);
  template <typename Enum, std::size_t N>
  void Field(const char* key, Enum& value,
             const std::array<EnumName<Enum>, N>& names) {
    const std::string_view* name = Find(key);
    if (name == nullptr) return;
    for (const EnumName<Enum>& entry : names) {
      if (*name == entry.name) {
        value = entry.value;
        return;
      }
    }
    throw std::runtime_error(std::string("config value for '") + key +
                             "' is not a known name: '" +
                             std::string(*name) + "'");
  }

 private:
  /** The value of the last line with `key`, or nullptr if none has it. */
  const std::string_view* Find(std::string_view key) const;

  /** Each line's key and value, in text order. */
  std::vector<std::pair<std::string_view, std::string_view>> lines_;
};

/** The canonical key=value text of `config`, in field-list order. */
template <typename Config>
std::string SerializeFields(const Config& config) {
  FieldWriter writer;
  Config::VisitFields(config, writer);
  return writer.text();
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
