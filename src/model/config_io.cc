#include "model/config_io.h"

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <utility>

#include "base/string_util.h"

namespace granite::model {
namespace {

[[noreturn]] void ParseError(const char* key, std::string_view value,
                             const char* type) {
  throw std::runtime_error(std::string("config value for '") + key +
                           "' is not a valid " + type + ": '" +
                           std::string(value) + "'");
}

std::int64_t ParseInt(const char* key, std::string_view value) {
  const std::optional<std::int64_t> parsed =
      ParseDecimal<std::int64_t>(value);
  if (!parsed) ParseError(key, value, "integer");
  return *parsed;
}

/** Throws when `value` of `key` lies outside `range`; `unit` names what
 * `value` counts, if anything. */
void CheckRange(const char* key, std::int64_t value, IntRange range,
                const char* unit = "") {
  if (value < range.low || value > range.high) {
    throw std::runtime_error(
        std::string("config value ") + key + " = " + std::to_string(value) +
        unit + " outside [" + std::to_string(range.low) + ", " +
        std::to_string(range.high) + "]");
  }
}

}  // namespace

void FieldWriter::Line(const char* key, std::string_view value) {
  text_ += key;
  text_ += '=';
  text_ += value;
  text_ += '\n';
}

void FieldWriter::Field(const char* key, float value) {
  // FLT_DECIMAL_DIG significant digits round-trip any float bit-exactly.
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*g", FLT_DECIMAL_DIG,
                static_cast<double>(value));
  Line(key, buffer);
}

void FieldWriter::Field(const char* key, const std::vector<int>& layers,
                        IntRange) {
  std::string joined;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    if (i > 0) joined += ',';
    joined += std::to_string(layers[i]);
  }
  Line(key, joined);
}

FieldReader::FieldReader(std::string_view text) {
  while (!text.empty()) {
    const std::size_t end = text.find('\n');
    const std::string_view line = text.substr(0, end);
    text.remove_prefix(end == std::string_view::npos ? text.size() : end + 1);
    if (line.empty() || line.front() == '#') continue;
    const std::size_t separator = line.find('=');
    if (separator == std::string_view::npos) {
      throw std::runtime_error("malformed config line (no '='): '" +
                               std::string(line) + "'");
    }
    lines_.emplace_back(line.substr(0, separator),
                        line.substr(separator + 1));
  }
}

const std::string_view* FieldReader::Find(std::string_view key) const {
  for (auto it = lines_.rbegin(); it != lines_.rend(); ++it) {
    if (it->first == key) return &it->second;
  }
  return nullptr;
}

void FieldReader::Field(const char* key, bool& value) {
  const std::string_view* text = Find(key);
  if (text == nullptr) return;
  if (*text == "1" || *text == "true") {
    value = true;
  } else if (*text == "0" || *text == "false") {
    value = false;
  } else {
    ParseError(key, *text, "boolean");
  }
}

void FieldReader::Field(const char* key, float& value) {
  const std::string_view* text = Find(key);
  if (text == nullptr) return;
  // The one decimal spelling the integer fields take; NaN and infinity
  // parse but are no value a config field can mean.
  const std::optional<float> parsed = ParseDecimal<float>(*text);
  if (!parsed || !std::isfinite(*parsed)) {
    ParseError(key, *text, "finite float");
  }
  value = *parsed;
}

void FieldReader::Field(const char* key, std::uint64_t& value) {
  const std::string_view* text = Find(key);
  if (text == nullptr) return;
  const std::optional<std::uint64_t> parsed =
      ParseDecimal<std::uint64_t>(*text);
  if (!parsed) ParseError(key, *text, "unsigned integer");
  value = *parsed;
}

void FieldReader::Field(const char* key, int& value, IntRange range) {
  const std::string_view* text = Find(key);
  const std::int64_t parsed = text == nullptr ? value : ParseInt(key, *text);
  CheckRange(key, parsed, range);
  value = static_cast<int>(parsed);
}

void FieldReader::Field(const char* key, std::vector<int>& layers,
                        IntRange range) {
  if (const std::string_view* text = Find(key)) {
    std::vector<int> parsed_layers;
    if (!text->empty()) {
      for (const std::string_view item : Split(*text, ',')) {
        const std::int64_t parsed = ParseInt(key, item);
        if (parsed != static_cast<int>(parsed)) ParseError(key, item, "int");
        parsed_layers.push_back(static_cast<int>(parsed));
      }
    }
    layers = std::move(parsed_layers);
  }
  CheckRange(key, static_cast<std::int64_t>(layers.size()),
             kLayerCountRange, " widths");
  for (const int width : layers) CheckRange(key, width, range);
}

std::vector<int> ScaledLayers(const std::vector<int>& layers, int size) {
  return std::vector<int>(layers.size(), size);
}

}  // namespace granite::model
