#include "model/config_io.h"

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "base/string_util.h"

namespace granite::model {
namespace {

[[noreturn]] void ParseError(const std::string& key,
                             const std::string& value, const char* type) {
  throw std::runtime_error("config value for '" + key +
                           "' is not a valid " + type + ": '" + value + "'");
}

std::int64_t ParseInt(const std::string& key, const std::string& value) {
  const std::optional<std::int64_t> parsed =
      ParseDecimal<std::int64_t>(value);
  if (!parsed) ParseError(key, value, "integer");
  return *parsed;
}

std::uint64_t ParseUint(const std::string& key, const std::string& value) {
  const std::optional<std::uint64_t> parsed =
      ParseDecimal<std::uint64_t>(value);
  if (!parsed) ParseError(key, value, "unsigned integer");
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

void FieldReader::Field(const char* key, int& value, IntRange range) {
  const std::int64_t parsed = map_.GetInt(key, value);
  CheckRange(key, parsed, range);
  value = static_cast<int>(parsed);
}

void FieldReader::Field(const char* key, std::vector<int>& layers,
                        IntRange range) {
  layers = map_.GetIntList(key, layers);
  CheckRange(key, static_cast<std::int64_t>(layers.size()),
             kLayerCountRange, " widths");
  for (const int width : layers) CheckRange(key, width, range);
}

ConfigMap ConfigMap::Parse(const std::string& text) {
  ConfigMap map;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) {
    if (line.empty() || line.front() == '#') continue;
    const std::size_t separator = line.find('=');
    if (separator == std::string::npos) {
      throw std::runtime_error("malformed config line (no '='): '" + line +
                               "'");
    }
    map.Put(line.substr(0, separator), line.substr(separator + 1));
  }
  return map;
}

void ConfigMap::Put(const std::string& key, std::string value) {
  const auto it = index_.find(key);
  if (it != index_.end()) {
    entries_[it->second].second = std::move(value);
    return;
  }
  index_.emplace(key, entries_.size());
  entries_.emplace_back(key, std::move(value));
}

const std::string* ConfigMap::Find(const std::string& key) const {
  const auto it = index_.find(key);
  return it == index_.end() ? nullptr : &entries_[it->second].second;
}

bool ConfigMap::Has(const std::string& key) const {
  return Find(key) != nullptr;
}

void ConfigMap::SetString(const std::string& key, std::string value) {
  Put(key, std::move(value));
}

void ConfigMap::SetInt(const std::string& key, std::int64_t value) {
  Put(key, std::to_string(value));
}

void ConfigMap::SetUint(const std::string& key, std::uint64_t value) {
  Put(key, std::to_string(value));
}

void ConfigMap::SetBool(const std::string& key, bool value) {
  Put(key, value ? "1" : "0");
}

void ConfigMap::SetFloat(const std::string& key, float value) {
  // FLT_DECIMAL_DIG significant digits round-trip any float bit-exactly.
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*g", FLT_DECIMAL_DIG,
                static_cast<double>(value));
  Put(key, buffer);
}

void ConfigMap::SetIntList(const std::string& key,
                           const std::vector<int>& values) {
  std::string joined;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) joined += ',';
    joined += std::to_string(values[i]);
  }
  Put(key, std::move(joined));
}

std::string ConfigMap::GetString(const std::string& key,
                                 const std::string& fallback) const {
  const std::string* value = Find(key);
  return value == nullptr ? fallback : *value;
}

std::int64_t ConfigMap::GetInt(const std::string& key,
                               std::int64_t fallback) const {
  const std::string* value = Find(key);
  return value == nullptr ? fallback : ParseInt(key, *value);
}

std::uint64_t ConfigMap::GetUint(const std::string& key,
                                 std::uint64_t fallback) const {
  const std::string* value = Find(key);
  return value == nullptr ? fallback : ParseUint(key, *value);
}

bool ConfigMap::GetBool(const std::string& key, bool fallback) const {
  const std::string* value = Find(key);
  if (value == nullptr) return fallback;
  if (*value == "1" || *value == "true") return true;
  if (*value == "0" || *value == "false") return false;
  ParseError(key, *value, "boolean");
}

float ConfigMap::GetFloat(const std::string& key, float fallback) const {
  const std::string* value = Find(key);
  if (value == nullptr) return fallback;
  // The one decimal spelling the integer fields take; NaN and infinity
  // parse but are no value a config field can mean.
  const std::optional<float> parsed = ParseDecimal<float>(*value);
  if (!parsed || !std::isfinite(*parsed)) {
    ParseError(key, *value, "finite float");
  }
  return *parsed;
}

std::vector<int> ConfigMap::GetIntList(
    const std::string& key, const std::vector<int>& fallback) const {
  const std::string* value = Find(key);
  if (value == nullptr) return fallback;
  std::vector<int> values;
  if (value->empty()) return values;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = value->find(',', start);
    const std::string item = value->substr(
        start, comma == std::string::npos ? std::string::npos
                                          : comma - start);
    const std::int64_t parsed = ParseInt(key, item);
    if (parsed != static_cast<int>(parsed)) ParseError(key, item, "int");
    values.push_back(static_cast<int>(parsed));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return values;
}

std::string ConfigMap::Serialize() const {
  std::string text;
  for (const auto& [key, value] : entries_) {
    text += key;
    text += '=';
    text += value;
    text += '\n';
  }
  return text;
}

std::vector<int> ScaledLayers(const std::vector<int>& layers, int size) {
  return std::vector<int>(layers.size(), size);
}

}  // namespace granite::model
