#include "dataset/importer.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <fstream>
#include <optional>
#include <utility>
#include <vector>

#include "asm/parser.h"
#include "asm/semantics.h"
#include "base/string_util.h"

namespace granite::dataset {
namespace {

/**
 * Splits CSV lines into fields: commas separate, double quotes guard
 * embedded commas, "" inside quotes escapes a literal quote. A field is
 * quoted when its first non-blank byte is a quote; text after the
 * closing quote joins the field as is, later quotes included. Unquoted
 * fields are whitespace-stripped, quoted ones are not. The field strings
 * are kept across rows, so a row allocates only when a field outgrows
 * every earlier one.
 */
class CsvFieldSplitter {
 public:
  /** Splits `line`; false on an unterminated quoted field. */
  bool Split(std::string_view line) {
    size_ = 0;
    std::size_t start = 0;
    while (true) {
      std::string& field = NextField();
      std::size_t comma = line.find(',', start);
      const std::string_view unquoted =
          StripWhitespace(line.substr(start, comma - start));
      if (unquoted.empty() || unquoted.front() != '"') {
        field.assign(unquoted);
      } else {
        // The comma found above may lie inside the quotes.
        field.clear();
        std::size_t i = static_cast<std::size_t>(unquoted.data() -
                                                 line.data()) + 1;
        while (true) {
          const std::size_t quote = line.find('"', i);
          if (quote == std::string_view::npos) return false;
          field.append(line.substr(i, quote - i));
          i = quote + 1;
          if (i == line.size() || line[i] != '"') break;
          field.push_back('"');
          ++i;
        }
        comma = line.find(',', i);
        field.append(line.substr(i, comma - i));
      }
      if (comma == std::string_view::npos) return true;
      start = comma + 1;
    }
  }

  std::size_t size() const { return size_; }
  const std::string& operator[](std::size_t i) const { return fields_[i]; }

 private:
  /** The next field slot, reusing one from an earlier row if any. */
  std::string& NextField() {
    if (size_ == fields_.size()) fields_.emplace_back();
    return fields_[size_++];
  }

  std::vector<std::string> fields_;
  std::size_t size_ = 0;
};

/** True for a raw-hex block field: even length >= 2, hex digits only.
 * No catalog mnemonic is hex-only with even length, and assembly text
 * always contains spaces or ';', so real assembly never matches. */
bool IsHexBlockField(std::string_view field) {
  if (field.size() < 2 || field.size() % 2 != 0) return false;
  for (char c : field) {
    if (!std::isxdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

/** Case-insensitive CSV tool-column value, or nullopt when unknown. */
std::optional<uarch::MeasurementTool> ToolFromName(std::string_view name) {
  if (EqualsIgnoreCase(name, "ithemal")) {
    return uarch::MeasurementTool::kIthemalTool;
  }
  if (EqualsIgnoreCase(name, "bhive")) {
    return uarch::MeasurementTool::kBHiveTool;
  }
  return std::nullopt;
}

/**
 * Streams the textual-disassembly sidecar for raw-hex rows. Records are
 * delimited by "@<key>" lines (key = the hex row text, or a decimal row
 * ordinal); the lines until the next '@' line are the record's assembly.
 * Consumed strictly in row order — never more than one record in memory.
 */
class SidecarReader {
 public:
  explicit SidecarReader(const std::string& path)
      : path_(path), file_(path) {
    if (!file_.is_open()) {
      throw ImportError("cannot read disassembly sidecar: " + path);
    }
  }

  /** Reads the next record; false at end of sidecar. */
  bool Next(std::string* key, std::string* text) {
    std::string line;
    while (!pending_.has_value()) {
      if (!std::getline(file_, line)) return false;
      const std::string_view stripped = StripWhitespace(line);
      if (stripped.empty() || stripped.front() == '#') continue;
      if (stripped.front() != '@') {
        throw ImportError("malformed disassembly sidecar (expected '@key' "
                          "record delimiter, got '" +
                          std::string(stripped) + "'): " + path_);
      }
      pending_ = std::string(StripWhitespace(stripped.substr(1)));
    }
    *key = std::move(*pending_);
    pending_.reset();
    text->clear();
    while (std::getline(file_, line)) {
      const std::string_view stripped = StripWhitespace(line);
      if (StartsWith(stripped, "@")) {
        pending_ = std::string(StripWhitespace(stripped.substr(1)));
        break;
      }
      text->append(line);
      text->push_back('\n');
    }
    return true;
  }

 private:
  std::string path_;
  std::ifstream file_;
  std::optional<std::string> pending_;
};

/** Counts every reject and samples the first `max_samples` into a file. */
class RejectSink {
 public:
  RejectSink(const ImportOptions& options, ImportStats* stats)
      : max_samples_(options.max_reject_samples), stats_(stats) {
    if (!options.rejects_path.empty()) {
      file_.open(options.rejects_path, std::ios::trunc);
      if (!file_.is_open()) {
        throw ImportError("cannot write rejects file: " +
                          options.rejects_path);
      }
      enabled_ = true;
    }
  }

  void Reject(ImportRejectReason reason, std::uint64_t row_number,
              std::string_view detail, std::string_view raw_row) {
    ++stats_->rejected_by_reason[static_cast<int>(reason)];
    if (enabled_ && sampled_ < max_samples_) {
      ++sampled_;
      file_ << ImportRejectReasonName(reason) << "\trow " << row_number
            << "\t" << detail << "\t" << raw_row << "\n";
    }
  }

 private:
  std::ofstream file_;
  bool enabled_ = false;
  std::size_t max_samples_;
  std::size_t sampled_ = 0;
  ImportStats* stats_;
};

/** Writes ';'-separated assembly into `text` as newline-separated
 * parser input, reusing its storage. */
void AsParserInput(std::string_view block_field, std::string* text) {
  text->assign(block_field);
  std::replace(text->begin(), text->end(), ';', '\n');
}

}  // namespace

std::string_view ImportRejectReasonName(ImportRejectReason reason) {
  switch (reason) {
    case ImportRejectReason::kBadRow: return "bad_row";
    case ImportRejectReason::kOperandParse: return "operand_parse";
    case ImportRejectReason::kUnknownMnemonic: return "unknown_mnemonic";
    case ImportRejectReason::kUnsupportedArity: return "unsupported_arity";
  }
  return "?";
}

std::uint64_t ImportStats::rejected() const {
  std::uint64_t total = 0;
  for (const std::uint64_t count : rejected_by_reason) total += count;
  return total;
}

double ImportStats::reject_rate() const {
  if (rows == 0) return 0.0;
  return static_cast<double>(rejected()) / static_cast<double>(rows);
}

std::uint32_t ImportStats::rejected_ppm() const {
  return static_cast<std::uint32_t>(std::lround(reject_rate() * 1e6));
}

ImportStats ImportBhiveCsv(const std::string& csv_path,
                           const std::string& corpus_path,
                           const ImportOptions& options) {
  std::ifstream csv(csv_path);
  if (!csv.is_open()) {
    throw ImportError("cannot read import CSV: " + csv_path);
  }
  if (!(options.throughput_scale > 0.0) ||
      !std::isfinite(options.throughput_scale)) {
    throw ImportError("throughput scale must be finite and positive");
  }

  ImportStats stats;
  RejectSink rejects(options, &stats);
  std::optional<SidecarReader> sidecar;
  if (!options.disasm_file.empty()) sidecar.emplace(options.disasm_file);

  // Seed provenance is meaningless for imported data; record 0.
  CorpusWriter writer(corpus_path, options.tool, /*generator_seed=*/0,
                      options.records_per_shard);

  // Reused across rows: the line, its fields and the parser input.
  std::string line;
  CsvFieldSplitter fields;
  std::string assembly_text;
  std::uint64_t line_number = 0;
  bool seen_header_row = false;
  while (std::getline(csv, line)) {
    ++line_number;
    const std::string_view stripped = StripWhitespace(line);
    if (stripped.empty() || stripped.front() == '#') continue;

    if (!fields.Split(stripped)) {
      ++stats.rows;
      rejects.Reject(ImportRejectReason::kBadRow, line_number,
                     "unterminated quoted field", stripped);
      continue;
    }
    // An optional one-time "block,throughput[,tool]" header row.
    if (!seen_header_row && stats.rows == 0 &&
        EqualsIgnoreCase(fields[0], "block")) {
      seen_header_row = true;
      continue;
    }
    ++stats.rows;

    if (fields.size() < 2 || fields.size() > 3) {
      rejects.Reject(ImportRejectReason::kBadRow, line_number,
                     "expected 2 or 3 fields, got " +
                         std::to_string(fields.size()),
                     stripped);
      continue;
    }
    const std::string& block_field = fields[0];
    if (block_field.empty()) {
      rejects.Reject(ImportRejectReason::kBadRow, line_number,
                     "empty block field", stripped);
      continue;
    }

    const std::optional<double> throughput = ParseDouble(fields[1]);
    if (!throughput.has_value() || !std::isfinite(*throughput) ||
        *throughput <= 0.0) {
      rejects.Reject(ImportRejectReason::kBadRow, line_number,
                     "bad throughput '" + fields[1] + "'", stripped);
      continue;
    }

    if (fields.size() == 3) {
      const std::optional<uarch::MeasurementTool> row_tool =
          ToolFromName(fields[2]);
      if (!row_tool.has_value() || *row_tool != options.tool) {
        rejects.Reject(ImportRejectReason::kBadRow, line_number,
                       "tool '" + fields[2] + "' does not match corpus "
                           "tool '" +
                           std::string(uarch::MeasurementToolName(
                               options.tool)) +
                           "'",
                       stripped);
        continue;
      }
    }

    // Resolve the block text: assembly inline, or via the sidecar for
    // raw-hex rows. Sidecar records are consumed in lockstep, keyed by
    // the hex text or the 1-based data-row ordinal.
    if (IsHexBlockField(block_field)) {
      if (!sidecar.has_value()) {
        rejects.Reject(ImportRejectReason::kBadRow, line_number,
                       "raw-hex row without --disasm-file sidecar",
                       stripped);
        continue;
      }
      std::string key;
      if (!sidecar->Next(&key, &assembly_text)) {
        rejects.Reject(ImportRejectReason::kBadRow, line_number,
                       "disassembly sidecar exhausted", stripped);
        continue;
      }
      if (!EqualsIgnoreCase(key, block_field) &&
          key != std::to_string(stats.rows)) {
        rejects.Reject(ImportRejectReason::kBadRow, line_number,
                       "sidecar record '" + key +
                           "' does not match row (hex or ordinal)",
                       stripped);
        continue;
      }
    } else {
      AsParserInput(block_field, &assembly_text);
    }

    assembly::ParseResult<assembly::BasicBlock> parsed =
        assembly::ParseBasicBlock(assembly_text);
    if (!parsed.ok()) {
      rejects.Reject(ImportRejectReason::kOperandParse, line_number,
                     parsed.error, stripped);
      continue;
    }
    if (parsed.value->instructions.empty()) {
      rejects.Reject(ImportRejectReason::kBadRow, line_number,
                     "empty block", stripped);
      continue;
    }
    const std::optional<assembly::Unencodable> unencodable =
        assembly::CheckEncodable(*parsed.value);
    if (unencodable.has_value()) {
      rejects.Reject(unencodable->reason ==
                             assembly::UnencodableReason::kUnknownMnemonic
                         ? ImportRejectReason::kUnknownMnemonic
                         : ImportRejectReason::kUnsupportedArity,
                     line_number, unencodable->message, stripped);
      continue;
    }

    std::array<double, uarch::kNumMicroarchitectures> labels;
    labels.fill(*throughput * options.throughput_scale);
    writer.Append({&*parsed.value, &labels, nullptr});
    ++stats.imported;
  }

  if (stats.rows == 0) {
    throw ImportError("no data rows in import CSV: " + csv_path);
  }
  writer.set_import_rejected_ppm(stats.rejected_ppm());
  writer.Finish();
  return stats;
}

}  // namespace granite::dataset
