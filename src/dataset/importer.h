/**
 * @file
 * Streaming BHive-style CSV corpus importer.
 *
 * Turns a measured-throughput CSV (BHive, Chen et al. IISWC'19; Ithemal,
 * Mendis et al. ICML'19 publish this shape) into a checksummed `.gbc`
 * corpus so `granite_cli train/eval` runs on real hardware labels instead
 * of synthesized ones. Rows stream through one at a time and shards are
 * flushed by CorpusWriter as they fill, so importing 300K+ blocks uses
 * constant memory — the same discipline as `dataset synthesize`.
 *
 * CSV row shape (see docs/FORMATS.md for the full grammar):
 *   block,throughput[,tool]
 * where `block` is either Intel-syntax assembly text (';' separates
 * instructions, double quotes guard embedded commas) or a raw-hex
 * encoding paired with a --disasm-file= sidecar of textual disassembly
 * consumed in lockstep row order.
 *
 * Unparseable rows are never fatal: each is counted under a reject class
 * (malformed row / operand parse error / unknown mnemonic / unsupported
 * arity), optionally sampled into a rejects file for triage, and the
 * final unparseable-block rate is stamped into the corpus header
 * (CorpusHeader::import_rejected_ppm) as provenance.
 */
#ifndef GRANITE_DATASET_IMPORTER_H_
#define GRANITE_DATASET_IMPORTER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "dataset/corpus_io.h"
#include "uarch/measurement.h"

namespace granite::dataset {

/** Raised for file-level import failures: unreadable CSV, missing or
 * malformed sidecar, no data rows. Row-level problems never throw — they
 * land in ImportStats::rejected_by_reason. */
class ImportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/** Why a CSV row was rejected. */
enum class ImportRejectReason {
  /** Malformed CSV row: wrong field count, unterminated quote, bad or
   * non-positive throughput, tool-column mismatch, hex row without a
   * usable sidecar record, or an empty block. */
  kBadRow = 0,
  /** The block text did not parse (bad operand, unbalanced brackets,
   * missing mnemonic, ...). */
  kOperandParse,
  /** Parsed, but contains a mnemonic the semantics catalog lacks. */
  kUnknownMnemonic,
  /** Known mnemonic used with an operand count the catalog does not
   * model, or with an immediate or bare address in a slot it writes
   * (`ADD 5, RAX`; assembly::UnencodableReason::kOperandForm). */
  kUnsupportedArity,
};

inline constexpr int kNumImportRejectReasons = 4;

/** Stable snake_case name of a reject class (rejects file, CLI, bench). */
std::string_view ImportRejectReasonName(ImportRejectReason reason);

/** Import tuning; the defaults match `granite_cli dataset import`. */
struct ImportOptions {
  /** Measurement methodology recorded in the corpus header. Rows with a
   * conflicting third CSV field are rejected. */
  uarch::MeasurementTool tool = uarch::MeasurementTool::kBHiveTool;
  /** Multiplier applied to every CSV throughput value; use to convert
   * units into the repo's cycles-per-100-iterations convention. */
  double throughput_scale = 1.0;
  /** Shard granularity of the written corpus. */
  std::uint64_t records_per_shard = kDefaultRecordsPerShard;
  /** Textual-disassembly sidecar for raw-hex rows ("" = none). */
  std::string disasm_file;
  /** When nonempty, up to `max_reject_samples` rejected rows are written
   * here, one per line: reason, row number, detail, raw row text. */
  std::string rejects_path;
  /** Cap on sampled reject rows (the counters always see every row). */
  std::size_t max_reject_samples = 100;
};

/** Outcome counters of one import. */
struct ImportStats {
  /** Data rows seen (header, comment and blank lines excluded). */
  std::uint64_t rows = 0;
  /** Rows written to the corpus. */
  std::uint64_t imported = 0;
  /** Rejected rows, indexed by ImportRejectReason. */
  std::array<std::uint64_t, kNumImportRejectReasons> rejected_by_reason{};

  std::uint64_t rejected() const;
  /** rejected() / rows; 0 when no data row was seen. */
  double reject_rate() const;
  /** reject_rate() in parts per million, as stamped into the header. */
  std::uint32_t rejected_ppm() const;
};

/**
 * Imports `csv_path` into a checksummed corpus at `corpus_path`.
 * Streaming: one row (plus one CorpusWriter shard) in memory at a time;
 * the sidecar, when configured, is read in lockstep with the hex rows
 * that reference it. Throws ImportError on file-level failure and
 * CorpusError on corpus-write failure; rejected rows only increment
 * counters. A corpus is written even when every row is rejected — the
 * reject rate is the measurement.
 */
ImportStats ImportBhiveCsv(const std::string& csv_path,
                           const std::string& corpus_path,
                           const ImportOptions& options = {});

}  // namespace granite::dataset

#endif  // GRANITE_DATASET_IMPORTER_H_
