/**
 * @file
 * Importer round-trip suite: CSV rows must reach the corpus bit-exactly
 * (block text identical to an in-memory parse, binary-double labels),
 * every reject class must be counted and sampled correctly, file-level
 * corruption must raise a clean ImportError, and the checked-in BHive
 * sample CSV must convert with an unparseable-block rate under the 5%
 * acceptance bar.
 */
#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "asm/parser.h"
#include "dataset/corpus_io.h"
#include "dataset/importer.h"
#include "gtest/gtest.h"

namespace granite::dataset {
namespace {

class ImporterTest : public ::testing::Test {
 protected:
  ImporterTest() {
    const std::string stem =
        "importer_test_" +
        std::to_string(
            ::testing::UnitTest::GetInstance()->random_seed()) +
        "_" + std::to_string(reinterpret_cast<std::uintptr_t>(this));
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path();
    csv_path_ = (dir / (stem + ".csv")).string();
    corpus_path_ = (dir / (stem + ".gbc")).string();
    sidecar_path_ = (dir / (stem + ".disasm")).string();
    rejects_path_ = (dir / (stem + ".rejects")).string();
  }

  ~ImporterTest() override {
    std::error_code ignored;
    for (const std::string& path :
         {csv_path_, corpus_path_, sidecar_path_, rejects_path_}) {
      std::filesystem::remove(path, ignored);
    }
  }

  void WriteCsv(const std::string& text) const {
    std::ofstream file(csv_path_, std::ios::trunc);
    file << text;
  }

  void WriteSidecar(const std::string& text) const {
    std::ofstream file(sidecar_path_, std::ios::trunc);
    file << text;
  }

  std::vector<std::string> ReadRejectLines() const {
    std::ifstream file(rejects_path_);
    EXPECT_TRUE(file.is_open());
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(file, line)) lines.push_back(line);
    return lines;
  }

  /** Loads the written corpus through the streaming source. */
  std::vector<Sample> LoadImported() const {
    StreamingCorpusSource source(corpus_path_);
    std::vector<Sample> samples;
    for (std::size_t i = 0; i < source.size(); ++i) {
      const SampleView view = source.Get(i);
      Sample sample;
      sample.block = *view.block;
      sample.throughput = *view.throughput;
      samples.push_back(sample);
    }
    return samples;
  }

  std::string csv_path_;
  std::string corpus_path_;
  std::string sidecar_path_;
  std::string rejects_path_;
};

TEST_F(ImporterTest, RoundTripMatchesInMemoryParse) {
  const std::vector<std::pair<std::string, double>> rows = {
      {"MOV RAX, RBX; ADD RAX, 8", 81.25},
      {"XOR RCX, RCX; SUB RDX, 16", 96.5},
      {"MOV RAX, QWORD PTR [RSP + 24]; INC RAX", 120.125},
  };
  std::ostringstream csv;
  for (const auto& [block, throughput] : rows) {
    csv << '"' << block << "\"," << throughput << "\n";
  }
  WriteCsv(csv.str());

  const ImportStats stats = ImportBhiveCsv(csv_path_, corpus_path_);
  EXPECT_EQ(stats.rows, rows.size());
  EXPECT_EQ(stats.imported, rows.size());
  EXPECT_EQ(stats.rejected(), 0u);
  EXPECT_EQ(stats.rejected_ppm(), 0u);

  const std::vector<Sample> samples = LoadImported();
  ASSERT_EQ(samples.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    // The corpus must hold exactly what an in-memory parse of the same
    // text produces (';' as the instruction separator), bit-exact.
    std::string text = rows[i].first;
    for (char& c : text) {
      if (c == ';') c = '\n';
    }
    const assembly::ParseResult<assembly::BasicBlock> expected =
        assembly::ParseBasicBlock(text);
    ASSERT_TRUE(expected.ok()) << expected.error;
    EXPECT_EQ(samples[i].block.ToString(), expected.value->ToString());
    for (double label : samples[i].throughput) {
      EXPECT_EQ(label, rows[i].second);
    }
  }
}

TEST_F(ImporterTest, HeaderCommentAndBlankLinesAreNotDataRows) {
  WriteCsv(
      "# comment\n"
      "block,throughput,tool\n"
      "\n"
      "\"MOV RAX, RBX\",50.0,bhive\n");
  const ImportStats stats = ImportBhiveCsv(csv_path_, corpus_path_);
  EXPECT_EQ(stats.rows, 1u);
  EXPECT_EQ(stats.imported, 1u);
}

TEST_F(ImporterTest, RejectClassificationCounts) {
  WriteCsv(
      "\"MOV RAX, RBX\",50.0\n"          // imported
      "MOV RAX,51.0\n"                   // unsupported arity (MOV/1)
      "\"FNORD RAX, RBX\",52.0\n"        // unknown mnemonic
      "\"MOV RAX, 0], [0\",53.0\n"       // unbalanced brackets
      "onlyonefield\n"                   // bad row: one field
      "\"ADD RAX, RBX\",nope\n"          // bad row: bad throughput
      "\"SUB RAX, RBX\",-4.0\n"          // bad row: non-positive value
      "\"XOR RAX, RAX\",54.0,ithemal\n"  // bad row: tool mismatch
      "\"unterminated,55.0\n"            // bad row: unterminated quote
      "\"AND RAX, RBX\",56.0,bhive\n");  // imported
  ImportOptions options;
  options.rejects_path = rejects_path_;
  const ImportStats stats =
      ImportBhiveCsv(csv_path_, corpus_path_, options);
  EXPECT_EQ(stats.rows, 10u);
  EXPECT_EQ(stats.imported, 2u);
  EXPECT_EQ(stats.rejected(), 8u);
  EXPECT_EQ(stats.rejected_by_reason[static_cast<int>(
                ImportRejectReason::kBadRow)],
            5u);
  EXPECT_EQ(stats.rejected_by_reason[static_cast<int>(
                ImportRejectReason::kOperandParse)],
            1u);
  EXPECT_EQ(stats.rejected_by_reason[static_cast<int>(
                ImportRejectReason::kUnknownMnemonic)],
            1u);
  EXPECT_EQ(stats.rejected_by_reason[static_cast<int>(
                ImportRejectReason::kUnsupportedArity)],
            1u);

  // The reject rate is stamped into the corpus header as provenance.
  const CorpusHeader header = StreamingCorpusSource(corpus_path_).header();
  EXPECT_EQ(header.import_rejected_ppm, stats.rejected_ppm());
  EXPECT_EQ(header.import_rejected_ppm, 800000u);

  const std::vector<std::string> lines = ReadRejectLines();
  ASSERT_EQ(lines.size(), 8u);
  EXPECT_NE(lines[0].find("unsupported_arity"), std::string::npos);
  EXPECT_NE(lines[1].find("unknown_mnemonic"), std::string::npos);
  EXPECT_NE(lines[2].find("operand_parse"), std::string::npos);
  EXPECT_NE(lines[2].find("unbalanced brackets"), std::string::npos);
  for (std::size_t i = 3; i < lines.size(); ++i) {
    EXPECT_NE(lines[i].find("bad_row"), std::string::npos) << lines[i];
  }
}

TEST_F(ImporterTest, CsvSplittingQuirks) {
  // Each row pins one corner of the CSV field splitter; the comment says
  // what the splitter makes of it.
  WriteCsv(
      // Whitespace around unquoted fields is stripped.
      "  INC RAX  ,  50.0  ,  bhive  \n"
      // A quote after leading whitespace opens a quoted field.
      "\"DEC RBX\",   \"40.5\"\n"
      // Text after a closing quote is kept, unstripped, in the field.
      "\"NEG RCX\",\"3\"0.25 ,bhive\n"
      // "" inside quotes is one literal quote.
      "\"INC RAX\",50.0,\"bh\"\"ive\"\n"
      "\"MOV RAX, \"\"RBX\"\"\",50.0\n"
      // Text after a closing quote joins the field...
      "\"INC RAX\"x,50.0\n"
      // ...and a later quote is a literal character.
      "\"INC R\"A\"X\",50.0\n"
      // A quote inside an unquoted field is a literal character.
      "IN\"C RAX,50.0\n"
      // Unterminated quotes, in the first and in a later field.
      "\"INC RAX,50.0\n"
      "\"INC RAX\",50.0,\"bhive\n");
  ImportOptions options;
  options.rejects_path = rejects_path_;
  const ImportStats stats =
      ImportBhiveCsv(csv_path_, corpus_path_, options);
  EXPECT_EQ(stats.rows, 10u);
  EXPECT_EQ(stats.imported, 3u);

  const std::vector<Sample> samples = LoadImported();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].block.ToString(), "INC RAX");
  EXPECT_EQ(samples[0].throughput[0], 50.0);
  EXPECT_EQ(samples[1].block.ToString(), "DEC RBX");
  EXPECT_EQ(samples[1].throughput[0], 40.5);
  EXPECT_EQ(samples[2].block.ToString(), "NEG RCX");
  EXPECT_EQ(samples[2].throughput[0], 30.25);

  const std::vector<std::string> expected = {
      "bad_row\trow 4\ttool 'bh\"ive' does not match corpus tool 'BHiveTool'"
      "\t\"INC RAX\",50.0,\"bh\"\"ive\"",
      "operand_parse\trow 5\tline 'MOV RAX, \"RBX\"': unrecognized "
      "operand: \"RBX\"\t\"MOV RAX, \"\"RBX\"\"\",50.0",
      "operand_parse\trow 6\tline 'INC RAXx': unrecognized operand: RAXx"
      "\t\"INC RAX\"x,50.0",
      "operand_parse\trow 7\tline 'INC RA\"X\"': unrecognized operand: "
      "RA\"X\"\t\"INC R\"A\"X\",50.0",
      "unknown_mnemonic\trow 8\tunknown mnemonic IN\"C\tIN\"C RAX,50.0",
      "bad_row\trow 9\tunterminated quoted field\t\"INC RAX,50.0",
      "bad_row\trow 10\tunterminated quoted field\t\"INC RAX\",50.0,"
      "\"bhive",
  };
  EXPECT_EQ(ReadRejectLines(), expected);
}

TEST_F(ImporterTest, RejectSamplingIsCapped) {
  std::ostringstream csv;
  for (int i = 0; i < 10; ++i) csv << "FNORD" << i << " RAX,1.0\n";
  WriteCsv(csv.str());
  ImportOptions options;
  options.rejects_path = rejects_path_;
  options.max_reject_samples = 3;
  const ImportStats stats =
      ImportBhiveCsv(csv_path_, corpus_path_, options);
  EXPECT_EQ(stats.rejected(), 10u);  // counters see every row...
  EXPECT_EQ(ReadRejectLines().size(), 3u);  // ...the file only the cap
}

TEST_F(ImporterTest, ThroughputScaleAndToolAreApplied) {
  WriteCsv("\"MOV RAX, RBX\",50.0\n");
  ImportOptions options;
  options.tool = uarch::MeasurementTool::kIthemalTool;
  options.throughput_scale = 2.5;
  const ImportStats stats =
      ImportBhiveCsv(csv_path_, corpus_path_, options);
  EXPECT_EQ(stats.imported, 1u);
  const CorpusHeader header = StreamingCorpusSource(corpus_path_).header();
  EXPECT_EQ(header.tool, uarch::MeasurementTool::kIthemalTool);
  const std::vector<Sample> samples = LoadImported();
  ASSERT_EQ(samples.size(), 1u);
  for (double label : samples[0].throughput) EXPECT_EQ(label, 125.0);
}

TEST_F(ImporterTest, HexRowsResolveThroughSidecar) {
  WriteCsv(
      "4889d8,81.25\n"
      "4801c3,96.5\n"
      "31c0,77.0\n");
  // Records keyed by hex text, hex text, then 1-based row ordinal.
  WriteSidecar(
      "# sidecar comment\n"
      "@4889d8\n"
      "mov rax, rbx\n"
      "@4801c3\n"
      "add rbx, rax\n"
      "@3\n"
      "xor eax, eax\n");
  ImportOptions options;
  options.disasm_file = sidecar_path_;
  const ImportStats stats =
      ImportBhiveCsv(csv_path_, corpus_path_, options);
  EXPECT_EQ(stats.imported, 3u);
  const std::vector<Sample> samples = LoadImported();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].block.instructions[0].mnemonic, "MOV");
  EXPECT_EQ(samples[1].block.instructions[0].mnemonic, "ADD");
  EXPECT_EQ(samples[2].block.instructions[0].mnemonic, "XOR");
}

TEST_F(ImporterTest, HexRowProblemsAreRejectedRows) {
  // No sidecar configured: the hex row is rejected, the rest import.
  WriteCsv("4889d8,81.25\n\"MOV RAX, RBX\",50.0\n");
  ImportStats stats = ImportBhiveCsv(csv_path_, corpus_path_);
  EXPECT_EQ(stats.imported, 1u);
  EXPECT_EQ(stats.rejected_by_reason[static_cast<int>(
                ImportRejectReason::kBadRow)],
            1u);

  // Key mismatch and sidecar exhaustion are row rejects, not errors.
  WriteCsv("4889d8,81.25\n4801c3,96.5\n");
  WriteSidecar("@deadbeef\nmov rax, rbx\n");
  ImportOptions options;
  options.disasm_file = sidecar_path_;
  stats = ImportBhiveCsv(csv_path_, corpus_path_, options);
  EXPECT_EQ(stats.imported, 0u);
  EXPECT_EQ(stats.rejected(), 2u);
}

TEST_F(ImporterTest, FileLevelFailuresThrowImportError) {
  EXPECT_THROW(
      ImportBhiveCsv("/nonexistent/import.csv", corpus_path_),
      ImportError);

  // Only comments and a header: no data row is a file-level error.
  WriteCsv("# nothing\nblock,throughput\n");
  EXPECT_THROW(ImportBhiveCsv(csv_path_, corpus_path_), ImportError);

  WriteCsv("\"MOV RAX, RBX\",50.0\n");
  ImportOptions options;
  options.disasm_file = "/nonexistent/sidecar.disasm";
  EXPECT_THROW(ImportBhiveCsv(csv_path_, corpus_path_, options),
               ImportError);

  // A sidecar that does not start with an '@key' record is malformed.
  WriteCsv("4889d8,81.25\n");
  WriteSidecar("mov rax, rbx\n");
  options.disasm_file = sidecar_path_;
  EXPECT_THROW(ImportBhiveCsv(csv_path_, corpus_path_, options),
               ImportError);

  EXPECT_THROW(
      [&] {
        ImportOptions bad;
        bad.throughput_scale = 0.0;
        WriteCsv("\"MOV RAX, RBX\",50.0\n");
        ImportBhiveCsv(csv_path_, corpus_path_, bad);
      }(),
      ImportError);
}

TEST_F(ImporterTest, WrittenImmediateRowIsAnUnsupportedForm) {
  // The row's arity is modelled, but ADD writes its immediate operand 0:
  // it lands with the forms the catalog does not model, and the reject
  // line names the slot.
  WriteCsv(
      "\"ADD 5, RAX\",100\n"
      "\"ADD RAX, 5\",100\n");
  ImportOptions options;
  options.rejects_path = rejects_path_;
  const ImportStats stats =
      ImportBhiveCsv(csv_path_, corpus_path_, options);
  EXPECT_EQ(stats.imported, 1u);
  EXPECT_EQ(stats.rejected(), 1u);
  EXPECT_EQ(stats.rejected_by_reason[static_cast<int>(
                ImportRejectReason::kUnsupportedArity)],
            1u);
  const std::vector<std::string> lines = ReadRejectLines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("unsupported_arity"), std::string::npos);
  EXPECT_NE(lines[0].find("ADD operand 0 is written but is an immediate"),
            std::string::npos)
      << lines[0];
}

TEST_F(ImporterTest, RejectedPpmRoundTripsThroughWriterAndReader) {
  {
    CorpusWriter writer(corpus_path_, uarch::MeasurementTool::kBHiveTool,
                        /*generator_seed=*/0);
    Sample sample;
    const assembly::ParseResult<assembly::BasicBlock> block =
        assembly::ParseBasicBlock("MOV RAX, RBX");
    ASSERT_TRUE(block.ok());
    sample.block = *block.value;
    sample.throughput.fill(1.0);
    writer.Append(sample);
    writer.set_import_rejected_ppm(123456);
    writer.Finish();
  }
  // The checksum covers the provenance field like any other byte.
  StreamingCorpusSource verified(corpus_path_);
  EXPECT_EQ(verified.header().import_rejected_ppm, 123456u);

  // Out-of-range rates are rejected at write time and at read time.
  CorpusWriter writer(corpus_path_, uarch::MeasurementTool::kBHiveTool, 0);
  EXPECT_THROW(writer.set_import_rejected_ppm(1000001), CorpusError);
}

TEST_F(ImporterTest, CheckedInSampleImportsUnderFivePercent) {
  const std::string sample =
      std::string(GRANITE_TEST_DATA_DIR) + "/bhive_sample.csv";
  const ImportStats stats = ImportBhiveCsv(sample, corpus_path_);
  EXPECT_EQ(stats.rows, 250u);
  EXPECT_GE(stats.imported, 240u);
  EXPECT_LT(stats.reject_rate(), 0.05);
  // The table-driven semantics catalog accepts the extended-ISA rows
  // appended to the sample, so the reject ppm sits strictly below the
  // 25000 ppm the hand-written catalog scored on this file.
  EXPECT_LT(stats.rejected_ppm(), 25000u);
  // Every reject class is represented in the sample's deliberate tail.
  for (int reason = 0; reason < kNumImportRejectReasons; ++reason) {
    EXPECT_GE(stats.rejected_by_reason[reason], 1u) << reason;
  }
  // The written corpus is a valid, checksummed training input.
  StreamingCorpusSource source(corpus_path_);
  EXPECT_EQ(source.size(), stats.imported);
  EXPECT_EQ(source.header().import_rejected_ppm, stats.rejected_ppm());
}

TEST_F(ImporterTest, CheckedInHexSampleImportsCleanly) {
  const std::string data_dir(GRANITE_TEST_DATA_DIR);
  ImportOptions options;
  options.disasm_file = data_dir + "/bhive_hex_sample.disasm";
  const ImportStats stats = ImportBhiveCsv(
      data_dir + "/bhive_hex_sample.csv", corpus_path_, options);
  EXPECT_EQ(stats.rows, 5u);
  EXPECT_EQ(stats.imported, 5u);
  EXPECT_EQ(stats.rejected(), 0u);
}

}  // namespace
}  // namespace granite::dataset
