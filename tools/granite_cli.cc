/**
 * @file
 * granite_cli — train, evaluate, query and serve throughput models from
 * self-describing checkpoint bundles.
 *
 * Subcommands:
 *   train    Train a model (GRANITE, Ithemal or Ithemal+) on a corpus
 *            file (--dataset-file) or a freshly synthesized corpus,
 *            report held-out metrics and write a checkpoint bundle
 *            (model::SaveModel).
 *   eval     Load a bundle and print Pearson / Spearman / MAPE per task
 *            head against a corpus file (--dataset-file) or a freshly
 *            synthesized held-out corpus.
 *   predict  Load a bundle and print per-task throughput predictions for
 *            a basic block given via --asm or stdin.
 *   serve    Load one or more bundles into a serve::ModelRouter, replay
 *            synthetic client traffic against the named models, and
 *            print per-model per-task serving stats.
 *   autotune Optimize basic blocks with the compiler-in-the-loop beam
 *            search (src/autotune): pessimize each corpus block into a
 *            naive spelling, search rewrites scored by a served bundle
 *            (or the analytical oracle), and report per-block predicted
 *            speedups plus the oracle-verified improved fraction.
 *   inspect  Load a checkpoint bundle (model::LoadModel, so every byte
 *            and the checksum are verified) and print its metadata:
 *            kind, config, vocabulary size, tensor names/shapes.
 *   isa      Inspect the instruction-semantics table: coverage summary,
 *            per-mnemonic lookup (--lookup=ADD), or emit the generated
 *            ISA reference (--doc=docs/ISA.md).
 *   dataset  Corpus-file tooling:
 *     dataset synthesize  Stream a labeled synthetic corpus to disk
 *                         (bounded memory — million-block corpora never
 *                         materialize; dataset::StreamingSynthesisSource
 *                         + dataset::SaveCorpus).
 *     dataset inspect     Validate every record and the checksum of a
 *                         corpus file, as training would read it, then
 *                         print its header.
 *
 * Run `granite_cli help` (or any subcommand with --help) for each
 * command's flags with their types, defaults and ranges. CommandTable()
 * states them once; every flag is parsed and range-checked before a
 * command does any work, and a refused value exits with status 2.
 *
 * Training reads corpora through dataset::BlockSource, so an on-disk
 * corpus streams through an LRU shard window instead of materializing;
 * with the same seed, `train --dataset-file` on a corpus written by
 * `dataset synthesize` produces bit-identical parameters to in-memory
 * synthesis of the same corpus.
 *
 * Task convention: task head i is trained/evaluated against
 * uarch::Microarchitecture(i) (Ivy Bridge, Haswell, Skylake), the
 * paper's task order. Models are trained on cycles-per-iteration targets
 * (--target-scale, default 100) and predictions are reported on the
 * paper's cycles-per-100-iterations scale.
 */
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "asm/isa_doc.h"
#include "asm/parser.h"
#include "asm/semantics.h"
#include "autotune/search.h"
#include "autotune/transforms.h"
#include "base/logging.h"
#include "base/resource_usage.h"
#include "base/string_util.h"
#include "core/granite_model.h"
#include "dataset/block_source.h"
#include "dataset/corpus_io.h"
#include "dataset/dataset.h"
#include "dataset/importer.h"
#include "ithemal/ithemal_model.h"
#include "ithemal/tokenizer.h"
#include "ml/kernels/kernel_backend.h"
#include "ml/kernels/optimized_backend.h"
#include "model/checkpoint.h"
#include "model/config_io.h"
#include "serve/model_router.h"
#include "train/runners.h"
#include "uarch/microarchitecture.h"

namespace {

using granite::model::IntRange;
using granite::model::ThroughputPredictor;

/** What a flag's value must spell; the parse pass refuses anything
 * else with exit 2 before a command does any work. */
enum class FlagType {
  kText,  ///< any string: a path, a route spec, block text
  kInt,   ///< a decimal integer inside the flag's range
  kSeed,  ///< a decimal uint64
  kReal,  ///< a decimal number in (0, range.high]
  kBool,  ///< exactly 0 or 1
  kEnum,  ///< one of the '|'-separated names in the flag's hint
};

/** One flag of one command: its spelling, type, default, range and
 * help. CommandTable() is the only place a flag is described — the usage
 * text, the parse pass and every typed read come from its rows. */
struct FlagSpec {
  const char* name;
  FlagType type;
  const char* hint;  ///< kText: the value placeholder; kEnum: the names
  const char* help;
  std::string fallback;     ///< the default, spelled as on the command line
  IntRange range{0, 0};     ///< kInt; kReal uses only `high`
  bool required = false;    ///< must be given, and not empty
  bool repeatable = false;  ///< may be given more than once
};

FlagSpec Text(const char* name, const char* hint, const char* help) {
  return {name, FlagType::kText, hint, help, ""};
}

FlagSpec Required(FlagSpec flag) {
  flag.required = true;
  return flag;
}

FlagSpec Repeatable(FlagSpec flag) {
  flag.repeatable = true;
  return flag;
}

FlagSpec Int(const char* name, int fallback, IntRange range,
             const char* help) {
  GRANITE_CHECK(range.low >= std::numeric_limits<int>::min() &&
                range.high <= std::numeric_limits<int>::max());
  GRANITE_CHECK(fallback >= range.low && fallback <= range.high);
  return {name, FlagType::kInt, "", help, std::to_string(fallback), range};
}

FlagSpec Seed(std::uint64_t fallback, const char* help) {
  return {"seed", FlagType::kSeed, "", help, std::to_string(fallback)};
}

FlagSpec Real(const char* name, double fallback, std::int64_t high,
              const char* help) {
  GRANITE_CHECK(fallback > 0.0 && fallback <= static_cast<double>(high));
  char spelled[32];
  const auto result =
      std::to_chars(spelled, spelled + sizeof(spelled), fallback);
  return {name, FlagType::kReal, "", help, std::string(spelled, result.ptr),
          {0, high}};
}

FlagSpec Bool(const char* name, bool fallback, const char* help) {
  return {name, FlagType::kBool, "", help, fallback ? "1" : "0"};
}

/** An enum flag; `names` lists its values in the order of the C++ enum
 * that Args::Enum casts the index to. */
FlagSpec Enum(const char* name, const char* names, const char* fallback,
              const char* help) {
  return {name, FlagType::kEnum, names, help, fallback};
}

/** The value placeholder of `flag` in the usage text and in errors. */
std::string Spelling(const FlagSpec& flag) {
  switch (flag.type) {
    case FlagType::kInt:
      return "INT[" + std::to_string(flag.range.low) + "," +
             std::to_string(flag.range.high) + "]";
    case FlagType::kSeed:
      return "U64[0," +
             std::to_string(std::numeric_limits<std::uint64_t>::max()) + "]";
    case FlagType::kReal:
      return "REAL(0," + std::to_string(flag.range.high) + "]";
    case FlagType::kBool:
      return "0|1";
    case FlagType::kText:
    case FlagType::kEnum:
      break;
  }
  return flag.hint;
}

/** One flag's value: as given, or the default when absent. */
struct FlagValue {
  const FlagSpec* spec = nullptr;
  std::vector<std::string> texts;  ///< every given spelling, in order
  std::int64_t integer = 0;        ///< kInt, kBool, kEnum (the index)
  std::uint64_t seed = 0;
  double real = 0.0;
  bool given = false;
};

/** Parses `text` as a value of `value.spec` into `value`; false when
 * the spelling is not of the flag's type or outside its range. */
bool ParseValue(const std::string& text, FlagValue& value) {
  const FlagSpec& flag = *value.spec;
  value.texts.push_back(text);
  switch (flag.type) {
    case FlagType::kText:
      return !(flag.required && text.empty());
    case FlagType::kInt: {
      const auto parsed = granite::ParseDecimal<std::int64_t>(text);
      if (!parsed || *parsed < flag.range.low || *parsed > flag.range.high) {
        return false;
      }
      value.integer = *parsed;
      return true;
    }
    case FlagType::kSeed: {
      const auto parsed = granite::ParseDecimal<std::uint64_t>(text);
      value.seed = parsed.value_or(0);
      return parsed.has_value();
    }
    case FlagType::kReal: {
      const auto parsed = granite::ParseDecimal<double>(text);
      value.real = parsed.value_or(0.0);
      // NaN fails both comparisons.
      return value.real > 0.0 &&
             value.real <= static_cast<double>(flag.range.high);
    }
    case FlagType::kBool:
      value.integer = text == "1";
      return text == "0" || text == "1";
    case FlagType::kEnum: {
      const std::vector<std::string_view> names =
          granite::Split(flag.hint, '|');
      const auto it = std::find(names.begin(), names.end(), text);
      value.integer = it - names.begin();
      return it != names.end();
    }
  }
  return false;
}

struct CommandSpec;

/** Every flag of one command, parsed and range-checked by Parse();
 * absent flags hold their table default. Reading a flag the command
 * does not have, or as the wrong type, is a programming error. */
class Args {
 public:
  /**
   * The one parse pass of a command: every --key=value in argv[first..]
   * must name a flag of `command`, spell a value of its type inside its
   * range, and appear once unless repeatable; every required flag must
   * be given. The first violation is reported and yields nullopt (exit
   * 2).
   */
  static std::optional<Args> Parse(const CommandSpec& command, int argc,
                                   char** argv, int first);

  /** True when the flag was on the command line. */
  bool Given(const char* name) const { return Find(name).given; }
  const std::string& Text(const char* name) const {
    const FlagValue& value = Find(name);
    GRANITE_CHECK(value.spec->type == FlagType::kText ||
                  value.spec->type == FlagType::kEnum);
    return value.texts.back();
  }
  /** Every given value of a repeatable flag, in order. */
  const std::vector<std::string>& Texts(const char* name) const {
    return Find(name, FlagType::kText).texts;
  }
  int Int(const char* name) const {
    return static_cast<int>(Find(name, FlagType::kInt).integer);
  }
  std::uint64_t Seed() const { return Find("seed", FlagType::kSeed).seed; }
  double Real(const char* name) const {
    return Find(name, FlagType::kReal).real;
  }
  bool Bool(const char* name) const {
    return Find(name, FlagType::kBool).integer != 0;
  }
  template <typename E>
  E Enum(const char* name) const {
    return static_cast<E>(Find(name, FlagType::kEnum).integer);
  }

 private:
  const FlagValue& Find(const char* name) const {
    const auto it = values_.find(name);
    GRANITE_CHECK_MSG(it != values_.end(), "no flag --" << name);
    return it->second;
  }
  const FlagValue& Find(const char* name, FlagType type) const {
    const FlagValue& value = Find(name);
    GRANITE_CHECK(value.spec->type == type);
    return value;
  }

  std::map<std::string, FlagValue, std::less<>> values_;
};

/** One command: name (two words for dataset subcommands), one-line
 * summary, its flags and its handler. */
struct CommandSpec {
  const char* name;
  const char* summary;
  std::vector<FlagSpec> flags;
  int (*run)(const Args&);
};

std::optional<Args> Args::Parse(const CommandSpec& command, int argc,
                                char** argv, int first) {
  Args args;
  for (const FlagSpec& flag : command.flags) {
    args.values_[flag.name].spec = &flag;
  }
  const auto fail = [&](const std::string& message) {
    std::fprintf(stderr, "granite_cli %s: %s\n", command.name,
                 message.c_str());
    return std::nullopt;
  };
  for (int i = first; i < argc; ++i) {
    const std::string argument = argv[i];
    const std::size_t separator = argument.find('=');
    if (argument.rfind("--", 0) != 0 || separator == std::string::npos) {
      return fail("flags use --key=value form, got '" + argument + "'");
    }
    const std::string key = argument.substr(2, separator - 2);
    const std::string text = argument.substr(separator + 1);
    const auto it = args.values_.find(key);
    if (it == args.values_.end()) {
      return fail("unknown flag --" + key + " (see granite_cli help)");
    }
    FlagValue& value = it->second;
    if (value.given && !value.spec->repeatable) {
      return fail("--" + key + " is given more than once");
    }
    value.given = true;
    if (!ParseValue(text, value)) {
      return fail("--" + key + " wants " + Spelling(*value.spec) +
                  ", got '" + text + "'");
    }
  }
  for (auto& [key, value] : args.values_) {
    if (value.given) continue;
    if (value.spec->required) return fail("--" + key + " is required");
    GRANITE_CHECK(ParseValue(value.spec->fallback, value));
  }
  return args;
}

/** The smallest corpus `train` splits into its three parts. */
constexpr int kMinTrainBlocks = 16;
/** The block length cap of synthesized corpora: `train`, `eval`, `serve`
 * and `autotune` use it, and `dataset synthesize` defaults to it so that
 * file-based and in-memory runs line up. */
constexpr int kSynthesizedMaxInstructions = 8;

/** `train --model`, in the order of its names in the table. */
enum class ModelFamily { kGranite, kIthemal, kIthemalPlus };

/** Task head i is supervised by Microarchitecture(i). A bundle may hold
 * more heads than there are modelled microarchitectures; --tasks cannot
 * (its table range stops there). */
std::vector<granite::uarch::Microarchitecture> TasksFor(int num_tasks) {
  if (num_tasks < 1 || num_tasks > granite::uarch::kNumMicroarchitectures) {
    std::fprintf(stderr,
                 "granite_cli: task count %d out of range (1..%d)\n",
                 num_tasks, granite::uarch::kNumMicroarchitectures);
    std::exit(2);
  }
  const auto& all = granite::uarch::AllMicroarchitectures();
  return {all.begin(), all.begin() + num_tasks};
}

granite::dataset::Dataset SynthesizeCorpus(std::size_t num_blocks,
                                           uint64_t seed) {
  granite::dataset::SynthesisConfig synthesis;
  synthesis.num_blocks = num_blocks;
  synthesis.seed = seed;
  synthesis.generator.max_instructions = kSynthesizedMaxInstructions;
  return granite::dataset::SynthesizeDataset(synthesis);
}

/** The corpus a command runs on: a streaming file-backed source when
 * --dataset-file is given, else a freshly synthesized in-memory Dataset.
 * Both are BlockSources, so the two paths are interchangeable
 * bit-for-bit given the same samples. */
std::unique_ptr<granite::dataset::BlockSource> MakeCorpusSource(
    const Args& args) {
  const std::string& dataset_file = args.Text("dataset-file");
  if (!dataset_file.empty()) {
    if (args.Given("blocks")) {
      std::fprintf(stderr,
                   "granite_cli: --blocks is ignored with "
                   "--dataset-file (the file fixes the corpus)\n");
    }
    auto streaming =
        std::make_unique<granite::dataset::StreamingCorpusSource>(
            dataset_file);
    std::printf("streaming corpus %s: %llu blocks, %llu shards of %llu "
                "(tool %s, seed %llu)\n",
                dataset_file.c_str(),
                static_cast<unsigned long long>(
                    streaming->header().num_blocks),
                static_cast<unsigned long long>(
                    streaming->header().num_shards),
                static_cast<unsigned long long>(
                    streaming->header().records_per_shard),
                std::string(granite::uarch::MeasurementToolName(
                                streaming->header().tool))
                    .c_str(),
                static_cast<unsigned long long>(
                    streaming->header().generator_seed));
    return streaming;
  }
  return std::make_unique<granite::dataset::Dataset>(SynthesizeCorpus(
      static_cast<std::size_t>(args.Int("blocks")), args.Seed()));
}

int RunTrain(const Args& args) {
  const int steps = args.Int("steps");
  const int num_tasks = args.Int("tasks");
  const uint64_t seed = args.Seed();
  const double target_scale = args.Real("target-scale");

  const std::unique_ptr<granite::dataset::BlockSource> corpus =
      MakeCorpusSource(args);
  if (corpus->size() < kMinTrainBlocks) {
    std::fprintf(stderr,
                 "granite_cli train: corpus has %zu blocks, need >= %d\n",
                 corpus->size(), kMinTrainBlocks);
    return 2;
  }
  // The paper's splits, as index views over the source (no sample is
  // copied).
  const granite::dataset::IndexSplit train_test =
      granite::dataset::SplitIndices(corpus->size(), 0.83, 1);
  const granite::dataset::SubsetBlockSource train_part(corpus.get(),
                                                       train_test.first);
  const granite::dataset::IndexSplit inner =
      granite::dataset::SplitIndices(train_part.size(), 0.98, 2);
  const granite::dataset::SubsetBlockSource train_source(&train_part,
                                                         inner.first);
  const granite::dataset::SubsetBlockSource validation_source(
      &train_part, inner.second);
  const granite::dataset::SubsetBlockSource test_source(
      corpus.get(), train_test.second);

  granite::train::TrainerConfig trainer_config;
  trainer_config.num_steps = steps;
  trainer_config.batch_size = args.Int("batch-size");
  trainer_config.adam.learning_rate = 0.008f;
  trainer_config.final_learning_rate = 0.0008f;
  trainer_config.target_scale = target_scale;
  trainer_config.tasks = TasksFor(num_tasks);
  trainer_config.validation_every = std::max(1, steps / 4);
  trainer_config.verbose = args.Bool("verbose");
  trainer_config.seed = seed + 1;

  // Initialize decoder biases at the mean target so the scaled-down
  // schedules converge quickly: GRANITE's decoders predict each
  // instruction's share, so theirs start at the per-instruction mean;
  // the Ithemal decoders predict the whole block, so theirs start at the
  // per-block mean.
  // One pass gathers both statistics: each Get() yields block and labels
  // together, and a second pass over a shuffled streaming subset would
  // re-page the whole shard window again.
  double target_sum = 0.0;
  std::size_t instruction_sum = 0;
  const int first_task = static_cast<int>(trainer_config.tasks[0]);
  for (std::size_t i = 0; i < train_source.size(); ++i) {
    const granite::dataset::SampleView view = train_source.Get(i);
    target_sum += (*view.throughput)[first_task];
    instruction_sum += view.block->instructions.size();
  }
  const double train_count = static_cast<double>(train_source.size());
  const double mean_target = target_sum / train_count / target_scale;
  const double mean_instructions = std::max(
      1.0, static_cast<double>(instruction_sum) / train_count);

  std::unique_ptr<granite::train::ModelRunner> runner;
  const ModelFamily family = args.Enum<ModelFamily>("model");
  if (family == ModelFamily::kGranite) {
    granite::core::GraniteConfig config =
        granite::core::GraniteConfig().WithEmbeddingSize(
            args.Int("embedding"));
    config.message_passing_iterations = args.Int("mp-iterations");
    config.num_tasks = num_tasks;
    config.decoder_output_bias_init =
        static_cast<float>(mean_target / mean_instructions);
    config.seed = seed + 2;
    runner = std::make_unique<granite::train::ModelRunner>(config,
                                                           trainer_config);
  } else {
    granite::ithemal::IthemalConfig config =
        granite::ithemal::IthemalConfig().WithEmbeddingSize(
            args.Int("embedding"));
    config.decoder = family == ModelFamily::kIthemal
                         ? granite::ithemal::DecoderKind::kDotProduct
                         : granite::ithemal::DecoderKind::kMlp;
    config.num_tasks = num_tasks;
    config.decoder_output_bias_init = static_cast<float>(mean_target);
    config.seed = seed + 2;
    runner = std::make_unique<granite::train::ModelRunner>(config,
                                                           trainer_config);
  }

  const auto& kernels = static_cast<const granite::ml::OptimizedBackend&>(
      granite::ml::GetKernelBackend(
          granite::ml::KernelBackendKind::kOptimized));
  std::printf("training %s (%zu weights, %d task(s)) on %zu blocks for "
              "%d steps with %s kernels...\n",
              args.Text("model").c_str(),
              runner->model().parameters().TotalWeights(), num_tasks,
              train_source.size(), steps, kernels.isa());
  const granite::train::TrainingResult result =
      runner->Train(train_source, validation_source);
  std::printf("final training loss: %.4f\n", result.final_train_loss);

  for (int task = 0; task < num_tasks; ++task) {
    const granite::train::EvaluationResult eval =
        runner->Evaluate(test_source, task);
    std::printf("task %d (%s): mape=%.1f%% pearson=%.3f spearman=%.3f "
                "(%zu held-out blocks)\n",
                task,
                std::string(granite::uarch::MicroarchitectureName(
                                trainer_config.tasks[task]))
                    .c_str(),
                100.0 * eval.mape, eval.pearson, eval.spearman,
                eval.count);
  }

  runner->Save(args.Text("out"));
  std::printf("wrote checkpoint bundle: %s\n", args.Text("out").c_str());
  return 0;
}

int RunEval(const Args& args) {
  std::unique_ptr<ThroughputPredictor> loaded =
      granite::model::LoadModel(args.Text("model-file"));
  std::printf("loaded %s model, %d task(s), %zu weights\n",
              std::string(granite::model::ModelKindName(loaded->kind()))
                  .c_str(),
              loaded->num_tasks(), loaded->parameters().TotalWeights());

  granite::train::TrainerConfig eval_config;
  eval_config.tasks = TasksFor(loaded->num_tasks());
  eval_config.target_scale = args.Real("target-scale");
  const int num_tasks = loaded->num_tasks();
  const std::unique_ptr<granite::dataset::BlockSource> corpus =
      MakeCorpusSource(args);
  granite::train::ModelRunner runner(std::move(loaded), eval_config);
  for (int task = 0; task < num_tasks; ++task) {
    const granite::train::EvaluationResult eval =
        runner.Evaluate(*corpus, task);
    std::printf("task %d (%s): mape=%.1f%% pearson=%.3f spearman=%.3f "
                "(%zu blocks)\n",
                task,
                std::string(granite::uarch::MicroarchitectureName(
                                eval_config.tasks[task]))
                    .c_str(),
                100.0 * eval.mape, eval.pearson, eval.spearman,
                eval.count);
  }
  return 0;
}

int RunPredict(const Args& args) {
  std::string text = args.Text("asm");
  if (text.empty()) {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    text = buffer.str();
  }
  // Accept ';' as an instruction separator so one-liners work in --asm.
  for (char& character : text) {
    if (character == ';') character = '\n';
  }
  const auto parsed = granite::assembly::ParseBasicBlock(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "granite_cli predict: parse error: %s\n",
                 parsed.error.c_str());
    return 1;
  }
  if (const auto unencodable =
          granite::assembly::CheckEncodable(*parsed.value)) {
    std::fprintf(stderr, "granite_cli predict: cannot encode block: %s\n",
                 unencodable->message.c_str());
    return 2;
  }

  const std::unique_ptr<ThroughputPredictor> loaded =
      granite::model::LoadModel(args.Text("model-file"));
  const std::vector<std::vector<double>> predictions =
      loaded->PredictBatchAllTasks({&*parsed.value});
  const auto tasks = TasksFor(loaded->num_tasks());
  std::printf("block (%zu instructions):\n",
              parsed.value->instructions.size());
  for (int task = 0; task < loaded->num_tasks(); ++task) {
    std::printf("  task %d (%s): %.2f cycles/100 iterations\n", task,
                std::string(granite::uarch::MicroarchitectureName(
                                tasks[task]))
                    .c_str(),
                predictions[0][task] * args.Real("target-scale"));
  }
  return 0;
}

/** The server knobs `serve` and `autotune` share: --shards (workers and
 * request-queue shards are 1:1), --batch-size, --cache. */
granite::serve::InferenceServerConfig ServerConfigFrom(const Args& args) {
  granite::serve::InferenceServerConfig config;
  config.num_workers = args.Int("shards");
  config.max_batch_size = args.Int("batch-size");
  config.prediction_cache_capacity =
      static_cast<std::size_t>(args.Int("cache"));
  return config;
}

int RunServe(const Args& args) {
  const int requests = args.Int("requests");
  granite::serve::InferenceServerConfig server_config =
      ServerConfigFrom(args);
  // autotune scores only through SubmitMany, whose groups never wait for
  // the window, so only serve has a window to set.
  server_config.batch_window =
      std::chrono::microseconds{args.Int("window-us")};

  // The shapes of --split=NAME=A:B:WEIGHT and --shadow=ROUTE=PATH, and
  // the route names they and --model-file give, are checked before any
  // bundle loads.
  granite::serve::RouterSetup setup{.server_config = server_config};
  if (args.Given("split")) {
    const std::string& spec = args.Text("split");
    const std::size_t equals = spec.find('=');
    const std::vector<std::string_view> arms =
        granite::Split(std::string_view(spec).substr(equals + 1), ':');
    // NaN fails both comparisons.
    const double weight_a =
        arms.size() == 3
            ? granite::ParseDecimal<double>(arms[2]).value_or(-1.0)
            : -1.0;
    if (equals == std::string::npos || !(weight_a >= 0.0 && weight_a <= 1.0)) {
      std::fprintf(stderr,
                   "granite_cli serve: --split wants NAME=A:B:WEIGHT with "
                   "WEIGHT a number in [0, 1], got '%s'\n",
                   spec.c_str());
      return 2;
    }
    setup.splits.push_back({spec.substr(0, equals), std::string(arms[0]),
                            std::string(arms[1]), weight_a});
  }
  std::string shadow_route;
  std::string shadow_path;
  if (args.Given("shadow")) {
    const std::string& spec = args.Text("shadow");
    const std::size_t separator = spec.find('=');
    if (separator == std::string::npos) {
      std::fprintf(stderr,
                   "granite_cli serve: --shadow wants ROUTE=PATH, got "
                   "'%s'\n",
                   spec.c_str());
      return 2;
    }
    shadow_route = spec.substr(0, separator);
    shadow_path = spec.substr(separator + 1);
  }
  // --model-file=NAME=PATH names the route; bare PATH uses the file
  // stem (checkpoints/granite.gmb → "granite").
  std::vector<std::string> paths;
  for (const std::string& entry : args.Texts("model-file")) {
    const std::size_t separator = entry.find('=');
    if (separator != std::string::npos) {
      setup.models.push_back({entry.substr(0, separator), nullptr});
      paths.push_back(entry.substr(separator + 1));
      continue;
    }
    const std::size_t slash = entry.find_last_of('/');
    const std::size_t stem = slash == std::string::npos ? 0 : slash + 1;
    const std::size_t dot = entry.find('.', stem);
    setup.models.push_back({entry.substr(stem, dot == std::string::npos
                                                   ? std::string::npos
                                                   : dot - stem),
                            nullptr});
    paths.push_back(entry);
  }
  // main() reports a refused name as a usage error.
  granite::serve::CheckRouteNames(setup);
  const auto shadowed = std::find_if(
      setup.models.begin(), setup.models.end(),
      [&shadow_route](const granite::serve::ModelRoute& route) {
        return route.name == shadow_route;
      });
  if (args.Given("shadow") && shadowed == setup.models.end()) {
    std::fprintf(stderr,
                 "granite_cli serve: --shadow route '%s' is not a model "
                 "route\n",
                 shadow_route.c_str());
    return 2;
  }

  std::vector<std::pair<std::string, int>> models;  // name → num_tasks
  for (std::size_t i = 0; i < paths.size(); ++i) {
    granite::serve::ModelRoute& route = setup.models[i];
    route.model = granite::model::LoadModel(paths[i]);
    std::printf("serving '%s' (%s, %d task(s)) from %s\n", route.name.c_str(),
                std::string(granite::model::ModelKindName(route.model->kind()))
                    .c_str(),
                route.model->num_tasks(), paths[i].c_str());
    models.emplace_back(route.name, route.model->num_tasks());
  }

  // --split=NAME=A:B:WEIGHT registers a weighted A/B split over two
  // loaded routes and includes it in the replayed traffic.
  for (const granite::serve::SplitRoute& split : setup.splits) {
    std::printf("split '%s': %s:%s weight_a=%.3f\n", split.name.c_str(),
                split.route_a.c_str(), split.route_b.c_str(), split.weight_a);
    // Split traffic exercises both arms; cap tasks at the smaller head.
    int split_tasks = 0;
    for (const auto& [name, num_tasks] : models) {
      if (name == split.route_a || name == split.route_b) {
        split_tasks = split_tasks == 0 ? num_tasks
                                       : std::min(split_tasks, num_tasks);
      }
    }
    models.emplace_back(split.name, std::max(split_tasks, 1));
  }

  // --shadow=ROUTE=PATH starts a canary session: traffic on ROUTE is
  // mirrored to the bundle at PATH, compared (never returned), and the
  // candidate is promoted on parity unless --promote=0, which only
  // reports the verdict.
  if (args.Given("shadow")) {
    shadowed->shadow.min_comparisons =
        static_cast<uint64_t>(args.Int("shadow-samples"));
    shadowed->shadow.auto_promote = args.Bool("promote");
    shadowed->shadow.server_config = server_config;
    shadowed->candidate = granite::model::LoadModel(shadow_path);
    std::printf("shadowing '%s' with %s (%llu samples, %s)\n",
                shadow_route.c_str(), shadow_path.c_str(),
                static_cast<unsigned long long>(
                    shadowed->shadow.min_comparisons),
                shadowed->shadow.auto_promote
                    ? "auto-promote"
                    : "verdict only, never promoted");
  }
  // main() reports a setup the router refuses (a shadow candidate with
  // other task heads) as a usage error.
  granite::serve::ModelRouter router(std::move(setup));

  const granite::dataset::Dataset corpus = SynthesizeCorpus(
      static_cast<std::size_t>(args.Int("blocks")), args.Seed());
  const std::vector<const granite::assembly::BasicBlock*> blocks =
      corpus.Blocks();

  // A few client threads spread requests over models, blocks and tasks.
  constexpr int kClients = 2;
  std::vector<std::thread> clients;
  std::atomic<int> answered{0};
  std::atomic<int> failed{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<std::future<double>> futures;
      for (int r = c; r < requests; r += kClients) {
        const auto& [name, num_tasks] = models[r % models.size()];
        auto future = router.Submit(
            name, blocks[(c * 13 + r) % blocks.size()], r % num_tasks);
        if (future.has_value()) futures.push_back(std::move(*future));
      }
      for (std::future<double>& future : futures) {
        // A failed batch (e.g. bad_alloc in a forward pass) surfaces
        // through the future; report it instead of std::terminate-ing
        // the CLI from a client thread.
        try {
          future.get();
          ++answered;
        } catch (const std::exception&) {
          ++failed;
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  router.Shutdown();

  std::printf("\nanswered %d/%d requests (%d failed)\n\n", answered.load(),
              requests, failed.load());
  std::printf("%s", router.StatsString().c_str());
  return 0;
}

/**
 * The compiler-in-the-loop entry point: optimize every corpus block
 * with autotune::BlockOptimizer, scoring candidates on a served cost
 * model (--model-file spins up an InferenceServer) or, without a
 * bundle, on the analytical oracle. By default each input block is
 * first run through autotune::DeoptimizeBlock (--pessimize rewrites) to
 * synthesize the naive-codegen spelling the search then has to win
 * back; --pessimize=0 optimizes the corpus as-is. The summary reports
 * the improved fraction as judged by the *analytical oracle* (not the
 * searched model), so a trained model's wins are independently checked.
 */
int RunAutotune(const Args& args) {
  const int task = args.Int("task");
  const int pessimize = args.Int("pessimize");

  const auto microarchitecture =
      static_cast<granite::uarch::Microarchitecture>(task);
  const granite::uarch::ThroughputModel oracle(microarchitecture);

  // Collect the input corpus: oracle-supported blocks only (the
  // transform catalog cannot reason about unknown instructions).
  const std::unique_ptr<granite::dataset::BlockSource> corpus =
      MakeCorpusSource(args);
  std::vector<granite::assembly::BasicBlock> inputs;
  std::size_t unsupported = 0;
  for (std::size_t i = 0; i < corpus->size(); ++i) {
    const granite::assembly::BasicBlock& block =
        *corpus->Get(i).block;
    if (granite::assembly::CheckEncodable(block).has_value()) {
      ++unsupported;
      continue;
    }
    inputs.push_back(pessimize > 0
                         ? granite::autotune::DeoptimizeBlock(
                               block, oracle, pessimize)
                         : block);
  }
  if (unsupported > 0) {
    std::printf("skipped %zu blocks with catalog-unsupported "
                "instructions\n",
                unsupported);
  }
  if (inputs.empty()) {
    std::fprintf(stderr, "granite_cli autotune: no usable blocks\n");
    return 2;
  }

  // Cost backend: a served bundle when given, else the oracle itself.
  std::unique_ptr<ThroughputPredictor> loaded;
  std::unique_ptr<granite::serve::InferenceServer> server;
  std::unique_ptr<granite::autotune::CostClient> client;
  const std::string& model_file = args.Text("model-file");
  if (!model_file.empty()) {
    loaded = granite::model::LoadModel(model_file);
    if (task >= loaded->num_tasks()) {
      std::fprintf(stderr,
                   "granite_cli autotune: --task=%d but the bundle has "
                   "%d task head(s)\n",
                   task, loaded->num_tasks());
      return 2;
    }
    const granite::serve::InferenceServerConfig server_config =
        ServerConfigFrom(args);
    server = std::make_unique<granite::serve::InferenceServer>(
        loaded.get(), server_config);
    client = std::make_unique<granite::autotune::ServerCostClient>(
        server.get(), task);
    std::printf("scoring on served %s bundle %s (task %d, %d shard(s), "
                "batch %d)\n",
                std::string(
                    granite::model::ModelKindName(server->model().kind()))
                    .c_str(),
                model_file.c_str(), task, server_config.num_workers,
                server_config.max_batch_size);
  } else {
    client = std::make_unique<granite::autotune::AnalyticalCostClient>(
        microarchitecture);
    std::printf("scoring with the analytical oracle (no --model-file)\n");
  }

  granite::autotune::SearchConfig search_config;
  search_config.beam_width = args.Int("beam");
  search_config.max_depth = args.Int("depth");
  search_config.deadline = std::chrono::milliseconds{args.Int("deadline-ms")};
  granite::autotune::BlockOptimizer optimizer(client.get(), search_config);

  std::size_t model_improved = 0;
  std::size_t oracle_improved = 0;
  std::size_t unscored = 0;
  std::size_t generated = 0, scored = 0, deduped = 0, rejected = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const granite::autotune::OptimizeResult result =
        optimizer.Optimize(inputs[i]);
    generated += result.candidates_generated;
    scored += result.candidates_scored;
    deduped += result.duplicates_skipped;
    rejected += result.rejected;
    if (!result.scored) {
      ++unscored;
      std::printf("block %zu: backend rejected the request\n", i);
      continue;
    }
    const double oracle_before = oracle.CyclesPerIteration(inputs[i]);
    const double oracle_after = oracle.CyclesPerIteration(result.best);
    if (result.improved) ++model_improved;
    if (oracle_after < oracle_before - 1e-9) ++oracle_improved;
    std::string rules;
    for (const std::string& rule : result.applied) {
      if (!rules.empty()) rules += "+";
      rules += rule;
    }
    std::printf("block %3zu: %2zu instr  cost %8.4f -> %8.4f (x%.2f)  "
                "oracle %5.2f -> %5.2f cyc%s%s\n",
                i, inputs[i].instructions.size(), result.original_cost,
                result.best_cost, result.predicted_speedup, oracle_before,
                oracle_after, rules.empty() ? "" : "  via ",
                rules.c_str());
    if (args.Bool("verbose") && result.improved) {
      std::printf("--- input:\n%s--- optimized:\n%s",
                  inputs[i].ToString().c_str(),
                  result.best.ToString().c_str());
    }
  }

  const std::size_t judged = inputs.size() - unscored;
  std::printf("\noptimized %zu blocks: %zu improved per cost model "
              "(%.1f%%)\n",
              judged, model_improved,
              judged == 0 ? 0.0 : 100.0 * model_improved / judged);
  std::printf("improved %zu / %zu blocks (%.1f%%) per analytical oracle\n",
              oracle_improved, judged,
              judged == 0 ? 0.0 : 100.0 * oracle_improved / judged);
  std::printf("candidates: %zu generated, %zu scored, %zu deduped "
              "in-wave, %zu rejected\n",
              generated, scored, deduped, rejected);
  if (server != nullptr) {
    const granite::serve::ServerStats stats = server->Stats();
    std::printf("server: cache hit rate %.1f%%, %llu completed, "
                "mean batch occupancy %.2f, qps %.0f\n",
                100.0 * stats.cache_hit_rate,
                static_cast<unsigned long long>(stats.completed),
                stats.mean_batch_occupancy, stats.qps);
    server->Shutdown();
  }
  return 0;
}

int RunInspect(const Args& args) {
  const std::string& path = args.Text("model-file");
  const std::unique_ptr<granite::model::ThroughputPredictor> model =
      granite::model::LoadModel(path);
  const auto& tensors = model->parameters().parameters();
  std::printf("checkpoint bundle: %s\n", path.c_str());
  std::printf("  format version:  %u\n",
              granite::model::kBundleFormatVersion);
  std::printf("  model kind:      %s\n",
              std::string(granite::model::ModelKindName(model->kind()))
                  .c_str());
  std::printf("  vocabulary size: %zu tokens\n",
              model->vocabulary().tokens().size());
  std::printf("  tensors:         %zu (%zu weights)\n", tensors.size(),
              model->parameters().TotalWeights());
  std::printf("  file size:       %llu bytes\n",
              static_cast<unsigned long long>(
                  std::filesystem::file_size(path)));
  std::printf("  config:          %s\n", model->DescribeConfig().c_str());
  if (args.Bool("tensors")) {
    std::printf("  tensor shapes:\n");
    for (const auto& tensor : tensors) {
      std::printf("    %-40s %6d x %-6d\n", tensor->name.c_str(),
                  tensor->value.rows(), tensor->value.cols());
    }
  }
  return 0;
}

/** The header of the corpus at `path`, once it has opened: every record
 * and the checksum are checked as training would read them, with one
 * shard resident. Throws dataset::CorpusError. */
granite::dataset::CorpusHeader OpenedCorpusHeader(const std::string& path) {
  granite::dataset::StreamingCorpusOptions options;
  options.cache_shards = 1;
  return granite::dataset::StreamingCorpusSource(path, options).header();
}

int RunDatasetSynthesize(const Args& args) {
  const std::string& out = args.Text("out");
  const int num_blocks = args.Int("blocks");
  const uint64_t seed = args.Seed();
  const int shard_size = args.Int("shard-size");
  const auto tool = args.Enum<granite::uarch::MeasurementTool>("tool");

  granite::dataset::SynthesisConfig synthesis;
  synthesis.num_blocks = static_cast<std::size_t>(num_blocks);
  synthesis.seed = seed;
  synthesis.tool = tool;
  synthesis.generator.max_instructions = args.Int("max-instructions");

  // Lazy synthesis + streaming writer: memory stays bounded by the
  // shard window regardless of corpus size. A small cache suffices —
  // the write pass touches each shard exactly once, in order.
  granite::dataset::StreamingSynthesisOptions options;
  options.records_per_shard = static_cast<std::size_t>(shard_size);
  options.cache_shards = 2;
  std::printf("planning %d blocks (seed %llu, tool %s)...\n", num_blocks,
              static_cast<unsigned long long>(seed),
              args.Text("tool").c_str());
  const granite::dataset::StreamingSynthesisSource source(synthesis,
                                                          options);
  granite::dataset::SaveCorpus(source, out, tool, seed,
                               static_cast<std::uint64_t>(shard_size));

  const granite::dataset::CorpusHeader header = OpenedCorpusHeader(out);
  std::printf("wrote corpus %s: %llu blocks in %llu shards of %llu\n",
              out.c_str(),
              static_cast<unsigned long long>(header.num_blocks),
              static_cast<unsigned long long>(header.num_shards),
              static_cast<unsigned long long>(header.records_per_shard));
  const double rss = granite::base::PeakRssMb();
  if (rss > 0.0) {
    std::printf("peak RSS: %.1f MB (bounded by the shard window + dedup "
                "fingerprints, not the corpus)\n",
                rss);
  }
  return 0;
}

int RunDatasetImport(const Args& args) {
  const std::string& csv = args.Text("csv");
  const std::string& out = args.Text("out");
  granite::dataset::ImportOptions options;
  options.tool = args.Enum<granite::uarch::MeasurementTool>("tool");
  options.throughput_scale = args.Real("throughput-scale");
  options.records_per_shard =
      static_cast<std::uint64_t>(args.Int("shard-size"));
  options.disasm_file = args.Text("disasm-file");
  options.rejects_path = args.Text("rejects-out");
  options.max_reject_samples =
      static_cast<std::size_t>(args.Int("max-reject-samples"));

  const granite::dataset::ImportStats stats =
      granite::dataset::ImportBhiveCsv(csv, out, options);

  std::printf("imported %llu / %llu rows from %s\n",
              static_cast<unsigned long long>(stats.imported),
              static_cast<unsigned long long>(stats.rows), csv.c_str());
  std::printf("unparseable rate: %.4f%% (%llu rejected rows)\n",
              100.0 * stats.reject_rate(),
              static_cast<unsigned long long>(stats.rejected()));
  for (int reason = 0; reason < granite::dataset::kNumImportRejectReasons;
       ++reason) {
    if (stats.rejected_by_reason[reason] == 0) continue;
    std::printf(
        "  %-18s %llu\n",
        std::string(granite::dataset::ImportRejectReasonName(
                        static_cast<granite::dataset::ImportRejectReason>(
                            reason)))
            .c_str(),
        static_cast<unsigned long long>(stats.rejected_by_reason[reason]));
  }
  if (!options.rejects_path.empty() && stats.rejected() > 0) {
    std::printf("rejected rows sampled into %s\n",
                options.rejects_path.c_str());
  }
  if (stats.imported == 0) {
    std::fprintf(stderr,
                 "granite_cli dataset import: every row was rejected; no "
                 "usable corpus\n");
    return 1;
  }
  const granite::dataset::CorpusHeader header = OpenedCorpusHeader(out);
  std::printf("wrote corpus %s: %llu blocks in %llu shards of %llu "
              "(tool %s)\n",
              out.c_str(),
              static_cast<unsigned long long>(header.num_blocks),
              static_cast<unsigned long long>(header.num_shards),
              static_cast<unsigned long long>(header.records_per_shard),
              args.Text("tool").c_str());
  return 0;
}

int RunDatasetInspect(const Args& args) {
  const std::string& path = args.Text("file");
  const granite::dataset::CorpusHeader header = OpenedCorpusHeader(path);
  std::printf("records and checksum verified: OK\n");
  std::printf("corpus file: %s\n", path.c_str());
  std::printf("  format version:    %u\n", header.version);
  std::printf("  measurement tool:  %s\n",
              std::string(granite::uarch::MeasurementToolName(header.tool))
                  .c_str());
  std::printf("  labels per record: %u\n", header.num_labels);
  std::printf("  generator seed:    %llu\n",
              static_cast<unsigned long long>(header.generator_seed));
  std::printf("  unparseable rate:  %.4f%% (%u ppm rejected at import)\n",
              header.import_rejected_ppm / 1e4, header.import_rejected_ppm);
  std::printf("  blocks:            %llu\n",
              static_cast<unsigned long long>(header.num_blocks));
  std::printf("  records per shard: %llu\n",
              static_cast<unsigned long long>(header.records_per_shard));
  std::printf("  shards:            %llu\n",
              static_cast<unsigned long long>(header.num_shards));
  return 0;
}

/**
 * The `isa` subcommand. --lookup and --doc compose (each runs in that
 * order); with no flags, prints the coverage summary.
 */
int RunIsa(const Args& args) {
  bool acted = false;
  if (args.Given("lookup")) {
    const std::string& mnemonic = args.Text("lookup");
    const std::string text = granite::assembly::RenderIsaLookup(mnemonic);
    if (text.empty()) {
      std::fprintf(stderr,
                   "granite_cli isa: unknown mnemonic '%s' (the table in "
                   "src/asm/semantics.cc has no row for it)\n",
                   mnemonic.c_str());
      return 1;
    }
    std::fputs(text.c_str(), stdout);
    acted = true;
  }
  if (args.Given("doc")) {
    const std::string& path = args.Text("doc");
    const std::string doc = granite::assembly::RenderIsaReference();
    if (path == "-") {
      std::fputs(doc.c_str(), stdout);
    } else {
      std::ofstream file(path, std::ios::trunc | std::ios::binary);
      file << doc;
      file.close();
      if (!file.good()) {
        std::fprintf(stderr, "granite_cli isa: cannot write %s\n",
                     path.c_str());
        return 1;
      }
      std::printf("wrote %s (%zu bytes)\n", path.c_str(), doc.size());
    }
    acted = true;
  }
  if (!acted) std::fputs(granite::assembly::RenderIsaSummary().c_str(),
                         stdout);
  return 0;
}

constexpr bool Within(IntRange inner, IntRange outer) {
  return inner.low >= outer.low && inner.high <= outer.high;
}

const std::vector<CommandSpec>& CommandTable() {
  using granite::model::kCountRange;
  using granite::model::kWidthRange;
  // --embedding stops inside the bundle loader's width range, so a typo
  // cannot ask for a 16 GiB matrix; --tasks stops at the modelled
  // microarchitectures.
  constexpr IntRange kEmbedding{1, 4096};
  constexpr IntRange kTasks{1, granite::uarch::kNumMicroarchitectures};
  static_assert(Within(kEmbedding, kWidthRange));
  static_assert(Within(kTasks, kCountRange));
  constexpr IntRange kBlocks{1, 1000000};
  constexpr IntRange kLargeCount{1, 100000000};
  constexpr IntRange kBatch{1, 100000};
  constexpr IntRange kShards{1, 256};
  constexpr IntRange kWindowUs{0, 60000000};
  constexpr IntRange kCache{0, 100000000};
  constexpr IntRange kShardSize{1, 1 << 24};
  // Label scales: cycles per N iterations, N at most a million.
  constexpr std::int64_t kScale = 1000000;
  constexpr int kRecordsPerShard =
      static_cast<int>(granite::dataset::kDefaultRecordsPerShard);
  // In the order of uarch::MeasurementTool, which Args::Enum casts to.
  constexpr const char* kTools = "ithemal|bhive";
  static_assert(static_cast<int>(
                    granite::uarch::MeasurementTool::kBHiveTool) == 1);
  const FlagSpec dataset_file = Text(
      "dataset-file", "PATH", "corpus file (else synthesized from --blocks)");

  static const std::vector<CommandSpec>* table = new std::vector<
      CommandSpec>{
      {"train",
       "train a model and write a checkpoint bundle",
       {Required(Text("out", "PATH", "output checkpoint bundle")),
        Enum("model", "granite|ithemal|ithemal_plus", "granite",
             "model family"),
        dataset_file,
        Int("blocks", 160, {kMinTrainBlocks, kBlocks.high},
            "synthesized corpus size"),
        Int("steps", 300, {1, 10000000}, "training steps"),
        Int("tasks", 1, kTasks, "task heads (Microarchitecture order)"),
        Int("embedding", 16, kEmbedding, "embedding width"),
        Int("mp-iterations", 2, kCountRange, "message-passing iterations"),
        Int("batch-size", 16, kBatch, "training batch size"),
        Seed(7, "corpus + init seed"),
        Real("target-scale", 100.0, kScale,
             "cycles-per-N-iterations label scale"),
        Bool("verbose", false, "per-validation progress")},
       RunTrain},
      {"eval",
       "evaluate a bundle per task on a held-out corpus",
       {Required(Text("model-file", "PATH", "checkpoint bundle")),
        dataset_file,
        Int("blocks", 64, kBlocks, "synthesized corpus size"),
        Seed(11, "synthesis seed"),
        Real("target-scale", 100.0, kScale,
             "cycles-per-N-iterations label scale")},
       RunEval},
      {"predict",
       "predict one block's throughput on every task head",
       {Required(Text("model-file", "PATH", "checkpoint bundle")),
        Text("asm", "\"INSTR; INSTR\"", "block text (else read from stdin)"),
        Real("target-scale", 100.0, kScale, "reporting scale")},
       RunPredict},
      {"serve",
       "serve bundles behind a multi-model router",
       {Required(Repeatable(Text("model-file", "[NAME=]PATH", "bundle route"))),
        Int("requests", 400, kLargeCount, "replayed client requests"),
        Int("shards", 2, kShards, "queue/stats shards"),
        Int("batch-size", 16, kBatch, "coalesced batch size"),
        Int("window-us", 2000, kWindowUs, "batching window"),
        Int("cache", 512, kCache, "prediction cache capacity"),
        Int("blocks", 64, kBlocks, "synthesized traffic corpus size"),
        Seed(11, "traffic seed"),
        Text("split", "NAME=A:B:WEIGHT", "weighted A/B split route"),
        Text("shadow", "ROUTE=PATH", "mirror ROUTE to a candidate bundle"),
        Int("shadow-samples", 50, kLargeCount,
            "comparisons before the parity verdict"),
        Bool("promote", true,
             "auto-promote the shadow on parity; 0 only reports the "
             "verdict")},
       RunServe},
      {"autotune",
       "optimize basic blocks with beam search over the served cost model",
       {Text("model-file", "PATH",
             "cost model bundle (else the analytical oracle scores)"),
        dataset_file,
        Int("blocks", 32, kBlocks, "synthesized corpus size"),
        Seed(17, "synthesis seed"),
        Int("beam", 4, {1, 64}, "beam width"),
        Int("depth", 5, {0, 32}, "transform-composition rounds"),
        Int("deadline-ms", 0, {0, 600000},
            "per-block search budget (0 = unlimited)"),
        Int("task", 0, {0, kTasks.high - 1},
            "task head / oracle microarchitecture"),
        Int("pessimize", 3, {0, 16},
            "naive-codegen rewrites applied to each input block first "
            "(0 optimizes the corpus as-is)"),
        Int("shards", 2, kShards, "server shards (with --model-file)"),
        Int("batch-size", 16, kBatch, "server batch size"),
        Int("cache", 4096, kCache, "server prediction cache capacity"),
        Bool("verbose", false, "print optimized block text")},
       RunAutotune},
      {"inspect",
       "load and verify a checkpoint bundle, then print its metadata",
       {Required(Text("model-file", "PATH", "checkpoint bundle")),
        Bool("tensors", false, "list every tensor shape")},
       RunInspect},
      {"isa",
       "inspect the instruction-semantics table (no flags: coverage "
       "summary)",
       {Text("lookup", "MNEMONIC", "print one mnemonic's semantics"),
        Text("doc", "PATH",
             "write the generated ISA reference markdown (- = stdout)")},
       RunIsa},
      {"dataset synthesize",
       "stream a labeled synthetic corpus to disk with bounded memory",
       {Required(Text("out", "PATH", "corpus file")),
        Int("blocks", 100000, kLargeCount, "corpus size"),
        Seed(7, "generator seed"),
        Enum("tool", kTools, "ithemal", "label measurement convention"),
        Int("max-instructions", kSynthesizedMaxInstructions, {1, 256},
            "block length cap"),
        Int("shard-size", kRecordsPerShard, kShardSize, "records per shard")},
       RunDatasetSynthesize},
      {"dataset import",
       "convert a BHive-style measured CSV into a checksummed corpus",
       {Required(Text("csv", "PATH", "input CSV")),
        Required(Text("out", "PATH", "corpus file")),
        Enum("tool", kTools, "bhive", "label measurement convention"),
        Real("throughput-scale", 1.0, kScale, "label rescale on import"),
        Int("shard-size", kRecordsPerShard, kShardSize, "records per shard"),
        Text("disasm-file", "PATH", "disassembly sidecar for raw-hex rows"),
        Text("rejects-out", "PATH", "sampled rejected rows"),
        Int("max-reject-samples", 100, {0, 100000000},
            "cap on sampled rejects")},
       RunDatasetImport},
      {"dataset inspect",
       "validate every record of a corpus and print its header",
       {Required(Text("file", "PATH", "corpus file"))},
       RunDatasetInspect},
  };
  return *table;
}

void PrintUsage() {
  std::printf(
      "granite_cli — throughput-model training, evaluation and serving\n"
      "\n"
      "usage: granite_cli <command> [--key=value ...]\n"
      "\n"
      "commands:\n");
  for (const CommandSpec& command : CommandTable()) {
    std::printf("  %s\n      %s\n", command.name, command.summary);
    for (const FlagSpec& flag : command.flags) {
      const std::string spelled =
          std::string("--") + flag.name + "=" + Spelling(flag);
      std::string help = flag.help;
      if (flag.required) help += " (required)";
      if (flag.repeatable) help += " (repeatable)";
      if (!flag.fallback.empty()) help += " (default " + flag.fallback + ")";
      if (spelled.size() > 28) {
        std::printf("      %s\n      %-28s %s\n", spelled.c_str(), "",
                    help.c_str());
      } else {
        std::printf("      %-28s %s\n", spelled.c_str(), help.c_str());
      }
    }
  }
  std::printf(
      "  help\n      this text\n"
      "\n"
      "INT[a,b] and U64[a,b] take a decimal integer in that closed range,\n"
      "REAL(0,b] a decimal number above 0 and at most b, 0|1 exactly 0 or\n"
      "1, and a|b one of the listed names. Whitespace, '+', hex and a flag\n"
      "given twice (unless repeatable) are refused with exit status 2.\n");
}

/** The table row argv names (one word, or two for dataset subcommands);
 * sets `first` to the index of its first flag. */
const CommandSpec* FindCommand(int argc, char** argv, int& first) {
  for (const CommandSpec& command : CommandTable()) {
    std::string words = argv[1];
    first = 2;
    if (std::strchr(command.name, ' ') != nullptr && argc > 2) {
      words += std::string(" ") + argv[2];
      first = 3;
    }
    if (words == command.name) return &command;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage();
    return 2;
  }
  for (int i = 1; i < argc; ++i) {
    const std::string argument = argv[i];
    if ((i == 1 && argument == "help") || argument == "--help" ||
        argument == "-h") {
      PrintUsage();
      return 0;
    }
  }
  int first = 0;
  const CommandSpec* command = FindCommand(argc, argv, first);
  if (command == nullptr) {
    std::fprintf(stderr, "granite_cli: unknown command '%s'\n", argv[1]);
    PrintUsage();
    return 2;
  }
  const std::optional<Args> args = Args::Parse(*command, argc, argv, first);
  if (!args) return 2;
  try {
    return command->run(*args);
  } catch (const granite::serve::RouterSetupError& error) {
    // A duplicate or colliding route name, a split arm naming no
    // route, a shadow candidate with other task heads: a bad flag.
    std::fprintf(stderr, "granite_cli: %s\n", error.what());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "granite_cli: %s\n", error.what());
    return 1;
  }
}
