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
 *   inspect  Dump a checkpoint bundle's metadata (kind, config,
 *            vocabulary size, tensor names/shapes) from the header,
 *            without constructing the model.
 *   isa      Inspect the instruction-semantics table: coverage summary,
 *            per-mnemonic lookup (--lookup=ADD), emit the generated ISA
 *            reference (--doc=docs/ISA.md), or verify a checked-in copy
 *            against the table (--check=docs/ISA.md, the CI drift gate).
 *   dataset  Corpus-file tooling:
 *     dataset synthesize  Stream a labeled synthetic corpus to disk
 *                         (bounded memory — million-block corpora never
 *                         materialize; dataset::StreamingSynthesisSource
 *                         + dataset::CorpusWriter).
 *     dataset inspect     Print a corpus file's header and stats without
 *                         loading records (--verify=1 adds a full
 *                         checksum pass).
 *
 * Run `granite_cli help` (or any subcommand with --help) for flags.
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
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <future>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "asm/isa_doc.h"
#include "asm/parser.h"
#include "asm/semantics.h"
#include "autotune/search.h"
#include "autotune/transforms.h"
#include "base/resource_usage.h"
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
#include "serve/model_router.h"
#include "train/runners.h"
#include "uarch/microarchitecture.h"

namespace {

using granite::model::ThroughputPredictor;

/** Parsed --key=value flags (last occurrence wins) plus repeatable
 * --model-file values in order. */
struct Flags {
  std::map<std::string, std::string> values;
  std::vector<std::string> model_files;
  bool help = false;

  bool Has(const std::string& key) const { return values.count(key) > 0; }

  std::string GetString(const std::string& key,
                        const std::string& fallback) const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }

  long GetInt(const std::string& key, long fallback) const {
    const auto it = values.find(key);
    if (it == values.end()) return fallback;
    char* end = nullptr;
    errno = 0;
    const long parsed = std::strtol(it->second.c_str(), &end, 10);
    if (end == it->second.c_str() || *end != '\0') {
      std::fprintf(stderr, "granite_cli: --%s wants an integer, got '%s'\n",
                   key.c_str(), it->second.c_str());
      std::exit(2);
    }
    // strtol saturates out-of-range input to LONG_MIN/LONG_MAX.
    if (errno == ERANGE) {
      std::fprintf(stderr, "granite_cli: --%s=%s is out of range\n",
                   key.c_str(), it->second.c_str());
      std::exit(2);
    }
    return parsed;
  }

  /** GetInt with an enforced [low, high] range, so negative or absurd
   * counts fail with a message instead of wrapping through size_t. */
  long GetCount(const std::string& key, long fallback, long low,
                long high) const {
    const long parsed = GetInt(key, fallback);
    if (parsed < low || parsed > high) {
      std::fprintf(stderr,
                   "granite_cli: --%s=%ld out of range [%ld, %ld]\n",
                   key.c_str(), parsed, low, high);
      std::exit(2);
    }
    return parsed;
  }

  /** A non-negative seed, so --seed=-1 fails instead of wrapping to
   * 2^64-1. */
  uint64_t GetSeed(long fallback) const {
    return static_cast<uint64_t>(
        GetCount("seed", fallback, 0, std::numeric_limits<long>::max()));
  }

  /** Rejects flags no subcommand knows, so a typo'd flag cannot
   * silently fall back to a default. */
  void RequireKnown(const std::vector<std::string>& known) const {
    for (const auto& [key, value] : values) {
      bool found = false;
      for (const std::string& candidate : known) {
        if (key == candidate) {
          found = true;
          break;
        }
      }
      if (!found) {
        std::fprintf(stderr,
                     "granite_cli: unknown flag --%s for this command "
                     "(see granite_cli help)\n",
                     key.c_str());
        std::exit(2);
      }
    }
  }

  double GetDouble(const std::string& key, double fallback) const {
    const auto it = values.find(key);
    if (it == values.end()) return fallback;
    char* end = nullptr;
    const double parsed = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0') {
      std::fprintf(stderr, "granite_cli: --%s wants a number, got '%s'\n",
                   key.c_str(), it->second.c_str());
      std::exit(2);
    }
    return parsed;
  }

  /** GetDouble constrained to finite, strictly positive values
   * (scales). */
  double GetPositiveDouble(const std::string& key, double fallback) const {
    const double parsed = GetDouble(key, fallback);
    if (!std::isfinite(parsed) || parsed <= 0.0) {
      std::fprintf(stderr,
                   "granite_cli: --%s must be finite and > 0, got %g\n",
                   key.c_str(), parsed);
      std::exit(2);
    }
    return parsed;
  }
};

Flags ParseFlags(int argc, char** argv, int first) {
  Flags flags;
  for (int i = first; i < argc; ++i) {
    const std::string argument = argv[i];
    if (argument == "--help" || argument == "-h") {
      flags.help = true;
      continue;
    }
    if (argument.rfind("--", 0) != 0) {
      std::fprintf(stderr, "granite_cli: unexpected argument '%s'\n",
                   argument.c_str());
      std::exit(2);
    }
    const std::size_t separator = argument.find('=');
    if (separator == std::string::npos) {
      std::fprintf(stderr,
                   "granite_cli: flags use --key=value form, got '%s'\n",
                   argument.c_str());
      std::exit(2);
    }
    const std::string key = argument.substr(2, separator - 2);
    const std::string value = argument.substr(separator + 1);
    if (key == "model-file") {
      flags.model_files.push_back(value);
    }
    flags.values[key] = value;
  }
  return flags;
}

/** One flag of one subcommand: its spelling, value placeholder, and
 * one-line help. The table below is the single source of truth — both
 * the usage text and each subcommand's known-flag check (RequireKnown)
 * are generated from it, so a flag cannot be accepted but undocumented
 * (or documented but rejected). */
struct FlagSpec {
  const char* name;
  const char* hint;
  const char* help;
};

/** One subcommand: name (two words for dataset subcommands), one-line
 * summary, and its full flag set. */
struct CommandSpec {
  const char* name;
  const char* summary;
  std::vector<FlagSpec> flags;
};

const std::vector<CommandSpec>& CommandTable() {
  static const std::vector<CommandSpec>* table = new std::vector<
      CommandSpec>{
      {"train",
       "train a model and write a checkpoint bundle",
       {{"out", "PATH", "output checkpoint bundle (required)"},
        {"model", "granite|ithemal|ithemal_plus", "model family"},
        {"dataset-file", "PATH",
         "corpus file (else synthesized from --blocks)"},
        {"blocks", "N", "synthesized corpus size"},
        {"steps", "N", "training steps"},
        {"tasks", "1..3", "task heads (Microarchitecture order)"},
        {"embedding", "N", "embedding width"},
        {"mp-iterations", "N", "message-passing iterations"},
        {"batch-size", "N", "training batch size"},
        {"seed", "N", "corpus + init seed"},
        {"target-scale", "S", "cycles-per-N-iterations label scale"},
        {"verbose", "0|1", "per-validation progress"}}},
      {"eval",
       "evaluate a bundle per task on a held-out corpus",
       {{"model-file", "PATH", "checkpoint bundle (required)"},
        {"dataset-file", "PATH",
         "corpus file (else synthesized from --blocks)"},
        {"blocks", "N", "synthesized corpus size"},
        {"seed", "N", "synthesis seed"},
        {"target-scale", "S", "cycles-per-N-iterations label scale"}}},
      {"predict",
       "predict one block's throughput on every task head",
       {{"model-file", "PATH", "checkpoint bundle (required)"},
        {"asm", "\"INSTR; INSTR\"",
         "block text (else read from stdin)"},
        {"target-scale", "S", "reporting scale"}}},
      {"serve",
       "serve bundles behind a multi-model router",
       {{"model-file", "[NAME=]PATH", "bundle route (repeatable, required)"},
        {"requests", "N", "replayed client requests"},
        {"shards", "N", "queue/stats shards"},
        {"batch-size", "N", "coalesced batch size"},
        {"window-us", "N", "batching window"},
        {"cache", "N", "prediction cache capacity"},
        {"blocks", "N", "synthesized traffic corpus size"},
        {"seed", "N", "traffic seed"},
        {"split", "NAME=A:B:WEIGHT", "weighted A/B split route"},
        {"shadow", "ROUTE=PATH", "mirror ROUTE to a candidate bundle"},
        {"shadow-samples", "N", "comparisons before the parity verdict"},
        {"promote", "0|1", "auto-promote the shadow on parity"}}},
      {"autotune",
       "optimize basic blocks with beam search over the served cost model",
       {{"model-file", "PATH",
         "cost model bundle (else the analytical oracle scores)"},
        {"dataset-file", "PATH",
         "corpus file (else synthesized from --blocks)"},
        {"blocks", "N", "synthesized corpus size"},
        {"seed", "N", "synthesis seed"},
        {"beam", "N", "beam width"},
        {"depth", "N", "transform-composition rounds"},
        {"deadline-ms", "N", "per-block search budget (0 = unlimited)"},
        {"task", "0..2", "task head / oracle microarchitecture"},
        {"pessimize", "N",
         "naive-codegen rewrites applied to each input block first "
         "(0 optimizes the corpus as-is)"},
        {"shards", "N", "server shards (with --model-file)"},
        {"batch-size", "N", "server batch size"},
        {"window-us", "N", "server batching window"},
        {"cache", "N", "server prediction cache capacity"},
        {"verbose", "0|1", "print optimized block text"}}},
      {"inspect",
       "dump checkpoint bundle metadata without loading the model",
       {{"model-file", "PATH", "checkpoint bundle (required)"},
        {"tensors", "0|1", "list every tensor shape"}}},
      {"isa",
       "inspect the instruction-semantics table (no flags: coverage "
       "summary)",
       {{"lookup", "MNEMONIC", "print one mnemonic's semantics"},
        {"doc", "PATH|-", "write the generated ISA reference markdown"},
        {"check", "PATH",
         "exit 1 unless PATH matches the generated reference byte for "
         "byte"}}},
      {"dataset synthesize",
       "stream a labeled synthetic corpus to disk with bounded memory",
       {{"out", "PATH", "corpus file (required)"},
        {"blocks", "N", "corpus size (up to 100M)"},
        {"seed", "N", "generator seed"},
        {"tool", "ithemal|bhive", "label measurement convention"},
        {"max-instructions", "N", "block length cap"},
        {"shard-size", "N", "records per shard"},
        {"verbose", "0|1", "per-shard progress"}}},
      {"dataset import",
       "convert a BHive-style measured CSV into a checksummed corpus",
       {{"csv", "PATH", "input CSV (required)"},
        {"out", "PATH", "corpus file (required)"},
        {"tool", "ithemal|bhive", "label measurement convention"},
        {"throughput-scale", "S", "label rescale on import"},
        {"shard-size", "N", "records per shard"},
        {"disasm-file", "PATH", "disassembly sidecar for raw-hex rows"},
        {"rejects-out", "PATH", "sampled rejected rows"},
        {"max-reject-samples", "N", "cap on sampled rejects"}}},
      {"dataset inspect",
       "print corpus header/stats without loading records",
       {{"file", "PATH", "corpus file (required)"},
        {"verify", "0|1", "full checksum pass"}}},
  };
  return *table;
}

/** The table row of `name`; dies if the command is not in the table (a
 * programming error — dispatch and table must agree). */
const CommandSpec& CommandSpecFor(const std::string& name) {
  for (const CommandSpec& command : CommandTable()) {
    if (name == command.name) return command;
  }
  std::fprintf(stderr, "granite_cli: no table entry for command '%s'\n",
               name.c_str());
  std::exit(2);
}

/** The known-flag set of a subcommand, for Flags::RequireKnown. */
std::vector<std::string> KnownFlagsOf(const CommandSpec& command) {
  std::vector<std::string> names;
  names.reserve(command.flags.size());
  for (const FlagSpec& flag : command.flags) names.emplace_back(flag.name);
  return names;
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
          std::string("--") + flag.name + "=" + flag.hint;
      if (spelled.size() > 28) {
        std::printf("      %s\n      %-28s %s\n", spelled.c_str(), "",
                    flag.help);
      } else {
        std::printf("      %-28s %s\n", spelled.c_str(), flag.help);
      }
    }
  }
  std::printf("  help\n      this text\n");
}

/** Task head i is supervised by Microarchitecture(i). */
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
  synthesis.generator.max_instructions = 8;
  return granite::dataset::SynthesizeDataset(synthesis);
}

std::unique_ptr<ThroughputPredictor> LoadBundleOrDie(
    const std::string& path) {
  try {
    return granite::model::LoadModel(path);
  } catch (const granite::model::CheckpointError& error) {
    std::fprintf(stderr, "granite_cli: %s\n", error.what());
    std::exit(1);
  }
}

std::unique_ptr<granite::dataset::StreamingCorpusSource> OpenCorpusOrDie(
    const std::string& path) {
  try {
    return std::make_unique<granite::dataset::StreamingCorpusSource>(path);
  } catch (const granite::dataset::CorpusError& error) {
    std::fprintf(stderr, "granite_cli: %s\n", error.what());
    std::exit(1);
  }
}

/** The corpus a command runs on: a streaming file-backed source when
 * --dataset-file is given, else a freshly synthesized in-memory Dataset.
 * Both are BlockSources, so the two paths are interchangeable
 * bit-for-bit given the same samples. */
std::unique_ptr<granite::dataset::BlockSource> MakeCorpusSource(
    const Flags& flags, long default_blocks, long min_blocks,
    uint64_t seed) {
  const std::string dataset_file = flags.GetString("dataset-file", "");
  if (!dataset_file.empty()) {
    if (flags.Has("blocks")) {
      std::fprintf(stderr,
                   "granite_cli: --blocks is ignored with "
                   "--dataset-file (the file fixes the corpus)\n");
    }
    auto streaming = OpenCorpusOrDie(dataset_file);
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
  const long num_blocks =
      flags.GetCount("blocks", default_blocks, min_blocks, 1000000);
  return std::make_unique<granite::dataset::Dataset>(
      SynthesizeCorpus(static_cast<std::size_t>(num_blocks), seed));
}

/** Builds the evaluation harness around an existing predictor. */
granite::train::TrainerConfig EvalConfig(const ThroughputPredictor& model,
                                         double target_scale) {
  granite::train::TrainerConfig config;
  config.tasks = TasksFor(model.num_tasks());
  config.target_scale = target_scale;
  return config;
}

int RunTrain(const Flags& flags) {
  flags.RequireKnown(KnownFlagsOf(CommandSpecFor("train")));
  const std::string out = flags.GetString("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "granite_cli train: --out=PATH is required\n");
    return 2;
  }
  const std::string model_name = flags.GetString("model", "granite");
  const int steps = static_cast<int>(flags.GetCount("steps", 300, 1,
                                                    10000000));
  const int num_tasks = static_cast<int>(flags.GetCount("tasks", 1, 1, 3));
  const int embedding =
      static_cast<int>(flags.GetCount("embedding", 16, 1, 4096));
  const int mp_iterations =
      static_cast<int>(flags.GetCount("mp-iterations", 2, 1, 64));
  const uint64_t seed = flags.GetSeed(7);
  const double target_scale = flags.GetPositiveDouble("target-scale", 100.0);

  const std::unique_ptr<granite::dataset::BlockSource> corpus =
      MakeCorpusSource(flags, /*default_blocks=*/160, /*min_blocks=*/16,
                       seed);
  if (corpus->size() < 16) {
    std::fprintf(stderr,
                 "granite_cli train: corpus has %zu blocks, need >= 16\n",
                 corpus->size());
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
  trainer_config.batch_size =
      static_cast<int>(flags.GetCount("batch-size", 16, 1, 100000));
  trainer_config.adam.learning_rate = 0.008f;
  trainer_config.final_learning_rate = 0.0008f;
  trainer_config.target_scale = target_scale;
  trainer_config.tasks = TasksFor(num_tasks);
  trainer_config.validation_every = std::max(1, steps / 4);
  trainer_config.verbose = flags.GetInt("verbose", 0) != 0;
  trainer_config.seed = seed + 1;

  // Initialize decoder biases at the per-instruction mean target so the
  // scaled-down schedules converge quickly (see TrainerConfig docs).
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
  const float bias_init =
      static_cast<float>(mean_target / mean_instructions);

  std::unique_ptr<granite::train::ModelRunner> runner;
  if (model_name == "granite") {
    granite::core::GraniteConfig config =
        granite::core::GraniteConfig().WithEmbeddingSize(embedding);
    config.message_passing_iterations = mp_iterations;
    config.num_tasks = num_tasks;
    config.decoder_output_bias_init = bias_init;
    config.seed = seed + 2;
    runner = std::make_unique<granite::train::ModelRunner>(config,
                                                           trainer_config);
  } else if (model_name == "ithemal" || model_name == "ithemal_plus") {
    granite::ithemal::IthemalConfig config =
        granite::ithemal::IthemalConfig().WithEmbeddingSize(embedding);
    config.decoder = model_name == "ithemal"
                         ? granite::ithemal::DecoderKind::kDotProduct
                         : granite::ithemal::DecoderKind::kMlp;
    config.num_tasks = num_tasks;
    config.decoder_output_bias_init = bias_init;
    config.seed = seed + 2;
    runner = std::make_unique<granite::train::ModelRunner>(config,
                                                           trainer_config);
  } else {
    std::fprintf(stderr,
                 "granite_cli train: unknown --model '%s' (granite, "
                 "ithemal, ithemal_plus)\n",
                 model_name.c_str());
    return 2;
  }

  const auto& kernels = static_cast<const granite::ml::OptimizedBackend&>(
      granite::ml::GetKernelBackend(
          granite::ml::KernelBackendKind::kOptimized));
  std::printf("training %s (%zu weights, %d task(s)) on %zu blocks for "
              "%d steps with %s kernels...\n",
              model_name.c_str(),
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

  runner->Save(out);
  std::printf("wrote checkpoint bundle: %s\n", out.c_str());
  return 0;
}

int RunEval(const Flags& flags) {
  flags.RequireKnown(KnownFlagsOf(CommandSpecFor("eval")));
  const std::string path = flags.GetString("model-file", "");
  if (path.empty()) {
    std::fprintf(stderr,
                 "granite_cli eval: --model-file=PATH is required\n");
    return 2;
  }
  const uint64_t seed = flags.GetSeed(11);
  const double target_scale = flags.GetPositiveDouble("target-scale", 100.0);

  std::unique_ptr<ThroughputPredictor> loaded = LoadBundleOrDie(path);
  std::printf("loaded %s model, %d task(s), %zu weights\n",
              std::string(granite::model::ModelKindName(loaded->kind()))
                  .c_str(),
              loaded->num_tasks(), loaded->parameters().TotalWeights());

  const granite::train::TrainerConfig eval_config =
      EvalConfig(*loaded, target_scale);
  const int num_tasks = loaded->num_tasks();
  const std::unique_ptr<granite::dataset::BlockSource> corpus =
      MakeCorpusSource(flags, /*default_blocks=*/64, /*min_blocks=*/1,
                       seed);
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

int RunPredict(const Flags& flags) {
  flags.RequireKnown(KnownFlagsOf(CommandSpecFor("predict")));
  const std::string path = flags.GetString("model-file", "");
  if (path.empty()) {
    std::fprintf(stderr,
                 "granite_cli predict: --model-file=PATH is required\n");
    return 2;
  }
  const double target_scale = flags.GetPositiveDouble("target-scale", 100.0);
  std::string text = flags.GetString("asm", "");
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

  const std::unique_ptr<ThroughputPredictor> loaded = LoadBundleOrDie(path);
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
                predictions[0][task] * target_scale);
  }
  return 0;
}

int RunServe(const Flags& flags) {
  flags.RequireKnown(KnownFlagsOf(CommandSpecFor("serve")));
  if (flags.model_files.empty()) {
    std::fprintf(stderr,
                 "granite_cli serve: at least one --model-file=[NAME=]PATH "
                 "is required\n");
    return 2;
  }
  const int requests =
      static_cast<int>(flags.GetCount("requests", 400, 1, 100000000));
  const int num_blocks =
      static_cast<int>(flags.GetCount("blocks", 64, 1, 1000000));
  const uint64_t seed = flags.GetSeed(11);

  granite::serve::InferenceServerConfig server_config;
  // Workers and request-queue shards are 1:1.
  server_config.num_workers =
      static_cast<int>(flags.GetCount("shards", 2, 1, 256));
  server_config.max_batch_size =
      static_cast<int>(flags.GetCount("batch-size", 16, 1, 100000));
  server_config.batch_window =
      std::chrono::microseconds{flags.GetCount("window-us", 2000, 0,
                                               60000000)};
  server_config.prediction_cache_capacity =
      static_cast<std::size_t>(flags.GetCount("cache", 512, 0, 100000000));

  granite::serve::ModelRouter router(server_config);
  std::vector<std::pair<std::string, int>> models;  // name → num_tasks
  for (const std::string& entry : flags.model_files) {
    // --model-file=NAME=PATH names the route; bare PATH uses the file
    // stem (checkpoints/granite.gmb → "granite").
    std::string name;
    std::string path;
    const std::size_t separator = entry.find('=');
    if (separator != std::string::npos) {
      name = entry.substr(0, separator);
      path = entry.substr(separator + 1);
    } else {
      path = entry;
      const std::size_t slash = path.find_last_of('/');
      const std::size_t stem = slash == std::string::npos ? 0 : slash + 1;
      const std::size_t dot = path.find('.', stem);
      name = path.substr(stem, dot == std::string::npos ? std::string::npos
                                                        : dot - stem);
    }
    if (router.HasModel(name)) {
      std::fprintf(stderr,
                   "granite_cli serve: duplicate route name '%s' (use "
                   "--model-file=NAME=PATH to disambiguate)\n",
                   name.c_str());
      return 2;
    }
    std::unique_ptr<ThroughputPredictor> loaded = LoadBundleOrDie(path);
    const int num_tasks = loaded->num_tasks();
    std::printf("serving '%s' (%s, %d task(s)) from %s\n", name.c_str(),
                std::string(granite::model::ModelKindName(loaded->kind()))
                    .c_str(),
                num_tasks, path.c_str());
    router.AddModel(name, std::move(loaded));
    models.emplace_back(name, num_tasks);
  }

  // --split=NAME=A:B:WEIGHT registers a weighted A/B split over two
  // loaded routes and includes it in the replayed traffic.
  if (flags.Has("split")) {
    const std::string spec = flags.GetString("split", "");
    const std::size_t equals = spec.find('=');
    const std::size_t colon = spec.find(':', equals + 1);
    const std::size_t second_colon =
        colon == std::string::npos ? std::string::npos
                                   : spec.find(':', colon + 1);
    if (equals == std::string::npos || colon == std::string::npos ||
        second_colon == std::string::npos) {
      std::fprintf(stderr,
                   "granite_cli serve: --split wants NAME=A:B:WEIGHT, "
                   "got '%s'\n",
                   spec.c_str());
      return 2;
    }
    const std::string split_name = spec.substr(0, equals);
    const std::string route_a = spec.substr(equals + 1, colon - equals - 1);
    const std::string route_b =
        spec.substr(colon + 1, second_colon - colon - 1);
    char* end = nullptr;
    const std::string weight_text = spec.substr(second_colon + 1);
    const double weight_a = std::strtod(weight_text.c_str(), &end);
    if (end == weight_text.c_str() || *end != '\0' ||
        !std::isfinite(weight_a) || weight_a < 0.0 || weight_a > 1.0) {
      std::fprintf(stderr,
                   "granite_cli serve: split weight must be a finite "
                   "number in [0, 1], got '%s'\n",
                   weight_text.c_str());
      return 2;
    }
    if (router.HasModel(split_name)) {
      std::fprintf(stderr,
                   "granite_cli serve: split name '%s' collides with a "
                   "loaded route\n",
                   split_name.c_str());
      return 2;
    }
    if (!router.HasModel(route_a) || !router.HasModel(route_b)) {
      std::fprintf(stderr,
                   "granite_cli serve: split arms must name loaded "
                   "routes ('%s', '%s')\n",
                   route_a.c_str(), route_b.c_str());
      return 2;
    }
    router.AddSplit(split_name, route_a, route_b, weight_a);
    std::printf("split '%s': %s:%s weight_a=%.3f\n", split_name.c_str(),
                route_a.c_str(), route_b.c_str(), weight_a);
    // Split traffic exercises both arms; cap tasks at the smaller head.
    int split_tasks = 0;
    for (const auto& [name, num_tasks] : models) {
      if (name == route_a || name == route_b) {
        split_tasks = split_tasks == 0 ? num_tasks
                                       : std::min(split_tasks, num_tasks);
      }
    }
    models.emplace_back(split_name, std::max(split_tasks, 1));
  }

  // --shadow=ROUTE=PATH starts a canary session: traffic on ROUTE is
  // mirrored to the bundle at PATH, compared (never returned), and the
  // candidate is promoted on parity unless --promote=0.
  if (flags.Has("shadow")) {
    const std::string spec = flags.GetString("shadow", "");
    const std::size_t separator = spec.find('=');
    if (separator == std::string::npos) {
      std::fprintf(stderr,
                   "granite_cli serve: --shadow wants ROUTE=PATH, got "
                   "'%s'\n",
                   spec.c_str());
      return 2;
    }
    const std::string route = spec.substr(0, separator);
    const std::string path = spec.substr(separator + 1);
    if (!router.HasModel(route)) {
      std::fprintf(stderr,
                   "granite_cli serve: --shadow route '%s' is not a "
                   "loaded model\n",
                   route.c_str());
      return 2;
    }
    granite::serve::ShadowConfig shadow_config;
    shadow_config.min_comparisons = static_cast<uint64_t>(
        flags.GetCount("shadow-samples", 50, 1, 100000000));
    shadow_config.auto_promote = flags.GetInt("promote", 1) != 0;
    shadow_config.server_config = server_config;
    router.StartShadow(route, LoadBundleOrDie(path), shadow_config);
    std::printf("shadowing '%s' with %s (%llu samples, %s)\n",
                route.c_str(), path.c_str(),
                static_cast<unsigned long long>(
                    shadow_config.min_comparisons),
                shadow_config.auto_promote ? "auto-promote"
                                           : "manual promote");
  }

  const granite::dataset::Dataset corpus =
      SynthesizeCorpus(static_cast<std::size_t>(num_blocks), seed);
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
        // Traffic spreads over the admission classes, so overload
        // exercises the shedding order.
        auto future = router.Submit(
            name, blocks[(c * 13 + r) % blocks.size()], r % num_tasks,
            static_cast<granite::serve::AdmissionClass>(
                r % granite::serve::kNumAdmissionClasses));
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
int RunAutotune(const Flags& flags) {
  flags.RequireKnown(KnownFlagsOf(CommandSpecFor("autotune")));
  const int beam = static_cast<int>(flags.GetCount("beam", 4, 1, 64));
  const int depth = static_cast<int>(flags.GetCount("depth", 5, 0, 32));
  const long deadline_ms =
      flags.GetCount("deadline-ms", 0, 0, 600000);
  const int task = static_cast<int>(flags.GetCount(
      "task", 0, 0, granite::uarch::kNumMicroarchitectures - 1));
  const int pessimize =
      static_cast<int>(flags.GetCount("pessimize", 3, 0, 16));
  const uint64_t seed = flags.GetSeed(17);
  const bool verbose = flags.GetInt("verbose", 0) != 0;

  const auto microarchitecture =
      static_cast<granite::uarch::Microarchitecture>(task);
  const granite::uarch::ThroughputModel oracle(microarchitecture);

  // Collect the input corpus: oracle-supported blocks only (the
  // transform catalog cannot reason about unknown instructions).
  const std::unique_ptr<granite::dataset::BlockSource> corpus =
      MakeCorpusSource(flags, /*default_blocks=*/32, /*min_blocks=*/1,
                       seed);
  std::vector<granite::assembly::BasicBlock> inputs;
  std::size_t unsupported = 0;
  for (std::size_t i = 0; i < corpus->size(); ++i) {
    const granite::assembly::BasicBlock& block =
        *corpus->Get(i).block;
    const bool supported = std::all_of(
        block.instructions.begin(), block.instructions.end(),
        [](const granite::assembly::Instruction& instruction) {
          return granite::assembly::IsSupportedInstruction(instruction);
        });
    if (!supported) {
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
  const std::string model_file = flags.GetString("model-file", "");
  if (!model_file.empty()) {
    loaded = LoadBundleOrDie(model_file);
    if (task >= loaded->num_tasks()) {
      std::fprintf(stderr,
                   "granite_cli autotune: --task=%d but the bundle has "
                   "%d task head(s)\n",
                   task, loaded->num_tasks());
      return 2;
    }
    granite::serve::InferenceServerConfig server_config;
    server_config.num_workers =
        static_cast<int>(flags.GetCount("shards", 2, 1, 256));
    server_config.max_batch_size =
        static_cast<int>(flags.GetCount("batch-size", 16, 1, 100000));
    server_config.batch_window = std::chrono::microseconds{
        flags.GetCount("window-us", 500, 0, 60000000)};
    server_config.prediction_cache_capacity = static_cast<std::size_t>(
        flags.GetCount("cache", 4096, 0, 100000000));
    server = std::make_unique<granite::serve::InferenceServer>(
        loaded.get(), server_config);
    client = std::make_unique<granite::autotune::ServerCostClient>(
        server.get(), task, granite::serve::AdmissionClass::kBatch);
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
  search_config.beam_width = beam;
  search_config.max_depth = depth;
  search_config.deadline = std::chrono::milliseconds{deadline_ms};
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
    if (verbose && result.improved) {
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

int RunInspect(const Flags& flags) {
  flags.RequireKnown(KnownFlagsOf(CommandSpecFor("inspect")));
  const std::string path = flags.GetString("model-file", "");
  if (path.empty()) {
    std::fprintf(stderr,
                 "granite_cli inspect: --model-file=PATH is required\n");
    return 2;
  }
  granite::model::BundleInfo info;
  try {
    info = granite::model::InspectBundle(path);
  } catch (const granite::model::CheckpointError& error) {
    std::fprintf(stderr, "granite_cli: %s\n", error.what());
    return 1;
  }
  std::printf("checkpoint bundle: %s\n", path.c_str());
  std::printf("  format version:  %u\n", info.version);
  std::printf("  model kind:      %s\n", info.kind.c_str());
  std::printf("  vocabulary size: %llu tokens\n",
              static_cast<unsigned long long>(info.vocabulary_size));
  std::printf("  tensors:         %zu (%llu weights)\n",
              info.tensors.size(),
              static_cast<unsigned long long>(info.total_weights));
  std::printf("  file size:       %llu bytes\n",
              static_cast<unsigned long long>(info.file_bytes));
  std::printf("  config:          %s\n", info.config_text.c_str());
  if (flags.GetInt("tensors", 0) != 0) {
    std::printf("  tensor shapes:\n");
    for (const granite::model::BundleTensorInfo& tensor : info.tensors) {
      std::printf("    %-40s %6d x %-6d\n", tensor.name.c_str(),
                  tensor.rows, tensor.cols);
    }
  }
  return 0;
}

int RunDatasetSynthesize(const Flags& flags) {
  flags.RequireKnown(KnownFlagsOf(CommandSpecFor("dataset synthesize")));
  const std::string out = flags.GetString("out", "");
  if (out.empty()) {
    std::fprintf(stderr,
                 "granite_cli dataset synthesize: --out=PATH is "
                 "required\n");
    return 2;
  }
  const long num_blocks =
      flags.GetCount("blocks", 100000, 1, 100000000);
  const uint64_t seed = flags.GetSeed(7);
  const long shard_size = flags.GetCount(
      "shard-size",
      static_cast<long>(granite::dataset::kDefaultRecordsPerShard), 1,
      1 << 24);
  const std::string tool_name = flags.GetString("tool", "ithemal");
  granite::uarch::MeasurementTool tool;
  if (tool_name == "ithemal") {
    tool = granite::uarch::MeasurementTool::kIthemalTool;
  } else if (tool_name == "bhive") {
    tool = granite::uarch::MeasurementTool::kBHiveTool;
  } else {
    std::fprintf(stderr,
                 "granite_cli dataset synthesize: unknown --tool '%s' "
                 "(ithemal, bhive)\n",
                 tool_name.c_str());
    return 2;
  }
  const bool verbose = flags.GetInt("verbose", 0) != 0;

  granite::dataset::SynthesisConfig synthesis;
  synthesis.num_blocks = static_cast<std::size_t>(num_blocks);
  synthesis.seed = seed;
  synthesis.tool = tool;
  // Default matches the corpus `train`/`eval` synthesize (see
  // SynthesizeCorpus), so file-based and in-memory runs line up.
  synthesis.generator.max_instructions =
      static_cast<int>(flags.GetCount("max-instructions", 8, 1, 256));

  // Lazy synthesis + streaming writer: memory stays bounded by the
  // shard window regardless of corpus size. A small cache suffices —
  // the write pass touches each shard exactly once, in order.
  granite::dataset::StreamingSynthesisOptions options;
  options.records_per_shard = static_cast<std::size_t>(shard_size);
  options.cache_shards = 2;
  std::printf("planning %ld blocks (seed %llu, tool %s)...\n", num_blocks,
              static_cast<unsigned long long>(seed), tool_name.c_str());
  const granite::dataset::StreamingSynthesisSource source(synthesis,
                                                          options);

  granite::dataset::CorpusWriter writer(
      out, tool, seed, static_cast<std::uint64_t>(shard_size));
  for (std::size_t i = 0; i < source.size(); ++i) {
    const granite::dataset::SampleView view = source.Get(i);
    granite::dataset::Sample sample;
    sample.block = *view.block;
    sample.throughput = *view.throughput;
    writer.Append(sample);
    if (verbose && (i + 1) % static_cast<std::size_t>(shard_size) == 0) {
      std::printf("  %zu / %ld blocks written\n", i + 1, num_blocks);
    }
  }
  writer.Finish();

  const granite::dataset::CorpusHeader header =
      granite::dataset::ReadCorpusHeader(out);
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

int RunDatasetImport(const Flags& flags) {
  flags.RequireKnown(KnownFlagsOf(CommandSpecFor("dataset import")));
  const std::string csv = flags.GetString("csv", "");
  const std::string out = flags.GetString("out", "");
  if (csv.empty() || out.empty()) {
    std::fprintf(stderr,
                 "granite_cli dataset import: --csv=PATH and --out=PATH "
                 "are required\n");
    return 2;
  }
  const std::string tool_name = flags.GetString("tool", "bhive");
  granite::dataset::ImportOptions options;
  if (tool_name == "ithemal") {
    options.tool = granite::uarch::MeasurementTool::kIthemalTool;
  } else if (tool_name == "bhive") {
    options.tool = granite::uarch::MeasurementTool::kBHiveTool;
  } else {
    std::fprintf(stderr,
                 "granite_cli dataset import: unknown --tool '%s' "
                 "(ithemal, bhive)\n",
                 tool_name.c_str());
    return 2;
  }
  options.throughput_scale =
      flags.GetPositiveDouble("throughput-scale", 1.0);
  options.records_per_shard = static_cast<std::uint64_t>(flags.GetCount(
      "shard-size",
      static_cast<long>(granite::dataset::kDefaultRecordsPerShard), 1,
      1 << 24));
  options.disasm_file = flags.GetString("disasm-file", "");
  options.rejects_path = flags.GetString("rejects-out", "");
  options.max_reject_samples = static_cast<std::size_t>(
      flags.GetCount("max-reject-samples", 100, 0, 100000000));

  granite::dataset::ImportStats stats;
  try {
    stats = granite::dataset::ImportBhiveCsv(csv, out, options);
  } catch (const granite::dataset::ImportError& error) {
    std::fprintf(stderr, "granite_cli: %s\n", error.what());
    return 1;
  }

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
  const granite::dataset::CorpusHeader header =
      granite::dataset::ReadCorpusHeader(out);
  std::printf("wrote corpus %s: %llu blocks in %llu shards of %llu "
              "(tool %s)\n",
              out.c_str(),
              static_cast<unsigned long long>(header.num_blocks),
              static_cast<unsigned long long>(header.num_shards),
              static_cast<unsigned long long>(header.records_per_shard),
              tool_name.c_str());
  return 0;
}

int RunDatasetInspect(const Flags& flags) {
  flags.RequireKnown(KnownFlagsOf(CommandSpecFor("dataset inspect")));
  const std::string path = flags.GetString("file", "");
  if (path.empty()) {
    std::fprintf(stderr,
                 "granite_cli dataset inspect: --file=PATH is required\n");
    return 2;
  }
  granite::dataset::CorpusHeader header;
  try {
    header = granite::dataset::ReadCorpusHeader(path);
    if (flags.GetInt("verify", 0) != 0) {
      // Opening a streaming source with verification on walks the whole
      // file against the checksum trailer (constant memory).
      granite::dataset::StreamingCorpusSource verified(path);
      std::printf("checksum verified: OK\n");
    }
  } catch (const granite::dataset::CorpusError& error) {
    std::fprintf(stderr, "granite_cli: %s\n", error.what());
    return 1;
  }
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
 * The `isa` subcommand. --lookup, --doc and --check compose (each runs
 * in that order); with no flags, prints the coverage summary. --check is
 * the CI drift gate: it fails unless the file on disk is byte-identical
 * to the reference rendered from the instruction table.
 */
int RunIsa(const Flags& flags) {
  flags.RequireKnown(KnownFlagsOf(CommandSpecFor("isa")));
  bool acted = false;
  if (flags.Has("lookup")) {
    const std::string mnemonic = flags.GetString("lookup", "");
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
  if (flags.Has("doc")) {
    const std::string path = flags.GetString("doc", "-");
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
  if (flags.Has("check")) {
    const std::string path = flags.GetString("check", "");
    std::ifstream file(path, std::ios::binary);
    if (!file.is_open()) {
      std::fprintf(stderr, "granite_cli isa: cannot read %s\n",
                   path.c_str());
      return 1;
    }
    std::ostringstream on_disk;
    on_disk << file.rdbuf();
    if (on_disk.str() != granite::assembly::RenderIsaReference()) {
      std::fprintf(stderr,
                   "granite_cli isa: %s does not match the semantics "
                   "table — regenerate it with `granite_cli isa "
                   "--doc=%s`\n",
                   path.c_str(), path.c_str());
      return 1;
    }
    std::printf("%s matches the semantics table\n", path.c_str());
    acted = true;
  }
  if (!acted) std::fputs(granite::assembly::RenderIsaSummary().c_str(),
                         stdout);
  return 0;
}

int RunDataset(int argc, char** argv) {
  if (argc < 3 || std::string(argv[2]).rfind("--", 0) == 0) {
    std::fprintf(stderr,
                 "granite_cli dataset: expected a subcommand "
                 "(synthesize, import, inspect)\n");
    return 2;
  }
  const std::string subcommand = argv[2];
  const Flags flags = ParseFlags(argc, argv, 3);
  if (flags.help) {
    PrintUsage();
    return 0;
  }
  if (subcommand == "synthesize") return RunDatasetSynthesize(flags);
  if (subcommand == "import") return RunDatasetImport(flags);
  if (subcommand == "inspect") return RunDatasetInspect(flags);
  std::fprintf(stderr,
               "granite_cli dataset: unknown subcommand '%s' "
               "(synthesize, import, inspect)\n",
               subcommand.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage();
    return 2;
  }
  const std::string command = argv[1];
  if (command == "dataset") {
    try {
      return RunDataset(argc, argv);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "granite_cli: %s\n", error.what());
      return 1;
    }
  }
  const Flags flags = ParseFlags(argc, argv, 2);
  if (command == "help" || flags.help) {
    PrintUsage();
    return 0;
  }
  try {
    if (command == "train") return RunTrain(flags);
    if (command == "eval") return RunEval(flags);
    if (command == "predict") return RunPredict(flags);
    if (command == "serve") return RunServe(flags);
    if (command == "autotune") return RunAutotune(flags);
    if (command == "inspect") return RunInspect(flags);
    if (command == "isa") return RunIsa(flags);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "granite_cli: %s\n", error.what());
    return 1;
  }
  std::fprintf(stderr, "granite_cli: unknown command '%s'\n",
               command.c_str());
  PrintUsage();
  return 2;
}
