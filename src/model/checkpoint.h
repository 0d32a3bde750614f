/**
 * @file
 * Self-describing checkpoint bundles.
 *
 * A bundle is one binary file holding everything needed to reconstruct a
 * trained model without caller-side configuration knowledge: a versioned
 * magic header, the model kind, the serialized hyper-parameter config,
 * the token vocabulary, every named parameter tensor, and a payload
 * checksum. model::LoadModel() therefore returns a ready-to-serve
 * ThroughputPredictor from just a path. It is the only checkpoint format.
 *
 * Bundle layout (all integers little-endian host encoding):
 *   magic "GRNTBNDL" (8 bytes)
 *   u32 format version (kBundleFormatVersion)
 *   string model kind (ModelKindName)
 *   string config text (ThroughputPredictor::DescribeConfig)
 *   u64 token count, then one string per vocabulary token
 *   u64 parameter count, then per parameter:
 *     string name, i32 rows, i32 cols, float[rows*cols] values
 *   u64 FNV-1a checksum of every preceding byte (magic through the last
 *   tensor — kind, config and vocabulary included)
 * where `string` is a u64 byte length followed by the bytes.
 *
 * Corrupt, truncated, version-mismatched or wrong-kind files raise
 * CheckpointError — never UB, never a partial model.
 *
 * LoadModel is the only reader: whatever opens a bundle, `granite_cli
 * inspect` included, gets a fully checked model or a CheckpointError.
 *
 * Threading contract: SaveModel/LoadModel are pure
 * functions of their arguments and are safe to call concurrently on
 * distinct paths; concurrent writers to the SAME path race at the
 * filesystem level (last writer wins), and SaveModel must not run
 * concurrently with parameter updates to the model being saved.
 */
#ifndef GRANITE_MODEL_CHECKPOINT_H_
#define GRANITE_MODEL_CHECKPOINT_H_

#include <array>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "model/throughput_predictor.h"

namespace granite::model {

/** Raised for any unreadable, corrupt, truncated, version-mismatched or
 * structurally incompatible bundle file. */
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/** The 8-byte bundle magic ("GRNTBNDL", no terminator). */
inline constexpr std::array<char, 8> kBundleMagic = {'G', 'R', 'N', 'T',
                                                     'B', 'N', 'D', 'L'};

/** Current bundle format version; bump on incompatible layout changes. */
inline constexpr std::uint32_t kBundleFormatVersion = 1;

/**
 * Writes `model` (kind, config, vocabulary, parameter values) as a
 * bundle at `path`. Throws CheckpointError when the file cannot be
 * written.
 */
void SaveModel(const ThroughputPredictor& model, const std::string& path);

/**
 * Reconstructs the full model from a bundle written by SaveModel: the
 * vocabulary is rebuilt from the stored tokens (and owned by the
 * returned model), the config is parsed back, a model of the stored kind
 * is constructed, and every parameter tensor is restored by name —
 * PredictBatchAllTasks outputs are bit-identical to the saved model's.
 * Throws CheckpointError on any malformed input.
 */
std::unique_ptr<ThroughputPredictor> LoadModel(const std::string& path);

}  // namespace granite::model

#endif  // GRANITE_MODEL_CHECKPOINT_H_
