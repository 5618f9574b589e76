// Bidirectional recurrent network for frame-level binary classification
// (paper Sec. V-B): a forward LSTM and a backward LSTM whose hidden states
// are summed (h_t = h→_t + h←_t), followed by a 2-class dense + softmax head
// applied to every frame, trained with ADAM on cross-entropy.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "nn/adam.hpp"
#include "nn/dense.hpp"
#include "nn/lstm.hpp"

namespace vibguard::nn {

struct BrnnConfig {
  std::size_t in_dim = 14;      ///< MFCC order (paper Sec. V-B)
  std::size_t hidden_dim = 64;  ///< LSTM units (paper Sec. V-B)
  std::size_t num_classes = 2;  ///< effective-phoneme / other
  AdamConfig adam;
};

/// One labeled training sequence: frames of features with per-frame labels.
struct LabeledSequence {
  std::vector<std::vector<double>> features;  // T × in_dim
  std::vector<std::size_t> labels;            // T, values < num_classes
};

/// Bidirectional LSTM frame classifier.
class Brnn {
 public:
  Brnn(BrnnConfig config, std::uint64_t seed);

  const BrnnConfig& config() const { return config_; }

  /// Per-frame class probabilities (T × num_classes).
  std::vector<std::vector<double>> predict(
      std::span<const std::vector<double>> features) const;

  /// Per-frame argmax labels.
  std::vector<std::size_t> classify(
      std::span<const std::vector<double>> features) const;

  /// One optimization step on a mini-batch; returns the mean per-frame
  /// cross-entropy loss.
  double train_batch(std::span<const LabeledSequence> batch);

  /// Frame accuracy over a labeled set.
  double evaluate(std::span<const LabeledSequence> data) const;

 private:
  std::vector<std::vector<double>> forward_states(
      std::span<const std::vector<double>> features, Lstm::Cache& fwd_cache,
      Lstm::Cache& bwd_cache) const;

  BrnnConfig config_;
  Rng init_rng_;  ///< declared before the layers: initializes their weights
  Lstm forward_;
  Lstm backward_;
  Dense head_;
  Adam optimizer_;
};

}  // namespace vibguard::nn
