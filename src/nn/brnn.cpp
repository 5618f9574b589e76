#include "nn/brnn.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace vibguard::nn {
namespace {

std::vector<std::vector<double>> reversed(
    std::span<const std::vector<double>> xs) {
  return {xs.rbegin(), xs.rend()};
}

}  // namespace

Brnn::Brnn(BrnnConfig config, std::uint64_t seed)
    : config_(config),
      init_rng_(seed),
      forward_(config.in_dim, config.hidden_dim, init_rng_),
      backward_(config.in_dim, config.hidden_dim, init_rng_),
      head_(config.hidden_dim, config.num_classes, init_rng_),
      optimizer_(config.adam) {
  optimizer_.attach(forward_.wx());
  optimizer_.attach(forward_.wh());
  optimizer_.attach(forward_.bias());
  optimizer_.attach(backward_.wx());
  optimizer_.attach(backward_.wh());
  optimizer_.attach(backward_.bias());
  optimizer_.attach(head_.weights());
  optimizer_.attach(head_.bias());
}

std::vector<std::vector<double>> Brnn::forward_states(
    std::span<const std::vector<double>> features, Lstm::Cache& fwd_cache,
    Lstm::Cache& bwd_cache) const {
  const auto h_fwd = forward_.forward(features, fwd_cache);
  const auto rev = reversed(features);
  const auto h_bwd_rev = backward_.forward(rev, bwd_cache);
  const std::size_t T = features.size();
  std::vector<std::vector<double>> h(T,
                                     std::vector<double>(config_.hidden_dim));
  for (std::size_t t = 0; t < T; ++t) {
    for (std::size_t j = 0; j < config_.hidden_dim; ++j) {
      h[t][j] = h_fwd[t][j] + h_bwd_rev[T - 1 - t][j];
    }
  }
  return h;
}

std::vector<std::vector<double>> Brnn::predict(
    std::span<const std::vector<double>> features) const {
  if (features.empty()) return {};
  Lstm::Cache fc, bc;
  const auto h = forward_states(features, fc, bc);
  std::vector<std::vector<double>> probs;
  probs.reserve(h.size());
  for (const auto& ht : h) probs.push_back(softmax(head_.forward(ht)));
  return probs;
}

std::vector<std::size_t> Brnn::classify(
    std::span<const std::vector<double>> features) const {
  const auto probs = predict(features);
  std::vector<std::size_t> labels(probs.size());
  for (std::size_t t = 0; t < probs.size(); ++t) {
    labels[t] = static_cast<std::size_t>(
        std::max_element(probs[t].begin(), probs[t].end()) -
        probs[t].begin());
  }
  return labels;
}

double Brnn::train_batch(std::span<const LabeledSequence> batch) {
  VIBGUARD_REQUIRE(!batch.empty(), "training batch must be non-empty");
  double total_loss = 0.0;
  std::size_t total_frames = 0;

  for (const LabeledSequence& seq : batch) {
    VIBGUARD_REQUIRE(seq.features.size() == seq.labels.size(),
                     "features/labels length mismatch");
    if (seq.features.empty()) continue;
    const std::size_t T = seq.features.size();

    Lstm::Cache fc, bc;
    const auto h = forward_states(seq.features, fc, bc);

    // Head forward/backward per frame.
    std::vector<std::vector<double>> dh(
        T, std::vector<double>(config_.hidden_dim, 0.0));
    for (std::size_t t = 0; t < T; ++t) {
      const auto logits = head_.forward(h[t]);
      const auto probs = softmax(logits);
      total_loss += cross_entropy(probs, seq.labels[t]);
      auto dlogits = cross_entropy_grad(probs, seq.labels[t]);
      // Normalize by sequence length so long sequences don't dominate.
      for (double& g : dlogits) g /= static_cast<double>(T);
      dh[t] = head_.backward(h[t], dlogits);
    }
    total_frames += T;

    // The summed hidden state distributes the gradient unchanged to both
    // directions; the backward LSTM sees time reversed.
    forward_.backward(fc, dh);
    std::vector<std::vector<double>> dh_rev(dh.rbegin(), dh.rend());
    backward_.backward(bc, dh_rev);
  }

  optimizer_.step();
  return total_frames > 0 ? total_loss / static_cast<double>(total_frames)
                          : 0.0;
}

double Brnn::evaluate(std::span<const LabeledSequence> data) const {
  std::size_t correct = 0;
  std::size_t total = 0;
  for (const LabeledSequence& seq : data) {
    const auto pred = classify(seq.features);
    for (std::size_t t = 0; t < pred.size(); ++t) {
      correct += pred[t] == seq.labels[t] ? 1 : 0;
    }
    total += pred.size();
  }
  return total > 0 ? static_cast<double>(correct) / static_cast<double>(total)
                   : 0.0;
}

}  // namespace vibguard::nn
