// Barrier-effect-sensitive phoneme segmentation (paper Sec. V-B).
//
// Given a voice-command recording, produce the sample ranges occupied by
// barrier-effect-sensitive phonemes so only those are replayed for
// cross-domain sensing. Two implementations:
//
//   OracleSegmenter — uses ground-truth phoneme alignment (the synthetic
//   corpus's stand-in for "reusing intermediate results of the speech
//   recognition pipeline on the VA system", which the paper suggests).
//
//   BrnnSegmenter — the paper's learned detector: 14th-order MFCCs on
//   25 ms / 10 ms frames restricted to 0–900 Hz, classified per frame by a
//   bidirectional LSTM (64 units) into sensitive / other.
#pragma once

#include <cstddef>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/signal.hpp"
#include "dsp/mel.hpp"
#include "nn/brnn.hpp"
#include "speech/command.hpp"

namespace vibguard::core {

/// Half-open sample range [begin, end).
struct SampleRange {
  std::size_t begin;
  std::size_t end;
};

/// Interface for sensitive-phoneme segmentation of a recording.
/// `timeline_offset` is the number of samples trimmed from the front of
/// `audio` relative to the original utterance timeline (set by the
/// synchronization step); implementations with external alignment use it.
class Segmenter {
 public:
  virtual ~Segmenter() = default;
  virtual std::vector<SampleRange> segment(
      const Signal& audio, std::size_t timeline_offset) const = 0;

  /// Allocation-aware variant writing into `out` (cleared first, capacity
  /// reused). The default implementation delegates to segment();
  /// implementations whose work is cheap enough to matter (OracleSegmenter)
  /// override it to fill `out` directly.
  virtual void segment_into(const Signal& audio, std::size_t timeline_offset,
                            std::vector<SampleRange>& out) const {
    out = segment(audio, timeline_offset);
  }
};

/// Ground-truth-alignment segmenter.
class OracleSegmenter : public Segmenter {
 public:
  OracleSegmenter(std::vector<speech::PhonemeSpan> alignment,
                  std::set<std::string> sensitive);

  std::vector<SampleRange> segment(const Signal& audio,
                                   std::size_t timeline_offset) const override;

  void segment_into(const Signal& audio, std::size_t timeline_offset,
                    std::vector<SampleRange>& out) const override;

 private:
  std::vector<speech::PhonemeSpan> alignment_;
  std::set<std::string> sensitive_;
};

/// MFCC + BiLSTM learned segmenter.
class BrnnSegmenter : public Segmenter {
 public:
  struct Config {
    dsp::MfccConfig mfcc;          ///< paper defaults (Sec. V-B)
    nn::BrnnConfig brnn;           ///< in_dim must equal mfcc.num_coeffs
    double decision_threshold = 0.5;  ///< P(sensitive) per frame
    std::size_t min_run_frames = 2;   ///< suppress single-frame blips
  };

  BrnnSegmenter(Config config, std::uint64_t seed);

  /// Converts aligned utterances into frame-labeled training sequences
  /// (label 1 where a sensitive phoneme covers the majority of the frame).
  nn::LabeledSequence make_sequence(
      const Signal& audio, std::span<const speech::PhonemeSpan> alignment,
      const std::set<std::string>& sensitive) const;

  /// One training epoch over `data` in mini-batches; returns mean loss.
  double train_epoch(std::span<const nn::LabeledSequence> data,
                     std::size_t batch_size, Rng& rng);

  /// Frame-level accuracy on labeled data.
  double evaluate(std::span<const nn::LabeledSequence> data) const;

  /// Per-frame sensitive-phoneme probabilities for a recording.
  std::vector<double> frame_probabilities(const Signal& audio) const;

  std::vector<SampleRange> segment(const Signal& audio,
                                   std::size_t timeline_offset) const override;

  const Config& config() const { return config_; }

 private:
  Config config_;
  nn::Brnn brnn_;
};

/// Concatenates the selected ranges of `audio` into one signal. Ranges are
/// clamped to the signal length; empty output yields an empty signal at the
/// same rate.
Signal extract_ranges(const Signal& audio,
                      std::span<const SampleRange> ranges);

/// Allocation-free overload: concatenates into `out`, reusing its capacity.
/// `out` must not alias `audio`.
void extract_ranges_into(const Signal& audio,
                         std::span<const SampleRange> ranges, Signal& out);

/// Merges overlapping/adjacent ranges and drops ranges shorter than
/// `min_len` samples.
std::vector<SampleRange> normalize_ranges(std::vector<SampleRange> ranges,
                                          std::size_t min_len = 0);

/// In-place variant of normalize_ranges (no allocation).
void normalize_ranges_in_place(std::vector<SampleRange>& ranges,
                               std::size_t min_len = 0);

}  // namespace vibguard::core
