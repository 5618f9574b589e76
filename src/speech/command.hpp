// Voice-command lexicon and aligned utterance synthesis.
//
// Provides the voice-assistant commands used as workloads (wake words plus
// typical smart-home commands, transcribed into the 37 common phonemes of
// Table II) and an utterance builder that renders a command for a speaker
// while recording time-aligned phoneme boundaries — the synthetic equivalent
// of TIMIT's phonetic transcriptions.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/signal.hpp"
#include "speech/phoneme.hpp"
#include "speech/speaker.hpp"
#include "speech/synthesizer.hpp"

namespace vibguard::speech {

/// A command with its phonemic transcription.
struct VoiceCommand {
  std::string text;
  std::vector<std::string> phonemes;  ///< TIMIT symbols, all common
};

/// Wake words the paper attacks (Table I).
std::span<const VoiceCommand> wake_words();

/// Smart-home command lexicon (20 commands, mirroring the per-participant
/// command count of Sec. VII-A).
std::span<const VoiceCommand> command_lexicon();

/// Looks up a command by text; throws InvalidArgument if absent.
const VoiceCommand& command_by_text(const std::string& text);

/// Phoneme occupancy of one utterance region.
struct PhonemeSpan {
  std::string symbol;
  std::size_t begin;  ///< first sample (inclusive)
  std::size_t end;    ///< one past the last sample
};

/// A rendered utterance with its time-aligned phonemic transcription.
struct Utterance {
  Signal audio;
  std::vector<PhonemeSpan> alignment;
  std::string text;
  std::string speaker_id;
};

/// Everything one build() call draws: each phoneme's draw in order, plus
/// the alignment and length they fix (crossfades are deterministic).
struct UtteranceDraw {
  std::string text;
  std::string speaker_id;
  std::vector<PhonemeDraw> phonemes;
  std::vector<PhonemeSpan> alignment;
  std::size_t samples = 0;     ///< length of the realized audio
  double sample_rate = 0.0;    ///< its sample rate
};

/// Renders commands into aligned utterances.
class UtteranceBuilder {
 public:
  explicit UtteranceBuilder(SynthesizerConfig config = {});

  /// Synthesizes `command` in `speaker`'s voice. Pauses between words are
  /// not modeled; phonemes are cross-faded as in connected speech.
  Utterance build(const VoiceCommand& command, const SpeakerProfile& speaker,
                  Rng& rng) const;

  /// The random half of build(): same arguments, same Rng use.
  UtteranceDraw draw(const VoiceCommand& command,
                     const SpeakerProfile& speaker, Rng& rng) const;

  /// The pure half: build() == realize(draw(...)), bit for bit.
  Utterance realize(const UtteranceDraw& draw) const;

  /// Renders a random phoneme sequence of the given length drawn from the
  /// common phonemes (frequency-weighted as in Table II).
  Utterance build_random(std::size_t num_phonemes,
                         const SpeakerProfile& speaker, Rng& rng) const;

  const Synthesizer& synthesizer() const { return synth_; }

 private:
  UtteranceDraw draw_symbols(const std::vector<std::string>& symbols,
                             const std::string& text,
                             const SpeakerProfile& speaker, Rng& rng) const;

  Synthesizer synth_;
};

}  // namespace vibguard::speech
