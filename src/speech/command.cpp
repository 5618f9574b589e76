#include "speech/command.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace vibguard::speech {
namespace {

const std::vector<VoiceCommand>& wake_word_table() {
  static const std::vector<VoiceCommand> kWakeWords = {
      {"alexa", {"ah", "l", "eh", "k", "s", "ah"}},
      {"ok google", {"ow", "k", "ey", "g", "uw", "g", "ah", "l"}},
      {"hey siri", {"hh", "ey", "s", "ih", "r", "iy"}},
  };
  return kWakeWords;
}

const std::vector<VoiceCommand>& lexicon_table() {
  static const std::vector<VoiceCommand> kLexicon = {
      {"turn on the lights",
       {"t", "er", "n", "aa", "n", "dh", "ah", "l", "ay", "t", "s"}},
      {"turn off the lights",
       {"t", "er", "n", "ao", "f", "dh", "ah", "l", "ay", "t", "s"}},
      {"unlock the front door",
       {"ah", "n", "l", "aa", "k", "dh", "ah", "f", "r", "ah", "n", "t", "d",
        "ao", "r"}},
      {"lock the door", {"l", "aa", "k", "dh", "ah", "d", "ao", "r"}},
      {"what time is it",
       {"w", "ah", "t", "t", "ay", "m", "ih", "z", "ih", "t"}},
      {"play some music",
       {"p", "l", "ey", "s", "ah", "m", "m", "y", "uw", "z", "ih", "k"}},
      {"set an alarm",
       {"s", "eh", "t", "ae", "n", "ah", "l", "aa", "r", "m"}},
      {"stop", {"s", "t", "aa", "p"}},
      {"volume up", {"v", "aa", "l", "y", "uw", "m", "ah", "p"}},
      {"volume down", {"v", "aa", "l", "y", "uw", "m", "d", "aw", "n"}},
      {"open the garage",
       {"ow", "p", "ah", "n", "dh", "ah", "g", "ah", "r", "aa", "jh"}},
      {"call mom", {"k", "ao", "l", "m", "aa", "m"}},
      {"whats the weather",
       {"w", "ah", "t", "s", "dh", "ah", "w", "eh", "dh", "er"}},
      {"turn on the heater",
       {"t", "er", "n", "aa", "n", "dh", "ah", "hh", "iy", "t", "er"}},
      {"disarm the security system",
       {"d", "ih", "s", "aa", "r", "m", "dh", "ah", "s", "ih", "k", "y",
        "uh", "r", "ih", "t", "iy", "s", "ih", "s", "t", "ah", "m"}},
      {"add milk to the list",
       {"ae", "d", "m", "ih", "l", "k", "t", "uw", "dh", "ah", "l", "ih",
        "s", "t"}},
      {"good morning", {"g", "uh", "d", "m", "ao", "r", "n", "ih", "ng"}},
      {"pause the movie",
       {"p", "ao", "z", "dh", "ah", "m", "uw", "v", "iy"}},
      {"next song", {"n", "eh", "k", "s", "t", "s", "ao", "ng"}},
      {"dim the bedroom lights",
       {"d", "ih", "m", "dh", "ah", "b", "eh", "d", "r", "uw", "m", "l",
        "ay", "t", "s"}},
  };
  return kLexicon;
}

}  // namespace

std::span<const VoiceCommand> wake_words() { return wake_word_table(); }

std::span<const VoiceCommand> command_lexicon() { return lexicon_table(); }

const VoiceCommand& command_by_text(const std::string& text) {
  for (const auto& c : wake_word_table()) {
    if (c.text == text) return c;
  }
  for (const auto& c : lexicon_table()) {
    if (c.text == text) return c;
  }
  throw InvalidArgument("unknown command: " + text);
}

UtteranceBuilder::UtteranceBuilder(SynthesizerConfig config)
    : synth_(config) {}

namespace {

// Phonemes are cross-faded over 5 ms as in connected speech, never over
// more than either side holds.
std::size_t crossfade(double fs, std::size_t audio, std::size_t seg) {
  return std::min<std::size_t>(
      {static_cast<std::size_t>(0.005 * fs), audio, seg});
}

}  // namespace

UtteranceDraw UtteranceBuilder::draw_symbols(
    const std::vector<std::string>& symbols, const std::string& text,
    const SpeakerProfile& speaker, Rng& rng) const {
  UtteranceDraw d;
  d.text = text;
  d.speaker_id = speaker.id;
  d.sample_rate = synth_.config().sample_rate;
  d.phonemes.reserve(symbols.size());
  d.alignment.reserve(symbols.size());
  for (const std::string& sym : symbols) {
    d.phonemes.push_back(synth_.draw(phoneme_by_symbol(sym), speaker, rng));
    const std::size_t seg = d.phonemes.back().samples;
    std::size_t begin = 0;
    if (d.samples == 0) {
      d.samples = seg;
    } else {
      // The boundary sits at the center of the fade region.
      const std::size_t fade = crossfade(d.sample_rate, d.samples, seg);
      const std::size_t base = d.samples - fade;
      d.samples = base + seg;
      begin = base + fade / 2;
      if (!d.alignment.empty()) d.alignment.back().end = begin;
    }
    d.alignment.push_back({sym, begin, d.samples});
  }
  return d;
}

Utterance UtteranceBuilder::realize(const UtteranceDraw& d) const {
  Utterance utt;
  utt.text = d.text;
  utt.speaker_id = d.speaker_id;
  utt.alignment = d.alignment;
  for (const PhonemeDraw& p : d.phonemes) {
    Signal seg = synth_.realize(p);
    if (utt.audio.empty()) {
      utt.audio = std::move(seg);
      continue;
    }
    const std::size_t fade =
        crossfade(d.sample_rate, utt.audio.size(), seg.size());
    const std::size_t base = utt.audio.size() - fade;
    for (std::size_t i = 0; i < fade; ++i) {
      const double g = static_cast<double>(i) / static_cast<double>(fade);
      utt.audio[base + i] = utt.audio[base + i] * (1.0 - g) + seg[i] * g;
    }
    utt.audio.append(seg.slice(fade, seg.size()));
  }
  return utt;
}

Utterance UtteranceBuilder::build(const VoiceCommand& command,
                                  const SpeakerProfile& speaker,
                                  Rng& rng) const {
  return realize(draw(command, speaker, rng));
}

UtteranceDraw UtteranceBuilder::draw(const VoiceCommand& command,
                                     const SpeakerProfile& speaker,
                                     Rng& rng) const {
  VIBGUARD_REQUIRE(!command.phonemes.empty(),
                   "command must contain at least one phoneme");
  return draw_symbols(command.phonemes, command.text, speaker, rng);
}

Utterance UtteranceBuilder::build_random(std::size_t num_phonemes,
                                         const SpeakerProfile& speaker,
                                         Rng& rng) const {
  VIBGUARD_REQUIRE(num_phonemes > 0, "need at least one phoneme");
  const auto phonemes = common_phonemes();
  // Frequency-weighted sampling following Table II appearance counts.
  int total = 0;
  for (const Phoneme& p : phonemes) total += p.command_frequency;
  std::vector<std::string> symbols;
  symbols.reserve(num_phonemes);
  for (std::size_t i = 0; i < num_phonemes; ++i) {
    auto draw = rng.uniform_int(0, total - 1);
    for (const Phoneme& p : phonemes) {
      draw -= p.command_frequency;
      if (draw < 0) {
        symbols.push_back(p.symbol);
        break;
      }
    }
  }
  return realize(draw_symbols(symbols, "<random>", speaker, rng));
}

}  // namespace vibguard::speech
