#include "speech/corpus.hpp"

#include "common/error.hpp"

namespace vibguard::speech {
namespace {

/// "m0", "f3", ...: the sex letter, then the index. Built in place: GCC 12
/// at -O3 reports a false -Wrestrict on `"m" + std::to_string(i)`.
std::string speaker_id(char sex, std::size_t index) {
  std::string id = std::to_string(index);
  id.insert(id.begin(), sex);
  return id;
}

}  // namespace

PhonemeCorpus::PhonemeCorpus(CorpusConfig config, std::uint64_t seed)
    : config_(config), seed_(seed), synth_(config.synth) {
  VIBGUARD_REQUIRE(config_.segments_per_phoneme > 0,
                   "corpus needs at least one segment per phoneme");
  VIBGUARD_REQUIRE(config_.num_males + config_.num_females > 0,
                   "corpus needs at least one speaker");
  Rng rng(seed_);
  speakers_.reserve(config_.num_males + config_.num_females);
  for (std::size_t i = 0; i < config_.num_males; ++i) {
    SpeakerProfile p = sample_speaker(Sex::kMale, rng);
    p.id = speaker_id('m', i);
    speakers_.push_back(std::move(p));
  }
  for (std::size_t i = 0; i < config_.num_females; ++i) {
    SpeakerProfile p = sample_speaker(Sex::kFemale, rng);
    p.id = speaker_id('f', i);
    speakers_.push_back(std::move(p));
  }
}

std::vector<PhonemeSegment> PhonemeCorpus::segments(
    const std::string& symbol) const {
  const Phoneme& p = phoneme_by_symbol(symbol);
  // Fork a dedicated stream per phoneme so corpora are stable regardless of
  // query order.
  std::uint64_t label = 0;
  for (char c : symbol) label = label * 131 + static_cast<std::uint64_t>(c);
  Rng rng = Rng(seed_).fork(label);

  std::vector<PhonemeSegment> out;
  out.reserve(config_.segments_per_phoneme);
  for (std::size_t i = 0; i < config_.segments_per_phoneme; ++i) {
    const SpeakerProfile& spk = speakers_[i % speakers_.size()];
    out.push_back({symbol, spk.id, synth_.synthesize(p, spk, rng)});
  }
  return out;
}

std::vector<PhonemeSegment> PhonemeCorpus::all_segments() const {
  std::vector<PhonemeSegment> out;
  out.reserve(common_phonemes().size() * config_.segments_per_phoneme);
  for (const Phoneme& p : common_phonemes()) {
    auto segs = segments(p.symbol);
    for (auto& s : segs) out.push_back(std::move(s));
  }
  return out;
}

}  // namespace vibguard::speech
