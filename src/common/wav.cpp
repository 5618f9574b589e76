#include "common/wav.hpp"

#include <algorithm>
#include <cstdint>
#include <cmath>
#include <cstring>
#include <fstream>
#include <vector>

#include "common/error.hpp"

namespace vibguard {
namespace {

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 24) & 0xff));
}

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
}

/// Appends a four-character chunk tag.
void put_tag(std::vector<std::uint8_t>& out, const char (&tag)[5]) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(tag[i]));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] |
                                    (static_cast<std::uint16_t>(p[1]) << 8));
}

}  // namespace

std::vector<std::uint8_t> encode_wav(const Signal& signal) {
  VIBGUARD_REQUIRE(signal.sample_rate() > 0.0,
                   "cannot encode a signal without a sample rate");
  const auto rate = static_cast<std::uint32_t>(signal.sample_rate());
  const auto n = static_cast<std::uint32_t>(signal.size());
  const std::uint32_t data_bytes = n * 2;

  std::vector<std::uint8_t> out;
  out.reserve(44 + data_bytes);
  put_tag(out, "RIFF");
  put_u32(out, 36 + data_bytes);
  put_tag(out, "WAVE");
  put_tag(out, "fmt ");
  put_u32(out, 16);            // fmt chunk size
  put_u16(out, 1);             // PCM
  put_u16(out, 1);             // mono
  put_u32(out, rate);
  put_u32(out, rate * 2);      // byte rate
  put_u16(out, 2);             // block align
  put_u16(out, 16);            // bits per sample
  put_tag(out, "data");
  put_u32(out, data_bytes);
  for (double s : signal) {
    const double clipped = std::clamp(s, -1.0, 1.0);
    const auto q = static_cast<std::int16_t>(
        std::lround(clipped * 32767.0));
    put_u16(out, static_cast<std::uint16_t>(q));
  }
  return out;
}

Signal decode_wav(std::span<const std::uint8_t> bytes,
                  const std::string& context) {
  VIBGUARD_REQUIRE(bytes.size() >= 12,
                   "not a WAV stream (too short): " + context);
  VIBGUARD_REQUIRE(std::memcmp(bytes.data(), "RIFF", 4) == 0 &&
                       std::memcmp(bytes.data() + 8, "WAVE", 4) == 0,
                   "not a RIFF/WAVE stream: " + context);

  // Walk chunks to find fmt and data. Every size claim is validated
  // against the bytes actually present before it is dereferenced; a size
  // that would overflow position arithmetic is rejected the same way.
  std::size_t pos = 12;
  bool have_fmt = false;
  std::uint16_t channels = 0, bits = 0;
  std::uint32_t rate = 0;
  const std::uint8_t* data_ptr = nullptr;
  std::size_t data_len = 0;
  while (pos + 8 <= bytes.size()) {
    const std::size_t chunk_len = get_u32(bytes.data() + pos + 4);
    const std::uint8_t* body = bytes.data() + pos + 8;
    const std::size_t available = bytes.size() - pos - 8;
    if (std::memcmp(bytes.data() + pos, "fmt ", 4) == 0) {
      // The fmt chunk is tiny and load-bearing; a cut-off one is an error,
      // not something to skip past.
      VIBGUARD_REQUIRE(chunk_len >= 16 && chunk_len <= available,
                       "malformed fmt chunk: " + context);
      const std::uint16_t format = get_u16(body);
      VIBGUARD_REQUIRE(format == 1, "only PCM WAV supported: " + context);
      channels = get_u16(body + 2);
      rate = get_u32(body + 4);
      bits = get_u16(body + 14);
      have_fmt = true;
    } else if (std::memcmp(bytes.data() + pos, "data", 4) == 0 &&
               data_ptr == nullptr) {
      // First data chunk wins. A chunk claiming more bytes than the stream
      // holds is the interrupted-upload truncation: decode the samples
      // actually present instead of rejecting the whole capture.
      data_ptr = body;
      data_len = std::min(chunk_len, available);
    }
    if (chunk_len > available) break;  // truncated final chunk: stop walking
    pos += 8 + chunk_len + (chunk_len & 1);
  }
  VIBGUARD_REQUIRE(have_fmt, "missing fmt chunk: " + context);
  VIBGUARD_REQUIRE(data_ptr != nullptr, "missing data chunk: " + context);
  VIBGUARD_REQUIRE(rate > 0, "zero sample rate: " + context);
  VIBGUARD_REQUIRE(bits == 16, "only 16-bit PCM supported: " + context);
  VIBGUARD_REQUIRE(channels >= 1, "no channels: " + context);

  // One quantization convention for both directions: encode_wav scales by
  // 32767, so dividing by the same constant makes the round trip of any
  // already-quantized signal exact (see DESIGN.md). Multichannel streams
  // are downmixed by averaging the channels of each frame; a trailing
  // partial frame (truncation) is dropped.
  const std::size_t frames = data_len / (2 * channels);
  std::vector<double> samples(frames);
  const double scale = 32767.0 * static_cast<double>(channels);
  for (std::size_t i = 0; i < frames; ++i) {
    double acc = 0.0;
    for (std::size_t c = 0; c < channels; ++c) {
      acc += static_cast<std::int16_t>(
          get_u16(data_ptr + (i * channels + c) * 2));
    }
    samples[i] = acc / scale;
  }
  return Signal(std::move(samples), static_cast<double>(rate));
}

void write_wav(const std::string& path, const Signal& signal) {
  const std::vector<std::uint8_t> out = encode_wav(signal);
  std::ofstream file(path, std::ios::binary);
  VIBGUARD_REQUIRE(file.good(), "cannot open for writing: " + path);
  file.write(reinterpret_cast<const char*>(out.data()),
             static_cast<std::streamsize>(out.size()));
  VIBGUARD_REQUIRE(file.good(), "write failed: " + path);
}

Signal read_wav(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  VIBGUARD_REQUIRE(file.good(), "cannot open for reading: " + path);
  std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(file)),
      std::istreambuf_iterator<char>());
  return decode_wav(bytes, path);
}

}  // namespace vibguard
