#include "common/wav.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dsp/generate.hpp"

namespace vibguard {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(WavTest, RoundTripPreservesSignal) {
  Rng rng(1);
  const Signal original = dsp::white_noise(0.25, 16000.0, 0.1, rng);
  const std::string path = temp_path("vibguard_roundtrip.wav");
  write_wav(path, original);
  const Signal loaded = read_wav(path);
  ASSERT_EQ(loaded.size(), original.size());
  EXPECT_DOUBLE_EQ(loaded.sample_rate(), 16000.0);
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_NEAR(loaded[i], original[i], 1.0 / 32768.0 + 1e-9);
  }
  std::remove(path.c_str());
}

TEST(WavTest, ClipsOutOfRangeSamples) {
  Signal loud({2.0, -3.0, 0.5}, 8000.0);
  const std::string path = temp_path("vibguard_clip.wav");
  write_wav(path, loud);
  const Signal loaded = read_wav(path);
  EXPECT_NEAR(loaded[0], 1.0, 0.001);
  EXPECT_NEAR(loaded[1], -1.0, 0.001);
  EXPECT_NEAR(loaded[2], 0.5, 0.001);
  std::remove(path.c_str());
}

TEST(WavTest, PreservesSampleRate) {
  const Signal s = Signal::zeros(100, 200.0);
  const std::string path = temp_path("vibguard_rate.wav");
  write_wav(path, s);
  EXPECT_DOUBLE_EQ(read_wav(path).sample_rate(), 200.0);
  std::remove(path.c_str());
}

TEST(WavTest, EmptySignalRoundTrips) {
  const Signal s({}, 16000.0);
  const std::string path = temp_path("vibguard_empty.wav");
  write_wav(path, s);
  EXPECT_TRUE(read_wav(path).empty());
  std::remove(path.c_str());
}

TEST(WavTest, QuantizedValuesRoundTripExactly) {
  // The PR 3 scaling-asymmetry regression: write_wav quantizes by 32767,
  // so values already on the q/32767 grid must survive a round trip
  // bit-exactly. The old read path divided by 32768, biasing every
  // round-tripped amplitude low by a factor 32767/32768.
  const std::vector<int> quants = {-32767, -12345, -1, 0, 1, 777, 32767};
  std::vector<double> samples;
  for (int q : quants) samples.push_back(q / 32767.0);
  const Signal original(std::move(samples), 8000.0);
  const std::string path = temp_path("vibguard_quantized.wav");
  write_wav(path, original);
  const Signal loaded = read_wav(path);
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded[i], original[i]) << "sample " << i;
  }
  std::remove(path.c_str());
}

TEST(WavTest, FullScaleIsSymmetric) {
  const Signal original({1.0, -1.0}, 8000.0);
  const std::string path = temp_path("vibguard_fullscale.wav");
  write_wav(path, original);
  const Signal loaded = read_wav(path);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_DOUBLE_EQ(loaded[0], 1.0);
  EXPECT_DOUBLE_EQ(loaded[1], -1.0);
  std::remove(path.c_str());
}

TEST(WavTest, StereoDownmixAveragesChannels) {
  // Hand-built 2-channel PCM file: read_wav must average the channels of
  // each frame, not silently keep channel 0.
  const std::vector<std::pair<std::int16_t, std::int16_t>> frames = {
      {32767, -32767},  // cancels to 0
      {1000, 3000},     // averages to 2000
      {-500, -500},     // equal channels pass through
  };
  std::vector<std::uint8_t> bytes;
  auto u16 = [&bytes](std::uint16_t v) {
    bytes.push_back(static_cast<std::uint8_t>(v & 0xff));
    bytes.push_back(static_cast<std::uint8_t>(v >> 8));
  };
  auto u32 = [&bytes](std::uint32_t v) {
    bytes.push_back(static_cast<std::uint8_t>(v & 0xff));
    bytes.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
    bytes.push_back(static_cast<std::uint8_t>((v >> 16) & 0xff));
    bytes.push_back(static_cast<std::uint8_t>((v >> 24) & 0xff));
  };
  auto tag = [&bytes](const std::string& s) {
    for (const char c : s) bytes.push_back(static_cast<std::uint8_t>(c));
  };
  const auto data_bytes =
      static_cast<std::uint32_t>(frames.size() * 2 * sizeof(std::int16_t));
  tag("RIFF");
  u32(36 + data_bytes);
  tag("WAVEfmt ");
  u32(16);     // fmt chunk size
  u16(1);      // PCM
  u16(2);      // stereo
  u32(8000);   // sample rate
  u32(8000 * 4);
  u16(4);      // block align
  u16(16);     // bits per sample
  tag("data");
  u32(data_bytes);
  for (const auto& [left, right] : frames) {
    u16(static_cast<std::uint16_t>(left));
    u16(static_cast<std::uint16_t>(right));
  }

  const std::string path = temp_path("vibguard_stereo.wav");
  {
    std::ofstream f(path, std::ios::binary);
    f.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  }
  const Signal loaded = read_wav(path);
  ASSERT_EQ(loaded.size(), frames.size());
  EXPECT_DOUBLE_EQ(loaded.sample_rate(), 8000.0);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const double want =
        (frames[i].first + frames[i].second) / (2.0 * 32767.0);
    EXPECT_DOUBLE_EQ(loaded[i], want) << "frame " << i;
  }
  std::remove(path.c_str());
}

TEST(WavTest, EncodeDecodeMemoryRoundTrip) {
  Rng rng(2);
  const Signal original = dsp::white_noise(0.1, 8000.0, 0.1, rng);
  const auto bytes = encode_wav(original);
  EXPECT_EQ(bytes.size(), 44 + original.size() * 2);
  const Signal decoded = decode_wav(bytes);
  ASSERT_EQ(decoded.size(), original.size());
  EXPECT_DOUBLE_EQ(decoded.sample_rate(), 8000.0);
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_NEAR(decoded[i], original[i], 1.0 / 32768.0 + 1e-9);
  }
}

TEST(WavTest, TruncatedDataChunkDecodesPresentSamples) {
  // The interrupted-upload case: the data chunk claims more bytes than the
  // stream holds. The decoder keeps the samples actually present and drops
  // a trailing partial frame instead of rejecting the capture.
  const Signal original({0.1, 0.2, 0.3, 0.4, 0.5, 0.6}, 8000.0);
  const auto full = encode_wav(original);
  // Cut mid-way through sample 4 (one of its two bytes survives).
  const std::vector<std::uint8_t> cut(full.begin(),
                                      full.begin() + 44 + 4 * 2 + 1);
  const Signal decoded = decode_wav(cut, "truncated");
  ASSERT_EQ(decoded.size(), 4u);
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    EXPECT_NEAR(decoded[i], original[i], 1.0 / 32768.0 + 1e-9);
  }
}

TEST(WavTest, DecodeRejectsMalformedStreams) {
  const Signal tiny({0.25, -0.25}, 8000.0);
  const auto good = encode_wav(tiny);

  // Shorter than any RIFF header.
  EXPECT_THROW(decode_wav(std::vector<std::uint8_t>{'R', 'I', 'F'}), Error);
  // Bad magic in either slot.
  {
    auto bad = good;
    bad[0] = 'X';
    EXPECT_THROW(decode_wav(bad), Error);
  }
  {
    auto bad = good;
    bad[8] = 'X';  // WAVE tag
    EXPECT_THROW(decode_wav(bad), Error);
  }
  // fmt chunk claiming fewer than the 16 load-bearing bytes.
  {
    auto bad = good;
    bad[16] = 8;  // fmt chunk size low byte
    EXPECT_THROW(decode_wav(bad), Error);
  }
  // fmt chunk claiming more bytes than the stream holds.
  {
    auto bad = good;
    bad[19] = 0x7f;  // fmt chunk size high byte -> gigantic claim
    EXPECT_THROW(decode_wav(bad), Error);
  }
  // Non-PCM format code.
  {
    auto bad = good;
    bad[20] = 3;  // IEEE float
    EXPECT_THROW(decode_wav(bad), Error);
  }
  // Zero channels.
  {
    auto bad = good;
    bad[22] = 0;
    EXPECT_THROW(decode_wav(bad), Error);
  }
  // Zero sample rate.
  {
    auto bad = good;
    bad[24] = bad[25] = bad[26] = bad[27] = 0;
    EXPECT_THROW(decode_wav(bad), Error);
  }
  // Unsupported bit depth.
  {
    auto bad = good;
    bad[34] = 8;
    EXPECT_THROW(decode_wav(bad), Error);
  }
  // Header only, no data chunk.
  {
    const std::vector<std::uint8_t> header_only(good.begin(),
                                                good.begin() + 36);
    EXPECT_THROW(decode_wav(header_only), Error);
  }
  // The untouched original still decodes.
  EXPECT_EQ(decode_wav(good).size(), 2u);
}

TEST(WavTest, DecodeSkipsUnknownChunks) {
  // LIST/INFO style metadata between fmt and data must be walked over.
  const Signal original({0.5, -0.5}, 8000.0);
  const auto plain = encode_wav(original);
  std::vector<std::uint8_t> bytes(plain.begin(), plain.begin() + 36);
  const char* junk = "LIST";
  bytes.insert(bytes.end(), junk, junk + 4);
  bytes.push_back(4);  // chunk length 4, little endian
  bytes.push_back(0);
  bytes.push_back(0);
  bytes.push_back(0);
  bytes.insert(bytes.end(), {'I', 'N', 'F', 'O'});
  bytes.insert(bytes.end(), plain.begin() + 36, plain.end());
  // Patch the RIFF size claim (not validated strictly, but keep it honest).
  const auto riff_len = static_cast<std::uint32_t>(bytes.size() - 8);
  bytes[4] = static_cast<std::uint8_t>(riff_len & 0xff);
  bytes[5] = static_cast<std::uint8_t>((riff_len >> 8) & 0xff);
  bytes[6] = static_cast<std::uint8_t>((riff_len >> 16) & 0xff);
  bytes[7] = static_cast<std::uint8_t>((riff_len >> 24) & 0xff);
  const Signal decoded = decode_wav(bytes);
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_NEAR(decoded[0], 0.5, 1e-3);
  EXPECT_NEAR(decoded[1], -0.5, 1e-3);
}

TEST(WavTest, ReadRejectsMissingFile) {
  EXPECT_THROW(read_wav("/nonexistent/dir/x.wav"), Error);
}

TEST(WavTest, ReadRejectsGarbage) {
  const std::string path = temp_path("vibguard_garbage.wav");
  {
    std::ofstream f(path);
    f << "this is definitely not a wav file, not even close to 44 bytes..";
  }
  EXPECT_THROW(read_wav(path), Error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace vibguard
