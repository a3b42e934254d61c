// Frame codec battery (DESIGN.md §6i): golden wire bytes (the layout
// is a compatibility contract — if these fail, the protocol changed
// and the version must bump), round-trips through the incremental
// decoder under every chunking, the version-bump rejection path, and
// the poisoning rules for each class of malformed frame.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/frame.h"
#include "net/wire.h"
#include "query/request.h"
#include "util/status.h"

namespace vkg::net {
namespace {

std::string FromHex(std::string_view hex) {
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    auto nibble = [](char c) -> unsigned {
      if (c >= '0' && c <= '9') return static_cast<unsigned>(c - '0');
      return static_cast<unsigned>(c - 'a' + 10);
    };
    out.push_back(
        static_cast<char>((nibble(hex[i]) << 4) | nibble(hex[i + 1])));
  }
  return out;
}

std::string ToHex(std::string_view bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xf]);
  }
  return out;
}

FrameDecoder::Next FeedAndPull(std::string_view bytes, Frame* frame,
                               FrameDecoder* decoder) {
  decoder->Feed(bytes);
  return decoder->Pull(frame);
}

// ---------------------------------------------------------------------------
// Golden bytes: the v1 layout, frozen
// ---------------------------------------------------------------------------

TEST(FrameGolden, EmptyPingFrame) {
  // magic "VKGW" | version 1 | type kPing | length 0 | fnv1a checksum.
  EXPECT_EQ(ToHex(EncodeFrame(FrameType::kPing, "")),
            "564b4757010004000000000077a07312b2d3487e");
}

TEST(FrameGolden, PayloadFrame) {
  EXPECT_EQ(ToHex(EncodeFrame(FrameType::kRequest, "hello")),
            "564b4757010001000500000068656c6c6f1552c058e7a598c7");
}

TEST(FrameGolden, GoodbyeFrame) {
  EXPECT_EQ(ToHex(EncodeFrame(FrameType::kGoodbye, "")),
            "564b47570100060000000000051490364c0b1cc5");
}

TEST(FrameGolden, GoldenBytesDecode) {
  // The frozen bytes must parse back — both directions of the contract.
  FrameDecoder decoder;
  Frame frame;
  ASSERT_EQ(FeedAndPull(
                FromHex("564b4757010001000500000068656c6c6f1552c058e7a598c7"),
                &frame, &decoder),
            FrameDecoder::Next::kFrame);
  EXPECT_EQ(frame.type, FrameType::kRequest);
  EXPECT_EQ(frame.payload, "hello");
}

// ---------------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------------

TEST(FrameCodec, RoundTripsEveryType) {
  for (uint16_t t = 1; t <= 6; ++t) {
    const std::string payload(t * 7, static_cast<char>('a' + t));
    const std::string wire =
        EncodeFrame(static_cast<FrameType>(t), payload);
    EXPECT_EQ(wire.size(), payload.size() + kFrameOverhead);
    FrameDecoder decoder;
    Frame frame;
    ASSERT_EQ(FeedAndPull(wire, &frame, &decoder),
              FrameDecoder::Next::kFrame);
    EXPECT_EQ(static_cast<uint16_t>(frame.type), t);
    EXPECT_EQ(frame.payload, payload);
    EXPECT_FALSE(decoder.mid_frame());
  }
}

TEST(FrameCodec, DecodesByteAtATime) {
  // The incremental decoder must produce the same frames no matter how
  // the transport chunks the stream.
  const std::string wire = EncodeFrame(FrameType::kResponse, "payload") +
                           EncodeFrame(FrameType::kPong, "");
  FrameDecoder decoder;
  std::vector<Frame> frames;
  for (char c : wire) {
    decoder.Feed(std::string_view(&c, 1));
    Frame frame;
    while (decoder.Pull(&frame) == FrameDecoder::Next::kFrame) {
      frames.push_back(frame);
    }
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, FrameType::kResponse);
  EXPECT_EQ(frames[0].payload, "payload");
  EXPECT_EQ(frames[1].type, FrameType::kPong);
  EXPECT_FALSE(decoder.poisoned());
}

TEST(FrameCodec, PipelinedFramesInOneBuffer) {
  std::string wire;
  for (int i = 0; i < 10; ++i) {
    wire += EncodeFrame(FrameType::kRequest, std::string(i, 'x'));
  }
  FrameDecoder decoder;
  decoder.Feed(wire);
  Frame frame;
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(decoder.Pull(&frame), FrameDecoder::Next::kFrame) << i;
    EXPECT_EQ(frame.payload.size(), static_cast<size_t>(i));
  }
  EXPECT_EQ(decoder.Pull(&frame), FrameDecoder::Next::kNeedMore);
  EXPECT_EQ(decoder.frames_decoded(), 10u);
}

// ---------------------------------------------------------------------------
// Version-bump path
// ---------------------------------------------------------------------------

TEST(FrameCodec, RejectsFutureVersionCleanly) {
  // A peer speaking version 2 must get a clean "unsupported version"
  // error (the forward-compat contract), not a parse explosion.
  std::string wire = EncodeFrame(FrameType::kPing, "");
  wire[4] = 2;  // version LE low byte
  FrameDecoder decoder;
  Frame frame;
  ASSERT_EQ(FeedAndPull(wire, &frame, &decoder), FrameDecoder::Next::kError);
  EXPECT_EQ(decoder.error().code(), util::StatusCode::kDataLoss);
  EXPECT_NE(decoder.error().message().find("unsupported wire version"),
            std::string::npos);
}

TEST(FrameCodec, RejectsVersionZero) {
  std::string wire = EncodeFrame(FrameType::kPing, "");
  wire[4] = 0;
  FrameDecoder decoder;
  Frame frame;
  EXPECT_EQ(FeedAndPull(wire, &frame, &decoder), FrameDecoder::Next::kError);
}

// ---------------------------------------------------------------------------
// Malformed-frame corpus
// ---------------------------------------------------------------------------

TEST(FrameCodec, RejectsBadMagic) {
  std::string wire = EncodeFrame(FrameType::kPing, "");
  wire[0] = 'X';
  FrameDecoder decoder;
  Frame frame;
  ASSERT_EQ(FeedAndPull(wire, &frame, &decoder), FrameDecoder::Next::kError);
  EXPECT_NE(decoder.error().message().find("magic"), std::string::npos);
}

TEST(FrameCodec, RejectsUnknownType) {
  std::string wire = EncodeFrame(FrameType::kPing, "");
  wire[6] = 99;
  FrameDecoder decoder;
  Frame frame;
  ASSERT_EQ(FeedAndPull(wire, &frame, &decoder), FrameDecoder::Next::kError);
  EXPECT_NE(decoder.error().message().find("type"), std::string::npos);
}

TEST(FrameCodec, RejectsOversizedLengthBeforeBufferingPayload) {
  // Only the 12 header bytes are fed; an attacker-sized length field
  // must be rejected right there, without waiting for (or allocating)
  // the claimed payload.
  FrameDecoder decoder(/*max_payload=*/1024);
  std::string header = EncodeFrame(FrameType::kRequest, "");
  header.resize(kFrameHeaderSize);
  header[8] = static_cast<char>(0xff);
  header[9] = static_cast<char>(0xff);
  header[10] = static_cast<char>(0xff);
  header[11] = static_cast<char>(0x7f);
  Frame frame;
  ASSERT_EQ(FeedAndPull(header, &frame, &decoder),
            FrameDecoder::Next::kError);
  EXPECT_NE(decoder.error().message().find("cap"), std::string::npos);
}

TEST(FrameCodec, RejectsChecksumMismatchOnAnyFlippedBit) {
  const std::string wire = EncodeFrame(FrameType::kRequest, "payload!");
  for (size_t byte = 0; byte < wire.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = wire;
      corrupt[byte] = static_cast<char>(
          static_cast<unsigned char>(corrupt[byte]) ^ (1u << bit));
      FrameDecoder decoder;
      Frame frame;
      const FrameDecoder::Next next =
          FeedAndPull(corrupt, &frame, &decoder);
      if (byte >= 8 && byte < kFrameHeaderSize) {
        // A length-field flip either shifts the checksum offset
        // (mismatch -> error) or promises bytes that never arrive
        // (kNeedMore — the state the read deadline bounds). Never a
        // successfully decoded frame.
        EXPECT_NE(next, FrameDecoder::Next::kFrame)
            << "flip byte " << byte << " bit " << bit
            << " decoded a corrupt frame";
      } else {
        EXPECT_EQ(next, FrameDecoder::Next::kError)
            << "flip byte " << byte << " bit " << bit
            << " slipped through undetected";
      }
    }
  }
}

TEST(FrameCodec, PoisonedDecoderStaysPoisoned) {
  std::string bad = EncodeFrame(FrameType::kPing, "");
  bad[0] = 0;
  FrameDecoder decoder;
  Frame frame;
  ASSERT_EQ(FeedAndPull(bad, &frame, &decoder), FrameDecoder::Next::kError);
  // Even a pristine frame afterwards cannot resurrect the stream:
  // framing sync is untrusted after corruption.
  decoder.Feed(EncodeFrame(FrameType::kPing, ""));
  EXPECT_EQ(decoder.Pull(&frame), FrameDecoder::Next::kError);
  EXPECT_TRUE(decoder.poisoned());
}

TEST(FrameCodec, TruncatedFrameIsMidFrameNotError) {
  const std::string wire = EncodeFrame(FrameType::kRequest, "truncated");
  FrameDecoder decoder;
  decoder.Feed(wire.substr(0, wire.size() - 3));
  Frame frame;
  EXPECT_EQ(decoder.Pull(&frame), FrameDecoder::Next::kNeedMore);
  EXPECT_TRUE(decoder.mid_frame());  // what the read deadline bounds
  EXPECT_FALSE(decoder.poisoned());
  decoder.Feed(wire.substr(wire.size() - 3));
  EXPECT_EQ(decoder.Pull(&frame), FrameDecoder::Next::kFrame);
  EXPECT_EQ(frame.payload, "truncated");
}

// ---------------------------------------------------------------------------
// Payload codecs ride the same contract
// ---------------------------------------------------------------------------

TEST(WireCodec, RequestRoundTrip) {
  query::ServerRequest request;
  request.client_id = "tester";
  request.kind = query::RequestKind::kTopK;
  request.query.anchor = 17;
  request.query.relation = 3;
  request.query.direction = kg::Direction::kTail;
  request.k = 25;
  request.deadline_ms = 12.5;
  request.budget.max_points = 1000;
  request.priority = 1;
  request.bypass_cache = true;

  uint64_t id = 0;
  query::ServerRequest decoded;
  ASSERT_TRUE(
      DecodeRequest(EncodeRequest(99, request), &id, &decoded).ok());
  EXPECT_EQ(id, 99u);
  EXPECT_EQ(decoded.client_id, "tester");
  EXPECT_EQ(decoded.query.anchor, 17u);
  EXPECT_EQ(decoded.k, 25u);
  EXPECT_EQ(decoded.deadline_ms, 12.5);
  EXPECT_EQ(decoded.budget.max_points, 1000u);
  EXPECT_EQ(decoded.priority, 1);
  EXPECT_TRUE(decoded.bypass_cache);
}

TEST(WireCodec, ResponseRoundTrip) {
  query::ServerResponse response;
  response.meta.shard = 2;
  response.meta.cache_hit = true;
  response.meta.data_version = 7;
  query::TopKHit hit;
  hit.entity = 42;
  hit.distance = 1.5;
  hit.probability = 0.75;
  response.topk.hits.push_back(hit);
  response.topk.quality.exact = true;

  uint64_t id = 0;
  query::ServerResponse decoded;
  ASSERT_TRUE(DecodeResponse(
                  EncodeResponse(7, response, query::RequestKind::kTopK),
                  &id, &decoded)
                  .ok());
  EXPECT_EQ(id, 7u);
  EXPECT_TRUE(decoded.meta.cache_hit);
  ASSERT_EQ(decoded.topk.hits.size(), 1u);
  EXPECT_EQ(decoded.topk.hits[0].entity, 42u);
  EXPECT_EQ(decoded.topk.hits[0].distance, 1.5);
}

TEST(WireCodec, ErrorRoundTripCarriesRetryAfter) {
  WireError error;
  error.code = WireErrorCode::kRejected;
  error.retry_after_ms = 75.0;
  error.message = "connection cap reached";
  WireError decoded;
  ASSERT_TRUE(DecodeWireError(EncodeWireError(error), &decoded).ok());
  EXPECT_EQ(decoded.code, WireErrorCode::kRejected);
  EXPECT_EQ(decoded.retry_after_ms, 75.0);
  EXPECT_EQ(decoded.message, "connection cap reached");
}

TEST(WireCodec, TrailingGarbageRejected) {
  query::ServerRequest request;
  std::string payload = EncodeRequest(1, request);
  payload.push_back('\0');
  uint64_t id = 0;
  query::ServerRequest decoded;
  EXPECT_FALSE(DecodeRequest(payload, &id, &decoded).ok());
}

}  // namespace
}  // namespace vkg::net
