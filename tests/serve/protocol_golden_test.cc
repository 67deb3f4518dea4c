// Golden frames: one hex-pinned v5 frame per request and response type.
//
// Every field carries a distinct, non-default value, so reordering two
// fields of the same width, dropping one or changing its encoding changes
// the bytes. Each test checks both directions: the encoder must produce
// the pinned bytes, and the decoder must accept them and read back a
// message that re-encodes to the same bytes. A wire change that is meant
// to happen bumps kProtocolVersion and re-pins these frames.

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "serve/protocol.h"

namespace pinocchio {
namespace serve {
namespace {

std::string Hex(std::span<const uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const uint8_t b : bytes) {
    hex += kDigits[b >> 4];
    hex += kDigits[b & 0xf];
  }
  return hex;
}

std::vector<uint8_t> Unhex(std::string_view hex) {
  std::vector<uint8_t> bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(
        static_cast<uint8_t>(std::stoi(std::string(hex.substr(i, 2)), nullptr,
                                       16)));
  }
  return bytes;
}

template <typename Message>
void ExpectGoldenWith(
    const Message& message, std::string_view golden,
    std::vector<uint8_t> (*encode)(const Message&),
    std::optional<Message> (*decode)(std::span<const uint8_t>, std::string*)) {
  EXPECT_EQ(Hex(encode(message)), golden);
  const std::vector<uint8_t> frame = Unhex(golden);
  std::string error;
  const std::optional<Message> decoded =
      decode(std::span<const uint8_t>(frame).subspan(4), &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->type, message.type);
  EXPECT_EQ(Hex(encode(*decoded)), golden);
}

void ExpectGolden(const Request& request, std::string_view golden) {
  ExpectGoldenWith(request, golden, &EncodeRequest, &DecodeRequest);
}

void ExpectGolden(const Response& response, std::string_view golden) {
  ExpectGoldenWith(response, golden, &EncodeResponse, &DecodeResponse);
}

// --------------------------------------------------------------- requests

TEST(ProtocolGoldenTest, SolveRequest) {
  Request m;
  m.type = RequestType::kSolve;
  m.solve.algorithm = WireAlgorithm::kNaive;
  m.solve.top_k = 42;
  ExpectGolden(m,
               "07000000"    // frame length 7
               "0501"        // version 5, RequestType::kSolve
               "02"          // algorithm = kNaive
               "2a000000");  // top_k = 42
}

TEST(ProtocolGoldenTest, TopKRequest) {
  Request m;
  m.type = RequestType::kTopK;
  m.top_k.k = 17;
  ExpectGolden(m,
               "06000000"    // frame length 6
               "0502"        // version 5, RequestType::kTopK
               "11000000");  // k = 17
}

TEST(ProtocolGoldenTest, ProbeRequest) {
  Request m;
  m.type = RequestType::kProbe;
  m.probe.location = Point{1.5, -2.25};
  ExpectGolden(m,
               "12000000"                            // frame length 18
               "0503"                                // version 5, kProbe
               "000000000000f83f00000000000002c0");  // location (1.5, -2.25)
}

TEST(ProtocolGoldenTest, WhatIfRequest) {
  Request m;
  m.type = RequestType::kWhatIf;
  m.what_if.tau = 0.625;
  m.what_if.rho = 0.875;
  m.what_if.lambda = 1.75;
  m.what_if.top_k = 9;
  ExpectGolden(m,
               "1e000000"          // frame length 30
               "0504"              // version 5, RequestType::kWhatIf
               "000000000000e43f"  // tau = 0.625
               "000000000000ec3f"  // rho = 0.875
               "000000000000fc3f"  // lambda = 1.75
               "09000000");        // top_k = 9
}

TEST(ProtocolGoldenTest, UpdateRequest) {
  Request m;
  m.type = RequestType::kUpdate;
  m.update.objects = {{4711, {{1.5, -2.5}, {3.25, 4.5}}}, {7, {{-8.0, 16.0}}}};
  m.update.candidates = {{0.75, -0.125}};
  ExpectGolden(m,
               "5a000000"                            // frame length 90
               "0505"                                // version 5, kUpdate
               "02000000"                            // 2 objects
               "67120000"                            // object_id = 4711
               "02000000"                            // 2 positions
               "000000000000f83f00000000000004c0"    // (1.5, -2.5)
               "0000000000000a400000000000001240"    // (3.25, 4.5)
               "07000000"                            // object_id = 7
               "01000000"                            // 1 position
               "00000000000020c00000000000003040"    // (-8, 16)
               "01000000"                            // 1 candidate
               "000000000000e83f000000000000c0bf");  // (0.75, -0.125)
}

TEST(ProtocolGoldenTest, StatsRequest) {
  Request m;
  m.type = RequestType::kStats;
  ExpectGolden(m,
               "02000000"  // frame length 2
               "0506");    // version 5, RequestType::kStats
}

TEST(ProtocolGoldenTest, SkylineRequest) {
  Request m;
  m.type = RequestType::kSkyline;
  m.skyline.cost_origin = Point{12000.5, -8000.25};
  ExpectGolden(m,
               "12000000"                            // frame length 18
               "0507"                                // version 5, kSkyline
               "000000004070c740000000004040bfc0");  // (12000.5, -8000.25)
}

TEST(ProtocolGoldenTest, DiversifiedRequest) {
  Request m;
  m.type = RequestType::kDiversified;
  m.diversified.k = 4;
  m.diversified.min_separation = 2000.5;
  ExpectGolden(m,
               "0e000000"           // frame length 14
               "0508"               // version 5, RequestType::kDiversified
               "04000000"           // k = 4
               "0000000000429f40");  // min_separation = 2000.5
}

TEST(ProtocolGoldenTest, ObserveRequest) {
  Request m;
  m.type = RequestType::kObserve;
  m.observe.observations = {{7, 1.5, {120.0, -40.0}}, {8, 2.5, {-3.5, 9.25}}};
  ExpectGolden(m,
               "3e000000"                            // frame length 62
               "0509"                                // version 5, kObserve
               "02000000"                            // 2 observations
               "07000000"                            // object_id = 7
               "000000000000f83f"                    // time = 1.5
               "0000000000005e4000000000000044c0"    // position (120, -40)
               "08000000"                            // object_id = 8
               "0000000000000440"                    // time = 2.5
               "0000000000000cc00000000000802240");  // position (-3.5, 9.25)
}

TEST(ProtocolGoldenTest, AdvanceRequest) {
  Request m;
  m.type = RequestType::kAdvance;
  m.advance.time = 600.5;
  ExpectGolden(m,
               "0a000000"           // frame length 10
               "050a"               // version 5, RequestType::kAdvance
               "0000000000c48240");  // time = 600.5
}

TEST(ProtocolGoldenTest, ApproxTopKRequest) {
  Request m;
  m.type = RequestType::kApproxTopK;
  m.approx.k = 5;
  m.approx.epsilon = 0.25;
  m.approx.delta = 0.125;
  m.approx.seed = 0x0123456789abcdefULL;
  ExpectGolden(m,
               "1e000000"           // frame length 30
               "050b"               // version 5, RequestType::kApproxTopK
               "05000000"           // k = 5
               "000000000000d03f"   // epsilon = 0.25
               "000000000000c03f"   // delta = 0.125
               "efcdab8967452301");  // seed = 0x0123456789abcdef
}

// -------------------------------------------------------------- responses

TEST(ProtocolGoldenTest, ErrorResponse) {
  Response m;
  m.type = ResponseType::kError;
  m.error.code = ErrorCode::kBadRequest;
  m.error.message = "tau must be in (0, 1)";
  ExpectGolden(m,
               "1c000000"  // frame length 28
               "0500"      // version 5, ResponseType::kError
               "04"        // code = kBadRequest
               "15000000"  // 21-byte message
               "746175206d75737420626520696e2028302c203129");
}

TEST(ProtocolGoldenTest, SolveResponse) {
  Response m;
  m.type = ResponseType::kSolve;
  m.solve.epoch = 3;
  m.solve.num_objects = 1000;
  m.solve.num_candidates = 600;
  m.solve.best_candidate = 42;
  m.solve.best_influence = -7;
  m.solve.solve_seconds = 0.375;
  m.solve.topk = {{42, 99, false}, {7, 98, true}};
  ExpectGolden(m,
               "4c000000"          // frame length 76
               "0501"              // version 5, ResponseType::kSolve
               "0300000000000000"  // epoch = 3
               "e803000000000000"  // num_objects = 1000
               "5802000000000000"  // num_candidates = 600
               "2a000000"          // best_candidate = 42
               "f9ffffffffffffff"  // best_influence = -7
               "000000000000d83f"  // solve_seconds = 0.375
               "02000000"          // 2 entries
               "2a000000"          // candidate = 42
               "6300000000000000"  // influence = 99
               "00"                // exact = false
               "07000000"          // candidate = 7
               "6200000000000000"  // influence = 98
               "01");              // exact = true
}

TEST(ProtocolGoldenTest, ProbeResponse) {
  Response m;
  m.type = ResponseType::kProbe;
  m.probe.epoch = 5;
  m.probe.num_objects = 321;
  m.probe.influence = 77;
  m.probe.solve_seconds = 0.0625;
  ExpectGolden(m,
               "22000000"           // frame length 34
               "0503"               // version 5, ResponseType::kProbe
               "0500000000000000"   // epoch = 5
               "4101000000000000"   // num_objects = 321
               "4d00000000000000"   // influence = 77
               "000000000000b03f");  // solve_seconds = 0.0625
}

TEST(ProtocolGoldenTest, UpdateResponse) {
  Response m;
  m.type = ResponseType::kUpdate;
  m.update.epoch = 6;
  m.update.pending_updates = 2;
  m.update.accepted = true;
  ExpectGolden(m,
               "13000000"          // frame length 19
               "0505"              // version 5, ResponseType::kUpdate
               "0600000000000000"  // epoch = 6
               "0200000000000000"  // pending_updates = 2
               "01");              // accepted = true
}

TEST(ProtocolGoldenTest, StatsResponse) {
  Response m;
  m.type = ResponseType::kStats;
  StatsResponse& s = m.stats;
  s.epoch = 101;
  s.num_objects = 102;
  s.num_candidates = 103;
  s.snapshot_swaps = 104;
  s.pending_updates = 105;
  s.solve_requests = 106;
  s.topk_requests = 107;
  s.probe_requests = 108;
  s.whatif_requests = 109;
  s.update_requests = 110;
  s.stats_requests = 111;
  s.skyline_requests = 112;
  s.diverse_requests = 113;
  s.error_responses = 114;
  s.uptime_seconds = 115.5;
  s.solve_threads = 116;
  s.solve_busy_seconds = 117.5;
  s.observe_requests = 118;
  s.advance_requests = 119;
  s.stream_observations = 120;
  s.stream_live_objects = 121;
  s.stream_live_positions = 122;
  s.stream_window_seconds = 123.5;
  s.approx_requests = 124;
  ExpectGolden(m,
               "c2000000"           // frame length 194
               "0506"               // version 5, ResponseType::kStats
               "6500000000000000"   // epoch = 101
               "6600000000000000"   // num_objects = 102
               "6700000000000000"   // num_candidates = 103
               "6800000000000000"   // snapshot_swaps = 104
               "6900000000000000"   // pending_updates = 105
               "6a00000000000000"   // solve_requests = 106
               "6b00000000000000"   // topk_requests = 107
               "6c00000000000000"   // probe_requests = 108
               "6d00000000000000"   // whatif_requests = 109
               "6e00000000000000"   // update_requests = 110
               "6f00000000000000"   // stats_requests = 111
               "7000000000000000"   // skyline_requests = 112
               "7100000000000000"   // diverse_requests = 113
               "7200000000000000"   // error_responses = 114
               "0000000000e05c40"   // uptime_seconds = 115.5
               "7400000000000000"   // solve_threads = 116
               "0000000000605d40"   // solve_busy_seconds = 117.5
               "7600000000000000"   // observe_requests = 118
               "7700000000000000"   // advance_requests = 119
               "7800000000000000"   // stream_observations = 120
               "7900000000000000"   // stream_live_objects = 121
               "7a00000000000000"   // stream_live_positions = 122
               "0000000000e05e40"   // stream_window_seconds = 123.5
               "7c00000000000000");  // approx_requests = 124
}

TEST(ProtocolGoldenTest, SkylineResponse) {
  Response m;
  m.type = ResponseType::kSkyline;
  m.skyline.epoch = 7;
  m.skyline.num_objects = 321;
  m.skyline.num_candidates = 99;
  m.skyline.bound_skipped = 55;
  m.skyline.solve_seconds = 0.25;
  m.skyline.skyline = {{4, 120, 0.5}, {9, 80, 13.5}};
  ExpectGolden(m,
               "56000000"           // frame length 86
               "0507"               // version 5, ResponseType::kSkyline
               "0700000000000000"   // epoch = 7
               "4101000000000000"   // num_objects = 321
               "6300000000000000"   // num_candidates = 99
               "3700000000000000"   // bound_skipped = 55
               "000000000000d03f"   // solve_seconds = 0.25
               "02000000"           // 2 members
               "04000000"           // candidate = 4
               "7800000000000000"   // influence = 120
               "000000000000e03f"   // cost = 0.5
               "09000000"           // candidate = 9
               "5000000000000000"   // influence = 80
               "0000000000002b40");  // cost = 13.5
}

TEST(ProtocolGoldenTest, DiverseResponse) {
  Response m;
  m.type = ResponseType::kDiversified;
  m.diverse.epoch = 8;
  m.diverse.num_objects = 50;
  m.diverse.num_candidates = 40;
  m.diverse.gain_evaluations = 777;
  m.diverse.solve_seconds = 0.125;
  m.diverse.selected = {{17, 25}, {3, 9}};
  ExpectGolden(m,
               "46000000"           // frame length 70
               "0508"               // version 5, ResponseType::kDiversified
               "0800000000000000"   // epoch = 8
               "3200000000000000"   // num_objects = 50
               "2800000000000000"   // num_candidates = 40
               "0903000000000000"   // gain_evaluations = 777
               "000000000000c03f"   // solve_seconds = 0.125
               "02000000"           // 2 picks
               "11000000"           // candidate = 17
               "1900000000000000"   // coverage = 25
               "03000000"           // candidate = 3
               "0900000000000000");  // coverage = 9
}

TEST(ProtocolGoldenTest, StreamResponse) {
  Response m;
  m.type = ResponseType::kStream;
  m.stream.now = 1234.5;
  m.stream.live_objects = 11;
  m.stream.live_positions = 12;
  m.stream.applied = 13;
  m.stream.has_best = true;
  m.stream.best_candidate = 14;
  m.stream.best_influence = 15;
  ExpectGolden(m,
               "2f000000"           // frame length 47
               "0509"               // version 5, ResponseType::kStream
               "00000000004a9340"   // now = 1234.5
               "0b00000000000000"   // live_objects = 11
               "0c00000000000000"   // live_positions = 12
               "0d00000000000000"   // applied = 13
               "01"                 // has_best = true
               "0e000000"           // best_candidate = 14
               "0f00000000000000");  // best_influence = 15
}

TEST(ProtocolGoldenTest, ApproxResponse) {
  Response m;
  m.type = ResponseType::kApprox;
  m.approx.epoch = 9;
  m.approx.num_objects = 60;
  m.approx.num_candidates = 30;
  m.approx.solve_seconds = 0.1875;
  m.approx.entries = {{9, 150, 120, 181, false}, {4, 90, 85, 95, true}};
  ExpectGolden(m,
               "60000000"          // frame length 96
               "050a"              // version 5, ResponseType::kApprox
               "0900000000000000"  // epoch = 9
               "3c00000000000000"  // num_objects = 60
               "1e00000000000000"  // num_candidates = 30
               "000000000000c83f"  // solve_seconds = 0.1875
               "02000000"          // 2 entries
               "09000000"          // candidate = 9
               "9600000000000000"  // estimate = 150
               "7800000000000000"  // lo = 120
               "b500000000000000"  // hi = 181
               "00"                // exact = false
               "04000000"          // candidate = 4
               "5a00000000000000"  // estimate = 90
               "5500000000000000"  // lo = 85
               "5f00000000000000"  // hi = 95
               "01");              // exact = true
}

}  // namespace
}  // namespace serve
}  // namespace pinocchio
