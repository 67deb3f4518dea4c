// Response rendering: the JSON and text forms the client prints, produced
// from the protocol's field lists.

#include <limits>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "serve/render.h"

namespace pinocchio {
namespace serve {
namespace {

std::string Render(const Response& response, bool json) {
  std::ostringstream out;
  RenderResponse(response, json, out);
  return out.str();
}

Response SampleSolve() {
  Response response;
  response.type = ResponseType::kSolve;
  response.solve.epoch = 3;
  response.solve.num_objects = 10;
  response.solve.num_candidates = 4;
  response.solve.best_candidate = 2;
  response.solve.best_influence = 7;
  response.solve.solve_seconds = 0.5;
  response.solve.topk = {{2, 7, true}, {1, 5, false}};
  return response;
}

TEST(RenderTest, JsonIsOneObjectKeyedByFieldName) {
  EXPECT_EQ(Render(SampleSolve(), /*json=*/true),
            "{\"type\": \"solve\", \"epoch\": 3, \"num_objects\": 10, "
            "\"num_candidates\": 4, \"best_candidate\": 2, "
            "\"best_influence\": 7, \"solve_seconds\": 0.5, \"topk\": "
            "[{\"candidate\": 2, \"influence\": 7, \"exact\": true}, "
            "{\"candidate\": 1, \"influence\": 5, \"exact\": false}]}\n");
}

TEST(RenderTest, TextIsOneLinePerFieldAndPerEntry) {
  EXPECT_EQ(Render(SampleSolve(), /*json=*/false),
            "type: solve\n"
            "epoch: 3\n"
            "num_objects: 10\n"
            "num_candidates: 4\n"
            "best_candidate: 2\n"
            "best_influence: 7\n"
            "solve_seconds: 0.5\n"
            "topk[0]: candidate=2 influence=7 exact=true\n"
            "topk[1]: candidate=1 influence=5 exact=false\n");
  Response empty;
  empty.type = ResponseType::kSkyline;
  EXPECT_NE(Render(empty, /*json=*/false).find("skyline: []\n"),
            std::string::npos);
}

TEST(RenderTest, JsonEscapesStringsAndNullsNonFiniteDoubles) {
  Response error;
  error.type = ResponseType::kError;
  error.error.code = ErrorCode::kBadRequest;
  error.error.message = "bad \"tau\"\\\n";
  EXPECT_EQ(Render(error, /*json=*/true),
            "{\"type\": \"error\", \"code\": \"bad-request\", \"message\": "
            "\"bad \\\"tau\\\"\\\\\\u000a\"}\n");

  Response stream;
  stream.type = ResponseType::kStream;
  stream.stream.now = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(Render(stream, /*json=*/true).find("\"now\": null"),
            std::string::npos);
}

}  // namespace
}  // namespace serve
}  // namespace pinocchio
